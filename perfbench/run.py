"""conrad benchmark: CLI workloads timed end to end, plus a traced run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Run it from anywhere inside a checkout that holds `src/conrad`.  Each round
of a workload runs in a fresh worker process (one at a time, no threads),
which imports `conrad.cli_io` and calls `run_command` once per operation.
Rounds repeat until S seconds have passed (at least MIN_ROUNDS).  Every
output is checked outside the timed region against `oracle`; later rounds
must print the same bytes as the first.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With `--trace 0` the metrics are end to end:

* wall_s       median over rounds of the time inside run_command for the round
* setup_s      median over rounds of the time to import conrad.cli_io
* peak_rss_mb  median over rounds of the worker's peak resident memory
* op_p50_ms, op_p95_ms  median and 95th percentile over the round's
               operations of each operation's median latency

Every time is scaled to the reference speed: multiplied by CAL_REF_S over
the worker's calibration time measured around it (see worker.py), because
the shared host's speed drifts more between runs than the bounds allow.
The line before the JSON gives the unscaled median wall time as well.

With `--trace 1` untraced and traced rounds alternate, and the metrics are
the per-layer counts and self times of `tracing`, with the tracing overhead.

`--write-reference` rewrites reference.json: the stdout sha256 of every
operation of every workload for REFERENCE_SEEDS.  A run compares its hashes
with it and says how many differ; that shows a byte change in a report but
does not decide correctness.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
import tracing
from inputs import Op

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = (0, 1, 2, 3)

MIN_ROUNDS = 3
# worker.calibrate() on the reference machine (README.md); scaled times are
# times at that speed.
CAL_REF_S = 0.0055
# A run must end within 180 s; a worker still running this long after the
# run started is killed.
RUN_LIMIT_S = 170

# Sweep sizes.  One round must stay far below the run length: the graph H1
# sweep at --max-n 4 takes about 39 s and the loopless sweeps at --max-n 6
# about 20 s, so the sweeps run one size down (see README.md).
GRAPH_MAX_N = 3
TOPO_MAX_N = 3
TOPO_SAMPLES = 50
LOOPLESS_MAX_N = 5


def _graph_h1h2(seed: int, workdir: str) -> list[Op]:
    argv = ["universe", "--kind", "graph", "--max-n", str(GRAPH_MAX_N), "--check", "h1h2"]
    return [Op(argv, "graph-h1h2", arg=GRAPH_MAX_N)]


def _topo_iso(seed: int, workdir: str) -> list[Op]:
    argv = ["verify", "--kind", "topo", "--max-n", str(TOPO_MAX_N),
            "--samples", str(TOPO_SAMPLES), "--seed", str(seed)]
    return [Op(argv, "topo-iso")]


def _loopless_radicals(seed: int, workdir: str) -> list[Op]:
    base = ["universe", "--kind", "loopless", "--max-n", str(LOOPLESS_MAX_N)]
    return [
        Op(base + ["--check", "degeneracy", "--class", "complete"], "loopless",
           arg=(LOOPLESS_MAX_N, "degeneracy-complete")),
        Op(base + ["--check", "complementary", "--class", "contains-k3"], "loopless",
           arg=(LOOPLESS_MAX_N, "complementary-contains-k3")),
    ]


# workload name -> operations of one round, from (seed, directory for input files)
WORKLOADS = {
    "graph-h1h2": _graph_h1h2,
    "topo-iso": _topo_iso,
    "loopless-radicals": _loopless_radicals,
    "single-ops": inputs.single_ops,
}


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "CONRAD_MAX_N", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_round(ops: list[Op], workdir: str, trace: bool, deadline: float) -> dict:
    plan = os.path.join(workdir, "plan.json")
    with open(plan, "w", encoding="utf-8") as handle:
        json.dump({"src": SRC, "trace": trace,
                   "ops": [{"argv": op.argv, "env": op.env} for op in ops]}, handle)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan],
        cwd=workdir, env=_worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def op_failed(op: Op, result: dict) -> bool:
    """Whether the operation failed, as opposed to printing a wrong answer.

    Exit status 1 with nothing on stderr is a report whose checks FAIL: an
    answer, which the output checks then judge.
    """
    err = result["stderr"]
    if op.check == "usage-error":
        one_line = err.endswith("\n") and err.count("\n") == 1
        return not (result["escaped"] is None and result["status"] == 2 and one_line)
    answered = result["status"] == 0 or (result["status"] == 1 and not err)
    return result["escaped"] is not None or not answered


def _digest(op: Op, workdir: str) -> str:
    """Identifies an operation by its command, environment and input bytes."""
    h = hashlib.sha256(op.key.encode())
    for token in op.argv:
        path = os.path.join(workdir, token)
        if token.endswith(".txt") and os.path.isfile(path):
            with open(path, "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()[:16]


def _scaled(seconds: float, cal: float) -> float:
    """A time measured while calibrate() took `cal`, at the reference speed."""
    return seconds * CAL_REF_S / cal


def _op_time(op: dict) -> float:
    return _scaled(op["seconds"], op["cal"])


def _wall(round_: dict) -> float:
    """Scaled seconds spent inside run_command over the round's operations."""
    return sum(_op_time(op) for op in round_["ops"])


def _raw_wall(round_: dict) -> float:
    return sum(op["seconds"] for op in round_["ops"])


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, workdir: str):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workdir = workdir
        self.ops = WORKLOADS[workload](seed, workdir)
        self.untraced: list[dict] = []
        self.traced: list[dict] = []

    def round(self, ops: list[Op], trace: bool) -> dict:
        return run_round(ops, self.workdir, trace, self.deadline)

    def measure(self, seconds: float, trace: bool) -> None:
        self.round([], False)  # warm-up: byte-compiles conrad
        start = time.perf_counter()
        while True:
            self.untraced.append(self.round(self.ops, False))
            if trace:
                self.traced.append(self.round(self.ops, True))
            if time.perf_counter() - start >= seconds and len(self.untraced) >= MIN_ROUNDS:
                break

    def verify(self) -> tuple[bool, int, int, list[str]]:
        """(correct, attempted, failed, problems) over every round."""
        first = self.untraced[0]["ops"]
        problems = []
        failed = 0
        rounds = self.untraced + self.traced
        for i, op in enumerate(self.ops):
            bad = op_failed(op, first[i])
            if not bad and op.check != "usage-error":
                problems += [f"{op.key}: {p}" for p in checks.check(op, first[i]["stdout"])]
            for r in rounds:
                result = r["ops"][i]
                failed += op_failed(op, result)
                same = (result["stdout"], result["status"]) == (first[i]["stdout"], first[i]["status"])
                if not op_failed(op, result) and not same:
                    problems.append(f"{op.key}: output differs between rounds")
        return not problems, len(self.ops) * len(rounds), failed, problems

    def end_to_end(self) -> dict:
        walls = [_wall(r) for r in self.untraced]
        per_op = [statistics.median(_op_time(r["ops"][i]) for r in self.untraced)
                  for i in range(len(self.ops))]
        ranked = sorted(per_op)
        setups = [_scaled(r["setup_s"], r["setup_cal"]) for r in self.untraced]
        return {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in self.untraced), "MB"),
            "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
            # nearest rank: with n ops, about n/20 operations lie above it
            "op_p95_ms": (ranked[max(0, -(-95 * len(ranked) // 100) - 1)] * 1e3, "ms"),
        }

    def per_layer(self) -> tuple[dict, list[str]]:
        snaps = [r["trace"] for r in self.traced]
        notes = []
        values: dict = {}
        for m in tracing.function_metrics():
            if m.unit == "count":
                counts = [s["counts"].get(m.name, 0) for s in snaps]
                if len(set(counts)) > 1:
                    notes.append(f"{m.name} differs between traced rounds: {counts}")
                values[m.name] = counts[0]
            else:
                values[m.name] = statistics.median(s["times"].get(m.name, 0.0) for s in snaps)
        for module in tracing.TIMED:
            values[f"{module}.self_s"] = sum(
                v for k, v in list(values.items())
                if k.startswith(f"{module}.") and k.endswith(".self_s")
            )
        pairs = snaps[0]["radical_pairs"]
        values["radical_engine.radical_recompute_ratio"] = (
            snaps[0]["radical_computations"] / pairs if pairs else 0.0)
        untraced = statistics.median(_wall(r) for r in self.untraced)
        traced = statistics.median(_wall(r) for r in self.traced)
        values["trace.untraced_wall_s"] = untraced
        values["trace.traced_wall_s"] = traced
        values["trace.overhead"] = traced / untraced
        return {m.name: (values[m.name], m.unit) for m in tracing.metrics()}, notes

    def records(self) -> list[dict]:
        reference = _load_reference()
        out = []
        for i, op in enumerate(self.ops):
            digest = _digest(op, self.workdir)
            first = self.untraced[0]["ops"][i]
            out.append({
                "op": op.key,
                "input": digest,
                "status": first["status"],
                "escaped": first["escaped"],
                "stdout_sha256": _sha(first["stdout"]),
                "reference_sha256": reference.get(digest),
                "median_ms": 1e3 * statistics.median(_op_time(r["ops"][i]) for r in self.untraced),
            })
        return out


def _load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def _workdir() -> str:
    path = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = _workdir()
    try:
        run = Run(workload, seed, workdir)
        run.measure(seconds, trace)
        correct, attempted, failed, problems = run.verify()
        metrics, notes = run.per_layer() if trace else (run.end_to_end(), [])
        records = run.records()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    differ = sum(1 for r in records if r["reference_sha256"] not in (None, r["stdout_sha256"]))
    absent = sum(1 for r in records if r["reference_sha256"] is None)
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    record_path = os.path.join(OUT, "records", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump({"problems": problems, "notes": notes, "ops": records}, handle, indent=1)
    raw = statistics.median(_raw_wall(r) for r in run.untraced)
    cal = statistics.median(op["cal"] for r in run.untraced for op in r["ops"])
    print(f"{workload} seed {seed}: {len(run.untraced)} rounds of {len(run.ops)} ops"
          + (f" (+{len(run.traced)} traced)" if trace else "")
          + f"; unscaled wall {raw:.4f} s, calibration {cal * 1e3:.3f} ms"
          + f"; stdout hashes vs reference: {len(records) - differ - absent} same,"
          f" {differ} differ, {absent} without reference; records in {os.path.relpath(record_path, ROOT)}")
    for line in (problems + notes)[:20]:
        print("  " + line)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_reference() -> None:
    reference = {}
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            workdir = _workdir()
            try:
                run = Run(workload, seed, workdir)
                run.untraced.append(run.round(run.ops, False))
                for op, result in zip(run.ops, run.untraced[0]["ops"]):
                    reference[_digest(op, workdir)] = _sha(result["stdout"])
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(reference)} hashes to {os.path.relpath(REFERENCE, ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "conrad", "cli_io.py")):
        print(f"error: no conrad sources under {SRC}", file=sys.stderr)
        return 2
    problems = checks.oracle_self_check()
    if problems:
        print("error: oracle self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
