"""Run one round of a workload in a fresh process and report it as JSON.

    python3 perfbench/worker.py PLAN.json

PLAN.json names the source tree, the operations (argv plus environment) and
whether to trace.  The worker times the import of `conrad.cli_io`, calls
`run_command` once per operation with stdout and stderr captured, and
prints one JSON object: import time, peak RSS, and per operation the exit
status, captured text, seconds and any exception that escaped.

The host's speed drifts by 20 % and more within seconds, so the worker also
times a fixed piece of pure-Python work (`calibrate`) before the import,
after it, and between operations once about SEGMENT_S of them have run.
Each timing carries `cal`, the mean of the calibrations just before and
just after it; the benchmark scales the timing by its `cal`.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback


# Operations run between two calibrations for about this many seconds.
SEGMENT_S = 0.2
CAL_REPEATS = 3


def _calibration_work() -> int:
    # Hashing, tuples, frozensets and dict updates, as in conrad's own loops.
    seen: dict = {}
    for i in range(4000):
        key = frozenset((i % 13, i % 7, (i * 5) % 11))
        seen[key] = seen.get(key, 0) + len(tuple(sorted(key)))
    return len(seen)


def calibrate() -> float:
    """Seconds the fixed calibration work takes now: the least of a few repeats.

    The collector is off meanwhile, so the heap conrad has built does not
    change the work timed.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(CAL_REPEATS):
            start = time.perf_counter()
            _calibration_work()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def _run(cli_io, op: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in op["env"]}
    os.environ.update(op["env"])
    status, escaped = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                status = cli_io.run_command(op["argv"])
            except Exception:
                # an escaped exception is the failure being counted, not a crash
                escaped = traceback.format_exc().strip().splitlines()[-1]
            seconds = time.perf_counter() - start
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return {
        "status": status,
        "escaped": escaped,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "seconds": seconds,
    }


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    before = calibrate()
    start = time.perf_counter()
    from conrad import cli_io
    setup = time.perf_counter() - start
    last = calibrate()
    setup_cal = (before + last) / 2

    tracer = None
    if plan["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    ops: list[dict] = []
    segment: list[dict] = []
    for i, op in enumerate(plan["ops"], 1):
        segment.append(_run(cli_io, op))
        if i == len(plan["ops"]) or sum(r["seconds"] for r in segment) >= SEGMENT_S:
            now = calibrate()
            for r in segment:
                r["cal"] = (last + now) / 2
            ops += segment
            segment, last = [], now
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(
        {
            "setup_s": setup,
            "setup_cal": setup_cal,
            "peak_rss_mb": peak_kb / 1024,
            "ops": ops,
            "trace": tracer.snapshot() if tracer else None,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
