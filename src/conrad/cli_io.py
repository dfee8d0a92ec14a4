"""Line-based parsing/serialization and the `conrad` command line.

Formats are diffable fixtures: one declaration per line, `#` comments and
trailing whitespace ignored, every listing sorted canonically.  Reports are
byte-identical for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import graph_congruence as gcm
from . import loopless_congruence as lcm
from . import radical_engine as eng
from . import topo_congruence as tcm
from . import verification as ver
from .errors import (
    CheckDefect,
    ConradError,
    InputSyntaxError,
    InvalidCongruence,
    SemanticError,
    UsageError,
)
from .structures import (
    FiniteGraph,
    FiniteSpace,
    LOOPS,
    NOLOOPS,
    Partition,
    _env_bound,
    graph,
    space,
)

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _ids(token: str, no: int) -> list[int]:
    if token == "-":
        return []
    try:
        return [int(t) for t in token.split(",") if t != ""]
    except ValueError:
        raise InputSyntaxError(no, f"expected comma-separated ids, got {token!r}")


def parse_structure(text: str):
    """Parse a graph or space file into the corresponding structure."""
    rows = list(_lines(text))
    if not rows:
        raise InputSyntaxError(1, "empty input")
    no, head = rows[0]
    parts = head.split()
    if parts[0] == "graph":
        if len(parts) != 3 or parts[2] not in (LOOPS, NOLOOPS):
            raise InputSyntaxError(no, "expected: graph <n> loops|noloops")
        try:
            n = int(parts[1])
        except ValueError:
            raise InputSyntaxError(no, f"bad vertex count {parts[1]!r}")
        edges = []
        for no2, line in rows[1:]:
            toks = line.split()
            if len(toks) != 3 or toks[0] != "e":
                raise InputSyntaxError(no2, "expected: e <a> <b>")
            try:
                a, b = int(toks[1]), int(toks[2])
            except ValueError:
                raise InputSyntaxError(no2, "edge endpoints must be integers")
            if a > b:
                raise InputSyntaxError(no2, "edges are written with a <= b")
            edges.append((a, b))
        return graph(n, parts[2], edges)
    if parts[0] == "space":
        if len(parts) != 2:
            raise InputSyntaxError(no, "expected: space <n>")
        try:
            n = int(parts[1])
        except ValueError:
            raise InputSyntaxError(no, f"bad point count {parts[1]!r}")
        opens = []
        for no2, line in rows[1:]:
            toks = line.split()
            if len(toks) != 2 or toks[0] != "open":
                raise InputSyntaxError(no2, "expected: open <ids>|-")
            opens.append(_ids(toks[1], no2))
        return space(n, opens)
    raise InputSyntaxError(no, f"unknown structure kind {parts[0]!r}")


def parse_congruence(text: str, carrier):
    """Parse a congruence file and validate it against its carrier."""
    rows = list(_lines(text))
    if not rows:
        raise InputSyntaxError(1, "empty input")
    no, head = rows[0]
    blocks: list[list[int]] = []
    if head == "tcong":
        if not isinstance(carrier, FiniteSpace):
            raise UsageError("tcong congruences need a space carrier")
        opens = []
        for no2, line in rows[1:]:
            toks = line.split()
            if toks[0] == "block":
                try:
                    blocks.append([int(t) for t in toks[1:]])
                except ValueError:
                    raise InputSyntaxError(no2, "block members must be integers")
            elif toks[0] == "open" and len(toks) == 2:
                opens.append(_ids(toks[1], no2))
            else:
                raise InputSyntaxError(no2, "expected: block <ids> or open <ids>|-")
        part = Partition.from_blocks(carrier.n, blocks)
        rho = tcm.TopoCongruence(part, frozenset(frozenset(u) for u in opens))
        return tcm.validate_tc(carrier, rho)
    if head == "gcong":
        if not isinstance(carrier, FiniteGraph):
            raise UsageError("gcong congruences need a graph carrier")
        edges = []
        for no2, line in rows[1:]:
            toks = line.split()
            if toks[0] == "block":
                try:
                    blocks.append([int(t) for t in toks[1:]])
                except ValueError:
                    raise InputSyntaxError(no2, "block members must be integers")
            elif toks[0] == "edge" and len(toks) == 3:
                try:
                    a, b = int(toks[1]), int(toks[2])
                except ValueError:
                    raise InputSyntaxError(no2, "edge endpoints must be integers")
                edges.append((min(a, b), max(a, b)))
            else:
                raise InputSyntaxError(no2, "expected: block <ids> or edge <a> <b>")
        part = Partition.from_blocks(carrier.n, blocks)
        theta = gcm.GraphCongruence(part, frozenset(edges))
        return eng.KIND_OPS[eng.kind_of(carrier)].validate(carrier, theta)
    raise InputSyntaxError(no, f"unknown congruence kind {head!r}")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt_set(ids) -> str:
    return ",".join(str(i) for i in sorted(ids)) if ids else "-"


def serialize_structure(structure) -> str:
    if isinstance(structure, FiniteGraph):
        out = [f"graph {structure.n} {structure.policy}"]
        out.extend(f"e {a} {b}" for a, b in sorted(structure.edges))
        return "\n".join(out) + "\n"
    if isinstance(structure, FiniteSpace):
        out = [f"space {structure.n}"]
        opens = sorted(structure.opens, key=lambda u: (len(u), sorted(u)))
        out.extend(f"open {_fmt_set(u)}" for u in opens)
        return "\n".join(out) + "\n"
    raise UsageError(f"cannot serialize {structure!r}")


def serialize_congruence(cong) -> str:
    if isinstance(cong, tcm.TopoCongruence):
        out = ["tcong"]
        out.extend("block " + " ".join(str(v) for v in b) for b in cong.part.blocks)
        opens = sorted(cong.ctop, key=lambda u: (len(u), sorted(u)))
        out.extend(f"open {_fmt_set(u)}" for u in opens)
        return "\n".join(out) + "\n"
    if isinstance(cong, gcm.GraphCongruence):
        out = ["gcong"]
        out.extend("block " + " ".join(str(v) for v in b) for b in cong.part.blocks)
        out.extend(f"edge {a} {b}" for a, b in sorted(cong.cedges))
        return "\n".join(out) + "\n"
    raise UsageError(f"cannot serialize {cong!r}")


def describe_structure(structure) -> str:
    if isinstance(structure, FiniteGraph):
        edges = " ".join(f"{a}-{b}" for a, b in sorted(structure.edges)) or "-"
        return f"graph n={structure.n} {structure.policy} edges {edges}"
    opens = ";".join(_fmt_set(u) for u in sorted(structure.opens, key=lambda u: (len(u), sorted(u))))
    return f"space n={structure.n} opens {opens}"


def describe_congruence(cong) -> str:
    blocks = "".join("[" + " ".join(str(v) for v in b) + "]" for b in cong.part.blocks)
    if isinstance(cong, tcm.TopoCongruence):
        opens = ";".join(_fmt_set(u) for u in sorted(cong.ctop, key=lambda u: (len(u), sorted(u))))
        return f"blocks {blocks} opens {opens}"
    edges = " ".join(f"{a}-{b}" for a, b in sorted(cong.cedges)) or "-"
    return f"blocks {blocks} edges {edges}"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Report:
    """Deterministic line report; exit status 1 iff any record FAILs."""

    command: str
    records: list = field(default_factory=list)
    entries: list = field(default_factory=list)

    def check(self, name: str, ok: bool, witness: str = ""):
        self.records.append((name, ok, witness))
        line = f"CHECK {name} {'PASS' if ok else 'FAIL'}"
        if witness and not ok:
            line += f" witness: {witness}"
        self.entries.append(line)

    def info(self, line: str):
        self.entries.append(line)

    def render(self) -> str:
        out = [f"command: {self.command}"]
        out.extend(self.entries)
        if self.records:
            passed = sum(1 for _, ok, _ in self.records if ok)
            out.append(f"summary: {passed}/{len(self.records)} checks passed")
        return "\n".join(out) + "\n"

    @property
    def failed(self) -> bool:
        return any(not ok for _, ok, _ in self.records)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load_structure_arg(args) -> tuple:
    if getattr(args, "space", None):
        structure = parse_structure(_read(args.space))
        if not isinstance(structure, FiniteSpace):
            raise UsageError(f"{args.space} does not contain a space")
    elif getattr(args, "graph", None):
        structure = parse_structure(_read(args.graph))
        if not isinstance(structure, FiniteGraph):
            raise UsageError(f"{args.graph} does not contain a graph")
    else:
        raise UsageError("one of --space or --graph is required")
    return structure, eng.kind_of(structure)


def _cmd_congruences(args, report: Report) -> None:
    structure, kind = _load_structure_arg(args)
    ops = eng.KIND_OPS[kind]
    congs = ops.enum_congruences(structure)
    if args.strong_only:
        congs = [c for c in congs if ops.is_strong(structure, c)]
    for i, cong in enumerate(congs):
        report.info(f"cong {i}: {describe_congruence(cong)}")
    report.info(f"total {len(congs)}")


def _cmd_quotient(args, report: Report) -> None:
    structure, kind = _load_structure_arg(args)
    cong = parse_congruence(_read(args.cong), structure)
    quotient, proj = eng.KIND_OPS[kind].quotient(structure, cong)
    report.info(serialize_structure(quotient).rstrip("\n"))
    report.info("proj " + " ".join(f"{v}->{proj[v]}" for v in range(structure.n)))


def _cmd_decompose(args, report: Report) -> None:
    if args.birkhoff:
        g = parse_structure(_read(args.birkhoff))
        if not isinstance(g, FiniteGraph) or g.policy != NOLOOPS:
            raise UsageError("birkhoff decomposition needs a loopless graph")
        factors = lcm.birkhoff_complete_decomposition(g)
        for i, cong in enumerate(factors):
            quotient, _ = lcm.quotient_lc(g, cong)
            report.info(f"factor {i}: {describe_congruence(cong)} -> K_{quotient.n}")
        rows = [tuple(c.part.class_id[v] for c in factors) for v in range(g.n)]
        for v, row in enumerate(rows):
            report.info(f"embed {v} -> ({','.join(str(b) for b in row)})")
        report.check("meet-is-identity", gcm.meet_gc(g, factors) == gcm.identity_gc(g))
        return
    if args.sierpinski:
        x = parse_structure(_read(args.sierpinski))
        if not isinstance(x, FiniteSpace):
            raise UsageError("sierpinski decomposition needs a space")
        factors = tcm.sierpinski_decomposition(x)
        from .structures import S2, homeo_spaces

        for i, cong in enumerate(factors):
            quotient, _ = tcm.quotient_tc(x, cong)
            label = "S2" if homeo_spaces(quotient, S2) is not None else "I2"
            report.info(f"factor {i}: {describe_congruence(cong)} -> {label}")
        report.check(
            "meet-is-identity", tcm.meet_tc(x, factors) == tcm.identity_tc(x)
        )
        return
    raise UsageError("one of --birkhoff or --sierpinski is required")


def _cmd_radical(args, report: Report) -> None:
    structure = parse_structure(_read(args.file))
    kind = eng.kind_of(structure)
    cls = eng.builtin_class(kind, args.cls)
    value = eng.hoehnke_radical(structure, cls)
    report.info(serialize_congruence(value).rstrip("\n"))


def _cmd_catalog(args, report: Report) -> None:
    structure = parse_structure(_read(args.file))
    if args.kind == "topo":
        if not isinstance(structure, FiniteSpace):
            raise UsageError("catalog --kind topo needs a space file")
        value = eng.catalog_topological(structure, args.id)
        quotient, _ = tcm.quotient_tc(structure, value)
    else:
        if not isinstance(structure, FiniteGraph) or structure.policy != LOOPS:
            raise UsageError("catalog --kind graph needs a loops graph file")
        value = eng.catalog_graph(structure, args.id)
        quotient, _ = gcm.quotient_gc(structure, value)
    report.info(serialize_congruence(value).rstrip("\n"))
    report.info("quotient: " + describe_structure(quotient))


def _universe_for(kind: str, max_n: int) -> eng.Universe:
    return eng.build_universe(kind, max_n)


def _sigmas_for(kind: str, args) -> list:
    if args.cls:
        return [eng.radical_from_class(eng.builtin_class(kind, args.cls))]
    if kind == eng.KIND_TOPO:
        return [eng.catalog_topological_radical(c) for c in eng.TOPO_CATALOG_IDS]
    if kind == eng.KIND_GRAPH:
        return [eng.catalog_graph_radical(c) for c in eng.GRAPH_CATALOG_IDS]
    raise UsageError("--class is required for the loopless kind")


def _cmd_universe(args, report: Report) -> None:
    if args.max_n is None:
        args.max_n = _env_bound(3)
    kind = args.kind
    if kind not in eng.KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    uni = _universe_for(kind, args.max_n)
    report.info(f"universe: {kind} n<={args.max_n} ({len(uni.members)} members)")
    if args.check == "h1h2":
        for sigma in _sigmas_for(kind, args):
            bad1 = eng.h1_failures(sigma, uni)
            w1 = "" if not bad1 else describe_structure(bad1[0][0])
            report.check(f"{sigma.name}-H1", not bad1, w1)
            bad2 = eng.h2_failures(sigma, uni)
            w2 = "" if not bad2 else describe_structure(bad2[0])
            report.check(f"{sigma.name}-H2", not bad2, w2)
        return
    if args.check == "hereditary":
        for sigma in _sigmas_for(kind, args):
            ok, witness = eng.hereditary_torsion_theory(sigma, uni)
            report.check(
                f"{sigma.name}-classes-hereditary",
                ok,
                "" if ok else describe_structure(witness[0]),
            )
            ok2, witness2 = eng.ideal_hereditary(sigma, uni)
            report.info(
                f"note {sigma.name}: congruence-level restriction comparison "
                f"{'holds' if ok2 else 'fails'}"
            )
        return
    if args.check == "ka":
        for sigma in _sigmas_for(kind, args):
            verdicts = eng.ka_triple(sigma, uni)
            for key in ("complete", "idempotent", "strong"):
                ok, witness = verdicts[key]
                text = ""
                if witness is not None:
                    first = witness[0] if isinstance(witness, tuple) else witness
                    text = describe_structure(first)
                report.info(f"{sigma.name}-{key}: {'yes' if ok else 'no ' + text}")
            report.info(f"{sigma.name}-ka: {'yes' if verdicts['ka'] else 'no'}")
        return
    if args.check == "complementary":
        if not args.cls:
            raise UsageError("--check complementary needs --class")
        c_cls = eng.builtin_class(kind, args.cls)
        d_cls = eng.class_from_members(
            kind, f"S-{c_cls.name}", eng.S_operator(c_cls, uni)
        )
        report.check(
            f"complementary-{c_cls.name}",
            eng.complementary_pair_check(c_cls, d_cls, uni),
        )
        return
    if args.check == "degeneracy":
        if kind != eng.KIND_LOOPLESS:
            raise UsageError("--check degeneracy lives in the loopless kind")
        if not args.cls:
            raise UsageError("--check degeneracy needs --class")
        cls = eng.builtin_class(kind, args.cls)
        report.check(
            f"degeneracy-{cls.name}", eng.loopless_degeneracy_check(uni, cls)
        )
        return
    raise UsageError(f"unknown check {args.check!r}")


def _cmd_verify(args, report: Report) -> None:
    kind = args.kind
    if kind not in eng.KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    failures = ver.exhaustive_iso_theorems(kind, args.max_n)
    for name, count in failures.items():
        report.check(f"{kind}-{name}-exhaustive", count == 0, f"{count} failures")
    sampled = ver.random_iso_theorems(kind, args.samples, args.seed)
    for name, count in sampled.items():
        report.check(f"{kind}-{name}-random", count == 0, f"{count} failures")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conrad",
        description="Congruence calculus and radical checks for finite graphs and spaces.",
    )
    parser.add_argument(
        "--format", choices=["lines"], default="lines",
        help="report format (line-based reports are the stable default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("congruences", help="list all congruences on a structure")
    p.add_argument("--space")
    p.add_argument("--graph")
    p.add_argument("--strong-only", action="store_true")

    p = sub.add_parser("quotient", help="quotient of a structure by a congruence")
    p.add_argument("--space")
    p.add_argument("--graph")
    p.add_argument("--cong", required=True)

    p = sub.add_parser("decompose", help="subdirect decompositions")
    p.add_argument("--birkhoff", metavar="GRAPH")
    p.add_argument("--sierpinski", metavar="SPACE")

    p = sub.add_parser("radical", help="Hoehnke radical of a built-in class")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("file")

    p = sub.add_parser("catalog", help="explicit ideal-hereditary radical values")
    p.add_argument("--kind", choices=["topo", "graph"], required=True)
    p.add_argument("--id", required=True)
    p.add_argument("file")

    p = sub.add_parser("universe", help="verification sweeps over a finite universe")
    p.add_argument("--kind", required=True)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument(
        "--check",
        required=True,
        choices=["h1h2", "hereditary", "ka", "complementary", "degeneracy"],
    )
    p.add_argument("--class", dest="cls", default=None)

    p = sub.add_parser("verify", help="isomorphism-theorem suites")
    p.add_argument("--kind", required=True)
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


_HANDLERS = {
    "congruences": _cmd_congruences,
    "quotient": _cmd_quotient,
    "decompose": _cmd_decompose,
    "radical": _cmd_radical,
    "catalog": _cmd_catalog,
    "universe": _cmd_universe,
    "verify": _cmd_verify,
}


def run_command(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    report = Report(command=" ".join(argv))
    try:
        _HANDLERS[args.command](args, report)
    except (UsageError, InputSyntaxError, SemanticError, InvalidCongruence) as exc:
        sys.stdout.write(report.render())
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except CheckDefect as exc:
        sys.stdout.write(report.render())
        sys.stderr.write(f"defect: {exc}\n")
        return 1
    except ConradError as exc:
        sys.stdout.write(report.render())
        sys.stderr.write(f"error: {exc}\n")
        return 1
    sys.stdout.write(report.render())
    return 1 if report.failed else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
