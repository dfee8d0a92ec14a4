"""Line-based parsing/serialization and the `conrad` command line.

Formats are diffable fixtures: one declaration per line, `#` comments and
trailing whitespace ignored, every listing sorted canonically.  Reports are
byte-identical for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import graph_congruence as gcm
from . import loopless_congruence as lcm
from . import radical_engine as eng
from . import topo_congruence as tcm
from . import verification as ver
from .errors import (
    BadCatalogId,
    BoundExceeded,
    CheckDefect,
    ConradError,
    InputSyntaxError,
    InvalidCongruence,
    KindMismatch,
    SemanticError,
    UsageError,
)
from .structures import (
    FiniteGraph,
    FiniteSpace,
    LOOPS,
    NOLOOPS,
    Partition,
    _Lazy,
    _at_slots,
    _env_bound,
    _norm_pair,
    _pair_texts,
    _unions,
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


def _int(token: str, no: int, message: str) -> int:
    """The integer a token spells, or a refusal of line no with the message."""
    try:
        return int(token)
    except ValueError:
        raise InputSyntaxError(no, message)


def _ids(token: str, no: int) -> list[int]:
    if token == "-":
        return []
    message = f"expected comma-separated ids, got {token!r}"
    return [_int(t, no, message) for t in token.split(",") if t != ""]


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
        n = _int(parts[1], no, f"bad vertex count {parts[1]!r}")
        edges = []
        for no2, line in rows[1:]:
            toks = line.split()
            if len(toks) != 3 or toks[0] != "e":
                raise InputSyntaxError(no2, "expected: e <a> <b>")
            a, b = (_int(t, no2, "edge endpoints must be integers") for t in toks[1:])
            if a > b:
                raise InputSyntaxError(no2, "edges are written with a <= b")
            edges.append((a, b))
        return graph(n, parts[2], edges)
    if parts[0] == "space":
        if len(parts) != 2:
            raise InputSyntaxError(no, "expected: space <n>")
        n = _int(parts[1], no, f"bad point count {parts[1]!r}")
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
    if head not in ("tcong", "gcong"):
        raise InputSyntaxError(no, f"unknown congruence kind {head!r}")
    topo = head == "tcong"
    if not isinstance(carrier, FiniteSpace if topo else FiniteGraph):
        raise UsageError(f"{head} congruences need a {'space' if topo else 'graph'} carrier")
    blocks, members = [], []
    for no2, line in rows[1:]:
        toks = line.split()
        if toks[0] == "block":
            blocks.append([_int(t, no2, "block members must be integers") for t in toks[1:]])
        elif topo and toks[0] == "open" and len(toks) == 2:
            members.append(frozenset(_ids(toks[1], no2)))
        elif not topo and toks[0] == "edge" and len(toks) == 3:
            a, b = (_int(t, no2, "edge endpoints must be integers") for t in toks[1:])
            members.append(_norm_pair(a, b))
        else:
            other = "open <ids>|-" if topo else "edge <a> <b>"
            raise InputSyntaxError(no2, f"expected: block <ids> or {other}")
    part = Partition.from_blocks(carrier.n, blocks)
    # checked as read, so that a refusal names one of the opens or pairs given
    if topo:
        return tcm.validate_opens_tc(carrier, part, frozenset(members))
    return gcm.validate_pairs_gc(carrier, part, frozenset(members))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _set_texts(n: int) -> _Lazy:
    """Per subset of n points as a bitmask, its place in a listing of open
    sets (by size, then sorted points) and its points written "0,2" ("-"
    for none), filled as read."""

    def fill(mask: int) -> tuple:
        points = tuple(p for p in range(n) if mask >> p & 1)
        return len(points), points, ",".join(map(str, points)) or "-"

    return _Lazy(fill)


def _open_texts(n: int, least) -> list[str]:
    """The open sets of a least-open vector on n points, listed by size and
    then sorted points, each written from the per-size set-text table."""
    table = _set_texts(n)
    return [entry[2] for entry in sorted(map(table.__getitem__, _unions(least)))]


def _edge_texts(n: int, mask: int, form: str) -> list[str]:
    """The pairs of an edge mask over n vertices, in sorted order, each
    written as form.format(a, b) from the per-size pair-text table."""
    return _at_slots(_pair_texts(n, form), mask)


@functools.lru_cache(maxsize=256)
def _block_text(part: Partition) -> str:
    """A partition's blocks written "[0 1][2]", once per partition."""
    return "".join("[" + " ".join(map(str, b)) + "]" for b in part.blocks)


def serialize_structure(structure) -> str:
    if isinstance(structure, FiniteGraph):
        out = [f"graph {structure.n} {structure.policy}"]
        out.extend(_edge_texts(structure.n, structure.mask, "e {} {}"))
    else:
        out = [f"space {structure.n}"]
        out.extend(f"open {u}" for u in _open_texts(structure.n, structure.min_opens))
    return "\n".join(out) + "\n"


def serialize_congruence(cong) -> str:
    topo = isinstance(cong, tcm.TopoCongruence)
    out = ["tcong" if topo else "gcong"]
    out.extend("block " + " ".join(str(v) for v in b) for b in cong.part.blocks)
    if topo:
        out.extend(f"open {u}" for u in _open_texts(cong.part.n, cong.least))
    else:
        out.extend(_edge_texts(cong.part.n, cong.cmask, "edge {} {}"))
    return "\n".join(out) + "\n"


def describe_structure(structure) -> str:
    if isinstance(structure, FiniteGraph):
        edges = " ".join(_edge_texts(structure.n, structure.mask, "{}-{}")) or "-"
        return f"graph n={structure.n} {structure.policy} edges {edges}"
    opens = ";".join(_open_texts(structure.n, structure.min_opens))
    return f"space n={structure.n} opens {opens}"


def describe_congruence(cong) -> str:
    blocks = _block_text(cong.part)
    if isinstance(cong, tcm.TopoCongruence):
        opens = ";".join(_open_texts(cong.part.n, cong.least))
        return f"blocks {blocks} opens {opens}"
    edges = " ".join(_edge_texts(cong.part.n, cong.cmask, "{}-{}")) or "-"
    return f"blocks {blocks} edges {edges}"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class Report:
    """Deterministic line report; exit status 1 iff any record FAILs."""

    def __init__(self, command: str):
        self.command, self.records, self.entries = command, [], []

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.command, self.records, self.entries) == (other.command, other.records, other.entries)
        return NotImplemented

    def __repr__(self):
        return f"Report(command={self.command!r}, records={self.records!r}, entries={self.entries!r})"

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


def _load_structure_arg(args):
    for flag, structure_type in (("space", FiniteSpace), ("graph", FiniteGraph)):
        path = getattr(args, flag, None)
        if path:
            structure = parse_structure(_read(path))
            if not isinstance(structure, structure_type):
                raise UsageError(f"{path} does not contain a {flag}")
            return structure
    raise UsageError("one of --space or --graph is required")


def _cmd_congruences(args, report: Report) -> None:
    structure = _load_structure_arg(args)
    if args.strong_only:
        congs = eng.strong_congruences(structure)
    else:
        congs = eng.KIND_OPS[eng.kind_of(structure)].enum_congruences(structure)
    for i, cong in enumerate(congs):
        report.info(f"cong {i}: {describe_congruence(cong)}")
    report.info(f"total {len(congs)}")


def _cmd_quotient(args, report: Report) -> None:
    structure = _load_structure_arg(args)
    cong = parse_congruence(_read(args.cong), structure)
    quotient = eng.KIND_OPS[eng.kind_of(structure)].quotient(structure, cong)
    report.info(serialize_structure(quotient).rstrip("\n"))
    report.info("proj " + " ".join(f"{v}->{b}" for v, b in enumerate(cong.part.class_id)))


def _cmd_decompose(args, report: Report) -> None:
    if args.birkhoff:
        x = parse_structure(_read(args.birkhoff))
        if not isinstance(x, FiniteGraph) or x.policy != NOLOOPS:
            raise UsageError("birkhoff decomposition needs a loopless graph")
        factors = lcm.birkhoff_complete_decomposition(x)
        for i, cong in enumerate(factors):
            # the quotient by a factor is the complete graph on its blocks
            report.info(f"factor {i}: {describe_congruence(cong)} -> K_{cong.part.num_blocks}")
        for v in range(x.n):
            report.info(f"embed {v} -> ({','.join(str(c.part.class_id[v]) for c in factors)})")
    elif args.sierpinski:
        x = parse_structure(_read(args.sierpinski))
        if not isinstance(x, FiniteSpace):
            raise UsageError("sierpinski decomposition needs a space")
        factors = tcm.sierpinski_decomposition(x)
        for i, cong in enumerate(factors):
            label = "S2" if len(cong.open_masks) == 3 else "I2"
            report.info(f"factor {i}: {describe_congruence(cong)} -> {label}")
    else:
        raise UsageError("one of --birkhoff or --sierpinski is required")
    ops = eng.KIND_OPS[eng.kind_of(x)]
    report.check("meet-is-identity", ops.meet(x, factors) == ops.identity(x))


def _cmd_radical(args, report: Report) -> None:
    structure = parse_structure(_read(args.file))
    kind = eng.kind_of(structure)
    cls = eng.builtin_class(kind, args.cls)
    value = eng.hoehnke_radical(structure, cls)
    report.info(serialize_congruence(value).rstrip("\n"))


def _cmd_catalog(args, report: Report) -> None:
    structure = parse_structure(_read(args.file))
    kind = eng.kind_of(structure)
    if kind != args.kind:
        raise UsageError(f"catalog --kind {args.kind} needs a {args.kind} file, not a {kind} one")
    ops = eng.KIND_OPS[kind]
    value = ops.catalog(structure, args.id)
    report.info(serialize_congruence(value).rstrip("\n"))
    report.info("quotient: " + describe_structure(ops.quotient(structure, value)))


def _sigmas_for(kind: str, args) -> list:
    if args.cls:
        return [eng.radical_from_class(eng.builtin_class(kind, args.cls))]
    ids = eng.KIND_OPS[kind].catalog_ids
    if not ids:
        raise UsageError(f"--class is required for the {kind} kind")
    return [eng.catalog_radical(kind, cid) for cid in ids]


def _at_least(name: str, value: int, least: int) -> None:
    """Refuse a size below the least one; an empty universe passes every check vacuously."""
    if value < least:
        raise UsageError(f"{name} must be at least {least}, got {value}")


def _cmd_universe(args, report: Report) -> None:
    if args.max_n is None:
        args.max_n = _env_bound(3)
        _at_least("CONRAD_MAX_N", args.max_n, 1)
    _at_least("--max-n", args.max_n, 1)
    kind, check = args.kind, args.check
    if kind not in eng.KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    # the class arguments are checked before the universe is built
    if check == "degeneracy" and kind != eng.KIND_LOOPLESS:
        raise UsageError("--check degeneracy lives in the loopless kind")
    if check in ("complementary", "degeneracy"):
        if not args.cls:
            raise UsageError(f"--check {check} needs --class")
        cls = eng.builtin_class(kind, args.cls)
    else:
        sigmas = _sigmas_for(kind, args)
    uni = eng.build_universe(kind, args.max_n)
    report.info(f"universe: {kind} n<={args.max_n} ({len(uni.members)} members)")
    if check == "h1h2":
        for sigma in sigmas:
            # the failures, and so the witness, are listed only on a FAIL
            bad1 = [] if eng.h1_holds(sigma, uni) else eng.h1_failures(sigma, uni)
            w1 = "" if not bad1 else describe_structure(bad1[0][0])
            report.check(f"{sigma.name}-H1", not bad1, w1)
            bad2 = eng.h2_failures(sigma, uni)
            w2 = "" if not bad2 else describe_structure(bad2[0])
            report.check(f"{sigma.name}-H2", not bad2, w2)
    elif check == "hereditary":
        for sigma in sigmas:
            ok, witness = eng.hereditary_torsion_theory(sigma, uni)
            report.check(
                f"{sigma.name}-classes-hereditary",
                ok,
                "" if ok else describe_structure(witness[0]),
            )
            ok2, _ = eng.ideal_hereditary(sigma, uni)
            report.info(
                f"note {sigma.name}: congruence-level restriction comparison "
                f"{'holds' if ok2 else 'fails'}"
            )
    elif check == "ka":
        for sigma in sigmas:
            verdicts = eng.ka_triple(sigma, uni)
            for key in ("complete", "idempotent", "strong"):
                ok, witness = verdicts[key]
                text = "yes" if ok else "no " + describe_structure(witness[0])
                report.info(f"{sigma.name}-{key}: {text}")
            report.info(f"{sigma.name}-ka: {'yes' if verdicts['ka'] else 'no'}")
    elif check == "complementary":
        d_cls = eng.class_from_members(kind, f"S-{cls.name}", eng.S_operator(cls, uni))
        report.check(f"complementary-{cls.name}", eng.complementary_pair_check(cls, d_cls, uni))
    else:
        report.check(f"degeneracy-{cls.name}", eng.loopless_degeneracy_check(uni, cls))


def _cmd_verify(args, report: Report) -> None:
    _at_least("--max-n", args.max_n, 1)
    _at_least("--samples", args.samples, 0)
    kind = args.kind
    if kind not in eng.KINDS:
        raise UsageError(f"unknown kind {kind!r}")
    failures = ver.exhaustive_iso_theorems(kind, args.max_n)
    for name, count in failures.items():
        report.check(f"{kind}-{name}-exhaustive", count == 0, f"{count} failures")
    if not args.samples:  # a sweep over no instance decides nothing
        return
    sampled = ver.random_iso_theorems(kind, args.samples, args.seed)
    for name, count in sampled.items():
        report.check(f"{kind}-{name}-random", count == 0, f"{count} failures")


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses a bad command line like any other
    request, with one `error:` line and exit status 2; its subcommand
    parsers are of the same class."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conrad",
        description="Congruence calculus and radical checks for finite graphs and spaces.",
    )
    parser.add_argument(
        "--format", choices=["lines"], default="lines",
        help="report format (line-based reports are the stable default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # one structure file per command: argparse refuses a second one
    p = sub.add_parser("congruences", help="list all congruences on a structure")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--space")
    one.add_argument("--graph")
    p.add_argument("--strong-only", action="store_true")

    p = sub.add_parser("quotient", help="quotient of a structure by a congruence")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--space")
    one.add_argument("--graph")
    p.add_argument("--cong", required=True)

    p = sub.add_parser("decompose", help="subdirect decompositions")
    one = p.add_mutually_exclusive_group()
    one.add_argument("--birkhoff", metavar="GRAPH")
    one.add_argument("--sierpinski", metavar="SPACE")

    p = sub.add_parser("radical", help="Hoehnke radical of a built-in class")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("file")

    p = sub.add_parser("catalog", help="explicit ideal-hereditary radical values")
    p.add_argument("--kind", choices=[k for k in eng.KINDS if eng.KIND_OPS[k].catalog], required=True)
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


# errors in the request or its input files; every other ConradError exits 1
_EXIT_2 = (UsageError, InputSyntaxError, SemanticError, InvalidCongruence, BoundExceeded,
           KindMismatch, BadCatalogId)


def run_command(argv: list[str]) -> int:
    """Dispatch a command line; returns the exit status."""
    report = Report(command=" ".join(argv))
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # --help printed its text; argparse refuses through UsageError
            return 0
        _HANDLERS[args.command](args, report)
    except ConradError as exc:
        sys.stdout.write(report.render())
        sys.stderr.write(f"{'defect' if isinstance(exc, CheckDefect) else 'error'}: {exc}\n")
        return 2 if isinstance(exc, _EXIT_2) else 1
    sys.stdout.write(report.render())
    return 1 if report.failed else 0


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
