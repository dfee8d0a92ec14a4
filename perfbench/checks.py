"""Output checks, one per kind of operation.

Each check reads the CLI report as text and compares it with `oracle`,
which computes the same facts from the definitions without importing
conrad, or with properties the method must have.  A check returns a list
of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import re

import oracle as o

# Unlabeled structures per size (OEIS), indexed by n from 0.
A000666 = (1, 2, 6, 20, 90, 544)  # graphs with loops allowed
A000088 = (1, 1, 2, 4, 11, 34, 156)  # simple graphs


def universe_size(sequence, max_n: int) -> int:
    return sum(sequence[1:max_n + 1])


def _body(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("command: "):
        raise ValueError("report does not start with its command line")
    return lines[1:]


def _congruence_errors(s, cid, rest) -> list[str]:
    if isinstance(s, o.Graph):
        return o.graph_congruence_errors(s, cid, rest)
    return o.space_congruence_errors(s, cid, rest)


def _quotient(s, cid, rest):
    if isinstance(s, o.Graph):
        return o.graph_quotient(cid, rest, s.loops)
    return o.space_quotient(cid, rest)


# ---------------------------------------------------------------------------
# single-ops
# ---------------------------------------------------------------------------

def _listing(op, stdout: str, strong: bool) -> list[str]:
    s = op.subject
    body = _body(stdout)
    total = int(body[-1].removeprefix("total "))
    seen = set()
    errors = []
    for i, line in enumerate(body[:-1]):
        head, _, text = line.partition(": ")
        if head != f"cong {i}":
            return [f"line {i + 2} is {line!r}"]
        cid, rest = o.parse_described_congruence(text)
        errors += _congruence_errors(s, cid, rest)
        if strong and not _is_strong(s, cid, rest):
            errors.append(f"cong {i} is not strong")
        seen.add((cid, rest))
    if strong:
        expected = o.graph_strong_count(s) if isinstance(s, o.Graph) else sum(1 for _ in o.partitions(s.n))
    elif isinstance(s, o.Graph):
        expected = o.graph_congruence_count(s)
    else:
        expected = o.space_congruence_count(s)
    if not total == len(seen) == len(body) - 1 == expected:
        errors.append(f"total {total}, {len(seen)} distinct listed, expected {expected}")
    return errors


def _is_strong(s, cid, rest) -> bool:
    if isinstance(s, o.Graph):
        return rest == o.graph_saturation(s, cid) and (s.loops or o.independent(s, cid))
    return o.is_strong_space(s, cid, rest)


def check_congruences(op, stdout):
    return _listing(op, stdout, strong=False)


def check_strong(op, stdout):
    return _listing(op, stdout, strong=True)


def check_quotient(op, stdout):
    body = _body(stdout)
    cid, rest = op.arg
    printed = o.parse_structure_text(body[:-1])
    proj = tuple(int(t.split("->")[1]) for t in body[-1].removeprefix("proj ").split())
    errors = []
    if printed != _quotient(op.subject, cid, rest):
        errors.append("quotient is not the image of the congruence")
    if proj != cid:
        errors.append(f"projection {proj} is not the block map {cid}")
    return errors


def check_radical(op, stdout):
    s = op.subject
    cid, rest = o.parse_serialized_congruence(_body(stdout))
    errors = _congruence_errors(s, cid, rest)
    if isinstance(s, o.Space):
        expected = (o.indistinguishable(s), s.opens)  # the t0 radical
    else:
        expected = o.graph_hoehnke_radical(s, op.arg)
    if (cid, rest) != expected:
        errors.append(f"radical {(cid, sorted(rest))} is not {(expected[0], sorted(expected[1]))}")
    return errors


def check_catalog(op, stdout):
    s = op.subject
    body = _body(stdout)
    cid, rest = o.parse_serialized_congruence(body[:-1])
    errors = _congruence_errors(s, cid, rest)
    catalog = o.graph_catalog if isinstance(s, o.Graph) else o.topo_catalog
    if (cid, rest) != catalog(s, op.arg):
        errors.append(f"catalog entry {op.arg} differs from its definition")
    if o.parse_described_structure(body[-1].removeprefix("quotient: ")) != _quotient(s, cid, rest):
        errors.append("printed quotient is not the quotient by the entry")
    return errors


_FACTOR = re.compile(r"factor (\d+): (.*) -> (\S+)$")


def _factors(body: list[str]):
    out = []
    for line in body:
        m = _FACTOR.match(line)
        if m:
            out.append((*o.parse_described_congruence(m.group(2)), m.group(3)))
    return out


def _meet_check(body: list[str]) -> list[str]:
    if "CHECK meet-is-identity PASS" not in body:
        return ["the report does not pass meet-is-identity"]
    return []


def check_birkhoff(op, stdout):
    g = op.subject
    body = _body(stdout)
    factors = _factors(body)
    errors = _meet_check(body)
    for cid, cedges, label in factors:
        errors += o.graph_congruence_errors(g, cid, cedges)
        q = o.graph_quotient(cid, cedges, False)
        if q.edges != frozenset(q.slots()) or label != f"K_{q.n}":
            errors.append(f"factor {cid} has quotient {sorted(q.edges)}, labelled {label}")
    cid = o.canonical(zip(*(c for c, _, _ in factors)))
    if not factors or cid != tuple(range(g.n)) or frozenset.intersection(*(e for _, e, _ in factors)) != g.edges:
        errors.append("factors do not meet to the identity")
    return errors


def check_sierpinski(op, stdout):
    x = op.subject
    body = _body(stdout)
    factors = _factors(body)
    errors = _meet_check(body)
    for cid, ctop, label in factors:
        errors += o.space_congruence_errors(x, cid, ctop)
        q = o.space_quotient(cid, ctop)
        target = {"S2": o.S2, "I2": o.I2}.get(label)
        if max(cid) != 1 or target is None or not o.homeomorphic(q, target):
            errors.append(f"factor {cid} does not have a {label} quotient")
    cid = o.canonical(zip(*(c for c, _, _ in factors)))
    union = frozenset().union(*(t for _, t, _ in factors)) if factors else frozenset()
    if not factors or cid != tuple(range(x.n)) or o.generated_topology(x.n, union) != x.opens:
        errors.append("factors do not meet to the identity")
    return errors


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def _passes(stdout: str, names: list[str]) -> list[str]:
    body = _body(stdout)
    missing = [n for n in names if f"CHECK {n} PASS" not in body]
    return [f"CHECK {n} does not PASS" for n in missing]


def _universe(stdout: str, kind: str, max_n: int, expected: int) -> list[str]:
    line = f"universe: {kind} n<={max_n} ({expected} members)"
    return [] if line in _body(stdout) else [f"no line {line!r}"]


def check_graph_h1h2(op, stdout):
    max_n = op.arg
    names = [f"graph-catalog-{c}-H{h}" for c in "abcdefgh" for h in (1, 2)]
    return _universe(stdout, "graph", max_n, universe_size(A000666, max_n)) + _passes(stdout, names)


def check_topo_iso(op, stdout):
    names = [f"topo-{t}-{m}" for t in ("first", "second", "third") for m in ("exhaustive", "random")]
    return _passes(stdout, names)


def check_loopless(op, stdout):
    max_n, name = op.arg
    return _universe(stdout, "loopless", max_n, universe_size(A000088, max_n)) + _passes(stdout, [name])


CHECKS = {
    "congruences": check_congruences,
    "strong": check_strong,
    "quotient": check_quotient,
    "radical": check_radical,
    "catalog": check_catalog,
    "birkhoff": check_birkhoff,
    "sierpinski": check_sierpinski,
    "graph-h1h2": check_graph_h1h2,
    "topo-iso": check_topo_iso,
    "loopless": check_loopless,
}


def check(op, stdout: str) -> list[str]:
    try:
        return CHECKS[op.check](op, stdout)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def oracle_self_check() -> list[str]:
    """The oracle against values known from outside it."""
    errors = []
    if [sum(1 for _ in o.partitions(n)) for n in range(1, 7)] != [1, 2, 5, 15, 52, 203]:
        errors.append("partition counts are not the Bell numbers")
    # sum over k of S(3,k) * A000798(k) = 1*1 + 3*4 + 1*29
    if o.space_congruence_count(o.Space(3, frozenset(range(8)))) != 42:
        errors.append("congruences on the discrete 3-point space are not 42")
    return errors
