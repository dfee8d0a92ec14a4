"""Independent ground truth for the benchmark's output checks.

Nothing here imports conrad.  Structures are plain values:

* a graph is ``Graph(n, loops, edges)`` with edges as pairs ``(a, b)``, a <= b;
* a space is ``Space(n, opens)`` with each open set as a bitmask;
* a partition is a restricted growth string (block ids in order of least
  element), the same canonical form the CLI prints blocks in.

Counts and radicals are computed from the definitions, by brute force, so
they stay valid however the program computes the same things.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    n: int
    loops: bool
    edges: frozenset

    def slots(self):
        first = 0 if self.loops else 1
        return [(a, b) for a in range(self.n) for b in range(a + first, self.n)]


@dataclass(frozen=True)
class Space:
    n: int
    opens: frozenset

    @property
    def full(self) -> int:
        return (1 << self.n) - 1


def mask(ids) -> int:
    out = 0
    for i in ids:
        out |= 1 << i
    return out


def members(m: int) -> list[int]:
    return [i for i in range(m.bit_length()) if m >> i & 1]


def norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

def partitions(n: int):
    """Every partition of 0..n-1 as a restricted growth string."""
    def rec(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for b in range(used + 1):
            prefix.append(b)
            yield from rec(prefix, max(used, b + 1))
            prefix.pop()
    yield from rec([], 0)


def canonical(labels) -> tuple[int, ...]:
    seen: dict = {}
    return tuple(seen.setdefault(b, len(seen)) for b in labels)


def blocks(cid) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(cid) + 1)]
    for v, b in enumerate(cid):
        out[b].append(v)
    return out


def orbit(bl, i: int, j: int) -> frozenset:
    """All pairs between blocks i and j; within one block, loops included."""
    return frozenset(norm(u, v) for u in bl[i] for v in bl[j] if i != j or u <= v)


def cross_orbits(bl, loops: bool):
    for i in range(len(bl)):
        for j in range(i if loops else i + 1, len(bl)):
            yield orbit(bl, i, j)


def independent(g: Graph, cid) -> bool:
    return all(cid[a] != cid[b] for a, b in g.edges)


# ---------------------------------------------------------------------------
# Graph congruences
# ---------------------------------------------------------------------------

def graph_congruences(g: Graph):
    """Every congruence as (partition, edge-set); loopless blocks independent.

    An edge-set contains the edges, is closed under substitution, so it is a
    union of block-pair orbits, and under the loopless policy avoids pairs
    inside a block.
    """
    for cid in partitions(g.n):
        if not g.loops and not independent(g, cid):
            continue
        orbits = list(cross_orbits(blocks(cid), g.loops))
        required = frozenset().union(*[o for o in orbits if o & g.edges])
        free = [o for o in orbits if not o & g.edges]
        for pick in itertools.product((False, True), repeat=len(free)):
            yield cid, required.union(*[o for o, p in zip(free, pick) if p])


def graph_congruence_count(g: Graph) -> int:
    total = 0
    for cid in partitions(g.n):
        if not g.loops and not independent(g, cid):
            continue
        total += 2 ** sum(1 for o in cross_orbits(blocks(cid), g.loops) if not o & g.edges)
    return total


def graph_saturation(g: Graph, cid) -> frozenset:
    return frozenset().union(
        *[o for o in cross_orbits(blocks(cid), g.loops) if o & g.edges]
    )


def graph_strong_count(g: Graph) -> int:
    return sum(1 for cid in partitions(g.n) if g.loops or independent(g, cid))


def graph_congruence_errors(g: Graph, cid, cedges) -> list[str]:
    if len(cid) != g.n or canonical(cid) != tuple(cid):
        return [f"blocks {cid} do not partition 0..{g.n - 1}"]
    errors = []
    if not g.edges <= cedges:
        errors.append("edge-set misses an edge of the carrier")
    if not cedges <= frozenset(g.slots()):
        errors.append("edge-set holds a pair the policy forbids")
    bl = blocks(cid)
    for a, b in cedges:
        if not orbit(bl, cid[a], cid[b]) <= cedges:
            errors.append(f"orbit of {a}-{b} escapes the edge-set")
        if not g.loops and cid[a] == cid[b]:
            errors.append(f"{a}-{b} joins vertices of one block")
    return errors


def graph_quotient(cid, cedges, loops: bool) -> Graph:
    return Graph(max(cid) + 1, loops, frozenset(norm(cid[a], cid[b]) for a, b in cedges))


def _has_clique(g: Graph, k: int) -> bool:
    return any(
        all(norm(a, b) in g.edges for a, b in itertools.combinations(sub, 2))
        for sub in itertools.combinations(range(g.n), k)
    )


def _loop_vertices(g: Graph) -> set:
    return {a for a, b in g.edges if a == b}


GRAPH_CLASSES = {
    "all-looped": lambda g: len(_loop_vertices(g)) == g.n,
    "at-most-one-loop": lambda g: len(_loop_vertices(g)) <= 1,
    "loop-dominated": lambda g: all(
        norm(a, b) in g.edges for a in _loop_vertices(g) for b in range(g.n)
    ),
    "complete-looped": lambda g: g.edges == frozenset(g.slots()),
    "complete": lambda g: g.edges == frozenset(g.slots()),
    "contains-k2": lambda g: g.n == 1 or bool(g.edges),
    "contains-k3": lambda g: g.n == 1 or _has_clique(g, 3),
}


def graph_hoehnke_radical(g: Graph, cls: str):
    """Meet of the congruences whose quotient lies in the class."""
    member = GRAPH_CLASSES[cls]
    qualifying = [
        (cid, cedges) for cid, cedges in graph_congruences(g)
        if member(graph_quotient(cid, cedges, g.loops))
    ]
    cid = canonical(zip(*(c for c, _ in qualifying)))
    return cid, frozenset.intersection(*(e for _, e in qualifying))


def graph_catalog(g: Graph, cid: str):
    """The eight ideal-hereditary radicals on loop-admitting graphs."""
    loops = _loop_vertices(g)
    ident = tuple(range(g.n))

    def strong(part):
        return part, graph_saturation(g, part)

    if cid == "a":
        return strong((0,) * g.n)
    if cid == "b":
        return (0,) * g.n, frozenset(g.slots())
    if cid == "c":
        anchor = min(loops) if loops else None
        return strong(canonical(anchor if v in loops else v for v in range(g.n)))
    if cid == "d":
        return ident, g.edges | {(v, v) for v in range(g.n)}
    if cid == "e":
        return ident, frozenset(g.slots())
    if cid == "f":
        return ident, g.edges
    if cid == "g":
        return ident, g.edges | {norm(a, b) for a in loops for b in loops}
    if cid == "h":
        return ident, g.edges | {norm(a, b) for a in loops for b in range(g.n)}
    raise ValueError(cid)


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

def is_topology(n: int, family) -> bool:
    fam = set(family)
    if 0 not in fam or (1 << n) - 1 not in fam:
        return False
    return all(u | v in fam and u & v in fam for u in fam for v in fam)


def saturated(cid, u: int) -> bool:
    return all(
        (u >> a & 1) == (u >> b & 1)
        for a in range(len(cid)) for b in range(a + 1, len(cid)) if cid[a] == cid[b]
    )


def saturated_opens(x: Space, cid) -> list[int]:
    return sorted(u for u in x.opens if saturated(cid, u))


def space_congruence_count(x: Space) -> int:
    """Per partition, the sub-topologies made of saturated opens."""
    total = 0
    for cid in partitions(x.n):
        inner = [u for u in saturated_opens(x, cid) if u not in (0, x.full)]
        for pick in itertools.product((False, True), repeat=len(inner)):
            fam = [0, x.full] + [u for u, p in zip(inner, pick) if p]
            if is_topology(x.n, fam):
                total += 1
    return total


def space_congruence_cost(x: Space) -> int:
    """Families a saturated-open scan visits; sizes the space inputs."""
    return sum(2 ** (len(saturated_opens(x, cid)) - 2) for cid in partitions(x.n))


def space_congruence_errors(x: Space, cid, ctop) -> list[str]:
    if len(cid) != x.n or canonical(cid) != tuple(cid):
        return [f"blocks {cid} do not partition 0..{x.n - 1}"]
    errors = []
    if not is_topology(x.n, ctop):
        errors.append("congruence topology is not a topology")
    if not ctop <= x.opens:
        errors.append("congruence topology holds a set that is not open")
    if not all(saturated(cid, u) for u in ctop):
        errors.append("congruence topology holds an unsaturated open")
    return errors


def is_strong_space(x: Space, cid, ctop) -> bool:
    return ctop == frozenset(saturated_opens(x, cid))


def space_quotient(cid, ctop) -> Space:
    return Space(max(cid) + 1, frozenset(mask({cid[p] for p in members(u)}) for u in ctop))


def homeomorphic(x: Space, y: Space) -> bool:
    if x.n != y.n or len(x.opens) != len(y.opens):
        return False
    return any(
        frozenset(mask(perm[p] for p in members(u)) for u in x.opens) == y.opens
        for perm in itertools.permutations(range(x.n))
    )


S2 = Space(2, frozenset({0, 0b01, 0b11}))
I2 = Space(2, frozenset({0, 0b11}))


def generated_topology(n: int, family) -> frozenset:
    """Close a family under intersections, then unions."""
    fam = set(family) | {0, (1 << n) - 1}
    for op in (lambda u, v: u & v, lambda u, v: u | v):
        grown = True
        while grown:
            new = {op(u, v) for u in fam for v in fam} - fam
            grown = bool(new)
            fam |= new
    return frozenset(fam)


def indistinguishable(x: Space) -> tuple[int, ...]:
    """Points that no open set separates share a block."""
    sig = [frozenset(u for u in x.opens if u >> p & 1) for p in range(x.n)]
    return canonical(sig)


def topo_catalog(x: Space, cid: str):
    """The five ideal-hereditary radicals on spaces."""
    ident = tuple(range(x.n))
    if cid == "a":
        return (0,) * x.n, frozenset({0, x.full})
    if cid == "b":
        return indistinguishable(x), x.opens
    if cid == "c":
        return ident, x.opens
    if cid in ("d", "e"):
        return ident, frozenset({0, x.full})
    raise ValueError(cid)


# ---------------------------------------------------------------------------
# Reading the CLI's text
# ---------------------------------------------------------------------------

def _ids(token: str) -> list[int]:
    return [] if token == "-" else [int(t) for t in token.split(",")]


def parse_structure_text(lines: list[str]):
    """A graph or space file, or the same text inside a report."""
    head = lines[0].split()
    if head[0] == "graph":
        edges = []
        for line in lines[1:]:
            tag, a, b = line.split()
            if tag != "e":
                raise ValueError(f"unexpected graph line {line!r}")
            edges.append(norm(int(a), int(b)))
        return Graph(int(head[1]), head[2] == "loops", frozenset(edges))
    if head[0] != "space":
        raise ValueError(f"unexpected structure header {lines[0]!r}")
    opens = []
    for line in lines[1:]:
        tag, ids = line.split()
        if tag != "open":
            raise ValueError(f"unexpected space line {line!r}")
        opens.append(mask(_ids(ids)))
    return Space(int(head[1]), frozenset(opens))


def parse_serialized_congruence(lines: list[str]):
    """A `gcong` / `tcong` listing as (partition, edge-set or topology)."""
    labels: dict[int, int] = {}
    rest = set()
    count = 0
    for line in lines[1:]:
        tag, *toks = line.split()
        if tag == "block":
            labels.update((int(v), count) for v in toks)
            count += 1
        elif tag == "edge":
            rest.add(norm(int(toks[0]), int(toks[1])))
        elif tag == "open":
            rest.add(mask(_ids(toks[0])))
        else:
            raise ValueError(f"unexpected congruence line {line!r}")
    return tuple(labels[v] for v in range(len(labels))), frozenset(rest)


def parse_described_structure(text: str):
    """`graph n=2 loops edges 0-0 0-1` or `space n=2 opens -;0;0,1`."""
    toks = text.split()
    n = int(toks[1].removeprefix("n="))
    if toks[0] == "graph":
        edges = frozenset(norm(*map(int, t.split("-"))) for t in toks[4:] if t != "-")
        return Graph(n, toks[2] == "loops", edges)
    return Space(n, frozenset(mask(_ids(u)) for u in toks[3].split(";")))


_BLOCK = re.compile(r"\[([^\]]*)\]")


def parse_described_congruence(text: str):
    """`blocks [0 1][2] edges 0-1 2-2` or `blocks [0][1] opens -;0;0,1`."""
    head, kind, tail = text.partition(" edges ")
    if not kind:
        head, kind, tail = text.partition(" opens ")
        rest = frozenset(mask(_ids(t)) for t in tail.split(";"))
    else:
        rest = frozenset(
            norm(*map(int, t.split("-"))) for t in tail.split() if t != "-"
        )
    if not head.startswith("blocks "):
        raise ValueError(f"unexpected congruence text {text!r}")
    labels = {}
    for i, body in enumerate(_BLOCK.findall(head)):
        for v in body.split():
            labels[int(v)] = i
    return tuple(labels[v] for v in range(len(labels))), rest


def sierpinski_candidates(x: Space) -> list:
    """Two-block congruences whose quotient is S2 or I2, as (partition, topology)."""
    out = []
    for cid in partitions(x.n):
        if max(cid) != 1:
            continue
        a = mask(v for v in range(x.n) if cid[v] == 0)
        b = x.full ^ a
        out.append((cid, frozenset({0, x.full})))
        out += [(cid, frozenset({0, u, x.full})) for u in (a, b) if u in x.opens]
    return out


def sierpinski_search_bound(x: Space, limit: int):
    """Combinations a smallest-first search visits, at most; None past limit.

    Counts every combination of the candidates up to the size of the
    smallest family that meets to the identity congruence.
    """
    cands = sierpinski_candidates(x)
    total = 0
    for size in range(1, len(cands) + 1):
        total += math.comb(len(cands), size)
        if total > limit:
            return None
        for combo in itertools.combinations(cands, size):
            cid = canonical(zip(*(c for c, _ in combo)))
            if cid == tuple(range(x.n)) and generated_topology(
                    x.n, frozenset().union(*(t for _, t in combo))) == x.opens:
                return total
    return None
