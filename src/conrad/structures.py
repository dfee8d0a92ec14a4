"""Finite graphs (with or without loops), finite topological spaces, partitions.

Vertices and points are always the dense integers 0..n-1; every stored
collection is canonically normalized so that equality is structural.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

from .errors import (
    BoundExceeded,
    EmptySubset,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PolicyMismatch,
    SemanticError,
    UsageError,
)

LOOPS = "loops"
NOLOOPS = "noloops"

GRAPH_ENUM_BOUND = 6
SPACE_ENUM_BOUND = 4
ISO_BOUND = 8


def _env_bound(default: int) -> int:
    """The CONRAD_MAX_N override of a size bound; unset or empty keeps the default."""
    raw = os.environ.get("CONRAD_MAX_N")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"CONRAD_MAX_N must be an integer, got {raw!r}") from None


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Partition:
    """Equivalence relation on 0..n-1, stored as a restricted growth string.

    ``class_id[x]`` is the block index of x; block indices appear in order of
    least element, which makes the representation canonical.
    """

    class_id: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...] = field(init=False, compare=False)

    def __post_init__(self):
        seen: dict[int, int] = {}
        blocks: list[list[int]] = []
        for x, b in enumerate(self.class_id):
            if b not in seen:
                if b != len(blocks):
                    raise SemanticError(f"class ids are not a growth string: {self.class_id}")
                seen[b] = len(blocks)
                blocks.append([])
            blocks[b].append(x)
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in blocks))

    @staticmethod
    def from_blocks(n: int, blocks) -> "Partition":
        cid = [-1] * n
        for i, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < n or cid[x] != -1:
                    raise SemanticError(f"blocks do not partition 0..{n - 1}")
                cid[x] = i
        if -1 in cid:
            raise SemanticError(f"blocks do not partition 0..{n - 1}")
        return Partition.from_map(tuple(cid))

    @staticmethod
    def from_map(raw: tuple[int, ...]) -> "Partition":
        """Normalize an arbitrary block labelling into canonical form."""
        relabel: dict[int, int] = {}
        cid = []
        for b in raw:
            if b not in relabel:
                relabel[b] = len(relabel)
            cid.append(relabel[b])
        return Partition(tuple(cid))

    @staticmethod
    def identity(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    def universal(n: int) -> "Partition":
        return Partition((0,) * n)

    @property
    def n(self) -> int:
        return len(self.class_id)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, x: int) -> int:
        return self.class_id[x]

    def same(self, a: int, b: int) -> bool:
        return self.class_id[a] == self.class_id[b]

    def is_identity(self) -> bool:
        return self.num_blocks == self.n

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        rep = {}
        for x, b in enumerate(self.class_id):
            o = other.class_id[x]
            if b in rep:
                if rep[b] != o:
                    return False
            else:
                rep[b] = o
        return True

    def meet(self, other: "Partition") -> "Partition":
        return Partition.from_map(tuple(zip(self.class_id, other.class_id)))

    def join(self, other: "Partition") -> "Partition":
        return join_partitions([self, other])

    def restrict(self, subset) -> "Partition":
        """Partition induced on sorted(subset), relabelled to 0..|S|-1."""
        sub = sorted(subset)
        if not sub:
            raise EmptySubset("restriction to the empty set")
        return Partition.from_map(tuple(self.class_id[x] for x in sub))


def join_partitions(parts: list[Partition]) -> Partition:
    """Smallest common coarsening (transitive closure of the union)."""
    n = parts[0].n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in parts:
        for block in p.blocks:
            r = find(block[0])
            for x in block[1:]:
                parent[find(x)] = r
    return Partition.from_map(tuple(find(x) for x in range(n)))


def meet_partitions(parts: list[Partition]) -> Partition:
    return Partition.from_map(tuple(tuple(p.class_id[x] for p in parts) for x in range(parts[0].n)))


def random_partition(rng: random.Random, n: int) -> Partition:
    raw = []
    used = 0
    for _ in range(n):
        raw.append(rng.randrange(used + 1))
        used = max(used, raw[-1] + 1)
    return Partition.from_map(tuple(raw))


def is_surjective(f: tuple, m: int) -> bool:
    return set(f) == set(range(m))


def all_partitions(n: int):
    """All partitions of 0..n-1 in lexicographic growth-string order."""

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield Partition(tuple(prefix))
            return
        for b in range(used + 1):
            prefix.append(b)
            yield from rec(prefix, max(used, b + 1))
            prefix.pop()

    yield from rec([], 0)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def _norm_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class FiniteGraph:
    """Undirected graph on 0..n-1; loops permitted only under the loops policy."""

    n: int
    policy: str
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise SemanticError("graphs have non-empty vertex sets")
        if self.policy not in (LOOPS, NOLOOPS):
            raise SemanticError(f"unknown loop policy {self.policy!r}")
        for a, b in self.edges:
            if not (0 <= a <= b < self.n):
                raise SemanticError(f"edge {a}-{b} out of range or unnormalized")
            if a == b and self.policy == NOLOOPS:
                raise SemanticError(f"loop {a}-{a} under noloops policy")

    @property
    def all_pairs(self) -> frozenset[tuple[int, int]]:
        """Every admissible pair: C_G under loops, K_G under noloops."""
        if self.policy == LOOPS:
            return frozenset((a, b) for a in range(self.n) for b in range(a, self.n))
        return frozenset((a, b) for a in range(self.n) for b in range(a + 1, self.n))

    @property
    def loop_vertices(self) -> frozenset[int]:
        return frozenset(a for a, b in self.edges if a == b)

    def has_edge(self, a: int, b: int) -> bool:
        return _norm_pair(a, b) in self.edges

    def is_complete(self) -> bool:
        return self.edges == self.all_pairs

    def encoding(self) -> tuple:
        return (self.n, self.policy, tuple(sorted(self.edges)))


def graph(n: int, policy: str, edges=()) -> FiniteGraph:
    return FiniteGraph(n, policy, frozenset(_norm_pair(a, b) for a, b in edges))


def complete_graph(n: int) -> FiniteGraph:
    return graph(n, NOLOOPS, [(a, b) for a in range(n) for b in range(a + 1, n)])


def edgeless_graph(n: int, policy: str = NOLOOPS) -> FiniteGraph:
    return graph(n, policy, [])


def path_graph(n: int) -> FiniteGraph:
    return graph(n, NOLOOPS, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> FiniteGraph:
    return graph(n, NOLOOPS, [(i, (i + 1) % n) for i in range(n)])


def completion(g: FiniteGraph) -> FiniteGraph:
    """Same vertices, every non-loop edge present."""
    if g.policy != NOLOOPS:
        raise PolicyMismatch("completion is defined for loopless graphs")
    return FiniteGraph(g.n, NOLOOPS, g.all_pairs)


def induced(g: FiniteGraph, subset) -> FiniteGraph:
    """Induced subgraph on sorted(subset), relabelled to 0..|S|-1."""
    sub = sorted(set(subset))
    if not sub:
        raise EmptySubset("induced subgraph on the empty set")
    pos = {v: i for i, v in enumerate(sub)}
    keep = [(pos[a], pos[b]) for a, b in g.edges if a in pos and b in pos]
    return graph(len(sub), g.policy, keep)


def relabel_graph(g: FiniteGraph, perm) -> FiniteGraph:
    return graph(g.n, g.policy, [(perm[a], perm[b]) for a, b in g.edges])


def random_graph(rng: random.Random, n: int, policy: str) -> FiniteGraph:
    return graph(n, policy, [p for p in _pair_slots(n, policy) if rng.random() < 0.5])


# named two-vertex loop-admitting graphs and friends
T = graph(1, LOOPS)
T0 = graph(1, LOOPS, [(0, 0)])
B1 = graph(2, LOOPS)
B2 = graph(2, LOOPS, [(0, 1)])
B3 = graph(2, LOOPS, [(0, 0)])
B4 = graph(2, LOOPS, [(0, 0), (1, 1)])
B5 = graph(2, LOOPS, [(0, 1), (1, 1)])
B6 = graph(2, LOOPS, [(0, 0), (0, 1), (1, 1)])
B_SET = (B1, B2, B3, B4, B5, B6)
A3 = graph(3, LOOPS, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteSpace:
    """Finite topological space on points 0..n-1."""

    n: int
    opens: frozenset[frozenset[int]]

    def __post_init__(self):
        if self.n < 1:
            raise SemanticError("spaces have non-empty point sets")
        full = frozenset(range(self.n))
        for u in self.opens:
            if not u <= full:
                raise SemanticError(f"open set {sorted(u)} out of range")
        if frozenset() not in self.opens or full not in self.opens:
            raise MissingEmptyOrFull("a topology contains the empty and full sets")
        for u in self.opens:
            for v in self.opens:
                if u | v not in self.opens:
                    raise NotClosedUnderUnion(f"{sorted(u)} | {sorted(v)} missing")
                if u & v not in self.opens:
                    raise NotClosedUnderIntersection(f"{sorted(u)} & {sorted(v)} missing")

    @property
    def full(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def is_indiscrete(self) -> bool:
        return len(self.opens) == 2 or self.n == 1

    def is_discrete(self) -> bool:
        return len(self.opens) == 2 ** self.n

    def is_t0(self) -> bool:
        return all(
            any((x in u) != (y in u) for u in self.opens)
            for x in range(self.n)
            for y in range(x + 1, self.n)
        )

    def is_t1(self) -> bool:
        # finite T1 = discrete
        return self.is_discrete()

    def min_open(self, x: int) -> frozenset[int]:
        """Smallest open set containing x (exists in a finite space)."""
        out = self.full
        for u in self.opens:
            if x in u:
                out &= u
        return out

    def encoding(self) -> tuple:
        return (self.n, tuple(sorted(_bitmask(u) for u in self.opens)))


def _bitmask(s) -> int:
    out = 0
    for x in s:
        out |= 1 << x
    return out


def space(n: int, opens) -> FiniteSpace:
    return FiniteSpace(n, frozenset(frozenset(u) for u in opens))


def indiscrete_space(n: int) -> FiniteSpace:
    return space(n, [frozenset(), frozenset(range(n))])


def discrete_space(n: int) -> FiniteSpace:
    subsets = []
    for mask in range(2 ** n):
        subsets.append(frozenset(i for i in range(n) if mask >> i & 1))
    return space(n, subsets)


def subspace(x: FiniteSpace, subset) -> FiniteSpace:
    """Relative topology on sorted(subset), relabelled to 0..|S|-1."""
    sub = sorted(set(subset))
    if not sub:
        raise EmptySubset("subspace on the empty set")
    pos = {v: i for i, v in enumerate(sub)}
    opens = {frozenset(pos[p] for p in u if p in pos) for u in x.opens}
    return FiniteSpace(len(sub), frozenset(opens))


def relabel_space(x: FiniteSpace, perm) -> FiniteSpace:
    return space(x.n, [{perm[p] for p in u} for u in x.opens])


T_SPACE = space(1, [[], [0]])
S2 = space(2, [[], [0], [0, 1]])
I2 = indiscrete_space(2)
D2 = discrete_space(2)


# ---------------------------------------------------------------------------
# Isomorphism and homeomorphism
# ---------------------------------------------------------------------------

def _graph_degree_key(g: FiniteGraph, v: int) -> tuple[int, int]:
    deg = sum(1 for a, b in g.edges if (a == v) != (b == v))
    return (deg, 1 if (v, v) in g.edges else 0)


def _apply_perm_graph(g: FiniteGraph, perm) -> frozenset[tuple[int, int]]:
    return frozenset(_norm_pair(perm[a], perm[b]) for a, b in g.edges)


def iso_graphs(g: FiniteGraph, h: FiniteGraph):
    """Edge-preserving-both-ways bijection g -> h, or None.

    Deterministic: the lexicographically least witness is returned.
    """
    if g.policy != h.policy:
        raise PolicyMismatch("cannot compare graphs under different loop policies")
    if g.n != h.n or len(g.edges) != len(h.edges):
        return None
    if g.n > ISO_BOUND:
        raise BoundExceeded(f"isomorphism testing capped at n <= {ISO_BOUND}")
    if sorted(_graph_degree_key(g, v) for v in range(g.n)) != sorted(
        _graph_degree_key(h, v) for v in range(h.n)
    ):
        return None
    hkeys = [_graph_degree_key(h, v) for v in range(h.n)]
    gkeys = [_graph_degree_key(g, v) for v in range(g.n)]
    for perm in itertools.permutations(range(g.n)):
        if any(gkeys[v] != hkeys[perm[v]] for v in range(g.n)):
            continue
        if _apply_perm_graph(g, perm) == h.edges:
            return perm
    return None


def _apply_perm_space(x: FiniteSpace, perm) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(perm[p] for p in u) for u in x.opens)


def homeo_spaces(x: FiniteSpace, y: FiniteSpace):
    """Open-to-open bijection x -> y, or None; least witness."""
    if x.n != y.n or len(x.opens) != len(y.opens):
        return None
    if x.n > ISO_BOUND:
        raise BoundExceeded(f"homeomorphism testing capped at n <= {ISO_BOUND}")
    xsizes = sorted(len(u) for u in x.opens)
    if xsizes != sorted(len(u) for u in y.opens):
        return None
    xkey = [len(x.min_open(p)) for p in range(x.n)]
    ykey = [len(y.min_open(p)) for p in range(y.n)]
    if sorted(xkey) != sorted(ykey):
        return None
    for perm in itertools.permutations(range(x.n)):
        if any(xkey[p] != ykey[perm[p]] for p in range(x.n)):
            continue
        if _apply_perm_space(x, perm) == y.opens:
            return perm
    return None


# ---------------------------------------------------------------------------
# Enumeration up to isomorphism / homeomorphism
# ---------------------------------------------------------------------------

def _pair_slots(n: int, policy: str) -> list[tuple[int, int]]:
    if policy == LOOPS:
        return [(a, b) for a in range(n) for b in range(a, n)]
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def enumerate_graphs(n: int, policy: str, bound: int | None = None) -> list[FiniteGraph]:
    """One canonical representative per isomorphism class, sorted."""
    limit = bound if bound is not None else _env_bound(GRAPH_ENUM_BOUND)
    if n > limit:
        raise BoundExceeded(f"graph enumeration capped at n <= {limit}")
    slots = _pair_slots(n, policy)
    index = {pair: i for i, pair in enumerate(slots)}
    perms = list(itertools.permutations(range(n)))
    # pair-slot permutation induced by each vertex permutation
    actions = [
        [index[_norm_pair(p[a], p[b])] for (a, b) in slots] for p in perms
    ]
    reps = []
    for mask in range(2 ** len(slots)):
        best = mask
        for act in actions:
            img = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                img |= 1 << act[i]
                m &= m - 1
            if img < best:
                best = img
                if best < mask:
                    break
        if best == mask:
            edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
            reps.append(graph(n, policy, edges))
    reps.sort(key=lambda g: (len(g.edges), g.encoding()))
    return reps


def _all_topologies(n: int):
    full = frozenset(range(n))
    empty = frozenset()
    proper = [
        frozenset(i for i in range(n) if mask >> i & 1)
        for mask in range(1, 2 ** n - 1)
    ]
    for k in range(2 ** len(proper)):
        fam = {empty, full}
        fam.update(proper[i] for i in range(len(proper)) if k >> i & 1)
        ok = True
        for u in fam:
            if not ok:
                break
            for v in fam:
                if u | v not in fam or u & v not in fam:
                    ok = False
                    break
        if ok:
            yield frozenset(fam)


def enumerate_spaces(n: int, bound: int | None = None) -> list[FiniteSpace]:
    """One canonical representative per homeomorphism class, sorted."""
    limit = bound if bound is not None else _env_bound(SPACE_ENUM_BOUND)
    if n > limit:
        raise BoundExceeded(f"space enumeration capped at n <= {limit}")
    perms = list(itertools.permutations(range(n)))
    reps = []
    seen: set[tuple[int, ...]] = set()
    for fam in _all_topologies(n):
        enc = tuple(sorted(_bitmask(u) for u in fam))
        if enc in seen:
            continue
        orbit = {
            tuple(sorted(_bitmask(frozenset(p[q] for q in u)) for u in fam))
            for p in perms
        }
        seen.update(orbit)
        canon = min(orbit)
        reps.append(
            space(n, [[i for i in range(n) if m >> i & 1] for m in canon])
        )
    reps.sort(key=lambda x: (len(x.opens), x.encoding()))
    return reps
