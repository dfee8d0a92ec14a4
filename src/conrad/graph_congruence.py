"""Congruence calculus for graphs, shared by both loop policies.

A congruence pairs an equivalence relation on the vertices with a congruence
edge-set sandwiched between the edges and all admissible pairs, closed under
substitution: once a pair of blocks touches the edge-set, every pair between
those blocks belongs to it.  The substitution property makes block-pair
orbits atomic, which is what the enumeration exploits.

A loopless congruence is such a congruence whose blocks are also
independent, so everything here that does not validate serves both
policies; `loopless_congruence` holds only what independence changes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    EdgeSetOutOfRange,
    EmptyList,
    EmptySubset,
    InvalidCongruence,
    NotContained,
    NotHomomorphism,
    NotSurjective,
    SubstitutionViolated,
)
from .structures import (
    FiniteGraph,
    LOOPS,
    Partition,
    _norm_pair,
    all_partitions,
    graph,
    is_surjective,
    join_partitions,
    meet_partitions,
    random_partition,
)


@dataclass(frozen=True)
class GraphCongruence:
    part: Partition
    cedges: frozenset[tuple[int, int]]

    def encoding(self) -> tuple:
        return (self.part.class_id, tuple(sorted(self.cedges)))


def identity_gc(g: FiniteGraph) -> GraphCongruence:
    return GraphCongruence(Partition.identity(g.n), g.edges)


def universal_gc(g: FiniteGraph) -> GraphCongruence:
    return GraphCongruence(Partition.universal(g.n), g.all_pairs)


def le_gc(a: GraphCongruence, b: GraphCongruence) -> bool:
    return a.part.refines(b.part) and a.cedges <= b.cedges


def block_orbit(part: Partition, a: int, b: int) -> frozenset[tuple[int, int]]:
    """All pairs between the blocks of a and b (the substitution orbit)."""
    return frozenset(
        _norm_pair(u, v)
        for u in part.blocks[part.class_id[a]]
        for v in part.blocks[part.class_id[b]]
    )


def _orbits(part: Partition, include_diagonal: bool = True):
    for i in range(part.num_blocks):
        for j in range(i if include_diagonal else i + 1, part.num_blocks):
            yield frozenset(
                _norm_pair(u, v) for u in part.blocks[i] for v in part.blocks[j]
            )


def saturation_gc(g: FiniteGraph, part: Partition) -> frozenset[tuple[int, int]]:
    """Pairs whose block orbit touches an edge of g."""
    out: set[tuple[int, int]] = set()
    for orbit in _orbits(part):
        if orbit & g.edges:
            out.update(orbit)
    return frozenset(out)


def strongify_gc(g: FiniteGraph, part: Partition) -> GraphCongruence:
    return GraphCongruence(part, saturation_gc(g, part))


def is_strong_gc(g: FiniteGraph, theta: GraphCongruence) -> bool:
    return theta.cedges == saturation_gc(g, theta.part)


def validate_gc(g: FiniteGraph, theta: GraphCongruence) -> GraphCongruence:
    if g.policy != LOOPS:
        raise InvalidCongruence("loop-graph congruences need a loops-allowed carrier")
    if theta.part.n != g.n:
        raise InvalidCongruence(f"partition on {theta.part.n} vertices, graph has {g.n}")
    if not (g.edges <= theta.cedges <= g.all_pairs):
        raise EdgeSetOutOfRange("congruence edge-set must sit between E and C")
    for a, b in theta.cedges:
        if not block_orbit(theta.part, a, b) <= theta.cedges:
            raise SubstitutionViolated(f"orbit of {a}-{b} escapes the edge-set")
    return theta


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

def is_homomorphism(g: FiniteGraph, h: FiniteGraph, f: tuple) -> bool:
    # a loopless h admits no loop image, so edges never land inside a fibre
    return all(_norm_pair(f[a], f[b]) in h.edges for a, b in g.edges)


def kernel_gc(g: FiniteGraph, h: FiniteGraph, f: tuple) -> GraphCongruence:
    if not is_homomorphism(g, h, f):
        raise NotHomomorphism("kernel needs an edge-preserving map")
    part = Partition.from_map(tuple(f))
    cedges = frozenset(
        p for p in g.all_pairs if _norm_pair(f[p[0]], f[p[1]]) in h.edges
    )
    return GraphCongruence(part, cedges)


def strong_kernel_gc(g: FiniteGraph, h: FiniteGraph, f: tuple) -> GraphCongruence:
    if not is_homomorphism(g, h, f):
        raise NotHomomorphism("strong kernel needs an edge-preserving map")
    return strongify_gc(g, Partition.from_map(tuple(f)))


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def _quotient_graph(g: FiniteGraph, theta: GraphCongruence) -> tuple[FiniteGraph, tuple]:
    """Quotient by a validated congruence, under the carrier's loop policy."""
    cid = theta.part.class_id
    edges = {(min(cid[a], cid[b]), max(cid[a], cid[b])) for a, b in theta.cedges}
    return graph(theta.part.num_blocks, g.policy, edges), cid


def quotient_gc(g: FiniteGraph, theta: GraphCongruence) -> tuple[FiniteGraph, tuple]:
    validate_gc(g, theta)
    return _quotient_graph(g, theta)


def restrict_gc(g: FiniteGraph, theta: GraphCongruence, subset) -> GraphCongruence:
    sub = sorted(set(subset))
    if not sub:
        raise EmptySubset("restriction to the empty set")
    pos = {v: i for i, v in enumerate(sub)}
    part = theta.part.restrict(sub)
    cedges = frozenset(
        (pos[a], pos[b]) for a, b in theta.cedges if a in pos and b in pos
    )
    return GraphCongruence(part, cedges)


def quotient_cong_gc(g: FiniteGraph, t1: GraphCongruence, t2: GraphCongruence) -> GraphCongruence:
    if not le_gc(t1, t2):
        raise NotContained("the second congruence must contain the first")
    cid = t1.part.class_id
    part = Partition.from_map(tuple(t2.part.class_id[b[0]] for b in t1.part.blocks))
    cedges = frozenset(_norm_pair(cid[a], cid[b]) for a, b in t2.cedges)
    return GraphCongruence(part, cedges)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def meet_gc(g: FiniteGraph, thetas: list[GraphCongruence]) -> GraphCongruence:
    if not thetas:
        raise EmptyList("meet of no congruences")
    part = meet_partitions([t.part for t in thetas])
    cedges = frozenset.intersection(*(t.cedges for t in thetas))
    return GraphCongruence(part, cedges)


def join_gc(g: FiniteGraph, thetas: list[GraphCongruence]) -> GraphCongruence:
    if not thetas:
        raise EmptyList("join of no congruences")
    part = join_partitions([t.part for t in thetas])
    cedges: set[tuple[int, int]] = set()
    for pair in frozenset.union(*(t.cedges for t in thetas)):
        cedges.update(block_orbit(part, *pair))
    return GraphCongruence(part, frozenset(cedges))


# ---------------------------------------------------------------------------
# Images along surjective homomorphisms
# ---------------------------------------------------------------------------

def image_gc(g: FiniteGraph, h: FiniteGraph, f: tuple, theta: GraphCongruence) -> GraphCongruence:
    """Push theta forward: (theta + ker f)/ker f carried to h along the fibres."""
    if not is_surjective(f, h.n):
        raise NotSurjective("image congruence needs a surjective map")
    alpha = kernel_gc(g, h, f)
    total = join_gc(g, [theta, alpha])
    qc = quotient_cong_gc(g, alpha, total)
    to_h = [f[b[0]] for b in alpha.part.blocks]
    raw = [0] * h.n
    for b, cls in enumerate(qc.part.class_id):
        raw[to_h[b]] = cls
    part = Partition.from_map(tuple(raw))
    cedges = frozenset(_norm_pair(to_h[a], to_h[b]) for a, b in qc.cedges)
    return GraphCongruence(part, cedges)


def image_gc_direct(g: FiniteGraph, h: FiniteGraph, f: tuple, theta: GraphCongruence) -> GraphCongruence:
    """Image by chain closure on the codomain; independent oracle."""
    if not is_surjective(f, h.n):
        raise NotSurjective("image congruence needs a surjective map")
    if not is_homomorphism(g, h, f):
        raise NotHomomorphism("image congruence needs a homomorphism")
    parts = [Partition.identity(h.n)]
    for block in theta.part.blocks:
        hit = sorted({f[v] for v in block})
        raw = list(range(h.n))
        for q in hit[1:]:
            raw[q] = hit[0]
        parts.append(Partition.from_map(tuple(raw)))
    part = join_partitions(parts)
    seeds = {_norm_pair(f[a], f[b]) for a, b in theta.cedges} | h.edges
    cedges: set[tuple[int, int]] = set()
    for pair in seeds:
        cedges.update(block_orbit(part, *pair))
    return GraphCongruence(part, frozenset(cedges))


# ---------------------------------------------------------------------------
# Enumeration, random congruences, products
# ---------------------------------------------------------------------------

def _congruences_over(g: FiniteGraph, parts, include_diagonal: bool) -> list[GraphCongruence]:
    """Per partition, every edge-set that is E's orbits plus a union of free orbits.

    Loopless graphs pass independent partitions only and leave out the
    diagonal orbits, whose pairs join related vertices.
    """
    out = []
    for part in parts:
        required: set[tuple[int, int]] = set()
        free = []
        for orbit in _orbits(part, include_diagonal):
            if orbit & g.edges:
                required.update(orbit)
            else:
                free.append(sorted(orbit))
        free.sort()
        found = []
        for k in range(2 ** len(free)):
            cedges = set(required)
            for i in range(len(free)):
                if k >> i & 1:
                    cedges.update(free[i])
            found.append(GraphCongruence(part, frozenset(cedges)))
        found.sort(key=lambda c: c.encoding())
        out.extend(found)
    return out


def enumerate_congruences_gc(g: FiniteGraph) -> list[GraphCongruence]:
    """Every congruence: per partition, the edge-set is a union of orbits."""
    return _congruences_over(g, all_partitions(g.n), include_diagonal=True)


def _random_over(rng: random.Random, g: FiniteGraph, part: Partition,
                 include_diagonal: bool) -> GraphCongruence:
    """The strong edge-set of the partition plus each free orbit with odds 1/2."""
    cedges = set(saturation_gc(g, part))
    for orbit in _orbits(part, include_diagonal):
        if not orbit & cedges and rng.random() < 0.5:
            cedges.update(orbit)
    return GraphCongruence(part, frozenset(cedges))


def random_gcong(rng: random.Random, g: FiniteGraph) -> GraphCongruence:
    return _random_over(rng, g, random_partition(rng, g.n), include_diagonal=True)


def product_graph(factors: list[FiniteGraph]) -> FiniteGraph:
    """Categorical product; materialized only at desk scale."""
    if len(factors) > 4:
        raise BoundExceeded("products materialized for at most 4 factors")
    size = 1
    for fct in factors:
        size *= fct.n
    if size > 10 ** 5:
        raise BoundExceeded("product too large to materialize")
    verts = list(itertools.product(*(range(fct.n) for fct in factors)))
    pos = {v: i for i, v in enumerate(verts)}
    edges = set()
    for u in verts:
        for v in verts:
            if pos[u] <= pos[v] and all(
                _norm_pair(a, b) in fct.edges for a, b, fct in zip(u, v, factors)
            ):
                edges.add((pos[u], pos[v]))
    return graph(len(verts), LOOPS, edges)
