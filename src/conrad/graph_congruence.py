"""Congruence calculus for graphs, shared by both loop policies.

A congruence pairs an equivalence relation on the vertices with a congruence
edge-set sandwiched between the edges and all admissible pairs, closed under
substitution: once a pair of blocks touches the edge-set, every pair between
those blocks belongs to it.  The substitution property makes block-pair
orbits atomic, which is what the enumeration exploits.

A loopless congruence is such a congruence whose blocks are also
independent, so the calculus here serves both policies; validation,
enumeration, `strongify_gc` and `random_gcong` take loop graphs only, and
`loopless_congruence` holds only what independence changes.

Functions here take valid congruences; `validate_gc` is the check for one
built outside the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    EdgeSetOutOfRange,
    EmptyList,
    InvalidCongruence,
    NotHomomorphism,
    PolicyMismatch,
    SubstitutionViolated,
)
from .structures import (
    FiniteGraph,
    LOOPS,
    Partition,
    _norm_pair,
    _positions,
    _refines,
    bounded_partitions,
    count_scanned,
    join_partitions,
    meet_partitions,
    random_partition,
    require_surjective,
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
    return a.cedges <= b.cedges and _refines(a.part.class_id, b.part.class_id)


def block_orbit(part: Partition, a: int, b: int) -> frozenset[tuple[int, int]]:
    """All pairs between the blocks of a and b (the substitution orbit)."""
    return frozenset(
        _norm_pair(u, v)
        for u in part.blocks[part.class_id[a]]
        for v in part.blocks[part.class_id[b]]
    )


def _orbits(g: FiniteGraph, part: Partition):
    """Block-pair orbits; a loopless carrier has no diagonal ones."""
    blocks = part.blocks
    diagonal = g.policy == LOOPS
    for i in range(len(blocks)):
        for j in range(i if diagonal else i + 1, len(blocks)):
            yield block_orbit(part, blocks[i][0], blocks[j][0])


def saturation_gc(g: FiniteGraph, part: Partition) -> frozenset[tuple[int, int]]:
    """Pairs whose block orbit touches an edge of g."""
    out: set[tuple[int, int]] = set()
    for orbit in _orbits(g, part):
        if orbit & g.edges:
            out.update(orbit)
    return frozenset(out)


def strongify_gc(g: FiniteGraph, part: Partition) -> GraphCongruence:
    if g.policy != LOOPS:
        raise PolicyMismatch("strongify_gc needs a loops-allowed carrier")
    return GraphCongruence(part, saturation_gc(g, part))


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

def kernel_gc(g: FiniteGraph, h: FiniteGraph, f: tuple) -> GraphCongruence:
    cedges = frozenset(
        p for p in g.all_pairs if _norm_pair(f[p[0]], f[p[1]]) in h.edges
    )
    if not g.edges <= cedges:
        raise NotHomomorphism("the map does not preserve edges")
    return GraphCongruence(Partition(f), cedges)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient_gc(g: FiniteGraph, theta: GraphCongruence) -> tuple[FiniteGraph, tuple]:
    """Quotient graph under the carrier's loop policy, and the projection."""
    cid = theta.part.class_id
    edges = frozenset(_norm_pair(cid[a], cid[b]) for a, b in theta.cedges)
    return FiniteGraph(theta.part.num_blocks, g.policy, edges), cid


def restrict_gc(g: FiniteGraph, theta: GraphCongruence, subset) -> GraphCongruence:
    sub, pos = _positions(subset, g.n)
    cid = theta.part.class_id
    part = Partition([cid[p] for p in sub])
    cedges = frozenset(
        (pos[a], pos[b]) for a, b in theta.cedges if a in pos and b in pos
    )
    return GraphCongruence(part, cedges)


def quotient_cong_gc(g: FiniteGraph, t1: GraphCongruence, t2: GraphCongruence) -> GraphCongruence:
    """The congruence t2/t1 on the quotient by t1, for t1 <= t2."""
    cid = t1.part.class_id
    part = Partition([t2.part.class_id[b[0]] for b in t1.part.blocks])
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
    require_surjective(f, h.n)
    alpha = kernel_gc(g, h, f)
    total = join_gc(g, [theta, alpha])
    qc = quotient_cong_gc(g, alpha, total)
    to_h = [f[b[0]] for b in alpha.part.blocks]
    raw = [0] * h.n
    for b, cls in enumerate(qc.part.class_id):
        raw[to_h[b]] = cls
    part = Partition(raw)
    cedges = frozenset(_norm_pair(to_h[a], to_h[b]) for a, b in qc.cedges)
    return GraphCongruence(part, cedges)


def image_le_gc(g: FiniteGraph, h: FiniteGraph, f: tuple, theta: GraphCongruence,
                beta: GraphCongruence) -> bool:
    """Whether theta's image along f lies below a valid beta, decided pointwise.

    On a loop carrier this equals le_gc(image_gc(...), beta), because beta
    holds E_h and is closed under substitution.  On a loopless carrier the
    image need not be a congruence, and this comparison is the definition.
    f is trusted to be a surjective homomorphism."""
    return _refines(theta.part.class_id, [beta.part.class_id[v] for v in f]) and all(
        _norm_pair(f[a], f[b]) in beta.cedges for a, b in theta.cedges
    )


# ---------------------------------------------------------------------------
# Enumeration and random congruences
# ---------------------------------------------------------------------------

def _congruences_over(g: FiniteGraph, admits):
    """Per admitted partition, every edge-set that is E's orbits plus a union
    of free orbits, partitions in growth order and each one's sorted by
    encoding; built lazily, one partition at a time.

    Loopless graphs admit independent partitions only; their orbits leave
    out the diagonal ones, whose pairs join related vertices.  Every
    partition's candidates are counted, and the scan bound applied, when this
    is called: one for a refused partition, 2^(free orbits) for an admitted
    one, where an orbit is free when no edge of g joins its two blocks.
    """
    diagonal = g.policy == LOOPS
    admitted = []
    scanned = 0
    for part in bounded_partitions(g.n):
        if not admits(part):
            scanned = count_scanned(scanned, 1)
            continue
        k = part.num_blocks
        cid = part.class_id
        touched = {_norm_pair(cid[a], cid[b]) for a, b in g.edges}
        free = (k * (k + 1) if diagonal else k * (k - 1)) // 2 - len(touched)
        scanned = count_scanned(scanned, 2 ** free)
        admitted.append(part)
    return (theta for part in admitted for theta in _congruences_of(g, part))


def _congruences_of(g: FiniteGraph, part: Partition) -> list[GraphCongruence]:
    """The congruences on one partition, sorted by encoding."""
    required: set[tuple[int, int]] = set()
    free = []
    for orbit in _orbits(g, part):
        if orbit & g.edges:
            required.update(orbit)
        else:
            free.append(orbit)
    found = []
    for k in range(2 ** len(free)):
        cedges = set(required)
        for i in range(len(free)):
            if k >> i & 1:
                cedges.update(free[i])
        found.append(GraphCongruence(part, frozenset(cedges)))
    found.sort(key=lambda c: c.encoding())
    return found


def iter_congruences_gc(g: FiniteGraph):
    """Every congruence, lazily: per partition, the edge-set is a union of orbits.
    Raises BoundExceeded at call time, before any congruence is built."""
    if g.policy != LOOPS:
        raise PolicyMismatch("enumerate_congruences_gc needs a loops-allowed carrier")
    return _congruences_over(g, lambda part: True)


def enumerate_congruences_gc(g: FiniteGraph) -> list[GraphCongruence]:
    """Every congruence, in the order of `iter_congruences_gc`."""
    return list(iter_congruences_gc(g))


def _random_over(rng: random.Random, g: FiniteGraph, part: Partition) -> GraphCongruence:
    """The strong edge-set of the partition plus each free orbit with odds 1/2."""
    cedges = set(saturation_gc(g, part))
    for orbit in _orbits(g, part):
        if not orbit & cedges and rng.random() < 0.5:
            cedges.update(orbit)
    return GraphCongruence(part, frozenset(cedges))


def random_gcong(rng: random.Random, g: FiniteGraph) -> GraphCongruence:
    if g.policy != LOOPS:
        raise PolicyMismatch("random_gcong needs a loops-allowed carrier")
    return _random_over(rng, g, random_partition(rng, g.n))
