"""Congruence calculus for graphs, shared by both loop policies.

A congruence pairs an equivalence relation on the vertices with a congruence
edge-set sandwiched between the edges and all admissible pairs, closed under
substitution: once a pair of blocks touches the edge-set, every pair between
those blocks belongs to it.  The substitution property makes block-pair
orbits atomic, which is what the enumeration exploits.  Edge-sets are masks
over the pair slots of `structures`, and the orbits are masks each
partition keeps (`Partition.orbits`), so the calculus is ANDs and ORs.

A loopless congruence is such a congruence whose blocks are also
independent, so the calculus here serves both policies; validation,
enumeration, `strongify_gc` and `random_gcong` take loop graphs only, and
`loopless_congruence` holds only what independence changes.

Functions here take valid congruences; `validate_gc` is the check for one
built outside the library, and `validate_pairs_gc` the check of a pair
family read from a file.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

from .errors import (
    EdgeSetOutOfRange,
    EmptyList,
    IndependenceViolated,
    InvalidCongruence,
    NotHomomorphism,
    PolicyMismatch,
    SubstitutionViolated,
)
from .structures import (
    FiniteGraph,
    LOOPS,
    Partition,
    _carried,
    _mask_of,
    _pairs,
    _positions,
    _refines,
    _slot_count,
    _slot_images,
    _subset_image,
    bounded_partitions,
    count_scanned,
    join_partitions,
    meet_partitions,
    random_partition,
    require_carrier,
    require_surjective,
)


def _slot_order(mask: int) -> str:
    """A key that orders masks as the sorted lists of their set slots, so as
    their sorted pairs: bit 0 first, a held slot '1' before a skipped one '2',
    and a list that ends before another sorts first."""
    return bin(mask << 1)[:1:-1].replace("0", "2")


@dataclass(frozen=True)
class GraphCongruence:
    """A partition with its congruence edge-set, stored as a mask over the
    pair slots of the carrier's vertices; `cedges` is the set of pairs and
    `from_pairs` builds one from pairs."""

    part: Partition
    cmask: int

    @staticmethod
    def from_pairs(part: Partition, pairs) -> "GraphCongruence":
        return GraphCongruence(part, _mask_of(part.n, pairs))

    @functools.cached_property
    def cedges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pairs(self.part.n, self.cmask))

    def encoding(self) -> tuple:
        return (self.part.class_id, tuple(_pairs(self.part.n, self.cmask)))


def identity_gc(g: FiniteGraph) -> GraphCongruence:
    return GraphCongruence(Partition.identity(g.n), g.mask)


def universal_gc(g: FiniteGraph) -> GraphCongruence:
    return GraphCongruence(Partition.universal(g.n), g.all_pairs)


def le_gc(a: GraphCongruence, b: GraphCongruence) -> bool:
    return not a.cmask & ~b.cmask and _refines(a.part.class_id, b.part.class_id)


def block_orbit(part: Partition, a: int, b: int) -> int:
    """The mask of all pairs between the blocks of a and b (the substitution orbit)."""
    blocks, cid = part.blocks, part.class_id
    return _mask_of(part.n, ((u, v) for u in blocks[cid[a]] for v in blocks[cid[b]]))


def _orbits(g: FiniteGraph, part: Partition) -> tuple[int, ...]:
    """Block-pair orbits in lexicographic order of the blocks; a loopless
    carrier has no diagonal ones."""
    return part.orbits[g.policy == LOOPS]


def saturation_gc(g: FiniteGraph, part: Partition) -> int:
    """The pairs whose block orbit touches an edge of g."""
    return sum(o for o in _orbits(g, part) if o & g.mask)


def strongify_gc(g: FiniteGraph, part: Partition) -> GraphCongruence:
    if g.policy != LOOPS:
        raise PolicyMismatch("strongify_gc needs a loops-allowed carrier")
    return GraphCongruence(part, saturation_gc(g, part))


def _out_of_range(g: FiniteGraph) -> EdgeSetOutOfRange:
    top = "C" if g.policy == LOOPS else "K"
    return EdgeSetOutOfRange(f"congruence edge-set must sit between E and {top}")


def _validate(g: FiniteGraph, theta: GraphCongruence) -> GraphCongruence:
    """The checks of `validate_gc` and `validate_lc` after the carrier's policy:
    the mask's pairs, sorted, pass a file's check, so a refusal names the least."""
    require_carrier(g, theta.part)
    if theta.cmask < 0 or theta.cmask >> _slot_count(g.n):
        raise _out_of_range(g)
    validate_pairs_gc(g, theta.part, _pairs(g.n, theta.cmask))
    return theta


def validate_gc(g: FiniteGraph, theta: GraphCongruence) -> GraphCongruence:
    if g.policy != LOOPS:
        raise InvalidCongruence("loop-graph congruences need a loops-allowed carrier")
    return _validate(g, theta)


def validate_pairs_gc(g: FiniteGraph, part: Partition, pairs) -> GraphCongruence:
    """The congruence with the given pairs on g, as read from a file, under
    either policy, after checking the pairs as given: each between E and the
    admissible pairs (before any is put in a slot, so no negative id is
    shifted), then, for a loopless g, none joining related vertices, then
    every orbit inside, each pair of blocks tested once.  A refusal names a
    pair in the family's own order."""
    require_carrier(g, part)
    loops = g.policy == LOOPS
    if not all(0 <= a <= b < g.n and (loops or a < b) for a, b in pairs):
        raise _out_of_range(g)
    theta = GraphCongruence.from_pairs(part, pairs)
    if g.mask & ~theta.cmask:
        raise _out_of_range(g)
    if not loops:
        for a, b in pairs:
            if part.same(a, b):
                raise IndependenceViolated(f"{a}-{b} joins related vertices")
    cid, tested = part.class_id, set()
    for a, b in pairs:
        key = (cid[a], cid[b])
        if key not in tested and block_orbit(part, a, b) & ~theta.cmask:
            raise SubstitutionViolated(f"orbit of {a}-{b} escapes the edge-set")
        tested.add(key)
    return theta


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

def _pullback(h: FiniteGraph, f: tuple) -> int:
    """h's edge mask pulled back along a map f of its vertices into h's: the
    pairs f sends onto edges of h."""
    images = _slot_images(len(f), tuple(f), h.n)
    return sum(1 << s for s in range(_slot_count(len(f))) if images[s] & h.mask)


def kernel_gc(g: FiniteGraph, h: FiniteGraph, f: tuple) -> GraphCongruence:
    """The fibres of f with the pairs f sends onto edges of h, which must hold g's."""
    if len(f) != g.n:
        raise NotHomomorphism(f"the map has {len(f)} images for {g.n} vertices")
    if min(f) < 0 or max(f) >= h.n:
        raise NotHomomorphism(f"the map's images must lie in 0..{h.n - 1}")
    cmask = _pullback(h, f)
    if g.mask & ~cmask:
        raise NotHomomorphism("the map does not preserve edges")
    return GraphCongruence(Partition(f), cmask)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient_gc(g: FiniteGraph, theta: GraphCongruence) -> FiniteGraph:
    """Quotient graph under g's loop policy; its projection is theta.part.class_id."""
    cid, m = theta.part.class_id, theta.part.num_blocks
    return FiniteGraph(m, g.policy, _carried(g.n, theta.cmask, cid, m))


def restrict_gc(g: FiniteGraph, theta: GraphCongruence, subset) -> GraphCongruence:
    sub = _positions(subset, g.n)
    cid = theta.part.class_id
    cmask = _carried(g.n, theta.cmask, _subset_image(g.n, sub), len(sub))
    return GraphCongruence(Partition([cid[p] for p in sub]), cmask)


def quotient_cong_gc(g: FiniteGraph, t1: GraphCongruence, t2: GraphCongruence) -> GraphCongruence:
    """The congruence t2/t1 on the quotient by t1, for t1 <= t2."""
    part = Partition([t2.part.class_id[b[0]] for b in t1.part.blocks])
    return GraphCongruence(part, _carried(g.n, t2.cmask, t1.part.class_id, t1.part.num_blocks))


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def meet_gc(g: FiniteGraph, thetas: list[GraphCongruence]) -> GraphCongruence:
    if not thetas:
        raise EmptyList("meet of no congruences")
    part = meet_partitions([t.part for t in thetas])
    cmask = thetas[0].cmask
    for t in thetas[1:]:
        cmask &= t.cmask
    return GraphCongruence(part, cmask)


def join_gc(g: FiniteGraph, thetas: list[GraphCongruence]) -> GraphCongruence:
    """The joined partition with every orbit that meets an edge-set."""
    if not thetas:
        raise EmptyList("join of no congruences")
    part = join_partitions([t.part for t in thetas])
    union = 0
    for t in thetas:
        union |= t.cmask
    return GraphCongruence(part, sum(o for o in part.orbits[True] if o & union))


# ---------------------------------------------------------------------------
# Images along surjective homomorphisms
# ---------------------------------------------------------------------------

def image_gc(g: FiniteGraph, h: FiniteGraph, f: tuple, theta: GraphCongruence) -> GraphCongruence:
    """Push theta forward: theta + ker f carried to h along the fibres, which
    it does not split."""
    require_surjective(f, h.n)
    total = join_gc(g, [theta, kernel_gc(g, h, f)])
    label = dict(zip(f, total.part.class_id))
    return GraphCongruence(Partition([label[v] for v in range(h.n)]), _carried(g.n, total.cmask, f, h.n))


def image_le_gc(g: FiniteGraph, h: FiniteGraph, f: tuple, theta: GraphCongruence,
                beta: GraphCongruence) -> bool:
    """Whether theta's image along f lies below a valid beta, decided pointwise.

    On a loop carrier this equals le_gc(image_gc(...), beta), because beta
    holds E_h and is closed under substitution.  On a loopless carrier the
    image need not be a congruence, and this comparison is the definition.
    f is trusted to be a surjective homomorphism."""
    return _refines(theta.part.class_id, [beta.part.class_id[v] for v in f]) and not (
        _carried(g.n, theta.cmask, f, h.n) & ~beta.cmask
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
    admitted = []
    scanned = 0
    for part in bounded_partitions(g.n):
        if not admits(part):
            scanned = count_scanned(scanned, 1)
            continue
        free = sum(1 for o in _orbits(g, part) if not o & g.mask)
        scanned = count_scanned(scanned, 2 ** free)
        admitted.append(part)
    return (theta for part in admitted for theta in _congruences_of(g, part))


def _congruences_of(g: FiniteGraph, part: Partition) -> list[GraphCongruence]:
    """The congruences on one partition, sorted by encoding."""
    masks = [0]
    for o in _orbits(g, part):
        if o & g.mask:
            masks = [m | o for m in masks]
        else:
            masks += [m | o for m in masks]
    masks.sort(key=_slot_order)
    return [GraphCongruence(part, m) for m in masks]


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
    cmask = saturation_gc(g, part)
    for o in _orbits(g, part):
        if not o & cmask and rng.random() < 0.5:
            cmask |= o
    return GraphCongruence(part, cmask)


def random_gcong(rng: random.Random, g: FiniteGraph) -> GraphCongruence:
    if g.policy != LOOPS:
        raise PolicyMismatch("random_gcong needs a loops-allowed carrier")
    return _random_over(rng, g, random_partition(rng, g.n))
