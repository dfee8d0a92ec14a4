"""Congruence calculus on finite topological spaces.

A congruence on a space pairs an equivalence relation with a sub-topology
whose opens are unions of blocks.  The ordering puts the identity congruence
(diagonal, full topology) at the bottom and the universal congruence
(one block, indiscrete) at the top: a smaller relation together with a
larger congruence topology is smaller in the order.

Functions here take valid congruences; `validate_tc` is the check for one
built outside the library.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    EmptyList,
    NotATopology,
    NotContinuous,
    NotSaturated,
    NotSubTopology,
    SearchExhausted,
    TrivialSpace,
)
from .structures import (
    CONGRUENCE_SCAN_BOUND,
    FiniteSpace,
    Partition,
    _bitmask,
    _carried_least,
    _least_opens,
    _least_plan,
    _members,
    _positions,
    _preorder_defect,
    _preorders,
    _refines,
    _shared_plan,
    _subset_image,
    _topology_defect,
    _transitive,
    _union_of,
    _unions,
    bounded_partitions,
    count_scanned,
    join_partitions,
    meet_partitions,
    random_partition,
    require_carrier,
    require_surjective,
)


@dataclass(frozen=True)
class TopoCongruence:
    """A partition with its congruence topology, stored as each point's least
    open set in that topology as a bitmask: the opens are their unions, and
    the points of one block share one least open set.  `from_opens` builds
    one from a family of opens."""

    part: Partition
    least: tuple[int, ...]

    @staticmethod
    def from_opens(part: Partition, opens) -> "TopoCongruence":
        """The congruence whose topology the family of opens generates."""
        return TopoCongruence(part, _least_opens(part.n, map(_bitmask, opens)))

    @functools.cached_property
    def open_masks(self) -> tuple[int, ...]:
        """Every open set as a bitmask, in increasing order."""
        return tuple(sorted(_unions(self.least)))

    @functools.cached_property
    def ctop(self) -> frozenset[frozenset[int]]:
        """The congruence topology: every open set."""
        return frozenset(map(_members, self.open_masks))

    def encoding(self) -> tuple:
        return (self.part.class_id, self.open_masks)


def identity_tc(x: FiniteSpace) -> TopoCongruence:
    return TopoCongruence(Partition.identity(x.n), x.min_opens)


def _indiscrete(n: int) -> tuple[int, ...]:
    return (2 ** n - 1,) * n


def universal_tc(x: FiniteSpace) -> TopoCongruence:
    return TopoCongruence(Partition.universal(x.n), _indiscrete(x.n))


def _within(small, large) -> bool:
    """Whether each mask of small lies inside the matching mask of large."""
    return tuple(map(operator.and_, small, large)) == tuple(small)


def le_tc(a: TopoCongruence, b: TopoCongruence) -> bool:
    """Congruence ordering: relation grows, topology shrinks, so each point's
    least open set grows."""
    return _within(a.least, b.least) and _refines(a.part.class_id, b.part.class_id)


def _block_masks(part: Partition) -> list[int]:
    return [_bitmask(block) for block in part.blocks]


def _saturated(blocks: list[int], mask: int) -> bool:
    """Whether the mask is a union of the blocks (given as masks)."""
    return not any(b & mask and b & ~mask for b in blocks)


def saturated_least(x: FiniteSpace, part: Partition) -> tuple[int, ...]:
    """Each point's least open set of x that is a union of blocks of the
    partition: the least preorder holding x's and the partition."""
    blocks = _block_masks(part)
    return _transitive(u | blocks[b] for u, b in zip(x.min_opens, part.class_id))


def _check_members(x: FiniteSpace, part: Partition, members) -> None:
    """Refuse the first of the point sets, in the order given, that is not
    open in x (a stray id included), then the first that is not a union of
    blocks: the sub-topology and saturation conditions, each set tested
    against x's least open sets of its own points."""
    full = x.full
    for u in members:
        if not (u <= full and _union_of(x.min_opens, m := _bitmask(u)) == m):
            raise NotSubTopology(f"{sorted(u)} is not open in the carrier")
    blocks = _block_masks(part)
    for u in members:
        if not _saturated(blocks, _bitmask(u)):
            raise NotSaturated(f"open {sorted(u)} is not a union of blocks")


def validate_tc(x: FiniteSpace, rho: TopoCongruence) -> TopoCongruence:
    """Check the congruence conditions against the carrier space: a preorder,
    whose least open sets pass the checks a file's family gets.  Every open
    is a union of these, so they stand for the whole congruence topology."""
    require_carrier(x, rho.part)
    if _preorder_defect(x.n, rho.least):
        raise NotATopology("congruence topology is not a topology")
    _check_members(x, rho.part, list(map(_members, rho.least)))
    return rho


def validate_opens_tc(x: FiniteSpace, part: Partition, opens: frozenset) -> TopoCongruence:
    """The congruence with the given family of opens on x, as read from a file,
    after checking the family as given: a topology, inside x's, then every
    member a union of blocks.  A refusal names a member of the family."""
    require_carrier(x, part)
    if _topology_defect(x.n, opens):
        raise NotATopology("congruence topology is not a topology")
    _check_members(x, part, opens)
    return TopoCongruence.from_opens(part, opens)


def strongify_tc(x: FiniteSpace, part: Partition) -> TopoCongruence:
    """The strong congruence for a partition: all saturated opens."""
    return TopoCongruence(part, saturated_least(x, part))


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

def _pullback(least, f) -> tuple[int, ...]:
    """A least-open vector on the codomain pulled back along f: each point's
    least open set is the preimage of its image's."""
    fibres = [0] * len(least)
    for p, v in enumerate(f):
        fibres[v] |= 1 << p
    pre = [_union_of(fibres, m) for m in least]
    return tuple([pre[v] for v in f])


def kernel_tc(x: FiniteSpace, y: FiniteSpace, f: tuple) -> TopoCongruence:
    """Fibre partition plus the pulled-back topology, which must lie in x's."""
    if len(f) != x.n:
        raise NotContinuous(f"the map has {len(f)} images for {x.n} points")
    if min(f) < 0 or max(f) >= y.n:
        raise NotContinuous(f"the map's images must lie in 0..{y.n - 1}")
    least = _pullback(y.min_opens, f)
    if not _within(x.min_opens, least):
        raise NotContinuous("preimage of an open set is not open")
    return TopoCongruence(Partition(f), least)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient_tc(x: FiniteSpace, rho: TopoCongruence) -> FiniteSpace:
    """Weak quotient space (points = blocks); its projection is rho.part.class_id."""
    cid, m = rho.part.class_id, rho.part.num_blocks
    return FiniteSpace(m, _carried_least(_shared_plan(cid, m), rho.least))


def restrict_tc(x: FiniteSpace, rho: TopoCongruence, subset) -> TopoCongruence:
    """Congruence induced on the subspace of sorted(subset)."""
    sub = _positions(subset, x.n)
    cid = rho.part.class_id
    return TopoCongruence(Partition([cid[p] for p in sub]),
                          _carried_least(_shared_plan(_subset_image(x.n, sub), len(sub)), rho.least))


def quotient_cong_tc(x: FiniteSpace, alpha: TopoCongruence, beta: TopoCongruence) -> TopoCongruence:
    """The congruence beta/alpha on the weak quotient by alpha, for alpha <= beta."""
    part = Partition([beta.part.class_id[block[0]] for block in alpha.part.blocks])
    return TopoCongruence(part, _carried_least(_shared_plan(alpha.part.class_id, alpha.part.num_blocks), beta.least))


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def meet_tc(x: FiniteSpace, rhos: list[TopoCongruence]) -> TopoCongruence:
    """Greatest lower bound: refine the relations, generate from all opens,
    which meets the least open sets."""
    if not rhos:
        raise EmptyList("meet of no congruences")
    part = meet_partitions([r.part for r in rhos])
    least = functools.reduce(lambda u, v: tuple(map(operator.and_, u, v)), (r.least for r in rhos))
    return TopoCongruence(part, least)


def join_tc(x: FiniteSpace, rhos: list[TopoCongruence]) -> TopoCongruence:
    """Least upper bound: transitive closure of relations, intersect topologies,
    whose least open sets close the joined ones."""
    if not rhos:
        raise EmptyList("join of no congruences")
    part = join_partitions([r.part for r in rhos])
    reach = functools.reduce(lambda u, v: tuple(map(operator.or_, u, v)), (r.least for r in rhos))
    return TopoCongruence(part, _transitive(reach))


# ---------------------------------------------------------------------------
# Images along surjective continuous maps
# ---------------------------------------------------------------------------

def image_tc(x: FiniteSpace, y: FiniteSpace, f: tuple, rho: TopoCongruence) -> TopoCongruence:
    """Push rho forward: rho + ker f carried to y along the fibres, which it
    does not split."""
    require_surjective(f, y.n)
    total = join_tc(x, [rho, kernel_tc(x, y, f)])
    label = dict(zip(f, total.part.class_id))
    least = _carried_least(_least_plan(f, y.n), total.least)
    return TopoCongruence(Partition([label[v] for v in range(y.n)]), least)


def image_le_tc(x: FiniteSpace, y: FiniteSpace, f: tuple, rho: TopoCongruence,
                beta: TopoCongruence) -> bool:
    """Whether image_tc(x, y, f, rho) lies below a valid beta, decided pointwise:
    f maps rho's blocks into beta's, and beta's opens pull back into rho's.
    f is trusted to be a surjective continuous map."""
    return _refines(rho.part.class_id, [beta.part.class_id[v] for v in f]) and _within(
        rho.least, _pullback(beta.least, f)
    )


# ---------------------------------------------------------------------------
# Enumeration, random congruences, decomposition
# ---------------------------------------------------------------------------

def iter_congruences_tc(x: FiniteSpace):
    """Every congruence on x, lazily: per partition in growth order, every
    congruence topology, sorted by encoding.

    The congruence topologies of a partition are the topologies on its blocks
    that are coarser than the strong quotient's: the preorders on the blocks
    that contain its specialization preorder, whose opens are then lifted to
    unions of blocks.  Every partition's candidate vectors are counted against
    the scan bound when this is called, before any is lifted.
    """
    plans = []
    scanned = 0
    by_floor: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for part in bounded_partitions(x.n):
        # block c's floor holds block b when a point of b is below a point of c
        points, reach = [0] * part.num_blocks, [0] * part.num_blocks
        for p, (b, u) in enumerate(zip(part.class_id, x.min_opens)):
            points[b] |= 1 << p
            reach[b] |= u
        floor = tuple(_bitmask(b for b, held in enumerate(points) if held & r) for r in reach)
        if floor not in by_floor:
            by_floor[floor] = list(itertools.islice(_preorders(len(points), floor), CONGRUENCE_SCAN_BOUND + 1))
        scanned = count_scanned(scanned, len(by_floor[floor]))
        plans.append((part, points, by_floor[floor]))
    return (rho for plan in plans for rho in _congruences_of(*plan))


def _congruences_of(part: Partition, points: list[int], vectors) -> list[TopoCongruence]:
    """The congruences on one partition, from the least-open vectors on its
    blocks (points[b] is block b's points as a mask), sorted by encoding."""
    unions = [_unions(vec) for vec in vectors]
    # each union of blocks (a mask of blocks) lifted once to its points
    lift = {m: _union_of(points, m) for m in set().union(*unions)}
    found = [
        # sorted point masks are the encoding within one partition
        (tuple(sorted(map(lift.__getitem__, u))), tuple(lift[vec[b]] for b in part.class_id))
        for vec, u in zip(vectors, unions)
    ]
    found.sort()
    return [TopoCongruence(part, least) for _, least in found]


def enumerate_congruences_tc(x: FiniteSpace) -> list[TopoCongruence]:
    """Every congruence on x, in the order of `iter_congruences_tc`."""
    return list(iter_congruences_tc(x))


def random_space(rng: random.Random, n: int) -> FiniteSpace:
    """The space generated by a random number of random subsets, each point
    drawn in turn."""
    masks = [sum(1 << p for p in range(n) if rng.random() < 0.5) for _ in range(rng.randrange(n + 2))]
    return FiniteSpace(n, _least_opens(n, masks))


def random_tcong(rng: random.Random, x: FiniteSpace) -> TopoCongruence:
    """A random partition with the topology generated by a random choice of
    its saturated opens, one draw per open in the order of their sorted points."""
    part = random_partition(rng, x.n)
    sat = sorted(_unions(saturated_least(x, part)), key=lambda m: [p for p in range(x.n) if m >> p & 1])
    return TopoCongruence(part, _least_opens(x.n, [m for m in sat if rng.random() < 0.5]))


def sierpinski_candidates(x: FiniteSpace) -> list[TopoCongruence]:
    """The two-block congruences with quotient S2 or I2, partitions in growth
    order: per partition {A, B}, the topology {0, X} plus {0, A, X} when A is
    open and {0, B, X} when B is, sorted by encoding."""
    indiscrete = _indiscrete(x.n)
    out = []
    for tail in itertools.islice(itertools.product((0, 1), repeat=x.n - 1), 1, None):
        part = Partition((0,) + tail)
        found = [TopoCongruence(part, indiscrete)]
        for block in part.blocks:
            m = _bitmask(block)
            if all(not x.min_opens[p] & ~m for p in block):  # the block is open
                least = tuple(m if m >> p & 1 else full for p, full in enumerate(indiscrete))
                found.append(TopoCongruence(part, least))
        out += sorted(found, key=lambda c: c.encoding())
    return out


def sierpinski_decomposition(x: FiniteSpace) -> list[TopoCongruence]:
    """Congruences with quotients copies of the Sierpinski or two-point
    indiscrete space whose meet is the identity congruence, fewest first.

    Before each size k the C(candidates, k) combinations are counted, and
    the search is refused once the running count passes the scan bound, or
    before any candidate is built when it is sure to pass it."""
    if x.n == 1:
        raise TrivialSpace("one-point spaces admit no two-point factors")
    bound = CONGRUENCE_SCAN_BOUND
    refused = BoundExceeded(f"sierpinski search capped at {bound} combinations")
    # a candidate per two-block partition; under ceil(log2 n) factors cannot separate n points
    least = min(2 ** (x.n - 1) - 1, bound + 1)
    if sum(math.comb(least, k) for k in range(1, (x.n - 1).bit_length() + 1)) > bound:
        raise refused
    candidates = sierpinski_candidates(x)
    identity = identity_tc(x)
    # the meet is the identity only when every pair of points is split by some
    # factor's partition, so the meet is built only for such combinations
    pairs = list(itertools.combinations(range(x.n), 2))
    splits = [{pair for pair in pairs if not c.part.same(*pair)} for c in candidates]
    scanned = 0
    for size in range(1, len(candidates) + 1):
        scanned += math.comb(len(candidates), size)
        if scanned > bound:
            raise refused
        for combo in itertools.combinations(range(len(candidates)), size):
            if len(set().union(*[splits[i] for i in combo])) < len(pairs):
                continue
            factors = [candidates[i] for i in combo]
            if meet_tc(x, factors) == identity:
                return factors
    raise SearchExhausted(f"no two-point decomposition found for n={x.n}")
