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

import itertools
import math
import random
from dataclasses import dataclass

from .errors import (
    BoundExceeded,
    EmptyList,
    InvalidCongruence,
    NotATopology,
    NotContained,
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
    _is_topology_on,
    _least_opens,
    _members,
    _positions,
    _preorders,
    _refines,
    _unions,
    bounded_partitions,
    count_scanned,
    join_partitions,
    meet_partitions,
    random_partition,
    require_surjective,
)


@dataclass(frozen=True)
class TopoCongruence:
    part: Partition
    ctop: frozenset[frozenset[int]]

    def encoding(self) -> tuple:
        return (self.part.class_id, tuple(sorted(_bitmask(u) for u in self.ctop)))


def identity_tc(x: FiniteSpace) -> TopoCongruence:
    return TopoCongruence(Partition.identity(x.n), x.opens)


def universal_tc(x: FiniteSpace) -> TopoCongruence:
    return TopoCongruence(Partition.universal(x.n), frozenset({frozenset(), x.full}))


def le_tc(a: TopoCongruence, b: TopoCongruence) -> bool:
    """Congruence ordering: relation grows, topology shrinks."""
    return b.ctop <= a.ctop and _refines(a.part.class_id, b.part.class_id)


def _saturated(part: Partition, u: frozenset[int]) -> bool:
    return all(part.class_id[a] != part.class_id[b] or b in u
               for a in u for b in range(part.n))


def saturated_opens(x: FiniteSpace, part: Partition) -> frozenset[frozenset[int]]:
    """All opens of x that are unions of blocks of the partition."""
    return frozenset(u for u in x.opens if _saturated(part, u))


def validate_tc(x: FiniteSpace, rho: TopoCongruence) -> TopoCongruence:
    """Check the three congruence conditions against the carrier space."""
    if rho.part.n != x.n:
        raise InvalidCongruence(f"partition on {rho.part.n} points, space has {x.n}")
    if not _is_topology_on(x.n, rho.ctop):
        raise NotATopology("congruence topology is not a topology")
    if not rho.ctop <= x.opens:
        extra = next(iter(rho.ctop - x.opens))
        raise NotSubTopology(f"{sorted(extra)} is not open in the carrier")
    for u in rho.ctop:
        if not _saturated(rho.part, u):
            raise NotSaturated(f"open {sorted(u)} is not a union of blocks")
    return rho


def strongify_tc(x: FiniteSpace, part: Partition) -> TopoCongruence:
    """The strong congruence for a partition: all saturated opens."""
    return TopoCongruence(part, saturated_opens(x, part))


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

def is_continuous(x: FiniteSpace, y: FiniteSpace, f: tuple) -> bool:
    return all(frozenset(p for p in range(x.n) if f[p] in v) in x.opens for v in y.opens)


def _require_continuous(x: FiniteSpace, y: FiniteSpace, f: tuple) -> None:
    if not is_continuous(x, y, f):
        raise NotContinuous("preimage of an open set is not open")


def kernel_tc(x: FiniteSpace, y: FiniteSpace, f: tuple) -> TopoCongruence:
    """Fibre partition plus the pulled-back topology, which must lie in x's."""
    ctop = frozenset(
        frozenset(p for p in range(x.n) if f[p] in v) for v in y.opens
    )
    if not ctop <= x.opens:
        raise NotContinuous("preimage of an open set is not open")
    return TopoCongruence(Partition(f), ctop)


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient_tc(x: FiniteSpace, rho: TopoCongruence) -> tuple[FiniteSpace, tuple]:
    """Weak quotient space (points = blocks) and the canonical projection."""
    proj = rho.part.class_id
    k = rho.part.num_blocks
    return FiniteSpace(k, _least_opens(k, [_bitmask(proj[p] for p in u) for u in rho.ctop])), proj


def restrict_tc(x: FiniteSpace, rho: TopoCongruence, subset) -> TopoCongruence:
    """Congruence induced on the subspace of sorted(subset)."""
    sub, pos = _positions(subset, x.n)
    part = rho.part.restrict(sub)
    ctop = frozenset(frozenset(pos[p] for p in u if p in pos) for u in rho.ctop)
    return TopoCongruence(part, ctop)


def quotient_cong_tc(x: FiniteSpace, alpha: TopoCongruence, beta: TopoCongruence) -> TopoCongruence:
    """The congruence beta/alpha on the weak quotient by alpha."""
    if not le_tc(alpha, beta):
        raise NotContained("beta must contain alpha")
    proj = alpha.part.class_id
    part = Partition([beta.part.class_id[block[0]] for block in alpha.part.blocks])
    ctop = frozenset(frozenset(proj[p] for p in u) for u in beta.ctop)
    return TopoCongruence(part, ctop)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def _close_topology(n: int, family) -> frozenset[frozenset[int]]:
    """Topology generated by the family: the unions of its least members."""
    return frozenset(map(_members, _unions(_least_opens(n, map(_bitmask, family)))))


def meet_tc(x: FiniteSpace, rhos: list[TopoCongruence]) -> TopoCongruence:
    """Greatest lower bound: refine the relations, generate from all opens."""
    if not rhos:
        raise EmptyList("meet of no congruences")
    part = meet_partitions([r.part for r in rhos])
    ctop = _close_topology(x.n, frozenset().union(*(r.ctop for r in rhos)))
    return TopoCongruence(part, ctop)


def join_tc(x: FiniteSpace, rhos: list[TopoCongruence]) -> TopoCongruence:
    """Least upper bound: transitive closure of relations, intersect topologies."""
    if not rhos:
        raise EmptyList("join of no congruences")
    part = join_partitions([r.part for r in rhos])
    ctop = frozenset.intersection(*(r.ctop for r in rhos))
    return TopoCongruence(part, ctop)


# ---------------------------------------------------------------------------
# Images along surjective continuous maps
# ---------------------------------------------------------------------------

def image_tc(x: FiniteSpace, y: FiniteSpace, f: tuple, rho: TopoCongruence) -> TopoCongruence:
    """Push rho forward: (rho + ker f)/ker f carried to y along the fibres."""
    require_surjective(f, y.n)
    alpha = kernel_tc(x, y, f)
    total = join_tc(x, [rho, alpha])
    qc = quotient_cong_tc(x, alpha, total)
    # carry from x/ker f to y: block b of ker f corresponds to point f(rep(b))
    to_y = [f[block[0]] for block in alpha.part.blocks]
    raw = [0] * y.n
    for b, cls in enumerate(qc.part.class_id):
        raw[to_y[b]] = cls
    part = Partition(raw)
    ctop = frozenset(frozenset(to_y[b] for b in w) for w in qc.ctop)
    return TopoCongruence(part, ctop)


def image_le_tc(x: FiniteSpace, y: FiniteSpace, f: tuple, rho: TopoCongruence,
                beta: TopoCongruence, checked: bool = True) -> bool:
    """Whether image_tc(x, y, f, rho) lies below a valid beta, decided pointwise:
    f maps rho's blocks into beta's, and beta's opens pull back into rho's.
    checked=False trusts f to be a surjective continuous map."""
    if checked:
        require_surjective(f, y.n)
        _require_continuous(x, y, f)
    return _refines(rho.part.class_id, [beta.part.class_id[v] for v in f]) and all(
        frozenset(p for p in range(x.n) if f[p] in v) in rho.ctop for v in beta.ctop
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
    lift = {m: sum(held for b, held in enumerate(points) if m >> b & 1) for m in set().union(*unions)}
    opens = {mask: _members(mask) for mask in lift.values()}
    # sorted point masks are the encoding within one partition
    return [
        TopoCongruence(part, frozenset(map(opens.__getitem__, masks)))
        for masks in sorted(tuple(sorted(map(lift.__getitem__, u))) for u in unions)
    ]


def enumerate_congruences_tc(x: FiniteSpace) -> list[TopoCongruence]:
    """Every congruence on x, in the order of `iter_congruences_tc`."""
    return list(iter_congruences_tc(x))


def random_space(rng: random.Random, n: int) -> FiniteSpace:
    fam = {frozenset(p for p in range(n) if rng.random() < 0.5)
           for _ in range(rng.randrange(n + 2))}
    return FiniteSpace(n, _least_opens(n, map(_bitmask, fam)))


def random_tcong(rng: random.Random, x: FiniteSpace) -> TopoCongruence:
    part = random_partition(rng, x.n)
    sat = sorted(saturated_opens(x, part), key=lambda u: sorted(u))
    return TopoCongruence(part, _close_topology(x.n, [u for u in sat if rng.random() < 0.5]))


def sierpinski_candidates(x: FiniteSpace) -> list[TopoCongruence]:
    """The two-block congruences with quotient S2 or I2, partitions in growth
    order: per partition {A, B}, the topology {0, X} plus {0, A, X} when A is
    open and {0, B, X} when B is, sorted by encoding."""
    full = x.full
    out = []
    for tail in itertools.islice(itertools.product((0, 1), repeat=x.n - 1), 1, None):
        part = Partition((0,) + tail)
        found = [TopoCongruence(part, frozenset({frozenset(), full}))]
        found += [TopoCongruence(part, frozenset({frozenset(), frozenset(b), full}))
                  for b in part.blocks if frozenset(b) in x.opens]
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
