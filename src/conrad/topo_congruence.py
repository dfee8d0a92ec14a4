"""Congruence calculus on finite topological spaces.

A congruence on a space pairs an equivalence relation with a sub-topology
whose opens are unions of blocks.  The ordering puts the identity congruence
(diagonal, full topology) at the bottom and the universal congruence
(one block, indiscrete) at the top: a smaller relation together with a
larger congruence topology is smaller in the order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import (
    EmptyList,
    EmptySubset,
    InvalidCongruence,
    NotATopology,
    NotContained,
    NotContinuous,
    NotSaturated,
    NotSubTopology,
    NotSurjective,
    SearchExhausted,
    TrivialSpace,
)
from .structures import (
    FiniteSpace,
    I2,
    Partition,
    S2,
    _bitmask,
    all_partitions,
    homeo_spaces,
    is_surjective,
    join_partitions,
    meet_partitions,
    random_partition,
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
    return a.part.refines(b.part) and b.ctop <= a.ctop


def _is_topology_on(n: int, family: frozenset[frozenset[int]]) -> bool:
    full = frozenset(range(n))
    if frozenset() not in family or full not in family:
        return False
    for u in family:
        for v in family:
            if u | v not in family or u & v not in family:
                return False
    return True


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


def is_strong_tc(x: FiniteSpace, rho: TopoCongruence) -> bool:
    return rho.ctop == saturated_opens(x, rho.part)


# ---------------------------------------------------------------------------
# Maps
# ---------------------------------------------------------------------------

def is_continuous(x: FiniteSpace, y: FiniteSpace, f: tuple) -> bool:
    return all(frozenset(p for p in range(x.n) if f[p] in v) in x.opens for v in y.opens)


def kernel_tc(x: FiniteSpace, y: FiniteSpace, f: tuple) -> TopoCongruence:
    """Fibre partition plus the pulled-back topology."""
    if not is_continuous(x, y, f):
        raise NotContinuous("preimage of an open set is not open")
    part = Partition.from_map(tuple(f))
    ctop = frozenset(
        frozenset(p for p in range(x.n) if f[p] in v) for v in y.opens
    )
    return TopoCongruence(part, ctop)


def strong_kernel_tc(x: FiniteSpace, y: FiniteSpace, f: tuple) -> TopoCongruence:
    if not is_continuous(x, y, f):
        raise NotContinuous("preimage of an open set is not open")
    return strongify_tc(x, Partition.from_map(tuple(f)))


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def quotient_tc(x: FiniteSpace, rho: TopoCongruence) -> tuple[FiniteSpace, tuple]:
    """Weak quotient space (points = blocks) and the canonical projection."""
    validate_tc(x, rho)
    proj = rho.part.class_id
    opens = frozenset(frozenset(proj[p] for p in u) for u in rho.ctop)
    return FiniteSpace(rho.part.num_blocks, opens), proj


def restrict_tc(x: FiniteSpace, rho: TopoCongruence, subset) -> TopoCongruence:
    """Congruence induced on the subspace of sorted(subset)."""
    sub = sorted(set(subset))
    if not sub:
        raise EmptySubset("restriction to the empty set")
    pos = {p: i for i, p in enumerate(sub)}
    part = rho.part.restrict(sub)
    ctop = frozenset(frozenset(pos[p] for p in u if p in pos) for u in rho.ctop)
    return TopoCongruence(part, ctop)


def quotient_cong_tc(x: FiniteSpace, alpha: TopoCongruence, beta: TopoCongruence) -> TopoCongruence:
    """The congruence beta/alpha on the weak quotient by alpha."""
    if not le_tc(alpha, beta):
        raise NotContained("beta must contain alpha")
    proj = alpha.part.class_id
    part = Partition.from_map(
        tuple(beta.part.class_id[block[0]] for block in alpha.part.blocks)
    )
    ctop = frozenset(frozenset(proj[p] for p in u) for u in beta.ctop)
    return TopoCongruence(part, ctop)


# ---------------------------------------------------------------------------
# Lattice operations
# ---------------------------------------------------------------------------

def _close_topology(n: int, family) -> frozenset[frozenset[int]]:
    """Topology generated by the family (finite intersections, then unions)."""
    base = set(family)
    base.add(frozenset(range(n)))
    base.add(frozenset())
    changed = True
    while changed:
        changed = False
        for u, v in itertools.combinations(list(base), 2):
            w = u & v
            if w not in base:
                base.add(w)
                changed = True
    opens = set(base)
    changed = True
    while changed:
        changed = False
        for u, v in itertools.combinations(list(opens), 2):
            w = u | v
            if w not in opens:
                opens.add(w)
                changed = True
    return frozenset(opens)


def meet_tc(x: FiniteSpace, rhos: list[TopoCongruence]) -> TopoCongruence:
    """Greatest lower bound: refine the relations, generate from all opens."""
    if not rhos:
        raise EmptyList("meet of no congruences")
    for rho in rhos:
        validate_tc(x, rho)
    part = meet_partitions([r.part for r in rhos])
    ctop = _close_topology(x.n, frozenset().union(*(r.ctop for r in rhos)))
    return TopoCongruence(part, ctop)


def join_tc(x: FiniteSpace, rhos: list[TopoCongruence]) -> TopoCongruence:
    """Least upper bound: transitive closure of relations, intersect topologies."""
    if not rhos:
        raise EmptyList("join of no congruences")
    for rho in rhos:
        validate_tc(x, rho)
    part = join_partitions([r.part for r in rhos])
    ctop = frozenset.intersection(*(r.ctop for r in rhos))
    return TopoCongruence(part, ctop)


# ---------------------------------------------------------------------------
# Images along surjective continuous maps
# ---------------------------------------------------------------------------

def image_tc(x: FiniteSpace, y: FiniteSpace, f: tuple, rho: TopoCongruence) -> TopoCongruence:
    """Push rho forward: (rho + ker f)/ker f carried to y along the fibres."""
    if not is_surjective(f, y.n):
        raise NotSurjective("image congruence needs a surjective map")
    alpha = kernel_tc(x, y, f)
    total = join_tc(x, [rho, alpha])
    qc = quotient_cong_tc(x, alpha, total)
    # carry from x/ker f to y: block b of ker f corresponds to point f(rep(b))
    to_y = [f[block[0]] for block in alpha.part.blocks]
    raw = [0] * y.n
    for b, cls in enumerate(qc.part.class_id):
        raw[to_y[b]] = cls
    part = Partition.from_map(tuple(raw))
    ctop = frozenset(frozenset(to_y[b] for b in w) for w in qc.ctop)
    return TopoCongruence(part, ctop)


def image_tc_direct(x: FiniteSpace, y: FiniteSpace, f: tuple, rho: TopoCongruence) -> TopoCongruence:
    """Image by its pointwise description; kept as an independent oracle."""
    if not is_surjective(f, y.n):
        raise NotSurjective("image congruence needs a surjective map")
    if not is_continuous(x, y, f):
        raise NotContinuous("image congruence needs a continuous map")
    # relation: transitive closure on y of the projected blocks of rho
    parts = [Partition.identity(y.n)]
    for block in rho.part.blocks:
        hit = sorted({f[p] for p in block})
        raw = list(range(y.n))
        for q in hit[1:]:
            raw[q] = hit[0]
        parts.append(Partition.from_map(tuple(raw)))
    part = join_partitions(parts)
    ctop = frozenset(
        v for v in y.opens
        if frozenset(p for p in range(x.n) if f[p] in v) in rho.ctop
    )
    return TopoCongruence(part, ctop)


# ---------------------------------------------------------------------------
# Enumeration, random congruences, decomposition
# ---------------------------------------------------------------------------

def enumerate_congruences_tc(x: FiniteSpace) -> list[TopoCongruence]:
    """Every congruence on x: per partition, every sub-topology of saturated opens."""
    out = []
    full = x.full
    empty = frozenset()
    for part in all_partitions(x.n):
        sat = sorted(saturated_opens(x, part) - {empty, full}, key=_bitmask)
        found = []
        for k in range(2 ** len(sat)):
            fam = {empty, full}
            fam.update(sat[i] for i in range(len(sat)) if k >> i & 1)
            if _is_topology_on(x.n, frozenset(fam)):
                found.append(TopoCongruence(part, frozenset(fam)))
        found.sort(key=lambda c: c.encoding())
        out.extend(found)
    return out


def random_space(rng: random.Random, n: int) -> FiniteSpace:
    fam = {frozenset(p for p in range(n) if rng.random() < 0.5)
           for _ in range(rng.randrange(n + 2))}
    return FiniteSpace(n, _close_topology(n, fam))


def random_tcong(rng: random.Random, x: FiniteSpace) -> TopoCongruence:
    part = random_partition(rng, x.n)
    sat = sorted(saturated_opens(x, part), key=lambda u: sorted(u))
    return TopoCongruence(part, _close_topology(x.n, [u for u in sat if rng.random() < 0.5]))


def sierpinski_decomposition(x: FiniteSpace) -> list[TopoCongruence]:
    """Congruences with quotients copies of the Sierpinski or two-point
    indiscrete space whose meet is the identity congruence."""
    if x.n == 1:
        raise TrivialSpace("one-point spaces admit no two-point factors")
    candidates = []
    for cong in enumerate_congruences_tc(x):
        if cong.part.num_blocks != 2:
            continue
        q, _ = quotient_tc(x, cong)
        if homeo_spaces(q, S2) is not None or homeo_spaces(q, I2) is not None:
            candidates.append(cong)
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            if meet_tc(x, list(combo)) == identity_tc(x):
                return list(combo)
    raise SearchExhausted(f"no two-point decomposition found for n={x.n}")
