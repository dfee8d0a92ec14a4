"""What block independence adds to the graph congruence calculus.

A loopless congruence is a `GraphCongruence` on a loopless carrier whose
blocks are independent: related vertices never carry a congruence edge.
On independent partitions the substitution orbits and the saturation are
those of `graph_congruence`, so this module keeps only validation, strong
congruences, enumeration and the pointwise image comparison.  The
congruences form a complete meet-semilattice only; no join is provided
because closing a union can break independence.
"""

from __future__ import annotations

import random

from .errors import (
    EdgeSetOutOfRange,
    IndependenceViolated,
    InvalidCongruence,
    NotHomomorphism,
    SearchExhausted,
    SubstitutionViolated,
)
from .graph_congruence import (
    GraphCongruence,
    _congruences_over,
    _orbits,
    _quotient_graph,
    _random_over,
    block_orbit,
    identity_gc,
    is_homomorphism,
    is_strong_gc,
    meet_gc,
    saturation_gc,
)
from .structures import (
    FiniteGraph,
    NOLOOPS,
    Partition,
    _norm_pair,
    all_partitions,
)


def _blocks_independent(g: FiniteGraph, part: Partition) -> bool:
    return all(not part.same(a, b) for a, b in g.edges)


def strongify_lc(g: FiniteGraph, part: Partition):
    """Strong congruence for the partition, or None when a block has an edge."""
    if not _blocks_independent(g, part):
        return None
    return GraphCongruence(part, saturation_gc(g, part))


def is_strong_lc(g: FiniteGraph, theta: GraphCongruence) -> bool:
    return _blocks_independent(g, theta.part) and is_strong_gc(g, theta)


def validate_lc(g: FiniteGraph, theta: GraphCongruence) -> GraphCongruence:
    if g.policy != NOLOOPS:
        raise InvalidCongruence("loopless congruences need a loopless carrier")
    if theta.part.n != g.n:
        raise InvalidCongruence(f"partition on {theta.part.n} vertices, graph has {g.n}")
    if not (g.edges <= theta.cedges <= g.all_pairs):
        raise EdgeSetOutOfRange("congruence edge-set must sit between E and K")
    for a, b in theta.cedges:
        if theta.part.same(a, b):
            raise IndependenceViolated(f"{a}-{b} joins related vertices")
    for a, b in theta.cedges:
        if not block_orbit(theta.part, a, b) <= theta.cedges:
            raise SubstitutionViolated(f"orbit of {a}-{b} escapes the edge-set")
    return theta


# ---------------------------------------------------------------------------
# Maps, quotients
# ---------------------------------------------------------------------------

def strong_kernel_lc(g: FiniteGraph, h: FiniteGraph, f: tuple) -> GraphCongruence:
    if not is_homomorphism(g, h, f):
        raise NotHomomorphism("strong kernel needs an edge-preserving map")
    strong = strongify_lc(g, Partition.from_map(tuple(f)))
    if strong is None:
        raise InvalidCongruence("fibres of the map are not independent")
    return strong


def pointwise_image_lc(f: tuple, theta: GraphCongruence):
    """The raw pair (f(~), f(E)); need not be a congruence on the codomain."""
    rel = frozenset(
        _norm_pair(f[a], f[b])
        for block in theta.part.blocks
        for a in block
        for b in block
    )
    pairs = frozenset(_norm_pair(f[a], f[b]) for a, b in theta.cedges)
    return rel, pairs


def pointwise_le_lc(image, beta: GraphCongruence) -> bool:
    rel, pairs = image
    return all(beta.part.same(a, b) for a, b in rel) and pairs <= beta.cedges


def quotient_lc(g: FiniteGraph, theta: GraphCongruence) -> tuple[FiniteGraph, tuple]:
    validate_lc(g, theta)
    return _quotient_graph(g, theta)


# ---------------------------------------------------------------------------
# Enumeration, random congruences and Birkhoff decomposition
# ---------------------------------------------------------------------------

def enumerate_congruences_lc(g: FiniteGraph) -> list[GraphCongruence]:
    """Every congruence: independent-block partitions, off-diagonal orbits."""
    parts = (p for p in all_partitions(g.n) if _blocks_independent(g, p))
    return _congruences_over(g, parts, include_diagonal=False)


def random_lcong(rng: random.Random, g: FiniteGraph) -> GraphCongruence:
    # build a proper partition greedily over a shuffled vertex order
    order = list(range(g.n))
    rng.shuffle(order)
    blocks: list[list[int]] = []
    for v in order:
        options = [
            i for i, b in enumerate(blocks)
            if all(_norm_pair(v, u) not in g.edges for u in b)
        ]
        options.append(-1)
        pick = rng.choice(options)
        if pick == -1:
            blocks.append([v])
        else:
            blocks[pick].append(v)
    part = Partition.from_blocks(g.n, blocks)
    return _random_over(rng, g, part, include_diagonal=False)


def _coloring_congruence(g: FiniteGraph, part: Partition) -> GraphCongruence:
    """Proper-coloring partition with every cross-block pair present."""
    return GraphCongruence(part, frozenset().union(*_orbits(part, include_diagonal=False)))


def birkhoff_complete_decomposition(g: FiniteGraph) -> list[GraphCongruence]:
    """Congruences with complete quotients whose meet is the identity.

    The all-singletons factor fixes the relation; greedy set cover by proper
    colorings removes each absent pair from the edge-set meet.  Merging any
    single non-adjacent pair is always a proper coloring, so the cover
    always completes.
    """
    base = _coloring_congruence(g, Partition.identity(g.n))
    uncovered = set(g.all_pairs - g.edges)
    chosen: list[GraphCongruence] = []
    colorings = [
        part for part in all_partitions(g.n)
        if part.num_blocks < g.n and _blocks_independent(g, part)
    ]
    covers = []
    for part in colorings:
        inside = {
            _norm_pair(a, b)
            for block in part.blocks
            for a in block
            for b in block
            if a < b
        }
        covers.append((part, inside))
    while uncovered:
        best = None
        for part, inside in covers:
            gain = len(inside & uncovered)
            if gain == 0:
                continue
            key = (-gain, part.class_id)
            if best is None or key < best[0]:
                best = (key, part, inside)
        if best is None:
            raise SearchExhausted("no proper coloring separates a non-edge")
        _, part, inside = best
        chosen.append(_coloring_congruence(g, part))
        uncovered -= inside
    factors = [base] + chosen
    factors.sort(key=lambda c: c.encoding())
    met = meet_gc(g, factors)
    if met != identity_gc(g):
        raise SearchExhausted("decomposition meet is not the identity")
    return factors
