"""What block independence adds to the graph congruence calculus.

A loopless congruence is a `GraphCongruence` on a loopless carrier whose
blocks are independent: related vertices never carry a congruence edge.
On independent partitions the substitution orbits and the saturation are
those of `graph_congruence`, so this module keeps only validation, strong
congruences, enumeration and Birkhoff decomposition; independence is one AND
of an edge-set with the partition's mask of same-block pairs.  The
congruences form a complete meet-semilattice only; no join is provided
because closing a union can break independence.

Functions here take valid congruences; `validate_lc` is the check for one
built outside the library.
"""

from __future__ import annotations

import random

from .errors import InvalidCongruence, SearchExhausted
from .graph_congruence import (
    GraphCongruence,
    _congruences_over,
    _orbits,
    _random_over,
    _validate,
    identity_gc,
    meet_gc,
    quotient_gc,
    saturation_gc,
)
from .structures import (
    FiniteGraph,
    NOLOOPS,
    Partition,
    bounded_partitions,
)


def _blocks_independent(g: FiniteGraph, part: Partition) -> bool:
    return not g.mask & part.inside


def strongify_lc(g: FiniteGraph, part: Partition):
    """Strong congruence for the partition, or None when a block has an edge."""
    if not _blocks_independent(g, part):
        return None
    return GraphCongruence(part, saturation_gc(g, part))


def validate_lc(g: FiniteGraph, theta: GraphCongruence) -> GraphCongruence:
    if g.policy != NOLOOPS:
        raise InvalidCongruence("loopless congruences need a loopless carrier")
    return _validate(g, theta)


# ---------------------------------------------------------------------------
# Quotients, enumeration, random congruences and Birkhoff decomposition
# ---------------------------------------------------------------------------

def quotient_lc(g: FiniteGraph, theta: GraphCongruence) -> FiniteGraph:
    # its own function, not an alias, so traced runs count loopless quotients apart
    return quotient_gc(g, theta)


def iter_quotients_lc(g: FiniteGraph):
    """Every congruence with its quotient's edge mask, lazily:
    independent-block partitions, off-diagonal orbits.  Raises BoundExceeded
    at call time, before any congruence is built."""
    return _congruences_over(g, lambda part: _blocks_independent(g, part))


def enumerate_congruences_lc(g: FiniteGraph) -> list[GraphCongruence]:
    """Every congruence, in the order of `iter_quotients_lc`."""
    return [theta for theta, _ in iter_quotients_lc(g)]


def random_lcong(rng: random.Random, g: FiniteGraph) -> GraphCongruence:
    # build a proper partition greedily over a shuffled vertex order
    order = list(range(g.n))
    rng.shuffle(order)
    blocks: list[list[int]] = []
    for v in order:
        options = [i for i, b in enumerate(blocks) if not any(g.has_edge(v, u) for u in b)]
        options.append(-1)
        pick = rng.choice(options)
        if pick == -1:
            blocks.append([v])
        else:
            blocks[pick].append(v)
    part = Partition.from_blocks(g.n, blocks)
    return _random_over(rng, g, part)


def _coloring_congruence(g: FiniteGraph, part: Partition) -> GraphCongruence:
    """Proper-coloring partition with every cross-block pair present."""
    return GraphCongruence(part, sum(_orbits(g, part)))


def birkhoff_complete_decomposition(g: FiniteGraph) -> list[GraphCongruence]:
    """Congruences with complete quotients whose meet is the identity.

    The all-singletons factor fixes the relation; greedy set cover by proper
    colorings removes each absent pair from the edge-set meet.  Merging any
    single non-adjacent pair is always a proper coloring, so the cover
    always completes.
    """
    partitions = bounded_partitions(g.n)  # refuses a large carrier before any per-pair work
    base = _coloring_congruence(g, Partition.identity(g.n))
    uncovered = g.all_pairs & ~g.mask
    chosen: list[GraphCongruence] = []
    # the pairs a coloring merges: only its off-diagonal ones are ever uncovered
    covers = [
        (part, part.inside)
        for part in partitions if part.num_blocks < g.n and _blocks_independent(g, part)
    ]
    while uncovered:
        best = None
        for part, inside in covers:
            gain = (inside & uncovered).bit_count()
            if gain == 0:
                continue
            key = (-gain, part.class_id)
            if best is None or key < best[0]:
                best = (key, part, inside)
        if best is None:
            raise SearchExhausted("no proper coloring separates a non-edge")
        _, part, inside = best
        chosen.append(_coloring_congruence(g, part))
        uncovered &= ~inside
    factors = [base] + chosen
    factors.sort(key=lambda c: c.encoding())
    met = meet_gc(g, factors)
    if met != identity_gc(g):
        raise SearchExhausted("decomposition meet is not the identity")
    return factors
