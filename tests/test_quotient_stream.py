"""Each congruence streamed with its quotient's least-open vector or edge
mask: the stream's length on edgeless graphs against the count by Stirling
numbers, and every streamed quotient against `ops.quotient`, which carries
the congruence down its class map."""

import pytest

from conrad.radical_engine import KIND_OPS, _quotient_of, build_universe
from conrad.structures import LOOPS, NOLOOPS, edgeless_graph
from conrad.verification import _quotient_side


def _stirling(n, k):
    """S(n, k): the partitions of n points into k blocks."""
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


@pytest.mark.parametrize("policy, kind, counts", [
    # every partition, and every set of block pairs (a block with itself too)
    (LOOPS, "graph", (2, 10, 90, 1466, 44730)),
    # every partition is independent, and every set of pairs of two blocks
    (NOLOOPS, "loopless", (1, 3, 15, 127, 1895)),
])
def test_the_stream_of_an_edgeless_graph_has_every_union_of_orbits(policy, kind, counts):
    diagonal = policy == LOOPS
    for n, count in enumerate(counts, start=1):
        assert sum(_stirling(n, k) * 2 ** (k * (k - 1) // 2 + diagonal * k) for k in range(1, n + 1)) == count
        assert sum(1 for _ in KIND_OPS[kind].iter_quotients(edgeless_graph(n, policy))) == count


@pytest.mark.parametrize("kind, max_n, streamed", [
    # 20,956 congruences, those the listing test formats
    ("topo", 4, 2681),
    ("graph", 4, 12177),
    ("loopless", 5, 6098),
])
def test_each_streamed_quotient_is_the_carried_quotient(kind, max_n, streamed):
    ops = KIND_OPS[kind]
    seen = 0
    for x in build_universe(kind, max_n):
        pairs = list(ops.iter_quotients(x))
        assert [theta for theta, _ in pairs] == ops.enum_congruences(x), x
        for theta, vector in pairs:
            assert _quotient_of(x, theta, vector) == ops.quotient(x, theta), (x, theta)
            # the theorem sweep's quotient side, against the one it carried
            assert (theta.part.num_blocks, vector) == _quotient_side(ops, theta), (x, theta)
            seen += 1
    assert seen == streamed
