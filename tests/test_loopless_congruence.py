"""Loopless congruences: independence, meet-semilattice, Birkhoff factors."""

import itertools

import pytest

from conrad.errors import (
    EdgeSetOutOfRange,
    EmptyList,
    IndependenceViolated,
    InvalidCongruence,
    NotHomomorphism,
    SubstitutionViolated,
)
from conrad.graph_congruence import (
    GraphCongruence as LooplessCongruence,
    identity_gc as identity_lc,
    image_le_gc,
    kernel_gc as kernel_lc,
    le_gc as le_lc,
    meet_gc as meet_lc,
    quotient_cong_gc as quotient_cong_lc,
    restrict_gc as restrict_lc,
)
from conrad.loopless_congruence import (
    birkhoff_complete_decomposition,
    enumerate_congruences_lc,
    quotient_lc,
    strongify_lc,
    validate_lc,
)
from conrad.radical_engine import (
    is_subdirectly_irreducible as is_subdirectly_irreducible_lc,
)
from conrad.structures import (
    LOOPS,
    NOLOOPS,
    Partition,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    enumerate_graphs,
    iso_graphs,
    path_graph,
)

LOOPLESS_3 = [g for n in (1, 2, 3) for g in enumerate_graphs(n, NOLOOPS)]
LOOPLESS_5 = [g for n in range(1, 6) for g in enumerate_graphs(n, NOLOOPS)]
P3 = path_graph(3)
K2 = complete_graph(2)
E2 = edgeless_graph(2)


def test_validate_examples():
    assert validate_lc(E2, LooplessCongruence.from_pairs(Partition.universal(2), frozenset()))
    with pytest.raises((IndependenceViolated, EdgeSetOutOfRange)):
        validate_lc(K2, LooplessCongruence.from_pairs(Partition.universal(2), frozenset({(0, 1)})))
    theta = LooplessCongruence.from_pairs(
        Partition.from_blocks(3, [[0, 2], [1]]), frozenset({(0, 1), (1, 2)})
    )
    assert validate_lc(P3, theta)
    with pytest.raises(SubstitutionViolated):
        validate_lc(
            edgeless_graph(3),
            LooplessCongruence.from_pairs(Partition.from_blocks(3, [[0, 2], [1]]),
                               frozenset({(0, 1)})),
        )


@pytest.mark.parametrize("carrier, theta, error, message", [
    (edgeless_graph(2, LOOPS), LooplessCongruence.from_pairs(Partition.identity(2), frozenset()),
     InvalidCongruence, "loopless congruences need a loopless carrier"),
    (K2, LooplessCongruence.from_pairs(Partition.identity(3), frozenset({(0, 1)})),
     InvalidCongruence, "partition on 3 vertices, graph has 2"),
    # K2's edge is missing from the edge-set
    (K2, LooplessCongruence.from_pairs(Partition.identity(2), frozenset()),
     EdgeSetOutOfRange, "congruence edge-set must sit between E and K"),
], ids=["policy", "size", "range"])
def test_validate_refusals(carrier, theta, error, message):
    with pytest.raises(InvalidCongruence) as err:
        validate_lc(carrier, theta)
    assert err.type is error and str(err.value) == message


def test_strongify_examples():
    s = strongify_lc(P3, Partition.from_blocks(3, [[0, 2], [1]]))
    assert s == LooplessCongruence.from_pairs(
        Partition.from_blocks(3, [[0, 2], [1]]), frozenset({(0, 1), (1, 2)})
    )
    q = quotient_lc(P3, s)
    assert q == K2
    assert strongify_lc(K2, Partition.universal(2)) is None
    for g in LOOPLESS_3:
        assert strongify_lc(g, Partition.identity(g.n)) == identity_lc(g)


def test_complete_graphs_have_one_congruence():
    for n in range(1, 6):
        assert enumerate_congruences_lc(complete_graph(n)) == [identity_lc(complete_graph(n))]


def test_kernel_examples():
    c4 = cycle_graph(4)
    k = kernel_lc(c4, K2, (0, 1, 0, 1))
    q = quotient_lc(c4, k)
    assert q == K2
    with pytest.raises(NotHomomorphism):
        kernel_lc(K2, E2, (0, 1))
    with pytest.raises(NotHomomorphism):
        kernel_lc(K2, complete_graph(1), (0, 0))


def test_quotient_identity():
    for g in LOOPLESS_3:
        q = quotient_lc(g, identity_lc(g))
        assert iso_graphs(q, g) is not None


def test_meet_examples():
    theta = LooplessCongruence.from_pairs(
        Partition.from_blocks(3, [[0, 2], [1]]), frozenset({(0, 1), (1, 2)})
    )
    assert meet_lc(P3, [theta, theta]) == theta
    assert meet_lc(P3, [theta, identity_lc(P3)]) == identity_lc(P3)
    with pytest.raises(EmptyList):
        meet_lc(P3, [])


def test_meet_is_glb():
    for g in LOOPLESS_3:
        cons = enumerate_congruences_lc(g)
        for a, b in itertools.combinations(cons, 2):
            m = meet_lc(g, [a, b])
            assert le_lc(m, a) and le_lc(m, b)
            for c in cons:
                if le_lc(c, a) and le_lc(c, b):
                    assert le_lc(c, m)


def test_pointwise_image_comparison():
    # the raw pair image of the identity congruence sits below any target
    f = (0, 1, 0)
    target = identity_lc(K2)
    assert image_le_gc(P3, K2, f, identity_lc(P3), target)


def test_si_iff_complete_with_oracle():
    for g in LOOPLESS_5:
        assert is_subdirectly_irreducible_lc(g) == g.is_complete()


def test_birkhoff_examples():
    factors = birkhoff_complete_decomposition(P3)
    assert factors == [
        LooplessCongruence.from_pairs(Partition.from_blocks(3, [[0, 2], [1]]),
                           frozenset({(0, 1), (1, 2)})),
        LooplessCongruence.from_pairs(Partition.identity(3), complete_graph(3).edges),
    ]
    assert meet_lc(P3, factors) == identity_lc(P3)
    factors = birkhoff_complete_decomposition(E2)
    assert factors == [
        LooplessCongruence.from_pairs(Partition.universal(2), frozenset()),
        LooplessCongruence.from_pairs(Partition.identity(2), frozenset({(0, 1)})),
    ]
    for n in range(1, 6):
        k = complete_graph(n)
        assert birkhoff_complete_decomposition(k) == [identity_lc(k)]


def test_birkhoff_all_loopless_up_to_5():
    from conrad.loopless_congruence import (
        birkhoff_complete_decomposition as decompose,
    )

    for g in LOOPLESS_5:
        factors = decompose(g)
        assert meet_lc(g, factors) == identity_lc(g)
        for c in factors:
            q = quotient_lc(g, c)
            assert q.is_complete()


def test_birkhoff_embedding_injective_edge_faithful():
    # edge in the product image iff every factor joins the endpoint blocks
    for g in LOOPLESS_5:
        factors = birkhoff_complete_decomposition(g)
        quotients = [quotient_lc(g, c) for c in factors]
        rows = [tuple(c.part.class_id[v] for c in factors) for v in range(g.n)]
        assert len(set(rows)) == g.n
        for a in range(g.n):
            for b in range(a + 1, g.n):
                image_edge = all(
                    rows[a][i] != rows[b][i]
                    and (min(rows[a][i], rows[b][i]), max(rows[a][i], rows[b][i]))
                    in quotients[i].edges
                    for i in range(len(factors))
                )
                assert image_edge == ((a, b) in g.edges)


def test_birkhoff_surjective_projections():
    for g in LOOPLESS_5:
        for c in birkhoff_complete_decomposition(g):
            assert set(c.part.class_id) == set(range(c.part.num_blocks))


def test_check_subdirect_lc():
    from conrad.radical_engine import check_subdirect as check_subdirect_lc

    factors = birkhoff_complete_decomposition(P3)
    result = check_subdirect_lc(P3, factors)
    assert result.ok
    assert all(f.is_complete() for f in result.factors)
    assert len(set(result.embedding)) == P3.n
    assert check_subdirect_lc(P3, [identity_lc(P3)]).ok
    merged = strongify_lc(P3, Partition.from_blocks(3, [[0, 2], [1]]))
    assert not check_subdirect_lc(P3, [merged]).ok
    with pytest.raises(EmptyList):
        check_subdirect_lc(P3, [])


def test_restrict_and_quotient_cong_parallel():
    for g in LOOPLESS_3:
        cons = enumerate_congruences_lc(g)
        full = list(range(g.n))
        for theta in cons:
            assert restrict_lc(g, theta, full) == theta
            stage = quotient_lc(g, theta)
            assert quotient_cong_lc(g, theta, theta) == identity_lc(stage)
