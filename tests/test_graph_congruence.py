"""Loop-admitting graph congruences: calculus, lattice, subdirect structure."""

import itertools
import random

import pytest

from conrad.errors import (
    EdgeSetOutOfRange,
    EmptyList,
    InvalidCongruence,
    NotContained,
    NotHomomorphism,
    NotSurjective,
    PolicyMismatch,
    SubstitutionViolated,
)
from conrad.graph_congruence import (
    GraphCongruence,
    enumerate_congruences_gc,
    identity_gc,
    image_gc,
    join_gc,
    kernel_gc,
    le_gc,
    meet_gc,
    quotient_cong_gc,
    quotient_gc,
    random_gcong,
    restrict_gc,
    strongify_gc,
    universal_gc,
    validate_gc,
    validate_pairs_gc,
)
from conrad.loopless_congruence import enumerate_congruences_lc
from conrad.radical_engine import (
    check_subdirect as check_subdirect_gc,
    is_subdirectly_irreducible as is_subdirectly_irreducible_gc,
)
from conrad.structures import (
    A3,
    B1,
    B2,
    B3,
    B4,
    B5,
    B6,
    LOOPS,
    NOLOOPS,
    Partition,
    T,
    T0,
    edgeless_graph,
    enumerate_graphs,
    graph,
    induced,
    iso_graphs,
    path_graph,
)
from conrad.verification import check_third_iso

import oracles
from oracles import image_gc_direct, is_strong_gc, product_graph, strong_kernel_gc

GRAPHS_3 = [g for n in (1, 2, 3) for g in enumerate_graphs(n, LOOPS)]


def id2():
    return Partition.identity(2)


def univ2():
    return Partition.universal(2)


# ---------------------------------------------------------------------------
# Validation, strongness
# ---------------------------------------------------------------------------

def test_validate_examples():
    assert validate_gc(B1, GraphCongruence.from_pairs(univ2(), []))
    with pytest.raises(SubstitutionViolated):
        validate_gc(B1, GraphCongruence.from_pairs(univ2(), {(0, 1)}))
    assert validate_gc(B6, identity_gc(B6))
    with pytest.raises(EdgeSetOutOfRange):
        validate_gc(B4, GraphCongruence.from_pairs(id2(), {(0, 0)}))
    # a mask past the three slots of two vertices, or a negative one
    for cmask in (B4.mask | 1 << 3, -1):
        with pytest.raises(EdgeSetOutOfRange):
            validate_gc(B4, GraphCongruence(id2(), cmask))
    with pytest.raises(InvalidCongruence) as err:
        validate_pairs_gc(B2, Partition.identity(3), [])
    assert err.type is InvalidCongruence and str(err.value) == "partition on 3 vertices, graph has 2"


@pytest.mark.parametrize("carrier, theta, message", [
    (edgeless_graph(2), GraphCongruence.from_pairs(Partition.identity(2), []),
     "loop-graph congruences need a loops-allowed carrier"),
    (B1, GraphCongruence.from_pairs(Partition.identity(3), []),
     "partition on 3 vertices, graph has 2"),
], ids=["policy", "size"])
def test_validate_refuses_a_foreign_carrier(carrier, theta, message):
    with pytest.raises(InvalidCongruence) as err:
        validate_gc(carrier, theta)
    assert err.type is InvalidCongruence and str(err.value) == message


def test_strongify_examples():
    assert strongify_gc(B4, univ2()) == GraphCongruence(univ2(), B4.all_pairs)
    assert strongify_gc(B1, univ2()) == GraphCongruence.from_pairs(univ2(), [])
    assert not is_strong_gc(B1, GraphCongruence.from_pairs(id2(), {(0, 1)}))
    for g in GRAPHS_3:
        assert strongify_gc(g, Partition.identity(g.n)) == identity_gc(g)


def test_universal_is_strong_iff_edges():
    assert not is_strong_gc(B1, universal_gc(B1))
    assert is_strong_gc(B4, universal_gc(B4))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_kernel_examples():
    assert kernel_gc(B1, T0, (0, 0)) == universal_gc(B1)
    with pytest.raises(NotHomomorphism):
        kernel_gc(B2, T, (0, 0))
    k = kernel_gc(A3, B6, (0, 1, 0))
    assert k.part == Partition.from_blocks(3, [[0, 2], [1]])
    assert k.cmask == A3.all_pairs


def test_strong_kernel_below_kernel():
    for g in GRAPHS_3:
        for theta in enumerate_congruences_gc(g):
            q, proj = quotient_gc(g, theta), theta.part.class_id
            assert le_gc(strong_kernel_gc(g, q, proj), kernel_gc(g, q, proj))
            assert kernel_gc(g, q, proj) == theta


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def test_quotient_examples():
    q = quotient_gc(B1, GraphCongruence.from_pairs(univ2(), []))
    assert q == T
    q = quotient_gc(B4, strongify_gc(B4, univ2()))
    assert q == T0
    for g in GRAPHS_3:
        q = quotient_gc(g, identity_gc(g))
        assert iso_graphs(q, g) is not None
        q = quotient_gc(g, universal_gc(g))
        assert q == T0


def test_congruence_count_b1():
    assert len(enumerate_congruences_gc(B1)) == 10


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------

def test_meet_join_examples():
    e3 = edgeless_graph(3, LOOPS)
    j = join_gc(e3, [
        strongify_gc(e3, Partition.from_blocks(3, [[0, 1], [2]])),
        strongify_gc(e3, Partition.from_blocks(3, [[0], [1, 2]])),
    ])
    assert j == GraphCongruence.from_pairs(Partition.universal(3), [])
    m = meet_gc(B1, [
        GraphCongruence.from_pairs(id2(), {(0, 0), (0, 1)}),
        GraphCongruence.from_pairs(id2(), {(0, 0), (1, 1)}),
    ])
    assert m == GraphCongruence.from_pairs(id2(), {(0, 0)})
    theta = GraphCongruence(id2(), B1.all_pairs)
    assert meet_gc(B1, [theta, universal_gc(B1)]) == theta
    assert join_gc(B1, [theta, identity_gc(B1)]) == theta
    with pytest.raises(EmptyList):
        meet_gc(B1, [])
    with pytest.raises(EmptyList):
        join_gc(B1, [])


def test_bounded_lattice_laws():
    for g in GRAPHS_3:
        cons = enumerate_congruences_gc(g)
        bot, top = identity_gc(g), universal_gc(g)
        for theta in cons:
            assert le_gc(bot, theta) and le_gc(theta, top)
        for a, b in itertools.combinations(cons, 2):
            m, j = meet_gc(g, [a, b]), join_gc(g, [a, b])
            assert le_gc(m, a) and le_gc(m, b)
            assert le_gc(a, j) and le_gc(b, j)
            for c in cons:
                if le_gc(c, a) and le_gc(c, b):
                    assert le_gc(c, m)
                if le_gc(a, c) and le_gc(b, c):
                    assert le_gc(j, c)
            # absorption
            assert meet_gc(g, [a, j]) == a
            assert join_gc(g, [a, m]) == a


def test_join_associativity_sample():
    g = edgeless_graph(3, LOOPS)
    cons = enumerate_congruences_gc(g)
    for a, b, c in itertools.islice(itertools.combinations(cons, 3), 300):
        assert join_gc(g, [a, join_gc(g, [b, c])]) == join_gc(g, [join_gc(g, [a, b]), c])
        assert meet_gc(g, [a, meet_gc(g, [b, c])]) == meet_gc(g, [meet_gc(g, [a, b]), c])


def test_join_of_strong_is_strong():
    for g in GRAPHS_3:
        strong = [strongify_gc(g, p) for p in
                  (Partition.identity(g.n), Partition.universal(g.n))]
        for a, b in itertools.combinations_with_replacement(strong, 2):
            assert is_strong_gc(g, join_gc(g, [a, b]))


# ---------------------------------------------------------------------------
# Restriction / quotient congruence / image
# ---------------------------------------------------------------------------

def test_restrict_examples():
    for g in GRAPHS_3:
        full = list(range(g.n))
        assert restrict_gc(g, universal_gc(g), full) == universal_gc(g)
        assert restrict_gc(g, identity_gc(g), full) == identity_gc(g)
    theta = strongify_gc(A3, Partition.from_blocks(3, [[0, 2], [1]]))
    r = restrict_gc(A3, theta, [0, 1])
    assert r == identity_gc(B6)
    assert is_strong_gc(B6, r)


def test_quotient_cong_examples():
    t1 = GraphCongruence.from_pairs(id2(), {(0, 0), (1, 1), (0, 1)})
    stage = quotient_gc(B4, t1)
    assert stage == B6
    qc = quotient_cong_gc(B4, t1, universal_gc(B4))
    q = quotient_gc(stage, qc)
    assert q == T0
    for g in GRAPHS_3:
        for theta in enumerate_congruences_gc(g):
            stage = quotient_gc(g, theta)
            assert quotient_cong_gc(g, theta, theta) == identity_gc(stage)
            assert quotient_cong_gc(g, theta, universal_gc(g)) == universal_gc(stage)
    with pytest.raises(NotContained):
        check_third_iso(B4, universal_gc(B4), identity_gc(B4))


def test_correspondence_preserves_meet_join():
    for g in GRAPHS_3[:10]:
        cons = enumerate_congruences_gc(g)
        for theta in cons:
            stage = quotient_gc(g, theta)
            above = [a for a in cons if le_gc(theta, a)]
            mapped = {a: quotient_cong_gc(g, theta, a) for a in above}
            assert len(set(mapped.values())) == len(above)
            assert set(mapped.values()) == set(enumerate_congruences_gc(stage))
            for a, b in itertools.combinations(above, 2):
                assert le_gc(a, b) == le_gc(mapped[a], mapped[b]) or not le_gc(a, b)
                m = meet_gc(g, [a, b])
                j = join_gc(g, [a, b])
                assert mapped[m] == meet_gc(stage, [mapped[a], mapped[b]])
                assert mapped[j] == join_gc(stage, [mapped[a], mapped[b]])


def test_image_examples():
    f = (0, 1, 0)
    assert image_gc(A3, B6, f, identity_gc(A3)) == identity_gc(B6)
    assert image_gc(A3, B6, f, universal_gc(A3)) == universal_gc(B6)
    with pytest.raises(NotSurjective):
        image_gc(B1, B1, (0, 0), identity_gc(B1))


def test_image_along_identity_map():
    for g in GRAPHS_3:
        ident = tuple(range(g.n))
        for theta in enumerate_congruences_gc(g):
            assert image_gc(g, g, ident, theta) == theta


def test_image_compositional_equals_direct_exhaustive():
    from conrad.radical_engine import surjective_morphisms

    for g in GRAPHS_3:
        cons = enumerate_congruences_gc(g)
        for h in GRAPHS_3:
            for f in surjective_morphisms(g, h):
                for theta in cons:
                    assert image_gc(g, h, f, theta) == image_gc_direct(g, h, f, theta)


def test_image_strong_stays_strong():
    from conrad.radical_engine import surjective_morphisms

    for g in GRAPHS_3:
        strongs = {strongify_gc(g, p) for p in
                   (Partition.identity(g.n), Partition.universal(g.n))}
        for h in GRAPHS_3:
            for f in surjective_morphisms(g, h):
                for theta in strongs:
                    assert is_strong_gc(h, image_gc(g, h, f, theta))


# ---------------------------------------------------------------------------
# Subdirect products and irreducibility
# ---------------------------------------------------------------------------

def test_check_subdirect_examples():
    t1 = GraphCongruence.from_pairs(id2(), {(0, 0)})
    t2 = GraphCongruence.from_pairs(id2(), {(1, 1)})
    res = check_subdirect_gc(B1, [t1, t2])
    assert res.ok
    assert not check_subdirect_gc(B1, [universal_gc(B1)]).ok
    assert check_subdirect_gc(B1, [identity_gc(B1)]).ok


def test_subdirect_embedding_into_product():
    t1 = GraphCongruence.from_pairs(id2(), {(0, 0)})
    t2 = GraphCongruence.from_pairs(id2(), {(1, 1)})
    res = check_subdirect_gc(B1, [t1, t2])
    prod = product_graph(list(res.factors))
    # embedding is injective and edge-faithful onto an induced subgraph
    rows = res.embedding
    assert len(set(rows)) == B1.n
    width = res.factors[0].n
    pos = {row: row[0] * width + row[1] for row in rows}
    image_vertices = sorted(pos[row] for row in rows)
    sub = induced(prod, image_vertices)
    assert iso_graphs(sub, B1) is not None


def test_product_graph_caps():
    from conrad.errors import BoundExceeded

    with pytest.raises(BoundExceeded):
        product_graph([B1] * 5)
    with pytest.raises(BoundExceeded):
        product_graph([edgeless_graph(20, LOOPS)] * 4)
    prod = product_graph([B2, B2])
    assert prod.n == 4


def test_subdirectly_irreducible_catalog():
    expected = [T, T0, B4, B5, B6, A3]
    found = [g for g in GRAPHS_3 if is_subdirectly_irreducible_gc(g)]
    assert len(found) == 6
    for g in found:
        assert any(iso_graphs(g, e) is not None for e in expected)
    assert is_subdirectly_irreducible_gc(T0)
    assert not is_subdirectly_irreducible_gc(B1)
    assert not is_subdirectly_irreducible_gc(B2)
    assert not is_subdirectly_irreducible_gc(B3)


def test_every_graph_subdirect_product_of_irreducibles():
    # congruences with subdirectly irreducible quotients always meet to the
    # identity, so every small graph decomposes into irreducible factors
    for g in GRAPHS_3:
        factors = [
            theta for theta in enumerate_congruences_gc(g)
            if is_subdirectly_irreducible_gc(quotient_gc(g, theta))
        ]
        assert check_subdirect_gc(g, factors).ok, g


def _congruences_by_definition(g, independent):
    """Encodings of every (partition, S) with E <= S <= all pairs such that
    a pair in S puts every pair between the blocks of its ends in S, and,
    when independent, no pair of S joins two related vertices."""
    parts = {Partition(raw) for raw in itertools.product(range(g.n), repeat=g.n)}
    free = sorted(oracles.all_pairs(g) - g.edges)
    found = []
    for part in parts:
        for k in range(2 ** len(free)):
            s = set(g.edges) | {free[i] for i in range(len(free)) if k >> i & 1}
            if independent and any(part.same(a, b) for a, b in s):
                continue
            if all(
                (min(u, v), max(u, v)) in s
                for a, b in s
                for u in range(g.n) if part.same(u, a)
                for v in range(g.n) if part.same(v, b)
            ):
                found.append((part.class_id, tuple(sorted(s))))
    return sorted(found)


def _labelled_graphs(n, policy):
    slots = sorted(oracles.all_pairs(graph(n, policy)))
    for k in range(2 ** len(slots)):
        yield graph(n, policy, [slots[i] for i in range(len(slots)) if k >> i & 1])


def test_enumerators_match_definition_oracle():
    for n in (1, 2, 3):
        for g in _labelled_graphs(n, LOOPS):
            got = [c.encoding() for c in enumerate_congruences_gc(g)]
            assert sorted(got) == _congruences_by_definition(g, False), g
    for n in (1, 2, 3, 4):
        for g in _labelled_graphs(n, NOLOOPS):
            got = [c.encoding() for c in enumerate_congruences_lc(g)]
            assert sorted(got) == _congruences_by_definition(g, True), g


def test_loop_only_entry_points_reject_loopless_carriers():
    p2 = path_graph(2)
    with pytest.raises(PolicyMismatch):
        enumerate_congruences_gc(p2)
    with pytest.raises(PolicyMismatch):
        strongify_gc(p2, Partition.universal(2))
    with pytest.raises(PolicyMismatch):
        random_gcong(random.Random(0), p2)
