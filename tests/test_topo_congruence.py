"""Topological congruences: validation, calculus, lattice laws, theorems."""

import itertools

import pytest

from conrad.errors import (
    EmptyList,
    EmptySubset,
    NotContained,
    NotContinuous,
    NotSaturated,
    NotSubTopology,
    NotSurjective,
    TrivialSpace,
)
from conrad.structures import (
    D2,
    I2,
    Partition,
    S2,
    T_SPACE,
    enumerate_spaces,
    homeo_spaces,
    space,
)
from conrad.radical_engine import check_subdirect as check_subdirect_tc
from conrad.topo_congruence import (
    TopoCongruence,
    enumerate_congruences_tc,
    identity_tc,
    image_tc,
    image_tc_direct,
    is_strong_tc,
    join_tc,
    kernel_tc,
    le_tc,
    meet_tc,
    quotient_cong_tc,
    quotient_tc,
    restrict_tc,
    sierpinski_decomposition,
    strong_kernel_tc,
    strongify_tc,
    validate_tc,
)

SPACES_3 = [x for n in (1, 2, 3) for x in enumerate_spaces(n)]
INDISCRETE2 = frozenset({frozenset(), frozenset({0, 1})})


def id2():
    return Partition.identity(2)


def univ2():
    return Partition.universal(2)


def universal_of(x):
    return TopoCongruence(Partition.universal(x.n), frozenset({frozenset(), x.full}))


# ---------------------------------------------------------------------------
# Validation and strongness
# ---------------------------------------------------------------------------

def test_validate_identity_and_universal():
    assert validate_tc(S2, identity_tc(S2)) == identity_tc(S2)
    assert validate_tc(S2, universal_of(S2)) == universal_of(S2)


def test_validate_not_saturated():
    with pytest.raises(NotSaturated):
        validate_tc(S2, TopoCongruence(univ2(), S2.opens))


def test_validate_not_subtopology():
    with pytest.raises(NotSubTopology):
        validate_tc(I2, TopoCongruence(id2(), D2.opens))


def test_strongify_examples():
    assert strongify_tc(S2, id2()) == identity_tc(S2)
    assert strongify_tc(D2, univ2()) == TopoCongruence(univ2(), INDISCRETE2)
    assert not is_strong_tc(S2, TopoCongruence(id2(), INDISCRETE2))
    assert is_strong_tc(S2, identity_tc(S2))


def test_strong_iff_trivial_strong_is_identity():
    # a strong congruence with the diagonal partition is the identity congruence
    for x in SPACES_3:
        assert strongify_tc(x, Partition.identity(x.n)) == identity_tc(x)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

def test_kernel_examples():
    assert kernel_tc(S2, T_SPACE, (0, 0)) == universal_of(S2)
    k = kernel_tc(D2, S2, (0, 1))
    assert k == TopoCongruence(id2(), S2.opens)
    assert kernel_tc(S2, S2, (0, 1)) == identity_tc(S2)
    with pytest.raises(NotContinuous):
        kernel_tc(I2, S2, (0, 1))


def test_strong_kernel_below_any_congruence_with_same_partition():
    for x in SPACES_3:
        for rho in enumerate_congruences_tc(x):
            q, proj = quotient_tc(x, rho)
            sker = strong_kernel_tc(x, q, proj)
            assert sker.part == rho.part
            assert le_tc(sker, rho)


def test_kernel_of_projection_is_rho():
    for x in SPACES_3:
        for rho in enumerate_congruences_tc(x):
            q, proj = quotient_tc(x, rho)
            assert kernel_tc(x, q, proj) == rho


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def test_quotient_examples():
    q, _ = quotient_tc(S2, universal_of(S2))
    assert homeo_spaces(q, T_SPACE) is not None
    q, _ = quotient_tc(D2, TopoCongruence(id2(), INDISCRETE2))
    assert q == I2
    x3 = space(3, [[], [0], [0, 1], [0, 1, 2]])
    rho = TopoCongruence(
        Partition.from_blocks(3, [[0], [1, 2]]),
        frozenset({frozenset(), frozenset({0}), frozenset({0, 1, 2})}),
    )
    q, _ = quotient_tc(x3, rho)
    assert homeo_spaces(q, S2) is not None


def test_quotient_characterizes_identity_and_universal():
    for x in SPACES_3:
        for rho in enumerate_congruences_tc(x):
            q, _ = quotient_tc(x, rho)
            assert (homeo_spaces(q, x) is not None) == (rho == identity_tc(x))
            assert (homeo_spaces(q, T_SPACE) is not None) == (rho == universal_of(x))


def test_congruence_counts():
    assert len(enumerate_congruences_tc(I2)) == 2
    assert len(enumerate_congruences_tc(S2)) == 3
    assert len(enumerate_congruences_tc(D2)) == 5


def test_d2_congruences_explicit():
    expected = {
        identity_tc(D2),
        TopoCongruence(id2(), S2.opens),
        TopoCongruence(id2(), frozenset({frozenset(), frozenset({1}), frozenset({0, 1})})),
        TopoCongruence(id2(), INDISCRETE2),
        universal_of(D2),
    }
    assert set(enumerate_congruences_tc(D2)) == expected


# ---------------------------------------------------------------------------
# Lattice structure
# ---------------------------------------------------------------------------

def test_meet_join_examples():
    m = meet_tc(D2, [TopoCongruence(id2(), INDISCRETE2), universal_of(D2)])
    assert m == TopoCongruence(id2(), INDISCRETE2)
    rho = TopoCongruence(id2(), S2.opens)
    assert join_tc(D2, [rho, identity_tc(D2)]) == rho
    assert meet_tc(D2, [rho, rho]) == rho
    with pytest.raises(EmptyList):
        meet_tc(D2, [])
    with pytest.raises(EmptyList):
        join_tc(D2, [])


def test_meet_join_are_glb_lub():
    for x in SPACES_3:
        cons = enumerate_congruences_tc(x)
        bot, top = identity_tc(x), universal_of(x)
        for rho in cons:
            assert le_tc(bot, rho) and le_tc(rho, top)
        for a, b in itertools.combinations(cons, 2):
            m = meet_tc(x, [a, b])
            j = join_tc(x, [a, b])
            assert le_tc(m, a) and le_tc(m, b)
            assert le_tc(a, j) and le_tc(b, j)
            for c in cons:
                if le_tc(c, a) and le_tc(c, b):
                    assert le_tc(c, m)
                if le_tc(a, c) and le_tc(b, c):
                    assert le_tc(j, c)


def test_join_of_strong_is_strong():
    for x in SPACES_3:
        strong = [strongify_tc(x, p) for p in
                  (Partition.identity(x.n), Partition.universal(x.n))]
        for a, b in itertools.combinations_with_replacement(strong, 2):
            assert is_strong_tc(x, join_tc(x, [a, b]))


# ---------------------------------------------------------------------------
# Restriction, quotient congruences, images
# ---------------------------------------------------------------------------

def test_restrict_examples():
    assert restrict_tc(D2, universal_of(D2), [0, 1]) == universal_of(D2)
    assert restrict_tc(D2, identity_tc(D2), [0, 1]) == identity_tc(D2)
    assert restrict_tc(D2, TopoCongruence(id2(), INDISCRETE2), [0]) == identity_tc(T_SPACE)
    with pytest.raises(EmptySubset):
        restrict_tc(D2, identity_tc(D2), [])


def test_quotient_cong_examples():
    alpha = TopoCongruence(id2(), S2.opens)
    assert quotient_cong_tc(D2, alpha, alpha).part == id2()
    qc = quotient_cong_tc(D2, alpha, universal_of(D2))
    stage, _ = quotient_tc(D2, alpha)
    q, _ = quotient_tc(stage, qc)
    assert homeo_spaces(q, T_SPACE) is not None
    with pytest.raises(NotContained):
        quotient_cong_tc(D2, universal_of(D2), identity_tc(D2))


def test_quotient_cong_trivial_cases():
    for x in SPACES_3:
        cons = enumerate_congruences_tc(x)
        for alpha in cons:
            stage, _ = quotient_tc(x, alpha)
            assert quotient_cong_tc(x, alpha, alpha) == identity_tc(stage)
            assert quotient_cong_tc(x, alpha, universal_of(x)) == universal_of(stage)


def test_correspondence_bijection():
    # congruences above theta <-> congruences on the quotient, order-preserving
    for x in SPACES_3:
        cons = enumerate_congruences_tc(x)
        for theta in cons:
            stage, _ = quotient_tc(x, theta)
            above = [a for a in cons if le_tc(theta, a)]
            mapped = [quotient_cong_tc(x, theta, a) for a in above]
            assert len(set(mapped)) == len(above)
            assert set(mapped) == set(enumerate_congruences_tc(stage))
            for a, b in itertools.combinations(above, 2):
                if le_tc(a, b):
                    ia, ib = above.index(a), above.index(b)
                    assert le_tc(mapped[ia], mapped[ib])


def test_image_examples():
    rho = TopoCongruence(id2(), S2.opens)
    assert image_tc(D2, D2, (0, 1), rho) == rho
    assert image_tc(D2, I2, (0, 1), rho) == TopoCongruence(id2(), INDISCRETE2)
    for x in SPACES_3:
        q, proj = quotient_tc(x, universal_of(x))
        assert image_tc(x, q, proj, universal_of(x)) == universal_of(q)
    with pytest.raises(NotSurjective):
        image_tc(S2, D2, (0, 0), identity_tc(S2))


def test_image_compositional_equals_direct_exhaustive():
    from conrad.radical_engine import surjective_morphisms

    for x in SPACES_3:
        cons = enumerate_congruences_tc(x)
        for y in SPACES_3:
            for f in surjective_morphisms("topo", x, y):
                for rho in cons:
                    assert image_tc(x, y, f, rho) == image_tc_direct(x, y, f, rho)


def test_image_preserves_bounds():
    from conrad.radical_engine import surjective_morphisms

    for x in SPACES_3:
        for y in SPACES_3:
            for f in surjective_morphisms("topo", x, y):
                assert image_tc(x, y, f, identity_tc(x)) == identity_tc(y)
                assert image_tc(x, y, f, universal_of(x)) == universal_of(y)


# ---------------------------------------------------------------------------
# Subdirect products and decomposition
# ---------------------------------------------------------------------------

def test_check_subdirect_examples():
    t1 = TopoCongruence(id2(), S2.opens)
    t2 = TopoCongruence(id2(), frozenset({frozenset(), frozenset({1}), frozenset({0, 1})}))
    res = check_subdirect_tc(D2, [t1, t2])
    assert res.ok
    assert all(homeo_spaces(f, S2) is not None for f in res.factors)
    assert len(set(res.embedding)) == D2.n
    assert not check_subdirect_tc(D2, [universal_of(D2)]).ok
    assert check_subdirect_tc(D2, [identity_tc(D2)]).ok


def test_subdirect_embedding_is_homeo_onto_image():
    # pullback of the product topology equals the carrier topology
    t1 = TopoCongruence(id2(), S2.opens)
    t2 = TopoCongruence(id2(), frozenset({frozenset(), frozenset({1}), frozenset({0, 1})}))
    res = check_subdirect_tc(D2, [t1, t2])
    pulled = set()
    for i, factor in enumerate(res.factors):
        for u in factor.opens:
            pulled.add(frozenset(p for p in range(D2.n) if res.embedding[p][i] in u))
    generated = set()
    from conrad.topo_congruence import _close_topology

    assert _close_topology(D2.n, frozenset(pulled)) == D2.opens


def test_sierpinski_decomposition():
    dec = sierpinski_decomposition(D2)
    assert len(dec) == 2
    assert all(homeo_spaces(quotient_tc(D2, c)[0], S2) is not None for c in dec)
    assert sierpinski_decomposition(I2) == [identity_tc(I2)]
    assert sierpinski_decomposition(S2) == [identity_tc(S2)]
    with pytest.raises(TrivialSpace):
        sierpinski_decomposition(T_SPACE)


def test_sierpinski_decomposition_all_small_spaces():
    for x in SPACES_3:
        if x.n == 1:
            continue
        dec = sierpinski_decomposition(x)
        assert check_subdirect_tc(x, dec).ok
        for c in dec:
            q, _ = quotient_tc(x, c)
            assert homeo_spaces(q, S2) is not None or homeo_spaces(q, I2) is not None
