"""Topological congruences: validation, calculus, lattice laws, theorems."""

import hashlib
import itertools
import random
import time
from collections import Counter

import pytest

from conrad import topo_congruence
from conrad.errors import (
    BoundExceeded,
    EmptyList,
    EmptySubset,
    InvalidCongruence,
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
    all_partitions,
    discrete_space,
    enumerate_spaces,
    homeo_spaces,
    meet_partitions,
    space,
)
from conrad.radical_engine import check_subdirect as check_subdirect_tc
from conrad.topo_congruence import (
    TopoCongruence,
    enumerate_congruences_tc,
    identity_tc,
    image_tc,
    join_tc,
    kernel_tc,
    le_tc,
    meet_tc,
    quotient_cong_tc,
    quotient_tc,
    restrict_tc,
    sierpinski_candidates,
    sierpinski_decomposition,
    strongify_tc,
    validate_opens_tc,
    validate_tc,
)
from conrad.verification import check_third_iso

from oracles import close_topology, closed_families, image_tc_direct, is_strong_tc, strong_kernel_tc

SPACES_3 = [x for n in (1, 2, 3) for x in enumerate_spaces(n)]
INDISCRETE2 = frozenset({frozenset(), frozenset({0, 1})})


def id2():
    return Partition.identity(2)


def univ2():
    return Partition.universal(2)


def universal_of(x):
    return TopoCongruence.from_opens(Partition.universal(x.n), frozenset({frozenset(), x.full}))


# ---------------------------------------------------------------------------
# Validation and strongness
# ---------------------------------------------------------------------------

def test_validate_identity_and_universal():
    assert validate_tc(S2, identity_tc(S2)) == identity_tc(S2)
    assert validate_tc(S2, universal_of(S2)) == universal_of(S2)


def test_validate_not_saturated():
    with pytest.raises(NotSaturated):
        validate_tc(S2, TopoCongruence.from_opens(univ2(), S2.opens))


def test_validate_not_subtopology():
    with pytest.raises(NotSubTopology):
        validate_tc(I2, TopoCongruence.from_opens(id2(), D2.opens))


def test_validate_refuses_a_partition_of_another_size():
    with pytest.raises(InvalidCongruence) as err:
        validate_tc(S2, TopoCongruence.from_opens(Partition.identity(3), S2.opens))
    assert err.type is InvalidCongruence and str(err.value) == "partition on 3 points, space has 2"
    # the file check refuses it too, before it reads the family
    with pytest.raises(InvalidCongruence) as err:
        validate_opens_tc(S2, Partition.identity(3), S2.opens)
    assert err.type is InvalidCongruence and str(err.value) == "partition on 3 points, space has 2"


def test_a_large_family_of_opens_is_checked_in_linear_time():
    # the 8,192 opens of the discrete 13-point space: closure is tested on
    # each member joined with each of the 13 least members, not on the 67
    # million ordered pairs (8.6 s when every pair was scanned)
    x = discrete_space(13)
    rho = identity_tc(x)
    opens = rho.ctop
    start = time.perf_counter()
    assert validate_opens_tc(x, rho.part, opens) == rho
    assert time.perf_counter() - start < 2


def test_strongify_examples():
    assert strongify_tc(S2, id2()) == identity_tc(S2)
    assert strongify_tc(D2, univ2()) == TopoCongruence.from_opens(univ2(), INDISCRETE2)
    assert not is_strong_tc(S2, TopoCongruence.from_opens(id2(), INDISCRETE2))
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
    assert k == TopoCongruence.from_opens(id2(), S2.opens)
    assert kernel_tc(S2, S2, (0, 1)) == identity_tc(S2)
    with pytest.raises(NotContinuous):
        kernel_tc(I2, S2, (0, 1))


def test_strong_kernel_below_any_congruence_with_same_partition():
    for x in SPACES_3:
        for rho in enumerate_congruences_tc(x):
            q, proj = quotient_tc(x, rho), rho.part.class_id
            sker = strong_kernel_tc(x, q, proj)
            assert sker.part == rho.part
            assert le_tc(sker, rho)


def test_kernel_of_projection_is_rho():
    for x in SPACES_3:
        for rho in enumerate_congruences_tc(x):
            q, proj = quotient_tc(x, rho), rho.part.class_id
            assert kernel_tc(x, q, proj) == rho


# ---------------------------------------------------------------------------
# Quotients
# ---------------------------------------------------------------------------

def test_quotient_examples():
    q = quotient_tc(S2, universal_of(S2))
    assert homeo_spaces(q, T_SPACE) is not None
    q = quotient_tc(D2, TopoCongruence.from_opens(id2(), INDISCRETE2))
    assert q == I2
    x3 = space(3, [[], [0], [0, 1], [0, 1, 2]])
    rho = TopoCongruence.from_opens(
        Partition.from_blocks(3, [[0], [1, 2]]),
        frozenset({frozenset(), frozenset({0}), frozenset({0, 1, 2})}),
    )
    q = quotient_tc(x3, rho)
    assert homeo_spaces(q, S2) is not None


def test_quotient_characterizes_identity_and_universal():
    for x in SPACES_3:
        for rho in enumerate_congruences_tc(x):
            q = quotient_tc(x, rho)
            assert (homeo_spaces(q, x) is not None) == (rho == identity_tc(x))
            assert (homeo_spaces(q, T_SPACE) is not None) == (rho == universal_of(x))


def test_congruence_counts():
    assert len(enumerate_congruences_tc(I2)) == 2
    assert len(enumerate_congruences_tc(S2)) == 3
    assert len(enumerate_congruences_tc(D2)) == 5


def test_d2_congruences_explicit():
    expected = {
        identity_tc(D2),
        TopoCongruence.from_opens(id2(), S2.opens),
        TopoCongruence.from_opens(id2(), frozenset({frozenset(), frozenset({1}), frozenset({0, 1})})),
        TopoCongruence.from_opens(id2(), INDISCRETE2),
        universal_of(D2),
    }
    assert set(enumerate_congruences_tc(D2)) == expected


# ---------------------------------------------------------------------------
# Lattice structure
# ---------------------------------------------------------------------------

def test_meet_join_examples():
    m = meet_tc(D2, [TopoCongruence.from_opens(id2(), INDISCRETE2), universal_of(D2)])
    assert m == TopoCongruence.from_opens(id2(), INDISCRETE2)
    rho = TopoCongruence.from_opens(id2(), S2.opens)
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
    assert restrict_tc(D2, TopoCongruence.from_opens(id2(), INDISCRETE2), [0]) == identity_tc(T_SPACE)
    with pytest.raises(EmptySubset):
        restrict_tc(D2, identity_tc(D2), [])


def test_quotient_cong_examples():
    alpha = TopoCongruence.from_opens(id2(), S2.opens)
    assert quotient_cong_tc(D2, alpha, alpha).part == id2()
    qc = quotient_cong_tc(D2, alpha, universal_of(D2))
    stage = quotient_tc(D2, alpha)
    q = quotient_tc(stage, qc)
    assert homeo_spaces(q, T_SPACE) is not None
    with pytest.raises(NotContained):
        check_third_iso(D2, universal_of(D2), identity_tc(D2))


def test_quotient_cong_trivial_cases():
    for x in SPACES_3:
        cons = enumerate_congruences_tc(x)
        for alpha in cons:
            stage = quotient_tc(x, alpha)
            assert quotient_cong_tc(x, alpha, alpha) == identity_tc(stage)
            assert quotient_cong_tc(x, alpha, universal_of(x)) == universal_of(stage)


def test_correspondence_bijection():
    # congruences above theta <-> congruences on the quotient, order-preserving
    for x in SPACES_3:
        cons = enumerate_congruences_tc(x)
        for theta in cons:
            stage = quotient_tc(x, theta)
            above = [a for a in cons if le_tc(theta, a)]
            mapped = [quotient_cong_tc(x, theta, a) for a in above]
            assert len(set(mapped)) == len(above)
            assert set(mapped) == set(enumerate_congruences_tc(stage))
            for a, b in itertools.combinations(above, 2):
                if le_tc(a, b):
                    ia, ib = above.index(a), above.index(b)
                    assert le_tc(mapped[ia], mapped[ib])


def test_image_examples():
    rho = TopoCongruence.from_opens(id2(), S2.opens)
    assert image_tc(D2, D2, (0, 1), rho) == rho
    assert image_tc(D2, I2, (0, 1), rho) == TopoCongruence.from_opens(id2(), INDISCRETE2)
    for x in SPACES_3:
        q, proj = quotient_tc(x, universal_of(x)), universal_of(x).part.class_id
        assert image_tc(x, q, proj, universal_of(x)) == universal_of(q)
    with pytest.raises(NotSurjective):
        image_tc(S2, D2, (0, 0), identity_tc(S2))


def test_image_compositional_equals_direct_exhaustive():
    from conrad.radical_engine import surjective_morphisms

    for x in SPACES_3:
        cons = enumerate_congruences_tc(x)
        for y in SPACES_3:
            for f in surjective_morphisms(x, y):
                for rho in cons:
                    assert image_tc(x, y, f, rho) == image_tc_direct(x, y, f, rho)


def test_image_preserves_bounds():
    from conrad.radical_engine import surjective_morphisms

    for x in SPACES_3:
        for y in SPACES_3:
            for f in surjective_morphisms(x, y):
                assert image_tc(x, y, f, identity_tc(x)) == identity_tc(y)
                assert image_tc(x, y, f, universal_of(x)) == universal_of(y)


# ---------------------------------------------------------------------------
# Subdirect products and decomposition
# ---------------------------------------------------------------------------

def test_check_subdirect_examples():
    t1 = TopoCongruence.from_opens(id2(), S2.opens)
    t2 = TopoCongruence.from_opens(id2(), frozenset({frozenset(), frozenset({1}), frozenset({0, 1})}))
    res = check_subdirect_tc(D2, [t1, t2])
    assert res.ok
    assert all(homeo_spaces(f, S2) is not None for f in res.factors)
    assert len(set(res.embedding)) == D2.n
    assert not check_subdirect_tc(D2, [universal_of(D2)]).ok
    assert check_subdirect_tc(D2, [identity_tc(D2)]).ok


def test_subdirect_embedding_is_homeo_onto_image():
    # pullback of the product topology equals the carrier topology
    t1 = TopoCongruence.from_opens(id2(), S2.opens)
    t2 = TopoCongruence.from_opens(id2(), frozenset({frozenset(), frozenset({1}), frozenset({0, 1})}))
    res = check_subdirect_tc(D2, [t1, t2])
    pulled = set()
    for i, factor in enumerate(res.factors):
        for u in factor.opens:
            pulled.add(frozenset(p for p in range(D2.n) if res.embedding[p][i] in u))
    generated = set()
    assert close_topology(D2.n, frozenset(pulled)) == D2.opens


def test_sierpinski_decomposition():
    dec = sierpinski_decomposition(D2)
    assert len(dec) == 2
    assert all(homeo_spaces(quotient_tc(D2, c), S2) is not None for c in dec)
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
            q = quotient_tc(x, c)
            assert homeo_spaces(q, S2) is not None or homeo_spaces(q, I2) is not None


def test_sierpinski_search_meets_only_separating_combinations(monkeypatch):
    # a combination whose partitions leave two points together cannot meet to
    # the identity, so the search builds the meet of separating ones only; the
    # answers and refusals on these 7-point spaces (7 answered, 34 refused)
    # hash as they did when every combination was met
    met = []

    def spy(x, rhos):
        met.append([r.part for r in rhos])
        return meet_tc(x, rhos)

    monkeypatch.setattr(topo_congruence, "meet_tc", spy)
    rng = random.Random(5)
    spaces = [topo_congruence.random_space(rng, 7) for _ in range(40)] + [discrete_space(7)]
    outcomes = []
    for x in spaces:
        try:
            outcomes.append([c.encoding() for c in sierpinski_decomposition(x)])
        except BoundExceeded as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert sum(isinstance(o, list) for o in outcomes) == 7
    assert met and all(meet_partitions(parts) == Partition.identity(7) for parts in met)
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == (
        "1774c939cace80a921cf484fd595773dc76fbb9874765be961dafe3aad891fb7"
    )


def _sierpinski_candidates_by_quotient(x):
    """The two-block congruences whose quotient is homeomorphic to S2 or I2."""
    return [
        c for c in enumerate_congruences_tc(x)
        if c.part.num_blocks == 2
        and any(homeo_spaces(quotient_tc(x, c), t) is not None for t in (S2, I2))
    ]


def test_sierpinski_candidates_match_the_quotient_route():
    total = 0
    for n in (1, 2, 3, 4):
        for x in enumerate_spaces(n):
            candidates = sierpinski_candidates(x)
            assert candidates == _sierpinski_candidates_by_quotient(x), x
            total += len(candidates)
    assert total == 432


def _closed(family):
    return all(u | v in family and u & v in family for u in family for v in family)


def _labelled_topologies(n):
    """Every topology on 0..n-1, by scanning the families of subsets."""
    full, empty = frozenset(range(n)), frozenset()
    proper = [frozenset(c) for k in range(1, n) for c in itertools.combinations(range(n), k)]
    for keep in itertools.product((False, True), repeat=len(proper)):
        family = frozenset({empty, full, *(u for u, k in zip(proper, keep) if k)})
        if _closed(family):
            yield space(n, family)


def _congruences_by_definition(x):
    """Per partition in growth order, every family of saturated opens that holds
    the empty and full sets and is closed under union and intersection, found
    by scanning the families of saturated proper opens."""
    out = []
    for part in all_partitions(x.n):
        sat = [u for u in x.opens if u and u != x.full
               and all(set(b) <= u or not set(b) & u for b in part.blocks)]
        found = [
            TopoCongruence.from_opens(part, frozenset([frozenset(), x.full] + [sat[i] for i in keep]))
            for keep in closed_families(x.n, [sum(1 << p for p in u) for u in sat])
        ]
        out += sorted(found, key=lambda c: c.encoding())
    return out


def test_enumerator_matches_definition_oracle():
    # every labelled topology on up to 3 points, then every class on up to 4
    labelled = [x for n in (1, 2, 3) for x in _labelled_topologies(n)]
    classes = [x for n in (1, 2, 3, 4) for x in enumerate_spaces(n)]
    assert (len(labelled), len(classes)) == (34, 46)
    listed = 0
    for x in labelled + classes:
        cons = enumerate_congruences_tc(x)
        assert cons == _congruences_by_definition(x), x
        listed += len(cons)
    assert listed - sum(len(enumerate_congruences_tc(x)) for x in labelled) == 2681


def test_enumerator_reaches_the_discrete_five_point_space():
    # per partition, the congruence topologies are the topologies on its
    # blocks: sum over k of S(5, k) times the labelled topologies on k points
    # (OEIS A000798), where the family scan would face 2^30 candidates
    blocks = Counter(part.num_blocks for part in all_partitions(5))
    expected = sum(blocks[k] * count for k, count in zip(range(1, 6), (1, 4, 29, 355, 6942)))
    cons = enumerate_congruences_tc(discrete_space(5))
    assert len(cons) == expected == 11278
    assert Counter(c.part.num_blocks for c in cons)[5] == 6942
