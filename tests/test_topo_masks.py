"""The least-open-vector calculus of topological congruences against the
family-of-opens references in `oracles`."""

import itertools
import random
import time

from conrad import topo_congruence as tc
from conrad.errors import ConradError, NotATopology, NotSaturated
from conrad.radical_engine import surjective_morphisms
from conrad.structures import (
    _bitmask,
    _nonempty_subsets,
    FiniteSpace,
    _topology_defect,
    all_partitions,
    enumerate_spaces,
)
from conrad.verification import check_third_iso

import oracles

SPACES_3 = [x for n in (1, 2, 3) for x in enumerate_spaces(n)]
SPACES_4 = SPACES_3 + enumerate_spaces(4)


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ConradError as exc:
        return type(exc), str(exc)


def _refusal(fn, *args):
    """The type of the error fn raised, or None."""
    try:
        fn(*args)
    except ConradError as exc:
        return type(exc)
    return None


def test_every_congruence_is_its_topology():
    # the vector and the family it generates determine each other, and the
    # encoding is still the partition with the sorted open masks
    listed = 0
    for x in SPACES_4:
        for rho in tc.enumerate_congruences_tc(x):
            assert _topology_defect(x.n, rho.ctop) is None
            assert tc.TopoCongruence.from_opens(rho.part, rho.ctop) == rho
            assert rho.encoding() == (rho.part.class_id, tuple(sorted(map(_bitmask, rho.ctop))))
            assert tc.validate_tc(x, rho) is rho
            listed += 1
    assert listed == 2681


def test_one_congruence_operations_match_the_family_calculus():
    for x in SPACES_4:
        for rho in tc.enumerate_congruences_tc(x):
            quotient = tc.quotient_tc(x, rho)
            assert quotient == oracles.quotient_tc_opens(x, rho)
            proj = rho.part.class_id
            assert tc.kernel_tc(x, quotient, proj) == oracles.kernel_tc_opens(x, quotient, proj) == rho
            for sub in _nonempty_subsets(x.n):
                assert tc.restrict_tc(x, rho, sub) == oracles.restrict_tc_opens(x, rho, sub)
        for part in all_partitions(x.n):
            assert tc.strongify_tc(x, part).ctop == oracles.saturated_opens(x, part)


def test_two_congruence_operations_match_the_family_calculus():
    pairs = 0
    for x in SPACES_3:
        cons = tc.enumerate_congruences_tc(x)
        for a, b in itertools.product(cons, repeat=2):
            assert tc.le_tc(a, b) == oracles.le_tc_opens(a, b)
            assert tc.meet_tc(x, [a, b]) == oracles.meet_tc_opens(x, [a, b])
            assert tc.join_tc(x, [a, b]) == oracles.join_tc_opens(x, [a, b])
            if tc.le_tc(a, b):
                assert tc.quotient_cong_tc(x, a, b) == oracles.quotient_cong_tc_opens(x, a, b)
            else:
                # the containment is checked where a caller's pair enters
                assert _outcome(check_third_iso, x, a, b) == _outcome(
                    oracles.quotient_cong_tc_opens, x, a, b
                )
            pairs += 1
        if x.n <= 2:
            for trio in itertools.product(cons, repeat=3):
                assert tc.meet_tc(x, list(trio)) == oracles.meet_tc_opens(x, trio)
                assert tc.join_tc(x, list(trio)) == oracles.join_tc_opens(x, trio)
    assert pairs == 2980


def test_maps_match_the_family_calculus():
    for x in SPACES_3:
        cons = tc.enumerate_congruences_tc(x)
        for y in SPACES_3:
            # every map, continuous or not: a kernel or the same refusal
            for f in itertools.product(range(y.n), repeat=x.n):
                assert _outcome(tc.kernel_tc, x, y, f) == _outcome(oracles.kernel_tc_opens, x, y, f)
            targets = tc.enumerate_congruences_tc(y)
            for f in surjective_morphisms(x, y):
                for rho in cons:
                    assert tc.image_tc(x, y, f, rho) == oracles.image_tc_opens(x, y, f, rho)
                    for beta in targets:
                        assert tc.image_le_tc(x, y, f, rho, beta) == oracles.image_le_tc_opens(
                            x, y, f, rho, beta
                        )


def test_validation_on_vectors_matches_validation_on_families():
    # every topology-closed family of subsets on the 1-, 2- and 3-point spaces,
    # with every partition: the same verdict as the check on the family read
    for x in SPACES_3:
        proper = [frozenset(c) for k in range(1, x.n) for c in itertools.combinations(range(x.n), k)]
        for keep in itertools.product((False, True), repeat=len(proper)):
            family = frozenset({frozenset(), frozenset(range(x.n))}) | {
                u for u, k in zip(proper, keep) if k
            }
            if _topology_defect(x.n, family):
                continue
            for part in all_partitions(x.n):
                rho = tc.TopoCongruence.from_opens(part, family)
                assert _refusal(tc.validate_opens_tc, x, part, family) == _refusal(
                    tc.validate_tc, x, rho
                ), (x, part, family)
    # vectors built by hand that are no preorder: 0 missing from its own
    # mask, 0's mask holding 1 but not 1's, a mask past the last point, and
    # one mask short
    discrete = next(x for x in SPACES_3 if x.n == 3 and x.is_discrete())
    identity = tc.identity_tc(discrete).part
    for least in [(0b110, 0b010, 0b100), (0b011, 0b110, 0b100), (0b1001, 0b010, 0b100), (0b001, 0b010)]:
        rho = tc.TopoCongruence(identity, least)
        assert _refusal(tc.validate_tc, discrete, rho) is NotATopology, least


def test_validation_on_vectors_builds_no_family_of_opens():
    # the discrete 20-point space has 2**20 opens; a vector is checked on its
    # 20 least open sets, so neither space nor congruence lists its opens
    x = FiniteSpace(20, tuple(1 << p for p in range(20)))
    rho = tc.identity_tc(x)
    start = time.perf_counter()
    assert tc.validate_tc(x, rho) is rho
    assert _refusal(tc.validate_tc, x, tc.TopoCongruence(tc.universal_tc(x).part, x.min_opens)) is NotSaturated
    assert time.perf_counter() - start < 1.0
    assert not {"opens", "_open_masks"} & set(vars(x)) and not {"ctop", "open_masks"} & set(vars(rho))


def test_random_draws_match_the_family_calculus():
    # the same seed draws the same congruences, using the generator alike
    sizes = random.Random(3)
    mine, theirs = random.Random(11), random.Random(11)
    for _ in range(1000):
        x = tc.random_space(sizes, sizes.randint(1, 5))
        assert tc.random_tcong(mine, x) == oracles.random_tcong_opens(theirs, x)
    assert mine.getstate() == theirs.getstate()


def test_random_spaces_match_the_family_draw():
    # the masks are drawn as the frozensets were, using the generator alike:
    # the seeded reports print only counts, so no golden would catch a change
    sizes = random.Random(5)
    mine, theirs = random.Random(13), random.Random(13)
    for _ in range(1000):
        n = sizes.randint(1, 5)
        assert tc.random_space(mine, n) == oracles.random_space_opens(theirs, n)
    assert mine.getstate() == theirs.getstate()
