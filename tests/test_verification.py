"""Theorem sweeps beyond the acceptance bound, and generator sanity."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import random
import time
from collections import Counter
from gc import collect, get_objects

import pytest

from conrad import graph_congruence as gc
from conrad import structures, verification
from conrad.cli_io import run_command
from conrad.errors import EmptySubset, InvalidCongruence, KindMismatch, NotSurjective, SemanticError
from conrad.radical_engine import (
    KIND_GRAPH,
    KIND_LOOPLESS,
    KIND_OPS,
    KIND_TOPO,
    build_universe,
    catalog_radical,
    kind_of,
    surjective_morphisms,
    verify_H1,
)
from conrad.structures import (
    B4,
    D2,
    LOOPS,
    NOLOOPS,
    S2,
    FiniteGraph,
    FiniteSpace,
    Partition,
    all_partitions,
    discrete_space,
    enumerate_graphs,
    graph,
    relabel_graph,
    relabel_space,
)
from conrad.topo_congruence import TopoCongruence
from conrad.verification import (
    RANDOM_MAX_N,
    RANDOM_MIN_N,
    check_first_iso,
    check_second_iso,
    check_third_iso,
    exhaustive_iso_theorems,
    random_above,
    random_iso_theorems,
    random_surjection,
)

from oracles import first_iso_objects, is_morphism, second_iso_objects, third_iso_objects


def test_exhaustive_small_all_kinds():
    for kind in (KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS):
        failures = exhaustive_iso_theorems(kind, 2)
        assert all(v == 0 for v in failures.values()), (kind, failures)


def test_loopless_iso_theorems_full_n4():
    failures = exhaustive_iso_theorems(KIND_LOOPLESS, 4)
    assert all(v == 0 for v in failures.values()), failures


def test_graph_iso_theorems_n4_thinned():
    # full Con(G) at n=4 is too large for second/third sweeps, so stride
    # through it deterministically; every 4-vertex class is still visited
    for g in enumerate_graphs(4, LOOPS):
        congs = gc.enumerate_congruences_gc(g)
        sample = congs[:: max(1, len(congs) // 40)]
        subsets = [
            sub for size in range(1, g.n + 1)
            for sub in itertools.combinations(range(g.n), size)
        ]
        for theta in sample:
            for sub in subsets[:: 3]:
                assert check_second_iso(g, theta, sub)
        for alpha in sample:
            for beta in sample:
                if gc.le_gc(alpha, beta):
                    assert check_third_iso(g, alpha, beta)


def test_random_sweeps_zero_failures():
    for kind in (KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS):
        failures = random_iso_theorems(kind, 120, seed=11)
        assert all(v == 0 for v in failures.values()), (kind, failures)


def test_random_surjection_is_morphism():
    from conrad.radical_engine import KIND_OPS

    rng = random.Random(5)
    for kind in (KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS):
        ops = KIND_OPS[kind]
        for _ in range(40):
            x = ops.random_structure(rng, rng.randint(2, 5))
            y, f = random_surjection(rng, x)
            assert set(f) == set(range(y.n))
            assert is_morphism(x, y, f)
            assert check_first_iso(x, y, f)


@pytest.mark.parametrize("x, y, message", [
    (S2, graph(2, LOOPS, [(0, 1)]), "a topo structure has no morphism onto a graph one"),
    (graph(2, LOOPS, [(0, 1)]), S2, "a graph structure has no morphism onto a topo one"),
    (graph(2, NOLOOPS, [(0, 1)]), graph(2, LOOPS, [(0, 1)]),
     "a loopless structure has no morphism onto a graph one"),
    (graph(2, LOOPS, [(0, 1)]), graph(2, NOLOOPS, [(0, 1)]),
     "a graph structure has no morphism onto a loopless one"),
])
def test_two_structures_of_different_kinds_are_refused(x, y, message):
    # the kinds are compared before any map is searched or read
    with pytest.raises(KindMismatch, match=message):
        surjective_morphisms(x, y)
    with pytest.raises(KindMismatch, match=message):
        check_first_iso(x, y, (0, 1))
    # a radical takes its kind from the structures, so the pair is refused
    # before the radical is read
    with pytest.raises(KindMismatch, match=message):
        verify_H1(catalog_radical(KIND_TOPO, "a"), x, y, (0, 1))


NO_FAILURES = {"first": 0, "second": 0, "third": 0}
SWEEPS = [(KIND_TOPO, 3), (KIND_GRAPH, 3), (KIND_LOOPLESS, 4)]


def _no_search(left, right):
    raise AssertionError("the theorem's own map should decide this instance")


@pytest.mark.parametrize("kind, max_n", SWEEPS)
def test_canonical_maps_decide_every_instance(monkeypatch, kind, max_n):
    monkeypatch.setitem(KIND_OPS, kind, dataclasses.replace(KIND_OPS[kind], iso=_no_search))
    assert exhaustive_iso_theorems(kind, max_n) == NO_FAILURES
    assert random_iso_theorems(kind, 200, seed=3) == NO_FAILURES


def test_a_wrong_map_fails_even_between_isomorphic_structures():
    # x has least opens {0}, {0, 1}, {0, 1, 2}, and theta pairs the partition
    # {0, 2} {1} with x's own vector (not a congruence).  On S = {1, 2} both
    # sides are the Sierpinski space, but the theorem's map swaps their
    # points and does not carry one onto the other: no search rescues it
    x = FiniteSpace(3, (1, 3, 7))
    theta = TopoCongruence(Partition((0, 1, 0)), x.min_opens)
    ops = KIND_OPS[KIND_TOPO]
    left = FiniteSpace(2, ops.carry(ops.plan((None, 1, 0), 2), theta.least))
    right = FiniteSpace(2, ops.carry(ops.plan((0, 1, 0), 2), theta.least))
    assert left != right and relabel_space(left, (1, 0)) == right == S2
    assert not check_second_iso(x, theta, (1, 2))
    assert not second_iso_objects(x, theta, (1, 2))


def test_the_public_checks_refuse_what_is_not_an_instance():
    # a map that is not onto the codomain, or leaves it, is refused before
    # the kernel reads it (the first used to answer False or end in IndexError)
    for f in ((0, 0), (0, 5), (0, -1)):
        with pytest.raises(NotSurjective):
            check_first_iso(D2, D2, f)
        with pytest.raises(NotSurjective):
            check_first_iso(B4, B4, f)
    theta = KIND_OPS[KIND_TOPO].identity(S2)
    with pytest.raises(EmptySubset):
        check_second_iso(S2, theta, ())
    with pytest.raises(SemanticError, match="subset ids must lie in 0..1"):
        check_second_iso(S2, theta, (0, 2))


def test_the_public_checks_refuse_a_congruence_on_another_carrier():
    # check_second_iso ended in IndexError on a smaller partition and
    # answered True on a larger one, as check_third_iso did: each now refuses
    # with the validators' message
    cases = (
        (discrete_space(3), D2, "partition on 2 points, space has 3"),
        (D2, discrete_space(3), "partition on 3 points, space has 2"),
        (graph(3, LOOPS), B4, "partition on 2 vertices, graph has 3"),
        (B4, graph(3, LOOPS), "partition on 3 vertices, graph has 2"),
        (graph(2, NOLOOPS), graph(3, NOLOOPS), "partition on 3 vertices, graph has 2"),
    )
    for x, other, message in cases:
        ops = KIND_OPS[kind_of(x)]
        foreign, own = ops.identity(other), ops.identity(x)
        for check, args in (
            (check_second_iso, (foreign, tuple(range(x.n)))),
            (check_third_iso, (foreign, foreign)),
            (check_third_iso, (own, foreign)),
            (check_third_iso, (foreign, own)),
        ):
            with pytest.raises(InvalidCongruence, match=f"^{message}$"):
                check(x, *args)
        with pytest.raises(InvalidCongruence, match=f"^{message}$"):
            ops.validate(x, foreign)


def test_the_onto_checks_name_the_points_a_map_must_reach():
    # none of these callers builds an image congruence: the refusal names
    # the points the map must reach
    message = "the map must reach each of the points 0..1 and no other"
    with pytest.raises(NotSurjective, match=message):
        check_first_iso(D2, D2, (0, 0))
    with pytest.raises(NotSurjective, match=message):
        verify_H1(catalog_radical("topo", "a"), D2, D2, (0, 0))
    with pytest.raises(NotSurjective, match=message):
        gc.image_gc(B4, B4, (0, 0), gc.identity_gc(B4))


@pytest.mark.parametrize("relabel, x", [(relabel_space, D2), (relabel_graph, B4)], ids=["space", "graph"])
def test_a_structure_is_relabelled_only_along_a_permutation(relabel, x):
    # a map that misses one of the points, or reaches past them, is refused
    assert relabel(x, (1, 0)) == x
    for perm in ((1, 1), (0, 5), (0, -1), (0, None)):
        with pytest.raises(NotSurjective, match="the map must reach each of the points 0..1"):
            relabel(x, perm)
    with pytest.raises(SemanticError, match="the map has 1 images for 2 points"):
        relabel(x, (0,))


@pytest.mark.parametrize("kind, max_n, counts", [
    (KIND_TOPO, 4, (46702, 875, 90)),
    (KIND_GRAPH, 3, (3772, 136, 0)),
    (KIND_LOOPLESS, 4, (5660, 79, 1596)),
])
def test_the_second_theorem_agrees_with_the_structures_oracle(kind, max_n, counts):
    # every nonempty subset with every congruence, and with every partition
    # paired with the carrier's own vector or mask, which is no congruence
    # unless the partition is the identity, so failing instances are compared
    # too.  The oracle builds each side; where it cannot (a quotient that is
    # not a space or a loopless graph) it is refused and not compared
    ops = KIND_OPS[kind]
    decided = failing = refused = 0
    for x in build_universe(kind, max_n):
        own = ops.identity(x)
        thetas = ops.enum_congruences(x) + [type(own)(p, ops.vector(own)) for p in all_partitions(x.n)]
        for theta in thetas:
            for size in range(1, x.n + 1):
                for sub in itertools.combinations(range(x.n), size):
                    try:
                        expected = second_iso_objects(x, theta, sub)
                    except SemanticError:
                        refused += 1
                        continue
                    assert check_second_iso(x, theta, sub) == expected, (x, theta, sub)
                    decided += 1
                    failing += not expected
    assert (decided, failing, refused) == counts


@pytest.mark.parametrize("kind, max_n, counts", [
    (KIND_TOPO, 4, (46792, 905)),
    (KIND_GRAPH, 3, (3772, 136)),
    (KIND_LOOPLESS, 4, (7256, 988)),
])
def test_the_sweeps_second_theorem_maps_decide_as_the_public_check(kind, max_n, counts):
    # the sweep builds each (partition, subset)'s maps once and decides every
    # congruence on that partition with them: on every congruence, and every
    # partition paired with the carrier's own vector or mask (failing
    # instances too), that must answer as check_second_iso
    ops = KIND_OPS[kind]
    decided = failing = 0
    for x in build_universe(kind, max_n):
        own = ops.identity(x)
        thetas = ops.enum_congruences(x) + [type(own)(p, ops.vector(own)) for p in all_partitions(x.n)]
        for size in range(1, x.n + 1):
            for sub in itertools.combinations(range(x.n), size):
                maps = {}
                for theta in thetas:
                    if theta.part not in maps:
                        maps[theta.part] = verification._second_maps(ops, theta.part.class_id, sub)
                    expected = check_second_iso(x, theta, sub)
                    assert verification._second_iso(ops, ops.vector(theta), *maps[theta.part]) == expected, (
                        x, theta, sub)
                    decided += 1
                    failing += not expected
    assert (decided, failing) == counts


@pytest.mark.parametrize("kind, max_n, counts", [
    (KIND_TOPO, 4, (6930, 6271, 40)),
    (KIND_GRAPH, 3, (851, 668, 0)),
    (KIND_LOOPLESS, 4, (1322, 1042, 0)),
])
def test_the_first_theorem_agrees_with_the_structures_oracle(kind, max_n, counts):
    # every surjective morphism f: x -> y, decided with its kernel and with
    # ker f's partition paired with x's own vector or mask, which is no
    # congruence unless f is open enough, so failing instances are compared
    # too.  The oracle builds X/theta; where it cannot (a quotient that is not
    # a space or a loopless graph) it is refused and not compared
    ops = KIND_OPS[kind]
    members = build_universe(kind, max_n).members
    decided = failing = refused = 0
    for x in members:
        for y in members:
            for f in surjective_morphisms(x, y):
                kernel = ops.kernel(x, y, f)
                assert check_first_iso(x, y, f) is first_iso_objects(x, y, f, kernel) is True
                own = type(kernel)(kernel.part, ops.vector(ops.identity(x)))
                try:
                    expected = first_iso_objects(x, y, f, own)
                except SemanticError:
                    refused += 1
                    continue
                assert verification._first_iso(ops, ops.vector(own), f, y) == expected, (x, y, f)
                decided += 1
                failing += not expected
    assert (decided, failing, refused) == counts


@pytest.mark.parametrize("kind, max_n, counts", [
    (KIND_TOPO, 4, ((6970, 0), (6970, 4234))),
    (KIND_GRAPH, 3, ((851, 0), (851, 448))),
    (KIND_LOOPLESS, 4, ((1322, 0), (1322, 692))),
])
def test_the_sweeps_first_theorem_path_decides_as_the_public_check(monkeypatch, kind, max_n, counts):
    # the sweep decides each map its search found on the pullback of y's
    # vector or mask, with no surjectivity or morphism check and no
    # partition: on every surjective morphism that pullback must be the
    # checked kernel's, and the decision check_first_iso's.  Both read y's
    # own vector or mask, so a broken one (y's under a rotation of its
    # points: y's own only where the rotation is an automorphism) makes
    # instances fail, which must fail on both paths and be counted by the sweep
    ops = KIND_OPS[kind]
    members = build_universe(kind, max_n).members

    def rotated(y):
        return ops.representation(ops.relabel(y, [(p + 1) % y.n for p in range(y.n)]))

    seen = []
    for representation in (ops.representation, rotated):
        patched = dataclasses.replace(ops, representation=representation)
        monkeypatch.setitem(KIND_OPS, kind, patched)
        decided = failing = 0
        for x in members:
            for y in members:
                for f in surjective_morphisms(x, y):
                    kernel = patched.pullback(y, f)
                    assert kernel == ops.vector(ops.kernel(x, y, f)), (x, y, f)
                    expected = check_first_iso(x, y, f)
                    assert verification._first_iso(patched, kernel, f, y) is expected, (x, y, f)
                    decided += 1
                    failing += not expected
        assert exhaustive_iso_theorems(kind, max_n)["first"] == failing
        seen.append((decided, failing))
    assert tuple(seen) == counts


def _identity_of_stage(ops):
    """A broken beta/alpha: the identity congruence of X/alpha."""
    return lambda x, alpha, beta: ops.identity(ops.quotient(x, alpha))


@pytest.mark.parametrize("kind, max_n, counts", [
    (KIND_TOPO, 4, ((70995, 0, 76), (70995, 67345, 76))),
    (KIND_GRAPH, 3, ((4902, 0, 0), (4902, 4178, 0))),
    (KIND_LOOPLESS, 4, ((3531, 0, 655), (3531, 3001, 655))),
])
def test_the_third_theorem_agrees_with_the_structures_oracle(monkeypatch, kind, max_n, counts):
    # every pair alpha <= beta among each member's congruences and its
    # partitions paired with the member's own vector or mask (no congruence
    # unless the partition is the identity), wherever the oracle can build
    # its sides.  Those pairs never fail: the left side reads only beta
    # carried to alpha's blocks, whatever alpha's vector.  So the pairs are
    # decided again with a broken beta/alpha, which both paths read, and
    # the failing instances are compared there
    ops = KIND_OPS[kind]
    pairs = []
    for x in build_universe(kind, max_n):
        own = ops.identity(x)
        thetas = ops.enum_congruences(x) + [type(own)(p, ops.vector(own)) for p in all_partitions(x.n)]
        pairs += [(x, alpha, beta) for alpha in thetas for beta in thetas if ops.le(alpha, beta)]
    seen = []
    for quotient_cong in (ops.quotient_cong, _identity_of_stage(ops)):
        monkeypatch.setitem(KIND_OPS, kind, dataclasses.replace(ops, quotient_cong=quotient_cong))
        decided = failing = refused = 0
        for x, alpha, beta in pairs:
            try:
                expected = third_iso_objects(x, alpha, beta)
            except SemanticError:
                refused += 1
                continue
            assert check_third_iso(x, alpha, beta) == expected, (x, alpha, beta)
            decided += 1
            failing += not expected
        seen.append((decided, failing, refused))
    assert tuple(seen) == counts


# the comparable pairs alpha <= beta over topo n <= 3, graph n <= 3 and loopless n <= 4
COMPARABLE_PAIRS = {KIND_TOPO: 901, KIND_GRAPH: 3818, KIND_LOOPLESS: 2634}


@pytest.mark.parametrize("kind, max_n, expected", [
    (KIND_TOPO, 3, (265, 2396, 235, 0)),
    (KIND_GRAPH, 3, (851, 7601, 682, 0)),
    (KIND_LOOPLESS, 4, (1322, 11126, 548, 0)),
])
def test_exhaustive_sweep_visits_every_instance(monkeypatch, kind, max_n, expected):
    # one pullback and one carry per surjective morphism (first theorem), two
    # carries per (congruence, subset) (second), one quotient congruence and
    # one carry per (alpha's partition, beta) with some alpha <= beta (third;
    # topo n <= 3: 265 + 2 x 948 + 235 carries), while each congruence's own
    # quotient side is the vector or mask its enumeration streams, carried
    # nowhere (142 carries fewer, one per congruence): zero failures cannot
    # show an instance that was skipped.  A passing sweep compares no pair
    ops = KIND_OPS[kind]
    counts = Counter()

    def counted(name):
        fn = getattr(ops, name)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    names = ("pullback", "carry", "quotient_cong", "le")
    monkeypatch.setitem(
        KIND_OPS, kind, dataclasses.replace(ops, **{name: counted(name) for name in names})
    )
    assert exhaustive_iso_theorems(kind, max_n) == NO_FAILURES
    assert tuple(counts[name] for name in names) == expected
    # a failed third-theorem decision counts every comparable pair it stands for
    monkeypatch.setattr(verification, "_third_iso", lambda *args: False)
    assert exhaustive_iso_theorems(kind, max_n)["third"] == COMPARABLE_PAIRS[kind]


@pytest.mark.parametrize("kind, max_n, groups", [
    (KIND_TOPO, 3, 235),
    (KIND_GRAPH, 3, 682),
    (KIND_LOOPLESS, 4, 548),
])
def test_the_third_theorem_reads_only_alphas_partition(kind, max_n, groups):
    # the sweep decides one alpha per (alpha's partition, beta) for all the
    # others: check that every alpha' <= beta on that partition has the same
    # beta/alpha' and the same (X/alpha')/(beta/alpha').  The one it decides
    # is the least congruence on the partition: a congruence of X that lies
    # below every beta on a coarser partition
    ops = KIND_OPS[kind]
    seen_pairs = 0
    left_sides = {}
    for x in build_universe(kind, max_n):
        congs = ops.enum_congruences(x)
        for part in {theta.part for theta in congs}:
            least = ops.strongify(x, part)
            assert least in congs, (x, part)
            for beta in congs:
                if part.refines(beta.part):
                    assert ops.le(least, beta), (x, part, beta)
        for alpha in congs:
            stage = ops.quotient(x, alpha)
            for beta in congs:
                if not ops.le(alpha, beta):
                    continue
                seen_pairs += 1
                cong = ops.quotient_cong(x, alpha, beta)
                side = (cong, ops.quotient(stage, cong))
                assert left_sides.setdefault((x, alpha.part, beta), side) == side, (x, alpha, beta)
    assert (seen_pairs, len(left_sides)) == (COMPARABLE_PAIRS[kind], groups)


@pytest.mark.parametrize("kind, max_n, pairs", [
    (KIND_TOPO, 3, 901),
    (KIND_GRAPH, 3, 3818),
    (KIND_LOOPLESS, 4, 2634),
])
def test_lift_reaches_each_congruence_above_once(monkeypatch, kind, max_n, pairs):
    # the correspondence theorem: lifting the congruences of X/alpha gives
    # every beta >= alpha exactly once.  The drawn congruence is replaced by
    # the one passed in, so random_above lifts each gamma it is handed
    ops = KIND_OPS[kind]
    monkeypatch.setitem(
        KIND_OPS, kind, dataclasses.replace(ops, random_congruence=lambda gamma, stage: gamma)
    )
    lifted_pairs = 0
    for x in build_universe(kind, max_n):
        congs = ops.enum_congruences(x)
        for alpha in congs:
            stage = ops.quotient(x, alpha)
            lifted = Counter(
                random_above(gamma, x, alpha) for gamma in ops.enum_congruences(stage)
            )
            assert lifted == Counter(beta for beta in congs if ops.le(alpha, beta)), (x, alpha)
            lifted_pairs += len(lifted)
    assert lifted_pairs == pairs


@pytest.mark.parametrize("kind", [KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS])
def test_random_above_draws_a_congruence_above(kind):
    ops = KIND_OPS[kind]
    rng = random.Random(17)
    for _ in range(300):
        x = ops.random_structure(rng, rng.randint(RANDOM_MIN_N, RANDOM_MAX_N))
        alpha = ops.random_congruence(rng, x)
        beta = random_above(rng, x, alpha)
        ops.validate(x, beta)
        assert ops.le(alpha, beta), (x, alpha, beta)


@pytest.mark.parametrize("kind, max_n", SWEEPS)
def test_the_sweep_builds_no_structure_past_its_universe(monkeypatch, kind, max_n):
    # every side of every instance is a carried vector or mask: no quotient
    # or substructure is built (topo n <= 3 built 2,256 quotients once, then
    # 377), and no space or graph is constructed beyond the universe's
    # members, which are enumerated once per process: so once they are
    # listed, the sweep constructs none
    build_universe(kind, max_n)
    ops = KIND_OPS[kind]
    cls = FiniteSpace if kind == KIND_TOPO else FiniteGraph
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    names = ("quotient", "substructure")
    monkeypatch.setitem(
        KIND_OPS, kind, dataclasses.replace(ops, **{name: counted(name, getattr(ops, name)) for name in names})
    )
    monkeypatch.setattr(cls, "__post_init__", counted("built", cls.__post_init__))
    assert exhaustive_iso_theorems(kind, max_n) == NO_FAILURES
    assert (counts["quotient"], counts["substructure"], counts["built"]) == (0, 0, 0)


def _verify(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run_command(argv)
    return status, out.getvalue(), err.getvalue()


def _live_least_plans() -> int:
    """How many carry plans of least-open vectors are alive."""
    collect()
    return sum(isinstance(o, structures._Lazy) and getattr(o.fill, "func", None) is structures._union_of
               for o in get_objects())


def test_no_carry_plan_outlives_its_sweep(monkeypatch):
    # the exhaustive sweep plans each map it carries along once and holds
    # the plans while it runs; a single carry, such as a seeded instance's,
    # builds its own, and only the maps the calculus reuses across
    # structures (subset maps, class maps, bijections) are cached.  So after
    # a verify run every live plan is a cached one (48 partitions' class
    # maps), where a cache of every plan handed to the carry kept 127, 98 of
    # them the seeded instances' one-off maps
    built = []
    plan = KIND_OPS[KIND_TOPO].plan

    def counted(image, m):
        built.append((image, m))
        return plan(image, m)

    monkeypatch.setitem(KIND_OPS, KIND_TOPO, dataclasses.replace(KIND_OPS[KIND_TOPO], plan=counted))
    assert exhaustive_iso_theorems(KIND_TOPO, 3) == NO_FAILURES
    assert len(built) == len(set(built)) == 29
    monkeypatch.undo()
    structures._shared_plan.cache_clear()
    status, _, _ = _verify("verify --kind topo --max-n 3 --samples 50 --seed 7".split())
    assert status == 0
    cached = structures._shared_plan.cache_info().currsize
    assert _live_least_plans() == cached == 48


def _live_slot_plans() -> int:
    """How many carry plans of edge masks are alive."""
    collect()
    return sum(isinstance(o, structures._Lazy)
               and getattr(o.fill, "__qualname__", None) == "_slot_plan.<locals>.fill"
               for o in get_objects())


def test_no_graph_carry_plan_outlives_its_sweep(monkeypatch):
    # the graph twin of the test above: the sweep holds the plans it carries
    # along, a theorem instance's carry builds its own, and only the maps the
    # calculus reuses (subset maps, class maps, bijections and the maps a
    # kernel pulls back along) are cached.  So after a verify run every live
    # plan is a cached one, where a cache of every plan handed to the carry
    # kept 113, the seeded instances' one-off second-theorem maps among them
    built = []
    plan = KIND_OPS[KIND_GRAPH].plan

    def counted(image, m):
        built.append((image, m))
        return plan(image, m)

    monkeypatch.setitem(KIND_OPS, KIND_GRAPH, dataclasses.replace(KIND_OPS[KIND_GRAPH], plan=counted))
    assert exhaustive_iso_theorems(KIND_GRAPH, 3) == NO_FAILURES
    assert len(built) == len(set(built)) == 29
    monkeypatch.undo()
    structures._slot_images.cache_clear()
    status, _, _ = _verify("verify --kind graph --max-n 3 --samples 50 --seed 7".split())
    assert status == 0
    cached = structures._slot_images.cache_info().currsize
    assert _live_slot_plans() == cached == 69


@pytest.mark.parametrize("kind", [KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS])
def test_the_sweeps_count_the_instances_a_broken_op_fails(monkeypatch, kind):
    # a sweep that could never count a failure would still print PASS, so
    # break the carry (each call gives a side equal to nothing), which every
    # theorem reads, then the quotient congruence, and see each counted
    ops = KIND_OPS[kind]
    monkeypatch.setitem(KIND_OPS, kind, dataclasses.replace(ops, carry=lambda *a: object()))
    for failures in (exhaustive_iso_theorems(kind, 2), random_iso_theorems(kind, 30, seed=3)):
        assert failures["first"] > 0 and failures["second"] > 0 and failures["third"] > 0
    status, stdout, _ = _verify(["verify", "--kind", kind, "--max-n", "2", "--samples", "30"])
    assert status == 1
    assert f"CHECK {kind}-first-exhaustive FAIL" in stdout
    assert f"CHECK {kind}-second-random FAIL" in stdout
    assert f"CHECK {kind}-third-exhaustive FAIL" in stdout

    monkeypatch.setitem(KIND_OPS, kind, dataclasses.replace(ops, quotient_cong=_identity_of_stage(ops)))
    for failures in (exhaustive_iso_theorems(kind, 2), random_iso_theorems(kind, 30, seed=3)):
        assert failures["first"] == failures["second"] == 0 and failures["third"] > 0
    status, stdout, _ = _verify(["verify", "--kind", kind, "--max-n", "2", "--samples", "30"])
    assert status == 1
    assert f"CHECK {kind}-third-exhaustive FAIL" in stdout
    assert f"CHECK {kind}-third-random FAIL" in stdout


def test_topo_verify_at_four_is_pinned(monkeypatch):
    monkeypatch.delenv("CONRAD_MAX_N", raising=False)
    status, stdout, _ = _verify("verify --kind topo --max-n 4 --samples 50".split())
    assert status == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "250bc588dcb4bbabd7caaf9e530db00927f8ac01c55b6a3eeada4d6dbfeadf97"
    )


def test_topo_verify_at_five_is_pinned(monkeypatch):
    # the whole n <= 5 topo universe: 2,146,692 second-theorem instances,
    # under the sweep bound since the theorems are decided on carried vectors
    monkeypatch.setenv("CONRAD_MAX_N", "5")
    status, stdout, _ = _verify("verify --kind topo --max-n 5 --samples 0".split())
    assert status == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "9e11ab7bed2c9a013ea017e612ee25a48247a4d0785622f3b6d5a3495045070d"
    )


@pytest.mark.parametrize("kind, max_n, env", [
    pytest.param(KIND_GRAPH, 5, None, id="graph-5"),
    pytest.param(KIND_LOOPLESS, 6, None, id="loopless-6"),
    # the enumerator admits topo n <= 6 under CONRAD_MAX_N=6, so the sweep
    # bound is what refuses it
    pytest.param(KIND_TOPO, 6, "6", id="topo-6"),
])
def test_a_sweep_past_the_scan_bound_is_refused_at_once(monkeypatch, kind, max_n, env):
    # graph n <= 5 has 18,703,858 second-theorem instances and loopless
    # n <= 6 14,450,288; each is refused once the listed congruences pass the
    # bound, before any instance is checked
    if env is None:
        monkeypatch.delenv("CONRAD_MAX_N", raising=False)
    else:
        monkeypatch.setenv("CONRAD_MAX_N", env)
    carried = []
    ops = KIND_OPS[kind]
    monkeypatch.setitem(KIND_OPS, kind, dataclasses.replace(ops, carry=lambda *args: carried.append(args)))
    argv = ["verify", "--kind", kind, "--max-n", str(max_n), "--samples", "0"]
    start = time.perf_counter()
    status, stdout, stderr = _verify(argv)
    assert time.perf_counter() - start < 30
    assert status == 2
    assert "CHECK" not in stdout
    assert stderr == "error: theorem sweep capped at 4000000 congruence-subset pairs\n"
    assert not carried
