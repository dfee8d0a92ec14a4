"""Radical engine: Hoehnke radicals, KA triple, catalogs, operators, pairs."""

import dataclasses
import itertools
import random

import pytest

from conrad import graph_congruence as gc
from conrad import topo_congruence as tc
from conrad import radical_engine, structures
from conrad.errors import (
    BadCatalogId,
    BoundExceeded,
    CheckDefect,
    EmptyList,
    InvalidCongruence,
    KindMismatch,
    KindUnsupported,
    LemmaConditionFailed,
    NoQualifyingCongruence,
    NotContinuous,
    NotHomomorphism,
    NotSaturated,
    NotSurjective,
    SubstitutionViolated,
)
from conrad.radical_engine import (
    GRAPH_CATALOG_IDS,
    KIND_GRAPH,
    KIND_LOOPLESS,
    KIND_OPS,
    KIND_TOPO,
    RadicalAssignment,
    TOPO_CATALOG_IDS,
    S_operator,
    U_operator,
    build_universe,
    builtin_class,
    c_congruence_p,
    check_subdirect,
    catalog_graph,
    catalog_radical,
    catalog_topological,
    class_from_members,
    class_predicate,
    complementary_pair_check,
    h1_failures,
    h1_holds,
    h2_failures,
    hereditary_torsion_theory,
    hoehnke_radical,
    ideal_hereditary,
    in_radical_class,
    is_complete,
    is_connectedness,
    is_disconnectedness,
    is_idempotent,
    is_strong,
    is_strong_everywhere,
    ka_triple,
    kind_of,
    loopless_degeneracy_check,
    radical_from_class,
    radical_members,
    rho_sum,
    semisimple_class_hereditary,
    semisimple_members,
    strong_congruences,
    subdirect_closure,
    surjective_morphisms,
    universe_from_members,
    verify_H1,
    verify_H2,
)
from conrad.structures import (
    B1,
    B2,
    B3,
    B4,
    B6,
    B_SET,
    D2,
    I2,
    LOOPS,
    Partition,
    S2,
    T0,
    T,
    T_SPACE,
    _nonempty_subsets,
    complete_graph,
    discrete_space,
    edgeless_graph,
    graph,
    homeo_spaces,
    indiscrete_space,
    is_surjective,
    path_graph,
    space,
    subspace,
)
from conrad.verification import check_first_iso

import oracles

UNI_TOPO = build_universe(KIND_TOPO, 3)
UNI_GRAPH = build_universe(KIND_GRAPH, 3)
UNI_LL3 = build_universe(KIND_LOOPLESS, 3)
UNI_LL4 = build_universe(KIND_LOOPLESS, 4)


def test_kind_of():
    assert kind_of(S2) == KIND_TOPO
    assert kind_of(B1) == KIND_GRAPH
    assert kind_of(path_graph(3)) == KIND_LOOPLESS


# ---------------------------------------------------------------------------
# Hoehnke radical of a class
# ---------------------------------------------------------------------------

def test_hoehnke_radical_examples():
    assert hoehnke_radical(I2, builtin_class("topo", "t0")) == tc.universal_tc(I2)
    assert hoehnke_radical(D2, builtin_class("topo", "indiscrete")) == tc.TopoCongruence.from_opens(
        Partition.identity(2), frozenset({frozenset(), D2.full})
    )
    complete_cls = builtin_class("loopless", "complete")
    for g in UNI_LL4.members:
        assert hoehnke_radical(g, complete_cls) == gc.identity_gc(g)


def test_hoehnke_radical_kind_mismatch():
    with pytest.raises(KindMismatch):
        hoehnke_radical(B1, builtin_class("topo", "all"))


def test_hoehnke_radical_no_qualifying():
    with pytest.raises(NoQualifyingCongruence):
        hoehnke_radical(complete_graph(2), builtin_class("loopless", "edgeless"))


def test_radical_minimality():
    # the radical sits below every congruence whose quotient is in the class
    for cls_name in ("t0", "indiscrete", "trivial", "all"):
        cls = builtin_class("topo", cls_name)
        sigma = radical_from_class(cls)
        for x in UNI_TOPO.members:
            value = sigma(x)
            for theta in tc.enumerate_congruences_tc(x):
                q = tc.quotient_tc(x, theta)
                if cls(q):
                    assert tc.le_tc(value, theta)


def test_radical_quotient_in_subdirect_closure():
    for cls_name in ("t0", "indiscrete", "trivial", "all", "s2-i2"):
        cls = builtin_class("topo", cls_name)
        sigma = radical_from_class(cls)
        closure = subdirect_closure(cls, UNI_TOPO)
        from conrad.structures import homeo_spaces

        for x in UNI_TOPO.members:
            q = tc.quotient_tc(x, sigma(x))
            assert any(homeo_spaces(q, m) is not None for m in closure)


# every built-in class that admits quotients for every member (all of them,
# except the loopless ones missing a complete graph) yields an H-radical
ELIGIBLE_BUILTINS = (
    (KIND_TOPO, UNI_TOPO, ("all", "trivial", "indiscrete", "t0", "t1",
                           "t1-or-indiscrete", "s2-i2")),
    (KIND_GRAPH, UNI_GRAPH, ("all", "trivial", "trivial-looped",
                             "at-most-one-loop", "all-looped",
                             "trivial-or-all-looped", "complete-looped",
                             "loop-clique", "loop-dominated")),
    (KIND_LOOPLESS, UNI_LL3, ("all", "complete", "contains-k1", "contains-k2")),
)


def test_from_class_radicals_are_h_radicals():
    # H1 across all surjective morphisms and H2 on every member
    for kind, uni, names in ELIGIBLE_BUILTINS:
        for name in names:
            sigma = radical_from_class(builtin_class(kind, name))
            assert not h1_failures(sigma, uni), (kind, name)
            assert not h2_failures(sigma, uni), (kind, name)


def test_from_class_radical_minimality_all_kinds():
    for kind, uni, names in ELIGIBLE_BUILTINS:
        ops = KIND_OPS[kind]
        for name in names:
            cls = builtin_class(kind, name)
            sigma = radical_from_class(cls)
            for x in uni.members:
                value = sigma(x)
                for theta in ops.enum_congruences(x):
                    q = ops.quotient(x, theta)
                    if cls(q):
                        assert ops.le(value, theta), (kind, name)


def test_from_class_radical_quotient_in_closure_all_kinds():
    for kind, uni, names in ELIGIBLE_BUILTINS:
        ops = KIND_OPS[kind]
        for name in names:
            cls = builtin_class(kind, name)
            sigma = radical_from_class(cls)
            closure = subdirect_closure(cls, uni)
            for x in uni.members:
                q = ops.quotient(x, sigma(x))
                assert any(
                    q.n == m.n and ops.iso(q, m) is not None for m in closure
                ), (kind, name)


def test_in_radical_class_edgeless_subtlety():
    # for graphs the radical-class test is quotient-is-trivial, not value==universal
    sigma = catalog_radical(KIND_GRAPH, "a")
    assert in_radical_class(sigma, B1)
    assert sigma(B1) != gc.universal_gc(B1)
    assert sigma(B1) == gc.GraphCongruence.from_pairs(Partition.universal(2), [])


# ---------------------------------------------------------------------------
# H1 / H2 directly
# ---------------------------------------------------------------------------

def test_verify_h1_h2_identity_rule():
    sigma = catalog_radical(KIND_TOPO, "c")
    for x in UNI_TOPO.members:
        assert verify_H2(sigma, x)
        for y in UNI_TOPO.members:
            for f in surjective_morphisms(x, y):
                assert verify_H1(sigma, x, y, f)


def test_universal_rule_is_h_radical_on_graphs():
    # the quotient by the universal congruence is T0, whose only congruence
    # is its identity, so H2 holds for the universal rule everywhere
    sigma = catalog_radical(KIND_GRAPH, "b")
    assert verify_H2(sigma, B1)
    q = gc.quotient_gc(B1, gc.universal_gc(B1))
    assert q == T0
    assert not h2_failures(sigma, UNI_GRAPH)


def test_verify_h2_detects_broken_rule():
    # merging the first two points of the quotient again breaks H2 on any
    # carrier whose radical quotient keeps at least two points
    def broken(x):
        if x.n >= 2:
            return tc.strongify_tc(x, Partition((0, 0) + tuple(range(1, x.n - 1))))
        return tc.identity_tc(x)

    sigma = RadicalAssignment("merge-first-two", broken)
    chain3 = space(3, [[], [0], [0, 1], [0, 1, 2]])
    assert not verify_H2(sigma, chain3)


def _universal_on_three(kind):
    """A rule that breaks H1: a top congruence on 3-element carriers and the
    identity elsewhere.  Loopless blocks must be independent, so the loopless
    top keeps the identity partition and takes every pair as an edge."""
    top = {
        KIND_TOPO: tc.universal_tc,
        KIND_GRAPH: gc.universal_gc,
        KIND_LOOPLESS: lambda g: gc.GraphCongruence(Partition.identity(g.n), g.all_pairs),
    }[kind]
    identity = KIND_OPS[kind].identity
    return RadicalAssignment("top-on-three", lambda x: top(x) if x.n == 3 else identity(x))


@pytest.mark.parametrize("kind, count, witness", [
    (KIND_TOPO, 86, (indiscrete_space(3), I2, (0, 0, 1))),
    (KIND_GRAPH, 227, (edgeless_graph(3, LOOPS), T, (0, 0, 0))),
    (KIND_LOOPLESS, 19, (edgeless_graph(3), complete_graph(1), (0, 0, 0))),
])
def test_h1_failures_detect_broken_rule(kind, count, witness):
    failures = h1_failures(_universal_on_three(kind), build_universe(kind, 3))
    assert len(failures) == count
    assert failures[0] == witness


def test_h1_comparison_matches_image_oracle():
    # the pointwise comparison agrees with both image constructions for
    # every surjective morphism and every pair of congruences
    compared = 0
    for kind, max_n, image, image_direct in (
        (KIND_TOPO, 3, tc.image_tc, oracles.image_tc_direct),
        (KIND_GRAPH, 2, gc.image_gc, oracles.image_gc_direct),
    ):
        ops = KIND_OPS[kind]
        uni = build_universe(kind, max_n)
        congruences = {x: ops.enum_congruences(x) for x in uni}
        for x in uni:
            for y in uni:
                for f in surjective_morphisms(x, y):
                    for theta in congruences[x]:
                        composed = image(x, y, f, theta)
                        direct = image_direct(x, y, f, theta)
                        for beta in congruences[y]:
                            expected = ops.le(composed, beta)
                            assert ops.le(direct, beta) == expected
                            assert ops.image_le(x, y, f, theta, beta) == expected, (x, y, f)
                            compared += 1
    assert compared == 48_928


def _product_scan(kind, x, y):
    """Every map x -> y in lexicographic order, kept if a surjective morphism."""
    return [
        f for f in itertools.product(range(y.n), repeat=x.n)
        if is_surjective(f, y.n) and oracles.is_morphism(x, y, f)
    ]


def test_surjective_morphisms_match_product_scan():
    # the backtracking search finds the same maps in the same order as
    # filtering every map, on every pair of each universe
    totals = {}
    for kind, max_n in ((KIND_TOPO, 4), (KIND_GRAPH, 3), (KIND_LOOPLESS, 4)):
        uni = build_universe(kind, max_n)
        totals[kind] = 0
        for x in uni:
            for y in uni:
                found = surjective_morphisms(x, y)
                assert found == _product_scan(kind, x, y), (x, y)
                totals[kind] += len(found)
    assert totals == {KIND_TOPO: 6_970, KIND_GRAPH: 851, KIND_LOOPLESS: 1_322}
    # and on seeded pairs past the universes: 5 points onto 2 to 4
    rng = random.Random(17)
    seeded = {}
    for kind in (KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS):
        ops = KIND_OPS[kind]
        seeded[kind] = 0
        for _ in range(40):
            x = ops.random_structure(rng, 5)
            y = ops.random_structure(rng, rng.randint(2, 4))
            found = surjective_morphisms(x, y)
            assert found == _product_scan(kind, x, y), (x, y)
            seeded[kind] += len(found)
    assert seeded == {KIND_TOPO: 1_678, KIND_GRAPH: 81, KIND_LOOPLESS: 356}


def test_the_search_views_find_the_maps_of_the_relation_search():
    # each structure's search view is built once and read by every search
    # from or onto it: on every ordered pair of each universe the maps must
    # be those of the search that rebuilt its tables from the kind's
    # relation on every call, [] where y is larger than x
    totals = {}
    for kind, max_n in ((KIND_TOPO, 4), (KIND_GRAPH, 4), (KIND_LOOPLESS, 5)):
        members = build_universe(kind, max_n).members
        larger = maps = 0
        for x in members:
            for y in members:
                found = surjective_morphisms(x, y)
                assert found == oracles.surjective_morphisms_by_relation(x, y), (x, y)
                larger += y.n > x.n
                maps += len(found)
        totals[kind] = (len(members) ** 2, larger, maps)
    assert totals == {
        KIND_TOPO: (2_116, 468, 6_970),
        KIND_GRAPH: (13_924, 2_692, 29_844),
        KIND_LOOPLESS: (2_704, 703, 31_785),
    }
    # a codomain larger than the domain is refused before either view is built
    x, y = discrete_space(2), discrete_space(3)
    assert surjective_morphisms(x, y) == []
    assert "search_view" not in vars(x) and "search_view" not in vars(y)


def test_universe_searches_each_pair_once(monkeypatch):
    # h1_failures takes its maps from the universe's memo, which calls the
    # module-level search once per pair, however many radicals are checked
    calls = []
    search = radical_engine.surjective_morphisms

    def counted(x, y):
        calls.append((x, y))
        return search(x, y)

    monkeypatch.setattr(radical_engine, "surjective_morphisms", counted)
    uni = build_universe(KIND_GRAPH, 3)
    sigmas = [catalog_radical(KIND_GRAPH, cid) for cid in GRAPH_CATALOG_IDS]
    sigmas.append(_universal_on_three(KIND_GRAPH))
    failures = [h1_failures(sigma, uni) for sigma in sigmas]
    assert len(uni.members) == 28
    assert len(calls) == len(set(calls)) == 28 * 28
    expected = [
        [(x, y, f) for x in uni for y in uni for f in _product_scan(KIND_GRAPH, x, y)
         if not verify_H1(sigma, x, y, f)]
        for sigma in sigmas
    ]
    assert failures == expected
    assert [len(found) for found in failures] == [0] * 8 + [227]
    assert uni == build_universe(KIND_GRAPH, 3)
    assert hash(uni) == hash(build_universe(KIND_GRAPH, 3))


def test_verify_h1_rejects_maps_that_are_not_surjective_morphisms():
    cases = (
        (catalog_radical(KIND_TOPO, "c"), S2, S2, (1, 0), NotContinuous),
        (catalog_radical(KIND_GRAPH, "f"), B2, B1, (0, 1), NotHomomorphism),
        (radical_from_class(builtin_class(KIND_LOOPLESS, "all")),
         path_graph(2), edgeless_graph(2), (0, 1), NotHomomorphism),
    )
    for sigma, x, y, bad_map, error in cases:
        with pytest.raises(NotSurjective):
            verify_H1(sigma, x, y, (0, 0))
        with pytest.raises(error):
            verify_H1(sigma, x, y, bad_map)
    # a surjective map listing more or fewer images than x has points is
    # refused by the kernel, which names both counts
    loops3, loops2 = graph(3, LOOPS, [(0, 0), (1, 1), (2, 2)]), graph(2, LOOPS, [(0, 0), (1, 1)])
    lengths = (
        (catalog_radical(KIND_GRAPH, "a"), loops3, loops2, NotHomomorphism, "vertices"),
        (catalog_radical(KIND_TOPO, "a"), discrete_space(3), D2, NotContinuous, "points"),
        (radical_from_class(builtin_class(KIND_LOOPLESS, "all")),
         edgeless_graph(3), edgeless_graph(2), NotHomomorphism, "vertices"),
    )
    for sigma, x, y, error, unit in lengths:
        for f in ((0, 1, 1, 0), (0, 1)):
            with pytest.raises(error) as err:
                verify_H1(sigma, x, y, f)
            assert str(err.value) == f"the map has {len(f)} images for 3 {unit}"
    with pytest.raises(NotContinuous, match="the map has 4 images for 3 points"):
        check_first_iso(discrete_space(3), D2, (0, 1, 1, 0))
    with pytest.raises(NotContinuous, match="the map has 4 images for 3 points"):
        tc.kernel_tc(discrete_space(3), D2, (0, 1, 1, 0))
    # so is a map of the right length with an image outside the codomain,
    # which each kernel used to accept or crash on, depending on the value
    for f in ((0, 5), (0, -1)):
        with pytest.raises(NotContinuous, match=r"^the map's images must lie in 0\.\.1$"):
            tc.kernel_tc(D2, D2, f)
        with pytest.raises(NotHomomorphism, match=r"^the map's images must lie in 0\.\.1$"):
            gc.kernel_gc(B4, B4, f)


@pytest.mark.parametrize("kind", [KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS])
def test_h1_failures_do_not_recheck_the_universe_maps(monkeypatch, kind):
    # the universe's search produced every map, so the sweep makes no
    # surjectivity or morphism check; verify_H1 still checks a caller's map
    checks = []

    def counted(name, check):
        def wrapper(*args):
            checks.append(name)
            return check(*args)

        return wrapper

    monkeypatch.setattr(structures, "is_surjective", counted("is_surjective", structures.is_surjective))
    # the kind's kernel is the one morphism test
    ops = KIND_OPS[kind]
    monkeypatch.setitem(KIND_OPS, kind, dataclasses.replace(ops, kernel=counted("kernel", ops.kernel)))
    sigma = _universal_on_three(kind)
    failures = h1_failures(sigma, build_universe(kind, 3))
    assert len(failures) == {KIND_TOPO: 86, KIND_GRAPH: 227, KIND_LOOPLESS: 19}[kind]
    assert checks == []
    assert not verify_H1(sigma, *failures[0])
    assert checks == ["is_surjective", "kernel"]


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

def test_catalog_topological_values():
    assert catalog_topological(S2, "a") == tc.universal_tc(S2)
    assert catalog_topological(S2, "b") == tc.identity_tc(S2)  # S2 is T0
    assert catalog_topological(I2, "b") == tc.universal_tc(I2)
    assert catalog_topological(S2, "c") == tc.identity_tc(S2)
    assert catalog_topological(S2, "e") == tc.TopoCongruence.from_opens(
        Partition.identity(2), frozenset({frozenset(), S2.full})
    )
    with pytest.raises(BadCatalogId):
        catalog_topological(S2, "z")


def test_catalog_topological_b_is_valid_and_strong():
    for x in UNI_TOPO.members:
        value = catalog_topological(x, "b")
        tc.validate_tc(x, value)
        assert oracles.is_strong_tc(x, value)


def test_catalog_graph_values():
    assert catalog_graph(B3, "c") == gc.identity_gc(B3)
    assert catalog_graph(B4, "c") == gc.strongify_gc(B4, Partition.universal(2))
    q = gc.quotient_gc(B4, catalog_graph(B4, "c"))
    assert q == T0
    assert catalog_graph(B6, "e") == gc.identity_gc(B6)
    assert catalog_graph(B1, "b") == gc.universal_gc(B1)
    with pytest.raises(BadCatalogId):
        catalog_graph(B1, "z")
    with pytest.raises(KindMismatch):
        catalog_graph(path_graph(2), "a")


def test_catalog_b_matches_radical_of_t0_singleton():
    cls = builtin_class("graph", "trivial-looped")
    for g in UNI_GRAPH.members:
        assert catalog_graph(g, "b") == hoehnke_radical(g, cls)


def test_catalog_values_are_valid_congruences():
    for x in UNI_TOPO.members:
        for cid in TOPO_CATALOG_IDS:
            tc.validate_tc(x, catalog_topological(x, cid))
    for g in UNI_GRAPH.members:
        for cid in GRAPH_CATALOG_IDS:
            gc.validate_gc(g, catalog_graph(g, cid))


def test_semisimple_traces_over_b_set():
    uni_b = universe_from_members(B_SET)
    names = dict(zip(B_SET, ("B1", "B2", "B3", "B4", "B5", "B6")))
    expected = {
        "a": set(),
        "b": set(),
        "c": {"B1", "B2", "B3", "B5"},
        "d": {"B4", "B6"},
        "e": {"B6"},
        "f": {"B1", "B2", "B3", "B4", "B5", "B6"},
        "g": {"B1", "B2", "B3", "B5", "B6"},
        "h": {"B1", "B2", "B5", "B6"},
    }
    for cid in GRAPH_CATALOG_IDS:
        sigma = catalog_radical(KIND_GRAPH, cid)
        got = {names[g] for g in semisimple_members(sigma, uni_b)}
        assert got == expected[cid], cid


def test_universe_from_members_reads_the_kind_from_its_members():
    # two loop-admitting graphs make a graph universe, so a loopless class is
    # refused on it instead of answering on graphs with loops
    pool = (graph(2, LOOPS, [(0, 1)]), graph(2, LOOPS, [(0, 0), (0, 1)]))
    uni = universe_from_members(pool)
    assert (uni.kind, uni.max_n, uni.members) == (KIND_GRAPH, 2, pool)
    with pytest.raises(KindMismatch, match="'edgeless' is a loopless class, universe is graph"):
        U_operator(builtin_class(KIND_LOOPLESS, "edgeless"), uni)


@pytest.mark.parametrize("pool, error, message", [
    ([S2, graph(2, LOOPS, [(0, 1)])], KindMismatch,
     "a universe holds one kind, got graph and topo structures"),
    ([graph(2, LOOPS, [(0, 1)]), path_graph(2)], KindMismatch,
     "a universe holds one kind, got graph and loopless structures"),
    ([], EmptyList, "a universe needs at least one member"),
])
def test_universe_from_members_refuses_a_pool_without_one_kind(pool, error, message):
    with pytest.raises(error, match=message):
        universe_from_members(pool)


def test_catalog_classes_match_descriptions():
    # semisimple and radical classes of every catalog entry, whole universe
    semis_expected = {
        "a": "trivial",
        "b": "trivial-looped",
        "c": "at-most-one-loop",
        "d": "all-looped",
        "e": "complete-looped",
        "f": "all",
        "g": "loop-clique",
        "h": "loop-dominated",
    }
    rads_expected = {
        "a": "all", "b": "all",
        "c": "trivial-or-all-looped",
        "d": "trivial", "e": "trivial", "f": "trivial",
        "g": "trivial", "h": "trivial",
    }
    for cid in GRAPH_CATALOG_IDS:
        sigma = catalog_radical(KIND_GRAPH, cid)
        semis = {g.encoding() for g in semisimple_members(sigma, UNI_GRAPH)}
        cls = builtin_class(KIND_GRAPH, semis_expected[cid])
        assert semis == {g.encoding() for g in UNI_GRAPH.members if cls(g)}, cid
        rads = {g.encoding() for g in radical_members(sigma, UNI_GRAPH)}
        cls = builtin_class(KIND_GRAPH, rads_expected[cid])
        assert rads == {g.encoding() for g in UNI_GRAPH.members if cls(g)}, cid


def test_topo_catalog_classes_match_descriptions():
    semis_expected = {"a": "trivial", "b": "t0", "c": "all",
                      "d": "indiscrete", "e": "indiscrete"}
    rads_expected = {"a": "all", "b": "indiscrete", "c": "trivial",
                     "d": "trivial", "e": "trivial"}
    for cid in TOPO_CATALOG_IDS:
        sigma = catalog_radical(KIND_TOPO, cid)
        semis = {x.encoding() for x in semisimple_members(sigma, UNI_TOPO)}
        cls = builtin_class(KIND_TOPO, semis_expected[cid])
        assert semis == {x.encoding() for x in UNI_TOPO.members if cls(x)}, cid
        rads = {x.encoding() for x in radical_members(sigma, UNI_TOPO)}
        cls = builtin_class(KIND_TOPO, rads_expected[cid])
        assert rads == {x.encoding() for x in UNI_TOPO.members if cls(x)}, cid


def test_catalog_entries_are_radicals_of_their_semisimple_classes():
    # every entry equals the meet of all congruences with semisimple quotient
    graph_semis = {"a": "trivial", "b": "trivial-looped", "c": "at-most-one-loop",
                   "d": "all-looped", "e": "complete-looped", "f": "all",
                   "g": "loop-clique", "h": "loop-dominated"}
    for cid, cls_name in graph_semis.items():
        cls = builtin_class(KIND_GRAPH, cls_name)
        for g in UNI_GRAPH.members:
            assert catalog_graph(g, cid) == hoehnke_radical(g, cls), (cid, g)
    topo_semis = {"a": "trivial", "b": "t0", "c": "all",
                  "d": "indiscrete", "e": "indiscrete"}
    for cid, cls_name in topo_semis.items():
        cls = builtin_class(KIND_TOPO, cls_name)
        for x in UNI_TOPO.members:
            assert catalog_topological(x, cid) == hoehnke_radical(x, cls), (cid, x)


def test_class_predicate_factory_enforces_trivial_membership():
    from conrad.errors import ConradError
    from conrad.radical_engine import class_predicate

    pred = class_predicate("spaces-with-few-opens", KIND_TOPO,
                           lambda x: len(x.opens) <= 3)
    assert pred(S2) and pred(T_SPACE) and not pred(D2)
    with pytest.raises(ConradError):
        class_predicate("no-trivial", KIND_TOPO, lambda x: x.n >= 2)


def test_radical_members_examples():
    sigma = catalog_radical(KIND_GRAPH, "c")
    rads = radical_members(sigma, UNI_GRAPH)
    for g in rads:
        assert g.n == 1 or g.loop_vertices == frozenset(range(g.n))
    sigma = catalog_radical(KIND_TOPO, "b")
    rads = radical_members(sigma, UNI_TOPO)
    assert all(x.is_indiscrete() for x in rads)
    semis = semisimple_members(sigma, UNI_TOPO)
    assert all(x.is_t0() for x in semis)


# ---------------------------------------------------------------------------
# KA triple
# ---------------------------------------------------------------------------

def test_ka_triple_topo():
    for cid in TOPO_CATALOG_IDS:
        verdict = ka_triple(catalog_radical(KIND_TOPO, cid), UNI_TOPO)
        assert verdict["ka"] == (cid in ("a", "b", "c")), cid
        if cid in ("d", "e"):
            assert verdict["complete"][0] and verdict["idempotent"][0]
            ok, witness = verdict["strong"]
            assert not ok and witness[0] == S2


def test_ka_triple_graph():
    for cid in GRAPH_CATALOG_IDS:
        verdict = ka_triple(catalog_radical(KIND_GRAPH, cid), UNI_GRAPH)
        assert verdict["ka"] == (cid in ("a", "c", "f")), cid
        if cid not in ("a", "c", "f"):
            assert not verdict["strong"][0]
            assert verdict["complete"][0] and verdict["idempotent"][0]


def test_strong_everywhere_witness_example():
    # on the two-point universe the first non-strong carrier for entry (d) is
    # S2, and the witness carries the value that is not strong
    uni2 = build_universe(KIND_TOPO, 2)
    ok, witness = is_strong_everywhere(catalog_radical(KIND_TOPO, "d"), uni2)
    assert not ok and witness == (S2, catalog_topological(S2, "d"))


# universal on carriers of at most two points, identity on three
UNIVERSAL_BELOW_THREE = RadicalAssignment(
    "universal-below-three", lambda x: tc.universal_tc(x) if x.n <= 2 else tc.identity_tc(x)
)


def test_completeness_fails_with_a_strong_witness_above_the_radical():
    ok, (x, theta) = is_complete(UNIVERSAL_BELOW_THREE, UNI_TOPO)
    assert not ok and x == indiscrete_space(3) and theta.part == Partition((0, 0, 1))
    # the definition: a strong congruence whose blocks lie in the radical
    # class, yet not below the radical
    assert is_strong(x, theta)
    assert all(
        in_radical_class(UNIVERSAL_BELOW_THREE, subspace(x, block)) for block in theta.part.blocks
    )
    assert not tc.le_tc(theta, UNIVERSAL_BELOW_THREE(x))


def test_idempotence_fails_on_a_block_outside_the_radical_class():
    # merging the first two points of every three-point carrier, identity elsewhere
    sigma = RadicalAssignment("merge-on-three", lambda x: (
        tc.strongify_tc(x, Partition((0, 0, 1))) if x.n == 3 else tc.identity_tc(x)
    ))
    ok, (x, block) = is_idempotent(sigma, UNI_TOPO)
    assert not ok and x == indiscrete_space(3) and block == (0, 1)
    assert block in sigma(x).part.blocks
    assert not in_radical_class(sigma, subspace(x, block))


# ---------------------------------------------------------------------------
# Hereditariness, both notions
# ---------------------------------------------------------------------------

def test_topo_catalog_ideal_hereditary():
    for cid in TOPO_CATALOG_IDS:
        sigma = catalog_radical(KIND_TOPO, cid)
        assert ideal_hereditary(sigma, UNI_TOPO)[0], cid
        assert hereditary_torsion_theory(sigma, UNI_TOPO)[0], cid


def test_graph_catalog_class_level_hereditary():
    for cid in GRAPH_CATALOG_IDS:
        sigma = catalog_radical(KIND_GRAPH, cid)
        assert hereditary_torsion_theory(sigma, UNI_GRAPH)[0], cid


def test_graph_catalog_congruence_level_split():
    # restriction comparison holds for the diagonal-partition entries only;
    # saturation picks up loop slots from outside the subset for (a) and (c)
    strict_pass = [
        cid for cid in GRAPH_CATALOG_IDS
        if ideal_hereditary(catalog_radical(KIND_GRAPH, cid), UNI_GRAPH)[0]
    ]
    assert strict_pass == ["b", "d", "e", "f", "g", "h"]
    sigma_a = catalog_radical(KIND_GRAPH, "a")
    ok, (g, sub) = ideal_hereditary(sigma_a, UNI_GRAPH)
    assert not ok and g == B3 and sub == (1,)
    # the restriction is the larger side there: for (a) and (c) the part's
    # radical lies below the restriction on every member and subset
    restricted = gc.restrict_gc(g, sigma_a(g), sub)
    assert not gc.le_gc(restricted, sigma_a(KIND_OPS[KIND_GRAPH].substructure(g, sub)))
    for cid in ("a", "c"):
        sigma = catalog_radical(KIND_GRAPH, cid)
        for x, part_sub, restricted, part in _restrictions(sigma, UNI_GRAPH):
            assert gc.le_gc(part, restricted), (cid, x, part_sub)


def _restrictions(sigma, uni):
    """(x, sub, sigma(x) restricted to sub, sigma of the part on sub) for every
    member x and nonempty subset sub, in the order ideal_hereditary reads them."""
    ops = KIND_OPS[uni.kind]
    for x in uni.members:
        for sub in _nonempty_subsets(x.n):
            yield x, sub, ops.restrict(x, sigma(x), sub), sigma(ops.substructure(x, sub))


def test_s_heredity_fails_where_the_part_has_a_larger_radical():
    ok, (x, sub) = ideal_hereditary(UNIVERSAL_BELOW_THREE, UNI_TOPO)
    assert not ok and x == indiscrete_space(3) and sub == (0, 1)
    restricted = tc.restrict_tc(x, UNIVERSAL_BELOW_THREE(x), sub)
    assert not tc.le_tc(UNIVERSAL_BELOW_THREE(subspace(x, sub)), restricted)


def test_torsion_theory_fails_on_a_radical_class_that_is_not_hereditary():
    # the radical class holds the one- and three-point spaces only
    sigma = _universal_on_three(KIND_TOPO)
    ok, (x, sub) = hereditary_torsion_theory(sigma, UNI_TOPO)
    assert not ok and x == indiscrete_space(3) and sub == (0, 1)
    assert in_radical_class(sigma, x)
    part = subspace(x, sub)
    assert not any(
        homeo_spaces(part, y) is not None for y in radical_members(sigma, UNI_TOPO)
    )


def test_universal_rule_hereditary_example():
    # restrict(univ_X, S) = univ_S for spaces
    sigma = catalog_radical(KIND_TOPO, "a")
    for x in UNI_TOPO.members:
        for size in range(1, x.n + 1):
            for sub in itertools.combinations(range(x.n), size):
                restricted = tc.restrict_tc(x, sigma(x), sub)
                from conrad.structures import subspace

                assert restricted == tc.universal_tc(subspace(x, sub))


# ---------------------------------------------------------------------------
# U / S operators and fixed points
# ---------------------------------------------------------------------------

def test_u_s_operator_examples():
    complete_cls = builtin_class("loopless", "complete")
    edgeless_members = S_operator(complete_cls, UNI_LL3)
    assert all(not g.edges for g in edgeless_members)
    assert len(edgeless_members) == 3
    edgeless_cls = builtin_class("loopless", "edgeless")
    u = U_operator(edgeless_cls, UNI_LL3)
    assert {g.encoding() for g in u} == {
        g.encoding() for g in UNI_LL3.members if g.n == 1 or g.edges
    }
    assert [x.n for x in U_operator(builtin_class("topo", "all"), UNI_TOPO)] == [1]


def test_connectedness_fixed_points():
    assert is_connectedness(builtin_class("loopless", "contains-k2"), UNI_LL3)
    assert is_connectedness(builtin_class("topo", "indiscrete"), UNI_TOPO)
    assert is_connectedness(builtin_class("graph", "trivial-or-all-looped"), UNI_GRAPH)
    assert is_connectedness(builtin_class("topo", "all"), UNI_TOPO)
    assert not is_connectedness(builtin_class("topo", "t0"), UNI_TOPO)


def test_connectedness_refuses_characterizations_that_disagree(monkeypatch):
    # with no strong congruences the congruence route finds no C-congruence
    # on any two-point image, while the fixed point still holds for "all"
    monkeypatch.setattr(radical_engine, "strong_congruences", lambda x: [])
    with pytest.raises(CheckDefect, match="characterizations disagree for 'all'"):
        is_connectedness(builtin_class("topo", "all"), build_universe("topo", 2))


def test_clique_pairs_are_fixed_points_n4():
    for k in (1, 2, 3):
        assert is_connectedness(builtin_class("loopless", f"contains-k{k}"), UNI_LL4), k
        assert is_disconnectedness(builtin_class("loopless", f"k{k}-free"), UNI_LL4), k


def test_disconnectedness_fixed_points():
    assert is_disconnectedness(builtin_class("topo", "t0"), UNI_TOPO)
    assert is_disconnectedness(builtin_class("topo", "trivial"), UNI_TOPO)
    assert is_disconnectedness(builtin_class("topo", "all"), UNI_TOPO)
    assert is_disconnectedness(builtin_class("graph", "at-most-one-loop"), UNI_GRAPH)
    assert is_disconnectedness(builtin_class("loopless", "edgeless"), UNI_LL3)
    # indiscrete spaces form a semisimple class of a non-KA radical but not a
    # disconnectedness: every space with two or more points has a non-trivial
    # indiscrete image, so U(indiscrete) is trivial and SUD is everything
    assert not is_disconnectedness(builtin_class("topo", "indiscrete"), UNI_TOPO)


# ---------------------------------------------------------------------------
# C-congruences and the radical as a sum
# ---------------------------------------------------------------------------

def test_c_congruence_examples():
    ind = builtin_class("topo", "indiscrete")
    assert c_congruence_p(ind, I2, tc.universal_tc(I2))
    assert not c_congruence_p(ind, D2, tc.universal_tc(D2))
    assert c_congruence_p(ind, D2, tc.identity_tc(D2))
    loops_cls = builtin_class("graph", "trivial-or-all-looped")
    assert c_congruence_p(loops_cls, B4, gc.strongify_gc(B4, Partition.universal(2)))


def test_rho_sum_examples():
    ind = builtin_class("topo", "indiscrete")
    assert rho_sum(ind, I2) == tc.universal_tc(I2)
    assert rho_sum(ind, D2) == tc.identity_tc(D2)
    loops_cls = builtin_class("graph", "trivial-or-all-looped")
    assert rho_sum(loops_cls, B4) == gc.strongify_gc(B4, Partition.universal(2))
    with pytest.raises(KindUnsupported):
        rho_sum(builtin_class("loopless", "complete"), path_graph(3))


_GRAPH_ALL = builtin_class("graph", "all")

_ENGINE_REFUSALS = [
    (lambda: kind_of(3), KindMismatch, "unsupported structure 3"),
    (lambda: class_predicate("any", "nope", bool), KindMismatch, "unknown kind 'nope'"),
    (lambda: U_operator(_GRAPH_ALL, UNI_TOPO), KindMismatch, "'all' is a graph class, universe is topo"),
    (lambda: S_operator(_GRAPH_ALL, UNI_TOPO), KindMismatch, "'all' is a graph class, universe is topo"),
    (lambda: c_congruence_p(_GRAPH_ALL, I2, tc.identity_tc(I2)), KindMismatch,
     "'all' does not match the structure kind"),
    (lambda: rho_sum(builtin_class("topo", "indiscrete"), B4), KindMismatch,
     "'indiscrete' does not match the structure kind"),
    (lambda: rho_sum(builtin_class("graph", "trivial-looped"), B1), InvalidCongruence,
     "no C-congruence on the structure for 'trivial-looped'"),
    (lambda: subdirect_closure(_GRAPH_ALL, UNI_TOPO), KindMismatch,
     "'all' does not match the universe kind"),
    # a catalog value, a member pool and a class are each of one kind
    (lambda: catalog_radical("nope", "a"), KindMismatch, "unknown kind 'nope'"),
    (lambda: catalog_radical(KIND_LOOPLESS, "a"), KindUnsupported, "the loopless kind has no catalog"),
    (lambda: catalog_radical(KIND_TOPO, "a")(B2), KindMismatch, "the topo catalog got a graph structure"),
    (lambda: catalog_radical(KIND_TOPO, "a")(path_graph(2)), KindMismatch,
     "the topo catalog got a loopless structure"),
    (lambda: catalog_radical(KIND_GRAPH, "a")(S2), KindMismatch, "the graph catalog got a topo structure"),
    (lambda: catalog_radical(KIND_GRAPH, "a")(path_graph(2)), KindMismatch,
     "the graph catalog got a loopless structure"),
    (lambda: h1_holds(catalog_radical(KIND_GRAPH, "a"), build_universe(KIND_TOPO, 2)), KindMismatch,
     "the graph catalog got a topo structure"),
    (lambda: ka_triple(catalog_radical(KIND_TOPO, "b"), build_universe(KIND_GRAPH, 2)), KindMismatch,
     "the topo catalog got a graph structure"),
    (lambda: class_from_members(KIND_LOOPLESS, "x", [graph(2, LOOPS, [(0, 1)])]), KindMismatch,
     "a loopless pool got a graph structure"),
    (lambda: is_connectedness(builtin_class(KIND_TOPO, "t0"), build_universe(KIND_GRAPH, 2)),
     KindMismatch, "'t0' is a topo class, universe is graph"),
    (lambda: is_disconnectedness(builtin_class(KIND_TOPO, "t0"), build_universe(KIND_GRAPH, 2)),
     KindMismatch, "'t0' is a topo class, universe is graph"),
]


@pytest.mark.parametrize("call, error, message", _ENGINE_REFUSALS, ids=[
    "kind_of", "class_predicate", "U_operator", "S_operator", "c_congruence_p",
    "rho_sum-kind", "rho_sum-no-c-congruence", "subdirect_closure",
    "catalog_radical-unknown-kind", "catalog_radical-no-catalog", "catalog_radical-topo-on-graph",
    "catalog_radical-topo-on-loopless", "catalog_radical-graph-on-topo",
    "catalog_radical-graph-on-loopless", "h1_holds-kind", "ka_triple-kind",
    "class_from_members-pool-kind", "is_connectedness-kind", "is_disconnectedness-kind",
])
def test_engine_refusals(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and str(err.value) == message


def test_rho_sum_equals_radical_topo():
    ind = builtin_class("topo", "indiscrete")
    t0 = builtin_class("topo", "t0")
    for x in UNI_TOPO.members:
        assert rho_sum(ind, x) == hoehnke_radical(x, t0)


def test_rho_sum_equals_radical_graph():
    loops_cls = builtin_class("graph", "trivial-or-all-looped")
    one_loop = builtin_class("graph", "at-most-one-loop")
    for g in UNI_GRAPH.members:
        assert rho_sum(loops_cls, g) == hoehnke_radical(g, one_loop)


def test_rho_sum_is_c_congruence_for_connectedness():
    ind = builtin_class("topo", "indiscrete")
    for x in UNI_TOPO.members:
        assert c_congruence_p(ind, x, rho_sum(ind, x))


def test_chain_join_of_c_congruences():
    # finite reading of the inductive property: joins along comparable chains
    ind = builtin_class("topo", "indiscrete")
    for x in UNI_TOPO.members:
        ccongs = [t for t in strong_congruences(x) if c_congruence_p(ind, x, t)]
        for a, b in itertools.combinations(ccongs, 2):
            if tc.le_tc(a, b):
                assert c_congruence_p(ind, x, tc.join_tc(x, [a, b]))
    loops_cls = builtin_class("graph", "trivial-or-all-looped")
    for g in UNI_GRAPH.members:
        ccongs = [t for t in strong_congruences(g) if c_congruence_p(loops_cls, g, t)]
        for a, b in itertools.combinations(ccongs, 2):
            if gc.le_gc(a, b):
                assert c_congruence_p(loops_cls, g, gc.join_gc(g, [a, b]))


# ---------------------------------------------------------------------------
# Subdirect closure, complementary pairs, degeneracy
# ---------------------------------------------------------------------------

def test_subdirect_closure_examples():
    assert len(subdirect_closure(builtin_class("topo", "s2-i2"), UNI_TOPO)) == len(UNI_TOPO.members)
    assert len(subdirect_closure(builtin_class("loopless", "complete"), UNI_LL4)) == len(UNI_LL4.members)
    assert [x.n for x in subdirect_closure(builtin_class("topo", "trivial"), UNI_TOPO)] == [1]


def test_complementary_pairs():
    for k in (1, 2, 3):
        c_cls = builtin_class("loopless", f"contains-k{k}")
        d_cls = builtin_class("loopless", f"k{k}-free")
        assert complementary_pair_check(c_cls, d_cls, UNI_LL4), k
    assert complementary_pair_check(
        builtin_class("loopless", "all"), builtin_class("loopless", "trivial"), UNI_LL4
    )
    assert not complementary_pair_check(
        builtin_class("loopless", "all"), builtin_class("loopless", "edgeless"), UNI_LL4
    )
    with pytest.raises(KindMismatch):
        complementary_pair_check(
            builtin_class("topo", "all"), builtin_class("loopless", "trivial"), UNI_LL4
        )


def test_every_loopless_connectedness_pairs_with_its_s_class():
    for k in (1, 2, 3):
        c_cls = builtin_class("loopless", f"contains-k{k}")
        d_members = S_operator(c_cls, UNI_LL4)
        d_cls = class_from_members(KIND_LOOPLESS, f"S-{c_cls.name}", d_members)
        assert complementary_pair_check(c_cls, d_cls, UNI_LL4)


def test_degeneracy():
    assert loopless_degeneracy_check(UNI_LL4, builtin_class("loopless", "complete"))
    assert loopless_degeneracy_check(UNI_LL4, builtin_class("loopless", "all"))
    with pytest.raises(LemmaConditionFailed):
        loopless_degeneracy_check(UNI_LL4, builtin_class("loopless", "edgeless"))
    with pytest.raises(KindMismatch):
        loopless_degeneracy_check(UNI_TOPO, builtin_class("topo", "all"))


def test_loopless_radicals_degenerate():
    sigma = radical_from_class(builtin_class("loopless", "complete"))
    assert [g.n for g in radical_members(sigma, UNI_LL3)] == [1]
    assert len(semisimple_members(sigma, UNI_LL3)) == len(UNI_LL3.members)
    assert not h1_failures(sigma, UNI_LL3)
    assert not h2_failures(sigma, UNI_LL3)


# ---------------------------------------------------------------------------
# Validation at the boundary
# ---------------------------------------------------------------------------

def test_every_congruence_the_library_builds_is_valid():
    # quotients, meets and joins take their congruences as valid, so every
    # producer of congruences inside the library must build valid ones
    cases = ((UNI_TOPO, catalog_topological, TOPO_CATALOG_IDS),
             (UNI_GRAPH, catalog_graph, GRAPH_CATALOG_IDS),
             (UNI_LL4, None, ()))
    for uni, catalog, ids in cases:
        ops = KIND_OPS[uni.kind]
        for x in uni.members:
            congs = ops.enum_congruences(x)
            built = congs + strong_congruences(x) + [catalog(x, cid) for cid in ids]
            for y in uni.members:
                built += [ops.kernel(x, y, f) for f in surjective_morphisms(x, y)]
            for theta in built:
                ops.validate(x, theta)
            for sub in itertools.chain.from_iterable(
                itertools.combinations(range(x.n), k) for k in range(1, x.n + 1)
            ):
                small = ops.substructure(x, sub)
                for theta in congs:
                    ops.validate(small, ops.restrict(x, theta, sub))
            for alpha in congs:
                stage = ops.quotient(x, alpha)
                for beta in congs:
                    if ops.le(alpha, beta):
                        ops.validate(stage, ops.quotient_cong(x, alpha, beta))


@pytest.mark.parametrize("kind, carrier", [
    (KIND_TOPO, indiscrete_space(10)),
    (KIND_GRAPH, edgeless_graph(10, LOOPS)),
    (KIND_LOOPLESS, path_graph(10)),
])
def test_strong_all_is_bounded(kind, carrier):
    # Bell(10) = 115,975 partitions lie past the scan bound
    assert kind_of(carrier) == kind
    with pytest.raises(BoundExceeded, match="congruence enumeration capped at 100000 candidates"):
        strong_congruences(carrier)


def test_strong_congruences_answer_in_the_structures_own_kind():
    # a loop-admitting graph lists the graph kind's strong congruences: the
    # loopless kind would keep only the identity partition's
    g = graph(2, LOOPS, [(0, 1)])
    strong = strong_congruences(g)
    assert len(strong) == 2
    assert strong == [t for t in gc.enumerate_congruences_gc(g) if oracles.is_strong_gc(g, t)]
    assert all(is_strong(g, theta) for theta in strong)


@pytest.mark.parametrize("kind, max_n, strong_p, counts", [
    (KIND_TOPO, 4, oracles.is_strong_tc, (547, 2681)),
    (KIND_GRAPH, 4, oracles.is_strong_gc, (1464, 12177)),
    (KIND_LOOPLESS, 5, oracles.is_strong_gc, (521, 6098)),
])
def test_strong_congruences_match_filtered_enumeration(kind, max_n, strong_p, counts):
    # strongify over the partitions lists what filtering every congruence
    # lists, in the same order; loopless congruences have independent blocks
    ops = KIND_OPS[kind]
    strong_total = total = 0
    for n in range(1, max_n + 1):
        for x in ops.enum_structures(n):
            congs = ops.enum_congruences(x)
            verdicts = [strong_p(x, theta) for theta in congs]
            filtered = [theta for theta, ok in zip(congs, verdicts) if ok]
            assert strong_congruences(x) == filtered
            assert [is_strong(x, theta) for theta in congs] == verdicts
            strong_total += len(filtered)
            total += len(congs)
    assert (strong_total, total) == counts


def test_check_subdirect_validates_its_members():
    with pytest.raises(NotSaturated):
        check_subdirect(S2, [tc.identity_tc(S2), tc.TopoCongruence.from_opens(Partition.universal(2), S2.opens)])
    with pytest.raises(SubstitutionViolated):
        check_subdirect(B1, [gc.GraphCongruence.from_pairs(Partition.universal(2), {(0, 0)})])


def test_radical_assignment_computes_each_value_once():
    calls = []

    def rule(x):
        calls.append(x)
        return tc.identity_tc(x)

    sigma = RadicalAssignment("counted", rule)
    for x in UNI_TOPO.members + UNI_TOPO.members:
        assert sigma(x) == tc.identity_tc(x)
    assert calls == list(UNI_TOPO.members)


def test_semisimple_class_heredity_counts_one_point_parts():
    # identity on graphs with a loop, universal on the rest: T0 and B3 are
    # semisimple, but B3's unlooped point T is not, so the class is not hereditary
    sigma = RadicalAssignment(
        "identity-if-looped",
        lambda g: gc.identity_gc(g) if g.loop_vertices else gc.universal_gc(g),
    )
    uni = build_universe(KIND_GRAPH, 2)
    assert T0 in semisimple_members(sigma, uni) and T not in semisimple_members(sigma, uni)
    assert semisimple_class_hereditary(sigma, uni) == (False, (B3, (1,)))
