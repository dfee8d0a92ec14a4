"""Radical engine: Hoehnke radicals, KA triple, catalogs, operators, pairs."""

import itertools

import pytest

from conrad import graph_congruence as gc
from conrad import topo_congruence as tc
from conrad.errors import (
    BadCatalogId,
    KindMismatch,
    KindUnsupported,
    LemmaConditionFailed,
    NoQualifyingCongruence,
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
    catalog_graph,
    catalog_graph_radical,
    catalog_topological,
    catalog_topological_radical,
    class_from_members,
    complementary_pair_check,
    h1_failures,
    h2_failures,
    hereditary_torsion_theory,
    hoehnke_radical,
    ideal_hereditary,
    in_radical_class,
    is_connectedness,
    is_disconnectedness,
    is_strong_everywhere,
    ka_triple,
    kind_of,
    loopless_degeneracy_check,
    r_hereditary,
    radical_from_class,
    radical_members,
    rho_sum,
    s_hereditary,
    semisimple_members,
    subdirect_closure,
    surjective_morphisms,
    universe_from_members,
    verify_H1,
    verify_H2,
)
from conrad.structures import (
    B1,
    B3,
    B4,
    B6,
    B_SET,
    D2,
    I2,
    Partition,
    S2,
    T0,
    T_SPACE,
    complete_graph,
    path_graph,
    space,
)

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
    assert hoehnke_radical(D2, builtin_class("topo", "indiscrete")) == tc.TopoCongruence(
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
                q, _ = tc.quotient_tc(x, theta)
                if cls(q):
                    assert tc.le_tc(value, theta)


def test_radical_quotient_in_subdirect_closure():
    for cls_name in ("t0", "indiscrete", "trivial", "all", "s2-i2"):
        cls = builtin_class("topo", cls_name)
        sigma = radical_from_class(cls)
        closure = subdirect_closure(cls, UNI_TOPO)
        from conrad.structures import homeo_spaces

        for x in UNI_TOPO.members:
            q, _ = tc.quotient_tc(x, sigma(x))
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
                    q, _ = ops.quotient(x, theta)
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
                q, _ = ops.quotient(x, sigma(x))
                assert any(
                    q.n == m.n and ops.iso(q, m) is not None for m in closure
                ), (kind, name)


def test_in_radical_class_edgeless_subtlety():
    # for graphs the radical-class test is quotient-is-trivial, not value==universal
    sigma = catalog_graph_radical("a")
    assert in_radical_class(sigma, B1)
    assert sigma(B1) != gc.universal_gc(B1)
    assert sigma(B1) == gc.GraphCongruence(Partition.universal(2), frozenset())


# ---------------------------------------------------------------------------
# H1 / H2 directly
# ---------------------------------------------------------------------------

def test_verify_h1_h2_identity_rule():
    sigma = catalog_topological_radical("c")
    for x in UNI_TOPO.members:
        assert verify_H2(sigma, x)
        for y in UNI_TOPO.members:
            for f in surjective_morphisms(KIND_TOPO, x, y):
                assert verify_H1(sigma, x, y, f)


def test_universal_rule_is_h_radical_on_graphs():
    # the quotient by the universal congruence is T0, whose only congruence
    # is its identity, so H2 holds for the universal rule everywhere
    sigma = catalog_graph_radical("b")
    assert verify_H2(sigma, B1)
    q, _ = gc.quotient_gc(B1, gc.universal_gc(B1))
    assert q == T0
    assert not h2_failures(sigma, UNI_GRAPH)


def test_verify_h2_detects_broken_rule():
    # merging the first two points of the quotient again breaks H2 on any
    # carrier whose radical quotient keeps at least two points
    def broken(x):
        if x.n >= 2:
            return tc.strongify_tc(x, Partition.from_map((0, 0) + tuple(range(1, x.n - 1))))
        return tc.identity_tc(x)

    sigma = RadicalAssignment("merge-first-two", KIND_TOPO, broken, "custom")
    chain3 = space(3, [[], [0], [0, 1], [0, 1, 2]])
    assert not verify_H2(sigma, chain3)


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

def test_catalog_topological_values():
    assert catalog_topological(S2, "a") == tc.universal_tc(S2)
    assert catalog_topological(S2, "b") == tc.identity_tc(S2)  # S2 is T0
    assert catalog_topological(I2, "b") == tc.universal_tc(I2)
    assert catalog_topological(S2, "c") == tc.identity_tc(S2)
    assert catalog_topological(S2, "e") == tc.TopoCongruence(
        Partition.identity(2), frozenset({frozenset(), S2.full})
    )
    with pytest.raises(BadCatalogId):
        catalog_topological(S2, "z")


def test_catalog_topological_b_is_valid_and_strong():
    for x in UNI_TOPO.members:
        value = catalog_topological(x, "b")
        tc.validate_tc(x, value)
        assert tc.is_strong_tc(x, value)


def test_catalog_graph_values():
    assert catalog_graph(B3, "c") == gc.identity_gc(B3)
    assert catalog_graph(B4, "c") == gc.strongify_gc(B4, Partition.universal(2))
    q, _ = gc.quotient_gc(B4, catalog_graph(B4, "c"))
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
    uni_b = universe_from_members(KIND_GRAPH, B_SET)
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
        sigma = catalog_graph_radical(cid)
        got = {names[g] for g in semisimple_members(sigma, uni_b)}
        assert got == expected[cid], cid


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
        sigma = catalog_graph_radical(cid)
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
        sigma = catalog_topological_radical(cid)
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
    sigma = catalog_graph_radical("c")
    rads = radical_members(sigma, UNI_GRAPH)
    for g in rads:
        assert g.n == 1 or g.loop_vertices == frozenset(range(g.n))
    sigma = catalog_topological_radical("b")
    rads = radical_members(sigma, UNI_TOPO)
    assert all(x.is_indiscrete() for x in rads)
    semis = semisimple_members(sigma, UNI_TOPO)
    assert all(x.is_t0() for x in semis)


# ---------------------------------------------------------------------------
# KA triple
# ---------------------------------------------------------------------------

def test_ka_triple_topo():
    for cid in TOPO_CATALOG_IDS:
        verdict = ka_triple(catalog_topological_radical(cid), UNI_TOPO)
        assert verdict["ka"] == (cid in ("a", "b", "c")), cid
        if cid in ("d", "e"):
            assert verdict["complete"][0] and verdict["idempotent"][0]
            ok, witness = verdict["strong"]
            assert not ok and witness == S2


def test_ka_triple_graph():
    for cid in GRAPH_CATALOG_IDS:
        verdict = ka_triple(catalog_graph_radical(cid), UNI_GRAPH)
        assert verdict["ka"] == (cid in ("a", "c", "f")), cid
        if cid not in ("a", "c", "f"):
            assert not verdict["strong"][0]
            assert verdict["complete"][0] and verdict["idempotent"][0]


def test_strong_everywhere_witness_example():
    # on the two-point universe the first non-strong carrier for entry (d) is S2
    uni2 = build_universe(KIND_TOPO, 2)
    ok, witness = is_strong_everywhere(catalog_topological_radical("d"), uni2)
    assert not ok and witness == S2


# ---------------------------------------------------------------------------
# Hereditariness, both notions
# ---------------------------------------------------------------------------

def test_topo_catalog_ideal_hereditary():
    for cid in TOPO_CATALOG_IDS:
        sigma = catalog_topological_radical(cid)
        assert ideal_hereditary(sigma, UNI_TOPO)[0], cid
        assert hereditary_torsion_theory(sigma, UNI_TOPO)[0], cid


def test_graph_catalog_class_level_hereditary():
    for cid in GRAPH_CATALOG_IDS:
        sigma = catalog_graph_radical(cid)
        assert hereditary_torsion_theory(sigma, UNI_GRAPH)[0], cid


def test_graph_catalog_congruence_level_split():
    # restriction comparison holds for the diagonal-partition entries only;
    # saturation picks up loop slots from outside the subset for (a) and (c)
    strict_pass = [
        cid for cid in GRAPH_CATALOG_IDS
        if ideal_hereditary(catalog_graph_radical(cid), UNI_GRAPH)[0]
    ]
    assert strict_pass == ["b", "d", "e", "f", "g", "h"]
    ok, (g, sub) = r_hereditary(catalog_graph_radical("a"), UNI_GRAPH)
    assert not ok and g == B3 and sub == (1,)
    assert s_hereditary(catalog_graph_radical("a"), UNI_GRAPH)[0]
    assert s_hereditary(catalog_graph_radical("c"), UNI_GRAPH)[0]


def test_universal_rule_hereditary_example():
    # restrict(univ_X, S) = univ_S for spaces
    sigma = catalog_topological_radical("a")
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
        ops = KIND_OPS[KIND_TOPO]
        ccongs = [t for t in ops.strong_all(x) if c_congruence_p(ind, x, t)]
        for a, b in itertools.combinations(ccongs, 2):
            if tc.le_tc(a, b):
                assert c_congruence_p(ind, x, tc.join_tc(x, [a, b]))
    loops_cls = builtin_class("graph", "trivial-or-all-looped")
    for g in UNI_GRAPH.members:
        ops = KIND_OPS[KIND_GRAPH]
        ccongs = [t for t in ops.strong_all(g) if c_congruence_p(loops_cls, g, t)]
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
