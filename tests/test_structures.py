"""Structures: partitions, graphs, spaces, iso/homeo, enumeration."""

import itertools
import random
import tracemalloc

import pytest

from conrad.cli_io import parse_structure
from conrad.errors import (
    BoundExceeded,
    ConradError,
    EmptySubset,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    PolicyMismatch,
    SemanticError,
)
from conrad.graph_congruence import identity_gc, restrict_gc
from conrad.radical_engine import (
    KIND_OPS,
    _relation,
    build_universe,
    indistinguishability_partition,
)
from conrad.structures import (
    A3,
    B1,
    B2,
    B3,
    B4,
    B5,
    B6,
    B_SET,
    D2,
    FiniteGraph,
    FiniteSpace,
    I2,
    ISO_BOUND,
    LOOPS,
    NOLOOPS,
    Partition,
    S2,
    T0,
    T_SPACE,
    _least_carrying,
    _preorders,
    _topology_defect,
    all_partitions,
    automorphisms,
    bell_number,
    complete_graph,
    completion,
    edgeless_graph,
    enumerate_graphs,
    enumerate_spaces,
    graph,
    homeo_spaces,
    indiscrete_space,
    induced,
    iso_graphs,
    join_partitions,
    meet_partitions,
    path_graph,
    preorder_space,
    space,
    subspace,
)
from conrad.structures import space as validate_space
from conrad.topo_congruence import identity_tc, random_space, restrict_tc

from oracles import (
    closed_families,
    enumerate_graphs_scan,
    least_carrying_scan,
    restrict_partition,
    topology_defect_pairs,
)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def count_graph_classes_bruteforce(n, policy):
    """Orbit count of edge masks under vertex permutations (union-find)."""
    if policy == LOOPS:
        slots = [(a, b) for a in range(n) for b in range(a, n)]
    else:
        slots = [(a, b) for a in range(n) for b in range(a + 1, n)]
    index = {p: i for i, p in enumerate(slots)}
    parent = list(range(2 ** len(slots)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in itertools.permutations(range(n)):
        action = [index[tuple(sorted((perm[a], perm[b])))] for a, b in slots]
        for mask in range(2 ** len(slots)):
            img = 0
            for i in range(len(slots)):
                if mask >> i & 1:
                    img |= 1 << action[i]
            ra, rb = find(mask), find(img)
            if ra != rb:
                parent[ra] = rb
    return len({find(m) for m in range(2 ** len(slots))})


def space_check_reference(n, opens):
    """FiniteSpace's check of a family of point sets, written on frozensets."""
    full = frozenset(range(n))
    for u in opens:
        if not u <= full:
            raise SemanticError(f"open set {sorted(u)} out of range")
    if frozenset() not in opens or full not in opens:
        raise MissingEmptyOrFull("a topology contains the empty and full sets")
    for u in opens:
        for v in opens:
            if u | v not in opens:
                raise NotClosedUnderUnion(f"{sorted(u)} | {sorted(v)} missing")
            if u & v not in opens:
                raise NotClosedUnderIntersection(f"{sorted(u)} & {sorted(v)} missing")


def _is_growth_string(cid) -> bool:
    return all(b <= max(cid[:x], default=-1) + 1 for x, b in enumerate(cid))


def test_partition_normalization():
    p = Partition.from_blocks(3, [[1], [0, 2]])
    assert p.class_id == (0, 1, 0)
    assert p.blocks == ((0, 2), (1,))
    assert Partition((5, 9, 5)) == p
    # the constructor relabels any labelling by hashable values
    labellings = [raw for n in range(1, 6) for raw in itertools.product(range(n), repeat=n)]
    labellings += [("b", "a", "b", "c"), ((1, 2), (0,), (1, 2), ()), ("x",)]
    for raw in labellings:
        grouping = {}
        for x, label in enumerate(raw):
            grouping.setdefault(label, []).append(x)
        part = Partition(raw)
        assert part == Partition.from_blocks(len(raw), grouping.values()), raw
        assert _is_growth_string(part.class_id), raw
        assert sorted(part.blocks) == sorted(map(tuple, grouping.values())), raw
        assert [b[0] for b in part.blocks] == sorted(b[0] for b in part.blocks), raw
        assert part.num_blocks == len(set(raw)), raw
    assert len(labellings) == 1 + 4 + 27 + 256 + 3125 + 3


def test_partition_ops():
    p = Partition.from_blocks(4, [[0, 1], [2, 3]])
    q = Partition.from_blocks(4, [[0], [1, 2], [3]])
    assert meet_partitions([p, q]).blocks == ((0,), (1,), (2,), (3,))
    assert join_partitions([p, q]) == Partition.universal(4)
    assert Partition.identity(4).refines(p)
    assert not p.refines(q)
    assert restrict_partition(p, [1, 2, 3]).blocks == ((0,), (1, 2))
    with pytest.raises(EmptySubset):
        restrict_partition(p, [])


def test_one_subset_normaliser():
    # every restriction reads its subset as a set, and refuses an empty one and
    # ids outside the carrier with the same class and message
    ident = Partition.identity(3)
    assert restrict_partition(ident, [0, 0]) == Partition.identity(1)
    assert induced(path_graph(3), [2, 0, 2]) == edgeless_graph(2)
    assert subspace(S2, [1, 1]) == T_SPACE
    g, x = graph(3, LOOPS, [(0, 1)]), space(3, [[], [0], [0, 1, 2]])
    restrictions = [
        lambda sub: restrict_partition(ident, sub),
        lambda sub: induced(path_graph(3), sub),
        lambda sub: subspace(x, sub),
        lambda sub: restrict_tc(x, identity_tc(x), sub),
        lambda sub: restrict_gc(g, identity_gc(g), sub),
    ]
    for restrict in restrictions:
        assert _outcome(lambda: restrict([5])) == (SemanticError, "subset ids must lie in 0..2")
        assert _outcome(lambda: restrict([7, 0])) == (SemanticError, "subset ids must lie in 0..2")
        assert _outcome(lambda: restrict([-1])) == (SemanticError, "subset ids must lie in 0..2")
        assert _outcome(lambda: restrict([])) == (EmptySubset, "restriction to the empty set")
    assert _outcome(lambda: subspace(S2, [7])) == (SemanticError, "subset ids must lie in 0..1")
    assert restrict_tc(x, identity_tc(x), [2, 0, 2]) == identity_tc(subspace(x, [0, 2]))


@pytest.mark.parametrize("build, error, message", [
    (lambda: space(10 ** 6, [[]]), MissingEmptyOrFull, "a topology contains the empty and full sets"),
    (lambda: Partition.from_blocks(10 ** 7, [[0]]), SemanticError, "blocks do not partition 0..9999999"),
], ids=["space", "from_blocks"])
def test_a_huge_declared_size_is_refused_before_it_is_allocated(build, error, message):
    # fewer listed ids than the declared size: refused with under 1 MiB allocated
    tracemalloc.start()
    try:
        assert _outcome(build) == (error, message)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_partition_count():
    # Bell numbers
    bell = [1, 2, 5, 15, 52, 203, 877, 4140]
    assert [sum(1 for _ in all_partitions(n)) for n in range(1, 9)] == bell
    assert [bell_number(n) for n in range(1, 9)] == bell


def test_graph_invariants():
    with pytest.raises(SemanticError):
        graph(0, LOOPS)
    with pytest.raises(SemanticError):
        graph(2, NOLOOPS, [(0, 0)])
    with pytest.raises(SemanticError):
        graph(2, LOOPS, [(0, 5)])
    with pytest.raises(SemanticError, match="unknown loop policy 'weird'"):
        FiniteGraph(2, "weird", 0)
    with pytest.raises(SemanticError, match="unknown loop policy 'weird'"):
        graph(2, "weird")
    # the constructor's own refusals of a mask: 2 vertices have slots 0..2
    with pytest.raises(SemanticError, match="graphs have non-empty vertex sets"):
        FiniteGraph(0, LOOPS, 0)
    for mask in (1 << 3, -1):
        with pytest.raises(SemanticError, match="edge mask out of range"):
            FiniteGraph(2, LOOPS, mask)
    with pytest.raises(SemanticError, match="loop under noloops policy"):
        FiniteGraph(2, NOLOOPS, 1)
    assert B4.loop_vertices == frozenset({0, 1})
    assert B6.is_complete()
    assert not B5.is_complete()


def test_named_constants():
    assert B1.edges == frozenset()
    assert B2.edges == {(0, 1)}
    assert B3.edges == {(0, 0)}
    assert B4.edges == {(0, 0), (1, 1)}
    assert B5.edges == {(0, 1), (1, 1)}
    assert B6.edges == {(0, 0), (0, 1), (1, 1)}
    assert A3.edges == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}
    assert S2.opens == {frozenset(), frozenset({0}), frozenset({0, 1})}


def test_validate_space():
    assert validate_space(2, [[], [0], [0, 1]]) == S2
    assert validate_space(1, [[], [0]]) == T_SPACE
    with pytest.raises(MissingEmptyOrFull):
        validate_space(2, [[], [0], [1]])


def _outcome(build):
    """None when build() returns, else the class and message it raised."""
    try:
        build()
    except ConradError as exc:
        return type(exc), str(exc)
    return None


def test_space_check_matches_frozenset_reference():
    # every family of subsets of 0..n-1, n <= 3: the same verdict, and on
    # rejection the same class and message for the first failing pair
    accepted = 0
    for n in (1, 2, 3):
        subsets = [frozenset(i for i in range(n) if m >> i & 1) for m in range(2 ** n)]
        for k in range(2 ** len(subsets)):
            family = [u for i, u in enumerate(subsets) if k >> i & 1]
            opens = frozenset(family)
            expected = _outcome(lambda: space_check_reference(n, opens))
            assert _outcome(lambda: space(n, opens)) == expected
            text = f"space {n}\n" + "".join(
                f"open {','.join(map(str, sorted(u))) or '-'}\n" for u in family
            )
            assert _outcome(lambda: parse_structure(text)) == expected
            accepted += expected is None
    # labelled topologies on 1, 2 and 3 points (OEIS A000798)
    assert accepted == 1 + 4 + 29


def test_the_closure_check_names_the_defect_the_pair_scan_names():
    # every family of subsets of 0..n-1, n <= 4, and every family of subsets
    # of 0..n read on n points (id n stray, as a congruence file may hold it),
    # n <= 3: the same verdict as the scan of every ordered pair, and on
    # rejection the same class and message
    closed = []
    for n, ids in [(1, 1), (2, 2), (3, 3), (4, 4), (1, 2), (2, 3), (3, 4)]:
        subsets = [frozenset(i for i in range(ids) if m >> i & 1) for m in range(2 ** ids)]
        closed.append(0)
        for k in range(2 ** len(subsets)):
            family = frozenset(u for i, u in enumerate(subsets) if k >> i & 1)
            found, expected = _topology_defect(n, family), topology_defect_pairs(n, family)
            assert (type(found), str(found)) == (type(expected), str(expected)), (n, family)
            closed[-1] += found is None
    # labelled topologies on 1 to 4 points (OEIS A000798), then the closed
    # families on n + 1 ids that hold the empty set and 0..n-1
    assert closed == [1, 4, 29, 355, 3, 16, 159]


def test_constructor_accepts_exactly_the_preorders():
    # every vector of masks on up to 3 points: the constructor accepts those
    # that are the least open sets of a topology, and its opens are their unions
    topologies = {}
    for x in _oracle_spaces():
        if x.n <= 3:
            topologies[x.min_opens] = x.opens
    for n in (1, 2, 3):
        for vec in itertools.product(range(2 ** n), repeat=n):
            built = _outcome(lambda: FiniteSpace(n, vec))
            assert (built is None) == (vec in topologies), vec
            if built is None:
                assert FiniteSpace(n, vec).opens == topologies[vec]
                assert space(n, topologies[vec]) == FiniteSpace(n, vec)
    assert len(topologies) == 1 + 4 + 29
    assert _outcome(lambda: FiniteSpace(0, ())) == (SemanticError, "spaces have non-empty point sets")


def test_preorders_are_the_labelled_topologies():
    # with the identity as floor: every topology, each once (OEIS A000798)
    identity = [tuple(1 << p for p in range(k)) for k in range(7)]
    counts = [sum(1 for _ in _preorders(k, identity[k])) for k in range(1, 6)]
    assert counts == [1, 4, 29, 355, 6942]
    labelled = [x.min_opens for x in _oracle_spaces() if x.n <= 4]
    assert sorted(labelled) == sorted(v for k in range(1, 5) for v in _preorders(k, identity[k]))
    # with any relation as floor (not only a preorder): those holding it
    rng = random.Random(4)
    floors = [f for k in (1, 2, 3) for f in itertools.product(range(2 ** k), repeat=k)]
    floors += [tuple(rng.randrange(16) for _ in range(4)) for _ in range(40)]
    for floor in floors:
        k = len(floor)
        above = [v for v in _preorders(k, identity[k]) if all(f & ~u == 0 for f, u in zip(floor, v))]
        assert sorted(_preorders(k, floor)) == sorted(above), floor


def test_space_properties():
    assert I2.is_indiscrete() and not S2.is_indiscrete()
    assert D2.is_discrete() and D2.is_t1() and D2.is_t0()
    assert S2.is_t0() and not S2.is_t1()
    assert not I2.is_t0()
    assert S2.min_open(0) == frozenset({0})
    assert S2.min_open(1) == frozenset({0, 1})


def _oracle_spaces():
    """Every topology on at most 4 points, then seeded random spaces on 5 and 6."""
    spaces = []
    for n in range(1, 5):
        proper = range(1, 2 ** n - 1)
        for keep in closed_families(n, proper):
            masks = [0, 2 ** n - 1] + [proper[i] for i in keep]
            spaces.append(space(n, [[p for p in range(n) if m >> p & 1] for m in masks]))
    assert len(spaces) == 1 + 4 + 29 + 355  # labelled topologies, OEIS A000798
    rng = random.Random(8)
    return spaces + [random_space(rng, n) for n in (5, 6) for _ in range(40)]


def test_neighbourhoods_match_pairwise_definitions():
    # each answer read off the minimal opens against its definition on the opens
    for x in _oracle_spaces():
        points = range(x.n)
        around = [[u for u in x.opens if p in u] for p in points]
        least = [frozenset.intersection(*us) for us in around]
        assert [x.min_open(p) for p in points] == least
        assert x.min_opens == tuple(sum(1 << q for q in u) for u in least)
        assert x.is_t0() == all(
            any((p in u) != (q in u) for u in x.opens)
            for p, q in itertools.combinations(points, 2)
        )
        part = indistinguishability_partition(x)
        for p, q in itertools.product(points, repeat=2):
            assert part.same(p, q) == all((p in u) == (q in u) for u in x.opens)
        assert _relation(x) == {
            (p, q) for p, q in itertools.product(points, repeat=2)
            if all(q in u for u in around[p])
        }


def test_iso_graphs_examples():
    # relabelling
    swapped = graph(2, LOOPS, [(0, 0)])
    assert iso_graphs(B3, swapped) == (0, 1)
    assert iso_graphs(B3, graph(2, LOOPS, [(1, 1)])) == (1, 0)
    # pairwise non-isomorphic two-vertex graphs
    for g, h in itertools.combinations(B_SET, 2):
        assert iso_graphs(g, h) is None
    # differing edge counts
    assert iso_graphs(complete_graph(3), path_graph(3)) is None
    with pytest.raises(PolicyMismatch):
        iso_graphs(B1, edgeless_graph(2))


def test_iso_and_homeo_testing_refuse_past_the_bound():
    # equal sizes and counts, so only the bound stands between them and a search
    with pytest.raises(BoundExceeded, match=f"isomorphism testing capped at n <= {ISO_BOUND}"):
        iso_graphs(path_graph(ISO_BOUND + 1), path_graph(ISO_BOUND + 1))
    with pytest.raises(BoundExceeded, match=f"homeomorphism testing capped at n <= {ISO_BOUND}"):
        homeo_spaces(indiscrete_space(ISO_BOUND + 1), indiscrete_space(ISO_BOUND + 1))


def test_homeo_spaces_examples():
    flipped = space(2, [[], [1], [0, 1]])
    assert homeo_spaces(S2, flipped) == (1, 0)
    assert homeo_spaces(S2, I2) is None
    assert homeo_spaces(D2, D2) == (0, 1)


def test_iso_is_equivalence_on_small_lists():
    from conrad.structures import relabel_graph, relabel_space

    graphs = [g for n in (1, 2, 3) for g in enumerate_graphs(n, LOOPS)]
    for g in graphs:
        assert iso_graphs(g, g) is not None
    for g, h in itertools.combinations(graphs, 2):
        assert iso_graphs(g, h) is None and iso_graphs(h, g) is None
    # symmetry via the inverse witness, transitivity via composition
    for g in graphs:
        perms = list(itertools.permutations(range(g.n)))
        h = relabel_graph(g, perms[-1])
        k = relabel_graph(g, perms[len(perms) // 2])
        w = iso_graphs(g, h)
        inv = tuple(w.index(i) for i in range(len(w)))
        assert relabel_graph(h, inv) == g
        w2 = iso_graphs(h, k)
        composed = tuple(w2[w[i]] for i in range(g.n))
        assert relabel_graph(g, composed) == k
    spaces = [x for n in (1, 2, 3) for x in enumerate_spaces(n)]
    for x in spaces:
        assert homeo_spaces(x, x) is not None
    for x, y in itertools.combinations(spaces, 2):
        assert homeo_spaces(x, y) is None  # canonical representatives
    for x in spaces:
        perms = list(itertools.permutations(range(x.n)))
        y = relabel_space(x, perms[-1])
        w = homeo_spaces(x, y)
        inv = tuple(w.index(i) for i in range(len(w)))
        assert relabel_space(y, inv) == x


def test_enumerate_graphs_counts():
    assert len(enumerate_graphs(2, LOOPS)) == 6
    assert len(enumerate_graphs(2, NOLOOPS)) == 2
    assert len(enumerate_graphs(4, NOLOOPS)) == count_graph_classes_bruteforce(4, NOLOOPS) == 11
    assert len(enumerate_graphs(3, LOOPS)) == count_graph_classes_bruteforce(3, LOOPS) == 20
    assert len(enumerate_graphs(5, NOLOOPS)) == 34


@pytest.mark.parametrize("n, policy", [(n, LOOPS) for n in range(1, 6)] + [(n, NOLOOPS) for n in range(1, 7)])
def test_enumerate_graphs_marks_orbits_as_the_scan_finds_them(n, policy):
    # same representatives in the same order as testing every mask's orbit
    assert enumerate_graphs(n, policy) == enumerate_graphs_scan(n, policy)


def test_enumeration_counts_match_oeis():
    # unlabeled graphs with loops (A000666), simple graphs (A000088) and
    # finite topologies up to homeomorphism (A001930)
    assert [len(enumerate_graphs(n, LOOPS)) for n in range(1, 5)] == [2, 6, 20, 90]
    assert [len(enumerate_graphs(n, NOLOOPS)) for n in range(1, 6)] == [1, 2, 4, 11, 34]
    assert [len(enumerate_spaces(n)) for n in range(1, 5)] == [1, 3, 9, 33]


def test_enumerate_graphs_matches_b_set():
    reps = enumerate_graphs(2, LOOPS)
    for b in B_SET:
        assert sum(1 for r in reps if iso_graphs(r, b) is not None) == 1


def test_enumerate_graphs_bound(monkeypatch):
    monkeypatch.delenv("CONRAD_MAX_N", raising=False)
    with pytest.raises(BoundExceeded):
        enumerate_graphs(7, NOLOOPS)
    assert len(enumerate_graphs(6, NOLOOPS)) == 156


def test_enumerate_spaces_reaches_five_and_six_points(monkeypatch):
    # finite topologies up to homeomorphism (OEIS A001930), past the default cap
    monkeypatch.setenv("CONRAD_MAX_N", "6")
    five = enumerate_spaces(5)
    assert len(five) == 139
    assert len(enumerate_spaces(6)) == 718
    assert five == sorted(five, key=lambda x: (len(x.opens), x.encoding()))
    for x, y in itertools.combinations(five, 2):
        assert homeo_spaces(x, y) is None


def test_enumerate_spaces_counts():
    assert enumerate_spaces(1) == [T_SPACE]
    assert len(enumerate_spaces(2)) == 3
    assert len(enumerate_spaces(3)) == 9
    assert len(enumerate_spaces(4)) == 33
    with pytest.raises(BoundExceeded):
        enumerate_spaces(5)


def test_enumerate_spaces_two_point_classes():
    reps = enumerate_spaces(2)
    for target in (I2, S2, D2):
        assert sum(1 for r in reps if homeo_spaces(r, target) is not None) == 1


def test_induced_and_subspace():
    assert induced(B6, [0]) == T0
    assert induced(A3, [0, 1]) == B6
    assert subspace(S2, [1]) == T_SPACE
    assert homeo_spaces(subspace(S2, [0, 1]), S2) is not None
    assert iso_graphs(induced(A3, [0, 1, 2]), A3) is not None
    with pytest.raises(EmptySubset):
        induced(B1, [])
    with pytest.raises(EmptySubset):
        subspace(S2, [])


def test_completion():
    assert completion(edgeless_graph(2)) == complete_graph(2)
    assert completion(complete_graph(3)) == complete_graph(3)
    assert completion(path_graph(3)) == complete_graph(3)
    with pytest.raises(PolicyMismatch):
        completion(B1)
    for n in range(1, 6):
        for g in enumerate_graphs(n, NOLOOPS):
            assert completion(completion(g)) == completion(g)


@pytest.mark.parametrize("kind, max_n", [("graph", 4), ("loopless", 5), ("topo", 4)])
def test_key_respecting_search_matches_the_permutation_scan(kind, max_n):
    # the search over key-respecting permutations finds the witness that
    # filtering all n! permutations finds, on every pair sharing an iso_key
    ops = KIND_OPS[kind]
    rng = random.Random(max_n)
    structures = []
    for x in build_universe(kind, max_n):
        perm = list(range(x.n))
        rng.shuffle(perm)
        structures += [x, ops.relabel(x, perm)]
    buckets = {}
    for x in structures:
        buckets.setdefault(x.iso_key(), []).append(x)
    found = 0
    for bucket in buckets.values():
        for x in bucket:
            for y in bucket:
                witness = _least_carrying(x, y, ops.carries)
                assert witness == least_carrying_scan(x, y, ops.carries), (x, y)
                found += witness is not None
        x = bucket[0]
        assert automorphisms(x, ops.carries) == [
            perm for perm in itertools.permutations(range(x.n)) if ops.carries(x, x, perm)
        ]
    # each structure is isomorphic at least to itself and its relabelling
    assert found >= 2 * len(structures)


def test_preorder_space_closes_the_pairs():
    chain = space(3, [[], [0], [0, 1], [0, 1, 2]])
    # 2 below 1 below 0 as pairs (p, q) putting q in p's least open set
    assert preorder_space(3, [(1, 0), (2, 1)]) == chain
    assert preorder_space(3, []) == space(3, [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]])
    assert preorder_space(2, [(0, 1), (1, 0)]) == I2
    for x in enumerate_spaces(4):
        assert preorder_space(x.n, _relation(x)) == x
