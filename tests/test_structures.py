"""Structures: partitions, graphs, spaces, iso/homeo, enumeration."""

import itertools

import pytest

from conrad.errors import (
    BoundExceeded,
    EmptySubset,
    MissingEmptyOrFull,
    PolicyMismatch,
    SemanticError,
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
    I2,
    LOOPS,
    NOLOOPS,
    Partition,
    S2,
    T0,
    T_SPACE,
    all_partitions,
    complete_graph,
    completion,
    edgeless_graph,
    enumerate_graphs,
    enumerate_spaces,
    graph,
    homeo_spaces,
    induced,
    iso_graphs,
    path_graph,
    space,
    subspace,
)
from conrad.structures import space as validate_space


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


def test_partition_normalization():
    p = Partition.from_blocks(3, [[1], [0, 2]])
    assert p.class_id == (0, 1, 0)
    assert p.blocks == ((0, 2), (1,))
    assert Partition.from_map((5, 9, 5)) == p


def test_partition_ops():
    p = Partition.from_blocks(4, [[0, 1], [2, 3]])
    q = Partition.from_blocks(4, [[0], [1, 2], [3]])
    assert p.meet(q).blocks == ((0,), (1,), (2,), (3,))
    assert p.join(q) == Partition.universal(4)
    assert Partition.identity(4).refines(p)
    assert not p.refines(q)
    assert p.restrict([1, 2, 3]).blocks == ((0,), (1, 2))
    with pytest.raises(EmptySubset):
        p.restrict([])


def test_partition_count():
    # Bell numbers
    assert [sum(1 for _ in all_partitions(n)) for n in range(1, 6)] == [1, 2, 5, 15, 52]


def test_graph_invariants():
    with pytest.raises(SemanticError):
        graph(0, LOOPS)
    with pytest.raises(SemanticError):
        graph(2, NOLOOPS, [(0, 0)])
    with pytest.raises(SemanticError):
        graph(2, LOOPS, [(0, 5)])
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


def test_space_properties():
    assert I2.is_indiscrete() and not S2.is_indiscrete()
    assert D2.is_discrete() and D2.is_t1() and D2.is_t0()
    assert S2.is_t0() and not S2.is_t1()
    assert not I2.is_t0()
    assert S2.min_open(0) == frozenset({0})
    assert S2.min_open(1) == frozenset({0, 1})


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


def test_enumerate_graphs_matches_b_set():
    reps = enumerate_graphs(2, LOOPS)
    for b in B_SET:
        assert sum(1 for r in reps if iso_graphs(r, b) is not None) == 1


def test_enumerate_graphs_bound():
    with pytest.raises(BoundExceeded):
        enumerate_graphs(7, NOLOOPS)
    assert len(enumerate_graphs(6, NOLOOPS, bound=6)) == 156


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
