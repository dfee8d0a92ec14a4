"""The slot-mask calculus of graphs and graph congruences against the
sets-of-pairs references in `oracles`."""

import functools
import itertools
import operator
import random
import time

import pytest

from conrad import graph_congruence as gc
from conrad import loopless_congruence as lc
from conrad.errors import BoundExceeded, ConradError
from conrad.radical_engine import (
    BUILTIN_CLASSES,
    KIND_OPS,
    build_universe,
    catalog_graph,
    class_from_members,
    surjective_morphisms,
)
from conrad.structures import (
    LOOPS,
    NOLOOPS,
    _nonempty_subsets,
    _pair_at,
    _at_slots,
    _mask_of,
    _pair_slots,
    _slot,
    _slot_plan,
    _union_of,
    all_partitions,
    carries_edges,
    enumerate_graphs,
    graph,
    induced,
    random_graph,
    relabel_graph,
)

import oracles

GRAPHS_3 = [g for n in (1, 2, 3) for g in enumerate_graphs(n, LOOPS)]
LOOPLESS_4 = [g for n in (1, 2, 3, 4) for g in enumerate_graphs(n, NOLOOPS)]
CARRIERS = [("graph", GRAPHS_3), ("loopless", LOOPLESS_4)]


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except ConradError as exc:
        return type(exc), str(exc)


def _labelled(n, policy):
    slots = _pair_slots(n, policy)
    for k in range(2 ** len(slots)):
        yield graph(n, policy, [slots[i] for i in range(len(slots)) if k >> i & 1])


def test_every_graph_is_its_edge_set():
    # every labelled graph of graph n <= 3 and loopless n <= 4: the slot of a
    # pair is its place among all pairs a <= b, and every question on the
    # mask answers as on the edge set
    checked = 0
    sizes = [(n, LOOPS) for n in (1, 2, 3)] + [(n, NOLOOPS) for n in (1, 2, 3, 4)]
    for n, policy in sizes:
        everywhere = _pair_slots(n, LOOPS)
        perms = list(itertools.permutations(range(n)))
        for g in _labelled(n, policy):
            assert g.mask == sum(1 << everywhere.index(p) for p in g.edges)
            assert g.encoding() == (n, policy, tuple(sorted(g.edges)))
            assert g.all_pairs == graph(n, policy, oracles.all_pairs(g)).mask
            assert g.is_complete() == oracles.is_complete(g)
            assert g.loop_vertices == oracles.loop_vertices(g)
            assert g.iso_key() == oracles.iso_key(g)
            assert [g.point_key(v) for v in range(n)] == [oracles.point_key(g, v) for v in range(n)]
            assert all(g.has_edge(a, b) == ((a, b) in g.edges) for a, b in everywhere)
            for sub in _nonempty_subsets(n):
                assert induced(g, sub) == oracles.induced_pairs(g, sub)
            for perm in perms:
                h = relabel_graph(g, perm)
                assert h == oracles.relabel_pairs(g, perm)
                assert carries_edges(g, h, perm) and oracles.carries_pairs(g, h, perm)
                assert carries_edges(h, g, perm) == oracles.carries_pairs(h, g, perm)
            checked += 1
    assert checked == 2 + 8 + 64 + 1 + 2 + 8 + 64


def test_each_slot_decodes_to_its_pair():
    # every pair of n <= 60 vertices, and seeded pairs of 4,000 with each
    # sampled row's first and last pair, comes back from its slot
    for n in range(1, 61):
        for a, b in itertools.combinations_with_replacement(range(n), 2):
            assert _pair_at(n, _slot(n, a, b)) == (a, b)
    n, rng = 4000, random.Random(4000)
    for _ in range(1000):
        a, b = sorted(rng.randrange(n) for _ in range(2))
        for pair in ((a, b), (a, a), (a, n - 1)):
            assert _pair_at(n, _slot(n, *pair)) == pair


def test_a_carry_plan_holds_the_bit_of_each_target_slot():
    # each slot's entry is the one-pair mask `_mask_of` builds, in either
    # order, 0 for a dropped end, and a target past the cap is refused alike
    image = (2, 0, None, 1)
    plan = _slot_plan(4, image, 3)
    for a, b in itertools.combinations_with_replacement(range(4), 2):
        x, y = image[a], image[b]
        assert plan[_slot(4, a, b)] == (0 if None in (x, y) else _mask_of(3, [(x, y)]))
    far = _slot_plan(2, (0, 999), 1000)
    assert far[_slot(2, 0, 0)] == 1 and far[_slot(2, 0, 1)] == 1 << 999
    with pytest.raises(BoundExceeded) as refused:
        far[_slot(2, 1, 1)]
    with pytest.raises(BoundExceeded) as expected:
        _mask_of(1000, [(999, 999)])
    assert str(refused.value) == str(expected.value) == "edge-sets capped at 100000 pair slots: 999-999 is slot 500499"


def test_one_congruence_operations_match_the_pair_calculus():
    listed = 0
    for kind, carriers in CARRIERS:
        ops = KIND_OPS[kind]
        for g in carriers:
            for theta in ops.enum_congruences(g):
                assert gc.GraphCongruence.from_pairs(theta.part, theta.cedges) == theta
                assert theta.encoding() == (theta.part.class_id, tuple(sorted(theta.cedges)))
                assert ops.validate(g, theta) is theta
                assert oracles.validate_pairs(g, theta) is theta
                quotient = ops.quotient(g, theta)
                assert quotient == oracles.quotient_gc_pairs(g, theta)
                proj = theta.part.class_id
                assert ops.kernel(g, quotient, proj) == oracles.kernel_gc_pairs(g, quotient, proj) == theta
                for sub in _nonempty_subsets(g.n):
                    assert ops.restrict(g, theta, sub) == oracles.restrict_gc_pairs(g, theta, sub)
                listed += 1
            for part in all_partitions(g.n):
                assert ops.strongify(g, part) == oracles.strongify_pairs(g, part)
    assert listed == 3 + 28 + 421 + 1 + 4 + 25 + 296


def test_two_congruence_operations_match_the_pair_calculus():
    pairs = 0
    for kind, carriers in CARRIERS:
        ops = KIND_OPS[kind]
        for g in carriers:
            cons = ops.enum_congruences(g)
            for a, b in itertools.product(cons, repeat=2):
                assert ops.le(a, b) == oracles.le_gc_pairs(a, b)
                assert ops.meet(g, [a, b]) == oracles.meet_gc_pairs(g, [a, b])
                if ops.join:
                    assert ops.join(g, [a, b]) == oracles.join_gc_pairs(g, [a, b])
                if ops.le(a, b):
                    assert ops.quotient_cong(g, a, b) == oracles.quotient_cong_gc_pairs(g, a, b)
                pairs += 1
            if g.n <= 2:
                for trio in itertools.product(cons, repeat=3):
                    assert ops.meet(g, list(trio)) == oracles.meet_gc_pairs(g, trio)
                    if ops.join:
                        assert ops.join(g, list(trio)) == oracles.join_gc_pairs(g, trio)
    assert pairs == 5 + 172 + 16299 + 1 + 10 + 271 + 21394


def test_maps_match_the_pair_calculus():
    for kind, carriers in CARRIERS:
        ops = KIND_OPS[kind]
        small = [g for g in carriers if g.n <= 3]
        for g in small:
            cons = ops.enum_congruences(g)
            for h in small:
                # every map, a homomorphism or not: a kernel or the same refusal
                for f in itertools.product(range(h.n), repeat=g.n):
                    assert _outcome(ops.kernel, g, h, f) == _outcome(oracles.kernel_gc_pairs, g, h, f)
                targets = ops.enum_congruences(h)
                for f in surjective_morphisms(g, h):
                    for theta in cons:
                        if kind == "graph":
                            assert gc.image_gc(g, h, f, theta) == oracles.image_gc_pairs(g, h, f, theta)
                        for beta in targets:
                            assert ops.image_le(g, h, f, theta, beta) == oracles.image_le_gc_pairs(
                                g, h, f, theta, beta
                            )


def test_validation_on_masks_matches_validation_on_pairs():
    # every set of pairs a <= b (loops included, so a loopless carrier sees
    # out-of-range ones) with every partition: the mask check refuses with
    # the type and message of the definition, which names the least pair;
    # the check of a file's pairs refuses with the same type
    for n, policy in [(1, LOOPS), (2, LOOPS), (3, LOOPS), (1, NOLOOPS), (2, NOLOOPS), (3, NOLOOPS)]:
        everywhere = _pair_slots(n, LOOPS)
        validate = gc.validate_gc if policy == LOOPS else lc.validate_lc
        for g in enumerate_graphs(n, policy):
            for part in all_partitions(n):
                for k in range(2 ** len(everywhere)):
                    pairs = frozenset(p for i, p in enumerate(everywhere) if k >> i & 1)
                    theta = gc.GraphCongruence.from_pairs(part, pairs)
                    expected = _outcome(oracles.validate_pairs, g, theta)
                    assert _outcome(validate, g, theta) == expected
                    read = _outcome(gc.validate_pairs_gc, g, part, pairs)
                    assert read == theta if expected is theta else read[0] == expected[0]


def test_enumerations_list_the_pair_calculus_in_order():
    for kind, policy, top in [("graph", LOOPS, 4), ("loopless", NOLOOPS, 5)]:
        for n in range(1, top + 1):
            for g in enumerate_graphs(n, policy):
                listed = KIND_OPS[kind].enum_congruences(g)
                assert listed == oracles.EAGER_CONGRUENCES[kind](g)
                keys = [(c.part.class_id, tuple(sorted(c.cedges))) for c in listed]
                assert keys == sorted(keys)


def test_graph_enumeration_matches_the_pair_calculus():
    for policy in (LOOPS, NOLOOPS):
        for n in range(1, 6):
            reps = enumerate_graphs(n, policy)
            assert reps == oracles.enumerate_graphs_pairs(n, policy)
            assert [g.encoding() for g in reps] == [
                (n, policy, tuple(sorted(g.edges))) for g in oracles.enumerate_graphs_pairs(n, policy)
            ]


def test_catalog_and_classes_match_the_pair_calculus():
    # the catalog on graph n <= 4, and each built-in graph and loopless class
    # (decided on loop-slot, star, row and clique masks) as its definition
    # on the edge set: on every member of the graph n <= 4 and loopless
    # n <= 6 universes, and on seeded random graphs of up to 9 vertices
    for g in GRAPHS_3 + enumerate_graphs(4, LOOPS):
        for cid in "abcdefgh":
            assert catalog_graph(g, cid) == oracles.catalog_graph_pairs(g, cid), (g, cid)
    kinds = {"graph": LOOPS, "loopless": NOLOOPS}
    assert {key for key in BUILTIN_CLASSES if key[0] in kinds} == set(oracles.BUILTIN_GRAPH_CLASSES)
    rng = random.Random(9)
    pools = {
        kind: list(build_universe(kind, max_n))
        + [random_graph(rng, n, kinds[kind]) for n in range(1, 10) for _ in range(30)]
        for kind, max_n in (("graph", 4), ("loopless", 6))
    }
    checked = 0
    for (kind, name), member in oracles.BUILTIN_GRAPH_CLASSES.items():
        for g in pools[kind]:
            assert BUILTIN_CLASSES[kind, name](g) == member(g), (kind, name, g)
            checked += 1
    # 9 graph classes on 118 members, 10 loopless ones on 208, 270 draws each
    assert checked == 9 * (118 + 270) + 10 * (208 + 270)


def test_random_draws_match_the_pair_calculus():
    # the same seed draws the same graphs and congruences, using the generator alike
    sizes = random.Random(3)
    mine, theirs = random.Random(11), random.Random(11)
    for _ in range(1000):
        n = sizes.randint(1, 5)
        g = random_graph(mine, n, LOOPS)
        assert g == oracles.random_graph_pairs(theirs, n, LOOPS)
        assert gc.random_gcong(mine, g) == oracles.random_gcong_pairs(theirs, g)
        h = random_graph(mine, n, NOLOOPS)
        assert h == oracles.random_graph_pairs(theirs, n, NOLOOPS)
        assert lc.random_lcong(mine, h) == oracles.random_lcong_pairs(theirs, h)
    assert mine.getstate() == theirs.getstate()


def test_point_keys_read_off_the_edges():
    # every member of graph n <= 4 and loopless n <= 6 keeps the point keys
    # and iso key of the pair definition
    checked = 0
    for kind, max_n in (("graph", 4), ("loopless", 6)):
        for g in build_universe(kind, max_n):
            assert g.point_keys() == [oracles.point_key(g, v) for v in range(g.n)], g
            assert [g.point_key(v) for v in range(g.n)] == g.point_keys()
            assert g.iso_key() == oracles.iso_key(g), g
            checked += 1
    assert checked == 2 + 6 + 20 + 90 + 1 + 2 + 4 + 11 + 34 + 156


def test_a_large_sparse_graph_joins_a_class_pool():
    # one edge on 500 vertices: its far pairs lie past the edge-set cap, and
    # reading a degree through each vertex's star refused the graph
    g = graph(500, LOOPS, [(0, 1)])
    assert g.point_keys() == [(1, 0), (1, 0)] + [(0, 0)] * 498
    assert g.iso_key() == (500, 1, tuple(sorted(g.point_keys())))
    h = graph(500, LOOPS, [(3, 3), (200, 200), (200, 201)])
    assert (h.point_key(200), h.point_key(201), h.point_key(3), h.point_key(0)) == ((1, 1), (1, 0), (0, 1), (0, 0))
    pool = class_from_members("graph", "large", [g, h])
    # no member shares these keys, so no isomorphism is searched
    assert not pool(graph(500, LOOPS, [(0, 1), (2, 3)]))
    assert not pool(graph(2, LOOPS, [(0, 1)]))
    assert pool(graph(1, LOOPS))


def test_a_wide_mask_is_walked_in_linear_time():
    # a mask wider than 64 bits is walked through its binary text: the bit
    # by bit walk costs a whole-mask operation per set bit, and took seconds
    # on a dense mask this wide
    width = 200_000
    dense, sparse = (1 << width) - 1, 1 << width | 1 << 70 | 5
    start = time.perf_counter()
    assert _at_slots(range(width), dense) == list(range(width))
    assert _union_of([1 << (i % 7) for i in range(width)], dense) == 127
    assert time.perf_counter() - start < 1.0
    assert _at_slots(range(width + 1), sparse) == [0, 2, 70, width]
    rng = random.Random(5)
    for bits in (1, 30, 64, 65, 100, 300):
        for _ in range(20):
            mask = rng.getrandbits(bits)
            assert _at_slots(range(bits), mask) == [i for i in range(bits) if mask >> i & 1]
            masks = [rng.getrandbits(8) for _ in range(bits)]
            assert _union_of(masks, mask) == functools.reduce(
                operator.or_, (masks[i] for i in range(bits) if mask >> i & 1), 0)
