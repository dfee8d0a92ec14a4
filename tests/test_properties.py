"""Property-based checks of the algebraic laws on sampled congruences."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conrad import graph_congruence as gc
from conrad import loopless_congruence as lc
from conrad import topo_congruence as tc
from conrad.cli_io import parse_congruence, parse_structure, serialize_congruence, serialize_structure
from conrad.graph_congruence import random_gcong
from conrad.loopless_congruence import random_lcong
from conrad.structures import LOOPS, NOLOOPS, random_graph
from conrad.topo_congruence import random_space, random_tcong

seeds = st.integers(min_value=0, max_value=10 ** 9)
sizes = st.integers(min_value=1, max_value=4)


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_topo_lattice_laws(seed, n):
    rng = random.Random(seed)
    x = random_space(rng, n)
    a, b, c = (random_tcong(rng, x) for _ in range(3))
    meet, join = tc.meet_tc, tc.join_tc
    assert meet(x, [a, b]) == meet(x, [b, a])
    assert join(x, [a, b]) == join(x, [b, a])
    assert meet(x, [a, meet(x, [b, c])]) == meet(x, [meet(x, [a, b]), c])
    assert join(x, [a, join(x, [b, c])]) == join(x, [join(x, [a, b]), c])
    assert meet(x, [a, join(x, [a, b])]) == a
    assert join(x, [a, meet(x, [a, b])]) == a
    assert meet(x, [a, a]) == a and join(x, [a, a]) == a
    assert tc.le_tc(tc.identity_tc(x), a)
    assert tc.le_tc(a, tc.universal_tc(x))


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_graph_lattice_laws(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, LOOPS)
    a, b, c = (random_gcong(rng, g) for _ in range(3))
    meet, join = gc.meet_gc, gc.join_gc
    assert meet(g, [a, b]) == meet(g, [b, a])
    assert join(g, [a, b]) == join(g, [b, a])
    assert meet(g, [a, meet(g, [b, c])]) == meet(g, [meet(g, [a, b]), c])
    assert join(g, [a, join(g, [b, c])]) == join(g, [join(g, [a, b]), c])
    assert meet(g, [a, join(g, [a, b])]) == a
    assert join(g, [a, meet(g, [a, b])]) == a


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_strongify_fixed_point(seed, n):
    rng = random.Random(seed)
    x = random_space(rng, n)
    rho = random_tcong(rng, x)
    strong = tc.strongify_tc(x, rho.part)
    assert tc.is_strong_tc(x, strong)
    assert tc.le_tc(strong, rho)
    g = random_graph(rng, n, LOOPS)
    theta = random_gcong(rng, g)
    strong_g = gc.strongify_gc(g, theta.part)
    assert gc.is_strong_gc(g, strong_g)
    assert gc.le_gc(strong_g, theta)


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_join_of_strong_congruences_is_strong(seed, n):
    rng = random.Random(seed)
    x = random_space(rng, n)
    a = tc.strongify_tc(x, random_tcong(rng, x).part)
    b = tc.strongify_tc(x, random_tcong(rng, x).part)
    assert tc.is_strong_tc(x, tc.join_tc(x, [a, b]))
    g = random_graph(rng, n, LOOPS)
    sa = gc.strongify_gc(g, random_gcong(rng, g).part)
    sb = gc.strongify_gc(g, random_gcong(rng, g).part)
    assert gc.is_strong_gc(g, gc.join_gc(g, [sa, sb]))


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_loopless_meet_laws(seed, n):
    rng = random.Random(seed)
    g = random_graph(rng, n, NOLOOPS)
    a, b = random_lcong(rng, g), random_lcong(rng, g)
    m = gc.meet_gc(g, [a, b])
    lc.validate_lc(g, m)
    assert gc.le_gc(m, a) and gc.le_gc(m, b)
    assert gc.meet_gc(g, [a, a]) == a
    assert gc.meet_gc(g, [a, gc.identity_gc(g)]) == gc.identity_gc(g)


@given(seeds, sizes)
@settings(max_examples=50, deadline=None)
def test_serialization_round_trip(seed, n):
    rng = random.Random(seed)
    x = random_space(rng, n)
    assert parse_structure(serialize_structure(x)) == x
    rho = random_tcong(rng, x)
    assert parse_congruence(serialize_congruence(rho), x) == rho
    g = random_graph(rng, n, LOOPS)
    assert parse_structure(serialize_structure(g)) == g
    theta = random_gcong(rng, g)
    assert parse_congruence(serialize_congruence(theta), g) == theta
    h = random_graph(rng, n, NOLOOPS)
    eta = random_lcong(rng, h)
    assert parse_congruence(serialize_congruence(eta), h) == eta


@given(seeds, sizes)
@settings(max_examples=40, deadline=None)
def test_random_congruences_validate(seed, n):
    rng = random.Random(seed)
    x = random_space(rng, n)
    tc.validate_tc(x, random_tcong(rng, x))
    g = random_graph(rng, n, LOOPS)
    gc.validate_gc(g, random_gcong(rng, g))
    h = random_graph(rng, n, NOLOOPS)
    lc.validate_lc(h, random_lcong(rng, h))
