"""Property-based checks of the algebraic laws on sampled congruences."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conrad import graph_congruence as gc
from conrad import loopless_congruence as lc
from conrad import topo_congruence as tc
from conrad.cli_io import parse_congruence, parse_structure, serialize_congruence, serialize_structure
from conrad.errors import InputSyntaxError, InvalidCongruence, SemanticError, UsageError
from conrad.graph_congruence import random_gcong
from conrad.loopless_congruence import random_lcong
from conrad.structures import B5, LOOPS, NOLOOPS, S2, path_graph, random_graph
from conrad.topo_congruence import random_space, random_tcong

import oracles

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
    assert oracles.is_strong_tc(x, strong)
    assert tc.le_tc(strong, rho)
    g = random_graph(rng, n, LOOPS)
    theta = random_gcong(rng, g)
    strong_g = gc.strongify_gc(g, theta.part)
    assert oracles.is_strong_gc(g, strong_g)
    assert gc.le_gc(strong_g, theta)


@given(seeds, sizes)
@settings(max_examples=60, deadline=None)
def test_join_of_strong_congruences_is_strong(seed, n):
    rng = random.Random(seed)
    x = random_space(rng, n)
    a = tc.strongify_tc(x, random_tcong(rng, x).part)
    b = tc.strongify_tc(x, random_tcong(rng, x).part)
    assert oracles.is_strong_tc(x, tc.join_tc(x, [a, b]))
    g = random_graph(rng, n, LOOPS)
    sa = gc.strongify_gc(g, random_gcong(rng, g).part)
    sb = gc.strongify_gc(g, random_gcong(rng, g).part)
    assert oracles.is_strong_gc(g, gc.join_gc(g, [sa, sb]))


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


# Texts built from the file grammar's tokens; every number, and so every
# declared size, is at most 12.
_numbers = st.integers(min_value=-1, max_value=12).map(str)
_tokens = st.sampled_from([
    "graph", "space", "loops", "noloops", "e", "open", "block", "edge", "tcong",
    "gcong", "-", "#", ",", "0,1", "2,1,0", "1,,2", "x", "1.5",
]) | _numbers
_ids = st.lists(_numbers, min_size=1, max_size=3).map(",".join)


def _filled(templates):
    return st.tuples(st.sampled_from(templates), _ids, _numbers, _numbers).map(
        lambda t: t[0].format(*t[1:])
    )


_headers = _filled(["graph {1} loops", "graph {1} noloops", "space {1}", "tcong", "gcong"])
_raw_lines = st.lists(_tokens, max_size=5).map(" ".join)
_grammar_lines = _filled(["e {1} {2}", "edge {1} {2}", "open {0}", "open -", "block {1} {2}", "block {0}"])


def _mostly(common, rare):
    """common four times in five, so that some texts get past the first error."""
    return st.integers(0, 4).flatmap(lambda k: rare if k == 0 else common)


_lines = _mostly(_grammar_lines, _raw_lines)
_texts = st.tuples(_mostly(_headers, _lines), st.lists(_lines, max_size=8)).map(
    lambda t: "\n".join([t[0], *t[1]])
)
_EXIT_2_ERRORS = (InputSyntaxError, SemanticError, InvalidCongruence, UsageError)


@given(_texts)
@settings(max_examples=400, deadline=None)
def test_parsers_return_a_value_or_an_exit_2_error(text):
    for parse in (
        parse_structure,
        lambda t: parse_congruence(t, S2),
        lambda t: parse_congruence(t, B5),
        lambda t: parse_congruence(t, path_graph(3)),
    ):
        try:
            parse(text)
        except _EXIT_2_ERRORS:
            pass
