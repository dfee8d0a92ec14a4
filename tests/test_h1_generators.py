"""H1 decided on the elementary maps between universe members.

`h1_holds` checks H1 only along the universe's elementary maps (merge two
points, add one relation pair, each composed with the least isomorphism onto
a member, and the members' automorphisms).  The full scan `h1_failures`
over every surjective morphism is its oracle.
"""

import random

import pytest

from conrad import radical_engine
from conrad.errors import ConradError, NoQualifyingCongruence
from conrad.radical_engine import (
    BUILTIN_CLASSES,
    KIND_GRAPH,
    KIND_LOOPLESS,
    KIND_OPS,
    KIND_TOPO,
    RadicalAssignment,
    build_universe,
    builtin_class,
    catalog_radical,
    h1_failures,
    h1_holds,
    radical_from_class,
    universe_from_members,
)
from conrad.structures import B_SET, is_surjective

from oracles import is_morphism
from test_radical_engine import _universal_on_three

SIZES = [(KIND_GRAPH, 4), (KIND_LOOPLESS, 5), (KIND_TOPO, 4)]


def _rules(kind, uni):
    """The catalog radicals, every built-in class radical with a value on
    each member, and a rule breaking H1 on three-point carriers."""
    rules = [catalog_radical(kind, cid) for cid in KIND_OPS[kind].catalog_ids]
    for (k, _), cls in sorted(BUILTIN_CLASSES.items()):
        if k != kind:
            continue
        sigma = radical_from_class(cls)
        try:
            for x in uni:
                sigma(x)
        except NoQualifyingCongruence:
            continue
        rules.append(sigma)
    return rules + [_universal_on_three(kind)]


def _perturbed(base, uni, rng):
    """base with one or two members' values replaced by random congruences,
    which need not be invariant under the members' automorphisms."""
    ops = KIND_OPS[uni.kind]
    chosen = rng.sample([x for x in uni if x.n >= 2], rng.choice((1, 2)))
    values = {x: ops.random_congruence(rng, x) for x in chosen}
    return RadicalAssignment("perturbed", lambda x: values[x] if x in values else base(x))


@pytest.mark.parametrize("kind, max_n", SIZES)
def test_elementary_maps_are_surjective_morphisms_between_members(kind, max_n):
    uni = build_universe(kind, max_n)
    members = set(uni)
    maps = uni.elementary_maps
    assert len(set(maps)) == len(maps)
    for x, y, f in maps:
        assert x in members and y in members
        assert len(f) == x.n and is_surjective(f, y.n) and is_morphism(x, y, f)
    # every automorphism but the identity is a generator
    assert any(x == y and f != tuple(range(x.n)) for x, y, f in maps)
    assert uni.elementary_maps is maps


@pytest.mark.parametrize("kind, max_n", SIZES)
def test_h1_holds_equals_the_full_scan(kind, max_n):
    uni = build_universe(kind, max_n)
    verdicts = []
    for sigma in _rules(kind, uni):
        verdict = h1_holds(sigma, uni)
        assert verdict == (not h1_failures(sigma, uni)), sigma.name
        verdicts.append(verdict)
    assert True in verdicts and verdicts[-1] is False


@pytest.mark.parametrize("kind, max_n, count", [
    (KIND_GRAPH, 3, 600), (KIND_TOPO, 3, 400), (KIND_LOOPLESS, 4, 300),
])
def test_h1_holds_equals_the_full_scan_on_perturbed_rules(kind, max_n, count):
    uni = build_universe(kind, max_n)
    bases = [sigma for sigma in _rules(kind, uni) if h1_holds(sigma, uni)]
    rng = random.Random(f"{kind}-{max_n}")
    passed = 0
    for _ in range(count):
        sigma = _perturbed(rng.choice(bases), uni, rng)
        verdict = h1_holds(sigma, uni)
        assert verdict == (not h1_failures(sigma, uni))
        passed += verdict
    # both verdicts occur, so a wrong PASS would have had its chance to show
    assert 0 < passed < count


def test_h1_holds_searches_no_surjection_on_a_closed_universe(monkeypatch):
    def refused(*args):
        raise AssertionError("searched a surjection")

    monkeypatch.setattr(radical_engine, "surjective_morphisms", refused)
    uni = build_universe(KIND_GRAPH, 3)
    assert all(h1_holds(catalog_radical(KIND_GRAPH, cid), uni) for cid in "abcdefgh")


def test_a_universe_not_closed_under_the_steps_takes_the_full_scan(monkeypatch):
    scans = []
    scan = radical_engine.h1_failures

    def counted(sigma, uni):
        scans.append(sigma.name)
        return scan(sigma, uni)

    monkeypatch.setattr(radical_engine, "h1_failures", counted)
    # the two-vertex graphs merge onto one-vertex graphs outside the list
    uni_b = universe_from_members(B_SET)
    assert uni_b.elementary_maps is None
    sigma = catalog_radical(KIND_GRAPH, "c")
    assert h1_holds(sigma, uni_b) == (not scan(sigma, uni_b))
    assert scans == [sigma.name]
    # a member isomorphic to an earlier one breaks the factorisation too
    full = build_universe(KIND_TOPO, 2)
    relabel = KIND_OPS[KIND_TOPO].relabel
    twin = next(t for t in (relabel(x, (1, 0)) for x in full if x.n == 2) if t not in full.members)
    assert universe_from_members(full.members + (twin,)).elementary_maps is None
    assert full.elementary_maps is not None


def test_h1_holds_reads_every_value_before_comparing():
    # a rule with no value on some member raises, as the full scan does
    uni = build_universe(KIND_LOOPLESS, 4)
    sigma = radical_from_class(builtin_class(KIND_LOOPLESS, "k2-free"))
    with pytest.raises(NoQualifyingCongruence) as scanned:
        h1_failures(sigma, uni)
    with pytest.raises(NoQualifyingCongruence) as decided:
        h1_holds(radical_from_class(builtin_class(KIND_LOOPLESS, "k2-free")), uni)
    assert str(decided.value) == str(scanned.value)
    read = []

    def rule(x):
        read.append(x)
        if x == uni.members[-1]:
            raise ConradError("last member")
        return KIND_OPS[KIND_LOOPLESS].identity(x)

    with pytest.raises(ConradError, match="last member"):
        h1_holds(RadicalAssignment("raises-last", rule), uni)
    assert read == list(uni.members)
