"""Sweeps that stop at their verdict: lazy congruence enumeration, the
early-exit U and meet-to-identity scans, and the iso-class index.

Each fast path is compared with the eager reference in `oracles`, which
builds every congruence or scans the whole pool.
"""

import contextlib
import dataclasses
import hashlib
import io
import random

import pytest

from conrad import graph_congruence as gc
from conrad import topo_congruence as tc
from conrad.cli_io import run_command
from conrad.errors import BoundExceeded, LemmaConditionFailed, NoQualifyingCongruence
from conrad.radical_engine import (
    BUILTIN_CLASSES,
    KIND_OPS,
    U_operator,
    _class_hereditary,
    _class_meet,
    build_universe,
    class_from_members,
    hoehnke_radical,
    is_subdirectly_irreducible,
    loopless_degeneracy_check,
    subdirect_closure,
)
from conrad.structures import (
    LOOPS,
    _nonempty_subsets,
    all_partitions,
    bell_number,
    discrete_space,
    graph,
)

from oracles import (
    EAGER_CONGRUENCES,
    U_operator_eager,
    class_hereditary_scan,
    degeneracy_eager,
    hoehnke_radical_eager,
    iso_to_some,
    meets_to_identity_eager,
    subdirect_closure_eager,
)

UNIVERSES = {"topo": 4, "graph": 3, "loopless": 5}


@pytest.fixture(scope="module")
def universes():
    return {kind: build_universe(kind, n) for kind, n in UNIVERSES.items()}


def _classes(kind):
    return [cls for (k, _), cls in sorted(BUILTIN_CLASSES.items()) if k == kind]


@pytest.mark.parametrize("kind", sorted(UNIVERSES))
def test_lazy_enumeration_equals_eager(kind, universes):
    ops = KIND_OPS[kind]
    for x in universes[kind]:
        eager = EAGER_CONGRUENCES[kind](x)
        assert list(ops.iter_congruences(x)) == eager == ops.enum_congruences(x), x


def _looped_path(n):
    return graph(n, LOOPS, [(v, v) for v in range(n)] + [(v, v + 1) for v in range(n - 1)])


@pytest.mark.parametrize("module, lazy, structure", [
    (gc, gc.iter_congruences_gc, _looped_path(8)),
    (tc, tc.iter_congruences_tc, discrete_space(7)),
])
def test_lazy_enumeration_refuses_at_call(module, lazy, structure, monkeypatch):
    built = []
    monkeypatch.setattr(module, "_congruences_of", lambda *args: built.append(args) or [])
    with pytest.raises(BoundExceeded):
        lazy(structure)
    assert built == []


@pytest.mark.parametrize("kind", sorted(UNIVERSES))
def test_early_exit_sweeps_equal_eager(kind, universes):
    uni = universes[kind]
    ops = KIND_OPS[kind]
    for cls in _classes(kind):
        for x in uni:
            met = _class_meet(ops, x, cls)
            assert (met == ops.identity(x)) == meets_to_identity_eager(kind, x, cls), (cls.name, x)
        assert U_operator(cls, uni) == U_operator_eager(cls, uni), cls.name
        assert subdirect_closure(cls, uni) == subdirect_closure_eager(cls, uni), cls.name


def _radical_or_none(radical, x, cls):
    try:
        return radical(x, cls)
    except NoQualifyingCongruence:
        return None


@pytest.mark.parametrize("kind", sorted(UNIVERSES))
def test_running_meet_equals_eager_meet(kind, universes):
    ops = KIND_OPS[kind]
    for x in universes[kind]:
        for cls in _classes(kind):
            expected = _radical_or_none(hoehnke_radical_eager, x, cls)
            assert _radical_or_none(hoehnke_radical, x, cls) == expected, (cls.name, x)
        iota = ops.identity(x)
        others = [t for t in EAGER_CONGRUENCES[kind](x) if t != iota]
        assert is_subdirectly_irreducible(x) == (not others or ops.meet(x, others) != iota), x


def test_degeneracy_verdict_equals_eager(universes):
    uni = universes["loopless"]
    verdicts = {}
    for cls in _classes("loopless"):
        expected = degeneracy_eager(uni, cls)
        if expected is None:
            with pytest.raises(LemmaConditionFailed):
                loopless_degeneracy_check(uni, cls)
        else:
            assert loopless_degeneracy_check(uni, cls) == expected, cls.name
        verdicts[cls.name] = expected
    # the paper's claim holds for every class that contains the complete graphs
    assert {name for name, v in verdicts.items() if v is not None} == {
        "all", "complete", "contains-k1", "contains-k2"}
    assert all(v for v in verdicts.values() if v is not None)


def test_loopless_pair_builds_few_quotients(monkeypatch, capsys):
    # the n <= 5 degeneracy and complementary sweeps stop at their verdicts;
    # consuming every congruence, as before, built 7,010 quotients
    built = []
    ops = KIND_OPS["loopless"]

    def quotient(*args):
        built.append(args)
        return ops.quotient(*args)

    monkeypatch.setitem(KIND_OPS, "loopless", dataclasses.replace(ops, quotient=quotient))
    monkeypatch.delenv("CONRAD_MAX_N", raising=False)
    base = ["universe", "--kind", "loopless", "--max-n", "5", "--check"]
    assert run_command(base + ["degeneracy", "--class", "complete"]) == 0
    assert run_command(base + ["complementary", "--class", "contains-k3"]) == 0
    assert capsys.readouterr().out.count("PASS") == 2
    assert len(built) == 1630


@pytest.mark.parametrize("check, digest", [
    ("degeneracy --class complete",
     "6986eb9b6bd4381893eff2eead0da746dc8c46618ddd594731f46f58edbdf392"),
    ("complementary --class contains-k3",
     "359ff39f1e68e721248007eb3032f84d73b422a377d4bd00abb813b46e8d46f8"),
])
def test_loopless_six_vertex_sweeps_are_pinned(check, digest, monkeypatch):
    monkeypatch.setenv("CONRAD_MAX_N", "6")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run_command(f"universe --kind loopless --max-n 6 --check {check}".split())
    assert status == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("kind, max_n", [("graph", 4), ("loopless", 5), ("topo", 4)])
def test_iso_index_equals_linear_scan(kind, max_n):
    ops = KIND_OPS[kind]
    uni = build_universe(kind, max_n)
    rng = random.Random(max_n)
    queries = list(uni)
    for x in uni:
        perm = list(range(x.n))
        rng.shuffle(perm)
        queries.append(ops.relabel(x, perm))
        sub = rng.choice(list(_nonempty_subsets(x.n)))
        queries.append(ops.substructure(x, sub))
    pools = [[x for x in uni if cls(x)] for cls in _classes(kind)]
    pools += [list(uni)[::2], list(uni)[1::3]]
    for pool in pools:
        member = class_from_members(kind, "pool", pool)
        for q in queries:
            assert member(q) == (q.n == 1 or iso_to_some(kind, q, pool)), q
        assert _class_hereditary(kind, pool) == class_hereditary_scan(kind, pool)


def test_all_partitions_built_once_per_size():
    assert all_partitions(5) is all_partitions(5)
    assert len(all_partitions(6)) == bell_number(6)
