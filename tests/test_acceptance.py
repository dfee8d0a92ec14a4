"""Acceptance suite: one timed check per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance and time budget is pinned here.
"""

import contextlib
import hashlib
import io
import time

import pytest

from conrad import graph_congruence as gc
from conrad import loopless_congruence as lc
from conrad import topo_congruence as tc
from conrad.cli_io import run_command
from conrad.errors import LemmaConditionFailed
from conrad.radical_engine import (
    GRAPH_CATALOG_IDS,
    KIND_GRAPH,
    KIND_LOOPLESS,
    KIND_TOPO,
    TOPO_CATALOG_IDS,
    build_universe,
    builtin_class,
    catalog_radical,
    check_subdirect,
    complementary_pair_check,
    h1_failures,
    h2_failures,
    hereditary_torsion_theory,
    hoehnke_radical,
    ideal_hereditary,
    ka_triple,
    loopless_degeneracy_check,
    rho_sum,
    semisimple_members,
    universe_from_members,
)
from conrad.structures import (
    B3,
    B_SET,
    D2,
    I2,
    LOOPS,
    NOLOOPS,
    S2,
    enumerate_graphs,
    enumerate_spaces,
    graph,
    homeo_spaces,
    iso_graphs,
)
from conrad.verification import exhaustive_iso_theorems, random_iso_theorems


class Budget:
    """Times a criterion and prints its one-line verdict."""

    def __init__(self, number: int, name: str, limit: float):
        self.number = number
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {self.name} {status} "
              f"({elapsed:.2f}s < {self.limit:g}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
            )
        return False


def test_criterion_01_congruence_counts():
    with Budget(1, "congruence-counts", 1.0):
        assert len(tc.enumerate_congruences_tc(I2)) == 2
        assert len(tc.enumerate_congruences_tc(S2)) == 3
        assert len(tc.enumerate_congruences_tc(D2)) == 5


def test_criterion_02_two_vertex_catalog():
    with Budget(2, "two-vertex-catalog", 1.0):
        reps = enumerate_graphs(2, LOOPS)
        assert len(reps) == 6
        for b in B_SET:
            assert sum(1 for r in reps if iso_graphs(r, b) is not None) == 1


def test_criterion_03_semisimple_traces():
    expected = {
        "a": set(),
        "b": set(),
        "c": {0, 1, 2, 4},          # B1 B2 B3 B5
        "d": {3, 5},                # B4 B6
        "e": {5},                   # B6
        "f": {0, 1, 2, 3, 4, 5},
        "g": {0, 1, 2, 4, 5},       # B1 B2 B3 B5 B6
        "h": {0, 1, 4, 5},          # B1 B2 B5 B6
    }
    with Budget(3, "semisimple-traces", 1.0):
        uni_b = universe_from_members(B_SET)
        for cid in GRAPH_CATALOG_IDS:
            sigma = catalog_radical(KIND_GRAPH, cid)
            got = {B_SET.index(g) for g in semisimple_members(sigma, uni_b)}
            assert got == expected[cid], cid


def test_criterion_04_topological_catalog_behavior():
    with Budget(4, "topo-catalog-behavior", 60.0):
        uni = build_universe(KIND_TOPO, 3)
        for cid in TOPO_CATALOG_IDS:
            sigma = catalog_radical(KIND_TOPO, cid)
            assert ideal_hereditary(sigma, uni)[0], cid
            assert not h1_failures(sigma, uni), cid
            assert not h2_failures(sigma, uni), cid
            verdict = ka_triple(sigma, uni)
            if cid in ("a", "b", "c"):
                assert verdict["ka"], cid
            else:
                ok, witness = verdict["strong"]
                assert not ok and witness is not None, cid
                assert homeo_spaces(witness[0], S2) is not None


def test_criterion_05_graph_catalog_behavior():
    # Heredity is asserted in the torsion-theory reading (both associated
    # classes hereditary), under which the eight-entry classification holds;
    # the stricter congruence-level restriction comparison provably fails for
    # the two merged-partition entries, and those witnesses are pinned too.
    strict_witnesses = {
        "a": (B3, (1,)),
        "c": (graph(3, LOOPS, [(0, 0), (0, 2), (1, 1)]), (1, 2)),
    }
    with Budget(5, "graph-catalog-behavior", 120.0):
        uni = build_universe(KIND_GRAPH, 3)
        for cid in GRAPH_CATALOG_IDS:
            sigma = catalog_radical(KIND_GRAPH, cid)
            assert hereditary_torsion_theory(sigma, uni)[0], cid
            strict_ok, witness = ideal_hereditary(sigma, uni)
            assert strict_ok == (cid not in strict_witnesses), cid
            if not strict_ok:
                assert witness == strict_witnesses[cid]
            assert not h1_failures(sigma, uni), cid
            assert not h2_failures(sigma, uni), cid
            verdict = ka_triple(sigma, uni)
            if cid in ("a", "c", "f"):
                assert verdict["ka"], cid
            else:
                ok, witness = verdict["strong"]
                assert not ok and witness is not None, cid


def test_criterion_06_isomorphism_theorem_suites():
    with Budget(6, "isomorphism-theorem-suites", 60.0):
        for kind in (KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS):
            exhaustive = exhaustive_iso_theorems(kind, 3)
            assert all(count == 0 for count in exhaustive.values()), (kind, exhaustive)
            sampled = random_iso_theorems(kind, 1000, seed=20260808)
            assert all(count == 0 for count in sampled.values()), (kind, sampled)


def test_criterion_07_birkhoff_decomposition():
    with Budget(7, "birkhoff-complete-factors", 60.0):
        count_at_5 = 0
        for n in range(1, 6):
            for g in enumerate_graphs(n, NOLOOPS):
                if n == 5:
                    count_at_5 += 1
                factors = lc.birkhoff_complete_decomposition(g)
                result = check_subdirect(g, factors)
                assert result.ok
                assert all(f.is_complete() for f in result.factors)
        assert count_at_5 == 34


def test_criterion_08_degeneracy():
    with Budget(8, "loopless-degeneracy", 10.0):
        uni = build_universe(KIND_LOOPLESS, 4)
        complete_cls = builtin_class(KIND_LOOPLESS, "complete")
        assert loopless_degeneracy_check(uni, complete_cls)
        for g in uni.members:
            assert hoehnke_radical(g, complete_cls) == gc.identity_gc(g)
        with pytest.raises(LemmaConditionFailed):
            loopless_degeneracy_check(uni, builtin_class(KIND_LOOPLESS, "edgeless"))


def test_criterion_09_rho_sum_equals_radical():
    with Budget(9, "radical-as-congruence-sum", 30.0):
        ind = builtin_class(KIND_TOPO, "indiscrete")
        t0 = builtin_class(KIND_TOPO, "t0")
        for x in build_universe(KIND_TOPO, 3).members:
            assert rho_sum(ind, x) == hoehnke_radical(x, t0)
        loops_cls = builtin_class(KIND_GRAPH, "trivial-or-all-looped")
        one_loop = builtin_class(KIND_GRAPH, "at-most-one-loop")
        for g in build_universe(KIND_GRAPH, 3).members:
            assert rho_sum(loops_cls, g) == hoehnke_radical(g, one_loop)


def test_criterion_10_complementary_pairs():
    with Budget(10, "complementary-pairs", 30.0):
        uni = build_universe(KIND_LOOPLESS, 4)
        for k in (1, 2, 3):
            c_cls = builtin_class(KIND_LOOPLESS, f"contains-k{k}")
            d_cls = builtin_class(KIND_LOOPLESS, f"k{k}-free")
            assert complementary_pair_check(c_cls, d_cls, uni), k


def test_criterion_11_sierpinski_decomposition():
    with Budget(11, "sierpinski-decomposition", 10.0):
        for n in (2, 3):
            for x in enumerate_spaces(n):
                factors = tc.sierpinski_decomposition(x)
                assert check_subdirect(x, factors).ok
                for cong in factors:
                    quotient = tc.quotient_tc(x, cong)
                    assert (
                        homeo_spaces(quotient, S2) is not None
                        or homeo_spaces(quotient, I2) is not None
                    )


def _sweep(monkeypatch, kind: str) -> tuple[str, str]:
    """The n <= 5 H1/H2 sweep of the kind's catalog: stdout and its sha256."""
    monkeypatch.setenv("CONRAD_MAX_N", "5")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = run_command(["universe", "--kind", kind, "--max-n", "5", "--check", "h1h2"])
    assert status == 0
    return out.getvalue(), hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_criterion_12_graph_h1_sweep_at_five(monkeypatch):
    # 662 graphs; the full scan over every surjection took 145-193 s
    with Budget(12, "graph-h1h2-n5", 20.0):
        stdout, digest = _sweep(monkeypatch, KIND_GRAPH)
    assert "summary: 16/16 checks passed" in stdout
    assert digest == "e3fde293d9a076d4a85b6fb70f215ca31b0ee410413dc12e015de01d20593a5e"


def test_criterion_13_topo_h1_sweep_at_five(monkeypatch):
    # 185 spaces; the full scan over every surjection took 22.6 s
    with Budget(13, "topo-h1h2-n5", 5.0):
        stdout, digest = _sweep(monkeypatch, KIND_TOPO)
    assert "summary: 10/10 checks passed" in stdout
    assert digest == "e6dc7fdfbe78e21ace1a248ee85d6a7e52ec58903222a66d2095240936020e29"
