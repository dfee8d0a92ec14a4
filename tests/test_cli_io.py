"""Parsing, serialization, round trips, and the command line surface."""

import pytest

from conrad import graph_congruence as gc
from conrad import topo_congruence as tc
from conrad.cli_io import (
    Report,
    parse_congruence,
    parse_structure,
    run_command,
    serialize_congruence,
    serialize_structure,
)
from conrad.errors import (
    IndependenceViolated,
    InputSyntaxError,
    NotSaturated,
    SemanticError,
)
from conrad.structures import (
    B4,
    D2,
    LOOPS,
    NOLOOPS,
    Partition,
    S2,
    complete_graph,
    enumerate_graphs,
    enumerate_spaces,
    graph,
    path_graph,
)


def test_parse_structure_examples():
    assert parse_structure("graph 2 loops\ne 0 0\ne 1 1\n") == B4
    assert parse_structure("space 2\nopen -\nopen 0\nopen 0,1\n") == S2
    with pytest.raises(SemanticError):
        parse_structure("graph 2 noloops\ne 0 0\n")


def test_parse_structure_comments_and_whitespace():
    text = "# a graph\ngraph 2 loops   \n e 0 1  # the only edge\n\n"
    assert parse_structure(text) == graph(2, LOOPS, [(0, 1)])


def test_parse_structure_syntax_errors():
    with pytest.raises(InputSyntaxError) as err:
        parse_structure("graph два loops\n")
    assert err.value.line == 1
    with pytest.raises(InputSyntaxError) as err:
        parse_structure("graph 2 loops\nedge 0 1\n")
    assert err.value.line == 2
    with pytest.raises(InputSyntaxError):
        parse_structure("")
    with pytest.raises(InputSyntaxError):
        parse_structure("widget 3\n")
    with pytest.raises(InputSyntaxError):
        parse_structure("graph 2 loops\ne 1 0\n")


def test_parse_congruence_examples():
    cong = parse_congruence("tcong\nblock 0 1\nopen -\nopen 0,1\n", D2)
    assert cong == tc.TopoCongruence(
        Partition.universal(2), frozenset({frozenset(), frozenset({0, 1})})
    )
    cong = parse_congruence(
        "gcong\nblock 0\nblock 1\nedge 0 0\nedge 1 1\nedge 0 1\n", B4
    )
    assert cong == gc.GraphCongruence(Partition.identity(2), B4.all_pairs)
    with pytest.raises(IndependenceViolated):
        parse_congruence("gcong\nblock 0 1\nedge 0 1\n", complete_graph(2))
    with pytest.raises(NotSaturated):
        parse_congruence("tcong\nblock 0 1\nopen -\nopen 0\nopen 0,1\n", S2)


def test_round_trip_structures():
    for n in (1, 2, 3):
        for g in enumerate_graphs(n, LOOPS):
            assert parse_structure(serialize_structure(g)) == g
        for g in enumerate_graphs(n, NOLOOPS):
            assert parse_structure(serialize_structure(g)) == g
        for x in enumerate_spaces(n):
            assert parse_structure(serialize_structure(x)) == x


def test_round_trip_congruences():
    for x in enumerate_spaces(3):
        for rho in tc.enumerate_congruences_tc(x):
            assert parse_congruence(serialize_congruence(rho), x) == rho
    for g in enumerate_graphs(2, LOOPS):
        for theta in gc.enumerate_congruences_gc(g):
            assert parse_congruence(serialize_congruence(theta), g) == theta
    from conrad import loopless_congruence as lc

    p3 = path_graph(3)
    for theta in lc.enumerate_congruences_lc(p3):
        assert parse_congruence(serialize_congruence(theta), p3) == theta


def test_report_rendering_and_status():
    report = Report(command="x")
    report.info("hello")
    report.check("good", True)
    report.check("bad", False, "because")
    text = report.render()
    assert "CHECK good PASS" in text
    assert "CHECK bad FAIL witness: because" in text
    assert "summary: 1/2 checks passed" in text
    assert report.failed


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

@pytest.fixture()
def files(tmp_path):
    paths = {}
    fixtures = {
        "b1": "graph 2 loops\n",
        "b4": "graph 2 loops\ne 0 0\ne 1 1\n",
        "d2": "space 2\nopen -\nopen 0\nopen 1\nopen 0,1\n",
        "path3": "graph 3 noloops\ne 0 1\ne 1 2\n",
        "univ_b4": "gcong\nblock 0 1\nedge 0 0\nedge 0 1\nedge 1 1\n",
        "bad": "graph 2 noloops\ne 0 0\n",
    }
    for name, text in fixtures.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def run(argv, capsys):
    status = run_command(argv)
    out = capsys.readouterr().out
    return status, out


def test_cli_congruences_count(files, capsys):
    status, out = run(["congruences", "--graph", files["b1"]], capsys)
    assert status == 0
    assert "total 10" in out


def test_cli_congruences_strong_only(files, capsys):
    status, out = run(
        ["congruences", "--graph", files["b1"], "--strong-only"], capsys
    )
    assert status == 0
    assert "total 2" in out


def test_cli_congruences_space(files, capsys):
    status, out = run(["congruences", "--space", files["d2"]], capsys)
    assert status == 0
    assert "total 5" in out
    status, out = run(["congruences", "--space", files["d2"], "--strong-only"], capsys)
    assert status == 0
    assert "total 2" in out


def test_cli_catalog(files, capsys):
    status, out = run(["catalog", "--kind", "graph", "--id", "c", files["b4"]], capsys)
    assert status == 0
    assert "block 0 1" in out
    assert "quotient: graph n=1 loops edges 0-0" in out


def test_cli_quotient(files, capsys):
    status, out = run(
        ["quotient", "--graph", files["b4"], "--cong", files["univ_b4"]], capsys
    )
    assert status == 0
    assert "graph 1 loops" in out
    assert "proj 0->0 1->0" in out


def test_cli_decompose_birkhoff(files, capsys):
    status, out = run(["decompose", "--birkhoff", files["path3"]], capsys)
    assert status == 0
    assert "-> K_2" in out and "-> K_3" in out
    assert "CHECK meet-is-identity PASS" in out


def test_cli_decompose_sierpinski(files, capsys):
    status, out = run(["decompose", "--sierpinski", files["d2"]], capsys)
    assert status == 0
    assert out.count("-> S2") == 2


def test_cli_radical(files, capsys):
    status, out = run(["radical", "--class", "t0", files["d2"]], capsys)
    assert status == 0
    assert "tcong" in out


def test_cli_universe_degeneracy(files, capsys):
    status, out = run(
        ["universe", "--kind", "loopless", "--max-n", "4",
         "--check", "degeneracy", "--class", "complete"],
        capsys,
    )
    assert status == 0
    assert "CHECK degeneracy-complete PASS" in out


def test_cli_universe_degeneracy_lemma_failure(files, capsys):
    status = run_command(
        ["universe", "--kind", "loopless", "--max-n", "4",
         "--check", "degeneracy", "--class", "edgeless"]
    )
    assert status == 1


def test_cli_parse_error_status(files, capsys):
    status = run_command(["congruences", "--graph", files["bad"]])
    assert status == 2
    status = run_command(["congruences", "--graph", "/nonexistent/file.txt"])
    assert status == 2


def test_cli_determinism(files, capsys):
    argv = ["universe", "--kind", "topo", "--max-n", "2", "--check", "ka"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second


def test_cli_birkhoff_golden_output(files, capsys):
    status, out = run(["decompose", "--birkhoff", files["path3"]], capsys)
    assert status == 0
    body = out.split("\n", 1)[1]  # drop the command echo (carries tmp paths)
    assert body == (
        "factor 0: blocks [0 2][1] edges 0-1 1-2 -> K_2\n"
        "factor 1: blocks [0][1][2] edges 0-1 0-2 1-2 -> K_3\n"
        "embed 0 -> (0,0)\n"
        "embed 1 -> (1,1)\n"
        "embed 2 -> (0,2)\n"
        "CHECK meet-is-identity PASS\n"
        "summary: 1/1 checks passed\n"
    )


def test_cli_verify(files, capsys):
    status, out = run(
        ["verify", "--kind", "topo", "--max-n", "2", "--samples", "20"], capsys
    )
    assert status == 0
    assert "summary: 6/6 checks passed" in out


def test_cli_verify_seed_determinism(files, capsys):
    argv = ["verify", "--kind", "graph", "--max-n", "2", "--samples", "15", "--seed", "3"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    assert first == second


def test_cli_malformed_max_n_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("CONRAD_MAX_N", "abc")
    status = run_command(["universe", "--kind", "graph", "--check", "ka"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: CONRAD_MAX_N must be an integer, got 'abc'\n"
    assert captured.out == "command: universe --kind graph --check ka\n"


def test_enumerate_graphs_malformed_max_n_env(monkeypatch):
    from conrad.errors import UsageError

    monkeypatch.setenv("CONRAD_MAX_N", "abc")
    with pytest.raises(UsageError, match="CONRAD_MAX_N must be an integer, got 'abc'"):
        enumerate_graphs(2, LOOPS)
