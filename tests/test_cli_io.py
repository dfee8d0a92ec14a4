"""Parsing, serialization, round trips, and the command line surface."""

import inspect
import time
import tracemalloc
from gc import collect, get_objects

import pytest

from conrad import graph_congruence as gc
from conrad import structures
from conrad import topo_congruence as tc
from conrad.cli_io import (
    Report,
    describe_congruence,
    describe_structure,
    parse_congruence,
    parse_structure,
    run_command,
    serialize_congruence,
    serialize_structure,
)
from conrad.errors import (
    IndependenceViolated,
    InputSyntaxError,
    NotATopology,
    NotSaturated,
    NotSubTopology,
    SemanticError,
)
from conrad.structures import (
    B4,
    D2,
    I2,
    LOOPS,
    NOLOOPS,
    Partition,
    S2,
    complete_graph,
    enumerate_graphs,
    enumerate_spaces,
    graph,
    path_graph,
    space,
)
from conrad.radical_engine import KIND_OPS, build_universe, catalog_graph

import oracles


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
    assert cong == tc.TopoCongruence.from_opens(
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


C3 = space(3, [[], [0], [0, 1], [0, 1, 2]])
D3 = space(3, [[], [0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]])


@pytest.mark.parametrize("carrier, text, error, message", [
    (S2, "block 0\nblock 1\nopen -\nopen 0\n", NotATopology, "congruence topology is not a topology"),
    (I2, "block 0\nblock 1\nopen -\nopen 0\nopen 1\nopen 0,1\n",
     NotSubTopology, "[1] is not open in the carrier"),
    (C3, "block 0\nblock 1\nblock 2\nopen -\nopen 1\nopen 2\nopen 1,2\nopen 0,1,2\n",
     NotSubTopology, "[2] is not open in the carrier"),
    (D2, "block 0 1\nopen -\nopen 0\nopen 1\nopen 0,1\n",
     NotSaturated, "open [1] is not a union of blocks"),
    (D3, "block 0 1\nblock 2\nopen -\nopen 0\nopen 1\nopen 2\nopen 0,1\nopen 0,2\nopen 1,2\nopen 0,1,2\n",
     NotSaturated, "open [1, 2] is not a union of blocks"),
    (D3, "block 0\nblock 1 2\nopen -\nopen 0\nopen 1\nopen 0,1\nopen 0,1,2\n",
     NotSaturated, "open [0, 1] is not a union of blocks"),
])
def test_parse_congruence_names_an_open_it_read(carrier, text, error, message):
    # the family read is checked as given, before its least-open vector is
    # built: the same error, naming the same member, as when congruences
    # were stored as families
    with pytest.raises(error) as err:
        parse_congruence("tcong\n" + text, carrier)
    assert err.type is error and str(err.value) == message


@pytest.mark.parametrize("stray", ["-1", "99999999999"])
def test_parse_congruence_stray_point_ids(stray, tmp_path, capsys):
    # a negative or huge point id in an open is refused like any other bad
    # open: an open family that is not closed, or closed but not in the carrier
    head = "tcong\nblock 0 1\nopen -\nopen 0,1\n"
    with pytest.raises(NotATopology):
        parse_congruence(f"{head}open {stray}\n", S2)
    closed = f"{head}open {stray}\nopen 0,1,{stray}\n"
    with pytest.raises(NotSubTopology):
        parse_congruence(closed, S2)
    (tmp_path / "s2.txt").write_text("space 2\nopen -\nopen 0\nopen 0,1\n")
    (tmp_path / "c.txt").write_text(closed)
    argv = ["quotient", "--space", str(tmp_path / "s2.txt"), "--cong", str(tmp_path / "c.txt")]
    assert run_command(argv) == 2
    assert "is not open in the carrier" in capsys.readouterr().err


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


def test_cli_verify_without_samples_reports_no_random_check(capsys):
    # a random sweep over zero instances would pass vacuously
    status, out = run(["verify", "--kind", "topo", "--max-n", "1", "--samples", "0"], capsys)
    assert status == 0
    assert "-random" not in out
    assert out.endswith("summary: 3/3 checks passed\n")


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


def test_cli_max_n_env_below_one_is_a_usage_error(monkeypatch, capsys):
    # an empty universe would pass every check vacuously
    monkeypatch.setenv("CONRAD_MAX_N", "0")
    status = run_command(["universe", "--kind", "topo", "--check", "ka"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: CONRAD_MAX_N must be at least 1, got 0\n"
    assert captured.out == "command: universe --kind topo --check ka\n"


def test_enumerate_graphs_malformed_max_n_env(monkeypatch):
    from conrad.errors import UsageError

    monkeypatch.setenv("CONRAD_MAX_N", "abc")
    with pytest.raises(UsageError, match="CONRAD_MAX_N must be an integer, got 'abc'"):
        enumerate_graphs(2, LOOPS)


def test_cli_bound_exceeded_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.delenv("CONRAD_MAX_N", raising=False)
    argv = ["universe", "--kind", "topo", "--max-n", "5", "--check", "h1h2"]
    status = run_command(argv)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: space enumeration capped at n <= 4\n"
    assert captured.out == "command: " + " ".join(argv) + "\n"


def _looped_path_text(n):
    lines = [f"graph {n} loops"] + [f"e {v} {v}" for v in range(n)]
    lines += [f"e {v} {v + 1}" for v in range(n - 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command, n", [
    (["radical", "--class", "all-looped"], 9),
    (["congruences", "--graph"], 40),
    (["congruences", "--strong-only", "--graph"], 10),
])
def test_cli_congruence_enumeration_is_bounded(tmp_path, capsys, command, n):
    # Bell(9) partitions of a looped path hold millions of candidate
    # edge-sets, and Bell(10) or Bell(40) partitions are refused before the first
    path = tmp_path / "path.txt"
    path.write_text(_looped_path_text(n))
    start = time.perf_counter()
    status = run_command(command + [str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: congruence enumeration capped at 100000 candidates\n"
    assert elapsed < 1.0


def _discrete_space_text(n):
    opens = [",".join(str(p) for p in range(n) if m >> p & 1) or "-" for m in range(2 ** n)]
    return f"space {n}\n" + "".join(f"open {u}\n" for u in opens)


def test_cli_topo_congruence_enumeration_is_bounded(tmp_path, capsys):
    # the discrete 5-point space (2^30 candidate families on its identity
    # partition) lists its congruence topologies; the discrete 7-point space
    # has over 6 million, and its candidate vectors pass the bound before any
    # is lifted
    path = tmp_path / "d5.txt"
    path.write_text(_discrete_space_text(5))
    assert run_command(["congruences", "--space", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith("total 11278\n")
    path.write_text(_discrete_space_text(7))
    start = time.perf_counter()
    status = run_command(["congruences", "--space", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: congruence enumeration capped at 100000 candidates\n"
    assert elapsed < 1.0


def test_cli_strong_only_is_bounded_by_the_partitions(tmp_path, capsys):
    # the looped 8-vertex path has 2,977,260 candidate congruences but only
    # Bell(8) = 4,140 partitions, each admitting one strong congruence
    path = tmp_path / "path.txt"
    path.write_text(_looped_path_text(8))
    start = time.perf_counter()
    assert run_command(["congruences", "--graph", str(path), "--strong-only"]) == 0
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith("total 4140\n")
    assert elapsed < 1.0


@pytest.mark.parametrize("n, status", [(12, 2), (9, 0)])
def test_cli_birkhoff_is_bounded(tmp_path, capsys, n, status):
    # Bell(12) partitions are refused before the first; Bell(9) still runs
    path = tmp_path / "path.txt"
    path.write_text(f"graph {n} noloops\n" + "".join(f"e {v} {v + 1}\n" for v in range(n - 1)))
    start = time.perf_counter()
    assert run_command(["decompose", "--birkhoff", str(path)]) == status
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    if status == 2:
        assert captured.err == "error: congruence enumeration capped at 100000 candidates\n"
    else:
        assert captured.err == "" and "factor 0:" in captured.out
    assert elapsed < 1.0


@pytest.mark.parametrize("command", [
    ["congruences", "--graph"],
    ["radical", "--class", "complete"],
    ["decompose", "--birkhoff"],
])
def test_cli_refuses_a_huge_carrier_at_once(tmp_path, capsys, command):
    # the refusal comes before any work that grows with the declared size
    path = tmp_path / "huge.txt"
    path.write_text("graph 1000000 noloops\n")
    start = time.perf_counter()
    status = run_command(command + [str(path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: congruence enumeration capped at 100000 candidates\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("command, files, message", [
    (["radical", "--class", "t0", "{x}"], {"x": "space 2000000\nopen -\n"},
     "a topology contains the empty and full sets"),
    (["quotient", "--graph", "{x}", "--cong", "{c}"], {"x": "graph 20000000 loops\n", "c": "gcong\nblock 0\n"},
     "blocks do not partition 0..19999999"),
], ids=["space", "quotient"])
def test_cli_refuses_a_huge_declared_size_at_once(tmp_path, capsys, command, files, message):
    # the listed ids are counted against the header's size before anything of that size is built
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    args = [arg.format(x=tmp_path / "x", c=tmp_path / "c") for arg in command]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        status = run_command(args)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert elapsed < 1.0
    assert peak < 2 ** 20


def test_cli_sierpinski_search_is_bounded(tmp_path, capsys):
    # the discrete 5-point space has 45 candidates; sizes up to 4 count 164,220
    opens = [",".join(str(p) for p in range(5) if m >> p & 1) or "-" for m in range(32)]
    path = tmp_path / "d5.txt"
    path.write_text("space 5\n" + "".join(f"open {u}\n" for u in opens))
    status = run_command(["decompose", "--sierpinski", str(path)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err == "error: sierpinski search capped at 100000 combinations\n"


@pytest.mark.parametrize("cid", "abcdefgh")
def test_cli_graph_catalog_refuses_a_huge_carrier_at_once(tmp_path, capsys, cid):
    # 10^6 looped vertices admit about 5 * 10^11 pairs; none is listed
    path = tmp_path / "huge.txt"
    path.write_text("graph 1000000 loops\n")
    start = time.perf_counter()
    status = run_command(["catalog", "--kind", "graph", "--id", cid, str(path)])
    elapsed = time.perf_counter() - start
    assert status == 2
    assert capsys.readouterr().err == "error: graph catalog capped at 100000 vertex pairs\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("n, status", [(446, 0), (447, 2)])
def test_cli_graph_catalog_bound_is_the_pair_count(tmp_path, capsys, n, status):
    # a looped graph on n vertices admits n(n+1)/2 pairs: 99,681 at 446, 100,128 at 447
    path = tmp_path / "edgeless.txt"
    path.write_text(f"graph {n} loops\n")
    assert run_command(["catalog", "--kind", "graph", "--id", "f", str(path)]) == status
    assert capsys.readouterr().err == ("" if status == 0 else
                                       "error: graph catalog capped at 100000 vertex pairs\n")


@pytest.mark.parametrize("n, masks", [(8, range(256)), (16, [0, 2 ** 16 - 1])],
                         ids=["discrete-8", "indiscrete-16"])
def test_cli_sierpinski_refuses_a_sure_refusal_at_once(tmp_path, capsys, n, masks):
    # 2^(n-1) - 1 two-block candidates at least, and no fewer than ceil(log2 n)
    # factors: 127 + C(127, 2) + C(127, 3) combinations already pass the bound at n = 8
    opens = [",".join(str(p) for p in range(n) if m >> p & 1) or "-" for m in masks]
    path = tmp_path / "x.txt"
    path.write_text(f"space {n}\n" + "".join(f"open {u}\n" for u in opens))
    start = time.perf_counter()
    status = run_command(["decompose", "--sierpinski", str(path)])
    elapsed = time.perf_counter() - start
    assert status == 2
    assert capsys.readouterr().err == "error: sierpinski search capped at 100000 combinations\n"
    assert elapsed < 0.5


def test_cli_indistinguishability_catalog_on_a_large_space(tmp_path, capsys):
    # one block holds all 800 points of the indiscrete space
    points = " ".join(str(p) for p in range(800))
    path = tmp_path / "i800.txt"
    path.write_text(f"space 800\nopen -\nopen {points.replace(' ', ',')}\n")
    argv = ["catalog", "--kind", "topo", "--id", "b", str(path)]
    start = time.perf_counter()
    status = run_command(argv)
    elapsed = time.perf_counter() - start
    assert status == 0
    assert capsys.readouterr().out == "\n".join([
        "command: " + " ".join(argv),
        "tcong",
        f"block {points}",
        "open -",
        f"open {points.replace(' ', ',')}",
        "quotient: space n=1 opens -;0",
    ]) + "\n"
    assert elapsed < 1.0


_USAGE_ERRORS = [
    ("universe --kind foo --check ka", "unknown kind 'foo'"),
    ("verify --kind foo", "unknown kind 'foo'"),
    ("universe --kind loopless --max-n 2 --check ka", "--class is required for the loopless kind"),
    ("universe --kind topo --max-n 2 --check complementary",
     "--check complementary needs --class"),
    ("universe --kind graph --max-n 2 --check degeneracy --class all",
     "--check degeneracy lives in the loopless kind"),
    ("universe --kind loopless --max-n 2 --check degeneracy", "--check degeneracy needs --class"),
    ("congruences", "one of --space or --graph is required"),
    ("congruences --space {b4}", "{b4} does not contain a space"),
    ("decompose", "one of --birkhoff or --sierpinski is required"),
    ("decompose --birkhoff {b4}", "birkhoff decomposition needs a loopless graph"),
    ("decompose --sierpinski {b4}", "sierpinski decomposition needs a space"),
    ("catalog --kind topo --id a {b4}", "catalog --kind topo needs a topo file, not a graph one"),
    ("quotient --space {d2} --cong {d2}.missing", "cannot read {d2}.missing: "),
    ("radical --class nope {b4}", "no built-in graph class 'nope'; known: all, all-looped, "
     "at-most-one-loop, complete-looped, loop-clique, loop-dominated, trivial, trivial-looped, "
     "trivial-or-all-looped"),
    ("catalog --kind graph --id z {b4}", "graph catalog has entries a-h, not 'z'"),
    ("universe --kind topo --max-n 0 --check h1h2", "--max-n must be at least 1, got 0"),
    ("verify --kind graph --max-n -2", "--max-n must be at least 1, got -2"),
    ("verify --kind topo --samples -5", "--samples must be at least 0, got -5"),
]


# argparse's own refusals take the same path: the command header on stdout,
# one `error:` line on stderr, exit status 2
_ARGPARSE_ERRORS = [
    ("bogus", "argument command: invalid choice: 'bogus' (choose from 'congruences', 'quotient', "
     "'decompose', 'radical', 'catalog', 'universe', 'verify')"),
    ("universe --kind graph", "the following arguments are required: --check"),
    ("verify --kind graph --max-n x", "argument --max-n: invalid int value: 'x'"),
    ("verify --kind graph --bogus", "unrecognized arguments: --bogus"),
    # one structure file per command: a second one is refused, not ignored
    ("congruences --graph g.txt --space s.txt", "argument --space: not allowed with argument --graph"),
    ("quotient --space s.txt --graph g.txt --cong c.txt",
     "argument --graph: not allowed with argument --space"),
    ("decompose --birkhoff g.txt --sierpinski s.txt",
     "argument --sierpinski: not allowed with argument --birkhoff"),
]


@pytest.mark.parametrize("argv, err", _ARGPARSE_ERRORS, ids=[argv for argv, _ in _ARGPARSE_ERRORS])
def test_cli_argparse_errors_exit_2_with_one_line(capsys, argv, err):
    status = run_command(argv.split())
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == f"command: {argv}\n"
    assert captured.err == f"error: {err}\n"


def test_cli_help_exits_0(capsys):
    assert run_command(["--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: conrad") and captured.err == ""


@pytest.mark.parametrize("argv, err", _USAGE_ERRORS, ids=[argv for argv, _ in _USAGE_ERRORS])
def test_cli_usage_errors_exit_2(files, monkeypatch, capsys, argv, err):
    monkeypatch.delenv("CONRAD_MAX_N", raising=False)
    status = run_command(argv.format(**files).split())
    captured = capsys.readouterr().err
    assert status == 2
    if err.endswith(": "):  # the operating system's wording follows
        assert captured.startswith("error: " + err.format(**files)) and captured.count("\n") == 1
    else:
        assert captured == f"error: {err.format(**files)}\n"


_CLASS_REFUSALS = [
    ("universe --kind graph --max-n 6 --check degeneracy --class all",
     "--check degeneracy lives in the loopless kind"),
    ("universe --kind graph --max-n 6 --check h1h2 --class bogus",
     "no built-in graph class 'bogus'; known: all, all-looped, at-most-one-loop, complete-looped, "
     "loop-clique, loop-dominated, trivial, trivial-looped, trivial-or-all-looped"),
]


@pytest.mark.parametrize("argv, err", _CLASS_REFUSALS, ids=["degeneracy-kind", "unknown-class"])
def test_cli_universe_refuses_its_class_before_building(monkeypatch, capsys, argv, err):
    # the class arguments are checked first: the 5,758 graphs of n <= 6 are
    # never built, and no universe line is printed
    monkeypatch.delenv("CONRAD_MAX_N", raising=False)
    start = time.perf_counter()
    status = run_command(argv.split())
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert status == 2
    assert (captured.out, captured.err) == (f"command: {argv}\n", f"error: {err}\n")
    assert elapsed < 0.5


_MALFORMED_FILES = [
    ("congruences --space {f}", "space 2\nopen -\nopen 0,x\n",
     "line 3: expected comma-separated ids, got '0,x'"),
    ("congruences --graph {f}", "graph 2 loops\ne 0 x\n", "line 2: edge endpoints must be integers"),
    ("congruences --space {f}", "space 2 3\n", "line 1: expected: space <n>"),
    ("congruences --space {f}", "space two\n", "line 1: bad point count 'two'"),
    ("quotient --graph {b4} --cong {f}", "gcong\nblock 0 1\nedge 0 y\n",
     "line 3: edge endpoints must be integers"),
    ("congruences --space {f}", "space 2\nopen -\nopen 0,1\nopen 5\n", "open set [5] out of range"),
    ("congruences --space {f}", "space 2\nopen -\nopen 0,1\nopen -1\n", "open set [-1] out of range"),
    ("quotient --graph {b4} --cong {f}", "gcong\nblock\nblock 0 1\nedge 0 0\nedge 0 1\nedge 1 1\n",
     "blocks do not partition 0..1"),
]


@pytest.mark.parametrize("argv, text, err", _MALFORMED_FILES,
                         ids=["point-ids", "graph-edge", "space-header", "point-count", "cong-edge",
                              "open-past-range", "open-negative", "cong-empty-block"])
def test_cli_malformed_files_exit_2(files, tmp_path, capsys, argv, text, err):
    path = tmp_path / "malformed.txt"
    path.write_text(text)
    status = run_command(argv.format(f=path, **files).split())
    assert status == 2
    assert capsys.readouterr().err == f"error: {err}\n"


_GRAPH_FILE_REFUSALS = [
    ("graph 3 loops\n", "block 0\nblock 1\nblock 2\nedge 0 9\n",
     "congruence edge-set must sit between E and C"),
    ("graph 3 loops\n", "block 0\nblock 1\nblock 2\nedge -1 0\n",
     "congruence edge-set must sit between E and C"),
    ("graph 2 loops\ne 0 1\n", "block 0\nblock 1\n", "congruence edge-set must sit between E and C"),
    ("graph 2 noloops\n", "block 0\nblock 1\nedge 0 0\n",
     "congruence edge-set must sit between E and K"),
    ("graph 3 loops\n", "block 0 2\nblock 1\nedge 0 1\n", "orbit of 0-1 escapes the edge-set"),
    ("graph 2 noloops\n", "block 0 1\nedge 0 1\n", "0-1 joins related vertices"),
    ("graph 2 noloops\ne 0 5\n", None, "edge 0-5 out of range or unnormalized"),
    ("graph 2 noloops\ne -1 0\n", None, "edge -1-0 out of range or unnormalized"),
    ("graph 2 noloops\ne 1 1\n", None, "loop 1-1 under noloops policy"),
]


@pytest.mark.parametrize("graph_text, cong_text, err", _GRAPH_FILE_REFUSALS,
                         ids=["cong-past-range", "cong-negative", "cong-below-edges", "cong-loop",
                              "cong-orbit", "cong-related", "edge-past-range", "edge-negative",
                              "edge-loop"])
def test_cli_graph_files_are_checked_as_read(tmp_path, capsys, graph_text, cong_text, err):
    # the pairs of a graph or congruence file are checked as given, before any
    # edge-set is built from them: a negative id is refused, never shifted
    (tmp_path / "g.txt").write_text(graph_text)
    (tmp_path / "c.txt").write_text(f"gcong\n{cong_text}")
    argv = ["quotient", "--graph", str(tmp_path / "g.txt"), "--cong", str(tmp_path / "c.txt")]
    assert run_command(argv) == 2
    assert capsys.readouterr().err == f"error: {err}\n"


def test_cli_quotient_reads_a_large_carrier_in_linear_time(tmp_path, capsys):
    # the identity congruence with one edge on 4,000 looped vertices: no step
    # lists the 8,002,000 vertex pairs
    n = 4000
    (tmp_path / "g.txt").write_text(f"graph {n} loops\ne 0 1\n")
    (tmp_path / "c.txt").write_text("gcong\n" + "".join(f"block {v}\n" for v in range(n)) + "edge 0 1\n")
    argv = ["quotient", "--graph", str(tmp_path / "g.txt"), "--cong", str(tmp_path / "c.txt")]
    start = time.perf_counter()
    status = run_command(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert status == 0 and captured.err == ""
    assert captured.out.splitlines()[1:3] == [f"graph {n} loops", "e 0 1"]
    assert elapsed < 1.0


_FAR_PAIR = "edge-sets capped at 100000 pair slots: 999998-999999 is slot 500000499998"


@pytest.mark.parametrize("policy", [LOOPS, NOLOOPS])
@pytest.mark.parametrize("command", [
    ["congruences", "--graph"],
    ["quotient", "--cong", "c.txt", "--graph"],
    ["radical", "--class", "all"],
    ["catalog", "--kind", "graph", "--id", "a"],
    ["decompose", "--birkhoff"],
], ids=["congruences", "quotient", "radical", "catalog", "birkhoff"])
def test_cli_refuses_a_far_edge_at_once(tmp_path, capsys, monkeypatch, policy, command):
    # a pair's slot grows with the square of the vertex count: this one would
    # need an edge mask of about 62 GB, so every graph command refuses the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.txt").write_text(f"graph 1000000 {policy}\ne 999998 999999\n")
    (tmp_path / "c.txt").write_text("gcong\nblock 0\n")
    start = time.perf_counter()
    status = run_command(command + ["huge.txt"])
    elapsed = time.perf_counter() - start
    assert status == 2
    assert capsys.readouterr().err == f"error: {_FAR_PAIR}\n"
    assert elapsed < 1.0


def test_cli_refuses_a_far_congruence_pair(tmp_path, capsys):
    # a valid congruence pair past the slot bound is refused like a far edge
    n = 1000
    (tmp_path / "g.txt").write_text(f"graph {n} loops\n")
    (tmp_path / "c.txt").write_text("gcong\n" + "".join(f"block {v}\n" for v in range(n)) + "edge 998 999\n")
    argv = ["quotient", "--graph", str(tmp_path / "g.txt"), "--cong", str(tmp_path / "c.txt")]
    assert run_command(argv) == 2
    assert capsys.readouterr().err == (
        "error: edge-sets capped at 100000 pair slots: 998-999 is slot 500498\n"
    )


def test_parse_congruence_tests_each_orbit_once(capsys):
    # two blocks of 60 looped vertices joined by all 3,600 of their pairs: one
    # orbit, tested once, not once for each of the pairs it holds
    n, half = 120, 60
    g = graph(n, LOOPS)
    text = "gcong\nblock " + " ".join(map(str, range(half))) + "\nblock " + " ".join(
        map(str, range(half, n))) + "\n" + "".join(
        f"edge {a} {b}\n" for a in range(half) for b in range(half, n))
    start = time.perf_counter()
    cong = parse_congruence(text, g)
    assert time.perf_counter() - start < 1.0
    assert cong.cmask.bit_count() == half * half


def test_listing_text_is_the_pair_and_family_text():
    # edge sets written from the per-size pair-text table, open sets from the
    # set-text table and blocks once per partition read as the pair-by-pair
    # and family text: every member and congruence of graph n <= 4,
    # loopless n <= 5 and topo n <= 4
    listed = 0
    for kind, max_n in (("graph", 4), ("loopless", 5), ("topo", 4)):
        ops = KIND_OPS[kind]
        for x in build_universe(kind, max_n):
            assert describe_structure(x) == oracles.describe_structure_text(x)
            assert serialize_structure(x) == oracles.serialize_structure_text(x)
            for theta in ops.enum_congruences(x):
                assert describe_congruence(theta) == oracles.describe_congruence_text(theta)
                assert serialize_congruence(theta) == oracles.serialize_congruence_text(theta)
                listed += 1
    assert listed == 20956


def test_a_large_catalog_value_fills_the_pair_table_as_read(tmp_path, capsys):
    # 300 looped vertices: the identity value (f) prints the file's three
    # pairs, and the pair-text table holds those three slots alone; the value
    # with every pair (e) prints all 45,150, each as its pair reads
    n = 300
    path = tmp_path / "g.txt"
    path.write_text(f"graph {n} loops\ne 0 1\ne 5 299\ne 7 7\n")
    g = parse_structure(path.read_text())
    structures._pair_texts.cache_clear()
    for cid, printed in (("f", 3), ("e", n * (n + 1) // 2)):
        assert run_command(["catalog", "--kind", "graph", "--id", cid, str(path)]) == 0
        value = catalog_graph(g, cid)
        quotient = KIND_OPS["graph"].quotient(g, value)
        assert capsys.readouterr().out.splitlines()[1:] == (
            oracles.serialize_congruence_text(value).splitlines()
            + ["quotient: " + oracles.describe_structure_text(quotient)]
        )
        assert len(structures._pair_texts(n, "edge {} {}")) == len(structures._pair_texts(n, "{}-{}")) == printed


def _live_slot_plan_sizes() -> set[int]:
    """The vertex count of each live carry plan of edge masks."""
    collect()
    return {len(inspect.getclosurevars(o.fill).nonlocals["image"]) for o in get_objects()
            if isinstance(o, structures._Lazy)
            and getattr(o.fill, "__qualname__", None) == "_slot_plan.<locals>.fill"}


def test_a_quotient_by_the_discrete_partition_builds_no_carry_plan(tmp_path, capsys):
    # the every-pair value (e) of an edgeless 300-vertex graph lies on the
    # discrete partition, whose class map is the identity: its quotient keeps
    # the congruence's mask, where carrying it cached a plan of 45,150 one-bit
    # ints up to 45,150 bits wide (130.7 MB by sys.getsizeof)
    n = 300
    path = tmp_path / "g.txt"
    path.write_text(f"graph {n} loops\n")
    structures._slot_images.cache_clear()
    assert run_command(["catalog", "--kind", "graph", "--id", "e", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "quotient: " + oracles.describe_structure_text(
        graph(n, LOOPS, [(a, b) for a in range(n) for b in range(a, n)]))
    assert n not in _live_slot_plan_sizes()
