"""Pinned CLI reports: stdout sha256, exit status and stderr per command.

The first stdout line echoes the command, which holds temporary paths for
the file commands, so it is left out of the hash.  To re-pin after an
intended change of output, print `golden(...)` for each case.
"""

import hashlib

import pytest

from conrad.cli_io import run_command

FILES = {
    "space3": "space 3\nopen -\nopen 0\nopen 0,1\nopen 0,1,2\n",
    "d2": "space 2\nopen -\nopen 0\nopen 1\nopen 0,1\n",
    "graph3": "graph 3 loops\ne 0 0\ne 0 1\ne 1 2\n",
    "path4": "graph 4 noloops\ne 0 1\ne 1 2\ne 2 3\n",
    "tcong": "tcong\nblock 0 1\nblock 2\nopen -\nopen 0,1\nopen 0,1,2\n",
    "gcong": "gcong\nblock 0 1\nblock 2\nedge 0 0\nedge 0 1\nedge 1 1\nedge 0 2\nedge 1 2\n",
    "lcong": "gcong\nblock 0 2\nblock 1 3\nedge 0 1\nedge 0 3\nedge 1 2\nedge 2 3\n",
    "graph5": "graph 5 loops\ne 0 0\ne 0 2\ne 0 3\ne 1 1\ne 1 4\ne 2 3\ne 3 3\ne 3 4\n",
    "loopless6": "graph 6 noloops\ne 0 1\ne 0 2\ne 1 2\ne 1 5\ne 2 3\ne 3 4\ne 4 5\n",
}

CASES = {
    "universe-topo-h1h2": "universe --kind topo --max-n 3 --check h1h2",
    "universe-topo-ka": "universe --kind topo --max-n 3 --check ka",
    "universe-topo-hereditary": "universe --kind topo --max-n 3 --check hereditary",
    "universe-graph-h1h2": "universe --kind graph --max-n 3 --check h1h2",
    "universe-graph-ka": "universe --kind graph --max-n 3 --check ka",
    "universe-graph-hereditary": "universe --kind graph --max-n 3 --check hereditary",
    "universe-loopless-degeneracy":
        "universe --kind loopless --max-n 5 --check degeneracy --class complete",
    "universe-loopless-complementary":
        "universe --kind loopless --max-n 5 --check complementary --class contains-k3",
    "universe-loopless-ka": "universe --kind loopless --max-n 4 --check ka --class contains-k2",
    "universe-loopless-h1h2":
        "universe --kind loopless --max-n 4 --check h1h2 --class contains-k2",
    "universe-loopless-hereditary":
        "universe --kind loopless --max-n 4 --check hereditary --class k2-free",
    "universe-loopless-h1h2-k2-free":
        "universe --kind loopless --max-n 4 --check h1h2 --class k2-free",
    "verify-topo": "verify --kind topo --max-n 3 --samples 20 --seed 0",
    "verify-graph": "verify --kind graph --max-n 3 --samples 20 --seed 0",
    "verify-loopless": "verify --kind loopless --max-n 3 --samples 20 --seed 0",
    "congruences-space": "congruences --space @space3",
    "congruences-graph": "congruences --graph @graph3",
    "congruences-graph-strong": "congruences --graph @graph3 --strong-only",
    "congruences-loopless": "congruences --graph @path4",
    "quotient-space": "quotient --space @space3 --cong @tcong",
    "quotient-graph": "quotient --graph @graph3 --cong @gcong",
    "quotient-loopless": "quotient --graph @path4 --cong @lcong",
    "catalog-topo": "catalog --kind topo --id b @space3",
    "catalog-graph": "catalog --kind graph --id c @graph3",
    "radical-topo": "radical --class t0 @space3",
    "radical-graph": "radical --class loop-clique @graph3",
    "radical-loopless": "radical --class complete @path4",
    "decompose-birkhoff": "decompose --birkhoff @path4",
    "decompose-sierpinski": "decompose --sierpinski @space3",
    "decompose-sierpinski-d2": "decompose --sierpinski @d2",
    # the built-in classes decided on loop-slot, star and clique masks, and
    # edge sets written from the pair-text table
    "radical-graph5-trivial-looped": "radical --class trivial-looped @graph5",
    "radical-graph5-at-most-one-loop": "radical --class at-most-one-loop @graph5",
    "radical-graph5-all-looped": "radical --class all-looped @graph5",
    "radical-graph5-trivial-or-all-looped": "radical --class trivial-or-all-looped @graph5",
    "radical-graph5-loop-clique": "radical --class loop-clique @graph5",
    "radical-graph5-loop-dominated": "radical --class loop-dominated @graph5",
    "radical-loopless6-contains-k3": "radical --class contains-k3 @loopless6",
    "congruences-graph5": "congruences --graph @graph5",
    "congruences-graph5-strong": "congruences --graph @graph5 --strong-only",
}

# (sha256 of stdout after the command line, exit status, stderr)
EXPECTED = {
    'catalog-graph': ('6d077f6958dac459a164bb694965166fb843770ac52eef045c6e0fb5db314881', 0, ''),
    'catalog-topo': ('f4450cf0e712e32a6204fc87073f9bc9b21a3d02b37782682c2507b7ddade09f', 0, ''),
    'congruences-graph': ('b8f1f7c14adaa8c89d50bb841c6f2e6b8b6c0c5ff2461ec5275a30a3f5398910', 0, ''),
    'congruences-graph-strong': ('c436b557c497dd56be3e2c74407784391e3ed97196a10c638c7ca67c1c8786fd', 0, ''),
    'congruences-graph5': ('e0aec67bce6fb63ac85d5a95d0439399b214699c78b4356983484378cc4cbfb0', 0, ''),
    'congruences-graph5-strong': ('7af164d82df305308f704fe0c355d25fb82cbbe59c1996b7e596c25d0489d783', 0, ''),
    'congruences-loopless': ('39037c76d2ea8d42747e4cfd69c21c57c6feeb6f696073a3de8ddc18c71fbd56', 0, ''),
    'congruences-space': ('1d9cf50f5cd6995978ffb4658d808b1c59aa5cfa8c2208847465b038330a0341', 0, ''),
    'decompose-birkhoff': ('83f1ac5f44ec1f8b1803b75c63fd055e1969f7b2aabf780016b0343f3aa70910', 0, ''),
    'decompose-sierpinski': ('f2b28c6d9bb294358beeb1ebeabcdce9ff39792b2260ccbf725616f9929828c9', 0, ''),
    'decompose-sierpinski-d2': ('6df5ce5fe115dcccfcff3b534d6c7c4baa866128a10068001e25794c98fba5d1', 0, ''),
    'quotient-graph': ('62b972fde423e96b50fa6a99f0100ab20838991778879f1159c251c6479de6e6', 0, ''),
    'quotient-loopless': ('5dbc9089404f50cfd3156d4a6a2a226a08e53d2ee74b0eecaee6f295d6894051', 0, ''),
    'quotient-space': ('77ea92368449c106b27f344afa4c3ddb45d4dc094f0d9cc15e83708a5139c413', 0, ''),
    'radical-graph': ('49df70b2a2a12108fa929defc311f964c0e55392bfb03608e276db8421564410', 0, ''),
    'radical-graph5-all-looped': ('576333f5c33203cf88aa913775c65d0f8a1ec083f92f31eb7f448a7d18ee47c8', 0, ''),
    'radical-graph5-at-most-one-loop': ('d3aac61bc8b6ad16317be6b0d6d136dfcd37d7df933ac628dae5f26cb195d32e', 0, ''),
    'radical-graph5-loop-clique': ('a0354bedeb62b55fe3c0ca6c7c1939f0b46e1dacfb95b1f82a42bfa8147e1420', 0, ''),
    'radical-graph5-loop-dominated': ('5388e87559f8669a42548d266c663ee4d76ad1aa788c486f13ec007828c1f755', 0, ''),
    'radical-graph5-trivial-looped': ('2b12b833597df32e63511649a1c621952ae5125d9cb76122e5497f74f4fc65ba', 0, ''),
    'radical-graph5-trivial-or-all-looped': ('576333f5c33203cf88aa913775c65d0f8a1ec083f92f31eb7f448a7d18ee47c8', 0, ''),
    'radical-loopless': ('d7886695379a36ab667d37e730c2b4c466310c73eb362af9513772f8557bbb40', 0, ''),
    'radical-loopless6-contains-k3': ('963da4aec28982604c4c1f5f37282759319a0964e05716e1ac4a10ccbf6bd6a2', 0, ''),
    'radical-topo': ('705fb2c0999a1dc52772f4cfeb03ef1ff6fd4c1164888bc9954a55aa086db1c7', 0, ''),
    'universe-graph-h1h2': ('b72319363d611f8b36834c1e51a36652e5bab72fea2ed2560ec96a6f829e082d', 0, ''),
    'universe-graph-hereditary': ('abc54e5555d6c10d650f2bd428eca49c1eb1231a5918a0f90c619d46e0b628d5', 0, ''),
    'universe-graph-ka': ('b965d702c3715299ff794638cbcf0e02c002912a7d515296b4051c74c204d8d1', 0, ''),
    'universe-loopless-complementary': ('9087cfde99cbe01ce6b5c885f3edd579a696ddb0429835ba1a5fc035cd0159f5', 0, ''),
    'universe-loopless-degeneracy': ('4555e82117269dbffc9922844adefe4fea7f3a7f282e5426c441f79251bfca88', 0, ''),
    'universe-loopless-h1h2': ('70f8acc4bc6de99c1552ecc33baea2b58c3522cf2b30ecba01585cf21f09cbc1', 0, ''),
    'universe-loopless-h1h2-k2-free': ('5bc78bc7351dede75cdcfac382b8838f3d7f4da5db9d968491ba0c5bee1a1bf6', 1, "error: no congruence quotient of the structure lies in 'k2-free'\n"),
    'universe-loopless-hereditary': ('5bc78bc7351dede75cdcfac382b8838f3d7f4da5db9d968491ba0c5bee1a1bf6', 1, "error: no congruence quotient of the structure lies in 'k2-free'\n"),
    'universe-loopless-ka': ('0cc9716b8b808c73ef2e128f67d56d43420f561532a986cee68ff410eea97c38', 0, ''),
    'universe-topo-h1h2': ('018d631720bad67d00f256457092211639c9d65dc66325e90692979375b5df94', 0, ''),
    'universe-topo-hereditary': ('e56086acc3066942c7c9945c34ce26126395fd35d3497205b5d47f524da3e4d6', 0, ''),
    'universe-topo-ka': ('274b679693adb665424e778a63754d13cdbf5da6a84a15650f73479fd2b9f36f', 0, ''),
    'verify-graph': ('12f9d17fa0baaeb7be2518178cd59845e759b7509d99fa1cbadbe07266e4fb0d', 0, ''),
    'verify-loopless': ('4b2ab5533afd4154de18c821d03dea7ff435a6cdc2ab66b1627ceac77dbcb9f4', 0, ''),
    'verify-topo': ('d30a0b1e5564d3ab50972cf67a93e67f36d69400864f16bb4baa23c038c87165', 0, ''),
}


def golden(case, directory, capsys):
    argv = []
    for token in CASES[case].split():
        if token.startswith("@"):
            path = directory / f"{token[1:]}.txt"
            path.write_text(FILES[token[1:]])
            token = str(path)
        argv.append(token)
    status = run_command(argv)
    captured = capsys.readouterr()
    body = captured.out.split("\n", 1)[1]
    return hashlib.sha256(body.encode()).hexdigest(), status, captured.err


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_report_is_pinned(case, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CONRAD_MAX_N", raising=False)
    assert golden(case, tmp_path, capsys) == EXPECTED[case]
