"""Seeded inputs for the `single-ops` workload, written in the CLI formats.

The generator is the benchmark's own: it does not call conrad's random
instance generators, so a change to those cannot change what is measured.
The mix of commands and sizes is fixed; the seed picks only the structures
inside each size band, so every seed does about the same amount of work.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import oracle as o

# (vertices or points, how many inputs) per kind; the mix is the same for every seed
LOOP_GRAPH_SIZES = ((4, 10), (5, 10))
LOOPLESS_SIZES = ((4, 6), (5, 7), (6, 7))
SPACE_SIZES = ((3, 6), (4, 8), (5, 6))

# Size bands.  They keep every op well under two seconds and make the work
# of a round nearly the same for every seed.  Graphs: congruences per graph.
# Spaces: families the saturated-open scan visits, and combinations the
# smallest-first two-point decomposition search may visit.
LOOP_GRAPH_BAND = {4: (60, 140), 5: (250, 500)}
LOOPLESS_BAND = {4: (8, 20), 5: (40, 100), 6: (150, 300)}
SPACE_SCAN_BAND = {3: (7, 25), 4: (20, 110), 5: (52, 180)}
SIERPINSKI_LIMIT = {3: 63, 4: 300, 5: 700}

# Classes every graph has a quotient in, so `radical --class` always answers.
LOOP_CLASSES = ("all-looped", "at-most-one-loop", "loop-dominated", "complete-looped")
LOOPLESS_CLASSES = ("complete", "contains-k2", "contains-k3")
GRAPH_CATALOG = "abcdefgh"
TOPO_CATALOG = "abcde"


@dataclass
class Op:
    """One CLI call and what its output is checked against."""

    argv: list[str]
    check: str
    subject: object = None
    arg: object = None
    env: dict = field(default_factory=dict)

    @property
    def key(self) -> str:
        env = " ".join(f"{k}={v}" for k, v in sorted(self.env.items()))
        return (env + " " if env else "") + " ".join(self.argv)


# ---------------------------------------------------------------------------
# Structures
# ---------------------------------------------------------------------------

def _random_graph(rng: random.Random, n: int, loops: bool) -> o.Graph:
    density = rng.uniform(0.3, 0.8)
    slots = o.Graph(n, loops, frozenset()).slots()
    return o.Graph(n, loops, frozenset(p for p in slots if rng.random() < density))


def _random_space(rng: random.Random, n: int) -> o.Space:
    """Open sets are the up-sets of a random preorder (Alexandroff)."""
    density = rng.uniform(0.2, 0.6)
    le = [[a == b or rng.random() < density for b in range(n)] for a in range(n)]
    for k in range(n):
        for a in range(n):
            for b in range(n):
                le[a][b] = le[a][b] or (le[a][k] and le[k][b])
    opens = frozenset(
        m for m in range(1 << n)
        if all(m >> b & 1 for a in range(n) for b in range(n) if le[a][b] and m >> a & 1)
    )
    return o.Space(n, opens)


def _graph_fits(g: o.Graph) -> bool:
    low, high = (LOOP_GRAPH_BAND if g.loops else LOOPLESS_BAND)[g.n]
    return low <= o.graph_congruence_count(g) <= high


def _space_fits(x: o.Space) -> bool:
    low, high = SPACE_SCAN_BAND[x.n]
    return (low <= o.space_congruence_cost(x) <= high
            and o.sierpinski_search_bound(x, SIERPINSKI_LIMIT[x.n]) is not None)


def _draw(rng, make, fits, seen: set):
    """A new structure inside its size band."""
    while True:
        s = make(rng)
        text = structure_text(s)
        if text not in seen and fits(s):
            seen.add(text)
            return s


def _random_graph_congruence(rng: random.Random, g: o.Graph):
    parts = [c for c in o.partitions(g.n) if g.loops or o.independent(g, c)]
    cid = rng.choice(parts)
    cedges = set(o.graph_saturation(g, cid))
    for orb in o.cross_orbits(o.blocks(cid), g.loops):
        if not orb & cedges and rng.random() < 0.5:
            cedges |= orb
    return cid, frozenset(cedges)


def _random_space_congruence(rng: random.Random, x: o.Space):
    cid = rng.choice(list(o.partitions(x.n)))
    picked = [u for u in o.saturated_opens(x, cid) if rng.random() < 0.5]
    return cid, o.generated_topology(x.n, picked)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def structure_text(s) -> str:
    if isinstance(s, o.Graph):
        lines = [f"graph {s.n} {'loops' if s.loops else 'noloops'}"]
        lines += [f"e {a} {b}" for a, b in sorted(s.edges)]
    else:
        lines = [f"space {s.n}"]
        lines += [f"open {_ids(u)}" for u in sorted(s.opens)]
    return "\n".join(lines) + "\n"


def congruence_text(s, cid, rest) -> str:
    lines = ["gcong" if isinstance(s, o.Graph) else "tcong"]
    lines += ["block " + " ".join(map(str, b)) for b in o.blocks(cid)]
    if isinstance(s, o.Graph):
        lines += [f"edge {a} {b}" for a, b in sorted(rest)]
    else:
        lines += [f"open {_ids(u)}" for u in sorted(rest)]
    return "\n".join(lines) + "\n"


def _ids(m: int) -> str:
    return ",".join(map(str, o.members(m))) or "-"


# ---------------------------------------------------------------------------
# The single-ops mix
# ---------------------------------------------------------------------------

ENV_OP_ARGV = ["universe", "--kind", "graph", "--check", "ka"]


def single_ops(seed: int, workdir: str) -> list[Op]:
    """Write the seeded input files into workdir and list the operations.

    File names are relative to workdir, which the worker runs in, so reports
    (which echo the command line) do not depend on where the checkout is.
    """
    rng = random.Random(seed)
    files: dict[str, str] = {}
    ops: list[Op] = []
    seen: set[str] = set()

    for loops, sizes, prefix in ((True, LOOP_GRAPH_SIZES, "g"), (False, LOOPLESS_SIZES, "l")):
        index = 0
        for n, count in sizes:
            for _ in range(count):
                g = _draw(rng, lambda r: _random_graph(r, n, loops), _graph_fits, seen)
                name, cong = f"{prefix}{index:02d}.txt", f"{prefix}{index:02d}-cong.txt"
                files[name] = structure_text(g)
                cid, cedges = _random_graph_congruence(rng, g)
                files[cong] = congruence_text(g, cid, cedges)
                ops += [
                    Op(["congruences", "--graph", name], "congruences", g),
                    Op(["congruences", "--graph", name, "--strong-only"], "strong", g),
                    Op(["quotient", "--graph", name, "--cong", cong], "quotient", g, (cid, cedges)),
                ]
                if loops:
                    cls = LOOP_CLASSES[index % len(LOOP_CLASSES)]
                    cat = GRAPH_CATALOG[index % len(GRAPH_CATALOG)]
                    ops += [
                        Op(["radical", "--class", cls, name], "radical", g, cls),
                        Op(["catalog", "--kind", "graph", "--id", cat, name], "catalog", g, cat),
                    ]
                else:
                    cls = LOOPLESS_CLASSES[index % len(LOOPLESS_CLASSES)]
                    ops += [
                        Op(["radical", "--class", cls, name], "radical", g, cls),
                        Op(["decompose", "--birkhoff", name], "birkhoff", g),
                    ]
                index += 1

    index = 0
    for n, count in SPACE_SIZES:
        for _ in range(count):
            x = _draw(rng, lambda r: _random_space(r, n), _space_fits, seen)
            name, cong = f"s{index:02d}.txt", f"s{index:02d}-cong.txt"
            files[name] = structure_text(x)
            cid, ctop = _random_space_congruence(rng, x)
            files[cong] = congruence_text(x, cid, ctop)
            cat = TOPO_CATALOG[index % len(TOPO_CATALOG)]
            ops += [
                Op(["congruences", "--space", name], "congruences", x),
                Op(["congruences", "--space", name, "--strong-only"], "strong", x),
                Op(["quotient", "--space", name, "--cong", cong], "quotient", x, (cid, ctop)),
                Op(["radical", "--class", "t0", name], "radical", x, "t0"),
                Op(["catalog", "--kind", "topo", "--id", cat, name], "catalog", x, cat),
                Op(["decompose", "--sierpinski", name], "sierpinski", x),
            ]
            index += 1

    # A malformed CONRAD_MAX_N must end in exit status 2 and a one-line message.
    ops.append(Op(list(ENV_OP_ARGV), "usage-error", env={"CONRAD_MAX_N": "abc"}))
    rng.shuffle(ops)

    for name, text in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as handle:
            handle.write(text)
    return ops
