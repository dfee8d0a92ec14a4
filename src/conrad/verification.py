"""Isomorphism/homeomorphism theorem sweeps over exhaustive and seeded instances.

Each theorem is checked two ways: exhaustively over every structure,
congruence and surjective morphism up to a size bound, and on seeded random
instances of slightly larger structures.  Both the CLI `verify` subcommand
and the acceptance suite drive these sweeps.
"""

from __future__ import annotations

import itertools
import random

from .graph_congruence import GraphCongruence, block_orbit
from .radical_engine import KIND_OPS
from .structures import FiniteGraph, Partition


# ---------------------------------------------------------------------------
# Seeded instances (the generators live with their kinds in KIND_OPS)
# ---------------------------------------------------------------------------

def random_structure(rng: random.Random, kind: str, n: int):
    return KIND_OPS[kind].random_structure(rng, n)


def random_congruence(rng: random.Random, kind: str, structure):
    return KIND_OPS[kind].random_congruence(rng, structure)


def random_surjection(rng: random.Random, kind: str, structure):
    """A surjective morphism built as projection-then-relabel."""
    ops = KIND_OPS[kind]
    theta = random_congruence(rng, kind, structure)
    quotient, proj = ops.quotient(structure, theta)
    perm = list(range(quotient.n))
    rng.shuffle(perm)
    target = ops.relabel(quotient, perm)
    f = tuple(perm[proj[v]] for v in range(structure.n))
    return target, f


# ---------------------------------------------------------------------------
# The three isomorphism theorems, per kind
# ---------------------------------------------------------------------------

def check_first_iso(kind: str, x, y, f) -> bool:
    """Quotient by the kernel of a surjection matches the codomain."""
    ops = KIND_OPS[kind]
    quotient, _ = ops.quotient(x, ops.kernel(x, y, f))
    return ops.iso(quotient, y) is not None


def check_second_iso(kind: str, x, theta, sub) -> bool:
    """Quotient of the restriction matches the image-side substructure."""
    ops = KIND_OPS[kind]
    restricted = ops.restrict(x, theta, sub)
    small = ops.substructure(x, sub)
    left, _ = ops.quotient(small, restricted)
    quotient, proj = ops.quotient(x, theta)
    right = ops.substructure(quotient, sorted({proj[v] for v in sub}))
    return ops.iso(left, right) is not None


def check_third_iso(kind: str, x, alpha, beta) -> bool:
    """(X/a)/(b/a) matches X/b when a is contained in b."""
    ops = KIND_OPS[kind]
    qc = ops.quotient_cong(x, alpha, beta)
    stage, _ = ops.quotient(x, alpha)
    left, _ = ops.quotient(stage, qc)
    right, _ = ops.quotient(x, beta)
    return ops.iso(left, right) is not None


THEOREMS = ("first", "second", "third")


def exhaustive_iso_theorems(kind: str, max_n: int) -> dict[str, int]:
    """Failure counts per theorem over the whole universe up to max_n."""
    ops = KIND_OPS[kind]
    members = []
    for n in range(1, max_n + 1):
        members.extend(ops.enum_structures(n))
    failures = {name: 0 for name in THEOREMS}

    from .radical_engine import surjective_morphisms

    for x in members:
        for y in members:
            for f in surjective_morphisms(kind, x, y):
                if not check_first_iso(kind, x, y, f):
                    failures["first"] += 1
    for x in members:
        congs = ops.enum_congruences(x)
        subsets = [
            sub for size in range(1, x.n + 1)
            for sub in itertools.combinations(range(x.n), size)
        ]
        for theta in congs:
            for sub in subsets:
                if not check_second_iso(kind, x, theta, sub):
                    failures["second"] += 1
        for alpha in congs:
            for beta in congs:
                if ops.le(alpha, beta) and not check_third_iso(kind, x, alpha, beta):
                    failures["third"] += 1
    return failures


def random_iso_theorems(kind: str, samples: int, seed: int,
                        min_n: int = 3, max_n: int = 5) -> dict[str, int]:
    """Failure counts per theorem over seeded random instances."""
    rng = random.Random(seed)
    failures = {name: 0 for name in THEOREMS}
    join = KIND_OPS[kind].join
    for _ in range(samples):
        n = rng.randint(min_n, max_n)
        x = random_structure(rng, kind, n)
        y, f = random_surjection(rng, kind, x)
        if not check_first_iso(kind, x, y, f):
            failures["first"] += 1

        x2 = random_structure(rng, kind, rng.randint(min_n, max_n))
        theta = random_congruence(rng, kind, x2)
        size = rng.randint(1, x2.n)
        sub = tuple(sorted(rng.sample(range(x2.n), size)))
        if not check_second_iso(kind, x2, theta, sub):
            failures["second"] += 1

        x3 = random_structure(rng, kind, rng.randint(min_n, max_n))
        alpha = random_congruence(rng, kind, x3)
        if join is not None:
            beta = join(x3, [alpha, random_congruence(rng, kind, x3)])
        else:
            beta = _coarsen_lc(rng, x3, alpha)
        if not check_third_iso(kind, x3, alpha, beta):
            failures["third"] += 1
    return failures


def _coarsen_lc(rng: random.Random, g: FiniteGraph, alpha: GraphCongruence):
    """A loopless congruence above alpha: merge two cedge-free blocks."""
    blocks = alpha.part.blocks
    mergeable = [
        (i, j)
        for i in range(len(blocks))
        for j in range(i + 1, len(blocks))
        if not block_orbit(alpha.part, blocks[i][0], blocks[j][0]) & alpha.cedges
    ]
    if not mergeable:
        return alpha
    i, j = rng.choice(mergeable)
    raw = list(alpha.part.class_id)
    for v in blocks[j]:
        raw[v] = alpha.part.class_id[blocks[i][0]]
    part = Partition.from_map(tuple(raw))
    cedges = frozenset().union(*(block_orbit(part, *pair) for pair in alpha.cedges))
    return GraphCongruence(part, cedges)
