"""Isomorphism/homeomorphism theorem sweeps over exhaustive and seeded instances.

Each theorem is checked two ways: exhaustively over every structure,
congruence and surjective morphism up to a size bound, and on seeded random
instances of slightly larger structures.  Both the CLI `verify` subcommand
and the acceptance suite drive these sweeps.
"""

from __future__ import annotations

import dataclasses
import random

from .errors import BoundExceeded, NotContained
from .radical_engine import KIND_OPS, _checked_kernel, build_universe, kind_of, surjective_morphisms
from .structures import Partition, _Lazy, _nonempty_subsets, _positions, _refines, require_carrier

RANDOM_MIN_N, RANDOM_MAX_N = 3, 5  # the sizes of the seeded random instances


# ---------------------------------------------------------------------------
# Seeded instances (the generators live with their kinds in KIND_OPS)
# ---------------------------------------------------------------------------

def random_surjection(rng: random.Random, structure):
    """A surjective morphism built as projection-then-relabel."""
    ops = KIND_OPS[kind_of(structure)]
    theta = ops.random_congruence(rng, structure)
    quotient = ops.quotient(structure, theta)
    perm = list(range(quotient.n))
    rng.shuffle(perm)
    target = ops.relabel(quotient, perm)
    f = tuple(perm[b] for b in theta.part.class_id)
    return target, f


def random_above(rng: random.Random, structure, alpha):
    """A random congruence above alpha: the kernel of the composite projection
    X -> X/alpha -> (X/alpha)/gamma for a random congruence gamma of X/alpha.

    By the correspondence theorem this lift is a bijection from the
    congruences of X/alpha onto the congruences of X above alpha.
    """
    ops = KIND_OPS[kind_of(structure)]
    stage = ops.quotient(structure, alpha)
    gamma = ops.random_congruence(rng, stage)
    composite = tuple(gamma.part.class_id[b] for b in alpha.part.class_id)
    return ops.kernel(structure, ops.quotient(stage, gamma), composite)


# ---------------------------------------------------------------------------
# The three isomorphism theorems, per kind
# ---------------------------------------------------------------------------
#
# Each theorem names its isomorphism, and an instance holds when that map is
# one: no other map is searched for.  Each side is a congruence's vector or
# mask carried along a map of its points (no structure is built); carries
# compose exactly, since each map keeps the first point of every fibre first.

def check_first_iso(x, y, f) -> bool:
    """Quotient by the kernel of a surjection matches the codomain."""
    ops, kernel = _checked_kernel(x, y, f)
    return _first_iso(ops, ops.vector(kernel), f, y)


def _first_iso(ops, kernel, f, y) -> bool:
    """check_first_iso given the kernel's vector or mask: the map X/ker f -> Y
    sends each block to the image of its points, so after the projection it
    is f, and the kernel carried along f must be y's own vector or mask."""
    return ops.carry(ops.plan(f, y.n), kernel) == ops.representation(y)


def check_second_iso(x, theta, sub) -> bool:
    """Quotient of the restriction matches the image-side substructure."""
    require_carrier(x, theta.part)
    ops = KIND_OPS[kind_of(x)]
    return _second_iso(ops, ops.vector(theta), *_second_maps(ops, theta.part.class_id, _positions(sub, x.n)))


def _second_maps(ops, cid, points) -> tuple:
    """The plans of (cut, g) for theta's class ids and the subset's sorted
    points: the map sends each of the k blocks meeting the subset to its
    position among them, g sends each point to its block's (None off those
    blocks), and the sides under it are theta carried along g cut to the
    subset and along g."""
    image = sorted({cid[p] for p in points})
    g = tuple(image.index(b) if b in image else None for b in cid)
    cut = tuple(b if p in points else None for p, b in enumerate(g))
    return ops.plan(cut, len(image)), ops.plan(g, len(image))


def _second_iso(ops, vector, cut, g) -> bool:
    """check_second_iso given theta's vector or mask and the instance's plans."""
    return ops.carry(cut, vector) == ops.carry(g, vector)


def check_third_iso(x, alpha, beta) -> bool:
    """(X/a)/(b/a) matches X/b; a must be contained in b."""
    ops = KIND_OPS[kind_of(x)]
    require_carrier(x, alpha.part)
    require_carrier(x, beta.part)
    if not ops.le(alpha, beta):
        raise NotContained("beta must contain alpha")
    return _third_iso(ops, x, alpha, beta, _quotient_side(ops, beta))


def _quotient_side(ops, theta) -> tuple:
    """The quotient by theta: its size, and theta carried along its class map
    (a mask alone does not tell the number of vertices)."""
    m = theta.part.num_blocks
    return m, ops.carry(ops.plan(theta.part.class_id, m), ops.vector(theta))


def _third_iso(ops, x, alpha, beta, right) -> bool:
    """check_third_iso given X/beta's vector or mask.

    Both sides number their blocks by least element and alpha refines beta,
    so the map is the identity and the two sides must be equal.
    """
    return _quotient_side(ops, ops.quotient_cong(x, alpha, beta)) == right


THEOREMS = ("first", "second", "third")

# second-theorem instances (congruence, nonempty subset) one exhaustive sweep
# may check: topo n <= 5 has 2,146,692, while graph n <= 5 (18,703,858) and
# loopless n <= 6 (14,450,288) are refused
THEOREM_SWEEP_BOUND = 4_000_000


def exhaustive_iso_theorems(kind: str, max_n: int) -> dict[str, int]:
    """Failure counts per theorem over the whole universe up to max_n.

    Every member's congruences are listed before any instance is checked, and
    the sweep is refused once the universe's second-theorem instances (each
    member's congruences times its nonempty subsets) pass THEOREM_SWEEP_BOUND.
    The first theorem is decided on each map the search finds, a surjective
    morphism by construction, so unchecked: its kernel is y's vector or mask
    pulled back along it, and no partition is built.  The second builds its
    maps once per (partition, subset) for the whole sweep and decides every
    congruence on that partition with them.  The sweep holds the plan of
    every map it carries along, and drops them when it returns.

    The third theorem is decided once per (alpha's partition P, beta) with P
    refining beta's partition, on the least congruence on P (the kind's
    strongify), which lies below every such beta.  beta/alpha is beta carried
    to P's blocks, and the quotient of X/alpha by it reads only that
    congruence, so every alpha <= beta on P has the same left side.  Only a
    failed decision lists the alpha <= beta on P, to count every pair it
    stands for.
    """
    # the maps recur across members, so each is planned once
    plans = _Lazy(lambda key: KIND_OPS[kind].plan(*key))
    ops = dataclasses.replace(KIND_OPS[kind], plan=lambda image, m: plans[image, m])
    members = build_universe(kind, max_n).members
    congruences = []
    instances = 0
    for x in members:
        congs = ops.enum_congruences(x)
        instances += len(congs) * (2 ** x.n - 1)
        if instances > THEOREM_SWEEP_BOUND:
            raise BoundExceeded(f"theorem sweep capped at {THEOREM_SWEEP_BOUND} congruence-subset pairs")
        congruences.append(congs)
    failures = {name: 0 for name in THEOREMS}
    second_maps = _Lazy(lambda key: _second_maps(ops, *key))
    for x, congs in zip(members, congruences):
        for y in members:
            for f in surjective_morphisms(x, y):
                failures["first"] += not _first_iso(ops, ops.pullback(y, f), f, y)
        # each congruence's quotient side, carried once per member, grouped by
        # partition: the second theorem's maps read only the partition and the
        # subset, and alpha <= beta needs alpha's partition to refine beta's
        by_part: dict[Partition, list] = {}
        for theta in congs:
            by_part.setdefault(theta.part, []).append((theta, _quotient_side(ops, theta)))
        for part, group in by_part.items():
            vectors = [ops.vector(theta) for theta, _ in group]
            for sub in _nonempty_subsets(x.n):
                maps = second_maps[part.class_id, sub]
                failures["second"] += sum(not _second_iso(ops, vector, *maps) for vector in vectors)
        for part_a, group_a in by_part.items():
            alpha = ops.strongify(x, part_a)
            for part_b, group_b in by_part.items():
                if not _refines(part_a.class_id, part_b.class_id):
                    continue
                for beta, right in group_b:
                    if not _third_iso(ops, x, alpha, beta, right):
                        failures["third"] += sum(ops.le(a, beta) for a, _ in group_a)
    return failures


def random_iso_theorems(kind: str, samples: int, seed: int) -> dict[str, int]:
    """Failure counts per theorem over seeded random instances."""
    rng = random.Random(seed)
    failures = {name: 0 for name in THEOREMS}
    ops = KIND_OPS[kind]
    for _ in range(samples):
        n = rng.randint(RANDOM_MIN_N, RANDOM_MAX_N)
        x = ops.random_structure(rng, n)
        y, f = random_surjection(rng, x)
        if not check_first_iso(x, y, f):
            failures["first"] += 1

        x2 = ops.random_structure(rng, rng.randint(RANDOM_MIN_N, RANDOM_MAX_N))
        theta = ops.random_congruence(rng, x2)
        size = rng.randint(1, x2.n)
        sub = tuple(sorted(rng.sample(range(x2.n), size)))
        if not check_second_iso(x2, theta, sub):
            failures["second"] += 1

        x3 = ops.random_structure(rng, rng.randint(RANDOM_MIN_N, RANDOM_MAX_N))
        alpha = ops.random_congruence(rng, x3)
        beta = random_above(rng, x3, alpha)
        if not check_third_iso(x3, alpha, beta):
            failures["third"] += 1
    return failures
