"""Isomorphism/homeomorphism theorem sweeps over exhaustive and seeded instances.

Each theorem is checked two ways: exhaustively over every structure,
congruence and surjective morphism up to a size bound, and on seeded random
instances of slightly larger structures.  Both the CLI `verify` subcommand
and the acceptance suite drive these sweeps.
"""

from __future__ import annotations

import random

from .errors import BoundExceeded, NotContained
from .radical_engine import KIND_OPS, _morphism_kind, build_universe, kind_of, surjective_morphisms
from .structures import CONGRUENCE_SCAN_BOUND, Partition, _nonempty_subsets, _refines

RANDOM_MIN_N, RANDOM_MAX_N = 3, 5  # the sizes of the seeded random instances


# ---------------------------------------------------------------------------
# Seeded instances (the generators live with their kinds in KIND_OPS)
# ---------------------------------------------------------------------------

def random_surjection(rng: random.Random, structure):
    """A surjective morphism built as projection-then-relabel."""
    ops = KIND_OPS[kind_of(structure)]
    theta = ops.random_congruence(rng, structure)
    quotient, proj = ops.quotient(structure, theta)
    perm = list(range(quotient.n))
    rng.shuffle(perm)
    target = ops.relabel(quotient, perm)
    f = tuple(perm[proj[v]] for v in range(structure.n))
    return target, f


def random_above(rng: random.Random, structure, alpha):
    """A random congruence above alpha: the kernel of the composite projection
    X -> X/alpha -> (X/alpha)/gamma for a random congruence gamma of X/alpha.

    By the correspondence theorem this lift is a bijection from the
    congruences of X/alpha onto the congruences of X above alpha.
    """
    ops = KIND_OPS[kind_of(structure)]
    stage, proj = ops.quotient(structure, alpha)
    target, proj2 = ops.quotient(stage, ops.random_congruence(rng, stage))
    return ops.kernel(structure, target, tuple(proj2[b] for b in proj))


# ---------------------------------------------------------------------------
# The three isomorphism theorems, per kind
# ---------------------------------------------------------------------------
#
# Each theorem names its isomorphism, and an instance holds when that map is
# one: no other map is searched for.

def _is_isomorphism(ops, left, right, perm: tuple) -> bool:
    """Whether perm is a bijection from left onto right carrying its structure."""
    return left.n == right.n == len(set(perm)) and ops.carries(left, right, perm)


def check_first_iso(x, y, f, quotients=None) -> bool:
    """Quotient by the kernel of a surjection matches the codomain.

    The map X/ker f -> Y sends each block to the image of its points.  When
    given, quotients maps every congruence of X to X/theta with its
    projection, and the quotient by the kernel is looked up there.
    """
    ops = KIND_OPS[_morphism_kind(x, y)]
    kernel = ops.kernel(x, y, f)
    quotient, _ = ops.quotient(x, kernel) if quotients is None else quotients[kernel]
    return _is_isomorphism(ops, quotient, y, tuple(f[block[0]] for block in kernel.part.blocks))


def check_second_iso(x, theta, sub) -> bool:
    """Quotient of the restriction matches the image-side substructure."""
    ops = KIND_OPS[kind_of(x)]
    return _second_iso(ops, x, theta, ops.quotient(x, theta), sub, ops.substructure(x, sub))


def _second_iso(ops, x, theta, quotient_proj: tuple, sub, x_sub) -> bool:
    """check_second_iso given the quotient of x by theta with its projection,
    and the substructure x_sub of x on sub.

    The map sends the block of sub-point i to the position, among the blocks
    meeting sub, of the block of x holding sorted(sub)[i].
    """
    quotient, proj = quotient_proj
    restricted = ops.restrict(x, theta, sub)
    left, _ = ops.quotient(x_sub, restricted)
    points = sorted(set(sub))
    image = sorted({proj[v] for v in points})
    right = ops.substructure(quotient, image)
    position = {b: i for i, b in enumerate(image)}
    perm = tuple(position[proj[points[block[0]]]] for block in restricted.part.blocks)
    return _is_isomorphism(ops, left, right, perm)


def check_third_iso(x, alpha, beta) -> bool:
    """(X/a)/(b/a) matches X/b; a must be contained in b."""
    ops = KIND_OPS[kind_of(x)]
    if not ops.le(alpha, beta):
        raise NotContained("beta must contain alpha")
    stage, _ = ops.quotient(x, alpha)
    right, _ = ops.quotient(x, beta)
    return _third_iso(ops, x, alpha, beta, stage, right)


def _third_iso(ops, x, alpha, beta, stage, right) -> bool:
    """check_third_iso given X/alpha and X/beta.

    Both sides number their blocks by least element and alpha refines beta,
    so the map is the identity and the two sides must be equal.
    """
    left, _ = ops.quotient(stage, ops.quotient_cong(x, alpha, beta))
    return left == right


THEOREMS = ("first", "second", "third")


def exhaustive_iso_theorems(kind: str, max_n: int) -> dict[str, int]:
    """Failure counts per theorem over the whole universe up to max_n.

    Every member's congruences are listed before any instance is checked, and
    the sweep is refused when a member's second-theorem instances (its
    congruences times its nonempty subsets) pass the scan bound.  A member's
    quotients by its congruences are built once, serve all three theorems,
    and are dropped with the member.

    The third theorem is decided once per (alpha's partition P, beta) with P
    refining beta's partition, on the least congruence on P (the kind's
    strongify), which lies below every such beta.  beta/alpha is beta carried
    to P's blocks, and the quotient of X/alpha by it reads only that
    congruence (and, for graphs, the carrier's loop policy), so every
    alpha <= beta on P has the same left side.  Only a failed decision lists
    the alpha <= beta on P, to count every pair it stands for.
    """
    ops = KIND_OPS[kind]
    members = build_universe(kind, max_n).members
    congruences = []
    for x in members:
        congs = ops.enum_congruences(x)
        if len(congs) * (2 ** x.n - 1) > CONGRUENCE_SCAN_BOUND:
            raise BoundExceeded(
                f"theorem sweep capped at {CONGRUENCE_SCAN_BOUND} congruence-subset pairs per structure"
            )
        congruences.append(congs)
    failures = {name: 0 for name in THEOREMS}
    for x, congs in zip(members, congruences):
        # the kernel of a surjection from x is one of x's congruences
        quotients = {theta: ops.quotient(x, theta) for theta in congs}
        for y in members:
            for f in surjective_morphisms(x, y):
                if not check_first_iso(x, y, f, quotients):
                    failures["first"] += 1
        subsets = [(sub, ops.substructure(x, sub)) for sub in _nonempty_subsets(x.n)]
        for theta, quotient_proj in quotients.items():
            for sub, x_sub in subsets:
                if not _second_iso(ops, x, theta, quotient_proj, sub, x_sub):
                    failures["second"] += 1
        # alpha <= beta needs alpha's partition to refine beta's, so decide
        # only pairs of partitions that refine
        by_part: dict[Partition, list] = {}
        for theta, (quotient, _) in quotients.items():
            by_part.setdefault(theta.part, []).append((theta, quotient))
        for part_a, group_a in by_part.items():
            alpha = ops.strongify(x, part_a)
            stage = quotients[alpha][0]
            for part_b, group_b in by_part.items():
                if not _refines(part_a.class_id, part_b.class_id):
                    continue
                for beta, right in group_b:
                    if not _third_iso(ops, x, alpha, beta, stage, right):
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
