"""Isomorphism/homeomorphism theorem sweeps over exhaustive and seeded instances.

Each theorem is checked two ways: exhaustively over every structure,
congruence and surjective morphism up to a size bound, and on seeded random
instances of slightly larger structures.  Both the CLI `verify` subcommand
and the acceptance suite drive these sweeps.
"""

from __future__ import annotations

import random

from .errors import BoundExceeded, NotContained
from .radical_engine import KIND_OPS, _checked_kernel, build_universe, kind_of, surjective_morphisms
from .structures import CONGRUENCE_SCAN_BOUND, Partition, _nonempty_subsets, _positions, _refines

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

def check_first_iso(x, y, f) -> bool:
    """Quotient by the kernel of a surjection matches the codomain.

    The map X/ker f -> Y sends each block to the image of its points, so
    after the projection it is f: the kernel carried along f must be y.
    """
    ops, kernel = _checked_kernel(x, y, f)
    return ops.quotient_along(x, kernel, f, y.n) == y


def check_second_iso(x, theta, sub) -> bool:
    """Quotient of the restriction matches the image-side substructure.

    The map sends each block meeting sub to its position among them.  With g
    sending each point to its block's position (None off those blocks), the
    sides under it are theta carried along g cut to sub and along g.
    """
    ops = KIND_OPS[kind_of(x)]
    cid = theta.part.class_id
    points = _positions(sub, x.n)
    image = sorted({cid[p] for p in points})
    g = [image.index(b) if b in image else None for b in cid]
    cut = [b if p in points else None for p, b in enumerate(g)]
    return ops.quotient_along(x, theta, cut, len(image)) == ops.quotient_along(x, theta, g, len(image))


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
    congruences times its nonempty subsets) pass the scan bound.  The first
    two theorems are decided by their public checks.

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
        for y in members:
            for f in surjective_morphisms(x, y):
                if not check_first_iso(x, y, f):
                    failures["first"] += 1
        for theta in congs:
            for sub in _nonempty_subsets(x.n):
                if not check_second_iso(x, theta, sub):
                    failures["second"] += 1
        # quotients for the third theorem, built once per member; alpha <= beta
        # needs alpha's partition to refine beta's, so decide only such pairs
        quotients = {theta: ops.quotient(x, theta)[0] for theta in congs}
        by_part: dict[Partition, list] = {}
        for theta, quotient in quotients.items():
            by_part.setdefault(theta.part, []).append((theta, quotient))
        for part_a, group_a in by_part.items():
            alpha = ops.strongify(x, part_a)
            stage = quotients[alpha]
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
