"""Exhaustive profile search over the small space universe.

Backtracks over every choice of one congruence per space with n <= 3,
keeping only assignments that restrict exactly to subspaces (hereditary in
both directions), push forward along every surjective continuous map (H1),
and have semisimple quotients (H2).  Exactly the four distinct catalog
values survive; the last catalog id shares the indiscrete profile, which is
why it coincides with its neighbour at finite scale.
"""

import itertools

from conrad import topo_congruence as tc
from conrad.radical_engine import (
    KIND_TOPO,
    TOPO_CATALOG_IDS,
    build_universe,
    catalog_topological,
    surjective_morphisms,
)
from conrad.structures import Partition, homeo_spaces, subspace


def _transport(cong, perm, n):
    raw = [0] * n
    for p in range(n):
        raw[perm[p]] = cong.part.class_id[p]
    part = Partition(tuple(raw))
    ctop = frozenset(frozenset(perm[q] for q in u) for u in cong.ctop)
    return tc.TopoCongruence.from_opens(part, ctop)


def test_exactly_four_hereditary_h_radical_profiles():
    uni = build_universe(KIND_TOPO, 3)
    members = list(uni.members)
    cons = {m: tc.enumerate_congruences_tc(m) for m in members}
    surj = {
        (x, y): surjective_morphisms(x, y)
        for x in members
        for y in members
    }

    def canonical_copy(x):
        for m in members:
            w = homeo_spaces(m, x)
            if w is not None:
                return m, w
        raise AssertionError(f"no canonical copy for {x}")

    def value_on(assign, x):
        m, w = canonical_copy(x)
        return _transport(assign[m], w, x.n)

    def consistent(assign, x):
        sx = assign[x]
        for size in range(1, x.n + 1):
            for sub in itertools.combinations(range(x.n), size):
                expected = value_on(assign, subspace(x, sub))
                if tc.restrict_tc(x, sx, sub) != expected:
                    return False
        quotient = tc.quotient_tc(x, sx)
        mq, _ = canonical_copy(quotient)
        if mq in assign and assign[mq] != tc.identity_tc(mq):
            return False
        for y in members:
            if y not in assign:
                continue
            for f in surj[(x, y)]:
                if not tc.le_tc(tc.image_tc(x, y, f, sx), assign[y]):
                    return False
            for f in surj[(y, x)]:
                if not tc.le_tc(tc.image_tc(y, x, f, assign[y]), sx):
                    return False
        return True

    solutions = []

    def backtrack(i, assign):
        if i == len(members):
            for x in members:
                quotient = tc.quotient_tc(x, assign[x])
                mq, _ = canonical_copy(quotient)
                if assign[mq] != tc.identity_tc(mq):
                    return
            solutions.append(dict(assign))
            return
        x = members[i]
        for cong in cons[x]:
            assign[x] = cong
            if consistent(assign, x):
                backtrack(i + 1, assign)
            del assign[x]

    backtrack(0, {})
    assert len(solutions) == 4
    matched = set()
    for sol in solutions:
        for cid in TOPO_CATALOG_IDS:
            if all(sol[m] == catalog_topological(m, cid) for m in members):
                matched.add(cid)
    # d and e share one profile, so four solutions cover all five ids
    assert matched == {"a", "b", "c", "d", "e"}
