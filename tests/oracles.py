"""Slow references and helpers that only the tests use.

Nothing in `conrad` calls these.  Each reference decides a question by its
definition, independently of the fast path the tests compare it with.
"""

import itertools

from conrad.errors import BoundExceeded, NoQualifyingCongruence
from conrad.graph_congruence import (
    GraphCongruence,
    _orbits,
    _require_homomorphism,
    block_orbit,
    saturation_gc,
    strongify_gc,
)
from conrad.loopless_congruence import _blocks_independent
from conrad.radical_engine import KIND_OPS, kind_of
from conrad.structures import (
    CONGRUENCE_SCAN_BOUND,
    FiniteGraph,
    LOOPS,
    Partition,
    _bitmask,
    _members,
    _nonempty_subsets,
    _norm_pair,
    _pair_slots,
    _preorders,
    _unions,
    bounded_partitions,
    complete_graph,
    count_scanned,
    join_partitions,
    require_surjective,
)
from conrad.topo_congruence import (
    TopoCongruence,
    _require_continuous,
    saturated_opens,
    strongify_tc,
)


def closed_families(n, masks):
    """Index lists of the sub-lists of masks (subsets of 0..n-1 as bitmasks)
    that form a topology with the empty and full sets, in counting order: a
    scan over all 2^len(masks) families."""
    fixed = [0, 2 ** n - 1]
    for k in range(2 ** len(masks)):
        keep = [i for i in range(len(masks)) if k >> i & 1]
        family = set(fixed + [masks[i] for i in keep])
        if all(a | b in family and a & b in family for a in family for b in family):
            yield keep


def image_partition(f: tuple, part: Partition, m: int) -> Partition:
    """The finest partition of 0..m-1 in which f sends each block of part into one block."""
    hits = [{f[v] for v in block} for block in part.blocks]
    return join_partitions([Partition([-1 if q in hit else q for q in range(m)]) for hit in hits])


def is_strong_tc(x, rho) -> bool:
    return rho.ctop == saturated_opens(x, rho.part)


def strong_kernel_tc(x, y, f: tuple) -> TopoCongruence:
    _require_continuous(x, y, f)
    return strongify_tc(x, Partition(f))


def image_tc_direct(x, y, f: tuple, rho) -> TopoCongruence:
    """Image by its pointwise description."""
    require_surjective(f, y.n)
    _require_continuous(x, y, f)
    part = image_partition(f, rho.part, y.n)
    ctop = frozenset(
        v for v in y.opens
        if frozenset(p for p in range(x.n) if f[p] in v) in rho.ctop
    )
    return TopoCongruence(part, ctop)


def is_strong_gc(g, theta) -> bool:
    return theta.cedges == saturation_gc(g, theta.part)


def strong_kernel_gc(g, h, f: tuple) -> GraphCongruence:
    _require_homomorphism(g, h, f)
    return strongify_gc(g, Partition(f))


def image_gc_direct(g, h, f: tuple, theta) -> GraphCongruence:
    """Image by chain closure on the codomain."""
    require_surjective(f, h.n)
    _require_homomorphism(g, h, f)
    part = image_partition(f, theta.part, h.n)
    seeds = {_norm_pair(f[a], f[b]) for a, b in theta.cedges} | h.edges
    cedges: set[tuple[int, int]] = set()
    for pair in seeds:
        cedges.update(block_orbit(part, *pair))
    return GraphCongruence(part, frozenset(cedges))


def product_graph(factors: list[FiniteGraph]) -> FiniteGraph:
    """Categorical product; materialized only at desk scale."""
    if len(factors) > 4:
        raise BoundExceeded("products materialized for at most 4 factors")
    size = 1
    for fct in factors:
        size *= fct.n
    if size > 10 ** 5:
        raise BoundExceeded("product too large to materialize")
    verts = list(itertools.product(*(range(fct.n) for fct in factors)))
    pos = {v: i for i, v in enumerate(verts)}
    edges = set()
    for u in verts:
        for v in verts:
            if pos[u] <= pos[v] and all(
                _norm_pair(a, b) in fct.edges for a, b, fct in zip(u, v, factors)
            ):
                edges.add((pos[u], pos[v]))
    return FiniteGraph(len(verts), LOOPS, frozenset(edges))


def enumerate_graphs_scan(n, policy):
    """Every isomorphism class's least edge mask, found by testing each mask
    against its images under every vertex permutation."""
    slots = _pair_slots(n, policy)
    index = {pair: i for i, pair in enumerate(slots)}
    actions = [
        [index[_norm_pair(p[a], p[b])] for (a, b) in slots]
        for p in itertools.permutations(range(n))
    ]
    reps = []
    for mask in range(2 ** len(slots)):
        best = mask
        for act in actions:
            img = 0
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                img |= 1 << act[i]
                m &= m - 1
            if img < best:
                best = img
                if best < mask:
                    break
        if best == mask:
            edges = frozenset(slots[i] for i in range(len(slots)) if mask >> i & 1)
            reps.append(FiniteGraph(n, policy, edges))
    reps.sort(key=lambda g: (len(g.edges), g.encoding()))
    return reps


# ---------------------------------------------------------------------------
# Eager congruence enumeration and the sweeps that consume it in full
# ---------------------------------------------------------------------------

def _eager_congruences_over(g, admits):
    """Every congruence, all built before any is returned."""
    plans = []
    scanned = 0
    for part in bounded_partitions(g.n):
        if not admits(part):
            scanned = count_scanned(scanned, 1)
            continue
        required = set()
        free = []
        for orbit in _orbits(g, part):
            if orbit & g.edges:
                required.update(orbit)
            else:
                free.append(sorted(orbit))
        scanned = count_scanned(scanned, 2 ** len(free))
        plans.append((part, required, free))
    out = []
    for part, required, free in plans:
        found = []
        for k in range(2 ** len(free)):
            cedges = set(required)
            for i in range(len(free)):
                if k >> i & 1:
                    cedges.update(free[i])
            found.append(GraphCongruence(part, frozenset(cedges)))
        out.extend(sorted(found, key=lambda c: c.encoding()))
    return out


def eager_congruences_gc(g):
    return _eager_congruences_over(g, lambda part: True)


def eager_congruences_lc(g):
    return _eager_congruences_over(g, lambda part: _blocks_independent(g, part))


def eager_congruences_tc(x):
    """Every congruence on x, all built before any is returned."""
    plans = []
    scanned = 0
    for part in bounded_partitions(x.n):
        points, reach = [0] * part.num_blocks, [0] * part.num_blocks
        for p, (b, u) in enumerate(zip(part.class_id, x.min_opens)):
            points[b] |= 1 << p
            reach[b] |= u
        floor = tuple(_bitmask(b for b, held in enumerate(points) if held & r) for r in reach)
        vectors = list(itertools.islice(_preorders(len(points), floor), CONGRUENCE_SCAN_BOUND + 1))
        scanned = count_scanned(scanned, len(vectors))
        plans.append((part, points, vectors))
    out = []
    for part, points, vectors in plans:
        found = []
        for vec in vectors:
            masks = {sum(held for b, held in enumerate(points) if m >> b & 1) for m in _unions(vec)}
            found.append(TopoCongruence(part, frozenset(map(_members, masks))))
        out.extend(sorted(found, key=lambda c: c.encoding()))
    return out


EAGER_CONGRUENCES = {
    "topo": eager_congruences_tc,
    "graph": eager_congruences_gc,
    "loopless": eager_congruences_lc,
}


def meets_to_identity_eager(kind, x, cls):
    """Whether the qualifying congruences, all of them, meet to the identity."""
    ops = KIND_OPS[kind]
    qualifying = [t for t in EAGER_CONGRUENCES[kind](x) if cls(ops.quotient(x, t)[0])]
    return bool(qualifying) and ops.meet(x, qualifying) == ops.identity(x)


def hoehnke_radical_eager(x, cls):
    """The meet of every qualifying congruence, all of them listed first."""
    kind = kind_of(x)
    ops = KIND_OPS[kind]
    qualifying = [t for t in EAGER_CONGRUENCES[kind](x) if cls(ops.quotient(x, t)[0])]
    if not qualifying:
        raise NoQualifyingCongruence(f"no congruence quotient lies in {cls.name!r}")
    return ops.meet(x, qualifying)


def U_operator_eager(cls, uni):
    """Members none of whose non-trivial quotients, all of them built, lies in the class."""
    ops = KIND_OPS[uni.kind]
    return [
        x for x in uni.members
        if not any([cls(ops.quotient(x, t)[0]) for t in EAGER_CONGRUENCES[uni.kind](x)
                    if t.part.num_blocks >= 2])
    ]


def subdirect_closure_eager(cls, uni):
    return [x for x in uni.members if meets_to_identity_eager(uni.kind, x, cls)]


def degeneracy_eager(uni, cls):
    """Whether every member's Hoehnke radical, computed in full, is the
    identity; None when the class misses a complete graph, which the check refuses."""
    if not all(cls(complete_graph(m)) for m in range(1, uni.max_n + 1)):
        return None
    ops = KIND_OPS[uni.kind]
    return all(hoehnke_radical_eager(x, cls) == ops.identity(x) for x in uni.members)


# ---------------------------------------------------------------------------
# Iso-closure membership by a linear scan of the pool
# ---------------------------------------------------------------------------

def iso_to_some(kind, structure, pool):
    """Whether the structure is isomorphic to a member of the pool."""
    iso = KIND_OPS[kind].iso
    return any(m.n == structure.n and iso(structure, m) is not None for m in pool)


def class_hereditary_scan(kind, members_in_class):
    substructure = KIND_OPS[kind].substructure
    for x in members_in_class:
        for sub in _nonempty_subsets(x.n):
            if not iso_to_some(kind, substructure(x, sub), members_in_class):
                return False, (x, sub)
    return True, None


# ---------------------------------------------------------------------------
# The permutation search by filtering every permutation
# ---------------------------------------------------------------------------

def least_carrying_scan(x, y, carries):
    """The least permutation keeping each point's point_key that carries x
    onto y, or None: every one of the n! permutations in lexicographic order,
    filtered by the keys."""
    xkeys = [x.point_key(p) for p in range(x.n)]
    ykeys = [y.point_key(p) for p in range(y.n)]
    if sorted(xkeys) != sorted(ykeys):
        return None
    for perm in itertools.permutations(range(x.n)):
        if any(xkeys[p] != ykeys[perm[p]] for p in range(x.n)):
            continue
        if carries(x, y, perm):
            return perm
    return None
