"""Slow references and helpers that only the tests use.

Nothing in `conrad` calls these.  Each reference decides a question by its
definition, independently of the fast path the tests compare it with.
"""

import itertools

from conrad.errors import (
    BoundExceeded,
    EdgeSetOutOfRange,
    EmptyList,
    IndependenceViolated,
    InvalidCongruence,
    MissingEmptyOrFull,
    NoQualifyingCongruence,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotContained,
    NotContinuous,
    NotHomomorphism,
    PolicyMismatch,
    SubstitutionViolated,
)
from conrad.graph_congruence import GraphCongruence, strongify_gc
from conrad.radical_engine import KIND_OPS, KIND_TOPO, kind_of
from conrad.structures import (
    CONGRUENCE_SCAN_BOUND,
    FiniteGraph,
    FiniteSpace,
    LOOPS,
    NOLOOPS,
    Partition,
    _bitmask,
    _least_opens,
    _members,
    _nonempty_subsets,
    _norm_pair,
    _pair_slots,
    _positions,
    _preorders,
    _refines,
    _unions,
    bounded_partitions,
    complete_graph,
    graph,
    count_scanned,
    join_partitions,
    meet_partitions,
    random_partition,
    require_surjective,
)
from conrad.topo_congruence import TopoCongruence, strongify_tc


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


def restrict_partition(part: Partition, subset) -> Partition:
    """The partition induced on sorted(set(subset)), relabelled to 0..|S|-1."""
    return Partition([part.class_id[v] for v in _positions(subset, part.n)])


def _indexed(subset, n: int) -> tuple[list[int], dict[int, int]]:
    """sorted(set(subset)) and each member's index in it, its label in the substructure."""
    sub = _positions(subset, n)
    return sub, {v: i for i, v in enumerate(sub)}


# ---------------------------------------------------------------------------
# Morphisms by their definitions (in the library the kernels decide them)
# ---------------------------------------------------------------------------

def is_continuous(x: FiniteSpace, y: FiniteSpace, f: tuple) -> bool:
    return all(frozenset(p for p in range(x.n) if f[p] in v) in x.opens for v in y.opens)


def _require_continuous(x: FiniteSpace, y: FiniteSpace, f: tuple) -> None:
    if not is_continuous(x, y, f):
        raise NotContinuous("preimage of an open set is not open")


def is_homomorphism(g: FiniteGraph, h: FiniteGraph, f: tuple) -> bool:
    # a loopless h admits no loop image, so edges never land inside a fibre
    return all(_norm_pair(f[a], f[b]) in h.edges for a, b in g.edges)


def _require_homomorphism(g: FiniteGraph, h: FiniteGraph, f: tuple) -> None:
    if not is_homomorphism(g, h, f):
        raise NotHomomorphism("the map does not preserve edges")


def is_morphism(x, y, f: tuple) -> bool:
    """Continuity for spaces, edge preservation for graphs of either policy."""
    return (is_continuous if kind_of(x) == KIND_TOPO else is_homomorphism)(x, y, f)


# ---------------------------------------------------------------------------
# The topological congruence calculus on families of opens
# ---------------------------------------------------------------------------
#
# Each takes and returns congruences, but reads and builds their topologies
# as families of open sets (`ctop`, `from_opens`), not as least-open vectors.

def close_topology(n: int, family) -> frozenset[frozenset[int]]:
    """Topology generated by the family: the unions of its least members."""
    return frozenset(map(_members, _unions(_least_opens(n, map(_bitmask, family)))))


def _saturated(part: Partition, u: frozenset[int]) -> bool:
    return all(part.class_id[a] != part.class_id[b] or b in u
               for a in u for b in range(part.n))


def saturated_opens(x, part: Partition) -> frozenset[frozenset[int]]:
    """All opens of x that are unions of blocks of the partition."""
    return frozenset(u for u in x.opens if _saturated(part, u))


def le_tc_opens(a, b) -> bool:
    return b.ctop <= a.ctop and _refines(a.part.class_id, b.part.class_id)


def kernel_tc_opens(x, y, f: tuple) -> TopoCongruence:
    ctop = frozenset(
        frozenset(p for p in range(x.n) if f[p] in v) for v in y.opens
    )
    if not ctop <= x.opens:
        raise NotContinuous("preimage of an open set is not open")
    return TopoCongruence.from_opens(Partition(f), ctop)


def quotient_tc_opens(x, rho) -> FiniteSpace:
    proj = rho.part.class_id
    k = rho.part.num_blocks
    return FiniteSpace(k, _least_opens(k, [_bitmask(proj[p] for p in u) for u in rho.ctop]))


def restrict_tc_opens(x, rho, subset) -> TopoCongruence:
    sub, pos = _indexed(subset, x.n)
    part = restrict_partition(rho.part, sub)
    ctop = frozenset(frozenset(pos[p] for p in u if p in pos) for u in rho.ctop)
    return TopoCongruence.from_opens(part, ctop)


def quotient_cong_tc_opens(x, alpha, beta) -> TopoCongruence:
    if not le_tc_opens(alpha, beta):
        raise NotContained("beta must contain alpha")
    proj = alpha.part.class_id
    part = Partition([beta.part.class_id[block[0]] for block in alpha.part.blocks])
    ctop = frozenset(frozenset(proj[p] for p in u) for u in beta.ctop)
    return TopoCongruence.from_opens(part, ctop)


def meet_tc_opens(x, rhos) -> TopoCongruence:
    part = meet_partitions([r.part for r in rhos])
    return TopoCongruence.from_opens(part, close_topology(x.n, frozenset().union(*(r.ctop for r in rhos))))


def join_tc_opens(x, rhos) -> TopoCongruence:
    part = join_partitions([r.part for r in rhos])
    return TopoCongruence.from_opens(part, frozenset.intersection(*(r.ctop for r in rhos)))


def image_tc_opens(x, y, f: tuple, rho) -> TopoCongruence:
    """(rho + ker f)/ker f carried to y along the fibres."""
    require_surjective(f, y.n)
    alpha = kernel_tc_opens(x, y, f)
    total = join_tc_opens(x, [rho, alpha])
    qc = quotient_cong_tc_opens(x, alpha, total)
    # carry from x/ker f to y: block b of ker f corresponds to point f(rep(b))
    to_y = [f[block[0]] for block in alpha.part.blocks]
    raw = [0] * y.n
    for b, cls in enumerate(qc.part.class_id):
        raw[to_y[b]] = cls
    ctop = frozenset(frozenset(to_y[b] for b in w) for w in qc.ctop)
    return TopoCongruence.from_opens(Partition(raw), ctop)


def image_le_tc_opens(x, y, f: tuple, rho, beta) -> bool:
    require_surjective(f, y.n)
    _require_continuous(x, y, f)
    return _refines(rho.part.class_id, [beta.part.class_id[v] for v in f]) and all(
        frozenset(p for p in range(x.n) if f[p] in v) in rho.ctop for v in beta.ctop
    )


def random_space_opens(rng, n: int) -> FiniteSpace:
    """topo_congruence.random_space drawn as a set of frozensets: a random
    number of random subsets, each point drawn in turn."""
    fam = {frozenset(p for p in range(n) if rng.random() < 0.5)
           for _ in range(rng.randrange(n + 2))}
    return FiniteSpace(n, _least_opens(n, map(_bitmask, fam)))


def random_tcong_opens(rng, x) -> TopoCongruence:
    part = random_partition(rng, x.n)
    sat = sorted(saturated_opens(x, part), key=lambda u: sorted(u))
    return TopoCongruence.from_opens(part, close_topology(x.n, [u for u in sat if rng.random() < 0.5]))


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
    return TopoCongruence.from_opens(part, ctop)


# ---------------------------------------------------------------------------
# The graph congruence calculus on sets of pairs
# ---------------------------------------------------------------------------
#
# Each reads graphs and congruences through their pair sets (`edges`,
# `cedges`) and builds its results with `graph` and `from_pairs`, never
# through the slot masks the library computes with.

def all_pairs(g) -> frozenset[tuple[int, int]]:
    """Every admissible pair: C_G under loops, K_G under noloops."""
    first = 0 if g.policy == LOOPS else 1
    return frozenset((a, b) for a in range(g.n) for b in range(a + first, g.n))


def loop_vertices(g) -> frozenset[int]:
    return frozenset(a for a, b in g.edges if a == b)


def point_key(g, v: int) -> tuple[int, int]:
    return (sum(1 for a, b in g.edges if (a == v) != (b == v)), 1 if (v, v) in g.edges else 0)


def iso_key(g) -> tuple:
    return (g.n, len(g.edges), tuple(sorted(point_key(g, v) for v in range(g.n))))


def is_complete(g) -> bool:
    return g.edges == all_pairs(g)


def induced_pairs(g, subset):
    sub, pos = _indexed(subset, g.n)
    return graph(len(sub), g.policy, [(pos[a], pos[b]) for a, b in g.edges if a in pos and b in pos])


def relabel_pairs(g, perm):
    return graph(g.n, g.policy, [(perm[a], perm[b]) for a, b in g.edges])


def carries_pairs(g, h, perm) -> bool:
    return frozenset(_norm_pair(perm[a], perm[b]) for a, b in g.edges) == h.edges


def block_orbit(part: Partition, a: int, b: int) -> frozenset[tuple[int, int]]:
    """All pairs between the blocks of a and b (the substitution orbit)."""
    return frozenset(
        _norm_pair(u, v)
        for u in part.blocks[part.class_id[a]]
        for v in part.blocks[part.class_id[b]]
    )


def orbits(g, part: Partition) -> list[frozenset[tuple[int, int]]]:
    """Block-pair orbits in lexicographic order of the blocks; none on the
    diagonal for a loopless carrier."""
    blocks = part.blocks
    first = 0 if g.policy == LOOPS else 1
    return [block_orbit(part, blocks[i][0], blocks[j][0])
            for i in range(len(blocks)) for j in range(i + first, len(blocks))]


def saturation(g, part: Partition) -> frozenset[tuple[int, int]]:
    """Pairs whose block orbit touches an edge of g."""
    return frozenset().union(*[o for o in orbits(g, part) if o & g.edges])


def independent(g, part: Partition) -> bool:
    return all(not part.same(a, b) for a, b in g.edges)


def strongify_pairs(g, part: Partition):
    """The strong congruence of the partition, or None when a loopless block holds an edge."""
    if g.policy == NOLOOPS and not independent(g, part):
        return None
    return GraphCongruence.from_pairs(part, saturation(g, part))


def validate_pairs(g, theta):
    """The checks of `validate_gc`/`validate_lc` on the pair set, in the
    order they run; the pairs are visited in sorted order."""
    if theta.part.n != g.n:
        raise InvalidCongruence(f"partition on {theta.part.n} vertices, graph has {g.n}")
    if not (g.edges <= theta.cedges <= all_pairs(g)):
        top = "C" if g.policy == LOOPS else "K"
        raise EdgeSetOutOfRange(f"congruence edge-set must sit between E and {top}")
    if g.policy == NOLOOPS:
        for a, b in sorted(theta.cedges):
            if theta.part.same(a, b):
                raise IndependenceViolated(f"{a}-{b} joins related vertices")
    for a, b in sorted(theta.cedges):
        if not block_orbit(theta.part, a, b) <= theta.cedges:
            raise SubstitutionViolated(f"orbit of {a}-{b} escapes the edge-set")
    return theta


def le_gc_pairs(a, b) -> bool:
    return a.cedges <= b.cedges and _refines(a.part.class_id, b.part.class_id)


def kernel_gc_pairs(g, h, f: tuple):
    cedges = frozenset(p for p in all_pairs(g) if _norm_pair(f[p[0]], f[p[1]]) in h.edges)
    if not g.edges <= cedges:
        raise NotHomomorphism("the map does not preserve edges")
    return GraphCongruence.from_pairs(Partition(f), cedges)


def quotient_gc_pairs(g, theta) -> FiniteGraph:
    cid = theta.part.class_id
    return graph(theta.part.num_blocks, g.policy, [(cid[a], cid[b]) for a, b in theta.cedges])


def restrict_gc_pairs(g, theta, subset):
    sub, pos = _indexed(subset, g.n)
    cedges = [(pos[a], pos[b]) for a, b in theta.cedges if a in pos and b in pos]
    return GraphCongruence.from_pairs(restrict_partition(theta.part, sub), cedges)


def quotient_cong_gc_pairs(g, t1, t2):
    if not le_gc_pairs(t1, t2):
        raise NotContained("t2 must contain t1")
    cid = t1.part.class_id
    part = Partition([t2.part.class_id[b[0]] for b in t1.part.blocks])
    return GraphCongruence.from_pairs(part, [(cid[a], cid[b]) for a, b in t2.cedges])


def meet_gc_pairs(g, thetas):
    if not thetas:
        raise EmptyList("meet of no congruences")
    part = meet_partitions([t.part for t in thetas])
    return GraphCongruence.from_pairs(part, frozenset.intersection(*(t.cedges for t in thetas)))


def join_gc_pairs(g, thetas):
    part = join_partitions([t.part for t in thetas])
    cedges: set[tuple[int, int]] = set()
    for pair in frozenset.union(*(t.cedges for t in thetas)):
        cedges.update(block_orbit(part, *pair))
    return GraphCongruence.from_pairs(part, cedges)


def image_gc_pairs(g, h, f: tuple, theta):
    """(theta + ker f)/ker f carried to h along the fibres."""
    require_surjective(f, h.n)
    alpha = kernel_gc_pairs(g, h, f)
    qc = quotient_cong_gc_pairs(g, alpha, join_gc_pairs(g, [theta, alpha]))
    to_h = [f[b[0]] for b in alpha.part.blocks]
    raw = [0] * h.n
    for b, cls in enumerate(qc.part.class_id):
        raw[to_h[b]] = cls
    return GraphCongruence.from_pairs(Partition(raw), [(to_h[a], to_h[b]) for a, b in qc.cedges])


def image_le_gc_pairs(g, h, f: tuple, theta, beta) -> bool:
    return _refines(theta.part.class_id, [beta.part.class_id[v] for v in f]) and all(
        _norm_pair(f[a], f[b]) in beta.cedges for a, b in theta.cedges
    )


def random_graph_pairs(rng, n: int, policy: str):
    first = 0 if policy == LOOPS else 1
    slots = [(a, b) for a in range(n) for b in range(a + first, n)]
    return graph(n, policy, [p for p in slots if rng.random() < 0.5])


def _random_over_pairs(rng, g, part):
    cedges = set(saturation(g, part))
    for orbit in orbits(g, part):
        if not orbit & cedges and rng.random() < 0.5:
            cedges.update(orbit)
    return GraphCongruence.from_pairs(part, cedges)


def random_gcong_pairs(rng, g):
    if g.policy != LOOPS:
        raise PolicyMismatch("random_gcong needs a loops-allowed carrier")
    return _random_over_pairs(rng, g, random_partition(rng, g.n))


def random_lcong_pairs(rng, g):
    order = list(range(g.n))
    rng.shuffle(order)
    blocks: list[list[int]] = []
    for v in order:
        options = [i for i, b in enumerate(blocks) if all(_norm_pair(v, u) not in g.edges for u in b)]
        options.append(-1)
        pick = rng.choice(options)
        if pick == -1:
            blocks.append([v])
        else:
            blocks[pick].append(v)
    return _random_over_pairs(rng, g, Partition.from_blocks(g.n, blocks))


def catalog_graph_pairs(g, cid: str):
    """The eight graph catalog entries by their definitions."""
    loops = loop_vertices(g)
    ident = Partition.identity(g.n)
    if cid == "a":
        return strongify_pairs(g, Partition.universal(g.n))
    if cid == "b":
        return GraphCongruence.from_pairs(Partition.universal(g.n), all_pairs(g))
    if cid == "c":
        return strongify_pairs(g, Partition([-1 if v in loops else v for v in range(g.n)]))
    extra = {
        "d": {(v, v) for v in range(g.n)},
        "e": all_pairs(g),
        "f": set(),
        "g": {_norm_pair(a, b) for a in loops for b in loops},
        "h": {_norm_pair(a, b) for a in loops for b in range(g.n)},
    }[cid]
    return GraphCongruence.from_pairs(ident, g.edges | extra)


def enumerate_graphs_pairs(n: int, policy: str):
    """`enumerate_graphs` on edge sets: the least mask of each orbit over the
    policy's pairs, scanned upward, each representative built from its pairs."""
    first = 0 if policy == LOOPS else 1
    slots = [(a, b) for a in range(n) for b in range(a + first, n)]
    index = {pair: i for i, pair in enumerate(slots)}
    images = [[1 << index[_norm_pair(p[a], p[b])] for a, b in slots]
              for p in itertools.permutations(range(n))]
    seen = bytearray(2 ** len(slots))
    reps = []
    mask = 0
    while mask >= 0:
        ones = [i for i in range(len(slots)) if mask >> i & 1]
        for image in images:
            seen[sum(image[i] for i in ones)] = 1
        reps.append(graph(n, policy, [slots[i] for i in ones]))
        mask = seen.find(0, mask + 1)
    reps.sort(key=lambda g: (len(g.edges), tuple(sorted(g.edges))))
    return reps


def is_strong_gc(g, theta) -> bool:
    return theta.cedges == saturation(g, theta.part)


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
    return GraphCongruence.from_pairs(part, cedges)


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
    return graph(len(verts), LOOPS, edges)


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
            reps.append(graph(n, policy, [slots[i] for i in range(len(slots)) if mask >> i & 1]))
    reps.sort(key=lambda g: (len(g.edges), tuple(sorted(g.edges))))
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
        for orbit in orbits(g, part):
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
            found.append(GraphCongruence.from_pairs(part, cedges))
        out.extend(sorted(found, key=lambda c: (c.part.class_id, tuple(sorted(c.cedges)))))
    return out


def eager_congruences_gc(g):
    return _eager_congruences_over(g, lambda part: True)


def eager_congruences_lc(g):
    return _eager_congruences_over(g, lambda part: independent(g, part))


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
            found.append(TopoCongruence.from_opens(part, frozenset(map(_members, masks))))
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
    qualifying = [t for t in EAGER_CONGRUENCES[kind](x) if cls(ops.quotient(x, t))]
    return bool(qualifying) and ops.meet(x, qualifying) == ops.identity(x)


def hoehnke_radical_eager(x, cls):
    """The meet of every qualifying congruence, all of them listed first."""
    kind = kind_of(x)
    ops = KIND_OPS[kind]
    qualifying = [t for t in EAGER_CONGRUENCES[kind](x) if cls(ops.quotient(x, t))]
    if not qualifying:
        raise NoQualifyingCongruence(f"no congruence quotient lies in {cls.name!r}")
    return ops.meet(x, qualifying)


def U_operator_eager(cls, uni):
    """Members none of whose non-trivial quotients, all of them built, lies in the class."""
    ops = KIND_OPS[uni.kind]
    return [
        x for x in uni.members
        if not any([cls(ops.quotient(x, t)) for t in EAGER_CONGRUENCES[uni.kind](x)
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


# ---------------------------------------------------------------------------
# The isomorphism theorems on structures
# ---------------------------------------------------------------------------

def first_iso_objects(x, y, f, theta) -> bool:
    """The first theorem's instance decided on built structures, for a theta
    whose blocks f keeps together: the quotient X/theta against y, through the
    map sending each block to the image of its points, which must be a
    bijection carrying one onto the other."""
    ops = KIND_OPS[kind_of(x)]
    quotient = ops.quotient(x, theta)
    perm = tuple(f[block[0]] for block in theta.part.blocks)
    return quotient.n == y.n == len(set(perm)) and ops.carries(quotient, y, perm)


def third_iso_objects(x, alpha, beta) -> bool:
    """The third theorem's instance decided on built structures: (X/alpha)/(beta/alpha)
    against X/beta, through the map sending each block of beta/alpha (a set of
    alpha's blocks) to the block of beta holding their points, which must be a
    bijection carrying one onto the other."""
    ops = KIND_OPS[kind_of(x)]
    stage = ops.quotient(x, alpha)
    cong = ops.quotient_cong(x, alpha, beta)
    left = ops.quotient(stage, cong)
    right = ops.quotient(x, beta)
    perm = tuple(beta.part.class_id[alpha.part.blocks[block[0]][0]] for block in cong.part.blocks)
    return left.n == right.n == len(set(perm)) and ops.carries(left, right, perm)


def second_iso_objects(x, theta, sub) -> bool:
    """The second theorem's instance decided on built structures: the
    quotient of the substructure on sub by theta restricted to it, against
    the substructure of X/theta on the blocks meeting sub, through the map
    sending the block of sorted(sub)[i] to the position of its block of x
    among those blocks, which must be a bijection carrying one onto the other."""
    ops = KIND_OPS[kind_of(x)]
    quotient, proj = ops.quotient(x, theta), theta.part.class_id
    restricted = ops.restrict(x, theta, sub)
    left = ops.quotient(ops.substructure(x, sub), restricted)
    points = _positions(sub, x.n)
    image = sorted({proj[v] for v in points})
    right = ops.substructure(quotient, image)
    position = {b: i for i, b in enumerate(image)}
    perm = tuple(position[proj[points[block[0]]]] for block in restricted.part.blocks)
    return left.n == right.n == len(set(perm)) and ops.carries(left, right, perm)


# ---------------------------------------------------------------------------
# The closure check of a family of point sets by its ordered pairs
# ---------------------------------------------------------------------------

def topology_defect_pairs(n: int, family: frozenset):
    """structures._topology_defect by scanning every ordered pair of members:
    the empty or full set missing, then the first pair whose union or
    intersection is missing, as the error, or None."""
    ids = frozenset().union(*family)
    if frozenset() not in family or len(ids) < n or frozenset(range(n)) not in family:
        return MissingEmptyOrFull("a topology contains the empty and full sets")
    index = {p: i for i, p in enumerate(ids)}
    masked = {_bitmask(index[p] for p in u): u for u in family}
    for a in masked:
        for b in masked:
            if a | b not in masked:
                return NotClosedUnderUnion(f"{sorted(masked[a])} | {sorted(masked[b])} missing")
            if a & b not in masked:
                return NotClosedUnderIntersection(f"{sorted(masked[a])} & {sorted(masked[b])} missing")
    return None
