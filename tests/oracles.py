"""Slow references and helpers that only the tests use.

Nothing in `conrad` calls these.  Each reference decides a question by its
definition, independently of the fast path the tests compare it with.
"""

import itertools

from conrad.errors import BoundExceeded
from conrad.graph_congruence import (
    GraphCongruence,
    _require_homomorphism,
    block_orbit,
    saturation_gc,
    strongify_gc,
)
from conrad.structures import (
    FiniteGraph,
    LOOPS,
    Partition,
    _norm_pair,
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
