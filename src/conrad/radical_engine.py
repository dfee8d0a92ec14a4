"""Hoehnke radicals over finite universes of spaces and graphs.

A radical assignment maps each structure to a congruence on it.  The engine
verifies the two Hoehnke conditions, the Kurosh-Amitsur triple (complete,
idempotent, everywhere strong), hereditariness in both directions, the
upper-radical and semisimple operators, connectedness/disconnectedness
fixed points, and the two explicit catalogs of ideal-hereditary radicals.

Every check quantifies over the finite universe only; witnesses are the
first failure in canonical enumeration order.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable

from . import graph_congruence as gc
from . import loopless_congruence as lc
from . import topo_congruence as tc
from .errors import (
    BadCatalogId,
    BoundExceeded,
    CheckDefect,
    ConradError,
    EmptyList,
    InvalidCongruence,
    KindMismatch,
    KindUnsupported,
    LemmaConditionFailed,
    NoQualifyingCongruence,
)
from .structures import (
    CONGRUENCE_SCAN_BOUND,
    FiniteGraph,
    FiniteSpace,
    I2,
    LOOPS,
    NOLOOPS,
    Partition,
    S2,
    T0,
    T_SPACE,
    _carried_least,
    _clique_masks,
    _least_plan,
    _loop_slots,
    _mask_of,
    _nonempty_subsets,
    _slot,
    _slot_count,
    _slot_plan,
    _stars,
    _union_of,
    automorphisms,
    bounded_partitions,
    carries_edges,
    carries_opens,
    complete_graph,
    enumerate_graphs,
    enumerate_spaces,
    homeo_spaces,
    induced,
    iso_graphs,
    preorder_space,
    random_graph,
    relabel_graph,
    relabel_space,
    require_surjective,
    subspace,
)

KIND_TOPO = "topo"
KIND_GRAPH = "graph"
KIND_LOOPLESS = "loopless"
KINDS = (KIND_TOPO, KIND_GRAPH, KIND_LOOPLESS)


def kind_of(structure) -> str:
    if isinstance(structure, FiniteSpace):
        return KIND_TOPO
    if isinstance(structure, FiniteGraph):
        return KIND_GRAPH if structure.policy == LOOPS else KIND_LOOPLESS
    raise KindMismatch(f"unsupported structure {structure!r}")


# ---------------------------------------------------------------------------
# The two catalogs of ideal-hereditary radicals
# ---------------------------------------------------------------------------

TOPO_CATALOG_IDS = ("a", "b", "c", "d", "e")
GRAPH_CATALOG_IDS = ("a", "b", "c", "d", "e", "f", "g", "h")


def indistinguishability_partition(x: FiniteSpace) -> Partition:
    """Points sharing every open set, hence their least open set, fall into one block."""
    return Partition(x.min_opens)


def catalog_topological(x: FiniteSpace, cid: str) -> tc.TopoCongruence:
    """The five ideal-hereditary radicals on spaces.

    On finite carriers the last entry coincides with (d): a separation-axiom
    case split cannot commute with subspaces at finite scale, so the
    indiscrete congruence topology is the only non-strong assignment that
    stays hereditary; (e) is kept as its own id for reporting.
    """
    if kind_of(x) != KIND_TOPO:
        raise KindMismatch(f"the topo catalog got a {kind_of(x)} structure")
    if cid == "a":
        return tc.universal_tc(x)
    if cid == "b":
        return tc.TopoCongruence(indistinguishability_partition(x), x.min_opens)
    if cid == "c":
        return tc.identity_tc(x)
    if cid in ("d", "e"):
        return tc.TopoCongruence(Partition.identity(x.n), tc._indiscrete(x.n))
    raise BadCatalogId(f"topological catalog has entries a-e, not {cid!r}")


def _loop_block_partition(g: FiniteGraph) -> Partition:
    """The looped vertices in one block, every other vertex alone."""
    loops = g.loop_vertices
    return Partition([-1 if v in loops else v for v in range(g.n)])


def _loop_square(g: FiniteGraph) -> int:
    """The mask of the pairs of looped vertices.  Looped vertex a's pairs
    (a, b) with b >= a fill its row of slots from (a, a) on, in order of b,
    so those with b looped are the looped vertices' mask shifted there."""
    loops = g.loop_vertices
    looped = sum(1 << a for a in loops)
    return sum((looped >> a) << _slot(g.n, a, a) for a in loops)


def _loop_star(g: FiniteGraph) -> int:
    """The mask of the pairs holding a looped vertex: the union of the looped vertices' stars."""
    return _union_of(_stars(g.n), g.loops)


def catalog_graph(g: FiniteGraph, cid: str) -> gc.GraphCongruence:
    if kind_of(g) != KIND_GRAPH:
        raise KindMismatch(f"the graph catalog got a {kind_of(g)} structure")
    if g.n * (g.n + 1) // 2 > CONGRUENCE_SCAN_BOUND:  # the admissible pairs, before any is built
        raise BoundExceeded(f"graph catalog capped at {CONGRUENCE_SCAN_BOUND} vertex pairs")
    ident = Partition.identity(g.n)
    if cid == "a":
        return gc.strongify_gc(g, Partition.universal(g.n))
    if cid == "b":
        return gc.universal_gc(g)
    if cid == "c":
        return gc.strongify_gc(g, _loop_block_partition(g))
    if cid == "d":
        extra = _loop_slots(g.n, _slot_count(g.n))
    elif cid == "e":
        return gc.GraphCongruence(ident, g.all_pairs)
    elif cid == "f":
        return gc.identity_gc(g)
    elif cid == "g":
        extra = _loop_square(g)
    elif cid == "h":
        extra = _loop_star(g)
    else:
        raise BadCatalogId(f"graph catalog has entries a-h, not {cid!r}")
    return gc.GraphCongruence(ident, g.mask | extra)


@dataclass(frozen=True)
class _KindOps:
    enum_structures: Callable
    enum_congruences: Callable
    iter_congruences: Callable
    validate: Callable
    # the quotient structure alone: its projection is the congruence's part.class_id
    quotient: Callable
    # a map's carry plan; a least-open vector or edge mask carried along a
    # plan; a congruence's vector or mask and a structure's own, which a carry
    # is compared with; a map's kernel's, the codomain's pulled back unchecked,
    # and the kernel itself, checked
    plan: Callable
    carry: Callable
    vector: Callable
    representation: Callable
    pullback: Callable
    kernel: Callable
    quotient_cong: Callable
    meet: Callable
    join: Callable | None
    identity: Callable
    strongify: Callable
    restrict: Callable
    substructure: Callable
    iso: Callable
    carries: Callable
    from_relation: Callable
    le: Callable
    image_le: Callable
    catalog: Callable | None
    catalog_ids: tuple[str, ...]
    trivial: FiniteSpace | FiniteGraph
    random_structure: Callable
    random_congruence: Callable
    relabel: Callable


def _relation(x) -> frozenset[tuple[int, int]]:
    """The relation a morphism must carry into its codomain's: (p, q) when q
    lies in p's successor mask of x's `search_view`, so a space's
    specialization preorder and a graph's edges read both ways."""
    return frozenset((p, q) for p, u in enumerate(x.search_view[0]) for q in range(x.n) if u >> q & 1)


def _relation_graph(policy: str, n: int, pairs) -> FiniteGraph | None:
    """The graph whose edges are the pairs (either order), or None for a
    loopless one that would hold a loop."""
    if policy == NOLOOPS and any(a == b for a, b in pairs):
        return None
    return FiniteGraph(n, policy, _mask_of(n, pairs))


KIND_OPS: dict[str, _KindOps] = {
    KIND_TOPO: _KindOps(
        enum_structures=lambda n: enumerate_spaces(n),
        enum_congruences=tc.enumerate_congruences_tc,
        iter_congruences=tc.iter_congruences_tc,
        validate=tc.validate_tc,
        quotient=tc.quotient_tc,
        plan=_least_plan,
        carry=_carried_least,
        vector=operator.attrgetter("least"),
        representation=operator.attrgetter("min_opens"),
        pullback=lambda y, f: tc._pullback(y.min_opens, f),
        kernel=tc.kernel_tc,
        quotient_cong=tc.quotient_cong_tc,
        meet=tc.meet_tc,
        join=tc.join_tc,
        identity=tc.identity_tc,
        strongify=tc.strongify_tc,
        restrict=tc.restrict_tc,
        substructure=subspace,
        iso=homeo_spaces,
        carries=carries_opens,
        from_relation=preorder_space,
        le=tc.le_tc,
        image_le=tc.image_le_tc,
        catalog=catalog_topological,
        catalog_ids=TOPO_CATALOG_IDS,
        trivial=T_SPACE,
        random_structure=tc.random_space,
        random_congruence=tc.random_tcong,
        relabel=relabel_space,
    ),
    KIND_GRAPH: _KindOps(
        enum_structures=lambda n: enumerate_graphs(n, LOOPS),
        enum_congruences=gc.enumerate_congruences_gc,
        iter_congruences=gc.iter_congruences_gc,
        validate=gc.validate_gc,
        quotient=gc.quotient_gc,
        plan=lambda image, m: _slot_plan(len(image), tuple(image), m),
        carry=_union_of,
        vector=operator.attrgetter("cmask"),
        representation=operator.attrgetter("mask"),
        pullback=gc._pullback,
        kernel=gc.kernel_gc,
        quotient_cong=gc.quotient_cong_gc,
        meet=gc.meet_gc,
        join=gc.join_gc,
        identity=gc.identity_gc,
        strongify=gc.strongify_gc,
        restrict=gc.restrict_gc,
        substructure=induced,
        iso=iso_graphs,
        carries=carries_edges,
        from_relation=functools.partial(_relation_graph, LOOPS),
        le=gc.le_gc,
        image_le=gc.image_le_gc,
        catalog=catalog_graph,
        catalog_ids=GRAPH_CATALOG_IDS,
        trivial=T0,
        random_structure=lambda rng, n: random_graph(rng, n, LOOPS),
        random_congruence=gc.random_gcong,
        relabel=relabel_graph,
    ),
}
# the loop-free graphs share the graph entry except where independence counts
KIND_OPS[KIND_LOOPLESS] = dataclasses.replace(
    KIND_OPS[KIND_GRAPH],
    enum_structures=lambda n: enumerate_graphs(n, NOLOOPS),
    enum_congruences=lc.enumerate_congruences_lc,
    iter_congruences=lc.iter_congruences_lc,
    validate=lc.validate_lc,
    quotient=lc.quotient_lc,
    join=None,
    strongify=lc.strongify_lc,
    # a loop comes from merging adjacent vertices or adding a pair (v, v)
    from_relation=functools.partial(_relation_graph, NOLOOPS),
    catalog=None,
    catalog_ids=(),
    trivial=complete_graph(1),
    random_structure=lambda rng, n: random_graph(rng, n, NOLOOPS),
    random_congruence=lc.random_lcong,
)


def strong_congruences(x) -> list:
    """All strong congruences of a structure, from partitions admitting one."""
    strongify = KIND_OPS[kind_of(x)].strongify
    strong = (strongify(x, p) for p in bounded_partitions(x.n))
    return [theta for theta in strong if theta is not None]


def is_strong(x, theta) -> bool:
    """Whether theta is the strong congruence of its own partition."""
    return KIND_OPS[kind_of(x)].strongify(x, theta.part) == theta


# ---------------------------------------------------------------------------
# Classes, radical assignments, universes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassPredicate:
    """Abstract class of structures; membership must be iso-invariant."""

    name: str
    kind: str
    member: Callable

    def __call__(self, structure) -> bool:
        return bool(self.member(structure))


def class_predicate(name: str, kind: str, member: Callable) -> ClassPredicate:
    if kind not in KIND_OPS:
        raise KindMismatch(f"unknown kind {kind!r}")
    pred = ClassPredicate(name, kind, member)
    if not pred(KIND_OPS[kind].trivial):
        raise ConradError(f"class {name!r} must contain the trivial structure")
    return pred


def _iso_index(kind: str, pool) -> Callable:
    """The pool member a structure is isomorphic to, with the least isomorphism
    onto it, or None.  The pool is bucketed by `iso_key`, so a structure is
    tested with `iso` only against the members sharing its key, and each
    structure's answer is memoised.  A pool member of another kind is refused."""
    iso = KIND_OPS[kind].iso
    buckets: dict[tuple, list] = {}
    for m in pool:
        if kind_of(m) != kind:
            raise KindMismatch(f"a {kind} pool got a {kind_of(m)} structure")
        buckets.setdefault(m.iso_key(), []).append(m)
    answers: dict = {}

    def find(structure):
        if structure in answers:
            return answers[structure]
        answer = None
        for m in buckets.get(structure.iso_key(), ()):
            perm = iso(structure, m)
            if perm is not None:
                answer = (m, perm)
                break
        answers[structure] = answer
        return answer

    return find


def class_from_members(kind: str, name: str, members) -> ClassPredicate:
    """Iso-closure of an explicit finite list plus the trivial structures."""
    find = _iso_index(kind, members)
    return ClassPredicate(
        name, kind, lambda structure: structure.n == 1 or find(structure) is not None
    )


@dataclass(frozen=True)
class RadicalAssignment:
    """Rule assigning a congruence to every structure of the kind it is applied to.

    Each structure's value is computed once per assignment and memoised.
    """

    name: str
    rule: Callable
    _values: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, structure):
        value = self._values.get(structure)
        if value is None:
            value = self._values[structure] = self.rule(structure)
        return value


@dataclass(frozen=True)
class Universe:
    """The members of a kind up to a size; surjections are searched once per
    pair, U and S lists once per class, and elementary maps are built once."""

    kind: str
    max_n: int
    members: tuple
    _maps: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _avoiding: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __iter__(self):
        return iter(self.members)

    def surjections(self, x, y) -> list[tuple]:
        maps = self._maps.get((x, y))
        if maps is None:
            maps = self._maps[x, y] = surjective_morphisms(x, y)
        return maps

    @functools.cached_property
    def elementary_maps(self) -> tuple | None:
        return _elementary_maps(self.kind, self.members)


def _elementary_maps(kind: str, members) -> tuple | None:
    """Surjective morphisms between the members whose composites are all of
    them, as (x, y, f); None when the members are not closed under the steps.

    Each member x takes every elementary step, a map onto the structure
    `from_relation` builds: merge two points, carrying x's `_relation` to the
    merged carrier, or add one pair to it (the kind closes the relation, and
    refuses one it cannot carry, such as a loopless loop).  Each step is
    composed with the least isomorphism onto the member it lands on.  Every
    automorphism of x but the identity is added, since a rule need not be
    isomorphism-invariant.  A surjection that is not an isomorphism factors
    through a step (merge two points it identifies, or add a pair it carries
    into the target's relation), so by induction every surjection is a
    composite of these maps; that needs the members pairwise non-isomorphic.
    """
    ops = KIND_OPS[kind]
    find = _iso_index(kind, members)
    maps: dict[tuple, None] = {}
    for x in members:
        identity = tuple(range(x.n))
        if find(x) != (x, identity):  # an earlier member is isomorphic to x
            return None
        rel = _relation(x)
        steps = []
        for a, b in itertools.combinations(range(x.n), 2):
            merge = tuple(a if v == b else v - (v > b) for v in range(x.n))
            image = {(merge[p], merge[q]) for p, q in rel}
            steps.append((merge, ops.from_relation(x.n - 1, image)))
        for pair in itertools.product(range(x.n), repeat=2):
            if pair not in rel:
                steps.append((identity, ops.from_relation(x.n, rel | {pair})))
        for step, z in steps:
            if z is None:
                continue
            found = find(z)
            if found is None:
                return None
            m, perm = found
            maps[x, m, tuple(perm[v] for v in step)] = None
        for perm in automorphisms(x, ops.carries)[1:]:
            maps[x, x, perm] = None
    return tuple(maps)


def build_universe(kind: str, max_n: int) -> Universe:
    ops = KIND_OPS[kind]
    members = []
    for n in range(1, max_n + 1):
        members.extend(ops.enum_structures(n))
    return Universe(kind, max_n, tuple(members))


def universe_from_members(members) -> Universe:
    """The universe of a non-empty pool of one kind's structures."""
    members = tuple(members)
    if not members:
        raise EmptyList("a universe needs at least one member")
    kinds = sorted({kind_of(m) for m in members})
    if len(kinds) > 1:
        raise KindMismatch(f"a universe holds one kind, got {' and '.join(kinds)} structures")
    return Universe(kinds[0], max(m.n for m in members), members)


# ---------------------------------------------------------------------------
# The Hoehnke radical of a class
# ---------------------------------------------------------------------------

def _running_meet(ops: _KindOps, structure, keep: Callable):
    """The meet of the congruences keep accepts (None when it accepts none),
    met as they are built.  The scan stops once the meet is the identity, the
    least congruence; the enumeration starts first, so that its bound refuses
    a huge carrier before the identity is built."""
    congruences = ops.iter_congruences(structure)
    identity = ops.identity(structure)
    met = None
    for theta in congruences:
        if keep(theta):
            met = theta if met is None else ops.meet(structure, [met, theta])
            if met == identity:
                break
    return met


def _class_meet(ops: _KindOps, structure, cls: ClassPredicate):
    """The meet of the congruences whose quotient lies in the class (None when none does)."""
    return _running_meet(ops, structure, lambda theta: cls(ops.quotient(structure, theta)))


def hoehnke_radical(structure, cls: ClassPredicate):
    """Meet of all congruences whose quotient lies in the class."""
    kind = kind_of(structure)
    if kind != cls.kind:
        raise KindMismatch(f"{cls.name!r} is a {cls.kind} class, got a {kind} structure")
    ops = KIND_OPS[kind]
    met = _class_meet(ops, structure, cls)
    if met is None:
        raise NoQualifyingCongruence(
            f"no congruence quotient of the structure lies in {cls.name!r}"
        )
    return met


def radical_from_class(cls: ClassPredicate) -> RadicalAssignment:
    return RadicalAssignment(
        name=f"radical-of-{cls.name}",
        rule=lambda structure: hoehnke_radical(structure, cls),
    )


def catalog_radical(kind: str, cid: str) -> RadicalAssignment:
    """Entry cid of the kind's catalog; the catalog checks the structure's
    kind and cid when applied."""
    if kind not in KIND_OPS:
        raise KindMismatch(f"unknown kind {kind!r}")
    catalog = KIND_OPS[kind].catalog
    if catalog is None:
        raise KindUnsupported(f"the {kind} kind has no catalog")
    return RadicalAssignment(f"{kind}-catalog-{cid}", lambda structure: catalog(structure, cid))


def in_radical_class(sigma: RadicalAssignment, structure) -> bool:
    """Radical-class membership: quotient by the radical is trivial.

    For spaces this is equivalent to the radical being the universal
    congruence, the only one-block congruence on a space; for graphs the
    two differ on edgeless graphs, so the quotient form is the one used.
    """
    return sigma(structure).part.num_blocks == 1


def semisimple_members(sigma: RadicalAssignment, uni: Universe) -> list:
    ops = KIND_OPS[uni.kind]
    return [x for x in uni.members if sigma(x) == ops.identity(x)]


def radical_members(sigma: RadicalAssignment, uni: Universe) -> list:
    return [x for x in uni.members if in_radical_class(sigma, x)]


# ---------------------------------------------------------------------------
# H1 / H2 and the Kurosh-Amitsur triple
# ---------------------------------------------------------------------------

def _morphism_kind(x, y) -> str:
    """The kind of x, which y must share: no morphism joins two kinds."""
    kind = kind_of(x)
    if kind_of(y) != kind:
        raise KindMismatch(f"a {kind} structure has no morphism onto a {kind_of(y)} one")
    return kind


def surjective_morphisms(x, y) -> list[tuple]:
    """All surjective continuous maps / homomorphisms x -> y, in lexicographic order.

    x and y must be of one kind.  A map is a morphism iff it carries the
    kind's relation on x into the one on y.  The search assigns vertices 0,
    1, ... in turn.  A new vertex's targets are one bitmask: y's loop vertices
    when it is related to itself, cut by the successors of the image of each
    earlier vertex it follows and the predecessors of each it precedes.  It
    tries them in ascending order, and cuts a branch once too few vertices
    remain to hit every target not yet hit.  Each structure's masks and
    earlier vertices are read from its `search_view`, built once.
    """
    _morphism_kind(x, y)
    n, m = x.n, y.n
    if m > n:
        return []
    succ, pred, loops, _ = y.search_view
    rows = x.search_view[3]
    full = (1 << m) - 1
    f = [0] * n
    hits = [0] * m
    out = []

    def extend(i: int, missing: int) -> None:
        if n - i < missing:
            return
        if i == n:
            out.append(tuple(f))
            return
        loop, ups, downs = rows[i]
        allowed = loops if loop else full
        for a in ups:
            allowed &= succ[f[a]]
        for b in downs:
            allowed &= pred[f[b]]
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            f[i] = v = low.bit_length() - 1
            hits[v] += 1
            extend(i + 1, missing - (hits[v] == 1))
            hits[v] -= 1

    extend(0, m)
    return out


def _checked_kernel(x, y, f) -> tuple:
    """The kind's ops and the kernel of a caller's map, checked to be a surjective morphism."""
    ops = KIND_OPS[_morphism_kind(x, y)]
    require_surjective(f, y.n)
    return ops, ops.kernel(x, y, f)


def verify_H1(sigma: RadicalAssignment, x, y, f) -> bool:
    """H1 for one map between structures of one kind, checked to be a surjective
    morphism first: the kind's kernel refuses a map that is not a morphism."""
    ops, _ = _checked_kernel(x, y, f)
    return ops.image_le(x, y, f, sigma(x), sigma(y))


def verify_H2(sigma: RadicalAssignment, x) -> bool:
    ops = KIND_OPS[kind_of(x)]
    quotient = ops.quotient(x, sigma(x))
    return sigma(quotient) == ops.identity(quotient)


def h1_failures(sigma: RadicalAssignment, uni: Universe) -> list:
    """The (x, y, f) failing H1; the universe's maps are not checked again."""
    image_le = KIND_OPS[uni.kind].image_le
    failures = []
    for x in uni.members:
        # every x maps onto itself, so sigma first reads the members in the
        # same order as when it was read once per map
        sx = sigma(x)
        for y in uni.members:
            maps = uni.surjections(x, y)
            if maps:
                sy = sigma(y)
                failures.extend(
                    (x, y, f) for f in maps if not image_le(x, y, f, sx, sy)
                )
    return failures


def h1_holds(sigma: RadicalAssignment, uni: Universe) -> bool:
    """Whether H1 holds along every surjective morphism between members.

    H1 along f says sigma(x) lies below the pullback of sigma(y) along f, and
    pullback is functorial, so H1 along two maps gives it along their
    composite: the universe's elementary maps decide it.  A universe not
    closed under them takes the full scan.  Every member's value is read
    first, in order, so a rule that raises on some member raises here as in
    `h1_failures`.
    """
    for x in uni.members:
        sigma(x)
    maps = uni.elementary_maps
    if maps is None:
        return not h1_failures(sigma, uni)
    image_le = KIND_OPS[uni.kind].image_le
    return all(image_le(x, y, f, sigma(x), sigma(y)) for x, y, f in maps)


def h2_failures(sigma: RadicalAssignment, uni: Universe) -> list:
    return [x for x in uni.members if not verify_H2(sigma, x)]


def is_complete(sigma: RadicalAssignment, uni: Universe):
    """Strong congruences with radical-class blocks must sit below the radical."""
    ops = KIND_OPS[uni.kind]
    in_class = functools.partial(in_radical_class, sigma)
    for x in uni.members:
        value = sigma(x)
        for theta in strong_congruences(x):
            if _blocks_satisfy(ops, x, theta, in_class) and not ops.le(theta, value):
                return False, (x, theta)
    return True, None


def is_idempotent(sigma: RadicalAssignment, uni: Universe):
    """Every block of the radical congruence lies in the radical class."""
    ops = KIND_OPS[uni.kind]
    for x in uni.members:
        for block in sigma(x).part.blocks:
            if not in_radical_class(sigma, ops.substructure(x, block)):
                return False, (x, block)
    return True, None


def is_strong_everywhere(sigma: RadicalAssignment, uni: Universe):
    """Every value of the radical is a strong congruence."""
    for x in uni.members:
        value = sigma(x)
        if not is_strong(x, value):
            return False, (x, value)
    return True, None


def ka_triple(sigma: RadicalAssignment, uni: Universe) -> dict:
    complete, cw = is_complete(sigma, uni)
    idempotent, iw = is_idempotent(sigma, uni)
    strong, sw = is_strong_everywhere(sigma, uni)
    return {
        "complete": (complete, cw),
        "idempotent": (idempotent, iw),
        "strong": (strong, sw),
        "ka": complete and idempotent and strong,
    }


# ---------------------------------------------------------------------------
# Hereditariness
# ---------------------------------------------------------------------------

def ideal_hereditary(sigma: RadicalAssignment, uni: Universe):
    """The radical of every part is the restriction of the radical of the
    whole: `le` both ways, which on canonical values is equality."""
    ops = KIND_OPS[uni.kind]
    for x in uni.members:
        value = sigma(x)
        for sub in _nonempty_subsets(x.n):
            if ops.restrict(x, value, sub) != sigma(ops.substructure(x, sub)):
                return False, (x, sub)
    return True, None


def _class_hereditary(kind: str, members_in_class) -> tuple[bool, tuple | None]:
    # no trivial shortcut: a semisimple class can lack a one-point structure
    substructure = KIND_OPS[kind].substructure
    find = _iso_index(kind, members_in_class)
    for x in members_in_class:
        for sub in _nonempty_subsets(x.n):
            if find(substructure(x, sub)) is None:
                return False, (x, sub)
    return True, None


def radical_class_hereditary(sigma: RadicalAssignment, uni: Universe):
    return _class_hereditary(uni.kind, radical_members(sigma, uni))


def semisimple_class_hereditary(sigma: RadicalAssignment, uni: Universe):
    return _class_hereditary(uni.kind, semisimple_members(sigma, uni))


def hereditary_torsion_theory(sigma: RadicalAssignment, uni: Universe):
    """Both associated classes hereditary on the universe.

    Strictly weaker than the congruence-level ideal_hereditary: restricting
    a strong congruence can pick up pairs saturated by edges outside the
    subset, so rules with merged blocks may fail the restriction comparison
    while both of their classes remain hereditary.
    """
    ok_r, wr = radical_class_hereditary(sigma, uni)
    if not ok_r:
        return False, wr
    return semisimple_class_hereditary(sigma, uni)


# ---------------------------------------------------------------------------
# Upper radical / semisimple operators and fixed points
# ---------------------------------------------------------------------------

def _nontrivial_images(x):
    ops = KIND_OPS[kind_of(x)]
    for theta in ops.iter_congruences(x):
        if theta.part.num_blocks >= 2:
            yield ops.quotient(x, theta)


def _nontrivial_substructures(x):
    ops = KIND_OPS[kind_of(x)]
    for sub in _nonempty_subsets(x.n):
        if len(sub) >= 2:
            yield ops.substructure(x, sub)


def _members_avoiding(cls: ClassPredicate, uni: Universe, candidates: Callable) -> list:
    """Members none of whose candidates(x) lies in the class, listed once
    per (class, candidates) on each universe."""
    if cls.kind != uni.kind:
        raise KindMismatch(f"{cls.name!r} is a {cls.kind} class, universe is {uni.kind}")
    found = uni._avoiding.get((cls, candidates))
    if found is None:
        found = uni._avoiding[cls, candidates] = tuple(
            x for x in uni.members if not any(cls(y) for y in candidates(x))
        )
    return list(found)


def U_operator(cls: ClassPredicate, uni: Universe) -> list:
    """Members with no non-trivial image inside the class."""
    return _members_avoiding(cls, uni, _nontrivial_images)


def S_operator(cls: ClassPredicate, uni: Universe) -> list:
    """Members with no non-trivial substructure inside the class."""
    return _members_avoiding(cls, uni, _nontrivial_substructures)


def is_connectedness(cls: ClassPredicate, uni: Universe) -> bool:
    """Fixed point USC = C, cross-checked by the C-congruence characterization.

    The congruence route exists for spaces and loop-admitting graphs only;
    loopless blocks are independent sets, so that characterization has no
    loopless counterpart and the fixed point stands alone there.
    """
    sc = class_from_members(uni.kind, f"S-{cls.name}", S_operator(cls, uni))
    in_class = {x for x in uni.members if cls(x)}
    usc = U_operator(sc, uni)
    fixed_verdict = set(usc) == in_class
    if uni.kind == KIND_LOOPLESS:
        return fixed_verdict

    def every_image_has_c_congruence(x) -> bool:
        ops = KIND_OPS[uni.kind]
        for y in _nontrivial_images(x):
            if not any(
                theta.part.num_blocks < y.n and _blocks_satisfy(ops, y, theta, cls)
                for theta in strong_congruences(y)
            ):
                return False
        return True

    cong_verdict = {x for x in uni.members if every_image_has_c_congruence(x)} == in_class
    if fixed_verdict != cong_verdict:
        raise CheckDefect(
            f"fixed-point and congruence characterizations disagree for {cls.name!r}"
        )
    return fixed_verdict


def is_disconnectedness(cls: ClassPredicate, uni: Universe) -> bool:
    """Fixed point SUD = D."""
    ud = class_from_members(uni.kind, f"U-{cls.name}", U_operator(cls, uni))
    in_class = {x for x in uni.members if cls(x)}
    return set(S_operator(ud, uni)) == in_class


# ---------------------------------------------------------------------------
# C-congruences and the radical as a sum
# ---------------------------------------------------------------------------

def c_congruence_p(cls: ClassPredicate, structure, theta) -> bool:
    """Strong congruence whose blocks all induce members of the class."""
    kind = kind_of(structure)
    if kind != cls.kind:
        raise KindMismatch(f"{cls.name!r} does not match the structure kind")
    return is_strong(structure, theta) and _blocks_satisfy(
        KIND_OPS[kind], structure, theta, cls
    )


def _blocks_satisfy(ops: _KindOps, x, theta, member: Callable) -> bool:
    """Every block of theta induces a substructure satisfying member."""
    return all(member(ops.substructure(x, block)) for block in theta.part.blocks)


def rho_sum(cls: ClassPredicate, structure):
    """Join of all C-congruences on the structure."""
    kind = kind_of(structure)
    ops = KIND_OPS[kind]
    if ops.join is None:
        raise KindUnsupported("loopless congruences admit no join")
    if kind != cls.kind:
        raise KindMismatch(f"{cls.name!r} does not match the structure kind")
    parts = [
        theta for theta in strong_congruences(structure)
        if _blocks_satisfy(ops, structure, theta, cls)
    ]
    if not parts:
        raise InvalidCongruence(f"no C-congruence on the structure for {cls.name!r}")
    return ops.join(structure, parts)


# ---------------------------------------------------------------------------
# Subdirect products, complementary pairs, loopless degeneracy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubdirectResult:
    ok: bool
    factors: tuple
    embedding: tuple[tuple[int, ...], ...]


def check_subdirect(structure, thetas: list) -> SubdirectResult:
    """Subdirect decomposition test: the congruences must meet to the identity."""
    if not thetas:
        raise EmptyList("subdirect check needs at least one congruence")
    ops = KIND_OPS[kind_of(structure)]
    for theta in thetas:
        ops.validate(structure, theta)
    factors = tuple(ops.quotient(structure, theta) for theta in thetas)
    ok = ops.meet(structure, thetas) == ops.identity(structure)
    embedding = tuple(
        tuple(theta.part.class_id[v] for theta in thetas) for v in range(structure.n)
    )
    return SubdirectResult(ok, factors, embedding)


def is_subdirectly_irreducible(structure) -> bool:
    """No family of proper congruences can meet to the identity."""
    ops = KIND_OPS[kind_of(structure)]
    iota = ops.identity(structure)
    return _running_meet(ops, structure, lambda theta: theta != iota) != iota


def subdirect_closure(cls: ClassPredicate, uni: Universe) -> list:
    """Members decomposable with all factors in the class."""
    if cls.kind != uni.kind:
        raise KindMismatch(f"{cls.name!r} does not match the universe kind")
    ops = KIND_OPS[uni.kind]
    return [x for x in uni.members if _class_meet(ops, x, cls) == ops.identity(x)]


def complementary_pair_check(c_cls: ClassPredicate, d_cls: ClassPredicate, uni: Universe) -> bool:
    """Union covers the universe, intersection is trivial, D = SC and C = UD."""
    if c_cls.kind != d_cls.kind or c_cls.kind != uni.kind:
        raise KindMismatch("complementary pair needs matching kinds")
    c_members = {x for x in uni.members if c_cls(x)}
    d_members = {x for x in uni.members if d_cls(x)}
    return (
        c_members & d_members == {x for x in uni.members if x.n == 1}
        and c_members | d_members == set(uni.members)
        and set(S_operator(c_cls, uni)) == d_members
        and set(U_operator(d_cls, uni)) == c_members
    )


def loopless_degeneracy_check(uni: Universe, cls: ClassPredicate) -> bool:
    """Every loopless radical collapses to the identity congruence."""
    if uni.kind != KIND_LOOPLESS or cls.kind != KIND_LOOPLESS:
        raise KindMismatch("degeneracy check lives in the loopless kind")
    for m in range(1, uni.max_n + 1):
        if not cls(complete_graph(m)):
            raise LemmaConditionFailed(
                f"complete graph on {m} vertices is outside {cls.name!r}"
            )
    # with every complete graph in the class, each member's identity partition
    # with all pairs qualifies, so no member lacks a qualifying congruence
    ops = KIND_OPS[KIND_LOOPLESS]
    return all(_class_meet(ops, x, cls) == ops.identity(x) for x in uni.members)


# ---------------------------------------------------------------------------
# Built-in classes
# ---------------------------------------------------------------------------

def _has_clique(g: FiniteGraph, k: int) -> bool:
    mask = g.mask
    return any(not clique & ~mask for clique in _clique_masks(g.n, k))


def _builtin_specs():
    yield KIND_TOPO, "all", lambda x: True
    yield KIND_TOPO, "trivial", lambda x: x.n == 1
    yield KIND_TOPO, "indiscrete", lambda x: x.is_indiscrete()
    yield KIND_TOPO, "t0", lambda x: x.is_t0()
    yield KIND_TOPO, "t1", lambda x: x.is_t1()
    yield KIND_TOPO, "t1-or-indiscrete", lambda x: x.is_t1() or x.is_indiscrete()
    yield KIND_TOPO, "s2-i2", lambda x: x.n == 1 or homeo_spaces(x, S2) is not None or homeo_spaces(x, I2) is not None

    # the graph and loopless classes read loop-slot, star, row and clique masks
    yield KIND_GRAPH, "all", lambda g: True
    yield KIND_GRAPH, "trivial", lambda g: g.n == 1
    yield KIND_GRAPH, "trivial-looped", lambda g: g.n == 1 and g.loops.bit_count() == 1
    yield KIND_GRAPH, "at-most-one-loop", lambda g: g.loops.bit_count() <= 1
    yield KIND_GRAPH, "all-looped", lambda g: g.loops.bit_count() == g.n
    yield KIND_GRAPH, "trivial-or-all-looped", lambda g: g.n == 1 or g.loops.bit_count() == g.n
    yield KIND_GRAPH, "complete-looped", lambda g: g.is_complete()
    yield KIND_GRAPH, "loop-clique", lambda g: not _loop_square(g) & ~g.mask
    yield KIND_GRAPH, "loop-dominated", lambda g: not _loop_star(g) & ~g.mask

    yield KIND_LOOPLESS, "all", lambda g: True
    yield KIND_LOOPLESS, "trivial", lambda g: g.n == 1
    yield KIND_LOOPLESS, "complete", lambda g: g.is_complete()
    yield KIND_LOOPLESS, "edgeless", lambda g: not g.mask
    for k in (1, 2, 3):
        yield KIND_LOOPLESS, f"contains-k{k}", (
            lambda g, k=k: g.n == 1 or _has_clique(g, k)
        )
        yield KIND_LOOPLESS, f"k{k}-free", (
            lambda g, k=k: g.n == 1 if k == 1 else not _has_clique(g, k)
        )


BUILTIN_CLASSES: dict[tuple[str, str], ClassPredicate] = {}
for _kind, _name, _member in _builtin_specs():
    BUILTIN_CLASSES[(_kind, _name)] = ClassPredicate(_name, _kind, _member)


def builtin_class(kind: str, name: str) -> ClassPredicate:
    try:
        return BUILTIN_CLASSES[(kind, name)]
    except KeyError:
        known = sorted(n for k, n in BUILTIN_CLASSES if k == kind)
        raise KindMismatch(
            f"no built-in {kind} class {name!r}; known: {', '.join(known)}"
        ) from None
