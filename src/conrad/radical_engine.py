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

import itertools
from dataclasses import dataclass
from typing import Callable

from . import graph_congruence as gc
from . import loopless_congruence as lc
from . import topo_congruence as tc
from .errors import (
    BadCatalogId,
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
    FiniteGraph,
    FiniteSpace,
    I2,
    LOOPS,
    NOLOOPS,
    Partition,
    S2,
    T0,
    T_SPACE,
    _norm_pair,
    all_partitions,
    complete_graph,
    enumerate_graphs,
    enumerate_spaces,
    homeo_spaces,
    induced,
    is_surjective,
    iso_graphs,
    random_graph,
    relabel_graph,
    relabel_space,
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


@dataclass(frozen=True)
class _KindOps:
    enum_structures: Callable
    enum_congruences: Callable
    validate: Callable
    quotient: Callable
    kernel: Callable
    quotient_cong: Callable
    meet: Callable
    join: Callable | None
    identity: Callable
    strong_all: Callable
    is_strong: Callable
    restrict: Callable
    substructure: Callable
    iso: Callable
    le: Callable
    is_morphism: Callable
    image_le: Callable
    trivial: FiniteSpace | FiniteGraph
    random_structure: Callable
    random_congruence: Callable
    relabel: Callable


def _strong_all(strongify: Callable) -> Callable:
    """All strong congruences of a structure, from partitions admitting one."""

    def strong_all(x):
        strong = (strongify(x, p) for p in all_partitions(x.n))
        return [theta for theta in strong if theta is not None]

    return strong_all


def _image_le_tc(x, y, f, theta, target):
    return tc.le_tc(tc.image_tc(x, y, f, theta), target)


def _image_le_gc(g, h, f, theta, target):
    return gc.le_gc(gc.image_gc(g, h, f, theta), target)


def _image_le_lc(g, h, f, theta, target):
    return lc.pointwise_le_lc(lc.pointwise_image_lc(f, theta), target)


KIND_OPS: dict[str, _KindOps] = {
    KIND_TOPO: _KindOps(
        enum_structures=lambda n: enumerate_spaces(n),
        enum_congruences=tc.enumerate_congruences_tc,
        validate=tc.validate_tc,
        quotient=tc.quotient_tc,
        kernel=tc.kernel_tc,
        quotient_cong=tc.quotient_cong_tc,
        meet=tc.meet_tc,
        join=tc.join_tc,
        identity=tc.identity_tc,
        strong_all=_strong_all(tc.strongify_tc),
        is_strong=tc.is_strong_tc,
        restrict=tc.restrict_tc,
        substructure=subspace,
        iso=homeo_spaces,
        le=tc.le_tc,
        is_morphism=tc.is_continuous,
        image_le=_image_le_tc,
        trivial=T_SPACE,
        random_structure=tc.random_space,
        random_congruence=tc.random_tcong,
        relabel=relabel_space,
    ),
    KIND_GRAPH: _KindOps(
        enum_structures=lambda n: enumerate_graphs(n, LOOPS),
        enum_congruences=gc.enumerate_congruences_gc,
        validate=gc.validate_gc,
        quotient=gc.quotient_gc,
        kernel=gc.kernel_gc,
        quotient_cong=gc.quotient_cong_gc,
        meet=gc.meet_gc,
        join=gc.join_gc,
        identity=gc.identity_gc,
        strong_all=_strong_all(gc.strongify_gc),
        is_strong=gc.is_strong_gc,
        restrict=gc.restrict_gc,
        substructure=induced,
        iso=iso_graphs,
        le=gc.le_gc,
        is_morphism=gc.is_homomorphism,
        image_le=_image_le_gc,
        trivial=T0,
        random_structure=lambda rng, n: random_graph(rng, n, LOOPS),
        random_congruence=gc.random_gcong,
        relabel=relabel_graph,
    ),
    KIND_LOOPLESS: _KindOps(
        enum_structures=lambda n: enumerate_graphs(n, NOLOOPS),
        enum_congruences=lc.enumerate_congruences_lc,
        validate=lc.validate_lc,
        quotient=lc.quotient_lc,
        kernel=gc.kernel_gc,
        quotient_cong=gc.quotient_cong_gc,
        meet=gc.meet_gc,
        join=None,
        identity=gc.identity_gc,
        strong_all=_strong_all(lc.strongify_lc),
        is_strong=lc.is_strong_lc,
        restrict=gc.restrict_gc,
        substructure=induced,
        iso=iso_graphs,
        le=gc.le_gc,
        is_morphism=gc.is_homomorphism,
        image_le=_image_le_lc,
        trivial=complete_graph(1),
        random_structure=lambda rng, n: random_graph(rng, n, NOLOOPS),
        random_congruence=lc.random_lcong,
        relabel=relabel_graph,
    ),
}


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


def class_from_members(kind: str, name: str, members) -> ClassPredicate:
    """Iso-closure of an explicit finite list plus the trivial structures."""
    pool = tuple(members)
    iso = KIND_OPS[kind].iso

    def member(structure):
        if (structure.n if hasattr(structure, "n") else 0) == 1:
            return True
        return any(
            m.n == structure.n and iso(structure, m) is not None for m in pool
        )

    return ClassPredicate(name, kind, member)


@dataclass(frozen=True)
class RadicalAssignment:
    """Rule assigning a congruence to every structure of its kind."""

    name: str
    kind: str
    rule: Callable
    provenance: str

    def __call__(self, structure):
        return self.rule(structure)


@dataclass(frozen=True)
class Universe:
    kind: str
    max_n: int
    members: tuple

    def __iter__(self):
        return iter(self.members)


def build_universe(kind: str, max_n: int) -> Universe:
    ops = KIND_OPS[kind]
    members = []
    for n in range(1, max_n + 1):
        members.extend(ops.enum_structures(n))
    return Universe(kind, max_n, tuple(members))


def universe_from_members(kind: str, members) -> Universe:
    members = tuple(members)
    return Universe(kind, max(m.n for m in members), members)


# ---------------------------------------------------------------------------
# The Hoehnke radical of a class
# ---------------------------------------------------------------------------

def hoehnke_radical(structure, cls: ClassPredicate):
    """Meet of all congruences whose quotient lies in the class."""
    kind = kind_of(structure)
    if kind != cls.kind:
        raise KindMismatch(f"{cls.name!r} is a {cls.kind} class, got a {kind} structure")
    ops = KIND_OPS[kind]
    qualifying = [
        theta
        for theta in ops.enum_congruences(structure)
        if cls(ops.quotient(structure, theta)[0])
    ]
    if not qualifying:
        raise NoQualifyingCongruence(
            f"no congruence quotient of the structure lies in {cls.name!r}"
        )
    return ops.meet(structure, qualifying)


def radical_from_class(cls: ClassPredicate) -> RadicalAssignment:
    cache: dict = {}

    def rule(structure):
        value = cache.get(structure)
        if value is None:
            value = cache[structure] = hoehnke_radical(structure, cls)
        return value

    return RadicalAssignment(
        name=f"radical-of-{cls.name}",
        kind=cls.kind,
        rule=rule,
        provenance=f"class:{cls.name}",
    )


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

def surjective_morphisms(kind: str, x, y) -> list[tuple]:
    """All surjective continuous maps / homomorphisms x -> y."""
    ops = KIND_OPS[kind]
    if y.n > x.n:
        return []
    out = []
    for f in itertools.product(range(y.n), repeat=x.n):
        if is_surjective(f, y.n) and ops.is_morphism(x, y, f):
            out.append(f)
    return out


def verify_H1(sigma: RadicalAssignment, x, y, f) -> bool:
    ops = KIND_OPS[sigma.kind]
    return ops.image_le(x, y, f, sigma(x), sigma(y))


def verify_H2(sigma: RadicalAssignment, x) -> bool:
    ops = KIND_OPS[sigma.kind]
    quotient, _ = ops.quotient(x, sigma(x))
    return sigma(quotient) == ops.identity(quotient)


def h1_failures(sigma: RadicalAssignment, uni: Universe) -> list:
    failures = []
    for x in uni.members:
        for y in uni.members:
            for f in surjective_morphisms(uni.kind, x, y):
                if not verify_H1(sigma, x, y, f):
                    failures.append((x, y, f))
    return failures


def h2_failures(sigma: RadicalAssignment, uni: Universe) -> list:
    return [x for x in uni.members if not verify_H2(sigma, x)]


def is_complete(sigma: RadicalAssignment, uni: Universe):
    """Strong congruences with radical-class blocks must sit below the radical."""
    ops = KIND_OPS[uni.kind]
    for x in uni.members:
        value = sigma(x)
        for theta in ops.strong_all(x):
            if all(
                in_radical_class(sigma, ops.substructure(x, block))
                for block in theta.part.blocks
            ):
                if not ops.le(theta, value):
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
    ops = KIND_OPS[uni.kind]
    for x in uni.members:
        if not ops.is_strong(x, sigma(x)):
            return False, x
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

def _nonempty_subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def r_hereditary(sigma: RadicalAssignment, uni: Universe):
    """restrict(radical of the whole) below the radical of the part."""
    ops = KIND_OPS[uni.kind]
    for x in uni.members:
        value = sigma(x)
        for sub in _nonempty_subsets(x.n):
            if not ops.le(ops.restrict(x, value, sub), sigma(ops.substructure(x, sub))):
                return False, (x, sub)
    return True, None


def s_hereditary(sigma: RadicalAssignment, uni: Universe):
    """Radical of the part below restrict(radical of the whole)."""
    ops = KIND_OPS[uni.kind]
    for x in uni.members:
        value = sigma(x)
        for sub in _nonempty_subsets(x.n):
            if not ops.le(sigma(ops.substructure(x, sub)), ops.restrict(x, value, sub)):
                return False, (x, sub)
    return True, None


def ideal_hereditary(sigma: RadicalAssignment, uni: Universe):
    ok_r, wr = r_hereditary(sigma, uni)
    if not ok_r:
        return False, wr
    return s_hereditary(sigma, uni)


def _class_hereditary(kind: str, members_in_class) -> tuple[bool, tuple | None]:
    ops = KIND_OPS[kind]

    def contains(x) -> bool:
        return any(x.n == m.n and ops.iso(x, m) is not None for m in members_in_class)

    for x in members_in_class:
        for sub in _nonempty_subsets(x.n):
            if not contains(ops.substructure(x, sub)):
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

def _nontrivial_images(kind: str, x):
    ops = KIND_OPS[kind]
    for theta in ops.enum_congruences(x):
        if theta.part.num_blocks >= 2:
            yield ops.quotient(x, theta)[0]


def _nontrivial_substructures(kind: str, x):
    ops = KIND_OPS[kind]
    for sub in _nonempty_subsets(x.n):
        if len(sub) >= 2:
            yield ops.substructure(x, sub)


def U_operator(cls: ClassPredicate, uni: Universe) -> list:
    """Members with no non-trivial image inside the class."""
    if cls.kind != uni.kind:
        raise KindMismatch(f"{cls.name!r} is a {cls.kind} class, universe is {uni.kind}")
    return [
        x for x in uni.members
        if not any(cls(y) for y in _nontrivial_images(uni.kind, x))
    ]


def S_operator(cls: ClassPredicate, uni: Universe) -> list:
    """Members with no non-trivial substructure inside the class."""
    if cls.kind != uni.kind:
        raise KindMismatch(f"{cls.name!r} is a {cls.kind} class, universe is {uni.kind}")
    return [
        x for x in uni.members
        if not any(cls(y) for y in _nontrivial_substructures(uni.kind, x))
    ]


def _encodings(structures) -> set:
    return {s.encoding() for s in structures}


def is_connectedness(cls: ClassPredicate, uni: Universe) -> bool:
    """Fixed point USC = C, cross-checked by the C-congruence characterization.

    The congruence route exists for spaces and loop-admitting graphs only;
    loopless blocks are independent sets, so that characterization has no
    loopless counterpart and the fixed point stands alone there.
    """
    in_class = [x for x in uni.members if cls(x)]
    sc = class_from_members(uni.kind, f"S-{cls.name}", S_operator(cls, uni))
    usc = U_operator(sc, uni)
    fixed_verdict = _encodings(usc) == _encodings(in_class)
    if uni.kind == KIND_LOOPLESS:
        return fixed_verdict

    def every_image_has_c_congruence(x) -> bool:
        ops = KIND_OPS[uni.kind]
        for y in _nontrivial_images(uni.kind, x):
            if not any(
                theta.part.num_blocks < y.n and c_congruence_p(cls, y, theta)
                for theta in ops.strong_all(y)
            ):
                return False
        return True

    cong_members = [x for x in uni.members if every_image_has_c_congruence(x)]
    cong_verdict = _encodings(cong_members) == _encodings(in_class)
    if fixed_verdict != cong_verdict:
        raise CheckDefect(
            f"fixed-point and congruence characterizations disagree for {cls.name!r}"
        )
    return fixed_verdict


def is_disconnectedness(cls: ClassPredicate, uni: Universe) -> bool:
    """Fixed point SUD = D."""
    in_class = [x for x in uni.members if cls(x)]
    ud = class_from_members(uni.kind, f"U-{cls.name}", U_operator(cls, uni))
    sud = S_operator(ud, uni)
    return _encodings(sud) == _encodings(in_class)


# ---------------------------------------------------------------------------
# C-congruences and the radical as a sum
# ---------------------------------------------------------------------------

def c_congruence_p(cls: ClassPredicate, structure, theta) -> bool:
    """Strong congruence whose blocks all induce members of the class."""
    kind = kind_of(structure)
    if kind != cls.kind:
        raise KindMismatch(f"{cls.name!r} does not match the structure kind")
    ops = KIND_OPS[kind]
    if not ops.is_strong(structure, theta):
        return False
    return all(
        cls(ops.substructure(structure, block)) for block in theta.part.blocks
    )


def rho_sum(cls: ClassPredicate, structure):
    """Join of all C-congruences on the structure."""
    kind = kind_of(structure)
    ops = KIND_OPS[kind]
    if ops.join is None:
        raise KindUnsupported("loopless congruences admit no join")
    if kind != cls.kind:
        raise KindMismatch(f"{cls.name!r} does not match the structure kind")
    parts = [
        theta for theta in ops.strong_all(structure)
        if c_congruence_p(cls, structure, theta)
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
    # quotients validate, so they run before a meet that may not
    factors = tuple(ops.quotient(structure, theta)[0] for theta in thetas)
    ok = ops.meet(structure, thetas) == ops.identity(structure)
    embedding = tuple(
        tuple(theta.part.class_id[v] for theta in thetas) for v in range(structure.n)
    )
    return SubdirectResult(ok, factors, embedding)


def is_subdirectly_irreducible(structure) -> bool:
    """No family of proper congruences can meet to the identity."""
    ops = KIND_OPS[kind_of(structure)]
    iota = ops.identity(structure)
    others = [t for t in ops.enum_congruences(structure) if t != iota]
    return not others or ops.meet(structure, others) != iota


def subdirect_closure(cls: ClassPredicate, uni: Universe) -> list:
    """Members decomposable with all factors in the class."""
    if cls.kind != uni.kind:
        raise KindMismatch(f"{cls.name!r} does not match the universe kind")
    ops = KIND_OPS[uni.kind]
    out = []
    for x in uni.members:
        qualifying = [
            theta for theta in ops.enum_congruences(x)
            if cls(ops.quotient(x, theta)[0])
        ]
        if qualifying and ops.meet(x, qualifying) == ops.identity(x):
            out.append(x)
    return out


def complementary_pair_check(c_cls: ClassPredicate, d_cls: ClassPredicate, uni: Universe) -> bool:
    """Union covers the universe, intersection is trivial, D = SC and C = UD."""
    if c_cls.kind != d_cls.kind or c_cls.kind != uni.kind:
        raise KindMismatch("complementary pair needs matching kinds")
    c_members = [x for x in uni.members if c_cls(x)]
    d_members = [x for x in uni.members if d_cls(x)]
    trivial = [x for x in uni.members if x.n == 1]
    inter = _encodings(c_members) & _encodings(d_members)
    if inter != _encodings(trivial):
        return False
    if _encodings(c_members) | _encodings(d_members) != _encodings(uni.members):
        return False
    if _encodings(S_operator(c_cls, uni)) != _encodings(d_members):
        return False
    if _encodings(U_operator(d_cls, uni)) != _encodings(c_members):
        return False
    return True


def loopless_degeneracy_check(uni: Universe, cls: ClassPredicate) -> bool:
    """Every loopless radical collapses to the identity congruence."""
    if uni.kind != KIND_LOOPLESS or cls.kind != KIND_LOOPLESS:
        raise KindMismatch("degeneracy check lives in the loopless kind")
    for m in range(1, uni.max_n + 1):
        if not cls(complete_graph(m)):
            raise LemmaConditionFailed(
                f"complete graph on {m} vertices is outside {cls.name!r}"
            )
    return all(
        hoehnke_radical(x, cls) == gc.identity_gc(x) for x in uni.members
    )


# ---------------------------------------------------------------------------
# The two catalogs of ideal-hereditary radicals
# ---------------------------------------------------------------------------

TOPO_CATALOG_IDS = ("a", "b", "c", "d", "e")
GRAPH_CATALOG_IDS = ("a", "b", "c", "d", "e", "f", "g", "h")


def indistinguishability_partition(x: FiniteSpace) -> Partition:
    """Points sharing every open set fall into one block."""
    return Partition.from_map(
        tuple(
            min(q for q in range(x.n) if x.min_open(q) == x.min_open(p))
            for p in range(x.n)
        )
    )


def catalog_topological(x: FiniteSpace, cid: str) -> tc.TopoCongruence:
    """The five ideal-hereditary radicals on spaces.

    On finite carriers the last entry coincides with (d): a separation-axiom
    case split cannot commute with subspaces at finite scale, so the
    indiscrete congruence topology is the only non-strong assignment that
    stays hereditary; (e) is kept as its own id for reporting.
    """
    indiscrete = frozenset({frozenset(), x.full})
    if cid == "a":
        return tc.universal_tc(x)
    if cid == "b":
        return tc.TopoCongruence(indistinguishability_partition(x), x.opens)
    if cid == "c":
        return tc.identity_tc(x)
    if cid in ("d", "e"):
        return tc.TopoCongruence(Partition.identity(x.n), indiscrete)
    raise BadCatalogId(f"topological catalog has entries a-e, not {cid!r}")


def _loop_block_partition(g: FiniteGraph) -> Partition:
    loops = g.loop_vertices
    if not loops:
        return Partition.identity(g.n)
    anchor = min(loops)
    return Partition.from_map(
        tuple(anchor if v in loops else v for v in range(g.n))
    )


def catalog_graph(g: FiniteGraph, cid: str) -> gc.GraphCongruence:
    if g.policy != LOOPS:
        raise KindMismatch("the graph catalog lives in the loop-admitting kind")
    loops = g.loop_vertices
    ident = Partition.identity(g.n)
    if cid == "a":
        return gc.strongify_gc(g, Partition.universal(g.n))
    if cid == "b":
        return gc.universal_gc(g)
    if cid == "c":
        return gc.strongify_gc(g, _loop_block_partition(g))
    if cid == "d":
        extra = {(v, v) for v in range(g.n) if v not in loops}
        return gc.GraphCongruence(ident, g.edges | extra)
    if cid == "e":
        return gc.GraphCongruence(ident, g.all_pairs)
    if cid == "f":
        return gc.identity_gc(g)
    if cid == "g":
        extra = {_norm_pair(a, b) for a in loops for b in loops}
        return gc.GraphCongruence(ident, g.edges | extra)
    if cid == "h":
        extra = {_norm_pair(a, b) for a in loops for b in range(g.n)}
        return gc.GraphCongruence(ident, g.edges | extra)
    raise BadCatalogId(f"graph catalog has entries a-h, not {cid!r}")


def catalog_topological_radical(cid: str) -> RadicalAssignment:
    if cid not in TOPO_CATALOG_IDS:
        raise BadCatalogId(f"topological catalog has entries a-e, not {cid!r}")
    return RadicalAssignment(
        name=f"topo-catalog-{cid}",
        kind=KIND_TOPO,
        rule=lambda x: catalog_topological(x, cid),
        provenance=f"catalog:{cid}",
    )


def catalog_graph_radical(cid: str) -> RadicalAssignment:
    if cid not in GRAPH_CATALOG_IDS:
        raise BadCatalogId(f"graph catalog has entries a-h, not {cid!r}")
    return RadicalAssignment(
        name=f"graph-catalog-{cid}",
        kind=KIND_GRAPH,
        rule=lambda g: catalog_graph(g, cid),
        provenance=f"catalog:{cid}",
    )


# ---------------------------------------------------------------------------
# Built-in classes
# ---------------------------------------------------------------------------

def _has_clique(g: FiniteGraph, k: int) -> bool:
    if k > g.n:
        return False
    return any(
        all(_norm_pair(a, b) in g.edges for a, b in itertools.combinations(sub, 2))
        for sub in itertools.combinations(range(g.n), k)
    )


def _builtin_specs():
    yield KIND_TOPO, "all", lambda x: True
    yield KIND_TOPO, "trivial", lambda x: x.n == 1
    yield KIND_TOPO, "indiscrete", lambda x: x.is_indiscrete()
    yield KIND_TOPO, "t0", lambda x: x.is_t0()
    yield KIND_TOPO, "t1", lambda x: x.is_t1()
    yield KIND_TOPO, "t1-or-indiscrete", lambda x: x.is_t1() or x.is_indiscrete()
    yield KIND_TOPO, "s2-i2", lambda x: x.n == 1 or homeo_spaces(x, S2) is not None or homeo_spaces(x, I2) is not None

    yield KIND_GRAPH, "all", lambda g: True
    yield KIND_GRAPH, "trivial", lambda g: g.n == 1
    yield KIND_GRAPH, "trivial-looped", lambda g: g.n == 1 and bool(g.loop_vertices)
    yield KIND_GRAPH, "at-most-one-loop", lambda g: len(g.loop_vertices) <= 1
    yield KIND_GRAPH, "all-looped", lambda g: len(g.loop_vertices) == g.n
    yield KIND_GRAPH, "trivial-or-all-looped", lambda g: g.n == 1 or len(g.loop_vertices) == g.n
    yield KIND_GRAPH, "complete-looped", lambda g: g.edges == g.all_pairs
    yield KIND_GRAPH, "loop-clique", lambda g: all(
        _norm_pair(a, b) in g.edges for a in g.loop_vertices for b in g.loop_vertices
    )
    yield KIND_GRAPH, "loop-dominated", lambda g: all(
        _norm_pair(a, b) in g.edges for a in g.loop_vertices for b in range(g.n)
    )

    yield KIND_LOOPLESS, "all", lambda g: True
    yield KIND_LOOPLESS, "trivial", lambda g: g.n == 1
    yield KIND_LOOPLESS, "complete", lambda g: g.is_complete()
    yield KIND_LOOPLESS, "edgeless", lambda g: not g.edges
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
