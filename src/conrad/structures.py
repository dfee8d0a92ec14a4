"""Finite graphs (with or without loops), finite topological spaces, partitions.

Vertices and points are always the dense integers 0..n-1; every stored
collection is canonically normalized so that equality is structural.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import random

from .errors import (
    BoundExceeded,
    EmptySubset,
    InvalidCongruence,
    MissingEmptyOrFull,
    NotClosedUnderIntersection,
    NotClosedUnderUnion,
    NotSurjective,
    PolicyMismatch,
    SemanticError,
    UsageError,
)

LOOPS = "loops"
NOLOOPS = "noloops"

GRAPH_ENUM_BOUND = 6
SPACE_ENUM_BOUND = 4
ISO_BOUND = 8
# candidates one congruence enumeration may scan: edge-sets or families of
# saturated opens, summed over the partitions of the carrier
CONGRUENCE_SCAN_BOUND = 100_000


def _env_bound(default: int) -> int:
    """The CONRAD_MAX_N override of a size bound; unset or empty keeps the default."""
    raw = os.environ.get("CONRAD_MAX_N")
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"CONRAD_MAX_N must be an integer, got {raw!r}") from None


def _positions(subset, n: int) -> tuple[int, ...]:
    """sorted(set(subset)), the points of a substructure of an n-point
    carrier in the order they are relabelled; refuses an empty subset and ids
    outside 0..n-1."""
    sub = tuple(sorted(set(subset)))
    if not sub:
        raise EmptySubset("restriction to the empty set")
    if sub[0] < 0 or sub[-1] >= n:
        raise SemanticError(f"subset ids must lie in 0..{n - 1}")
    return sub


# ---------------------------------------------------------------------------
# Partitions
# ---------------------------------------------------------------------------

class Partition:
    """Equivalence relation on 0..n-1, stored as a restricted growth string.

    The constructor takes any labelling of the points by hashable values and
    relabels it in one pass, so that ``class_id[x]`` is the block index of x
    and block indices appear in order of least element, which makes the
    representation canonical.  The same pass lists the blocks.
    """

    def __init__(self, class_id):
        self.class_id = class_id
        self.__post_init__()

    def __post_init__(self):
        relabel: dict = {}
        cid: list[int] = []
        blocks: list[list[int]] = []
        for x, label in enumerate(self.class_id):
            b = relabel.setdefault(label, len(blocks))
            if b == len(blocks):
                blocks.append([])
            blocks[b].append(x)
            cid.append(b)
        self.class_id = tuple(cid)
        self.blocks = tuple(map(tuple, blocks))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.class_id == other.class_id
        return NotImplemented

    def __hash__(self):
        return hash((self.class_id,))

    def __repr__(self):
        return f"Partition(class_id={self.class_id!r})"

    @staticmethod
    def from_blocks(n: int, blocks) -> "Partition":
        """The partition with the given blocks.  They are counted before the n
        labels are allocated: nonempty blocks holding n points between them
        partition 0..n-1 when no point is out of range or listed twice."""
        blocks = list(blocks)
        if not all(blocks) or sum(map(len, blocks)) != n:
            raise SemanticError(f"blocks do not partition 0..{n - 1}")
        cid = [-1] * n
        for count, block in enumerate(blocks):
            for x in block:
                if not 0 <= x < n or cid[x] != -1:
                    raise SemanticError(f"blocks do not partition 0..{n - 1}")
                cid[x] = count
        return Partition(cid)

    # one shared object per size: partitions are immutable, and these are built often
    @staticmethod
    @functools.lru_cache(maxsize=64)
    def identity(n: int) -> "Partition":
        return Partition(tuple(range(n)))

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def universal(n: int) -> "Partition":
        return Partition((0,) * n)

    @property
    def n(self) -> int:
        return len(self.class_id)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def same(self, a: int, b: int) -> bool:
        return self.class_id[a] == self.class_id[b]

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        return _refines(self.class_id, other.class_id)

    # Tables of the graph congruence calculus, built once per partition
    # object: `all_partitions` shares its partitions across every sweep.

    @functools.cached_property
    def orbits(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The substitution orbits, each the slot mask of every vertex pair
        between two blocks i and j, in lexicographic order of (i, j): those
        with i < j (a loopless carrier's), then those with i <= j."""
        n, blocks = self.n, self.blocks
        ends = [(i, j) for i in range(len(blocks)) for j in range(i, len(blocks))]
        masks = [_mask_of(n, ((u, v) for u in blocks[i] for v in blocks[j])) for i, j in ends]
        return tuple(o for (i, j), o in zip(ends, masks) if i < j), tuple(masks)

    @functools.cached_property
    def inside(self) -> int:
        """The slot mask of the pairs inside blocks, the diagonal included."""
        return _mask_of(self.n, (p for block in self.blocks
                                 for p in itertools.combinations_with_replacement(block, 2)))


def join_partitions(parts: list[Partition]) -> Partition:
    """Smallest common coarsening (transitive closure of the union)."""
    n = parts[0].n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in parts:
        for block in p.blocks:
            r = find(block[0])
            for x in block[1:]:
                parent[find(x)] = r
    return Partition([find(x) for x in range(n)])


def meet_partitions(parts: list[Partition]) -> Partition:
    return Partition(zip(*(p.class_id for p in parts)))


def random_partition(rng: random.Random, n: int) -> Partition:
    raw = []
    used = 0
    for _ in range(n):
        raw.append(rng.randrange(used + 1))
        used = max(used, raw[-1] + 1)
    return Partition(raw)


def is_surjective(f: tuple, m: int) -> bool:
    return set(f) == set(range(m))


def require_surjective(f: tuple, m: int) -> None:
    if not is_surjective(f, m):
        raise NotSurjective(f"the map must reach each of the points 0..{m - 1} and no other")


def require_permutation(perm, n: int) -> None:
    """Refuse a map of n points of another length, or one not onto the n points."""
    if len(perm) != n:
        raise SemanticError(f"the map has {len(perm)} images for {n} points")
    require_surjective(perm, n)


def require_carrier(x, part) -> None:
    """Refuse a congruence's partition of another carrier than x, in the
    words of x's calculus."""
    if part.n != x.n:
        points, carrier = ("points", "space") if isinstance(x, FiniteSpace) else ("vertices", "graph")
        raise InvalidCongruence(f"partition on {part.n} {points}, {carrier} has {x.n}")


def _refines(labels, coarser) -> bool:
    """Whether positions with equal labels always have equal coarser labels."""
    rep = {}
    for x, b in enumerate(labels):
        o = coarser[x]
        if b in rep:
            if rep[b] != o:
                return False
        else:
            rep[b] = o
    return True


@functools.cache
def all_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of 0..n-1 in lexicographic growth-string order, built
    once per n: partitions are immutable, so every sweep shares them."""

    def rec(prefix: list[int], used: int):
        if len(prefix) == n:
            yield Partition(tuple(prefix))
            return
        for b in range(used + 1):
            prefix.append(b)
            yield from rec(prefix, max(used, b + 1))
            prefix.pop()

    return tuple(rec([], 0))


def bell_number(n: int) -> int:
    """The number of partitions of n points, by the Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


# the least carrier with more partitions than the scan bound: Bell(10) = 115,975
_LEAST_REFUSED_N = next(n for n in itertools.count(1) if bell_number(n) > CONGRUENCE_SCAN_BOUND)


def _scan_refused() -> BoundExceeded:
    return BoundExceeded(f"congruence enumeration capped at {CONGRUENCE_SCAN_BOUND} candidates")


def bounded_partitions(n: int):
    """all_partitions(n) for a congruence enumeration.

    Every partition counts as at least one candidate, so a carrier with more
    partitions than the scan bound is refused before the first, whatever its size.
    """
    if n >= _LEAST_REFUSED_N:
        raise _scan_refused()
    return all_partitions(n)


def count_scanned(scanned: int, more: int) -> int:
    """A congruence enumeration's running candidate count; raises past the bound."""
    scanned += more
    if scanned > CONGRUENCE_SCAN_BOUND:
        raise _scan_refused()
    return scanned


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------
#
# An edge-set is an int over the pair slots of its n vertices: every pair
# (a, b) with a <= b, in lexicographic order, so that the set bits read upward
# give the sorted pairs.  Both loop policies use the one layout (a loopless
# edge-set leaves the diagonal slots (v, v) empty), so a graph's edges and
# its congruences' edge-sets combine with AND and OR under either policy.

def _nonempty_subsets(n: int):
    for size in range(1, n + 1):
        yield from itertools.combinations(range(n), size)


def _norm_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _slot_count(n: int) -> int:
    return n * (n + 1) // 2


def _slot(n: int, a: int, b: int) -> int:
    """The slot of the pair a <= b of n vertices: row a starts after the
    n + (n - 1) + ... + (n - a + 1) pairs of the rows before it."""
    return a * (2 * n - a + 1) // 2 + b - a


def _mask_of(n: int, pairs) -> int:
    """The slot mask of vertex pairs of n vertices, each in either order.

    A slot past CONGRUENCE_SCAN_BOUND is refused before its bit is set: the
    mask grows with the square of the vertex count, so a huge carrier's far
    pair would need gigabytes."""
    mask = 0
    for a, b in pairs:
        if a > b:
            a, b = b, a
        slot = a * (2 * n - a + 1) // 2 + b - a
        if slot >= CONGRUENCE_SCAN_BOUND:
            raise BoundExceeded(
                f"edge-sets capped at {CONGRUENCE_SCAN_BOUND} pair slots: {a}-{b} is slot {slot}"
            )
        mask |= 1 << slot
    return mask


class _Lazy(dict):
    """A table filled as it is read: entry k is fill(k), computed on first
    read, so a huge carrier's table holds only the slots its masks use."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _pair_at(n: int, slot: int) -> tuple[int, int]:
    """The pair in one slot of n vertices: its row is the root of the row-start
    quadratic, which isqrt can only overestimate."""
    a = (2 * n + 1 - math.isqrt((2 * n + 1) ** 2 - 8 * slot)) // 2
    while _slot(n, a, a) > slot:
        a -= 1
    return a, a + slot - _slot(n, a, a)


@functools.lru_cache(maxsize=64)
def _slot_pairs(n: int) -> _Lazy:
    """The pair in each slot of n vertices."""
    return _Lazy(functools.partial(_pair_at, n))


@functools.lru_cache(maxsize=64)
def _pair_texts(n: int, form: str) -> _Lazy:
    """The pair in each slot of n vertices written as form.format(a, b), filled as read."""
    pairs = _slot_pairs(n)
    return _Lazy(lambda slot: form.format(*pairs[slot]))


# a mask this wide or narrower is walked bit by bit, which is faster there;
# a wider one through its binary text, since each step of the bit walk is an
# operation on the whole mask, so that walk takes time quadratic in the width
_NARROW_MASK_BITS = 64


def _set_bits(mask: int):
    """The positions of the set bits of a mask, ascending, found in its
    binary text: time linear in its width."""
    text = bin(mask)[:1:-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def _at_slots(table, mask: int) -> list:
    """The entries of a per-slot table at the set slots of a mask, in slot
    order, which is sorted pair order."""
    if mask.bit_length() > _NARROW_MASK_BITS:
        return [table[s] for s in _set_bits(mask)]
    out = []
    while mask:
        low = mask & -mask
        out.append(table[low.bit_length() - 1])
        mask ^= low
    return out


def _pairs(n: int, mask: int) -> list[tuple[int, int]]:
    """The vertex pairs in the set slots of a mask over n vertices, in sorted order."""
    return _at_slots(_slot_pairs(n), mask)


@functools.lru_cache(maxsize=1024)
def _loop_slots(n: int, width: int) -> int:
    """The mask of the diagonal slots (v, v) of n vertices below slot width;
    a huge carrier's loop slots past its edges are never built."""
    mask = a = start = 0
    while a < n and start < width:
        mask |= 1 << start
        start += n - a
        a += 1
    return mask


@functools.lru_cache(maxsize=64)
def _stars(n: int) -> _Lazy:
    """Per diagonal slot (v, v) of n vertices, the star of v (the mask of
    the pairs holding v), filled as read: read along a graph's loop slots,
    the union of its looped vertices' stars."""
    pairs = _slot_pairs(n)
    return _Lazy(lambda slot: _mask_of(n, ((u, pairs[slot][0]) for u in range(n))))


def _cliques(n: int, k: int):
    """Per k-subset of n vertices in lexicographic order, the mask of its pairs."""
    return (_mask_of(n, itertools.combinations(sub, 2)) for sub in itertools.combinations(range(n), k))


# the most k-subsets a kept clique table lists: C(23, 3) = 1,771 fits
_CLIQUE_TABLE_BOUND = 2_000
_clique_table = functools.lru_cache(maxsize=32)(lambda n, k: tuple(_cliques(n, k)))


def _clique_masks(n: int, k: int):
    """`_cliques(n, k)`, kept as a table while it lists at most
    _CLIQUE_TABLE_BOUND subsets; a larger carrier's masks are built as read."""
    return _clique_table(n, k) if math.comb(n, k) <= _CLIQUE_TABLE_BOUND else _cliques(n, k)


def _slot_plan(n: int, image: tuple, m: int) -> _Lazy:
    """Per pair slot of n vertices, the bit of the slot its pair lands in
    under a map `image` of the vertices into m vertices, or 0 when an end's
    image is None, filled as read.  Whoever carries along one map many
    times holds its plan; a single carry builds its own."""
    pairs = _slot_pairs(n)

    def fill(slot: int) -> int:
        a, b = pairs[slot]
        x, y = image[a], image[b]
        if x is None or y is None:
            return 0
        target = _slot(m, *_norm_pair(x, y))
        return 1 << target if target < CONGRUENCE_SCAN_BOUND else _mask_of(m, [(x, y)])  # which refuses it

    return _Lazy(fill)


# the plans the calculus reuses across graphs: subset maps, class maps, the
# bijections an isomorphism search tries, and the maps kernels and H1 read
_slot_images = functools.lru_cache(maxsize=4096)(_slot_plan)


def _union_of(masks, selector: int) -> int:
    """The union of masks[i] over the positions i that the selector holds.
    With masks[p] = 1 << f(p) it is the image of the selector along f."""
    out = 0
    if selector.bit_length() > _NARROW_MASK_BITS:
        for s in _set_bits(selector):
            out |= masks[s]
        return out
    while selector:
        low = selector & -selector
        out |= masks[low.bit_length() - 1]
        selector ^= low
    return out


def _search_view(succ) -> tuple:
    """What the morphism search reads of a structure whose relation holds
    (p, q) when succ[p] holds q: succ, its transpose, the mask of the points
    related to themselves, and per point whether it is one, with the earlier
    points it follows and those it precedes."""
    n = len(succ)
    rows = tuple((succ[i] >> i & 1, [a for a in range(i) if succ[a] >> i & 1],
                  [b for b in range(i) if succ[i] >> b & 1]) for i in range(n))
    pred = tuple(_bitmask(p for p in range(n) if succ[p] >> q & 1) for q in range(n))
    return tuple(succ), pred, _bitmask(p for p in range(n) if rows[p][0]), rows


class FiniteGraph:
    """Undirected graph on 0..n-1, its edges a mask over the pair slots;
    loops permitted only under the loops policy.  The constructor checks
    that the mask holds admissible slots only; `graph` checks raw pairs."""

    def __init__(self, n: int, policy: str, mask: int):
        self.n, self.policy, self.mask = n, policy, mask
        self.__post_init__()

    def __post_init__(self):
        if self.n < 1:
            raise SemanticError("graphs have non-empty vertex sets")
        if self.policy not in (LOOPS, NOLOOPS):
            raise SemanticError(f"unknown loop policy {self.policy!r}")
        n, mask = self.n, self.mask
        if mask < 0 or mask >> n * (n + 1) // 2:
            raise SemanticError("edge mask out of range")
        if self.policy == NOLOOPS and self.loops:
            raise SemanticError("loop under noloops policy")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.policy, self.mask) == (other.n, other.policy, other.mask)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.policy, self.mask))

    def __repr__(self):
        return f"FiniteGraph(n={self.n!r}, policy={self.policy!r}, mask={self.mask!r})"

    @functools.cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(_pairs(self.n, self.mask))

    @property
    def all_pairs(self) -> int:
        """The mask of every admissible pair: C_G under loops, K_G under noloops."""
        width = _slot_count(self.n)
        full = (1 << width) - 1
        return full if self.policy == LOOPS else full & ~_loop_slots(self.n, width)

    def has_edge(self, a: int, b: int) -> bool:
        a, b = _norm_pair(a, b)
        return bool(self.mask >> _slot(self.n, a, b) & 1)

    @functools.cached_property
    def search_view(self) -> tuple:
        """`_search_view` of the edges, each read both ways."""
        return _search_view([_bitmask(u for u in range(self.n) if self.has_edge(u, v)) for v in range(self.n)])

    @property
    def loops(self) -> int:
        """The mask of the diagonal slots (v, v) holding a loop."""
        return self.mask & _loop_slots(self.n, self.mask.bit_length())

    @functools.cached_property
    def loop_vertices(self) -> frozenset[int]:
        return frozenset(a for a, _ in _pairs(self.n, self.loops))

    def point_keys(self) -> list[tuple[int, int]]:
        """Per vertex, its degree (its loop aside) and whether it carries a
        loop, kept by isomorphisms: read off the edges in one walk of the
        mask, so a large carrier's keys cost its edges and no star."""
        degree, loop = [0] * self.n, [0] * self.n
        for a, b in _pairs(self.n, self.mask):
            if a == b:
                loop[a] = 1
            else:
                degree[a] += 1
                degree[b] += 1
        return list(zip(degree, loop))

    def point_key(self, v: int) -> tuple[int, int]:
        """The degree of v and whether it carries a loop."""
        return self.point_keys()[v]

    def iso_key(self) -> tuple:
        """An isomorphism invariant: size, edge count and the sorted point keys."""
        return (self.n, self.mask.bit_count(), tuple(sorted(self.point_keys())))

    def is_complete(self) -> bool:
        # every edge is an admissible pair, so holding as many means holding all
        n = self.n
        return self.mask.bit_count() == (n * (n + 1) if self.policy == LOOPS else n * (n - 1)) // 2

    def encoding(self) -> tuple:
        return (self.n, self.policy, tuple(_pairs(self.n, self.mask)))


def graph(n: int, policy: str, edges=()) -> FiniteGraph:
    """The graph on raw vertex pairs, each put in (low, high) order.  The
    pairs are checked as given, before any slot is computed, so a negative
    id is refused rather than shifted."""
    if n < 1:
        raise SemanticError("graphs have non-empty vertex sets")
    pairs = frozenset(_norm_pair(a, b) for a, b in edges)
    for a, b in pairs:
        if not (0 <= a <= b < n):
            raise SemanticError(f"edge {a}-{b} out of range or unnormalized")
        if a == b and policy == NOLOOPS:
            raise SemanticError(f"loop {a}-{a} under noloops policy")
    return FiniteGraph(n, policy, _mask_of(n, pairs))


def complete_graph(n: int) -> FiniteGraph:
    return graph(n, NOLOOPS, [(a, b) for a in range(n) for b in range(a + 1, n)])


def edgeless_graph(n: int, policy: str = NOLOOPS) -> FiniteGraph:
    return graph(n, policy, [])


def path_graph(n: int) -> FiniteGraph:
    return graph(n, NOLOOPS, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> FiniteGraph:
    return graph(n, NOLOOPS, [(i, (i + 1) % n) for i in range(n)])


def completion(g: FiniteGraph) -> FiniteGraph:
    """Same vertices, every non-loop edge present."""
    if g.policy != NOLOOPS:
        raise PolicyMismatch("completion is defined for loopless graphs")
    return FiniteGraph(g.n, NOLOOPS, g.all_pairs)


def _carried(n: int, mask: int, image, m: int) -> int:
    """The pairs (image[a], image[b]) over m vertices for the pairs (a, b)
    of a mask over n vertices, carried bit by bit; an end whose image is
    None drops its pairs."""
    return _union_of(_slot_images(n, tuple(image), m), mask)


@functools.lru_cache(maxsize=4096)
def _subset_image(n: int, sub: tuple[int, ...]) -> tuple:
    """The map of n points sending the sorted points sub to 0..len(sub)-1
    and dropping the others (image None)."""
    image = [None] * n
    for i, v in enumerate(sub):
        image[v] = i
    return tuple(image)


def induced(g: FiniteGraph, subset) -> FiniteGraph:
    """Induced subgraph on sorted(subset), relabelled to 0..|S|-1."""
    sub = _positions(subset, g.n)
    return FiniteGraph(len(sub), g.policy, _carried(g.n, g.mask, _subset_image(g.n, sub), len(sub)))


def relabel_graph(g: FiniteGraph, perm) -> FiniteGraph:
    require_permutation(perm, g.n)
    return FiniteGraph(g.n, g.policy, _carried(g.n, g.mask, perm, g.n))


def random_graph(rng: random.Random, n: int, policy: str) -> FiniteGraph:
    return FiniteGraph(n, policy, _mask_of(n, [p for p in _pair_slots(n, policy) if rng.random() < 0.5]))


# named two-vertex loop-admitting graphs and friends
T = graph(1, LOOPS)
T0 = graph(1, LOOPS, [(0, 0)])
B1 = graph(2, LOOPS)
B2 = graph(2, LOOPS, [(0, 1)])
B3 = graph(2, LOOPS, [(0, 0)])
B4 = graph(2, LOOPS, [(0, 0), (1, 1)])
B5 = graph(2, LOOPS, [(0, 1), (1, 1)])
B6 = graph(2, LOOPS, [(0, 0), (0, 1), (1, 1)])
B_SET = (B1, B2, B3, B4, B5, B6)
A3 = graph(3, LOOPS, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

class FiniteSpace:
    """Finite topological space on points 0..n-1, stored as each point's least
    open set as a bitmask; the opens are their unions (Stong, Trans. AMS 123,
    1966).  The constructor checks only that the masks form a preorder: p lies
    in its own, and q in p's puts q's inside p's.  `space` checks a family of opens.
    """

    def __init__(self, n: int, min_opens: tuple[int, ...]):
        self.n, self.min_opens = n, min_opens
        self.__post_init__()

    def __post_init__(self):
        if self.n < 1:
            raise SemanticError("spaces have non-empty point sets")
        defect = _preorder_defect(self.n, self.min_opens)
        if defect:
            raise SemanticError(defect)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.min_opens) == (other.n, other.min_opens)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.min_opens))

    def __repr__(self):
        return f"FiniteSpace(n={self.n!r}, min_opens={self.min_opens!r})"

    @functools.cached_property
    def _open_masks(self) -> tuple[int, ...]:
        """Every open set as a bitmask, in increasing order."""
        return tuple(sorted(_unions(self.min_opens)))

    @functools.cached_property
    def opens(self) -> frozenset[frozenset[int]]:
        """Every open set: the unions of the least open sets."""
        return frozenset(_members(m) for m in self._open_masks)

    @functools.cached_property
    def search_view(self) -> tuple:
        """`_search_view` of the specialization preorder, p below the points of
        its least open set: a map of finite spaces is continuous iff it is
        monotone for it (Alexandroff 1937; Stong, Trans. AMS 123, 1966)."""
        return _search_view(self.min_opens)

    @property
    def full(self) -> frozenset[int]:
        return frozenset(range(self.n))

    def is_indiscrete(self) -> bool:
        return all(u == 2 ** self.n - 1 for u in self.min_opens)

    def is_discrete(self) -> bool:
        return all(u == 1 << p for p, u in enumerate(self.min_opens))

    def is_t0(self) -> bool:
        # two points are indistinguishable iff they share a least open set
        return len(set(self.min_opens)) == self.n

    def is_t1(self) -> bool:
        # finite T1 = discrete
        return self.is_discrete()

    def point_key(self, p: int) -> tuple[int, int]:
        """How many points lie below and above p: kept by homeomorphisms."""
        return (self.min_opens[p].bit_count(), sum(u >> p & 1 for u in self.min_opens))

    def point_keys(self) -> list[tuple[int, int]]:
        return list(map(self.point_key, range(self.n)))

    def iso_key(self) -> tuple:
        """A homeomorphism invariant: size, open count and the sorted point keys."""
        return (self.n, len(self._open_masks), tuple(sorted(self.point_keys())))

    def min_open(self, x: int) -> frozenset[int]:
        """Smallest open set containing x."""
        return _members(self.min_opens[x])

    def encoding(self) -> tuple:
        return (self.n, self._open_masks)


def _bitmask(s) -> int:
    out = 0
    for x in s:
        out |= 1 << x
    return out


def _members(mask: int) -> frozenset[int]:
    """The positions of the set bits of a bitmask."""
    return frozenset(p for p in range(mask.bit_length()) if mask >> p & 1)


def _unions(masks) -> set[int]:
    """Every union of the given bitmasks, the empty union included."""
    out = {0}
    for u in set(masks):
        out |= {v | u for v in out}
    return out


def _least_opens(n: int, masks) -> tuple[int, ...]:
    """Each point's least member of a family of subsets of 0..n-1 (bitmasks):
    the AND of the members holding it, or all of 0..n-1 when none does.  The
    topology the family generates is the unions of these."""
    out = [2 ** n - 1] * n
    for u in masks:
        for p in range(n):
            if u >> p & 1:
                out[p] &= u
    return tuple(out)


def _preorder_defect(n: int, least) -> str | None:
    """Why the masks are not a least-open vector on 0..n-1 (a preorder: p lies
    in its own, and q in p's puts q's inside p's), or None when they are one."""
    if len(least) != n:
        return f"{len(least)} least open sets for {n} points"
    for p, u in enumerate(least):
        if u >> n or not u >> p & 1:
            return f"the least open set of {p} must hold it and lie in range"
        outside = ~u
        for q, v in enumerate(least):
            if u >> q & 1 and v & outside:
                return f"the least open set of {p} holds {q} but not its least open set"
    return None


def _transitive(reach) -> tuple[int, ...]:
    """The least preorder holding each p's reach mask (which holds p): whatever
    reaches k reaches what k reaches (Warshall)."""
    least = list(reach)
    for k in range(len(least)):
        bit, down = 1 << k, least[k]
        for p, u in enumerate(least):
            if u & bit:
                least[p] = u | down
    return tuple(least)


def _least_plan(image, m: int) -> tuple:
    """What carrying a least-open vector along a map of its points onto m
    points reads: the first point sent to each new point, and each mask's
    image, filled as read.  Whoever carries along one map many times holds
    its plan; a single carry, such as a theorem instance's, builds its own."""
    to = [0 if v is None else 1 << v for v in image]
    return tuple(map(image.index, range(m))), _Lazy(functools.partial(_union_of, to))


# the plans the calculus reuses across structures: subset maps, class maps and
# the bijections a homeomorphism search tries, at most 2^n + B(n) + n! per size
_shared_plan = functools.lru_cache(maxsize=4096)(_least_plan)


def _carried_least(plan, least) -> tuple[int, ...]:
    """A least-open vector carried along a map, given the map's plan: each
    new point's least open set is the image of the least open set of the
    first point sent to it; a point whose image is None is dropped."""
    firsts, images = plan
    return tuple([images[least[p]] for p in firsts])


def _topology_defect(n: int, family: frozenset) -> SemanticError | None:
    """Why the family of point sets is not closed like a topology on 0..n-1,
    as the error to raise, or None when it is: the empty or full set
    missing, then the first ordered pair whose union or intersection is
    missing.  Each id in the family gets one bit, so ids outside 0..n-1
    (which a congruence file may hold until its carrier check) cost nothing,
    and the full set is missing, unbuilt, while fewer than n ids are listed.
    Each member is the union of its points' least members, so the family is
    closed exactly when each member joined with each least member is one: a
    test linear in the family.  The pair scan runs only to name a defect."""
    ids = frozenset().union(*family)
    if frozenset() not in family or len(ids) < n or frozenset(range(n)) not in family:
        return MissingEmptyOrFull("a topology contains the empty and full sets")
    index = {p: i for i, p in enumerate(ids)}
    masked = {_bitmask(index[p] for p in u): u for u in family}
    least = set(_least_opens(len(ids), masked))
    if all(a | u in masked for a in masked for u in least):
        return None
    for a in masked:
        for b in masked:
            if a | b not in masked:
                return NotClosedUnderUnion(f"{sorted(masked[a])} | {sorted(masked[b])} missing")
            if a & b not in masked:
                return NotClosedUnderIntersection(f"{sorted(masked[a])} & {sorted(masked[b])} missing")
    return None


def space(n: int, opens) -> FiniteSpace:
    """The space with the given open sets, after checking that they form a
    topology on 0..n-1: every set in range, then `_topology_defect`."""
    if n < 1:
        raise SemanticError("spaces have non-empty point sets")
    family = frozenset(frozenset(u) for u in opens)
    for u in family:
        if not all(0 <= p < n for p in u):
            raise SemanticError(f"open set {sorted(u)} out of range")
    defect = _topology_defect(n, family)
    if defect:
        raise defect
    return FiniteSpace(n, _least_opens(n, map(_bitmask, family)))


def preorder_space(n: int, pairs) -> FiniteSpace:
    """The space whose specialization preorder is the reflexive-transitive
    closure of the pairs (p, q), each putting q in p's least open set."""
    reach = [1 << p for p in range(n)]
    for p, q in pairs:
        reach[p] |= 1 << q
    return FiniteSpace(n, _transitive(reach))


def indiscrete_space(n: int) -> FiniteSpace:
    return FiniteSpace(n, (2 ** n - 1,) * n)


def discrete_space(n: int) -> FiniteSpace:
    return FiniteSpace(n, tuple(1 << p for p in range(n)))


def subspace(x: FiniteSpace, subset) -> FiniteSpace:
    """Relative topology on sorted(set(subset)), relabelled to 0..|S|-1: each
    point's least open set is its old one cut down to the subset."""
    sub = _positions(subset, x.n)
    return FiniteSpace(len(sub), _carried_least(_shared_plan(_subset_image(x.n, sub), len(sub)), x.min_opens))


def relabel_space(x: FiniteSpace, perm) -> FiniteSpace:
    require_permutation(perm, x.n)
    return FiniteSpace(x.n, _carried_least(_least_plan(perm, x.n), x.min_opens))


T_SPACE = space(1, [[], [0]])
S2 = space(2, [[], [0], [0, 1]])
I2 = indiscrete_space(2)
D2 = discrete_space(2)


# ---------------------------------------------------------------------------
# Isomorphism and homeomorphism
# ---------------------------------------------------------------------------

def carries_edges(g: FiniteGraph, h: FiniteGraph, perm) -> bool:
    """Whether the bijection perm sends the edges of g exactly onto those of h."""
    return _carried(g.n, g.mask, perm, h.n) == h.mask


def carries_opens(x: FiniteSpace, y: FiniteSpace, perm) -> bool:
    """Whether the bijection perm sends the opens of x exactly onto those of y,
    that is, each point's least open set onto its image's."""
    return _carried_least(_shared_plan(tuple(perm), y.n), x.min_opens) == y.min_opens


def _key_respecting(xkeys, ykeys):
    """Every bijection perm with ykeys[perm[p]] == xkeys[p], in lexicographic
    order: point p tries, in ascending order, the unused targets sharing its key."""
    n = len(xkeys)
    targets = [[q for q in range(n) if ykeys[q] == key] for key in xkeys]
    perm = [0] * n
    used = [False] * n

    def extend(p):
        if p == n:
            yield tuple(perm)
            return
        for q in targets[p]:
            if not used[q]:
                used[q] = True
                perm[p] = q
                yield from extend(p + 1)
                used[q] = False

    return extend(0)


def _least_carrying(x, y, carries):
    """The least permutation keeping each point's point_key that carries x onto y, or None."""
    xkeys, ykeys = x.point_keys(), y.point_keys()
    if sorted(xkeys) != sorted(ykeys):
        return None
    return next((perm for perm in _key_respecting(xkeys, ykeys) if carries(x, y, perm)), None)


def automorphisms(x, carries) -> list[tuple[int, ...]]:
    """Every permutation carrying x onto itself, in lexicographic order."""
    keys = x.point_keys()
    return [perm for perm in _key_respecting(keys, keys) if carries(x, x, perm)]


def iso_graphs(g: FiniteGraph, h: FiniteGraph):
    """Edge-preserving-both-ways bijection g -> h, or None.

    Deterministic: the lexicographically least witness is returned.
    """
    if g.policy != h.policy:
        raise PolicyMismatch("cannot compare graphs under different loop policies")
    if g.n != h.n or g.mask.bit_count() != h.mask.bit_count():
        return None
    if g.n > ISO_BOUND:
        raise BoundExceeded(f"isomorphism testing capped at n <= {ISO_BOUND}")
    return _least_carrying(g, h, carries_edges)


def homeo_spaces(x: FiniteSpace, y: FiniteSpace):
    """Open-to-open bijection x -> y, or None; least witness."""
    if x.n != y.n or len(x._open_masks) != len(y._open_masks):
        return None
    if x.n > ISO_BOUND:
        raise BoundExceeded(f"homeomorphism testing capped at n <= {ISO_BOUND}")
    return _least_carrying(x, y, carries_opens)


# ---------------------------------------------------------------------------
# Enumeration up to isomorphism / homeomorphism
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _pair_slots(n: int, policy: str) -> tuple[tuple[int, int], ...]:
    """Every admissible pair of n vertices in lexicographic (slot) order."""
    if policy == LOOPS:
        return tuple((a, b) for a in range(n) for b in range(a, n))
    return tuple((a, b) for a in range(n) for b in range(a + 1, n))


def enumerate_graphs(n: int, policy: str) -> list[FiniteGraph]:
    """One canonical representative per isomorphism class, sorted: of each
    orbit of edge masks under the permutations of the vertices, the least.
    The bound is read at each call; the classes of a size are found once per
    process, and each call gets its own list of them."""
    limit = _env_bound(GRAPH_ENUM_BOUND)
    if n > limit:
        raise BoundExceeded(f"graph enumeration capped at n <= {limit}")
    return list(_graph_classes(n, policy))


@functools.lru_cache(maxsize=64)
def _graph_classes(n: int, policy: str) -> tuple[FiniteGraph, ...]:
    """`enumerate_graphs` without its bound.

    Masks are scanned in ascending order and each unseen one is a
    representative, because every smaller mask's orbit is marked already.
    Its orbit is marked in one pass over per-slot tables of images: zip
    gives, per permutation, the images of its slots, and their sum is that
    permutation's image of the mask.  The empty mask, where the scan starts,
    marks nothing: zip of no tables is empty, and the scan never returns there.
    """
    slots = _pair_slots(n, policy)
    index = {pair: i for i, pair in enumerate(slots)}
    perms = list(itertools.permutations(range(n)))
    # per scanned slot, the bit of its image under each vertex permutation
    columns = [tuple(1 << index[_norm_pair(p[a], p[b])] for p in perms) for a, b in slots]
    # each scanned slot's bit in the edge mask (the diagonal slots are skipped under noloops)
    bits = [1 << _slot(n, a, b) for a, b in slots]
    seen = bytearray(2 ** len(slots))
    reps = []
    mask = 0
    while mask >= 0:
        ones = [i for i in range(len(slots)) if mask >> i & 1]
        for image in map(sum, zip(*map(columns.__getitem__, ones))):
            seen[image] = 1
        reps.append(FiniteGraph(n, policy, sum(map(bits.__getitem__, ones))))
        mask = seen.find(0, mask + 1)  # -1 once every orbit is marked
    reps.sort(key=lambda g: (g.mask.bit_count(), g.encoding()))
    return tuple(reps)


def _preorders(k: int, floor):
    """Every least-open vector on k points whose masks hold floor's: the
    topologies on 0..k-1 coarser than the one floor generates.  Points take
    masks in order; p's holds p and floor[p], it must hold each earlier q's
    mask if it holds q, and lie inside it if q's holds p."""
    vec: list[int] = []

    def extend(p):
        if p == k:
            yield tuple(vec)
            return
        need, cap = floor[p] | 1 << p, 2 ** k - 1
        for u in vec:
            if u >> p & 1:
                cap &= u
        if need & ~cap:
            return
        free = extra = cap & ~need
        while True:  # each submask of free, down to 0
            u = need | extra
            if all(not u >> q & 1 or not vec[q] & ~u for q in range(p)):
                vec.append(u)
                yield from extend(p + 1)
                vec.pop()
            if not extra:
                return
            extra = (extra - 1) & free

    return extend(0)


def enumerate_spaces(n: int) -> list[FiniteSpace]:
    """One canonical representative per homeomorphism class, sorted: of each
    orbit of topologies under the permutations of the points, the one whose
    sorted open masks are least.  The bound is read at each call; the classes
    of a size are found once per process, and each call gets its own list."""
    limit = _env_bound(SPACE_ENUM_BOUND)
    if n > limit:
        raise BoundExceeded(f"space enumeration capped at n <= {limit}")
    return list(_space_classes(n))


@functools.lru_cache(maxsize=64)
def _space_classes(n: int) -> tuple[FiniteSpace, ...]:
    """`enumerate_spaces` without its bound."""
    # per permutation: its inverse, and the image of every subset as a bitmask
    actions = []
    for perm in itertools.permutations(range(n)):
        image = [_bitmask(perm[q] for q in range(n) if m >> q & 1) for m in range(2 ** n)]
        actions.append((tuple(sorted(range(n), key=perm.__getitem__)), image))
    reps = []
    seen: set[tuple[int, ...]] = set()
    for least in _preorders(n, tuple(1 << p for p in range(n))):
        if least in seen:
            continue
        # each relabelled vector, with the image table of a permutation giving it
        orbit = {tuple(image[least[p]] for p in inverse): image for inverse, image in actions}
        seen.update(orbit)
        opens = _unions(least)
        reps.append(FiniteSpace(n, min(orbit, key=lambda v: sorted(orbit[v][u] for u in opens))))
    reps.sort(key=lambda x: (len(x.opens), x.encoding()))
    return tuple(reps)
