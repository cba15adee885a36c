"""Product geometry over per-factor partitions: blocks, starts, bones,
skeletons, stacks and slices, plus the block-lexicographic orders built
from domination collections.

A block is a product of one segment per factor.  Within a block, vertices
are compared by that block's domination order (a significance permutation
over the factor rank tuples); across blocks, by the lexicographic order of
the block starts.  Because segment start ranks increase with the segment
index, the across-block comparison is just the lexicographic order of the
per-factor segment indices.

Everything here reads `orders.rank_box`, the product's vertex ids laid out
by factor ranks, where a block is a sub-box of rank intervals: block queries
are slices of it and the block-lex order is a walk of it.
`block_lex_prefix_counts` takes the same walk over flat rank indices, so
the order's prefix counts come from the factors without a product.

Block permutations are stored per full-product block; every subproduct
inherits its block orders by restriction, which keeps the nested-subset
consistency condition satisfied by construction.  Restriction has to be
independent of the dropped coordinates; `restricted` checks that.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .budget import SizeCapExceeded
from .graphs import Graph, VertexSet, induced_subgraph, integers, json_fields, json_typed
from .orders import TotalOrder, identity_perm, rank_box, restrict_perm
from .partitions import (
    FactorTable,
    Partition,
    factor_table,
    is_regular_partition,
    standard_monotonic_partition,
)
from .solver import (
    check_prefix_counts,
    delta_sequence,
    factor_profile_and_order,
)
from .staircase import product_prefix_counts

__all__ = [
    "DominationCollection",
    "uniform_collection",
    "standard_collection",
    "standard_block_domination",
    "block_of",
    "start_of",
    "bone",
    "skeleton",
    "stack",
    "slice_vertices",
    "block_lex_walk",
    "block_lex_order",
    "block_lex_prefix_counts",
    "standard_block_lex_order",
    "validate_regular_domination_collection",
    "block_occupancy",
    "check_skeleton_containment",
    "check_shared_bone_containment",
    "check_slice_block_consecutive",
    "check_consecutive_slices",
]

BlockId = tuple[int, ...]


@dataclass
class DominationCollection:
    """Per-factor partitions plus a domination permutation for every block
    of the full product.

    `factor_orders[i]` is the optimal order the i-th partition lives over
    (the same order object as partitions[i].order).  Block ids are tuples
    of 0-based segment indices, one per factor.
    """

    partitions: tuple[Partition, ...]
    block_perms: dict[BlockId, tuple[int, ...]]
    default_perm: Optional[tuple[int, ...]] = None
    validated: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.partitions = tuple(self.partitions)
        d = len(self.partitions)
        if d < 1:
            raise ValueError("need at least one factor partition")
        for bid, perm in self.block_perms.items():
            self._check_block_id(bid)
            if sorted(perm) != list(range(d)):
                raise ValueError(f"bad permutation {perm!r} for block {bid}")
        if self.default_perm is not None and sorted(self.default_perm) != list(
            range(d)
        ):
            raise ValueError("bad default permutation")

    def _check_block_id(self, bid: BlockId):
        if len(bid) != self.d:
            raise ValueError(f"block id {bid} has wrong arity")
        for i, j in enumerate(bid):
            if not 0 <= j < self.partitions[i].num_segments:
                raise ValueError(f"block id {bid} out of range in factor {i}")

    @property
    def d(self) -> int:
        return len(self.partitions)

    @property
    def factor_orders(self) -> tuple[TotalOrder, ...]:
        return tuple(p.order for p in self.partitions)

    @property
    def segment_counts(self) -> tuple[int, ...]:
        return tuple(p.num_segments for p in self.partitions)

    def block_ids(self) -> list[BlockId]:
        return list(itertools.product(*map(range, self.segment_counts)))

    @functools.cached_property
    def block_items(self) -> list[tuple[BlockId, tuple[int, ...]]]:
        """(block id, `perm_for` it) for every block, in block order, listed
        on first use."""
        return [(bid, self.perm_for(bid)) for bid in self.block_ids()]

    def perm_for(self, bid: BlockId) -> tuple[int, ...]:
        perm = self.block_perms.get(tuple(bid))
        return perm or self.default_perm or identity_perm(self.d)

    def block_segments(self, bid: BlockId) -> tuple[tuple[int, int], ...]:
        return tuple(self.partitions[i].segments[j] for i, j in enumerate(bid))

    def restricted(self, s: Sequence[int]) -> "DominationCollection":
        """Collection induced on the subproduct over the factor subset s.

        The permutation of a sub-block is the restriction of the full-block
        permutation; every full block projecting onto the sub-block must
        restrict identically, otherwise the subproduct orders would be
        ill-defined and a ValueError is raised.  Each restriction is built
        once per collection; it is validated once this collection is, and
        shares this collection's block class verdicts.
        """
        s_sorted = sorted(set(int(i) for i in s))
        if not s_sorted:
            raise ValueError("factor subset must be nonempty")
        if s_sorted[0] < 0 or s_sorted[-1] >= self.d:
            raise ValueError("factor subset out of range")
        cache = self.__dict__.setdefault("_restricted_cache", {})
        dc = cache.get(tuple(s_sorted))
        if dc is None:
            dc = cache[tuple(s_sorted)] = self._restrict(s_sorted)
            dc._class_verdicts = self.__dict__.setdefault("_class_verdicts", {})
        dc.validated = dc.validated or self.validated
        return dc

    def _restrict(self, s_sorted: list[int]) -> "DominationCollection":
        sub_perms: dict[BlockId, tuple[int, ...]] = {}
        restricted: dict[tuple[int, ...], tuple[int, ...]] = {}  # by full perm
        # itemgetter of one index gives a bare value: one index more keeps a tuple
        pick = operator.itemgetter(*s_sorted, s_sorted[0])
        for bid, full in self.block_items:
            perm = restricted.get(full)
            if perm is None:
                perm = restricted[full] = restrict_perm(full, s_sorted)
            sub_bid = pick(bid)[:-1]
            prev = sub_perms.setdefault(sub_bid, perm)
            if prev != perm:
                raise ValueError(
                    f"block permutations restrict inconsistently onto factors "
                    f"{s_sorted} at sub-block {sub_bid}: {prev} vs {perm}"
                )
        # projections of checked block ids carrying restrictions of checked
        # permutations pass __post_init__'s checks
        return DominationCollection._unchecked(
            tuple(self.partitions[i] for i in s_sorted), sub_perms
        )

    @classmethod
    def _unchecked(
        cls, partitions: tuple[Partition, ...], block_perms: dict[BlockId, tuple[int, ...]]
    ) -> "DominationCollection":
        """A collection whose block ids and permutations are built to pass
        __post_init__'s checks, made without running them."""
        dc = object.__new__(cls)
        dc.partitions = partitions
        dc.block_perms = block_perms
        dc.default_perm = None
        dc.validated = False
        return dc

    def to_json(self) -> dict:
        return {
            "partitions": [p.to_json() for p in self.partitions],
            "block_perms": {
                ",".join(str(j + 1) for j in bid): [x + 1 for x in perm]
                for bid, perm in sorted(self.block_perms.items())
            },
            "default_perm": [x + 1 for x in self.default_perm]
            if self.default_perm is not None
            else None,
        }

    @classmethod
    def from_json(cls, data: dict) -> "DominationCollection":
        (parts,) = json_fields(data, "a block collection", "partitions")
        parts = json_typed(parts, list, "a block collection's 'partitions'")
        parts = tuple(Partition.from_json(p) for p in parts)
        perms = json_typed(data.get("block_perms", {}), dict, "a block collection's 'block_perms'")
        perms = {
            tuple(int(t) - 1 for t in key.split(",")): tuple(
                x - 1 for x in integers(perm, "block permutations")
            )
            for key, perm in perms.items()
        }
        default = data.get("default_perm")
        if default is not None:
            default = tuple(x - 1 for x in integers(default, "default permutation"))
        return cls(parts, perms, default)

    # -- validation ---------------------------------------------------------

    def validate(
        self,
        gs: Graph | Sequence[Graph],
        *,
        check_block_optimality: bool = True,
    ) -> tuple[bool, list[str]]:
        """Structural validation on the factors `gs` or their product;
        optionally verifies that every block's domination order is optimal
        for the block-induced graph (`_verify_block_class`).  Sets
        `validated` on success so the order constructors will accept it.

        Restrictions are checked on the factor pairs alone: a restricted
        permutation is fixed by the relative order of each pair in it, so
        consistent pairs make every subset consistent.

        A block class, its segment graphs of more than one vertex in
        significance order, is decided once for a collection and all its
        restrictions.  Raises SizeCapExceeded when no block fails but
        `solver.check_prefix_counts` cannot decide some block (four or
        more nontrivial segment graphs past the subset DP's cap, or a table
        past `staircase.STACK_CELL_CAP` cells), and NoNestedSolutions when
        a block that misses the sandwich bound has a segment graph without
        nested solutions."""
        diags: list[str] = []
        ok = True
        factors = gs.factors if isinstance(gs, Graph) else tuple(gs)
        if factors is None or len(factors) != self.d:
            return False, ["graph is not a product with matching factor count"]
        for i, (f, p) in enumerate(zip(factors, self.partitions)):
            if p.n != f.n:
                ok = False
                diags.append(f"partition {i + 1} does not match factor size")
        if not ok:
            return False, diags
        try:
            if self.d > 2:
                for s in itertools.combinations(range(self.d), 2):
                    self.restricted(s)
        except ValueError as e:
            ok = False
            diags.append(str(e))
        undecided = None
        if check_block_optimality:
            segs = [factor_table(f, p).segments for f, p in zip(factors, self.partitions)]
            # a segment graph's digest, None on one vertex, which no class holds
            digests = [[s.g.digest if s.g.n > 1 else None for s in row] for row in segs]
            verdicts = self.__dict__.setdefault("_class_verdicts", {})
            for bid, perm in self.block_items:
                key = tuple(digests[i][bid[i]] for i in perm if digests[i][bid[i]])
                if key not in verdicts:
                    chosen = [segs[i][bid[i]] for i in perm if digests[i][bid[i]]]
                    try:
                        verdicts[key] = _verify_block_class(chosen)
                    except SizeCapExceeded as e:
                        verdicts[key] = e
                verdict = verdicts[key]
                if isinstance(verdict, SizeCapExceeded):
                    undecided = undecided or verdict
                elif not verdict[0]:
                    ok = False
                    diags.append(
                        f"block {bid}: domination order not optimal for the "
                        f"block graph (fails at m={verdict[1]})"
                    )
        if ok and undecided is not None:
            raise undecided
        if ok:
            self.validated = True
        return ok, diags


def _verify_block_class(chosen: Sequence[FactorTable]) -> tuple[bool, Optional[int]]:
    """Whether a block's domination order, lexicographic on its nontrivial
    segment graphs in identity orders (their tables `chosen`), is optimal,
    and if not, the first size where it fails, by `solver.check_prefix_counts`
    on the tables' L and profiles, which proves it from the sandwich bound
    without building the block where the prefix counts meet that bound."""
    graphs, profiles = [t.g for t in chosen], [t.profile for t in chosen]
    _, good, bad_m, _ = check_prefix_counts(graphs, product_prefix_counts(chosen), profiles)
    return good, bad_m


def uniform_collection(
    partitions: Sequence[Partition], perm: Optional[Sequence[int]] = None
) -> DominationCollection:
    """Same domination permutation on every block (identity by default,
    which makes every block order lexicographic)."""
    d = len(partitions)
    default = identity_perm(d) if perm is None else tuple(int(x) for x in perm)
    return DominationCollection(tuple(partitions), {}, default)


def standard_block_domination(sizes: Sequence[int]) -> tuple[int, ...]:
    """Significance permutation sorting factors by block segment size
    ascending, ties by factor index."""
    return tuple(sorted(range(len(sizes)), key=lambda i: (sizes[i], i)))


def standard_collection(
    gs: Sequence[Graph], partitions: Optional[Sequence[Partition]] = None
) -> DominationCollection:
    """Standard monotonic partitions with the size-sorted block domination
    permutation on every block (the standard block-lexicographic setup)."""
    if partitions is None:
        parts = []
        for f in gs:
            prof, order = factor_profile_and_order(f)
            parts.append(standard_monotonic_partition(delta_sequence(prof, order)))
        partitions = parts
    partitions = tuple(partitions)
    if not partitions:
        raise ValueError("need at least one factor partition")
    sizes = [[b - a + 1 for a, b in p.segments] for p in partitions]
    ids = itertools.product(*(range(len(s)) for s in sizes))
    by_sizes: dict[tuple[int, ...], tuple[int, ...]] = {}
    perms = {
        bid: by_sizes.get(sz) or by_sizes.setdefault(sz, standard_block_domination(sz))
        for bid, sz in zip(ids, itertools.product(*sizes))
    }
    # every block id of the partitions, each with a sorting permutation
    return DominationCollection._unchecked(partitions, perms)


# -- geometric queries --------------------------------------------------------


def _rank_box(g: Graph, dc: DominationCollection) -> np.ndarray:
    """`orders.rank_box` of g under the collection's factor orders, built
    anew on each call: no command queries one collection often enough for a
    memo to pay."""
    return rank_box(g, dc.factor_orders)


def _cuts(dc: DominationCollection) -> list[list[slice]]:
    """Per factor, its segments as slices of a rank axis."""
    return [[slice(a - 1, b) for a, b in p.segments] for p in dc.partitions]


def _block_box(g: Graph, dc: DominationCollection, bid: BlockId) -> np.ndarray:
    dc._check_block_id(tuple(bid))
    cuts = _cuts(dc)
    return _rank_box(g, dc)[tuple(cuts[i][j] for i, j in enumerate(bid))]


def block_of(g: Graph, dc: DominationCollection, v: int) -> BlockId:
    ranks = np.argwhere(_rank_box(g, dc) == v)[0] + 1
    return tuple(
        int(np.searchsorted(p.boundaries, r)) for p, r in zip(dc.partitions, ranks)
    )


def start_of(g: Graph, dc: DominationCollection, bid: BlockId) -> int:
    return int(_block_box(g, dc, bid).flat[0])


def _bone_ids(box: np.ndarray, i: int) -> np.ndarray:
    """A block box's entries along axis i, at the start of every other."""
    return np.moveaxis(box, i, 0).reshape(box.shape[i], -1)[:, 0]


def bone(g: Graph, dc: DominationCollection, bid: BlockId, i: int) -> VertexSet:
    """Segment i of the block crossed with the other coordinates pinned at
    the segment starts."""
    box = _block_box(g, dc, bid)
    if not 0 <= i < dc.d:
        raise ValueError("bone direction out of range")
    return VertexSet.from_ids(g.n, _bone_ids(box, i))


def skeleton(g: Graph, dc: DominationCollection, bid: BlockId) -> VertexSet:
    """Union of the block's bones: its vertices with at most one coordinate
    off the segment starts."""
    box = _block_box(g, dc, bid)
    return VertexSet.from_ids(g.n, np.concatenate([_bone_ids(box, i) for i in range(dc.d)]))


def block_vertices(g: Graph, dc: DominationCollection, bid: BlockId) -> VertexSet:
    return VertexSet.from_ids(g.n, _block_box(g, dc, bid).ravel())


def block_graph_and_order(
    g: Graph, dc: DominationCollection, bid: BlockId
) -> tuple[Graph, TotalOrder]:
    """Graph induced by a block together with its domination order."""
    box = _block_box(g, dc, bid)
    ids = np.sort(box, axis=None)
    sub, _ = induced_subgraph(g, ids.tolist())
    walk = box.transpose(dc.perm_for(bid)).ravel()
    return sub, TotalOrder.from_sequence(np.searchsorted(ids, walk))


def stack(g: Graph, dc: DominationCollection, direction: int, anchor) -> VertexSet:
    """Union of the blocks obtained by varying the block coordinate in the
    given direction, anchored at a vertex or block id."""
    if not 0 <= direction < dc.d:
        raise ValueError("stack direction out of range")
    bid = tuple(anchor) if not isinstance(anchor, (int, np.integer)) else block_of(
        g, dc, int(anchor)
    )
    dc._check_block_id(bid)
    cuts = _cuts(dc)
    sub = tuple(slice(None) if i == direction else cuts[i][j] for i, j in enumerate(bid))
    return VertexSet.from_ids(g.n, _rank_box(g, dc)[sub].ravel())


def slice_vertices(g: Graph, dc: DominationCollection, q: int) -> VertexSet:
    """Union of the blocks whose first factor segment index is q (0-based)."""
    if not 0 <= q < dc.partitions[0].num_segments:
        raise ValueError("slice index out of range")
    return VertexSet.from_ids(g.n, _rank_box(g, dc)[_cuts(dc)[0][q]].ravel())


# -- block-lexicographic orders -----------------------------------------------


def _orderable_factors(gs: Graph | Sequence[Graph], dc: DominationCollection):
    if not dc.validated:
        raise ValueError(
            "domination collection must pass validate() before building orders"
        )
    factors = gs.factors if isinstance(gs, Graph) else gs
    if factors is None or len(factors) != dc.d:
        raise ValueError("graph does not match the collection")
    return factors


def block_lex_walk(box: np.ndarray, dc: DominationCollection) -> np.ndarray:
    """The entries of a box over the factors' ranks in block-lex order:
    blocks in the lexicographic order of their segment indices, which is
    that of their starts, each read in its permutation's significance
    order."""
    return np.concatenate(
        [
            box[sub].transpose(perm).ravel()
            for sub, (_, perm) in zip(itertools.product(*_cuts(dc)), dc.block_items)
        ]
    )


def block_lex_order(g: Graph, dc: DominationCollection) -> TotalOrder:
    """Within a block, the block's domination order; across blocks, the
    lexicographic order of block starts.  Requires a validated collection."""
    _orderable_factors(g, dc)
    return TotalOrder.from_sequence(block_lex_walk(_rank_box(g, dc), dc))


def block_lex_prefix_counts(
    gs: Graph | Sequence[Graph], dc: DominationCollection
) -> np.ndarray:
    """Prefix counts of `block_lex_order` on the product of `gs` (the
    factors or their product) by `staircase.product_prefix_counts`, from
    the same walk as the order, taken over flat rank indices.  No product,
    rank box or order is built.  Requires a validated collection."""
    factors = _orderable_factors(gs, dc)
    shape = [p.n for p in dc.partitions]
    sequence = block_lex_walk(np.arange(math.prod(shape)).reshape(shape), dc)
    tables = [factor_table(f, p) for f, p in zip(factors, dc.partitions)]
    return product_prefix_counts(tables, None, sequence)


def standard_block_lex_order(
    g: Graph, dc: Optional[DominationCollection] = None
) -> tuple[TotalOrder, DominationCollection]:
    """Standard block-lexicographic order of a product: standard monotonic
    partitions with size-sorted block domination."""
    if g.factors is None:
        raise ValueError("requires a product graph")
    if dc is None:
        dc = standard_collection(g.factors)
    ok, diags = dc.validate(g)
    if not ok:
        raise ValueError("standard collection failed validation: " + "; ".join(diags))
    return block_lex_order(g, dc), dc


def validate_regular_domination_collection(
    g: Graph, dc: DominationCollection
) -> tuple[bool, list[str]]:
    """The two regularity conditions: middle factors' partitions regular,
    and the two corner blocks of the middle subproduct carry the same
    domination permutation."""
    diags: list[str] = []
    ok = True
    d = dc.d
    for i in range(1, d - 1):
        if not is_regular_partition(g.factors[i], dc.partitions[i]):
            ok = False
            diags.append(f"partition of factor {i + 1} is not regular")
    if d >= 3:
        middle = list(range(1, d - 1))
        try:
            sub_dc = dc.restricted(middle)
        except ValueError as e:
            return False, diags + [str(e)]
        first = tuple(0 for _ in middle)
        last = tuple(dc.partitions[i].num_segments - 1 for i in middle)
        p1 = sub_dc.perm_for(first)
        p2 = sub_dc.perm_for(last)
        if p1 != p2:
            ok = False
            diags.append(
                f"corner blocks of the middle subproduct disagree: {p1} vs {p2}"
            )
    return ok, diags


# -- occupancy and the structural implications of strong compression ----------


def block_occupancy(
    g: Graph, dc: DominationCollection, a: VertexSet
) -> dict[BlockId, tuple[int, int]]:
    """Per block, in block order: (members of a inside, block size)."""
    box = _rank_box(g, dc)
    # a's members and all vertices, each summed over the blocks' rank intervals
    sums = np.stack([a.mask[box], np.ones(box.shape, dtype=bool)])
    for i, p in enumerate(dc.partitions):
        sums = np.add.reduceat(sums, [s - 1 for s, _ in p.segments], axis=i + 1, dtype=np.int64)
    counts, sizes = sums.reshape(2, -1).tolist()
    return dict(zip(dc.block_ids(), zip(counts, sizes)))


def _stacks(dc: DominationCollection, direction: int) -> list[list[BlockId]]:
    counts = dc.segment_counts
    other = [i for i in range(dc.d) if i != direction]
    stacks = []
    for fixed in itertools.product(*(range(counts[i]) for i in other)):
        blocks = []
        for j in range(counts[direction]):
            bid = [0] * dc.d
            for pos, i in enumerate(other):
                bid[i] = fixed[pos]
            bid[direction] = j
            blocks.append(tuple(bid))
        stacks.append(blocks)
    return stacks


def check_skeleton_containment(
    g: Graph, dc: DominationCollection, a: VertexSet
) -> list[str]:
    """For consecutive blocks B1 < B2 of any stack: if a touches B2 then
    B1's skeleton lies inside a.  Violations are returned (empty when the
    implication holds; expected to hold for strongly compressed sets)."""
    occ = block_occupancy(g, dc, a)
    out = []
    for direction in range(dc.d):
        for blocks in _stacks(dc, direction):
            for b1, b2 in zip(blocks, blocks[1:]):
                if occ[b2][0] > 0 and not skeleton(g, dc, b1).issubset(a):
                    out.append(
                        f"stack dir {direction}: {b2} touched but skeleton of {b1} "
                        "not contained"
                    )
    return out


def check_shared_bone_containment(
    g: Graph, dc: DominationCollection, a: VertexSet
) -> list[str]:
    """For blocks B1 < B2 sharing the i-th bone (same i-th segment): if
    bone(B2, i) lies inside a then all of B1 does."""
    out = []
    blocks = dc.block_ids()
    occ = block_occupancy(g, dc, a)
    bone_inside: dict[tuple[BlockId, int], bool] = {}
    for x, b1 in enumerate(blocks):
        c, s = occ[b1]
        if c == s:
            continue
        for b2 in blocks[x + 1 :]:
            for i in range(dc.d):
                if b1[i] != b2[i]:
                    continue
                inside = bone_inside.get((b2, i))
                if inside is None:
                    inside = bone(g, dc, b2, i).issubset(a)
                    bone_inside[(b2, i)] = inside
                if inside:
                    out.append(
                        f"blocks {b1} < {b2} share bone {i}; bone of {b2} "
                        f"inside but {b1} not fully contained"
                    )
    return out


def check_slice_block_consecutive(
    g: Graph, dc: DominationCollection, a: VertexSet
) -> list[str]:
    """Within a slice: a not-fully-contained block below a touched block
    must be its immediate predecessor in the slice's block order."""
    occ = block_occupancy(g, dc, a)
    out = []
    for q in range(dc.partitions[0].num_segments):
        blocks = [bid for bid in dc.block_ids() if bid[0] == q]
        for x, b1 in enumerate(blocks):
            c1, s1 = occ[b1]
            if c1 == s1:
                continue
            for y in range(x + 1, len(blocks)):
                b2 = blocks[y]
                if occ[b2][0] > 0 and y != x + 1:
                    out.append(
                        f"slice {q}: {b1} partial, {b2} touched, not consecutive"
                    )
    return out


def check_consecutive_slices(
    g: Graph, dc: DominationCollection, a: VertexSet
) -> list[str]:
    """Structure forced across a partially filled slice followed by a
    touched one (hypothesis: the set is strongly compressed AND slice
    compressed; callers gate on that): only the first stack of the later
    slice is touched, all but the last stack of the earlier slice are full,
    and the two slices are adjacent."""
    occ = block_occupancy(g, dc, a)
    out = []
    nslices = dc.partitions[0].num_segments
    d = dc.d

    def slice_blocks(q):
        return [bid for bid in dc.block_ids() if bid[0] == q]

    def stacks_in_slice(q):
        # stacks in the last direction within slice q, ordered by their
        # first block
        groups: dict[tuple, list[BlockId]] = {}
        for bid in slice_blocks(q):
            groups.setdefault(bid[: d - 1], []).append(bid)
        return [groups[k] for k in sorted(groups)]

    def full(bids):
        return all(occ[b][0] == occ[b][1] for b in bids)

    def touched(bids):
        return any(occ[b][0] > 0 for b in bids)

    for p in range(nslices):
        for q in range(p + 1, nslices):
            sp = slice_blocks(p)
            sq = slice_blocks(q)
            if touched(sq) and not full(sp):
                if q != p + 1:
                    out.append(f"slices {p} and {q}: not consecutive")
                stacks_q = stacks_in_slice(q)
                for st in stacks_q[1:]:
                    if touched(st):
                        out.append(
                            f"slice {q}: stack {st[0][: d - 1]} beyond the first is touched"
                        )
                stacks_p = stacks_in_slice(p)
                for st in stacks_p[:-1]:
                    if not full(st):
                        out.append(
                            f"slice {p}: stack {st[0][: d - 1]} before the last is not full"
                        )
    return out
