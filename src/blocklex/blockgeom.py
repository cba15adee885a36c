"""Product geometry over per-factor partitions: blocks, starts, bones,
skeletons, stacks and slices, plus the block-lexicographic orders built
from domination collections.

A block is a product of one segment per factor.  Within a block, vertices
are compared by that block's domination order (a significance permutation
over the factor rank tuples); across blocks, by the lexicographic order of
the block starts.  Because segment start ranks increase with the segment
index, the across-block comparison is just the lexicographic order of the
per-factor segment indices.

Block permutations are stored per full-product block; every subproduct
inherits its block orders by restriction, which keeps the nested-subset
consistency condition satisfied by construction.  Restriction has to be
independent of the dropped coordinates; `restricted` checks that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, VertexSet, induced_subgraph, mixed_radix
from .orders import (
    TotalOrder,
    _rank_matrix,
    identity_perm,
    order_by_keys,
    restrict_perm,
)
from .partitions import (
    Partition,
    is_regular_partition,
    standard_monotonic_partition,
)
from .solver import (
    FULL_ENUM_CAP,
    delta_sequence,
    exact_profile,
    factor_profile_and_order,
    verify_order_optimal,
)

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
    "block_lex_order",
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
        return [
            tuple(b)
            for b in itertools.product(*(range(k) for k in self.segment_counts))
        ]

    def perm_for(self, bid: BlockId) -> tuple[int, ...]:
        perm = self.block_perms.get(tuple(bid))
        if perm is not None:
            return perm
        if self.default_perm is not None:
            return self.default_perm
        return identity_perm(self.d)

    def block_segments(self, bid: BlockId) -> tuple[tuple[int, int], ...]:
        return tuple(self.partitions[i].segments[j] for i, j in enumerate(bid))

    def block_size(self, bid: BlockId) -> int:
        out = 1
        for a, b in self.block_segments(bid):
            out *= b - a + 1
        return out

    def restricted(self, s: Sequence[int]) -> "DominationCollection":
        """Collection induced on the subproduct over the factor subset s.

        The permutation of a sub-block is the restriction of the full-block
        permutation; every full block projecting onto the sub-block must
        restrict identically, otherwise the subproduct orders would be
        ill-defined and a ValueError is raised.
        """
        s_sorted = sorted(set(int(i) for i in s))
        if not s_sorted:
            raise ValueError("factor subset must be nonempty")
        if s_sorted[0] < 0 or s_sorted[-1] >= self.d:
            raise ValueError("factor subset out of range")
        sub_perms: dict[BlockId, tuple[int, ...]] = {}
        for bid in self.block_ids():
            sub_bid = tuple(bid[i] for i in s_sorted)
            perm = restrict_perm(self.perm_for(bid), s_sorted)
            prev = sub_perms.get(sub_bid)
            if prev is None:
                sub_perms[sub_bid] = perm
            elif prev != perm:
                raise ValueError(
                    f"block permutations restrict inconsistently onto factors "
                    f"{s_sorted} at sub-block {sub_bid}: {prev} vs {perm}"
                )
        dc = DominationCollection(
            tuple(self.partitions[i] for i in s_sorted), sub_perms
        )
        dc.validated = self.validated
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
        parts = tuple(Partition.from_json(p) for p in data["partitions"])
        perms = {
            tuple(int(t) - 1 for t in key.split(",")): tuple(x - 1 for x in perm)
            for key, perm in data.get("block_perms", {}).items()
        }
        default = data.get("default_perm")
        if default is not None:
            default = tuple(x - 1 for x in default)
        return cls(parts, perms, default)

    # -- validation ---------------------------------------------------------

    def validate(
        self,
        g: Graph,
        *,
        check_block_optimality: bool = True,
    ) -> tuple[bool, list[str]]:
        """Structural validation; optionally verifies that every block's
        domination order is optimal for the block-induced graph (feasible
        when blocks stay under the enumeration cap).  Sets `validated` on
        success so the order constructors will accept the collection."""
        diags: list[str] = []
        ok = True
        if g.factors is None or len(g.factors) != self.d:
            return False, ["graph is not a product with matching factor count"]
        for i, (f, p) in enumerate(zip(g.factors, self.partitions)):
            if p.n != f.n:
                ok = False
                diags.append(f"partition {i + 1} does not match factor size")
        if not ok:
            return False, diags
        try:
            for k in range(1, self.d):
                for s in itertools.combinations(range(self.d), k):
                    self.restricted(s)
        except ValueError as e:
            ok = False
            diags.append(str(e))
        if check_block_optimality:
            for bid in self.block_ids():
                size = self.block_size(bid)
                if size > FULL_ENUM_CAP:
                    ok = False
                    diags.append(
                        f"block {bid} has {size} vertices, beyond the cap {FULL_ENUM_CAP}; "
                        "cannot verify its domination order"
                    )
                    continue
                sub, order = block_graph_and_order(g, self, bid)
                prof = exact_profile(sub, "full", with_witnesses=False)
                good, bad_m = verify_order_optimal(sub, order, prof)
                if not good:
                    ok = False
                    diags.append(
                        f"block {bid}: domination order not optimal for the "
                        f"block graph (fails at m={bad_m})"
                    )
        if ok:
            self.validated = True
        return ok, diags


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
    perms: dict[BlockId, tuple[int, ...]] = {}
    counts = [p.num_segments for p in partitions]
    for bid in itertools.product(*(range(k) for k in counts)):
        sizes = [
            p.segments[j][1] - p.segments[j][0] + 1
            for p, j in zip(partitions, bid)
        ]
        perms[tuple(bid)] = standard_block_domination(sizes)
    return DominationCollection(partitions, perms)


# -- geometric queries --------------------------------------------------------


class _Geometry:
    """Cached per-(graph, collection) vertex tables.

    ranks[v, i] is the rank of v's i-th coordinate in the i-th factor
    order, and block_index[v, i] the index of the segment holding it.  The
    composite block index is the mixed-radix encoding of the segment index
    tuple with factor 0 most significant, so composite order equals the
    block order (lexicographic on starts).  within[v] lists v's ranks in
    the significance order of its block's domination permutation."""

    __slots__ = ("ranks", "block_index", "radix", "composite", "sizes", "within")

    def __init__(self, g: Graph, dc: DominationCollection):
        self.ranks = _rank_matrix(g, dc.factor_orders)
        self.block_index = np.stack(
            [
                np.searchsorted(p.boundaries, self.ranks[:, i])
                for i, p in enumerate(dc.partitions)
            ],
            axis=1,
        )
        self.radix = mixed_radix(dc.segment_counts)
        self.composite = self.block_index @ self.radix
        self.sizes = np.bincount(
            self.composite, minlength=math.prod(dc.segment_counts)
        )
        perms = np.array([dc.perm_for(bid) for bid in dc.block_ids()])
        self.within = np.take_along_axis(self.ranks, perms[self.composite], axis=1)

    def in_block(self, bid: BlockId) -> np.ndarray:
        return self.composite == int(np.dot(bid, self.radix))


def _geometry(g: Graph, dc: DominationCollection) -> _Geometry:
    cache = getattr(dc, "_geom_cache", None)
    if cache is None:
        cache = {}
        dc._geom_cache = cache
    geo = cache.get(g.digest)
    if geo is None:
        geo = _Geometry(g, dc)
        cache[g.digest] = geo
    return geo


def block_of(g: Graph, dc: DominationCollection, v: int) -> BlockId:
    geo = _geometry(g, dc)
    return tuple(int(x) for x in geo.block_index[v])


def start_of(g: Graph, dc: DominationCollection, bid: BlockId) -> int:
    dc._check_block_id(tuple(bid))
    coords = [
        dc.partitions[i].order.vertex_at(dc.partitions[i].segments[j][0])
        for i, j in enumerate(bid)
    ]
    return g.vertex_id(coords)


def _block_and_offsets(
    g: Graph, dc: DominationCollection, bid: BlockId
) -> tuple[np.ndarray, np.ndarray]:
    """The block's vertex mask, and per vertex and factor whether the
    coordinate's rank differs from the start rank of the block's segment."""
    dc._check_block_id(tuple(bid))
    geo = _geometry(g, dc)
    starts = [p.segments[j][0] for p, j in zip(dc.partitions, bid)]
    return geo.in_block(bid), geo.ranks != np.asarray(starts)


def bone(g: Graph, dc: DominationCollection, bid: BlockId, i: int) -> VertexSet:
    """Segment i of the block crossed with the other coordinates pinned at
    the segment starts."""
    inside, off = _block_and_offsets(g, dc, bid)
    if not 0 <= i < dc.d:
        raise ValueError("bone direction out of range")
    off[:, i] = False
    return VertexSet(inside & ~off.any(axis=1))


def skeleton(g: Graph, dc: DominationCollection, bid: BlockId) -> VertexSet:
    """Union of the block's bones: its vertices with at most one coordinate
    off the segment starts."""
    inside, off = _block_and_offsets(g, dc, bid)
    return VertexSet(inside & (off.sum(axis=1) <= 1))


def block_vertices(g: Graph, dc: DominationCollection, bid: BlockId) -> VertexSet:
    dc._check_block_id(tuple(bid))
    return VertexSet(_geometry(g, dc).in_block(bid))


def block_graph_and_order(
    g: Graph, dc: DominationCollection, bid: BlockId
) -> tuple[Graph, TotalOrder]:
    """Graph induced by a block together with its domination order."""
    ids = block_vertices(g, dc, bid).ids()
    sub, _ = induced_subgraph(g, ids.tolist())
    return sub, order_by_keys(_geometry(g, dc).within[ids])


def stack(g: Graph, dc: DominationCollection, direction: int, anchor) -> VertexSet:
    """Union of the blocks obtained by varying the block coordinate in the
    given direction, anchored at a vertex or block id."""
    if not 0 <= direction < dc.d:
        raise ValueError("stack direction out of range")
    bid = tuple(anchor) if not isinstance(anchor, (int, np.integer)) else block_of(
        g, dc, int(anchor)
    )
    dc._check_block_id(bid)
    other = [k for k in range(dc.d) if k != direction]
    rows = _geometry(g, dc).block_index[:, other]
    return VertexSet(np.all(rows == np.asarray(bid)[other], axis=1))


def slice_vertices(g: Graph, dc: DominationCollection, q: int) -> VertexSet:
    """Union of the blocks whose first factor segment index is q (0-based)."""
    if not 0 <= q < dc.partitions[0].num_segments:
        raise ValueError("slice index out of range")
    return VertexSet(_geometry(g, dc).block_index[:, 0] == q)


# -- block-lexicographic orders -----------------------------------------------


def block_lex_order(g: Graph, dc: DominationCollection) -> TotalOrder:
    """Within a block, the block's domination order; across blocks, the
    lexicographic order of block starts.  Requires a validated collection."""
    if not dc.validated:
        raise ValueError(
            "domination collection must pass validate() before building orders"
        )
    if g.factors is None or len(g.factors) != dc.d:
        raise ValueError("graph does not match the collection")
    geo = _geometry(g, dc)
    return order_by_keys(np.column_stack([geo.composite, geo.within]))


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
    geo = _geometry(g, dc)
    counts = np.bincount(geo.composite[a.mask], minlength=geo.sizes.shape[0])
    return dict(zip(dc.block_ids(), zip(counts.tolist(), geo.sizes.tolist())))


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
    for x, b1 in enumerate(blocks):
        for b2 in blocks[x + 1 :]:
            for i in range(dc.d):
                if b1[i] == b2[i]:
                    if bone(g, dc, b2, i).issubset(a):
                        c, s = occ[b1]
                        if c != s:
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
