"""Sectional compression on Cartesian products: single compressions,
fixpoint iteration, compressed-set predicates and the coordinate weight
function.  The compressed-set generators and profile oracles live in
`staircase`.

Compressing a set with respect to a factor subset S replaces, inside every
cut parallel to the S coordinates, the set's intersection with an initial
segment of the subproduct order of the same size.  Fixpoints of all
single-factor compressions are rank-space downsets; fixpoints of every
proper-subset compression are the strongly compressed sets whose forced
block structure the geometry checkers verify.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .blockgeom import DominationCollection, block_lex_walk, block_occupancy
from .budget import Budget, HypothesisFailed, UsageError
from .graphs import Graph, VertexSet, cut_columns
from .orders import TotalOrder, order_box, rank_box
from .solver import DeltaSequence

__all__ = [
    "OrderFamily",
    "CompressionDidNotStabilize",
    "singleton_schedule",
    "proper_subset_schedule",
    "compress_once",
    "compress_to_fixpoint",
    "strongly_compress",
    "is_compressed",
    "is_strongly_compressed",
    "vertex_weight_table",
    "weight",
    "is_block_compressed",
    "is_slice_compressed",
]


class CompressionDidNotStabilize(HypothesisFailed):
    """The fixpoint iteration hit its cycle cap.  With schedule orders all
    consistent with one global order this cannot happen, so hitting the cap
    is evidence of an inconsistent schedule."""


class OrderFamily:
    """Per-subset total orders on the subproducts of one product graph.

    The lexicographic family is induced by per-factor orders; the
    block-lexicographic family by a validated domination collection (each
    subproduct order is the block-lex walk of the restricted collection).
    Each subset's order is kept as one id box: the subset's
    `graphs.cut_columns` with its rows in the order's walk of the
    subproduct's ids, so entry [p, c] is the vertex at place p of cut c.
    """

    def __init__(self, g: Graph, kind: str, factor_orders=(), collection=None):
        if g.factors is None:
            raise UsageError("order families live on product graphs")
        self._orders = tuple(factor_orders)
        if kind != "custom" and tuple(o.n for o in self._orders) != g.factor_shape:
            raise UsageError("one order per factor required, of the factor's size")
        self.g = g
        self.kind = kind
        self._dc = collection
        self._boxes: dict[tuple[int, ...], np.ndarray] = {}

    @classmethod
    def lexicographic(
        cls, g: Graph, factor_orders: Sequence[TotalOrder]
    ) -> "OrderFamily":
        return cls(g, "lex", factor_orders)

    @classmethod
    def block_lexicographic(
        cls, g: Graph, dc: DominationCollection
    ) -> "OrderFamily":
        if not dc.validated:
            raise UsageError("collection must pass validate() first")
        return cls(g, "block_lex", dc.factor_orders, dc)

    @classmethod
    def custom(
        cls, g: Graph, orders_by_subset: dict[tuple[int, ...], TotalOrder]
    ) -> "OrderFamily":
        """Explicit per-subset orders.  No consistency is implied; the
        fixpoint iteration's cycle cap is the safety net for families that
        violate the common-global-order hypothesis."""
        fam = cls(g, "custom")
        for s, order in orders_by_subset.items():
            fam._box(s, order.inverse)
        return fam

    @property
    def d(self) -> int:
        return len(self.g.factors)

    def _box(self, s: Sequence[int], walk: np.ndarray | None = None) -> np.ndarray:
        """The id box of subset s, from the family's own walk on s or, for
        a custom order, from `walk` (its subproduct ids by rank)."""
        key = tuple(sorted(set(int(i) for i in s)))
        if not key:
            raise UsageError("empty factor subset")
        if key[0] < 0 or key[-1] >= self.d:
            raise UsageError("factor subset out of range")
        if walk is None:
            box = self._boxes.get(key)
            if box is not None:
                return box
            if self.kind == "custom":
                raise UsageError(f"no order supplied for factor subset {key}")
            ranks = order_box([self._orders[i] for i in key])
            if self.kind == "lex":
                walk = ranks.ravel()
            else:
                walk = block_lex_walk(ranks, self._dc.restricted(key))
        cuts = cut_columns(self.g, key)
        if len(walk) != cuts.shape[0]:
            raise UsageError(f"order for subset {key} has wrong size")
        box = self._boxes[key] = cuts[walk]
        return box


def _ensure_family(g: Graph, orders) -> OrderFamily:
    if isinstance(orders, OrderFamily):
        if orders.g is not g and orders.g.digest != g.digest:
            raise UsageError("order family belongs to a different graph")
        return orders
    if isinstance(orders, DominationCollection):
        return OrderFamily.block_lexicographic(g, orders)
    return OrderFamily.lexicographic(g, list(orders))


def singleton_schedule(d: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(d))


def proper_subset_schedule(d: int) -> tuple[tuple[int, ...], ...]:
    """All nonempty proper factor subsets, singletons first."""
    out = []
    for size in range(1, d):
        out.extend(itertools.combinations(range(d), size))
    return tuple(out)


def compress_once(g: Graph, a, s: Sequence[int], orders) -> VertexSet:
    """One compression of `a` with respect to the factor subset `s`.

    Preserves cardinality.  When the subproduct order is optimal the
    induced edge count cannot decrease.
    """
    Budget.check()
    family = _ensure_family(g, orders)
    box = family._box(s)
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    counts = a.mask[box].sum(axis=0)
    out = np.empty(g.n, dtype=bool)
    out[box] = np.arange(box.shape[0])[:, None] < counts
    return VertexSet(out)


def compress_to_fixpoint(
    g: Graph,
    a,
    schedule: Sequence[Sequence[int]],
    orders,
) -> tuple[VertexSet, int]:
    """Apply the schedule cyclically until a full cycle changes nothing.

    Returns (stable set, cycles used).  The iteration is guaranteed to
    stabilize when every schedule order is consistent with one global
    order; the cycle cap of n * d cycles turns a violated hypothesis into
    a CompressionDidNotStabilize error instead of an endless loop.
    """
    family = _ensure_family(g, orders)
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    max_cycles = g.n * family.d
    schedule = [tuple(sorted(set(int(i) for i in s))) for s in schedule]
    if not schedule:
        raise UsageError("empty schedule")
    cycles = 0
    while True:
        if cycles > max_cycles:
            raise CompressionDidNotStabilize(
                f"no fixpoint after {max_cycles} cycles; the schedule orders are "
                "probably not consistent with a common global order"
            )
        changed = False
        for s in schedule:
            nxt = compress_once(g, a, s, family)
            if nxt != a:
                changed = True
                a = nxt
        cycles += 1
        if not changed:
            return a, cycles


def strongly_compress(g: Graph, a, orders) -> VertexSet:
    """Fixpoint of all proper-subset compressions."""
    family = _ensure_family(g, orders)
    out, _ = compress_to_fixpoint(g, a, proper_subset_schedule(family.d), family)
    return out


def is_compressed(g: Graph, a, orders) -> bool:
    """Stable under every single-factor compression."""
    family = _ensure_family(g, orders)
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    return all(
        compress_once(g, a, (i,), family) == a for i in range(family.d)
    )


def is_strongly_compressed(g: Graph, a, orders) -> bool:
    """Stable under compression by every nonempty proper factor subset."""
    family = _ensure_family(g, orders)
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    return all(
        compress_once(g, a, s, family) == a
        for s in proper_subset_schedule(family.d)
    )


# -- coordinate weights --------------------------------------------------------


def vertex_weight_table(g: Graph, deltas: Sequence[DeltaSequence]) -> np.ndarray:
    """Per-vertex weight: the sum over coordinates of the factor delta at
    the coordinate's rank.  Each delta-sequence must carry the factor order
    it was read from."""
    if g.factors is None:
        raise UsageError("weights live on product graphs")
    if len(deltas) != len(g.factors):
        raise UsageError("one delta-sequence per factor required")
    w = np.zeros((), dtype=np.int64)
    for d in deltas:
        if d.source_order is None:
            raise UsageError("delta-sequence must carry its source order")
        w = np.add.outer(w, np.asarray(d.values, dtype=np.int64))
    # w is laid out by ranks, as the rank box is
    table = np.empty(g.n, dtype=np.int64)
    table[rank_box(g, [d.source_order for d in deltas])] = w
    return table


def weight(g: Graph, a, deltas: Sequence[DeltaSequence]) -> int:
    """Total weight of a set; equals its induced edge count whenever the
    set is compressed with respect to optimal factor orders."""
    table = vertex_weight_table(g, deltas)
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    return int(table[a.mask].sum())


# -- block and slice compression ------------------------------------------------


def _full_before_last_touched(g: Graph, dc: DominationCollection, a, rows: int) -> bool:
    """Whether, with the blocks in block order cut into `rows` equal rows,
    every block before its row's last touched block is full."""
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    inside, size = (grid.reshape(rows, -1) for grid in block_occupancy(g, dc, a))
    touched = inside > 0
    # a block before its row's last touched one has a touched block after it
    before_last = np.cumsum(touched[:, ::-1], axis=1)[:, ::-1] > touched
    return bool(np.all(inside[before_last] == size[before_last]))


def is_block_compressed(g: Graph, dc: DominationCollection, a) -> bool:
    """Every block before the last touched block (in the block order) is
    fully contained."""
    return _full_before_last_touched(g, dc, a, 1)


def is_slice_compressed(g: Graph, dc: DominationCollection, a) -> bool:
    """The block-compression condition holds inside every slice."""
    return _full_before_last_touched(g, dc, a, dc.segment_counts[0])
