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

from .blockgeom import DominationCollection, block_lex_order, block_occupancy
from .graphs import Graph, VertexSet, split_ids, subproduct
from .orders import TotalOrder, lex_order
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


class CompressionDidNotStabilize(RuntimeError):
    """The fixpoint iteration hit its cycle cap.  With schedule orders all
    consistent with one global order this cannot happen, so hitting the cap
    is evidence of an inconsistent schedule."""


class OrderFamily:
    """Per-subset total orders on the subproducts of one product graph.

    The lexicographic family is induced by per-factor orders; the
    block-lexicographic family by a validated domination collection (each
    subproduct order is built from the restricted collection).
    """

    def __init__(self, g: Graph, kind: str, factor_orders=None, collection=None):
        if g.factors is None:
            raise ValueError("order families live on product graphs")
        self.g = g
        self.kind = kind
        self._orders = factor_orders
        self._dc = collection
        # per subset: (subproduct, its order, each vertex's rank in that
        # order, each vertex's cut id, number of cuts)
        self._cache: dict[tuple[int, ...], tuple] = {}

    @classmethod
    def lexicographic(
        cls, g: Graph, factor_orders: Sequence[TotalOrder]
    ) -> "OrderFamily":
        if len(factor_orders) != len(g.factors):
            raise ValueError("one order per factor required")
        return cls(g, "lex", factor_orders=tuple(factor_orders))

    @classmethod
    def block_lexicographic(
        cls, g: Graph, dc: DominationCollection
    ) -> "OrderFamily":
        if not dc.validated:
            raise ValueError("collection must pass validate() first")
        return cls(g, "block_lex", collection=dc)

    @classmethod
    def custom(
        cls, g: Graph, orders_by_subset: dict[tuple[int, ...], TotalOrder]
    ) -> "OrderFamily":
        """Explicit per-subset orders.  No consistency is implied; the
        fixpoint iteration's cycle cap is the safety net for families that
        violate the common-global-order hypothesis."""
        fam = cls(g, "custom")
        for s, order in orders_by_subset.items():
            key = tuple(sorted(set(int(i) for i in s)))
            sub = subproduct(g, key)
            if order.n != sub.n:
                raise ValueError(f"order for subset {key} has wrong size")
            fam._store(key, sub, order)
        return fam

    @property
    def d(self) -> int:
        return len(self.g.factors)

    @property
    def factor_orders(self) -> tuple[TotalOrder, ...]:
        if self.kind == "lex":
            return self._orders
        return self._dc.factor_orders

    def _store(self, key: tuple[int, ...], sub: Graph, order: TotalOrder) -> tuple:
        sub_id, cut_id, ncuts = split_ids(self.g, key)
        entry = (sub, order, order.ranks[sub_id], cut_id, ncuts)
        self._cache[key] = entry
        return entry

    def _entry(self, s: Sequence[int]) -> tuple:
        key = tuple(sorted(set(int(i) for i in s)))
        if not key:
            raise ValueError("empty factor subset")
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if self.kind == "custom":
            raise ValueError(f"no order supplied for factor subset {key}")
        sub = subproduct(self.g, key)
        if self.kind == "lex":
            order = lex_order(sub, [self._orders[i] for i in key])
        else:
            sub_dc = self._dc.restricted(key)
            order = block_lex_order(sub, sub_dc)
        return self._store(key, sub, order)

    def order_for(self, s: Sequence[int]) -> tuple[Graph, TotalOrder]:
        return self._entry(s)[:2]


def _ensure_family(g: Graph, orders) -> OrderFamily:
    if isinstance(orders, OrderFamily):
        if orders.g is not g and orders.g.digest != g.digest:
            raise ValueError("order family belongs to a different graph")
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
    family = _ensure_family(g, orders)
    key = tuple(sorted(set(int(i) for i in s)))
    if any(i < 0 or i >= family.d for i in key):
        raise ValueError("factor subset out of range")
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    _, _, sub_rank, cut_id, ncuts = family._entry(key)
    counts = np.bincount(cut_id[a.mask], minlength=ncuts)
    return VertexSet(sub_rank <= counts[cut_id])


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
        raise ValueError("empty schedule")
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
        raise ValueError("weights live on product graphs")
    if len(deltas) != len(g.factors):
        raise ValueError("one delta-sequence per factor required")
    coords = g.coords()
    w = np.zeros(g.n, dtype=np.int64)
    for i, d in enumerate(deltas):
        if d.source_order is None:
            raise ValueError("delta-sequence must carry its source order")
        vals = np.asarray(d.values, dtype=np.int64)
        w += vals[d.source_order.ranks[coords[:, i]] - 1]
    return w


def weight(g: Graph, a, deltas: Sequence[DeltaSequence]) -> int:
    """Total weight of a set; equals its induced edge count whenever the
    set is compressed with respect to optimal factor orders."""
    table = vertex_weight_table(g, deltas)
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    return int(table[a.mask].sum())


# -- block and slice compression ------------------------------------------------


def is_block_compressed(g: Graph, dc: DominationCollection, a) -> bool:
    """Every block before the last touched block (in the block order) is
    fully contained."""
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    occ = block_occupancy(g, dc, a)
    blocks = list(occ)
    touched = [i for i, b in enumerate(blocks) if occ[b][0] > 0]
    if not touched:
        return True
    last = touched[-1]
    return all(occ[blocks[i]][0] == occ[blocks[i]][1] for i in range(last))


def is_slice_compressed(g: Graph, dc: DominationCollection, a) -> bool:
    """The block-compression condition holds inside every slice."""
    a = a if isinstance(a, VertexSet) else VertexSet.from_ids(g.n, a)
    occ = block_occupancy(g, dc, a)
    for q in range(dc.partitions[0].num_segments):
        blocks = [b for b in occ if b[0] == q]
        touched = [i for i, b in enumerate(blocks) if occ[b][0] > 0]
        if not touched:
            continue
        last = touched[-1]
        if not all(occ[blocks[i]][0] == occ[blocks[i]][1] for i in range(last)):
            return False
    return True
