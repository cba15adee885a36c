"""Total orders on graphs and their Cartesian products.

A total order is a bijection between vertices and the ranks 1..n.  Orders
are materialized as rank arrays rather than comparators: O(1) rank lookups
dominate the compression inner loops.  Lexicographic and domination orders
on products are induced by per-factor orders; domination permutations are
significance lists (which coordinate is compared first).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graphs import Graph, VertexSet, split_ids

__all__ = [
    "TotalOrder",
    "rank_box",
    "identity_perm",
    "colex_perm",
    "restrict_perm",
    "lex_order",
    "domination_order",
    "reverse_order",
    "is_consistent",
]


class TotalOrder:
    """Bijection vertices <-> ranks 1..n, stored both ways."""

    __slots__ = ("ranks", "inverse")

    def __init__(self, ranks: Sequence[int]):
        ranks = np.asarray(ranks, dtype=np.int64).copy()
        n = ranks.shape[0]
        if n == 0:
            raise ValueError("order on empty vertex set")
        if sorted(ranks.tolist()) != list(range(1, n + 1)):
            raise ValueError("ranks are not a bijection onto 1..n")
        inverse = np.empty(n, dtype=np.int64)
        inverse[ranks - 1] = np.arange(n, dtype=np.int64)
        self._freeze(ranks, inverse)

    def _freeze(self, ranks: np.ndarray, inverse: np.ndarray):
        ranks.setflags(write=False)
        inverse.setflags(write=False)
        self.ranks = ranks
        self.inverse = inverse

    @classmethod
    def identity(cls, n: int) -> "TotalOrder":
        return cls(np.arange(1, n + 1))

    @classmethod
    def from_sequence(cls, vertices: Sequence[int] | np.ndarray) -> "TotalOrder":
        """Order with the given vertex sequence at ranks 1, 2, ...; the
        sequence must list each of 0..n-1 once."""
        seq = np.asarray(vertices)
        n = len(seq)
        if n == 0:
            raise ValueError("order on empty vertex set")
        ranks = np.zeros(n, dtype=np.int64)
        # read unsigned, a negative id is out of range too
        if seq.ndim == 1 and seq.dtype.kind in "iu" and seq.astype(np.uint64).max() < n:
            ranks[seq] = np.arange(1, n + 1)
        # a repeated, missing or out-of-range id leaves some vertex at rank 0
        if not ranks.all():
            raise ValueError(f"sequence is not a permutation of 0..{n - 1}")
        order = object.__new__(cls)
        order._freeze(ranks, seq.astype(np.int64))
        return order

    @property
    def n(self) -> int:
        return self.ranks.shape[0]

    def rank(self, v: int) -> int:
        return int(self.ranks[v])

    def vertex_at(self, r: int) -> int:
        if not 1 <= r <= self.n:
            raise ValueError(f"rank {r} out of 1..{self.n}")
        return int(self.inverse[r - 1])

    def sequence(self) -> list[int]:
        """Vertices listed by increasing rank."""
        return self.inverse.tolist()

    def initial_segment(self, k: int) -> VertexSet:
        if not 0 <= k <= self.n:
            raise ValueError(f"segment size {k} out of 0..{self.n}")
        return VertexSet(self.ranks <= k)

    def segment(self, a: int, b: int) -> VertexSet:
        """Vertices with rank in [a, b] (1-based, inclusive)."""
        if not (1 <= a <= b <= self.n):
            raise ValueError(f"segment [{a},{b}] out of 1..{self.n}")
        return VertexSet((self.ranks >= a) & (self.ranks <= b))

    def to_json(self) -> dict:
        return {"ranks": self.ranks.tolist()}

    @classmethod
    def from_json(cls, data: dict) -> "TotalOrder":
        return cls(data["ranks"])

    def __eq__(self, other) -> bool:
        return isinstance(other, TotalOrder) and bool(
            np.array_equal(self.ranks, other.ranks)
        )

    def __hash__(self) -> int:
        return hash(self.ranks.tobytes())

    def __repr__(self) -> str:
        return f"TotalOrder(n={self.n}, sequence={self.sequence()!r})"


# -- permutations (significance lists) ---------------------------------------


def identity_perm(d: int) -> tuple[int, ...]:
    return tuple(range(d))


def colex_perm(d: int) -> tuple[int, ...]:
    return tuple(range(d - 1, -1, -1))


def _check_perm(pi: Sequence[int], d: int) -> tuple[int, ...]:
    pi = tuple(int(x) for x in pi)
    if sorted(pi) != list(range(d)):
        raise ValueError(f"{pi!r} is not a permutation of 0..{d - 1}")
    return pi


def restrict_perm(pi: Sequence[int], s: Sequence[int]) -> tuple[int, ...]:
    """Induced significance list on the coordinate subset `s`.

    Coordinates of the subproduct over s (sorted ascending) are renumbered
    0..k-1; the restriction keeps their relative significance under pi.
    """
    s_sorted = sorted(set(int(i) for i in s))
    pos = {c: i for i, c in enumerate(s_sorted)}
    return tuple(pos[c] for c in pi if c in pos)


# -- induced orders on products ------------------------------------------------


def rank_box(g: Graph, factor_orders: Sequence[TotalOrder]) -> np.ndarray:
    """The product's vertex ids laid out by factor ranks: entry
    [r_0 - 1, ..., r_{d-1} - 1] is the vertex whose i-th coordinate has
    rank r_i in factor_orders[i].  Every order on the product induced by
    the factor orders is a walk of this box."""
    if g.factors is None:
        raise ValueError("induced orders require a product graph")
    d = len(g.factors)
    if len(factor_orders) != d:
        raise ValueError(f"expected {d} factor orders, got {len(factor_orders)}")
    for i, o in enumerate(factor_orders):
        if o.n != g.factors[i].n:
            raise ValueError(f"factor order {i} has wrong size")
    ids = np.arange(g.n).reshape(g.factor_shape)
    return ids[np.ix_(*(o.inverse for o in factor_orders))]


def domination_order(
    g: Graph, factor_orders: Sequence[TotalOrder], pi: Sequence[int]
) -> TotalOrder:
    """Compare rank tuples coordinate pi[0] first, then pi[1], ...: the
    rank box read with axis pi[0] slowest.

    The identity permutation gives the lexicographic order; the reversed
    one gives the colexicographic order.
    """
    box = rank_box(g, factor_orders)
    pi = _check_perm(pi, box.ndim)
    return TotalOrder.from_sequence(box.transpose(pi).ravel())


def lex_order(g: Graph, factor_orders: Sequence[TotalOrder]) -> TotalOrder:
    return domination_order(g, factor_orders, identity_perm(len(factor_orders)))


def reverse_order(o: TotalOrder) -> TotalOrder:
    return TotalOrder(o.n + 1 - o.ranks)


def is_consistent(
    g: Graph, o_big: TotalOrder, o_small: TotalOrder, s: Sequence[int]
) -> bool:
    """Whether o_big on the product g agrees with o_small on the subproduct
    over s: for vertices equal outside s, the big comparison implies the
    same comparison of their projections.

    Checked exhaustively: within every assignment of the complement
    coordinates, sorting by big rank must sort the projected small ranks
    increasingly.
    """
    if g.factors is None:
        raise ValueError("consistency requires a product graph")
    d = len(g.factors)
    s_sorted = sorted(set(int(i) for i in s))
    if not s_sorted or s_sorted[0] < 0 or s_sorted[-1] >= d:
        raise ValueError("bad factor index set")
    sub_id, cut_id, _ = split_ids(g, s_sorted)
    small_rank = o_small.ranks[sub_id]
    order_in_cut = np.lexsort((o_big.ranks, cut_id))
    sorted_keys = cut_id[order_in_cut]
    sorted_small = small_rank[order_in_cut]
    same_cut = sorted_keys[1:] == sorted_keys[:-1]
    rising = sorted_small[1:] > sorted_small[:-1]
    return bool(np.all(rising | ~same_cut))
