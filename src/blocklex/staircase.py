"""Rank-space downset machinery: the oracle engine behind compressed-set
enumeration and exact profiles of products that are too large to enumerate
by subsets.

A set that is stable under every single-factor compression corresponds, in
rank space, to a downset of the box {1..n_1} x ... x {1..n_d} (a staircase
for d = 2, nested non-increasing slabs for d >= 3).  Maximizing induced
edges over downsets of each size is a small dynamic program because, for a
downset, cross edges between two parallel hyperplanes meet in exactly the
smaller slab.

Exactness as a profile oracle (max over downsets of size m equals the true
I(m)) holds when the per-factor orders are optimal; callers verify that.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, VertexSet
from .orders import TotalOrder

__all__ = [
    "rank_edge_tables",
    "stacked_profile",
    "downset_profile",
    "enumerate_downsets",
    "enumerate_compressed",
    "count_downsets",
    "staircase_scan_2d",
]

NEG = -(1 << 40)
# largest slab lattice the three-factor downset DP builds
SLAB_SHAPE_CAP = 20000


def rank_edge_tables(g: Graph, order: TotalOrder) -> tuple[np.ndarray, np.ndarray]:
    """Tables (W, L) over ranks 1..n (index 0 unused, = 0):

    L[r] = number of neighbors of the rank-r vertex with smaller rank;
    W[r] = number of edges among the first r ranks (= cumsum of L).
    """
    n = g.n
    L = np.zeros(n + 1, dtype=np.int64)
    eu, ev = g.edge_arrays()
    if eu.size:
        ru = order.ranks[eu]
        rv = order.ranks[ev]
        hi = np.maximum(ru, rv)
        np.add.at(L, hi, 1)
    W = np.cumsum(L)
    return W, L


def stacked_profile(
    level_L: np.ndarray,
    inner_profile: np.ndarray,
    n_levels: int,
    n_inner: int,
    m_max: int | None = None,
) -> np.ndarray:
    """Max edges over stacks of nested initial segments.

    A stack assigns to each level i = 1..n_levels an initial segment of
    size c_i of a fixed inner order, with c non-increasing.  Edges =
    sum_i inner_profile[c_i] + level_L[i] * c_i (cross edges between
    adjacent levels meet in the smaller segment).  Returns the max per
    total size m = 0..m_max.
    """
    total = n_levels * n_inner
    if m_max is None:
        m_max = total
    m_max = min(m_max, total)
    width = m_max + 1
    # H[t, m]: best using levels i..end with every segment size <= t
    H = np.full((n_inner + 1, width), NEG, dtype=np.int64)
    H[:, 0] = 0
    for i in range(n_levels, 0, -1):
        G = np.full((n_inner + 1, width), NEG, dtype=np.int64)
        G[0, 0] = 0
        for t in range(1, n_inner + 1):
            if t <= m_max:
                gain = int(inner_profile[t]) + int(level_L[i]) * t
                G[t, t:] = np.where(
                    H[t, : width - t] > NEG // 2, H[t, : width - t] + gain, NEG
                )
            G[t, 0] = 0
        np.maximum.accumulate(G, axis=0, out=G)
        H = G
    out = H[n_inner].copy()
    out[out < NEG // 2] = NEG
    return out


# -- 2-D shapes for the pure three-factor DP ---------------------------------


def _shapes_in_box(cols: int, height: int) -> list[tuple[int, ...]]:
    """All non-increasing height vectors of length `cols`, values 0..height."""
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], bound: int):
        if len(prefix) == cols:
            out.append(prefix)
            return
        for h in range(bound, -1, -1):
            rec(prefix + (h,), h)

    rec((), height)
    return out


def _shape_edges(shape: tuple[int, ...], W_c: np.ndarray, L_b: np.ndarray) -> int:
    total = 0
    for j, h in enumerate(shape, start=1):
        total += int(W_c[h]) + int(L_b[j]) * h
    return total


def _shape_covers(
    shape: tuple[int, ...], index: dict[tuple[int, ...], int]
) -> list[int]:
    """Ids of shapes obtained by removing one removable cell."""
    out = []
    cols = len(shape)
    for j in range(cols):
        if shape[j] > 0 and (j == cols - 1 or shape[j] > shape[j + 1]):
            smaller = shape[:j] + (shape[j] - 1,) + shape[j + 1 :]
            out.append(index[smaller])
    return out


def _pure_profile_3d(
    L_lvl: np.ndarray,
    n_lvl: int,
    W_c: np.ndarray,
    L_b: np.ndarray,
    n_b: int,
    n_c: int,
    m_max: int,
    shape_cap: int = SLAB_SHAPE_CAP,
) -> np.ndarray:
    n_shapes = math.comb(n_b + n_c, n_c)
    if n_shapes > shape_cap:
        raise ValueError(
            f"slab shape count {n_shapes} exceeds cap {shape_cap}; "
            "use the stacked profile with a verified two-factor profile"
        )
    shapes = _shapes_in_box(n_b, n_c)
    index = {s: i for i, s in enumerate(shapes)}
    sizes = np.array([sum(s) for s in shapes], dtype=np.int64)
    edges2 = np.array([_shape_edges(s, W_c, L_b) for s in shapes], dtype=np.int64)
    covers = [_shape_covers(s, index) for s in shapes]
    by_size = sorted(range(len(shapes)), key=lambda i: (int(sizes[i]), shapes[i]))

    width = m_max + 1
    H = np.full((len(shapes), width), NEG, dtype=np.int64)
    H[:, 0] = 0
    for i in range(n_lvl, 0, -1):
        G = np.full((len(shapes), width), NEG, dtype=np.int64)
        for sid in range(len(shapes)):
            sz = int(sizes[sid])
            if sz > m_max:
                continue
            gain = int(edges2[sid]) + int(L_lvl[i]) * sz
            src = H[sid, : width - sz]
            G[sid, sz:] = np.where(src > NEG // 2, src + gain, NEG)
        # downward max over the sub-shape lattice, in increasing size order
        for sid in by_size:
            for cid in covers[sid]:
                np.maximum(G[sid], G[cid], out=G[sid])
        H = G
    full_id = index[tuple([n_c] * n_b)]
    out = H[full_id].copy()
    out[out < NEG // 2] = NEG
    return out


def downset_profile(
    g: Graph,
    factor_orders: Sequence[TotalOrder],
    m_max: int | None = None,
    shape_cap: int = SLAB_SHAPE_CAP,
) -> np.ndarray:
    """Max induced edges over rank-space downsets, per size m = 0..m_max.

    Supports products of one, two, or three factors.  For three factors the
    level axis is the largest factor and slabs range over the two smallest;
    if the slab lattice would be too large, callers should fall back to
    `stacked_profile` with an independently verified two-factor profile.
    """
    if g.factors is None:
        raise ValueError("downset profiles require a product graph")
    d = len(g.factors)
    if len(factor_orders) != d:
        raise ValueError("one order per factor required")
    if m_max is None:
        m_max = g.n
    m_max = min(m_max, g.n)
    tables = [rank_edge_tables(f, o) for f, o in zip(g.factors, factor_orders)]
    if d == 1:
        W, _ = tables[0]
        return W[: m_max + 1].astype(np.int64)
    if d == 2:
        W2, _ = tables[1]
        _, L1 = tables[0]
        return stacked_profile(L1, W2, g.factors[0].n, g.factors[1].n, m_max)
    if d == 3:
        sizes = [f.n for f in g.factors]
        lvl = max(range(3), key=lambda i: (sizes[i], i))
        rest = [i for i in range(3) if i != lvl]
        b, c = rest if sizes[rest[0]] >= sizes[rest[1]] else rest[::-1]
        _, L_lvl = tables[lvl]
        _, L_b = tables[b]
        W_c, _ = tables[c]
        return _pure_profile_3d(
            L_lvl, sizes[lvl], W_c, L_b, sizes[b], sizes[c], m_max, shape_cap
        )
    raise NotImplementedError(
        "downset profiles are implemented for up to three factors; "
        "for more factors use full enumeration on small products"
    )


# -- streaming enumeration ----------------------------------------------------
#
# A d-dimensional downset is represented recursively: for d = 1 an integer
# (the number of filled cells); for d >= 2 a tuple of (d-1)-dimensional
# downsets, one per level, non-increasing under containment.


def _full_struct(sizes: Sequence[int]):
    if len(sizes) == 1:
        return sizes[0]
    return tuple([_full_struct(sizes[1:])] * sizes[0])


def _struct_size(s) -> int:
    if isinstance(s, int):
        return s
    return sum(_struct_size(x) for x in s)


def _meet(a, b):
    if isinstance(a, int):
        return min(a, b)
    return tuple(_meet(x, y) for x, y in zip(a, b))


def _gen_chain(bounds: list, m: int) -> Iterator[tuple]:
    """Sequences s_1 >= s_2 >= ... (containment) with s_j <= bounds[j],
    total size m."""
    if not bounds:
        if m == 0:
            yield ()
        return
    head = bounds[0]
    top = min(_struct_size(head), m)
    k = len(bounds)
    for t in range(top, -1, -1):
        if t * k < m:
            break
        for s in _gen_struct(head, t):
            tail = [_meet(s, b) for b in bounds[1:]]
            for rest in _gen_chain(tail, m - t):
                yield (s,) + rest


def _gen_struct(bound, t: int) -> Iterator:
    if isinstance(bound, int):
        if 0 <= t <= bound:
            yield t
        return
    yield from _gen_chain(list(bound), t)


def _struct_cells(s, prefix: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """1-based rank tuples of the filled cells."""
    if isinstance(s, int):
        for r in range(1, s + 1):
            yield prefix + (r,)
        return
    for j, sub in enumerate(s, start=1):
        yield from _struct_cells(sub, prefix + (j,))


def enumerate_downsets(sizes: Sequence[int], m: int) -> Iterator:
    """All downsets of the box with the given side lengths and exactly m
    cells, each visited once (canonical nested-slab generation)."""
    sizes = [int(x) for x in sizes]
    if any(x < 1 for x in sizes):
        raise ValueError("box sides must be >= 1")
    total = math.prod(sizes)
    if not 0 <= m <= total:
        return iter(())
    return _gen_struct(_full_struct(sizes), m)


def enumerate_compressed(
    g: Graph, factor_orders: Sequence[TotalOrder], m: int
) -> Iterator[VertexSet]:
    """Every vertex set of size m stable under all single-factor
    compressions, exactly once."""
    if g.factors is None:
        raise ValueError("compressed enumeration requires a product graph")
    d = len(g.factors)
    if len(factor_orders) != d:
        raise ValueError("one order per factor required")
    sizes = [f.n for f in g.factors]
    radix = g.radix()
    inv = [o.inverse for o in factor_orders]
    for struct in enumerate_downsets(sizes, m):
        ids = []
        for cell in _struct_cells(struct):
            vid = 0
            for i, r in enumerate(cell):
                vid += int(inv[i][r - 1]) * int(radix[i])
            ids.append(vid)
        yield VertexSet.from_ids(g.n, ids)


def count_downsets(sizes: Sequence[int], m: int) -> int:
    """Number of downsets of the box with exactly m cells.

    Up to three sides, padded to (a, b, c) with 1s, this is the q^m
    coefficient of MacMahon's generating function for plane partitions in
    an a x b x c box, prod_{i<=a, j<=b} (1 - q^(i+j+c-1)) / (1 - q^(i+j-1)),
    expanded in exact integers modulo q^(m+1).  Boxes with more sides are
    counted by enumeration."""
    sizes = [int(x) for x in sizes]
    if not 0 <= m <= math.prod(sizes):
        return 0
    if len(sizes) > 3:
        return sum(1 for _ in enumerate_downsets(sizes, m))
    a, b, c = sizes + [1] * (3 - len(sizes))
    coef = [1] + [0] * m
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            k = i + j + c - 1
            for t in range(m, k - 1, -1):
                coef[t] -= coef[t - k]
            k = i + j - 1
            for t in range(k, m + 1):
                coef[t] += coef[t - k]
    return coef[m]


def staircase_scan_2d(
    g: Graph, factor_orders: Sequence[TotalOrder]
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive scan of all two-factor rank-space downsets.

    Returns (max_edges, counts) arrays over sizes m = 0..n, computed by
    depth-first generation of non-increasing column-height vectors with
    incremental edge accounting.
    """
    if g.factors is None or len(g.factors) != 2:
        raise ValueError("two-factor product required")
    n1, n2 = g.factor_shape
    _, L1 = rank_edge_tables(g.factors[0], factor_orders[0])
    W2, _ = rank_edge_tables(g.factors[1], factor_orders[1])
    n = g.n
    best = np.full(n + 1, NEG, dtype=np.int64)
    counts = np.zeros(n + 1, dtype=np.int64)

    def rec(col: int, bound: int, size: int, edges: int):
        if col > n1:
            if edges > best[size]:
                best[size] = edges
            counts[size] += 1
            return
        for h in range(bound, -1, -1):
            rec(col + 1, h, size + h, edges + int(W2[h]) + int(L1[col]) * h)

    rec(1, n2, 0, 0)
    return best, counts
