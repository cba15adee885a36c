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

`sandwich_bound` uses the same stacked-segment program for an upper bound
on any product's profile that needs only the factors' exact profiles; on
two factors with nested solutions it is the two-factor downset profile.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from .budget import Budget, SizeCapExceeded
from .graphs import Graph, VertexSet
from .orders import TotalOrder, rank_box

__all__ = [
    "rank_edge_tables",
    "product_prefix_counts",
    "stacked_profile",
    "sandwich_bound",
    "downset_profile",
    "enumerate_downsets",
    "enumerate_compressed",
    "count_downsets",
    "staircase_scan_2d",
]

NEG = -(1 << 40)
# largest table (in int64 cells) `stacked_profile` or the slab DP builds:
# 128 MiB, above the 8.3M cells of a sandwich bound over three factors of
# 24 vertices and the 13.2M of the slab DP on C8^3
STACK_CELL_CAP = 1 << 24
# cells of the scratch block `stacked_profile` fills per step
SKEW_CHUNK = 1 << 16


def rank_edge_tables(
    g: Graph, order: Optional[TotalOrder] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Tables (W, L) over ranks 1..n of `order` (the identity when None),
    index 0 unused, = 0:

    L[r] = number of neighbors of the rank-r vertex with smaller rank;
    W[r] = number of edges among the first r ranks (= cumsum of L).
    """
    eu, ev = g.edge_arrays()
    ranks = np.arange(1, g.n + 1) if order is None else order.ranks
    L = np.bincount(np.maximum(ranks[eu], ranks[ev]), minlength=g.n + 1)
    return L.cumsum(), L


def product_prefix_counts(
    factors: Sequence[Graph],
    orders: Optional[Sequence[TotalOrder]] = None,
    sequence: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Edges among the first m vertices, m = 0..n, of a product order built
    from factor orders (identity orders when None), from the factors'
    back-degree tables L_i alone.  In such an order (lexicographic,
    domination or block-lexicographic), two vertices that differ only in
    coordinate i compare as their i-th ranks do, so the vertex with rank
    tuple (r_1, ..., r_d) has sum_i L_i[r_i] earlier neighbours.
    A factor may be an object that holds its table as `L` under its own
    order, such as a `partitions.FactorTable`, in place of the graph.
    `sequence` lists the order's rank tuples as flat C-order indices into
    the rank box; by default it is C order (lexicographic)."""
    back = np.zeros(1, dtype=np.int64)
    for k, f in enumerate(factors):
        L = getattr(f, "L", None)
        if L is None:
            L = rank_edge_tables(f, None if orders is None else orders[k])[1]
        back = (back[:, None] + L[1:]).ravel()
    if sequence is not None:
        back = back[sequence]
    return np.concatenate(([0], back.cumsum()))


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
    total size m = 0..m_max.  A table of more than STACK_CELL_CAP cells
    raises `SizeCapExceeded` before it is allocated.
    """
    total = n_levels * n_inner
    m_max = total if m_max is None else min(m_max, total)
    width = m_max + 1
    # rows past m_max would only repeat row m_max
    rows = min(n_inner, m_max) + 1
    if rows * (rows + width) > STACK_CELL_CAP:
        raise SizeCapExceeded(
            f"a stacked profile of {n_levels} levels of {n_inner} needs "
            f"{rows * (rows + width)} cells, beyond the cap {STACK_CELL_CAP}"
        )
    # H[t, m]: best using levels i..end with every segment size <= t.  It
    # sits behind `rows` columns of NEG, so that the skewed view reads
    # skew[t, m] = H[t, m - t], and NEG where m < t.
    buf = np.full((rows, rows + width), NEG, dtype=np.int64)
    H = buf[:, rows:]
    H[:, 0] = 0
    skew = np.ndarray((rows, width), np.int64, buf, rows * 8, (buf.strides[0] - 8, 8))
    sizes = np.arange(rows, dtype=np.int64)
    inner = np.array(inner_profile[:rows], dtype=np.int64)
    inner[0] = 0  # an empty segment gains nothing
    # Cells no stack reaches start at NEG, and over all levels gain at most
    # what one stack gains, far below 2^39: they stay below NEG // 2, which
    # the mask at the end relies on.  New rows a..b-1 read only old rows
    # a..b-1, so they replace them chunk by chunk, and G holds at most
    # SKEW_CHUNK cells.
    step = max(1, SKEW_CHUNK // width)
    G = np.empty((min(rows, step), width), dtype=np.int64)
    for i in range(n_levels, 0, -1):
        Budget.check()
        gain = inner + int(level_L[i]) * sizes
        for a in range(0, rows, step):
            b = min(a + step, rows)
            chunk = G[: b - a]
            np.add(skew[a:b], gain[a:b, None], out=chunk)
            if a:
                np.maximum(chunk[0], H[a - 1], out=chunk[0])
            np.maximum.accumulate(chunk, axis=0, out=H[a:b])
    out = H[rows - 1].copy()
    out[out < NEG // 2] = NEG
    return out


# sandwich bounds by (ordered, factor profiles), and the stacked steps they
# take by (outer profile, inner bound); emptied by solver.clear_caches
_BOUND_CACHE: dict[tuple, np.ndarray] = {}
_STEP_CACHE: dict[tuple, np.ndarray] = {}


def sandwich_bound(
    profiles: Sequence[Sequence[int]], lower: Optional[np.ndarray] = None
) -> np.ndarray:
    """An upper bound U(m), m = 0..n, on the edges that any m vertices of
    the product of graphs with the given exact profiles I(m) induce.

    Take a product F x H, where F has the exact profile I_F and the delta
    sequence delta_F(r) = I_F(r) - I_F(r - 1), and U_H bounds the profile
    of H.  Cut a set A of m vertices into the slabs
    A_v = {h : (v, h) in A}, one per vertex v of F, and sort the slab
    sizes c_(1) >= c_(2) >= ....  Then

        |E(A)| <= sum_r [U_H(c_(r)) + delta_F(r) * c_(r)],

    because the edges inside slab v number at most I_H(|A_v|) <= U_H(|A_v|),
    and the edges across an F-edge uv number |A_u & A_v| <= min(|A_u|,
    |A_v|): summed over F's edges and read level by level in t, that is at
    most sum_t I_F(#{v : |A_v| >= t}) = sum_r delta_F(r) * c_(r).
    `stacked_profile` maximizes the right side over non-increasing c for
    every m.  Recursing over the factors bounds any product, and every
    choice of outer factor gives a bound, so their minimum is one too.
    The bound assumes neither nested solutions nor compression.

    The factors are first peeled in the given order, the significance
    sequence of the order under test.  When the prefix counts `lower` of
    that order miss this bound on three or more factors, the minimum over
    every choice of outer factor at every level is returned instead.  On
    two factors there is no minimum to take.  There U_H = I_H, and reading
    a staircase c by columns (its conjugate c') turns the sum for F outside
    into the one for H outside, since sum_r I_H(c_(r)) = sum_t delta_H(t)
    * c'_t and sum_r delta_F(r) * c_(r) = sum_t I_F(c'_t): both outer
    choices give one bound, whatever the profiles.  Prefix counts equal to U prove the
    order optimal, and U is then the exact profile; counts below U prove
    nothing, since the bound can be loose.

    Bounds are memoized, and so is each stacked step, by its outer profile
    and the values of the inner bound it stacks, so the ordered bound and
    the minimum over outer choices share the steps they have in common.
    Both memos last until `solver.clear_caches()`.  A product too
    large for `stacked_profile`'s STACK_CELL_CAP raises `SizeCapExceeded`.
    """
    # a one-vertex factor leaves the product unchanged
    profs = tuple(tuple(map(int, p)) for p in profiles if len(p) > 2)
    if not profs:
        return np.zeros(2, dtype=np.int64)
    upper = _bound(profs, True)
    if len(profs) > 2 and lower is not None and not np.array_equal(lower, upper):
        upper = _bound(tuple(sorted(profs)), False)
    return upper


def _bound(profs: tuple[tuple[int, ...], ...], ordered: bool) -> np.ndarray:
    """U over the factors `profs`: the first one outer when `ordered` or
    on two factors, where every outer choice gives it, the minimum over the
    distinct outer choices (`profs` sorted) otherwise."""
    Budget.check()
    key = (ordered, profs)
    hit = _BOUND_CACHE.get(key)
    if hit is not None:
        return hit
    if len(profs) == 1:
        out = np.asarray(profs[0], dtype=np.int64)
    else:
        outer = [0] if ordered or len(profs) == 2 else [
            k for k in range(len(profs)) if k == 0 or profs[k] != profs[k - 1]
        ]
        steps = [
            _step(profs[k], _bound(profs[:k] + profs[k + 1 :], ordered))
            for k in outer
        ]
        out = steps[0] if len(steps) == 1 else np.minimum.reduce(steps)
    out.setflags(write=False)
    _BOUND_CACHE[key] = out
    return out


def _step(outer: tuple[int, ...], inner: np.ndarray) -> np.ndarray:
    """The stacked step with the profile `outer` outside and the bound
    `inner` inside, memoized by the two's values."""
    key = (outer, inner.tobytes())
    hit = _STEP_CACHE.get(key)
    if hit is None:
        level = np.subtract(outer, (0,) + outer[:-1])
        hit = stacked_profile(level, inner, len(outer) - 1, len(inner) - 1)
        hit.setflags(write=False)
        _STEP_CACHE[key] = hit
    return hit


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
) -> np.ndarray:
    # two tables of n_shapes x (m_max + 1) cells
    n_shapes = math.comb(n_b + n_c, n_c)
    cells = 2 * n_shapes * (m_max + 1)
    if cells > STACK_CELL_CAP:
        raise SizeCapExceeded(
            f"a slab DP over {n_shapes} shapes and {m_max + 1} sizes needs "
            f"{cells} cells, beyond the cap {STACK_CELL_CAP}"
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
        Budget.check()
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
) -> np.ndarray:
    """Max induced edges over rank-space downsets, per size m = 0..m_max.

    Supports products of one, two, or three factors; more factors raise
    `SizeCapExceeded`.  For three factors the level axis is the largest
    factor and slabs range over the two smallest; tables of more than
    STACK_CELL_CAP cells raise `SizeCapExceeded` too, so a smaller m_max
    admits a larger lattice.
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
            L_lvl, sizes[lvl], W_c, L_b, sizes[b], sizes[c], m_max
        )
    raise SizeCapExceeded(
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
    """0-based rank tuples of the filled cells."""
    if isinstance(s, int):
        for r in range(s):
            yield prefix + (r,)
        return
    for j, sub in enumerate(s):
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
    box = rank_box(g, factor_orders)
    for struct in enumerate_downsets(box.shape, m):
        cells = np.array(list(_struct_cells(struct)), dtype=np.int64).reshape(-1, d)
        yield VertexSet.from_ids(g.n, box[tuple(cells.T)])


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
