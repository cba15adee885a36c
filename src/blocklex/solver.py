"""Exact edge-isoperimetric profiles, delta-sequences, nested-solution
search, and order-optimality verification.

The full-enumeration strategy is the brute-force oracle that everything
else in the package is validated against.  It runs a subset dynamic
program over all 2^n membership words (edge counts extend one vertex at a
time), so it is exact and practical up to FULL_ENUM_CAP vertices.  A graph
that splits into id intervals no edge joins, such as a disjoint union, is
profiled from its parts, read off its adjacency bitmasks and memoized
within the call, by max-plus (min-plus for the boundary) convolution, with
the same smallest witnesses.  Products of at most three factors with
nested solutions can instead be profiled through the rank-space downset
oracle, whose limits are the factors' (each profiled by the subset DP, so
at most FULL_ENUM_CAP vertices) and, on three factors, the slab DP's table
(`staircase.STACK_CELL_CAP` cells).
`check_order` is the one rule that decides whether an order on a product
is optimal, through `check_prefix_counts`: the sandwich bound first, then
an exact engine chosen by the number of factors.  Pairs, block classes,
the crosscheck, the explorers, `order --verify` and the profile rule
(`exact_profile` with no engine named) decide through it, mostly on
prefix counts read from the factors (`staircase.product_prefix_counts`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import staircase
from .budget import Budget, BudgetExceeded, SizeCapExceeded
from .graphs import Graph, cartesian_product
from .orders import TotalOrder

__all__ = [
    "FULL_ENUM_CAP",
    "NoNestedSolutions",
    "ChainSearchInconclusive",
    "Profile",
    "DeltaSequence",
    "ChainSearchResult",
    "exact_profile",
    "theta_profile",
    "delta_sequence",
    "find_nested_chain",
    "verify_order_optimal",
    "check_order",
    "check_prefix_counts",
    "prefix_bound",
    "prefix_edge_counts",
    "factor_profile_and_order",
    "clear_caches",
]

FULL_ENUM_CAP = 24

class NoNestedSolutions(ValueError):
    """The chain search proved that the graph has no nested solutions."""


class ChainSearchInconclusive(BudgetExceeded):
    """The chain search stopped at its node cap: nested solutions are
    neither found nor ruled out."""


@dataclass(frozen=True)
class Profile:
    """Exact profile of a graph: values[m] for m = 0..n.

    kind "induced_max" stores I(m) (max induced edges); kind
    "boundary_min" stores the min boundary counts.
    """

    kind: str
    i_values: tuple[int, ...]
    witnesses: Optional[tuple[tuple[int, ...], ...]]
    strategy: str
    graph_digest: str

    def __post_init__(self):
        vals = self.i_values
        if self.kind == "induced_max":
            if vals[0] != 0 or any(
                vals[i + 1] < vals[i] for i in range(len(vals) - 1)
            ):
                raise ValueError("induced profile must start at 0 and be non-decreasing")

    @property
    def n(self) -> int:
        return len(self.i_values) - 1

    def value(self, m: int) -> int:
        return self.i_values[m]

    def values_array(self) -> np.ndarray:
        return np.asarray(self.i_values, dtype=np.int64)

    def witness(self, m: int) -> Optional[tuple[int, ...]]:
        if self.witnesses is None:
            return None
        return self.witnesses[m]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "values": list(self.i_values),
            "witnesses": [list(w) for w in self.witnesses] if self.witnesses else None,
            "strategy": self.strategy,
            "graph_digest": self.graph_digest,
        }


@dataclass(frozen=True)
class DeltaSequence:
    """First differences delta(m) = I(m) - I(m-1), m = 1..n; delta(1) = 0."""

    values: tuple[int, ...]
    source_order: Optional[TotalOrder] = None

    def __post_init__(self):
        if self.values and self.values[0] != 0:
            raise ValueError("delta(1) must be 0")

    @property
    def n(self) -> int:
        return len(self.values)

    def at_rank(self, r: int) -> int:
        return self.values[r - 1]

    def step_bound_holds(self) -> bool:
        """Whether consecutive deltas rise by at most one (a necessary
        condition for graphs with nested solutions)."""
        return all(
            self.values[i + 1] - self.values[i] <= 1 for i in range(self.n - 1)
        )


@dataclass(frozen=True)
class ChainSearchResult:
    """Outcome of the nested-chain search.

    status is one of "order" (chain found; `order` holds it),
    "not_isoperimetric" (search exhausted; `failing_size` is the smallest
    set size no chain reaches), or "inconclusive" (the node cap stopped
    the search, which is deliberately distinct from a mathematical
    negative).
    """

    status: str
    order: Optional[TotalOrder]
    failing_size: Optional[int]
    explored: int


# -- subset dynamic program ----------------------------------------------------

# Subset values are int16: at n <= FULL_ENUM_CAP a set has at most
# n(n-1)/2 induced edges and at most n(n-1) boundary edges.
if FULL_ENUM_CAP * (FULL_ENUM_CAP - 1) > np.iinfo(np.int16).max:
    raise ImportError("FULL_ENUM_CAP is too large for int16 subset values")

# Profiles of STREAM_MIN_N or more vertices never hold the 2^n table: they
# stream it in rows of 2^ROW_BITS values (`_SubsetRows`).  Below that the
# whole table is as fast or faster: at 20 vertices streaming measured up
# to 10 % slower without witnesses and 25-60 % slower with them, and at 21
# about even (2 cores, Python 3.11, numpy 2.4).
#
# Graphs of at most SMALL_MAX_N vertices (factors, segment graphs, union
# parts) skip numpy, whose DP and reduction cost a fixed 10-50 us a call
# there, not cells: the table is one Python int of 2^n one-byte fields
# (`_small_subset_values`), read per size class (`_profile_from_values`).
# DP plus reduction of induced edges, numpy path against the small path,
# in us (min of 9 x 100 calls; 2 cores, Python 3.11, numpy 2.4):
#
#     graph       no witnesses       witnesses
#     K2            8.2 ->   2.0      42.5 ->   2.1
#     K4           15.6 ->   3.8      73.5 ->   4.1
#     C5           18.7 ->   4.3      90.6 ->   4.6
#     P8           30.8 ->  12.7     141.3 ->  13.0
#     petersen     48.0 ->  40.3     189.2 ->  41.0
#     C12          61.3 -> 128.7     239.5 -> 128.2
#
# The worst ratio over paths, cycles, cliques and seeded random graphs, in
# both kinds, is 0.86 at 10 vertices and 1.75 at 11 without witnesses
# (0.40 and 0.57 with them), so the cutover is 10.
ROW_BITS = 16
STREAM_MIN_N = 22
SMALL_MAX_N = 10

# A small table's fields hold a set's induced or boundary edges, at most
# the n(n-1)/2 edges of the graph.
if SMALL_MAX_N * (SMALL_MAX_N - 1) // 2 > 255:
    raise ImportError("SMALL_MAX_N is too large for one-byte subset values")


def _double(out: np.ndarray, nbrs: int, step: int) -> None:
    """out[c] = out[0] + step * popcount(nbrs & c) for every word c below
    len(out), a power of two: each bit u copies the filled prefix
    out[:2^u] to out[2^u : 2^(u+1)], adding step when u is in nbrs."""
    b = 1
    while b < len(out):
        if nbrs & b:
            np.add(out[:b], step, out=out[b : 2 * b])
        else:
            out[b : 2 * b] = out[:b]
        b *= 2


def _subset_dp(adj: Sequence[int], k: int, induced: bool) -> np.ndarray:
    """val[c] for every word c over the first k vertices of the graph with
    adjacency bitmasks adj: induced edges, or boundary edges into the
    whole graph.  The words whose highest bit is v fill val[2^v : 2^(v+1)]:
    the change v brings to each word r < 2^v (`_double`), plus val[r]."""
    step = 1 if induced else -2
    val = np.zeros(1 << k, dtype=np.int16)
    for v in range(k):
        Budget.check()
        low = 1 << v
        top = val[low : 2 * low]
        top[0] = 0 if induced else adj[v].bit_count()
        _double(top, adj[v], step)
        top += val[:low]
    return val


@functools.lru_cache(maxsize=None)
def _bit_words(n: int) -> tuple[int, ...]:
    """For each vertex u < n, the int of 2^n one-byte fields whose field r
    is bit u of r."""
    periods = ((b"\0" * (1 << u) + b"\1" * (1 << u), 1 << (n - u - 1)) for u in range(n))
    return tuple(int.from_bytes(period * k, "little") for period, k in periods)


def _small_subset_values(adj: Sequence[int], n: int, induced: bool) -> bytes:
    """val[r] for every word r < 2^n, a graph of at most SMALL_MAX_N
    vertices: the sum over edges uv of the fields of r that hold both u
    and v (induced) or just one of them (boundary), added up in one int."""
    words = _bit_words(n)
    acc = 0
    for v in range(n):
        Budget.check()
        wv = words[v]
        below = adj[v] & ((1 << v) - 1)
        while below:
            u = below.bit_length() - 1
            below ^= 1 << u
            acc += wv & words[u] if induced else wv ^ words[u]
    return acc.to_bytes(1 << n, "little")


def _dp_subset_values(adj: Sequence[int], n: int, mode: str) -> np.ndarray | bytes:
    """val[mask] for every membership word of the graph of n vertices with
    adjacency bitmasks adj: by highest-bit slice doubling, or, on graphs of
    at most SMALL_MAX_N vertices, as the bytes of `_small_subset_values`.

    mode "induced": number of edges inside the set.
    mode "boundary": number of edges leaving the set.
    """
    if n <= SMALL_MAX_N:
        return _small_subset_values(adj, n, mode == "induced")
    return _subset_dp(adj, n, mode == "induced")


class _SubsetRows:
    """The subset values of a graph of n > ROW_BITS vertices as 2^h rows,
    h = n - ROW_BITS: row r holds the words r << ROW_BITS | c, c < 2^ROW_BITS.

    Row 0 is the subset DP over the low vertices.  A high vertex v adds
    its gain row base_v + step * popcount(adj[v] & c) to every row that
    contains it, plus step times its neighbours among the row's high
    vertices.  Iteration builds row r from row r & (r - 1), which is the
    last row it built of one smaller popcount, so a stack of h + 1 rows
    stands in for the table.
    """

    def __init__(self, adj: Sequence[int], n: int, mode: str):
        self.adj = adj
        self.induced = mode == "induced"
        self.step = 1 if self.induced else -2
        self.h = n - ROW_BITS

    @functools.cached_property
    def base_and_gains(self) -> tuple[np.ndarray, np.ndarray]:
        base = _subset_dp(self.adj, ROW_BITS, self.induced)
        gains = np.empty((self.h, 1 << ROW_BITS), dtype=np.int16)
        for row, nbrs in zip(gains, self.adj[ROW_BITS:]):
            row[0] = 0 if self.induced else nbrs.bit_count()
            _double(row, nbrs, self.step)
        return base, gains

    def rows(self, cols: Optional[np.ndarray] = None):
        """(r, popcount(r), row r) for r = 0 .. 2^h - 1, at the columns
        cols only if given.  A row is valid until the next row of its
        popcount: the stack reuses its buffer.  Sending positions into the
        generator keeps only those of its columns in the later rows."""
        base, gains = self.base_and_gains
        if cols is not None:
            base, gains = base[cols], gains.take(cols, axis=1)
        high = [nbrs >> ROW_BITS for nbrs in self.adj[ROW_BITS:]]
        stack = [base] + [np.empty_like(base) for _ in range(self.h)]
        keep = yield 0, 0, base
        for r in range(1, 1 << self.h):
            Budget.check()
            if keep is not None:
                stack = [s[keep] for s in stack]
                gains = gains.take(keep, axis=1)
            parent = r & (r - 1)
            v = (r ^ parent).bit_length() - 1
            p = r.bit_count()
            row = stack[p]
            np.add(stack[p - 1], gains[v], out=row)
            inner = (high[v] & parent).bit_count()
            if inner:
                row += self.step * inner
            keep = yield r, p, row

    def witnesses(
        self, values: list[int], a: np.ndarray
    ) -> list[tuple[int, ...]]:
        """The smallest set attaining values[m], for every m, from a second
        pass over the rows in increasing order, given a[i], the column-wise
        extremum of the rows of popcount i.

        A row of popcount i attains size i + popcount(c) at column c only
        if a[i, c] does, so the pass generates the rows at those columns
        alone, ordered by popcount and then ascending.  The first row that
        hits a size is its smallest, and its smallest hit column completes
        the mask.  The pass stops once every size has one, and drops the
        columns that only found sizes could use whenever they are at least
        half of those it generates.
        """
        n, h, l = len(values) - 1, self.h, ROW_BITS
        vals = np.asarray(values, dtype=np.int16)
        pc = _popcounts(l)
        attained = np.zeros(1 << l, dtype=bool)
        for i, ai in enumerate(a):
            attained |= ai == vals[i : i + l + 1].take(pc)
        by_popcount = _popcount_classes(l)[0]
        cols = by_popcount[attained[by_popcount]]
        pcs = pc[cols]
        bounds = np.searchsorted(pcs, np.arange(l + 2))
        # target[i, k]: the value a row of popcount i needs at cols[k] to
        # attain its size; -1, which no subset has, once that size is found
        target = np.stack([vals[i : i + l + 1].take(pcs) for i in range(h + 1)])
        masks = [0] * (n + 1)
        left = n + 1
        rows = self.rows(cols)
        keep = None
        while left:
            r, i, row = rows.send(keep)
            keep = None
            hit = np.flatnonzero(row == target[i])
            if not hit.size:
                continue
            found, first = np.unique(pcs[hit], return_index=True)
            for j, k in zip(found.tolist(), hit[first].tolist()):
                m = i + j
                masks[m] = r << l | int(cols[k])
                for i2 in range(max(0, m - l), min(h, m) + 1):
                    target[i2, bounds[m - i2] : bounds[m - i2 + 1]] = -1
            left -= len(found)
            live = (target != -1).any(axis=0)
            if 2 * np.count_nonzero(live) <= len(cols):
                keep = np.flatnonzero(live)
                cols, pcs, target = cols[keep], pcs[keep], target[:, keep]
                bounds = np.searchsorted(pcs, np.arange(l + 2))
        rows.close()
        return [tuple(x for x in range(n) if mask >> x & 1) for mask in masks]


@functools.lru_cache(maxsize=None)
def _popcounts(k: int) -> np.ndarray:
    """popcount(r) for every word r < 2^k."""
    pc = np.zeros(1 << k, dtype=np.int8)
    for i in range(k):
        pc[1 << i : 2 << i] = pc[: 1 << i] + 1
    pc.flags.writeable = False
    return pc


@functools.lru_cache(maxsize=None)
def _popcount_classes(k: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The words r < 2^k sorted by popcount, ascending within a popcount;
    where each popcount j = 0..k starts in that order; and, for each j,
    the words of popcount j."""
    pc = _popcounts(k)
    order = np.argsort(pc, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(pc))[:-1]))
    order.flags.writeable = starts.flags.writeable = False
    return order, starts, tuple(np.split(order, starts[1:]))


@functools.lru_cache(maxsize=None)
def _size_classes(n: int) -> tuple[tuple[operator.itemgetter, tuple], ...]:
    """For each size m = 0..n: a getter of the fields of the words of
    popcount m, ascending, with the first again at the end (itemgetter of
    one index gives a bare value: one index more keeps a tuple); and the
    sets of those words."""
    classes: list[list[int]] = [[] for _ in range(n + 1)]
    for r in range(1 << n):
        classes[r.bit_count()].append(r)
    return tuple(
        (
            operator.itemgetter(*words, words[0]),
            tuple(tuple(x for x in range(n) if r >> x & 1) for r in words),
        )
        for words in classes
    )


def _profile_from_values(
    n: int, val: np.ndarray | bytes | _SubsetRows, maximize: bool, with_witnesses: bool
) -> tuple[list[int], Optional[list[tuple[int, ...]]]]:
    """Per-size extremum of val and, on request, its smallest attaining mask.

    val is the 2^n table, the bytes of a small graph's table, or the
    `_SubsetRows` that stream it.

    Bytes are read per size class, ascending, so the first field that
    attains a class's extremum is its smallest attaining mask.

    Rows-first split-popcount reduction: val viewed as (2^h, 2^l), rows of
    high bits by columns of low bits, l = min(n, 12), so that a graph of up
    to 12 vertices is one row.  a[i] is the column-wise extremum of
    the rows of popcount i (whole contiguous rows, no column gather);
    b[i, j] reduces a[i] over the columns of popcount j, and size m takes
    the best b[i, m - i].  Streamed rows (l = ROW_BITS) are folded into a
    as they are generated, and b[i] is then the reduction of a[i] as a
    table of 2^l values.

    A witness is looked up only in the classes (i, m - i) that attain the
    value: among the columns where a[i] attains it, the smallest row of
    class i that hits one, then the smallest such column in that row.  The
    smallest of these masks is the smallest attaining mask; the classes
    partition the grid, so all witnesses together cost at most one pass.
    Streamed rows take theirs from a second pass (`_SubsetRows.witnesses`).
    """
    Budget.check()
    pick = max if maximize else min
    if isinstance(val, bytes):
        values, wits = [], []
        for get, sets in _size_classes(n):
            fields = get(val)
            best = pick(fields)
            values.append(best)
            if with_witnesses:
                wits.append(sets[fields.index(best)])
        return values, wits if with_witnesses else None
    ufunc = np.maximum if maximize else np.minimum
    streamed = isinstance(val, _SubsetRows)
    if streamed:
        h, l = val.h, ROW_BITS
        limits = np.iinfo(np.int16)
        a = np.full((h + 1, 1 << l), limits.min if maximize else limits.max, np.int16)
        for _, i, row in val.rows():
            ufunc(a[i], row, out=a[i])
        b = [_profile_from_values(l, ai, maximize, False)[0] for ai in a]
    else:
        l = min(n, 12)
        h = n - l
        grid = val.reshape(1 << h, 1 << l)
        row_classes = _popcount_classes(h)[2]
        a = grid
        if h:
            a = np.empty((h + 1, 1 << l), dtype=val.dtype)
            for i, rows in enumerate(row_classes):
                Budget.check()
                ufunc.reduce(grid[rows], axis=0, out=a[i])
        by_popcount, starts, col_classes = _popcount_classes(l)
        b = ufunc.reduceat(np.take(a, by_popcount, axis=1), starts, axis=1).tolist()
    values = b[0] if not h else [
        pick(b[i][m - i] for i in range(max(0, m - l), min(h, m) + 1))
        for m in range(n + 1)
    ]
    if not with_witnesses:
        return values, None
    if streamed:
        return values, val.witnesses(values, a)
    wits: list[tuple[int, ...]] = []
    for m, v in enumerate(values):
        best = None
        for i in range(max(0, m - l), min(h, m) + 1):
            if best is not None and best >> l < (1 << i) - 1:
                break  # the smallest row of class i, 2^i - 1, is larger
            if b[i][m - i] != v:
                continue
            Budget.check()
            cols = col_classes[m - i]
            cols = cols[a[i, cols] == v]
            rows = row_classes[i]
            hit = grid[np.ix_(rows, cols)] == v
            k = int(hit.any(axis=1).argmax())
            mask = int(rows[k]) << l | int(cols[hit[k].argmax()])
            best = mask if best is None else min(best, mask)
        wits.append(tuple(x for x in range(n) if best >> x & 1))
    return values, wits


def _bnb_profile(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """Exact profile by depth-first search with a sound upper bound:
    extending a set A by k vertices from candidate pool C adds at most
    sum over the k best of (2*|N(v) & A| + |N(v) & C|) / 2 edges."""
    n = g.n
    adj = g.adjacency_bitmasks()
    best = [-1] * (n + 1)
    best[0] = 0
    wit: list[int] = [0] * (n + 1)
    pc_int = int.bit_count

    def rec(mask: int, start: int, size: int, edges: int):
        Budget.check()
        if edges > best[size]:
            best[size] = edges
            wit[size] = mask
        cand = list(range(start, n))
        if not cand:
            return
        cmask = 0
        for v in cand:
            cmask |= 1 << v
        scores = sorted(
            (2 * pc_int(adj[v] & mask) + pc_int(adj[v] & cmask) for v in cand),
            reverse=True,
        )
        # prune if no reachable size can improve
        acc = 0
        improvable = False
        for t in range(1, len(cand) + 1):
            acc += scores[t - 1]
            if size + t <= n and edges + acc // 2 > best[size + t]:
                improvable = True
                break
        if not improvable:
            return
        for i, v in enumerate(cand):
            rec(mask | (1 << v), v + 1, size + 1, edges + pc_int(adj[v] & mask))

    rec(0, 0, 0, 0)
    wits = [tuple(i for i in range(n) if wit[m] >> i & 1) for m in range(n + 1)]
    return best, wits


# -- disjoint unions -----------------------------------------------------------


def _split_ends(adj: Sequence[int]) -> list[int]:
    """The ends of the finest split of the ids 0..n-1 into intervals that
    no edge joins: an interval ends at v + 1 once no vertex up to v has a
    neighbour above v."""
    ends, reach = [], 0
    for v, nbrs in enumerate(adj):
        reach = max(reach, nbrs.bit_length() - 1)
        if reach <= v:
            ends.append(v + 1)
    return ends


def _union_profile(
    adj: Sequence[int], kind: str, with_witnesses: bool
) -> tuple[list[int], Optional[list[tuple[int, ...]]]]:
    """The profile of the graph with adjacency bitmasks adj from those of
    its one or more parts, the id intervals no edge joins (`_split_ends`),
    each read off adj and profiled by the subset DP (streamed from
    STREAM_MIN_N vertices); equal parts share a memo local to this call.

    An extremal m-set is a union of extremal sets of the parts, so the
    values are the prefix convolutions P_k = P_(k-1) (+) I_k of the parts'
    profiles I_k: max-plus for induced edges, min-plus for the boundary.
    The witness is the DP's, the smallest attaining mask.  Masks compare
    from the highest part down, and a set attains P_k(rest) exactly when
    its part in k attains I_k(s) and the rest P_(k-1)(rest - s) for a size
    s with I_k(s) + P_(k-1)(rest - s) = P_k(rest); so from the highest part
    down, each part takes its smallest witness over those sizes.
    """
    maximize = kind == "induced_max"
    memo = {}  # a part's bitmasks: its values and witnesses
    parts, start = [], 0  # (first id, values, witnesses) of each part
    for end in _split_ends(adj):
        part = tuple(x >> start for x in adj[start:end])
        if part not in memo:
            table = _SubsetRows if len(part) >= STREAM_MIN_N else _dp_subset_values
            val = table(part, len(part), "induced" if maximize else "boundary")
            memo[part] = _profile_from_values(len(part), val, maximize, with_witnesses)
        parts.append((start, *memo[part]))
        start = end
    if len(parts) == 1:
        return memo[part]
    ufunc, pad = (np.maximum, staircase.NEG) if maximize else (np.minimum, -staircase.NEG)
    prefix = [(0,)]  # prefix[k][m]: P_k(m), the best m-set in parts below k
    for _, vals, _ in parts:
        # skew[j, m] reads last[m - (size - j)] from behind size pads, so
        # that row j adds the part's size s = size - j, and the pads where
        # m - s is out of range lose every comparison
        last, size = prefix[-1], len(vals) - 1
        width = len(last) + size
        buf = np.full(width + size, pad, dtype=np.int64)
        buf[size:width] = last
        skew = np.ndarray((size + 1, width), np.int64, buf, 0, (8, 8))
        steps = np.array(vals[::-1], dtype=np.int64)[:, None] + skew
        prefix.append(tuple(ufunc.reduce(steps, axis=0).tolist()))
    if not with_witnesses:
        return list(prefix[-1]), None
    masks = [[sum(1 << a + x for x in w) for w in ws] for a, _, ws in parts]
    wits = []
    for m in range(len(adj) + 1):
        rest, mask = m, 0
        for k in reversed(range(len(parts))):
            vals, last, best = parts[k][1], prefix[k], prefix[k + 1][rest]
            # the sizes s of part k that leave rest - s for the parts below
            sizes = range(max(0, rest + 1 - len(last)), min(rest, len(vals) - 1) + 1)
            s = min(
                (s for s in sizes if vals[s] + last[rest - s] == best),
                key=masks[k].__getitem__,
            )
            mask |= masks[k][s]
            rest -= s
        wits.append(tuple(x for x in range(len(adj)) if mask >> x & 1))
    return list(prefix[-1]), wits


# -- profile cache -------------------------------------------------------------

# "full" and "bnb" profiles, and the profile rule's under None, by (kind,
# strategy, graph digest); an entry without witnesses answers no request for them.
_PROFILE_CACHE: dict[tuple[str, Optional[str], str], Profile] = {}


def _enumerated_profile(
    g: Graph,
    kind: str,
    strategy: str,
    with_witnesses: bool,
) -> Profile:
    """Profile by subset enumeration ("full": the DP, "bnb": branch and
    bound), from the cache when an entry answers the request.  Under
    "full" a graph that splits into id intervals no edge joins is profiled
    from those parts (`_union_profile`), which enter no cache.  A graph
    past FULL_ENUM_CAP vertices raises SizeCapExceeded, in one wording for
    every engine and kind."""
    if g.n > FULL_ENUM_CAP:
        raise SizeCapExceeded(
            f"{g.n} vertices exceed the full-enumeration cap of {FULL_ENUM_CAP}"
        )
    Budget.check()  # a hit polls too
    key = (kind, strategy, g.digest)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None and (hit.witnesses is not None or not with_witnesses):
        if with_witnesses or hit.witnesses is None:
            return hit
        return replace(hit, witnesses=None)
    if strategy == "bnb":
        values, wits = _bnb_profile(g)
    else:
        values, wits = _union_profile(g.adjacency_bitmasks(), kind, with_witnesses)
    prof = Profile(
        kind,
        tuple(values),
        tuple(wits) if with_witnesses else None,
        strategy,
        g.digest,
    )
    _PROFILE_CACHE[key] = prof
    return prof


def exact_profile(
    g: Graph,
    strategy: Optional[str] = None,
    *,
    with_witnesses: bool = True,
) -> Profile:
    """Exact I(m) for all m, by the named engine or, with none named, by
    the profile rule.

    "full" and "bnb" enumerate subsets and work on any graph up to
    FULL_ENUM_CAP vertices; "full" profiles a disjoint union of id
    intervals from its parts, with the witnesses of the whole graph's DP.
    "compressed" restricts the search to sets stable under all
    single-factor compressions along the factors' orders from
    `factor_profile_and_order`, so it is exact on any product whose
    factors have nested solutions (else NoNestedSolutions).  The downset
    oracle behind it takes at most three factors, and on three a slab
    table of at most `staircase.STACK_CELL_CAP` cells; past either it
    raises SizeCapExceeded.

    With no strategy, a product profiled without witnesses is answered by
    the one order rule (`_rule_profile`: "sandwich", "slab" or "full");
    every other request runs "full".
    """
    if strategy not in (None, "full", "bnb", "compressed"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy is None:
        if g.factors is not None and not with_witnesses and (prof := _rule_profile(g)):
            return prof
        strategy = "full"
    if strategy in ("full", "bnb"):
        return _enumerated_profile(g, "induced_max", strategy, with_witnesses)
    # compressed oracle
    if g.factors is None:
        raise ValueError("compressed strategy requires a product graph")
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    vals = staircase.downset_profile(g, orders)
    return Profile(
        "induced_max",
        tuple(int(x) for x in vals),
        None,
        "compressed",
        g.digest,
    )


def _rule_profile(g: Graph) -> Optional[Profile]:
    """The product g's exact profile by `check_prefix_counts`, under the
    engine it names, for the lexicographic order of the factors' optimal
    orders or, on three or more factors where its counts miss the bound U,
    the standard block-lex order if its counts meet U (any order's counts
    that meet U prove U exact); None if a factor has no proven nested
    solutions.  On two factors the answer is U under "sandwich" whatever
    the counts, so none are taken."""
    Budget.check()  # a hit polls too
    key = ("induced_max", None, g.digest)
    hit = _PROFILE_CACHE.get(key)
    if hit is not None:
        return hit
    try:
        profiles, orders = zip(*(factor_profile_and_order(f) for f in g.factors))
    except (NoNestedSolutions, ChainSearchInconclusive):
        return None
    if len(g.factors) == 2:
        # U, whatever an order's counts: `check_prefix_counts` on two factors
        used, values = "sandwich", tuple(prefix_bound(g.factors, None, profiles).tolist())
    else:
        prefix = staircase.product_prefix_counts(g.factors, orders)
        if not np.array_equal(prefix, prefix_bound(g.factors, prefix, profiles)):
            from .blockgeom import block_lex_prefix_counts, standard_collection  # imports solver

            dc = standard_collection(g.factors)
            if dc.validate(g, check_block_optimality=False)[0]:
                block_lex = block_lex_prefix_counts(g, dc)
                if np.array_equal(block_lex, prefix_bound(g.factors, block_lex, profiles)):
                    prefix = block_lex
        try:
            used, _, _, values = check_prefix_counts(g, prefix, profiles)
        except SizeCapExceeded:
            if len(g.factors) == 3:
                raise  # the slab DP's own cap, which names no order
            raise SizeCapExceeded(
                f"no exact engine profiles the product of {g.n} vertices and "
                f"{len(g.factors)} factors: no order the profile rule tries meets the "
                f"sandwich bound, the subset DP takes up to {FULL_ENUM_CAP} vertices "
                "and the slab DP products of up to three factors"
            ) from None
    prof = Profile("induced_max", values, None, used, g.digest)
    _PROFILE_CACHE[key] = prof
    return prof


def theta_profile(g: Graph, *, with_witnesses: bool = True) -> Profile:
    """Minimum boundary-edge counts per size, by the subset DP, or from the
    parts of a disjoint union of id intervals by min-plus convolution."""
    return _enumerated_profile(g, "boundary_min", "full", with_witnesses)


def delta_sequence(
    profile: Profile, source_order: Optional[TotalOrder] = None
) -> DeltaSequence:
    if profile.kind != "induced_max":
        raise ValueError("delta-sequences are defined on induced-edge profiles")
    vals = profile.i_values
    return DeltaSequence(
        tuple(vals[m] - vals[m - 1] for m in range(1, len(vals))), source_order
    )


def prefix_edge_counts(g: Graph, order: TotalOrder) -> np.ndarray:
    """|I(initial segment of size m)| for m = 0..n, in O(E)."""
    return staircase.rank_edge_tables(g, order)[0]


def verify_order_optimal(
    g: Graph, order: TotalOrder, oracle: Profile
) -> tuple[bool, Optional[int]]:
    """True iff every initial segment of the order achieves the oracle
    maximum; otherwise returns the first failing size."""
    prefix = prefix_edge_counts(g, order)
    target = oracle.values_array()
    bad = np.flatnonzero(prefix != target)
    if bad.size == 0:
        return True, None
    return False, int(bad[0])


def prefix_bound(factors: Sequence[Graph], prefix: np.ndarray, profiles=None) -> np.ndarray:
    """`staircase.sandwich_bound` over the factors' exact profiles (looked
    up unless given), the first most significant, for an order with the
    prefix counts `prefix`."""
    if profiles is None:
        profiles = [exact_profile(f, "full", with_witnesses=False) for f in factors]
    return staircase.sandwich_bound([p.i_values for p in profiles], prefix)


def check_order(
    g: Graph, order: TotalOrder
) -> tuple[str, bool, Optional[int], tuple[int, ...]]:
    """`check_prefix_counts` on the order's prefix counts on the product g."""
    return check_prefix_counts(g, prefix_edge_counts(g, order))


def check_prefix_counts(
    gs: Graph | Sequence[Graph], prefix: np.ndarray, profiles=None
) -> tuple[str, bool, Optional[int], tuple[int, ...]]:
    """Whether an order with the prefix counts `prefix` is optimal on the
    product of `gs` (the factors or their product): the engine that
    decided, the verdict, the first failing size and the exact profile.
    `profiles`, the factors' exact profiles, spare their lookups.

    Prefix counts that meet the bound U of `prefix_bound` prove the order
    optimal, and U is then the exact profile ("sandwich").  Where they
    miss it, the number of factors picks the exact engine:

    - two: U is the exact profile when both factors have nested solutions,
      since compression takes every set to a rank-space staircase and U
      maximizes over those, so U refutes too ("sandwich");
    - three: the slab DP on the factors' optimal orders, up to the largest
      size that misses U ("slab"); past that size U is met, so exact;
    - one, or four and more: the subset DP, up to FULL_ENUM_CAP vertices
      ("full").

    Only these last two build the product from the factors.  The two- and
    three-factor engines rely on the factors' nested solutions, which
    `factor_profile_and_order` confirms, raising NoNestedSolutions without
    them.  A product of four or more factors past FULL_ENUM_CAP vertices,
    or one whose bound or slab table passes `staircase.STACK_CELL_CAP`
    cells, raises SizeCapExceeded."""
    factors = tuple(gs.factors if isinstance(gs, Graph) else gs)
    exact = prefix_bound(factors, prefix, profiles)
    used = "sandwich"
    miss = np.flatnonzero(prefix != exact)
    d, n = len(factors), math.prod(f.n for f in factors)
    if miss.size and d == 2:
        for f in factors:
            factor_profile_and_order(f)  # U is exact only under this
    elif miss.size and d != 3 and n > FULL_ENUM_CAP:
        raise SizeCapExceeded(
            f"the order misses the sandwich bound on {n} vertices and "
            f"{d} factors: the subset DP takes up to {FULL_ENUM_CAP} "
            "vertices and the slab DP products of up to three factors"
        )
    elif miss.size:
        g = gs if isinstance(gs, Graph) else cartesian_product(factors)
        if d == 3:
            used = "slab"
            orders = [factor_profile_and_order(f)[1] for f in factors]
            m_max = int(miss[-1])
            exact = np.concatenate(
                (staircase.downset_profile(g, orders, m_max), exact[m_max + 1 :])
            )
        else:
            used = "full"
            exact = exact_profile(g, "full", with_witnesses=False).values_array()
    bad = miss if used == "sandwich" else np.flatnonzero(prefix != exact)
    bad_m = int(bad[0]) if bad.size else None
    return used, bad_m is None, bad_m, tuple(exact.tolist())


def find_nested_chain(
    g: Graph,
    profile: Profile,
    *,
    node_cap: int = 2_000_000,
) -> ChainSearchResult:
    """Depth-first search for a chain of optimal sets, one per size.

    Extends by the lowest-id vertex first, so the result is deterministic.
    Exhausting the search space proves no chain exists; reaching the node
    cap is reported as inconclusive, never as a negative.
    """
    n = g.n
    adj = g.adjacency_bitmasks()
    target = profile.i_values
    failed: set[int] = set()
    explored = 0
    deepest = 0
    pc_int = int.bit_count

    # stack frames: (mask, edges, size, next candidate vertex)
    stack = [(0, 0, 0, 0)]
    chain: list[int] = []
    while stack:
        explored += 1
        if explored % 4096 == 0:
            Budget.check()
        if explored > node_cap:
            return ChainSearchResult("inconclusive", None, None, explored)
        mask, edges, size, nxt = stack[-1]
        if size == n:
            return ChainSearchResult(
                "order", TotalOrder.from_sequence(chain), None, explored
            )
        found = None
        for v in range(nxt, n):
            if mask >> v & 1:
                continue
            child = mask | (1 << v)
            if child in failed:
                continue
            gain = pc_int(adj[v] & mask)
            if edges + gain == target[size + 1]:
                found = (v, child, edges + gain)
                break
        if found is None:
            failed.add(mask)
            stack.pop()
            if chain:
                dead = chain.pop()
                # resume the parent after the vertex that failed
                pmask, pedges, psize, _ = stack[-1]
                stack[-1] = (pmask, pedges, psize, dead + 1)
            continue
        v, child, cedges = found
        stack[-1] = (mask, edges, size, v + 1)
        stack.append((child, cedges, size + 1, 0))
        chain.append(v)
        deepest = max(deepest, size + 1)
    return ChainSearchResult("not_isoperimetric", None, deepest + 1, explored)


# -- per-factor cache ----------------------------------------------------------

# each factor's optimal order by digest; its profile is in _PROFILE_CACHE
_FACTOR_CACHE: dict[str, TotalOrder] = {}


def factor_profile_and_order(g: Graph) -> tuple[Profile, TotalOrder]:
    """Full-enumeration profile plus a deterministic optimal order for a
    small graph, the order cached by content digest.  Raises
    NoNestedSolutions if the graph has none, and ChainSearchInconclusive if
    the chain search stops at its node cap first."""
    Budget.check()  # a hit polls too
    order = _FACTOR_CACHE.get(g.digest)
    if order is not None:  # and its profile is in the profile cache
        return _enumerated_profile(g, "induced_max", "full", False), order
    prof = exact_profile(g, "full", with_witnesses=False)
    res = find_nested_chain(g, prof)
    if res.status == "not_isoperimetric":
        raise NoNestedSolutions(
            f"graph has no nested solutions (chain search: {res.status})"
        )
    if res.status != "order":
        raise ChainSearchInconclusive(
            f"chain search for nested solutions is {res.status}: it stopped "
            f"at its node cap after {res.explored} nodes"
        )
    _FACTOR_CACHE[g.digest] = res.order
    return prof, res.order


def clear_caches():
    """Empty the profile cache, the per-factor order cache and the memo of
    `staircase.sandwich_bound`'s stacked steps."""
    _PROFILE_CACHE.clear()
    _FACTOR_CACHE.clear()
    staircase._STEP_CACHE.clear()
