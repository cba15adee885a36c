"""Exact edge-isoperimetric profiles, delta-sequences, nested-solution
search, and order-optimality verification.

The full-enumeration strategy is the brute-force oracle that everything
else in the package is validated against.  It runs a subset dynamic
program over all 2^n membership words (edge counts extend one vertex at a
time), so it is exact and practical up to FULL_ENUM_CAP vertices.  Products
whose factor orders are verified optimal can instead be profiled through
the rank-space downset oracle, which scales to hundreds of vertices.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import staircase
from .graphs import Graph
from .orders import TotalOrder

__all__ = [
    "FULL_ENUM_CAP",
    "COMPRESSED_CAP",
    "SizeCapExceeded",
    "Budget",
    "Profile",
    "DeltaSequence",
    "ChainSearchResult",
    "exact_profile",
    "theta_profile",
    "delta_sequence",
    "find_nested_chain",
    "verify_order_optimal",
    "prefix_edge_counts",
    "factor_profile_and_order",
    "clear_caches",
]

FULL_ENUM_CAP = 24
COMPRESSED_CAP = 200

class SizeCapExceeded(ValueError):
    """Raised when an exact strategy is asked to handle too many vertices."""


class BudgetExceeded(Exception):
    pass


class Budget:
    """Wall-clock budget; operations poll it and flag partial results."""

    def __init__(self, seconds: Optional[float] = None):
        self.seconds = seconds
        self._deadline = None if seconds is None else time.monotonic() + seconds

    def check(self):
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceeded

    def expired(self) -> bool:
        return self._deadline is not None and time.monotonic() > self._deadline


@dataclass(frozen=True)
class Profile:
    """Exact profile of a graph: values[m] for m = 0..n.

    kind "induced_max" stores I(m) (max induced edges); kind
    "boundary_min" stores the min boundary counts.  `complete` is False
    when a budget ran out; incomplete profiles carry no values.
    """

    kind: str
    i_values: Optional[tuple[int, ...]]
    witnesses: Optional[tuple[tuple[int, ...], ...]]
    complete: bool
    strategy: str
    graph_digest: str
    note: str = ""

    def __post_init__(self):
        if self.complete:
            vals = self.i_values
            if vals is None:
                raise ValueError("complete profile must carry values")
            if self.kind == "induced_max":
                if vals[0] != 0 or any(
                    vals[i + 1] < vals[i] for i in range(len(vals) - 1)
                ):
                    raise ValueError("induced profile must start at 0 and be non-decreasing")

    @property
    def n(self) -> int:
        if self.i_values is None:
            raise ValueError("incomplete profile")
        return len(self.i_values) - 1

    def value(self, m: int) -> int:
        if self.i_values is None:
            raise ValueError("incomplete profile")
        return self.i_values[m]

    def values_array(self) -> np.ndarray:
        if self.i_values is None:
            raise ValueError("incomplete profile")
        return np.asarray(self.i_values, dtype=np.int64)

    def witness(self, m: int) -> Optional[tuple[int, ...]]:
        if self.witnesses is None:
            return None
        return self.witnesses[m]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "values": list(self.i_values) if self.i_values is not None else None,
            "witnesses": [list(w) for w in self.witnesses] if self.witnesses else None,
            "complete": self.complete,
            "strategy": self.strategy,
            "graph_digest": self.graph_digest,
            "note": self.note,
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

    def of_vertex(self, v: int) -> int:
        if self.source_order is None:
            raise ValueError("no source order attached")
        return self.values[self.source_order.rank(v) - 1]

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
    set size no chain reaches), or "inconclusive" (budget ran out, which
    is deliberately distinct from a mathematical negative).
    """

    status: str
    order: Optional[TotalOrder]
    failing_size: Optional[int]
    explored: int


# -- subset dynamic program ----------------------------------------------------

_PC16: Optional[np.ndarray] = None


def _pc16() -> np.ndarray:
    global _PC16
    if _PC16 is None:
        t = np.zeros(1 << 16, dtype=np.uint8)
        for i in range(16):
            t[1 << i : 1 << (i + 1)] = t[: 1 << i] + 1
        _PC16 = t
    return _PC16


def _popcount(arr: np.ndarray) -> np.ndarray:
    t = _pc16()
    return t[arr & 0xFFFF] + t[arr >> 16]  # uint8 is plenty for n <= 64


def _dp_subset_values(
    g: Graph, mode: str, budget: Budget
) -> np.ndarray:
    """val[mask] for every membership word, by lowest-set-bit extension.

    mode "induced": number of edges inside the set.
    mode "boundary": number of edges leaving the set.
    """
    n = g.n
    adj = g.adjacency_bitmasks()
    degs = g.degrees()
    val = np.zeros(1 << n, dtype=np.int32)
    t = _pc16()
    for v in range(n - 1, -1, -1):
        budget.check()
        width = n - 1 - v
        r = np.arange(1 << width, dtype=np.uint32)
        adj_high = np.uint32(adj[v] >> (v + 1))
        x = r & adj_high
        pc = (t[x & 0xFFFF] + t[x >> 16]).astype(np.int32)
        base = (r.astype(np.int64) << (v + 1)).astype(np.int64)
        tgt = base | (1 << v)
        if mode == "induced":
            val[tgt] = val[base] + pc
        else:
            val[tgt] = val[base] + np.int32(degs[v]) - 2 * pc
    return val


def _profile_from_values(
    n: int, val: np.ndarray, maximize: bool, with_witnesses: bool, budget: Budget
) -> tuple[list[int], Optional[list[tuple[int, ...]]]]:
    budget.check()
    ids = np.arange(1 << n, dtype=np.uint32)
    pc = _popcount(ids)
    order = np.argsort(pc, kind="stable")
    sorted_pc = pc[order]
    bounds = np.searchsorted(sorted_pc, np.arange(n + 2))
    values: list[int] = []
    wits: Optional[list[tuple[int, ...]]] = [] if with_witnesses else None
    for m in range(n + 1):
        budget.check()
        seg = order[bounds[m] : bounds[m + 1]]
        vals = val[seg]
        k = int(np.argmax(vals)) if maximize else int(np.argmin(vals))
        values.append(int(vals[k]))
        if wits is not None:
            mask = int(seg[k])
            wits.append(tuple(i for i in range(n) if mask >> i & 1))
    return values, wits


def _bnb_profile(g: Graph, budget: Budget) -> tuple[list[int], list[tuple[int, ...]]]:
    """Exact profile by depth-first search with a sound upper bound:
    extending a set A by k vertices from candidate pool C adds at most
    sum over the k best of (2*|N(v) & A| + |N(v) & C|) / 2 edges."""
    n = g.n
    adj = g.adjacency_bitmasks()
    best = [-1] * (n + 1)
    best[0] = 0
    wit: list[int] = [0] * (n + 1)
    pc_int = lambda x: bin(x).count("1")

    def rec(mask: int, start: int, size: int, edges: int):
        budget.check()
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


def exact_profile(
    g: Graph,
    strategy: str = "full",
    *,
    factor_orders: Optional[Sequence[TotalOrder]] = None,
    budget_seconds: Optional[float] = None,
    with_witnesses: bool = True,
) -> Profile:
    """Exact I(m) for all m under the chosen strategy.

    "full" and "bnb" enumerate subsets and work on any graph up to
    FULL_ENUM_CAP vertices.  "compressed" restricts the search to sets
    stable under all single-factor compressions; it requires a product
    graph whose factor orders are optimal (verified here against
    per-factor full profiles) and is exact under that hypothesis.
    """
    if strategy not in ("full", "bnb", "compressed"):
        raise ValueError(f"unknown strategy {strategy!r}")
    budget = Budget(budget_seconds)
    if strategy in ("full", "bnb"):
        if g.n > FULL_ENUM_CAP:
            raise SizeCapExceeded(
                f"{g.n} vertices exceed the {strategy} cap of {FULL_ENUM_CAP}; "
                "use strategy='compressed' on a product with optimal factor orders"
            )
        try:
            if strategy == "full":
                val = _dp_subset_values(g, "induced", budget)
                values, wits = _profile_from_values(
                    g.n, val, True, with_witnesses, budget
                )
            else:
                values, wits = _bnb_profile(g, budget)
        except BudgetExceeded:
            return Profile(
                "induced_max", None, None, False, strategy, g.digest, "budget exceeded"
            )
        return Profile(
            "induced_max",
            tuple(values),
            tuple(wits) if wits is not None else None,
            True,
            strategy,
            g.digest,
        )
    # compressed oracle
    if g.factors is None:
        raise ValueError("compressed strategy requires a product graph")
    if g.n > COMPRESSED_CAP:
        raise SizeCapExceeded(
            f"{g.n} vertices exceed the compressed-profile cap of {COMPRESSED_CAP}"
        )
    if factor_orders is None:
        factor_orders = [factor_profile_and_order(f)[1] for f in g.factors]
    for f, o in zip(g.factors, factor_orders):
        fp, _ = factor_profile_and_order(f)
        ok, bad_m = verify_order_optimal(f, o, fp)
        if not ok:
            raise ValueError(
                f"factor order is not optimal (fails at m={bad_m}); "
                "the compressed oracle would not be exact"
            )
    vals = staircase.downset_profile(g, factor_orders)
    return Profile(
        "induced_max",
        tuple(int(x) for x in vals),
        None,
        True,
        "compressed",
        g.digest,
    )


def theta_profile(
    g: Graph,
    strategy: str = "full",
    *,
    budget_seconds: Optional[float] = None,
    with_witnesses: bool = True,
    induced_profile: Optional[Profile] = None,
) -> Profile:
    """Minimum boundary-edge counts per size.

    strategy "full" enumerates subsets; strategy "via_regular" derives the
    values from an induced profile using the degree identity
    boundary + 2*induced = degree * |A|, valid for regular graphs only.
    """
    if strategy == "via_regular":
        d = g.regular_degree()
        if d is None:
            raise ValueError("via_regular requires a regular graph")
        if induced_profile is None:
            induced_profile = exact_profile(
                g, "full", budget_seconds=budget_seconds, with_witnesses=False
            )
        if not induced_profile.complete:
            return Profile(
                "boundary_min", None, None, False, "via_regular", g.digest, "budget exceeded"
            )
        vals = tuple(
            d * m - 2 * induced_profile.value(m) for m in range(g.n + 1)
        )
        return Profile("boundary_min", vals, None, True, "via_regular", g.digest)
    if strategy != "full":
        raise ValueError(f"unknown theta strategy {strategy!r}")
    if g.n > FULL_ENUM_CAP:
        raise SizeCapExceeded(
            f"{g.n} vertices exceed the full-enumeration cap of {FULL_ENUM_CAP}"
        )
    budget = Budget(budget_seconds)
    try:
        val = _dp_subset_values(g, "boundary", budget)
        values, wits = _profile_from_values(g.n, val, False, with_witnesses, budget)
    except BudgetExceeded:
        return Profile("boundary_min", None, None, False, "full", g.digest, "budget exceeded")
    return Profile(
        "boundary_min",
        tuple(values),
        tuple(wits) if wits is not None else None,
        True,
        "full",
        g.digest,
    )


def delta_sequence(
    profile: Profile, source_order: Optional[TotalOrder] = None
) -> DeltaSequence:
    if not profile.complete:
        raise ValueError("cannot take differences of an incomplete profile")
    if profile.kind != "induced_max":
        raise ValueError("delta-sequences are defined on induced-edge profiles")
    vals = profile.i_values
    return DeltaSequence(
        tuple(vals[m] - vals[m - 1] for m in range(1, len(vals))), source_order
    )


def prefix_edge_counts(g: Graph, order: TotalOrder) -> np.ndarray:
    """|I(initial segment of size m)| for m = 0..n, in O(E)."""
    counts = np.zeros(g.n + 1, dtype=np.int64)
    eu, ev = g.edge_arrays()
    if eu.size:
        hi = np.maximum(order.ranks[eu], order.ranks[ev])
        np.add.at(counts, hi, 1)
    return np.cumsum(counts)


def verify_order_optimal(
    g: Graph, order: TotalOrder, oracle: Profile
) -> tuple[bool, Optional[int]]:
    """True iff every initial segment of the order achieves the oracle
    maximum; otherwise returns the first failing size."""
    if not oracle.complete:
        raise ValueError("oracle profile is incomplete")
    prefix = prefix_edge_counts(g, order)
    target = oracle.values_array()
    bad = np.flatnonzero(prefix != target)
    if bad.size == 0:
        return True, None
    return False, int(bad[0])


def find_nested_chain(
    g: Graph,
    profile: Profile,
    *,
    budget_seconds: Optional[float] = None,
    node_cap: int = 2_000_000,
) -> ChainSearchResult:
    """Depth-first search for a chain of optimal sets, one per size.

    Extends by the lowest-id vertex first, so the result is deterministic.
    Exhausting the search space proves no chain exists; running out of
    budget is reported as inconclusive, never as a negative.
    """
    if not profile.complete:
        raise ValueError("chain search needs a complete profile")
    n = g.n
    adj = g.adjacency_bitmasks()
    target = profile.i_values
    budget = Budget(budget_seconds)
    failed: set[int] = set()
    explored = 0
    deepest = 0
    pc_int = lambda x: bin(x).count("1")

    # stack frames: (mask, edges, size, next candidate vertex)
    stack = [(0, 0, 0, 0)]
    chain: list[int] = []
    try:
        while stack:
            explored += 1
            if explored % 4096 == 0:
                budget.check()
            if explored > node_cap:
                raise BudgetExceeded
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
    except BudgetExceeded:
        return ChainSearchResult("inconclusive", None, None, explored)
    return ChainSearchResult("not_isoperimetric", None, deepest + 1, explored)


# -- per-factor cache ----------------------------------------------------------

_FACTOR_CACHE: dict[str, tuple[Profile, TotalOrder]] = {}


def factor_profile_and_order(g: Graph) -> tuple[Profile, TotalOrder]:
    """Full-enumeration profile plus a deterministic optimal order for a
    small graph, cached by content digest.  Raises if the graph has no
    nested solutions."""
    key = g.digest
    hit = _FACTOR_CACHE.get(key)
    if hit is not None:
        return hit
    prof = exact_profile(g, "full", with_witnesses=False)
    res = find_nested_chain(g, prof)
    if res.status != "order":
        raise ValueError(
            f"graph has no nested solutions (chain search: {res.status})"
        )
    _FACTOR_CACHE[key] = (prof, res.order)
    return prof, res.order


def clear_caches():
    _FACTOR_CACHE.clear()
