"""Partitions of an ordered vertex set into rank segments: the standard
monotonic partition, atomic partitions, and validation of the general
isoperimetric-partition conditions.

A partition lives over a total order and splits the ranks 1..n into
contiguous segments [a_i, b_i].  The two conditions checked by the
validator are (1) each segment induces a graph with nested solutions whose
induced order is optimal for it, and (2) every vertex of segment i sends
exactly delta(a_i) edges to the union of the earlier segments, where delta
is the delta-sequence of the ambient graph.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph, integers, json_fields
from .orders import TotalOrder
from .solver import DeltaSequence, Profile, delta_sequence, exact_profile
from .staircase import rank_edge_tables

__all__ = [
    "Partition",
    "FactorTable",
    "factor_table",
    "standard_monotonic_partition",
    "atomic_partition",
    "segment_graphs",
    "segment_subgraph",
    "segment_delta",
    "validate_isoperimetric_partition",
    "is_non_decreasing",
    "is_regular_partition",
    "segment_delta_shift",
]


@dataclass(frozen=True)
class Partition:
    """Ordered rank segments [a_i, b_i] covering 1..n over a total order."""

    order: TotalOrder
    segments: tuple[tuple[int, int], ...]
    kind: str = "custom"

    def __post_init__(self):
        n = self.order.n
        if not self.segments:
            raise ValueError("partition needs at least one segment")
        expect = 1
        for a, b in self.segments:
            if a != expect or b < a:
                raise ValueError(
                    f"segments must be contiguous and ordered; got {self.segments}"
                )
            expect = b + 1
        if expect != n + 1:
            raise ValueError("segments do not cover all ranks")

    @property
    def n(self) -> int:
        return self.order.n

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @functools.cached_property
    def boundaries(self) -> tuple[int, ...]:
        """Segment end ranks b_1 < b_2 < ... < b_k = n."""
        return tuple(b for _, b in self.segments)

    @functools.cached_property
    def start_ranks(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.segments)

    def start_vertices(self) -> tuple[int, ...]:
        """The start set: the first vertex of each segment."""
        return tuple(self.order.vertex_at(a) for a, _ in self.segments)

    def segment_of_rank(self, r: int) -> int:
        for i, (a, b) in enumerate(self.segments):
            if a <= r <= b:
                return i
        raise ValueError(f"rank {r} out of range")

    def to_json(self) -> dict:
        return {"order": self.order.ranks.tolist(), "boundaries": list(self.boundaries)}

    @classmethod
    def from_json(cls, data: dict, kind: str = "custom") -> "Partition":
        ranks, ends = json_fields(data, "a partition", "order", "boundaries")
        order = TotalOrder(integers(ranks, "partition order ranks"))
        ends = integers(ends, "partition boundaries")
        return cls.from_boundaries(order, ends, kind)

    @classmethod
    def from_boundaries(
        cls, order: TotalOrder, boundaries: Sequence[int], kind: str = "custom"
    ) -> "Partition":
        ends = [int(b) for b in boundaries]
        return cls(order, tuple(zip([1] + [b + 1 for b in ends[:-1]], ends)), kind)


def standard_monotonic_partition(delta: DeltaSequence) -> Partition:
    """Unique split of the delta-sequence into maximal runs that increase
    by exactly one at each step."""
    if delta.source_order is None:
        raise ValueError("delta-sequence must carry its source order")
    vals = delta.values
    ends = [i for i in range(1, len(vals)) if vals[i] - vals[i - 1] != 1]
    return Partition.from_boundaries(
        delta.source_order, ends + [len(vals)], "standard_monotonic"
    )


def atomic_partition(order: TotalOrder) -> Partition:
    return Partition(order, tuple((r, r) for r in range(1, order.n + 1)), "atomic")


class FactorTable:
    """A graph under an order (the identity when no partition is given)
    and what the local-global hypotheses read about it, each built once:
    the back-degree tables (W, L) of `rank_edge_tables` and, on first use,
    its exact profile ("full", without witnesses, from the profile cache),
    the delta sequence (`delta[r - 1]` = delta(r)) and, under a partition
    p, one table per segment graph (`segments`).  Tables that share the
    dict `shared` share the tables of equal segment graphs, keyed by size
    and edges."""

    def __init__(self, g: Graph, p: Optional[Partition] = None, shared=None):
        self.g, self.p, self.shared = g, p, shared
        self.W, self.L = rank_edge_tables(g, None if p is None else p.order)

    @functools.cached_property
    def profile(self) -> Profile:
        return exact_profile(self.g, "full", with_witnesses=False)

    @functools.cached_property
    def delta(self) -> tuple[int, ...]:
        vals = self.profile.i_values
        return tuple(map(operator.sub, vals[1:], vals[:-1]))

    @functools.cached_property
    def segments(self) -> tuple["FactorTable", ...]:
        """Per segment of p, the table of the graph g induces on it, each
        vertex labelled by its rank offset in the segment, so that the
        identity is the order the partition gives it."""
        eu, ev = self.g.edge_arrays()
        ru, rv = self.p.order.ranks[eu], self.p.order.ranks[ev]
        # start[r]: the first rank of r's segment
        start = [0] + [a for a, b in self.p.segments for _ in range(a, b + 1)]
        inner: dict[int, list] = {a: [] for a in self.p.start_ranks}
        for x, y in sorted(zip(np.minimum(ru, rv).tolist(), np.maximum(ru, rv).tolist())):
            if start[x] == start[y]:
                inner[start[x]].append((x - start[x], y - start[x]))
        out = []
        for a, b in self.p.segments:
            key = (b - a + 1, tuple(inner[a]))
            t = None if self.shared is None else self.shared.get(key)
            if t is None:
                t = FactorTable(Graph(*key), shared=self.shared)
                if self.shared is not None:
                    self.shared[key] = t
            out.append(t)
        return tuple(out)


def factor_table(g: Graph, p: Partition, shared=None) -> FactorTable:
    """The `FactorTable` of g under p, built once and kept on p by g's
    digest; `shared` only serves its first build."""
    tables = p.__dict__.setdefault("_tables", {})
    t = tables.get(g.digest)
    if t is None:
        t = tables[g.digest] = FactorTable(g, p, shared)
    return t


def segment_graphs(g: Graph, p: Partition) -> tuple[Graph, ...]:
    """Per segment, the graph g induces on it (`FactorTable.segments`)."""
    return tuple(t.g for t in factor_table(g, p).segments)


def segment_subgraph(
    g: Graph, p: Partition, i: int
) -> tuple[Graph, TotalOrder, list[int]]:
    """Graph induced by segment i, relabeled in rank order.

    Returns (subgraph, induced order, old vertex ids).  The induced order
    is the identity on the relabeled vertices because the relabeling
    follows the ambient order.
    """
    a, b = p.segments[i]
    old = p.order.inverse[a - 1 : b].tolist()
    return segment_graphs(g, p)[i], TotalOrder.identity(len(old)), old


def segment_delta(g: Graph, p: Partition, i: int) -> DeltaSequence:
    """Delta-sequence of the segment-induced subgraph under its induced
    order (exact, by full enumeration on the small subgraph)."""
    t = factor_table(g, p).segments[i]
    return delta_sequence(t.profile, TotalOrder.identity(t.g.n))


def validate_isoperimetric_partition(g: Graph, p: Partition) -> tuple[bool, list[str]]:
    """Check the two isoperimetric-partition conditions; returns
    (ok, diagnostics).  Requires (and checks) that the partition's own
    order is optimal for g.  Both are read from g's `factor_table` under
    p in one pass over the ranks: the rank-r vertex of segment [a, b] sends
    L[r] - L_seg[r - a + 1] edges to earlier ones, where delta(a) asks."""
    t = factor_table(g, p)
    bad = np.flatnonzero(t.W != t.profile.i_values)
    if bad.size:
        diag = f"partition order is not optimal for the graph (fails at m={bad[0]})"
        return False, [diag]
    diags: list[str] = []
    for i, ((a, b), s) in enumerate(zip(p.segments, t.segments)):
        # W_seg and I_seg first differ where their steps L_seg and delta_seg do
        off = [k for k, x in enumerate(s.L[1:].tolist(), 1) if x != s.delta[k - 1]]
        if off:
            diags.append(
                f"segment {i + 1} [{a},{b}]: induced order not optimal for the "
                f"induced graph (fails at m={off[0]})"
            )
        want, got = t.delta[a - 1], (t.L[a : b + 1] - s.L[1:]).tolist()
        for k in [k for k, x in enumerate(got) if x != want]:
            diags.append(
                f"segment {i + 1} [{a},{b}]: vertex {p.order.vertex_at(a + k)} "
                f"sends {got[k]} edges to earlier segments, expected "
                f"delta({a}) = {want}"
            )
    return not diags, diags


def is_non_decreasing(g: Graph, p: Partition) -> bool:
    """Each segment's induced delta-sequence is non-decreasing."""
    return all(
        x <= y for s in factor_table(g, p).segments for x, y in zip(s.delta, s.delta[1:])
    )


def is_regular_partition(g: Graph, p: Partition) -> bool:
    """First and last segments have identical induced delta-sequences."""
    segments = factor_table(g, p).segments
    return segments[0].delta == segments[-1].delta


def segment_delta_shift(g: Graph, p: Partition, i: int, x: int, y: int) -> tuple[int, int]:
    """Both sides of the within-segment delta-shift identity for vertices
    x, y of segment i: the ambient delta difference and the induced
    subgraph's delta difference.  They must be equal for isoperimetric
    partitions."""
    a, b = p.segments[i]
    rx, ry = p.order.rank(x), p.order.rank(y)
    if not (a <= rx <= b and a <= ry <= b):
        raise ValueError("both vertices must lie in the given segment")
    t = factor_table(g, p)
    seg = t.segments[i].delta
    return t.delta[rx - 1] - t.delta[ry - 1], seg[rx - a] - seg[ry - a]
