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

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import Graph
from .orders import TotalOrder
from .solver import DeltaSequence, Profile, delta_sequence, exact_profile
from .staircase import rank_edge_tables

__all__ = [
    "Partition",
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

    @property
    def boundaries(self) -> tuple[int, ...]:
        """Segment end ranks b_1 < b_2 < ... < b_k = n."""
        return tuple(b for _, b in self.segments)

    @property
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
        order = TotalOrder(data["order"])
        bounds = [int(b) for b in data["boundaries"]]
        segments = []
        a = 1
        for b in bounds:
            segments.append((a, b))
            a = b + 1
        return cls(order, tuple(segments), kind)

    @classmethod
    def from_boundaries(
        cls, order: TotalOrder, boundaries: Sequence[int], kind: str = "custom"
    ) -> "Partition":
        segments = []
        a = 1
        for b in boundaries:
            segments.append((a, int(b)))
            a = int(b) + 1
        return cls(order, tuple(segments), kind)


def standard_monotonic_partition(delta: DeltaSequence) -> Partition:
    """Unique split of the delta-sequence into maximal runs that increase
    by exactly one at each step."""
    if delta.source_order is None:
        raise ValueError("delta-sequence must carry its source order")
    vals = delta.values
    n = len(vals)
    segments = []
    a = 1
    for i in range(1, n):
        if vals[i] - vals[i - 1] != 1:
            segments.append((a, i))
            a = i + 1
    segments.append((a, n))
    return Partition(delta.source_order, tuple(segments), "standard_monotonic")


def atomic_partition(order: TotalOrder) -> Partition:
    return Partition(
        order, tuple((r, r) for r in range(1, order.n + 1)), "atomic"
    )


def segment_graphs(g: Graph, p: Partition) -> tuple[Graph, ...]:
    """Per segment, the graph g induces on it, with each vertex labelled by
    its rank offset in the segment, so that the identity is the order the
    partition gives it.  Built once per partition and graph: the row is
    cached on the partition by g's digest."""
    cache = p.__dict__.setdefault("_segment_graphs", {})
    row = cache.get(g.digest)
    if row is None:
        eu, ev = g.edge_arrays()
        ru, rv = p.order.ranks[eu], p.order.ranks[ev]
        lo, hi = np.minimum(ru, rv), np.maximum(ru, rv)
        graphs = []
        for a, b in p.segments:
            inside = (lo >= a) & (hi <= b)
            graphs.append(Graph(b - a + 1, zip(lo[inside] - a, hi[inside] - a)))
        row = cache[g.digest] = tuple(graphs)
    return row


def segment_subgraph(
    g: Graph, p: Partition, i: int
) -> tuple[Graph, TotalOrder, list[int]]:
    """Graph induced by segment i, relabeled in rank order.

    Returns (subgraph, induced order, old vertex ids).  The induced order
    is the identity on the relabeled vertices because the relabeling
    follows the ambient order.
    """
    a, b = p.segments[i]
    old = [p.order.vertex_at(r) for r in range(a, b + 1)]
    return segment_graphs(g, p)[i], TotalOrder.identity(len(old)), old


def segment_delta(g: Graph, p: Partition, i: int) -> DeltaSequence:
    """Delta-sequence of the segment-induced subgraph under its induced
    order (exact, by full enumeration on the small subgraph)."""
    sub, order, _ = segment_subgraph(g, p, i)
    prof = exact_profile(sub, "full", with_witnesses=False)
    return delta_sequence(prof, order)


def _graph_delta(g: Graph, profile: Optional[Profile]) -> DeltaSequence:
    if profile is None:
        profile = exact_profile(g, "full", with_witnesses=False)
    return delta_sequence(profile)


def validate_isoperimetric_partition(
    g: Graph,
    p: Partition,
    *,
    profile: Optional[Profile] = None,
) -> tuple[bool, list[str]]:
    """Check the two isoperimetric-partition conditions; returns
    (ok, diagnostics).  Requires (and checks) that the partition's own
    order is optimal for g.  Both are read from `rank_edge_tables` of g
    under that order and of each segment graph: the rank-r vertex of
    segment [a, b] sends L[r] - L_seg[r - a + 1] edges to earlier ones."""
    diags: list[str] = []
    if profile is None:
        profile = exact_profile(g, "full", with_witnesses=False)
    W, L = rank_edge_tables(g, p.order)
    bad = np.flatnonzero(W != profile.values_array())
    if bad.size:
        diags.append(f"partition order is not optimal for the graph (fails at m={bad[0]})")
        return False, diags
    delta = delta_sequence(profile)
    ok = True
    for i, ((a, b), sub) in enumerate(zip(p.segments, segment_graphs(g, p))):
        W_seg, L_seg = rank_edge_tables(sub)
        sub_prof = exact_profile(sub, "full", with_witnesses=False)
        bad = np.flatnonzero(W_seg != sub_prof.values_array())
        if bad.size:
            ok = False
            diags.append(
                f"segment {i + 1} [{a},{b}]: induced order not optimal for the "
                f"induced graph (fails at m={bad[0]})"
            )
        # condition 2: backward edges of each vertex equal delta at the start
        want = delta.at_rank(a)
        got = L[a : b + 1] - L_seg[1:]
        for k in np.flatnonzero(got != want).tolist():
            ok = False
            diags.append(
                f"segment {i + 1} [{a},{b}]: vertex {p.order.vertex_at(a + k)} "
                f"sends {got[k]} edges to earlier segments, expected "
                f"delta({a}) = {want}"
            )
    return ok, diags


def is_non_decreasing(g: Graph, p: Partition) -> bool:
    """Each segment's induced delta-sequence is non-decreasing."""
    for i in range(p.num_segments):
        vals = segment_delta(g, p, i).values
        if any(vals[j + 1] < vals[j] for j in range(len(vals) - 1)):
            return False
    return True


def is_regular_partition(g: Graph, p: Partition) -> bool:
    """First and last segments have identical induced delta-sequences."""
    first = segment_delta(g, p, 0).values
    last = segment_delta(g, p, p.num_segments - 1).values
    return first == last


def segment_delta_shift(
    g: Graph,
    p: Partition,
    i: int,
    x: int,
    y: int,
    *,
    profile: Optional[Profile] = None,
) -> tuple[int, int]:
    """Both sides of the within-segment delta-shift identity for vertices
    x, y of segment i: the ambient delta difference and the induced
    subgraph's delta difference.  They must be equal for isoperimetric
    partitions."""
    a, b = p.segments[i]
    rx, ry = p.order.rank(x), p.order.rank(y)
    if not (a <= rx <= b and a <= ry <= b):
        raise ValueError("both vertices must lie in the given segment")
    ambient = _graph_delta(g, profile)
    lhs = ambient.at_rank(rx) - ambient.at_rank(ry)
    seg = segment_delta(g, p, i)
    rhs = seg.at_rank(rx - a + 1) - seg.at_rank(ry - a + 1)
    return lhs, rhs
