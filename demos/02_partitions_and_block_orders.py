#!/usr/bin/env python3
"""Partitions of an optimal order and the block-lexicographic orders.

The standard monotonic partition cuts the delta-sequence into maximal
runs that climb by exactly one; each run's vertex set induces a clique.
Coarser isoperimetric partitions exist too: the Petersen order splits
into two halves, each inducing a five-cycle.  Per-factor partitions tile
a product into blocks; ordering blocks by their starts and vertices
inside a block by a per-block domination permutation gives the
block-lexicographic order.
"""

import blocklex as bx
from blocklex import Partition

pet = bx.petersen()
prof, order = bx.factor_profile_and_order(pet)
delta = bx.delta_sequence(prof, order)

mono = bx.standard_monotonic_partition(delta)
print("Petersen delta:", list(delta.values))
print("standard monotonic partition:", list(mono.segments))
ok, diags = bx.validate_isoperimetric_partition(pet, mono)
print("isoperimetric:", ok, "| non-decreasing:", bx.is_non_decreasing(pet, mono),
      "| regular:", bx.is_regular_partition(pet, mono))
print()

halves = Partition.from_boundaries(order, [5, 10])
ok, _ = bx.validate_isoperimetric_partition(pet, halves)
print("halves partition [1..5][6..10] valid:", ok)
for i in range(2):
    sub, _, _ = bx.segment_subgraph(pet, halves, i)
    print(f"  half {i + 1}: {sub.n} vertices, {sub.num_edges} edges, "
          f"{sub.regular_degree()}-regular (a five-cycle)")
print()

# Blocks of the Petersen square under the standard monotonic partitions.
g = bx.graph_power(pet, 2)
sbl, dc = bx.standard_block_lex_order(g)
print(f"Petersen^2: {len(dc.block_ids())} blocks from 6x6 segment grid")
bid = (2, 0)
print("block (3,1): vertices", sorted(bx.blockgeom.block_vertices(g, dc, bid)),
      "start", bx.start_of(g, dc, bid))
print("  skeleton size:", len(bx.skeleton(g, dc, bid)))
print("  slice 1 size:", len(bx.slice_vertices(g, dc, 0)))

# The standard block-lexicographic order is optimal for the square: its
# initial segments meet the compressed-set oracle at every size.
oracle = bx.downset_profile(g, [order, order])
prefix = bx.prefix_edge_counts(g, sbl)
assert (prefix == oracle).all()
print("standard block-lex order verified optimal at all 101 sizes")
