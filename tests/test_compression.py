"""The compression calculus: single compressions, fixpoints, predicates,
weights, and the downset enumeration/profile oracles."""

import math

import numpy as np
import pytest

from blocklex import (
    OrderFamily,
    TotalOrder,
    VertexSet,
    cartesian_product,
    clique,
    compress_once,
    compress_to_fixpoint,
    count_downsets,
    cycle,
    delta_sequence,
    downset_profile,
    enumerate_compressed,
    exact_profile,
    factor_profile_and_order,
    graph_power,
    induced_edges,
    is_block_compressed,
    is_compressed,
    is_consistent,
    is_slice_compressed,
    is_strongly_compressed,
    lex_order,
    path,
    petersen,
    reverse_order,
    standard_collection,
    strongly_compress,
    uniform_collection,
    weight,
)
from blocklex.compression import (
    CompressionDidNotStabilize,
    singleton_schedule,
    vertex_weight_table,
)
from blocklex.partitions import atomic_partition
from blocklex.staircase import staircase_scan_2d


def lex_family(g):
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    return OrderFamily.lexicographic(g, orders), orders


@pytest.fixture(scope="module")
def square():
    g = graph_power(clique(2), 2)
    fam, _ = lex_family(g)
    return g, fam


def test_compress_antidiagonal(square):
    g, fam = square
    anti = VertexSet.from_ids(4, [1, 2])
    assert induced_edges(g, anti) == 0
    out = compress_once(g, anti, (0,), fam)
    assert out.ids().tolist() == [0, 1]
    assert induced_edges(g, out) == 1
    assert not is_compressed(g, anti, fam)


def test_compress_fixed_point_unchanged(square):
    g, fam = square
    seg = VertexSet.from_ids(4, [0, 1, 2])
    for s in [(0,), (1,)]:
        assert compress_once(g, seg, s, fam) == seg


def test_compress_full_and_empty(square):
    g, fam = square
    for a in [VertexSet.empty(4), VertexSet.full(4)]:
        assert compress_once(g, a, (0,), fam) == a
        assert is_strongly_compressed(g, a, fam)


def test_fixpoint_of_stable_set_is_one_cycle(square):
    g, fam = square
    seg = VertexSet.from_ids(4, [0, 1])
    out, cycles = compress_to_fixpoint(g, seg, singleton_schedule(2), fam)
    assert out == seg and cycles == 1


def test_singleton_goes_to_origin():
    g = cartesian_product([clique(2), clique(3), clique(4)])
    fam, orders = lex_family(g)
    origin = g.vertex_id([o.vertex_at(1) for o in orders])
    for v in range(g.n):
        out, _ = compress_to_fixpoint(g, [v], singleton_schedule(3), fam)
        assert out.ids().tolist() == [origin]


def test_fixpoint_monotone_induced_edges():
    g = cartesian_product([clique(2), clique(3)])
    fam, _ = lex_family(g)
    rng = np.random.default_rng(11)
    for _ in range(200):
        ids = rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False)
        a = VertexSet.from_ids(g.n, ids)
        cur = a
        for _ in range(3):
            for s in singleton_schedule(2):
                nxt = compress_once(g, cur, s, fam)
                assert len(nxt) == len(cur)
                assert induced_edges(g, nxt) >= induced_edges(g, cur)
                cur = nxt
        out, cycles = compress_to_fixpoint(g, a, singleton_schedule(2), fam)
        assert is_compressed(g, out, fam)


def test_compression_subset_monotone():
    g = graph_power(clique(2), 3)
    fam, _ = lex_family(g)
    rng = np.random.default_rng(5)
    for _ in range(200):
        ids = rng.choice(8, size=rng.integers(0, 9), replace=False)
        a = VertexSet.from_ids(8, ids)
        sub = rng.choice(8, size=rng.integers(0, 9), replace=False)
        b = VertexSet(a.mask & VertexSet.from_ids(8, sub).mask)
        for s in [(0,), (1,), (2,), (0, 1), (1, 2)]:
            ca = compress_once(g, a, s, fam)
            cb = compress_once(g, b, s, fam)
            assert cb.issubset(ca)


def test_initial_segments_strongly_compressed():
    g = graph_power(clique(2), 3)
    fam, orders = lex_family(g)
    o = lex_order(g, orders)
    for m in range(9):
        assert is_strongly_compressed(g, o.initial_segment(m), fam)


def test_inconsistent_schedule_hits_cap(square):
    g, _ = square
    o2 = TotalOrder.identity(2)
    # the pair order sorts lines against the singleton order: no common
    # global order exists, so the iteration cannot stabilize
    fam = OrderFamily.custom(
        g,
        {
            (0,): o2,
            (1,): o2,
            (0, 1): lex_order(g, [reverse_order(o2), reverse_order(o2)]),
        },
    )
    anti = VertexSet.from_ids(4, [1, 3])
    with pytest.raises(CompressionDidNotStabilize):
        compress_to_fixpoint(g, anti, ((0,), (0, 1)), fam)


def test_family_orders_must_fit_the_product():
    """Walks are read off the orders alone, so orders of the factors'
    sizes in the wrong places must be refused, not compressed with."""
    g = cartesian_product([clique(2), clique(3)])
    o2, o3 = TotalOrder.identity(2), TotalOrder.identity(3)
    for orders in ([o3, o2], [o2], [o2, o3, o2]):
        with pytest.raises(ValueError):
            OrderFamily.lexicographic(g, orders)
    with pytest.raises(ValueError):
        OrderFamily.custom(g, {(0,): o3})
    with pytest.raises(ValueError):
        is_consistent(g, TotalOrder.identity(7), o2, (0,))


def test_strongly_compress_properties():
    g = cartesian_product([clique(2), clique(2), clique(3)])
    fam, _ = lex_family(g)
    rng = np.random.default_rng(23)
    for _ in range(100):
        ids = rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False)
        a = VertexSet.from_ids(g.n, ids)
        out = strongly_compress(g, a, fam)
        assert len(out) == len(a)
        assert induced_edges(g, out) >= induced_edges(g, a)
        assert is_strongly_compressed(g, out, fam)


# -- weights ---------------------------------------------------------------


def factor_deltas(g):
    out = []
    for f in g.factors:
        prof, order = factor_profile_and_order(f)
        out.append(delta_sequence(prof, order))
    return out


def test_weight_empty(square):
    g, _ = square
    assert weight(g, VertexSet.empty(4), factor_deltas(g)) == 0


def test_weight_matches_small_example(square):
    g, _ = square
    a = VertexSet.from_ids(4, [0, 1, 2])
    assert weight(g, a, factor_deltas(g)) == 2 == induced_edges(g, a)


def test_weight_of_full_set_is_edge_count():
    for factors in [[clique(2)] * 2, [clique(2), clique(3)], [cycle(5), cycle(4)]]:
        g = cartesian_product(factors)
        assert weight(g, VertexSet.full(g.n), factor_deltas(g)) == g.num_edges


def test_weight_equals_induced_on_compressed_sets():
    """On every enumerated compressed set, weight = induced edge count."""
    for factors in [[clique(2)] * 3, [clique(2), clique(3)], [cycle(5), clique(2)]]:
        g = cartesian_product(factors)
        orders = [factor_profile_and_order(f)[1] for f in g.factors]
        deltas = factor_deltas(g)
        for m in range(g.n + 1):
            for a in enumerate_compressed(g, orders, m):
                assert weight(g, a, deltas) == induced_edges(g, a)


def test_weight_table_reads_factor_ranks():
    """A literal per-vertex reference under reversed factor orders, where
    a vertex's coordinates are not its ranks: each coordinate contributes
    its factor's delta at the coordinate's rank."""
    g = cartesian_product([path(4), cycle(5), clique(3)])
    deltas = [
        delta_sequence(prof, reverse_order(o))
        for prof, o in map(factor_profile_and_order, g.factors)
    ]
    want = [
        sum(
            d.at_rank(d.source_order.rank(c))
            for d, c in zip(deltas, g.vertex_tuple(v))
        )
        for v in range(g.n)
    ]
    assert vertex_weight_table(g, deltas).tolist() == want


def test_weight_difference_identity():
    """For compressed A and compressed B, the induced-edge difference is
    weight(A \\ B) - weight(B \\ A); swapping in/out sets keeps the
    accounting exact."""
    g = cartesian_product([clique(2), clique(3)])
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    deltas = factor_deltas(g)
    downsets = [a for m in range(g.n + 1) for a in enumerate_compressed(g, orders, m)]
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = downsets[rng.integers(len(downsets))]
        b = downsets[rng.integers(len(downsets))]
        t1 = b - a  # added
        t2 = a - b  # removed
        lhs = induced_edges(g, a) - induced_edges(g, b)
        assert lhs == weight(g, t2, deltas) - weight(g, t1, deltas)


# -- block and slice compression ---------------------------------------------


def test_block_slice_compressed_on_initial_segments():
    g = cartesian_product([clique(2), petersen()])
    dc = standard_collection(g.factors)
    ok, _ = dc.validate(g)
    assert ok
    from blocklex import block_lex_order

    bl = block_lex_order(g, dc)
    for m in range(0, g.n + 1, 3):
        seg = bl.initial_segment(m)
        assert is_block_compressed(g, dc, seg)
        assert is_slice_compressed(g, dc, seg)


def test_empty_set_block_and_slice_compressed(square):
    g, _ = square
    parts = [atomic_partition(TotalOrder.identity(2))] * 2
    dc = uniform_collection(parts)
    dc.validate(g)
    a = VertexSet.empty(4)
    assert is_block_compressed(g, dc, a)
    assert is_slice_compressed(g, dc, a)


def test_skipped_block_not_block_compressed(square):
    g, _ = square
    parts = [atomic_partition(TotalOrder.identity(2))] * 2
    dc = uniform_collection(parts)
    dc.validate(g)
    a = VertexSet.from_ids(4, [3])  # last block touched, none before full
    assert not is_block_compressed(g, dc, a)


def test_block_compressed_implies_slice_compressed():
    """Blocks listed before the last touched one, restricted to a slice,
    stay before that slice's last touched block, so the global condition
    implies the per-slice one."""
    g = cartesian_product([clique(2), clique(3)])
    parts = [
        atomic_partition(TotalOrder.identity(2)),
        atomic_partition(TotalOrder.identity(3)),
    ]
    dc = uniform_collection(parts)
    dc.validate(g)
    rng = np.random.default_rng(17)
    seen = 0
    for _ in range(300):
        ids = rng.choice(6, size=rng.integers(0, 7), replace=False)
        a = VertexSet.from_ids(6, ids)
        if is_block_compressed(g, dc, a):
            seen += 1
            assert is_slice_compressed(g, dc, a)
    assert seen > 5


def test_slice_compressed_does_not_imply_block_compressed():
    """The converse fails: a full 2x2 corner in K2 x K3 satisfies the
    per-slice condition while skipping a block globally (it is even
    strongly compressed)."""
    g = cartesian_product([clique(2), clique(3)])
    parts = [
        atomic_partition(TotalOrder.identity(2)),
        atomic_partition(TotalOrder.identity(3)),
    ]
    dc = uniform_collection(parts)
    dc.validate(g)
    corner = VertexSet.from_ids(6, [0, 1, 3, 4])
    fam = OrderFamily.lexicographic(
        g, [TotalOrder.identity(2), TotalOrder.identity(3)]
    )
    assert is_strongly_compressed(g, corner, fam)
    assert is_slice_compressed(g, dc, corner)
    assert not is_block_compressed(g, dc, corner)


# -- enumeration and the downset profile oracle --------------------------------


def test_enumerate_square_pairs(square):
    g, _ = square
    o2 = TotalOrder.identity(2)
    sets = sorted(tuple(a.ids().tolist()) for a in enumerate_compressed(g, [o2, o2], 2))
    assert sets == [(0, 1), (0, 2)]


def test_enumerate_size_zero(square):
    g, _ = square
    o2 = TotalOrder.identity(2)
    sets = list(enumerate_compressed(g, [o2, o2], 0))
    assert len(sets) == 1 and len(sets[0]) == 0


def test_enumerate_visits_exactly_the_compressed_sets():
    g = cartesian_product([clique(2), clique(3)])
    fam, orders = lex_family(g)
    from itertools import combinations

    for m in range(g.n + 1):
        enumerated = {tuple(a.ids().tolist()) for a in enumerate_compressed(g, orders, m)}
        brute = {
            ids
            for ids in combinations(range(g.n), m)
            if is_compressed(g, VertexSet.from_ids(g.n, ids), fam)
        }
        assert enumerated == brute


def test_enumerate_counts_match_counting_oracle():
    for shape in [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3)]:
        factors = [clique(k) for k in shape]
        g = cartesian_product(factors)
        orders = [TotalOrder.identity(k) for k in shape]
        for m in range(g.n + 1):
            got = sum(1 for _ in enumerate_compressed(g, orders, m))
            assert got == count_downsets(shape, m)


def test_box_counts_total_is_binomial():
    total = sum(count_downsets((10, 10), m) for m in range(101))
    assert total == math.comb(20, 10)


def test_downset_profile_is_exact_on_small_products():
    """max over compressed sets of the induced edge count equals the true
    profile whenever the factor orders are optimal."""
    for factors in [
        [clique(2)] * 3,
        [clique(2), clique(3)],
        [cycle(5), cycle(4)],
        [petersen(), clique(2)],
        [path(3), path(3)],
    ]:
        g = cartesian_product(factors)
        orders = [factor_profile_and_order(f)[1] for f in g.factors]
        oracle = downset_profile(g, orders)
        full = exact_profile(g, "full", with_witnesses=False)
        assert oracle.tolist() == list(full.i_values), factors


def test_downset_profile_matches_enumeration_maxima():
    g = cartesian_product([cycle(5), clique(2)])
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    oracle = downset_profile(g, orders)
    for m in range(g.n + 1):
        best = max(
            induced_edges(g, a) for a in enumerate_compressed(g, orders, m)
        )
        assert best == oracle[m]


def test_pure_3d_profile_matches_full():
    g = cartesian_product([clique(2), clique(2), clique(3)])
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    oracle = downset_profile(g, orders)
    full = exact_profile(g, "full", with_witnesses=False)
    assert oracle.tolist() == list(full.i_values)


def test_stacked_profile_matches_pure_3d():
    from blocklex.staircase import rank_edge_tables, stacked_profile

    for factors in [
        [cycle(5), cycle(4), cycle(3)],
        [clique(2), clique(2), clique(3)],
        [petersen(), clique(2), clique(2)],
    ]:
        g = cartesian_product(factors)
        orders = [factor_profile_and_order(f)[1] for f in g.factors]
        pure = downset_profile(g, orders)
        from blocklex import subproduct

        inner = subproduct(g, (1, 2))
        inner_vals = downset_profile(inner, orders[1:])
        _, L1 = rank_edge_tables(g.factors[0], orders[0])
        stacked = stacked_profile(L1, inner_vals, g.factors[0].n, inner.n, g.n)
        assert stacked.tolist() == pure.tolist(), factors


def test_scan_2d_agrees_with_profile(pet, pet_order):
    g = graph_power(pet, 2)
    best, counts = staircase_scan_2d(g, [pet_order, pet_order])
    oracle = downset_profile(g, [pet_order, pet_order])
    assert np.array_equal(best, oracle)
    assert counts.sum() == math.comb(20, 10)
    for m in range(101):
        assert counts[m] == count_downsets((10, 10), m)
