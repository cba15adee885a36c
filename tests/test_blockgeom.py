"""Blocks, bones, skeletons, stacks, slices, and the block-lexicographic
orders built from domination collections."""

import itertools

import numpy as np
import pytest

from blocklex import (
    DominationCollection,
    Partition,
    TotalOrder,
    atomic_partition,
    block_lex_order,
    block_of,
    bone,
    cartesian_product,
    clique,
    cycle,
    delta_sequence,
    disjoint_union,
    domination_order,
    factor_profile_and_order,
    graph_power,
    is_consistent,
    lex_order,
    petersen,
    skeleton,
    slice_vertices,
    stack,
    standard_block_domination,
    standard_block_lex_order,
    standard_collection,
    standard_monotonic_partition,
    start_of,
    subproduct,
    uniform_collection,
    validate_regular_domination_collection,
)
from blocklex.blockgeom import block_graph_and_order, block_vertices
from blocklex.graphs import VertexSet, induced_subgraph


def atomic_dc(g):
    parts = [atomic_partition(factor_profile_and_order(f)[1]) for f in g.factors]
    dc = uniform_collection(parts)
    ok, diags = dc.validate(g)
    assert ok, diags
    return dc


@pytest.fixture(scope="module")
def pet2_setup():
    pet = petersen()
    g = graph_power(pet, 2)
    order, dc = standard_block_lex_order(g)
    return pet, g, order, dc


def test_atomic_blocks_are_vertices(cube3):
    dc = atomic_dc(cube3)
    for v in range(cube3.n):
        bid = block_of(cube3, dc, v)
        assert start_of(cube3, dc, bid) == v
        assert block_vertices(cube3, dc, bid).ids().tolist() == [v]
        assert skeleton(cube3, dc, bid).ids().tolist() == [v]


def test_petersen_halves_blocks(pet, pet_order):
    halves = Partition.from_boundaries(pet_order, [5, 10])
    g = graph_power(pet, 2)
    dc = uniform_collection([halves, halves])
    ok, _ = dc.validate(g, check_block_optimality=False)
    assert ok
    assert len(dc.block_ids()) == 4
    for bid in dc.block_ids():
        assert len(block_vertices(g, dc, bid)) == 25
    assert len(slice_vertices(g, dc, 0)) == 50
    assert len(slice_vertices(g, dc, 1)) == 50


def test_first_block_start_is_rank_one_everywhere(pet2_setup):
    _, g, _, dc = pet2_setup
    first = start_of(g, dc, (0, 0))
    expect = [p.order.vertex_at(1) for p in dc.partitions]
    assert g.vertex_tuple(first) == tuple(expect)


def test_skeleton_size_formula(pet2_setup):
    """Bones share only the start: |skeleton| = 1 + sum (|Z_i| - 1)."""
    _, g, _, dc = pet2_setup
    for bid in dc.block_ids():
        segs = dc.block_segments(bid)
        sizes = [b - a + 1 for a, b in segs]
        assert len(skeleton(g, dc, bid)) == 1 + sum(s - 1 for s in sizes)


def test_bone_one_factor_is_whole_block():
    g = cartesian_product([clique(3)])
    prof, order = factor_profile_and_order(clique(3))
    p = standard_monotonic_partition(delta_sequence(prof, order))
    dc = uniform_collection([p])
    dc.validate(g)
    bid = (0,)
    assert bone(g, dc, bid, 0) == block_vertices(g, dc, bid)
    assert skeleton(g, dc, bid) == block_vertices(g, dc, bid)


def test_slices_partition_vertices(pet2_setup):
    _, g, _, dc = pet2_setup
    total = 0
    seen = np.zeros(g.n, dtype=bool)
    for q in range(dc.partitions[0].num_segments):
        s = slice_vertices(g, dc, q)
        assert not np.any(seen & s.mask)
        seen |= s.mask
        total += len(s)
    assert total == g.n


def test_stacks_partition_each_slice(pet2_setup):
    _, g, _, dc = pet2_setup
    d = dc.d
    for q in range(dc.partitions[0].num_segments):
        sl = slice_vertices(g, dc, q)
        seen = np.zeros(g.n, dtype=bool)
        for j in range(dc.partitions[1].num_segments):
            st = stack(g, dc, d - 1, (q, j))
            assert st.issubset(sl)
            seen |= st.mask
        assert np.array_equal(seen, sl.mask)


def test_single_segment_partitions_collapse():
    g = cartesian_product([clique(3), clique(4)])
    parts = []
    for f in g.factors:
        prof, order = factor_profile_and_order(f)
        parts.append(standard_monotonic_partition(delta_sequence(prof, order)))
    dc = uniform_collection(parts)
    dc.validate(g)
    assert len(dc.block_ids()) == 1
    bid = (0, 0)
    assert block_vertices(g, dc, bid) == slice_vertices(g, dc, 0)
    assert block_vertices(g, dc, bid) == stack(g, dc, 0, bid)


def test_blocks_starts_bijection(pet2_setup):
    _, g, _, dc = pet2_setup
    starts = {start_of(g, dc, bid) for bid in dc.block_ids()}
    assert len(starts) == len(dc.block_ids())


def test_block_lex_refuses_unvalidated(cube3):
    parts = [atomic_partition(TotalOrder.identity(2)) for _ in range(3)]
    dc = uniform_collection(parts)
    with pytest.raises(ValueError, match="validate"):
        block_lex_order(cube3, dc)


def test_atomic_block_lex_is_lex(cube3):
    dc = atomic_dc(cube3)
    bl = block_lex_order(cube3, dc)
    lx = lex_order(cube3, [p.order for p in dc.partitions])
    assert bl == lx


def test_single_block_is_domination_order():
    # K3 x K2 with the K2 coordinate most significant: ascending-size
    # significance, an optimal single-block domination order
    g = cartesian_product([clique(3), clique(2)])
    parts = []
    for f in g.factors:
        prof, order = factor_profile_and_order(f)
        parts.append(standard_monotonic_partition(delta_sequence(prof, order)))
    pi = (1, 0)
    dc = uniform_collection(parts, pi)
    ok, _ = dc.validate(g)
    assert ok
    bl = block_lex_order(g, dc)
    dom = domination_order(g, [p.order for p in parts], pi)
    assert bl == dom


def test_validation_rejects_suboptimal_block_order():
    # K2 x K3 with the K3 coordinate most significant loses at m = 3
    g = cartesian_product([clique(2), clique(3)])
    parts = []
    for f in g.factors:
        prof, order = factor_profile_and_order(f)
        parts.append(standard_monotonic_partition(delta_sequence(prof, order)))
    dc = uniform_collection(parts, (1, 0))
    ok, diags = dc.validate(g)
    assert not ok
    assert any("not optimal" in d for d in diags)


def test_block_order_matches_start_order(pet2_setup):
    """Blocks sorted by id-tuples coincide with blocks sorted by the
    lexicographic comparison of their start rank pairs."""
    _, g, order, dc = pet2_setup
    ids = sorted(dc.block_ids())
    def start_ranks(bid):
        return tuple(
            dc.partitions[i].order.rank(c)
            for i, c in enumerate(g.vertex_tuple(start_of(g, dc, bid)))
        )
    by_start = sorted(dc.block_ids(), key=start_ranks)
    assert ids == by_start
    # and the block-lex order ranks blocks in that sequence
    firsts = [min(order.rank(v) for v in block_vertices(g, dc, bid)) for bid in ids]
    assert firsts == sorted(firsts)


@pytest.mark.parametrize(
    "sizes,expect",
    [
        ((2, 2), (0, 1)),
        ((3, 2), (1, 0)),
        ((2, 3, 4), (0, 1, 2)),
        ((4, 3, 2), (2, 1, 0)),
        ((2, 2, 2), (0, 1, 2)),
    ],
)
def test_standard_block_domination(sizes, expect):
    assert standard_block_domination(sizes) == expect


def test_sbl_on_clique_products_is_lex():
    g = cartesian_product([clique(2), clique(3), clique(4)])
    order, dc = standard_block_lex_order(g)
    lx = lex_order(g, [p.order for p in dc.partitions])
    assert order == lx


def test_bl_consistency_with_subproducts():
    """Every constructed block-lex order is consistent with the induced
    block-lex order on every subproduct."""
    g = cartesian_product([clique(2), petersen(), clique(3)])
    dc = standard_collection(g.factors)
    ok, diags = dc.validate(g)
    assert ok, diags
    big = block_lex_order(g, dc)
    d = 3
    for k in range(1, d):
        for s in itertools.combinations(range(d), k):
            sub = subproduct(g, s)
            sub_dc = dc.restricted(s)
            small = block_lex_order(sub, sub_dc)
            assert is_consistent(g, big, small, s), s


def test_restricted_collection_rejects_inconsistent():
    g = graph_power(clique(2), 3)
    parts = [atomic_partition(TotalOrder.identity(2)) for _ in range(3)]
    # two blocks disagree about the relative significance of factors 1,2
    perms = {}
    for bid in itertools.product(range(2), repeat=3):
        perms[bid] = (0, 1, 2) if bid[0] == 0 else (0, 2, 1)
    dc = DominationCollection(tuple(parts), perms)
    with pytest.raises(ValueError, match="inconsistently"):
        dc.restricted((1, 2))


def test_validate_regular_atomic(cube3):
    dc = atomic_dc(cube3)
    ok, diags = validate_regular_domination_collection(cube3, dc)
    assert ok, diags


def test_validate_regular_standard_collections():
    for factors in [[petersen()] * 3, [cycle(5), cycle(4), cycle(3)]]:
        g = cartesian_product(factors)
        dc = standard_collection(factors)
        dc.validate(g)
        ok, diags = validate_regular_domination_collection(g, dc)
        assert ok, diags


def test_validate_regular_rejects_irregular_middle():
    u = disjoint_union([clique(5), clique(4)])
    factors = [clique(2), u, clique(2)]
    g = cartesian_product(factors)
    dc = standard_collection(factors)
    dc.validate(g, check_block_optimality=False)
    ok, diags = validate_regular_domination_collection(g, dc)
    assert not ok
    assert any("not regular" in d for d in diags)


def test_block_domination_orders_verified_optimal(pet2_setup):
    """Collection validation checks per-block order optimality."""
    _, g, _, dc = pet2_setup
    ok, diags = dc.validate(g, check_block_optimality=True)
    assert ok, diags


def test_dc_json_roundtrip(pet2_setup):
    _, _, _, dc = pet2_setup
    data = dc.to_json()
    back = DominationCollection.from_json(data)
    assert back.segment_counts == dc.segment_counts
    for bid in dc.block_ids():
        assert back.perm_for(bid) == dc.perm_for(bid)


# -- per-vertex references for the array geometry -----------------------------

# C5 x C4 x K3 with permuted factor orders; the block permutation depends on
# the first segment index only, so every subproduct restriction is defined
NONUNIFORM_DC_JSON = {
    "partitions": [
        {"order": [3, 1, 5, 2, 4], "boundaries": [2, 5]},
        {"order": [2, 4, 1, 3], "boundaries": [1, 3, 4]},
        {"order": [3, 1, 2], "boundaries": [1, 3]},
    ],
    "block_perms": {
        f"1,{j},{k}": [2, 3, 1] for j in (1, 2, 3) for k in (1, 2)
    },
    "default_perm": [2, 1, 3],
}


def _segment_vertices(dc, k, j):
    p = dc.partitions[k]
    a, b = p.segments[j]
    return [p.order.vertex_at(r) for r in range(a, b + 1)]


def _ref_set(g, coord_lists):
    ids = [g.vertex_id(c) for c in itertools.product(*coord_lists)]
    return VertexSet.from_ids(g.n, ids)


def _ref_block(g, dc, bid):
    return _ref_set(g, [_segment_vertices(dc, k, j) for k, j in enumerate(bid)])


def _ref_bone(g, dc, bid, i):
    return _ref_set(
        g,
        [
            _segment_vertices(dc, k, j)[: None if k == i else 1]
            for k, j in enumerate(bid)
        ],
    )


def _ref_union(g, sets):
    out = VertexSet.empty(g.n)
    for s in sets:
        out = out | s
    return out


def _ref_within_key(g, dc, bid, v):
    perm = dc.perm_for(bid)
    return tuple(
        dc.partitions[perm[q]].order.rank(g.vertex_tuple(v)[perm[q]])
        for q in range(dc.d)
    )


def _ref_block_id(g, dc, v):
    return tuple(
        p.segment_of_rank(p.order.rank(c))
        for p, c in zip(dc.partitions, g.vertex_tuple(v))
    )


def _nonuniform_case():
    g = cartesian_product([cycle(5), cycle(4), clique(3)])
    return g, DominationCollection.from_json(NONUNIFORM_DC_JSON)


def _atomic_case():
    g = cartesian_product([clique(2), clique(2), clique(3)])
    parts = [atomic_partition(factor_profile_and_order(f)[1]) for f in g.factors]
    return g, standard_collection(g.factors, parts)


def _petersen_halves_case():
    pet = petersen()
    halves = Partition.from_boundaries(factor_profile_and_order(pet)[1], [5, 10])
    return graph_power(pet, 3), uniform_collection([halves] * 3)


@pytest.mark.parametrize(
    "make", [_nonuniform_case, _atomic_case, _petersen_halves_case],
    ids=["json_nonuniform", "atomic_k2k2k3", "petersen_halves_cube"],
)
def test_geometry_against_per_vertex_reference(make):
    """Block queries and block-lex orders against literal per-vertex
    constructions over segment ranks, on every block and direction."""
    g, dc = make()
    ok, diags = dc.validate(g, check_block_optimality=False)
    assert ok, diags
    for v in range(g.n):
        assert block_of(g, dc, v) == _ref_block_id(g, dc, v)
    for bid in dc.block_ids():
        block = _ref_block(g, dc, bid)
        assert block_vertices(g, dc, bid) == block
        assert start_of(g, dc, bid) == g.vertex_id(
            [_segment_vertices(dc, k, j)[0] for k, j in enumerate(bid)]
        )
        bones = [_ref_bone(g, dc, bid, i) for i in range(dc.d)]
        for i in range(dc.d):
            assert bone(g, dc, bid, i) == bones[i]
            others = [bid[:i] + (j,) + bid[i + 1 :] for j in range(dc.segment_counts[i])]
            assert stack(g, dc, i, bid) == _ref_union(
                g, [_ref_block(g, dc, b) for b in others]
            )
        assert skeleton(g, dc, bid) == _ref_union(g, bones)
        ids = block.ids().tolist()
        sub, order = block_graph_and_order(g, dc, bid)
        assert sub == induced_subgraph(g, ids)[0]
        seq = sorted(range(len(ids)), key=lambda x: _ref_within_key(g, dc, bid, ids[x]))
        assert order == TotalOrder.from_sequence(seq)
    for q in range(dc.segment_counts[0]):
        assert slice_vertices(g, dc, q) == _ref_union(
            g, [_ref_block(g, dc, b) for b in dc.block_ids() if b[0] == q]
        )
    seq = sorted(
        range(g.n),
        key=lambda v: (
            _ref_block_id(g, dc, v),
            _ref_within_key(g, dc, _ref_block_id(g, dc, v), v),
        ),
    )
    assert block_lex_order(g, dc) == TotalOrder.from_sequence(seq)
