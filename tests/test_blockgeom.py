"""Blocks, bones, skeletons, stacks, slices, and the block-lexicographic
orders built from domination collections."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from blocklex.blockgeom import (
    block_graph_and_order,
    block_occupancy,
    block_vertices,
    check_shared_bone_containment,
)
from blocklex.graphs import VertexSet, induced_subgraph
from blocklex.orders import restrict_perm


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


def test_segment_graphs_built_once_per_partition(monkeypatch):
    """A collection's restrictions share its partitions, so validating the
    product and its pair restrictions, twice over, builds each segment
    graph once; the partition checks then reuse those graphs."""
    from blocklex import partitions

    built = []

    class CountingGraph(partitions.Graph):
        def __init__(self, n, edges):
            built.append(n)
            super().__init__(n, edges)

    monkeypatch.setattr(partitions, "Graph", CountingGraph)
    g = cartesian_product([cycle(5), cycle(4), clique(3)])
    dc = standard_collection(g.factors)
    for _ in range(2):
        assert dc.validate(g)[0]
        for s in itertools.combinations(range(3), 2):
            assert dc.restricted(s).validate(subproduct(g, s))[0]
    assert len(built) == sum(p.num_segments for p in dc.partitions)
    for f, p in zip(g.factors, dc.partitions):
        assert partitions.validate_isoperimetric_partition(f, p)[0]
        assert partitions.is_non_decreasing(f, p)
        assert partitions.is_regular_partition(f, p)
    assert len(built) == sum(p.num_segments for p in dc.partitions)


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


def test_standard_collection_equals_the_checked_collection(monkeypatch):
    """`standard_collection` is built without `__post_init__`'s checks, and
    equals the collection those checks accept, on workload products."""
    checked = DominationCollection.__post_init__
    runs = []

    def counting(self):
        runs.append(self)
        checked(self)

    monkeypatch.setattr(DominationCollection, "__post_init__", counting)
    for factors in (
        [cycle(5), cycle(4), petersen()],
        [petersen(), petersen()],
        [clique(2), clique(3), clique(4)],
    ):
        runs.clear()
        dc = standard_collection(factors)
        assert not runs and not dc.validated
        want = DominationCollection(dc.partitions, dict(dc.block_perms))
        assert len(runs) == 1
        assert dc == want and dc.to_json() == want.to_json()
        assert dc.validate(cartesian_product(factors))[0]


def test_malformed_collections_still_raise():
    """Negative control of the unchecked builds: a malformed collection
    given to the constructor or to `from_json` raises the same ValueError
    as before, and so does a standard collection of no factor."""
    parts = [
        Partition.from_boundaries(TotalOrder.identity(k), list(range(1, k + 1)))
        for k in (2, 3)
    ]
    cases = [
        (parts, {(0,): (1, 0)}, None, r"block id \(0,\) has wrong arity"),
        (parts, {(0, 3): (1, 0)}, None, r"block id \(0, 3\) out of range in factor 1"),
        (parts, {(2, 0): (1, 0)}, None, r"block id \(2, 0\) out of range in factor 0"),
        (parts, {(0, 0): (0, 0)}, None, r"bad permutation \(0, 0\) for block \(0, 0\)"),
        (parts, {}, (1,), "bad default permutation"),
        ([], {}, None, "need at least one factor partition"),
    ]
    for partitions, perms, default, message in cases:
        with pytest.raises(ValueError, match=message):
            DominationCollection(partitions, perms, default)
        data = {
            "partitions": [p.to_json() for p in partitions],
            "block_perms": {
                ",".join(str(j + 1) for j in bid): [x + 1 for x in perm]
                for bid, perm in perms.items()
            },
            "default_perm": None if default is None else [x + 1 for x in default],
        }
        with pytest.raises(ValueError, match=message):
            DominationCollection.from_json(data)
    with pytest.raises(ValueError, match="need at least one factor partition"):
        standard_collection([])


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


def _ref_shared_bone_messages(g, dc, a):
    """check_shared_bone_containment by its literal definition: every
    B1 < B2 sharing segment i, bone(B2, i) inside a, B1 not full."""
    occ = block_occupancy(g, dc, a)
    blocks = dc.block_ids()
    out = []
    for x, b1 in enumerate(blocks):
        for b2 in blocks[x + 1 :]:
            for i in range(dc.d):
                if (
                    b1[i] == b2[i]
                    and bone(g, dc, b2, i).issubset(a)
                    and occ[b1][0] != occ[b1][1]
                ):
                    out.append(
                        f"blocks {b1} < {b2} share bone {i}; bone of {b2} "
                        f"inside but {b1} not fully contained"
                    )
    return out


@pytest.mark.parametrize(
    "make", [_nonuniform_case, _atomic_case], ids=["json_nonuniform", "atomic_k2k2k3"]
)
def test_shared_bone_inside_with_earlier_block_partial_is_reported(make):
    g, dc = make()
    blocks = dc.block_ids()
    b1 = blocks[0]
    b2 = next(b for b in blocks[1:] if b[0] == b1[0])
    a = bone(g, dc, b2, 0)  # the shared bone alone: b1 is not full
    msgs = check_shared_bone_containment(g, dc, a)
    assert (
        f"blocks {b1} < {b2} share bone 0; bone of {b2} inside but {b1} "
        "not fully contained"
    ) in msgs
    assert msgs == _ref_shared_bone_messages(g, dc, a)
    rng = np.random.default_rng(7)
    for _ in range(10):
        picks = rng.choice(len(blocks), size=3, replace=False)
        ids = set(rng.choice(g.n, size=g.n // 4, replace=False).tolist())
        for k in picks:
            ids |= set(bone(g, dc, blocks[k], int(rng.integers(dc.d))).ids().tolist())
        a = VertexSet.from_ids(g.n, sorted(ids))
        assert check_shared_bone_containment(g, dc, a) == _ref_shared_bone_messages(g, dc, a)


def _ref_block_diagnostics(g, dc):
    """Every block built and verified on its own, as a literal loop."""
    from blocklex import exact_profile, verify_order_optimal

    diags = []
    for bid in dc.block_ids():
        sub, order = block_graph_and_order(g, dc, bid)
        good, bad_m = verify_order_optimal(sub, order, exact_profile(sub))
        if not good:
            diags.append(
                f"block {bid}: domination order not optimal for the "
                f"block graph (fails at m={bad_m})"
            )
    return diags


@pytest.mark.parametrize("failing", [(0, 0), (1, 0)])
def test_validate_reports_a_failing_block_that_shares_segment_graphs(failing, monkeypatch):
    """P6 x K2 with P6 cut into two P3 segments: both blocks are P3 x K2.
    P3 most significant fills the ladder rung by rung (optimal); K2 most
    significant runs along the path first and falls behind at m = 4.  The
    block under the bad permutation is reported, and only it.  The pair's
    sandwich bound refutes it alone: only the segment graphs P3 and K2 are
    profiled, never the block graph, and no downset oracle runs."""
    from blocklex import path, solver, staircase
    from blocklex.partitions import segment_graphs

    g = cartesian_product([path(6), clique(2)])
    parts = (
        Partition.from_boundaries(TotalOrder.identity(6), [3, 6]),
        Partition.from_boundaries(TotalOrder.identity(2), [2]),
    )
    passing = (1, 0) if failing == (0, 0) else (0, 0)
    dc = DominationCollection(parts, {passing: (0, 1), failing: (1, 0)})
    profiled = []
    enumerated = solver._enumerated_profile

    def recording(h, *args):
        profiled.append(h.digest)
        return enumerated(h, *args)

    def no_downsets(*args, **kwargs):
        raise AssertionError("the downset oracle ran")

    monkeypatch.setattr(solver, "_enumerated_profile", recording)
    monkeypatch.setattr(staircase, "downset_profile", no_downsets)
    ok, diags = dc.validate(g)
    monkeypatch.undo()
    segments = {s.digest for f, p in zip(g.factors, parts) for s in segment_graphs(f, p)}
    assert profiled and set(profiled) <= segments
    assert not ok
    assert diags == [
        f"block {failing}: domination order not optimal for the block graph "
        "(fails at m=4)"
    ]
    assert diags == _ref_block_diagnostics(g, dc)
    same = DominationCollection(parts, {passing: (0, 1), failing: (0, 1)})
    assert same.validate(g) == (True, [])


def _keyed_perms(rng, counts, flips):
    """Block permutations sorted by a per-factor, per-segment key, so that
    each pair's relative order depends on the pair's segments alone; then
    `flips` blocks get a random permutation instead."""
    d = len(counts)
    key = [rng.random(k) for k in counts]
    perms = {
        bid: tuple(sorted(range(d), key=lambda i: key[i][bid[i]]))
        for bid in itertools.product(*(range(k) for k in counts))
    }
    blocks = list(perms)
    for x in rng.choice(len(blocks), size=flips, replace=False):
        perms[blocks[x]] = tuple(rng.permutation(d).tolist())
    return perms


def test_consistent_pairs_make_every_restriction_consistent():
    """On seeded random 4-factor collections, every restriction succeeds
    whenever every pair's does, and `validate` reports the first
    inconsistent subset of a loop over every proper subset by size."""
    rng = np.random.default_rng(12)
    counts = (2, 3, 2, 2)
    parts = [
        Partition.from_boundaries(TotalOrder.identity(k), list(range(1, k + 1)))
        for k in counts
    ]
    g = cartesian_product([clique(k) for k in counts])
    subsets = [
        s for k in range(1, 4) for s in itertools.combinations(range(4), k)
    ]
    outcomes = set()
    for _ in range(60):
        perms = _keyed_perms(rng, counts, int(rng.integers(0, 3)))
        errors = []
        for s in subsets:
            try:
                DominationCollection(parts, perms).restricted(s)
            except ValueError as e:
                errors.append((len(s), str(e)))
        pairs_ok = not any(k == 2 for k, _ in errors)
        assert pairs_ok == (not errors)
        outcomes.add(pairs_ok)
        ok, diags = DominationCollection(parts, perms).validate(
            g, check_block_optimality=False
        )
        assert (ok, diags) == (not errors, [e for _, e in errors[:1]])
    assert outcomes == {True, False}


def test_restriction_equals_the_checked_collection(monkeypatch):
    """A restriction is built without `__post_init__`'s checks, and on
    seeded random consistent 4-factor collections, default permutation
    included, it equals the collection those checks accept."""
    rng = np.random.default_rng(5)
    counts = (2, 3, 2, 2)
    parts = [
        Partition.from_boundaries(TotalOrder.identity(k), list(range(1, k + 1)))
        for k in counts
    ]
    subsets = [s for k in range(1, 5) for s in itertools.combinations(range(4), k)]
    checked = DominationCollection.__post_init__
    runs = []

    def counting(self):
        runs.append(self)
        checked(self)

    monkeypatch.setattr(DominationCollection, "__post_init__", counting)
    for _ in range(3):
        for dc in (
            DominationCollection(parts, _keyed_perms(rng, counts, 0)),
            uniform_collection(parts, tuple(rng.permutation(4).tolist())),
        ):
            for s in subsets:
                runs.clear()
                sub = dc.restricted(s)
                assert not runs and not sub.validated
                want = DominationCollection(
                    tuple(parts[i] for i in s),
                    {
                        tuple(b[i] for i in s): restrict_perm(dc.perm_for(b), s)
                        for b in dc.block_ids()
                    },
                )
                assert len(runs) == 1
                assert sub == want and sub.to_json() == want.to_json()


def test_validate_tells_apart_segments_of_one_size():
    """A 6-vertex factor made of a path 0-1-2 and a triangle 3-4-5, cut
    into its two halves, times K2, with K2 most significant on every
    block: the path block P3 x K2 fails at m = 4, the prism K3 x K2
    passes, though both segments have three vertices."""
    from blocklex import Graph

    g = cartesian_product([Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]), clique(2)])
    parts = (
        Partition.from_boundaries(TotalOrder.identity(6), [3, 6]),
        Partition.from_boundaries(TotalOrder.identity(2), [2]),
    )
    ok, diags = uniform_collection(parts, (1, 0)).validate(g)
    assert not ok
    assert diags == [
        "block (0, 0): domination order not optimal for the block graph (fails at m=4)"
    ]
    flipped = cartesian_product([Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]), clique(2)])
    ok, diags = uniform_collection(parts, (1, 0)).validate(flipped)
    assert diags == [
        "block (1, 0): domination order not optimal for the block graph (fails at m=4)"
    ]


def test_validate_diagnostics_match_the_per_block_loop():
    """Non-uniform permutations on C5 x C4 x K3 (from JSON), every other
    one reversed: the classes validate verifies once give each of the 12
    blocks the verdict of its own build, 4 of them failing."""
    g, dc = _nonuniform_case()
    for bid in dc.block_ids()[::2]:
        dc.block_perms[bid] = tuple(reversed(dc.perm_for(bid)))
    ok, diags = dc.validate(g)
    assert not ok
    assert diags[0].startswith("block permutations restrict inconsistently")
    ref = _ref_block_diagnostics(g, dc)
    assert len(ref) == 4
    assert diags[1:] == ref


def _reversed_nonuniform_case():
    g, dc = _nonuniform_case()
    for bid in dc.block_ids()[::2]:
        dc.block_perms[bid] = tuple(reversed(dc.perm_for(bid)))
    return g, dc


def _petersen_square_case():
    g = graph_power(petersen(), 2)
    return g, standard_collection(g.factors)


def _path_ladder_case():
    from blocklex import path

    parts = (
        Partition.from_boundaries(TotalOrder.identity(6), [3, 6]),
        Partition.from_boundaries(TotalOrder.identity(2), [2]),
    )
    g = cartesian_product([path(6), clique(2)])
    return g, DominationCollection(parts, {(0, 0): (0, 1), (1, 0): (1, 0)})


def _prism_case():
    from blocklex import Graph

    g = cartesian_product([Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)]), clique(2)])
    parts = (
        Partition.from_boundaries(TotalOrder.identity(6), [3, 6]),
        Partition.from_boundaries(TotalOrder.identity(2), [2]),
    )
    return g, uniform_collection(parts, (1, 0))


def _single_block_case():
    g = cartesian_product([clique(3), clique(2)])
    return g, standard_collection(g.factors)


@pytest.mark.parametrize(
    "make",
    [
        _nonuniform_case,
        _reversed_nonuniform_case,
        _atomic_case,
        _petersen_halves_case,
        _petersen_square_case,
        _path_ladder_case,
        _prism_case,
        _single_block_case,
    ],
    ids=[
        "json_nonuniform",
        "json_nonuniform_reversed",
        "atomic_k2k2k3",
        "petersen_halves_cube",
        "petersen_square_standard",
        "p6k2_mixed",
        "path_triangle_k2",
        "k3k2_one_block",
    ],
)
def test_block_prefix_counts_in_closed_form(make):
    """The rank-space prefix counts of every block's domination order,
    from its segment graphs in the permutation's significance order, equal
    the counts on the built block graph."""
    from blocklex import prefix_edge_counts
    from blocklex.partitions import segment_graphs
    from blocklex.staircase import product_prefix_counts

    g, dc = make()
    segs = [segment_graphs(f, p) for f, p in zip(g.factors, dc.partitions)]
    for bid in dc.block_ids():
        closed = product_prefix_counts([segs[i][bid[i]] for i in dc.perm_for(bid)])
        sub, order = block_graph_and_order(g, dc, bid)
        assert closed.tolist() == prefix_edge_counts(sub, order).tolist()


# -- prefix counts in rank space -----------------------------------------------

# The three- and four-factor products of the certify benchmark workload
# (seeds 1-5) and its two controls.
WORKLOAD_PRODUCTS = """
C3xC4xC5 C3xC5xC4 C3xC5xP4 C3xC6xC3 C3xC6xK3 C3xK2xC5 C3xK2xK4 C3xK3xC6
C3xP3xC4 C3xP5xC4 C4xC3xC5 C4xC3xP5 C4xC4xC4xC4 C4xC4xC5 C4xC4xP5 C4xC5xC3
C4xC5xK2 C4xC5xK3 C4xC5xP3 C4xK2xC5 C4xK2xK2 C4xK2xK3 C4xK2xP5 C4xK3xC5
C4xK3xK2xC5 C4xK3xP5 C5xC3xC4 C5xC3xP4 C5xC4xC3 C5xC4xC4 C5xC4xK2 C5xC4xK3
C5xC4xP3 C5xK2xC3 C5xK2xC4 C5xK2xP3 C5xK2xP4 C5xK3xC4 C5xK3xK2xC4 C5xK3xP4
C6xC3xK3 C6xK3xC3 C6xP4xP4 K2xC3xK4 K2xC3xP4 K2xC4xC5 K2xC4xP5 K2xC5xC4
K2xC5xK3 K2xK2xC5 K2xK2xpetersen K2xK3xK4 K2xK3xP3 K2xK4xC3 K2xK4xK3
K2xK4xP5 K2xP3xP4 K2xP5xP3 K2xpetersenxpetersen K3^3 K3xC3xC6 K3xC4xC5
K3xC4xP5 K3xC5xC4 K3xC5xP4 K3xC6xC3 K3xC6xK3 K3xK2xK4 K3xK4xK2 K3xP3xC4
K3xP3xC5 K3xP3xP5 K3xP4xC5 K4xC3xK2 K4xK2xC3 K4xK2xK3 K4xK2xP5 K4xK3xK2 K5^3
P3xC4xC5 P3xC4xP5 P3xC5xC4 P3xC5xP4 P3xK2xC5 P3xK2xK2 P3xK4xP5 P3xP4xC6
P3xP4xK3 P4xC3xC5 P4xC5xC3 P4xC5xK2 P4xC5xK3 P4xC5xP3 P4xK2xC5 P4xK2xK2xP5
P4xK2xP5 P4xK3xC5 P4xK3xP5 P4xP3xC5 P4xP5xP4 P5xC3xC4 P5xC3xP4 P5xC4xC3
P5xC4xC4 P5xC4xK2 P5xC4xK3 P5xC4xP3 P5xK2xC4 P5xK2xK2 P5xK2xK4 P5xK2xP4
P5xK3xC4 P5xK3xP4 P5xK4xK2 P5xK4xP3 petersenxK2xK2 petersenxK2xpetersen
petersenxpetersenxK2 petersenxpetersenxpetersen
""".split()


def _orderable(g, dc):
    ok, diags = dc.validate(g, check_block_optimality=False)
    assert ok, diags
    return dc


def _assert_rank_space_counts(g, dc):
    from blocklex import prefix_edge_counts
    from blocklex.blockgeom import block_lex_prefix_counts

    want = prefix_edge_counts(g, block_lex_order(g, dc)).tolist()
    assert block_lex_prefix_counts(g, dc).tolist() == want
    assert block_lex_prefix_counts(g.factors, dc).tolist() == want


@pytest.mark.parametrize("kind", ["standard", "atomic"])
def test_rank_space_counts_equal_the_built_order_on_workload_products(kind):
    """Block-lex prefix counts read from the factors' back-degree tables
    equal the counts of the order built on the product graph, on every
    product the certify workload draws and on each of its factor pairs."""
    from blocklex import parse_graph_spec

    for spec in WORKLOAD_PRODUCTS:
        g = parse_graph_spec(spec)
        if kind == "standard":
            dc = standard_collection(g.factors)
        else:
            dc = uniform_collection(
                [atomic_partition(factor_profile_and_order(f)[1]) for f in g.factors]
            )
        _assert_rank_space_counts(g, _orderable(g, dc))
        for s in itertools.combinations(range(dc.d), 2):
            _assert_rank_space_counts(subproduct(g, s), dc.restricted(s))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rank_space_counts_on_drawn_collections(data):
    """Random factor orders, random partitions and block permutations
    (consistent on every pair, as validation needs), on two to four
    factors: the rank-space counts equal those of the built order."""
    from blocklex import Graph

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    d = data.draw(st.integers(2, 4))
    factors, parts = [], []
    for _ in range(d):
        n = int(rng.integers(1, 5 if d == 4 else 6))
        f = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
        order = TotalOrder.from_sequence(rng.permutation(n).tolist())
        cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False).tolist())
        factors.append(f)
        parts.append(Partition.from_boundaries(order, cuts + [n]))
    g = cartesian_product(factors)
    counts = [p.num_segments for p in parts]
    dc = DominationCollection(tuple(parts), _keyed_perms(rng, counts, 0))
    _assert_rank_space_counts(g, _orderable(g, dc))


def test_rank_space_lex_counts_under_every_permutation():
    """Lexicographic and domination orders: the kernel on the factors in
    significance order equals the counts of the order built on the
    product, for every significance permutation."""
    from blocklex import parse_graph_spec, prefix_edge_counts
    from blocklex.staircase import product_prefix_counts

    for spec in ("P4xK3xC5", "C5xC4xK2xC3", "K2xpetersenxpetersen", "P3xC5xP4"):
        g = parse_graph_spec(spec)
        orders = [factor_profile_and_order(f)[1] for f in g.factors]
        want = prefix_edge_counts(g, lex_order(g, orders)).tolist()
        assert product_prefix_counts(g.factors, orders).tolist() == want
        for pi in itertools.permutations(range(len(orders))):
            want = prefix_edge_counts(g, domination_order(g, orders, pi)).tolist()
            got = product_prefix_counts(
                [g.factors[i] for i in pi], [orders[i] for i in pi]
            )
            assert got.tolist() == want, (spec, pi)


def _order_of_sequence(g, orders, sequence):
    """The order on g that lists the rank tuples of `sequence` (flat
    C-order indices into the rank box) first to last."""
    shape = [o.n for o in orders]
    ranks = np.unravel_index(sequence, shape)
    ids = sum(o.inverse[r] * w for o, r, w in zip(orders, ranks, g.radix()))
    return TotalOrder.from_sequence(ids.tolist())


def test_rank_space_counts_need_line_consistent_orders():
    """Negative controls: a seeded random sequence of rank tuples, and the
    block-lex sequence with one block's run of a factor reversed, are
    orders in which some vertices that differ in one coordinate compare
    against their factor ranks; the kernel's counts then differ from the
    counts of that order on the product.  The sequence unchanged agrees."""
    from blocklex import parse_graph_spec, prefix_edge_counts
    from blocklex.staircase import product_prefix_counts

    g = parse_graph_spec("P4xK3xC5")
    dc = _orderable(g, standard_collection(g.factors))
    orders = dc.factor_orders
    shape = [o.n for o in orders]
    ids = np.arange(g.n).reshape(shape)
    cuts = [[slice(a - 1, b) for a, b in p.segments] for p in dc.partitions]
    pieces = [
        ids[box].transpose(dc.perm_for(bid))
        for box, bid in zip(itertools.product(*cuts), dc.block_ids())
    ]

    def counts(sequence):
        kernel = product_prefix_counts(g.factors, orders, sequence)
        built = prefix_edge_counts(g, _order_of_sequence(g, orders, sequence))
        return kernel.tolist(), built.tolist()

    kernel, built = counts(np.concatenate([p.ravel() for p in pieces]))
    assert kernel == built
    big = max(range(len(pieces)), key=lambda k: pieces[k].size)
    pieces[big] = pieces[big][::-1]  # the most significant run reversed
    kernel, built = counts(np.concatenate([p.ravel() for p in pieces]))
    assert kernel != built
    rng = np.random.default_rng(4)
    for _ in range(5):
        kernel, built = counts(rng.permutation(g.n))
        assert kernel != built


def test_certify_builds_one_product_and_no_geometry(capsys, monkeypatch):
    """Certifying a product (standard partitions with the crosscheck,
    atomic partitions, or a domination order) builds one product graph,
    the one it parsed, and no block geometry: its pairs, blocks and
    crosscheck are counted from the factors."""
    from blocklex import Graph, blockgeom
    from blocklex.cli import main

    products = []
    real = Graph._set

    def counting(self, n, pairs, factors):
        if factors is not None:
            products.append(n)
        real(self, n, pairs, factors)

    def no_geometry(*args):
        raise AssertionError("a block geometry was built")

    monkeypatch.setattr(Graph, "_set", counting)
    monkeypatch.setattr(blockgeom, "_Geometry", no_geometry)
    for argv in (
        ("P4xK3xC5",),
        ("C5xK3xK2xC4",),
        ("K2xK3xK4", "--partitions", "atomic"),
        ("K2xK3xK4", "--domination", "1,2,3"),
    ):
        products.clear()
        assert main(["certify", *argv, "--format", "json"]) == 0
        assert len(products) == 1, (argv, products)
    capsys.readouterr()


def test_block_classes_are_decided_once_per_collection_family(monkeypatch):
    """A block class is its nontrivial segment graphs in significance
    order, and a collection's restrictions share its verdicts: certify
    P3xC5xP4 decides 4 classes (20 when each collection and permutation
    decided its own), P4xK3xC5 6 and petersen^2xK2 4."""
    from blocklex import blockgeom, certify, parse_graph_spec

    calls = []
    real = blockgeom._verify_block_class

    def counting(chosen):
        calls.append(tuple(s.g.digest for s in chosen))
        return real(chosen)

    monkeypatch.setattr(blockgeom, "_verify_block_class", counting)
    for spec, classes in (("P3xC5xP4", 4), ("P4xK3xC5", 6), ("petersen^2xK2", 4)):
        calls.clear()
        certify(parse_graph_spec(spec), "standard")
        assert len(calls) == len(set(calls)) == classes, spec


def test_an_undecided_class_raises_in_every_collection_that_meets_it(monkeypatch):
    """P3^4 x K1 under the P3 order 0, 2, 1 is one block of four 3-vertex
    segment graphs (and a one-vertex one), past both exact engines.  It
    raises SizeCapExceeded, and so does the restriction to the four P3
    factors, which meets the same class, and the collection again; the
    class is checked once."""
    from blocklex import SizeCapExceeded, blockgeom, path

    calls = []
    real = blockgeom._verify_block_class

    def counting(chosen):
        calls.append(len(chosen))
        return real(chosen)

    monkeypatch.setattr(blockgeom, "_verify_block_class", counting)
    part = Partition.from_boundaries(TotalOrder.from_sequence([0, 2, 1]), [3])
    one = Partition.from_boundaries(TotalOrder.identity(1), [1])
    factors = [path(3)] * 4 + [clique(1)]
    dc = uniform_collection([part] * 4 + [one])
    sub = dc.restricted((0, 1, 2, 3))
    for coll, gs in ((dc, factors), (sub, factors[:4]), (dc, factors)):
        with pytest.raises(SizeCapExceeded, match="up to three factors"):
            coll.validate(gs)
        assert not coll.validated
    assert calls == [4]
