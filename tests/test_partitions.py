"""Monotonic and isoperimetric partitions, their predicates, and the
within-segment delta-shift identity."""

import pytest

from blocklex import (
    Partition,
    atomic_partition,
    clique,
    cycle,
    delta_sequence,
    disjoint_union,
    factor_profile_and_order,
    is_non_decreasing,
    is_regular_partition,
    path,
    petersen,
    segment_delta,
    segment_delta_shift,
    segment_subgraph,
    standard_monotonic_partition,
    validate_isoperimetric_partition,
)


def monotonic(g):
    prof, order = factor_profile_and_order(g)
    return g, prof, standard_monotonic_partition(delta_sequence(prof, order))


@pytest.mark.parametrize(
    "g,count",
    [
        (clique(4), 1),
        (clique(7), 1),
        (path(5), 4),
        (path(9), 8),
        (petersen(), 6),
    ],
)
def test_standard_partition_counts(g, count):
    _, _, p = monotonic(g)
    assert p.num_segments == count


def test_petersen_standard_segments(pet, pet_profile, pet_order):
    p = standard_monotonic_partition(delta_sequence(pet_profile, pet_order))
    assert [b - a + 1 for a, b in p.segments] == [2, 1, 2, 2, 1, 2]


def test_monotonic_segments_induce_cliques():
    """Every monotonic set induces a complete graph, and every vertex of
    segment i sends exactly delta(a_i) edges backwards."""
    for g in [petersen(), clique(5), path(6), cycle(6)]:
        g, prof, p = monotonic(g)
        delta = delta_sequence(prof)
        for i, (a, b) in enumerate(p.segments):
            sub, _, old = segment_subgraph(g, p, i)
            k = sub.n
            assert sub.num_edges == k * (k - 1) // 2, (g, i)
            earlier = p.order.initial_segment(a - 1)
            for v in old:
                back = sum(1 for w in g.neighbors[v].tolist() if w in earlier)
                assert back == delta.at_rank(a)


def test_standard_partition_validates():
    for g in [petersen(), clique(5), path(6)]:
        g, prof, p = monotonic(g)
        ok, diags = validate_isoperimetric_partition(g, p)
        assert ok, diags


def test_petersen_halves_partition(pet, pet_profile, pet_order):
    halves = Partition.from_boundaries(pet_order, [5, 10])
    ok, diags = validate_isoperimetric_partition(pet, halves)
    assert ok, diags
    for i in range(2):
        sub, _, _ = segment_subgraph(pet, halves, i)
        assert sub.n == 5 and sub.num_edges == 5
        assert sub.regular_degree() == 2  # a five-cycle
    assert is_non_decreasing(pet, halves)
    assert segment_delta(pet, halves, 0).values == (0, 1, 1, 1, 2)
    assert segment_delta(pet, halves, 1).values == (0, 1, 1, 1, 2)
    assert is_regular_partition(pet, halves)


def test_bad_split_fails_with_offending_vertex():
    g = path(3)
    order = factor_profile_and_order(g)[1]
    bad = Partition.from_boundaries(order, [1, 3])
    ok, diags = validate_isoperimetric_partition(g, bad)
    assert not ok
    assert any("vertex" in d for d in diags)


def test_partition_shape_validation(pet_order):
    with pytest.raises(ValueError):
        Partition(pet_order, ((1, 4), (6, 10)))  # gap
    with pytest.raises(ValueError):
        Partition(pet_order, ((1, 4), (4, 10)))  # overlap
    with pytest.raises(ValueError):
        Partition(pet_order, ((1, 9),))  # does not cover


def test_atomic_partition_properties(pet, pet_order):
    p = atomic_partition(pet_order)
    assert p.num_segments == 10
    assert all(a == b for a, b in p.segments)
    assert is_regular_partition(pet, p)
    assert is_non_decreasing(pet, p)


def test_atomic_partition_single_vertex():
    from blocklex import TotalOrder

    p = atomic_partition(TotalOrder.identity(1))
    assert p.num_segments == 1


def test_atomic_refinement_of_clique_is_isoperimetric():
    g = clique(5)
    order = factor_profile_and_order(g)[1]
    p = atomic_partition(order)
    ok, diags = validate_isoperimetric_partition(g, p)
    assert ok, diags


def test_non_decreasing_counterexample():
    u = disjoint_union([clique(5), clique(4)])
    prof, order = factor_profile_and_order(u)
    single = Partition.from_boundaries(order, [9])
    assert not is_non_decreasing(u, single)  # delta drops back to 0


def test_union_standard_partition_not_regular():
    u = disjoint_union([clique(5), clique(4)])
    prof, order = factor_profile_and_order(u)
    p = standard_monotonic_partition(delta_sequence(prof, order))
    assert p.num_segments == 2
    assert is_non_decreasing(u, p)
    assert not is_regular_partition(u, p)


def test_standard_partition_of_regular_graphs_is_regular():
    for g in [petersen(), cycle(4), cycle(5), clique(6)]:
        g, _, p = monotonic(g)
        assert is_regular_partition(g, p), g


def test_start_set(pet_order, pet_profile):
    p = standard_monotonic_partition(delta_sequence(pet_profile, pet_order))
    starts = p.start_vertices()
    assert len(starts) == p.num_segments
    assert starts[0] == pet_order.vertex_at(1)


def test_delta_shift_identity_same_vertex(pet, pet_order):
    halves = Partition.from_boundaries(pet_order, [5, 10])
    v = pet_order.vertex_at(7)
    lhs, rhs = segment_delta_shift(pet, halves, 1, v, v)
    assert lhs == rhs == 0


def test_delta_shift_identity_across_segment(pet, pet_order):
    halves = Partition.from_boundaries(pet_order, [5, 10])
    for rx in range(6, 11):
        for ry in range(6, 11):
            x, y = pet_order.vertex_at(rx), pet_order.vertex_at(ry)
            lhs, rhs = segment_delta_shift(pet, halves, 1, x, y)
            assert lhs == rhs


def test_delta_shift_on_monotonic_segment(pet, pet_profile, pet_order):
    p = standard_monotonic_partition(delta_sequence(pet_profile, pet_order))
    a, b = p.segments[2]  # the [4,5] run with delta values (1,2)
    x, y = pet_order.vertex_at(b), pet_order.vertex_at(a)
    lhs, rhs = segment_delta_shift(pet, p, 2, x, y)
    assert lhs == rhs == 1


def test_partition_json_roundtrip(pet, pet_profile, pet_order):
    p = standard_monotonic_partition(delta_sequence(pet_profile, pet_order))
    q = Partition.from_json(p.to_json())
    assert q.segments == p.segments
    assert q.order == p.order


def _ref_partition_diagnostics(g, p):
    """Both conditions checked by a literal loop: each order against the
    subset DP, and each vertex's edges into the earlier segments counted
    from its neighbours."""
    from blocklex import TotalOrder, exact_profile, verify_order_optimal

    profile = exact_profile(g, "full", with_witnesses=False)
    good, bad_m = verify_order_optimal(g, p.order, profile)
    if not good:
        return [f"partition order is not optimal for the graph (fails at m={bad_m})"]
    delta = delta_sequence(profile)
    diags = []
    for i, (a, b) in enumerate(p.segments):
        sub, _, old = segment_subgraph(g, p, i)
        good, bad_m = verify_order_optimal(
            sub, TotalOrder.identity(sub.n), exact_profile(sub, "full", with_witnesses=False)
        )
        if not good:
            diags.append(
                f"segment {i + 1} [{a},{b}]: induced order not optimal for the "
                f"induced graph (fails at m={bad_m})"
            )
        earlier = {p.order.vertex_at(r) for r in range(1, a)}
        want = delta.at_rank(a)
        for v in old:
            got = sum(1 for w in g.neighbors[v].tolist() if w in earlier)
            if got != want:
                diags.append(
                    f"segment {i + 1} [{a},{b}]: vertex {v} sends {got} edges to "
                    f"earlier segments, expected delta({a}) = {want}"
                )
    return diags


def test_partition_diagnostics_match_the_per_vertex_loop():
    """Seeded random cuts of the optimal orders of small graphs, and a
    non-optimal order: the conditions read from the back-degree tables
    give the per-vertex loop's diagnostics, in its order, including
    segments where several vertices fail."""
    import numpy as np

    from blocklex import Graph, TotalOrder, complete_bipartite, parse_graph_spec

    rng = np.random.default_rng(2)
    graphs = [petersen(), cycle(6), path(5), clique(4), complete_bipartite(3, 3),
              disjoint_union([clique(3), path(3)]), Graph(6, [(0, 1), (1, 2), (3, 4)]),
              Graph(9, parse_graph_spec("P3xP3").edges())]
    several = failing = 0
    for g in graphs:
        order = factor_profile_and_order(g)[1]
        for _ in range(8):
            cuts = rng.choice(np.arange(1, g.n), size=int(rng.integers(0, g.n)), replace=False)
            p = Partition.from_boundaries(order, sorted(cuts.tolist()) + [g.n])
            ok, diags = validate_isoperimetric_partition(g, p)
            assert diags == _ref_partition_diagnostics(g, p)
            assert ok == (not diags)
            failing += not ok
            per_segment = [d.split(":")[0] for d in diags if "sends" in d]
            several += any(per_segment.count(s) > 1 for s in set(per_segment))
    assert failing > 20 and several > 5
    g = cycle(6)
    p = Partition.from_boundaries(TotalOrder.from_sequence([0, 3, 1, 4, 2, 5]), [3, 6])
    ok, diags = validate_isoperimetric_partition(g, p)
    assert not ok and diags == _ref_partition_diagnostics(g, p)
    assert diags[0].startswith("partition order is not optimal")
