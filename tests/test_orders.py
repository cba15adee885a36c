"""Total orders: initial segments, lexicographic and domination orders,
reversal, and consistency with subproduct orders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklex import (
    TotalOrder,
    cartesian_product,
    clique,
    colex_perm,
    domination_order,
    graph_power,
    identity_perm,
    induced_edges,
    is_consistent,
    lex_order,
    restrict_perm,
    reverse_order,
    subproduct,
    verify_order_optimal,
)


def test_bijection_required():
    with pytest.raises(ValueError):
        TotalOrder([1, 1, 2])


@pytest.mark.parametrize(
    "seq",
    [[0, 0, 2], [0, 1, -1], [0, 1, 3], [0.0, 1.0, 2.0], [True, False], np.array([2, 2, 0])],
    ids=["repeated", "negative", "out_of_range", "floats", "bools", "repeated_array"],
)
def test_from_sequence_requires_a_permutation(seq):
    """A sequence that does not list 0..n-1 once each is refused, also
    right after a freed array of the same size that would have filled the
    ranks it leaves unset."""
    np.array([5, 1, 7], dtype=np.int64)
    with pytest.raises(ValueError):
        TotalOrder.from_sequence(seq)


def test_from_sequence_takes_lists_and_arrays():
    by_list = TotalOrder.from_sequence([2, 0, 1])
    assert by_list.sequence() == [2, 0, 1]
    assert by_list.ranks.tolist() == [2, 3, 1]
    assert TotalOrder.from_sequence(np.array([2, 0, 1])) == by_list
    assert TotalOrder.from_sequence(np.array([2, 0, 1], dtype=np.uint8)) == by_list
    with pytest.raises(ValueError):
        TotalOrder.from_sequence([])


@settings(max_examples=40, deadline=None)
@given(st.permutations(list(range(1, 9))))
def test_rank_inverse_roundtrip(ranks):
    o = TotalOrder(ranks)
    for v in range(8):
        assert o.vertex_at(o.rank(v)) == v
    for r in range(1, 9):
        assert o.rank(o.vertex_at(r)) == r


def test_initial_segment_extremes(pet_order):
    assert len(pet_order.initial_segment(0)) == 0
    assert len(pet_order.initial_segment(10)) == 10
    with pytest.raises(ValueError):
        pet_order.initial_segment(11)


def test_petersen_first_five_induce_cycle(pet, pet_order):
    seg = pet_order.initial_segment(5)
    assert induced_edges(pet, seg) == 5  # five vertices, five edges: a cycle


def test_segment_slice(pet_order):
    seg = pet_order.segment(3, 5)
    assert len(seg) == 3
    assert all(3 <= pet_order.rank(v) <= 5 for v in seg)


def test_lex_identity_orders_equals_id_order():
    g = cartesian_product([clique(2), clique(3)])
    o = lex_order(g, [TotalOrder.identity(2), TotalOrder.identity(3)])
    assert o.ranks.tolist() == list(range(1, 7))


def test_lex_k2_squared(k2_order):
    g = graph_power(clique(2), 2)
    o = lex_order(g, [k2_order, k2_order])
    # tuples (1,1) < (1,2) < (2,1) < (2,2) in rank space
    assert o.sequence() == [0, 1, 2, 3]


def test_lex_cube_prefix_is_subcube(cube3, k2_order):
    o = lex_order(cube3, [k2_order] * 3)
    seg = o.initial_segment(4)
    assert sorted(seg) == [0, 1, 2, 3]
    assert induced_edges(cube3, seg) == 4


def test_domination_identity_is_lex(cube3, k2_order):
    o1 = lex_order(cube3, [k2_order] * 3)
    o2 = domination_order(cube3, [k2_order] * 3, identity_perm(3))
    assert o1 == o2


def test_domination_swap_is_colex(k2_order):
    g = graph_power(clique(2), 2)
    o = domination_order(g, [k2_order] * 2, colex_perm(2))
    # compare second coordinate first: (1,1) < (2,1) < (1,2) < (2,2)
    assert o.sequence() == [0, 2, 1, 3]


def test_six_domination_orders_on_cube(cube3, k2_order):
    import itertools

    seen = set()
    for pi in itertools.permutations(range(3)):
        o = domination_order(cube3, [k2_order] * 3, pi)
        seen.add(tuple(o.ranks.tolist()))
    assert len(seen) == 6


def test_reverse_involution(pet_order):
    assert reverse_order(reverse_order(pet_order)) == pet_order


def test_reverse_single_vertex():
    o = TotalOrder.identity(1)
    assert reverse_order(o) == o


def test_reverse_of_petersen_optimal_is_optimal(pet, pet_profile, pet_order):
    rev = reverse_order(pet_order)
    ok, _ = verify_order_optimal(pet, rev, pet_profile)
    assert ok


def test_restrict_perm():
    assert restrict_perm((2, 0, 1), (0, 2)) == (1, 0)
    assert restrict_perm((0, 1, 2), (1, 2)) == (0, 1)
    assert restrict_perm((1, 0), (0,)) == (0,)


def test_lex_consistent_with_subproducts(cube3, k2_order):
    o = lex_order(cube3, [k2_order] * 3)
    for s in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        sub = subproduct(cube3, s)
        o_small = lex_order(sub, [k2_order] * len(s))
        assert is_consistent(cube3, o, o_small, s)


def test_colex_consistent_with_factor(k2_order):
    g = graph_power(clique(2), 2)
    colex = domination_order(g, [k2_order] * 2, colex_perm(2))
    assert is_consistent(g, colex, k2_order, (0,))
    assert is_consistent(g, colex, k2_order, (1,))


def test_consistency_full_set_is_identity(cube3, k2_order):
    o = lex_order(cube3, [k2_order] * 3)
    assert is_consistent(cube3, o, o, (0, 1, 2))


def test_inconsistent_pair_detected(k2_order):
    g = graph_power(clique(2), 2)
    o = lex_order(g, [k2_order] * 2)
    flipped = reverse_order(k2_order)
    # projections must follow the reversed factor order; lex does not
    assert not is_consistent(g, o, flipped, (0,))


def test_order_json_roundtrip(pet_order):
    assert TotalOrder.from_json(pet_order.to_json()) == pet_order
