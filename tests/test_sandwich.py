"""The sandwich bound U, an upper bound on a product's profile built from
its factors' exact profiles, and the order checks that try it before the
subset DP: U may prove an order optimal, never refute one."""

import math

import numpy as np
import pytest

from blocklex import (
    Budget,
    BudgetExceeded,
    DominationCollection,
    Graph,
    Partition,
    TotalOrder,
    cartesian_product,
    clique,
    cycle,
    domination_order,
    exact_profile,
    factor_profile_and_order,
    graph_power,
    path,
    uniform_collection,
    verify_order_optimal,
)
from blocklex import staircase
from blocklex.orders import reverse_order
from blocklex.solver import SizeCapExceeded, check_order, clear_caches
from blocklex.staircase import sandwich_bound


def _values(g):
    return exact_profile(g, "full", with_witnesses=False).i_values


def _least(factors):
    """U with the minimum over every outer factor: prefix counts that
    cannot meet the bound force it."""
    return sandwich_bound([_values(f) for f in factors], np.full(1, -1))


def _random_factors(rng, max_n=20):
    while True:
        sizes = rng.integers(2, 7, size=int(rng.integers(2, 4))).tolist()
        if math.prod(sizes) <= max_n:
            break
    return [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        for n in sizes
    ]


@pytest.mark.parametrize("seed", range(3))
def test_bound_is_never_below_the_subset_dp(seed):
    """Seeded random products of 2-3 factors of at most 20 vertices: the
    bound along the given factor order and the minimum over outer factors
    both lie above the exact profile, the minimum below the other."""
    rng = np.random.default_rng(seed)
    for _ in range(8):
        factors = _random_factors(rng)
        exact = np.asarray(_values(cartesian_product(factors)))
        along = sandwich_bound([_values(f) for f in factors])
        least = _least(factors)
        assert (exact <= least).all() and (least <= along).all()


@pytest.mark.parametrize(
    "factors",
    [[cycle(4), cycle(4)], [path(4), path(5)], [path(3), path(3), clique(2)]],
    ids=["C4xC4", "P4xP5", "P3xP3xK2"],
)
def test_bound_equals_the_subset_dp(factors):
    assert list(_least(factors)) == list(_values(cartesian_product(factors)))


def _stacked_reference(level_L, inner_profile, n_levels, n_inner, m_max=None):
    """The stacked-segment program one row and one level at a time."""
    NEG = staircase.NEG
    total = n_levels * n_inner
    m_max = total if m_max is None else min(m_max, total)
    width = m_max + 1
    H = np.full((n_inner + 1, width), NEG, dtype=np.int64)
    H[:, 0] = 0
    for i in range(n_levels, 0, -1):
        G = np.full((n_inner + 1, width), NEG, dtype=np.int64)
        G[0, 0] = 0
        for t in range(1, n_inner + 1):
            if t <= m_max:
                gain = int(inner_profile[t]) + int(level_L[i]) * t
                src = H[t, : width - t]
                G[t, t:] = np.where(src > NEG // 2, src + gain, NEG)
            G[t, 0] = 0
        np.maximum.accumulate(G, axis=0, out=G)
        H = G
    out = H[n_inner].copy()
    out[out < NEG // 2] = NEG
    return out


@pytest.mark.parametrize("chunk", [staircase.SKEW_CHUNK, 1, 7])
def test_stacked_profile_matches_the_row_by_row_program(monkeypatch, chunk):
    """Seeded random inputs, with a scratch block of one row, of a few
    cells and of the default size: m_max below the total, one level, one
    inner vertex and zero gains included."""
    monkeypatch.setattr(staircase, "SKEW_CHUNK", chunk)
    rng = np.random.default_rng(5)
    cases = [(1, 4, None), (3, 1, None), (4, 3, 5), (2, 5, 0), (0, 3, None)]
    cases += [
        (int(rng.integers(0, 7)), int(rng.integers(0, 9)), None) for _ in range(40)
    ]
    for n_levels, n_inner, m_max in cases:
        if m_max is None and rng.random() < 0.5:
            m_max = int(rng.integers(0, n_levels * n_inner + 2))
        top = 0 if rng.random() < 0.2 else 4  # zero gains
        level = rng.integers(0, top + 1, n_levels + 1)
        inner = np.concatenate(([0], np.cumsum(rng.integers(0, top + 1, n_inner))))
        got = staircase.stacked_profile(level, inner, n_levels, n_inner, m_max)
        want = _stacked_reference(level, inner, n_levels, n_inner, m_max)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_bound_is_memoized_until_the_caches_are_cleared():
    values = [_values(clique(3))] * 3
    first = sandwich_bound(values)
    assert sandwich_bound(values) is first
    with Budget(0.0), pytest.raises(BudgetExceeded):
        sandwich_bound(values)  # a memo hit polls the deadline too
    clear_caches()
    assert not staircase._BOUND_CACHE
    assert list(sandwich_bound(values)) == list(first)


def test_non_optimal_pair_orders_are_refuted_by_the_subset_dp():
    """On C5 x C4, lexicographic order with C4 most significant, its
    reversal and seeded random orders all fail: the check never passes
    them, and reports the first failing size the exact profile gives."""
    pair = cartesian_product([cycle(5), cycle(4)])
    orders = [factor_profile_and_order(f)[1] for f in pair.factors]
    exact = exact_profile(pair, "full", with_witnesses=False)
    lex_c4_first = domination_order(pair, orders, (1, 0))
    rng = np.random.default_rng(11)
    candidates = [lex_c4_first, reverse_order(lex_c4_first)] + [
        TotalOrder.from_sequence(rng.permutation(pair.n).tolist()) for _ in range(6)
    ]
    for order in candidates:
        good, bad_m = verify_order_optimal(pair, order, exact)
        assert not good
        assert check_order(pair, order) == (
            "full_enumeration", False, bad_m, exact.i_values
        )
    # lexicographic order with C5 most significant meets the bound
    lex = domination_order(pair, orders, (0, 1))
    assert check_order(pair, lex) == ("sandwich", True, None, exact.i_values)


def test_order_no_exact_engine_takes_is_never_passed():
    """K2^5 has 32 vertices, over the subset-DP cap, and five factors, over
    the downset oracle's three: a random order misses the bound and the
    check raises instead of answering."""
    g = graph_power(clique(2), 5)
    rng = np.random.default_rng(5)
    order = TotalOrder.from_sequence(rng.permutation(g.n).tolist())
    with pytest.raises(SizeCapExceeded, match="up to three factors"):
        check_order(g, order)


def test_bound_past_the_cell_cap_is_refused_before_it_is_built():
    """(K12 minus a matching)^5 has 248,832 vertices: the stacked table of
    its bound would hold about 39M cells (0.3 GB), over STACK_CELL_CAP, so
    the bound raises before allocating it."""
    import tracemalloc

    from blocklex.certify import matching_reduced_clique

    values = _values(matching_reduced_clique(6, 1))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="beyond the cap"):
            sandwich_bound([values] * 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < staircase.STACK_CELL_CAP  # bytes: an eighth of the table


def test_bound_over_three_factors_of_24_fits_under_the_cell_cap():
    """The largest product the downset oracle takes never meets the cap."""
    n = 24
    inner = n * n
    assert (inner + 1) * (inner + 1 + n**3 + 1) <= staircase.STACK_CELL_CAP


def test_over_cap_block_with_a_bad_factor_order_never_passes():
    """P3^3 with one segment per factor over the P3 order 0, 2, 1: the one
    27-vertex block is over the subset-DP cap and its order misses the
    bound, so validation cannot tell, under any permutation."""
    g = graph_power(path(3), 3)
    part = Partition.from_boundaries(TotalOrder.from_sequence([0, 2, 1]), [3])
    for dc in (
        uniform_collection([part] * 3),
        DominationCollection((part,) * 3, {(0, 0, 0): (2, 0, 1)}),
    ):
        with pytest.raises(SizeCapExceeded, match="cannot tell"):
            dc.validate(g)
        assert not dc.validated


@pytest.mark.parametrize("n", [3, 5])
def test_over_cap_clique_cube_blocks_pass(n):
    """K3^3 and K5^3 under standard partitions are one block over the cap;
    lexicographic order meets the bound there (Lindsey 1964)."""
    from blocklex import standard_collection

    g = graph_power(clique(n), 3)
    dc = standard_collection(g.factors)
    assert dc.validate(g) == (True, [])
