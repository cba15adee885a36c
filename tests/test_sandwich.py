"""The sandwich bound U, an upper bound on a product's profile built from
its factors' exact profiles, and the order checks that try it first.  On
any product, prefix counts that meet U prove an order optimal.  On a pair
whose factors have nested solutions U is the exact profile, so it refutes
an order too; on three or more factors a miss proves nothing."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    petersen,
    uniform_collection,
    verify_order_optimal,
)
from blocklex import solver, staircase
from blocklex.orders import reverse_order
from blocklex.solver import (
    NoNestedSolutions,
    SizeCapExceeded,
    check_order,
    clear_caches,
)
from blocklex.staircase import (
    downset_profile,
    product_prefix_counts,
    sandwich_bound,
    staircase_scan_2d,
)


def _values(g):
    return exact_profile(g, "full", with_witnesses=False).i_values


def _least(factors):
    """U with the minimum over every outer factor: prefix counts that
    cannot meet the bound force it."""
    return sandwich_bound([_values(f) for f in factors], np.full(1, -1))


def _random_graph(rng, n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])


def _random_factors(rng, max_n=20):
    while True:
        sizes = rng.integers(2, 7, size=int(rng.integers(2, 4))).tolist()
        if math.prod(sizes) <= max_n:
            break
    return [_random_graph(rng, n) for n in sizes]


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


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_stacked_profile_is_the_best_non_increasing_stack(n_levels, n_inner, data):
    """Brute force over every stack c_1 >= ... >= c_n_levels of segment
    sizes 0..n_inner, per total size up to a random m_max: in one chunk (the
    default) and in chunks of one row or a few cells."""
    level = data.draw(st.lists(st.integers(0, 4), min_size=n_levels + 1, max_size=n_levels + 1))
    steps = data.draw(st.lists(st.integers(0, 4), min_size=n_inner, max_size=n_inner))
    inner = list(itertools.accumulate([0] + steps))
    total = n_levels * n_inner
    m_max = data.draw(st.none() | st.integers(0, total + 2))
    top = total if m_max is None else min(m_max, total)
    want = [staircase.NEG] * (top + 1)
    for c in itertools.combinations_with_replacement(range(n_inner, -1, -1), n_levels):
        if sum(c) <= top:
            edges = sum(inner[t] + level[i] * t for i, t in enumerate(c, start=1))
            want[sum(c)] = max(want[sum(c)], edges)
    for chunk in (staircase.SKEW_CHUNK, 1, 5):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(staircase, "SKEW_CHUNK", chunk)
            got = staircase.stacked_profile(np.array(level), inner, n_levels, n_inner, m_max)
        assert got.dtype == np.int64 and got.tolist() == want, chunk


def test_bound_is_memoized_until_the_caches_are_cleared():
    values = [_values(clique(3))] * 3
    first = sandwich_bound(values)
    assert sandwich_bound(values) is first
    with Budget(0.0), pytest.raises(BudgetExceeded):
        sandwich_bound(values)  # a memo hit polls the deadline too
    clear_caches()
    assert not staircase._STEP_CACHE
    assert list(sandwich_bound(values)) == list(first)


def test_non_optimal_pair_orders_are_refuted_by_the_bound(monkeypatch):
    """On C5 x C4, lexicographic order with C4 most significant, its
    reversal and seeded random orders all fail: the check never passes
    them, and reports the first failing size the exact profile gives.  The
    bound decides alone: neither the subset DP nor the downset oracle ever
    profiles the pair."""
    pair = cartesian_product([cycle(5), cycle(4)])
    orders = [factor_profile_and_order(f)[1] for f in pair.factors]
    exact = exact_profile(pair, "full", with_witnesses=False)
    profiled = []
    enumerated = solver._enumerated_profile

    def recording(g, *args):
        profiled.append(g.digest)
        return enumerated(g, *args)

    def no_downsets(*args, **kwargs):
        raise AssertionError("the downset oracle ran")

    monkeypatch.setattr(solver, "_enumerated_profile", recording)
    monkeypatch.setattr(staircase, "downset_profile", no_downsets)
    lex_c4_first = domination_order(pair, orders, (1, 0))
    rng = np.random.default_rng(11)
    candidates = [lex_c4_first, reverse_order(lex_c4_first)] + [
        TotalOrder.from_sequence(rng.permutation(pair.n).tolist()) for _ in range(6)
    ]
    for order in candidates:
        good, bad_m = verify_order_optimal(pair, order, exact)
        assert not good
        assert check_order(pair, order) == ("sandwich", False, bad_m, exact.i_values)
    # lexicographic order with C5 most significant meets the bound
    lex = domination_order(pair, orders, (0, 1))
    assert check_order(pair, lex) == ("sandwich", True, None, exact.i_values)
    assert profiled and pair.digest not in profiled


ATOMS = {
    "K2": clique(2), "K3": clique(3), "K4": clique(4),
    "C3": cycle(3), "C4": cycle(4), "C5": cycle(5), "C6": cycle(6),
    "P3": path(3), "P4": path(4), "P5": path(5), "petersen": petersen(),
}


def _nested_random_graph(rng, n):
    """A seeded random graph on n vertices that has nested solutions."""
    while True:
        g = _random_graph(rng, n)
        try:
            factor_profile_and_order(g)
        except NoNestedSolutions:
            continue
        return g


def _assert_pair_bound_is_exact(f, h):
    exact = list(_values(cartesian_product([f, h])))
    assert list(sandwich_bound([_values(f), _values(h)])) == exact
    assert list(sandwich_bound([_values(h), _values(f)])) == exact
    assert list(_least([f, h])) == exact


@pytest.mark.parametrize(
    "names",
    [
        (a, b)
        for a, b in itertools.combinations_with_replacement(ATOMS, 2)
        if ATOMS[a].n * ATOMS[b].n <= 24
    ],
    ids="x".join,
)
def test_pair_bound_is_the_subset_dp(names):
    """U along either factor first, and their minimum, equal the subset DP
    on every pair of at most 24 vertices of the named graphs."""
    _assert_pair_bound_is_exact(*(ATOMS[x] for x in names))


@pytest.mark.parametrize("seed", range(3))
def test_pair_bound_is_the_subset_dp_on_random_nested_factors(seed):
    """Seeded random pairs of graphs with nested solutions, one of 3-8
    vertices and the other as large as 24 vertices allow."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        n = int(rng.integers(3, 9))
        f = _nested_random_graph(rng, n)
        h = _nested_random_graph(rng, int(rng.integers(3, 24 // n + 1)))
        _assert_pair_bound_is_exact(f, h)


@pytest.mark.parametrize(
    "factors",
    [[petersen(), petersen()], [cycle(6), cycle(8)], [clique(6), clique(5)]],
    ids=["petersen^2", "C6xC8", "K6xK5"],
)
def test_pair_bound_is_the_downset_profile(factors):
    """Past the subset DP's cap, U equals the downset oracle and the
    exhaustive staircase scan on the factors' optimal orders."""
    g = cartesian_product(factors)
    orders = [factor_profile_and_order(f)[1] for f in factors]
    upper = list(sandwich_bound([_values(f) for f in factors]))
    assert list(downset_profile(g, orders)) == upper
    assert list(staircase_scan_2d(g, orders)[0]) == upper


@pytest.fixture
def stacked_calls(monkeypatch):
    """The (level, inner) pair of every `stacked_profile` call from here
    on, with the caches cleared first."""
    calls = []
    stacked = staircase.stacked_profile

    def recording(level, inner, *args, **kwargs):
        calls.append((tuple(level.tolist()), tuple(inner.tolist())))
        return stacked(level, inner, *args, **kwargs)

    monkeypatch.setattr(staircase, "stacked_profile", recording)
    clear_caches()
    return calls


def test_each_stacked_step_is_built_once_per_command(stacked_calls):
    """One `certify C4xC5xK3` takes the ordered bound and the minimum over
    outer choices on its blocks and pairs: `stacked_profile` never sees the
    same (level, inner) pair twice, and clearing the caches drops every
    memoized step."""
    from blocklex import certify

    cert = certify([cycle(4), cycle(5), clique(3)], "standard")
    assert cert.status == "hypothesis_failed"
    assert stacked_calls and len(set(stacked_calls)) == len(stacked_calls)
    assert staircase._STEP_CACHE
    clear_caches()
    assert not staircase._STEP_CACHE


def test_minimum_over_outer_choices_shares_the_ordered_steps(stacked_calls):
    """The ordered bound of C4 x C5 x K3 takes two stacked steps (C5 over
    K3, then C4 over that).  The minimum over outer choices then takes four
    more, not nine: it reuses both, and on each pair inside it takes one
    step, as either outer choice gives the same."""
    values = [_values(f) for f in (cycle(4), cycle(5), clique(3))]
    ordered = sandwich_bound(values)
    assert len(stacked_calls) == 2
    least = sandwich_bound(values, np.full(1, -1))
    assert len(stacked_calls) == 6
    assert (least <= ordered).all()


def _step(outer, inner):
    return staircase.stacked_profile(
        np.diff(outer, prepend=0), np.asarray(inner), len(outer) - 1, len(inner) - 1
    )


@pytest.mark.parametrize("seed", range(3))
def test_two_factor_bound_is_the_same_for_either_outer_factor(seed):
    """Conjugating a staircase swaps the two factors' roles, so on random
    sequences starting at 0 (profiles or not) both outer choices give the
    same stacked step, and `sandwich_bound` takes no minimum on two."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        f, h = (
            tuple([0] + np.cumsum(rng.integers(-3, 6, int(rng.integers(2, 9)))).tolist())
            for _ in range(2)
        )
        assert np.array_equal(_step(f, h), _step(h, f))
        assert np.array_equal(sandwich_bound([f, h], np.full(1, -1)), _step(f, h))


def test_pair_check_that_misses_the_bound_takes_one_step(stacked_calls):
    """A refuted pair order costs one stacked step: no second outer choice
    is tried on two factors."""
    pair = cartesian_product([cycle(4), cycle(5)])
    orders = [factor_profile_and_order(f)[1] for f in pair.factors]
    prefix = solver.prefix_edge_counts(pair, domination_order(pair, orders, (0, 1)))
    used, ok, bad_m, _ = solver.check_prefix_counts(pair.factors, prefix)
    assert (used, ok) == ("sandwich", False) and bad_m is not None
    assert len(stacked_calls) == 1


@pytest.mark.parametrize(
    "names", list(itertools.product(ATOMS, repeat=2)), ids="x".join
)
def test_pair_bound_takes_no_minimum(names):
    """On every ordered pair of K2-K4, C3-C6, P3-P5 and petersen, U with
    the first factor outer equals the minimum over both outer choices, and
    equals the subset DP where the pair has at most 24 vertices."""
    f, h = (_values(ATOMS[x]) for x in names)
    ordered = sandwich_bound([f, h])
    assert np.array_equal(ordered, np.minimum(_step(f, h), _step(h, f)))
    pair = cartesian_product([ATOMS[x] for x in names])
    if pair.n <= 24:
        assert list(ordered) == list(_values(pair))


def test_two_factor_check_without_nested_solutions_still_raises(non_nested_7):
    """Negative control: prefix counts that miss the two-factor bound get
    no verdict when a factor has no nested solutions, whichever factor is
    outer and though no minimum over outer choices is taken."""
    for factors in ([non_nested_7, clique(3)], [path(3), non_nested_7]):
        prefix = product_prefix_counts(factors)
        assert (prefix < sandwich_bound([_values(f) for f in factors])).any()
        with pytest.raises(NoNestedSolutions):
            solver.check_prefix_counts(factors, prefix)


def test_pair_order_that_misses_the_bound_needs_nested_factors(non_nested_7):
    """A pair with a factor that has no nested solutions gets no verdict
    from the bound, whichever factor comes first."""
    rng = np.random.default_rng(3)
    for factors in ([non_nested_7, clique(2)], [clique(3), non_nested_7]):
        pair = cartesian_product(factors)
        order = TotalOrder.from_sequence(rng.permutation(pair.n).tolist())
        prefix = solver.prefix_edge_counts(pair, order)
        upper = solver.prefix_bound(pair.factors, prefix)
        assert (prefix < upper).any()
        with pytest.raises(NoNestedSolutions):
            check_order(pair, order)


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
        # called directly on 5,000 levels of 5,000, whose gain rows alone
        # would take 0.2 GB
        tracemalloc.reset_peak()
        with pytest.raises(SizeCapExceeded, match="beyond the cap"):
            staircase.stacked_profile(np.ones(5001, np.int64), np.arange(5001), 5000, 5000)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peak < staircase.STACK_CELL_CAP  # bytes: an eighth of the table


def test_slab_dp_past_the_cell_cap_is_refused_before_it_is_built():
    """K24 x K23 x K4 has 2,208 vertices: the slab DP's two tables would
    hold 2 x 17,550 shapes x 2,209 sizes, about 77.5M cells (0.6 GB), over
    STACK_CELL_CAP, so it raises before allocating them."""
    import tracemalloc

    g = cartesian_product([clique(24), clique(23), clique(4)])
    orders = [TotalOrder.identity(f.n) for f in g.factors]
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="77535900 cells, beyond the cap"):
            downset_profile(g, orders)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < staircase.STACK_CELL_CAP // 8  # bytes: a 64th of the tables


def test_slab_dp_cap_counts_only_the_sizes_asked_for(monkeypatch):
    """On C5^3 the slab DP's tables hold 2 x 252 shapes x 126 sizes: under
    a cap of 10,000 cells the whole profile is refused, and its first 16
    sizes (8,064 cells) are the same as without the cap."""
    g = graph_power(cycle(5), 3)
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    whole = downset_profile(g, orders)
    monkeypatch.setattr(staircase, "STACK_CELL_CAP", 10_000)
    with pytest.raises(SizeCapExceeded, match="63504 cells"):
        downset_profile(g, orders)
    assert list(downset_profile(g, orders, 15)) == list(whole[:16])


def test_bound_over_three_factors_of_24_fits_under_the_cell_cap():
    """The largest product the downset oracle takes never meets the cap."""
    n = 24
    inner = n * n
    assert (inner + 1) * (inner + 1 + n**3 + 1) <= staircase.STACK_CELL_CAP


def test_over_cap_block_with_a_bad_factor_order_never_passes():
    """P3^3 with one segment per factor over the P3 order 0, 2, 1: the one
    27-vertex block is over the subset-DP cap and its order misses the
    bound, so the slab DP decides it: refuted at m = 2 (the first two
    vertices of the segment order are not adjacent), under any
    permutation."""
    g = graph_power(path(3), 3)
    part = Partition.from_boundaries(TotalOrder.from_sequence([0, 2, 1]), [3])
    for dc in (
        uniform_collection([part] * 3),
        DominationCollection((part,) * 3, {(0, 0, 0): (2, 0, 1)}),
    ):
        assert dc.validate(g) == (False, [
            "block (0, 0, 0): domination order not optimal for the block "
            "graph (fails at m=2)"
        ])
        assert not dc.validated


def test_over_cap_block_of_four_segments_cannot_be_told():
    """P3^4 under the same order is one 81-vertex block of four segment
    graphs: neither the subset DP nor the slab DP takes it, so validation
    raises instead of answering."""
    g = graph_power(path(3), 4)
    part = Partition.from_boundaries(TotalOrder.from_sequence([0, 2, 1]), [3])
    dc = uniform_collection([part] * 4)
    with pytest.raises(SizeCapExceeded, match="up to three factors"):
        dc.validate(g)
    assert not dc.validated


@pytest.mark.parametrize("first", [0, 1])
def test_block_with_a_non_nested_segment_graph_gets_no_verdict(non_nested_7, first):
    """The 7-vertex graph without nested solutions times K2, either factor
    first, with one segment per factor: the one block misses the bound,
    and the pair check raises NoNestedSolutions instead of a verdict."""
    factors = [non_nested_7, clique(2)][:: 1 if first == 0 else -1]
    g = cartesian_product(factors)
    dc = uniform_collection(
        [Partition.from_boundaries(TotalOrder.identity(f.n), [f.n]) for f in factors]
    )
    with pytest.raises(NoNestedSolutions):
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
