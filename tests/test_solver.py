"""The exact solver: profiles, delta-sequences, chain search, verification.

Expected values for the small cases were frozen from independent
brute-force enumeration over all subsets.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklex import (
    Budget,
    BudgetExceeded,
    Graph,
    SizeCapExceeded,
    TotalOrder,
    VertexSet,
    cartesian_product,
    clique,
    cycle,
    delta_sequence,
    disjoint_union,
    exact_profile,
    factor_profile_and_order,
    find_nested_chain,
    graph_power,
    path,
    petersen,
    prefix_edge_counts,
    theta_profile,
    verify_order_optimal,
)

PETERSEN_DELTA = (0, 1, 1, 1, 2, 1, 2, 2, 2, 3)


def test_petersen_profile(pet_profile):
    assert pet_profile.i_values == (0, 0, 1, 2, 3, 5, 6, 8, 10, 12, 15)
    assert delta_sequence(pet_profile).values == PETERSEN_DELTA


def test_cube_profile(cube3):
    prof = exact_profile(cube3)
    assert prof.i_values == (0, 0, 1, 2, 4, 5, 7, 9, 12)


def test_single_vertex_profile():
    prof = exact_profile(clique(1))
    assert prof.i_values == (0, 0)


def test_profile_endpoints_and_monotonicity(pet, pet_profile):
    vals = pet_profile.i_values
    assert vals[0] == 0
    assert vals[-1] == pet.num_edges
    assert all(vals[i + 1] >= vals[i] for i in range(len(vals) - 1))


def test_witnesses_achieve_values(pet, pet_profile):
    prof = exact_profile(pet)  # with witnesses
    from blocklex import induced_edges

    for m in range(pet.n + 1):
        w = prof.witness(m)
        assert len(w) == m
        assert induced_edges(pet, VertexSet.from_ids(pet.n, w)) == prof.value(m)


def test_full_enumeration_cap():
    g = path(30)
    with pytest.raises(SizeCapExceeded):
        exact_profile(g, "full")


@pytest.mark.parametrize(
    "g,expect",
    [
        (clique(5), (0, 1, 2, 3, 4)),
        (path(6), (0, 1, 1, 1, 1, 1)),
        (disjoint_union([clique(5), clique(4)]), (0, 1, 2, 3, 4, 0, 1, 2, 3)),
    ],
)
def test_delta_examples(g, expect):
    assert delta_sequence(exact_profile(g)).values == expect


def test_delta_step_bound_on_isoperimetric_graphs():
    for g in [petersen(), clique(6), path(7), cycle(6), graph_power(clique(2), 3)]:
        prof = exact_profile(g)
        res = find_nested_chain(g, prof)
        assert res.status == "order"
        assert delta_sequence(prof).step_bound_holds()


def test_theta_cube(cube3):
    """The cube is 3-regular, so theta(m) = 3m - 2 I(m)."""
    full = theta_profile(cube3)
    assert full.i_values[4] == 4
    assert full.i_values[0] == 0
    induced = exact_profile(cube3).i_values
    assert full.i_values == tuple(3 * m - 2 * i for m, i in enumerate(induced))


def test_theta_c5_pair():
    assert theta_profile(cycle(5)).i_values[2] == 2


def test_regular_complement_identity():
    """For regular graphs, complements of optimal sets are optimal."""
    for g in [petersen(), cycle(6), graph_power(clique(2), 3)]:
        vals = exact_profile(g).i_values
        d, n, e = g.regular_degree(), g.n, g.num_edges
        for m in range(n + 1):
            assert vals[n - m] == e - d * m + vals[m]


def test_chain_on_clique():
    g = clique(5)
    prof = exact_profile(g)
    res = find_nested_chain(g, prof)
    assert res.status == "order"
    assert prof.i_values == tuple(m * (m - 1) // 2 for m in range(6))


def test_chain_on_petersen_matches_delta(pet, pet_profile):
    res = find_nested_chain(pet, pet_profile)
    assert res.status == "order"
    prefix = prefix_edge_counts(pet, res.order)
    assert tuple(np.diff(prefix)) == PETERSEN_DELTA


def test_chain_star_center_first():
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])  # star, center 0
    prof = exact_profile(g)
    res = find_nested_chain(g, prof)
    assert res.status == "order"
    # deterministic lowest-id-first search starts at the center
    assert res.order.vertex_at(1) == 0
    # an order with the center last is not optimal
    center_last = TotalOrder.from_sequence([1, 2, 3, 0])
    ok, m = verify_order_optimal(g, center_last, prof)
    assert not ok and m == 2


def test_chain_inconclusive_vs_negative():
    g = petersen()
    prof = exact_profile(g)
    res = find_nested_chain(g, prof, node_cap=3)
    assert res.status == "inconclusive"
    assert res.order is None


def test_lex_optimal_on_cube_powers(k2_order):
    from blocklex import lex_order

    for d in (2, 3, 4):
        g = graph_power(clique(2), d)
        prof = exact_profile(g, with_witnesses=False)
        o = lex_order(g, [k2_order] * d)
        ok, _ = verify_order_optimal(g, o, prof)
        assert ok


def test_lex_optimal_on_ascending_cliques():
    from blocklex import lex_order

    g = cartesian_product([clique(2), clique(3)])
    prof = exact_profile(g)
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    ok, _ = verify_order_optimal(g, lex_order(g, orders), prof)
    assert ok


def test_path_orders():
    g = path(4)
    prof = exact_profile(g)
    # end-first orders are optimal, from either end
    ok, _ = verify_order_optimal(g, TotalOrder.identity(4), prof)
    assert ok
    from blocklex import reverse_order

    ok, _ = verify_order_optimal(g, reverse_order(TotalOrder.identity(4)), prof)
    assert ok
    # an order whose first two vertices are non-adjacent fails at m=2
    ok, m = verify_order_optimal(g, TotalOrder.from_sequence([1, 3, 0, 2]), prof)
    assert not ok and m == 2


def test_bnb_agrees_with_full():
    for g in [
        petersen(),
        cartesian_product([clique(2), clique(3)]),
        cycle(8),
        disjoint_union([clique(3), path(4)]),
    ]:
        a = exact_profile(g, "full")
        b = exact_profile(g, "bnb")
        assert a.i_values == b.i_values
        from blocklex import VertexSet, induced_edges

        for m in range(g.n + 1):
            w = b.witness(m)
            assert len(w) == m
            assert induced_edges(g, VertexSet.from_ids(g.n, w)) == b.value(m)


def test_compressed_strategy_agrees_with_full():
    for factors in [
        [clique(2)] * 3,
        [clique(2), clique(3)],
        [cycle(5), clique(2)],
        [cycle(4), cycle(3)],
        [path(3), path(4)],
    ]:
        g = cartesian_product(factors)
        full = exact_profile(g, "full")
        comp = exact_profile(g, "compressed")
        assert comp.i_values == full.i_values, factors


def test_compressed_strategy_past_200_vertices():
    """K6^3 has 216 vertices; lexicographic order is optimal on clique
    powers (Lindsey 1964), so its prefix counts are the exact profile."""
    from blocklex import lex_order

    g = graph_power(clique(6), 3)
    comp = exact_profile(g, "compressed")
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    assert list(comp.i_values) == prefix_edge_counts(g, lex_order(g, orders)).tolist()


def test_budget_flags_incomplete():
    g = graph_power(clique(2), 4)
    with Budget(0.0), pytest.raises(BudgetExceeded, match="budget exceeded"):
        exact_profile(g)


def test_downset_dps_poll_the_budget():
    """The stacked (two-factor) and slab (three-factor) DPs poll once per
    level."""
    from blocklex import downset_profile

    factors = [cycle(5), cycle(4), cycle(3)]
    orders = [factor_profile_and_order(f)[1] for f in factors]
    for k in (2, 3):
        g = cartesian_product(factors[:k])
        with Budget(0.0), pytest.raises(BudgetExceeded):
            downset_profile(g, orders[:k])


def test_nested_budget_keeps_the_earlier_deadline():
    Budget.check()  # no budget entered: never raises
    with Budget(0.0):
        with Budget(600):
            with pytest.raises(BudgetExceeded):
                Budget.check()
        with pytest.raises(BudgetExceeded):
            Budget.check()
    Budget.check()
    with Budget(600):
        with Budget(0.0):
            with pytest.raises(BudgetExceeded):
                Budget.check()
        Budget.check()  # the outer deadline is back


# -- subset-DP kernels against literal references ---------------------------


def _random_graph(n, rng):
    p = rng.random()
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _dp_cases():
    """Seeded random graphs, n = 0..12 (n = 0 through a stand-in, since a
    Graph needs a vertex)."""
    from types import SimpleNamespace

    rng = np.random.default_rng(11)
    yield SimpleNamespace(n=0, adjacency_bitmasks=lambda: []), []
    for n in range(1, 13):
        for _ in range(3):
            g = _random_graph(n, rng)
            eu, ev = g.edge_arrays()
            yield g, list(zip(eu.tolist(), ev.tolist()))


def test_dp_subset_values_against_per_mask_count():
    from blocklex.solver import _dp_subset_values

    for g, edges in _dp_cases():
        induced = _dp_subset_values(g.adjacency_bitmasks(), g.n, "induced")
        boundary = _dp_subset_values(g.adjacency_bitmasks(), g.n, "boundary")
        for mask in range(1 << g.n):
            inside = [(mask >> u & 1) + (mask >> v & 1) for u, v in edges]
            assert induced[mask] == inside.count(2), (g.n, mask)
            assert boundary[mask] == inside.count(1), (g.n, mask)


def _ref_profile(n, val, maximize):
    """Per size m, the extremum over masks of popcount m and the smallest
    mask that attains it.  val is a table, or a small graph's bytes."""
    if isinstance(val, bytes):
        val = np.frombuffer(val, dtype=np.uint8)
    popcount = np.array([bin(x).count("1") for x in range(1 << n)])
    values, wits = [], []
    for m in range(n + 1):
        masks = np.flatnonzero(popcount == m)  # ascending
        vals = val[masks]
        best = int(vals.max() if maximize else vals.min())
        first = int(masks[vals == best][0])
        values.append(best)
        wits.append(tuple(i for i in range(n) if first >> i & 1))
    return values, wits


def test_profile_from_values_against_smallest_extremal_mask():
    """Up to 12 vertices the table is one row of columns; from 13 on it has
    2^(n - 12) rows, whose classes the witnesses are looked up in."""
    from blocklex.solver import _dp_subset_values, _profile_from_values

    rng = np.random.default_rng(12)
    wide = [(_random_graph(n, rng), None) for n in (13, 14, 15, 16) for _ in range(2)]
    for g, _ in [*_dp_cases(), *wide]:
        for mode, maximize in (("induced", True), ("boundary", False)):
            val = _dp_subset_values(g.adjacency_bitmasks(), g.n, mode)
            got = _profile_from_values(g.n, val, maximize, True)
            assert got == _ref_profile(g.n, val, maximize)
            assert _profile_from_values(g.n, val, maximize, False) == (got[0], None)
        # few distinct values, so ties everywhere
        noise = rng.integers(0, 3, 1 << g.n).astype(np.int16)
        for maximize in (True, False):
            assert _profile_from_values(g.n, noise, maximize, True) == (
                _ref_profile(g.n, noise, maximize)
            )


@pytest.mark.parametrize("n", [16, 17, 18])
def test_reduction_when_every_set_ties(n):
    """The edgeless graph: every set of a size has the same value, so every
    row and column class attains it, and the smallest mask of size m is
    the first m vertices."""
    from blocklex.solver import _dp_subset_values, _profile_from_values

    g = Graph(n, [])
    for mode, maximize in (("induced", True), ("boundary", False)):
        val = _dp_subset_values(g.adjacency_bitmasks(), g.n, mode)
        assert not val.any()
        got = _profile_from_values(n, val, maximize, True)
        assert got == _ref_profile(n, val, maximize)
        assert got == ([0] * (n + 1), [tuple(range(m)) for m in range(n + 1)])
    assert exact_profile(g).witnesses == tuple(tuple(range(m)) for m in range(n + 1))
    assert theta_profile(g).i_values == (0,) * (n + 1)


def test_reduction_of_constant_values():
    from blocklex.solver import _profile_from_values

    for n in (0, 1, 2, 5, 9, 14, 17):
        for c in (-3, 0, 7):
            val = np.full(1 << n, c, dtype=np.int16)
            for maximize in (True, False):
                got = _profile_from_values(n, val, maximize, True)
                assert got == _ref_profile(n, val, maximize)
                assert got[0] == [c] * (n + 1)


def _counting_check(limit, polls):
    """A Budget.check that records its polls and raises past limit."""

    def check():
        polls.append(None)
        if limit is not None and len(polls) > limit:
            raise BudgetExceeded("budget exceeded")

    return staticmethod(check)


def test_budget_out_inside_the_reduction_is_incomplete_and_not_cached(monkeypatch):
    """A budget that runs out at each poll after the DP's n polls, that is
    inside the reduction (witness lookups included), raises
    BudgetExceeded, and nothing is cached.  The graph is past
    SMALL_MAX_N, so the numpy table is reduced."""
    from blocklex import solver

    g = cycle(13)
    assert g.n > solver.SMALL_MAX_N
    for profile in (exact_profile, theta_profile):
        total = []
        for witnesses in (False, True):
            polls = []
            monkeypatch.setattr(Budget, "check", _counting_check(None, polls))
            solver.clear_caches()
            profile(g, with_witnesses=witnesses)
            total.append(len(polls))
            for limit in range(g.n, len(polls)):
                monkeypatch.setattr(Budget, "check", _counting_check(limit, []))
                solver.clear_caches()
                with pytest.raises(BudgetExceeded, match="budget exceeded"):
                    profile(g, with_witnesses=witnesses)
                assert solver._PROFILE_CACHE == {}
        # the row classes poll, and the witness lookups poll again
        assert g.n + 1 < total[0] < total[1]


def test_budget_out_inside_the_small_path_is_incomplete_and_not_cached(monkeypatch):
    """A graph of at most SMALL_MAX_N vertices polls once per vertex in
    its DP; a budget that runs out at any poll raises BudgetExceeded, and
    nothing is cached."""
    from blocklex import solver

    g = petersen()
    assert g.n <= solver.SMALL_MAX_N
    for profile in (exact_profile, theta_profile):
        for witnesses in (False, True):
            polls = []
            monkeypatch.setattr(Budget, "check", _counting_check(None, polls))
            solver.clear_caches()
            profile(g, with_witnesses=witnesses)
            assert len(polls) == g.n + 2  # the cache, the DP, the reduction
            for limit in range(len(polls)):
                monkeypatch.setattr(Budget, "check", _counting_check(limit, []))
                solver.clear_caches()
                with pytest.raises(BudgetExceeded, match="budget exceeded"):
                    profile(g, with_witnesses=witnesses)
                assert solver._PROFILE_CACHE == {}


# -- the small-graph path --------------------------------------------------------


def _small_cases():
    """Every named atom of at most SMALL_MAX_N vertices, seeded random
    graphs of 1..SMALL_MAX_N vertices, the edgeless graphs and one vertex."""
    from blocklex import parse_graph_spec
    from blocklex.solver import SMALL_MAX_N

    k = SMALL_MAX_N
    names = [f"K{n}" for n in range(1, k + 1)] + [f"P{n}" for n in range(1, k + 1)]
    names += [f"C{n}" for n in range(3, k + 1)] + ["petersen"]
    names += [f"K{a},{b}" for a in range(1, k) for b in range(a, k + 1 - a)]
    cases = [(name, parse_graph_spec(name)) for name in names]
    rng = np.random.default_rng(19)
    cases += [
        (f"random {n} #{i}", _random_graph(n, rng)) for n in range(1, k + 1) for i in range(4)
    ]
    cases += [(f"edgeless {n}", Graph(n, [])) for n in range(1, k + 1)]
    assert any(g.n == 1 for _, g in cases) and any(g.n == k for _, g in cases)
    return cases


def _small_path_disagreements(reduce):
    """The cases, kinds and witness requests where reduce(n, the small
    path's bytes, maximize, with_witnesses) differs from the reduction of
    the numpy table."""
    from blocklex import solver

    bad = []
    for name, g in _small_cases():
        for mode, maximize in (("induced", True), ("boundary", False)):
            small = solver._dp_subset_values(g.adjacency_bitmasks(), g.n, mode)
            assert isinstance(small, bytes)
            table = solver._subset_dp(g.adjacency_bitmasks(), g.n, maximize)
            assert list(small) == table.tolist(), (name, mode)
            for witnesses in (False, True):
                want = solver._profile_from_values(g.n, table, maximize, witnesses)
                if reduce(g.n, small, maximize, witnesses) != want:
                    bad.append((name, mode, witnesses))
    return bad


def test_small_path_equals_the_numpy_table_path():
    """Values and smallest witnesses, in both kinds, with and without
    witnesses."""
    from blocklex.solver import _profile_from_values

    assert _small_path_disagreements(_profile_from_values) == []


def test_size_classes_hold_words_not_vertex_sets():
    """A profile from cold caches builds no vertex set per word: the size
    classes keep the words, and a witness is built from its own word.
    Values and witnesses are the numpy table path's."""
    from blocklex import petersen, solver

    g = petersen()
    table = solver._subset_dp(g.adjacency_bitmasks(), g.n, True)
    for witnesses in (False, True):
        solver.clear_caches()
        solver._size_classes.cache_clear()
        prof = exact_profile(g, "full", with_witnesses=witnesses)
        classes = solver._size_classes(g.n)
        assert solver._size_classes.cache_info().hits == 1
        assert [words for _, words in classes] == [
            [r for r in range(1 << g.n) if r.bit_count() == m] for m in range(g.n + 1)
        ]
        values, wits = solver._profile_from_values(g.n, table, True, witnesses)
        assert (list(prof.i_values), prof.witnesses and list(prof.witnesses)) == (values, wits)


def test_a_small_path_that_keeps_the_largest_attaining_mask_is_caught():
    """Mutation check of the comparison above: a reduction that keeps the
    largest mask attaining each size's extremum disagrees with the numpy
    table path, though its values are right."""
    from blocklex.solver import _profile_from_values, _size_classes

    def largest_attaining(n, val, maximize, with_witnesses):
        values, wits = _profile_from_values(n, val, maximize, False)
        if not with_witnesses:
            return values, None
        wits = []
        for (get, words), best in zip(_size_classes(n), values):
            fields = get(val)[:-1]
            r = words[len(fields) - 1 - fields[::-1].index(best)]
            wits.append(tuple(x for x in range(n) if r >> x & 1))
        return values, wits

    bad = _small_path_disagreements(largest_attaining)
    assert bad and all(witnesses for _, _, witnesses in bad)
    assert ("P4", "induced", True) in bad


# -- the streamed subset DP ----------------------------------------------------


def _table_profile(g, maximize, with_witnesses=True):
    """The full-table result: the reduction of the whole 2^n table."""
    from blocklex.solver import _dp_subset_values, _profile_from_values

    val = _dp_subset_values(g.adjacency_bitmasks(), g.n, "induced" if maximize else "boundary")
    return _profile_from_values(g.n, val, maximize, with_witnesses)


def _streamed_profile(g, maximize, with_witnesses=True):
    """The streamed result, whatever route `exact_profile` takes on g:
    graphs that split into id intervals are profiled from their parts."""
    from blocklex.solver import STREAM_MIN_N, _profile_from_values, _SubsetRows

    assert g.n >= STREAM_MIN_N
    rows = _SubsetRows(g.adjacency_bitmasks(), g.n, "induced" if maximize else "boundary")
    return _profile_from_values(g.n, rows, maximize, with_witnesses)


@pytest.mark.parametrize("n", [22, 23, 24])
def test_streamed_profile_equals_the_full_table(n):
    """Values and smallest witnesses, in both modes, on sparse and dense
    seeded random graphs."""
    rng = np.random.default_rng(100 + n)
    for p in (0.12, 0.6):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph(n, edges)
        for maximize in (True, False):
            want = _table_profile(g, maximize)
            assert _streamed_profile(g, maximize) == want, (n, p, maximize)
            assert _streamed_profile(g, maximize, False) == (want[0], None)


def test_streamed_profile_when_every_set_ties():
    """The edgeless 22-vertex graph: every row attains every size, and the
    witness of size m is the first m vertices."""
    g = Graph(22, [])
    for maximize in (True, False):
        assert _streamed_profile(g, maximize) == (
            [0] * 23, [tuple(range(m)) for m in range(23)]
        )


def test_streamed_witnesses_in_late_rows():
    """Edges only among the high vertices (16 and up): the sets that
    attain a size of two or more hold high vertices, so their smallest
    masks sit in late rows, and for the boundary the best sets avoid
    them."""
    n = 23
    high = range(16, n)
    g = Graph(n, [(u, v) for u in high for v in high if u < v and (u + v) % 3])
    for maximize in (True, False):
        got = _streamed_profile(g, maximize)
        assert got == _table_profile(g, maximize)
        if maximize:
            assert all(min(w) >= 16 for w in got[1][2:8])


def test_budget_out_inside_the_row_loop_is_incomplete_and_not_cached(monkeypatch):
    """A budget that runs out at a poll after the base row's, in the
    fold or in the witness pass, raises BudgetExceeded, and nothing is
    cached."""
    from blocklex import solver

    g = cycle(22)

    polls = []
    monkeypatch.setattr(Budget, "check", _counting_check(None, polls))
    solver.clear_caches()
    exact_profile(g)
    # the cache, the reduction and the base row's 16 vertices poll first;
    # then the fold polls once per row, and the witness pass again
    base = 2 + 16
    assert len(polls) > base + 2 * ((1 << (g.n - 16)) - 1)
    for limit in range(base, len(polls), 7):
        monkeypatch.setattr(Budget, "check", _counting_check(limit, []))
        solver.clear_caches()
        with pytest.raises(BudgetExceeded, match="budget exceeded"):
            exact_profile(g)
        assert solver._PROFILE_CACHE == {}


def test_streamed_profile_memory():
    """The 24-vertex profile streams rows of 2^16 values: its traced peak
    stays a few MB (the 2^24 table alone is 32 MB)."""
    import tracemalloc

    from blocklex import solver

    solver.clear_caches()
    tracemalloc.start()
    try:
        prof = exact_profile(cycle(24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.i_values == (0,) + tuple(range(23)) + (24,)
    assert peak < 8 * 2**20


def _cli_json(capsys, *argv):
    from blocklex.cli import main

    assert main(list(argv) + ["--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["result"]


def _assert_witnesses(g, result):
    from blocklex import induced_edges

    for m, (w, v) in enumerate(zip(result["witnesses"], result["values"])):
        assert len(w) == m
        assert induced_edges(g, VertexSet.from_ids(g.n, w)) == v


def test_cli_witness_profiles_at_the_cap(capsys):
    """n = 24 and 20 through the CLI: the cycle against its closed forms,
    the torus and the Petersen prism against branch and bound."""
    from blocklex import parse_graph_spec

    c24 = _cli_json(capsys, "profile", "C24", "--witnesses")
    assert c24["values"] == [0] + list(range(23)) + [24]
    _assert_witnesses(cycle(24), c24)
    theta = _cli_json(capsys, "profile", "C24", "--theta", "--witnesses")
    assert theta["values"] == [0] + [2] * 23 + [0]
    for spec in ("C4xC6", "petersenxK2"):
        g = parse_graph_spec(spec)
        full = _cli_json(capsys, "profile", spec, "--witnesses")
        bnb = _cli_json(capsys, "profile", spec, "--witnesses", "--strategy", "bnb")
        assert full["values"] == bnb["values"]
        _assert_witnesses(g, full)


def test_profile_c24_peak_rss_under_200mb():
    """The n = 24 DP streams rows of 2^16 int16 values; the int32 table
    and int64 index arrays of its first version peaked near 450 MB."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "blocklex.cli", "profile", "C24"],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_maxrss < 200 * 1024  # KiB on Linux


# -- disjoint unions -----------------------------------------------------------


def _routed_profile(g, maximize, with_witnesses=True):
    from blocklex import solver

    solver.clear_caches()
    prof = (exact_profile if maximize else theta_profile)(g, with_witnesses=with_witnesses)
    wits = None if prof.witnesses is None else list(prof.witnesses)
    return list(prof.i_values), wits


@st.composite
def _graphs_of_parts(draw):
    """At most 14 vertices in parts with random edges inside each.  The
    parts are id intervals, or shuffled so that they interleave; a part of
    one vertex is an isolated vertex."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=7))
    while sum(sizes) > 14:
        sizes.pop()
    n = sum(sizes)
    ids = draw(st.permutations(range(n))) if draw(st.booleans()) else list(range(n))
    edges, start = [], 0
    for k in sizes:
        part = ids[start : start + k]
        pairs = [(u, v) for i, u in enumerate(part) for v in part[i + 1 :]]
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges += [e for e, kept in zip(pairs, keep) if kept]
        start += k
    return Graph(n, edges)


@settings(max_examples=80, deadline=None)
@given(_graphs_of_parts())
def test_profiles_of_split_graphs_equal_the_table_dp(g):
    for maximize in (True, False):
        for with_witnesses in (False, True):
            got = _routed_profile(g, maximize, with_witnesses)
            assert got == _table_profile(g, maximize, with_witnesses)


@pytest.mark.parametrize("n", [22, 23, 24])
def test_union_profiles_equal_the_streamed_dp(n):
    """Seeded unions of three parts, one of them an isolated vertex."""
    from blocklex import solver

    rng = np.random.default_rng(300 + n)
    a = int(rng.integers(4, n - 4))
    edges = [
        (u, v)
        for lo, hi in ((0, a), (a, n - 1))
        for u in range(lo, hi)
        for v in range(u + 1, hi)
        if v == u + 1 or rng.random() < 0.3
    ]
    g = Graph(n, edges)
    assert solver._split_ends(g.adjacency_bitmasks()) == [a, n - 1, n]
    for maximize in (True, False):
        assert _routed_profile(g, maximize) == _streamed_profile(g, maximize), (n, maximize)


def _record_graphs(monkeypatch):
    """The sizes of the graphs the solver builds from now on, checked or
    not."""
    from blocklex import solver

    built = []

    def graph(n, *args, **kw):
        built.append(n)
        return Graph(n, *args, **kw)

    def unchecked(n, *args, **kw):
        built.append(n)
        return Graph._unchecked(n, *args, **kw)

    graph._unchecked = unchecked
    monkeypatch.setattr(solver, "Graph", graph)
    return built


def test_interleaved_parts_take_the_table_dp(monkeypatch):
    """Two paths on the even and the odd ids: no id interval is closed, so
    no part graph is built."""
    g = Graph(6, [(0, 2), (2, 4), (1, 3), (3, 5)])
    built = _record_graphs(monkeypatch)
    for maximize in (True, False):
        assert _routed_profile(g, maximize) == _table_profile(g, maximize)
    assert built == []


def test_connected_graphs_build_no_part_graph(monkeypatch):
    built = _record_graphs(monkeypatch)
    for g in (petersen(), cycle(22), graph_power(clique(2), 4)):
        _routed_profile(g, True)
        _routed_profile(g, False)
    assert built == []


def test_a_union_builds_no_part_graph(monkeypatch):
    """Parts are read off the union's adjacency bitmasks: no graph is
    built for them, and only the union enters the cache."""
    from blocklex import solver

    g = disjoint_union([cycle(5), path(4), clique(3)])
    built = _record_graphs(monkeypatch)
    for maximize in (True, False):
        assert _routed_profile(g, maximize) == _table_profile(g, maximize)
        assert built == []
        assert {key[2] for key in solver._PROFILE_CACHE} == {g.digest}


def test_equal_parts_are_profiled_once_and_only_the_union_is_cached(monkeypatch):
    """One DP per distinct part, told apart by its bitmasks, not its size
    (P4 and K4); the cache holds the union alone."""
    from blocklex import solver

    dp_sizes = []
    dp = solver._dp_subset_values

    def counting_dp(adj, n, mode):
        dp_sizes.append(n)
        return dp(adj, n, mode)

    monkeypatch.setattr(solver, "_dp_subset_values", counting_dp)
    k5 = clique(5)
    g = disjoint_union([k5, k5])
    solver.clear_caches()
    prof = exact_profile(g)
    assert dp_sizes == [5]
    assert set(solver._PROFILE_CACHE) == {("induced_max", "full", g.digest)}
    assert prof.i_values == (0, 0, 1, 3, 6, 10, 10, 11, 13, 16, 20)
    assert prof.strategy == "full" and prof.witnesses[6] == (0, 1, 2, 3, 4, 5)
    g = disjoint_union([k5, path(4), k5, clique(4), path(4)])
    want = _table_profile(g, True)
    dp_sizes.clear()
    assert _routed_profile(g, True) == want
    assert dp_sizes == [5, 4, 4]
    assert set(solver._PROFILE_CACHE) == {("induced_max", "full", g.digest)}


def test_budget_out_inside_a_union_caches_nothing(monkeypatch):
    """A budget that runs out at any poll, in either part's DP or
    reduction, raises BudgetExceeded and leaves the cache empty."""
    from blocklex import solver

    g = disjoint_union([clique(5), cycle(12)])

    for profile in (exact_profile, theta_profile):
        polls = []
        monkeypatch.setattr(Budget, "check", _counting_check(None, polls))
        solver.clear_caches()
        profile(g)
        assert {key[2] for key in solver._PROFILE_CACHE} == {g.digest}
        for limit in range(len(polls)):
            monkeypatch.setattr(Budget, "check", _counting_check(limit, []))
            solver.clear_caches()
            with pytest.raises(BudgetExceeded, match="budget exceeded"):
                profile(g)
            assert solver._PROFILE_CACHE == {}


def _connected_graph(n, rng):
    """A path on 0..n-1 with seeded random chords."""
    chords = [(u, v) for u in range(n) for v in range(u + 2, n) if rng.random() < 0.3]
    return Graph(n, [(u, u + 1) for u in range(n - 1)] + chords)


def _union_cases():
    """Seeded unions: repeated parts, isolated vertices, parts past
    SMALL_MAX_N, P4 beside K4, and a part of STREAM_MIN_N vertices."""
    from blocklex.solver import SMALL_MAX_N, STREAM_MIN_N

    rng = np.random.default_rng(25)
    dot, k4, p4 = Graph(1, []), clique(4), path(4)
    big = _connected_graph(SMALL_MAX_N + 1, rng)
    yield disjoint_union([p4, k4])
    yield disjoint_union([k4, p4, k4, dot, p4, dot, dot])
    yield disjoint_union([big, dot, big])
    yield disjoint_union([cycle(STREAM_MIN_N), clique(2)])
    for _ in range(4):
        parts = [_connected_graph(int(rng.integers(1, 6)), rng) for _ in range(3)]
        picks = rng.integers(0, 3, int(rng.integers(2, 5))).tolist()
        yield disjoint_union([parts[i] for i in picks] + [dot] * int(rng.integers(0, 3)))


def test_union_profiles_equal_the_whole_table_dp():
    """Values and smallest witnesses in both kinds equal the subset DP on
    the whole union's table."""
    from blocklex import solver

    for g in _union_cases():
        assert len(solver._split_ends(g.adjacency_bitmasks())) > 1
        for maximize in (True, False):
            assert _routed_profile(g, maximize) == _table_profile(g, maximize), g.n


def test_bnb_profiles_a_union_as_a_whole(monkeypatch):
    """Branch and bound keeps its own search and witness order."""
    from blocklex import solver

    g = disjoint_union([cycle(5), path(4), clique(3)])
    built = _record_graphs(monkeypatch)
    solver.clear_caches()
    prof = exact_profile(g, "bnb")
    values, wits = solver._bnb_profile(g)
    assert prof.i_values == tuple(values) and prof.witnesses == tuple(wits)
    assert built == []
    assert prof.i_values == exact_profile(g).i_values


# -- the profile cache --------------------------------------------------------


def test_budget_cut_profile_is_not_cached():
    from blocklex.solver import _PROFILE_CACHE, clear_caches

    g = graph_power(clique(2), 4)
    clear_caches()
    for profile in (exact_profile, theta_profile, lambda g: exact_profile(g, "bnb")):
        with Budget(0.0), pytest.raises(BudgetExceeded):
            profile(g)
    assert _PROFILE_CACHE == {}
    exact_profile(g)
    assert len(_PROFILE_CACHE) == 1


def test_cache_answers_witness_requests_only_with_witnesses():
    from blocklex.solver import clear_caches

    g = petersen()
    clear_caches()
    bare = exact_profile(g, with_witnesses=False)
    assert bare.witnesses is None
    full = exact_profile(g)
    assert full.witnesses is not None
    clear_caches()
    assert exact_profile(g) == full
    assert exact_profile(g, with_witnesses=False) == bare
    clear_caches()
    theta_bare = theta_profile(g, with_witnesses=False)
    theta_full = theta_profile(g)
    assert theta_bare.witnesses is None and theta_full.witnesses is not None
    assert theta_profile(g, with_witnesses=False) == theta_bare
    assert exact_profile(g, "bnb", with_witnesses=False).witnesses is None
    assert exact_profile(g, "bnb").witnesses is not None


def test_witness_less_hits_return_the_stored_profile():
    from blocklex.solver import clear_caches

    g = petersen()
    clear_caches()
    bare = exact_profile(g, with_witnesses=False)
    assert exact_profile(g, with_witnesses=False) is bare
    assert theta_profile(g, with_witnesses=False) is theta_profile(g, with_witnesses=False)


def test_clear_caches_empties_both_caches():
    from blocklex.solver import _FACTOR_CACHE, _PROFILE_CACHE, clear_caches

    factor_profile_and_order(cycle(5))
    theta_profile(cycle(6))
    assert _PROFILE_CACHE and _FACTOR_CACHE
    clear_caches()
    assert _PROFILE_CACHE == {} and _FACTOR_CACHE == {}


def test_clear_caches_empties_every_module_memo():
    """Every command starts as cold as a fresh process: after a union
    profile, a product profile and a certificate, `clear_caches` leaves no
    module-level dict of any blocklex module filled.  So every such dict
    is a memo these calls fill, and `clear_caches` empties it."""
    import importlib
    import pkgutil

    import blocklex
    from blocklex import certify, parse_graph_spec, solver

    modules = [blocklex] + [
        importlib.import_module(f"blocklex.{m.name}")
        for m in pkgutil.iter_modules(blocklex.__path__)
    ]

    def memos():
        return {
            f"{m.__name__}.{name}": len(value)
            for m in modules
            for name, value in vars(m).items()
            if isinstance(value, dict) and not name.startswith("__")
        }

    exact_profile(parse_graph_spec("union(K3,C5,P8,C4)"))
    exact_profile(parse_graph_spec("K3xC4xP3"), with_witnesses=False)
    certify([clique(2), cycle(4), clique(3)], "standard")
    filled = memos()
    assert "blocklex.solver._PROFILE_CACHE" in filled and all(filled.values())
    solver.clear_caches()
    assert set(memos().values()) == {0}


def test_every_exported_name_resolves():
    """No module's `__all__` names a helper that is gone."""
    import importlib
    import pkgutil

    import blocklex

    modules = [blocklex] + [
        importlib.import_module(f"blocklex.{m.name}")
        for m in pkgutil.iter_modules(blocklex.__path__)
    ]
    stale = [
        f"{m.__name__}.{name}"
        for m in modules
        for name in getattr(m, "__all__", ())
        if not hasattr(m, name)
    ]
    assert stale == []
    assert sum(len(getattr(m, "__all__", ())) for m in modules) > 100


def test_cached_profile_does_not_hide_an_expired_cli_budget(capsys):
    from blocklex.cli import main

    assert main(["profile", "K2^4"]) == 0
    assert main(["profile", "K2^4", "--budget", "0.0001"]) == 3
    assert capsys.readouterr().out.endswith("# incomplete: budget exceeded\n")


# -- the profile rule: products from their factors ------------------------------

# the product profiles of the sweep benchmark and its 24-vertex clique products
SWEEP_PRODUCTS = (
    "C3xC7", "K3xC7", "P3xC7", "K3xP7", "P3xP7", "C3xP7",
    "C4xC5", "K4xC5", "P4xC5", "petersenxK2", "K4xP5", "P5xC4", "K2xC10", "P2xP10",
    "C4xC4", "K2xC8", "K2xP8", "P4xC4", "P2xC8", "P4xP4",
    "K2^3xK3", "K2xK3xK4", "K4xK6", "K3xK8", "K2xK12",
)
# three- and four-factor products whose lexicographic order misses the bound
LEX_MISSES = ("P3xP3xK2", "K2xK2xP4", "K2xP3xC3", "K2^3xP3", "K2xP3xK2xK2")


def _path_clique_products(max_n=20):
    """The products of `explore path_clique`, P_a^i x K_b^j with two or
    more factors and at most max_n vertices, by name."""
    keys = {
        (a if i else 0, i, b if j else 0, j)
        for a in range(2, max_n + 1)
        for b in range(2, max_n + 1)
        for i in range(5)
        for j in range(5)
        if i + j >= 2 and a**i * b**j <= max_n
    }
    return {
        f"P{a}^{i} x K{b}^{j}": cartesian_product(
            [path(a) for _ in range(i)] + [clique(b) for _ in range(j)]
        )
        for a, i, b, j in sorted(keys)
    }


def _rule_and_dp(g):
    from blocklex import solver

    solver.clear_caches()
    rule = exact_profile(g, with_witnesses=False)
    solver.clear_caches()
    return rule, exact_profile(g, "full", with_witnesses=False)


def test_profile_rule_equals_the_subset_dp():
    """On every product of the benchmark and the path-clique explorer the
    rule gives the DP's values: two factors from the bound, more where the
    lexicographic or the standard block-lex order meets it, and by an
    exact engine where both miss."""
    from blocklex import parse_graph_spec

    graphs = {s: parse_graph_spec(s) for s in SWEEP_PRODUCTS + LEX_MISSES}
    graphs.update(_path_clique_products())
    assert len(graphs) == len(SWEEP_PRODUCTS) + len(LEX_MISSES) + 50
    by_dp = set()
    for name, g in graphs.items():
        rule, dp = _rule_and_dp(g)
        assert rule.i_values == dp.i_values, name
        assert rule.witnesses is None and dp.strategy == "full"
        assert rule.strategy in ("sandwich", "slab", "full")
        if rule.strategy != "sandwich":
            by_dp.add(name)
    # the standard block-lex order meets the bound on every lex miss
    assert by_dp == set()


def test_full_requests_run_the_dp_after_a_rule_answer(monkeypatch):
    from blocklex import parse_graph_spec, solver

    calls = []
    dp = solver._dp_subset_values
    monkeypatch.setattr(
        solver, "_dp_subset_values", lambda adj, n, mode: calls.append(n) or dp(adj, n, mode)
    )
    for spec in ("P3xC7", "K2xK3xK3"):
        g = parse_graph_spec(spec)
        solver.clear_caches()
        rule = exact_profile(g, with_witnesses=False)
        assert rule.strategy == "sandwich" and g.n not in calls
        assert ("induced_max", "full", g.digest) not in solver._PROFILE_CACHE
        assert exact_profile(g, with_witnesses=False) is rule  # cached
        full = exact_profile(g, "full", with_witnesses=False)
        assert full.strategy == "full" and calls[-1] == g.n
        assert full.i_values == rule.i_values


def test_a_bound_one_edge_high_falls_back_to_the_dp(monkeypatch):
    """On three factors the bound is trusted only where an order's prefix
    counts meet it, so an overstated bound is never returned: the slab DP
    decides instead."""
    from blocklex import parse_graph_spec, solver, staircase

    bound = staircase.sandwich_bound
    for spec in ("K2xK3xK4", "C4xK2xK2"):
        g = parse_graph_spec(spec)
        truth = _rule_and_dp(g)[1].i_values
        for m in (1, g.n // 2, g.n - 1):

            def high(profiles, lower=None, m=m):
                out = bound(profiles, lower).copy()
                out[m] += 1
                return out

            monkeypatch.setattr(staircase, "sandwich_bound", high)
            solver.clear_caches()
            prof = exact_profile(g, with_witnesses=False)
            assert prof.strategy == "slab" and prof.i_values == truth, (spec, m)
            monkeypatch.setattr(staircase, "sandwich_bound", bound)


def test_products_with_an_unproven_factor_take_the_dp(monkeypatch, non_nested_7):
    """A factor without nested solutions, or whose chain search stops at
    its node cap, sends the rule to the DP."""
    from blocklex import solver

    g = cartesian_product([non_nested_7, clique(2)])
    rule, dp = _rule_and_dp(g)
    assert rule.strategy == "full" and rule.i_values == dp.i_values
    search = solver.find_nested_chain
    monkeypatch.setattr(
        solver, "find_nested_chain", lambda g, prof, **kw: search(g, prof, node_cap=3)
    )
    g = cartesian_product([petersen(), clique(2)])
    rule, dp = _rule_and_dp(g)
    assert rule.strategy == "full" and rule.i_values == dp.i_values


def test_witness_and_theta_requests_take_the_dp():
    from blocklex import solver

    g = cartesian_product([cycle(4), cycle(5)])
    solver.clear_caches()
    prof = exact_profile(g)
    assert prof.strategy == "full" and prof.witnesses is not None
    assert theta_profile(g, with_witnesses=False).strategy == "full"
    assert all(key[1] == "full" for key in solver._PROFILE_CACHE)


def test_budget_out_inside_the_rule_raises_and_caches_nothing(monkeypatch):
    """A deadline at any one poll of the rule raises BudgetExceeded, never
    a fallback to the DP, and leaves no profile of the product cached."""
    from blocklex import solver

    def counting_check(at, polls):
        def check():
            polls.append(None)
            if len(polls) == at:
                raise BudgetExceeded("budget exceeded")

        return staticmethod(check)

    for g in (
        cartesian_product([path(3), cycle(7)]),
        cartesian_product([clique(2), clique(3), clique(4)]),
    ):
        polls = []
        monkeypatch.setattr(Budget, "check", counting_check(None, polls))
        solver.clear_caches()
        assert exact_profile(g, with_witnesses=False).strategy == "sandwich"
        for at in range(1, len(polls) + 1):
            monkeypatch.setattr(Budget, "check", counting_check(at, []))
            solver.clear_caches()
            with pytest.raises(BudgetExceeded, match="budget exceeded"):
                exact_profile(g, with_witnesses=False)
            assert all(key[2] != g.digest for key in solver._PROFILE_CACHE)


def test_rule_profiles_products_past_the_dp_cap(capsys):
    """C10xC10 and petersen^2 from their factors, as the downset oracle
    gives them; K2^12 where lexicographic order meets the bound (Harper)."""
    from blocklex import lex_order, parse_graph_spec

    for spec in ("C10xC10", "petersen^2"):
        rule = _cli_json(capsys, "profile", spec)
        comp = _cli_json(capsys, "profile", spec, "--strategy", "compressed")
        assert rule["values"] == comp["values"] and rule["delta"] == comp["delta"]
        assert (rule["engine"], comp["engine"]) == ("sandwich", "compressed")
    g = parse_graph_spec("K2^12")
    prof = exact_profile(g, with_witnesses=False)
    orders = [TotalOrder.identity(2)] * 12
    assert prof.strategy == "sandwich"
    assert list(prof.i_values) == prefix_edge_counts(g, lex_order(g, orders)).tolist()


def test_a_product_no_engine_takes_is_refused_by_its_size(capsys):
    """P4^4: no order the profile rule tries meets the bound, and no exact
    engine takes 256 vertices on four factors.  `profile` names the
    product; `order --verify` keeps the message of `check_prefix_counts`,
    which certificates and explorer reports copy."""
    from blocklex.cli import main

    engines = (
        "the subset DP takes up to 24 vertices and the slab DP products of up to three factors\n"
    )
    assert main(["profile", "P4^4"]) == 3
    assert capsys.readouterr() == (
        "",
        "error: no exact engine profiles the product of 256 vertices and 4 factors: "
        "no order the profile rule tries meets the sandwich bound, " + engines,
    )
    assert main(["order", "P4^4", "--lex", "--verify"]) == 3
    assert capsys.readouterr() == (
        "",
        "error: the order misses the sandwich bound on 256 vertices and 4 factors: " + engines,
    )


# -- one order rule behind `profile` and `order --verify` -----------------------


def _rule_pool():
    """The products of at most FULL_ENUM_CAP vertices of the sweep, the lex
    misses and the path-clique explorer, by name."""
    from blocklex import FULL_ENUM_CAP, parse_graph_spec

    graphs = {s: parse_graph_spec(s) for s in SWEEP_PRODUCTS + LEX_MISSES}
    graphs.update(_path_clique_products())
    return {name: g for name, g in graphs.items() if g.n <= FULL_ENUM_CAP}


def test_lex_misses_miss_the_bound():
    """The block-lex candidate is what answers LEX_MISSES by the bound."""
    from blocklex import lex_order, parse_graph_spec
    from blocklex.solver import prefix_bound

    for spec in LEX_MISSES:
        g = parse_graph_spec(spec)
        orders = [factor_profile_and_order(f)[1] for f in g.factors]
        prefix = prefix_edge_counts(g, lex_order(g, orders))
        assert not np.array_equal(prefix, prefix_bound(g.factors, prefix)), spec


def test_order_rule_verdicts_equal_the_subset_dp():
    """On every small product of the pool, the rule's verdict and first
    failing size for the lexicographic and standard block-lex orders and
    their reverses are those of a comparison with the subset DP."""
    from blocklex import lex_order, reverse_order, solver, standard_block_lex_order
    from blocklex.solver import check_order

    refuted = 0
    for name, g in _rule_pool().items():
        solver.clear_caches()
        dp = exact_profile(g, "full", with_witnesses=False)
        lex = lex_order(g, [factor_profile_and_order(f)[1] for f in g.factors])
        sbl = standard_block_lex_order(g)[0]
        for order in (lex, sbl, reverse_order(lex), reverse_order(sbl)):
            used, ok, bad_m, values = check_order(g, order)
            assert (ok, bad_m) == verify_order_optimal(g, order, dp), name
            assert values == dp.i_values and used in ("sandwich", "slab", "full"), name
            refuted += not ok
    assert refuted


@pytest.mark.parametrize(
    "spec, block, engine",
    [
        ("C4xC5", (0, 0), "sandwich"),
        ("K2xK3xK4", (0, 0, 0), "slab"),
        ("K2^3xK3", (0, 0, 0, 0), "full"),
    ],
)
def test_a_block_lex_order_with_one_block_reversed_is_refuted(spec, block, engine):
    """Negative control of the order rule: the standard collection with
    one block's domination permutation reversed still passes the
    structural checks, and its block-lex order, which the subset DP shows
    is not optimal, is refuted at the DP's first failing size, by each
    exact engine in turn."""
    from blocklex import parse_graph_spec, solver
    from blocklex.blockgeom import (
        DominationCollection,
        block_lex_prefix_counts,
        standard_collection,
    )
    from blocklex.solver import check_prefix_counts

    g = parse_graph_spec(spec)
    solver.clear_caches()
    dc = standard_collection(g.factors)
    perms = dict(dc.block_perms)
    perms[block] = perms[block][::-1]
    reversed_block = DominationCollection(dc.partitions, perms)
    assert reversed_block.validate(g, check_block_optimality=False)[0]
    prefix = block_lex_prefix_counts(g, reversed_block)
    dp = exact_profile(g, "full", with_witnesses=False)
    dp_fails = np.flatnonzero(prefix != dp.values_array())
    assert dp_fails.size
    assert check_prefix_counts(g, prefix) == (engine, False, int(dp_fails[0]), dp.i_values)


def test_order_verify_reports_equal_the_subset_dp(capsys):
    """`order --verify` with no strategy gives the verdict and first failing
    size of `--strategy full`, on the named products of the pool."""
    from blocklex.cli import main

    for spec in SWEEP_PRODUCTS + LEX_MISSES:
        for flags in (("--lex",), ("--sbl",), ("--lex", "--reverse")):
            argv = ("order", spec, *flags, "--verify", "--format", "json")
            reports = []
            for strategy in ((), ("--strategy", "full")):
                code = main([*argv, *strategy])
                result = json.loads(capsys.readouterr().out)["result"]
                assert code == (0 if result["verified_optimal"] else 2)
                reports.append((result["verified_optimal"], result["first_failing_m"]))
            assert reports[0] == reports[1], argv


def test_two_factor_profiles_take_no_prefix_counts(capsys, monkeypatch):
    """On two factors the rule's answer is U under "sandwich" whatever an
    order's counts, so `profile` takes none; its report is the one the
    rule gives on the lexicographic counts.  Three factors still take
    them."""
    from blocklex import parse_graph_spec, solver, staircase
    from blocklex.solver import check_prefix_counts

    counts = staircase.product_prefix_counts
    calls = []
    monkeypatch.setattr(
        staircase, "product_prefix_counts", lambda *args: calls.append(args) or counts(*args)
    )
    for spec in ("C3xC7", "P4xP5", "petersenxK2", "K4xK6"):
        solver.clear_caches()
        result = _cli_json(capsys, "profile", spec)
        assert calls == [], spec
        g = parse_graph_spec(spec)
        orders = [factor_profile_and_order(f)[1] for f in g.factors]
        used, _, _, values = check_prefix_counts(g, counts(g.factors, orders))
        assert used == "sandwich"
        assert (result["engine"], result["values"]) == (used, list(values))
    solver.clear_caches()
    _cli_json(capsys, "profile", "P3xP3xK2")
    assert calls


def test_block_lex_counts_one_edge_high_are_never_a_profile(monkeypatch):
    """Prefix counts of the block-lex candidate overstated at one size
    miss the bound, so the rule decides by an exact engine instead."""
    from blocklex import blockgeom, parse_graph_spec, solver

    counts = blockgeom.block_lex_prefix_counts
    for spec in LEX_MISSES:
        g = parse_graph_spec(spec)
        truth = _rule_and_dp(g)[1].i_values
        for m in (1, g.n // 2, g.n - 1):

            def high(gs, dc, m=m):
                out = counts(gs, dc).copy()
                out[m] += 1
                return out

            monkeypatch.setattr(blockgeom, "block_lex_prefix_counts", high)
            solver.clear_caches()
            prof = exact_profile(g, with_witnesses=False)
            assert prof.strategy in ("slab", "full") and prof.i_values == truth, (spec, m)
            monkeypatch.setattr(blockgeom, "block_lex_prefix_counts", counts)


def test_a_collection_that_fails_validation_is_never_a_candidate(monkeypatch):
    from blocklex import blockgeom, parse_graph_spec

    monkeypatch.setattr(
        blockgeom.DominationCollection, "validate", lambda self, gs, **kw: (False, ["no"])
    )
    for spec in LEX_MISSES:
        rule, dp = _rule_and_dp(parse_graph_spec(spec))
        assert rule.strategy != "sandwich" and rule.i_values == dp.i_values, spec


def test_rule_profiles_equal_the_downset_oracle(capsys):
    """C6^3 and P4^3, where the lexicographic and block-lex orders both
    miss the bound, are profiled by the slab DP."""
    for spec in ("C6^3", "P4^3"):
        rule = _cli_json(capsys, "profile", spec)
        comp = _cli_json(capsys, "profile", spec, "--strategy", "compressed")
        assert rule["values"] == comp["values"] and rule["delta"] == comp["delta"]
        assert (rule["engine"], comp["engine"]) == ("slab", "compressed")


def test_order_verify_refutes_by_the_slab_dp(capsys):
    from blocklex.cli import main

    for argv, bad_m in ((("C6^3", "--sbl"), 17), (("P4^3", "--lex"), 4)):
        assert main(["order", *argv, "--verify", "--format", "json"]) == 2
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["verified_optimal"] is False and result["first_failing_m"] == bad_m
        assert result["engine"] == "slab"
