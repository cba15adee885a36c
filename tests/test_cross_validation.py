"""Independent cross-checks between implementations that should agree:
reference (slow, obviously-correct) computations against the optimized
paths, and classical counting identities against the enumerators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklex import (
    Graph,
    OrderFamily,
    TotalOrder,
    VertexSet,
    boundary_edges,
    cartesian_product,
    clique,
    compress_once,
    count_downsets,
    cycle,
    exact_profile,
    factor_profile_and_order,
    graph_power,
    induced_edges,
    is_consistent,
    lex_order,
    path,
    petersen,
    subproduct,
    theta_profile,
)
from blocklex.blockgeom import block_lex_order, standard_collection
from blocklex.compression import _ensure_family


def random_graph(rng, n, p=0.5):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def test_profiles_against_literal_enumeration():
    """The subset DP against literal itertools enumeration."""
    rng = np.random.default_rng(99)
    for _ in range(8):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n)
        prof = exact_profile(g, "full", with_witnesses=False)
        theta = theta_profile(g, with_witnesses=False)
        for m in range(n + 1):
            best_i = max(
                induced_edges(g, VertexSet.from_ids(n, s))
                for s in itertools.combinations(range(n), m)
            )
            best_t = min(
                boundary_edges(g, VertexSet.from_ids(n, s))
                for s in itertools.combinations(range(n), m)
            )
            assert prof.value(m) == best_i
            assert theta.value(m) == best_t


def test_theta_witnesses_achieve_minima():
    g = petersen()
    theta = theta_profile(g)
    for m in range(g.n + 1):
        w = theta.witness(m)
        assert len(w) == m
        assert boundary_edges(g, VertexSet.from_ids(g.n, w)) == theta.value(m)


def test_compress_once_against_reference():
    """The vectorized compression against a literal per-cut rebuild."""
    g = cartesian_product([clique(2), cycle(5), clique(3)])
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    fam = OrderFamily.lexicographic(g, orders)
    coords = g.coords()
    rng = np.random.default_rng(31)
    subsets = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]
    for _ in range(40):
        ids = rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False)
        a = VertexSet.from_ids(g.n, ids)
        s = subsets[rng.integers(len(subsets))]
        fast = compress_once(g, a, s, fam)
        # reference: group vertices by the complement coordinates, sort each
        # cut by the subproduct order, refill prefixes of the same sizes
        sub, sub_order = fam.order_for(s)
        comp = [i for i in range(3) if i not in s]
        cuts: dict[tuple, list[int]] = {}
        for v in range(g.n):
            cuts.setdefault(tuple(coords[v, comp]), []).append(v)
        want = set()
        sub_radix = np.ones(len(s), dtype=np.int64)
        for i in range(len(s) - 2, -1, -1):
            sub_radix[i] = sub_radix[i + 1] * g.factor_shape[s[i + 1]]
        for cut in cuts.values():
            members = [v for v in cut if v in a]
            ranked = sorted(
                cut, key=lambda v: sub_order.rank(int(coords[v, s] @ sub_radix))
            )
            want.update(ranked[: len(members)])
        assert set(fast.ids().tolist()) == want


def test_consistency_against_pairwise_reference():
    g = cartesian_product([clique(2), clique(3), clique(2)])
    orders = [TotalOrder.identity(f.n) for f in g.factors]
    big = lex_order(g, orders)
    coords = g.coords()
    rng = np.random.default_rng(13)
    for s in [(0,), (1,), (0, 2), (1, 2)]:
        sub = subproduct(g, s)
        for trial in range(3):
            perm = rng.permutation(sub.n) + 1
            small = TotalOrder(perm)
            fast = is_consistent(g, big, small, s)
            slow = True
            comp = [i for i in range(3) if i not in s]
            radix = np.ones(len(s), dtype=np.int64)
            for i in range(len(s) - 2, -1, -1):
                radix[i] = radix[i + 1] * g.factor_shape[s[i + 1]]
            for u in range(g.n):
                for v in range(g.n):
                    if u == v:
                        continue
                    if any(coords[u, c] != coords[v, c] for c in comp):
                        continue
                    if big.rank(u) < big.rank(v):
                        pu = int(coords[u, s] @ radix)
                        pv = int(coords[v, s] @ radix)
                        if small.rank(pu) >= small.rank(pv):
                            slow = False
            assert fast == slow


def test_block_lex_against_comparator_reference():
    """The array construction against a literal two-stage comparator."""
    factors = [petersen(), clique(2)]
    g = cartesian_product(factors)
    dc = standard_collection(factors)
    ok, _ = dc.validate(g)
    assert ok
    fast = block_lex_order(g, dc)
    from blocklex.blockgeom import block_of, start_of

    coords = g.coords()

    def key(v):
        bid = block_of(g, dc, v)
        start = start_of(g, dc, bid)
        start_ranks = tuple(
            dc.partitions[i].order.rank(int(coords[start, i])) for i in range(2)
        )
        perm = dc.perm_for(bid)
        within = tuple(
            dc.partitions[perm[q]].order.rank(int(coords[v, perm[q]]))
            for q in range(2)
        )
        return (start_ranks, within)

    seq = sorted(range(g.n), key=key)
    assert fast == TotalOrder.from_sequence(seq)


@pytest.mark.parametrize("d,expected", [(2, 6), (3, 20), (4, 168)])
def test_downset_counts_are_dedekind_numbers(d, expected):
    """Downsets of the d-fold 2x...x2 box are the order ideals of the
    d-dimensional Boolean lattice, counted by the Dedekind numbers."""
    total = sum(count_downsets((2,) * d, m) for m in range(2**d + 1))
    assert total == expected


def test_downset_counts_plane_partition_formula():
    """Downsets of an a x b x c box against the classical product formula
    for boxed plane partitions."""
    from fractions import Fraction

    for a, b, c in [(2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 4), (4, 5, 6), (6, 6, 6)]:
        total = sum(count_downsets((a, b, c), m) for m in range(a * b * c + 1))
        formula = Fraction(1)
        for i in range(1, a + 1):
            for j in range(1, b + 1):
                for k in range(1, c + 1):
                    formula *= Fraction(i + j + k - 1, i + j + k - 2)
        assert total == int(formula)
    assert count_downsets((6, 6, 6), 108) == 32498972194


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(2, 4), st.data())
def test_downset_profile_2d_matches_brute(n1, n2, data):
    """Staircase DP against literal downset enumeration on random
    two-factor products."""
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    f1 = random_graph(rng, n1, 0.7)
    f2 = random_graph(rng, n2, 0.7)
    g = cartesian_product([f1, f2])
    o1, o2 = TotalOrder.identity(n1), TotalOrder.identity(n2)
    from blocklex import downset_profile, enumerate_compressed

    dp = downset_profile(g, [o1, o2])
    for m in range(g.n + 1):
        best = max(
            induced_edges(g, s) for s in enumerate_compressed(g, [o1, o2], m)
        )
        assert dp[m] == best
