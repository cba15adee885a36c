"""Graph constructors, Cartesian products, and the edge functionals."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocklex import (
    Graph,
    VertexSet,
    boundary_edges,
    cartesian_product,
    clique,
    complete_bipartite,
    cycle,
    disjoint_union,
    graph_power,
    induced_edges,
    parse_graph_spec,
    path,
    permute_factors,
    petersen,
    subproduct,
)


def test_petersen_shape():
    g = petersen()
    assert g.n == 10
    assert g.num_edges == 15
    assert g.regular_degree() == 3


def _defining_edges():
    """Each named family next to the validating constructor's graph on
    the family's defining edge list."""
    for n in range(1, 31):
        yield clique(n), Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
        yield path(n), Graph(n, [(i, i + 1) for i in range(n - 1)])
        if n >= 3:
            yield cycle(n), Graph(n, [(i, (i + 1) % n) for i in range(n)])
    for a in range(1, 7):
        for b in range(1, 7):
            edges = [(i, a + j) for i in range(a) for j in range(b)]
            yield complete_bipartite(a, b), Graph(a + b, edges)
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    yield petersen(), Graph(10, edges)


def _same_graph(g, h):
    arrays = g.edge_arrays() + h.edge_arrays()
    return (
        g.n == h.n
        and g.edges() == h.edges()
        and g.digest == h.digest
        and all(a.dtype == np.int64 and not a.flags.writeable for a in arrays)
    )


def test_named_families_equal_their_checked_edge_lists():
    pairs = list(_defining_edges())
    assert len(pairs) == 30 + 30 + 28 + 36 + 1
    for g, h in pairs:
        assert _same_graph(g, h), h
    # negative control: the cycle's edges as listed, not sorted u < v
    n = 7
    listed = np.array([(i, (i + 1) % n) for i in range(n)], dtype=np.int64).T.copy()
    assert not _same_graph(Graph._unchecked(n, listed), cycle(n))


def test_clique_single_vertex():
    g = clique(1)
    assert g.n == 1 and g.num_edges == 0


def test_union_of_cliques():
    g = disjoint_union([clique(5), clique(4)])
    assert g.n == 9
    assert g.num_edges == 16  # 10 + 6


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=5), st.randoms(use_true_random=False))
def test_union_equals_the_checked_graph(sizes, rnd):
    """A union is built from its graphs' sorted edges without the input
    checks; it equals the graph those checks build from the shifted
    edges, digest included, with isolated vertices and edgeless parts."""
    graphs = [
        Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rnd.random() < 0.5])
        for k in sizes
    ]
    edges, off = [], 0
    for g in graphs:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    want = Graph(off, edges)
    got = disjoint_union(graphs)
    assert got == want and got.digest == want.digest
    assert got.adjacency_bitmasks() == want.adjacency_bitmasks()


def test_cycle_requires_three():
    with pytest.raises(ValueError):
        cycle(2)


def test_square_is_four_cycle():
    g = cartesian_product([clique(2), clique(2)])
    assert g.n == 4 and g.num_edges == 4
    assert g.regular_degree() == 2


def test_three_cube():
    g = graph_power(clique(2), 3)
    assert g.n == 8 and g.num_edges == 12
    assert g.regular_degree() == 3


def test_petersen_times_k2_edge_count():
    g = cartesian_product([petersen(), clique(2)])
    assert g.n == 20
    assert g.num_edges == 15 * 2 + 1 * 10


@pytest.mark.parametrize(
    "factors",
    [
        [clique(3), clique(4)],
        [path(3), cycle(5)],
        [petersen(), clique(2)],
    ],
)
def test_product_edge_count_formula(factors):
    g = cartesian_product(factors)
    a, b = factors
    assert g.num_edges == a.num_edges * b.n + b.num_edges * a.n


def test_induced_edges_whole_clique():
    g = clique(3)
    assert induced_edges(g, VertexSet.full(3)) == 3


def test_induced_edges_lex_prefix_cube(cube3):
    assert induced_edges(cube3, VertexSet.from_ids(8, range(4))) == 4


def test_induced_edges_empty(pet):
    assert induced_edges(pet, VertexSet.empty(10)) == 0


def test_induced_edges_two_sets():
    g = path(3)  # 0-1-2
    assert induced_edges(g, [0], [1]) == 1
    assert induced_edges(g, [0], [2]) == 0
    assert induced_edges(g, [0, 1], [1, 2]) == 2


def test_boundary_single_vertex(cube3):
    assert boundary_edges(cube3, [0]) == 3


def test_boundary_full(pet):
    assert boundary_edges(pet, VertexSet.full(10)) == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_regular_degree_identity(data):
    """boundary + 2 * induced = degree * |A| on regular graphs."""
    g = data.draw(
        st.sampled_from(
            [petersen(), cycle(7), clique(5), graph_power(clique(2), 3)]
        )
    )
    ids = data.draw(st.sets(st.integers(0, g.n - 1)))
    a = VertexSet.from_ids(g.n, ids)
    d = g.regular_degree()
    assert boundary_edges(g, a) + 2 * induced_edges(g, a) == d * len(a)


def test_subproduct_single_factor():
    g = cartesian_product([clique(2), clique(3), clique(4)])
    s = subproduct(g, [1])
    assert s.n == 3 and s.num_edges == 3


def test_subproduct_pair():
    g = cartesian_product([clique(2), clique(3), clique(4)])
    s = subproduct(g, [0, 2])
    direct = cartesian_product([clique(2), clique(4)])
    assert s.n == 8
    assert s.edges() == direct.edges()


def test_subproduct_full_set():
    g = cartesian_product([clique(2), clique(3), clique(4)])
    s = subproduct(g, [0, 1, 2])
    assert s.edges() == g.edges()


def test_subproduct_rejects_empty():
    g = cartesian_product([clique(2), clique(3)])
    with pytest.raises(ValueError):
        subproduct(g, [])


def test_permute_factors_identity():
    g = cartesian_product([clique(2), clique(3)])
    h, psi = permute_factors(g, [0, 1])
    assert h.edges() == g.edges()
    assert np.array_equal(psi, np.arange(g.n))


def test_permute_factors_swap_preserves_counts():
    g = cartesian_product([clique(2), clique(3)])
    h, psi = permute_factors(g, [1, 0])
    assert h.factor_shape == (3, 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        ids = rng.choice(g.n, size=rng.integers(0, g.n + 1), replace=False)
        a = VertexSet.from_ids(g.n, ids)
        b = VertexSet.from_ids(h.n, psi[a.mask])
        assert induced_edges(g, a) == induced_edges(h, b)
        assert boundary_edges(g, a) == boundary_edges(h, b)


def test_permute_factors_map_is_the_gathered_coordinates():
    g = cartesian_product([clique(2), path(3), cycle(4), cycle(5)])
    for pi in itertools.permutations(range(4)):
        h, psi = permute_factors(g, pi)
        assert np.array_equal(psi, g.coords()[:, pi] @ h.radix())


def test_permute_equal_factors_same_graph():
    g = graph_power(clique(2), 3)
    for pi in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        h, _ = permute_factors(g, pi)
        assert h.edges() == g.edges()


def test_mixed_radix_coding():
    g = cartesian_product([clique(2), clique(3), clique(4)])
    # factor 0 is the most significant digit
    assert g.vertex_id((1, 0, 0)) == 12
    assert g.vertex_tuple(12) == (1, 0, 0)
    assert g.vertex_id((0, 2, 3)) == 11


def test_graph_json_roundtrip():
    g = cartesian_product([petersen(), clique(2)])
    h = Graph.from_json(g.to_json())
    assert h == g
    assert h.factor_shape == (10, 2)
    assert h.factors[0].edges() == petersen().edges()


def test_graph_json_rejects_fake_factors():
    g = petersen()
    data = g.to_json()
    data["factors"] = [2, 5]
    with pytest.raises(ValueError):
        Graph.from_json(data)


@pytest.mark.parametrize(
    "spec,n,edges",
    [
        ("K5", 5, 10),
        ("P4", 4, 3),
        ("C5", 5, 5),
        ("petersen", 10, 15),
        ("K3,3", 6, 9),
        ("union(K5,K4)", 9, 16),
        ("K2^3", 8, 12),
        ("petersen^2", 100, 300),
        ("petersenxK2", 20, 40),
        ("C5xC4xC3", 60, 180),
    ],
)
def test_spec_grammar(spec, n, edges):
    g = parse_graph_spec(spec)
    assert g.n == n and g.num_edges == edges


@pytest.mark.parametrize(
    "spec, parts",
    [
        ("union(P3^2,K2)", [graph_power(path(3), 2), clique(2)]),
        ("union(K2xK3,C5)", [cartesian_product([clique(2), clique(3)]), cycle(5)]),
        ("union(K3,3,K2)", [complete_bipartite(3, 3), clique(2)]),
        ("union(K2,K3,3)", [clique(2), complete_bipartite(3, 3)]),
    ],
)
def test_union_arguments_are_specs(spec, parts):
    """Powers and products inside a union, and K<a>,<b> among its
    arguments, parse as they do on their own."""
    assert parse_graph_spec(spec).digest == disjoint_union(parts).digest


def test_spec_grammar_rejects_garbage():
    for bad in ["", "Q7", "K5x", "union(K5", "K5^"]:
        with pytest.raises(ValueError):
            parse_graph_spec(bad)


def test_no_loops_or_parallel_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.num_edges == 1


def test_complete_bipartite():
    g = complete_bipartite(3, 3)
    assert g.n == 6 and g.num_edges == 9
    degs = g.degrees()
    assert all(d == 3 for d in degs)


def test_digest_is_the_sha256_of_the_compact_sorted_json():
    import hashlib
    import json

    graphs = [
        clique(1),
        Graph(4, []),
        disjoint_union([clique(3), path(2)]),
        complete_bipartite(3, 3),
        cartesian_product([petersen(), clique(2)]),
        cartesian_product([clique(1), cycle(4)]),
        graph_power(cycle(5), 3),
        parse_graph_spec("K3,3xK2"),
    ]
    for g in graphs:
        payload = json.dumps(g.to_json(), sort_keys=True, separators=(",", ":"))
        assert g.digest == hashlib.sha256(payload.encode()).hexdigest(), g


def test_digests_are_pinned():
    """Certificates and reports carry these digests: the named families,
    a product, a union and a graph with no edges keep them."""
    pinned = [
        (clique(5), "117f7fbbece0a2e73ef54c9c3164d50af1d84ae19dc142ecc64f3e4fbe3704c0"),
        (path(6), "bb45046e13efd6180cba12ca064b52adf0d8c995f3c865077562312f231ddb7d"),
        (cycle(7), "c7c27ac9932bc666319af45943787fcae63725b1299959d5f8b548dce80925ba"),
        (
            complete_bipartite(2, 3),
            "70480fb4deaf2219c97c11417597a1032c87ea8b51d11244ebc0826b88f1c528",
        ),
        (petersen(), "6e59c2165cb2020c96ba061588a8314b8033de2ddc316ad690e86d05808cd05e"),
        (
            cartesian_product([cycle(4), path(3)]),
            "470b93d3b6ea284d46c81d5ca5647d4fe518dc9d61c095e5391fadc993cef890",
        ),
        (
            disjoint_union([cycle(3), path(2)]),
            "1830ade45befbd87705f61b37a1dd16cde30c9dbb364bb214d660529c703df9e",
        ),
        (Graph(4, []), "f035ac23eff5de4f997813d6be7d093ec82bf40ca736c82f986ce14dac77ecb7"),
    ]
    for g, digest in pinned:
        assert g.digest == digest, g


def test_adjacency_bitmasks_are_built_once_from_the_edges():
    graphs = [clique(1), clique(5), path(4), cycle(5), petersen(), complete_bipartite(3, 3)]
    graphs += [
        Graph(5, [(0, 4), (1, 3)]),
        disjoint_union([clique(3), path(4)]),
        graph_power(clique(2), 4),
        parse_graph_spec("K3,3xK2"),
        parse_graph_spec("P3xC7"),
    ]
    for g in graphs:
        adj = g.adjacency_bitmasks()
        assert adj == tuple(sum(1 << int(w) for w in nb) for nb in g.neighbors), g
        assert g.adjacency_bitmasks() is adj


def test_neighbours_are_built_on_first_use_from_the_edges():
    """Sorted read-only neighbour lists, built once, and degrees by count,
    against a per-edge loop."""
    graphs = [clique(1), Graph(4, []), Graph(5, [(4, 0), (3, 1), (0, 3)]), petersen()]
    graphs += [disjoint_union([clique(3), path(4)]), parse_graph_spec("P3xC7")]
    for g in graphs:
        assert g._neighbors is None
        want = [[] for _ in range(g.n)]
        for u, v in g.edges():
            want[u].append(v)
            want[v].append(u)
        nbrs = g.neighbors
        assert [nb.tolist() for nb in nbrs] == [sorted(w) for w in want], g
        assert all(not nb.flags.writeable for nb in nbrs)
        assert g.neighbors is nbrs
        assert g.degrees().tolist() == [len(w) for w in want]
        assert all(g.has_edge(u, v) and g.has_edge(v, u) for u, v in g.edges())


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_product_edges_equal_the_coordinate_definition(sizes, data):
    """Broadcast products of seeded random factors, one-vertex and
    edgeless ones included, have exactly the edges of the definition (one
    coordinate differs, by a factor edge) as a sorted simple edge list,
    the digest of a graph built from that list, and their factors."""
    import itertools

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    factors = [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        for n in sizes
    ]
    g = cartesian_product(factors)
    tuples = list(itertools.product(*(range(n) for n in sizes)))
    want = [
        (a, b)
        for a, x in enumerate(tuples)
        for b, y in enumerate(tuples)
        if a < b
        and sum(p != q for p, q in zip(x, y)) == 1
        and any(p != q and f.has_edge(p, q) for f, p, q in zip(factors, x, y))
    ]
    assert g.edges() == want
    assert g.digest == Graph(g.n, want, factors=factors).digest
    assert g.factors == tuple(factors)


def test_integers_take_sequences_and_refuse_strings_and_mappings():
    """`integers` reads edges, orders, boundaries and permutations from
    JSON: a string or an object is no list, though both iterate."""
    from blocklex.graphs import integers

    for values in ([1, 2], (1, 2), range(1, 3), np.array([1, 2], dtype=np.int32)):
        assert integers(values, "ids") == [1, 2]
    for values in ("12", b"12", {1: 2}, {}, 5, None):
        with pytest.raises(ValueError, match=r"^ids must be a list of integers, got "):
            integers(values, "ids")


def test_split_integers_reads_what_int_reads():
    """Each comma-separated piece is an integer exactly when `int` reads
    it (a piece past its digit limit is not); the first piece that is not
    names the flag in a UsageError."""
    from blocklex import UsageError
    from blocklex.graphs import split_integers

    pieces = ["1", " 2 ", "+3", "-4", "1_0", "\u0663", "", " ", "x", "1.0", "1__0", "_1", "1_",
              "+-1", "0x1", "1e2", "\u00b2", "--1", "+", "\u00a05\u00a0", "1" * 5000]
    for t in pieces:
        try:
            want = [int(t)]
        except ValueError:
            want = None
        if want is None:
            with pytest.raises(UsageError) as e:
                split_integers(f"1,{t},2", "--once")
            assert str(e.value) == f"--once must be integers, got {t!r}"
        else:
            assert split_integers(f"1,{t},2", "--once") == [1] + want + [2], t
