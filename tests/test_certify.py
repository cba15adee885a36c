"""Certification runs, cross-checks, revocation, and the explorer."""

import pytest

from blocklex import (
    Budget,
    Certificate,
    TotalOrder,
    cartesian_product,
    certify,
    certify_domination,
    clique,
    crosscheck,
    cycle,
    disjoint_union,
    explore_conjecture,
    lex_order,
    petersen,
    standard_collection,
    verify_refutation,
)
from blocklex.certify import Hypothesis, matching_reduced_clique


def test_certify_needs_three_factors():
    with pytest.raises(ValueError):
        certify([clique(2), clique(2)])


def test_certify_cube_atomic():
    cert = certify([clique(2)] * 3, "atomic")
    assert cert.status == "certified"
    assert cert.exit_code() == 0
    assert cert.conclusion is not None
    names = [h.name for h in cert.hypotheses]
    assert "regular_domination_collection" in names
    assert sum(1 for n in names if n.startswith("pairwise")) == 3


def test_certificate_requires_all_verified():
    cert = certify([clique(2)] * 3, "atomic")
    with pytest.raises(ValueError):
        Certificate(
            status="certified",
            product=cert.product,
            partitions_digest="x",
            collection_digest="y",
            hypotheses=[
                type(cert.hypotheses[0])("h", "t", False, {}),
            ],
            conclusion="nope",
        )


def test_certify_standard_tori():
    cert = certify([cycle(5), cycle(4), cycle(3)], "standard")
    assert cert.status == "certified", cert.failing


def test_certify_petersen_cubes():
    cert = certify([petersen(), clique(2), clique(2)], "standard")
    assert cert.status == "certified", cert.failing


def test_certify_reuses_equal_pair_transcripts():
    cert = certify([petersen()] * 3, "standard")
    assert cert.status == "certified"
    reused = [h for h in cert.hypotheses if h.detail.get("reused_transcript")]
    assert len(reused) == 2  # three identical pairs, one computed


def test_pair_key_groups_pairs_as_their_json_does():
    """Two pairs share a transcript exactly when their factors and their
    restricted collections' JSON agree: on standard and atomic collections,
    on one whose permutation differs by block, on one whose pairs differ
    only in permutation, and on one whose pairs differ only in where a
    factor's two segments meet."""
    import itertools

    from blocklex import Partition, factor_profile_and_order, uniform_collection
    from blocklex.certify import _digest, _pair_key, resolve_partitions

    products = [
        [petersen()] * 3,
        [cycle(4), cycle(4), clique(2), cycle(4)],
        [clique(2), clique(3), clique(2), clique(3)],
        [cycle(5), cycle(4), cycle(5)],
    ]
    outcomes = set()
    for gs in products:
        std = standard_collection(gs)
        atomic = uniform_collection(resolve_partitions(gs, "atomic"))
        flipped = type(std)(
            std.partitions,
            {b: tuple(reversed(p)) if b[0] else p for b, p in std.block_perms.items()},
        )
        swapped = uniform_collection(std.partitions, (1, 0, *range(2, len(gs))))
        for dc in (std, atomic, flipped, swapped):
            pairs = list(itertools.combinations(range(len(gs)), 2))
            for (a, b), (c, e) in itertools.combinations(pairs, 2):
                try:
                    one, two = dc.restricted((a, b)), dc.restricted((c, e))
                except ValueError:
                    continue
                by_json = _digest(
                    [gs[a].digest, gs[b].digest, one.to_json()]
                ) == _digest([gs[c].digest, gs[e].digest, two.to_json()])
                by_key = _pair_key(gs[a], gs[b], one) == _pair_key(gs[c], gs[e], two)
                assert by_key == by_json
                outcomes.add(by_key)
    assert outcomes == {True, False}
    c4, k3 = cycle(4), clique(3)
    order = factor_profile_and_order(c4)[1]
    early, late = (Partition.from_boundaries(order, [b, 4]) for b in (1, 3))
    up, down = (
        Partition.from_boundaries(TotalOrder.from_sequence(seq), [1, 3])
        for seq in ([0, 1, 2], [2, 1, 0])
    )
    for g, parts in ((c4, [early, late, early]), (k3, [up, down, up])):
        dc = uniform_collection(parts)
        one, two = dc.restricted((0, 1)), dc.restricted((0, 2))
        assert one.to_json() != two.to_json()
        assert _pair_key(g, g, one) != _pair_key(g, g, two)
    one, two = (uniform_collection([up, up], perm) for perm in ((0, 1), (1, 0)))
    assert _pair_key(k3, k3, one) != _pair_key(k3, k3, two)


@pytest.mark.parametrize(
    "spec, style, status, reused, reported",
    [
        ("C4^3", "standard", "certified", ["1_3", "2_3"], 3),
        ("C4^3", "atomic", "certified", ["1_3", "2_3"], 3),
        ("K2xK2xK3xK3", "standard", "certified", ["1_4", "2_3", "2_4"], 6),
        ("K3xK2xK3xK2", "standard", "certified", ["1_4", "3_4"], 6),
        ("K3xK2xK3xK2", "atomic", "hypothesis_failed", [], 1),
        ("C5xC4xC5xC4", "standard", "hypothesis_failed", ["1_4"], 4),
        ("K2xC4xK2xC4", "atomic", "certified", ["1_4", "3_4"], 6),
    ],
)
def test_reused_transcripts_mark_the_pairs_an_earlier_pair_decided(
    spec, style, status, reused, reported
):
    """Products with equal factors: the status, the pairs reported and the
    pairs marked `reused_transcript`, as recorded when every pair was
    decided before the first was reported."""
    from blocklex import parse_graph_spec

    cert = certify(parse_graph_spec(spec), style, crosscheck=False)
    pairs = [h for h in cert.hypotheses if h.name.startswith("pairwise_bl2_optimal_")]
    marked = [h.name[-3:] for h in pairs if h.detail.get("reused_transcript")]
    assert (cert.status, marked, len(pairs)) == (status, reused, reported)


def _pair_calls(monkeypatch, decided=None):
    """The `block_lex_prefix_counts` calls certify makes on factor pairs,
    as their factor counts; past `decided` of them, each raises
    SizeCapExceeded."""
    import importlib

    from blocklex import SizeCapExceeded

    certify_module = importlib.import_module("blocklex.certify")
    real, calls = certify_module.block_lex_prefix_counts, []

    def counting(gs, dc):
        if isinstance(gs, list):
            calls.append(len(gs))
            if decided is not None and len(calls) > decided:
                raise SizeCapExceeded("pair past the cap")
        return real(gs, dc)

    monkeypatch.setattr(certify_module, "block_lex_prefix_counts", counting)
    return calls


def test_certify_stops_at_the_first_failing_pair(monkeypatch, capsys):
    """C4 x C5 x K3 fails at pair (1,2): that pair is the only one decided,
    and the report is the pinned one of `certify_bytes.json`."""
    import hashlib
    import json
    from pathlib import Path

    from blocklex import cli
    from blocklex.solver import clear_caches

    calls = _pair_calls(monkeypatch)
    clear_caches()
    code = cli.main(["certify", "C4xC5xK3", "--partitions", "standard", "--format", "json"])
    out = capsys.readouterr().out
    result = json.loads(out)["result"]
    assert (code, result["status"], calls) == (2, "hypothesis_failed", [2])
    assert result["hypotheses"][-1]["name"] == "pairwise_bl2_optimal_1_2"
    pinned = json.loads(Path(__file__).with_name("certify_bytes.json").read_text())
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert [code, digest] == pinned["standard:C4xC5xK3"]


def test_a_pair_past_a_cap_after_a_failing_pair_is_never_decided(monkeypatch, capsys):
    """With every pair after the first past a cap: a product whose first
    pair fails reports that failure (exit 2), and one whose first pair
    passes could not tell (exit 3), reporting hypotheses (a)-(d) alone."""
    import json

    from blocklex import cli

    calls = _pair_calls(monkeypatch, decided=1)
    cert = certify([cycle(4), cycle(5), clique(3)], "standard")
    assert (cert.status, cert.exit_code(), cert.failing) == (
        "hypothesis_failed", 2, "pairwise_bl2_optimal_1_2"
    )
    assert cert.crosschecks == [] and calls == [2]
    calls.clear()
    code = cli.main(["certify", "C5xC4xC3", "--format", "json"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert (code, result["status"], calls) == (3, "inconclusive", [2, 2])
    assert result["crosschecks"] == [{"note": "pair past the cap"}]
    assert result["hypotheses"][-1]["name"] == "regular_domination_collection"
    assert all(h["verified"] for h in result["hypotheses"])


def test_digests_are_the_sha256_of_the_compact_sorted_json():
    """`_digest` on int lists, the empty one included, and on a collection's
    and partitions' JSON equals the digest of `json.dumps`."""
    import hashlib
    import json

    from blocklex import parse_graph_spec
    from blocklex.certify import _digest, resolve_partitions

    def reference(obj):
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    int_lists = [[], [0], [0, 1, 3, 6], [-2, 7, 10**15]]
    gs = list(parse_graph_spec("petersenxC4xK2").factors)
    jsons = [standard_collection(gs).to_json(), *int_lists]
    for style in ("standard", "atomic"):
        jsons.append([p.to_json() for p in resolve_partitions(gs, style)])
    for obj in jsons:
        assert _digest(obj) == reference(obj), obj


def test_certify_domination_ascending():
    cert = certify_domination([clique(2), clique(3), clique(4)], (0, 1, 2))
    assert cert.status == "certified"


def test_certify_domination_identity_agrees_with_atomic():
    gs = [clique(2)] * 3
    a = certify(gs, "atomic")
    b = certify_domination(gs, (0, 1, 2))
    assert a.status == b.status == "certified"
    pa = {h.name: h.detail.get("optimal") for h in a.hypotheses if "pairwise" in h.name}
    pb = {h.name.replace("lex", "bl2"): h.detail.get("optimal") for h in b.hypotheses}
    assert all(pa.values()) and all(pb.values())


def test_certify_domination_descending_fails():
    cert = certify_domination([clique(2), clique(3), clique(4)], (2, 1, 0))
    assert cert.status == "hypothesis_failed"
    assert cert.exit_code() == 2
    assert cert.conclusion is None
    failing = [h for h in cert.hypotheses if not h.verified]
    assert failing and failing[0].detail["first_failing_m"] is not None


def test_certify_four_factors():
    """Four-factor run: the corner blocks of the two-factor middle
    subproduct carry a nontrivial permutation-equality check."""
    cert = certify([cycle(5), cycle(4), clique(2), cycle(3)], "standard")
    assert cert.status == "certified", cert.failing
    assert sum(1 for h in cert.hypotheses if h.name.startswith("pairwise")) == 6


def test_certify_six_cycle_leading():
    cert = certify([cycle(6), cycle(5), cycle(4)], "standard")
    assert cert.status == "certified", cert.failing
    strategies = {
        h.name: h.detail.get("profile_strategy")
        for h in cert.hypotheses
        if "pairwise" in h.name
    }
    # every pair order meets the sandwich bound, the 30-vertex one included
    assert set(strategies.values()) == {"sandwich"}
    # a failing pair is refuted by the bound too, which is the exact profile
    # of a pair whose factors have nested solutions: lexicographic order
    # with the larger clique outer, on 30 and on 12 vertices
    for gs, bad_m in (
        ([clique(6), clique(5), clique(2)], 6),
        ([clique(4), clique(3), clique(2)], 4),
    ):
        cert = certify(gs, "atomic")
        assert cert.status == "hypothesis_failed"
        detail = cert.hypotheses[-1].detail
        assert cert.failing == cert.hypotheses[-1].name == "pairwise_bl2_optimal_1_2"
        assert (detail["profile_strategy"], detail["first_failing_m"]) == ("sandwich", bad_m)


def test_certify_petersen_square_times_k2_with_crosscheck():
    gs = [petersen(), petersen(), clique(2)]
    cert = certify(gs, "standard")
    assert cert.status == "certified", cert.failing
    assert cert.crosschecks[-1]["agreement"]


def test_certify_irregular_middle_factor_fails():
    u = disjoint_union([clique(5), clique(4)])
    cert = certify([clique(2), u, clique(2)], "standard")
    assert cert.status == "hypothesis_failed"
    assert cert.failing == "regular_domination_collection"
    assert cert.exit_code() == 2


def test_crosscheck_cube_all_m():
    cert = certify([clique(2)] * 3, "atomic")
    [check] = cert.crosschecks
    assert (check["sizes"], check["unchecked"]) == (9, [])
    assert check["agreement"]
    assert not cert.revoked


def test_crosscheck_c5_cube_samples():
    """The sandwich bound is met at all 126 sizes of C5^3: no slab DP."""
    cert = certify([cycle(5)] * 3, "standard")
    assert cert.status == "certified"
    [check] = cert.crosschecks
    assert check["oracle"] == "sandwich"
    assert (check["sizes"], check["unchecked"]) == (126, [])
    assert check["agreement"]


def _loosen(monkeypatch, m):
    """Make the bound that crosscheck reads one edge too high at size m on
    three-factor products, as a loose bound would be.  Bounds of m sizes or
    fewer, such as those of small blocks, are left as they are."""
    from blocklex import staircase

    real = staircase.sandwich_bound

    def loose(profiles, lower=None):
        upper = real(profiles, lower)
        if len(profiles) == 3 and len(upper) > m:
            upper = upper.copy()
            upper[m] += 1
        return upper

    monkeypatch.setattr(staircase, "sandwich_bound", loose)


def test_crosscheck_slab_decides_where_the_bound_is_loose(monkeypatch):
    """With the bound one edge too high at m = 62 on C5^3, the order
    misses it there alone: `check_order` runs the slab DP up to m = 62,
    never the subset DP on the product, and proves the order optimal."""
    from blocklex import graph_power, solver, staircase

    _loosen(monkeypatch, 62)
    slab_sizes, profiled = [], []
    downset, enumerated = staircase.downset_profile, solver._enumerated_profile

    def recording_slab(h, orders, m_max=None):
        slab_sizes.append(m_max)
        return downset(h, orders, m_max)

    def recording_dp(h, *args):
        profiled.append(h.digest)
        return enumerated(h, *args)

    monkeypatch.setattr(staircase, "downset_profile", recording_slab)
    monkeypatch.setattr(solver, "_enumerated_profile", recording_dp)
    cert = certify([cycle(5)] * 3, "standard")
    [check] = cert.crosschecks
    assert check["oracle"] == "sandwich+slab"
    assert (check["unchecked"], check["agreement"]) == ([], True)
    assert cert.status == "certified" and not cert.revoked
    assert slab_sizes == [62]
    assert graph_power(cycle(5), 3).digest not in profiled


def test_crosscheck_loose_bound_without_slab_is_unchecked(monkeypatch):
    """A size that misses a loose bound, with the slab DP past its cap,
    is listed as unchecked and revokes nothing."""
    from blocklex import SizeCapExceeded, staircase

    def capped(*args, **kwargs):
        raise SizeCapExceeded("slab shape count exceeds the cap")

    _loosen(monkeypatch, 62)
    monkeypatch.setattr(staircase, "downset_profile", capped)
    cert = certify([cycle(5)] * 3, "standard")
    [check] = cert.crosschecks
    assert check["oracle"] == "sandwich"
    assert (check["sizes"], check["unchecked"], check["agreement"]) == (126, [62], True)
    assert cert.status == "certified" and not cert.revoked
    assert cert.exit_code() == 0


def test_crosscheck_slab_dp_takes_only_the_sizes_it_decides(monkeypatch):
    """The slab DP runs up to the largest size that misses the bound: on
    C5^3 its tables hold 2 x 252 shapes x 126 sizes = 63,504 cells, and a
    cap of 40,000 still admits the 63 columns that size 62 needs."""
    from blocklex import staircase

    _loosen(monkeypatch, 62)
    monkeypatch.setattr(staircase, "STACK_CELL_CAP", 40_000)
    cert = certify([cycle(5)] * 3, "standard")
    [check] = cert.crosschecks
    assert check["oracle"] == "sandwich+slab"
    assert (check["unchecked"], check["agreement"]) == ([], True)


def test_crosscheck_revokes_wrong_order():
    gs = [petersen(), clique(2), clique(2)]
    g = cartesian_product(gs)
    cert = certify(gs, "standard")
    dc = standard_collection(gs)
    dc.validate(g)
    wrong = lex_order(g, [TotalOrder.identity(f.n) for f in g.factors])
    cert = crosscheck(cert, gs, dc, order_override=wrong)
    assert cert.revoked
    assert cert.conclusion is None
    assert cert.exit_code() == 2
    assert cert.crosschecks[-1]["oracle"] == "sandwich+slab"
    ce = cert.counterexample
    assert ce["order_value"] < ce["oracle_value"]


def test_crosscheck_slab_refutes_block_lex_on_c6_cube():
    """On C6^3 the bound is loose and certify stops at hypothesis (d).
    Cross-checked directly, the standard block-lex order misses the bound,
    and the slab DP finds a downset that beats it at m = 17."""
    gs = [cycle(6)] * 3
    g = cartesian_product(gs)
    dc = standard_collection(gs)
    dc.validate(g, check_block_optimality=False)
    cert = crosscheck(Certificate("certified", {}, "", "", [], None), g, dc)
    [check] = cert.crosschecks
    assert (check["oracle"], check["sizes"], check["unchecked"]) == ("sandwich+slab", 217, [])
    assert cert.revoked and cert.exit_code() == 2
    ce = cert.counterexample
    assert (ce["m"], ce["order_value"], ce["oracle_value"]) == (17, 29, 30)
    assert len(ce["initial_segment"]) == 17


def test_crosscheck_revocation_builds_the_order_for_its_segment(monkeypatch):
    """The crosscheck counts the certified order in rank space and builds
    it only to report a revocation: on C6^3 the counterexample is the
    order's own initial segment of 17 vertices, as listed, equal to that
    of `block_lex_order`, with the 29 edges that its prefix counts give."""
    import importlib

    from blocklex import block_lex_order, prefix_edge_counts

    certify_module = importlib.import_module("blocklex.certify")

    gs = [cycle(6)] * 3
    g = cartesian_product(gs)
    dc = standard_collection(gs)
    dc.validate(g, check_block_optimality=False)
    order = block_lex_order(g, dc)
    built = []

    def recording(h, coll):
        built.append(h.digest)
        return order

    monkeypatch.setattr(certify_module, "block_lex_order", recording)
    cert = crosscheck(Certificate("certified", {}, "", "", [], None), g, dc)
    ce = cert.counterexample
    assert ce["initial_segment"] == [
        0, 1, 2, 3, 4, 6, 7, 8, 9, 36, 37, 38, 39, 42, 43, 44, 45
    ]
    assert ce["initial_segment"] == order.initial_segment(17).ids().tolist()
    assert ce["order_value"] == prefix_edge_counts(g, order)[17] == 29
    assert built == [g.digest]
    built.clear()
    dc = standard_collection([cycle(5)] * 3)
    dc.validate([cycle(5)] * 3, check_block_optimality=False)
    cert = crosscheck(Certificate("certified", {}, "", "", [], None), [cycle(5)] * 3, dc)
    assert cert.crosschecks[-1]["agreement"] and built == []


def test_certificate_json_roundtrip():
    cert = certify([cycle(5), cycle(4), cycle(3)], "standard")
    back = Certificate.from_json(cert.to_json())
    assert back.to_json() == cert.to_json()
    assert back.exit_code() == 0


# -- explorer -------------------------------------------------------------------


def test_explore_tiny_path_clique():
    with Budget(120):
        rep = explore_conjecture("path_clique", {"max_vertices": 8})
    assert rep.statuses["REFUTED"] == 0
    assert rep.statuses["INCONCLUSIVE"] == 0
    assert rep.statuses["SUPPORTED"] > 0
    names = [i.name for i in rep.instances]
    assert "P2^1 x K2^1" in names


def test_explore_zero_budget_inconclusive():
    with Budget(0.0):
        rep = explore_conjecture("path_clique", {"max_vertices": 10})
    assert rep.statuses["SUPPORTED"] == 0
    assert rep.statuses["REFUTED"] == 0
    assert rep.statuses["INCONCLUSIVE"] > 0


def test_expired_budget_makes_certificates_inconclusive():
    from blocklex.solver import clear_caches

    gs = [cycle(5), cycle(4), cycle(3)]
    clear_caches()
    for warm in (False, True):
        if warm:  # fill every cache the two calls read: a hit polls too
            certify(gs, "standard")
            certify_domination(gs, (0, 1, 2))
        with Budget(0.0):
            certs = [certify(gs, "standard"), certify_domination(gs, (0, 1, 2))]
        for cert in certs:
            assert cert.status == "inconclusive" and cert.exit_code() == 3
            assert cert.hypotheses == [] and cert.partitions_digest == ""
            assert cert.crosschecks == [{"note": "budget exceeded"}]


@pytest.mark.parametrize(
    "spec", ["K2xK2xK2", "K4xK3xK2", "C5xC4xP4", "petersen^2xK2", "C4xK2xK3xC5", "C6^3"]
)
@pytest.mark.parametrize("style", ["standard", "atomic", "domination"])
def test_one_certify_command_builds_each_table_once(spec, style, monkeypatch, capsys):
    """Within one `certify` command, no (graph, order) pair is tabled twice
    by `rank_edge_tables`, no segment graph is built twice and no profile
    is computed twice (by `solver._union_profile`, the subset DP behind
    every cached profile): every hypothesis reads the per-factor tables and
    the profile cache.  The domination certificate takes the factors in
    reverse significance."""
    import collections
    import sys

    from blocklex import cli, parse_graph_spec, partitions, solver, staircase

    counts = collections.Counter()
    homes = [m for k, m in sys.modules.items() if k.startswith("blocklex")]

    def counting(name, owner, key):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key(*args, **kwargs)] += 1
            return real(*args, **kwargs)

        for home in homes:
            if getattr(home, name, None) is real:
                monkeypatch.setattr(home, name, wrapper)

    counting("rank_edge_tables", staircase, lambda g, order=None: (
        "tabled", g.digest, None if order is None else tuple(order.ranks.tolist())))
    counting("_union_profile", solver, lambda adj, kind, with_witnesses: (
        "profiled", tuple(adj), kind))

    class CountingGraph(partitions.Graph):
        def __init__(self, n, edges):
            super().__init__(n, edges)
            counts["built", self.digest] += 1

    monkeypatch.setattr(partitions, "Graph", CountingGraph)
    d = len(parse_graph_spec(spec).factors)
    how = ["--domination", ",".join(str(d - k) for k in range(d))]
    if style != "domination":
        how = ["--partitions", style]
    code = cli.main(["certify", spec, *how, "--format", "json"])
    assert code in (0, 2) and capsys.readouterr().out
    assert counts and max(counts.values()) == 1, counts.most_common(3)
    assert {key[0] for key in counts} >= {"tabled", "profiled"}


def test_explore_report_roundtrip():
    with Budget(60):
        rep = explore_conjecture("path_clique", {"max_vertices": 6})
    data = rep.to_json()
    assert data["counts"]["SUPPORTED"] == len(data["instances"])


def test_refutation_witness_reverifies(non_nested_7):
    from blocklex import exact_profile, find_nested_chain

    g = non_nested_7
    prof = exact_profile(g)
    res = find_nested_chain(g, prof)
    assert res.status == "not_isoperimetric"
    assert res.failing_size == 6
    witness = {
        "graph": g.to_json(),
        "profile": list(prof.i_values),
        "failing_size": res.failing_size,
        "explored": res.explored,
    }
    assert verify_refutation(witness)


def test_refutation_rejects_tampered_witness(non_nested_7):
    from blocklex import exact_profile, find_nested_chain

    g = non_nested_7
    prof = exact_profile(g)
    witness = {
        "graph": g.to_json(),
        "profile": [v + 1 for v in prof.i_values],  # doctored values
        "failing_size": 6,
        "explored": 0,
    }
    assert not verify_refutation(witness)
    # a witness claiming refutation of an isoperimetric graph fails too
    good = petersen()
    witness = {
        "graph": good.to_json(),
        "profile": list(exact_profile(good).i_values),
        "failing_size": 3,
        "explored": 0,
    }
    assert not verify_refutation(witness)


def test_hspi_graph_construction():
    g = matching_reduced_clique(3, 1)
    assert g.n == 6
    assert g.regular_degree() == 4  # K6 minus a perfect matching
    with Budget(120):
        rep = explore_conjecture("hspi", {"s": 2, "p": 3, "i": 1, "d": 2})
    assert all(i.status == "SUPPORTED" for i in rep.instances), [
        (i.name, i.status) for i in rep.instances
    ]


def test_hspi_cube_past_200_vertices():
    """(K6 minus a matching)^3 has 216 vertices: the sandwich bound or the
    downset oracle decides its lexicographic order."""
    rep = explore_conjecture("hspi", {"p": 3, "i": 1, "d": 3})
    assert [(i.n, i.status) for i in rep.instances] == [(6, "SUPPORTED"), (216, "SUPPORTED")]
    assert rep.instances[1].detail["first_failing_m"] is None


def test_hspi_power_past_the_bound_cell_cap_is_inconclusive(monkeypatch):
    """A power whose sandwich table passes STACK_CELL_CAP is reported
    INCONCLUSIVE, never refuted or supported (the cap is lowered so that
    the 216-vertex cube meets it)."""
    from blocklex import staircase
    from blocklex.solver import clear_caches

    clear_caches()  # a memoized bound would never meet the cap
    monkeypatch.setattr(staircase, "STACK_CELL_CAP", 1000)
    rep = explore_conjecture("hspi", {"p": 3, "i": 1, "d": 3})
    lex = rep.instances[1]
    assert (lex.n, lex.status) == (216, "INCONCLUSIVE")
    assert "beyond the cap 1000" in lex.detail["reason"]
    assert rep.statuses["INCONCLUSIVE"] == 1


def test_hspi_delta_matches_stated_pattern():
    """K_{2p} minus i matchings: delta = (0..p-1, p-i..2(p-i)+...)."""
    from blocklex import delta_sequence, exact_profile

    p, i = 3, 1
    g = matching_reduced_clique(p, i)
    d = delta_sequence(exact_profile(g)).values
    expect = tuple(range(p)) + tuple(range(p - i, p - i + p))
    assert d == expect


def test_explore_petersen_tori_pair():
    with Budget(120):
        rep = explore_conjecture("petersen_tori", {"c5": 1, "c4": 1})
    assert len(rep.instances) == 1
    assert rep.instances[0].status == "SUPPORTED"


def test_explore_petersen_tori_three_factors():
    rep = explore_conjecture("petersen_tori", {"c5": 1, "c4": 1, "k2": 1})
    [ins] = rep.instances
    assert ins.n == 40
    assert ins.status == "SUPPORTED"
    assert ins.detail == {"certificate_status": "certified"}


def test_explore_failed_hypothesis_is_inconclusive(monkeypatch):
    """The local-global hypotheses are sufficient, not necessary: a
    three-factor instance whose certificate fails one is INCONCLUSIVE, and
    only a revoked certificate is REFUTED."""
    import importlib

    certify_module = importlib.import_module("blocklex.certify")

    def fake(status, revoked=False):
        failed = Hypothesis("domination_collection", "all blocks", False)
        return lambda g, *a, **k: Certificate(
            status, {}, "", "", [failed], None, revoked=revoked
        )

    params = {"c5": 1, "c4": 1, "k2": 1}
    monkeypatch.setattr(certify_module, "certify", fake("hypothesis_failed"))
    [ins] = explore_conjecture("petersen_tori", params).instances
    assert ins.status == "INCONCLUSIVE"
    assert ins.detail == {"certificate_status": "hypothesis_failed"}
    monkeypatch.setattr(certify_module, "certify", fake("certified", revoked=True))
    [ins] = explore_conjecture("petersen_tori", params).instances
    assert ins.status == "REFUTED"
