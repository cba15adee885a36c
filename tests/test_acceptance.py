"""Acceptance gate: one test per criterion, each printing a pass line with
its runtime.  Expected values are exact; time limits are the stated
budgets.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np

import blocklex as bx
from blocklex import (
    OrderFamily,
    Partition,
    TotalOrder,
    VertexSet,
    induced_edges,
    strongly_compress,
)
from blocklex.blockgeom import (
    check_consecutive_slices,
    check_shared_bone_containment,
    check_skeleton_containment,
    check_slice_block_consecutive,
)
from blocklex.cli import main as cli_main
from blocklex.staircase import staircase_scan_2d


def _report(num: int, name: str, t0: float):
    print(f"\ncriterion {num} ({name}): PASS [{time.monotonic() - t0:.1f}s]")


def _run_cli(capsys, *args):
    code = cli_main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_delta_reproduction(capsys):
    """delta-sequences of K5, P6, Petersen, union(K5,K4) via the CLI."""
    t0 = time.monotonic()
    expected = {
        "K5": [0, 1, 2, 3, 4],
        "P6": [0, 1, 1, 1, 1, 1],
        "petersen": [0, 1, 1, 1, 2, 1, 2, 2, 2, 3],
        "union(K5,K4)": [0, 1, 2, 3, 4, 0, 1, 2, 3],
    }
    for spec, want in expected.items():
        code, out = _run_cli(capsys, "profile", spec, "--format", "csv")
        assert code == 0, spec
        rows = out.strip().splitlines()[2:]
        got = [int(r.split(",")[2]) for r in rows]
        assert got == want, spec
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, "delta-sequence reproduction", t0)


def test_criterion_2_standard_partition_counts():
    """Partition counts 1 / n-1 / 6 plus both structural conditions."""
    t0 = time.monotonic()
    cases = [(bx.clique(5), 1), (bx.path(6), 5), (bx.petersen(), 6)]
    for g, want in cases:
        prof, order = bx.factor_profile_and_order(g)
        delta = bx.delta_sequence(prof, order)
        p = bx.standard_monotonic_partition(delta)
        assert p.num_segments == want
        # condition 1: monotonic sets induce cliques (with optimal induced
        # order); condition 2: backward degrees equal delta at the start
        ok, diags = bx.validate_isoperimetric_partition(g, p)
        assert ok, diags
        for i, (a, b) in enumerate(p.segments):
            sub, _, _ = bx.segment_subgraph(g, p, i)
            k = sub.n
            assert sub.num_edges == k * (k - 1) // 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, "standard partition counts and structure", t0)


def test_criterion_3_lex_optimality_desk_scale():
    """Lexicographic order vs full enumeration on cube powers and
    K2 x K3 x K4."""
    t0 = time.monotonic()
    o2 = TotalOrder.identity(2)
    for d in (2, 3, 4):
        g = bx.graph_power(bx.clique(2), d)
        prof = bx.exact_profile(g, "full", with_witnesses=False)
        ok, bad = bx.verify_order_optimal(g, bx.lex_order(g, [o2] * d), prof)
        assert ok, (d, bad)
    g = bx.cartesian_product([bx.clique(2), bx.clique(3), bx.clique(4)])
    prof = bx.exact_profile(g, "full", with_witnesses=False)
    orders = [bx.factor_profile_and_order(f)[1] for f in g.factors]
    ok, bad = bx.verify_order_optimal(g, bx.lex_order(g, orders), prof)
    assert ok, bad
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(3, "lex optimality at desk scale", t0)


def test_criterion_4_petersen_squared():
    """Standard block-lex initial segments meet the compressed-set oracle
    maximum for every m in 0..100, oracle by staircase enumeration."""
    t0 = time.monotonic()
    pet = bx.petersen()
    g = bx.graph_power(pet, 2)
    order, dc = bx.standard_block_lex_order(g)
    _, pet_order = bx.factor_profile_and_order(pet)
    scan_max, scan_counts = staircase_scan_2d(g, [pet_order, pet_order])
    prefix = bx.prefix_edge_counts(g, order)
    for m in range(101):
        seg = order.initial_segment(m)
        direct = induced_edges(g, seg)
        assert direct == prefix[m]
        assert direct == scan_max[m], m
    # the dynamic program and the exhaustive scan are independent routes
    dp = bx.downset_profile(g, [pet_order, pet_order])
    assert np.array_equal(dp, scan_max)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(4, "Petersen^2 optimality vs staircase oracle", t0)


def test_criterion_5_local_global_certification(capsys):
    """certify exits 0 for Petersen^3, C5 x C4 x C3, Petersen x K2 x K2,
    with cross-checks proving the order at every size of the 3-factor
    products."""
    t0 = time.monotonic()
    for spec, n in (("petersen^3", 1000), ("C5xC4xC3", 60), ("petersenxK2xK2", 40)):
        code, out = _run_cli(capsys, "certify", spec, "--format", "json")
        assert code == 0, spec
        data = json.loads(out)["result"]
        assert data["status"] == "certified"
        check = data["crosschecks"][-1]
        assert check["agreement"] is True
        assert (check["sizes"], check["unchecked"]) == (n + 1, [])
    # every size, library level
    for factors in ([bx.petersen()] * 3, [bx.cycle(5), bx.cycle(4), bx.cycle(3)]):
        n = bx.cartesian_product(factors).n
        cert = bx.certify(factors, "standard")
        [check] = cert.crosschecks
        assert (check["sizes"], check["unchecked"]) == (n + 1, [])
        assert check["agreement"]
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    _report(5, "local-global certification with cross-checks", t0)


def test_criterion_6_compression_laws():
    """1000 seeded random sets per product: size preservation, subset
    monotonicity, induced-edge non-decrease, fixpoint termination; weight
    equals induced edges on every enumerated compressed set."""
    t0 = time.monotonic()
    products = [
        [bx.clique(2)] * 3,
        [bx.clique(2), bx.clique(3)],
        [bx.cycle(5), bx.cycle(5)],
    ]
    rng = np.random.default_rng(20260808)
    violations = 0
    for factors in products:
        g = bx.cartesian_product(factors)
        orders = [bx.factor_profile_and_order(f)[1] for f in g.factors]
        fam = OrderFamily.lexicographic(g, orders)
        d = len(factors)
        from blocklex.compression import singleton_schedule

        for _ in range(1000):
            size = int(rng.integers(0, g.n + 1))
            ids = rng.choice(g.n, size=size, replace=False)
            a = VertexSet.from_ids(g.n, ids)
            keep = rng.random(g.n) < 0.5
            b = VertexSet(a.mask & keep)
            s = (int(rng.integers(0, d)),)
            ca = bx.compress_once(g, a, s, fam)
            cb = bx.compress_once(g, b, s, fam)
            if len(ca) != len(a):
                violations += 1
            if induced_edges(g, ca) < induced_edges(g, a):
                violations += 1
            if not cb.issubset(ca):
                violations += 1
            fixed, cycles = bx.compress_to_fixpoint(g, a, singleton_schedule(d), fam)
            if not bx.is_compressed(g, fixed, fam):
                violations += 1
        deltas = [
            bx.delta_sequence(bx.factor_profile_and_order(f)[0], o)
            for f, o in zip(g.factors, orders)
        ]
        for m in range(g.n + 1):
            for comp in bx.enumerate_compressed(g, orders, m):
                if bx.weight(g, comp, deltas) != induced_edges(g, comp):
                    violations += 1
    assert violations == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(6, "compression laws, zero violations", t0)


def test_criterion_7_structural_implications():
    """500 seeded strongly compressed sets per product: skeleton
    containment, shared-bone containment, slice consecutiveness, and the
    consecutive-slice stack structure all hold."""
    t0 = time.monotonic()
    setups = []
    # three-factor product with atomic partitions (every block a vertex)
    g1 = bx.cartesian_product([bx.clique(2), bx.clique(2), bx.clique(3)])
    parts1 = [
        bx.atomic_partition(bx.factor_profile_and_order(f)[1]) for f in g1.factors
    ]
    dc1 = bx.uniform_collection(parts1)
    ok, diags = dc1.validate(g1)
    assert ok, diags
    setups.append((g1, dc1))
    # Petersen cubed with the two-halves partitions (each half induces a
    # five-cycle)
    pet = bx.petersen()
    _, pet_order = bx.factor_profile_and_order(pet)
    halves = Partition.from_boundaries(pet_order, [5, 10])
    g2 = bx.cartesian_product([pet] * 3)
    dc2 = bx.uniform_collection([halves] * 3)
    ok, diags = dc2.validate(g2, check_block_optimality=False)
    assert ok, diags
    setups.append((g2, dc2))

    rng = np.random.default_rng(5577)
    violations = []
    for g, dc in setups:
        fam = OrderFamily.block_lexicographic(g, dc)
        bl = bx.block_lex_order(g, dc)
        exercised_consecutive = 0
        for trial in range(500):
            size = int(rng.integers(0, g.n + 1))
            ids = rng.choice(g.n, size=size, replace=False)
            a = strongly_compress(g, VertexSet.from_ids(g.n, ids), fam)
            violations += check_skeleton_containment(g, dc, a)
            violations += check_shared_bone_containment(g, dc, a)
            violations += check_slice_block_consecutive(g, dc, a)
            if bx.is_slice_compressed(g, dc, a):
                exercised_consecutive += 1
                violations += check_consecutive_slices(g, dc, a)
        # initial segments are strongly and slice compressed by construction
        for m in range(0, g.n + 1, max(1, g.n // 40)):
            seg = bl.initial_segment(m)
            violations += check_consecutive_slices(g, dc, seg)
            exercised_consecutive += 1
        assert exercised_consecutive > 50
    assert violations == []
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(7, "structural implications on strongly compressed sets", t0)


def test_criterion_8_negative_controls(capsys):
    """Hypothesis failures exit 2; the oracle exposes a wrong order."""
    t0 = time.monotonic()
    # non-regular middle factor partition
    code, out = _run_cli(capsys, "certify", "K2xunion(K5,K4)xK2", "--format", "json")
    assert code == 2
    data = json.loads(out)["result"]
    assert data["status"] == "hypothesis_failed"
    assert data["conclusion"] is None
    # pairwise-suboptimal domination order
    code, out = _run_cli(
        capsys, "certify", "K2xK3xK4", "--domination", "3,2,1", "--format", "json"
    )
    assert code == 2
    # the compressed oracle exposes a deliberately wrong order
    gs = [bx.petersen(), bx.clique(2), bx.clique(2)]
    g = bx.cartesian_product(gs)
    dc = bx.standard_collection(gs)
    dc.validate(g, check_block_optimality=False)
    wrong = bx.lex_order(g, [TotalOrder.identity(f.n) for f in g.factors])
    cert = bx.certify(gs, "standard")
    cert = bx.crosscheck(cert, gs, dc, order_override=wrong)
    assert cert.revoked and cert.exit_code() == 2
    assert cert.counterexample["order_value"] < cert.counterexample["oracle_value"]
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(8, "negative controls", t0)


def test_criterion_9_conjecture_explorer():
    """Every path-power by clique-power instance with at most 16 vertices
    is SUPPORTED within budget; any REFUTED instance would need a witness
    that independently re-verifies."""
    t0 = time.monotonic()
    with bx.Budget(600):
        rep = bx.explore_conjecture("path_clique", {"max_vertices": 16})
    names = [i.name for i in rep.instances]
    assert "P2^2 x K2^2" in names
    assert "P4^1 x K4^1" in names
    for ins in rep.instances:
        if ins.status == "REFUTED":
            assert ins.witness is not None
            assert bx.verify_refutation(ins.witness)
    assert rep.statuses["REFUTED"] == 0
    assert rep.statuses["INCONCLUSIVE"] == 0
    assert rep.statuses["SUPPORTED"] == len(rep.instances)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(9, "conjecture explorer", t0)
