"""Tests of the benchmark itself: the verdict oracles, the checks, and the
determinism that lets later changes cite counters as counts.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import verdicts as V  # noqa: E402
import workloads as W  # noqa: E402
from blocklex import graphs, solver  # noqa: E402


def _light(workload: str, seed: int) -> list:
    """The commands of a pass that run in milliseconds."""
    out = []
    for c in W.build(workload, seed):
        a = c.argv
        if workload == "certify":
            keep = c.control or "--domination" in a or "--partitions" in a or (
                W.certify_cost(a[1].split("x")) < 2**18
            )
        else:
            keep = a[1] == "hspi" or a[0] in ("order", "compress") or (
                "bnb" in a and graphs.parse_graph_spec(a[1]).n <= 20
            )
        if keep:
            out.append(c)
    return out


def _traced_pass(cmds):
    tracer = spans.Tracer()
    tracer.install()
    try:
        wall, _, outs = run.run_pass(cmds, tracer)
    finally:
        tracer.uninstall()
    assert not tracer.missing
    return spans.counters(spans.layer_metrics(tracer.spans, wall)), outs


def test_closed_forms_match_the_subset_dp():
    for spec, want in [
        ("P7", V.path_profile(7)),
        ("C8", V.cycle_profile(8)),
        ("K6", V.clique_profile(6)),
        ("petersen", V.petersen_profile()),
        ("K2xK3xK2", V.clique_product_profile([2, 3, 2])),
        ("K2^4", V.clique_product_profile([2] * 4)),
        ("union(C5,K4,P3)", V.union_profile([V.cycle_profile(5), V.clique_profile(4), V.path_profile(3)])),
    ]:
        g = graphs.parse_graph_spec(spec)
        assert list(solver.exact_profile(g, "full", with_witnesses=False).i_values) == want, spec


def test_checks_reject_wrong_verdicts():
    good = json.dumps({"result": {"values": [0, 0, 1, 2]}})
    assert V.profile_check([0, 0, 1, 2])(0, good) == []
    assert V.profile_check([0, 0, 1, 3])(0, good)
    assert V.profile_check([0, 0, 1, 2])(3, good)
    cert = {"status": "hypothesis_failed", "revoked": False, "crosschecks": [],
            "hypotheses": [{"name": "domination_collection", "verified": False}]}
    text = json.dumps({"result": cert})
    assert V.certify_check({"hypothesis_failed"}, "domination_collection", True)(2, text) == []
    assert V.certify_check({"certified", "inconclusive"}, None, True)(2, text)
    assert V.certify_check({"hypothesis_failed"}, "regular_domination_collection", True)(2, text)


def _report(argv) -> tuple:
    """(exit code, stdout) of a command run in-process."""
    return run.execute(argv)[1:3]


def _with(report: str, **fields) -> str:
    doc = json.loads(report)
    doc["result"].update(fields)
    return json.dumps(doc)


def test_checks_reject_wrong_orders():
    names = ("K3", "C4", "P4")
    spec = "x".join(names)
    for family in ("lex", "sbl"):
        argv = ("order", spec, "--" + family, "--verify", "--strategy", "compressed", "--format", "json")
        check = V.order_check(W._agreed(spec), W._edges(spec), W._product(names), family)
        rc, report = _report(argv)
        assert check(rc, report) == []
        ranks = json.loads(report)["result"]["order"]["ranks"]
        swapped = ranks[:]
        swapped[0], swapped[-1] = swapped[-1], swapped[0]
        assert check(rc, _with(report, order={"ranks": swapped}))
        assert check(rc, _with(report, order={"ranks": [1] * len(ranks)}))
        verified = json.loads(report)["result"]["verified_optimal"]
        assert check(rc, _with(report, verified_optimal=not verified))


def test_checks_reject_uncompressed_sets():
    """An output equal to the input (compression left undone) fails."""
    names = ("C4", "K3", "P4")
    spec = "x".join(names)
    ids = list(range(0, 48, 3))
    product, edges = W._product(names), W._edges(spec)
    for family in ("lex", "sbl"):
        for mode, flags, key in (("once", ("--once", "1,3"), "compressed"), ("fixpoint", ("--fixpoint",), "fixpoint")):
            check = V.compress_check(ids, edges, product, family, mode, (0, 2) if mode == "once" else None)
            argv = ("compress", spec, "--family", family, "--set", json.dumps(ids)) + flags + ("--format", "json")
            rc, report = _report(argv)
            assert check(rc, report) == []
            assert check(rc, _with(report, **{key: ids}))
        fix = sorted(product.fixpoint(ids, family)[0])
        for s in (ids, fix):
            check = V.compress_check(s, edges, product, family, "predicates")
            argv = ("compress", spec, "--family", family, "--set", json.dumps(s), "--format", "json")
            rc, report = _report(argv)
            assert check(rc, report) == []
            flipped = json.loads(report)["result"]["compressed"] is False
            assert check(rc, _with(report, compressed=flipped))


def test_recorded_explorer_statuses_agree_with_the_theorems():
    """The recorded statuses cover every explorer command a pass can draw,
    pass their checks, and a flipped status fails."""
    table = json.loads(W.RECORDED.read_text())
    assert sorted(table) == sorted(" ".join(a) for a in W.explorer_argvs())
    for argv in W.explorer_argvs():
        cmd = W._path_clique(20) if argv[1] == "path_clique" else W._hspi(*map(int, argv[3::2]))
        instances = [{"name": n, "status": s} for n, s in table[" ".join(argv)]]
        assert cmd.check(0, json.dumps({"result": {"instances": instances}})) == [], argv
        instances[-1]["status"] = "SUPPORTED" if instances[-1]["status"] == "REFUTED" else "REFUTED"
        assert cmd.check(0, json.dumps({"result": {"instances": instances}}))


def test_controls_excuse_only_their_status():
    controls = [c for c in W.build("certify", 1) if c.control]
    report = json.dumps({"result": {"status": "hypothesis_failed", "revoked": False, "crosschecks": [],
                                    "hypotheses": [{"name": "domination_collection", "verified": False}]}})
    ledger = run.Ledger(controls)
    ledger.record([(2, report, "")] * len(controls))
    assert ledger.failed == len(controls) and ledger.correct
    ledger.record([(2, report + " ", "")] * len(controls))  # a report that changed between passes
    assert not ledger.correct
    ledger = run.Ledger(controls)
    ledger.record([(None, "", "Traceback\nRuntimeError: boom")] * len(controls))
    assert not ledger.correct


def test_a_seed_fixes_the_commands():
    for w in W.WORKLOADS:
        assert [c.argv for c in W.build(w, 5)] == [c.argv for c in W.build(w, 5)]
        assert [c.argv for c in W.build(w, 5)] != [c.argv for c in W.build(w, 6)]


def test_counters_verdicts_and_reports_repeat():
    """Two traced passes of one seed give identical counters and reports,
    equal to an untraced pass; only the named controls fail."""
    for w in W.WORKLOADS:
        cmds = _light(w, 3)
        ledger = run.Ledger(cmds)
        _, _, plain = run.run_pass(cmds)
        ledger.record(plain)
        first, outs1 = _traced_pass(cmds)
        second, outs2 = _traced_pass(cmds)
        assert first == second
        assert [o[:2] for o in outs1] == [o[:2] for o in plain] == [o[:2] for o in outs2]
        assert ledger.correct, ledger.problems
        assert first["solver.exact_profile.calls"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_setup_sampler_times_starts_and_stops():
    with run.SetupSampler() as setup:
        assert 0 < setup.sample() < 60
    assert setup.proc.returncode == 0
