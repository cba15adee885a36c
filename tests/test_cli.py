"""The command-line front door: outputs, exit codes, and replayability."""

import json

import pytest

from blocklex.cli import main

PETERSEN_DELTA = [0, 1, 1, 1, 2, 1, 2, 2, 2, 3]


@pytest.fixture(autouse=True)
def reports_match_the_stdlib_encoder(monkeypatch):
    """Every JSON report a test here emits must be the bytes of
    `json.dumps(indent=2, sort_keys=True)`."""
    from blocklex import cli

    fast = cli._dumps

    def checked(obj):
        text = fast(obj)
        assert text == json.dumps(obj, indent=2, sort_keys=True)
        return text

    monkeypatch.setattr(cli, "_dumps", checked)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_profile_petersen_csv(capsys):
    code, out, _ = run(capsys, "profile", "petersen")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,I,delta"
    deltas = [int(r.split(",")[2]) for r in lines[2:]]
    assert deltas == PETERSEN_DELTA


def test_profile_json_envelope(capsys):
    code, out, _ = run(capsys, "profile", "K5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["tool"] == "blocklex"
    assert data["version"]
    assert data["inputs"]["graph_digest"]
    assert data["result"]["delta"] == [0, 1, 2, 3, 4]


def test_profile_theta(capsys):
    code, out, _ = run(capsys, "profile", "K2^3", "--theta")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "m,theta"
    assert rows[5] == "4,4"  # theta(4) = 4 on the 3-cube


def test_profile_compressed_strategy(capsys):
    code, out, _ = run(capsys, "profile", "petersen^2", "--strategy", "compressed")
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[-1].startswith("100,300,")


def test_replay_is_byte_identical(capsys):
    _, out1, _ = run(capsys, "certify", "C5xC4xC3", "--format", "json", "--seed", "7")
    _, out2, _ = run(capsys, "certify", "C5xC4xC3", "--format", "json", "--seed", "7")
    assert out1 == out2


def test_graph_roundtrip_through_json(capsys, tmp_path):
    code, out, _ = run(capsys, "graph", "petersenxK2", "--format", "json")
    assert code == 0
    payload = json.loads(out)["result"]["graph"]
    f = tmp_path / "g.json"
    f.write_text(json.dumps(payload))
    code2, out2, _ = run(capsys, "graph", f"@{f}", "--format", "json")
    assert code2 == 0
    assert json.loads(out2)["result"]["graph"] == payload


def test_partition_standard(capsys):
    code, out, _ = run(capsys, "partition", "petersen", "--standard")
    assert code == 0
    assert "6 segments" in out


def test_order_verify_lex(capsys):
    code, out, _ = run(capsys, "order", "K2^3", "--lex", "--verify")
    assert code == 0
    assert "optimal: True" in out


def test_order_verify_failure_exits_2(capsys):
    # descending clique sizes: lexicographic order is not optimal
    code, out, _ = run(capsys, "order", "K3xK2", "--lex", "--verify")
    assert code == 2
    assert "optimal: False" in out


def test_order_sbl_verify(capsys):
    code, _, _ = run(capsys, "order", "petersenxpetersen", "--sbl", "--verify",
                     "--strategy", "compressed")
    assert code == 0


def test_compress_once(capsys):
    code, out, _ = run(
        capsys, "compress", "K2xK2", "--set", "[1,2]", "--once", "1",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["compressed"] == [0, 1]
    assert data["result"]["induced_after"] == 1


def test_compress_check_predicates(capsys):
    code, out, _ = run(
        capsys, "compress", "K2xK3", "--set", "[0,1,3]", "--check", "--format", "json"
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["compressed"] is True
    assert res["strongly_compressed"] is True


def test_compress_weight(capsys):
    code, out, _ = run(
        capsys, "compress", "K2xK2", "--set", "[0,1,2]", "--weight", "--format", "json"
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["weight"] == 2 == res["induced"]


def test_compress_laws_seeded(capsys):
    code, out, err = run(
        capsys, "compress", "K2^3", "--laws", "50", "--seed", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["ok"] is True
    assert data["seed"] == 3
    assert "seed: 3" in err


def test_certify_exit_codes(capsys):
    code, out, _ = run(capsys, "certify", "C5^3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["result"]["status"] == "certified"
    assert data["result"]["crosschecks"][-1]["agreement"] is True

    code2, out2, _ = run(
        capsys, "certify", "K2xunion(K5,K4)xK2", "--format", "json"
    )
    assert code2 == 2
    assert json.loads(out2)["result"]["status"] == "hypothesis_failed"


def test_certify_report_is_the_library_certificate(capsys):
    from blocklex import certify, cycle

    _, out, _ = run(capsys, "certify", "C5xC4xC3", "--format", "json")
    assert json.loads(out)["result"] == certify([cycle(5), cycle(4), cycle(3)]).to_json()
    code, out, _ = run(capsys, "certify", "C5xC4xC3", "--format", "json", "--no-crosscheck")
    assert code == 0
    assert json.loads(out)["result"]["crosschecks"] == []
    _, out, _ = run(capsys, "certify", "C5xC4xC3", "--format", "json")
    [check] = json.loads(out)["result"]["crosschecks"]
    assert (check["sizes"], check["unchecked"], check["agreement"]) == (61, [], True)
    # every size is checked, so there are no sizes to choose
    assert run(capsys, "certify", "C5xC4xC3", "--crosscheck", "1,5")[0] == 64


def test_certify_factor_beyond_the_cap_is_inconclusive(capsys):
    """No exact engine takes a 25-vertex factor: could not tell (exit 3),
    not a usage error."""
    for argv in (["C25xK2xK2"], ["K2xK2xC25", "--domination", "1,2,3"]):
        code, out, _ = run(capsys, "certify", *argv, "--format", "json")
        assert code == 3, argv
        result = json.loads(out)["result"]
        assert result["status"] == "inconclusive" and result["conclusion"] is None
        assert "cap" in result["crosschecks"][0]["note"]


def test_certify_domination_flag(capsys):
    code, _, _ = run(capsys, "certify", "K2xK3xK4", "--domination", "1,2,3")
    assert code == 0
    code2, _, _ = run(capsys, "certify", "K2xK3xK4", "--domination", "3,2,1")
    assert code2 == 2


def test_explore_cli(capsys):
    code, out, _ = run(
        capsys, "explore", "path_clique", "--max-vertices", "6",
        "--budget", "120", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["counts"]["REFUTED"] == 0
    assert data["result"]["counts"]["INCONCLUSIVE"] == 0


def test_partition_boundaries_and_file(capsys, tmp_path):
    code, out, _ = run(
        capsys, "partition", "petersen", "--boundaries", "5,10", "--format", "json"
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert res["segments"] == 2
    assert res["isoperimetric"] is True
    assert res["regular"] is True
    f = tmp_path / "p.json"
    f.write_text(json.dumps(res["partition"]))
    code2, out2, _ = run(
        capsys, "partition", "petersen", "--file", str(f), "--format", "json"
    )
    assert code2 == 0
    assert json.loads(out2)["result"]["partition"] == res["partition"]


def test_order_from_collection_file(capsys, tmp_path):
    from blocklex import cartesian_product, petersen, clique, standard_collection

    dc = standard_collection([petersen(), clique(2)])
    f = tmp_path / "dc.json"
    f.write_text(json.dumps(dc.to_json()))
    code, out, _ = run(
        capsys, "order", "petersenxK2", "--bl", str(f), "--verify", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["result"]["verified_optimal"] is True


def test_compress_check_sbl_family(capsys):
    code, out, _ = run(
        capsys, "compress", "petersenxK2", "--set", "[0,1,2]", "--check",
        "--family", "sbl", "--format", "json",
    )
    assert code == 0
    res = json.loads(out)["result"]
    assert "block_compressed" in res and "slice_compressed" in res


def test_parse_error_exit_64(capsys):
    assert run(capsys, "profile", "Q99")[0] == 64
    assert run(capsys, "bogus-command")[0] == 64
    assert run(capsys, "certify", "K5")[0] == 64  # not a 3-factor product
    assert run(capsys, "profile", "K5", "--strategy", "nope")[0] == 64
    # only profile and order read --strategy
    assert run(capsys, "certify", "K2xK3xK4", "--strategy", "bnb")[0] == 64
    assert run(capsys, "compress", "K2^3", "--laws", "3", "--strategy", "bnb")[0] == 64


def test_size_and_cell_caps_exit_3(capsys):
    """A size or cell cap is "could not tell" (exit 3), with no engine
    named or an explicit one, never a usage error: `SizeCapExceeded` is an
    `Inconclusive`, as `BudgetExceeded` is, and not a `ValueError`."""
    from blocklex import BudgetExceeded, Inconclusive, SizeCapExceeded

    assert not issubclass(SizeCapExceeded, ValueError)
    assert issubclass(SizeCapExceeded, Inconclusive)
    assert issubclass(BudgetExceeded, Inconclusive)
    for argv in (
        ["profile", "K25"],
        ["profile", "P30"],
        ["profile", "K5xK6", "--strategy", "full"],
        ["profile", "C10^3", "--strategy", "compressed"],
        ["partition", "K25"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, ""), argv
        assert "cap" in err or "n <= 24" in err, argv
    for argv in (
        ["profile", "K2^4", "--strategy", "compressed"],
        ["order", "K2^4", "--lex", "--verify", "--strategy", "compressed"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 3, argv
        assert "up to three factors" in err


def test_the_enumeration_cap_has_one_wording(capsys):
    """Every refusal of a graph past the subset engines' cap, by either
    engine and for either kind of profile, names the cap in one phrase."""
    for argv, n in (
        (["profile", "C5xC6", "--theta"], 30),
        (["profile", "petersen^3", "--witnesses"], 1000),
        (["profile", "K25", "--strategy", "bnb"], 25),
    ):
        err = f"error: {n} vertices exceed the full-enumeration cap of 24\n"
        assert run(capsys, *argv) == (3, "", err), argv


def test_compressed_strategy_past_200_vertices_exits_0(capsys):
    code, out, _ = run(capsys, "profile", "K6^3", "--strategy", "compressed",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["complete"] is True


def test_budget_exceeded_exit_3(capsys):
    code, _, _ = run(capsys, "profile", "K2^4", "--budget", "0.0001")
    assert code == 3
    # --budget bounds every subcommand that profiles a graph
    for argv in (
        ["order", "K4xK6", "--optimal"],
        ["partition", "K4xK6"],
        ["compress", "K4xK6", "--set", "[0,5,7]", "--fixpoint"],
    ):
        code, _, err = run(capsys, *argv, "--budget", "1e-9")
        assert code == 3, argv
        assert err == "error: budget exceeded\n"
    # the deadline passes in the sample loop, after the factor orders
    code, _, err = run(capsys, "compress", "K2^3", "--laws", "20000", "--budget", "0.05")
    assert (code, err) == (3, "error: budget exceeded\n")


def test_deadline_inside_validate_is_inconclusive(capsys, monkeypatch):
    """A deadline that passes while the domination collection is being
    validated makes the certificate inconclusive; without the budget, P4^3
    fails hypothesis (d) with exit 2."""
    import time

    from blocklex import blockgeom

    check = blockgeom._verify_block_class

    def slow(*args):
        time.sleep(0.3)
        return check(*args)

    monkeypatch.setattr(blockgeom, "_verify_block_class", slow)
    code, out, _ = run(capsys, "certify", "P4^3", "--budget", "0.3")
    assert code == 3
    result = json.loads(out)["result"]
    assert result["status"] == "inconclusive"
    assert result["crosschecks"] == [{"note": "budget exceeded"}]
    assert [h["name"] for h in result["hypotheses"]] == [
        "isoperimetric_partition_factor_1",
        "isoperimetric_partition_factor_2",
        "isoperimetric_partition_factor_3",
        "non_decreasing_partition_factor_1",
        "non_decreasing_partition_factor_2",
    ]


def test_order_budget_gives_one_report(capsys, monkeypatch):
    """`order --verify` reports an expired budget the same way whether the
    deadline passes while the factor orders are found or inside the
    order rule that verifies."""
    import time

    from blocklex import cli

    argv = ["order", "K2^4", "--lex", "--verify"]
    assert run(capsys, *argv, "--budget", "1e-9") == (3, "", "error: budget exceeded\n")
    check = cli.check_order

    def slow(*args, **kw):
        time.sleep(0.3)
        return check(*args, **kw)

    monkeypatch.setattr(cli, "check_order", slow)
    assert run(capsys, *argv, "--budget", "0.2") == (3, "", "error: budget exceeded\n")


def test_expired_budget_replays(capsys):
    """A budget that runs out before the first hypothesis gives the same
    inconclusive report on every run."""
    runs = [
        run(capsys, "certify", "C5xC4xC3", "--budget", "1e-9", "--format", "json")
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    code, out, _ = runs[0]
    assert code == 3
    result = json.loads(out)["result"]
    assert result["status"] == "inconclusive"
    assert result["hypotheses"] == []
    assert result["crosschecks"] == [{"note": "budget exceeded"}]


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "profile", "K5", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["result"]["values"][-1] == 10


def test_no_nested_solutions_exits_2(capsys, tmp_path, non_nested_7):
    """A graph the chain search refutes fails a hypothesis (exit 2), not
    a usage error (exit 64)."""
    spec = tmp_path / "non_nested.json"
    spec.write_text(json.dumps(non_nested_7.to_json()))
    for argv in (["order", f"@{spec}", "--optimal"], ["partition", f"@{spec}"]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "no nested solutions" in err


def test_chain_search_at_its_node_cap_exits_3(capsys, monkeypatch):
    """A chain search cut at its node cap is inconclusive (exit 3), never
    a refutation (2) or a usage error (64)."""
    from blocklex import solver

    search = solver.find_nested_chain
    monkeypatch.setattr(
        solver, "find_nested_chain", lambda g, prof, **kw: search(g, prof, node_cap=3)
    )
    code, _, err = run(capsys, "order", "petersen", "--optimal")
    assert code == 3
    assert "node cap" in err
    # certify reports it as an inconclusive certificate
    code, out, err = run(capsys, "certify", "petersenxK2xK2")
    assert (code, err) == (3, "")
    result = json.loads(out)["result"]
    assert result["status"] == "inconclusive"
    assert "node cap" in result["crosschecks"][0]["note"]


def _fresh_interpreter(*args):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_parser_reuse_leaks_nothing_between_commands(capsys):
    """main keeps one parser for the process: a usage error, witnesses on
    and off, and a certify run one after another in this process each give
    what the same argv gives alone in a fresh interpreter."""
    from blocklex import cli

    argvs = [
        ["profile", "C5", "--strategy", "nope"],
        ["profile", "C5", "--witnesses"],
        ["profile", "C5"],
        ["certify", "C5xC4xC3", "--no-crosscheck"],
    ]
    here = [run(capsys, *argv) for argv in argvs]
    assert cli._build_parser.cache_info().currsize == 1
    assert [code for code, _, _ in here] == [64, 0, 0, 0]
    for argv, got in zip(argvs, here):
        alone = _fresh_interpreter("-m", "blocklex.cli", *argv)
        assert got == (alone.returncode, alone.stdout, alone.stderr), argv


def test_import_does_not_build_the_parser():
    """Importing blocklex.cli builds neither the parser nor any
    subcommand's parser."""
    proc = _fresh_interpreter(
        "-c",
        "import argparse, gc, blocklex.cli as c; "
        "print(c._build_parser.cache_info().currsize, "
        "sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects()))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 0\n"


DISPATCH_ARGVS = [
    ("graph", "K2"),
    ("profile", "C5", "--format", "json"),
    ("partition", "K2xK3"),
    ("order", "K2xK3", "--lex", "--verify"),
    ("compress", "K2xK3", "--set", "[0,4]"),
    ("certify", "K2^3", "--no-crosscheck"),
    ("explore", "path_clique", "--max-vertices", "8"),
    ("graph", "-h"),
    ("profile", "--help"),
    ("partition", "-h"),
    ("order", "K2xK3", "-h"),
    ("compress", "-h"),
    ("certify", "-h"),
    ("explore", "-h"),
    ("graph",),
    ("explore",),
    ("profile", "C5", "--nope"),
    ("graph", "K2", "K3"),
    ("graph", "K2", "--format", "xml"),
    ("profile", "C5", "--strategy", "nope"),
    ("explore", "nope"),
    ("profile", "C5", "--budget", "0"),
    ("profile", "C5", "--form", "json"),
    ("graph", "--", "K2"),
    (),
    ("frobnicate", "K2"),
    ("Graph", "K2"),
    ("-h",),
    ("--help",),
    ("--format", "json", "graph", "K2"),
]


def _outcome(capsys, argv):
    """(exit code, stdout, stderr), with a SystemExit's code in place of
    the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = ("SystemExit", e.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_subcommand_dispatch_matches_the_top_level_parser(capsys, monkeypatch):
    """An argv that names a subcommand goes straight to that subcommand's
    parser; every argv gives what the top-level parser alone gives."""
    from blocklex import cli

    parser = cli._build_parser()
    top_level = []
    parse_args = parser.parse_args

    def counted(args):
        top_level.append(args)
        return parse_args(args)

    monkeypatch.setattr(parser, "parse_args", counted)
    direct = [_outcome(capsys, argv) for argv in DISPATCH_ARGVS]
    undispatched = [list(a) for a in DISPATCH_ARGVS if not a or a[0] not in parser.subcommands]
    assert top_level == undispatched
    monkeypatch.setattr(parser, "subcommands", {})
    whole = [_outcome(capsys, argv) for argv in DISPATCH_ARGVS]
    assert top_level == undispatched + [list(a) for a in DISPATCH_ARGVS]
    assert [r[0] for r in direct[:7]] == [0] * 7
    assert {r[0] for r in direct[7:14]} == {("SystemExit", 0)}
    for argv, a, b in zip(DISPATCH_ARGVS, direct, whole):
        assert a == b, argv


UNION_ARGVS = [
    ("profile", "union(K5,C18)"),
    ("profile", "union(K5,C18)", "--witnesses"),
    ("profile", "union(K5,C18)", "--theta", "--witnesses", "--format", "json"),
    ("profile", "union(C3,C17)", "--format", "json"),
    ("profile", "union(P3,C6,K5,P9)", "--witnesses", "--format", "csv"),
    ("profile", "union(C7,C9,C3,C3)", "--theta", "--format", "json"),
    ("profile", "union(P15,P5)", "--theta", "--witnesses"),
    ("profile", "union(K4,P3,K5,C11)", "--witnesses", "--format", "json"),
    ("profile", "union(C12,C12)", "--theta", "--witnesses", "--format", "json"),
    ("profile", "union(K3,3,K2)", "--witnesses"),
    ("profile", "union(P3^2,K2)", "--theta", "--witnesses", "--format", "csv"),
    ("profile", "union(K2xK3,C5,K1)", "--witnesses", "--format", "json"),
]


def test_union_reports_match_the_table_dp(capsys, monkeypatch):
    """Profiles of unions from their parts report what the subset DP over
    the whole graph reports, streamed sizes (23 and 24) included."""
    from blocklex import solver

    def reports():
        out = []
        for argv in UNION_ARGVS:
            solver.clear_caches()
            out.append(run(capsys, *argv))
        return out

    split = reports()
    monkeypatch.setattr(solver, "_split_ends", lambda adj: [len(adj)])
    whole = reports()
    assert [r[0] for r in split] == [0] * len(UNION_ARGVS)
    for argv, a, b in zip(UNION_ARGVS, split, whole):
        assert a == b, argv


MALFORMED_SPECS = {
    "union(K5": "unbalanced parentheses in 'union(K5'",
    "K5)": "unbalanced parentheses in 'K5)'",
    "K5^": "invalid literal for int() with base 10: ''",
    "K5^0": "power needs k >= 1",
    "K5^x": "empty product term in 'K5^x'",
    "union(K5,)": "empty graph spec",
    "union()": "empty graph spec",
    "K2x": "empty product term in 'K2x'",
    "xK2": "empty product term in 'xK2'",
    "": "empty graph spec",
    "C2": "cycle needs n >= 3",
    "P0": "path needs n >= 1",
    "K0": "clique needs n >= 1",
    "Q9": "cannot parse graph name 'Q9'",
    "K3,": "cannot parse graph name 'K3,'",
}


def test_malformed_specs_exit_64_with_their_messages(capsys):
    for spec, message in MALFORMED_SPECS.items():
        assert run(capsys, "graph", spec) == (64, "", f"error: {message}\n"), spec


@pytest.mark.parametrize(
    "data",
    [
        {"n": 2.7, "edges": [[0, 1.9]]},
        {"n": 2, "edges": [[0, 1.0]]},
        {"n": 2.0, "edges": [[0, 1]]},
        {"n": True, "edges": []},
        {"n": 2, "edges": [[False, True]]},
        {"n": 4, "edges": [[0, 1], [2, 3], [0, 2], [1, 3]], "factors": [2.0, 2]},
        {"n": 4, "edges": [[0, 1], [2, 3], [0, 2], [1, 3]], "factors": [True, 4]},
    ],
)
def test_graph_json_with_floats_or_bools_exits_64(capsys, tmp_path, data):
    f = tmp_path / "g.json"
    f.write_text(json.dumps(data))
    code, out, err = run(capsys, "graph", f"@{f}")
    assert (code, out) == (64, "")
    assert "must be integers" in err


K2_PARTITION = {"order": [1, 2], "boundaries": [2]}


@pytest.mark.parametrize(
    "argv, data, message",
    [
        (["graph", "@{f}"], {"edges": []}, "a graph has no 'n' key"),
        (["graph", "@{f}"], [1, 2], "a graph must be a JSON object, got [1, 2]"),
        (["partition", "K2", "--file", "{f}"], {"order": [1, 2]},
         "a partition has no 'boundaries' key"),
        (["order", "K2xK2", "--bl", "{f}"], {}, "a block collection has no 'partitions' key"),
        (["certify", "K2xK2xK2", "--partitions", "{f}"], {},
         "a block collection has no 'partitions' key"),
        (["order", "K2xK2", "--bl", "{f}"], {"partitions": [3]},
         "a partition must be a JSON object, got 3"),
        (["graph", "@{f}"], {"n": 2, "edges": 5}, "a graph's 'edges' must be a JSON list, got 5"),
        (["order", "K2xK2", "--bl", "{f}"], {"partitions": [K2_PARTITION] * 2, "block_perms": [1]},
         "a block collection's 'block_perms' must be a JSON object, got [1]"),
        (["order", "K2xK2", "--bl", "{f}"], {"partitions": 5},
         "a block collection's 'partitions' must be a JSON list, got 5"),
    ],
    ids=[
        "graph-no-n", "graph-list", "partition", "order", "certify", "order-partition-3",
        "graph-edges-5", "order-block-perms-list", "order-partitions-5",
    ],
)
def test_json_without_a_key_or_not_an_object_exits_64(capsys, tmp_path, argv, data, message):
    f = tmp_path / "in.json"
    f.write_text(json.dumps(data))
    argv = [a.format(f=f) for a in argv]
    assert run(capsys, *argv) == (64, "", f"error: {message}\n")


RULE_ARGVS = [
    ("profile", "P3xC7", "--format", "json"),
    ("profile", "C3xC7"),
    ("profile", "K4xP5", "--format", "text"),
    ("profile", "petersenxK2", "--format", "json"),
    ("profile", "C4xC5", "--format", "csv"),
    ("profile", "P2xP10", "--format", "json"),
    ("profile", "K2xK3xK4", "--format", "json"),
    ("profile", "K2^3xK3"),
    ("profile", "P3xP3xK2", "--format", "json"),
    ("profile", "K4^2", "--format", "text"),
    ("order", "K2xK3xK4", "--lex", "--verify", "--format", "json"),
    ("order", "K3xK2", "--lex", "--verify", "--format", "json"),
]


def test_profile_rule_reports_match_the_subset_dp(capsys, monkeypatch):
    """With the order rule and with the subset DP (the profile rule off,
    orders verified under `--strategy full`): the explorer's report is the
    same, and product profiles and verified orders have the same exit
    codes and values, their JSON differing only in the engine named."""
    from blocklex import solver

    def reports(*order_flags):
        explore = run(capsys, "explore", "path_clique", "--max-vertices", "20")
        return explore, [
            run(capsys, *argv, *(order_flags if argv[0] == "order" else ()))
            for argv in RULE_ARGVS
        ]

    explore, rule = reports()
    monkeypatch.setattr(solver, "_rule_profile", lambda g: None)
    explore_dp, dp = reports("--strategy", "full")
    assert explore == explore_dp and explore[0] == 0
    engines = []
    for argv, a, b in zip(RULE_ARGVS, rule, dp):
        assert a[0] == b[0] and a[0] in (0, 2), argv
        if "json" not in argv:
            assert a == b, argv
            continue
        ja, jb = json.loads(a[1]), json.loads(b[1])
        engines.append((ja["result"].pop("engine"), jb["result"].pop("engine")))
        assert ja == jb, argv
    # the lexicographic order of P3xP3xK2 misses the bound and the standard
    # block-lex order meets it
    assert engines == [("sandwich", "full")] * 7


CERTIFY_ARGVS = [
    ("certify", "P4xK3xC5"),
    ("certify", "P3xC5xP4", "--format", "json"),
    ("certify", "C5xK3xK2xC4", "--format", "json"),
    ("certify", "petersen^2xK2", "--format", "json"),
    ("certify", "K2xK3xK4", "--partitions", "atomic", "--format", "json"),
    ("certify", "K4xK2xK3", "--partitions", "atomic"),
    ("certify", "K2xK3xK4", "--domination", "1,2,3", "--format", "json"),
    ("certify", "K2xK3xK4", "--domination", "3,1,2"),
    ("certify", "C6^3"),
    ("certify", "C6^3", "--format", "json"),
    ("certify", "P4^3", "--format", "json"),
    ("certify", "K3^3", "--format", "json"),
    ("explore", "hspi", "--p", "3", "--i", "1", "--d", "2", "--format", "json"),
]


def test_rank_space_certificates_match_built_orders(capsys, monkeypatch):
    """Certificates from prefix counts read in rank space equal those of
    the products, geometries and orders they replace: with every
    rank-space count patched back to an order built on a product graph,
    stdout and exit codes are the same."""
    import importlib

    import numpy as np

    from blocklex import TotalOrder, block_lex_order, blockgeom, cartesian_product
    from blocklex import lex_order, prefix_edge_counts

    certify_module = importlib.import_module("blocklex.certify")

    def product(gs):
        return cartesian_product(gs) if isinstance(gs, list) else gs

    def built_block_lex(gs, dc):
        g = product(gs)
        return prefix_edge_counts(g, block_lex_order(g, dc))

    def built_lex(factors, orders=None):
        factors = [getattr(f, "g", f) for f in factors]  # a segment's table
        if not factors:  # a block of one-vertex segments
            return np.zeros(2, dtype=np.int64)
        g = cartesian_product(factors)
        if orders is None:
            orders = [TotalOrder.identity(f.n) for f in factors]
        return prefix_edge_counts(g, lex_order(g, orders))

    rank_space = [run(capsys, *argv) for argv in CERTIFY_ARGVS]
    monkeypatch.setattr(certify_module, "block_lex_prefix_counts", built_block_lex)
    monkeypatch.setattr(certify_module, "product_prefix_counts", built_lex)
    monkeypatch.setattr(blockgeom, "product_prefix_counts", built_lex)
    built = [run(capsys, *argv) for argv in CERTIFY_ARGVS]
    for argv, a, b in zip(CERTIFY_ARGVS, rank_space, built):
        assert a[:2] == b[:2], argv
    assert [r[0] for r in rank_space] == [0, 2, 0, 0, 0, 2, 0, 2, 2, 2, 2, 0, 0]


def test_emitter_matches_the_stdlib_encoder_on_every_json_type():
    """Escapes, non-ASCII text, floats, empty and nested containers,
    tuples, bools, None, int and str subclasses and non-str keys give the
    stdlib's bytes, as a whole and value by value."""
    import enum
    from collections import OrderedDict

    from blocklex.cli import _dumps

    class Level(enum.IntEnum):
        LOW = 1

    class Name(str):
        pass

    obj = {
        "escapes": "quote \" backslash \\ slash / newline \n tab \t nul \x00 \x1f \x7f",
        "non_ascii": ["h\u00e9llo", "\u2713", "\U0001d518", "\u2028", "caf\u00e9"],
        "floats": [0.0, -0.0, 1.5, 1e300, 1e-7, 3.0, float("nan"), float("inf"), -float("inf")],
        "empty": {"list": [], "dict": {}, "tuple": (), "str": ""},
        "nested": [[[]], [{}], [[1, [2, [3, []]]]], {"a": {"b": {"c": [{}]}}}],
        "tuple": (1, "two", (3,), None, ()),
        "bools": [True, False, None, 0, 1],
        "ints": [0, -1, 2**70, -(2**70)],
        "strs": ["a", "\u00e9", "", "\n"],
        "mixed": [1, "a", 1.0, True, None, [], {}, (2,)],
        "subclasses": [Level.LOW, Name("named"), {Name("k"): Level.LOW}],
        "ordered": OrderedDict([("b", 1), ("a", [2.5])]),
        "int_keys": {2: "b", 1: ["a"], -3: {}},
        "float_keys": {1.5: 1, 0.25: [True]},
        "bool_keys": {True: 1, False: 2},
        "none_key": {None: [None]},
        "none": None,
        "true": True,
        "false": False,
        "int": 7,
        "float": 2.5,
        "str": "s",
    }
    want = json.dumps(obj, indent=2, sort_keys=True)
    assert _dumps(obj) == want
    for value in [*obj.values(), [obj], (obj, obj), {"only": obj}]:
        assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_emitter_raises_what_the_stdlib_encoder_raises():
    import numpy as np

    from blocklex.cli import _dumps

    for bad in (
        {"a": np.int64(1)},
        [1, "x", {"k": {2, 3}}],
        {1: "a", "b": 2},
        {"k": [object()]},
        {(1, 2): "tuple key"},
    ):
        with pytest.raises(TypeError) as want:
            json.dumps(bad, indent=2, sort_keys=True)
        with pytest.raises(TypeError) as got:
            _dumps(bad)
        assert str(got.value) == str(want.value)


def test_emit_leaves_no_garbage(capsys, monkeypatch):
    """A certify report is written without reference cycles: with the
    collector off, an emit leaves nothing for it to find (the stdlib's
    indenting encoder leaves its generator closures)."""
    import argparse
    import gc

    from blocklex import certify, cli, cycle

    monkeypatch.undo()  # the autouse check calls the stdlib encoder
    result = certify([cycle(5), cycle(4), cycle(3)]).to_json()
    cfg = argparse.Namespace(fmt="json", out=None, command="certify", seed=None)
    gc.collect()
    gc.disable()
    try:
        cli._emit(cfg, {"spec": "C5xC4xC3"}, result, [])
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
    assert json.loads(capsys.readouterr().out)["result"] == result


# -- collections that fail validation, and `order --verify` by the one rule -----


def _k3xk2_collection(tmp_path, spec="K3xK2"):
    """The standard collection of spec with the lexicographic block
    permutation, which is not optimal on K3xK2 (it fails at m = 3)."""
    from blocklex import parse_graph_spec, standard_collection

    data = standard_collection(parse_graph_spec(spec).factors).to_json()
    data["block_perms"] = {key: [1, 2] for key in data["block_perms"]}
    path = tmp_path / f"{spec}.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_a_collection_that_fails_validation_exits_2(capsys, tmp_path):
    dc = _k3xk2_collection(tmp_path)
    for verify in ((), ("--verify",)):
        code, out, err = run(capsys, "order", "K3xK2", "--bl", dc, *verify)
        assert (code, out) == (2, "")
        assert "not optimal for the block graph (fails at m=3)" in err


def test_a_collection_that_does_not_fit_exits_64(capsys, tmp_path):
    dc = _k3xk2_collection(tmp_path, "K3xK3")
    assert run(capsys, "order", "K3xK2", "--bl", dc)[0] == 64
    assert run(capsys, "order", "K3xK2xK2", "--bl", _k3xk2_collection(tmp_path))[0] == 64
    (tmp_path / "bad.json").write_text("{")
    assert run(capsys, "order", "K3xK2", "--bl", str(tmp_path / "bad.json"))[0] == 64


def test_a_block_permutation_of_floats_exits_64(capsys, tmp_path):
    from blocklex import parse_graph_spec, standard_collection

    data = standard_collection(parse_graph_spec("K2xK3").factors).to_json()
    data["block_perms"] = {key: [1.0, 2.0] for key in data["block_perms"]}
    path = tmp_path / "dc.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "order", "K2xK3", "--bl", str(path))
    assert (code, out) == (64, "")
    assert err == "error: block permutations must be integers, got 1.0\n"


def test_a_partition_order_of_floats_exits_64(capsys, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"order": [1.0, 2.5, 3], "boundaries": [3]}))
    code, out, err = run(capsys, "partition", "K3", "--file", str(path))
    assert (code, out) == (64, "")
    assert err == "error: partition order ranks must be integers, got 1.0\n"
    path.write_text(json.dumps({"order": [1, 2, 3], "boundaries": [3]}))
    assert run(capsys, "partition", "K3", "--file", str(path))[0] == 0


def test_a_set_of_floats_and_bools_exits_64(capsys):
    code, out, err = run(capsys, "compress", "K2xK3", "--set", "[0.9, 2.5, true]")
    assert (code, out) == (64, "")
    assert err == "error: vertex ids must be integers, got 0.9\n"
    assert run(capsys, "compress", "K2xK3", "--set", "[0, true]")[0] == 64
    assert run(capsys, "compress", "K2xK3", "--set", "5")[:2] == (64, "")
    assert run(capsys, "compress", "K2xK3", "--set", "[]")[0] == 0


def test_a_standard_collection_that_fails_validation_exits_2(capsys, monkeypatch):
    from blocklex import DominationCollection, cli

    standard = cli.standard_collection

    def lexicographic(gs):
        dc = standard(gs)
        return DominationCollection(dc.partitions, {}, (0, 1))

    monkeypatch.setattr(cli, "standard_collection", lexicographic)
    for argv in (
        ("order", "K3xK2", "--sbl"),
        ("compress", "K3xK2", "--family", "sbl", "--set", "[0]"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: standard collection failed validation: block (0, 0)")
    assert run(capsys, "order", "K5", "--sbl")[0] == 64


def test_order_verify_without_factor_orders_compares_with_the_dp(
    capsys, tmp_path, non_nested_7
):
    """A factor without nested solutions leaves the rule nothing to refute
    with, so `order --verify` compares with the subset DP's profile."""
    from blocklex import (
        TotalOrder,
        atomic_partition,
        cartesian_product,
        clique,
        uniform_collection,
    )

    g = cartesian_product([non_nested_7, clique(2)])
    spec, dc = tmp_path / "g.json", tmp_path / "dc.json"
    spec.write_text(json.dumps(g.to_json()))
    parts = [atomic_partition(TotalOrder.identity(f.n)) for f in g.factors]
    dc.write_text(json.dumps(uniform_collection(parts).to_json()))
    code, out, _ = run(
        capsys, "order", f"@{spec}", "--bl", str(dc), "--verify", "--format", "json"
    )
    result = json.loads(out)["result"]
    assert (code, result["engine"], result["first_failing_m"]) == (2, "full", 3)
