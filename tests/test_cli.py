"""The command-line front door: outputs, exit codes, and replayability."""

import json

from blocklex.cli import main

PETERSEN_DELTA = [0, 1, 1, 1, 2, 1, 2, 2, 2, 3]


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
    _, out, _ = run(capsys, "certify", "C5xC4xC3", "--format", "json", "--crosscheck", "1,5")
    [check] = json.loads(out)["result"]["crosschecks"]
    assert {s["m"] for s in check["samples"]} == {1, 5}


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
    assert run(capsys, "profile", "P30")[0] == 64  # beyond the cap, refused


def test_budget_exceeded_exit_3(capsys):
    code, _, _ = run(capsys, "profile", "K2^4", "--budget", "0.0001")
    assert code == 3


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
