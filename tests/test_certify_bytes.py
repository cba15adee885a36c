"""Certify reports pinned byte for byte.

`certify_bytes.json` holds, per case, the exit code and the SHA-256 of the
stdout of `certify ... --format json`: every ordered triple of seven small
factors under standard and atomic partitions, forty seeded four-factor
products, and custom collections that each break one hypothesis.  The test
recomputes every case in-process, from cold caches, and compares.

Regenerate the table (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_certify_bytes.py > tests/certify_bytes.json
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from pathlib import Path

from blocklex import (
    Partition,
    TotalOrder,
    cli,
    factor_profile_and_order,
    solver,
    standard_collection,
)
from blocklex.certify import resolve_partitions
from blocklex.graphs import parse_graph_spec

TABLE = Path(__file__).with_name("certify_bytes.json")
TRIPLE_ATOMS = ("K2", "K3", "C4", "C5", "P3", "P4", "petersen")
FOUR_ATOMS = ("K2", "K3", "K4", "C3", "C4", "C5", "C6", "P3", "P4", "P5", "petersen")


def _collection(spec, partitions=None, perms=None):
    """The standard collection of the product spec as JSON, with the given
    factor partitions (index -> Partition) swapped in and the given block
    permutations (0-based block id -> 0-based permutation) set."""
    gs = list(parse_graph_spec(spec).factors)
    parts = resolve_partitions(gs, "standard")
    for i, p in (partitions or {}).items():
        parts[i] = p
    dc = standard_collection(gs, parts)
    dc.block_perms.update(perms or {})
    return dc.to_json()


def _controls():
    """Custom collections, each breaking one hypothesis: name -> (spec,
    collection JSON, the hypothesis that fails)."""
    pet, c4 = parse_graph_spec("petersen"), parse_graph_spec("C4")
    crossed = Partition.from_boundaries(TotalOrder.from_sequence([0, 2, 1, 3]), [4])
    peeled = Partition.from_boundaries(factor_profile_and_order(pet)[1], [1, 10])
    # C4 in the order 0, 1, 2, 3 is optimal, but the rank-3 vertex sends no
    # edge back to the first segment, where delta(2) = 1 asks for one
    split = Partition.from_boundaries(factor_profile_and_order(c4)[1], [1, 3, 4])
    return {
        "order_not_optimal": (
            "C4xC4xC4", _collection("C4xC4xC4", {0: crossed}),
            "isoperimetric_partition_factor_1",
        ),
        "segment_order_not_optimal": (
            "petersenxK2xK2", _collection("petersenxK2xK2", {0: peeled}),
            "isoperimetric_partition_factor_1",
        ),
        "wrong_back_degree": (
            "C4xK2xK2", _collection("C4xK2xK2", {0: split}),
            "isoperimetric_partition_factor_1",
        ),
        "failing_block_class": (
            "K2xK3xK4", _collection("K2xK3xK4", perms={(0, 0, 0): (2, 1, 0)}),
            "domination_collection",
        ),
        "inconsistent_restrictions": (
            "C4xC4xC4", _collection("C4xC4xC4", perms={(0, 0, 1): (1, 0, 2)}),
            "domination_collection",
        ),
        "irregular_middle": (
            "C4xP4xC4", _collection("C4xP4xC4"), "regular_domination_collection",
        ),
    }


def _cases(folder: Path):
    """(case id, argv) for every pinned case; collections go to folder."""
    for style in ("standard", "atomic"):
        for names in itertools.product(TRIPLE_ATOMS, repeat=3):
            spec = "x".join(names)
            yield f"{style}:{spec}", ["certify", spec, "--partitions", style]
    rng = random.Random(17)
    for _ in range(40):
        spec = "x".join(rng.choice(FOUR_ATOMS) for _ in range(4))
        yield f"four:{spec}", ["certify", spec]
    for name, (spec, dc, _) in _controls().items():
        path = folder / f"{name}.json"
        path.write_text(json.dumps(dc))
        yield f"control:{name}", ["certify", spec, "--partitions", str(path)]


def _run(argv) -> tuple[int, str]:
    solver.clear_caches()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--format", "json"])
    return code, out.getvalue()


def _digests(folder: Path) -> dict:
    out = {}
    for case, argv in _cases(folder):
        code, text = _run(argv)
        out[case] = [code, hashlib.sha256(text.encode()).hexdigest()]
    return out


def test_certify_reports_match_the_pinned_digests(tmp_path):
    pinned = json.loads(TABLE.read_text())
    got = _digests(tmp_path)
    assert got.keys() == pinned.keys()
    changed = [case for case in pinned if got[case] != pinned[case]]
    assert not changed, f"{len(changed)} reports changed, first {changed[:5]}"


def test_negative_controls_fail_their_hypothesis(tmp_path):
    for name, (spec, dc, failing) in _controls().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dc))
        code, text = _run(["certify", spec, "--partitions", str(path)])
        result = json.loads(text)["result"]
        assert (code, result["status"]) == (2, "hypothesis_failed"), name
        [first] = [h for h in result["hypotheses"] if not h["verified"]]
        assert first["name"] == failing, name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        json.dump(_digests(Path(folder)), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
