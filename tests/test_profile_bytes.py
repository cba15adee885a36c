"""`profile` reports pinned byte for byte in every format.

`profile_bytes.json` holds, per command, the literal argv, the exit code
and the SHA-256 of the stdout: `profile` in text, csv and json, with and
without `--theta` and `--witnesses`, on products, disjoint unions and
atoms on either side of the small-graph cutover, plus a budget that runs
out.  The test runs each argv in-process, from cold caches, and compares.

Regenerate the table (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_profile_bytes.py > tests/profile_bytes.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from blocklex import cli, solver

TABLE = Path(__file__).with_name("profile_bytes.json")
SPECS = (
    "C3xC7",
    "P3xP3xK2",
    "K2xK3xK3",
    "union(K4,C5,P3)",
    "union(C3,K5,P8)",
    "union(P3,C12)",
    "petersen",
    "K1",
)
FLAGS = ((), ("--theta",), ("--witnesses",), ("--theta", "--witnesses"))
FORMATS = ("text", "csv", "json")


def _argvs() -> list[tuple[str, ...]]:
    argvs = [
        ("profile", spec, *flags, "--format", fmt)
        for spec in SPECS
        for flags in FLAGS
        for fmt in FORMATS
    ]
    return argvs + [("profile", "K4xC5", "--budget", "1e-9", "--format", fmt) for fmt in FORMATS]


def _run(argv) -> tuple[int, str]:
    solver.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_profile_reports_match_the_pinned_digests():
    pinned = json.loads(TABLE.read_text())
    assert [tuple(argv) for argv, _, _ in pinned] == _argvs()
    changed = [
        argv for argv, code, digest in pinned if _run(argv) != (code, digest)
    ]
    assert not changed, f"{len(changed)} reports changed, first {changed[:3]}"


if __name__ == "__main__":
    rows = [[list(argv), *_run(argv)] for argv in _argvs()]
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
