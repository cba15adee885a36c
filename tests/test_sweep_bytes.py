"""Sweep reports pinned byte for byte.

`sweep_bytes.json` holds, per command, the literal argv, the exit code and
the SHA-256 of the stdout: every command of the benchmark's sweep passes
for seeds 1-3 and every explorer command a sweep pass can draw.  The test
runs each argv in-process, from cold caches, and compares, so any change
to the profile rule, the explorers or the order and compression commands
that moves a sweep report shows here.

Regenerate the table (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_sweep_bytes.py > tests/sweep_bytes.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from blocklex import cli, solver

TABLE = Path(__file__).with_name("sweep_bytes.json")
SEEDS = (1, 2, 3)


def _run(argv) -> tuple[int, str]:
    solver.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_sweep_reports_match_the_pinned_digests():
    pinned = json.loads(TABLE.read_text())
    assert len(pinned) > 100
    changed = [
        argv for argv, code, digest in pinned if _run(argv) != (code, digest)
    ]
    assert not changed, f"{len(changed)} reports changed, first {changed[:3]}"


def _argvs() -> list[tuple[str, ...]]:
    """The distinct argvs of the sweep passes of SEEDS and the explorers,
    in first-seen order; read from the benchmark's generators."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    argvs = [c.argv for seed in SEEDS for c in workloads.build("sweep", seed)]
    return list(dict.fromkeys(argvs + workloads.explorer_argvs()))


if __name__ == "__main__":
    rows = [[list(argv), *_run(argv)] for argv in _argvs()]
    sys.stdout.write("[\n" + ",\n".join(json.dumps(r) for r in rows) + "\n]\n")
