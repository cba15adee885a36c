"""Record the explorer statuses that the sweep workload expects where no
theorem decides them.

    python3 bench/record.py

Runs every explorer command a sweep pass can draw (workloads.explorer_argvs)
and writes each instance's status to explore_statuses.json.  The file in
the repository holds the answers of the commit that added the benchmark;
run this again only to accept a reviewed change of those answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads as W  # noqa: E402
from blocklex import cli, solver  # noqa: E402


def main() -> int:
    table = {}
    for argv in W.explorer_argvs():
        solver.clear_caches()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(list(argv) + ["--format", "json"])
        instances = json.loads(out.getvalue())["result"]["instances"]
        table[" ".join(argv)] = [[i["name"], i["status"]] for i in instances]
    rows = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in table.items())
    W.RECORDED.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
