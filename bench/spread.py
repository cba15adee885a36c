"""Run one workload under several seeds and report, per metric, the median,
the quartiles and the spread (q3 - q1) / median.

    python3 bench/spread.py --workload certify --runs 10 --seconds 50

Seeds 1 to --runs, one untraced run each.

A benchmark is steady enough to compare commits when every end-to-end
spread stays well below that metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--out", help="write the summary as JSON to this file")
    args = ap.parse_args(argv)
    seeds = list(range(1, args.runs + 1))
    per_metric: dict[str, list] = {}
    units, failed, attempted, correct = {}, [], [], True
    for seed in seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True, timeout=600,
        )
        res = json.loads(done.stdout.strip().splitlines()[-1])
        correct &= res["correct"]
        failed.append(res["failed"])
        attempted.append(res["attempted"])
        for name, m in res["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": seeds,
        "correct": correct,
        "failed": failed,
        "attempted": attempted,
        "metrics": {k: {"unit": units[k], **summarize(v)} for k, v in per_metric.items()},
    }
    for name, s in summary["metrics"].items():
        print(f"{name:36s} median {s['median']:.6g} {s['unit']}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
