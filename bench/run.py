"""End-to-end benchmark of the blocklex CLI.

    python3 bench/run.py --workload certify|sweep|all --seed N \
        --seconds S --trace 0|1

One process runs one workload: a closed loop with one client that calls
`blocklex.cli.main(argv)` in-process, one command after another, and calls
`blocklex.solver.clear_caches()` before each command so that every command
starts as cold as a fresh CLI process.  The seed makes the argv lists
(workloads.py); a pass runs each of them once, and passes repeat until
--seconds have gone by.  Every command's verdict is checked (verdicts.py),
and its report must be byte-identical in every pass.

A command's time is the fastest of its runs in the untraced passes: the
other tenants of a shared machine only ever add time, and the fastest run
is the command's own cost.  Interpreter starts (setup_s) are timed the
same way, between passes, from a small helper process.

With --trace 0 the last line carries the end-to-end metrics; with --trace 1
untraced and traced passes alternate, the traced ones record spans around
every layer (spans.py, written to bench/out/), and the last line carries
the per-layer metrics.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

# one interpreter start timed per this many seconds of a run
SETUP_EVERY_S = 2.0

END_TO_END = {
    "wall_s": "s",
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics in the result line of a traced run.  Self times are
# listed only for layers every workload reaches; the rest are printed in
# the report.
PER_LAYER = {
    "solver.exact_profile.calls": "count",
    "solver.exact_profile.self_s": "s",
    "solver.exact_profile.repeat_frac": "ratio",
    "solver.dp.self_s": "s",
    "solver.dp.cells": "count",
    "solver.dp.max_n": "count",
    "solver.bnb.calls": "count",
    "solver.chain.calls": "count",
    "solver.chain.nodes": "count",
    "solver.chain.self_s": "s",
    "solver.factor_cache.calls": "count",
    "solver.factor_cache.hit_frac": "ratio",
    "solver.verify.calls": "count",
    "staircase.downset.calls": "count",
    "staircase.downset.shapes": "count",
    "staircase.stacked.calls": "count",
    "blockgeom.validate.calls": "count",
    "blockgeom.block_lex_order.calls": "count",
    "blockgeom.block_lex_order.vertices": "count",
    "compression.compress_once.calls": "count",
    "compression.fixpoint.cycles": "count",
    "partitions.validate.calls": "count",
    "partitions.segment_delta.calls": "count",
    "graphs.build.calls": "count",
    "graphs.build.self_s": "s",
    "cli.self_s": "s",
    "certify.certify.calls": "count",
    "certify.crosscheck.calls": "count",
    "certify.explore.calls": "count",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# Single commands whose wall time and peak RSS ROADMAP item 2 sets
# targets for; each runs once in its own process, for information only,
# at the end of a traced run (where end-to-end figures are not taken).
ROWS = {"certify": "certify C5xC4xK2xC3", "sweep": "profile C24 --witnesses"}


# The helper that times interpreter starts: for each line on its stdin, it
# starts a Python process that imports blocklex.cli and prints the seconds
# from the start to the end of that import.
SAMPLER = """
import subprocess, sys, time
for _ in sys.stdin:
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", "import time, blocklex.cli; print(time.monotonic())"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    print(float(done.stdout) - start, flush=True)
"""


class SetupSampler:
    """Times starting a Python process up to having imported blocklex.cli,
    the cost a CLI user pays on every invocation.  The starts are made by a
    helper process launched before this one loads blocklex, numpy or the
    workload, so the size of this process does not enter the time."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SAMPLER], env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.samples: list[float] = []

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the interpreter-start helper stopped")
        self.samples.append(float(line))
        return self.samples[-1]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=130)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def execute(argv) -> tuple[float, object, str, str]:
    """One cold CLI command in-process: (seconds, exit code, stdout, stderr).
    A command that raises gets exit code None and its traceback."""
    from blocklex import cli, solver

    solver.clear_caches()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except Exception:  # a crash is a failed command, and the run goes on
        rc = None
        err.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue(), err.getvalue()


def run_pass(cmds, tracer=None):
    """Each command once: (pass seconds, per-command seconds, outputs)."""
    times, outs = [], []
    start = time.perf_counter()
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.command = i
        dt, rc, out, err = execute(cmd.argv)
        times.append(dt)
        outs.append((rc, out, err))
    return time.perf_counter() - start, times, outs


class Ledger:
    """Verdicts of every command executed.  A command's first report is
    checked; later reports must repeat it byte for byte."""

    def __init__(self, cmds):
        self.cmds = cmds
        self.first: list = [None] * len(cmds)
        self.verdict: list = [None] * len(cmds)
        self.attempted = self.failed = self.inconclusive = 0
        self.problems: dict[str, list] = {}

    def _problems(self, i, rc, out, err) -> list:
        if self.first[i] is None:
            self.first[i] = (rc, out)
            if rc is None:
                self.verdict[i] = ["raised: " + err.strip().splitlines()[-1]]
            else:
                try:
                    self.verdict[i] = self.cmds[i].check(rc, out)
                except Exception as e:  # e.g. two engines disagree: no expected verdict
                    self.verdict[i] = [f"no expected verdict: {type(e).__name__}: {e}"]
                if rc == 64:
                    self.verdict[i].append("usage error: " + err.strip())
        if (rc, out) != self.first[i]:
            return self.verdict[i] + ["report differs from the first pass"]
        return self.verdict[i]

    def record(self, outs) -> None:
        for i, (rc, out, err) in enumerate(outs):
            self.attempted += 1
            self.inconclusive += rc == 3
            probs = self._problems(i, rc, out, err)
            if probs:
                self.failed += 1
                for p in probs:
                    self.mismatch(self.cmds[i].text, p)

    def mismatch(self, key: str, what: str) -> None:
        probs = self.problems.setdefault(key, [])
        if what not in probs:
            probs.append(what)

    @property
    def correct(self) -> bool:
        """No problem other than a named negative control's status outside
        its allowed set."""
        from verdicts import StatusOutsideAllowed

        controls = {c.text for c in self.cmds if c.control}
        return all(
            text in controls and all(isinstance(p, StatusOutsideAllowed) for p in probs)
            for text, probs in self.problems.items()
        )


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile that still has ten commands above it: the
    percentile, its value and the commands above it.  With fewer than
    eleven commands, the maximum."""
    s = sorted(times)
    k = len(s) - 11 if len(s) >= 11 else len(s) - 1
    return 100.0 * (k + 1) / len(s), s[k], len(s) - 1 - k


def run_single(text: str) -> None:
    sys.path.insert(0, str(SRC))
    dt, rc, _, _ = execute(text.split() + ["--format", "json"])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"wall_s": dt, "peak_rss_mb": rss, "rc": rc}))


def single_row(text: str) -> str:
    done = subprocess.run(
        [sys.executable, __file__, "--single", text], capture_output=True, text=True, check=True, timeout=170
    )
    row = json.loads(done.stdout.strip().splitlines()[-1])
    return (
        f"row  {text}: wall_s {row['wall_s']:.4f} s, peak_rss_mb {row['peak_rss_mb']:.1f} MB, "
        f"exit {row['rc']} (1 run in its own process; information only)"
    )


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # the helper starts while this process is still small: neither
    # blocklex nor numpy is loaded, and no workload has run
    with SetupSampler() as setup:
        setup.sample()  # the first start may compile bytecode
        setup.samples.clear()
        return _run(workload, seed, seconds, trace, setup)


def _run(workload: str, seed: int, seconds: float, trace: bool, setup: SetupSampler) -> dict:
    sys.path[:0] = [str(SRC), str(BENCH)]
    import spans
    import workloads

    cmds = workloads.build(workload, seed)
    ledger = Ledger(cmds)
    walls, per_pass, traced_walls, layers, tracers = [], [], [], [], []
    measured = 0.0
    while True:
        started = time.monotonic()
        # in a traced run, alternate which side of each pair goes first
        for traced in ([False, True][:: -1 if len(walls) % 2 else 1] if trace else [False]):
            tracer = spans.Tracer() if traced else None
            if traced:
                tracer.install()
            try:
                wall, ts, outs = run_pass(cmds, tracer)
            finally:
                if traced:
                    tracer.uninstall()
            ledger.record(outs)
            if not traced:
                walls.append(wall)
                per_pass.append(ts)
                continue
            for i, (rc, out, _) in enumerate(outs):
                if (rc, out) != ledger.first[i]:
                    ledger.mismatch(cmds[i].text, "traced report differs from the untraced one")
            traced_walls.append(wall)
            layers.append(spans.layer_metrics(tracer.spans, wall))
            if spans.counters(layers[-1]) != spans.counters(layers[0]):
                ledger.mismatch("trace", "layer counters differ between traced passes")
            tracers.append(tracer)
        # interpreter starts, spread over the run
        while len(setup.samples) * SETUP_EVERY_S < measured + time.monotonic() - started:
            setup.sample()
        step = time.monotonic() - started
        measured += step
        if measured + step / 2 >= seconds:
            break

    lines = [
        f"workload {workload}, seed {seed}: {len(cmds)} commands per pass, {len(walls)} "
        f"untraced passes{f', {len(traced_walls)} traced' if trace else ''}; closed loop, one client, "
        "caches cleared before each command",
    ]
    # a command's time is the fastest of its runs: the other tenants of a
    # shared machine only add time, in spells that can outlast a pass
    times = [min(ts) for ts in zip(*per_pass)]
    pct, tail_s, above = tail(times)
    e2e = {
        "wall_s": math.fsum(times),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": min(setup.samples),
    }
    for name, unit in END_TO_END.items():
        note = {
            "wall_s": f"sum over {len(times)} commands of each one's fastest of {len(walls)} runs; "
            f"median pass {statistics.median(walls):.3f} s",
            "cmd_p50_s": f"median of {len(times)} commands, each the fastest of its {len(walls)} runs",
            "cmd_tail_s": f"p{pct:.1f} of {len(times)} commands, {above} above",
            "setup_s": f"fastest of {len(setup.samples)} process starts spread over the run; "
            f"median {statistics.median(setup.samples):.3f} s",
            "peak_rss_mb": "ru_maxrss of this process",
        }[name]
        lines.append(f"  {name:18s} {e2e[name]:12.6f} {unit:5s} ({note})")
    lines.append(f"  {'failed_frac':18s} {ledger.failed / ledger.attempted:12.6f} ratio ({ledger.failed} of {ledger.attempted})")
    lines.append(
        f"  {'inconclusive_frac':18s} {ledger.inconclusive / ledger.attempted:12.6f} ratio "
        f"({ledger.inconclusive} of {ledger.attempted} exited 3)"
    )
    for text, probs in sorted(ledger.problems.items()):
        kind = "negative control" if any(c.text == text and c.control for c in cmds) else "FAILED"
        lines.append(f"  {kind}: {text}: {'; '.join(probs)}")

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if trace:
        layer = spans.median_metrics(layers)
        layer["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        lines.append("  traced passes: " + " ".join(f"{w:.3f}" for w in traced_walls))
        lines.append(f"  per layer (median of {len(layers)} traced passes):")
        lines += [f"    {k:40s} {v:14.6f}" for k, v in sorted(layer.items())]
        if tracers[0].missing:
            lines.append(f"  trace targets not found: {', '.join(tracers[0].missing)}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload}-{seed}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for p, tracer in enumerate(tracers):
                for rec in tracer.records():
                    f.write(json.dumps({"pass": p, **rec}) + "\n")
        lines.append(f"  spans: {path.relative_to(BENCH.parent)}")
        metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER.items()}
        if workload in ROWS:
            lines.append(single_row(ROWS[workload]))
    print("\n".join(lines))
    return {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in ("certify", "sweep"):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, timeout=600,
        )
        *report, last = done.stdout.strip().splitlines()
        print("\n".join(report))
        res = json.loads(last)
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w}.{k}": v for k, v in res["metrics"].items()})
    return merged


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=["certify", "sweep", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--single", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "blocklex" / "cli.py").is_file():
        print(f"error: no blocklex sources at {SRC}", file=sys.stderr)
        return 2
    if args.single:
        run_single(args.single)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
