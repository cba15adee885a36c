"""Spans around the calls into each blocklex layer, recorded from outside
the library.

`Tracer.install` wraps the public functions of every layer (and the
private DP and branch-and-bound kernels that carry the solver's time) in
every `blocklex.*` namespace that binds them, since the modules import
names with `from .x import y`.  A span records its name, start, end,
parent span and command id; spans stay in memory and are written as JSONL
at the end of a run.  Self time is a span's duration minus the time its
child spans cover.  A target that a later version of the library renames
or removes is reported as missing rather than failing the run.
"""

from __future__ import annotations

import functools
import math
import statistics
import sys
import time
from collections import defaultdict


def _cells(args, kw, out):
    strategy = args[1] if len(args) > 1 else kw.get("strategy", "full")
    full = strategy in ("full", "full_enumeration")
    return {"n": args[0].n, "cells": 2 ** args[0].n if full else 0, "digest": out.graph_digest}


def _shapes(args, kw, out):
    """Slab shapes of the three-factor downset DP: the level axis is the
    largest factor; shapes are the monotone paths in the box of the other
    two."""
    sizes = [f.n for f in args[0].factors]
    if len(sizes) != 3:
        return {"shapes": 0}
    b, c = sorted(sizes)[:2][::-1]
    return {"shapes": math.comb(b + c, c)}


# (module, attribute, span name, attributes from (args, kwargs, result))
TARGETS = (
    ("blocklex.cli", "main", "cli.main", None),
    ("blocklex.graphs", "parse_graph_spec", "graphs.build", None),
    ("blocklex.graphs", "cartesian_product", "graphs.build", None),
    ("blocklex.solver", "exact_profile", "solver.exact_profile", _cells),
    ("blocklex.solver", "theta_profile", "solver.theta_profile", _cells),
    ("blocklex.solver", "_dp_subset_values", "solver.dp", None),
    ("blocklex.solver", "_profile_from_values", "solver.dp", None),
    ("blocklex.solver", "_bnb_profile", "solver.bnb", None),
    ("blocklex.solver", "find_nested_chain", "solver.chain", lambda a, k, o: {"nodes": o.explored}),
    ("blocklex.solver", "factor_profile_and_order", "solver.factor_cache", None),
    ("blocklex.solver", "verify_order_optimal", "solver.verify", None),
    ("blocklex.staircase", "downset_profile", "staircase.downset", _shapes),
    ("blocklex.staircase", "stacked_profile", "staircase.stacked", None),
    ("blocklex.blockgeom", "DominationCollection.validate", "blockgeom.validate", None),
    ("blocklex.blockgeom", "block_lex_order", "blockgeom.block_lex_order",
     lambda a, k, o: {"vertices": a[0].n}),
    ("blocklex.compression", "compress_once", "compression.compress_once", None),
    ("blocklex.compression", "compress_to_fixpoint", "compression.fixpoint",
     lambda a, k, o: {"cycles": o[1]}),
    ("blocklex.partitions", "validate_isoperimetric_partition", "partitions.validate", None),
    ("blocklex.partitions", "segment_delta", "partitions.segment_delta", None),
    ("blocklex.certify", "certify", "certify.certify", None),
    ("blocklex.certify", "certify_domination", "certify.certify", None),
    ("blocklex.certify", "crosscheck", "certify.crosscheck", None),
    ("blocklex.certify", "explore_conjecture", "certify.explore", None),
)

LAYERS = sorted({t[2] for t in TARGETS} - {"solver.theta_profile"})
COUNTED = (
    "solver.exact_profile.repeat_s",
    "solver.dp.cells",
    "solver.dp.max_n",
    "solver.chain.nodes",
    "staircase.downset.shapes",
    "blockgeom.block_lex_order.vertices",
    "compression.fixpoint.cycles",
)


class Tracer:
    """Collects spans while installed.  `command` tags new spans."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, command, attrs]
        self.command = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kw):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kw)
            finally:
                rec[2] = clock()
                stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kw, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "blocklex" or k.startswith("blocklex.")]
        for modname, attr, name, attrs in TARGETS:
            owner = sys.modules.get(modname)
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part, None)
            leaf = attr.split(".")[-1]
            orig = getattr(owner, leaf, None)
            if orig is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, orig, attrs)
            homes = [owner] if "." in attr else modules
            for home in homes:
                for key, value in list(vars(home).items()):
                    if value is orig:
                        setattr(home, key, wrapper)
                        self._undo.append((home, key, orig))

    def uninstall(self) -> None:
        for home, key, orig in reversed(self._undo):
            setattr(home, key, orig)
        self._undo.clear()

    def records(self):
        keys = ("name", "start", "end", "parent", "command", "attrs")
        for i, rec in enumerate(self.spans):
            yield {"id": i, **dict(zip(keys, rec))}


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer counts and self times of one traced pass."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    has_child = {rec[3] for rec in spans}
    out: dict[str, float] = defaultdict(float)
    for name in LAYERS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for key in COUNTED:
        out[key] = 0
    seen: dict[int, set] = defaultdict(set)
    profile_calls = repeats = cache_hits = 0
    for i, rec in enumerate(spans):
        name, dur, attrs = rec[0], rec[2] - rec[1], rec[5] or {}
        layer = "solver.exact_profile" if name == "solver.theta_profile" else name
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += dur - child[i]
        if name in ("solver.exact_profile", "solver.theta_profile"):
            out["solver.dp.cells"] += attrs.get("cells", 0)
            if attrs.get("cells"):
                out["solver.dp.max_n"] = max(out["solver.dp.max_n"], attrs["n"])
        if name == "solver.exact_profile" and "digest" in attrs:
            profile_calls += 1
            if attrs["digest"] in seen[rec[4]]:
                repeats += 1
                out["solver.exact_profile.repeat_s"] += dur
            seen[rec[4]].add(attrs["digest"])
        if name == "solver.factor_cache" and i not in has_child:
            cache_hits += 1
        for key in ("nodes", "shapes", "vertices", "cycles"):
            if key in attrs:
                out[f"{name}.{key}"] += attrs[key]
    out["solver.exact_profile.repeat_frac"] = repeats / profile_calls if profile_calls else 0.0
    calls = out["solver.factor_cache.calls"]
    out["solver.factor_cache.hit_frac"] = cache_hits / calls if calls else 0.0
    covered = sum(child[i] for i, rec in enumerate(spans) if rec[0] == "cli.main")
    out["trace.coverage_frac"] = covered / wall_s if wall_s > 0 else 0.0
    out["cli.self_s"] = out.pop("cli.main.self_s")
    del out["cli.main.calls"]
    return dict(out)


COUNTERS = ("calls", "cells", "max_n", "nodes", "shapes", "vertices", "cycles", "repeat_frac", "hit_frac")


def counters(metrics: dict[str, float]) -> dict[str, float]:
    """The deterministic part of `layer_metrics`: counts, not times."""
    return {k: v for k, v in metrics.items() if k.rsplit(".", 1)[-1] in COUNTERS}


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Median of each time over traced passes; counters are equal in every
    pass, so they come from the first."""
    out = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    out.update(counters(runs[0]))
    return out
