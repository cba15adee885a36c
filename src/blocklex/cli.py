"""Batch front door: build graphs, compute profiles and delta-sequences,
construct and validate partitions and orders, run compression, certify
products, and explore conjectures, emitting machine-readable reports.

Reports are deterministic for a fixed config and seed (no timestamps),
embed the tool version and the digests of their inputs, and echo the seed
so randomized runs can be replayed.  Exit codes: 0 success/certified,
2 hypothesis or verification failure, 3 budget or size cap exceeded or
inconclusive, 64 usage or parse errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from . import __version__
from .blockgeom import DominationCollection, block_lex_order, standard_collection
from .budget import Budget, BudgetExceeded, Inconclusive, SizeCapExceeded
from .certify import certify, certify_domination, explore_conjecture
from .compression import (
    OrderFamily,
    compress_once,
    compress_to_fixpoint,
    is_block_compressed,
    is_compressed,
    is_slice_compressed,
    is_strongly_compressed,
    singleton_schedule,
    weight,
)
from .graphs import Graph, VertexSet, induced_edges, parse_graph_spec
from .orders import domination_order, lex_order, reverse_order
from .partitions import (
    Partition,
    atomic_partition,
    is_non_decreasing,
    is_regular_partition,
    standard_monotonic_partition,
    validate_isoperimetric_partition,
)
from .solver import (
    FULL_ENUM_CAP,
    ChainSearchInconclusive,
    NoNestedSolutions,
    check_order,
    clear_caches,
    delta_sequence,
    exact_profile,
    factor_profile_and_order,
    theta_profile,
    verify_order_optimal,
)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64

# engines `profile` and `order --verify` can be told to use; with none, a
# product is decided by the one order rule (`solver.check_prefix_counts`)
STRATEGIES = ["full", "compressed", "bnb"]


class UsageError(Exception):
    pass


class HypothesisFailed(Exception):
    """An input is well formed but fails a hypothesis the command needs."""


class _Parser(argparse.ArgumentParser):
    # on the top-level parser: each subcommand's name to its parser
    subcommands: dict[str, _Parser]

    def error(self, message):
        raise UsageError(message)


def _envelope(cfg: argparse.Namespace, inputs: dict, result: dict) -> dict:
    return {
        "tool": "blocklex",
        "version": __version__,
        "command": cfg.command,
        "seed": cfg.seed,
        "inputs": inputs,
        "result": result,
    }


def _write(cfg: argparse.Namespace, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as f:
            f.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dumps(obj) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)`, byte for byte, without
    the pure-Python encoder that `indent` selects."""
    out: list[str] = []
    _encode(obj, "\n", out)
    return "".join(out)


def _encode(obj, nl: str, out: list[str]) -> None:
    """Append obj's encoding at the indentation `nl` (a newline and the
    current indent) to out.  Exact strs and ints are encoded in C, and a
    list of only ints or only strs in one join; floats, subclasses, dicts
    with a key that is not a str and every other type go to `json.dumps`,
    which gives the same bytes or raises the same error."""
    t = type(obj)
    if t is str:
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "," + inner
        out.append("[" + inner)
        kinds = set(map(type, obj))
        if kinds == {int}:
            out.append(sep.join(map(int.__repr__, obj)))
        elif kinds == {str}:
            out.append(sep.join(map(_encode_str, obj)))
        else:
            for k, item in enumerate(obj):
                if k:
                    out.append(sep)
                _encode(item, inner, out)
        out.append(nl + "]")
    elif t is dict and all(type(k) is str for k in obj):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        out.append("{" + inner)
        for k, key in enumerate(sorted(obj)):
            if k:
                out.append("," + inner)
            out.append(_encode_str(key) + ": ")
            _encode(obj[key], inner, out)
        out.append(nl + "}")
    else:
        # JSON text has no raw newline outside its indentation
        out.append(json.dumps(obj, indent=2, sort_keys=True).replace("\n", nl))


def _emit(cfg: argparse.Namespace, inputs: dict, result: dict, text_lines, csv_lines=None) -> None:
    if cfg.fmt == "json":
        _write(cfg, _dumps(_envelope(cfg, inputs, result)))
    elif cfg.fmt == "csv":
        if csv_lines is None:
            raise UsageError(f"csv output is not available for '{cfg.command}'")
        _write(cfg, "\n".join(csv_lines))
    else:
        _write(cfg, "\n".join(text_lines))


def _load_json_arg(text: str):
    """Inline JSON, or @path to read a file."""
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as f:
            return json.load(f)
    return json.loads(text)


def _graph_from_spec(cfg: argparse.Namespace) -> Graph:
    spec = cfg.spec
    if spec.startswith("@"):
        return Graph.from_json(_load_json_arg(spec))
    try:
        return parse_graph_spec(spec)
    except ValueError as e:
        raise UsageError(str(e))


# -- subcommands ---------------------------------------------------------------


def _cmd_graph(cfg: argparse.Namespace) -> int:
    g = _graph_from_spec(cfg)
    data = g.to_json()
    deg = g.regular_degree()
    lines = [
        f"graph {cfg.spec}: n={g.n}, edges={g.num_edges}"
        + (f", regular of degree {deg}" if deg is not None else "")
    ]
    if g.factors is not None:
        lines.append(f"factors: {list(g.factor_shape)}")
    result = {"graph": data, "regular_degree": deg, "digest": g.digest}
    _emit(cfg, {"spec": cfg.spec}, result, lines)
    return EXIT_OK


def _cmd_profile(cfg: argparse.Namespace) -> int:
    g = _graph_from_spec(cfg)
    want_theta, want_witnesses = cfg.theta, cfg.witnesses
    inputs = {"spec": cfg.spec, "graph_digest": g.digest, "strategy": cfg.strategy}
    try:
        if want_theta:
            prof = theta_profile(g, with_witnesses=want_witnesses)
        else:
            prof = exact_profile(g, cfg.strategy, with_witnesses=want_witnesses)
    except BudgetExceeded as e:
        _emit(
            cfg,
            inputs,
            {"complete": False, "note": str(e)},
            [f"profile incomplete: {e}"],
            ["m,value", f"# incomplete: {e}"],
        )
        return EXIT_BUDGET
    vals = list(prof.i_values)
    result = {"kind": prof.kind, "values": vals, "complete": True, "engine": prof.strategy}
    if not want_theta:
        delta = result["delta"] = list(delta_sequence(prof).values)
    # only the requested format's lines are built: `_emit` reads one of them
    lines = None
    if cfg.fmt == "json":
        if want_witnesses and prof.witnesses is not None:
            result["witnesses"] = [sorted(w) for w in prof.witnesses]
    elif cfg.fmt == "csv" and want_theta:
        lines = ["m,theta"] + [f"{m},{v}" for m, v in enumerate(vals)]
    elif cfg.fmt == "csv":
        lines = ["m,I,delta", "0,0,"] + [
            f"{m},{vals[m]},{delta[m - 1]}" for m in range(1, len(vals))
        ]
    elif want_theta:
        lines = [f"boundary minima of {cfg.spec}:"] + [
            f"  m={m:3d}  theta={v}" for m, v in enumerate(vals)
        ]
    else:
        lines = [f"profile of {cfg.spec}: I and delta"] + [
            f"  m={m:3d}  I={vals[m]:5d}" + (f"  delta={delta[m-1]}" if m else "")
            for m in range(len(vals))
        ]
    _emit(cfg, inputs, result, lines, lines)
    return EXIT_OK


def _resolve_partition(cfg: argparse.Namespace, g: Graph) -> Partition:
    prof, order = factor_profile_and_order(g)
    if cfg.atomic:
        return atomic_partition(order)
    if cfg.boundaries:
        bounds = [int(x) for x in cfg.boundaries.split(",")]
        return Partition.from_boundaries(order, bounds)
    if cfg.file:
        return Partition.from_json(_load_json_arg("@" + cfg.file))
    return standard_monotonic_partition(delta_sequence(prof, order))


def _cmd_partition(cfg: argparse.Namespace) -> int:
    g = _graph_from_spec(cfg)
    if g.n > FULL_ENUM_CAP:
        raise SizeCapExceeded(
            f"partition command profiles the graph exactly; n <= {FULL_ENUM_CAP} required"
        )
    p = _resolve_partition(cfg, g)
    ok, diags = validate_isoperimetric_partition(g, p)
    nondec = is_non_decreasing(g, p)
    regular = is_regular_partition(g, p)
    result = {
        "partition": p.to_json(),
        "kind": p.kind,
        "segments": p.num_segments,
        "isoperimetric": ok,
        "diagnostics": diags,
        "non_decreasing": nondec,
        "regular": regular,
        "start_vertices": list(p.start_vertices()),
    }
    lines = [
        f"partition of {cfg.spec}: {p.num_segments} segments {list(p.segments)}",
        f"isoperimetric: {ok}; non-decreasing: {nondec}; regular: {regular}",
    ] + [f"  {d}" for d in diags]
    _emit(cfg, {"spec": cfg.spec, "graph_digest": g.digest}, result, lines)
    return EXIT_OK if ok else EXIT_HYPOTHESIS


def _check_fit(dc: DominationCollection, g: Graph) -> None:
    """A usage error unless dc has one partition per factor of g, each of
    that factor's size."""
    shape = tuple(p.n for p in dc.partitions)
    if g.factor_shape != shape:
        raise UsageError(
            f"a collection over factor sizes {list(shape)} does not fit a graph "
            f"with factor sizes {list(g.factor_shape or (g.n,))}"
        )


def _validated(dc: DominationCollection, g: Graph, what: str) -> DominationCollection:
    """dc, once it passes `validate` on g.  A collection that does not fit
    g's factors is a usage error; one that fails validation, a failed
    hypothesis."""
    _check_fit(dc, g)
    ok, diags = dc.validate(g)
    if not ok:
        raise HypothesisFailed(f"{what} collection failed validation: " + "; ".join(diags))
    return dc


def _cmd_order(cfg: argparse.Namespace) -> int:
    g = _graph_from_spec(cfg)
    if cfg.domination:
        kind = "domination"
    elif cfg.sbl:
        kind = "sbl"
    elif cfg.bl:
        kind = "bl"
    elif cfg.optimal:
        kind = "optimal"
    else:
        kind = "lex"
    if kind in ("lex", "domination", "sbl") and g.factors is None:
        raise UsageError(f"{kind} orders require a product spec")
    if kind == "lex":
        orders = [factor_profile_and_order(f)[1] for f in g.factors]
        order = lex_order(g, orders)
    elif kind == "domination":
        perm = tuple(int(x) - 1 for x in cfg.domination.split(","))
        orders = [factor_profile_and_order(f)[1] for f in g.factors]
        order = domination_order(g, orders, perm)
    elif kind == "sbl":
        order = block_lex_order(g, _validated(standard_collection(g.factors), g, "standard"))
    elif kind == "bl":
        dc = DominationCollection.from_json(_load_json_arg("@" + cfg.bl))
        order = block_lex_order(g, _validated(dc, g, "domination"))
    else:
        _, order = factor_profile_and_order(g)
    if cfg.reverse:
        order = reverse_order(order)
    engine = verified = failing = None
    if cfg.verify and cfg.strategy is None and g.factors is not None:
        with contextlib.suppress(NoNestedSolutions, ChainSearchInconclusive):
            engine, verified, failing, _ = check_order(g, order)
    # a named engine, a non-product, or a factor without proven nested solutions
    if cfg.verify and engine is None:
        prof = exact_profile(g, cfg.strategy, with_witnesses=False)
        engine, (verified, failing) = prof.strategy, verify_order_optimal(g, order, prof)
    result = {
        "order": order.to_json(),
        "kind": kind,
        "verified_optimal": verified,
        "first_failing_m": failing,
    }
    if cfg.verify:
        result["engine"] = engine
    lines = [f"order ({kind}) on {cfg.spec}: ranks={order.ranks.tolist()}"]
    if verified is not None:
        lines.append(
            f"optimal: {verified}" + (f" (fails at m={failing})" if failing else "")
        )
    _emit(cfg, {"spec": cfg.spec, "graph_digest": g.digest}, result, lines)
    if verified is False:
        return EXIT_HYPOTHESIS
    return EXIT_OK


def _cmd_compress(cfg: argparse.Namespace) -> int:
    g = _graph_from_spec(cfg)
    if g.factors is None:
        raise UsageError("compression requires a product spec")
    orders = [factor_profile_and_order(f)[1] for f in g.factors]
    if cfg.family == "sbl":
        dc = _validated(standard_collection(g.factors), g, "standard")
        family = OrderFamily.block_lexicographic(g, dc)
    else:
        dc = None
        family = OrderFamily.lexicographic(g, orders)
    inputs = {"spec": cfg.spec, "graph_digest": g.digest, "family": family.kind}

    if cfg.laws is not None:
        return _compress_laws(cfg, g, family, inputs)

    raw = cfg.set_arg
    if raw is None:
        raise UsageError("--set is required (JSON id list or @file)")
    ids = _load_json_arg(raw)
    a = VertexSet.from_ids(g.n, ids)
    result: dict = {"set": a.ids().tolist(), "size": len(a)}
    lines = [f"set of size {len(a)} on {cfg.spec}"]
    if cfg.once:
        s = tuple(int(x) - 1 for x in cfg.once.split(","))
        out = compress_once(g, a, s, family)
        result["compressed"] = out.ids().tolist()
        result["induced_before"] = induced_edges(g, a)
        result["induced_after"] = induced_edges(g, out)
        lines.append(
            f"compress once along factors {list(x + 1 for x in s)}: "
            f"{result['compressed']} (I {result['induced_before']} -> {result['induced_after']})"
        )
    elif cfg.fixpoint:
        out, cycles = compress_to_fixpoint(g, a, singleton_schedule(len(g.factors)), family)
        result["fixpoint"] = out.ids().tolist()
        result["cycles"] = cycles
        lines.append(f"fixpoint after {cycles} cycles: {result['fixpoint']}")
    elif cfg.weight:
        deltas = [
            delta_sequence(factor_profile_and_order(f)[0], o)
            for f, o in zip(g.factors, orders)
        ]
        result["weight"] = weight(g, a, deltas)
        result["induced"] = induced_edges(g, a)
        lines.append(f"weight={result['weight']}, induced edges={result['induced']}")
    else:  # predicates
        result["compressed"] = is_compressed(g, a, family)
        result["strongly_compressed"] = is_strongly_compressed(g, a, family)
        if dc is not None:
            result["block_compressed"] = is_block_compressed(g, dc, a)
            result["slice_compressed"] = is_slice_compressed(g, dc, a)
        lines.append(
            "predicates: " + ", ".join(f"{k}={v}" for k, v in result.items() if k not in ("set", "size"))
        )
    _emit(cfg, inputs, result, lines)
    return EXIT_OK


def _compress_laws(cfg: argparse.Namespace, g: Graph, family: OrderFamily, inputs: dict) -> int:
    """Seeded randomized compression-law check; violations are dumped as
    JSON so counterexamples are preserved."""
    n_samples = cfg.laws
    if n_samples < 1:
        raise UsageError(f"--laws needs at least 1 sample, got {n_samples}")
    rng = np.random.default_rng(cfg.seed)
    violations = []
    d = len(g.factors)
    for t in range(n_samples):
        size = int(rng.integers(0, g.n + 1))
        ids = rng.choice(g.n, size=size, replace=False)
        a = VertexSet.from_ids(g.n, ids)
        compressed = [compress_once(g, a, (i,), family) for i in range(d)]
        for i, out in enumerate(compressed):
            if len(out) != len(a):
                violations.append({"law": "size", "factor": i + 1, "set": a.ids().tolist()})
            if induced_edges(g, out) < induced_edges(g, a):
                violations.append({"law": "induced_non_decrease", "factor": i + 1, "set": a.ids().tolist()})
        sub_ids = rng.choice(g.n, size=size // 2 if size else 0, replace=False)
        b = VertexSet.from_ids(g.n, [i for i in sub_ids if i in a])
        for i, ca in enumerate(compressed):
            cb = compress_once(g, b, (i,), family)
            if not cb.issubset(ca):
                violations.append({"law": "monotone", "factor": i + 1, "set": a.ids().tolist(), "subset": b.ids().tolist()})
    result = {"samples": n_samples, "violations": violations, "ok": not violations}
    lines = [
        f"compression laws on {cfg.spec}: {n_samples} seeded samples (seed={cfg.seed})",
        f"violations: {len(violations)}",
    ]
    if violations:
        lines.append(json.dumps(violations, sort_keys=True))
    print(f"seed: {cfg.seed}", file=sys.stderr)
    _emit(cfg, inputs, result, lines)
    return EXIT_OK if not violations else EXIT_HYPOTHESIS


def _cmd_certify(cfg: argparse.Namespace) -> int:
    g = _graph_from_spec(cfg)
    if g.factors is None or len(g.factors) < 3:
        raise UsageError("certify needs a product spec with at least 3 factors")
    style = cfg.partitions
    if cfg.domination:
        perm = tuple(int(x) - 1 for x in cfg.domination.split(","))
        cert = certify_domination(g.factors, perm)
    else:
        if style in ("standard", "atomic"):
            parts, dc = style, None
        else:
            dc = DominationCollection.from_json(_load_json_arg("@" + style))
            _check_fit(dc, g)
            parts = list(dc.partitions)
        cert = certify(g, parts, dc, crosscheck=not cfg.no_crosscheck)
    result = cert.to_json()
    lines = [
        f"certify {cfg.spec}: {cert.status}"
        + (f" (failing: {cert.failing})" if cert.failing else ""),
    ]
    for h in cert.hypotheses:
        lines.append(f"  [{'ok' if h.verified else 'FAIL'}] {h.name}")
    if cert.conclusion:
        lines.append(f"conclusion: {cert.conclusion}")
    for c in cert.crosschecks:
        if "agreement" in c:
            lines.append(f"crosscheck agreement: {c['agreement']}")
    _emit(cfg, {"spec": cfg.spec, "graph_digest": g.digest}, result, lines)
    return cert.exit_code()


def _cmd_explore(cfg: argparse.Namespace) -> int:
    family = cfg.family
    params = {}
    for key in ("max_vertices", "s", "p", "i", "d", "c5", "petersen", "c4", "k2", "c3"):
        if getattr(cfg, key) is not None:
            params[key] = getattr(cfg, key)
    report = explore_conjecture(family, params)
    result = report.to_json()
    lines = [f"explore {family}: {report.statuses}"]
    for ins in report.instances:
        lines.append(f"  {ins.status:12s} {ins.name} (n={ins.n})")
    _emit(cfg, {"family": family, "params": params}, result, lines)
    if report.statuses["INCONCLUSIVE"]:
        return EXIT_BUDGET
    return EXIT_OK


# -- argument parsing ------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first `main` call and kept for the
    rest of the process: parsing reads it and leaves it unchanged."""
    parser = _Parser(prog="blocklex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def common(p: _Parser, handler, default_fmt: str = "text"):
        p.set_defaults(handler=handler)
        p.add_argument("--budget", type=float, default=600.0, help="wall-clock seconds")
        p.add_argument("--format", dest="fmt", choices=["json", "csv", "text"], default=default_fmt)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None)

    p = sub.add_parser("graph", help="build a graph from a spec and export it")
    p.add_argument("spec")
    common(p, _cmd_graph, "json")

    p = sub.add_parser("profile", help="exact I/theta/delta profile")
    p.add_argument("spec")
    p.add_argument("--theta", action="store_true")
    p.add_argument("--witnesses", action="store_true", help="include optimal sets")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    common(p, _cmd_profile, "csv")

    p = sub.add_parser("partition", help="standard/atomic/custom partitions with validation")
    p.add_argument("spec")
    p.add_argument("--standard", action="store_true")
    p.add_argument("--atomic", action="store_true")
    p.add_argument("--boundaries", default=None, help="comma-separated segment end ranks")
    p.add_argument("--file", default=None, help="partition JSON file")
    common(p, _cmd_partition)

    p = sub.add_parser("order", help="build and optionally verify orders")
    p.add_argument("spec")
    p.add_argument("--lex", action="store_true")
    p.add_argument("--domination", default=None, help="1-based significance permutation, comma-separated")
    p.add_argument("--sbl", action="store_true")
    p.add_argument("--bl", default=None, help="domination collection JSON file")
    p.add_argument("--optimal", action="store_true", help="order from the nested-chain search")
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    common(p, _cmd_order)

    p = sub.add_parser("compress", help="compression operations and predicates")
    p.add_argument("spec")
    p.add_argument("--set", dest="set_arg", default=None, help="JSON id list or @file")
    p.add_argument("--once", default=None, help="1-based factor indices, comma-separated")
    p.add_argument("--fixpoint", action="store_true")
    p.add_argument("--weight", action="store_true")
    p.add_argument("--laws", type=int, default=None, help="run N seeded law checks")
    p.add_argument("--family", choices=["lex", "sbl"], default="lex")
    common(p, _cmd_compress)

    p = sub.add_parser("certify", help="local-global certification of a product")
    p.add_argument("spec")
    p.add_argument("--partitions", default="standard", help="standard | atomic | dc JSON file")
    p.add_argument("--domination", default=None, help="certify a domination order instead")
    p.add_argument("--no-crosscheck", action="store_true")
    common(p, _cmd_certify, "json")

    p = sub.add_parser("explore", help="conjecture exploration (search only)")
    p.add_argument("family", choices=["path_clique", "hspi", "petersen_tori"])
    p.add_argument("--max-vertices", type=int, default=16)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--c5", type=int, default=None)
    p.add_argument("--petersen", type=int, default=None)
    p.add_argument("--c4", type=int, default=None)
    p.add_argument("--k2", type=int, default=None)
    p.add_argument("--c3", type=int, default=None)
    common(p, _cmd_explore, "json")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser()
    # the top-level parser would hand all of argv after a subcommand's name
    # to that subcommand's parser, so that parser takes it directly; the
    # top-level parser parses only help, an empty argv and unknown names
    sub = parser.subcommands.get(argv[0]) if argv else None
    try:
        if sub is None:
            cfg = parser.parse_args(argv)
        else:
            cfg = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not cfg.budget > 0:
            raise UsageError("budget must be positive")
        # a command's output must not depend on commands run before it
        clear_caches()
        with Budget(cfg.budget):
            return cfg.handler(cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (NoNestedSolutions, HypothesisFailed) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except Inconclusive as e:  # could not tell
        print(f"error: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
