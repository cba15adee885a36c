"""Local-global certification of block-lexicographic orders, with
independent cross-checks, plus the conjecture explorer.

The certifier machine-checks the hypotheses that let two-dimensional
optimality propagate to any number of factors: every factor partition is
isoperimetric, the leading factors' partitions are non-decreasing, the
collection is a regular domination collection, and the two-factor
block-lexicographic order is optimal for every factor pair.  They all read
one `partitions.FactorTable` per distinct factor, built once per command.
Every order check, of a block, a pair or the crosscheck, is one call of
`solver.check_prefix_counts` on counts read from the factors in rank
space: the sandwich bound of the factors' profiles proves an order optimal
when met, and where it is missed the pair's bound itself (exact under
nested solutions), the slab DP on three factors or the subset DP decides.
A certificate carries one entry per hypothesis with evidence and is
emitted only if every entry verified; cross-checking runs the same
check on the certified order of the three-factor product, and revokes
only when the slab DP beats the order at some size.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .blockgeom import (
    DominationCollection,
    block_lex_order,
    block_lex_prefix_counts,
    standard_block_lex_order,
    standard_collection,
    uniform_collection,
    validate_regular_domination_collection,
)
from .budget import BlocklexError, BudgetExceeded, Inconclusive, SizeCapExceeded, UsageError
from .graphs import Graph, cartesian_product, clique, path, petersen, cycle
from .orders import TotalOrder
from .partitions import (
    Partition,
    atomic_partition,
    factor_table,
    is_non_decreasing,
    standard_monotonic_partition,
    validate_isoperimetric_partition,
)
from .solver import (
    FULL_ENUM_CAP,
    check_order,
    check_prefix_counts,
    delta_sequence,
    exact_profile,
    factor_profile_and_order,
    find_nested_chain,
    prefix_bound,
    prefix_edge_counts,
)
from .staircase import product_prefix_counts

__all__ = [
    "Hypothesis",
    "Certificate",
    "certify",
    "certify_domination",
    "crosscheck",
    "Instance",
    "ExplorationReport",
    "explore_conjecture",
    "verify_refutation",
    "matching_reduced_clique",
]

SCHEMA_VERSION = 1
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _digest(obj) -> str:
    return hashlib.sha256(_ENCODER.encode(obj).encode()).hexdigest()


@dataclass
class Hypothesis:
    name: str
    target: str
    verified: bool
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "verified": self.verified,
            "detail": self.detail,
        }


@dataclass
class Certificate:
    """Replayable record of a certification run.

    `conclusion` is present only when every hypothesis verified; the
    digests tie the certificate to the exact inputs it was computed from.
    """

    status: str  # "certified" | "hypothesis_failed" | "inconclusive"
    product: dict
    partitions_digest: str
    collection_digest: str
    hypotheses: list[Hypothesis]
    conclusion: Optional[str]
    crosschecks: list[dict] = field(default_factory=list)
    revoked: bool = False
    counterexample: Optional[dict] = None
    tool_version: str = __version__
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.conclusion is not None and not all(h.verified for h in self.hypotheses):
            raise ValueError("conclusion requires every hypothesis verified")

    @property
    def failing(self) -> Optional[str]:
        for h in self.hypotheses:
            if not h.verified:
                return h.name
        return None

    def exit_code(self) -> int:
        if self.revoked:
            return 2
        return {"certified": 0, "hypothesis_failed": 2, "inconclusive": 3}[self.status]

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool_version": self.tool_version,
            "status": self.status,
            "product": self.product,
            "partitions_digest": self.partitions_digest,
            "collection_digest": self.collection_digest,
            "hypotheses": [h.to_json() for h in self.hypotheses],
            "conclusion": self.conclusion,
            "crosschecks": self.crosschecks,
            "revoked": self.revoked,
            "counterexample": self.counterexample,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Certificate":
        return cls(
            status=data["status"],
            product=data["product"],
            partitions_digest=data["partitions_digest"],
            collection_digest=data["collection_digest"],
            hypotheses=[
                Hypothesis(h["name"], h["target"], h["verified"], h["detail"])
                for h in data["hypotheses"]
            ],
            conclusion=data["conclusion"],
            crosschecks=data.get("crosschecks", []),
            revoked=data.get("revoked", False),
            counterexample=data.get("counterexample"),
            tool_version=data.get("tool_version", __version__),
            schema_version=data.get("schema_version", SCHEMA_VERSION),
        )


def _product_summary(gs: Sequence[Graph]) -> dict:
    return {
        "d": len(gs),
        "factors": [
            {"n": g.n, "edges": g.num_edges, "digest": g.digest} for g in gs
        ],
        "n": int(np.prod([g.n for g in gs])),
    }


def _pair_key(g: Graph, h: Graph, pair_dc: DominationCollection) -> tuple:
    """What a pair's transcript depends on: the two factors and everything
    `pair_dc.to_json()` holds."""
    return (
        g.digest,
        h.digest,
        tuple((tuple(p.order.ranks.tolist()), p.boundaries) for p in pair_dc.partitions),
        tuple(sorted(pair_dc.block_perms.items())),
        pair_dc.default_perm,
    )


def resolve_partitions(gs: Sequence[Graph], partitions, shared=None) -> list[Partition]:
    """Accept "standard", "atomic", or an explicit list.  Equal factors get
    one standard or atomic partition, which keeps the factor's table
    (`factor_table`, with `shared`)."""
    if partitions not in (None, "standard", "atomic"):
        return list(partitions)
    out: dict[str, Partition] = {}
    for g in gs:
        if g.digest not in out:
            prof, order = factor_profile_and_order(g)
            if partitions == "atomic":
                p = atomic_partition(order)
            else:
                p = standard_monotonic_partition(delta_sequence(prof, order))
            out[g.digest] = p
            factor_table(g, p, shared)
    return [out[g.digest] for g in gs]


def certify(
    gs: Graph | Sequence[Graph],
    partitions=None,
    dc: Optional[DominationCollection] = None,
    *,
    crosscheck: bool = True,
) -> Certificate:
    """Run every hypothesis of the local-global principle on the given
    factors and emit a certificate that the block-lexicographic order of
    their product is optimal (valid for three or more factors).  `gs` is
    the factors or their product graph.

    Hypotheses, in order: every factor partition is isoperimetric with an
    optimal underlying order; partitions of all but the last factor are
    non-decreasing; the block permutations form a (validated) regular
    domination collection; for every factor pair the two-factor
    block-lexicographic order matches an exact profile at every size.

    A certified three-factor product is then cross-checked at every size
    (`crosscheck`) unless `crosscheck` is false.  A budget that runs out,
    or a factor past an exact engine's size cap, makes the certificate
    inconclusive.
    """
    prod_graph = gs if isinstance(gs, Graph) else cartesian_product(gs)
    if prod_graph.factors is None or len(prod_graph.factors) < 3:
        raise UsageError("local-global certification needs at least 3 factors")
    gs = list(prod_graph.factors)
    d = len(gs)
    product = _product_summary(gs)
    parts_digest = dc_digest = ""
    hyps: list[Hypothesis] = []
    inconclusive_note = None

    def make(status: str) -> Certificate:
        concl = None
        if status == "certified":
            concl = (
                f"block-lexicographic order is optimal for the {d}-factor "
                "product (local-global principle, d >= 3)"
            )
        cert = Certificate(
            status=status,
            product=product,
            partitions_digest=parts_digest,
            collection_digest=dc_digest,
            hypotheses=hyps,
            conclusion=concl,
        )
        if inconclusive_note:
            cert.crosschecks.append({"note": inconclusive_note})
        return cert

    try:
        # one table per distinct factor and partition, and per distinct
        # segment graph, that every hypothesis below reads
        shared: dict = {}
        parts = resolve_partitions(gs, partitions, shared)
        if dc is None:
            if partitions == "atomic":
                dc = uniform_collection(parts)
            else:
                dc = standard_collection(gs, parts)
        parts_digest = _digest([p.to_json() for p in parts])
        dc_digest = _digest(dc.to_json())
        tables = [factor_table(g, p, shared) for g, p in zip(gs, dc.partitions)]

        def verify_pair(i: int, j: int, pair_dc: DominationCollection) -> dict:
            pair, n = [gs[i], gs[j]], gs[i].n * gs[j].n
            okv, diags = pair_dc.validate(pair)
            if not okv:
                return {"optimal": False, "diagnostics": diags, "n": n}
            prefix = block_lex_prefix_counts(pair, pair_dc)
            profiles = [tables[i].profile, tables[j].profile]
            used, ok, bad_m, values = check_prefix_counts(pair, prefix, profiles)
            return {
                "n": n,
                "profile_strategy": used,
                "optimal": ok,
                "first_failing_m": bad_m,
                "profile_digest": _digest(list(values)),
            }

        def hypotheses():
            """(name, target, verified, detail) of each hypothesis in turn."""
            # (a) isoperimetric partitions, factor by factor
            for i, (g, p) in enumerate(zip(gs, parts)):
                ok, diags = validate_isoperimetric_partition(g, p)
                detail = {"diagnostics": diags, "segments": list(p.boundaries)}
                name = f"isoperimetric_partition_factor_{i + 1}"
                yield name, f"factor {i + 1} (n={g.n})", ok, detail
            # (b) non-decreasing partitions on factors 1..d-1
            for i in range(d - 1):
                ok = is_non_decreasing(gs[i], parts[i])
                yield f"non_decreasing_partition_factor_{i + 1}", f"factor {i + 1}", ok, {}
            # (c) domination collection: structural + per-block order optimality
            ok, diags = dc.validate(prod_graph, check_block_optimality=True)
            yield "domination_collection", "all blocks", ok, {"diagnostics": diags}
            # (d) regular domination collection
            ok, diags = validate_regular_domination_collection(prod_graph, dc)
            target = "middle factors and corner blocks"
            yield "regular_domination_collection", target, ok, {"diagnostics": diags}
            # (e) pairwise two-factor optimality, decided in report order up to
            # the first failure; a pair reuses the transcript of an earlier pair
            # with its key.  An inconclusive certificate reports no pair.
            transcripts: dict[tuple, dict] = {}
            reported = len(hyps)
            try:
                for i, j in itertools.combinations(range(d), 2):
                    pair_dc = dc.restricted((i, j))
                    key = _pair_key(gs[i], gs[j], pair_dc)
                    if key in transcripts:
                        detail = dict(transcripts[key], reused_transcript=True)
                    else:
                        detail = transcripts[key] = verify_pair(i, j, pair_dc)
                    name = f"pairwise_bl2_optimal_{i + 1}_{j + 1}"
                    yield name, f"factors ({i + 1},{j + 1})", detail["optimal"], detail
            except Inconclusive:
                del hyps[reported:]
                raise

        for h in hypotheses():
            hyps.append(Hypothesis(*h))
            if not h[2]:
                return make("hypothesis_failed")
        cert = make("certified")
        if d == 3 and crosscheck:
            # the keyword shadows the module's function
            cert = globals()["crosscheck"](cert, prod_graph, dc)
        return cert
    except Inconclusive as e:
        inconclusive_note = str(e)
        return make("inconclusive")


def certify_domination(
    gs: Sequence[Graph],
    pi: Sequence[int],
) -> Certificate:
    """Atomic-partition specialization: the domination order with
    significance permutation `pi` is optimal once the plain lexicographic
    order is optimal on every pair of factors taken in pi-order.  A budget
    that runs out, or a factor past an exact engine's size cap, makes the
    certificate inconclusive."""
    gs = list(gs)
    d = len(gs)
    if d < 3:
        raise UsageError("local-global certification needs at least 3 factors")
    pi = tuple(int(x) for x in pi)
    if sorted(pi) != list(range(d)):
        raise UsageError("pi is not a permutation of the factor indices")
    product = _product_summary(gs)
    hyps: list[Hypothesis] = []
    parts_digest = ""
    dc_digest = _digest({"domination": list(pi)})
    status = "certified"
    note = None
    try:
        parts = resolve_partitions(gs, "atomic", {})
        tables = [factor_table(g, p) for g, p in zip(gs, parts)]
        parts_digest = _digest([p.to_json() for p in parts])
        transcripts: dict[str, dict] = {}
        for k, l in itertools.combinations(range(d), 2):
            i, j = pi[k], pi[l]
            key = (gs[i].digest, gs[j].digest)
            if key in transcripts:
                detail = dict(transcripts[key])
                detail["reused_transcript"] = True
                ok = detail["optimal"]
            else:
                pair = [tables[i], tables[j]]
                prefix, profiles = product_prefix_counts(pair), [t.profile for t in pair]
                used, ok, bad_m, _ = check_prefix_counts([gs[i], gs[j]], prefix, profiles)
                detail = {
                    "n": gs[i].n * gs[j].n,
                    "profile_strategy": used,
                    "optimal": ok,
                    "first_failing_m": bad_m,
                }
                transcripts[key] = detail
            hyps.append(
                Hypothesis(
                    f"pairwise_lex_optimal_{i + 1}_{j + 1}",
                    f"factors ({i + 1},{j + 1}) in permuted position ({k + 1},{l + 1})",
                    ok,
                    detail,
                )
            )
            if not ok:
                status = "hypothesis_failed"
                break
    except Inconclusive as e:
        status, note = "inconclusive", str(e)
    concl = None
    if status == "certified":
        concl = (
            f"domination order with significance {list(x + 1 for x in pi)} is "
            f"optimal for the {d}-factor product (d >= 3)"
        )
    cert = Certificate(
        status=status,
        product=product,
        partitions_digest=parts_digest,
        collection_digest=dc_digest,
        hypotheses=hyps,
        conclusion=concl,
    )
    if note:
        cert.crosschecks.append({"note": note})
    return cert


def crosscheck(
    cert: Certificate,
    gs: Graph | Sequence[Graph],
    dc: DominationCollection,
    *,
    order_override: Optional[TotalOrder] = None,
) -> Certificate:
    """Check the certified order on the three-factor product at every size
    m = 0..n with `solver.check_prefix_counts`.  Sizes where its prefix
    counts meet the sandwich bound are proved; if any miss it, the slab DP
    decides them (oracle "sandwich+slab"), and the first size where it
    beats the order revokes the certificate and records the
    counterexample.  When the slab DP's table passes its cap, the sizes
    that miss the bound are listed as unchecked and revoke nothing, since
    the bound can be loose (oracle "sandwich").  `gs` is the three
    factors or their product graph; `dc` must be validated.

    The certified order is counted in rank space (`block_lex_prefix_counts`)
    and built only for a revocation's initial segment.  `order_override`,
    counted on the product graph, substitutes a different order; it
    exists so tests can demonstrate the revocation path.
    """
    g = gs if isinstance(gs, Graph) else cartesian_product(gs)
    if g.factors is None or len(g.factors) != 3:
        raise UsageError("cross-checks run on three-factor products")
    order = order_override
    prefix = (
        block_lex_prefix_counts(g, dc) if order is None else prefix_edge_counts(g, order)
    )
    profiles = [factor_table(f, p).profile for f, p in zip(g.factors, dc.partitions)]
    oracle, unchecked, bad = "sandwich", [], None
    try:
        used, ok, m, exact = check_prefix_counts(g, prefix, profiles)
    except SizeCapExceeded:
        bound = prefix_bound(g.factors, prefix, profiles)
        unchecked = np.flatnonzero(prefix != bound).tolist()
    else:
        if used == "slab":
            oracle = "sandwich+slab"
        if not ok:
            if order is None:
                order = block_lex_order(g, dc)
            bad = {
                "m": m,
                "order_value": int(prefix[m]),
                "oracle_value": exact[m],
                "initial_segment": order.initial_segment(m).ids().tolist(),
            }
    cert.crosschecks.append(
        {
            "product_digest": g.digest,
            "oracle": oracle,
            "sizes": g.n + 1,
            "unchecked": unchecked,
            "agreement": bad is None,
        }
    )
    if bad is not None:
        cert.revoked = True
        cert.conclusion = None
        cert.counterexample = bad
    return cert


# -- conjecture exploration ------------------------------------------------------


@dataclass
class Instance:
    name: str
    n: int
    status: str  # SUPPORTED | REFUTED | INCONCLUSIVE
    detail: dict = field(default_factory=dict)
    witness: Optional[dict] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "n": self.n, "status": self.status, "detail": self.detail}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class ExplorationReport:
    family: str
    params: dict
    instances: list[Instance]
    note: str = ""
    tool_version: str = __version__

    @property
    def statuses(self) -> dict:
        out = {"SUPPORTED": 0, "REFUTED": 0, "INCONCLUSIVE": 0}
        for ins in self.instances:
            out[ins.status] += 1
        return out

    def to_json(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "family": self.family,
            "params": self.params,
            "counts": self.statuses,
            "instances": [i.to_json() for i in self.instances],
            "note": self.note,
        }


def _nested_instance(name: str, g: Graph) -> Instance:
    if g.n > FULL_ENUM_CAP:
        return Instance(
            name, g.n, "INCONCLUSIVE", {"reason": f"{g.n} vertices beyond cap {FULL_ENUM_CAP}"}
        )
    try:
        prof = exact_profile(g, with_witnesses=False)
        res = find_nested_chain(g, prof)
    except BudgetExceeded as e:
        return Instance(name, g.n, "INCONCLUSIVE", {"reason": str(e)})
    if res.status == "order":
        return Instance(
            name,
            g.n,
            "SUPPORTED",
            {"nested_solutions": True, "explored": res.explored},
        )
    if res.status == "not_isoperimetric":
        witness = {
            "graph": g.to_json(),
            "profile": list(prof.i_values),
            "failing_size": res.failing_size,
            "explored": res.explored,
        }
        return Instance(
            name, g.n, "REFUTED", {"nested_solutions": False}, witness=witness
        )
    return Instance(
        name, g.n, "INCONCLUSIVE", {"reason": "chain search stopped at its node cap"}
    )


def verify_refutation(witness: dict) -> bool:
    """Recompute a refutation witness from scratch: profile must match and
    the chain search must again exhaust without finding an order."""
    g = Graph.from_json(witness["graph"])
    prof = exact_profile(g, "full", with_witnesses=False)
    if list(prof.i_values) != list(witness["profile"]):
        return False
    res = find_nested_chain(g, prof)
    return res.status == "not_isoperimetric"


def matching_reduced_clique(p: int, i: int) -> Graph:
    """Even clique on 2p vertices minus i disjoint perfect matchings
    (round-robin one-factorization)."""
    if p < 2 or not 0 <= i <= 2 * p - 1:
        raise UsageError("need p >= 2 and 0 <= i <= 2p-1")
    n = 2 * p
    removed = set()
    # circle method: vertex n-1 fixed, others rotate
    for r in range(i):
        removed.add(tuple(sorted((r, n - 1))))
        for k in range(1, p):
            a = (r + k) % (n - 1)
            b = (r - k) % (n - 1)
            removed.add(tuple(sorted((a, b))))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in removed
    ]
    return Graph(n, edges)


def explore_conjecture(
    family: str,
    params: Optional[dict] = None,
) -> ExplorationReport:
    """Search small instances of a conjectured family and report
    SUPPORTED / REFUTED (with a re-verifiable witness) / INCONCLUSIVE per
    instance; an instance the budget cuts short is INCONCLUSIVE.  Never
    asserts a conjecture."""
    params = dict(params or {})
    instances: list[Instance] = []
    if family == "path_clique":
        # products of path powers and clique powers admitting nested solutions
        max_n = int(params.get("max_vertices", 16))
        if max_n < 2:  # the smallest instance, P2 or K2, has 2 vertices
            raise UsageError(f"max_vertices must be at least 2, got {max_n}")
        paths, cliques = functools.cache(path), functools.cache(clique)
        seen = set()
        for n1 in range(2, max_n + 1):
            for d1 in range(0, 5):
                if n1**d1 > max_n:
                    break
                for n2 in range(2, max_n + 1):
                    for d2 in range(0, 5):
                        total = n1**d1 * n2**d2
                        if total > max_n:
                            break
                        if d1 + d2 == 0 or total < 2:
                            continue
                        # canonicalize: an absent factor has no size
                        key = (n1 if d1 else 0, d1, n2 if d2 else 0, d2)
                        if key in seen:
                            continue
                        seen.add(key)
                        factors = [paths(n1) for _ in range(d1)]
                        factors += [cliques(n2) for _ in range(d2)]
                        g = (
                            cartesian_product(factors)
                            if len(factors) > 1
                            else factors[0]
                        )
                        name = f"P{n1}^{d1} x K{n2}^{d2}"
                        instances.append(_nested_instance(name, g))
        note = f"all path-power by clique-power products with <= {max_n} vertices"
    elif family == "hspi":
        s = int(params.get("s", 2))
        p = int(params.get("p", 3))
        i = int(params.get("i", 1))
        d = int(params.get("d", 1))
        for key, value, least in (("s", s, 2), ("d", d, 1)):
            if value < least:
                raise UsageError(f"{key} must be at least {least}, got {value}")
        if s != 2:
            return ExplorationReport(
                family,
                params,
                [],
                note="only s=2 instances are constructible here "
                "(clique minus perfect matchings); supply graphs for s>2",
            )
        g = matching_reduced_clique(p, i)
        name = f"K{2 * p} minus {i} matchings"
        # the stated bound is i <= p - p/s; evaluate it exactly in rationals
        inside_bound = s * i <= s * p - p
        ins = _nested_instance(name, g)
        ins.detail["conjecture_bound_holds"] = inside_bound
        instances.append(ins)
        if d >= 2 and ins.status == "SUPPORTED":
            # the conjecture's claims (lex optimal inside the bound, no
            # nested solutions beyond it) are about the powers of g
            lex_name = f"{name} ^ {d} lexicographic"
            try:
                _, o = factor_profile_and_order(g)
                prefix = product_prefix_counts([g] * d, [o] * d)
                _, ok, bad, _ = check_prefix_counts([g] * d, prefix)
            except Inconclusive as e:
                instances.append(
                    Instance(lex_name, g.n**d, "INCONCLUSIVE", {"reason": str(e)})
                )
            else:
                if inside_bound:
                    status = "SUPPORTED" if ok else "REFUTED"
                else:
                    # lex losing is consistent with the no-nested claim; lex
                    # winning exhibits nested solutions and refutes it
                    status = "REFUTED" if ok else "SUPPORTED"
                instances.append(
                    Instance(
                        lex_name,
                        g.n**d,
                        status,
                        {
                            "lex_optimal": ok,
                            "first_failing_m": bad,
                            "conjecture_bound_holds": inside_bound,
                        },
                    )
                )
        note = "clique-minus-matchings family"
    elif family == "petersen_tori":
        dims = {
            "c5": int(params.get("c5", 0)),
            "petersen": int(params.get("petersen", 0)),
            "c4": int(params.get("c4", 0)),
            "k2": int(params.get("k2", 0)),
            "c3": int(params.get("c3", 0)),
        }
        if min(dims.values()) < 0:
            raise UsageError(f"factor counts must not be negative, got {dims}")
        factors: list[Graph] = []
        factors += [cycle(5)] * dims["c5"]
        factors += [petersen()] * dims["petersen"]
        factors += [cycle(4)] * dims["c4"]
        factors += [clique(2)] * dims["k2"]
        factors += [cycle(3)] * dims["c3"]
        if len(factors) < 1:
            raise UsageError("no factors requested")
        name = " x ".join(
            f"{k}^{v}" for k, v in dims.items() if v
        )
        if len(factors) == 1:
            instances.append(_nested_instance(name, factors[0]))
        else:
            g = cartesian_product(factors)
            if len(factors) == 2:
                try:
                    order, _ = standard_block_lex_order(g)
                    _, ok, bad, _ = check_order(g, order)
                    instances.append(
                        Instance(
                            name,
                            g.n,
                            "SUPPORTED" if ok else "REFUTED",
                            {"standard_block_lex_optimal": ok, "first_failing_m": bad},
                        )
                    )
                except BlocklexError as e:
                    instances.append(
                        Instance(name, g.n, "INCONCLUSIVE", {"reason": str(e)})
                    )
            elif len(factors) == 3:
                cert = certify(g, "standard")
                if cert.revoked:
                    status = "REFUTED"
                elif cert.status == "certified":
                    status = "SUPPORTED"
                else:
                    # a failed hypothesis refutes nothing: the local-global
                    # hypotheses are sufficient for optimality, not necessary
                    status = "INCONCLUSIVE"
                instances.append(
                    Instance(name, g.n, status, {"certificate_status": cert.status})
                )
            else:
                instances.append(
                    Instance(
                        name,
                        g.n,
                        "INCONCLUSIVE",
                        {"reason": "only 1-3 factor instances are explored"},
                    )
                )
        note = "standard block-lexicographic order exploration"
    else:
        raise UsageError(f"unknown family {family!r}")
    return ExplorationReport(family, params, instances, note)
