"""Local-global certification of block-lexicographic orders, with
independent cross-checks, plus the conjecture explorer.

The certifier machine-checks the hypotheses that let two-dimensional
optimality propagate to any number of factors: every factor partition is
isoperimetric, the leading factors' partitions are non-decreasing, the
collection is a regular domination collection, and the two-factor
block-lexicographic order is optimal for every factor pair (verified
against an exact profile, by subset enumeration on small pairs and the
rank-space downset oracle on large ones).  A certificate carries one entry
per hypothesis with evidence and is emitted only if every entry verified;
cross-checking compares certified initial segments against the downset
oracle on the three-factor product and revokes on any disagreement.
"""

from __future__ import annotations

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
    standard_collection,
    uniform_collection,
    validate_regular_domination_collection,
)
from .graphs import Graph, cartesian_product, clique, path, petersen, cycle, subproduct
from .orders import TotalOrder, lex_order
from .partitions import (
    Partition,
    atomic_partition,
    is_non_decreasing,
    standard_monotonic_partition,
    validate_isoperimetric_partition,
)
from .solver import (
    Budget,
    BudgetExceeded,
    COMPRESSED_CAP,
    FULL_ENUM_CAP,
    Profile,
    SizeCapExceeded,
    delta_sequence,
    exact_profile,
    factor_profile_and_order,
    find_nested_chain,
    prefix_edge_counts,
    verify_order_optimal,
)
from .staircase import downset_profile, rank_edge_tables, stacked_profile

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


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


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


def resolve_partitions(gs: Sequence[Graph], partitions) -> list[Partition]:
    """Accept "standard", "atomic", or an explicit list."""
    if partitions is None or partitions == "standard":
        out = []
        for g in gs:
            prof, order = factor_profile_and_order(g)
            out.append(standard_monotonic_partition(delta_sequence(prof, order)))
        return out
    if partitions == "atomic":
        return [atomic_partition(factor_profile_and_order(g)[1]) for g in gs]
    return list(partitions)


def _pair_profile(
    pair: Graph,
    factor_orders: Sequence[TotalOrder],
    strategy: str,
) -> tuple[Profile, str]:
    if strategy == "full" or (strategy == "auto" and pair.n <= FULL_ENUM_CAP):
        return (
            exact_profile(pair, "full", with_witnesses=False),
            "full_enumeration",
        )
    return (
        exact_profile(pair, "compressed", factor_orders=list(factor_orders)),
        "compressed_oracle",
    )


def certify(
    gs: Sequence[Graph],
    partitions=None,
    dc: Optional[DominationCollection] = None,
    *,
    pairwise_strategy: str = "auto",
    budget_seconds: Optional[float] = None,
    crosscheck_ms: Optional[Sequence[int]] = None,
) -> Certificate:
    """Run every hypothesis of the local-global principle on the given
    factors and emit a certificate that the block-lexicographic order of
    their product is optimal (valid for three or more factors).

    Hypotheses, in order: every factor partition is isoperimetric with an
    optimal underlying order; partitions of all but the last factor are
    non-decreasing; the block permutations form a (validated) regular
    domination collection; for every factor pair the two-factor
    block-lexicographic order matches an exact profile at every size.

    A certified three-factor product is then cross-checked (`crosscheck`)
    at the sizes `crosscheck_ms`, by default {1, 5, 10, 20, n // 2}; an
    empty sequence skips the cross-check.
    """
    gs = list(gs)
    d = len(gs)
    if d < 3:
        raise ValueError("local-global certification needs at least 3 factors")
    budget = Budget(budget_seconds)
    parts = resolve_partitions(gs, partitions)
    if dc is None:
        if partitions == "atomic":
            dc = uniform_collection(parts)
        else:
            dc = standard_collection(gs, parts)
    product = _product_summary(gs)
    parts_digest = _digest([p.to_json() for p in parts])
    dc_digest = _digest(dc.to_json())
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
        # (a) isoperimetric partitions, factor by factor
        for i, (g, p) in enumerate(zip(gs, parts)):
            budget.check()
            ok, diags = validate_isoperimetric_partition(g, p)
            hyps.append(
                Hypothesis(
                    f"isoperimetric_partition_factor_{i + 1}",
                    f"factor {i + 1} (n={g.n})",
                    ok,
                    {"diagnostics": diags, "segments": list(p.boundaries)},
                )
            )
            if not ok:
                return make("hypothesis_failed")
        # (b) non-decreasing partitions on factors 1..d-1
        for i in range(d - 1):
            budget.check()
            ok = is_non_decreasing(gs[i], parts[i])
            hyps.append(
                Hypothesis(
                    f"non_decreasing_partition_factor_{i + 1}",
                    f"factor {i + 1}",
                    ok,
                    {},
                )
            )
            if not ok:
                return make("hypothesis_failed")
        # (c) domination collection: structural + per-block order optimality
        prod_graph = cartesian_product(gs)
        ok, diags = dc.validate(prod_graph, check_block_optimality=True)
        hyps.append(
            Hypothesis(
                "domination_collection",
                "all blocks",
                ok,
                {"diagnostics": diags},
            )
        )
        if not ok:
            return make("hypothesis_failed")
        # (d) regular domination collection
        ok, diags = validate_regular_domination_collection(prod_graph, dc)
        hyps.append(
            Hypothesis(
                "regular_domination_collection",
                "middle factors and corner blocks",
                ok,
                {"diagnostics": diags},
            )
        )
        if not ok:
            return make("hypothesis_failed")
        # (e) pairwise two-factor optimality, computed once per distinct pair
        def verify_pair(i: int, j: int) -> dict:
            budget.check()
            pair = cartesian_product([gs[i], gs[j]])
            pair_dc = dc.restricted((i, j))
            okv, diags = pair_dc.validate(pair)
            if not okv:
                return {"optimal": False, "diagnostics": diags, "n": pair.n}
            order2 = block_lex_order(pair, pair_dc)
            profile, used = _pair_profile(
                pair, [parts[i].order, parts[j].order], pairwise_strategy
            )
            ok, bad_m = verify_order_optimal(pair, order2, profile)
            return {
                "n": pair.n,
                "profile_strategy": used,
                "optimal": ok,
                "first_failing_m": bad_m,
                "profile_digest": _digest(list(profile.i_values)),
            }

        pairs = list(itertools.combinations(range(d), 2))
        keys = {}
        for i, j in pairs:
            pair_key = _digest(
                [gs[i].digest, gs[j].digest, dc.restricted((i, j)).to_json()]
            )
            keys[(i, j)] = pair_key
        unique: dict[str, tuple[int, int]] = {}
        for (i, j), key in keys.items():
            unique.setdefault(key, (i, j))
        transcripts = {key: verify_pair(i, j) for key, (i, j) in unique.items()}
        for i, j in pairs:
            detail = dict(transcripts[keys[(i, j)]])
            if unique[keys[(i, j)]] != (i, j):
                detail["reused_transcript"] = True
            ok = detail["optimal"]
            hyps.append(
                Hypothesis(
                    f"pairwise_bl2_optimal_{i + 1}_{j + 1}",
                    f"factors ({i + 1},{j + 1})",
                    ok,
                    detail,
                )
            )
            if not ok:
                return make("hypothesis_failed")
    except SizeCapExceeded as e:
        inconclusive_note = str(e)
        return make("inconclusive")
    except BudgetExceeded:
        inconclusive_note = "budget exceeded"
        return make("inconclusive")
    cert = make("certified")
    if d == 3 and (crosscheck_ms is None or len(crosscheck_ms)):
        cert = crosscheck(cert, prod_graph, dc, crosscheck_ms)
    return cert


def certify_domination(
    gs: Sequence[Graph],
    pi: Sequence[int],
    *,
    pairwise_strategy: str = "auto",
    budget_seconds: Optional[float] = None,
) -> Certificate:
    """Atomic-partition specialization: the domination order with
    significance permutation `pi` is optimal once the plain lexicographic
    order is optimal on every pair of factors taken in pi-order."""
    gs = list(gs)
    d = len(gs)
    if d < 3:
        raise ValueError("local-global certification needs at least 3 factors")
    pi = tuple(int(x) for x in pi)
    if sorted(pi) != list(range(d)):
        raise ValueError("pi is not a permutation of the factor indices")
    budget = Budget(budget_seconds)
    product = _product_summary(gs)
    hyps: list[Hypothesis] = []
    orders = []
    for g in gs:
        _, o = factor_profile_and_order(g)
        orders.append(o)
    parts = [atomic_partition(o) for o in orders]
    parts_digest = _digest([p.to_json() for p in parts])
    dc_digest = _digest({"domination": list(pi)})
    status = "certified"
    note = None
    try:
        transcripts: dict[str, dict] = {}
        for k, l in itertools.combinations(range(d), 2):
            budget.check()
            i, j = pi[k], pi[l]
            pair = cartesian_product([gs[i], gs[j]])
            key = pair.digest
            if key in transcripts:
                detail = dict(transcripts[key])
                detail["reused_transcript"] = True
                ok = detail["optimal"]
            else:
                order2 = lex_order(pair, [orders[i], orders[j]])
                profile, used = _pair_profile(
                    pair, [orders[i], orders[j]], pairwise_strategy
                )
                ok, bad_m = verify_order_optimal(pair, order2, profile)
                detail = {
                    "n": pair.n,
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
    except SizeCapExceeded as e:
        status, note = "inconclusive", str(e)
    except BudgetExceeded:
        status, note = "inconclusive", "budget exceeded"
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


def _oracle_profile_3d(g: Graph, factor_orders: Sequence[TotalOrder]) -> np.ndarray:
    """Exact profile of a three-factor product via downsets: the pure slab
    program when the slab lattice is small, otherwise stacked initial
    segments over an exact two-factor profile."""
    try:
        return downset_profile(g, factor_orders, shape_cap=5000)
    except ValueError:
        inner = subproduct(g, (1, 2))
        inner_vals = downset_profile(inner, [factor_orders[1], factor_orders[2]])
        _, L1 = rank_edge_tables(g.factors[0], factor_orders[0])
        return stacked_profile(
            L1, inner_vals, g.factors[0].n, inner.n, m_max=g.n
        )


def crosscheck(
    cert: Certificate,
    gs: Graph | Sequence[Graph],
    dc: DominationCollection,
    sample_ms: Optional[Sequence[int]] = None,
    *,
    order_override: Optional[TotalOrder] = None,
) -> Certificate:
    """Compare certified initial segments against the downset oracle on the
    three-factor product at the sampled sizes.  Any disagreement revokes
    the certificate and records the counterexample.  `gs` is the three
    factors or their product graph; `dc` must be validated.

    `order_override` substitutes a different order for the certified one;
    it exists so tests can demonstrate the revocation path.
    """
    g = gs if isinstance(gs, Graph) else cartesian_product(gs)
    if g.factors is None or len(g.factors) != 3:
        raise ValueError("cross-checks run on three-factor products")
    if sample_ms is None:
        sample_ms = sorted({1, 5, 10, 20, g.n // 2})
    sample_ms = [m for m in sample_ms if 0 <= m <= g.n]
    order = order_override if order_override is not None else block_lex_order(g, dc)
    factor_orders = dc.factor_orders
    oracle = _oracle_profile_3d(g, factor_orders)
    prefix = prefix_edge_counts(g, order)
    results = []
    bad = None
    for m in sample_ms:
        got = int(prefix[m])
        want = int(oracle[m])
        results.append({"m": m, "order_value": got, "oracle_value": want})
        if got != want and bad is None:
            bad = {
                "m": m,
                "order_value": got,
                "oracle_value": want,
                "initial_segment": order.initial_segment(m).ids().tolist(),
            }
    cert.crosschecks.append(
        {
            "product_digest": g.digest,
            "samples": results,
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


def _nested_instance(name: str, g: Graph, budget: Budget) -> Instance:
    if budget.expired():
        return Instance(name, g.n, "INCONCLUSIVE", {"reason": "budget exhausted"})
    if g.n > FULL_ENUM_CAP:
        return Instance(
            name, g.n, "INCONCLUSIVE", {"reason": f"{g.n} vertices beyond cap {FULL_ENUM_CAP}"}
        )
    prof = exact_profile(g, "full", with_witnesses=False)
    res = find_nested_chain(g, prof)
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
    return Instance(name, g.n, "INCONCLUSIVE", {"reason": "search budget exhausted"})


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
        raise ValueError("need p >= 2 and 0 <= i <= 2p-1")
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
    *,
    budget_seconds: Optional[float] = None,
) -> ExplorationReport:
    """Search small instances of a conjectured family and report
    SUPPORTED / REFUTED (with a re-verifiable witness) / INCONCLUSIVE per
    instance.  Never asserts a conjecture."""
    params = dict(params or {})
    budget = Budget(budget_seconds)
    instances: list[Instance] = []
    if family == "path_clique":
        # products of path powers and clique powers admitting nested solutions
        max_n = int(params.get("max_vertices", 16))
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
                        factors = [path(n1)] * d1 + [clique(n2)] * d2
                        g = (
                            cartesian_product(factors)
                            if len(factors) > 1
                            else factors[0]
                        )
                        name = f"P{n1}^{d1} x K{n2}^{d2}"
                        instances.append(_nested_instance(name, g, budget))
        note = f"all path-power by clique-power products with <= {max_n} vertices"
    elif family == "hspi":
        s = int(params.get("s", 2))
        p = int(params.get("p", 3))
        i = int(params.get("i", 1))
        d = int(params.get("d", 1))
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
        ins = _nested_instance(name, g, budget)
        ins.detail["conjecture_bound_holds"] = inside_bound
        instances.append(ins)
        if d >= 2 and ins.status == "SUPPORTED":
            # the conjecture's claims (lex optimal inside the bound, no
            # nested solutions beyond it) are about the powers of g
            prod = cartesian_product([g] * d)
            if prod.n <= COMPRESSED_CAP:
                _, o = factor_profile_and_order(g)
                prof = exact_profile(
                    prod, "compressed" if prod.n > FULL_ENUM_CAP else "full",
                    factor_orders=[o] * d, with_witnesses=False,
                )
                lx = lex_order(prod, [o] * d)
                ok, bad = verify_order_optimal(prod, lx, prof)
                if inside_bound:
                    status = "SUPPORTED" if ok else "REFUTED"
                else:
                    # lex losing is consistent with the no-nested claim; lex
                    # winning exhibits nested solutions and refutes it
                    status = "REFUTED" if ok else "SUPPORTED"
                instances.append(
                    Instance(
                        f"{name} ^ {d} lexicographic",
                        prod.n,
                        status,
                        {
                            "lex_optimal": ok,
                            "first_failing_m": bad,
                            "conjecture_bound_holds": inside_bound,
                        },
                    )
                )
            else:
                instances.append(
                    Instance(f"{name} ^ {d}", prod.n, "INCONCLUSIVE", {"reason": "too large"})
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
        factors: list[Graph] = []
        factors += [cycle(5)] * dims["c5"]
        factors += [petersen()] * dims["petersen"]
        factors += [cycle(4)] * dims["c4"]
        factors += [clique(2)] * dims["k2"]
        factors += [cycle(3)] * dims["c3"]
        if len(factors) < 1:
            raise ValueError("no factors requested")
        name = " x ".join(
            f"{k}^{v}" for k, v in dims.items() if v
        )
        if len(factors) == 1:
            instances.append(_nested_instance(name, factors[0], budget))
        else:
            g = cartesian_product(factors)
            if len(factors) == 2 and g.n <= COMPRESSED_CAP:
                from .blockgeom import standard_block_lex_order

                try:
                    order, dc = standard_block_lex_order(g)
                    prof = exact_profile(
                        g,
                        "compressed" if g.n > FULL_ENUM_CAP else "full",
                        factor_orders=list(dc.factor_orders),
                        with_witnesses=False,
                    )
                    ok, bad = verify_order_optimal(g, order, prof)
                    instances.append(
                        Instance(
                            name,
                            g.n,
                            "SUPPORTED" if ok else "REFUTED",
                            {"standard_block_lex_optimal": ok, "first_failing_m": bad},
                        )
                    )
                except (ValueError, SizeCapExceeded) as e:
                    instances.append(
                        Instance(name, g.n, "INCONCLUSIVE", {"reason": str(e)})
                    )
            elif len(factors) == 3:
                cert = certify(factors, "standard", budget_seconds=budget_seconds)
                status = {
                    "certified": "SUPPORTED",
                    "hypothesis_failed": "REFUTED",
                    "inconclusive": "INCONCLUSIVE",
                }[cert.status]
                if cert.revoked:
                    status = "REFUTED"
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
        raise ValueError(f"unknown family {family!r}")
    return ExplorationReport(family, params, instances, note)
