"""Expected verdicts for benchmark commands, and the checks that compare a
command's JSON report with them.

Expected values never come from the engine a command exercises as it runs.
They come from closed forms computed here (I(m) of paths, cycles, cliques, products
of cliques by Lindsey's theorem, disjoint unions of those, and the
published Petersen delta-sequence), or, where no closed form exists, from
two engines of the library that must agree before the benchmark trusts
them: the subset DP against the downset oracle or branch and bound, or
the downset oracle against a second evaluation of it along another axis.
Orders and compressions are recomputed here (`Product`) from the factor
orders, which are checked against the closed-form profiles.  Explorer
statuses that no theorem decides are the ones the explorer gave at the
commit that added the benchmark, recorded in explore_statuses.json (see
record.py).

A check compares verdict fields only (exit code, profile values, order
optimality and first failing size, certificate status, revocation and
failing hypothesis, explorer statuses, compression outputs and law
violations), so reports may gain deterministic counters without breaking
the benchmark.  Each check returns a list of problems; empty means the
verdict is in its allowed set.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from blocklex import graphs, solver

CAP = 24  # the subset DP's vertex cap, which certify also applies to blocks

PETERSEN_DELTA = (0, 1, 1, 1, 2, 1, 2, 2, 2, 3)

Check = Callable[[int, str], list]


# -- closed forms ----------------------------------------------------------------


def clique_profile(n: int) -> list[int]:
    return [m * (m - 1) // 2 for m in range(n + 1)]


def path_profile(n: int) -> list[int]:
    return [max(m - 1, 0) for m in range(n + 1)]


def cycle_profile(n: int) -> list[int]:
    return path_profile(n)[:-1] + [n]


def petersen_profile() -> list[int]:
    return list(itertools.accumulate((0,) + PETERSEN_DELTA))


def clique_product_profile(sizes: Sequence[int]) -> list[int]:
    """Lindsey (1964): on K_{n1} x ... x K_{nd} with n1 <= ... <= nd, the
    lexicographic order (first coordinate most significant) is optimal.  A
    tuple x has sum(x) neighbours before it in that order."""
    total, out = 0, [0]
    for x in itertools.product(*(range(s) for s in sorted(sizes))):
        total += sum(x)
        out.append(total)
    return out


def union_profile(parts: Sequence[Sequence[int]]) -> list[int]:
    """I(m) of a disjoint union: the best split of m over the components."""
    best = [0]
    for p in parts:
        nxt = [-1] * (len(best) + len(p) - 1)
        for a, va in enumerate(best):
            for b, vb in enumerate(p):
                nxt[a + b] = max(nxt[a + b], va + vb)
        best = nxt
    return best


ATOM_PROFILES = {"K": clique_profile, "P": path_profile, "C": cycle_profile}


def atom_profile(name: str) -> list[int]:
    """Closed-form profile of a named atom (K5, P7, C9, petersen)."""
    if name == "petersen":
        return petersen_profile()
    kind, n = name[0], int(name[1:])
    if kind == "C" and n == 3:
        kind = "K"
    return ATOM_PROFILES[kind](n)


def segment_sizes(name: str) -> list[int]:
    """Segment sizes of the standard monotonic partition, from the
    closed-form delta-sequence: maximal runs rising by exactly one."""
    prof = atom_profile(name)
    delta = [b - a for a, b in zip(prof, prof[1:])]
    sizes, run = [], 1
    for a, b in zip(delta, delta[1:]):
        if b - a == 1:
            run += 1
        else:
            sizes.append(run)
            run = 1
    return sizes + [run]


def is_clique(name: str) -> bool:
    return name[0] == "K" or name in ("C3", "P2")


def clique_size(name: str) -> int:
    return int(name[1:])


# -- counting on the program's own vertex ids ---------------------------------------


@dataclass(frozen=True)
class Edges:
    """Edge list of a spec, for counting induced edges of reported sets."""

    n: int
    adj: tuple[frozenset, ...]

    @classmethod
    def of(cls, g) -> "Edges":
        adj = [set() for _ in range(g.n)]
        for u, v in g.edges():
            adj[u].add(v)
            adj[v].add(u)
        return cls(g.n, tuple(frozenset(a) for a in adj))

    def induced(self, ids) -> int:
        s = set(ids)
        return sum(len(self.adj[v] & s) for v in s) // 2

    def prefix_counts(self, ranks: Sequence[int]) -> list[int]:
        """Induced edges of every initial segment of an order given as
        1-based ranks."""
        by_rank = sorted(range(self.n), key=lambda v: ranks[v])
        seen, total, out = set(), 0, [0]
        for v in by_rank:
            total += len(self.adj[v] & seen)
            seen.add(v)
            out.append(total)
        return out


# -- reference orders and compression ---------------------------------------------------


class Product:
    """A product of named atoms, numbered as the program numbers it (mixed
    radix, factor 0 most significant), with the two order families of the
    `order` and `compress` commands recomputed here: the lexicographic
    order of the factor orders, and the standard block-lexicographic order
    (standard monotonic partitions from the closed-form delta-sequences;
    blocks in lexicographic order of their segment indices; inside a block,
    factors by segment size ascending, ties by index).  The factor orders
    are the program's, and must be optimal against the closed forms."""

    def __init__(self, names: Sequence[str], factor_ranks: Sequence[Sequence[int]]):
        self.names = list(names)
        self.d = len(names)
        self.ranks = [list(r) for r in factor_ranks]  # factor vertex -> 1-based rank
        for name, r in zip(self.names, self.ranks):
            f = graphs.parse_graph_spec(name)
            if Edges.of(f).prefix_counts(r) != atom_profile(name):
                raise ValueError(f"the program's order of {name} is not optimal")
        self.shape = [len(r) for r in self.ranks]
        self.coords = list(itertools.product(*(range(k) for k in self.shape)))
        self.n = len(self.coords)
        self.seg, self.seg_size = [], []  # per factor: rank -> segment; segment -> size
        for name in self.names:
            sizes = segment_sizes(name)
            self.seg.append([-1] + [j for j, k in enumerate(sizes) for _ in range(k)])
            self.seg_size.append(sizes)
        self._orders: dict = {}

    def _key(self, family: str, s: tuple, x: tuple) -> list[int]:
        r = [self.ranks[i][xi] for i, xi in zip(s, x)]
        if family == "lex":
            return r
        seg = [self.seg[i][ri] for i, ri in zip(s, r)]
        sizes = [self.seg_size[i][j] for i, j in zip(s, seg)]
        return seg + [r[k] for k in sorted(range(len(s)), key=lambda k: (sizes[k], k))]

    def order(self, family: str, s: tuple) -> dict:
        """1-based ranks of the coordinate tuples of the subproduct over the
        factors s (sorted) in the family's order."""
        if (family, s) not in self._orders:
            tuples = sorted(
                itertools.product(*(range(self.shape[i]) for i in s)), key=lambda x: self._key(family, s, x)
            )
            self._orders[family, s] = {x: k + 1 for k, x in enumerate(tuples)}
        return self._orders[family, s]

    def ranks_of(self, family: str) -> list[int]:
        o = self.order(family, tuple(range(self.d)))
        return [o[x] for x in self.coords]

    def compress(self, ids, s, family: str) -> frozenset:
        """Inside every cut parallel to the factors s, the initial segment of
        the subproduct order with as many vertices as the set has there."""
        s = tuple(sorted(s))
        rest = [i for i in range(self.d) if i not in s]
        counts = Counter(tuple(self.coords[v][i] for i in rest) for v in ids)
        o = self.order(family, s)
        return frozenset(
            v for v, x in enumerate(self.coords)
            if o[tuple(x[i] for i in s)] <= counts[tuple(x[i] for i in rest)]
        )

    def fixpoint(self, ids, family: str) -> tuple[frozenset, int]:
        """Single-factor compressions, factor 1 to d, cycle after cycle until
        a cycle changes nothing: (set, cycles including that last one)."""
        a, cycles, changed = frozenset(ids), 0, True
        while changed:
            changed = False
            for i in range(self.d):
                b = self.compress(a, (i,), family)
                changed |= b != a
                a = b
            cycles += 1
        return a, cycles

    def stable(self, ids, subsets, family: str) -> bool:
        a = frozenset(ids)
        return all(self.compress(a, s, family) == a for s in subsets)

    def fibre_shortfall(self, ids, edges: Edges) -> Optional[int]:
        """A factor along which some fibre of the set induces fewer edges
        than the factor's I(k), or None: a set compressed along every
        single factor has none."""
        for i, name in enumerate(self.names):
            best = atom_profile(name)
            fibres: dict = {}
            for v in ids:
                x = self.coords[v]
                fibres.setdefault(x[:i] + x[i + 1 :], []).append(v)
            if any(edges.induced(f) != best[len(f)] for f in fibres.values()):
                return i + 1
        return None

    def block_compressed(self, ids, by_slice: bool) -> bool:
        """Every block before the last touched one (in block order; within
        each slice of the first factor when by_slice) is full."""
        occ, size = Counter(), Counter()
        a = set(ids)
        for v, x in enumerate(self.coords):
            b = tuple(self.seg[i][self.ranks[i][xi]] for i, xi in enumerate(x))
            size[b] += 1
            occ[b] += v in a
        groups: dict = {}
        for b in sorted(size):
            groups.setdefault(b[0] if by_slice else 0, []).append(b)
        for blocks in groups.values():
            touched = [k for k, b in enumerate(blocks) if occ[b]]
            if touched and any(occ[b] != size[b] for b in blocks[: touched[-1]]):
                return False
        return True


# -- engine agreement -----------------------------------------------------------------


class Disagreement(RuntimeError):
    """Two engines gave different answers, so no expected verdict exists."""


def agreed_profile(g) -> list[int]:
    """Exact I(m) on which two engines agree.  Up to the DP cap the subset
    DP is one engine, and the downset oracle (on products of two or three
    factors) or branch and bound the other; beyond the cap the downset
    oracle is checked against itself on the product with its first two
    factors swapped, which walks the slabs along another axis."""
    if g.n <= CAP:
        a = solver.exact_profile(g, "full", with_witnesses=False).i_values
        if g.factors is not None and len(g.factors) in (2, 3):
            b = solver.exact_profile(g, "compressed").i_values
        else:
            b = solver.exact_profile(g, "bnb", with_witnesses=False).i_values
    else:
        a = solver.exact_profile(g, "compressed").i_values
        f = list(g.factors)
        swapped = graphs.cartesian_product([f[1], f[0]] + f[2:])
        b = solver.exact_profile(swapped, "compressed").i_values
    if list(a) != list(b):
        raise Disagreement(f"engines disagree on a graph with {g.n} vertices")
    return list(a)


def pair_bl2_optimal(pair: Product) -> bool:
    """Whether the standard block-lexicographic order of a two-factor
    product is optimal.  Pairs of cliques follow from Lindsey's theorem and
    the Petersen square from Bezrukov, Das and Elsaesser; other pairs must
    fit the subset DP so that two engines can agree on the profile."""
    names = tuple(pair.names)
    if is_clique(names[0]) and is_clique(names[1]):
        return True
    if names == ("petersen", "petersen"):
        return True
    if pair.n > CAP:
        raise ValueError(f"no independent oracle for the pair {names}")
    g = graphs.cartesian_product([graphs.parse_graph_spec(x) for x in names])
    return Edges.of(g).prefix_counts(pair.ranks_of("sbl")) == agreed_profile(g)


# -- report parsing ---------------------------------------------------------------------


def _result(stdout: str) -> dict:
    return json.loads(stdout)["result"]


def _guard(check: Check) -> Check:
    def run(rc: int, stdout: str) -> list:
        try:
            return check(rc, stdout)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return [f"unreadable report ({type(e).__name__}: {e})"]

    return run


def _exit(rc: int, want: set) -> list:
    return [] if rc in want else [f"exit {rc}, expected one of {sorted(want)}"]


# -- checks per command kind --------------------------------------------------------------


def profile_check(values: list[int], edges: Optional[Edges] = None, theta_degree=None) -> Check:
    """`profile` report: values equal the expected I(m) (or, with
    theta_degree, the boundary minima degree*m - 2*I(m) of a regular
    graph); witnesses, when edges are given, induce I(m) edges."""
    want = values
    if theta_degree is not None:
        want = [theta_degree * m - 2 * v for m, v in enumerate(values)]

    def check(rc, stdout):
        res = _result(stdout)
        out = _exit(rc, {0})
        if res["values"] != want:
            out.append("profile values differ from the expected profile")
        if edges is not None:
            wits = res.get("witnesses") or []
            if len(wits) != len(values):
                out.append("missing witnesses")
            for m, w in enumerate(wits):
                if len(set(w)) != m or edges.induced(w) != values[m]:
                    out.append(f"witness for m={m} is not optimal")
                    break
        return out

    return _guard(check)


def order_check(values: list[int], edges: Edges, product: Product, family: str) -> Check:
    """`order --verify` report: the ranks are the reference order of the
    family, and the verdict is what that order's prefix counts give
    against the expected profile."""
    want = product.ranks_of(family)
    prefix = edges.prefix_counts(want)
    bad = [m for m in range(len(values)) if prefix[m] != values[m]]

    def check(rc, stdout):
        res = _result(stdout)
        out = _exit(rc, {2 if bad else 0})
        ranks = res["order"]["ranks"]
        if sorted(ranks) != list(range(1, product.n + 1)):
            out.append("ranks are not a permutation of 1..n")
        elif ranks != want:
            out.append(f"order differs from the reference {family} order")
        if res["verified_optimal"] is not (not bad):
            out.append(f"verified_optimal={res['verified_optimal']}, expected {not bad}")
        if res["first_failing_m"] != (bad[0] if bad else None):
            out.append(f"first_failing_m={res['first_failing_m']}, expected {bad[:1]}")
        return out

    return _guard(check)


class StatusOutsideAllowed(str):
    """The problem a named negative control is expected to show: a
    certificate status outside its allowed set."""


def certify_check(allowed: set, failing: Optional[str], crosschecked: bool) -> Check:
    """`certify` report: status in the allowed set, never revoked, the
    expected failing hypothesis, and crosscheck agreement when the
    certificate of a three-factor product was cross-checked."""

    def check(rc, stdout):
        res = _result(stdout)
        status = res["status"]
        out = []
        if res["revoked"]:
            out.append("certificate revoked")
        want_rc = {"certified": 0, "hypothesis_failed": 2, "inconclusive": 3}[status]
        out += _exit(rc, {want_rc})
        if status not in allowed:  # the failing hypothesis is moot then
            return [StatusOutsideAllowed(f"status {status}, allowed {sorted(allowed)}")] + out
        first_bad = next((h["name"] for h in res["hypotheses"] if not h["verified"]), None)
        if status == "hypothesis_failed" and first_bad != failing:
            out.append(f"failing hypothesis {first_bad}, expected {failing}")
        if status == "certified" and crosschecked:
            agree = [c["agreement"] for c in res["crosschecks"] if "agreement" in c]
            if agree != [True]:
                out.append(f"crosscheck agreement {agree}")
        return out

    return _guard(check)


def explore_check(want: list[tuple[str, str]]) -> Check:
    """`explore` report: exactly the expected instances, in order, each
    with its expected status."""

    def check(rc, stdout):
        out = _exit(rc, {0})
        got = [(i["name"], i["status"]) for i in _result(stdout)["instances"]]
        if [n for n, _ in got] != [n for n, _ in want]:
            return out + ["explorer instance list differs from the expected one"]
        return out + [f"{n}: {a}, expected {b}" for (n, a), (_, b) in zip(got, want) if a != b]

    return _guard(check)


def laws_check(samples: int) -> Check:
    """`compress --laws` report: the program's own seeded law check found
    no violation.  Its sets are not reported, so compress_once's outputs
    are checked on the `--once`, `--fixpoint` and predicate commands."""

    def check(rc, stdout):
        res = _result(stdout)
        out = _exit(rc, {0})
        if res["samples"] != samples or res["violations"] or res["ok"] is not True:
            out.append(f"compression laws violated: {res['violations'][:3]}")
        return out

    return _guard(check)


def compress_check(ids: list[int], edges: Edges, product: Product, family: str, mode: str,
                   along: Optional[tuple] = None) -> Check:
    """Compression of a set, against the reference compression: `--once`
    along the factors `along` gives the reference set and the true induced
    edge counts; `--fixpoint` gives the reference fixpoint and cycle count,
    and every fibre of it along a single factor induces the factor's I(k)
    edges; the predicates match the reference."""
    if mode == "once":
        want = {"compressed": sorted(product.compress(ids, along, family))}
        want["induced_before"] = edges.induced(ids)
        want["induced_after"] = edges.induced(want["compressed"])
    elif mode == "fixpoint":
        fix, cycles = product.fixpoint(ids, family)
        want = {"fixpoint": sorted(fix), "cycles": cycles}
    else:
        singles = [(i,) for i in range(product.d)]
        proper = [s for k in range(1, product.d) for s in itertools.combinations(range(product.d), k)]
        want = {
            "compressed": product.stable(ids, singles, family),
            "strongly_compressed": product.stable(ids, proper, family),
        }
        if family == "sbl":
            want["block_compressed"] = product.block_compressed(ids, by_slice=False)
            want["slice_compressed"] = product.block_compressed(ids, by_slice=True)

    def check(rc, stdout):
        res = _result(stdout)
        out = _exit(rc, {0})
        if res["size"] != len(set(ids)):
            out.append("reported size differs from the input set")
        out += [f"{k}: {res.get(k)!r:.60}, expected {v!r:.60}" for k, v in want.items() if res.get(k) != v]
        if mode == "fixpoint":
            factor = product.fibre_shortfall(res["fixpoint"], edges)
            if factor is not None:
                out.append(f"a fibre of the fixpoint along factor {factor} is not optimal")
        return out

    return _guard(check)
