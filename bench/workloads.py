"""Seeded workload generators.  Each turns a seed into the argv lists of
one pass over a workload, each argv paired with the check of its expected
verdict (see verdicts.py).  The program sees only the argv.

Every pass of a workload holds the same number of commands from each cost
class, and the seed picks within a class, so that a pass does about the
same work whatever the seed.  That keeps run-to-run spread low enough to
compare commits.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from blocklex.graphs import parse_graph_spec
from blocklex.solver import factor_profile_and_order

import verdicts as V

WORKLOADS = ("certify", "sweep")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: V.Check
    control: bool = False  # named negative control, see CONTROLS

    @property
    def text(self) -> str:
        return " ".join(self.argv)


@lru_cache(maxsize=None)
def _graph(spec: str):
    return parse_graph_spec(spec)


@lru_cache(maxsize=None)
def _edges(spec: str) -> V.Edges:
    return V.Edges.of(_graph(spec))


@lru_cache(maxsize=None)
def _agreed(spec: str) -> list[int]:
    return V.agreed_profile(_graph(spec))


@lru_cache(maxsize=None)
def _product(names: tuple[str, ...]) -> V.Product:
    """Reference orders and compression of a product, on the factor orders
    the program uses."""
    return V.Product(names, [factor_profile_and_order(_graph(x))[1].ranks.tolist() for x in names])


def build(workload: str, seed: int) -> list[Command]:
    rng = random.Random(f"{workload}:{seed}")
    return {"certify": _certify, "sweep": _sweep}[workload](rng, seed)


# -- certify -------------------------------------------------------------------------

FACTORS = ("K2", "K3", "K4", "C3", "C4", "C5", "C6", "P3", "P4", "P5", "petersen")

# K3^3 and K5^3 have a single block above the DP cap.  Lexicographic order
# is optimal on clique powers, so the right verdict is certified or
# inconclusive; the seed commit answers hypothesis_failed (exit 2), and
# these count as failures until that is fixed.
CONTROLS = ("K3^3", "K5^3")


def _pair_ok(a: str, b: str) -> bool:
    """Pairs with an independent oracle: both cliques, the Petersen square,
    or small enough for the subset DP."""
    return (
        (V.is_clique(a) and V.is_clique(b))
        or a == b == "petersen"
        or _n(a) * _n(b) <= V.CAP
    )


def _n(name: str) -> int:
    return len(V.atom_profile(name)) - 1


def certify_cost(names) -> int:
    """Subset-DP cells the certifier spends: every block of the product,
    then, unless a middle factor's partition is irregular (which stops the
    certifier first), every block and the profile of each distinct pair."""
    segs = [V.segment_sizes(n) for n in names]

    def blocks(ss):
        return sum(2 ** math.prod(b) for b in itertools.product(*ss))

    cost = blocks(segs)
    if any(s[0] != s[-1] for s in segs[1:-1]):
        return cost
    for a, b in set(itertools.combinations(names, 2)):
        cost += blocks([V.segment_sizes(a), V.segment_sizes(b)])
        if _n(a) * _n(b) <= V.CAP:
            cost += 2 ** (_n(a) * _n(b))
    return cost


def _standard_expectation(names) -> tuple[set, str | None]:
    """Which hypothesis of the standard certificate fails first, from the
    closed-form partitions and the pair oracle."""
    segs = [V.segment_sizes(n) for n in names]
    # a middle factor's first and last segments must match (regularity);
    # paths have a first segment of two vertices and a last of one
    if any(s[0] != s[-1] for s in segs[1:-1]):
        return {"hypothesis_failed"}, "regular_domination_collection"
    for i, j in itertools.combinations(range(len(names)), 2):
        pair = (names[i], names[j])
        if not _pair_bl2(pair):
            return {"hypothesis_failed"}, f"pairwise_bl2_optimal_{i + 1}_{j + 1}"
    return {"certified"}, None


@lru_cache(maxsize=None)
def _pair_bl2(pair: tuple[str, str]) -> bool:
    return V.pair_bl2_optimal(_product(pair))


def _lazy(make) -> V.Check:
    """A check whose expectation is worked out on its first use, after the
    first pass and outside its timing, so building a workload stays
    cheap."""
    box = []

    def check(rc, stdout):
        if not box:
            box.append(make())
        return box[0](rc, stdout)

    return check


def _cliques(rng: random.Random) -> list[str]:
    """K2, K3 (or C3) and K4 in a seeded order: the verdict depends on the
    order, the work does not."""
    names = ["K2", rng.choice(("K3", "C3")), "K4"]
    rng.shuffle(names)
    return names


def _clique_expectation(sizes, order, name) -> tuple[set, str | None]:
    """Lindsey: the lexicographic order of a clique pair is optimal iff the
    more significant clique is not the larger one."""
    for k, l in itertools.combinations(range(len(order)), 2):
        i, j = order[k], order[l]
        if sizes[i] > sizes[j]:
            return {"hypothesis_failed"}, name.format(i + 1, j + 1)
    return {"certified"}, None


def _certify_pool():
    """Standard-partition products with an independent oracle for every
    pair, in two bands of subset-DP cells: a DP class of 1.0-1.1 x 2^20
    cells (one 20-vertex profile's worth, about 0.08 s here) and a light
    class under 2^16 cells on at most 100 vertices."""
    pool = {"dp": [], "light": []}
    for d in (3, 4):
        for names in itertools.product(FACTORS, repeat=d):
            if not all(_pair_ok(a, b) for a, b in itertools.combinations(names, 2)):
                continue
            if math.prod(max(V.segment_sizes(n)) for n in names) > V.CAP:
                continue
            cost = certify_cost(names) / 2**20
            if 1.0 <= cost < 1.1:
                pool["dp"].append(names)
            elif d == 3 and cost < 2**-4 and math.prod(_n(x) for x in names) <= 100:
                pool["light"].append(names)
    return pool


# The heavy slot: an ordering of C5, C4, K2 and C3 (or K3).  Each ordering
# profiles the same 24-vertex block graph four times, as C5xC4xK2xC3 does,
# and costs the same; which factor pairs pass differs with the order.
HEAVY = ("C5", "C4", "K2")

# The large slot: three-factor Petersen products of 200 or 1000 vertices,
# whose crosscheck runs the downset oracle on the whole product.
LARGE = (("petersen",) * 3, ("petersen", "petersen", "K2"), ("petersen", "K2", "petersen"),
         ("K2", "petersen", "petersen"))

_POOL = None


def _certify(rng: random.Random, seed: int) -> list[Command]:
    """Per pass: one heavy and one large product, thirty-six of the DP
    class and five light ones with standard partitions, four atomic and
    twelve domination certificates on K2 x K3 x K4 in seeded orders, and
    the two negative controls.  The DP class holds both the tail percentile
    (the eleventh most costly command) and the median: commands of 60 ms
    average out the swings of a shared machine that commands of 5 ms do
    not."""
    global _POOL
    if _POOL is None:
        _POOL = _certify_pool()
    heavy = list(HEAVY) + [rng.choice(("C3", "K3"))]
    rng.shuffle(heavy)
    picks = [tuple(heavy), rng.choice(LARGE)] + rng.sample(_POOL["dp"], 36)
    picks += rng.sample(_POOL["light"], 5)
    cmds = []
    for names in picks:
        argv = ("certify", "x".join(names), "--format", "json")
        cmds.append(Command(argv, _lazy(lambda names=names: V.certify_check(
            *_standard_expectation(names), len(names) == 3))))
    for _ in range(4):  # atomic partitions: the lexicographic order
        names = _cliques(rng)
        sizes = [V.clique_size(n) for n in names]
        allowed, failing = _clique_expectation(sizes, range(3), "pairwise_bl2_optimal_{}_{}")
        argv = ["certify", "x".join(names), "--partitions", "atomic", "--format", "json"]
        cmds.append(Command(tuple(argv), V.certify_check(allowed, failing, True)))
    # domination orders: the significance puts the sizes in each of the six
    # possible orders twice, since where the first failing pair lies (and so
    # the work) depends on it; the seed arranges the factors
    for pattern in list(itertools.permutations(range(3))) * 2:
        names = _cliques(rng)
        sizes = [V.clique_size(n) for n in names]
        by_size = sorted(range(3), key=lambda i: sizes[i])
        pi = [by_size[r] for r in pattern]
        allowed, failing = _clique_expectation(sizes, pi, "pairwise_lex_optimal_{}_{}")
        argv = [
            "certify", "x".join(names), "--domination",
            ",".join(str(i + 1) for i in pi), "--format", "json",
        ]
        cmds.append(Command(tuple(argv), V.certify_check(allowed, failing, False)))
    for spec in CONTROLS:
        check = V.certify_check({"certified", "inconclusive"}, None, True)
        cmds.append(Command(("certify", spec, "--format", "json"), check, control=True))
    rng.shuffle(cmds)
    return cmds


# -- sweep ---------------------------------------------------------------------------

ATOMS = ("K", "P", "C")


def _union(rng: random.Random, n: int) -> tuple[str, list[int]]:
    """A seeded disjoint union of 2-4 named atoms with n vertices in all,
    with its closed-form profile."""
    k = rng.choice((2, 3, 4))
    cuts = sorted(rng.sample(range(3, n - 2), k - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    while min(sizes) < 3:
        cuts = sorted(rng.sample(range(3, n - 2), k - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    names = [
        f"{rng.choice(ATOMS) if s <= 8 else rng.choice('PC')}{s}" for s in sizes
    ]
    spec = f"union({','.join(names)})"
    return spec, V.union_profile([V.atom_profile(x) for x in names])


def _regular_union(rng: random.Random, n: int) -> tuple[str, list[int]]:
    """A disjoint union of cycles with n vertices: 2-regular."""
    sizes = []
    while n - sum(sizes) >= 6:
        sizes.append(rng.randint(3, min(9, n - sum(sizes) - 3)))
    sizes.append(n - sum(sizes))
    names = [f"C{s}" for s in sizes]
    return f"union({','.join(names)})", V.union_profile([V.cycle_profile(s) for s in sizes])


CLIQUE_PRODUCTS_24 = ("K2^3xK3", "K2xK3xK4", "K4xK6", "K3xK8", "K2xK12", "K24")
PRODUCTS_21 = ("C3xC7", "K3xC7", "P3xC7", "K3xP7", "P3xP7", "C3xP7")
PRODUCTS_20 = ("C4xC5", "K4xC5", "P4xC5", "petersenxK2", "K4xP5", "P5xC4", "K2xC10", "P2xP10")
PRODUCTS_16 = ("C4xC4", "K2xC8", "K2xP8", "P4xC4", "P2xC8", "P4xP4")


def _profile(spec: str, values: list[int], *flags: str, **kw) -> Command:
    argv = ("profile", spec) + flags + ("--format", "json")
    return Command(argv, V.profile_check(values, **kw))


def _agreed_profile(spec: str, *flags: str) -> Command:
    """A profile command checked against two agreeing engines."""
    argv = ("profile", spec) + flags + ("--format", "json")
    return Command(argv, _lazy(lambda: V.profile_check(_agreed(spec))))


def _sweep(rng: random.Random, seed: int) -> list[Command]:
    """Per pass, graphs whose subset-DP cost is fixed by their size: one
    24-vertex profile with witnesses, three of 23 vertices, a 22-vertex
    theta profile, nine of 21 and twelve of 20 vertices; three
    branch-and-bound profiles of 16-20 vertices; the path-clique explorer
    up to 20 vertices and two hspi instances; and eleven commands on
    products of 80-120 vertices (see _products).  Of these 43 commands the
    21-vertex class holds the tail percentile (the eleventh most costly)
    and the 20-vertex class the median, each near its middle."""
    if rng.random() < 0.5:
        spec = rng.choice(CLIQUE_PRODUCTS_24)
        g = _graph(spec)
        values = V.clique_product_profile([f.n for f in g.factors or [g]])
    else:
        spec, values = _union(rng, 24)
    cmds = [_profile(spec, values, "--witnesses", edges=_edges(spec))]
    for _ in range(3):
        cmds.append(_profile(*_union(rng, 23)))
    spec, values = _regular_union(rng, 22)
    cmds.append(_profile(spec, values, "--theta", theta_degree=2))
    for n, products, k in ((21, PRODUCTS_21, 9), (20, PRODUCTS_20, 12)):
        for spec in rng.sample(products, 4):
            cmds.append(_agreed_profile(spec))
        for _ in range(k - 4):
            cmds.append(_profile(*_union(rng, n)))
    for _ in range(2):
        cmds.append(_profile(*_union(rng, rng.randint(16, 20)), "--strategy", "bnb"))
    cmds.append(_agreed_profile(rng.choice(PRODUCTS_16), "--strategy", "bnb"))
    cmds.append(_path_clique(20))
    for _ in range(2):
        p = rng.randint(3, 6)
        cmds.append(_hspi(p, rng.randint(0, 2 * p - 1), rng.choice((1, 2))))
    cmds += _products(rng, seed)
    rng.shuffle(cmds)
    return cmds


# Explorer statuses the seed commit gave, for the instances no theorem
# decides; record.py writes the file.
RECORDED = Path(__file__).resolve().parent / "explore_statuses.json"


@lru_cache(maxsize=None)
def _recorded() -> dict:
    return json.loads(RECORDED.read_text())


def explorer_argvs() -> list[tuple[str, ...]]:
    """Every explorer command a sweep pass can draw."""
    out = [("explore", "path_clique", "--max-vertices", "20")]
    for p in range(3, 7):
        for i in range(2 * p):
            out += [("explore", "hspi", "--p", str(p), "--i", str(i), "--d", str(d)) for d in (1, 2)]
    return out


def _explorer(argv: tuple[str, ...], decided) -> Command:
    """An explorer command whose expected statuses are the recorded ones,
    except where `decided(name)` gives the status a theorem decides."""
    want = [(name, decided(name) or status) for name, status in _recorded()[" ".join(argv)]]
    return Command(argv + ("--format", "json"), V.explore_check(want))


def _path_clique(max_n: int) -> Command:
    """The explorer's family: P_a^d1 x K_b^d2 with at most max_n vertices.
    Clique powers (including K2 = P2 factors) have nested solutions by
    Lindsey's theorem, as does a single path."""

    def decided(name):
        (n1, d1), (_, d2) = [map(int, part[1:].split("^")) for part in name.split(" x ")]
        return "SUPPORTED" if d1 == 0 or n1 == 2 or (d1 == 1 and d2 == 0) else None

    return _explorer(("explore", "path_clique", "--max-vertices", str(max_n)), decided)


def _hspi(p: int, i: int, d: int) -> Command:
    """K_2p minus i perfect matchings, and with d = 2 the lexicographic
    order of its square.  With i = 0 it is a clique: nested solutions, and
    lexicographic order optimal on its square (Lindsey), inside the
    conjecture's bound, so both SUPPORTED.  With i = 2p - 1 it has no
    edges: nested solutions, and every order of the square optimal, which
    outside the bound refutes the no-nested claim (REFUTED)."""

    def decided(name):
        if i == 0:
            return "SUPPORTED"
        if i == 2 * p - 1:
            return "REFUTED" if name.endswith("lexicographic") else "SUPPORTED"
        return None

    return _explorer(("explore", "hspi", "--p", str(p), "--i", str(i), "--d", str(d)), decided)


# -- products ------------------------------------------------------------------------

def _atoms_of_size(k: int) -> list[str]:
    out = [f"K{k}"] + ([f"C{k}", f"P{k}"] if k >= 4 else [])
    return out + (["petersen"] if k == 10 else [])


def _product_names(rng: random.Random, sizes, sbl: bool = False) -> list[str]:
    """A product with the given factor sizes, in a seeded order, with a
    seeded atom (clique, cycle, path, Petersen) of each size.  The work of
    the downset DP and of compression depends on the sizes, so a slot
    costs about the same for every seed.  For the standard
    block-lexicographic family blocks stay at 16 vertices or fewer, so the
    subset DP stays a small share of the work."""
    sizes = list(sizes)
    rng.shuffle(sizes)
    while True:
        names = [rng.choice(_atoms_of_size(k)) for k in sizes]
        if not sbl or math.prod(max(V.segment_sizes(x)) for x in names) <= 16:
            return names


def _expected_profile(names: list[str]) -> list[int]:
    if all(V.is_clique(x) for x in names):
        return V.clique_product_profile([V.clique_size(x) for x in names])
    return _agreed("x".join(names))


# factor sizes: the verified order, the law checks, and the sets given to
# --once, --fixpoint and the predicates, one slot each
ORDER_SIZES = (8, 5, 3)
LAWS_SIZES = (6, 5, 4)
LAWS_SAMPLES = 12
SET_SIZES = ((5, 4, 4), (6, 5, 3))
# the sets the predicates are asked about, per family and slot, so that
# each predicate meets both answers
PREDICATE_INPUTS = {"lex": ("fixpoint", "random"), "sbl": ("segment", "fixpoint")}


def _predicate_input(product: V.Product, family: str, kind: str, ids: list[int]) -> list[int]:
    """A random set, its single-factor fixpoint (compressed, rarely
    strongly compressed), or an initial segment of the family's order of
    the whole product of the same size (compressed in every sense)."""
    if kind == "fixpoint":
        return sorted(product.fixpoint(ids, family)[0])
    if kind == "segment":
        return sorted(v for v, r in enumerate(product.ranks_of(family)) if r <= len(ids))
    return ids


def _products(rng: random.Random, seed: int) -> list[Command]:
    """The commands of the order and compression layers, each a few
    milliseconds to tens of milliseconds on products of 80-120 vertices:
    one standard block-lexicographic order verified against the compressed
    (downset) profile, and in each order family a seeded law check, a
    single compression along two factors, a fixpoint and two predicate
    checks (see PREDICATE_INPUTS).  Their time is bound by the
    interpreter, which the other tenants of a shared machine slow more than
    the subset DP's passes over large arrays; a few per pass keep these
    layers measured without letting them set the workload's spread."""
    names = _product_names(rng, ORDER_SIZES, sbl=True)
    spec = "x".join(names)
    argv = ("order", spec, "--sbl", "--verify", "--strategy", "compressed", "--format", "json")
    cmds = [Command(argv, _lazy(lambda names=names, spec=spec: V.order_check(
        _expected_profile(names), _edges(spec), _product(tuple(names)), "sbl")))]
    for family in ("lex", "sbl"):
        spec = "x".join(_product_names(rng, LAWS_SIZES, sbl=family == "sbl"))
        argv = (
            "compress", spec, "--family", family, "--laws", str(LAWS_SAMPLES),
            "--seed", str(seed), "--format", "json",
        )
        cmds.append(Command(argv, V.laws_check(LAWS_SAMPLES)))
        for mode, slots in (("once", (0,)), ("fixpoint", (1,)), ("predicates", (0, 1))):
            for slot in slots:
                names = tuple(_product_names(rng, SET_SIZES[slot], sbl=family == "sbl"))
                spec = "x".join(names)
                product = _product(names)
                n = product.n
                ids = sorted(rng.sample(range(n), n // 4))
                along = None
                if mode == "once":  # along two factors, whose order need not be optimal
                    along = tuple(sorted(rng.sample(range(3), 2)))
                elif mode == "predicates":
                    ids = _predicate_input(product, family, PREDICATE_INPUTS[family][slot], ids)
                argv = ["compress", spec, "--family", family, "--set", json.dumps(ids).replace(" ", "")]
                if mode == "once":
                    argv += ["--once", ",".join(str(i + 1) for i in along)]
                elif mode == "fixpoint":
                    argv += ["--fixpoint"]
                argv += ["--format", "json"]
                check = V.compress_check(ids, _edges(spec), product, family, mode, along)
                cmds.append(Command(tuple(argv), check))
    return cmds
