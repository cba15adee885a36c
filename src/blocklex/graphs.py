"""Simple undirected graphs, named families, Cartesian products, and the
raw edge-counting functionals used throughout the edge-isoperimetric
machinery.

Vertices are the integers 0..n-1.  A graph built as a Cartesian product
remembers its factor graphs; the product vertex id is the mixed-radix
encoding of the coordinate tuple with factor 1 as the most significant
digit, so numeric id order coincides with the lexicographic order on
coordinate tuples when each factor carries the identity order.

All ranks shown to users (orders, partitions, reports) are 1-based;
vertex ids and factor indices in the Python API are 0-based.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Graph",
    "VertexSet",
    "clique",
    "path",
    "cycle",
    "petersen",
    "complete_bipartite",
    "disjoint_union",
    "cartesian_product",
    "graph_power",
    "subproduct",
    "permute_factors",
    "induced_edges",
    "boundary_edges",
    "induced_subgraph",
    "parse_graph_spec",
    "mixed_radix",
    "integers",
    "split_ids",
]


def integers(values: Iterable, what: str) -> list[int]:
    """`values` as a list of ints.  Raises a ValueError naming `what` when
    `values` is not a list or holds a non-integer: floats (1.0 included)
    and bools read from JSON are refused, not truncated."""
    try:
        values = list(values)
    except TypeError:
        raise ValueError(f"{what} must be a list of integers, got {values!r}") from None
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{what} must be integers, got {v!r}")
    return [int(v) for v in values]


def mixed_radix(shape: Sequence[int]) -> np.ndarray:
    """Place values of the mixed-radix code over `shape`, digit 0 most
    significant: id = sum digits[i] * w[i]."""
    w = np.ones(len(shape), dtype=np.int64)
    w[:-1] = np.cumprod(np.asarray(shape[:0:-1], dtype=np.int64))[::-1]
    return w


class VertexSet:
    """Dense membership set over the vertex ids 0..n-1.

    Immutable once built; membership queries are O(1) and the cardinality
    is cached.  This is the universal currency of the induced-edge and
    boundary functionals, the compression operators, and the oracles.
    """

    __slots__ = ("mask", "_size")

    def __init__(self, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool).copy()
        mask.setflags(write=False)
        self.mask = mask
        self._size = int(mask.sum())

    @classmethod
    def from_ids(cls, n: int, ids: Iterable[int] | np.ndarray) -> "VertexSet":
        mask = np.zeros(n, dtype=bool)
        if isinstance(ids, np.ndarray):
            if ids.size and ids.dtype.kind not in "iu":
                raise ValueError("vertex ids must be integers")
        else:
            ids = integers(ids, "vertex ids")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size:
            if ids.min() < 0 or ids.max() >= n:
                raise ValueError("vertex id out of range")
            mask[ids] = True
        return cls(mask)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(np.zeros(n, dtype=bool))

    @classmethod
    def full(cls, n: int) -> "VertexSet":
        return cls(np.ones(n, dtype=bool))

    @property
    def n(self) -> int:
        return self.mask.shape[0]

    def ids(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __len__(self) -> int:
        return self._size

    def __contains__(self, v: int) -> bool:
        return bool(self.mask[v])

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids().tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.n == other.n and bool(
            np.array_equal(self.mask, other.mask)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask.tobytes()))

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.mask & ~other.mask)

    def complement(self) -> "VertexSet":
        return VertexSet(~self.mask)

    def issubset(self, other: "VertexSet") -> bool:
        return bool(np.all(~self.mask | other.mask))

    def __repr__(self) -> str:
        ids = self.ids().tolist()
        if len(ids) > 12:
            shown = ", ".join(map(str, ids[:12])) + ", ..."
        else:
            shown = ", ".join(map(str, ids))
        return f"VertexSet(n={self.n}, size={self._size}, {{{shown}}})"


def _as_mask(g: "Graph", a) -> np.ndarray:
    if isinstance(a, VertexSet):
        if a.n != g.n:
            raise ValueError("vertex set size does not match graph")
        return a.mask
    if isinstance(a, np.ndarray) and a.dtype == bool:
        if a.shape[0] != g.n:
            raise ValueError("mask length does not match graph")
        return a
    return VertexSet.from_ids(g.n, a).mask


class Graph:
    """Immutable simple undirected graph.

    `factors`, when present, records that the graph was constructed as a
    Cartesian product of those factor graphs (in order).  In that case
    n = prod(factor sizes) and vertex ids correspond bijectively to
    mixed-radix coordinate tuples.
    """

    __slots__ = (
        "n",
        "factors",
        "_neighbors",
        "_edges",
        "_coords",
        "_radix",
        "_digest",
        "_bitmasks",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]], factors=None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            seen.add((min(u, v), max(u, v)))
        pairs = np.array(sorted(seen), dtype=np.int64).reshape(-1, 2)
        self._set(n, np.ascontiguousarray(pairs.T), factors)

    @classmethod
    def _unchecked(cls, n: int, pairs: np.ndarray, factors=None) -> "Graph":
        """A graph from a fresh (2, E) array of edges u < v sorted by (u, v),
        built from other graphs' edges, so it skips the constructor's checks."""
        g = cls.__new__(cls)
        g._set(n, pairs, factors)
        return g

    def _set(self, n: int, pairs: np.ndarray, factors) -> None:
        """Fill the slots from a (2, E) array of sorted edges u < v."""
        self.n = n
        pairs.setflags(write=False)
        self._edges = (pairs[0], pairs[1])
        if factors is not None:
            factors = tuple(factors)
            if math.prod(f.n for f in factors) != n:
                raise ValueError("factor sizes do not multiply to n")
        self.factors = factors
        self._neighbors = None
        self._coords = None
        self._radix = None
        self._digest = None
        self._bitmasks = None

    # -- basic accessors ---------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self._edges[0].shape[0]

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self._edges

    def edges(self) -> list[tuple[int, int]]:
        eu, ev = self._edges
        return list(zip(eu.tolist(), ev.tolist()))

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self._edges), minlength=self.n)

    @property
    def neighbors(self) -> tuple[np.ndarray, ...]:
        """Per-vertex sorted neighbour ids, read-only views of one array
        built on first use from the edge arrays."""
        if self._neighbors is None:
            eu, ev = self._edges
            src, dst = np.concatenate((eu, ev)), np.concatenate((ev, eu))
            nbrs = dst[np.lexsort((dst, src))]
            nbrs.setflags(write=False)
            ends = np.cumsum(np.bincount(src, minlength=self.n))[:-1]
            self._neighbors = tuple(np.split(nbrs, ends))
        return self._neighbors

    def regular_degree(self):
        """Common degree if the graph is regular, else None."""
        degs = self.degrees()
        d = int(degs[0])
        return d if bool(np.all(degs == d)) else None

    def adjacency_bitmasks(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks, built once; only for n <= 63."""
        if self._bitmasks is None:
            if self.n > 63:
                raise ValueError("bitmask adjacency limited to n <= 63")
            adj = [0] * self.n
            eu, ev = self._edges
            for u, v in zip(eu.tolist(), ev.tolist()):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            self._bitmasks = tuple(adj)
        return self._bitmasks

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors[u]
        i = np.searchsorted(nb, v)
        return bool(i < nb.shape[0] and nb[i] == v)

    # -- product structure -------------------------------------------------

    @property
    def factor_shape(self):
        if self.factors is None:
            return None
        return tuple(f.n for f in self.factors)

    def radix(self) -> np.ndarray:
        """Mixed-radix weights: id = sum coords[i] * radix[i], factor 0 most
        significant."""
        if self.factors is None:
            raise ValueError("graph was not built as a product")
        if self._radix is None:
            w = mixed_radix(self.factor_shape)
            w.setflags(write=False)
            self._radix = w
        return self._radix

    def coords(self) -> np.ndarray:
        """(n, d) array: row v holds the coordinate tuple of vertex v."""
        if self.factors is None:
            raise ValueError("graph was not built as a product")
        if self._coords is None:
            shape = self.factor_shape
            ids = np.arange(self.n, dtype=np.int64)
            w = self.radix()
            cols = [(ids // w[i]) % shape[i] for i in range(len(shape))]
            c = np.stack(cols, axis=1)
            c.setflags(write=False)
            self._coords = c
        return self._coords

    def vertex_id(self, coords: Sequence[int]) -> int:
        return int(np.dot(np.asarray(coords, dtype=np.int64), self.radix()))

    def vertex_tuple(self, v: int) -> tuple[int, ...]:
        return tuple(self.coords()[v].tolist())

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        out = {"n": self.n, "edges": [[int(u), int(v)] for u, v in self.edges()]}
        if self.factors is not None:
            out["factors"] = list(self.factor_shape)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Graph":
        n = int(data["n"])
        edges = [(int(u), int(v)) for u, v in data["edges"]]
        g = cls(n, edges)
        if "factors" in data and data["factors"]:
            shape = [int(x) for x in data["factors"]]
            prod = 1
            for s in shape:
                prod *= s
            if prod != n:
                raise ValueError("declared factors do not multiply to n")
            factors = _extract_factors(g, shape)
            rebuilt = cartesian_product(factors)
            if rebuilt.edges() != g.edges():
                raise ValueError("edge set is not the product of the declared factors")
            return rebuilt
        return g

    @property
    def digest(self) -> str:
        """SHA-256 of `to_json()` as compact JSON with sorted keys, the
        payload written out directly."""
        if self._digest is None:
            eu, ev = self._edges
            pairs = np.column_stack((eu, ev)).ravel().tolist()
            payload = '{"edges":[' + ("[%d,%d]," * len(eu))[:-1] % tuple(pairs) + "]"
            if self.factors is not None:
                payload += ',"factors":[' + ",".join(map(str, self.factor_shape)) + "]"
            payload += f',"n":{self.n}}}'
            self._digest = hashlib.sha256(payload.encode()).hexdigest()
        return self._digest

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.factor_shape == other.factor_shape
            and self.edges() == other.edges()
        )

    def __hash__(self) -> int:
        return hash((self.n, self.factor_shape, self.digest))

    def __repr__(self) -> str:
        tag = f", factors={self.factor_shape}" if self.factors else ""
        return f"Graph(n={self.n}, edges={self.num_edges}{tag})"


def _extract_factors(g: Graph, shape: list[int]) -> list[Graph]:
    """Recover factor graphs from a product graph given the factor sizes.

    Factor i is read off the axis line through the origin (all other
    coordinates 0); the caller re-validates the full product structure.
    """
    w = mixed_radix(shape).tolist()
    factors = []
    for i in range(len(shape)):
        edges = []
        for a in range(shape[i]):
            for b in range(a + 1, shape[i]):
                if g.has_edge(a * w[i], b * w[i]):
                    edges.append((a, b))
        factors.append(Graph(shape[i], edges))
    return factors


# -- named constructors ----------------------------------------------------


def clique(n: int) -> Graph:
    if n < 1:
        raise ValueError("clique needs n >= 1")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- 5+i."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError("complete bipartite needs both sides >= 1")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    if not graphs:
        raise ValueError("union of no graphs")
    # each graph's sorted edges, shifted past the graphs before it, follow
    # theirs in sorted order
    offsets = list(itertools.accumulate((g.n for g in graphs), initial=0))
    pairs = [np.stack(g.edge_arrays()) + off for g, off in zip(graphs, offsets)]
    return Graph._unchecked(offsets[-1], np.concatenate(pairs, axis=1))


# -- products ----------------------------------------------------------------


def cartesian_product(graphs: Sequence[Graph]) -> Graph:
    """Cartesian product: edge iff exactly one coordinate differs and that
    pair is an edge in its factor.  Records the factor list.  A product
    of simple graphs is simple, so its edges skip `Graph`'s input checks."""
    graphs = list(graphs)
    if not graphs:
        raise ValueError("product of no graphs")
    shape = [g.n for g in graphs]
    n = math.prod(shape)
    ids = np.arange(n, dtype=np.int64).reshape(shape)
    keys = []
    for i, gi in enumerate(graphs):
        # line copies of factor i: its edges (u, v), coded u * n + v, shifted
        # to every id whose i-th coordinate is 0
        w = math.prod(shape[i + 1 :])
        eu, ev = gi.edge_arrays()
        keys.append(np.add.outer(eu * (w * n) + ev * w, ids.take(0, axis=i) * (n + 1)))
    key = np.sort(np.concatenate([k.ravel() for k in keys]))
    return Graph._unchecked(n, np.stack(np.divmod(key, n)), graphs)


def graph_power(g: Graph, k: int) -> Graph:
    if k < 1:
        raise ValueError("power needs k >= 1")
    return cartesian_product([g] * k)


def subproduct(g: Graph, s: Sequence[int]) -> Graph:
    """Product of the selected factors (0-based indices), ascending order."""
    if g.factors is None:
        raise ValueError("subproduct requires a product graph")
    s = sorted(set(int(i) for i in s))
    if not s:
        raise ValueError("factor index set must be nonempty")
    if s[0] < 0 or s[-1] >= len(g.factors):
        raise ValueError("factor index out of range")
    return cartesian_product([g.factors[i] for i in s])


def permute_factors(g: Graph, pi: Sequence[int]) -> tuple[Graph, np.ndarray]:
    """Reorder factors by `pi` (0-based: new factor k is old factor pi[k]).

    Returns the permuted product and the vertex relabeling `psi` with
    psi[v] the id of v's coordinate tuple gathered by pi.  Transporting
    any vertex set through psi preserves all edge counts.
    """
    if g.factors is None:
        raise ValueError("permute_factors requires a product graph")
    d = len(g.factors)
    pi = [int(x) for x in pi]
    if sorted(pi) != list(range(d)):
        raise ValueError("pi is not a permutation of the factor indices")
    h = cartesian_product([g.factors[i] for i in pi])
    new_coords = g.coords()[:, pi]
    psi = new_coords @ h.radix()
    return h, psi


def split_ids(g: Graph, s: Sequence[int]) -> tuple[np.ndarray, np.ndarray, int]:
    """Split the vertex ids of a product over the sorted factor subset s:
    (each vertex's id in the subproduct over s, the id of its cut, i.e. of
    its coordinates outside s, and the number of cuts)."""
    shape = g.factor_shape
    comp = [i for i in range(len(shape)) if i not in s]
    coords = g.coords()
    sub_id = coords[:, list(s)] @ mixed_radix([shape[i] for i in s])
    cut_id = coords[:, comp] @ mixed_radix([shape[i] for i in comp])
    return sub_id, cut_id, math.prod(shape[i] for i in comp)


# -- edge functionals --------------------------------------------------------


def induced_edges(g: Graph, a, b=None) -> int:
    """|{ {u,v} in E : one endpoint in a, the other in b }|.

    With b omitted (or b = a) this is the number of edges induced by a.
    """
    am = _as_mask(g, a)
    bm = am if b is None else _as_mask(g, b)
    eu, ev = g.edge_arrays()
    if eu.size == 0:
        return 0
    hit = (am[eu] & bm[ev]) | (am[ev] & bm[eu])
    return int(np.count_nonzero(hit))


def boundary_edges(g: Graph, a) -> int:
    """|{ {u,v} in E : exactly one endpoint in a }|."""
    am = _as_mask(g, a)
    eu, ev = g.edge_arrays()
    if eu.size == 0:
        return 0
    return int(np.count_nonzero(am[eu] != am[ev]))


def induced_subgraph(g: Graph, vertices) -> tuple[Graph, list[int]]:
    """Subgraph induced on `vertices`, relabeled 0..k-1 in the given order.

    Returns the subgraph and the list mapping new ids to old ids.
    """
    if isinstance(vertices, VertexSet):
        old = vertices.ids().tolist()
    else:
        old = [int(v) for v in vertices]
    pos = {v: i for i, v in enumerate(old)}
    if len(pos) != len(old):
        raise ValueError("duplicate vertices")
    edges = []
    for i, v in enumerate(old):
        for w in g.neighbors[v].tolist():
            j = pos.get(w)
            if j is not None and j > i:
                edges.append((i, j))
    return Graph(len(old), edges), old


# -- graph spec grammar ------------------------------------------------------

_NAME_RE = re.compile(r"^(K(?P<kn>\d+)|P(?P<pn>\d+)|C(?P<cn>\d+)|K(?P<ba>\d+),(?P<bb>\d+)|petersen)$", re.IGNORECASE)


def _split_top(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def _parse_atom(tok: str) -> Graph:
    tok = tok.strip()
    low = tok.lower()
    if low.startswith("union(") and tok.endswith(")"):
        args: list[str] = []
        for t in _split_top(tok[len("union(") : -1], ","):
            if t.strip().isdigit() and args and re.search(r"K\d+\s*$", args[-1], re.I):
                args[-1] += "," + t  # the b of K<a>,<b>
            else:
                args.append(t)
        return disjoint_union([parse_graph_spec(t) for t in args])
    m = _NAME_RE.match(tok)
    if not m:
        raise ValueError(f"cannot parse graph name {tok!r}")
    if m.group("ba") is not None:
        return complete_bipartite(int(m.group("ba")), int(m.group("bb")))
    if m.group("kn") is not None:
        return clique(int(m.group("kn")))
    if m.group("pn") is not None:
        return path(int(m.group("pn")))
    if m.group("cn") is not None:
        return cycle(int(m.group("cn")))
    return petersen()


def parse_graph_spec(text: str) -> Graph:
    """Parse specs like "K5", "P4", "C5", "petersen", "K3,3",
    "petersen^2xK2", "union(K5,K3,3,P3^2)".  Products use the 'x'
    separator, powers use '^'; each union argument is a spec."""
    text = text.strip()
    if not text:
        raise ValueError("empty graph spec")
    terms = _split_top(text, "x")
    if any(not t.strip() for t in terms):
        raise ValueError(f"empty product term in {text!r}")
    parts: list[Graph] = []
    for t in terms:
        pieces = _split_top(t, "^")  # a power is a product
        k = int(pieces.pop()) if len(pieces) > 1 else 1
        if k < 1:
            raise ValueError("power needs k >= 1")
        parts += [_parse_atom("^".join(pieces))] * k
    return parts[0] if len(parts) == 1 else cartesian_product(parts)
