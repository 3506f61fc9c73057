"""Weighted undirected simple graphs, their matrices, and Cartesian products.

Vertices are contiguous integers 0..n-1. Product-graph vertices (i1, i2)
are flattened lexicographically to n2*i1 + i2, and that single ordering is
used everywhere downstream.

Each graph builds its weighted incidence operator (`Incidence`) once. It
works along the leading axis only, with trailing axes as a batch, and a
caller puts the factor it works on first. D x, D^T v and |D|^T v then cost
O(|E|) per batch entry, in a number of numpy calls set by the largest count
of lower or higher neighbours; no n x n or |E| x n matrix is formed.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TextIO

import numpy as np

from .errors import DimensionError, FormatError, GraphError


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class _Side:
    """Gather table of one side of the edges: the edges that each vertex owns
    as its lower endpoint (leading to higher neighbours), or as its higher one.

    `vertices` lists every vertex with at least one such edge, those with the
    most first (ties in ascending order). `edges` holds the ranks one after
    another, rank k ending at `ends[k]`: rank k lists, for each vertex with
    more than k such edges, its edge to the k-th lowest such neighbour.
    Since the vertices run by decreasing count, those vertices are a prefix
    of `vertices`. One array per side keeps a graph's long-lived allocations
    few. Where `vertices` is a run of consecutive integers (both sides of a
    path, the higher side of a cycle), `span` is that run as a slice.
    """

    vertices: np.ndarray
    edges: np.ndarray
    ends: tuple[int, ...]
    span: slice | None = None

    @classmethod
    def of(cls, endpoint: np.ndarray, order: np.ndarray) -> "_Side":
        """The side whose vertex is `endpoint[e]`; `order` lists the edges grouped
        by that vertex, in ascending order of the other endpoint."""
        owner = endpoint[order]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        counts = np.diff(starts, append=owner.size)
        most = np.argsort(-counts, kind="stable")
        starts, counts = starts[most], counts[most]
        ranks = [order[starts[counts > k] + k] for k in range(int(counts.max(initial=0)))]
        edges = np.concatenate(ranks) if ranks else order  # no ranks: order is empty
        vertices = owner[starts]
        first = int(vertices[0]) if vertices.size else 0
        span = slice(first, first + vertices.size)
        return cls(vertices=_freeze(vertices), edges=_freeze(edges),
                   ends=tuple(np.cumsum([r.size for r in ranks]).tolist()),
                   span=span if np.array_equal(vertices, np.arange(span.start, span.stop))
                   else None)

    def sum_into(self, out: np.ndarray, v: np.ndarray) -> None:
        """Set out[u] to the sum of the rows of v over u's edges on this side, added
        one neighbour at a time in ascending order. v must have one row per edge:
        the gathers in "clip" mode do not check it."""
        if self.ends:
            # a run of consecutive vertices is one contiguous block of out, and the
            # sums go straight into it
            if self.span is None:
                acc = v.take(self.edges[:self.ends[0]], 0)
            else:
                acc = out[self.span]
                v.take(self.edges[:self.ends[0]], 0, out=acc, mode="clip")
            # every later rank is gathered into one buffer: a new array per rank
            # fragmented the malloc heap, and the `analysis` benchmark's peak RSS
            # (15 ranks on its 8-NN factor) read 89 MB instead of 85 MB
            part = np.empty_like(acc) if len(self.ends) > 1 else None
            for lo, hi in zip(self.ends, self.ends[1:]):
                acc[:hi - lo] += v.take(self.edges[lo:hi], 0, out=part[:hi - lo], mode="clip")
            if self.span is None:
                out[self.vertices] = acc


@dataclass(frozen=True)
class Incidence:
    """Weighted incidence operator D of a graph, one row per edge.

    Edge e joins vertices i[e] < j[e] with weight w[e], in row-major
    upper-triangle order. Every array it takes or returns has its vertex or
    edge axis first, trailing axes being a batch, and (D x)[e] is
    x[i[e]] - x[j[e]]: every edge-wise sum costs O(|E|) per batch entry
    instead of O(n^2). A caller working along another axis passes one
    contiguous copy with that axis first, so every gather copies whole rows.

    The adjoints gather. Two tables, built once from the edge order, list
    each vertex's edges to its lower neighbours (`lower`) and to its higher
    ones (`higher`), by ascending neighbour (see `_Side`). Each side sums
    the rows of v over a vertex's edges one neighbour at a time in ascending
    order, giving L and H, and the lower side comes first:
    (D^T v)[u] = -L + H and (|D|^T v)[u] = L + H (formed as H - L and H + L,
    the same bits). A side costs one `take` per neighbour rank and one
    assignment, which its `span` saves, and no copy of v is made. Where no
    vertex has more than two lower or two higher neighbours (paths, cycles,
    grids), each side is at most one rounded addition, so any summation
    order gives these bits; on graphs with more (the hub of a wheel,
    k-nearest-neighbour graphs) another order, such as `np.add.reduceat`'s,
    may differ in the last bits.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    higher: _Side = field(repr=False)
    lower: _Side = field(repr=False)

    @classmethod
    def from_weights(cls, w: np.ndarray) -> "Incidence":
        # the nonzeros come in row-major order; keeping i < j needs no n x n copy
        i, j = np.nonzero(w)
        upper = i < j
        i, j = i[upper], j[upper]
        return cls(n=w.shape[0], i=_freeze(i), j=_freeze(j), w=_freeze(w[i, j]),
                   higher=_Side.of(i, np.arange(i.size)),
                   lower=_Side.of(j, np.argsort(j, kind="stable")))

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """D x: the leading axis goes from length n to length |E|. With `out`,
        written there (it must have that shape)."""
        d = x.take(self.i, 0, out=out)
        d -= x.take(self.j, 0)
        return d

    def weigh(self, v: np.ndarray) -> np.ndarray:
        """Scale each row of v (one per edge) by its edge's weight, in place;
        returns v."""
        v *= self.w.reshape((-1,) + (1,) * (v.ndim - 1))
        return v

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """D^T v: +v[e] onto vertex i[e] and -v[e] onto j[e]."""
        high, low = self._sides(v)
        return np.subtract(high, low, out=high)

    def abs_adjoint(self, v: np.ndarray) -> np.ndarray:
        """|D|^T v: v[e] onto both endpoints i[e] and j[e]."""
        high, low = self._sides(v)
        return np.add(high, low, out=high)

    def _sides(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if v.shape[0] != self.i.size:
            raise DimensionError(f"edge signal has {v.shape[0]} rows, "
                                 f"expected one per edge ({self.i.size})")
        high, low = np.zeros((self.n,) + v.shape[1:]), np.zeros((self.n,) + v.shape[1:])
        self.higher.sum_into(high, v)
        self.lower.sum_into(low, v)
        return high, low


@dataclass(frozen=True)
class Graph:
    """Undirected weighted simple graph with dense symmetric weight storage."""

    n: int
    w: np.ndarray  # (n, n) symmetric, zero diagonal, nonnegative

    def weight(self, i: int, j: int) -> float:
        return float(self.w[i, j])

    @cached_property
    def incidence(self) -> Incidence:
        """The weighted incidence operator, built once per graph."""
        return Incidence.from_weights(self.w)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Unordered edge pairs as sorted (i, j) with i < j."""
        d = self.incidence
        return list(zip(d.i.tolist(), d.j.tolist()))

    @property
    def edge_count(self) -> int:
        return int(self.incidence.i.size)

    def degrees(self) -> np.ndarray:
        return self.w.sum(axis=1)

    def neighbors(self, i: int) -> np.ndarray:
        return np.nonzero(self.w[i])[0]


@dataclass(frozen=True)
class GraphMatrices:
    """Adjacency W, diagonal degree D, and Laplacian L = D - W of one graph.

    Only W and L are held. W has a zero diagonal, so the diagonal of L is
    the degrees, and D is built from it on first access.
    """

    W: np.ndarray
    L: np.ndarray

    @cached_property
    def D(self) -> np.ndarray:
        return _freeze(np.diag(np.diagonal(self.L)))


@dataclass(frozen=True)
class ProductGraph:
    """Cartesian product of two factor graphs on V1 x V2.

    Only the factors are stored; the dense (n1*n2)^2 product graph is built
    on first access to `graph`.
    """

    g1: Graph
    g2: Graph

    @cached_property
    def graph(self) -> Graph:
        """The product as one graph: w = W1 kron I + I kron W2."""
        return Graph(n=self.n1 * self.n2, w=_freeze(kronecker_sum(self.g1.w, self.g2.w)))

    @property
    def n1(self) -> int:
        return self.g1.n

    @property
    def n2(self) -> int:
        return self.g2.n

    def vertex_index(self, i1: int, i2: int) -> int:
        """Lexicographic flattening (i1, i2) -> n2*i1 + i2."""
        return self.g2.n * i1 + i2

    def vertex_pair(self, v: int) -> tuple[int, int]:
        return divmod(v, self.g2.n)


def build_graph(n: int, weighted_edges: list[tuple[int, int, float]]) -> Graph:
    """Build a graph from an explicit edge list.

    Each entry is (i, j, w) with 0 <= i, j < n, i != j, w > 0. The pair
    {i, j} may appear at most once in either orientation. The first entry
    that breaks a rule is reported, checked in that order.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    edges = list(weighted_edges)
    if not set(map(len, edges)) <= {3}:
        raise GraphError("every edge must be an (i, j, w) triple")
    cols = list(zip(*edges)) or [(), (), ()]
    ids = [list(map(int, c)) for c in cols[:2]]
    try:
        weights = list(map(float, cols[2]))
    except OverflowError:  # an integer beyond the float range: an invalid weight
        weights = [_weight(wt) for wt in cols[2]]
    I, J = (_index_array(c, n) for c in ids)
    W = np.array(weights, dtype=np.float64)
    lo, hi = np.minimum(I, J), np.maximum(I, J)
    bad = (lo < 0) | (hi >= n) | (I == J) | ~np.isfinite(W) | (W <= 0.0)
    # a repeat is every occurrence of a pair after its first
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(W), dtype=bool)
    repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    first = np.flatnonzero(bad | repeat)
    if len(first):
        k = first[0]
        i, j, wt = ids[0][k], ids[1][k], weights[k]
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise GraphError(f"loop edge at vertex {i} not allowed")
        if not np.isfinite(wt) or wt <= 0.0:
            raise GraphError(f"edge ({i}, {j}) has nonpositive weight {wt}")
        raise GraphError(f"duplicate edge {(min(i, j), max(i, j))}")
    w = np.zeros((n, n), dtype=np.float64)
    w[I, J] = W
    w[J, I] = W
    return Graph(n=n, w=_freeze(w))


def _weight(wt) -> float:
    """float(wt), but an infinity for an integer beyond the float range."""
    try:
        return float(wt)
    except OverflowError:
        return math.inf if wt > 0 else -math.inf


def _index_array(ids: list[int], n: int) -> np.ndarray:
    """Vertex ids as int64; one beyond int64 (so out of range) becomes -1."""
    try:
        return np.array(ids, dtype=np.int64).reshape(-1)
    except OverflowError:
        return np.array([v if 0 <= v < n else -1 for v in ids], dtype=np.int64)


def standard_graph(kind: str, n: int) -> Graph:
    """Unit-weight graph of a named family: path, cycle, wheel, edgeless, complete.

    The wheel places its hub at vertex 0 with a cycle on vertices 1..n-1.
    """
    minima = {"path": 1, "cycle": 3, "wheel": 4, "edgeless": 1, "complete": 1}
    if kind not in minima:
        raise GraphError(f"unknown graph family {kind!r}")
    if n < minima[kind]:
        raise GraphError(f"{kind} graph needs at least {minima[kind]} vertices, got {n}")
    edges: list[tuple[int, int, float]] = []
    if kind == "path":
        edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    elif kind == "wheel":
        rim = list(range(1, n))
        edges = [(0, r, 1.0) for r in rim]
        edges += [(rim[k], rim[(k + 1) % len(rim)], 1.0) for k in range(len(rim))]
    elif kind == "complete":
        edges = [(i, j, 1.0) for i in range(n) for j in range(i + 1, n)]
    return build_graph(n, edges)


def matrices(g: Graph | ProductGraph) -> GraphMatrices:
    """Adjacency, degree, and Laplacian matrices of a graph.

    W is a read-only view of the graph's own weights, so the only new
    n x n array is L. For a ProductGraph the matrices are materialized as
    Kronecker sums of the factor matrices, which keeps L(G1 x G2) = L1 (+) L2
    exact to the last bit (summing the product rows directly can differ by
    round-off).
    """
    if isinstance(g, ProductGraph):
        m1 = matrices(g.g1)
        m2 = matrices(g.g2)
        return GraphMatrices(W=_freeze(kronecker_sum(m1.W, m2.W)),
                             L=_freeze(kronecker_sum(m1.L, m2.L)))
    W = _freeze(g.w.view())
    # 0 - W, not -W: the off-edge zeros stay +0.0, as in diag(d) - W
    L = np.subtract(0, W)
    np.fill_diagonal(L, W.sum(axis=1))
    return GraphMatrices(W=W, L=_freeze(L))


def cartesian_product(g1: Graph, g2: Graph) -> ProductGraph:
    """Cartesian product graph on V1 x V2 in lexicographic vertex order.

    The product weight couples vertices that agree in one coordinate and
    are adjacent in the other, so the product adjacency (and Laplacian)
    is the Kronecker sum of the factors'.
    """
    return ProductGraph(g1=g1, g2=g2)


def kronecker_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A (+) B = A kron I + I kron B for square A, B."""
    return np.kron(a, np.eye(b.shape[0])) + np.kron(np.eye(a.shape[0]), b)


def hop_distances(g: Graph, start: int) -> np.ndarray:
    """Unweighted BFS hop count from `start`; unreachable vertices get -1."""
    if not (0 <= start < g.n):
        raise GraphError(f"vertex {start} out of range for n={g.n}")
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if dist[u] < 0:
                    dist[u] = d
                    nxt.append(int(u))
        frontier = nxt
    return dist


def graph_to_json(g: Graph) -> str:
    """Serialize as {"n": int, "edges": [[i, j, w], ...]} with edges sorted."""
    d = g.incidence
    payload = {
        "n": g.n,
        "edges": [list(e) for e in zip(d.i.tolist(), d.j.tolist(), d.w.tolist())],
    }
    return json.dumps(payload, indent=2) + "\n"


@contextmanager
def _utf8_file(path: str | Path) -> Iterator[TextIO]:
    """A file opened as UTF-8 text with universal newlines; FormatError naming the file
    and the bad byte's offset in it when a read meets bytes that are not UTF-8. Every
    input file that is read as text is opened through this."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            # the decoder was given exc.object, the bytes that end at the file's position
            offset = f.buffer.tell() - len(exc.object) + exc.start
            raise FormatError(f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} "
                              f"at offset {offset}: {exc.reason}") from exc


def _read_text(path: str | Path) -> str:
    """The whole UTF-8 text of a file (see `_utf8_file`)."""
    with _utf8_file(path) as f:
        return f.read()


def _json_object(text: str, what: str, *keys: str) -> dict:
    """The JSON object that `text` holds, with every one of `keys`; else FormatError
    naming the `what` JSON. Every JSON input file is read through this."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid {what} JSON: {exc}") from exc
    if not isinstance(payload, dict) or not all(k in payload for k in keys):
        names = " and ".join(map(json.dumps, keys))
        raise FormatError(f"{what} JSON must be an object with {names}")
    return payload


def graph_from_json(text: str) -> Graph:
    """Parse and validate the JSON graph format used by the CLI."""
    payload = _json_object(text, "graph", "n", "edges")
    n = payload["n"]
    edges = payload["edges"]
    if type(n) is not int or not isinstance(edges, list):
        raise FormatError('"n" must be an integer and "edges" a list')
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {3}):
        bad = next(e for e in edges if not (isinstance(e, list) and len(e) == 3))
        raise FormatError(f"edge entry {bad!r} is not an [i, j, w] triple")
    # JSON integers for the vertices, JSON numbers for the weights: no
    # booleans (a bool is an int in Python), strings, nulls or fractions
    columns = list(zip(*edges)) or [(), (), ()]
    if not set(map(type, columns[0] + columns[1])) <= {int}:
        bad = next(e for e in edges if type(e[0]) is not int or type(e[1]) is not int)
        raise FormatError(f"edge entry {bad!r}: vertex indices must be integers")
    if not set(map(type, columns[2])) <= {int, float}:
        bad = next(e for e in edges if type(e[2]) not in (int, float))
        raise FormatError(f"edge entry {bad!r}: the weight must be a number")
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        raise FormatError(f"graph JSON violates invariants: {exc}") from exc


def save_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(graph_to_json(g), encoding="utf-8")


def load_graph(path: str | Path) -> Graph:
    return graph_from_json(_read_text(path))
