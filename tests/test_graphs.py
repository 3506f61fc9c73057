"""Graph construction, standard families, matrices, Cartesian products."""

import json
import math

import numpy as np
import pytest

from helpers import random_graph, sensor_graph, traced_peak_mb

from mdgsp import (
    DimensionError,
    FormatError,
    Graph,
    GraphError,
    build_graph,
    cartesian_product,
    graph_from_json,
    graph_to_json,
    kronecker_sum,
    local_variation_matrix,
    matrices,
    standard_graph,
)
from mdgsp.denoise import _edge_gradient
from mdgsp.graphs import Incidence


def test_build_smallest_path():
    g = build_graph(2, [(0, 1, 1.0)])
    assert g.weight(0, 1) == 1.0 and g.weight(1, 0) == 1.0
    assert g.edges == [(0, 1)]


def test_build_rejects_duplicates_in_either_orientation():
    with pytest.raises(GraphError):
        build_graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 0, 2.0)])


@pytest.mark.parametrize("bad", [
    [(0, 0, 1.0)],          # loop
    [(0, 1, 0.0)],          # zero weight
    [(0, 1, -2.0)],         # negative weight
    [(0, 3, 1.0)],          # out of range
])
def test_build_rejects_invalid_edges(bad):
    with pytest.raises(GraphError):
        build_graph(3, bad)


def ref_first_edge_error(n, weighted_edges):
    """The message of the first rule an edge list breaks, checked one edge at a time
    (range, loop, weight, repeat); None if it breaks none. A weight beyond the float
    range reads as an infinity."""
    seen = set()
    for i, j, wt in weighted_edges:
        i, j = int(i), int(j)
        if not (0 <= i < n and 0 <= j < n):
            return f"edge ({i}, {j}) out of range for n={n}"
        if i == j:
            return f"loop edge at vertex {i} not allowed"
        try:
            wt = float(wt)
        except OverflowError:
            wt = float("inf") if wt > 0 else float("-inf")
        if not np.isfinite(wt) or wt <= 0.0:
            return f"edge ({i}, {j}) has nonpositive weight {wt}"
        key = (min(i, j), max(i, j))
        if key in seen:
            return f"duplicate edge {key}"
        seen.add(key)
    return None


def test_build_reports_the_first_bad_edge_like_an_edge_loop():
    rng = np.random.default_rng(12)
    n = 9
    faults = [
        lambda i, j, w: (i, n + int(rng.integers(0, 3)), w),  # out of range
        lambda i, j, w: (-1, j, w),
        lambda i, j, w: (10**30, j, w),  # beyond int64
        lambda i, j, w: (2**62, 2**62 - 1, w),  # its pair key overflows
        lambda i, j, w: (i, i, w),  # loop
        lambda i, j, w: (i, j, -w),
        lambda i, j, w: (i, j, 0.0),
        lambda i, j, w: (i, j, float("nan")),
        lambda i, j, w: (i, j, float("inf")),
        lambda i, j, w: (i, j, 10**400),  # beyond the float range
        lambda i, j, w: (i, j, -(10**400)),
        lambda i, j, w: (j, i, w),  # a repeat of itself, reversed
    ]
    seen_messages = set()
    for _ in range(300):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        edges = [(i, j, float(rng.uniform(0.2, 3.0))) for i, j in pairs]
        for _ in range(int(rng.integers(0, 4))):
            if not edges:
                break
            at = int(rng.integers(0, len(edges)))
            fault = faults[int(rng.integers(0, len(faults)))]
            edges.insert(int(rng.integers(at, len(edges) + 1)), fault(*edges[at]))
        want = ref_first_edge_error(n, edges)
        if want is None:
            assert build_graph(n, edges).edge_count == len(edges)
            continue
        with pytest.raises(GraphError) as exc:
            build_graph(n, edges)
        assert str(exc.value) == want
        seen_messages.add(want.split()[0] + want.split()[-2])
    assert len(seen_messages) > 5  # every rule was hit


def test_weighted_path_degree():
    # hand sum of incident weights at vertex 1: 0.5 + 2.0
    g = build_graph(4, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 0.5)])
    assert g.degrees()[1] == pytest.approx(2.5)


def test_cycle_four():
    g = standard_graph("cycle", 4)
    assert g.edge_count == 4
    assert np.all(g.degrees() == 2)


def test_edgeless_has_zero_laplacian():
    g = standard_graph("edgeless", 3)
    assert g.edge_count == 0
    assert np.all(matrices(g).L == 0.0)


def test_wheel_nine():
    # 8 spokes plus the 8-cycle rim
    g = standard_graph("wheel", 9)
    assert g.edge_count == 16
    deg = g.degrees()
    assert deg[0] == 8
    assert np.all(deg[1:] == 3)


@pytest.mark.parametrize("kind,n", [("cycle", 2), ("wheel", 3), ("path", 0)])
def test_family_minimums(kind, n):
    with pytest.raises(GraphError):
        standard_graph(kind, n)


def test_matrices_p2():
    m = matrices(build_graph(2, [(0, 1, 1.0)]))
    assert np.array_equal(m.L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert np.array_equal(m.L, m.D - m.W)


def test_matrices_invariants_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 7)))
        m = matrices(g)
        assert np.array_equal(m.L, m.L.T)
        assert np.abs(m.L.sum(axis=1)).max() < 1e-12
        assert np.all(np.diag(m.D) >= 0)
        # positive semidefinite
        assert np.linalg.eigvalsh(m.L).min() > -1e-10


def test_c4_laplacian_rows():
    L = matrices(standard_graph("cycle", 4)).L
    assert np.all(np.diag(L) == 2.0)
    assert np.abs(L.sum(axis=1)).max() == 0.0


def test_product_of_two_paths_is_cycle():
    pg = cartesian_product(standard_graph("path", 2), standard_graph("path", 2))
    assert pg.graph.n == 4
    assert pg.graph.edge_count == 4
    assert np.all(pg.graph.degrees() == 2)


def test_product_builds_dense_graph_only_on_demand():
    # the (n1*n2)^2 weight matrix is built lazily: locality and the
    # Kronecker-sum matrices need only the factors
    pg = cartesian_product(standard_graph("path", 3), standard_graph("cycle", 4))
    matrices(pg)
    assert "graph" not in vars(pg)
    assert pg.graph is pg.graph
    assert pg.graph.edge_count == 4 * 2 + 3 * 4


def test_product_path_wheel_counts():
    # |E| = n2 |E1| + n1 |E2| = 9*4 + 5*16
    pg = cartesian_product(standard_graph("path", 5), standard_graph("wheel", 9))
    assert pg.graph.n == 45
    assert pg.graph.edge_count == 116


def test_product_weight_rule():
    g1 = build_graph(2, [(0, 1, 0.7)])
    g2 = build_graph(2, [(0, 1, 1.3)])
    pg = cartesian_product(g1, g2)
    v = pg.vertex_index
    assert pg.graph.weight(v(0, 0), v(1, 0)) == 0.7
    assert pg.graph.weight(v(0, 0), v(0, 1)) == 1.3
    assert pg.graph.weight(v(0, 0), v(1, 1)) == 0.0


def test_product_matrices_are_kronecker_sums():
    rng = np.random.default_rng(11)
    for _ in range(25):
        g1 = random_graph(rng, int(rng.integers(2, 7)))
        g2 = random_graph(rng, int(rng.integers(2, 7)))
        pg = cartesian_product(g1, g2)
        mp = matrices(pg.graph)
        m1, m2 = matrices(g1), matrices(g2)
        assert np.allclose(mp.L, kronecker_sum(m1.L, m2.L), atol=0)
        assert np.allclose(mp.W, kronecker_sum(m1.W, m2.W), atol=0)
        assert pg.graph.edge_count == g2.n * g1.edge_count + g1.n * g2.edge_count


def test_product_commutes_up_to_relabeling():
    rng = np.random.default_rng(5)
    g1 = random_graph(rng, 4)
    g2 = random_graph(rng, 3)
    a = cartesian_product(g1, g2)
    b = cartesian_product(g2, g1)
    # permutation (i1, i2) -> (i2, i1)
    perm = np.array([a.vertex_index(i1, i2) for i2 in range(g2.n) for i1 in range(g1.n)])
    wa = a.graph.w[np.ix_(perm, perm)]
    assert np.array_equal(wa, b.graph.w)


def test_json_round_trip():
    g = build_graph(4, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 0.5)])
    g2 = graph_from_json(graph_to_json(g))
    assert g2.n == g.n
    assert np.array_equal(g2.w, g.w)


@pytest.mark.parametrize("text", [
    "not json",
    json.dumps({"n": 3}),
    json.dumps({"n": 3, "edges": [[0, 1]]}),
    json.dumps({"n": 3, "edges": [[0, 0, 1.0]]}),
    json.dumps({"n": 2, "edges": [[0, 1, 1.0], [1, 0, 1.0]]}),
])
def test_json_rejects_malformed(text):
    with pytest.raises(FormatError):
        graph_from_json(text)


def test_graph_is_immutable():
    g = standard_graph("path", 3)
    with pytest.raises(ValueError):
        g.w[0, 1] = 5.0


# ------------------------------------------- matrices against the plain forms


def plain_matrices(g):
    """W, D, L as copies: diag(d) - W per graph, Kronecker sums for a product."""
    if hasattr(g, "g1"):
        (W1, D1, L1), (W2, D2, L2) = plain_matrices(g.g1), plain_matrices(g.g2)
        return kronecker_sum(W1, W2), kronecker_sum(D1, D2), kronecker_sum(L1, L2)
    W = g.w.copy()
    D = np.diag(W.sum(axis=1))
    return W, D, D - W


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def matrix_cases():
    rng = np.random.default_rng(17)
    simple = [random_graph(rng, n, p) for n, p in ((1, 0.5), (6, 0.5), (9, 0.3), (11, 0.9))]
    simple += [standard_graph("edgeless", 3), standard_graph("wheel", 6)]
    return simple + [cartesian_product(simple[1], simple[2]),
                     cartesian_product(simple[4], simple[5])]


@pytest.mark.parametrize("g", matrix_cases())
def test_matrices_bit_equal_plain_forms(g):
    m = matrices(g)
    W, D, L = plain_matrices(g)
    for got, want in ((m.W, W), (m.D, D), (m.L, L)):
        assert_bits_equal(got, want)
        assert not got.flags.writeable
    if not hasattr(g, "g1"):  # a product's Kronecker terms hold -0.0 in both forms
        assert not np.signbit(m.L[m.W == 0]).any()  # +0.0 off the edges, as in diag(d) - W


def test_matrices_share_the_weights_and_build_D_on_demand():
    g = standard_graph("cycle", 5)
    m = matrices(g)
    assert np.shares_memory(m.W, g.w)
    assert "D" not in vars(m)
    assert m.D is m.D  # built once


def test_matrices_memory_is_one_laplacian():
    # W is the graph's own array and D is lazy: only L is a new n x n array
    rng = np.random.default_rng(5)
    n = 600
    w = np.triu(rng.random((n, n)) < 0.02, k=1) * rng.uniform(0.5, 2.0, (n, n))
    g = Graph(n=n, w=w + w.T)
    assert traced_peak_mb(lambda: matrices(g)) * 2**20 <= 1.2 * 8 * n * n


@pytest.mark.parametrize("g", matrix_cases()[:6])
def test_incidence_edges_are_the_upper_triangle_in_row_major_order(g):
    d = Incidence.from_weights(g.w)
    i, j = np.nonzero(np.triu(g.w, k=1))
    assert d.i.tolist() == i.tolist() and d.j.tolist() == j.tolist()
    assert_bits_equal(d.w, g.w[i, j])


def adjoint_cases():
    # the hub of the wheel has 11 higher neighbours; vertex 3 of the graph with an
    # isolated vertex has no neighbour, and its vertex 2 has two on each side
    isolated = build_graph(7, [(0, 1, 0.7), (0, 2, 1.3), (1, 2, 2.1), (2, 4, 0.4),
                               (2, 5, 1.9), (4, 6, 0.8), (5, 6, 2.6)])
    return [standard_graph("path", 7), standard_graph("cycle", 6),
            standard_graph("wheel", 12), isolated, standard_graph("edgeless", 4)]


def _dense_sides(d):
    """The dense incidence matrix split by sign, D = D_plus - D_minus."""
    plus, minus = np.zeros((d.i.size, d.n)), np.zeros((d.i.size, d.n))
    plus[np.arange(d.i.size), d.i] = 1.0
    minus[np.arange(d.i.size), d.j] = 1.0
    return plus, minus


def _along_edges(m, v, axis):
    """m^T v along `axis` of v, by a dense matrix product."""
    moved = np.moveaxis(v, axis, 0)
    flat = moved.reshape(moved.shape[0], math.prod(moved.shape[1:]))
    out = (m.T @ flat).reshape((m.shape[1],) + moved.shape[1:])
    return np.moveaxis(out, 0, axis)


def _sequential_sides(m, v, axis):
    """m^T v along `axis`, each vertex's terms added one at a time in ascending
    edge order (ascending neighbour on either side), by a loop over m's columns."""
    moved = np.moveaxis(v, axis, 0)
    out = np.zeros((m.shape[1],) + moved.shape[1:])
    for u in range(m.shape[1]):
        rows = np.flatnonzero(m[:, u])
        if rows.size:
            out[u] = moved[rows[0]]
            for r in rows[1:]:
                out[u] += moved[r]
    return np.moveaxis(out, 0, axis)


@pytest.mark.parametrize("g", adjoint_cases())
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_adjoints_match_the_dense_incidence_matrix(g, axis):
    d = g.incidence
    plus, minus = _dense_sides(d)
    rng = np.random.default_rng(61)
    shape = [3, 4, 5]
    shape[axis] = d.i.size
    v = rng.standard_normal(shape)
    v[rng.random(shape) < 0.2] = 0.0  # exact zeros, to check the sign of a zero result
    high, low = _along_edges(plus, v, axis), _along_edges(minus, v, axis)
    scale = _along_edges(plus + minus, np.abs(v), axis)
    # with at most two edges on each side of every vertex, every summation order of
    # a side rounds once, so the kernel must give the dense product's bits
    exact = max(plus.sum(axis=0).max(initial=0), minus.sum(axis=0).max(initial=0)) <= 2
    assert exact == (g.n != 12)
    for got, want in ((d.adjoint(v, axis), high - low), (d.abs_adjoint(v, axis), high + low)):
        if exact:
            assert_bits_equal(got, want)
        else:
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)
    # the stated order on every graph: each side one neighbour at a time, lower side first
    high, low = _sequential_sides(plus, v, axis), _sequential_sides(minus, v, axis)
    assert_bits_equal(d.adjoint(v, axis), -low + high)
    assert_bits_equal(d.abs_adjoint(v, axis), low + high)
    x = rng.standard_normal(v.shape[:axis] + (g.n,) + v.shape[axis + 1:])
    lhs, rhs = np.vdot(d.apply(x, axis), v), np.vdot(x, d.adjoint(v, axis))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, np.vdot(np.abs(x), scale))


@pytest.mark.parametrize("length", [9, 11])
def test_adjoint_refuses_a_signal_that_is_not_one_entry_per_edge(length):
    d = standard_graph("wheel", 6).incidence  # 10 edges; the hub has 5 ranks
    with pytest.raises(DimensionError):
        d.adjoint(np.ones((3, length)), axis=1)
    assert d.abs_adjoint(np.ones((3, 10)), axis=1).shape == (3, 6)


def test_incidence_kernels_stay_edge_sized():
    # the 8-NN factor of the benchmark at 1000 vertices, times cycle(100): the
    # kernels may hold two edge-sized arrays (x[i] and x[j] while D x is formed)
    # and one vertex-sized array more; a padded copy of an edge array does not fit
    rng = np.random.default_rng(62)
    g1, g2 = sensor_graph(rng, 1000), standard_graph("cycle", 100)
    f = rng.standard_normal((1000, 100))
    edge_mb, vertex_mb = g1.edge_count * 100 * 8 / 2**20, f.nbytes / 2**20
    g1.incidence  # the tables are built once per graph, outside the measured calls
    calls = [lambda: local_variation_matrix(f, g1, g2, 1)]
    calls += [lambda q=q: _edge_gradient(f, g1, q, 0) for q in (1.0, 1.5, 2.0)]
    for call in calls:
        assert traced_peak_mb(call) <= 2 * edge_mb + vertex_mb
