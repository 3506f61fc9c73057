"""Gradients, local variation, and the three-way total-variation identity."""

import numpy as np
import pytest

from helpers import laplacian_basis, random_graph, traced_peak_mb

import mdgsp.variation as variation_module
from mdgsp import (
    DimensionError,
    build_graph,
    gft_2d,
    graph_gradient,
    local_directional_variation,
    local_variation_matrix,
    matrices,
    standard_graph,
    total_directional_variation,
)


def test_gradient_of_constant_is_zero():
    g = standard_graph("wheel", 6)
    assert np.all(graph_gradient(np.full(6, 2.5), g, 3) == 0.0)


def test_gradient_on_p2():
    g = standard_graph("path", 2)
    assert np.array_equal(graph_gradient(np.array([0.0, 1.0]), g, 0), [0.0, 1.0])


def test_gradient_weighted_edge():
    # sqrt(4) * 3 = 6
    g = build_graph(2, [(0, 1, 4.0)])
    grad = graph_gradient(np.array([0.0, 3.0]), g, 0)
    assert grad[1] == pytest.approx(6.0)
    assert grad[0] == 0.0


def test_gradient_zero_off_neighborhood():
    g = standard_graph("path", 4)
    grad = graph_gradient(np.array([1.0, 5.0, -2.0, 7.0]), g, 0)
    assert grad[0] == 0.0 and grad[2] == 0.0 and grad[3] == 0.0


def test_local_variation_constant_zero():
    g1, g2 = standard_graph("path", 3), standard_graph("cycle", 4)
    assert np.all(local_variation_matrix(np.ones((3, 4)), g1, g2, 1) == 0.0)
    assert np.all(local_variation_matrix(np.ones((3, 4)), g1, g2, 2) == 0.0)


def test_local_variation_separable_zero_direction():
    g1, g2 = standard_graph("path", 3), standard_graph("path", 4)
    f = np.tile(np.array([0.0, 1.0, 4.0, 9.0]), (3, 1))  # varies only along g2
    assert np.all(local_variation_matrix(f, g1, g2, 1) == 0.0)
    assert local_variation_matrix(f, g1, g2, 2).max() > 0


def test_local_variation_p2_square_example():
    g = standard_graph("path", 2)
    f = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert local_directional_variation(f, g, g, 1, (0, 0)) == pytest.approx(1.0)
    assert local_directional_variation(f, g, g, 2, (0, 0)) == 0.0


def test_total_variation_constant_zero():
    g1, g2 = standard_graph("path", 3), standard_graph("wheel", 5)
    rep = total_directional_variation(np.full((3, 5), 4.0), g1, g2, 1)
    assert rep.total == 0.0
    assert rep.spectral_total == pytest.approx(0.0, abs=1e-12)


def test_total_variation_of_separable_eigensignal():
    g1, g2 = standard_graph("path", 3), standard_graph("path", 4)
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    for k1 in range(3):
        for k2 in range(4):
            f = np.outer(b1.vectors[:, k1], b2.vectors[:, k2])
            r1 = total_directional_variation(f, g1, g2, 1, b1, b2)
            r2 = total_directional_variation(f, g1, g2, 2, b1, b2)
            assert r1.total == pytest.approx(b1.values[k1], abs=1e-10)
            assert r2.total == pytest.approx(b2.values[k2], abs=1e-10)


def test_three_routes_agree_on_path_wheel():
    rng = np.random.default_rng(7)
    g1, g2 = standard_graph("path", 5), standard_graph("wheel", 9)
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    for _ in range(20):
        f = rng.standard_normal((5, 9))
        for d in (1, 2):
            rep = total_directional_variation(f, g1, g2, d, b1, b2)
            scale = max(1.0, rep.total)
            assert abs(rep.total - rep.trace_total) <= 1e-8 * scale
            assert abs(rep.total - rep.spectral_total) <= 1e-8 * scale
            assert rep.residual <= 1e-8


def test_direction_totals_sum_to_flattened_quadratic_form():
    rng = np.random.default_rng(19)
    g1 = random_graph(rng, 4)
    g2 = random_graph(rng, 5)
    L1, L2 = matrices(g1).L, matrices(g2).L
    big = np.kron(L1, np.eye(5)) + np.kron(np.eye(4), L2)
    for _ in range(10):
        f = rng.standard_normal((4, 5))
        s1 = total_directional_variation(f, g1, g2, 1).total
        s2 = total_directional_variation(f, g1, g2, 2).total
        vec = f.reshape(-1)
        quad = float(vec @ big @ vec)
        assert abs((s1 + s2) - quad) <= 1e-8 * max(1.0, abs(quad))


def test_lowpass_never_increases_directional_variation():
    rng = np.random.default_rng(25)
    g1, g2 = standard_graph("path", 4), standard_graph("cycle", 5)
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    from mdgsp import Spectrum2D, gft_2d, inverse_gft_2d

    for _ in range(10):
        f = rng.standard_normal((4, 5))
        s = gft_2d(f, b1, b2)
        before = total_directional_variation(f, g1, g2, 1, b1, b2).total
        cutoff = rng.uniform(0.0, b1.values[-1])
        kept = s.values * (b1.values[:, None] <= cutoff)
        g = inverse_gft_2d(Spectrum2D(kept, s.lambdas1, s.lambdas2), b1, b2)
        after = total_directional_variation(g, g1, g2, 1, b1, b2).total
        assert after <= before + 1e-10


def test_vertex_out_of_range():
    g = standard_graph("path", 3)
    with pytest.raises(DimensionError):
        graph_gradient(np.zeros(3), g, 3)
    with pytest.raises(DimensionError):
        local_directional_variation(np.zeros((3, 3)), g, g, 1, (3, 0))


def test_local_variation_matches_dense_pairwise_definition():
    rng = np.random.default_rng(41)
    for n1, n2 in ((1, 4), (5, 3), (6, 7)):
        g1, g2 = random_graph(rng, n1, p=0.5), random_graph(rng, n2, p=0.5)
        f = rng.standard_normal((n1, n2))
        # sq[i1, i2] = sum_j w(i, j) (f(j) - f(i))^2 along each direction
        sq1 = np.sum(g1.w[:, :, None] * (f[None, :, :] - f[:, None, :]) ** 2, axis=1)
        sq2 = np.sum(g2.w[None, :, :] * (f[:, None, :] - f[:, :, None]) ** 2, axis=2)
        for direction, sq in ((1, sq1), (2, sq2)):
            local = local_variation_matrix(f, g1, g2, direction)
            assert np.allclose(local, np.sqrt(sq), rtol=1e-12, atol=0.0)


def test_local_variation_memory_stays_edge_sized():
    # a dense (n1, n1, n2) difference tensor would take 64 MB here
    rng = np.random.default_rng(42)
    g1, g2 = standard_graph("cycle", 400), standard_graph("path", 50)
    f = rng.standard_normal((400, 50))

    def both_directions():
        for direction in (1, 2):
            local_variation_matrix(f, g1, g2, direction)

    assert traced_peak_mb(both_directions) < 10


@pytest.mark.parametrize("direction", [1, 2])
def test_total_variation_builds_only_the_tested_laplacian(monkeypatch, direction):
    rng = np.random.default_rng(43)
    g1, g2 = random_graph(rng, 6), random_graph(rng, 5)
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    f = rng.standard_normal((6, 5))
    built = []

    def counting_matrices(g):
        built.append(g)
        return matrices(g)

    monkeypatch.setattr(variation_module, "matrices", counting_matrices)
    rep = total_directional_variation(f, g1, g2, direction, b1, b2)
    assert len(built) == 1 and built[0] is (g1 if direction == 1 else g2)
    # a precomputed spectrum gives the very same report
    again = total_directional_variation(f, g1, g2, direction, b1, b2, gft_2d(f, b1, b2))
    fields = ("total", "trace_total", "spectral_total", "residual")
    assert [getattr(again, k) for k in fields] == [getattr(rep, k) for k in fields]
    assert np.array_equal(again.local, rep.local)
    # without bases both Laplacians are needed, for the eigendecompositions
    built.clear()
    alone = total_directional_variation(f, g1, g2, direction)
    assert len(built) == 2
    assert np.isclose(alone.spectral_total, rep.spectral_total, rtol=1e-12)
