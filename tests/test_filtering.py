"""Spectral filtering, polynomial vertex evaluation, and kernel locality."""

import json

import numpy as np
import pytest

from helpers import laplacian_basis, random_graph

from mdgsp import (
    KernelError,
    PolyKernel2D,
    cartesian_product,
    filter_1d_kernel_on_product,
    heat_kernel,
    kernel_from_json,
    locality_neighborhood,
    matrices,
    polynomial_filter_vertex,
    separable_kernel,
    spectral_filter_2d,
    standard_graph,
    sum_1d_kernel,
    tabulated_kernel,
)
from mdgsp.filtering import SpectralKernel2D


def bases_for(g1, g2):
    return laplacian_basis(g1), laplacian_basis(g2)


def test_identity_kernel_is_identity():
    rng = np.random.default_rng(0)
    g1, g2 = standard_graph("path", 4), standard_graph("cycle", 5)
    b1, b2 = bases_for(g1, g2)
    f = rng.standard_normal((4, 5))
    one = SpectralKernel2D(kind="tabulated", func=lambda l1, l2: np.ones(np.broadcast(l1, l2).shape))
    assert np.abs(spectral_filter_2d(f, one, b1, b2) - f).max() < 1e-12


def test_lambda1_kernel_equals_laplacian_action():
    rng = np.random.default_rng(1)
    g1, g2 = standard_graph("path", 4), standard_graph("path", 5)
    b1, b2 = bases_for(g1, g2)
    L1 = matrices(g1).L
    k = SpectralKernel2D(kind="tabulated", func=lambda l1, l2: l1 + 0.0 * l2)
    for _ in range(5):
        f = rng.standard_normal((4, 5))
        assert np.abs(spectral_filter_2d(f, k, b1, b2) - L1 @ f).max() < 1e-10


def test_heat_kernel_long_time_limit_is_mean():
    rng = np.random.default_rng(2)
    g1, g2 = standard_graph("path", 4), standard_graph("wheel", 5)
    b1, b2 = bases_for(g1, g2)
    f = rng.standard_normal((4, 5))
    out = spectral_filter_2d(f, heat_kernel(1e3, 1e3), b1, b2)
    assert np.abs(out - f.mean()).max() < 1e-6


def test_polynomial_identity_and_monomials():
    rng = np.random.default_rng(3)
    g1, g2 = standard_graph("path", 4), standard_graph("cycle", 5)
    L1, L2 = matrices(g1).L, matrices(g2).L
    f = rng.standard_normal((4, 5))
    assert np.array_equal(polynomial_filter_vertex(f, PolyKernel2D(H=[[1.0]]), L1, L2), f)
    h10 = PolyKernel2D(H=[[0.0], [1.0]])
    assert np.abs(polynomial_filter_vertex(f, h10, L1, L2) - L1 @ f).max() < 1e-12
    h01 = PolyKernel2D(H=[[0.0, 1.0]])
    assert np.abs(polynomial_filter_vertex(f, h01, L1, L2) - f @ L2).max() < 1e-12


def test_vertex_and_spectral_paths_agree():
    # the two evaluation routes are mutual oracles
    rng = np.random.default_rng(4)
    for _ in range(20):
        g1 = random_graph(rng, int(rng.integers(2, 8)))
        g2 = random_graph(rng, int(rng.integers(2, 8)))
        b1, b2 = bases_for(g1, g2)
        L1, L2 = matrices(g1).L, matrices(g2).L
        s1 = int(rng.integers(1, min(4, g1.n) + 1))
        s2 = int(rng.integers(1, min(4, g2.n) + 1))
        k = PolyKernel2D(H=rng.standard_normal((s1, s2)))
        f = rng.standard_normal((g1.n, g2.n))
        v = polynomial_filter_vertex(f, k, L1, L2)
        s = spectral_filter_2d(f, k.as_spectral(), b1, b2)
        # weighted graphs push outputs to ~1e5, so compare at output scale
        assert np.abs(v - s).max() < 1e-9 * max(1.0, np.abs(v).max())


def test_filter_linearity():
    rng = np.random.default_rng(5)
    g1, g2 = standard_graph("cycle", 4), standard_graph("path", 3)
    b1, b2 = bases_for(g1, g2)
    k = heat_kernel(0.3, 0.7)
    f, g = rng.standard_normal((2, 4, 3))
    a, b = 1.3, -0.4
    lhs = spectral_filter_2d(a * f + b * g, k, b1, b2)
    rhs = a * spectral_filter_2d(f, k, b1, b2) + b * spectral_filter_2d(g, k, b1, b2)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_separable_kernel_factor_order_commutes():
    rng = np.random.default_rng(6)
    g1, g2 = standard_graph("path", 4), standard_graph("cycle", 6)
    b1, b2 = bases_for(g1, g2)
    h1 = lambda l: np.exp(-0.5 * l)
    h2 = lambda l: 1.0 / (1.0 + l)
    f = rng.standard_normal((4, 6))
    joint = spectral_filter_2d(f, separable_kernel(h1, h2), b1, b2)
    only1 = separable_kernel(h1, lambda l: np.ones_like(l))
    only2 = separable_kernel(lambda l: np.ones_like(l), h2)
    order_a = spectral_filter_2d(spectral_filter_2d(f, only1, b1, b2), only2, b1, b2)
    order_b = spectral_filter_2d(spectral_filter_2d(f, only2, b1, b2), only1, b1, b2)
    assert np.abs(joint - order_a).max() < 1e-10
    assert np.abs(joint - order_b).max() < 1e-10


def test_filtering_basis_invariant_in_degenerate_eigenspaces():
    # rotate the basis inside the lambda = 2 eigenspace of C4; responses
    # depend only on eigenvalues, so the output cannot change
    from mdgsp import EigenBasis

    rng = np.random.default_rng(7)
    g = standard_graph("cycle", 4)
    b = laplacian_basis(g)
    assert b.values[1] == pytest.approx(2.0) and b.values[2] == pytest.approx(2.0)
    theta = 0.6
    rot = np.eye(4)
    rot[1:3, 1:3] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    b_rot = EigenBasis(values=b.values, vectors=b.vectors @ rot, source="laplacian")
    k = heat_kernel(0.4, 0.2)
    f = rng.standard_normal((4, 4))
    out_a = spectral_filter_2d(f, k, b, b)
    out_b = spectral_filter_2d(f, k, b_rot, b_rot)
    assert np.abs(out_a - out_b).max() < 1e-10


def test_sum_1d_lambda_kernel_is_kronecker_sum_action():
    rng = np.random.default_rng(8)
    g1, g2 = standard_graph("path", 3), standard_graph("cycle", 4)
    b1, b2 = bases_for(g1, g2)
    L1, L2 = matrices(g1).L, matrices(g2).L
    f = rng.standard_normal((3, 4))
    out = filter_1d_kernel_on_product(f, lambda l: l, b1, b2)
    assert np.abs(out - (L1 @ f + f @ L2)).max() < 1e-10


def test_sum_1d_identity():
    rng = np.random.default_rng(9)
    g1, g2 = standard_graph("path", 3), standard_graph("path", 4)
    b1, b2 = bases_for(g1, g2)
    f = rng.standard_normal((3, 4))
    out = filter_1d_kernel_on_product(f, lambda l: np.ones_like(l), b1, b2)
    assert np.abs(out - f).max() < 1e-12


def test_2d_kernel_not_representable_as_sum_1d():
    # exhaustive check over the sum frequencies of P2 x P3: the sums
    # 0+3 and 2+1 coincide, but exp(-l1) responds differently to them,
    # so no sum-frequency kernel reproduces the 2-D filter
    g1, g2 = standard_graph("path", 2), standard_graph("path", 3)
    b1, b2 = bases_for(g1, g2)
    sums = np.add.outer(b1.values, b2.values)
    resp_2d = np.exp(-b1.values[:, None]) * np.ones((1, 3))
    collision = False
    for i in range(2):
        for j in range(3):
            for k in range(2):
                for l in range(3):
                    if (i, j) < (k, l) and abs(sums[i, j] - sums[k, l]) < 1e-9:
                        collision = True
                        assert abs(resp_2d[i, j] - resp_2d[k, l]) > 0.1
    assert collision
    # best sum-1d imitation (first member's response per sum) differs on a probe
    table = {}
    for i in range(2):
        for j in range(3):
            key = round(sums[i, j], 9)
            table.setdefault(key, resp_2d[i, j])
    imitation = sum_1d_kernel(np.vectorize(lambda l: table[round(l, 9)]))
    kernel_2d = SpectralKernel2D(kind="tabulated", func=lambda l1, l2: np.exp(-l1) * np.ones_like(l2))
    probe = np.ones((2, 3)) + np.outer([1.0, -1.0], [0.5, 0.0, -0.5])
    out_2d = spectral_filter_2d(probe, kernel_2d, b1, b2)
    out_1d = spectral_filter_2d(probe, imitation, b1, b2)
    assert np.abs(out_2d - out_1d).max() > 1e-3


def test_locality_zero_hop():
    g1, g2 = standard_graph("path", 3), standard_graph("path", 3)
    pg = cartesian_product(g1, g2)
    k = PolyKernel2D(H=[[1.0]])
    assert locality_neighborhood(pg, k, (1, 2)) == {(1, 2)}


def test_locality_h11_center_of_grid():
    # BFS oracle per factor: hop <= 1 in each direction
    g = standard_graph("path", 3)
    pg = cartesian_product(g, g)
    k = PolyKernel2D(H=[[0.0, 0.0], [0.0, 1.0]])
    got = locality_neighborhood(pg, k, (1, 1))
    assert got == {(a, b) for a in range(3) for b in range(3)}


def test_locality_full_reach_at_diameter_degrees():
    g1, g2 = standard_graph("path", 3), standard_graph("cycle", 5)
    pg = cartesian_product(g1, g2)
    H = np.zeros((3, 3))
    H[2, 2] = 1.0
    got = locality_neighborhood(pg, PolyKernel2D(H=H), (0, 0))
    assert got == {(a, b) for a in range(3) for b in range(5)}


def test_impulse_response_zero_outside_neighborhood():
    rng = np.random.default_rng(10)
    g1, g2 = standard_graph("path", 4), standard_graph("path", 5)
    pg = cartesian_product(g1, g2)
    L1, L2 = matrices(g1).L, matrices(g2).L
    for _ in range(10):
        H = rng.standard_normal((3, 3))
        H *= rng.random((3, 3)) < 0.6  # sparse support patterns
        if not H.any():
            H[0, 0] = 1.0
        k = PolyKernel2D(H=H)
        v = (int(rng.integers(0, 4)), int(rng.integers(0, 5)))
        f = np.zeros((4, 5))
        f[v] = 1.0
        out = polynomial_filter_vertex(f, k, L1, L2)
        hood = locality_neighborhood(pg, k, v)
        for a in range(4):
            for b in range(5):
                if (a, b) not in hood:
                    assert abs(out[a, b]) <= 1e-10


def test_non_finite_kernel_response_errors():
    g1, g2 = standard_graph("path", 3), standard_graph("path", 3)
    b1, b2 = bases_for(g1, g2)

    def inverse_frequency(l1, l2):
        with np.errstate(divide="ignore"):
            return 1.0 / (l1 + l2)  # undefined at the zero frequency pair

    bad = SpectralKernel2D(kind="tabulated", func=inverse_frequency)
    with pytest.raises(KernelError):
        spectral_filter_2d(np.ones((3, 3)), bad, b1, b2)


def test_tabulated_kernel_shares_responses_across_ties():
    g = standard_graph("cycle", 4)  # spectrum {0, 2, 2, 4}
    b = laplacian_basis(g)
    table = np.arange(9, dtype=float).reshape(3, 3)
    k = tabulated_kernel(b.values, b.values, table)
    resp = k.evaluate(b.values, b.values)
    assert resp[1, 1] == resp[2, 2] == resp[1, 2]


def test_kernel_json_formats(tmp_path):
    poly = kernel_from_json(json.dumps({"kind": "polynomial", "coeffs": [[1.0, 0.5]]}))
    assert isinstance(poly, PolyKernel2D)
    heat = kernel_from_json(json.dumps({"kind": "heat", "params": {"tau1": 0.5, "tau2": 1.0}}))
    assert heat.kind == "heat"
    sep = kernel_from_json(json.dumps({"kind": "separable", "coeffs": [[1.0, -1.0], [1.0]]}))
    assert sep.kind == "separable"
    s1 = kernel_from_json(json.dumps({"kind": "sum-1d", "coeffs": [0.0, 1.0]}))
    assert s1.kind == "sum-1d"
    from mdgsp import FormatError

    with pytest.raises(FormatError):
        kernel_from_json(json.dumps({"kind": "mystery"}))
    with pytest.raises(FormatError):
        kernel_from_json("nope")


def test_complex_kernel_with_tiny_imaginary_residue_gives_a_real_output():
    g1, g2 = standard_graph("path", 3), standard_graph("cycle", 4)
    b1, b2 = bases_for(g1, g2)
    f = np.random.default_rng(5).standard_normal((3, 4))
    near_real = SpectralKernel2D("heat", lambda l1, l2: np.exp(-l1 - l2) + 1e-13j)
    out = spectral_filter_2d(f, near_real, b1, b2)
    assert not np.iscomplexobj(out)
    assert np.allclose(out, spectral_filter_2d(f, heat_kernel(1.0, 1.0), b1, b2), atol=1e-12)
    complex_kernel = SpectralKernel2D("heat", lambda l1, l2: np.exp(-l1 - l2) + 1e-3j)
    assert np.iscomplexobj(spectral_filter_2d(f, complex_kernel, b1, b2))


def test_locality_of_an_all_zero_kernel_is_empty():
    pg = cartesian_product(standard_graph("path", 3), standard_graph("path", 4))
    assert locality_neighborhood(pg, PolyKernel2D(H=np.zeros((2, 3))), (1, 1)) == set()


@pytest.mark.parametrize("payload, message", [
    ({"kind": "polynomial"}, "polynomial kernel needs coeffs"),
    ({"kind": "sum-1d"}, "sum-1d kernel needs coeffs"),
    ({"kind": "separable", "coeffs": [[1.0, 0.5]]}, r"separable kernel needs coeffs = \[c1, c2\]"),
    ({"coeffs": [1.0]}, 'kernel JSON must be an object with "kind"'),
])
def test_kernel_json_without_its_coefficients_is_a_format_error(payload, message):
    from mdgsp import FormatError

    with pytest.raises(FormatError, match=message):
        kernel_from_json(json.dumps(payload))
