"""Eigendecomposition determinism, invariants, multiplicity grouping."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdgsp
import mdgsp.spectral as spectral
from mdgsp import (
    SpectrumError,
    build_graph,
    cartesian_product,
    eigenbasis,
    load_matrix,
    load_spectrum,
    matrices,
    multiplicity_partition,
    save_graph,
    save_matrix,
    save_signal,
    standard_graph,
    vandermonde,
)
from mdgsp.cli import main
from helpers import random_graph, sensor_graph


def test_p2_spectrum_by_hand():
    b = eigenbasis(matrices(standard_graph("path", 2)).L, "laplacian")
    assert np.allclose(b.values, [0.0, 2.0], atol=1e-12)
    assert np.allclose(b.vectors[:, 0], np.ones(2) / np.sqrt(2))


def test_product_spectrum_is_sum_of_factor_spectra():
    # oracle: Kronecker-sum spectrum of the factor spectra {0,2}+{0,2}
    pg = cartesian_product(standard_graph("path", 2), standard_graph("path", 2))
    b = eigenbasis(matrices(pg.graph).L, "laplacian")
    assert np.allclose(b.values, [0.0, 2.0, 2.0, 4.0], atol=1e-10)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_cycle_spectrum_matches_circulant_formula(n):
    b = eigenbasis(matrices(standard_graph("cycle", n)).L, "laplacian")
    expected = np.sort(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))
    assert np.allclose(np.sort(b.values), expected, atol=1e-10)


def test_eigenbasis_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(2, 9)))
        m = matrices(g)
        for source, mat in (("laplacian", m.L), ("adjacency", m.W)):
            b = eigenbasis(mat, source)
            n = b.n
            assert np.abs(b.vectors.T @ b.vectors - np.eye(n)).max() <= 1e-10
            resid = np.linalg.norm(mat @ b.vectors - b.vectors * b.values, axis=0)
            assert np.all(resid <= 1e-8 * np.maximum(1.0, np.abs(b.values)))
            recon = (b.vectors * b.values) @ b.vectors.T
            denom = max(np.linalg.norm(mat), 1.0)
            assert np.linalg.norm(recon - mat) / denom <= 1e-8
        assert eigenbasis(m.L, "laplacian").values[0] == 0.0


def test_sign_convention_and_determinism():
    rng = np.random.default_rng(23)
    g = random_graph(rng, 6)
    L = matrices(g).L
    a = eigenbasis(L, "laplacian")
    b = eigenbasis(L, "laplacian")
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.vectors, b.vectors)
    for k in range(a.n):
        lead = np.nonzero(np.abs(a.vectors[:, k]) > 1e-9)[0][0]
        assert a.vectors[lead, k] > 0


def test_connected_graph_constant_ground_mode():
    b = eigenbasis(matrices(standard_graph("wheel", 7)).L, "laplacian")
    assert np.sum(np.abs(b.values) < 1e-10) == 1
    assert np.allclose(b.vectors[:, 0], np.full(7, 1 / np.sqrt(7)))


def test_rejects_asymmetric_and_nonfinite():
    with pytest.raises(SpectrumError):
        eigenbasis(np.array([[0.0, 1.0], [0.0, 0.0]]), "laplacian")
    with pytest.raises(SpectrumError):
        eigenbasis(np.array([[np.nan, 0.0], [0.0, 1.0]]), "laplacian")


def test_multiplicity_partition_exact_ties():
    pg = cartesian_product(standard_graph("path", 2), standard_graph("path", 2))
    b = eigenbasis(matrices(pg.graph).L, "laplacian")
    part = multiplicity_partition(b, 1e-8)
    assert part.groups == [[0], [1, 2], [3]]


def test_multiplicity_partition_distinct():
    b = eigenbasis(matrices(standard_graph("path", 5)).L, "laplacian")
    part = multiplicity_partition(b)
    assert part.groups == [[k] for k in range(5)]


def test_self_product_pairs_all_degenerate():
    # G with distinct spectrum: every off-diagonal sum lambda_k + lambda_l
    # appears twice in the product spectrum
    g = standard_graph("path", 4)
    assert np.diff(eigenbasis(matrices(g).L, "laplacian").values).min() > 1e-6
    pg = cartesian_product(g, g)
    b = eigenbasis(matrices(pg.graph).L, "laplacian")
    part = multiplicity_partition(b, 1e-8)
    fac = eigenbasis(matrices(g).L, "laplacian").values
    sums = np.add.outer(fac, fac)
    for k in range(4):
        for l in range(4):
            if k == l:
                continue
            target = sums[k, l]
            gi = next(i for i, grp in enumerate(part.groups)
                      if abs(b.values[grp[0]] - target) <= 1e-7)
            assert len(part.groups[gi]) >= 2


def test_vandermonde_values():
    assert np.array_equal(vandermonde(np.array([0.0, 2.0])), [[1.0, 0.0], [1.0, 2.0]])


def test_vandermonde_rank():
    distinct = vandermonde(np.array([0.0, 1.0, 3.0]))
    assert np.linalg.matrix_rank(distinct) == 3
    repeated = vandermonde(np.array([0.0, 2.0, 2.0]))
    assert np.linalg.matrix_rank(repeated) == 2


def test_matrix_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 3))
    path = tmp_path / "m.mat"
    save_matrix(m, path)
    raw = path.read_bytes()
    assert raw[:8] == b"MDGSPMAT"
    assert len(raw) == 16 + 8 * 15
    assert np.array_equal(load_matrix(path), m)


@pytest.mark.parametrize("damage, message", [
    (lambda raw: b"NOTAMATX" + raw[8:], "not a MDGSPMAT matrix file"),
    (lambda raw: raw[:-8], "expected 112 bytes, found 104"),
    (lambda raw: raw[:10], "not a MDGSPMAT matrix file"),
])
def test_load_matrix_rejects_a_bad_magic_and_a_truncated_file(tmp_path, damage, message):
    from mdgsp import FormatError

    path = tmp_path / "m.mat"
    save_matrix(np.arange(12.0).reshape(3, 4), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(FormatError, match=message):
        load_matrix(path)


def test_save_matrix_refuses_a_3d_array(tmp_path):
    from mdgsp import FormatError

    with pytest.raises(FormatError, match="only 2-D matrices can be saved, got ndim=3"):
        save_matrix(np.zeros((2, 2, 2)), tmp_path / "m.mat")
    assert not (tmp_path / "m.mat").exists()


def test_eigenbasis_rejects_a_non_orthonormal_basis(monkeypatch):
    eigh = np.linalg.eigh

    def skewed(m):
        values, vectors = eigh(m)
        vectors[:, 1] += 1e-3 * vectors[:, 0]
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", skewed)
    with pytest.raises(SpectrumError, match="eigenvectors not orthonormal"):
        eigenbasis(matrices(standard_graph("path", 4)).L, "laplacian")


@pytest.mark.parametrize("n", [1, 7, 300])
def test_probe_bound_covers_the_norm_of_a_diagonal_map(n):
    # ||diag(e)||_2 = max |e|; the spike sits on one coordinate, which the
    # probes must still find
    e = np.full(n, 1e-3)
    e[n // 2] = -3.0
    assert spectral._probe_bound(lambda w: w * e, (n,)) >= 3.0
    spike = np.zeros(n)
    spike[n // 2] = 10 * spectral.TOL_ORTH
    two = spectral._probe_bound(lambda w: np.stack([w * e, w * spike]), (n,))
    assert two.shape == (2,) and two[0] >= 3.0 and two[1] > spectral.TOL_ORTH


def test_probe_bound_repeats_and_leaves_the_global_stream_alone():
    state = np.random.get_state()[1].copy()
    first = spectral._probe_bound(lambda w: 2.0 * w, (5, 4))
    assert spectral._probe_bound(lambda w: 2.0 * w, (5, 4)) == first
    assert np.array_equal(np.random.get_state()[1], state)


def test_probes_are_standard_normal():
    # the bound holds for Gaussian probes: mean, variance and the two-sigma tail
    # of 2e5 draws, each within 5 standard errors
    g = spectral._gaussian_probes((10, 20000)).ravel()
    n, tail = g.size, 0.04550026
    assert abs(g.mean()) < 5 / np.sqrt(n)
    assert abs(g.var() - 1.0) < 5 * np.sqrt(2.0 / n)
    assert abs(np.mean(np.abs(g) > 2.0) - tail) < 5 * np.sqrt(tail * (1 - tail) / n)


def test_probes_do_not_load_numpy_random():
    # a command that draws no noise does not pay for numpy.random (5.6 MB resident)
    code = ("import sys, mdgsp\n"
            "g = mdgsp.standard_graph('path', 40)\n"
            "mdgsp.eigenbasis(mdgsp.matrices(g).L, 'laplacian')\n"
            "print('numpy.random' in sys.modules)")
    src = str(Path(mdgsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.split() == ["False"]


def _count_exact_checks(monkeypatch):
    calls = []
    exact = spectral._check_eigenpairs

    def counting(m, values, vectors):
        calls.append(m.shape[0])
        exact(m, values, vectors)

    monkeypatch.setattr(spectral, "_check_eigenpairs", counting)
    return calls


def test_healthy_bases_run_no_exact_check(monkeypatch):
    calls = _count_exact_checks(monkeypatch)
    rng = np.random.default_rng(29)
    for g in [standard_graph("path", 1), standard_graph("path", 40),
              standard_graph("cycle", 60), random_graph(rng, 9), random_graph(rng, 150)]:
        m = matrices(g)
        eigenbasis(m.L, "laplacian")
        eigenbasis(m.W, "adjacency")
    assert calls == []


def _values_off_by(monkeypatch, shift):
    eigh = np.linalg.eigh

    def shifted(m):
        values, vectors = eigh(m)
        return values + shift, vectors

    monkeypatch.setattr(np.linalg, "eigh", shifted)


def test_probe_miss_falls_back_to_the_exact_check_which_passes(monkeypatch):
    # eigenvalues off by half the tolerance: the scaled residual is 0.5 TOL_EIGPAIR per
    # column, so the exact check passes, while the probe bound of the whole map
    # (columns with |lambda| <= 1 add up) does not
    calls = _count_exact_checks(monkeypatch)
    bounds = []
    probe = spectral._probe_bound

    def recording(apply, shape):
        bounds.append(probe(apply, shape))
        return bounds[-1]

    monkeypatch.setattr(spectral, "_probe_bound", recording)
    _values_off_by(monkeypatch, 0.5 * spectral.TOL_EIGPAIR)
    W = matrices(standard_graph("path", 30)).W
    b = eigenbasis(W, "adjacency")
    orth, pair = bounds[0]
    assert orth <= spectral.TOL_ORTH and pair > spectral.TOL_EIGPAIR and calls == [30]
    assert np.array_equal(b.values, np.linalg.eigh(W)[0])  # the shifted values


def test_error_just_over_the_tolerance_falls_back_and_is_refused(monkeypatch):
    calls = _count_exact_checks(monkeypatch)
    _values_off_by(monkeypatch, 1.5 * spectral.TOL_EIGPAIR)
    with pytest.raises(SpectrumError, match=r"^eigenpair \d+ residual .* exceeds tolerance$"):
        eigenbasis(matrices(standard_graph("path", 30)).W, "adjacency")
    assert calls == [30]


def two_sensor_graphs(rng, n=100):
    """The disjoint union of two n-vertex sensor graphs: a graph of two components."""
    edges = []
    for offset in (0, n):
        d = sensor_graph(rng, n).incidence
        edges += [(offset + i, offset + j, w)
                  for i, j, w in zip(d.i.tolist(), d.j.tolist(), d.w.tolist())]
    return 2 * n, edges


def component_count(w):
    """Connected components of the graph with weight matrix w, by breadth-first search."""
    seen = np.zeros(len(w), dtype=bool)
    count = 0
    for s in range(len(w)):
        if not seen[s]:
            count += 1
            front = np.eye(1, len(w), s, dtype=bool)[0]
            while front.any():
                seen |= front
                front = (w[front] > 0).any(axis=0) & ~seen
    return count


SCALED_GRAPHS = {
    "path": lambda: (50, [(i, i + 1, 1.0) for i in range(49)]),
    "two-component-knn": lambda: two_sensor_graphs(np.random.default_rng(3)),
}


@pytest.mark.parametrize("c", [1e-3, 1e5, 1e6, 1e8])
@pytest.mark.parametrize("kind", list(SCALED_GRAPHS))
def test_weight_scaling_scales_the_laplacian_spectrum(kind, c):
    # W -> c W: the zero eigenvalues stay exactly 0, one per component, and the others
    # scale by c
    n, edges = SCALED_GRAPHS[kind]()
    unit_graph = build_graph(n, edges)
    unit = eigenbasis(matrices(unit_graph).L, "laplacian").values
    scaled = eigenbasis(matrices(build_graph(n, [(i, j, c * w) for i, j, w in edges])).L,
                        "laplacian").values
    k = component_count(unit_graph.w)
    assert k == (1 if kind == "path" else 2)
    for values in (unit, scaled):
        assert np.count_nonzero(values == 0.0) == k and np.all(values[:k] == 0.0)
    np.testing.assert_allclose(scaled[k:], c * unit[k:], rtol=1e-12, atol=0)


def test_gft_of_a_heavily_weighted_path_succeeds(tmp_path):
    save_graph(build_graph(50, [(i, i + 1, 1e7) for i in range(49)]), tmp_path / "g1.json")
    save_graph(standard_graph("cycle", 4), tmp_path / "g2.json")
    save_signal(np.random.default_rng(5).standard_normal((50, 4)), tmp_path / "f.csv")
    assert main(["gft", "--g1", str(tmp_path / "g1.json"), "--g2", str(tmp_path / "g2.json"),
                 "--signal", str(tmp_path / "f.csv"), "--out", str(tmp_path / "s.csv")]) == 0
    assert load_spectrum(tmp_path / "s.csv").lambdas1[0] == 0.0
