"""Stationary-process synthesis, spectral covariance laws, diagnostics.

Monte-Carlo tolerances follow the 5/sqrt(M) convention; unit tests run at
moderate sample counts and fixed seeds so they are deterministic.
"""

import dataclasses

import numpy as np
import pytest

from helpers import laplacian_basis

import mdgsp.stationarity as stationarity
from mdgsp.spectral import _PROBES
from mdgsp import (
    DimensionError,
    DirectionalProcess,
    EigenBasis,
    FgwProcess,
    PolyKernel2D,
    SamplingError,
    WhiteNoise2D,
    construct_H_from_gamma,
    construct_directional_from_gamma,
    estimate_cov,
    half_spectra_of,
    matrices,
    max_offdiag_correlation,
    sample_directional,
    sample_fgw,
    sample_multivariate,
    spectra_of,
    standard_graph,
)
from mdgsp import test_directional_stationarity as directional_report
from mdgsp import test_fgw_stationarity as fgw_report

M = 6000


@pytest.fixture(scope="module")
def p3p4():
    g1, g2 = standard_graph("path", 3), standard_graph("path", 4)
    L1, L2 = matrices(g1).L, matrices(g2).L
    return L1, L2, laplacian_basis(g1), laplacian_basis(g2)


def test_white_noise_moments_and_reproducibility():
    noise = WhiteNoise2D(3, 4, seed=11)
    batch = noise.batch(M)
    assert abs(batch.mean()) < 5 / np.sqrt(M * 12)
    C = estimate_cov(batch).as_matrix()
    assert np.abs(np.diag(C) - 1.0).max() < 5 * np.sqrt(2.0 / M)
    off = C - np.diag(np.diag(C))
    assert np.abs(off).max() < 5 / np.sqrt(M)
    # order independence: sample 5 alone equals sample 5 of the batch
    assert np.array_equal(noise.sample(5), batch[5])


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_sample_is_row_of_batch_on_padded_grid(distribution):
    # 3 x 5 = 15 values per sample: not a multiple of the 4 words of a
    # Philox counter step, so each sample's block carries padding
    noise = WhiteNoise2D(3, 5, seed=17, distribution=distribution)
    count = 301
    batch = noise.batch(count)
    assert batch.shape == (count, 3, 5) and batch.flags.c_contiguous
    for i in (0, count // 2, count - 1):
        assert np.array_equal(noise.sample(i), batch[i])
    # a longer batch extends a shorter one
    assert np.array_equal(noise.batch(count + 1000)[:count], batch)
    # random access costs the same at any index
    assert noise.sample(10**15).shape == (3, 5)


def test_noise_seed_range():
    big = WhiteNoise2D(2, 3, seed=2**130)
    batch = big.batch(4)
    assert np.array_equal(big.sample(3), batch[3])
    assert not np.array_equal(batch, WhiteNoise2D(2, 3, seed=2**130 + 1).batch(4))
    with pytest.raises(SamplingError):
        WhiteNoise2D(2, 3, seed=-1)
    with pytest.raises(SamplingError):
        WhiteNoise2D(2, 3, seed=0).sample(-1)


def test_gaussian_noise_moments_and_tails():
    m = 20_000
    z = WhiteNoise2D(16, 16, seed=29).batch(m).ravel()
    n = z.size
    assert abs(z.mean()) < 5 * np.sqrt(1 / n)
    assert abs((z**2).mean() - 1) < 5 * np.sqrt(2 / n)
    assert abs((z**3).mean()) < 5 * np.sqrt(15 / n)
    assert abs((z**4).mean() - 3) < 5 * np.sqrt(96 / n)
    p = 0.0026997960632601866  # P(|z| > 3)
    assert abs((np.abs(z) > 3).mean() - p) < 5 * np.sqrt(p * (1 - p) / n)


def test_batch_builds_no_generator_per_sample(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("per-sample Generator")

    monkeypatch.setattr(stationarity.np.random, "default_rng", refuse)
    for distribution in ("gaussian", "rademacher"):
        noise = WhiteNoise2D(4, 4, seed=3, distribution=distribution)
        assert np.array_equal(noise.batch(50)[49], noise.sample(49))


def test_rademacher_noise_is_pm_one():
    noise = WhiteNoise2D(2, 3, seed=1, distribution="rademacher")
    batch = noise.batch(200)
    assert set(np.unique(batch)) == {-1.0, 1.0}
    assert abs(batch.mean()) < 5 / np.sqrt(200 * 6)


def test_fgw_identity_kernel_is_white_noise(p3p4):
    L1, L2, b1, b2 = p3p4
    proc = FgwProcess(kernel=PolyKernel2D(H=[[1.0]]))
    samples = sample_fgw(proc, L1, L2, seed=3, count=50)
    noise = WhiteNoise2D(3, 4, seed=3)
    assert np.array_equal(np.asarray(samples), noise.batch(50))


def test_fgw_l1_kernel_spectral_variance(p3p4):
    # gain lambda^(1), so spectral variance is (lambda_k1)^2 (Monte Carlo)
    L1, L2, b1, b2 = p3p4
    proc = FgwProcess(kernel=PolyKernel2D(H=[[0.0], [1.0]]))
    samples = sample_fgw(proc, L1, L2, seed=5, count=M)
    for s, Z in zip(samples[:10], WhiteNoise2D(3, 4, 5).batch(10)):
        assert np.abs(s - L1 @ Z).max() < 1e-12
    C = estimate_cov(spectra_of(samples, b1, b2))
    var = np.einsum("ijij->ij", C.values)
    target = np.broadcast_to((b1.values**2)[:, None], (3, 4))
    tol = 5 * np.sqrt(2.0 / M) * (target + 0.1 * target.max())
    assert np.all(np.abs(var - target) <= tol)


def test_construct_from_gamma_recovers_targets(p3p4):
    L1, L2, b1, b2 = p3p4
    rng = np.random.default_rng(17)
    Gamma = 0.2 + rng.random((3, 4))
    proc = construct_H_from_gamma(Gamma, b1, b2)
    assert np.abs(proc.gains(b1, b2) - np.sqrt(Gamma)).max() < 1e-10
    samples = sample_fgw(proc, L1, L2, seed=23, count=M)
    C = estimate_cov(spectra_of(samples, b1, b2))
    var = np.einsum("ijij->ij", C.values)
    tol = 5 * np.sqrt(2.0 / M) * (Gamma + 0.1 * Gamma.max())
    assert np.all(np.abs(var - Gamma) <= tol)
    assert max_offdiag_correlation(C) < 5 / np.sqrt(M)


def test_construct_from_gamma_constant_and_onehot(p3p4):
    _, _, b1, b2 = p3p4
    flat = construct_H_from_gamma(np.ones((3, 4)), b1, b2)
    assert np.abs(flat.gains(b1, b2) - 1.0).max() < 1e-10
    onehot = np.zeros((3, 4))
    onehot[0, 0] = 1.0
    proc = construct_H_from_gamma(onehot, b1, b2)
    gains = proc.gains(b1, b2)
    assert gains[0, 0] == pytest.approx(1.0, abs=1e-10)
    assert np.abs(gains).max() == pytest.approx(1.0, abs=1e-10)
    # every sample is a multiple of the constant eigensignal
    samples = sample_fgw(proc, matrices(standard_graph("path", 3)).L,
                         matrices(standard_graph("path", 4)).L, seed=2, count=20)
    for s in samples:
        assert np.abs(s - s.mean()).max() < 1e-10


def test_construct_from_gamma_rejects_bad_inputs(p3p4):
    _, _, b1, b2 = p3p4
    with pytest.raises(SamplingError):
        construct_H_from_gamma(-np.ones((3, 4)), b1, b2)
    c4 = laplacian_basis(standard_graph("cycle", 4))  # repeated eigenvalues
    with pytest.raises(SamplingError):
        construct_H_from_gamma(np.ones((4, 4)), c4, b2)


def test_degree_overflow_rejected(p3p4):
    L1, L2, _, _ = p3p4
    with pytest.raises(SamplingError):
        sample_fgw(FgwProcess(kernel=PolyKernel2D(H=np.ones((4, 2)))), L1, L2, 0, 2)


def test_directional_identity_is_white(p3p4):
    L1, _, _, _ = p3p4
    Hs = np.zeros((3, 4, 4))
    Hs[0] = np.eye(4)
    samples = sample_directional(DirectionalProcess(1, Hs), L1, seed=9, count=40)
    assert np.array_equal(np.asarray(samples), WhiteNoise2D(3, 4, 9).batch(40))


def test_directional_constant_matrix_rows_uncorrelated(p3p4):
    # X = Z A: cross-row spectral covariance vanishes (Lemma-2 structure)
    L1, _, b1, _ = p3p4
    rng = np.random.default_rng(33)
    A = rng.standard_normal((4, 4))
    Hs = np.zeros((3, 4, 4))
    Hs[0] = A
    samples = sample_directional(DirectionalProcess(1, Hs), L1, seed=13, count=M)
    for s, Z in zip(samples[:5], WhiteNoise2D(3, 4, 13).batch(5)):
        assert np.abs(s - Z @ A).max() < 1e-12
    C = estimate_cov(half_spectra_of(samples, b1, 1))
    n1, n2 = 3, 4
    cm = C.as_matrix()
    freq = np.repeat(np.arange(n1), n2)
    cross = cm[freq[:, None] != freq[None, :]]
    scale = np.abs(np.diag(cm)).max()
    assert np.abs(cross).max() < 5 / np.sqrt(M) * scale
    # within-frequency blocks approach A^T A, the per-frequency gain gram
    target = A.T @ A
    for k1 in range(3):
        blk = C.values[k1, :, k1, :]
        assert np.abs(blk - target).max() < 5 / np.sqrt(M) * max(1.0, scale)


def test_directional_construct_recovers_gammas(p3p4):
    L1, _, b1, _ = p3p4
    rng = np.random.default_rng(29)
    targets = []
    for _ in range(3):
        A = rng.standard_normal((4, 4))
        targets.append(A @ A.T + 0.3 * np.eye(4))
    targets = np.stack(targets)
    proc = construct_directional_from_gamma(targets, b1)
    samples = sample_directional(proc, L1, seed=31, count=M)
    C = estimate_cov(half_spectra_of(samples, b1, 1))
    scale = targets.max()
    for k1 in range(3):
        got = C.values[k1, :, k1, :]
        tol = 5 * np.sqrt((np.outer(np.diag(targets[k1]), np.diag(targets[k1]))
                           + targets[k1]**2) / M) + 1e-3 * scale
        assert np.all(np.abs(got - targets[k1]) <= tol)


def test_directional_construct_identity_targets_gives_white(p3p4):
    L1, _, b1, _ = p3p4
    eye_targets = np.stack([np.eye(4)] * 3)
    proc = construct_directional_from_gamma(eye_targets, b1)
    samples = np.asarray(sample_directional(proc, L1, seed=41, count=M))
    C = estimate_cov(samples.reshape(M, 3, 4))
    assert np.abs(C.as_matrix() - np.eye(12)).max() < 6 / np.sqrt(M)


def test_directional_construct_scaled_identities_match_fgw_variances(p3p4):
    # Gamma_k = c_k I corresponds to a separable rank-structure process:
    # spectral variances equal those of the fgw construction
    L1, L2, b1, b2 = p3p4
    c = np.array([0.5, 1.0, 2.0])
    proc_dir = construct_directional_from_gamma(np.stack([ck * np.eye(4) for ck in c]), b1)
    samples = sample_directional(proc_dir, L1, seed=43, count=M)
    spec = spectra_of(samples, b1, b2)
    var_dir = np.einsum("mij,mij->ij", spec, spec) / M
    Gamma = np.broadcast_to(c[:, None], (3, 4))
    tol = 5 * np.sqrt(2.0 / M) * (Gamma + 0.1 * Gamma.max())
    assert np.all(np.abs(var_dir - Gamma) <= tol)


def test_directional_rejects_non_psd(p3p4):
    _, _, b1, _ = p3p4
    bad = np.stack([np.eye(4), np.eye(4), np.diag([1.0, 1.0, 1.0, -0.5])])
    with pytest.raises(SamplingError):
        construct_directional_from_gamma(bad, b1)


def test_direction2_sampler_matches_transposed_form():
    g1, g2 = standard_graph("path", 3), standard_graph("path", 2)
    L2 = matrices(g2).L
    rng = np.random.default_rng(51)
    Hs = rng.standard_normal((2, 3, 3))
    proc = DirectionalProcess(2, Hs)
    samples = sample_directional(proc, L2, seed=53, count=10)
    Z = WhiteNoise2D(3, 2, 53).batch(10)
    L2_pow = [np.eye(2), L2]
    for m in range(10):
        expected = sum(Hs[s] @ Z[m] @ L2_pow[s] for s in range(2))
        assert np.abs(samples[m] - expected).max() < 1e-12


def test_multivariate_is_directional_bit_for_bit():
    g = standard_graph("cycle", 6)
    L = matrices(g).L
    rng = np.random.default_rng(61)
    Hs = rng.standard_normal((6, 3, 3)) * 0.3
    mv = sample_multivariate(Hs, L, seed=71, count=25)
    dr = sample_directional(DirectionalProcess(1, Hs), L, seed=71, count=25)
    assert np.array_equal(np.asarray(mv), np.asarray(dr))


def test_multivariate_p1_reduces_to_univariate_polynomial_filter():
    g = standard_graph("path", 4)
    L = matrices(g).L
    h = np.array([0.5, 0.2, 0.0, 0.1])
    Hs = h.reshape(4, 1, 1)
    samples = sample_multivariate(Hs, L, seed=81, count=10)
    filt = sum(h[s] * np.linalg.matrix_power(L, s) for s in range(4))
    Z = WhiteNoise2D(4, 1, 81).batch(10)
    for m in range(10):
        assert np.abs(samples[m] - filt @ Z[m]).max() < 1e-12


# ---------------------------------------------------------------- chunks of samples


@pytest.mark.parametrize("offset", [-1, 0, 1, 3])
@pytest.mark.parametrize("kind", ["fgw", "dir1", "dir2"])
def test_samplers_in_chunks_equal_the_one_shot_batch(p3p4, kind, offset):
    # around one and two chunks, the streamed samplers return exactly the
    # polynomial core applied to the whole noise batch at once
    L1, L2, b1, b2 = p3p4
    rows = stationarity._chunk_rows(3 * 4)
    count = rows + offset if offset < 3 else 2 * rows + offset
    rng = np.random.default_rng(offset + 2)
    if kind == "fgw":
        H = np.array([[1.0, 0.2, 0.05], [0.3, 0.1, 0.0]])
        got = sample_fgw(FgwProcess(kernel=PolyKernel2D(H=H)), L1, L2, 9, count, b1=b1, b2=b2)
        Z = WhiteNoise2D(3, 4, 9).batch(count)
        want = stationarity._poly_apply(L1, Z, stationarity._right_stack(H, L2), axis=0)
    else:
        d = int(kind[-1])
        L, basis, k = (L1, b1, 4) if d == 1 else (L2, b2, 3)
        Hs = 0.4 * rng.standard_normal((L.shape[0], k, k))
        got = sample_directional(DirectionalProcess(d, Hs), L, 9, count, basis=basis)
        Z = WhiteNoise2D(*((3, 4) if d == 1 else (k, 4)), 9).batch(count)
        want = stationarity._poly_apply(L, Z, Hs, axis=d - 1)
    assert got.shape == want.shape == (count, 3, 4)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_path_check_raises_after_the_last_chunk(p3p4, monkeypatch):
    # the check judges the whole batch, so every chunk is produced first
    L1, L2, b1, b2 = p3p4
    monkeypatch.setattr(stationarity, "_CHUNK_VALUES", 12 * 4)
    wrong = type(b1)(values=b1.values, vectors=b1.vectors[:, ::-1].copy(), source=b1.source)
    chunks = stationarity._fgw_chunks(FgwProcess(kernel=PolyKernel2D(H=[[0.0], [1.0]])),
                                      L1, L2, 3, 10, b1=wrong, b2=b2)
    seen = []
    with pytest.raises(SamplingError, match="disagree"):
        for X in chunks:
            seen.append(len(X))
    assert seen == [4, 4, 2]


def _spectral_calls(chunks):
    """The chunks with their spectral route wrapped, and the shapes it is called on."""
    shapes = []

    def spectral(Z, route=chunks.spectral):
        shapes.append(Z.shape)
        return route(Z)

    return dataclasses.replace(chunks, spectral=spectral), shapes


@pytest.mark.parametrize("kind", ["fgw", "dir1"])
def test_healthy_batch_runs_the_spectral_route_on_the_probes_only(p3p4, monkeypatch, kind):
    # 3 chunks of 4 samples; the probe bound clears every one, so the spectral
    # route runs once, on the probe batch
    L1, L2, b1, b2 = p3p4
    monkeypatch.setattr(stationarity, "_CHUNK_VALUES", 12 * 4)
    if kind == "fgw":
        chunks = stationarity._fgw_chunks(
            FgwProcess(kernel=PolyKernel2D(H=[[1.0, 0.2], [0.3, 0.1]])), L1, L2, 3, 10,
            b1=b1, b2=b2)
    else:
        Hs = 0.4 * np.random.default_rng(8).standard_normal((3, 4, 4))
        chunks = stationarity._directional_chunks(DirectionalProcess(1, Hs), L1, 3, 10,
                                                  basis=b1)
    counted, shapes = _spectral_calls(chunks)
    assert np.array_equal(counted.array(), chunks.array())
    assert shapes == [(_PROBES, 3, 4)]


def test_nonfinite_spectral_route_fails_at_its_chunk(p3p4, monkeypatch):
    # a NaN probe bound clears no chunk: the exact gap of the first one is NaN
    L1, L2, b1, b2 = p3p4
    monkeypatch.setattr(stationarity, "_CHUNK_VALUES", 12 * 4)
    chunks = stationarity._fgw_chunks(FgwProcess(kernel=PolyKernel2D(H=[[0.0], [1.0]])),
                                      L1, L2, 3, 10, b1=b1, b2=b2)
    counted, shapes = _spectral_calls(
        dataclasses.replace(chunks, spectral=lambda Z: np.full(Z.shape, np.nan)))
    with pytest.raises(SamplingError, match="not finite"):
        next(iter(counted))
    assert shapes == [(_PROBES, 3, 4), (4, 3, 4)]


def test_estimate_cov_over_chunks_keeps_a_large_mean(monkeypatch):
    # the running sums are shifted by the first chunk's mean, so a mean far
    # above the spread costs no precision against the two-pass formula
    monkeypatch.setattr(stationarity, "_CHUNK_VALUES", 6 * 50)
    batch = 1e8 + WhiteNoise2D(2, 3, seed=17).batch(1000) * np.arange(1.0, 7.0).reshape(2, 3)
    flat = batch.reshape(1000, 6)
    centered = flat - flat.mean(axis=0)
    want = centered.T @ centered / 999
    got = estimate_cov(batch)
    assert got.m == 1000
    assert np.abs(got.as_matrix() - want).max() < 1e-9 * np.abs(want).max()


def test_estimate_cov_basics():
    zeros = np.zeros((5, 2, 2))
    C = estimate_cov(zeros)
    assert np.all(C.values == 0.0)
    with pytest.raises(SamplingError):
        estimate_cov(np.zeros((1, 2, 2)))
    rng = np.random.default_rng(91)
    batch = rng.standard_normal((300, 2, 3))
    cm = estimate_cov(batch).as_matrix()
    assert np.abs(cm - cm.conj().T).max() == 0.0
    assert np.all(np.diag(cm) >= 0.0)


def test_estimate_cov_error_scales_inverse_sqrt_m():
    errs = []
    for m in (500, 2000, 8000):
        batch = WhiteNoise2D(2, 2, seed=7).batch(m)
        cm = estimate_cov(batch).as_matrix()
        errs.append(np.abs(cm - np.eye(4)).max())
    assert errs[2] < errs[0]
    assert errs[2] * np.sqrt(8000 / 500) < 10 * errs[0]


def test_fgw_test_passes_on_white_noise(p3p4):
    _, _, b1, b2 = p3p4
    batch = WhiteNoise2D(3, 4, seed=111).batch(M)
    rep = fgw_report(batch, b1, b2, tol=0.1)
    assert rep.verdict
    assert len(rep.sub) == 4
    names = [r.name for r in rep.sub]
    assert "condition2_literal_both_differ" in names


def test_fgw_test_passes_on_synthesized_process(p3p4):
    L1, L2, b1, b2 = p3p4
    rng = np.random.default_rng(121)
    Gamma = 0.3 + rng.random((3, 4))
    samples = sample_fgw(construct_H_from_gamma(Gamma, b1, b2), L1, L2, seed=131, count=M)
    rep = fgw_report(np.asarray(samples), b1, b2, tol=0.1)
    assert rep.verdict
    sub_verdicts = [r.verdict for r in rep.sub[:3]]
    assert len(set(sub_verdicts)) == 1


def test_fgw_test_fails_on_constructed_nonstationary(p3p4):
    # zeroing one row deterministically breaks all three conditions together
    _, _, b1, b2 = p3p4
    batch = WhiteNoise2D(3, 4, seed=141).batch(M).copy()
    batch[:, 0, :] = 0.0
    rep = fgw_report(batch, b1, b2, tol=0.1)
    sub_verdicts = [r.verdict for r in rep.sub[:3]]
    assert not any(sub_verdicts)
    assert not rep.verdict


def test_fgw_data_passes_both_directional_tests(p3p4):
    L1, L2, b1, b2 = p3p4
    rng = np.random.default_rng(151)
    Gamma = 0.3 + rng.random((3, 4))
    samples = np.asarray(sample_fgw(construct_H_from_gamma(Gamma, b1, b2),
                                    L1, L2, seed=161, count=M))
    assert directional_report(samples, 1, b1, tol=0.1).verdict
    assert directional_report(samples, 2, b2, tol=0.1).verdict


def test_directional_test_passes_on_synthesized(p3p4):
    L1, _, b1, _ = p3p4
    rng = np.random.default_rng(171)
    targets = np.stack([np.eye(4) * (1 + k) + 0.4 for k in range(3)])
    proc = construct_directional_from_gamma(targets, b1)
    samples = np.asarray(sample_directional(proc, L1, seed=181, count=M))
    rep = directional_report(samples, 1, b1, tol=0.1)
    assert rep.verdict
    assert rep.sub[0].verdict == rep.sub[1].verdict


def test_directional_test_passes_on_white(p3p4):
    _, _, b1, _ = p3p4
    batch = WhiteNoise2D(3, 4, seed=191).batch(M)
    assert directional_report(batch, 1, b1, tol=0.1).verdict


def test_insufficient_samples_raise(p3p4):
    _, _, b1, b2 = p3p4
    batch = WhiteNoise2D(3, 4, seed=1).batch(100)
    with pytest.raises(SamplingError):
        fgw_report(batch, b1, b2, tol=0.01)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_unusable_tolerance_is_refused(p3p4, tol):
    # an infinite tol passes any batch and a NaN one reports a NaN threshold; this
    # batch, with a zeroed row and a scaled column, is far from stationary
    _, _, b1, b2 = p3p4
    batch = WhiteNoise2D(3, 4, seed=1).batch(400)
    batch[:, 0, :] = 0.0
    batch[:, :, 1] *= 10.0
    with pytest.raises(SamplingError, match="tol must be a finite number > 0"):
        fgw_report(batch, b1, b2, tol=tol)
    with pytest.raises(SamplingError, match="tol must be a finite number > 0"):
        directional_report(batch, 1, b1, tol=tol)


@pytest.fixture
def no_spectra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sample was transformed")

    monkeypatch.setattr(stationarity, "spectra_of", refuse)
    monkeypatch.setattr(stationarity, "half_spectra_of", refuse)


def test_fgw_test_refuses_an_unreachable_tol_before_any_spectrum(p3p4, no_spectra):
    _, _, b1, b2 = p3p4
    batch = WhiteNoise2D(3, 4, seed=1).batch(100)
    with pytest.raises(SamplingError, match="insufficient samples"):
        fgw_report(batch, b1, b2, tol=0.01)


def test_directional_test_refuses_a_nan_tol_before_any_spectrum(p3p4, no_spectra):
    _, _, b1, _ = p3p4
    batch = WhiteNoise2D(3, 4, seed=1).batch(100)
    with pytest.raises(SamplingError, match="tol must be a finite number > 0"):
        directional_report(batch, 1, b1, tol=np.nan)


def test_rademacher_fgw_also_passes(p3p4):
    # distribution independence stress: same second-moment structure
    L1, L2, b1, b2 = p3p4
    rng = np.random.default_rng(201)
    Gamma = 0.3 + rng.random((3, 4))
    proc = construct_H_from_gamma(Gamma, b1, b2)
    samples = sample_fgw(proc, L1, L2, seed=211, count=M, distribution="rademacher")
    rep = fgw_report(np.asarray(samples), b1, b2, tol=0.1)
    assert rep.verdict


def test_report_serialization(p3p4):
    _, _, b1, b2 = p3p4
    batch = WhiteNoise2D(3, 4, seed=221).batch(M)
    rep = fgw_report(batch, b1, b2, tol=0.1)
    d = rep.to_dict()
    assert d["verdict"] == "pass"
    assert len(d["sub"]) == 4
    assert 0.0 <= d["statistic"] <= 1.0


# ---------------------------------------------------------------- pooled slices


def ref_pooled_slice_simdiag(T, U, direction):
    n1, n2 = T.shape[0], T.shape[1]
    off_energy = 0.0
    total_energy = 0.0
    pairs = ((i, j) for i in range(n2 if direction == 1 else n1)
             for j in range(n2 if direction == 1 else n1))
    for i, j in pairs:
        c = T[:, i, :, j] if direction == 1 else T[i, :, j, :]
        r = U.conj().T @ c @ U
        off = r - np.diag(np.diag(r))
        off_energy += float(np.sum(np.abs(off) ** 2))
        total_energy += float(np.sum(np.abs(c) ** 2))
    if total_energy == 0.0:
        return 0.0
    return float(np.sqrt(off_energy / total_energy))


def ref_product_simdiag(C, U):
    rotated = U.conj().T @ C @ U
    return float(np.linalg.norm(rotated - np.diag(np.diag(rotated))) / np.linalg.norm(C))


# ---------------------------------------------------------------- one energy split


def unitary_basis(rng, n):
    q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    return EigenBasis(values=np.arange(n, dtype=np.float64), vectors=q, source="laplacian")


def masked_ratio(C, mask):
    return float(np.sqrt(np.sum(np.abs(C[mask]) ** 2) / np.sum(np.abs(C) ** 2)))


@pytest.mark.parametrize("n1, n2, m", [(3, 4, 2000), (16, 16, 1500), (32, 32, 400)])
@pytest.mark.parametrize("bases", ["laplacian", "unitary"])
@pytest.mark.parametrize("batch_kind", ["stationary", "zeroed_row"])
def test_split_statistics_equal_reference_routes(n1, n2, m, bases, batch_kind):
    # every statistic of the single spectral covariance equals its own
    # reference route: pooled slices and the product-basis rotation of the
    # vertex covariance, and masked ratios of the (half-)spectral covariances
    g1, g2 = standard_graph("path", n1), standard_graph("cycle", n2)
    L1, L2 = matrices(g1).L, matrices(g2).L
    if batch_kind == "stationary":
        proc = FgwProcess(kernel=PolyKernel2D(H=[[1.0, 0.2], [0.3, 0.1]]))
        batch = sample_fgw(proc, L1, L2, seed=n1 + n2, count=m)
    else:
        batch = WhiteNoise2D(n1, n2, seed=n1 + n2).batch(m)
        batch[:, 0, :] = 0.0
    if bases == "laplacian":
        b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    else:  # complex spectra: |C|^2 and C^2 differ
        rng = np.random.default_rng(n1 * n2)
        b1, b2 = unitary_basis(rng, n1), unitary_basis(rng, n2)
    U1, U2 = b1.vectors, b2.vectors
    T = estimate_cov(batch).values
    n = n1 * n2

    fgw = fgw_report(batch, b1, b2)
    assert [r.name for r in fgw.sub] == ["condition1_slice_simdiag",
                                         "condition2_spectral_uncorrelated",
                                         "condition3_product_simdiag",
                                         "condition2_literal_both_differ"]
    C = estimate_cov(spectra_of(batch, b1, b2)).as_matrix()
    k1, k2 = np.repeat(np.arange(n1), n2), np.tile(np.arange(n2), n1)
    want = [
        max(ref_pooled_slice_simdiag(T, U1, 1), ref_pooled_slice_simdiag(T, U2, 2)),
        masked_ratio(C, ~np.eye(n, dtype=bool)),
        ref_product_simdiag(T.reshape(n, n), np.kron(U1, U2)),
        masked_ratio(C, (k1[:, None] != k1[None, :]) & (k2[:, None] != k2[None, :])),
    ]
    for got, ref in zip(fgw.sub, want):
        assert got.statistic == pytest.approx(ref, rel=1e-12)

    # the command line takes both directional reports from the fgw split
    _, *from_split = stationarity._split_reports(estimate_cov(spectra_of(batch, b1, b2)),
                                                 stationarity.default_mc_tol(m))
    for d, basis, freq in ((1, b1, k1), (2, b2, k2)):
        rep = directional_report(batch, d, basis)
        assert [r.name for r in rep.sub] == ["condition1_slice_simdiag",
                                             "condition2_cross_frequency_blocks"]
        half = estimate_cov(half_spectra_of(batch, basis, d)).as_matrix()
        want = [ref_pooled_slice_simdiag(T, basis.vectors, d),
                masked_ratio(half, freq[:, None] != freq[None, :])]
        for got, ref in zip(rep.sub, want):
            assert got.statistic == pytest.approx(ref, rel=1e-12)
        split = from_split[d - 1]
        assert split.name == rep.name and split.verdict == rep.verdict
        assert split.statistic == pytest.approx(rep.statistic, rel=1e-12)


@pytest.mark.parametrize("direction", [0, 3, 7])
def test_half_spectra_reject_a_bad_direction(p3p4, direction):
    _, _, _, b2 = p3p4
    with pytest.raises(SamplingError, match="direction must be 1 or 2"):
        half_spectra_of(np.zeros((5, 3, 4)), b2, direction)


def test_fgw_basis_batch_mismatch_is_dimension_error(p3p4):
    _, _, b1, b2 = p3p4
    batch = WhiteNoise2D(3, 4, seed=1).batch(50)
    with pytest.raises(DimensionError):
        fgw_report(batch, b2, b1, tol=1.0)


def test_directional_basis_batch_mismatch_is_dimension_error(p3p4):
    _, _, b1, _ = p3p4
    batch = WhiteNoise2D(3, 4, seed=1).batch(50)
    with pytest.raises(DimensionError):
        directional_report(batch, 2, b1, tol=1.0)


@pytest.mark.parametrize("direction", [None, 2])
def test_zero_batch_is_vacuous_in_every_report(p3p4, direction):
    _, _, b1, b2 = p3p4
    zeros = np.zeros((50, 3, 4))
    if direction is None:
        rep = fgw_report(zeros, b1, b2, tol=1.0)
    else:
        rep = directional_report(zeros, direction, b2, tol=1.0)
    for r in (rep,) + rep.sub:
        assert r.vacuous and r.statistic == 0.0 and r.verdict
        assert r.to_dict()["vacuous"] is True


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_samples_raise_instead_of_reporting_nan(p3p4, bad):
    _, _, b1, b2 = p3p4
    batch = np.random.default_rng(2).standard_normal((60, 3, 4))
    batch[7, 1, 2] = bad
    with np.errstate(all="ignore"):
        with pytest.raises(SamplingError, match="not finite"):
            fgw_report(batch, b1, b2, tol=1.0)
        for direction, basis in ((1, b1), (2, b2)):
            with pytest.raises(SamplingError, match="not finite"):
                directional_report(batch, direction, basis, tol=1.0)
        # finite samples whose covariance energy overflows raise the same way
        with pytest.raises(SamplingError, match="not finite"):
            fgw_report(np.where(np.isfinite(batch), batch, 0.0) * 1e160, b1, b2, tol=1.0)


def test_overflowing_sampler_fails_its_path_check(p3p4):
    L1, L2, b1, b2 = p3p4
    huge = FgwProcess(kernel=PolyKernel2D(H=np.full((2, 2), 1e308)))
    with np.errstate(all="ignore"), pytest.raises(SamplingError, match="not finite"):
        sample_fgw(huge, L1, L2, 3, 50, b1=b1, b2=b2)
    with np.errstate(all="ignore"), pytest.raises(SamplingError, match="not finite"):
        sample_directional(DirectionalProcess(1, np.full((3, 4, 4), 1e308)), L1, 3, 50,
                           basis=b1)


# ---------------------------------------------------------------- precomputed bases


def test_samplers_reuse_precomputed_bases(p3p4, monkeypatch):
    L1, L2, b1, b2 = p3p4
    fgw = FgwProcess(kernel=PolyKernel2D(H=[[0.5, 0.2], [0.3, 0.1]]))
    Hs = np.random.default_rng(5).standard_normal((3, 4, 4)) * 0.3
    d1 = DirectionalProcess(1, Hs)
    d2 = DirectionalProcess(2, np.random.default_rng(6).standard_normal((4, 3, 3)) * 0.3)
    expected = [sample_fgw(fgw, L1, L2, 3, 20), sample_directional(d1, L1, 4, 20),
                sample_directional(d2, L2, 5, 20), sample_multivariate(Hs, L1, 6, 20)]

    def refuse(*args, **kwargs):
        raise AssertionError("re-diagonalized")

    monkeypatch.setattr(stationarity, "eigenbasis", refuse)
    got = [sample_fgw(fgw, L1, L2, 3, 20, b1=b1, b2=b2),
           sample_directional(d1, L1, 4, 20, basis=b1),
           sample_directional(d2, L2, 5, 20, basis=b2),
           sample_multivariate(Hs, L1, 6, 20, basis=b1)]
    for g, e in zip(got, expected):
        assert isinstance(g, np.ndarray) and np.array_equal(g, e)


def test_precomputed_bases_still_feed_the_path_check(p3p4):
    # a basis that does not belong to the Laplacian makes the two paths
    # disagree, so the vertex-vs-spectral check really ran on it
    L1, L2, b1, b2 = p3p4
    wrong = type(b1)(values=b1.values, vectors=b1.vectors[:, ::-1].copy(),
                     source=b1.source)
    fgw = FgwProcess(kernel=PolyKernel2D(H=[[0.0], [1.0]]))
    with pytest.raises(SamplingError):
        sample_fgw(fgw, L1, L2, 3, 5, b1=wrong, b2=b2)
    with pytest.raises(SamplingError):
        sample_directional(DirectionalProcess(1, np.ones((3, 4, 4))), L1, 3, 5,
                           basis=wrong)


def test_degree_one_directional_process_on_a_long_path():
    # the stack must hold 600 matrices, but only L^0 and L^1 are evaluated: the
    # padded powers up to L^599 (eigenvalues near 4) overflow, and inf * 0 is NaN
    L = matrices(standard_graph("path", 600)).L
    Hs = np.zeros((600, 2, 2))
    Hs[0] = [[1.0, 0.2], [0.0, 1.0]]
    Hs[1] = [[0.3, 0.0], [0.1, -0.2]]
    X = sample_directional(DirectionalProcess(1, Hs), L, 5, 40)
    Z = WhiteNoise2D(600, 2, 5).batch(40)
    assert np.array_equal(X, Z @ Hs[0] + (L @ Z) @ Hs[1])


def test_fgw_path_check_holds_on_a_320_x_320_product():
    # N = 102400 values, so 2 samples to a chunk; the probe margin B max ||z||_2 /
    # (PATH_AGREE_TOL scale) reads about 0.6 here against 1e-3 at 16 x 16, so the probes
    # still clear both chunks, and a larger product would send chunks to the exact route
    L = matrices(standard_graph("path", 320)).L
    b = stationarity.eigenbasis(L, "laplacian")
    proc = FgwProcess(kernel=PolyKernel2D(H=np.array([[1.0, 0.2, 0.01], [0.3, 0.05, 0.0]])))
    X = sample_fgw(proc, L, L, 3, 4, b1=b, b2=b)
    spectral = stationarity._fgw_chunks(proc, L, L, 3, 4, b1=b, b2=b).spectral
    S = spectral(WhiteNoise2D(320, 320, 3).batch(4))
    assert X.shape == (4, 320, 320)
    assert np.abs(X - S).max() <= stationarity.PATH_AGREE_TOL * max(1.0, np.abs(X).max())


def test_directional_construct_takes_a_square_root_of_a_singular_target(p3p4):
    # a rank-1 target has no Cholesky factor: the eigenvalue square root
    # must still give Htilde_k^T Htilde_k = Gamma_k^T
    _, _, b1, _ = p3p4
    v = np.array([1.0, -2.0, 0.5, 1.5])
    targets = np.stack([np.eye(4), np.outer(v, v), 2.0 * np.eye(4)])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(targets[1])
    halves = construct_directional_from_gamma(targets, b1).half_gains(b1)
    for half, target in zip(halves, targets):
        assert np.allclose(half.T @ half, target.T, atol=1e-10)


def test_directional_construct_rejects_an_asymmetric_target(p3p4):
    _, _, b1, _ = p3p4
    bad = np.stack([np.eye(4)] * 3)
    bad[2, 0, 1] = 0.5
    with pytest.raises(SamplingError, match="covariance target 2 is not symmetric"):
        construct_directional_from_gamma(bad, b1)
