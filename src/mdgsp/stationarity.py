"""Synthesis and testing of stationary random signals on product graphs.

Three constructions are provided: factor-graph-wise processes (a bivariate
polynomial filter in both factor Laplacians applied to white noise),
directional processes (polynomial in one factor Laplacian with arbitrary
matrix coefficients on the other index), and multivariate processes, which
are directional processes on the product with an edgeless graph.

Every sampler evaluates both its vertex-domain definition and its spectral
form and verifies they agree on every sample, so the simulated covariances
the diagnostic tests consume are backed by two independent code paths: the
polynomial core `filtering._poly_apply` and the basis core `transforms._analyze`.
The check is probabilistic: both routes are linear in the noise, so r = 10
Gaussian probe samples of a fixed seed bound the norm of their difference
(`spectral._probe_bound`, wrong with probability 1e-10 per batch), and only
a chunk that bound does not clear runs the spectral route for an exact gap.

Samples are drawn, filtered and checked in chunks of about `_CHUNK_VALUES`
values, and the tests accumulate their covariance chunk by chunk, so a
caller that consumes the chunks (the command line) holds O(chunk N + N^2)
memory whatever the sample count M is (N = n1 n2).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import DimensionError, SamplingError
from .filtering import PolyKernel2D, _poly_apply, _right_stack, _true_degree
from .spectral import EigenBasis, _probe_bound, default_tol_mult, eigenbasis, vandermonde
from .transforms import _analyze, _check_shape, _synthesize

PATH_AGREE_TOL = 1e-9
_ONE_BITS = np.uint64(0x3FF0000000000000)  # the bits of float 1.0
_CHUNK_WORDS = 1 << 14
_CHUNK_VALUES = 1 << 18  # values per chunk of samples: 1024 samples at 16x16


@dataclass(frozen=True)
class WhiteNoise2D:
    """Seeded white-noise source on a vertex grid.

    The bits come from a Philox counter-based generator keyed by
    `SeedSequence(seed)`. Sample i reads the b counter steps that follow
    counter i*b, with b = ceil(n1*n2 / 4) because each step yields 4 words,
    so any sample or any batch is reproducible regardless of generation
    order, and `sample(i)` equals row i of `batch(count)` bit for bit at
    O(1) cost. Every value takes a fixed number of words: Gaussian values
    come in Box-Muller pairs, one word per uniform, where words j and h+j
    of the sample's 4b-word block (h = 2b, half the block) give values j
    and h+j (`_box_muller`); a Rademacher value is the sign of one word's
    top bit. Values past n1*n2 are dropped. Drawing the pairs from
    contiguous halves left this stream as it was, bit for bit.
    """

    n1: int
    n2: int
    seed: int
    distribution: str = "gaussian"  # or "rademacher"

    def __post_init__(self):
        if self.seed < 0:
            raise SamplingError("seed must be nonnegative")
        if self.distribution not in ("gaussian", "rademacher"):
            raise SamplingError(f"unknown noise distribution {self.distribution!r}")

    def _draw(self, first: int, count: int) -> np.ndarray:
        n = self.n1 * self.n2
        blocks = -(-n // 4)  # Philox counter steps per sample
        width = 4 * blocks
        key = np.random.SeedSequence(self.seed).generate_state(2, np.uint64)
        bits = np.random.Philox(key=key, counter=first * blocks)
        out = np.empty((count, n))
        # cache-sized pieces draw ~1.6x faster than one pass of 2^18 words; same bits
        rows = max(1, _CHUNK_WORDS // width)
        for start in range(0, count, rows):
            stop = min(start + rows, count)
            words = bits.random_raw((stop - start) * width).reshape(stop - start, width)
            if self.distribution == "gaussian":
                _box_muller(words, out[start:stop])
            else:
                out[start:stop] = (words >> 63)[:, :n]
        if self.distribution == "rademacher":
            out *= 2.0
            out -= 1.0
        return out.reshape(count, self.n1, self.n2)

    def sample(self, index: int) -> np.ndarray:
        if index < 0:
            raise SamplingError("sample index must be nonnegative")
        return self._draw(index, 1)[0]

    def batch(self, count: int) -> np.ndarray:
        if count < 1:
            raise SamplingError("sample count must be positive")
        return self._draw(0, count)


def _box_muller(words: np.ndarray, out: np.ndarray) -> None:
    """Standard normals from rows of 64-bit words, written to the n columns of `out`.

    Each row is one sample's 4 ceil(n1 n2 / 4)-word block; with h half the
    row length, words j and h+j give the 52-bit uniforms u in (0, 1] and v in
    [0, 1), and values j and h+j are r cos(theta) and r sin(theta), with
    r = sqrt(-2 log u), theta = 2 phi and phi = pi (v - 1/2); `out` takes the
    first n <= 2h values. The half-angle forms cos(theta) = 2 / (1 + t^2) - 1
    and sin(theta) = 2 t / (1 + t^2), t = tan(phi), need no cos or sin call.

    The words are shifted once into two contiguous halves, every u word and
    every v word, so that each step runs on contiguous memory, and the last
    steps write into `out`. The pairing and the sequence of operations are
    those of the earlier form on half-row views, so the stream is unchanged
    bit for bit (tests/test_core_bytes.py keeps that form as its oracle).
    """
    rows, width = words.shape
    h, n = width // 2, out.shape[1]
    uv = np.empty((2, rows, h), np.uint64)
    np.right_shift(words.reshape(rows, 2, h).transpose(1, 0, 2), 12, out=uv)
    uv |= _ONE_BITS  # 52 random mantissa bits under 1.0's exponent: [1, 2)
    r, t = uv.view(np.float64)
    np.subtract(2.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t -= 1.5
    t *= np.pi
    np.tan(t, out=t)
    half = t * t
    half += 1.0
    np.divide(r, half, out=half)  # r / (1 + t^2)
    t *= half
    half *= 2.0
    k = min(n, h)
    np.subtract(half[:, :k], r[:, :k], out=out[:, :k])
    np.multiply(t[:, :n - k], 2.0, out=out[:, k:])


@dataclass(frozen=True)
class FgwProcess:
    """Factor-graph-wise stationary process defined by a 2-D polynomial kernel."""

    kernel: PolyKernel2D

    def gains(self, b1: EigenBasis, b2: EigenBasis) -> np.ndarray:
        """Per-frequency spectral gain matrix Psi1 H Psi2^T, to the true degrees of H."""
        H = _true_degree(_true_degree(self.kernel.H, 0), 1)
        psi1 = vandermonde(b1.values, H.shape[0])
        psi2 = vandermonde(b2.values, H.shape[1])
        return psi1 @ H @ psi2.T


@dataclass(frozen=True)
class DirectionalProcess:
    """Directionally stationary process: polynomial along one factor.

    For direction 1 the coefficients are n1 matrices of size n2 x n2 in
    X = sum_s L1^s Z H_s; for direction 2 they are n2 matrices of size
    n1 x n1 in X = sum_s H_s Z L2^s.
    """

    direction: int
    Hs: np.ndarray  # (count, k, k) stack of coefficient matrices

    def __post_init__(self):
        Hs = np.asarray(self.Hs, dtype=np.float64)
        if Hs.ndim != 3 or Hs.shape[1] != Hs.shape[2]:
            raise SamplingError(f"coefficient stack must be (count, k, k), got {Hs.shape}")
        _check_direction(self.direction)
        object.__setattr__(self, "Hs", Hs)

    def half_gains(self, basis: EigenBasis) -> np.ndarray:
        """Stack of per-frequency matrices Htilde_k = sum_s lambda_k^s H_s, summed only
        up to the last nonzero H_s."""
        Hs = _true_degree(self.Hs, 0)
        psi = vandermonde(basis.values, Hs.shape[0])
        return np.tensordot(psi, Hs, axes=(1, 0))  # (n, k, k)


@dataclass(frozen=True)
class CovTensor:
    """Empirical 4-index covariance of 2-D sample matrices."""

    values: np.ndarray  # (n1, n2, n1, n2)
    m: int

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape[:2]

    def as_matrix(self) -> np.ndarray:
        n1, n2 = self.shape
        return self.values.reshape(n1 * n2, n1 * n2)


@dataclass(frozen=True)
class DiagnosticReport:
    """Normalized test statistic with its threshold and verdict.

    Composite tests carry their parts in `sub`; the composite statistic is
    the worst sub-statistic and the verdict requires every part to pass.
    """

    name: str
    statistic: float
    threshold: float
    verdict: bool
    m: int | None = None
    vacuous: bool = False
    sub: tuple["DiagnosticReport", ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "verdict": "pass" if self.verdict else "fail",
        }
        if self.m is not None:
            d["samples"] = self.m
        if self.vacuous:
            d["vacuous"] = True
        if self.sub:
            d["sub"] = [r.to_dict() for r in self.sub]
        return d


def default_mc_tol(m: int) -> float:
    """Default Monte-Carlo threshold for normalized off-diagonal statistics."""
    return 5.0 / np.sqrt(m)


def _check_direction(direction: int) -> None:
    if direction not in (1, 2):
        raise SamplingError(f"direction must be 1 or 2, got {direction}")


def _chunk_rows(n: int) -> int:
    """Samples of n values each in one chunk."""
    return max(1, _CHUNK_VALUES // n)


def _row_chunks(batch: np.ndarray) -> Iterator[np.ndarray]:
    """Consecutive views of a (M, n1, n2) batch, one chunk of samples each."""
    rows = _chunk_rows(batch.shape[1] * batch.shape[2])
    return (batch[first:first + rows] for first in range(0, len(batch), rows))


@dataclass(frozen=True)
class _SampleChunks:
    """The `count` samples of one sampler, produced one chunk at a time.

    Iterating draws each chunk of noise Z with `noise._draw`, so the chunks
    are the rows of the whole batch bit for bit, and yields `vertex(Z)`.
    `spectral(Z)` must agree with it to PATH_AGREE_TOL times the largest
    sample magnitude (at least 1) of the whole batch: the running maxima of
    the error and of that scale are compared after the last chunk, which is
    when the iteration raises. A non-finite value in either route fails the
    check at its chunk, since no tolerance can hold it.

    The check is probabilistic. Before the first chunk, `_probe_bound` runs
    both routes on r = 10 Gaussian probe samples of a fixed seed and bounds
    ||vertex - spectral||_2 by B, except with probability 1e-10 per batch.
    A chunk whose noise rows z all have B ||z||_2 <= PATH_AGREE_TOL times
    the running scale cannot fail the final comparison, as the scale only
    grows, and skips `spectral(Z)`; every other chunk, and every chunk when
    B is not finite, runs the exact gap.

    The chunks also carry their process's test: `spectra` maps a chunk of
    samples to the spectra whose covariance must be diagonal, and
    `directions` selects the reports of `_split_reports` (see `test`).
    """

    noise: WhiteNoise2D
    count: int
    vertex: Callable[[np.ndarray], np.ndarray]
    spectral: Callable[[np.ndarray], np.ndarray]
    what: str
    spectra: Callable[[np.ndarray], np.ndarray]
    directions: tuple[int, ...]

    def __post_init__(self):
        if self.count < 1:
            raise SamplingError("sample count must be positive")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.count, self.noise.n1, self.noise.n2)

    def __iter__(self) -> Iterator[np.ndarray]:
        rows = _chunk_rows(self.noise.n1 * self.noise.n2)
        # both routes are linear in Z, so |X - S| <= bound ||z||_2 per sample
        bound = float(_probe_bound(lambda W: self.vertex(W) - self.spectral(W),
                                   (self.noise.n1, self.noise.n2)))
        err, scale = 0.0, 1.0
        for first in range(0, self.count, rows):
            Z = self.noise._draw(first, min(rows, self.count - first))
            X = self.vertex(Z)
            size = float(max(X.max(), -X.min()))
            scale, gap = max(scale, size), 0.0
            # the scale only grows, so a chunk that passes here passes at the end; a
            # non-finite bound passes no chunk
            if not bound * np.sqrt(np.einsum("mij,mij->m", Z, Z).max()) <= PATH_AGREE_TOL * scale:
                gap = float(np.abs(X - self.spectral(Z)).max())
            if not (np.isfinite(size) and np.isfinite(gap)):
                raise SamplingError(f"{self.what}: samples are not finite (inf or NaN)")
            err = max(err, gap)
            yield X
        if err > PATH_AGREE_TOL * scale:
            raise SamplingError(f"{self.what}: vertex and spectral paths disagree by {err:g}")

    def array(self) -> np.ndarray:
        out = np.empty(self.shape)
        first = 0
        for X in self:
            out[first:first + len(X)] = X
            first += len(X)
        return out

    def test(self, tol: float | None,
             sink: Callable[[np.ndarray], None]) -> tuple[DiagnosticReport, ...]:
        """`_test_chunks` of these chunks, each also handed to `sink`: the fgw test and
        both directional tests for fgw, one directional test otherwise. A sample
        count that cannot meet `tol` raises before the first draw."""
        return _test_chunks(self, self.count, self.spectra, tol, self.directions, sink)


def _fgw_chunks(proc: FgwProcess, L1: np.ndarray, L2: np.ndarray, seed: int, count: int,
                distribution: str = "gaussian",
                b1: EigenBasis | None = None, b2: EigenBasis | None = None) -> _SampleChunks:
    """`sample_fgw`'s samples in chunks; its arguments are checked here, before any draw."""
    L1 = np.asarray(L1, dtype=np.float64)
    L2 = np.asarray(L2, dtype=np.float64)
    n1, n2 = L1.shape[0], L2.shape[0]
    H = proc.kernel.H
    if H.shape[0] > n1 or H.shape[1] > n2:
        raise SamplingError(
            f"kernel degrees {proc.kernel.degrees} exceed factor sizes ({n1 - 1}, {n2 - 1})"
        )
    noise = WhiteNoise2D(n1, n2, seed, distribution)
    R = _right_stack(H, L2)
    if b1 is None:
        b1 = eigenbasis(L1, "laplacian")
    if b2 is None:
        b2 = eigenbasis(L2, "laplacian")
    gains = proc.gains(b1, b2)
    spectra = partial(spectra_of, b1=b1, b2=b2)

    def spectral(Z):
        return _synthesize(_synthesize(gains * spectra(Z), b1, 1), b2, 2)

    return _SampleChunks(noise, count, lambda Z: _poly_apply(L1, Z, R, axis=0), spectral,
                         "factor-graph-wise sampler", spectra, (1, 2))


def sample_fgw(proc: FgwProcess, L1: np.ndarray, L2: np.ndarray, seed: int, count: int,
               distribution: str = "gaussian",
               b1: EigenBasis | None = None, b2: EigenBasis | None = None) -> np.ndarray:
    """Draw samples X = sum_{s1,s2} H[s1,s2] L1^s1 Z L2^s2 with fresh noise Z.

    Returns the (count, n1, n2) array of samples. The samples must agree to
    1e-9 with the spectral route (gain times noise spectrum); the check is
    probabilistic (see `_SampleChunks`): a bound from r = 10 probe samples
    of a fixed seed, wrong with probability 1e-10, clears the chunks it can,
    and the rest are synthesized through the spectral route and compared
    exactly. Degree bounds are checked against the factor sizes. `b1`/`b2`
    are the Laplacian eigenbases of L1 and L2, if already computed; only
    that check uses them.
    """
    return _fgw_chunks(proc, L1, L2, seed, count, distribution, b1, b2).array()


def construct_H_from_gamma(Gamma: np.ndarray, b1: EigenBasis, b2: EigenBasis) -> FgwProcess:
    """Kernel whose process has the prescribed spectral variances Gamma.

    Solves Psi1 H Psi2^T = sqrt(Gamma), which requires both factor spectra
    to be distinct (otherwise the power matrices are singular) and Gamma
    to be entrywise nonnegative.
    """
    Gamma = _check_shape(Gamma, (b1.n, b2.n), "Gamma", np.float64)
    if np.any(Gamma < 0):
        raise SamplingError("Gamma must be entrywise nonnegative")
    _require_distinct(b1.values, "first factor")
    _require_distinct(b2.values, "second factor")
    psi1 = vandermonde(b1.values)
    psi2 = vandermonde(b2.values)
    A = np.linalg.solve(psi1, np.sqrt(Gamma))
    H = np.linalg.solve(psi2, A.T).T
    return FgwProcess(kernel=PolyKernel2D(H=H))


def _require_distinct(values: np.ndarray, what: str) -> None:
    gaps = np.diff(values)
    if len(values) > 1 and gaps.min() <= default_tol_mult(values):
        raise SamplingError(f"{what} spectrum has repeated eigenvalues (min gap {gaps.min():g})")


def _directional_chunks(proc: DirectionalProcess, L: np.ndarray, seed: int, count: int,
                        n_other: int | None = None, distribution: str = "gaussian",
                        basis: EigenBasis | None = None) -> _SampleChunks:
    """`sample_directional`'s samples in chunks; its arguments are checked here."""
    L = np.asarray(L, dtype=np.float64)
    n = L.shape[0]
    Hs = proc.Hs
    if Hs.shape[0] != n:
        raise SamplingError(f"need exactly {n} coefficient matrices, got {Hs.shape[0]}")
    k = Hs.shape[1]
    if n_other is not None and n_other != k:
        raise DimensionError(f"coefficient matrices are {k} x {k}, expected {n_other}")

    d = proc.direction
    noise = WhiteNoise2D(*((n, k) if d == 1 else (k, n)), seed, distribution)
    if basis is None:
        basis = eigenbasis(L, "laplacian")
    # Xt[:, k] = Zt[:, k] @ Htilde_k (direction 1) or Htilde_k @ Zt[:, :, k] (direction 2)
    subscripts = "mki,kij->mkj" if d == 1 else "mjk,kij->mik"
    gains = proc.half_gains(basis)
    spectra = partial(half_spectra_of, basis=basis, direction=d)

    def spectral(Z):
        return _synthesize(np.einsum(subscripts, spectra(Z), gains, optimize=True), basis, d)

    return _SampleChunks(noise, count, lambda Z: _poly_apply(L, Z, Hs, axis=d - 1), spectral,
                         "directional sampler", spectra, (d,))


def sample_directional(proc: DirectionalProcess, L: np.ndarray, seed: int, count: int,
                       n_other: int | None = None, distribution: str = "gaussian",
                       basis: EigenBasis | None = None) -> np.ndarray:
    """Draw directionally stationary samples as one (count, n1, n2) array.

    `L` is the Laplacian of the factor the process is polynomial in; the
    coefficient matrices act on the other index, whose size is taken from
    them. The half-spectral form (transform along the polynomial factor
    only) must match per sample; the check is probabilistic (see
    `_SampleChunks`): a bound from r = 10 probe samples of a fixed seed,
    wrong with probability 1e-10, clears the chunks it can, and the rest run
    the half-spectral form for an exact comparison. `basis` is the
    eigenbasis of `L`, if already computed, and only that check uses it.
    """
    return _directional_chunks(proc, L, seed, count, n_other, distribution, basis).array()


def construct_directional_from_gamma(Gammas, basis: EigenBasis,
                                     direction: int = 1) -> DirectionalProcess:
    """Directional process realizing per-frequency covariances Gamma_k.

    Each Gamma_k must be symmetric positive-semidefinite; a square-root
    factor Htilde_k with Htilde_k^H Htilde_k = Gamma_k^T is taken (Cholesky
    when definite, an eigenvalue square root otherwise) and the polynomial
    coefficients are recovered by inverting the eigenvalue-power matrix,
    which requires a distinct spectrum.
    """
    Gammas = np.asarray(Gammas, dtype=np.float64)
    if Gammas.ndim != 3 or Gammas.shape[0] != basis.n or Gammas.shape[1] != Gammas.shape[2]:
        raise DimensionError(
            f"expected {basis.n} square covariance targets, got shape {Gammas.shape}"
        )
    _require_distinct(basis.values, "factor")
    halves = np.empty_like(Gammas)
    for idx, G in enumerate(Gammas):
        scale = max(1.0, float(np.abs(G).max()))
        if np.abs(G - G.T).max() > 1e-10 * scale:
            raise SamplingError(f"covariance target {idx} is not symmetric")
        try:
            halves[idx] = np.linalg.cholesky(G.T).T
        except np.linalg.LinAlgError:
            w, v = np.linalg.eigh(G.T)
            if w.min() < -1e-10 * scale:
                raise SamplingError(
                    f"covariance target {idx} is not positive-semidefinite "
                    f"(eigenvalue {w.min():g})"
                ) from None
            halves[idx] = np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.T
    psi = vandermonde(basis.values)
    k = Gammas.shape[1]
    Hs = np.linalg.solve(psi, halves.reshape(basis.n, k * k)).reshape(basis.n, k, k)
    return DirectionalProcess(direction=direction, Hs=Hs)


def sample_multivariate(Hs, L: np.ndarray, seed: int, count: int, distribution: str = "gaussian",
                        basis: EigenBasis | None = None) -> np.ndarray:
    """Draw p-variate stationary samples X = sum_s L^s Z H_s as a (count, n, p) array.

    A p-variate signal on a graph is a 2-D signal on the product with the
    p-vertex edgeless graph, so this is exactly direction-1 directional
    sampling and shares its code path (and noise stream) bit for bit.
    """
    proc = DirectionalProcess(direction=1, Hs=np.asarray(Hs, dtype=np.float64))
    return sample_directional(proc, L, seed, count, distribution=distribution, basis=basis)


def spectra_of(samples, b1: EigenBasis, b2: EigenBasis) -> np.ndarray:
    """2-D spectra of a stack of samples, as one (M, n1, n2) array."""
    return _analyze(_analyze(_check_shape(samples, (None, b1.n, b2.n), "samples"), b1, 1), b2, 2)


def half_spectra_of(samples, basis: EigenBasis, direction: int) -> np.ndarray:
    """Transform each sample along one factor only (direction 1 or 2)."""
    _check_direction(direction)
    shape = (None, basis.n, None) if direction == 1 else (None, None, basis.n)
    return _analyze(_check_shape(samples, shape, "samples"), basis, direction)


class _CovAccumulator:
    """Mean-subtracted covariance of 2-D samples that arrive in chunks.

    With K the mean of the first chunk and d = x - K per sample, it keeps
    the count M, s = sum d and G = sum d d^H (entry [k, l] = sum d_k
    conj(d_l)), so memory is O(N^2) whatever M is. The covariance is
    (G - s s^H / M) / (M - 1); the shift keeps s small, so the correction
    loses nothing to cancellation.
    """

    def __init__(self):
        self.m = 0

    def add(self, chunk: np.ndarray) -> None:
        flat = chunk.reshape(len(chunk), -1)
        if self.m == 0:
            self.shape = chunk.shape[1:]
            self.shift = flat.mean(axis=0)
        d = flat - self.shift
        s, G = d.sum(axis=0), d.T @ d.conj()
        if self.m:
            self.s += s
            self.G += G
        else:
            self.s, self.G = s, G
        self.m += len(d)

    def covariance(self) -> CovTensor:
        m = self.m
        if m < 2:
            raise SamplingError(f"need at least 2 samples, got {m}")
        cov = (self.G - np.outer(self.s, self.s.conj()) / m) / (m - 1)
        return CovTensor(values=cov.reshape(self.shape * 2), m=m)


def estimate_cov(samples) -> CovTensor:
    """Mean-subtracted empirical covariance of 2-D sample matrices.

    Entry [k1, k2, l1, l2] is Cov(x[k1, k2], x[l1, l2]) over the sample
    set; Hermitian symmetry holds by construction.
    """
    acc = _CovAccumulator()
    for chunk in _row_chunks(_check_shape(samples, (None, None, None), "samples")):
        acc.add(chunk)
    return acc.covariance()


def max_offdiag_correlation(cov: CovTensor) -> float:
    """Largest normalized off-diagonal magnitude of the flattened covariance."""
    c = cov.as_matrix()
    d = np.abs(np.diag(c)).real
    floor = 1e-12 * max(float(d.max()), 1e-300)
    denom = np.sqrt(np.outer(np.maximum(d, floor), np.maximum(d, floor)))
    ratio = np.abs(c) / denom
    np.fill_diagonal(ratio, 0.0)
    return float(ratio.max())


def _mc_tol(m: int, tol: float | None) -> float:
    """The threshold a test of M samples uses: `tol`, or 5/sqrt(M) for None.

    Raises when `tol` is given but is not a finite number > 0, when M < 2, or
    when 5/sqrt(M) exceeds `tol`, which M samples cannot resolve; all are known
    before any sample is drawn.
    """
    if tol is not None and not 0 < tol < np.inf:
        raise SamplingError(f"tol must be a finite number > 0, got {tol}")
    if m < 2:
        raise SamplingError(f"need at least 2 samples, got {m}")
    if tol is None:
        return default_mc_tol(m)
    if default_mc_tol(m) > tol:
        raise SamplingError(
            f"insufficient samples: 5/sqrt({m}) = {default_mc_tol(m):.4g} exceeds tol {tol}")
    return tol


def _split_reports(cov: CovTensor, tol: float,
                   directions: tuple[int, ...] = (1, 2)) -> tuple[DiagnosticReport, ...]:
    """Reports at threshold `tol` (see `_mc_tol`) from one energy split of a spectral
    covariance C of M = `cov.m` samples.

    C is the covariance of the samples transformed along both factors
    (`spectra_of`; the fgw report comes first, then one per direction) or
    along the one tested factor (`half_spectra_of`; one report per
    direction given). Each statistic is sqrt(E_part / E_total): E_total =
    sum |C[k, l]|^2, and E_part sums one region of index pairs
    k = (k1, k2), l = (l1, l2); direction d is the region k_d != l_d. A
    zero C makes every report a vacuous pass with statistic 0; a non-finite
    E_total (samples with inf or NaN, or too large to square) raises.
    """
    m = cov.m
    energy = np.abs(cov.values) ** 2  # (k1, k2, l1, l2)
    n1, n2 = energy.shape[:2]
    i1, i2 = np.arange(n1), np.arange(n2)
    total = float(energy.sum())
    if not np.isfinite(total):
        raise SamplingError(f"covariance energy of {m} samples is not finite ({total})")
    # disjoint regions, each summed on its own so no energy is a difference
    same1 = energy[i1, :, i1, :]  # k1 = l1 blocks, a copy
    same1[:, i2, i2] = 0.0
    only2 = float(same1.sum())  # k1 = l1, k2 != l2
    energy[i1, :, i1, :] = 0.0
    differ1 = float(energy.sum())  # k1 != l1
    energy[:, i2, :, i2] = 0.0
    both = float(energy.sum())  # k1 != l1 and k2 != l2
    differ = {1: differ1, 2: both + only2}

    def report(name, part):
        stat = float(np.sqrt(part / total)) if total else 0.0
        return DiagnosticReport(name=name, statistic=stat, threshold=tol, verdict=stat <= tol,
                                m=m, vacuous=not total)

    def composite(name, parts, extra=()):
        return DiagnosticReport(name=name, statistic=max(r.statistic for r in parts),
                                threshold=tol, verdict=all(r.verdict for r in parts), m=m,
                                vacuous=not total, sub=parts + extra)

    directional = tuple(
        composite(f"directional_stationarity_g{d}",
                  (report("condition1_slice_simdiag", differ[d]),
                   report("condition2_cross_frequency_blocks", differ[d])))
        for d in directions)
    if directions != (1, 2):
        return directional
    conditions = (
        report("condition1_slice_simdiag", max(differ.values())),
        report("condition2_spectral_uncorrelated", differ1 + only2),
        report("condition3_product_simdiag", differ1 + only2),
    )
    agree = len({r.verdict for r in conditions}) == 1
    fgw = composite("fgw_stationarity" + ("" if agree else " (conditions disagree)"),
                    conditions, (report("condition2_literal_both_differ", both),))
    return (fgw,) + directional


def _test_chunks(chunks: Iterable[np.ndarray], count: int, spectra: Callable,
                 tol: float | None, directions: tuple[int, ...], sink: Callable | None = None
                 ) -> tuple[DiagnosticReport, ...]:
    """The streaming stationarity test of `count` samples: the threshold comes first
    (`_mc_tol`, so a count that cannot meet `tol` raises before any chunk), then each
    chunk goes to `sink` (if given) and its `spectra` join one covariance, which
    `_split_reports` splits."""
    tol = _mc_tol(count, tol)
    acc = _CovAccumulator()
    for X in chunks:
        if sink is not None:
            sink(X)
        acc.add(spectra(X))
    return _split_reports(acc.covariance(), tol, directions)


def test_fgw_stationarity(samples, b1: EigenBasis, b2: EigenBasis,
                          tol: float | None = None) -> DiagnosticReport:
    """Empirical check of the three equivalent factor-graph-wise conditions.

    All statistics are energy regions of one spectral covariance C (see
    `_split_reports`). Condition 1 (slice covariances diagonalized per
    factor) is the larger of the regions k1 != l1 and k2 != l2. Conditions
    2 (uncorrelated spectrum) and 3 (the product basis diagonalizes the
    vertex covariance) are both k != l, as C is that covariance rotated by
    the product basis. The literal reading of condition 2, k1 != l1 and
    k2 != l2, is reported but not part of the verdict. `tol=None` means
    5/sqrt(M).
    """
    batch = _check_shape(samples, (None, b1.n, b2.n), "samples")
    return _test_chunks(_row_chunks(batch), len(batch), lambda X: spectra_of(X, b1, b2),
                        tol, (1, 2))[0]


def test_directional_stationarity(samples, direction: int, basis: EigenBasis,
                                  tol: float | None = None) -> DiagnosticReport:
    """Empirical check of directional stationarity along one factor.

    The statistic is sqrt(E_part / E_total) on the covariance of the spectra
    along that factor only, E_part being the energy between different
    frequencies of the factor (see `_split_reports`). Sub-tests 1 (pooled
    slice covariances rotated by the factor basis) and 2 (cross-frequency
    blocks) are this one quantity. `tol=None` means 5/sqrt(M).
    """
    _check_direction(direction)
    batch = _check_shape(samples, (None, None, None), "samples")
    return _test_chunks(_row_chunks(batch), len(batch),
                        lambda X: half_spectra_of(X, basis, direction), tol, (direction,))[0]
