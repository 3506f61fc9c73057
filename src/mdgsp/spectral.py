"""Deterministic eigendecomposition of symmetric graph matrices.

All transforms in this package are built on `eigenbasis`, which pins an
ascending eigenvalue order (stable under ties) and a sign convention for
every eigenvector, so repeated runs produce identical bases on the same
numpy/BLAS build with the same BLAS thread count.

The thread count changes how `eigh` sums. Where the eigenvalues are
distinct that moves only the last bits of the basis (7.8e-14 on
path(1000), 1 against 2 OpenBLAS threads). Inside a degenerate eigenspace
the basis is whatever rotation the solver yields after sign-fixing, so
there it can move by O(1) (0.063 on cycle(1000)). Outputs that read single
entries depend on that rotation: spectrum CSV entries, the heatmap and
`eig --basis-out`. Pooled ones do not: the aggregate CSV, spectral
filters, the closed-form denoiser and variation totals. Multiplicity
bookkeeping is exposed so callers can compare such basis-invariant
quantities instead of raw entries.

The orthonormality and eigenpair checks are probabilistic: `_probe_bound`
bounds the norm of each error matrix from r = 10 Gaussian probes of a
fixed seed, wrong with probability 1e-10 per call, and only a bound over
its tolerance runs the exact O(n^3) checks, which alone may refuse.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, SpectrumError

TOL_ORTH = 1e-10
TOL_EIGPAIR = 1e-8
SIGN_EPS = 1e-9
_PROBES = 10  # the bound of `_probe_bound` fails with probability 10^-_PROBES
_PROBE_SEED = 20110501
_SPLITMIX64 = (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_PROBE_FACTOR = 10.0 * np.sqrt(2.0 / np.pi)

_MAGIC = b"MDGSPMAT"


@dataclass(frozen=True)
class EigenBasis:
    """Ascending eigenvalues plus the orthonormal eigenvector matrix.

    `vectors[:, k]` is the eigenvector of `values[k]`; `source` records
    whether the matrix was a Laplacian or an adjacency matrix.
    """

    values: np.ndarray
    vectors: np.ndarray
    source: str  # "laplacian" | "adjacency"

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class MultiplicityPartition:
    """Ordered index groups of numerically coincident eigenvalues."""

    groups: list[list[int]]


def eigenbasis(m: np.ndarray, source: str) -> EigenBasis:
    """Deterministic eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    m : (n, n) real symmetric matrix (checked to 1e-12 relative).
    source : "laplacian" or "adjacency"; for a Laplacian the smallest
        eigenvalue is verified to be 0 within 1e-10 s, and every
        eigenvalue within 1e-10 s of 0 (round-off on the zero eigenvalues)
        is clamped to exactly 0.

    With s = max(1, max |m|), every tolerance on the decomposition scales
    with the entries, as eigh's round-off does, so W -> c W keeps a valid
    Laplacian valid for any c > 0. The orthonormality check
    max |U^T U - I| <= TOL_ORTH and the residual check
    ||L u_k - lambda_k u_k||_2 <= TOL_EIGPAIR max(s, |lambda_k|) are
    first certified by `_probe_bound` from r = 10 Gaussian probes of the
    fixed seed _PROBE_SEED: a bound within tolerance on the norm of
    U^T U - I and of (LU - U Lambda) D^-1, D = diag(max(s, |lambda|)),
    implies both, except with probability 1e-10 per call. Only when a bound
    exceeds its tolerance do the exact checks run, and only they refuse.

    Raises
    ------
    SpectrumError on asymmetric or non-finite input, or if the computed
    decomposition fails its orthonormality / residual checks.
    """
    if source not in ("laplacian", "adjacency"):
        raise SpectrumError(f"unknown source tag {source!r}")
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpectrumError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SpectrumError("matrix has non-finite entries")
    scale = _entry_scale(m)
    if np.abs(m - m.T).max() > 1e-12 * scale:
        raise SpectrumError("matrix is not symmetric within 1e-12 relative tolerance")

    # eigh's values ascend, and both arrays are fresh and writable: edited in place below
    values, vectors = np.linalg.eigh(m)

    # Sign rule: first component with magnitude above SIGN_EPS is positive.
    cols = np.arange(vectors.shape[1])
    lead = vectors[np.argmax(np.abs(vectors) > SIGN_EPS, axis=0), cols]
    flip = (lead < 0) & (np.abs(lead) > SIGN_EPS)
    vectors[:, flip] = -vectors[:, flip]

    if source == "laplacian":
        zero = 1e-10 * scale
        if abs(values[0]) > zero:
            raise SpectrumError(
                f"laplacian eigenvalue 0 missing: smallest is {values[0]!r}"
            )
        # A PSD Laplacian's zero eigenvalues come out as +-eps round-off;
        # pin them so spectra and kernels see exactly 0.
        values[np.abs(values) <= zero] = 0.0

    # Probe certificate (see `_probe_bound`): with D = diag(max(scale, |lambda|)),
    # ||U^T U - I||_2 <= TOL_ORTH bounds every entry of U^T U - I and
    # ||(LU - U Lambda) D^-1||_2 <= TOL_EIGPAIR every scaled residual column, which are
    # the two exact criteria. One product P = U [W, D^-1 W, Lambda D^-1 W] serves both.
    d = np.maximum(scale, np.abs(values))[:, None]

    def errors(probes):
        w = probes.T
        P1, P2, P3 = np.hsplit(vectors @ np.hstack([w, w / d, w / d * values[:, None]]), 3)
        return np.stack([(vectors.T @ P1 - w).T, (m @ P2 - P3).T])

    orth, pair = _probe_bound(errors, (m.shape[0],))
    if not (orth <= TOL_ORTH and pair <= TOL_EIGPAIR):
        _check_eigenpairs(m, values, vectors)

    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenBasis(values=values, vectors=vectors, source=source)


def _entry_scale(m: np.ndarray) -> float:
    """max(1, max |m|): the scale of a matrix's round-off, which its tolerances follow."""
    return max(1.0, float(np.abs(m).max()))


def _check_eigenpairs(m: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> None:
    """The exact checks: max |U^T U - I| <= TOL_ORTH, and every residual column
    ||L u_k - lambda_k u_k||_2 <= TOL_EIGPAIR max(s, |lambda_k|), s = `_entry_scale(m)`."""
    n = m.shape[0]
    gram = vectors.T @ vectors  # |U^T U - I|, in place
    gram.reshape(-1)[::n + 1] -= 1.0
    gram_err = np.abs(gram, out=gram).max()
    del gram
    if gram_err > TOL_ORTH:
        raise SpectrumError(f"eigenvectors not orthonormal: max error {gram_err:g}")
    resid = m @ vectors - vectors * values
    bound = TOL_EIGPAIR * np.maximum(_entry_scale(m), np.abs(values))
    norms = np.linalg.norm(resid, axis=0)
    if np.any(norms > bound):
        k = int(np.argmax(norms - bound))
        raise SpectrumError(f"eigenpair {k} residual {norms[k]:g} exceeds tolerance")


def _probe_bound(apply: Callable[[np.ndarray], np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """Probabilistic upper bound on the spectral norm of square linear maps E.

    `apply` maps the stack of _PROBES standard Gaussian probes w_i, an array
    (_PROBES, *shape), to the stack of images E w_i of the same shape, or to
    k such stacks, (k, _PROBES, *shape), for k maps sharing the probes. The
    result, one value per map, is 10 sqrt(2/pi) max_i ||E w_i||_2, which is at
    least ||E||_2 except with probability 10^-_PROBES (Halko, Martinsson &
    Tropp 2011, eq. 4.3). The probes come from their own generator with the
    fixed seed _PROBE_SEED, so the bound repeats from run to run and no other
    random stream moves. A non-finite image gives a non-finite bound.
    """
    probes = _gaussian_probes((_PROBES, *shape))
    images = np.asarray(apply(probes))
    lead = images.shape[:images.ndim - len(shape) - 1]
    norms = np.linalg.norm(images.reshape(*lead, _PROBES, -1), axis=-1)
    return _PROBE_FACTOR * norms.max(axis=-1)


def _gaussian_probes(shape: tuple[int, ...]) -> np.ndarray:
    """Standard normals of `shape` from the fixed seed _PROBE_SEED: Box-Muller on the
    splitmix64 words of the counters that follow it.

    numpy.random is not used: a command that draws no noise would load it only for
    these, at 5.6 MB of resident memory.
    """
    size = int(np.prod(shape))
    golden, mix1, mix2 = _SPLITMIX64
    x = _PROBE_SEED + np.arange(1, 2 * size + 1, dtype=np.uint64) * golden  # wraps mod 2^64
    x = (x ^ (x >> 30)) * mix1
    x = (x ^ (x >> 27)) * mix2
    x ^= x >> 31
    x >>= 11  # 53-bit integers
    u = (x[:size] + 1) * 2.0**-53  # (0, 1]
    v = x[size:] * 2.0**-53  # [0, 1)
    return (np.sqrt(-2.0 * np.log(u)) * np.cos(2.0 * np.pi * v)).reshape(shape)


def default_tol_mult(values: np.ndarray) -> float:
    """Default coincidence tolerance, scaled to the largest eigenvalue."""
    return 1e-8 * max(1.0, float(np.max(np.abs(values))) if len(values) else 1.0)


def check_tol_mult(tol_mult: float) -> None:
    """Refuse a tolerance that is not finite and > 0: NaN or inf merges every value."""
    if not (np.isfinite(tol_mult) and tol_mult > 0):
        raise SpectrumError(f"tol_mult must be a finite number > 0, got {tol_mult}")


def multiplicity_partition(basis: EigenBasis, tol_mult: float | None = None) -> MultiplicityPartition:
    """Group eigenvalue indices whose values coincide within tol_mult.

    Groups are split wherever the gap between consecutive (ascending)
    eigenvalues exceeds tol_mult, so consecutive groups are separated by
    more than tol_mult. For clustered spectra with clean gaps this also
    bounds the within-group spread by tol_mult.
    """
    values = basis.values
    if tol_mult is None:
        tol_mult = default_tol_mult(values)
    check_tol_mult(tol_mult)
    return MultiplicityPartition(groups=partition_values(values, tol_mult))


def group_bounds(values: np.ndarray, tol_mult: float) -> tuple[np.ndarray, np.ndarray]:
    """Single-linkage grouping of an ascending value sequence, as arrays.

    A new group starts wherever the gap to the previous value exceeds
    tol_mult. Returns the start index and the size of every group.
    """
    values = np.asarray(values)
    starts = np.flatnonzero(np.diff(values) > tol_mult) + 1
    if len(values):
        starts = np.concatenate(([0], starts))
    sizes = np.diff(np.append(starts, len(values)))
    return starts, sizes


def partition_values(values: np.ndarray, tol_mult: float) -> list[list[int]]:
    """Single-linkage grouping of an ascending value sequence (`group_bounds`)."""
    starts, sizes = group_bounds(values, tol_mult)
    return [list(range(s, s + k)) for s, k in zip(starts.tolist(), sizes.tolist())]


def vandermonde(values: np.ndarray, ncols: int | None = None) -> np.ndarray:
    """Matrix of eigenvalue powers: entry (k, s) = values[k] ** s.

    By default square (s = 0..n-1); `ncols` truncates to lower-degree
    polynomial coefficients. 0**0 evaluates to 1.
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if ncols is None:
        ncols = n
    return np.power.outer(values, np.arange(ncols, dtype=np.float64))


def spectrum_to_csv(values: np.ndarray) -> str:
    """CSV (index, eigenvalue) with shortest round-trip float formatting."""
    from . import _floattext as ft  # on first use: see its docstring

    values = np.asarray(values, dtype=np.float64).ravel()
    return "index,eigenvalue\n" + "".join(ft.rows([np.arange(len(values)), values]))


def save_matrix(m: np.ndarray, path: str | Path) -> None:
    """Binary matrix file: magic 'MDGSPMAT', u32 rows, u32 cols, row-major f64.

    Integers and floats are little-endian; the header is exactly 16 bytes.
    """
    m = np.ascontiguousarray(m, dtype="<f8")
    if m.ndim != 2:
        raise FormatError(f"only 2-D matrices can be saved, got ndim={m.ndim}")
    with open(path, "wb") as out:
        out.write(_MAGIC + struct.pack("<II", m.shape[0], m.shape[1]))
        m.tofile(out)


def load_matrix(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != _MAGIC:
        raise FormatError(f"{path}: not a MDGSPMAT matrix file")
    rows, cols = struct.unpack("<II", raw[8:16])
    expected = 16 + 8 * rows * cols
    if len(raw) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(raw)}")
    return np.frombuffer(raw[16:], dtype="<f8").reshape(rows, cols).copy()
