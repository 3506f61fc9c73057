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
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, SpectrumError

TOL_ORTH = 1e-10
TOL_EIGPAIR = 1e-8
SIGN_EPS = 1e-9

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
        eigenvalue is verified to be 0 within 1e-10 and tiny negative
        round-off on the zero eigenvalue is clamped to exactly 0.

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
    scale = max(1.0, float(np.abs(m).max()))
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
        if abs(values[0]) > 1e-10:
            raise SpectrumError(
                f"laplacian eigenvalue 0 missing: smallest is {values[0]!r}"
            )
        # A PSD Laplacian's zero eigenvalues come out as +-eps round-off;
        # pin them so spectra and kernels see exactly 0.
        values[np.abs(values) <= 1e-10] = 0.0

    n = m.shape[0]
    gram = vectors.T @ vectors  # |U^T U - I|, in place
    gram.reshape(-1)[::n + 1] -= 1.0
    gram_err = np.abs(gram, out=gram).max()
    del gram
    if gram_err > TOL_ORTH:
        raise SpectrumError(f"eigenvectors not orthonormal: max error {gram_err:g}")
    resid = m @ vectors - vectors * values
    bound = TOL_EIGPAIR * np.maximum(1.0, np.abs(values))
    norms = np.linalg.norm(resid, axis=0)
    if np.any(norms > bound):
        k = int(np.argmax(norms - bound))
        raise SpectrumError(f"eigenpair {k} residual {norms[k]:g} exceeds tolerance")

    values.setflags(write=False)
    vectors.setflags(write=False)
    return EigenBasis(values=values, vectors=vectors, source=source)


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
