"""2-D graph spectral filtering and polynomial vertex-domain evaluation.

A kernel is a scalar response over frequency pairs. Responses are always
evaluated as functions of the eigenvalue annotations, never of eigenvector
indices, so coincident eigenvalues automatically receive equal responses
and filtering is basis-invariant inside degenerate eigenspaces.

Vertex-domain polynomial evaluation, here and in the stationarity samplers,
has one core: `_poly_apply`. Every polynomial evaluator runs only up to the
last nonzero coefficient (`_true_degree`), so zero padding costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import DimensionError, FormatError, KernelError
from .graphs import ProductGraph, _json_object, _read_text, hop_distances
from .spectral import EigenBasis
from .transforms import Signal2D, Spectrum2D, _check_shape, gft_2d, inverse_gft_2d

IMAG_RESIDUE_TOL = 1e-10

KernelFunc = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SpectralKernel2D:
    """Frequency-pair response map with a construction tag.

    `func` must accept broadcastable arrays of nonnegative frequencies and
    return the response array; `kind` is one of tabulated, polynomial,
    separable, sum-1d, heat.
    """

    kind: str
    func: KernelFunc

    def evaluate(self, lambdas1: np.ndarray, lambdas2: np.ndarray) -> np.ndarray:
        """Response matrix over the frequency grid lambdas1 x lambdas2."""
        resp = np.asarray(self.func(np.asarray(lambdas1)[:, None], np.asarray(lambdas2)[None, :]))
        resp = np.broadcast_to(resp, (len(lambdas1), len(lambdas2)))
        if not np.all(np.isfinite(resp)):
            k = np.argwhere(~np.isfinite(resp))[0]
            raise KernelError(
                f"kernel response not finite at frequency pair "
                f"({lambdas1[k[0]]!r}, {lambdas2[k[1]]!r})"
            )
        return resp


@dataclass(frozen=True)
class PolyKernel2D:
    """Bivariate polynomial kernel: response sum_{s1,s2} H[s1,s2] l1^s1 l2^s2."""

    H: np.ndarray  # (S1+1, S2+1) coefficient matrix

    def __post_init__(self):
        H = np.atleast_2d(np.asarray(self.H, dtype=np.float64))
        if not np.all(np.isfinite(H)):
            raise KernelError("polynomial coefficients must be finite")
        object.__setattr__(self, "H", H)

    @property
    def degrees(self) -> tuple[int, int]:
        return self.H.shape[0] - 1, self.H.shape[1] - 1

    def as_spectral(self) -> SpectralKernel2D:
        H = _true_degree(_true_degree(self.H, 0), 1)

        def func(l1, l2):
            p1 = np.power(l1[..., None], np.arange(H.shape[0]))  # (..., S1+1)
            p2 = np.power(l2[..., None], np.arange(H.shape[1]))
            return np.einsum("...s,st,...t->...", p1, H, p2)

        return SpectralKernel2D(kind="polynomial", func=func)


def tabulated_kernel(lambdas1: np.ndarray, lambdas2: np.ndarray, table: np.ndarray) -> SpectralKernel2D:
    """Kernel from an explicit response table keyed by distinct frequencies.

    The table is indexed by the *unique* values of each eigenvalue list, so
    repeated eigenvalues share one response by construction.
    """
    u1 = np.unique(np.asarray(lambdas1, dtype=np.float64))
    u2 = np.unique(np.asarray(lambdas2, dtype=np.float64))
    table = np.asarray(table)
    if table.shape != (len(u1), len(u2)):
        raise KernelError(
            f"table shape {table.shape} does not match {len(u1)} x {len(u2)} distinct frequencies"
        )

    def func(l1, l2):
        i1 = np.searchsorted(u1, l1)
        i2 = np.searchsorted(u2, l2)
        if np.any(i1 >= len(u1)) or np.any(u1[np.minimum(i1, len(u1) - 1)] != l1):
            raise KernelError("frequency along axis 1 not present in the table")
        if np.any(i2 >= len(u2)) or np.any(u2[np.minimum(i2, len(u2) - 1)] != l2):
            raise KernelError("frequency along axis 2 not present in the table")
        return table[i1, i2]

    return SpectralKernel2D(kind="tabulated", func=func)


def separable_kernel(h1: Callable[[np.ndarray], np.ndarray],
                     h2: Callable[[np.ndarray], np.ndarray]) -> SpectralKernel2D:
    """Product of two 1-D kernels, h1(l1) * h2(l2)."""
    return SpectralKernel2D(kind="separable", func=lambda l1, l2: h1(l1) * h2(l2))


def sum_1d_kernel(h: Callable[[np.ndarray], np.ndarray]) -> SpectralKernel2D:
    """1-D kernel acting on the product-graph sum frequency l1 + l2."""
    return SpectralKernel2D(kind="sum-1d", func=lambda l1, l2: h(l1 + l2))


def heat_kernel(tau1: float, tau2: float) -> SpectralKernel2D:
    """Anisotropic heat kernel exp(-tau1*l1 - tau2*l2)."""
    return SpectralKernel2D(kind="heat", func=lambda l1, l2: np.exp(-tau1 * l1 - tau2 * l2))


def _realify(out: np.ndarray, inputs_real: bool) -> np.ndarray:
    # Real signals through real kernels stay real; tiny imaginary residue
    # from a nominally-complex kernel is dropped rather than propagated.
    if inputs_real and np.iscomplexobj(out) and np.abs(out.imag).max() <= IMAG_RESIDUE_TOL:
        return out.real
    return out


def spectral_filter_2d(f: Signal2D, kernel: SpectralKernel2D,
                       b1: EigenBasis, b2: EigenBasis) -> Signal2D:
    """Pointwise spectral product: output spectrum = response * input spectrum.

    The result is returned in the vertex domain. With real input and a
    real-valued kernel the output is real; a complex kernel yields a
    complex output, except that an imaginary residue below 1e-10 is
    dropped.
    """
    s = gft_2d(f, b1, b2)
    resp = kernel.evaluate(s.lambdas1, s.lambdas2)
    out_spec = Spectrum2D(values=resp * s.values, lambdas1=s.lambdas1, lambdas2=s.lambdas2)
    out = inverse_gft_2d(out_spec, b1, b2)
    return _realify(out, not np.iscomplexobj(f))


def polynomial_filter_vertex(f: Signal2D, kernel: PolyKernel2D,
                             L1: np.ndarray, L2: np.ndarray) -> Signal2D:
    """Vertex-domain evaluation sum_{s1,s2} H[s1,s2] L1^s1 F L2^s2.

    Needs no eigendecomposition and agrees with the spectral path for the
    same polynomial kernel.
    """
    L1 = np.asarray(L1, dtype=np.float64)
    L2 = np.asarray(L2, dtype=np.float64)
    f = _check_shape(f, (L1.shape[0], L2.shape[0]), "signal", np.float64)
    return _poly_apply(L1, f, _right_stack(kernel.H, L2), axis=0)


def _true_degree(C: np.ndarray, axis: int) -> np.ndarray:
    """C without its trailing all-zero slices along `axis`; at least one slice stays.

    A skipped term is exactly +-0, or NaN where a padded power of L overflows.
    A loop that adds terms one at a time to a sum starting at +0.0 (`_poly_apply`)
    gives the same bits without them. A contraction inside BLAS (`_right_stack`)
    gives the bits of the unpadded coefficients, which may differ in the last
    place from the padded ones, since BLAS can pick its summation order by length.
    """
    C = np.asarray(C)
    nonzero = np.flatnonzero(C.any(axis=tuple(a for a in range(C.ndim) if a != axis)))
    count = nonzero[-1] + 1 if nonzero.size else 1
    return C[(slice(None),) * axis + (slice(count),)]


def _right_stack(H: np.ndarray, L2: np.ndarray) -> np.ndarray:
    """R[s1] = sum_{s2} H[s1, s2] L2^s2, stacked as (S1+1, n2, n2); powers of L2 are
    formed only up to the last nonzero column of H."""
    H = _true_degree(H, 1)
    pows = np.empty((H.shape[1],) + L2.shape)
    pows[0] = np.eye(L2.shape[0])
    for s in range(1, H.shape[1]):
        pows[s] = pows[s - 1] @ L2
    return np.tensordot(H, pows, axes=(1, 0))


def _poly_apply(L: np.ndarray, Z: np.ndarray, R: np.ndarray, axis: int) -> np.ndarray:
    """The polynomial core: sum_s L^s Z R[s] (axis 0) or sum_s R[s] Z L^s (axis 1).

    Z is one (n1, n2) signal or a (count, n1, n2) batch; powers of L are never formed,
    and the sum stops at the last nonzero R[s].
    """
    R = _true_degree(R, 0)
    X = Z @ R[0] if axis == 0 else R[0] @ Z
    X += 0.0  # the bits of a sum that starts at +0.0: a -0.0 term adds to +0.0
    for r in R[1:]:
        Z = L @ Z if axis == 0 else Z @ L
        X += Z @ r if axis == 0 else r @ Z
    return X


def filter_1d_kernel_on_product(f: Signal2D, h: Callable[[np.ndarray], np.ndarray],
                                b1: EigenBasis, b2: EigenBasis) -> Signal2D:
    """Filter with a 1-D kernel acting on the sum frequency l1 + l2."""
    return spectral_filter_2d(f, sum_1d_kernel(h), b1, b2)


def locality_neighborhood(pg: ProductGraph, kernel: PolyKernel2D,
                          vertex: tuple[int, int]) -> set[tuple[int, int]]:
    """Vertices a polynomial filter can propagate to from `vertex`.

    (j1, j2) belongs to the neighborhood iff its hop distances (t1 along
    the first factor, t2 along the second) satisfy t1 <= s1 and t2 <= s2
    for some nonzero coefficient H[s1, s2].
    """
    i1, i2 = vertex
    if not (0 <= i1 < pg.n1 and 0 <= i2 < pg.n2):
        raise DimensionError(f"vertex {vertex} out of range for ({pg.n1}, {pg.n2})")
    d1 = hop_distances(pg.g1, i1)
    d2 = hop_distances(pg.g2, i2)
    nz = np.argwhere(kernel.H != 0.0)
    if nz.size == 0:
        return set()
    # reach[t1] = max s2 over nonzero coefficients with s1 >= t1
    s1max = kernel.H.shape[0] - 1
    reach = np.full(s1max + 1, -1, dtype=np.int64)
    for s1, s2 in nz:
        reach[: s1 + 1] = np.maximum(reach[: s1 + 1], s2)
    out = set()
    for j1 in range(pg.n1):
        t1 = d1[j1]
        if t1 < 0 or t1 > s1max or reach[t1] < 0:
            continue
        for j2 in range(pg.n2):
            t2 = d2[j2]
            if 0 <= t2 <= reach[t1]:
                out.add((j1, j2))
    return out


def float_array(value, what: str) -> np.ndarray:
    """A JSON value as a float64 array; FormatError if it does not convert (e.g. ragged)."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} is not a numeric array: {exc}") from exc


def kernel_from_json(text: str) -> SpectralKernel2D | PolyKernel2D:
    """Parse the kernel specification file.

    Format: {"kind": ..., "coeffs": [[...]], "params": {...}} where
      polynomial: coeffs is the (S1+1) x (S2+1) coefficient matrix
                  (returned as PolyKernel2D),
      heat:       params has tau1 and tau2,
      separable:  coeffs is [c1, c2], two 1-D polynomial coefficient lists
                  in l1 and l2,
      sum-1d:     coeffs is one 1-D polynomial coefficient list in l1+l2.
    """
    payload = _json_object(text, "kernel", "kind")
    kind = payload["kind"]
    coeffs = payload.get("coeffs")
    params = payload.get("params", {})
    if kind == "polynomial":
        if coeffs is None:
            raise FormatError("polynomial kernel needs coeffs")
        return PolyKernel2D(H=float_array(coeffs, "polynomial coeffs"))
    if kind == "heat":
        try:
            return heat_kernel(float(params["tau1"]), float(params["tau2"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"heat kernel needs numeric params.tau1 and params.tau2: {exc}") from exc
    if kind == "separable":
        if not (isinstance(coeffs, list) and len(coeffs) == 2):
            raise FormatError("separable kernel needs coeffs = [c1, c2]")
        c1, c2 = (float_array(c, "separable coeffs") for c in coeffs)
        return separable_kernel(lambda l: np.polynomial.polynomial.polyval(l, c1),
                                lambda l: np.polynomial.polynomial.polyval(l, c2))
    if kind == "sum-1d":
        if coeffs is None:
            raise FormatError("sum-1d kernel needs coeffs")
        c = float_array(coeffs, "sum-1d coeffs")
        return sum_1d_kernel(lambda l: np.polynomial.polynomial.polyval(l, c))
    raise FormatError(f"unknown kernel kind {kind!r}")


def load_kernel(path: str | Path) -> SpectralKernel2D | PolyKernel2D:
    return kernel_from_json(_read_text(path))
