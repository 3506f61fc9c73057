"""Graph gradients and directional variation of 2-D graph signals.

The total variation along one factor direction is computed three ways
(edge-wise weighted differences through the factor's incidence operator,
the trace form, and the spectral sum) and the report keeps the
vertex/spectral residual so smoothness claims stay machine-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, MdgspError
from .graphs import Graph, matrices
from .spectral import EigenBasis, eigenbasis
from .transforms import Spectrum2D, _check_shape, gft_2d

AGREE_RTOL = 1e-8


@dataclass(frozen=True)
class DirectionalVariationReport:
    direction: int
    local: np.ndarray  # (n1, n2) local variation at each vertex
    total: float  # edge-sum definition
    trace_total: float  # tr(F^T L1 F) or tr(F L2 F^T)
    spectral_total: float  # sum_k lambda_k * slice power
    residual: float  # |total - spectral_total| / max(1, total)


def graph_gradient(f: np.ndarray, g: Graph, i: int) -> np.ndarray:
    """Gradient of f at vertex i: component j is sqrt(w(i,j)) * (f(j) - f(i))."""
    f = _check_shape(f, (g.n,), "signal", np.float64)
    if not (0 <= i < g.n):
        raise DimensionError(f"vertex {i} out of range for n={g.n}")
    return np.sqrt(g.w[i]) * (f - f[i])


def local_directional_variation(f: np.ndarray, g1: Graph, g2: Graph, direction: int,
                                vertex: tuple[int, int]) -> float:
    """Euclidean norm of the direction-n gradient components at one vertex."""
    local = local_variation_matrix(f, g1, g2, direction)
    i1, i2 = vertex
    if not (0 <= i1 < g1.n and 0 <= i2 < g2.n):
        raise DimensionError(f"vertex {vertex} out of range for ({g1.n}, {g2.n})")
    return float(local[i1, i2])


def local_variation_matrix(f: np.ndarray, g1: Graph, g2: Graph, direction: int) -> np.ndarray:
    """Local directional variation at every vertex, as an n1 x n2 matrix.

    Along direction 1, sq[i1, i2] = sum_j1 w1(i1, j1) (f(j1, i2) - f(i1, i2))^2,
    which is |D1|^T (w1 (D1 f)^2): each edge's weighted squared difference
    lands on both of its endpoints.
    """
    f = _check_shape(f, (g1.n, g2.n), "signal", np.float64)
    if direction not in (1, 2):
        raise DimensionError(f"direction must be 1 or 2, got {direction}")
    d = (g1 if direction == 1 else g2).incidence
    axis = direction - 1
    return np.sqrt(d.abs_adjoint(d.weigh(d.apply(f, axis) ** 2, axis), axis))


def total_directional_variation(f: np.ndarray, g1: Graph, g2: Graph, direction: int,
                                b1: EigenBasis | None = None,
                                b2: EigenBasis | None = None,
                                spectrum: Spectrum2D | None = None) -> DirectionalVariationReport:
    """Total variation of f along one factor, verified along three routes.

    The edge-wise definition, the trace form, and the spectral decomposition
    are all evaluated; a residual above 1e-8 relative indicates a broken
    basis or mismatched graph and raises. Only the tested factor's Laplacian
    is built for the trace form. `spectrum`, if given, is `gft_2d(f, b1, b2)`,
    so a caller testing both directions transforms f once; without it the
    bases that are not given are computed.
    """
    local = local_variation_matrix(f, g1, g2, direction)
    total = 0.5 * float(np.sum(local**2))

    L = matrices(g1 if direction == 1 else g2).L
    if direction == 1:
        trace_total = float(np.trace(f.T @ L @ f))
    else:
        trace_total = float(np.trace(f @ L @ f.T))

    if spectrum is None:
        if b1 is None:
            b1 = eigenbasis(L if direction == 1 else matrices(g1).L, "laplacian")
        if b2 is None:
            b2 = eigenbasis(L if direction == 2 else matrices(g2).L, "laplacian")
        spectrum = gft_2d(f, b1, b2)
    p = spectrum.power()
    if direction == 1:
        spectral_total = float(np.sum(spectrum.lambdas1 * p.sum(axis=1)))
    else:
        spectral_total = float(np.sum(spectrum.lambdas2 * p.sum(axis=0)))

    scale = max(1.0, abs(total))
    if abs(total - trace_total) > AGREE_RTOL * scale:
        raise MdgspError(
            f"edge-wise total {total!r} and trace form {trace_total!r} disagree"
        )
    residual = abs(total - spectral_total) / scale
    if residual > AGREE_RTOL:
        raise MdgspError(
            f"vertex-domain total {total!r} and spectral total {spectral_total!r} disagree"
        )
    return DirectionalVariationReport(
        direction=direction,
        local=local,
        total=total,
        trace_total=trace_total,
        spectral_total=spectral_total,
        residual=residual,
    )
