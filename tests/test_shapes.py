"""Every array argument whose shape the factor graphs fix is checked by one rule.

A wrong shape raises DimensionError worded "<what> has shape <got>, expected
<want>", where an axis of any length is shown as `any`.
"""

import re

import numpy as np
import pytest

from helpers import laplacian_basis

from mdgsp import (
    DimensionError,
    EbemParams,
    PolyKernel2D,
    Spectrum2D,
    closed_form_sweep,
    construct_H_from_gamma,
    ebem_energy,
    ebem_minimize,
    estimate_cov,
    gft_1d,
    gft_2d,
    gft_nd,
    graph_gradient,
    half_spectra_of,
    inverse_gft_1d,
    inverse_gft_2d,
    inverse_gft_nd,
    inverse_multivariate_gft,
    local_variation_matrix,
    matrices,
    multivariate_gft,
    polynomial_filter_vertex,
    spectra_of,
    standard_graph,
)
from mdgsp import test_directional_stationarity as directional_report
from mdgsp import test_fgw_stationarity as fgw_report
from mdgsp.transforms import spectrum_to_csv

G3, G4 = standard_graph("path", 3), standard_graph("path", 4)
B3, B4 = laplacian_basis(G3), laplacian_basis(G4)
L3, L4 = matrices(G3).L, matrices(G4).L
Q = EbemParams(q1=1.5, gamma1=0.5)


def spectrum(values, n1=3, n2=4):
    return Spectrum2D(values=values, lambdas1=np.zeros(n1), lambdas2=np.zeros(n2))


CASES = {
    "gft_1d": (lambda: gft_1d(np.zeros(5), B3), "signal", (5,), "(3,)"),
    "inverse_gft_1d": (lambda: inverse_gft_1d(np.zeros(5), B3), "spectrum", (5,), "(3,)"),
    "gft_2d": (lambda: gft_2d(np.zeros((4, 3)), B3, B4), "signal", (4, 3), "(3, 4)"),
    "inverse_gft_2d": (lambda: inverse_gft_2d(spectrum(np.zeros((4, 3))), B3, B4),
                       "spectrum", (4, 3), "(3, 4)"),
    "gft_nd": (lambda: gft_nd(np.zeros((3, 4)), [B3]), "signal", (3, 4), "(3,)"),
    "inverse_gft_nd": (lambda: inverse_gft_nd(np.zeros(3), [B3, B4]), "spectrum", (3,), "(3, 4)"),
    "multivariate_gft": (lambda: multivariate_gft(np.zeros((4, 2)), B3),
                         "signal", (4, 2), "(3, any)"),
    "multivariate_gft-1d": (lambda: multivariate_gft(np.zeros(3), B3), "signal", (3,), "(3, any)"),
    "inverse_multivariate_gft": (lambda: inverse_multivariate_gft(np.zeros((4, 2)), B3),
                                 "spectrum", (4, 2), "(3, any)"),
    "spectrum_to_csv": (lambda: spectrum_to_csv(spectrum(np.ones((2, 3)), 2, 2)),
                        "spectrum", (2, 3), "(2, 2)"),
    "ebem_energy-x": (lambda: ebem_energy(np.zeros((4, 3)), np.zeros((3, 4)), G3, G4, Q),
                      "signal", (4, 3), "(3, 4)"),
    "ebem_energy-y": (lambda: ebem_energy(np.zeros((3, 4)), np.zeros((4, 3)), G3, G4, Q),
                      "observation", (4, 3), "(3, 4)"),
    "ebem_minimize": (lambda: ebem_minimize(np.zeros((3, 3)), G3, G4, Q),
                      "observation", (3, 3), "(3, 4)"),
    "closed_form_sweep": (lambda: next(closed_form_sweep(np.zeros(12), G3, G4, [EbemParams()])),
                          "observation", (12,), "(3, 4)"),
    "graph_gradient": (lambda: graph_gradient(np.zeros(4), G3, 0), "signal", (4,), "(3,)"),
    "local_variation_matrix": (lambda: local_variation_matrix(np.zeros((4, 3)), G3, G4, 1),
                               "signal", (4, 3), "(3, 4)"),
    "polynomial_filter_vertex": (
        lambda: polynomial_filter_vertex(np.zeros((4, 3)), PolyKernel2D(H=[[1.0]]), L3, L4),
        "signal", (4, 3), "(3, 4)"),
    "construct_H_from_gamma": (lambda: construct_H_from_gamma(np.ones((4, 3)), B3, B4),
                               "Gamma", (4, 3), "(3, 4)"),
    "spectra_of": (lambda: spectra_of(np.zeros((5, 4, 3)), B3, B4),
                   "samples", (5, 4, 3), "(any, 3, 4)"),
    "half_spectra_of-1": (lambda: half_spectra_of(np.zeros((5, 4, 4)), B3, 1),
                          "samples", (5, 4, 4), "(any, 3, any)"),
    "half_spectra_of-2": (lambda: half_spectra_of(np.zeros((5, 3, 3)), B4, 2),
                          "samples", (5, 3, 3), "(any, any, 4)"),
    "estimate_cov": (lambda: estimate_cov(np.zeros((5, 3))), "samples", (5, 3), "(any, any, any)"),
    "test_fgw_stationarity": (lambda: fgw_report(np.zeros((5, 4, 3)), B3, B4),
                              "samples", (5, 4, 3), "(any, 3, 4)"),
    "test_directional_stationarity": (lambda: directional_report(np.zeros(5), 1, B3),
                                      "samples", (5,), "(any, any, any)"),
    "test_directional_stationarity-n": (lambda: directional_report(np.zeros((5, 4, 4)), 1, B3),
                                        "samples", (5, 4, 4), "(any, 3, any)"),
}


@pytest.mark.parametrize("call, what, got, want", CASES.values(), ids=CASES.keys())
def test_wrong_shape_is_one_dimension_error(call, what, got, want):
    message = f"{what} has shape {got}, expected {want}"
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        call()


def test_right_shapes_with_free_axes_pass():
    assert multivariate_gft(np.ones((3, 5)), B3).shape == (3, 5)
    assert half_spectra_of(np.ones((2, 3, 7)), B3, 1).shape == (2, 3, 7)
    assert estimate_cov(np.ones((4, 2, 3))).shape == (2, 3)
