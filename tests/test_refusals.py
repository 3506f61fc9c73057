"""Every argument that a library entry refuses, one bad call per case.

Each case names the error class and a fragment of its message. Calls run in
an empty directory, which must stay empty: a refused write leaves no file.
"""

import re
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import laplacian_basis

import mdgsp.variation as variation
from mdgsp import (
    DimensionError,
    DirectionalProcess,
    FgwProcess,
    FormatError,
    GraphError,
    KernelError,
    MdgspError,
    PolyKernel2D,
    SamplingError,
    SpectrumError,
    WhiteNoise2D,
    build_graph,
    cartesian_product,
    construct_directional_from_gamma,
    eigenbasis,
    gft_2d,
    gft_nd,
    hop_distances,
    inverse_gft_nd,
    local_variation_matrix,
    locality_neighborhood,
    matrices,
    sample_directional,
    sample_fgw,
    save_signal,
    standard_graph,
    tabulated_kernel,
    total_directional_variation,
)

G3, G4 = standard_graph("path", 3), standard_graph("path", 4)
B3, B4 = laplacian_basis(G3), laplacian_basis(G4)
L3, L4 = matrices(G3).L, matrices(G4).L
TABLE = tabulated_kernel([0.0, 1.0], [0.0, 2.0], np.ones((2, 2)))
F = np.arange(12.0).reshape(3, 4) ** 2

CASES = {
    "WhiteNoise2D-distribution": (lambda: WhiteNoise2D(3, 4, 0, "uniform"),
                                  SamplingError, "unknown noise distribution 'uniform'"),
    "WhiteNoise2D.batch-0": (lambda: WhiteNoise2D(3, 4, 0).batch(0),
                             SamplingError, "sample count must be positive"),
    "DirectionalProcess-non-square": (lambda: DirectionalProcess(1, np.zeros((3, 2, 3))),
                                      SamplingError, "must be (count, k, k), got (3, 2, 3)"),
    "sample_fgw-count-0": (
        lambda: sample_fgw(FgwProcess(kernel=PolyKernel2D(H=[[1.0]])), L3, L4, 0, count=0),
        SamplingError, "sample count must be positive"),
    "sample_directional-matrix-count": (
        lambda: sample_directional(DirectionalProcess(1, np.zeros((2, 4, 4))), L3, 0, 5),
        SamplingError, "need exactly 3 coefficient matrices, got 2"),
    "sample_directional-n_other": (
        lambda: sample_directional(DirectionalProcess(1, np.zeros((3, 4, 4))), L3, 0, 5,
                                   n_other=5),
        DimensionError, "coefficient matrices are 4 x 4, expected 5"),
    "construct_directional_from_gamma-shape": (
        lambda: construct_directional_from_gamma(np.zeros((3, 2, 3)), B3),
        DimensionError, "expected 3 square covariance targets, got shape (3, 2, 3)"),
    "eigenbasis-source": (lambda: eigenbasis(L3, "normalized"),
                          SpectrumError, "unknown source tag 'normalized'"),
    "eigenbasis-non-square": (lambda: eigenbasis(np.zeros((2, 3)), "laplacian"),
                              SpectrumError, "expected a square matrix, got shape (2, 3)"),
    "eigenbasis-no-zero-eigenvalue": (lambda: eigenbasis(np.eye(3), "laplacian"),
                                      SpectrumError, "laplacian eigenvalue 0 missing"),
    "gft_nd-no-basis": (lambda: gft_nd(np.zeros(3), []),
                        DimensionError, "need at least one basis"),
    "inverse_gft_nd-no-basis": (lambda: inverse_gft_nd(np.zeros(3), []),
                                DimensionError, "need at least one basis"),
    "save_signal-1d": (lambda: save_signal(np.zeros(3), "x.csv"),
                       FormatError, "expected a 2-D signal, got ndim=1"),
    "local_variation_matrix-direction": (lambda: local_variation_matrix(F, G3, G4, 3),
                                         DimensionError, "direction must be 1 or 2, got 3"),
    "PolyKernel2D-nan": (lambda: PolyKernel2D(H=[[1.0, np.nan]]),
                         KernelError, "polynomial coefficients must be finite"),
    "tabulated_kernel-table-shape": (
        lambda: tabulated_kernel([0.0, 1.0], [0.0, 2.0], np.ones((2, 3))),
        KernelError, "table shape (2, 3) does not match 2 x 2 distinct frequencies"),
    "tabulated_kernel-axis-1": (lambda: TABLE.evaluate(np.array([0.5]), np.array([0.0])),
                                KernelError, "frequency along axis 1 not present"),
    "tabulated_kernel-axis-2": (lambda: TABLE.evaluate(np.array([1.0]), np.array([3.0])),
                                KernelError, "frequency along axis 2 not present"),
    "locality_neighborhood-vertex": (
        lambda: locality_neighborhood(cartesian_product(G3, G4), PolyKernel2D(H=[[1.0]]),
                                      (3, 0)),
        DimensionError, "vertex (3, 0) out of range for (3, 4)"),
    "build_graph-no-vertex": (lambda: build_graph(0, []),
                              GraphError, "vertex count must be positive, got 0"),
    "build_graph-pair-edge": (lambda: build_graph(3, [(0, 1)]),
                              GraphError, "every edge must be an (i, j, w) triple"),
    "standard_graph-family": (lambda: standard_graph("star", 5),
                              GraphError, "unknown graph family 'star'"),
    "hop_distances-start": (lambda: hop_distances(G3, 3),
                            GraphError, "vertex 3 out of range for n=3"),
}


@pytest.mark.parametrize("call, cls, fragment", CASES.values(), ids=CASES.keys())
def test_bad_argument_is_refused(tmp_path, monkeypatch, call, cls, fragment):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(cls, match=re.escape(fragment)):
        call()
    assert list(tmp_path.iterdir()) == []


def test_eigenpair_residual_is_refused(monkeypatch):
    eigh = np.linalg.eigh

    def values_off_by_1e_3(m):
        values, vectors = eigh(m)
        return values + 1e-3, vectors

    monkeypatch.setattr(np.linalg, "eigh", values_off_by_1e_3)
    with pytest.raises(SpectrumError, match=r"^eigenpair \d+ residual .* exceeds tolerance$"):
        eigenbasis(matrices(G3).W, "adjacency")


@pytest.mark.parametrize("direction", [1, 2])
def test_variation_refuses_a_spectrum_of_another_signal(direction):
    with pytest.raises(MdgspError, match="^vertex-domain total .* and spectral total .* disagree$"):
        total_directional_variation(F, G3, G4, direction, B3, B4, gft_2d(2 * F, B3, B4))


@pytest.mark.parametrize("direction", [1, 2])
def test_variation_refuses_a_trace_form_of_another_laplacian(monkeypatch, direction):
    laplacian = matrices
    monkeypatch.setattr(variation, "matrices", lambda g: SimpleNamespace(L=2 * laplacian(g).L))
    with pytest.raises(MdgspError, match="^edge-wise total .* and trace form .* disagree$"):
        total_directional_variation(F, G3, G4, direction, B3, B4, gft_2d(F, B3, B4))
