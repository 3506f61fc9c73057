"""Multi-dimensional graph signal processing on Cartesian product graphs.

Transforms that keep one frequency axis per factor graph, directional
variation analysis, 2-D spectral/polynomial/energy-model filtering, and
factor-graph-wise / directional / multivariate stationarity constructions
with empirical tests.

MDGSP_THREADS caps the BLAS and OpenMP thread pools: it becomes the default
of OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS here, before
the first import of numpy, because BLAS reads its thread count once, when
it is loaded. It has no effect if numpy was loaded before mdgsp.
"""

import os as _os

__version__ = "0.1.0"

# `errors` imports nothing, so numpy is still unloaded after it
from .errors import (
    DimensionError,
    FormatError,
    GraphError,
    KernelError,
    MdgspError,
    SamplingError,
    SpectrumError,
    UsageError,
)


def _env_threads() -> int:
    """MDGSP_THREADS as a count; unset or empty reads 0 (leave the BLAS defaults)."""
    raw = _os.environ.get("MDGSP_THREADS", "").strip() or "0"
    if not raw.isdecimal():
        raise UsageError(f"MDGSP_THREADS must be a nonnegative integer, got {raw!r}")
    return int(raw)


try:
    _threads = _env_threads()
except UsageError:
    _threads = 0  # the CLI rejects the value with exit code 2
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, str(_threads))

from .graphs import (
    Graph,
    GraphMatrices,
    ProductGraph,
    build_graph,
    cartesian_product,
    graph_from_json,
    graph_to_json,
    hop_distances,
    kronecker_sum,
    load_graph,
    matrices,
    save_graph,
    standard_graph,
)
from .spectral import (
    EigenBasis,
    MultiplicityPartition,
    default_tol_mult,
    eigenbasis,
    load_matrix,
    multiplicity_partition,
    save_matrix,
    vandermonde,
)
from .transforms import (
    SpectralGroup,
    Spectrum2D,
    SpectrumGroup1D,
    adjacency_gft_2d,
    aggregate_to_1d,
    aggregate_to_csv,
    gft_1d,
    gft_2d,
    gft_nd,
    group_power_2d,
    inverse_adjacency_gft_2d,
    inverse_gft_1d,
    inverse_gft_2d,
    inverse_gft_nd,
    inverse_multivariate_gft,
    load_signal,
    load_spectrum,
    multivariate_gft,
    save_signal,
    save_spectrum,
)
from .variation import (
    DirectionalVariationReport,
    graph_gradient,
    local_directional_variation,
    local_variation_matrix,
    total_directional_variation,
)
from .filtering import (
    PolyKernel2D,
    SpectralKernel2D,
    filter_1d_kernel_on_product,
    heat_kernel,
    kernel_from_json,
    load_kernel,
    locality_neighborhood,
    polynomial_filter_vertex,
    separable_kernel,
    spectral_filter_2d,
    sum_1d_kernel,
    tabulated_kernel,
)
from .denoise import EbemParams, SolveReport, closed_form_sweep, ebem_energy, ebem_minimize
from .stationarity import (
    CovTensor,
    DiagnosticReport,
    DirectionalProcess,
    FgwProcess,
    WhiteNoise2D,
    construct_H_from_gamma,
    construct_directional_from_gamma,
    estimate_cov,
    half_spectra_of,
    max_offdiag_correlation,
    sample_directional,
    sample_fgw,
    sample_multivariate,
    spectra_of,
    test_directional_stationarity,
    test_fgw_stationarity,
)
