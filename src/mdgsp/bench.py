"""Timing of the matrix-chain 2-D transform versus the flattened transform.

The flattened ("naive") path applies one (n1*n2)^2 basis to the vectorized
signal. Up to NAIVE_FULL_CAP product vertices the basis is materialized
outright (by eigendecomposition of the product Laplacian, timed separately
as setup); above the cap, basis rows are generated in bounded blocks from
the factor bases and only the matrix-vector work is timed, so the naive
transform cost is still measured without quadratic memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import MdgspError
from .graphs import kronecker_sum, standard_graph, matrices
from .spectral import eigenbasis, partition_values
from .transforms import gft_2d

NAIVE_FULL_CAP = 4096
_BLOCK_BUDGET_FLOATS = 32_000_000  # ~256 MB of f64 per streamed block


@dataclass
class SizeResult:
    n1: int
    n2: int
    eig_factor_seconds: float
    fast_seconds: float
    naive_seconds: float | None
    eig_product_seconds: float | None
    naive_mode: str  # "materialized" | "streamed" | "skipped"
    model_cost: float = 0.0  # n1^2 n2 + n1 n2^2, the fast path's flop model


@dataclass
class BenchReport:
    results: list[SizeResult] = field(default_factory=list)
    scaling_slope: float | None = None


def _median_time(fn, repetitions: int) -> float:
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _streamed_naive_seconds(U1: np.ndarray, U2: np.ndarray, vec: np.ndarray,
                            repetitions: int) -> float:
    """Time the (n1*n2)^2 matvec with basis rows generated in blocks.

    Block construction is excluded from the timer: a pre-materialized basis
    would not pay it either, so this is a lower bound on the naive cost.
    Each block is built once and its matvec timed once per repetition; a
    repetition's time is the sum over the blocks.
    """
    n1 = U1.shape[0]
    n2 = U2.shape[0]
    n = n1 * n2
    rows_per_block = max(1, min(n, _BLOCK_BUDGET_FLOATS // n))
    k1_per_block = max(1, rows_per_block // n2)
    times = np.zeros(repetitions)
    out = np.empty(n)
    for k1 in range(0, n1, k1_per_block):
        hi = min(k1 + k1_per_block, n1)
        block = np.kron(U1[:, k1:hi].T, U2.T)  # ((hi-k1)*n2, n)
        for rep in range(repetitions):
            t0 = time.perf_counter()
            out[k1 * n2 : hi * n2] = block @ vec
            times[rep] += time.perf_counter() - t0
    return float(np.median(times))


def bench_sizes(sizes: list[tuple[int, int]], repetitions: int = 3,
                seed: int = 0, naive: bool = True) -> BenchReport:
    """Run the timing comparison on torus graphs of the given factor sizes."""
    rng = np.random.default_rng(seed)
    report = BenchReport()
    for n1, n2 in sizes:
        g1 = standard_graph("cycle", n1)
        g2 = standard_graph("cycle", n2)
        L1 = matrices(g1).L
        L2 = matrices(g2).L
        t0 = time.perf_counter()
        b1 = eigenbasis(L1, "laplacian")
        b2 = eigenbasis(L2, "laplacian")
        eig_factor = time.perf_counter() - t0
        f = rng.standard_normal((n1, n2))

        fast = _median_time(lambda: gft_2d(f, b1, b2), repetitions)

        naive_seconds = None
        eig_product = None
        mode = "skipped"
        if naive:
            vec = f.reshape(-1)
            if n1 * n2 <= NAIVE_FULL_CAP:
                t0 = time.perf_counter()
                bp = eigenbasis(kronecker_sum(L1, L2), "laplacian")
                eig_product = time.perf_counter() - t0
                basis = bp.vectors
                naive_seconds = _median_time(lambda: basis.T @ vec, repetitions)
                mode = "materialized"
            else:
                naive_seconds = _streamed_naive_seconds(b1.vectors, b2.vectors, vec, repetitions)
                mode = "streamed"
        report.results.append(SizeResult(
            n1=n1, n2=n2, eig_factor_seconds=eig_factor, fast_seconds=fast,
            naive_seconds=naive_seconds, eig_product_seconds=eig_product,
            naive_mode=mode, model_cost=float(n1 * n1 * n2 + n1 * n2 * n2),
        ))
    report.scaling_slope = fit_scaling_slope(report.results)
    return report


def equality_check(n1: int, n2: int, seed: int = 0, tol_mult: float = 1e-6) -> float:
    """Mutual-oracle check that both benchmark paths agree.

    The fast path computes the 2-D spectrum; the naive path diagonalizes
    the product Laplacian outright and transforms the flattened signal.
    Inside degenerate eigenspaces the two bases differ, so powers are
    pooled over jointly grouped frequencies before comparing. Returns the
    largest relative group-power discrepancy.
    """
    if n1 * n2 > NAIVE_FULL_CAP:
        raise MdgspError(
            f"equality check materializes the product basis; {n1}x{n2} exceeds "
            f"the {NAIVE_FULL_CAP}-vertex cap"
        )
    g1 = standard_graph("cycle", n1)
    g2 = standard_graph("cycle", n2)
    L1, L2 = matrices(g1).L, matrices(g2).L
    b1 = eigenbasis(L1, "laplacian")
    b2 = eigenbasis(L2, "laplacian")
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n1, n2))

    s = gft_2d(f, b1, b2)
    power_fast = s.power().ravel()
    freq_fast = np.add.outer(b1.values, b2.values).ravel()

    bp = eigenbasis(kronecker_sum(L1, L2), "laplacian")
    flat = bp.vectors.T @ f.reshape(-1)
    power_naive = np.abs(flat) ** 2
    freq_naive = bp.values

    # joint grouping: pool both power lists over merged frequency groups
    values = np.concatenate([freq_fast, freq_naive])
    powers = np.concatenate([power_fast, power_naive])
    from_fast = np.concatenate([np.ones(len(freq_fast), dtype=bool),
                                np.zeros(len(freq_naive), dtype=bool)])
    order = np.argsort(values, kind="stable")
    worst = 0.0
    for grp in partition_values(values[order], tol_mult):
        idx = order[grp]
        fast_total = powers[idx[from_fast[idx]]].sum()
        naive_total = powers[idx[~from_fast[idx]]].sum()
        denom = max(fast_total, naive_total, 1e-12)
        worst = max(worst, abs(fast_total - naive_total) / denom)
    return worst


def fit_scaling_slope(results: list[SizeResult]) -> float | None:
    """Log-log regression of fast-path time against n1^2 n2 + n1 n2^2.

    A slope of 1 means the measured cost tracks the model; the acceptance
    gate allows a factor 1.5 either way.
    """
    usable = [r for r in results if r.fast_seconds > 0]
    if len(usable) < 2:
        return None
    x = np.log([r.model_cost for r in usable])
    y = np.log([r.fast_seconds for r in usable])
    slope = float(np.polyfit(x, y, 1)[0])
    return slope
