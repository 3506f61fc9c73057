"""Shared fixtures-in-spirit: random graph/signal generators for tests."""

import tracemalloc

import numpy as np

from mdgsp import FormatError, build_graph, eigenbasis, matrices


def random_graph(rng, n, p=0.6, weighted=True):
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w = rng.uniform(0.2, 3.0) if weighted else 1.0
                edges.append((i, j, w))
    return build_graph(n, edges)


def random_connected_graph(rng, n, extra=0.4, weighted=True):
    """Spanning chain plus random extra edges, so the graph is connected."""
    edges = []
    for i in range(n - 1):
        w = rng.uniform(0.2, 3.0) if weighted else 1.0
        edges.append((i, i + 1, w))
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < extra:
                w = rng.uniform(0.2, 3.0) if weighted else 1.0
                edges.append((i, j, w))
    return build_graph(n, edges)


def sensor_graph(rng, n, k=8):
    """Symmetrized k-nearest-neighbour graph on random points in the unit square, with
    Gaussian weights of the squared distance: the benchmark's sensor graph."""
    pts = rng.random((n, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    nbrs = np.argpartition(d2, k, axis=1)[:, :k]
    sigma2 = float(np.mean(d2[np.arange(n)[:, None], nbrs]))
    pairs = {(min(i, int(j)), max(i, int(j))) for i in range(n) for j in nbrs[i]}
    return build_graph(n, [(i, j, float(np.exp(-d2[i, j] / (2.0 * sigma2))))
                           for i, j in sorted(pairs)])


def laplacian_basis(g):
    return eigenbasis(matrices(g).L, "laplacian")


def distinct_spectrum_graph(rng, n, tries=50):
    """Random connected weighted graph whose Laplacian spectrum is distinct."""
    for _ in range(tries):
        g = random_connected_graph(rng, n)
        values = laplacian_basis(g).values
        if np.diff(values).min() > 1e-6:
            return g
    raise AssertionError("could not draw a distinct-spectrum graph")


def traced_peak_mb(fn) -> float:
    """Peak traced allocation while fn() runs, in MiB (2**20 bytes).

    The trace is stopped even if fn raises, so one failing test cannot
    leave tracing on for the next.
    """
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def per_token_signal(text):
    """The signal of a CSV text, read whole and parsed with `float()` one token at a
    time: the reference that every signal reader must equal, value for value and
    error for error."""
    rows = []
    for ln, line in enumerate(text.strip().splitlines(), start=1):
        try:
            rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:
            raise FormatError(f"signal CSV line {ln}: {exc}") from exc
    if not rows:
        raise FormatError("signal CSV is empty")
    if any(len(r) != len(rows[0]) for r in rows):
        raise FormatError("signal CSV rows have inconsistent lengths")
    f = np.array(rows, dtype=np.float64)
    if not np.all(np.isfinite(f)):
        raise FormatError("signal CSV has non-finite entries")
    return f
