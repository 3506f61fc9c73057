"""Golden byte tests: the basis core, the polynomial core and the noise kernel
against inline oracles.

Every transform, filter and sampler now runs through `transforms._analyze` /
`_synthesize` (U^H or U along one axis) and `filtering._poly_apply`
(sum_s L^s Z R[s] along one axis), and every Gaussian noise value through
`stationarity._box_muller`. The oracles below are the expressions each
function evaluated before, written out inline; the library must return the
same floats bit for bit.
"""

import numpy as np
import pytest

from helpers import laplacian_basis, random_connected_graph

from mdgsp import (
    DirectionalProcess,
    EigenBasis,
    FgwProcess,
    PolyKernel2D,
    Spectrum2D,
    adjacency_gft_2d,
    eigenbasis,
    gft_1d,
    gft_2d,
    gft_nd,
    half_spectra_of,
    inverse_adjacency_gft_2d,
    inverse_gft_1d,
    inverse_gft_2d,
    inverse_gft_nd,
    inverse_multivariate_gft,
    matrices,
    multivariate_gft,
    polynomial_filter_vertex,
    sample_directional,
    sample_fgw,
    sample_multivariate,
    spectra_of,
    standard_graph,
)
from mdgsp import stationarity
from mdgsp.stationarity import WhiteNoise2D

SIZES = [(7, 5), (16, 16), (60, 30)]


def same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b)


# ---------------------------------------------------------------- oracles


def ref_right_stack(H, L2):
    acc = np.eye(L2.shape[0])
    pows = [acc]
    for _ in range(H.shape[1] - 1):
        acc = acc @ L2
        pows.append(acc)
    return np.tensordot(H, np.stack(pows), axes=(1, 0))


def ref_poly_rows(L, Z, R):
    X = np.zeros_like(Z)
    left = Z
    for s in range(len(R)):
        if s > 0:
            left = L @ left
        X = X + left @ R[s]
    return X


def ref_poly_cols(L, Z, R):
    X = np.zeros_like(Z)
    right = Z
    for s in range(len(R)):
        if s > 0:
            right = right @ L
        X = X + R[s] @ right
    return X


def ref_polynomial_filter_vertex(f, H, L1, L2):
    out = np.zeros_like(f, dtype=np.float64)
    acc = f.astype(np.float64)
    right = ref_right_stack(H, L2)
    for s1 in range(H.shape[0]):
        if s1 > 0:
            acc = L1 @ acc
        out += acc @ right[s1]
    return out


# ---------------------------------------------------------------- fixtures


def pair(n1, n2, seed, source="laplacian"):
    rng = np.random.default_rng(seed)
    g1 = random_connected_graph(rng, n1)
    g2 = random_connected_graph(rng, n2)
    if source == "laplacian":
        return g1, g2, laplacian_basis(g1), laplacian_basis(g2)
    return g1, g2, eigenbasis(matrices(g1).W, source), eigenbasis(matrices(g2).W, source)


def complex_basis(n, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return EigenBasis(values=np.sort(rng.random(n)), vectors=q, source="laplacian")


# ---------------------------------------------------------------- transforms


@pytest.mark.parametrize("n1, n2", SIZES)
def test_laplacian_transforms_match_their_matrix_products(n1, n2):
    _, _, b1, b2 = pair(n1, n2, n1 * n2)
    U1, U2 = b1.vectors, b2.vectors
    f = np.random.default_rng(1).standard_normal((n1, n2))
    s = gft_2d(f, b1, b2)
    assert same(s.values, U1.conj().T @ f @ U2.conj())
    assert same(inverse_gft_2d(s, b1, b2), U1 @ s.values @ U2.T)
    assert same(gft_1d(f[:, 0], b1), U1.conj().T @ f[:, 0])
    assert same(inverse_gft_1d(f[:, 1], b1), U1 @ f[:, 1])
    assert same(multivariate_gft(f, b1), U1.conj().T @ f)
    assert same(inverse_multivariate_gft(f, b1), U1 @ f)


@pytest.mark.parametrize("n1, n2", SIZES)
def test_adjacency_transforms_match_their_matrix_products(n1, n2):
    _, _, w1, w2 = pair(n1, n2, n1 + n2, source="adjacency")
    f = np.random.default_rng(2).standard_normal((n1, n2))
    s = adjacency_gft_2d(f, w1, w2)
    assert same(s.values, w1.vectors.conj().T @ f @ w2.vectors.conj())
    assert s.lambdas1 is w1.values and s.lambdas2 is w2.values
    assert same(inverse_adjacency_gft_2d(s, w1, w2), w1.vectors @ s.values @ w2.vectors.T)


def test_complex_bases_conjugate_on_both_axes():
    b1, b2 = complex_basis(6, 3), complex_basis(4, 4)
    U1, U2 = b1.vectors, b2.vectors
    rng = np.random.default_rng(5)
    f = rng.standard_normal((6, 4))
    spec = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    s = Spectrum2D(values=spec, lambdas1=b1.values, lambdas2=b2.values)
    assert same(gft_2d(f, b1, b2).values, U1.conj().T @ f @ U2.conj())
    assert same(inverse_gft_2d(s, b1, b2), U1 @ spec @ U2.T)
    assert same(multivariate_gft(f, b1), U1.conj().T @ f)
    assert same(inverse_gft_1d(spec[:, 0], b1), U1 @ spec[:, 0])
    batch = rng.standard_normal((3, 6, 4)) + 1j * rng.standard_normal((3, 6, 4))
    assert same(spectra_of(batch, b1, b2), U1.conj().T @ batch @ U2.conj())
    assert same(half_spectra_of(batch, b2, 2), batch @ U2.conj())


@pytest.mark.parametrize("n1, n2", SIZES + [(300, 100)])
def test_gft_nd_of_two_factors_is_gft_2d_bit_for_bit(n1, n2):
    _, _, b1, b2 = pair(n1, n2, 7 * n1 + n2)
    f = np.random.default_rng(3).standard_normal((n1, n2))
    s = gft_2d(f, b1, b2)
    assert same(gft_nd(f, [b1, b2]), s.values)
    assert same(inverse_gft_nd(s.values, [b1, b2]), inverse_gft_2d(s, b1, b2))
    assert same(gft_nd(f[:, 0], [b1]), gft_1d(f[:, 0], b1))
    assert same(inverse_gft_nd(f[:, 0], [b1]), inverse_gft_1d(f[:, 0], b1))


@pytest.mark.parametrize("n1, n2", SIZES)
def test_sample_spectra_match_their_matrix_products(n1, n2):
    _, _, b1, b2 = pair(n1, n2, n1 - n2 + 50)
    U1, U2 = b1.vectors, b2.vectors
    batch = np.random.default_rng(4).standard_normal((9, n1, n2))
    assert same(spectra_of(batch, b1, b2), U1.conj().T @ batch @ U2.conj())
    assert same(half_spectra_of(batch, b1, 1), U1.conj().T @ batch)
    assert same(half_spectra_of(batch, b2, 2), batch @ U2.conj())
    # the samplers' check routes wrote these products with .T in place of .conj().T
    assert same(spectra_of(batch, b1, b2), U1.T @ batch @ U2)


# ---------------------------------------------------------------- polynomials


@pytest.mark.parametrize("n1, n2", [(16, 16), (300, 100), (5, 9)])
@pytest.mark.parametrize("degrees", [(0, 0), (2, 1), (1, 3), (4, 4)])
def test_polynomial_filter_vertex_matches_the_loop(n1, n2, degrees):
    rng = np.random.default_rng(n1 + sum(degrees))
    L1 = matrices(random_connected_graph(rng, n1)).L
    L2 = matrices(random_connected_graph(rng, n2)).L
    H = rng.standard_normal((degrees[0] + 1, degrees[1] + 1))
    f = rng.standard_normal((n1, n2))
    out = polynomial_filter_vertex(f, PolyKernel2D(H=H), L1, L2)
    assert same(out, ref_polynomial_filter_vertex(f, H, L1, L2))


@pytest.mark.parametrize("n1, n2", [(16, 16), (5, 9)])
@pytest.mark.parametrize("pad", [(3, 0), (0, 2), (2, 3)])
def test_polynomial_filter_vertex_skips_trailing_zero_coefficients(n1, n2, pad):
    # trailing zero rows of H leave the core's sum unchanged, so the untrimmed loop is
    # the oracle; trailing zero columns shorten the s2 contraction of the right stack,
    # which runs inside BLAS, whose summation order may depend on the contraction
    # length, so there the oracle is the unpadded twin
    rng = np.random.default_rng(n1 + 10 * sum(pad))
    L1 = matrices(random_connected_graph(rng, n1)).L
    L2 = matrices(random_connected_graph(rng, n2)).L
    H = rng.standard_normal((2, 3))
    f = rng.standard_normal((n1, n2))
    padded = np.pad(H, ((0, pad[0]), (0, pad[1])))
    out = polynomial_filter_vertex(f, PolyKernel2D(H=padded), L1, L2)
    assert same(out, ref_polynomial_filter_vertex(f, np.pad(H, ((0, pad[0]), (0, 0))), L1, L2))
    full = ref_polynomial_filter_vertex(f, padded, L1, L2)
    assert np.abs(out - full).max() <= 64 * np.finfo(float).eps * np.abs(full).max()


@pytest.mark.parametrize("shape", [(1, 1), (3, 4)])
def test_polynomial_filter_vertex_all_zero_kernel(shape):
    L1 = matrices(standard_graph("path", 6)).L
    L2 = matrices(standard_graph("cycle", 5)).L
    f = np.random.default_rng(4).standard_normal((6, 5))
    out = polynomial_filter_vertex(f, PolyKernel2D(H=np.zeros(shape)), L1, L2)
    assert same(out, ref_polynomial_filter_vertex(f, np.zeros(shape), L1, L2))
    assert same(out, np.zeros((6, 5))) and not np.signbit(out).any()


@pytest.mark.parametrize("H", [
    pytest.param(np.array([[1.0, 0.2, 0.0], [0.3, 0.05, 0.0], [0.0, 0.0, 0.0]]), id="padded"),
    pytest.param(np.array([[0.5, -0.1, 0.02, 0.0, 0.0]]), id="one-row"),
    pytest.param(np.zeros((4, 3)), id="all-zero"),
])
def test_polynomial_kernel_response_matches_the_untrimmed_sum(H):
    rng = np.random.default_rng(6)
    l1, l2 = np.sort(4 * rng.random(9)), np.sort(4 * rng.random(7))
    resp = PolyKernel2D(H=H).as_spectral().evaluate(l1, l2)
    p1 = np.power(l1[:, None, None], np.arange(H.shape[0]))
    p2 = np.power(l2[None, :, None], np.arange(H.shape[1]))
    assert same(np.asarray(resp), np.einsum("...s,st,...t->...", p1, H, p2))


def test_polynomial_filter_vertex_integer_signal():
    L1 = matrices(standard_graph("path", 4)).L
    L2 = matrices(standard_graph("cycle", 5)).L
    H = np.array([[0.5, 1.0], [1.0, 0.25]])
    f = np.arange(20).reshape(4, 5)
    assert same(polynomial_filter_vertex(f, PolyKernel2D(H=H), L1, L2),
                ref_polynomial_filter_vertex(f, H, L1, L2))


DISTRIBUTIONS = ["gaussian", "rademacher"]


@pytest.fixture(scope="module")
def grid():
    g1, g2 = standard_graph("path", 16), standard_graph("cycle", 16)
    return matrices(g1).L, matrices(g2).L


FGW_H = np.array([[1.0, 0.2, 0.01], [0.3, 0.05, 0.0]])


# (H sampled, H of the untrimmed oracle loops): as in the filter, trailing zero columns
# are checked against the unpadded twin, every other padding against itself
FGW_PADDINGS = [
    ("zero-rows", np.pad(FGW_H, ((0, 3), (0, 0))), np.pad(FGW_H, ((0, 3), (0, 0)))),
    ("zero-columns", np.pad(FGW_H, ((0, 0), (0, 5))), FGW_H),
    ("padded-to-16x16", np.pad(FGW_H, ((0, 14), (0, 13))), np.pad(FGW_H, ((0, 14), (0, 0)))),
    ("all-zero", np.zeros((3, 4)), np.zeros((3, 1))),
]


@pytest.mark.parametrize("distribution, H, oracle_H", [
    pytest.param(dist, FGW_H, FGW_H, id=dist) for dist in DISTRIBUTIONS] + [
    pytest.param(dist, H, oracle_H, id=f"{dist}-{name}")
    for name, H, oracle_H in FGW_PADDINGS for dist in DISTRIBUTIONS])
def test_sample_fgw_matches_the_loop(grid, distribution, H, oracle_H):
    L1, L2 = grid
    X = sample_fgw(FgwProcess(kernel=PolyKernel2D(H=H)), L1, L2, 11, 3000,
                   distribution=distribution)
    Z = WhiteNoise2D(16, 16, 11, distribution).batch(3000)
    assert same(X, ref_poly_rows(L1, Z, ref_right_stack(oracle_H, L2)))


def _coefficients(n, k, seed, degree=2):
    """n coefficient matrices, zero after H_degree (all zero for degree -1)."""
    rng = np.random.default_rng(seed)
    Hs = np.zeros((n, k, k))
    Hs[0] = np.eye(k) + 0.3 * rng.standard_normal((k, k))
    Hs[1] = 0.2 * rng.standard_normal((k, k))
    Hs[2] = 0.05 * rng.standard_normal((k, k))
    for s in range(3, n):
        Hs[s] = 0.05 * 0.25 ** (s - 2) * rng.standard_normal((k, k))
    Hs[degree + 1:] = 0.0
    return Hs


# degree 2 leaves 13 trailing zero matrices; the oracle loops run over all 16
DEGREES = [pytest.param(dist, 2, id=dist) for dist in DISTRIBUTIONS] + [
    pytest.param(dist, degree, id=f"{dist}-{name}")
    for degree, name in ((0, "degree-0"), (15, "degree-15"), (-1, "all-zero"))
    for dist in DISTRIBUTIONS]


@pytest.mark.parametrize("distribution, degree", DEGREES)
@pytest.mark.parametrize("direction", [1, 2])
def test_sample_directional_matches_the_loops(grid, direction, distribution, degree):
    L = grid[direction - 1]
    Hs = _coefficients(16, 4, direction, degree)
    X = sample_directional(DirectionalProcess(direction=direction, Hs=Hs), L, 21, 3000,
                           distribution=distribution)
    if direction == 1:
        Z = WhiteNoise2D(16, 4, 21, distribution).batch(3000)
        assert same(X, ref_poly_rows(L, Z, Hs))
    else:
        Z = WhiteNoise2D(4, 16, 21, distribution).batch(3000)
        assert same(X, ref_poly_cols(L, Z, Hs))


@pytest.mark.parametrize("distribution, degree", DEGREES)
def test_sample_multivariate_matches_the_loop(grid, distribution, degree):
    L = grid[0]
    Hs = _coefficients(16, 3, 8, degree)
    X = sample_multivariate(Hs, L, 31, 2000, distribution=distribution)
    Z = WhiteNoise2D(16, 3, 31, distribution).batch(2000)
    assert same(X, ref_poly_rows(L, Z, Hs))


# ---------------------------------------------------------------- noise kernel


def ref_box_muller(words):
    """The Box-Muller kernel as it ran before on rows of words: every step on the
    half-row views values[:, :h] and values[:, h:]."""
    h = words.shape[1] // 2
    words >>= 12
    words |= np.uint64(0x3FF0000000000000)
    values = words.view(np.float64)
    r, t = values[:, :h], values[:, h:]
    np.subtract(2.0, r, out=r)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t -= 1.5
    t *= np.pi
    np.tan(t, out=t)
    half = t * t
    half += 1.0
    np.divide(r, half, out=half)
    t *= half
    t *= 2.0
    half *= 2.0
    np.subtract(half, r, out=r)
    return values


KERNEL_ROWS = [1, 2, 3, 7, 64, 255]
KERNEL_WIDTHS = [4, 8, 12, 16, 20, 36, 64, 256, 1024]  # h = 2, 4, 6, 8, 10, 18, ...


def kernel_matches_the_oracle(kernel, rows, width, n):
    """`kernel(words, out)` on Philox words gives the oracle's first n values bit for bit."""
    words = np.random.Philox(rows * width).random_raw(rows * width).reshape(rows, width)
    want = ref_box_muller(words.copy())[:, :n]
    out = np.empty((rows, n))
    kernel(words.copy(), out)
    return np.array_equal(out.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("width", KERNEL_WIDTHS)
@pytest.mark.parametrize("rows", KERNEL_ROWS)
def test_box_muller_on_contiguous_halves_matches_the_per_row_kernel(rows, width):
    # all columns, and the n = width - 3 columns a padded sample keeps (n <= h at width 4)
    for n in (width, width - 3):
        assert kernel_matches_the_oracle(stationarity._box_muller, rows, width, n)


def test_a_kernel_that_pairs_neighbouring_words_fails_the_oracle():
    # fed words 0, 2, 4, ... then 1, 3, 5, ..., the kernel pairs word j with j + 1
    def neighbours(words, out):
        stationarity._box_muller(np.concatenate([words[:, 0::2], words[:, 1::2]], axis=1), out)

    assert not any(kernel_matches_the_oracle(neighbours, rows, width, width)
                   for rows in KERNEL_ROWS for width in KERNEL_WIDTHS)


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_noise_rows_are_samples_on_the_dir1_grid(distribution):
    # 16 x 4 values, h = 32: pieces of 256 rows, so 600 samples take three
    noise = WhiteNoise2D(16, 4, 19, distribution)
    batch = noise.batch(600)
    for i in (0, 1, 255, 256, 511, 512, 599):
        assert same(noise.sample(i).view(np.uint64), batch[i].view(np.uint64))
    key = np.random.SeedSequence(19).generate_state(2, np.uint64)
    words = np.random.Philox(key=key, counter=0).random_raw(600 * 64).reshape(600, 64)
    want = ref_box_muller(words) if distribution == "gaussian" else 2.0 * (words >> 63) - 1.0
    assert same(batch.reshape(600, 64).view(np.uint64), want.view(np.uint64))
