"""1-D/2-D/n-D/adjacency/multivariate transforms and spectrum grouping."""

import math

import numpy as np
import pytest

from helpers import distinct_spectrum_graph, laplacian_basis, per_token_signal, random_graph

from mdgsp import (
    DimensionError,
    FormatError,
    Spectrum2D,
    SpectrumError,
    adjacency_gft_2d,
    aggregate_to_1d,
    eigenbasis,
    gft_1d,
    gft_2d,
    gft_nd,
    group_power_2d,
    inverse_adjacency_gft_2d,
    inverse_gft_2d,
    inverse_gft_nd,
    inverse_multivariate_gft,
    load_signal,
    load_spectrum,
    matrices,
    multiplicity_partition,
    multivariate_gft,
    save_signal,
    save_spectrum,
    standard_graph,
)
import mdgsp.transforms as transforms
from mdgsp.transforms import signal_from_csv, spectrum_from_csv, spectrum_to_csv


def test_gft_1d_constant_on_connected_graph():
    b = laplacian_basis(standard_graph("wheel", 5))
    fhat = gft_1d(np.full(5, 3.0), b)
    assert fhat[0] == pytest.approx(3.0 * np.sqrt(5), abs=1e-12)
    assert np.abs(fhat[1:]).max() < 1e-12


def test_gft_1d_eigensignal_is_impulse():
    b = laplacian_basis(standard_graph("path", 5))
    for k in range(5):
        fhat = gft_1d(b.vectors[:, k], b)
        expected = np.zeros(5)
        expected[k] = 1.0
        assert np.allclose(fhat, expected, atol=1e-12)


def test_impulse_on_c4_flat_after_grouping():
    # DFT oracle: |fft(delta_0)|^2 / N = 1/4 in every bin, so each
    # degenerate group carries multiplicity * 1/4 of the power
    g = standard_graph("cycle", 4)
    b = laplacian_basis(g)
    f = np.zeros(4)
    f[0] = 1.0
    fhat = gft_1d(f, b)
    part = multiplicity_partition(b, 1e-8)
    dft_power = np.abs(np.fft.fft(f)) ** 2 / 4
    assert np.allclose(dft_power, 0.25)
    for grp in part.groups:
        assert np.sum(np.abs(fhat[grp]) ** 2) == pytest.approx(0.25 * len(grp), abs=1e-12)


def test_gft_2d_constant_signal():
    b1 = laplacian_basis(standard_graph("path", 3))
    b2 = laplacian_basis(standard_graph("cycle", 4))
    c = 1.7
    s = gft_2d(np.full((3, 4), c), b1, b2)
    assert s.values[0, 0] == pytest.approx(c * np.sqrt(12), abs=1e-10)
    mask = np.ones((3, 4), dtype=bool)
    mask[0, 0] = False
    assert np.abs(s.values[mask]).max() < 1e-12


def test_gft_2d_separable_eigensignal():
    b1 = laplacian_basis(standard_graph("path", 3))
    b2 = laplacian_basis(standard_graph("path", 4))
    f = np.outer(b1.vectors[:, 2], b2.vectors[:, 1])
    s = gft_2d(f, b1, b2)
    expected = np.zeros((3, 4))
    expected[2, 1] = 1.0
    assert np.allclose(s.values, expected, atol=1e-12)


def test_gft_2d_matches_kronecker_flattened_oracle():
    # oracle: explicit Kronecker eigenbasis of the product graph
    rng = np.random.default_rng(8)
    b1 = laplacian_basis(standard_graph("path", 3))
    b2 = laplacian_basis(standard_graph("path", 4))
    big = np.kron(b1.vectors, b2.vectors)
    for _ in range(10):
        f = rng.standard_normal((3, 4))
        s = gft_2d(f, b1, b2)
        flat = big.T @ f.reshape(-1)
        assert np.abs(s.values.reshape(-1) - flat).max() < 1e-12


def test_round_trip_and_parseval_2d():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g1 = random_graph(rng, int(rng.integers(2, 7)))
        g2 = random_graph(rng, int(rng.integers(2, 7)))
        b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
        f = rng.standard_normal((g1.n, g2.n))
        s = gft_2d(f, b1, b2)
        assert np.abs(inverse_gft_2d(s, b1, b2) - f).max() < 1e-10
        assert abs(np.linalg.norm(f) - np.linalg.norm(s.values)) < 1e-10


def test_inverse_gft_2d_trivial_cases():
    b1 = laplacian_basis(standard_graph("path", 2))
    b2 = laplacian_basis(standard_graph("path", 3))
    from mdgsp import Spectrum2D

    zero = Spectrum2D(values=np.zeros((2, 3)), lambdas1=b1.values, lambdas2=b2.values)
    assert np.all(inverse_gft_2d(zero, b1, b2) == 0.0)
    imp = np.zeros((2, 3))
    imp[0, 0] = np.sqrt(6)
    s = Spectrum2D(values=imp, lambdas1=b1.values, lambdas2=b2.values)
    assert np.allclose(inverse_gft_2d(s, b1, b2), 1.0, atol=1e-12)


def test_gft_2d_complex_capable():
    b1 = laplacian_basis(standard_graph("path", 2))
    b2 = laplacian_basis(standard_graph("path", 2))
    f = np.array([[1 + 1j, 0], [0, 1 - 1j]])
    s = gft_2d(f, b1, b2)
    assert np.iscomplexobj(s.values)
    assert np.abs(inverse_gft_2d(s, b1, b2) - f).max() < 1e-12


def test_gft_nd_reduces_to_1d_and_2d():
    rng = np.random.default_rng(4)
    b = laplacian_basis(standard_graph("cycle", 5))
    f1 = rng.standard_normal(5)
    assert np.allclose(gft_nd(f1, [b]), gft_1d(f1, b), atol=1e-14)
    b2 = laplacian_basis(standard_graph("path", 3))
    f2 = rng.standard_normal((5, 3))
    assert np.allclose(gft_nd(f2, [b, b2]), gft_2d(f2, b, b2).values, atol=1e-14)


def test_gft_nd_three_factors_brute_force():
    rng = np.random.default_rng(9)
    g = standard_graph("path", 2)
    b = laplacian_basis(g)
    bases = [b, b, b]
    f = rng.standard_normal((2, 2, 2))
    got = gft_nd(f, bases)
    big = np.kron(np.kron(b.vectors, b.vectors), b.vectors)
    oracle = (big.T @ f.reshape(-1)).reshape(2, 2, 2)
    assert np.abs(got - oracle).max() < 1e-12
    assert np.abs(inverse_gft_nd(got, bases) - f).max() < 1e-12


def test_adjacency_gft_round_trip_and_impulse():
    rng = np.random.default_rng(13)
    g1 = random_graph(rng, 4)
    g2 = random_graph(rng, 5)
    w1 = eigenbasis(matrices(g1).W, "adjacency")
    w2 = eigenbasis(matrices(g2).W, "adjacency")
    f = np.outer(w1.vectors[:, 1], w2.vectors[:, 3])
    s = adjacency_gft_2d(f, w1, w2)
    expected = np.zeros((4, 5))
    expected[1, 3] = 1.0
    assert np.allclose(s.values, expected, atol=1e-12)
    for _ in range(5):
        f = rng.standard_normal((4, 5))
        s = adjacency_gft_2d(f, w1, w2)
        assert np.abs(inverse_adjacency_gft_2d(s, w1, w2) - f).max() < 1e-10


def test_adjacency_rejects_laplacian_basis():
    g = standard_graph("path", 3)
    b = laplacian_basis(g)
    with pytest.raises(SpectrumError):
        adjacency_gft_2d(np.zeros((3, 3)), b, b)


def test_adjacency_group_powers_match_laplacian_on_regular_graph():
    # C4 is 2-regular: L = 2I - W shares eigenspaces with W under mu -> 2 - mu
    g = standard_graph("cycle", 4)
    m = matrices(g)
    bl = eigenbasis(m.L, "laplacian")
    bw = eigenbasis(m.W, "adjacency")
    assert np.allclose(np.sort(2.0 - bw.values), np.sort(bl.values), atol=1e-10)
    rng = np.random.default_rng(2)
    f = rng.standard_normal((4, 4))
    sl = gft_2d(f, bl, bl)
    sw = adjacency_gft_2d(f, bw, bw)
    pl = multiplicity_partition(bl, 1e-8).groups
    pw = multiplicity_partition(bw, 1e-8).groups
    # mu ascending maps to 2-mu descending: reverse the adjacency groups
    power_l = group_power_2d(sl, pl, pl)
    power_w = group_power_2d(sw, pw[::-1], pw[::-1])
    assert np.allclose(power_l, power_w, atol=1e-10)


def test_aggregate_distinct_sums_one_group_each():
    rng = np.random.default_rng(31)
    g1 = distinct_spectrum_graph(rng, 3)
    g2 = distinct_spectrum_graph(rng, 3)
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    sums = np.add.outer(b1.values, b2.values).ravel()
    if len(np.unique(np.round(sums, 6))) == 9:
        f = rng.standard_normal((3, 3))
        grp = aggregate_to_1d(gft_2d(f, b1, b2), 1e-8)
        assert len(grp.groups) == 9
        assert all(len(g.members) == 1 for g in grp.groups)


def test_aggregate_p2_square_groups():
    g = standard_graph("path", 2)
    b = laplacian_basis(g)
    rng = np.random.default_rng(6)
    f = rng.standard_normal((2, 2))
    grp = aggregate_to_1d(gft_2d(f, b, b), 1e-8)
    assert [g.frequency for g in grp.groups] == pytest.approx([0.0, 2.0, 4.0], abs=1e-9)
    assert [len(g.members) for g in grp.groups] == [1, 2, 1]
    assert sum(g.power for g in grp.groups) == pytest.approx(np.sum(f**2), rel=1e-12)


@pytest.mark.parametrize("tol_mult", [np.nan, np.inf, 0.0, -1.0])
def test_grouping_refuses_a_tolerance_that_is_not_finite_and_positive(tol_mult):
    # a NaN or infinite tolerance would merge every frequency into one group
    b1 = laplacian_basis(standard_graph("path", 3))
    b2 = laplacian_basis(standard_graph("path", 4))
    s = gft_2d(np.random.default_rng(5).standard_normal((3, 4)), b1, b2)
    with pytest.raises(SpectrumError, match="finite number > 0"):
        aggregate_to_1d(s, tol_mult)
    with pytest.raises(SpectrumError, match="finite number > 0"):
        multiplicity_partition(b2, tol_mult)


def test_group_power_invariance_against_flattened_eigh_basis():
    # any orthonormal basis spanning the same eigenspaces gives the same
    # grouped powers as the 2-D route
    rng = np.random.default_rng(14)
    g = standard_graph("cycle", 4)
    b = laplacian_basis(g)
    pg_l = np.kron(matrices(g).L, np.eye(4)) + np.kron(np.eye(4), matrices(g).L)
    bp = eigenbasis(pg_l, "laplacian")
    f = rng.standard_normal((4, 4))
    two_d = aggregate_to_1d(gft_2d(f, b, b), 1e-6)
    flat_hat = bp.vectors.T @ f.reshape(-1)
    from mdgsp.spectral import partition_values

    flat_groups = partition_values(bp.values, 1e-6)
    flat_powers = [np.sum(np.abs(flat_hat[g]) ** 2) for g in flat_groups]
    assert len(flat_groups) == len(two_d.groups)
    for fp, grp in zip(flat_powers, two_d.groups):
        assert fp == pytest.approx(grp.power, abs=1e-9)


def test_multivariate_matches_columnwise_and_identity_basis():
    rng = np.random.default_rng(12)
    g = standard_graph("path", 4)
    b = laplacian_basis(g)
    f = rng.standard_normal((4, 3))
    got = multivariate_gft(f, b)
    for a in range(3):
        assert np.abs(got[:, a] - gft_1d(f[:, a], b)).max() < 1e-12
    # edgeless second factor: zero Laplacian with the standard basis
    from mdgsp import EigenBasis, Spectrum2D

    eye_basis = EigenBasis(values=np.zeros(3), vectors=np.eye(3), source="laplacian")
    s2 = gft_2d(f, b, eye_basis)
    assert np.abs(got - s2.values).max() < 1e-12
    assert np.abs(inverse_multivariate_gft(got, b) - f).max() < 1e-12


def test_multivariate_p1_is_gft_1d():
    rng = np.random.default_rng(18)
    b = laplacian_basis(standard_graph("cycle", 6))
    f = rng.standard_normal((6, 1))
    assert np.allclose(multivariate_gft(f, b)[:, 0], gft_1d(f[:, 0], b), atol=1e-14)


def test_dimension_mismatch_errors():
    b1 = laplacian_basis(standard_graph("path", 3))
    b2 = laplacian_basis(standard_graph("path", 4))
    with pytest.raises(DimensionError):
        gft_1d(np.zeros(5), b1)
    with pytest.raises(DimensionError):
        gft_2d(np.zeros((4, 3)), b1, b2)
    with pytest.raises(DimensionError):
        multivariate_gft(np.zeros((5, 2)), b1)


def test_signal_and_spectrum_csv_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    f = rng.standard_normal((3, 4))
    sp = tmp_path / "f.csv"
    save_signal(f, sp)
    assert np.array_equal(load_signal(sp), f)
    b1 = laplacian_basis(standard_graph("path", 3))
    b2 = laplacian_basis(standard_graph("path", 4))
    s = gft_2d(f, b1, b2)
    cp = tmp_path / "s.csv"
    save_spectrum(s, cp)
    s2 = load_spectrum(cp)
    assert np.array_equal(s2.values, s.values)
    assert np.array_equal(s2.lambdas1, s.lambdas1)
    assert np.array_equal(s2.lambdas2, s.lambdas2)


SPECTRUM_HEADER = "k1,k2,lambda1,lambda2,re,im,power\n"


def spectrum_rows(*rows):
    return SPECTRUM_HEADER + "".join(",".join(map(str, r)) + "\n" for r in rows)


GRID_2X2 = [(0, 0, 0.0, 0.0, 1.0, 0.0, 1.0), (0, 1, 0.0, 2.0, 2.0, 0.0, 4.0),
            (1, 0, 1.0, 0.0, 3.0, 0.0, 9.0), (1, 1, 1.0, 2.0, 4.0, 0.0, 16.0)]


def test_spectrum_reader_reads_a_full_grid():
    s = spectrum_from_csv(spectrum_rows(*GRID_2X2[::-1]))  # row order does not matter
    assert np.array_equal(s.values, [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(s.lambdas1, [0.0, 1.0]) and np.array_equal(s.lambdas2, [0.0, 2.0])


@pytest.mark.parametrize("text, message", [
    pytest.param(SPECTRUM_HEADER, "no data rows", id="header-only"),
    pytest.param(spectrum_rows(GRID_2X2[0], GRID_2X2[0], GRID_2X2[3], GRID_2X2[3]),
                 "line 3: repeated", id="repeated-pairs"),
    pytest.param(spectrum_rows(GRID_2X2[0], GRID_2X2[3]), "pairs are missing", id="diagonal"),
    pytest.param(spectrum_rows(*GRID_2X2[:3]), "pairs are missing", id="last-missing"),
    pytest.param(spectrum_rows((-1, 0, 0.0, 0.0, 1.0, 0.0, 1.0), *GRID_2X2),
                 "line 2: negative", id="negative-k1"),
    pytest.param(spectrum_rows(GRID_2X2[0], (0, -1, 0.0, 0.0, 1.0, 0.0, 1.0)),
                 "line 3: negative", id="negative-k2"),
] + [
    pytest.param(spectrum_rows(*GRID_2X2[:2], GRID_2X2[2][:col] + ("nan",) + GRID_2X2[2][col + 1:],
                               GRID_2X2[3]), "line 4: NaN", id=f"nan-{name}")
    for col, name in enumerate(SPECTRUM_HEADER.strip().split(",")) if col >= 2
])
def test_spectrum_reader_rejects_incomplete_grids_and_nan(text, message):
    with pytest.raises(FormatError, match=message):
        spectrum_from_csv(text)


@pytest.mark.parametrize("rows, message", [
    pytest.param([GRID_2X2[0], (0, 1, 7.5, 2.0, 2.0, 0.0, 4.0), *GRID_2X2[2:]],
                 r"line 3: lambda1 = 7\.5 for k1 = 0, but an earlier row gives 0\.0",
                 id="lambda1"),
    pytest.param([*GRID_2X2[:3], (1, 1, 1.0, 2.5, 4.0, 0.0, 16.0)],
                 r"line 5: lambda2 = 2\.5 for k2 = 1, but an earlier row gives 2\.0",
                 id="lambda2"),
    pytest.param([*GRID_2X2[:3], (1, 1, 1.0, "2.0000000000000004", 4.0, 0.0, 16.0)],
                 "line 5: lambda2 = 2.0000000000000004", id="one-ulp"),
])
def test_spectrum_reader_rejects_disagreeing_eigenvalues(rows, message):
    # every row of one k1 (k2) must repeat its lambda1 (lambda2) exactly
    with pytest.raises(FormatError, match=message):
        spectrum_from_csv(spectrum_rows(*rows))


def test_spectrum_reader_keeps_infinite_values():
    # the writer prints an overflowing power as inf; an infinite value reads back as such
    s = Spectrum2D(values=np.array([[1e200, 1.0], [-np.inf, 2.0]]),
                   lambdas1=np.array([0.0, 1.0]), lambdas2=np.array([0.0, 3.0]))
    text = spectrum_to_csv(s)
    assert ",inf\n" in text
    back = spectrum_from_csv(text)
    assert np.array_equal(back.values, s.values)


@pytest.mark.parametrize("text, message", [
    pytest.param("", "empty", id="empty"),
    pytest.param("\n \n", "empty", id="blank-lines"),
    pytest.param("1.0,2.0\n3.0\n", "inconsistent lengths", id="ragged"),
    pytest.param("1.0,2.0\n3.0,4.0\n5.0,x\n", "line 3: could not convert", id="bad-token"),
    pytest.param("1.0,2.0\n3.0,nan\n", "non-finite", id="nan"),
    pytest.param("1.0,inf\n3.0,4.0\n", "non-finite", id="inf"),
    pytest.param("1.0,2.0\n-inf,4.0\n", "non-finite", id="minus-inf"),
])
def test_signal_reader_rejects_malformed_text(text, message):
    with pytest.raises(FormatError, match=message):
        signal_from_csv(text)


SIGNAL_TEXTS = [
    "1.0,2.0\n3.0,4.0\n",
    "\n\n  1.0,2.0\n3.0,4.0 \n\n \n",
    "1.0,2.0\r\n3.0,4.0\r\n",
    "1.0,2.0\r3.0,4.0",
    "1.0,2.0\x0c3.0,4.0\u2028",
    "\n \n1.0,2.0\n3.0,x\n",  # bad token: line 2 after the dropped blank lines
    "\n  x,2.0\n3.0,4.0\n",  # the first line loses its leading whitespace
    "1.0,2.0\n3.0,x \t\n\n",  # the last line loses its trailing whitespace
    "1.0,2.0\n\n3.0,4.0\n",  # a blank line inside is a bad row
    "1.0,2.0\n \t\n3.0,4.0\n",
    "1.0,2.0\n3.0\n\n",
    "1.0,nan\n",
    "\n \t\n",
    "",
    # layouts and spellings a bulk parser could read otherwise than float() does
    "1.0,2.0\n3.0,4.0",  # no final newline
    "1.0,2.0\n3.0,4.0\n\n\n",  # trailing blank lines
    "1.0,,2.0\n3.0,4.0,5.0\n",  # an empty field
    "1.0,2.0,\n3.0,4.0,\n",  # a trailing comma
    "1.0\n-2.5\n3e-5\n",  # one column
    "7",  # one value
    "1_0,2\n3,4\n",  # float() accepts the underscore; np.loadtxt does not
    "1,2\r\n3,4",
    "\ufeff1.0,2.0\n3.0,4.0\n",  # a byte order mark
    "\n1.0,2.0\n3.0,4.0\n",  # a leading blank line
    "1.0,2.0\n3.0,4.0,5.0\n",  # ragged
    "1.0,2.0\n3.0,1e999\n",  # overflows to inf
]


@pytest.mark.parametrize("text", SIGNAL_TEXTS)
def test_signal_file_reader_equals_the_text_reader(tmp_path, text):
    # load_signal streams the file; values, messages and line numbers match the text reader
    path = tmp_path / "f.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    outcomes = []
    for read in (lambda: signal_from_csv(text), lambda: load_signal(path)):
        try:
            f = read()
            outcomes.append((f.shape, f.dtype, f.tobytes()))
        except FormatError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


MANY_ROWS = "1.0,2.0\n" * 20000  # 160 kB: the reader takes it in three blocks


@pytest.mark.parametrize("text", SIGNAL_TEXTS + [
    pytest.param(MANY_ROWS + "1.0,2.0,3.0\n", id="ragged-in-a-later-block"),
    # the first 8192 lines fill the first 64 KiB block exactly
    pytest.param(MANY_ROWS[:65536] + "1.0,2.0,3.0\n" * 100, id="a-wider-block"),
    pytest.param(MANY_ROWS[:65528] + "1.0,2.\n\n" + MANY_ROWS, id="blank-at-the-end-of-a-block"),
    pytest.param(MANY_ROWS + "\n1.0,2.0\n", id="blank-in-a-later-block"),
    pytest.param(MANY_ROWS + " \n", id="space-in-a-later-block"),
    pytest.param(MANY_ROWS + "\n" * 70000, id="trailing-blank-blocks"),
    pytest.param(MANY_ROWS + "1.0,x\n", id="bad-token-in-a-later-block"),
    pytest.param("1e999,2.0\n" + MANY_ROWS + "1.0,x\n", id="inf-before-a-bad-token"),
    pytest.param((",".join(["0.5"] * 40000) + "\n") * 2, id="lines-longer-than-a-block"),
])
def test_signal_readers_equal_the_per_token_reader(tmp_path, text):
    path = tmp_path / "f.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    outcomes = []
    for read in (lambda: per_token_signal(text), lambda: signal_from_csv(text),
                 lambda: load_signal(path)):
        try:
            f = read()
            outcomes.append((f.shape, f.dtype, f.tobytes()))
        except FormatError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]


# Tokens that float() reads on its slow or edge paths: 17 and more digits, exact
# ties, subnormals, underflow to 0.0, the largest finite value, and spellings
# float() accepts (-0, leading zeros, no digit on one side of the point, +, E).
HARD_TOKENS = [
    "9007199254740993", "9007199254740995", "0.30000000000000004", "1.7976931348623157e308",
    "1.00000000000000011102230246251565404236316680908203125",  # halfway: rounds to even
    "1.00000000000000011102230246251565404236316680908203126",
    "4.9e-324", "2.4703282292062328e-324", "2.4703282292062327e-324", "5e-324",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "1e-400",
    "123456789012345678901234567890", "0.000000000000000000000000000001234567890123456789",
    "-0", "00012", "1.", ".5", "+1", "1E5", "-1.5e-7", "9.999999999999999e22",
]


def test_bulk_values_equal_float_bit_for_bit(tmp_path):
    rng = np.random.default_rng(17)
    random = (rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)).tolist()
    tokens = HARD_TOKENS + [f"{x:.17g}" for x in random] + [f"{x:.17e}" for x in random]
    tokens += [f"{x:.30g}" for x in random[:50]]
    expected = np.array([float(t) for t in tokens])
    for width in (1, 7):
        cut = len(tokens) - len(tokens) % width
        text = "".join(",".join(tokens[i:i + width]) + "\n" for i in range(0, cut, width))
        (tmp_path / "f.csv").write_text(text)
        for f in (signal_from_csv(text), load_signal(tmp_path / "f.csv")):
            assert f.shape == (cut // width, width)
            assert f.tobytes() == expected[:cut].tobytes()


@pytest.mark.parametrize("token", ["1.7976931348623159e308", "1e999", "-1e999"])
def test_an_overflowing_token_reads_as_non_finite(tmp_path, token):
    text = f"1.0,2.0\n3.0,{token}\n"
    (tmp_path / "f.csv").write_text(text)
    for read in (lambda: signal_from_csv(text), lambda: load_signal(tmp_path / "f.csv")):
        with pytest.raises(FormatError, match="signal CSV has non-finite entries"):
            read()


def test_a_complex_spectrum_file_round_trips(tmp_path):
    rng = np.random.default_rng(11)
    s = Spectrum2D(values=rng.standard_normal((300, 40)) + 1j * rng.standard_normal((300, 40)),
                   lambdas1=np.sort(rng.random(300)), lambdas2=np.sort(rng.random(40)))
    save_spectrum(s, tmp_path / "s.csv")
    back = load_spectrum(tmp_path / "s.csv")
    assert back.values.dtype == np.complex128 and back.values.tobytes() == s.values.tobytes()
    assert back.lambdas1.tobytes() == s.lambdas1.tobytes()
    assert back.lambdas2.tobytes() == s.lambdas2.tobytes()


def grid_rows(n1, n2):
    """Spectrum rows of an n1 x n2 grid in index order, with distinct values."""
    return [[str(k1), str(k2), repr(k1 / 2), repr(k2 / 4), repr(k1 - k2 / 8), "0.0",
             repr((k1 - k2 / 8) ** 2)] for k1 in range(n1) for k2 in range(n2)]


def edited(rows, **cells):
    """A copy of `rows` with cells "r<i>c<j>" replaced."""
    rows = [list(r) for r in rows]
    for name, text in cells.items():
        i, j = map(int, name[1:].split("c"))
        rows[i][j] = text
    return rows


GRID = grid_rows(4, 3)
BIG = grid_rows(100, 50)
ZERO = [r[:2] + ["0.0", "0.0"] + r[4:] for r in GRID]
SPECTRUM_TEXTS = [
    GRID,
    GRID[::-1],
    GRID[5:] + GRID[:5],  # shuffled
    [GRID[0]] + GRID,  # repeated
    GRID[:4] + GRID[5:],  # missing
    GRID[:-1],  # the last missing
    GRID + [["-1", "0", "0.0", "0.0", "1.0", "0.0", "1.0"]],  # negative
    edited(GRID, r3c4="nan"),
    edited(GRID, r3c6="nan"),
    edited(GRID, r4c2="0.75"),  # lambda1 disagrees
    edited(GRID, r4c3="-0.0"),  # lambda2 of k2 = 1 disagrees
    edited(GRID, r0c3="-0.0"),  # -0.0 first: lambda2 of k2 = 0 equals 0.0 and reads as -0.0
    edited(GRID, r5c5="-2.5"),  # complex values
    edited(GRID, r5c5="-0.0"),  # a negative zero imaginary part is zero
    edited(GRID, r4c4="1e999", r4c6="inf"),
    edited(GRID, r9c0="+3"),
    edited(GRID, r9c0=" 3"),
    edited(GRID, r9c0="3.0"),
    edited(GRID, r9c1="0003"),
    edited(GRID, r9c1="3e0"),
    edited(GRID, r2c1="-2"),
    edited(GRID, r2c1="9007199254740993"),
    [r[:6] for r in GRID],
    GRID + [["5"]],
    # 5000 rows: the bulk readers take them in four blocks
    BIG,
    BIG[2500:] + BIG[:2500],
    edited(BIG, r4000c2="-1.5"),  # lambda1 disagrees in a later block
    BIG[:4000] + [BIG[10]] + BIG[4001:],  # repeated in a later block
    ZERO,
    ZERO[:-1] + [ZERO[0]],  # repeated, every eigenvalue the same
    edited(BIG, r4000c0="0x1"),
]


def spectrum_text(rows, end="\n", header=SPECTRUM_HEADER):
    return header + "\n".join(",".join(r) for r in rows) + end


@pytest.mark.parametrize("rows", SPECTRUM_TEXTS)
@pytest.mark.parametrize("end", ["\n", "", "\n\n\n"])
def test_spectrum_file_reader_equals_the_text_reader(tmp_path, rows, end):
    assert_spectrum_readers_agree(tmp_path, spectrum_text(rows, end))


@pytest.mark.parametrize("header", [
    "k1,k2,lambda1,lambda2,re,im,POWER\n", "k1,k2,lambda1,lambda2,re,im,powe\n",
    " " + SPECTRUM_HEADER, "\n" + SPECTRUM_HEADER, SPECTRUM_HEADER.replace("\n", "\r\n"),
    SPECTRUM_HEADER + SPECTRUM_HEADER, SPECTRUM_HEADER + "\n",
])
def test_spectrum_readers_agree_on_the_header(tmp_path, header):
    assert_spectrum_readers_agree(tmp_path, spectrum_text(GRID, header=header))


def spectrum_by_token(text):
    """The spectrum of a spectrum CSV text, read whole and parsed one token at a time:
    the reference that both readers must equal, value for value and error for error."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != transforms._SPECTRUM_HEADER:
        raise FormatError("spectrum CSV missing expected header")
    if len(lines) == 1:
        raise FormatError("spectrum CSV has no data rows")
    entries = {}
    lams = ({}, {})  # k1 -> lambda1, k2 -> lambda2, as first read
    for ln, line in enumerate(lines[1:], start=2):
        tok = line.split(",")
        if len(tok) != 7:
            raise FormatError(f"spectrum CSV line {ln}: expected 7 columns")
        try:
            k, x = (int(tok[0]), int(tok[1])), [float(t) for t in tok[2:]]
        except ValueError as exc:
            raise FormatError(f"spectrum CSV line {ln}: {exc}") from exc
        if min(k) < 0 or k in entries:
            what = "negative" if min(k) < 0 else "repeated"
            raise FormatError(f"spectrum CSV line {ln}: {what} index pair (k1, k2) = {k}")
        if any(map(math.isnan, x)):
            raise FormatError(f"spectrum CSV line {ln}: NaN value")
        for d, (kd, lam, seen) in enumerate(zip(k, x, lams), start=1):
            if seen.setdefault(kd, lam) != lam:
                raise FormatError(f"spectrum CSV line {ln}: lambda{d} = {lam!r} for k{d} = {kd}, "
                                  f"but an earlier row gives {seen[kd]!r}")
        entries[k] = complex(x[2], x[3])
    n1 = 1 + max(lams[0])
    n2 = 1 + max(lams[1])
    if len(entries) != n1 * n2:
        raise FormatError(f"spectrum CSV has {len(entries)} rows, expected {n1 * n2}: "
                          "some (k1, k2) pairs are missing")
    vals = np.zeros((n1, n2), dtype=np.complex128)
    for (k1, k2), z in entries.items():
        vals[k1, k2] = z
    lam1 = np.array([lams[0][k1] for k1 in range(n1)])
    lam2 = np.array([lams[1][k2] for k2 in range(n2)])
    if np.all(vals.imag == 0.0):
        vals = vals.real
    return Spectrum2D(values=vals, lambdas1=lam1, lambdas2=lam2)


def assert_spectrum_readers_agree(tmp_path, text):
    path = tmp_path / "s.csv"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    outcomes = []
    for read in (lambda: spectrum_by_token(text), lambda: spectrum_from_csv(text),
                 lambda: load_spectrum(path)):
        try:
            s = read()
            outcomes.append([(a.shape, a.dtype, a.tobytes())
                             for a in (np.asarray(s.values), s.lambdas1, s.lambdas2)])
        except FormatError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    return outcomes[0]


# Line ends that str.splitlines() cuts at: a file read with universal newlines turns
# "\r" and "\r\n" into "\n" and keeps the others. Whitespace that is not a line end.
LINE_ENDS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
SPACES = [" ", "\t", "\xa0", "\u3000", "\x1f"]
HUGE_INDICES = ["9007199254740993", "9223372036854775809", "18446744073709551617"]


@pytest.mark.parametrize("seed", range(4))
def test_csv_lines_equal_strip_splitlines(tmp_path, seed):
    # from a text and from a file, in and around blank lines and at both ends
    rng = np.random.default_rng(seed)
    alphabet = ["a", "b", ","] + LINE_ENDS + SPACES + ["\u2029", "\x1d", "\x1e"]
    path = tmp_path / "t.csv"
    for _ in range(500):
        text = "".join(rng.choice(alphabet, int(rng.integers(0, 14))))
        expected = text.strip().splitlines()
        assert list(transforms._csv_lines(transforms._text_lines(text))) == expected
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with transforms._utf8_file(path) as f:
            assert list(transforms._csv_lines(f)) == expected


@pytest.mark.parametrize("offset", [8190, 8191, 16383])
def test_bad_utf8_offset_counts_bytes_held_over_a_chunk_boundary(tmp_path, offset):
    # a sequence cut short by the 8 KiB chunk end is decoded with the next chunk, and a
    # two-byte character before it moves every later character by one byte
    body = ("x" * 50 + "\n").encode() * 400
    path = tmp_path / "t.csv"
    for raw, bad, at in ((body[:offset] + b"\xe2\x82" + body[offset:], "0xe2", offset),
                         (body[:offset] + "\u00e9".encode() + body[offset:offset + 900]
                          + b"\xff" + body[offset + 900:], "0xff", offset + 902)):
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"byte {bad} at offset {at}: "):
            with transforms._utf8_file(path) as f:
                list(transforms._csv_lines(f))


def multi_fault_text(rng):
    """A spectrum CSV text of a small grid, with up to four faults or oddities drawn at
    random, blank lines inside and at both ends, and random line ends."""
    rows = grid_rows(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
    if rng.random() < 0.3:
        rows = [rows[i] for i in rng.permutation(len(rows))]
    for _ in range(int(rng.integers(0, 5))):
        if not rows:
            break
        i = int(rng.integers(len(rows)))
        row = list(rows[i])

        def cell(lo, hi):  # a column in [lo, hi) of this row, or its last
            return min(int(rng.integers(lo, hi)), len(row) - 1)

        fault = int(rng.integers(9))
        if fault == 0:  # repeated
            rows.insert(int(rng.integers(i, len(rows) + 1)), row)
        elif fault == 1:  # missing
            del rows[i]
        elif fault == 2:
            row[cell(2, 7)] = "nan"
        elif fault == 3:  # a lambda that disagrees with the first row of its k
            row[cell(2, 4)] = repr(float(rng.random()))
        elif fault == 4:  # a token int() or float() refuses
            row[cell(0, 7)] = str(rng.choice(["x", "1.5", "", "1e", "0x1", "1,2"]))
        elif fault == 5:
            row[cell(0, 2)] = "-1"
        elif fault == 6:  # an index beyond 2**53, 2**63 or 2**64, sometimes repeated
            row[cell(0, 2)] = str(rng.choice(HUGE_INDICES))
            if rng.random() < 0.5:
                rows.insert(int(rng.integers(i + 1, len(rows) + 1)), row)
        elif fault == 7:
            row = row[:6] if rng.random() < 0.5 else row + ["0.0"]
        else:  # no fault: a complex value, or a power that overflows
            row[cell(5, 7)] = str(rng.choice(["-2.5", "inf", "1e999"]))
        if fault > 1:
            rows[i] = row
    lines = [",".join(r) for r in rows]
    blanks = ["", *SPACES, " \t "]
    for _ in range(int(rng.integers(0, 3)) if rng.random() < 0.3 else 0):
        lines.insert(int(rng.integers(len(lines) + 1)), str(rng.choice(blanks)))
    head = " " + SPECTRUM_HEADER.strip() if rng.random() < 0.2 else SPECTRUM_HEADER.strip()
    lines = ([str(rng.choice(blanks)) for _ in range(int(rng.integers(0, 3)))] + [head] + lines
             + [str(rng.choice(blanks)) for _ in range(int(rng.integers(0, 3)))])
    ends = [str(e) for e in rng.choice(LINE_ENDS, len(lines))]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.random() < 0.7 else text[:-1]  # the last line end, or half of one, cut


@pytest.mark.parametrize("seed", range(6))
def test_spectrum_readers_equal_the_reference_on_multi_fault_texts(tmp_path, seed):
    rng = np.random.default_rng(seed)
    outcomes = [assert_spectrum_readers_agree(tmp_path, multi_fault_text(rng))
                for _ in range(150)]
    # the corpus reaches every check: a spectrum, and each kind of error
    words = {"repeated", "missing", "NaN", "lambda1", "lambda2", "invalid literal",
             "could not convert", "negative", "7 columns"}
    assert any(not isinstance(o, str) for o in outcomes)
    assert {w for w in words for o in outcomes if isinstance(o, str) and w in o} == words


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gft_2d_rejects_a_non_finite_signal(bad):
    b1 = laplacian_basis(standard_graph("path", 3))
    b2 = laplacian_basis(standard_graph("path", 4))
    f = np.zeros((3, 4))
    f[1, 2] = bad
    with pytest.raises(DimensionError, match="^signal has non-finite entries$"):
        gft_2d(f, b1, b2)
