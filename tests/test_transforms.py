"""1-D/2-D/n-D/adjacency/multivariate transforms and spectrum grouping."""

import numpy as np
import pytest

from helpers import distinct_spectrum_graph, laplacian_basis, random_graph

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
