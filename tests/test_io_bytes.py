"""Golden byte tests: the array-based writers against per-element oracles.

Each oracle below is the straightforward one-element-at-a-time form of a
writer or of the 1-D aggregation. The library versions format and reduce
in bulk and must produce the same strings and the same floats bit for bit.
"""

import json
import struct
from xml.dom import minidom

import numpy as np
import pytest

from helpers import laplacian_basis, random_connected_graph, traced_peak_mb

import mdgsp.cli as cli
from mdgsp import (
    DimensionError,
    Spectrum2D,
    SpectralGroup,
    aggregate_to_1d,
    aggregate_to_csv,
    build_graph,
    eigenbasis,
    gft_2d,
    matrices,
    load_matrix,
    load_signal,
    load_spectrum,
    save_graph,
    save_matrix,
    save_signal,
    save_spectrum,
    standard_graph,
)
from mdgsp._colormap import VIRIDIS_256
from mdgsp.render import save_spectrum_heatmap_svg, spectrum_heatmap_svg
from mdgsp.spectral import SIGN_EPS, partition_values
from mdgsp.spectral import spectrum_to_csv as eig_to_csv
from mdgsp.transforms import signal_to_csv, spectrum_to_csv


# ---------------------------------------------------------------- oracles


def ref_partition_values(values, tol_mult):
    groups = []
    for k, v in enumerate(values):
        if groups and v - values[groups[-1][-1]] <= tol_mult:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def ref_aggregate_groups(s, tol_mult):
    n2 = s.shape[1]
    sums = np.add.outer(s.lambdas1, s.lambdas2).ravel()
    power = s.power().ravel()
    order = np.argsort(sums, kind="stable")
    groups = []
    for g in ref_partition_values(sums[order], tol_mult):
        flat = order[g]
        groups.append(SpectralGroup(
            frequency=float(np.mean(sums[flat])),
            power=float(np.sum(power[flat])),
            members=[(int(v // n2), int(v % n2)) for v in flat],
        ))
    return groups


def ref_aggregate_to_csv(groups):
    lines = ["frequency,power,size"]
    lines += [f"{g.frequency!r},{g.power!r},{len(g.members)}" for g in groups]
    return "\n".join(lines) + "\n"


def ref_signal_to_csv(f):
    return "\n".join(",".join(repr(float(v)) for v in row) for row in np.asarray(f)) + "\n"


def ref_spectrum_to_csv(s):
    lines = ["k1,k2,lambda1,lambda2,re,im,power"]
    vals = s.values
    for k1 in range(vals.shape[0]):
        for k2 in range(vals.shape[1]):
            v = complex(vals[k1, k2])
            lines.append(
                f"{k1},{k2},{float(s.lambdas1[k1])!r},{float(s.lambdas2[k2])!r},"
                f"{v.real!r},{v.imag!r},{abs(v) ** 2!r}"
            )
    return "\n".join(lines) + "\n"


def ref_eig_to_csv(values):
    lines = ["index,eigenvalue"]
    lines += [f"{k},{float(v)!r}" for k, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def ref_color_for(value, vmax):
    if vmax <= 0.0:
        return VIRIDIS_256[0]
    t = min(max(value / vmax, 0.0), 1.0)
    return VIRIDIS_256[int(round(t * 255))]


def ref_heatmap_svg(s, title=""):
    power = s.power()
    n1, n2 = power.shape
    vmax = float(power.max())
    width = 64 + n1 * 24 + 16
    height = 16 + n2 * 24 + 40
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        out.append(f'<text x="64" y="12" font-family="monospace" font-size="10">{title}</text>')
    for k1 in range(n1):
        for k2 in range(n2):
            x = 64 + k1 * 24
            y = 16 + (n2 - 1 - k2) * 24
            col = ref_color_for(float(power[k1, k2]), vmax)
            out.append(f'<rect x="{x}" y="{y}" width="24" height="24" fill="{col}"/>')
    ybase = 16 + n2 * 24
    for k1 in range(n1):
        x = 64 + k1 * 24 + 12
        out.append(
            f'<text x="{x}" y="{ybase + 12}" font-family="monospace" font-size="8" '
            f'text-anchor="middle">{float(s.lambdas1[k1]):.6g}</text>'
        )
    for k2 in range(n2):
        y = 16 + (n2 - 1 - k2) * 24 + 12 + 3
        out.append(
            f'<text x="58" y="{y}" font-family="monospace" font-size="8" '
            f'text-anchor="end">{float(s.lambdas2[k2]):.6g}</text>'
        )
    out.append(
        f'<text x="{64 + n1 * 24 // 2}" y="{ybase + 28}" font-family="monospace" '
        f'font-size="9" text-anchor="middle">frequency along factor 1</text>'
    )
    out.append(
        f'<text x="12" y="{16 + n2 * 24 // 2}" font-family="monospace" font-size="9" '
        f'text-anchor="middle" transform="rotate(-90 12 {16 + n2 * 24 // 2})">'
        f"frequency along factor 2</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def ref_sign_rule(m):
    values, vectors = np.linalg.eigh(np.asarray(m, dtype=np.float64))
    order = np.argsort(values, kind="stable")
    vectors = vectors[:, order].copy()
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        lead = np.nonzero(np.abs(col) > SIGN_EPS)[0]
        if lead.size and col[lead[0]] < 0:
            vectors[:, k] = -col
    return vectors


# ---------------------------------------------------------------- inputs


def random_spectrum(seed, n1=9, n2=7):
    rng = np.random.default_rng(seed)
    b1 = laplacian_basis(random_connected_graph(rng, n1))
    b2 = laplacian_basis(random_connected_graph(rng, n2))
    return gft_2d(rng.standard_normal((n1, n2)), b1, b2)


def path_spectrum(n, seed=0):
    b = laplacian_basis(standard_graph("path", n))
    f = np.random.default_rng(seed).standard_normal((n, n))
    return gft_2d(f, b, b)


def complex_spectrum():
    vals = np.array([[complex(1.5, -2.25), complex(-0.0, 0.0), complex(0.0, -0.0)],
                     [complex(3e-300, 1e100), complex(-1.0 / 3.0, 0.1), complex(2.0 ** 0.5, -0.0)]])
    return Spectrum2D(values=vals, lambdas1=np.array([0.0, 1.0 / 3.0]),
                      lambdas2=np.array([-0.0, 1.0, 1.0 + 1e-12]))


def assert_aggregate_matches(s, tol_mult):
    grp = aggregate_to_1d(s, tol_mult)
    ref = ref_aggregate_groups(s, tol_mult)
    assert aggregate_to_csv(grp) == ref_aggregate_to_csv(ref)
    assert grp.frequencies().tolist() == [g.frequency for g in ref]
    assert grp.powers().tolist() == [g.power for g in ref]
    return grp, ref


# ---------------------------------------------------------------- writers


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_real_spectrum_writers_match_oracles(seed):
    s = random_spectrum(seed)
    assert spectrum_to_csv(s) == ref_spectrum_to_csv(s)
    assert signal_to_csv(s.values) == ref_signal_to_csv(s.values)
    assert eig_to_csv(s.lambdas1) == ref_eig_to_csv(s.lambdas1)
    assert_aggregate_matches(s, 1e-8)
    assert spectrum_heatmap_svg(s, title="f.csv") == ref_heatmap_svg(s, title="f.csv")
    assert spectrum_heatmap_svg(s) == ref_heatmap_svg(s)


def test_complex_spectrum_csv_matches_oracle():
    s = complex_spectrum()
    text = spectrum_to_csv(s)
    assert text == ref_spectrum_to_csv(s)
    assert "0,1,0.0,1.0,-0.0,0.0,0.0\n" in text  # signed zeros kept apart
    assert "0,2,0.0,1.000000000001,0.0,-0.0,0.0\n" in text
    assert "0,0,0.0,-0.0," in text  # -0.0 eigenvalue printed as such
    assert_aggregate_matches(s, 1e-8)
    assert_aggregate_matches(s, 1e-3)
    assert spectrum_heatmap_svg(s, title="c") == ref_heatmap_svg(s, title="c")


def test_power_column_is_python_pow_not_a_square():
    # libm pow(|v|, 2) and |v| * |v| disagree in the last digit on a few
    # rows in 10^4; the power column keeps the former
    rng = np.random.default_rng(4)
    s = Spectrum2D(values=rng.standard_normal((100, 100)), lambdas1=np.sort(rng.random(100)),
                   lambdas2=np.sort(rng.random(100)))
    assert spectrum_to_csv(s) == ref_spectrum_to_csv(s)


def test_power_column_overflows_to_inf_and_keeps_finite_rows():
    rng = np.random.default_rng(6)
    values = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    finite = Spectrum2D(values=values.copy(), lambdas1=np.sort(rng.random(4)),
                        lambdas2=np.sort(rng.random(5)))
    values[0] = [1e200, -1e200j, 1e154 + 1e154j, 1e308 + 1e308j, 1e150]
    huge = Spectrum2D(values=values, lambdas1=finite.lambdas1, lambdas2=finite.lambdas2)
    got = spectrum_to_csv(huge).splitlines()
    want = ref_spectrum_to_csv(finite).splitlines()
    assert got[:1] + got[6:] == want[:1] + want[6:]  # header and rows k1 >= 1
    assert [line.rsplit(",", 1)[1] for line in got[1:6]] == [
        "inf", "inf", "inf", "inf", repr(abs(1e150) ** 2)]
    assert got[4].split(",")[4:6] == ["1e+308", "1e+308"]


def test_signal_csv_negative_zero_and_single_column():
    f = np.array([[-0.0], [0.0], [1e-310], [-2.5e17], [0.1 + 0.2]])
    expected = "-0.0\n0.0\n1e-310\n-2.5e+17\n0.30000000000000004\n"
    assert signal_to_csv(f) == ref_signal_to_csv(f) == expected
    row = np.array([[-0.0, 1.0, -1.0 / 3.0]])
    assert signal_to_csv(row) == ref_signal_to_csv(row)
    ints = np.arange(6).reshape(2, 3)
    assert signal_to_csv(ints) == ref_signal_to_csv(ints)
    assert eig_to_csv([0, -0.0, 2]) == ref_eig_to_csv([0, -0.0, 2])


def test_all_zero_signal_writers():
    b = laplacian_basis(standard_graph("path", 5))
    s = gft_2d(np.zeros((5, 5)), b, b)
    assert float(s.power().max()) == 0.0
    svg = spectrum_heatmap_svg(s, title="zero")
    assert svg == ref_heatmap_svg(s, title="zero")
    cells = [ln for ln in svg.splitlines() if 'width="24"' in ln]
    assert len(cells) == 25 and all(VIRIDIS_256[0] in c for c in cells)
    assert spectrum_to_csv(s) == ref_spectrum_to_csv(s)
    assert_aggregate_matches(s, 1e-8)


@pytest.mark.parametrize("shape", [(7, 5), (1, 6), (6, 1), (0, 4), (0, 0), (3, 0)])
def test_streamed_signal_file_equals_its_text(tmp_path, shape):
    f = np.random.default_rng(3).standard_normal(shape) * 1e3
    f[..., :1] = -0.0
    save_signal(f, tmp_path / "f.csv")
    text = signal_to_csv(f)
    assert (tmp_path / "f.csv").read_bytes() == text.encode()
    assert text == ref_signal_to_csv(f)  # a zero-row signal is "\n"


def test_streamed_spectrum_file_equals_its_text(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
    values[0, :3] = [-0.0, 1e200, 1e308 + 1e308j]  # -0.0 and two overflowing powers
    cases = [random_spectrum(3), complex_spectrum(),
             Spectrum2D(values=values, lambdas1=np.sort(rng.random(5)),
                        lambdas2=np.array([-0.0, 0.5, 1.0, 2.0])),
             Spectrum2D(values=np.zeros((0, 3)), lambdas1=np.zeros(0), lambdas2=np.ones(3))]
    for s in cases:
        save_spectrum(s, tmp_path / "s.csv")
        text = spectrum_to_csv(s)
        assert (tmp_path / "s.csv").read_bytes() == text.encode()
        if s is not cases[2]:  # the oracle's abs(v) ** 2 raises where the power overflows
            assert text == ref_spectrum_to_csv(s)
    assert (tmp_path / "s.csv").read_text() == "k1,k2,lambda1,lambda2,re,im,power\n"
    assert spectrum_to_csv(cases[2]).count(",inf\n") == 2


def test_spectrum_writer_with_no_columns_writes_the_header(tmp_path):
    s = Spectrum2D(values=np.zeros((3, 0)), lambdas1=np.arange(3.0), lambdas2=np.zeros(0))
    save_spectrum(s, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text() == spectrum_to_csv(s) == ref_spectrum_to_csv(s)


def test_spectrum_writer_rejects_a_shape_mismatch_before_writing(tmp_path):
    s = Spectrum2D(values=np.ones((2, 3)), lambdas1=np.zeros(2), lambdas2=np.zeros(2))
    with pytest.raises(DimensionError):
        save_spectrum(s, tmp_path / "s.csv")
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("shape", [(4, 3), (1, 1), (0, 5)])
def test_streamed_matrix_file_is_header_then_bytes(tmp_path, shape):
    m = np.random.default_rng(2).standard_normal(shape)
    m[..., :1] = -0.0
    save_matrix(m, tmp_path / "m.mat")
    want = b"MDGSPMAT" + struct.pack("<II", *shape) + m.astype("<f8").tobytes()
    assert (tmp_path / "m.mat").read_bytes() == want
    back = load_matrix(tmp_path / "m.mat")
    assert np.array_equal(back, m) and np.array_equal(np.signbit(back), np.signbit(m))


def test_writers_stream_without_building_the_text(tmp_path):
    # the whole 1000 x 100 text is 2 MB for the signal and 30 MB for the spectrum
    rng = np.random.default_rng(9)
    f = rng.standard_normal((1000, 100))
    s = Spectrum2D(values=f, lambdas1=np.sort(rng.random(1000)),
                   lambdas2=np.sort(rng.random(100)))
    assert traced_peak_mb(lambda: save_signal(f, tmp_path / "f.csv")) < 2
    assert traced_peak_mb(lambda: save_spectrum(s, tmp_path / "s.csv")) < 2
    m = rng.standard_normal((500, 500))  # 2 MB
    assert traced_peak_mb(lambda: save_matrix(m, tmp_path / "m.mat")) < 1


def test_heatmap_chunks_match_the_oracle_across_blocks(tmp_path):
    # 150 rows span three chunks of cells; the scale's maximum and an overflowing
    # power sit in the last one
    rng = np.random.default_rng(13)
    values = rng.standard_normal((150, 7)) + 1j * rng.standard_normal((150, 7))
    s = Spectrum2D(values=values, lambdas1=np.sort(rng.random(150)), lambdas2=np.arange(7.0))
    assert spectrum_heatmap_svg(s, title="f") == ref_heatmap_svg(s, title="f")
    values[140, 3] = 50.0
    assert spectrum_heatmap_svg(s) == ref_heatmap_svg(s)
    values[149, 6] = 1e200  # its power is inf: the top of the scale, the rest at the bottom
    save_spectrum_heatmap_svg(s, tmp_path / "h.svg")
    assert (tmp_path / "h.svg").read_text() == spectrum_heatmap_svg(s)
    assert spectrum_heatmap_svg(s).count(VIRIDIS_256[0]) == 150 * 7 - 1


def test_heatmap_writer_streams_the_file(tmp_path):
    # the 1000 x 100 heatmap is 6.2 MB of text; built whole, the peak was 25.7 MiB
    rng = np.random.default_rng(9)
    s = Spectrum2D(values=rng.standard_normal((1000, 100)), lambdas1=np.sort(rng.random(1000)),
                   lambdas2=np.sort(rng.random(100)))
    path = tmp_path / "h.svg"
    assert traced_peak_mb(lambda: save_spectrum_heatmap_svg(s, path, title="f.csv")) < 4
    assert path.read_text() == spectrum_heatmap_svg(s, title="f.csv")


def test_signal_reader_streams_the_file(tmp_path):
    # a 1000 x 100 signal is 0.76 MiB as an array and 2 MB as text
    f = np.random.default_rng(10).standard_normal((1000, 100))
    save_signal(f, tmp_path / "f.csv")
    assert np.array_equal(load_signal(tmp_path / "f.csv"), f)
    assert traced_peak_mb(lambda: load_signal(tmp_path / "f.csv")) <= 2


def test_spectrum_reader_holds_a_fraction_of_the_text(tmp_path):
    # this 1000 x 100 spectrum is 8.8 MB as text; read whole and parsed row by row,
    # the peak was 39.5 MiB, and read in bulk it is 7.6 MiB, most of it the parsed
    # (rows, 7) table
    rng = np.random.default_rng(9)
    s = Spectrum2D(values=rng.standard_normal((1000, 100)), lambdas1=np.sort(rng.random(1000)),
                   lambdas2=np.sort(rng.random(100)))
    save_spectrum(s, tmp_path / "s.csv")
    back = load_spectrum(tmp_path / "s.csv")
    assert back.values.tobytes() == s.values.tobytes()
    assert traced_peak_mb(lambda: load_spectrum(tmp_path / "s.csv")) <= 10


def test_spectrum_reader_streams_a_file_with_an_inf_power(tmp_path):
    # the spectrum above with one power that overflows: "inf" made the file one that
    # was read whole, at a peak of 39.5 MiB
    rng = np.random.default_rng(9)
    values = rng.standard_normal((1000, 100))
    values[500, 50] = 1e200
    s = Spectrum2D(values=values, lambdas1=np.sort(rng.random(1000)),
                   lambdas2=np.sort(rng.random(100)))
    path = tmp_path / "s.csv"
    save_spectrum(s, path)
    assert path.read_text().count(",inf\n") == 1
    assert load_spectrum(path).values.tobytes() == values.tobytes()
    assert traced_peak_mb(lambda: load_spectrum(path)) <= 10


def test_signal_reader_streams_a_file_that_is_not_plain(tmp_path):
    # ", " separators are not plain; read whole, the peak was 4.1 MiB, and streamed it
    # is 1.9 MiB: the parsed rows and the (1000, 100) array built from them
    f = np.random.default_rng(10).standard_normal((1000, 100))
    path = tmp_path / "f.csv"
    path.write_text("".join(", ".join(map(repr, row)) + "\n" for row in f.tolist()))
    assert load_signal(path).tobytes() == f.tobytes()
    assert traced_peak_mb(lambda: load_signal(path)) <= 2.4


# ---------------------------------------------------------------- aggregation


@pytest.mark.parametrize("n", [6, 12, 20])
@pytest.mark.parametrize("tol_mult", [1e-8, 1e-3, 0.1, 0.3])
def test_path_grid_aggregation_bit_identical(n, tol_mult):
    assert_aggregate_matches(path_spectrum(n), tol_mult)


def test_large_groups_reduce_like_one_group_at_a_time():
    # groups above 8 members are where numpy's sums go pairwise; at tol 0.3
    # the 12x12 path grid is one 144-member group, at 0.1 it mixes sizes
    grp, _ = assert_aggregate_matches(path_spectrum(12, seed=5), 0.3)
    assert grp.sizes.tolist() == [144]
    grp, _ = assert_aggregate_matches(path_spectrum(12, seed=5), 0.1)
    assert max(grp.sizes) > 8 and len(set(grp.sizes.tolist())) > 8
    grp, _ = assert_aggregate_matches(path_spectrum(20, seed=5), 0.1)
    assert max(grp.sizes) > 128


def test_group_view_is_lazy_sequence_of_reference_groups():
    s = path_spectrum(12, seed=3)
    grp = aggregate_to_1d(s, 1e-3)
    ref = ref_aggregate_groups(s, 1e-3)
    view = grp.groups
    assert len(view) == len(ref)
    assert list(view) == ref
    assert view[-1] == ref[-1]
    assert view[1:4] == ref[1:4]
    assert all(isinstance(m, int) for g in view for pair in g.members for m in pair)
    with pytest.raises(IndexError):
        view[len(ref)]


def test_partition_values_matches_loop():
    rng = np.random.default_rng(7)
    for tol in (0.0, 1e-8, 0.05, 0.5):
        values = np.sort(np.round(rng.random(60) * 4, 1))
        assert partition_values(values, tol) == ref_partition_values(values, tol)
    assert partition_values(np.array([]), 1e-8) == []
    assert partition_values(np.array([3.0]), 1e-8) == [[0]]


# ---------------------------------------------------------------- eigenbasis


def test_sign_rule_matches_column_loop():
    rng = np.random.default_rng(11)
    # a disconnected graph gives eigenvectors with exact leading zeros
    split = build_graph(6, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 1.0), (4, 5, 0.5)])
    for g in (random_connected_graph(rng, 30), standard_graph("cycle", 8), split):
        L = matrices(g).L
        assert np.array_equal(eigenbasis(L, "laplacian").vectors, ref_sign_rule(L))


def ref_eigenbasis(m, source):
    values = np.linalg.eigh(np.asarray(m, dtype=np.float64))[0]
    values = values[np.argsort(values, kind="stable")].copy()
    if source == "laplacian":
        values[np.abs(values) <= 1e-10] = 0.0
    return values, ref_sign_rule(m)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_eigenbasis_equals_the_sorted_copied_route(seed):
    # eigh's output is already ascending and owned, so eigenbasis neither
    # sorts nor copies it; ties (cycle, complete graph) keep eigh's order
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((40, 40))
    cases = [(a + a.T, "adjacency"), (matrices(random_connected_graph(rng, 25)).L, "laplacian"),
             (matrices(standard_graph("cycle", 12)).L, "laplacian"),
             (matrices(standard_graph("complete", 9)).L, "laplacian"),
             (matrices(standard_graph("cycle", 12)).W, "adjacency")]
    for m, source in cases:
        b = eigenbasis(m, source)
        values, vectors = ref_eigenbasis(m, source)
        assert np.array_equal(b.values, values) and np.array_equal(b.vectors, vectors)
        for got in (b.values, b.vectors):
            assert got.dtype == np.float64 and not got.flags.writeable
            assert got.flags.c_contiguous


# ---------------------------------------------------------------- SVG title


def test_svg_title_is_escaped_and_parses():
    s = random_spectrum(0, n1=3, n2=2)
    svg = spectrum_heatmap_svg(s, title="a&b<c>.csv")
    assert "a&amp;b&lt;c&gt;.csv" in svg
    doc = minidom.parseString(svg)
    texts = [t.firstChild.data for t in doc.getElementsByTagName("text")]
    assert texts[0] == "a&b<c>.csv"


def test_gft_command_with_markup_in_signal_name(tmp_path):
    save_graph(standard_graph("path", 3), tmp_path / "g1.json")
    save_graph(standard_graph("cycle", 4), tmp_path / "g2.json")
    signal = tmp_path / "a&b<c.csv"
    save_signal(np.random.default_rng(0).standard_normal((3, 4)), signal)
    svg = tmp_path / "s.svg"
    assert cli.main(["gft", "--g1", str(tmp_path / "g1.json"), "--g2", str(tmp_path / "g2.json"),
                     "--signal", str(signal), "--out", str(tmp_path / "s.csv"),
                     "--svg", str(svg)]) == 0
    doc = minidom.parseString(svg.read_text())
    assert doc.getElementsByTagName("text")[0].firstChild.data == "a&b<c.csv"


# ---------------------------------------------------------------- filter


@pytest.mark.parametrize("kernel, calls", [
    ({"kind": "polynomial", "coeffs": [[0.5, 1.0], [1.0, 0.0]]}, 0),
    ({"kind": "heat", "params": {"tau1": 0.5, "tau2": 0.5}}, 2),
])
def test_filter_computes_eigenbases_only_for_spectral_kernels(tmp_path, monkeypatch,
                                                               kernel, calls):
    save_graph(standard_graph("path", 4), tmp_path / "g1.json")
    save_graph(standard_graph("cycle", 5), tmp_path / "g2.json")
    save_signal(np.random.default_rng(1).standard_normal((4, 5)), tmp_path / "f.csv")
    (tmp_path / "k.json").write_text(json.dumps(kernel))
    seen = []

    def counting_eigenbasis(m, source):
        seen.append(source)
        return eigenbasis(m, source)

    monkeypatch.setattr(cli, "eigenbasis", counting_eigenbasis)
    assert cli.main(["filter", "--g1", str(tmp_path / "g1.json"),
                     "--g2", str(tmp_path / "g2.json"), "--signal", str(tmp_path / "f.csv"),
                     "--kernel", str(tmp_path / "k.json"), "--out",
                     str(tmp_path / "out.csv")]) == 0
    assert len(seen) == calls
