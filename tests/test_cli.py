"""Command-line pipelines: outputs, manifests, determinism, exit codes."""

import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import mdgsp
from mdgsp import (
    DimensionError,
    FormatError,
    GraphError,
    KernelError,
    MdgspError,
    SamplingError,
    Spectrum2D,
    SpectrumError,
    load_graph,
    load_signal,
    load_spectrum,
    DirectionalProcess,
    gft_2d,
    matrices,
    sample_directional,
    save_graph,
    save_signal,
    save_spectrum,
    standard_graph,
    total_directional_variation,
)
from mdgsp import test_directional_stationarity as directional_report
from mdgsp import test_fgw_stationarity as fgw_report
from mdgsp.cli import main
from helpers import laplacian_basis, random_connected_graph, sensor_graph, traced_peak_mb


@pytest.fixture
def workdir(tmp_path):
    g1 = standard_graph("path", 3)
    g2 = standard_graph("path", 4)
    save_graph(g1, tmp_path / "g1.json")
    save_graph(g2, tmp_path / "g2.json")
    rng = np.random.default_rng(0)
    save_signal(rng.standard_normal((3, 4)), tmp_path / "f.csv")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_product_command(workdir):
    out = workdir / "prod.json"
    assert run("product", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--out", out) == 0
    g = load_graph(out)
    assert g.n == 12
    assert g.edge_count == 4 * 2 + 3 * 3
    manifest = json.loads((workdir / "prod.json.manifest.json").read_text())
    assert manifest["command"] == "product"
    assert manifest["tool_version"]


def test_eig_command_and_basis_export(workdir):
    out = workdir / "spec.csv"
    basis_out = workdir / "basis.mat"
    assert run("eig", "--g1", workdir / "g1.json", "--out", out,
               "--basis-out", basis_out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,eigenvalue"
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert values == sorted(values)
    from mdgsp import load_matrix

    U = load_matrix(basis_out)
    assert U.shape == (3, 3)
    assert np.abs(U.T @ U - np.eye(3)).max() < 1e-10


def test_gft_command_round_trip_and_svg(workdir):
    out = workdir / "spec.csv"
    svg = workdir / "heat.svg"
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--out", out, "--svg", svg) == 0
    s = load_spectrum(out)
    f = load_signal(workdir / "f.csv")
    b1 = laplacian_basis(standard_graph("path", 3))
    b2 = laplacian_basis(standard_graph("path", 4))
    from mdgsp import inverse_gft_2d

    assert np.abs(inverse_gft_2d(s, b1, b2) - f).max() < 1e-10
    body = svg.read_text()
    assert body.startswith("<?xml") and body.rstrip().endswith("</svg>")
    assert body.count("<rect") == 12 + 1  # cells plus background


def test_constant_signal_spectrum_single_cell(workdir):
    save_signal(np.ones((3, 4)), workdir / "const.csv")
    out = workdir / "spec.csv"
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "const.csv", "--out", out) == 0
    s = load_spectrum(out)
    p = s.power()
    assert p[0, 0] == pytest.approx(12.0, rel=1e-9)
    assert p.sum() == pytest.approx(12.0, rel=1e-9)


def test_byte_identical_reruns(workdir):
    out1 = workdir / "a.csv"
    out2 = workdir / "b.csv"
    for out in (out1, out2):
        assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
                   "--signal", workdir / "f.csv", "--out", out) == 0
    assert out1.read_bytes() == out2.read_bytes()
    svg1 = workdir / "a.svg"
    svg2 = workdir / "b.svg"
    for svg in (svg1, svg2):
        assert run("render", "--spectrum", out1, "--svg", svg) == 0
    assert svg1.read_bytes() == svg2.read_bytes()


def test_filter_command_heat_kernel(workdir):
    kpath = workdir / "k.json"
    kpath.write_text(json.dumps({"kind": "heat", "params": {"tau1": 1e3, "tau2": 1e3}}))
    out = workdir / "smooth.csv"
    assert run("filter", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--kernel", kpath, "--out", out) == 0
    f = load_signal(workdir / "f.csv")
    got = load_signal(out)
    assert np.abs(got - f.mean()).max() < 1e-6


def test_filter_command_polynomial(workdir):
    kpath = workdir / "k.json"
    kpath.write_text(json.dumps({"kind": "polynomial", "coeffs": [[0.0], [1.0]]}))
    out = workdir / "l1f.csv"
    assert run("filter", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--kernel", kpath, "--out", out) == 0
    f = load_signal(workdir / "f.csv")
    L1 = matrices(standard_graph("path", 3)).L
    assert np.abs(load_signal(out) - L1 @ f).max() < 1e-10


def test_filter_padded_polynomial_writes_the_same_bytes(tmp_path):
    # trailing zero coefficients are never evaluated, whatever the padding
    save_graph(standard_graph("path", 12), tmp_path / "g1.json")
    save_graph(standard_graph("cycle", 9), tmp_path / "g2.json")
    save_signal(np.random.default_rng(3).standard_normal((12, 9)), tmp_path / "f.csv")
    H = np.array([[0.5, 0.2, 0.01], [0.3, -0.1, 0.0]])
    outputs = []
    for name, coeffs in [("plain", H), ("rows", np.pad(H, ((0, 10), (0, 0)))),
                         ("columns", np.pad(H, ((0, 0), (0, 6)))),
                         ("both", np.pad(H, ((0, 10), (0, 6))))]:
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"kind": "polynomial", "coeffs": coeffs.tolist()}))
        out = tmp_path / f"{name}.csv"
        assert run("filter", "--g1", tmp_path / "g1.json", "--g2", tmp_path / "g2.json",
                   "--signal", tmp_path / "f.csv", "--kernel", tmp_path / f"{name}.json",
                   "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[1:] == outputs[:1] * 3


def test_stationarity_synthesizes_a_degree_one_process_on_a_long_path(tmp_path):
    # 600 coefficient matrices, all zero after H_1: the padded powers of the path
    # Laplacian overflow, so only the true degree may be evaluated
    Hs = np.zeros((600, 2, 2))
    Hs[0] = [[1.0, 0.2], [0.0, 1.0]]
    Hs[1] = [[0.3, 0.0], [0.1, -0.2]]
    save_graph(standard_graph("path", 600), tmp_path / "g1.json")
    save_graph(standard_graph("path", 2), tmp_path / "g2.json")
    (tmp_path / "c.json").write_text(json.dumps({"hs": Hs.tolist()}))
    out = tmp_path / "x.npy"
    assert run("stationarity", "--mode", "synthesize", "--kind", "dir1",
               "--g1", tmp_path / "g1.json", "--g2", tmp_path / "g2.json",
               "--coeffs", tmp_path / "c.json", "--samples", 40, "--seed", 5,
               "--out", out, "--report", tmp_path / "r.json") == 0
    L = matrices(standard_graph("path", 600)).L
    want = sample_directional(DirectionalProcess(1, Hs), L, 5, 40)
    assert np.array_equal(np.load(out), want) and np.isfinite(want).all()


def test_denoise_pipeline_reduces_both_variations(workdir):
    rng = np.random.default_rng(5)
    g1 = standard_graph("path", 3)
    g2 = standard_graph("path", 4)
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    smooth = np.outer(b1.vectors[:, 0], b2.vectors[:, 0]) + 0.3 * np.outer(
        b1.vectors[:, 1], b2.vectors[:, 1])
    noisy = smooth + 0.4 * rng.standard_normal((3, 4))
    save_signal(noisy, workdir / "y.csv")
    out = workdir / "xopt.csv"
    report = workdir / "report.json"
    assert run("denoise", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--observation", workdir / "y.csv", "--p", 2, "--q1", 2, "--q2", 2,
               "--gamma1", 0.5, "--gamma2", 0.5, "--out", out, "--report", report) == 0
    x = load_signal(out)
    for d in (1, 2):
        before = total_directional_variation(noisy, g1, g2, d, b1, b2).total
        after = total_directional_variation(x, g1, g2, d, b1, b2).total
        assert after < before
    rep = json.loads(report.read_text())
    assert rep["solves"][0]["method"] == "closed_form"
    assert rep["solves"][0]["converged"]


def test_denoise_gamma_sweep(workdir):
    save_signal(np.random.default_rng(1).standard_normal((3, 4)), workdir / "y.csv")
    out = workdir / "x.csv"
    report = workdir / "sweep.json"
    assert run("denoise", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--observation", workdir / "y.csv", "--gamma1", "0.1,1.0",
               "--gamma2", "0.2", "--out", out, "--report", report) == 0
    rep = json.loads(report.read_text())
    assert len(rep["solves"]) == 2
    from pathlib import Path

    for entry in rep["solves"]:
        assert Path(entry["out"]).exists()


def _sweep_workdir(tmp_path, n1=7, n2=6, seed=3):
    rng = np.random.default_rng(seed)
    save_graph(random_connected_graph(rng, n1), tmp_path / "g1.json")
    save_graph(standard_graph("cycle", n2), tmp_path / "g2.json")
    save_signal(rng.standard_normal((n1, n2)), tmp_path / "y.csv")
    return ("denoise", "--g1", tmp_path / "g1.json", "--g2", tmp_path / "g2.json",
            "--observation", tmp_path / "y.csv")


def _assert_sweep_equals_one_point_runs(tmp_path, *options):
    denoise = (*_sweep_workdir(tmp_path), *options)
    assert run(*denoise, "--gamma1", "0.3,2", "--gamma2", "0,0.5,4",
               "--out", tmp_path / "x.csv", "--report", tmp_path / "sweep.json") == 0
    solves = json.loads((tmp_path / "sweep.json").read_text())["solves"]
    assert [(e["gamma1"], e["gamma2"]) for e in solves] == [
        (a, b) for a in (0.3, 2.0) for b in (0.0, 0.5, 4.0)]
    for i, entry in enumerate(solves):
        one = tmp_path / f"one{i}.csv"
        assert run(*denoise, "--gamma1", entry["gamma1"], "--gamma2", entry["gamma2"],
                   "--out", one, "--report", tmp_path / f"one{i}.json") == 0
        assert Path(entry["out"]).read_bytes() == one.read_bytes()
        (single,) = json.loads((tmp_path / f"one{i}.json").read_text())["solves"]
        assert {**single, "out": entry["out"]} == entry
    return solves


def test_closed_form_sweep_equals_one_point_runs(tmp_path):
    _assert_sweep_equals_one_point_runs(tmp_path)


@pytest.mark.parametrize("exponent", ["1.5", "1"])
def test_gradient_sweep_equals_one_point_runs(tmp_path, exponent):
    solves = _assert_sweep_equals_one_point_runs(tmp_path, "--q1", exponent, "--q2", exponent)
    assert {e["method"] for e in solves} == {"gradient" if exponent == "1.5" else "dual"}


def test_closed_form_sweep_transforms_the_observation_once(tmp_path, monkeypatch):
    import mdgsp.cli as cli
    import mdgsp.denoise as denoise_module
    from mdgsp import eigenbasis

    calls = []

    def counting_gft(f, b1, b2):
        calls.append("gft_2d")
        return gft_2d(f, b1, b2)

    def counting_eigenbasis(m, source):
        calls.append("eigenbasis")
        return eigenbasis(m, source)

    for module in (cli, denoise_module):
        monkeypatch.setattr(module, "gft_2d", counting_gft)
        monkeypatch.setattr(module, "eigenbasis", counting_eigenbasis)
    assert run(*_sweep_workdir(tmp_path), "--gamma1", "0.3,2", "--gamma2", "0.1,0.5,4",
               "--out", tmp_path / "x.csv") == 0
    assert sorted(calls) == ["eigenbasis", "eigenbasis", "gft_2d"]


def _sweep_peak_growth_mb(tmp_path, *options):
    """Growth of the traced peak of one `denoise` sweep with `options`, in MiB per point:
    the least-squares slope over sweeps of 2, 6, 12 and 24 points.

    The largest sweep runs once untraced first, so the float encoder's tables and
    the interpreter's free lists are full. The garbage collector is off while a sweep
    is traced: a full collection empties the free lists, and their refill during one
    run added up to 0.1 MiB to its peak, two minimizers' worth.
    """
    denoise = (*_sweep_workdir(tmp_path, n1=120, n2=50), *options)

    def sweep(points):
        gammas1 = ",".join(f"{0.5 * (k + 1):g}" for k in range(points // 2))
        # a gradient sweep cut short by --max-iter exits 5; its outputs are still written
        return lambda: run(*denoise, "--gamma1", gammas1, "--gamma2", "0.1,0.7",
                           "--out", tmp_path / "x.csv")

    points = [2, 6, 12, 24]
    sweep(points[-1])()
    gc.disable()
    try:
        peaks = [traced_peak_mb(sweep(p)) for p in points]
    finally:
        gc.enable()
    return np.polyfit(points, peaks, 1)[0]


# a sweep may not keep even one more 120 x 50 minimizer alive per ten points
MINIMIZER_PER_TEN_POINTS_MB = 120 * 50 * 8 / 2**20 / 10


def test_closed_form_sweep_memory_does_not_grow_with_points(tmp_path):
    assert _sweep_peak_growth_mb(tmp_path) < MINIMIZER_PER_TEN_POINTS_MB


def test_gradient_sweep_memory_does_not_grow_with_points(tmp_path, monkeypatch):
    # with two threads allowed, a sweep that solved points side by side would hold
    # more than one minimizer; the iteration cap sets how long a point runs, not
    # what it keeps
    monkeypatch.setenv("MDGSP_THREADS", "2")
    growth = _sweep_peak_growth_mb(tmp_path, "--q1", "1.5", "--q2", "1.5", "--max-iter", 5)
    assert growth < MINIMIZER_PER_TEN_POINTS_MB


def test_sweep_memory_check_rejects_a_sweep_that_keeps_every_minimizer(tmp_path, monkeypatch):
    # negative control of the two tests above
    import mdgsp.cli as cli

    kept, save = [], cli.save_signal

    def keeping(f, path):
        kept.append(f)
        save(f, path)

    monkeypatch.setattr(cli, "save_signal", keeping)
    assert _sweep_peak_growth_mb(tmp_path) >= MINIMIZER_PER_TEN_POINTS_MB


@pytest.mark.parametrize("gamma1, message", [
    ("0.1234567,0.1234568", "writes x-g1_0.123457-g2_0.5.csv more than once"),
    ("1,1", "writes x-g1_1-g2_0.5.csv more than once"),
    (",", "the gamma sweep is empty"),
    ("nan", "gamma 'nan' is not a finite number"),
    ("0.5,-inf", "gamma '-inf' is not a finite number"),
    ("half", "gamma 'half' is not a finite number"),
])
def test_unusable_gamma_sweep_is_a_usage_error(workdir, capsys, gamma1, message):
    before = sorted(workdir.iterdir())
    assert run("denoise", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--observation", workdir / "f.csv", "--gamma1", gamma1, "--gamma2", "0.5",
               "--out", workdir / "x.csv", "--report", workdir / "sweep.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[usage]: ") and message in err
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("option, value", [
    ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-1"), ("--tol", "0"),
    ("--max-iter", "0"), ("--max-iter", "-5"),
])
def test_unusable_solver_limit_is_a_usage_error(workdir, capsys, option, value):
    before = sorted(workdir.iterdir())
    assert run("denoise", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--observation", workdir / "f.csv", "--q1", "1.5", "--gamma1", "0.5",
               option, value, "--out", workdir / "x.csv", "--report", workdir / "r.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mdgsp: error[usage]: {option} must be a finite number > 0")
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("option, value, code, message", [
    ("--gamma2", "inf", 2, "error[usage]: gamma 'inf' is not a finite number"),
    ("--q1", "nan", 3, "must be finite"),
])
def test_nonfinite_denoise_parameter_is_refused(workdir, capsys, option, value, code, message):
    before = sorted(workdir.iterdir())
    assert run("denoise", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--observation", workdir / "f.csv", "--gamma1", "0.5", option, value,
               "--out", workdir / "x.csv", "--report", workdir / "sweep.json") == code
    assert message in capsys.readouterr().err
    assert sorted(workdir.iterdir()) == before


@pytest.mark.parametrize("options", [
    (),
    ("--q1", "1.5", "--q2", "1.5", "--gamma1", "0.3", "--gamma2", "0.5"),
    ("--force-gradient", "--gamma1", "0.3", "--gamma2", "0.5"),
], ids=["default-gammas", "q-1.5", "force-gradient"])
def test_denoise_decomposes_only_for_a_regularized_closed_form_point(tmp_path, monkeypatch,
                                                                     options):
    import mdgsp.cli as cli
    import mdgsp.denoise as denoise_module
    from mdgsp import eigenbasis

    calls = []

    def counting_eigenbasis(m, source):
        calls.append("eigenbasis")
        return eigenbasis(m, source)

    for module in (cli, denoise_module):
        monkeypatch.setattr(module, "eigenbasis", counting_eigenbasis)
    assert run(*_sweep_workdir(tmp_path), *options, "--out", tmp_path / "x.csv") == 0
    assert calls == []


def test_no_command_holds_an_adjacency_through_its_decomposition(tmp_path):
    n1, n2 = 400, 20
    rng = np.random.default_rng(11)
    save_graph(sensor_graph(rng, n1), tmp_path / "g1.json")
    save_graph(standard_graph("cycle", n2), tmp_path / "g2.json")
    f = tmp_path / "f.csv"
    save_signal(rng.standard_normal((n1, n2)), f)
    (tmp_path / "heat.json").write_text('{"kind": "heat", "params": {"tau1": 0.4, "tau2": 0.2}}')
    pair = ("--g1", tmp_path / "g1.json", "--g2", tmp_path / "g2.json")
    commands = {
        "gft": ("gft", *pair, "--signal", f, "--out", tmp_path / "s.csv"),
        "filter": ("filter", *pair, "--signal", f, "--kernel", tmp_path / "heat.json",
                   "--out", tmp_path / "h.csv"),
        "variation": ("variation", *pair, "--signal", f, "--out", tmp_path / "v.json"),
        "denoise": ("denoise", *pair, "--observation", f, "--gamma1", "0.5",
                    "--gamma2", "0.3,1.5", "--out", tmp_path / "x.csv"),
    }
    peaks = {}
    for name, argv in commands.items():
        assert run(*argv) == 0  # first use: the float encoder and the CSV reader
        peaks[name] = traced_peak_mb(lambda: run(*argv))
    # the peak is the largest factor's eigh; a command that kept that factor's
    # n1 x n1 adjacency alive through it would exceed gft's by a whole n1^2 * 8 B
    allowance = 0.25 * n1**2 * 8 / 2**20
    for name in ("filter", "variation", "denoise"):
        assert peaks[name] <= peaks["gft"] + allowance, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux") or (os.cpu_count() or 1) == 1,
                    reason="counts threads in /proc/self/task")
def test_mdgsp_threads_caps_blas_threads():
    code = ("import os, mdgsp.cli, numpy as np\n"
            "a = np.ones((1500, 1500))\n"
            "a @ a\n"
            "print(len(os.listdir('/proc/self/task')))")
    src = str(Path(mdgsp.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(MDGSP_THREADS="1",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.split() == ["1"]


def test_variation_command(workdir):
    out = workdir / "var.json"
    assert run("variation", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--direction", "both", "--out", out) == 0
    rep = json.loads(out.read_text())
    assert {r["direction"] for r in rep["reports"]} == {1, 2}
    for r in rep["reports"]:
        assert r["residual"] <= 1e-8


def test_variation_command_transforms_the_signal_once(workdir, monkeypatch):
    import mdgsp.cli as cli
    import mdgsp.variation as variation

    calls = []

    def counting_gft(f, b1, b2):
        calls.append(1)
        return gft_2d(f, b1, b2)

    monkeypatch.setattr(cli, "gft_2d", counting_gft)
    monkeypatch.setattr(variation, "gft_2d", counting_gft)
    assert run("variation", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--direction", "both",
               "--out", workdir / "var.json", "--local-csv", workdir / "local.csv") == 0
    assert len(calls) == 1


def test_stationarity_synthesize_and_test(workdir):
    coeffs = workdir / "h.json"
    coeffs.write_text(json.dumps({"h": [[1.0, 0.2], [0.1, 0.0]]}))
    report = workdir / "stat.json"
    samples = workdir / "samples.npy"
    assert run("stationarity", "--mode", "test", "--kind", "fgw",
               "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--coeffs", coeffs, "--samples", 4000, "--seed", 7,
               "--out", samples, "--report", report) == 0
    rep = json.loads(report.read_text())
    assert rep["verdict"] == "pass"
    assert len(rep["tests"]) == 3
    batch = np.load(samples)
    assert batch.shape == (4000, 3, 4)


def test_stationarity_multivariate_kind(workdir, tmp_path):
    g = standard_graph("cycle", 5)
    save_graph(g, tmp_path / "c5.json")
    coeffs = tmp_path / "hs.json"
    hs = np.zeros((5, 2, 2))
    hs[0] = np.eye(2)
    coeffs.write_text(json.dumps({"hs": hs.tolist()}))
    report = tmp_path / "mv.json"
    assert run("stationarity", "--mode", "test", "--kind", "mv",
               "--g1", tmp_path / "c5.json", "--coeffs", coeffs,
               "--samples", 3000, "--seed", 3, "--report", report) == 0
    rep = json.loads(report.read_text())
    assert rep["verdict"] == "pass"


@pytest.mark.parametrize("kind, coeffs, calls", [
    ("fgw", {"h": [[1.0, 0.2], [0.1, 0.0]]}, 2),
    ("dir1", {"hs": (0.3 * np.arange(48).reshape(3, 4, 4) / 48).tolist()}, 1),
    ("dir2", {"hs": (0.3 * np.arange(36).reshape(4, 3, 3) / 36).tolist()}, 1),
    ("mv", {"hs": (0.3 * np.arange(12).reshape(3, 2, 2) / 12).tolist()}, 1),
])
def test_stationarity_diagonalizes_each_factor_once(workdir, monkeypatch, kind, coeffs, calls):
    # every kind also builds exactly one covariance: the fgw test and both
    # directional tests share one spectral covariance, accumulated over chunks
    import mdgsp.cli as cli
    import mdgsp.stationarity as stationarity
    from mdgsp import eigenbasis

    seen = []
    cov_builds = []
    covariance = stationarity._CovAccumulator.covariance

    def counting_eigenbasis(m, source):
        seen.append(source)
        return eigenbasis(m, source)

    def counting_covariance(acc):
        cov_builds.append(acc.m)
        return covariance(acc)

    monkeypatch.setattr(cli, "eigenbasis", counting_eigenbasis)
    monkeypatch.setattr(stationarity, "eigenbasis", counting_eigenbasis)
    monkeypatch.setattr(stationarity._CovAccumulator, "covariance", counting_covariance)
    (workdir / "c.json").write_text(json.dumps(coeffs))
    argv = ["stationarity", "--mode", "test", "--kind", kind, "--g1", workdir / "g1.json",
            "--coeffs", workdir / "c.json", "--samples", 2000, "--seed", 5,
            "--out", workdir / "x.npy", "--report", workdir / "r.json"]
    if kind != "mv":
        argv += ["--g2", workdir / "g2.json"]
    assert run(*argv) == 0
    assert len(seen) == calls
    assert cov_builds == [2000]
    assert np.load(workdir / "x.npy").shape[0] == 2000


STREAM_COEFFS = {
    "fgw": {"h": [[1.0, 0.2], [0.1, 0.0]]},
    "dir1": {"hs": (0.3 * np.arange(48).reshape(3, 4, 4) / 48).tolist()},
    "dir2": {"hs": (0.3 * np.arange(36).reshape(4, 3, 3) / 36).tolist()},
    "mv": {"hs": (0.3 * np.arange(12).reshape(3, 2, 2) / 12).tolist()},
}


def stationarity_argv(workdir, kind, samples, *extra):
    (workdir / "c.json").write_text(json.dumps(STREAM_COEFFS[kind]))
    argv = ["stationarity", "--kind", kind, "--g1", workdir / "g1.json",
            "--coeffs", workdir / "c.json", "--samples", samples, "--seed", 4,
            "--report", workdir / "r.json", *extra]
    return argv + (["--g2", workdir / "g2.json"] if kind != "mv" else [])


@pytest.mark.parametrize("suffix", [".npy", ""])
@pytest.mark.parametrize("kind", ["fgw", "dir1", "dir2", "mv"])
def test_streamed_sample_dump_equals_np_save(workdir, monkeypatch, kind, suffix):
    # chunks of 7 samples: 50 samples end in a partial chunk
    import mdgsp.stationarity as stationarity
    from mdgsp import DirectionalProcess, FgwProcess, PolyKernel2D
    from mdgsp import sample_directional, sample_fgw, sample_multivariate

    monkeypatch.setattr(stationarity, "_CHUNK_VALUES", 7 * 12)
    out = workdir / f"x{suffix}"
    assert run(*stationarity_argv(workdir, kind, 50, "--mode", "test", "--out", out)) == 0
    L1, L2 = (matrices(load_graph(workdir / g)).L for g in ("g1.json", "g2.json"))
    coeffs = np.array(next(iter(STREAM_COEFFS[kind].values())))
    if kind == "fgw":
        batch = sample_fgw(FgwProcess(kernel=PolyKernel2D(H=coeffs)), L1, L2, 4, 50)
    elif kind == "mv":
        batch = sample_multivariate(coeffs, L1, 4, 50)
    else:
        d = int(kind[-1])
        batch = sample_directional(DirectionalProcess(d, coeffs), L1 if d == 1 else L2, 4, 50)
    np.save(workdir / "ref.npy", batch)
    assert (workdir / "x.npy").read_bytes() == (workdir / "ref.npy").read_bytes()
    report = json.loads((workdir / "r.json").read_text())
    assert report["out"] == str(workdir / "x.npy")
    # the CLI test and the library test run one streaming loop: equal to the last bit
    b1, b2 = (laplacian_basis(load_graph(workdir / g)) for g in ("g1.json", "g2.json"))
    if kind == "fgw":
        lib = fgw_report(batch, b1, b2)
    else:
        d = 2 if kind == "dir2" else 1
        lib = directional_report(batch, d, b1 if d == 1 else b2)
    assert report["tests"][0] == json.loads(json.dumps(lib.to_dict()))
    assert sorted(p.name for p in workdir.glob("*.tmp")) == []


@pytest.mark.parametrize("samples, message", [(100, "insufficient samples"),
                                              (1, "need at least 2 samples")])
def test_doomed_test_fails_before_sampling(workdir, monkeypatch, capsys, samples, message):
    from mdgsp import WhiteNoise2D

    def refuse(*args, **kwargs):
        raise AssertionError("drew samples for a test that cannot pass")

    monkeypatch.setattr(WhiteNoise2D, "_draw", refuse)
    out = workdir / "y.npy"
    assert run(*stationarity_argv(workdir, "fgw", samples, "--mode", "test", "--tol", 0.01,
                                  "--out", out)) == 7
    assert message in capsys.readouterr().err
    assert not out.exists() and list(workdir.glob("*.tmp")) == []


@pytest.mark.parametrize("option, value, rule", [
    ("--tol", "nan", "> 0"), ("--tol", "inf", "> 0"), ("--tol", "0", "> 0"),
    ("--tol", "-1", "> 0"), ("--samples", "0", "> 0"), ("--samples", "-3", "> 0"),
    ("--seed", "-1", ">= 0"),
])
def test_unusable_stationarity_option_is_a_usage_error(workdir, monkeypatch, capsys,
                                                        option, value, rule):
    from mdgsp import WhiteNoise2D

    def refuse(*args, **kwargs):
        raise AssertionError("drew samples for a refused option")

    monkeypatch.setattr(WhiteNoise2D, "_draw", refuse)
    argv = stationarity_argv(workdir, "fgw", 100, "--mode", "test", "--out",
                             workdir / "y.npy", option, value)
    before = sorted(workdir.iterdir())
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mdgsp: error[usage]: {option} must be a finite number {rule}")
    assert sorted(workdir.iterdir()) == before


def test_failed_path_check_leaves_no_sample_dump(workdir, monkeypatch, capsys):
    # a basis that does not belong to the Laplacian fails the path check,
    # which is judged after the last chunk has been written
    import mdgsp.cli as cli
    from mdgsp import eigenbasis

    def wrong_basis(m, source):
        b = eigenbasis(m, source)
        return type(b)(values=b.values, vectors=b.vectors[:, ::-1].copy(), source=b.source)

    monkeypatch.setattr(cli, "eigenbasis", wrong_basis)
    out = workdir / "y.npy"
    assert run(*stationarity_argv(workdir, "fgw", 30, "--mode", "synthesize",
                                  "--out", out)) == 7
    assert "disagree" in capsys.readouterr().err
    assert list(workdir.glob("y.npy*")) == [] and list(workdir.glob("*.tmp")) == []


def test_nonfinite_samples_exit_7_and_leave_no_files(workdir, capsys):
    # 1e308 coefficients overflow the filter: the dump would hold inf and NaN
    # and the report a NaN statistic, which is not valid JSON
    (workdir / "big.json").write_text(json.dumps({"h": [[1e308, 1e308], [1e308, 1e308]]}))
    with np.errstate(all="ignore"):
        assert run("stationarity", "--mode", "test", "--kind", "fgw", "--g1",
                   workdir / "g1.json", "--g2", workdir / "g2.json", "--coeffs",
                   workdir / "big.json", "--samples", 50, "--out", workdir / "x.npy",
                   "--report", workdir / "r.json") == 7
    assert "not finite" in capsys.readouterr().err
    assert list(workdir.glob("x.npy*")) == [] and not (workdir / "r.json").exists()
    assert list(workdir.glob("*.tmp")) == []


def test_nonfinite_kernel_response_exits_7_with_one_line(tmp_path, capsys):
    # 1e308 + 1e308 overflows at l1 + l2 = 1: the refusal is the only output, and it
    # prints the frequency pair as plain numbers
    path3 = standard_graph("path", 3)
    save_graph(path3, tmp_path / "g.json")
    save_signal(np.ones((3, 3)), tmp_path / "f.csv")
    (tmp_path / "k.json").write_text(json.dumps({"kind": "sum-1d", "coeffs": [0, 1e308, 1e308]}),
                                     encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("filter", "--g1", tmp_path / "g.json", "--g2", tmp_path / "g.json",
                   "--signal", tmp_path / "f.csv", "--kernel", tmp_path / "k.json",
                   "--out", tmp_path / "out.csv") == 7
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ("mdgsp: error[kernel]: kernel response not finite "
                                       "at frequency pair (0.0, 1.0)\n")
    assert not (tmp_path / "out.csv").exists()


def test_stationarity_memory_does_not_grow_with_samples(tmp_path):
    save_graph(standard_graph("path", 16), tmp_path / "g1.json")
    save_graph(standard_graph("cycle", 16), tmp_path / "g2.json")
    (tmp_path / "c.json").write_text(json.dumps({"h": [[1.0, 0.2], [0.1, 0.05]]}))
    for samples in (20_000, 60_000):
        out = tmp_path / "x.npy"

        def test_run():
            assert run("stationarity", "--mode", "test", "--kind", "fgw",
                       "--g1", tmp_path / "g1.json", "--g2", tmp_path / "g2.json",
                       "--coeffs", tmp_path / "c.json", "--samples", samples,
                       "--out", out, "--report", tmp_path / "r.json") == 0

        peak = traced_peak_mb(test_run)
        assert out.stat().st_size == 128 + samples * 16 * 16 * 8
        out.unlink()
        assert peak < 32, (samples, peak)


def test_gft_huge_signal_writes_infinite_power(workdir):
    # |1e200 * sqrt(12)|^2 is above the float range: the power column says
    # inf and the command still succeeds
    save_signal(np.full((3, 4), 1e200), workdir / "big.csv")
    out = workdir / "spec.csv"
    svg = workdir / "heat.svg"
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "big.csv", "--out", out, "--svg", svg) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert rows[0][4] == "3.4641016151377546e+200" and rows[0][6] == "inf"
    assert all(float(r[4]) != float("inf") for r in rows)
    assert load_spectrum(out).values[0, 0] == pytest.approx(1e200 * np.sqrt(12), rel=1e-12)
    assert svg.read_text().count("<rect") == 12 + 1


def test_bench_command_small(workdir):
    out = workdir / "bench.json"
    assert run("bench", "--sizes", "8,12", "--reps", 2, "--out", out) == 0
    rep = json.loads(out.read_text())
    assert len(rep["results"]) == 2
    for r in rep["results"]:
        assert r["fast_seconds"] > 0
        assert r["naive_mode"] == "materialized"
        assert r["eig_product_seconds"] is not None


def test_exit_codes(workdir):
    # malformed graph file -> 3
    bad = workdir / "bad.json"
    bad.write_text("{")
    assert run("product", "--g1", bad, "--g2", workdir / "g2.json",
               "--out", workdir / "x.json") == 3
    # dimension mismatch -> 4
    save_signal(np.ones((2, 2)), workdir / "small.csv")
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "small.csv", "--out", workdir / "s.csv") == 4
    # kernel domain error -> 7 is covered by sampling errors too
    coeffs = workdir / "h.json"
    coeffs.write_text(json.dumps({"h": [[1.0]] * 9}))
    assert run("stationarity", "--mode", "synthesize", "--kind", "fgw",
               "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--coeffs", coeffs, "--samples", 10, "--seed", 1,
               "--report", workdir / "r.json") == 7
    # missing file -> 3
    assert run("eig", "--g1", workdir / "missing.json", "--out", workdir / "o.csv") == 3


@pytest.mark.parametrize("entry", [
    [0.7, 1.2, 1.0],  # fractional vertex indices
    [True, 1, 1.0],
    [0, 1, True],
    ["0", 1, 1.0],
    [0, 1, "1.0"],
    ["a", 1, 1.0],
    [0, 1, "x"],
    [0, 1, None],
    [0, 1, [1.0]],
])
def test_bad_graph_edge_entries_exit_3(workdir, capsys, entry):
    (workdir / "g.json").write_text(json.dumps({"n": 3, "edges": [[1, 2, 0.5], entry]}))
    assert run("eig", "--g1", workdir / "g.json", "--out", workdir / "o.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[format]: edge entry ") and "Traceback" not in err
    assert not (workdir / "o.csv").exists()


def test_boolean_vertex_count_exits_3(workdir):
    (workdir / "g.json").write_text(json.dumps({"n": True, "edges": []}))
    assert run("eig", "--g1", workdir / "g.json", "--out", workdir / "o.csv") == 3


def test_nonconvergence_exit_code(workdir):
    save_signal(np.random.default_rng(2).standard_normal((3, 4)), workdir / "y.csv")
    rc = run("denoise", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
             "--observation", workdir / "y.csv", "--q1", "1.0", "--gamma1", "1.0",
             "--gamma2", "1.0", "--max-iter", 4, "--tol", "1e-14",
             "--out", workdir / "x.csv", "--report", workdir / "r.json")
    assert rc == 5
    rep = json.loads((workdir / "r.json").read_text())
    assert rep["solves"][0]["converged"] is False


def test_usage_error_exit_code_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("gft", "--unknown-flag", "x")
    assert exc.value.code == 2


def test_manifest_records_inputs_and_seed(workdir):
    coeffs = workdir / "h.json"
    coeffs.write_text(json.dumps({"h": [[1.0]]}))
    report = workdir / "stat.json"
    assert run("stationarity", "--mode", "synthesize", "--kind", "fgw",
               "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--coeffs", coeffs, "--samples", 50, "--seed", 9,
               "--report", report) == 0
    manifest = json.loads((workdir / "stat.json.manifest.json").read_text())
    assert manifest["seed"] == 9
    assert any(p.endswith("g1.json") for p in manifest["inputs"])
    assert "wall_seconds" in manifest


def test_low_low_signal_concentrates_in_low_quartile(tmp_path):
    # separable smooth signal on P5 x W9: at least 90% of spectral power
    # in the lowest quartile of each frequency axis
    g1 = standard_graph("path", 5)
    g2 = standard_graph("wheel", 9)
    save_graph(g1, tmp_path / "g1.json")
    save_graph(g2, tmp_path / "g2.json")
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    f = (np.outer(b1.vectors[:, 0], b2.vectors[:, 0])
         + 0.6 * np.outer(b1.vectors[:, 1], b2.vectors[:, 1])
         + 0.05 * np.outer(b1.vectors[:, 3], b2.vectors[:, 5]))
    save_signal(f, tmp_path / "f.csv")
    out = tmp_path / "s.csv"
    assert run("gft", "--g1", tmp_path / "g1.json", "--g2", tmp_path / "g2.json",
               "--signal", tmp_path / "f.csv", "--out", out) == 0
    s = load_spectrum(out)
    p = s.power()
    low1 = s.lambdas1 <= s.lambdas1[-1] / 4
    low2 = s.lambdas2 <= s.lambdas2[-1] / 4
    frac = p[np.ix_(low1, low2)].sum() / p.sum()
    assert frac >= 0.9


def test_eig_adjacency_source_and_json_format(workdir):
    out = workdir / "adj.json"
    assert run("eig", "--g1", workdir / "g1.json", "--source", "adjacency",
               "--out", out, "--format", "json") == 0
    payload = json.loads(out.read_text())
    values = payload["eigenvalues"]
    assert payload["source"] == "adjacency"
    assert values == sorted(values)
    assert values[0] < 0  # path adjacency has negative eigenvalues


def test_gft_adjacency_source_parseval(workdir):
    out = workdir / "adj_spec.csv"
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--source", "adjacency",
               "--out", out) == 0
    s = load_spectrum(out)
    f = load_signal(workdir / "f.csv")
    assert s.power().sum() == pytest.approx(np.sum(f**2), rel=1e-10)


def test_gft_aggregate_out(workdir):
    out = workdir / "s.csv"
    agg = workdir / "agg.csv"
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--out", out,
               "--aggregate-out", agg, "--tol-mult", "1e-8") == 0
    lines = agg.read_text().strip().splitlines()
    assert lines[0] == "frequency,power,size"
    total = sum(float(l.split(",")[1]) for l in lines[1:])
    f = load_signal(workdir / "f.csv")
    assert total == pytest.approx(np.sum(f**2), rel=1e-10)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_unusable_grouping_tolerance_is_a_usage_error(workdir, capsys, value):
    before = sorted(workdir.iterdir())
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--out", workdir / "s.csv",
               "--aggregate-out", workdir / "agg.csv", "--tol-mult", value) == 2
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[usage]: --tol-mult must be a finite number > 0")
    assert sorted(workdir.iterdir()) == before


def test_variation_local_csv(workdir):
    out = workdir / "var.json"
    local = workdir / "local.csv"
    assert run("variation", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--direction", "1", "--out", out,
               "--local-csv", local) == 0
    lv = load_signal(local)
    assert lv.shape == (3, 4)
    assert np.all(lv >= 0)


@pytest.mark.parametrize("options, message", [
    (("--sizes", "foo"), "--sizes entry 'foo' is not N or N1xN2"),
    (("--sizes", "3x"), "--sizes entry '3x' is not N or N1xN2"),
    (("--sizes", "8,2"), "--sizes entry '2' has a cycle of fewer than 3 vertices"),
    (("--sizes", "8", "--reps", "0"), "--reps must be a finite number > 0, got 0"),
    (("--sizes", "8", "--check-equality", "0"), "--check-equality needs N >= 3"),
    (("--sizes", "8", "--check-equality", "65"), "and N*N <= 4096, got 65"),
    (("--sizes", "8", "--seed", "-1"), "--seed must be a finite number >= 0, got -1"),
], ids=["sizes-foo", "sizes-3x", "sizes-2", "reps-0", "check-equality-0", "check-equality-65",
        "seed-minus-1"])
def test_unusable_bench_option_is_a_usage_error(workdir, capsys, options, message):
    before = sorted(workdir.iterdir())
    assert run("bench", *options, "--out", workdir / "bench.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[usage]: ") and message in err
    assert sorted(workdir.iterdir()) == before


def test_bench_check_equality_flag(workdir):
    out = workdir / "bench.json"
    assert run("bench", "--sizes", "8", "--reps", 1, "--check-equality", 12,
               "--out", out) == 0
    rep = json.loads(out.read_text())
    assert rep["equality_discrepancy"] <= 1e-9


def test_bench_allocation_failure_exits_6(workdir, capsys, monkeypatch):
    # 65 x 65 = 4225 vertices is above NAIVE_FULL_CAP, so the naive basis is built in
    # np.kron blocks, and the first block's allocation fails
    def no_memory(*args):
        raise MemoryError("no memory for the block")

    monkeypatch.setattr(np, "kron", no_memory)
    out = workdir / "b.json"
    assert run("bench", "--sizes", 65, "--reps", 1, "--out", out) == 6
    assert capsys.readouterr().err == "mdgsp: error[allocation]: no memory for the block\n"
    assert not list(workdir.glob("b.json*"))


def test_text_outputs_are_utf8_under_a_c_locale(workdir):
    # the heatmap's title is the signal's file name: ASCII, the C locale's encoding, cannot
    # write it, and the name reaches the program as surrogate escapes of its bytes
    (workdir / "s\u00efgnal.csv").write_bytes((workdir / "f.csv").read_bytes())
    src = str(Path(mdgsp.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONCOERCECLOCALE", "PYTHONIO"))}
    env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    svgs = []
    for name, mode in [("c", dict(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")),
                       ("utf8", dict(PYTHONUTF8="1"))]:
        argv = [sys.executable, "-m", "mdgsp.cli", "gft", "--g1", "g1.json", "--g2", "g2.json",
                "--signal", "s\u00efgnal.csv", "--out", f"{name}.csv", "--svg", f"{name}.svg"]
        done = subprocess.run(argv, cwd=workdir, env={**env, **mode}, capture_output=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        svgs.append((workdir / f"{name}.svg").read_bytes())
    assert svgs[0] == svgs[1]
    assert ">s\u00efgnal.csv</text>".encode() in svgs[0]


@pytest.mark.parametrize("kind, name, payload", [
    ("fgw", "ragged h", {"h": [[1.0, 0.5], [0.2]]}),
    ("fgw", "list payload", ["h"]),
    ("fgw", "h of strings", {"h": [["a"]]}),
    ("dir1", "scalar hs", {"hs": 5}),
    ("mv", "scalar hs", {"hs": 5}),
    ("dir1", "2-D hs", {"hs": [[1.0]]}),
    ("dir2", "non-square hs", {"hs": [[[1.0, 2.0]], [[0.0, 1.0]], [[1.0, 1.0]]]}),
    ("dir1", "hs with nan", {"hs": [[[float("nan")]], [[1.0]], [[0.0]]]}),
    ("fgw", "null h", {"h": None}),
    ("fgw", "3-D h", {"h": [[[1.0]]]}),
    ("fgw", "h with inf", {"h": [[1.0, float("inf")]]}),
])
def test_malformed_coefficients_exit_3(workdir, capsys, kind, name, payload):
    (workdir / "c.json").write_text(json.dumps(payload))
    assert run("stationarity", "--mode", "synthesize", "--kind", kind,
               "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--coeffs", workdir / "c.json", "--samples", 10,
               "--report", workdir / "r.json") == 3
    assert capsys.readouterr().err.startswith("mdgsp: error[format]: ")


@pytest.mark.parametrize("h", [1.0, [1.0, 0.5]])
def test_scalar_and_vector_h_are_accepted(workdir, h):
    (workdir / "c.json").write_text(json.dumps({"h": h}))
    assert run("stationarity", "--mode", "synthesize", "--kind", "fgw",
               "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--coeffs", workdir / "c.json", "--samples", 10,
               "--report", workdir / "r.json") == 0


def test_ragged_directional_coefficients_exit_3(workdir):
    (workdir / "c.json").write_text(json.dumps({"hs": [[[1.0]], [[1.0, 2.0]], [[0.0]]]}))
    assert run("stationarity", "--mode", "synthesize", "--kind", "dir1",
               "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--coeffs", workdir / "c.json", "--samples", 10,
               "--report", workdir / "r.json") == 3


@pytest.mark.parametrize("kernel", [
    {"kind": "polynomial", "coeffs": [[1.0, 0.5], [0.2]]},
    {"kind": "separable", "coeffs": [[1.0, [0.5]], [1.0]]},
    {"kind": "sum-1d", "coeffs": {"a": 1.0}},
    {"kind": "heat", "params": {"tau1": "fast", "tau2": 1.0}},
    ["polynomial"],
])
def test_malformed_kernel_exit_3(workdir, capsys, kernel):
    (workdir / "k.json").write_text(json.dumps(kernel))
    assert run("filter", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "f.csv", "--kernel", workdir / "k.json",
               "--out", workdir / "o.csv") == 3
    assert capsys.readouterr().err.startswith("mdgsp: error[format]: ")


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", "2x"])
def test_bad_thread_count_is_a_usage_error(workdir, monkeypatch, capsys, value):
    monkeypatch.setenv("MDGSP_THREADS", value)
    assert run("denoise", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--observation", workdir / "f.csv", "--gamma1", "1,2",
               "--out", workdir / "x.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[usage]: MDGSP_THREADS") and err.count("\n") == 1
    assert not (workdir / "x-g1_1-g2_0.csv").exists()


@pytest.mark.parametrize("value", ["", "0", "1", " 2 "])
def test_valid_thread_count_runs_the_sweep(workdir, monkeypatch, value):
    monkeypatch.setenv("MDGSP_THREADS", value)
    assert run("denoise", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--observation", workdir / "f.csv", "--gamma1", "1,2",
               "--out", workdir / "x.csv") == 0
    assert (workdir / "x-g1_1-g2_0.csv").exists() and (workdir / "x-g1_2-g2_0.csv").exists()


# each error class: its exit code and the slug of its "error[...]" prefix
@pytest.mark.parametrize("cls, code, slug", [
    (FormatError, 3, "format"),
    (GraphError, 3, "graph"),
    (DimensionError, 4, "dimension-mismatch"),
    (MemoryError, 6, "allocation"),
    (KernelError, 7, "kernel"),
    (SpectrumError, 7, "spectrum"),
    (SamplingError, 7, "sampling"),
    (MdgspError, 3, "internal"),
])
def test_error_class_sets_exit_code_and_slug(workdir, monkeypatch, capsys, cls, code, slug):
    import mdgsp.cli as cli

    def fail(args):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_product", fail)
    out = workdir / "p.json"
    assert run("product", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--out", out) == code
    assert capsys.readouterr().err == f"mdgsp: error[{slug}]: boom\n"
    assert not out.exists() and not (workdir / "p.json.manifest.json").exists()


SPECTRUM_HEADER = "k1,k2,lambda1,lambda2,re,im,power\n"


@pytest.mark.parametrize("body", [
    pytest.param("", id="header-only"),
    pytest.param("0,0,0,0,1.0,0,1\n1,0,1,0,nan,0,nan\n", id="nan"),
    pytest.param("0,0,0,0,1,0,1\n0,0,0,0,1,0,1\n1,1,1,1,2,0,4\n1,1,1,1,2,0,4\n",
                 id="repeated-pairs"),
    pytest.param("0,0,0,0,1,0,1\n0,-1,0,0,1,0,1\n", id="negative-index"),
    pytest.param("0,0,0.0,0,1,0,1\n0,1,7.5,1,2,0,4\n1,0,1,0,3,0,9\n1,1,1,1,4,0,16\n",
                 id="lambda1-disagrees"),
    pytest.param("0,0,0,0,1,0,1\n0,1,0,1,2,0,4\n1,0,1,0,3,0,9\n1,1,1,3,4,0,16\n",
                 id="lambda2-disagrees"),
])
def test_render_rejects_a_malformed_spectrum(workdir, capsys, body):
    (workdir / "s.csv").write_text(SPECTRUM_HEADER + body)
    svg = workdir / "s.svg"
    assert run("render", "--spectrum", workdir / "s.csv", "--svg", svg) == 3
    assert capsys.readouterr().err.startswith("mdgsp: error[format]: spectrum CSV ")
    assert not svg.exists()


@pytest.mark.parametrize("text", [
    pytest.param("", id="empty"),
    pytest.param("1,2,3,4\n1,2,3\n1,2,3,4\n", id="ragged"),
    pytest.param("1,2,3,4\n1,2,3,4\n1,2,?,4\n", id="bad-token"),
    pytest.param("1,2,3,4\n1,2,inf,4\n1,2,3,4\n", id="non-finite"),
])
def test_gft_rejects_a_malformed_signal(workdir, capsys, text):
    (workdir / "bad.csv").write_text(text)
    out = workdir / "s.csv"
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "bad.csv", "--out", out) == 3
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[format]: signal CSV ")
    assert ("line 3" in err) == (text.count("?") == 1)
    assert not out.exists()


@pytest.mark.parametrize("token", ["1.7976931348623159e308", "1e999"])
def test_gft_rejects_a_signal_that_overflows(workdir, capsys, token):
    # the overflowing token reads as inf, as float() reads it
    (workdir / "big.csv").write_text(f"1,2,3,4\n1,2,{token},4\n1,2,3,4\n")
    out = workdir / "s.csv"
    assert run("gft", "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--signal", workdir / "big.csv", "--out", out) == 3
    assert capsys.readouterr().err == "mdgsp: error[format]: signal CSV has non-finite entries\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["g1.json", "f.csv", "k.json", "s.csv", "c.json"])
def test_input_file_that_is_not_utf8_exits_3(workdir, capsys, name):
    (workdir / "k.json").write_text(json.dumps({"kind": "heat",
                                                "params": {"tau1": 0.5, "tau2": 0.5}}))
    (workdir / "c.json").write_text(json.dumps(STREAM_COEFFS["fgw"]))
    factors = ("--g1", workdir / "g1.json", "--g2", workdir / "g2.json")
    assert run("gft", *factors, "--signal", workdir / "f.csv", "--out", workdir / "s.csv") == 0
    capsys.readouterr()
    path = workdir / name
    raw = path.read_bytes()
    path.write_bytes(raw[:5] + b"\xff" + raw[5:])
    argv = {
        "g1.json": ("eig", "--g1", workdir / "g1.json", "--out", workdir / "o.csv"),
        "f.csv": ("gft", *factors, "--signal", path, "--out", workdir / "o.csv"),
        "k.json": ("filter", *factors, "--signal", workdir / "f.csv", "--kernel", path,
                   "--out", workdir / "o.csv"),
        "s.csv": ("render", "--spectrum", path, "--svg", workdir / "o.svg"),
        "c.json": ("stationarity", "--mode", "synthesize", "--kind", "fgw", *factors,
                   "--coeffs", path, "--samples", 10, "--report", workdir / "o.json"),
    }[name]
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[format]: ") and err.count("\n") == 1
    assert str(path) in err
    assert not list(workdir.glob("o.*"))


def _bad_byte_at(path, offset):
    raw = path.read_bytes()
    path.write_bytes(raw[:offset] + b"\xff" + raw[offset:])
    return f"mdgsp: error[format]: {path} is not UTF-8 text: byte 0xff at offset {offset}: " \
           "invalid start byte\n"


def test_bad_byte_in_a_streamed_spectrum_is_named_by_its_offset_in_the_file(tmp_path, capsys):
    # the reader decodes 8 KiB at a time: byte 20000 is byte 3616 of its chunk
    rng = np.random.default_rng(9)
    path = tmp_path / "s.csv"
    save_spectrum(Spectrum2D(values=rng.standard_normal((1000, 100)),
                             lambdas1=np.sort(rng.random(1000)),
                             lambdas2=np.sort(rng.random(100))), path)
    want = _bad_byte_at(path, 20000)
    assert run("render", "--spectrum", path, "--svg", tmp_path / "o.svg") == 3
    assert capsys.readouterr().err == want
    assert not (tmp_path / "o.svg").exists()


def test_bad_byte_in_a_graph_read_whole_is_named_by_its_offset(tmp_path, capsys):
    path = tmp_path / "g.json"
    save_graph(standard_graph("path", 3000), path)
    want = _bad_byte_at(path, 20000)
    assert run("eig", "--g1", path, "--out", tmp_path / "o.csv") == 3
    assert capsys.readouterr().err == want
    assert not (tmp_path / "o.csv").exists()


def test_bad_byte_in_a_signal_read_per_token_is_named_by_its_offset(tmp_path, capsys):
    # the reader decodes 8 KiB at a time: byte 20000 is byte 3616 of its chunk
    save_graph(standard_graph("path", 200), tmp_path / "g1.json")
    save_graph(standard_graph("cycle", 20), tmp_path / "g2.json")
    path = tmp_path / "f.csv"
    save_signal(np.random.default_rng(4).standard_normal((200, 20)), path)
    want = _bad_byte_at(path, 20000)
    assert run("gft", "--g1", tmp_path / "g1.json", "--g2", tmp_path / "g2.json",
               "--signal", path, "--out", tmp_path / "o.csv") == 3
    assert capsys.readouterr().err == want
    assert not (tmp_path / "o.csv").exists()


def test_manifest_that_cannot_be_written_exits_3(workdir, capsys):
    (workdir / "o.csv.manifest.json").mkdir()
    assert run("eig", "--g1", workdir / "g1.json", "--out", workdir / "o.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[io]: ") and err.count("\n") == 1
    assert "o.csv.manifest.json" in err


@pytest.mark.parametrize("kind", ["fgw", "dir1", "dir2"])
def test_product_stationarity_without_g2_is_a_usage_error(workdir, capsys, kind):
    # refused before any file is read: the missing --g1 would be an io error
    (workdir / "c.json").write_text(json.dumps(STREAM_COEFFS[kind]))
    assert run("stationarity", "--mode", "synthesize", "--kind", kind,
               "--g1", workdir / "missing.json", "--coeffs", workdir / "c.json",
               "--samples", 10, "--report", workdir / "r.json") == 2
    assert capsys.readouterr().err == f"mdgsp: error[usage]: --kind {kind} needs --g2\n"
    assert not (workdir / "r.json").exists()


def test_manifest_goes_beside_the_sample_dump_as_written(workdir):
    argv = stationarity_argv(workdir, "fgw", 20, "--mode", "synthesize",
                             "--out", workdir / "foo")
    assert run(*argv) == 0
    written = str(workdir / "foo.npy")
    assert np.load(written).shape == (20, 3, 4)
    assert not (workdir / "foo").exists()
    manifest = json.loads((workdir / "foo.npy.manifest.json").read_text())
    assert manifest["parameters"]["out"] == written
    assert not (workdir / "foo.manifest.json").exists()


def test_invalid_coefficients_json_exits_3(workdir, capsys):
    (workdir / "c.json").write_text('{"h": [[1.0, 0.5]')
    assert run("stationarity", "--mode", "synthesize", "--kind", "fgw",
               "--g1", workdir / "g1.json", "--g2", workdir / "g2.json",
               "--coeffs", workdir / "c.json", "--samples", 10,
               "--report", workdir / "r.json") == 3
    err = capsys.readouterr().err
    assert err.startswith("mdgsp: error[format]: invalid fgw coefficients JSON: ")
    assert not (workdir / "r.json").exists()
