"""Factor-swap relations: runs on (G1, G2, F) and (G2, G1, F^T) agree.

The product of two graphs does not depend on their order, so swapping the
factors and transposing every signal must transpose every output. Where the
swapped run takes the same operations in the same order the outputs must be
bit-equal; elsewhere they may differ by rounding, and the bound is
TOL = 8 eps times the output's largest magnitude (the largest difference
seen on these inputs is about 2 eps times it).
"""

import dataclasses
import json

import numpy as np
import pytest

from mdgsp import (
    FgwProcess,
    PolyKernel2D,
    load_signal,
    load_spectrum,
    matrices,
    sample_fgw,
    save_graph,
    save_signal,
    standard_graph,
)
from mdgsp import test_directional_stationarity as directional_report
from mdgsp import test_fgw_stationarity as fgw_report
from mdgsp.cli import main
from helpers import laplacian_basis

N1, N2 = 16, 12
EPS = np.finfo(np.float64).eps
SIGNAL = ("--signal", "{d}/f{tag}.csv")


def close(a, b):
    """|a - b| <= 8 eps max|a|, entrywise, for arrays or numbers."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.abs(a - b).max() <= 8 * EPS * np.abs(a).max()


@pytest.fixture
def swapped(tmp_path):
    """Files for path(16) x cycle(12) with F, and for the swap with F^T. `run(tag, ...)`
    runs one command on the original (tag "") or the swapped (tag "t") factors; "{d}"
    and "{tag}" in its options name the directory and the side."""
    save_graph(standard_graph("path", N1), tmp_path / "path.json")
    save_graph(standard_graph("cycle", N2), tmp_path / "cycle.json")
    F = np.random.default_rng(3).standard_normal((N1, N2))
    save_signal(F, tmp_path / "f.csv")
    save_signal(F.T, tmp_path / "ft.csv")

    def run(tag, command, *options):
        g1, g2 = ("path", "cycle") if tag == "" else ("cycle", "path")
        argv = [command, "--g1", tmp_path / f"{g1}.json", "--g2", tmp_path / f"{g2}.json"]
        argv += [str(o).format(tag=tag, d=tmp_path) for o in options]
        assert main([str(a) for a in argv]) == 0

    return tmp_path, run


def test_swapped_gft_transposes_the_spectrum_and_keeps_the_aggregate(swapped):
    d, run = swapped
    for tag in ("", "t"):
        run(tag, "gft", *SIGNAL, "--out", "{d}/s{tag}.csv", "--aggregate-out", "{d}/a{tag}.csv")
    s, st = load_spectrum(d / "s.csv"), load_spectrum(d / "st.csv")
    assert np.array_equal(s.lambdas1, st.lambdas2) and np.array_equal(s.lambdas2, st.lambdas1)
    assert close(s.values, st.values.T)
    # the groups of equal lambda1 + lambda2 are the same; their members are summed
    # in another order
    a, at = (np.loadtxt(d / name, delimiter=",", skiprows=1) for name in ("a.csv", "at.csv"))
    assert a.shape == at.shape and np.array_equal(a[:, 2], at[:, 2])
    assert close(a[:, 0], at[:, 0]) and close(a[:, 1], at[:, 1])


@pytest.mark.parametrize("kernel, swapped_kernel", [
    ({"kind": "heat", "params": {"tau1": 0.4, "tau2": 0.2}},
     {"kind": "heat", "params": {"tau1": 0.2, "tau2": 0.4}}),
    ({"kind": "polynomial", "coeffs": [[1.0, -0.25, 0.02], [-0.2, 0.03, 0.0]]},
     {"kind": "polynomial", "coeffs": [[1.0, -0.2], [-0.25, 0.03], [0.02, 0.0]]}),
], ids=["heat", "polynomial"])
def test_swapped_filter_transposes_the_output(swapped, kernel, swapped_kernel):
    d, run = swapped
    (d / "k.json").write_text(json.dumps(kernel))
    (d / "kt.json").write_text(json.dumps(swapped_kernel))
    for tag in ("", "t"):
        run(tag, "filter", *SIGNAL, "--kernel", "{d}/k{tag}.json", "--out", "{d}/o{tag}.csv")
    assert close(load_signal(d / "o.csv"), load_signal(d / "ot.csv").T)


def test_swapped_variation_swaps_the_directions(swapped):
    d, run = swapped
    for tag in ("", "t"):
        run(tag, "variation", *SIGNAL, "--out", "{d}/v{tag}.json",
            "--local-csv", "{d}/l{tag}.csv")
    reports = json.loads((d / "v.json").read_text())["reports"]
    swapped_reports = json.loads((d / "vt.json").read_text())["reports"]
    for rep in reports:
        other = swapped_reports[2 - rep["direction"]]
        assert other["direction"] == 3 - rep["direction"]
        assert close(rep["total"], other["total"])
        assert close(rep["spectral_total"], other["spectral_total"])
        # the local variation along one factor is the same differences in the same order
        local = load_signal(d / f"l-d{rep['direction']}.csv")
        assert np.array_equal(local, load_signal(d / f"lt-d{other['direction']}.csv").T)


@pytest.mark.parametrize("q1, q2", [(2, 2), (1.5, 2), (1, 1)],
                         ids=["closed-form", "q1.5-q2", "q1"])
def test_swapped_denoise_transposes_the_minimizer(swapped, q1, q2):
    # (gamma1, q1) and (gamma2, q2) swap with the factors; a gradient solve takes
    # the same iterations
    d, run = swapped
    for tag, (g1, p1), (g2, p2) in (("", (0.5, q1), (0.2, q2)), ("t", (0.2, q2), (0.5, q1))):
        run(tag, "denoise", "--observation", "{d}/f{tag}.csv", "--gamma1", g1, "--q1", p1,
            "--gamma2", g2, "--q2", p2, "--out", "{d}/x{tag}.csv", "--report", "{d}/r{tag}.json")
    assert close(load_signal(d / "x.csv"), load_signal(d / "xt.csv").T)
    (a,), (b,) = (json.loads((d / name).read_text())["solves"] for name in ("r.json", "rt.json"))
    assert (a["method"], a["iterations"], a["converged"]) == (
        b["method"], b["iterations"], b["converged"])
    assert close(a["energy"], b["energy"])


def assert_reports_agree(a, b):
    """Equal names, thresholds, counts and verdicts; statistics within TOL."""
    assert (a.name, a.threshold, a.m, a.verdict, a.vacuous) == (
        b.name, b.threshold, b.m, b.verdict, b.vacuous)
    assert close(a.statistic, b.statistic) and len(a.sub) == len(b.sub)
    for x, y in zip(a.sub, b.sub):
        assert_reports_agree(x, y)


def test_swapped_batch_keeps_the_fgw_report_and_swaps_the_directions():
    g1, g2 = standard_graph("path", N1), standard_graph("cycle", N2)
    b1, b2 = laplacian_basis(g1), laplacian_basis(g2)
    proc = FgwProcess(kernel=PolyKernel2D(H=[[1.0, 0.3], [0.2, 0.05]]))
    X = sample_fgw(proc, matrices(g1).L, matrices(g2).L, 4, 2000, b1=b1, b2=b2)
    Xt = X.transpose(0, 2, 1)
    assert_reports_agree(fgw_report(X, b1, b2), fgw_report(Xt, b2, b1))
    # the report of factor d is named for its place: _g1 of the batch is _g2 of the swap
    for direction, basis in ((1, b1), (2, b2)):
        a = directional_report(X, direction, basis)
        b = directional_report(Xt, 3 - direction, basis)
        assert a.name == f"directional_stationarity_g{direction}"
        assert b.name == f"directional_stationarity_g{3 - direction}"
        assert_reports_agree(a, dataclasses.replace(b, name=a.name))
