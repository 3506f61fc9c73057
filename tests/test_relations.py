"""Relations of the product algebra: runs that differ by a symmetry agree.

Factor swap: the product of two graphs does not depend on their order, so
runs on (G1, G2, F) and (G2, G1, F^T) must transpose every output. Where the
swapped run takes the same operations in the same order the outputs must be
bit-equal; elsewhere they may differ by rounding, and the bound is
TOL = 8 eps times the output's largest magnitude (the largest difference
seen on these inputs is about 2 eps times it).

Weight scaling: W1 -> c W1 scales L1 and every edge weight of factor 1 by c,
so dividing tau1 or gamma1 by c gives the same filter and energy. Vertex
relabelling: renaming one factor's vertices permutes every vertex output
along that factor and leaves pooled outputs unchanged. These relations
change the eigenbases and the summation orders, so each states its bound.
"""

import dataclasses
import json

import numpy as np
import pytest

from mdgsp import (
    EbemParams,
    FgwProcess,
    Graph,
    PolyKernel2D,
    aggregate_to_1d,
    default_tol_mult,
    ebem_minimize,
    gft_2d,
    heat_kernel,
    load_signal,
    load_spectrum,
    local_variation_matrix,
    matrices,
    sample_fgw,
    save_graph,
    save_signal,
    spectral_filter_2d,
    standard_graph,
)
from mdgsp import test_directional_stationarity as directional_report
from mdgsp import test_fgw_stationarity as fgw_report
from mdgsp.cli import main
from helpers import laplacian_basis, sensor_graph

N1, N2 = 16, 12
EPS = np.finfo(np.float64).eps
SIGNAL = ("--signal", "{d}/f{tag}.csv")
DUAL_TOL = 1e-10


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


def gap_bound(*reports):
    """2 sqrt(tol E): each certified solve x has E(x) - E* <= tol E(x), and the energy
    is 2-strongly convex (its fidelity is ||x - y||^2), so ||x - x*||_2 <= sqrt(tol E(x))
    and two such solves of one energy lie within the sum of their two radii."""
    assert all(r.method == "dual" and r.converged for r in reports)
    return 2 * np.sqrt(DUAL_TOL * max(r.energy for r in reports))


@pytest.mark.parametrize("c", [1e-3, 1e3])
def test_scaled_weights_with_scaled_parameters_give_the_same_outputs(c):
    # W1 -> c W1 with tau1 / c and gamma1 / c: the heat filter and the closed form go
    # through the eigenbasis of c L1 (the largest difference seen is 18 eps of the
    # output's largest magnitude, over seven draws), the q = 1 dual through
    # `Incidence.weigh` and a box from c w1
    rng = np.random.default_rng(23)
    g1, g2 = sensor_graph(rng, 30), standard_graph("cycle", 8)
    scaled = Graph(n=g1.n, w=c * g1.w)
    f = rng.standard_normal((g1.n, g2.n))
    b1, b2, b1c = laplacian_basis(g1), laplacian_basis(g2), laplacian_basis(scaled)
    pairs = [(spectral_filter_2d(f, heat_kernel(0.4, 0.2), b1, b2),
              spectral_filter_2d(f, heat_kernel(0.4 / c, 0.2), b1c, b2))]
    pairs += [tuple(ebem_minimize(f, g, g2, EbemParams(gamma1=gamma1, gamma2=0.2)).minimizer
                    for g, gamma1 in ((g1, 0.5), (scaled, 0.5 / c)))]
    for want, got in pairs:
        assert np.abs(got - want).max() <= 64 * EPS * np.abs(want).max()
    want, got = (ebem_minimize(f, g, g2, EbemParams(gamma1=gamma1, gamma2=0.2, q1=1, q2=1),
                               tol=DUAL_TOL) for g, gamma1 in ((g1, 0.5), (scaled, 0.5 / c)))
    assert np.linalg.norm(got.minimizer - want.minimizer) <= gap_bound(want, got)


RELABELLED = {
    # more than two neighbours on a side: the sums of a vertex run in another order
    "sensor30": lambda rng: sensor_graph(rng, 30),
    # both sides of a path are runs of consecutive vertices until it is relabelled
    "path12": lambda rng: standard_graph("path", 12),
}


@pytest.fixture(params=[(kind, factor) for kind in RELABELLED for factor in (1, 2)],
                ids=lambda p: f"{p[0]}-factor{p[1]}")
def relabelling(request):
    """Factors and a signal on them, the same with one factor's vertices renamed (vertex m
    is the original's perm[m]), and the function that renames an output of the first."""
    kind, factor = request.param
    rng = np.random.default_rng(29)
    g = RELABELLED[kind](rng)
    perm = rng.permutation(g.n)
    renamed = Graph(n=g.n, w=g.w[np.ix_(perm, perm)])
    other = standard_graph("cycle", 5)
    graphs, renamed_graphs = ((g, other), (renamed, other)) if factor == 1 else (
        (other, g), (other, renamed))
    f = rng.standard_normal((graphs[0].n, graphs[1].n))

    def rename(a):
        return np.take(a, perm, axis=factor - 1)

    return (graphs, f), (renamed_graphs, rename(f)), rename


def test_relabelled_factor_permutes_the_local_variation(relabelling):
    # every edge term keeps its bits (an edge whose endpoints swap order changes the
    # sign of its difference only); a vertex's terms are summed in another order,
    # within the adjoint test's 4 eps
    (graphs, f), (renamed_graphs, renamed_f), rename = relabelling
    for direction in (1, 2):
        want = rename(local_variation_matrix(f, *graphs, direction))
        got = local_variation_matrix(renamed_f, *renamed_graphs, direction)
        assert np.all(np.abs(got - want) <= 4 * EPS * want)


def test_relabelled_factor_permutes_the_minimizers(relabelling):
    (graphs, f), (renamed_graphs, renamed_f), rename = relabelling
    dual = EbemParams(gamma1=0.5, gamma2=0.2, q1=1, q2=1)
    want, got = (ebem_minimize(y, *gs, dual, tol=DUAL_TOL)
                 for gs, y in ((graphs, f), (renamed_graphs, renamed_f)))
    assert np.linalg.norm(got.minimizer - rename(want.minimizer)) <= gap_bound(want, got)
    # the closed form goes through the renamed factor's own eigenbasis; the largest
    # difference seen is 19 eps of the minimizer's largest magnitude, over seven draws
    quadratic = EbemParams(gamma1=0.5, gamma2=0.2)
    want = rename(ebem_minimize(f, *graphs, quadratic).minimizer)
    got = ebem_minimize(renamed_f, *renamed_graphs, quadratic).minimizer
    assert np.abs(got - want).max() <= 64 * EPS * np.abs(want).max()


def test_relabelled_factor_keeps_the_aggregated_powers(relabelling):
    # the groups of lambda1 + lambda2 are the same; the eigenvectors of the renamed
    # Laplacian differ by rounding, which close eigenvalues of the sensor graph turn
    # into power moved between their groups (the largest seen, over seven draws, is
    # 1.6e-14 of the total power; the frequencies moved by at most 5 eps)
    (graphs, f), (renamed_graphs, renamed_f), _ = relabelling
    bases = [laplacian_basis(g) for g in graphs]
    tol = default_tol_mult(np.concatenate([b.values for b in bases]))
    want = aggregate_to_1d(gft_2d(f, *bases), tol)
    got = aggregate_to_1d(gft_2d(renamed_f, *(laplacian_basis(g) for g in renamed_graphs)), tol)
    assert np.array_equal(got.sizes, want.sizes)
    assert np.abs(got.group_freqs - want.group_freqs).max() <= 16 * EPS * want.group_freqs.max()
    assert np.abs(got.group_powers - want.group_powers).max() <= 1e-12 * np.sum(f * f)
