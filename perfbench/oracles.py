"""Numpy-only oracles for every job of the pipeline benchmark.

Each oracle reads a job's primary outputs from a pass directory and checks
them against references computed here from the input files, never from
mdgsp. An oracle returns a `Verdict`: `ok`, a one-line `detail`, optional
numbers, and `defect` when the failure matches one of the open defects the
benchmark is expected to show (see `KNOWN_DEFECTS`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

import workloads as W

# Failures that reproduce open defects of the package. The report counts them
# in failed_ops_ratio; any other failure counts in `failed` and marks the run
# as not correct.
KNOWN_DEFECTS = {
    "q1-false-converged": "q=1 solve reports converged while its certified energy gap "
                          "is above tolerance (ROADMAP: certified non-smooth solver)",
    "stationary-rejected": "default stationarity threshold rejects stationary data on a "
                           "grid above 25 vertices (ROADMAP: calibrated stationarity tests)",
}

PARSEVAL_RTOL = 1e-10
MATCH_RTOL = 1e-9
# Largest certified relative energy gap a solve reported as converged may have.
ENERGY_GAP_TOL = 1e-5
CERT_ITERS = 30_000
# A certificate looser than this share of ENERGY_GAP_TOL cannot tell a
# solver's gap from its own, so the check is inconclusive and fails.
CERT_GAP_SHARE = 0.01


@dataclass
class Verdict:
    ok: bool
    detail: str
    values: dict = field(default_factory=dict)
    defect: str | None = None


def _fail(detail: str, **values) -> Verdict:
    return Verdict(False, detail, values)


class Graph:
    """Edge arrays and dense matrices of one graph JSON file."""

    def __init__(self, path: Path):
        payload = json.loads(Path(path).read_text())
        self.n = payload["n"]
        e = np.array(payload["edges"], dtype=np.float64).reshape(-1, 3)
        self.i = e[:, 0].astype(np.int64)
        self.j = e[:, 1].astype(np.int64)
        self.w = e[:, 2]
        self.W = np.zeros((self.n, self.n))
        self.W[self.i, self.j] = self.w
        self.W[self.j, self.i] = self.w
        self.deg = self.W.sum(axis=1)
        self.L = np.diag(self.deg) - self.W

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.L)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Unweighted edge-by-vertex difference operator."""
        b = np.zeros((len(self.w), self.n))
        b[np.arange(len(self.w)), self.i] = 1.0
        b[np.arange(len(self.w)), self.j] = -1.0
        return b


def read_matrix(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def _rel(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def group_ids(sorted_values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage group index of each value of an ascending sequence."""
    return np.concatenate([[0], np.cumsum(np.diff(sorted_values) > tol)]).astype(np.int64)


class Context:
    """Inputs and lazily computed references of one workload instance."""

    def __init__(self, spec: dict, in_dir: Path):
        self.spec = spec
        self.in_dir = Path(in_dir)
        self._graphs: dict[str, Graph] = {}
        self._signals: dict[str, np.ndarray] = {}
        self.cache: dict = {}

    def graph(self, name: str) -> Graph:
        if name not in self._graphs:
            self._graphs[name] = Graph(self.in_dir / name)
        return self._graphs[name]

    def signal(self, name: str) -> np.ndarray:
        if name not in self._signals:
            self._signals[name] = read_matrix(self.in_dir / name)
        return self._signals[name]


# ------------------------------------------------------------- analysis


def check_gft(ctx: Context, out: Path) -> Verdict:
    g1, g2 = ctx.graph("g1.json"), ctx.graph("g2.json")
    f = ctx.signal("f.csv")
    (l1, u1), (l2, u2) = g1.eig, g2.eig
    n1, n2 = g1.n, g2.n
    rows = np.loadtxt(out / "spec.csv", delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (n1 * n2, 7):
        return _fail(f"spectrum CSV has shape {rows.shape}, expected ({n1 * n2}, 7)")
    k1, k2 = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    if not (np.array_equal(k1, np.repeat(np.arange(n1), n2))
            and np.array_equal(k2, np.tile(np.arange(n2), n1))):
        return _fail("spectrum CSV rows are not in index order")
    lam_scale = max(1.0, float(l1.max()), float(l2.max()))
    lam_err = max(_rel(rows[:, 2], l1[k1]), _rel(rows[:, 3], l2[k2]))
    if lam_err > 1e-8 * lam_scale:
        return _fail(f"eigenvalue columns differ from the reference by {lam_err:.3g}")
    power = rows[:, 6]
    total = float(np.sum(f * f))
    if _rel(power, rows[:, 4] ** 2 + rows[:, 5] ** 2) > 1e-12 * total:
        return _fail("power column is not re^2 + im^2")
    parseval = abs(float(power.sum()) - total) / total
    if parseval > PARSEVAL_RTOL:
        return _fail(f"Parseval violated: relative error {parseval:.3g}", parseval=parseval)
    # Power pooled over degenerate eigenspaces does not depend on the basis.
    gid1 = group_ids(l1, 1e-6 * lam_scale)
    gid2 = group_ids(l2, 1e-6 * lam_scale)
    ref_power = ((u1.T @ f @ u2) ** 2).ravel()
    cells = (gid1[:, None] * (gid2[-1] + 1) + gid2[None, :]).ravel()
    pooled_err = _rel(np.bincount(cells, power), np.bincount(cells, ref_power))
    if pooled_err > MATCH_RTOL * total:
        return _fail(f"grouped power differs from the reference by {pooled_err:.3g}")

    agg = np.loadtxt(out / "agg.csv", delimiter=",", skiprows=1, ndmin=2)
    sums = np.add.outer(l1, l2).ravel()
    order = np.argsort(sums, kind="stable")
    gid = group_ids(sums[order], 1e-8 * lam_scale)
    sizes = np.bincount(gid)
    if agg.shape != (len(sizes), 3) or not np.array_equal(agg[:, 2].astype(np.int64), sizes):
        return _fail(f"aggregated CSV has {agg.shape[0]} groups or sizes unlike the "
                     f"reference's {len(sizes)}")
    agg_err = _rel(agg[:, 1], np.bincount(gid, ref_power[order]))
    freq_err = _rel(agg[:, 0], np.bincount(gid, sums[order]) / sizes)
    if agg_err > MATCH_RTOL * total or freq_err > 1e-8 * lam_scale:
        return _fail(f"aggregated power/frequency differ by {agg_err:.3g}/{freq_err:.3g}")

    svg = (out / "spec.svg").read_text()
    cells_drawn = svg.count("<rect ") - 1
    if not (svg.startswith("<?xml") and svg.endswith("</svg>\n") and cells_drawn == n1 * n2):
        return _fail(f"SVG is malformed or draws {cells_drawn} cells, expected {n1 * n2}")
    return Verdict(True, f"Parseval {parseval:.2g}; {len(sizes)} groups match",
                   {"parseval": parseval, "groups": int(len(sizes))})


def _filter_verdict(got: np.ndarray, ref: np.ndarray, what: str) -> Verdict:
    if got.shape != ref.shape:
        return _fail(f"{what} output has shape {got.shape}, expected {ref.shape}")
    err = _rel(got, ref) / max(1.0, float(np.abs(ref).max()))
    if err > MATCH_RTOL:
        return _fail(f"{what} output differs from the reference by {err:.3g} relative")
    return Verdict(True, f"{what} matches to {err:.2g}", {"error": err})


def check_filter_heat(ctx: Context, out: Path) -> Verdict:
    g1, g2 = ctx.graph("g1.json"), ctx.graph("g2.json")
    (l1, u1), (l2, u2) = g1.eig, g2.eig
    response = np.exp(-W.HEAT_TAU[0] * l1[:, None] - W.HEAT_TAU[1] * l2[None, :])
    ref = u1 @ (response * (u1.T @ ctx.signal("f.csv") @ u2)) @ u2.T
    return _filter_verdict(read_matrix(out / "heat.csv"), ref, "heat filter")


def check_filter_poly(ctx: Context, out: Path) -> Verdict:
    L1, L2 = ctx.graph("g1.json").L, ctx.graph("g2.json").L
    H = np.array(W.POLY_H)
    ref = np.zeros_like(ctx.signal("f.csv"))
    left = ctx.signal("f.csv")
    for s1 in range(H.shape[0]):
        term = left
        for s2 in range(H.shape[1]):
            ref += H[s1, s2] * term
            term = term @ L2
        left = L1 @ left
    return _filter_verdict(read_matrix(out / "poly.csv"), ref, "polynomial filter")


def check_variation(ctx: Context, out: Path) -> Verdict:
    g1, g2 = ctx.graph("g1.json"), ctx.graph("g2.json")
    f = ctx.signal("f.csv")
    reports = {r["direction"]: r for r in json.loads((out / "var.json").read_text())["reports"]}
    # Trace form of the total, and the local squares expanded through W and
    # the degrees: sum_j w_ij (f_j - f_i)^2 = d_i f_i^2 - 2 f_i (W f)_i + (W f^2)_i.
    refs = {
        1: (float(np.sum(f * (g1.L @ f))),
            g1.deg[:, None] * f * f - 2 * f * (g1.W @ f) + g1.W @ (f * f)),
        2: (float(np.sum(f * (f @ g2.L))),
            g2.deg[None, :] * f * f - 2 * f * (f @ g2.W) + (f * f) @ g2.W),
    }
    worst = 0.0
    for d, (trace, local_sq) in refs.items():
        if d not in reports:
            return _fail(f"variation report lacks direction {d}")
        err = abs(reports[d]["total"] - trace) / max(1.0, abs(trace))
        if err > 1e-8:
            return _fail(f"direction {d} total differs from the trace form by {err:.3g}")
        local = read_matrix(out / f"local-d{d}.csv")
        if local.shape != f.shape or np.any(local < 0):
            return _fail(f"direction {d} local variation has bad shape or sign")
        lerr = _rel(local ** 2, local_sq) / max(1.0, float(local_sq.max()))
        if lerr > MATCH_RTOL:
            return _fail(f"direction {d} local variation differs by {lerr:.3g} relative")
        worst = max(worst, err)
    return Verdict(True, f"totals match the trace form to {worst:.2g}", {"error": worst})


# -------------------------------------------------------------- denoise


def _solves(out: Path, name: str) -> list[dict]:
    return json.loads((out / name).read_text())["solves"]


def check_denoise_sweep(ctx: Context, out: Path) -> Verdict:
    g1, g2 = ctx.graph("sweep_g1.json"), ctx.graph("sweep_g2.json")
    y = ctx.signal("sweep_y.csv")
    solves = _solves(out, "sweep.json")
    if len(solves) != len(W.sweep_outputs()):
        return _fail(f"sweep report has {len(solves)} solves")
    worst = 0.0
    for entry, name in zip(solves, W.sweep_outputs()):
        x = read_matrix(out / name)
        a, b = entry["gamma1"], entry["gamma2"]
        # Matrix-free residual of (I + a L1 (+) b L2) x = y.
        resid = _rel(x + a * (g1.L @ x) + b * (x @ g2.L), y) / max(1.0, float(np.abs(y).max()))
        energy = float(np.sum((x - y) ** 2) + a * np.sum(x * (g1.L @ x))
                       + b * np.sum(x * (x @ g2.L)))
        eerr = abs(entry["energy"] - energy) / max(1.0, energy)
        if resid > MATCH_RTOL or eerr > 1e-8 or not entry["converged"]:
            return _fail(f"gamma ({a:g}, {b:g}): residual {resid:.3g}, energy error "
                         f"{eerr:.3g}, converged={entry['converged']}")
        worst = max(worst, resid)
    return Verdict(True, f"{len(solves)} closed-form residuals <= {worst:.2g}",
                   {"residual": worst})


def grid_energy_terms(ctx: Context, q: float):
    """Energy and gradient of the grid problem at exponent q (p = 2)."""
    g1, g2 = ctx.graph("grid_g1.json"), ctx.graph("grid_g2.json")
    y = ctx.signal("grid_y.csv")
    c1, c2 = W.GRID_GAMMA * g1.w, W.GRID_GAMMA * g2.w
    b1, b2 = g1.incidence, g2.incidence

    def energy(x):
        return float(np.sum((x - y) ** 2) + np.sum(c1[:, None] * np.abs(b1 @ x) ** q)
                     + np.sum(c2[None, :] * np.abs(x @ b2.T) ** q))

    def gradient(x):
        d1, d2 = b1 @ x, x @ b2.T
        phi1 = np.abs(d1) ** (q - 1) * np.sign(d1)
        phi2 = np.abs(d2) ** (q - 1) * np.sign(d2)
        return 2 * (x - y) + q * (b1.T @ (c1[:, None] * phi1) + (c2[None, :] * phi2) @ b2)

    return y, energy, gradient


def q1_certificate(ctx: Context) -> dict:
    """Dual lower bound on the q = 1 energy, by FISTA on its box-constrained dual.

    E(x) = ||x - y||^2 + sum_e c_e |(D x)_e| has the dual
    g(z) = <D^T z, y> - ||D^T z||^2 / 4 over |z_e| <= c_e, and every feasible
    z bounds the minimum energy from below.
    """
    if "q1" in ctx.cache:
        return ctx.cache["q1"]
    g1, g2 = ctx.graph("grid_g1.json"), ctx.graph("grid_g2.json")
    y, energy, _ = grid_energy_terms(ctx, 1.0)
    b1, b2 = g1.incidence, g2.incidence
    c1 = W.GRID_GAMMA * g1.w[:, None] * np.ones((1, g2.n))
    c2 = W.GRID_GAMMA * g2.w[None, :] * np.ones((g1.n, 1))

    def adjoint(z1, z2):
        return b1.T @ z1 + z2 @ b2

    def dual(z1, z2):
        v = adjoint(z1, z2)
        return float(np.sum(v * y) - 0.25 * np.sum(v * v))

    # 1 / Lipschitz bound: lambda_max(D^T D) <= 2 * (max unweighted degree) per factor.
    step = 2.0 / (2 * np.abs(b1).sum(axis=0).max() + 2 * np.abs(b2).sum(axis=0).max())
    z1, z2 = np.zeros_like(c1), np.zeros_like(c2)
    p1, p2, t = z1, z2, 1.0
    best = dual(z1, z2)
    gap = np.inf
    for it in range(1, CERT_ITERS + 1):
        x = y - 0.5 * adjoint(p1, p2)  # primal point of the dual iterate
        n1 = np.clip(p1 + step * (b1 @ x), -c1, c1)
        n2 = np.clip(p2 + step * (x @ b2.T), -c2, c2)
        t_next = 0.5 * (1 + np.sqrt(1 + 4 * t * t))
        beta = (t - 1) / t_next
        p1, p2 = n1 + beta * (n1 - z1), n2 + beta * (n2 - z2)
        if dual(n1, n2) < dual(z1, z2):  # adaptive restart keeps the bound monotone
            p1, p2, t_next = n1, n2, 1.0
        z1, z2, t = n1, n2, t_next
        if it % 100 == 0:
            best = max(best, dual(z1, z2))
            gap = (energy(y - 0.5 * adjoint(z1, z2)) - best) / best
            if gap <= 1e-10:
                break
    ctx.cache["q1"] = {"lower_bound": best, "self_gap": float(gap), "iterations": it}
    return ctx.cache["q1"]


def check_denoise_smooth(ctx: Context, out: Path) -> Verdict:
    """Certify the q = 1.5 solve from its gradient norm.

    The p = 2 fidelity makes the energy 2-strongly convex, so
    E(x) - E* <= ||grad E(x)||^2 / 4.
    """
    _, energy, gradient = grid_energy_terms(ctx, W.SMOOTH_Q)
    x = read_matrix(out / "smooth.csv")
    entry = _solves(out, "smooth.json")[0]
    e, g = energy(x), gradient(x)
    gap = float(np.sum(g * g)) / 4.0 / e
    values = {"gap_bound": gap, "iterations": entry["iterations"]}
    if abs(entry["energy"] - e) / e > 1e-8:
        return Verdict(False, "reported energy differs from the oracle's", values)
    if gap > ENERGY_GAP_TOL or not entry["converged"]:
        return Verdict(False, f"gradient-certified energy gap {gap:.3g} (limit "
                              f"{ENERGY_GAP_TOL:g}), converged={entry['converged']}", values)
    return Verdict(True, f"gradient-certified energy gap {gap:.2g} in "
                         f"{entry['iterations']} iterations", values)


def check_denoise_q1(ctx: Context, out: Path) -> Verdict:
    _, energy, _ = grid_energy_terms(ctx, 1.0)
    cert = q1_certificate(ctx)
    x = read_matrix(out / "q1.csv")
    entry = _solves(out, "q1.json")[0]
    if cert["self_gap"] > CERT_GAP_SHARE * ENERGY_GAP_TOL:
        return _fail(f"inconclusive: the dual certificate's own gap {cert['self_gap']:.3g} "
                     f"is above {CERT_GAP_SHARE * ENERGY_GAP_TOL:g}",
                     certificate_gap=cert["self_gap"])
    e = energy(x)
    gap = (e - cert["lower_bound"]) / cert["lower_bound"]
    values = {"gap": gap, "certificate_gap": cert["self_gap"], "iterations": entry["iterations"]}
    if abs(entry["energy"] - e) / e > 1e-8:
        return Verdict(False, "reported energy differs from the oracle's", values)
    if gap > ENERGY_GAP_TOL:
        v = Verdict(False, f"energy gap {gap:.3g} to the dual certificate above "
                           f"{ENERGY_GAP_TOL:g}, converged={entry['converged']}", values)
        if entry["converged"]:
            v.defect = "q1-false-converged"
        return v
    return Verdict(True, f"energy gap {gap:.2g} to the dual certificate", values)


# --------------------------------------------------------- stationarity


def _verdict_of(out: Path, name: str) -> str:
    return json.loads((out / name).read_text())["verdict"]


def _stationary_verdict(verdict: str, what: str, values: dict) -> Verdict:
    if verdict == "pass":
        return Verdict(True, f"{what} passes", values)
    return Verdict(False, f"{what} is stationary by construction but the test says "
                          f"{verdict!r}", values, defect="stationary-rejected")


def mc_excess(cov: np.ndarray, ref: np.ndarray, m: int) -> float:
    """Largest deviation of an empirical covariance from its reference, in
    units of criterion 8's Monte-Carlo bound `5 sqrt(2/M) (G + 0.1 max G)`.

    Off the diagonal, G is the geometric mean of the two variances, which
    bounds the entry's standard deviation the same way.
    """
    d = np.diag(ref)
    bound = 5.0 * np.sqrt(2.0 / m) * (np.sqrt(np.outer(d, d)) + 0.1 * d.max())
    return float(np.max(np.abs(cov - ref) / bound))


def check_stationarity_fgw(ctx: Context, out: Path) -> Verdict:
    g1, g2 = ctx.graph("g1.json"), ctx.graph("g2.json")
    (l1, u1), (l2, u2) = g1.eig, g2.eig
    m = ctx.spec["samples"]
    x = np.load(out / "fgw.npy")
    if x.shape != (m, g1.n, g2.n):
        return _fail(f"sample dump has shape {x.shape}, expected {(m, g1.n, g2.n)}")
    H = np.array(json.loads((ctx.in_dir / "fgw.json").read_text())["h"])
    gains = np.vander(l1, H.shape[0], increasing=True) @ H @ np.vander(
        l2, H.shape[1], increasing=True).T
    gamma = (gains ** 2).ravel()
    var = (u1.T @ x @ u2).reshape(m, -1).var(axis=0, ddof=1)
    excess = mc_excess(np.diag(var), np.diag(gamma), m)
    if excess > 1.0:
        return _fail(f"spectral variances off the squared gains by {excess:.3g}x the bound")
    return _stationary_verdict(_verdict_of(out, "fgw.json"),
                               f"fgw sample batch (variances within {excess:.2f}x the bound)",
                               {"variance_vs_bound": excess})


def check_stationarity_dir(ctx: Context, out: Path) -> Verdict:
    """Half-spectral covariance of the dir1 samples, then the verdict.

    Along factor 1 the samples are x~_k = z~_k Htilde_k with white rows z~_k,
    so row k has covariance Htilde_k^T Htilde_k, Htilde_k = sum_s l_k^s H_s,
    and rows of different frequencies are uncorrelated.
    """
    g1 = ctx.graph("g1.json")
    l1, u1 = g1.eig
    hs = np.array(json.loads((ctx.in_dir / "dir.json").read_text())["hs"])
    m, k = ctx.spec["samples"], hs.shape[1]
    x = np.load(out / "dir.npy")
    if x.shape != (m, g1.n, k):
        return _fail(f"sample dump has shape {x.shape}, expected {(m, g1.n, k)}")
    half = np.tensordot(np.vander(l1, hs.shape[0], increasing=True), hs, axes=(1, 0))
    ref = np.zeros((g1.n * k, g1.n * k))
    for f, h in enumerate(half):
        ref[f * k:(f + 1) * k, f * k:(f + 1) * k] = h.T @ h
    cov = np.cov((u1.T @ x).reshape(m, -1), rowvar=False)
    excess = mc_excess(cov, ref, m)
    if excess > 1.0:
        return _fail(f"half-spectral covariance off its reference by {excess:.3g}x the bound")
    return _stationary_verdict(_verdict_of(out, "dir.json"),
                               f"dir1 sample batch (covariance within {excess:.2f}x the bound)",
                               {"covariance_vs_bound": excess})


def check_stationarity_broken(ctx: Context, out: Path) -> Verdict:
    verdict = _verdict_of(out, "broken.json")
    if verdict != "fail":
        return _fail(f"batch with a zeroed row is not stationary, but the test says {verdict!r}")
    return Verdict(True, "broken batch rejected")


ORACLES = {
    "gft": check_gft,
    "filter_heat": check_filter_heat,
    "filter_poly": check_filter_poly,
    "variation": check_variation,
    "denoise_sweep": check_denoise_sweep,
    "denoise_smooth": check_denoise_smooth,
    "denoise_q1": check_denoise_q1,
    "stationarity_fgw": check_stationarity_fgw,
    "stationarity_dir": check_stationarity_dir,
    "stationarity_broken": check_stationarity_broken,
}


def check(ctx: Context, job: str, out: Path) -> Verdict:
    """Run a job's oracle; unreadable or missing outputs are a failure."""
    try:
        return ORACLES[job](ctx, Path(out))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return _fail(f"output unreadable: {type(exc).__name__}: {exc}")
