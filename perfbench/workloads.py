"""Workloads of the pipeline benchmark: seeded inputs and the jobs of one pass.

A workload writes its input files from the seed, then lists the jobs one
pass runs. A job is either a CLI invocation (an argv for `mdgsp.cli.main`)
or a library call; each names its primary outputs, which the oracles in
`oracles.py` check. `SIZES` holds a full and a tiny size per workload;
the self-checks run the tiny one.

Why each workload was chosen is stated in `WHY`; `BENCHMARK.json` carries
the same reasons in one line each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WHY = {
    "analysis": (
        "1000-vertex sensor graph x cycle(100) (1e5 product vertices): gft with "
        "aggregation, CSV and SVG writing, heat and polynomial filters, and the "
        "(n1, n1, n2) pairwise tensor of variation. The spectrum is nearly distinct "
        "(cycle eigenvalues come in pairs), so aggregation forms ~5e4 small groups. "
        "No denoising or noise generation."
    ),
    "denoise": (
        "The energy layer used two opposite ways: a 2x2 gamma sweep of closed-form "
        "solves on 700 x cycle(100) makes a few huge memory-bound ebem_energy calls "
        "(and recomputes both eigenbases per gamma pair), while q=1.5 and q=1 "
        "gradient solves on path(64) x cycle(64) make thousands of tiny calls "
        "bound by per-call overhead. No aggregation or noise generation."
    ),
    "stationarity": (
        "path(16) x cycle(16) at the default M = 20000 and default threshold: "
        "per-sample Generator setup, the vertex/spectral path cross-check and the "
        "covariance tests dominate; the 16x16 eigendecompositions and transforms "
        "do almost nothing."
    ),
}

SIZES = {
    "full": {
        "analysis": {"sensor": 1000, "knn": 8, "cycle": 100},
        "denoise": {"sweep_sensor": 700, "knn": 8, "sweep_cycle": 100, "grid": (64, 64)},
        "stationarity": {"n1": 16, "n2": 16, "samples": None, "dir_k": 4},
    },
    "tiny": {
        "analysis": {"sensor": 12, "knn": 4, "cycle": 5},
        "denoise": {"sweep_sensor": 10, "knn": 4, "sweep_cycle": 6, "grid": (5, 6)},
        "stationarity": {"n1": 3, "n2": 4, "samples": 2000, "dir_k": 2},
    },
}

# Energy-model parameters of the denoise jobs; p = 2 throughout.
SWEEP_GAMMA1 = (0.5, 2.0)
SWEEP_GAMMA2 = (0.3, 1.5)
GRID_GAMMA = 0.5
# Noise of the gradient solves' observation. At 1.0 the iteration counts of
# the q = 1.5 and q = 1 solves vary by about 10% between draws; at 0.3 the
# q = 1.5 count varied from 62 to 158, so seeds did different amounts of work.
GRID_NOISE = 1.0
SMOOTH_Q = 1.5

HEAT_TAU = (0.4, 0.2)
POLY_H = ((1.0, -0.25, 0.02), (-0.2, 0.03, -0.004), (0.01, -0.002, 0.0005))


@dataclass(frozen=True)
class Job:
    """One step of a pass.

    `argv` holds CLI arguments with `{in}`/`{out}` placeholders for the
    input and pass directories; a library job has `argv=None` and is run by
    `LibraryJobs.run`. `outputs` are primary output names in the pass
    directory (manifests excluded).
    """

    name: str
    argv: tuple[str, ...] | None
    outputs: tuple[str, ...]

    def resolve(self, in_dir: Path, out_dir: Path) -> list[str]:
        return [a.format(**{"in": str(in_dir), "out": str(out_dir)}) for a in self.argv]


# ---------------------------------------------------------------- inputs


def _graph_json(n: int, edges) -> str:
    return json.dumps({"n": n, "edges": [[int(i), int(j), float(w)] for i, j, w in edges]})


def family_edges(kind: str, n: int) -> list[tuple[int, int, float]]:
    if kind == "path":
        return [(i, i + 1, 1.0) for i in range(n - 1)]
    if kind == "cycle":
        return [(i, (i + 1) % n, 1.0) for i in range(n)]
    raise ValueError(kind)


def sensor_graph(rng: np.random.Generator, n: int, k: int):
    """Symmetrized k-nearest-neighbour graph on random points, Gaussian weights.

    Returns the weighted edges and each vertex's first coordinate. Random
    positions give distinct Laplacian spectra with probability one.
    """
    pts = rng.random((n, 2))
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)
    nbrs = np.argpartition(d2, k, axis=1)[:, :k]
    sigma2 = float(np.mean(d2[np.arange(n)[:, None], nbrs]))
    pairs = {(min(i, int(j)), max(i, int(j))) for i in range(n) for j in nbrs[i]}
    edges = [(i, j, float(np.exp(-d2[i, j] / (2.0 * sigma2)))) for i, j in sorted(pairs)]
    return edges, pts[:, 0]


def write_signal(path: Path, f: np.ndarray) -> None:
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in f) + "\n")


def noisy_field(rng: np.random.Generator, pos: np.ndarray, n2: int, noise: float) -> np.ndarray:
    """Piecewise-smooth signal of vertex position and time, plus white noise.

    `pos` in [0, 1) places the first factor's vertices; the clean part is
    smooth along both factors except for one step.
    """
    a = pos[:, None]
    t = np.arange(n2)[None, :] / n2
    f = np.sin(2 * np.pi * (a + t)) + 0.5 * np.cos(6 * np.pi * a * t) + (a > 0.5)
    return f + noise * rng.standard_normal(f.shape)


def generate(workload: str, seed: int, in_dir: Path, size: str = "full") -> dict:
    """Write the workload's inputs for `seed` into `in_dir`; return its spec.

    The spec is JSON-serializable and holds everything the jobs and the
    oracles need besides the files themselves.
    """
    sz = SIZES[size][workload]
    rng = np.random.default_rng([seed, list(WHY).index(workload)])
    in_dir.mkdir(parents=True, exist_ok=True)
    spec: dict = {"workload": workload, "seed": seed, "size": size}

    def graph(name, n, edges):
        (in_dir / name).write_text(_graph_json(n, edges))

    if workload == "analysis":
        n1, n2 = sz["sensor"], sz["cycle"]
        edges, pos = sensor_graph(rng, n1, sz["knn"])
        graph("g1.json", n1, edges)
        graph("g2.json", n2, family_edges("cycle", n2))
        write_signal(in_dir / "f.csv", noisy_field(rng, pos, n2, 0.1))
        (in_dir / "heat.json").write_text(json.dumps(
            {"kind": "heat", "params": {"tau1": HEAT_TAU[0], "tau2": HEAT_TAU[1]}}))
        (in_dir / "poly.json").write_text(json.dumps(
            {"kind": "polynomial", "coeffs": [list(r) for r in POLY_H]}))
    elif workload == "denoise":
        n1, n2 = sz["sweep_sensor"], sz["sweep_cycle"]
        edges, pos = sensor_graph(rng, n1, sz["knn"])
        graph("sweep_g1.json", n1, edges)
        graph("sweep_g2.json", n2, family_edges("cycle", n2))
        write_signal(in_dir / "sweep_y.csv", noisy_field(rng, pos, n2, 0.3))
        m1, m2 = sz["grid"]
        graph("grid_g1.json", m1, family_edges("path", m1))
        graph("grid_g2.json", m2, family_edges("cycle", m2))
        write_signal(in_dir / "grid_y.csv",
                     noisy_field(rng, np.arange(m1) / m1, m2, GRID_NOISE))
    elif workload == "stationarity":
        n1, n2, k = sz["n1"], sz["n2"], sz["dir_k"]
        graph("g1.json", n1, family_edges("path", n1))
        graph("g2.json", n2, family_edges("cycle", n2))
        h = np.array([[1.0, 0.0], [0.0, 0.0]])
        h[0, 1], h[1, 0], h[1, 1] = 0.1 + 0.3 * rng.random(3) * np.array([1.0, 1.0, 0.2])
        (in_dir / "fgw.json").write_text(json.dumps({"h": h.tolist()}))
        hs = np.zeros((n1, k, k))
        hs[0] = np.eye(k) + 0.3 * rng.standard_normal((k, k))
        hs[1] = 0.2 * rng.standard_normal((k, k))
        (in_dir / "dir.json").write_text(json.dumps({"hs": hs.tolist()}))
        m = sz["samples"] or 20_000
        broken = rng.standard_normal((m, n1, n2))
        broken[:, 0, :] = 0.0
        np.save(in_dir / "broken.npy", broken)
        spec.update(samples=m, cli_samples=sz["samples"], sample_seed=int(rng.integers(2**31)))
    else:
        raise KeyError(workload)
    spec["sizes"] = dict(sz)
    (in_dir / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec


# ------------------------------------------------------------------ jobs


def _csv(vals) -> str:
    return ",".join(f"{v:g}" for v in vals)


def sweep_outputs() -> tuple[str, ...]:
    return tuple(f"sweep-g1_{a:g}-g2_{b:g}.csv" for a in SWEEP_GAMMA1 for b in SWEEP_GAMMA2)


def jobs(spec: dict) -> list[Job]:
    """The jobs of one pass, in the order a user would run them."""
    w = spec["workload"]
    if w == "analysis":
        pair = ("--g1", "{in}/g1.json", "--g2", "{in}/g2.json", "--signal", "{in}/f.csv")
        return [
            Job("gft", ("gft",) + pair + ("--out", "{out}/spec.csv", "--svg", "{out}/spec.svg",
                                          "--aggregate-out", "{out}/agg.csv"),
                ("spec.csv", "spec.svg", "agg.csv")),
            Job("filter_heat", ("filter",) + pair + ("--kernel", "{in}/heat.json",
                                                     "--out", "{out}/heat.csv"), ("heat.csv",)),
            Job("filter_poly", ("filter",) + pair + ("--kernel", "{in}/poly.json",
                                                     "--out", "{out}/poly.csv"), ("poly.csv",)),
            Job("variation", ("variation",) + pair + ("--direction", "both", "--out",
                                                      "{out}/var.json", "--local-csv",
                                                      "{out}/local.csv"),
                ("var.json", "local-d1.csv", "local-d2.csv")),
        ]
    if w == "denoise":
        grid = ("denoise", "--g1", "{in}/grid_g1.json", "--g2", "{in}/grid_g2.json",
                "--observation", "{in}/grid_y.csv", "--gamma1", f"{GRID_GAMMA:g}",
                "--gamma2", f"{GRID_GAMMA:g}")
        return [
            Job("denoise_sweep",
                ("denoise", "--g1", "{in}/sweep_g1.json", "--g2", "{in}/sweep_g2.json",
                 "--observation", "{in}/sweep_y.csv", "--gamma1", _csv(SWEEP_GAMMA1),
                 "--gamma2", _csv(SWEEP_GAMMA2), "--out", "{out}/sweep.csv",
                 "--report", "{out}/sweep.json"),
                sweep_outputs() + ("sweep.json",)),
            Job("denoise_smooth", grid + ("--q1", f"{SMOOTH_Q:g}", "--q2", f"{SMOOTH_Q:g}",
                                          "--out", "{out}/smooth.csv",
                                          "--report", "{out}/smooth.json"),
                ("smooth.csv", "smooth.json")),
            Job("denoise_q1", grid + ("--q1", "1", "--q2", "1", "--out", "{out}/q1.csv",
                                      "--report", "{out}/q1.json"),
                ("q1.csv", "q1.json")),
        ]
    if w == "stationarity":
        base = ("stationarity", "--mode", "test", "--g1", "{in}/g1.json", "--g2",
                "{in}/g2.json", "--seed", str(spec["sample_seed"]))
        if spec["cli_samples"]:
            base += ("--samples", str(spec["cli_samples"]))
        return [
            Job("stationarity_fgw", base + ("--kind", "fgw", "--coeffs", "{in}/fgw.json",
                                            "--out", "{out}/fgw.npy", "--report",
                                            "{out}/fgw.json"),
                ("fgw.npy", "fgw.json")),
            Job("stationarity_dir", base + ("--kind", "dir1", "--coeffs", "{in}/dir.json",
                                            "--out", "{out}/dir.npy", "--report",
                                            "{out}/dir.json"),
                ("dir.npy", "dir.json")),
            Job("stationarity_broken", None, ("broken.json",)),
        ]
    raise KeyError(w)


class LibraryJobs:
    """State and calls for the library jobs of a workload.

    Loading the batch and graphs happens once, outside the timed region;
    the timed call is what a library user runs on a batch in memory.
    """

    def __init__(self, spec: dict, in_dir: Path):
        self.spec = spec
        self.in_dir = in_dir
        if spec["workload"] == "stationarity":
            from mdgsp import load_graph, matrices

            self.batch = np.load(in_dir / "broken.npy")
            self.L1 = matrices(load_graph(in_dir / "g1.json")).L
            self.L2 = matrices(load_graph(in_dir / "g2.json")).L

    def run(self, name: str) -> dict:
        if name == "stationarity_broken":
            from mdgsp import eigenbasis, test_fgw_stationarity

            b1 = eigenbasis(self.L1, "laplacian")
            b2 = eigenbasis(self.L2, "laplacian")
            rep = test_fgw_stationarity(self.batch, b1, b2)
            return {"report": rep.to_dict(), "verdict": "pass" if rep.verdict else "fail"}
        raise KeyError(name)
