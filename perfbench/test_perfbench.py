"""Self-checks of the pipeline benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import mdgsp.cli as cli  # noqa: E402
import oracles as O  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402


def run_tiny(workload: str, tmp: Path, seed: int = 3):
    in_dir, out = tmp / "in", tmp / "out"
    out.mkdir(parents=True)
    spec = W.generate(workload, seed, in_dir, size="tiny")
    lib = W.LibraryJobs(spec, in_dir)
    for job in W.jobs(spec):
        if job.argv is None:
            (out / job.outputs[0]).write_text(json.dumps(lib.run(job.name)))
        else:
            assert cli.main(job.resolve(in_dir, out)) == 0, job.name
    return O.Context(spec, in_dir), out


@pytest.mark.parametrize("workload", sorted(W.WHY))
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    def files(seed, name):
        W.generate(workload, seed, tmp_path / name, size="tiny")
        return {p.name: p.read_bytes() for p in sorted((tmp_path / name).iterdir())}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a") != files(6, "c")


def test_every_workload_states_why_it_was_chosen():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(W.WHY)
    for name, why in W.WHY.items():
        assert len(why) > 40, name
    assert [m["name"] for m in bench["per_layer"]] == list(spans.PER_LAYER_UNITS)


def test_known_defects_stay_out_of_failed():
    import run

    runs = [{"ok": True, "known_defect": None},
            {"ok": False, "known_defect": "q1-false-converged"},
            {"ok": False, "known_defect": None}]
    assert run.failure_counts(runs) == (2, 1)
    assert run.failure_counts(runs[:2]) == (1, 0)


def test_analysis_oracles_accept_and_reject(tmp_path):
    ctx, out = run_tiny("analysis", tmp_path)
    for job in ("gft", "filter_heat", "filter_poly", "variation"):
        assert O.check(ctx, job, out).ok, job

    rows = (out / "spec.csv").read_text().splitlines()
    cols = rows[3].split(",")
    cols[6] = repr(float(cols[6]) * 1.001 + 1e-3)
    (out / "spec.csv").write_text("\n".join(rows[:3] + [",".join(cols)] + rows[4:]) + "\n")
    assert not O.check(ctx, "gft", out).ok

    var = (out / "var.json").read_text()
    report = json.loads(var)
    report["reports"][1]["total"] *= 1 + 1e-6
    (out / "var.json").write_text(json.dumps(report))
    assert not O.check(ctx, "variation", out).ok
    (out / "var.json").write_text(var)

    for job, name in (("filter_heat", "heat.csv"), ("filter_poly", "poly.csv"),
                      ("variation", "local-d1.csv")):
        x = O.read_matrix(out / name)
        x[0, 0] += 1e-6
        W.write_signal(out / name, x)
        assert not O.check(ctx, job, out).ok, job


def test_denoise_oracles_accept_and_reject(tmp_path):
    ctx, out = run_tiny("denoise", tmp_path)
    assert O.check(ctx, "denoise_sweep", out).ok
    assert O.check(ctx, "denoise_smooth", out).ok
    q1 = O.check(ctx, "denoise_q1", out)
    assert q1.values["certificate_gap"] <= 1e-9

    for job, name in (("denoise_sweep", W.sweep_outputs()[0]), ("denoise_smooth", "smooth.csv"),
                      ("denoise_q1", "q1.csv")):
        x = O.read_matrix(out / name)
        W.write_signal(out / name, x + 1e-2)
        assert not O.check(ctx, job, out).ok, job


def test_q1_certificate_is_a_lower_bound(tmp_path):
    ctx, out = run_tiny("denoise", tmp_path)
    _, energy, _ = O.grid_energy_terms(ctx, 1.0)
    cert = O.q1_certificate(ctx)
    x = O.read_matrix(out / "q1.csv")
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert energy(x + 1e-3 * rng.standard_normal(x.shape)) >= cert["lower_bound"]


def test_q1_oracle_is_inconclusive_with_a_loose_certificate(tmp_path, monkeypatch):
    ctx, out = run_tiny("denoise", tmp_path)
    monkeypatch.setattr(O, "CERT_ITERS", 1)
    v = O.check(ctx, "denoise_q1", out)
    assert not v.ok and v.defect is None and "inconclusive" in v.detail


def test_stationarity_oracles_accept_and_reject(tmp_path):
    ctx, out = run_tiny("stationarity", tmp_path)
    for job in ("stationarity_fgw", "stationarity_dir", "stationarity_broken"):
        assert O.check(ctx, job, out).ok, job

    for job, name in (("stationarity_fgw", "fgw.json"), ("stationarity_dir", "dir.json"),
                      ("stationarity_broken", "broken.json")):
        report = json.loads((out / name).read_text())
        report["verdict"] = {"pass": "fail", "fail": "pass"}[report["verdict"]]
        (out / name).write_text(json.dumps(report))
        assert not O.check(ctx, job, out).ok, job

    # Samples off their process fail as plain failures, not as the known
    # defect, even though the flipped verdicts above now read "fail".
    for job, name in (("stationarity_fgw", "fgw.npy"), ("stationarity_dir", "dir.npy")):
        samples = np.load(out / name)
        np.save(out / name, samples * 1.5)
        v = O.check(ctx, job, out)
        assert not v.ok and v.defect is None, job

    dir_samples = np.load(out / "dir.npy") / 1.5
    dir_samples[:, :, 0] += 0.5 * dir_samples[:, :, 1]  # correlate two columns
    np.save(out / "dir.npy", dir_samples)
    v = O.check(ctx, "stationarity_dir", out)
    assert not v.ok and v.defect is None


def test_trace_wraps_every_binding_and_restores_them():
    import mdgsp.cli
    import mdgsp.spectral

    original = mdgsp.spectral.eigenbasis
    rec = spans.Recorder()
    patched = spans.install(rec)
    try:
        assert mdgsp.cli.eigenbasis is mdgsp.spectral.eigenbasis is not original
        assert mdgsp.spectral.eigenbasis.__wrapped__ is original
    finally:
        spans.uninstall(patched)
    assert mdgsp.cli.eigenbasis is original and mdgsp.spectral.eigenbasis is original


def test_trace_stops_when_a_listed_function_is_missing(monkeypatch):
    import mdgsp.spectral

    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        spans.Target("spectral.gone", "mdgsp.spectral", "no_such_function"),))
    with pytest.raises(spans.TraceError, match="no_such_function"):
        spans.install(spans.Recorder())
    assert not hasattr(mdgsp.spectral.eigenbasis, "__wrapped__")


def test_self_time_subtracts_the_union_of_children():
    mk = spans.Span
    parent = mk(0, "p", 0.0, None, None, end=10.0)
    a = mk(1, "a", 1.0, 0, None, end=4.0)
    b = mk(2, "b", 3.0, 0, None, end=6.0)  # overlaps a, as threads of a pool do
    own = spans.self_times([parent, a, b])
    assert own == {0: 5.0, 1: 3.0, 2: 3.0}
