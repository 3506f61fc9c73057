"""Pipeline benchmark of mdgsp: whole CLI jobs, files in and files out.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analysis --seed 1 --seconds 30 --trace 0

The run writes the workload's inputs from the seed, runs the workload in a
fresh interpreter (`worker.py`) as a closed loop with one client for about
`--seconds`, timing interpreter start-up to `import mdgsp.cli` done
(`setup_s`) between passes, and checks every job output with the
numpy-only oracles of `oracles.py`. Everything it writes goes under
`.perfbench/` in the checkout; inputs and outputs are deleted once checked.

Standard output: a readable report, then as the last line one JSON object
with `correct`, `attempted`, `failed` and `metrics` — the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
A job run fails on a nonzero exit or a failed oracle. A failure that
reproduces one of the open defects in `oracles.KNOWN_DEFECTS` is reported
as such (`failed_ops_ratio` and the oracle lines count it); `failed` and
`correct` count only the other failures, so that they stay 0 and true on
every seed until the program breaks in a new way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles as O
import spans
import workloads as W

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 160
TAIL_PERCENTILES = (99, 95, 90, 75)


def child_env(root: Path, work: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["MDGSP_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["TMPDIR"] = str(work / "tmp")
    return env


def source_identity(root: Path) -> dict:
    """Git commit when the checkout is a git work tree, and a digest of the package source."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mdgsp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                  text=True, timeout=30)
            commit = done.stdout.strip() if done.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def timing(values: list[float]) -> str:
    """Median in seconds with its sample count, plus the highest tail
    percentile that still has at least ten samples beyond it."""
    text = f"{statistics.median(values):.4g} s (median of {len(values)}"
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            return text + f"; p{p} {np.percentile(values, p):.4g} s)"
    return text + "; too few for a tail percentile)"


def check_outputs(spec: dict, work: Path, passes: list[dict]) -> list[dict]:
    """Oracle verdict for every job run.

    A kept pass's job is checked again only where its digests differ from
    pass 0; equal bytes share pass 0's verdict.
    """
    ctx = O.Context(spec, work / "in")
    first = {r["job"]: r for r in passes[0]["jobs"]}
    base = {job: O.check(ctx, job, work / "pass-0") for job in first}
    runs = []
    for p in passes:
        for r in p["jobs"]:
            same = r["digests"] == first[r["job"]]["digests"]
            v = base[r["job"]] if same else O.check(ctx, r["job"], work / f"pass-{p['pass']}")
            ok = r["rc"] == 0 and v.ok
            known = r["rc"] == 0 and not v.ok and v.defect is not None
            runs.append({"pass": p["pass"], "traced": p["traced"], "job": r["job"],
                         "rc": r["rc"], "ok": ok, "known_defect": v.defect if known else None,
                         "detail": v.detail, "values": v.values})
    return runs


def failure_counts(runs: list[dict]) -> tuple[int, int]:
    """Failed job runs: all of them, and those that reproduce no known defect."""
    failed_all = sum(not r["ok"] for r in runs)
    return failed_all, sum(not r["ok"] and not r["known_defect"] for r in runs)


def report(args, env, worker, runs) -> dict:
    plain = [p for p in worker["passes"] if not p["traced"]]
    job_times: dict[str, list[float]] = {}
    for p in plain:
        for r in p["jobs"]:
            job_times.setdefault(r["job"], []).append(r["seconds"])
    failed_all, failed = failure_counts(runs)
    e2e = {
        "setup_s": {"value": statistics.median(worker["setup_s"]), "unit": "s"},
        "pass_s": {"value": statistics.median(p["pass_s"] for p in plain), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }
    print(f"== mdgsp pipeline benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    print(f"why: {W.WHY[args.workload]}")
    print("environment: " + json.dumps(env))
    print(f"load: closed loop, 1 client, {len(worker['passes'])} passes in "
          f"{worker['measured_s']:.1f} s ({len(plain)} untraced)")
    print("end-to-end (untraced):")
    print(f"  {'setup_s':<22} {timing(worker['setup_s'])}")
    print(f"  {'pass_s':<22} {timing([p['pass_s'] for p in plain])}")
    print(f"  {'peak_rss_mb':<22} {worker['peak_rss_mb']:.1f} MB")
    print(f"  {'failed_ops_ratio':<22} {failed_all / len(runs):.4g} ratio ({failed_all} failed "
          f"of {len(runs)} attempted job runs; {failed_all - failed} reproduce known defects)")
    for job, values in job_times.items():
        print(f"  {job + '_s':<22} {timing(values)}")
    for r in runs:
        if r["job"] == "denoise_q1" and "gap" in r["values"]:
            print(f"  {'denoise_q1_gap':<22} {r['values']['gap']:.6g} ratio (energy gap to the "
                  f"dual certificate, whose own gap is {r['values']['certificate_gap']:.3g})")
            break
    print("oracles (pass 0):")
    for r in runs:
        if r["pass"] == 0:
            mark = "ok  " if r["ok"] else ("FAIL" if not r["known_defect"] else "FAIL*")
            print(f"  {mark:<5} {r['job']:<20} rc={r['rc']} {r['detail']}")
    defects = sorted({r["known_defect"] for r in runs if r["known_defect"]})
    for d in defects:
        print(f"  * known defect {d}: {O.KNOWN_DEFECTS[d]}")
    if args.trace:
        print(f"per-layer (traced passes; trace.overhead_ratio "
              f"{worker['per_layer']['trace.overhead_ratio']:.4g}):")
        for name, value in worker["per_layer"].items():
            print(f"  {name:<46} {value:.6g} {spans.PER_LAYER_UNITS[name]}")
        for pred in worker["predictions"]:
            print(f"  prediction: {'+'.join(pred['layers'])} dominate {pred['job']}_s: "
                  f"{'holds' if pred['holds'] else 'does not hold'} (share "
                  f"{pred['share']:.3f}, top layer {pred['top_layer']})")
        metrics = {k: {"value": v, "unit": spans.PER_LAYER_UNITS[k]}
                   for k, v in worker["per_layer"].items()}
    else:
        metrics = e2e
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "mdgsp" / "cli.py").is_file():
        print("perfbench: error: run from the root of an mdgsp source checkout "
              "(src/mdgsp/cli.py not found)", file=sys.stderr)
        return 2
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    spec = W.generate(args.workload, args.seed, work / "in")
    env = child_env(root, work)
    # Compile the package's bytecode once, outside every measurement.
    subprocess.run([sys.executable, "-c", "import mdgsp.cli"], env=env, cwd=root, check=True,
                   timeout=60)

    try:
        subprocess.run([sys.executable, str(HERE / "worker.py"), str(work),
                        str(args.seconds), str(args.trace)],
                       env=env, cwd=root, stdout=sys.stderr, check=True,
                       timeout=WORKER_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: error: workload process failed: {exc}", file=sys.stderr)
        return 1
    worker = json.loads((work / "worker.json").read_text())
    runs = check_outputs(spec, work, worker["passes"])
    for bulky in ["in", "tmp"] + [f"pass-{p['pass']}" for p in worker["passes"]]:
        shutil.rmtree(work / bulky, ignore_errors=True)
    environment = {**worker["environment"], "host_cpus": os.cpu_count(),
                   "node": platform.node(), **source_identity(root)}
    result = report(args, environment, worker, runs)
    (work / "result.json").write_text(json.dumps(
        {"environment": environment, "setup_s": worker["setup_s"], "runs": runs,
         "passes": worker["passes"], "predictions": worker.get("predictions"),
         **result}, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
