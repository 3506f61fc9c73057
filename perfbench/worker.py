"""One workload in a fresh interpreter: a closed loop of passes, one client.

Usage: python3 worker.py WORK_DIR SECONDS TRACE

Jobs run one after another, each starting when the previous one ends.
Passes repeat until another pass would overrun SECONDS (at least two run).
Between passes, fresh interpreters time start-up to `import mdgsp.cli`
done, spread over the run so that they sample the same machine state as
the passes. With TRACE=1 every second pass runs with the spans of `spans.py` installed,
so the untraced passes in between give the tracing overhead.

Writes WORK_DIR/worker.json (timings, exit codes, output digests, the
environment, and with TRACE=1 the per-layer metrics) and, with TRACE=1,
WORK_DIR/spans.json. Pass 0 keeps its outputs for the oracles in
WORK_DIR/pass-0; a later pass keeps them only where a digest differs from
pass 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# mdgsp.cli maps MDGSP_THREADS onto the BLAS thread caps at import, so it is
# imported before anything else loads numpy.
import mdgsp.cli as cli  # noqa: E402  (first heavy import on purpose)

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as W  # noqa: E402

THREAD_VARS = ("MDGSP_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 21


def setup_sample() -> float:
    """Wall time from spawning an interpreter to `import mdgsp.cli` done."""
    t0 = time.time()
    done = subprocess.run([sys.executable, "-c", "import mdgsp.cli, time; print(time.time())"],
                          check=True, capture_output=True, text=True, timeout=60)
    return float(done.stdout) - t0


def digest(path: Path) -> str | None:
    if not path.is_file():
        return None
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.machine(),
        "system": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_job(job: W.Job, in_dir: Path, out_dir: Path, lib: W.LibraryJobs) -> tuple:
    """Time one job; return (seconds, exit code or error text, library result)."""
    result = None
    t0 = time.perf_counter()
    try:
        if job.argv is not None:
            rc = cli.main(job.resolve(in_dir, out_dir))
        else:
            result = lib.run(job.name)
            rc = 0
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # a crashing job is a failed operation, not a crashed run
        traceback.print_exc()
        rc = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, rc, result


def main() -> int:
    work, seconds, trace = Path(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    in_dir = work / "in"
    spec = json.loads((in_dir / "spec.json").read_text())
    jobs = W.jobs(spec)
    lib = W.LibraryJobs(spec, in_dir)
    rec = spans.Recorder() if trace else None

    passes: list[dict] = []
    setup: list[float] = []
    t_start = time.perf_counter()
    while True:
        k = len(passes)
        traced = trace and k % 2 == 1
        # Every pass writes to the same place, so reports that quote output
        # paths stay byte-identical between passes.
        out_dir = work / "out"
        out_dir.mkdir()
        patched = spans.install(rec) if traced else []
        records = []
        try:
            for job in jobs:
                if traced:
                    rec.job = (k, job.name)
                    root = rec.open("job")
                seconds_taken, rc, result = run_job(job, in_dir, out_dir, lib)
                if traced:
                    rec.close(root)
                    rec.job = None
                if result is not None:
                    (out_dir / job.outputs[0]).write_text(json.dumps(result, indent=1) + "\n")
                records.append({"job": job.name, "seconds": seconds_taken, "rc": rc,
                                "digests": {o: digest(out_dir / o) for o in job.outputs}})
        finally:
            spans.uninstall(patched)
        pass_s = sum(r["seconds"] for r in records)
        keep = k == 0 or any(r["digests"] != p0["digests"]
                             for r, p0 in zip(records, passes[0]["jobs"]))
        if keep:
            out_dir.rename(work / f"pass-{k}")
        else:
            shutil.rmtree(out_dir)
        os.sync()  # write back this pass's files before the next pass is timed
        passes.append({"pass": k, "traced": traced, "pass_s": pass_s, "kept": keep,
                       "jobs": records})
        elapsed = time.perf_counter() - t_start
        while len(setup) < min(SETUP_RUNS, elapsed * SETUP_RUNS / seconds):
            setup.append(setup_sample())
        elapsed = time.perf_counter() - t_start
        if k >= 1 and elapsed + statistics.median(p["pass_s"] for p in passes) > seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(setup_sample())

    payload = {
        "environment": environment(),
        "measured_s": time.perf_counter() - t_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup,
        "passes": passes,
    }
    if trace:
        traced = [p["pass_s"] for p in passes if p["traced"]]
        plain = [p["pass_s"] for p in passes if not p["traced"]]
        metrics, predictions = spans.layer_metrics(rec.spans, len(traced))
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
        payload.update(per_layer=metrics, predictions=predictions)
        (work / "spans.json").write_text(json.dumps([s.as_dict() for s in rec.spans]))
    (work / "worker.json").write_text(json.dumps(payload, indent=1, default=str) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
