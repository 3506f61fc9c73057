"""Command-line front end.

Dispatches one subcommand per pipeline stage and writes a run manifest next
to every primary output. MDGSP_THREADS caps the BLAS thread pools (the
package sets them before numpy loads, see `mdgsp`). Exit codes are per
error class:

    0 success, 2 usage, 3 malformed file or invariant violation on load,
    4 dimension mismatch, 5 solver non-convergence, 6 allocation failure,
    7 numeric domain error (kernel/spectrum/sampling).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__, _env_threads
from .bench import NAIVE_FULL_CAP, bench_sizes, equality_check
from .denoise import DEFAULT_MAX_ITER, DEFAULT_TOL, EbemParams, closed_form_sweep, ebem_minimize
from .errors import (
    DimensionError,
    FormatError,
    GraphError,
    KernelError,
    MdgspError,
    SamplingError,
    SpectrumError,
    UsageError,
)
from .filtering import PolyKernel2D, float_array, load_kernel
from .filtering import polynomial_filter_vertex, spectral_filter_2d
from .graphs import _json_object, _read_text, cartesian_product, load_graph, matrices, save_graph
from .render import save_spectrum_heatmap_svg
from .spectral import EigenBasis, default_tol_mult, eigenbasis, save_matrix, spectrum_to_csv
from .stationarity import DirectionalProcess, FgwProcess, _directional_chunks, _fgw_chunks
from .transforms import (
    aggregate_to_1d,
    aggregate_to_csv,
    gft_2d,
    load_signal,
    load_spectrum,
    save_signal,
    save_spectrum,
)
from .variation import total_directional_variation

# (class, exit code, slug of "mdgsp: error[slug]: ..."); the first isinstance match wins
_ERRORS = [
    (UsageError, 2, "usage"),
    (FormatError, 3, "format"),
    (GraphError, 3, "graph"),
    (DimensionError, 4, "dimension-mismatch"),
    (MemoryError, 6, "allocation"),
    (KernelError, 7, "kernel"),
    (SpectrumError, 7, "spectrum"),
    (SamplingError, 7, "sampling"),
    (MdgspError, 3, "internal"),
]

EXIT_NONCONVERGENCE = 5

# Every numeric option, by argparse dest, with the test its value must pass and that
# rule in words; `main` checks each one that the command has and that is given, before
# any file is read. Options with compound rules (gammas, --sizes, --check-equality)
# are checked by their commands.
_POSITIVE = (lambda v: v > 0, "a finite number > 0")
_OPTION_RULES = {
    "tol": _POSITIVE,
    "max_iter": _POSITIVE,
    "tol_mult": _POSITIVE,
    "reps": _POSITIVE,
    "samples": _POSITIVE,
    "seed": (lambda v: v >= 0, "a finite number >= 0"),
}


def _check_options(args: argparse.Namespace) -> None:
    for dest, (ok, rule) in _OPTION_RULES.items():
        value = getattr(args, dest, None)
        if value is not None and not (ok(value) and abs(value) < math.inf):
            raise UsageError(f"--{dest.replace('_', '-')} must be {rule}, got {value}")


def _write_manifest(primary_out: str, command: str, args: argparse.Namespace,
                    inputs: list[str], elapsed: float) -> None:
    params = dict(sorted(vars(args).items()))
    manifest = {
        "command": command,
        "inputs": sorted(str(p) for p in inputs if p),
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "tool_version": __version__,
        "wall_seconds": elapsed,
    }
    _json_out(manifest, str(primary_out) + ".manifest.json")


def _json_out(payload: dict, path: str) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, default=str) + "\n", encoding="utf-8")


def _factor_matrix(g, source: str = "laplacian") -> np.ndarray:
    """The Laplacian (or, for "adjacency", the adjacency) of one graph, and nothing else
    of its `GraphMatrices`."""
    m = matrices(g)
    return m.L if source == "laplacian" else m.W


def _decompose(mats: list[np.ndarray], source: str = "laplacian") -> list[EigenBasis]:
    """Eigenbases of `mats` in order. The list is emptied as it goes, so each matrix is
    freed once decomposed and no spent n x n matrix sits beside the next `eigh`."""
    return [eigenbasis(mats.pop(0), source) for _ in range(len(mats))]


def _factor_bases(args, source: str = "laplacian") -> list[EigenBasis]:
    """Eigenbases of the `--g1` and `--g2` factors. Each graph is dropped once its matrix
    is built, so the command decomposes before it holds anything else n x n."""
    return _decompose([_factor_matrix(load_graph(p), source) for p in (args.g1, args.g2)],
                      source)


def cmd_product(args) -> int:
    g1 = load_graph(args.g1)
    g2 = load_graph(args.g2)
    save_graph(cartesian_product(g1, g2).graph, args.out)
    return 0


def cmd_eig(args) -> int:
    basis = eigenbasis(_factor_matrix(load_graph(args.g1), args.source), args.source)
    if args.format == "json":
        _json_out({"source": args.source, "eigenvalues": [float(v) for v in basis.values]},
                  args.out)
    else:
        Path(args.out).write_text(spectrum_to_csv(basis.values), encoding="utf-8")
    if args.basis_out:
        save_matrix(basis.vectors, args.basis_out)
    return 0


def cmd_gft(args) -> int:
    b1, b2 = _factor_bases(args, args.source)
    # both bases carry the `--source` tag, so the adjacency transform is `gft_2d` too
    s = gft_2d(load_signal(args.signal), b1, b2)
    save_spectrum(s, args.out)
    if args.svg:
        save_spectrum_heatmap_svg(s, args.svg, title=Path(args.signal).name)
    if args.aggregate_out:
        # a --tol-mult that was given is > 0 (checked in `main`)
        tol = args.tol_mult or default_tol_mult(np.concatenate([b1.values, b2.values]))
        Path(args.aggregate_out).write_text(aggregate_to_csv(aggregate_to_1d(s, tol)),
                                            encoding="utf-8")
    return 0


def cmd_filter(args) -> int:
    laplacians = [_factor_matrix(load_graph(p)) for p in (args.g1, args.g2)]
    kernel = load_kernel(args.kernel)
    if isinstance(kernel, PolyKernel2D):
        # a polynomial kernel runs in the vertex domain: no eigenbasis needed
        out = polynomial_filter_vertex(load_signal(args.signal), kernel, *laplacians)
    else:
        # the signal is read after the eigh, as in gft: read before, it can take the
        # heap space that the dropped adjacency left, and eigh's copy of the Laplacian
        # then extends the heap
        bases = _decompose(laplacians)
        out = spectral_filter_2d(load_signal(args.signal), kernel, *bases)
    save_signal(out, args.out)
    return 0


def _gamma_list(text: str) -> list[float]:
    """The comma-separated gammas of `text`. A token that is not a finite number is a
    usage error, raised before any file is read."""
    gammas = []
    for tok in filter(None, str(text).split(",")):
        try:
            gamma = float(tok)
        except ValueError:
            gamma = np.nan
        if not np.isfinite(gamma):
            raise UsageError(f"gamma {tok!r} is not a finite number")
        gammas.append(gamma)
    return gammas


def _sweep_outputs(out: str, combos: list[tuple[float, float]]) -> list[Path]:
    """One output path per (gamma1, gamma2); a single solve writes `out` itself.

    Sweep files are named by the gammas' `%g` text, so two gammas that
    print alike would overwrite each other; such a sweep is refused.
    """
    if not combos:
        raise UsageError("the gamma sweep is empty")
    base = Path(out)
    if len(combos) == 1:
        return [base]
    paths = [base.with_name(f"{base.stem}-g1_{a:g}-g2_{b:g}{base.suffix}") for a, b in combos]
    if len(set(paths)) < len(paths):
        clash = next(p for p in paths if paths.count(p) > 1)
        raise UsageError(f"gamma sweep writes {clash.name} more than once; "
                         "give gammas that differ in 6 significant digits")
    return paths


def cmd_denoise(args) -> int:
    combos = [(a, b) for a in _gamma_list(args.gamma1) for b in _gamma_list(args.gamma2)]
    out_paths = _sweep_outputs(args.out, combos)
    sweep = [EbemParams(p=args.p, gamma1=a, gamma2=b, q1=args.q1, q2=args.q2)
             for a, b in combos]
    closed_form = sweep[0].all_quadratic and not args.force_gradient
    # only a regularized closed-form point needs the bases; the graphs that the
    # energies need are loaded after the decompositions
    b1 = b2 = None
    if closed_form and any(params.regularized for params in sweep):
        b1, b2 = _factor_bases(args)
    g1 = load_graph(args.g1)
    g2 = load_graph(args.g2)
    y = load_signal(args.observation)
    # one report at a time: each minimizer is written before the next point is solved
    if closed_form:
        reports = closed_form_sweep(y, g1, g2, sweep, b1, b2)
    else:
        reports = (ebem_minimize(y, g1, g2, params, max_iter=args.max_iter, tol=args.tol,
                                 force_gradient=args.force_gradient) for params in sweep)
    entries = []
    for (a, b), out_path, rep in zip(combos, out_paths, reports, strict=True):
        save_signal(rep.minimizer, out_path)
        entries.append({
            "gamma1": a,
            "gamma2": b,
            "out": str(out_path),
            "energy": rep.energy,
            "iterations": rep.iterations,
            "residual": rep.residual,
            "method": rep.method,
            "converged": rep.converged,
            "maybe_nonunique": rep.maybe_nonunique,
        })
    if args.report:
        _json_out({"solves": entries}, args.report)
    if not all(entry["converged"] for entry in entries):
        print("mdgsp: error[nonconvergence]: solver hit max_iter above tolerance", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    return 0


def cmd_variation(args) -> int:
    # the incidence and trace form of the variation come from a second load of each
    # graph, after the decompositions
    b1, b2 = _factor_bases(args)
    g1, g2 = load_graph(args.g1), load_graph(args.g2)
    f = load_signal(args.signal)
    directions = [1, 2] if args.direction == "both" else [int(args.direction)]
    spectrum = gft_2d(f, b1, b2)  # one transform serves both directions
    payload = []
    for d in directions:
        rep = total_directional_variation(f, g1, g2, d, b1, b2, spectrum)
        payload.append({
            "direction": rep.direction,
            "total": rep.total,
            "spectral_total": rep.spectral_total,
            "residual": rep.residual,
        })
        if args.local_csv:
            path = Path(args.local_csv)
            if len(directions) > 1:
                path = path.with_name(f"{path.stem}-d{d}{path.suffix}")
            save_signal(rep.local, path)
    _json_out(payload[0] if len(payload) == 1 else {"reports": payload}, args.out)
    return 0


def _load_coeffs(path: str, kind: str):
    key, what = ("h", "2-D array") if kind == "fgw" else ("hs", "list of square matrices")
    payload = _json_object(_read_text(path), f"{kind} coefficients", key)
    coeffs = float_array(payload[key], f'coefficients "{key}"')
    square = coeffs.ndim == 3 and coeffs.shape[1] == coeffs.shape[2]
    if not (coeffs.ndim <= 2 if kind == "fgw" else square) or not np.isfinite(coeffs).all():
        raise FormatError(f'coefficients "{key}" must be a finite {what}, got shape {coeffs.shape}')
    return coeffs


@contextmanager
def _npy_rows(path: str | None, shape: tuple[int, ...]):
    """Write a float64 `.npy` of `shape` one chunk of rows at a time.

    Yields the function that appends a chunk. The bytes are those of
    `np.save` of the whole array. The file is written under a temporary
    sibling name and renamed into place only when the block completes, so a
    failed run leaves no file. With no path the chunks are dropped.
    """
    if not path:
        yield lambda rows: None
        return
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            np.lib.format.write_array_header_1_0(
                f, {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                    "fortran_order": False, "shape": shape})
            yield lambda rows: rows.tofile(f)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_stationarity(args) -> int:
    if args.kind != "mv" and not args.g2:
        raise UsageError(f"--kind {args.kind} needs --g2")
    L1 = matrices(load_graph(args.g1)).L
    coeffs = _load_coeffs(args.coeffs, args.kind)
    L2 = None if args.kind == "mv" else matrices(load_graph(args.g2)).L

    # the same chunks feed the sample dump and the covariance of the test; only the
    # factors the process is polynomial in are decomposed
    if args.kind == "fgw":
        chunks = _fgw_chunks(FgwProcess(kernel=PolyKernel2D(H=coeffs)), L1, L2, args.seed,
                             args.samples, distribution=args.distribution,
                             b1=eigenbasis(L1, "laplacian"), b2=eigenbasis(L2, "laplacian"))
    else:
        direction = 2 if args.kind == "dir2" else 1  # mv is direction-1 sampling
        L = L1 if direction == 1 else L2
        chunks = _directional_chunks(DirectionalProcess(direction=direction, Hs=coeffs), L,
                                     args.seed, args.samples, distribution=args.distribution,
                                     basis=eigenbasis(L, "laplacian"))

    payload: dict = {
        "kind": args.kind,
        "samples": args.samples,
        "seed": args.seed,
        "shape": list(chunks.shape[1:]),
    }
    if args.out:
        if not args.out.endswith(".npy"):
            args.out += ".npy"  # the name `np.save` gives the file, which the manifest goes beside
        payload["out"] = args.out
    with _npy_rows(args.out, chunks.shape) as write:
        if args.mode == "test":
            reps = chunks.test(args.tol, write)
            payload["tests"] = [r.to_dict() for r in reps]
            payload["verdict"] = "pass" if all(r.verdict for r in reps) else "fail"
        else:
            for X in chunks:
                write(X)
        _json_out(payload, args.report)
    return 0


def _bench_sizes(text: str) -> list[tuple[int, int]]:
    """The `--sizes` entries, N or N1xN2 each; every factor is a cycle of >= 3 vertices."""
    sizes = []
    for tok in text.split(","):
        try:
            n1, n2 = map(int, tok.split("x") if "x" in tok else (tok, tok))
        except ValueError:
            raise UsageError(f"--sizes entry {tok!r} is not N or N1xN2") from None
        if min(n1, n2) < 3:
            raise UsageError(f"--sizes entry {tok!r} has a cycle of fewer than 3 vertices")
        sizes.append((n1, n2))
    return sizes


def cmd_bench(args) -> int:
    sizes = _bench_sizes(args.sizes)
    n = args.check_equality
    if n is not None and not (n >= 3 and n * n <= NAIVE_FULL_CAP):
        raise UsageError(f"--check-equality needs N >= 3 and N*N <= {NAIVE_FULL_CAP}, got {n}")
    report = bench_sizes(sizes, repetitions=args.reps, seed=args.seed, naive=not args.no_naive)
    payload = dataclasses.asdict(report)
    if n is not None:
        payload["equality_discrepancy"] = equality_check(n, n, seed=args.seed)
    _json_out(payload, args.out)
    return 0


def cmd_render(args) -> int:
    s = load_spectrum(args.spectrum)
    save_spectrum_heatmap_svg(s, args.svg, title=args.title)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdgsp",
        description="Transforms, filtering, denoising, and stationarity tools "
        "for signals on Cartesian product graphs.",
    )
    parser.add_argument("--version", action="version", version=f"mdgsp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, factors=False):  # the command runs `cmd_<name>`
        p = sub.add_parser(name, help=help_text)
        if factors:  # the two factor graphs of a product
            p.add_argument("--g1", required=True)
            p.add_argument("--g2", required=True)
        return p

    p = add("product", "Cartesian product of two graph files", factors=True)
    p.add_argument("--out", required=True)

    p = add("eig", "eigendecomposition of one graph")
    p.add_argument("--g1", required=True)
    p.add_argument("--source", choices=["laplacian", "adjacency"], default="laplacian")
    p.add_argument("--out", required=True, help="spectrum output (index, eigenvalue)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--basis-out", default=None, help="optional binary eigenvector matrix")

    p = add("gft", "2-D spectrum of a signal on a product graph", factors=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--source", choices=["laplacian", "adjacency"], default="laplacian")
    p.add_argument("--out", required=True, help="spectrum CSV")
    p.add_argument("--svg", default=None, help="optional heatmap SVG")
    p.add_argument("--aggregate-out", default=None,
                   help="optional 1-D view CSV grouped by sum frequency")
    p.add_argument("--tol-mult", type=float, default=None,
                   help="frequency coincidence tolerance for --aggregate-out")

    p = add("filter", "apply a spectral kernel file to a signal", factors=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--out", required=True)

    p = add("denoise", "energy-model denoising", factors=True)
    p.add_argument("--observation", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q1", type=float, default=2.0)
    p.add_argument("--q2", type=float, default=2.0)
    p.add_argument("--gamma1", default="0")
    p.add_argument("--gamma2", default="0", help="comma-separated values sweep a grid")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--force-gradient", action="store_true")

    p = add("variation", "directional variation report", factors=True)
    p.add_argument("--signal", required=True)
    p.add_argument("--direction", choices=["1", "2", "both"], default="both")
    p.add_argument("--out", required=True, help="JSON report")
    p.add_argument("--local-csv", default=None, help="optional local-variation CSV")

    p = add("stationarity", "synthesize or test stationary processes")
    p.add_argument("--mode", choices=["synthesize", "test"], required=True)
    p.add_argument("--kind", choices=["fgw", "dir1", "dir2", "mv"], required=True)
    p.add_argument("--g1", required=True)
    p.add_argument("--g2", default=None)
    p.add_argument("--coeffs", required=True, help='JSON with "h" (fgw) or "hs" (dir/mv)')
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--distribution", choices=["gaussian", "rademacher"], default="gaussian")
    p.add_argument("--out", default=None, help="optional .npy sample dump")
    p.add_argument("--report", required=True)

    p = add("bench", "time the matrix-chain vs flattened transform")
    p.add_argument("--sizes", default="64,128,256", help="comma list, N or N1xN2")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-naive", action="store_true")
    p.add_argument("--check-equality", type=int, default=None, metavar="N",
                   help="also verify grouped-power equality of both paths at NxN")
    p.add_argument("--out", required=True)

    p = add("render", "spectrum CSV to deterministic SVG heatmap")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--title", default="")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs about 1.5 ms."""
    return build_parser()


def _primary_output(args) -> str:
    """The first given of `--out`, `--report` and `--svg`: every command requires one."""
    return next(str(v) for v in (getattr(args, a, None) for a in ("out", "report", "svg")) if v)


def _inputs(args) -> list[str]:
    return [str(getattr(args, attr)) for attr in
            ("g1", "g2", "signal", "observation", "kernel", "coeffs", "spectrum")
            if getattr(args, attr, None)]


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.perf_counter()
    # the CSV codecs load before the command's working set: loaded at first use, their
    # long-lived objects would sit above that set in the malloc heap and keep it from
    # shrinking, which raised the peak RSS of commands run one after another
    from . import _floattext, _csvread  # noqa: F401
    try:
        _env_threads()  # a bad MDGSP_THREADS is a usage error for every command
        _check_options(args)
        # looked up at call time, so a replaced `cmd_<name>` is the one that runs
        rc = globals()[f"cmd_{args.command}"](args)
        _write_manifest(_primary_output(args), args.command, args, _inputs(args),
                        time.perf_counter() - t0)
    except (MdgspError, MemoryError) as exc:
        code, slug = next((code, slug) for cls, code, slug in _ERRORS if isinstance(exc, cls))
        print(f"mdgsp: error[{slug}]: {exc}", file=sys.stderr)
        return code
    except OSError as exc:
        print(f"mdgsp: error[io]: {exc}", file=sys.stderr)
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
