"""Graph Fourier transforms: 1-D, 2-D, n-D, adjacency-based, multivariate.

Every transform, inverse and sample spectrum wraps one per-axis basis core:
`_analyze` (U^H) and `_synthesize` (U) along one axis of an array of any rank.

Signals on a product graph are stored as n1 x n2 matrices (row index runs
over the first factor). Spectra are index-addressed matrices of the same
shape carrying the two factor eigenvalue lists as annotations; keying by
eigenvalue is deliberately avoided because degenerate frequencies would
collide. `aggregate_to_1d` reproduces the eigenvalue-keyed 1-D view by
grouping sum frequencies.
"""

from __future__ import annotations

import math
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, starmap
from pathlib import Path

import numpy as np

from .errors import DimensionError, FormatError, SpectrumError
from .graphs import _utf8_file
from .spectral import EigenBasis, check_tol_mult, group_bounds

Signal2D = np.ndarray  # real (n1, n2) matrix; validated at function entry


@dataclass(frozen=True)
class Spectrum2D:
    """Index-addressed 2-D spectrum with its factor eigenvalue annotations."""

    values: np.ndarray  # (n1, n2), real or complex
    lambdas1: np.ndarray
    lambdas2: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def power(self, rows: slice = slice(None)) -> np.ndarray:
        """|value|^2 per entry, of the given rows only if `rows` is passed; inf where
        the square exceeds the float range."""
        with np.errstate(over="ignore"):
            return np.abs(self.values[rows]) ** 2


@dataclass(frozen=True)
class SpectralGroup:
    frequency: float  # representative sum frequency
    power: float
    members: list[tuple[int, int]]


@dataclass(frozen=True, eq=False)
class SpectrumGroup1D:
    """2-D spectrum aggregated over coincident sum frequencies.

    Group g holds the flat spectrum indices `order[starts[g]:starts[g] +
    sizes[g]]` (k1 * n2 + k2, ascending sum frequency), its mean sum
    frequency `group_freqs[g]` and its summed power `group_powers[g]`.
    """

    order: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    group_freqs: np.ndarray
    group_powers: np.ndarray
    n2: int

    @property
    def groups(self) -> Sequence[SpectralGroup]:
        return _GroupView(self)

    def frequencies(self) -> np.ndarray:
        return self.group_freqs

    def powers(self) -> np.ndarray:
        return self.group_powers


class _GroupView(Sequence):
    """Read-only sequence of `SpectralGroup`s, each built when indexed."""

    def __init__(self, grouped: SpectrumGroup1D):
        self._g = grouped

    def __len__(self) -> int:
        return len(self._g.sizes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        g = self._g
        i = range(len(self))[i]  # bounds check, negative indices
        start = int(g.starts[i])
        flat = g.order[start:start + int(g.sizes[i])].tolist()
        return SpectralGroup(
            frequency=float(g.group_freqs[i]),
            power=float(g.group_powers[i]),
            members=[divmod(v, g.n2) for v in flat],
        )


def _check_shape(x, shape: tuple[int | None, ...], what: str, dtype=None) -> np.ndarray:
    """x as an array (converted to `dtype` if given) of `shape`, where a None axis matches
    any length; else DimensionError "<what> has shape <got>, expected <want>"."""
    x = np.asarray(x, dtype=dtype)
    if x.ndim != len(shape) or any(w is not None and w != n for n, w in zip(x.shape, shape)):
        want = str(tuple(None if w is None else int(w) for w in shape)).replace("None", "any")
        raise DimensionError(f"{what} has shape {x.shape}, expected {want}")
    return x


def _check_signal(f: np.ndarray, shape: tuple[int | None, ...], what: str = "signal") -> np.ndarray:
    """`_check_shape` of f, whose entries must also be finite."""
    f = _check_shape(f, shape, what)
    if not np.all(np.isfinite(f)):
        raise DimensionError(f"{what} has non-finite entries")
    return f


def _along(A: np.ndarray, x: np.ndarray, axis: int) -> np.ndarray:
    """A applied along axis `axis` (>= 0) of x, every other axis kept as a batch axis."""
    if x.ndim == 1 or axis == x.ndim - 2:
        return A @ x
    if axis == x.ndim - 1:
        return x @ A.T
    return np.moveaxis(A @ np.moveaxis(x, axis, -2), -2, axis)


def _analyze(x: np.ndarray, basis: EigenBasis, axis: int) -> np.ndarray:
    """The basis core's analysis: U^H along `axis` (rows: U^H @ x, last axis: x @ conj(U))."""
    return _along(basis.vectors.conj().T, x, axis)


def _synthesize(x: np.ndarray, basis: EigenBasis, axis: int) -> np.ndarray:
    """The basis core's synthesis: U along `axis` (rows: U @ x, last axis: x @ U^T)."""
    return _along(basis.vectors, x, axis)


def gft_1d(f: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Expansion coefficients of f in the eigenbasis: fhat_k = <f, u_k>."""
    return _analyze(_check_signal(f, (basis.n,)), basis, 0)


def inverse_gft_1d(fhat: np.ndarray, basis: EigenBasis) -> np.ndarray:
    return _synthesize(_check_signal(fhat, (basis.n,), "spectrum"), basis, 0)


def gft_2d(f: Signal2D, b1: EigenBasis, b2: EigenBasis) -> Spectrum2D:
    """2-D transform on a product graph: Fhat = U1^H F conj(U2)."""
    fhat = _analyze(_analyze(_check_signal(f, (b1.n, b2.n)), b1, 0), b2, 1)
    return Spectrum2D(values=fhat, lambdas1=b1.values, lambdas2=b2.values)


def inverse_gft_2d(s: Spectrum2D, b1: EigenBasis, b2: EigenBasis) -> Signal2D:
    """Inverse 2-D transform: F = U1 Fhat U2^T."""
    values = _check_shape(s.values, (b1.n, b2.n), "spectrum")
    return _synthesize(_synthesize(values, b1, 0), b2, 1)


def gft_nd(f: np.ndarray, bases: list[EigenBasis]) -> np.ndarray:
    """n-D transform: apply each factor's analysis operator along its axis.

    Factors are applied left to right, matching the left-associated product
    ((G1 x G2) x ... x Gn); for n = 2 this is `gft_2d` bit for bit and for
    n = 1 it is `gft_1d`.
    """
    if len(bases) < 1:
        raise DimensionError("need at least one basis")
    out = _check_signal(f, tuple(b.n for b in bases))
    for axis, b in enumerate(bases):
        out = _analyze(out, b, axis)
    return out


def inverse_gft_nd(fhat: np.ndarray, bases: list[EigenBasis]) -> np.ndarray:
    if len(bases) < 1:
        raise DimensionError("need at least one basis")
    out = _check_shape(fhat, tuple(b.n for b in bases), "spectrum")
    for axis, b in enumerate(bases):
        out = _synthesize(out, b, axis)
    return out


def _require_adjacency(b: EigenBasis, name: str) -> None:
    if b.source != "adjacency":
        raise SpectrumError(f"{name} must be built from an adjacency matrix, got source={b.source!r}")


def adjacency_gft_2d(f: Signal2D, w1: EigenBasis, w2: EigenBasis) -> Spectrum2D:
    """2-D transform in the factor adjacency eigenbases.

    The adjacency-based transform is defined through its synthesis
    equation; with symmetric adjacency matrices the analysis operator is
    the adjoint, so the matrix form matches the Laplacian-based one.
    """
    _require_adjacency(w1, "w1")
    _require_adjacency(w2, "w2")
    return gft_2d(f, w1, w2)


def inverse_adjacency_gft_2d(s: Spectrum2D, w1: EigenBasis, w2: EigenBasis) -> Signal2D:
    _require_adjacency(w1, "w1")
    _require_adjacency(w2, "w2")
    return inverse_gft_2d(s, w1, w2)


def aggregate_to_1d(s: Spectrum2D, tol_mult: float) -> SpectrumGroup1D:
    """Group 2-D spectral power by coincident sum frequency lam1 + lam2.

    This reproduces the product-graph 1-D spectrum view. Group powers are
    invariant under re-basis inside degenerate eigenspaces, and their sum
    equals the total spectral power.
    """
    check_tol_mult(tol_mult)
    n1, n2 = s.shape
    sums = np.add.outer(s.lambdas1, s.lambdas2).ravel()
    power = s.power().ravel()
    order = np.argsort(sums, kind="stable")
    starts, sizes = group_bounds(sums[order], tol_mult)
    freqs = np.empty(len(sizes))
    powers = np.empty(len(sizes))
    # One (groups, size) gather per distinct group size, reduced along the
    # row: the same per-group pairwise summation as np.mean/np.sum on a
    # single group, so every value matches a group-at-a-time loop bit for
    # bit (np.add.reduceat sums in another order and does not).
    for k in np.unique(sizes).tolist():
        which = np.flatnonzero(sizes == k)
        flat = order[starts[which, None] + np.arange(k)]
        freqs[which] = np.mean(sums[flat], axis=1)
        powers[which] = np.sum(power[flat], axis=1)
    total = float(np.sum(power))
    grouped = sum(powers.tolist())
    if abs(grouped - total) > 1e-10 * max(1.0, total):
        raise SpectrumError("grouped power does not match total spectral power")
    return SpectrumGroup1D(order=order, starts=starts, sizes=sizes, group_freqs=freqs,
                           group_powers=powers, n2=n2)


def aggregate_to_csv(grouped: SpectrumGroup1D) -> str:
    """CSV rows (frequency, power, size) of the 1-D aggregated view."""
    from . import _floattext as ft  # on first use: see its docstring

    return "frequency,power,size\n" + "".join(
        ft.rows([grouped.group_freqs, grouped.group_powers, grouped.sizes]))


def group_power_2d(s: Spectrum2D, groups1: list[list[int]], groups2: list[list[int]]) -> np.ndarray:
    """Spectral power pooled over per-axis multiplicity groups.

    Entry (a, b) sums |fhat|^2 over indices k1 in groups1[a], k2 in
    groups2[b]. Pooled powers are basis-invariant within degenerate
    eigenspaces, unlike individual spectrum entries.
    """
    p = s.power()
    out = np.empty((len(groups1), len(groups2)))
    for a, g1 in enumerate(groups1):
        for b, g2 in enumerate(groups2):
            out[a, b] = p[np.ix_(g1, g2)].sum()
    return out


def multivariate_gft(f: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Variable-wise transform of a p-variate signal: Fhat = U^H F.

    Rows index vertices, columns index variables. Equivalent to the 2-D
    transform on the product with a p-vertex edgeless graph, whose zero
    Laplacian has the standard basis as eigenvectors.
    """
    return _analyze(_check_signal(f, (basis.n, None)), basis, 0)


def inverse_multivariate_gft(fhat: np.ndarray, basis: EigenBasis) -> np.ndarray:
    return _synthesize(_check_shape(fhat, (basis.n, None), "spectrum"), basis, 0)


def _signal_blocks(f: Signal2D) -> Iterator[str]:
    """The text of `signal_to_csv` in blocks of whole lines (or of one long line's
    values); f is checked before the first."""
    from . import _floattext as ft  # on first use: see its docstring

    f = np.asarray(f)
    if f.ndim != 2:
        raise FormatError(f"expected a 2-D signal, got ndim={f.ndim}")
    rows = np.asarray(f, dtype=np.float64)
    n1, n2 = rows.shape
    if not n1 or not n2:
        return iter(["\n" * max(n1, 1)])

    def lines(a: slice, c: slice) -> str:
        block = rows[a, c]
        seps = np.full(block.shape[1], ord(","), np.uint8)
        if c.stop >= n2:
            seps[-1] = ord("\n")
        return ft.join(block.shape, [ft.Floats(block.ravel())], [seps])

    return starmap(lines, _grid_slices(n1, n2, ft.BLOCK))


def _grid_slices(n1: int, n2: int, cells: int) -> Iterator[tuple[slice, slice]]:
    """(rows, columns) blocks of at most `cells` cells of an n1 x n2 grid, in C order:
    whole rows, or one row's columns if a row holds more."""
    if not n2:
        return
    width = min(n2, cells)
    step = max(1, cells // n2)
    for a in range(0, n1, step):
        for c in range(0, n2, width):
            yield slice(a, a + step), slice(c, c + width)


def signal_to_csv(f: Signal2D) -> str:
    """Plain CSV, n1 rows by n2 columns, shortest round-trip floats."""
    return "".join(_signal_blocks(f))


def _text_lines(text: str) -> Iterator[str]:
    """The lines of `text`, each with its line feed, as a text file gives them."""
    return (m[0] for m in re.finditer(".*\n?", text))


def _csv_lines(blocks: Iterable[str]) -> Iterator[str]:
    """The lines of `text.strip().splitlines()`, where `text` joins `blocks` (such as the
    lines of a file), each ending at a line end or at the end of the text. Only one block
    is held, and the blank lines since the last line that is not blank."""
    last, blanks = None, []
    for block in blocks:
        for line in block.splitlines():
            if not line or line.isspace():
                if last is not None:
                    blanks.append(line)
            elif last is None:
                last = line.lstrip()
            else:
                yield last
                yield from blanks
                blanks.clear()
                last = line
    if last is not None:
        yield last.rstrip()


_SIGNAL_BLOCK = 1 << 16  # characters of whole lines converted by one np.array call


def _line_blocks(lines: Iterable[str]) -> Iterator[list[str]]:
    """`lines` in lists of whole lines, each of at least `_SIGNAL_BLOCK` characters but
    the last."""
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line)
        if size >= _SIGNAL_BLOCK:
            yield block
            block, size = [], 0
    if block:
        yield block


def _block_values(first: int, block: list[str]) -> np.ndarray:
    """The values of the tokens of `block`, whose first line is line `first`, in one
    flat array; FormatError naming the first line with a token that does not parse.

    numpy converts each `str` as `float()` does: the same bits, the same ValueError.
    """
    try:
        return np.array(",".join(block).split(","), dtype=np.float64)
    except ValueError:
        for ln, line in enumerate(block, start=first):
            try:
                np.array(line.split(","), dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"signal CSV line {ln}: {exc}") from exc
        raise


def _signal_from_lines(lines: Iterable[str]) -> Signal2D:
    """The signal whose CSV lines are `lines` (see `_csv_lines`), converted a block of
    about `_SIGNAL_BLOCK` characters at a time, so only one block's tokens are held.

    A token that does not parse is an error before an empty text, ragged rows or a
    non-finite value, in that order, as for a text parsed whole.
    """
    parts, widths, rows = [], set(), 0
    for block in _line_blocks(lines):
        parts.append(_block_values(rows + 1, block))
        widths.update(line.count(",") + 1 for line in block)
        rows += len(block)
    if not rows:
        raise FormatError("signal CSV is empty")
    if len(widths) > 1:
        raise FormatError("signal CSV rows have inconsistent lengths")
    f = np.concatenate(parts).reshape(rows, widths.pop())
    if not np.all(np.isfinite(f)):
        raise FormatError("signal CSV has non-finite entries")
    return f


def signal_from_csv(text: str) -> Signal2D:
    """The signal of a CSV text: each token read as `float()` reads it, lines counted
    after the leading blank lines (see `_signal_from_lines`)."""
    return _signal_from_lines(_csv_lines(_text_lines(text)))


def _write_chunks(chunks: Iterator[str], path: str | Path) -> None:
    """Write text chunk by chunk, so the whole text never exists at once."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(chunks)


def save_signal(f: Signal2D, path: str | Path) -> None:
    """Write `signal_to_csv(f)` one block of rows at a time."""
    _write_chunks(_signal_blocks(f), path)


def load_signal(path: str | Path) -> Signal2D:
    """`signal_from_csv` of a file, streamed as UTF-8 text: only one block of lines is
    held at a time."""
    with _utf8_file(path) as f:
        return _signal_from_lines(_csv_lines(f))


_SPECTRUM_HEADER = "k1,k2,lambda1,lambda2,re,im,power"


def _spectrum_blocks(s: Spectrum2D) -> Iterator[str]:
    """The text of `spectrum_to_csv`: the header, then blocks of lines in index order.

    s is checked before the first block, so a writer fails before it opens its file.
    The index and eigenvalue fields of every line come from per-index tables.
    """
    from . import _floattext as ft  # on first use: see its docstring

    lam1 = np.asarray(s.lambdas1, dtype=np.float64).ravel()
    lam2 = np.asarray(s.lambdas2, dtype=np.float64).ravel()
    n1, n2 = len(lam1), len(lam2)
    values = _check_shape(s.values, (n1, n2), "spectrum")
    k1, k2, l1, l2 = (ft.rendered(col) for col in (ft.Ints(np.arange(n1)), ft.Ints(np.arange(n2)),
                                                   ft.Floats(lam1), ft.Floats(lam2)))
    seps = [ord(",")] * 6 + [ord("\n")]

    def lines(a: slice, c: slice) -> str:
        z = values[a, c].astype(np.complex128)
        re, im = z.real.ravel(), z.imag.ravel()
        with np.errstate(over="ignore"):
            # Python's abs(complex) ** 2: libm hypot, then libm pow (not x * x);
            # inf where the square overflows
            power = np.float_power(np.hypot(re, im), 2.0)
        return ft.join(z.shape, [k1[a, None], k2[None, c], l1[a, None], l2[None, c],
                                 ft.Floats(re), ft.Floats(im), ft.Floats(power)], seps)

    return chain([f"{_SPECTRUM_HEADER}\n"],
                 starmap(lines, _grid_slices(n1, n2, ft.BLOCK // 3)))


def spectrum_to_csv(s: Spectrum2D) -> str:
    """CSV rows (k1, k2, lambda1, lambda2, re, im, power) in index order."""
    return "".join(_spectrum_blocks(s))


def spectrum_from_csv(text: str) -> Spectrum2D:
    """Read `spectrum_to_csv` text. Every (k1, k2) pair of the index grid must appear
    exactly once, every row of one k1 (k2) must give the same lambda1 (lambda2), and no
    value may be NaN (an overflowing power is written as inf)."""
    return _spectrum_from_lines(_csv_lines(_text_lines(text)))


def _spectrum_from_lines(lines: Iterator[str]) -> Spectrum2D:
    """The spectrum whose CSV lines are `lines` (see `_csv_lines`), read a line and a token
    at a time. Each line is checked as it is read: columns, `int` and `float` tokens, a
    negative or repeated (k1, k2), NaN, lambda1, lambda2; the error is the first bad
    line's. Repeats are found by one sort when reading stops, not by a table indexed by k."""
    if next(lines, None) != _SPECTRUM_HEADER:
        raise FormatError("spectrum CSV missing expected header")
    numbers = ({}, {})  # k1 (k2) -> its number, in order of first reading
    lams = ([], [])  # lambda1 (lambda2) by that number, as first read
    pairs = array("q")  # the k1 and k2 numbers of each row, in turn
    parts = array("d")  # the re and im of each row, in turn
    try:
        for ln, line in enumerate(lines, start=2):
            tok = line.split(",")
            if len(tok) != 7:
                raise FormatError(f"spectrum CSV line {ln}: expected 7 columns")
            try:
                k, x = (int(tok[0]), int(tok[1])), list(map(float, tok[2:]))
            except ValueError as exc:
                raise FormatError(f"spectrum CSV line {ln}: {exc}") from exc
            if min(k) < 0:
                raise FormatError(f"spectrum CSV line {ln}: negative index pair (k1, k2) = {k}")
            row = [seen.setdefault(kd, len(seen)) for kd, seen in zip(k, numbers)]
            pairs.extend(row)
            if any(map(math.isnan, x)):
                raise FormatError(f"spectrum CSV line {ln}: NaN value")
            for d, (i, lam, first) in enumerate(zip(row, x, lams), start=1):
                # the writer prints one repr per eigenvalue, so rows agree exactly
                if i == len(first):
                    first.append(lam)
                elif first[i] != lam:
                    raise FormatError(f"spectrum CSV line {ln}: lambda{d} = {lam!r} for "
                                      f"k{d} = {k[d - 1]}, but an earlier row gives {first[i]!r}")
            parts.extend(x[2:4])
    except FormatError:
        _raise_first_repeat(numbers, pairs)
        raise
    _raise_first_repeat(numbers, pairs)
    if not parts:
        raise FormatError("spectrum CSV has no data rows")
    n1, n2 = (1 + max(seen) for seen in numbers)
    if len(pairs) // 2 != n1 * n2:
        raise FormatError(f"spectrum CSV has {len(pairs) // 2} rows, expected {n1 * n2}: "
                          "some (k1, k2) pairs are missing")
    # every pair appears once, so the k1 (k2) read are 0 .. n1 - 1 (n2 - 1)
    k1, k2 = (np.fromiter(seen, np.int64, len(seen)) for seen in numbers)
    lam1, lam2 = np.empty(n1), np.empty(n2)
    lam1[k1], lam2[k2] = lams
    rows = np.frombuffer(pairs, np.int64).reshape(-1, 2)
    flat = k1[rows[:, 0]] * n2
    flat += k2[rows[:, 1]]
    z = np.frombuffer(parts, np.complex128)
    values = np.empty(n1 * n2, np.complex128 if z.imag.any() else np.float64)
    values[flat] = z if values.dtype == np.complex128 else z.real
    return Spectrum2D(values=values.reshape(n1, n2), lambdas1=lam1, lambdas2=lam2)


def _raise_first_repeat(numbers: tuple[dict, dict], pairs: array) -> None:
    """FormatError naming the first row whose (k1, k2) an earlier row gives, if any."""
    a, b = np.frombuffer(pairs, np.int64).reshape(-1, 2).T
    order = np.lexsort((b, a))  # a stable sort: the rows of one pair stay in file order
    a, b = a[order], b[order]
    repeats = order[1:][(a[1:] == a[:-1]) & (b[1:] == b[:-1])]
    if len(repeats):
        row = int(repeats.min())
        k = tuple(list(seen)[pairs[2 * row + d]] for d, seen in enumerate(numbers))
        raise FormatError(f"spectrum CSV line {row + 2}: repeated index pair (k1, k2) = {k}")


def save_spectrum(s: Spectrum2D, path: str | Path) -> None:
    """Write `spectrum_to_csv(s)` one k1 block of lines at a time."""
    _write_chunks(_spectrum_blocks(s), path)


def load_spectrum(path: str | Path) -> Spectrum2D:
    """`spectrum_from_csv` of a UTF-8 file, read in blocks of whole lines."""
    with _utf8_file(path) as f:
        return _spectrum_from_lines(_csv_lines(f))
