"""Signal and spectrum CSV read in bulk, bit-identical to `float()` per token.

A text is read in blocks of whole lines, each about `READ_BYTES` long. A block
is plain when it holds only the bytes `0-9 . e E + - ,` and newlines and has no
blank line before the text's last row. One `np.loadtxt` call takes the lines of
every block as it is checked, and parses them in C into one array, so the text
is never held whole; it converts each token with `PyOS_string_to_double`, the
routine behind `float()`, so a plain text reads to the same bits, and it
requires every row to be as wide as the first. No letter but `e` is plain, so
no plain token reads as NaN; one that overflows reads as inf, as with `float()`.

Any other text, and any text that fails a check, raises `NotPlain`: the caller
reads it again with its per-token reader, which gives the same value or words
the error. Like the float encoder, this module is imported on first use, or by
the CLI as a command starts, never by `import mdgsp.cli`, so that its
compilation adds nothing to the start-up of a program that imports mdgsp.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import partial

import numpy as np

_PLAIN = b"0123456789.eE+-,\n"
READ_BYTES = 1 << 16  # bytes read at once; a block is this plus the rest of a line


class NotPlain(Exception):
    """The text cannot be read in bulk; the per-token reader reads it."""


def text_chunks(text: str) -> Iterator[bytes]:
    """The ASCII bytes of `text`, `READ_BYTES` characters at a time."""
    if not text.isascii():
        raise NotPlain
    return (text[i:i + READ_BYTES].encode("ascii") for i in range(0, len(text), READ_BYTES))


def file_chunks(raw) -> Iterator[bytes]:
    """The bytes of a file opened in binary mode, `READ_BYTES` at a time."""
    return iter(partial(raw.read, READ_BYTES), b"")


def _line_blocks(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The bytes of `chunks`, cut after the last newline of each chunk: blocks of
    whole lines, the last one without its newline if the text ends without one."""
    part = []
    for chunk in chunks:
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*part, chunk[:cut]])
            part = [chunk[cut:]]
        else:
            part.append(chunk)
    tail = b"".join(part)
    if tail:
        yield tail


def _rows(chunks: Iterable[bytes], head: bytes = b"",
          index_digits: bool = False) -> Iterator[bytes]:
    """The lines of a plain CSV text that starts with the line `head`, for np.loadtxt,
    checked a block at a time; with `index_digits`, every line must hold 7 fields, the
    first two of ASCII digits.

    Raises NotPlain at the first block that is not plain, or if there is no row.
    """
    blank = rows = False  # a blank line was read; a row was read
    for block in _line_blocks(chunks):
        if head:
            if not block.startswith(head):
                raise NotPlain
            block, head = block[len(head):], b""
        lines = block.rstrip(b"\n")
        if lines:
            if blank or lines[:1] == b"\n" or b"\n\n" in lines or lines.translate(None, _PLAIN):
                raise NotPlain
            if index_digits and not _digit_indices(lines):
                raise NotPlain
            rows = True
            yield from lines.split(b"\n")
        blank = blank or block[:1] == b"\n" or block.endswith(b"\n\n")
    if not rows:
        raise NotPlain


def _table(rows: Iterator[bytes]) -> np.ndarray:
    """The (rows, width) float array of CSV lines, parsed in one np.loadtxt call, so the
    result is one array; NotPlain if a token does not parse or rows differ in width."""
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise NotPlain from None


def signal(chunks: Iterable[bytes]) -> np.ndarray:
    """The (n1, n2) signal of a plain CSV text whose values are all finite."""
    f = _table(_rows(chunks))
    if not np.isfinite(f).all():
        raise NotPlain
    return f


def spectrum(chunks: Iterable[bytes], header: str) -> tuple[np.ndarray, ...]:
    """(values, lambdas1, lambdas2) of a plain spectrum CSV text under `header`, whose
    k1 and k2 are ASCII digits. Every (k1, k2) pair of the index grid must appear
    exactly once, and every row of one k1 (k2) must give the lambda1 (lambda2) of its
    first row. values are real unless an imaginary part is nonzero."""
    table = _table(_rows(chunks, f"{header}\n".encode(), index_digits=True))
    k1, k2, lam1, lam2, re, im = table[:, :6].T
    n = len(table)
    n1, n2 = int(k1.max()) + 1, int(k2.max()) + 1
    if n1 * n2 != n:
        raise NotPlain
    k1 *= n2
    k1 += k2  # the flat grid index of each file row, exact below 2**53
    row = np.full(n, -1)  # the file row of each grid cell
    row[k1.astype(np.intp)] = np.arange(n)
    if row.min() < 0:  # a pair is repeated, so another is missing
        raise NotPlain
    row = row.reshape(n1, n2)
    first1, first2 = lam1[row.min(axis=1)], lam2[row.min(axis=0)]
    if not ((lam1[row] == first1[:, None]).all() and (lam2[row] == first2).all()):
        raise NotPlain
    if not im.any():
        return re[row], first1, first2
    values = np.empty((n1, n2), np.complex128)
    values.real = re[row]
    values.imag = im[row]
    return values, first1, first2


def _digit_indices(lines: bytes) -> bool:
    """Whether every line of a plain block holds 6 commas and, before the second, ASCII
    digits only: the second byte that is not a digit at or after each line's start
    must be the line's second comma."""
    a = np.frombuffer(lines, np.uint8)
    starts = np.concatenate(([0], np.flatnonzero(a == ord("\n")) + 1))
    commas = np.flatnonzero(a == ord(","))
    if not (np.diff(np.searchsorted(commas, np.append(starts, len(a)))) == 6).all():
        return False
    other = np.flatnonzero(a - np.uint8(ord("0")) > 9)
    return bool((other[np.searchsorted(other, starts) + 1] == commas[1::6]).all())
