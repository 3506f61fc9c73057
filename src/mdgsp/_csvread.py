"""Signal CSV read in bulk, bit-identical to `float()` per token.

A text is read in blocks of whole lines, each about `READ_BYTES` long. A block
is plain when it holds only the bytes `0-9 . e E + - ,` and newlines and has no
blank line before the text's last row. One `np.loadtxt` call takes the lines of
every block as it is checked, and parses them in C into one array, so the text
is never held whole; it converts each token with `PyOS_string_to_double`, the
routine behind `float()`, so a plain text reads to the same bits, and it
requires every row to be as wide as the first. No letter but `e` is plain, so
no plain token reads as NaN; one that overflows reads as inf, as with `float()`.

Any other text, and any text that fails a check, raises `NotPlain`: the caller
streams it again through its per-token reader, which gives the same value or
words the error. Spectrum CSV is read by a per-token reader alone. Like the
float encoder, this module is imported on first use, or by the CLI as a command
starts, never by `import mdgsp.cli`, so that its compilation adds nothing to the
start-up of a program that imports mdgsp.
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


def _rows(chunks: Iterable[bytes]) -> Iterator[bytes]:
    """The lines of a plain CSV text, for np.loadtxt, checked a block at a time.

    Raises NotPlain at the first block that is not plain, or if there is no row.
    """
    blank = rows = False  # a blank line was read; a row was read
    for block in _line_blocks(chunks):
        lines = block.rstrip(b"\n")
        if lines:
            if blank or lines[:1] == b"\n" or b"\n\n" in lines or lines.translate(None, _PLAIN):
                raise NotPlain
            rows = True
            yield from lines.split(b"\n")
        blank = blank or block[:1] == b"\n" or block.endswith(b"\n\n")
    if not rows:
        raise NotPlain


def signal(chunks: Iterable[bytes]) -> np.ndarray:
    """The (n1, n2) signal of a plain CSV text whose values are all finite, parsed in one
    np.loadtxt call; NotPlain if a token does not parse or rows differ in width."""
    try:
        f = np.loadtxt(_rows(chunks), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise NotPlain from None
    if not np.isfinite(f).all():
        raise NotPlain
    return f
