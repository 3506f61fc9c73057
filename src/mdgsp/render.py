"""Deterministic SVG heatmaps of 2-D spectra.

Output is plain text assembled with fixed formatting, so identical inputs
produce byte-identical files. Cells are laid out on the index grid with
axis ticks labeled by the factor eigenvalues (frequency axis 1 horizontal,
axis 2 vertical, origin at the lower left).
"""

from __future__ import annotations

from collections.abc import Iterator
from pathlib import Path

import numpy as np

from ._colormap import VIRIDIS_256, color_indices
from .transforms import Spectrum2D, _write_chunks

_CELL = 24
_MARGIN_LEFT = 64
_MARGIN_BOTTOM = 40
_MARGIN_TOP = 16
_MARGIN_RIGHT = 16
_CHUNK_ROWS = 64  # factor-1 frequencies whose cells make one chunk of text


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    """XML character data: `xml.sax.saxutils.escape` without its ~40 ms import. Bytes the
    OS could not decode (as in a C locale) are read as UTF-8, else as U+FFFD."""
    text = text.encode("utf-8", "surrogateescape").decode("utf-8", "replace")
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def spectrum_heatmap_svg(s: Spectrum2D, title: str = "") -> str:
    """Render spectral power as an SVG heatmap string; `title` is XML-escaped."""
    return "".join(spectrum_heatmap_chunks(s, title))


def save_spectrum_heatmap_svg(s: Spectrum2D, path: str | Path, title: str = "") -> None:
    """Write `spectrum_heatmap_svg(s, title)` chunk by chunk."""
    _write_chunks(spectrum_heatmap_chunks(s, title), path)


def spectrum_heatmap_chunks(s: Spectrum2D, title: str = "") -> Iterator[str]:
    """The text of `spectrum_heatmap_svg` in chunks of whole lines: the header, the
    cells of `_CHUNK_ROWS` factor-1 frequencies at a time, then the axis labels.

    Power is computed a block of rows at a time (twice: once for the colour scale),
    so neither the power matrix nor the text is ever held whole. The scale is found
    before the first chunk, so a writer fails before it opens its file.
    """
    n1 = s.shape[0]
    blocks = [slice(a, a + _CHUNK_ROWS) for a in range(0, n1, _CHUNK_ROWS)] or [slice(0, 0)]
    vmax = float(np.max([s.power(rows).max() for rows in blocks]))
    return _heatmap_chunks(s, title, blocks, vmax)


def _heatmap_chunks(s: Spectrum2D, title: str, blocks: list[slice], vmax: float) -> Iterator[str]:
    n1, n2 = s.shape
    width = _MARGIN_LEFT + n1 * _CELL + _MARGIN_RIGHT
    height = _MARGIN_TOP + n2 * _CELL + _MARGIN_BOTTOM

    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    if title:
        head.append(
            f'<text x="{_MARGIN_LEFT}" y="12" font-family="monospace" font-size="10">'
            f"{_escape(title)}</text>"
        )
    yield _lines(head)
    # Each cell's line joins three NUL-padded byte fields: its x-prefix (per k1), its
    # y-segment (per k2) and its colour; dropping the NULs leaves the text.
    cell_x = _padded(f'<rect x="{_MARGIN_LEFT + k1 * _CELL}" y="' for k1 in range(n1))
    cell_y = _padded(f'{_MARGIN_TOP + (n2 - 1 - k2) * _CELL}" width="{_CELL}" height="{_CELL}" '
                     'fill="' for k2 in range(n2))
    fills = _padded(f'{color}"/>\n' for color in VIRIDIS_256)
    for rows in blocks:
        x = cell_x[rows]
        cells = np.empty((len(x), n2), [("x", x.dtype), ("y", cell_y.dtype), ("fill", fills.dtype)])
        cells["x"] = x[:, None]
        cells["y"] = cell_y
        cells["fill"] = fills[color_indices(s.power(rows), vmax)]
        yield cells.tobytes().translate(None, b"\0").decode("ascii")
    # axis tick labels: eigenvalues along each frequency axis
    out = []
    ybase = _MARGIN_TOP + n2 * _CELL
    for k1 in range(n1):
        x = _MARGIN_LEFT + k1 * _CELL + _CELL // 2
        out.append(
            f'<text x="{x}" y="{ybase + 12}" font-family="monospace" font-size="8" '
            f'text-anchor="middle">{_fmt(float(s.lambdas1[k1]))}</text>'
        )
    for k2 in range(n2):
        y = _MARGIN_TOP + (n2 - 1 - k2) * _CELL + _CELL // 2 + 3
        out.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{y}" font-family="monospace" font-size="8" '
            f'text-anchor="end">{_fmt(float(s.lambdas2[k2]))}</text>'
        )
    out.append(
        f'<text x="{_MARGIN_LEFT + n1 * _CELL // 2}" y="{ybase + 28}" font-family="monospace" '
        f'font-size="9" text-anchor="middle">frequency along factor 1</text>'
    )
    out.append(
        f'<text x="12" y="{_MARGIN_TOP + n2 * _CELL // 2}" font-family="monospace" font-size="9" '
        f'text-anchor="middle" transform="rotate(-90 12 {_MARGIN_TOP + n2 * _CELL // 2})">'
        f"frequency along factor 2</text>"
    )
    out.append("</svg>")
    yield _lines(out)


def _padded(texts: Iterator[str]) -> np.ndarray:
    """ASCII texts as an array of NUL-padded byte strings."""
    return np.array([t.encode("ascii") for t in texts], dtype=bytes)


def _lines(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)
