"""Python's `repr` of float64 arrays, and `str` of integer arrays, in bulk.

Every CSV writer prints a float as `repr(float(x))`: the shortest decimal
digits that read back as x, nearest x among the shortest (David Gay's
mode-0 `dtoa`, which CPython uses), in fixed notation when the decimal
point position `decpt` satisfies -4 < decpt <= 16 and as d.ddde±XX
otherwise. This module writes the same bytes for whole arrays with numpy.

Digits. x > 0 is scaled to y = x * 10**(17 - E), with E = floor(log10 of
the top of x's binade) so that y is in [5e16, 1e18), as a double-double
(Dekker's exact product with a hi/lo table of powers of ten), and split into
y = Q + r, Q an int64 and r in [0, 1). The rounding interval of x is
(y - H, y + H) in the same units, H being half an ulp of x, but only
(y - H / 2, y + H) at an exact power of two. The shortest digits are those
of the multiple of the largest 10**K inside the interval, and of those the
one nearest y. Every inside/outside decision is made on the integers of
the interval, so only its two ends and the nearest-of-two choice are
inexact.

Exactness. The double-double is good to 2**-104 relative, so y is known to
1e18 * 2**-104 < 5e-14, and H, taken as one rounded product, to 2e-14. An
end of the interval within `_SLACK` = 1e-9 of an integer leaves that
integer's side unknown. A value goes to `repr` itself when such an integer
is a multiple of 10**K (so it could change the answer), when both
neighbouring multiples are inside and within `_SLACK` of equally far (a
tie), and when it is zero, not finite, or outside [1e-280, 1e280] (which
keeps every partial product of the scaling a normal float). `repr` is
called once per distinct bit pattern.

Layout. A value fills NUL-padded slots, sized per column from its values:
sign | integer (right-aligned) | '.' and leading fraction zeros | fraction
(left-aligned) | exponent. Record arrays of such slots and separator bytes
are joined by dropping every NUL byte (`join`). Digits come four at a time
from byte tables, with the NULs of leading (integer) or trailing (fraction)
zeros built in. All tables are built on first use, not at import, and the
writers import this module on first use too, the CLI as a command starts:
imported with the package, without cached bytecode, its compilation would add
to the start-up of every program that imports mdgsp.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from functools import cache

import numpy as np

_LO, _HI = 1e-280, 1e280  # the fast path's magnitude range
_SLACK = 1e-9  # decision margin, in units of the last digit of y
_P_MIN, _P_MAX = -264, 299  # 10**p, p = 17 - E, for every E of [_LO, _HI]
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter for float64
_DECPT = 330  # the exponent tables cover decimal point positions -_DECPT .. _DECPT
_POW10 = np.array([10**k for k in range(19)], dtype=np.int64)
# Values encoded at once: enough to amortize numpy's per-call cost, few enough
# that a block's working arrays stay near 1 MB.
BLOCK = 8192


@cache
def _tables() -> dict[str, np.ndarray]:
    """Power-of-ten double-doubles, digit byte tables and layout tables.

    They live as long as the process, in one anonymous mapping of their own:
    built on first use, inside the malloc heap, they would sit above the
    arrays of that moment and keep the heap from shrinking under them (the
    `denoise` workload's peak RSS rose 3.5 MB when they did)."""
    hi, lo = [], []
    for p in range(_P_MIN, _P_MAX + 1):
        if p >= 0:
            h = float(10**p)  # int -> float rounds correctly
            lo.append(float(10**p - int(h)))
        else:
            d = 10**-p
            h = 1 / d  # int / int true division rounds correctly
            a, b = h.as_integer_ratio()
            lo.append((b - a * d) / (b * d))
        hi.append(h)
    hi = np.array(hi)
    s = hi * _SPLIT
    hi_h = s - (s - hi)

    v = np.arange(10000, dtype=np.uint16)
    digits = np.stack([v // 1000, v // 100 % 10, v // 10 % 10, v % 10], axis=1).astype(np.uint8)
    chars = digits + np.uint8(48)
    lead = np.where(np.logical_or.accumulate(digits != 0, axis=1), chars, np.uint8(0))
    last = lead.copy()
    last[0, 3] = ord("0")  # the integer 0 prints as "0"
    later = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    trail = np.where(later, chars, np.uint8(0))

    def words(*blocks):
        return np.ascontiguousarray(np.concatenate(blocks)).view("=u4").ravel()

    # Per n digits (0 .. 19) and decpt clipped to -4 .. 17: the integer part is
    # C // div * mul, the fraction (C % div) * fmul (its digits left-aligned in 17),
    # and the point word holds the point and the fraction's leading zeros.
    div, mul, fmul, fds, dot = [], [], [], [], []
    dots = [b"\0\0\0\0", b".\0\0\0", b".0\0\0", b".00\0", b".000"]
    for n in range(20):
        for d in range(-4, 18):
            expo = d <= -4 or d >= 17
            a = 1 if expo else min(max(d, 0), n)  # digits of C before the point
            fd = max(min(n - a, 17), 0)
            div.append(10**fd)
            mul.append(1 if expo else 10 ** max(d - n, 0))
            fmul.append(10 ** (17 - fd))
            fds.append(fd)
            zeros = 0 if expo else 1 if d >= n else max(-d, 0)  # a whole number ends ".0"
            dot.append(dots[0] if expo and n == 1 else dots[1 + zeros])
    exp = [b"" if -4 < d <= 16 else f"e{d - 1:+03d}".encode() for d in range(-_DECPT, _DECPT + 1)]
    return _off_heap({
        "hi": hi, "lo": np.array(lo), "hi_h": hi_h, "hi_l": hi - hi_h,
        # index v + 10000 * (a higher word is nonzero)
        "int": words(lead, chars), "int_last": words(last, chars),
        # index v + 10000 * (every lower digit is zero)
        "frac": words(chars, trail),
        "div": np.array(div, dtype=np.int64), "mul": np.array(mul, dtype=np.int64),
        "fmul": np.array(fmul, dtype=np.int64), "fd": np.array(fds),
        "dot": np.frombuffer(b"".join(dot), dtype="=u4"),
        # index decpt + _DECPT: empty in fixed notation; the fifth byte of "e-100"
        "exp4": np.frombuffer(b"".join(e[:4].ljust(4, b"\0") for e in exp), dtype="=u4"),
        "exp5": np.frombuffer(b"".join(e[4:].ljust(1, b"\0") for e in exp), dtype=np.uint8),
    })


def _off_heap(tables: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Read-only copies of 1-D arrays in one anonymous mapping, each 8-byte aligned."""
    import mmap

    spans = [-(-a.nbytes // 8) * 8 for a in tables.values()]
    buf = mmap.mmap(-1, max(1, sum(spans)))
    out, at = {}, 0
    for (name, a), span in zip(tables.items(), spans):
        out[name] = np.frombuffer(buf, dtype=a.dtype, count=a.size, offset=at)
        out[name][:] = a
        out[name].flags.writeable = False
        at += span
    return out


def _scaled(ax: np.ndarray, t: dict) -> tuple[np.ndarray, ...]:
    """y = ax * 10**(17 - E) as Q + r, with E, and H, half an ulp of ax scaled like y.

    E = floor(log10 2**(e2 - 1022)) for ax's biased binary exponent e2 (so that
    2**(e2 - 1023) <= ax < 2**(e2 - 1022)) is exact, and puts y in [5e16, 1e18).
    Q is an int64 and r in [0, 1); y is exact to 2**-104 relative, H to 2**-53
    (one rounding of an exact power of two times the table entry).
    """
    e2 = ax.view(np.int64) >> 52
    E = ((e2 - 1022) * 78913) >> 18
    i = (17 - _P_MIN) - E
    # y = p + err: Dekker's exact product ax * ph, plus ax * pl
    ph = t["hi"][i]
    s = ax * _SPLIT
    xh = s - (s - ax)
    xl = np.subtract(ax, xh, out=s)
    p = ax * ph
    part = t["hi_h"][i]
    err = xh * part
    err -= p
    err += xl * part
    np.take(t["hi_l"], i, out=part)
    err += xh * part
    err += xl * part
    np.take(t["lo"], i, out=part)
    err += ax * part
    hi = p + err
    p -= hi
    err += p
    # hi + err = Q + r
    r = np.floor(err)
    Q = hi.astype(np.int64)
    Q += r.astype(np.int64)
    np.subtract(err, r, out=r)
    H = ((e2 - 53) << 52).view(np.float64)
    H *= ph
    return Q, r, E, H


def _shortest(ax: np.ndarray, t: dict) -> tuple[np.ndarray, ...]:
    """Shortest digits of every ax in [_LO, _HI]: (C, n, decpt, unsure).

    The text of ax is the n decimal digits of C, with the point at decpt, unless
    `unsure` is set; then the digit search could not decide within `_SLACK`.
    """
    Q, r, E, H = _scaled(ax, t)
    # The interval is (y - Hd, y + H), Hd = H but H / 2 at an exact power of two.
    # A + 1 .. B are the integers surely inside; A and B + 1 may be inside when
    # they lie at an edge.
    lo = (r + _SLACK) - H
    lo += (0.5 * H) * (ax.view(np.int64) << 12 == 0)
    f = np.floor(lo)
    lo -= f
    lo_edge = lo < 2 * _SLACK
    A = Q + f.astype(np.int64)
    np.add(r, H - _SLACK, out=lo)
    np.ceil(lo, out=f)
    B = Q + f.astype(np.int64)
    B -= 1
    f -= lo
    hi_edge = f < 2 * _SLACK
    del lo, f, H
    # K: the largest k with a multiple of 10**k in A + 1 .. B (none for k, none above)
    K = (B // 10 > A // 10).astype(np.int64)
    K += B // 100 > A // 100
    K += B // 1000 > A // 1000
    live = np.flatnonzero(K == 3)
    for k in range(4, 19):
        live = live[B[live] // 10**k > A[live] // 10**k]
        if not len(live):
            break
        K[live] = k
    # of the multiples of 10**K inside, the one nearest y
    D = _POW10[K]
    q = Q // D
    rem = Q - q * D
    d0 = rem + r  # y - q * D
    d1 = np.subtract(D, rem, out=rem) - r  # (q + 1) * D - y
    in0 = q * D > A
    in1 = (q + 1) * D <= B
    unsure = in0 & in1 & (np.abs(d0 - d1) <= _SLACK)
    q += in1 & ~(in0 & (d0 < d1))
    # an edge integer matters only if it is a multiple of 10**K
    edge = np.flatnonzero(lo_edge | hi_edge)
    if len(edge):
        De = D[edge]
        unsure[edge] |= ((lo_edge[edge] & (A[edge] % De == 0))
                         | (hi_edge[edge] & ((B[edge] + 1) % De == 0)))
    # digits of q * D: 17, 18, or 19 if it rounded up to 10**18
    np.multiply(q, D, out=D)
    nd = (D >= 10**17) + (D >= 10**18) + 17
    return q, nd - K, nd + E - 17, unsure


class Floats:
    """The `repr` text of a 1-D float array, as slot fields ready to be placed.

    `dtype` is the slot of one value, sized for this array: as many integer and
    fraction words as its values need, exponent bytes only if one prints an
    exponent, and padding up to the longest text that `repr` gives.
    """

    def __init__(self, x: np.ndarray):
        t = _tables()
        x = np.asarray(x, dtype=np.float64)
        self.n = len(x)
        ax = np.abs(x)
        fast = (ax >= _LO) & (ax <= _HI)  # False for 0, inf and nan
        if fast.all():
            C, n, decpt, unsure = _shortest(ax, t)
            fast = ~unsure
        else:  # the rest is laid out as 1.0, then overwritten by `repr`
            at = np.flatnonzero(fast)
            C, n, decpt = np.ones((3, self.n), np.int64)
            C[at], n[at], decpt[at], unsure = _shortest(ax[at], t)
            fast[at[unsure]] = False
        key = n * 22 + np.minimum(np.maximum(decpt, -4), 17) + 4
        div = t["div"][key]
        self.int = C // div
        self.frac = (C - self.int * div) * t["fmul"][key]
        self.int *= t["mul"][key]
        self.dot = t["dot"][key]
        self.sign = np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
        fd = int(t["fd"][key].max()) if self.n else 0  # fraction digits: f0, then words
        self.frac_words = max(0, (fd + 2) // 4)
        fields = [("sign", "u1"), ("int", "=u4", (_words(self.int),)), ("dot", "=u4")]
        if fd:
            fields += [("f0", "u1"), ("frac", "=u4", (self.frac_words,))]
        self.exp = []
        if self.n and (decpt.min() <= -4 or decpt.max() > 16):
            e = decpt + _DECPT
            self.exp = [("exp4", t["exp4"][e])]
            if decpt.min() <= -99 or decpt.max() >= 101:
                self.exp.append(("exp5", t["exp5"][e]))
            fields += [(name, col.dtype) for name, col in self.exp]
        self.slow = np.flatnonzero(~fast)
        if len(self.slow):
            bits, inv = np.unique(x[self.slow].view(np.int64), return_inverse=True)
            texts = [repr(v).encode() for v in bits.view(np.float64).tolist()]
            pad = max(map(len, texts)) - np.dtype(fields).itemsize
            if pad > 0:
                fields.append(("pad", "u1", (pad,)))
            size = np.dtype(fields).itemsize
            self.slow_slots = np.frombuffer(b"".join(s.ljust(size, b"\0") for s in texts),
                                            dtype=np.dtype(fields))[inv]
        self.dtype = np.dtype(fields)

    def put(self, out: np.ndarray) -> None:
        """Write every value's slot into the 1-D array `out` of dtype `self.dtype`."""
        t = _tables()
        out["sign"] = self.sign
        _put_int(self.int, out["int"], t)
        out["dot"] = self.dot
        if "f0" in self.dtype.names:
            f0 = self.frac // 10**16
            F = self.frac - f0 * 10**16
            out["f0"] = np.where(self.frac > 0, f0 + 48, 0)
            frac = out["frac"]
            for w in range(self.frac_words):
                scale = 10 ** (12 - 4 * w)
                d = F // scale
                F -= d * scale
                frac[:, w] = t["frac"][d + 10000 * (F == 0)]
        for name, col in self.exp:
            out[name] = col
        if "pad" in self.dtype.names:
            out["pad"] = 0
        if len(self.slow):
            out[self.slow] = self.slow_slots


class Ints:
    """The `str` text of a 1-D array of nonnegative integers, as one slot field."""

    def __init__(self, v: np.ndarray):
        self.v = np.asarray(v, dtype=np.int64)
        self.n = len(self.v)
        self.dtype = np.dtype([("int", "=u4", (_words(self.v),))])

    def put(self, out: np.ndarray) -> None:
        """Write every value's slot into the 1-D array `out` of dtype `self.dtype`."""
        _put_int(self.v, out["int"], _tables())


def _words(v: np.ndarray) -> int:
    """4-digit words for the largest of the nonnegative integers v."""
    top = int(v.max()) if len(v) else 0
    return max(1, -(-len(str(top)) // 4))


def _put_int(v: np.ndarray, out: np.ndarray, t: dict) -> None:
    """Nonnegative integers v < 10**(4 * words) into `out` (m, words), right-aligned."""
    words = out.shape[1]
    rest = v
    for w in range(words):
        scale = 10 ** (4 * (words - 1 - w))
        d = rest // scale
        rest = rest - d * scale
        table = t["int_last"] if w == words - 1 else t["int"]
        out[:, w] = table[d + 10000 * (v >= scale * 10000) if w else d]


def rendered(column: Floats | Ints) -> np.ndarray:
    """A column's slots as an array, to be placed by index into many records."""
    out = np.zeros(column.n, column.dtype)
    column.put(out)
    return out


def join(shape: tuple[int, ...], columns: Sequence, seps: Sequence) -> str:
    """Text of the records of a grid of `shape`, each field followed by its separator.

    A column is a `Floats` or `Ints` of one value per record (in C order), or an
    array of rendered slots that broadcasts against `shape`. `seps[j]` is a
    byte value, or an array of them that broadcasts against `shape`.
    """
    fields = []
    for j, col in enumerate(columns):
        fields += [(f"c{j}", col.dtype), (f"s{j}", "u1")]
    grid = np.empty(shape, np.dtype(fields))
    flat = grid.reshape(-1)
    for j, (col, sep) in enumerate(zip(columns, seps)):
        if isinstance(col, (Floats, Ints)):
            col.put(flat[f"c{j}"])
        else:
            grid[f"c{j}"] = col
        grid[f"s{j}"] = sep
    return flat.tobytes().translate(None, b"\0").decode("ascii")


def rows(columns: Sequence[np.ndarray]) -> Iterator[str]:
    """CSV lines of equal-length 1-D columns, a block of lines at a time: float
    columns as `repr`, integer columns (nonnegative) as `str`."""
    seps = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    step = max(1, BLOCK // len(columns))
    for a in range(0, len(columns[0]), step):
        part = [c[a:a + step] for c in columns]
        yield join((len(part[0]),), [Floats(c) if c.dtype.kind == "f" else Ints(c) for c in part],
                   seps)
