"""The bulk float encoder against Python's repr, a million values per class.

Every CSV writer formats floats through `mdgsp._floattext`, which must give
exactly the text of `repr(float(x))` for each value. Each class below
targets one part of the method: the layout switches, the exponent width,
the halved gap below a power of two, the exactness of integers, the carry
of a nearest 17-digit decimal into a new power of ten, and the values that
go to `repr` itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mdgsp
from mdgsp import _floattext as ft

N = 1_000_000
CHUNK = 1 << 17


def assert_repr_text(x) -> int:
    """Assert the encoder writes repr of every value of x; return how many finite,
    nonzero values inside the fast path's range it left to repr itself."""
    x = np.asarray(x, dtype=np.float64)
    fallbacks = 0
    for a in range(0, len(x), CHUNK):
        part = x[a:a + CHUNK]
        floats = ft.Floats(part)
        got = ft.join((len(part),), [floats], [ord("\n")])
        want = "\n".join(map(repr, part.tolist())) + "\n"
        if got != want:
            got_lines, want_lines = got.split("\n"), want.split("\n")
            bad = next(i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w)
            pytest.fail(f"{part[bad]!r}: wrote {got_lines[bad]!r}, repr gives {want_lines[bad]!r}")
        slow = np.abs(part[floats.slow])
        fallbacks += int(np.sum((slow >= 1e-280) & (slow <= 1e280)))
    return fallbacks


def signs(rng, x):
    return np.where(rng.random(len(x)) < 0.5, -x, x)


def random_bits(rng):
    # every kind of float64 (normal, zero, inf, nan payloads), then subnormals
    x = rng.integers(0, 2**64, N - N // 4, dtype=np.uint64).view(np.float64)
    sub = rng.integers(1, 2**52, N // 4, dtype=np.uint64).view(np.float64)
    return np.concatenate([x, signs(rng, sub)])


def layout_switches(rng):
    # within 1000 ulps of 1e-5, 1e-4 (fixed from -4 < decpt), 1e15, 1e16 (exponent
    # from decpt > 16) and 1e17, and log-uniform around each
    base = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17])[rng.integers(0, 5, N)]
    near = (base[:N // 2].view(np.int64) + rng.integers(-1000, 1001, N // 2)).view(np.float64)
    around = base[N // 2:] * 10.0 ** rng.uniform(-1, 1, N - N // 2)
    return signs(rng, np.concatenate([near, around]))


def three_digit_exponents(rng):
    return signs(rng, 10.0 ** np.concatenate([rng.uniform(-323, -99, N // 2),
                                              rng.uniform(100, 308.2, N - N // 2)]))


def powers_of_two(rng):
    # the lower half of the rounding gap is half as wide
    x = np.ldexp(1.0, np.arange(-1074, 1024))
    return signs(rng, np.resize(x, N))


def integers(rng):
    big = rng.integers(-2**53, 2**53 + 1, N // 2)
    small = rng.integers(-10**6, 10**6, N - N // 2)
    return np.concatenate([big, small]).astype(np.float64)


def carrying_roundings(rng):
    # a few ulps below and above powers of ten: the nearest 17-digit decimal of
    # 9.99...e(k - 1) may be 10**k, one digit longer before it is cut
    k = rng.integers(-307, 308, N)
    step = rng.integers(1, 40, N) * np.where(rng.random(N) < 0.8, -1, 1)
    x = ((10.0 ** k).view(np.int64) + step).view(np.float64)
    return signs(rng, x[np.isfinite(x)])


def specials(rng):
    # zeros, infinities and nans interleaved with ordinary values in every block
    x = rng.standard_normal(N)
    at = rng.random(N) < 0.5
    x[at] = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])[rng.integers(0, 5, int(at.sum()))]
    return x


@pytest.mark.parametrize("make", [random_bits, layout_switches, three_digit_exponents,
                                  powers_of_two, integers, carrying_roundings, specials])
def test_encoder_writes_repr_of_every_value(make):
    x = make(np.random.default_rng(list(map(ord, make.__name__))))
    assert len(x) >= N
    fallbacks = assert_repr_text(x)
    if make is random_bits:
        # the digit search left some values to repr: exact ties and exact interval
        # ends at a candidate (few significant bits), but under 1% of them
        finite = np.abs(x[np.isfinite(x)])
        assert 0 < fallbacks < 0.01 * np.sum((finite >= 1e-280) & (finite <= 1e280))


def test_values_on_a_rounding_boundary_go_to_repr():
    # 1e23 is halfway between two floats; the others tie between two shortest
    # decimals, or have an end of their rounding interval on one
    x = np.array([1e23, 1974014629615873.8, 1.7426948399342172e16, 0.1, 2.0**-1074])
    floats = ft.Floats(x)
    assert floats.slow.tolist() == [0, 1, 2, 4]
    assert assert_repr_text(x) == 3


def test_integer_columns_print_as_str():
    v = np.array([0, 7, 10, 9999, 10000, 123456789, 10**16, 2**63 - 1])
    text = ft.join((len(v),), [ft.Ints(v)], [ord(",")])
    assert text == "".join(f"{k}," for k in v.tolist())


def test_power_column_is_libm_pow_of_hypot_on_a_million_values():
    # the spectrum writer computes Python's abs(complex) ** 2 in bulk
    rng = np.random.default_rng(8)
    z = (rng.standard_normal(N) + 1j * rng.standard_normal(N)) * 10.0 ** rng.integers(-160, 160, N)
    with np.errstate(over="ignore"):
        got = np.float_power(np.hypot(z.real, z.imag), 2.0)
    want = []
    for v in z.tolist():
        try:
            want.append(abs(v) ** 2)
        except OverflowError:
            want.append(float("inf"))
    assert np.array_equal(got, np.array(want))


def test_importing_the_cli_builds_no_table():
    # the encoder is imported and its tables built on first use, and their exact
    # arithmetic needs neither fractions nor decimal: starting the CLI pays for none
    # of it
    code = ("import sys, mdgsp.cli\n"
            "print('mdgsp._floattext' in sys.modules)\n"
            "from mdgsp import _floattext\n"
            "print(_floattext._tables.cache_info().currsize,"
            " 'fractions' in sys.modules, 'decimal' in sys.modules)\n"
            "_floattext._tables()\n"
            "print('fractions' in sys.modules, 'decimal' in sys.modules)")
    src = str(Path(mdgsp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.split() == ["False", "0", "False", "False", "False", "False"]
