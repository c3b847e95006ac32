"""The CSV cell encoder against Python's own text: repr of floats, str of ints."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from cylpot.csvtext import encode_rows

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)


def _lines(values) -> bytes:
    """What encode_rows must give for (value, row index) rows."""
    return "".join(f"{v},{i}\r\n" for i, v in enumerate(values)).encode()


def _assert_floats(values, blocks=(len,)) -> None:
    """Encode ``values`` as a float64 column cut into blocks of each size
    in ``blocks``; every line must read repr(value),index.  A block's mix
    of layouts decides which words it writes, so the cuts vary it."""
    x = np.asarray(values, dtype=np.float64)
    expected = _lines(map(repr, x.tolist()))
    for block in blocks:
        block = block(x) if callable(block) else block
        index = np.arange(len(x))
        got = b"".join(encode_rows([x[lo:lo + block], index[lo:lo + block]])
                       for lo in range(0, len(x), max(block, 1)))
        assert got == expected, block


def _with_neighbours(values) -> np.ndarray:
    """Each value, its neighbours one ulp away, and their negatives."""
    x = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        near = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    return np.concatenate([near, -near])


def test_random_bit_patterns_read_as_repr():
    bits = np.random.default_rng(20261020).integers(0, 2**64, 100_000, dtype=np.uint64,
                                                    endpoint=False)
    _assert_floats(bits.view(np.float64), blocks=(len, 2048, 333))


def test_powers_of_two_and_ten_with_their_neighbours():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_floats(_with_neighbours(twos), blocks=(len, 97))
    _assert_floats(_with_neighbours(tens), blocks=(len, 97))


def test_layout_thresholds_and_specials():
    # repr is fixed for 1e-4 <= |x| < 1e16 and uses an exponent outside.
    edges = [1e-5, 1e-4, 1e15, 1e16, 2.0**53 - 1, 2.0**53, 2.0**53 + 2, 5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308, 0.0, 1.0, 0.5, 123.0]
    _assert_floats(_with_neighbours(edges), blocks=(len, 1))
    _assert_floats([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 1e100],
                   blocks=(len, 1))


def test_decimal_grid_reads_as_repr():
    k = np.arange(-60_000, 60_001)
    _assert_floats(k / 1000.0, blocks=(len, 2048))
    _assert_floats(k * 1e-3, blocks=(2048,))


def test_narrow_and_wide_float_columns_round_to_float64_first():
    rng = np.random.default_rng(7)
    wide = (rng.standard_normal(2000) * 10.0 ** rng.integers(-30, 30, 2000)).astype(np.longdouble)
    wide /= 3
    for col in (rng.standard_normal(2000).astype(np.float32),
                np.frombuffer(rng.bytes(4000), dtype=np.float16),
                np.array([np.finfo(np.float32).max, np.finfo(np.float16).tiny], dtype=np.float32),
                wide):
        expected = _lines(repr(float(v)) for v in col)
        assert encode_rows([col, np.arange(len(col))]) == expected


def test_integer_and_bool_cells_read_as_str():
    cols = [
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1, 10**18, 1 - 10**18]),
        np.array([np.iinfo(np.uint64).max, 2**63, 2**63 - 1, 0, 1, 10**19], dtype=np.uint64),
        np.array([-128, 127, 0, -5, 9, 100], dtype=np.int8),
        np.array([65535, 0, 1, 10, 999, 1000], dtype=np.uint16),
        np.array([True, False, True, True, False, False]),
    ]
    expected = "".join(
        ",".join("true" if v is True else "false" if v is False else str(v) for v in row) + "\r\n"
        for row in zip(*(col.tolist() for col in cols))
    ).encode()
    assert encode_rows(cols) == expected


def test_no_rows_give_no_lines():
    assert encode_rows([np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=bool),
                        np.array([], dtype=object)]) == b""


@PROPERTY
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_any_float_reads_as_repr(values):
    _assert_floats(values)
