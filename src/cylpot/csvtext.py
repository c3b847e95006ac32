"""CSV lines of a block of rows given column by column.

``encode_rows`` returns the UTF-8 bytes csv.writer (QUOTE_MINIMAL, lines
ended by \\r\\n) writes for rows whose cells read: ``true``/``false`` for
bools, ``str`` for integers, ``repr`` of the float64 value for floats
(longdouble, float32 and float16 are rounded to float64 first), and ``str``
of each ``tolist()`` element for any other kind, quoted where csv needs it.

Numbers are formatted in numpy.  A float's digits are those of ``repr``:
the shortest decimal that reads back as the same float64, the nearest one
where several share that length.  They come from Ryū (Adams 2018, "Ryū:
fast float-to-string conversion", PLDI) on uint64 arrays.  Each cell is
written into a fixed run of byte slots, in words of four, next to a mask of
the slots its text keeps; one boolean index of a block's slots gives its
lines.  Bools and any other kind go through their text.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_M32 = _U64(0xFFFF_FFFF)
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_INF_BITS = _U64(0x7FF0_0000_0000_0000)
_ONE_BITS = _U64(0x3FF0_0000_0000_0000)

# Slots of a float cell, 13 words: the sign in slot 3; 16 integer digits,
# right-aligned, in slots 4-19; the point in slot 20; in slots 24-43 the
# fraction digits, left-aligned from slot 27, printed as a 20-digit number
# whose first three digits are the zeros of 0.000x; "e" and the exponent's
# sign in slots 44-45; four exponent digits, right-aligned, in slots 48-51.
# A cell's layout code picks the slots it keeps: below _FLOAT_EXP the fixed
# layouts, 18 * (point + 3) + fraction digits; from _FLOAT_EXP on the
# exponent layouts, 2 * fraction digits + (three exponent digits); then
# _FLOAT_SIGNED more with a sign, and last nan or inf, and -inf.
_FLOAT_WORDS = 13
_FLOAT_EXP = 360
_FLOAT_SIGNED = 394
_FLOAT_NONFINITE = 2 * _FLOAT_SIGNED
# Slots of an integer cell, 6 words: the sign in slot 3, 20 digits,
# right-aligned, in slots 4-23.  The layout code is the digit count, 21 more
# with a sign.
_INT_WORDS = 6


def _csv_field(text: str) -> str:
    """A field as csv.writer's QUOTE_MINIMAL writes it."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _word(text: bytes):
    """The uint32 whose four bytes in memory are ``text``."""
    return np.frombuffer(text, dtype=np.uint32)[0]


def _float_keep() -> np.ndarray:
    """Keep words of each float layout code, then a separator word."""
    code = np.arange(_FLOAT_SIGNED)[:, None]
    fixed = code < _FLOAT_EXP
    point = code // 18 - 3
    fraction = np.where(fixed, code % 18, (code - _FLOAT_EXP) // 2)
    wide = (code - _FLOAT_EXP) % 2
    whole = np.where(fixed, np.maximum(point, 1), 1)
    zeros = np.where(fixed, np.maximum(-point, 0), 0)
    slot = np.arange(4 * _FLOAT_WORDS + 4)
    keep = ((slot >= 20 - whole) & (slot < 20)) | ((slot == 20) & (fixed | (fraction > 0)))
    keep |= (slot >= 27 - zeros) & (slot < 27 + fraction)
    keep |= ~fixed & ((slot == 44) | (slot == 45) | ((slot >= 50 - wide) & (slot < 52)))
    keep |= slot == 4 * _FLOAT_WORDS
    nonfinite = ((slot >= 17) & (slot < 20)) | (slot == 4 * _FLOAT_WORDS)
    return np.vstack([keep, keep | (slot == 3), nonfinite, nonfinite | (slot == 3)]).view(np.uint32)


def _int_keep() -> np.ndarray:
    """Keep words of each integer layout code, then a separator word."""
    count = np.arange(21)[:, None]
    slot = np.arange(4 * _INT_WORDS + 4)
    keep = ((slot >= 24 - count) & (slot < 24)) | (slot == 4 * _INT_WORDS)
    return np.vstack([keep, keep | (slot == 3)]).view(np.uint32)


def _pow5bits(e):
    """Bits of 5^e for e >= 1, and 1 for e = 0 (Ryū's pow5bits)."""
    return (e * 1217359 >> 19) + 1


def _limbs(values) -> np.ndarray:
    """(len(values), 4) 32-bit limbs, low first, of Python ints below 2^128."""
    data = b"".join(v.to_bytes(16, "little") for v in values)
    return np.frombuffer(data, dtype="<u4").reshape(-1, 4).astype(np.uint64)


class _Tables:
    """Per-process tables, built on first use.

    Ryū's parameters of each biased binary exponent of a float64 (the
    reference implementation's double tables, 125-bit multipliers):

    - ``mul``: four arrays of the multiplier's 32-bit limbs, low first;
    - ``shift``: j - 96 for the multiplier's right shift j, 118 <= j <= 125;
    - ``e10``: the decimal exponent of the scaled bounds;
    - ``tz_mask``: 2^q - 1 where Ryū asks whether 4 m2 has q trailing binary
      zeros, 0 where it has them by construction (q <= 1), all ones where
      it cannot have them (q >= 55);
    - ``pow5``: 5^q where Ryū asks whether the bounds are multiples of 5^q
      (e2 >= 0, q <= 21), else 0.

    Then the text: ASCII of four digits for 0..9999, and the keep words of
    each float and integer layout code.
    """

    _BITS = 125

    def __init__(self):
        e2 = np.maximum(np.arange(2047), 1) - 1077
        up = e2 >= 0
        q = np.where(up, (e2 * 78913 >> 18) - (e2 > 3), (-e2 * 732923 >> 20) - (-e2 > 1))
        i = -e2 - q
        # Multipliers: 2^(bits(5^q) - 1 + 125) // 5^q + 1 for e2 >= 0,
        # 5^i with its top 125 bits for e2 < 0.
        inverse, direct, power = [], [], 1
        for k in range(max(q[up].max(), i[~up].max()) + 1):
            inverse.append((1 << power.bit_length() - 1 + self._BITS) // power + 1)
            excess = power.bit_length() - self._BITS
            direct.append(power >> excess if excess >= 0 else power << -excess)
            power *= 5
        mul = np.where(up[:, None], _limbs(inverse)[np.where(up, q, 0)],
                       _limbs(direct)[np.where(up, 0, i)])
        self.mul = tuple(mul.T.copy())
        self.shift = np.where(up, -e2 + q + self._BITS + _pow5bits(q) - 1,
                              q - _pow5bits(i) + self._BITS).astype(np.uint64) - _U64(96)
        self.e10 = np.where(up, q, q + e2)
        low = np.uint64(1) << np.clip(q, 0, 63).astype(np.uint64)
        self.tz_mask = np.where(up | (q >= 55), _U64(2**64 - 1),
                                np.where(q <= 1, _U64(0), low - _U64(1)))
        self.pow5 = np.where(up & (q <= 21), np.array([5**k for k in range(22)],
                                                      dtype=np.uint64)[np.clip(q, 0, 21)], _U64(0))

        digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
        self.digits4 = np.stack(np.meshgrid(digit, digit, digit, digit, indexing="ij"),
                                axis=-1).reshape(-1, 4).view(np.uint32).reshape(-1)
        self.float_keep = _float_keep()
        self.int_keep = _int_keep()


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def _scaled_bounds(m2, mm_shift, mul, shift):
    """Ryū's mulShiftAll64: [vr, vp, vm] = floor(v M / 2^(96 + shift)) for
    v = 4 m2, 4 m2 + 2 and 4 m2 - 1 - mm_shift, with m2 < 2^53 and
    M < 2^126 given as 32-bit limbs.  vm's product is summed in 32-bit
    columns; vr's and vp's add (1 + mm_shift) M and (3 + mm_shift) M.
    Operations run in place where they can: the block's peak memory is
    mostly these columns."""
    thirty_two = _U64(32)
    b0, b1, b2, b3 = mul
    a1 = (m2 << _U64(2)) - _U64(1) - mm_shift
    a0 = a1 & _M32
    a1 >>= thirty_two
    c0 = a0 * b0
    high = c0 >> thirty_two
    c0 &= _M32
    columns = [c0]
    for lo, hi in ((b1, b0), (b2, b1), (b3, b2)):
        x, y = a0 * lo, a1 * hi
        column = x & _M32
        column += y & _M32
        column += high
        columns.append(column)
        x >>= thirty_two
        y >>= thirty_two
        high = x
        high += y
    del x, y, a0
    top = a1 * b3
    top += high
    del high, a1
    left = thirty_two - shift

    def bound(d):
        """floor((V + d M) / 2^(96 + shift)), V M given by its columns."""
        word = columns[0].copy()
        for k, limb in enumerate(mul):
            if k:
                word >>= thirty_two
                word += columns[k]
            if d is not None:
                word += d * limb
        high = word >> thirty_two
        high += top
        high <<= left
        word &= _M32
        word >>= shift
        word |= high
        return word

    return [bound(_U64(1) + mm_shift), bound(_U64(3) + mm_shift), bound(None)]


def _shortest(mag):
    """(digits, exponent) with digits * 10^exponent the shortest decimal
    that reads back as each positive finite float64 of bit pattern ``mag``,
    the nearest such decimal on a tie of lengths (Ryū's d2d)."""
    t = _tables()
    biased = (mag >> _U64(52)).astype(np.intp)
    exponent = t.e10[biased]
    m2 = mag & _U64((1 << 52) - 1)
    mm_shift = ((m2 != 0) | (biased <= 1)).astype(np.uint64)
    m2 |= (biased != 0).astype(np.uint64) << _U64(52)
    accept = (m2 & _U64(1)) == 0
    vr, vp, vm = _scaled_bounds(m2, mm_shift, [b[biased] for b in t.mul], t.shift[biased])
    tz_mask = t.tz_mask[biased]
    vr_tz = ((m2 << _U64(2)) & tz_mask) == 0
    vm_tz = np.zeros(mag.shape, dtype=bool)

    # Bounds that may be multiples of 5^q (e2 >= 0, q <= 21) ...
    pow5 = t.pow5[biased]
    idx = np.flatnonzero(pow5)
    if idx.size:
        p, v, ok = pow5[idx], m2[idx] << _U64(2), accept[idx]
        by5 = v % _U64(5) == 0
        vr_tz[idx] = by5 & (v % p == 0)
        vm_tz[idx] = ~by5 & ok & ((v - _U64(1) - mm_shift[idx]) % p == 0)
        vp[idx] -= (~by5 & ~ok & ((v + _U64(2)) % p == 0)).astype(np.uint64)
    # ... and the exponents with q <= 1 (e2 < 0), where all are exact.
    idx = np.flatnonzero(tz_mask == 0)
    if idx.size:
        vm_tz[idx] = accept[idx] & (mm_shift[idx] == 1)
        vp[idx] -= (~accept[idx]).astype(np.uint64)
    del biased, m2, mm_shift, tz_mask, pow5

    # Ryū drops digits while vp // 10 > vm // 10: the largest count r with
    # vp // 10^r > vm // 10^r, found by halving steps.
    vm_exact = np.flatnonzero(vm_tz)
    vm_low = vm[vm_exact]
    removed = np.zeros(mag.shape, dtype=np.intp)
    for step in (16, 8, 4, 2, 1):
        high_p, high_m = vp // _POW10[step], vm // _POW10[step]
        more = high_p > high_m
        vp, vm = np.where(more, high_p, vp), np.where(more, high_m, vm)
        removed += more * step
    del vp, high_p, high_m, more

    # Where every digit dropped from vm is 0, Ryū goes on dropping vm's
    # trailing zeros.
    if vm_exact.size:
        vm_tz[vm_exact] = vm_low % _POW10[removed[vm_exact]] == 0
        idx = vm_exact[vm_tz[vm_exact]]
        v, r = vm[idx], removed[idx]
        for step in (16, 8, 4, 2, 1):
            high = v // _POW10[step]
            more = v == high * _POW10[step]
            v = np.where(more, high, v)
            r += more * step
        vm[idx], removed[idx] = v, r

    # The last digit dropped from vr rounds it up from 5; on an exact tie
    # (every digit below it 0) it rounds to even.
    below = _POW10[np.maximum(removed - 1, 0)]
    head = vr // below
    dropped = removed > 0
    exponent += removed
    del removed
    digits = np.where(dropped, head // _U64(10), vr)
    last = np.where(dropped, head - digits * _U64(10), _U64(0))
    idx = np.flatnonzero(vr_tz)
    if idx.size:
        tie = (head[idx] * below[idx] == vr[idx]) & (last[idx] == 5) & (digits[idx] % _U64(2) == 0)
        last[idx[tie]] = 4
    digits += ((digits == vm) & ~(accept & vm_tz)) | (last >= 5)
    return digits, exponent


def _groups(values, out) -> None:
    """ASCII of the last 4 * k decimal digits of uint64 ``values``,
    zero-padded, four digits per word of the (rows, k) uint32 array ``out``."""
    digits4 = _tables().digits4
    for k in range(out.shape[1] - 1, -1, -1):
        high = values // _POW10[4]
        out[:, k] = digits4[values - high * _POW10[4]]
        values = high


def _digit_count(values):
    return np.searchsorted(_POW10[1:], values, side="right") + 1


def _fill_float(col, chars):
    """Write a float column's cells into the (rows, _FLOAT_WORDS) uint32
    array ``chars``; return their keep words and a separator's."""
    mag = col.astype(np.float64).view(np.uint64)
    negative = mag >> _U64(63) != 0
    mag &= _U64((1 << 63) - 1)
    nonfinite = np.flatnonzero(mag >= _INF_BITS)
    nan = mag[nonfinite] > _INF_BITS
    zero = mag == 0
    # 1.0 stands in for the cells Ryū does not take.
    mag[zero] = _ONE_BITS
    mag[nonfinite] = _ONE_BITS
    digits, point = _shortest(mag)
    del mag
    digits[zero] = 0
    point[zero] = 0
    count = _digit_count(digits)
    point += count
    fixed = (point > -4) & (point <= 16)
    lead = np.where(fixed, point, 1)
    # Digits of ``digits`` after the point; below 0, zeros end the integer.
    after = count
    after -= np.maximum(lead, 0)
    shown = np.maximum(after, 0)
    cut = _POW10[shown]
    whole = digits // cut
    digits -= whole * cut
    digits *= _POW10[17 - shown]
    fraction = digits
    whole *= _POW10[shown - after]
    power = point
    power -= 1
    size = np.abs(power)
    code = np.where(fixed, 18 * (lead + 3) + np.maximum(after, 1),
                    _FLOAT_EXP + 2 * after + (size >= 100))
    code += _FLOAT_SIGNED * negative

    chars[:, 0] = _word(b"   -")
    _groups(whole, chars[:, 1:5])
    chars[:, 5] = _word(b".   ")
    _groups(fraction, chars[:, 6:11])
    chars[:, 11] = np.where(power < 0, _word(b"e-  "), _word(b"e+  "))
    _groups(size.astype(np.uint64), chars[:, 12:13])
    if nonfinite.size:
        code[nonfinite] = _FLOAT_NONFINITE + (negative[nonfinite] & ~nan)
        chars[nonfinite, 4] = np.where(nan, _word(b" nan"), _word(b" inf"))
    return _tables().float_keep[code]


def _fill_int(col, chars):
    """Write an integer column's cells into the (rows, _INT_WORDS) uint32
    array ``chars``; return their keep words and a separator's."""
    if col.dtype.kind == "u":
        mag, negative = col.astype(np.uint64), np.zeros(col.shape, dtype=bool)
    else:
        wide = col.astype(np.int64, copy=False)
        mag, negative = wide.view(np.uint64), wide < 0
    # Two's complement: the magnitude of -2^63 is 2^63.
    mag = np.where(negative, -mag, mag)
    chars[:, 0] = _word(b"   -")
    _groups(mag, chars[:, 1:])
    return _tables().int_keep[_digit_count(mag) + 21 * negative]


# Formatter and words per cell of each numeric kind.
_FILL = {"i": (_fill_int, _INT_WORDS), "u": (_fill_int, _INT_WORDS),
         "f": (_fill_float, _FLOAT_WORDS)}


def _text_words(col):
    """(chars, keep) uint32 words of a column of any other kind: the UTF-8
    bytes of each csv-quoted str, left-aligned in a whole number of words,
    then a separator word."""
    texts = [_csv_field(str(x)).encode("utf-8") for x in col.tolist()]
    lengths = np.fromiter(map(len, texts), dtype=np.intp, count=len(texts))
    width = 4 * -(-int(lengths.max(initial=0)) // 4) + 4
    chars = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)
    slots = np.arange(width)
    keep = (slots < lengths[:, None]) | (slots == width - 4)
    return chars.view(np.uint32), keep.view(np.uint32)


def encode_rows(columns) -> bytes:
    """CSV lines, each ended by \\r\\n, of the rows of 1-D numpy
    ``columns`` of equal length."""
    # The tables are built on the first call, which write_csv makes for the
    # header before it forks: its children share the parent's.
    _tables()
    if not columns:
        return b""
    rows = len(columns[0])
    columns = [np.where(col, "true", "false") if col.dtype.kind == "b" else col
               for col in columns]
    # A column of a kind without a formatter brings its text's words.
    texts = [None if col.dtype.kind in _FILL else _text_words(col) for col in columns]
    widths = [_FILL[col.dtype.kind][1] + 1 if text is None else text[0].shape[1]
              for col, text in zip(columns, texts)]
    chars = np.empty((rows, 4 * sum(widths)), dtype=np.uint8)
    keep = np.empty_like(chars, dtype=bool)
    chars32, keep32 = chars.view(np.uint32), keep.view(np.uint32)
    stop = 0
    for col, text, width in zip(columns, texts, widths):
        start, stop = stop, stop + width
        if text is None:
            keep32[:, start:stop] = _FILL[col.dtype.kind][0](col, chars32[:, start:stop - 1])
        else:
            chars32[:, start:stop], keep32[:, start:stop] = text
        chars32[:, stop - 1] = _word(b",\0\0\0")
    # The last separator ends the line.
    chars32[:, -1] = _word(b"\r\n\0\0")
    keep32[:, -1] = _word(b"\1\1\0\0")
    return chars[keep].tobytes()
