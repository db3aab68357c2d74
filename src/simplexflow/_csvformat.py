"""CSV text of a float table in NumPy, byte for byte what '%.17g' gives.

``format_table`` writes each |x| in [1e-30, 1e31) as 17 digits
D = round(|x| * 10^(16 - e)), with the decimal exponent e chosen so that the
scaled value lies in [1e16, 1e17).  The product is exact enough to round
correctly: 10^p is held as hi + lo (lo the rounded remainder) and a * hi is
split exactly by Dekker's algorithm.  Every other value (zero, inf, nan, the
very small and the very large), and every value whose scaled value lies
within 1e-6 of a rounding tie, is formatted by '%.17g' itself.

Each value gets a cell of _CELL bytes, whose NUL bytes are dropped on
output.  D is split once into its leading digit and four groups of four,
whose characters come from a "%04d" table; per-group tables give t, the
number of digits up to the last nonzero one.  The case (e, t) then picks
one template row per sign, which already holds the sign, the "0.000"
prefix, the decimal point, "e+XX" and the trailing ','; and two sign-free
masks, which keep each digit shown at its place or one place to the right
of it, past the decimal point.

The tables are built from Python ints and bytes: importing the module runs
no NumPy kernel, since the first use of each one adds to resident memory.
"""

from __future__ import annotations

import numpy as np

# Exponents of |x| in [1e-30, 1e31), with room for two corrections of the estimate.
_E_MIN, _E_MAX = -33, 33


def _pow10_pairs() -> np.ndarray:
    """Rows hi, lo, and the Dekker halves of hi, of 10^p for p = 16 - e,
    e = _E_MAX down to _E_MIN."""
    pairs = []
    for p in range(16 - _E_MAX, 16 - _E_MIN + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den  # correctly rounded, as is every int / int below
        a, b = hi.as_integer_ratio()
        split = hi * 134217729.0  # 2^27 + 1: hi_hi keeps the top 26 bits
        hi_hi = split - (split - hi)
        pairs.append((hi, (num * b - a * den) / (den * b), hi_hi, hi - hi_hi))
    return np.array(pairs).T.copy()


_POW10 = _pow10_pairs()

# One cell of _CELL bytes per value:
#   0: '-' or NUL;  1-5: "0." and up to three zeros, for 1e-4 <= |x| < 1;
#   6-23: the region, which holds the 17 digits and the decimal point;
#   24-27: "e+XX" in exponent notation;  28: ',' (or '\n' at the end of a row).
# The digits are first laid out in the region of a work cell, the leading
# one at position 0 and four groups of four at positions 1-16.  The case of
# a value is 17 * (e - _E_MIN) + t - 1; fixed notation (-4 <= e <= 16) puts
# the decimal point after digit e, exponent notation after digit 0.
_CELL = 29
_REGION = 6
_CASES = (_E_MAX - _E_MIN + 1) * 17


def _span(start: int, stop: int) -> bytes:
    """A mask row that keeps cell positions start .. stop - 1."""
    return bytes(start) + b"\xff" * (stop - start) + bytes(_CELL - max(start, stop))


def _cell_tables() -> tuple[np.ndarray, ...]:
    """Template rows per case, unsigned then signed; the masks per case that
    keep digit k (A) or digit k - 1 (B) at region position k; the "%04d"
    characters of 0-9999; and per group k of the four and group value,
    t - 1 if that group holds the last nonzero digit, else 0."""
    # The masks for t = 1 .. 17 per place of the decimal point, after digit
    # q = -4 .. 16 in fixed notation; exponent notation is laid out as q = 0.
    masks = {}
    for q in range(-4, 17):
        if q < 0:
            masks[q] = (b"".join(_span(_REGION, _REGION + t) for t in range(1, 18)), bytes(17 * _CELL))
        else:
            start = _REGION + q + 2
            masks[q] = (_span(_REGION, start - 1) * 17,
                        b"".join(_span(start, _REGION + t + 1) for t in range(1, 18)))
    templates, keep_a, keep_b = [], [], []
    for e in range(_E_MIN, _E_MAX + 1):
        fixed = -4 <= e <= 16
        q = e if fixed else 0
        end = b"," if fixed else b"e%+03d," % e
        if q < 0:
            prefix = b"\0" + b"0." + b"0" * (-1 - q)
            templates.append((prefix + bytes(_CELL - len(prefix) - len(end)) + end) * 17)
        else:
            plain = bytes(_CELL - len(end)) + end
            point = _REGION + q + 1
            templates.append(plain * (q + 1) + (plain[:point] + b"." + plain[point + 1:]) * (16 - q))
        keep_a.append(masks[q][0])
        keep_b.append(masks[q][1])
    template = bytearray(b"".join(templates) * 2)
    template[_CASES * _CELL::_CELL] = b"-" * _CASES
    pairs = [b"%02d" % p for p in range(100)]
    quads = b"".join(pair + pair.join(pairs) for pair in pairs)
    # Digits up to the last nonzero one in "%02d" of 0-99, then in "%04d" of
    # 0-9999; group k follows 4k + 1 digits, so a nonzero count j gives t - 1 = j + 4k.
    last2 = bytes(0 if p == 0 else 1 + (p % 10 != 0) for p in range(100))
    tail = bytes(last + 2 for last in last2[1:])
    last4 = b"".join(bytes((last,)) + tail for last in last2)
    group_last = b"".join(last4.translate(bytes((0, *range(4 * k + 1, 4 * k + 5))).ljust(256, b"\0"))
                          for k in range(4))
    cells = (np.frombuffer(bytes(table), np.uint8).reshape(-1, _CELL)
             for table in (template, b"".join(keep_a), b"".join(keep_b)))
    return (*cells, np.frombuffer(quads, "<u4"), np.frombuffer(group_last, np.int8).reshape(4, 10000))


_TEMPLATE, _KEEP_A, _KEEP_B, _QUAD_CHARS, _GROUP_LAST = _cell_tables()


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - e) as s + err, |err| <= ulp(s) / 2: Dekker's exact
    product a * hi plus a * lo, accurate to far better than 1e-6."""
    hi, lo, hi_hi, hi_lo = _POW10.take(_E_MAX - e, axis=1)
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    head = a * hi
    tail = ((a_hi * hi_hi - head) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo + a * lo
    s = head + tail
    return s, tail - (s - head)


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, e, fast): the 17 digits D and decimal exponent e of each |x|, and
    whether the fast path formats it."""
    a = np.abs(x)
    fast = (a >= 1e-30) & (a < 1e31)
    a[~fast] = 1.0  # a placeholder; format_table writes these with '%.17g'
    # The exponent is settled on the unrounded scaled value; rounding up to
    # 1e17 then carries into it.
    e = np.floor(np.log10(a)).astype(np.int64)
    for _ in range(2):
        s, err = _scaled(a, e)
        high = (s > 1e17) | ((s == 1e17) & (err >= 0.0))
        low = (s < 1e16) | ((s == 1e16) & (err < 0.0))
        off = high | low
        if not off.any():
            break
        e += high
        e -= low
    fast &= ~off
    floor = np.floor(err)
    frac = err - floor
    fast &= np.abs(frac - 0.5) >= 1e-6
    digits = s.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = digits // 10**17  # 1 where the digits rounded up to 10^17
    digits -= carry * (10**17 - 10**16)
    e += carry
    return digits, e, fast


def _cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells of the values x, and whether the fast path formats each."""
    digits, e, fast = _digits(x)
    # The leading digit, then the other 16 as four groups of four.
    shifted = np.zeros(x.size * _CELL + 1, np.uint8)
    chars = shifted[1:].reshape(x.size, _CELL)
    quads = chars[:, _REGION + 1:_REGION + 17].view("<u4")
    high = digits // 10**8
    low = digits - high * 10**8
    lead = high // 10**8
    chars[:, _REGION] = lead + ord("0")
    high -= lead * 10**8
    upper, lower = high // 10**4, low // 10**4
    t = np.zeros(x.size, np.int8)
    for k, group in enumerate((upper, high - upper * 10**4, lower, low - lower * 10**4)):
        quads[:, k] = _QUAD_CHARS.take(group)
        np.maximum(t, _GROUP_LAST[k].take(group), out=t)
    case = (e - _E_MIN) * 17
    case += t
    cells = _TEMPLATE.take(case + (x < 0.0) * _CASES, axis=0)
    flat = cells.ravel()
    # Region position k takes digit k from shifted[1:], digit k - 1 from shifted[:-1].
    for source, keep in ((shifted[1:], _KEEP_A), (shifted[:-1], _KEEP_B)):
        mask = keep.take(case, axis=0).ravel()
        mask &= source
        flat |= mask
    return cells, fast


def format_table(table: np.ndarray) -> bytes:
    """CSV text of a 2-d float table: '%.17g' of each value, ',' between
    values and '\\n' after each row."""
    rows, cols = table.shape
    x = table.ravel()
    cells, fast = _cells(x)
    for i in np.flatnonzero(~fast):
        text = b"%.17g" % float(x[i])
        cells[i, :-1] = 0
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    cells.reshape(rows, cols, _CELL)[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")
