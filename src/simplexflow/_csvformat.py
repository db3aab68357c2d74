"""CSV text of a float table in NumPy, byte for byte what '%.17g' gives.

``format_table`` writes each |x| in [1e-30, 1e31) as 17 digits
D = round(|x| * 10^(16 - e)), with the decimal exponent e chosen so that the
scaled value lies in [1e16, 1e17).  The product is exact enough to round
correctly: 10^p is held as hi + lo (lo the rounded remainder) and a * hi is
split exactly by Dekker's algorithm.  The digits come from base-100 pairs and
are laid out by per-case byte tables.  Every other value (zero, inf, nan, the
very small and the very large), and every value whose scaled value lies
within 1e-6 of a rounding tie, is formatted by '%.17g' itself.

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

# One cell of _CELL bytes per value; NUL bytes are dropped on output.
#   0: '-' or NUL;  1-5: "0." and up to three zeros, for 1e-4 <= |x| < 1;
#   6-23: the region, which holds the 18 characters "0" + 17 digits, shifted
#         so that the decimal point falls between two of them;
#   24-27: "e+XX" in exponent notation;  28: ',' or '\n'.
# The layout of a cell depends only on its case: 18 * notation + t, where t
# is the number of digits up to the last nonzero one and notation is e + 4
# for fixed notation (-4 <= e <= 16), or 21 for exponent notation, which is
# laid out like e = 0.
_CELL = 29
_REGION = 6
_PAIR_CHARS = np.frombuffer(b"".join(b"%02d" % p for p in range(100)), "<u2")
# Per exponent e from _E_MIN: the notation number of the case, and the bytes
# 24-27 of the cell ("e+XX", or NUL in fixed notation).
_NOTATION = np.array([e + 4 if -4 <= e < 17 else 21 for e in range(_E_MIN, _E_MAX + 1)])
_EXP_CHARS = np.frombuffer(b"".join(b"\0" * 4 if -4 <= e < 17 else b"e%+03d" % e
                                    for e in range(_E_MIN, _E_MAX + 1)), np.uint8).reshape(-1, 4)


def _cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per case: the constant bytes of a cell, and the masks that keep digit
    k (A) or digit k - 1 (B) at region position k.  Per pair k of the nine
    and pair value: t if that pair holds the last nonzero digit."""
    template, keep_a, keep_b = (bytearray(22 * 18 * _CELL) for _ in range(3))
    for case in range(22 * 18):
        notation, t = divmod(case, 18)
        e = notation - 4 if notation < 21 else 0
        row = case * _CELL
        region = row + _REGION
        if e < 0:
            template[row + 1:row + 2 - e] = b"0." + b"0" * (-1 - e)
            keep_a[region:region + t] = b"\xff" * t
        else:
            keep_a[region:region + e + 1] = b"\xff" * (e + 1)
            if t > e + 1:
                template[region + e + 1] = ord(".")
                keep_b[region + e + 2:region + t + 1] = b"\xff" * (t - e - 1)
    last = bytes(0 if p == 0 else 2 * k + (p % 10 != 0) for k in range(9) for p in range(100))
    cells = (np.frombuffer(bytes(table), np.uint8).reshape(-1, _CELL) for table in (template, keep_a, keep_b))
    return (*cells, np.frombuffer(last, np.int8).reshape(9, 100))


_CELL_TEMPLATE, _KEEP_A, _KEEP_B, _PAIR_LAST = _cell_tables()


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


def format_table(table: np.ndarray) -> bytes:
    """CSV text of a 2-d float table: '%.17g' of each value, ',' between
    values and '\\n' after each row."""
    rows, cols = table.shape
    x = table.ravel()
    a = np.abs(x)
    fast = (a >= 1e-30) & (a < 1e31)
    a[~fast] = 1.0  # a placeholder; '%.17g' writes these values below
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
    # The 18 characters go to the region as nine base-100 pairs, the last
    # four from the low eight digits, the first five from the high nine.
    shifted = np.zeros(x.size * _CELL + 1, np.uint8)
    chars = shifted[:-1].reshape(x.size, _CELL)
    pairs = chars[:, _REGION:_REGION + 18].view("<u2")
    t = np.zeros(x.size, np.int8)
    upper = digits // 100000000
    rest = digits - upper * 100000000
    for k in range(8, -1, -1):
        if k == 4:
            rest = upper
        pair = rest
        if k:
            rest = pair // 100
            pair = pair - 100 * rest
        pairs[:, k] = _PAIR_CHARS.take(pair)
        np.maximum(t, _PAIR_LAST[k].take(pair), out=t)
    e -= _E_MIN  # from here on, the row of e in the per-exponent tables
    case = _NOTATION.take(e) * 18 + t
    cells = _CELL_TEMPLATE.take(case, axis=0)
    flat = cells.ravel()
    # Region position k takes digit k from shifted[1:], digit k - 1 from shifted[:-1].
    for source, keep in ((shifted[1:], _KEEP_A), (shifted[:-1], _KEEP_B)):
        mask = keep.take(case, axis=0).ravel()
        mask &= source
        flat |= mask
    cells[:, 24:28] = _EXP_CHARS.take(e, axis=0)
    cells[:, 0] = np.where(x < 0.0, ord("-"), 0)
    for i in np.flatnonzero(~fast):
        text = b"%.17g" % float(x[i])
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text, np.uint8)
    grid = cells.reshape(rows, cols, _CELL)
    grid[:, :-1, -1] = ord(",")
    grid[:, -1, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")
