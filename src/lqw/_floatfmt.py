"""CSV text of numeric columns in bulk: ``repr`` of every float64, ``str`` of every int
within ±2^53.

The shortest decimal that reads back as the same float64 is found with the
Schubfach method (R. Giulietti, "The Schubfach way to render doubles", 2020),
as Java's ``Double.toString`` does, but with integer arithmetic on whole
uint64 arrays.  A float x = c·2^q rounds back from the interval R between the
midpoints to its neighbours, ends included when c is even.  For the k with
10^k ≤ 2^q < 10^(k+1) (≤ ¾·2^q where the lower neighbour is nearer), R is
less than ten units of 10^k wide, so it holds at most one multiple of 10·10^k:
if it holds one, that is the shortest decimal; otherwise the shortest is
whichever of the integers s, s + 1 around x/10^k lies in R, the nearer when
both do, ties to even.  x/10^k and the ends of R come to a quarter unit,
rounded to odd, from one 126-bit g(k) ≈ 10^−k·2^r per k (Java's ``rop``).
Java keeps two digits where c < 3; without that rule the same steps give
``repr`` for every subnormal.

The text is built in uint64 "words" of eight bytes, the first in the low
byte, NUL where a cell has no character; a block's words, row by row, with
the NULs deleted, are its CSV lines.  A cell takes four words, the last
ending in its separator.  A float has its sign and the "0.000" of 0.000ddd
in bytes 0-5, its digits with the point from byte 6 and its exponent in
bytes 25-29: positional for a decimal exponent E with −4 ≤ E < 16, else
``d.ddde-05`` or ``1e+16``, and ``0.0``, ``-0.0``, ``inf``, ``-inf``,
``nan``, as ``repr`` writes them.  An int within ±2^53 is exact as a float64,
and ``repr`` of it is its ``str`` and ".0": it goes through the same steps,
and only its layout differs, its E + 1 digits shown and no point.  A
formatter allocates its words and _WORK_ROWS work arrays once; every step
writes into them, never into a numpy scalar.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_numeric", "BlockFormatter"]

_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the g(k) table
_M32 = (1 << 32) - 1
_M52 = (1 << 52) - 1
_M63 = (1 << 63) - 1
_WORK_ROWS = 12  # uint64 values of work per number of a block


def _field_tables() -> np.ndarray:
    """Per exponent field, then again for c = 2^52: k, h + 2, the hidden bit of c·2^(h+2),
    g0, g1, and A_lo, B, A_hi for the lower and for the upper end of R.

    g(k) = floor(10^−k·2^r) + 1 in [2^125, 2^126), r = 125 − floor(−k·log2 10), is
    g1·2^63 + g0.  With cp = 4c·2^h, W(cp) = floor(g1·cp/2) + floor(g0·cp/2^64) =
    hi·2^63 + lo (Java's rop before rounding) and low = g0·cp mod 2^64, an end of
    R is W(cp ± 2^j) = W(cp) + A_hi·2^63 + A_lo + (low ≥ B), modulo 2^127.
    """
    g, power = [], 10 ** -_K_MIN  # 10^|k|
    for k in range(_K_MIN, _K_MAX + 1):
        r = 125 - ((-k * 913124641741) >> 38)  # Java's flog2pow10
        g.append((power << max(r, 0) >> max(-r, 0) if k <= 0 else (1 << r) // power) + 1)
        power = power // 10 if k < 0 else power * 10
    field = np.tile(np.arange(2048), 2)
    q = np.maximum(field, 1) - 1075
    # c = 2^52 above the least exponent: the lower neighbour is half as far
    irregular = (np.arange(4096) >= 2048) & (field > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # 2..5
    g1 = np.array([v >> 63 for v in g], np.uint64)[k - _K_MIN]
    g0 = np.array([v & _M63 for v in g], np.uint64)[k - _K_MIN]
    j = h + 1 - irregular  # the lower end is cp − 2^j, the upper cp + 2^(h+1)
    lower = ((g1 << (j - 1)) & _M63) + (g0 >> (64 - j))
    # g0·2^(h+1) mod 2^64 is never 0: the carry of low plus it is low ≥ its negative
    return np.array([k.astype(np.uint64), h + 2, (field > 0).astype(np.uint64) << (h + 54),
                     g0, g1, ~lower & _M63, ((g1 << h) & _M63) + (g0 >> (63 - h)),
                     g0 << j, -(g0 << (h + 1)), -(g1 >> (64 - j)) - (lower >> 63) - 1,
                     g1 >> (63 - h)])


def _text_word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _digit_table() -> np.ndarray:
    """The four ASCII digits of 0..9999 in the low half of a word, and in the high half
    the place of the last digit that is not 0, −64 for 0, so that over a number's groups
    the greatest word holds its count of significant digits."""
    digit = np.arange(48, 58, dtype=np.uint64)
    digits = (digit[:, None, None, None] + (digit[:, None, None] << 8)
              + (digit[:, None] << 16) + (digit << 24)).ravel()
    group = np.arange(10000)
    last = 4 - sum(group % 10**z == 0 for z in (1, 2, 3))
    return digits + (np.where(group == 0, -64, last).astype(np.uint64) << 32)


def _first(m) -> np.ndarray:
    """Three words per count m, all ones in their first m bytes."""
    return (1 << np.clip(8 * m - np.array([[0], [64], [128]]), 0, 64).astype(np.uint64)) - 1


def _layout_table() -> np.ndarray:
    """Per kind (float, int), sign, E clipped to −5..16 and n significant digits: the masks
    of the digits shown and of those before the point, the point, and the sign and "0.000"
    prefix.  An int shows its E + 1 digits and no point."""
    integer, _, e, n = (a.ravel() for a in np.meshgrid(
        range(2), range(2), range(-5, 17), range(18), indexing="ij"))
    wide, small = (e >= 0) & (e < 16) & ~integer, (e > -5) & (e < 0)
    shown = np.where(integer, e + 1, np.where(wide, np.maximum(n, e + 2), n))
    point = np.where(wide, e + 1, np.where((n > 1) & ~small & ~integer, 1, 18))
    dot = _first(np.minimum(point + 1, 18)) ^ _first(point)  # byte point, none for 18
    masks = np.vstack([_first(shown), _first(np.minimum(point, shown)),
                       dot & np.uint64(_text_word(b"." * 8))])
    prefix = [b"-" * s + b"0.000"[:(1 - x) * (-5 < x < 0 and not i)]
              for i in range(2) for s in range(2) for x in range(-5, 17)]
    prefix = np.array([_text_word(p) << 8 * (6 - len(p)) for p in prefix], np.uint64)
    return np.vstack([masks, np.repeat(prefix, 18)])


_BY_FIELD = _field_tables()
_TRAILING = _digit_table()
_LAYOUT = _layout_table()
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
# at index E + 400: "e-05", "e+16", "e-324" for E outside −4..15, ending in byte 5,
# and (min(max(E, −5), 16) + 5)·18, E's part of a column of _LAYOUT
_E = np.arange(-400, 400)
_BY_E = (np.clip(_E, -5, 16) + 5) * 18
_SHIFT = np.where(abs(_E) < 100, 16, 8).astype(np.uint64)  # two digits or three
_EXPONENT = ((ord("e") | np.where(_E < 0, ord("-"), ord("+")).astype(np.uint64) << 8
              | (_TRAILING[abs(_E)] & _M32) >> _SHIFT << 16) << _SHIFT) * ((_E < -4) | (_E >= 16))
# the place of each group of four digits among a number's 17, by the group's row: its
# first 16 digits and then its 17th
_PLACES = np.array([[0], [4], [8], [12], [13]], np.uint64) << 32
_INF, _MINUS_INF, _NAN = _text_word(b"inf"), _text_word(b"-inf"), _text_word(b"nan")


def is_numeric(column) -> bool:
    """True for a column this module formats: a float64 array, or an integer array whose
    values all lie within ±2^53, where each is exact as a float64."""
    return isinstance(column, np.ndarray) and (column.dtype == np.float64 or (
        column.dtype.kind in "iu" and -2**53 <= column.min(initial=0)
        and column.max(initial=0) <= 2**53))


def _shortest(w) -> None:
    """The shortest round-trip f·10^k of each float in w[0], the nearest of those, f into
    w[6] and k (int64) into w[1]; zeros, infinities and NaNs get numbers to replace."""
    bits, i, bl, bh, g, t2, p, y = w[0], w[1], w[2], w[3], w[4:6], w[6:8], w[8:10], w[10:12]
    np.bitwise_and(np.right_shift(bits, 52, out=bh), 0x7FF, out=bh)
    np.equal(np.bitwise_and(bits, _M52, out=bl), 0, out=i)
    np.add(np.left_shift(i, 11, out=i), bh, out=i)  # _BY_FIELD's column: the field, c = 2^52
    index = i.view(np.int64)
    _BY_FIELD[1:3].take(index, axis=1, out=g, mode="clip")
    np.bitwise_or(np.left_shift(bl, g[0], out=bl), g[1], out=bl)  # cp = 4c·2^h < 2^60
    _BY_FIELD[3:5].take(index, axis=1, out=g, mode="clip")
    np.multiply(g, bl, out=y)  # the low words of g0·cp and g1·cp
    np.right_shift(bl, 32, out=bh)
    bl &= _M32
    # p = floor(g·cp/2^64) from 32-bit halves: below 2^32 + 2^60 + 2^63 before the last shift
    np.right_shift(g, 32, out=t2)
    g &= _M32
    np.right_shift(np.multiply(g, bl, out=p), 32, out=p)
    p += np.multiply(g, bh, out=g)
    p += np.multiply(t2, bl, out=g)
    p >>= 32
    p += np.multiply(t2, bh, out=t2)
    lo, hi, low = y[1], p[1], y[0]
    np.add(np.right_shift(lo, 1, out=lo), p[0], out=lo)
    hi += np.right_shift(lo, 63, out=p[0])
    lo &= _M63  # W(cp) = hi·2^63 + lo
    ends, u = w[2:4], g  # the lower and the upper end of R, rounded to odd
    np.add(_BY_FIELD[5:7].take(index, axis=1, out=u, mode="clip"), lo, out=u)
    u += np.greater_equal(low, _BY_FIELD[7:9].take(index, axis=1, out=t2, mode="clip"), out=t2)
    np.add(_BY_FIELD[9:11].take(index, axis=1, out=ends, mode="clip"), hi, out=ends)
    ends += np.right_shift(u, 63, out=t2)
    ends |= np.not_equal(np.bitwise_and(u, _M63, out=u), 0, out=u)
    hi |= np.not_equal(lo, 0, out=lo)  # x/10^k in quarter units, rounded to odd
    _BY_FIELD[0].take(index, out=i, mode="clip")

    below, above, t, s, x = w[2], w[3], w[10], w[6], w[7]
    np.bitwise_and(bits, 1, out=t)
    below += t  # 4·d lies in R iff below <= 4·d <= above
    above -= t
    np.left_shift(np.right_shift(hi, 2, out=s), 2, out=t)
    np.greater(below, t, out=x)  # s lies below R: s + 1
    np.less_equal(np.add(t, 4, out=t), above, out=t)  # s + 1 lies in R, and is nearer or
    np.right_shift(0xC8, np.bitwise_and(hi, 7, out=hi), out=hi)  # as near with s odd
    x |= np.bitwise_and(hi, t, out=hi)
    s += x
    flag = w[4].view(np.bool_)[:len(bits)]  # the greatest multiple of ten not above R
    np.greater_equal(np.multiply(np.floor_divide(above, 40, out=above), 40, out=t), below,
                     out=flag)  # ... lies in R
    np.copyto(s, np.multiply(above, 10, out=above), where=flag)


def _sixteen(v, g, words, count) -> None:
    """Each v < 10^16 as two words of eight ASCII digits, the groups of four digits in g
    and a fifth in g[4] looked up in _TRAILING, and the number's digit count in count."""
    np.floor_divide(v, 10**8, out=g[1])
    np.subtract(v, np.multiply(g[1], 10**8, out=g[3]), out=g[3])
    np.floor_divide(g[1:4:2], 10**4, out=g[0:4:2])
    g[1:4:2] -= np.multiply(g[0:4:2], 10**4, out=words)
    _TRAILING.take(g.view(np.int64), out=g, mode="clip")
    g += _PLACES
    np.right_shift(np.maximum.reduce(g.view(np.int64), out=count), 32, out=count)
    g[1:4:2] <<= 32
    np.bitwise_or(np.bitwise_and(g[0:4:2], _M32, out=words), g[1:4:2], out=words)


def _float_text(w, columns, ints):
    """The four words of ``repr`` of each float64, and of ``str`` of each value of the
    first ``ints`` columns, ints within ±2^53, the separator to come."""
    bits, e, t, f = w[0], w[1].view(np.int64), w[2], w[6]
    n, g, d = t.view(np.int64), w[3:8], w[8:12]
    np.concatenate(columns, out=bits.view(np.float64))  # casts an int column exactly
    _shortest(w)
    flag = w[3].view(np.bool_)[:len(bits)]
    np.less(np.left_shift(bits, 1, out=t), 1 << 53, out=flag)  # zeros and subnormals
    if flag.any():
        tiny = np.flatnonzero(flag)
        digits = np.searchsorted(_POW10[1:18], f[tiny], side="right") + 1
        zero = t[tiny] == 0
        f[tiny] = f[tiny] * _POW10[17 - digits] * ~zero
        e[tiny] = np.where(zero, -15, e[tiny] + digits - 17)
    e += 16
    e -= np.less(f, 10**16, out=t).view(np.int64)  # E, the decimal exponent of the first digit
    f *= np.add(np.multiply(t, 9, out=t), 1, out=t)  # 17 digits, the first at 10^16
    np.floor_divide(f, 10, out=g[0])
    np.subtract(f, np.multiply(g[0], 10, out=g[4]), out=g[4])  # the 17th digit
    _sixteen(g[0], g, d[:2], n)
    np.right_shift(np.bitwise_and(g[4], _M32, out=d[2]), 24, out=d[2])

    x, mask, two = w[3].view(np.int64), w[4:7], w[2:8:5]
    _BY_E.take(np.add(e, 400, out=e), out=x, mode="clip")
    x += np.maximum(n, 0, out=n)
    x += np.multiply(np.right_shift(bits, 63, out=t), 396, out=t).view(np.int64)
    x[:ints * len(columns[0])] += 792  # an int's layout
    d[:3] &= _LAYOUT[0:3].take(x, axis=1, out=mask, mode="clip")  # the digits shown
    np.bitwise_and(_LAYOUT[3:6].take(x, axis=1, out=mask, mode="clip"), d[:3], out=mask)
    d[:3] ^= mask  # those before the point stay, those after it move a byte up
    np.right_shift(d[:2], 56, out=two)
    d[:3] <<= 8
    d[1:3] |= two
    d[:3] |= mask
    d[:3] |= _LAYOUT[6:9].take(x, axis=1, out=mask, mode="clip")  # the point
    np.right_shift(d[:2], 16, out=two)  # and all move to byte 6, after the prefix
    d[:3] <<= 48
    d[1:3] |= two
    d[0] |= _LAYOUT[9].take(x, out=x.view(np.uint64), mode="clip")
    _EXPONENT.take(e, out=d[3], mode="clip")
    if np.greater_equal(np.left_shift(bits, 1, out=t), 0x7FF << 53, out=flag).any():
        special = np.flatnonzero(flag)  # inf, -inf and nan have their own text
        d[:, special] = 0
        d[0, special] = np.where(t[special] > 0x7FF << 53, _NAN,
                                 np.where(bits[special] >> 63 != 0, _MINUS_INF, _INF))
    return d


class BlockFormatter:
    """The CSV lines of blocks of at most ``rows`` rows of these numeric columns; each
    call fills the same work arrays and words, allocated here."""

    def __init__(self, columns, rows: int):
        # the int columns first, so that their values lead the work arrays
        self._order = sorted(range(len(columns)), key=lambda i: columns[i].dtype.kind == "f")
        self._ints = sum(col.dtype.kind != "f" for col in columns)
        ends = np.array([_text_word(b",") << 56] * (len(columns) - 1)
                        + [_text_word(b"\r\n") << 48], np.uint64)
        self._ends = ends[self._order, None]
        self._work = np.empty(_WORK_ROWS * len(columns) * rows, np.uint64)
        self._text = bytearray(32 * len(columns) * rows)
        self._cells = np.frombuffer(self._text, np.uint64).reshape(rows, len(columns), 4)

    def __call__(self, block) -> str:
        rows, count = len(block[0]), len(block)
        self._cells[rows:] = 0
        work = self._work[:_WORK_ROWS * count * rows].reshape(_WORK_ROWS, -1)
        words = _float_text(work, [block[i] for i in self._order], self._ints)
        words[3].reshape(count, rows)[:] |= self._ends
        self._cells[:rows, self._order] = words.reshape(4, count, rows).transpose(2, 1, 0)
        return self._text.translate(None, b"\0").decode("ascii")
