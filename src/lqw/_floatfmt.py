"""CSV text of numeric columns in bulk: ``repr`` of every float64, ``str`` of every int.

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

The text is built eight bytes at a time, each byte in a uint64 "word", the
first in the low byte, NUL where a cell's text has no character.  A float
takes seven words: its sign, 16 digits before the point (right-aligned), the
point with up to three zeros of 0.000ddd and the first digit after them, 16
more digits (left-aligned) and the exponent.  Positional for a decimal
exponent E with −4 ≤ E < 16 (``123.0``, ``0.0001``), else ``d.ddde-05`` or
``1e+16``, and ``0.0``, ``-0.0``, ``inf``, ``-inf``, ``nan``, as ``repr``
writes them.  An integer takes four: its sign and 20 digits.  The words of a
block, row by row, with the NULs deleted, are its CSV lines.  Only array
arithmetic is used, never a numpy scalar that could overflow.
"""

from __future__ import annotations

import numpy as np

__all__ = ["is_numeric", "BlockFormatter"]

_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the g(k) table
_M32 = (1 << 32) - 1
_M52 = (1 << 52) - 1
_M63 = (1 << 63) - 1


def _flog2pow10(e: int) -> int:
    """floor(e·log2 10), exact for |e| ≤ 1233 (Java's MathUtils)."""
    return (e * 913124641741) >> 38


def _g_table() -> tuple[np.ndarray, np.ndarray]:
    """g(k) = floor(10^−k·2^(125 − floor(−k·log2 10))) + 1 in [2^125, 2^126), per k.

    As g1 = g >> 63 and g0 = g mod 2^63, each indexed by k − _K_MIN.
    """
    g = []
    power = 10 ** -_K_MIN
    for k in range(_K_MIN, 1):  # 10^−k, an integer, shifted to 126 bits
        shift = 125 - _flog2pow10(-k)
        g.append((power << shift if shift >= 0 else power >> -shift) + 1)
        power //= 10
    power = 10
    for k in range(1, _K_MAX + 1):
        g.append((1 << (125 - _flog2pow10(-k))) // power + 1)
        power *= 10
    return (np.array([v >> 63 for v in g], np.uint64),
            np.array([v & _M63 for v in g], np.uint64))


def _field_tables() -> list[np.ndarray]:
    """k, h, g1(k), g0(k) and the spacing flag per exponent field, then again for c = 2^52."""
    field = np.tile(np.arange(2048), 2)
    q = np.maximum(field, 1) - 1075
    # c = 2^52 above the least exponent: the lower neighbour is half as far
    irregular = (np.arange(4096) >= 2048) & (field > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # 2..5
    g1, g0 = _g_table()
    return [k, h, g1[k - _K_MIN], g0[k - _K_MIN], irregular.astype(np.uint64)]


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 in the low half of a word, and their trailing zeros."""
    digit = np.arange(48, 58, dtype=np.uint64)
    digits = (digit[:, None, None, None] + (digit[:, None, None] << 8)
              + (digit[:, None] << 16) + (digit << 24))
    zeros = np.zeros((10, 10, 10, 10), np.intp)
    zeros[..., 0] += 1
    zeros[..., 0, 0] += 1
    zeros[:, 0, 0, 0] += 1
    zeros[0, 0, 0, 0] += 1
    return digits.ravel(), zeros.ravel()


def _text_word(text: bytes) -> int:
    return int.from_bytes(text, "little")


_BY_FIELD = _field_tables()
_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_DIGITS4, _ZEROS4 = _digit_tables()
# masks that keep the first (last) m bytes of a word, at index m + 16, m clipped to 0..8
_KEPT = [min(max(m, 0), 8) for m in range(-16, 25)]
_KEEP_FIRST = np.array([(1 << 8 * m) - 1 for m in _KEPT], np.uint64)
_KEEP_LAST = np.array([(1 << 64) - (1 << 64 - 8 * m) for m in _KEPT], np.uint64)
# "e-05", "e+16", "e-324" for each decimal exponent E, at index E + 400
_E = np.arange(-400, 400)
_EXPONENT = (ord("e") | np.where(_E < 0, ord("-"), ord("+")).astype(np.uint64) << 8
             | _DIGITS4[abs(_E)] >> np.where(abs(_E) < 100, 16, 8).astype(np.uint64) << 16)
_MINUS = _text_word(b"-") << 56
_POINT_ZEROS = _text_word(b".000")
_INF, _NAN = _text_word(b"inf"), _text_word(b"nan")


def is_numeric(column) -> bool:
    """True for a column this module formats: a float64 or integer array."""
    return isinstance(column, np.ndarray) and (
        column.dtype == np.float64 or column.dtype.kind in "iu")


def _digits16(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each v < 10^16 as two words of eight ASCII digits, and its four 4-digit groups."""
    groups = np.empty((4, len(v)), np.uint64)
    high = v // 10**8
    for i, half in ((0, high), (2, v - high * 10**8)):
        np.floor_divide(half, 10**4, out=groups[i])
        np.subtract(half, groups[i] * 10**4, out=groups[i + 1])
    digits = _DIGITS4[groups.view(np.int64)]
    return digits[0] | (digits[1] << 32), digits[2] | (digits[3] << 32), groups


def _mulhi(a_hi, a_lo, b_hi, b_lo) -> np.ndarray:
    """floor(a·b / 2^64) from the 32-bit halves of a and b."""
    lo_lo, hi_lo, lo_hi = a_lo * b_lo, a_hi * b_lo, a_lo * b_hi
    mid = (lo_lo >> 32) + (hi_lo & _M32) + (lo_hi & _M32)
    return a_hi * b_hi + (hi_lo >> 32) + (lo_hi >> 32) + (mid >> 32)


def _shortest(bits: np.ndarray, field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest round-trip f·10^k of each finite nonzero float, the nearest of those.

    Zeros, infinities and NaNs come out as numbers that the caller replaces.
    """
    c = bits & _M52
    k, h, g1, g0, irregular = (np.take(table, field + (c == 0) * 2048) for table in _BY_FIELD)
    c |= (field != 0).astype(np.uint64) << 52

    # Java's rop for cp = 4c·2^h: W = floor(g1·cp/2) + floor(g0·cp/2^64)
    # = hi·2^63 + lo, and vb is hi with a sticky bit for lo != 0
    cp = c << (h + 2)
    cp_hi, cp_lo = cp >> 32, cp & _M32
    z = ((g1 * cp) >> 1) + _mulhi(g0 >> 32, g0 & _M32, cp_hi, cp_lo)
    hi = _mulhi(g1 >> 32, g1 & _M32, cp_hi, cp_lo) + (z >> 63)
    lo = z & _M63
    del z, cp_hi, cp_lo  # few block-sized arrays alive at once keep a block small
    vb = hi | (lo != 0)
    # the same for cp ± 2^j: W ± (g1·2^(j−1) + floor(g0·2^j/2^64) + carry)
    low = g0 * cp  # the low 64 bits of g0·cp
    del cp
    j = h + 1
    up = lo + ((g1 << h) & _M63) + (g0 >> (64 - j)) + ((low + (g0 << j)) < low)
    vbr = (hi + (g1 >> (63 - h)) + (up >> 63)) | ((up & _M63) != 0)
    del up
    j -= irregular
    down = ((g1 << (j - 1)) & _M63) + (g0 >> (64 - j)) + (low < (g0 << j))
    down_lo = down & _M63
    vbl = ((hi - (g1 >> (64 - j)) - (down >> 63) - (lo < down_lo))
           | (((lo - down_lo) & _M63) != 0))
    del g1, g0, h, j, irregular, hi, lo, low, down, down_lo

    # 4·d lies in R iff vbl + odd <= 4·d <= vbr − odd
    odd = c & 1
    vbl += odd
    vbr -= odd
    s = vb >> 2
    s10 = s // 10 * 10  # the multiples of ten around x are s10 and s10 + 10
    lo10, hi10 = vbl <= s10 << 2, (s10 << 2) + 40 <= vbr
    four = s << 2
    lo1, hi1 = vbl <= four, four + 4 <= vbr
    # both of s and s + 1 in R: the nearer, s on a tie when s is even
    four += 2
    nearer = (vb < four) | ((vb == four) & ((s & 1) == 0))
    take_s = (lo1 & ~hi1) | (nearer & (lo1 == hi1))
    return np.where(lo10 != hi10, s10 + hi10.view(np.uint8) * 10, s + ~take_s), k


def _float_words(columns):
    """Yield the seven text words of ``repr`` of each float64, column after column."""
    bits = np.concatenate(columns).view(np.uint64)
    field = ((bits >> 52) & 0x7FF).view(np.int64)
    f, k = _shortest(bits, field)
    nd = 16 + (f >= 10**16)  # digits of f: 16 or 17 for a normal float
    tiny = np.flatnonzero(field == 0)
    if len(tiny):  # subnormals and zeros
        zero = tiny[(bits[tiny] << 1) == 0]
        f[zero], k[zero] = 0, 0
        nd[tiny] = np.searchsorted(_POW10[1:18], f[tiny], side="right") + 1
    f *= _POW10[17 - nd]  # the digits, the first at 10^16
    exp = k + nd - 1  # decimal exponent of the first digit
    del k, nd
    small = (exp < 0) & (exp >= -4)  # 0.000ddd
    wide = (exp >= 0) & (exp < 16)  # ddd.ddd
    sci = ~(small | wide)  # d.ddde-05

    special = np.flatnonzero(field == 0x7FF)
    nan = (bits[special] & _M52) != 0

    def finish(word, value=0):  # inf, -inf and nan have their own text
        word[special] = value
        return word

    # each word is made just before it is yielded, and what only it needed is
    # dropped
    minus = (bits >> 63) * _MINUS
    minus[special] *= ~nan
    yield minus
    del minus

    whole = exp * wide  # digits before the point, less one
    unit = _POW10[16 - whole]
    before = f // unit
    after = np.where(small, f, (f - before * unit) * _POW10[whole + 1])
    del f, unit
    before *= ~small  # 0.000ddd has a zero before the point
    high, low, _ = _digits16(before)
    del before
    yield finish(high & _KEEP_LAST[whole + 9])
    yield finish(low & _KEEP_LAST[whole + 17])
    del high, low, whole

    first = after // 10**16  # the first of the 17 digits after the point
    after -= first * 10**16
    high, low, groups = _digits16(after)
    del after
    # digits after the point, to the last that is not zero
    zeros, run = _ZEROS4[groups[3]], groups[3] == 0
    for group in groups[2::-1]:
        zeros += run * _ZEROS4[group]
        run &= group == 0
    digits = np.where(run, first != 0, 17 - zeros)
    digits += wide & (digits == 0)  # ddd.0
    del groups, zeros, run
    kept = np.where(small, -1 - exp, 0) + (~sci | (digits > 0))  # the point and its zeros
    point = (_POINT_ZEROS & _KEEP_FIRST[kept + 16]) | (((first + 0x30) << 56) * (digits > 0))
    yield finish(point, np.where(nan, _NAN, _INF))
    del point, kept, first
    yield finish(high & _KEEP_FIRST[digits + 15])
    yield finish(low & _KEEP_FIRST[digits + 7])
    yield finish(_EXPONENT[exp + 400] * sci)


def _int_words(columns):
    """Yield the four text words of ``str`` of each integer, column after column."""
    negative = np.concatenate([col < 0 for col in columns])
    m = np.concatenate([col.astype(np.int64).view(np.uint64) if col.dtype.kind == "i"
                        else col.astype(np.uint64) for col in columns])
    m = np.where(negative, ~m + 1, m)  # the magnitude, 2^63 for the least int64 too
    nd = np.searchsorted(_POW10[1:], m, side="right") + 1
    top = m // 10**16
    high, low, _ = _digits16(m - top * 10**16)
    yield negative * _MINUS
    yield (_DIGITS4[top.view(np.int64)] | (high << 32)) & _KEEP_LAST[nd + 4]
    yield ((high >> 32) | (low << 32)) & _KEEP_LAST[nd + 12]
    yield (low >> 32) & (_KEEP_LAST[nd + 16] >> 32)


class BlockFormatter:
    """The CSV lines of blocks of numeric columns, at most ``rows`` rows each.

    Made for the columns of one table; each call takes one block of them and
    fills the same word buffer, so the memory held is one block's.
    """

    def __init__(self, columns, rows: int):
        floats = [col.dtype.kind == "f" for col in columns]
        widths = np.array([7 if is_float else 4 for is_float in floats])
        starts = np.cumsum(widths) - widths
        # a cell's separator, in the bytes after the text of its last word
        ends = np.array([_text_word(b"," if i < len(columns) - 1 else b"\r\n")
                         << (40 if is_float else 32) for i, is_float in enumerate(floats)],
                        np.uint64)
        self._kinds = []
        for is_float, words in ((True, _float_words), (False, _int_words)):
            chosen = [i for i, kind in enumerate(floats) if kind is is_float]
            if chosen:
                self._kinds.append((chosen, words, starts[chosen], ends[chosen, None]))
        self._words = np.empty((widths.sum(), rows), np.uint64)

    def __call__(self, block) -> str:
        rows = len(block[0])
        words = self._words[:, :rows]
        for chosen, make, starts, ends in self._kinds:
            for offset, word in enumerate(make([block[i] for i in chosen])):
                words[starts + offset] = word.reshape(len(chosen), rows)
            words[starts + offset] |= ends  # after the last word of each cell
        text = words.T.astype("<u8", copy=False).tobytes()
        return text.translate(None, b"\0").decode("ascii")
