"""JSON rows of complex arrays and CSV rows of tables, byte for byte those
of seqio.fmt, from one vectorized decimal pass (rows_text and table_text,
used by seqio.json_text and seqio.csv_table from seqio.FAST_FLOATS floats
on), and the table of powers of ten and the exact product that readrows,
its inverse, shares.

Each |x| is scaled to a 17-digit integer by a double-double power of ten
(Dekker's exact product, Numer. Math. 18, 1971), the digits are read from a
table of 4-digit groups, and the %g layout is assembled in a NUL-padded
byte buffer whose padding is dropped once at the end.  A value whose 17th
digit lies within a proven tolerance of a rounding tie, a magnitude outside
[1e-99, 1e33), a zero, a NaN or an infinity goes through fmt instead: the
classical split into an error-bounded fast path and an exact fallback (Gay,
"Correctly rounded binary-decimal and decimal-binary conversions", 1990).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .seqio import fmt

# A float's text takes one slot of _SLOT_WORDS uint32 words (28 bytes;
# fmt's longest output is 24 characters), NUL where a character is absent:
#
#   byte 0    "-" for a negative value
#   byte 1    the first digit d0, or "0" in the form 0.000ddd
#   byte 2    the decimal point, if any digit follows it
#   word 1    in the form 0.000ddd, the zeros after the point and d0
#   words 2-5 d1 .. d16, in 4-digit groups, trailing zeros dropped
#   word 6    the exponent of the e form, "e-05" or "e+17"
#
# Digits in whole words let a 4-digit group be one uint32 store, and the
# NULs let every slot keep this layout whatever its length.
_SLOT_WORDS = 7

# Powers of ten 10^(16 - k) are tabled for k = floor(log10 |x|) in
# [_K_MIN, _K_MAX]; every other magnitude goes through fmt.  Down to
# _K_MIN the e form's exponent has two digits, so it fits one word.  The
# artifacts' arrays hold values of modulus below 1 (q, G) or the
# coefficients of a and b, which grow like prod (1 - |q|^2)^(-1/2): at most
# 46 on the benchmark's 8192-site data.
_K_MIN, _K_MAX = -99, 32
# _pow10 tables 10^q from q = _Q_MIN, for readrows' 17-digit decimals
# d0.d1...d16 10^k (q = k - 16) in [1e-99, 1), up to q = 16 - _K_MIN.
_Q_MIN = -116
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# Both codecs' tie tolerance; see _decimal_slots and readrows._values.
_TIE_TOL = 2.0**-40

# Floats per vectorized pass at most, so that its temporaries (about 15
# arrays of one value per float) stay near 0.5 MB for the largest arrays.
# An array is cut into equal passes, so that none of several passes is
# shorter than _CHUNK / 2 floats.
_CHUNK = 4096


@functools.cache
def _pow10():
    """Rows ph, pl, ph_hi, ph_lo of 10^q, column q - _Q_MIN, for q from
    _Q_MIN to 16 - _K_MIN; built at their first use.

    From the top q down, n = floor(10^q 2^s) is exact, each from the last
    by one integer division by 10, with s such that n keeps 120 bits at
    _Q_MIN.  ph is n's top 120 bits rounded to a double and pl the rest
    rounded once more, so |ph + pl - 10^q| <= 2^-106 10^q (1 + 2^-12).
    ph_hi + ph_lo is ph split by Dekker's rule.
    """
    shift = 120 + (10**-_Q_MIN).bit_length()
    n = 10 ** (16 - _K_MIN) << shift
    ph, pl = [], []
    for _ in range(_Q_MIN, 17 - _K_MIN):
        cut = n.bit_length() - 120
        top = n >> cut
        high = float(top)
        ph.append(math.ldexp(high, cut - shift))
        pl.append(math.ldexp(float(top - int(high)), cut - shift))
        n //= 10
    ph, pl = np.array(ph[::-1]), np.array(pl[::-1])
    c = ph * _SPLIT
    ph_hi = c - (c - ph)
    table = np.stack([ph, pl, ph_hi, ph - ph_hi])
    table.flags.writeable = False  # shared by every later call
    return table


def _times_pow10(a: np.ndarray, q: np.ndarray):
    """p, e, ph, pl: ph + pl the tabled 10^q, and p + e = a ph exactly with
    p = fl(a ph) (Dekker's TwoProduct; no product over- or underflows)."""
    ph, pl, ph_hi, ph_lo = np.take(_pow10(), q - _Q_MIN, axis=1)
    p = a * ph
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    return p, ((ah * ph_hi - p) + ah * ph_lo + al * ph_hi) + al * ph_lo, ph, pl


@functools.cache
def _decimal_tables():
    """The tables of _decimal_slots, built at their first use, not at import.

    Digits: the 4 ASCII digits of every group 0000..9999 as one word, and
    the same word with the group's trailing zeros NUL.  Tails: masks that
    keep the last 0..4 bytes of a word.  Exponents: the e form's exponent
    word for k in [_K_MIN, _K_MAX], 0 where %g prints no exponent
    (-4 <= k < 17).
    """
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint8)
    pairs = pairs.reshape(100, 2)
    short = pairs.copy()  # trailing zeros NUL
    short[::10, 1] = 0
    short[0, 0] = 0
    groups = np.empty((2, 100, 100, 4), dtype=np.uint8)  # [stripped?, hi, lo]
    groups[:, :, :, :2] = pairs[:, None]
    groups[0, :, :, 2:] = pairs
    groups[1, :, :, 2:] = short
    groups[1, :, 0, :2] = short
    digits, stripped = groups.view(np.uint32).reshape(2, 10000)
    # Every table is built from bytes in memory order, so the word
    # operations below hold whatever the platform's byte order.
    tails = np.array([[0] * (4 - i) + [255] * i for i in range(5)], dtype=np.uint8)
    tails = tails.view(np.uint32).ravel()
    exp = bytearray(b"".join(b"e%+03d" % k for k in range(_K_MIN, _K_MAX + 1)))
    exp[4 * (-4 - _K_MIN) : 4 * (17 - _K_MIN)] = bytes(4 * 21)
    exp = np.frombuffer(exp, dtype=np.uint32)
    for table in (digits, stripped, tails, exp):
        table.flags.writeable = False  # shared by every later call
    return digits, stripped, tails, exp


def _fmt_words(x: np.ndarray) -> np.ndarray:
    """Slot rows of fmt's text of each float of x."""
    text = b"".join(fmt(v).encode("ascii").ljust(4 * _SLOT_WORDS, b"\0") for v in x.tolist())
    return np.frombuffer(text, dtype=np.uint32).reshape(len(x), _SLOT_WORDS)


def _decimal_slots(x: np.ndarray, out: np.ndarray):
    """Write fmt(v) for every float v of x into the slot rows out (uint32,
    len(x) x _SLOT_WORDS, rows at any stride, every word written).

    Decimal stage.  With k = floor(log10 |x|) from the floating-point
    log10, y = |x| 10^(16 - k) is formed as the double-double yh + yl:
    TwoProduct(|x|, ph) = p + e exactly, and yl = e + |x| pl.  Its error is
    the table's (2^-106 (1 + 2^-12) y, _pow10) plus the roundings of |x| pl
    (at most 2^-53 2^-53 y) and of e + |x| pl (2^-53 2^-52 y), under
    2^-104 y in all, so under 2^-47 for y < 10^17 < 2^57.  p is an integer
    wherever y >= 2^53, so floor(y) = p + floor(yl) exactly, and
    frac = yl - floor(yl) is exact.  The range test 10^16 <= y < 10^17 is
    made on floor(y), that is on yh + yl, not on yh alone.  Where it holds
    and frac is more than _TIE_TOL = 2^-40 from 1/2, 2^7 times the error
    bound, D = round(y) is the 17-digit integer of the correctly rounded
    %.17g, unless it is 10^17 (a y within 1/2 of 10^17, reached only where
    log10 errs by an ulp).  Every other value, and zeros, NaN and
    infinities, go through fmt.

    Layout stage.  %g prints D with exponent X = k as
    d0.d1...d16e+XX when X < -4 or X >= 17, else in fixed form, each with
    trailing zeros and a bare point dropped; see _SLOT_WORDS.  A fixed form
    with X >= 1, whose point falls inside the digits, is its e-form slot
    with the bytes moved, one gather per value of X.
    """
    digits, stripped, tails, exp = _decimal_tables()
    ax = np.abs(x)
    fast = (ax >= 10.0**_K_MIN) & (ax < 10.0 ** (_K_MAX + 1))  # False for NaN
    ax = np.where(fast, ax, 1.0)
    k = np.floor(np.log10(ax))
    np.clip(k, _K_MIN, _K_MAX, out=k)
    k = k.astype(np.int64)
    p, e, _, pl = _times_pow10(ax, 16 - k)
    yl = e + ax * pl
    whole = np.floor(yl)
    frac = yl - whole
    below = p.astype(np.int64) + whole.astype(np.int64)  # floor(y)
    d = below + (frac > 0.5)
    fast &= (below >= 10**16) & (d < 10**17) & (np.abs(frac - 0.5) > _TIE_TOL)

    high = d // 10**8
    low = (d - high * 10**8).astype(np.uint32)
    lead = high // 10**8
    high = (high - lead * 10**8).astype(np.uint32)
    lead = lead.astype(np.uint8)
    g1 = high // 10000
    g3 = low // 10000
    g2 = high - g1 * 10000
    g4 = low - g3 * 10000
    # A group keeps its trailing zeros when a later group is nonzero.
    later = g4 != 0
    out[:, 5] = stripped[g4]
    out[:, 4] = np.where(later, digits[g3], stripped[g3])
    later |= g3 != 0
    out[:, 3] = np.where(later, digits[g2], stripped[g2])
    later |= g2 != 0
    out[:, 2] = np.where(later, digits[g1], stripped[g1])
    later |= g1 != 0
    small = (k < 0) & (k >= -4)
    text = out.view(np.uint8)
    text[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    text[:, 1] = np.where(small, np.uint8(ord("0")), lead + np.uint8(ord("0")))
    text[:, 2] = (later | small) * np.uint8(ord("."))
    text[:, 3] = 0
    out[:, 1] = digits[lead] & tails[np.where(small, -k, 0)]
    out[:, 6] = exp[k - _K_MIN]

    wide = np.flatnonzero(fast & (k > 0) & (k < 17))
    for point in np.flatnonzero(np.bincount(k[wide], minlength=1)).tolist():
        rows = wide[k[wide] == point]
        text[rows] = _point_after(text[rows], point)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _fmt_words(x[slow])


def _point_after(text: np.ndarray, point: int) -> np.ndarray:
    """Fixed-form slots with exponent X = point, 1 <= X <= 16, from their
    e-form slots (uint8 rows): d1 .. dX move before the point, NUL (a
    stripped trailing zero) back to "0", and the point stays only if a digit
    follows it.  The last byte of a fixed-form slot is NUL, so it is the
    source of the slot's tail."""
    nul = 4 * _SLOT_WORDS - 1
    order = [0, 1, *range(8, 8 + point), nul, *range(8 + point, 24)]
    order += [nul] * (4 * _SLOT_WORDS - len(order))
    text = text[:, order]
    text[:, 2 : point + 2] = np.maximum(text[:, 2 : point + 2], ord("0"))
    text[:, point + 2] = (text[:, point + 3] != 0) * np.uint8(ord("."))
    return text


def rows_text(values: np.ndarray, pad: str) -> str:
    """json_text's rows of a complex array, "{pad}  [re, im]" joined by
    ",\n" and ended by "\n".

    One row is two half-rows of one layout, the prefix words, a float's slot
    and a word for ", " or "],\n", so the slots of all floats, in order,
    are rows of one strided view, which _decimal_slots fills in equal
    passes of at most _CHUNK floats."""
    lead = f"{pad}  [".encode("ascii")
    words = -(-len(lead) // 4)
    slot = bytes(4 * _SLOT_WORDS)
    row = lead.rjust(4 * words, b"\0") + slot + b", \0\0" + bytes(4 * words) + slot + b"],\n\0"
    buf = bytearray(row) * len(values)
    buf[-3] = 0  # no comma after the last row
    slots = np.frombuffer(buf, dtype=np.uint32).reshape(2 * len(values), -1)[:, words:-1]
    _chunked_slots(np.ascontiguousarray(values, dtype=np.complex128).view(np.float64), slots)
    return buf.translate(None, b"\0").decode("ascii")


def _chunked_slots(parts: np.ndarray, slots: np.ndarray):
    """_decimal_slots(parts, slots) in equal passes of at most _CHUNK floats."""
    passes = -(-len(parts) // _CHUNK)
    cuts = [len(parts) * i // passes for i in range(passes + 1)]
    for start, end in zip(cuts, cuts[1:]):
        _decimal_slots(parts[start:end], slots[start:end])


def table_text(columns: list[np.ndarray]) -> str:
    """csv_table's rows of equal-length 1-D arrays, each line ended by
    "\n": a float64 array's floats as fmt prints them, any other array's
    entries as numpy's bytes conversion prints them (str's for integers
    and ASCII strings).

    A row is each column's slot words followed by a word for "," or "\n",
    NUL-padded like rows_text's.  The floats of all float columns, row by
    row, are written into one slot array by _chunked_slots."""
    rows = len(columns[0])
    floats = [c for c in columns if c.dtype == np.float64]
    parts = np.stack(floats, axis=1).ravel()
    slots = np.empty((len(parts), _SLOT_WORDS), dtype=np.uint32)
    _chunked_slots(parts, slots)
    slots = iter(slots.reshape(rows, len(floats), _SLOT_WORDS).transpose(1, 0, 2))
    comma, newline = (np.frombuffer(c * rows, np.uint32)[:, None] for c in (b",\0\0\0", b"\n\0\0\0"))
    words = []
    for column in columns:
        if column.dtype == np.float64:
            words.append(next(slots))
        else:
            text = column.astype(np.bytes_)
            text = text.astype(f"S{-(-text.itemsize // 4) * 4}")
            words.append(text.view(np.uint32).reshape(rows, -1))
        words.append(comma)
    words[-1] = newline
    return np.concatenate(words, axis=1).tobytes().translate(None, b"\0").decode("ascii")
