"""Sequence files in json_text's layout, read without building Python
numbers: the inverse of floatrows (parse_sequence, used by
seqio.sequence_from_text for texts of at least seqio.FAST_READ_CHARS
characters).

The layout is the one json_text writes for a Sequence,

    {
      "offset": <int>,
      "values": [
        [<re>, <im>],
        ...
      ]
    }

with one final newline, and numbers of the forms fmt prints for values of
modulus below 1: an optional "-", one digit, an optional "." and digits,
and an optional "e-" and 2 or 3 digits ("0", "-0.0", "0.000123",
"1.5e-07").  The skeleton is checked on the bytes; each number is copied
into a right-aligned slot of _SLOT bytes, checked for that form, and read
as D 10^q, D its digits as an exact integer below 10^17.  D times
floatrows' double-double power of ten (Dekker's exact product, Numer.
Math. 18, 1971) rounds to D 10^q's double unless the product lies within
a proven tolerance of a rounding tie.  Those numbers, and any with more
than 17 significant digits or a q below the table, go through json.loads
one at a time: the classical split into an error-bounded fast path and an
exact fallback (Clinger, "How to read floating point numbers accurately",
PLDI 1990).  Any other text is left to the caller's json.loads path.
"""

from __future__ import annotations

import json
import re

import numpy as np

from .floatrows import _Q_MIN, _TIE_TOL, _times_pow10
from .sequence import SITE_BOUND

_HEAD = re.compile(rb'\{\n  "offset": (-?(?:0|[1-9][0-9]{0,18})),\n  "values": \[\n    \[')
_TAIL = b"]\n  ]\n}\n"
# The bytes from a row's "]" to the next row's "[".
_GAP = b"],\n    ["
_GAP_WORD = int.from_bytes(_GAP, "little")

# A number takes one slot of _SLOT bytes, right-aligned: its last byte is
# the slot's last.  fmt prints at most 24 characters.  A pass holds its
# slots word by word, as a (3, T) uint64 array, word j (cols 8j .. 8j + 7)
# of every slot in row j, so that each word operation runs over one
# contiguous row.
_SLOT = 24
# _KEEP[j, n] keeps the last n bytes of a slot in its word j.
_KEEP = np.array(
    [[(2**64 - 1) << 8 * (8 - min(max(n - 8 * (2 - j), 0), 8)) & (2**64 - 1)
      for n in range(_SLOT + 1)] for j in range(3)],
    dtype=np.uint64,
)
_ONES = np.uint64(0x0101010101010101)
_E_MINUS = int.from_bytes(b"e-", "little")

_TEN8, _TEN16 = np.uint64(10**8), np.uint64(10**16)
# 10^f for the f <= 16 fraction digits that D = d 10^f + F < 10^17 allows
# beside a nonzero d, 0 past them.
_LEAD_SCALE = np.array([10**f if f <= 16 else 0 for f in range(_SLOT + 1)], dtype=np.uint64)

# Bytes of rows per vectorized pass at most (about 2 500 numbers); a text
# is cut into equal passes at row ends, as floatrows cuts its arrays.  A
# pass costs about 150 numpy calls, and its temporaries, about 60 KB each,
# take fresh pages once they pass malloc's 128 KB thresholds.  Of passes of
# 2^14 to 2^17 bytes, 2^16 read the benchmark's 2 048- and 8 192-site files
# fastest on a 2-core x86 host, with 66 and 149 page faults a read where
# 2^17 took 258 and 398.
_PASS_BYTES = 1 << 16


def _byte_sums(slots: np.ndarray) -> np.ndarray:
    """The byte sum of every slot of a (3, 8 T) uint8 or bool array, for
    sums below 256 (int64): the three words added, then their 8 bytes
    summed into the top byte by one multiplication."""
    w = slots.view(np.uint64)
    return (((w[0] + w[1] + w[2]) * _ONES) >> np.uint64(56)).astype(np.int64)


def _octets(words: np.ndarray) -> np.ndarray:
    """The 8-digit numbers of uint64 words of digit values 0..9 per byte,
    the first byte the most significant (SWAR: pairs, quads, octets, one
    multiplication each)."""
    words = ((words * np.uint64(1 + (10 << 8))) >> np.uint64(8)) & np.uint64(0x00FF00FF00FF00FF)
    words = ((words * np.uint64(1 + (100 << 16))) >> np.uint64(16)) & np.uint64(0x0000FFFF0000FFFF)
    return (words * np.uint64(1 + (10000 << 32))) >> np.uint64(32)


def parse_sequence(text: str) -> tuple[int, np.ndarray] | None:
    """(offset, parts) of a sequence file in json_text's layout, parts the
    float64 re, im of every row, the values json.loads and np.array give;
    None for any other text, whose result the caller's json.loads path
    decides."""
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    head = _HEAD.match(raw)
    if head is None or not raw.endswith(_TAIL):
        return None
    lo, hi = head.end(), len(raw) - len(_TAIL)  # first number .. last "]"
    passes = -(-(hi - lo) // _PASS_BYTES)
    parts = []
    start = lo
    for k in range(1, passes + 1):
        # A pass ends at the "]" of the row that holds its share's end.
        row_end = raw.find(b"\n", max(lo + (hi - lo) * k // passes, start), hi)
        end = row_end - 2 if k < passes and row_end >= 0 else hi
        values = _pass(raw, start, end)
        if values is None:
            return None
        parts.append(values)
        if end == hi:
            break
        if raw[end : end + len(_GAP)] != _GAP:
            return None
        start = end + len(_GAP)
    parts = np.concatenate(parts)
    offset = int(head[1])
    if not (-SITE_BOUND <= offset and offset + len(parts) // 2 - 1 <= SITE_BOUND):
        return None
    return offset, parts


def _pass(raw: bytes, start: int, end: int) -> np.ndarray | None:
    """The re, im of the rows whose numbers lie in raw[start:end], from the
    first row's first number to the last row's "]"; None if they are not
    in json_text's layout or a number has none of the forms _values reads."""
    b = np.frombuffer(raw, dtype=np.uint8)
    # Commas alternate: inside row i, then after its "]".  Numbers hold
    # none, so every comma is one of these.
    commas = np.flatnonzero(b[start:end] == ord(",")) + start
    if len(commas) % 2 == 0:
        return None
    inner, seps = commas[0::2], commas[1::2]
    gaps = np.ndarray((len(raw) - 7,), dtype="<u8", buffer=raw, strides=(1,))
    if not (np.all(gaps[seps - 1] == _GAP_WORD) and np.all(b[inner + 1] == ord(" "))):
        return None
    starts = np.empty(len(commas) + 1, dtype=np.int64)
    ends = np.empty_like(starts)
    # A row's "]" is at its comma's left, and _GAP runs from it to the
    # next row's first number; a row's second number follows ", ".
    starts[0], starts[2::2], starts[1::2] = start, seps - 1 + len(_GAP), inner + 2
    ends[0::2], ends[1:-1:2], ends[-1] = inner, seps - 1, end
    values = _values(raw, starts, ends)
    if values is None:
        return None
    for i in np.flatnonzero(np.isnan(values)).tolist():
        values[i] = float(json.loads(raw[starts[i] : ends[i]]))
    return values


def _values(raw: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The value of every number raw[starts:ends], NaN for a number that
    json.loads must read; None if a number has none of the forms read here.

    Forms.  A number of n bytes is an optional "-", a mantissa d or d.F
    (d one digit, F f >= 1 digits) and an optional exponent "e-" and 2 or 3
    digits X, so its non-digit bytes are the "-" at its first byte, the "."
    after d and the "e-" at the 4th or 5th byte from its end.  It has one of
    these forms when those bytes are there, its mantissa takes the 1 or
    f + 2 >= 3 bytes between them, and every other byte is a digit.

    Value stage.  Such a number is D 10^q with D = d 10^f + F and
    q = -X - f.  When D < 10^17 and q is tabled, D = Dh + Dl (Dh = D
    rounded to a double, Dl exact) and ph + pl = 10^q (1 + t), |t| <=
    2^-106 (1 + 2^-12) by floatrows._pow10.  TwoProduct(Dh, ph) = p + e
    exactly, and yl = e + (Dh pl + Dl ph); the roundings of Dh pl, Dl ph,
    their sum and yl, the dropped Dl pl and t add to under 10 * 2^-106 of
    x = D 10^q, so z = p + yl is within 2^-102 x of x.  r = fl(p + yl), and
    z - r = err exactly (Fast2Sum).  r is x's double unless x and z lie on
    two sides of the midpoint between r and its neighbour on err's side, at
    a distance g / 2 from r, g that neighbour's gap.  Since g >= 2^-54 r,
    2^-102 x is under 2^-47 g; a number is read by json.loads when
    |err| >= (1/2 - _TIE_TOL) g, _TIE_TOL = 2^-40 being 2^7 times that
    bound, and zeros need no test.
    """
    sizes = ends - starts
    if not (sizes.min() >= 1 and sizes.max() <= _SLOT):
        return None
    b = np.frombuffer(raw, dtype=np.uint8)
    slots = np.ndarray((len(raw) - _SLOT + 1,), dtype=f"V{_SLOT}", buffer=raw, strides=(1,))
    words = slots[ends - _SLOT].view(np.uint64).reshape(-1, 3).T.copy()
    words &= np.take(_KEEP, sizes, axis=1)
    # Digit values; every other byte, the NULs before the number too, >= 10.
    vals = words.view(np.uint8) - np.uint8(ord("0"))
    digits = _byte_sums(vals < 10)
    neg = b[starts] == ord("-")
    lead = b[starts + neg] - np.uint8(ord("0"))  # d
    dot = b[starts + neg + 1] == ord(".")
    tail = words[2] >> np.uint64(24)  # cols 19 .. 23
    e2 = ((tail >> np.uint64(8)) & np.uint64(0xFFFF)) == _E_MINUS
    e3 = (tail & np.uint64(0xFFFF)) == _E_MINUS
    exp_len = 4 * e2 + 5 * e3
    frac = sizes - neg - exp_len - 1 - dot  # f, or 0 for a bare d
    # Non-digits: "e-" (exp_len // 2 is 2 with an exponent), "-" and ".";
    # f >= 1 after a "." and 0 without one.
    form = (sizes - digits == exp_len // 2 + neg + dot) & (np.minimum(frac, 1) == dot)
    if not form.all():
        return None

    # F: the digit values moved right past the exponent, then the last f.
    move = (8 * exp_len).astype(np.uint64)
    digit_words = vals.view(np.uint64)
    mant = digit_words << move
    mant[1:] |= digit_words[:2] >> (np.uint64(64) - move)
    mant &= np.take(_KEEP, frac, axis=1)
    octets = _octets(mant)
    d = octets[0] * _TEN16 + octets[1] * _TEN8 + octets[2]
    d += lead.astype(np.uint64) * _LEAD_SCALE[frac]
    # X: the last 2 or 3 digit values.
    last = vals.reshape(3, -1, 8)[2]
    x = (last[:, 5].astype(np.int64) * 100) * e3 + (last[:, 6] * np.uint8(10) + last[:, 7])
    q = -frac - (exp_len > 0) * x
    fast = ((frac <= 16) | ((lead == 0) & (octets[0] < 10))) & (q >= _Q_MIN)
    d = np.where(fast, d, 0)

    dh = d.astype(np.float64)
    dl = (d.view(np.int64) - dh.astype(np.int64)).astype(np.float64)
    p, e, ph, pl = _times_pow10(dh, np.maximum(q, _Q_MIN))
    yl = e + (dh * pl + dl * ph)
    r = p + yl
    err = yl - (r - p)
    bits = r.view(np.int64)  # r >= 0: its neighbours' bits are bits -+ 1
    gap = np.abs(np.where(err < 0, bits - 1, bits + 1).view(np.float64) - r)
    fast &= (np.abs(err) < (0.5 - _TIE_TOL) * gap) | (d == 0)
    # json.loads reads "-0" as the integer 0, a positive zero.
    neg &= (sizes != 2) | (lead != 0)
    bits |= neg.astype(np.int64) << 63
    r[~fast] = np.nan
    return r
