"""Sequence files and tabular output.

A sequence file is a JSON document with an integer "offset" and "values",
an array of [re, im] number pairs.  All floating-point output (JSON and
CSV alike) is printed as fmt prints it, with 17 significant digits, which
round-trips doubles bit-faithfully, so identical jobs produce
byte-identical artifacts.

Complex arrays, the bulk of every JSON artifact, and CSV tables are not
printed one float at a time once they hold FAST_FLOATS floats (a table:
TABLE_NUMBERS numbers) or more: floatrows.rows_text and
floatrows.table_text write their rows, byte for byte those of fmt, from
one vectorized decimal pass, with fmt as its fallback near rounding ties
and outside [1e-99, 1e33).  floatrows is imported at its first use, so
importing al_ist.cli does not load it.  A JSON text is rendered in pieces
(json_pieces), a long array in passes of rows; the CLI's writers and
write_sequence write each piece as it comes, so they never build the whole
text, and json_text and sequence_to_text join the pieces.

Reading is the same split the other way.  A text of FAST_READ_CHARS
characters or more goes first to readrows.parse_sequence, imported at its
first use, which takes only json_text's layout of a Sequence, one
"[re, im]" row per line, with numbers in the forms fmt prints for moduli
below 1.  It reads each number's digits as an exact integer and scales it
by a double-double power of ten; a number within a proven tolerance of a
rounding tie, with more than 17 significant digits or too small for its
table of powers (about 1e-99) goes through json.loads alone.  Any other
text, short ones included, takes the json.loads path below, so every text
gives the same Sequence bit for bit, or the same refusal and message, on
either path.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from itertools import chain

import numpy as np

from .errors import ValidationError
from .sequence import Sequence


# Complex arrays of fewer floats go through fmt one float at a time: below
# this count floatrows' vectorized pass, with a fixed cost of about 90 numpy
# calls (near 90 us), is dearer than fmt at about 0.8 us a float with its
# row (measured break-even 110-130 floats on a 2-core x86 host).
FAST_FLOATS = 128

# CSV tables with fewer numbers (integer and float64 entries) go through fmt
# one float at a time.  Counted in floats, table_text's break-even moves
# with the floats a row; counted in numbers it moves less: compare tables (n
# and 6 floats a row) broke even at 26-27 rows, 182-189 numbers, and solve
# tables (n and 3 floats) at 40-41 rows, 160-164 numbers (median over four
# benchmark tables of the least of 300 calls, 2-core x86 host).
TABLE_NUMBERS = 170

# Sequence texts of at least this many characters (about 200 rows) go to
# readrows.parse_sequence first: below it, the reader's fixed cost of about
# 150 numpy calls (near 150 us) is dearer than json.loads at about 1 us a
# row (measured break-even 180-220 rows on a 2-core x86 host).
FAST_READ_CHARS = 10_000


def fmt(x: float) -> str:
    """17-significant-digit decimal form of a double.

    Negative zero needs a decimal point: a bare "-0" is an integer token to
    JSON parsers and would come back as +0.0, breaking bit-exact round-trips.
    """
    s = f"{x:.17g}"
    return "-0.0" if s == "-0" else s


def sequence_doc(seq: Sequence) -> dict:
    return {"offset": seq.offset, "values": seq.values}


def sequence_to_text(seq: Sequence) -> str:
    return json_text(sequence_doc(seq))


def sequence_from_text(text: str) -> Sequence:
    if len(text) >= FAST_READ_CHARS:
        from .readrows import parse_sequence

        parsed = parse_sequence(text)
        if parsed is not None:
            return Sequence(parsed[0], parsed[1].view(np.complex128))
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed sequence file: {exc}") from exc
    except ValueError as exc:  # an integer token past Python's digit limit
        raise ValidationError(f"sequence file holds an integer too long to read: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"offset", "values"}:
        raise ValidationError('sequence file must have exactly the fields "offset" and "values"')
    offset = doc["offset"]
    if not isinstance(offset, int) or isinstance(offset, bool):
        raise ValidationError("offset must be an integer")
    values = doc["values"]
    if not isinstance(values, list):
        raise ValidationError("values must be an array of [re, im] pairs")
    # numpy holds lattice exponents as int64; |site| <= 2^62 leaves room for
    # the negated and shifted exponents that the transforms form.
    if not (-(2**62) <= offset and offset + max(len(values) - 1, 0) <= 2**62):
        raise ValidationError("sites must lie in [-2^62, 2^62], inside numpy's int64 range")
    # json.loads builds exact ints, floats and lists (bool is its own
    # type), so the checks compare types by identity, one C-level pass each.
    pairs = set(map(type, values)) <= {list} and set(map(len, values)) <= {2}
    flat = list(chain.from_iterable(values)) if pairs else None
    if flat is None or not set(map(type, flat)) <= {int, float}:
        # Only to name the first bad pair.
        bad = next(
            i for i, pair in enumerate(values)
            if type(pair) is not list or len(pair) != 2 or not set(map(type, pair)) <= {int, float}
        )
        raise ValidationError(f"values[{bad}] is not an [re, im] number pair")
    try:
        parts = np.array(flat, dtype=np.float64)
    except OverflowError as exc:  # an integer token beyond the largest double
        raise ValidationError(f"values hold a number too large for a double: {exc}") from exc
    return Sequence(offset, parts.view(np.complex128))


def read_sequence(path: str) -> Sequence:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read sequence file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"sequence file {path} is not UTF-8 text: {exc}") from exc
    return sequence_from_text(text)


def write_sequence(seq: Sequence, path: str):
    """sequence_to_text(seq) written to path one json_pieces piece at a
    time, so no whole text is built."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json_pieces(sequence_doc(seq)))


def csv_table(header: list[str], columns: list[np.ndarray]) -> str:
    """CSV text of one 1-D array per header name: float64 entries as fmt
    prints them, any other as numpy's str conversion does (str's for
    integers and strings).  A table of TABLE_NUMBERS integer and float64
    entries or more is written by floatrows.table_text, byte for byte the
    same; a shorter one one float at a time."""
    lines = [",".join(header)]
    numbers = sum(len(c) for c in columns if c.dtype == np.float64 or c.dtype.kind == "i")
    if numbers >= TABLE_NUMBERS:
        from .floatrows import table_text

        return lines[0] + "\n" + table_text(columns)
    texts = [map(fmt, c.tolist()) if c.dtype == np.float64 else c.astype(str).tolist()
             for c in columns]
    lines += map(",".join, zip(*texts))
    return "\n".join(lines) + "\n"


def laurent_to_doc(p) -> dict:
    return {"min_deg": p.min_deg, "coeffs": p.coeffs}


def json_text(doc) -> str:
    """Deterministic JSON with 17-significant-digit floats: json_pieces(doc)
    joined."""
    return "".join(json_pieces(doc))


def json_pieces(doc) -> Iterator[str]:
    """json_text's text, in pieces, in order.

    Renders dicts, bools, ints, floats and one-dimensional complex arrays,
    the last as one [re, im] row per line, and a zero-argument callable as
    the value it returns, called when the text reaches it; any other node is
    a TypeError, raised there.  An array of FAST_FLOATS floats or more comes
    as floatrows.rows_text's passes, each made when the piece before it has
    been taken, so a writer that writes each piece as it comes holds at most
    one pass of rows and never the whole text.
    """

    def render(node, pad):
        if callable(node):
            node = node()
        if isinstance(node, dict):
            yield "{\n"
            sep = ""
            for k, v in node.items():
                yield f'{sep}{pad}  "{k}": '
                yield from render(v, pad + "  ")
                sep = ",\n"
            yield f"\n{pad}}}"
        elif isinstance(node, np.ndarray) and node.dtype.kind == "c" and node.ndim == 1:
            if not len(node):
                yield "[]"
            elif 2 * len(node) < FAST_FLOATS:
                rows = ",\n".join(
                    f"{pad}  [{fmt(re)}, {fmt(im)}]"
                    for re, im in zip(node.real.tolist(), node.imag.tolist())
                )
                yield f"[\n{rows}\n{pad}]"
            else:
                from .floatrows import rows_text

                yield "[\n"
                yield from rows_text(node, pad)
                yield f"{pad}]"
        elif isinstance(node, bool):
            yield "true" if node else "false"
        elif isinstance(node, float):
            yield fmt(node)
        elif isinstance(node, int):
            yield str(node)
        else:
            raise TypeError(f"json_text cannot render {type(node).__name__}")

    yield from render(doc, "")
    yield "\n"
