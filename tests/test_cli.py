"""CLI front door: job validation, file formats, exit codes, determinism."""

import dataclasses
import decimal
import hashlib
import json
import math
import time
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import al_ist.cli
import al_ist.nlft
import al_ist.readrows
import al_ist.seqio
import al_ist.solver
from al_ist.cli import GRID_NODE_CAP, JobSpec, build_parser, main
from al_ist.datagen import dense_random_sequence, random_sequence
from al_ist.errors import NumericalGuardError, ValidationError
from al_ist.laurent import CircleGrid, LaurentPoly
from al_ist.multiplier import delta_nt, smallest_admissible_order
from al_ist.nlft import Transfer2x2, grid_identities, identity_grid, nlft_forward, nlft_forward_naive
from al_ist.reference import RK4, RK8, RK8_STEP, default_radius, rk4_integrate, rk8_pair
from al_ist.sequence import Sequence
from al_ist.floatrows import _CHUNK, _Q_MIN, _pow10, table_text
from al_ist.readrows import parse_sequence
from al_ist.seqio import (
    FAST_FLOATS,
    FAST_READ_CHARS,
    TABLE_NUMBERS,
    csv_table,
    fmt,
    json_pieces,
    json_text,
    laurent_to_doc,
    read_sequence,
    sequence_doc,
    sequence_from_text,
    sequence_to_text,
    write_sequence,
)

from test_reference import tableau_allocating


def seq(offset, values):
    return Sequence(offset, np.asarray(values, dtype=np.complex128))


def rows_oracle(values: np.ndarray, pad: str) -> str:
    """json_text's complex-array rendering as one fmt call per float."""
    if not len(values):
        return "[]"
    rows = ",\n".join(
        f"{pad}  [{fmt(re)}, {fmt(im)}]"
        for re, im in zip(values.real.tolist(), values.imag.tolist())
    )
    return f"[\n{rows}\n{pad}]"


def parse_oracle(text: str):
    """sequence_from_text's values check and conversion as one loop over the
    pairs; returns the values' bytes or the error's type and message."""
    values = json.loads(text)["values"]
    out = np.zeros(len(values), dtype=np.complex128)
    try:
        for i, pair in enumerate(values):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
            ):
                raise ValidationError(f"values[{i}] is not an [re, im] number pair")
            out[i] = complex(pair[0], pair[1])
        return Sequence(0, out).values.tobytes()
    except ValidationError as exc:
        return ValidationError, str(exc)


def parse_outcome(text: str):
    try:
        return sequence_from_text(text).values.tobytes()
    except ValidationError as exc:
        return ValidationError, str(exc)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, math.nan, -math.nan, math.inf, -math.inf]
any_float = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(EDGE_FLOATS)
# "values" lists as json.loads builds them: number pairs inside the unit
# disk, with up to two entries replaced by anything else JSON can hold.
small_number = st.floats(-0.7, 0.7) | st.sampled_from([0, -0.0, 5e-324, -5e-324])
odd_item = (st.booleans() | st.none() | st.text(max_size=2) | st.integers(-(2**80), 2**80)
            | any_float)
bad_entry = st.one_of(
    st.lists(small_number | odd_item, min_size=2, max_size=2),
    st.lists(small_number, max_size=3),
    odd_item,
)


@st.composite
def values_lists(draw):
    values = draw(st.lists(st.lists(small_number, min_size=2, max_size=2), max_size=12))
    for _ in range(draw(st.integers(0, 2)) if values else 0):
        values[draw(st.integers(0, len(values) - 1))] = draw(bad_entry)
    return values


def exact_ties() -> list[float]:
    """Doubles whose exact decimal expansion has 18 significant digits, so
    that their 17-digit rounding is an exact tie: dyadic fractions m 2^-e
    near 1e-5 to 1e-8 and near 2^52 2^-e."""
    candidates = [math.ldexp(m, -e) for e in range(20, 60) for m in range(1, 100, 2)]
    candidates += [
        math.ldexp(m, -e) for e in range(1, 60) for m in range(2**52 + 1, 2**52 + 80, 2)
    ]
    return [x for x in candidates if len(decimal.Decimal(x).as_tuple().digits) == 18]


def sweep_doubles() -> np.ndarray:
    """An even count of deterministic doubles, at least 10^5, for the
    JSON writer: random bit patterns of both signs; +-0, subnormals, the
    smallest and largest normals; 10^k and its neighbours one ulp away for
    every k of the double range, which takes in the edges of the
    vectorized path's range (1e-99, 1e33) and of its 17-digit scaling
    (1e16, 1e17, and the fixed/e-form switch at 1e-5); and exact 17-digit
    ties."""
    rng = np.random.default_rng(20240)
    parts = [rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)]
    special = [0.0, 5e-324, 2 * 5e-324, 1e-310, 2.2250738585072009e-308,
               2.2250738585072014e-308, 1.7976931348623157e308,
               2.0**53, 2.0**56, 2.0**57, 9.9999999999999995e-5]
    special += [float(f"1e{k}") for k in range(-323, 309)]
    special = np.array(special)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        near = np.concatenate([special, np.nextafter(special, 0.0), np.nextafter(special, np.inf)])
    parts += [near, -near, np.array(exact_ties())]
    floats = np.concatenate(parts)
    return floats if len(floats) % 2 == 0 else np.append(floats, 1.0)


@pytest.fixture
def datum_file(tmp_path):
    def make(sequence, name="in.json"):
        path = tmp_path / name
        write_sequence(sequence, str(path))
        return str(path)

    return make


class TestSequenceFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        q = random_sequence(seed=7, count=9, lo=-5, hi=6, max_modulus=0.97)
        path = tmp_path / "q.json"
        write_sequence(q, str(path))
        back = read_sequence(str(path))
        assert back.offset == q.offset
        assert np.array_equal(back.values, q.values)

    def test_negative_zero_survives(self, tmp_path):
        q = seq(0, [complex(-0.0, 0.5), complex(0.25, -0.0)])
        path = tmp_path / "z.json"
        write_sequence(q, str(path))
        back = read_sequence(str(path))
        assert math.copysign(1.0, back.values[0].real) == -1.0
        assert math.copysign(1.0, back.values[1].imag) == -1.0

    def test_text_form_is_idempotent(self):
        q = seq(-2, [0.1 + 0.2j, -0.3j, 0.5])
        text = sequence_to_text(q)
        assert sequence_to_text(sequence_from_text(text)) == text

    def test_pinned_text(self):
        text = sequence_to_text(seq(-1, [complex(-0.0, 0.5), complex(0.25, -0.0)]))
        assert text == (
            '{\n  "offset": -1,\n  "values": [\n'
            "    [-0.0, 0.5],\n    [0.25, -0.0]\n  ]\n}\n"
        )
        assert sequence_to_text(seq(3, [])) == '{\n  "offset": 3,\n  "values": []\n}\n'

    @pytest.mark.parametrize("writer", ["write_sequence", "cli"])
    def test_writing_holds_less_than_the_text(self, tmp_path, writer):
        # Both writers take json_pieces one at a time, here eight passes of
        # rows: the peak stays below the text's length, where building the
        # text took about four times it.
        q = dense_random_sequence(3, -100, 8192, 0.04, 0.01)
        path = tmp_path / "q.json"
        text = sequence_to_text(q)  # loads floatrows and makes its tables
        tracemalloc.start()
        try:
            if writer == "cli":
                job = JobSpec("reference", output_path=str(path))
                al_ist.cli._emit(job, json_pieces(sequence_doc(q)))
            else:
                write_sequence(q, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_text() == text
        assert peak < len(text)

    def test_rejects_malformed_json(self):
        with pytest.raises(ValidationError):
            sequence_from_text("{not json")

    def test_rejects_wrong_fields(self):
        with pytest.raises(ValidationError):
            sequence_from_text('{"offset": 0}')
        with pytest.raises(ValidationError):
            sequence_from_text('{"offset": 0, "values": [], "extra": 1}')

    def test_rejects_bad_entries(self):
        with pytest.raises(ValidationError):
            sequence_from_text('{"offset": true, "values": []}')
        with pytest.raises(ValidationError):
            sequence_from_text('{"offset": 0, "values": [[1.0]]}')
        with pytest.raises(ValidationError):
            sequence_from_text('{"offset": 0, "values": [["a", 0.0]]}')

    @settings(max_examples=300, deadline=None)
    @given(values_lists())
    def test_parse_matches_the_pair_loop(self, values):
        text = json.dumps({"offset": 0, "values": values})
        assert parse_outcome(text) == parse_oracle(text)

    def test_sites_stay_within_two_to_the_62(self):
        for offset, count in ((2**62, 1), (-(2**62), 2)):
            values = json.dumps([[0.5, 0.0]] * count)
            assert sequence_from_text(f'{{"offset": {offset}, "values": {values}}}').offset == offset
        for offset, count in ((2**62, 2), (-(2**62) - 1, 1), (10**30, 0)):
            values = json.dumps([[0.5, 0.0]] * count)
            with pytest.raises(ValidationError, match="int64 range"):
                sequence_from_text(f'{{"offset": {offset}, "values": {values}}}')

    @pytest.mark.parametrize("command", ["nlft", "compare"])
    def test_refuses_a_file_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"offset": 0, "values": [[0.1, 0.2]]}\xff')
        out = tmp_path / "out"
        argv = ["--cmd", command, "--in", str(path), "--out", str(out)]
        if command == "compare":
            argv += ["--t", "0.5", "--eps", "1e-6"]
        assert main(argv) == 2
        assert f"validation error: sequence file {path} is not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            Sequence(0, np.array([0.3, bad], dtype=np.complex128))


def read_outcome(text: str, fast: bool):
    """sequence_from_text's result, offset and values' bytes or the error's
    type and message, with the fast reader tried first on every text (fast)
    or on none, today's json.loads path (the oracle)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(al_ist.seqio, "FAST_READ_CHARS", 0 if fast else math.inf)
        try:
            q = sequence_from_text(text)
        except ValidationError as exc:
            return ValidationError, str(exc)
    return q.offset, q.values.tobytes()


def layout_text(offset, rows) -> str:
    """A sequence file in json_text's layout with the given number tokens."""
    body = ",\n".join(f"    [{re}, {im}]" for re, im in rows)
    return f'{{\n  "offset": {offset},\n  "values": [\n{body}\n  ]\n}}\n'


def tie_tokens(x: float) -> tuple[list[str], list[str]]:
    """Decimals at and next to the midpoint between x > 0 and its upper
    neighbour, in the e form and in the fixed form: its 17-digit roundings
    down and up, those one unit in the 17th digit further out, and its
    18-digit rounding."""
    mid = (decimal.Decimal(x) + decimal.Decimal(float(np.nextafter(x, 1.0)))) / 2
    with decimal.localcontext() as ctx:
        ctx.prec = 17
        ctx.rounding = decimal.ROUND_FLOOR
        down = +mid
        ctx.rounding = decimal.ROUND_CEILING
        up = +mid
        unit = decimal.Decimal(1).scaleb(down.adjusted() - 16)
        near = [down, up, down - unit, up + unit]
    with decimal.localcontext() as ctx:
        ctx.prec = 18
        longer = +mid
    e_forms = [f"{d:.16e}" for d in near] + [f"{longer:.17e}"]
    e_forms = [f"{m}e{int(k):+03d}" for m, k in (t.split("e") for t in e_forms)]  # as %g
    return e_forms, [f"{d:f}" for d in (*near, longer)]


# Doubles at the edges that the reader and the writer treat apart: +-0,
# subnormals, the %g switches at 1e-4 and 1e17, the table edges 1e-99 and
# 1e33, 1 (the modulus a Sequence allows) and their neighbours.
READ_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.5, -0.25]
READ_EDGES += [float(v) for x in (1e-4, 1e17, 1e-99, 1e33, 1.0, 1e-5, 1e16)
               for v in (x, np.nextafter(x, 0.0), np.nextafter(x, np.inf), -x)]
read_float = st.floats(-1.0, 1.0) | st.sampled_from(READ_EDGES) | any_float

# Number tokens in and out of JSON's grammar: the forms fmt prints, and
# integers, "-0", "E", "+", 3- and 4-digit exponents, more than 17 digits,
# leading zeros, "1." and ".5".
ODD_TOKENS = [
    "0", "-0", "-0.0", "0.0", "5", "-7", "12", "00", "01", "-01", "0.", "1.", ".5", "-.5",
    "+1", "+0.5", "--1", "-", "", "1e", "1e-", "1e+", "1.e-05", "1e-05", "1E-05", "1e+05",
    "1e05", "1.5e-5", "1.5e-005", "1.5e-0005", "2.5e-100", "2.5e-400", "0e-999", "1.5E+3",
    "0.1000000000000000055511151231257827", "0.12345678901234567890", "0.00012345678901234567",
    "0.000000000000000000001", "123456789012345678901234", "1" * 400, "9" * 30 + ".5",
    "0x1", "1_0", "inf", "nan", "NaN", "Infinity", "-Infinity", "1.5.2", "1e5e5", "0.5 ",
    " 0.5", "0,5", "true", "null", '"0.5"', "[0.5]", "1.7976931348623157e+308", "1e309",
]
token = (
    st.sampled_from(ODD_TOKENS)
    | st.from_regex(r"-?(0|[1-9][0-9]{0,19})(\.[0-9]{1,21})?([eE][+-]?[0-9]{1,4})?", fullmatch=True)
    | st.floats(1e-300, 0.99).map(lambda x: fmt(x))
)


class TestPowersOfTen:
    """floatrows._pow10, the double-double powers of ten both codecs scale
    by, held in rational arithmetic to the bound their proofs use."""

    def test_every_power_within_its_bound_and_split_exactly(self):
        table = _pow10()
        assert _Q_MIN == -116 and table.shape == (4, 232)
        bound = Fraction(1, 2**106) * (1 + Fraction(1, 2**12))
        for q in range(-116, 116):
            ph, pl, ph_hi, ph_lo = map(Fraction, table[:, q - _Q_MIN].tolist())
            exact = Fraction(10) ** q
            assert abs(ph + pl - exact) <= bound * exact, q
            assert ph_hi + ph_lo == ph, q
            top = ph_hi.numerator * ph_hi.denominator  # an odd part times a power of 2
            assert (top >> ((top & -top).bit_length() - 1)).bit_length() <= 26, q


class TestFastReader:
    """readrows.parse_sequence, tried first by sequence_from_text on long
    texts, gives exactly what today's json.loads path gives: the same
    Sequence bit for bit, or the same refusal and message."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(read_float, read_float), min_size=1, max_size=40),
           st.sampled_from([0, -3, 7, 2**62, -(2**62), 2**62 - 5]))
    def test_json_text_rows_read_as_the_json_path(self, pairs, offset):
        values = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        text = json_text({"offset": offset, "values": values})
        assert read_outcome(text, fast=True) == read_outcome(text, fast=False)
        parts = values.view(np.float64)
        if np.all(np.abs(parts) < 1.0) and offset + len(values) - 1 <= 2**62:
            got = parse_sequence(text)
            assert got is not None and got[1].tobytes() == parts.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(token, token), min_size=1, max_size=12))
    def test_fuzzed_tokens_read_as_the_json_path(self, rows):
        text = layout_text(0, rows)
        assert read_outcome(text, fast=True) == read_outcome(text, fast=False)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-300, 0.99), st.booleans())
    def test_decimals_at_rounding_ties_read_as_the_json_path(self, x, negative):
        sign = "-" if negative else ""
        e_forms, fixed_forms = tie_tokens(x)
        for tokens in (e_forms, fixed_forms):
            text = layout_text(5, [(sign + t, "-0.0") for t in tokens])
            fast = read_outcome(text, fast=True)
            assert fast == read_outcome(text, fast=False)
            assert fast[1] == parse_oracle(text)
            if tokens is e_forms and x >= 1e-99:  # e forms fit the reader's slots
                assert parse_sequence(text) is not None

    def test_decimals_nearest_a_tie_go_to_json(self, monkeypatch):
        # D 10^-20 with D 2^46 = (2N + 1) 5^20 +- 1 lies 2^19 / 10^20, about
        # 2^-47.4 of a gap, from the midpoint (2N + 1) 2^-66 of two doubles
        # in [2^-13, 2^-12): as near as 20-digit decimals come to a tie, and
        # inside the reader's 2^-40 tolerance.
        tokens = []
        for side in (1, -1):
            d = side * pow(2**46, -1, 5**20) % 5**20
            while d < 2**-12 * 10**20:
                odd, rest = divmod(d * 2**46 - side, 5**20)
                if d >= 2**-13 * 10**20 and rest == 0 and odd % 2:
                    tokens.append(f"0.000{d}")
                d += 5**20
        assert len(tokens) == 256
        loads, calls = json.loads, []
        monkeypatch.setattr(json, "loads", lambda s: calls.append(s) or loads(s))
        text = layout_text(0, [(t, "0") for t in tokens])
        offset, parts = parse_sequence(text)
        assert sorted(calls) == sorted(t.encode() for t in tokens)
        monkeypatch.undo()
        assert read_outcome(text, fast=False) == (0, parts.tobytes())

    @pytest.mark.parametrize("tol", [al_ist.readrows._TIE_TOL, 0.5])
    def test_fallback_near_ties_reads_the_same(self, tol, monkeypatch):
        # With the tolerance at 1/2 every nonzero number goes to json.loads.
        monkeypatch.setattr(al_ist.readrows, "_TIE_TOL", tol)
        rng = np.random.default_rng(5)
        parts = rng.uniform(-1, 1, 600) * 10.0 ** rng.integers(-120, 0, 600)
        parts[::7] = 0.0
        text = json_text({"offset": 1, "values": parts.view(np.complex128)})
        offset, got = parse_sequence(text)
        assert offset == 1 and got.tobytes() == parts.tobytes()

    def test_every_benchmark_nlft_datum(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import jobs

        for seed in range(1, 16):
            data, _ = jobs.build("nlft", seed)
            for datum in data:
                text = sequence_to_text(datum)
                assert len(text) >= FAST_READ_CHARS
                offset, parts = parse_sequence(text)
                assert offset == datum.offset
                assert parts.tobytes() == datum.values.tobytes()
                assert read_outcome(text, fast=False) == (offset, parts.tobytes())

    @pytest.mark.parametrize(
        "text",
        [
            json.dumps({"offset": 0, "values": [[0.5, 0.25]] * 400}),
            layout_text(0, [("0.5", "0.25")] * 400).replace("\n", "\r\n"),
            layout_text(0, [("0.5", "0.25")] * 400)[:-1],
            layout_text(0, [("0.5", "0.25")] * 400).replace("0.25]", "0.25 ]", 1),
            layout_text("01", [("0.5", "0.25")] * 400),
            layout_text(10**19, [("0.5", "0.25")] * 400),
            layout_text(0, [("0.5", "0.25")] * 400).replace('"offset"', '"offsets"'),
            layout_text(0, [("0.5", "0.25")] * 400).replace("[0.5, 0.25]", "[0.5,0.25]", 1),
            layout_text(0, [("0.5", "0.25")] * 400).replace("[0.5, 0.25]", "[0.5,x0.25]", 1),
            layout_text(0, [("0.5", "0.25")] * 400).replace("],\n    [", "],\n  x [", 1),
            layout_text(0, [("0.5", "0.25")] * 400).replace("0.25],", "0.25},", 1),
            layout_text(0, [("0.5", "0.25")] * 400).replace("[0.5, 0.25]", "[0.5, 0.25, 0]", 1),
            layout_text(0, [("0.5", "0.25")] * 400).replace("0.5", "0.5\u00e9", 1),
        ],
    )
    def test_other_layouts_are_left_to_json(self, text):
        assert parse_sequence(text) is None
        assert read_outcome(text, fast=True) == read_outcome(text, fast=False)


class TestJsonText:
    def test_pinned_text(self):
        doc = {
            "p": laurent_to_doc(LaurentPoly(-1, [complex(-0.0, 0.1), 0, 1 / 3 - 2j])),
            "checks": {"ok": True, "no": False},
            "n": -3,
            "x": 2.5,
            "z": -0.0,
        }
        assert json_text(doc) == (
            '{\n  "p": {\n    "min_deg": -1,\n    "coeffs": [\n'
            "      [-0.0, 0.10000000000000001],\n      [0, 0],\n"
            "      [0.33333333333333331, -2]\n    ]\n  },\n"
            '  "checks": {\n    "ok": true,\n    "no": false\n  },\n'
            '  "n": -3,\n  "x": 2.5,\n  "z": -0.0\n}\n'
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(any_float, any_float), max_size=12), st.booleans())
    def test_rows_match_one_fmt_per_float(self, pairs, strided):
        values = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
        if strided:
            values = values[::2]
        doc = {"p": {"coeffs": values}}
        want = '{\n  "p": {\n    "coeffs": ' + rows_oracle(values, "    ") + "\n  }\n}\n"
        assert json_text(doc) == want

    @pytest.mark.parametrize(
        "rows",
        [
            # Both sides of the break-even (counted in floats, two a row),
            # two passes, and five.
            FAST_FLOATS // 2 - 1,
            FAST_FLOATS // 2,
            _CHUNK // 2 + 3,
            2 * _CHUNK + 1,
        ],
    )
    @pytest.mark.parametrize("strided", [False, True])
    def test_long_rows_match_one_fmt_per_float(self, rows, strided):
        rng = np.random.default_rng(rows)
        parts = rng.standard_normal(4 * rows) * 10.0 ** rng.integers(-8, 20, 4 * rows)
        parts[5::89] = np.round(parts[5::89], 3)  # trailing zeros to strip
        parts[::97] = rng.choice(EDGE_FLOATS, len(parts[::97]))
        values = parts.view(np.complex128)
        values = values[::2] if strided else values[:rows]
        for doc, pad in (({"v": values}, "  "), ({"p": {"coeffs": values}}, "    ")):
            text = json_text(doc)
            assert text[text.index("["):text.rindex("]") + 1] == rows_oracle(values, pad)

    @pytest.mark.parametrize("rows", [FAST_FLOATS // 2 - 1, FAST_FLOATS // 2])
    def test_single_precision_rows_print_their_values(self, rows):
        values = (np.arange(rows) * (0.1 - 0.3j)).astype(np.complex64)
        assert json_text({"v": values}) == '{\n  "v": ' + rows_oracle(values, "  ") + "\n}\n"

    def test_sweep_of_doubles_matches_fmt(self):
        floats = sweep_doubles()
        assert len(floats) >= 100_000
        values = floats.view(np.complex128)
        assert json_text({"v": values}) == '{\n  "v": ' + rows_oracle(values, "  ") + "\n}\n"

    def test_callable_node_renders_its_value_in_place(self):
        calls = []

        def value():
            calls.append(1)
            return {"r": 0.5, "ok": True}

        doc = {"a": 1, "v": value, "z": lambda: 2.5}
        assert json_text(doc) == json_text({"a": 1, "v": {"r": 0.5, "ok": True}, "z": 2.5})
        assert calls == [1]

    def test_raising_callable_node_stops_the_text(self):
        later = []

        def tripped():
            raise NumericalGuardError("tripped")

        with pytest.raises(NumericalGuardError, match="tripped"):
            json_text({"a": 1.0, "r": tripped, "z": lambda: later.append(1) or 1.0})
        assert later == []

    @pytest.mark.parametrize(
        "node", [[1.0], "x", None, np.zeros(2), np.zeros((1, 1), dtype=np.complex128), np.int64(1)]
    )
    def test_rejects_other_nodes(self, node):
        with pytest.raises(TypeError):
            json_text({"k": node})


def csv_oracle(header: list[str], rows: list[list]) -> str:
    """csv_table as one fmt call per float and one str call per other
    entry, row by row."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _table_edges() -> list[float]:
    """EDGE_FLOATS; +-1e-99 and +-1e33, the ends of the vectorized range,
    with their neighbours two ulps each way; and exact 17-digit ties with
    their neighbours one ulp away."""
    ends = np.array([1e-99, 1e33])
    near = [ends]
    for _ in range(2):
        near += [np.nextafter(near[-1], 0.0), np.nextafter(near[-1], np.inf)]
    near = np.concatenate(near)
    ties = np.array(exact_ties())
    ties = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])
    return EDGE_FLOATS + np.concatenate([near, -near, ties, -ties]).tolist()


table_float = st.floats(-1.0, 1.0) | any_float | st.sampled_from(_table_edges())
COMPARE_HEADER = ["n", "re", "im", "ref_re", "ref_im", "deviation", "allowance", "verdict"]
SOLVE_HEADER = ["n", "re", "im", "budget"]


class TestCsvTable:
    """The table writer's bytes are those of one fmt call per float."""

    @pytest.mark.parametrize("header", [COMPARE_HEADER, SOLVE_HEADER], ids=["compare", "solve"])
    # Just below TABLE_NUMBERS, at or just past it, and the 131-row compare
    # table's 917 numbers (n and six floats a row).
    @pytest.mark.parametrize("numbers", [TABLE_NUMBERS - 1, TABLE_NUMBERS, 917])
    # The table's size is what is tested, so its smallest example is large.
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.large_base_example])
    @given(data=st.data())
    def test_bytes_match_one_fmt_per_float(self, header, numbers, data):
        per_row = 6 if header is COMPARE_HEADER else 3
        rows = numbers // (per_row + 1) if numbers < TABLE_NUMBERS else -(-numbers // (per_row + 1))
        sites = data.draw(st.lists(st.integers(-9999, 9999), min_size=rows, max_size=rows))
        parts = data.draw(st.lists(table_float, min_size=rows * per_row, max_size=rows * per_row))
        table = np.array(parts).reshape(rows, per_row)
        columns = [np.array(sites, dtype=np.int64), *table.T]
        want_rows = [[n, *row] for n, row in zip(sites, table.tolist())]
        if header is COMPARE_HEADER:
            verdicts = data.draw(st.lists(st.sampled_from(["pass", "fail"]), min_size=rows,
                                          max_size=rows))
            columns.append(np.array(verdicts))
            want_rows = [row + [v] for row, v in zip(want_rows, verdicts)]
        want = csv_oracle(header, want_rows)
        assert csv_table(header, columns) == want
        # table_text alone, on both sides of TABLE_NUMBERS.
        assert ",".join(header) + "\n" + table_text(columns) == want

    @pytest.mark.parametrize("rows", [TABLE_NUMBERS // 2 - 1, -(-TABLE_NUMBERS // 2)])
    def test_other_dtypes_print_as_numpy_prints_them(self, rows):
        # Only n and the float64 column count toward TABLE_NUMBERS, so the
        # table takes fmt's path at one size and table_text's at the other.
        # A float32 0.1 prints as 0.1, not as the double it widens to.
        header = ["n", "x", "single", "flag", "verdict"]
        columns = [np.arange(rows), np.linspace(-1.0, 1.0, rows),
                   np.resize(np.float32([0.1, -2.5, 3e-8, 1e20]), rows),
                   np.arange(rows) % 3 == 0, np.resize(np.array(["pass", "fail"]), rows)]
        # numpy's scalars print as numpy prints them; a float64 one would
        # take fmt, since np.float64 subclasses float.
        want_rows = [[n, x, *rest] for n, x, *rest
                     in zip(columns[0].tolist(), columns[1].tolist(), *columns[2:])]
        text = csv_table(header, columns)
        assert text == csv_oracle(header, want_rows)
        assert text.split("\n")[1] == "0,-1,0.1,True,pass"


class TestJobSpec:
    def test_parser_destinations_are_the_fields(self):
        args = build_parser().parse_args(["--cmd", "solve"])
        assert set(vars(args)) == {f.name for f in dataclasses.fields(JobSpec)}

    def test_rejects_unknown_command(self):
        with pytest.raises(ValidationError):
            JobSpec(command="frobnicate")

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValidationError):
            JobSpec(command="solve", eps=2.0)
        with pytest.raises(ValidationError):
            JobSpec(command="reference", h=0.0)
        with pytest.raises(ValidationError):
            JobSpec(command="reference", radius=0)
        with pytest.raises(ValidationError):
            JobSpec(command="nlft", grid=1)
        with pytest.raises(ValidationError):
            JobSpec(command="reference", boundary="reflecting")


class TestSolveCommand:
    def test_zero_datum(self, datum_file, tmp_path):
        path = datum_file(seq(0, [0.0, 0.0]))
        out = tmp_path / "out.csv"
        code = main(
            ["--cmd", "solve", "--in", path, "--out", str(out),
             "--t", "1.0", "--eps", "1e-6"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,re,im,budget"
        for line in lines[1:]:
            _, re, im, budget = line.split(",")
            assert float(re) == 0.0 and float(im) == 0.0
            assert float(budget) <= 1e-6

    @pytest.mark.parametrize("command", ["solve", "compare", "multiplier"])
    def test_refuses_an_n0_past_the_site_bound(self, datum_file, tmp_path, capsys, command):
        # Past 2^63 np.arange makes float64 sites, so an unbounded n0 would
        # write 1e+19 as the site of every row.
        path = datum_file(seq(0, [0.3, 0.2j]))
        out = tmp_path / "out.csv"
        for n0 in (10**19, -(2**62) - 1):
            code = main(["--cmd", command, "--in", path, "--out", str(out),
                         "--t", "1.0", "--eps", "1e-6", "--n0", str(n0)])
            assert code == 2 and "n0 must lie in [-2^62, 2^62]" in capsys.readouterr().err
            assert not out.exists()

    def test_sites_at_the_bound_are_exact_integers(self, datum_file, tmp_path):
        path = datum_file(seq(0, [0.3, 0.2j]))
        out = tmp_path / "out.csv"
        assert main(["--cmd", "solve", "--in", path, "--out", str(out),
                     "--t", "1.0", "--eps", "1e-6", "--n0", str(2**62)]) == 0
        sites = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        half = len(sites) // 2
        assert sites == [str(2**62 + s) for s in range(-half, half + 1)]

    def test_deterministic_output(self, datum_file, tmp_path):
        path = datum_file(random_sequence(seed=11, count=5, lo=-2, hi=3, max_modulus=0.5))
        args = ["--cmd", "solve", "--in", path, "--t", "0.5", "--eps", "1e-5"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestReferenceCommand:
    def test_snapshot_matches_library_call(self, datum_file, tmp_path):
        q0 = random_sequence(seed=13, count=4, lo=-1, hi=3, max_modulus=0.6)
        path = datum_file(q0)
        out = tmp_path / "ref.json"
        code = main(
            ["--cmd", "reference", "--in", path, "--out", str(out),
             "--t", "0.25", "--h", "0.01", "--radius", "20"]
        )
        assert code == 0
        got = read_sequence(str(out))
        want = rk4_integrate(q0, 0.25, 0.01, radius=20).q
        assert got.offset == want.offset
        assert np.array_equal(got.values, want.values)

    def test_blow_up_exit_code(self, datum_file):
        path = datum_file(seq(0, [1.0 - 1e-13]))
        code = main(["--cmd", "reference", "--in", path, "--t", "1.0"])
        assert code == 3

    def test_refuses_a_time_without_a_finite_radius(self, datum_file, capsys):
        # 10 (1 + |t|) overflows: refused before any allocation, no traceback
        path = datum_file(seq(0, [0.5]))
        assert main(["--cmd", "reference", "--in", path, "--t", "1e308", "--h", "1"]) == 2
        assert "no finite reference lattice radius" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", [[], ["--radius", "5"]])
    def test_refuses_work_above_the_cap_at_once(self, datum_file, capsys, radius):
        # |t| / h = 1e23 steps: the step plan alone would never end, and
        # the default radius would ask for 2e21 sites.
        path = datum_file(seq(0, [0.5]))
        start = time.perf_counter()
        code = main(["--cmd", "reference", "--in", path, "--t", "1e20", "--h", "1e-3", *radius])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "site-steps, above the cap 1e+08" in capsys.readouterr().err


class TestCompareCommand:
    def test_random_datum_passes(self, datum_file, tmp_path):
        q0 = random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5)
        path = datum_file(q0)
        out = tmp_path / "cmp.csv"
        code = main(
            ["--cmd", "compare", "--in", path, "--out", str(out),
             "--t", "1.0", "--eps", "1e-6", "--radius", "60"]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,re,im,ref_re,ref_im,deviation,allowance,verdict"
        assert all(line.endswith(",pass") for line in lines[1:])

    def test_mismatch_exit_code(self, datum_file, tmp_path):
        # an undersized reference radius starves the window: the comparison
        # must flag the deviation rather than pass silently
        q0 = random_sequence(seed=19, count=5, lo=-2, hi=3, max_modulus=0.6)
        path = datum_file(q0)
        out = tmp_path / "cmp.csv"
        code = main(
            ["--cmd", "compare", "--in", path, "--out", str(out),
             "--t", "1.5", "--eps", "1e-9", "--radius", "4"]
        )
        assert code == 1
        assert any(
            line.endswith(",fail") for line in out.read_text().strip().splitlines()[1:]
        )

    def test_allowance_is_eps_plus_richardson_over_255(self, datum_file, tmp_path):
        # Each row: the fine row of rk8_pair as ref, and the allowance
        # eps + |coarse - fine| / (2^8 - 1) + 1e-12.  --h is the reference
        # command's RK4 step; compare takes it and does not use it.
        q0 = random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5)
        path = datum_file(q0)
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out, h in zip(outs, ["1e-3", "0.5"]):
            assert main(["--cmd", "compare", "--in", path, "--out", str(out), "--t", "1.5",
                         "--eps", "1e-8", "--radius", "30", "--h", h]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        coarse, fine = rk8_pair(q0, 1.5, 30)
        rows = [line.split(",") for line in outs[0].read_text().strip().splitlines()[1:]]
        assert len(rows) > 1
        for n, _, _, ref_re, ref_im, _, allowance, _ in rows:
            ref = fine.q.at(int(n))
            assert complex(float(ref_re), float(ref_im)) == ref
            assert float(allowance) == 1e-8 + (abs(coarse.q.at(int(n)) - ref) / 255.0 + 1e-12)

    def test_default_lattice_covers_every_row(self, datum_file, monkeypatch, tmp_path):
        # At eta 0.08 and t 0.5 the window reaches 46 sites from n0, past
        # default_radius (16); no row may be compared against a site the
        # reference never computed.
        q0 = seq(-1, [0.8, -0.7j, 0.75])
        lattices = []

        def recorded(*args):
            pair = rk8_pair(*args)
            lattices.append(pair[1].q)
            return pair

        monkeypatch.setattr(al_ist.cli, "rk8_pair", recorded)
        path = datum_file(q0)
        out = tmp_path / "cmp.csv"
        code = main(["--cmd", "compare", "--in", path, "--out", str(out), "--t", "0.5",
                     "--eps", "1e-6"])
        assert code == 0
        (lattice,) = lattices
        sites = [int(line.split(",")[0]) for line in out.read_text().strip().splitlines()[1:]]
        assert max(sites) > default_radius(q0, 0.5)
        assert lattice.offset <= min(sites) and max(sites) < lattice.offset + len(lattice.values)

    @pytest.mark.parametrize(
        "n0, digest",
        [pytest.param("0", "299c7bc44292d383e6bd47f25d763f8476318d4ffec98578564bff1e02281cd3",
                      id="0"),
         pytest.param("-3", "fea77816ff5248e8beb62de2ce5f9f1442bff60e6e75b8f1feadffc61a1c27b5",
                      id="-3")],
    )
    def test_window_past_default_radius_is_pinned(self, datum_file, tmp_path, n0, digest):
        # The datum above: the window reaches |n0| + 46 > default_radius (16),
        # so the reference lattice is sized from the window.  The digests
        # are numpy 2.4.6's, as in TestPinnedArtifacts; beside them the
        # reference columns are held to the allocating oracle on that
        # lattice, and exit 0 says every verdict is a pass.
        q0 = seq(-1, [0.8, -0.7j, 0.75])
        out = tmp_path / "cmp.csv"
        code = main(["--cmd", "compare", "--in", datum_file(q0), "--out", str(out),
                     "--t", "0.5", "--eps", "1e-6", "--n0", n0])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        sites = [int(r[0]) for r in rows]
        radius = abs(int(n0)) + 46
        assert max(abs(min(sites)), max(sites)) == radius > default_radius(q0, 0.5)
        fine = tableau_allocating(q0, 0.5, RK8_STEP / 2.0, radius, RK8, "zero").q
        assert [complex(float(r[3]), float(r[4])) for r in rows] == [fine.at(n) for n in sites]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_long_time_passes_at_tight_eps(self, datum_file, tmp_path):
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        out = tmp_path / "cmp.csv"
        code = main(["--cmd", "compare", "--in", path, "--out", str(out), "--t", "20",
                     "--eps", "1e-10"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 1 and all(line.endswith(",pass") for line in lines[1:])

    def test_periodic_boundary_refused(self, datum_file, tmp_path, capsys):
        # The solver evolves the datum on Z; against a ring reference every
        # row would fail and blame it.
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        out = tmp_path / "cmp.csv"
        code = main(
            ["--cmd", "compare", "--in", path, "--out", str(out),
             "--t", "1.0", "--eps", "1e-6", "--boundary", "periodic"]
        )
        assert code == 2
        assert "zero boundary" in capsys.readouterr().err
        assert not out.exists()

    def test_one_reference_pair_per_job(self, datum_file, monkeypatch, tmp_path):
        calls = {"rk8_pair": 0, "rk4_integrate": 0}
        for name in calls:
            original = getattr(al_ist.cli, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(al_ist.cli, name, counted)
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        out = tmp_path / "cmp.csv"
        code = main(
            ["--cmd", "compare", "--in", path, "--out", str(out),
             "--t", "0.5", "--eps", "1e-6", "--radius", "30"]
        )
        assert code == 0
        assert calls == {"rk8_pair": 1, "rk4_integrate": 0}

    def test_refused_solve_runs_no_reference(self, datum_file, monkeypatch, capsys):
        calls = []
        original = al_ist.cli.rk8_pair

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(al_ist.cli, "rk8_pair", counted)
        # |q|^2 = 0.999 at t 20 needs a Schur pass above SCHUR_UPDATE_CAP.
        path = datum_file(seq(0, [math.sqrt(0.999)]))
        args = ["--in", path, "--t", "20", "--eps", "1e-10"]
        assert main(["--cmd", "solve", *args]) == 2
        refusal = capsys.readouterr().err
        assert "above the cap 1e+09" in refusal
        assert main(["--cmd", "compare", *args]) == 2
        assert capsys.readouterr().err == refusal
        assert calls == []

    def test_one_window_plan_per_job(self, datum_file, monkeypatch, tmp_path):
        calls = []
        original = al_ist.solver.select_params

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(al_ist.solver, "select_params", counted)
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        out = tmp_path / "cmp.csv"
        code = main(["--cmd", "compare", "--in", path, "--out", str(out),
                     "--t", "-0.5", "--eps", "1e-6", "--radius", "30"])
        assert code == 0
        assert len(calls) == 1

    def test_guard_in_the_solve_runs_no_reference(self, datum_file, monkeypatch, capsys):
        calls = []

        def tripped(*args):
            raise NumericalGuardError("Schur recursion terminated")

        monkeypatch.setattr(al_ist.solver, "_schur_pass", tripped)
        monkeypatch.setattr(al_ist.cli, "rk8_pair", lambda *args: calls.append(args))
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        code = main(["--cmd", "compare", "--in", path, "--t", "0.5", "--eps", "1e-6"])
        assert code == 3
        assert "Schur recursion terminated" in capsys.readouterr().err
        assert calls == []

    def test_rows_are_the_solve_rows(self, datum_file, tmp_path):
        # compare's n, re, im columns are the solve command's, bit for bit.
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        args = ["--in", path, "--t", "-0.5", "--eps", "1e-6", "--n0", "2"]
        solve_out, compare_out = tmp_path / "solve.csv", tmp_path / "cmp.csv"
        assert main(["--cmd", "solve", *args, "--out", str(solve_out)]) == 0
        assert main(["--cmd", "compare", *args, "--out", str(compare_out)]) == 0
        solve_rows = [line.split(",")[:3] for line in solve_out.read_text().splitlines()[1:]]
        compare_rows = [line.split(",")[:3] for line in compare_out.read_text().splitlines()[1:]]
        assert len(solve_rows) > 1 and compare_rows == solve_rows

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_refuses_a_time_without_a_finite_window(self, datum_file, capsys, command):
        # 4 e |t| overflows in select_params: refused, no traceback
        path = datum_file(seq(0, [0.5]))
        assert main(["--cmd", command, "--in", path, "--t", "1e308", "--eps", "1e-6"]) == 2
        assert "has no finite certified window" in capsys.readouterr().err

    @pytest.mark.parametrize("sites", [60, 1100])
    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_refuses_a_datum_whose_szego_product_is_too_small(
        self, datum_file, capsys, command, sites
    ):
        # eta 2^-60 at 60 sites of |q|^2 = 0.5, and 0.0 (underflow) at 1 100:
        # exit 2 with the datum named, not a traceback or the old option.
        path = datum_file(seq(0, math.sqrt(0.5) * np.exp(1j * np.arange(sites))))
        assert main(["--cmd", command, "--in", path, "--t", "1", "--eps", "1e-6"]) == 2
        err = capsys.readouterr().err
        assert "the datum's Szego product" in err and "is too small" in err

    def test_refuses_reference_work_above_the_cap(self, datum_file, capsys):
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        start = time.perf_counter()
        code = main(["--cmd", "compare", "--in", path, "--t", "0.5", "--eps", "1e-6",
                     "--radius", "10000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "RK8 over 20000001 sites needs about 3e+08 site-steps" in capsys.readouterr().err


class TestPinnedArtifacts:
    """sha256 of compare, reference and nlft artifacts of small data; any
    change in the bits of the Runge-Kutta kernel, the window solve or the
    product tree shows here.  The digests were derived on numpy 2.4.6 on
    x86-64 with numpy's AVX-512 kernels (baseline X86_V2; X86_V3, X86_V4,
    AVX512_ICL and AVX512_SPR found), the version the CI constraints file
    pins; other kernels can move the last bits.  Before each digest a twin
    check holds the artifact to an oracle, the allocating Runge-Kutta loop
    or nlft_forward_naive, which still tests the code where the bits
    differ."""

    DATUM = random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5)

    @pytest.mark.bitpin
    def test_compare_digest(self, datum_file, tmp_path):
        out = tmp_path / "artifact"
        argv = ["--cmd", "compare", "--t", "1.0", "--eps", "1e-6", "--h", "0.01",
                "--radius", "30", "--in", datum_file(self.DATUM), "--out", str(out)]
        assert main(argv) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(-7, 8))
        assert all(r[-1] == "pass" for r in rows)
        fine = tableau_allocating(self.DATUM, 1.0, RK8_STEP / 2.0, 30, RK8, "zero").q
        assert [complex(float(r[3]), float(r[4])) for r in rows] == [
            fine.at(int(r[0])) for r in rows
        ]
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "9ba6b9bed6b2a0083f6496438be2ae8f621607dfacf989578931e3def726fc21")

    @pytest.mark.parametrize(
        "t, radius, boundary, digest",
        [
            pytest.param(-0.75, 12, "zero",
                         "ba62ab5ad1cf1b8c403d48b70aa2fa19feff2e1d57a7d6fa652ce78cd13278c2",
                         id="zero"),
            pytest.param(0.75, None, "periodic",
                         "d7bd209cfd5cfb688df35ed23f02e5ef34f6bf3b4bdeb61760e472e782b1128b",
                         id="periodic"),
        ],
    )
    def test_reference_digest(self, datum_file, tmp_path, t, radius, boundary, digest):
        out = tmp_path / "artifact"
        argv = ["--cmd", "reference", "--t", repr(t), "--h", "0.01", "--boundary", boundary,
                "--in", datum_file(self.DATUM), "--out", str(out)]
        if radius is not None:
            argv += ["--radius", str(radius)]
        assert main(argv) == 0
        want = tableau_allocating(self.DATUM, t, 0.01, radius, RK4, boundary)
        assert out.read_text() == sequence_to_text(want.q)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.bitpin
    def test_nlft_of_a_dense_run(self, datum_file, tmp_path):
        # 1 024 nonzero sites, past nlft.DIRECT_SITES: the FFT product tree
        # computes it, and its bits must not move.
        q = dense_random_sequence(23, -300, 1024, 0.04, 0.01)
        assert np.all(q.values != 0)
        out = tmp_path / "ab.json"
        assert main(["--cmd", "nlft", "--in", datum_file(q), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        naive = nlft_forward_naive(q)
        for got, want in ((doc["a"], naive.a), (doc["b"], naive.b)):
            coeffs = np.array(got["coeffs"]).view(np.complex128).ravel()
            assert got["min_deg"] == want.min_deg and len(coeffs) == len(want.coeffs)
            scale = np.max(np.abs(want.coeffs))
            assert np.max(np.abs(coeffs - want.coeffs)) <= 1e-13 * scale
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == "2f31df5d20a6238a78dce5f3d152cd758bc7fd6e0c04cf80fdd23d2ccc5fdfd0")


class TestNlftCommand:
    def test_single_site_closed_form(self, datum_file, capsys):
        s = 0.3 - 0.4j
        path = datum_file(seq(2, [s]))
        assert main(["--cmd", "nlft", "--in", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        scale = 1.0 / np.sqrt(1.0 - abs(s) ** 2)
        assert doc["a"]["min_deg"] == 0
        assert doc["a"]["coeffs"] == [[scale, 0.0]]
        # the top-right transfer entry carries conj(s) at degree -k
        top_right = scale * np.conj(s)
        assert doc["b"]["min_deg"] == -2
        assert doc["b"]["coeffs"] == [[top_right.real, top_right.imag]]
        assert doc["unitarity_residual"] <= 1e-12
        assert doc["szego_identity"]["residual"] <= 1e-12

    def test_one_transform_per_job(self, datum_file, monkeypatch, capsys):
        calls = []
        for module in (al_ist.cli, al_ist.nlft):
            original = module.nlft_forward

            def counted(q, original=original):
                calls.append(q)
                return original(q)

            monkeypatch.setattr(module, "nlft_forward", counted)
        path = datum_file(random_sequence(seed=3, count=6, lo=-4, hi=5, max_modulus=0.6))
        assert main(["--cmd", "nlft", "--in", path]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @staticmethod
    def grid_sizes(monkeypatch) -> list[int]:
        """The sizes of the grids Transfer2x2.grid_values evaluates on, on
        any thread, as the job runs."""
        sizes = []
        grid_values = Transfer2x2.grid_values

        def counted(self, g):
            sizes.append(g.size)
            return grid_values(self, g)

        monkeypatch.setattr(Transfer2x2, "grid_values", counted)
        return sizes

    def test_one_evaluation_per_job(self, datum_file, monkeypatch, capsys):
        # The identity grid, 4 096 nodes, holds every node of the 1 024-node
        # witness grid: the witness reads a and b there out of its values.
        q = dense_random_sequence(5, -40, 300, 0.2, 0.01)
        sizes = self.grid_sizes(monkeypatch)
        assert main(["--cmd", "nlft", "--in", datum_file(q)]) == 0
        capsys.readouterr()
        assert sizes == [identity_grid(q).size] == [4096]

    @pytest.mark.parametrize("grid", [1000, 256])
    def test_grid_off_the_witness_grid_gives_the_separate_checks(
        self, datum_file, monkeypatch, capsys, grid
    ):
        # 1 000 nodes are not a multiple of the witness grid's 1 024, and 256
        # are fewer: the witness evaluates its own grid, and the artifact is
        # that of the witness and the identities run one after the other.
        q = dense_random_sequence(5, -40, 300, 0.2, 0.01)
        sizes = self.grid_sizes(monkeypatch)
        assert main(["--cmd", "nlft", "--in", datum_file(q), "--grid", str(grid)]) == 0
        text = capsys.readouterr().out
        assert sizes == [grid, 1024]
        m = nlft_forward(q).validate()
        lhs, rhs, residual = grid_identities(q, *m.grid_values(CircleGrid(grid)))
        assert text == json_text({
            "a": laurent_to_doc(m.a),
            "b": laurent_to_doc(m.b),
            "a_at_zero": float(m.a_at_zero().real),
            "unitarity_residual": residual,
            "szego_identity": {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)},
            "grid": grid,
        })

    def test_checks_end_with_the_job_when_the_writer_fails(self, datum_file, monkeypatch):
        finished = []
        checks = al_ist.cli._nlft_checks

        def slow_checks(*args):
            time.sleep(0.2)
            result = checks(*args)
            finished.append(1)
            return result

        def failing_writer(doc):
            raise OSError("disk full")

        monkeypatch.setattr(al_ist.cli, "_nlft_checks", slow_checks)
        monkeypatch.setattr(al_ist.cli, "json_pieces", failing_writer)
        with pytest.raises(OSError, match="disk full"):
            main(["--cmd", "nlft", "--in", datum_file(seq(0, [0.5, 0.25j]))])
        assert finished == [1]

    def test_guard_after_writing_began_removes_an_existing_out_file(
        self, datum_file, tmp_path, monkeypatch, capsys
    ):
        # b/a leaves the unit disk: the guard trips while the writer waits
        # on the checks, after it opened --out and took a and b.  The file,
        # which held an earlier artifact, is removed.
        path = datum_file(seq(0, 0.999999 * np.exp(1j * np.arange(20))))
        out = tmp_path / "ab.json"
        out.write_text("an earlier artifact\n")
        taken = []
        pieces = al_ist.cli.json_pieces

        def recorded(doc):
            for piece in pieces(doc):
                taken.append(piece)
                yield piece

        monkeypatch.setattr(al_ist.cli, "json_pieces", recorded)
        assert main(["--cmd", "nlft", "--in", path, "--out", str(out)]) == 3
        assert "reflection coefficient" in capsys.readouterr().err
        assert '\n  "b": ' in "".join(taken) and not out.exists()

    def test_writer_error_removes_the_partly_written_file(self, datum_file, tmp_path, monkeypatch):
        pieces = al_ist.cli.json_pieces

        def failing(doc):
            yield next(pieces(doc))
            raise OSError("disk full")

        monkeypatch.setattr(al_ist.cli, "json_pieces", failing)
        out = tmp_path / "ab.json"
        with pytest.raises(OSError, match="disk full"):
            main(["--cmd", "nlft", "--in", datum_file(seq(0, [0.5, 0.25j])), "--out", str(out)])
        assert not out.exists()

    def test_grid_override(self, datum_file, capsys):
        path = datum_file(seq(0, [0.5]))
        assert main(["--cmd", "nlft", "--in", path, "--grid", "256"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grid"] == 256

    @pytest.mark.parametrize(
        "sites, modulus, breakdown",
        [
            # a(0) stays finite but comes out as -1.7e184i: |a|^2 overflows.
            (64, 0.999999, "unitarity residual nan"),
            # The tree itself overflows, and a and b are NaN.
            (600, 0.9999, "unitarity residual nan"),
            # The witness passes, but b/a leaves the unit disk on the grid.
            (20, 0.999999, "reflection coefficient"),
        ],
    )
    def test_float64_breakdown_of_a_valid_datum_trips_a_guard(
        self, datum_file, tmp_path, capsys, sites, modulus, breakdown
    ):
        path = datum_file(seq(0, modulus * np.exp(1j * np.arange(sites))))
        out = tmp_path / "ab.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["--cmd", "nlft", "--in", path, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical guard tripped: float64 ") and breakdown in err
        assert not out.exists()


class TestGridCap:
    """Grids above GRID_NODE_CAP are refused before the transform or the
    multiplier bundle is built; no job is run at the cap itself."""

    @pytest.fixture
    def unbuilt(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built before the grid cap was checked")

        monkeypatch.setattr(al_ist.cli, "nlft_forward", refuse)
        monkeypatch.setattr(al_ist.cli, "g_bundle", refuse)

    def refused(self, argv, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"exceeds GRID_NODE_CAP = {GRID_NODE_CAP}" in capsys.readouterr().err
        assert not out.exists()

    def test_default_nlft_grid_grows_with_the_offset(self, datum_file, tmp_path, capsys, unbuilt):
        # One site at 2^20: 4 (1 + 2^20) nodes round up to 2^23.
        assert GRID_NODE_CAP == 2**22
        path = datum_file(seq(2**20, [0.5]))
        self.refused(["--cmd", "nlft", "--in", path], tmp_path, capsys)

    def test_grid_option(self, datum_file, tmp_path, capsys, unbuilt):
        path = datum_file(seq(0, [0.5]))
        over = str(GRID_NODE_CAP + 1)
        self.refused(["--cmd", "nlft", "--in", path, "--grid", over], tmp_path, capsys)
        self.refused(["--cmd", "multiplier", "--t", "0.5", "--n0", "8", "--grid", over],
                     tmp_path, capsys)

    def test_multiplier_order(self, tmp_path, capsys, unbuilt):
        # Order 2^20 + 1: the default and bundle grid, 4n rounded up, is 2^23.
        order = str(2**20 + 1)
        self.refused(["--cmd", "multiplier", "--t", "0.5", "--n0", order], tmp_path, capsys)
        self.refused(["--cmd", "multiplier", "--t", "0.5", "--n0", order, "--grid", "64"],
                     tmp_path, capsys)


class TestMultiplierCommand:
    def test_bundle_report(self, datum_file, capsys):
        assert main(["--cmd", "multiplier", "--t", "0.5", "--n0", "8"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 8
        assert abs(doc["delta"] - delta_nt(8, 0.5)) <= 1e-18
        assert doc["p_error_max"] <= doc["delta"]
        assert doc["g_peak"] < 1.0
        assert doc["checks"] == {"p_within_delta": True, "g_inside_disk": True}

    def test_requires_positive_order(self):
        assert main(["--cmd", "multiplier", "--t", "0.5"]) == 2

    def test_reads_the_grid_nodes_once_and_lets_them_go(self, tmp_path):
        # Each read of CircleGrid.nodes makes a grid array: a second read,
        # or one read held through the two evaluations, peaks at 3.5 grid
        # arrays; one read, freed once the phase is formed, at 3.
        args = ["--cmd", "multiplier", "--t", "0.5", "--n0", "8", "--grid", str(2**18),
                "--out", str(tmp_path / "g.json")]
        assert main(args) == 0  # warm: imports and caches outside the peak
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.25 * 16 * 2**18

    @pytest.mark.parametrize("t, order", [("700", "8"), ("700", "2000"), ("1e9", "8")])
    def test_inadmissible_order_at_a_long_time(self, capsys, t, order):
        # delta_{n,t} overflows a float above t of about 355, and the least
        # admissible order at t 1e9 is about 3.6e9: refused at once, with
        # that order named.
        start = time.perf_counter()
        assert main(["--cmd", "multiplier", "--t", t, "--n0", order]) == 2
        assert time.perf_counter() - start < 1.0
        least = smallest_admissible_order(float(t))
        assert f"smallest admissible n is {least}" in capsys.readouterr().err

    def test_inadmissible_order_past_the_lgamma_range(self, capsys):
        # The least admissible order at t 2e307 is about 5e307, whose
        # lgamma(n + 1) overflows a double: refused without naming an order.
        assert smallest_admissible_order(2e307) is None
        assert main(["--cmd", "multiplier", "--t", "2e307", "--n0", "10"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: order n=10 inadmissible")
        reason = err.split("; ", 1)[1]
        assert reason.startswith("the smallest admissible n is too large")
        assert not any(ch.isdigit() for ch in reason)


class TestLongTimes:
    def test_solve_at_t_1200_stays_in_the_schur_class(self, datum_file, tmp_path, capsys):
        # An eta-0.61 datum: its multiplier once peaked at 1 + 1.0e-12,
        # outside the Schur class, and the solve exited 2.
        q0 = random_sequence(seed=3, count=7, lo=-6, hi=6, max_modulus=0.3, min_modulus=0.2)
        path = datum_file(q0)
        out = tmp_path / "out.csv"
        code = main(["--cmd", "solve", "--in", path, "--out", str(out),
                     "--t", "1200", "--eps", "1e-10"])
        assert code == 0, capsys.readouterr().err
        assert out.read_text().startswith("n,re,im,budget")


class TestExitCodes:
    def test_missing_required_flag(self, datum_file):
        path = datum_file(seq(0, [0.1]))
        assert main(["--cmd", "solve", "--in", path, "--t", "1.0"]) == 2

    def test_missing_input_file(self, tmp_path):
        absent = str(tmp_path / "nope.json")
        code = main(["--cmd", "solve", "--in", absent, "--t", "1.0", "--eps", "1e-6"])
        assert code == 2

    def test_malformed_input_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[]")
        code = main(["--cmd", "nlft", "--in", str(path)])
        assert code == 2

    @pytest.mark.parametrize(
        "command",
        [["solve", "--t", "1.0", "--eps", "1e-6"],
         ["reference", "--t", "1.0"],
         ["compare", "--t", "1.0", "--eps", "1e-6"],
         ["nlft"]],
    )
    def test_nan_datum(self, tmp_path, command):
        path = tmp_path / "nan.json"
        path.write_text('{"offset": 0, "values": [[0.3, 0], [NaN, 0]]}')
        out = tmp_path / "out"
        code = main(["--cmd", *command, "--in", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [('{"offset": 0, "values": [[0, 1' + "0" * 400 + "]]}", "too large for a double"),
         ('{"offset": ' + str(10**30) + ', "values": [[0.5, 0]]}', "int64 range")],
    )
    def test_numbers_beyond_a_double_or_int64(self, tmp_path, capsys, text, message):
        path = tmp_path / "big.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["--cmd", "nlft", "--in", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["nlft"], ["compare", "--t", "0.5", "--eps", "1e-6"]])
    @pytest.mark.parametrize(
        "text",
        ['{"offset": 0, "values": [[0, 1' + "0" * 4999 + "]]}",
         '{"offset": 1' + "0" * 4999 + ', "values": [[0.5, 0]]}'],
        ids=["value", "offset"],
    )
    def test_integers_past_the_digit_limit(self, tmp_path, capsys, command, text):
        # json.loads refuses an integer token of more than 4 300 digits with
        # a ValueError, which is not a JSONDecodeError.
        path = tmp_path / "huge.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main(["--cmd", *command, "--in", str(path), "--out", str(out)]) == 2
        assert "integer too long to read" in capsys.readouterr().err
        assert not out.exists()

    def test_eta_is_not_an_option(self, datum_file):
        path = datum_file(seq(0, [0.1]))
        with pytest.raises(SystemExit) as info:
            main(["--cmd", "solve", "--in", path, "--t", "1.0", "--eps", "1e-6", "--eta", "0.5"])
        assert info.value.code == 2

    def test_bad_flag_value(self):
        assert main(["--cmd", "solve", "--eps", "7.0", "--t", "1.0"]) == 2

    def test_unknown_command_rejected_by_parser(self):
        with pytest.raises(SystemExit) as info:
            main(["--cmd", "frobnicate"])
        assert info.value.code == 2
