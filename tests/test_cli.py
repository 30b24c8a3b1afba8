"""CLI front door: job validation, file formats, exit codes, determinism."""

import json
import math

import numpy as np
import pytest

import al_ist.cli
import al_ist.nlft
from al_ist.cli import BENCH_SIZES, JobSpec, main
from al_ist.datagen import random_sequence
from al_ist.errors import ValidationError
from al_ist.laurent import LaurentPoly
from al_ist.multiplier import delta_nt
from al_ist.reference import rk4_integrate
from al_ist.sequence import Sequence
from al_ist.seqio import (
    json_text,
    laurent_to_doc,
    read_sequence,
    sequence_from_text,
    sequence_to_text,
    write_sequence,
)


def seq(offset, values):
    return Sequence(offset, np.asarray(values, dtype=np.complex128))


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            Sequence(0, np.array([0.3, bad], dtype=np.complex128))


class TestJsonText:
    def test_pinned_text(self):
        doc = {
            "p": laurent_to_doc(LaurentPoly(-1, [complex(-0.0, 0.1), 0, 1 / 3 - 2j])),
            "ok": True,
            "no": False,
            "n": -3,
            "mixed": [1, 2.5, -0.0, True],
            "rows": [[1.0, -0.0], [], [[0.25]]],
            "name": "x",
        }
        assert json_text(doc) == (
            '{\n  "p": {\n    "min_deg": -1,\n    "coeffs": [\n'
            "      [-0.0, 0.10000000000000001],\n      [0, 0],\n"
            "      [0.33333333333333331, -2]\n    ]\n  },\n"
            '  "ok": true,\n  "no": false,\n  "n": -3,\n'
            '  "mixed": [1, 2.5, -0.0, true],\n'
            '  "rows": [\n    [1, -0.0],\n    [],\n    [\n      [0.25]\n    ]\n  ],\n'
            '  "name": "x"\n}\n'
        )

    def test_coefficients_are_plain_floats(self):
        coeffs = laurent_to_doc(LaurentPoly(0, [0.5 - 0.25j, 1j]))["coeffs"]
        assert coeffs == [[0.5, -0.25], [0.0, 1.0]]
        assert all(type(x) is float for pair in coeffs for x in pair)


class TestJobSpec:
    def test_rejects_unknown_command(self):
        with pytest.raises(ValidationError):
            JobSpec(command="frobnicate")

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValidationError):
            JobSpec(command="solve", eps=2.0)
        with pytest.raises(ValidationError):
            JobSpec(command="solve", eta=0.0)
        with pytest.raises(ValidationError):
            JobSpec(command="reference", h=0.0)
        with pytest.raises(ValidationError):
            JobSpec(command="reference", radius=0)
        with pytest.raises(ValidationError):
            JobSpec(command="nlft", grid=1)
        with pytest.raises(ValidationError):
            JobSpec(command="bench", seed=-1)
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

    def test_grid_override(self, datum_file, capsys):
        path = datum_file(seq(0, [0.5]))
        assert main(["--cmd", "nlft", "--in", path, "--grid", "256"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grid"] == 256


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


class TestBenchCommand:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["--cmd", "bench", "--out", str(out), "--seed", "3"]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,sites,seconds"
        assert len(lines) == 1 + len(BENCH_SIZES)
        assert capsys.readouterr().out.startswith("fitted exponent:")


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
        [["solve", "--t", "1.0", "--eps", "1e-6", "--eta", "0.5"],
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

    def test_bad_flag_value(self):
        assert main(["--cmd", "solve", "--eps", "7.0", "--t", "1.0"]) == 2

    def test_unknown_command_rejected_by_parser(self):
        with pytest.raises(SystemExit) as info:
            main(["--cmd", "frobnicate"])
        assert info.value.code == 2
