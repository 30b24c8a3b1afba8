"""CLI front door: job validation, file formats, exit codes, determinism."""

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

import al_ist.cli
import al_ist.nlft
from al_ist.cli import JobSpec, build_parser, main
from al_ist.datagen import random_sequence
from al_ist.errors import ValidationError
from al_ist.laurent import LaurentPoly
from al_ist.multiplier import delta_nt
from al_ist.reference import default_radius, rk4_integrate, rk8_pair
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

    def test_pinned_text(self):
        text = sequence_to_text(seq(-1, [complex(-0.0, 0.5), complex(0.25, -0.0)]))
        assert text == (
            '{\n  "offset": -1,\n  "values": [\n'
            "    [-0.0, 0.5],\n    [0.25, -0.0]\n  ]\n}\n"
        )
        assert sequence_to_text(seq(3, [])) == '{\n  "offset": 3,\n  "values": []\n}\n'

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

    @pytest.mark.parametrize(
        "node", [[1.0], "x", None, np.zeros(2), np.zeros((1, 1), dtype=np.complex128), np.int64(1)]
    )
    def test_rejects_other_nodes(self, node):
        with pytest.raises(TypeError):
            json_text({"k": node})


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
            JobSpec(command="solve", eta=0.0)
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

    def test_refuses_reference_work_above_the_cap(self, datum_file, capsys):
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        start = time.perf_counter()
        code = main(["--cmd", "compare", "--in", path, "--t", "0.5", "--eps", "1e-6",
                     "--radius", "10000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "RK8 over 20000001 sites needs about 3e+08 site-steps" in capsys.readouterr().err


class TestPinnedArtifacts:
    """sha256 of compare and reference artifacts of one small datum; any
    change in the bits of the Runge-Kutta kernel or the window solve shows
    here."""

    @pytest.mark.parametrize(
        "args, digest",
        [
            (["compare", "--t", "1.0", "--eps", "1e-6", "--h", "0.01", "--radius", "30"],
             "515145b63dde273f20e6f4b3f754732690d5d68ccea1ed3d7d9cdd4058be0ac8"),
            (["reference", "--t", "-0.75", "--h", "0.01", "--radius", "12"],
             "9b60db35bd7200d04d1fef6a5e06e305c94778b55274bdba8f3bc8c72aac141e"),
            (["reference", "--t", "0.75", "--h", "0.01", "--boundary", "periodic"],
             "eda03c780168ff5cceddae777d61248d6fa79c36fe4e35224a8ec9c3c4432830"),
        ],
    )
    def test_digest(self, datum_file, tmp_path, args, digest):
        path = datum_file(random_sequence(seed=17, count=5, lo=-2, hi=3, max_modulus=0.5))
        out = tmp_path / "artifact"
        assert main(["--cmd", *args, "--in", path, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
