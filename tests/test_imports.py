"""scipy is not a runtime dependency: every CLI command, and the library's
Picard integrator, runs in a fresh interpreter where importing scipy fails.
Importing the CLI loads neither the vectorized array writer nor the
vectorized sequence reader."""

import json
import os
import subprocess
import sys
from pathlib import Path

import al_ist
from al_ist.datagen import random_sequence
from al_ist.seqio import FAST_FLOATS, write_sequence

# Installs a meta-path finder that refuses every scipy module, then runs the
# CLI jobs given as a JSON list and one Picard solve.
_SCRIPT = """
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked: scipy is not a runtime dependency")
        return None

sys.meta_path.insert(0, NoScipy())

import al_ist.cli
from al_ist.datagen import random_sequence
from al_ist.reference import picard_solve

for argv in json.loads(sys.argv[1]):
    code = al_ist.cli.main(argv)
    if code != 0:
        sys.exit(f"exit {code}: {argv}")
picard_solve(random_sequence(seed=5, count=4, lo=-2, hi=2, max_modulus=0.5), 0.2)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_every_command_and_picard_run_without_scipy(tmp_path):
    path = tmp_path / "q.json"
    write_sequence(random_sequence(seed=5, count=4, lo=-2, hi=2, max_modulus=0.5), str(path))
    common = ["--in", str(path), "--t", "0.5"]
    jobs = [
        ["--cmd", "solve", *common, "--eps", "1e-6", "--out", str(tmp_path / "solve.csv")],
        ["--cmd", "reference", *common, "--h", "0.05", "--out", str(tmp_path / "ref.json")],
        ["--cmd", "compare", *common, "--eps", "1e-6", "--out", str(tmp_path / "compare.csv")],
        ["--cmd", "nlft", "--in", str(path), "--out", str(tmp_path / "nlft.json")],
        ["--cmd", "multiplier", "--t", "0.5", "--n0", "8", "--out", str(tmp_path / "g.json")],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(jobs)],
        env=dict(os.environ, PYTHONPATH=str(Path(al_ist.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    for name in ("solve.csv", "ref.json", "compare.csv", "nlft.json", "g.json"):
        assert (tmp_path / name).stat().st_size > 0


def test_importing_the_cli_does_not_load_the_array_writer():
    # seqio.json_text imports al_ist.floatrows at its first long array, and
    # seqio.sequence_from_text imports al_ist.readrows at its first long
    # text, so a CLI process that writes or reads none compiles neither.
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, al_ist.cli; print([m in sys.modules for m in ('al_ist.floatrows', 'al_ist.readrows')])"],
        env=dict(os.environ, PYTHONPATH=str(Path(al_ist.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[False, False]"


def test_a_compare_job_on_a_small_datum_does_not_load_the_reader(tmp_path):
    # The benchmark's compare data have 13 sites: their files stay on the
    # json.loads path, so the worker never loads the reader.  The writer is
    # loaded exactly when the table reaches FAST_FLOATS floats, six a row:
    # 19 rows at t 0.5 stay on fmt's path, 33 at t 2 do not.
    path = tmp_path / "q.json"
    write_sequence(random_sequence(seed=3, count=13, lo=-6, hi=6, max_modulus=0.5), str(path))
    out = tmp_path / "compare.csv"
    script = ("import json, sys, al_ist.cli; code = al_ist.cli.main(json.loads(sys.argv[1])); "
              "print(code, 'al_ist.readrows' in sys.modules, 'al_ist.floatrows' in sys.modules)")
    loaded = []
    for t, eps in (("0.5", "1e-6"), ("2", "1e-10")):
        argv = ["--cmd", "compare", "--in", str(path), "--t", t, "--eps", eps, "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(argv)],
            env=dict(os.environ, PYTHONPATH=str(Path(al_ist.__file__).resolve().parents[1])),
            capture_output=True, text=True, timeout=120, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        floats = 6 * (len(out.read_text().splitlines()) - 1)
        assert proc.stdout.strip() == f"0 False {floats >= FAST_FLOATS}"
        loaded.append(floats >= FAST_FLOATS)
    assert loaded == [False, True]
