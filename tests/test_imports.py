"""What a fresh CLI process loads: no scipy at import, nor for nlft and
reference jobs; scipy.special, and nothing else of scipy, for solve."""

import json
import os
import subprocess
import sys
from pathlib import Path

import al_ist
from al_ist.datagen import random_sequence
from al_ist.seqio import write_sequence

# Runs CLI jobs in one fresh interpreter and prints, as one JSON list, the
# scipy modules loaded after the import and after each job.
_SCRIPT = """
import json, sys
import al_ist.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    if al_ist.cli.main(argv) != 0:
        sys.exit(f"job failed: {argv}")
    seen.append(scipy_modules())
print(json.dumps(seen))
"""


def _scipy_after_each(jobs: list[list[str]]) -> list[list[str]]:
    env = dict(os.environ, PYTHONPATH=str(Path(al_ist.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(jobs)],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_jobs_load_scipy_special_only_for_bessel_coefficients(tmp_path):
    path = tmp_path / "q.json"
    write_sequence(random_sequence(seed=5, count=4, lo=-2, hi=2, max_modulus=0.5), str(path))
    common = ["--in", str(path), "--t", "0.5"]
    at_import, after_nlft, after_reference, after_solve = _scipy_after_each([
        ["--cmd", "nlft", "--in", str(path), "--out", str(tmp_path / "nlft.json")],
        ["--cmd", "reference", *common, "--h", "0.05", "--out", str(tmp_path / "ref.json")],
        ["--cmd", "solve", *common, "--eps", "1e-6", "--out", str(tmp_path / "solve.csv")],
    ])
    assert at_import == after_nlft == after_reference == []
    assert "scipy.special" in after_solve
    assert not [m for m in after_solve if m.startswith(("scipy.integrate", "scipy.optimize",
                                                         "scipy.sparse"))]
