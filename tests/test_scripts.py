"""Smoke test of the scripts under scripts/, each run as a user would."""

import os
import re
import subprocess
import sys
from pathlib import Path

import al_ist

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(al_ist.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_compare_demo_runs():
    assert "worst deviation" in run_script("compare_demo.py", "--t", "0.5")


def test_compare_demo_lattice_covers_a_long_time_window():
    # At t 40 the window reaches site 90; on a fixed 60-site lattice its
    # outer rows read the truncation, not the flow.
    last = run_script("compare_demo.py", "--t", "40").strip().splitlines()[-1]
    worst, budget = map(float, re.fullmatch(
        r"worst deviation (\S+), largest budget (\S+)", last).groups())
    assert worst <= budget


def test_artifact_digests_repeat():
    # One line per job of the three seed-1 rounds (11 point, 11 compare and
    # 7 nlft jobs), per fixed solver case and per fixed writer case, then
    # the total.
    first = run_script("artifact_digests.py", "--seeds", "1")
    lines = first.splitlines()
    assert len(lines) == 11 + 11 + 7 + 17 + 6 + 1 and lines[-1].startswith("total: ")
    assert run_script("artifact_digests.py", "--seeds", "1") == first
