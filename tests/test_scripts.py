"""Smoke test of the scripts under scripts/, each run as a user would."""

import os
import subprocess
import sys
from pathlib import Path

import al_ist

ROOT = Path(__file__).resolve().parents[1]


def test_compare_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(Path(al_ist.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_demo.py"), "--t", "0.5"],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "worst deviation" in proc.stdout
