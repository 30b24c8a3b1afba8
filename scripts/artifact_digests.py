"""Per-job digests of the solver's values, budgets and CLI artifacts.

Two trees that print the same lines give bit-identical results on every
job of the benchmark rounds (perfbench/jobs.build for the point, compare
and nlft workloads) and on a few fixed solver and writer cases that those
rounds lack.  A point job hashes solve_point's value and budget as
float.hex; a compare or nlft job hashes perfbench/worker.Runner.run's
digest (exit code, stderr and output bytes).  A fixed solver case hashes
its values, budgets and parameters, or the type and message of its
refusal; a fixed command case hashes its exit code, stderr and output
bytes, written to --out or to stdout.  Each nlft line adds, after
"transform", the sha256 of its artifact's transform fields (a, b,
a_at_zero, grid and the Szego rhs; "none" without an artifact), so that a
change which moves only the grid checks' residuals shows as such.  The
last line is the sha256 of all the lines before it.

Usage, from the repository root with src on PYTHONPATH:
    python scripts/artifact_digests.py [--seeds 1 2 3 4 5]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import jobs  # noqa: E402
import worker  # noqa: E402

from al_ist.cli import main as cli_main  # noqa: E402
from al_ist.datagen import dense_random_sequence  # noqa: E402
from al_ist.seqio import write_sequence  # noqa: E402
from al_ist.sequence import Sequence  # noqa: E402
from al_ist.solver import solve_point, solve_window_detailed  # noqa: E402


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def transform(body: bytes) -> str:
    """sha256 of an nlft artifact's transform fields, or "none" for no
    artifact: they must not move where only the grid checks change."""
    if not body:
        return "none"
    doc = json.loads(body)
    return sha(json.dumps([doc["a"], doc["b"], doc["a_at_zero"], doc["grid"],
                           doc["szego_identity"]["rhs"]]))


def hexes(values) -> str:
    return " ".join(float(x).hex() for x in values)


def solved(solve, *args) -> str:
    """The hex of a solve's values, budgets and parameters, or its refusal."""
    try:
        if solve is solve_point:
            value, budget = solve_point(*args)
            return hexes([value.real, value.imag, budget.localization, budget.truncation])
        window, budgets, p = solve_window_detailed(*args)
    except Exception as exc:  # a refusal is a result too
        return f"{type(exc).__name__}: {exc}"
    values = window.values
    return (f"{window.offset} {hexes(values.real)} {hexes(values.imag)} {hexes(budgets)} "
            f"{p.N} {p.r.hex()} {p.eta.hex()} {p.reflect}")


def command(workdir: Path, datum: Sequence, args: list[str],
            stdout: bool = False) -> tuple[str, bytes]:
    """Exit code, stderr and the hash of the output bytes of one CLI run on
    datum, and those bytes, the output written to --out, or to stdout where
    stdout is set."""
    source, out = workdir / "case.json", workdir / "case.out"
    write_sequence(datum, str(source))
    out.unlink(missing_ok=True)
    err, text = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(text):
        code = cli_main(["--in", str(source), *([] if stdout else ["--out", str(out)]), *args])
    body = out.read_bytes() if out.exists() else text.getvalue().encode()
    return f"{code}\n{err.getvalue()}\n{hashlib.sha256(body).hexdigest()}", body


def benchmark_lines(seeds: list[int], workdir: Path):
    for workload in jobs.WORKLOADS:
        for seed in seeds:
            data, round_ = jobs.build(workload, seed)
            place = workdir / f"{workload}{seed}"
            place.mkdir()
            runner = worker.Runner(workload, data, place)
            for job in sorted(round_, key=lambda job: job["id"]):
                _, outcome = runner.run(job)
                digest = sha(outcome["digest"])
                if workload == "nlft":
                    out = Path(outcome["output"]["path"])
                    digest += f" transform {transform(out.read_bytes() if out.exists() else b'')}"
                yield f"{workload} seed {seed} job {job['id']}", digest


def uniform(eta: float) -> Sequence:
    """Three sites of equal modulus on [-1, 1] with Szego product eta."""
    return Sequence(-1, math.sqrt(1.0 - eta ** (1.0 / 3.0)) * np.exp(2j * np.arange(3)))


def fixed_lines(workdir: Path):
    bench = jobs.build("point", 1)[0][1]  # seven sites on [-6, 6], eta 0.22
    wide = Sequence(0, np.r_[0.05, np.zeros(399), 0.05j])  # support wider than its closed form
    far = Sequence(0, np.array([math.sqrt(0.998)]))
    cases = {
        "point negative t": (solve_point, bench, -2.0, 0, 1e-10),
        "window negative t": (solve_window_detailed, bench, -2.0, 0, 1e-10),
        "point n0 left of the support": (solve_point, bench, 6.0, -12, 1e-10),
        # Both mirror the datum about n0 and conjugate it: no benchmark job
        # does both in one pass.
        "point mirrored negative t n0 12": (solve_point, bench, -6.0, 12, 1e-10),
        "point mirrored negative t n0 3": (solve_point, bench, -2.0, 3, 1e-10),
        "window n0 left of the support": (solve_window_detailed, bench, 2.0, -12, 1e-6),
        "point zero datum": (solve_point, Sequence(0, []), -1.0, 2, 1e-6),
        "window zero datum": (solve_window_detailed, Sequence(0, []), 1.0, 2, 1e-6),
        "window missing the datum": (solve_window_detailed, far, 2.0, 10_000, 1e-10),
        "point t 0": (solve_point, bench, 0.0, 0, 1e-6),
        "window t 0": (solve_window_detailed, bench, 0.0, 0, 1e-6),
        "point support wider than its closed form": (solve_point, wide, 0.5, 0, 1e-6),
        "point over the update cap": (solve_point, uniform(2e-4), 0.5, 0, 1e-10),
        "window over the update cap": (solve_window_detailed, uniform(0.001), 0.5, 0, 1e-10),
        "window over the half-width cap": (solve_window_detailed, uniform(1e-8), 1.0, 0, 1e-6),
    }
    for label, (solve, *args) in cases.items():
        yield label, sha(solved(solve, *args))
    for n0 in (0, -12):
        args = ["--cmd", "solve", "--t", "-2.0", "--eps", "1e-10", "--n0", str(n0)]
        yield f"solve command negative t n0 {n0}", sha(command(workdir, bench, args)[0])
    # Every JSON writer: a sequence (reference), G's coefficients
    # (multiplier), a and b below FAST_FLOATS floats and over several
    # unequal vectorized passes, to stdout, and a job that trips a guard
    # after its writer began.
    small = dense_random_sequence(11, -3, 20, 0.3)
    uneven = dense_random_sequence(12, -700, 5001, 0.04, 0.01)
    breakdown = Sequence(0, 0.999999 * np.exp(1j * np.arange(64)))
    writers = {
        "reference command": (bench, ["--cmd", "reference", "--t", "0.5", "--h", "0.01",
                                      "--radius", "150"], False),
        "multiplier command": (bench, ["--cmd", "multiplier", "--t", "30", "--n0", "200"], False),
        "nlft command below FAST_FLOATS": (small, ["--cmd", "nlft"], False),
        "nlft command over unequal passes": (uneven, ["--cmd", "nlft"], False),
        "nlft command to stdout": (uneven, ["--cmd", "nlft"], True),
        "nlft command guard tripped": (breakdown, ["--cmd", "nlft"], False),
        # Data away from 0, whose grid follows the support's length alone.
        "nlft command two sites at 10^6": (Sequence(10**6, np.array([0.5, 0.25j])),
                                           ["--cmd", "nlft"], False),
        "nlft command 64 sites at 5 000": (dense_random_sequence(13, 5_000, 64, 0.3),
                                           ["--cmd", "nlft"], False),
    }
    for label, (datum, args, stdout) in writers.items():
        text, body = command(workdir, datum, args, stdout)
        digest = sha(text)
        if "nlft" in args:
            digest += f" transform {transform(body)}"
        yield label, digest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = parser.parse_args()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for label, digest in [*benchmark_lines(args.seeds, workdir), *fixed_lines(workdir)]:
            lines.append(f"{label}: {digest}")
            print(lines[-1])
    print(f"total: {sha(chr(10).join(lines))}")


if __name__ == "__main__":
    main()
