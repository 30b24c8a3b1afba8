"""Command-line front door for batch computations.

One job per process invocation.  Subcommands:

  solve       certified window solve; CSV table n, re, im, budget
  reference   RK4 lattice snapshot; sequence JSON
  compare     solver vs reference, per-site deviation table and verdict
  nlft        transfer-matrix product (a, b) plus identity residuals; JSON
  multiplier  scattering-multiplier bundle and bound checks; JSON
              (the polynomial order is read from --n0)

Exit codes: 0 success, 1 compare found deviations beyond the allowance,
2 validation error, 3 numerical guard tripped.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .laurent import CircleGrid, coset_length, lp_eval_cosets
from .nlft import Transfer2x2, grid_identities, identity_grid, nlft_forward
from .reference import lattice_radius, rk4_integrate, rk8_pair
from .sequence import SITE_BOUND, Sequence
from .seqio import csv_table, json_pieces, laurent_to_doc, read_sequence, sequence_doc
# The writers stream json_pieces and call no json_text; the name stays here
# because the benchmark's tracer (perfbench/spans.py) wraps cli.json_text.
from .seqio import json_text  # noqa: F401
from .solver import solve_window_detailed
from .multiplier import bundle_grid_size, g_bundle, p_poly

COMMANDS = ("solve", "reference", "compare", "nlft", "multiplier")

# Cap on the nodes K of an nlft or multiplier evaluation grid (--grid or the
# default).  The checks run one coset of L nodes at a time
# (laurent.lp_eval_cosets), so the cap bounds their work, about K log L,
# not their memory.  The default nlft grid follows the support's length,
# not its distance from 0, so only --grid, a support above 2^19 sites or a
# multiplier order above 2^20 reaches it.
GRID_NODE_CAP = 2**22

# The one worker thread of the nlft checks: the pool starts it at the first
# job's submit, not at import, and keeps it for the process.  A pool made per
# job starts a thread in every job, 0.1-0.35 ms of a 3.5-6 ms job at 1 024
# and 2 048 sites (in process, least of 15, 2-core x86 host).
_CHECKS = ThreadPoolExecutor(max_workers=1)


@dataclass(frozen=True)
class JobSpec:
    """Validated job description; numeric ranges are checked on construction
    and command-specific requirements in run()."""

    command: str
    input_path: str | None = None
    output_path: str | None = None
    t: float | None = None
    n0: int = 0
    eps: float | None = None
    h: float = 1e-3
    radius: int | None = None
    grid: int | None = None
    boundary: str = "zero"

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValidationError(f"unknown command {self.command!r}")
        if not -SITE_BOUND <= self.n0 <= SITE_BOUND:
            raise ValidationError("n0 must lie in [-2^62, 2^62], the sites a sequence can hold")
        if self.t is not None and not math.isfinite(self.t):
            raise ValidationError("t must be finite")
        if self.eps is not None and not 0.0 < self.eps < 1.0:
            raise ValidationError("eps must lie in (0, 1)")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValidationError("h must be positive")
        if self.radius is not None and self.radius < 1:
            raise ValidationError("radius must be a positive integer")
        if self.grid is not None and self.grid < 2:
            raise ValidationError("grid size must be at least 2")
        if self.boundary not in ("zero", "periodic"):
            raise ValidationError('boundary must be "zero" or "periodic"')


def _require(ok: bool, message: str):
    if not ok:
        raise ValidationError(message)


def _emit(job: JobSpec, pieces: Iterable[str]):
    """Write the artifact's pieces, in order, to --out, or to stdout without
    it, each as it comes, so that no whole text is built.  If making or
    writing a piece raises (a check that trips while the text waits on it,
    an OSError), the partly written --out file is removed before the error
    propagates: a job that fails leaves no output file.  An OSError of
    opening, writing or flushing --out itself (a directory, a missing
    parent, a full disk) propagates as a ValidationError that names the
    path; one of making a piece propagates as it is.  Only a regular file
    is removed, never a device such as /dev/null.  On stdout the pieces
    written before the error stay written."""
    if job.output_path is None:
        sys.stdout.writelines(pieces)
        return
    path = job.output_path
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    try:
        with fh:
            for piece in pieces:
                try:
                    fh.write(piece)
                except OSError as exc:
                    raise _unwritable(path, exc) from exc
            try:
                fh.flush()  # a full disk shows here at the latest, not at close
            except OSError as exc:
                raise _unwritable(path, exc) from exc
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def _unwritable(path: str, exc: OSError) -> ValidationError:
    return ValidationError(f"cannot write output file {path}: {exc.strerror or exc}")


def _check_out(path: str):
    """Refuse, as _emit would, an --out that is a directory or whose parent
    directory does not exist, before the job's work; the file itself is not
    opened or made here."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise _unwritable(path, OSError(code, os.strerror(code)))


def _grid(size: int) -> CircleGrid:
    """CircleGrid(size), refused above GRID_NODE_CAP before any evaluation."""
    _require(
        size <= GRID_NODE_CAP,
        f"evaluation grid of {size} nodes exceeds GRID_NODE_CAP = {GRID_NODE_CAP}",
    )
    return CircleGrid(size)


def _input_sequence(job: JobSpec) -> Sequence:
    _require(job.input_path is not None, f"{job.command} needs --in")
    return read_sequence(job.input_path)


def _run_solve(job: JobSpec) -> int:
    _require(job.t is not None, "solve needs --t")
    _require(job.eps is not None, "solve needs --eps")
    datum = _input_sequence(job)
    window, budgets, _ = solve_window_detailed(datum, job.t, job.n0, job.eps)
    values = window.values
    sites = np.arange(window.offset, window.offset + len(values))
    columns = [sites, values.real, values.imag, budgets]
    _emit(job, [csv_table(["n", "re", "im", "budget"], columns)])
    return 0


def _run_reference(job: JobSpec) -> int:
    _require(job.t is not None, "reference needs --t")
    datum = _input_sequence(job)
    state = rk4_integrate(datum, job.t, job.h, job.radius, job.boundary)
    _emit(job, json_pieces(sequence_doc(state.q)))
    return 0


def _run_compare(job: JobSpec) -> int:
    _require(job.t is not None, "compare needs --t")
    _require(job.eps is not None, "compare needs --eps")
    # The solver evolves the datum on Z, zero outside its support; a ring
    # reference is another flow, so every site would read as a failure.
    _require(job.boundary == "zero", "compare needs the zero boundary")
    datum = _input_sequence(job)
    window, _, _ = solve_window_detailed(datum, job.t, job.n0, job.eps)
    values = window.values
    lo, hi = window.offset, window.offset + len(values) - 1
    # Without --radius the lattice is the least whose truncation moves no
    # window site by more than TRUNCATION_TOL; it reaches every window site.
    radius = job.radius if job.radius is not None else lattice_radius(datum, job.t, lo, hi)
    coarse, fine = rk8_pair(datum, job.t, radius)
    # The rows on the window's sites, zero where an undersized --radius left
    # a site out.
    ref_coarse, ref = (row.q.windowed(lo, hi).values for row in (coarse, fine))
    # Moduli by np.hypot, which gives Python's complex abs bit for bit: of
    # 2e5 random differences none differed, and np.abs differed on 65 570
    # (numpy 2.4.6, x86-64 with AVX-512).
    gap, spread = values - ref, ref_coarse - ref
    deviation = np.hypot(gap.real, gap.imag)
    # Richardson estimate for the order-8 reference, plus a roundoff floor;
    # the certified budget covers the solver side.
    allowance = job.eps + (np.hypot(spread.real, spread.imag) / 255.0 + 1e-12)
    ok = deviation <= allowance
    columns = [np.arange(lo, hi + 1), values.real, values.imag, ref.real, ref.imag, deviation,
               allowance, np.where(ok, "pass", "fail")]
    header = ["n", "re", "im", "ref_re", "ref_im", "deviation", "allowance", "verdict"]
    _emit(job, [csv_table(header, columns)])
    return 0 if ok.all() else 1


def _nlft_checks(datum: Sequence, grid: CircleGrid, m: Transfer2x2) -> tuple[float, float, float]:
    """(Szego lhs, Szego rhs, unitarity residual) of the nlft job's product m
    after its witness, from one evaluation of a and b on the grid, coset by
    coset (grid_identities); a guard that trips raises NumericalGuardError."""
    # Every site has |q| < 1, so the exact product passes its witness and
    # its reflection coefficient stays inside the unit disk.  Where float64
    # loses either (|a| beyond its range, or cancelled to noise), that is a
    # numerical limit of the datum, not a fault in it.  This runs on the
    # worker thread, which does not inherit the caller's numpy error state.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            szego_lhs, szego_rhs, residual = grid_identities(datum, m, grid, witness=True)
        except ValidationError as exc:
            raise NumericalGuardError(f"float64 transfer product fails its witness: {exc}") from exc
    if not (math.isfinite(szego_lhs) and math.isfinite(residual)):
        raise NumericalGuardError(
            "float64 reflection coefficient is not inside the unit disk on the grid; "
            "the Szego identity cannot be evaluated"
        )
    return szego_lhs, szego_rhs, residual


def _run_nlft(job: JobSpec) -> int:
    datum = _input_sequence(job)
    grid = _grid(job.grid if job.grid is not None else identity_grid(datum).size)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = nlft_forward(datum)
    # The checks run on the worker while this thread writes a and b; the
    # writer waits on them only where their values stand.
    checks = _CHECKS.submit(_nlft_checks, datum, grid, m)

    def szego_identity() -> dict:
        lhs, rhs, _ = checks.result()
        return {"lhs": lhs, "rhs": rhs, "residual": abs(lhs - rhs)}

    doc = {
        "a": laurent_to_doc(m.a),
        "b": laurent_to_doc(m.b),
        "a_at_zero": float(m.a_at_zero().real),
        "unitarity_residual": lambda: checks.result()[2],
        "szego_identity": szego_identity,
        "grid": grid.size,
    }
    try:
        _emit(job, json_pieces(doc))
    finally:
        checks.exception()  # wait on every path, so that no job's checks outlive it
    return 0


def _run_multiplier(job: JobSpec) -> int:
    _require(job.t is not None, "multiplier needs --t")
    _require(job.n0 >= 1, "multiplier needs a positive order in --n0")
    order = job.n0
    default = bundle_grid_size(order)
    _grid(default)
    grid = _grid(job.grid if job.grid is not None else default)
    bundle = g_bundle(order, job.t)
    # max |P - e^{it(z + 1/z)}| and max |G| over the grid, one coset at a
    # time, each coset's nodes formed as grid.nodes forms them.
    polys = (p_poly(order, job.t), bundle.g)
    length = coset_length(grid, *polys)
    cosets = grid.size // length
    errors, peaks = [], []
    for c, (p_values, g_values) in enumerate(lp_eval_cosets(polys, grid, length)):
        nodes = grid.nodes_at(np.arange(c, grid.size, cosets))
        phase = np.exp(1j * job.t * (nodes + 1.0 / nodes))
        errors.append(np.max(np.abs(p_values - phase)))
        peaks.append(np.max(np.abs(g_values)))
    p_error, g_peak = float(np.max(errors)), float(np.max(peaks))
    doc = {
        "n": order,
        "t": job.t,
        "delta": bundle.delta,
        "p_error_max": p_error,
        "g_peak": g_peak,
        "checks": {
            "p_within_delta": p_error <= bundle.delta,
            "g_inside_disk": g_peak < 1.0,
        },
        "grid": grid.size,
        "g": laurent_to_doc(bundle.g),
    }
    _emit(job, json_pieces(doc))
    return 0


_DISPATCH = {
    "solve": _run_solve,
    "reference": _run_reference,
    "compare": _run_compare,
    "nlft": _run_nlft,
    "multiplier": _run_multiplier,
}


def run(job: JobSpec) -> int:
    """Execute one job; returns the process exit status."""
    try:
        if job.output_path is not None:
            _check_out(job.output_path)
        return _DISPATCH[job.command](job)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard tripped: {exc}", file=sys.stderr)
        return 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="al-ist",
        description="Defocusing Ablowitz-Ladik lattice solver via the nonlinear Fourier transform.",
    )
    parser.add_argument(
        "--cmd", dest="command", required=True, choices=COMMANDS, help="subcommand to run"
    )
    parser.add_argument("--in", dest="input_path", help="input sequence file")
    parser.add_argument("--out", dest="output_path", help="output file (default: stdout)")
    parser.add_argument("--t", type=float, help="evolution time")
    parser.add_argument("--n0", type=int, default=0, help="center site (multiplier: polynomial order)")
    parser.add_argument("--eps", type=float, help="certified accuracy target")
    parser.add_argument(
        "--h", type=float, default=1e-3,
        help="RK4 step of the reference command (compare steps its own order-8 pair)",
    )
    parser.add_argument("--radius", type=int, help="reference lattice truncation radius")
    parser.add_argument("--grid", type=int, help="evaluation grid size")
    parser.add_argument("--boundary", choices=("zero", "periodic"), default="zero")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        job = JobSpec(**vars(args))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    return run(job)


if __name__ == "__main__":
    sys.exit(main())
