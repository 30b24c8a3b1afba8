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
import math
import sys
# Unused here; perfbench/spans.py patches cli.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass

import numpy as np

from .errors import NumericalGuardError, ValidationError
from .laurent import CircleGrid, lp_eval_grid
from .nlft import grid_identities, identity_grid, nlft_forward
from .reference import default_radius, rk4_integrate, rk8_pair
from .sequence import Sequence
from .seqio import csv_table, json_text, laurent_to_doc, read_sequence, sequence_to_text
from .solver import solve_window_detailed
from .multiplier import bundle_grid_size, g_bundle, p_poly

COMMANDS = ("solve", "reference", "compare", "nlft", "multiplier")

# Cap on the nodes of an nlft or multiplier evaluation grid (--grid or the
# default): 64 MB per complex array.  The default nlft grid grows with the
# sites' distance from 0, so a far offset alone could ask for gigabytes.
GRID_NODE_CAP = 2**22


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


def _emit(job: JobSpec, text: str):
    if job.output_path is None:
        sys.stdout.write(text)
    else:
        with open(job.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    rows = [
        [window.offset + i, float(v.real), float(v.imag), float(b)]
        for i, (v, b) in enumerate(zip(window.values, budgets))
    ]
    _emit(job, csv_table(["n", "re", "im", "budget"], rows))
    return 0


def _run_reference(job: JobSpec) -> int:
    _require(job.t is not None, "reference needs --t")
    datum = _input_sequence(job)
    state = rk4_integrate(datum, job.t, job.h, job.radius, job.boundary)
    _emit(job, sequence_to_text(state.q))
    return 0


def _run_compare(job: JobSpec) -> int:
    _require(job.t is not None, "compare needs --t")
    _require(job.eps is not None, "compare needs --eps")
    # The solver evolves the datum on Z, zero outside its support; a ring
    # reference is another flow, so every site would read as a failure.
    _require(job.boundary == "zero", "compare needs the zero boundary")
    datum = _input_sequence(job)
    window, _, _ = solve_window_detailed(datum, job.t, job.n0, job.eps)
    radius = job.radius
    if radius is None:
        # A low-eta window can reach past default_radius; its outer rows
        # would be compared against sites the reference never computed.
        reach = max(abs(window.offset), abs(window.offset + len(window.values) - 1))
        radius = max(default_radius(datum, job.t), reach)
    coarse, fine = rk8_pair(datum, job.t, radius)
    # Each row read once on the window's sites, as Python complexes, zero
    # where an undersized --radius left a site out.  Their abs is hypot,
    # as it is for numpy's complex scalars; np.abs on a complex array can
    # differ from it in the last bit.
    lo, hi = window.offset, window.offset + len(window.values) - 1
    coarse_refs, fine_refs = (row.q.windowed(lo, hi).values.tolist() for row in (coarse, fine))

    rows = []
    failures = 0
    for n, value, ref, ref_coarse in zip(
        range(lo, hi + 1), window.values.tolist(), fine_refs, coarse_refs
    ):
        # Richardson estimate for the order-8 reference, plus a roundoff
        # floor; the certified budget covers the solver side.
        ref_error = abs(ref_coarse - ref) / 255.0 + 1e-12
        deviation = abs(value - ref)
        allowance = job.eps + ref_error
        ok = deviation <= allowance
        failures += 0 if ok else 1
        verdict = "pass" if ok else "fail"
        rows.append([n, value.real, value.imag, ref.real, ref.imag, deviation, allowance, verdict])
    header = ["n", "re", "im", "ref_re", "ref_im", "deviation", "allowance", "verdict"]
    _emit(job, csv_table(header, rows))
    return 1 if failures else 0


def _run_nlft(job: JobSpec) -> int:
    datum = _input_sequence(job)
    grid = _grid(job.grid if job.grid is not None else identity_grid(datum).size)
    # Every site has |q| < 1, so the exact product passes its witness and
    # its reflection coefficient stays inside the unit disk.  Where float64
    # loses either (|a| beyond its range, or cancelled to noise), that is a
    # numerical limit of the datum, not a fault in it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = nlft_forward(datum)
        try:
            m.validate()
        except ValidationError as exc:
            raise NumericalGuardError(f"float64 transfer product fails its witness: {exc}") from exc
        szego_lhs, szego_rhs, residual = grid_identities(datum, grid, m)
    if not (math.isfinite(szego_lhs) and math.isfinite(residual)):
        raise NumericalGuardError(
            "float64 reflection coefficient is not inside the unit disk on the grid; "
            "the Szego identity cannot be evaluated"
        )
    doc = {
        "a": laurent_to_doc(m.a),
        "b": laurent_to_doc(m.b),
        "a_at_zero": float(m.a_at_zero().real),
        "unitarity_residual": residual,
        "szego_identity": {"lhs": szego_lhs, "rhs": szego_rhs, "residual": abs(szego_lhs - szego_rhs)},
        "grid": grid.size,
    }
    _emit(job, json_text(doc))
    return 0


def _run_multiplier(job: JobSpec) -> int:
    _require(job.t is not None, "multiplier needs --t")
    _require(job.n0 >= 1, "multiplier needs a positive order in --n0")
    order = job.n0
    default = bundle_grid_size(order)
    _grid(default)
    grid = _grid(job.grid if job.grid is not None else default)
    bundle = g_bundle(order, job.t)
    phase = np.exp(1j * job.t * (grid.nodes + 1.0 / grid.nodes))
    p_error = float(np.max(np.abs(lp_eval_grid(p_poly(order, job.t), grid) - phase)))
    g_peak = float(np.max(np.abs(lp_eval_grid(bundle.g, grid))))
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
    _emit(job, json_text(doc))
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
