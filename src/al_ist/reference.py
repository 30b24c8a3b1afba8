"""Direct ODE integration of the defocusing Ablowitz-Ladik system,

    d/dt q(t,n) = i (1 - |q(t,n)|^2) (q(t,n-1) + q(t,n+1)),

on a truncated lattice.  Serves as the independent oracle for the fast
solver: classical RK4 for speed, a Picard fixed-point iteration as a second
scheme of entirely different character, and the conserved log-product
sum log(1 - |q(n)|^2) as a drift monitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .errors import BlowUpError, NonContractionError, ValidationError
from .sequence import Sequence

MODULUS_GUARD = 1.0 - 1e-12

# Sub-interval length for the Picard composition; the integral operator is
# a contraction with constant 6 * dt = 1/2 there.
PICARD_DT = 1.0 / 12.0
PICARD_RESIDUAL = 1e-12
PICARD_MESH = 48  # Simpson panels per sub-interval (even)
PICARD_MAX_ITER = 200


@dataclass(frozen=True)
class LatticeState:
    """Snapshot of the lattice at a fixed time."""

    q: Sequence
    t: float
    boundary: str = "zero"

    def __post_init__(self):
        if self.boundary not in ("zero", "periodic"):
            raise ValidationError("boundary must be 'zero' or 'periodic'")


def _rhs(values: np.ndarray, boundary: str) -> np.ndarray:
    # Works on a single state or on a whole (mesh, sites) trajectory; the
    # lattice index is the last axis.
    if boundary == "periodic":
        left = np.roll(values, 1, axis=-1)
        right = np.roll(values, -1, axis=-1)
    else:
        left = np.zeros_like(values)
        left[..., 1:] = values[..., :-1]
        right = np.zeros_like(values)
        right[..., :-1] = values[..., 1:]
    return 1j * (1.0 - np.abs(values) ** 2) * (left + right)


def al_rhs(s: LatticeState) -> np.ndarray:
    """Right-hand side per stored site, with the state's boundary rule."""
    return _rhs(s.q.values, s.boundary)


def default_radius(q0: Sequence, t: float) -> int:
    """Support radius plus ceil(10 (1 + |t|)); generous enough that the
    truncation is far below integrator error at desk scale."""
    sup = q0.support()
    base = 0 if sup is None else max(abs(sup[0]), abs(sup[1]))
    return base + math.ceil(10.0 * (1.0 + abs(t)))


def _initial_array(q0: Sequence, radius: int, boundary: str) -> tuple[int, np.ndarray]:
    """(offset, values) of the working lattice."""
    if boundary == "periodic":
        # The stored block is the ring; radius is not used.
        if len(q0.values) == 0:
            raise ValidationError("periodic boundary requires a nonempty ring")
        return q0.offset, q0.values.copy()
    out = np.zeros(2 * radius + 1, dtype=np.complex128)
    lo, hi = -radius, radius
    a = max(lo, q0.offset)
    b = min(hi, q0.offset + len(q0.values) - 1)
    if a <= b:
        out[a - lo : b - lo + 1] = q0.values[a - q0.offset : b - q0.offset + 1]
    return lo, out


def _guard(values: np.ndarray, context: str):
    if values.size and float(np.max(np.abs(values))) >= MODULUS_GUARD:
        raise BlowUpError(f"modulus guard tripped during {context}: max|q| >= 1 - 1e-12")


def _step_plan(span: float, h: float) -> tuple[int, float]:
    """(count, last) of the step loop over |t| = span: while time remains,
    take min(h, remaining).  Every step but the last is exactly h."""
    count, last, remaining = 0, h, span
    while remaining > 0.0:
        last = min(h, remaining)
        remaining -= last
        count += 1
    return count, last


def _rk4_rows(
    q0: Sequence, t: float, hs: tuple[float, ...], radius: int | None, boundary: str
) -> list[LatticeState]:
    """RK4 runs of one datum to time t, one row per step size in hs, all
    stepped by the same numpy calls; the layout is in rk4_integrate."""
    if any(h <= 0 for h in hs):
        raise ValidationError("step size must be positive")
    if radius is None:
        radius = default_radius(q0, t)
    offset, y0 = _initial_array(q0, radius, boundary)
    sign = 1.0 if t >= 0 else -1.0
    plans = [_step_plan(abs(t), h) for h in hs]
    # Rows sit in order of step count, so the rows still stepping are
    # always a suffix of the buffer.
    order = sorted(range(len(hs)), key=lambda r: plans[r][0])
    rows, size = len(hs), len(y0)
    stride = size + 2
    # The state (buffers[0]) and the stage (buffers[1]), each holding every
    # row as [pad | sites | pad].
    buffers = np.zeros((2, rows * stride), dtype=np.complex128)
    for p in range(rows):
        buffers[0, p * stride + 1 : p * stride + 1 + size] = y0
    # k1..k4, acc, the gain i (1 - |q|^2) whose real part stays 0, and the
    # coefficients 0.5 step, step and step / 6, each over the flat interior
    # buffers[:, 1:-1].
    work = np.zeros((9, rows * stride - 2), dtype=np.complex128)
    mod_all = np.empty(rows * stride - 2)
    periodic = boundary == "periodic"
    # Per buffer: left pads, last sites, right pads, first sites.
    rings = [(b[0::stride], b[size::stride], b[stride - 1 :: stride], b[1::stride]) for b in buffers]
    # Per buffer: the inner pad cells, between one row's sites and the next's.
    seams = [b[stride - 1 : -1].reshape(rows - 1, stride)[:, :2] for b in buffers]

    def guard(values: np.ndarray, seam: np.ndarray, context: str):
        # |q| of the state just guarded feeds the next right-hand side.
        if rows > 1:
            seam.fill(0.0)
        np.abs(values, out=mod)
        if float(mod.max()) >= MODULUS_GUARD:
            raise BlowUpError(f"modulus guard tripped during {context}: max|q| >= 1 - 1e-12")

    def rhs(ring, left: np.ndarray, right: np.ndarray, out: np.ndarray):
        # i (1 - |q|^2) * (left + right), with |q| already in mod
        if periodic:
            np.copyto(ring[0], ring[1])
            np.copyto(ring[2], ring[3])
        np.add(left, right, out=acc)
        np.square(mod, out=mod)
        np.subtract(1.0, mod, out=gain_im)
        np.multiply(gain, acc, out=out)

    def stage_from(c: np.ndarray, k: np.ndarray, context: str):
        np.multiply(c, k, out=stage)
        np.add(y, stage, out=stage)
        guard(stage, seams[1], context)

    y, mod = buffers[0, 1:-1], mod_all
    guard(y, seams[0], "initialization")
    current = [None] * rows  # the step each row's coefficients hold
    done = 0
    for first in range(rows):
        # Steps done..end run rows first.. on the suffix views.
        end = plans[order[first]][0]
        if end <= done:
            continue
        b = first * stride
        ypad, spad = buffers[:, b:]
        y, stage = ypad[1:-1], spad[1:-1]
        y_left, y_right, s_left, s_right = ypad[:-2], ypad[2:], spad[:-2], spad[2:]
        k1, k2, k3, k4, acc, gain, c_half, c_full, c_sixth = work[:, b:]
        gain_im, mod = gain.imag, mod_all[b:]
        for i in range(done, end):
            for p in range(first, rows):
                count, last = plans[order[p]]
                step = sign * (hs[order[p]] if i < count - 1 else last)
                if step != current[p]:
                    current[p] = step
                    cells = slice(p * stride, p * stride + size)
                    work[6:, cells] = np.array([[0.5 * step], [step], [step / 6.0]])
            rhs(rings[0], y_left, y_right, k1)
            stage_from(c_half, k1, "rk4 stage")
            rhs(rings[1], s_left, s_right, k2)
            stage_from(c_half, k2, "rk4 stage")
            rhs(rings[1], s_left, s_right, k3)
            stage_from(c_full, k3, "rk4 stage")
            rhs(rings[1], s_left, s_right, k4)
            # y + (step / 6) * (((k1 + 2 k2) + 2 k3) + k4)
            np.multiply(2.0, k2, out=k2)
            np.add(k1, k2, out=acc)
            np.multiply(2.0, k3, out=k3)
            np.add(acc, k3, out=acc)
            np.add(acc, k4, out=acc)
            np.multiply(c_sixth, acc, out=acc)
            np.add(y, acc, out=y)
            guard(y, seams[0], "rk4 step")
        done = end
    states = [None] * rows
    for p, r in enumerate(order):
        values = buffers[0, p * stride + 1 : p * stride + 1 + size]
        states[r] = LatticeState(Sequence(offset, values), t, boundary)
    return states


def rk4_integrate(
    q0: Sequence, t: float, h: float, radius: int | None = None, boundary: str = "zero"
) -> LatticeState:
    """Classical four-stage Runge-Kutta to time t (the final partial step is
    shortened to land exactly on t).  Any intermediate state with
    max|q| >= 1 - 1e-12 aborts with a blow-up error.

    This is the one-row case of the kernel behind rk4_pair.  A row is the
    lattice laid out as [pad | sites | pad]; rows sit back to back in one
    buffer, and every numpy call acts once on the flat interior of the
    buffer, so the neighbour sum is buffer[:-2] + buffer[2:].  Pad rule:
    for the periodic boundary every pad cell takes its row's ring end
    before every right-hand side; the inner pad cells (between two rows)
    are zeroed before every guard, so they hold zero at each right-hand
    side of the zero boundary and never trip the guard.  Every update runs in
    place, in the operation order of the textbook step, so each row matches
    a loop with fresh arrays bit for bit.
    """
    return _rk4_rows(q0, t, (h,), radius, boundary)[0]


def rk4_pair(
    q0: Sequence, t: float, h: float, radius: int | None = None, boundary: str = "zero"
) -> tuple[LatticeState, LatticeState]:
    """(rk4_integrate at step h, rk4_integrate at step h/2), bit for bit,
    from one run of the shared kernel: the two rows of the layout described
    in rk4_integrate share every numpy call while both step, and the fine
    row runs on alone for its second half.  Every stage of every row is
    guarded; when a guard trips, the stage it names is the first trip in
    the interleaved order, which may differ from running h, then h/2."""
    coarse, fine = _rk4_rows(q0, t, (h, h / 2.0), radius, boundary)
    return coarse, fine


def _picard_subinterval(y0: np.ndarray, dt: float, boundary: str) -> np.ndarray:
    """Fixed-point iteration for the integral form on one sub-interval.

    The unknown is the trajectory on a fixed Simpson mesh; the map is
    u -> y0 + cumulative integral of F(u).  Starting from the constant
    trajectory, the first iterate is y0 + tau F(y0) exactly.
    """
    mesh = PICARD_MESH + 1
    u = np.tile(y0, (mesh, 1))
    for _ in range(PICARD_MAX_ITER):
        f = _rhs(u, boundary)
        # cumulative_simpson mishandles complex input (real internal buffer),
        # so the two real integrals are taken separately.
        integral = cumulative_simpson(
            f.real, dx=dt / PICARD_MESH, axis=0, initial=0.0
        ) + 1j * cumulative_simpson(f.imag, dx=dt / PICARD_MESH, axis=0, initial=0.0)
        new = y0[None, :] + integral
        residual = float(np.max(np.abs(new - u)))
        u = new
        if residual <= PICARD_RESIDUAL:
            _guard(u[-1], "picard sub-interval")
            return u[-1]
    raise NonContractionError(
        f"Picard iteration residual stalled above {PICARD_RESIDUAL} "
        f"after {PICARD_MAX_ITER} sweeps"
    )


def picard_solve(q0: Sequence, t: float, radius: int | None = None) -> LatticeState:
    """Integral-equation solution composed from sub-intervals of length 1/12,
    each iterated to fixed-point residual <= 1e-12 (zero boundary)."""
    if radius is None:
        radius = default_radius(q0, t)
    offset, y = _initial_array(q0, radius, "zero")
    _guard(y, "initialization")
    remaining = abs(t)
    sign = 1.0 if t >= 0 else -1.0
    while remaining > 0.0:
        dt = sign * min(PICARD_DT, remaining)
        y = _picard_subinterval(y, dt, "zero")
        remaining -= abs(dt)
    return LatticeState(Sequence(offset, y), t, "zero")


def conserved_product(s: LatticeState) -> float:
    """sum log(1 - |q(n)|^2): the log of the flow's conserved product."""
    if len(s.q.values) == 0:
        return 0.0
    return float(np.sum(np.log1p(-np.abs(s.q.values) ** 2)))
