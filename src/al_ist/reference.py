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


def rk4_integrate(
    q0: Sequence, t: float, h: float, radius: int | None = None, boundary: str = "zero"
) -> LatticeState:
    """Classical four-stage Runge-Kutta to time t (the final partial step is
    shortened to land exactly on t).  Any intermediate state with
    max|q| >= 1 - 1e-12 aborts with a blow-up error."""
    if h <= 0:
        raise ValidationError("step size must be positive")
    if radius is None:
        radius = default_radius(q0, t)
    offset, y0 = _initial_array(q0, radius, boundary)
    # The state and the stage each live in a buffer padded by one site at
    # either end, so the neighbour sum is pad[:-2] + pad[2:]: the zero
    # boundary never writes the end cells, the periodic one refills them.
    # Every update runs in place, in the operation order of _rhs and of the
    # textbook step, so the result matches the allocating loop bit for bit.
    size = len(y0)
    ypad = np.zeros(size + 2, dtype=np.complex128)
    spad = np.zeros(size + 2, dtype=np.complex128)
    y, stage = ypad[1:-1], spad[1:-1]
    y[:] = y0
    k1, k2, k3, k4, acc = (np.empty(size, dtype=np.complex128) for _ in range(5))
    mod = np.empty(size)
    periodic = boundary == "periodic"

    def guard(values: np.ndarray, context: str):
        # |q| of the state just guarded feeds the next right-hand side.
        np.abs(values, out=mod)
        if float(mod.max()) >= MODULUS_GUARD:
            raise BlowUpError(f"modulus guard tripped during {context}: max|q| >= 1 - 1e-12")

    def rhs(pad: np.ndarray, out: np.ndarray):
        # 1j * (1 - |q|^2) * (left + right), with |q| already in mod
        if periodic:
            pad[0], pad[-1] = pad[-2], pad[1]
        np.add(pad[:-2], pad[2:], out=acc)
        np.square(mod, out=mod)
        np.subtract(1.0, mod, out=mod)
        np.multiply(1j, mod, out=out)
        np.multiply(out, acc, out=out)

    def stage_from(c: float, k: np.ndarray, context: str):
        np.multiply(c, k, out=stage)
        np.add(y, stage, out=stage)
        guard(stage, context)

    guard(y, "initialization")
    remaining = abs(t)
    sign = 1.0 if t >= 0 else -1.0
    while remaining > 0.0:
        step = sign * min(h, remaining)
        rhs(ypad, k1)
        stage_from(0.5 * step, k1, "rk4 stage")
        rhs(spad, k2)
        stage_from(0.5 * step, k2, "rk4 stage")
        rhs(spad, k3)
        stage_from(step, k3, "rk4 stage")
        rhs(spad, k4)
        # y + (step / 6) * (((k1 + 2 k2) + 2 k3) + k4)
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=acc)
        np.multiply(2.0, k3, out=k3)
        np.add(acc, k3, out=acc)
        np.add(acc, k4, out=acc)
        np.multiply(step / 6.0, acc, out=acc)
        np.add(y, acc, out=y)
        guard(y, "rk4 step")
        remaining -= abs(step)
    return LatticeState(Sequence(offset, y), t, boundary)


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
