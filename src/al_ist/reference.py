"""Direct ODE integration of the defocusing Ablowitz-Ladik system,

    d/dt q(t,n) = i (1 - |q(t,n)|^2) (q(t,n-1) + q(t,n+1)),

on a truncated lattice.  Serves as the independent oracle for the fast
solver: an explicit Runge-Kutta kernel that runs classical RK4 (the
reference command) and an order-8 pair (compare), a Picard fixed-point
iteration as a second scheme of entirely different character, and the
conserved log-product sum log(1 - |q(n)|^2) as a drift monitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson
from scipy.integrate._ivp import dop853_coefficients as dop853

from .errors import BlowUpError, InfeasibleParamsError, NonContractionError, ValidationError
from .sequence import Sequence

MODULUS_GUARD = 1.0 - 1e-12

# Cap on the work of one Runge-Kutta run (rk4_integrate, rk8_pair) in
# site-steps: ceil(|t| / h) steps per step size, summed over the step
# sizes, times the lattice sites.  A step of one RK4 row costs 16-20 us up
# to about 200 sites, where numpy call overhead dominates, 45 us at 1 001
# sites and 110 us at 4 001; a step of one RK8 row (12 stages) costs 53 us
# at 3 sites, 106 us at 193, 460 us at 1 001 and 950 us at 4 001 (2-core
# x86 host).  So the cap stands for about 3 s at 4 001 sites, 10 s at 193
# and 9 min at 3 for RK4, and about 25 s, 55 s and 30 min for RK8.  The
# largest pair of the benchmark's compare jobs (t 8, 193 sites) needs
# 4.6e4.
RK4_SITE_STEP_CAP = 10**8

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
    truncation is far below integrator error at desk scale.  A |t| whose
    margin overflows a float (above about 1.8e307) is refused."""
    margin = 10.0 * (1.0 + abs(t))
    if not math.isfinite(margin):
        raise InfeasibleParamsError(f"t = {t:.3g} has no finite reference lattice radius")
    sup = q0.support()
    base = 0 if sup is None else max(abs(sup[0]), abs(sup[1]))
    return base + math.ceil(margin)


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


def _blow_up(context: str) -> BlowUpError:
    return BlowUpError(f"modulus guard tripped during {context}: max|q| >= 1 - 1e-12")


def _guard(values: np.ndarray, context: str):
    if values.size and float(np.max(np.abs(values))) >= MODULUS_GUARD:
        raise _blow_up(context)


def _step_plan(span: float, h: float) -> tuple[int, float]:
    """(count, last) of the step loop over |t| = span: while time remains,
    take min(h, remaining).  Every step but the last is exactly h."""
    count, last, remaining = 0, h, span
    while remaining > 0.0:
        last = min(h, remaining)
        remaining -= last
        count += 1
    return count, last


@dataclass(frozen=True, eq=False)
class Tableau:
    """An explicit Runge-Kutta method: stage i (from 0) takes the right-hand
    side at y + step * sum_{j < i} a[i, j] k_j, and the step ends at
    y + step * sum_i b[i] k_i.  `name` names the method in guard trips and
    refusals."""

    name: str
    a: np.ndarray
    b: np.ndarray


RK4 = Tableau(
    "rk4",
    np.array([[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0],
              [0.0, 0.0, 1.0, 0.0]]),
    np.array([1.0, 2.0, 2.0, 1.0]) / 6.0,
)
# The 12 stages of Dormand and Prince's order-8 method DOP853 (Hairer,
# Norsett and Wanner, Solving ODEs I, section II.10), as scipy ships them;
# the stages scipy adds for its error estimate and dense output are unused.
RK8 = Tableau("rk8", dop853.A[: dop853.N_STAGES, : dop853.N_STAGES], dop853.B)
# compare's reference runs RK8 at this step and at half of it.  At h 0.1
# the Richardson estimate |coarse - fine| / (2^8 - 1) tracked the error
# against an h/8 run (both about 1e-15) on the benchmark's compare data;
# at h 0.2 it underestimated by up to 4x.
RK8_STEP = 0.1


def _rk_rows(
    q0: Sequence, t: float, hs: tuple[float, ...], tableau: Tableau, radius: int | None,
    boundary: str,
) -> list[LatticeState]:
    """Runs of one datum to time t under `tableau`, one row per step size in
    hs, all stepped by the same numpy calls; the layout is in rk4_integrate."""
    if not all(h > 0 for h in hs):
        raise ValidationError("step size must be positive")
    if not math.isfinite(t):
        raise ValidationError("t must be finite")
    if radius is None:
        radius = default_radius(q0, t)
    size = len(q0.values) if boundary == "periodic" else 2 * radius + 1
    # -(-|t| // h) is ceil(|t| / h) as a float, inf where it overflows.
    steps = sum(-(-abs(t) // h) for h in hs)
    try:
        site_steps = size * steps
    except OverflowError:  # more sites than a float holds
        site_steps = math.inf
    if site_steps > RK4_SITE_STEP_CAP:
        raise InfeasibleParamsError(
            f"{tableau.name.upper()} over {size} sites needs about {site_steps:.3g} "
            f"site-steps, above the cap {RK4_SITE_STEP_CAP:.3g}"
        )
    offset, y0 = _initial_array(q0, radius, boundary)
    sign = 1.0 if t >= 0 else -1.0
    plans = [_step_plan(abs(t), h) for h in hs]
    # Rows sit in order of step count, so the rows still stepping are
    # always a suffix of the buffer.
    order = sorted(range(len(hs)), key=lambda r: plans[r][0])
    counts = [plans[r][0] for r in order]
    rows, stride, stages = len(hs), size + 2, len(tableau.b)
    width = rows * stride - 2
    # k_s..k_1 (z[:s], interiors only), the state (z[s]) and the stage,
    # each holding every row as [pad | sites | pad].
    z = np.zeros((stages + 1, rows * stride), dtype=np.complex128)
    stage_buf = np.zeros(rows * stride, dtype=np.complex128)
    for p in range(rows):
        z[stages, p * stride + 1 : p * stride + 1 + size] = y0
    # acc and the gain i (1 - |q|^2), whose real part stays 0, over the flat
    # interior buffer[1:-1].
    work = np.zeros((2, width), dtype=np.complex128)
    # Rows 0..s-1: |q| of the state and of the step's s - 1 stages, kept
    # for the step's one guard test; row s: |q|^2.
    mods_all = np.zeros((stages + 1, width))
    rk4 = tableau is RK4
    if rk4:
        # 0.5 step, step and step / 6, complex as in the textbook loop, per
        # interior cell.  They are 0 at every pad cell, so the inner pads of
        # the zero boundary stay +0.
        coef = np.zeros((3, width), dtype=np.complex128)
    else:
        # Stage i is the sum, in order, of step a[i, j] k_j for j = i - 1
        # down to 0 and then of the state: z[s - i:] times the block
        # coef[base[i - 1] : base[i]], whose last entry, the state's, is 1.
        # The step's result is z times the last block, with b.  The state
        # comes last so that each sum rounds once at its scale.  Each
        # lattice row has its own coefficients (its own step), which act on
        # the sites of the float view of z, so no pad cell is written.
        weights = [np.r_[tableau.a[i, :i][::-1], 1.0] for i in range(1, stages)]
        weights.append(np.r_[tableau.b[::-1], 1.0])
        base = np.cumsum([0] + [len(w) for w in weights])
        weights = np.concatenate(weights)
        coef = np.zeros((len(weights), rows, 1))
        prod = np.zeros((stages + 1, rows, 2 * size))
        z_sites = z.view(np.float64).reshape(stages + 1, rows, 2 * stride)[:, :, 2:-2]
        stage_sites = stage_buf.view(np.float64).reshape(rows, 2 * stride)[:, 2:-2]
    periodic = boundary == "periodic"
    # Per buffer: left pads, last sites, right pads, first sites.
    rings = [
        (b[0::stride], b[size::stride], b[stride - 1 :: stride], b[1::stride])
        for b in (z[stages], stage_buf)
    ]

    def rhs(ring, left: np.ndarray, right: np.ndarray, m: np.ndarray, out: np.ndarray):
        # i (1 - |q|^2) * (left + right), with |q| already in m
        if periodic:
            np.copyto(ring[0], ring[1])
            np.copyto(ring[2], ring[3])
        np.add(left, right, acc)
        np.square(m, sq)
        np.subtract(1.0, sq, gain_im)
        np.multiply(gain, acc, out)

    def stage_from(c: np.ndarray, k: np.ndarray, m: np.ndarray):
        np.multiply(c, k, stage)
        np.add(y, stage, stage)
        np.abs(stage, m)

    def rk4_step():
        rhs(rings[0], y_left, y_right, m_y, k1)
        stage_from(c_half, k1, m1)
        rhs(rings[1], s_left, s_right, m1, k2)
        stage_from(c_half, k2, m2)
        rhs(rings[1], s_left, s_right, m2, k3)
        stage_from(c_full, k3, m3)
        rhs(rings[1], s_left, s_right, m3, k4)
        # y + (step / 6) * (((k1 + 2 k2) + 2 k3) + k4)
        np.multiply(2.0, k2, k2)
        np.add(k1, k2, acc)
        np.multiply(2.0, k3, k3)
        np.add(acc, k3, acc)
        np.add(acc, k4, acc)
        np.multiply(c_sixth, acc, acc)
        np.add(y, acc, y)
        np.abs(y, m_y)

    def tableau_step():
        rhs(rings[0], y_left, y_right, m_y, ks[0])
        for terms, c, products, out, m, k in stage_ops:
            np.multiply(terms, c, products)
            np.add.reduce(products, axis=0, out=out)
            np.abs(stage, m)
            rhs(rings[1], s_left, s_right, m, k)
        terms, c, products, out = result_op
        np.multiply(terms, c, products)
        np.add.reduce(products, axis=0, out=out)
        np.abs(y, m_y)

    y = z[stages, 1:-1]
    np.abs(y, mods_all[0])
    if not mods_all[0].max() < MODULUS_GUARD:
        raise _blow_up("initialization")
    # Some row's step changes, or a row finishes, at each bound.
    bounds = sorted({0, *counts, *(c - 1 for c in counts if c)})
    # A trip is raised at the end of its step; the stages computed after
    # it may overflow, and are thrown away.
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in zip(bounds, bounds[1:]):
            # Steps lo..hi run rows first.. on the suffix views.
            first = sum(c <= lo for c in counts)
            for p in range(first, rows):
                count, last = plans[order[p]]
                step = sign * (hs[order[p]] if lo < count - 1 else last)
                if rk4:
                    cells = slice(p * stride, p * stride + size)
                    coef[:, cells] = np.array([[0.5 * step], [step], [step / 6.0]])
                else:
                    coef[:, p, 0] = weights * step
                    coef[base[1:] - 1, p, 0] = 1.0
            b = first * stride
            ypad, spad = z[stages, b:], stage_buf[b:]
            y, stage = ypad[1:-1], spad[1:-1]
            y_left, y_right, s_left, s_right = ypad[:-2], ypad[2:], spad[:-2], spad[2:]
            ks = z[stages - 1 :: -1, b + 1 : -1]
            acc, gain = work[:, b:]
            gain_im = gain.imag
            mods, sq = mods_all[:stages, b:], mods_all[stages, b:]
            m_y = mods[0]
            if rk4:
                k1, k2, k3, k4 = ks
                m1, m2, m3 = mods[1:]
                c_half, c_full, c_sixth = coef[:, b:]
                step_once = rk4_step
            else:
                terms = z_sites[:, first:]
                parts = [coef[base[i] : base[i + 1], first:] for i in range(stages)]
                stage_ops = [
                    (terms[stages - i :], parts[i - 1], prod[: i + 1, first:], stage_sites[first:],
                     mods[i], ks[i])
                    for i in range(1, stages)
                ]
                result_op = (terms, parts[-1], prod[:, first:], terms[stages])
                step_once = tableau_step
            for _ in range(lo, hi):
                step_once()
                # The step's one guard test; "not <" trips on NaN too.
                if not mods.max() < MODULUS_GUARD:
                    stage_tripped = any(not m.max() < MODULUS_GUARD for m in mods[1:])
                    raise _blow_up(f"{tableau.name} {'stage' if stage_tripped else 'step'}")
    states = [None] * rows
    for p, r in enumerate(order):
        values = z[stages, p * stride + 1 : p * stride + 1 + size]
        states[r] = LatticeState(Sequence(offset, values), t, boundary)
    return states


def rk4_integrate(
    q0: Sequence, t: float, h: float, radius: int | None = None, boundary: str = "zero"
) -> LatticeState:
    """Classical four-stage Runge-Kutta to time t (the final partial step is
    shortened to land exactly on t).  Any intermediate state with
    max|q| >= 1 - 1e-12 aborts with a blow-up error.  A run of more than
    RK4_SITE_STEP_CAP site-steps is refused before any work.

    This is the one-row RK4 case of the explicit Runge-Kutta kernel, which
    takes a tableau and steps one or more step sizes of a datum together
    (rk8_pair runs two).  A row is the lattice laid out as
    [pad | sites | pad]; rows sit back to back in one buffer, and every
    numpy call acts once on the flat interior of the buffer, so the
    neighbour sum is buffer[:-2] + buffer[2:].  Pad rule: for the periodic
    boundary every pad cell takes its row's ring end before every
    right-hand side.  Stage and step updates never change the inner pad
    cells (between two rows) of the zero boundary, which stay +0 and are
    never zeroed.  Every update runs in place.  RK4 keeps its own update
    path, in the operation order of the textbook step, so each row matches
    a loop with fresh arrays bit for bit; another tableau forms each stage
    as one product and one sum over the state and the k_j.

    The guard is checked once per step: |q| of every stage and of the
    step's result are kept in one buffer and tested by one max.  On a trip
    the error names the first of them in that order that reached the
    guard, "rk4 stage" or "rk4 step", as a check after each would; the
    stages computed after it are thrown away.
    """
    return _rk_rows(q0, t, (h,), RK4, radius, boundary)[0]


def rk8_pair(
    q0: Sequence, t: float, radius: int | None = None
) -> tuple[LatticeState, LatticeState]:
    """(coarse, fine): the order-8 tableau RK8 on the zero boundary at steps
    RK8_STEP and RK8_STEP / 2, as two rows of one kernel run (the layout
    and the guard are in rk4_integrate; a trip names "rk8 stage" or
    "rk8 step").  Their difference over 2^8 - 1 is the Richardson estimate
    of the fine row's error.  A run of more than RK4_SITE_STEP_CAP
    site-steps, over both step sizes, is refused before any work."""
    coarse, fine = _rk_rows(q0, t, (RK8_STEP, RK8_STEP / 2.0), RK8, radius, "zero")
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
