"""Direct ODE integration of the defocusing Ablowitz-Ladik system,

    d/dt q(t,n) = i (1 - |q(t,n)|^2) (q(t,n-1) + q(t,n+1)),

on a truncated lattice.  Serves as the independent oracle for the fast
solver: an explicit Runge-Kutta kernel, one step for every tableau, that
runs classical RK4 (the reference command) and an order-8 pair (compare),
a Picard fixed-point iteration as a second scheme of entirely different
character, and the conserved log-product sum log(1 - |q(n)|^2) as a drift
monitor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowUpError, InfeasibleParamsError, NonContractionError, ValidationError
from .multiplier import _least
from .schur import exp_or_inf
from .sequence import Sequence

MODULUS_GUARD = 1.0 - 1e-12

# The C function np.einsum calls when optimize is off, as it is for the
# RK8 stage sums: the same contraction and the same bits, without the
# array-function dispatch and the wrapper body.  On a 2-row, 153-site
# buffer a sum of 2 to 13 terms takes 3.2-5.9 us this way and 1.7-1.9 us
# more through np.einsum (2-core x86 host).  Where numpy does not export
# it there, the kernel calls np.einsum.
try:
    from numpy._core.multiarray import c_einsum as _contract
except ImportError:
    _contract = np.einsum

# Cap on the work of one Runge-Kutta run (rk4_integrate, rk8_pair) in
# site-steps: ceil(|t| / h) steps per step size, summed over the step
# sizes, times the lattice sites.  A step of one RK4 row costs 14-15 us at
# 3 sites and 19-20 us at 193, where numpy call overhead dominates, 50-51
# us at 1 001 sites and about 133 us at 4 001.  A step of one RK8 row (12
# stages, one contraction per stage sum) costs 37-38, 60-61, 188-192 and
# 516-521 us at those sizes; from about 1 000 sites on the contraction's
# own arithmetic dominates (2-core x86 host, numpy 2.4.6, best of 15 runs
# of 200 steps in each of two sessions).  So the cap stands for about 3 s
# at 4 001 sites, 10 s at 193 and 8 min at 3 for RK4, and about 13 s, 31 s
# and 21 min for RK8.  The largest pair of the benchmark's compare jobs (t
# 8, 113 sites on the lattice lattice_radius sizes) needs 2.7e4.
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


# compare's reference lattice is the smallest whose truncation_bound over
# the window is at most this.
TRUNCATION_TOL = 2.0**-60


def _log_truncation_bound(q0: Sequence, t: float):
    """radius, lo, hi -> log of truncation_bound(q0, t, radius, lo, hi);
    -inf at t = 0 and for the zero datum."""
    sup = q0.support()
    t = abs(t)
    if sup is None or t == 0.0:
        return lambda radius, lo, hi: -math.inf
    a, b = sup
    log_t = math.log(t)
    growth = -4.0 * math.expm1(q0.log_szego_product()) * t  # 4 (1 - eta) t
    scale = log_t + growth + math.log(float(np.sum(np.abs(q0.values))))

    def log_i(m: int) -> float:
        # log of (t^m / m!) e^{t^2 / (m + 1)}, which bounds I_m(2t): in
        # I_m(2t) = sum_j t^(2j + m) / (j! (j + m)!), (j + m)! >= m! (m + 1)^j.
        return m * log_t - math.lgamma(m + 1) + t * t / (m + 1)

    def log_bound(radius: int, lo: int, hi: int) -> float:
        right = log_i(radius - hi) + log_i(radius + 1 - b)
        left = log_i(radius + lo) + log_i(radius + 1 + a)
        top = max(left, right)
        return scale + top + math.log1p(math.exp(min(left, right) - top))

    return log_bound


def truncation_bound(q0: Sequence, t: float, radius: int, lo: int, hi: int) -> float:
    """Bound on |q(t, n) - q_R(t, n)| at every site n of [lo, hi], q the flow
    of q0 on Z and q_R its flow on the zero-boundary lattice [-R, R],
    R = radius, for a window and a datum support [a, b] inside [-R, R]:

        |t| e^{4 (1 - eta) |t|} ||q0||_1 [I_{R-hi}(2t) I_{R+1-b}(2t) + I_{R+lo}(2t) I_{R+1+a}(2t)],

    eta the datum's Szego product, each I_m(2t) taken at its majorant
    (t^m / m!) e^{t^2 / (m + 1)}.

    Both flows conserve prod (1 - |q(n)|^2) = eta, so every site keeps
    |q(n)|^2 <= 1 - eta.  e = q - q_R on [-R, R] satisfies
    e' = i (1 - |q|^2) (e_{n-1} + e_{n+1}) + i (|q_R|^2 - |q|^2)(q_R(n-1) + q_R(n+1)),
    where e at -R - 1 and R + 1 is q's boundary flux; the last term is at
    most 2 sqrt(1 - eta) |e_n| times 2 sqrt(1 - eta).  So, componentwise,
    |e|' <= (A + 4 (1 - eta)) |e| + f, A the nearest-neighbour matrix of
    [-R, R] and f the flux |q(R + 1)|, |q(-R - 1)| entering at R and -R.
    With |1 - |q|^2| <= 1 the same argument gives |q(t)| <= e^{tA_Z} |q0|,
    so |q(R + 1, s)| <= I_{R+1-b}(2s) ||q0||_1, since I_m falls as m grows.
    With e(0) = 0 and (e^{sA})_{nk} <= I_{|n-k|}(2s) (the entries of
    e^{sA_Z}), Duhamel's formula over [0, t], each factor taken at its
    largest, gives the bound at n; over the window I_{R-n} is largest at
    n = hi and I_{R+n} at n = lo.  A negative t runs the conjugate flow
    forward."""
    return exp_or_inf(_log_truncation_bound(q0, t)(radius, lo, hi))


def lattice_radius(q0: Sequence, t: float, lo: int, hi: int) -> int:
    """The least radius R from max(reach, support radius) up to
    max(reach, default_radius(q0, t)), reach = max(|lo|, |hi|), whose
    truncation_bound over the window [lo, hi] is at most TRUNCATION_TOL;
    the upper end if none is.  The bound falls as R grows, so the search
    is a bisection."""
    sup = q0.support()
    reach = max(abs(lo), abs(hi))
    first = max(reach, 0 if sup is None else max(abs(sup[0]), abs(sup[1])))
    last = max(reach, default_radius(q0, t))
    log_bound, log_tol = _log_truncation_bound(q0, t), math.log(TRUNCATION_TOL)
    radius = _least(lambda r: log_bound(r, lo, hi) <= log_tol, first, last)
    return last if radius is None else radius


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
    """(count, last) of the steps over |t| = span: the site-step cap's
    count -(-span // h), every step but the last exactly h, and the last
    the exact rest fmod(span, h), or h where that is 0, so in (0, h]."""
    rest = math.fmod(span, h)
    return int(-(-span // h)), rest if rest else h


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
# Norsett and Wanner, Solving ODEs I, section II.10): row i of _DOP853_A is
# a[i, :i], and _DOP853_B is b.  The decimals are copied from scipy's
# scipy/integrate/_ivp/dop853_coefficients.py, so they parse to the doubles
# scipy's DOP853 uses; the stages scipy adds there for its error estimate
# and dense output are left out.  Carried here so that importing this
# module loads no scipy.
_DOP853_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_DOP853_B = (
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
)
RK8 = Tableau(
    "rk8",
    np.array([row + (0.0,) * (len(_DOP853_B) - len(row)) for row in _DOP853_A]),
    np.array(_DOP853_B),
)
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
    hs, all stepped by the same numpy calls.

    A row is the lattice laid out as [pad | sites | pad]; rows sit back to
    back in one buffer, and every numpy call acts once on the flat interior
    of the buffer, so the neighbour sum is buffer[:-2] + buffer[2:].  Pad
    rule: for the periodic boundary every pad cell takes its row's ring end
    before every right-hand side.  Stage and step updates never change the
    inner pad cells (between two rows) of the zero boundary, which stay +0
    and are never zeroed.  Every update runs in place.  Every tableau takes
    the same step: each stage, and the step's result, is one einsum
    contraction of its coefficients with the k_j and the state, which adds
    the products in the order of a loop over fresh arrays.  The
    contraction is numpy's C function c_einsum, bound at import from
    numpy._core.multiarray, which np.einsum calls with the same arguments,
    so the bits are np.einsum's, without its Python wrapper; where numpy
    does not export it there, the kernel calls np.einsum.

    The guard is checked once per step: |q| of every stage and of the
    step's result are kept in one buffer and tested by one max.  On a trip
    the error names the first of them in that order that reached the
    guard, "<name> stage" or "<name> step" (tableau.name), as a check after
    each would; the stages computed after it are thrown away.
    """
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
    # Stage i is the sum, in order, of step a[i, j] k_j for j = i - 1 down
    # to 0 and then of the state: z[s - i:] contracted with the block
    # coef[base[i - 1] : base[i]], whose last entry, the state's, is 1.  The
    # step's result is z contracted with the last block, with b.  The state
    # comes last so that each sum rounds once at its scale.  Each lattice
    # row has its own coefficients (its own step), which act on the sites
    # of the float view of z, so no pad cell is written.  The zero
    # coefficients (for RK8 a[i, 1] from stage 3 on, a[i, 2] from stage 5
    # on, b[1:5]; for RK4 a[2, 0], a[3, :2]) stay in: with the order fixed,
    # no one row order keeps them out of every stage's block, and at a few
    # hundred sites two fewer terms save less than one more call costs.
    # The result reads y, so it is formed in the stage buffer, which is
    # free by then, and copied into y.
    blocks = [(*tableau.a[i, :i][::-1].tolist(), 1.0) for i in range(1, stages)]
    blocks.append((*tableau.b[::-1].tolist(), 1.0))
    base = np.cumsum([0] + [len(w) for w in blocks])
    weights = np.array([w for block in blocks for w in block])
    coef = np.zeros((len(weights), rows))
    z_sites = z.view(np.float64).reshape(stages + 1, rows, 2 * stride)[:, :, 2:-2]
    stage_sites = stage_buf.view(np.float64).reshape(rows, 2 * stride)[:, 2:-2]
    periodic = boundary == "periodic"
    # Per buffer: left pads, last sites, right pads, first sites.
    y_ring, s_ring = [
        (b[0::stride], b[size::stride], b[stride - 1 :: stride], b[1::stride])
        for b in (z[stages], stage_buf)
    ]

    # The step's calls, looked up once per run.
    contract = _contract
    add, square, subtract, multiply = np.add, np.square, np.subtract, np.multiply
    absolute, copyto = np.abs, np.copyto
    # 1 as a 0-d array: a ufunc converts a Python float operand anew on
    # every call.
    one = np.ones(())

    def tableau_step():
        # Stage 0 is the state; every later stage is first formed by its
        # contraction.  The right-hand side i (1 - |q|^2) (left + right) is
        # written out: the periodic boundary's pad copies, then four ufunc
        # calls.
        for c, stage_terms, ring, left, right, m, k in stage_ops:
            if c is not None:
                contract("jr,jrk->rk", c, stage_terms, out=out)
                absolute(stage, m)
            if periodic:
                copyto(ring[0], ring[1])
                copyto(ring[2], ring[3])
            add(left, right, acc)
            square(m, sq)
            subtract(one, sq, gain_im)
            multiply(gain, acc, k)
        contract("jr,jrk->rk", parts[-1], terms, out=out)
        copyto(y_sites, out)
        absolute(y, m_y)

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
                coef[:, p] = weights * step
                coef[base[1:] - 1, p] = 1.0
            b = first * stride
            ypad, spad = z[stages, b:], stage_buf[b:]
            y, stage = ypad[1:-1], spad[1:-1]
            ks = z[stages - 1 :: -1, b + 1 : -1]
            acc, gain = work[:, b:]
            gain_im = gain.imag
            mods, sq = mods_all[:stages, b:], mods_all[stages, b:]
            m_y = mods[0]
            terms, out = z_sites[:, first:], stage_sites[first:]
            y_sites = terms[stages]
            parts = [coef[base[i] : base[i + 1], first:] for i in range(stages)]
            s_left, s_right = spad[:-2], spad[2:]
            stage_ops = [(None, None, y_ring, ypad[:-2], ypad[2:], m_y, ks[0])] + [
                (parts[i - 1], terms[stages - i :], s_ring, s_left, s_right, mods[i], ks[i])
                for i in range(1, stages)
            ]
            for _ in range(lo, hi):
                tableau_step()
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

    This is the one-row RK4 case of the explicit Runge-Kutta kernel
    _rk_rows, which takes a tableau and steps one or more step sizes of a
    datum together (rk8_pair runs two); a trip names "rk4 stage" or
    "rk4 step".
    """
    return _rk_rows(q0, t, (h,), RK4, radius, boundary)[0]


def rk8_pair(
    q0: Sequence, t: float, radius: int | None = None
) -> tuple[LatticeState, LatticeState]:
    """(coarse, fine): the order-8 tableau RK8 on the zero boundary at steps
    RK8_STEP and RK8_STEP / 2, as two rows of one kernel run (the layout
    and the guard are in _rk_rows; a trip names "rk8 stage" or
    "rk8 step").  Their difference over 2^8 - 1 is the Richardson estimate
    of the fine row's error.  A run of more than RK4_SITE_STEP_CAP
    site-steps, over both step sizes, is refused before any work."""
    coarse, fine = _rk_rows(q0, t, (RK8_STEP, RK8_STEP / 2.0), RK8, radius, "zero")
    return coarse, fine


def _cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of samples y (along axis 0, spacing h, an odd
    number of them) by Simpson's rule, 0 at the first sample.

    On each panel pair y0, y1, y2 the two half-panel integrals are
    h/12 (5 y0 + 8 y1 - y2) and h/12 (-y0 + 8 y1 + 5 y2), the integrals
    of the interpolating parabola; their running sum is the rule, and at
    every even node it is composite Simpson.  Complex samples are
    integrated directly.
    """
    y0, y1, y2 = y[:-2:2], y[1:-1:2], y[2::2]
    halves = np.empty((len(y) - 1, *y.shape[1:]), dtype=y.dtype)
    halves[0::2] = 5.0 * y0 + 8.0 * y1 - y2
    halves[1::2] = 8.0 * y1 + 5.0 * y2 - y0
    out = np.zeros_like(y)
    np.cumsum(h / 12.0 * halves, axis=0, out=out[1:])
    return out


def _picard_subinterval(y0: np.ndarray, dt: float, boundary: str) -> np.ndarray:
    """Fixed-point iteration for the integral form on one sub-interval.

    The unknown is the trajectory on a fixed Simpson mesh; the map is
    u -> y0 + cumulative integral of F(u).  Starting from the constant
    trajectory, the first iterate is y0 + tau F(y0) exactly.
    """
    mesh = PICARD_MESH + 1
    u = np.tile(y0, (mesh, 1))
    for _ in range(PICARD_MAX_ITER):
        new = y0[None, :] + _cumulative_simpson(_rhs(u, boundary), dt / PICARD_MESH)
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
    return s.q.log_szego_product()
