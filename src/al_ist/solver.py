"""Fast point and window solver for the defocusing Ablowitz-Ladik equation.

Both solvers run one Schur pass, and plan() decides all of it before any
array is built (PassPlan): the datum's Szego product, the half-width N and
the radius r, the window W = N + half, the order of the multiplier G, the
steps and the index of each site, the budget terms of every emitted site,
and the caps; and it builds the pass's source, the datum mirrored,
conjugated and cut to the window as the pass transforms it.  _solve only
runs the plan: for the sites n0 - half .. n0 + half it shifts the source
onto the window's indices, multiplies its one-sided Schur function by the
Schur-class G, and runs Schur's algorithm.  A point value is the pass at
half = 0.  Each entry's budget (window_entry_budget) certifies the two
error sources: window truncation (localization) and multiplier truncation.
It bounds the error of the exact-arithmetic pipeline; float64 roundoff is
not part of it.

N is the least admissible half-width M, at most select_params' closed
form, whose pass has its right-edge budget within eps, by the terms that
certify it (_least_half_width).  Only the entry policy differs, and one
PassShape holds each: POINT and WINDOW.

All bound formulas are evaluated in log space; the stability constant can
exceed 1e27 at moderate eta, so certified budgets are often astronomically
conservative compared to observed deviations.
"""

from __future__ import annotations

import math
from collections.abc import Callable
# Unused here; perfbench/spans.py patches solver.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InfeasibleParamsError, NumericalGuardError, ValidationError
from .laurent import lp_conj_flip, lp_mul
from .multiplier import _bessel_start, _least_from, g_bundle, order_admissible
from .nlft import nlft_forward
from .schur import RationalSchur, exp_or_inf, schur_coeffs, stability_constant
from .sequence import Sequence

LOG2 = math.log(2.0)

# Hard cap on the certified window half-width; beyond this the requested
# (eta, eps) pair is declared infeasible rather than attempted.
N_HARD_CAP = 10**6

# Cap on one Schur pass, which is a whole point or window solve, counted
# as steps (steps + 1) / 2 coefficient updates (schur_coeffs drops one
# coefficient per step); plan refuses above it before any array is
# built.  The kernel runs only the plan's run_steps, so the cap bounds a
# pass's size, not its arithmetic: W = 12 198, just under it, counts 40 661
# steps, runs 4 084 and takes about 0.08 s on a 2-core x86 host.  Capping
# run_steps waits until the rest of a pass stops growing with N.
SCHUR_UPDATE_CAP = 10**9


@dataclass(frozen=True)
class SolveParams:
    """Certified run parameters: window half-width N, and n = 2N, which
    must be an admissible multiplier order; a pass emitting n0 - half ..
    n0 + half runs at order 2(N + half) (PassPlan.order).

    eta is the Szego product the budgets use; the solvers take the datum's
    own.  support is the datum's inclusive support (lo, hi) when the caller
    supplied it; the budgets need it to tell whether the window
    [n0 - N, n0 + N] covers the datum.  r is the radius at which the
    budgets evaluate localization_bound (PassShape.radius).  A solve's own
    are its PassPlan's params, which solve_window_detailed returns.
    """

    N: int
    eps: float
    eta: float
    t: float
    n0: int = 0
    reflect: bool = False
    support: tuple[int, int] | None = None
    r: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ValidationError("params require 0 < r < 1")
        if self.N < 5:
            raise ValidationError("params require N >= 5")
        if not order_admissible(self.n, self.t):
            raise ValidationError("params require n > t and delta_{n,t} < 1")

    @property
    def n(self) -> int:
        return 2 * self.N

    @property
    def covers_support(self) -> bool:
        """True when the window [n0 - N, n0 + N] contains the recorded support."""
        return (
            self.support is not None
            and self.n0 - self.N <= self.support[0]
            and self.support[1] <= self.n0 + self.N
        )


@dataclass(frozen=True)
class ErrorBudget:
    """Localization plus multiplier-truncation bound on the absolute error.

    An exact-arithmetic bound: it covers the two truncations of the
    pipeline, not the float64 roundoff of carrying it out.
    """

    localization: float
    truncation: float
    total: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "total", self.localization + self.truncation)


def select_params(
    t: float, eps: float, eta: float, n0: int = 0, support: tuple[int, int] | None = None
) -> SolveParams:
    """N = 5 + floor(4 e |t| + log2(C(eta, 1/2) / eps)), n = 2N.

    With the datum's inclusive support (lo, hi), N is instead POINT's least
    half-width (_least_half_width) from max(5, radius of the support about
    n0) up to that closed form, whose window covers the support.  Either
    way the point budget is at most eps in exact arithmetic; it does not
    cover float64 roundoff.  r is POINT's, 1/2; a WINDOW plan shrinks the
    closed form by its own search (plan).

    Negative t is recorded via the reflect flag: the solver runs forward
    at |t| from the conjugated datum and conjugates the output.  A |t|
    whose closed form overflows (above about 1.6e307) is refused, and so
    is an eta at which stability_constant refuses, before any pass.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    if not (0.0 <= eta <= 1.0):
        raise ValidationError("eta must lie in (0, 1]")
    if 1.0 - eta == 1.0:  # 0 included: the product of a long datum underflows
        raise InfeasibleParamsError(
            f"the datum's Szego product eta={eta:.3g} is too small: below about 1e-16, "
            "log C(eta, 1/2) has no float64 value"
        )
    abs_t = abs(t)
    closed = 4.0 * math.e * abs_t + (stability_constant(eta, 0.5).log - math.log(eps)) / LOG2
    if not math.isfinite(closed):
        # Above about 1.6e307, 4 e |t| overflows and floor() would raise.
        raise InfeasibleParamsError(f"t = {t:.17g} has no finite certified window")
    N = 5 + math.floor(closed)
    if support is not None:
        radius = max(n0 - support[0], support[1] - n0)
        sized = _least_half_width(POINT, eta, abs_t, eps, max(5, radius), min(N, N_HARD_CAP))
        if sized is not None:
            N = sized[0]
    if N > N_HARD_CAP:
        raise InfeasibleParamsError(
            f"certified window N={N} exceeds the hard cap {N_HARD_CAP}; "
            f"eta={eta:.17g} is too small for eps={eps:.17g}"
        )
    return SolveParams(N=N, eps=eps, eta=eta, t=abs_t, n0=n0, reflect=t < 0, support=support)


def _least_half_width(
    shape: PassShape, eta: float, t: float, eps: float, lo: int, hi: int
) -> tuple[int, float] | None:
    """(M, r): the least M in [max(lo, ceil(e t)), hi] with 2M admissible
    whose pass of this shape has its right edge within eps, by the terms
    its plan certifies with (_budget_terms), and that edge's radius; None if
    M = hi misses.  A POINT search starts where the window covers the
    support (lo), so its localization term, 0, holds at every probe.

    Below M = e t the edge misses: a POINT edge's t3 term exceeds 1 > eps
    (M log 2, log C and 2M log(e t / M) are nonnegative, and
    log 12 + 5t - log(4 pi M)/2 is positive), a WINDOW edge's localization
    term exceeds 4 > eps at every r.  Above it both terms fall as M grows,
    so the search (_least_from) brackets the least M outward from
    _edge_guess and bisects, and returns what bisecting the whole range
    would, probing no M twice.  log C(eta, 1/2) is formed once here; a
    WINDOW probe forms it again in best_radius.
    """
    log_c = stability_constant(eta, 0.5).log
    radii = {}

    def fits(M: int) -> bool:
        if not order_admissible(2 * M, t):
            return False
        s = shape.half(M)
        radii[M] = r = shape.radius(eta, t, M)
        (loc,), (trunc,) = _budget_terms(shape.covers, log_c, eta, r, t, M + s, range(s, s + 1))
        return loc + trunc <= eps

    lo = max(lo, math.ceil(math.e * t))
    M = _least_from(fits, _edge_guess(shape, log_c, t, eps, lo, hi), lo, hi)
    return None if M is None else (M, radii[M])


def _edge_guess(shape: PassShape, log_c: float, t: float, eps: float, lo: int, hi: int) -> int:
    """Newton's estimate, in [lo, hi], of the least M whose right edge
    (see _least_half_width) meets eps by its t3 term alone.

    The estimate is in closed form and in a real x: the t3 term's log at
    order 2W and index W + s, with W = x, s = 0 (POINT) or W = 3x/2,
    s = x/2 (WINDOW), is j x log 2 + log C + log 12 + 5t - log(2 pi n x)/2
    + n x log(2 e t / (n x)) for (j, n) = shape.newton.  It is concave
    and falling for x >= e t, so Newton's steps from lo overshoot once and
    then fall to its root; the guess is that root rounded up.  log t and
    log x stay apart, since t/x underflows for a subnormal t; at t = 0 the
    log is -inf and the guess lo.  A WINDOW edge's localization term is
    left out.  A guess only: _least_from finds the same M from any.
    """
    target = math.log(eps)
    log_t = math.log(t) if t > 0.0 else -math.inf
    head = log_c + math.log(12.0) + 5.0 * t
    j, n = shape.newton
    rate = math.log(2.0 / n) + log_t  # log(2t/n)

    def t3(x: float) -> tuple[float, float]:
        """The smooth t3 log at x and its slope."""
        log_x = math.log(x)
        value = j * x * LOG2 + head - 0.5 * math.log(2.0 * math.pi * n * x)
        return value + n * x * (1.0 + rate - log_x), j * LOG2 - 0.5 / x + n * (rate - log_x)

    x = float(lo)
    value, slope = t3(x)
    if value > target:
        for _ in range(8):
            step = (target - value) / slope
            x += step
            if not (x < hi and abs(step) > 1e-3):
                break
            value, slope = t3(x)
    return lo if not x > lo else hi if not x < hi else math.ceil(x)  # ceil(x) in [lo, hi]; lo for NaN


def best_radius(eta: float, t: float, margin: int) -> float:
    """The r in (0, 1) that minimizes localization_bound(eta, r, t, N, j)
    at margin N - |j|.

    With L = log C(eta, r) / (4/(1-r)^2 + 1), which does not depend on r,
    the bound's log is t/r + L (4/(1-r)^2 + 1) + m log r - log(1-r) + log 4.
    Its derivative times r^2 is -t + m r + 8 L r^2/(1-r)^3 + r^2/(1-r),
    which rises strictly on (0, 1) from -t to +inf, so its root is the
    minimizer and bisection finds it.  The bound holds at every r, so an
    inexact root costs tightness, never soundness.
    """
    rate = stability_constant(eta, 0.5).log / 17.0  # 4/(1 - 1/2)^2 + 1 = 17
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        slope = -t + margin * mid + 8.0 * rate * mid**2 / (1.0 - mid) ** 3 + mid**2 / (1.0 - mid)
        if slope < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def localization_bound(eta: float, r: float, t: float, N: int, j: int) -> float:
    """Window-truncation error bound 4 e^{t/r} C(eta,r) r^{N-|j|} / (1-r).

    It holds for every r in (0, 1); best_radius gives the r that makes it
    least at a given margin N - |j|.
    """
    if N < abs(j):
        raise ValidationError("localization bound requires N >= |j|")
    if not (0.0 < r < 1.0):
        raise ValidationError("localization bound requires 0 < r < 1")
    if t < 0:
        raise ValidationError("localization bound requires t >= 0")
    return _localization_terms(eta, r, t, N, [j])[0]


def _localization_terms(eta: float, r: float, t: float, N: int, js) -> list[float]:
    """localization_bound(eta, r, t, N, j) for each j in js.  Each log runs
    left to right from its prefix log 4 + t/r + log C(eta, r), which is
    formed once."""
    head = math.log(4.0) + t / r + stability_constant(eta, r).log
    log_r, log_gap = math.log(r), math.log(1.0 - r)
    return [exp_or_inf(head + (N - abs(j)) * log_r - log_gap) for j in js]


def localization_bound_direct(t: float, r: float, N: int, j: int) -> float:
    """Alternative truncation bound with explicit constants:

    sqrt(2) r e^{10 t / r^2} r^{N-|j|} / sqrt(1 - r^2).
    """
    if N < abs(j):
        raise ValidationError("localization bound requires N >= |j|")
    if not (0.0 < r < 1.0):
        raise ValidationError("localization bound requires 0 < r < 1")
    if t < 0:
        raise ValidationError("localization bound requires t >= 0")
    log_val = (
        0.5 * math.log(2.0)
        + math.log(r)
        + 10.0 * t / r**2
        + (N - abs(j)) * math.log(r)
        - 0.5 * math.log(1.0 - r**2)
    )
    return exp_or_inf(log_val)


def t3_bound(eta: float, t: float, n: int, j: int) -> float:
    """Multiplier-truncation error bound at query index j:

    2^j C(eta, 1/2) (12 e^{5t} / sqrt(2 pi n)) (2 e t / n)^n.
    """
    if n + j < 0:
        raise ValidationError("t3 bound requires n + j >= 0")
    if t == 0.0:
        return 0.0
    if not (n > t > 0.0):
        raise ValidationError("t3 bound requires n > t > 0")
    return _t3_terms(stability_constant(eta, 0.5).log, t, n, [j])[0]


def _t3_terms(log_c: float, t: float, n: int, js) -> list[float]:
    """t3_bound at each query index j in js, for n > t >= 0, given
    log C(eta, 1/2).  Each log runs left to right from j log 2, as the
    bound's factors are written; the terms that do not depend on j are
    formed once."""
    ratio = 2.0 * math.e * t / n
    if ratio == 0.0:  # t = 0, or a subnormal t that underflows: the bound is 0
        return [0.0] * len(js)
    log_12, five_t = math.log(12.0), 5.0 * t
    root, power = 0.5 * math.log(2.0 * math.pi * n), n * math.log(ratio)
    return [exp_or_inf(j * LOG2 + log_c + log_12 + five_t - root + power) for j in js]


class PassShape(NamedTuple):
    """The entry policy of a pass, every rule that sets POINT and WINDOW
    apart.  A pass of half-width M emits n0 - half(M) .. n0 + half(M) from
    a window of half-width W = M + half(M), and its right edge, offset
    half(M), has the worst budget.  Its localization terms are taken at
    r = radius(eta, t, M).  covers: M is searched from the radius of the
    datum's support about n0 (select_params), so the window covers the
    datum and the localization terms are 0; otherwise from 5 (plan).
    newton is _edge_guess's (j, n): the edge's t3 log has j M log 2 at
    order 2W = n M.
    """

    half: Callable[[int], int]
    radius: Callable[[float, float, int], float]
    covers: bool
    newton: tuple[float, float]


POINT = PassShape(half=lambda M: 0, radius=lambda eta, t, M: 0.5, covers=True, newton=(1.0, 2.0))
# The localization bound holds in L2(rT) at every r in (0, 1), so WINDOW
# takes the minimizing r.
WINDOW = PassShape(
    half=lambda M: M // 2, radius=lambda eta, t, M: best_radius(eta, t, M), covers=False,
    newton=(2.0, 3.0),
)


@dataclass(frozen=True)
class PassPlan:
    """One Schur pass, decided by plan() before any array is built.

    Size.  params holds N and r, the trimmed datum's Szego product eta, |t|
    and reflect (t < 0).  N is the shape's least half-width whose right
    edge meets eps (_least_half_width), at most select_params' closed
    form: POINT's from the radius of the datum's support about n0, inside
    select_params, and WINDOW's from 5.  r is the radius of the accepted
    probe.  Where the search misses, N is the closed form at r = 1/2.

    Shape.  The pass for the sites n0 - half .. n0 + half truncates the
    datum to the window of half-width W = N + half about n0, shifts it onto
    [0, 2W], multiplies its one-sided Schur function by G_{order,t},
    order = 2W, and runs `steps` = 3W + half + 1 steps of Schur's
    algorithm.  Site n0 + s is the coefficient at index 3W + s, so the
    first emitted site is at index `first` = 3W - half.  The transform
    gets `source` shifted by W - n0.  source is the trimmed datum, mirrored
    about n0 where a pass that emits only n0 (half = 0) has a datum that
    reaches further left of n0 than right, so it runs from the datum's
    nearer end; conjugated where params.reflect, since conj(q)(t) solves
    the equation with datum conj(q0) iff q(-t) does with datum q0; and cut
    to the window, an empty sequence where the window misses the datum.
    The zero datum has source None: it runs no pass and its sites stay
    zero.  source is left unshifted: a shift moves only b's exponents, so
    passes with equal sources, at any t and W, can share one transform.

    Steps.  The kernel runs only run_steps = steps - lead of them.
    G = (1 - delta) z^order P has no coefficient below z^(order - m),
    m = min(order, M), where M = multiplier._bessel_start(2t) ends its
    Bessel band (M = 0 at t = 0).  The source starts at
    source.offset - (n0 - W) after the shift.  f0's numerator starts at the
    sum of the two, and schur_coeffs writes the zero gammas below it
    without running the kernel; `lead` is that sum, at most steps, and
    steps for a window that misses the datum, whose numerator is 0.  So
    the kernel runs at most half + 1 + M + (n0 - lo) steps, whatever N is,
    and a POINT pass runs from the nearer end.  The stages before it do not grow with N: the
    transform gets the source, a short support is multiplied out site by
    site, and G is stored and checked on its band of 2m + 1 coefficients.
    What still grows with N is the gamma array of 3W + half + 1 entries.

    Budget.  localization and truncation are window_entry_budget's two
    terms at the offsets -half .. half: POINT's localization, 0, where the
    window [n0 - N, n0 + N] covers the datum's support
    (params.covers_support), and WINDOW's, at r, on any other pass; all 0
    for the zero datum.
    """

    source: Sequence | None
    params: SolveParams
    half: int
    W: int
    order: int
    steps: int
    first: int
    lead: int
    localization: list[float]
    truncation: list[float]

    @property
    def run_steps(self) -> int:
        return self.steps - self.lead


def plan(q0: Sequence, t: float, n0: int, eps: float, shape: PassShape) -> PassPlan:
    """The PassPlan of the shape's pass that gives q0's sites about n0 at
    time t within eps.

    Every refusal is made here, before any array: select_params' checks
    and N_HARD_CAP, and a pass of more than SCHUR_UPDATE_CAP counted
    updates, over all of its steps.  The zero datum runs no pass, so the
    update cap does not apply to it.
    """
    q0 = q0.trimmed()
    lo, hi = q0.offset, q0.offset + len(q0.values) - 1
    support = None if q0.is_zero else (lo, hi)
    params = select_params(t, eps, q0.szego_product(), n0, support if shape.covers else None)
    if not shape.covers:
        sized = _least_half_width(shape, params.eta, params.t, eps, 5, params.N)
        N, r = sized or (params.N, params.r)
        params = SolveParams(N, eps, params.eta, params.t, n0, params.reflect, None, r)
    half = shape.half(params.N)
    W = params.N + half
    order, steps, first = 2 * W, 3 * W + half + 1, 3 * W - half
    if support is None:
        zeros = [0.0] * (2 * half + 1)
        return PassPlan(None, params, half, W, order, steps, first, steps, zeros, zeros)
    updates = steps * (steps + 1) // 2
    if updates > SCHUR_UPDATE_CAP:
        raise InfeasibleParamsError(
            f"Schur pass with half-width W={W} needs {steps} steps, about "
            f"{updates:.3g} coefficient updates, above the cap {SCHUR_UPDATE_CAP:.3g}"
        )
    # A pass that emits only its centre n0 has one budget, and the flow
    # commutes with n -> 2 n0 - n, so it runs from the datum's nearer end.
    if half == 0 and hi - n0 < n0 - lo:
        q0, lo, hi = q0.reflected(n0), 2 * n0 - hi, 2 * n0 - lo
    if params.reflect:
        q0 = q0.conjugated()
    source = q0.windowed(max(lo, n0 - W), min(hi, n0 + W))
    lead = steps
    if len(source):
        band = min(order, _bessel_start(2.0 * params.t) if params.t else 0)
        lead = min(steps, order - band + source.offset - (n0 - W))
    locs, truncs = _entry_terms(params, W, range(-half, half + 1))
    return PassPlan(source, params, half, W, order, steps, first, lead, locs, truncs)


def _schur_pass(plan: PassPlan) -> np.ndarray:
    """The first plan.steps Schur coefficients of the plan's pass: shift
    plan.source onto the window's indices, transform, multiply by G and
    recur.

    The source is the datum's support cut to the window, never the dense
    2W + 1 sites: the transform trims its input to the nonzero sites, so
    the bits are the same, and a source that misses the datum is empty,
    whose transform is the identity, as a zero window's is."""
    m = nlft_forward(plan.source.shifted(plan.W - plan.params.n0))
    bundle = g_bundle(plan.order, plan.params.t)
    f0 = RationalSchur(lp_mul(bundle.g, lp_conj_flip(m.b)), m.a).validate()
    coeffs = schur_coeffs(f0, plan.steps)
    if len(coeffs.gammas) < plan.steps:
        raise NumericalGuardError(
            "Schur recursion terminated at a unimodular constant before the "
            "requested index; input is at the Schur-class boundary"
        )
    return coeffs.gammas


def window_entry_budget(params: SolveParams, W: int, s: int) -> ErrorBudget:
    """Certified budget for the entry at signed offset s, |s| <= W, from the
    center of a pass over half-width W > t/2 at the radius params.r:
    localization_bound at margin W - |s| plus t3_bound at query index W + s,
    so the budgets are not symmetric and the right edge is worst.  Where the
    window [n0 - N, n0 + N] covers the recorded support, the windowed datum
    is the datum and the localization term exactly 0."""
    if abs(s) > W or not 2 * W > params.t:
        raise ValidationError("window entry budget requires |s| <= W and 2W > t")
    (loc,), (trunc,) = _entry_terms(params, W, range(s, s + 1))
    return ErrorBudget(loc, trunc)


def _entry_terms(params: SolveParams, W: int, offsets: range) -> tuple[list[float], list[float]]:
    """window_entry_budget's two terms at each offset, as two lists; plan
    builds a pass's terms here, so the two agree bit for bit."""
    log_c = stability_constant(params.eta, 0.5).log
    return _budget_terms(params.covers_support, log_c, params.eta, params.r, params.t, W, offsets)


def _budget_terms(
    covered: bool, log_c: float, eta: float, r: float, t: float, W: int, offsets: range
) -> tuple[list[float], list[float]]:
    """The localization and truncation terms at each offset of a pass over
    half-width W at radius r, bit for bit localization_bound's, or 0 where
    the window covers the support, and t3_bound's; log_c is
    log C(eta, 1/2)."""
    truncs = _t3_terms(log_c, t, 2 * W, [W + s for s in offsets])
    locs = [0.0] * len(offsets) if covered else _localization_terms(eta, r, t, W, offsets)
    return locs, truncs


def _solve(plan: PassPlan) -> Sequence:
    """The sites n0 - half .. n0 + half of the plan's pass at time t (see
    PassPlan); a negative t conjugates its output."""
    p = plan.params
    if plan.source is None:
        values = np.zeros(2 * plan.half + 1, dtype=np.complex128)
    else:
        values = _schur_pass(plan)[plan.first :]
    window = Sequence(p.n0 - plan.half, values)
    return window.conjugated() if p.reflect else window


def solve_point(q0: Sequence, t: float, n0: int, eps: float) -> tuple[complex, ErrorBudget]:
    """Approximate q(t, n0) with certified absolute error at most eps.

    The value is the POINT pass (see plan), at half-width 0.  Its window is
    sized from the datum's support (see select_params) and the budget from
    the datum's own Szego product; the budget is an exact-arithmetic bound
    and leaves float64 roundoff out.
    """
    p = plan(q0, t, n0, eps, POINT)
    return complex(_solve(p).values[0]), ErrorBudget(p.localization[0], p.truncation[0])


def solve_window_detailed(
    q0: Sequence, t: float, n0: int, eps: float
) -> tuple[Sequence, np.ndarray, SolveParams]:
    """solve_window plus per-entry certified budgets and the parameters.

    One WINDOW pass at half-width floor(N/2) (see plan) gives all
    2 floor(N/2) + 1 entries; the right edge s = floor(N/2) carries the
    worst budget, <= eps.  N is WINDOW's least half-width (_least_half_width)
    from 5 up to the closed form of select_params, and r the radius at which
    that search accepted it; the closed form itself, at r = 1/2, if even it
    misses.  eta is the datum's own Szego product, 1 for the zero datum.  A
    pass above SCHUR_UPDATE_CAP is refused before it starts.
    """
    p = plan(q0, t, n0, eps, WINDOW)
    return _solve(p), np.add(p.localization, p.truncation), p.params


def solve_window(q0: Sequence, t: float, n0: int, eps: float) -> Sequence:
    """Approximate q(t, .) on [n0 - floor(N/2), n0 + floor(N/2)]; every
    entry carries a certified budget <= eps."""
    seq, _, _ = solve_window_detailed(q0, t, n0, eps)
    return seq
