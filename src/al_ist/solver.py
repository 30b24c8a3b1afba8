"""Fast point and window solver for the defocusing Ablowitz-Ladik equation.

Both solvers run one pass (_solve).  For the sites n0 - half .. n0 + half
it truncates the datum to a window about n0, multiplies its one-sided
Schur function by the Schur-class multiplier G, and runs Schur's
algorithm; PassPlan fixes the window, the order of G, the steps and the
index of each site.  A point value is the pass at half = 0.  Each
entry's budget (window_entry_budget) certifies the two error sources:
window truncation (localization) and multiplier truncation.  It bounds
the error of the exact-arithmetic pipeline; float64 roundoff is not part
of it.

Both solvers size N by one search (_least_half_width): N is the least
admissible half-width M, at most select_params' closed form, whose pass
has its right-edge budget within eps, by the terms that certify it.  Only
the entry policy differs, and one PassShape holds each: POINT and WINDOW.

All bound formulas are evaluated in log space; the stability constant can
exceed 1e27 at moderate eta, so certified budgets are often astronomically
conservative compared to observed deviations.
"""

from __future__ import annotations

import math
from collections.abc import Callable
# Unused here; perfbench/spans.py patches solver.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace
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
# coefficient per step); PassPlan.build refuses above it before any array
# is built.  The kernel runs only the plan's run_steps, so the cap bounds a
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
    budgets evaluate localization_bound (PassShape.radius).
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
    cover float64 roundoff.  r is POINT's, 1/2; the window solver shrinks
    the closed form (solve_window_detailed).

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
    _solve certifies with (_budget_terms), and that edge's radius; None if
    M = hi misses.  A POINT search starts where the window covers the
    support (lo), so its localization term, 0, holds at every probe.

    Below M = e t the edge misses: a POINT edge's t3 term exceeds 1 > eps
    (M log 2, log C and 2M log(e t / M) are nonnegative, and
    log 12 + 5t - log(4 pi M)/2 is positive), a WINDOW edge's localization
    term exceeds 4 > eps at every r.  Above it both terms fall as M grows,
    so the search (_least_from) brackets the least M outward from
    _edge_guess and bisects, and returns what bisecting the whole range
    would, probing no M twice.  log C(eta, 1/2) is formed once.
    """
    log_c = stability_constant(eta, 0.5).log
    radii = {}

    def fits(M: int) -> bool:
        if not order_admissible(2 * M, t):
            return False
        s = shape.half(M)
        radii[M] = r = shape.radius(eta, t, M)
        (loc,), (trunc,) = _budget_terms(shape, log_c, eta, r, t, M + s, range(s, s + 1))
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
    half(M), has the worst budget.  localization(eta, r, t, W, offsets)
    gives its budgets' localization terms at r = radius(eta, t, M).  newton
    is _edge_guess's (j, n): the edge's t3 log has j M log 2 at order
    2W = n M.  mirrors: the pass may run on the datum mirrored about n0.
    """

    half: Callable[[int], int]
    radius: Callable[[float, float, int], float]
    localization: Callable[[float, float, float, int, range], list[float]]
    newton: tuple[float, float]
    mirrors: bool


# A point pass is sized from the radius of the datum's support, so its
# window covers the datum; its one entry is the window's centre n0, and as
# the flow commutes with n -> 2 n0 - n, it may run from the datum's nearer end.
POINT = PassShape(
    half=lambda M: 0, radius=lambda eta, t, M: 0.5,
    localization=lambda eta, r, t, W, offsets: [0.0] * len(offsets),
    newton=(1.0, 2.0), mirrors=True,
)
# The localization bound holds in L2(rT) at every r in (0, 1), so WINDOW
# takes the minimizing r; its budgets are not symmetric in s, so no mirror.
WINDOW = PassShape(
    half=lambda M: M // 2, radius=lambda eta, t, M: best_radius(eta, t, M),
    localization=_localization_terms, newton=(2.0, 3.0), mirrors=False,
)


@dataclass(frozen=True)
class PassPlan:
    """The shape of one Schur pass, fixed before any array is built.

    The pass for the sites center - half .. center + half truncates the
    datum to the window of half-width W = N + half about center, shifts it
    onto [0, 2W], multiplies its one-sided Schur function by G_{order,t},
    order = 2W, and runs `steps` = 3W + half + 1 steps of Schur's
    algorithm.  Site center + s is the coefficient at index 3W + s, so the
    first emitted site is at index `first` = 3W - half.

    The kernel runs only run_steps = steps - lead of them.
    G = (1 - delta) z^order P has no coefficient below z^(order - m),
    m = min(order, M), where M = multiplier._bessel_start(2t) ends its
    Bessel band (M = 0 at t = 0).  The datum's first site lo in the window
    sits at max(lo, center - W) - (center - W) after the shift.  f0's
    numerator starts at the sum of the two, and schur_coeffs writes the
    zero gammas below it without running the kernel; `lead` is that sum, at
    most steps, and steps for a window that misses the datum, whose
    numerator is 0.  So the kernel runs at most half + 1 + M + (center - lo)
    steps, whatever N is, and a POINT pass runs from the nearer end.  The
    stages before it do not grow with N: the pass hands the transform the
    datum clipped to the window, a short support is multiplied out site by
    site, and G is stored and checked on its band of 2m + 1 coefficients.
    What still grows with N is the gamma array of 3W + half + 1 entries.
    """

    center: int
    W: int
    half: int
    order: int
    steps: int
    first: int
    lead: int

    @property
    def run_steps(self) -> int:
        return self.steps - self.lead

    @classmethod
    def build(cls, support: tuple[int, int], center: int, N: int, half: int, t: float) -> "PassPlan":
        """The plan of _solve's pass for a datum on the inclusive support
        (lo, hi) at time t >= 0.  A pass of more than SCHUR_UPDATE_CAP
        counted updates, over all of its steps, is refused here."""
        W = N + half
        order, steps = 2 * W, 3 * W + half + 1
        updates = steps * (steps + 1) // 2
        if updates > SCHUR_UPDATE_CAP:
            raise InfeasibleParamsError(
                f"Schur pass with half-width W={W} needs {steps} steps, about "
                f"{updates:.3g} coefficient updates, above the cap {SCHUR_UPDATE_CAP:.3g}"
            )
        lo, hi = support
        if hi < center - W or center + W < lo:
            lead = steps
        else:
            band = min(order, _bessel_start(2.0 * t) if t else 0)
            lead = min(steps, order - band + max(lo, center - W) - (center - W))
        return cls(center, W, half, order, steps, 3 * W - half, lead)


def _schur_pass(q0: Sequence, t: float, plan: PassPlan) -> np.ndarray:
    """The first plan.steps Schur coefficients of q0's pass (see PassPlan):
    window, shift, transform, multiply by G and recur.

    The window is q0's stored block clipped to [center - W, center + W],
    never the dense 2W + 1 sites: the transform trims its input to the
    nonzero sites, so the bits are the same, and a clip that misses the
    block is empty, whose transform is the identity, as a zero window's
    is."""
    left, right = plan.center - plan.W, plan.center + plan.W
    block = q0.windowed(max(left, q0.offset), min(right, q0.offset + len(q0.values) - 1))
    m = nlft_forward(block.shifted(-left))
    bundle = g_bundle(plan.order, t)
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
    (loc,), (trunc,) = _window_budgets(params, W, range(s, s + 1))
    return ErrorBudget(loc, trunc)


def _window_budgets(params: SolveParams, W: int, offsets: range) -> tuple[list[float], list[float]]:
    """_budget_terms with POINT's localization where the window covers the
    recorded support, and WINDOW's, at params.r, on any other pass."""
    shape = POINT if params.covers_support else WINDOW
    log_c = stability_constant(params.eta, 0.5).log
    return _budget_terms(shape, log_c, params.eta, params.r, params.t, W, offsets)


def _budget_terms(
    shape: PassShape, log_c: float, eta: float, r: float, t: float, W: int, offsets: range
) -> tuple[list[float], list[float]]:
    """The localization and truncation terms of window_entry_budget at each
    offset of a pass of this shape over half-width W at radius r, bit for
    bit localization_bound's and t3_bound's; log_c is log C(eta, 1/2)."""
    truncs = _t3_terms(log_c, t, 2 * W, [W + s for s in offsets])
    return shape.localization(eta, r, t, W, offsets), truncs


def _solve(
    q0: Sequence, params: SolveParams, shape: PassShape
) -> tuple[Sequence, list[float], list[float]]:
    """Sites n0 - half .. n0 + half, half = shape.half(N), of the trimmed
    datum q0 at time t, with the localization and truncation terms of their
    budgets, from one Schur pass.

    The window is widened to W = N + half (see PassPlan), so every site
    keeps localization margin at least N.  The zero datum stays zero, with
    zero budgets.  A negative t (params.reflect) runs forward at |t| from
    the conjugated datum and conjugates the output: conj(q)(t) solves the
    equation with datum conj(q0) iff q(-t) does with datum q0.  A shape that
    mirrors (POINT) runs on the datum mirrored about n0 when the datum
    reaches further left of n0 than right; N and the budget are the
    unmirrored datum's.  The plan is built, and the cap checked, before the
    datum is mirrored, conjugated or windowed.
    """
    n0, half = params.n0, shape.half(params.N)
    if q0.is_zero:
        window = Sequence(n0 - half, np.zeros(2 * half + 1, dtype=np.complex128))
        locs = truncs = [0.0] * (2 * half + 1)
    else:
        lo, hi = q0.offset, q0.offset + len(q0.values) - 1
        mirror = shape.mirrors and hi - n0 < n0 - lo
        support = (2 * n0 - hi, 2 * n0 - lo) if mirror else (lo, hi)
        plan = PassPlan.build(support, n0, params.N, half, params.t)
        datum = q0.reflected(n0) if mirror else q0
        if params.reflect:
            datum = datum.conjugated()
        window = Sequence(n0 - half, _schur_pass(datum, params.t, plan)[plan.first :])
        locs, truncs = _window_budgets(params, plan.W, range(-half, half + 1))
    return (window.conjugated() if params.reflect else window), locs, truncs


def solve_point(q0: Sequence, t: float, n0: int, eps: float) -> tuple[complex, ErrorBudget]:
    """Approximate q(t, n0) with certified absolute error at most eps.

    The value is _solve's POINT pass, at half-width 0.  Its window is sized
    from the datum's support (see select_params) and the budget from the
    datum's own Szego product; the budget is an exact-arithmetic bound and
    leaves float64 roundoff out.
    """
    q0 = q0.trimmed()
    support = None if q0.is_zero else (q0.offset, q0.offset + len(q0.values) - 1)
    params = select_params(t, eps, q0.szego_product(), n0, support=support)
    window, (loc,), (trunc,) = _solve(q0, params, POINT)
    return complex(window.values[0]), ErrorBudget(loc, trunc)


def solve_window_detailed(
    q0: Sequence, t: float, n0: int, eps: float
) -> tuple[Sequence, np.ndarray, SolveParams]:
    """solve_window plus per-entry certified budgets and the parameters.

    One pass at half-width floor(N/2) (see _solve) gives all 2 floor(N/2) + 1
    entries; the right edge s = floor(N/2) carries the worst budget, <= eps.
    N is WINDOW's least half-width (_least_half_width) from 5 up to the
    closed form of select_params, and r the radius at which that search
    accepted it; the closed form itself, at r = 1/2, if even it misses.
    eta is the datum's own Szego product, 1 for the zero datum.  A pass
    above SCHUR_UPDATE_CAP is refused before it starts.
    """
    q0 = q0.trimmed()
    params = select_params(t, eps, q0.szego_product(), n0)
    sized = _least_half_width(WINDOW, params.eta, params.t, eps, 5, params.N)
    if sized is not None:
        params = replace(params, N=sized[0], r=sized[1])
    window, locs, truncs = _solve(q0, params, WINDOW)
    return window, np.add(locs, truncs), params


def solve_window(q0: Sequence, t: float, n0: int, eps: float) -> Sequence:
    """Approximate q(t, .) on [n0 - floor(N/2), n0 + floor(N/2)]; every
    entry carries a certified budget <= eps."""
    seq, _, _ = solve_window_detailed(q0, t, n0, eps)
    return seq
