"""Fast point and window solver for the defocusing Ablowitz-Ladik equation.

Pipeline for q(t, n0): truncate the datum to a window centered at n0, shift
it onto [0, 2N], multiply its one-sided Schur function by the Schur-class
multiplier G_{n,t}, and run Schur's algorithm; the recurrence coefficient at
index n + N + s approximates q(t, n0 + s), so one pass serves a point or a
whole window.  The returned budget certifies the two
error sources: window truncation (localization) and multiplier truncation.
It bounds the error of the exact-arithmetic pipeline; float64 roundoff is
not part of it.

The localization bound holds in L2(rT) for every radius r in (0, 1); the
window solver evaluates it at the r that minimizes it (best_radius) and
records that r in its parameters.

All bound formulas are evaluated in log space; the stability constant can
exceed 1e27 at moderate eta, so certified budgets are often astronomically
conservative compared to observed deviations.
"""

from __future__ import annotations

import math
# Unused here; perfbench/spans.py patches solver.ThreadPoolExecutor.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InfeasibleParamsError, NumericalGuardError, ValidationError
from .laurent import lp_conj_flip, lp_mul
from .multiplier import delta_nt, g_bundle
from .nlft import nlft_forward
from .schur import RationalSchur, exp_or_inf, schur_coeffs, stability_constant
from .sequence import Sequence

LOG2 = math.log(2.0)

# Hard cap on the certified window half-width; beyond this the requested
# (eta, eps) pair is declared infeasible rather than attempted.
N_HARD_CAP = 10**6

# Cap on the estimated work of a whole point or window solve, which is one
# Schur pass: steps (steps + 1) / 2 coefficient updates (schur_coeffs drops
# one coefficient per step).  About 6 s of recursion at the 1.6e8-1.8e8
# updates/s measured at 6k-12k steps on a 2-core x86 host (5e7 at 1.2k
# steps); the largest pass of the test suite and of the benchmark jobs, a
# point solve at eta 0.05 and t 6 with N = 385, needs under 7e5.
SCHUR_UPDATE_CAP = 10**9


@dataclass(frozen=True)
class SolveParams:
    """Certified run parameters: window half-width N, multiplier order n.

    support is the datum's inclusive support (lo, hi) when the caller
    supplied it; the point budget needs it to tell whether the window
    [n0 - N, n0 + N] covers the datum.  r is the radius at which the
    budgets evaluate localization_bound: 1/2 from select_params, the
    minimizing radius from the window solver.
    """

    N: int
    n: int
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
        if self.n != 2 * self.N:
            raise ValidationError("params require n = 2N")
        if self.N < 5:
            raise ValidationError("params require N >= 5")
        if not (self.n > self.t):
            raise ValidationError("params require n > t")
        if not (delta_nt(self.n, self.t) < 1.0):
            raise ValidationError("params require delta_{n,t} < 1")

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

    With the datum's inclusive support (lo, hi), N is instead the smaller
    of that closed form and the least M >= max(5, radius of the support
    about n0) with t3_bound(eta, |t|, 2M, M) <= eps: the window then covers
    the support, the windowed datum is the datum, and the localization term
    of the point budget is exactly 0.  Either way the point budget is at
    most eps in exact arithmetic; it does not cover float64 roundoff.
    The recorded radius is r = 1/2.  The window solver starts from the
    closed form and shrinks it (see solve_window_detailed).

    Negative t is recorded via the reflect flag: the solver runs forward
    at |t| from the conjugated datum and conjugates the output.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    if not (0.0 < eta <= 1.0):
        raise ValidationError("eta must lie in (0, 1]")
    sc = stability_constant(eta, 0.5)
    abs_t = abs(t)
    N = 5 + math.floor(4.0 * math.e * abs_t + (sc.log - math.log(eps)) / LOG2)
    if support is not None:
        radius = max(n0 - support[0], support[1] - n0)
        covering = _covering_half_width(sc.log, abs_t, eps, max(5, radius), min(N, N_HARD_CAP))
        if covering is not None:
            N = covering
    if N > N_HARD_CAP:
        raise InfeasibleParamsError(
            f"certified window N={N} exceeds the hard cap {N_HARD_CAP}; "
            f"eta={eta:.17g} is too small for eps={eps:.17g}"
        )
    return SolveParams(
        N=N, n=2 * N, eps=eps, eta=eta, t=abs_t, n0=n0, reflect=t < 0, support=support
    )


def _covering_half_width(log_c: float, t: float, eps: float, lo: int, hi: int) -> int | None:
    """Least M in [lo, hi] with 2M > t, delta_{2M,t} < 1 and
    t3_bound(eta, t, 2M, M) <= eps, or None; log_c is log C(eta, 1/2).

    For M < e t the bound exceeds 1 > eps: M log 2, log C and
    2M log(e t / M) are then nonnegative, and log 12 + 5t - log(4 pi M)/2
    is positive.  For M >= e t, log t3 falls by at least 2 - log 2 per unit
    of M.  So the test fails, then holds, as M grows, and bisection from
    max(lo, ceil(e t)) finds the least M.
    """
    def fits(M: int) -> bool:
        return _order_admissible(2 * M, t) and exp_or_inf(_log_t3(log_c, t, 2 * M, M)) <= eps

    return _least(fits, max(lo, math.ceil(math.e * t)), hi)


def _order_admissible(n: int, t: float) -> bool:
    """The SolveParams conditions on the multiplier order: n > t, delta_{n,t} < 1."""
    return n > t and delta_nt(n, t) < 1.0


def _least(fits, lo: int, hi: int) -> int | None:
    """Least M in [lo, hi] with fits(M), or None; fits must be False, then
    True, as M grows."""
    if lo > hi or not fits(hi):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    sc = stability_constant(eta, r)
    log_val = (
        math.log(4.0) + t / r + sc.log + (N - abs(j)) * math.log(r) - math.log(1.0 - r)
    )
    return exp_or_inf(log_val)


def localization_bound_direct(
    t: float, r: float, N: int, j: int, l2tail: float | None = None
) -> float:
    """Alternative truncation bound with explicit constants.

    sqrt(2) r e^{10 t / r^2} r^{N-|j|} / sqrt(1 - r^2), or with a supplied
    l2 tail  r e^{10 t / r^2} l2tail r^{N-|j|}.
    """
    if N < abs(j):
        raise ValidationError("localization bound requires N >= |j|")
    if not (0.0 < r < 1.0):
        raise ValidationError("localization bound requires 0 < r < 1")
    if t < 0:
        raise ValidationError("localization bound requires t >= 0")
    margin = (N - abs(j)) * math.log(r)
    if l2tail is not None:
        if l2tail == 0.0:
            return 0.0
        return exp_or_inf(math.log(r) + 10.0 * t / r**2 + math.log(l2tail) + margin)
    log_val = (
        0.5 * math.log(2.0)
        + math.log(r)
        + 10.0 * t / r**2
        + margin
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
    return exp_or_inf(_log_t3(stability_constant(eta, 0.5).log, t, n, j))


def _log_t3(log_c: float, t: float, n: int, j: int) -> float:
    """log of t3_bound for n > t >= 0, given log C(eta, 1/2)."""
    ratio = 2.0 * math.e * t / n
    if ratio == 0.0:  # t = 0, or a subnormal t that underflows: the bound is 0
        return -math.inf
    return (
        j * LOG2
        + log_c
        + math.log(12.0)
        + 5.0 * t
        - 0.5 * math.log(2.0 * math.pi * n)
        + n * math.log(ratio)
    )


def _schur_pass(q0: Sequence, t: float, center: int, W: int, order: int, steps: int) -> np.ndarray:
    """Window [center-W, center+W], shift onto [0, 2W], multiply by G and
    run the Schur recursion; returns the first `steps` coefficients.
    A pass whose estimated work exceeds SCHUR_UPDATE_CAP is refused first."""
    updates = steps * (steps + 1) // 2
    if updates > SCHUR_UPDATE_CAP:
        raise InfeasibleParamsError(
            f"Schur pass with half-width N={W} needs {steps} steps, about "
            f"{updates:.3g} coefficient updates, above the cap {SCHUR_UPDATE_CAP:.3g}"
        )
    windowed = q0.windowed(center - W, center + W).shifted(-(center - W))
    m = nlft_forward(windowed)
    bundle = g_bundle(order, t)
    f0 = RationalSchur(lp_mul(bundle.g, lp_conj_flip(m.b)), m.a).validate()
    coeffs = schur_coeffs(f0, steps)
    if len(coeffs.gammas) < steps:
        raise NumericalGuardError(
            "Schur recursion terminated at a unimodular constant before the "
            "requested index; input is at the Schur-class boundary"
        )
    return coeffs.gammas


def _point_budget(params: SolveParams) -> ErrorBudget:
    if params.covers_support:
        # The windowed datum equals the datum, so its l2 tail is 0 and so
        # is localization_bound_direct with l2tail=0.
        loc = 0.0
    else:
        loc = localization_bound(params.eta, params.r, params.t, params.N, 0)
    trunc = t3_bound(params.eta, params.t, params.n, params.N)
    return ErrorBudget(loc, trunc)


def solve_point(
    q0: Sequence, t: float, n0: int, eps: float, eta: float | None = None
) -> tuple[complex, ErrorBudget]:
    """Approximate q(t, n0) with certified absolute error at most eps.

    The window is sized from the datum's support (see select_params); the
    budget is an exact-arithmetic bound and leaves float64 roundoff out.
    """
    q0 = q0.trimmed()
    if q0.is_zero:
        return 0.0 + 0.0j, ErrorBudget(0.0, 0.0)
    if eta is None:
        eta = q0.szego_product()
    if t < 0:
        # Conjugating the datum reverses the flow: conj(q)(t) solves the
        # equation with datum conj(q0) iff q(-t) does with datum q0.
        value, budget = solve_point(q0.conjugated(), -t, n0, eps, eta)
        return complex(value).conjugate(), budget
    params = select_params(t, eps, eta, n0, support=q0.support())
    steps = params.n + params.N + 1
    gammas = _schur_pass(q0, params.t, n0, params.N, params.n, steps)
    return complex(gammas[params.n + params.N]), _point_budget(params)


def window_entry_budget(params: SolveParams, W: int, s: int) -> float:
    """Certified budget for the window entry at signed offset s from the
    center, computed with the widened half-width W used by solve_window and
    the radius params.r: localization at margin W - |s|, t3 at query index
    W + s, so the budgets are not symmetric and the right edge is worst."""
    loc = localization_bound(params.eta, params.r, params.t, W, s)
    trunc = t3_bound(params.eta, params.t, 2 * W, W + s)
    return loc + trunc


def _window_params(closed: SolveParams) -> SolveParams:
    """The least window half-width M <= closed.N whose worst entry bound is
    within eps, with the minimizing radius at margin M recorded; closed
    itself (r = 1/2) if even M = closed.N misses.

    Below M = e t the localization bound exceeds 4 > eps at every r; above
    it both terms fall as M grows, so bisection finds the least M.
    """
    eta, t, eps = closed.eta, closed.t, closed.eps

    def fits(M: int) -> bool:
        if not _order_admissible(2 * M, t):
            return False
        W = M + M // 2
        loc = localization_bound(eta, best_radius(eta, t, M), t, M, 0)
        return loc + t3_bound(eta, t, 2 * W, W + M // 2) <= eps

    M = _least(fits, max(5, math.ceil(math.e * t)), closed.N)
    if M is None:
        return closed
    return replace(closed, N=M, n=2 * M, r=best_radius(eta, t, M))


def solve_window_detailed(
    q0: Sequence, t: float, n0: int, eps: float, eta: float | None = None
) -> tuple[Sequence, np.ndarray, SolveParams]:
    """solve_window plus per-entry certified budgets and the parameters.

    The truncation window is widened to W = N + floor(N/2) (order 2W) so
    every emitted site keeps localization margin at least N.  One Schur
    pass over it gives all 2 floor(N/2) + 1 entries: site n0 + s is the
    coefficient at index order + W + s, with t3 at query index W + s, so
    the right edge s = floor(N/2) carries the worst budget, <= eps.
    N is the least M, at most the closed form of select_params, at which
    that worst bound is within eps: the localization bound at margin M and
    radius best_radius(eta, t, M), plus t3_bound(eta, t, 2W, W + floor(M/2)).
    """
    q0 = q0.trimmed()
    if eta is None:
        eta = 1.0 if q0.is_zero else q0.szego_product()
    if t < 0:
        seq, budgets, params = solve_window_detailed(q0.conjugated(), -t, n0, eps, eta)
        return seq.conjugated(), budgets, replace(params, reflect=True)
    params = _window_params(select_params(t, eps, eta, n0))
    half = params.N // 2
    if q0.is_zero:
        return (
            Sequence(n0 - half, np.zeros(2 * half + 1, dtype=np.complex128)),
            np.zeros(2 * half + 1),
            params,
        )
    W = params.N + half
    order = 2 * W
    gammas = _schur_pass(q0, params.t, n0, W, order, order + W + half + 1)
    budgets = np.array([window_entry_budget(params, W, s) for s in range(-half, half + 1)])
    return Sequence(n0 - half, gammas[order + W - half :]), budgets, params


def solve_window(
    q0: Sequence, t: float, n0: int, eps: float, eta: float | None = None
) -> Sequence:
    """Approximate q(t, .) on [n0 - floor(N/2), n0 + floor(N/2)]; every
    entry carries a certified budget <= eps."""
    seq, _, _ = solve_window_detailed(q0, t, n0, eps, eta)
    return seq
