"""Truncated scattering multiplier built from Bessel coefficients.

e^{it(z + 1/z)} has the Laurent expansion sum_k i^k J_k(2t) z^k; truncating
at order n gives P_{n,t}, and

    G_{n,t} = (1 - delta_{n,t}) z^n P_{n,t},    delta_{n,t} = t^n e^t / n!,

is a Schur-class analytic polynomial: the truncation error on the unit
circle is at most delta_{n,t}, and the (1 - delta) factor absorbs it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .laurent import CircleGrid, LaurentPoly, lp_eval_grid, next_pow2
from .schur import exp_or_inf


# i^k by k mod 4, signed zeros as in 1j**k.  1j**k itself is inexact from
# k = 101 on, where Python's complex power goes through polar form.
_I_POWERS = np.array([1.0, 1j, -1.0, complex(-0.0, -1.0)])

# log(2^-64): the Bessel table stores J_k(x) below e^this as exact zeros,
# 2^-11 of the rounding unit of its O(1) entries.
_LOG_NEGLIGIBLE = -64.0 * math.log(2.0)


def _least(holds, lo: int, hi: int) -> int | None:
    """Least n in [lo, hi] with holds(n), or None if holds(hi) is false;
    holds must be false, then true, as n grows."""
    if lo > hi or not holds(hi):
        return None
    return _bisect(holds, lo - 1, hi)


def _bisect(holds, bad: int, good: int) -> int:
    """Least n in (bad, good] with holds(n), given holds(good) and that
    holds is false up to bad, then true."""
    while good - bad > 1:
        mid = (bad + good) // 2
        if holds(mid):
            good = mid
        else:
            bad = mid
    return good


def _least_from(holds, guess: int, lo: int, hi: int) -> int | None:
    """_least(holds, lo, hi), searched outward from guess: steps of 1, 2,
    4, ... from guess (clamped to [lo, hi]) bracket the least n between a
    false and a true probe, and bisection closes the bracket.  The answer
    is _least's for any holds that is false, then true; a guess off by d
    costs about 2 log2(d + 1) + 2 probes, an exact one 2."""
    if lo > hi:
        return None
    n, step = min(max(guess, lo), hi), 1
    if holds(n):
        good = n  # holds(good); the least n lies in (bad, good]
        while good - step >= lo and holds(good - step):
            good, step = good - step, 2 * step
        bad = max(lo - 1, good - step)
    else:
        bad = n
        while True:
            if bad == hi:
                return None
            n = min(bad + step, hi)
            if holds(n):
                good = n
                break
            bad, step = n, 2 * step
    return _bisect(holds, bad, good)


def _log_bessel_bound(k: int, x: float) -> float:
    """log of Siegel's bound |J_k(x)| <= z^k e^{k s} / (1 + s)^k, where
    z = x/k <= 1 and s = sqrt(1 - z^2) (DLMF 10.14.5); -inf where z
    underflows to 0."""
    z = x / k
    if z == 0.0:
        return -math.inf
    s = math.sqrt((1.0 - z) * (1.0 + z))
    return k * (math.log(z) + s - math.log1p(s))


@functools.lru_cache(maxsize=64)
def _bessel_start(x: float) -> int:
    """Order M from which Miller's recurrence for J_k(x) starts, x > 0:
    the least M >= x - 1 at which Siegel's bound on J_{M+1}(x) is below
    2^-64, so that J_k(x) < 2^-64 for every k > M.

    Past k = x, J_k(x) stops oscillating and decays: the log of the bound
    is -k (artanh s - s) <= -k s^3 / 3, which falls like
    -(2^{3/2}/3) k (1 - x/k)^{3/2} just past x and like k log(e x / 2k)
    far out.  It decreases in k for k >= x, so the search bisects, and
    M - x grows like x^{1/3}: M(1) = 17, M(16) = 50, M(2400) = 2574.

    The search ends at hi = max(lo, 2 ceil(x), 99): there z <= 1/2, so the
    bound's log per unit of k, log z + s - log(1 + s), which rises with z,
    is at most -0.4509, and 99 (-0.4509) = -44.64 < -64 log 2.  Cached,
    since a Schur pass asks twice: for its PassPlan and its Bessel table.
    """
    lo = max(1, math.ceil(x))
    hi = max(lo, 2 * math.ceil(x), 99)
    return _least(lambda k: _log_bessel_bound(k, x) < _LOG_NEGLIGIBLE, lo, hi) - 1


def _bessel_table(n: int, x: float) -> np.ndarray:
    """J_0(x), ..., J_m(x) for x >= 0 and m = min(n, M), in one backward
    pass of Miller's recurrence (Gautschi, SIAM Review 9, 1967; DLMF 3.6,
    10.12); J_k(x) for k > M is an exact 0.

    The pass starts at M = _bessel_start(x), fixed by x alone, so tables of
    any length agree bit for bit where they overlap.  Every J_k(x) with
    k > M is below 2^-64 and falls off faster than geometrically, so the
    zeros past the table, and the terms past M left out of the
    normalising sum, cost each entry well under an ulp.  From
    v_{M+1} = 0, v_M = 1 it runs v_{k-1} = (2k/x) v_k - v_{k+1}, which
    J_k(x) and Y_k(x) both satisfy.  So v_k = a (J_k - (J_{M+1} / Y_{M+1})
    Y_k), and since |Y_k| <= |Y_{M+1}| for k <= M + 1, the start costs
    each entry at most J_{M+1}(x) < 2^-64 more.  The running value grows
    about as 1/J_M(x).  Siegel's bound exceeds J_M(x) by a factor that
    grows only like M^{1/2} (Debye's expansion), so that stays near 2^64
    (at most 2^68.3 for x from 1e-25 to 1e5), far inside the float64
    range, and the pass is not rescaled.  J_0 + 2 sum_k J_2k = 1
    (DLMF 10.12.4) fixes the common factor a; at x = 0 the table is
    exactly 1.
    """
    if x == 0.0:
        return np.ones(1)
    top = _bessel_start(x)
    values = [1.0]  # v_top, ..., v_k
    ahead, cur = 0.0, 1.0
    for k in range(top, 0, -1):
        ahead, cur = cur, 2.0 * k / x * cur - ahead
        values.append(cur)
    # v_0 + 2 sum_{k >= 1} v_2k (cur is v_0), rounded once.
    even = values[top % 2 :: 2]
    norm = math.fsum(even + even + [-cur])
    return np.array(values[::-1][: n + 1]) / norm


def bessel_j(k: int, x: float) -> float:
    """J_k(x) for integer k and x >= 0, from the table of _bessel_table;
    a negative order by parity, J_{-k} = (-1)^k J_k."""
    if not 0.0 <= x < math.inf:
        raise ValidationError("bessel_j requires finite nonnegative x")
    m = abs(k)
    table = _bessel_table(m, x)
    j = float(table[m]) if m < len(table) else 0.0
    return -j if k < 0 and m % 2 else j


def delta_nt(n: int, t: float) -> float:
    """delta_{n,t} = t^n e^t / n!, via exp(n log t + t - lgamma(n+1)),
    saturating to +inf where that overflows."""
    return exp_or_inf(_log_delta_nt(n, t))


def _log_delta_nt(n: int, t: float) -> float:
    """n log t + t - lgamma(n + 1), the log of delta_{n,t}; at t = 0 it is
    0 for n = 0 and -inf above.  Past lgamma's range it is the upper bound
    _log_delta_stirling(n, t, 0.0)."""
    if t < 0:
        raise ValidationError("delta_nt requires t >= 0")
    if t == 0.0:
        return 0.0 if n == 0 else -math.inf
    try:
        return n * math.log(t) + t - math.lgamma(n + 1)
    except OverflowError:  # past lgamma's range (_past_lgamma)
        return _log_delta_stirling(n, t, 0.0)


def _past_lgamma(n: int) -> bool:
    """lgamma(n + 1) overflows a double: n above about 2.5e305."""
    try:
        math.lgamma(n + 1)
    except OverflowError:
        return True
    return False


def _log_delta_stirling(n: int, t: float, log_r: float) -> float:
    """Upper bound on log(delta_{n,t} r^-n), log_r = log r, for t > 0 and
    any int n >= 1, from n! >= sqrt(2 pi n) (n/e)^n (Stirling):
    t + n log(e t / (n r)) - log(2 pi n) / 2, +inf where log(e t / (n r))
    is not negative.  math.log takes any int, and an n past 2^1023 counts
    as 2^1023 against the negative rate, which only raises the bound."""
    log_n = math.log(n)
    rate = 1.0 + math.log(t) - log_n - log_r
    if not rate < 0.0:
        return math.inf
    return t - 0.5 * (math.log(2.0 * math.pi) + log_n) + min(n, 2**1023) * rate


def _band(n: int, t: float) -> np.ndarray:
    """The coefficients i^|k| J_|k|(2t) of P_{n,t} at z^-m .. z^m, for
    m = min(n, M) and M = _bessel_start(2t); every one past order M is an
    exact 0.  Those at +k and -k coincide: i^{-k} J_{-k} = i^k J_k."""
    if n < 1:
        raise ValidationError("p_poly requires order n >= 1")
    if t < 0:
        raise ValidationError("p_poly requires t >= 0 (negative times are reflected upstream)")
    if not 2.0 * t < math.inf:
        raise ValidationError("p_poly requires a finite 2t")
    table = _bessel_table(n, 2.0 * t)
    half = _I_POWERS[np.arange(len(table)) % 4] * table
    return np.concatenate((half[:0:-1], half))


def p_poly(n: int, t: float) -> LaurentPoly:
    """Truncated multiplier P_{n,t} = sum_{|k| <= n} i^k J_k(2t) z^k; its
    coefficients past order M = _bessel_start(2t) are exact zeros and are
    not stored."""
    band = _band(n, t)
    return LaurentPoly(-(len(band) // 2), band)


def bundle_grid_size(n: int) -> int:
    """Grid nodes for a peak check of n coefficients: 4n rounded up to a
    power of two, at least 64.  MultiplierBundle passes the length of its
    stored band, the multiplier command the order."""
    return next_pow2(4 * n, 64)


@dataclass(frozen=True)
class MultiplierBundle:
    """G_{n,t} together with its order, time, and truncation defect delta."""

    n: int
    t: float
    g: LaurentPoly
    delta: float

    def __post_init__(self):
        if not (self.delta < 1.0):
            raise ValidationError("multiplier bundle requires delta < 1")
        if not np.isfinite(self.g.coeffs).all():
            raise ValidationError("multiplier bundle requires finite coefficients")
        # |z^(n - m)| = 1 on the circle, so G peaks where the polynomial of
        # its 2m + 1 stored coefficients does; a grid sized from that band,
        # not from n, does not alias it.
        grid = CircleGrid(bundle_grid_size(len(self.g.coeffs)))
        peak = float(np.max(np.abs(lp_eval_grid(self.g, grid))))
        # Exact bound is 1 - delta^2; the slack covers double rounding when
        # delta has underflowed far below the evaluation noise.  A NaN peak
        # fails "not within".
        if not peak <= 1.0 - self.delta**2 + 1e-12:
            raise ValidationError(f"multiplier peak {peak:.17g} outside the Schur class")


def order_admissible(n: int, t: float) -> bool:
    """The orders at which G_{n,t} is built: n > t and delta_{n,t} < 1."""
    return n > t and delta_nt(n, t) < 1.0


def smallest_admissible_order(t: float) -> int | None:
    """Least admissible n (see order_admissible).  delta_{n+1,t} / delta_{n,t}
    = t / (n + 1) < 1 above t, so the search bisects.  It ends at
    hi = max(lo, ceil(e^2 t)): n! >= (n/e)^n gives
    delta_{n,t} <= e^t (e t / n)^n <= e^{t - n} < 1 there.

    None where that bracket reaches past lgamma's range (_past_lgamma),
    where delta_nt is only an upper bound: for t above about 3.5e304.  The
    min keeps hi finite where e^2 t overflows; 1e306 is past that range."""
    lo = max(1, math.floor(t) + 1)
    hi = max(lo, math.ceil(min(math.e**2 * t, 1e306)))
    return None if _past_lgamma(hi) else _least(lambda n: order_admissible(n, t), lo, hi)


def g_bundle(n: int, t: float) -> MultiplierBundle:
    """Schur-class multiplier bundle G_{n,t} = (1 - delta) z^n P_{n,t}."""
    # "Not within", so that NaN is refused too; an infinite t has no
    # admissible order to name.
    if not 0.0 <= t < math.inf:
        raise ValidationError("g_bundle requires a finite t >= 0")
    if not order_admissible(n, t):
        least = smallest_admissible_order(t)
        named = (
            f"smallest admissible n is {least}" if least is not None
            else "the smallest admissible n is too large for delta_{n,t} to be evaluated"
        )
        raise ValidationError(f"order n={n} inadmissible at t={t:.17g}; {named}")
    delta = delta_nt(n, t)
    band = _band(n, t)  # z^n P_{n,t} at z^(n - m) .. z^(n + m)
    g = LaurentPoly(n - len(band) // 2, band * (1.0 - delta))
    return MultiplierBundle(n, t, g, delta)


def s_bound(n: int, t: float, r: float) -> float:
    """One-step multiplier increment bound S_n(t,r) = 6 delta_{n,t} e^{t/r},
    formed as one exp of its log, so that e^{t/r} cannot overflow where
    delta_{n,t} underflows."""
    if not (0.0 < r < 1.0):
        raise ValidationError("s_bound requires 0 < r < 1")
    return exp_or_inf(math.log(6.0) + _log_delta_nt(n, t) + t / r)


def tail_bound(n: int, t: float, r: float) -> float:
    """Bound for sum_{k >= n} S_k(t,r) r^{-k}: 6 delta_{n,t} e^{2t/r} r^{-n},
    formed as one exp of its log like s_bound."""
    if not (0.0 < r < 1.0):
        raise ValidationError("tail_bound requires 0 < r < 1")
    if not (n > t > 0.0):
        raise ValidationError("tail_bound requires n > t > 0")
    if _past_lgamma(n):
        return exp_or_inf(math.log(6.0) + 2.0 * t / r + _log_delta_stirling(n, t, math.log(r)))
    return exp_or_inf(math.log(6.0) + _log_delta_nt(n, t) + 2.0 * t / r - n * math.log(r))
