"""Truncated scattering multiplier built from Bessel coefficients.

e^{it(z + 1/z)} has the Laurent expansion sum_k i^k J_k(2t) z^k; truncating
at order n gives P_{n,t}, and

    G_{n,t} = (1 - delta_{n,t}) z^n P_{n,t},    delta_{n,t} = t^n e^t / n!,

is a Schur-class analytic polynomial: the truncation error on the unit
circle is at most delta_{n,t}, and the (1 - delta) factor absorbs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .laurent import CircleGrid, LaurentPoly, lp_eval_grid, next_pow2


# i^k by k mod 4, signed zeros as in 1j**k.  1j**k itself is inexact from
# k = 101 on, where Python's complex power goes through polar form.
_I_POWERS = np.array([1.0, 1j, -1.0, complex(-0.0, -1.0)])


def bessel_j(k: int, x: float) -> float:
    """J_k(x) for integer k and x >= 0, from scipy.special.jv.

    scipy.special (about 0.3 s to load) is imported at the first call here
    or in p_poly, not with this module, so processes that never evaluate a
    Bessel coefficient (the nlft and reference commands) never load it.
    """
    from scipy.special import jv

    if x < 0:
        raise ValidationError("bessel_j requires nonnegative x")
    return float(jv(k, x))


def delta_nt(n: int, t: float) -> float:
    """delta_{n,t} = t^n e^t / n!, via exp(n log t + t - lgamma(n+1))."""
    if t < 0:
        raise ValidationError("delta_nt requires t >= 0")
    if t == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(n * math.log(t) + t - math.lgamma(n + 1))


def p_poly(n: int, t: float) -> LaurentPoly:
    """Truncated multiplier P_{n,t} = sum_{|k| <= n} i^k J_k(2t) z^k.

    Coefficients at +k and -k coincide: i^{-k} J_{-k} = i^k J_k.
    """
    if n < 1:
        raise ValidationError("p_poly requires order n >= 1")
    if t < 0:
        raise ValidationError("p_poly requires t >= 0 (negative times are reflected upstream)")
    from scipy.special import jv  # at first use; see bessel_j

    k = np.arange(n + 1)
    half = _I_POWERS[k % 4] * jv(k, 2.0 * t)
    return LaurentPoly(-n, np.concatenate((half[:0:-1], half)))


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
        grid = CircleGrid(next_pow2(4 * self.n, 64))
        peak = float(np.max(np.abs(lp_eval_grid(self.g, grid))))
        # Exact bound is 1 - delta^2; the slack covers double rounding when
        # delta has underflowed far below the evaluation noise.
        if peak > 1.0 - self.delta**2 + 1e-12:
            raise ValidationError(f"multiplier peak {peak:.17g} outside the Schur class")


def smallest_admissible_order(t: float) -> int:
    """Least n with n > t and delta_{n,t} < 1."""
    n = max(1, math.floor(t) + 1)
    while delta_nt(n, t) >= 1.0:
        n += 1
    return n


def g_bundle(n: int, t: float) -> MultiplierBundle:
    """Schur-class multiplier bundle G_{n,t} = (1 - delta) z^n P_{n,t}."""
    if t < 0:
        raise ValidationError("g_bundle requires t >= 0")
    delta = delta_nt(n, t)
    if n <= t or delta >= 1.0:
        raise ValidationError(
            f"order n={n} inadmissible at t={t:.17g}; "
            f"smallest admissible n is {smallest_admissible_order(t)}"
        )
    p = p_poly(n, t)
    shifted = LaurentPoly(n + p.min_deg, p.coeffs)  # z^n P_{n,t}
    return MultiplierBundle(n, t, (1.0 - delta) * shifted, delta)


def s_bound(n: int, t: float, r: float) -> float:
    """One-step multiplier increment bound S_n(t,r) = 6 delta_{n,t} e^{t/r}."""
    if not (0.0 < r < 1.0):
        raise ValidationError("s_bound requires 0 < r < 1")
    return 6.0 * delta_nt(n, t) * math.exp(t / r)


def tail_bound(n: int, t: float, r: float) -> float:
    """Bound for sum_{k >= n} S_k(t,r) r^{-k}: 6 delta_{n,t} e^{2t/r} r^{-n}."""
    if not (0.0 < r < 1.0):
        raise ValidationError("tail_bound requires 0 < r < 1")
    if not (n > t > 0.0):
        raise ValidationError("tail_bound requires n > t > 0")
    return 6.0 * delta_nt(n, t) * math.exp(2.0 * t / r) * r ** (-n)
