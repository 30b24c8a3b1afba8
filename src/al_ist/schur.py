"""Schur's algorithm on rational Schur-class functions.

A Schur function maps the open unit disk into its closure; the algorithm
peels off the value at the origin,

    z F_next(z) = (F(z) - F(0)) / (1 - conj(F(0)) F(z)),

producing the recurrence coefficients gamma_k = F_k(0).  The Szego product
eta = prod (1 - |gamma_k|^2) measures how far the function stays from the
unimodular boundary, and the stability constant C(eta, r) controls how fast
perturbations of F can grow along the iteration in L2(r T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .laurent import CircleGrid, LaurentPoly, lp_eval_grid, witness_grid
from .sequence import Sequence

# |gamma| at or above this is treated as a terminal unimodular constant
# (finite Blaschke product); continuing would divide by ~0 everywhere.
STOP_THRESHOLD = 1.0 - 1e-12

WITNESS_GRID = 1024


class SchurStop(Exception):
    """Iteration reached a (numerically) unimodular constant."""

    def __init__(self, gamma: complex):
        super().__init__(f"Schur iteration stopped at |gamma| = {abs(gamma):.17g}")
        self.gamma = gamma


@dataclass(frozen=True)
class RationalSchur:
    """Ratio num/den of Laurent polynomials representing a Schur function.

    num has only nonnegative exponents and den has den(0) != 0, so the
    ratio is analytic at the origin.  Schur-class membership (|num| <= |den|
    on the unit circle) is a property of the inputs we accept; validate()
    checks it on a fixed grid and is called at pipeline entry points rather
    than on every intermediate iterate.
    """

    num: LaurentPoly
    den: LaurentPoly = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.den is None:
            object.__setattr__(self, "den", LaurentPoly(0, [1.0]))
        if self.num.min_deg < 0:
            raise ValidationError("numerator must have min_deg >= 0")
        if self.den.min_deg != 0:
            raise ValidationError("denominator must have min_deg = 0 and den(0) != 0")

    def value_at_zero(self) -> complex:
        return self.num.coefficient(0) / self.den.coefficient(0)

    def grid_values(self, g: CircleGrid) -> np.ndarray:
        return lp_eval_grid(self.num, g) / lp_eval_grid(self.den, g)

    def validate(self) -> "RationalSchur":
        """Schur-class witness: |num| <= |den| + 1e-9 max|den| on the nodes
        of witness_grid(num, den).

        The grid has more nodes than either polynomial has exponent span,
        so no coefficient aliases onto another: the check samples the true
        functions on the circle.  It is a sampled check, not a proof of the
        bound between nodes.
        """
        g = witness_grid(self.num, self.den)
        pv = np.abs(lp_eval_grid(self.num, g))
        qv = np.abs(lp_eval_grid(self.den, g))
        tol = 1e-9 * float(np.max(qv))
        if float(np.max(pv - qv)) > tol:
            raise ValidationError("not a Schur-class function: |num| > |den| on the circle")
        return self


@dataclass(frozen=True)
class SchurCoeffs:
    """Recurrence coefficients, plus the terminal unimodular value if the
    iteration stopped at a finite Blaschke product."""

    gammas: np.ndarray
    terminal: complex | None = None

    def __post_init__(self):
        arr = np.asarray(self.gammas, dtype=np.complex128)
        if arr.size and np.max(np.abs(arr)) >= 1.0:
            raise ValidationError("recurrence coefficients must have modulus < 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "gammas", arr)

    def __len__(self) -> int:
        return len(self.gammas)


def _dense(p: LaurentPoly, width: int) -> np.ndarray:
    """Coefficients of z^0 .. z^(width-1) of p (min_deg >= 0), zero-padded."""
    out = np.zeros(width, dtype=np.complex128)
    block = p.coeffs[: max(0, width - p.min_deg)]
    out[p.min_deg : p.min_deg + len(block)] = block
    return out


def _step(p: np.ndarray, q: np.ndarray, work_p: np.ndarray, work_q: np.ndarray):
    """One Schur step on dense coefficient arrays p, q of equal length n, in
    place: the next iterate's numerator is written over p[:n - 1] and its
    denominator over q.  work_p (length n - 1) and work_q (length n) are
    caller-owned scratch.

    gamma = p(0)/q(0); the next iterate is (p - gamma q) / (z (q - conj(gamma) p)),
    renormalized so the new denominator has value 1 at the origin.  The
    constant term of p - gamma q cancels by construction, so it is dropped
    rather than divided out.  Both are scaled by the one reciprocal
    1/(q(0) - conj(gamma) p(0)) instead of two array divisions.  The scaling
    reads the scratch and writes p, q: numpy rounds an in-place complex
    multiply of a length-1 array differently from a longer one, and the
    result must not depend on how many trailing coefficients are carried.
    Returns (gamma, ok); ok is False, and the arrays are untouched, once
    |gamma| reaches STOP_THRESHOLD.  A zero p(0) counts as +0, whatever its
    sign bits.
    """
    gamma = (complex(p[0]) or 0j) / complex(q[0])
    if abs(gamma) >= STOP_THRESHOLD:
        return gamma, False
    np.multiply(gamma.conjugate(), p, out=work_q)
    np.subtract(q, work_q, out=work_q)
    # den(0) = q(0) (1 - |gamma|^2), bounded away from 0 by the stop check
    r = 1.0 / complex(work_q[0])
    np.multiply(gamma, q[1:], out=work_p)
    np.subtract(p[1:], work_p, out=work_p)
    np.multiply(work_p, r, out=p[:-1])
    np.multiply(work_q, r, out=q)
    return gamma, True


def schur_step(f: RationalSchur) -> tuple[complex, RationalSchur]:
    """One step of Schur's algorithm; raises SchurStop at a unimodular gamma."""
    width = max(f.num.max_deg, f.den.max_deg) + 1
    p, q = _dense(f.num, width), _dense(f.den, width)
    work_p = np.empty(width - 1, dtype=np.complex128)
    work_q = np.empty(width, dtype=np.complex128)
    gamma, ok = _step(p, q, work_p, work_q)
    if not ok:
        raise SchurStop(gamma)
    return gamma, RationalSchur(LaurentPoly(0, p[:-1]), LaurentPoly(0, q))


def schur_coeffs(f: RationalSchur, m: int) -> SchurCoeffs:
    """First m recurrence coefficients of f.

    gamma_k depends only on the Taylor coefficients of num and den below
    degree k + 1 (new coefficient j is built from old j and j + 1), so the
    recursion starts from m coefficients of each and drops one trailing
    coefficient per step.  Each step overwrites the leading part of the same
    two arrays, with one preallocated pair of scratch buffers.  If the
    iteration terminates at step k < m, the k collected coefficients are
    returned and the terminating unimodular gamma is flagged separately.
    """
    if m < 0:
        raise ValidationError("coefficient count must be nonnegative")
    gammas = np.zeros(m, dtype=np.complex128)
    p, q = _dense(f.num, m), _dense(f.den, m)
    work_p, work_q = np.empty_like(p), np.empty_like(q)
    for k in range(m):
        width = m - k
        gamma, ok = _step(p[:width], q[:width], work_p[: width - 1], work_q[:width])
        if not ok:
            return SchurCoeffs(gammas[:k], terminal=gamma)
        gammas[k] = gamma
    return SchurCoeffs(gammas)


def eta(c: SchurCoeffs) -> float:
    """Szego product prod (1 - |gamma_k|^2) of the coefficient sequence."""
    return Sequence(0, c.gammas).szego_product()


class StabilityConstant(NamedTuple):
    value: float
    log: float


def stability_constant(eta_value: float, r: float) -> StabilityConstant:
    """C(eta, r) = exp(log(1/eta) (2 + 1/(1 - sqrt(1 - eta))) (4/(1-r)^2 + 1)).

    Returned together with its natural log, since the value itself overflows
    to inf for small eta.
    """
    if not (0.0 < eta_value <= 1.0):
        raise ValidationError("eta must lie in (0, 1]")
    if not (0.0 < r < 1.0):
        raise ValidationError("r must lie in (0, 1)")
    if eta_value == 1.0:
        return StabilityConstant(1.0, 0.0)
    log_c = (
        math.log(1.0 / eta_value)
        * (2.0 + 1.0 / (1.0 - math.sqrt(1.0 - eta_value)))
        * (4.0 / (1.0 - r) ** 2 + 1.0)
    )
    return StabilityConstant(exp_or_inf(log_c), log_c)


def exp_or_inf(log_value: float) -> float:
    """exp saturating to +inf instead of raising OverflowError."""
    if log_value > 709.0:
        return math.inf
    return math.exp(log_value)


def l2_norm_circle(f: RationalSchur, r: float, M: int) -> float:
    """sqrt of the mean of |f|^2 over M equispaced nodes on the circle of
    radius r; the equispaced mean is the exact trapezoid rule there."""
    if not (0.0 < r < 1.0):
        raise ValidationError("r must lie in (0, 1)")
    vals = f.grid_values(CircleGrid(M, r))
    return float(np.sqrt(np.mean(np.abs(vals) ** 2)))


def iterate_energy_bound_check(f: RationalSchur, r: float, m: int) -> tuple[float, float]:
    """Sum of squared sup-norms of the first m iterates on rT against the
    Szego-energy bound (4/(1-r)^2) log(1/eta_m).

    Returns (lhs, rhs); callers assert lhs <= rhs + tol.
    """
    g = CircleGrid(WITNESS_GRID, r)
    lhs = 0.0
    cur = f
    gammas = []
    for _ in range(m):
        lhs += float(np.max(np.abs(cur.grid_values(g)))) ** 2
        gamma, cur = schur_step(cur)
        gammas.append(gamma)
    eta_m = eta(SchurCoeffs(np.asarray(gammas)))
    rhs = (4.0 / (1.0 - r) ** 2) * math.log(1.0 / eta_m)
    return lhs, rhs
