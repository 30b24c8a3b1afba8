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

# Steps the Schur kernel runs on one set of array views (see _recur).
BLOCK = 64


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
        # "Not within", so that a NaN value or tolerance is refused too.
        if not float(np.max(pv - qv)) <= tol:
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
        # "Not below 1", so that NaN is refused too.
        if arr.size and not np.max(np.abs(arr)) < 1.0:
            raise ValidationError("recurrence coefficients must have modulus < 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "gammas", arr)

    def __len__(self) -> int:
        return len(self.gammas)

    def __eq__(self, other):
        if not isinstance(other, SchurCoeffs):
            return NotImplemented
        return np.array_equal(self.gammas, other.gammas) and self.terminal == other.terminal

    def __hash__(self):
        return hash(((self.gammas + 0.0).tobytes(), self.terminal))  # + 0.0 turns -0 into +0


def _dense(p: LaurentPoly, width: int, start: int = 0) -> np.ndarray:
    """Coefficients of z^start .. z^(start+width-1) of p (min_deg >= start),
    zero-padded."""
    out = np.zeros(width, dtype=np.complex128)
    first = p.min_deg - start
    block = p.coeffs[: max(0, width - first)]
    out[first : first + len(block)] = block
    return out


def _shifts_exactly(p: LaurentPoly) -> bool:
    """Every real and imaginary part of p's coefficients is finite, and
    none is -0.

    A zero gamma times such a coefficient is a signed zero, and taking a
    signed zero away from a part leaves a nonzero part as it is and a +0
    part +0.  A -0 part can turn into +0 there, and an infinite part gives
    NaN, so a zero step would not be a plain shift.
    """
    parts = p.coeffs.view(np.float64)
    return bool(np.isfinite(parts).all()) and not np.signbit(parts[parts == 0]).any()


def _recur(p: np.ndarray, q: np.ndarray, steps: int, gammas: np.ndarray):
    """Run up to `steps` Schur steps on dense coefficient arrays p, q of
    equal length L >= steps, writing gamma_k to gammas[k].

    Step k reads the iterate p/q and writes the next one, unnormalized:

        gamma = p(0) / q(0),
        p' = (p - gamma q) / z,     q' = q - conj(gamma) p.

    The constant term of p - gamma q cancels by construction, so p' is
    p[1:] - gamma q[1:].  That is four ufunc calls, each writing a buffer it
    does not read from at a shift: p' goes to the other of two p buffers
    (they alternate), both products go to one scratch buffer, and q' is
    written over q, which the subtraction reads at the same index.  A zero
    p(0) counts as +0, whatever its sign bits.

    gamma does not depend on the common scale of p and q, so the iterate is
    not renormalized to q(0) = 1.  Instead, whenever |q(0)| lies outside
    [1/2, 1), p and q are multiplied by the power of two that brings it
    back: before the first step, and then each time q(0), which shrinks by
    the factor 1 - |gamma|^2 per step, falls below 1/2.  That is about
    log2(1/prod(1 - |gamma_k|^2)) scalings in a run.  The scaling is exact
    in the normal range and keeps the state clear of underflow.  The rule
    reads the state alone, so an input and any exact multiple 2^e of it
    run from the same bits, and so do a run of m steps and m runs of one
    step, even where the state later leaves the normal range.

    New coefficient j depends only on old j and j + 1, so the valid prefix
    shrinks by one per step: L - k coefficients after k steps, and gamma_k
    needs only the first.  The kernel therefore keeps the width of the
    block's first step for BLOCK steps, slicing its views once per block;
    the trailing coefficients it carries past the valid prefix are never
    read for a gamma.

    Returns (k, p_k, terminal): the number of gammas written, the buffer
    holding the last iterate's numerator (its denominator is q, in place),
    and the unimodular gamma that stopped the run at step k, or None.
    """
    length = len(q)
    bufs = (p, np.zeros_like(p))
    scratch = np.empty_like(q)
    # gamma and conj(gamma) as 0-d arrays: a ufunc converts a Python complex
    # operand anew on every call.
    g, g_conj = np.empty((), dtype=np.complex128), np.empty((), dtype=np.complex128)
    # The step's calls, looked up once per run; the gammas are collected in
    # a list and written to the array once, when the run ends or stops.
    multiply, subtract, q_item = np.multiply, np.subtract, q.item
    p_items = (bufs[0].item, bufs[1].item)
    found = []
    for start in range(0, steps, BLOCK):
        w = length - start
        qw, q1, sw, s1 = q[:w], q[1:w], scratch[:w], scratch[: w - 1]
        views = ((bufs[0][:w], bufs[0][1:w], bufs[1][: w - 1]),
                 (bufs[1][:w], bufs[1][1:w], bufs[0][: w - 1]))
        for k in range(start, min(start + BLOCK, steps)):
            pw, p1, nxt = views[k % 2]
            q0 = q_item(0)
            if not 0.5 <= abs(q0) < 1.0:
                # 2^1023 is the largest finite power, for a subnormal den(0).
                scale = math.ldexp(1.0, min(-math.frexp(abs(q0))[1], 1023))
                # On the float64 view, so that signed zeros keep their sign.
                for a in (pw, qw):
                    re_im = a.view(np.float64)
                    multiply(re_im, scale, re_im)
                q0 = q_item(0)
            gamma = (p_items[k % 2](0) or 0j) / q0
            if abs(gamma) >= STOP_THRESHOLD:
                gammas[:k] = found
                return k, bufs[k % 2], gamma
            found.append(gamma)
            g[()] = gamma
            g_conj[()] = gamma.conjugate()
            multiply(g, q1, s1)
            subtract(p1, s1, nxt)
            multiply(g_conj, pw, sw)
            subtract(qw, sw, qw)
    gammas[:steps] = found
    return steps, bufs[steps % 2], None


def schur_step(f: RationalSchur) -> tuple[complex, RationalSchur]:
    """One step of Schur's algorithm; raises SchurStop at a unimodular gamma.

    Runs the kernel of schur_coeffs for one step, so the iterate is
    unnormalized, den(0) != 1 in general, and repeated steps give
    schur_coeffs bit for bit.
    """
    width = max(f.num.max_deg, f.den.max_deg) + 1
    q = _dense(f.den, width)
    gamma = np.empty(1, dtype=np.complex128)
    done, p, terminal = _recur(_dense(f.num, width), q, 1, gamma)
    if not done:
        raise SchurStop(terminal)
    return complex(gamma[0]), RationalSchur(LaurentPoly(0, p[: width - 1]), LaurentPoly(0, q))


def schur_coeffs(f: RationalSchur, m: int) -> SchurCoeffs:
    """First m recurrence coefficients of f.

    gamma_k depends only on the Taylor coefficients of num and den below
    degree k + 1, so the recursion starts from m coefficients of each (see
    _recur).  If the iteration terminates at step k < m, the k collected
    coefficients are returned and the terminating unimodular gamma is
    flagged separately.

    A numerator z^lead g, lead <= m, gives gamma_0 = ... = gamma_{lead-1}
    = 0: the iterates F_k = z^(lead-k) g / den only shift down.  Those
    gammas are written directly, with the bits the kernel's first step
    writes for a zero p(0): 0j / den(0), a zero whose signs follow the
    signs of den(0)'s parts (+0 for a positive den(0)), which scaling
    den(0) by a power of two leaves alone.  The kernel then runs m - lead
    steps from g and den.  When num and den pass _shifts_exactly, a zero
    step only shifts p and leaves q, and with it q(0)'s one power-of-two
    rescale, bit for bit as they were, so the result is bit for bit that
    of running all m steps; a zero numerator, whose min_deg is 0, then has
    lead m.  Otherwise lead is 0 and all m steps run.  The solvers'
    numerator G_{n,t} conj-flip(b) has no coefficient below z^(n - M), where
    the multiplier's Bessel table ends (see solver.PassPlan), so most of
    their steps are skipped this way.
    """
    if m < 0:
        raise ValidationError("coefficient count must be nonnegative")
    gammas = np.zeros(m, dtype=np.complex128)
    lead = 0
    if _shifts_exactly(f.num) and _shifts_exactly(f.den):
        lead = m if f.num.is_zero else min(f.num.min_deg, m)
    if lead:
        gammas[:lead] = 0j / complex(f.den.coeffs[0])
    width = m - lead
    done, _, terminal = _recur(
        _dense(f.num, width, lead), _dense(f.den, width), width, gammas[lead:]
    )
    return SchurCoeffs(gammas[: lead + done], terminal=terminal)


def eta(c: SchurCoeffs) -> float:
    """Szego product prod (1 - |gamma_k|^2) of the coefficient sequence."""
    return Sequence(0, c.gammas).szego_product()


class StabilityConstant(NamedTuple):
    value: float
    log: float


def stability_constant(eta_value: float, r: float) -> StabilityConstant:
    """C(eta, r) = exp(log(1/eta) (2 + 1/(1 - sqrt(1 - eta))) (4/(1-r)^2 + 1)).

    Returned together with its natural log, since the value itself overflows
    to inf for small eta.  Below about 1e-16, where 1 - eta rounds to 1,
    1 - sqrt(1 - eta) rounds to 0 and the log has no float64 value; such an
    eta is refused.
    """
    if not (0.0 < eta_value <= 1.0):
        raise ValidationError("eta must lie in (0, 1]")
    if not (0.0 < r < 1.0):
        raise ValidationError("r must lie in (0, 1)")
    gap = 1.0 - math.sqrt(1.0 - eta_value)
    if gap == 0.0:
        raise ValidationError(f"eta={eta_value:.3g} is too small: 1 - sqrt(1 - eta) rounds to 0")
    log_c = math.log(1.0 / eta_value) * (2.0 + 1.0 / gap) * (4.0 / (1.0 - r) ** 2 + 1.0)
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
