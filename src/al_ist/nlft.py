"""Forward nonlinear Fourier transform on compactly supported sequences.

The transform is the ordered product over increasing lattice index of

    (1 - |q(k)|^2)^(-1/2) * [[1, conj(q(k)) z^-k], [q(k) z^k, 1]].

Only the top row (a, b) is stored; the bottom row is the conj-flip of the
top by the symmetry of the factors.  The dyadic product tree multiplies
adjacent blocks pairwise, so large products ride on FFT polynomial
multiplication instead of a quadratic left-to-right sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .laurent import (
    CircleGrid,
    LaurentPoly,
    lp_add,
    lp_conj_flip,
    lp_eval_grid,
    lp_mul,
    next_pow2,
    witness_grid,
)
from .schur import RationalSchur
from .sequence import Sequence

_IDENTITY_A = LaurentPoly(0, [1.0])
_IDENTITY_B = LaurentPoly(0, [0.0])

UNITARITY_TOL = 1e-9


@dataclass(frozen=True)
class Transfer2x2:
    """Top row (a, b) of a transfer-matrix product; the bottom row is
    (conj-flip b, conj-flip a).  On the unit circle |a|^2 - |b|^2 = 1 and
    a(0) is real and positive."""

    a: LaurentPoly
    b: LaurentPoly

    def matmul(self, other: "Transfer2x2") -> "Transfer2x2":
        a1, b1 = self.a, self.b
        a2, b2 = other.a, other.b
        new_a = lp_add(lp_mul(a1, a2), lp_mul(b1, lp_conj_flip(b2)))
        new_b = lp_add(lp_mul(a1, b2), lp_mul(b1, lp_conj_flip(a2)))
        return Transfer2x2(new_a, new_b)

    def a_at_zero(self) -> complex:
        return self.a.coefficient(0)

    def _unitarity(self, g: CircleGrid) -> tuple[float, float]:
        """(max | |a|^2 - |b|^2 - 1 |, max |a|^2) over the grid nodes."""
        av = np.abs(lp_eval_grid(self.a, g)) ** 2
        bv = np.abs(lp_eval_grid(self.b, g)) ** 2
        return float(np.max(np.abs(av - bv - 1.0))), float(np.max(av))

    def unitarity_residual(self, g: CircleGrid | None = None) -> float:
        """max over grid nodes of | |a|^2 - |b|^2 - 1 |; the default grid
        is witness_grid(a, b)."""
        return self._unitarity(g if g is not None else witness_grid(self.a, self.b))[0]

    def validate(self) -> "Transfer2x2":
        """Unitarity witness on witness_grid(a, b), relative to the size of
        |a|^2, whose roundoff grows with it: residual at most
        UNITARITY_TOL * max(1, max |a|^2)."""
        res, peak = self._unitarity(witness_grid(self.a, self.b))
        tol = UNITARITY_TOL * max(1.0, peak)
        if res > tol:
            raise ValidationError(f"unitarity residual {res:.3e} exceeds {tol:.3e}")
        a0 = self.a_at_zero()
        if not (a0.real > 0.0 and abs(a0.imag) <= 1e-9 * a0.real):
            raise ValidationError("a(0) must be real and positive")
        return self


def transfer_factor(qk: complex, k: int) -> Transfer2x2:
    """Single-site factor: a = 1/sqrt(1-|qk|^2), b = conj(qk) z^-k / sqrt(1-|qk|^2)."""
    if abs(qk) >= 1.0:
        raise ValidationError("transfer factor requires |qk| < 1")
    if qk == 0:
        return Transfer2x2(_IDENTITY_A, _IDENTITY_B)
    c = 1.0 / math.sqrt(1.0 - abs(qk) ** 2)
    return Transfer2x2(LaurentPoly(0, [c]), LaurentPoly(-k, [np.conj(qk) * c]))


def _leaf_factors(q: Sequence) -> list[Transfer2x2]:
    # Zero sites contribute identity factors and are skipped exactly.
    out = []
    for j, v in enumerate(q.values):
        if v != 0:
            out.append(transfer_factor(complex(v), q.offset + j))
    return out


def nlft_forward(q: Sequence) -> Transfer2x2:
    """Ordered transfer-matrix product over increasing site index, computed
    by pairing adjacent blocks (balanced binary tree over lp_mul)."""
    level = _leaf_factors(q)
    if not level:
        return Transfer2x2(_IDENTITY_A, _IDENTITY_B)
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            nxt.append(level[i].matmul(level[i + 1]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def nlft_forward_naive(q: Sequence) -> Transfer2x2:
    """Left-to-right accumulation; quadratic, kept as a testing oracle."""
    acc = Transfer2x2(_IDENTITY_A, _IDENTITY_B)
    for factor in _leaf_factors(q):
        acc = acc.matmul(factor)
    return acc


def fc_plus(q: Sequence) -> RationalSchur:
    """The one-sided Schur function conj-flip(b)/a for supp q inside Z+.

    Its recurrence coefficients reproduce q(0), q(1), ... entrywise, which
    is what the fast solver exploits.
    """
    sup = q.support()
    if sup is not None and sup[0] < 0:
        raise ValidationError("fc_plus requires support inside the nonnegative integers")
    m = nlft_forward(q)
    return RationalSchur(lp_conj_flip(m.b), m.a)


def reflection_grid(q: Sequence, g: CircleGrid) -> np.ndarray:
    """Values of the reflection coefficient b/a at unit-circle grid nodes."""
    if g.radius != 1.0:
        raise ValidationError("reflection coefficient is defined on the unit circle")
    m = nlft_forward(q)
    return lp_eval_grid(m.b, g) / lp_eval_grid(m.a, g)


def identity_grid(q: Sequence, minimum: int = 64) -> CircleGrid:
    """Unit-circle grid with 4x the total polynomial span, rounded up to a
    power of two; wide enough that trigonometric means do not alias."""
    sup = q.support()
    span = 1 if sup is None else max(1, sup[1] - sup[0] + 1 + max(abs(sup[0]), abs(sup[1])))
    return CircleGrid(next_pow2(4 * span, minimum))


def szego_identity_check(q: Sequence, g: CircleGrid) -> tuple[float, float, float]:
    """Both sides of the trace identity: grid mean of log(1 - |r_q|^2)
    against sum of log(1 - |q(n)|^2); the third value is -2 log a(0),
    which must equal both."""
    refl = reflection_grid(q, g)
    lhs = float(np.mean(np.log1p(-np.abs(refl) ** 2)))
    vals = q.values
    rhs = float(np.sum(np.log1p(-np.abs(vals) ** 2))) if len(vals) else 0.0
    a0 = nlft_forward(q).a_at_zero()
    return lhs, rhs, float(-2.0 * math.log(abs(a0)))


def shift_check(q: Sequence, n: int, g: CircleGrid) -> float:
    """max over grid nodes of |r_{q(.-n)}(z) - z^-n r_q(z)|."""
    shifted = reflection_grid(q.shifted(n), g)
    base = reflection_grid(q, g)
    nodes = g.nodes
    return float(np.max(np.abs(shifted - nodes ** (-n) * base)))


def rho_s(h1: np.ndarray, h2: np.ndarray) -> float:
    """Sylvester-Winebrenner distance between grid sample vectors:
    sqrt(-mean log(1 - |(h1-h2)/(1 - conj(h1) h2)|^2)).

    Returns +inf if any node has the pseudo-hyperbolic quotient at 1 to
    within 1e-14 (the pair has left the metric space).
    """
    h1 = np.asarray(h1, dtype=np.complex128)
    h2 = np.asarray(h2, dtype=np.complex128)
    w = np.abs((h1 - h2) / (1.0 - np.conj(h1) * h2))
    if np.any(w >= 1.0 - 1e-14):
        return math.inf
    return float(math.sqrt(-np.mean(np.log1p(-(w**2)))))
