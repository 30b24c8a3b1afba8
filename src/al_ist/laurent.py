"""Dense Laurent polynomials over the complex numbers.

A Laurent polynomial is stored as a contiguous coefficient block together
with the exponent of its first entry, so p = sum_j coeffs[j] * z**(min_deg+j).
The zero polynomial is canonically (min_deg=0, coeffs=[0]); for everything
else the first and last stored coefficients are nonzero (exact zeros are
trimmed on construction, never near-zeros).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Products go through np.convolve, whose work is len(p) * len(q), while the
# shorter operand has at most CONVOLVE_SHORT coefficients or the two have
# fewer than CONVOLVE_WORK coefficient pairs; any other product uses the FFT
# path, which pads both operands to the output length.  Measured break-evens
# (best of 5-15, 2-core x86 host): about 330 x 330 for equal lengths, and a
# shorter operand of 100-350 coefficients against 400-60 000, lowest where
# the output length just fits a power of two; convolve was faster at 140 or
# fewer in 9 of 11 long lengths and at 180 in 5.
CONVOLVE_WORK = 100_000
CONVOLVE_SHORT = 150


def _as_coeff_array(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError("coefficients must be one-dimensional")
    return arr


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial sum_j coeffs[j] z^(min_deg+j), exact-zero trimmed.

    >>> p = LaurentPoly(-1, [1, 2, 1])   # z^-1 + 2 + z
    >>> p.min_deg, p.max_deg
    (-1, 1)
    """

    min_deg: int
    coeffs: np.ndarray = field(compare=False)

    def __post_init__(self):
        arr = _as_coeff_array(self.coeffs)
        nz = np.flatnonzero(arr)
        if nz.size == 0:
            object.__setattr__(self, "min_deg", 0)
            object.__setattr__(self, "coeffs", np.zeros(1, dtype=np.complex128))
            return
        lo, hi = nz[0], nz[-1] + 1
        object.__setattr__(self, "min_deg", int(self.min_deg) + int(lo))
        arr = arr[lo:hi].copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def max_deg(self) -> int:
        return self.min_deg + len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def coefficient(self, k: int) -> complex:
        """Coefficient of z^k (zero outside the stored block)."""
        j = k - self.min_deg
        if 0 <= j < len(self.coeffs):
            return complex(self.coeffs[j])
        return 0.0 + 0.0j

    def __add__(self, other):
        if isinstance(other, LaurentPoly):
            return lp_add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, LaurentPoly):
            return lp_add(self, lp_scale(other, -1.0))
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            return lp_mul(self, other)
        if isinstance(other, (int, float, complex)):
            return lp_scale(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __call__(self, z: complex) -> complex:
        return lp_eval(self, z)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.min_deg == other.min_deg and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.min_deg, (self.coeffs + 0.0).tobytes()))  # + 0.0 turns -0 into +0


ZERO = LaurentPoly(0, [0.0])


def monomial(c: complex, k: int) -> LaurentPoly:
    """c * z^k."""
    return LaurentPoly(k, [c])


def lp_scale(p: LaurentPoly, c: complex) -> LaurentPoly:
    return LaurentPoly(p.min_deg, p.coeffs * c)


def lp_add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Coefficient-wise sum on the union of the two exponent ranges."""
    if p.is_zero:
        return q
    if q.is_zero:
        return p
    lo = min(p.min_deg, q.min_deg)
    hi = max(p.max_deg, q.max_deg)
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    out[p.min_deg - lo : p.min_deg - lo + len(p.coeffs)] += p.coeffs
    out[q.min_deg - lo : q.min_deg - lo + len(q.coeffs)] += q.coeffs
    return LaurentPoly(lo, out)


def lp_mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Product; np.convolve up to CONVOLVE_SHORT coefficients in the
    shorter operand or below CONVOLVE_WORK coefficient pairs, FFT beyond."""
    if p.is_zero or q.is_zero:
        return ZERO
    n_out = len(p.coeffs) + len(q.coeffs) - 1
    short, long_ = sorted((len(p.coeffs), len(q.coeffs)))
    if short <= CONVOLVE_SHORT or short * long_ < CONVOLVE_WORK:
        out = np.convolve(p.coeffs, q.coeffs)
    else:
        m = next_pow2(n_out)
        fp = np.fft.fft(p.coeffs, m)
        fq = np.fft.fft(q.coeffs, m)
        out = np.fft.ifft(fp * fq)[:n_out]
    return LaurentPoly(p.min_deg + q.min_deg, out)


def lp_conj_flip(p: LaurentPoly) -> LaurentPoly:
    """The involution p*(z) = conj(p(1/conj(z))): reverse and conjugate.

    On the unit circle p*(z) = conj(p(z)).
    """
    return LaurentPoly(-p.max_deg, np.conj(p.coeffs[::-1]))


def lp_eval(p: LaurentPoly, z: complex) -> complex:
    """Horner evaluation; z = 0 with negative min_deg is a pole."""
    if p.is_zero:
        return 0.0 + 0.0j
    if z == 0:
        if p.min_deg < 0:
            raise ZeroDivisionError("evaluation at 0 with negative exponents")
        return complex(p.coeffs[0]) if p.min_deg == 0 else 0.0 + 0.0j
    acc = 0.0 + 0.0j
    for c in p.coeffs[::-1]:
        acc = acc * z + c
    return acc * z**p.min_deg


@dataclass(frozen=True)
class CircleGrid:
    """Equispaced nodes radius * exp(2 pi i m / size).

    Any positive size is accepted (the FFT below is mixed-radix); the
    default grid choosers round up to powers of two, but fidelity checks
    pinned to 4n nodes need other sizes too."""

    size: int
    radius: float = 1.0

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError("grid size must be positive")
        if not (0.0 < self.radius <= 1.0):
            raise ValueError("grid radius must lie in (0, 1]")

    @property
    def nodes(self) -> np.ndarray:
        ang = 2.0 * np.pi * np.arange(self.size) / self.size
        return self.radius * np.exp(1j * ang)


def next_pow2(n: int, minimum: int = 1) -> int:
    """Smallest minimum * 2^k that is >= n: FFT lengths and grid sizes."""
    m = minimum
    while m < n:
        m *= 2
    return m


def witness_grid(*polys: LaurentPoly) -> CircleGrid:
    """Unit-circle grid for the sampled witnesses (Schur class, unitarity):
    at least 2 (span + 1) nodes for the widest exponent span among polys,
    and at least 1024.  More nodes than the span means no two coefficients
    of one polynomial fold onto the same residue in lp_eval_grid."""
    span = max(p.max_deg - p.min_deg for p in polys)
    return CircleGrid(next_pow2(2 * (span + 1), 1024))


def lp_eval_grid(p: LaurentPoly | tuple[LaurentPoly, ...], g: CircleGrid) -> np.ndarray:
    """Values of p at all grid nodes via a single inverse FFT; for a tuple
    of polynomials, one row of values each from one batched inverse FFT.

    Coefficients are scaled by radius**exponent and folded into residue
    classes mod the grid size; folding is exact because the nodes are
    size-th roots of unity scaled by the radius.
    """
    if isinstance(p, LaurentPoly):
        folded = np.zeros(g.size, dtype=np.complex128)
        _fold(p, g, folded)
    else:
        folded = np.zeros((len(p), g.size), dtype=np.complex128)
        for poly, row in zip(p, folded):
            _fold(poly, g, row)
    return np.fft.ifft(folded) * g.size


def _fold(p: LaurentPoly, g: CircleGrid, out: np.ndarray) -> None:
    """Add p's coefficients, scaled by radius**exponent, into out (zeros, of
    the grid's size) at their exponents mod the size.  A block no longer
    than the grid wraps at most once and lands by two slice adds; only a
    longer one, whose exponents alias, needs np.add.at.  Both add each
    coefficient to +0, so they write the same bits."""
    m, length = g.size, len(p.coeffs)
    if g.radius == 1.0:
        scaled = p.coeffs
    else:
        exps = np.arange(p.min_deg, p.min_deg + length, dtype=np.float64)
        scaled = p.coeffs * np.power(g.radius, exps)
    if length > m:
        np.add.at(out, np.arange(p.min_deg, p.min_deg + length) % m, scaled)
        return
    start = p.min_deg % m
    head = min(length, m - start)
    out[start : start + head] += scaled[:head]
    out[: length - head] += scaled[head:]
