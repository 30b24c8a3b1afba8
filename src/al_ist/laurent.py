"""Dense Laurent polynomials over the complex numbers.

A Laurent polynomial is stored as a contiguous coefficient block together
with the exponent of its first entry, so p = sum_j coeffs[j] * z**(min_deg+j).
The zero polynomial is canonically (min_deg=0, coeffs=[0]); for everything
else the first and last stored coefficients are nonzero (exact zeros are
trimmed on construction, never near-zeros).
"""

from __future__ import annotations

from collections.abc import Iterator
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
        return self.nodes_at(np.arange(self.size))

    def nodes_at(self, index: np.ndarray) -> np.ndarray:
        """The nodes of the given indices, each formed elementwise as nodes
        forms it, so with nodes' bits."""
        ang = 2.0 * np.pi * index / self.size
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


# The grid checks evaluate a K-node grid one coset of L nodes at a time
# (lp_eval_cosets), L = max(witness grid, COSET_NODES) where L divides K, so
# that their memory follows L, not K, and their work is about K log L.  The
# nlft checks run on a worker thread beside the writer, and every array call
# of theirs hands the interpreter lock over; at 2^13 the 2 048-site
# benchmark jobs (16 384 nodes, two cosets) took 3-4% longer as whole jobs,
# at 2^14 they are one coset and unchanged, and the 8 192-site job's checks
# hold a quarter of its grid either way (2-core x86 host, in process,
# medians of 60 interleaved jobs).
COSET_NODES = 2**14

# lp_eval_cosets twists coefficients in blocks of this many exponents: one
# exp per block and per block offset, against one per coefficient.
TWIST_BLOCK = 64

# _inverse_rows inverse-FFTs rows of at most this many points in one batched
# call, and longer rows one call per row; both give the same bits.  Two rows
# folded and evaluated, least of 300 interleaved, in processes that had run
# an nlft or a point job first (2-core x86 host, numpy 2.4.6): batched
# against per row, 27-47 against 35-64 us at 1 024 points and 70-100
# against 93-151 us at 4 096; 137-243 against 193-303 us at 8 192, where
# the order flips between the two processes; 511-554 against 429-463 us
# at 16 384 and 2.41-2.58 against 2.02-2.13 ms at 65 536.
BATCHED_IFFT_POINTS = 2**12


def coset_length(g: CircleGrid, *polys: LaurentPoly) -> int:
    """L, the nodes per coset when lp_eval_cosets evaluates polys on g:
    max(witness_grid(*polys).size, COSET_NODES) where that divides g.size
    on the unit circle, else g.size, one coset that is all of g."""
    length = max(witness_grid(*polys).size, COSET_NODES)
    return length if g.radius == 1.0 and g.size % length == 0 else g.size


def lp_eval_cosets(
    polys: tuple[LaurentPoly, ...], g: CircleGrid, length: int
) -> Iterator[np.ndarray]:
    """Values of polys on g, one coset of length nodes at a time.

    With K = g.size, P = K // length and w = exp(2 pi i / K), coset c < P
    holds the nodes w^(P m + c), m < length, and comes as a new
    (len(polys), length) array, one row of values per polynomial, from the
    inverse FFTs of _inverse_rows.  Since w^P is a length-th root
    of unity, p(w^(P m + c)) = sum_k (p_k w^(c k)) w^(P k m): the
    coefficients twisted by w^(c k) and folded mod length are evaluated on
    CircleGrid(length) (decimation in frequency).  Coset 0 is not twisted:
    each of its rows is lp_eval_grid(p, CircleGrid(length, g.radius)) bit
    for bit, and with P = 1 that is lp_eval_grid(p, g).  More than one
    coset needs the unit circle.

    The twist of the coefficient at exponent e + TWIST_BLOCK i + j
    (e = min_deg, j < TWIST_BLOCK) is w^(c (e + TWIST_BLOCK i)) w^(c j),
    one product of two short exp tables, each exponent reduced mod K in
    integers before it becomes an angle, so exponents may reach +-2^62.
    A twisted coset takes a handful of array calls, so that a thread
    beside it waits on few hand-overs of the interpreter lock.  It holds
    one coefficient-length array of twists, so a caller that drops each
    coset before taking the next holds O(length + coefficients) memory,
    not O(K).
    """
    size = g.size
    if size % length or (size != length and g.radius != 1.0):
        raise ValueError("grid cosets need the unit circle and a length that divides the grid")
    yield _inverse_rows(_fold_rows(polys, CircleGrid(length, g.radius)))
    if size == length:
        return
    blocks = [-(-len(p.coeffs) // TWIST_BLOCK) for p in polys]
    starts = np.concatenate(
        [p.min_deg % size + TWIST_BLOCK * np.arange(count) for p, count in zip(polys, blocks)]
    ) % size
    for c in range(1, size // length):
        yield _twisted_coset(polys, blocks, starts, c, size, length)


def _twisted_coset(
    polys: tuple[LaurentPoly, ...], blocks: list[int], starts: np.ndarray, c: int, size: int,
    length: int,
) -> np.ndarray:
    """lp_eval_cosets' coset c > 0 of a size-node grid; polys[i] has
    blocks[i] blocks of TWIST_BLOCK exponents, whose first exponents mod
    size are starts, in order."""
    folded = np.zeros((len(polys), length), dtype=np.complex128)
    fine = _roots(c * np.arange(TWIST_BLOCK) % size, size)
    twists = np.multiply.outer(_roots(c * starts % size, size), fine).reshape(-1)
    at = 0
    for p, count, row in zip(polys, blocks, folded):
        twist = twists[at : at + len(p.coeffs)]
        twist *= p.coeffs
        _wrap_add(p.min_deg, twist, row)
        at += count * TWIST_BLOCK
    return _inverse_rows(folded)


def _inverse_rows(folded: np.ndarray) -> np.ndarray:
    """The inverse FFT of each row of folded, scaled by the row length, in
    place: one batched call for rows of at most BATCHED_IFFT_POINTS, else
    one call per row, with the bits of np.fft.ifft(folded, axis=-1) *
    folded.shape[1] either way."""
    if folded.shape[1] <= BATCHED_IFFT_POINTS:
        np.fft.ifft(folded, axis=-1, out=folded)
    else:
        for row in folded:
            np.fft.ifft(row, out=row)
    folded *= folded.shape[1]
    return folded


def _roots(exps: np.ndarray, size: int) -> np.ndarray:
    """exp(2 pi i exps / size) for integer exps in [0, size)."""
    return np.exp(2j * np.pi * exps / size)


def lp_eval_grid(p: LaurentPoly | tuple[LaurentPoly, ...], g: CircleGrid) -> np.ndarray:
    """Values of p at all grid nodes via an inverse FFT; for a tuple of
    polynomials, one row of values each.

    Coefficients are scaled by radius**exponent and folded into residue
    classes mod the grid size; folding is exact because the nodes are
    size-th roots of unity scaled by the radius.  The inverse FFTs
    (_inverse_rows) write into the fold buffer and are scaled there, with
    the bits of np.fft.ifft(folded) * g.size, so the buffer returned is the
    one grid array the evaluation makes.
    """
    if isinstance(p, LaurentPoly):
        return _inverse_rows(_fold_rows((p,), g))[0]
    return _inverse_rows(_fold_rows(p, g))


def _fold_rows(polys: tuple[LaurentPoly, ...], g: CircleGrid) -> np.ndarray:
    """A new (len(polys), g.size) array, row i polys[i] folded onto g."""
    folded = np.zeros((len(polys), g.size), dtype=np.complex128)
    for p, row in zip(polys, folded):
        _fold(p, g, row)
    return folded


def _fold(p: LaurentPoly, g: CircleGrid, out: np.ndarray) -> None:
    """Add p's coefficients, scaled by radius**exponent, into out (zeros, of
    the grid's size) at their exponents mod the size."""
    if g.radius == 1.0:
        scaled = p.coeffs
    else:
        exps = np.arange(p.min_deg, p.min_deg + len(p.coeffs), dtype=np.float64)
        scaled = p.coeffs * np.power(g.radius, exps)
    _wrap_add(p.min_deg, scaled, out)


def _wrap_add(min_deg: int, coeffs: np.ndarray, out: np.ndarray) -> None:
    """Add coeffs, at exponents min_deg, min_deg + 1, ..., into out (zeros)
    at their exponents mod len(out).  A block no longer than out wraps at
    most once and lands by two slice adds; only a longer one, whose
    exponents alias, needs np.add.at.  Both add each coefficient to +0, so
    they write the same bits."""
    m, length = len(out), len(coeffs)
    if length > m:
        np.add.at(out, np.arange(min_deg, min_deg + length) % m, coeffs)
        return
    start = min_deg % m
    head = min(length, m - start)
    out[start : start + head] += coeffs[:head]
    out[: length - head] += coeffs[head:]
