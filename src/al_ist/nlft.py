"""Forward nonlinear Fourier transform on compactly supported sequences.

The transform is the ordered product over increasing lattice index of

    (1 - |q(k)|^2)^(-1/2) * [[1, conj(q(k)) z^-k], [q(k) z^k, 1]].

Only the top row (a, b) is stored; the bottom row is the conj-flip of the
top by the symmetry of the factors.

nlft_forward trims the datum to its first and last nonzero site and
multiplies that one block out.  A block with at most DIRECT_SITES nonzero
sites is multiplied out site by site, in O(sites * span) with two numpy
calls per nonzero site.  Any other block goes through the product tree,
level by level on arrays.  For a block of sites [s, e], a has exponents
[0, e - s] and conj-flip(b) has exponents [s, e], so every block of one
tree level is a pair of rows of one fixed width w.  Pairing adjacent blocks
takes one batched FFT of length 2w for all of them and gives blocks of
width 2w, in O(n log^2 n) for a span of n sites: per level, one forward and
one inverse FFT around five ufunc calls.  A block of zero sites only is the
identity.  Where enough of the tree's pairs hold one (_skipping_pays), the
tree keeps no row for it and copies its sibling into the next level
unmultiplied; elsewhere it is multiplied like any other block.  Zero sites
among nonzero ones in a block still ride through its FFTs, which leave
roundoff-level values, not exact zeros, at the exponents of a and b that a
gap leaves empty.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .laurent import (
    CircleGrid,
    LaurentPoly,
    coset_length,
    lp_add,
    lp_conj_flip,
    lp_eval_cosets,
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

# A support with at most this many nonzero sites is multiplied out site by
# site, at any span; one with more goes through the FFT tree.  Each site
# costs two numpy calls over O(span) entries, against the tree's
# O(span log^2 span) FFTs.  Measured on a 2-core x86 host (best of 9): with
# no zero site the two cost the same at about 44-48 sites, and zero sites
# favour the site-by-site product further: 9 sites spread over 256 took
# 0.06 against the tree's 0.52 ms, 20 over 2 048 0.19 against 1.15, 40 over
# 65 536 7.5 against 31.1, and two 20-site clusters over 65 536 8.4 against
# 11.4.
DIRECT_SITES = 40

# The tree skips its identity blocks (zero sites and padding) when that is
# cheaper than multiplying every pair.  Counted in pair widths (a pair of
# blocks of width w counts w), a level that skips pays SKIP_PAIR_COST for
# each pair it still multiplies and SKIP_LEVEL_COST besides, against 1 for
# each pair of the dense loop.  Fitted on two-cluster and random-zero
# supports of 256-65 536 sites (best of 3-30, 2-core x86 host): the
# skipping levels cost about 60 us each plus 1.3x the dense loop's time a
# pair, and the dense loop about 0.13 us a unit.
SKIP_PAIR_COST = 1.3
SKIP_LEVEL_COST = 450


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

    def grid_values(self, g: CircleGrid) -> tuple[np.ndarray, np.ndarray]:
        """a and b at the nodes of g."""
        return lp_eval_grid(self.a, g), lp_eval_grid(self.b, g)

    def coset_values(self, g: CircleGrid) -> Iterator[np.ndarray]:
        """a and b on g, one coset at a time: lp_eval_cosets((a, b), g, L)
        with L = coset_length(g, a, b), (2, L) arrays with rows a and b.
        The first coset is CircleGrid(L), which holds every node of
        witness_grid(a, b)."""
        return lp_eval_cosets((self.a, self.b), g, coset_length(g, self.a, self.b))

    def unitarity_residual(self, g: CircleGrid | None = None) -> float:
        """max over grid nodes of | |a|^2 - |b|^2 - 1 |; the default grid
        is witness_grid(a, b).  The maximum is taken coset by coset
        (coset_values), so the evaluation holds a few coset arrays, not g's
        size; a NaN at any node makes it NaN."""
        g = g if g is not None else witness_grid(self.a, self.b)
        return float(np.max([_residual(*_squared_moduli(*ab)) for ab in self.coset_values(g)]))

    def validate(
        self, values: tuple[CircleGrid, np.ndarray, np.ndarray] | None = None
    ) -> "Transfer2x2":
        """Unitarity witness on witness_grid(a, b), relative to the size of
        |a|^2, whose roundoff grows with it: residual at most
        UNITARITY_TOL * max(1, max |a|^2).  On the same nodes |b| < |a|,
        that is |b/a| < 1, must hold everywhere: a product whose a has
        cancelled to noise can pass the relative residual while its
        reflection coefficient leaves the unit disk.

        values, if given, are (g, a at g's nodes, b at g's nodes) for a
        unit-circle grid g, such as the first coset of coset_values and
        its CircleGrid(L).  When g's size is a multiple of the witness
        grid's, every witness node is a node of g, and the witness reads
        a and b there out of them instead of evaluating them again."""
        g = witness_grid(self.a, self.b)
        if values is not None and values[0].radius == 1.0 and values[0].size % g.size == 0:
            step = values[0].size // g.size
            a2, b2 = _squared_moduli(values[1][::step], values[2][::step])
        else:
            a2, b2 = _squared_moduli(*self.grid_values(g))
        tol = UNITARITY_TOL * max(1.0, float(np.max(a2)))
        outside = np.count_nonzero(~(b2 < a2))  # NaN counts as outside
        res = _residual(a2, b2)
        if not res <= tol:  # "not within", so that NaN is refused too
            raise ValidationError(f"unitarity residual {res:.3e} exceeds {tol:.3e}")
        if outside:
            raise ValidationError(
                f"|b| >= |a| at {outside} of {g.size} witness nodes: "
                "the reflection coefficient leaves the unit disk"
            )
        a0 = self.a_at_zero()
        if not (a0.real > 0.0 and abs(a0.imag) <= 1e-9 * a0.real):
            raise ValidationError("a(0) must be real and positive")
        return self


def _squared_moduli(av: np.ndarray, bv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|a|^2 and |b|^2 from values of a and b."""
    a2, b2 = np.abs(av), np.abs(bv)
    return np.square(a2, out=a2), np.square(b2, out=b2)


def _residual(a2: np.ndarray, b2: np.ndarray) -> float:
    """max | |a|^2 - |b|^2 - 1 | from |a|^2 and |b|^2, formed in b2's
    buffer, which it overwrites, so that no further grid array is live."""
    d = np.subtract(a2, b2, out=b2)
    d -= 1.0
    return float(np.max(np.abs(d, out=d)))


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


def _direct_product(values: np.ndarray, start: int) -> Transfer2x2:
    """The block product accumulated site by site, left to right.

    Without the factors (1 - |q|^2)^(-1/2), which are applied once at the
    end, appending site start + k with value v to the block of sites
    start .. start + k - 1 gives

        a' = a + v conj_rev(bf),     bf' = bf + v conj_rev(a),

    with a at exponents 0..k and bf = conj-flip(b) at start..start + k,
    both stored from index 0 (entry k still 0), and conj_rev reversing and
    conjugating entries 0..k of a row.  The rows kept are a and
    g = conj(bf), so the update is
    rows[:, :k + 1] += [v, conj(v)] * rows[::-1, k::-1], and b, which is
    conj-flip(bf), is g reversed.
    """
    n = len(values)
    rows = np.zeros((2, n), dtype=np.complex128)
    rows[0, 0] = 1.0
    mult = np.stack((values, np.conj(values)))
    for k in np.flatnonzero(values).tolist():
        head = rows[:, : k + 1]
        head += rows[::-1, k::-1] * mult[:, k : k + 1]
    rows *= np.prod(1.0 / np.sqrt(1.0 - np.abs(values) ** 2))
    return Transfer2x2(LaurentPoly(0, rows[0]), LaurentPoly(-(start + n - 1), rows[1, ::-1]))


def _tree_product(values: np.ndarray, start: int) -> Transfer2x2:
    """The block product by the level-batched tree.

    At a level of block width w, rows[0, i] holds block blocks[i]'s a at
    exponents 0..w-1 and rows[1, i] its bf = conj-flip(b) at exponents
    s..s + w - 1 (s the block's first site).  Merging blocks 1 and 2 into
    one of width 2w:

        a  = a1 a2 + z conj_rev(bf1) bf2
        bf = bf1 a2 + z conj_rev(a1) bf2

    where conj_rev reverses and conjugates a row.  With zero padding to 2w,
    the FFT of z conj_rev(x) is (-1)^k conj(fft(x)), so with left = (a1, bf1)
    the merged spectrum is conj(left swapped) (-1)^k bf2 + left a2: one
    forward FFT, five ufunc calls and one inverse FFT per level.

    A block of zero sites only is the identity, a = 1 and bf = 0.  When
    _skipping_pays, _sparse_tree gives padding and zero leaves no row and
    copies a block whose sibling is the identity instead of multiplying it.
    Otherwise every leaf has a row, identity padding and zero sites
    included, and every level multiplies all its pairs on three buffers
    made once: the rows, each zero-padded to twice its width, their
    spectra and the merged spectra, 10 * size complex values in all.
    """
    n = len(values)
    size = next_pow2(n)
    c = 1.0 / np.sqrt(1.0 - np.abs(values) ** 2)
    sign = np.ones(size)  # (-1)^k, read in rows of 2w at width w
    sign[1::2] = -1.0
    if _skipping_pays(values != 0, size):
        return _sparse_tree(values, start, c, sign)
    # The leaves in bit-reversed order: then at every level the left
    # siblings fill the first half of the rows and their right siblings the
    # second half in the same order, and the merged blocks come out in the
    # next level's bit-reversed order, so each ufunc of the merge runs over
    # two contiguous halves, however narrow the blocks.
    order = np.zeros(1, dtype=np.intp)
    while len(order) < size:
        order = np.concatenate((2 * order, 2 * order + 1))
    padded = np.zeros(4 * size, dtype=np.complex128)
    spec = np.empty(4 * size, dtype=np.complex128)
    merged = np.empty(2 * size, dtype=np.complex128)
    leaves = padded.reshape(2, size, 2)[:, :, 0]
    leaves[0] = 1.0  # identity leaves pad the count to a power of two
    at = order[:n]  # bit reversal is its own inverse: leaf j sits at order[j]
    leaves[0, at] = c
    leaves[1, at] = values * c
    w = 1
    while w < size:
        half = size // w // 2
        shape = (2, 2 * half, 2 * w)
        blocks = np.fft.fft(padded.reshape(shape), axis=2, out=spec.reshape(shape))
        out = _merge(blocks[:, :half], blocks[:, half:], sign.reshape(half, 2 * w),
                     merged.reshape(2, half, 2 * w))
        rows = padded.reshape(2, half, 4 * w)
        np.fft.ifft(out, axis=2, out=rows[:, :, : 2 * w])
        rows[:, :, 2 * w :] = 0.0
        w *= 2
    # Beyond the true span the padding leaves FFT noise, not exact zeros.
    a, bf = padded[:n], padded[2 * size : 2 * size + n]
    return Transfer2x2(LaurentPoly(0, a), LaurentPoly(-(start + n - 1), np.conj(bf[::-1])))


def _merge(left: np.ndarray, right: np.ndarray, sign: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The merged spectra of sibling pairs, formed in out: with left =
    (a1, bf1) the left siblings' spectra and right = (a2, f2) the right
    ones', conj(left swapped) * sign * f2 + left * a2, each ufunc in that
    order; left * a2 is formed in left."""
    np.conjugate(left[::-1], out=out)
    out *= sign
    out *= right[1]
    left *= right[0]
    out += left
    return out


def _sparse_tree(values: np.ndarray, start: int, c: np.ndarray, sign: np.ndarray) -> Transfer2x2:
    """_tree_product with rows for the nonzero leaves only; each of a
    level's arrays is released as soon as the next one exists."""
    n = len(values)
    size = len(sign)
    blocks = np.flatnonzero(values)  # the blocks that have a row
    rows = np.empty((2, len(blocks), 1), dtype=np.complex128)
    rows[0, :, 0] = c[blocks]
    rows[1, :, 0] = values[blocks] * c[blocks]
    w = 1
    while w < size:
        blocks, level, slots, pairs = _copy_singles(rows, blocks, w)
        del rows
        spec = np.fft.fft(pairs, n=2 * w, axis=2)
        del pairs
        merged = _merge(spec[:, 0::2], spec[:, 1::2], sign[: 2 * w],
                        np.empty((2, len(slots), 2 * w), dtype=np.complex128))
        del spec
        level[:, slots] = np.fft.ifft(merged, axis=2)
        del merged
        rows = level
        w *= 2
    a, bf = rows[0, 0, :n], rows[1, 0, :n]
    return Transfer2x2(LaurentPoly(0, a), LaurentPoly(-(start + n - 1), np.conj(bf[::-1])))


def _skipping_pays(nonzero: np.ndarray, size: int) -> bool:
    """Whether the tree over these leaves, padded with identity leaves to
    size, costs less when it skips its identity blocks: by the pairs of
    blocks that both hold a nonzero site, which it still multiplies, against
    all the pairs of the dense loop, each counted by its width."""
    if nonzero.all():
        return False
    occupied = np.zeros(size, dtype=bool)
    occupied[: len(nonzero)] = nonzero
    multiplied, levels, w = 0, 0, 1
    while w < size:
        pairs = occupied.reshape(-1, 2)
        multiplied += w * int(np.count_nonzero(pairs[:, 0] & pairs[:, 1]))
        occupied = pairs[:, 0] | pairs[:, 1]
        levels += 1
        w *= 2
    return SKIP_PAIR_COST * multiplied + SKIP_LEVEL_COST * levels < levels * (size // 2)


def _copy_singles(rows: np.ndarray, blocks: np.ndarray, w: int):
    """A tree level where some blocks of width w are the identity and have
    no row: the next level's block numbers, its rows with every block whose
    sibling is the identity copied in, the next-level slots of the sibling
    pairs left to multiply, and those pairs' rows.  A block beside an
    identity sibling needs no product:

        right sibling the identity:  a = a1,  bf = bf1
        left sibling the identity:   a = a2,  bf = z^w bf2
    """
    parents, slot = np.unique(blocks // 2, return_inverse=True)
    first = np.flatnonzero(slot[1:] == slot[:-1])  # blocks i and i + 1 are siblings
    alone = np.ones(len(blocks), dtype=bool)
    alone[first] = alone[first + 1] = False
    alone = np.flatnonzero(alone)
    level = np.zeros((2, len(parents), 2 * w), dtype=np.complex128)
    level[0, slot[alone], :w] = rows[0, alone]
    left = alone[blocks[alone] % 2 == 0]
    right = alone[blocks[alone] % 2 == 1]
    level[1, slot[left], :w] = rows[1, left]
    level[1, slot[right], w:] = rows[1, right]
    pairs = rows[:, np.stack([first, first + 1], axis=1).ravel()]
    return parents, level, slot[first], pairs


def nlft_forward(q: Sequence) -> Transfer2x2:
    """Ordered transfer-matrix product over increasing site index.

    The support, from the first to the last nonzero site, is one block:
    multiplied out site by site when it has at most DIRECT_SITES nonzero
    sites, else by the level-batched array tree, where per level the blocks
    are rows of two arrays (a and conj-flip(b)) of one width, paired by one
    batched FFT.
    """
    nz = np.flatnonzero(q.values)
    if nz.size == 0:
        return Transfer2x2(_IDENTITY_A, _IDENTITY_B)
    values, start = q.values[nz[0] : nz[-1] + 1], q.offset + int(nz[0])
    if nz.size <= DIRECT_SITES:
        return _direct_product(values, start)
    return _tree_product(values, start)


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
    return _reflection(nlft_forward(q), g)


def _reflection(m: Transfer2x2, g: CircleGrid) -> np.ndarray:
    if g.radius != 1.0:
        raise ValidationError("reflection coefficient is defined on the unit circle")
    av, bv = m.grid_values(g)
    return bv / av


def _szego_sum(refl: np.ndarray, out: np.ndarray | None = None) -> np.float64:
    """Sum of log(1 - |r|^2) over values of r.  |r|^2, its negative and
    log1p are formed in one float buffer, out if given, by the ufuncs of
    log1p(-np.abs(refl) ** 2) in the same order; the sum over n values,
    divided by n, is that expression's np.mean bit for bit."""
    x = np.abs(refl, out=out)
    np.square(x, out=x)
    np.negative(x, out=x)
    return np.sum(np.log1p(x, out=x))


def identity_grid(q: Sequence) -> CircleGrid:
    """Unit-circle grid of 8x the support's length (1 for the zero datum),
    rounded up to a power of two and at least 64 nodes; wide enough that
    trigonometric means do not alias.  The sites' distance from 0 does not
    count: shifting q by s multiplies b by z^s and leaves a as it is, so
    |a| and |b| on the circle, all that the checks sample, do not move."""
    sup = q.support()
    length = 1 if sup is None else sup[1] - sup[0] + 1
    return CircleGrid(next_pow2(8 * length, 64))


def szego_identity_check(
    q: Sequence, g: CircleGrid, m: Transfer2x2 | None = None
) -> tuple[float, float, float]:
    """Both sides of the trace identity: grid mean of log(1 - |r_q|^2)
    against sum of log(1 - |q(n)|^2); the third value is -2 log a(0),
    which must equal both.  m is q's transfer product, nlft_forward(q)
    unless the caller already has it.  The mean is grid_identities': the
    sum of the coset sums over g's size."""
    if m is None:
        m = nlft_forward(q)
    if g.radius != 1.0:
        raise ValidationError("reflection coefficient is defined on the unit circle")
    lhs, rhs, _ = grid_identities(q, m, g)
    return lhs, rhs, float(-2.0 * math.log(abs(m.a_at_zero())))


def grid_identities(
    q: Sequence, m: Transfer2x2, g: CircleGrid, witness: bool = False
) -> tuple[float, float, float]:
    """(Szego lhs, Szego rhs, unitarity residual) of q, whose transfer
    product is m, on the unit-circle grid g, from one evaluation of a and
    b, coset by coset (m.coset_values(g)): the lhs is the correctly
    rounded sum (math.fsum) of the coset sums of log(1 - |b/a|^2) over
    g's size, the residual the largest of the coset residuals.  These are
    szego_identity_check(q, g, m)'s first two values and
    m.unitarity_residual(g); with a single coset (g no larger than
    COSET_NODES or the witness grid, or no multiple of that) they are the
    whole-grid mean and maximum bit for bit.

    With witness, m.validate reads the first coset, CircleGrid(L), which
    holds every witness node, before any other coset is computed, and its
    ValidationError propagates.  Per coset the residual is formed in the
    buffers of |a|^2 and |b|^2, b/a in b's row and log(1 - |b/a|^2) in one
    float buffer, and each coset is dropped before the next is evaluated,
    so the checks hold a few L-node arrays whatever g's size."""
    cosets, terms = m.coset_values(g), []
    if witness:
        first = next(cosets)
        m.validate((CircleGrid(first.shape[1]), *first))
        terms.append(_coset_identities(first))
        del first  # not held while the next coset is made
    terms += map(_coset_identities, cosets)
    residuals, sums = zip(*terms)
    return math.fsum(sums) / g.size, q.log_szego_product(), float(np.max(residuals))


def _coset_identities(ab: np.ndarray) -> tuple[float, np.float64]:
    """(unitarity residual, Szego sum) of one coset's a and b values, rows
    of ab, which it overwrites.  |a|^2 and |b|^2 come from one call each
    over both rows, the ufuncs of _squared_moduli, and log(1 - |b/a|^2)
    reuses the buffer of |a|^2."""
    squares = np.abs(ab)
    np.square(squares, out=squares)
    residual = _residual(*squares)
    return residual, _szego_sum(np.divide(ab[1], ab[0], out=ab[1]), out=squares[0])


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
