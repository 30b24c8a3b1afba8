"""Laurent polynomial arithmetic against schoolbook and pointwise oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings

from al_ist.laurent import (
    CONVOLVE_SHORT,
    CONVOLVE_WORK,
    CircleGrid,
    LaurentPoly,
    lp_add,
    lp_conj_flip,
    lp_eval,
    lp_eval_grid,
    lp_mul,
    monomial,
    next_pow2,
    witness_grid,
)

from strategies import laurent_polys


def schoolbook_mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Quadratic double-loop convolution oracle."""
    out = np.zeros(len(p.coeffs) + len(q.coeffs) - 1, dtype=np.complex128)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return LaurentPoly(p.min_deg + q.min_deg, out)


def compensated_eval(p: LaurentPoly, z: complex) -> complex:
    """Per-term powers summed with math.fsum on real and imaginary parts."""
    terms = [c * z ** (p.min_deg + i) for i, c in enumerate(p.coeffs)]
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


class TestConstruction:
    def test_trims_exact_zeros(self):
        p = LaurentPoly(-2, [0.0, 1.0, 2.0, 0.0])
        assert p.min_deg == -1
        assert np.array_equal(p.coeffs, [1.0, 2.0])

    def test_canonical_zero(self):
        p = LaurentPoly(5, [0.0, 0.0])
        assert p.is_zero and p.min_deg == 0 and len(p.coeffs) == 1

    def test_span_matches_degrees(self):
        p = LaurentPoly(-3, [1.0, 0.0, 2.0])
        assert p.max_deg - p.min_deg == len(p.coeffs) - 1

    def test_negative_zero_twin_is_equal_and_hashes_alike(self):
        p = LaurentPoly(-3, [1.0, complex(-0.0, -0.0), 2.0])
        twin = LaurentPoly(-3, [1.0, 0.0, 2.0])
        assert p == twin and hash(p) == hash(twin)
        assert len({p, twin}) == 1


class TestAdd:
    def test_cancellation(self):
        one_plus_z = LaurentPoly(0, [1.0, 1.0])
        minus_z = LaurentPoly(1, [-1.0])
        assert lp_add(one_plus_z, minus_z) == LaurentPoly(0, [1.0])

    def test_zero_identity(self):
        p = LaurentPoly(-1, [2.0, 3.0j])
        assert lp_add(p, LaurentPoly(0, [0.0])) == p

    def test_disjoint_supports(self):
        s = lp_add(monomial(1.0, -1), monomial(1.0, 1))
        assert s.min_deg == -1 and s.max_deg == 1
        assert np.array_equal(s.coeffs, [1.0, 0.0, 1.0])


class TestMul:
    def test_difference_of_squares(self):
        p = LaurentPoly(0, [1.0, 1.0])
        q = LaurentPoly(0, [1.0, -1.0])
        assert lp_mul(p, q) == LaurentPoly(0, [1.0, 0.0, -1.0])

    def test_one_identity(self):
        p = LaurentPoly(-2, [1.0, 2.0j, 3.0])
        assert lp_mul(p, LaurentPoly(0, [1.0])) == p

    def test_matches_schoolbook_degree3(self):
        rng = np.random.default_rng(11)
        p = LaurentPoly(-1, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        q = LaurentPoly(2, rng.standard_normal(4) + 1j * rng.standard_normal(4))
        got = lp_mul(p, q)
        want = schoolbook_mul(p, q)
        assert got.min_deg == want.min_deg
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * np.max(
            np.abs(want.coeffs)
        )

    def test_fft_path_matches_schoolbook(self, monkeypatch):
        # 900 x 1100 coefficient pairs, past CONVOLVE_WORK: the FFT path
        rng = np.random.default_rng(7)
        p = LaurentPoly(-40, rng.standard_normal(900) + 1j * rng.standard_normal(900))
        q = LaurentPoly(13, rng.standard_normal(1100) + 1j * rng.standard_normal(1100))
        assert len(p.coeffs) * len(q.coeffs) >= CONVOLVE_WORK
        got = fft_spied(monkeypatch, lambda: lp_mul(p, q), expect_calls=2)
        want = schoolbook_mul(p, q)
        scale = np.sum(np.abs(p.coeffs)) * np.sum(np.abs(q.coeffs))
        assert got.min_deg == want.min_deg
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-10 * scale


    def test_long_by_short_matches_schoolbook(self, monkeypatch):
        # A multiplier band times a 13-site datum's b, far longer: 2000 x 13
        # pairs, below CONVOLVE_WORK, so np.convolve and no FFT.
        rng = np.random.default_rng(8)
        p = LaurentPoly(5, rng.standard_normal(2000) + 1j * rng.standard_normal(2000))
        q = LaurentPoly(-12, rng.standard_normal(13) + 1j * rng.standard_normal(13))
        assert len(p.coeffs) * len(q.coeffs) < CONVOLVE_WORK
        got = fft_spied(monkeypatch, lambda: lp_mul(p, q), expect_calls=0)
        want = schoolbook_mul(p, q)
        assert got.min_deg == want.min_deg and len(got.coeffs) == len(want.coeffs)
        scale = np.sum(np.abs(p.coeffs)) * np.sum(np.abs(q.coeffs))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * scale

    @pytest.mark.parametrize(
        "short, ffts", [(CONVOLVE_SHORT, 0), (CONVOLVE_SHORT + 1, 2)], ids=["convolve", "fft"]
    )
    def test_shorter_operand_picks_the_path(self, monkeypatch, short, ffts):
        # 700 coefficients times CONVOLVE_SHORT or one more, both past
        # CONVOLVE_WORK pairs: np.convolve up to CONVOLVE_SHORT in the
        # shorter operand, the FFT above.
        rng = np.random.default_rng(short)
        p = LaurentPoly(-3, rng.standard_normal(short) + 1j * rng.standard_normal(short))
        q = LaurentPoly(9, rng.standard_normal(700) + 1j * rng.standard_normal(700))
        assert short * 700 >= CONVOLVE_WORK
        got = fft_spied(monkeypatch, lambda: lp_mul(p, q), expect_calls=ffts)
        want = schoolbook_mul(p, q)
        assert got.min_deg == want.min_deg and len(got.coeffs) == len(want.coeffs)
        scale = np.sum(np.abs(p.coeffs)) * np.sum(np.abs(q.coeffs))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * scale


def fft_spied(monkeypatch, work, expect_calls: int):
    """work(), asserting that it called np.fft.fft expect_calls times."""
    calls = []
    fft = np.fft.fft

    def spy(*args, **kwargs):
        calls.append(1)
        return fft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", spy)
    result = work()
    assert len(calls) == expect_calls
    return result


class TestEval:
    def test_constant(self):
        assert lp_eval(LaurentPoly(0, [3.0]), 17.0 - 2.0j) == 3.0

    def test_monomial_at_i(self):
        assert lp_eval(monomial(1.0, 1), 1j) == 1j

    def test_zero_with_negative_exponent_raises(self):
        with pytest.raises(ZeroDivisionError):
            lp_eval(LaurentPoly(-1, [1.0]), 0.0)

    def test_matches_compensated_summation(self):
        rng = np.random.default_rng(3)
        p = LaurentPoly(0, rng.standard_normal(9) + 1j * rng.standard_normal(9))
        z = 0.5 * cmath.exp(1j * math.pi / 7)
        assert abs(lp_eval(p, z) - compensated_eval(p, z)) <= 1e-13


class TestEvalGrid:
    def test_constant(self):
        vals = lp_eval_grid(LaurentPoly(0, [2.0 - 1.0j]), CircleGrid(8))
        assert np.allclose(vals, 2.0 - 1.0j, rtol=0, atol=1e-15)

    def test_z_on_fourth_roots(self):
        vals = lp_eval_grid(monomial(1.0, 1), CircleGrid(4))
        assert np.allclose(vals, [1.0, 1j, -1.0, -1j], rtol=0, atol=1e-15)

    def test_matches_pointwise_horner(self):
        rng = np.random.default_rng(5)
        p = LaurentPoly(-4, rng.standard_normal(11) + 1j * rng.standard_normal(11))
        for size, r in ((64, 1.0), (128, 0.5), (40, 0.3)):
            g = CircleGrid(size, r)
            got = lp_eval_grid(p, g)
            want = np.array([lp_eval(p, z) for z in g.nodes])
            assert np.max(np.abs(got - want)) <= 1e-12


class TestConjFlip:
    def test_iz_maps_to_minus_i_over_z(self):
        assert lp_conj_flip(monomial(1j, 1)) == monomial(-1j, -1)

    def test_symmetric_real_fixed_point(self):
        p = LaurentPoly(-2, [1.0, 3.0, 5.0, 3.0, 1.0])
        assert lp_conj_flip(p) == p

    def test_circle_identity(self):
        # on |z| = 1 the flip equals the pointwise conjugate
        p = LaurentPoly(-2, [1.0 + 2j, 0.5, -1j, 2.0])
        g = CircleGrid(64)
        got = lp_eval_grid(lp_conj_flip(p), g)
        assert np.max(np.abs(got - np.conj(lp_eval_grid(p, g)))) <= 1e-13


class TestGridHelpers:
    def test_next_pow2(self):
        for span in (1, 3, 17, 100):
            m = next_pow2(4 * span, 64)
            assert m >= 4 * span and m >= 64 and (m & (m - 1)) == 0
            assert m == 64 or m < 8 * span
        assert [next_pow2(n) for n in (0, 1, 2, 3, 64, 65)] == [1, 1, 2, 4, 64, 128]

    def test_grid_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CircleGrid(0)
        with pytest.raises(ValueError):
            CircleGrid(8, 1.5)


@given(laurent_polys())
def test_conj_flip_involution(p):
    assert lp_conj_flip(lp_conj_flip(p)) == p


@settings(max_examples=60)
@given(laurent_polys(max_span=6), laurent_polys(max_span=6), laurent_polys(max_span=6))
def test_ring_laws(p, q, s):
    scale = max(
        1.0,
        np.max(np.abs(p.coeffs)) * np.max(np.abs(q.coeffs)),
        np.max(np.abs(q.coeffs)) * np.max(np.abs(s.coeffs)),
        np.max(np.abs(p.coeffs)) * np.max(np.abs(s.coeffs)),
    )

    def close(x: LaurentPoly, y: LaurentPoly):
        d = lp_add(x, LaurentPoly(y.min_deg, -np.asarray(y.coeffs)))
        return d.is_zero or np.max(np.abs(d.coeffs)) <= 1e-12 * scale * scale

    assert close(lp_mul(p, q), lp_mul(q, p))
    assert close(lp_mul(lp_mul(p, q), s), lp_mul(p, lp_mul(q, s)))
    assert close(lp_mul(p, lp_add(q, s)), lp_add(lp_mul(p, q), lp_mul(p, s)))


@settings(max_examples=40)
@given(laurent_polys(max_span=8), laurent_polys(max_span=8))
def test_mul_matches_schoolbook_property(p, q):
    got = lp_mul(p, q)
    want = schoolbook_mul(p, q)
    if want.is_zero:
        assert got.is_zero
    else:
        scale = max(1.0, np.sum(np.abs(p.coeffs)) * np.sum(np.abs(q.coeffs)))
        diff = lp_add(got, LaurentPoly(want.min_deg, -np.asarray(want.coeffs)))
        assert diff.is_zero or np.max(np.abs(diff.coeffs)) <= 1e-12 * scale


def test_witness_grid_oversamples_the_widest_span():
    assert witness_grid(LaurentPoly(0, [1.0])).size == 1024
    wide = LaurentPoly(-700, np.ones(1201))  # span 1200
    assert witness_grid(LaurentPoly(0, [1.0]), wide).size == 4096
    assert witness_grid(monomial(1.0, 5000)).size == 1024  # one term, span 0
