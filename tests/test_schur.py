"""Schur recursion, Szego product, stability constant, and energy bound."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from al_ist.errors import ValidationError
from al_ist.laurent import CircleGrid, LaurentPoly, lp_conj_flip, lp_mul, monomial
from al_ist.multiplier import g_bundle, smallest_admissible_order
from al_ist.nlft import fc_plus, nlft_forward
from al_ist.datagen import random_sequence
from al_ist.sequence import Sequence
from al_ist.solver import POINT, plan, select_params
from al_ist.schur import (
    STOP_THRESHOLD,
    RationalSchur,
    SchurCoeffs,
    SchurStop,
    _dense,
    _recur,
    _shifts_exactly,
    eta,
    iterate_energy_bound_check,
    l2_norm_circle,
    schur_coeffs,
    schur_step,
    stability_constant,
)

from strategies import plus_supported_sequences


def constant(c: complex) -> RationalSchur:
    return RationalSchur(LaurentPoly(0, [c]))


class TestSchurStep:
    def test_delta_z(self):
        # The kernel first scales den(0) = 1 into [1/2, 1), exactly.
        gamma, nxt = schur_step(RationalSchur(monomial(0.3, 1)))
        assert gamma == 0.0
        assert nxt.num == LaurentPoly(0, [0.15]) and nxt.den == LaurentPoly(0, [0.5])
        assert abs(nxt.value_at_zero() - 0.3) <= 1e-15

    def test_constant(self):
        c = 0.2 - 0.4j
        gamma, nxt = schur_step(constant(c))
        assert gamma == c
        assert nxt.num.is_zero

    def test_moebius_cascade_then_stop(self):
        # f = (z + 1/2) / (1 + z/2): gamma = 1/2, next iterate is the
        # constant 1, and the step after that signals termination.
        f = RationalSchur(LaurentPoly(0, [0.5, 1.0]), LaurentPoly(0, [1.0, 0.5]))
        gamma, nxt = schur_step(f)
        assert abs(gamma - 0.5) <= 1e-15
        assert abs(nxt.value_at_zero() - 1.0) <= 1e-12
        with pytest.raises(SchurStop):
            schur_step(nxt)

    def test_iterate_is_the_renormalized_function(self):
        f = RationalSchur(LaurentPoly(0, [0.1, 0.2]), LaurentPoly(0, [2.0, 0.4]))
        _, nxt = schur_step(f)
        # den(0) = 2 is first scaled into [1/2, 1), by 1/4, exactly.
        assert nxt.den.coefficient(0) == (2.0 - 0.05 * 0.1) / 4.0
        assert_same_function(nxt, renormalized_step(f))


class TestSchurCoeffs:
    def test_equality_is_by_value(self):
        # Two or more gammas made the generated __eq__ raise ValueError.
        c = SchurCoeffs(np.array([0.5, 0.25j, 0.0]))
        twin = SchurCoeffs(np.array([0.5, 0.25j, complex(-0.0, -0.0)]))
        assert c == twin and hash(c) == hash(twin)
        assert c != SchurCoeffs(np.array([0.5, 0.25j, 0.1]))
        assert c != SchurCoeffs(np.array([0.5, 0.25j]))
        assert c != SchurCoeffs(c.gammas, terminal=1.0 + 0j)

    def test_delta_z_squared(self):
        c = schur_coeffs(RationalSchur(monomial(0.3, 2)), 5)
        assert np.allclose(c.gammas, [0, 0, 0.3, 0, 0], rtol=0, atol=1e-15)
        assert c.terminal is None

    def test_zero(self):
        c = schur_coeffs(RationalSchur(LaurentPoly(0, [0.0])), 3)
        assert np.array_equal(c.gammas, np.zeros(3))

    def test_two_site_sequence_roundtrip(self):
        q = np.zeros(2, dtype=np.complex128)
        q[0], q[1] = 0.2, 0.4j
        c = schur_coeffs(fc_plus(Sequence(0, q)), 4)
        assert np.max(np.abs(c.gammas - [0.2, 0.4j, 0.0, 0.0])) <= 1e-12

    def test_blaschke_terminates(self):
        c = schur_coeffs(RationalSchur(monomial(1.0, 1)), 4)
        assert len(c.gammas) == 1 and c.gammas[0] == 0
        assert c.terminal is not None and abs(abs(c.terminal) - 1.0) <= 1e-12

    def test_zero_site_sign_bits_match_steps(self):
        # A zero site leaves p(0) a signed zero; the gamma is +0 either way.
        f = fc_plus(Sequence(0, np.array([0.3, 0.0, 0.2j])))
        c = schur_coeffs(f, 4)
        assert c.gammas.tobytes() == schur_coeffs_by_steps(f, 4)[0].tobytes()

    def test_zero_count(self):
        c = schur_coeffs(RationalSchur(LaurentPoly(0, [0.5, 0.2])), 0)
        assert len(c.gammas) == 0 and c.terminal is None

    def test_numerator_beyond_count(self):
        # z^5 / (1 + z/2): no Taylor coefficient below degree 5 is nonzero,
        # so m <= 5 gives m zeros, no terminal and no step of the kernel.
        f = RationalSchur(monomial(0.4, 5), LaurentPoly(0, [1.0, 0.5]))
        for m in (3, 5):
            c = schur_coeffs(f, m)
            assert np.array_equal(c.gammas, np.zeros(m)) and c.terminal is None
            assert c.gammas.tobytes() == schur_coeffs_by_steps(f, m)[0].tobytes()
            assert_matches_all_steps(f, m)

    def test_blaschke_stop_before_count(self):
        # z (z + 1/2) / (1 + z/2): gammas 0, 1/2, then the unimodular 1
        f = RationalSchur(LaurentPoly(1, [0.5, 1.0]), LaurentPoly(0, [1.0, 0.5]))
        c = schur_coeffs(f, 6)
        gammas, terminal = schur_coeffs_by_steps(f, 6)
        assert len(c.gammas) == 2 and abs(c.gammas[1] - 0.5) <= 1e-15
        assert c.terminal == terminal and abs(terminal - 1.0) <= 1e-12
        assert c.gammas.tobytes() == gammas.tobytes()


class TestEta:
    def test_all_zero(self):
        assert eta(SchurCoeffs(np.zeros(5, dtype=np.complex128))) == 1.0

    def test_single(self):
        got = eta(SchurCoeffs(np.array([0.3 + 0j])))
        assert abs(got - (1 - 0.09)) <= 1e-15

    def test_pair_of_halves(self):
        got = eta(SchurCoeffs(np.array([0.5 + 0j, 0.5 + 0j])))
        assert abs(got - 9.0 / 16.0) <= 1e-15


class TestStabilityConstant:
    def test_bracket_24_25(self):
        sc = stability_constant(24.0 / 25.0, 0.5)
        assert 9.0 <= sc.value <= 10.0

    def test_bracket_half(self):
        sc = stability_constant(0.5, 0.5)
        assert 5e27 <= sc.value <= 6e27

    def test_bracket_4_5(self):
        sc = stability_constant(0.8, 0.5)
        assert 1e6 <= sc.value <= 2e6

    def test_eta_one(self):
        for r in (0.1, 0.5, 0.9):
            assert stability_constant(1.0, r) == (1.0, 0.0)

    def test_log_consistent(self):
        sc = stability_constant(0.37, 0.41)
        assert abs(sc.value - math.exp(sc.log)) <= 1e-9 * sc.value

    def test_small_eta_saturates_to_inf(self):
        sc = stability_constant(1e-8, 0.5)
        assert math.isinf(sc.value) and math.isfinite(sc.log)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            stability_constant(0.0, 0.5)
        with pytest.raises(ValidationError):
            stability_constant(0.5, 1.0)

    @pytest.mark.parametrize("eta_value", [2.0**-54, 2.0**-60, 5e-324])
    def test_rejects_an_eta_whose_log_has_no_float64_value(self, eta_value):
        # 1 - eta rounds to 1, so 1 - sqrt(1 - eta) is 0.0: refused, not
        # a ZeroDivisionError.
        with pytest.raises(ValidationError, match="too small"):
            stability_constant(eta_value, 0.5)

    @pytest.mark.parametrize("eta_value", [2.0**-53, 1e-8, 0.37, 1.0 - 2.0**-53])
    def test_accepted_eta_keeps_its_bits(self, eta_value):
        log_c = (
            math.log(1.0 / eta_value)
            * (2.0 + 1.0 / (1.0 - math.sqrt(1.0 - eta_value)))
            * (4.0 / (1.0 - 0.5) ** 2 + 1.0)
        )
        assert stability_constant(eta_value, 0.5).log.hex() == log_c.hex()


class TestL2Norm:
    def test_monomial(self):
        for n in (1, 3, 7):
            got = l2_norm_circle(RationalSchur(monomial(0.3, n)), 0.5, 1024)
            assert abs(got - 0.3 * 0.5**n) <= 1e-12

    def test_constant(self):
        got = l2_norm_circle(constant(0.2 - 0.1j), 0.77, 256)
        assert abs(got - abs(0.2 - 0.1j)) <= 1e-13

    def test_moebius_against_dense_riemann(self):
        f = RationalSchur(LaurentPoly(0, [0.5, 1.0]), LaurentPoly(0, [1.0, 0.5]))
        got = l2_norm_circle(f, 0.5, 1024)
        theta = 2.0 * np.pi * np.arange(1_000_000) / 1_000_000
        z = 0.5 * np.exp(1j * theta)
        dense = np.sqrt(np.mean(np.abs((z + 0.5) / (1.0 + 0.5 * z)) ** 2))
        assert abs(got - dense) <= 1e-10


class TestEnergyBound:
    def test_zero(self):
        lhs, rhs = iterate_energy_bound_check(constant(0.0), 0.5, 4)
        assert lhs == 0.0 and rhs == 0.0

    def test_delta_z(self):
        lhs, rhs = iterate_energy_bound_check(RationalSchur(monomial(0.5, 1)), 0.5, 3)
        # iterates: 0.5 z, 0.5, 0 -> lhs = 0.25^2 + 0.5^2
        assert abs(lhs - (0.0625 + 0.25)) <= 1e-12
        assert abs(rhs - 16.0 * math.log(4.0 / 3.0)) <= 1e-12
        assert lhs <= rhs

    def test_random_eight_site(self):
        q = random_sequence(seed=42, count=8, lo=0, hi=11, max_modulus=0.4)
        lhs, rhs = iterate_energy_bound_check(fc_plus(q), 0.5, 10)
        assert lhs <= rhs + 1e-12


@settings(max_examples=40, deadline=None)
@given(plus_supported_sequences(max_len=6, max_modulus=0.6))
def test_multiplicativity_of_eta(q):
    f = fc_plus(q)
    m = 6
    full = schur_coeffs(f, m)
    gamma0, nxt = schur_step(f)
    rest = schur_coeffs(nxt, m - 1)
    if full.terminal is not None or rest.terminal is not None:
        return
    lhs = eta(full)
    rhs = (1.0 - abs(gamma0) ** 2) * eta(rest)
    assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(plus_supported_sequences(max_len=6, max_modulus=0.6))
def test_schwarz_stability_of_gammas(q):
    c = schur_coeffs(fc_plus(q), 8)
    if len(c.gammas):
        assert np.max(np.abs(c.gammas)) < 1.0 + 1e-9


def schur_coeffs_by_steps(f: RationalSchur, m: int) -> tuple[np.ndarray, complex | None]:
    """Up to m gammas of f by repeated schur_step, and the terminal gamma."""
    gammas = []
    for _ in range(m):
        try:
            gamma, f = schur_step(f)
        except SchurStop as stop:
            return np.asarray(gammas, dtype=np.complex128), stop.gamma
        gammas.append(gamma)
    return np.asarray(gammas, dtype=np.complex128), None


@st.composite
def multiplied_schur(draw):
    """G_{n,t} times conj-flip(b) over a, as the solver builds it."""
    q = draw(plus_supported_sequences(max_len=6, max_modulus=0.6))
    t = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]))
    n = smallest_admissible_order(t) + draw(st.integers(0, 3))
    m = nlft_forward(q)
    return RationalSchur(lp_mul(g_bundle(n, t).g, lp_conj_flip(m.b)), m.a)


schur_functions = st.one_of(plus_supported_sequences(max_len=6, max_modulus=0.6).map(fc_plus),
                            multiplied_schur())


@settings(max_examples=60, deadline=None)
@given(schur_functions, st.integers(0, 24))
def test_coeffs_match_repeated_steps_bitwise(f, m):
    c = schur_coeffs(f, m)
    gammas, terminal = schur_coeffs_by_steps(f, m)
    assert c.gammas.tobytes() == gammas.tobytes()
    assert c.terminal == terminal



def test_coeffs_match_repeated_steps_bitwise_at_one_coefficient():
    # From step 1 on, schur_step carries a one-coefficient numerator while
    # schur_coeffs carries m - k coefficients; numpy rounds an in-place
    # complex multiply of a length-1 array differently from a longer one.
    f = RationalSchur(
        LaurentPoly(
            1, [0.02200655756910197 + 0.04323759650669157j, -0.6005527459946982 + 0.2951726305996216j]
        ),
        LaurentPoly(0, [1.2039173860074794, -0.00037672308881053773 + 0.026963802647681487j]),
    )
    c = schur_coeffs(f, 18)
    gammas, terminal = schur_coeffs_by_steps(f, 18)
    assert c.gammas.tobytes() == gammas.tobytes()
    assert c.terminal == terminal


def schur_coeffs_all_steps(f: RationalSchur, m: int) -> tuple[np.ndarray, complex | None]:
    """Up to m gammas of f and the terminal gamma, by the kernel run for
    all m steps from m coefficients of num and den: schur_coeffs without
    its shortcut past a numerator's leading zeros."""
    gammas = np.zeros(m, dtype=np.complex128)
    done, _, terminal = _recur(_dense(f.num, m), _dense(f.den, m), m, gammas)
    return gammas[:done], terminal


def times_z_to(f: RationalSchur, d: int) -> RationalSchur:
    """z^d f: the numerator moved up by d degrees."""
    return RationalSchur(LaurentPoly(f.num.min_deg + d, f.num.coeffs), f.den)


def assert_matches_all_steps(f: RationalSchur, m: int):
    c = schur_coeffs(f, m)
    gammas, terminal = schur_coeffs_all_steps(f, m)
    assert c.gammas.tobytes() == gammas.tobytes()
    assert c.terminal == terminal


@settings(max_examples=100, deadline=None)
@given(schur_functions, st.integers(0, 24), st.data())
def test_lead_matches_all_steps_bitwise(f, m, data):
    assert_matches_all_steps(times_z_to(f, data.draw(st.integers(0, m + 5))), m)


# Real and imaginary parts with both signed zeros among them.
signed_zero_parts = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.5, 0.5))


@st.composite
def signed_zero_functions(draw):
    """num / den with zero parts of either sign, and |den(0)| >= 2."""
    def coeffs(size):
        return [complex(draw(signed_zero_parts), draw(signed_zero_parts)) for _ in range(size)]

    num = coeffs(draw(st.integers(1, 4)))
    den = coeffs(draw(st.integers(1, 4)))
    den[0] += draw(st.sampled_from([2.0, -2.0, 2j, -2j]))
    return RationalSchur(LaurentPoly(draw(st.integers(0, 8)), num), LaurentPoly(0, den))


@settings(max_examples=100, deadline=None)
@given(signed_zero_functions(), st.integers(0, 16))
def test_signed_zero_parts_match_all_steps_bitwise(f, m):
    # A zero step turns a -0 part of p or q into +0 where the zero it
    # subtracts is -0, so with a -0 part anywhere all steps run.
    gammas, _ = schur_coeffs_all_steps(f, m)
    assume(np.all(np.isfinite(gammas)))
    assert_matches_all_steps(f, m)


def test_signed_zero_part_would_change_a_gamma():
    # The zero steps turn the -0 imaginary parts of num into +0, so
    # running only from the first nonzero coefficient would give gammas 3
    # and 4 an imaginary part of +0 where all steps give -0.
    f = RationalSchur(
        LaurentPoly(3, [complex(-0.10029076, -0.0), complex(-0.06950754, -0.0), 0.17438929]),
        LaurentPoly(0, [-2.46344219, -0.65086986]),
    )
    assert_matches_all_steps(f, 11)


def test_lead_over_a_negative_den0_is_negative_zeros():
    # 0j / den(0) for den(0) < 0 is -0 - 0j, as the kernel writes it.
    f = RationalSchur(LaurentPoly(3, [0.2, 0.1j]), LaurentPoly(0, [-2.0, 0.5]))
    c = schur_coeffs(f, 6)
    assert c.gammas[:3].tobytes() == np.full(3, complex(-0.0, -0.0)).tobytes()
    assert_matches_all_steps(f, 6)


def test_unimodular_stop_right_after_the_lead():
    c = schur_coeffs(RationalSchur(monomial(1.0, 5)), 8)
    assert c.gammas.tobytes() == np.zeros(5, dtype=np.complex128).tobytes()
    assert c.terminal == 1.0
    assert_matches_all_steps(RationalSchur(monomial(1.0, 5)), 8)


def renormalized_step(f: RationalSchur) -> RationalSchur:
    """The next iterate of f with den(0) = 1: both new arrays divided by
    q(0) - conj(gamma) p(0) in Python complex arithmetic, so that num(0)
    is the quotient value_at_zero takes of the unnormalized iterate."""
    width = max(f.num.max_deg, f.den.max_deg) + 1
    p, q = _dense(f.num, width), _dense(f.den, width)
    gamma = (complex(p[0]) or 0j) / complex(q[0])
    den = q - np.conj(gamma) * p
    d0 = complex(den[0])
    num = [complex(c) / d0 for c in (p - gamma * q)[1:]]
    den = [1.0] + [complex(c) / d0 for c in den[1:]]
    return RationalSchur(LaurentPoly(0, num), LaurentPoly(0, den))


# Units of the subnormal grid, 2^-1074, by which the parts of the two values
# at 0 compared in test_step_is_the_renormalized_step may differ where they
# lie near or below 2^-1022; at and above 2^-1016 an ulp is 64 units, so
# the parts there must be equal.  Both runs compute the value as one
# quotient x / y, x = p(1) - gamma q(1), y = q(0) - conj(gamma) p(0); the
# kernel's p and q carry a power-of-two factor, so |q(0)| = c lies in
# [1/2, 1) there and is a(0) >= 1 in the renormalized run.  Scaling is
# exact in the normal range, so the runs round alike there and differ only
# by roundings whose result lies below 2^-1022, each within half a unit in
# its own run.  For schur_functions |gamma| < 0.6 (gamma is q(0), times
# G(0) for multiplied_schur), so |p(0)| < 0.6 c and |y| > 0.64 c, and
# |q(1)| <= 1.8 c (a(1)/a(0) sums conj(q_k) q_(k+1) over at most five
# pairs).  Counted in units: gamma's small part is within (1 + 1/c)/2 (the
# scaling of p(0), then the quotient); x's within 3.1 + 1.8 c e_gamma (three
# scalings times at most 1, 0.6 and 0.6 halves, the product's three
# roundings, the subtraction); y's within 2.6 + 0.6 c e_gamma; the complex
# quotient adds 1 + 1/|y| of its own and carries (e_x + e_y)/|y|, since
# |x / y| < 1.  Each run is then within 1 + (7.9 + 1.2 c)/(0.64 c) units:
# 27.6 for the kernel's c >= 1/2 and 15.3 for the renormalized c >= 1.
SUBNORMAL_GAP_UNITS = 43


def assert_same_value_at_zero(a: complex, b: complex):
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        if min(abs(x), abs(y)) >= 2.0**-1016:
            assert x == y
        else:
            assert abs(x - y) <= SUBNORMAL_GAP_UNITS * 2.0**-1074


def assert_same_function(g: RationalSchur, h: RationalSchur):
    """Equal values at 0 (see SUBNORMAL_GAP_UNITS for parts near the
    subnormal range), and num/den within 4e-15 of each other relative to
    the largest |h| on 64 nodes of the unit circle; up to 1.5e-15 was seen
    over 3000 examples of schur_functions."""
    assert_same_value_at_zero(g.value_at_zero(), h.value_at_zero())
    grid = CircleGrid(64)
    gv, hv = g.grid_values(grid), h.grid_values(grid)
    assert np.max(np.abs(gv - hv)) <= 4e-15 * np.max(np.abs(hv))


@settings(max_examples=60, deadline=None)
@given(schur_functions)
# Draws whose value at 0 has a part near or below 2^-1022 (the first three
# as hypothesis reported them); the last three differ by 1, 2 and 1 units,
# the last at an imaginary part of 3.7e-308, above 2^-1022.
@example(fc_plus(Sequence(0, [0.5, 0.5 + 5.56268465e-309j])))
@example(fc_plus(Sequence(1, [0.53125 + 1.18207049e-309j])))
@example(fc_plus(Sequence(0, [0.5, 0.5 + 1.11253693e-313j])))
@example(fc_plus(Sequence(0, [0.5, 0.5 + 1.266519838945358e-308j])))
@example(fc_plus(Sequence(0, [0.5, 0.25 + 6.0861254010606e-310j])))
@example(fc_plus(Sequence(1, [0.2995634856981171 + 3.6933823421743264e-308j])))
def test_step_is_the_renormalized_step(f):
    # The step leaves den(0) = q(0) (1 - |gamma|^2) where it falls; the
    # iterate is the same function as the one renormalized to den(0) = 1.
    try:
        _, nxt = schur_step(f)
    except SchurStop:
        return
    assert_same_function(nxt, renormalized_step(f))


def exact_multiple(p: LaurentPoly, scale: float) -> LaurentPoly:
    """scale * p part by part on the float64 view, as the kernel scales, so
    that a -0 part stays -0; a complex times a float turns it into +0."""
    return LaurentPoly(p.min_deg, (p.coeffs.view(np.float64) * scale).view(np.complex128))


@settings(max_examples=60, deadline=None)
@given(schur_functions, st.integers(0, 24), st.sampled_from([300, 900]))
# gamma 13 here has a subnormal imaginary part, which the two runs round
# alike only when both start from den(0) scaled into [1/2, 1).
@example(fc_plus(Sequence(0, np.array([0.125, 0.125 + 3.576e-125j]))), 14, 300)
def test_coeffs_scale_invariant(f, m, e):
    # den(0) 2^-e lies below the kernel's rescale threshold, so the first
    # step rescales by a power of two; the gammas must not move a bit.
    # Scaling is exact only in the normal range, so the scaled copy must be
    # exact, and no gamma may decay toward 2^-1022 (a two-site datum gives
    # gammas near 1e-16^k at step k + 1, and the two runs then round
    # subnormal tails differently).
    scale = 2.0**-e
    scaled = RationalSchur(exact_multiple(f.num, scale), exact_multiple(f.den, scale))
    assume(exact_multiple(scaled.num, 2.0**e) == f.num and exact_multiple(scaled.den, 2.0**e) == f.den)
    c, s = schur_coeffs(f, m), schur_coeffs(scaled, m)
    assume(np.all((c.gammas == 0) | (np.abs(c.gammas) > 2.0**-900)))
    assert s.gammas.tobytes() == c.gammas.tobytes()
    assert s.terminal == c.terminal


def schur_coeffs_mpmath(f: RationalSchur, m: int, dps: int = 40) -> np.ndarray:
    """Up to m gammas of f by the recursion in dps-digit mpmath arithmetic,
    from the float64 coefficients of f taken exactly; no stop test."""
    with mpmath.workdps(dps):
        p = np.array([mpmath.mpc(c) for c in _dense(f.num, m)], dtype=object)
        q = np.array([mpmath.mpc(c) for c in _dense(f.den, m)], dtype=object)
        gammas = []
        for _ in range(m):
            gamma = p[0] / q[0]
            gammas.append(complex(gamma))
            p, q = p[1:] - gamma * q[1:], (q - mpmath.conj(gamma) * p)[:-1]
    return np.asarray(gammas, dtype=np.complex128)


@pytest.mark.parametrize(
    "seed, t, n0, steps, run_steps", [(3, 2.0, 0, 307, 32), (5, 1.0, 8, 202, 20)]
)
def test_coeffs_match_a_40_digit_recursion(seed, t, n0, steps, run_steps, monkeypatch):
    # The f0 of a point solve at eps 1e-10, built as solver._schur_pass
    # builds it from the solve's PassPlan: both plans mirror the datum
    # about n0, and the kernel runs run_steps of the steps.  Float64 drift
    # from the 40-digit gammas was 2.8e-16 and 2.9e-17 here.
    q0 = random_sequence(seed, 7, -6, 6, 0.6, 0.3)
    point = plan(q0, t, n0, 1e-10, POINT)
    assert (point.steps, point.run_steps, point.mirror) == (steps, run_steps, True)
    datum = point.datum.reflected(n0) if point.mirror else point.datum
    m = nlft_forward(datum.windowed(*point.clip).shifted(point.W - n0))
    f0 = RationalSchur(lp_mul(g_bundle(point.order, t).g, lp_conj_flip(m.b)), m.a)
    counts = []
    recur = _recur

    def recording(p, q, count, gammas):
        counts.append(count)
        return recur(p, q, count, gammas)

    monkeypatch.setattr("al_ist.schur._recur", recording)
    c = schur_coeffs(f0, steps)
    assert counts == [run_steps]
    assert c.terminal is None
    assert np.max(np.abs(c.gammas - schur_coeffs_mpmath(f0, steps))) <= 1e-14


def test_zero_numerator_gammas_are_the_kernels(monkeypatch):
    # A zero numerator runs no kernel step, where its den passes
    # _shifts_exactly, and its gammas are those of the kernel run over
    # every step, bit for bit; a den with -0 parts runs the kernel.
    rng = np.random.default_rng(7)
    parts = np.array([0.0, -0.0, 0.5, -0.25, 1.5, 3.0])
    heads = [0.7, complex(0.7, -0.0), complex(-0.0, 0.6), complex(-0.8, -0.0), complex(0.0, -0.9)]
    counts = []
    recur = _recur

    def recording(p, q, count, gammas):
        counts.append(count)
        return recur(p, q, count, gammas)

    for _ in range(200):
        length, m = int(rng.integers(1, 5)), int(rng.integers(0, 150))
        coeffs = rng.choice(parts, length) + 1j * rng.choice(parts, length)
        coeffs += rng.normal(size=length) * (rng.random(length) < 0.5)
        coeffs[0] = heads[rng.integers(len(heads))]
        f = RationalSchur(LaurentPoly(0, [0.0]), LaurentPoly(0, coeffs))
        want = np.zeros(m, dtype=np.complex128)
        assert _recur(_dense(f.num, m), _dense(f.den, m), m, want)[0::2] == (m, None)
        monkeypatch.setattr("al_ist.schur._recur", recording)
        got = schur_coeffs(f, m)
        monkeypatch.undo()
        assert got.gammas.tobytes() == want.tobytes() and got.terminal is None
        assert counts.pop() == (0 if _shifts_exactly(f.den) else m)


@settings(max_examples=60, deadline=None)
@given(schur_functions, st.integers(0, 16), st.integers(1, 12))
def test_coeffs_prefix(f, m, k):
    short, longer = schur_coeffs(f, m), schur_coeffs(f, m + k)
    if short.terminal is None:
        assert short.gammas.tobytes() == longer.gammas[:m].tobytes()
    else:
        assert short.gammas.tobytes() == longer.gammas.tobytes()
        assert short.terminal == longer.terminal


def schur_coeffs_dividing(f: RationalSchur, m: int) -> tuple[np.ndarray, complex | None]:
    """Up to m gammas of f and the terminal gamma, by the step that divides
    both new arrays by q(0) - conj(gamma) p(0): the oracle for the in-place
    step, which multiplies by the reciprocal instead."""
    gammas = []
    p, q = _dense(f.num, m), _dense(f.den, m)
    for _ in range(m):
        gamma = (complex(p[0]) or 0j) / complex(q[0])
        if abs(gamma) >= STOP_THRESHOLD:
            return np.asarray(gammas, dtype=np.complex128), gamma
        gammas.append(gamma)
        den = q - np.conj(gamma) * p
        d0 = den[0]
        p, q = (p - gamma * q)[1:] / d0, (den / d0)[:-1]
    return np.asarray(gammas, dtype=np.complex128), None


def assert_close_to_dividing_step(f: RationalSchur, m: int):
    c = schur_coeffs(f, m)
    gammas, terminal = schur_coeffs_dividing(f, m)
    assert len(c.gammas) == len(gammas)
    if len(gammas):
        assert np.max(np.abs(c.gammas - gammas)) <= 1e-13
    assert (c.terminal is None) == (terminal is None)
    if terminal is not None:
        assert abs(c.terminal - terminal) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(schur_functions, st.integers(0, 24))
def test_coeffs_match_dividing_step(f, m):
    assert_close_to_dividing_step(f, m)


def test_coeffs_match_dividing_step_on_a_long_window_pass():
    # The f0 of a window pass at eta 0.11, t = 6, on the shape of a
    # PassPlan at select_params' closed-form N (W = N + floor(N/2), order
    # 2W, 3W + floor(N/2) + 1 steps), from three sites of equal modulus a
    # with (1 - a^2)^3 = 0.11.
    a = math.sqrt(1.0 - 0.11 ** (1.0 / 3.0))
    q0 = Sequence(-2, a * np.array([1.0, 0.0, np.exp(1.1j), 0.0, np.exp(-2.3j)]))
    N = select_params(6.0, 1e-6, q0.szego_product()).N
    W = N + N // 2
    m = nlft_forward(q0.windowed(-W, W).shifted(W))
    f0 = RationalSchur(lp_mul(g_bundle(2 * W, 6.0).g, lp_conj_flip(m.b)), m.a)
    steps = 3 * W + N // 2 + 1
    assert steps > 5000
    assert_close_to_dividing_step(f0, steps)


def schur_iterates(f: RationalSchur, count: int) -> list[RationalSchur]:
    out = [f]
    for _ in range(count):
        _, f = schur_step(f)
        out.append(f)
    return out


def test_stability_inequality_random_pairs():
    """Iterate-growth bound on a handful of random Szego-class pairs (the
    full 200-pair sweep runs in the acceptance suite)."""
    rng_seed = 100
    for trial in range(10):
        qf = random_sequence(rng_seed + 2 * trial, 6, 0, 11, 0.6)
        qg = random_sequence(rng_seed + 2 * trial + 1, 6, 0, 11, 0.6)
        f, g = fc_plus(qf), fc_plus(qg)
        eta_min = min(qf.szego_product(), qg.szego_product())
        fs = schur_iterates(f, 12)
        gs = schur_iterates(g, 12)
        for r in (0.3, 0.5):
            grid = CircleGrid(1024, r)
            base = np.sqrt(
                np.mean(np.abs(f.grid_values(grid) - g.grid_values(grid)) ** 2)
            )
            c = stability_constant(eta_min, r)
            for n in (1, 4, 8, 12):
                dist = np.sqrt(
                    np.mean(np.abs(fs[n].grid_values(grid) - gs[n].grid_values(grid)) ** 2)
                )
                assert dist <= c.value * r ** (-n) * base + 1e-8


def test_sharpness_of_rate():
    """F = delta z^n against G = 0: the initial distance is delta r^n and
    after n steps it is exactly delta, meeting the r^-n rate."""
    delta, r = 0.3, 0.5
    for n in range(1, 6):
        f = RationalSchur(monomial(delta, n))
        assert abs(l2_norm_circle(f, r, 1024) - delta * r**n) <= 1e-10
        fn = schur_iterates(f, n)[n]
        assert abs(l2_norm_circle(fn, r, 1024) - delta) <= 1e-10


def test_validate_does_not_alias_high_degree():
    # 0.6 - 0.6 z^1024 vanishes at every 1024th root of unity but reaches
    # 1.2 at z = -1; a 1024-node witness would accept it.
    num = LaurentPoly(0, np.r_[0.6, np.zeros(1023), -0.6])
    with pytest.raises(ValidationError, match="not a Schur-class function"):
        RationalSchur(num).validate()


def test_validate_accepts_high_degree_schur_function():
    num = LaurentPoly(0, np.r_[0.3, np.zeros(1023), -0.6])
    f = RationalSchur(num)
    assert f.validate() is f


def test_validate_refuses_nan():
    # max(|num| - |den|) is NaN, and NaN > tol is False.
    with pytest.raises(ValidationError, match="not a Schur-class function"):
        RationalSchur(LaurentPoly(0, [0.3, math.nan])).validate()


def test_coeffs_refuse_nan():
    with pytest.raises(ValidationError, match="modulus < 1"):
        SchurCoeffs(np.array([0.2, math.nan]))
