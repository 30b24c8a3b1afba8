"""Schur recursion, Szego product, stability constant, and energy bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from al_ist.errors import ValidationError
from al_ist.laurent import CircleGrid, LaurentPoly, lp_conj_flip, lp_mul, monomial
from al_ist.multiplier import g_bundle, smallest_admissible_order
from al_ist.nlft import fc_plus, nlft_forward
from al_ist.datagen import random_sequence
from al_ist.sequence import Sequence
from al_ist.solver import select_params
from al_ist.schur import (
    STOP_THRESHOLD,
    RationalSchur,
    SchurCoeffs,
    SchurStop,
    _dense,
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
        gamma, nxt = schur_step(RationalSchur(monomial(0.3, 1)))
        assert gamma == 0.0
        assert nxt.num == LaurentPoly(0, [0.3])
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

    def test_renormalizes_denominator(self):
        f = RationalSchur(LaurentPoly(0, [0.1, 0.2]), LaurentPoly(0, [2.0, 0.4]))
        _, nxt = schur_step(f)
        assert abs(nxt.den.coefficient(0) - 1.0) <= 1e-15


class TestSchurCoeffs:
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
        # z^5 / (1 + z/2): no Taylor coefficient below degree 5 is nonzero
        f = RationalSchur(monomial(0.4, 5), LaurentPoly(0, [1.0, 0.5]))
        c = schur_coeffs(f, 5)
        assert np.array_equal(c.gammas, np.zeros(5)) and c.terminal is None
        assert c.gammas.tobytes() == schur_coeffs_by_steps(f, 5)[0].tobytes()

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
    # The f0 of a window pass at eta 0.11, t = 6 (5,194 steps), built as
    # solver._schur_pass builds it, from three sites of equal modulus a
    # with (1 - a^2)^3 = 0.11.
    a = math.sqrt(1.0 - 0.11 ** (1.0 / 3.0))
    q0 = Sequence(-2, a * np.array([1.0, 0.0, np.exp(1.1j), 0.0, np.exp(-2.3j)]))
    params = select_params(6.0, 1e-6, q0.szego_product())
    W = params.N + params.N // 2
    order, steps = 2 * W, 2 * W + W + 1
    m = nlft_forward(q0.windowed(-W, W).shifted(W))
    f0 = RationalSchur(lp_mul(g_bundle(order, 6.0).g, lp_conj_flip(m.b)), m.a)
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
