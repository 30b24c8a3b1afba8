"""Bessel values, multiplier polynomial P_{n,t}, and the G_{n,t} bundle."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from al_ist.errors import ValidationError
from al_ist.laurent import CircleGrid, LaurentPoly, lp_eval_grid, monomial
from al_ist.solver import SolveParams
from al_ist.multiplier import (
    _LOG_NEGLIGIBLE,
    MultiplierBundle,
    _least,
    _least_from,
    _bessel_start,
    _log_bessel_bound,
    _bessel_table,
    _log_delta_nt,
    _log_delta_stirling,
    bessel_j,
    bundle_grid_size,
    delta_nt,
    g_bundle,
    order_admissible,
    p_poly,
    s_bound,
    smallest_admissible_order,
    tail_bound,
)

# J_0(1) to 50 decimal digits, frozen from an arbitrary-precision series sum.
J0_AT_1 = 0.76519768655796655145

EXP_GRID = CircleGrid(256)


def exp_multiplier(t: float, g: CircleGrid) -> np.ndarray:
    return np.exp(1j * t * (g.nodes + 1.0 / g.nodes))


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        for k in (1, 2, 5, -3):
            assert bessel_j(k, 0.0) == 0.0

    def test_j0_at_one(self):
        assert abs(bessel_j(0, 1.0) - J0_AT_1) <= 1e-15

    def test_negative_order_parity(self):
        x = 1.4  # 2t for t = 0.7
        assert abs(bessel_j(-3, x) + bessel_j(3, x)) <= 1e-16

    def test_against_scipy(self):
        for k in range(-12, 13):
            for x in (0.25, 1.0, 2.0, 4.0, 8.0):
                assert abs(bessel_j(k, x) - jv(k, x)) <= 1e-13

    def test_large_argument_against_mpmath(self):
        # x = 2t up to 60: an ascending series would lose about e^x ulp here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for x in (20.0, 40.0, 60.0):
                for k in range(0, 80, 3):
                    assert abs(bessel_j(k, x) - float(mpmath.besselj(k, x))) <= 1e-14

    def test_underflow_is_clean_zero(self):
        assert bessel_j(400, 1.0) == 0.0


# (t, n) of multiplier tables: desk-scale orders, the t 8 benchmark job, and
# the orders long solves ask for, up to t 1 200.
TABLE_CASES = [(0.5, 12), (6.0, 60), (8.0, 1200), (50.0, 460), (400.0, 3440), (1200.0, 15366)]


def doubling_least(holds, lo):
    """The unbounded search that the bounded brackets replaced: double a
    step from lo until holds, then bisect."""
    if holds(lo):
        return lo
    step = 1
    while not holds(lo + step):
        step *= 2
    bad, good = lo + step // 2, lo + step
    while good - bad > 1:
        mid = (bad + good) // 2
        if holds(mid):
            good = mid
        else:
            bad = mid
    return good


class TestSearchBrackets:
    """_bessel_start and smallest_admissible_order bisect inside brackets
    derived in their docstrings: the right end holds, and the answer is the
    one the unbounded doubling search finds.  _least_from, the sizing
    search, brackets outward from a guess and finds what _least does."""

    def test_bessel_start(self):
        xs = [*np.geomspace(1e-25, 1e5, 700).tolist(), *range(1, 120),
              *(k + 1e-9 for k in (1, 49, 50, 98, 99, 1000)), 5e-324, 1e-320, 2.0**-1060]
        for x in xs:
            def holds(k):
                return _log_bessel_bound(k, x) < _LOG_NEGLIGIBLE

            lo = max(1, math.ceil(x))
            assert holds(max(lo, 2 * math.ceil(x), 99)), x
            assert _bessel_start(x) == doubling_least(holds, lo) - 1, x

    def test_smallest_admissible_order(self):
        ts = [0.0, 5e-324, *np.geomspace(1e-12, 1e9, 700).tolist(), *range(1, 120),
              *(k + 0.5 for k in range(60))]
        for t in ts:
            def holds(n):
                return order_admissible(n, t)

            lo = max(1, math.floor(t) + 1)
            assert holds(max(lo, math.ceil(math.e**2 * t))), t
            assert smallest_admissible_order(t) == doubling_least(holds, lo), t

    def test_search_from_a_guess_matches_bisection(self):
        # Every answer in and around [lo, hi], from every guess in and
        # around it: the same n as _least, None included, and each n
        # probed at most once.
        for lo, hi in ((0, 0), (3, 4), (-5, 20), (10, 41)):
            for answer in range(lo - 2, hi + 3):
                for guess in range(lo - 3, hi + 4):
                    probed = []

                    def holds(n):
                        probed.append(n)
                        return n >= answer

                    want = _least(lambda n: n >= answer, lo, hi)
                    assert _least_from(holds, guess, lo, hi) == want, (lo, hi, answer, guess)
                    assert len(probed) == len(set(probed))


class TestBesselTable:
    @pytest.mark.parametrize("t, n", TABLE_CASES)
    def test_against_a_30_digit_oracle(self, t, n):
        # Orders through the transition k ~ 2t, where J_k turns from
        # oscillation to decay, plus the ends; jv is 1.2e-14 off at
        # (400, 3440) on these orders.
        x = 2.0 * t
        table = _bessel_table(n, x)
        mid = round(x)
        orders = {0, 1, 2, n, *range(0, min(n, mid), max(1, mid // 12)),
                  *(k for k in range(mid - 40, mid + 120, 5) if 0 <= k <= n)}
        with mpmath.workdps(30):
            for k in sorted(orders):
                got = table[k] if k < len(table) else 0.0
                assert abs(got - float(mpmath.besselj(k, x))) <= 1e-15, k

    def test_start_depends_on_the_argument_alone(self):
        # A short table is a prefix of a long one, bit for bit; beyond the
        # start order every J_k is below 2^-64.
        x = 16.0
        start = _bessel_start(x)
        short, long = _bessel_table(30, x), _bessel_table(5000, x)
        assert len(short) == 31 and len(long) == start + 1
        assert short.tobytes() == long[:31].tobytes()
        with mpmath.workdps(30):
            assert 0.0 < mpmath.besselj(start + 1, x) < 2.0**-64

    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-100, 2.0**-63, 1e-8, 0.01, 0.3])
    def test_small_arguments(self, x):
        # Down to the least subnormal and 0, where the table is [1] and
        # the dropped J_1(x) = x/2 is below 2^-64.
        table = np.zeros(6)
        short = _bessel_table(5, x)
        table[: len(short)] = short
        with mpmath.workdps(30):
            for k in range(6):
                assert abs(table[k] - float(mpmath.besselj(k, x))) <= 2.0**-64 + 1e-16, k

    @pytest.mark.parametrize("call", [lambda: bessel_j(0, math.inf), lambda: bessel_j(0, math.nan),
                                      lambda: p_poly(4, math.nan), lambda: p_poly(4, 1e308)])
    def test_refuses_arguments_without_a_finite_table(self, call):
        with pytest.raises(ValidationError):
            call()


class TestDelta:
    def test_formula_moderate_orders(self):
        for n, t in ((10, 1.0), (20, 2.0), (5, 0.5)):
            direct = t**n * math.exp(t) / math.factorial(n)
            assert abs(delta_nt(n, t) - direct) <= 1e-12 * direct

    def test_t_zero(self):
        assert delta_nt(0, 0.0) == 1.0
        assert delta_nt(3, 0.0) == 0.0

    def test_extreme_order_underflow_free(self):
        assert 0.0 < delta_nt(40, 4.0) < 1e-22

    def test_saturates_instead_of_overflowing(self):
        # e^700 t^8 / 8! is about 1e341.
        assert delta_nt(8, 700.0) == math.inf
        assert delta_nt(2000, 700.0) > 1.0

    @pytest.mark.parametrize("n", [3 * 10**305, 10**400])
    def test_past_the_lgamma_range(self, n):
        # lgamma(n + 1) overflows at 3e305, and 10**400 is beyond a double;
        # both raised OverflowError.  delta_{n,1} underflows at both.
        assert delta_nt(n, 1.0) == 0.0
        assert order_admissible(n, 1.0)
        assert s_bound(n, 1.0, 0.5) == 0.0
        assert tail_bound(n, 1.0, 0.5) == 0.0
        assert SolveParams(N=n // 2, eps=1e-6, eta=0.5, t=1.0).n == n // 2 * 2

    def test_stirling_bounds_delta_from_above(self):
        # Where lgamma is in range the bound is above the log of delta, by
        # at most Stirling's 1/(12 n) plus the rounding of sums of terms of
        # size n log n; where e t / (n r) is not below 1 it is +inf.
        for n, t in ((10, 1.0), (4000, 800.0), (10**6, 3.0), (2 * 10**305, 1e300)):
            exact = _log_delta_nt(n, t)
            bound = _log_delta_stirling(n, t, 0.0)
            rounding = 1e-15 * n * math.log(n)
            assert exact - rounding <= bound <= exact + 1.0 / (12 * n) + rounding
        assert _log_delta_stirling(10**308, 5e307, 0.0) == math.inf
        assert tail_bound(10**308, 5e307, 0.9) == math.inf

    @settings(max_examples=50)
    @given(st.integers(1, 60), st.floats(0.01, 8.0))
    def test_monotone_in_n_beyond_t(self, n, t):
        if n > t:
            assert delta_nt(n + 1, t) <= delta_nt(n, t) * (1 + 1e-12)


class TestPPoly:
    def test_zero_time_is_one(self):
        assert p_poly(8, 0.0) == LaurentPoly(0, [1.0])

    def test_coefficient_symmetry(self):
        p = p_poly(9, 0.8)
        for k in range(10):
            assert abs(p.coefficient(k) - p.coefficient(-k)) <= 1e-16

    def test_order_eight_half_time_within_delta(self):
        p = p_poly(8, 0.5)
        err = np.max(np.abs(lp_eval_grid(p, EXP_GRID) - exp_multiplier(0.5, EXP_GRID)))
        assert err <= delta_nt(8, 0.5)

    def test_coefficients_match_fft_of_exponential(self):
        # Fourier coefficients of e^{it(z + 1/z)} on a wide grid are
        # i^k J_k(2t); the truncation P keeps |k| <= n of them.
        t = 0.9
        m = 512
        g = CircleGrid(m)
        samples = exp_multiplier(t, g)
        fourier = np.fft.fft(samples) / m
        p = p_poly(12, t)
        for k in range(-12, 13):
            assert abs(p.coefficient(k) - fourier[k % m]) <= 1e-14


    @pytest.mark.parametrize("t", [0.0, 0.1, 0.5, 3.3, 6.0, 20.0, 49.0])
    def test_matches_the_power_loop_to_order_100(self, t):
        # 1j**k is exact for k <= 100, where Python multiplies it out.
        j = [bessel_j(k, 2.0 * t) for k in range(101)]
        for n in range(max(1, math.floor(t) + 1), 101):
            loop = np.zeros(2 * n + 1, dtype=np.complex128)
            for k, j_k in enumerate(j[: n + 1]):
                loop[n + k] = loop[n - k] = 1j**k * j_k
            p, ref = p_poly(n, t), LaurentPoly(-n, loop)
            assert p.min_deg == ref.min_deg and p.coeffs.tobytes() == ref.coeffs.tobytes()

    def test_powers_of_i_exact_past_order_100(self):
        # i^k J_k is real or imaginary; 1j**101 is (4.4e-15+1j), which left a
        # real part of 3.4e-16 at k = 101 here.
        p = p_poly(300, 50.0)
        assert np.all((p.coeffs.real == 0.0) | (p.coeffs.imag == 0.0))
        c = p.coefficient(101)
        assert c.real == 0.0 and c.imag == bessel_j(101, 100.0) != 0.0


class TestGBundle:
    def test_rejects_order_one_at_time_one(self):
        with pytest.raises(ValidationError) as err:
            g_bundle(1, 1.0)
        assert "smallest admissible n is 3" in str(err.value)

    def test_smallest_admissible_order(self):
        assert smallest_admissible_order(1.0) == 3
        assert delta_nt(3, 1.0) < 1.0 <= delta_nt(2, 1.0)

    @pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 7.5, 40.0, 300.0, 700.0, 1e9])
    def test_smallest_admissible_order_is_least(self, t):
        n = smallest_admissible_order(t)
        assert n > t and delta_nt(n, t) < 1.0
        assert n - 1 <= t or delta_nt(n - 1, t) >= 1.0

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.5, 12.0])
    def test_one_admissibility_rule(self, t):
        # g_bundle, SolveParams and smallest_admissible_order all take
        # order_admissible's verdict, n > t and delta_{n,t} < 1.
        least = smallest_admissible_order(t)
        for n in range(1, 41):
            admissible = n > t and delta_nt(n, t) < 1.0
            assert order_admissible(n, t) == admissible == (n >= least)
            if admissible:
                assert g_bundle(n, t).n == n
            else:
                with pytest.raises(ValidationError, match=f"smallest admissible n is {least}$"):
                    g_bundle(n, t)
            if n % 2 == 0 and n >= 10:
                if admissible:
                    assert SolveParams(N=n // 2, eps=1e-6, eta=0.5, t=t).n == n
                else:
                    with pytest.raises(ValidationError, match="n > t and delta"):
                        SolveParams(N=n // 2, eps=1e-6, eta=0.5, t=t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_refuses_a_time_with_no_admissible_order(self, t):
        # floor(inf) raised OverflowError while the refusal named the least
        # admissible order; NaN reached p_poly.
        with pytest.raises(ValidationError, match="g_bundle requires a finite t >= 0"):
            g_bundle(10, t)

    def test_builds_at_long_times(self):
        # t 1 200 with the order of a long window solve: the float64
        # coefficients keep the peak within 1 - delta^2 + 1e-12.
        assert g_bundle(15366, 1200.0).n == 15366

    def test_check_grid(self):
        assert [bundle_grid_size(n) for n in (1, 16, 17, 15366)] == [64, 64, 128, 65536]

    def test_order_ten_time_one(self):
        b = g_bundle(10, 1.0)
        assert abs(b.delta - math.e / math.factorial(10)) <= 1e-12 * b.delta
        peak = np.max(np.abs(lp_eval_grid(b.g, CircleGrid(64))))
        assert peak < 1.0

    def test_degree_is_twice_order(self):
        for n, t in ((5, 1.0), (12, 2.5)):
            b = g_bundle(n, t)
            assert b.g.min_deg == 0 and b.g.max_deg == 2 * n

    def test_bundle_invariant_rejects_large_peak(self):
        with pytest.raises(ValidationError):
            MultiplierBundle(1, 1.0, monomial(2.0, 1), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_bundle_invariant_rejects_a_non_finite_coefficient(self, bad):
        # Neither has a peak on the circle to compare.
        with pytest.raises(ValidationError, match="requires finite coefficients"):
            MultiplierBundle(4, 0.5, LaurentPoly(0, [0.5, bad]), 0.01)

    def test_schur_class_margin(self):
        for n, t in ((10, 1.0), (16, 2.0)):
            b = g_bundle(n, t)
            grid = CircleGrid(max(64, 8 * n))
            peak = np.max(np.abs(lp_eval_grid(b.g, grid)))
            assert peak <= 1.0 - b.delta**2 + 1e-12


class TestSBound:
    def test_formula(self):
        for n, t, r in ((10, 1.0, 0.5), (6, 0.7, 0.3)):
            want = 6.0 * delta_nt(n, t) * math.exp(t / r)
            assert abs(s_bound(n, t, r) - want) <= 1e-15 * want

    def test_pinned_value(self):
        assert abs(s_bound(10, 1.0, 0.5) - 3.3210213166646324e-05) <= 1e-12 * 3.3e-5

    def test_no_overflow_where_delta_underflows(self):
        # e^{t/r} = e^1600 alone overflows a double; the bound does not.
        got = s_bound(4000, 800.0, 0.5)
        with mpmath.workdps(30):
            want = 6 * mpmath.mpf(800) ** 4000 * mpmath.exp(2400) / mpmath.factorial(4000)
        assert abs(got - float(want)) <= 1e-10 * float(want)
        assert got < 1e-15

    def test_increment_bound_empirical(self):
        # max over the r-circle of |G_{n+1,t} - z G_{n,t}| <= S_n(t,r)
        n, t, r = 12, 1.0, 0.5
        g_n = g_bundle(n, t).g
        g_n1 = g_bundle(n + 1, t).g
        grid = CircleGrid(512, r)
        diff = lp_eval_grid(g_n1, grid) - grid.nodes * lp_eval_grid(g_n, grid)
        assert np.max(np.abs(diff)) <= s_bound(n, t, r)


class TestTailBound:
    def test_dominates_partial_sums(self):
        n, t, r = 10, 1.0, 0.5
        partial = sum(s_bound(k, t, r) * r ** (-k) for k in range(n, n + 31))
        assert partial <= tail_bound(n, t, r)

    def test_near_unit_radius_limit(self):
        n, t = 10, 1.0
        r = 1.0 - 1e-9
        want = 6.0 * delta_nt(n, t) * math.exp(2.0 * t)
        assert abs(tail_bound(n, t, r) - want) <= 1e-6 * want

    def test_saturates_instead_of_overflowing(self):
        # r^-n = 2^4000 and e^{2t/r} = e^3200 overflow a double: the bound
        # is +inf.  At (2000, 1, 1/2) 2^2000 alone overflows, but the bound
        # is e^-11813, which underflows to 0.
        assert tail_bound(4000, 800.0, 0.5) == math.inf
        assert tail_bound(2000, 1.0, 0.5) == 0.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            tail_bound(10, 1.0, 1.0)
        with pytest.raises(ValidationError):
            tail_bound(1, 2.0, 0.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(4, 24), st.floats(0.05, 3.0))
def test_generating_function_fidelity(n, t):
    if delta_nt(n, t) >= 1.0 or n <= t:
        return
    g = CircleGrid(4 * n)
    err = np.max(np.abs(lp_eval_grid(p_poly(n, t), g) - exp_multiplier(t, g)))
    # double-precision evaluation noise floor sits near 1e-15 e^t
    assert err <= delta_nt(n, t) + 1e-13
