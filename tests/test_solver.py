"""Certified solve pipeline: parameter selection, bounds, point and window."""

import math

import numpy as np
import pytest

import al_ist.solver as solver
from al_ist.datagen import random_sequence
from al_ist.errors import InfeasibleParamsError, ValidationError
from al_ist.multiplier import delta_nt
from al_ist.reference import rk4_integrate
from al_ist.schur import stability_constant
from al_ist.sequence import Sequence
from al_ist.solver import (
    SolveParams,
    _schur_pass,
    localization_bound,
    localization_bound_direct,
    select_params,
    solve_point,
    solve_window,
    solve_window_detailed,
    t3_bound,
    window_entry_budget,
)


def seq(offset, values):
    return Sequence(offset, np.asarray(values, dtype=np.complex128))


class TestSelectParams:
    def test_unit_eta_zero_time(self):
        p = select_params(0.0, 0.5, 1.0)
        assert p.N == 6 and p.n == 12

    def test_near_unit_eta_unit_time(self):
        # with C(24/25, 1/2) in [9, 10] the formula lands on N in {28, 29};
        # the computed constant pins N = 29
        p = select_params(1.0, 1e-3, 24.0 / 25.0)
        assert p.N in (28, 29)
        assert p.N == 29

    def test_resulting_delta_below_one(self):
        p = select_params(1.0, 1e-3, 24.0 / 25.0)
        assert delta_nt(p.n, p.t) < 1.0

    def test_negative_time_records_reflection(self):
        p = select_params(-2.0, 1e-4, 0.9)
        assert p.reflect and p.t == 2.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValidationError):
            select_params(1.0, 1.5, 0.9)
        with pytest.raises(ValidationError):
            select_params(1.0, 1e-6, 0.0)

    def test_infeasible_eta_names_the_cap(self):
        with pytest.raises(InfeasibleParamsError):
            select_params(1.0, 1e-6, 1e-8)

    def test_params_invariants_enforced(self):
        with pytest.raises(ValidationError):
            SolveParams(N=6, n=11, eps=1e-3, eta=0.9, t=1.0)
        with pytest.raises(ValidationError):
            SolveParams(N=4, n=8, eps=1e-3, eta=0.9, t=1.0)


class TestBounds:
    def test_localization_plug_constants(self):
        got = localization_bound(1.0, 0.5, 0.0, 7, 7)
        assert abs(got - 8.0) <= 1e-12

    def test_localization_decay_rate(self):
        a = localization_bound(0.9, 0.5, 1.0, 10, 0)
        b = localization_bound(0.9, 0.5, 1.0, 11, 0)
        assert abs(b / a - 0.5) <= 1e-12

    def test_localization_uses_bracketed_constant(self):
        c = stability_constant(24.0 / 25.0, 0.5).value
        got = localization_bound(24.0 / 25.0, 0.5, 1.0, 20, 0)
        want = 4.0 * math.exp(2.0) * c * 0.5**20 / 0.5
        assert abs(got - want) <= 1e-10 * want
        lo = 4.0 * math.exp(2.0) * 9.0 * 0.5**20 / 0.5
        hi = 4.0 * math.exp(2.0) * 10.0 * 0.5**20 / 0.5
        assert lo <= got <= hi

    def test_direct_plug_constants(self):
        got = localization_bound_direct(0.0, 0.5, 9, 9)
        assert abs(got - math.sqrt(2.0) * 0.5 / math.sqrt(0.75)) <= 1e-12

    def test_direct_zero_tail(self):
        assert localization_bound_direct(1.0, 0.5, 10, 0, l2tail=0.0) == 0.0

    def test_direct_tail_formula(self):
        got = localization_bound_direct(0.5, 0.5, 8, 2, l2tail=0.3)
        want = 0.5 * math.exp(10.0 * 0.5 / 0.25) * 0.3 * 0.5**6
        assert abs(got - want) <= 1e-12 * want

    def test_direct_is_tighter_for_small_eta(self):
        # the stability constant explodes as eta -> 0 while the direct
        # route does not depend on eta at all
        direct = localization_bound_direct(1.0, 0.5, 30, 0)
        via_c = localization_bound(0.01, 0.5, 1.0, 30, 0)
        assert direct < via_c

    def test_t3_pinned_value(self):
        got = t3_bound(1.0, 1.0, 30, 0)
        assert abs(got - 7.229358795326228e-21) <= 1e-12 * got

    def test_t3_scales_with_2_to_j(self):
        a = t3_bound(0.9, 1.0, 30, 0)
        b = t3_bound(0.9, 1.0, 30, 8)
        assert abs(b / a - 256.0) <= 1e-9 * 256.0

    def test_t3_monotone_beyond_2et(self):
        t = 1.0
        start = int(2.0 * math.e * t) + 2
        values = [t3_bound(1.0, t, n, 0) for n in range(start, start + 10)]
        assert all(values[i + 1] < values[i] for i in range(9))

    def test_t3_zero_time(self):
        assert t3_bound(1.0, 0.0, 30, 0) == 0.0


class TestSolvePoint:
    def test_zero_datum(self):
        value, budget = solve_point(seq(0, [0.0, 0.0]), 1.0, 0, 1e-6)
        assert value == 0.0 and budget.total == 0.0

    def test_time_zero_recovers_datum(self):
        q0 = random_sequence(seed=101, count=5, lo=-3, hi=4, max_modulus=0.5)
        for n0 in (-3, 0, 2):
            value, budget = solve_point(q0, 0.0, n0, 1e-6)
            assert abs(value - q0.at(n0)) <= 1e-6
            assert budget.total <= 1e-6

    def test_single_site_against_rk4(self):
        q0 = seq(0, [0.4])
        value, budget = solve_point(q0, 1.0, 0, 1e-6)
        ref = rk4_integrate(q0, 1.0, 1e-3, radius=60)
        assert abs(value - ref.q.at(0)) <= 1e-6
        assert budget.total <= 1e-6

    def test_budget_sound_and_below_eps(self):
        for trial in range(4):
            q0 = random_sequence(seed=200 + trial, count=6, lo=-4, hi=5, max_modulus=0.5)
            ref = rk4_integrate(q0, 0.5, 1e-3, radius=60)
            for n0 in (-1, 0, 2):
                value, budget = solve_point(q0, 0.5, n0, 1e-6)
                assert budget.total <= 1e-6
                assert abs(value - ref.q.at(n0)) <= budget.total

    def test_translation_covariance(self):
        q0 = random_sequence(seed=300, count=5, lo=-3, hi=4, max_modulus=0.5)
        base, _ = solve_point(q0, 0.75, 1, 1e-6)
        for s in (-4, 2, 9):
            shifted, _ = solve_point(q0.shifted(s), 0.75, 1 + s, 1e-6)
            assert abs(base - shifted) <= 1e-12

    def test_time_reflection_is_conjugation(self):
        # conj(q) evolved forward and conjugated equals q evolved backward;
        # the negative-time branch is implemented exactly this way
        q0 = random_sequence(seed=301, count=4, lo=-2, hi=3, max_modulus=0.5)
        back, budget_b = solve_point(q0, -0.5, 0, 1e-6)
        fwd, budget_f = solve_point(q0.conjugated(), 0.5, 0, 1e-6)
        assert back == complex(fwd).conjugate()
        assert budget_b.total == budget_f.total

    def test_negative_time_against_rk4(self):
        q0 = random_sequence(seed=302, count=4, lo=-2, hi=3, max_modulus=0.5)
        ref = rk4_integrate(q0, -0.5, 1e-3, radius=40)
        value, budget = solve_point(q0, -0.5, 1, 1e-6)
        assert abs(value - ref.q.at(1)) <= budget.total

    @pytest.mark.parametrize("t", [8.0, 10.0, 12.0])
    def test_late_times_against_rk4(self, t):
        # The multiplier at t >= 8 needs Bessel values accurate to far
        # below delta_{n,t}; an ascending series loses about e^{2t} ulp.
        q0 = seq(0, [0.3, 0.2j])
        value, budget = solve_point(q0, t, 0, 1e-8)
        ref = rk4_integrate(q0, t, 5e-4, radius=120)
        assert budget.total <= 1e-8
        assert abs(value - ref.q.at(0)) <= 1e-8

    def test_eta_override_matches_default(self):
        q0 = random_sequence(seed=303, count=4, lo=-2, hi=3, max_modulus=0.5)
        a, _ = solve_point(q0, 0.5, 0, 1e-6)
        b, _ = solve_point(q0, 0.5, 0, 1e-6, eta=q0.szego_product())
        assert a == b

    def test_rejects_boundary_modulus(self):
        with pytest.raises(ValidationError):
            seq(0, [1.0])


class TestQueryIndex:
    def test_j_equals_n_maps_to_center(self):
        """The shift sends the query site n0 to index N, so the value lives
        at recurrence index n + N; index n + N + 1 is the site n0 + 1."""
        q0 = seq(0, [0.4])
        t = 1.0
        params = select_params(t, 1e-6, q0.szego_product())
        N, n = params.N, params.n
        gammas = _schur_pass(q0, t, 0, N, n, n + N + 2)
        ref = rk4_integrate(q0, t, 1e-3, radius=60)
        dev_center = abs(gammas[n + N] - ref.q.at(0))
        dev_next_as_center = abs(gammas[n + N + 1] - ref.q.at(0))
        dev_next_as_next = abs(gammas[n + N + 1] - ref.q.at(1))
        assert dev_center <= 1e-8
        assert dev_next_as_next <= 1e-8
        assert dev_next_as_center > 1e3 * max(dev_center, 1e-12)


class TestSolveWindow:
    def test_zero_datum(self):
        win = solve_window(seq(0, [0.0]), 1.0, 3, 1e-6)
        assert np.max(np.abs(win.values)) == 0.0

    def test_window_extent_and_budgets(self):
        q0 = random_sequence(seed=400, count=5, lo=-3, hi=4, max_modulus=0.5)
        win, budgets, params = solve_window_detailed(q0, 0.5, 2, 1e-6)
        half = params.N // 2
        assert win.offset == 2 - half and len(win.values) == 2 * half + 1
        assert np.all(budgets <= 1e-6)
        W = params.N + half
        for s in range(half + 1):
            assert budgets[half + s] == window_entry_budget(params, W, s)
            assert budgets[half + s] >= budgets[half - s]
        assert budgets.max() == budgets[-1] <= 1e-6

    def test_one_schur_pass_per_solve(self, monkeypatch):
        calls = {"nlft_forward": 0, "_schur_pass": 0}
        for name in calls:
            original = getattr(solver, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver, name, counted)
        q0 = random_sequence(seed=404, count=5, lo=-3, hi=4, max_modulus=0.5)
        for t in (0.5, -0.5):
            solve_window_detailed(q0, t, 1, 1e-6)
        assert calls == {"nlft_forward": 2, "_schur_pass": 2}

    def test_symmetric_datum_symmetric_output(self):
        values = [0.3 - 0.2j, 0.1 + 0.4j, 0.3 - 0.2j]  # q(-k) = q(k)
        win = solve_window(seq(-1, values), 1.0, 0, 1e-6)
        flipped = win.values[::-1]
        assert np.max(np.abs(win.values - flipped)) <= 1e-9

    def test_against_rk4_over_window(self):
        q0 = random_sequence(seed=401, count=5, lo=-4, hi=4, max_modulus=0.5)
        win, budgets, _ = solve_window_detailed(q0, 0.5, 0, 1e-6)
        ref = rk4_integrate(q0, 0.5, 1e-3, radius=60)
        worst = max(
            abs(v - ref.q.at(win.offset + i)) for i, v in enumerate(win.values)
        )
        assert worst <= 1e-6 + 1e-6

    def test_negative_time_window_against_rk4(self):
        q0 = random_sequence(seed=403, count=4, lo=-2, hi=3, max_modulus=0.5)
        win, budgets, params = solve_window_detailed(q0, -0.5, 0, 1e-6)
        assert params.reflect and params.t == 0.5
        ref = rk4_integrate(q0, -0.5, 1e-3, radius=60)
        worst = max(
            abs(v - ref.q.at(win.offset + i)) for i, v in enumerate(win.values)
        )
        assert worst <= float(np.max(budgets))


def test_convergence_in_multiplier_order():
    """Successive multiplier orders move the answer by at most
    6 C(eta, 1/2) delta_{n,t} e^{4t} 2^{n+j+1}."""
    q0 = random_sequence(seed=500, count=9, lo=-4, hi=4, max_modulus=0.25)
    t, W = 0.5, 4
    eta = q0.szego_product()
    c = stability_constant(eta, 0.5).value
    j = W  # the window shift places the original site 0 at index W
    prev = None
    for n in range(12, 16):
        gammas = _schur_pass(q0, t, 0, W, n, n + W + 1)
        value = complex(gammas[n + j])
        if prev is not None:
            bound = 6.0 * c * delta_nt(n - 1, t) * math.exp(4.0 * t) * 2.0 ** (n - 1 + j + 1)
            assert abs(value - prev) <= bound
        prev = value
