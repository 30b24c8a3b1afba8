"""Certified solve pipeline: parameter selection, bounds, point and window."""

import math
from dataclasses import replace

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
    POINT,
    WINDOW,
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

    @pytest.mark.parametrize("sites", [60, 1100])
    def test_refuses_a_datum_whose_szego_product_is_too_small(self, sites, monkeypatch):
        # |q|^2 = 0.5 at every site: eta 2^-60 makes 1 - sqrt(1 - eta) 0.0,
        # and at 1 100 sites eta underflows to 0.0.  Refused before any pass.
        monkeypatch.setattr(solver, "_schur_pass", None)
        datum = seq(0, math.sqrt(0.5) * np.exp(1j * np.arange(sites)))
        assert (datum.szego_product() == 0.0) == (sites == 1100)
        for solve in (solve_point, solve_window):
            with pytest.raises(InfeasibleParamsError, match="Szego product .* is too small"):
                solve(datum, 1.0, 0, 1e-6)

    def test_refuses_a_time_without_a_finite_window(self):
        # 4 e |t| overflows above about 1.6e307; floor(inf) raised OverflowError.
        for t in (1e308, -1e308):
            with pytest.raises(InfeasibleParamsError, match="no finite certified window"):
                select_params(t, 1e-6, 0.5)
            with pytest.raises(InfeasibleParamsError, match="no finite certified window"):
                solve_point(Sequence(0, np.array([0.5])), t, 0, 1e-6)

    def test_params_invariants_enforced(self):
        with pytest.raises(ValidationError):
            SolveParams(N=4, eps=1e-3, eta=0.9, t=1.0)

    def test_multiplier_order_is_derived(self):
        p = SolveParams(N=7, eps=1e-3, eta=0.9, t=1.0)
        assert p.n == 2 * p.N == 14
        with pytest.raises(TypeError):
            SolveParams(N=7, n=14, eps=1e-3, eta=0.9, t=1.0)


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


def signed_parts(z):
    """float.hex of the real and imaginary parts, signed zeros told apart."""
    return (float(z.real).hex(), float(z.imag).hex())


class TestZeroDatum:
    """Both solvers share one zero branch, after parameter selection and
    before time reversal; the pins below were taken before they did."""

    @pytest.mark.parametrize("datum", [Sequence(0, []), seq(0, [0.0, 0.0])])
    @pytest.mark.parametrize("t", [1.0, -1.0])
    def test_results_are_pinned(self, datum, t):
        # A negative t conjugates the zero window: every entry is 0-0j.
        # The point value is the window's centre entry, so it is 0-0j too.
        zero = ("0x0.0p+0", "-0x0.0p+0" if t < 0 else "0x0.0p+0")
        value, budget = solve_point(datum, t, 2, 1e-6)
        assert signed_parts(value) == zero
        assert (budget.localization, budget.truncation) == (0.0, 0.0)
        win, budgets, params = solve_window_detailed(datum, t, 2, 1e-6)
        assert params.N == 11 and params.reflect == (t < 0)
        assert win.offset == -3 and [signed_parts(v) for v in win.values] == [zero] * 11
        assert budgets.tobytes() == np.zeros(11).tobytes()

    @pytest.mark.parametrize("eps", [2.0, 1.0, 0.0, -1e-6, math.nan])
    @pytest.mark.parametrize("solve", [solve_point, solve_window_detailed])
    def test_refuses_eps_outside_unit_interval(self, solve, eps):
        with pytest.raises(ValidationError, match="eps must lie in"):
            solve(Sequence(0, []), 1.0, 0, eps)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("solve", [solve_point, solve_window_detailed])
    def test_refuses_non_finite_time(self, solve, t):
        with pytest.raises(InfeasibleParamsError, match="no finite certified window"):
            solve(Sequence(0, []), t, 0, 1e-6)


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

    def test_solvers_take_eta_from_the_datum_only(self):
        q0 = random_sequence(seed=303, count=4, lo=-2, hi=3, max_modulus=0.5)
        for solve in (solve_point, solve_window, solve_window_detailed):
            with pytest.raises(TypeError):
                solve(q0, 0.5, 0, 1e-6, eta=0.5)
        _, _, params = solve_window_detailed(q0, 0.5, 0, 1e-6)
        assert params.eta == q0.szego_product()

    def test_rejects_boundary_modulus(self):
        with pytest.raises(ValidationError):
            seq(0, [1.0])


def hexes(xs):
    return [float(x).hex() for x in xs]


DENSE = random_sequence(seed=405, count=5, lo=-3, hi=4, max_modulus=0.5)
WIDE = seq(0, np.r_[0.05, np.zeros(399), 0.05j])  # support wider than its closed form


@pytest.mark.parametrize(
    "datum, shape, t, covered",
    [(DENSE, POINT, 0.5, True), (WIDE, POINT, 0.5, False), (DENSE, WINDOW, 0.5, False),
     (DENSE, POINT, -0.5, True), (WIDE, POINT, -0.5, False), (DENSE, WINDOW, -2.0, False),
     (Sequence(0, []), POINT, 0.5, False), (Sequence(0, []), WINDOW, -0.5, False)],
    ids=["point-covers", "point-misses", "window", "point-covers-negative-t",
         "point-misses-negative-t", "window-negative-t", "point-zero", "window-zero"],
)
def test_plan_terms_are_the_entry_budgets(datum, shape, t, covered):
    # The plan takes each emitted entry's two budget terms once: POINT's
    # localization of 0 only where its window covers the support, the term
    # at r on any other pass, bit for bit window_entry_budget's; the solvers
    # return exactly those.  A point pass is the window pass at half-width
    # 0 (W = N) with select_params' parameters.  The zero datum runs no
    # pass and its terms are all 0; its params record no support, so
    # window_entry_budget cannot tell it from a datum the window misses.
    p = solver.plan(datum, t, 0, 1e-8, shape)
    assert p.params.covers_support == covered
    offsets = range(-p.half, p.half + 1)
    if datum.is_zero:
        want = [(0.0, 0.0)] * len(offsets)
    else:
        budgets = [window_entry_budget(p.params, p.W, s) for s in offsets]
        want = [(b.localization, b.truncation) for b in budgets]
    assert (hexes(p.localization), hexes(p.truncation)) == tuple(hexes(w) for w in zip(*want))
    assert (max(p.localization) == 0.0) == (covered or datum.is_zero)
    if shape is POINT:
        assert p.params == select_params(t, 1e-8, datum.szego_product(), 0, datum.support())
        _, budget = solve_point(datum, t, 0, 1e-8)
        assert hexes([budget.localization, budget.truncation]) == hexes(want[0])
    else:
        _, budgets, params = solve_window_detailed(datum, t, 0, 1e-8)
        assert params == p.params
        assert hexes(budgets) == hexes(loc + trunc for loc, trunc in want)


class TestQueryIndex:
    def test_j_equals_n_maps_to_center(self):
        """The shift sends the query site n0 to index W, so the value lives
        at recurrence index n + W, n = 2W; index n + W + 1 is the site n0 + 1."""
        q0 = seq(0, [0.4])
        t = 1.0
        # The window pass over W = N + half: order 2W, sites -half .. half.
        plan = solver.plan(q0, t, 0, 1e-6, WINDOW)
        N, half, W, n = plan.params.N, plan.half, plan.W, plan.order
        assert (W, n, plan.steps, plan.first) == (N + half, 2 * W, n + W + half + 1, n + W - half)
        gammas = _schur_pass(plan)
        ref = rk4_integrate(q0, t, 1e-3, radius=60)
        dev_center = abs(gammas[n + W] - ref.q.at(0))
        dev_next_as_center = abs(gammas[n + W + 1] - ref.q.at(0))
        dev_next_as_next = abs(gammas[n + W + 1] - ref.q.at(1))
        assert dev_center <= 1e-8
        assert dev_next_as_next <= 1e-8
        assert dev_next_as_center > 1e3 * max(dev_center, 1e-12)


class TestPassSource:
    """plan.source is the sequence the pass transforms, before its shift."""

    @pytest.mark.parametrize("solve, shape, datum, t, n0, eps", [
        # Real values, so conjugating writes -0 imaginary parts.
        (solve_point, POINT, seq(-3, [0.3, -0.5, 0.0, 0.2, 0.45, -0.1, 0.25]), 2.0, 2, 1e-10),
        (solve_point, POINT, seq(-3, [0.3, -0.5, 0.0, 0.2, 0.45, -0.1, 0.25]), -2.0, 2, 1e-10),
        (solve_window_detailed, WINDOW, seq(-1, [0.3 - 0.2j, 0.1, -0.4j]), -0.5, 1, 1e-6),
        (solve_window_detailed, WINDOW, seq(0, [math.sqrt(0.998)]), 2.0, 10_000, 1e-10),
    ], ids=["point mirrored", "point mirrored negative t", "window negative t",
            "window missing the datum"])
    def test_the_transform_gets_the_shifted_source(self, solve, shape, datum, t, n0, eps,
                                                   monkeypatch):
        got = []
        transform = solver.nlft_forward

        def spy(q):
            got.append(q)
            return transform(q)

        monkeypatch.setattr(solver, "nlft_forward", spy)
        solve(datum, t, n0, eps)
        p = solver.plan(datum, t, n0, eps, shape)
        want = p.source.shifted(p.W - n0)
        assert len(got) == 1 and got[0].offset == want.offset
        assert got[0].values.view(np.float64).tobytes() == want.values.view(np.float64).tobytes()
        if shape is POINT:
            assert p.source == datum.reflected(n0)
        if t < 0:
            assert np.signbit(p.source.values.imag).any()

    def test_zero_datum_has_no_source_and_no_transform(self, monkeypatch):
        monkeypatch.setattr(solver, "nlft_forward", None)
        for solve, shape in ((solve_point, POINT), (solve_window_detailed, WINDOW)):
            assert solver.plan(seq(0, [0.0]), -1.0, 2, 1e-6, shape).source is None
            solve(seq(0, [0.0]), -1.0, 2, 1e-6)


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
            assert budgets[half + s] == window_entry_budget(params, W, s).total
            assert budgets[half + s] >= budgets[half - s]
        assert budgets.max() == budgets[-1] <= 1e-6

    def test_entry_budget_is_the_two_bounds_and_refuses_outside_the_pass(self):
        params = select_params(2.0, 1e-6, 0.3)
        W = params.N + 4
        for s in (-W, -3, 0, 4, W):
            want = (localization_bound(0.3, 0.5, 2.0, W, s), t3_bound(0.3, 2.0, 2 * W, W + s))
            got = window_entry_budget(params, W, s)
            assert (got.localization, got.truncation) == want
        for W, s in ((params.N, params.N + 1), (params.N, -params.N - 1), (1, 0)):
            with pytest.raises(ValidationError, match=r"\|s\| <= W and 2W > t"):
                window_entry_budget(params, W, s)

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

    def test_reflected_window_is_pinned(self):
        # Values and budgets of a t < 0 window solve, sites -3..3, taken
        # when the window solver still reflected on its own.
        win, budgets, params = solve_window_detailed(seq(0, [0.1]), -0.25, 0, 1e-6)
        assert (params.N, params.reflect, win.offset) == (7, True, -3)
        assert [signed_parts(v) for v in win.values] == [
            ("0x0.0p+0", "0x1.0cd39a606a29fp-12"),
            ("-0x1.912211b853eebp-9", "-0x0.0p+0"),
            ("0x0.0p+0", "-0x1.8cefb9880ce1fp-6"),
            ("0x1.80a256acc438ep-4", "-0x0.0p+0"),
            ("0x0.0p+0", "-0x1.8cefb9880ce1dp-6"),
            ("-0x1.912211b853eebp-9", "-0x0.0p+0"),
            ("0x0.0p+0", "0x1.0cd39a606a29fp-12"),
        ]
        assert [float(b).hex() for b in budgets] == [
            "0x1.ab347f0f18320p-22", "0x1.e500269a650e3p-27", "0x1.134ebc8d9250ap-31",
            "0x1.388da1cf00796p-36", "0x1.134ebc8df80eep-31", "0x1.e500269a74f3fp-27",
            "0x1.ab347f0f193d1p-22",
        ]

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
    point = solver.plan(q0, t, 0, 1e-6, POINT)
    source = point.source.windowed(-W, W)
    prev = None
    for n in range(12, 16):
        plan = replace(point, W=W, order=n, steps=n + W + 1, first=n + W, source=source)
        gammas = _schur_pass(plan)
        value = complex(gammas[n + j])
        if prev is not None:
            bound = 6.0 * c * delta_nt(n - 1, t) * math.exp(4.0 * t) * 2.0 ** (n - 1 + j + 1)
            assert abs(value - prev) <= bound
        prev = value
