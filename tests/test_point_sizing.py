"""Point-solve window sized from the datum's support.

With the support known, select_params takes the least half-width M that
covers it and brings the multiplier-truncation bound under eps; the
localization term is then exactly 0 because the windowed datum is the
datum.  Without cover it falls back to the closed form and its budget.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import al_ist.schur as schur
import al_ist.solver as solver
from al_ist.errors import InfeasibleParamsError
from al_ist.multiplier import _bessel_start, delta_nt
from al_ist.reference import rk4_integrate
from al_ist.sequence import Sequence
from al_ist.solver import (
    ErrorBudget,
    N_HARD_CAP,
    localization_bound,
    select_params,
    solve_point,
    solve_window_detailed,
    t3_bound,
)

from strategies import disk_values
from test_point_oracle import point_oracle


def uniform_datum(lo, hi, eta):
    """Sites lo..hi of equal modulus, phases spread, Szego product eta."""
    count = hi - lo + 1
    modulus = math.sqrt(1.0 - eta ** (1.0 / count))
    phases = np.exp(2j * np.arange(count))
    return Sequence(lo, modulus * phases)


def least_covering_half_width(eta, t, eps, radius):
    """The least admissible M >= max(5, radius) by linear scan."""
    M = max(5, radius)
    while not (2 * M > t and delta_nt(2 * M, t) < 1.0 and t3_bound(eta, t, 2 * M, M) <= eps):
        M += 1
    return M


@st.composite
def point_jobs(draw):
    lo = draw(st.integers(-6, 6))
    values = draw(st.lists(disk_values(0.6, allow_zero=False), min_size=1, max_size=6))
    datum = Sequence(lo, np.asarray(values, dtype=np.complex128))
    hi = lo + len(values) - 1
    n0 = draw(st.integers(lo - 8, hi + 8))  # inside and outside the support
    t = draw(st.floats(0.0, 8.0)) * draw(st.sampled_from((1.0, -1.0)))
    eps = draw(st.sampled_from((1e-6, 1e-10)))
    return datum, n0, t, eps


@settings(max_examples=12, deadline=None)
@given(point_jobs())
def test_support_sized_point_solve_is_certified(job):
    datum, n0, t, eps = job
    eta = datum.szego_product()
    sized = select_params(t, eps, eta, n0, support=datum.support())
    assert sized.N <= select_params(t, eps, eta, n0).N
    value, budget = solve_point(datum, t, n0, eps)
    assert budget.total <= eps
    h = 2e-3
    coarse = rk4_integrate(datum, t, h)
    fine = rk4_integrate(datum, t, h / 2.0)
    richardson = abs(coarse.q.at(n0) - fine.q.at(n0)) / 15.0 + 1e-12
    assert abs(value - fine.q.at(n0)) <= eps + richardson


@pytest.mark.parametrize(
    "lo, hi, n0, t, eps",
    [(-6, 6, 0, 0.5, 1e-6), (-6, 6, 12, 6.0, 1e-10), (0, 3, -9, 2.0, 1e-10), (2, 2, 2, 0.0, 1e-6)],
)
def test_bisection_finds_least_covering_half_width(lo, hi, n0, t, eps):
    eta = 0.3
    params = select_params(t, eps, eta, n0, support=(lo, hi))
    radius = max(n0 - lo, hi - n0)
    assert params.N == least_covering_half_width(eta, t, eps, radius)
    assert params.covers_support


def test_covered_support_has_zero_localization():
    datum = uniform_datum(-6, 6, 0.22)
    value, budget = solve_point(datum, 2.0, 12, 1e-6)
    assert budget.localization == 0.0
    assert 0.0 < budget.truncation <= 1e-6


def test_support_wider_than_closed_form_keeps_todays_params_and_budget():
    # Two weak sites 400 apart: the closed form (eta near 1) is far
    # narrower than the support radius, so nothing changes.
    datum = Sequence(0, np.r_[0.05, np.zeros(399), 0.05j])
    eta = datum.szego_product()
    t, eps, n0 = 0.5, 1e-6, 0
    today = select_params(t, eps, eta, n0)
    sized = select_params(t, eps, eta, n0, support=datum.support())
    assert today.N < 400
    assert (sized.N, sized.n) == (today.N, today.n)
    assert not sized.covers_support
    _, budget = solve_point(datum, t, n0, eps)
    expected = ErrorBudget(
        localization_bound(eta, 0.5, t, today.N, 0), t3_bound(eta, t, today.n, today.N)
    )
    assert (budget.localization, budget.truncation) == (expected.localization, expected.truncation)
    assert budget.total <= eps


def test_low_eta_late_time_window_stays_small():
    datum = uniform_datum(-6, 6, 0.05)
    eta = datum.szego_product()
    assert select_params(6.0, 1e-10, eta, 0).N == 3152
    assert select_params(6.0, 1e-10, eta, 0, support=datum.support()).N <= 400
    _, budget = solve_point(datum, 6.0, 0, 1e-10)
    assert budget.total <= 1e-10


def test_covering_window_lifts_the_closed_form_cap():
    # eta = 2e-4 puts the closed form beyond N_HARD_CAP; the truncation
    # bound alone falls under eps well below the cap.
    eta, eps, t = 2e-4, 1e-10, 0.5
    with pytest.raises(InfeasibleParamsError):
        select_params(t, eps, eta)
    params = select_params(t, eps, eta, 0, support=(-1, 1))
    assert params.N < N_HARD_CAP
    assert t3_bound(eta, t, params.n, params.N) <= eps


def test_subnormal_time_has_zero_truncation_bound():
    # 2 e t / n underflows to 0 at t = 5e-324; its log used to raise.
    datum = Sequence(0, np.array([0.5]))
    value, budget = solve_point(datum, 5e-324, 0, 1e-6)
    assert budget.total == 0.0
    assert abs(value - 0.5) <= 1e-6



@pytest.mark.parametrize(
    "eta, t, n0, eps, pinned",
    [
        (0.6, 0.5, 0, 1e-10, ("0x1.c8d924080d590p-4", "-0x1.4ad09d0b08718p-3",
                              "0x0.0p+0", "0x1.98f660c13c10cp-36")),
        (0.11, 2.0, 0, 1e-6, ("-0x1.3906d226f0218p-3", "-0x1.74c88a010cc98p-2",
                              "0x0.0p+0", "0x1.35aef61b14e00p-28")),
        (0.05, 6.0, 0, 1e-10, ("0x1.bbad5741ebd3bp-4", "-0x1.2fcb7e3028d83p-5",
                               "0x0.0p+0", "0x1.4d5d8489cc190p-38")),
        # n0 outside the support [-6, 6], right of it: the pass runs on the
        # datum mirrored about n0
        (0.22, 2.0, 12, 1e-10, ("-0x1.a66b0d1475015p-8", "0x1.4a5bb6094c2c2p-6",
                                "0x0.0p+0", "0x1.1ab03f459446cp-41")),
    ],
)
@pytest.mark.bitpin
def test_point_values_are_pinned(eta, t, n0, eps, pinned):
    # Value and budget bits of four point solves, computed with every Schur
    # step run from index 0; skipping f0's leading zeros must not move them.
    # Each value is first held to the 50-digit oracle of its pass.  The hex
    # pins hold for numpy 2.4.6 with its AVX2/AVX-512 kernels on x86-64, as
    # constraints.txt pins it; other kernels can move last bits.
    datum = uniform_datum(-6, 6, eta)
    value, budget = solve_point(datum, t, n0, eps)
    assert abs(value - point_oracle(datum, t, n0, eps)) <= 1e-14
    got = (value.real, value.imag, budget.localization, budget.truncation)
    assert tuple(float.hex(x) for x in got) == pinned


def test_point_pass_starts_past_the_multiplier_zero_band(monkeypatch):
    # f0's numerator starts at z^(n - M + N - 6): M = _bessel_start(2t) is
    # the last order at which the multiplier stores a nonzero J_k(2t), and
    # the datum's first site -6 sits at N - 6 in the shifted window.  Of
    # the n + N + 1 = 1156 steps of this pass the kernel runs the last
    # M + 1 + (n0 - (-6)) = 50.  A point pass runs from the datum's nearer
    # end, M + 1 + min(n0 - lo, hi - n0) steps: 38 at n0 = 12, where the
    # pass runs on the datum mirrored about n0, and at n0 = -12.
    steps = []
    recur = schur._recur

    def recording(p, q, count, gammas):
        steps.append(count)
        return recur(p, q, count, gammas)

    monkeypatch.setattr(schur, "_recur", recording)
    for n0 in (0, 12, -12):
        solve_point(uniform_datum(-6, 6, 0.05), 6.0, n0, 1e-10)
    assert _bessel_start(12.0) == 43
    assert steps == [50, 38, 38]


def test_zero_band_skip_fires_on_every_benchmark_pass(monkeypatch):
    # schur_coeffs skips f0's leading zero gammas only when no part of num
    # or den is -0 (schur._shifts_exactly); otherwise it falls back to
    # running every step, correctly but without a word.  The multiplier's
    # powers of i carry -0 parts and np.convolve products of them could
    # too, so check that no point or compare pass of the benchmark data,
    # at t and -t, and no pass over a real datum falls back, and that the
    # kernel runs exactly the steps its PassPlan names (run_steps).
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import jobs

    results, runs, planned = [], [], []
    shifts_exactly, recur, schur_pass = schur._shifts_exactly, schur._recur, solver._schur_pass

    def spy(p):
        results.append(shifts_exactly(p))
        return results[-1]

    def recording(p, q, count, gammas):
        out = recur(p, q, count, gammas)
        runs.append(out[0])
        return out

    def planning(q0, t, plan):
        planned.append(plan.run_steps)
        return schur_pass(q0, t, plan)

    monkeypatch.setattr(schur, "_shifts_exactly", spy)
    monkeypatch.setattr(schur, "_recur", recording)
    monkeypatch.setattr(solver, "_schur_pass", planning)
    for seed in range(1, 21):
        for workload, solve in (("point", solve_point), ("compare", solve_window_detailed)):
            data, round_ = jobs.build(workload, seed)
            for job in round_:
                for sign in (1.0, -1.0):
                    solve(data[job["datum"]], sign * job["t"], job["n0"], job["eps"])
    assert len(results) == 2 * 880 and all(results)
    real = Sequence(-3, np.array([0.3, -0.5, 0.0, 0.2, 0.45, -0.1, 0.25]))
    for t in (0.5, 2.0, 6.0):
        solve_point(real, t, 0, 1e-10)
        solve_window_detailed(real, t, 1, 1e-8)
    assert len(results) == 2 * 886 and all(results)
    # The seed-1 point datum at eta 0.002, t 6: N = 8 890, 26 671 counted
    # steps, of which the kernel runs 50.
    low_eta = jobs.scaled_to_eta(jobs.build("point", 1)[0][0], 0.002)
    solve_point(low_eta, 6.0, 0, 1e-10)
    assert runs[-1] == 50
    # A window that misses the datum: a zero numerator, and no step runs.
    far = Sequence(0, np.array([math.sqrt(0.998)]))
    window, _, _ = solve_window_detailed(far, 2.0, 10_000, 1e-10)
    assert runs[-1] == 0 and not np.any(window.values)
    assert len(results) == 2 * 888 and all(results)
    assert runs == planned and len(runs) == 888


def test_over_cap_solve_builds_no_window(monkeypatch):
    # The cap is refused from the PassPlan, before the datum is conjugated,
    # windowed or transformed.
    def refuse(*args):
        raise AssertionError("the pass started before the cap refused it")

    for owner, attr in ((Sequence, "conjugated"), (Sequence, "windowed"), (solver, "nlft_forward")):
        monkeypatch.setattr(owner, attr, refuse)
    with pytest.raises(InfeasibleParamsError, match="W=69033 needs 207100 steps"):
        solve_point(uniform_datum(-1, 1, 2e-4), -0.5, 0, 1e-10)
    with pytest.raises(InfeasibleParamsError, match="half-width W=13452 needs 44841 steps"):
        solve_window_detailed(Sequence(0, np.array([math.sqrt(0.999)])), -0.5, 0, 1e-10)


def test_refuses_a_schur_pass_above_the_work_cap():
    # At the datum's own Szego product, about 2e-4, N = 69,033 would need
    # 207,100 Schur steps, about 2.1e10 updates; a point pass runs at
    # half-width W = N.
    datum = uniform_datum(-1, 1, 2e-4)
    assert datum.szego_product() == pytest.approx(2e-4)
    start = time.perf_counter()
    with pytest.raises(InfeasibleParamsError, match="W=69033 needs 207100 steps"):
        solve_point(datum, 0.5, 0, 1e-10)
    assert time.perf_counter() - start < 1.0


def test_work_cap_refusal_names_the_widened_half_width():
    # The window solve picks N = 8968 here; its pass runs over the widened
    # half-width W = N + floor(N/2) = 13452, which is what the refusal names.
    datum = Sequence(0, np.array([math.sqrt(0.999)]))
    with pytest.raises(InfeasibleParamsError, match="half-width W=13452 needs 44841 steps"):
        solve_window_detailed(datum, 0.5, 0, 1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the point budget leaves float64 roundoff out, so it "
    "is exactly 0 here while the value is 1.6e-15 from RK4",
)
def test_covered_support_budget_holds_against_rk4():
    values = np.zeros(401, dtype=np.complex128)
    values[[0, 200, 400]] = [0.5, 0.6j, 0.5]
    datum = Sequence(-200, values)
    value, budget = solve_point(datum, 0.5, 0, 1e-6)
    ref = rk4_integrate(datum, 0.5, 5e-4).q.at(0)
    assert abs(value - ref) <= budget.total
