"""Acceptance checklist for the release.

Nine criteria, one test (and one printed PASS/FAIL line) each:

  1. stability-constant brackets at eta in {1/2, 4/5, 24/25}, r = 1/2
  2. sharpness of the L2(rT) stability rate on monomial data
  3. stability inequality on 200 random Szego-class pairs
  4. scattering-multiplier fidelity at (n,t) in {(10,1),(20,2),(40,4)}
  5. NLFT identities on 100 random compactly supported data
  6. end-to-end certified solve vs RK4 on 50 random data
  7. reference-integrator convergence order and conservation
  8. localization of the flow under datum truncation
  9. near-linear scaling of the NLFT product stage

Criterion 4 at the extreme pair (40,4) is unattainable in double precision:
delta_{40,4} = t^n e^t / n! ~ 8.1e-23 lies far below the coefficient roundoff
floor of the degree-80 polynomial (about 1e-14 at the e^t = 55 scale), so the
measured supremum error cannot come down to delta and max|G| lands a hair
above 1.  The two attainable pairs are asserted in one test; the full triple
is kept as a strict expected failure with the measured numbers.

Run with -s to see the checklist lines.
"""

import math
import time

import numpy as np
import pytest

from al_ist.cli import time_nlft
from al_ist.datagen import dense_random_sequence, random_sequence
from al_ist.laurent import CircleGrid, lp_eval_grid
from al_ist.multiplier import g_bundle, p_poly
from al_ist.nlft import (
    nlft_forward,
    nlft_forward_naive,
    shift_check,
    szego_identity_check,
)
from al_ist.reference import LatticeState, conserved_product, rk4_integrate
from al_ist.schur import (
    RationalSchur,
    l2_norm_circle,
    schur_step,
    stability_constant,
)
from al_ist.laurent import LaurentPoly
from al_ist.sequence import Sequence
from al_ist.solver import localization_bound, localization_bound_direct, solve_point


def _report(k, ok: bool, detail: str = ""):
    line = f"criterion {k}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


def _iterate(f: RationalSchur, n: int) -> RationalSchur:
    for _ in range(n):
        _, f = schur_step(f)
    return f


def _diff_norm(f: RationalSchur, g: RationalSchur, grid: CircleGrid) -> float:
    d = f.grid_values(grid) - g.grid_values(grid)
    return float(np.sqrt(np.mean(np.abs(d) ** 2)))


def _entry_gap(m1, m2) -> float:
    gaps = []
    for p, q in ((m1.a, m2.a), (m1.b, m2.b)):
        d = p - q
        gaps.append(0.0 if d.is_zero else float(np.max(np.abs(d.coeffs))))
    return max(gaps)


def test_criterion_1_stability_constant_brackets():
    start = time.perf_counter()
    brackets = [
        (0.5, 5e27, 6e27),
        (0.8, 1e6, 2e6),
        (24.0 / 25.0, 9.0, 10.0),
    ]
    ok = True
    for eta_value, lo, hi in brackets:
        value = stability_constant(eta_value, 0.5).value
        ok = ok and lo <= value <= hi
    elapsed = time.perf_counter() - start
    _report(1, ok, f"{elapsed * 1e3:.1f} ms")
    for eta_value, lo, hi in brackets:
        value = stability_constant(eta_value, 0.5).value
        assert lo <= value <= hi
    assert elapsed < 1.0


def test_criterion_2_sharpness_of_the_rate():
    start = time.perf_counter()
    delta, r = 0.3, 0.5
    worst_in, worst_out = 0.0, 0.0
    for n in range(1, 11):
        f = RationalSchur(LaurentPoly(n, [delta]))
        worst_in = max(worst_in, abs(l2_norm_circle(f, r, 1024) - delta * r**n))
        fn = _iterate(f, n)
        worst_out = max(worst_out, abs(l2_norm_circle(fn, r, 1024) - delta))
    elapsed = time.perf_counter() - start
    ok = worst_in <= 1e-10 and worst_out <= 1e-10 and elapsed < 1.0
    _report(2, ok, f"input gap {worst_in:.2e}, iterate gap {worst_out:.2e}")
    assert worst_in <= 1e-10
    assert worst_out <= 1e-10
    assert elapsed < 1.0


def test_criterion_3_stability_inequality_random_pairs():
    from al_ist.nlft import fc_plus

    start = time.perf_counter()
    grids = {r: CircleGrid(1024, r) for r in (0.3, 0.5)}
    violations = 0
    checked = 0
    for i in range(200):
        count = (i % 12) + 1
        qf = random_sequence(seed=3000 + 2 * i, count=count, lo=0, hi=12, max_modulus=0.6)
        qg = random_sequence(seed=3001 + 2 * i, count=count, lo=0, hi=12, max_modulus=0.6)
        f, g = fc_plus(qf), fc_plus(qg)
        eta_value = min(qf.szego_product(), qg.szego_product())
        n = (i * 7) % 12 + 1
        fn, gn = _iterate(f, n), _iterate(g, n)
        for r in (0.3, 0.5):
            lhs = _diff_norm(fn, gn, grids[r])
            c = stability_constant(eta_value, r).value
            rhs = c * r ** (-n) * _diff_norm(f, g, grids[r])
            checked += 1
            if lhs > rhs + 1e-8:
                violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 30.0
    _report(3, ok, f"{checked} inequalities, {violations} violations, {elapsed:.1f} s")
    assert violations == 0
    assert elapsed < 30.0


def _multiplier_fidelity(n: int, t: float):
    grid = CircleGrid(4 * n)
    phase = np.exp(1j * t * (grid.nodes + 1.0 / grid.nodes))
    bundle = g_bundle(n, t)
    p_err = float(np.max(np.abs(lp_eval_grid(p_poly(n, t), grid) - phase)))
    g_peak = float(np.max(np.abs(lp_eval_grid(bundle.g, grid))))
    return p_err, bundle.delta, g_peak


def test_criterion_4_multiplier_fidelity_attainable_pairs():
    start = time.perf_counter()
    results = {pair: _multiplier_fidelity(*pair) for pair in ((10, 1.0), (20, 2.0))}
    elapsed = time.perf_counter() - start
    ok = all(p <= d and g < 1.0 for p, d, g in results.values()) and elapsed < 1.0
    _report("4 [pairs (10,1),(20,2)]", ok, f"{elapsed * 1e3:.0f} ms")
    for p_err, delta, g_peak in results.values():
        assert p_err <= delta
        assert g_peak < 1.0
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="pair (40,4): delta ~ 8.1e-23 is below the double-precision "
    "coefficient floor (~1e-14); measured max|P-exp| ~ 7.0e-15 and "
    "max|G| = 1 + 7e-16",
)
def test_criterion_4_multiplier_fidelity_full_triple():
    pairs = ((10, 1.0), (20, 2.0), (40, 4.0))
    results = {pair: _multiplier_fidelity(*pair) for pair in pairs}
    failing = [
        f"(n={n},t={t}): max|P-exp|={p:.3e} vs delta={d:.3e}, max|G|={g:.17g}"
        for (n, t), (p, d, g) in results.items()
        if not (p <= d and g < 1.0)
    ]
    _report(4, not failing, "; ".join(failing))
    for p_err, delta, g_peak in results.values():
        assert p_err <= delta
        assert g_peak < 1.0


def test_criterion_5_nlft_identities():
    start = time.perf_counter()
    grid = CircleGrid(4096)
    worst = {"unitarity": 0.0, "szego": 0.0, "shift": 0.0, "product": 0.0}
    for i in range(100):
        count = 4 + (i % 29)
        q = random_sequence(seed=5000 + i, count=count, lo=-16, hi=16, max_modulus=0.5)
        m = nlft_forward(q)
        worst["unitarity"] = max(worst["unitarity"], m.unitarity_residual(grid))
        lhs, rhs, _ = szego_identity_check(q, grid)
        worst["szego"] = max(worst["szego"], abs(lhs - rhs))
        shift = (i % 9) - 4 or 5
        worst["shift"] = max(worst["shift"], shift_check(q, shift, grid))
        worst["product"] = max(worst["product"], _entry_gap(m, nlft_forward_naive(q)))
    elapsed = time.perf_counter() - start
    limits = {"unitarity": 1e-9, "szego": 1e-8, "shift": 1e-9, "product": 1e-10}
    ok = all(worst[k] <= limits[k] for k in limits) and elapsed < 20.0
    detail = ", ".join(f"{k} {worst[k]:.2e}" for k in worst)
    _report(5, ok, f"{detail}, {elapsed:.1f} s")
    for key, limit in limits.items():
        assert worst[key] <= limit, key
    assert elapsed < 20.0


def test_criterion_6_end_to_end_vs_reference():
    start = time.perf_counter()
    worst = 0.0
    for i in range(50):
        q0 = random_sequence(seed=6000 + i, count=9, lo=-4, hi=5, max_modulus=0.5)
        t = (0.25, 0.5, 1.0)[i % 3]
        ref = rk4_integrate(q0, t, 1e-3, radius=60)
        for n0 in (0, 2, -2):
            value, budget = solve_point(q0, t, n0, 1e-6)
            assert budget.total <= 1e-6
            worst = max(worst, abs(value - ref.q.at(n0)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 300.0
    _report(6, ok, f"worst deviation {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-5
    assert elapsed < 300.0


def test_criterion_7_reference_order_and_conservation():
    start = time.perf_counter()
    alpha, m = 0.3, 16
    k = 2.0 * math.pi / m
    omega = 2.0 * (1.0 - alpha**2) * math.cos(k)
    sites = np.arange(m)
    ring = Sequence(0, alpha * np.exp(1j * k * sites))
    exact = alpha * np.exp(1j * (k * sites + omega))
    errors = []
    for h in (4e-2, 2e-2, 1e-2):
        got = rk4_integrate(ring, 1.0, h, boundary="periodic").q.values
        errors.append(float(np.max(np.abs(got - exact))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]

    q0 = random_sequence(seed=7000, count=8, lo=-4, hi=4, max_modulus=0.6)
    out = rk4_integrate(q0, 1.0, 1e-3, radius=40)
    drift = abs(conserved_product(out) - conserved_product(LatticeState(q0, 0.0)))
    elapsed = time.perf_counter() - start
    ok = min(orders) >= 3.9 and drift <= 1e-8 and elapsed < 10.0
    _report(7, ok, f"orders {orders[0]:.2f}/{orders[1]:.2f}, drift {drift:.2e}")
    assert min(orders) >= 3.9
    assert drift <= 1e-8
    assert elapsed < 10.0


def test_criterion_8_localization_under_truncation():
    start = time.perf_counter()
    t, r = 0.25, 0.5
    q0 = dense_random_sequence(seed=8000, offset=-10, length=21, max_modulus=0.3)
    eta_value = q0.szego_product()
    full = rk4_integrate(q0, t, 1e-3, radius=60).q.at(0)
    violations = []
    margin = math.inf
    for N in range(4, 11):
        kept = [
            q0.at(k) if abs(k) <= N else 0.0 for k in range(q0.offset, q0.offset + 21)
        ]
        qN = Sequence(q0.offset, np.asarray(kept, dtype=np.complex128))
        truncated = rk4_integrate(qN, t, 1e-3, radius=60).q.at(0)
        measured = abs(full - truncated)
        bound = min(
            localization_bound(eta_value, r, t, N, 0),
            localization_bound_direct(t, r, N, 0),
        )
        margin = min(margin, bound / measured if measured else math.inf)
        if measured > bound:
            violations.append(N)
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 120.0
    _report(8, ok, f"min bound/measured ratio {margin:.2e}, {elapsed:.1f} s")
    assert not violations
    assert elapsed < 120.0


def test_criterion_9_nlft_scaling():
    start = time.perf_counter()
    _, exponent = time_nlft(9000)  # sizes 256, 1024, 4096
    elapsed = time.perf_counter() - start
    ok = exponent <= 1.4 and elapsed < 120.0
    _report(9, ok, f"fitted exponent {exponent:.3f}, {elapsed:.1f} s")
    assert exponent <= 1.4
    assert elapsed < 120.0
