"""Window solver sized at the localization radius that minimizes its bound.

localization_bound holds for every r in (0, 1).  The window solver takes,
for each candidate half-width M, the r that minimizes it at margin M, and
keeps the least M at or below the closed form whose worst entry is within
eps.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from al_ist.datagen import dense_random_sequence
from al_ist.multiplier import delta_nt
from al_ist.reference import rk4_integrate
from al_ist.sequence import Sequence
from al_ist.solver import (
    best_radius,
    localization_bound,
    select_params,
    solve_window_detailed,
    t3_bound,
)

from strategies import disk_values

GRID = [k / 200.0 for k in range(1, 200)]


def least_window_half_width(eta, t, eps):
    """The least M >= 5 whose worst window entry is within eps, by linear scan."""
    M = 5
    while True:
        W = M + M // 2
        if 2 * M > t and delta_nt(2 * M, t) < 1.0:
            loc = localization_bound(eta, best_radius(eta, t, M), t, M, 0)
            if loc + t3_bound(eta, t, 2 * W, W + M // 2) <= eps:
                return M
        M += 1


@pytest.mark.parametrize("eta", [1.0, 0.6, 0.11, 0.01])
@pytest.mark.parametrize("t", [0.0, 0.25, 6.0, 40.0])
@pytest.mark.parametrize("margin", [0, 5, 120])
def test_best_radius_minimizes_the_bound(eta, t, margin):
    r = best_radius(eta, t, margin)
    assert 0.0 < r < 1.0
    best = localization_bound(eta, r, t, margin, 0)
    # The root is found to rounding; allow the bound's own rounding.
    assert best <= localization_bound(eta, 0.5, t, margin, 0) * (1.0 + 1e-12)
    assert best <= min(localization_bound(eta, g, t, margin, 0) for g in GRID) * (1.0 + 1e-12)


def test_zero_time_window_is_the_datum():
    datum = Sequence(-2, np.array([0.3, 0.2j, 0.0, -0.4, 0.1]))
    window, budgets, params = solve_window_detailed(datum, 0.0, 0, 1e-6)
    assert 0.0 < params.r < 1.0
    assert np.all(budgets <= 1e-6)
    expected = [datum.at(window.offset + i) for i in range(len(window.values))]
    assert np.max(np.abs(window.values - expected)) <= 1e-12


def test_window_rows_at_eta_six_tenths():
    # One site with |q|^2 = 0.4: the closed form gives N = 89, the
    # minimized bound N = 13, so the window has 13 sites instead of 89.
    datum = Sequence(0, np.array([math.sqrt(0.4)]))
    eta = datum.szego_product()
    window, budgets, params = solve_window_detailed(datum, 0.5, 0, 1e-6)
    assert select_params(0.5, 1e-6, eta, 0).N == 89
    assert params.N == 13 and len(window.values) == 13
    assert np.all(budgets <= 1e-6)


@pytest.mark.parametrize("eta_class, t", [(0.22, 2.0), (0.11, 6.0)])
def test_right_edge_sets_the_window(eta_class, t):
    # At these classes the t3 factor 2^floor(N/2) of the right edge moves
    # N above the least M that fits with t3 at index W alone.
    datum = Sequence(0, np.array([math.sqrt(1.0 - eta_class)]))
    eta = datum.szego_product()
    _, budgets, params = solve_window_detailed(datum, t, 0, 1e-6)
    assert params.N == least_window_half_width(eta, t, 1e-6)
    assert budgets.max() == budgets[-1] <= 1e-6
    M = params.N - 1
    W = M + M // 2
    loc = localization_bound(eta, best_radius(eta, t, M), t, M, 0)
    assert loc + t3_bound(eta, t, 2 * W, W) <= 1e-6 < loc + t3_bound(eta, t, 2 * W, W + M // 2)


@st.composite
def window_jobs(draw):
    lo = draw(st.integers(-4, 4))
    values = draw(st.lists(disk_values(0.6), min_size=1, max_size=5))
    datum = Sequence(lo, np.asarray(values, dtype=np.complex128))
    n0 = draw(st.integers(lo - 4, lo + len(values) + 4))
    t = draw(st.floats(0.0, 3.0)) * draw(st.sampled_from((1.0, -1.0)))
    eps = draw(st.sampled_from((1e-6, 1e-10)))
    return datum, n0, t, eps


@settings(max_examples=15, deadline=None)
@given(window_jobs())
def test_window_is_least_and_certified(job):
    datum, n0, t, eps = job
    eta = 1.0 if datum.trimmed().is_zero else datum.szego_product()
    window, budgets, params = solve_window_detailed(datum, t, n0, eps)
    abs_t = abs(t)
    assert params.N <= select_params(t, eps, eta, n0).N
    assert params.N == least_window_half_width(eta, abs_t, eps)
    assert params.r == best_radius(eta, abs_t, params.N)
    assert np.all(budgets <= eps)
    half = params.N // 2
    W = params.N + half
    assert len(window.values) == 2 * half + 1
    if datum.trimmed().is_zero:
        return
    for s in range(-half, half + 1):
        want = localization_bound(eta, params.r, abs_t, W, s) + t3_bound(eta, abs_t, 2 * W, W + s)
        assert budgets[half + s] == want


def test_truncation_error_against_bound_at_best_radius():
    """RK4 on the datum and on its restriction to [-N, N]: their gap at site
    0 must stay below localization_bound at margin N and radius
    best_radius(eta, t, N).  Both runs share the step, so the gap is the
    truncation effect up to the integrator's relative error."""
    h = 5e-3
    violations = []
    for k, modulus in enumerate((0.05, 0.1, 0.1, 0.2, 0.3)):
        datum = dense_random_sequence(seed=8100 + k, offset=-30, length=61, max_modulus=modulus)
        eta = datum.szego_product()
        for t in (0.25, 1.0, 3.0):
            full = rk4_integrate(datum, t, h, radius=40).q.at(0)
            for N in range(2, 30):
                truncated = rk4_integrate(datum.windowed(-N, N), t, h, radius=40).q.at(0)
                bound = localization_bound(eta, best_radius(eta, t, N), t, N, 0)
                if abs(full - truncated) > bound:
                    violations.append((k, t, N, abs(full - truncated), bound))
    assert not violations
