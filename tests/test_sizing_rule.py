"""One sizing rule for both solvers.

solve_point and solve_window size N by one search (_least_half_width)
over the right-edge budget of their own pass shape, POINT or WINDOW,
formed by the terms the pass certifies with; it starts from an estimate
and returns what bisection over the whole range returns.  The pins fix the
sizes, radii and budgets of point and window solves on benchmark-shaped
data bit for bit.  The hex pins and digests hold for numpy 2.4.6 with its
AVX2/AVX-512 kernels on x86-64, as constraints.txt pins it; other kernels
can move the last bits, and the pins marked bitpin do move under numpy's
baseline kernels.
"""

import hashlib
import math

import numpy as np
import pytest

import al_ist.solver as solver
from al_ist.multiplier import _least, order_admissible
from al_ist.schur import stability_constant
from al_ist.sequence import Sequence
from al_ist.solver import select_params, solve_point, solve_window_detailed


def bench_datum(eta):
    """Seven sites of equal modulus on [-6, 6], every other site, with
    Szego product eta: the shape of the benchmark's point and compare data."""
    values = np.zeros(13, dtype=np.complex128)
    values[::2] = math.sqrt(1.0 - eta ** (1.0 / 7)) * np.exp(2j * np.arange(7))
    return Sequence(-6, values)


@pytest.mark.parametrize(
    "eta, t, eps, N, r, edge, digest",
    [
        (0.6, 0.5, 1e-6, 13, "0x1.2870c7302c632p-5", "0x1.25a0b5f39c17ep-22",
         "1970148b2423905b64e406fd1fdc472538c74e9ef3cd40d70a1553f168ca2023"),
        (0.22, 2.0, 1e-10, 50, "0x1.28bd7d1eac88fp-5", "0x1.b2e757e47a4d0p-36",
         "3e3b5cfc290e34f9d173222804171386c1b20a4572f5adef39a3be21a128817f"),
        (0.11, -6.0, 1e-6, 130, "0x1.502ffa597a338p-5", "0x1.cf19cefe24cc0p-31",
         "15c9944a351ae453787c56bd125e4bf2a4aec7b08ee2f9e956ae1b7683044807"),
        (0.05, 0.5, 1e-10, 154, "0x1.a0e79d9a8f41fp-9", "0x1.139543e0bada7p-65",
         "502cd514329d4fc6a0451cbaf83a1b7caff5b062ab5099a7c0f8882f00139fc3"),
        (0.6, 8.0, 1e-6, 46, "0x1.3ffb3c0c574bdp-3", "0x1.0997b5d8218c1p-22",
         "6644483862649ee831d538aee02a1cb0a4e3d175705283ca9b29946f9cc9d8b3"),
    ],
)
@pytest.mark.bitpin
def test_window_sizes_radii_and_budgets_are_pinned(eta, t, eps, N, r, edge, digest):
    _, budgets, params = solve_window_detailed(bench_datum(eta), t, 0, eps)
    assert (params.N, params.r.hex()) == (N, r)
    assert len(budgets) == 2 * (N // 2) + 1
    assert float(budgets[-1]).hex() == edge
    hexes = " ".join(float(b).hex() for b in budgets)
    assert hashlib.sha256(hexes.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "eta, t, eps, n0, N, truncation",
    # At n0 = 12, right of the support [-6, 6], the pass runs on the mirrored datum.
    [(0.05, 6.0, 1e-10, 12, 385, "0x1.4d5d8489cc190p-38"),
     (0.22, -2.0, 1e-6, 0, 68, "0x1.8373cd62e2c2fp-23"),
     # eta 0.11 moves by 4 ulp under numpy's baseline kernels (complex abs
     # and log1p in Sequence.log_szego_product), and this truncation with it.
     pytest.param(0.11, 6.0, 1e-10, 12, 189, "0x1.d62a0dae395fdp-42", marks=pytest.mark.bitpin),
     (0.6, 8.0, 1e-6, 0, 65, "0x1.2ec10f7102517p-25"),
     (0.22, 0.0, 1e-6, 0, 6, "0x0.0p+0")],
)
def test_point_sizes_and_budgets_are_pinned(eta, t, eps, n0, N, truncation):
    datum = bench_datum(eta)
    params = select_params(t, eps, datum.szego_product(), n0, support=datum.support())
    assert (params.N, params.r) == (N, 0.5) and params.covers_support
    _, budget = solve_point(datum, t, n0, eps)
    assert budget.localization == 0.0 and budget.truncation.hex() == truncation


def test_window_search_runs_best_radius_once_per_probe(monkeypatch):
    events = []
    least, radius = solver._least_from, solver.best_radius

    def spied_least(holds, guess, lo, hi):
        def probe(M):
            events.append(("probe", M))
            return holds(M)

        found = least(probe, guess, lo, hi)
        events.append(("found", found))
        return found

    def spied_radius(eta, t, margin):
        events.append(("radius", margin))
        return radius(eta, t, margin)

    monkeypatch.setattr(solver, "_least_from", spied_least)
    monkeypatch.setattr(solver, "best_radius", spied_radius)
    datum = bench_datum(0.22)
    _, _, params = solve_window_detailed(datum, 2.0, 0, 1e-10)
    # One search, and no radius after it: the accepted probe's radius is kept.
    assert [e for e in events if e[0] == "found"] == [("found", params.N)]
    assert events[-1] == ("found", params.N)
    probes = [i for i, e in enumerate(events) if e[0] == "probe"]
    assert len(probes) > 1
    for i in probes:  # every probe here has 2M admissible
        assert events[i + 1] == ("radius", events[i][1])
    assert sum(e[0] == "radius" for e in events) == len(probes)
    assert params.r == radius(datum.szego_product(), 2.0, params.N)


def test_point_search_runs_no_radius(monkeypatch):
    def refuse(*args):
        raise AssertionError("a point search evaluates localization at r = 1/2 only")

    monkeypatch.setattr(solver, "best_radius", refuse)
    _, budget = solve_point(bench_datum(0.11), 6.0, 0, 1e-10)
    assert budget.localization == 0.0


def bisected_half_width(shape, eta, t, eps, lo, hi):
    """_least_half_width as plain bisection over its whole range: _least on
    the same edge test, each probe's radius kept."""
    log_c = stability_constant(eta, 0.5).log
    radii = {}

    def fits(M):
        if not order_admissible(2 * M, t):
            return False
        s = shape.half(M)
        radii[M] = r = shape.radius(eta, t, M)
        (loc,), (trunc,) = solver._budget_terms(shape, log_c, eta, r, t, M + s, range(s, s + 1))
        return loc + trunc <= eps

    M = _least(fits, max(lo, math.ceil(math.e * t)), hi)
    return None if M is None else (M, radii[M])


@pytest.mark.parametrize("shape", [solver.POINT, solver.WINDOW], ids=["POINT", "WINDOW"])
@pytest.mark.parametrize("eta", [0.9, 0.22, 0.05, 1e-3])
def test_estimate_started_search_matches_bisection(eta, shape):
    # Over t from 0 and the least subnormal up, both eps classes and three
    # lower ends, with the closed form as the upper end and with upper ends
    # that cut off or just reach the answer: the same (M, r), None included.
    for t in (0.0, 5e-324, 1e-9, 0.5, 2.0, 6.0, 20.0):
        for eps in (1e-6, 1e-10):
            closed = select_params(t, eps, eta).N if eta > 0.01 else 10**6
            for lo in (5, 18, 60):
                want = bisected_half_width(shape, eta, t, eps, lo, closed)
                ends = [closed, lo, lo + 1]
                if want is not None:
                    ends += [want[0], want[0] - 1, want[0] + 1]
                for hi in ends:
                    got = solver._least_half_width(shape, eta, t, eps, lo, hi)
                    assert got == bisected_half_width(shape, eta, t, eps, lo, hi), (t, eps, lo, hi)
