"""Direct lattice integrators: RK4, the order-8 pair and Picard, plus
conservation checks."""

import math
import sys
import time
import warnings
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import cumulative_simpson
from scipy.integrate._ivp import dop853_coefficients as dop853
from scipy.special import iv

import al_ist.reference
from al_ist.datagen import random_sequence
from al_ist.errors import BlowUpError, InfeasibleParamsError, ValidationError
from al_ist.reference import (
    PICARD_MESH,
    RK4,
    RK8,
    RK8_STEP,
    TRUNCATION_TOL,
    LatticeState,
    _cumulative_simpson,
    _guard,
    _initial_array,
    _rhs,
    _rk_rows,
    _step_plan,
    al_rhs,
    conserved_product,
    default_radius,
    lattice_radius,
    picard_solve,
    rk4_integrate,
    rk8_pair,
    truncation_bound,
)
from al_ist.sequence import Sequence
from al_ist.solver import localization_bound_direct, solve_window_detailed

from strategies import disk_sequences


def seq(offset, values):
    return Sequence(offset, np.asarray(values, dtype=np.complex128))


def plane_wave(alpha: float, k: float, omega: float, t: float, m: int) -> np.ndarray:
    n = np.arange(m)
    return alpha * np.exp(1j * (k * n + omega * t))


def ring_state(alpha: float, m: int) -> Sequence:
    return Sequence(0, plane_wave(alpha, 2.0 * math.pi / m, 0.0, 0.0, m))


class TestRhs:
    def test_zero(self):
        s = LatticeState(seq(0, [0.0, 0.0, 0.0]), 0.0)
        assert np.max(np.abs(al_rhs(s))) == 0.0

    def test_single_site_neighbors(self):
        s = LatticeState(seq(-1, [0.0, 0.3 + 0.1j, 0.0]), 0.0)
        rhs = al_rhs(s)
        assert rhs[1] == 0.0
        assert abs(rhs[0] - 1j * (0.3 + 0.1j)) <= 1e-16
        assert abs(rhs[2] - 1j * (0.3 + 0.1j)) <= 1e-16

    def test_plane_wave_dispersion(self):
        alpha, m = 0.3, 16
        k = 2.0 * math.pi / m
        omega = 2.0 * (1.0 - alpha**2) * math.cos(k)
        s = LatticeState(ring_state(alpha, m), 0.0, "periodic")
        rhs = al_rhs(s)
        assert np.max(np.abs(rhs - 1j * omega * s.q.values)) <= 1e-14


class TestRk4:
    def test_zero_datum(self):
        out = rk4_integrate(seq(0, [0.0]), 1.0, 1e-2, radius=5)
        assert np.max(np.abs(out.q.values)) == 0.0

    def test_plane_wave_exact_solution(self):
        alpha, m = 0.3, 16
        k = 2.0 * math.pi / m
        omega = 2.0 * (1.0 - alpha**2) * math.cos(k)
        out = rk4_integrate(ring_state(alpha, m), 1.0, 1e-3, boundary="periodic")
        want = plane_wave(alpha, k, omega, 1.0, m)
        assert np.max(np.abs(out.q.values - want)) <= 1e-10

    def test_fourth_order_convergence(self):
        alpha, m = 0.3, 16
        k = 2.0 * math.pi / m
        omega = 2.0 * (1.0 - alpha**2) * math.cos(k)
        want = plane_wave(alpha, k, omega, 1.0, m)
        errs = []
        for h in (4e-2, 2e-2, 1e-2):
            out = rk4_integrate(ring_state(alpha, m), 1.0, h, boundary="periodic")
            errs.append(np.max(np.abs(out.q.values - want)))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.9

    def test_conserved_product_drift(self):
        q0 = random_sequence(seed=81, count=8, lo=-5, hi=6, max_modulus=0.6)
        start = conserved_product(LatticeState(q0, 0.0))
        out = rk4_integrate(q0, 1.0, 1e-3)
        assert abs(conserved_product(out) - start) <= 1e-8

    def test_negative_time_plane_wave(self):
        alpha, m = 0.3, 16
        k = 2.0 * math.pi / m
        omega = 2.0 * (1.0 - alpha**2) * math.cos(k)
        out = rk4_integrate(ring_state(alpha, m), -0.7, 1e-3, boundary="periodic")
        want = plane_wave(alpha, k, omega, -0.7, m)
        assert np.max(np.abs(out.q.values - want)) <= 1e-10

    def test_final_partial_step_lands_exactly(self):
        q0 = seq(0, [0.4])
        a = rk4_integrate(q0, 0.05, 2e-2, radius=10)  # 2.5 steps
        b = rk4_integrate(q0, 0.05, 1e-2, radius=10)
        assert np.max(np.abs(a.q.values - b.q.values)) <= 1e-9

    def test_guard_trips_near_boundary(self):
        with pytest.raises(BlowUpError):
            rk4_integrate(seq(0, [1.0 - 1e-13]), 0.1, 1e-2, radius=4)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValidationError):
            rk4_integrate(seq(0, [0.1]), 1.0, 0.0)

    def test_zero_vs_periodic_differ(self):
        q0 = seq(0, [0.4, 0.0, 0.0, 0.4])
        zero = rk4_integrate(q0, 0.5, 1e-3, radius=3)
        ring = rk4_integrate(q0, 0.5, 1e-3, boundary="periodic")
        zero_at = {zero.q.offset + i: v for i, v in enumerate(zero.q.values)}
        diff = max(
            abs(zero_at[q0.offset + i] - ring.q.values[i])
            for i in range(len(ring.q.values))
        )
        assert diff > 1e-3


def tableau_allocating(q0, t, h, radius, tableau, boundary):
    """`tableau` with fresh arrays at every stage: the oracle for the kernel
    of _rk_rows.  It takes the kernel's step plan, sums in the kernel's
    order (k_{i-1} down to k_0, then y) and tests every stage and step
    result."""
    if radius is None:
        radius = default_radius(q0, t)
    offset, y = _initial_array(q0, radius, boundary)
    _guard(y, "initialization")
    a, b = tableau.a, tableau.b
    count, last = _step_plan(abs(t), h)
    sign = 1.0 if t >= 0 else -1.0
    for n in range(count):
        step = sign * (h if n < count - 1 else last)
        ks = []
        for i in range(len(b)):
            stage = y
            if i:
                acc = (a[i, i - 1] * step) * ks[i - 1]
                for j in range(i - 2, -1, -1):
                    acc = acc + (a[i, j] * step) * ks[j]
                stage = acc + y
                _guard(stage, f"{tableau.name} stage")
            ks.append(_rhs(stage, boundary))
        acc = (b[-1] * step) * ks[-1]
        for j in range(len(b) - 2, -1, -1):
            acc = acc + (b[j] * step) * ks[j]
        y = acc + y
        _guard(y, f"{tableau.name} step")
    return LatticeState(Sequence(offset, y), t, boundary)


def rk4_pair(q0, t, h, radius=None, boundary="zero"):
    """RK4 at steps h and h/2 as two rows of one kernel run: the bit-exact
    check of the multi-row layout that rk8_pair steps on."""
    return tuple(_rk_rows(q0, t, (h, h / 2.0), RK4, radius, boundary))


# At guard 0.58239 and h 0.1 the first state to reach the guard is a
# step's result, not one of its stages.
STEP_TRIP = seq(0, [0.3393 - 0.1075j, -0.2207 + 0.5312j, -0.1531 + 0.0786j])
STEP_TRIP_GUARD = 0.58239


class TestRk4Kernel:
    @settings(max_examples=60, deadline=None)
    @given(
        disk_sequences(max_len=8, max_modulus=0.9),
        st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
        st.sampled_from([0.013, 0.05, 0.3, 2.0]),
        st.sampled_from(["zero", "periodic"]),
        st.integers(1, 12),
    )
    @example(seq(-1, [0.4, 0.2j, -0.3]), -0.77, 0.05, "zero", 6)  # negative t
    @example(seq(-1, [0.4, 0.2j, -0.3]), 0.0, 0.05, "periodic", 6)  # t = 0
    @example(seq(0, [0.6, 0.0, 0.5 - 0.1j]), 0.13, 0.05, "periodic", 6)  # partial step
    @example(seq(0, [0.6, 0.0, 0.5 - 0.1j]), -0.13, 2.0, "zero", 3)  # h > |t|
    @example(seq(0, [0.7]), 0.4, 0.3, "periodic", 1)  # one-site ring
    @example(seq(0, [0.875, 0.5, 0.75]), 1.0, 2.0, "zero", 2)  # guard trips
    def test_bytes_equal_allocating_loop(self, q0, t, h, boundary, radius):
        if boundary == "periodic" and len(q0) == 0:
            return
        # A coarse step on a large datum may trip the modulus guard; then
        # both loops must raise the same error.
        try:
            want = tableau_allocating(q0, t, h, radius, RK4, boundary)
        except BlowUpError as exc:
            with pytest.raises(BlowUpError) as got_exc:
                rk4_integrate(q0, t, h, radius, boundary)
            assert str(got_exc.value) == str(exc)
            return
        got = rk4_integrate(q0, t, h, radius, boundary)
        assert got.q.offset == want.q.offset and got.t == want.t
        assert got.q.values.tobytes() == want.q.values.tobytes()

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    @pytest.mark.parametrize("margin", [0.0, 1e-5, 1e-4, 3e-4])
    def test_lowered_guard_trips_alike(self, monkeypatch, boundary, margin):
        # Two neighbouring sites of modulus 0.5: the first stage raises
        # |q(0)| to about 0.50035 at h = 0.1, so a guard just above 0.5
        # trips inside a stage and a guard at 0.5 at initialization.
        monkeypatch.setattr(al_ist.reference, "MODULUS_GUARD", 0.5 + margin)
        q0 = seq(0, [0.5, 0.5])
        with pytest.raises(BlowUpError) as want:
            tableau_allocating(q0, 1.0, 0.1, 4, RK4, boundary)
        with pytest.raises(BlowUpError) as got:
            rk4_integrate(q0, 1.0, 0.1, 4, boundary)
        assert str(got.value) == str(want.value)
        context = "initialization" if margin == 0.0 else "rk4 stage"
        assert f"during {context}:" in str(got.value)

    def test_lowered_guard_trips_at_step_end(self, monkeypatch):
        monkeypatch.setattr(al_ist.reference, "MODULUS_GUARD", STEP_TRIP_GUARD)
        with pytest.raises(BlowUpError) as want:
            tableau_allocating(STEP_TRIP, 1.0, 0.1, 4, RK4, "zero")
        with pytest.raises(BlowUpError) as got:
            rk4_integrate(STEP_TRIP, 1.0, 0.1, 4)
        assert str(got.value) == str(want.value)
        assert "during rk4 step:" in str(got.value)

    @pytest.mark.parametrize("run", [rk4_integrate, rk4_pair])
    def test_huge_step_trips_without_warnings(self, run):
        # The first stage reaches about 1e60; the kernel raises at the end
        # of the step, after later stages have overflowed to inf and NaN.
        q0, h = seq(0, [0.3, 0.2j]), 1e60
        with pytest.raises(BlowUpError) as want:
            tableau_allocating(q0, 2 * h, h, 3, RK4, "zero")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(BlowUpError) as got:
                run(q0, 2 * h, h, 3)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("t, h", [(1e20, 1e-3), (1e5, 1e-3), (1.0, 5e-324)])
    def test_refuses_work_above_the_cap_at_once(self, t, h):
        start = time.perf_counter()
        with pytest.raises(InfeasibleParamsError, match="above the cap 1e\\+08"):
            rk4_integrate(seq(0, [0.5]), t, h, radius=5)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("t, h", [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan)])
    def test_rejects_non_finite_time_and_step(self, t, h):
        with pytest.raises(ValidationError):
            rk4_integrate(seq(0, [0.5]), t, h, radius=5)


class TestRk4Pair:
    @settings(max_examples=60, deadline=None)
    @given(
        disk_sequences(max_len=8, max_modulus=0.9),
        st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
        st.sampled_from([0.013, 0.05, 0.3, 2.0]),
        st.sampled_from(["zero", "periodic"]),
        st.integers(1, 12),
    )
    @example(seq(-1, [0.4, 0.2j, -0.3]), -0.77, 0.05, "zero", 6)  # negative t
    @example(seq(-1, [0.4, 0.2j, -0.3]), 0.0, 0.05, "periodic", 6)  # t = 0
    @example(seq(0, [0.6, 0.0, 0.5 - 0.1j]), 0.13, 0.05, "periodic", 6)  # partial step
    @example(seq(0, [0.6, 0.0, 0.5 - 0.1j]), -0.13, 2.0, "zero", 3)  # h > |t|
    @example(seq(0, [0.7]), 0.4, 0.3, "periodic", 1)  # one-site ring
    @example(seq(0, [0.875, 0.5, 0.75]), 1.0, 2.0, "zero", 2)  # guard trips
    def test_bytes_equal_two_allocating_loops(self, q0, t, h, boundary, radius):
        if boundary == "periodic" and len(q0) == 0:
            return
        want, tripped = [], False
        for step in (h, h / 2.0):
            try:
                want.append(tableau_allocating(q0, t, step, radius, RK4, boundary))
            except BlowUpError:
                tripped = True
        # The pair trips if either run does; the stage it names is the
        # first trip in its interleaved order.
        if tripped:
            with pytest.raises(BlowUpError, match="^modulus guard tripped during"):
                rk4_pair(q0, t, h, radius, boundary)
            return
        for got, run in zip(rk4_pair(q0, t, h, radius, boundary), want):
            assert got.q.offset == run.q.offset and got.t == run.t
            assert got.boundary == run.boundary
            assert got.q.values.tobytes() == run.q.values.tobytes()

    @pytest.mark.parametrize("boundary", ["zero", "periodic"])
    @pytest.mark.parametrize("margin", [0.0, 1e-5, 3e-4])
    def test_lowered_guard_trips(self, monkeypatch, boundary, margin):
        # The datum of TestRk4Kernel.test_lowered_guard_trips_alike: both
        # runs trip, at initialization or inside a stage.
        monkeypatch.setattr(al_ist.reference, "MODULUS_GUARD", 0.5 + margin)
        with pytest.raises(BlowUpError) as got:
            rk4_pair(seq(0, [0.5, 0.5]), 1.0, 0.1, 4, boundary)
        context = "initialization" if margin == 0.0 else "rk4 stage"
        assert str(got.value).startswith(f"modulus guard tripped during {context}:")

    def test_lowered_guard_trips_at_step_end(self, monkeypatch):
        monkeypatch.setattr(al_ist.reference, "MODULUS_GUARD", STEP_TRIP_GUARD)
        with pytest.raises(BlowUpError) as got:
            rk4_pair(STEP_TRIP, 1.0, 0.1, 4)
        assert str(got.value).startswith("modulus guard tripped during rk4 step:")

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValidationError):
            rk4_pair(seq(0, [0.1]), 1.0, -1e-3)


def plane_wave_ring(alpha: float, m: int, t: float):
    """(datum, exact solution at t) of the plane wave on an m-site ring."""
    k = 2.0 * math.pi / m
    omega = 2.0 * (1.0 - alpha**2) * math.cos(k)
    return ring_state(alpha, m), plane_wave(alpha, k, omega, t, m)


BENCH_DATUM = seq(-6, [0.5, 0.0, 0.3j, 0.0, -0.4 + 0.2j, 0.0, 0.6, 0.0, 0.1 - 0.5j, 0.0, 0.35,
                       0.0, -0.45j])


class TestRk8:
    @pytest.mark.parametrize("tableau", [RK4, RK8], ids=["rk4", "rk8"])
    def test_tableau_is_consistent(self, tableau):
        # Explicit (strictly lower a), weights summing to 1, and for RK8
        # the nodes scipy lists: c == a.sum(1).
        assert not np.triu(tableau.a).any()
        assert abs(tableau.b.sum() - 1.0) <= 1e-15
        if tableau is RK8:
            assert np.allclose(RK8.a.sum(1), dop853.C[: len(RK8.b)], rtol=0.0, atol=2e-15)

    def test_tableau_literals_are_scipys_doubles(self):
        # RK8 carries the tableau as decimal literals; they must parse to
        # the bits of the 12-stage tableau scipy's DOP853 uses.
        assert RK8.a.shape == (dop853.N_STAGES, dop853.N_STAGES)
        assert RK8.a.tobytes() == dop853.A[: dop853.N_STAGES, : dop853.N_STAGES].tobytes()
        assert RK8.b.tobytes() == dop853.B.tobytes()

    def test_observed_order_is_eight(self):
        q0, want = plane_wave_ring(0.3, 16, 4.0)
        errs = [
            np.max(np.abs(row.q.values - want))
            for row in _rk_rows(q0, 4.0, (0.4, 0.2), RK8, None, "periodic")
        ]
        assert 7.5 <= math.log2(errs[0] / errs[1]) <= 9.5

    def test_fine_row_matches_the_plane_wave(self):
        # At the pair's steps the fine row is within 1e-12 of the exact
        # plane wave; RK4 at h 1e-3 is held to 1e-10 above.
        q0, want = plane_wave_ring(0.3, 16, 1.0)
        _, fine = _rk_rows(q0, 1.0, (RK8_STEP, RK8_STEP / 2.0), RK8, None, "periodic")
        assert np.max(np.abs(fine.q.values - want)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        disk_sequences(max_len=8, max_modulus=0.9),
        st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
        st.integers(1, 12),
    )
    @example(seq(-1, [0.4, 0.2j, -0.3]), -0.77, 6)  # negative t, partial steps
    @example(seq(0, [0.6, 0.0, 0.5 - 0.1j]), 0.13, 3)  # coarse row ends first
    @example(seq(0, [0.999]), 1.0, 2)  # guard trips
    # Benchmark shapes: seven sites of a compare datum on [-6, 6].  At t 6
    # on 153 sites the coarse row ends halfway and the fine row runs alone.
    @example(BENCH_DATUM, 6.0, 76)
    @example(BENCH_DATUM, -8.0, 96)
    def test_pair_equals_two_allocating_loops(self, q0, t, radius):
        want, tripped = [], False
        for step in (RK8_STEP, RK8_STEP / 2.0):
            try:
                want.append(tableau_allocating(q0, t, step, radius, RK8, "zero"))
            except BlowUpError:
                tripped = True
        if tripped:
            with pytest.raises(BlowUpError, match="^modulus guard tripped during"):
                rk8_pair(q0, t, radius)
            return
        for got, run in zip(rk8_pair(q0, t, radius), want):
            assert got.q.offset == run.q.offset and got.t == run.t
            assert np.array_equal(got.q.values, run.q.values)

    @settings(max_examples=30, deadline=None)
    @given(
        disk_sequences(max_len=8, max_modulus=0.9),
        st.one_of(st.just(0.0), st.floats(-1.5, 1.5)),
    )
    @example(seq(0, [0.7]), 0.4)  # one-site ring
    @example(seq(-1, [0.4, 0.2j, -0.3]), -0.77)  # negative t, partial steps
    @example(plane_wave_ring(0.3, 16, 0.0)[0], 1.0)
    @example(seq(0, [0.999, 0.5]), 1.0)  # guard trips
    def test_periodic_rows_equal_two_allocating_loops(self, q0, t):
        # The ring's pad copies before every right-hand side, at the pair's
        # steps: the rows of one run must be the two loops bit for bit.
        if len(q0) == 0:
            return
        hs = (RK8_STEP, RK8_STEP / 2.0)
        try:
            want = [tableau_allocating(q0, t, h, None, RK8, "periodic") for h in hs]
        except BlowUpError:
            with pytest.raises(BlowUpError, match="^modulus guard tripped during"):
                _rk_rows(q0, t, hs, RK8, None, "periodic")
            return
        for got, run in zip(_rk_rows(q0, t, hs, RK8, None, "periodic"), want):
            assert got.q.offset == run.q.offset and got.boundary == "periodic"
            assert got.q.values.tobytes() == run.q.values.tobytes()

    @pytest.mark.parametrize("t, radius", [(6.0, 76), (-8.0, 96)])
    def test_bound_contraction_gives_einsums_bits(self, monkeypatch, t, radius):
        # The kernel's contraction is the C function np.einsum calls; with
        # np.einsum itself in its place the pair keeps every bit.
        want = rk8_pair(BENCH_DATUM, t, radius)
        monkeypatch.setattr(al_ist.reference, "_contract", np.einsum)
        for got, row in zip(rk8_pair(BENCH_DATUM, t, radius), want):
            assert got.q.values.tobytes() == row.q.values.tobytes()

    @pytest.mark.parametrize("t, radius", [(6.0, 76), (-8.0, 96)])
    def test_stage_sums_bypass_np_einsum(self, monkeypatch, t, radius):
        # 11 stage sums and the step's result: 12 contractions a buffer
        # step, one step of both rows while the coarse row still runs.
        contract, calls = al_ist.reference._contract, []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return contract(*args, **kwargs)

        def refused(*args, **kwargs):
            raise AssertionError("np.einsum called")

        monkeypatch.setattr(al_ist.reference, "_contract", counted)
        monkeypatch.setattr(np, "einsum", refused)
        rk8_pair(BENCH_DATUM, t, radius)
        steps = max(_step_plan(abs(t), h)[0] for h in (RK8_STEP, RK8_STEP / 2.0))
        assert len(calls) == 12 * steps

    def test_pair_at_half_runs_five_and_ten_steps(self, monkeypatch):
        # Each contraction steps the rows its coefficient block has
        # columns for: 12 per step of the buffer, 10 steps of which carry
        # the coarse row for 5.
        contract, rows = al_ist.reference._contract, []

        def counted(*args, **kwargs):
            rows.append(args[1].shape[1])
            return contract(*args, **kwargs)

        monkeypatch.setattr(al_ist.reference, "_contract", counted)
        rk8_pair(BENCH_DATUM, 0.5, 20)
        assert len(rows) == 12 * 10
        assert sum(rows) == 12 * (5 + 10)

    @pytest.mark.parametrize("margin, context", [(0.0, "initialization"), (1e-6, "rk8 stage")])
    def test_lowered_guard_trips(self, monkeypatch, margin, context):
        # The first stage raises |q(0)| of two neighbouring sites of
        # modulus 0.5 by about 4e-6.
        monkeypatch.setattr(al_ist.reference, "MODULUS_GUARD", 0.5 + margin)
        with pytest.raises(BlowUpError) as got:
            rk8_pair(seq(0, [0.5, 0.5]), 1.0, 4)
        assert str(got.value).startswith(f"modulus guard tripped during {context}:")

    def test_lowered_guard_trips_at_step_end(self, monkeypatch):
        # On this datum the guards in about [0.64054734512, 0.64054735034]
        # are first reached by a step's result, not by one of its stages.
        monkeypatch.setattr(al_ist.reference, "MODULUS_GUARD", 0.6405473477)
        q0 = random_sequence(seed=30, count=3, lo=0, hi=2, max_modulus=0.7)
        with pytest.raises(BlowUpError) as got:
            rk8_pair(q0, 1.0, 4)
        assert str(got.value).startswith("modulus guard tripped during rk8 step:")

    def test_refuses_work_above_the_cap_at_once(self):
        # 15 steps over both step sizes at t 0.5, on 2e7 + 1 sites
        start = time.perf_counter()
        refusal = "^RK8 over 20000001 sites needs about 3e\\+08"
        with pytest.raises(InfeasibleParamsError, match=refusal):
            rk8_pair(seq(0, [0.5]), 0.5, radius=10**7)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValidationError):
            rk8_pair(seq(0, [0.5]), t, radius=5)


class TestPicard:
    def test_zero_datum(self):
        out = picard_solve(seq(0, [0.0]), 0.5, radius=4)
        assert np.max(np.abs(out.q.values)) == 0.0

    def test_agrees_with_rk4(self):
        q0 = random_sequence(seed=55, count=6, lo=-4, hi=5, max_modulus=0.5)
        fine = rk4_integrate(q0, 0.5, 1e-4, radius=20)
        pic = picard_solve(q0, 0.5, radius=20)
        assert np.max(np.abs(fine.q.values - pic.q.values)) <= 1e-7

    def test_negative_time(self):
        q0 = random_sequence(seed=56, count=4, lo=-3, hi=4, max_modulus=0.5)
        fine = rk4_integrate(q0, -0.4, 1e-4, radius=18)
        pic = picard_solve(q0, -0.4, radius=18)
        assert np.max(np.abs(fine.q.values - pic.q.values)) <= 1e-7

    def test_first_iterate_is_euler_of_integral_form(self):
        # One sweep from the constant trajectory returns q0 + tau F(q0).
        q0 = random_sequence(seed=57, count=3, lo=-2, hi=2, max_modulus=0.5)
        radius = 6
        dt = 1.0 / 24.0
        y0 = np.zeros(2 * radius + 1, dtype=np.complex128)
        sup = q0.support()
        for i, v in enumerate(q0.values):
            y0[q0.offset + i + radius] = v
        u = np.tile(y0, (PICARD_MESH + 1, 1))
        first = y0 + _cumulative_simpson(_rhs(u, "zero"), dt / PICARD_MESH)[-1]
        want = y0 + dt * _rhs(y0, "zero")
        assert np.max(np.abs(first - want)) <= 1e-15
        assert sup is not None  # datum is nonempty by construction

    @pytest.mark.parametrize("nodes", [3, 5, PICARD_MESH + 1])
    def test_simpson_is_scipys_on_complex_samples(self, nodes):
        # scipy's cumulative_simpson on the real and imaginary parts, for
        # an even panel count (bit for bit with scipy 1.17).
        rng = np.random.default_rng(nodes)
        y = rng.normal(size=(nodes, 7)) + 1j * rng.normal(size=(nodes, 7))
        h = 1.0 / (12.0 * PICARD_MESH)
        want = cumulative_simpson(y.real, dx=h, axis=0, initial=0.0) + 1j * cumulative_simpson(
            y.imag, dx=h, axis=0, initial=0.0
        )
        got = _cumulative_simpson(y, h)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestStepPlan:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-4, 10.0),
        st.one_of(st.floats(0.0, 1e3), st.integers(0, 10**5), st.floats(0.0, 1e5)),
    )
    @example(0.1, 0.5)
    @example(0.05, 0.5)
    @example(0.1, 6.0)
    @example(0.05, 8.0)
    @example(0.1, 0.3)
    @example(1e-3, 2.0)
    def test_count_is_the_caps_and_the_steps_reach_the_span(self, h, scale):
        # An integer scale is a span of whole steps, formed in float.
        span = scale * h if isinstance(scale, int) else scale
        count, last = _step_plan(span, h)
        assert count == -(-span // h)
        assert 0.0 < last <= h
        if count:
            # The steps reach span exactly: (count - 1) h + last == span.
            assert (count - 1) * Fraction(h) + Fraction(last) == Fraction(span)

    def test_no_sliver_step(self):
        # The pair's steps at t 0.5 and compare's at t 6 and 8: the loop
        # that took h off the remaining time ran one more step of about
        # 1e-17 to 1e-13 on each.
        assert [_step_plan(0.5, h)[0] for h in (0.1, 0.05)] == [5, 10]
        assert [_step_plan(6.0, h)[0] for h in (0.1, 0.05)] == [60, 120]
        assert [_step_plan(8.0, h)[0] for h in (0.1, 0.05)] == [80, 160]


class TestHelpers:
    def test_default_radius(self):
        q0 = seq(-3, [0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2])  # support [-3, 3]
        assert default_radius(q0, 1.0) == 3 + 20
        assert default_radius(q0, 0.0) == 3 + 10

    @pytest.mark.parametrize("run", [default_radius, picard_solve])
    def test_refuses_a_time_without_a_finite_radius(self, run):
        # 10 (1 + |t|) overflows a float above about 1.8e307.
        with pytest.raises(InfeasibleParamsError, match="no finite reference lattice radius"):
            run(seq(0, [0.5]), -1e308)

    def test_conserved_product_values(self):
        assert conserved_product(LatticeState(seq(0, [0.0]), 0.0)) == 0.0
        got = conserved_product(LatticeState(seq(0, [0.5]), 0.0))
        assert abs(got - math.log(0.75)) <= 1e-15

    def test_state_rejects_unknown_boundary(self):
        with pytest.raises(ValidationError):
            LatticeState(seq(0, [0.1]), 0.0, "reflecting")

    def test_modulus_invariant_along_flow(self):
        q0 = random_sequence(seed=61, count=5, lo=-4, hi=4, max_modulus=0.8)
        out = rk4_integrate(q0, 1.0, 1e-3)
        assert np.max(np.abs(out.q.values)) < 1.0


def test_truncation_radius_localization():
    """Widening the truncation radius moves q(t, 0) by less than the direct
    localization bound at r = 1/2."""
    q0 = random_sequence(seed=91, count=9, lo=-5, hi=5, max_modulus=0.5)
    t = 0.25
    narrow = rk4_integrate(q0, t, 1e-3, radius=12)
    wide = rk4_integrate(q0, t, 1e-3, radius=24)
    at0_narrow = narrow.q.values[-narrow.q.offset]
    at0_wide = wide.q.values[-wide.q.offset]
    assert abs(at0_narrow - at0_wide) <= localization_bound_direct(t, 0.5, 12, 0)


@cache
def benchmark_window(eta: float, t: float):
    """(datum, lo, hi): the benchmark's 13-site compare datum of seed 1 at
    Szego product eta, and the window compare solves for it at n0 = 0."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import jobs
    finally:
        sys.path.pop(0)
    data, _ = jobs.build("compare", 1)
    q0 = data[jobs.COMPARE_ETAS.index(eta)]
    window, _, _ = solve_window_detailed(q0, t, 0, 1e-10)
    return q0, window.offset, window.offset + len(window.values) - 1


class TestLatticeRadius:
    """compare's reference lattice: the least radius whose truncation bound
    over the window is at most TRUNCATION_TOL."""

    cases = pytest.mark.parametrize("eta", [0.6, 0.22, 0.11])
    times = pytest.mark.parametrize("t", [0.5, 2.0, 6.0, 8.0, 20.0])

    @cases
    @times
    def test_agrees_with_a_lattice_twice_the_default_within_the_bound(self, eta, t):
        q0, lo, hi = benchmark_window(eta, t)
        radius = lattice_radius(q0, t, lo, hi)
        wide = 2 * max(default_radius(q0, t), abs(lo), abs(hi))
        (_, narrow), (_, far) = rk8_pair(q0, t, radius), rk8_pair(q0, t, wide)
        a, b = q0.support()
        norm = float(np.sum(np.abs(q0.values)))
        growth = math.exp(4 * (1 - q0.szego_product()) * t)
        for n in range(lo, hi + 1):
            bound = truncation_bound(q0, t, radius, n, n)
            assert abs(narrow.q.at(n) - far.q.at(n)) <= bound
            # The derivation's bound with exact Bessel values lies below it.
            exact = t * growth * norm * (
                iv(radius - n, 2 * t) * iv(radius + 1 - b, 2 * t)
                + iv(radius + n, 2 * t) * iv(radius + 1 + a, 2 * t))
            assert exact <= bound
        assert truncation_bound(q0, t, radius, lo, hi) <= TRUNCATION_TOL

    @cases
    @times
    def test_lies_between_the_reach_and_the_default(self, eta, t):
        q0, lo, hi = benchmark_window(eta, t)
        reach = max(abs(lo), abs(hi))
        radius = lattice_radius(q0, t, lo, hi)
        assert reach <= radius <= max(reach, default_radius(q0, t))
        # The least such radius: one less misses the tolerance.
        if radius > reach:
            assert truncation_bound(q0, t, radius - 1, lo, hi) > TRUNCATION_TOL

    @cases
    def test_no_time_gives_the_start_and_a_negative_time_its_modulus(self, eta):
        q0, lo, hi = benchmark_window(eta, 2.0)
        start = max(abs(lo), abs(hi), *map(abs, q0.support()))
        assert lattice_radius(q0, 0.0, lo, hi) == start
        assert lattice_radius(q0, 5e-324, lo, hi) == start
        for t in (0.5, 2.0, 20.0):
            assert lattice_radius(q0, -t, lo, hi) == lattice_radius(q0, t, lo, hi)
