"""Direct lattice integrators: RK4, the order-8 pair and Picard, plus
conservation checks."""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import cumulative_simpson
from scipy.integrate._ivp import dop853_coefficients as dop853

import al_ist.reference
from al_ist.datagen import random_sequence
from al_ist.errors import BlowUpError, InfeasibleParamsError, ValidationError
from al_ist.reference import (
    PICARD_MESH,
    RK4,
    RK8,
    RK8_STEP,
    LatticeState,
    _cumulative_simpson,
    _guard,
    _initial_array,
    _rhs,
    _rk_rows,
    al_rhs,
    conserved_product,
    default_radius,
    picard_solve,
    rk4_integrate,
    rk8_pair,
)
from al_ist.sequence import Sequence
from al_ist.solver import localization_bound_direct

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


def rk4_allocating(q0, t, h, radius=None, boundary="zero"):
    """The textbook RK4 loop with fresh arrays at every stage: the oracle
    for the in-place kernel of rk4_integrate."""
    if radius is None:
        radius = default_radius(q0, t)
    offset, y = _initial_array(q0, radius, boundary)
    _guard(y, "initialization")
    remaining = abs(t)
    sign = 1.0 if t >= 0 else -1.0
    while remaining > 0.0:
        step = sign * min(h, remaining)
        k1 = _rhs(y, boundary)
        y2 = y + 0.5 * step * k1
        _guard(y2, "rk4 stage")
        k2 = _rhs(y2, boundary)
        y3 = y + 0.5 * step * k2
        _guard(y3, "rk4 stage")
        k3 = _rhs(y3, boundary)
        y4 = y + step * k3
        _guard(y4, "rk4 stage")
        k4 = _rhs(y4, boundary)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _guard(y, "rk4 step")
        remaining -= abs(step)
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
            want = rk4_allocating(q0, t, h, radius, boundary)
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
            rk4_allocating(q0, 1.0, 0.1, 4, boundary)
        with pytest.raises(BlowUpError) as got:
            rk4_integrate(q0, 1.0, 0.1, 4, boundary)
        assert str(got.value) == str(want.value)
        context = "initialization" if margin == 0.0 else "rk4 stage"
        assert f"during {context}:" in str(got.value)

    def test_lowered_guard_trips_at_step_end(self, monkeypatch):
        monkeypatch.setattr(al_ist.reference, "MODULUS_GUARD", STEP_TRIP_GUARD)
        with pytest.raises(BlowUpError) as want:
            rk4_allocating(STEP_TRIP, 1.0, 0.1, 4)
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
            rk4_allocating(q0, 2 * h, h, 3)
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
                want.append(rk4_allocating(q0, t, step, radius, boundary))
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


def rk8_allocating(q0, t, h, radius):
    """RK8 with fresh arrays at every stage: the oracle for the kernel's
    tableau path.  It sums in the kernel's order (k_{i-1} down to k_0,
    then y) and tests every stage and step result."""
    offset, y = _initial_array(q0, radius, "zero")
    _guard(y, "initialization")
    a, b = RK8.a, RK8.b
    remaining = abs(t)
    sign = 1.0 if t >= 0 else -1.0
    while remaining > 0.0:
        step = sign * min(h, remaining)
        ks = []
        for i in range(len(b)):
            stage = y
            if i:
                acc = (a[i, i - 1] * step) * ks[i - 1]
                for j in range(i - 2, -1, -1):
                    acc = acc + (a[i, j] * step) * ks[j]
                stage = acc + y
                _guard(stage, "rk8 stage")
            ks.append(_rhs(stage, "zero"))
        acc = (b[-1] * step) * ks[-1]
        for j in range(len(b) - 2, -1, -1):
            acc = acc + (b[j] * step) * ks[j]
        y = acc + y
        _guard(y, "rk8 step")
        remaining -= abs(step)
    return LatticeState(Sequence(offset, y), t)


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
                want.append(rk8_allocating(q0, t, step, radius))
            except BlowUpError:
                tripped = True
        if tripped:
            with pytest.raises(BlowUpError, match="^modulus guard tripped during"):
                rk8_pair(q0, t, radius)
            return
        for got, run in zip(rk8_pair(q0, t, radius), want):
            assert got.q.offset == run.q.offset and got.t == run.t
            assert np.array_equal(got.q.values, run.q.values)

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
