"""Transfer-matrix product, reflection coefficient, and scattering identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from al_ist.datagen import dense_random_sequence, random_sequence
from al_ist.errors import ValidationError
from al_ist.laurent import CircleGrid, LaurentPoly, lp_eval_grid, witness_grid
import al_ist.nlft
from al_ist.nlft import (
    DIRECT_SITES,
    UNITARITY_TOL,
    Transfer2x2,
    fc_plus,
    grid_identities,
    identity_grid,
    nlft_forward,
    nlft_forward_naive,
    reflection_grid,
    rho_s,
    shift_check,
    szego_identity_check,
    transfer_factor,
)
from al_ist.schur import schur_coeffs
from al_ist.sequence import Sequence

from strategies import disk_sequences, disk_values


def seq(offset, values):
    return Sequence(offset, np.asarray(values, dtype=np.complex128))


def entry_distance(x: LaurentPoly, y: LaurentPoly) -> float:
    d = x - y
    return 0.0 if d.is_zero else float(np.max(np.abs(d.coeffs)))


class TestTransferFactor:
    def test_zero_site_is_identity(self):
        m = transfer_factor(0.0, 5)
        assert m.a == LaurentPoly(0, [1.0]) and m.b.is_zero

    def test_single_site_at_origin(self):
        s = 0.3 - 0.4j
        m = transfer_factor(s, 0)
        c = 1.0 / math.sqrt(1.0 - abs(s) ** 2)
        assert abs(m.a.coefficient(0) - c) <= 1e-15
        assert abs(m.b.coefficient(0) - np.conj(s) * c) <= 1e-15

    def test_site_three_carries_z_minus_three(self):
        m = transfer_factor(0.5, 3)
        assert m.b.min_deg == -3 and m.b.max_deg == -3

    def test_rejects_unimodular(self):
        with pytest.raises(ValidationError):
            transfer_factor(1.0, 0)


class TestForward:
    def test_zero_sequence(self):
        m = nlft_forward(seq(0, [0.0, 0.0]))
        assert m.a == LaurentPoly(0, [1.0]) and m.b.is_zero

    def test_single_site_equals_factor(self):
        s = 0.2 + 0.6j
        m = nlft_forward(seq(4, [s]))
        f = transfer_factor(s, 4)
        assert entry_distance(m.a, f.a) == 0.0
        assert entry_distance(m.b, f.b) == 0.0

    def test_dyadic_matches_naive_six_sites(self):
        q = random_sequence(seed=9, count=6, lo=-5, hi=6, max_modulus=0.6)
        fast = nlft_forward(q)
        slow = nlft_forward_naive(q)
        assert entry_distance(fast.a, slow.a) <= 1e-11
        assert entry_distance(fast.b, slow.b) <= 1e-11

    def test_validate_passes_on_random_datum(self):
        q = random_sequence(seed=21, count=12, lo=-8, hi=9, max_modulus=0.7)
        m = nlft_forward(q).validate()
        assert m.unitarity_residual() <= 1e-9

    def test_a_at_zero_is_szego_rooted(self):
        q = random_sequence(seed=33, count=7, lo=-3, hi=8, max_modulus=0.6)
        a0 = nlft_forward(q).a_at_zero()
        assert abs(a0.imag) <= 1e-12 * a0.real
        assert abs(a0.real - 1.0 / math.sqrt(q.szego_product())) <= 1e-12 * a0.real

    def test_outer_normalization(self):
        q = random_sequence(seed=5, count=6, lo=-4, hi=6, max_modulus=0.6)
        m = nlft_forward(q)
        g = identity_grid(q)
        mean_log = float(np.mean(np.log(np.abs(lp_eval_grid(m.a, g)) ** 2)))
        assert abs(mean_log - 2.0 * math.log(m.a_at_zero().real)) <= 1e-8


class TestFcPlus:
    def test_single_site_constant(self):
        s = 0.3 + 0.2j
        f = fc_plus(seq(0, [s]))
        assert abs(f.value_at_zero() - s) <= 1e-15

    def test_zero(self):
        f = fc_plus(seq(0, [0.0]))
        assert f.num.is_zero

    def test_recovers_the_sequence(self):
        f = fc_plus(seq(0, [0.2, 0.4j]))
        c = schur_coeffs(f, 4)
        assert np.max(np.abs(c.gammas - [0.2, 0.4j, 0.0, 0.0])) <= 1e-12

    @pytest.mark.parametrize(
        "sites, top", [(8, 0.5), (16, 0.5), (32, 0.3), (64, 0.3), (128, 0.2), (1024, 0.04)]
    )
    def test_round_trip_of_dense_data(self, sites, top):
        # Seeds 1-60 of each class come back within 256 eps; the worst
        # measured is 84 eps (64 sites).  The error grows as eta falls, and
        # no budget covers it yet, so classes of small eta are left out.
        for seed in range(1, 61):
            q = dense_random_sequence(seed, 0, sites, top, 0.01)
            gammas = schur_coeffs(fc_plus(q), len(q.values)).gammas
            assert np.max(np.abs(q.values - gammas)) <= 256 * np.finfo(float).eps, seed

    def test_rejects_negative_support(self):
        with pytest.raises(ValidationError):
            fc_plus(seq(-1, [0.5]))

    def test_degree_bounded_by_support(self):
        q = random_sequence(seed=13, count=5, lo=0, hi=9, max_modulus=0.6)
        f = fc_plus(q)
        top = q.support()[1]
        assert f.num.max_deg <= top and f.den.max_deg <= top


class TestReflection:
    def test_zero(self):
        vals = reflection_grid(seq(0, [0.0]), CircleGrid(16))
        assert np.max(np.abs(vals)) == 0.0

    def test_single_site_constant_conjugate(self):
        s = 0.4 - 0.1j
        vals = reflection_grid(seq(0, [s]), CircleGrid(16))
        assert np.max(np.abs(vals - np.conj(s))) <= 1e-14

    def test_modulus_identity(self):
        # 1 - |r|^2 = 1/|a|^2 on the circle
        q = random_sequence(seed=17, count=4, lo=-3, hi=4, max_modulus=0.6)
        g = identity_grid(q)
        refl = reflection_grid(q, g)
        a_vals = lp_eval_grid(nlft_forward(q).a, g)
        assert np.max(np.abs(1.0 - np.abs(refl) ** 2 - 1.0 / np.abs(a_vals) ** 2)) <= 1e-11

    def test_rejects_interior_grid(self):
        with pytest.raises(ValidationError):
            reflection_grid(seq(0, [0.3]), CircleGrid(16, 0.5))


class TestSzegoIdentity:
    def test_zero(self):
        lhs, rhs, from_a = szego_identity_check(seq(0, [0.0]), CircleGrid(64))
        assert lhs == 0.0 and rhs == 0.0 and from_a == 0.0

    def test_single_half(self):
        lhs, rhs, from_a = szego_identity_check(seq(2, [0.5]), CircleGrid(256))
        want = math.log(0.75)
        assert abs(rhs - want) <= 1e-15
        assert abs(lhs - want) <= 1e-10
        assert abs(from_a - want) <= 1e-13

    def test_eight_random_sites(self):
        q = random_sequence(seed=71, count=8, lo=-6, hi=7, max_modulus=0.7)
        lhs, rhs, from_a = szego_identity_check(q, CircleGrid(4096))
        assert abs(lhs - rhs) <= 1e-9
        assert abs(from_a - rhs) <= 1e-10


class TestShiftLaw:
    def test_zero(self):
        assert shift_check(seq(0, [0.0]), 3, CircleGrid(64)) == 0.0

    def test_single_site_shift_one(self):
        assert shift_check(seq(0, [0.45]), 1, CircleGrid(128)) <= 1e-11

    def test_five_sites_shift_minus_three(self):
        q = random_sequence(seed=29, count=5, lo=-4, hi=5, max_modulus=0.6)
        assert shift_check(q, -3, identity_grid(q)) <= 1e-10


class TestRhoS:
    def test_identical(self):
        h = np.full(32, 0.3 + 0.1j)
        assert rho_s(h, h) == 0.0

    def test_against_zero(self):
        h = np.full(64, 0.5 + 0.0j)
        want = math.sqrt(-math.log(1.0 - 0.25))
        assert abs(rho_s(h, np.zeros(64)) - want) <= 1e-13

    def test_constant_pair_closed_form(self):
        h1 = np.full(16, 0.3 + 0.0j)
        h2 = np.full(16, 0.1 + 0.0j)
        quotient = 0.2 / 0.97
        want = math.sqrt(-math.log(1.0 - quotient**2))
        assert abs(rho_s(h1, h2) - want) <= 1e-13

    def test_boundary_pair_is_infinite(self):
        h1 = np.full(8, 1.0 + 0.0j)
        h2 = np.zeros(8)
        assert math.isinf(rho_s(h1, h2))


@settings(max_examples=30, deadline=None)
@given(disk_sequences(max_len=8, max_modulus=0.7))
def test_dyadic_equals_naive(q):
    fast = nlft_forward(q)
    slow = nlft_forward_naive(q)
    scale = max(1.0, float(np.max(np.abs(slow.a.coeffs))))
    assert entry_distance(fast.a, slow.a) <= 1e-10 * scale
    assert entry_distance(fast.b, slow.b) <= 1e-10 * scale


@settings(max_examples=30, deadline=None)
@given(disk_sequences(max_len=8, max_modulus=0.7))
def test_unitarity_property(q):
    assert nlft_forward(q).unitarity_residual() <= 1e-9


@pytest.fixture(scope="module")
def wide_product():
    """Transfer product of 8192 dense sites with 0.02 <= |q| <= 0.04;
    max |a|^2 on the circle is near 1e9, so an absolute 1e-9 unitarity
    tolerance would sit below the roundoff of |a|^2."""
    return nlft_forward(dense_random_sequence(5, 0, 8192, 0.04, 0.02))


def test_validate_accepts_wide_dense_product(wide_product):
    assert wide_product.validate() is wide_product


def test_validate_refuses_scaled_b_on_wide_product(wide_product):
    with pytest.raises(ValidationError, match="unitarity residual"):
        Transfer2x2(wide_product.a, 1.01 * wide_product.b).validate()


def test_validate_refuses_scaled_b_on_small_product():
    m = nlft_forward(random_sequence(seed=21, count=12, lo=-8, hi=9, max_modulus=0.7))
    with pytest.raises(ValidationError, match="unitarity residual"):
        Transfer2x2(m.a, 1.01 * m.b).validate()


def test_validate_refuses_a_nan_coefficient():
    # NaN compares false, so only a "not within" test refuses its residual.
    with pytest.raises(ValidationError, match="unitarity residual nan"):
        Transfer2x2(LaurentPoly(0, [1.0, math.nan]), LaurentPoly(0, [0.0])).validate()


def test_validate_refuses_a_reflection_coefficient_outside_the_disk():
    # 20 sites of modulus 0.999999: the float64 a cancels to exactly 0 at
    # some nodes, which the residual relative to max |a|^2 lets through,
    # but |b| >= |a| there.
    # Roundoff decides how many nodes fail (595 of 1024 with numpy's AVX-512
    # kernels, 461 with its baseline ones), so the count is taken from the
    # same grid values.
    m = nlft_forward(seq(0, 0.999999 * np.exp(1j * np.arange(20))))
    grid = witness_grid(m.a, m.b)
    av, bv = m.grid_values(grid)
    assert m.unitarity_residual() <= UNITARITY_TOL * float(np.max(np.abs(av) ** 2))
    assert np.min(np.abs(av)) == 0.0
    outside = np.count_nonzero(~(np.abs(bv) ** 2 < np.abs(av) ** 2))
    assert outside > 0
    refusal = f"at {outside} of {grid.size} witness nodes: the reflection"
    with pytest.raises(ValidationError, match=refusal):
        m.validate()


def test_unitarity_witness_grid_follows_the_span(wide_product):
    g = witness_grid(wide_product.a, wide_product.b)
    span = wide_product.a.max_deg - wide_product.a.min_deg
    assert g.size >= 2 * (span + 1) and (g.size & (g.size - 1)) == 0


@st.composite
def gapped_sequences(draw):
    """More than DIRECT_SITES nonzero sites, so that nlft_forward takes the
    product tree, each followed by a zero run: the runs are often short and
    sometimes up to 80 sites long, so that the tree spans long gaps; on
    about a third of the draws skipping them pays, and it copies identity
    blocks."""
    sites = draw(st.lists(disk_values(0.7, allow_zero=False), min_size=DIRECT_SITES + 1,
                          max_size=DIRECT_SITES + 20))
    gaps = draw(st.lists(st.integers(0, 5) | st.integers(0, 80), min_size=len(sites),
                         max_size=len(sites)))
    values = [v for site, gap in zip(sites, gaps) for v in [site] + [0j] * gap]
    return Sequence(draw(st.integers(-120, 120)), np.asarray(values, dtype=np.complex128))


def assert_matches_naive(q):
    fast = nlft_forward(q)
    slow = nlft_forward_naive(q)
    for x, y in ((fast.a, slow.a), (fast.b, slow.b)):
        assert (x.min_deg, x.max_deg) == (y.min_deg, y.max_deg)
        scale = 1.0 + float(np.max(np.abs(y.coeffs)))
        assert float(np.max(np.abs(x.coeffs - y.coeffs))) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(gapped_sequences())
def test_batched_tree_equals_naive(q):
    assert_matches_naive(q)


@pytest.mark.parametrize("sites", [DIRECT_SITES - 1, DIRECT_SITES, DIRECT_SITES + 1])
def test_run_product_on_both_sides_of_the_direct_size(sites, monkeypatch):
    # `sites` nonzero sites, moduli up to 0.999, spread over 64 sites with
    # zero runs between them: site by site up to DIRECT_SITES nonzero sites,
    # by the FFT tree above.  Entries reach 1e9-1e15, and cancellation costs
    # digits on both sides; against the naive product the worst of 90 such
    # draws was 2.3e-13 of the largest entry.
    trees = []
    tree = al_ist.nlft._tree_product

    def recording(values, start):
        trees.append(len(values))
        return tree(values, start)

    monkeypatch.setattr(al_ist.nlft, "_tree_product", recording)
    rng = np.random.default_rng(sites)
    modulus = rng.uniform(0.0, 0.999, sites)
    modulus[rng.choice(sites, 3)] = 0.999
    modulus[[0, -1]] = 0.999
    inner = np.sort(rng.choice(np.arange(1, 63), sites - 2, replace=False))
    where = np.concatenate([[0], inner, [63]])
    values = np.zeros(64, dtype=np.complex128)
    values[where] = modulus * np.exp(2j * np.pi * rng.uniform(size=sites))
    q = seq(-20, values)
    assert np.count_nonzero(values) == sites
    fast, slow = nlft_forward(q), nlft_forward_naive(q)
    assert trees == ([64] if sites > DIRECT_SITES else [])
    for x, y in ((fast.a, slow.a), (fast.b, slow.b)):
        assert (x.min_deg, x.max_deg) == (y.min_deg, y.max_deg)
        assert float(np.max(np.abs(x.coeffs - y.coeffs))) <= 1e-11 * float(np.max(np.abs(y.coeffs)))


def test_all_zero_datum_is_identity():
    m = nlft_forward(seq(-7, np.zeros(96)))
    assert m.a == LaurentPoly(0, [1.0]) and m.b.is_zero


def test_three_sites_over_a_wide_span():
    # Three nonzero sites, gaps of 2^15 zero sites apart, in one product tree.
    values = np.zeros(2**16, dtype=np.complex128)
    values[[0, 2**15, 2**16 - 1]] = [0.3, 0.4j, -0.2 + 0.1j]
    q = seq(-(2**15), values)
    assert_matches_naive(q)
    nlft_forward(q).validate()


def fft_points(q, monkeypatch) -> int:
    """The points np.fft.fft transforms while nlft_forward(q) runs: the
    tree's work, counted instead of timed."""
    points = []
    fft = np.fft.fft

    def counting(x, n=None, axis=-1, **kwargs):
        points.append(x.size // x.shape[axis] * (n or x.shape[axis]))
        return fft(x, n=n, axis=axis, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "fft", counting)
        nlft_forward(q)
    return sum(points)


def test_few_sites_over_a_wide_span_take_no_fft(monkeypatch):
    # DIRECT_SITES nonzero sites or fewer are multiplied site by site at any
    # span: the three sites over 2^16 of the test above take no FFT.
    values = np.zeros(2**16, dtype=np.complex128)
    values[[0, 2**15, 2**16 - 1]] = [0.3, 0.4j, -0.2 + 0.1j]
    assert fft_points(seq(-(2**15), values), monkeypatch) == 0


def test_identity_blocks_are_not_multiplied(monkeypatch):
    # Two 48-site clusters 4 000 zero sites apart, against the same span
    # with no zero site: the tree multiplies the clusters' blocks and the
    # one pair that joins them, and copies every block beside an identity.
    rng = np.random.default_rng(9)
    dense = rng.uniform(0.05, 0.3, 4096) * np.exp(2j * np.pi * rng.uniform(size=4096))
    gapped = dense.copy()
    gapped[48:-48] = 0.0
    full = fft_points(seq(-100, dense), monkeypatch)
    assert full == 12 * 4 * 4096  # 12 levels, each 4 rows of 2w points per pair of width w
    sparse = fft_points(seq(-100, gapped), monkeypatch)
    assert sparse <= full // 8
    assert_matches_naive(seq(-100, gapped))


@pytest.mark.parametrize(
    "zeros, skips",
    [(slice(408, -408), True), (slice(409, -409), False), (slice(700, 701), False)],
    ids=["clusters-408", "clusters-409", "one-zero"],
)
def test_identity_blocks_are_skipped_where_that_pays(zeros, skips, monkeypatch):
    # 2 048 sites with a zero run: between two end clusters of 408 sites the
    # pairs the tree still multiplies weigh little enough that skipping the
    # identity blocks pays, at 409 they do not, and one zero site in a dense
    # run never pays.  Either branch is the naive product.
    copies = []
    copy_singles = al_ist.nlft._copy_singles

    def recording(*args):
        copies.append(args[2])
        return copy_singles(*args)

    monkeypatch.setattr(al_ist.nlft, "_copy_singles", recording)
    rng = np.random.default_rng(12)
    values = rng.uniform(0.01, 0.3, 2048) * np.exp(2j * np.pi * rng.uniform(size=2048))
    values[zeros] = 0.0
    assert_matches_naive(seq(-30, values))
    assert bool(copies) == skips


@pytest.mark.parametrize(
    "q",
    [
        random_sequence(seed=71, count=8, lo=-6, hi=7, max_modulus=0.7),
        dense_random_sequence(23, -300, 1024, 0.04, 0.01),  # the FFT tree
        seq(5, [0.5]),
    ],
)
def test_grid_identities_are_the_separate_checks_bit_for_bit(q):
    g = identity_grid(q)
    m = nlft_forward(q)
    lhs, rhs, residual = grid_identities(q, *m.grid_values(g))
    s_lhs, s_rhs, _ = szego_identity_check(q, g, m)
    assert [v.hex() for v in (lhs, rhs, residual)] == [
        v.hex() for v in (s_lhs, s_rhs, m.unitarity_residual(g))
    ]


def test_szego_check_reuses_a_given_product():
    q = random_sequence(seed=71, count=8, lo=-6, hi=7, max_modulus=0.7)
    g = CircleGrid(4096)
    assert szego_identity_check(q, g, nlft_forward(q)) == szego_identity_check(q, g)
