"""A 50-digit mpmath oracle of the point pass, against solve_point's value.

The oracle repeats the pass in exact-enough arithmetic from the same float64
inputs: the datum mirrored about n0 where solve_point mirrors it (when it
reaches less far right of n0 than left), then windowed and shifted as the
solver does, its transfer
product site by site, G = (1 - delta) z^n P on the band |k| <= min(n, M)
with the float delta and 50-digit J_k(2t), the product G conj-flip(b), and
Schur's recursion from the numerator's first nonzero coefficient.  So it
differs from the float64 pass only by that pass's roundoff and the error of
its Bessel table.
"""

from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

import al_ist.nlft
from al_ist.multiplier import _bessel_start, delta_nt
from al_ist.sequence import Sequence
from al_ist.solver import POINT, plan, select_params, solve_point

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
DPS = 50
I_POWERS = (1, mpmath.mpc(0, 1), -1, mpmath.mpc(0, -1))


@lru_cache(maxsize=None)
def bessel(k: int, x: float):
    return mpmath.besselj(k, mpmath.mpf(x))


def poly_mul(p: dict, q: dict) -> dict:
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def point_oracle(q0, t: float, n0: int, eps: float) -> complex:
    """q(t, n0) from the point pass of solve_point, for t > 0, in DPS digits:
    on the datum mirrored about n0 when hi - n0 < n0 - lo, as solve_point
    runs it, and on the datum itself otherwise; N from the datum itself."""
    q0 = q0.trimmed()
    lo, hi = q0.offset, q0.offset + len(q0.values) - 1
    N = select_params(t, eps, q0.szego_product(), n0, support=(lo, hi)).N
    point = plan(q0, t, n0, eps, POINT)
    assert (point.params.N, point.W) == (N, N)
    if hi - n0 < n0 - lo:
        q0 = q0.reflected(n0)
    W, n, steps = point.W, point.order, point.steps
    assert point.source == q0.windowed(n0 - W, n0 + W)
    with mpmath.workdps(DPS):
        # Top row (a, b) of the ordered product of the shifted window's
        # factors, as exponent -> coefficient.
        a, b = {0: mpmath.mpf(1)}, {}
        for site in range(n0 - W, n0 + W + 1):
            if q0.at(site) != 0:
                a, b = append_site(a, b, mpmath.mpc(q0.at(site)), site - (n0 - W))
        # G = (1 - delta) z^n P: P's coefficients at k and -k are i^|k| J_|k|(2t).
        m = min(n, _bessel_start(2.0 * t))
        scale = 1 - mpmath.mpf(delta_nt(n, t))
        g = {n + k: scale * I_POWERS[abs(k) % 4] * bessel(abs(k), 2.0 * t) for k in range(-m, m + 1)}
        num = poly_mul(g, {-e: mpmath.conj(x) for e, x in b.items()})
        lead = min(e for e, x in num.items() if x != 0)
        assert lead == point.lead < steps and min(a) == 0
        length = steps - lead
        p = [num.get(lead + j, 0) for j in range(length)]
        q = [a.get(j, 0) for j in range(length)]
        for _ in range(length):
            gamma = p[0] / q[0]
            p, q = ([x - gamma * y for x, y in zip(p[1:], q[1:])],
                    [y - mpmath.conj(gamma) * x for x, y in zip(p[:-1], q[:-1])])
        return complex(gamma)


def append_site(a: dict, b: dict, v, k: int):
    """(a, b) times the factor c [[1, conj(v) z^-k], [v z^k, 1]] of a site at
    index k with value v, c = (1 - |v|^2)^(-1/2)."""
    c = 1 / mpmath.sqrt(1 - abs(v) ** 2)
    new_a, new_b = {}, {}
    for e, x in a.items():
        new_a[e] = new_a.get(e, 0) + c * x
        new_b[e - k] = new_b.get(e - k, 0) + c * mpmath.conj(v) * x
    for e, x in b.items():
        new_a[e + k] = new_a.get(e + k, 0) + c * v * x
        new_b[e] = new_b.get(e, 0) + c * x
    return new_a, new_b


@pytest.mark.parametrize("seed", [1, 2])
def test_point_values_match_a_50_digit_oracle(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import jobs

    data, point_round = jobs.build("point", seed)
    for job in point_round:
        args = (data[job["datum"]], job["t"], job["n0"], job["eps"])
        value, _ = solve_point(*args)
        assert abs(value - point_oracle(*args)) <= 1e-14, job


@pytest.mark.parametrize("t", [2.0, 6.0])
def test_gapped_datum_matches_the_oracle(t, monkeypatch):
    # Two clusters of 21 sites, 14 zero sites apart: more than DIRECT_SITES
    # nonzero sites, so the pass multiplies one product tree over the
    # 56-site span, gap included.
    trees = []
    tree = al_ist.nlft._tree_product

    def recording(values, start):
        trees.append(len(values))
        return tree(values, start)

    monkeypatch.setattr(al_ist.nlft, "_tree_product", recording)
    rng = np.random.default_rng(27)
    values = np.zeros(56, dtype=np.complex128)
    for cluster in (slice(0, 21), slice(35, 56)):
        values[cluster] = rng.uniform(0.02, 0.12, 21) * np.exp(2j * np.pi * rng.uniform(size=21))
    q0 = Sequence(-28, values)
    for n0 in (-26, 0, 25):
        value, _ = solve_point(q0, t, n0, 1e-10)
        assert abs(value - point_oracle(q0, t, n0, 1e-10)) <= 1e-14, n0
    assert trees == [56] * 3
