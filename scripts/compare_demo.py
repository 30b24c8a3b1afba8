"""Side-by-side demo: certified scattering solve vs direct integration.

Draws a small random datum, evolves it both ways, and prints the per-site
deviation next to the certified budget.  The direct side is the fine row of
rk8_pair, the order-8 Runge-Kutta reference that the compare command uses.
The measured deviation should sit orders of magnitude below the budget,
which itself stays below eps.  It also prints the half-width N that
solve_point picks at site 0, sized from the datum's support, next to the
window solver's N, the localization radius r that it chose to minimize the
bound, and the widened half-width W = N + floor(N/2) and multiplier order
2W at which its Schur pass runs.

Usage: python scripts/compare_demo.py [--seed 3] [--t 1.0] [--eps 1e-6]
"""

from __future__ import annotations

import argparse

from al_ist.datagen import random_sequence
from al_ist.reference import rk8_pair
from al_ist.solver import select_params, solve_window_detailed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--t", type=float, default=1.0)
    parser.add_argument("--eps", type=float, default=1e-6)
    parser.add_argument("--sites", type=int, default=5)
    args = parser.parse_args()

    datum = random_sequence(args.seed, args.sites, -4, 4, 0.5)
    window, budgets, params = solve_window_detailed(datum, args.t, 0, args.eps)
    _, state = rk8_pair(datum, args.t, radius=60)

    print(f"datum sites {datum.support()}, eta = {datum.szego_product():.6f}")
    point = select_params(args.t, args.eps, params.eta, 0, support=datum.support())
    W = params.N + params.N // 2
    print(
        f"window N = {params.N} at radius r = {params.r:.4f}; "
        f"its pass runs over half-width W = {W} at multiplier order 2W = {2 * W}"
    )
    print(f"point solve at n0 = 0: N = {point.N}, multiplier order n = {point.n}")
    print(f"{'n':>5}  {'|solve - rk8|':>14}  {'budget':>12}")
    for i, value in enumerate(window.values):
        n = window.offset + i
        deviation = abs(value - state.q.at(n))
        print(f"{n:>5}  {deviation:>14.3e}  {budgets[i]:>12.3e}")
    worst = max(
        abs(v - state.q.at(window.offset + i)) for i, v in enumerate(window.values)
    )
    print(f"worst deviation {worst:.3e}, largest budget {budgets.max():.3e}")


if __name__ == "__main__":
    main()
