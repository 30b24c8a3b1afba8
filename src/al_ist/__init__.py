"""Certified solver for the defocusing Ablowitz-Ladik lattice.

The pipeline: compactly supported datum -> transfer-matrix product (a, b)
-> reflection-side Schur function -> multiplication by a polynomial
surrogate of the evolution multiplier -> Schur's algorithm, whose
recurrence coefficients return the evolved datum with a certified
absolute-error budget.  The `compare` command checks the solver against
a direct integration of the lattice by the order-8 Runge-Kutta pair
(reference.rk8_pair), whose step-halving difference estimates its error.
"""

from .errors import (
    BlowUpError,
    InfeasibleParamsError,
    NonContractionError,
    NumericalGuardError,
    ValidationError,
)
from .laurent import (
    CircleGrid,
    LaurentPoly,
    lp_add,
    lp_conj_flip,
    lp_eval,
    lp_eval_grid,
    lp_mul,
    monomial,
)
from .sequence import Sequence
from .schur import (
    RationalSchur,
    SchurCoeffs,
    StabilityConstant,
    eta,
    iterate_energy_bound_check,
    l2_norm_circle,
    schur_coeffs,
    schur_step,
    stability_constant,
)
from .nlft import (
    Transfer2x2,
    fc_plus,
    nlft_forward,
    reflection_grid,
    rho_s,
    shift_check,
    szego_identity_check,
    transfer_factor,
)
from .multiplier import MultiplierBundle, bessel_j, delta_nt, g_bundle, p_poly, s_bound, tail_bound
from .solver import (
    ErrorBudget,
    SolveParams,
    localization_bound,
    localization_bound_direct,
    select_params,
    solve_point,
    solve_window,
    solve_window_detailed,
    t3_bound,
)
from .reference import (
    LatticeState,
    al_rhs,
    conserved_product,
    picard_solve,
    rk4_integrate,
    rk8_pair,
)
from .cli import JobSpec, run

__version__ = "0.1.0"

__all__ = [
    "BlowUpError",
    "CircleGrid",
    "ErrorBudget",
    "InfeasibleParamsError",
    "JobSpec",
    "LatticeState",
    "LaurentPoly",
    "MultiplierBundle",
    "NonContractionError",
    "NumericalGuardError",
    "RationalSchur",
    "SchurCoeffs",
    "Sequence",
    "SolveParams",
    "StabilityConstant",
    "Transfer2x2",
    "ValidationError",
    "al_rhs",
    "bessel_j",
    "conserved_product",
    "delta_nt",
    "eta",
    "fc_plus",
    "g_bundle",
    "iterate_energy_bound_check",
    "l2_norm_circle",
    "localization_bound",
    "localization_bound_direct",
    "lp_add",
    "lp_conj_flip",
    "lp_eval",
    "lp_eval_grid",
    "lp_mul",
    "monomial",
    "nlft_forward",
    "p_poly",
    "picard_solve",
    "reflection_grid",
    "rho_s",
    "rk4_integrate",
    "rk8_pair",
    "run",
    "s_bound",
    "schur_coeffs",
    "schur_step",
    "select_params",
    "shift_check",
    "solve_point",
    "solve_window",
    "solve_window_detailed",
    "stability_constant",
    "szego_identity_check",
    "t3_bound",
    "tail_bound",
    "transfer_factor",
]
