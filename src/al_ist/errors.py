"""Error taxonomy shared across the package and mapped to CLI exit codes."""

from __future__ import annotations


class ValidationError(ValueError):
    """Bad input: malformed files, out-of-range parameters, bad sequences."""


class InfeasibleParamsError(ValidationError):
    """Certified window size, the work of its Schur pass, or the work of a
    Runge-Kutta run would exceed its cap."""


class NumericalGuardError(RuntimeError):
    """A runtime numerical guard tripped; the diagnostic names the guard."""


class BlowUpError(NumericalGuardError):
    """Integrator state approached the |q| = 1 barrier."""


class NonContractionError(NumericalGuardError):
    """Fixed-point iteration failed to reach the residual target."""
