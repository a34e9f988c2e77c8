"""Exception types shared across the package.

PreconditionError covers rejected inputs (maps to CLI exit code 2),
CertificationError covers numerical certificates that failed to hold
(maps to CLI exit code 3).
"""

from __future__ import annotations

# the framing names seifert sums accept; here so that the CLI can offer them
# as choices without loading seifert
FRAMING_CONVENTIONS = ("bare", "canonical")


class PreconditionError(ValueError):
    """An input violates a documented precondition."""


class UnsupportedAlgebraError(PreconditionError):
    """Series/rank combination not implemented."""


class WeylGroupTooLargeError(PreconditionError):
    """Weyl group order exceeds the configured enumeration bound."""


class BudgetExceededError(PreconditionError):
    """A computation would exceed the limits it is priced against."""


class DegenerateOrbitError(PreconditionError):
    """Coadjoint orbit through a non-regular point was requested."""


class WallProximityError(PreconditionError):
    """Evaluation point is too close to a singular wall of j**(-1/2)."""


class CertificationError(RuntimeError):
    """A numerical certificate (unitarity, tail bound, ...) failed.

    When the certificate is a set of residuals against one threshold,
    residuals maps each name to its value, threshold is the bound they
    had to meet and precision the arithmetic they were computed in
    ("binary64"); otherwise they are None.
    """

    def __init__(self, message: str, residuals=None, threshold=None,
                 precision=None):
        super().__init__(message)
        self.residuals = residuals
        self.threshold = threshold
        self.precision = precision


class IntegralityError(CertificationError):
    """A quantity that must be a nonnegative integer is not one."""


class QuasiPolynomialFitError(CertificationError):
    """No exact quasi-polynomial fit within the requested bounds."""

    def __init__(self, message: str, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual
