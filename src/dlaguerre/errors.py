"""Exception types raised across the package."""


class DLaguerreError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedParameters(DLaguerreError, ValueError):
    """Input outside the operation's domain (also a ValueError)."""


class NoConvergence(DLaguerreError):
    """Iteration budget exhausted before reaching the requested tolerance."""


class QuadratureFailure(DLaguerreError):
    """Quadrature error estimate exceeds the tolerance at max refinement."""


class PrecisionExhausted(DLaguerreError):
    """Conditioning leaves too few correct digits at the working precision."""


class SingularHankel(DLaguerreError):
    """A leading moment determinant vanishes to working precision."""


class CrossCheckError(DLaguerreError):
    """Two independent computation routes disagree beyond tolerance."""


class DegenerateTheta(DLaguerreError):
    """theta_n at or near {0, -t}, where the auxiliary maps break down."""


class SingularRHS(DLaguerreError):
    """Flow right-hand side evaluated at a singular point."""


class SingularityEncountered(DLaguerreError):
    """Integration approached the singular locus; carries the last good t."""

    def __init__(self, message, t_last=None):
        super().__init__(message)
        self.t_last = t_last


class SingularPanel(DLaguerreError):
    """Residual panel contains points too close to a singular value."""
