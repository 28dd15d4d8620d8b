"""Exception taxonomy shared by all certlap modules."""


class ToolkitError(Exception):
    """Base class for all certlap errors."""


class SweepRangeError(ToolkitError):
    """N is outside the admissible range (N must exceed n_zero and the
    shrinking window around the maximizer must fit inside the certified
    neighborhood)."""


class AmbiguousMaximumError(ToolkitError):
    """Grid maximizer sits within one cell of a box face but neither the
    interior nor the boundary gradient test is conclusive."""


class NonUniqueMaximumError(ToolkitError):
    """Two non-adjacent grid cells attain the maximum within tolerance."""


class FieldEvaluationError(ToolkitError):
    """A field returned a non-finite value on a grid, or a batch of the
    wrong shape."""


class DefinitenessError(ToolkitError):
    """Hessian fails to be negative definite on the certified neighborhood."""


class AssumptionViolationError(ToolkitError):
    """A certified constant came out nonpositive (or a structural assumption
    failed); ``constant`` names the offending quantity."""

    def __init__(self, constant: str, message: str = ""):
        self.constant = constant
        super().__init__(f"{constant}: {message}" if message else constant)


class TheoremMismatchError(ToolkitError):
    """The requested approximation does not apply to this maximum type or
    dimension."""


class DegenerateHessianError(ToolkitError):
    """(Tangent) Hessian at the maximizer is numerically singular."""


class MissingConstantError(ToolkitError):
    """A boundary-only constant is absent from the report."""


class DomainError(ToolkitError):
    """A point/box escapes the domain, or a parameter is out of range."""


class UnsupportedDimensionError(ToolkitError):
    """Oracle integration is limited to m <= 4."""


class QuadratureBudgetError(ToolkitError):
    """Panel/order budget exhausted before convergence; carries the best
    estimate computed so far."""

    def __init__(self, message: str, best=None):
        self.best = best
        super().__init__(message)


class TiltTooLargeError(ToolkitError):
    """Exponential tilt pushes the maximizer out of the certified
    neighborhood."""


class MgfPoleError(ToolkitError):
    """Boundary-axis tilt at or beyond the exponential MGF pole."""


class EnvelopeFailureError(ToolkitError):
    """Rejection-sampling envelope failed (acceptance rate below floor or a
    drawn point exceeded the certified bound)."""

    def __init__(self, message: str, acceptance_rate: float | None = None):
        self.acceptance_rate = acceptance_rate
        super().__init__(message)


class InsufficientSampleError(ToolkitError):
    """Too few samples for the requested statistic."""


class ConfigError(ToolkitError):
    """Problem or run configuration failed to parse/validate."""
