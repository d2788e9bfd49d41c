"""Exception types shared across the toolkit."""


class ZrsError(Exception):
    """Base class for all toolkit errors."""


class DuplicatePoint(ZrsError):
    """Two scatterer positions coincide (closer than the duplicate epsilon)."""


class BadParams(ZrsError):
    """A parameter is out of its documented range (weights, lambda, b, n0, ...)."""


class ZeroDistance(ZrsError):
    """Free Green function evaluated at zero separation."""


class BadOrder(ZrsError):
    """Quadrature grid request is invalid: order not a positive integer or
    above the cap."""


class GridMismatch(ZrsError):
    """Sphere function and grid are incompatible."""


class SingularMatrix(ZrsError):
    """Matrix inversion failed; carries the reciprocal-condition estimate."""

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class SingularSchurComplement(SingularMatrix):
    """The Schur complement block could not be inverted."""


class TailNotContractive(ZrsError):
    """The tail bound p_{N0,L}(b) is >= 1, so the Schur route is not admitted."""

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class NonPositiveGram(ZrsError):
    """Gram matrix lost positive definiteness (coincident points or numerics)."""


class FitUnstable(ZrsError):
    """Local 1/rho fit near a scatterer is too ill-conditioned to trust."""
