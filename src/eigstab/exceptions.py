"""Exception types shared across the package."""


class EigstabError(Exception):
    """Base class for all package-specific errors."""


class InvalidExponentError(EigstabError, ValueError):
    """An L^p exponent is outside the admissible range for the operation."""


class DegenerateInputError(EigstabError, ValueError):
    """An input is identically zero (or otherwise degenerate) where a
    nonzero function is required."""


class DimensionMismatchError(EigstabError, ValueError):
    """Two objects live on different measures or grids."""


class PreconditionError(EigstabError, ValueError):
    """A documented precondition (normalization, sign, tolerance) fails."""


class UnsupportedChannelError(EigstabError, ValueError):
    """An angular-momentum channel is not available on this grid."""


class UnsupportedShiftError(EigstabError, ValueError):
    """A nonzero translation was requested on a radial grid."""


class ConvergenceError(EigstabError, RuntimeError):
    """An iterative solver failed to converge.

    Carries the best iterate found so far in ``best``.
    """

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual
