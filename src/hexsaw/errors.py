"""Exception types shared across the package."""


class HexsawError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(HexsawError, ValueError):
    """A model or domain parameter is outside its admissible range."""


class ScalarModeError(HexsawError, TypeError):
    """Exact and floating-point scalars were mixed in one computation."""


class TruncationError(HexsawError):
    """A finite strip prefix was too narrow for the requested walk length."""


class CapacityError(HexsawError):
    """A size guard was exceeded (domain too large for the requested task)."""


class DivergenceError(CapacityError):
    """A strip series was summed where it diverges (y >= y_T)."""


class NonConvergenceError(HexsawError):
    """An iterative solve (power iteration, root search) failed to converge."""


class ClassificationError(HexsawError):
    """A walk does not belong to the class an operation requires."""
