"""Exception and warning types shared across the package."""

__all__ = ["MemfloError", "BoundViolation", "NoConvergence", "IncompleteSpectrum",
           "SingularJacobian", "NoCycle", "MatchedLine", "ConfigError",
           "SpectralResolutionWarning"]


class MemfloError(Exception):
    """Base class for all package-specific failures."""


class BoundViolation(MemfloError):
    """Memory transfer evaluated where the transfer is not finite, as below its decay abscissa."""


class NoConvergence(MemfloError):
    """An iterative solve ran out of iterations.

    ``trace`` holds the residual-norm history of the failed iteration.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class IncompleteSpectrum(MemfloError):
    """Exponents are missing: the certified and filtered classes fall short of
    the Hill states or of the contour root count, the contour encloses none, or
    an autonomous cycle's spectrum lacks its trivial class."""


class SingularJacobian(MemfloError):
    """Newton linear system is singular (typically near a fold point)."""


class NoCycle(MemfloError):
    """No periodic attractor was found from any seed at this parameter point."""


class MatchedLine(MemfloError):
    """Zero reflection coefficient: the resonator has no discrete spectrum."""


class ConfigError(MemfloError):
    """A run configuration failed schema validation."""


class SpectralResolutionWarning(UserWarning):
    """Trailing harmonic amplitudes are too large for the requested truncation."""
