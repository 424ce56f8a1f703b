"""Exception types used across the package."""

__all__ = [
    "PhononetError",
    "ValidationError",
    "StabilityError",
    "SingularFrequencyError",
    "ConfigError",
    "FitError",
    "DesignFailureError",
    "NumericalError",
]


class PhononetError(Exception):
    """Base class for all errors raised by phononet."""


class ValidationError(PhononetError):
    """A network, schedule or parameter set violates its invariants."""


class StabilityError(PhononetError):
    """The drift matrix has an eigenvalue with negative real part."""


class SingularFrequencyError(PhononetError):
    """The response matrix M - i*omega*I is singular at the requested frequency."""


class ConfigError(PhononetError):
    """A run configuration is malformed (unknown key, missing key, bad value)."""


class FitError(PhononetError):
    """Spectrum fitting failed (no interior minimum, or no convergence)."""


class DesignFailureError(PhononetError):
    """A pulse or drive design target could not be reached."""


class NumericalError(PhononetError):
    """An integrator or quadrature failed to meet its tolerance."""
