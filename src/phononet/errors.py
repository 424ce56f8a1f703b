"""Exception types used across the package, and the checks of parameter numbers."""

import numpy as np

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


def _check_fields(fields, *, positive=(), nonnegative=(), prefix=""):
    """ValidationError "<prefix><name> must be finite[ and > 0 | and >= 0], got <value>
    [at index i]", the value a plain Python number, for the first entry of ``fields``
    (name -> number or array) that is not finite, or not > 0 (named in ``positive``)
    or >= 0 (in ``nonnegative``).  NaN fails every rule."""
    for name, value in fields.items():
        arr = np.asarray(value)
        ok, rule = np.isfinite(arr), ""
        if name in positive:
            ok, rule = ok & (arr > 0), " and > 0"
        elif name in nonnegative:
            ok, rule = ok & (arr >= 0), " and >= 0"
        if not np.all(ok):
            i = int(np.argmin(ok, axis=None))  # the first False
            got = repr(arr.flat[i].item()) + (f" at index {i}" if arr.ndim else "")
            raise ValidationError(f"{prefix}{name} must be finite{rule}, got {got}")


def _check_count(name, value, minimum, prefix=""):
    """ValidationError unless ``value`` is an integer >= ``minimum`` (no bool, no 3.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        got = value.item() if isinstance(value, np.generic) else value  # 1, not np.int64(1)
        raise ValidationError(f"{prefix}{name} must be an integer >= {minimum}, got {got!r}")
