"""Exception types shared across the package.

ConfigurationError maps to CLI exit code 2, SolverError to exit code 3.
"""

import cmath
from dataclasses import fields, is_dataclass


class BixsimError(Exception):
    """Base class for package errors."""


class ConfigurationError(BixsimError):
    """Invalid or inconsistent user-supplied configuration."""


class SolverError(BixsimError):
    """A numerical solve failed or did not meet its tolerance."""


def require_finite(section, where: str = "") -> None:
    """Raise ConfigurationError naming the first float or complex field of the
    config dataclass `section`, nested sections included, that is NaN or
    infinite, as `where` + "section.field"."""
    for f in fields(section):
        v = getattr(section, f.name)
        if is_dataclass(v):
            require_finite(v, f"{where}{f.name}.")
        elif isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise ConfigurationError(f"{where}{f.name} must be finite, got {v!r}")
