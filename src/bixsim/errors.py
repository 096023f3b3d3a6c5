"""Exception types shared across the package.

ConfigurationError maps to CLI exit code 2, SolverError to exit code 3.
"""

import cmath
import numbers
from dataclasses import fields, is_dataclass


class BixsimError(Exception):
    """Base class for package errors."""


class ConfigurationError(BixsimError):
    """Invalid or inconsistent user-supplied configuration."""


class SolverError(BixsimError):
    """A numerical solve failed or did not meet its tolerance."""


def check_numbers(section, where: str = "") -> None:
    """Raise ConfigurationError naming the first field of the config dataclass
    `section`, nested sections included, that is a NaN or infinite float or
    complex, or that is declared int but holds a float or a bool, as
    `where` + "section.field".  Python and numpy integers pass."""
    for f in fields(section):
        v = getattr(section, f.name)
        if is_dataclass(v):
            check_numbers(v, f"{where}{f.name}.")
        elif isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise ConfigurationError(f"{where}{f.name} must be finite, got {v!r}")
        elif f.type in ("int", int) and (
            isinstance(v, bool) or not isinstance(v, numbers.Integral)
        ):
            raise ConfigurationError(f"{where}{f.name} must be an integer, got {v!r}")
