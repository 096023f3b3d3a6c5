"""Exception types shared across the package, and the rules for config values.

ConfigurationError maps to CLI exit code 2, SolverError to exit code 3.
"""

import cmath
import functools
import numbers
import typing
from dataclasses import is_dataclass

__all__ = ["BixsimError", "ConfigurationError", "SolverError"]


class BixsimError(Exception):
    """Base class for package errors."""


class ConfigurationError(BixsimError):
    """Invalid or inconsistent user-supplied configuration."""


class SolverError(BixsimError):
    """A numerical solve failed or did not meet its tolerance."""


@functools.cache
def _schema(cls) -> dict:
    """Field name -> (type, nullable) of a config dataclass, from its
    annotations: `X | None` gives (X, True)."""
    out = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint)
        out[name] = next((a for a in args if a is not type(None)), hint), type(None) in args
    return out


def check_fields(section, where: str = "") -> None:
    """Check each field of the config dataclass `section`, nested sections
    included, by its annotation and store it as the field's type (`_typed`).
    The config sections run this on construction, so JSON and `replace`
    meet the same rules.  Errors name the field as `where` + "section.field".
    """
    for name, (tp, nullable) in _schema(type(section)).items():
        v = getattr(section, name)
        if is_dataclass(tp):
            if not isinstance(v, tp):
                raise ConfigurationError(f"{where}{name} must be a {tp.__name__}, got {v!r}")
            check_fields(v, f"{where}{name}.")
        elif v is not None or not nullable:
            object.__setattr__(section, name, _typed(tp, v, f"{where}{name}"))


def _typed(tp, v, name: str):
    """v as the scalar type tp: bool takes true or false, str a string, int
    an integer, float a real number and complex a number or [re, im] of real
    numbers, numpy ones included; a bool is no number.  None fits no type,
    and a float or complex value must be finite."""
    if type(v) is tp and (tp is not float and tp is not complex or cmath.isfinite(v)):
        return v  # the common case: already stored as its type
    if tp is complex and isinstance(v, list) and len(v) == 2 and all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) for x in v):
        v = complex(*v)
    kinds, what = {bool: (bool, "true or false"), str: (str, "a string"),
                   int: (numbers.Integral, "an integer"),
                   float: (numbers.Real, "a finite number"),
                   complex: (numbers.Complex, "a finite number or [re, im]")}[tp]
    if not isinstance(v, kinds) or isinstance(v, bool) and tp is not bool:
        raise ConfigurationError(f"{name} must be {what}, got {v!r}")
    try:
        v = tp(v)
    except OverflowError:  # an integer beyond the float range
        v = tp("inf")
    if tp in (float, complex) and not cmath.isfinite(v):
        raise ConfigurationError(f"{name} must be finite, got {v!r}")
    return v
