"""Driven biexciton-exciton emitter in a bimodal micropillar cavity.

Dressed-state analytics for the laser-driven four-level emitter, a
polaron-frame master equation with acoustic-phonon scattering, and
stationary y-polarized emission spectra with power/detuning sweep tooling.
The package exports `__version__` and the `__all__` of each module it
star-imports.
"""

__version__ = "0.1.0"

from . import dressed, errors, hilbert, liouville, phonons, sweeps, system
from .dressed import *
from .errors import *
from .hilbert import *
from .liouville import *
from .phonons import *
from .sweeps import *
from .system import *

__all__ = ["__version__"] + [
    name
    for module in (dressed, errors, hilbert, liouville, phonons, sweeps, system)
    for name in module.__all__
]
