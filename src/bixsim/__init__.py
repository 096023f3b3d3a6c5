"""Driven biexciton-exciton emitter in a bimodal micropillar cavity.

Dressed-state analytics for the laser-driven four-level emitter, a
polaron-frame master equation with acoustic-phonon scattering, and
stationary y-polarized emission spectra with power/detuning sweep tooling.
"""

__version__ = "0.1.0"

from .dressed import (
    DetuningSet,
    DressedSolution,
    DriveParams,
    TransitionLine,
    adiabatic_alpha,
    dressed_eigenvalues,
    drive_for_splitting,
    photon_number_for_splitting,
    transition_catalog,
)
from .errors import BixsimError, ConfigurationError, SolverError
from .hilbert import HilbertSpec
from .liouville import (
    SpectrumResult,
    emission_spectrum,
    lindblad_generator,
    liouvillian,
    regression_spectrum,
    solver_hygiene,
    steady_state,
)
from .phonons import build_kernels, polaron_dissipator
from .sweeps import (
    PeakReport,
    SweepMap,
    detuning_sweep,
    extract_peaks,
    phonon_comparison,
    power_sweep,
)
from .system import (
    Couplings,
    DriveConfig,
    EnergyLevels,
    Numerics,
    PhononConfig,
    Rates,
    SystemConfig,
    assemble_liouvillian,
    calibrate_drive,
    compute_spectrum_y,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    detunings,
    drive_params,
    load_config,
    save_config,
)

__all__ = [
    "__version__",
    "BixsimError",
    "ConfigurationError",
    "SolverError",
    "HilbertSpec",
    "DetuningSet",
    "DriveParams",
    "DressedSolution",
    "TransitionLine",
    "dressed_eigenvalues",
    "transition_catalog",
    "adiabatic_alpha",
    "photon_number_for_splitting",
    "drive_for_splitting",
    "SpectrumResult",
    "liouvillian",
    "lindblad_generator",
    "steady_state",
    "regression_spectrum",
    "emission_spectrum",
    "solver_hygiene",
    "build_kernels",
    "polaron_dissipator",
    "EnergyLevels",
    "Couplings",
    "Rates",
    "DriveConfig",
    "PhononConfig",
    "Numerics",
    "SystemConfig",
    "default_config",
    "load_config",
    "save_config",
    "config_from_dict",
    "config_to_dict",
    "config_hash",
    "detunings",
    "drive_params",
    "calibrate_drive",
    "assemble_liouvillian",
    "compute_spectrum_y",
    "SweepMap",
    "PeakReport",
    "power_sweep",
    "detuning_sweep",
    "phonon_comparison",
    "extract_peaks",
]
