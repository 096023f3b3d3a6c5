"""Unit system and physical constants.

Everything internal runs in hbar = 1 units with energies in micro-eV (ueV)
and times in 1/ueV.  One time unit is hbar / (1 ueV) = 0.658 ns, so cavity
and radiative rates quoted in ueV are directly the Lindblad rates used by
the solver.  The helpers below convert to and from laboratory units.
"""

from __future__ import annotations

# hbar in ueV * ns (6.582119569e-16 eV s)
HBAR_UEV_NS = 0.6582119569

# Planck constant in ueV * ns (4.135667696e-15 eV s); nu[GHz] = E[ueV] / H_UEV_NS
H_UEV_NS = 4.135667696

# Boltzmann constant in ueV / K
K_B_UEV_PER_K = 86.17333262

# One ps^2 expressed in 1/ueV^2, for deformation-potential coupling strengths
# that are conventionally quoted in ps^2.
PS2_TO_INV_UEV2 = (1.0e-3 / HBAR_UEV_NS) ** 2


def ueV_to_GHz(energy_uev: float) -> float:
    """Convert an energy splitting in ueV to an ordinary frequency in GHz."""
    return energy_uev / H_UEV_NS


def kappa_from_quality(quality: float, mode_energy_uev: float = 1.365e6) -> float:
    """Cavity energy decay rate (FWHM, ueV) from a quality factor.

    kappa = E / Q for a mode at energy E.  The default mode energy is the
    1.365 eV fundamental used throughout.
    """
    if quality <= 0:
        raise ValueError("quality factor must be positive")
    if mode_energy_uev <= 0:
        raise ValueError("mode energy must be positive")
    return mode_energy_uev / quality


def alpha_ps2_to_internal(alpha_ps2: float) -> float:
    """Convert a super-ohmic coupling constant from ps^2 to 1/ueV^2."""
    return alpha_ps2 * PS2_TO_INV_UEV2
