import math

import pytest

from bixsim.system import default_config
from bixsim.units import (
    H_UEV_NS,
    HBAR_UEV_NS,
    PS2_TO_INV_UEV2,
    alpha_ps2_to_internal,
    kappa_from_quality,
    ueV_to_GHz,
)


def test_planck_constants_consistent():
    # both constants are independently rounded reference values, so they
    # agree only to their own precision, not to machine epsilon
    assert H_UEV_NS == pytest.approx(2.0 * math.pi * HBAR_UEV_NS, rel=1e-9)


def test_frequency_conversion_anchor():
    # an 80 ueV splitting corresponds to just over 19.3 GHz
    nu = ueV_to_GHz(80.0)
    assert abs(nu - 19.344) < 5e-3
    assert nu * H_UEV_NS == pytest.approx(80.0, rel=1e-12)


def test_kappa_from_quality_factors():
    kx = kappa_from_quality(18500.0)
    ky = kappa_from_quality(10300.0)
    assert abs(kx - 74.0) / 74.0 < 0.01
    assert abs(ky - 132.0) / 132.0 < 0.01
    assert kappa_from_quality(1000.0, mode_energy_uev=2000.0) == pytest.approx(2.0)


def test_kappa_rejects_nonpositive_quality():
    with pytest.raises(ValueError):
        kappa_from_quality(0.0)
    for energy in (0.0, -1.365e6):
        with pytest.raises(ValueError, match="mode energy must be positive"):
            kappa_from_quality(1000.0, mode_energy_uev=energy)


def test_phonon_coupling_conversion():
    # ps^2 -> ueV^-2 via (1 ps / hbar)^2
    expected = (1.0e-3 / HBAR_UEV_NS) ** 2
    assert PS2_TO_INV_UEV2 == pytest.approx(expected, rel=1e-12)
    assert alpha_ps2_to_internal(0.06) == pytest.approx(0.06 * expected, rel=1e-12)


def test_coupling_ratio_from_decay_rates():
    # dipole couplings scale with the square root of the radiative rates, and
    # the default couplings follow the default rates
    cfg = default_config()
    c, r = cfg.couplings, cfg.rates
    assert c.g2x / c.g1x == pytest.approx(math.sqrt(r.gamma_xx_x / r.gamma_x_g), rel=1e-12)
    assert c.g2y / c.g1y == pytest.approx(math.sqrt(r.gamma_xx_y / r.gamma_y_g), rel=1e-12)
