"""Closed-form dressed-state results against independent diagonalization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bixsim import liouville
from bixsim.dressed import (
    DetuningSet,
    DriveParams,
    _best_assignment,
    adiabatic_alpha,
    dressed_eigenvalues,
    drive_for_splitting,
    photon_number_for_splitting,
    transition_catalog,
)
from bixsim.errors import ConfigurationError
from bixsim.system import (
    calibrate_drive,
    compute_spectrum_y,
    default_config,
    detunings,
    drive_params,
)

G1X = 26.7
G2X = 26.7 * np.sqrt(0.88 / 0.56)


def build_atom_hamiltonian(det, drive):
    """4x4 rotating-frame emitter Hamiltonian in the basis (G, Y, X, XX)."""
    h = np.diag([0.0, det.delta2, det.delta3, det.delta4]).astype(complex)
    h[2, 0], h[3, 2] = drive.eta1, drive.eta2
    h[0, 2], h[2, 3] = np.conj(drive.eta1), np.conj(drive.eta2)
    return h


def random_case(rng):
    det = DetuningSet(
        delta2=rng.uniform(-500.0, 500.0),
        delta3=rng.uniform(-500.0, 500.0),
        delta4=0.0,
    )
    e1 = rng.uniform(1.0, 300.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    e2 = rng.uniform(1.0, 300.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return det, DriveParams(eta1=e1, eta2=e2)


def test_closed_form_matches_direct_diagonalization():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(1000):
        det, drive = random_case(rng)
        sol = dressed_eigenvalues(det, drive)
        assert not sol.numerical
        h = build_atom_hamiltonian(det, drive)
        ref = np.sort(np.linalg.eigvalsh(h))
        worst = max(worst, np.max(np.abs(np.sort(sol.eigenvalues) - ref)))
    assert worst < 1e-10


def test_eigenvectors_really_diagonalize():
    rng = np.random.default_rng(5)
    for _ in range(50):
        det, drive = random_case(rng)
        sol = dressed_eigenvalues(det, drive)
        h = build_atom_hamiltonian(det, drive)
        for k in range(4):
            v = sol.eigenvectors[:, k]
            assert np.linalg.norm(h @ v - sol.eigenvalues[k] * v) < 1e-9
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_dark_state_structure():
    # at two-photon resonance one eigenvalue is exactly zero and its state
    # has no single-exciton component
    rng = np.random.default_rng(6)
    for _ in range(50):
        det, drive = random_case(rng)
        sol = dressed_eigenvalues(det, drive)
        assert sol.eigenvalues[0] == 0.0
        dark = sol.eigenvectors[:, 0]
        assert abs(dark[2]) < 1e-14  # X component
        assert abs(dark[1]) < 1e-14  # Y decoupled
        n2 = abs(drive.eta1) ** 2 + abs(drive.eta2) ** 2
        assert abs(dark[0]) ** 2 == pytest.approx(abs(drive.eta2) ** 2 / n2, rel=1e-10)


def test_spectator_level_stays_bare():
    det, drive = random_case(np.random.default_rng(7))
    sol = dressed_eigenvalues(det, drive)
    assert sol.eigenvalues[1] == det.delta2
    assert np.allclose(sol.eigenvectors[:, 1], [0.0, 1.0, 0.0, 0.0])


def test_pair_eigenvalues_formula():
    det, drive = random_case(np.random.default_rng(8))
    sol = dressed_eigenvalues(det, drive)
    n2 = abs(drive.eta1) ** 2 + abs(drive.eta2) ** 2
    root = np.sqrt(det.delta3**2 + 4.0 * n2)
    assert sol.eigenvalues[2] == pytest.approx((det.delta3 + root) / 2.0, rel=1e-12)
    assert sol.eigenvalues[3] == pytest.approx((det.delta3 - root) / 2.0, rel=1e-12)


def test_numerical_branch_engages_off_resonance():
    det = DetuningSet(965.0, 990.0, 37.0)
    drive = DriveParams(eta1=150.0, eta2=180.0)
    sol = dressed_eigenvalues(det, drive)
    assert sol.numerical
    h = build_atom_hamiltonian(det, drive)
    assert np.allclose(
        np.sort(sol.eigenvalues), np.sort(np.linalg.eigvalsh(h)), atol=1e-9
    )


@pytest.mark.parametrize("drive", [DriveParams(20.0, 30.0), DriveParams(0.0, 0.0)],
                         ids=["driven", "undriven"])
@pytest.mark.parametrize("delta3", [-25.0, 0.0, 25.0])
def test_branch_labels_continuous_across_closed_form_threshold(delta3, drive):
    # the closed form runs at |delta4| <= 1e-9 and the numerical branch just
    # above; both must label the pair upper then lower, so a perturbation of
    # the XX level by delta4 moves each labelled eigenvalue by at most |delta4|
    closed = dressed_eigenvalues(DetuningSet(-10.0, delta3, 0.0), drive)
    assert not closed.numerical
    for delta4 in (0.0, 2e-9, -2e-9):
        det = DetuningSet(-10.0, delta3, delta4)
        sol = dressed_eigenvalues(det, drive)
        assert sol.numerical == (delta4 != 0.0)
        lam = sol.eigenvalues
        assert lam[2] >= lam[3]
        assert np.max(np.abs(lam - closed.eigenvalues)) <= max(abs(delta4), 1e-9)
        h = build_atom_hamiltonian(det, drive)
        for k in range(4):
            v = sol.eigenvectors[:, k]
            assert np.linalg.norm(h @ v - lam[k] * v) < 1e-9


def test_best_assignment_matches_linear_sum_assignment():
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(11)
    for _ in range(2000):
        overlap = np.abs(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) ** 2
        assert _best_assignment(overlap) == tuple(linear_sum_assignment(-overlap)[1])
    # without drive the references are the bare G, X and XX levels themselves
    _, v = np.linalg.eigh(np.diag([0.0, 990.0, 37.0]))
    overlap = np.abs(v) ** 2
    assert _best_assignment(overlap) == tuple(linear_sum_assignment(-overlap)[1])
    assert _best_assignment(overlap) == (0, 2, 1)
    sol = dressed_eigenvalues(DetuningSet(965.0, 990.0, 37.0), DriveParams(0.0, 0.0))
    assert sol.numerical
    assert np.array_equal(sol.eigenvalues, [0.0, 965.0, 990.0, 37.0])


def test_catalog_has_six_antisymmetric_lines():
    det, drive = random_case(np.random.default_rng(9))
    sol = dressed_eigenvalues(det, drive)
    lines = transition_catalog(sol)
    assert len(lines) == 6
    by_label = {ln.label: ln for ln in lines}
    for r, l in (("R1", "L1"), ("R2", "L2"), ("R3", "L3")):
        assert by_label[r].offset == pytest.approx(-by_label[l].offset, rel=1e-12)
    for ln in lines:
        assert 0.0 <= ln.weight <= 1.0
        # no line connects the spectator exciton to itself
        assert (ln.upper, ln.lower) != (2, 2)


def test_catalog_offsets_from_eigenvalues():
    det, drive = random_case(np.random.default_rng(10))
    sol = dressed_eigenvalues(det, drive)
    lam = sol.eigenvalues
    offsets = {ln.label: ln.offset for ln in transition_catalog(sol)}
    assert offsets["R1"] == pytest.approx(lam[1] - lam[0], rel=1e-12)
    assert offsets["R2"] == pytest.approx(lam[1] - lam[3], rel=1e-12)
    assert offsets["R3"] == pytest.approx(lam[2] - lam[1], rel=1e-12)


def test_undriven_catalog_collapses_to_two_offsets():
    det = DetuningSet(965.0, 990.0, 0.0)
    sol = dressed_eigenvalues(det, DriveParams(eta1=0.0, eta2=0.0))
    lines = transition_catalog(sol)
    mags = sorted({round(abs(ln.offset), 9) for ln in lines})
    assert mags == [abs(det.delta3 - det.delta2), det.delta2]
    # only the bare Y -> G and XX -> Y lines keep weight
    bright = sorted(ln.offset for ln in lines if ln.weight > 1e-14)
    assert bright == [-det.delta2, det.delta2]


def test_adiabatic_filter_amplitude():
    alpha = adiabatic_alpha(100.0, 0.0, 74.0)
    assert alpha == pytest.approx(100.0 / 37.0, rel=1e-12)
    # one linewidth off resonance the photon number drops by exactly 5
    a_det = adiabatic_alpha(100.0, 74.0, 74.0)
    assert abs(alpha) ** 2 / abs(a_det) ** 2 == pytest.approx(5.0, rel=1e-12)
    with pytest.raises(ConfigurationError):
        adiabatic_alpha(100.0, 0.0, 0.0)


def test_photon_number_anchor():
    n_c = photon_number_for_splitting(300.0, 990.0, G1X, G2X)
    assert abs(n_c - 211.1) < 1.0


def test_splitting_calibration_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        target = rng.uniform(5.0, 300.0)
        d3 = rng.uniform(200.0, 1500.0)
        omega = drive_for_splitting(target, d3, 0.0, 74.0, G1X, G2X)
        dp = DriveParams.from_cavity_filter(omega, 0.0, 74.0, G1X, G2X)
        sol = dressed_eigenvalues(DetuningSet(0.0, d3, 0.0), dp)
        assert -sol.eigenvalues[3] == pytest.approx(target, rel=1e-10)


def test_zero_coupling_rejected():
    with pytest.raises(ConfigurationError):
        photon_number_for_splitting(300.0, 990.0, 0.0, 0.0)


def test_unreachable_target_splitting_rejected():
    # S (S + delta3) is positive again below S = -delta3: -1500 used to
    # calibrate a 510 ueV splitting and -995 one of 5 ueV
    for target in (-1500.0, -995.0):
        with pytest.raises(ConfigurationError, match="is negative"):
            drive_for_splitting(target, 990.0, 0.0, 74.0, G1X, G2X)
    # a positive target below a negative delta3 needs negative power
    with pytest.raises(ConfigurationError, match="negative power"):
        drive_for_splitting(10.0, -25.0, 0.0, 74.0, G1X, G2X)
    assert drive_for_splitting(0.0, 990.0, 0.0, 74.0, G1X, G2X) == 0.0
    # a nan or infinite target used to return nan or inf, which failed later
    # as "drive.omega must be finite"
    for target, shown in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")):
        with pytest.raises(ConfigurationError,
                           match=f"^target splitting {shown} ueV must be finite$"):
            drive_for_splitting(target, 990.0, 0.0, 74.0, G1X, G2X)


# -- the master equation against the catalog -----------------------------------


def test_master_equation_lines_match_the_catalog_across_sweeps(monkeypatch):
    # with phonons off, every line of the dressed-state catalog must be a line
    # of the master equation's spectrum, across a power sweep (calibrated
    # splittings 30-300 ueV) and a detuning sweep (+-2 kappa_x at the 80 ueV
    # calibration).  A line is a pole lambda of the odd block whose area
    # pi Re w exceeds 0.5% of the largest; it sits at |Im lambda|, and the
    # catalog is symmetric under negation, so orientation does not matter.
    # The match is not exact: the catalog is the bare emitter's ladder, while
    # the master equation's y mode dresses the lines.  The worst mismatch
    # measured 1.09-1.56 ueV over the power rows and 2.17-2.26 ueV over the
    # detuning rows; the bound is 3 ueV
    models, resolvent_sum = [], liouville._resolvent_sum

    def recorded(weights, poles, grid, scale):
        models.append((weights, poles))
        return resolvent_sum(weights, poles, grid, scale)

    monkeypatch.setattr(liouville, "_resolvent_sum", recorded)
    cfg = default_config()
    cfg = replace(cfg, phonon=replace(cfg.phonon, enable=False))
    at_80, kappa = calibrate_drive(cfg, 80.0), cfg.rates.kappa_x
    rows = [calibrate_drive(cfg, s) for s in np.linspace(30.0, 300.0, 7)]
    rows += [replace(at_80, laser_detuning=d) for d in np.linspace(-2.0, 2.0, 7) * kappa]
    for row in rows:
        models.clear()
        compute_spectrum_y(row)
        [(weights, poles)] = models
        area = np.pi * weights.real
        lines = np.abs(poles[area > 0.005 * area.max()].imag)
        catalog = transition_catalog(dressed_eigenvalues(detunings(row), drive_params(row)))
        for line in catalog:
            miss = np.min(np.abs(lines - abs(line.offset)))
            assert miss < 3.0, (line.label, line.offset, row.laser_detuning, row.drive.omega)
