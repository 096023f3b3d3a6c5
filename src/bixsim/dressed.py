"""Dressed-state analytics of the driven four-level emitter.

In the rotating frame of the drive laser the bare emitter block reads

    H = d4 |XX><XX| + d3 |X><X| + d2 |Y><Y|
        + eta2 (|XX><X| + h.c.) + eta1 (|X><G| + h.c.)

with d2, d3 the one-photon detunings of the y and x excitons, d4 the
two-photon detuning of the biexciton, and eta1, eta2 the effective drive
amplitudes of the two x-polarized transitions.  The y exciton is decoupled
from the drive, so it stays a bare eigenstate; the G/X/XX ladder hybridizes.

At two-photon resonance (d4 = 0) the eigenvalues are available in closed
form: a dark combination of G and XX pinned at exactly zero, the undressed
y exciton at d2, and the pair (d3 +/- sqrt(d3^2 + 4 (|eta1|^2 + |eta2|^2)))/2.
Signed values are kept internally; the low-energy branch of the pair is the
small splitting that shifts the emission doublets.

Emission lines of y polarization connect the y exciton to the three dressed
G/X/XX states of the adjacent excitation manifold in both directions, giving
six lines placed symmetrically around the laser; the y->y line carries no
y-polarized dipole and is absent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "DetuningSet",
    "DriveParams",
    "DressedSolution",
    "TransitionLine",
    "dressed_eigenvalues",
    "transition_catalog",
    "adiabatic_alpha",
    "photon_number_for_splitting",
    "drive_for_splitting",
]

# emitter block indices, in the basis order of hilbert.QD_LEVELS
_G, _Y, _X, _XX = 0, 1, 2, 3
_D4_TOL = 1e-9  # |delta4| (ueV) up to which the closed form is used


@dataclass(frozen=True)
class DetuningSet:
    """Rotating-frame detunings of the emitter levels (ueV).

    delta2: y exciton relative to the laser, omega_Y - omega_L
    delta3: x exciton relative to the laser, omega_X - omega_L
    delta4: biexciton relative to two laser photons, omega_XX - 2 omega_L
    """

    delta2: float
    delta3: float
    delta4: float


@dataclass(frozen=True)
class DriveParams:
    """Effective drive amplitudes of the two-photon ladder.

    eta1 drives G <-> X, eta2 drives X <-> XX.  When the drive is delivered
    through the x cavity, eta_k = g_k^x * alpha with alpha the adiabatic
    coherent amplitude of the x mode; `alpha` is kept for photon-number
    bookkeeping and is None when the amplitudes were set directly.
    """

    eta1: complex
    eta2: complex
    alpha: complex | None = None
    omega: float | None = None

    @classmethod
    def from_cavity_filter(
        cls,
        omega: float,
        delta_cl_x: float,
        kappa_x: float,
        g1x: float,
        g2x: float,
    ) -> "DriveParams":
        """Adiabatic elimination of the driven x mode.

        alpha = Omega / (i * delta_cl_x + kappa_x / 2), eta_k = g_k^x alpha.
        """
        alpha = adiabatic_alpha(omega, delta_cl_x, kappa_x)
        return cls(eta1=g1x * alpha, eta2=g2x * alpha, alpha=alpha, omega=omega)

    @property
    def eta_sq(self) -> float:
        """|eta1|^2 + |eta2|^2, the invariant that sets the dressing."""
        return abs(self.eta1) ** 2 + abs(self.eta2) ** 2


@dataclass(frozen=True)
class TransitionLine:
    """One y-polarized emission line of the dressed ladder.

    offset is the emission energy relative to the laser (ueV); weight is
    the squared dipole overlap of the transition; upper/lower are the
    dressed-state indices (1..4) of the initial and final states.
    """

    label: str
    offset: float
    weight: float
    upper: int
    lower: int


@dataclass(frozen=True)
class DressedSolution:
    """Eigenvalues and eigenvectors of the emitter block.

    eigenvalues[k] is the signed dressed energy of branch k+1, ordered as
    (dark branch, y exciton, upper pair branch, lower pair branch), so
    eigenvalues[2] >= eigenvalues[3] on every path; without drive the pair
    is the bare X and XX levels.  eigenvectors columns match, expressed in
    the basis (G, Y, X, XX).  `numerical` is False when the
    two-photon-resonant closed form was used.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    numerical: bool


def _closed_form(det: DetuningSet, drive: DriveParams):
    """Exact eigensystem at two-photon resonance (d4 = 0)."""
    e1, e2 = drive.eta1, drive.eta2
    nsq = drive.eta_sq
    d3 = det.delta3
    root = math.sqrt(d3 * d3 + 4.0 * nsq)
    lam3 = 0.5 * (d3 + root)
    lam4 = 0.5 * (d3 - root)

    vectors = np.zeros((4, 4), dtype=complex)
    if nsq == 0.0:
        # undriven: G, Y, X, XX stay bare; the pair is X at d3 and XX at 0,
        # the upper one first
        vectors[_G, 0] = 1.0
        vectors[_Y, 1] = 1.0
        vectors[_X if d3 >= 0.0 else _XX, 2] = 1.0
        vectors[_XX if d3 >= 0.0 else _X, 3] = 1.0
        return np.array([0.0, det.delta2, lam3, lam4]), vectors

    n = math.sqrt(nsq)
    # dark combination of G and XX, eigenvalue exactly zero
    dark = np.zeros(4, dtype=complex)
    dark[_G] = np.conj(e2) / n
    dark[_XX] = -e1 / n
    # orthogonal bright combination that carries all coupling to X
    bright = np.zeros(4, dtype=complex)
    bright[_G] = np.conj(e1) / n
    bright[_XX] = e2 / n

    ex = np.zeros(4, dtype=complex)
    ex[_X] = 1.0

    def pair_vector(lam: float) -> np.ndarray:
        v = n * bright + lam * ex
        return v / np.linalg.norm(v)

    vectors[:, 0] = dark
    vectors[_Y, 1] = 1.0
    vectors[:, 2] = pair_vector(lam3)
    vectors[:, 3] = pair_vector(lam4)
    return np.array([0.0, det.delta2, lam3, lam4]), vectors


def _best_assignment(overlap: np.ndarray) -> tuple[int, int, int]:
    """Column per row of a 3x3 overlap, of largest total out of all six."""
    return max(
        itertools.permutations(range(3)), key=lambda p: overlap[(0, 1, 2), p].sum()
    )


def _numerical(det: DetuningSet, drive: DriveParams):
    """General-case diagonalization with branch matching.

    The y exciton is exactly decoupled, so only the 3x3 G/X/XX block is
    diagonalized.  Its eigenvectors are assigned jointly to the dark, x-like
    and bright references by largest total overlap; the one given the dark
    reference is the dark branch, and the other two are the pair, upper first.
    """
    e1, e2 = drive.eta1, drive.eta2
    block = np.array(
        [
            [0.0, np.conj(e1), 0.0],
            [e1, det.delta3, np.conj(e2)],
            [0.0, e2, det.delta4],
        ],
        dtype=complex,
    )
    w, v = np.linalg.eigh(block)

    nsq = drive.eta_sq
    if nsq == 0.0:
        refs = np.eye(3, dtype=complex)  # columns: G-like, X-like, XX-like
    else:
        n = math.sqrt(nsq)
        dark = np.array([np.conj(e2) / n, 0.0, -e1 / n], dtype=complex)
        ex = np.array([0.0, 1.0, 0.0], dtype=complex)
        bright = np.array([np.conj(e1) / n, 0.0, e2 / n], dtype=complex)
        refs = np.stack([dark, ex, bright], axis=1)

    overlap = np.abs(refs.conj().T @ v) ** 2  # rows: refs, cols: eigvecs
    dark, *pair = _best_assignment(overlap)
    cols = (dark, max(pair), min(pair))  # w ascends, so the upper pair first

    vectors = np.zeros((4, 4), dtype=complex)
    vectors[np.ix_((_G, _X, _XX), (0, 2, 3))] = v[:, cols]
    vectors[_Y, 1] = 1.0
    return np.array([w[cols[0]], det.delta2, w[cols[1]], w[cols[2]]]), vectors


def dressed_eigenvalues(det: DetuningSet, drive: DriveParams) -> DressedSolution:
    """Dressed energies and states of the emitter block.

    Uses the closed form at two-photon resonance (|d4| <= 1e-9) and falls
    back to numerical diagonalization otherwise; the `numerical` flag on the
    result records which branch ran.
    """
    if abs(det.delta4) <= _D4_TOL:
        vals, vecs = _closed_form(det, drive)
        numerical = False
    else:
        vals, vecs = _numerical(det, drive)
        numerical = True
    return DressedSolution(eigenvalues=vals, eigenvectors=vecs, numerical=numerical)


def transition_catalog(sol: DressedSolution) -> tuple[TransitionLine, ...]:
    """The six y-polarized emission lines of the dressed ladder.

    Down-transitions from the y branch into dressed state j carry weight
    |<j|G>|^2 (the y dipole takes Y to G); up-side lines from dressed state
    j into the y branch carry |<XX|j>|^2 (the y dipole takes XX to Y).
    Offsets are signed energies relative to the laser; the catalog is
    symmetric under offset negation line by line.  The y->y transition is
    polarization forbidden and never emitted.
    """
    lam = sol.eigenvalues
    v = sol.eigenvectors
    weight_g = np.abs(v[_G, :]) ** 2
    weight_xx = np.abs(v[_XX, :]) ** 2
    lines = (
        TransitionLine("R1", lam[1] - lam[0], weight_g[0], upper=2, lower=1),
        TransitionLine("R2", lam[1] - lam[3], weight_g[3], upper=2, lower=4),
        TransitionLine("R3", lam[2] - lam[1], weight_xx[2], upper=3, lower=2),
        TransitionLine("L1", lam[0] - lam[1], weight_xx[0], upper=1, lower=2),
        TransitionLine("L2", lam[3] - lam[1], weight_xx[3], upper=4, lower=2),
        TransitionLine("L3", lam[1] - lam[2], weight_g[2], upper=2, lower=3),
    )
    return lines


def adiabatic_alpha(omega: float, delta_cl_x: float, kappa_x: float) -> complex:
    """Coherent amplitude of the adiabatically eliminated drive mode.

    alpha = Omega / (i * delta_cl_x + kappa_x / 2).  The denominator must
    not vanish: an undamped resonant filter has no stationary amplitude.
    """
    denom = 1j * delta_cl_x + 0.5 * kappa_x
    if abs(denom) == 0.0:
        raise ConfigurationError(
            "cavity filter pole: kappa_x and the drive detuning are both zero"
        )
    return omega / denom


def photon_number_for_splitting(
    delta_omega: float, delta3: float, g1x: float, g2x: float
) -> float:
    """Intracavity photon number needed for a given doublet splitting.

    Inverting the exact two-photon-resonant splitting gives
    |alpha|^2 = delta_omega * (delta_omega + delta3) / (g1x^2 + g2x^2),
    which is exact, not only the low-power limit.  A negative splitting
    raises, since below -delta3 the formula would calibrate another one.
    """
    if delta_omega < 0:
        raise ConfigurationError(f"target splitting {delta_omega:g} ueV is negative")
    gsq = g1x * g1x + g2x * g2x
    if gsq == 0.0:
        raise ConfigurationError("photon number undefined for zero couplings")
    return delta_omega * (delta_omega + delta3) / gsq


def drive_for_splitting(
    delta_omega: float,
    delta3: float,
    delta_cl_x: float,
    kappa_x: float,
    g1x: float,
    g2x: float,
) -> float:
    """Drive amplitude Omega producing a target doublet splitting.

    Chains the exact photon-number inversion with the cavity filter:
    Omega = |alpha| * sqrt(delta_cl_x^2 + kappa_x^2 / 4).
    """
    n_c = photon_number_for_splitting(delta_omega, delta3, g1x, g2x)
    if n_c < 0:
        raise ConfigurationError("target splitting is unreachable (negative power)")
    return math.sqrt(n_c) * abs(1j * delta_cl_x + 0.5 * kappa_x)
