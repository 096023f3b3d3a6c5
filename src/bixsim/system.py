"""Configuration schema and assembly of the reduced master equation.

The model is a four-level emitter (ground, two fine-structure-split
excitons, biexciton) inside a bimodal micropillar.  The x-polarized mode is
driven by a resonant laser and adiabatically eliminated: it enters only
through the effective drive amplitudes eta1, eta2 = g1x * alpha, g2x * alpha
with alpha the stationary filter amplitude.  The y-polarized mode is kept as
a quantized oscillator.

All energies live in ueV, in the frame rotating with the laser.  Level
positions in the config are offsets from the x-mode frequency: omega_x and
omega_y are one-photon offsets of the excitons, omega_xx is the biexciton
offset from twice the x-mode frequency so that two-photon resonance at zero
laser detuning reads omega_xx = 0.

Dissipation channels: radiative decay of the four dipole transitions, pure
dephasing realized as level-projector dissipators whose rates are solved
from the per-transition dephasing targets, y-mode photon loss, and (when
enabled) the polaron-frame phonon scattering term.

The frozen dataclasses below, with `phonons.PhononConfig` as the `phonon`
section, are the whole configuration schema: `config_from_dict` and
`config_to_dict` walk their field annotations, one JSON object per
section, complex amplitudes as [re, im].  On construction the sections
check and type every value by the same rules (`errors.check_fields`),
whether it came from JSON or from `replace`.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

import numpy as np

from . import __version__ as _version
from .dressed import DetuningSet, DriveParams, drive_for_splitting
from .errors import ConfigurationError, _schema, check_fields
from .hilbert import HilbertSpec, embed_photon_annihilator, embed_qd_transition
from .liouville import (
    SpectrumResult,
    emission_spectrum,
    lindblad_generator,
    liouvillian,
    steady_state,
)
from .phonons import PhononConfig, build_kernels, polaron_dissipator

__all__ = [
    "EnergyLevels",
    "Couplings",
    "Rates",
    "DriveConfig",
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
    "assemble_liouvillian",
    "compute_spectrum_y",
    "calibrate_drive",
]

# each `source` setting and the emission channels whose spectra it sums
_SOURCES = {"y-dipole": ("y-dipole",), "y-cavity": ("y-cavity",),
            "both": ("y-dipole", "y-cavity")}


@dataclass(frozen=True)
class EnergyLevels:
    """Level offsets relative to the x cavity mode (ueV).

    omega_x, omega_y: exciton energies minus the x-mode frequency.
    omega_xx: biexciton energy minus twice the x-mode frequency (the
    biexciton is reached by two laser photons).
    """

    omega_x: float = 990.0
    omega_y: float = 965.0
    omega_xx: float = 0.0


@dataclass(frozen=True)
class Couplings:
    """Emitter-mode couplings (ueV); 1 = exciton step, 2 = biexciton step."""

    g1x: float = 26.7
    g2x: float = 26.7 * math.sqrt(0.88 / 0.56)
    g1y: float = 26.7
    g2y: float = 26.7 * math.sqrt(0.88 / 0.56)


@dataclass(frozen=True)
class Rates:
    """Radiative, dephasing and photon-loss rates (ueV)."""

    gamma_x_g: float = 0.56
    gamma_y_g: float = 0.56
    gamma_xx_x: float = 0.88
    gamma_xx_y: float = 0.88
    dephasing_x_g: float = 8.2
    dephasing_y_g: float = 8.2
    dephasing_xx_x: float = 8.2
    dephasing_xx_y: float = 8.2
    kappa_x: float = 74.0
    kappa_y: float = 132.0


@dataclass(frozen=True)
class DriveConfig:
    """Laser power, either as filter input Omega or as direct amplitudes.

    `omega` is the bare drive amplitude fed to the x-mode filter.  The
    eta overrides bypass the filter for diagnostics; setting both a nonzero
    omega and an override is rejected.
    """

    omega: float = 0.0
    eta1: complex | None = None
    eta2: complex | None = None


@dataclass(frozen=True)
class Numerics:
    """Truncation and grid controls."""

    n_max_y: int = 2
    n_omega: int = 1601
    omega_half_span: float = 1400.0
    steady_rtol: float = 1e-10
    phonon_n_t: int = 1601
    phonon_t_max: float | None = None

    def __post_init__(self):
        check_fields(self, "numerics.")


@dataclass(frozen=True)
class SystemConfig:
    """Full model description; immutable, so sweeps vary it with `replace`."""

    energies: EnergyLevels = field(default_factory=EnergyLevels)
    couplings: Couplings = field(default_factory=Couplings)
    rates: Rates = field(default_factory=Rates)
    drive: DriveConfig = field(default_factory=DriveConfig)
    phonon: PhononConfig = field(default_factory=PhononConfig)
    numerics: Numerics = field(default_factory=Numerics)
    cavity_split: float = 320.0
    laser_detuning: float = 0.0
    source: str = "y-dipole"
    normalize: bool = True

    def __post_init__(self):
        check_fields(self)
        for kind, group in (("rate", self.rates), ("coupling", self.couplings)):
            for f in fields(group):
                if getattr(group, f.name) < 0:
                    raise ConfigurationError(f"{kind} {f.name} must be nonnegative")
        if self.rates.kappa_x <= 0:
            raise ConfigurationError("kappa_x must be positive (filter linewidth)")
        c = self.couplings
        if self.source not in _SOURCES:
            raise ConfigurationError(
                f"unknown source {self.source!r}; expected one of {tuple(_SOURCES)}"
            )
        d = self.drive
        override = d.eta1 is not None or d.eta2 is not None
        if override and (d.eta1 is None or d.eta2 is None):
            raise ConfigurationError("eta overrides must set both eta1 and eta2")
        if override and d.omega != 0.0:
            raise ConfigurationError(
                "drive is overdetermined: set either omega or the eta pair"
            )
        n = self.numerics
        if n.n_omega < 3:
            raise ConfigurationError("n_omega must be at least 3")
        if n.omega_half_span <= 0:
            raise ConfigurationError("omega_half_span must be positive")
        if not 0 < n.steady_rtol < 1:  # the certificate never exceeds 1
            raise ConfigurationError("steady_rtol must be above 0 and below 1")
        if n.phonon_n_t < 3 or n.phonon_n_t % 2 == 0:
            raise ConfigurationError(
                "phonon_n_t must be an odd integer >= 3 (Simpson grid)"
            )
        if n.phonon_t_max is not None and n.phonon_t_max <= 0:
            raise ConfigurationError("phonon_t_max must be positive or null")
        if (c.g1y != 0.0 or c.g2y != 0.0) and n.n_max_y < 1:
            raise ConfigurationError(
                "n_max_y must be >= 1 when the y mode is coupled"
            )


def default_config() -> SystemConfig:
    """The dataclass defaults: bimodal pillar at 6.8 K, with zero drive.

    The packaged baseline (`data/baseline.json`) is this set with the drive
    of `calibrate_drive(default_config(), 80.0)`.
    """
    return SystemConfig()


# -- config (de)serialization -------------------------------------------------


def _decode(cls, data, where: str):
    """cls from the JSON object data; the sections check their own values."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be an object")
    schema = _schema(cls)
    unknown = set(data) - set(schema)
    if unknown:
        raise ConfigurationError(f"unknown key(s) {sorted(unknown)} for {where}")
    return cls(**{
        name: _decode(schema[name][0], v, name) if is_dataclass(schema[name][0]) else v
        for name, v in data.items()
    })


def config_to_dict(cfg: SystemConfig) -> dict:
    """Plain-JSON form of cfg or of a section, complex amplitudes as [re, im].

    Every value is stored as its field's type, so equal configs give equal
    dicts and equal `config_hash`.
    """
    out = {}
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if is_dataclass(v):
            v = config_to_dict(v)
        elif isinstance(v, complex):
            v = [v.real, v.imag]
        out[f.name] = v
    return out


def config_from_dict(data: dict) -> SystemConfig:
    """Build a SystemConfig from a plain dict (e.g. parsed JSON).

    The dataclass annotations are the schema: every section is decoded
    from its own object, and every value is type-checked (numbers must be
    finite).  Absent keys keep their defaults; unknown keys raise
    ConfigurationError so typos do not silently fall back to defaults.
    """
    if isinstance(data, dict):
        data = {k: v for k, v in data.items() if k != "_notes"}
    return _decode(SystemConfig, data, "config root")


def load_config(path) -> SystemConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigurationError(
            f"config file not found or not readable: {path} ({exc.strerror})"
        ) from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigurationError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
    return config_from_dict(data)


def save_config(cfg: SystemConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def config_hash(cfg: SystemConfig) -> str:
    """Stable content hash of the full configuration."""
    blob = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- derived quantities -------------------------------------------------------


def detunings(cfg: SystemConfig) -> DetuningSet:
    """Rotating-frame detunings implied by the level offsets and the laser."""
    d = cfg.laser_detuning
    return DetuningSet(
        delta2=cfg.energies.omega_y - d,
        delta3=cfg.energies.omega_x - d,
        delta4=cfg.energies.omega_xx - 2.0 * d,
    )


def delta_cl_x(cfg: SystemConfig) -> float:
    """x-mode detuning from the laser, omega_c^x - omega_L."""
    return -cfg.laser_detuning


def delta_cl_y(cfg: SystemConfig) -> float:
    """y-mode detuning from the laser, omega_c^y - omega_L."""
    return -cfg.cavity_split - cfg.laser_detuning


def drive_params(cfg: SystemConfig) -> DriveParams:
    """Effective drive amplitudes, through the filter or from overrides."""
    d = cfg.drive
    if d.eta1 is not None:
        return DriveParams(eta1=d.eta1, eta2=d.eta2)
    return DriveParams.from_cavity_filter(
        d.omega, delta_cl_x(cfg), cfg.rates.kappa_x, cfg.couplings.g1x, cfg.couplings.g2x
    )


def calibrate_drive(cfg: SystemConfig, target_splitting: float) -> SystemConfig:
    """Copy of cfg with omega set for a target doublet splitting.

    Exact for the phonon-free dressed ladder at two-photon resonance; with
    phonons enabled the realized splitting is further reduced by the
    coupling renormalization.
    """
    det = detunings(cfg)
    omega = drive_for_splitting(
        target_splitting,
        det.delta3,
        delta_cl_x(cfg),
        cfg.rates.kappa_x,
        cfg.couplings.g1x,
        cfg.couplings.g2x,
    )
    return replace(cfg, drive=replace(cfg.drive, omega=omega, eta1=None, eta2=None))


# -- dephasing ----------------------------------------------------------------

def dephasing_projector_rates(rates: Rates) -> dict:
    """Level-projector dephasing rates (G, Y, X, XX) from per-transition targets.

    A projector dissipator on level s with rate r_s damps the coherence
    between a and b at (r_a + r_b)/2.  Four level rates meet the four
    transition targets only when t_xg + t_xxy = t_yg + t_xxx; the solutions
    then form the family G = g, X = 2 t_xg - g, Y = 2 t_yg - g,
    XX = 2 t_xxx - 2 t_xg + g.  The minimum-norm g = t_xg + (t_yg - t_xxx)/2
    is clipped into the range where all four rates are nonnegative.
    Unequal sums, or an empty range, raise ConfigurationError.
    """
    t_xg, t_yg = rates.dephasing_x_g, rates.dephasing_y_g
    t_xxx, t_xxy = rates.dephasing_xx_x, rates.dephasing_xx_y
    tol = 1e-12 * max(abs(t_xg), abs(t_yg), abs(t_xxx), abs(t_xxy))
    if abs((t_xg + t_xxy) - (t_yg + t_xxx)) > tol:
        raise ConfigurationError(
            "per-transition dephasing targets are inconsistent: "
            f"dephasing_x_g + dephasing_xx_y = {t_xg + t_xxy:g} but "
            f"dephasing_y_g + dephasing_xx_x = {t_yg + t_xxx:g}; "
            "level projectors need equal sums"
        )
    lo, hi = max(0.0, 2.0 * t_xg - 2.0 * t_xxx), min(2.0 * t_xg, 2.0 * t_yg)
    if lo > hi + tol:
        raise ConfigurationError(
            "per-transition dephasing targets cannot be realized with "
            "nonnegative projector rates"
        )
    g = min(max(t_xg + 0.5 * (t_yg - t_xxx), lo), hi)
    levels = {"G": g, "Y": 2.0 * t_yg - g, "X": 2.0 * t_xg - g,
              "XX": 2.0 * t_xxx - 2.0 * t_xg + g}
    return {level: max(rate, 0.0) for level, rate in levels.items()}


# -- Hamiltonian and Liouvillian ---------------------------------------------


def _per_row(cfg, value):
    """value(c) of the config cfg, as an array; or, for a sequence of row
    configs, the (R, 1, 1, ...) array of value(c) for each, so that a
    factor times a d x d operator is (d, d) or (R, d, d)."""
    if isinstance(cfg, SystemConfig):
        return np.asarray(value(cfg))
    values = np.array([value(c) for c in cfg])
    return values.reshape(values.shape[:1] + (1, 1) + values.shape[1:])


def _shared(cfg) -> SystemConfig:
    """cfg, or the first of a sequence of row configs, whose settings the
    rows share: they may differ only in what `_per_row` reads, the level
    energies, cavity split, laser detuning and drive, and in `normalize`."""
    return cfg if isinstance(cfg, SystemConfig) else cfg[0]


def _coupling_terms(cfg, spec: HilbertSpec, kernels):
    """Renormalized raising halves of all coherent couplings.

    Returns a list of (raising_op, displacement_factor); the factor is 1
    for exciton steps and xx_scaling - 1 for biexciton steps.  For a
    sequence of row configs the drive terms are (R, d, d) stacks.
    """
    def drive(c):
        dp = drive_params(c)
        return dp.eta1, dp.eta2

    eta = _per_row(cfg, drive)
    c = _shared(cfg).couplings
    a = embed_photon_annihilator(spec)
    if kernels is None:
        b1 = b2 = 1.0
        f2 = 1.0
    else:
        f2 = kernels.params.xx_scaling - 1.0
        b1 = kernels.bracket(1.0)
        b2 = kernels.bracket(f2)
    terms = [
        (b1 * eta[..., 0] * embed_qd_transition(spec, "G", "X"), 1.0),
        (b2 * eta[..., 1] * embed_qd_transition(spec, "X", "XX"), f2),
        (b1 * c.g1y * (embed_qd_transition(spec, "G", "Y") @ a), 1.0),
        (b2 * c.g2y * (embed_qd_transition(spec, "Y", "XX") @ a), f2),
    ]
    return terms


def _kernels_for(cfg: SystemConfig):
    if not (cfg.phonon.enable and cfg.phonon.alpha_p > 0.0):
        return None
    return build_kernels(
        cfg.phonon,
        t_max=cfg.numerics.phonon_t_max,
        n_t=cfg.numerics.phonon_n_t,
    )


def _assemble_hamiltonian(cfg, spec, terms) -> np.ndarray:
    """Rotating-frame Hamiltonian on the emitter (x) y-mode space.

    Level and y-mode detunings on the diagonal, plus op + op+ for each of
    `_coupling_terms` (drive and y couplings, phonon-renormalized); an
    (R, d, d) stack for a sequence of row configs.
    """
    def diagonal(c):
        det = detunings(c)
        return det.delta4, det.delta3, det.delta2, delta_cl_y(c)

    delta = _per_row(cfg, diagonal)
    a = embed_photon_annihilator(spec)
    h = (
        delta[..., 0] * embed_qd_transition(spec, "XX", "XX")
        + delta[..., 1] * embed_qd_transition(spec, "X", "X")
        + delta[..., 2] * embed_qd_transition(spec, "Y", "Y")
        + delta[..., 3] * (a.conj().T @ a)
    )
    for op, _ in terms:
        h = h + op + op.conj().swapaxes(-1, -2)
    return h


def _generator(cfg) -> tuple[np.ndarray, list]:
    """K and sandwich pairs of the master equation, the input of `liouvillian`.

    K = -iH - (1/2) Sum rate c+ c - Sum (g P + g+ Q); the pairs are the
    Lindblad jumps (sqrt(rate) c, sqrt(rate) c+) and, with phonons, the
    polaron pairs (P, g), (g+, P+), (Q, g+) and (g, Q+) of each
    displacement group's raising operator g (`polaron_dissipator`).  For a
    sequence of R row configs (`_shared` says what they may vary) K and the
    polaron pairs are (R, d, d) stacks, built in one pass for all rows, and
    the Lindblad pairs, equal in every row, stay (d, d).
    """
    base = _shared(cfg)
    spec = HilbertSpec(base.numerics.n_max_y)
    kernels = _kernels_for(base)
    terms = _coupling_terms(cfg, spec, kernels)
    h = _assemble_hamiltonian(cfg, spec, terms)
    r = base.rates
    channels = [
        (embed_qd_transition(spec, "X", "G"), r.gamma_x_g),
        (embed_qd_transition(spec, "Y", "G"), r.gamma_y_g),
        (embed_qd_transition(spec, "XX", "X"), r.gamma_xx_x),
        (embed_qd_transition(spec, "XX", "Y"), r.gamma_xx_y),
        (embed_photon_annihilator(spec), r.kappa_y),
    ]
    for level, rate in dephasing_projector_rates(r).items():
        if rate > 0.0:
            channels.append((embed_qd_transition(spec, level, level), rate))
    k, pairs = lindblad_generator(h, channels)
    if kernels is not None:
        k_ph, pairs_ph = polaron_dissipator(h, terms, kernels)
        k, pairs = k + k_ph, pairs + pairs_ph
    return k, pairs


def assemble_liouvillian(cfg: SystemConfig) -> np.ndarray:
    """The whole d^2 x d^2 generator: coherent part, Lindblad channels, phonons."""
    return liouvillian(*_generator(cfg))


def source_operator(cfg: SystemConfig, which: str) -> np.ndarray:
    """Lowering operator of one emission channel, "y-dipole" or "y-cavity"
    (`_SOURCES` maps each `source` setting to the channels it sums)."""
    spec = HilbertSpec(cfg.numerics.n_max_y)
    if which == "y-dipole":
        return embed_qd_transition(spec, "Y", "G") + embed_qd_transition(
            spec, "XX", "Y"
        )
    if which == "y-cavity":
        return embed_photon_annihilator(spec)
    raise ConfigurationError(f"unknown source {which!r}")


def compute_spectrum_y(cfg: SystemConfig) -> SpectrumResult:
    """Stationary y-polarized emission spectrum of the driven system.

    Builds the Liouvillian, solves for the steady state, and evaluates the
    normal-ordered emission spectrum of the configured source on the
    configured grid.  Positive offsets are above the laser.  The elastic
    line is removed; tiny negative values from the resolvent are clamped to
    zero.  With source="both" the dipole and cavity spectra are summed
    before normalization.

    The generator has the weak Z2 symmetry rho -> P rho P with
    P = (-1)^(n_y + [Y]), so it never couples the even and odd parity blocks
    of rho (`HilbertSpec.parity_blocks`), and only those two blocks of L are
    built.  `liouvillian` scatters each block from the nonzero entries of
    the operators straight into its real Hermitian basis, and names any
    operator with an entry across parity.  The steady state is one real LU
    solve in the even block, with the trace row in place of one diagonal
    row and a uniqueness certificate from one more solve (`steady_state`);
    both y sources flip P, so every s rho_ss lies in the odd block.  The
    same certificate shows that block has no kernel, and one decomposition
    of it serves all sources (`regression_spectrum`):
    a real `eig` up to 200 rows (n_max_y <= 4), above that a two-sided
    Krylov reduced model whose order grows until two successive orders
    agree to 1e-10 on the grid, with the `eig` as its fallback.  A start
    vector with weight outside the odd block raises, and so do a steady
    state that is not unique over the whole L (a kernel of the even block
    other than one-dimensional, or a kernel of the odd block), a block
    whose L has an imaginary part in that basis, and an undamped pole.

    This is the one-row case of `_spectra`, which runs the rows of a sweep
    through the same pipeline as stacks with a leading row axis, each row's
    intensity equal bit for bit to this function's for its config.
    """
    grid, total = _spectra(cfg)
    meta = {
        "config_hash": config_hash(cfg),
        "source": cfg.source,
        "phonons": bool(cfg.phonon.enable and cfg.phonon.alpha_p > 0.0),
        "normalized": bool(cfg.normalize),
        "laser_detuning": cfg.laser_detuning,
        "tool": f"bixsim {_version}",
    }
    return SpectrumResult(omega_offsets=grid, intensity=total, metadata=meta)


def _spectra(cfg) -> tuple[np.ndarray, np.ndarray]:
    """(grid, intensity) of cfg, or of each of a sequence of R row configs.

    The intensity is (n_omega,) for one config and (R, n_omega) for rows,
    which may differ only as `_shared` says (a sweep varies the drive or
    the laser detuning).  The rows go through every stage at once, with a
    leading row axis: one `_generator`, one `liouvillian` call per parity
    block, one `steady_state` and one `emission_spectrum` for the stack.
    Each row is clipped at zero and, if its config says so, divided by its
    own maximum when that is positive.  Errors are those of
    `compute_spectrum_y`.
    """
    base = _shared(cfg)
    n = base.numerics
    spec = HilbertSpec(n.n_max_y)
    k, pairs = _generator(cfg)
    even, odd = spec.parity_blocks()
    l_even = liouvillian(k, pairs, even)
    rho_ss = steady_state(l_even, kernel_rtol=n.steady_rtol, block=even)
    del l_even  # one block of L held at a time
    l_odd = liouvillian(k, pairs, odd)
    del k, pairs
    grid = np.linspace(-n.omega_half_span, n.omega_half_span, n.n_omega)

    ops = [source_operator(base, which) for which in _SOURCES[base.source]]
    total = emission_spectrum(l_odd, ops, rho_ss, grid, odd)
    total = np.clip(total, 0.0, None)
    rows = [cfg] if isinstance(cfg, SystemConfig) else cfg
    for c, row in zip(rows, total.reshape(-1, grid.size)):
        top = row.max()
        if c.normalize and top > 0.0:
            row /= top
    return grid, total
