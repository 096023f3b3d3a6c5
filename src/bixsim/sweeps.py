"""Power and detuning sweeps of the emission spectrum, plus peak analysis.

Both sweeps run one row loop, `_sweep`: each row sets one config field (the
drive amplitude or the laser detuning) and is one normalized spectrum; the
rows, in order, form a SweepMap, and a failing row names its axis value.
The rows go through the solver as stacks with a leading row axis
(`system._spectra`), each of as many rows as keep its larger parity block
within `_STACK_ENTRIES` matrix entries (5 rows at n_max_y=2, 2 at 3, one
from 4 on); each row equals `compute_spectrum_y` of its config, bit for
bit.  The budget is set by memory: every row of a stack keeps its odd block
alive while one row's (n_omega, n) resolvent is formed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, SolverError
from .hilbert import HilbertSpec
from .liouville import SpectrumResult
from .system import SystemConfig, _spectra, calibrate_drive, compute_spectrum_y, config_hash

__all__ = [
    "SweepMap",
    "PeakReport",
    "power_sweep",
    "detuning_sweep",
    "phonon_comparison",
    "extract_peaks",
]

_STACK_ENTRIES = 2**15  # entries of a stack of the larger parity block, all rows
_MIN_PROMINENCE = 0.01  # of the spectrum maximum
_CLUSTER_OFFSET = 500.0  # ueV from the laser


@dataclass(frozen=True)
class SweepMap:
    """Rectangular intensity map: rows follow axis1, columns axis2 (ueV)."""

    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray
    axis1_name: str
    metadata: dict

    def __post_init__(self):
        a1 = np.asarray(self.axis1, dtype=float)
        a2 = np.asarray(self.axis2, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (a1.size, a2.size):
            raise ConfigurationError(
                f"map shape {vals.shape} does not match axes "
                f"({a1.size}, {a2.size})"
            )
        if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2))):
            raise ConfigurationError("sweep axes must be finite")
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError("sweep values must be finite")
        if vals.size and vals.min() < 0.0:
            raise ConfigurationError("sweep values must be nonnegative")
        object.__setattr__(self, "axis1", a1)
        object.__setattr__(self, "axis2", a2)
        object.__setattr__(self, "values", vals)


def _sweep(cfg, values, vary, *, kind, label, axis1_name) -> SweepMap:
    """Map of the spectra of vary(cfg, v) for v in values, one row each.

    Each row is the spectrum of its config with normalize=True, so it is
    divided by its own maximum and a dark row stays zero.  The rows run as
    stacks of at most `_STACK_ENTRIES` entries of the larger parity block
    (one row at least); a stack that raises SolverError or LinAlgError is
    run again one row at a time, and the first row that fails raises
    SolverError naming its axis value.  The values must be at least two and
    distinct, or ConfigurationError.  The config is hashed once, for the
    map; the rows make no SpectrumResult."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise ConfigurationError("a sweep needs at least two rows")
    if np.any(np.diff(np.sort(values)) == 0.0):  # np.unique would import numpy.ma
        raise ConfigurationError(
            f"sweep values of {label} must be distinct; each row would repeat "
            "the spectrum of another"
        )
    base = replace(cfg, normalize=True)
    configs = [vary(base, float(v)) for v in values]
    block = max(b.size for b in HilbertSpec(cfg.numerics.n_max_y).parity_blocks())
    size = max(_STACK_ENTRIES // block**2, 1)
    rows = []
    for start in range(0, values.size, size):
        chunk = configs[start:start + size]
        try:
            grid, intensity = _spectra(chunk)
        except (SolverError, np.linalg.LinAlgError):
            intensity = []
            for v, row in zip(values[start:], chunk):
                try:
                    grid, spectrum = _spectra([row])
                except SolverError as exc:
                    raise SolverError(f"row at {label}={v:g} failed: {exc}") from exc
                intensity.append(spectrum[0])
        rows.extend(intensity)
    meta = {"base_config_hash": config_hash(cfg), "sweep": kind,
            "normalization": "per-row"}
    return SweepMap(values, grid, np.array(rows), axis1_name, meta)


def power_sweep(
    cfg: SystemConfig,
    omega_values=None,
    n_rows: int = 41,
    max_splitting: float = 300.0,
) -> SweepMap:
    """Spectrum map versus bare drive amplitude.

    Without explicit omega_values the rows run from zero drive up to the
    amplitude whose phonon-free doublet splitting equals max_splitting.
    """
    if omega_values is None:
        top = calibrate_drive(cfg, max_splitting).drive.omega
        omega_values = np.linspace(0.0, top, max(n_rows, 0))  # < 2 fails in _sweep

    def vary(c, w):
        return replace(c, drive=replace(c.drive, omega=w, eta1=None, eta2=None))

    return _sweep(cfg, omega_values, vary,
                  kind="power", label="Omega", axis1_name="omega_drive")


def detuning_sweep(
    cfg: SystemConfig,
    detuning_values=None,
    n_rows: int = 41,
    span: float | None = None,
) -> SweepMap:
    """Spectrum map versus laser detuning at fixed drive power.

    The drive amplitude entering the filter stays constant; the effective
    eta and the two-photon detuning track each row automatically.  Default
    rows cover +-2 kappa_x around zero.
    """
    if detuning_values is None:
        half = 2.0 * cfg.rates.kappa_x if span is None else span
        detuning_values = np.linspace(-half, half, max(n_rows, 0))  # < 2 fails in _sweep

    def vary(c, d):
        return replace(c, laser_detuning=d)

    return _sweep(cfg, detuning_values, vary, kind="detuning",
                  label="laser_detuning", axis1_name="laser_detuning")


def phonon_comparison(cfg: SystemConfig) -> tuple[SpectrumResult, SpectrumResult]:
    """Spectra with and without the phonon channel, on a common scale.

    The two configs differ only in phonon.enable; both raw spectra are
    divided by their common maximum when it is positive, so relative
    weights stay comparable.
    """
    cfg_on = replace(cfg, phonon=replace(cfg.phonon, enable=True), normalize=False)
    cfg_off = replace(cfg, phonon=replace(cfg.phonon, enable=False), normalize=False)
    res_on = compute_spectrum_y(cfg_on)
    res_off = compute_spectrum_y(cfg_off)
    top = max(res_on.intensity.max(), res_off.intensity.max())
    scale = top if top > 0.0 else 1.0

    def rescale(res, label):
        meta = dict(res.metadata)
        meta["comparison"] = label
        meta["common_scale"] = top
        return SpectrumResult(res.omega_offsets, res.intensity / scale, meta)

    return rescale(res_on, "phonons-on"), rescale(res_off, "phonons-off")


def _find_peaks(y: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the local maxima of y with prominence >= min_prominence.

    The same indices as scipy.signal.find_peaks(y, prominence=min_prominence):
    a flat top counts once, at its middle sample (left + right) // 2, and the
    end samples never count.  The prominence is the height of a peak above
    the higher of its two side minima, each taken from the peak out to the
    first strictly higher sample or the end of y.
    """
    if y.size < 3:
        return np.array([], dtype=int)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(y)) + 1))  # equal runs
    level = y[starts]
    top = (level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])
    keep = []
    for i in ((starts[1:-1] + starts[2:] - 1) // 2)[top]:
        higher = np.flatnonzero(y[:i] > y[i])
        left = y[higher[-1] + 1 if higher.size else 0 : i + 1].min()
        higher = np.flatnonzero(y[i:] > y[i])
        right = y[i : i + higher[0] if higher.size else None].min()
        if y[i] - max(left, right) >= min_prominence:
            keep.append(int(i))
    return np.array(keep, dtype=int)


@dataclass(frozen=True)
class PeakReport:
    """Peak positions/heights plus cluster splittings of a single spectrum."""

    positions: np.ndarray
    heights: np.ndarray
    upper_splittings: np.ndarray
    lower_splittings: np.ndarray
    left_sum: float
    right_sum: float

    @property
    def n_peaks(self) -> int:
        return int(self.positions.size)


def extract_peaks(result: SpectrumResult) -> PeakReport:
    """Locate spectral peaks and group them into detuned clusters.

    Peaks are the local maxima with a prominence of at least 1% of the
    spectrum maximum, refined with a three-point parabola.  Clusters more
    than 500 ueV from the laser are reported with their internal
    splittings; left/right sums aggregate peak heights below/above the
    laser.
    """
    x = np.asarray(result.omega_offsets, dtype=float)
    y = np.asarray(result.intensity, dtype=float)
    top = y.max() if y.size else 0.0
    if top <= 0.0:
        empty = np.array([])
        return PeakReport(empty, empty, empty.copy(), empty.copy(), 0.0, 0.0)
    idx = _find_peaks(y, _MIN_PROMINENCE * top)
    positions = []
    heights = []
    for i in idx:
        xi, yi = x[i], y[i]  # never an end sample (`_find_peaks`)
        denom = y[i - 1] - 2.0 * y[i] + y[i + 1]
        if denom < 0.0:
            shift = 0.5 * (y[i - 1] - y[i + 1]) / denom
            shift = float(np.clip(shift, -1.0, 1.0))
            xi = x[i] + shift * (x[i] - x[i - 1])
            yi = y[i] - 0.25 * (y[i - 1] - y[i + 1]) * shift
        positions.append(float(xi))
        heights.append(float(yi))
    positions = np.array(positions)
    heights = np.array(heights)

    def splittings(mask):
        pts = np.sort(positions[mask])
        return np.diff(pts) if pts.size > 1 else np.array([])

    return PeakReport(
        positions=positions,
        heights=heights,
        upper_splittings=splittings(positions > _CLUSTER_OFFSET),
        lower_splittings=splittings(positions < -_CLUSTER_OFFSET),
        left_sum=float(heights[positions < 0.0].sum()),
        right_sum=float(heights[positions > 0.0].sum()),
    )
