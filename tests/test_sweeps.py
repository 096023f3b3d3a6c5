"""Sweep maps, peak extraction, export round-trips, determinism."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import bixsim
from bixsim.errors import ConfigurationError, SolverError
from bixsim.hilbert import HilbertSpec
from bixsim.export import export_map, export_spectrum
from bixsim.liouville import SpectrumResult
from bixsim.sweeps import (
    SweepMap,
    _find_peaks,
    detuning_sweep,
    extract_peaks,
    phonon_comparison,
    power_sweep,
)
from bixsim.system import compute_spectrum_y, default_config, load_config


def small_config():
    cfg = default_config()
    return replace(
        cfg,
        phonon=replace(cfg.phonon, enable=False),
        numerics=replace(
            cfg.numerics, n_max_y=1, n_omega=241, omega_half_span=1200.0
        ),
        drive=replace(cfg.drive, omega=252.83669951857598),
    )


def lorentzian(x, x0, w, a):
    return a * (w / 2.0) ** 2 / ((x - x0) ** 2 + (w / 2.0) ** 2)


def test_extract_peaks_synthetic_doublet():
    x = np.linspace(-100.0, 100.0, 4001)
    y = lorentzian(x, -30.0, 4.0, 1.0) + lorentzian(x, 42.0, 6.0, 0.55)
    rep = extract_peaks(SpectrumResult(x, y, {}))
    assert rep.n_peaks == 2
    assert rep.positions[0] == pytest.approx(-30.0, abs=0.02)
    assert rep.positions[1] == pytest.approx(42.0, abs=0.02)
    assert rep.heights[0] == pytest.approx(1.0, abs=2e-3)
    assert rep.heights[1] == pytest.approx(0.55, abs=2e-3)
    assert rep.left_sum == pytest.approx(rep.heights[0])
    assert rep.right_sum == pytest.approx(rep.heights[1])


def test_extract_peaks_empty_spectrum():
    x = np.linspace(-1.0, 1.0, 11)
    rep = extract_peaks(SpectrumResult(x, np.zeros_like(x), {}))
    assert rep.n_peaks == 0


def scipy_peaks(y, prominence):
    from scipy.signal import find_peaks

    return find_peaks(y, prominence=prominence)[0]


def test_find_peaks_matches_scipy_on_random_arrays():
    rng = np.random.default_rng(11)
    for k in range(400):
        n = int(rng.integers(0, 80))
        if k % 2:  # integer-valued: many plateaus, some at the ends
            y = rng.integers(0, 4, size=n).astype(float)
        else:
            y = rng.normal(size=n)
        prominence = float(rng.choice([0.0, 0.1, 0.5, 1.0, 2.0]))
        assert np.array_equal(_find_peaks(y, prominence), scipy_peaks(y, prominence))


@pytest.mark.parametrize("y, expected", [
    ([0, 2, 2, 2, 0], [2]),  # flat top: the middle sample
    ([0, 2, 2, 2, 2, 0], [2]),  # even width: (left + right) // 2
    ([2, 2, 1, 3, 3, 3], []),  # plateaus touching either end never count
    ([0, 1, 1, 2, 0], [3]),  # a shelf on the way up is no peak
    ([0, 3, 1, 2, 1, 3, 0], [1, 5]),  # the middle bump has prominence 1
    ([5], []),
    ([], []),
])
def test_find_peaks_plateaus_match_scipy(y, expected):
    y = np.asarray(y, dtype=float)
    assert _find_peaks(y, 1.5).tolist() == expected
    for prominence in (0.0, 1.0, 1.5):
        assert np.array_equal(_find_peaks(y, prominence), scipy_peaks(y, prominence))


def test_find_peaks_matches_scipy_on_every_map_row():
    cfg = default_config()
    cfg = replace(cfg, drive=replace(cfg.drive, omega=252.83669951857598))
    found = 0
    for m in (power_sweep(cfg, n_rows=21), detuning_sweep(cfg, n_rows=21)):
        assert m.values.shape[0] == 21
        for row in m.values:
            prominence = 0.01 * row.max()
            idx = _find_peaks(row, prominence)
            assert np.array_equal(idx, scipy_peaks(row, prominence))
            found += idx.size
    assert found > 60  # two to five lines per row, the dark zero-drive row aside


def test_import_loads_no_scipy():
    import bixsim

    src = os.path.dirname(os.path.dirname(os.path.abspath(bixsim.__file__)))
    code = ("import sys, bixsim, bixsim.cli, bixsim.export; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_spectrum_request_loads_no_scipy(tmp_path):
    # a whole request (phonon-on spectrum, peaks, export), a stacked 3-row
    # power sweep with its export, and the numerical branch of the dressed
    # ladder stay numpy-only, so a first request pays no scipy import; nor
    # does it load numpy.random, which would add 6 MB of RSS (the probe of
    # liouville._solve_with_gap is a closed-form sequence)
    import bixsim

    src = os.path.dirname(os.path.dirname(os.path.abspath(bixsim.__file__)))
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from bixsim.export import export_map, export_spectrum\n"
        "from bixsim.sweeps import extract_peaks, power_sweep\n"
        "from bixsim.dressed import DetuningSet, DriveParams, dressed_eigenvalues\n"
        "from bixsim.system import compute_spectrum_y, default_config\n"
        "off_resonance = DetuningSet(965.0, 990.0, 37.0)\n"
        "assert dressed_eigenvalues(off_resonance, DriveParams(150.0, 180.0)).numerical\n"
        "cfg = default_config()\n"
        "cfg = replace(cfg, phonon=replace(cfg.phonon, enable=True),\n"
        "              numerics=replace(cfg.numerics, n_max_y=2))\n"
        "res = compute_spectrum_y(cfg)\n"
        "assert res.metadata['phonons']\n"
        "extract_peaks(res)\n"
        "export_spectrum(res, sys.argv[1])\n"
        "export_map(power_sweep(cfg, n_rows=3), sys.argv[1])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.split() == ["[]", "False"]
    assert (tmp_path / "spectrum.csv").exists()
    assert (tmp_path / "map_values.csv").exists()


def test_power_sweep_shapes_and_normalization():
    cfg = small_config()
    omegas = np.linspace(0.0, 260.0, 4)
    m = power_sweep(cfg, omega_values=omegas)
    assert m.metadata["normalization"] == "per-row"
    assert m.values.shape == (4, 241)
    # zero-drive row is dark and must stay dark instead of being rescaled
    assert np.max(m.values[0]) == 0.0
    for i in range(1, 4):
        assert np.max(m.values[i]) == pytest.approx(1.0)
    assert m.axis1_name == "omega_drive"


def test_power_sweep_needs_two_rows():
    with pytest.raises(ConfigurationError):
        power_sweep(small_config(), omega_values=[100.0])


@pytest.mark.parametrize("sweep", [power_sweep, detuning_sweep])
@pytest.mark.parametrize("n_rows", [1, -2])
def test_sweeps_reject_fewer_than_two_rows(sweep, n_rows):
    # one rule for every row count below two, negative ones included
    with pytest.raises(ConfigurationError, match="^a sweep needs at least two rows$"):
        sweep(small_config(), n_rows=n_rows)


@pytest.mark.parametrize(
    "run, label",
    [
        (lambda cfg: detuning_sweep(cfg, n_rows=3, span=0.0), "laser_detuning"),
        (lambda cfg: power_sweep(cfg, omega_values=[50.0, 120.0, 50.0]), "Omega"),
    ],
    ids=["zero-span", "repeated-omega"],
)
def test_sweeps_reject_repeated_axis_values(monkeypatch, run, label):
    # a zero span or a repeated value computes one spectrum several times;
    # the rule fires before any row is solved, stacked or alone
    from bixsim import sweeps

    def no_spectrum(cfgs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(sweeps, "_spectra", no_spectrum)
    with pytest.raises(ConfigurationError, match=f"^sweep values of {label} must be distinct"):
        run(small_config())


def test_sweeps_are_deterministic():
    cfg = small_config()
    omegas = np.linspace(50.0, 260.0, 3)
    a = power_sweep(cfg, omega_values=omegas)
    b = power_sweep(cfg, omega_values=omegas)
    assert np.array_equal(a.values, b.values)


def test_detuning_sweep_tracks_two_photon_condition():
    cfg = small_config()
    rows = np.linspace(-40.0, 40.0, 3)
    m = detuning_sweep(cfg, detuning_values=rows)
    assert np.array_equal(m.axis1, rows)
    assert m.values.shape == (3, 241)
    assert m.axis1_name == "laser_detuning"


def test_detuning_sweep_point_symmetry_of_symmetrized_model():
    # with all level offsets and the mode splitting at zero, flipping the
    # laser detuning mirrors the spectrum: M(-d, -w) = M(d, w); mirrored rows
    # have equal maxima, so the per-row map keeps the symmetry
    base = small_config()
    sym = replace(
        base,
        energies=replace(base.energies, omega_x=0.0, omega_y=0.0, omega_xx=0.0),
        cavity_split=0.0,
        drive=replace(base.drive, omega=120.0),
        numerics=replace(base.numerics, n_omega=201, omega_half_span=600.0),
    )
    rows = np.linspace(-80.0, 80.0, 5)
    m = detuning_sweep(sym, detuning_values=rows)
    assert np.all(m.values.max(axis=1) == 1.0)
    flipped = m.values[::-1, ::-1]
    assert np.max(np.abs(m.values - flipped)) < 1e-12


def test_failing_sweep_row_names_its_axis_value(monkeypatch):
    # the stack of all rows fails, so the sweep runs them again one at a
    # time, in order, and the first row that fails names its axis value
    import bixsim.sweeps

    real = bixsim.sweeps._spectra
    calls = []

    def fails_on_row_2(cfgs, axis, value):
        calls.append([axis(c) for c in cfgs])
        assert all(c.normalize for c in cfgs)
        if value in calls[-1]:
            raise SolverError("no steady state found")
        return real(cfgs)

    cfg = small_config()
    monkeypatch.setattr(bixsim.sweeps, "_spectra",
                        lambda cfgs: fails_on_row_2(cfgs, lambda c: c.drive.omega, 130.0))
    with pytest.raises(SolverError,
                       match=r"^row at Omega=130 failed: no steady state found$"):
        power_sweep(cfg, omega_values=[0.0, 130.0, 260.0])
    assert calls == [[0.0, 130.0, 260.0], [0.0], [130.0]]  # then one call per row
    calls.clear()
    monkeypatch.setattr(bixsim.sweeps, "_spectra",
                        lambda cfgs: fails_on_row_2(cfgs, lambda c: c.laser_detuning, -12.5))
    with pytest.raises(SolverError,
                       match=r"^row at laser_detuning=-12\.5 failed: no steady"):
        detuning_sweep(cfg, detuning_values=[-25.0, -12.5, 0.0])
    assert calls == [[-25.0, -12.5, 0.0], [-25.0], [-12.5]]


def test_phonon_comparison_shares_common_scale():
    cfg = replace(small_config(), numerics=replace(small_config().numerics,
                                                   n_omega=161))
    on, off = phonon_comparison(cfg)
    assert on.metadata["comparison"] == "phonons-on"
    assert off.metadata["comparison"] == "phonons-off"
    top = max(on.intensity.max(), off.intensity.max())
    assert top == pytest.approx(1.0, rel=1e-12)
    assert on.metadata["common_scale"] == off.metadata["common_scale"]


def test_map_rows_are_normalized_spectra(monkeypatch):
    # a map row is the spectrum compute_spectrum_y returns for the row's
    # config, bit for bit, however the rows are stacked: at the baseline,
    # with phonons off, with source="both", at n_max_y=5 (odd blocks on the
    # reduced model), split into chunks of two rows, and in one stack of 21;
    # the zero-drive row is dark and stays zero
    from bixsim import liouville, sweeps

    base = load_config(os.path.join(os.path.dirname(bixsim.__file__), "data",
                                    "baseline.json"))
    cases = {
        "baseline": base,
        "phonons-off": replace(base, phonon=replace(base.phonon, enable=False)),
        "both": replace(base, source="both"),
        "n_max_y-5": replace(base, numerics=replace(base.numerics, n_max_y=5)),
        "chunked": base,
    }
    stacks = []
    real, budget = sweeps._spectra, sweeps._STACK_ENTRIES

    def recorded(cfgs):
        stacks.append(len(cfgs))
        return real(cfgs)

    monkeypatch.setattr(sweeps, "_spectra", recorded)
    for case, cfg in cases.items():
        even, odd = HilbertSpec(cfg.numerics.n_max_y).parity_blocks()
        if case == "chunked":
            monkeypatch.setattr(sweeps, "_STACK_ENTRIES", 2 * even.size**2)
        if case == "n_max_y-5":
            assert odd.size > liouville._KRYLOV_MIN_ROWS
        per_stack = max(sweeps._STACK_ENTRIES // max(even.size, odd.size) ** 2, 1)
        stacks.clear()
        power = power_sweep(cfg, n_rows=5)
        expected = [min(per_stack, 5 - i) for i in range(0, 5, per_stack)]
        assert stacks == expected, case
        if cfg.numerics.n_max_y == 2:  # one stack of all rows, or stacks of two
            assert expected == ([2, 2, 1] if case == "chunked" else [5])
        assert not np.any(power.values[0])
        for omega, row in zip(power.axis1, power.values):
            row_cfg = replace(cfg, drive=replace(cfg.drive, omega=float(omega)))
            assert np.array_equal(row, compute_spectrum_y(row_cfg).intensity), case
        detuning = detuning_sweep(cfg, n_rows=5)
        for d, row in zip(detuning.axis1, detuning.values):
            row_cfg = replace(cfg, laser_detuning=float(d))
            assert np.array_equal(row, compute_spectrum_y(row_cfg).intensity), case
    # the benchmark's maps, 21 rows at n_max_y=2, run as one stack each, and
    # the 41-row default splits into stacks of 23 and 18
    monkeypatch.setattr(sweeps, "_STACK_ENTRIES", budget)
    even, odd = HilbertSpec(2).parity_blocks()
    per_stack = sweeps._STACK_ENTRIES // max(even.size, odd.size) ** 2
    assert per_stack == 23
    for sweep, vary in ((power_sweep, lambda c, x: replace(c, drive=replace(c.drive, omega=x))),
                        (detuning_sweep, lambda c, x: replace(c, laser_detuning=x))):
        stacks.clear()
        sweep_map = sweep(base, n_rows=21)
        assert stacks == [21], sweep.__name__
        for x, row in zip(sweep_map.axis1, sweep_map.values):
            row_cfg = vary(base, float(x))
            assert np.array_equal(row, compute_spectrum_y(row_cfg).intensity), sweep.__name__
        stacks.clear()
        sweep(base)
        assert stacks == [per_stack, 41 - per_stack], sweep.__name__


def test_benchmark_map_peak_memory():
    # the tracemalloc peak of a 21-row power map at n_max_y=2, run as one
    # stack: 3.43 MB measured, against 2.64 MB in the stacks of 5 rows that
    # the 1.8 MB complex resolvent of each row once forced (1.02 and 2.42 MB
    # for 5 rows).  The bound leaves 17%: a resolvent over the whole grid
    # (+1.5 MB), or more rows in the stack, shows here before it shows in the
    # benchmark's RSS
    import tracemalloc

    base = load_config(os.path.join(os.path.dirname(bixsim.__file__), "data",
                                    "baseline.json"))
    power_sweep(base, n_rows=2)  # kernels and their tables built first
    tracemalloc.start()
    try:
        power_sweep(base, n_rows=21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_sweep_hashes_its_config_once(monkeypatch):
    # the map's metadata holds the base config's hash; its rows make no
    # SpectrumResult and hash nothing
    from bixsim import sweeps, system

    hashed = []
    real = system.config_hash

    def counted(cfg):
        hashed.append(cfg)
        return real(cfg)

    monkeypatch.setattr(system, "config_hash", counted)
    monkeypatch.setattr(sweeps, "config_hash", counted)
    cfg = small_config()
    m = power_sweep(cfg, omega_values=[0.0, 130.0, 260.0])
    assert hashed == [cfg]
    assert m.metadata["base_config_hash"] == real(cfg)


def test_phonon_comparison_divides_by_the_common_maximum():
    cfg = replace(small_config(), numerics=replace(small_config().numerics,
                                                   n_omega=161))
    on, off = phonon_comparison(cfg)
    assert max(on.intensity.max(), off.intensity.max()) == 1.0
    raw = [compute_spectrum_y(replace(cfg, phonon=replace(cfg.phonon, enable=e),
                                      normalize=False)).intensity
           for e in (True, False)]
    top = max(r.max() for r in raw)
    assert np.array_equal(on.intensity, raw[0] / top)
    assert np.array_equal(off.intensity, raw[1] / top)


def test_sweep_map_validation():
    with pytest.raises(ConfigurationError):
        SweepMap(np.arange(3.0), np.arange(4.0), np.zeros((2, 4)), "x", {})
    with pytest.raises(ConfigurationError):
        SweepMap(np.arange(2.0), np.arange(2.0), -np.ones((2, 2)), "x", {})
    with pytest.raises(ConfigurationError):
        SweepMap(np.arange(2.0), np.arange(2.0), np.full((2, 2), np.nan), "x", {})
    with pytest.raises(ConfigurationError, match="sweep axes must be finite"):
        SweepMap(np.array([0.0, np.inf]), np.arange(2.0), np.zeros((2, 2)), "x", {})


def test_spectrum_export_roundtrip(tmp_path):
    x = np.linspace(-5.0, 5.0, 101)
    y = lorentzian(x, 1.0, 0.7, 0.9)
    res = SpectrumResult(x, y, {"source": "y-dipole", "config_hash": "abc"})
    for fmt, name in (("csv", "spectrum.csv"), ("json", "spectrum.json")):
        out = tmp_path / fmt
        paths = export_spectrum(res, str(out), fmt=fmt)
        assert any(p.endswith(name) for p in paths)
        if fmt == "csv":
            back = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2).T
        else:
            doc = json.loads((out / name).read_text())
            back = np.array([doc["omega_offsets"], doc["intensity"]])
            assert doc["metadata"] == res.metadata
        assert np.array_equal(back[0], x)
        assert np.array_equal(back[1], y)
        meta = json.loads((out / "spectrum.meta.json").read_text())
        assert meta["source"] == "y-dipole"


def test_map_export_roundtrip(tmp_path):
    cfg = small_config()
    m = power_sweep(cfg, omega_values=np.linspace(50.0, 260.0, 3))
    for fmt in ("csv", "json"):
        out = tmp_path / fmt
        export_map(m, str(out), fmt=fmt)
        if fmt == "csv":
            back = {name: np.loadtxt(out / f"map_{name}.csv", delimiter=",",
                                     skiprows=0 if name == "values" else 1,
                                     ndmin=2 if name == "values" else 1)
                    for name in ("axis1", "axis2", "values")}
        else:
            back = json.loads((out / "map.json").read_text())
        for name in ("axis1", "axis2", "values"):
            assert np.array_equal(np.asarray(back[name]), getattr(m, name))
        meta = json.loads((out / "map.meta.json").read_text())
        assert meta["axis1_name"] == "omega_drive"
        assert meta["normalization"] == "per-row"


def test_export_is_byte_deterministic(tmp_path):
    x = np.linspace(-2.0, 2.0, 41)
    res = SpectrumResult(x, lorentzian(x, 0.3, 0.5, 2.0), {"config_hash": "xyz"})
    a = tmp_path / "a"
    b = tmp_path / "b"
    export_spectrum(res, str(a))
    export_spectrum(res, str(b))
    assert (a / "spectrum.csv").read_bytes() == (b / "spectrum.csv").read_bytes()
    assert (a / "spectrum.meta.json").read_bytes() == (
        b / "spectrum.meta.json"
    ).read_bytes()


def test_export_bytes_match_savetxt_and_json_dump(tmp_path):
    x = np.linspace(-2.0, 2.0, 41)
    res = SpectrumResult(x, lorentzian(x, 0.3, 0.5, 2.0), {"config_hash": "xyz"})
    m = SweepMap(np.arange(3.0), x, np.abs(np.outer(np.arange(1.0, 4.0), x)),
                 "omega_drive", {"config_hash": "xyz", "normalization": "per_row"})
    export_spectrum(res, str(tmp_path / "s"))
    export_spectrum(res, str(tmp_path / "s"), fmt="json")
    export_map(m, str(tmp_path / "m"))
    export_map(m, str(tmp_path / "m"), fmt="json")

    def savetxt(arr, **kw):
        path = tmp_path / "ref.csv"
        np.savetxt(path, arr, fmt="%.17g", delimiter=",", **kw)
        return path.read_bytes()

    def dump(payload):
        path = tmp_path / "ref.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path.read_bytes()

    data = np.column_stack([x, res.intensity])
    meta = {**m.metadata, "axis1_name": "omega_drive"}
    expected = {
        "s/spectrum.csv": savetxt(data, header="offset_ueV,intensity", comments=""),
        "s/spectrum.meta.json": dump(res.metadata),
        "s/spectrum.json": dump({"omega_offsets": x.tolist(),
                                 "intensity": res.intensity.tolist(),
                                 "metadata": res.metadata}),
        "m/map_axis1.csv": savetxt(m.axis1, header="axis1", comments=""),
        "m/map_axis2.csv": savetxt(m.axis2, header="axis2", comments=""),
        "m/map_values.csv": savetxt(m.values),
        "m/map.meta.json": dump(meta),
        "m/map.json": dump({"axis1": m.axis1.tolist(), "axis2": m.axis2.tolist(),
                            "values": m.values.tolist(), "metadata": meta}),
    }
    for name, want in expected.items():
        assert (tmp_path / name).read_bytes() == want, name


def test_export_overwrites_existing_files_in_place(tmp_path, monkeypatch):
    import os

    import bixsim.export

    opened = {}
    real_open = os.open

    def recording_open(path, flags, *args):
        opened[os.path.basename(path)] = flags
        return real_open(path, flags, *args)

    long_x = np.linspace(-2.0, 2.0, 101)
    short_x = np.linspace(-2.0, 2.0, 41)
    long_res = SpectrumResult(long_x, lorentzian(long_x, 0.3, 0.5, 2.0),
                              {"config_hash": "a much longer metadata value"})
    short_res = SpectrumResult(short_x, lorentzian(short_x, 0.1, 0.5, 2.0),
                               {"config_hash": "xyz"})
    out = tmp_path / "out"
    fresh = tmp_path / "fresh"
    export_spectrum(long_res, str(out))
    inodes = {p.name: p.stat().st_ino for p in out.iterdir()}
    monkeypatch.setattr(bixsim.export.os, "open", recording_open)
    export_spectrum(short_res, str(out))
    monkeypatch.undo()
    # never truncated to zero first: on ext4 that forces a flush per call
    assert sorted(opened) == sorted(inodes)
    assert not any(flags & os.O_TRUNC for flags in opened.values())
    export_spectrum(short_res, str(fresh))
    for name, ino in inodes.items():
        assert (out / name).stat().st_ino == ino  # same file, not a new one
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


def test_export_rejects_unknown_format(tmp_path, monkeypatch):
    x = np.linspace(-1.0, 1.0, 5)
    res = SpectrumResult(x, np.zeros_like(x), {})
    with pytest.raises(ConfigurationError):
        export_spectrum(res, str(tmp_path / "s"), fmt="xml")
    sweep = SweepMap(np.arange(2.0), x, np.zeros((2, 5)), "x", {})
    with pytest.raises(ConfigurationError):
        export_map(sweep, str(tmp_path / "m"), fmt="xml")
    # so is a PNG without matplotlib, before the tables or the sidecar
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import fails
    with pytest.raises(ConfigurationError, match="rendering needs matplotlib"):
        export_spectrum(res, str(tmp_path / "s"), render=True)
    with pytest.raises(ConfigurationError, match="rendering needs matplotlib"):
        export_map(sweep, str(tmp_path / "m"), fmt="json", render=True)
    assert not any(tmp_path.iterdir())  # rejected before any directory is made


def test_export_render_appends_png_after_sidecar(tmp_path, monkeypatch):
    import bixsim.export

    drawn = []

    def stub(obj, path):
        drawn.append((obj, path))
        return path

    monkeypatch.setattr(bixsim.export, "render_spectrum", stub)
    monkeypatch.setattr(bixsim.export, "render_heatmap", stub)
    monkeypatch.setattr(bixsim.export, "_pyplot", lambda: None)  # no matplotlib needed
    x = np.linspace(-1.0, 1.0, 5)
    res = SpectrumResult(x, np.ones_like(x), {})
    sweep = SweepMap(np.arange(2.0), x, np.ones((2, 5)), "x", {})
    got = export_spectrum(res, str(tmp_path), stem="s", render=True)
    assert got == [str(tmp_path / n) for n in ("s.csv", "s.meta.json", "s.png")]
    got = export_map(sweep, str(tmp_path), fmt="json", stem="m", render=True)
    assert got == [str(tmp_path / n) for n in ("m.json", "m.meta.json", "m.png")]
    assert [path for _, path in drawn] == [str(tmp_path / "s.png"),
                                           str(tmp_path / "m.png")]
    assert drawn[0][0] is res and drawn[1][0] is sweep
