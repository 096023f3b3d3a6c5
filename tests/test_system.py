"""Configuration handling and assembly of the full master equation."""

import json
import typing
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import tracemalloc

from kron_oracle import (
    broadcast_resolvent_sum,
    complex_regression_spectra,
    complex_steady_state,
    gather_liouvillian,
    generator_superop,
    hamiltonian_superop,
    hermitian_basis_matrix,
    lindblad_dissipator,
    reduced_hamiltonian,
    svd_steady_state,
)

from bixsim import liouville, system
from bixsim.dressed import dressed_eigenvalues, transition_catalog
from bixsim.errors import ConfigurationError, SolverError
from bixsim.hilbert import (
    HilbertSpec,
    embed_photon_annihilator,
    embed_qd_transition,
)
from bixsim.liouville import steady_state, unvec, vec
from bixsim.phonons import polaron_dissipator
from bixsim.system import (
    Rates,
    SystemConfig,
    assemble_liouvillian,
    calibrate_drive,
    compute_spectrum_y,
    config_from_dict,
    config_hash,
    config_to_dict,
    default_config,
    dephasing_projector_rates,
    detunings,
    drive_params,
    load_config,
    save_config,
    source_operator,
)


def fast_config(**kw):
    cfg = default_config()
    cfg = replace(
        cfg,
        drive=replace(cfg.drive, omega=252.83669951857598),
        phonon=replace(cfg.phonon, enable=False),
        numerics=replace(cfg.numerics, n_omega=401),
    )
    return replace(cfg, **kw) if kw else cfg


def test_detuning_mapping():
    cfg = replace(default_config(), laser_detuning=12.5)
    det = detunings(cfg)
    assert det.delta2 == 965.0 - 12.5
    assert det.delta3 == 990.0 - 12.5
    assert det.delta4 == -25.0  # biexciton offset counts the laser twice


def test_drive_through_filter_and_override():
    cfg = fast_config()
    dp = drive_params(cfg)
    assert dp.alpha is not None
    assert abs(dp.alpha) ** 2 == pytest.approx(46.6957, rel=1e-4)
    over = replace(cfg, drive=replace(cfg.drive, omega=0.0, eta1=50.0, eta2=60.0))
    dpo = drive_params(over)
    assert dpo.eta1 == 50.0 and dpo.eta2 == 60.0 and dpo.alpha is None


def test_drive_overdetermined_rejected():
    cfg = default_config()
    with pytest.raises(ConfigurationError, match="overdetermined"):
        replace(cfg, drive=replace(cfg.drive, omega=10.0, eta1=1.0, eta2=1.0))
    with pytest.raises(ConfigurationError):
        replace(cfg, drive=replace(cfg.drive, omega=0.0, eta1=1.0, eta2=None))


@pytest.mark.parametrize(
    "group, name",
    [("rates", name) for name in (
        "gamma_x_g", "gamma_y_g", "gamma_xx_x", "gamma_xx_y", "dephasing_x_g",
        "dephasing_y_g", "dephasing_xx_x", "dephasing_xx_y", "kappa_x", "kappa_y",
    )] + [("couplings", name) for name in ("g1x", "g2x", "g1y", "g2y")],
)
def test_negative_rate_or_coupling_is_named(group, name):
    cfg = default_config()
    kind = {"rates": "rate", "couplings": "coupling"}[group]
    with pytest.raises(ConfigurationError, match=f"^{kind} {name} must be nonnegative$"):
        replace(cfg, **{group: replace(getattr(cfg, group), **{name: -0.1})})


def test_validation_rejects_bad_values():
    cfg = default_config()
    with pytest.raises(ConfigurationError):
        replace(cfg, rates=replace(cfg.rates, gamma_x_g=-0.1))
    with pytest.raises(ConfigurationError):
        replace(cfg, rates=replace(cfg.rates, kappa_x=0.0))
    with pytest.raises(ConfigurationError):
        replace(cfg, source="z-dipole")
    with pytest.raises(ConfigurationError):
        replace(cfg, numerics=replace(cfg.numerics, n_max_y=0))  # y mode coupled
    ok = replace(cfg, couplings=replace(cfg.couplings, g1y=0.0, g2y=0.0))
    replace(ok, numerics=replace(ok.numerics, n_max_y=0))  # now allowed


def test_dephasing_solver_symmetric_case():
    rates = dephasing_projector_rates(default_config().rates)
    for level in ("G", "Y", "X", "XX"):
        assert rates[level] == pytest.approx(8.2, rel=1e-12)


def test_dephasing_solver_general_case():
    # consistent targets satisfy t_xg + t_xxy = t_yg + t_xxx
    r = Rates(dephasing_x_g=6.0, dephasing_y_g=7.0, dephasing_xx_x=9.0,
              dephasing_xx_y=10.0)
    rates = dephasing_projector_rates(r)
    assert 0.5 * (rates["X"] + rates["G"]) == pytest.approx(6.0, rel=1e-12)
    assert 0.5 * (rates["Y"] + rates["G"]) == pytest.approx(7.0, rel=1e-12)
    assert 0.5 * (rates["XX"] + rates["X"]) == pytest.approx(9.0, rel=1e-12)
    assert 0.5 * (rates["XX"] + rates["Y"]) == pytest.approx(10.0, rel=1e-12)


def test_dephasing_solver_rejects_unrealizable_targets():
    r = Rates(dephasing_x_g=0.0, dephasing_y_g=0.0, dephasing_xx_x=0.0,
              dephasing_xx_y=20.0)
    with pytest.raises(ConfigurationError, match="dephasing"):
        dephasing_projector_rates(r)


def test_dephasing_solver_rejects_inconsistent_targets():
    # four level rates fix the targets only if t_xg + t_xxy = t_yg + t_xxx
    r = Rates(dephasing_x_g=2.0, dephasing_y_g=8.2, dephasing_xx_x=8.2,
              dephasing_xx_y=8.2)
    with pytest.raises(ConfigurationError, match=r"dephasing.*10\.2.*16\.4"):
        dephasing_projector_rates(r)
    cfg = fast_config()
    with pytest.raises(ConfigurationError, match="dephasing"):
        compute_spectrum_y(replace(cfg, rates=replace(cfg.rates, dephasing_x_g=2.0)))


def test_dephasing_solver_clips_into_nonnegative_range():
    # the minimum-norm solution has G = -2; G = 0 realizes the targets exactly
    r = Rates(dephasing_x_g=2.0, dephasing_y_g=2.0, dephasing_xx_x=10.0,
              dephasing_xx_y=10.0)
    rates = dephasing_projector_rates(r)
    assert rates == {"G": 0.0, "Y": 4.0, "X": 4.0, "XX": 16.0}
    assert 0.5 * (rates["X"] + rates["G"]) == 2.0
    assert 0.5 * (rates["Y"] + rates["G"]) == 2.0
    assert 0.5 * (rates["XX"] + rates["X"]) == 10.0
    assert 0.5 * (rates["XX"] + rates["Y"]) == 10.0
    # equal sums, but no g keeps G >= 0 and XX = 2 t_xxx - 2 t_xg + g >= 0
    r = Rates(dephasing_x_g=0.0, dephasing_y_g=0.0, dephasing_xx_x=-1.0,
              dephasing_xx_y=-1.0)
    with pytest.raises(ConfigurationError, match="nonnegative projector rates"):
        dephasing_projector_rates(r)


def test_hamiltonian_is_hermitian_and_correctly_sized():
    cfg = fast_config()
    h = reduced_hamiltonian(cfg)
    assert h.shape == (12, 12)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_undriven_system_settles_in_ground_state():
    cfg = fast_config(drive=replace(fast_config().drive, omega=0.0))
    rho = steady_state(assemble_liouvillian(cfg))
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-9)
    res = compute_spectrum_y(replace(cfg, normalize=False))
    assert np.max(res.intensity) == 0.0


def test_spectrum_peaks_match_dressed_catalog():
    cfg = fast_config(numerics=replace(fast_config().numerics, n_omega=1601))
    res = compute_spectrum_y(cfg)
    from bixsim.sweeps import extract_peaks

    rep = extract_peaks(res)
    lines = transition_catalog(dressed_eigenvalues(detunings(cfg), drive_params(cfg)))
    step = res.omega_offsets[1] - res.omega_offsets[0]
    for ln in lines:
        if ln.weight < 0.02:
            continue
        # cavity coupling shifts lines slightly; two grid steps is plenty
        assert np.min(np.abs(rep.positions - ln.offset)) < 2.0 * step


def test_normalized_spectrum_invariant_under_filter_rescaling():
    # doubling the bare drive while halving the x couplings keeps eta fixed
    c1 = fast_config()
    c2 = replace(
        c1,
        drive=replace(c1.drive, omega=2.0 * c1.drive.omega),
        couplings=replace(
            c1.couplings, g1x=c1.couplings.g1x / 2.0, g2x=c1.couplings.g2x / 2.0
        ),
    )
    s1 = compute_spectrum_y(c1)
    s2 = compute_spectrum_y(c2)
    assert np.allclose(s1.intensity, s2.intensity, atol=1e-12)


def test_biexciton_detuning_suppresses_emission():
    on_res = fast_config(normalize=False)
    detuned = replace(
        on_res, energies=replace(on_res.energies, omega_xx=200.0)
    )
    i_on = compute_spectrum_y(on_res).intensity.sum()
    i_off = compute_spectrum_y(detuned).intensity.sum()
    assert i_off < 0.9 * i_on


def test_calibrate_drive_hits_target_splitting():
    cfg = fast_config()
    for target in (30.0, 80.0, 150.0):
        cal = calibrate_drive(cfg, target)
        sol = dressed_eigenvalues(detunings(cal), drive_params(cal))
        assert -sol.eigenvalues[3] == pytest.approx(target, rel=1e-10)


def test_config_roundtrip_and_hash(tmp_path):
    cfg = fast_config(laser_detuning=3.25)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    assert config_hash(loaded) == config_hash(cfg)
    # any field change moves the hash
    assert config_hash(replace(cfg, laser_detuning=3.26)) != config_hash(cfg)
    assert config_hash(
        replace(cfg, numerics=replace(cfg.numerics, n_max_y=3))
    ) != config_hash(cfg)


def test_config_rejects_unknown_keys():
    data = config_to_dict(default_config())
    data["typo_field"] = 1.0
    with pytest.raises(ConfigurationError, match="typo_field"):
        config_from_dict(data)
    data = config_to_dict(default_config())
    data["rates"]["gamma_zz"] = 1.0
    with pytest.raises(ConfigurationError, match="gamma_zz"):
        config_from_dict(data)
    with pytest.raises(ConfigurationError, match="rates must be an object"):
        config_from_dict({"rates": 5})


def test_config_parses_complex_amplitudes(tmp_path):
    data = config_to_dict(default_config())
    data["drive"] = {"omega": 0.0, "eta1": [30.0, 4.0], "eta2": [50.0, 0.0]}
    cfg = config_from_dict(data)
    assert drive_params(cfg).eta1 == 30.0 + 4.0j
    path = tmp_path / "c.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="JSON"):
        load_config(bad)


def test_packaged_baseline_loads():
    from importlib import resources

    text = resources.files("bixsim").joinpath("data/baseline.json").read_text("utf-8")
    cfg = config_from_dict(json.loads(text))
    assert cfg.rates.kappa_y == 132.0
    assert cfg.phonon.enable
    sol = dressed_eigenvalues(detunings(cfg), drive_params(cfg))
    assert -sol.eigenvalues[3] == pytest.approx(80.0, abs=1e-6)


DEFAULT_HASH = "b57c9a2995c86a7c5c14bce79c1afa83584d2fe1cb7dd01400a31efa7ebacf76"
BASELINE_HASH = "7b6487f3fd2ff564d3de06ac5c827e57055a608fe886dfb263678368ae065224"


def test_packaged_baseline_is_defaults_plus_calibrated_drive():
    from importlib import resources

    data = json.loads(
        resources.files("bixsim").joinpath("data/baseline.json").read_text("utf-8")
    )
    assert data == {"_notes": data["_notes"], "drive": {"omega": data["drive"]["omega"]}}
    cfg = config_from_dict(data)
    assert cfg == calibrate_drive(default_config(), 80.0)
    assert config_hash(cfg) == BASELINE_HASH
    assert config_hash(default_config()) == DEFAULT_HASH


def test_equal_configs_have_equal_hashes():
    cfg = default_config()
    pairs = [
        (replace(cfg, laser_detuning=0), cfg),
        (
            replace(cfg, drive=replace(cfg.drive, eta1=30.0, eta2=50)),
            replace(cfg, drive=replace(cfg.drive, eta1=30 + 0j, eta2=50 + 0j)),
        ),
    ]
    for a, b in pairs:
        assert a == b
        assert config_hash(a) == config_hash(b)
        assert config_to_dict(a) == config_to_dict(b)
    assert config_from_dict({"laser_detuning": 0}) == cfg
    assert config_hash(config_from_dict({"laser_detuning": 0})) == DEFAULT_HASH
    assert config_to_dict(pairs[1][0])["drive"]["eta1"] == [30.0, 0.0]


@pytest.mark.parametrize(
    "text, name",
    [
        ('{"rates": {"kappa_y": NaN}}', "kappa_y"),
        ('{"laser_detuning": Infinity}', "laser_detuning"),
        ('{"phonon": {"temperature": -Infinity}}', "temperature"),
        ('{"drive": {"eta1": [NaN, 0.0], "eta2": [1.0, 0.0]}}', "eta1"),
    ],
)
def test_non_finite_numbers_rejected_at_load(text, name):
    with pytest.raises(ConfigurationError, match=f"{name} must be .*finite"):
        config_from_dict(json.loads(text))


@pytest.mark.parametrize("enable", [True, False])
def test_phonon_parameters_checked_at_load(enable):
    data = {"phonon": {"enable": enable, "temperature": -3}}
    with pytest.raises(ConfigurationError, match="temperature"):
        config_from_dict(data)
    with pytest.raises(ConfigurationError, match="omega_b"):
        config_from_dict({"phonon": {"enable": enable, "omega_b": 0.0}})


@pytest.mark.parametrize("enable", [True, False])
@pytest.mark.parametrize(
    "name, value",
    [("phonon_n_t", 1602), ("phonon_n_t", 1), ("phonon_t_max", -1.0), ("phonon_t_max", 0.0)],
)
def test_phonon_grid_checked_at_load(enable, name, value):
    # checked with the rest of the config, whether or not phonons are on
    data = {"phonon": {"enable": enable}, "numerics": {name: value}}
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        config_from_dict(data)
    assert config_from_dict({"numerics": {"phonon_n_t": 3, "phonon_t_max": None}})


@pytest.mark.parametrize("name, value", [("n_omega", 2), ("omega_half_span", 0.0)])
def test_frequency_grid_checked_at_load(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be"):
        config_from_dict({"numerics": {name: value}})


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "section, name",
    [
        ("energies", "omega_xx"),
        ("couplings", "g1y"),
        ("rates", "kappa_y"),
        ("drive", "omega"),
        ("phonon", "alpha_p"),
        ("numerics", "phonon_t_max"),
        (None, "laser_detuning"),
    ],
)
def test_non_finite_values_rejected_through_replace(section, name, value):
    cfg = default_config()
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        if section is None:
            replace(cfg, **{name: value})
        else:
            replace(cfg, **{section: replace(getattr(cfg, section), **{name: value})})


@pytest.mark.parametrize("value", [2.0, 101.0, True], ids=["float", "whole-float", "bool"])
@pytest.mark.parametrize("name", ["n_max_y", "n_omega", "phonon_n_t"])
def test_integer_fields_reject_non_integers_through_replace(name, value):
    cfg = default_config()
    with pytest.raises(ConfigurationError, match=f"^numerics.{name} must be an integer"):
        replace(cfg.numerics, **{name: value})
    with pytest.raises(ConfigurationError, match="^n_max_y must be an integer"):
        HilbertSpec(value)
    # numpy integers are integers
    legal = {"n_max_y": 3, "n_omega": 101, "phonon_n_t": 201}[name]
    numerics = replace(cfg.numerics, **{name: np.int64(legal)})
    assert config_hash(replace(cfg, numerics=numerics)) == config_hash(
        replace(cfg, numerics=replace(cfg.numerics, **{name: legal})))
    assert HilbertSpec(np.int32(2)) == HilbertSpec(2)


def _leaves(cls, path=()):
    """(path, type, default) of every non-dataclass field below cls."""
    hints, default = typing.get_type_hints(cls), cls()
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _leaves(hints[f.name], path + (f.name,))
        else:
            yield path + (f.name,), hints[f.name], getattr(default, f.name)


def _leaf_cases():
    """(path, valid non-default JSON value, decoded value, wrong-typed value)."""
    for path, hint, default in _leaves(system.SystemConfig):
        tp = next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
        if tp is bool:
            case = (not default, not default, 1)
        elif tp is int:
            case = (default + 2, default + 2, 1.5)
        elif tp is float:
            value = 0.5 if default is None else default + 1.0
            case = (value, value, "abc")
        elif tp is complex:
            case = ([1.0, 2.0], 1.0 + 2.0j, [1.0, "2"])
        elif tp is str:
            case = ("both", "both", 1.0)
        else:
            raise AssertionError(f"no test value for {path} of type {hint}")
        yield pytest.param(path, *case, id=".".join(path))


def _leaf(cfg, path):
    for key in path:
        cfg = getattr(cfg, key)
    return cfg


def _replaced(obj, path, value):
    """obj with the leaf at path set to value through `dataclasses.replace`."""
    if len(path) > 1:
        return replace(obj, **{path[0]: _replaced(getattr(obj, path[0]), path[1:], value)})
    if path[0] in ("eta1", "eta2"):  # the overrides come as a pair
        return replace(obj, **{"eta1": [1.0, 0.0], "eta2": [1.0, 0.0], path[0]: value})
    return replace(obj, **{path[0]: value})


def _nested(path, value):
    data = node = {}
    for key in path[:-1]:
        node = node.setdefault(key, {})
    if path[-1] in ("eta1", "eta2"):
        node.update(eta1=[1.0, 0.0], eta2=[1.0, 0.0])  # the overrides come as a pair
    node[path[-1]] = value
    return data


@pytest.mark.parametrize("path, value, decoded, wrong", list(_leaf_cases()))
def test_every_leaf_field_loads_and_is_type_checked(path, value, decoded, wrong):
    cfg = config_from_dict(_nested(path, value))
    got = _leaf(cfg, path)
    assert got == decoded and type(got) is type(decoded)
    assert cfg != default_config()
    assert config_from_dict(config_to_dict(cfg)) == cfg
    with pytest.raises(ConfigurationError, match=path[-1]):
        config_from_dict(_nested(path, wrong))
    # `replace` takes the same values, stores them as the same type, and
    # rejects the same wrong one
    via_replace = _replaced(default_config(), path, value)
    got = _leaf(via_replace, path)
    assert got == decoded and type(got) is type(decoded)
    assert via_replace == cfg and config_hash(via_replace) == config_hash(cfg)
    with pytest.raises(ConfigurationError, match=path[-1]):
        _replaced(default_config(), path, wrong)


@pytest.mark.parametrize(
    "path, value",
    [
        (("phonon", "enable"), "off"),
        (("normalize",), "no"),
        (("drive", "omega"), None),
        (("drive", "eta1"), [1.0, "2"]),
        (("laser_detuning",), 10**400),  # beyond the float range
        (("rates",), {"kappa_y": 1.0}),  # a section must be its dataclass
    ],
    ids=["phonon.enable", "normalize", "drive.omega", "drive.eta1", "laser_detuning",
         "rates"],
)
def test_replace_rejects_wrong_typed_values(path, value):
    with pytest.raises(ConfigurationError, match=rf"^{'.'.join(path)} must be"):
        _replaced(default_config(), path, value)


def test_values_are_stored_as_their_field_type():
    cfg = default_config()
    zero = replace(cfg, laser_detuning=0)
    assert type(zero.laser_detuning) is float and zero.laser_detuning == 0.0
    assert config_hash(zero) == config_hash(cfg)
    numerics = replace(cfg.numerics, n_max_y=np.int64(3))
    assert type(numerics.n_max_y) is int and numerics.n_max_y == 3
    assert config_hash(replace(cfg, numerics=numerics)) == config_hash(
        replace(cfg, numerics=replace(cfg.numerics, n_max_y=3)))
    drive = replace(cfg, drive=replace(cfg.drive, eta1=np.float32(2.0), eta2=[3, 4])).drive
    assert (drive.eta1, drive.eta2) == (2.0, 3 + 4j) and type(drive.eta1) is complex


def test_both_sources_match_per_frequency_direct_solve():
    # oracle: rho_ss from the bordered system [[L, t+], [t, 0]] and one
    # solve of (i w - L) per grid point, summed over both sources
    base = default_config()
    cfg = replace(
        base,
        drive=replace(base.drive, omega=252.83669951857598),
        numerics=replace(base.numerics, n_max_y=2, n_omega=201),
        source="both",
        normalize=False,
    )
    assert cfg.phonon.enable
    res = compute_spectrum_y(cfg)

    liouv = assemble_liouvillian(cfg)
    d2 = liouv.shape[0]
    trace = vec(np.eye(HilbertSpec(2).dim))
    bordered = np.zeros((d2 + 1, d2 + 1), dtype=complex)
    bordered[:d2, :d2] = liouv
    bordered[:d2, d2] = trace.conj()
    bordered[d2, :d2] = trace
    rhs = np.zeros(d2 + 1, dtype=complex)
    rhs[d2] = 1.0
    rho = unvec(np.linalg.solve(bordered, rhs)[:d2])

    checked = np.abs(res.omega_offsets) > 1e-9  # L is singular at w = 0
    oracle = np.zeros(int(checked.sum()))
    for which in ("y-dipole", "y-cavity"):
        s = source_operator(cfg, which)
        s_rho = s @ rho
        start = vec(s_rho) - np.trace(s_rho) * vec(rho)
        for k, w in enumerate(res.omega_offsets[checked]):
            x = unvec(np.linalg.solve(1j * w * np.eye(d2) - liouv, start))
            oracle[k] += np.trace(s.conj().T @ x).real
    oracle = np.clip(oracle, 0.0, None)
    err = np.max(np.abs(res.intensity[checked] - oracle)) / np.max(oracle)
    assert err < 1e-10


def test_source_operator_takes_one_channel():
    # a `source` setting names channels; the operator is asked for one by
    # name, never read from cfg.source, so "both" is no channel
    cfg = fast_config(source="both")
    with pytest.raises(TypeError):
        source_operator(cfg)
    with pytest.raises(ConfigurationError, match="unknown source 'both'"):
        source_operator(cfg, "both")
    spec = HilbertSpec(cfg.numerics.n_max_y)
    assert np.array_equal(source_operator(cfg, "y-cavity"),
                          embed_photon_annihilator(spec))


@pytest.mark.parametrize("source", ["y-dipole", "y-cavity", "both"])
def test_one_eigendecomposition_per_spectrum(monkeypatch, source):
    calls = []
    eig = np.linalg.eig

    def counting_eig(a):
        calls.append((np.shape(a), np.asarray(a).dtype))
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    cfg = fast_config(source=source)
    compute_spectrum_y(cfg)
    _, odd = HilbertSpec(cfg.numerics.n_max_y).parity_blocks()
    # the odd block, not (d^2, d^2), and real: L in the Hermitian basis
    assert calls == [((odd.size, odd.size), np.float64)]


def test_spectrum_takes_no_svd(monkeypatch):
    # the steady state is one real LU solve of the even block in the Hermitian
    # basis, with a probe column, and one solve of its transpose for the
    # uniqueness certificate; the odd block takes the same two solves for its
    # kernel certificate, then one complex solve for the eigenbasis
    calls = {"svd": 0, "solve": []}
    svd, solve = np.linalg.svd, np.linalg.solve

    def counting_svd(*args, **kwargs):
        calls["svd"] += 1
        return svd(*args, **kwargs)

    def recording_solve(a, b):
        calls["solve"].append((np.shape(a), np.shape(b), np.asarray(a).dtype))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    cfg = fast_config(source="both")
    compute_spectrum_y(cfg)
    even, odd = HilbertSpec(cfg.numerics.n_max_y).parity_blocks()
    n, m = even.size, odd.size
    assert calls["svd"] == 0
    assert calls["solve"] == [
        ((n, n), (n, 2), np.float64),  # trace-row system and probe column
        ((n, n), (n,), np.float64),  # its transpose, for the certificate
        ((m, m), (m, 1), np.float64),  # the odd block and the probe column
        ((m, m), (m,), np.float64),  # its transpose, for the certificate
        ((m, m), (m, 2), np.complex128),  # eigenbasis amplitudes of 2 sources
    ]


def full_space_oracle(cfg):
    """rho_ss from one SVD and per-source spectra from one eig of the full L.

    Emission spectrum of source s: Re Sum_n w_n / (i w - lambda_n) with
    w_n = Tr[s+ R_n] (R^-1 vec(s rho - Tr(s rho) rho))_n over the right
    eigenvectors R of L; the kernel mode, which the start vector has no
    weight on, is dropped.
    """
    liouv = assemble_liouvillian(cfg)
    _, sv, vh = np.linalg.svd(liouv)
    assert sv[-2] > cfg.numerics.steady_rtol * sv[0] >= sv[-1]  # unique kernel
    rho = unvec(vh[-1].conj())
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / np.trace(rho).real

    evals, right = np.linalg.eig(liouv)
    keep = np.arange(evals.size) != np.argmin(np.abs(evals))
    n = cfg.numerics
    grid = np.linspace(-n.omega_half_span, n.omega_half_span, n.n_omega)
    spectra = {}
    for which in ("y-dipole", "y-cavity"):
        s = source_operator(cfg, which)
        s_rho = s @ rho
        start = vec(s_rho) - np.trace(s_rho) * vec(rho)
        trace_row = vec(s.conj())  # Tr(s+ X) = vec((s+)^T) . vec(X)
        w = ((trace_row @ right) * np.linalg.solve(right, start))[keep]
        spectra[which] = (w / (1j * grid[:, None] - evals[keep])).sum(axis=1).real
    return liouv, rho, spectra


@pytest.mark.parametrize("phonons", [True, False], ids=["phonons", "no-phonons"])
@pytest.mark.parametrize("n_max_y", [0, 1, 2, 4, 6])
def test_parity_blocks_match_full_space_oracle(n_max_y, phonons):
    base = default_config()
    couplings = base.couplings
    if n_max_y == 0:  # without a photon rung the y mode must be uncoupled
        couplings = replace(couplings, g1y=0.0, g2y=0.0)
    cfg = replace(
        base,
        couplings=couplings,
        drive=replace(base.drive, omega=252.83669951857598),
        phonon=replace(base.phonon, enable=phonons),
        numerics=replace(base.numerics, n_max_y=n_max_y, n_omega=401),
        laser_detuning=12.0,
    )
    liouv, rho_oracle, oracle = full_space_oracle(cfg)
    oracle["both"] = oracle["y-dipole"] + oracle["y-cavity"]

    even, _ = HilbertSpec(n_max_y).parity_blocks()
    rho = steady_state(
        liouville.liouvillian(*system._generator(cfg), even),
        kernel_rtol=cfg.numerics.steady_rtol, block=even,
    )
    assert np.max(np.abs(rho - rho_oracle)) <= 1e-12

    for source in ("y-dipole", "y-cavity", "both"):
        got = compute_spectrum_y(replace(cfg, source=source)).intensity
        want = np.clip(oracle[source], 0.0, None)
        if want.max() > 0.0:
            want = want / want.max()
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(want), source


@pytest.mark.parametrize("phonons", [True, False], ids=["phonons", "no-phonons"])
@pytest.mark.parametrize("n_max_y", [0, 1, 2, 4, 6])
def test_hermitian_basis_matches_complex_decompositions(n_max_y, phonons):
    # the LU solve and the real eig in the Hermitian basis against a complex
    # SVD and a complex eig of the same matrix: rho_ss on the whole L and the
    # even block, the three sources' spectra on the whole L and the odd block.
    # Then the trace-row LU against a real SVD of L_h, and the spectra against
    # those of the SVD rho_ss on gathered blocks changed by an explicit T
    base = default_config()
    couplings = base.couplings
    if n_max_y == 0:  # without a photon rung the y mode must be uncoupled
        couplings = replace(couplings, g1y=0.0, g2y=0.0)
    cfg = replace(
        base,
        couplings=couplings,
        drive=replace(base.drive, omega=252.83669951857598),
        phonon=replace(base.phonon, enable=phonons),
        numerics=replace(base.numerics, n_max_y=n_max_y, n_omega=401),
        laser_detuning=12.0,
    )
    spec = HilbertSpec(n_max_y)
    d = spec.dim
    k, pairs = system._generator(cfg)
    even, odd = spec.parity_blocks()
    whole = liouville.liouvillian(k, pairs)
    l_even, l_odd = (liouville.liouvillian(k, pairs, b) for b in (even, odd))
    v_even, v_odd = (gather_liouvillian(k, pairs, b) for b in (even, odd))
    norm = np.linalg.norm(whole)
    rtol = cfg.numerics.steady_rtol
    rho = steady_state(l_even, kernel_rtol=rtol, block=even)
    for got, want in [
        (steady_state(whole, kernel_rtol=rtol),
         complex_steady_state(whole, np.arange(d * d), d)),
        (rho, complex_steady_state(v_even, even, d)),
    ]:
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    n = cfg.numerics
    grid = np.linspace(-n.omega_half_span, n.omega_half_span, n.n_omega)
    ops = [source_operator(cfg, w) for w in ("y-dipole", "y-cavity")]
    ab = [(s.conj().T, s) for s in ops]
    everything = np.arange(d * d)
    for l_h, vec_l, idx in [
        (liouville.liouvillian(k, pairs, everything), whole, everything),
        (l_odd, v_odd, odd),
    ]:
        oracle = complex_regression_spectra(vec_l, ab, rho, -grid, idx, 1e-10 * norm)
        for rows in ([0], [1], [0, 1]):  # y-dipole, y-cavity, both
            got = liouville.emission_spectrum(l_h, [ops[r] for r in rows], rho, grid, idx)
            want = oracle[rows].sum(axis=0)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), rows

    t_even, t_odd = (hermitian_basis_matrix(b, d) for b in (even, odd))
    rho_svd, sv = svd_steady_state((t_even @ v_even @ t_even.conj().T).real, even, d)
    assert sv[-2] > rtol * sv[0] >= sv[-1]  # the SVD sees a unique kernel too
    assert np.max(np.abs(rho - rho_svd)) <= 1e-12
    svd_l_odd = (t_odd @ v_odd @ t_odd.conj().T).real
    for rows in ([0], [1], [0, 1]):
        srcs = [ops[r] for r in rows]
        got = liouville.emission_spectrum(l_odd, srcs, rho, grid, odd)
        want = liouville.emission_spectrum(svd_l_odd, srcs, rho_svd, grid, odd)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), rows


@pytest.mark.parametrize("whole", [True, False], ids=["whole-L", "even-block"])
@pytest.mark.parametrize("n_max_y", [2, 4])
def test_even_pair_on_the_block_of_rho_ss_is_finite_at_omega_zero(n_max_y, whole):
    # a P-even pair (s+ s, s+ s) on a block that holds rho_ss: the kernel mode's
    # rounding weight met its ~1e-15 eigenvalue at the grid point omega = 0
    base = default_config()
    cfg = replace(
        base,
        drive=replace(base.drive, omega=252.84),
        phonon=replace(base.phonon, enable=False),
        numerics=replace(base.numerics, n_max_y=n_max_y),
        laser_detuning=12.0,
    )
    spec = HilbertSpec(n_max_y)
    k, pairs = system._generator(cfg)
    even, _ = spec.parity_blocks()
    idx = np.arange(spec.dim**2) if whole else even
    l_h = liouville.liouvillian(k, pairs, idx)
    vec_l = gather_liouvillian(k, pairs, idx)  # vec entries, for the direct solve
    rho = steady_state(
        liouville.liouvillian(k, pairs, even), kernel_rtol=cfg.numerics.steady_rtol,
        block=even,
    )
    s = source_operator(cfg, "y-dipole")
    n_op = s.conj().T @ s
    n = cfg.numerics
    grid = np.linspace(-n.omega_half_span, n.omega_half_span, n.n_omega)
    got = liouville.regression_spectrum(l_h, [(n_op, n_op)], rho, grid, idx)
    assert np.isfinite(got[grid == 0.0]).all() and np.count_nonzero(grid == 0.0) == 1

    # a direct solve per frequency away from 0
    b_rho = n_op @ rho
    start = (vec(b_rho) - np.trace(b_rho) * vec(rho))[idx]
    row = vec(n_op.T)[idx]
    at = [i for i in range(0, grid.size, 80) if grid[i] != 0.0]
    want = np.array([
        (row @ np.linalg.solve(-1j * grid[i] * np.eye(idx.size) - vec_l, start)).real
        for i in at
    ])
    assert np.max(np.abs(got[at] - want)) <= 1e-10 * np.max(np.abs(want))


def test_parity_breaking_term_fails_loudly(monkeypatch):
    # a coherent y-mode drive eps (a + a+) flips P, so K no longer keeps it
    cfg = fast_config()
    spec = HilbertSpec(cfg.numerics.n_max_y)
    a = embed_photon_annihilator(spec)
    clean = system._assemble_hamiltonian

    def driven(*args):
        return clean(*args) + 0.5 * (a + a.conj().T)

    monkeypatch.setattr(system, "_assemble_hamiltonian", driven)
    k, _ = system._generator(cfg)
    p = spec.parity()
    cross = np.where(p[:, None] != p[None, :], np.abs(k), 0.0)
    i, j = np.unravel_index(np.argmax(cross), cross.shape)
    assert cross[i, j] > 0.1
    with pytest.raises(SolverError, match=rf"K breaks the parity .* \|K\[{i}, {j}\]\|"):
        compute_spectrum_y(cfg)


def kron_oracle_liouvillian(cfg):
    """L as a sum of one Kronecker-product superoperator per term."""
    spec = HilbertSpec(cfg.numerics.n_max_y)
    kernels = system._kernels_for(cfg)
    h = reduced_hamiltonian(cfg)
    r = cfg.rates
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
    liouv = hamiltonian_superop(h)
    for op, rate in channels:
        liouv = liouv + lindblad_dissipator(op, rate)
    if kernels is not None:
        terms = system._coupling_terms(cfg, spec, kernels)
        liouv = liouv + generator_superop(*polaron_dissipator(h, terms, kernels))
    return liouv


@pytest.mark.parametrize("xx_scaling", [2.0, 2.5])
@pytest.mark.parametrize("phonons", [True, False], ids=["phonons", "no-phonons"])
@pytest.mark.parametrize("n_max_y", [0, 1, 2, 6])
def test_liouvillian_and_parity_blocks_match_kron_oracle(n_max_y, phonons, xx_scaling):
    base = default_config()
    couplings = base.couplings
    if n_max_y == 0:  # without a photon rung the y mode must be uncoupled
        couplings = replace(couplings, g1y=0.0, g2y=0.0)
    cfg = replace(
        base,
        couplings=couplings,
        drive=replace(base.drive, omega=252.83669951857598),
        phonon=replace(base.phonon, enable=phonons, xx_scaling=xx_scaling),
        numerics=replace(base.numerics, n_max_y=n_max_y),
        laser_detuning=12.0,
    )
    # the whole L in vec entries, and each block as L_h = T L T+ with T an
    # explicit matrix, against the kron path and the dense gather
    oracle = kron_oracle_liouvillian(cfg)
    tol = 1e-14 * np.abs(oracle).max()
    spec = HilbertSpec(n_max_y)
    k, pairs = system._generator(cfg)
    whole = assemble_liouvillian(cfg)
    assert np.max(np.abs(whole - oracle)) <= tol
    assert np.max(np.abs(whole - gather_liouvillian(k, pairs))) <= tol
    for block in spec.parity_blocks():
        got = liouville.liouvillian(k, pairs, block)
        t = hermitian_basis_matrix(block, spec.dim)
        for want in (oracle[np.ix_(block, block)], gather_liouvillian(k, pairs, block)):
            assert np.max(np.abs(got - t @ want @ t.conj().T)) <= tol


def test_spectrum_assembly_peak_memory(monkeypatch):
    # the tracemalloc peak of what compute_spectrum_y allocates before its
    # steady-state solve and between that solve and the spectrum, i.e. the
    # assembly of the matrices it solves; the whole 784 x 784 L takes 9.8 MB
    class Assembled(Exception):
        pass

    peaks = []
    solve = system.steady_state

    def steady_state_after_peak(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        rho = solve(*args, **kwargs)
        tracemalloc.reset_peak()
        return rho

    def stop_before_spectrum(*args, **kwargs):
        peaks.append(tracemalloc.get_traced_memory()[1])
        raise Assembled

    monkeypatch.setattr(system, "steady_state", steady_state_after_peak)
    monkeypatch.setattr(system, "emission_spectrum", stop_before_spectrum)
    cfg = fast_config(numerics=replace(default_config().numerics, n_max_y=6))
    tracemalloc.start()
    try:
        with pytest.raises(Assembled):
            compute_spectrum_y(cfg)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    assert max(peaks) <= 20e6


@pytest.mark.parametrize("source", ["y-dipole", "both"])
@pytest.mark.parametrize("phonons", [True, False], ids=["phonons", "no-phonons"])
@pytest.mark.parametrize("n_max_y", [2, 6])
def test_resolvent_sum_matches_broadcast_oracle(monkeypatch, n_max_y, phonons, source):
    # the reciprocal and matrix-vector sum against the broadcast divide over
    # the whole resolvent, on the weights and eigenvalues of a real spectrum;
    # at n_max_y=6 the reduced model of the odd block calls it once per
    # order it tries, and every call is checked
    seen = []
    resolvent_sum = liouville._resolvent_sum

    def recorded(weights, evals, grid, scale):
        want = broadcast_resolvent_sum(weights, evals, grid, scale)
        seen.append((resolvent_sum(weights, evals, grid, scale), want))
        return seen[-1][0]

    monkeypatch.setattr(liouville, "_resolvent_sum", recorded)
    base = default_config()
    cfg = fast_config(
        phonon=replace(base.phonon, enable=phonons),
        numerics=replace(base.numerics, n_max_y=n_max_y),
        source=source,
    )
    compute_spectrum_y(cfg)
    assert len(seen) == 1 if n_max_y == 2 else len(seen) >= 2  # one per order
    for got, want in seen:
        assert got.shape == want.shape == (cfg.numerics.n_omega,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_emission_spectrum_peak_memory(monkeypatch):
    # the tracemalloc peak of the spectrum at n_max_y=6 over 1601 points: the
    # 390-row odd block takes the reduced model, whose largest arrays are the
    # (390, 390) shifted inverse (1.2 MB) and the complex (1601, 80)
    # resolvent of its last order (2.0 MB); the dense eig path, with its
    # (1601, 390) resolvent, peaked at 12.8 MB
    peaks = []
    spectrum = system.emission_spectrum

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            out = spectrum(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return out

    monkeypatch.setattr(system, "emission_spectrum", traced)
    cfg = fast_config(numerics=replace(default_config().numerics, n_max_y=6))
    assert not cfg.phonon.enable and cfg.numerics.n_omega == 1601
    compute_spectrum_y(cfg)
    assert len(peaks) == 1
    assert peaks[0] <= 8e6  # 5.3 MB measured


def test_traced_kernel_builder_is_the_cached_one():
    # the benchmark's tracer wraps bixsim.system.build_kernels and reads the
    # miss ratio from cache_info(); a copy or a wrapper would make both read 0
    from bixsim import phonons

    assert system.build_kernels is phonons.build_kernels
    assert callable(system.build_kernels.cache_info)
    assert system.polaron_dissipator is phonons.polaron_dissipator


def test_spectrum_reaches_the_traced_layers(monkeypatch):
    # the benchmark's tracer wraps these module attributes; a phonon-on
    # spectrum must still call each of them
    calls = {}

    def count(module, name):
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in ("build_kernels", "liouvillian", "polaron_dissipator", "steady_state"):
        count(system, name)
    count(liouville, "regression_spectrum")
    cfg = fast_config(phonon=default_config().phonon)
    assert cfg.phonon.enable
    compute_spectrum_y(cfg)
    assert calls == {
        "build_kernels": 1,
        "liouvillian": 2,  # the even and the odd parity block
        "polaron_dissipator": 1,
        "steady_state": 1,
        "regression_spectrum": 1,
    }
