"""End-to-end checks of the command line interface (in-process)."""

import json

import numpy as np
import pytest

from bixsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from bixsim.system import (
    config_to_dict,
    default_config,
    save_config,
)


@pytest.fixture
def fast_config_path(tmp_path):
    d = config_to_dict(default_config())
    d["phonon"]["enable"] = False
    d["numerics"]["n_max_y"] = 1
    d["numerics"]["n_omega"] = 201
    d["drive"]["omega"] = 252.83669951857598
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "bixsim" in capsys.readouterr().out


def test_dressed_reports_eigenvalues(fast_config_path, tmp_path, capsys):
    rc = main(["dressed", "--config", fast_config_path])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda_1" in out and "lambda_4" in out
    assert "R1" in out and "L3" in out
    # eta overrides in place of a drive amplitude are reported as given
    d = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    d["drive"].update(omega=0.0, eta1=150.0, eta2=180.0)
    (tmp_path / "eta.json").write_text(json.dumps(d), encoding="utf-8")
    assert main(["dressed", "--config", str(tmp_path / "eta.json")]) == EXIT_OK
    assert "drive: eta1=150 eta2=180 ueV (direct)" in capsys.readouterr().out


def test_dressed_uses_packaged_baseline(capsys):
    rc = main(["dressed"])
    assert rc == EXIT_OK
    assert "closed-form" in capsys.readouterr().out


def test_spectrum_writes_files(fast_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "spectrum", "--config", fast_config_path, "--grid", "201",
        "--phonons", "off", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert (out / "spectrum.csv").exists()
    assert (out / "spectrum.meta.json").exists()
    assert "peaks" in capsys.readouterr().out


def test_spectrum_json_format(fast_config_path, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "spectrum", "--config", fast_config_path, "--format", "json",
        "--out", str(out),
    ])
    assert rc == EXIT_OK
    payload = json.loads((out / "spectrum.json").read_text())
    assert len(payload["omega_offsets"]) == 201
    assert payload["metadata"]["normalized"] is True


def test_power_sweep_command(fast_config_path, tmp_path):
    out = tmp_path / "out"
    rc = main([
        "power-sweep", "--config", fast_config_path, "--rows", "3",
        "--out", str(out),
    ])
    assert rc == EXIT_OK
    for name in ("power_axis1.csv", "power_axis2.csv", "power_values.csv"):
        assert (out / name).exists()


def test_detuning_sweep_with_recalibration(fast_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "detuning-sweep", "--config", fast_config_path, "--rows", "3",
        "--span", "40", "--zero-splitting", "60", "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert (out / "detuning_values.csv").exists()
    assert "detuning in [-40, 40]" in capsys.readouterr().out


def test_phonon_compare_command(fast_config_path, tmp_path, capsys):
    out = tmp_path / "out"
    rc = main([
        "phonon-compare", "--config", fast_config_path, "--grid", "161",
        "--out", str(out),
    ])
    assert rc == EXIT_OK
    assert (out / "phonons_on.csv").exists()
    assert (out / "phonons_off.csv").exists()
    assert "ratio" in capsys.readouterr().out


def test_check_passes_on_baseline(capsys):
    rc = main(["check", "--grid", "201", "--phonons", "off"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "3/3 checks passed" in out
    assert "FAIL" not in out


def test_check_passes_at_a_large_truncation(monkeypatch, tmp_path, capsys):
    # at n_max_y=6 the 390-row odd block takes the reduced model; the check's
    # direct solves on the whole L do not use it
    from bixsim import liouville

    served = []
    reduced = liouville._reduced_spectrum
    monkeypatch.setattr(liouville, "_reduced_spectrum",
                        lambda *args: served.append(reduced(*args)) or served[-1])
    d = config_to_dict(default_config())
    d["phonon"]["enable"] = False
    d["numerics"]["n_max_y"] = 6
    d["drive"]["omega"] = 252.83669951857598
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    rc = main(["check", "--config", str(path), "--grid", "201"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "PASS  spectrum-path" in out
    assert "3/3 checks passed" in out
    assert len(served) == 1 and served[0] is not None


def test_check_fails_on_a_broken_spectrum_path(monkeypatch, capsys):
    # extra damping in the odd parity block only: the whole-L checks still
    # pass, the spectrum every command computes does not
    from bixsim import system

    build = system.liouvillian

    def damped_odd_block(k, pairs, block=None):
        l = build(k, pairs, block)
        if block is not None and block[0] != 0:  # the odd block lacks rho_00
            l = l - 0.5 * np.eye(l.shape[0])
        return l

    monkeypatch.setattr(system, "liouvillian", damped_odd_block)
    rc = main(["check", "--grid", "201", "--phonons", "off"])
    assert rc == EXIT_SOLVER
    out = capsys.readouterr().out
    assert "FAIL  spectrum-path" in out
    assert "2/3 checks passed" in out


def test_missing_config_file_is_config_error(capsys):
    rc = main(["dressed", "--config", "/nonexistent/cfg.json"])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_invalid_config_value_is_config_error(tmp_path, capsys):
    d = config_to_dict(default_config())
    d["rates"]["kappa_x"] = -5.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    rc = main(["dressed", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    d = config_to_dict(default_config())
    d["rates"]["gamma_zz"] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert "gamma_zz" in capsys.readouterr().err


def test_undamped_model_is_solver_error(tmp_path, capsys):
    from dataclasses import replace

    cfg = default_config()
    cfg = replace(
        cfg,
        rates=replace(
            cfg.rates,
            gamma_x_g=0.0, gamma_y_g=0.0, gamma_xx_x=0.0, gamma_xx_y=0.0,
            dephasing_x_g=0.0, dephasing_y_g=0.0,
            dephasing_xx_x=0.0, dephasing_xx_y=0.0,
            kappa_y=0.0,
        ),
        couplings=replace(cfg.couplings, g1y=0.0, g2y=0.0),
        phonon=replace(cfg.phonon, enable=False),
        drive=replace(cfg.drive, omega=100.0),
        numerics=replace(cfg.numerics, n_max_y=1, n_omega=101),
    )
    path = tmp_path / "undamped.json"
    save_config(cfg, str(path))
    rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_SOLVER
    assert "solver error" in capsys.readouterr().err


def test_render_without_matplotlib_is_config_error(tmp_path, capsys, monkeypatch):
    # the check comes first: no spectrum is computed and no file is written
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        pass
    else:
        pytest.skip("matplotlib is installed")
    import bixsim.cli
    import bixsim.sweeps

    def never(cfg):
        raise AssertionError("compute_spectrum_y was called")

    for module in (bixsim.cli, bixsim.sweeps):
        monkeypatch.setattr(module, "compute_spectrum_y", never)
    for command in ("spectrum", "power-sweep", "detuning-sweep", "phonon-compare"):
        out = tmp_path / command
        rc = main([command, "--render", "--grid", "41", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "needs matplotlib" in capsys.readouterr().err
        assert not out.exists()


def test_bad_grid_value(fast_config_path, capsys):
    for grid in ("2", "0", "-1"):  # a zero override is checked, not dropped
        rc = main(["dressed", "--config", fast_config_path, "--grid", grid])
        assert rc == EXIT_CONFIG
        assert "--grid must be at least 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        (None, "laser_detuning", "abc"),
        ("energies", "omega_x", "990"),
        ("numerics", "n_max_y", 1.5),
        ("drive", "eta1", [30.0, "4"]),
    ],
)
def test_malformed_config_value_is_config_error(tmp_path, capsys, section, key, value):
    d = config_to_dict(default_config())
    (d[section] if section else d)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"rates": {"kappa_y": NaN}}', "kappa_y"),
        ('{"laser_detuning": Infinity}', "laser_detuning"),
    ],
)
def test_non_finite_config_value_is_config_error(tmp_path, capsys, text, key):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err and "finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name, value", [("phonon_n_t", 1602), ("phonon_t_max", -1.0)])
def test_bad_phonon_grid_is_config_error(tmp_path, capsys, name, value):
    # phonons on: a negative t_max used to reach the solver and exit 3
    d = config_to_dict(default_config())
    d["numerics"][name] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    rc = main(["spectrum", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    assert name in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv, named, writes_nothing",
    [
        pytest.param(["power-sweep", "--config", "{cfg}", "--rows", "-1"], "rows", True,
                     id="rows-negative"),
        pytest.param(["detuning-sweep", "--config", "{cfg}", "--rows", "3", "--span", "0"],
                     "laser_detuning", True, id="span-zero"),
        pytest.param(["detuning-sweep", "--config", "{cfg}", "--rows", "2", "--grid", "3",
                      "--zero-splitting", "-1500"], "splitting -1500", True,
                     id="zero-splitting-negative"),
        pytest.param(["power-sweep", "--config", "{cfg}", "--rows", "2", "--grid", "3",
                      "--max-splitting", "-1500"], "splitting -1500", True,
                     id="max-splitting-negative"),
        pytest.param(["power-sweep", "--config", "{cfg}", "--rows", "2", "--grid", "3",
                      "--max-splitting", "nan"], "splitting nan", True,
                     id="max-splitting-nan"),
        pytest.param(["spectrum", "--config", "{dir}"], "{dir}", True, id="config-directory"),
        pytest.param(["spectrum", "--config", "{latin1}"], "{latin1}", True,
                     id="config-not-utf8"),
        pytest.param(["spectrum", "--config", "{cfg}", "--out", "{file}"], "{file}", False,
                     id="out-is-a-file"),
        pytest.param(["spectrum", "--config", "{rtol}"], "steady_rtol", True,
                     id="steady-rtol-one"),
    ],
)
def test_bad_input_is_config_error(fast_config_path, tmp_path, capsys, argv, named,
                                   writes_nothing):
    # each of these ended in a traceback (exit 1) before
    (tmp_path / "a_dir").mkdir()
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"_notes": "Stra\xdfe"}'.encode("latin-1"))
    (tmp_path / "a_file").write_text("kept\n")
    rtol = json.loads((tmp_path / "cfg.json").read_text(encoding="utf-8"))
    rtol["numerics"]["steady_rtol"] = 1.0  # every spectrum would fail as not unique
    (tmp_path / "rtol.json").write_text(json.dumps(rtol), encoding="utf-8")
    paths = {"cfg": fast_config_path, "dir": str(tmp_path / "a_dir"),
             "latin1": str(latin1), "file": str(tmp_path / "a_file"),
             "rtol": str(tmp_path / "rtol.json")}
    argv = [a.format(**paths) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    before = sorted(tmp_path.rglob("*"))
    rc = main(argv)
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and named.format(**paths) in err
    assert (tmp_path / "a_file").read_text() == "kept\n"
    if writes_nothing:
        assert sorted(tmp_path.rglob("*")) == before
