"""Command line front end.

Subcommands: dressed (eigenvalue/transition report), spectrum, power-sweep,
detuning-sweep, phonon-compare (exports), check (quick self-test).  Exit
codes: 0 success, 2 configuration problem, 3 solver failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__
from .dressed import dressed_eigenvalues, transition_catalog
from .errors import ConfigurationError, SolverError
from .export import _pyplot, export_map, export_spectrum
from .hilbert import HilbertSpec
from .liouville import solver_hygiene, steady_state, vec
from .sweeps import detuning_sweep, extract_peaks, phonon_comparison, power_sweep
from .system import (
    _SOURCES,
    assemble_liouvillian,
    calibrate_drive,
    compute_spectrum_y,
    config_from_dict,
    detunings,
    drive_params,
    load_config,
    source_operator,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
_SPECTRUM_TOL = 1e-8  # spectrum-path check, on the unit-maximum scale


def _baseline_config():
    import json

    text = resources.files("bixsim").joinpath("data/baseline.json").read_text("utf-8")
    return config_from_dict(json.loads(text))


def _load(args):
    cfg = load_config(args.config) if args.config else _baseline_config()
    if getattr(args, "phonons", None):
        cfg = replace(cfg, phonon=replace(cfg.phonon, enable=args.phonons == "on"))
    if getattr(args, "grid", None) is not None:
        if args.grid < 3:
            raise ConfigurationError("--grid must be at least 3")
        cfg = replace(cfg, numerics=replace(cfg.numerics, n_omega=args.grid))
    return cfg


def _add_common(p, output=True):
    p.add_argument("--config", help="JSON config file (default: packaged baseline)")
    p.add_argument(
        "--phonons", choices=("on", "off"), help="override the phonon switch"
    )
    p.add_argument("--grid", type=int, help="number of spectral grid points")
    if output:
        p.add_argument("--out", default="bixsim_out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument(
            "--render", action="store_true", help="also write a PNG (needs matplotlib)"
        )


def _cmd_dressed(args):
    cfg = _load(args)
    det = detunings(cfg)
    dp = drive_params(cfg)
    sol = dressed_eigenvalues(det, dp)
    mode = "numerical" if sol.numerical else "closed-form"
    print(f"detunings: delta2={det.delta2:g} delta3={det.delta3:g} "
          f"delta4={det.delta4:g} ueV ({mode})")
    if dp.alpha is not None:
        print(f"drive: Omega={dp.omega:g} -> |alpha|^2={abs(dp.alpha) ** 2:.4g}, "
              f"eta1={abs(dp.eta1):.4g} eta2={abs(dp.eta2):.4g} ueV")
    else:
        print(f"drive: eta1={abs(dp.eta1):.4g} eta2={abs(dp.eta2):.4g} ueV (direct)")
    for i, lam in enumerate(sol.eigenvalues, start=1):
        print(f"  lambda_{i} = {lam:+.6g} ueV")
    print("y-polarized transitions (offset from laser, ueV):")
    for line in transition_catalog(sol):
        print(f"  {line.label:>3}: {line.offset:+10.4f}  weight {line.weight:.4e}  "
              f"[{line.upper} -> {line.lower}]")
    return EXIT_OK


def _cmd_spectrum(args):
    cfg = _load(args)
    result = compute_spectrum_y(cfg)
    paths = export_spectrum(result, args.out, fmt=args.format, render=args.render)
    report = extract_peaks(result)
    print(f"spectrum: {result.omega_offsets.size} points, "
          f"{report.n_peaks} peaks, config {result.metadata['config_hash'][:12]}")
    for pos, height in zip(report.positions, report.heights):
        print(f"  peak at {pos:+10.3f} ueV  height {height:.4e}")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_power_sweep(args):
    cfg = _load(args)
    sweep = power_sweep(cfg, n_rows=args.rows, max_splitting=args.max_splitting)
    paths = export_map(sweep, args.out, fmt=args.format, stem="power", render=args.render)
    print(f"power sweep: {sweep.axis1.size} rows, Omega in "
          f"[{sweep.axis1[0]:g}, {sweep.axis1[-1]:g}] ueV")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_detuning_sweep(args):
    cfg = _load(args)
    if args.zero_splitting is not None:
        cfg = calibrate_drive(replace(cfg, laser_detuning=0.0), args.zero_splitting)
    sweep = detuning_sweep(cfg, n_rows=args.rows, span=args.span)
    paths = export_map(
        sweep, args.out, fmt=args.format, stem="detuning", render=args.render
    )
    print(f"detuning sweep: {sweep.axis1.size} rows, detuning in "
          f"[{sweep.axis1[0]:g}, {sweep.axis1[-1]:g}] ueV")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_phonon_compare(args):
    cfg = _load(args)
    res_on, res_off = phonon_comparison(cfg)
    paths = []
    paths += export_spectrum(res_on, args.out, fmt=args.format, stem="phonons_on",
                             render=args.render)
    paths += export_spectrum(res_off, args.out, fmt=args.format, stem="phonons_off",
                             render=args.render)
    rep_on = extract_peaks(res_on)
    rep_off = extract_peaks(res_off)

    def ratio(rep):
        return rep.left_sum / rep.right_sum if rep.right_sum > 0 else float("inf")

    print(f"phonons on : left/right peak-height ratio {ratio(rep_on):.3f}")
    print(f"phonons off: left/right peak-height ratio {ratio(rep_off):.3f}")
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def _cmd_check(args):
    cfg = _load(args)
    results = []

    def report(name, ok, detail):
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
        results.append(ok)

    liouv = assemble_liouvillian(cfg)
    spec9 = HilbertSpec(cfg.numerics.n_max_y)
    trace_row = vec(np.eye(spec9.dim)).conj().T @ liouv
    tp = float(np.max(np.abs(trace_row)))
    report("trace-preservation", tp < 1e-9 * max(1.0, float(np.abs(liouv).max())),
           f"max |tr(L rho)| row norm {tp:.2e}")

    rho = steady_state(liouv, kernel_rtol=cfg.numerics.steady_rtol)
    hyg = solver_hygiene(liouv, rho)
    ok = (hyg["trace_error"] < 1e-9 and hyg["hermiticity"] < 1e-9
          and hyg["residual"] < 1e-9 and hyg["min_eigenvalue"] > -1e-8)
    report("steady-state-hygiene", ok,
           f"trace {hyg['trace_error']:.1e}, herm {hyg['hermiticity']:.1e}, "
           f"residual {hyg['residual']:.1e}, min-eig {hyg['min_eigenvalue']:.1e}")

    err, n_points = _spectrum_deviation(cfg, liouv, rho)
    report("spectrum-path", err <= _SPECTRUM_TOL,
           f"parity-block spectrum vs direct solves of (i w - L) on the whole L: "
           f"max deviation {err:.1e} of the maximum at {n_points} points")

    print(f"{'OK' if all(results) else 'FAILED'}: "
          f"{sum(results)}/{len(results)} checks passed")
    return EXIT_OK if all(results) else EXIT_SOLVER


def _spectrum_deviation(cfg, liouv, rho):
    """Deviation of `compute_spectrum_y(cfg)` from direct linear solves.

    At the spectrum's argmax and at four fixed grid points, each source s
    gives Re Tr[s+ x] with (i w - L + vec(rho) Tr) x = vec(s rho) -
    Tr(s rho) vec(rho) on the whole L: for a traceless start the added
    rank-one term only lifts the kernel of L to eigenvalue 1, so x is the
    resolvent solution without the elastic line, and w = 0 stays regular.
    Returns the largest difference of the two on the scale where each is
    1 at the argmax, and the number of points.
    """
    result = compute_spectrum_y(cfg)
    grid, got = result.omega_offsets, result.intensity
    top = int(np.argmax(got))
    idx = [top] + sorted({k * (grid.size - 1) // 8 for k in (1, 3, 5, 7)} - {top})
    rho_v = vec(rho)
    lifted = np.outer(rho_v, vec(np.eye(rho.shape[0]))) - liouv
    eye = np.eye(liouv.shape[0])
    want = np.zeros(len(idx))
    for which in _SOURCES[cfg.source]:
        s = source_operator(cfg, which)
        s_rho = s @ rho
        start = vec(s_rho) - np.trace(s_rho) * rho_v
        row = vec(s.conj())  # Tr(s+ x) = vec((s+)^T) . vec(x)
        want += [(row @ np.linalg.solve(1j * grid[i] * eye + lifted, start)).real
                 for i in idx]
    want = np.clip(want, 0.0, None)
    if got[top] > 0.0 and want[0] > 0.0:
        return float(np.max(np.abs(got[idx] / got[top] - want / want[0]))), len(idx)
    # a spectrum that vanishes must vanish in both
    return (0.0 if got[top] == 0.0 and not np.any(want > 0.0) else np.inf), len(idx)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bixsim",
        description="Driven biexciton-exciton emitter in a bimodal cavity: "
                    "dressed-state analysis and emission spectra.",
    )
    parser.add_argument("--version", action="version", version=f"bixsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dressed", help="dressed eigenvalues and y transition lines")
    _add_common(p, output=False)
    p.set_defaults(func=_cmd_dressed)

    p = sub.add_parser("spectrum", help="stationary y-polarized emission spectrum")
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("power-sweep", help="spectrum map versus drive amplitude")
    _add_common(p)
    p.add_argument("--rows", type=int, default=41, help="number of drive values")
    p.add_argument("--max-splitting", type=float, default=300.0,
                   help="target doublet splitting at the top row (ueV)")
    p.set_defaults(func=_cmd_power_sweep)

    p = sub.add_parser("detuning-sweep", help="spectrum map versus laser detuning")
    _add_common(p)
    p.add_argument("--rows", type=int, default=41, help="number of detuning values")
    p.add_argument("--span", type=float, default=None,
                   help="half range of the detuning axis (default 2 kappa_x)")
    p.add_argument("--zero-splitting", type=float, default=None,
                   help="recalibrate the drive to this zero-detuning splitting")
    p.set_defaults(func=_cmd_detuning_sweep)

    p = sub.add_parser("phonon-compare", help="spectra with and without phonons")
    _add_common(p)
    p.set_defaults(func=_cmd_phonon_compare)

    p = sub.add_parser("check", help="quick self-consistency checks")
    _add_common(p, output=False)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "render", False):
            _pyplot()  # fail before any spectrum is computed or file written
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
