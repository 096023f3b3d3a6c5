"""Correctness gate of the benchmark; runs outside every timed region.

A sampled spectrum is checked against an oracle that shares only the
Liouvillian L and the source operators with the program: its own steady
state (L with one row replaced by the trace condition, solved directly) and
one direct linear solve of (i w - L) per checked grid point, i.e. the
regression spectrum at -w as `emission_spectrum` defines it.  The program's
own `steady_state` must give a Hermitian, unit-trace rho_ss equal to the
oracle's.  The packaged baseline spectrum must match a golden copy.

Each check returns None when the output passes, else the reason it failed.
"""

from __future__ import annotations

import json

import numpy as np

SPECTRUM_TOL = 1e-8  # on the unit-maximum scale; a 1e-6 perturbation must fail
RHO_TOL = 1e-8
GOLDEN_RTOL = 1e-10
N_POINTS = 6  # checked grid points per spectrum, the argmax included


def oracle_steady_state(liouv):
    d2 = liouv.shape[0]
    d = int(round(d2**0.5))
    m = np.array(liouv, dtype=complex)
    # row 0 (d rho_00/dt) is minus the sum of the other diagonal rows for a
    # trace-preserving L, so the trace condition can take its place
    m[0, :] = np.eye(d).reshape(-1)
    rhs = np.zeros(d2, dtype=complex)
    rhs[0] = 1.0
    return np.linalg.solve(m, rhs).reshape((d, d), order="F")


def oracle_emission(liouv, rho, lowering, omegas):
    """Incoherent emission spectrum of `lowering` at the given offsets."""
    d2 = liouv.shape[0]
    rho_v = rho.reshape(-1, order="F")
    s_rho = lowering @ rho
    start = s_rho.reshape(-1, order="F") - np.trace(s_rho) * rho_v
    # Tr(A x) = sum_ij A_ij x_ji, and x_ji sits at column-stacked index i*d+j
    a_row = lowering.conj().T.reshape(-1)
    eye = np.eye(d2)
    return np.array(
        [(a_row @ np.linalg.solve(1j * w * eye - liouv, start)).real for w in omegas]
    )


def _sources(cfg):
    return ["y-dipole", "y-cavity"] if cfg.source == "both" else [cfg.source]


def pick_points(intensity, grid, rng, n_points=N_POINTS):
    """The argmax plus seeded grid indices; w = 0 is skipped (L is singular)."""
    top = int(np.argmax(intensity))
    pool = [i for i in range(len(grid)) if i != top and abs(grid[i]) > 1e-9]
    return [top] + rng.sample(pool, min(n_points - 1, len(pool)))


def check_spectrum(bixsim, cfg, intensity, rng, tol=SPECTRUM_TOL):
    """Check a unit-maximum spectrum computed by the program for `cfg`."""
    from bixsim.system import source_operator

    intensity = np.asarray(intensity, dtype=float)
    n = cfg.numerics
    grid = np.linspace(-n.omega_half_span, n.omega_half_span, n.n_omega)
    if intensity.shape != grid.shape or not np.all(np.isfinite(intensity)):
        return "spectrum has the wrong shape or non-finite values"
    idx = pick_points(intensity, grid, rng)

    liouv = bixsim.assemble_liouvillian(cfg)
    rho = oracle_steady_state(liouv)
    rho_prog = bixsim.steady_state(liouv, kernel_rtol=n.steady_rtol)
    herm = np.linalg.norm(rho_prog - rho_prog.conj().T)
    trace_err = abs(np.trace(rho_prog) - 1.0)
    if herm > RHO_TOL or trace_err > RHO_TOL:
        return f"rho_ss not Hermitian/unit trace: herm {herm:.2e}, trace {trace_err:.2e}"
    if np.linalg.norm(rho_prog - rho) > RHO_TOL:
        return f"rho_ss differs from the direct solve by {np.linalg.norm(rho_prog - rho):.2e}"

    total = sum(oracle_emission(liouv, rho, source_operator(cfg, which), grid[idx])
                for which in _sources(cfg))
    total = np.clip(total, 0.0, None)
    if not total[0] > 0.0:
        return "oracle spectrum vanishes at the program's argmax"
    err = np.abs(intensity[idx] - total / total[0])
    worst = int(np.argmax(err))
    if err[worst] > tol:
        return (f"spectrum off by {err[worst]:.2e} at offset {grid[idx[worst]]:g} ueV "
                f"(tolerance {tol:g})")
    return None


def load_golden(path):
    with open(path, "r", encoding="utf-8") as fh:
        return np.asarray(json.load(fh)["intensity"], dtype=float)


def check_golden(intensity, golden, rtol=GOLDEN_RTOL):
    intensity = np.asarray(intensity, dtype=float)
    if intensity.shape != golden.shape:
        return f"baseline spectrum has {intensity.size} points, golden {golden.size}"
    rel = float(np.max(np.abs(intensity - golden)) / np.max(np.abs(golden)))
    if rel > rtol:
        return f"baseline spectrum differs from the golden copy by {rel:.2e} relative"
    return None
