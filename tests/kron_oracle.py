"""Test oracles of `liouville`: Kronecker-product superoperators for the
builder `liouvillian`, and complex-basis decompositions for `steady_state`
and `regression_spectrum`.

Each term is built as its own d^2 x d^2 matrix from `np.kron`, with
column-stacking vectorization, vec(A rho B) = (B^T kron A) vec(rho).  The
decompositions are a complex SVD and a complex `eig` of L in vec entries,
without the Hermitian basis and without the guards.
"""

import numpy as np

from bixsim.errors import ConfigurationError


def spre(a):
    """Superoperator for left multiplication, rho -> a rho."""
    a = np.asarray(a, dtype=complex)
    return np.kron(np.eye(a.shape[0], dtype=complex), a)


def spost(b):
    """Superoperator for right multiplication, rho -> rho b."""
    b = np.asarray(b, dtype=complex)
    return np.kron(b.T, np.eye(b.shape[0], dtype=complex))


def sandwich(a, b):
    """Superoperator for rho -> a rho b."""
    return np.kron(np.asarray(b, dtype=complex).T, np.asarray(a, dtype=complex))


def lindblad_dissipator(op, rate):
    """(rate/2) (2 O rho O+ - O+ O rho - rho O+ O); negative rates raise."""
    if rate < 0:
        raise ConfigurationError(f"negative dissipation rate {rate}")
    op = np.asarray(op, dtype=complex)
    opd_op = op.conj().T @ op
    return 0.5 * rate * (2.0 * sandwich(op, op.conj().T) - spre(opd_op) - spost(opd_op))


def hamiltonian_superop(h):
    """Coherent part -i [H, rho] as a superoperator."""
    return -1j * (spre(h) - spost(h))


def generator_superop(k, pairs):
    """rho -> K rho + rho K+ + Sum A rho B, one kron per term."""
    k = np.asarray(k, dtype=complex)
    liouv = spre(k) + spost(k.conj().T)
    for a, b in pairs:
        liouv = liouv + sandwich(a, b)
    return liouv


def complex_steady_state(liouv, idx, d):
    """rho_ss from a complex SVD of L on the vec indices `idx` of a d x d rho."""
    _, _, vh = np.linalg.svd(np.asarray(liouv, dtype=complex))
    v = np.zeros(d * d, dtype=complex)
    v[idx] = vh[-1].conj()
    rho = v.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def complex_regression_spectra(liouv, pairs, rho, grid, idx, kernel_tol):
    """Re Tr[A (-iw - L)^-1 (B rho - Tr(B rho) rho)] per pair, by one complex eig.

    `liouv` is L on the vec indices `idx`; eigenvalues within `kernel_tol`
    of zero are the kernel, which the start vectors have no weight on, and
    are dropped.  Returns one row per (A, B) pair.
    """
    evals, right = np.linalg.eig(np.asarray(liouv, dtype=complex))
    keep = np.abs(evals) > kernel_tol
    rho_v = np.asarray(rho, dtype=complex).reshape(-1, order="F")
    grid = np.asarray(grid, dtype=float)
    out = []
    for a, b in pairs:
        b_rho = np.asarray(b) @ rho
        start = (b_rho.reshape(-1, order="F") - np.trace(b_rho) * rho_v)[idx]
        row = np.asarray(a).T.reshape(-1, order="F")[idx]  # Tr(A X) = row . vec(X)
        w = ((row @ right) * np.linalg.solve(right, start))[keep]
        out.append((w / (-1j * grid[:, None] - evals[keep])).sum(axis=1).real)
    return np.array(out)
