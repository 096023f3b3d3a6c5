"""Test oracles of `liouville`: Kronecker-product superoperators and a dense
gather for the builder `liouvillian`, the Hermitian basis as an explicit
matrix, SVD and complex-basis decompositions for `steady_state` and
`regression_spectrum`, and the broadcast resolvent sum; plus the model's
Hamiltonian as one matrix, which `src/` only builds inside `_generator`.

Each term is built as its own d^2 x d^2 matrix from `np.kron`, with
column-stacking vectorization, vec(A rho B) = (B^T kron A) vec(rho).  The
gather reads every entry of a block of L from the dense operators.  The
decompositions are a real SVD of L_h, and a complex SVD and a complex `eig`
of L in vec entries, without the trace-row solve and without the guards.
"""

import math

import numpy as np

from bixsim import system
from bixsim.errors import ConfigurationError, SolverError
from bixsim.hilbert import HilbertSpec
from bixsim.liouville import _hermitian_basis


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


def gather_liouvillian(k, pairs, block=None):
    """L of K and the pairs in vec entries, each block entry gathered densely.

    L[r, c] = K[i_r, i_c] [j_r = j_c] + [i_r = i_c] conj(K[j_r, j_c])
    + Sum A[i_r, i_c] B[j_c, j_r], with rho[i, j] at vec index i + d j.
    """
    k = np.asarray(k, dtype=complex)
    d = k.shape[0]
    idx = np.arange(d * d) if block is None else np.asarray(block)
    i, j = idx % d, idx // d
    ii = i[:, None] * d + i[None, :]  # flat index of (i_r, i_c)
    jj = j[:, None] * d + j[None, :]  # flat index of (j_r, j_c)
    out = np.where(j[:, None] == j[None, :], k.reshape(-1)[ii], 0.0)
    out += np.where(i[:, None] == i[None, :], k.conj().reshape(-1)[jj], 0.0)
    for a, b in pairs:
        out += np.ravel(a)[ii] * np.ravel(np.transpose(b))[jj]
    return out


def hermitian_basis_matrix(idx, d):
    """T as an explicit matrix: rows in the order of `_hermitian_basis`,
    columns in the order of `idx`; T vec(H) is real for Hermitian H."""
    idx = np.asarray(idx)
    order, nd = _hermitian_basis(idx, d)
    p = (idx.size - nd) // 2
    h = math.sqrt(0.5)
    t = np.zeros((idx.size, idx.size), dtype=complex)
    t[np.arange(nd), order[:nd]] = 1.0
    first, second = np.arange(nd, nd + p), np.arange(nd + p, idx.size)
    upper, lower = order[nd:nd + p], order[nd + p:]  # rho[i, j], i < j; rho[j, i]
    t[first, upper], t[first, lower] = h, h
    t[second, upper], t[second, lower] = -1j * h, 1j * h
    return t


def svd_steady_state(l_h, idx, d):
    """rho_ss and the singular values from a real SVD of L_h on the block idx."""
    _, s, vh = np.linalg.svd(np.asarray(l_h, dtype=float))
    v = np.zeros(d * d, dtype=complex)
    v[idx] = hermitian_basis_matrix(idx, d).conj().T @ vh[-1]
    rho = v.reshape((d, d), order="F")
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real, s


def broadcast_resolvent_sum(weights, evals, grid, scale):
    """Re Sum_n weights[n] / (-i w - evals[n]) by one broadcast divide.

    The guard runs over the whole (n_omega, n) resolvent: an entry within
    1e-12 `scale` of zero raises SolverError if its weight exceeds 1e-14 of
    the largest (or of 1), and is set to inf, so dropped, otherwise.
    """
    grid = np.asarray(grid, dtype=float)
    resolvent = -1j * grid[:, None] - evals
    bad = np.abs(resolvent) < 1e-12 * scale
    live = np.abs(weights) > 1e-14 * max(np.abs(weights).max(), 1.0)
    if np.any(bad & live):
        raise SolverError("resolvent singular")
    resolvent[bad] = np.inf
    return (weights / resolvent).sum(axis=1).real


def reduced_hamiltonian(cfg):
    """Rotating-frame Hamiltonian of cfg on the emitter (x) y-mode space."""
    spec = HilbertSpec(cfg.numerics.n_max_y)
    terms = system._coupling_terms(cfg, spec, system._kernels_for(cfg))
    return system._assemble_hamiltonian(cfg, spec, terms)
