"""Kronecker-product superoperators: the test oracle of `liouville.liouvillian`.

Each term is built as its own d^2 x d^2 matrix from `np.kron`, with
column-stacking vectorization, vec(A rho B) = (B^T kron A) vec(rho).
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
