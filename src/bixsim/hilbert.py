"""Composite Hilbert space of the four-level emitter and one cavity mode.

Basis convention (fixed):

* emitter levels are ordered ``("G", "Y", "X", "XX")`` with indices 0..3,
  i.e. ground state, y-polarized exciton, x-polarized exciton, biexciton;
* the y-polarized cavity mode is truncated at ``n_max_y`` photons, Fock
  states ``n = 0..n_max_y``;
* the composite index of ``(level, n)`` is ``level_index * (n_max_y + 1) + n``
  so the photon index varies fastest.

All operators returned here are dense complex ndarrays on the composite
space.  Dimensions stay small (a few tens), so dense algebra is used
throughout the package.  The embedded transitions (projectors included)
and the photon annihilator are built once per (spec, levels) and cached;
they are read-only, so a caller that needs to modify one copies it first.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, check_fields

__all__ = ["HilbertSpec"]

QD_LEVELS = ("G", "Y", "X", "XX")


@dataclass(frozen=True)
class HilbertSpec:
    """Dimensions and index bookkeeping for the composite space.

    Parameters
    ----------
    n_max_y : int
        Highest y-cavity Fock state kept.  Must be >= 0; any run with a
        nonzero emitter-cavity coupling needs at least 1.
    """

    n_max_y: int = 2

    def __post_init__(self):
        check_fields(self)
        if self.n_max_y < 0:
            raise ConfigurationError("n_max_y must be >= 0")

    @property
    def n_ph(self) -> int:
        return self.n_max_y + 1

    @property
    def dim(self) -> int:
        return len(QD_LEVELS) * self.n_ph

    def level_index(self, level: str) -> int:
        try:
            return QD_LEVELS.index(level)
        except ValueError:
            raise ConfigurationError(
                f"unknown emitter level {level!r}; expected one of {QD_LEVELS}"
            ) from None

    def index(self, level: str, n_photon: int) -> int:
        """Composite basis index of emitter state `level` with n_photon photons."""
        if not 0 <= n_photon <= self.n_max_y:
            raise ConfigurationError(
                f"photon number {n_photon} outside truncation 0..{self.n_max_y}"
            )
        return self.level_index(level) * self.n_ph + n_photon

    def parity(self) -> np.ndarray:
        """P = (-1)^(n_y + [Y]) of every basis state, as +1 / -1 ints.

        The Hamiltonian and every dissipator of the model commute with
        rho -> P rho P (a weak Z2 symmetry): each coherent coupling and each
        jump operator either keeps P or flips it.
        """
        n = np.arange(self.n_ph)
        is_y = np.arange(len(QD_LEVELS)) == self.level_index("Y")
        return np.where((is_y[:, None] + n[None, :]) % 2, -1, 1).reshape(-1)

    def parity_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """Column-stacked vec indices of the even and odd sectors of rho.

        rho[i, j] (vec index i + dim * j) is even when P_i P_j = +1.  The
        generator never couples the two sectors: the steady state lies in
        the even one and s rho_ss, for a P-odd source s, in the odd one.
        """
        p = self.parity()
        even = (p[:, None] * p[None, :]).reshape(-1, order="F") > 0
        return np.flatnonzero(even), np.flatnonzero(~even)


def qd_operator(spec: HilbertSpec, mat4: np.ndarray) -> np.ndarray:
    """Embed a 4x4 emitter operator as mat4 (x) identity on the photon space."""
    mat4 = np.asarray(mat4, dtype=complex)
    if mat4.shape != (4, 4):
        raise ConfigurationError("emitter operator must be 4x4")
    return np.kron(mat4, np.eye(spec.n_ph, dtype=complex))


def _frozen(op: np.ndarray) -> np.ndarray:
    op.setflags(write=False)
    return op


@functools.cache
def embed_qd_transition(spec: HilbertSpec, frm: str, to: str) -> np.ndarray:
    """Lowering-style transition operator |to><frm| (x) identity.

    ``embed_qd_transition(spec, "X", "G")`` annihilates the x exciton into
    the ground state; its adjoint is the corresponding raising operator.
    With ``frm == to`` it is the projector |to><to| (x) identity.
    """
    i_from = spec.level_index(frm)
    i_to = spec.level_index(to)
    mat4 = np.zeros((4, 4), dtype=complex)
    mat4[i_to, i_from] = 1.0
    return _frozen(qd_operator(spec, mat4))


@functools.cache
def embed_photon_annihilator(spec: HilbertSpec) -> np.ndarray:
    """Annihilation operator of the y cavity mode, identity (x) a."""
    n = spec.n_ph
    a = np.zeros((n, n), dtype=complex)
    for k in range(1, n):
        a[k - 1, k] = np.sqrt(k)
    return _frozen(np.kron(np.eye(4, dtype=complex), a))


def is_hermitian(op: np.ndarray, rtol: float = 1e-12) -> bool:
    """True if op, or each matrix of a stack of them, equals its adjoint
    within a relative Frobenius tolerance."""
    op = np.asarray(op)
    skew = np.linalg.norm(op - op.conj().swapaxes(-1, -2), axis=(-2, -1))
    return bool(np.all(skew <= rtol * np.linalg.norm(op, axis=(-2, -1))))
