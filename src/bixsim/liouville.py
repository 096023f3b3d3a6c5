"""Dense superoperator algebra: Lindblad generators, steady states, spectra.

Vectorization is column stacking throughout: ``vec(rho)`` stacks the columns
of rho, so ``vec(A rho B) = (B^T kron A) vec(rho)``.  A superoperator on a
d-dimensional Hilbert space is a dense (d^2, d^2) complex matrix.

The Lindblad dissipator convention is

    D[O] rho = (rate / 2) * (2 O rho O+ - O+ O rho - rho O+ O)

so `rate` is the full population decay rate of the channel (a two-level
excited state decays as exp(-rate * t), its coherence as exp(-rate * t / 2)).

`steady_state` and `regression_spectrum` take an optional `block`: the vec
indices of a sector that L leaves invariant, such as a parity block of a
weak Z2 symmetry.  They then decompose only that square block of L, after
checking that L does not couple it to the rest of the space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError
from .hilbert import is_hermitian

_HERMIT_RTOL = 1e-12  # Hermiticity of H, relative
_RESIDUAL_TOL = 1e-9  # ||L vec(rho_ss)|| accepted from steady_state
_STEADY_TOL = 1e-8  # ||L vec(rho_ss)|| / ||L|| accepted by regression_spectrum
_KERNEL_RTOL = 1e-10  # singular value or |eigenvalue| counted as kernel, relative
_BLOCK_RTOL = 1e-12  # entries coupling a block to the rest, relative to max|L|

__all__ = [
    "vec",
    "unvec",
    "spre",
    "spost",
    "sandwich",
    "lindblad_dissipator",
    "hamiltonian_superop",
    "liouvillian",
    "steady_state",
    "SpectrumResult",
    "regression_spectrum",
    "emission_spectrum",
    "solver_hygiene",
]


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of `vec`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex)
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ConfigurationError("vector length is not a perfect square")
    return v.reshape((d, d), order="F")


def spre(a: np.ndarray) -> np.ndarray:
    """Superoperator for left multiplication, rho -> a rho."""
    a = np.asarray(a, dtype=complex)
    return np.kron(np.eye(a.shape[0], dtype=complex), a)


def spost(b: np.ndarray) -> np.ndarray:
    """Superoperator for right multiplication, rho -> rho b."""
    b = np.asarray(b, dtype=complex)
    return np.kron(b.T, np.eye(b.shape[0], dtype=complex))


def sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> a rho b."""
    return np.kron(np.asarray(b, dtype=complex).T, np.asarray(a, dtype=complex))


def lindblad_dissipator(op: np.ndarray, rate: float) -> np.ndarray:
    """Lindblad dissipator superoperator for a single jump operator.

    Implements (rate/2) (2 O rho O+ - O+ O rho - rho O+ O).  Negative rates
    are rejected: they do not generate a completely positive map.
    """
    if rate < 0:
        raise ConfigurationError(f"negative dissipation rate {rate}")
    op = np.asarray(op, dtype=complex)
    opd_op = op.conj().T @ op
    return 0.5 * rate * (2.0 * sandwich(op, op.conj().T) - spre(opd_op) - spost(opd_op))


def hamiltonian_superop(h: np.ndarray) -> np.ndarray:
    """Coherent part -i [H, rho] as a superoperator."""
    return -1j * (spre(h) - spost(h))


def liouvillian(
    h: np.ndarray,
    dissipators: list[np.ndarray] | None = None,
    extra_terms: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Assemble L rho = -i[H, rho] + sum of dissipator superoperators.

    `dissipators` are pre-built superoperators (e.g. from
    `lindblad_dissipator`); `extra_terms` allows non-Lindblad but
    trace-preserving contributions such as a polaron scattering block.
    Raises if H is not Hermitian to a relative 1e-12.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, rtol=_HERMIT_RTOL):
        raise ConfigurationError("Hamiltonian is not Hermitian within tolerance")
    liouv = hamiltonian_superop(h)
    for term in dissipators or []:
        liouv = liouv + term
    for term in extra_terms or []:
        liouv = liouv + term
    return liouv


def _block(liouv: np.ndarray, block) -> tuple[np.ndarray, np.ndarray]:
    """Indices and sub-matrix of the sector `block` that L leaves invariant.

    `block` holds column-stacked vec indices; None means one block holding
    every index, which returns L itself.  Raises SolverError, naming the
    largest offending entry, if L couples the block to the other indices
    by more than 1e-12 max|L|.
    """
    if block is None:
        return np.arange(liouv.shape[0]), liouv
    idx = np.asarray(block)
    inside = np.zeros(liouv.shape[0], dtype=bool)
    inside[idx] = True
    mag = np.abs(liouv)
    cross = np.where(inside[:, None] != inside[None, :], mag, 0.0)
    i, j = np.unravel_index(np.argmax(cross), cross.shape)
    if cross[i, j] > _BLOCK_RTOL * mag.max():
        raise SolverError(
            f"Liouvillian couples the block to the rest of the space: "
            f"|L[{i}, {j}]| = {cross[i, j]:.3e} exceeds {_BLOCK_RTOL:.0e} * "
            f"max|L| = {_BLOCK_RTOL * mag.max():.3e}; the parity symmetry is broken"
        )
    return idx, liouv[np.ix_(idx, idx)]


def steady_state(
    liouv: np.ndarray, kernel_rtol: float = _KERNEL_RTOL, block=None
) -> np.ndarray:
    """Steady-state density matrix from the kernel of the Liouvillian.

    The kernel is located by SVD.  With `block`, the column-stacked vec
    indices of a sector that L leaves invariant (the even parity block of
    `HilbertSpec.parity_blocks`), only that square block is decomposed and
    its kernel vector is embedded back into d x d with zeros elsewhere;
    the default is one block holding every index.  The caller then owns the
    uniqueness check on the other sectors (`regression_spectrum` makes it
    for the odd block).  Raises SolverError if L couples the block to the
    rest, if the block's kernel is empty or degenerate at the given
    relative tolerance, if the kernel vector is traceless, or if the
    residual ||L vec(rho)|| of the full L exceeds 1e-9.
    """
    liouv = np.asarray(liouv, dtype=complex)
    idx, sub = _block(liouv, block)
    _, s, vh = np.linalg.svd(sub)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        raise SolverError("Liouvillian is identically zero")
    kdim = int(np.sum(s <= kernel_rtol * smax))
    if kdim == 0:
        raise SolverError(
            "no steady state found: smallest singular value "
            f"{s[-1]:.3e} exceeds tolerance {kernel_rtol * smax:.3e}"
        )
    if kdim > 1:
        raise SolverError(
            f"steady state is not unique: Liouvillian kernel dimension {kdim}"
        )
    kernel = np.zeros(liouv.shape[0], dtype=complex)
    kernel[idx] = vh[-1].conj()
    rho = unvec(kernel)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise SolverError("kernel vector is traceless; no physical steady state")
    rho = rho / tr
    residual = np.linalg.norm(liouv @ vec(rho))
    if residual > _RESIDUAL_TOL:
        raise SolverError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e}"
        )
    return rho


@dataclass(frozen=True)
class SpectrumResult:
    """A one-sided emission spectrum on a frequency grid.

    omega_offsets are energies relative to the drive laser (ueV), positive
    values above the laser.  `intensity` is nonnegative (arbitrary units,
    unit maximum if normalized).  `metadata` records provenance.
    """

    omega_offsets: np.ndarray
    intensity: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "omega_offsets", np.asarray(self.omega_offsets, dtype=float)
        )
        object.__setattr__(self, "intensity", np.asarray(self.intensity, dtype=float))
        if self.omega_offsets.shape != self.intensity.shape:
            raise ConfigurationError("grid and intensity shapes differ")


def _trace_row(a: np.ndarray) -> np.ndarray:
    # Tr(A rho) = vec(A^T) . vec(rho) under column stacking
    return np.asarray(a, dtype=complex).T.reshape(-1, order="F")


def regression_spectrum(
    liouv: np.ndarray,
    pairs,
    rho_ss: np.ndarray,
    omega_grid: np.ndarray,
    block=None,
) -> np.ndarray:
    """Summed quantum-regression spectrum of a sequence of (A, B) pairs.

    Returns S(w) = Sum_(A, B) Re Int_0^inf dt e^{iwt} <A(t) B(0)>, evaluated
    without time stepping through the resolvent,
    S(w) = Sum Re Tr[A (-iw - L)^{-1} vec(B rho_ss)].  One eigendecomposition
    serves every pair and every grid frequency.  The component of each
    B rho_ss along the Liouvillian kernel is projected out, which removes
    the elastic (delta-function) line and leaves the incoherent spectrum.

    `block` holds the column-stacked vec indices of a sector that L leaves
    invariant and that holds every start vector B rho_ss; only that square
    block of L is eigendecomposed, and the start vectors and trace rows are
    restricted to it.  For the model's weak Z2 symmetry this is the odd
    parity block of `HilbertSpec.parity_blocks`: rho_ss is even and every
    source flips the parity.  The default is one block holding every index.

    Raises SolverError if rho_ss is not stationary under L, if L couples
    the block to the rest of the space or a start vector has weight outside
    it, if a block that does not hold rho_ss has an eigenvalue within
    1e-10 ||L|| of zero (a second stationary state that `steady_state`,
    decomposing only its own block, cannot see), if the eigenbasis is
    singular, or if some grid frequency coincides with an undamped
    eigenvalue (add dissipation to every channel before asking for a
    spectrum).
    """
    liouv = np.asarray(liouv, dtype=complex)
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    rho_ss = np.asarray(rho_ss, dtype=complex)
    rho_v = vec(rho_ss)
    scale = max(np.linalg.norm(liouv), 1.0)
    if np.linalg.norm(liouv @ rho_v) > _STEADY_TOL * scale:
        raise SolverError("rho_ss is not a steady state of the given Liouvillian")
    idx, sub = _block(liouv, block)

    # left kernel of a trace-preserving L is the trace functional, so the
    # kernel component of B rho_ss has coefficient Tr(B rho_ss)
    starts = []
    for _, op_b in pairs:
        b_rho = np.asarray(op_b, dtype=complex) @ rho_ss
        starts.append(vec(b_rho) - np.trace(b_rho) * rho_v)
    starts = np.column_stack(starts)
    outside = np.abs(starts)
    top = outside.max()
    outside[idx] = 0.0
    k, n = np.unravel_index(np.argmax(outside), outside.shape)
    if outside[k, n] > _BLOCK_RTOL * top:
        raise SolverError(
            f"start vector {n} (B rho_ss) has weight {outside[k, n]:.3e} at vec "
            f"index {k}, outside the block; B does not map rho_ss into it"
        )
    starts = starts[idx]
    rows = np.array([_trace_row(op_a)[idx] for op_a, _ in pairs])

    evals, vecs = np.linalg.eig(sub)
    # steady_state decomposed only the block holding rho_ss; a block without
    # rho_ss must have no kernel, or the steady state is not unique
    if np.abs(rho_v[idx]).max() <= _BLOCK_RTOL * np.abs(rho_v).max():
        n_kernel = int(np.sum(np.abs(evals) <= _KERNEL_RTOL * scale))
        if n_kernel:
            raise SolverError(
                f"steady state is not unique: {n_kernel} eigenvalue(s) of a block "
                f"without rho_ss lie within {_KERNEL_RTOL:.0e} ||L|| of zero"
            )
    try:
        amp = np.linalg.solve(vecs, starts)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Liouvillian eigenbasis is singular: {exc}") from exc
    weights = np.sum((rows @ vecs) * amp.T, axis=0)

    # resolvent[i, n] = weights[n] / (-i w_i - evals[n]), built in place
    resolvent = -1j * omega_grid[:, None] - evals
    bad = np.abs(resolvent) < 1e-12 * scale
    live = np.abs(weights) > 1e-14 * max(np.abs(weights).max(), 1.0)
    hit = np.any(bad & live, axis=1)
    if np.any(hit):
        raise SolverError(
            f"resolvent singular at omega={omega_grid[np.argmax(hit)]:g}: an "
            "undamped eigenvalue coincides with the grid; every channel needs "
            "nonzero dissipation"
        )
    resolvent[bad] = np.inf
    np.divide(weights, resolvent, out=resolvent)
    return resolvent.sum(axis=1).real


def emission_spectrum(
    liouv: np.ndarray,
    lowering_ops,
    rho_ss: np.ndarray,
    omega_grid: np.ndarray,
    block=None,
) -> np.ndarray:
    """Summed normal-ordered emission spectrum of a sequence of sources.

    Returns Sum_s Re Int_0^inf dt e^{iwt} <s+(0) s(t)>_ss on `omega_grid`
    for the lowering operators s, which is the regression spectrum of the
    pairs (A, B) = (s+, s) evaluated at -w.  With this orientation a
    transition above the laser appears at positive offset, so red/blue
    asymmetries read off the grid directly.  `block` is passed on to
    `regression_spectrum`: the odd parity block for P-odd sources.
    """
    ops = [np.asarray(s, dtype=complex) for s in lowering_ops]
    grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    pairs = [(s.conj().T, s) for s in ops]
    return regression_spectrum(liouv, pairs, rho_ss, -grid, block)


def solver_hygiene(liouv: np.ndarray, rho_ss: np.ndarray) -> dict:
    """Collect solver health metrics for a Liouvillian/steady-state pair.

    Returns trace error, Hermiticity deviation, minimum eigenvalue and the
    stationarity residual; the caller decides which to assert.
    """
    rho = np.asarray(rho_ss, dtype=complex)
    return {
        "trace_error": abs(np.trace(rho).real - 1.0),
        "hermiticity": float(np.linalg.norm(rho - rho.conj().T)),
        "min_eigenvalue": float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()),
        "residual": float(np.linalg.norm(np.asarray(liouv) @ vec(rho))),
    }
