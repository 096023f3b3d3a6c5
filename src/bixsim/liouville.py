"""Dense superoperator algebra: Lindblad generators, steady states, spectra.

Vectorization is column stacking throughout: ``vec(rho)`` stacks the columns
of rho, so ``vec(A rho B) = (B^T kron A) vec(rho)``.  A superoperator on a
d-dimensional Hilbert space is a dense (d^2, d^2) complex matrix.

Every generator is given at operator level, L rho = K rho + rho K+ +
Sum_n A_n rho B_n, and `liouvillian` is the one builder of its matrix, on
all vec indices or on a block of them.  The Lindblad dissipator convention is

    D[O] rho = (rate / 2) * (2 O rho O+ - O+ O rho - rho O+ O)

so `rate` is the full population decay rate of the channel (a two-level
excited state decays as exp(-rate * t), its coherence as exp(-rate * t / 2)).

`steady_state` and `regression_spectrum` take an optional `block`: the vec
indices of a sector that L leaves invariant, such as a parity block of a
weak Z2 symmetry, and decompose only that square block of L, which
`liouvillian` builds directly.  The invariance is checked on the
operators, before any block is built, by `check_parity`: K must keep the
parity P of each basis state, and the A and B of each pair must both keep
it or both flip it.

Both decompose L in the Hermitian basis of the vec indices they are given,
where it is a real matrix: a physical generator preserves Hermiticity,
L(rho+) = L(rho)+.  The partner of vec index r = i + d j (rho[i, j]) is
p = j + d i, and for each pair with i < j the unitary T maps
x_r = (v_r + v_p) / sqrt(2), x_p = (v_r - v_p) / (i sqrt(2)); diagonal
entries stay.  T vec(H) is real for every Hermitian H, so L_h = T L T+ is
real, and a real SVD and a real `eig` replace complex ones; their vectors
are mapped back with T+.  T has two nonzeros per row and is applied as
row and column combinations, never formed.  L_h with an imaginary entry
above 1e-12 of its largest entry raises SolverError: such an L does not
preserve Hermiticity, and no physical generator does that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError
from .hilbert import is_hermitian

_HERMIT_RTOL = 1e-12  # Hermiticity of H, relative
_RESIDUAL_TOL = 1e-9  # ||L vec(rho_ss)|| accepted from steady_state
_STEADY_TOL = 1e-8  # ||L vec(rho_ss)|| / ||L|| accepted by regression_spectrum
_KERNEL_RTOL = 1e-10  # singular value or |eigenvalue| counted as kernel, relative
_BLOCK_RTOL = 1e-12  # vector weight in or outside a block, relative to its max
_PARITY_RTOL = 1e-12  # operator entries crossing parity, relative to max|op|
_HERMITICITY_RTOL = 1e-12  # |Im L_h| in the Hermitian basis, relative to max|L_h|
_SQRT_HALF = math.sqrt(0.5)

__all__ = [
    "vec",
    "unvec",
    "lindblad_generator",
    "liouvillian",
    "check_parity",
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


def lindblad_generator(h: np.ndarray, channels) -> tuple[np.ndarray, list]:
    """K and sandwich pairs of rho -> -i[H, rho] + Sum rate D[c] rho.

    `channels` holds (c, rate).  K = -iH - (1/2) Sum rate c+ c, and each
    channel gives the pair (sqrt(rate) c, sqrt(rate) c+).  Raises
    ConfigurationError if H is not Hermitian to a relative 1e-12, or for a
    negative rate, which does not generate a completely positive map.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, rtol=_HERMIT_RTOL):
        raise ConfigurationError("Hamiltonian is not Hermitian within tolerance")
    k, pairs = -1j * h, []
    for op, rate in channels:
        if rate < 0:
            raise ConfigurationError(f"negative dissipation rate {rate}")
        c = np.sqrt(rate) * np.asarray(op, dtype=complex)
        k -= 0.5 * (c.conj().T @ c)
        pairs.append((c, c.conj().T))
    return k, pairs


def liouvillian(k: np.ndarray, pairs, block=None) -> np.ndarray:
    """Matrix of rho -> K rho + rho K+ + Sum_(A, B) A rho B.

    `pairs` holds the (A, B) operators, each d x d like K; pass () for none.
    With `block`, sorted vec indices, only the square block of L on them is
    built; the caller makes sure L leaves it invariant (`check_parity`).
    With rho[i, j] at vec index i + d j, each entry is gathered from the
    flat d x d operators: L[r, c] = K[i_r, i_c] [j_r = j_c]
    + [i_r = i_c] conj(K[j_r, j_c]) + Sum A[i_r, i_c] B[j_c, j_r].
    Raises ConfigurationError for a pair that is not two operators of the
    shape of K, such as a superoperator.
    """
    k = np.asarray(k, dtype=complex)
    d = k.shape[0]
    for pair in pairs:
        if len(pair) != 2 or any(np.shape(op) != k.shape for op in pair):
            raise ConfigurationError(
                f"pairs must hold (A, B) operators of shape {k.shape}"
            )
    idx = np.arange(d * d) if block is None else np.asarray(block)
    i, j = idx % d, idx // d
    ii = i[:, None] * d + i[None, :]  # flat index of (i_r, i_c)
    jj = j[:, None] * d + j[None, :]  # flat index of (j_r, j_c)
    out = np.where(j[:, None] == j[None, :], k.reshape(-1)[ii], 0.0)
    out += np.where(i[:, None] == i[None, :], k.conj().reshape(-1)[jj], 0.0)
    for a, b in pairs:
        out += np.ravel(a)[ii] * np.ravel(np.transpose(b))[jj]
    return out


def check_parity(parity: np.ndarray, k: np.ndarray, pairs=()) -> None:
    """Raise SolverError unless L commutes with rho -> P rho P.

    `parity` holds P = +-1 per basis state.  L keeps the even and odd
    sectors of rho apart when K keeps P and the two operators of each pair
    both keep it or both flip it.  An entry crosses when it exceeds 1e-12
    of its operator's largest entry; the error names the operator (K, or
    A_n / B_n of pair n) and its largest crossing entry.
    """
    keeps = np.equal.outer(parity, parity)
    ops = [("K", k, True)]
    for n, (a, b) in enumerate(pairs):
        mag = np.abs(a) + np.abs(b)
        even = mag[keeps].max(initial=0.0) >= mag[~keeps].max(initial=0.0)
        ops += [(f"A_{n}", a, even), (f"B_{n}", b, even)]
    for name, op, even in ops:
        mag = np.abs(op)
        cross = np.where(keeps == even, 0.0, mag)
        i, j = np.unravel_index(np.argmax(cross), cross.shape)
        if cross[i, j] > _PARITY_RTOL * mag.max():
            raise SolverError(
                f"{name} breaks the parity symmetry: |{name}[{i}, {j}]| = "
                f"{cross[i, j]:.3e} {'flips' if even else 'keeps'} P, above "
                f"{_PARITY_RTOL:.0e} * max|{name}| = {_PARITY_RTOL * mag.max():.3e}"
            )


def _hermitian_pairs(idx: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions (a, b) in `idx` of rho[i, j] and rho[j, i], for each i < j.

    Raises SolverError if `idx` holds some rho[i, j] without rho[j, i]: the
    Hermitian basis needs a block closed under rho -> rho+, as every parity
    block is (P_i P_j is symmetric in i and j).
    """
    i, j = idx % d, idx // d
    where = np.full(d * d, -1)
    where[idx] = np.arange(idx.size)
    partner = where[j + d * i]
    if np.any(partner < 0):
        n = np.argmax(partner < 0)
        raise SolverError(
            f"the block holds vec index {idx[n]} but not its partner "
            f"{j[n] + d * i[n]}; it must be closed under rho -> rho+"
        )
    a = np.flatnonzero(i < j)
    return a, partner[a]


def _real_hermitian(liouv: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L_h = T L T+ in the Hermitian basis of the pairs (a, b), as a real matrix.

    Rows are combined first, then columns.  Raises SolverError, naming the
    largest entry, if |Im L_h| exceeds 1e-12 max|L_h|: L then does not
    preserve Hermiticity.
    """
    m = np.array(liouv, dtype=complex)
    ra, rb = m[a], m[b]
    m[a] = (ra + rb) * _SQRT_HALF
    m[b] = (rb - ra) * (1j * _SQRT_HALF)
    ca, cb = m[:, a], m[:, b]
    m[:, a] = (ca + cb) * _SQRT_HALF
    m[:, b] = (ca - cb) * (1j * _SQRT_HALF)
    imag = np.abs(m.imag)
    k, n = np.unravel_index(np.argmax(imag), imag.shape)
    bound = _HERMITICITY_RTOL * np.abs(m).max()
    if imag[k, n] > bound:
        raise SolverError(
            f"L does not preserve Hermiticity: |Im L_h[{k}, {n}]| = "
            f"{imag[k, n]:.3e} in the Hermitian basis, above "
            f"{_HERMITICITY_RTOL:.0e} * max|L_h| = {bound:.3e}"
        )
    return np.ascontiguousarray(m.real)


def _from_hermitian(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """T+ x: a vector, or the columns of a matrix, back in vec entries."""
    v = np.array(x, dtype=complex)
    xa, xb = v[a], v[b]
    v[a] = (xa + 1j * xb) * _SQRT_HALF
    v[b] = (xa - 1j * xb) * _SQRT_HALF
    return v


def steady_state(
    liouv: np.ndarray, kernel_rtol: float = _KERNEL_RTOL, block=None
) -> np.ndarray:
    """Steady-state density matrix from the kernel of the Liouvillian.

    The kernel is located by a real SVD of L in the Hermitian basis of the
    decomposed indices (see the module docstring), and the kernel vector is
    mapped back to vec entries.  `block` holds the sorted vec indices of a
    sector that L leaves invariant, such as the even parity block, and
    `liouv` is then L restricted to that block; the block's kernel vector
    is embedded back into d x d with zeros elsewhere.  A block with a
    steady state holds every diagonal entry of rho, so its last index is
    d^2 - 1.  The caller owns the uniqueness check on the other sectors
    (`regression_spectrum` makes it for the odd block).  Raises
    ConfigurationError if `liouv` does not have the block's size.  Raises
    SolverError if the block is unsorted or misses a diagonal entry, if the
    kernel is empty or degenerate at the given relative tolerance, if the
    kernel vector is traceless, if ||liouv vec(rho)|| > 1e-9, if the block
    is not closed under rho -> rho+, or if L does not preserve Hermiticity.
    """
    liouv = np.asarray(liouv, dtype=complex)
    idx = np.arange(liouv.shape[0]) if block is None else np.asarray(block)
    if liouv.shape[0] != idx.size:
        raise ConfigurationError("with a block, pass L restricted to the block")
    size = liouv.shape[0] if block is None else int(idx[-1]) + 1  # d^2
    d = math.isqrt(size)
    if block is None and d * d != size:
        raise ConfigurationError("Liouvillian size is not a perfect square")
    if block is not None:
        holds = np.isin(np.arange(d) * (d + 1), idx).all()  # every rho[i, i]
        if d * d != size or not holds or np.any(np.diff(idx) <= 0):
            raise SolverError(
                "a block given with its part of L must be sorted vec indices "
                "holding every diagonal entry of rho, the last being d^2 - 1"
            )
    a, b = _hermitian_pairs(idx, d)
    _, s, vh = np.linalg.svd(_real_hermitian(liouv, a, b))
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
    kernel = np.zeros(size, dtype=complex)
    kernel[idx] = _from_hermitian(vh[-1], a, b)
    rho = unvec(kernel)
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    if abs(tr) < 1e-12:
        raise SolverError("kernel vector is traceless; no physical steady state")
    rho = rho / tr
    rho_v = vec(rho)
    residual = np.linalg.norm(liouv @ rho_v[idx])
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


def regression_spectrum(
    liouv: np.ndarray,
    pairs,
    rho_ss: np.ndarray,
    omega_grid: np.ndarray,
    block=None,
    norm: float | None = None,
) -> np.ndarray:
    """Summed quantum-regression spectrum of a sequence of (A, B) pairs.

    Returns S(w) = Sum_(A, B) Re Int_0^inf dt e^{iwt} <A(t) B(0)>, evaluated
    without time stepping through the resolvent,
    S(w) = Sum Re Tr[A (-iw - L)^{-1} vec(B rho_ss)].  One eigendecomposition
    serves every pair and every grid frequency: a real `eig` of L in the
    Hermitian basis of the decomposed indices (see the module docstring),
    whose eigenvectors are mapped back to vec entries; the start vectors
    B rho_ss and the trace rows of A stay in vec entries.  The component of
    each B rho_ss along the Liouvillian kernel is projected out, which
    removes the elastic (delta-function) line and leaves the incoherent
    spectrum.

    `block` holds the sorted vec indices of a sector that L leaves invariant
    and that holds every start vector B rho_ss, and `liouv` is then L
    restricted to that block, the only part eigendecomposed.  For the
    model's weak Z2 symmetry this is the odd parity block: rho_ss is even
    and every source flips the parity.  `norm`, the scale of the guards
    below, is ||L||_F of the whole L; it defaults to that of `liouv`.

    Raises SolverError if rho_ss is not stationary under a whole `liouv`
    (with `block`, the residual check of `steady_state` on the block that
    holds rho_ss covers this), if a start vector has weight outside the
    block, if a block that does not hold rho_ss has an eigenvalue within
    1e-10 ||L|| of zero (a second stationary state that `steady_state`,
    decomposing only its own block, cannot see), if the eigenbasis is
    singular, or if some grid frequency coincides with an undamped
    eigenvalue (add dissipation to every channel before asking for a
    spectrum).  Raises SolverError too if the block is not closed under
    rho -> rho+ or if L does not preserve Hermiticity.  Raises
    ConfigurationError if `liouv` does not have the block's size.
    """
    liouv = np.asarray(liouv, dtype=complex)
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    rho_ss = np.asarray(rho_ss, dtype=complex)
    rho_v = vec(rho_ss)
    idx = np.arange(rho_v.size) if block is None else np.asarray(block)
    if liouv.shape[0] != idx.size:
        raise ConfigurationError("with a block, pass L restricted to the block")
    scale = max(np.linalg.norm(liouv) if norm is None else norm, 1.0)
    if block is None and np.linalg.norm(liouv @ rho_v) > _STEADY_TOL * scale:
        raise SolverError("rho_ss is not a steady state of the given Liouvillian")

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
    # Tr(A rho) = vec(A^T) . vec(rho) under column stacking
    rows = np.array([vec(np.transpose(op_a))[idx] for op_a, _ in pairs])

    a, b = _hermitian_pairs(idx, rho_ss.shape[0])
    evals, vecs = np.linalg.eig(_real_hermitian(liouv, a, b))
    vecs = _from_hermitian(vecs, a, b)
    # steady_state decomposed only the block holding rho_ss; a block without
    # rho_ss must have no kernel, or the steady state is not unique
    holds_rho = np.abs(rho_v[idx]).max() > _BLOCK_RTOL * np.abs(rho_v).max()
    if not holds_rho:
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
    # the starts were projected off the kernel mode, so its weight is rounding
    # that the grid point omega = 0 would blow up; drop it by index
    if holds_rho:
        weights[np.argmin(np.abs(evals))] = 0.0

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
    norm: float | None = None,
) -> np.ndarray:
    """Summed normal-ordered emission spectrum of a sequence of sources.

    Returns Sum_s Re Int_0^inf dt e^{iwt} <s+(0) s(t)>_ss on `omega_grid`
    for the lowering operators s, which is the regression spectrum of the
    pairs (A, B) = (s+, s) evaluated at -w.  With this orientation a
    transition above the laser appears at positive offset, so red/blue
    asymmetries read off the grid directly.  `block` and `norm` are passed
    on to `regression_spectrum`: the odd parity block for P-odd sources.
    """
    ops = [np.asarray(s, dtype=complex) for s in lowering_ops]
    grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    pairs = [(s.conj().T, s) for s in ops]
    return regression_spectrum(liouv, pairs, rho_ss, -grid, block, norm)


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
