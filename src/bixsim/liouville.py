"""Superoperator algebra: Lindblad generators, steady states, spectra.

Vectorization is column stacking throughout: ``vec(rho)`` stacks the columns
of rho, so ``vec(A rho B) = (B^T kron A) vec(rho)``.  No (d^2, d^2)
superoperator is formed on the spectrum path: each parity block of L is
built as the real matrix L_h in the Hermitian basis of its vec indices,
and only a caller that asks for the whole L gets it as a complex matrix
in vec entries.

Every generator is given at operator level, L rho = K rho + rho K+ +
Sum_n A_n rho B_n, and `liouvillian` is the one builder of its matrix, on
all vec indices or on a block of them.  The Lindblad dissipator convention is

    D[O] rho = (rate / 2) * (2 O rho O+ - O+ O rho - rho O+ O)

so `rate` is the full population decay rate of the channel (a two-level
excited state decays as exp(-rate * t), its coherence as exp(-rate * t / 2)).

The builder scatters products of operator entries: A[a, b] B[e, f] lands at
L[a + d f, b + d e], made only from the nonzero entries of A and B and
summed by bincount.  A block is a parity sector of a weak Z2 symmetry: the
vec indices of rho[i, j] with P_i P_j = +1 (even) or -1 (odd).  K must keep
P, and the A and B of each pair must both keep it or both flip it; an entry
that would put a product across the sectors raises SolverError, naming its
operator, while the block is built.

The solvers take a block (all vec indices without a symmetry) as the real
L_h that `liouvillian(k, pairs, block)` builds in the Hermitian basis of its
vec indices; only `steady_state` also takes the whole L.  L_h is real
because a physical generator preserves Hermiticity, L(rho+) = L(rho)+.  The
partner of vec index r = i + d j (rho[i, j]) is p = j + d i, and for each
pair with i < j the unitary T maps x_r = (v_r + v_p) / sqrt(2),
x_p = (v_r - v_p) / (i sqrt(2)); diagonal entries stay.  T vec(H) is real for
every Hermitian H, so L_h = T L T+ is real.  T has at most two nonzeros per
column and is never formed: each entry of L lands in L_h as up to four real
entries, and vectors are mapped with T or T+ entry by entry.  The basis
lists the diagonal entries first, then the rho[i, j] with i < j, then their
partners.  L_h with an imaginary entry above 1e-12 of its largest entry
raises SolverError: such an L does not preserve Hermiticity, and no physical
generator does that.  The steady state is one real LU solve of L_h with a
diagonal row replaced by the trace row.  The spectrum of a block comes from
one real `eig` of L_h, except for a block without rho_ss of more than 200
rows (the odd block from n_max_y=5 on): there a two-sided Krylov reduced
model of the resolvent r^T (z - L_h)^-1 s serves, with the `eig` as its
fallback (`regression_spectrum`).

Every guard scales by max(||L_h||_F, 1) of the block it reads, written
||L||, except the absolute bound 1e-9 on the residual of `steady_state`.
One certificate decides uniqueness: `_solve_with_gap` raises unless
1 / (||M^-1|| ||L||) exceeds the bound, for the trace-row matrix M of the
steady state and for M = L_h of a block without rho's diagonal.

The pipeline takes an optional leading row axis, so that the rows of a
sweep run through it as one stack: `lindblad_generator` takes a stack of H,
`liouvillian` a stack (R, d, d) of K with pairs of (d, d) or (R, d, d)
operators and returns (R, n, n) blocks, and `steady_state` and
`regression_spectrum` take the stacks of blocks and of steady states.  A
row of a stack goes through the same LAPACK and BLAS calls, per-row norms
and bincount order as it does alone, so it comes out bit for bit as its
own call.  A stack passes every check or raises the message that a row
failing one raises alone, without naming the row (a matrix that LAPACK
finds singular fails the uniqueness check at once, with gap 0); a sweep,
which names the row, runs the stack again one row at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, SolverError
from .hilbert import is_hermitian

_HERMIT_RTOL = 1e-12  # Hermiticity of H, relative
_RESIDUAL_TOL = 1e-9  # ||L vec(rho_ss)|| accepted from steady_state
_KERNEL_RTOL = 1e-10  # uniqueness certificate counted as a kernel, relative
_BLOCK_RTOL = 1e-12  # vector weight in or outside a block, relative to its max
_PARITY_RTOL = 1e-12  # operator entries crossing parity, relative to max|op|
_HERMITICITY_RTOL = 1e-12  # |Im L_h| in the Hermitian basis, relative to max|L_h|
_SQRT_HALF = math.sqrt(0.5)
_KRYLOV_MIN_ROWS = 200  # blocks without rho_ss above this take the reduced model
_KRYLOV_SHIFT = 0.7  # real shift sigma of the reduced model, per grid half-span
_KRYLOV_STEP = 10  # blocks added to the reduced model between two checks
_KRYLOV_MAX_BLOCKS = 80  # reduced-model order cap, in blocks, before eig
_KRYLOV_RTOL = 1e-10  # change between successive orders, relative to max|S|
_KRYLOV_BREAKDOWN = 1e-12  # new block left by Gram-Schmidt, relative: invariant
_RESOLVENT_SLICE = 256  # grid points per slice of `_resolvent_sum`
# T's (c, t) by the side k = 0, 1, 2 of rho[i, j] (i = j, i < j, i > j), and
# the weights c_m c_n, -c_m t_n, t_m c_n, t_m t_n of an entry of L at (m, n)
# by its kind 3 k_m + k_n; for its imaginary part the middle two flip sign
_SIDE_C = np.array([1.0, _SQRT_HALF, _SQRT_HALF])
_SIDE_T = np.array([0.0, _SQRT_HALF, -_SQRT_HALF])
_REAL_WEIGHTS = np.array([
    np.outer(_SIDE_C, _SIDE_C), -np.outer(_SIDE_C, _SIDE_T),
    np.outer(_SIDE_T, _SIDE_C), np.outer(_SIDE_T, _SIDE_T),
]).reshape(4, 9)
_IMAG_WEIGHTS = _REAL_WEIGHTS * np.array([[1.0], [-1.0], [-1.0], [1.0]])

__all__ = [
    "lindblad_generator",
    "liouvillian",
    "steady_state",
    "SpectrumResult",
    "regression_spectrum",
    "emission_spectrum",
    "solver_hygiene",
]


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix, or of each of a stack."""
    rho = np.asarray(rho, dtype=complex)
    return rho.swapaxes(-1, -2).reshape(rho.shape[:-2] + (-1,))


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of `vec`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex)
    d = math.isqrt(v.shape[-1])
    if d * d != v.shape[-1]:
        raise ConfigurationError("vector length is not a perfect square")
    return v.reshape(v.shape[:-1] + (d, d)).swapaxes(-1, -2)


def lindblad_generator(h: np.ndarray, channels) -> tuple[np.ndarray, list]:
    """K and sandwich pairs of rho -> -i[H, rho] + Sum rate D[c] rho.

    `channels` holds (c, rate).  K = -iH - (1/2) Sum rate c+ c, and each
    channel gives the pair (sqrt(rate) c, sqrt(rate) c+).  H may be a stack
    of rows (R, d, d) that share the channels; K is then a stack too.
    Raises ConfigurationError if H is not Hermitian to a relative 1e-12, for
    a negative rate, which does not generate a completely positive map, or
    for a nan or infinite rate.
    """
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h, rtol=_HERMIT_RTOL):
        raise ConfigurationError("Hamiltonian is not Hermitian within tolerance")
    k, pairs = -1j * h, []
    for op, rate in channels:
        if not 0 <= rate < math.inf:  # nan too
            kind = "negative" if rate < 0 else "non-finite"
            raise ConfigurationError(f"{kind} dissipation rate {rate}")
        c = np.sqrt(rate) * np.asarray(op, dtype=complex)
        k -= 0.5 * (c.conj().T @ c)
        pairs.append((c, c.conj().T))
    return k, pairs


def liouvillian(k: np.ndarray, pairs, block=None) -> np.ndarray:
    """Matrix of rho -> K rho + rho K+ + Sum_(A, B) A rho B.

    `pairs` holds the (A, B) operators, each d x d like K; pass () for none.
    Without `block`, returns the whole complex (d^2, d^2) L in vec entries.
    With `block`, the sorted vec indices of a parity sector of rho, returns
    the square block of L on them as the real matrix L_h in the block's
    Hermitian basis, which `steady_state` and `regression_spectrum` take
    with the same `block`.  Both come from the nonzero products of
    `_products`: summed into vec entries by one bincount each for the real
    and imaginary parts, or scattered into L_h by `_hermitian_scatter`.

    K may be a stack (R, d, d) of the generators of R rows, and each
    operator of a pair either (d, d), shared by the rows, or (R, d, d); the
    result is then the stack of the R matrices.
    Raises SolverError from either (an operator across the parity sectors,
    an L_h with an imaginary part) and for a block that is empty or not 1-D
    distinct integer vec indices in [0, d^2), and ConfigurationError for a
    pair that is not two operators of the shape of K, such as a
    superoperator.
    """
    k = np.asarray(k, dtype=complex)
    d = k.shape[-1]
    for pair in pairs:
        if len(pair) != 2 or any(np.shape(op) not in (k.shape, (d, d)) for op in pair):
            raise ConfigurationError(
                f"pairs must hold (A, B) operators of shape {k.shape}"
            )
    stack = k.reshape(-1, d, d)
    idx = np.arange(d * d) if block is None else _vec_indices(block, d)
    rows, cols, vals = _products(stack, pairs, idx)
    if block is not None:
        l_h = _hermitian_scatter(rows, cols, vals, idx, d)
        return l_h.reshape(k.shape[:-2] + l_h.shape[1:])
    flat = (rows * d * d + cols + d**4 * np.arange(len(stack))[:, None]).ravel()
    re = np.bincount(flat, vals.real.ravel(), len(stack) * d**4)
    im = np.bincount(flat, vals.imag.ravel(), re.size)
    return (re + 1j * im).reshape(k.shape[:-2] + (d * d, d * d))


def _vec_indices(block, d: int) -> np.ndarray:
    """`block` as an array of vec indices of a d x d rho; SolverError unless
    it is 1-D, not empty, of distinct integers in [0, d^2)."""
    idx = np.asarray(block)
    if not (idx.size and idx.ndim == 1 and idx.dtype.kind in "iu" and idx.min() >= 0
            and idx.max() < d * d and np.all(np.diff(np.sort(idx)) > 0)):
        raise SolverError(f"a block must be 1-D distinct integer vec indices in [0, {d * d}), "
                          "and not empty")
    return idx


def _products(k: np.ndarray, pairs, idx: np.ndarray) -> tuple:
    """Vec rows, vec columns and values of the products of L in rows `idx`.

    The pair (A, B) puts A[a, b] B[e, f] at L[a + d f, b + d e]; K rho and
    rho K+ are the pairs (K, 1) and (1, K+).  `idx` must be a parity sector
    of rho, or all of it: rho[i, j] lies in it exactly when P_i P_j has one
    sign, so rho[i, 0] gives each state's parity relative to state 0 and no
    P is passed.  K must keep P, and the two operators of a pair must both
    keep it or both flip it, like the pair's largest entry; otherwise some
    product has its row in one sector and its column in the other.  Then
    SolverError names the first such operator in the order K, A_0, B_0,
    A_1, ... and its largest entry of the wrong kind, if that exceeds 1e-12
    of the operator's largest entry; smaller ones are rounding and dropped.

    `k` is a stack (R, d, d), and the values come as (R, N), one row per
    generator, on one plan: the union of the rows' nonzero entries that
    keep the right kind, with each row's other entries set to zero.  A
    zero product added to a bin leaves its sum as it was, and the plan
    lists a row's own products in the order of its plan alone.  All
    operators are handled at once: their entries are grouped by pair and
    by the parity of A's row a (B's column f), and each A entry meets the
    B entries of the group that puts a + d f in `idx`.
    """
    n_rows, d = k.shape[0], k.shape[-1]
    inside = np.zeros(d * d, dtype=bool)
    inside[idx] = True
    same = inside[:d] == inside[0]  # P_i == P_0
    sector = (same[:, None] == same[None, :]) == inside[0]
    if not np.array_equal(inside.reshape((d, d), order="F"), sector):
        raise SolverError("a block of L must be one parity sector of rho")
    n_ops = 1 + 2 * len(pairs)
    ops = np.empty((n_rows, n_ops, d, d), dtype=complex)
    ops[:, 0] = k  # op 0 is K, 1 + 2n is A_n, 2 + 2n is B_n
    for n, op in enumerate(op for pair in pairs for op in pair):
        ops[:, n + 1] = op
    op, r, c = np.nonzero(ops.any(axis=0))  # every row's nonzero entries
    v = ops[:, op, r, c]
    del ops  # a stack of rows holds the products next
    mag, keeps = np.abs(v), same[r] == same[c]
    top = np.zeros(n_rows * n_ops * 2)  # each row's largest entry that flips, keeps P
    slot = (np.arange(n_rows)[:, None] * n_ops + op) * 2 + keeps
    np.maximum.at(top, slot.ravel(), mag.ravel())
    top = top.reshape(n_rows, n_ops, 2)
    pair_top = top[:, 1:].reshape(n_rows, -1, 2, 2).max(axis=2)
    want = np.concatenate([np.ones((n_rows, 1), dtype=bool),
                           np.repeat(pair_top[..., 1] >= pair_top[..., 0], 2, axis=1)],
                          axis=1)
    wrong = keeps != want[:, op]
    above = wrong & (mag > _PARITY_RTOL * top.max(axis=2)[:, op])
    if above.any():
        row = np.flatnonzero(above.any(axis=1))[0]
        bad = op[above[row]].min()
        n = np.flatnonzero(wrong[row] & (op == bad))
        n = n[np.argmax(mag[row, n])]
        name = "K" if bad == 0 else f"{'BA'[bad % 2]}_{(bad - 1) // 2}"
        bound = _PARITY_RTOL * top[row, bad].max()
        raise SolverError(
            f"{name} breaks the parity symmetry: |{name}[{r[n]}, {c[n]}]| = "
            f"{mag[row, n]:.3e} {'flips' if want[row, bad] else 'keeps'} P, above "
            f"{_PARITY_RTOL:.0e} * max|{name}| = {bound:.3e}"
        )
    v[wrong] = 0.0
    live = v.any(axis=0)
    op, r, c, v = op[live], r[live], c[live], v[:, live]
    # A side: K (term 0), 1 (term 1), A_n (term n + 2); B side: 1, K+, B_n
    on_k, on_a = op == 0, op % 2 == 1
    on_b = ~on_k & ~on_a
    eye, ones = np.arange(d), np.ones((n_rows, d))
    n_k = np.count_nonzero(on_k)
    ra, ca = (np.concatenate([x[on_k], eye, x[on_a]]) for x in (r, c))
    av = np.concatenate([v[:, on_k], ones, v[:, on_a]], axis=1)
    rb, cb = (np.concatenate([eye, x[on_k], y[on_b]]) for x, y in ((c, r), (r, c)))
    bv = np.concatenate([ones, v[:, on_k].conj(), v[:, on_b]], axis=1)
    del v
    ta = np.concatenate([np.zeros(n_k, int), np.ones(d, int), (op[on_a] + 3) // 2])
    tb = np.concatenate([np.zeros(d, int), np.ones(n_k, int), (op[on_b] + 2) // 2])
    ga, gb = 2 * ta + ~same[ra], 2 * tb + (same[cb] != inside[0])
    ia, ib = np.argsort(ga, kind="stable"), np.argsort(gb, kind="stable")
    nb = np.bincount(gb, minlength=2 * len(pairs) + 4)
    start = np.cumsum(nb) - nb  # first entry of each group in ib
    reps = nb[ga[ia]]
    offset = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    ib = ib[np.repeat(start[ga[ia]], reps) + offset]
    ia = np.repeat(ia, reps)
    vals = av[:, ia]
    vals *= bv[:, ib]  # in place: a stack of rows holds one fewer (R, N) temporary
    return ra[ia] + d * cb[ib], ca[ia] + d * rb[ib], vals


def _hermitian_basis(idx: np.ndarray, d: int) -> tuple[np.ndarray, int]:
    """Order of the Hermitian basis of the vec indices `idx`, and its nd.

    idx[order] lists the nd diagonal entries rho[i, i] first, in idx order,
    then every rho[i, j] with i < j, then each partner rho[j, i] in the same
    order, so that the m-th pair sits at rows nd + m and nd + p + m.  Raises
    SolverError if `idx` holds some rho[i, j] without rho[j, i]: the
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
    order = np.concatenate([np.flatnonzero(i == j), a, partner[a]])
    return order, idx.size - 2 * a.size


def _hermitian_scatter(rows, cols, vals, idx: np.ndarray, d: int) -> np.ndarray:
    """The stack of L_h = T L T+ from the entries vals (R, N) of R matrices
    L, all at vec indices (rows, cols).

    T (module docstring) has at most two entries per column: vec index v of
    rho[i, j] goes to the pair's first row s with weight c and to its second
    row s + p with weight -i t, where (c, t) = (1, 0) on the diagonal,
    (1, 1) / sqrt(2) for i < j and (1, -1) / sqrt(2) for i > j.  So an
    entry v of L at (m, n) lands in L_h as up to four entries, c_m c_n v,
    i c_m t_n v, -i t_m c_n v and t_m t_n v.  Their real parts are
    Re v c_m c_n, -Im v c_m t_n, Im v t_m c_n and Re v t_m t_n, and their
    imaginary parts Im v c_m c_n, Re v c_m t_n, -Re v t_m c_n and
    Im v t_m t_n.  For each matrix one (4, N) float buffer takes either
    set of weights, each slot filled from a 9-entry table by the sides of m
    and n and then scaled in place by Re v or Im v, so no complex temporary
    is formed, and one bincount sums it.  The imaginary sum comes first and
    only its largest entry is kept: SolverError names it, in the first
    matrix where it exceeds 1e-12 max|L_h|, since L then does not preserve
    Hermiticity.  Rows and columns of L_h follow `_hermitian_basis`.
    """
    order, nd = _hermitian_basis(idx, d)
    n, p = idx.size, (idx.size - nd) // 2
    slot = np.full(d * d, -1)
    slot[idx[order]] = np.concatenate([np.arange(nd + p), np.arange(nd, nd + p)])
    flat = np.empty((4, rows.size), dtype=np.intp)
    np.add(slot[rows] * n, slot[cols], out=flat[0])
    np.add(flat[0], p, out=flat[1])
    np.add(flat[0], p * n, out=flat[2])
    np.add(flat[2], p, out=flat[3])
    i, j = np.divmod(np.arange(d * d), d)[::-1]
    side = (np.sign(j - i) % 3).astype(np.int8)
    kind = 3 * side[rows] + side[cols]
    w = np.empty((4, rows.size))

    def summed(x, y, weights):
        for m, part in enumerate((x, y, y, x)):
            np.take(weights[m], kind, out=w[m], mode="clip")  # unbuffered
            w[m] *= part
        return np.bincount(flat.ravel(), w.ravel(), n * n)

    blocks = []
    for v in vals:
        imag = summed(v.imag, v.real, _IMAG_WEIGHTS)
        worst = np.abs(imag, out=imag).argmax()
        worst_im = imag[worst]
        del imag
        l_h = summed(v.real, v.imag, _REAL_WEIGHTS).reshape(n, n)
        bound = _HERMITICITY_RTOL * max(l_h.max(), -l_h.min())
        if worst_im > bound:
            k, m = divmod(int(worst), n)
            raise SolverError(
                f"L does not preserve Hermiticity: |Im L_h[{k}, {m}]| = "
                f"{worst_im:.3e} in the Hermitian basis, above "
                f"{_HERMITICITY_RTOL:.0e} * max|L_h| = {bound:.3e}"
            )
        blocks.append(l_h)
    return np.stack(blocks) if len(blocks) > 1 else blocks[0][None]  # one is not copied


def _to_hermitian(v: np.ndarray, order: np.ndarray, nd: int) -> np.ndarray:
    """T v for the columns of a matrix, or of each of a stack, in vec entries
    (idx order) along the second-to-last axis."""
    p = (v.shape[-2] - nd) // 2
    va, vb = v[..., order[nd:nd + p], :], v[..., order[nd + p:], :]
    return np.concatenate(
        [v[..., order[:nd], :], (va + vb) * _SQRT_HALF, (vb - va) * (1j * _SQRT_HALF)],
        axis=-2,
    )


def _from_hermitian(x: np.ndarray, order: np.ndarray, nd: int) -> np.ndarray:
    """T+ x for the columns of a matrix, or of each of a stack, back in vec
    entries (idx order) along the second-to-last axis."""
    x = np.asarray(x)
    p = (x.shape[-2] - nd) // 2
    xa, xb = x[..., nd:nd + p, :], x[..., nd + p:, :]
    v = np.empty(x.shape, dtype=complex)
    v[..., order[:nd], :] = x[..., :nd, :]
    v[..., order[nd:nd + p], :] = (xa + 1j * xb) * _SQRT_HALF
    v[..., order[nd + p:], :] = (xa - 1j * xb) * _SQRT_HALF
    return v


def _block_stack(l_h, idx: np.ndarray, d: int) -> tuple:
    """(stack (R, n, n), leading shape, order, nd, ||L|| of each matrix) for
    `l_h`, a real L_h on the vec indices `idx` of a d x d rho or a stack of
    them, with the Hermitian basis of `idx`; else ConfigurationError."""
    l_h = np.asarray(l_h)
    if np.iscomplexobj(l_h) or l_h.ndim not in (2, 3) or l_h.shape[-2:] != (idx.size,) * 2:
        raise ConfigurationError(
            f"pass the real L_h restricted to the block ({idx.size} vec indices) "
            "that liouvillian(k, pairs, block) builds"
        )
    order, nd = _hermitian_basis(idx, d)
    lead, l_h = l_h.shape[:-2], l_h.astype(float, copy=False).reshape(-1, idx.size, idx.size)
    return l_h, lead, order, nd, np.array([max(np.linalg.norm(m), 1.0) for m in l_h])


def steady_state(
    liouv: np.ndarray, kernel_rtol: float = _KERNEL_RTOL, block=None
) -> np.ndarray:
    """Steady-state density matrix: the kernel of L, by one real LU solve.

    L_h is L in the Hermitian basis of the block (see the module
    docstring).  Its row for d rho_00/dt is replaced by the trace row,
    scaled to s = ||L|| = max(||L_h||_F, 1), and M x = s e_0 is solved.
    For a trace-preserving L that row is minus the sum of the other
    diagonal rows, so x is the kernel vector of unit trace.  M is singular
    exactly when the kernel holds a traceless vector, which for a physical
    generator means a kernel of dimension 2 or more.  The uniqueness
    certificate is 1 / (||M^-1|| s) from `_solve_with_gap`, whose probe
    rides in the same solve.  It stands in for the second smallest singular
    value of L_h over ||L||: a rank-one change interlaces singular values,
    so sigma_min(M) never exceeds sigma_(n-1)(L_h).  `kernel_rtol` (the
    config's `Numerics.steady_rtol`, in (0, 1)) bounds it from below.

    `block` holds the sorted vec indices of a sector that L leaves
    invariant and that holds every diagonal entry of rho (the even parity
    block, whose last index is d^2 - 1), and `liouv` is the real L_h that
    `liouvillian(k, pairs, block)` builds; rho is embedded back into d x d
    with zeros elsewhere.  `liouv` may be a stack (R, n, n) of the blocks
    of R rows: the result is then the (R, d, d) stack of their steady
    states, each equal bit for bit to its row's alone.  `regression_spectrum`
    checks the other sectors for a kernel.  Without `block`, `liouv` is the
    whole complex L in vec entries, scattered into L_h here (for `bixsim
    check` and `bench/gate.py`).  Raises ConfigurationError for a
    `kernel_rtol` outside (0, 1), if `liouv` is not the real L_h of the
    block, or without one, not square of size d^2.
    Raises SolverError if the block is unsorted or misses a diagonal entry,
    if it is not distinct integer vec indices, if L is zero, if the
    certificate is at most `kernel_rtol` ("not unique"), if ||L_h x||
    exceeds kernel_rtol s ||x|| ("no steady state found": L does not
    preserve the trace), if ||L vec(rho)|| = ||L_h x|| / |Tr x| > 1e-9, if
    the block is not closed under rho -> rho+, or if L does not preserve
    Hermiticity.
    """
    if not 0 < kernel_rtol < 1:  # nan too
        raise ConfigurationError(f"kernel_rtol must be above 0 and below 1, got {kernel_rtol}")
    if block is None:
        liouv = np.asarray(liouv)
        d = math.isqrt(liouv.shape[0]) if liouv.ndim else 0
        if not d or liouv.shape != (d * d, d * d):
            raise ConfigurationError("the whole Liouvillian must be square, of size d^2")
        idx = np.arange(d * d)
        rows, cols = np.nonzero(liouv)
        vals = liouv[rows, cols].astype(complex)[None]
        liouv = _hermitian_scatter(rows, cols, vals, idx, d)[0]
    else:
        idx = np.asarray(block)
        last = int(idx[-1]) if idx.ndim == 1 and idx.size else -1
        d = math.isqrt(max(last, 0) + 1)
        holds = np.isin(np.arange(d) * (d + 1), idx).all()  # every rho[i, i]
        if d * d != last + 1 or not holds or np.any(np.diff(idx) <= 0):
            raise SolverError(
                "a block given with its part of L must be sorted vec indices "
                "holding every diagonal entry of rho, the last being d^2 - 1"
            )
        idx = _vec_indices(idx, d)
    l_h, lead, order, nd, scale = _block_stack(liouv, idx, d)
    if not l_h.any(axis=(1, 2)).all():
        raise SolverError("Liouvillian is identically zero")
    m = l_h.copy()
    m[:, 0, :nd], m[:, 0, nd:] = scale[:, None], 0.0  # rho_00: first diagonal entry
    rhs = np.zeros(l_h.shape[:2])
    rhs[:, 0] = scale
    x = _solve_with_gap(m, scale, kernel_rtol, "Liouvillian kernel dimension 2 or "
                        "more, or a traceless kernel vector", rhs)[0]
    lx = np.linalg.norm(l_h @ x[..., None], axis=(1, 2))  # ||L_h x|| of each row
    miss, bound = lx / np.linalg.norm(x, axis=1), kernel_rtol * scale
    r = np.argmax(miss > bound)  # the first row over, if any
    if miss[r] > bound[r]:
        raise SolverError(
            f"no steady state found: ||L x|| / ||x|| = {miss[r]:.3e} for the "
            f"trace-row solution x exceeds tolerance {bound[r]:.3e}"
        )
    trace = x[:, :nd].sum(axis=1)
    x, residual = x / trace[:, None], lx / np.abs(trace)
    r = np.argmax(residual > _RESIDUAL_TOL)
    if residual[r] > _RESIDUAL_TOL:
        raise SolverError(f"steady-state residual {residual[r]:.3e} exceeds {_RESIDUAL_TOL:.1e}")
    kernel = np.zeros((len(l_h), d * d), dtype=complex)
    kernel[:, idx] = _from_hermitian(x[..., None], order, nd)[..., 0]
    return unvec(kernel).reshape(lead + (d, d))


def _solve_with_gap(m: np.ndarray, scale: np.ndarray, bound: float, reason: str,
                    rhs=None) -> tuple:
    """(M^-1 rhs, 1 / (||M^-1|| scale)) for each M of the stack m (R, n, n),
    as an (R, n) and an (R,) array.

    A fixed probe z rides in the solve of `rhs` (R, n) as one more column,
    and one transposed solve gives the power step |M^-1 z| -> |M^-T M^-1 z|,
    which estimates ||M^-1|| from below.  It is exact to first order when
    one singular value of M is small, which is where the bound decides.
    Without `rhs` the first value is M^-1 z.  A gap not above `bound` > 0
    raises SolverError "steady state is not unique: `reason`"; a matrix
    that LAPACK finds singular has gap 0.
    """
    # a fixed quasi-random probe, the Weyl sequence frac(k / p) - 1/2 for the
    # plastic number p; nothing is seeded or imported
    columns = np.empty(m.shape[:-1] + (1 if rhs is None else 2,))
    columns[..., -1] = np.arange(1, m.shape[-1] + 1) * 0.7548776662466927 % 1.0 - 0.5
    if rhs is not None:
        columns[..., 0] = rhs
    try:
        sol = np.linalg.solve(m, columns)
        back = np.linalg.norm(np.linalg.solve(m.swapaxes(-1, -2), sol[..., -1:]), axis=(1, 2))
        gaps = np.linalg.norm(sol[..., -1], axis=1) / (back * scale)
    except np.linalg.LinAlgError:
        sol, gaps = None, np.zeros(1)
    if not np.all(gaps > bound):  # nan too
        gap = gaps[np.argmin(gaps > bound)]
        raise SolverError(f"steady state is not unique: {reason} "
                          f"(relative gap {gap:.3e}, at most {bound:.3e})")
    return sol[..., 0], gaps


@dataclass(frozen=True)
class SpectrumResult:
    """A one-sided emission spectrum on a frequency grid.

    omega_offsets are energies relative to the drive laser (ueV), positive
    values above the laser, 1-D and finite.  `intensity` is nonnegative
    (arbitrary units, unit maximum if normalized), one value per offset.
    `metadata` records provenance.  Anything else raises ConfigurationError.
    """

    omega_offsets: np.ndarray
    intensity: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "omega_offsets", np.asarray(self.omega_offsets, dtype=float)
        )
        object.__setattr__(self, "intensity", np.asarray(self.intensity, dtype=float))
        if self.omega_offsets.ndim != 1 or not np.isfinite(self.omega_offsets).all():
            raise ConfigurationError("spectrum grid must be 1-D and finite")
        if self.omega_offsets.shape != self.intensity.shape:
            raise ConfigurationError("grid and intensity shapes differ")
        if not np.isfinite(self.intensity).all():
            raise ConfigurationError("spectrum intensity must be finite")
        if self.intensity.size and self.intensity.min() < 0.0:
            raise ConfigurationError("spectrum intensity must be nonnegative")


def regression_spectrum(
    l_h: np.ndarray,
    pairs,
    rho_ss: np.ndarray,
    omega_grid: np.ndarray,
    block,
) -> np.ndarray:
    """Summed quantum-regression spectrum of a sequence of (A, B) pairs.

    Returns S(w) = Sum_(A, B) Re Int_0^inf dt e^{iwt} <A(t) B(0)>, evaluated
    without time stepping through the resolvent,
    S(w) = Sum Re Tr[A (-iw - L)^{-1} vec(B rho_ss)].  The start vectors
    B rho_ss (by T) and the trace rows of A (by T+ from the right) are
    mapped into the Hermitian basis of the block (see the module
    docstring), where L is the real L_h.  The component of each
    B rho_ss along the Liouvillian kernel is projected out, which removes
    the elastic (delta-function) line and leaves the incoherent spectrum.
    Both paths below find the poles and weights by `_poles` and end in
    `_resolvent_sum`; one model serves every pair and every grid frequency.

    One real `eig` of L_h gives the poles and weights on a block that
    holds rho_ss and on any block of at most 200 rows
    (`_KRYLOV_MIN_ROWS`).  A block without rho_ss above that size takes a
    two-sided Krylov reduced model instead (`_reduced_spectrum`): one
    inverse of sigma - L_h with the real shift sigma = 0.7 max|w|, a real
    block Arnoldi from the real and imaginary parts of the starts and one
    on the transpose from those of the rows, an oblique projection and one
    small `eig`.  Its order grows by 10 blocks until two successive
    orders give spectra that agree to 1e-10 of their largest |S| on the
    grid; that is evidence, not a proof, of that accuracy over the whole
    grid.  At 80 blocks, or at half the rows of the block, or if sigma
    exceeds ||L|| = max(||L_h||_F, 1) or the projection cannot be solved,
    the dense `eig` serves.  The 200 rows are the measured crossover with
    one BLAS thread (see the README).

    `block` holds the vec indices of a sector that L leaves invariant and
    that holds every start vector B rho_ss, and `l_h` is the real L_h of
    that block that `liouvillian(k, pairs, block)` builds, the only part
    decomposed.  For the model's weak Z2 symmetry this is the odd parity
    block: rho_ss is even and every source flips the parity.  A system
    without a symmetry passes every vec index, `np.arange(d * d)`.

    The block holds rho_ss when it holds a diagonal entry of rho (the even
    block, or every index); with a block-diagonal L and a unique steady
    state, rho_ss has no weight in any other.  `l_h` (R, n, n) and `rho_ss`
    (R, d, d) may be stacks of R rows that share the pairs; the result is
    then (R, n_omega), each row equal bit for bit to its spectrum alone.
    Every row takes the same path; the `eig` or reduced model and
    `_resolvent_sum` run row by row, one eigenbasis and resolvent at a time.

    Raises SolverError if the block holds rho_ss and ||L_h T vec(rho_ss)||
    exceeds 1e-9 ||L|| (not stationary), if a start vector has weight
    outside the block, if a block without rho_ss has a kernel (a second
    stationary state that `steady_state` cannot see: `_solve_with_gap`'s
    certificate 1 / (||L_h^-1|| ||L||) is at most 1e-10, checked before
    either path runs), if the `eig` fails or its eigenbasis is singular, or
    if a pole with weight is undamped, wherever the grid lies (add
    dissipation to every channel before asking for a spectrum).  Raises
    SolverError too if the block is empty, is not distinct integer vec
    indices or is not closed under rho -> rho+.  Raises ConfigurationError
    if `pairs` or the grid is empty, if the grid is not 1-D or not finite,
    if `l_h` is complex or if it does not have the block's size, or if
    `rho_ss` is not one d x d matrix per block.
    """
    if len(pairs) == 0:
        raise ConfigurationError("no sources: give at least one (A, B) pair, or "
                                 "one lowering operator to emission_spectrum")
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    if omega_grid.size == 0:
        raise ConfigurationError("the frequency grid is empty")
    if omega_grid.ndim != 1 or not np.isfinite(omega_grid).all():
        raise ConfigurationError("the frequency grid must be 1-D and finite")
    rho_ss = np.asarray(rho_ss, dtype=complex)
    d = rho_ss.shape[-1] if rho_ss.ndim else 0
    if rho_ss.shape != np.shape(l_h)[:-2] + (d, d):
        raise ConfigurationError("pass one steady state rho_ss per block of L_h")
    idx = _vec_indices(block, d)
    l_h, lead, order, nd, scale = _block_stack(l_h, idx, d)
    rho_ss = rho_ss.reshape(-1, d, d)
    rho_v = vec(rho_ss)

    # left kernel of a trace-preserving L is the trace functional, so the
    # kernel component of B rho_ss has coefficient Tr(B rho_ss)
    starts = []
    for _, op_b in pairs:
        b_rho = np.asarray(op_b, dtype=complex) @ rho_ss
        trace = np.trace(b_rho, axis1=1, axis2=2)
        starts.append(vec(b_rho) - trace[:, None] * rho_v)
    starts = np.stack(starts, axis=-1)
    outside = np.abs(starts)
    bound = _BLOCK_RTOL * outside.max(axis=(1, 2))
    outside[:, idx] = 0.0
    r = np.argmax(outside.max(axis=(1, 2)) > bound)  # the first row over, if any
    k, n = np.unravel_index(np.argmax(outside[r]), outside.shape[1:])
    if outside[r, k, n] > bound[r]:
        raise SolverError(
            f"start vector {n} (B rho_ss) has weight {outside[r, k, n]:.3e} at vec "
            f"index {k}, outside the block; B does not map rho_ss into it"
        )
    starts = _to_hermitian(starts[:, idx], order, nd)
    # Tr(A rho) = vec(A^T) . vec(rho) under column stacking, and the row r
    # acts on the Hermitian basis as r T+ = conj(T conj(r))
    rows = np.array([vec(np.transpose(op_a))[idx] for op_a, _ in pairs])
    rows = _to_hermitian(rows.conj().T, order, nd).conj().T

    # a block holding rho_ss must leave it stationary; steady_state solved only
    # that block, so one without rho_ss must have no kernel, or rho_ss is not unique
    holds_rho = nd > 0
    if holds_rho:
        x = _to_hermitian(rho_v[:, idx, None], order, nd)
        drift = np.linalg.norm(l_h @ x, axis=(1, 2))
        r = np.argmax(drift > _RESIDUAL_TOL * scale)
        if drift[r] > _RESIDUAL_TOL * scale[r]:
            raise SolverError(f"rho_ss is not a steady state: ||L_h x|| = {drift[r]:.3e}")
    else:
        _solve_with_gap(l_h, scale, _KERNEL_RTOL, "a block without rho_ss has a kernel")
    reduced = not holds_rho and idx.size > _KRYLOV_MIN_ROWS
    spectra = np.empty((len(l_h), omega_grid.size))
    for row, (l_r, starts_r, s_r) in enumerate(zip(l_h, starts, scale)):
        if reduced:
            spectrum = _reduced_spectrum(l_r, rows, starts_r, omega_grid, s_r)
            if spectrum is not None:
                spectra[row] = spectrum
                continue
        try:
            weights, poles = _poles(l_r, rows, starts_r)
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"eigendecomposition of L_h failed: {exc}") from exc
        if holds_rho:  # the starts were projected off the kernel mode:
            weights[np.argmin(np.abs(poles))] = 0.0  # zero its rounding
        spectra[row] = _resolvent_sum(weights, poles, omega_grid, s_r)
    return spectra.reshape(lead + omega_grid.shape)


def _poles(a, rows, starts, gram=None) -> tuple[np.ndarray, np.ndarray]:
    """(weights, poles) with Sum_k rows_k (z - A)^-1 starts_k =
    Sum_n weights[n] / (z - poles[n]): one `eig` A X = X diag(poles), and one
    solve of X (of `gram` X, for an oblique projection) for the amplitudes."""
    poles, vecs = np.linalg.eig(a)
    amp = np.linalg.solve(vecs if gram is None else gram @ vecs, starts)
    return np.sum((rows @ vecs) * amp.T, axis=0), poles


def _reduced_spectrum(l_h, rows, starts, omega_grid, scale):
    """Regression spectrum of L_h from a two-sided Krylov reduced model, or None.

    B = (sigma - L_h)^-1 for the real shift sigma = 0.7 max|w| of the grid.
    A real block Arnoldi builds V, orthonormal, from B and [Re s, Im s] for
    the start vectors s, and W from B^T and [Re r, Im r] for the rows r.
    The oblique projection (W^T V)^-1 W^T L_h V then matches the first 2k
    moments of r^T (z - L_h)^-1 s about sigma at k blocks (Pade via
    Lanczos, Feldmann and Freund 1995), and its `eig` gives the eigenvalues
    and weights that `_resolvent_sum` takes.  Every `_KRYLOV_STEP` blocks
    the spectrum is formed, and it is returned once it agrees with the one
    before to `_KRYLOV_RTOL` of its largest |S|, or at once if Gram-Schmidt
    leaves a new block below `_KRYLOV_BREAKDOWN` of its size: V (or W) then
    spans an invariant subspace, and the model without that block is exact.
    None, for the dense `eig`, at the cap of `_KRYLOV_MAX_BLOCKS` blocks or
    half the rows of L_h, if sigma - L_h, W^T V or the small eigenbasis is
    singular, or at once if sigma exceeds `scale` = max(||L_h||_F, 1): B is
    then close to I / sigma, and every new block would look invariant.
    """
    n = l_h.shape[0]
    sigma = _KRYLOV_SHIFT * np.abs(omega_grid).max()
    if sigma > scale:
        return None
    op = -l_h
    op.flat[::n + 1] += sigma
    try:
        op = np.linalg.inv(op)
    except np.linalg.LinAlgError:
        return None
    first = (np.hstack([starts.real, starts.imag]), np.vstack([rows.real, rows.imag]).T)
    width = first[0].shape[1]
    cap = min(_KRYLOV_MAX_BLOCKS, n // (2 * width)) * width
    v, w, lv = (np.empty((n, cap)) for _ in range(3))
    previous, formed = None, 0  # columns of lv = L_h V formed
    for m in range(0, cap, width):
        end = m + width
        for basis, z, step in ((v, first[0], op), (w, first[1], op.T)):
            if m:
                z = step @ basis[:, m - width:m]
            size = np.linalg.norm(z)
            for _ in range(2):  # block classical Gram-Schmidt, twice
                z = z - basis[:, :m] @ (basis[:, :m].T @ z)
            if m and np.linalg.norm(z) <= _KRYLOV_BREAKDOWN * size:
                end = m  # breakdown: the model at m columns is exact
                break
            basis[:, m:end] = np.linalg.qr(z)[0]
        exact = end == m
        if not exact and (end // width) % _KRYLOV_STEP:
            continue
        lv[:, formed:end] = l_h @ v[:, formed:end]
        formed = end
        try:
            gram = w[:, :end].T @ v[:, :end]
            model = _poles(np.linalg.solve(gram, w[:, :end].T @ lv[:, :end]),
                           rows @ v[:, :end], w[:, :end].T @ starts, gram)
        except np.linalg.LinAlgError:
            return None
        spectrum = _resolvent_sum(*model, omega_grid, scale)
        if exact or previous is not None and np.max(np.abs(spectrum - previous)) <= (
            _KRYLOV_RTOL * np.max(np.abs(spectrum))
        ):
            return spectrum
        previous = spectrum
    return None


def _resolvent_sum(weights, poles, omega_grid, scale: float) -> np.ndarray:
    """S(w_i) = Re Sum_n weights[n] / (-i w_i - poles[n]) on the grid.

    A pole with |Re lambda| below 1e-12 `scale` is undamped, a line of zero
    width: SolverError names it if its weight exceeds 1e-14 of the largest
    (or of 1), wherever the grid lies, and it is dropped otherwise.  The sum
    is then real: with a = Re lambda, t = w + Im lambda and
    D = 1 / (t^2 + a^2), S = D @ (-a Re weights) - (D t) @ Im weights.  It
    runs over slices of `_RESOLVENT_SLICE` grid points in two reused
    (slice, n) float buffers, so no (n_omega, n) array is formed: at
    n_max_y=2 the buffers hold 0.29 MB, and a complex resolvent of the
    whole grid would take 1.8 MB.
    """
    undamped = np.abs(poles.real) < 1e-12 * scale
    live = np.abs(weights) > 1e-14 * max(np.abs(weights).max(), 1.0)
    if np.any(undamped & live):
        n = np.argmax(undamped & live)
        raise SolverError(f"undamped pole lambda = {poles[n]:.6g} has weight "
                          f"{abs(weights[n]):.3e}; every channel needs dissipation")
    weights, poles = weights[~undamped], poles[~undamped]
    a, shift = poles.real, poles.imag
    w_re, w_im = -a * weights.real, weights.imag
    out = np.empty(omega_grid.size)
    t, dens = np.empty((2, min(_RESOLVENT_SLICE, omega_grid.size), a.size))
    for start in range(0, omega_grid.size, _RESOLVENT_SLICE):
        part = omega_grid[start:start + _RESOLVENT_SLICE]
        t_p, d_p = t[:part.size], dens[:part.size]
        np.add.outer(part, shift, out=t_p)
        np.multiply(t_p, t_p, out=d_p)
        d_p += a * a
        np.reciprocal(d_p, out=d_p)
        t_p *= d_p
        out[start:start + part.size] = d_p @ w_re - t_p @ w_im
    return out


def emission_spectrum(
    l_h: np.ndarray,
    lowering_ops,
    rho_ss: np.ndarray,
    omega_grid: np.ndarray,
    block,
) -> np.ndarray:
    """Summed normal-ordered emission spectrum of a sequence of sources.

    Returns Sum_s Re Int_0^inf dt e^{iwt} <s+(0) s(t)>_ss on `omega_grid`
    for the lowering operators s, which is the regression spectrum of the
    pairs (A, B) = (s+, s) evaluated at -w.  With this orientation a
    transition above the laser appears at positive offset, so red/blue
    asymmetries read off the grid directly.  `block` is passed on to
    `regression_spectrum`, with its guards and errors: the odd parity block
    for P-odd sources.  An empty `lowering_ops` raises ConfigurationError.
    """
    ops = [np.asarray(s, dtype=complex) for s in lowering_ops]
    grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    pairs = [(s.conj().T, s) for s in ops]
    return regression_spectrum(l_h, pairs, rho_ss, -grid, block)


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
