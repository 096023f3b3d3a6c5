"""Acoustic-phonon environment in the polaron frame.

The emitter couples to a super-ohmic bath with spectral density

    J(w) = alpha_p * w^3 * exp(-w^2 / (2 w_b^2))

(deformation-potential coupling, Gaussian form-factor cutoff w_b).
`PhononConfig` holds these bath parameters as the `phonon` section of the
configuration reads them, alpha_p in ps^2, and converts alpha_p to 1/ueV^2
for J(w).  `build_kernels` takes it directly.  The polaron transform
absorbs the displacement into the excited levels and leaves two
fingerprints:

* every coherent coupling amplitude is reduced by the thermal Franck-Condon
  factor <B> = exp(-phi(0)/2), and
* a residual scattering term, treated here to second order in the
  fluctuations, built from the bath correlation function

      phi(t) = Int_0^inf dw J(w)/w^2 [coth(w / 2 k_B T) cos(w t) - i sin(w t)].

The biexciton carries `xx_scaling` times the exciton displacement, so a
transition that adds or removes the biexciton sees a relative displacement
of (xx_scaling - 1) exciton units.  With the default xx_scaling = 2 every
drive and cavity coupling term sees exactly one unit and a single phi(t)
covers all of them.

`polaron_dissipator` returns the scattering term as K and the sandwich
pairs that `liouville.liouvillian` takes, written on each displacement
group's raising operator g and on g+ rather than on its quadratures
g + g+ and i (g - g+): the same generator, from half the products of
operator entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, SolverError, check_fields
from .units import K_B_UEV_PER_K, alpha_ps2_to_internal

__all__ = [
    "PhononConfig",
    "build_kernels",
    "polaron_dissipator",
]

_N_NODES = 100  # Gauss-Legendre nodes for tabulating phi(t); converged to 1e-13
_TABLE_HALF_WIDTH = 4000.0  # ueV; Bohr frequencies beyond it take the direct sum
_TABLE_TAIL = 2.0**-60  # Kapteyn bound on |J_n(R t_max)| that sets the table degree


@dataclass(frozen=True)
class PhononConfig:
    """Phonon bath: the `phonon` section of the configuration.

    enable      : include the polaron renormalization and scattering term
    alpha_p     : coupling constant in ps^2 (`alpha_internal` is it in 1/ueV^2)
    omega_b     : Gaussian cutoff in ueV
    temperature : lattice temperature in K
    xx_scaling  : biexciton displacement in units of the exciton one
    """

    enable: bool = True
    alpha_p: float = 0.06
    omega_b: float = 1000.0
    temperature: float = 6.8
    xx_scaling: float = 2.0

    def __post_init__(self):
        check_fields(self, "phonon.")
        if self.alpha_p < 0:
            raise ConfigurationError("phonon alpha_p must be nonnegative")
        if self.omega_b <= 0:
            raise ConfigurationError("phonon omega_b must be positive")
        if self.temperature < 0:
            raise ConfigurationError("phonon temperature must be nonnegative")

    @property
    def alpha_internal(self) -> float:
        """Coupling constant in 1/ueV^2, the unit of J(w) above."""
        return alpha_ps2_to_internal(self.alpha_p)


@dataclass(frozen=True)
class PhononKernels:
    """Tabulated bath correlations used by the scattering term.

    phi_t holds phi on the uniform grid t_grid; bracket_b is the
    single-displacement renormalization.  The kernels also keep the
    Chebyshev tables of `_half_transforms`, one per tuple of displacement
    pairs, each built at its first use.
    """

    params: PhononConfig
    t_grid: np.ndarray
    phi_t: np.ndarray
    bracket_b: float
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def bracket(self, factor: float) -> float:
        """<B> for a transition with the given displacement factor."""
        return self.bracket_b ** (factor * factor)

    def _table(self, pairs: tuple) -> tuple:
        """The `_chebyshev_table` of `pairs`, built on the first call."""
        if pairs not in self._tables:
            self._tables[pairs] = _chebyshev_table(self, pairs)
        return self._tables[pairs]

    def correlations(self, f_a: float, f_b: float) -> tuple[np.ndarray, np.ndarray]:
        """Even/odd second-order bath correlations for a displacement pair.

        Returns (G_g, G_u) on t_grid with
        G_g = <B_a><B_b> (cosh(f_a f_b phi) - 1) and
        G_u = <B_a><B_b> sinh(f_a f_b phi).
        """
        pref = self.bracket(f_a) * self.bracket(f_b)
        ph = self.phi_t * (f_a * f_b)
        return pref * (np.cosh(ph) - 1.0), pref * np.sinh(ph)


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    # nodes and weights on [-1, 1]; an eigensolve, so computed once per
    # process, at the first kernel build rather than at import
    table = np.polynomial.legendre.leggauss(_N_NODES)
    for arr in table:
        arr.setflags(write=False)
    return table


@lru_cache(maxsize=16)
def build_kernels(
    params: PhononConfig,
    t_max: float | None = None,
    n_t: int = 1601,
) -> PhononKernels:
    """Tabulate phi(t) once per parameter set (cached, immutable result).

    The time grid extends to t_max (default 10 / omega_b).  The Gaussian
    cutoff alone does not make phi decay by then: the thermal factor
    coth(w / 2 k_B T) leaves phi(t) a tail that falls off only as k_B T t
    grows, and at T = 0 a tail -alpha_p / t^2.  With omega_b = 1000 ueV,
    |phi(t_max)| is about 2.7e-9 or less from 4 K up, but 2.1e-4 at 1 K and
    1.4e-3 at 0 K, where this raises SolverError ("extend t_max").
    Tabulation uses _N_NODES-point Gauss-Legendre quadrature in omega on
    [0, 12 omega_b], cross-checked against the adaptive scalar integral and
    an 800-node table in the test suite.  The phases e^{i w_n t_k} come from
    `_phase_factors`, so a miss builds two (_N_NODES, ~sqrt(n_t)) tables
    and contracts them with the Re and Im weights in one small product,
    with no (_N_NODES, n_t) table at all.  The kernels keep the Chebyshev
    tables of the half-sided transforms too, each built at the first
    `polaron_dissipator` call that needs it (`_chebyshev_table`): every
    later call, for every row, evaluates the table and forms no
    correlation, and takes phases only for a Bohr frequency beyond the
    table.  At n_max_y=2 a first call takes about 0.46 ms, table included,
    and a later one 0.1 ms; the phases at the Chebyshev points depend on
    the grid alone and are shared by kernels on one grid.  Raises
    ConfigurationError for a t_max that is not positive and finite, and
    SolverError when the correlation has not decayed below 1e-8 at the end
    of the grid.
    """
    if n_t < 3 or n_t % 2 == 0:
        raise ConfigurationError("n_t must be an odd integer >= 3 (Simpson grid)")
    if t_max is None:
        t_max = 10.0 / params.omega_b
    if not 0 < t_max < math.inf:  # nan too
        raise ConfigurationError(f"t_max must be positive and finite, got {t_max!r}")
    t_grid = np.linspace(0.0, t_max, n_t)
    cut = 12.0 * params.omega_b
    nodes, weights = _gauss_legendre()
    w = 0.5 * cut * (nodes + 1.0)
    wts = 0.5 * cut * weights

    a = params.alpha_internal
    gauss = a * w * np.exp(-(w**2) / (2.0 * params.omega_b**2))
    if params.temperature == 0.0:
        thermal = np.ones_like(w)
    else:
        thermal = 1.0 / np.tanh(w / (2.0 * K_B_UEV_PER_K * params.temperature))
    # Sum_n c_n e^{i w_n k h} for the cos weights (Re) and the sin weights (Im)
    big, small = _phase_factors(w, t_max / (n_t - 1), n_t)
    coef = np.stack([wts * gauss * thermal, wts * gauss])
    sums = ((coef[:, None, :] * big.T) @ small).reshape(2, -1)[:, :n_t]
    phi_t = sums[0].real - 1j * sums[1].imag
    if not abs(phi_t[-1]) <= 1e-8:
        raise SolverError(
            f"phonon correlation not converged: |phi({t_max:g})| = "
            f"{abs(phi_t[-1]):.3e} > 1e-8; extend t_max"
        )
    return PhononKernels(params, t_grid, phi_t, math.exp(-0.5 * phi_t[0].real))


def _phase_factors(freqs, h, n_t) -> tuple[np.ndarray, np.ndarray]:
    """Baby-step/giant-step factors of e^{i f k h} for k = 0 .. n_t - 1.

    With k = j m + r and m = isqrt(n_t - 1) + 1 (so m^2 >= n_t),
    e^{i f k h} = big[:, j] * small[:, r], where big[:, j] = e^{i f j m h}
    (j < J = ceil(n_t / m)) and small[:, r] = e^{i f r h} (r < m): about
    2 sqrt(n_t) complex exponentials per frequency instead of n_t cos and
    sin pairs.  The J m - n_t phases past the grid are for the caller to
    drop or to pair with zeros.
    """
    m = math.isqrt(n_t - 1) + 1
    f = 1j * h * freqs
    big = np.exp(np.outer(f * m, np.arange(-(-n_t // m))))
    return big, np.exp(np.outer(f, np.arange(m)))


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _half_transforms(energies, kernels: PhononKernels, pairs) -> np.ndarray:
    """F_j[p, q] = Int_0^t_max dt c_j(t) exp(-i (E_p - E_q) t), by Simpson's rule.

    The c_j are the even and odd correlations (`PhononKernels.correlations`)
    of each displacement pair (f_a, f_b) in `pairs`, in that order.  Entry
    [p, q] is F_j(f) = Sum_k w_k c_j(t_k) e^{i f k h} at f = E_q - E_p.  For
    |f| <= R = 4000 ueV it comes from the Chebyshev table that `kernels`
    keep for `pairs` (`_chebyshev_table`, built on first use): one
    cos(k arccos(f / R)) table for the entries p < q of every row and one
    real product with the coefficients, which gives the mirrors (q, p) at
    -f too, since T_k(-x) = (-1)^k T_k(x).  An entry with |f| > R takes the
    direct sum (`_direct_sums`), and F(0) = Sum w c fills the diagonal.  No
    correlation is formed and no phase is taken per row.  `energies` is
    (d,) for one H or (R, d) for a stack, and the result (C, d, d) or
    (C, R, d, d) for C = 2 len(pairs) correlations, each row equal bit for
    bit to its own call.
    """
    coef, wc, total = kernels._table(tuple((float(a), float(b)) for a, b in pairs))
    dim, c, h = energies.shape[-1], total.size, kernels.t_grid[1]
    p, q = np.triu_indices(dim, 1)
    rows = energies.reshape(-1, dim)
    f = (rows[:, q] - rows[:, p]).ravel()
    x = f / _TABLE_HALF_WIDTH
    cheb = np.outer(np.arccos(np.clip(x, -1.0, 1.0)), np.arange(coef.shape[0]))
    vals = (np.cos(cheb, out=cheb) @ coef).view(complex)  # T_n(x) = cos(n arccos x)
    far = np.flatnonzero(np.abs(x) > 1.0)
    if far.size:
        freqs = np.concatenate([f[far], -f[far]])
        sums = _direct_sums(*_phase_factors(freqs, h, kernels.t_grid.size), wc)
        vals[far] = np.concatenate([sums[:far.size], sums[far.size:]], axis=1)
    vals = vals.reshape(len(rows), p.size, 2 * c).transpose(2, 0, 1)
    out = np.empty((c, len(rows), dim, dim), dtype=complex)
    out[:, :, p, q], out[:, :, q, p] = vals[:c], vals[c:]
    out[:, :, np.arange(dim), np.arange(dim)] = total[:, None, None]
    return out.reshape((c,) + energies.shape[:-1] + (dim, dim))


def _chebyshev_table(kernels: PhononKernels, pairs) -> tuple:
    """(coefficients, weighted correlations, their sums) of `pairs` for
    `_half_transforms`.

    The correlations of `pairs`, Simpson-weighted and zero-padded to the J m
    points of `_phase_factors`, are the (J m, C) array wc, and
    F_j(R x) = Sum_k wc_kj e^{i R x k h} is entire in x, of exponential type
    a = R t_max.  Its Chebyshev coefficients on [-1, 1] are
    a_n = Sum_k wc_kj 2 i^n J_n(R t_k) (a_0 halved), so |a_n| <= 2 Sum |wc_j|
    |J_n(a)| for n >= a, and Kapteyn's inequality
    |J_n(n z)| <= (z e^s / (1 + s))^n, s = sqrt(1 - z^2), bounds that.  The
    degree is the least n >= a where the bound falls below 2^-60, 85 at
    a = 40 (the default grid) and 135 at 80, never a fixed count (Trefethen,
    Approximation Theory and Approximation Practice, SIAM 2013, ch. 8).
    The values at the N = n + 1 (made even) Chebyshev points
    x_j = cos(theta_j), theta_j = pi (j + 1/2) / N, come from direct sums at
    the N / 2 positive points alone (`_chebyshev_nodes`), since F_j(-f) is
    the conjugate of the sum of conj(wc) at f; and in
    a_n = (2 / N) Sum_j F(x_j) cos(n theta_j) the point -x_j = x_(N-1-j)
    enters with the sign (-1)^n.  The coefficients are stored as the real
    view of [a, (-1)^n a], (N, 4 C).
    """
    t = kernels.t_grid
    m = math.isqrt(t.size - 1) + 1  # as in `_phase_factors`
    wc = np.zeros((-(-t.size // m) * m, 2 * len(pairs)), dtype=complex)
    wc[:t.size] = _simpson_weights(t.size, t[1])[:, None] * np.stack(
        [c for f_a, f_b in pairs for c in kernels.correlations(f_a, f_b)], axis=1)
    big, small, cos = _chebyshev_nodes(t[1], t.size)
    sums = _direct_sums(big, small, np.concatenate([wc, wc.conj()], axis=1))
    plus, minus = sums[:, :wc.shape[1]], sums[:, wc.shape[1]:].conj()
    even = np.arange(len(cos))[:, None] % 2 == 0
    coef = np.where(even, cos @ (plus + minus), cos @ (plus - minus))
    coef[0] *= 0.5
    table = (np.concatenate([coef, np.where(even, coef, -coef)], axis=1).view(float),
             wc, wc.sum(axis=0))
    for arr in table:
        arr.setflags(write=False)  # kept and shared by every later call
    return table


@lru_cache(maxsize=4)
def _chebyshev_nodes(h: float, n_t: int) -> tuple:
    """(big, small, cos) of the Chebyshev table on the grid k h, k < n_t.

    big and small are the `_phase_factors` at the N / 2 positive Chebyshev
    points R cos(theta_j) (see `_chebyshev_table`), and cos is the
    (N, N / 2) array cos(n theta_j) / (N / 2).  They depend on the grid
    alone, so kernels that share it (the default t_max at every
    temperature) share them; cached and read-only.
    """
    a = _TABLE_HALF_WIDTH * h * (n_t - 1)
    n = max(math.ceil(a), 1)
    while True:  # Kapteyn's bound on |J_n(a)|, z = a / n
        z = a / n
        s = math.sqrt(1.0 - z * z)
        if n * math.log(z * math.exp(s) / (1.0 + s)) <= math.log(_TABLE_TAIL):
            break
        n += 1
    half = n // 2 + 1
    theta = np.pi * (np.arange(half) + 0.5) / (2 * half)
    table = (*_phase_factors(_TABLE_HALF_WIDTH * np.cos(theta), h, n_t),
             np.cos(np.arange(2 * half)[:, None] * theta) / half)
    for arr in table:
        arr.setflags(write=False)
    return table


def _direct_sums(big, small, wc) -> np.ndarray:
    """Sum_k wc[k] e^{i f k h}, (F, C), from the `_phase_factors` (big, small)
    of the F frequencies f.

    `wc` (J m, C) is zero past the grid: its giant steps are contracted by
    one matrix product and its baby steps by one stacked product, every
    column at once.
    """
    giant = (big @ wc.reshape(big.shape[1], -1)).reshape(len(big), small.shape[1], -1)
    return (small[:, None, :] @ giant)[:, 0]


def polaron_dissipator(
    h_system: np.ndarray,
    coupling_terms,
    kernels: PhononKernels,
) -> tuple[np.ndarray, list]:
    """Second-order polaron-frame scattering term, as K and sandwich pairs.

    Parameters
    ----------
    h_system : full system Hamiltonian (already carrying the renormalized
        couplings); its eigenbasis defines the interaction picture.
    coupling_terms : sequence of (raising_op, displacement_factor) pairs,
        each raising_op the renormalized raising half of one coherent
        coupling term as it appears in h_system.
    kernels : tabulated bath correlations from `build_kernels`.

    The generator is

        L rho = - Sum_m Int_0^inf dt G_m(t) [X_m, X_m(-t) rho] + h.c.

    with X_g = g + g+ the in-phase and X_u = i (g - g+) the out-of-phase
    quadrature of g, the summed raising operators of one displacement
    group, and X_m(-t) evaluated in the eigenbasis of h_system.  Groups
    (plain exciton vs biexciton steps) are handled pairwise with their
    cross-correlations.  With N_m = Int dt G_m X_m(-t) the term is
    K rho + rho K+ + Sum_m (N_m rho X_m + X_m rho N_m+) with
    K = -Sum_m X_m N_m.  It is returned on g and g+ rather than on the
    quadratures: with P = N_g + i N_u and Q = N_g - i N_u,
    N_g rho X_g + N_u rho X_u = P rho g + Q rho g+, so each group gives
    K = -(g P + g+ Q) and the pairs (P, g), (g+, P+), (Q, g+) and (g, Q+),
    each pair followed by its Hermitian mirror.  This is the same
    generator, but each dense P or Q meets only the nonzero entries of g
    or g+, half as many as those of X_m, so `liouvillian` forms half the
    products.  In the eigenbasis of h, P = g (F_g - F_u) + g+ (F_g + F_u)
    and Q = g (F_g + F_u) + g+ (F_g - F_u) entry by entry, with F_g and
    F_u the half-sided transforms of G_g and G_u.  The term preserves
    trace and Hermiticity by construction.

    `h_system` may be a stack (R, d, d) of the Hamiltonians of R rows, each
    raising_op then (R, d, d) or (d, d), shared by the rows; K and the
    pairs come as stacks, each row equal bit for bit to its own call: one
    stacked `eigh`, and the same products per row.
    """
    h = np.asarray(h_system, dtype=complex)
    dim = h.shape[-1]
    if not abs(kernels.phi_t[-1]) <= 1e-8:  # nan too
        raise SolverError("phonon correlation table not converged at its endpoint")

    # group coupling terms by displacement factor
    groups: dict[float, np.ndarray] = {}
    for op, factor in coupling_terms:
        op = np.asarray(op, dtype=complex)
        key = float(factor)
        groups[key] = groups.get(key, np.zeros((dim, dim), dtype=complex)) + op
    if not groups:
        return np.zeros(h.shape, dtype=complex), []

    def adjoint(a):
        return a.conj().swapaxes(-1, -2)

    energies, v = np.linalg.eigh(0.5 * (h + adjoint(h)))
    factors = sorted(groups)
    half_ft = _half_transforms(
        energies, kernels, [(f_a, f_b) for f_a in factors for f_b in factors],
    ).reshape((len(factors), len(factors), 2) + h.shape)
    tilde = [adjoint(v) @ groups[f] @ v for f in factors]  # g in the eigenbasis

    k = np.zeros(h.shape, dtype=complex)
    pairs = []
    for f_a, fts in zip(factors, half_ft):
        # P and Q in the eigenbasis of h, summed over the groups f_b
        p_t = sum(g_t * (f_g - f_u) + adjoint(g_t) * (f_g + f_u)
                  for g_t, (f_g, f_u) in zip(tilde, fts))
        q_t = sum(g_t * (f_g + f_u) + adjoint(g_t) * (f_g - f_u)
                  for g_t, (f_g, f_u) in zip(tilde, fts))
        g = groups[f_a]
        for n_t, x in ((p_t, g), (q_t, adjoint(g))):
            n_op = v @ n_t @ adjoint(v)
            k -= x @ n_op
            pairs += [(n_op, x), (adjoint(x), adjoint(n_op))]
    return k, pairs
