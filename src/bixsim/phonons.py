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
from dataclasses import dataclass
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
    single-displacement renormalization.
    """

    params: PhononConfig
    t_grid: np.ndarray
    phi_t: np.ndarray
    bracket_b: float

    def bracket(self, factor: float) -> float:
        """<B> for a transition with the given displacement factor."""
        return self.bracket_b ** (factor * factor)

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
    with no (_N_NODES, n_t) table at all.  Raises ConfigurationError for a
    t_max that is not positive and finite, and SolverError when the
    correlation has not decayed below 1e-8 at the end of the grid.
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


def _half_transforms(energies, t, corrs) -> np.ndarray:
    """F_j[p, q] = Int_0^t_max dt c_j(t) exp(-i (E_p - E_q) t), by Simpson's rule.

    Each entry is Sum_k w_k c_j(t_k) e^{i f k h} at f = E_q - E_p.  The
    phases of the entries p < q and of their mirrors (q, p) come from one
    `_phase_factors` call at f = -(E_p - E_q) and f = +(E_p - E_q), and
    F(0) = Sum w c fills the diagonal.  The Simpson-weighted correlations,
    zero-padded to J m points, are contracted with the giant steps by one
    matrix product and with the baby steps by an einsum, for every
    correlation at once.  `energies` is (d,) for one H or (R, d) for a
    stack, taken one H at a time: the phase tables of one H (about 170 kB
    at d = 12) stay in cache, where those of 21 at once took 3.6 MB and
    were slower to fill.  The result is (C, d, d) or (C, R, d, d) for C
    correlations.
    """
    dim, n_t, h = energies.shape[-1], t.size, t[1] - t[0]
    p, q = np.triu_indices(dim, 1)
    m = math.isqrt(n_t - 1) + 1  # as in `_phase_factors`
    n_j = -(-n_t // m)
    wc = np.zeros((n_j * m, len(corrs)), dtype=complex)
    wc[:n_t] = _simpson_weights(n_t, h)[:, None] * np.stack(corrs, axis=1)
    out = np.empty((len(corrs),) + energies.shape[:-1] + (dim, dim), dtype=complex)
    rows = out.reshape(len(corrs), -1, dim, dim)  # a view, one H per row
    for r, e in enumerate(energies.reshape(-1, dim)):
        bohr = e[p] - e[q]
        big, small = _phase_factors(np.concatenate([-bohr, bohr]), h, n_t)
        giant = (big @ wc.reshape(n_j, -1)).reshape(big.shape[0], m, -1)
        both = np.einsum("fr,frc->cf", small, giant)
        rows[:, r, p, q] = both[:, :p.size]
        rows[:, r, q, p] = both[:, p.size:]
    out[..., np.arange(dim), np.arange(dim)] = wc.sum(axis=0).reshape(
        (-1,) + (1,) * energies.ndim)
    return out


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
        energies, kernels.t_grid,
        [c for f_a in factors for f_b in factors for c in kernels.correlations(f_a, f_b)],
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
