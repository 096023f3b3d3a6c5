"""Phonon influence functional and polaron scattering term."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.integrate import quad

from kron_oracle import reduced_hamiltonian

from bixsim import system
from bixsim.errors import ConfigurationError, SolverError
from bixsim.hilbert import HilbertSpec
from bixsim.liouville import liouvillian, steady_state, unvec, vec
from bixsim.phonons import PhononConfig, build_kernels, polaron_dissipator
from bixsim.units import K_B_UEV_PER_K, alpha_ps2_to_internal

PARAMS = PhononConfig(alpha_p=0.06, omega_b=1000.0, temperature=6.8)
COLD = replace(PARAMS, temperature=0.0)


# -- adaptive-quadrature oracle of the tabulated kernels ------------------------


def spectral_density(omega, params):
    """J(w) in ueV for w >= 0 (scalar or array)."""
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise ConfigurationError("spectral density defined for omega >= 0")
    out = params.alpha_internal * w**3 * np.exp(-(w**2) / (2.0 * params.omega_b**2))
    return out if out.ndim else float(out)


def _coth_over(x):
    # coth(x) with the 1/x pole kept explicit for small arguments
    if x < 1e-6:
        return 1.0 / x + x / 3.0
    return 1.0 / math.tanh(x)


def _phi_integrands(params):
    a = params.alpha_internal
    wb = params.omega_b
    if params.temperature == 0.0:
        thermal = lambda w: 1.0  # noqa: E731
    else:
        kt2 = 2.0 * K_B_UEV_PER_K * params.temperature

        def thermal(w: float) -> float:
            return _coth_over(w / kt2)

    def weight(w: float) -> float:
        # J(w)/w^2 * coth, finite (-> alpha * 2 k_B T) as w -> 0
        if w == 0.0:
            return a * kt2 / 1.0 if params.temperature > 0 else 0.0
        return a * w * math.exp(-(w * w) / (2.0 * wb * wb)) * thermal(w)

    def odd_weight(w: float) -> float:
        return a * w * math.exp(-(w * w) / (2.0 * wb * wb))

    return weight, odd_weight


def phi(t, params, rtol=1e-8):
    """Bath correlation function phi(t) by adaptive quadrature.

    Real part: Int J/w^2 coth(w/2kT) cos(wt); imaginary part:
    -Int J/w^2 sin(wt).  Raises SolverError when the quadrature cannot
    reach the requested relative tolerance.
    """
    if params.alpha_p == 0.0:
        return 0.0 + 0.0j
    weight, odd_weight = _phi_integrands(params)
    cut = 12.0 * params.omega_b
    scale = params.alpha_internal * params.omega_b**2

    def integrate(f, description):
        val, err = quad(f, 0.0, cut, limit=400, epsabs=1e-13 * scale, epsrel=rtol)
        if err > max(10.0 * rtol * abs(val), 1e-10 * scale):
            raise SolverError(
                f"phonon quadrature did not converge for {description} at t={t:g}: "
                f"value {val:.3e}, error estimate {err:.3e}"
            )
        return val

    re = integrate(lambda w: weight(w) * math.cos(w * t), "Re phi")
    im = -integrate(lambda w: odd_weight(w) * math.sin(w * t), "Im phi")
    return complex(re, im)


def bracket_b(params):
    """Thermal coupling renormalization <B> = exp(-phi(0)/2), in (0, 1]."""
    if params.alpha_p == 0.0:
        return 1.0
    return math.exp(-0.5 * phi(0.0, params).real)


def gauss_legendre_phi(params, t, nodes, weights):
    """phi on the grid t by Gauss-Legendre quadrature, fresh cos and sin tables."""
    cut = 12.0 * params.omega_b
    w = 0.5 * cut * (nodes + 1.0)
    wts = 0.5 * cut * weights
    gauss = params.alpha_internal * w * np.exp(-(w**2) / (2.0 * params.omega_b**2))
    thermal = 1.0 / np.tanh(w / (2.0 * K_B_UEV_PER_K * params.temperature))
    phase = w[None, :] * t[:, None]
    return (np.cos(phase) @ (wts * gauss * thermal)
            + 1j * (-np.sin(phase) @ (wts * gauss)))


# -- dense-table oracles of the polaron scattering term --------------------------


def simpson_weights(t):
    wts = np.ones(t.size)
    wts[1:-1:2] = 4.0
    wts[2:-1:2] = 2.0
    return wts * ((t[1] - t[0]) / 3.0)


def dense_half_transforms(energies, t, corrs):
    """Every F_j[p, q] from full real (d^2, n_t) cos and sin tables."""
    dim = energies.size
    phase = (energies[:, None] - energies[None, :]).reshape(-1, 1) * t[None, :]
    wc = simpson_weights(t)[:, None] * np.stack(corrs, axis=1)
    out = np.cos(phase) @ wc - 1j * (np.sin(phase) @ wc)
    return out.T.reshape(len(corrs), dim, dim)


def complex_exp_n_ops(h, coupling_terms, kernels):
    """(g, N_g, N_u) of each displacement group, from a (d^2, n_t) table of exp(-i w t).

    g is the group's summed raising operator, and N_m = Int dt G_m X_m(-t)
    for its quadratures X_g = g + g+ and X_u = i (g - g+), summed over the
    groups' cross-correlations.  Each half-sided transform is the product
    of that complex phase table with the Simpson-weighted correlation, one
    product per correlation.
    """
    h = np.asarray(h, dtype=complex)
    dim = h.shape[0]
    groups = {}
    for op, factor in coupling_terms:
        groups[float(factor)] = groups.get(float(factor), 0) + np.asarray(op, complex)
    energies, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    bohr = energies[:, None] - energies[None, :]
    t = kernels.t_grid
    wts = simpson_weights(t)
    phase = np.exp(-1j * bohr[:, :, None] * t[None, None, :]).reshape(dim * dim, t.size)
    quads = {f: (c + c.conj().T, 1j * (c - c.conj().T)) for f, c in groups.items()}
    out = []
    for f_a in sorted(groups):
        n_ops = []
        for m in (0, 1):
            n_op = np.zeros((dim, dim), dtype=complex)
            for f_b in sorted(groups):
                corr = kernels.correlations(f_a, f_b)[m]
                half_ft = (phase @ (wts * corr)).reshape(dim, dim)
                n_op += v @ ((v.conj().T @ quads[f_b][m] @ v) * half_ft) @ v.conj().T
            n_ops.append(n_op)
        out.append((groups[f_a], *n_ops))
    return out


def quadrature_polaron_dissipator(h, coupling_terms, kernels):
    """The scattering term on the quadratures: K = -Sum_m X_m N_m and the
    pairs (N_m, X_m), (X_m, N_m+), as the paper's master equation writes it."""
    k, pairs = 0, []
    for g, n_g, n_u in complex_exp_n_ops(h, coupling_terms, kernels):
        for x_m, n_m in ((g + g.conj().T, n_g), (1j * (g - g.conj().T), n_u)):
            k = k - x_m @ n_m
            pairs += [(n_m, x_m), (x_m, n_m.conj().T)]
    return k, pairs


def complex_exp_polaron_dissipator(h, coupling_terms, kernels):
    """K and pairs of `polaron_dissipator`, in its form on g and g+.

    The N_g and N_u of `complex_exp_n_ops` are recombined into
    P = N_g + i N_u and Q = N_g - i N_u: K = -(g P + g+ Q) and the pairs
    (P, g), (g+, P+), (Q, g+), (g, Q+) for each group.
    """
    k, pairs = 0, []
    for g, n_g, n_u in complex_exp_n_ops(h, coupling_terms, kernels):
        for n_op, x in ((n_g + 1j * n_u, g), (n_g - 1j * n_u, g.conj().T)):
            k = k - x @ n_op
            pairs += [(n_op, x), (x.conj().T, n_op.conj().T)]
    return k, pairs


def _polaron_config(n_max_y, xx_scaling):
    """The driven baseline system with phonons, at a nonzero laser detuning."""
    base = system.default_config()
    return replace(
        base,
        drive=replace(base.drive, omega=252.83669951857598),
        phonon=replace(base.phonon, enable=True, xx_scaling=xx_scaling),
        numerics=replace(base.numerics, n_max_y=n_max_y),
        laser_detuning=12.0,
    )


def _polaron_inputs(n_max_y, xx_scaling):
    """H, coupling terms and kernels of the driven baseline system."""
    cfg = _polaron_config(n_max_y, xx_scaling)
    kernels = system._kernels_for(cfg)
    terms = system._coupling_terms(cfg, HilbertSpec(n_max_y), kernels)
    return reduced_hamiltonian(cfg), terms, kernels


def polaron_superop(h, terms, kern):
    """The scattering term as a d^2 x d^2 superoperator."""
    return liouvillian(*polaron_dissipator(h, terms, kern))


def test_spectral_density_shape():
    w = np.linspace(0.0, 4000.0, 8001)
    j = np.array([spectral_density(x, PARAMS) for x in w])
    assert j[0] == 0.0
    assert np.all(j >= 0.0)
    # cubic superohmic density peaks at sqrt(3) omega_b
    assert abs(w[np.argmax(j)] - np.sqrt(3.0) * 1000.0) <= w[1] - w[0]
    with pytest.raises(ConfigurationError):
        spectral_density(-1.0, PARAMS)


def test_phi_zero_time_zero_temperature():
    # closed form: phi(0) = alpha * omega_b^2 at T = 0
    val = phi(0.0, COLD)
    expected = alpha_ps2_to_internal(0.06) * 1000.0**2
    assert val.real == pytest.approx(expected, rel=1e-8)
    assert val.imag == pytest.approx(0.0, abs=1e-12)


def test_phi_zero_time_is_real_and_grows_with_temperature():
    vals = [phi(0.0, replace(PARAMS, temperature=t)).real for t in (0.0, 4.0, 10.0)]
    assert all(v > 0.0 for v in vals)
    assert vals[0] < vals[1] < vals[2]
    assert abs(phi(0.0, PARAMS).imag) < 1e-12


def test_phi_decays_by_cutoff_time():
    assert abs(phi(10.0 / 1000.0, PARAMS)) < 1e-8


def test_bracket_monotone_in_temperature():
    temps = (0.0, 4.0, 10.0, 30.0)
    vals = [bracket_b(replace(PARAMS, temperature=t)) for t in temps]
    assert all(0.0 < v <= 1.0 for v in vals)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert bracket_b(replace(PARAMS, alpha_p=0.0)) == 1.0


def test_kernel_tabulation_matches_quadrature():
    kern = build_kernels(PARAMS, n_t=201)
    idx = [0, 17, 50, 120, 200]
    for k in idx:
        direct = phi(float(kern.t_grid[k]), PARAMS)
        assert kern.phi_t[k] == pytest.approx(direct, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.03, 0.06, 0.12])
@pytest.mark.parametrize("omega_b", [500.0, 1000.0])
@pytest.mark.parametrize("temperature", [4.0, 6.8, 15.0, 30.0])
def test_kernel_node_count_is_converged(temperature, omega_b, alpha):
    # the default table against the adaptive integral and an 800-node table
    params = PhononConfig(alpha_p=alpha, omega_b=omega_b, temperature=temperature)
    kern = build_kernels(params)
    scale = abs(kern.phi_t[0])
    for k in (0, 100, 400, 800, 1600):
        direct = phi(float(kern.t_grid[k]), params)
        assert abs(kern.phi_t[k] - direct) <= 1e-10 * scale
    fine = gauss_legendre_phi(params, kern.t_grid, *np.polynomial.legendre.leggauss(800))
    assert np.max(np.abs(kern.phi_t - fine)) <= 1e-12 * scale


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_cold_bath_has_not_decayed_by_the_default_grid_end(temperature):
    # below a few kelvin phi keeps a slow tail (at T = 0 about -alpha_p / t^2)
    # that the default 10 / omega_b grid cuts off; the build must say so
    params = replace(PARAMS, temperature=temperature)
    assert abs(phi(10.0 / params.omega_b, params)) > 1e-4
    with pytest.raises(SolverError, match="extend t_max"):
        build_kernels(params)


def test_gauss_legendre_table_computed_once_per_process(monkeypatch):
    from bixsim import phonons

    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting_leggauss(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    phonons._gauss_legendre.cache_clear()
    build_kernels.cache_clear()
    for temperature in (4.0, 6.8, 12.0, 20.0):
        build_kernels(replace(PARAMS, temperature=temperature), n_t=201)
    assert build_kernels.cache_info().misses == 4
    assert calls == [phonons._N_NODES]


def test_kernel_table_matches_dense_cos_sin_oracle():
    # the factored phases against full (n_t, n_nodes) cos and sin tables; the
    # grids of 3 and 1603 points pad the last giant step past the grid end
    from bixsim.phonons import _gauss_legendre

    for temperature in (4.0, 6.8, 30.0):
        for omega_b in (500.0, 1000.0):
            for alpha in (0.03, 0.06, 0.12):
                params = PhononConfig(alpha_p=alpha, omega_b=omega_b,
                                      temperature=temperature)
                for n_t in (3, 201, 1601, 1603):
                    kern = build_kernels(params, n_t=n_t)
                    dense = gauss_legendre_phi(params, kern.t_grid, *_gauss_legendre())
                    scale = abs(dense[0])
                    assert np.max(np.abs(kern.phi_t - dense)) <= 1e-14 * scale


def test_kernel_miss_holds_no_dense_phase_table():
    import tracemalloc

    from bixsim import phonons

    phonons._gauss_legendre()  # the node table is built once per process
    n_t = 1601
    table = n_t * phonons._N_NODES * 8
    tracemalloc.start()
    try:
        build_kernels.__wrapped__(PARAMS, n_t=n_t)  # a miss, bypassing the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table  # one dense n_t x n_nodes float table is 1.28 MB


def test_kernel_grid_validation():
    with pytest.raises(ConfigurationError):
        build_kernels(PARAMS, n_t=200)  # needs odd count for Simpson weights
    with pytest.raises(SolverError):
        build_kernels(PARAMS, t_max=5e-4, n_t=201)  # phi has not decayed yet
    # a backwards, empty or non-finite grid is named before it is built
    for t_max in (-0.01, 0.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="t_max must be positive and finite"):
            build_kernels(PARAMS, t_max=t_max, n_t=201)
    # and a table whose endpoint is nan counts as not converged
    kern = build_kernels(PARAMS, n_t=201)
    nan_end = replace(kern, phi_t=np.append(kern.phi_t[:-1], np.nan))
    with pytest.raises(SolverError, match="not converged at its endpoint"):
        polaron_dissipator(*_four_level_setup(), nan_end)


def test_correlations_include_displacement_scaling():
    strong = replace(PARAMS, xx_scaling=3.0)
    kern = build_kernels(strong, n_t=201)
    f = strong.xx_scaling - 1.0  # the biexciton step's displacement jump
    assert f == pytest.approx(2.0)
    g_g, g_u = kern.correlations(1.0, f)
    pref = kern.bracket_b * kern.bracket_b ** (f * f)
    assert np.allclose(g_g, pref * (np.cosh(f * kern.phi_t) - 1.0), rtol=1e-12)
    assert np.allclose(g_u, pref * np.sinh(f * kern.phi_t), rtol=1e-12)
    zero_g, zero_u = kern.correlations(0.0, f)
    assert not np.any(zero_g) and not np.any(zero_u)


def _four_level_setup(eta1=150.0, eta2=180.0):
    h = np.diag([0.0, 965.0, 990.0, 0.0]).astype(complex)
    up_x = np.zeros((4, 4), dtype=complex)
    up_x[2, 0] = 1.0  # raises G to X
    up_xx = np.zeros((4, 4), dtype=complex)
    up_xx[3, 2] = 1.0  # raises X to XX
    h = h + eta1 * (up_x + up_x.conj().T) + eta2 * (up_xx + up_xx.conj().T)
    terms = [(eta1 * up_x, 1.0), (eta2 * up_xx, 1.0)]
    return h, terms


def test_polaron_dissipator_preserves_trace_and_hermiticity():
    kern = build_kernels(PARAMS, n_t=401)
    h, terms = _four_level_setup()
    dis = polaron_superop(h, terms, kern)
    # trace row annihilated
    row = vec(np.eye(4, dtype=complex)).conj().T @ dis
    assert np.max(np.abs(row)) < 1e-10 * max(np.max(np.abs(dis)), 1.0)
    # Hermiticity preserved on random Hermitian inputs
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m + m.conj().T
        out = unvec(dis @ vec(rho))
        assert np.max(np.abs(out - out.conj().T)) < 1e-10 * max(
            np.max(np.abs(out)), 1.0
        )


def test_polaron_dissipator_vanishes_without_coupling():
    kern = build_kernels(replace(PARAMS, alpha_p=0.0), n_t=201)
    h, terms = _four_level_setup()
    dis = polaron_superop(h, terms, kern)
    assert np.max(np.abs(dis)) < 1e-14
    k, pairs = polaron_dissipator(h, [], kern)  # no coupling terms at all
    assert k.shape == h.shape and not k.any() and pairs == []


@pytest.mark.parametrize("xx_scaling", [2.0, 2.5])
@pytest.mark.parametrize("n_max_y", [2, 6])
def test_polaron_transforms_match_complex_exp_oracle(n_max_y, xx_scaling):
    h, terms, kernels = _polaron_inputs(n_max_y, xx_scaling)
    k, pairs = polaron_dissipator(h, terms, kernels)
    k_ref, pairs_ref = complex_exp_polaron_dissipator(h, terms, kernels)
    assert len(pairs) == len(pairs_ref) == (4 if xx_scaling == 2.0 else 8)
    for op, ref in zip([k, *(o for p in pairs for o in p)],
                       [k_ref, *(o for p in pairs_ref for o in p)]):
        assert np.max(np.abs(op - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("xx_scaling", [2.0, 2.5])
@pytest.mark.parametrize("n_max_y", [2, 6])
def test_form_on_g_and_quadrature_form_give_the_same_liouvillian(n_max_y, xx_scaling):
    # P rho g + Q rho g+ = N_g rho X_g + N_u rho X_u, mirrored, and
    # g P + g+ Q = X_g N_g + X_u N_u: the same whole L from half the products
    h, terms, kernels = _polaron_inputs(n_max_y, xx_scaling)
    got = liouvillian(*polaron_dissipator(h, terms, kernels))
    want = liouvillian(*quadrature_polaron_dissipator(h, terms, kernels))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_max_y", [2, 6])
def test_half_transforms_match_dense_cos_sin_tables(n_max_y):
    from bixsim.phonons import _half_transforms

    h, _, kernels = _polaron_inputs(n_max_y, 2.5)
    energies = np.linalg.eigvalsh(h)
    corrs = [c for f_b in (1.0, 1.5) for c in kernels.correlations(1.0, f_b)]
    got = _half_transforms(energies, kernels.t_grid, corrs)
    ref = dense_half_transforms(energies, kernels.t_grid, corrs)
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))


def test_polaron_dissipator_peak_memory():
    # the phase factors are (756, 41) complex at n_max_y=6; a real cos table
    # over the pairs p < q alone is 378 x 1601 float64 (4.8 MB)
    import tracemalloc

    h, terms, kernels = _polaron_inputs(6, 2.0)
    tracemalloc.start()
    try:
        polaron_dissipator(h, terms, kernels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_phonon_parity_blocks_peak_memory():
    # both parity blocks of the phonon-on generator at n_max_y=6, 31,664 and
    # 32,344 products on g and g+: a (4, N) index and one (4, N) float weight
    # buffer, and one block-sized sum at a time, 4.4 MB in all; complex
    # weights with both sums held take 8.2 MB, and on top of that the
    # 51,928 and 53,056 products of the pairs on the quadratures 11.9 MB
    import tracemalloc

    k, pairs = system._generator(_polaron_config(6, 2.0))
    blocks = HilbertSpec(6).parity_blocks()
    tracemalloc.start()
    try:
        for block in blocks:
            liouvillian(k, pairs, block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_polaron_dissipator_damps_dressed_coherences():
    # the scattering term must relax the driven system toward the dressed
    # basis: adding it to a purely coherent evolution creates decay
    kern = build_kernels(PARAMS, n_t=401)
    h, terms = _four_level_setup()
    dis = polaron_superop(h, terms, kern)
    evals = np.linalg.eigvals(dis)
    assert evals.real.min() < -1e-3  # some channels genuinely dissipate
    assert evals.real.max() < 1e-10  # none amplify


# -- physical limits of the scattering term --------------------------------------


def kms_deviation(params, t_max=None, n_t=1601):
    """Worst relative deviation of S(w) / S(-w) from exp(w / k_B T), 50-2000 ueV.

    S(w) = 2 Re[F_g + F_u] is the full transform of the bath correlation
    <B>^2 (e^phi - 1), taken from `_half_transforms`, whose entry [p, q]
    is at w = E_q - E_p.
    """
    from bixsim.phonons import _half_transforms

    kernels = build_kernels(params, t_max=t_max, n_t=n_t)
    w = np.arange(50.0, 2001.0, 50.0)
    f_g, f_u = _half_transforms(np.concatenate(([0.0], w)), kernels.t_grid,
                                list(kernels.correlations(1.0, 1.0)))
    s = 2.0 * (f_g + f_u).real
    ratio = s[0, 1:] / s[1:, 0]
    return np.max(np.abs(ratio * np.exp(-w / (K_B_UEV_PER_K * params.temperature)) - 1.0))


@pytest.mark.parametrize("temperature", [6.8, 20.0])
def test_kernels_obey_detailed_balance(temperature):
    # the KMS condition of a thermal bath; a sign or orientation slip in phi,
    # the kernels or the half transforms breaks it at order one.  Measured:
    # 5.0e-12 at 6.8 K, 1.9e-14 at 20 K
    assert kms_deviation(replace(PARAMS, temperature=temperature)) < 1e-11


def test_detailed_balance_at_4_kelvin_is_set_by_the_grid_end():
    # at 4 K phi(t) decays more slowly and the default grid cuts it at
    # |phi(t_max)| = 2.7e-9, which leaves 1.1e-6 in the ratio at 1850 ueV;
    # twice the grid length (|phi| = 1.3e-15) brings it to 1.4e-12
    cold = replace(PARAMS, temperature=4.0)
    assert kms_deviation(cold) < 1e-5
    t_max = 20.0 / cold.omega_b
    assert kms_deviation(cold, t_max=t_max, n_t=3201) < 1e-11


def _thermalization_config(gamma):
    """G-X alone, driven on resonance by eta1 = 50 ueV, all decay rates gamma."""
    base = system.default_config()
    rates = {f.name: 0.0 for f in fields(base.rates) if f.name.startswith("dephasing")}
    rates.update(gamma_x_g=gamma, gamma_y_g=gamma, gamma_xx_x=gamma, gamma_xx_y=gamma)
    return replace(
        base,
        energies=replace(base.energies, omega_x=0.0),
        couplings=replace(base.couplings, g1y=0.0, g2y=0.0),
        rates=replace(base.rates, **rates),
        drive=system.DriveConfig(eta1=50.0, eta2=0.0),
        numerics=replace(base.numerics, n_max_y=0),
        laser_detuning=0.0,
    )


def test_phonons_thermalize_the_dressed_states():
    # once phonon scattering outweighs decay, the dressed states
    # (|G> +- |X>)/sqrt(2), split by Delta = 2 <B> eta1 = 88.37 ueV, fill in
    # the Boltzmann ratio exp(-Delta / k_B T) (McCutcheon & Nazir, New J.
    # Phys. 12, 113042 (2010)); decay perturbs it at O(gamma).  Measured:
    # 2.33e-2, 2.68e-3 and 2.72e-4 at gamma = 0.56, 0.056 and 0.0056 ueV
    spec = HilbertSpec(0)
    even, _ = spec.parity_blocks()
    g, x = spec.index("G", 0), spec.index("X", 0)
    deviations = []
    for gamma in (0.56, 0.056, 0.0056):
        cfg = _thermalization_config(gamma)
        rho = steady_state(liouvillian(*system._generator(cfg), even),
                           kernel_rtol=cfg.numerics.steady_rtol, block=even)
        coherence = rho[g, x].real
        p_hi = 0.5 * (rho[g, g] + rho[x, x]).real + coherence  # (|G> + |X>)/sqrt(2)
        p_lo = 0.5 * (rho[g, g] + rho[x, x]).real - coherence
        delta = 2.0 * system._kernels_for(cfg).bracket_b * 50.0
        assert delta == pytest.approx(88.37, abs=0.01)
        boltzmann = math.exp(-delta / (K_B_UEV_PER_K * cfg.phonon.temperature))
        deviations.append(abs(p_hi / p_lo / boltzmann - 1.0))
    for larger, smaller in zip(deviations, deviations[1:]):
        assert 8.0 < larger / smaller < 12.0  # tenfold per decade of gamma
    assert deviations[-1] < 5e-4


def test_params_validation():
    with pytest.raises(ConfigurationError, match="alpha_p"):
        PhononConfig(alpha_p=-0.01)
    with pytest.raises(ConfigurationError, match="omega_b"):
        PhononConfig(omega_b=0.0)
    for enable in (True, False):
        with pytest.raises(ConfigurationError, match="temperature"):
            PhononConfig(enable=enable, temperature=-1.0)
    # NaN passes every "< 0" check, so it is rejected by name first
    for name in ("alpha_p", "omega_b", "temperature", "xx_scaling"):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
                PhononConfig(**{name: bad})
