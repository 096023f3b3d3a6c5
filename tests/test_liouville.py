"""Oracle tests for the superoperator layer on small hand-checkable systems."""

import re

import numpy as np
import pytest
from scipy.integrate import simpson, trapezoid
from scipy.linalg import expm

from kron_oracle import (
    broadcast_resolvent_sum,
    complex_regression_spectra,
    complex_steady_state,
    gather_liouvillian,
    generator_superop,
    hamiltonian_superop,
    hermitian_basis_matrix,
    sandwich,
    spost,
    spre,
    svd_steady_state,
)

from bixsim.errors import ConfigurationError, SolverError
from bixsim.liouville import (
    SpectrumResult,
    _from_hermitian,
    _hermitian_basis,
    _resolvent_sum,
    emission_spectrum,
    lindblad_generator,
    liouvillian,
    regression_spectrum,
    solver_hygiene,
    steady_state,
    unvec,
    vec,
)

SIGMA = np.array([[0.0, 1.0], [0.0, 0.0]])  # |g><e|
# grids the spectrum path rejects besides the empty one: a NaN or inf point
# would give a NaN entry silently, a 2-D grid a numpy broadcast error
BAD_GRIDS = (np.array([0.0, np.nan, 1.0]), np.array([0.0, np.inf]),
             np.linspace(-1.0, 1.0, 6).reshape(2, 3))
ALL = np.arange(4)  # every vec index of a 2 x 2 rho, as one block


def propagate(liouv, rho0, t):
    """Evolve rho0 for time t under L by dense matrix exponential."""
    return unvec(expm(np.asarray(liouv) * t) @ vec(rho0))


def validate_density_matrix(rho, hermit_tol=1e-10, trace_tol=1e-10, eig_floor=-1e-8):
    """Raise SolverError unless rho is Hermitian, unit trace and positive.

    Small negative eigenvalues above `eig_floor` are tolerated as numerical
    noise.
    """
    rho = np.asarray(rho, dtype=complex)
    herm = np.linalg.norm(rho - rho.conj().T)
    if herm > hermit_tol:
        raise SolverError(f"density matrix not Hermitian: deviation {herm:.3e}")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > trace_tol:
        raise SolverError(f"density matrix trace {tr!r} deviates from 1")
    w = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if w.min() < eig_floor:
        raise SolverError(f"density matrix eigenvalue {w.min():.3e} below floor")


def driven_tls(delta, eta, gamma, block=None):
    h = np.array([[0.0, eta], [eta, delta]], dtype=complex)
    return liouvillian(*lindblad_generator(h, [(SIGMA, gamma)]), block)


def test_vec_unvec_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.array_equal(unvec(vec(m)), m)
    for bad in (np.zeros(5), np.zeros((2, 8))):
        with pytest.raises(ConfigurationError, match="not a perfect square"):
            unvec(bad)


def test_superop_identities():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(unvec(spre(a) @ vec(rho)), a @ rho)
    assert np.allclose(unvec(spost(b) @ vec(rho)), rho @ b)
    assert np.allclose(unvec(sandwich(a, b) @ vec(rho)), a @ rho @ b)


def test_free_decay_rates():
    # exact: populations decay at gamma, coherences at gamma/2
    gamma = 0.7
    liouv = liouvillian(*lindblad_generator(np.zeros((2, 2)), [(SIGMA, gamma)]))
    rho0 = np.array([[0.3, 0.4 - 0.1j], [0.4 + 0.1j, 0.7]], dtype=complex)
    for t in (0.3, 1.0, 4.0):
        rho = propagate(liouv, rho0, t)
        assert rho[1, 1] == pytest.approx(0.7 * np.exp(-gamma * t), rel=1e-10)
        assert rho[0, 1] == pytest.approx(
            (0.4 - 0.1j) * np.exp(-gamma * t / 2), rel=1e-10
        )
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)


def test_driven_steady_state_matches_bloch_formula():
    rng = np.random.default_rng(2)
    for _ in range(25):
        delta = rng.uniform(-5, 5)
        eta = rng.uniform(0.1, 3.0)
        gamma = rng.uniform(0.2, 2.0)
        rho = steady_state(driven_tls(delta, eta, gamma))
        expected = eta**2 / (delta**2 + gamma**2 / 4 + 2 * eta**2)
        assert rho[1, 1].real == pytest.approx(expected, rel=1e-9)


def test_liouvillian_spectrum_matches_bloch_matrix():
    # the 3 nonzero Liouvillian eigenvalues equal those of the Bloch matrix
    delta, eta, gamma = 1.3, 0.8, 0.5
    liouv = driven_tls(delta, eta, gamma)
    bloch = np.array(
        [
            [-gamma / 2.0, delta, 0.0],
            [-delta, -gamma / 2.0, -2.0 * eta],
            [0.0, 2.0 * eta, -gamma],
        ]
    )
    lam_l = np.linalg.eigvals(liouv)
    lam_b = np.linalg.eigvals(bloch)
    lam_l = lam_l[np.argsort(np.abs(lam_l))][1:]  # drop the zero
    # pair by imaginary part (0, +-2.06): the conjugate pair shares its real
    # part, so sorting by real part first would pair them by rounding noise
    assert np.allclose(lam_b[np.argsort(lam_b.imag)], lam_l[np.argsort(lam_l.imag)],
                       atol=1e-10)


def test_hamiltonian_superop_unitary_evolution():
    h = np.array([[0.0, 0.4], [0.4, 1.0]], dtype=complex)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    t = 2.5
    u = expm(-1j * h * t)
    for liouv in (hamiltonian_superop(h), liouvillian(-1j * h, ())):
        rho = propagate(liouv, rho0, t)
        assert np.allclose(rho, u @ rho0 @ u.conj().T, atol=1e-12)


def test_propagation_preserves_density_matrix():
    liouv = driven_tls(0.7, 1.1, 0.4)
    rho0 = np.array([[0.2, 0.1j], [-0.1j, 0.8]], dtype=complex)
    for t in (0.1, 1.0, 10.0):
        rho = propagate(liouv, rho0, t)
        validate_density_matrix(rho)


def test_steady_state_requires_unique_kernel():
    # a dark third level decoupled from the decay makes the kernel 2d
    sig = np.zeros((3, 3))
    sig[0, 1] = 1.0
    liouv = liouvillian(*lindblad_generator(np.zeros((3, 3)), [(sig, 1.0)]))
    with pytest.raises(SolverError, match="kernel"):
        steady_state(liouv)
    # a bound outside (0, 1) is refused before any solve: the certificate
    # never exceeds 1, and a bound at or below 0 would pass a singular M
    for rtol in (0.0, -1e-10, 1.0, 2.0, np.nan):
        with pytest.raises(ConfigurationError, match="kernel_rtol must be above 0"):
            steady_state(liouv, kernel_rtol=rtol)
    # an all-zero L, whole or as a block, raises before any solve
    for l_h, block in [(np.zeros((4, 4)), None), (np.zeros((2, 2)), EVEN)]:
        with pytest.raises(SolverError, match="Liouvillian is identically zero"):
            steady_state(l_h, block=block)


def test_lindblad_rejects_negative_rate():
    from bixsim.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="negative dissipation rate"):
        lindblad_generator(np.zeros((2, 2)), [(SIGMA, -0.1)])
    # nan < 0 is False, so a nan rate used to reach steady_state
    for rate in (np.nan, np.inf):
        with pytest.raises(ConfigurationError, match="non-finite dissipation rate"):
            lindblad_generator(np.zeros((2, 2)), [(SIGMA, rate)])


def test_lindblad_generator_rejects_non_hermitian_hamiltonian():
    from bixsim.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="not Hermitian"):
        lindblad_generator(np.array([[0.0, 1.0], [0.0, 0.0]]), [(SIGMA, 0.1)])
    # a stack of H fails if one row does; a zero H is Hermitian
    with pytest.raises(ConfigurationError, match="not Hermitian"):
        lindblad_generator(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]), [(SIGMA, 0.1)])
    assert lindblad_generator(np.zeros((2, 2, 2)), [(SIGMA, 0.1)])[0].shape == (2, 2, 2)


def test_regression_spectrum_against_time_integration():
    # resolvent form vs direct integration of exp(L tau)
    eta, gamma = 0.9, 0.6
    liouv = driven_tls(0.0, eta, gamma)
    rho = steady_state(liouv)
    grid = np.linspace(-4.0, 4.0, 41)
    l_h = driven_tls(0.0, eta, gamma, ALL)
    s_res = regression_spectrum(l_h, [(SIGMA.conj().T, SIGMA)], rho, grid, ALL)

    start = SIGMA @ rho - np.trace(SIGMA @ rho) * rho
    taus = np.linspace(0.0, 120.0, 24001)
    corr = np.empty(taus.size, dtype=complex)
    step = expm(liouv * (taus[1] - taus[0]))
    v = vec(start)
    for k, _ in enumerate(taus):
        corr[k] = np.trace(SIGMA.conj().T @ unvec(v))
        v = step @ v
    s_time = np.array(
        [np.real(simpson(np.exp(1j * w * taus) * corr, x=taus)) for w in grid]
    )
    assert np.max(np.abs(s_res - s_time)) < 1e-6 * np.max(np.abs(s_res))


def test_mollow_triplet_structure():
    eta, gamma = 2.0, 0.25
    liouv = driven_tls(0.0, eta, gamma)
    rho = steady_state(liouv)
    grid = np.linspace(-8.0, 8.0, 1601)
    s = emission_spectrum(driven_tls(0.0, eta, gamma, ALL), [SIGMA], rho, grid, ALL)
    assert np.all(np.isfinite(s))
    assert np.all(np.isreal(s))
    # sidebands sit at +-2 eta, symmetric without phonons
    step = grid[1] - grid[0]
    upper = grid[np.argmax(np.where(grid > 1.0, s, -np.inf))]
    lower = grid[np.argmax(np.where(grid < -1.0, s, -np.inf))]
    assert abs(upper - 2.0 * eta) <= step
    assert abs(lower + 2.0 * eta) <= step
    i_up = s[np.searchsorted(grid, upper)]
    i_lo = s[np.searchsorted(grid, lower)]
    assert i_up == pytest.approx(i_lo, rel=1e-6)
    # total incoherent emission is positive
    assert trapezoid(s, grid) > 0.0


def test_spectrum_requires_damping():
    h = np.diag([0.0, 1.0]).astype(complex)
    l_h = liouvillian(-1j * h, (), ALL)
    rho = np.diag([0.4, 0.6]).astype(complex)
    grid = np.linspace(-2.0, 2.0, 21)  # includes the undamped Bohr frequency
    with pytest.raises(SolverError, match="dissipation"):
        regression_spectrum(l_h, [(SIGMA.conj().T, SIGMA)], rho, grid, ALL)


def test_spectrum_rejects_nonstationary_state():
    # on every block that holds rho_ss: all vec indices of a driven two-level
    # system, and the even block of the pumped one (defined below); and on a
    # stack of two rows of which only the second has a non-stationary rho_ss
    rho_bad = np.diag([1.0, 0.0]).astype(complex)
    grid = np.linspace(-2.0, 2.0, 11)
    sz = np.diag([1.0, -1.0])
    l_tls = driven_tls(0.0, 1.0, 0.5, ALL)
    rho_tls = steady_state(l_tls, block=ALL)
    for l_h, block, pair, rho in [
        (l_tls, ALL, (SIGMA.conj().T, SIGMA), rho_bad),
        (liouvillian(*pumped_tls(), EVEN), EVEN, (sz, sz), rho_bad),
        (np.stack([l_tls, l_tls]), ALL, (SIGMA.conj().T, SIGMA), np.stack([rho_tls, rho_bad])),
    ]:
        with pytest.raises(SolverError, match="rho_ss is not a steady state"):
            regression_spectrum(l_h, [pair], rho, grid, block)


def test_solver_hygiene_report():
    liouv = driven_tls(0.3, 1.0, 0.5)
    rho = steady_state(liouv)
    rep = solver_hygiene(liouv, rho)
    assert rep["trace_error"] < 1e-12
    assert rep["hermiticity"] < 1e-12
    assert rep["residual"] < 1e-9
    assert rep["min_eigenvalue"] > -1e-8


# -- block solves on synthetic block-diagonal Liouvillians ----------------------
# A two-level system with P = diag(1, -1): populations (vec indices 0, 3) form
# the even block, coherences (1, 2) the odd one.  H diagonal and jump operators
# sigma, sigma+ flip or keep P, so these generators are block diagonal.
EVEN, ODD = np.array([0, 3]), np.array([1, 2])


def pumped_tls(delta=0.7, gamma=0.6, pump=0.25, pump_op=SIGMA.T):
    """K and sandwich pairs of a decaying, incoherently pumped two-level system."""
    h = np.diag([0.0, delta]).astype(complex)
    return lindblad_generator(h, [(SIGMA, gamma), (pump_op, pump)])


def test_block_path_matches_full_space_on_symmetric_tls():
    k, pairs = pumped_tls()
    liouv = liouvillian(k, pairs)
    rho_full = steady_state(liouv)
    rho_block = steady_state(liouvillian(k, pairs, EVEN), block=EVEN)
    assert np.max(np.abs(rho_block - rho_full)) < 1e-14
    assert rho_block[0, 1] == 0.0 and rho_block[1, 0] == 0.0
    grid = np.linspace(-3.0, 3.0, 61)
    s_full = emission_spectrum(liouvillian(k, pairs, ALL), [SIGMA], rho_full, grid, ALL)
    s_block = emission_spectrum(liouvillian(k, pairs, ODD), [SIGMA], rho_block, grid, ODD)
    assert np.max(np.abs(s_block - s_full)) < 1e-12 * np.max(s_full)
    # the spectrum functions take only the real L_h of a block: the whole
    # complex L is refused, with a block of another size or of its own
    for block in (ODD, ALL):
        with pytest.raises(ConfigurationError, match=r"restricted to the block .*"
                                                     r"liouvillian\(k, pairs, block\)"):
            emission_spectrum(liouv, [SIGMA], rho_block, grid, block)


def test_even_block_kernel_must_be_one_dimensional():
    # a dark third level: with P = diag(1, -1, 1) the decay |0><1| is odd, and
    # the even block (vec indices 0, 2, 4, 6, 8) keeps rho_00 and rho_22
    # stationary (rho_02 rotates at 0.3)
    sig = np.zeros((3, 3))
    sig[0, 1] = 1.0
    k, pairs = lindblad_generator(np.diag([0.0, 1.0, 0.3]), [(sig, 1.0)])
    even = [0, 2, 4, 6, 8]
    l_even = liouvillian(k, pairs, even)  # builds: the generator keeps P
    with pytest.raises(SolverError, match="not unique: Liouvillian kernel dimension 2"):
        steady_state(l_even, block=even)


def two_cluster_rates(eps):
    """Populations of two fast pairs {0, 1} and {2, 3} joined by the slow
    link 1 <-> 2 at rate eps.  To first order in eps, ||L_h||_F = 2 sqrt(2)
    and the trace-row matrix M has sigma_min(M) = eps / sqrt(2): the null
    vector (1, 1, -1, -1) / 2 of M at eps = 0 meets the left one
    (0, 0, 1, 1) / sqrt(2) through the link.  So the certificate
    sigma_min(M) / ||L_h||_F is eps / 4."""
    rates = np.zeros((4, 4))
    rates[0, 1] = rates[1, 0] = rates[2, 3] = rates[3, 2] = 1.0
    rates[1, 2] = rates[2, 1] = eps
    return rates - np.diag(rates.sum(axis=0))  # columns sum to zero


# the diagonal of a 4 x 4 rho, a block closed under rho -> rho+ on which
# L_h is the classical rate matrix
POPULATIONS = np.array([0, 5, 10, 15])


@pytest.mark.parametrize("factor", [2.0, 0.5, 0.0], ids=["above", "below", "2d-kernel"])
def test_kernel_gap_near_steady_rtol(factor):
    # the certificate reads sigma_min(M) / ||L|| for the trace-row matrix M,
    # whose row 0 is ||L|| = max(||L_h||_F, 1) on every population; a link
    # eps = 4 factor rtol puts it at factor * rtol, which the SVD oracle
    # checks, and at 0 the clusters are apart and the kernel two-dimensional
    rtol = 1e-10
    l_h = two_cluster_rates(4.0 * factor * rtol)
    scale = max(np.linalg.norm(l_h), 1.0)
    m = l_h.copy()
    m[0] = scale
    sigma_min = np.linalg.svd(m, compute_uv=False)[-1]
    assert sigma_min / scale == pytest.approx(factor * rtol, rel=1e-6, abs=1e-15)
    rho_svd, _ = svd_steady_state(l_h, POPULATIONS, 4)
    if factor > 1.0:
        rho = steady_state(l_h, kernel_rtol=rtol, block=POPULATIONS)
        assert np.max(np.abs(rho - np.diag([0.25] * 4))) < 1e-6
        assert np.max(np.abs(rho - rho_svd)) < 1e-6
    else:
        with pytest.raises(SolverError, match="steady state is not unique"):
            steady_state(l_h, kernel_rtol=rtol, block=POPULATIONS)


def test_steady_state_needs_a_kernel():
    # a loss from every population leaves no kernel; M is regular, but its
    # solution misses the row it replaced
    l_h = two_cluster_rates(0.3) - 0.1 * np.eye(4)
    with pytest.raises(SolverError, match="no steady state found"):
        steady_state(l_h, block=POPULATIONS)
    assert np.linalg.svd(l_h, compute_uv=False)[-1] > 0.09


def test_odd_block_kernel_raises():
    # the even block has a unique kernel, the odd one a zero eigenvalue that
    # the even-block solve cannot see: [[-1, 1], [1, -1]] on (rho_10, rho_01)
    # maps them to (rho_01 - rho_10, rho_10 - rho_01), conjugates when the
    # inputs are; in the Hermitian basis it is diag(0, -2)
    k, pairs = pumped_tls()
    rho = steady_state(liouvillian(k, pairs, EVEN), block=EVEN)
    grid = np.linspace(-3.0, 3.0, 61)
    t = hermitian_basis_matrix(ODD, 2)
    odd_block = (t @ np.array([[-1.0, 1.0], [1.0, -1.0]]) @ t.conj().T).real
    assert np.array_equal(np.round(odd_block, 15), np.diag([0.0, -2.0]))
    with pytest.raises(SolverError, match="a block without rho_ss has a kernel"):
        emission_spectrum(odd_block, [SIGMA], rho, grid, ODD)


def test_block_breaking_hermiticity_raises_and_names_the_entry():
    # the pair (|0><0|, -2 |1><1|) damps rho_01 but not rho_10, so it maps a
    # Hermitian rho to a non-Hermitian one; L_h of the odd block then has the
    # entry +-i.  Building the block raises, and so does a whole L in vec
    # entries given to the solver
    damp = [(np.diag([1.0, 0.0]), np.diag([0.0, -2.0]))]
    assert np.array_equal(liouvillian(np.zeros((2, 2)), damp)[np.ix_(ODD, ODD)],
                          np.diag([0.0, -2.0]))
    with pytest.raises(
        SolverError,
        match=r"L does not preserve Hermiticity: \|Im L_h\[0, 1\]\| = 1\.000e\+00",
    ):
        liouvillian(np.zeros((2, 2)), damp, ODD)
    with pytest.raises(SolverError, match="does not preserve Hermiticity"):
        steady_state(np.diag([0.0, 1.0, -1.0, 0.0]))


def test_resolvent_guard_on_undamped_odd_block():
    # unique kernel, but the coherences are undamped at omega = +-0.7
    # (rho_10, rho_01) rotate at +-0.7 without decay: diag(0.7i, -0.7i) in
    # vec entries, [[0, 0.7], [-0.7, 0]] in the Hermitian basis
    k, pairs = pumped_tls(delta=0.7)
    rho = steady_state(liouvillian(k, pairs, EVEN), block=EVEN)
    undamped = np.array([[0.0, 0.7], [-0.7, 0.0]])
    # the first grid holds +-0.7; the others miss it, and the pole raises all
    # the same instead of leaving a spectrum of zeros
    for grid in (np.linspace(-1.4, 1.4, 5), np.linspace(-1.4, 1.4, 6),
                 np.linspace(-1.3, 1.3, 101)):
        with pytest.raises(SolverError, match=r"undamped pole lambda = .*0\.7j"):
            emission_spectrum(undamped, [SIGMA], rho, grid, ODD)


def test_undamped_mode_without_weight_on_the_grid_is_dropped():
    # the pumped two-level system on levels 0, 1 of four, P = (1, -1, 1, -1);
    # levels 2 and 3 stay empty and nothing damps their coherence, so the
    # odd block has the undamped eigenvalues +-0.5i (rho_23, rho_32).  The
    # grid holds +-0.5 exactly, but s rho_ss has no weight there: the
    # spectrum stays finite and equals the two-level one
    sig = np.zeros((4, 4))
    sig[0, 1] = 1.0
    h = np.diag([0.0, 1.0, 0.3, 0.8])
    k, pairs = lindblad_generator(h, [(sig, 1.0), (sig.T, 0.5)])
    odd = parity_blocks_4()[1]
    rho = np.diag([2.0, 1.0, 0.0, 0.0]).astype(complex) / 3.0
    grid = np.linspace(-1.0, 1.0, 9)
    l_odd = liouvillian(k, pairs, odd)
    evals = np.linalg.eigvals(l_odd)
    assert np.min(np.abs(evals - 0.5j)) < 1e-15
    got = emission_spectrum(l_odd, [sig], rho, grid, odd)
    k2, pairs2 = pumped_tls(delta=1.0, gamma=1.0, pump=0.5)
    rho2 = steady_state(liouvillian(k2, pairs2, EVEN), block=EVEN)
    assert np.max(np.abs(rho2 - rho[:2, :2])) < 1e-15
    want = emission_spectrum(liouvillian(k2, pairs2, ODD), [SIGMA], rho2, grid, ODD)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
    # the sum itself: a weight of 1e-20 on an eigenvalue that meets the grid
    # exactly is dead, so its entry is dropped rather than divided by zero
    weights, evals = np.array([1.0, 1e-20, 1e-3]), np.array([-1.0, 0.5j, -2.0])
    got = _resolvent_sum(weights, evals, grid, 1.0)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - broadcast_resolvent_sum(weights, evals, grid, 1.0))) <= 1e-15
    want = (1.0 / (-1j * grid + 1.0) + 1e-3 / (-1j * grid + 2.0)).real
    assert np.max(np.abs(got - want)) <= 1e-15


def test_block_coupling_raises_and_names_the_entry():
    # a pump jump operator of mixed parity: its even entry |0><0| makes
    # c rho c+ feed rho_10 from rho_00, coupling the blocks
    mixed = SIGMA.T + 1e-6 * np.diag([1.0, 0.0])
    k, pairs = pumped_tls(pump_op=mixed)
    for block in (EVEN, ODD):
        with pytest.raises(SolverError, match=r"\|A_1\[0, 0\]\| = 5\.000e-07 keeps P"):
            liouvillian(k, pairs, block)
    liouv = liouvillian(k, pairs)
    assert abs(liouv[1, 0]) == pytest.approx(0.25e-6)
    rho = steady_state(liouv)  # the full-space solve does not need the symmetry
    assert abs(rho[1, 0]) > 0.0


def test_start_vector_outside_block_raises():
    # sigma_z keeps P, so sigma_z rho_ss lies in the even block
    k, pairs = pumped_tls()
    rho = steady_state(liouvillian(k, pairs, EVEN), block=EVEN)
    sz = np.diag([1.0, -1.0])
    with pytest.raises(SolverError, match="start vector 1 .* outside the block"):
        regression_spectrum(
            liouvillian(k, pairs, ODD), [(SIGMA.T, SIGMA), (sz, sz)], rho, [0.5], ODD
        )


def test_steady_state_rejects_a_block_without_the_diagonal():
    # the odd block holds no diagonal entry of rho, an unsorted even block
    # does not say where each kernel entry goes, and an empty block holds
    # nothing; all raise before any solve, as do an empty and a 0-d whole L
    k, pairs = pumped_tls()
    with pytest.raises(SolverError, match="holding every diagonal entry"):
        steady_state(liouvillian(k, pairs, ODD), block=ODD)
    flipped = EVEN[::-1]
    for l_h, block in [(liouvillian(k, pairs, flipped), flipped),
                       (np.zeros((0, 0)), [])]:
        with pytest.raises(SolverError, match="must be sorted vec indices"):
            steady_state(l_h, block=block)
    for liouv in (np.zeros((0, 0)), np.zeros(())):
        with pytest.raises(ConfigurationError, match="whole Liouvillian must be square"):
            steady_state(liouv)


def test_spectrum_without_sources_raises():
    k, pairs = pumped_tls()
    rho = steady_state(liouvillian(k, pairs, EVEN), block=EVEN)
    l_odd, grid = liouvillian(k, pairs, ODD), np.linspace(-1.0, 1.0, 5)
    with pytest.raises(ConfigurationError, match="no sources: .* lowering operator"):
        emission_spectrum(l_odd, [], rho, grid, ODD)
    with pytest.raises(ConfigurationError, match=r"no sources: .* \(A, B\) pair"):
        regression_spectrum(l_odd, [], rho, grid, ODD)
    # nor an empty, 2-D or non-finite grid, on the eig path as on the
    # reduced model's (test_invariant_start_subspace_serves_the_model_without_eig)
    with pytest.raises(ConfigurationError, match="the frequency grid is empty"):
        emission_spectrum(l_odd, [SIGMA], rho, np.array([]), ODD)
    for bad in BAD_GRIDS:
        with pytest.raises(ConfigurationError, match="the frequency grid must be 1-D and finite"):
            emission_spectrum(l_odd, [SIGMA], rho, bad, ODD)


def test_spectrum_result_rejects_bad_intensity():
    # extract_peaks found no peak, silently, on a spectrum with one NaN point
    grid = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ConfigurationError, match="grid and intensity shapes differ"):
        SpectrumResult(grid, np.ones(2))
    for bad in ([0.0, np.nan, 1.0], [0.0, np.inf, 1.0]):
        with pytest.raises(ConfigurationError, match="intensity must be finite"):
            SpectrumResult(grid, bad)
    with pytest.raises(ConfigurationError, match="intensity must be nonnegative"):
        SpectrumResult(grid, [0.0, -1e-3, 1.0])
    # the grid is checked as SweepMap checks its axes: extract_peaks reported
    # a peak at nan on this one
    for bad in ([0.0, np.nan, 2.0, 3.0], [0.0, np.inf, 2.0, 3.0], [[0.0, 1.0, 2.0, 3.0]]):
        with pytest.raises(ConfigurationError, match="^spectrum grid must be 1-D and finite$"):
            SpectrumResult(np.array(bad), np.reshape([0.0, 1.0, 0.0, 0.5], np.shape(bad)))


def test_builder_rejects_a_bare_hamiltonian_or_superoperators():
    # neither H alone nor a list of superoperators is a generator in K + pairs
    # form; both fail loudly instead of building a wrong L
    h = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(TypeError, match="pairs"):
        liouvillian(h)
    with pytest.raises(ConfigurationError, match=r"pairs must hold \(A, B\)"):
        liouvillian(h, [hamiltonian_superop(h)])


@pytest.mark.parametrize("block", [None, EVEN, ODD], ids=["full", "even", "odd"])
def test_builder_matches_kron_products_on_random_operators(block):
    # the whole L from any operators; a block from operators that keep the
    # parity P = diag(1, -1) and preserve Hermiticity: K diagonal, and pairs
    # of diagonal or of off-diagonal operators, each with its partner
    # (B+, A+).  The block is compared as T oracle T+, T an explicit matrix
    rng = np.random.default_rng(4)

    def rand(mask):
        return np.where(mask, rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)), 0)

    keeps = np.eye(2, dtype=bool)
    if block is None:
        k, pairs = rand(True), [(rand(True), rand(True)) for _ in range(3)]
    else:
        k, pairs = rand(keeps), []
        for mask in (keeps, ~keeps, ~keeps):
            a, b = rand(mask), rand(mask)
            pairs += [(a, b), (b.conj().T, a.conj().T)]
    oracle = spre(k) + spost(k.conj().T) + sum(sandwich(a, b) for a, b in pairs)
    got = liouvillian(k, pairs, block)
    if block is not None:
        t = hermitian_basis_matrix(block, 2)
        oracle = t @ oracle[np.ix_(block, block)] @ t.conj().T
        assert got.dtype == np.float64
    assert np.max(np.abs(got - oracle)) < 1e-14 * np.abs(oracle).max()


def test_parity_check_names_the_operator():
    # building either parity block checks that K keeps P and that the two
    # operators of each pair both keep it or both flip it
    k, pairs = pumped_tls()
    for block in (EVEN, ODD):
        liouvillian(k, pairs, block)  # the symmetric generator passes
        with pytest.raises(SolverError, match=r"K breaks .* \|K\[0, 1\]\| = 3\.000e-01"):
            liouvillian(k + 0.3 * SIGMA, pairs, block)
        # A keeps P while B flips it: the pair maps the even block to the odd one
        with pytest.raises(SolverError, match=r"\|B_0\[1, 0\]\| = 1\.000e\+00 flips P"):
            liouvillian(k, [(np.eye(2), SIGMA.T)] + pairs, block)
    liouvillian(k + 0.3 * SIGMA, pairs)  # the whole L needs no symmetry
    # a block closed under rho -> rho+ but no parity sector: rho_22 is missing
    with pytest.raises(SolverError, match="one parity sector"):
        liouvillian(np.zeros((3, 3)), (), [0, 1, 3, 4])
    # every entry point takes a block of 1-D distinct integer vec indices in
    # [0, d^2) only: a float, out-of-range, negative or repeated index raises
    # before any indexing, and so does an empty block, of any dtype
    not_indices = r"1-D distinct integer vec indices in \[0, 4\), and not empty"
    for block in ([0.0, 3.0], [0, 3, 9], [-1, 0], [], np.array([], int)):
        with pytest.raises(SolverError, match=not_indices):
            liouvillian(k, pairs, block)
    for block in ([0.0, 1.0, 2.0, 3.0], [-1, 0, 3]):
        with pytest.raises(SolverError, match=not_indices):
            steady_state(liouvillian(k, pairs, EVEN), block=block)
    rho = steady_state(liouvillian(k, pairs, EVEN), block=EVEN)
    for block in ([0, 1, 1, 2, 3], [0, 1, 2, 3, 3]):
        with pytest.raises(SolverError, match=not_indices):
            regression_spectrum(-np.eye(5), [(SIGMA.T, SIGMA)], rho, [0.5], block)
    with pytest.raises(SolverError, match=not_indices):
        regression_spectrum(np.zeros((0, 0)), [(SIGMA.T, SIGMA)], rho, [0.5], [])


# -- the Hermitian basis ---------------------------------------------------------
# Four levels with P = diag(1, -1, 1, -1): a Lindblad generator with H keeping
# P and jump operators of either parity, plus a weak pair (A, B) with its
# partner (B+, A+), so L(rho+) = L(rho)+ while A != B+, as in the polaron
# dissipator; K takes -(1/2)(B A + A+ B+) to keep the trace.
P_4 = np.array([1, -1, 1, -1])


def random_parity_generator(seed):
    rng = np.random.default_rng(seed)
    keeps = np.equal.outer(P_4, P_4)

    def rand(mask):
        return np.where(mask, rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)), 0)

    h = rand(keeps)
    channels = [(rand(~keeps), 1.0) for _ in range(3)] + [(rand(keeps), 0.5)]
    k, pairs = lindblad_generator(h + h.conj().T, channels)
    a, b = 0.1 * rand(~keeps), 0.1 * rand(~keeps)
    pairs += [(a, b), (b.conj().T, a.conj().T)]
    return k - 0.5 * (b @ a + a.conj().T @ b.conj().T), pairs


def parity_blocks_4():
    r = np.arange(16)
    even = (P_4[r % 4] * P_4[r // 4]) > 0
    return np.flatnonzero(even), np.flatnonzero(~even)


@pytest.mark.parametrize("which", ["full", "even", "odd"])
def test_hermitian_basis_is_unitary_and_makes_l_real(which):
    even, odd = parity_blocks_4()
    idx = {"full": np.arange(16), "even": even, "odd": odd}[which]
    order, nd = _hermitian_basis(idx, 4)
    t_h = _from_hermitian(np.eye(idx.size), order, nd)  # T+, column by column
    t = t_h.conj().T
    assert np.max(np.abs(t - hermitian_basis_matrix(idx, 4))) < 1e-15
    assert np.max(np.abs(t @ t_h - np.eye(idx.size))) < 1e-15
    assert np.all(np.count_nonzero(t, axis=1) <= 2)

    rng = np.random.default_rng(5)
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    x = t @ vec(h + h.conj().T)[idx]
    assert np.max(np.abs(x.imag)) <= 1e-15 * np.max(np.abs(x))

    # the scattered L_h against the kron and gather oracles changed by T
    k, pairs = random_parity_generator(6)
    kron = generator_superop(k, pairs)[np.ix_(idx, idx)]
    gather = gather_liouvillian(k, pairs, idx)
    assert np.max(np.abs(gather - kron)) <= 1e-14 * np.max(np.abs(kron))
    l_h = liouvillian(k, pairs, idx)
    assert l_h.dtype == np.float64
    assert np.max(np.abs(l_h - t @ kron @ t_h)) <= 1e-14 * np.max(np.abs(kron))


def test_hermitian_basis_needs_a_block_closed_under_adjoint():
    # vec index 1 is rho_10; its partner rho_01 is vec index 2
    with pytest.raises(SolverError, match="vec index 1 but not its partner 2"):
        steady_state(np.eye(3), block=[0, 1, 3])


@pytest.mark.parametrize("seed", [7, 8, 9])
def test_hermitian_basis_matches_complex_decompositions(seed):
    # steady state and spectra on the whole L and on both parity blocks against
    # a complex SVD and a complex eig of the same matrix
    k, pairs = random_parity_generator(seed)
    even, odd = parity_blocks_4()
    whole = liouvillian(k, pairs)
    norm = np.linalg.norm(whole)
    l_even, l_odd = liouvillian(k, pairs, even), liouvillian(k, pairs, odd)
    v_even, v_odd = (whole[np.ix_(b, b)] for b in (even, odd))  # vec entries

    rho = steady_state(whole)
    for got, want in [
        (rho, complex_steady_state(whole, np.arange(16), 4)),
        (steady_state(l_even, block=even), complex_steady_state(v_even, even, 4)),
        (steady_state(l_even, block=even), svd_steady_state(l_even, even, 4)[0]),
    ]:
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))

    rng = np.random.default_rng(seed)
    flips = np.where(np.equal.outer(P_4, P_4), 0, rng.normal(size=(4, 4)))
    grid = np.linspace(-5.0, 5.0, 101)
    everything = np.arange(16)
    for l_h, vec_l, idx, ops in [
        (liouvillian(k, pairs, everything), whole, everything, [flips, flips @ flips.T]),
        (l_odd, v_odd, odd, [flips]),
        (l_even, v_even, even, [flips @ flips.T]),  # a P-even pair, on the block with rho
    ]:
        pairs_ab = [(op.conj().T, op) for op in ops]
        got = regression_spectrum(l_h, pairs_ab, rho, grid, idx)
        want = complex_regression_spectra(vec_l, pairs_ab, rho, grid, idx, 1e-10 * norm)
        want = want.sum(axis=0)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_stacked_rows_match_each_row_alone():
    # a stack (R, d, d) of generators through the builder (the whole L and
    # blocks) and both solvers gives each row bit for bit as alone, on
    # blocks with and without rho_ss; a failing row raises as it does alone
    gens = [random_parity_generator(seed) for seed in (7, 8, 9)]
    k = np.array([g[0] for g in gens])
    pairs = [tuple(np.array([g[1][n][side] for g in gens]) for side in (0, 1))
             for n in range(len(gens[0][1]))]
    even, odd = parity_blocks_4()
    everything = np.arange(16)
    for idx in (None, everything, even, odd):
        stacked = liouvillian(k, pairs, idx)
        size = 16 if idx is None else idx.size
        assert stacked.shape == (3, size, size)
        for row, (k_r, pairs_r) in zip(stacked, gens):
            assert np.array_equal(row, liouvillian(k_r, pairs_r, idx))
    l_even, l_odd = liouvillian(k, pairs, even), liouvillian(k, pairs, odd)
    rho = steady_state(l_even, block=even)
    assert rho.shape == (3, 4, 4)
    for r in range(3):
        assert np.array_equal(rho[r], steady_state(l_even[r], block=even))
    flips = np.where(np.equal.outer(P_4, P_4), 0, np.arange(16.0).reshape(4, 4) % 3)
    grid = np.linspace(-5.0, 5.0, 101)
    for l_h, idx, op in [(l_odd, odd, flips), (l_even, even, flips @ flips.T),
                         (liouvillian(k, pairs, everything), everything, flips)]:
        got = regression_spectrum(l_h, [(op.T, op)], rho, grid, idx)
        assert got.shape == (3, grid.size)
        for r in range(3):
            want = regression_spectrum(l_h[r], [(op.T, op)], rho[r], grid, idx)
            assert np.array_equal(got[r], want)
        for bad in (rho[0], np.zeros(())):
            with pytest.raises(ConfigurationError, match="one steady state rho_ss per block"):
                regression_spectrum(l_h, [(op.T, op)], bad, grid, idx)

    # row 1 without dissipation has a kernel of dimension 4 in the even block:
    # its trace-row matrix is singular, and the stack raises its message
    k[1] = -1j * np.diag([0.0, 1.0, 2.0, 3.0])
    for a, b in pairs:
        a[1], b[1] = 0.0, 0.0
    l_even = liouvillian(k, pairs, even)
    with pytest.raises(SolverError) as alone:
        steady_state(l_even[1], block=even)
    assert "not unique" in str(alone.value)
    with pytest.raises(SolverError, match=re.escape(str(alone.value))):
        steady_state(l_even, block=even)
    # states 1 and 2 (opposite P) degenerate in row 1 put a kernel in its odd
    # block too: the stack of odd blocks raises that row's message
    k[1] = -1j * np.diag([0.0, 1.0, 1.0, 3.0])
    l_odd = liouvillian(k, pairs, odd)
    with pytest.raises(SolverError) as alone:
        regression_spectrum(l_odd[1], [(flips.T, flips)], rho[1], grid, odd)
    assert "a block without rho_ss has a kernel" in str(alone.value)
    with pytest.raises(SolverError, match=re.escape(str(alone.value))):
        regression_spectrum(l_odd, [(flips.T, flips)], rho, grid, odd)
    # and K of row 2 across the parity sectors is named as alone
    k[2, 0, 1] = 0.3
    with pytest.raises(SolverError, match=r"K breaks .* \|K\[0, 1\]\| = 3\.000e-01"):
        liouvillian(k, pairs, odd)


def stacked_parity_generators(seeds):
    """K (R, 4, 4) and pairs of (R, 4, 4) operators: one random generator per seed."""
    gens = [random_parity_generator(seed) for seed in seeds]
    pairs = [tuple(np.array([g[1][n][side] for g in gens]) for side in (0, 1))
             for n in range(len(gens[0][1]))]
    return np.array([g[0] for g in gens]), pairs


def test_a_singular_row_fails_its_stack_in_one_solve(monkeypatch):
    # row 2 without dissipation has a singular trace-row matrix: the stack
    # raises that row's message from its first LU, where solving the rows
    # again one at a time would take 2R = 6 solves
    k, pairs = stacked_parity_generators((7, 8, 9))
    even, _ = parity_blocks_4()
    k[2] = -1j * np.diag([0.0, 1.0, 2.0, 3.0])
    for a, b in pairs:
        a[2], b[2] = 0.0, 0.0
    l_even = liouvillian(k, pairs, even)
    with pytest.raises(SolverError) as alone:
        steady_state(l_even[2], block=even)
    assert "not unique" in str(alone.value) and "relative gap 0.000e+00" in str(alone.value)
    solves, solve = [], np.linalg.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    with pytest.raises(SolverError, match=re.escape(str(alone.value))):
        steady_state(l_even, block=even)
    assert len(solves) <= 2


def test_a_stack_raises_the_message_of_its_failing_row():
    # a uniform loss on the middle row leaves its L without a kernel; its
    # trace-row matrix is regular, so the stack passes the certificate and
    # raises the row's own "no steady state found"
    k, pairs = stacked_parity_generators((7, 8, 9))
    even, _ = parity_blocks_4()
    k[1] -= 0.05 * np.eye(4)
    l_even = liouvillian(k, pairs, even)
    with pytest.raises(SolverError) as alone:
        steady_state(l_even[1], block=even)
    assert "no steady state found" in str(alone.value)
    with pytest.raises(SolverError, match=re.escape(str(alone.value))):
        steady_state(l_even, block=even)
    # a coherence in the second row's rho_ss puts its start vector outside
    # the odd block
    k, pairs = pumped_tls()
    l_odd = liouvillian(k, pairs, ODD)
    rho = steady_state(liouvillian(k, pairs, EVEN), block=EVEN)
    coherent = rho + 0.1 * np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SolverError) as alone:
        regression_spectrum(l_odd, [(SIGMA.T, SIGMA)], coherent, [0.5], ODD)
    assert "outside the block" in str(alone.value)
    with pytest.raises(SolverError, match=re.escape(str(alone.value))):
        regression_spectrum(np.stack([l_odd, l_odd]), [(SIGMA.T, SIGMA)],
                            np.stack([rho, coherent]), [0.5], ODD)
