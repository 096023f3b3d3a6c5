"""The two-sided Krylov reduced model of large odd blocks against the dense eig.

`liouville.regression_spectrum` takes the reduced model for a block without
rho_ss that has more than `_KRYLOV_MIN_ROWS` rows, and the dense `eig` of the
whole block everywhere else and as its fallback.  The `eig` path is the
oracle: every spectrum here must match it to a max relative difference of
1e-10.
"""

from dataclasses import replace

import numpy as np
import pytest

from bixsim import liouville, system
from bixsim.errors import ConfigurationError, SolverError
from bixsim.hilbert import HilbertSpec
from bixsim.liouville import emission_spectrum, lindblad_generator, liouvillian, steady_state
from bixsim.system import compute_spectrum_y

from stressed_configs import STRESSED, config, stressed


def both_paths(monkeypatch, cfg, min_rows=0):
    """Raw spectra of cfg by the reduced model and by the dense eig alone.

    Also returns what each `_reduced_spectrum` call gave (None: fallback)
    and the number of `_resolvent_sum` calls, one per order tried.
    """
    served, sums = [], []
    reduced, resolvent_sum = liouville._reduced_spectrum, liouville._resolvent_sum

    def recorded(*args):
        served.append(reduced(*args))
        return served[-1]

    def counted(*args):
        sums.append(args[1].size)
        return resolvent_sum(*args)

    monkeypatch.setattr(liouville, "_reduced_spectrum", recorded)
    monkeypatch.setattr(liouville, "_resolvent_sum", counted)
    monkeypatch.setattr(liouville, "_KRYLOV_MIN_ROWS", min_rows)
    got = compute_spectrum_y(cfg).intensity
    model_sums = len(sums)
    monkeypatch.setattr(liouville, "_KRYLOV_MIN_ROWS", 10**9)
    want = compute_spectrum_y(cfg).intensity
    return got, want, served, model_sums


def relative_difference(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("source", ["y-dipole", "y-cavity", "both"])
@pytest.mark.parametrize("phonons", [True, False], ids=["phonons", "no-phonons"])
@pytest.mark.parametrize("n_max_y", [4, 6, 8])
def test_reduced_model_matches_dense_eig(monkeypatch, n_max_y, phonons, source):
    # the threshold is lowered so that n_max_y=4 (198 rows) takes the model
    # too; there a four-column block ("both") reaches half the rows at 24
    # blocks, before the model converges, and the dense eig serves instead
    got, want, served, _ = both_paths(monkeypatch, config(n_max_y, phonons, source))
    assert len(served) == 1
    assert (served[0] is None) == (n_max_y == 4 and source == "both")
    assert np.max(want) > 0.0
    assert relative_difference(got, want) <= 1e-10


@pytest.mark.parametrize("phonons", [True, False], ids=["phonons", "no-phonons"])
@pytest.mark.parametrize("name", STRESSED)
def test_reduced_model_on_stressed_configs(monkeypatch, name, phonons):
    # the default threshold: the 390-row odd block takes the model.  With the
    # y couplings tripled it needs 50-60 blocks where the baseline stops at 40
    cfg = stressed(name)
    cfg = replace(cfg, phonon=replace(cfg.phonon, enable=phonons))
    got, want, served, orders = both_paths(monkeypatch, cfg,
                                           min_rows=liouville._KRYLOV_MIN_ROWS)
    assert len(served) == 1 and served[0] is not None
    assert relative_difference(got, want) <= 1e-10
    if name == "g-tripled":
        assert orders >= 5


def test_order_cap_falls_back_to_dense_eig(monkeypatch):
    # the baseline needs 40 blocks; with a cap of 20 the model gives up and
    # the dense eig returns exactly the spectrum it returns alone
    monkeypatch.setattr(liouville, "_KRYLOV_MAX_BLOCKS", 20)
    got, want, served, orders = both_paths(monkeypatch, config(6))
    assert served == [None]
    assert orders == 2 + 1  # orders 10 and 20, then the eig path
    assert np.array_equal(got, want)


def test_shift_far_above_the_block_takes_the_dense_eig(monkeypatch):
    # one grid point at 1e16 puts the shift at sigma = 7e15, far above
    # ||L_h||_F = 2.6e4 of the 390-row odd block: B = (sigma - L_h)^-1 is
    # then close to I / sigma, every new Arnoldi block looks invariant, and
    # a model served on that false breakdown is 128% off the eig.  The model
    # declines before its inverse, and the eig serves, bit for bit
    cfg = config(6)
    k, pairs = system._generator(cfg)
    even, odd = HilbertSpec(6).parity_blocks()
    rho = steady_state(liouvillian(k, pairs, even), block=even)
    l_odd = liouvillian(k, pairs, odd)
    assert l_odd.shape[0] == 390 > liouville._KRYLOV_MIN_ROWS
    ops = [system.source_operator(cfg, "y-dipole")]
    grid = np.append(np.linspace(-1400.0, 1400.0, 41), 1e16)

    def no_inv(*args):
        raise AssertionError("the reduced model inverted sigma - L_h")

    with monkeypatch.context() as patch:
        patch.setattr(liouville.np.linalg, "inv", no_inv)
        got = emission_spectrum(l_odd, ops, rho, grid, odd)
    monkeypatch.setattr(liouville, "_KRYLOV_MIN_ROWS", 10**9)
    want = emission_spectrum(l_odd, ops, rho, grid, odd)
    assert np.max(want) > 0.0
    assert np.array_equal(got, want)


def test_kernel_in_a_large_odd_block_raises(monkeypatch):
    # levels 0 and 1 form a decaying, pumped two-level system; levels 2..21
    # stay empty and undamped.  Levels 2 and 3 are degenerate and of opposite
    # parity P = (-1)^i, so rho_23 and rho_32 sit in the odd block (242 rows)
    # with eigenvalue 0: a second stationary state.  The LU certificate
    # raises before any eigenvalue is known
    d = 22
    energies = 0.37 * np.arange(d)
    energies[3] = energies[2]
    sigma = np.zeros((d, d))
    sigma[0, 1] = 1.0
    k, pairs = lindblad_generator(np.diag(energies), [(sigma, 1.0), (sigma.T, 0.5)])
    parity = (-1.0) ** np.arange(d)
    odd = np.flatnonzero(np.outer(parity, parity).ravel(order="F") < 0)
    l_odd = liouvillian(k, pairs, odd)
    assert l_odd.shape[0] == 242 > liouville._KRYLOV_MIN_ROWS
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0], rho[1, 1] = 2.0 / 3.0, 1.0 / 3.0

    def no_eig(*args):
        raise AssertionError("the dense eig was reached")

    monkeypatch.setattr(liouville.np.linalg, "eig", no_eig)
    with pytest.raises(SolverError, match="steady state is not unique: a block without "
                                          "rho_ss has a kernel"):
        emission_spectrum(l_odd, [sigma], rho, np.linspace(-2.0, 2.0, 41), odd)


@pytest.mark.parametrize("phonons", [True, False], ids=["phonons", "no-phonons"])
@pytest.mark.parametrize("source", ["y-dipole", "both"])
def test_small_odd_blocks_keep_the_dense_eig(monkeypatch, source, phonons):
    # n_max_y=2 (70 rows) and 4 (198 rows) are at or below the measured
    # crossover: they pass the kernel certificate, as every block without
    # rho_ss does, but never reach the model, so their spectra are the
    # dense eig's, bit for bit
    def unused(*args):
        raise AssertionError("the reduced model was reached")

    for n_max_y, rows in ((2, 70), (4, 198)):
        assert HilbertSpec(n_max_y).parity_blocks()[1].size == rows
        assert rows <= liouville._KRYLOV_MIN_ROWS
        cfg = config(n_max_y, phonons, source)
        with monkeypatch.context() as patch:
            patch.setattr(liouville, "_reduced_spectrum", unused)
            got = compute_spectrum_y(cfg).intensity
        with monkeypatch.context() as patch:
            patch.setattr(liouville, "_KRYLOV_MIN_ROWS", 10**9)
            want = compute_spectrum_y(cfg).intensity
        assert np.array_equal(got, want)


def test_invariant_start_subspace_serves_the_model_without_eig(monkeypatch):
    # a pumped two-level system on levels 0 and 1 of 22, with levels 2..21
    # dephased at rate 0.3.  sigma rho_ss and the row of sigma+ lie in the
    # coherences of levels 0 and 1, an invariant subspace of the 242-row odd
    # block: the second Arnoldi block vanishes, and the model of the first
    # is exact, so no eig of the whole block runs
    d = 22
    sigma = np.zeros((d, d))
    sigma[0, 1] = 1.0
    dephasing = [(np.diag(np.eye(d)[i]), 0.3) for i in range(2, d)]
    k, pairs = lindblad_generator(
        np.diag(0.37 * np.arange(d)), [(sigma, 1.0), (sigma.T, 0.5)] + dephasing
    )
    parity = (-1.0) ** np.arange(d)
    odd = np.flatnonzero(np.outer(parity, parity).ravel(order="F") < 0)
    l_odd = liouvillian(k, pairs, odd)
    assert l_odd.shape[0] == 242 > liouville._KRYLOV_MIN_ROWS
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0], rho[1, 1] = 2.0 / 3.0, 1.0 / 3.0
    grid = np.linspace(-2.0, 2.0, 41)

    shapes, eig = [], np.linalg.eig

    def recorded(a):
        shapes.append(a.shape)
        return eig(a)

    monkeypatch.setattr(liouville.np.linalg, "eig", recorded)
    got = emission_spectrum(l_odd, [sigma], rho, grid, odd)
    assert shapes == [(2, 2)]
    # an empty, 2-D or non-finite grid raises before any decomposition, as
    # on the eig path
    with pytest.raises(ConfigurationError, match="the frequency grid is empty"):
        emission_spectrum(l_odd, [sigma], rho, np.array([]), odd)
    for bad in ([0.0, np.nan, 1.0], [0.0, np.inf], grid.reshape(1, -1)):
        with pytest.raises(ConfigurationError, match="the frequency grid must be 1-D and finite"):
            emission_spectrum(l_odd, [sigma], rho, np.array(bad), odd)
    assert shapes == [(2, 2)]
    monkeypatch.setattr(liouville, "_KRYLOV_MIN_ROWS", 10**9)
    want = emission_spectrum(l_odd, [sigma], rho, grid, odd)
    assert shapes[-1] == (242, 242)
    assert np.max(want) > 0.0
    assert relative_difference(got, want) <= 1e-10


@pytest.mark.parametrize("phonons", [True, False], ids=["phonons", "no-phonons"])
@pytest.mark.parametrize("case", ["baseline-2", "baseline-6", "baseline-8", *STRESSED])
def test_live_poles_keep_a_margin_from_the_undamped_guard(monkeypatch, case, phonons):
    # every model `_resolvent_sum` receives, the dense eig at n_max_y=2 and
    # each Krylov order tried above it, keeps its live poles (weight above
    # 1e-14 of the largest, as the guard counts them) well off the imaginary
    # axis: min |Re lambda| / scale, with scale = max(||L_h||_F, 1), measured
    # 1.2e-3 at n_max_y=2, 3.4e-4 at 6 and 2.2e-4 at 8 on the baseline, and
    # 7.2e-6 at worst, at an intermediate order of the tripled-g config
    # without phonons.  The guard raises below 1e-12; the 1e-8 asserted here,
    # 700 times under the worst case and 1e4 times over the guard, shows the
    # guard cannot fire on a healthy model.  Likewise every uniqueness
    # certificate 1 / (||M^-1|| scale) of `_solve_with_gap`, on the even
    # block's trace-row matrix and on the odd block, measured 8.2e-5 (even)
    # and 1.1e-2 (odd) at n_max_y=2 and 8.4e-6 at worst, on the even block
    # at n_max_y=8 without phonons.  The bound is 1e-10; the 1e-8 asserted
    # here is 100 times the bound and 840 times under the worst case
    margins, resolvent_sum = [], liouville._resolvent_sum
    gaps, solve_with_gap = [], liouville._solve_with_gap

    def recorded(weights, poles, grid, scale):
        live = np.abs(weights) > 1e-14 * max(np.abs(weights).max(), 1.0)
        margins.append(np.abs(poles[live].real).min() / scale)
        return resolvent_sum(weights, poles, grid, scale)

    def recorded_gap(*args):
        sol, gap = solve_with_gap(*args)
        gaps.append(gap)
        return sol, gap

    monkeypatch.setattr(liouville, "_resolvent_sum", recorded)
    monkeypatch.setattr(liouville, "_solve_with_gap", recorded_gap)
    if case.startswith("baseline-"):
        cfg = config(int(case.rsplit("-", 1)[1]), phonons)
    else:
        cfg = stressed(case)
        cfg = replace(cfg, phonon=replace(cfg.phonon, enable=phonons))
    compute_spectrum_y(cfg)
    assert margins
    assert min(margins) >= 1e-8
    assert len(gaps) == 2  # the even block's steady state, the odd block
    assert min(gaps) >= 1e-8
