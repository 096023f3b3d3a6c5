from dataclasses import replace

import numpy as np
import pytest

from kron_oracle import reduced_hamiltonian

from bixsim import system
from bixsim.errors import ConfigurationError
from bixsim.hilbert import (
    QD_LEVELS,
    HilbertSpec,
    embed_photon_annihilator,
    embed_qd_projector,
    embed_qd_transition,
    identity,
    is_hermitian,
    qd_operator,
)


def photon_number(spec):
    """identity (x) n of the y mode, from its diagonal 0..n_max_y."""
    return np.kron(np.eye(4), np.diag(np.arange(spec.n_ph))).astype(complex)


def test_dimensions_and_indexing():
    spec = HilbertSpec(n_max_y=2)
    assert spec.n_ph == 3
    assert spec.dim == 12
    # photon index runs fastest
    assert spec.index("G", 0) == 0
    assert spec.index("G", 2) == 2
    assert spec.index("Y", 0) == 3
    assert spec.index("XX", 2) == 11
    with pytest.raises(ConfigurationError):
        spec.index("G", 3)
    with pytest.raises(ConfigurationError):
        spec.index("Z", 0)


def test_minimal_space_transition_matrix():
    # without photons the transition ops are bare 4x4 matrix units
    spec = HilbertSpec(n_max_y=0)
    op = embed_qd_transition(spec, "XX", "X")
    expected = np.zeros((4, 4))
    expected[QD_LEVELS.index("X"), QD_LEVELS.index("XX")] = 1.0
    assert np.array_equal(op, expected)


def test_transition_products_are_projectors():
    spec = HilbertSpec(n_max_y=1)
    lower = embed_qd_transition(spec, "X", "G")
    raise_ = embed_qd_transition(spec, "G", "X")
    assert np.allclose(lower @ raise_, embed_qd_projector(spec, "G"))
    assert np.allclose(raise_ @ lower, embed_qd_projector(spec, "X"))


def test_projectors_resolve_identity():
    spec = HilbertSpec(n_max_y=2)
    total = sum(embed_qd_projector(spec, lv) for lv in QD_LEVELS)
    assert np.array_equal(total, identity(spec))


def test_photon_operators():
    spec = HilbertSpec(n_max_y=2)
    a = embed_photon_annihilator(spec)
    assert np.allclose(a.conj().T @ a, photon_number(spec))
    # truncation kills the top rung
    top = np.zeros(spec.dim)
    top[spec.index("G", 2)] = 1.0
    assert np.allclose(a @ (a @ (a @ top)), 0.0)
    # commutator holds on the subspace below the truncation edge
    comm = a @ a.conj().T - a.conj().T @ a
    keep = [spec.index(lv, nn) for lv in QD_LEVELS for nn in range(2)]
    assert np.allclose(comm[np.ix_(keep, keep)], np.eye(len(keep)))


def test_qd_operator_embedding_commutes_with_photons():
    spec = HilbertSpec(n_max_y=2)
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = embed_photon_annihilator(spec)
    q = qd_operator(spec, m)
    assert np.allclose(q @ a, a @ q)


def test_is_hermitian():
    spec = HilbertSpec(n_max_y=1)
    assert is_hermitian(photon_number(spec))
    assert not is_hermitian(embed_photon_annihilator(spec))


# -- embedded operators: built once per truncation, read-only -----------------


def _matrix_unit(i, j, n):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


@pytest.mark.parametrize("n_max_y", [0, 2, 6])
def test_embedded_operators_are_cached_read_only_kron_builds(n_max_y):
    spec = HilbertSpec(n_max_y)
    eye_ph = np.eye(spec.n_ph)
    a = np.diag(np.sqrt(np.arange(1.0, spec.n_ph)), 1)
    cases = [(embed_photon_annihilator(spec), np.kron(np.eye(4), a))]
    for i, frm in enumerate(QD_LEVELS):
        want = np.kron(_matrix_unit(i, i, 4), eye_ph)
        cases.append((embed_qd_projector(spec, frm), want))
        for j, to in enumerate(QD_LEVELS):
            want = np.kron(_matrix_unit(j, i, 4), eye_ph)
            cases.append((embed_qd_transition(spec, frm, to), want))
    for op, want in cases:
        assert op.dtype == complex
        assert np.array_equal(op, want)
        assert not op.flags.writeable
        with pytest.raises(ValueError):
            op[0, 0] = 2.0
        assert np.array_equal(op, want)
    # an equal spec hits the same cache entry
    again = HilbertSpec(n_max_y)
    assert embed_photon_annihilator(again) is embed_photon_annihilator(spec)
    assert embed_qd_projector(again, "XX") is embed_qd_projector(spec, "XX")
    assert embed_qd_transition(again, "Y", "G") is embed_qd_transition(spec, "Y", "G")
    # qd_operator takes an array and stays an uncached, writable build
    q = qd_operator(spec, np.eye(4))
    assert q.flags.writeable and q is not qd_operator(spec, np.eye(4))


def test_warm_spectrum_makes_no_kron_call(monkeypatch):
    base = system.default_config()
    cfg = replace(base, drive=replace(base.drive, omega=252.83669951857598))
    assert cfg.phonon.enable and cfg.numerics.n_max_y == 2
    system.compute_spectrum_y(cfg)  # fills the operator and kernel caches
    calls = []
    kron = np.kron

    def counted(*args, **kwargs):
        calls.append(1)
        return kron(*args, **kwargs)

    monkeypatch.setattr(np, "kron", counted)
    system.compute_spectrum_y(cfg)
    assert calls == []
    qd_operator(HilbertSpec(2), np.eye(4))  # the counter does see a build
    assert calls == [1]


# -- the weak Z2 symmetry P = (-1)^(n_y + [Y]) ---------------------------------


def _parity_sign(spec, op):
    """+1 if P op P = op, -1 if P op P = -op, else None (no definite parity)."""
    p = spec.parity()
    conj = p[:, None] * op * p[None, :]
    if np.array_equal(conj, op):
        return 1
    if np.array_equal(conj, -op):
        return -1
    return None


def test_parity_of_basis_states():
    spec = HilbertSpec(n_max_y=2)
    p = spec.parity()
    for level in QD_LEVELS:
        for n in range(spec.n_ph):
            expected = (-1) ** (n + (level == "Y"))
            assert p[spec.index(level, n)] == expected


@pytest.mark.parametrize("n_max_y, sizes", [(2, (74, 70)), (6, (394, 390))])
def test_parity_block_sizes(n_max_y, sizes):
    spec = HilbertSpec(n_max_y)
    even, odd = spec.parity_blocks()
    assert (even.size, odd.size) == sizes
    assert np.array_equal(np.sort(np.concatenate([even, odd])), np.arange(spec.dim**2))
    # vec index i + dim * j of rho[i, j] is even when P_i P_j = +1
    p = spec.parity()
    i, j = even % spec.dim, even // spec.dim
    assert np.all(p[i] * p[j] == 1)


@pytest.mark.parametrize("n_max_y", [1, 2, 4])
def test_jump_operators_have_definite_parity(n_max_y):
    spec = HilbertSpec(n_max_y)
    even_ops = [
        embed_qd_transition(spec, "X", "G"),
        embed_qd_transition(spec, "XX", "X"),
    ] + [embed_qd_projector(spec, level) for level in QD_LEVELS]
    odd_ops = [
        embed_qd_transition(spec, "Y", "G"),
        embed_qd_transition(spec, "XX", "Y"),
        embed_photon_annihilator(spec),
    ]
    assert [_parity_sign(spec, op) for op in even_ops] == [1] * len(even_ops)
    assert [_parity_sign(spec, op) for op in odd_ops] == [-1] * len(odd_ops)
    # an even Hamiltonian plus a y-mode drive a + a+ has no definite parity
    a = embed_photon_annihilator(spec)
    assert _parity_sign(spec, a + a.conj().T + embed_qd_projector(spec, "G")) is None


@pytest.mark.parametrize("xx_scaling", [2.0, 2.5])
def test_hamiltonian_and_polaron_quadratures_are_parity_even(xx_scaling):
    from bixsim.phonons import polaron_dissipator

    base = system.default_config()
    cfg = replace(
        base,
        drive=replace(base.drive, omega=252.83669951857598),
        phonon=replace(base.phonon, xx_scaling=xx_scaling),
        laser_detuning=12.0,
    )
    spec = HilbertSpec(cfg.numerics.n_max_y)
    kernels = system._kernels_for(cfg)
    h = reduced_hamiltonian(cfg)
    assert _parity_sign(spec, h) == 1

    terms = system._coupling_terms(cfg, spec, kernels)
    groups = {}
    for op, factor in terms:
        groups[factor] = groups.get(factor, 0) + op
    assert len(groups) == (1 if xx_scaling == 2.0 else 2)
    for c in groups.values():
        assert _parity_sign(spec, c + c.conj().T) == 1
        assert _parity_sign(spec, 1j * (c - c.conj().T)) == 1

    # hence every operator of the scattering term keeps P: its K part and
    # both operators of each sandwich pair, up to rounding in the eigenbasis
    k_ph, pairs = polaron_dissipator(h, terms, kernels)
    assert len(pairs) == 4 * len(groups)
    p = spec.parity()
    flips = p[:, None] * p[None, :] < 0
    for op in [k_ph] + [op for pair in pairs for op in pair]:
        mag = np.abs(op)
        assert mag.max() > 0.0
        assert mag[flips].max() < 1e-14 * mag.max()
