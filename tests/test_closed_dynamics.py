import math

import numpy as np
import pytest

from triqom import (
    CompositeSpace,
    ModelParams,
    PureState,
    Space,
    Trajectory,
    coherent_state,
    evolve_coherent,
    evolve_fock_superposition,
    evolve_thermal,
    evolve_unitary,
    negativity,
    partial_trace,
    qubit_cavity_at_cycle,
    qubit_state,
    tensor,
    thermal_density,
)
from triqom.core import coherent_amplitudes
from triqom.dynamics import (
    branch_shifts,
    coherent_amplitude_coeff,
    default_composite_space,
    eta,
    hamiltonian,
)

from conftest import (
    TWO_PI,
    coherent_branch_oracle,
    coherent_vec,
    dense_hamiltonian,
    eigh_propagate,
    schmidt_negativity,
    spy_calls,
)


def _fock_initial_dense(beta, n_cav, n_mech):
    """(|up>+|down>)/sqrt2 (x) (|0>-|1>)/sqrt2 (x) |beta>, truncated and normalized."""
    q = np.array([1.0, 1.0]) / math.sqrt(2.0)
    c = np.zeros(n_cav, dtype=complex)
    c[0], c[1] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    m = coherent_vec(beta, n_mech)
    m = m / np.linalg.norm(m)
    return np.kron(q, np.kron(c, m))


def _coherent_initial_dense(alpha, beta, n_cav, n_mech):
    q = np.array([1.0, 1.0]) / math.sqrt(2.0)
    c = coherent_vec(alpha, n_cav)
    c = c / np.linalg.norm(c)
    m = coherent_vec(beta, n_mech)
    m = m / np.linalg.norm(m)
    return np.kron(q, np.kron(c, m))


def test_eta_values():
    assert eta(0.0) == 0.0
    assert abs(eta(TWO_PI)) < 1e-12
    assert abs(eta(math.pi) - 2.0) < 1e-12
    # quarter period: 1 - exp(-i pi/2) = 1 + i
    assert abs(eta(math.pi / 2.0) - (1.0 + 1.0j)) < 1e-12


def test_branch_shifts_layout():
    p = ModelParams(g=0.3, lam=0.1)
    s = branch_shifts(p, 3)
    np.testing.assert_allclose(
        s, [0.1, 0.4, 0.7, -0.1, 0.2, 0.5], rtol=0, atol=1e-15)


def test_hamiltonian_matches_dense_oracle():
    p = ModelParams(g=0.2, lam=0.25)
    cs = CompositeSpace(4, 6)
    h = hamiltonian(p, cs)
    href = dense_hamiltonian(0.2, 0.25, 4, 6)
    np.testing.assert_allclose(h, href, rtol=0, atol=1e-13)
    hs = hamiltonian(p, cs, as_sparse=True)
    np.testing.assert_allclose(hs.toarray(), href, rtol=0, atol=1e-13)


def test_evolve_unitary_identity_at_zero():
    p = ModelParams(g=0.2, lam=0.25, beta=0.8)
    psi0 = tensor(qubit_state(1.0, 1.0),
                  coherent_state(1.0, 12),
                  coherent_state(0.8, 20, label="mech"))
    psi = evolve_unitary(psi0, 0.0, p)
    np.testing.assert_allclose(psi.amplitudes, psi0.amplitudes, rtol=0, atol=1e-12)


def test_evolve_unitary_free_limit():
    # g = lam = 0: qubit and cavity untouched, mechanics rotates freely.
    p = ModelParams(g=0.0, lam=0.0)
    beta = 0.7
    t = 1.3
    psi0 = tensor(qubit_state(0.6, 0.8),
                  coherent_state(0.9, 12),
                  coherent_state(beta, 20, label="mech"))
    psi = evolve_unitary(psi0, t, p)
    assert abs(psi.norm() - 1.0) < 1e-12
    rho_q = partial_trace(psi, ("qubit",)).matrix
    np.testing.assert_allclose(np.diag(rho_q).real, [0.36, 0.64], rtol=0, atol=1e-12)
    rho_m = partial_trace(psi, ("mech",)).matrix
    target = coherent_vec(beta * np.exp(-1j * t), 20)
    target /= np.linalg.norm(target)
    overlap = np.vdot(target, rho_m @ target).real
    assert overlap > 1.0 - 1e-10


def test_evolve_unitary_matches_propagation_oracle():
    p = ModelParams(g=0.2, lam=0.25, beta=0.5)
    nc, nm = 6, 30
    psi0 = _coherent_initial_dense(1.0, 0.5, nc, nm)
    t = 3.7
    href = dense_hamiltonian(p.g, p.lam, nc, nm)
    ref = eigh_propagate(href, psi0, t)
    space = CompositeSpace(nc, nm)
    state0 = PureState(space.space, psi0.astype(complex))
    out = evolve_unitary(state0, t, p)
    fid = abs(np.vdot(ref, out.amplitudes)) ** 2
    assert fid > 1.0 - 1e-8

    # conserved quantities: sz expectation and photon distribution
    rho_q0 = partial_trace(state0, ("qubit",)).matrix
    rho_qt = partial_trace(out, ("qubit",)).matrix
    sz0 = (rho_q0[0, 0] - rho_q0[1, 1]).real
    szt = (rho_qt[0, 0] - rho_qt[1, 1]).real
    assert abs(sz0 - szt) < 1e-10
    p0 = np.diag(partial_trace(state0, ("cavity",)).matrix).real
    pt = np.diag(partial_trace(out, ("cavity",)).matrix).real
    np.testing.assert_allclose(pt, p0, rtol=0, atol=1e-10)


def test_evolve_unitary_norm_over_many_periods():
    p = ModelParams(g=0.15, lam=0.3, beta=1.0)
    psi0 = tensor(qubit_state(1.0, 1.0),
                  coherent_state(0.8, 12),
                  coherent_state(1.0, 40, label="mech"))
    for t in (0.7, math.pi, 7.3, 5 * TWO_PI, 10 * TWO_PI):
        psi = evolve_unitary(psi0, t, p)
        assert abs(psi.norm() - 1.0) < 1e-8


class TestFockSuperposition:
    def test_mech_factors_out_at_full_period(self):
        p = ModelParams(g=0.2, lam=0.625, beta=1.0)
        psi = evolve_fock_superposition(TWO_PI, p)
        rho_m = partial_trace(psi, ("mech",))
        assert abs(rho_m.purity() - 1.0) < 1e-8
        nm = rho_m.space.dims[0]
        target = coherent_vec(1.0, nm)
        target /= np.linalg.norm(target)
        assert np.vdot(target, rho_m.matrix @ target).real > 1.0 - 1e-8

    def test_agrees_with_block_propagator(self):
        p = ModelParams(g=0.2, lam=0.625, beta=1.0)
        cs = default_composite_space(p, family="fock")
        cav = PureState(Space(("cavity",), (cs.n_cav,)),
                        np.array([1.0, -1.0] + [0.0] * (cs.n_cav - 2)) / math.sqrt(2.0))
        psi0 = tensor(qubit_state(1.0, 1.0), cav,
                      coherent_state(1.0, cs.n_mech, label="mech"))
        for t in (0.9, 2.3, 4.0):
            a = evolve_fock_superposition(t, p, cs)
            b = evolve_unitary(psi0, t, p)
            fid = abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2
            assert fid > 1.0 - 1e-8

    def test_matches_brute_force_oracle(self):
        p = ModelParams(g=0.2, lam=0.625, beta=0.6)
        nc, nm = 2, 16
        href = dense_hamiltonian(p.g, p.lam, nc, nm)
        psi0 = _fock_initial_dense(0.6, nc, nm)
        rng = np.random.default_rng(7)
        for t in rng.uniform(0.0, 2 * TWO_PI, size=3):
            ref = eigh_propagate(href, psi0, float(t))
            out = evolve_fock_superposition(float(t), p, CompositeSpace(nc, nm))
            fid = abs(np.vdot(ref, out.amplitudes)) ** 2
            assert fid > 1.0 - 1e-6

    def test_maximal_entanglement_point(self):
        # g = 0.2, lam = 0.625: the two-branch phase difference at one period
        # puts the qubit-cavity pair at (very nearly) a maximally entangled state.
        p = ModelParams(g=0.2, lam=0.625, beta=1.0)
        psi = evolve_fock_superposition(TWO_PI, p)
        rho_qc = partial_trace(psi, ("qubit", "cavity"))
        n = negativity(rho_qc, ("qubit",))
        assert abs(n - 0.5) < 0.005
        # the mediator is disentangled from both at the period
        n_qm = negativity(partial_trace(psi, ("qubit", "mech")), ("qubit",))
        n_mc = negativity(partial_trace(psi, ("cavity", "mech")), ("mech",))
        assert n_qm < 1e-6
        assert n_mc < 1e-6


class TestCoherentCoefficients:
    def test_zero_time_values(self):
        p = ModelParams(g=0.3, lam=0.2, alpha=1.5)
        n = np.arange(6)
        for sign in (+1, -1):
            c = coherent_amplitude_coeff(n, sign, 0.0, p)
            expected = (1.5 ** n) * np.exp(-1.5 ** 2 / 2.0) / np.sqrt(
                2.0 * np.array([math.factorial(int(k)) for k in n], dtype=float))
            np.testing.assert_allclose(c, expected, rtol=0, atol=1e-12)

    def test_rejects_negative_photon_number(self):
        p = ModelParams(g=0.3, lam=0.2, alpha=1.5)
        with pytest.raises(ValueError, match="photon"):
            coherent_amplitude_coeff(np.array([2, -1]), +1, 0.0, p)

    @pytest.mark.parametrize("n", [[1.0, 2.0], 2.5])
    def test_rejects_non_integer_photon_numbers(self, n):
        p = ModelParams(g=0.3, lam=0.2, alpha=1.5)
        with pytest.raises(ValueError, match="photon numbers must be integers"):
            coherent_amplitude_coeff(n, +1, 0.0, p)

    def test_refuses_a_table_beyond_the_memory_budget(self, monkeypatch):
        # one photon number of 10^6 sizes a table of 10^6 + 1 levels
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 128 * 10 ** 6)
        calls = spy_calls(monkeypatch, coherent_amplitudes)
        with pytest.raises(MemoryError, match="coherent amplitudes up to n = 1000000"):
            coherent_amplitude_coeff(np.array([2, 10 ** 6]), +1, 0.0,
                                     ModelParams(g=0.3, lam=0.2, alpha=1.5))
        assert calls == []

    @pytest.mark.parametrize("n", [[], np.arange(0)])
    def test_empty_photon_numbers_give_an_empty_array(self, n):
        c = coherent_amplitude_coeff(n, +1, 1.3, ModelParams(g=0.3, lam=0.2, alpha=1.5))
        assert c.shape == (0,) and c.dtype == complex

    def test_magnitude_constant_in_time(self):
        p = ModelParams(g=0.25, lam=0.4, alpha=2.0, beta=1.0)
        n = np.arange(10)
        ref = np.abs(coherent_amplitude_coeff(n, +1, 0.0, p))
        for t in (0.3, 1.7, math.pi, 9.0):
            np.testing.assert_allclose(
                np.abs(coherent_amplitude_coeff(n, +1, t, p)), ref, rtol=0, atol=1e-12)

    def test_total_weight_is_one(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0)
        n = np.arange(60)
        w = (np.abs(coherent_amplitude_coeff(n, +1, 2.9, p)) ** 2
             + np.abs(coherent_amplitude_coeff(n, -1, 2.9, p)) ** 2)
        assert abs(w.sum() - 1.0) < 1e-10

    def test_matches_independent_branch_oracle(self):
        p = ModelParams(g=0.17, lam=0.33, alpha=1.2, beta=0.9)
        rng = np.random.default_rng(3)
        for _ in range(8):
            n = int(rng.integers(0, 7))
            sign = int(rng.choice([-1, 1]))
            t = float(rng.uniform(0.0, 2 * TWO_PI))
            c, phi = coherent_branch_oracle(n, sign, t, p.g, p.lam, p.alpha, p.beta)
            got = complex(coherent_amplitude_coeff(n, sign, t, p))
            assert abs(got - c) < 1e-12
            s = p.g * n + sign * p.lam
            phi_lib = p.beta * np.exp(-1j * t) + s * complex(eta(t))
            assert abs(phi_lib - phi) < 1e-12


class TestEvolveCoherent:
    def test_zero_time_is_product(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, beta=0.7)
        cs = CompositeSpace(10, 14)
        psi = evolve_coherent(0.0, p, cs)
        ref = tensor(qubit_state(1.0, 1.0),
                     coherent_state(1.0, 10),
                     coherent_state(0.7, 14, label="mech"))
        fid = abs(np.vdot(ref.amplitudes, psi.amplitudes)) ** 2
        assert fid > 1.0 - 1e-10

    def test_mediator_resets_each_period(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0)
        psi = evolve_coherent(TWO_PI, p)
        rho_m = partial_trace(psi, ("mech",))
        nm = rho_m.space.dims[0]
        target = coherent_vec(2.0, nm)
        target /= np.linalg.norm(target)
        assert np.vdot(target, rho_m.matrix @ target).real > 1.0 - 1e-8
        # same at three periods
        psi3 = evolve_coherent(3 * TWO_PI, p)
        rho_m3 = partial_trace(psi3, ("mech",))
        assert np.vdot(target, rho_m3.matrix @ target).real > 1.0 - 1e-8

    def test_agrees_with_block_propagator(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0)
        cs = default_composite_space(p, family="coherent")
        psi0 = tensor(qubit_state(1.0, 1.0),
                      coherent_state(2.0, cs.n_cav),
                      coherent_state(2.0, cs.n_mech, label="mech"))
        a = evolve_coherent(2.6, p, cs)
        b = evolve_unitary(psi0, 2.6, p)
        fid = abs(np.vdot(b.amplitudes, a.amplitudes)) ** 2
        assert fid > 1.0 - 1e-8

    def test_matches_brute_force_oracle(self):
        p = ModelParams(g=0.04, lam=0.08, alpha=0.8, beta=0.25)
        nc, nm = 10, 14
        href = dense_hamiltonian(p.g, p.lam, nc, nm)
        psi0 = _coherent_initial_dense(0.8, 0.25, nc, nm)
        rng = np.random.default_rng(11)
        for t in rng.uniform(0.0, 2 * TWO_PI, size=3):
            ref = eigh_propagate(href, psi0, float(t))
            out = evolve_coherent(float(t), p, CompositeSpace(nc, nm))
            fid = abs(np.vdot(ref, out.amplitudes)) ** 2
            assert fid > 1.0 - 1e-6


class TestCycleState:
    def test_uncoupled_cavity_is_product(self):
        p = ModelParams(g=0.0, lam=0.25, alpha=2.0)
        psi = qubit_cavity_at_cycle(1, p)
        n = schmidt_negativity(psi.amplitudes, 2, psi.space.dims[1])
        assert n < 1e-12

    def test_matches_full_evolution_reduction(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0)
        full = evolve_coherent(TWO_PI, p)
        nc = full.space.dims[1]
        rho_qc = partial_trace(full, ("qubit", "cavity"))
        assert abs(rho_qc.purity() - 1.0) < 1e-8
        cyc = qubit_cavity_at_cycle(1, p, n_cav=nc)
        fid = np.vdot(cyc.amplitudes, rho_qc.matrix @ cyc.amplitudes).real
        assert fid > 1.0 - 1e-8

    def test_first_cycle_negativity_near_half(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=2.0)
        psi = qubit_cavity_at_cycle(1, p)
        n = schmidt_negativity(psi.amplitudes, 2, psi.space.dims[1])
        assert abs(n - 0.5) < 0.01

    def test_rejects_bad_cycle_count(self):
        p = ModelParams(g=0.2, lam=0.25)
        with pytest.raises(ValueError):
            qubit_cavity_at_cycle(-1, p)


class TestEvolveThermal:
    def test_zero_temperature_matches_pure(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, beta=0.0, nbar_mech=0.0)
        cs = CompositeSpace(12, 30)
        rho = evolve_thermal(1.9, p, cs)
        psi = evolve_coherent(1.9, p, cs)
        fid = np.vdot(psi.amplitudes, rho.matrix @ psi.amplitudes).real
        assert fid > 1.0 - 1e-8

    def test_qc_state_independent_of_temperature(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=1.5, nbar_mech=0.5)
        cs = CompositeSpace(14, 40)
        rho = evolve_thermal(TWO_PI, p, cs)
        rho_qc = partial_trace(rho, ("qubit", "cavity"))
        assert rho_qc.purity() > 1.0 - 1e-6
        cyc = qubit_cavity_at_cycle(1, p, n_cav=14)
        fid = np.vdot(cyc.amplitudes, rho_qc.matrix @ cyc.amplitudes).real
        assert fid > 1.0 - 1e-6

    def test_mixed_mid_cycle(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, nbar_mech=4.0)
        cs = CompositeSpace(10, 90)
        rho = evolve_thermal(math.pi, p, cs)
        rho_qc = partial_trace(rho, ("qubit", "cavity"))
        assert rho_qc.purity() < 0.99

    @pytest.mark.parametrize("t", [1.3, 3.7, TWO_PI])
    def test_matches_dense_propagation_oracle(self, t):
        # rho(t) = U rho0 U' with U from the dense Hamiltonian's eigenbasis
        p = ModelParams(g=0.2, lam=0.25, alpha=0.8, nbar_mech=0.3)
        nc, nm = 6, 30
        c = coherent_vec(0.8, nc)
        psi_qc = np.kron(np.array([1.0, 1.0]), c)
        psi_qc /= np.linalg.norm(psi_qc)
        occ = (0.3 / 1.3) ** np.arange(nm)
        rho0 = np.kron(np.outer(psi_qc, psi_qc.conj()), np.diag(occ / occ.sum()))
        evals, vecs = np.linalg.eigh(dense_hamiltonian(p.g, p.lam, nc, nm))
        u = (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T
        rho = evolve_thermal(t, p, CompositeSpace(nc, nm)).matrix
        np.testing.assert_allclose(rho, u @ rho0 @ u.conj().T, rtol=0, atol=1e-6)

    def test_mechanics_returns_to_thermal(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, nbar_mech=1.5)
        cs = CompositeSpace(10, 60)
        rho = evolve_thermal(TWO_PI, p, cs)
        rho_m = partial_trace(rho, ("mech",)).matrix
        ref = thermal_density(1.5, 60).matrix
        assert np.max(np.abs(rho_m - ref)) < 1e-8


def test_trajectory_requires_increasing_times():
    p = ModelParams(g=0.1, lam=0.1)
    s = evolve_fock_superposition(0.0, p)
    Trajectory((0.0, 1.0), (s, s))
    with pytest.raises(ValueError):
        Trajectory((1.0, 1.0), (s, s))
    with pytest.raises(ValueError):
        Trajectory((0.0, 1.0, 0.5), (s, s, s))


_P = ModelParams(g=0.1, lam=0.2)
_REJECTED = {
    # every kept amplitude of |beta = 40> underflows to zero on 2 levels
    "lost to truncation": (lambda: evolve_fock_superposition(
        0.0, ModelParams(g=0.1, lam=0.2, beta=40.0), CompositeSpace(2, 2)),
        "state lost entirely to truncation"),
    "one-level fock cavity": (lambda: evolve_fock_superposition(0.0, _P, CompositeSpace(1, 4)),
                              "cavity truncation must be >= 2"),
    "coefficient sign": (lambda: coherent_amplitude_coeff(1, 0, 0.0, _P),
                         "sign must be [+]1 or -1"),
    "trajectory length": (lambda: Trajectory((0.0, 1.0), (None,)),
                          "times and states length mismatch"),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_bad_inputs_are_rejected_by_name(name):
    call, match = _REJECTED[name]
    with pytest.raises(ValueError, match=match):
        call()


def test_default_space_families():
    p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=1.0)
    assert default_composite_space(p, family="fock").n_cav == 2
    assert default_composite_space(p, family="coherent").n_cav >= 28
    with pytest.raises(ValueError):
        default_composite_space(p, family="squeezed")


def test_thermal_default_reaches_from_the_undisplaced_state():
    # the thermal state never holds |beta|, so beta does not size its mechanics
    for nbar in (0.5, 2.0):
        spaces = [default_composite_space(ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=beta,
                                                      nbar_mech=nbar), family="thermal")
                  for beta in (2.0, 0.0)]
        assert spaces == [CompositeSpace(28, 224)] * 2


def test_pure_defaults_take_no_thermal_floor():
    # fock and coherent start in |beta>, whatever nbar_mech says
    for family, size in (("coherent", CompositeSpace(28, 289)), ("fock", CompositeSpace(2, 40))):
        for nbar in (0.0, 10.0):
            p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0, nbar_mech=nbar)
            assert default_composite_space(p, family=family) == size
    # the thermal family keeps its floor: 339 levels at nbar = 10
    p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0, nbar_mech=10.0)
    assert default_composite_space(p, family="thermal") == CompositeSpace(28, 339)
