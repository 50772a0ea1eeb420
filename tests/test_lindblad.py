import math
import warnings

import numpy as np
import pytest
import scipy.special

from triqom import (
    CompositeSpace,
    DensityMatrix,
    IntegrationError,
    ModelParams,
    OpenSystemConfig,
    Space,
    build_dissipators,
    coherent_state,
    dressed_dephasing_rate,
    evolve_unitary,
    integrate,
    lindblad_rhs,
    negativity,
    negativity_sweep,
    partial_trace,
    photon_dephasing_rate,
    qubit_cavity_at_cycle,
    qubit_state,
    sweep_initial_state,
    tensor,
    thermal_density,
)
from scipy import sparse

from triqom import core, lindblad
from triqom.core import _lift, destroy, embed, fock_state, number_op, sigma_minus, sigma_z
from triqom.dynamics import evolve_fock_superposition, hamiltonian
from triqom.lindblad import DissipatorSpec, _bohr_spread, _liouvillian

from conftest import TWO_PI, random_density, spy_calls

SQRT2 = math.sqrt(2.0)

# every rate nonzero, so build_dissipators keeps all seven channels
ALL_RATES = ModelParams(g=0.2, lam=0.25, kappa=0.05, gamma_m=0.02, Gamma=0.03,
                        Gamma_phi=0.04, n_th=0.5, n_q=0.3)


def _dense_liouvillian(p, cs, diss):
    # column k of the dense Liouvillian is the right-hand side of the k-th
    # row-major basis matrix
    d = cs.dim
    lio = np.empty((d * d, d * d), dtype=complex)
    for k in range(d * d):
        e = np.zeros(d * d, dtype=complex)
        e[k] = 1.0
        lio[:, k] = lindblad_rhs(e.reshape(d, d), p, cs, diss).reshape(-1)
    return lio


def _sparse_liouvillian(h, diss):
    # L = -i (H_eff x I - I x conj(H_eff)) + sum_k 2 r_k O_k x conj(O_k) on all
    # d^2 entries, H_eff = H - i sum_k r_k O_k'O_k
    d = h.shape[0]
    eye = sparse.identity(d, format="csr", dtype=complex)
    gain = sparse.csr_matrix((d, d), dtype=complex)
    jump = sparse.csr_matrix((d * d, d * d), dtype=complex)
    for ch in diss:
        o = sparse.csr_matrix(ch.operator)
        gain = gain + ch.rate * (o.conj().T @ o)
        jump = jump + (2.0 * ch.rate) * sparse.kron(o, o.conj(), format="csr")
    h_eff = h - 1j * gain
    return (-1j * (sparse.kron(h_eff, eye) - sparse.kron(eye, h_eff.conj())) + jump).tocsr()


def _assert_matches_dense_exponential(p, cs, diss=None, times=(0.0, 0.3, TWO_PI, 20.0)):
    from scipy.linalg import expm
    if diss is None:
        diss = build_dissipators(p, cs)
    d = cs.dim
    lio = _dense_liouvillian(p, cs, diss)
    rho0 = DensityMatrix(cs.space, random_density(d, np.random.default_rng(3)))
    traj = integrate(rho0, p, times, dissipators=diss)
    # the t = 0 sample is the Hermitian part that `integrate` propagates
    assert np.array_equal(traj.states[0].matrix, 0.5 * (rho0.matrix + rho0.matrix.conj().T))
    for t, state in zip(times, traj.states):
        want = (expm(t * lio) @ rho0.matrix.reshape(-1)).reshape(d, d)
        assert np.max(np.abs(state.matrix - want)) <= 1e-10


class TestRates:
    def test_dressed_rate_reduces_to_bare(self):
        assert dressed_dephasing_rate(0.3, 0.0, 0.7, 2.0) == 0.3
        assert dressed_dephasing_rate(0.3, 1e-4, 0.0, 2.0) == 0.3

    def test_dressed_rate_value(self):
        got = dressed_dephasing_rate(0.0, 1e-5, 1.0, 10.0)
        assert abs(got - 4e-5 / math.log(1.1)) < 1e-18

    def test_dressed_rate_rejects_zero_occupancy(self):
        with pytest.raises(ValueError):
            dressed_dephasing_rate(0.1, 1e-5, 0.5, 0.0)
        with pytest.raises(ValueError):
            dressed_dephasing_rate(-0.1, 1e-5, 0.5, 1.0)

    def test_photon_dephasing_value_and_limit(self):
        got = photon_dephasing_rate(1e-5, 0.2, 10.0)
        assert abs(got - 4e-5 * 0.04 / math.log(1.1)) < 1e-18
        assert photon_dephasing_rate(1e-5, 0.2, 0.0) == 0.0

    def test_photon_dephasing_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            photon_dephasing_rate(-1e-5, 0.2, 10.0)
        with pytest.raises(ValueError):
            photon_dephasing_rate(1e-5, 0.2, -1.0)


class TestBuildDissipators:
    def test_all_rates_zero_gives_empty_list(self):
        p = ModelParams(g=0.2, lam=0.25)
        assert build_dissipators(p, CompositeSpace(3, 4)) == []

    def test_channel_inventory_full_rates(self):
        p = ModelParams(g=0.2, lam=0.25, kappa=0.01, gamma_m=1e-4,
                        Gamma=1e-3, Gamma_phi=1e-2, n_th=2.0)
        chans = build_dissipators(p, CompositeSpace(3, 4))
        labels = [c.label for c in chans]
        assert sorted(labels) == sorted([
            "mech_decay", "mech_excite", "cavity_decay", "qubit_decay",
            "qubit_excite", "qubit_dephasing", "photon_dephasing"])
        by = {c.label: c for c in chans}
        assert abs(by["mech_decay"].rate - 1e-4 * 3.0) < 1e-18
        assert abs(by["mech_excite"].rate - 1e-4 * 2.0) < 1e-18
        assert abs(by["cavity_decay"].rate - 0.01) < 1e-18
        # common reservoir: qubit bath occupancy defaults to n_th
        assert abs(by["qubit_decay"].rate - 1e-3 * 3.0) < 1e-18
        assert abs(by["qubit_excite"].rate - 1e-3 * 2.0) < 1e-18
        want_phi = dressed_dephasing_rate(1e-2, 1e-4, 0.25, 2.0)
        assert abs(by["qubit_dephasing"].rate - 0.5 * want_phi) < 1e-18
        assert abs(by["photon_dephasing"].rate
                   - photon_dephasing_rate(1e-4, 0.2, 2.0)) < 1e-18

    def test_qubit_occupancy_override(self):
        p = ModelParams(g=0.2, lam=0.25, Gamma=1e-3, n_th=2.0, n_q=0.0)
        chans = build_dissipators(p, CompositeSpace(3, 4))
        by = {c.label: c for c in chans}
        assert "qubit_excite" not in by
        assert abs(by["qubit_decay"].rate - 1e-3) < 1e-18

    def test_dressed_mechanical_operator(self):
        p = ModelParams(g=0.3, lam=0.25, gamma_m=1e-4, n_th=1.0)
        cs = CompositeSpace(3, 4)
        by = {c.label: c for c in build_dissipators(p, cs)}
        b_full = embed(destroy(4), cs, "mech")
        num_full = embed(np.diag(np.arange(3, dtype=complex)), cs, "cavity")
        np.testing.assert_allclose(by["mech_decay"].operator.toarray(),
                                   b_full - 0.3 * num_full, rtol=0, atol=1e-14)
        np.testing.assert_allclose(by["mech_excite"].operator.toarray(),
                                   b_full.conj().T - 0.3 * num_full, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("label", [
        "mech_decay", "mech_excite", "cavity_decay", "qubit_decay",
        "qubit_excite", "qubit_dephasing", "photon_dephasing"])
    def test_every_channel_operator(self, label):
        p = ModelParams(g=0.3, lam=0.25, kappa=0.01, gamma_m=1e-4,
                        Gamma=1e-3, Gamma_phi=1e-2, n_th=2.0)
        cs = CompositeSpace(3, 4)
        b = embed(destroy(4), cs, "mech")
        num_c = embed(number_op(3), cs, "cavity")
        sm = embed(sigma_minus(), cs, "qubit")
        expected = {
            "mech_decay": b - 0.3 * num_c,
            "mech_excite": b.conj().T - 0.3 * num_c,
            "cavity_decay": embed(destroy(3), cs, "cavity"),
            "qubit_decay": sm,
            "qubit_excite": sm.conj().T,
            "qubit_dephasing": embed(sigma_z(), cs, "qubit"),
            "photon_dephasing": num_c,
        }[label]
        by = {c.label: c for c in build_dissipators(p, cs)}
        np.testing.assert_allclose(by[label].operator.toarray(), expected,
                                   rtol=0, atol=1e-14)

    def test_uncoupled_limit_gives_bare_mechanics(self):
        p = ModelParams(g=0.0, lam=0.25, gamma_m=1e-4, n_th=1.0)
        cs = CompositeSpace(3, 4)
        by = {c.label: c for c in build_dissipators(p, cs)}
        b_full = embed(destroy(4), cs, "mech")
        np.testing.assert_allclose(by["mech_decay"].operator.toarray(), b_full,
                                   rtol=0, atol=1e-14)
        assert "photon_dephasing" not in by

    def test_zero_occupancy_takes_analytic_limit(self):
        # n_th = 0: excitation channel absent, log-divergent rates go to zero
        p = ModelParams(g=0.2, lam=0.25, gamma_m=1e-4, Gamma_phi=1e-2, n_th=0.0)
        by = {c.label: c for c in build_dissipators(p, CompositeSpace(3, 4))}
        assert "mech_excite" not in by
        assert "photon_dephasing" not in by
        assert abs(by["qubit_dephasing"].rate - 0.5 * 1e-2) < 1e-18

    def test_dephasing_rate_override_pins_total(self):
        p = ModelParams(g=0.2, lam=0.25, gamma_m=1e-4, Gamma_phi=1e-2, n_th=2.0)
        by = {c.label: c for c in
              build_dissipators(p, CompositeSpace(3, 4), dephasing_rate=0.07)}
        assert abs(by["qubit_dephasing"].rate - 0.035) < 1e-18

    def test_rejects_negative_dephasing_override(self):
        p = ModelParams(g=0.2, lam=0.25)
        with pytest.raises(ValueError, match="dephasing_rate"):
            build_dissipators(p, CompositeSpace(3, 4), dephasing_rate=-0.5)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            DissipatorSpec("bad", -1.0, sparse.identity(4, format="csr"))


class TestRhs:
    def test_detailed_balance_fixed_point(self):
        p = ModelParams(g=0.0, lam=0.0, kappa=0.02, gamma_m=0.1,
                        Gamma=0.01, Gamma_phi=0.03, n_th=0.5, n_q=0.0)
        cs = CompositeSpace(3, 24)
        rho = tensor(qubit_state(0.0, 1.0).density_matrix(),
                     fock_state(0, 3).density_matrix(),
                     thermal_density(0.5, 24, label="mech"))
        out = lindblad_rhs(rho, p, cs)
        assert np.max(np.abs(out)) < 1e-10

    def test_trace_free_for_random_input(self):
        p = ModelParams(g=0.2, lam=0.25, kappa=0.01, gamma_m=1e-3,
                        Gamma=1e-3, Gamma_phi=1e-2, n_th=1.0)
        cs = CompositeSpace(4, 5)
        rng = np.random.default_rng(8)
        for _ in range(4):
            rho = DensityMatrix(cs.space, random_density(40, rng))
            out = lindblad_rhs(rho, p, cs)
            assert abs(np.trace(out)) < 1e-10

    def test_coherent_amplitude_decays_at_full_rate(self):
        # the factor-2 convention gives <a>(t) = alpha e^{-kappa t}, not kappa/2
        p = ModelParams(g=0.0, lam=0.0, alpha=1.0, kappa=0.05)
        cs = CompositeSpace(12, 1)
        rho0 = tensor(qubit_state(1.0, 1.0).density_matrix(),
                      coherent_state(1.0, 12).density_matrix(),
                      fock_state(0, 1, label="mech").density_matrix())
        traj = integrate(rho0, p, [1.0], OpenSystemConfig(dt=1e-3))
        a_full = embed(destroy(12), cs, "cavity")
        got = traj.states[-1].expect(a_full)
        assert abs(got - math.exp(-0.05)) < 1e-6


def _caller_csc(cs):
    # a real operator in CSC format, built the way a caller would: the cavity
    # quadrature a + a', which moves the photon number by +1 and -1
    x_cav = embed(destroy(cs.n_cav) + destroy(cs.n_cav).T, cs, "cavity").real
    return [DissipatorSpec("cavity_x", 0.05, sparse.csc_matrix(x_cav))]


class TestLiouvillian:
    @pytest.mark.parametrize("channels", ["none", "all_seven", "caller_csc"])
    def test_matches_rhs_entry_by_entry(self, channels):
        cs = CompositeSpace(2, 3)
        diss = {
            "none": [],
            "all_seven": build_dissipators(ALL_RATES, cs),
            "caller_csc": _caller_csc(cs),
        }[channels]
        got, mask, mu, _, _ = _liouvillian(ALL_RATES, cs, diss)
        want = _dense_liouvillian(ALL_RATES, cs, diss)
        # the label-breaking channel leaves one sector: every entry is kept
        assert mask.all() == (channels == "caller_csc")
        assert got.has_sorted_indices
        kept = np.flatnonzero(mask)
        block = want[np.ix_(kept, kept)]
        assert np.max(np.abs(got.toarray() - block)) <= 1e-14
        # mu is the mean of the propagated block's diagonal
        assert abs(mu - block.diagonal().real.mean()) <= 1e-15

    @pytest.mark.parametrize("dims", [(2, 3), (6, 8)])
    def test_no_entry_between_kept_and_dropped_rows(self, dims):
        n_cav, n_mech = dims
        cs = CompositeSpace(n_cav, n_mech)
        d = cs.dim
        diss = build_dissipators(ALL_RATES, cs)
        h = hamiltonian(ALL_RATES, cs, as_sparse=True)
        full = _sparse_liouvillian(h, diss)
        if dims == (2, 3):
            assert np.max(np.abs(full.toarray() - _dense_liouvillian(ALL_RATES, cs, diss))) <= 1e-14
        rank = np.arange(d) // n_mech
        kept = (rank[:, None] >= rank[None, :]).reshape(-1)
        assert kept.sum() == (d * d + 2 * n_cav * n_mech ** 2) // 2
        if dims == (6, 8):
            assert kept.sum() == 4992 and d * d == 9216
        assert abs(full[kept][:, ~kept]).sum() == 0.0
        assert abs(full[~kept][:, kept]).sum() == 0.0
        # the assembled kept block is that block of L, bit for bit
        got, mask, mu, _, _ = _liouvillian(ALL_RATES, cs, diss)
        assert np.array_equal(mask, kept.reshape(d, d))
        want = full[kept][:, kept]
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field
        assert mu == want.diagonal().real.mean()

    @pytest.mark.parametrize("dims, kept, total", [((6, 8), 4992, 9216),
                                                   ((14, 16), 103936, 200704)])
    def test_kept_widths_are_the_readme_shares(self, dims, kept, total):
        cs = CompositeSpace(*dims)
        mask = _liouvillian(ALL_RATES, cs, build_dissipators(ALL_RATES, cs))[1]
        assert (mask.sum(), mask.size) == (kept, total)


class TestBohrSpread:
    @pytest.mark.parametrize("dims, channels", [((2, 3), "all_seven"), ((6, 8), "all_seven"),
                                                ((2, 3), "caller_csc")])
    def test_block_spread_equals_the_dense_spread(self, monkeypatch, dims, channels):
        cs = CompositeSpace(*dims)
        diss = build_dissipators(ALL_RATES, cs) if channels == "all_seven" else _caller_csc(cs)
        h = hamiltonian(ALL_RATES, cs, as_sparse=True)
        energies = np.linalg.eigvalsh(h.toarray())

        def dense(self, *args, **kwargs):
            raise AssertionError("the assembly built a dense matrix")

        # the spread comes from H's (q, n) blocks, never from the d x d H
        monkeypatch.setattr(sparse.csr_matrix, "toarray", dense)
        _liouvillian(ALL_RATES, cs, diss)
        assert _bohr_spread(ALL_RATES, cs) == energies[-1] - energies[0]


class TestMemoryEstimate:
    def test_estimate_exceeds_the_traced_peak_of_a_dressed_cell(self, monkeypatch):
        self._assert_estimate_exceeds_the_traced_peak(monkeypatch, 6, 8, dressed=True)

    def test_estimate_exceeds_the_traced_peak_of_a_lossless_cell(self, monkeypatch):
        # assembly has its largest share of the peak here
        self._assert_estimate_exceeds_the_traced_peak(monkeypatch, 6, 8, dressed=False)

    def test_estimate_exceeds_the_traced_peak_of_a_shipped_size_cell(self, monkeypatch):
        # a dressed cell at the size of open_sweep.cfg
        self._assert_estimate_exceeds_the_traced_peak(monkeypatch, 14, 16, dressed=True)

    @staticmethod
    def _assert_estimate_exceeds_the_traced_peak(monkeypatch, n_cav, n_mech, dressed):
        # the open-cell benchmark's rates: every channel on, or none
        import tracemalloc

        rates = dict(kappa=1e-2, gamma_m=1e-5, Gamma=1e-3, n_th=10.0, n_q=10.0) if dressed else {}
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, beta=0.5, **rates)
        cs = CompositeSpace(n_cav, n_mech)
        rho0 = tensor(qubit_state(1.0, 1.0),
                      coherent_state(1.0, n_cav, label="cavity", tail_tol=1e-3),
                      coherent_state(0.5, n_mech, label="mech", tail_tol=1e-3)).density_matrix()
        diss = build_dissipators(p, cs, dephasing_rate=1e-2 if dressed else 0.0)
        assert len(diss) == (7 if dressed else 0)
        tracemalloc.start()
        try:
            integrate(rho0, p, [TWO_PI], dissipators=diss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr("triqom.core._memory_budget", lambda: peak)
        with pytest.raises(MemoryError, match="open sweep"):
            _liouvillian(p, cs, diss)


class TestIntegrate:
    def test_lossless_matches_closed_dynamics(self):
        p = ModelParams(g=0.15, lam=0.4, beta=0.4)
        cs = CompositeSpace(2, 20)
        psi0 = evolve_fock_superposition(0.0, p, cs)
        rho0 = psi0.density_matrix()
        traj = integrate(rho0, p, [TWO_PI], OpenSystemConfig(dt=1e-3))
        ref = evolve_unitary(psi0, TWO_PI, p)
        fid = np.vdot(ref.amplitudes, traj.states[-1].matrix @ ref.amplitudes).real
        assert fid > 1.0 - 1e-6

    def test_damped_cavity_mean_photon(self):
        p = ModelParams(g=0.0, lam=0.0, alpha=2.0, kappa=1e-2)
        cs = CompositeSpace(28, 1)
        rho0 = tensor(qubit_state(1.0, 1.0).density_matrix(),
                      coherent_state(2.0, 28).density_matrix(),
                      fock_state(0, 1, label="mech").density_matrix())
        traj = integrate(rho0, p, [TWO_PI], OpenSystemConfig(dt=1e-3))
        num = embed(np.diag(np.arange(28, dtype=complex)), cs, "cavity")
        got = traj.states[-1].expect(num)
        want = 4.0 * math.exp(-2.0 * 1e-2 * TWO_PI)
        assert abs(got - want) < 1e-4

    def test_trajectory_stays_physical(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=0.8, kappa=0.01, gamma_m=1e-4,
                        Gamma=1e-3, Gamma_phi=1e-2, n_th=0.3)
        cs = CompositeSpace(8, 12)
        rho0 = sweep_initial_state(p, cs)
        traj = integrate(rho0, p, [math.pi, TWO_PI], OpenSystemConfig(dt=2e-3))
        for state in traj.states:
            m = state.matrix
            assert abs(state.trace() - 1.0) < 1e-6
            assert np.max(np.abs(m - m.conj().T)) < 1e-8
            assert np.linalg.eigvalsh(m).min() > -1e-6
        # dissipation cannot beat the lossless cycle entanglement
        closed = negativity(qubit_cavity_at_cycle(1, p, n_cav=8), ("qubit",))
        rho_qc = partial_trace(traj.states[-1], ("qubit", "cavity"))
        assert negativity(rho_qc, ("qubit",)) <= closed + 1e-6

    def test_step_halving_stability(self):
        p = ModelParams(g=0.1, lam=0.2, alpha=0.8, kappa=0.02, n_th=0.0)
        cs = CompositeSpace(8, 10)
        rho0 = sweep_initial_state(p, cs)
        a = integrate(rho0, p, [1.0], OpenSystemConfig(dt=2e-3)).states[-1]
        b = integrate(rho0, p, [1.0], OpenSystemConfig(dt=1e-3)).states[-1]
        assert np.max(np.abs(a.matrix - b.matrix)) < 1e-6

    def test_matches_dense_liouvillian_exponential(self):
        diss = build_dissipators(ALL_RATES, CompositeSpace(2, 3))
        assert len(diss) == 7
        _assert_matches_dense_exponential(ALL_RATES, CompositeSpace(2, 3))

    @pytest.mark.parametrize("case", ["dissipation_beyond_spread", "zero_spread",
                                      "zero_spread_no_channel"])
    def test_matches_dense_exponential_off_the_shipped_rates(self, case):
        p, cs = {
            # 40 x ALL_RATES: the dissipative part of L outweighs the Bohr
            # spread of H, the non-normal regime the expansion has no a priori
            # bound for
            "dissipation_beyond_spread": (
                ALL_RATES.with_rates(kappa=2.0, gamma_m=0.8, Gamma=1.2, Gamma_phi=1.6),
                CompositeSpace(2, 3)),
            # g = lam = 0 and one mechanics level: H = 0, so only the bound on
            # the dissipative part sets the expansion's radius
            "zero_spread": (ALL_RATES.with_rates(g=0.0, lam=0.0), CompositeSpace(3, 1)),
            "zero_spread_no_channel": (ModelParams(g=0.0, lam=0.0), CompositeSpace(3, 1)),
        }[case]
        energies = np.linalg.eigvalsh(hamiltonian(p, cs))
        spread = energies[-1] - energies[0]
        diss = build_dissipators(p, cs)
        dissipative = _dense_liouvillian(p, cs, diss) - _dense_liouvillian(p, cs, [])
        norm1 = np.abs(dissipative).sum(axis=0).max()
        if case == "dissipation_beyond_spread":
            assert len(diss) == 7 and norm1 > spread
        else:
            assert spread == 0.0 and (norm1 > 0.0) == (case == "zero_spread")
        _assert_matches_dense_exponential(p, cs)

    @pytest.mark.parametrize("gamma_phi, cycles", [(1.0, 50), (100.0, 1)],
                             ids=["long_span", "strong_dephasing"])
    def test_long_or_strongly_dissipative_span_matches_dense_exponential(self, gamma_phi,
                                                                         cycles):
        # open-sweep cells whose one-piece expansion overflows: the span times
        # the dissipative bound D of `_liouvillian` is 628 and 1257, above the
        # 100 that one piece may carry
        p = ModelParams(g=0.2, lam=0.25, alpha=0.05, beta=0.05, Gamma_phi=gamma_phi)
        cs = CompositeSpace(3, 4)
        span = TWO_PI * cycles
        assert span * _liouvillian(p, cs, build_dissipators(p, cs))[4] > 600.0
        _assert_matches_dense_exponential(p, cs, times=(0.0, span))

    def test_label_breaking_channel_matches_dense_exponential(self):
        # one self-mirrored sector: all of rho goes through the same propagator
        cs = CompositeSpace(2, 3)
        diss = _caller_csc(cs)
        assert _liouvillian(ALL_RATES, cs, diss)[1].all()
        _assert_matches_dense_exponential(ALL_RATES, cs, diss)

    def test_start_enters_as_its_hermitian_part(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=0.5, kappa=0.01, gamma_m=1e-4,
                        Gamma=1e-3, Gamma_phi=1e-2, n_th=0.1)
        cs = CompositeSpace(6, 8)
        m = sweep_initial_state(p, cs).matrix
        rng = np.random.default_rng(5)
        bent = m + 1e-9 * (rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
        herm = 0.5 * (bent + bent.conj().T)
        assert np.abs(bent - bent.conj().T).max() > 1e-10
        times = [0.0, 1.0, TWO_PI]
        got = integrate(DensityMatrix(cs.space, bent), p, times)
        want = integrate(DensityMatrix(cs.space, herm), p, times)
        for a, b in zip(got.states, want.states):
            assert np.abs(a.matrix - b.matrix).max() <= 1e-15

    def test_positivity_violation_aborts(self):
        p = ModelParams(g=0.1, lam=0.2)
        cs = CompositeSpace(3, 4)
        m = np.zeros((24, 24), dtype=complex)
        m[0, 0], m[1, 1] = 1.001, -0.001
        bad = DensityMatrix(cs.space, m)
        with pytest.raises(IntegrationError):
            integrate(bad, p, [0.05], OpenSystemConfig(dt=1e-3))

    def test_rejects_bad_sample_times(self):
        p = ModelParams(g=0.1, lam=0.2, alpha=0.0)
        rho0 = sweep_initial_state(p, CompositeSpace(4, 4))
        with pytest.raises(ValueError):
            integrate(rho0, p, [], OpenSystemConfig())
        with pytest.raises(ValueError):
            integrate(rho0, p, [1.0, 0.5], OpenSystemConfig())
        with pytest.raises(ValueError):
            OpenSystemConfig(dt=0.0)


def _bare_matrix_rhs(monkeypatch):
    lindblad_rhs(np.eye(4) / 4, ModelParams(g=0.1, lam=0.2))


def _drifting_trace(monkeypatch):
    action = lindblad._chebyshev_action
    monkeypatch.setattr(lindblad, "_chebyshev_action", lambda *args: 1.01 * action(*args))
    p = ModelParams(g=0.1, lam=0.2, alpha=0.0, kappa=0.01)
    integrate(sweep_initial_state(p, CompositeSpace(3, 4)), p, [0.5])


def _stalled_series(monkeypatch):
    # ||M|| = 40 far beyond the radius 1 the caller claims: the terms grow
    # through all 2 tau + 64 of them, without overflow (warnings are errors)
    scaled = 40.0 * sparse.identity(4, format="csr", dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lindblad._chebyshev_action(scaled, 0.0, 1.0, 1.0, np.ones(4, dtype=complex))


@pytest.mark.parametrize("call, error, match", [
    (_bare_matrix_rhs, ValueError, "cspace required when passing a bare matrix"),
    (_drifting_trace, IntegrationError, r"trace drift 1\.000e-02 at t = 0\.500000 exceeds"),
    (_stalled_series, IntegrationError,
     r"Chebyshev series did not converge within 66 terms \(tau = 1\)"),
], ids=["bare matrix", "trace drift", "stalled series"])
def test_failures_are_raised_by_name(monkeypatch, call, error, match):
    with pytest.raises(error, match=match):
        call(monkeypatch)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_sample_times_are_rejected(monkeypatch, bad):
    # nan used to return rho0 as its sample, and inf to overflow in the expansion
    p = ModelParams(g=0.1, lam=0.2, alpha=0.0, kappa=0.01)
    rho0 = sweep_initial_state(p, CompositeSpace(3, 4))
    builds = spy_calls(monkeypatch, lindblad._liouvillian)
    for times in ([bad], [0.5, bad]):
        with pytest.raises(ValueError, match="sample times must be finite"):
            integrate(rho0, p, times)
    with pytest.raises(ValueError, match="sample times must be finite"):
        negativity_sweep([0.0], [0.0], p, rho0, t_cycle=bad)
    assert builds == []


def test_a_channel_of_the_wrong_shape_is_rejected_before_the_build(monkeypatch):
    p = ModelParams(g=0.1, lam=0.2, alpha=0.0)
    rho0 = sweep_initial_state(p, CompositeSpace(8, 3))
    builds = spy_calls(monkeypatch, lindblad._liouvillian)
    with pytest.raises(ValueError, match=r"channel x: operator of shape \(5, 5\) "
                                         r"on a space of shape \(48, 48\)"):
        integrate(rho0, p, [0.5], dissipators=[DissipatorSpec("x", 0.1, np.eye(5))])
    assert builds == []


def test_a_long_span_refuses_before_its_coefficient_table(monkeypatch):
    # a lossless 3 x 4 cell whose Liouvillian fits the budget exactly; at t =
    # 1e4 its single piece needs 2 tau + 64 Bessel values, about 1.2 MB
    p = ModelParams(g=0.1, lam=0.25, alpha=0.05)
    rho0 = sweep_initial_state(p, CompositeSpace(3, 4))
    needs = []
    require = core._require_bytes
    monkeypatch.setattr(core, "_require_bytes",
                        lambda need, what: needs.append(need) or require(need, what))
    integrate(rho0, p, [0.5])
    monkeypatch.setattr(core, "_memory_budget", lambda: needs[0])
    calls = []
    jv = scipy.special.jv
    monkeypatch.setattr(scipy.special, "jv", lambda *args: calls.append(args) or jv(*args))
    with pytest.raises(MemoryError, match=r"the Chebyshev series at tau = "):
        integrate(rho0, p, [1e4])
    assert calls == []


class TestSweep:
    def test_initial_state_structure(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, n_th=0.4)
        cs = CompositeSpace(10, 12)
        rho0 = sweep_initial_state(p, cs)
        assert abs(rho0.trace() - 1.0) < 1e-10
        rho_q = partial_trace(rho0, ("qubit",)).matrix
        np.testing.assert_allclose(rho_q, np.full((2, 2), 0.5), rtol=0, atol=1e-12)
        rho_m = partial_trace(rho0, ("mech",)).matrix
        np.testing.assert_allclose(rho_m, thermal_density(0.4, 12).matrix,
                                   rtol=0, atol=1e-12)
        rho_c = partial_trace(rho0, ("cavity",)).matrix
        ref = coherent_state(1.0, 10).density_matrix().matrix
        np.testing.assert_allclose(rho_c, ref, rtol=0, atol=1e-12)

    def test_lossless_cell_recovers_closed_value(self):
        p = ModelParams(g=0.1, lam=0.25, alpha=0.8, n_th=0.0)
        cs = CompositeSpace(8, 14)
        rho0 = sweep_initial_state(p, cs)
        rows = negativity_sweep([0.0], [0.0], p, rho0=rho0,
                                config=OpenSystemConfig(dt=2e-3))
        assert len(rows) == 1
        closed = negativity(qubit_cavity_at_cycle(1, p, n_cav=8), ("qubit",))
        assert abs(rows[0][2] - closed) < 1e-4

    def test_dephasing_monotonically_degrades(self):
        p = ModelParams(g=0.1, lam=0.25, alpha=0.8, kappa=0.01, gamma_m=1e-4,
                        n_th=0.3)
        cs = CompositeSpace(8, 14)
        rho0 = sweep_initial_state(p, cs)
        rows = negativity_sweep([1e-3], [0.0, 0.05, 0.2], p, rho0=rho0,
                                config=OpenSystemConfig(dt=5e-3))
        negs = [r[2] for r in rows]
        assert all(b <= a + 1e-10 for a, b in zip(negs, negs[1:]))

    def test_each_cell_is_one_integrate_call(self, monkeypatch):
        p = ModelParams(g=0.1, lam=0.25, alpha=0.3, kappa=0.01, gamma_m=1e-4, n_th=0.1)
        cs = CompositeSpace(5, 6)
        rho0 = sweep_initial_state(p, cs)
        calls = spy_calls(monkeypatch, integrate)
        rows = negativity_sweep([0.0, 1e-3], [0.0, 0.05], p, rho0=rho0)
        assert len(calls) == len(rows) == 4
        monkeypatch.undo()
        for big_gamma, gphi, neg in rows:
            diss = build_dissipators(p.with_rates(Gamma=big_gamma), cs, dephasing_rate=gphi)
            state = integrate(rho0, p, [TWO_PI], dissipators=diss).states[-1]
            assert neg == negativity(partial_trace(state, ("qubit", "cavity")), ("qubit",))

    def test_a_sweep_lifts_each_operator_once(self, monkeypatch):
        p = ModelParams(g=0.1, lam=0.25, alpha=0.05, kappa=0.01, gamma_m=1e-4)
        rho0 = sweep_initial_state(p, CompositeSpace(3, 4))
        core._operator_table.cache_clear()
        calls = spy_calls(monkeypatch, _lift)
        negativity_sweep([0.0, 1e-3], [0.0], p, rho0=rho0)
        # a, num_c, b, num_m, sz and sm, shared by H and both cells' channels
        assert len(calls) == 6

    def test_a_cell_refuses_before_it_builds(self, monkeypatch):
        # a lossless cell, then one with qubit decay, whose estimate is larger
        p = ModelParams(g=0.1, lam=0.25, alpha=0.05)
        rho0 = sweep_initial_state(p, CompositeSpace(3, 4))
        needs = []
        require = core._require_bytes

        def record(need, what):
            if what.startswith("the open sweep"):  # not each Chebyshev table's
                needs.append(need)
            require(need, what)

        monkeypatch.setattr(core, "_require_bytes", record)
        negativity_sweep([0.0, 1e-3], [0.0], p, rho0=rho0)
        assert len(needs) == 2 and needs[0] < needs[1]
        monkeypatch.setattr(core, "_memory_budget", lambda: needs[0])
        # the lossless first cell takes two Kronecker products of -iH; the
        # second refuses before its first
        calls = []
        kron = sparse.kron
        monkeypatch.setattr(sparse, "kron", lambda *args, **kwargs:
                            calls.append(args) or kron(*args, **kwargs))
        with pytest.raises(MemoryError, match="open sweep"):
            negativity_sweep([0.0, 1e-3], [0.0], p, rho0=rho0)
        assert len(calls) == 2
