import math

import numpy as np
import pytest

from triqom import (
    BipartitePartition,
    CompositeSpace,
    DensityMatrix,
    ModelParams,
    PureState,
    Space,
    coherent_dim,
    entanglement_record,
    evolve_coherent,
    evolve_fock_superposition,
    evolve_thermal,
    intrinsic_qc_2pi_coherent,
    intrinsic_qc_analytic_fock,
    intrinsic_qc_numeric,
    linear_entropy,
    negativity,
    partial_trace,
    partial_transpose,
    qubit_cavity_at_cycle,
    tensor,
    thermal_density,
)
from triqom.core import coherent_state, fock_state, qubit_state

from conftest import (
    TWO_PI,
    random_density,
    random_pure,
    random_unitary,
    schmidt_negativity,
)


def _bell() -> DensityMatrix:
    space = Space(("qubit", "cavity"), (2, 2))
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return PureState(space, v).density_matrix()


def _two_party(mat_a, mat_b) -> DensityMatrix:
    space = Space(("qubit", "cavity"), (mat_a.shape[0], mat_b.shape[0]))
    return DensityMatrix(space, np.kron(mat_a, mat_b))


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(0)
        space = Space(("qubit", "cavity", "mech"), (2, 3, 4))
        rho = DensityMatrix(space, random_density(24, rng))
        once = partial_transpose(rho, ("cavity",))
        twice = partial_transpose(DensityMatrix(space, once), ("cavity",))
        np.testing.assert_array_equal(twice, rho.matrix)
        # transposing both sides at once equals the full transpose
        both = partial_transpose(rho, ("qubit", "cavity", "mech"))
        np.testing.assert_array_equal(both, rho.matrix.T)

    def test_product_state_stays_positive(self):
        rng = np.random.default_rng(1)
        ra, rb = random_density(2, rng), random_density(5, rng)
        rho = _two_party(ra, rb)
        pt = partial_transpose(rho, ("cavity",))
        np.testing.assert_allclose(pt, np.kron(ra, rb.T), rtol=0, atol=1e-14)
        w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
        assert w.min() > -1e-12

    def test_bell_minimum_eigenvalue(self):
        pt = partial_transpose(_bell(), ("qubit",))
        w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
        assert abs(w.min() + 0.5) < 1e-12

    def test_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            partial_transpose(_bell(), ("mech",))


class TestNegativity:
    def test_bell_is_half(self):
        assert abs(negativity(_bell(), ("qubit",)) - 0.5) < 1e-12

    def test_product_states_vanish(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            rho = _two_party(random_density(2, rng), random_density(6, rng))
            assert negativity(rho, ("qubit",)) < 1e-10

    def test_schmidt_oracle_on_random_pure_states(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            da = int(rng.integers(2, 5))
            db = int(rng.integers(2, 7))
            v = random_pure(da * db, rng)
            space = Space(("cavity", "mech"), (da, db))
            got = negativity(PureState(space, v), ("cavity",))
            want = schmidt_negativity(v, da, db)
            assert abs(got - want) < 1e-8

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(4)
        da, db = 3, 5
        v = random_pure(da * db, rng)
        space = Space(("cavity", "mech"), (da, db))
        base = negativity(PureState(space, v), ("cavity",))
        for _ in range(5):
            u = np.kron(random_unitary(da, rng), random_unitary(db, rng))
            rotated = negativity(PureState(space, u @ v), ("cavity",))
            assert abs(rotated - base) < 1e-8

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            BipartitePartition(("qubit",), ("qubit", "cavity"))
        with pytest.raises(ValueError):
            BipartitePartition((), ("cavity",))
        part = BipartitePartition(("qubit",), ("cavity",))
        assert abs(negativity(_bell(), part) - 0.5) < 1e-12
        space = Space(("qubit", "cavity", "mech"), (2, 2, 2))
        rho = DensityMatrix(space, np.eye(8, dtype=complex) / 8.0)
        with pytest.raises(ValueError):
            negativity(rho, part)  # does not cover mech
        with pytest.raises(ValueError, match="proper nonempty subset"):
            negativity(rho, ("qubit", "cavity", "mech"))

    def test_rejects_non_hermitian(self):
        space = Space(("qubit", "cavity"), (2, 2))
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.3
        with pytest.raises(ValueError):
            negativity(DensityMatrix(space, m), ("qubit",))


class TestLinearEntropy:
    def test_pure_state_zero(self):
        assert linear_entropy(coherent_state(1.3, 14)) == 0.0
        rho = coherent_state(1.3, 14).density_matrix()
        assert abs(linear_entropy(rho)) < 1e-10

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(Space(("qubit",), (2,)), np.eye(2, dtype=complex) / 2.0)
        assert abs(linear_entropy(rho) - 0.5) < 1e-12

    def test_thermal_value(self):
        # sum p_n^2 = 1/(2 nbar + 1) for a geometric distribution
        rho = thermal_density(4.0, 80)
        assert abs(linear_entropy(rho) - (1.0 - 1.0 / 9.0)) < 1e-8


class TestIntrinsicMeasure:
    def test_product_state_zero(self):
        psi = tensor(qubit_state(1.0, 0.5),
                     coherent_state(0.8, 12),
                     coherent_state(0.5, 12, label="mech"))
        assert abs(intrinsic_qc_numeric(psi)) < 1e-10

    def test_unit_maximum_at_special_couplings(self):
        p = ModelParams(g=0.2, lam=0.625, beta=1.0)
        psi = evolve_fock_superposition(TWO_PI, p)
        assert abs(intrinsic_qc_numeric(psi) - 1.0) < 1e-6

    def test_analytic_fock_special_values(self):
        p = ModelParams(g=0.2, lam=0.625)
        assert intrinsic_qc_analytic_fock(0.0, p) == 0.0
        assert abs(intrinsic_qc_analytic_fock(TWO_PI, p) - 1.0) < 1e-12
        p2 = ModelParams(g=0.1, lam=0.4)
        want = math.sin(4.0 * 0.1 * 0.4 * math.pi) ** 2
        assert abs(intrinsic_qc_analytic_fock(TWO_PI, p2) - want) < 1e-12

    def test_analytic_matches_numeric_generic_time(self):
        p = ModelParams(g=0.2, lam=0.25, beta=1.0)
        for t in (0.8, 2.0, math.pi, 5.1):
            psi = evolve_fock_superposition(t, p)
            diff = abs(intrinsic_qc_numeric(psi) - intrinsic_qc_analytic_fock(t, p))
            assert diff < 1e-6

    def test_analytic_matches_numeric_random_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = float(rng.uniform(0.0, 2 * TWO_PI))
            g = float(rng.uniform(1e-3, 1.0))
            lam = float(rng.uniform(1e-3, 1.0))
            p = ModelParams(g=g, lam=lam, beta=1.0)
            psi = evolve_fock_superposition(t, p)
            diff = abs(intrinsic_qc_numeric(psi) - intrinsic_qc_analytic_fock(t, p))
            assert diff < 1e-6

    def test_coherent_period_closed_form(self):
        assert intrinsic_qc_2pi_coherent(ModelParams(g=0.2, lam=0.3, alpha=0.0)) == 0.0
        assert intrinsic_qc_2pi_coherent(ModelParams(g=0.0, lam=0.3, alpha=2.0)) == 0.0
        p = ModelParams(g=0.25, lam=0.5, alpha=2.0)  # g*lam = 1/8
        assert abs(intrinsic_qc_2pi_coherent(p) - (1.0 - math.exp(-16.0))) < 1e-12

    def test_coherent_period_matches_numeric(self):
        rng = np.random.default_rng(6)
        for alpha in (1.0, 2.0):
            for _ in range(3):
                g = float(rng.uniform(1e-2, 0.7))
                lam = float(rng.uniform(1e-2, 0.7))
                p = ModelParams(g=g, lam=lam, alpha=alpha, beta=2.0)
                cs = CompositeSpace(coherent_dim(alpha), 30)
                psi = evolve_coherent(TWO_PI, p, cs)
                diff = abs(intrinsic_qc_numeric(psi) - intrinsic_qc_2pi_coherent(p))
                assert diff < 1e-5


class TestRecordsAndFamilies:
    def test_mediator_disentangles_each_cycle(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, beta=1.0)
        cs = CompositeSpace(12, 30)
        for cycle in range(1, 6):
            rec = entanglement_record(evolve_coherent(cycle * TWO_PI, p, cs),
                                      cycle * TWO_PI)
            assert rec.neg_qo < 1e-6
            assert rec.neg_oc < 1e-6
            assert rec.neg_qc >= 0.0

    def test_record_fields_product_state(self):
        psi = tensor(qubit_state(1.0, 1.0),
                     coherent_state(1.0, 12),
                     coherent_state(0.5, 12, label="mech"))
        rec = entanglement_record(psi, 0.0)
        assert rec.time == 0.0
        assert rec.neg_qc < 1e-10
        assert rec.neg_qo < 1e-10
        assert rec.neg_oc < 1e-10
        assert abs(rec.intrinsic_qc) < 1e-10

    def test_cycle_negativity_tracks_effective_size(self):
        # empirical: N of the one-cycle state grows with alpha*|sin(4 g lam pi)|
        lam = 0.25
        points = []
        for alpha in (0.6, 1.1, 2.3):
            for g in (0.12, 0.29):
                x = alpha * abs(math.sin(4.0 * g * lam * math.pi))
                p = ModelParams(g=g, lam=lam, alpha=alpha)
                psi = qubit_cavity_at_cycle(1, p)
                points.append((x, negativity(psi, ("qubit",))))
        points.sort()
        xs = [x for x, _ in points]
        assert len(set(round(x, 9) for x in xs)) == len(xs)
        for (_, n1), (_, n2) in zip(points, points[1:]):
            assert n2 > n1


def _uncompressed_record(state, t):
    """entanglement_record's fields computed on the state exactly as given."""
    rho_qc = partial_trace(state, ("qubit", "cavity"))
    rho_qo = partial_trace(state, ("qubit", "mech"))
    rho_oc = partial_trace(state, ("cavity", "mech"))
    s_q = linear_entropy(partial_trace(rho_qc, ("qubit",)))
    s_c = linear_entropy(partial_trace(rho_qc, ("cavity",)))
    s_o = linear_entropy(partial_trace(rho_qo, ("mech",)))
    return (float(t), negativity(rho_qc, ("qubit",)), negativity(rho_qo, ("qubit",)),
            negativity(rho_oc, ("cavity",)), float(s_q + s_c - s_o))


def _fields(rec):
    return (rec.time, rec.neg_qc, rec.neg_qo, rec.neg_oc, rec.intrinsic_qc)


class TestMechanicsCompression:
    P = ModelParams(g=0.2, lam=0.25, alpha=1.0, beta=1.0)

    @pytest.mark.parametrize("evolve, cspace, t", [
        (evolve_coherent, CompositeSpace(8, 30), 1.3),
        (evolve_coherent, CompositeSpace(8, 30), 3.7),
        (evolve_coherent, CompositeSpace(8, 30), TWO_PI),
        (evolve_fock_superposition, CompositeSpace(2, 30), 1.3),
        (evolve_coherent, CompositeSpace(12, 10), 3.7),  # n_mech < 2 n_cav
        (evolve_coherent, CompositeSpace(8, 30), 0.02),  # r = 7, and r_c = 6 of 8
    ])
    def test_pure_record_matches_uncompressed(self, evolve, cspace, t):
        psi = evolve(t, self.P, cspace)
        got = _fields(entanglement_record(psi, t))
        want = _uncompressed_record(psi, t)
        assert max(abs(a - b) for a, b in zip(got, want)) < 1e-12
        assert max(want[1:4]) > 1e-3  # not a trivial product state

    def test_density_matrix_is_not_compressed(self):
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, nbar_mech=0.5)
        rho = evolve_thermal(1.3, p, CompositeSpace(6, 20))
        assert _fields(entanglement_record(rho, 1.3)) == _uncompressed_record(rho, 1.3)

    def _spied_widths(self, monkeypatch, t, thermal=False):
        import triqom.entanglement as ent
        from triqom.dynamics import _thermal_purification

        widths = {}
        real = ent._negativities

        def spy(rhos, space, side):
            widths[space.labels] = space.dim
            return real(rhos, space, side)

        monkeypatch.setattr(ent, "_negativities", spy)
        if thermal:
            p = ModelParams(g=0.2, lam=0.25, alpha=2.0, nbar_mech=0.5)
            y, _ = _thermal_purification(np.array([t]), p, CompositeSpace(20, 40))
            ent._records(y, 20)
        else:
            p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0)
            entanglement_record(evolve_coherent(t, p, CompositeSpace(24, 70)), t)
        return widths

    def test_mechanics_factors_out_at_full_period(self, monkeypatch):
        widths = self._spied_widths(monkeypatch, TWO_PI)
        # rank-1 mechanics, and a cavity of rank 2 (one state per qubit branch)
        assert widths[("cavity", "mech")] == 2
        assert widths[("qubit", "mech")] == 2
        assert widths[("qubit", "cavity")] == 4

    def test_generic_time_keeps_at_most_the_branch_span(self, monkeypatch):
        widths = self._spied_widths(monkeypatch, 1.3)
        assert widths[("cavity", "mech")] <= 24 * min(2 * 24, 70)
        assert widths[("qubit", "mech")] <= 2 * min(2 * 24, 70)

    @pytest.mark.parametrize("t, width", [(0.0, 40), (TWO_PI, 80), (2 * TWO_PI, 80),
                                          (1.3, 800)])
    def test_thermal_sample_compresses_its_cavity(self, monkeypatch, t, width):
        # each purification row carries its own Fock level, so the mechanics
        # keeps all 40; the cavity collapses to rank 1 at t = 0 and 2 at 2 pi l.
        # The oc reduction is r_c x 40 wide and the qc one 2 r_c: 2, 4, 4 and 40
        widths = self._spied_widths(monkeypatch, t, thermal=True)
        assert widths[("cavity", "mech")] == width
        assert widths[("qubit", "cavity")] == width // 20
        assert widths[("qubit", "mech")] == 80

    def test_compressed_cavity_matches_uncompressed(self, monkeypatch):
        import triqom.entanglement as ent

        # S = 3 samples of K = 3 rows whose cavity lies in a random 3-dimensional
        # subspace of n_cav = 8 levels; the mechanics (5 levels) stays full rank
        rng = np.random.default_rng(11)
        n_cav, n_mech = 8, 5
        shape = (3, 3, 2, 3, n_mech)
        amps = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        amps /= np.linalg.norm(amps.reshape(3, -1), axis=1)[:, None, None, None, None]
        w = random_unitary(n_cav, rng)[:, :3]
        y = np.einsum("skqcm,Cc->skqCm", amps, w).reshape(3, 3, 2 * n_cav, n_mech)
        widths = []
        real = ent._negativities

        def spy(rhos, space, side):
            widths.append((space.labels, space.dim))
            return real(rhos, space, side)

        monkeypatch.setattr(ent, "_negativities", spy)
        rows = ent._records(y, n_cav)
        monkeypatch.undo()
        assert (("cavity", "mech"), 3 * n_mech) in widths
        for row, sample in zip(rows, y):
            v = sample.reshape(3, -1)
            rho = DensityMatrix(CompositeSpace(n_cav, n_mech).space, v.T @ v.conj())
            want = _uncompressed_record(rho, 0.0)[1:]
            assert max(abs(a - b) for a, b in zip(row, want)) <= 1e-12
            assert want[2] > 0.1


class TestStackedKernel:
    def test_stacks_stay_within_the_byte_budget(self):
        # sizes only, nothing is allocated
        from triqom.entanglement import _STACK_BYTES, _chunks, _sample_bytes

        # coherent_series.cfg (65 samples at 24 x 70), fock_maximal.cfg, and
        # thermal stacks of K = n_mech amplitude matrices per sample
        for n_cav, n_mech, k, samples in ((24, 70, 1, 65), (2, 36, 1, 401),
                                          (20, 40, 40, 3), (2, 4, 4, 50)):
            top = min(2 * k * n_cav, n_mech)  # the highest mechanics rank
            amplitudes = 16 * (2 * k * n_cav * n_mech + 2 * k * n_cav * top + top * n_mech)
            reductions = [16 * max(2 * n_cav, 2 * r, n_cav * r) ** 2 for r in range(1, top + 1)]
            chunks = _chunks(samples, _sample_bytes(n_cav, n_mech, k))
            assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
            assert chunks[0].start == 0 and chunks[-1].stop == samples
            for c in chunks:
                n = c.stop - c.start
                assert n == 1 or n * max(amplitudes, *reductions) <= _STACK_BYTES
        # a full-rank 24 x 70 sample's neg_oc reduction is 1152^2 (21 MB), so
        # that series runs one sample at a time and peaks no higher than before
        assert len(_chunks(65, _sample_bytes(24, 70))) == 65
        assert len(_chunks(401, _sample_bytes(2, 36))) == 1
        # a thermal sample at 20 x 40 reduces neg_oc at 800^2 (10 MB), one
        # sample per chunk; at 2 x 4 one chunk holds the whole series
        assert len(_chunks(3, _sample_bytes(20, 40, 40))) == 3
        assert len(_chunks(50, _sample_bytes(2, 4, 4))) == 1

    @pytest.mark.parametrize("build, params, size, budget", [
        # 3 x _sample_bytes(24, 70) = 60.75 MiB for a 52.5 KiB state
        (evolve_coherent, ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0), (24, 70),
         32 * 2 ** 20),
        # 3 x _sample_bytes(2, 600) = 0.22 MiB for a 37.5 KiB state
        (evolve_fock_superposition, ModelParams(g=0.2, lam=0.625, beta=1.0), (2, 600),
         128 * 2 ** 10),
    ])
    def test_builders_apply_no_budget_and_the_record_refuses(self, monkeypatch, build,
                                                             params, size, budget):
        # the memory rule sizes the record's reductions, not the state; the
        # sizes keep a missing guard's allocation near 60 MiB
        from triqom.entanglement import _sample_bytes

        assert budget < 3 * _sample_bytes(*size)
        monkeypatch.setattr("triqom.core._memory_budget", lambda: budget)
        state = build(1.3, params, CompositeSpace(*size))
        assert state.amplitudes.nbytes == 16 * 2 * size[0] * size[1]
        assert abs(state.norm() - 1.0) < 1e-12
        with pytest.raises(MemoryError, match="one sample of the series needs"):
            entanglement_record(state, 1.3)

    def test_negativity_refuses_before_a_pure_density_matrix(self, monkeypatch):
        # three complex 200 x 200 matrices take 1,920,000 bytes
        state = tensor(qubit_state(1, 1), coherent_state(0.5, 10),
                       fock_state(0, 10, label="mech"))
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 1_919_999)
        calls = []
        monkeypatch.setattr(PureState, "density_matrix", lambda self: calls.append(self))
        with pytest.raises(MemoryError, match="the negativity of a state of dimension 200"):
            negativity(state, ("qubit",))
        assert calls == []
        monkeypatch.undo()
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 1_920_000)
        assert negativity(state, ("qubit",)) < 1e-12

    def test_series_refuses_before_it_builds(self, monkeypatch):
        from triqom.dynamics import _family_series
        from triqom.entanglement import _sample_bytes, _series

        calls = []
        cspace = CompositeSpace(2, 3)

        def build(ts):
            calls.append(ts)
            return np.zeros((len(ts), 3, 4, 3)), [0.0] * len(ts)

        # three copies of one 2 x 3 thermal sample take 3,888 bytes
        assert 3 * _sample_bytes(2, 3, 3) == 3888
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 3887)
        with pytest.raises(MemoryError, match="one sample of the series needs"):
            _series(build, 3, [0.0, 1.0], cspace)
        assert calls == []
        monkeypatch.undo()
        # within the budget, one series is one _series call on a family's (build, K)
        p = ModelParams(g=0.2, lam=0.25, alpha=0.5, nbar_mech=0.5)
        cspace = CompositeSpace(3, 16)
        build, k = _family_series("thermal", p, cspace)
        assert k == 16
        ts = [0.0, 1.3, TWO_PI]
        rows, lost = _series(build, k, ts, cspace)
        assert rows.shape == (3, 5) and rows[:, 0].tolist() == ts
        for row, t in zip(rows, ts):
            rec = entanglement_record(evolve_thermal(t, p, cspace), t)
            want = (rec.neg_qc, rec.neg_qo, rec.neg_oc, rec.intrinsic_qc)
            assert np.max(np.abs(row[1:] - want)) <= 1e-12
        assert lost == evolve_thermal(1.3, p, cspace).discarded_weight

    def test_thermal_sample_holds_two_copies_of_its_largest_reduction(self):
        import tracemalloc

        from triqom.dynamics import _thermal_purification
        from triqom.entanglement import _records

        # one 20 x 40 thermal sample: its neg_oc reduction is 800^2 (10.2 MB);
        # the partial transpose is a view, and its Hermitian part the one copy
        p = ModelParams(g=0.2, lam=0.25, alpha=2.0, nbar_mech=0.5)
        tracemalloc.start()
        try:
            y, _ = _thermal_purification(np.array([1.3]), p, CompositeSpace(20, 40))
            _records(y, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 16 * 800 ** 2

    def test_non_hermitian_stack_raises(self):
        from triqom.entanglement import _negativities

        space = Space(("qubit", "cavity"), (2, 3))
        rng = np.random.default_rng(5)
        stack = np.stack([random_density(space.dim, rng) for _ in range(4)])
        assert _negativities(stack, space, ("qubit",)).shape == (4,)
        stack[2, 0, 5] += 1e-6
        with pytest.raises(ValueError, match="deviates from Hermitian"):
            _negativities(stack, space, ("qubit",))

    def test_density_matrix_record_is_unchanged(self):
        # pinned thermal records: a DensityMatrix is reduced by partial_trace
        p = ModelParams(g=0.2, lam=0.25, alpha=1.0, nbar_mech=0.5)
        want = {0.0: (0.0, 0.0, 0.0, -0.49999999971320475),
                1.3: (0.0030585647067055428, 0.12886148952327292, 0.10017294868810443,
                      -0.13166196841036837),
                3.7: (0.11004976256080308, 0.12192785980025059, 0.10657797333524918,
                      0.2330122597527836)}
        for t, fields in want.items():
            rec = entanglement_record(evolve_thermal(t, p, CompositeSpace(6, 20)), t)
            assert _fields(rec)[1:] == pytest.approx(fields, rel=1e-12, abs=1e-15)
