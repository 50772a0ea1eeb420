import itertools
import math

import numpy as np
import pytest

from triqom import (
    CompositeSpace,
    DensityMatrix,
    ModelParams,
    PureState,
    Space,
    coherent_dim,
    coherent_state,
    displaced_fock,
    evolve_unitary,
    fock_state,
    integrate,
    intrinsic_qc_numeric,
    lindblad_rhs,
    mechanics_dim,
    negativity_sweep,
    partial_trace,
    qubit_state,
    tensor,
    thermal_density,
)
from triqom.core import SUBSYSTEMS, embed

from conftest import (
    TWO_PI,
    dag,
    destroy_dense,
    displacement_dense,
    random_density,
)


def test_composite_space_dims():
    cs = CompositeSpace(5, 7)
    assert cs.dim == 2 * 5 * 7
    assert cs.space.labels == ("qubit", "cavity", "mech")
    assert CompositeSpace.of(cs.space) == cs
    with pytest.raises(ValueError):
        CompositeSpace(0, 7)


_P = ModelParams(g=0.2, lam=0.25, alpha=0.5, beta=0.5)
_TRIPARTITE = {
    "evolve_unitary": lambda psi: evolve_unitary(psi, 1.0, _P),
    "intrinsic_qc_numeric": intrinsic_qc_numeric,
    "lindblad_rhs": lambda psi: lindblad_rhs(psi.density_matrix(), _P),
    "integrate": lambda psi: integrate(psi.density_matrix(), _P, [1.0]),
    "negativity_sweep": lambda psi: negativity_sweep([0.0], [0.0], _P, psi.density_matrix()),
}


@pytest.mark.parametrize("name", sorted(_TRIPARTITE))
def test_tripartite_entry_points_reject_qubit_cavity_state(name):
    psi = tensor(qubit_state(1, 1), coherent_state(0.5, 8))
    with pytest.raises(ValueError, match=r"full .*got \('qubit', 'cavity'\)"):
        _TRIPARTITE[name](psi)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g=0.1, lam=0.2, kappa=-1e-3)
    with pytest.raises(ValueError):
        ModelParams(g=float("nan"), lam=0.2)
    with pytest.raises(ValueError):
        ModelParams(g=0.1, lam=0.2, n_q=-0.5)
    p = ModelParams(g=0.1, lam=0.2, n_th=3.0)
    assert p.qubit_bath_occupancy == 3.0
    assert p.with_rates(n_q=0.0).qubit_bath_occupancy == 0.0


def test_coherent_state_vacuum():
    st = coherent_state(0.0, 4)
    assert np.array_equal(st.amplitudes, np.array([1, 0, 0, 0], dtype=complex))
    assert st.discarded_weight == 0.0


def test_coherent_state_poisson_populations():
    st = coherent_state(2.0, 30)
    probs = np.abs(st.amplitudes) ** 2
    mean_n = float(np.arange(30) @ probs)
    assert abs(mean_n - 4.0) < 1e-8
    assert abs(probs[2] - math.exp(-4.0) * 4.0 ** 2 / 2.0) < 1e-10


def test_coherent_state_truncation_rejected():
    # alpha=3 in a 5-level space leaves far more than the default tolerance
    with pytest.raises(ValueError):
        coherent_state(3.0, 5)
    st = coherent_state(3.0, 5, tail_tol=0.99)
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    assert st.discarded_weight > 0.5


def test_coherent_dim_rule_gives_tiny_tail():
    for alpha in (0.5, 1.0, 2.0, 3.0):
        st = coherent_state(alpha, coherent_dim(alpha), tail_tol=1e-10)
        assert st.discarded_weight < 1e-10


def test_thermal_density_zero_temperature():
    rho = thermal_density(0.0, 6)
    expect = np.zeros((6, 6), dtype=complex)
    expect[0, 0] = 1.0
    assert np.allclose(rho.matrix, expect, atol=1e-14)


def test_thermal_density_geometric():
    rho = thermal_density(4.0, 80)
    # renormalized over the truncated support: p_0 = (1/5) / (1 - (4/5)^80)
    kept = 1.0 - 0.8 ** 80
    assert abs(rho.matrix[0, 0].real - 0.2 / kept) < 1e-12
    assert abs(rho.matrix[0, 0].real - 1.0 / 5.0) < 1e-8
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-10
    # successive populations fall by nbar/(nbar+1)
    diag = np.diag(rho.matrix).real
    ratios = diag[1:20] / diag[:19]
    assert np.max(np.abs(ratios - 0.8)) < 1e-12


def test_displaced_fock_identity_displacement():
    st = displaced_fock(0.0, 1, 8)
    assert np.allclose(st.amplitudes, fock_state(1, 8, label="mech").amplitudes)


def test_displaced_fock_vacuum_is_coherent():
    st = displaced_fock(3.0, 0, 40, label="cavity")
    ref = coherent_state(3.0, 40)
    assert np.max(np.abs(st.amplitudes - ref.amplitudes)) < 1e-8


def test_displaced_fock_against_matrix_exponential():
    rng = np.random.default_rng(11)
    for _ in range(6):
        alpha = complex(*(rng.uniform(-1.5, 1.5, 2)))
        n = int(rng.integers(0, 4))
        dim = coherent_dim(alpha) + n + 4
        st = displaced_fock(alpha, n, dim)
        big = displacement_dense(alpha, dim + 25)[:, n]
        ref = big[:dim] / np.linalg.norm(big[:dim])
        assert np.max(np.abs(st.amplitudes - ref)) < 1e-8
        assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-8
    # the |alpha| <= 3 bound from the truncation rule
    dim = coherent_dim(3.0) + 5
    st = displaced_fock(3.0, 1, dim)
    big = displacement_dense(3.0, dim + 25)[:, 1]
    ref = big[:dim] / np.linalg.norm(big[:dim])
    assert np.max(np.abs(st.amplitudes - ref)) < 1e-8
    # |alpha| up to 4 on the real, imaginary and diagonal directions, n <= 4
    for alpha in (4.0, 3j, -2.5 + 2.5j):
        dim = coherent_dim(alpha) + 8
        big = displacement_dense(alpha, dim + 25)
        for n in range(5):
            st = displaced_fock(alpha, n, dim)
            ref = big[:dim, n] / np.linalg.norm(big[:dim, n])
            assert np.max(np.abs(st.amplitudes - ref)) < 1e-8


def test_displaced_fock_rejects_small_dim():
    with pytest.raises(ValueError):
        displaced_fock(2.5, 3, 8)


def test_tensor_basis_ordering():
    n_cav, n_mech = 4, 5
    up = tensor(qubit_state(1, 0), fock_state(0, n_cav, "cavity"),
                fock_state(0, n_mech, "mech"))
    down = tensor(qubit_state(0, 1), fock_state(0, n_cav, "cavity"),
                  fock_state(0, n_mech, "mech"))
    assert up.amplitudes[0] == 1.0
    assert np.count_nonzero(up.amplitudes) == 1
    assert down.amplitudes[n_cav * n_mech] == 1.0
    # |q, n, m> sits at ((q * n_cav) + n) * n_mech + m
    mid = tensor(qubit_state(0, 1), fock_state(2, n_cav, "cavity"),
                 fock_state(3, n_mech, "mech"))
    assert mid.amplitudes[((1 * n_cav) + 2) * n_mech + 3] == 1.0


def test_tensor_norm_and_label_checks():
    st = tensor(qubit_state(1, 1), coherent_state(1.0, 12))
    assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        tensor(qubit_state(1, 0), fock_state(0, 3, label="qubit"))


def test_partial_trace_product_state():
    psi = tensor(qubit_state(1, 0), fock_state(0, 3, "cavity"), fock_state(0, 4, "mech"))
    rho_q = partial_trace(psi, ("qubit",))
    assert np.allclose(rho_q.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_partial_trace_bell():
    amps = np.zeros(2 * 2, dtype=complex)
    amps[0] = amps[3] = 1 / math.sqrt(2)
    bell = PureState(Space(("qubit", "cavity"), (2, 2)), amps)
    rho_q = partial_trace(bell, ("qubit",))
    assert np.allclose(rho_q.matrix, 0.5 * np.eye(2), atol=1e-12)


def test_partial_trace_of_tensor_factors():
    rng = np.random.default_rng(3)
    rho_a = DensityMatrix(Space(("qubit",), (2,)), random_density(2, rng))
    rho_b = DensityMatrix(Space(("cavity",), (5,)), random_density(5, rng))
    joint = tensor(rho_a, rho_b)
    back = partial_trace(joint, ("qubit",))
    assert np.max(np.abs(back.matrix - rho_a.matrix)) < 1e-12
    back_b = partial_trace(joint, ("cavity",))
    assert np.max(np.abs(back_b.matrix - rho_b.matrix)) < 1e-12


_KEEPS = [keep for r in (1, 2, 3) for keep in itertools.combinations(SUBSYSTEMS, r)]


@pytest.mark.parametrize("keep", _KEEPS, ids="-".join)
def test_partial_trace_matches_einsum(keep):
    rng = np.random.default_rng(17)
    dims = (2, 3, 4)
    space = Space(SUBSYSTEMS, dims)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    pure = PureState(space, v / np.linalg.norm(v))
    mixed = DensityMatrix(space, random_density(24, rng))
    # rho[qcm, q'c'm'] summed over the dropped diagonals; kept column letters are upper case
    row = "qcm"
    col = "".join(ch.upper() if lab in keep else ch for ch, lab in zip(row, SUBSYSTEMS))
    kept = "".join(ch for ch, lab in zip(row, SUBSYSTEMS) if lab in keep)
    dk = math.prod(d for d, lab in zip(dims, SUBSYSTEMS) if lab in keep)
    for state, mat in ((pure, np.outer(v, v.conj()) / np.vdot(v, v).real),
                       (mixed, mixed.matrix)):
        want = np.einsum(f"{row}{col}->{kept}{kept.upper()}", mat.reshape(dims + dims))
        got = partial_trace(state, keep)
        assert got.space == space.keep(keep)
        assert np.max(np.abs(got.matrix - want.reshape(dk, dk))) < 1e-13
    via_density = partial_trace(pure.density_matrix(), keep).matrix
    assert np.max(np.abs(partial_trace(pure, keep).matrix - via_density)) < 1e-13


@pytest.mark.parametrize("keep", [("cavity", "qubit"), ("spin",), ("mech",), ()],
                         ids=["non-canonical", "unknown", "absent", "empty"])
def test_partial_trace_rejects_bad_keep(keep):
    psi = tensor(qubit_state(1, 1), coherent_state(0.5, 8))
    for state in (psi, psi.density_matrix()):
        with pytest.raises(ValueError):
            partial_trace(state, keep)


def test_embed_round_trip():
    cs = CompositeSpace(4, 3)
    rng = np.random.default_rng(7)
    op = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    big = embed(op, cs, "cavity")
    # tracing the identity factors back out recovers op
    t = big.reshape(2, 4, 3, 2, 4, 3)
    recovered = np.einsum("qnmqpm->np", t) / (2 * 3)
    assert np.max(np.abs(recovered - op)) < 1e-12
    sz = embed(np.diag([1.0, -1.0]), cs, "qubit")
    tq = sz.reshape(2, 12, 2, 12)
    recovered_q = np.einsum("iaja->ij", tq) / 12
    assert np.max(np.abs(recovered_q - np.diag([1.0, -1.0]))) < 1e-12


def test_pure_state_immutable():
    st = coherent_state(1.0, 10)
    with pytest.raises(ValueError):
        st.amplitudes[0] = 5.0
    assert abs(st.norm() - 1.0) < 1e-12


def test_density_matrix_validation():
    sp = Space(("cavity",), (3,))
    good = np.diag([0.5, 0.3, 0.2]).astype(complex)
    dm = DensityMatrix(sp, good)
    assert abs(dm.purity() - (0.25 + 0.09 + 0.04)) < 1e-12
    dm.validate()
    with pytest.raises(ValueError):
        DensityMatrix(sp, np.diag([0.9, 0.3, 0.2]).astype(complex)).validate()
    nonherm = good.copy()
    nonherm[0, 1] = 0.2
    with pytest.raises(ValueError):
        DensityMatrix(sp, nonherm).validate()
    skewed = np.diag([0.7, 0.5, -0.2]).astype(complex)
    with pytest.raises(ValueError):
        DensityMatrix(sp, skewed).validate()


def test_mechanics_dim_covers_displacement():
    p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=2.0)
    d = mechanics_dim(p, n_cav=14)
    # reach: |beta| + 2 (g (n_cav - 1) + lam) pushed through the coherent rule
    reach = 2.0 + 2.0 * (0.2 * 13 + 0.25)
    assert d >= coherent_dim(reach)


def test_mechanics_dim_fails_closed_above_ceiling():
    # reach 2 + 2 (0.4 * 39 + 0.25) = 33.7 needs 1382 levels, past the 600 ceiling
    p = ModelParams(g=0.4, lam=0.25, alpha=3.0)
    with pytest.raises(ValueError, match=r"1382 .*600.*n_mech"):
        mechanics_dim(p, n_cav=coherent_dim(3.0))


def test_dense_operator_helpers():
    from triqom.core import destroy, number_op, sigma_minus, sigma_z
    d = destroy(5)
    assert np.allclose(d, destroy_dense(5))
    assert np.allclose(number_op(5), dag(destroy_dense(5)) @ destroy_dense(5))
    assert np.allclose(sigma_z(), np.diag([1.0, -1.0]))
    sm = sigma_minus()
    up = np.array([1.0, 0.0])
    assert np.allclose(sm @ up, np.array([0.0, 1.0]))


def test_partial_trace_matches_analytic_reductions():
    # reduced matrices of the two-coherent-state evolution at t = pi, checked
    # against sums over branch weights, labels, and coherent overlaps
    from triqom.dynamics import evolve_coherent
    from conftest import coherent_branch_oracle, coherent_overlap, coherent_vec

    g, lam, alpha, beta = 0.2, 0.3, 1.2, 0.8
    t = math.pi
    n_cav, n_mech = 20, 35
    p = ModelParams(g=g, lam=lam, alpha=alpha, beta=beta)
    psi = evolve_coherent(t, p, cspace=CompositeSpace(n_cav, n_mech))
    rho = psi.density_matrix()

    weights = np.empty((2, n_cav), dtype=complex)
    labels = np.empty((2, n_cav), dtype=complex)
    for idx, sign in enumerate((+1, -1)):
        for n in range(n_cav):
            weights[idx, n], labels[idx, n] = coherent_branch_oracle(
                n, sign, t, g, lam, alpha, beta)

    # qubit x cavity: mechanics traced through exact overlaps
    qc = np.zeros((2 * n_cav, 2 * n_cav), dtype=complex)
    for i in range(2):
        for j in range(2):
            for n in range(n_cav):
                for m in range(n_cav):
                    ov = coherent_overlap(labels[j, m], labels[i, n])
                    qc[i * n_cav + n, j * n_cav + m] = \
                        weights[i, n] * np.conjugate(weights[j, m]) * ov
    got_qc = partial_trace(rho, ("qubit", "cavity")).matrix
    assert np.max(np.abs(got_qc - qc)) < 1e-8

    # qubit x mechanics: diagonal in the photon number
    vecs = np.empty((2, n_cav, n_mech), dtype=complex)
    for i in range(2):
        for n in range(n_cav):
            vecs[i, n] = coherent_vec(labels[i, n], n_mech)
    qo = np.zeros((2 * n_mech, 2 * n_mech), dtype=complex)
    for i in range(2):
        for j in range(2):
            for n in range(n_cav):
                blk = np.outer(vecs[i, n], vecs[j, n].conj())
                qo[i * n_mech:(i + 1) * n_mech, j * n_mech:(j + 1) * n_mech] += \
                    weights[i, n] * np.conjugate(weights[j, n]) * blk
    got_qo = partial_trace(rho, ("qubit", "mech")).matrix
    assert np.max(np.abs(got_qo - qo)) < 1e-8

    # cavity x mechanics: qubit traced, branch-diagonal
    oc = np.zeros((n_cav * n_mech, n_cav * n_mech), dtype=complex)
    for i in range(2):
        for n in range(n_cav):
            for m in range(n_cav):
                blk = np.outer(vecs[i, n], vecs[i, m].conj())
                oc[n * n_mech:(n + 1) * n_mech, m * n_mech:(m + 1) * n_mech] += \
                    weights[i, n] * np.conjugate(weights[i, m]) * blk
    got_oc = partial_trace(rho, ("cavity", "mech")).matrix
    assert np.max(np.abs(got_oc - oc)) < 1e-8
