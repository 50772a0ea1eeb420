import itertools
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

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
    entanglement_record,
    evolve_thermal,
    evolve_unitary,
    fock_state,
    integrate,
    intrinsic_qc_numeric,
    kitten_dim,
    lindblad_rhs,
    mechanics_dim,
    negativity_sweep,
    partial_trace,
    qubit_cavity_at_cycle,
    qubit_state,
    tensor,
    thermal_density,
    thermal_dim,
)
from scipy import sparse
from scipy.special import gammainc, gammaln

from triqom import core
from triqom.core import (
    SUBSYSTEMS,
    _cutoff,
    _displaced_one_tail,
    _joint_tail,
    _lift,
    _log_factorials,
    _operators,
    _poisson_tail,
    destroy,
    embed,
    number_op,
    sigma_minus,
    sigma_z,
)

from conftest import (
    TWO_PI,
    dag,
    destroy_dense,
    displacement_dense,
    random_density,
    spy_calls,
)


def test_composite_space_dims():
    cs = CompositeSpace(5, 7)
    assert cs.dim == 2 * 5 * 7
    assert cs.space.labels == ("qubit", "cavity", "mech")
    assert CompositeSpace.of(cs.space) == cs
    with pytest.raises(ValueError):
        CompositeSpace(0, 7)


def test_sizes_must_be_integers():
    with pytest.raises(TypeError):
        CompositeSpace(2.7, 3)
    with pytest.raises(TypeError):
        Space(("cavity",), (2.5,))
    cs = CompositeSpace(np.int64(4), 5)
    assert cs == CompositeSpace(4, 5)
    assert type(cs.n_cav) is int and type(cs.dim) is int


_P = ModelParams(g=0.2, lam=0.25, alpha=0.5, beta=0.5)
_TRIPARTITE = {
    "entanglement_record": lambda psi: entanglement_record(psi, 0.0),
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


# the truncation rule: each default cutoff is the smallest n whose exact
# discarded weight is <= 1e-14
TAIL_EPS = 1e-14


def poisson_tail_oracle(n, alpha):
    """P(N >= n) for N ~ Poisson(|alpha|^2): an fsum of log-space terms."""
    x = abs(alpha) ** 2
    if x == 0:
        return 1.0 if n <= 0 else 0.0
    ks = range(n, n + int(40.0 * math.sqrt(x)) + 200)
    return math.fsum(math.exp(k * math.log(x) - x - math.lgamma(k + 1)) for k in ks)


def geometric_tail_oracle(n, nbar):
    """Thermal weight beyond n levels: an fsum of log-space terms (1-r) r^k."""
    if nbar == 0:
        return 1.0 if n <= 0 else 0.0
    log_r = math.log(nbar) - math.log1p(nbar)
    ks = range(n, n + int(40.0 / -log_r) + 1)
    return math.fsum(math.exp(k * log_r - math.log1p(nbar)) for k in ks)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.0, 3.7, 5.0, 10.0])
def test_coherent_dim_is_the_smallest_cutoff_within_the_tail(alpha):
    n = coherent_dim(alpha)
    assert poisson_tail_oracle(n, alpha) <= TAIL_EPS < poisson_tail_oracle(n - 1, alpha)
    kept = coherent_state(alpha, n).discarded_weight
    assert kept == pytest.approx(poisson_tail_oracle(n, alpha), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("nbar", [0.0, 0.5, 1.0, 10.0])
def test_thermal_dim_is_the_smallest_cutoff_within_the_tail(nbar):
    n = thermal_dim(nbar)
    assert geometric_tail_oracle(n, nbar) <= TAIL_EPS < geometric_tail_oracle(n - 1, nbar)
    kept = thermal_density(nbar, n).discarded_weight
    assert kept == pytest.approx(geometric_tail_oracle(n, nbar), rel=1e-12, abs=0.0)


def displaced_one_tail_oracle(n, alpha):
    """Weight of D(alpha)|1> beyond n levels: an fsum of p_k (k - x)^2 / x."""
    x = abs(alpha) ** 2
    if x == 0:
        return 1.0 if n <= 1 else 0.0
    ks = range(max(n, 0), n + int(40.0 * math.sqrt(x)) + 200)
    return math.fsum(math.exp(k * math.log(x) - x - math.lgamma(k + 1)) * (k - x) ** 2 / x
                     for k in ks)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
def test_kitten_dim_is_the_smallest_cutoff_within_the_target_tail(alpha):
    n = kitten_dim(alpha)
    assert displaced_one_tail_oracle(n, alpha) <= TAIL_EPS < displaced_one_tail_oracle(n - 1, alpha)
    for m in range(n - 3, n + 4):
        assert _displaced_one_tail(m, alpha) == pytest.approx(
            displaced_one_tail_oracle(m, alpha), rel=1e-11, abs=1e-300)


@pytest.mark.parametrize("alpha, n_cav", [(3.0, None), (3.0, 32), (2.0, None), (1.0, 9)])
def test_full_period_state_reports_the_exact_poisson_tail(alpha, n_cav):
    st = qubit_cavity_at_cycle(10, ModelParams(g=0.0125, lam=1.0, alpha=alpha), n_cav)
    exact = poisson_tail_oracle(st.space.dims[1], alpha)
    assert st.discarded_weight == pytest.approx(exact, rel=1e-12, abs=0.0)


# the tail and the log-factorial table replaced scipy.special's gammainc and
# gammaln; they must agree with both and leave every default cutoff as it was
POISSON_ALPHAS = (0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 4.0, 6.0, 10.0, 20.0)


@pytest.mark.parametrize("alpha", POISSON_ALPHAS)
def test_poisson_tail_matches_gammainc_and_the_fsum_oracle(alpha):
    for n in range(200):
        got = _poisson_tail(n, alpha)
        assert got == pytest.approx(poisson_tail_oracle(n, alpha), rel=1e-12, abs=1e-300)
        if n >= 1:
            assert got == pytest.approx(gammainc(n, alpha ** 2), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("alpha", (0.0, 0.05, 0.5, 1.0, 1.7, 2.0, 2.5, 3.0, 3.7, 5.0, 6.0, 10.0))
def test_default_cutoffs_are_those_of_gammainc(alpha, monkeypatch):
    def dims():
        out = [coherent_dim(alpha), kitten_dim(alpha)]
        for g, lam in ((0.2, 0.25), (0.0125, 1.0), (0.5, 0.625)):
            for n_cav in (2, 10, 24):
                try:
                    out.append(mechanics_dim(ModelParams(g=g, lam=lam, beta=alpha), n_cav))
                except ValueError:  # above the ceiling
                    out.append(None)
        return out

    ours = dims()
    monkeypatch.setattr(core, "_poisson_tail", lambda n, a: float(gammainc(n, abs(a) ** 2)))
    assert dims() == ours


def test_log_factorials_match_gammaln():
    table = _log_factorials(1300)
    ref = gammaln(np.arange(1300) + 1.0)
    assert np.all(np.abs(table - ref) <= 2.0 * np.spacing(ref))
    assert not table.flags.writeable
    assert np.array_equal(_log_factorials(5), np.log([1.0, 1.0, 2.0, 6.0, 24.0]))


@pytest.mark.parametrize("k", [2047, 2048, 2049, 3001, 4095])
def test_log_factorials_past_the_exact_range_stay_within_two_ulp(k):
    # entries from 2048 on are math.lgamma(k + 1), not the exact product
    exact = math.log(math.factorial(k))
    got = _log_factorials(4096)[k]
    assert abs(got - exact) <= (0.0 if k < 2048 else 2.0) * math.ulp(exact)


def test_cutoff_evaluates_each_tail_once():
    calls = []
    assert _cutoff(lambda n: calls.append(n) or (0.0 if n >= 100 else 1.0)) == 100
    assert len(calls) == len(set(calls))


def fraction_joint_tail(*weights):
    """1 - prod(1 - w) in exact rational arithmetic."""
    return 1 - math.prod(1 - Fraction(w) for w in weights)


@pytest.mark.parametrize("weights", [
    (1e-14,), (1e-14, 1e-14), (9.9e-12, 3e-15), (2.0186e-7, 6.2e-15),
    (0.3, 0.2, 1e-9), (0.0, 5e-16), (0.0, 0.0), (1.0, 0.5)])
def test_joint_tail_keeps_its_relative_precision(weights):
    got, exact = _joint_tail(*weights), fraction_joint_tail(*weights)
    assert abs(Fraction(got) - exact) <= 4 * Fraction(math.ulp(float(exact)))
    assert math.copysign(1.0, got) == 1.0


def test_composed_states_carry_the_joint_tail():
    cav, mech = coherent_state(3.0, 38), coherent_state(2.0, 25, label="mech")
    w = tensor(cav, mech).discarded_weight
    exact = fraction_joint_tail(cav.discarded_weight, mech.discarded_weight)
    assert abs(Fraction(w) - exact) <= 4 * Fraction(math.ulp(float(exact)))
    params = ModelParams(g=0.2, lam=0.25, alpha=2.0, nbar_mech=0.5)
    cspace = CompositeSpace(20, 40)
    w = evolve_thermal(1.3, params, cspace).discarded_weight
    exact = fraction_joint_tail(_poisson_tail(20, 2.0), thermal_density(0.5, 40).discarded_weight)
    assert abs(Fraction(w) - exact) <= 4 * Fraction(math.ulp(float(exact)))


_NAN = float("nan")
_NON_FINITE = {
    "coherent_state": lambda: coherent_state(_NAN, 10),
    "displaced_fock": lambda: displaced_fock(_NAN, 1, 10),
    "thermal_density": lambda: thermal_density(_NAN, 10),
    "ModelParams.alpha": lambda: ModelParams(g=0.1, lam=0.2, alpha=_NAN),
    "ModelParams.beta": lambda: ModelParams(g=0.1, lam=0.2, beta=math.inf),
    "_cutoff": lambda: _cutoff(lambda n: _NAN),
    "coherent_dim": lambda: coherent_dim(_NAN),
    "kitten_dim": lambda: kitten_dim(_NAN),
    "thermal_dim": lambda: thermal_dim(_NAN),
}


@pytest.mark.parametrize("name", sorted(_NON_FINITE))
def test_non_finite_inputs_fail_closed(name):
    with pytest.raises(ValueError, match="finite|no cutoff"):
        _NON_FINITE[name]()


@pytest.mark.parametrize("dim", [coherent_dim, kitten_dim])
def test_an_amplitude_whose_square_overflows_has_no_cutoff(dim):
    # |alpha|^2 is inf: no cutoff is found, and no OverflowError escapes
    with pytest.raises(ValueError, match="no cutoff reaches a tail"):
        dim(1e200)


def test_thermal_density_zero_temperature():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # log 0 must not be evaluated
        rho = thermal_density(0.0, 6)
    expect = np.zeros((6, 6), dtype=complex)
    expect[0, 0] = 1.0
    assert np.array_equal(rho.matrix, expect) and rho.discarded_weight == 0.0


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


def displaced_two_tail_oracle(dim, alpha, levels=200):
    """Weight of D(alpha)|2> on levels [dim, levels): an fsum of the closed form
    |<m|D(alpha)|2>|^2 = 2 x^(m-2) e^-x L_2^(m-2)(x)^2 / m!, x = |alpha|^2."""
    x = abs(alpha) ** 2

    def weight(m):
        k = m - 2
        lag = (k + 2) * (k + 1) / 2.0 - (k + 2) * x + x * x / 2.0
        return 2.0 * math.exp(k * math.log(x) - x - math.lgamma(m + 1)) * lag * lag

    return math.fsum(weight(m) for m in range(dim, levels))


@pytest.mark.parametrize("alpha, dim", [(3.0, 44), (3.0, 41), (2.0, 30), (1.0, 19),
                                        (1.2 + 0.4j, 24), (4.0, 60)])
def test_displaced_fock_reports_the_exact_tail(alpha, dim):
    st = displaced_fock(alpha, 1, dim)
    assert st.discarded_weight == pytest.approx(_displaced_one_tail(dim, alpha),
                                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha, dim", [(3.0, 44), (3.0, 36), (2.0, 30), (1.2 + 0.4j, 24)])
def test_displaced_two_reports_the_exact_tail(alpha, dim):
    st = displaced_fock(alpha, 2, dim)
    assert st.discarded_weight == pytest.approx(displaced_two_tail_oracle(dim, alpha),
                                                rel=1e-12, abs=0.0)


_CELL = Space(("cavity",), (3,))
_REJECTED = {
    "unknown label": (lambda: Space(("bath",), (2,)), ValueError,
                      r"unknown subsystem label\(s\) \['bath'\]"),
    "duplicate label": (lambda: Space(("cavity", "cavity"), (2, 2)), ValueError,
                        "duplicate subsystem labels"),
    "dims length": (lambda: Space(("cavity",), (2, 3)), ValueError,
                    "labels and dims length mismatch"),
    "zero dim": (lambda: Space(("cavity",), (0,)), ValueError,
                 r"dimensions must be positive, got \(0,\)"),
    "amplitude length": (lambda: PureState(_CELL, np.ones(2)), ValueError,
                         "amplitude length 2 != space dim 3"),
    "matrix shape": (lambda: DensityMatrix(_CELL, np.eye(2)), ValueError,
                     r"matrix shape \(2, 2\) != \(3, 3\)"),
    "fock index": (lambda: fock_state(3, 3), ValueError, r"Fock index 3 outside \[0, 3\)"),
    "zero qubit": (lambda: qubit_state(0, 0), ValueError, "zero qubit amplitudes"),
    "displaced index": (lambda: displaced_fock(1.0, 4, 4), ValueError,
                        r"Fock index 4 outside \[0, 4\)"),
    "mixed tensor": (lambda: tensor(qubit_state(1, 0), fock_state(0, 3).density_matrix()),
                     ValueError, "all PureState or all DensityMatrix"),
    "trace type": (lambda: partial_trace(SimpleNamespace(space=_CELL), ("cavity",)),
                   TypeError, "cannot trace object of type"),
    "lift label": (lambda: embed(np.eye(2), CompositeSpace(2, 2), "bath"), ValueError,
                   "unknown subsystem 'bath'"),
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_bad_inputs_are_rejected_by_name(name):
    call, error, match = _REJECTED[name]
    with pytest.raises(error, match=match):
        call()


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


def _kron_lift(op, cs, label):
    # the Kronecker-product lift: I x op x I on (qubit, cavity, mech)
    factors = [sparse.identity(n, dtype=complex, format="csr") for n in cs.dims]
    factors[SUBSYSTEMS.index(label)] = sparse.csr_matrix(op, dtype=complex)
    return sparse.kron(factors[0], sparse.kron(factors[1], factors[2]), format="csr")


_NAMED = {
    "a": (lambda cs: destroy(cs.n_cav), "cavity"),
    "num_c": (lambda cs: number_op(cs.n_cav), "cavity"),
    "b": (lambda cs: destroy(cs.n_mech), "mech"),
    "num_m": (lambda cs: number_op(cs.n_mech), "mech"),
    "sz": (lambda cs: sigma_z(), "qubit"),
    "sm": (lambda cs: sigma_minus(), "qubit"),
}
_DENSE = {  # off-diagonal operators with nonzero rows on every subsystem
    "sx": (lambda cs: np.array([[0.0, 1.0], [1.0, 0.0]]), "qubit"),
    "a+a'": (lambda cs: destroy(cs.n_cav) + destroy(cs.n_cav).T, "cavity"),
    "b+b'": (lambda cs: destroy(cs.n_mech) + destroy(cs.n_mech).T, "mech"),
}


@pytest.mark.parametrize("dims", [(2, 3), (6, 8), (14, 16)])
@pytest.mark.parametrize("name", [*_NAMED, *_DENSE])
def test_lift_is_the_kronecker_product_bit_for_bit(dims, name):
    cs = CompositeSpace(*dims)
    if name in _NAMED:
        make, label = _NAMED[name]
        got = _operators(cs, name)[0]
    else:
        make, label = _DENSE[name]
        got = _lift(make(cs), cs, label)
    want = _kron_lift(make(cs), cs, label)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.has_sorted_indices == want.has_sorted_indices
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_operators_are_lifted_once_per_space_and_read_only(monkeypatch):
    core._operator_table.cache_clear()
    calls = spy_calls(monkeypatch, _lift)
    first = _operators(CompositeSpace(2, 3), *_NAMED)
    assert len(calls) == len(_NAMED) == 6
    # an equal space is served the same objects without lifting again
    assert all(a is b for a, b in zip(first, _operators(CompositeSpace(2, 3), *_NAMED)))
    assert len(calls) == 6
    for op in first:
        for field in ("data", "indices", "indptr"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(op, field)[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            op *= 2.0
    # another space lifts its own six
    other = _operators(CompositeSpace(3, 3), *_NAMED)
    assert len(calls) == 12 and all(a.shape == (18, 18) for a in other)


def test_embed_rejects_operator_of_wrong_size():
    # a 3-level cavity operator on a 2-level cavity would lift to 18 x 18 on a
    # 12-dimensional space
    with pytest.raises(ValueError, match="'cavity' of dimension 2"):
        embed(destroy(3), CompositeSpace(2, 3), "cavity")


def test_pure_state_immutable():
    st = coherent_state(1.0, 10)
    with pytest.raises(ValueError):
        st.amplitudes[0] = 5.0
    assert abs(st.norm() - 1.0) < 1e-12


def test_pure_state_shares_no_buffer_with_its_caller():
    x = np.zeros(2, dtype=complex)
    st = PureState(Space(("qubit",), (2,)), x)
    assert not np.shares_memory(st.amplitudes, x)
    x[0] = 7.0  # the caller's array stays writable, and the state does not move
    np.testing.assert_array_equal(st.amplitudes, [0.0, 0.0])


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
    # reach 2 + 2 (0.4 * 40 + 0.25) = 34.5 needs 1465 levels, past the 600 ceiling
    p = ModelParams(g=0.4, lam=0.25, alpha=3.0)
    with pytest.raises(ValueError, match=r"1465 .*600.*n_mech"):
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
