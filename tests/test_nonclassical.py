import math

import numpy as np
import pytest

from triqom import (
    CatSpec,
    CompositeSpace,
    DensityMatrix,
    ModelParams,
    PureState,
    Space,
    cat_condition,
    cavity_projected_plus,
    cavity_unconditional,
    coherent_dim,
    coherent_state,
    evolve_coherent,
    fidelity_displaced_fock,
    fock_state,
    kitten_coupling,
    optimize_g_for_kitten,
    projected_qubit_state,
    projection_probability,
    radial_lobe_count,
    wigner,
    wigner_at,
)
from triqom.core import displaced_fock
from triqom.nonclassical import WignerGrid, default_axis

from conftest import (
    TWO_PI,
    coherent_vec,
    displacement_dense,
    random_density,
    wigner_quadrature,
)

INV_PI = 1.0 / math.pi


class TestWigner:
    def test_vacuum_peak(self):
        w = wigner_at(fock_state(0, 8), np.array([0.0 + 0.0j]))
        assert abs(w[0] - INV_PI) < 1e-6

    def test_single_photon_dip(self):
        w = wigner_at(fock_state(1, 8), np.array([0.0 + 0.0j]))
        assert abs(w[0] + INV_PI) < 1e-6

    def test_coherent_state_gaussian(self):
        # W peaks at the displacement point with vacuum height 1/pi
        alpha = 0.9 - 0.4j
        w = wigner_at(coherent_state(alpha, 16), np.array([alpha]))
        assert abs(w[0] - INV_PI) < 1e-8

    def test_matches_quadrature_transform_oracle(self):
        rng = np.random.default_rng(9)
        ax = np.linspace(-3.0, 3.0, 9)
        for rho in (coherent_state(0.8 + 0.3j, 14).density_matrix().matrix,
                    random_density(10, rng)):
            dim = rho.shape[0]
            state = DensityMatrix(Space(("cavity",), (dim,)), rho)
            got = wigner(state, ax, ax).values
            want = wigner_quadrature(rho, ax, ax)
            assert np.max(np.abs(got - want)) < 1e-4

    @pytest.mark.parametrize("dim", [40, 80])
    def test_matches_displaced_parity_oracle(self, dim):
        # W(a) = Tr[rho D(a) (-1)^n D(a)']/pi with D from expm on 2 dim levels;
        # complex coherences pin the conjugation convention, and the points
        # include the origin and one radius at several angles
        rng = np.random.default_rng(dim)
        rho = random_density(dim, rng)
        pts = np.concatenate([
            [0.0], 1.5 * np.exp(1j * np.array([0.0, 1.1, 2.5, -2.0, math.pi])),
            1.5 * np.sqrt(rng.uniform(size=4)) * np.exp(2j * math.pi * rng.uniform(size=4))])
        big = 2 * dim
        parity = np.diag((-1.0) ** np.arange(big))
        padded = np.zeros((big, big), dtype=complex)
        padded[:dim, :dim] = rho
        want = []
        for a in pts:
            d = displacement_dense(a, big)
            want.append(np.trace(padded @ d @ parity @ d.conj().T).real / math.pi)
        got = wigner_at(DensityMatrix(Space(("cavity",), (dim,)), rho), pts)
        assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_output_keeps_point_shape(self):
        rng = np.random.default_rng(3)
        state = DensityMatrix(Space(("cavity",), (12,)), random_density(12, rng))
        cube = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        flat = wigner_at(state, cube.ravel())
        for pts in (cube[0, 0, 0], cube[0, 0], cube):
            w = wigner_at(state, pts)
            assert w.shape == np.shape(pts)
            np.testing.assert_allclose(w, flat[:np.size(pts)].reshape(np.shape(pts)),
                                       rtol=0, atol=1e-15)

    def test_grid_integral_and_bound(self):
        p = ModelParams(g=0.5, lam=0.5, alpha=3.0)
        rho = cavity_unconditional(1, p)
        ax = default_axis(3.0)
        grid = wigner(rho, ax, ax)
        assert abs(grid.integral() - 1.0) < 1e-3
        assert np.max(np.abs(grid.values)) <= INV_PI + 1e-6

    def test_narrow_grid_misses_mass(self):
        ax = np.linspace(-0.5, 0.5, 21)
        grid = wigner(coherent_state(2.0, 28), ax, ax)
        assert grid.integral() < 0.9

    def test_rejects_multimode_state(self):
        space = Space(("cavity", "mech"), (3, 3))
        rho = DensityMatrix(space, np.eye(9, dtype=complex) / 9.0)
        with pytest.raises(ValueError):
            wigner_at(rho, np.array([0.0 + 0.0j]))

    def test_grid_container_validation(self):
        ax = np.linspace(-1, 1, 5)
        with pytest.raises(ValueError):
            WignerGrid(ax, ax, np.zeros((5, 4)))
        with pytest.raises(ValueError):
            WignerGrid(ax[::-1], ax, np.zeros((5, 5)))


class TestUnconditionalCavity:
    def test_uncoupled_is_coherent_projector(self):
        p = ModelParams(g=0.0, lam=0.4, alpha=1.5)
        rho = cavity_unconditional(1, p, dim=20)
        ref = coherent_state(1.5, 20).density_matrix().matrix
        np.testing.assert_allclose(rho.matrix, ref, rtol=0, atol=1e-12)

    def test_matches_full_evolution_reduction(self):
        from triqom import partial_trace
        p = ModelParams(g=0.2, lam=0.25, alpha=2.0, beta=0.5)
        for l in (1, 2):
            psi = evolve_coherent(l * TWO_PI, p, CompositeSpace(28, 30))
            ref = partial_trace(psi, ("cavity",)).matrix
            got = cavity_unconditional(l, p, dim=28).matrix
            assert np.max(np.abs(got - ref)) < 1e-8

    def test_two_lobe_cat_is_nonclassical(self):
        p = ModelParams(g=0.5, lam=0.5, alpha=3.0)
        rho = cavity_unconditional(1, p)
        ax = default_axis(3.0)
        assert wigner(rho, ax, ax).values.min() < -1e-3
        assert radial_lobe_count(rho, r_max=abs(3.0) * math.sqrt(2.0) + 4.0) == 2

    def test_rejects_bad_cycle(self):
        with pytest.raises(ValueError):
            cavity_unconditional(0, ModelParams(g=0.1, lam=0.1))
        p = ModelParams(g=0.0125, lam=1.0, alpha=3.0)
        for l in (0, 1.5):
            with pytest.raises(ValueError):
                projection_probability(l, p)

    def test_rejects_state_lost_to_truncation(self):
        # every kept amplitude of |alpha = 50> underflows to zero on 3 levels
        with pytest.raises(ValueError, match="truncation"):
            cavity_unconditional(1, ModelParams(g=0.1, lam=0.1, alpha=50.0), dim=3)


class TestProjectedCavity:
    def test_uncoupled_projection_recovers_coherent(self):
        p = ModelParams(g=0.0, lam=0.4, alpha=1.5)
        psi = projected_qubit_state(1, p, +1, dim=20)
        ref = coherent_state(1.5, 20)
        assert abs(np.vdot(ref.amplitudes, psi.amplitudes)) ** 2 > 1.0 - 1e-10
        assert abs(projection_probability(1, p, +1, dim=20) - 1.0) < 1e-9

    def test_projection_probabilities_sum_to_one(self):
        p = ModelParams(g=0.0125, lam=1.0, alpha=3.0)
        pp = projection_probability(10, p, +1)
        pm = projection_probability(10, p, -1)
        assert abs(pp + pm - 1.0) < 1e-9

    def test_projected_state_is_pure(self):
        p = ModelParams(g=0.0125, lam=1.0, alpha=3.0)
        rho = cavity_projected_plus(10, p)
        assert rho.purity() > 1.0 - 1e-8

    def test_projected_states_mix_back_to_unconditional(self):
        p = ModelParams(g=0.03, lam=0.7, alpha=2.0)
        l = 3
        pp = projection_probability(l, p, +1)
        pm = projection_probability(l, p, -1)
        plus = projected_qubit_state(l, p, +1).density_matrix().matrix
        minus = projected_qubit_state(l, p, -1).density_matrix().matrix
        mix = pp * plus + pm * minus
        # the cosine envelope of the unconditional matrix is scaled by the
        # captured weight; compare unnormalized forms via the same trace
        un = cavity_unconditional(l, p)
        np.testing.assert_allclose(mix / np.trace(mix), un.matrix, rtol=0, atol=1e-10)

    def test_projection_consistent_with_full_evolution(self):
        p = ModelParams(g=0.0125, lam=1.0, alpha=2.0, beta=0.5)
        l = 4
        nc = 28
        psi = evolve_coherent(l * TWO_PI, p, CompositeSpace(nc, 20))
        v = psi.reshaped()  # (2, nc, nm)
        plus = (v[0] + v[1]) / math.sqrt(2.0)
        rho_c = plus @ plus.conj().T
        rho_c /= np.trace(rho_c).real
        got = cavity_projected_plus(l, p, dim=nc).matrix
        assert np.max(np.abs(got - rho_c)) < 1e-8

    def test_projected_state_carries_truncation_loss(self):
        # 16 levels cut about 2 % of |alpha = 3>; the projection must report it
        p = ModelParams(g=0.0125, lam=1.0, alpha=3.0)
        lost = cavity_unconditional(10, p, dim=16).discarded_weight
        assert lost > 0.02
        for sign in (+1, -1):
            assert projected_qubit_state(10, p, sign, dim=16).discarded_weight == lost
        assert cavity_projected_plus(10, p, dim=16).discarded_weight == lost

    def test_vanishing_branch_rejected(self):
        # 4 g lam l integer makes every sine factor zero
        p = ModelParams(g=0.25, lam=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            projected_qubit_state(1, p, -1)

    def test_kitten_nonclassical_only_after_projection(self):
        p = ModelParams(g=0.0125, lam=1.0, alpha=3.0)
        ax = default_axis(3.0)
        cond = wigner(cavity_projected_plus(10, p), ax, ax)
        uncond = wigner(cavity_unconditional(10, p), ax, ax)
        assert cond.values.min() < -1e-3
        assert uncond.values.min() >= -1e-3


class TestCatBookkeeping:
    def test_cat_condition_examples(self):
        ok, res = cat_condition(0.5, 1, 2)
        assert ok and res < 1e-9
        ok, res = cat_condition(1.0 / math.sqrt(10.0), 1, 5)
        assert ok and res < 1e-9
        ok, res = cat_condition(0.1, 1, 2)
        assert not ok
        assert abs(res - 0.8) < 1e-12

    def test_kitten_coupling_value(self):
        assert abs(kitten_coupling(10, 1.0) - 0.0125) < 1e-15
        with pytest.raises(ValueError):
            kitten_coupling(0, 1.0)

    def test_cat_spec_residuals(self):
        spec = CatSpec(p=2, l=1, g=0.5, lam=0.5)
        assert spec.residual() < 1e-9
        assert spec.commensurability_residual() < 1e-9
        off = CatSpec(p=2, l=1, g=0.4, lam=0.5)
        assert off.residual() > 0.1


class TestDisplacedFockFidelity:
    def test_self_fidelity(self):
        st = displaced_fock(1.2 + 0.4j, 2, 30, label="cavity")
        assert abs(fidelity_displaced_fock(st, 1.2 + 0.4j, 2) - 1.0) < 1e-8

    def test_orthogonal_levels(self):
        st = displaced_fock(1.2, 3, 30, label="cavity")
        assert fidelity_displaced_fock(st, 1.2, 1) < 1e-8

    def test_kitten_objective_has_interior_maximum(self):
        g_star, f_max = optimize_g_for_kitten(3.0, 1.0, 10, (0.002, 0.03))
        dim = coherent_dim(3.0) + 5

        def f(g):
            p = ModelParams(g=g, lam=1.0, alpha=3.0)
            return fidelity_displaced_fock(projected_qubit_state(10, p, +1, dim), 3.0, 1)

        assert 0.002 < g_star < 0.03
        assert f_max > f(0.002) + 1e-3
        assert f_max > f(0.03) + 1e-3
        # the fringe condition g = 1/(8 l lam) is not necessarily the optimum
        assert f_max >= f(kitten_coupling(10, 1.0)) - 1e-6

    def test_optimum_stable_under_scan_resolution(self):
        a, _ = optimize_g_for_kitten(3.0, 1.0, 10, (0.002, 0.03), coarse=257)
        b, _ = optimize_g_for_kitten(3.0, 1.0, 10, (0.002, 0.03), coarse=129)
        assert abs(a - b) < 1e-4

    def test_flat_objective_rejected(self):
        with pytest.raises(ValueError):
            optimize_g_for_kitten(0.0, 1.0, 10, (0.002, 0.03))


class TestLobeCounter:
    def test_single_lobe_states(self):
        assert radial_lobe_count(fock_state(0, 10), r_max=5.0) == 1
        assert radial_lobe_count(coherent_state(2.0, 28), r_max=8.0) == 1

    def test_two_coherent_mixture(self):
        dim = 28
        va = coherent_vec(2.2, dim)
        vb = coherent_vec(-2.2, dim)
        va /= np.linalg.norm(va)
        vb /= np.linalg.norm(vb)
        rho = 0.5 * (np.outer(va, va.conj()) + np.outer(vb, vb.conj()))
        state = DensityMatrix(Space(("cavity",), (dim,)), rho)
        assert radial_lobe_count(state, r_max=2.2 * math.sqrt(2.0) + 4.0) == 2
