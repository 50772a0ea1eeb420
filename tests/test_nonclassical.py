import math
import tracemalloc

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
    coherent_state,
    evolve_coherent,
    fidelity_displaced_fock,
    fock_state,
    kitten_coupling,
    kitten_dim,
    optimize_g_for_kitten,
    projected_qubit_state,
    projection_probability,
    radial_lobe_count,
    wigner,
    wigner_at,
)
from triqom.core import displaced_fock
from triqom.nonclassical import (_WIGNER_CELL_BYTES, _WIGNER_POINT_BYTES, WignerGrid,
                                 _angular_mass, _kitten_objective, _radial_sums,
                                 default_axis)

from conftest import (
    TWO_PI,
    coherent_vec,
    displacement_dense,
    random_density,
    spy_calls,
    wigner_quadrature,
)

INV_PI = 1.0 / math.pi
_CAT = ModelParams(g=0.0125, lam=1.0, alpha=3.0)


def yurke_stoler_wigner(params, l, p, points):
    """Truncation-free Wigner function of `cavity_unconditional` at g sqrt(2 l p) = 1.

    Up to a global phase, the spin-sigma branch is e^{i pi n^2 / p} applied to
    |alpha e^{i phi}>, phi = 4 pi l g lam sigma.  The phase has period q = 2p
    in n, so with its DFT b_k the branch is sum_k b_k |alpha e^{i(phi + 2 pi k/q)}>
    (Yurke & Stoler, PRL 57 (1986) 13).  In this package's convention |b><c|
    has the Wigner function (1/pi) <c|b> exp(-2 (z - b)(z* - c*)).
    """
    q = 2 * p
    n = np.arange(q)
    b = np.fft.fft(np.exp(1j * math.pi * n * n / p)) / q
    z = np.asarray(points, dtype=complex)[..., None, None]
    total = np.zeros(np.shape(points))
    for sigma in (+1, -1):
        phi = 4.0 * math.pi * l * params.g * params.lam * sigma
        amps = params.alpha * np.exp(1j * (phi + 2.0 * math.pi * n / q))
        bk, ck = amps[:, None], amps[None, :]
        overlap = np.exp(-0.5 * abs(bk) ** 2 - 0.5 * abs(ck) ** 2 + ck.conj() * bk)
        terms = b[:, None] * b.conj()[None, :] * overlap * np.exp(
            -2.0 * (z - bk) * (z.conj() - ck.conj()))
        total += 0.5 * terms.sum(axis=(-2, -1)).real / math.pi
    return total


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

    @pytest.mark.parametrize("count", [8, 81, 201, 202])
    def test_default_axis_is_exactly_mirrored(self, count):
        ax = default_axis(3.0, count)
        ref = np.linspace(-7.0, 7.0, count)
        assert np.array_equal(ax, -ax[::-1])
        assert np.all(np.diff(ax) > 0)
        assert ax.size == count and ax[0] == ref[0] and ax[-1] == ref[-1]

    def test_default_grid_shares_mirrored_radii(self):
        # the radii |2a|^2 that wigner_at groups exactly: with +-x, +-y and
        # x <-> y on one radius, a 201^2 grid has at most 101 * 102 / 2
        ax = default_axis(3.0)
        pts = (ax[:, None] + 1j * ax[None, :]) / math.sqrt(2.0)
        assert np.unique(np.abs(2.0 * pts.ravel()) ** 2).size <= 101 * 102 // 2

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

    def test_grid_freezes_its_own_axes_not_the_callers(self):
        ax = default_axis(1.0, 11)
        values = np.zeros((11, 11))
        for grid in (wigner(coherent_state(1.0, 12), ax, ax), WignerGrid(ax, ax, values)):
            assert ax.flags.writeable and values.flags.writeable
            for arr in (grid.x_axis, grid.y_axis, grid.values):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1.0
        ax[0] = -9.0  # the caller may still write, and no grid sees it
        assert grid.x_axis[0] == grid.y_axis[0] == default_axis(1.0, 11)[0]


class TestWignerMemory:
    """`wigner` and `wigner_at` refuse, with MemoryError, before the point grid
    and the (level x radius) buffers; no test allocates an oversized grid."""

    @pytest.mark.parametrize("dim", [41, 81])
    def test_estimate_bounds_the_traced_peak(self, monkeypatch, dim):
        state = cavity_unconditional(10, ModelParams(g=0.0125, lam=1.0, alpha=3.0), dim)
        ax = default_axis(3.0)
        pts = (ax[:, None] + 1j * ax[None, :]) / math.sqrt(2.0)
        tracemalloc.start()
        try:
            wigner(state, ax, ax)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a budget of exactly the peak is below both estimates
        monkeypatch.setattr("triqom.core._memory_budget", lambda: peak)
        with pytest.raises(MemoryError, match="a Wigner grid of 40401 points"):
            wigner(state, ax, ax)
        with pytest.raises(MemoryError, match="a Wigner grid of 40401 points"):
            wigner_at(state, pts)

    def test_grid_refuses_before_it_builds_the_points(self, monkeypatch):
        calls = spy_calls(monkeypatch, wigner_at)
        state = cavity_unconditional(10, ModelParams(g=0.0125, lam=1.0, alpha=3.0), 41)
        ax = default_axis(3.0, 41)
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 1024)
        with pytest.raises(MemoryError, match="physical memory"):
            wigner(state, ax, ax)
        assert calls == []
        monkeypatch.undo()
        assert wigner(state, ax, ax).values.shape == (41, 41)

    def test_the_exact_radius_count_sizes_the_buffers(self, monkeypatch):
        # 21 values of |x| on the mirrored 41-point axis: |x + i y| depends on
        # their unordered pair, 231 pairs, where |x| x |y| counts 441; pairs
        # such as (3, 4) and (0, 5) steps share a radius, which leaves 222
        state = cavity_unconditional(10, ModelParams(g=0.0125, lam=1.0, alpha=3.0), 41)
        ax = default_axis(3.0, 41)
        points = _WIGNER_POINT_BYTES * 41 * 41
        for radii in (231, 222):
            budget = points + _WIGNER_CELL_BYTES * 41 * radii
            assert points + _WIGNER_CELL_BYTES * 41 * 441 > budget
            monkeypatch.setattr("triqom.core._memory_budget", lambda budget=budget: budget)
            assert wigner(state, ax, ax).values.shape == (41, 41)
            # axes with different |values| have 416 radii
            with pytest.raises(MemoryError, match="a Wigner grid of 1681 points"):
                wigner(state, ax, 1.5 * ax)
        # one radius fewer than the grid has refuses
        monkeypatch.setattr("triqom.core._memory_budget",
                            lambda: points + _WIGNER_CELL_BYTES * 41 * 221)
        with pytest.raises(MemoryError, match="a Wigner grid of 1681 points"):
            wigner(state, ax, ax)

    def test_lobe_count_refuses_before_its_radial_sums(self, monkeypatch):
        calls = spy_calls(monkeypatch, _radial_sums)
        state = cavity_unconditional(10, _CAT, 41)
        # 41 x 160 cells and 360 angles need about 466 kB
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 400_000)
        with pytest.raises(MemoryError, match="a Wigner grid of 360 points on 41 levels"):
            radial_lobe_count(state, 7.0)
        assert calls == []
        monkeypatch.undo()
        assert radial_lobe_count(state, 7.0) == 2

    @pytest.mark.parametrize("read", [
        lambda state: wigner(state, default_axis(3.0, 8), default_axis(3.0, 8)),
        lambda state: fidelity_displaced_fock(state, 3.0, 1),
        lambda state: _kitten_objective(_CAT, 10, 400)[0](0.0125),
    ], ids=["wigner", "fidelity", "kitten objective"])
    def test_pure_state_refuses_before_its_density_matrix(self, monkeypatch, read):
        # the 400-level density takes 2.44 MiB
        state = projected_qubit_state(10, _CAT, +1, 400)
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 2 * 2 ** 20)
        calls = []
        monkeypatch.setattr(PureState, "density_matrix", lambda self: calls.append(self))
        with pytest.raises(MemoryError, match="a cavity density of 400 levels"):
            read(state)
        assert calls == []


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

    @pytest.mark.parametrize("g, lam, p", [(0.5, 0.5, 2), (0.31622776601683794, 0.8, 5)])
    def test_shipped_cats_match_the_truncation_free_oracle(self, g, lam, p):
        # cat_two_lobe.cfg and cat_five_lobe.cfg, at the default cutoff
        params = ModelParams(g=g, lam=lam, alpha=3.0)
        assert cat_condition(g, 1, p)[0]
        rho = cavity_unconditional(1, params)
        ax = default_axis(3.0, 81)
        pts = (ax[:, None] + 1j * ax[None, :]) / math.sqrt(2.0)
        gap = np.abs(wigner(rho, ax, ax).values - yurke_stoler_wigner(params, 1, p, pts))
        assert gap.max() <= 2.0 * math.sqrt(rho.discarded_weight) / math.pi

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
        dim = kitten_dim(3.0)

        def f(g):
            p = ModelParams(g=g, lam=1.0, alpha=3.0)
            return fidelity_displaced_fock(projected_qubit_state(10, p, +1, dim), 3.0, 1)

        assert 0.002 < g_star < 0.03
        assert f_max > f(0.002) + 1e-3
        assert f_max > f(0.03) + 1e-3
        # the fringe condition g = 1/(8 l lam) is not necessarily the optimum
        assert f_max >= f(kitten_coupling(10, 1.0)) - 1e-6

    # (g*, F*) of the golden-section refinement that bounded Brent replaced
    @pytest.mark.parametrize("args, coarse, want", [
        ((3.0, 1.0, 10, (0.002, 0.03)), 257, (0.0038917100589790847, 0.47849655764689947)),
        ((3.0, 1.0, 10, (2e-4, 0.03)), 257, (0.00138622507254848, 0.9842362959028579)),
        ((3.0, 1.0, 10, (0.002, 0.03)), 129, (0.0038917902458861313, 0.47849656271581487)),
    ])
    def test_optimum_matches_the_golden_section_reference(self, args, coarse, want):
        g_star, f_star = optimize_g_for_kitten(*args, coarse=coarse)
        assert abs(g_star - want[0]) < 1e-6
        assert abs(f_star - want[1]) < 1e-6

    def test_optimizer_builds_the_target_once(self, monkeypatch):
        calls = spy_calls(monkeypatch, displaced_fock)
        optimize_g_for_kitten(3.0, 1.0, 10, (0.002, 0.03))
        assert len(calls) == 1

    def test_optimum_stable_under_scan_resolution(self):
        a, _ = optimize_g_for_kitten(3.0, 1.0, 10, (0.002, 0.03), coarse=257)
        b, _ = optimize_g_for_kitten(3.0, 1.0, 10, (0.002, 0.03), coarse=129)
        assert abs(a - b) < 1e-4

    def test_flat_objective_rejected(self):
        # alpha = 0 projects onto the vacuum, orthogonal to D(0)|1> = |1> at every g
        with pytest.raises(ValueError, match="objective is flat"):
            optimize_g_for_kitten(0.0, 1.0, 10, (0.002, 0.03))

    @pytest.mark.parametrize("coarse", [0, 1, 2.5])
    def test_scan_needs_two_points(self, monkeypatch, coarse):
        # 0 used to fail inside numpy and 1 as a false "flat objective"
        calls = spy_calls(monkeypatch, _kitten_objective)
        with pytest.raises(ValueError, match=r"coarse must be an integer >= 2"):
            optimize_g_for_kitten(3.0, 1.0, 10, (0.002, 0.03), coarse=coarse)
        assert calls == []


_REJECTED = {
    "grid axes": (lambda: WignerGrid(np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2))),
                  "axes must be one-dimensional"),
    "projection sign": (lambda: projected_qubit_state(1, ModelParams(g=0.1, lam=0.1), 0),
                        "sign must be [+]1 or -1"),
    "cat condition": (lambda: cat_condition(0.1, 0, 1), "l and p must be positive integers"),
    "multimode fidelity": (lambda: fidelity_displaced_fock(
        DensityMatrix(Space(("cavity", "mech"), (2, 2)), np.eye(4) / 4), 1.0, 1),
        "fidelity target needs a single-mode state"),
    "kitten range": (lambda: optimize_g_for_kitten(3.0, 1.0, 1, (0.02, 0.01)),
                     "need 0 < g_lo < g_hi"),
    **{f"lobe r_max {r_max}": (lambda r_max=r_max: radial_lobe_count(fock_state(0, 4), r_max),
                               "r_max must be positive")
       for r_max in (math.nan, math.inf, -8.0, 0.0, 1e200)},
    **{f"Wigner point {point}": (lambda point=point: wigner_at(fock_state(0, 4),
                                                               np.array([0.5, point])),
                                 "Wigner points must")
       for point in (math.nan, complex(0.0, math.inf), 1e200)},
}


@pytest.mark.parametrize("name", sorted(_REJECTED))
def test_bad_inputs_are_rejected_by_name(name):
    call, match = _REJECTED[name]
    with pytest.raises(ValueError, match=match):
        call()


# the unconditional and the projected states of the shipped cat and kitten
# configs: cat_two_lobe, cat_five_lobe, kitten_conditional and kitten_optimal
_SHIPPED_CATS = [(0.5, 0.5, 1), (0.31622776601683794, 0.8, 1), (0.0125, 1.0, 10),
                 (0.0038917100589791, 1.0, 10)]


class TestLobeCounter:
    def test_counts_without_a_wigner_grid(self, monkeypatch):
        calls = spy_calls(monkeypatch, wigner_at)
        rho = cavity_unconditional(1, ModelParams(g=0.5, lam=0.5, alpha=3.0))
        assert radial_lobe_count(rho, 7.0) == 2
        assert calls == []

    @pytest.mark.parametrize("g, lam, l", _SHIPPED_CATS)
    @pytest.mark.parametrize("projected", [False, True], ids=["unconditional", "projected"])
    def test_mass_matches_the_polar_grid_trapezoid(self, g, lam, l, projected):
        params = ModelParams(g=g, lam=lam, alpha=3.0)
        state = (projected_qubit_state(l, params) if projected
                 else cavity_unconditional(l, params))
        r_max = default_axis(3.0)[-1]
        r = np.linspace(0.0, r_max, 160)
        theta = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        w = wigner_at(state, r[:, None] * np.exp(1j * theta)[None, :] / math.sqrt(2.0))
        want = np.trapezoid(w * r[:, None], r, axis=0)
        np.testing.assert_allclose(_angular_mass(state, r_max), want, rtol=0, atol=1e-13)

    def test_no_positive_weight_counts_no_lobe(self):
        # within r = 0.5 the one-photon Wigner function is negative at every angle
        assert radial_lobe_count(fock_state(1, 4), 0.5) == 0

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
