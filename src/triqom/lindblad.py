"""Dissipative dynamics in the polaron-dressed frame.

The master equation uses the convention L[O]rho = 2 O rho O' - rho O'O - O'O rho,
so a channel rate r decays coherences at 2r; with the cavity channel kappa L[a]
the coherent amplitude <a> decays at exactly kappa.  Dressing shifts the
mechanical jump operators by -g a'a and adds two number-dephasing channels whose
rates carry the 1/ln((1+n_th)/n_th) thermal factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse, special

from .core import (
    CompositeSpace,
    DensityMatrix,
    ModelParams,
    _operators,
    coherent_state,
    partial_trace,
    qubit_state,
    tensor,
    thermal_density,
)
from .dynamics import Trajectory, hamiltonian
from .entanglement import negativity

__all__ = [
    "DissipatorSpec",
    "OpenSystemConfig",
    "IntegrationError",
    "dressed_dephasing_rate",
    "photon_dephasing_rate",
    "build_dissipators",
    "lindblad_rhs",
    "integrate",
    "sweep_initial_state",
    "negativity_sweep",
]


class IntegrationError(RuntimeError):
    """Raised when the integrator detects trace or positivity breakdown."""


def _induced_dephasing(gamma_m: float, pull: float, n_th: float) -> float:
    # 4 gamma_m pull^2 / ln((1+n)/n), with the n -> 0 limit taken analytically (-> 0)
    if n_th <= 0:
        return 0.0
    return 4.0 * gamma_m * pull * pull * (1.0 / math.log((1.0 + n_th) / n_th))


def dressed_dephasing_rate(Gamma_phi: float, gamma_m: float, lam: float,
                           n_th: float) -> float:
    """Total qubit dephasing rate: bare rate plus the mechanically induced part
    4 gamma_m lam^2 / ln((1+n_th)/n_th).

    Requires n_th > 0: the logarithm is undefined at zero occupancy.  Channel
    assembly (`build_dissipators`) takes the n_th -> 0 limit analytically
    instead of calling this with n_th = 0.
    """
    if Gamma_phi < 0 or gamma_m < 0 or n_th < 0:
        raise ValueError("rates and occupancies must be >= 0")
    if n_th == 0:
        raise ValueError("n_th must be > 0 (the dressed-rate logarithm needs it)")
    return Gamma_phi + _induced_dephasing(gamma_m, lam, n_th)


def photon_dephasing_rate(gamma_m: float, g: float, n_th: float) -> float:
    """Photon-number dephasing rate 4 gamma_m g^2 / ln((1+n_th)/n_th)."""
    if gamma_m < 0 or n_th < 0:
        raise ValueError("rates and occupancies must be >= 0")
    return _induced_dephasing(gamma_m, g, n_th)


@dataclass(frozen=True)
class DissipatorSpec:
    """One jump channel: label, rate multiplying L[O], and the operator (CSR)."""

    label: str
    rate: float
    operator: sparse.csr_matrix

    def __post_init__(self):
        if self.rate < 0 or not np.isfinite(self.rate):
            raise ValueError(f"channel {self.label}: rate must be finite and >= 0")


def build_dissipators(params: ModelParams, cspace: CompositeSpace,
                      dephasing_rate: float | None = None) -> list[DissipatorSpec]:
    """All jump channels with nonzero rate.

    Channels: dressed mechanical decay/excitation, cavity decay, qubit
    relaxation/excitation, qubit dephasing (dressed unless `dephasing_rate`
    pins the total directly), and photon-number dephasing.
    """
    if dephasing_rate is None:
        gphi = params.Gamma_phi + _induced_dephasing(params.gamma_m, params.lam, params.n_th)
    else:
        gphi = float(dephasing_rate)
        if not gphi >= 0:  # NaN fails too
            raise ValueError(f"dephasing_rate must be >= 0, got {gphi}")
    b, a, num_c, sz, sm = _operators(cspace, "b", "a", "num_c", "sz", "sm")
    gm, n_th, n_q = params.gamma_m, params.n_th, params.qubit_bath_occupancy
    # in the order the Liouvillian sums them; every rate is a product of
    # nonnegative factors, so a channel is dropped exactly when one is zero
    table = (
        ("mech_decay", gm * (n_th + 1.0), b - params.g * num_c),
        ("mech_excite", gm * n_th, b.conj().T.tocsr() - params.g * num_c),
        ("cavity_decay", params.kappa, a),
        ("qubit_decay", params.Gamma * (1.0 + n_q), sm),
        ("qubit_excite", params.Gamma * n_q, sm.T),  # sm is real: adjoint = transpose
        ("qubit_dephasing", 0.5 * gphi, sz),
        ("photon_dephasing", _induced_dephasing(gm, params.g, n_th), num_c),
    )
    return [DissipatorSpec(label, rate, op.tocsr()) for label, rate, op in table if rate > 0]


def lindblad_rhs(rho: DensityMatrix | np.ndarray, params: ModelParams,
                 cspace: CompositeSpace | None = None,
                 dissipators: Sequence[DissipatorSpec] | None = None) -> np.ndarray:
    """Right-hand side -i[H, rho] + sum_k r_k (2 O rho O' - rho O'O - O'O rho).

    Reference implementation; `integrate` uses the equivalent precomputed sparse
    Liouvillian.
    """
    if isinstance(rho, DensityMatrix):
        if cspace is None:
            cspace = CompositeSpace.of(rho.space)
        mat = rho.matrix
    else:
        if cspace is None:
            raise ValueError("cspace required when passing a bare matrix")
        mat = np.asarray(rho, dtype=complex)
    h = hamiltonian(params, cspace, as_sparse=True)
    if dissipators is None:
        dissipators = build_dissipators(params, cspace)
    out = -1j * ((h @ mat) - (h.conj().T.tocsr() @ mat.conj().T).conj().T)
    for ch in dissipators:
        o = ch.operator
        x = o @ mat
        oo = (o.conj().T.tocsr() @ o).tocsr()
        # O rho O' = (O (O rho)')' for any rho
        out += ch.rate * (2.0 * (o @ x.conj().T).conj().T
                          - (oo @ mat) - (oo @ mat.conj().T).conj().T)
    return out


def _liouvillian(h: sparse.csr_matrix,
                 dissipators: Sequence[DissipatorSpec]) -> sparse.csr_matrix:
    """Liouvillian (CSR) of the Hamiltonian `h` (CSR) and the channels, acting
    on row-major-flattened density matrices.

    With C-ordered flattening vec(A rho B) = (A kron B^T) vec(rho), so the
    whole right-hand side collapses to one sparse matrix-vector product:
    L = -i (H_eff kron I - I kron conj(H_eff)) + sum_k 2 r_k O_k kron conj(O_k),
    H_eff = H - i sum_k r_k O_k'O_k.  The memory cost is roughly
    dim * (total operator nnz), fine for the composite sizes used here.
    """
    d = h.shape[0]
    eye = sparse.identity(d, format="csr", dtype=complex)
    gain = sparse.csr_matrix((d, d), dtype=complex)
    jump = sparse.csr_matrix((d * d, d * d), dtype=complex)
    for ch in dissipators:
        o = ch.operator
        gain = gain + ch.rate * (o.conj().T.tocsr() @ o)
        jump = jump + (2.0 * ch.rate) * sparse.kron(o, o.conj(), format="csr")
    h_eff = h - 1j * gain
    lio = -1j * (sparse.kron(h_eff, eye, format="csr")
                 - sparse.kron(eye, h_eff.conj(), format="csr")) + jump
    lio.sort_indices()
    return lio


def _spectral_radius(h: sparse.csr_matrix,
                     dissipators: Sequence[DissipatorSpec]) -> float:
    """Half-width R of the strip that holds the spectrum of the Liouvillian.

    The commutator -i[H, .] has eigenvalues -i(E_j - E_k), so it fills
    i[-S, S] with S = E_max - E_min, the Bohr spread of the truncated H.  The
    dissipative rest D = -(G kron I + I kron conj(G)) + sum_k 2 r_k O_k kron
    conj(O_k), G = sum_k r_k O_k'O_k, adds at most ||D||_1 <= sum_k 2 r_k
    ||O_k||_1 (||O_k||_inf + ||O_k||_1), by ||A kron B||_1 = ||A||_1 ||B||_1
    and ||O'||_1 = ||O||_inf; the bound keeps R > 0 when S = 0.  Everything
    is measured on d x d operators.
    """
    energies = np.linalg.eigvalsh(h.toarray())
    bound = 0.0
    for ch in dissipators:
        mag = abs(ch.operator)
        col, row = mag.sum(axis=0).max(), mag.sum(axis=1).max()
        bound += 2.0 * ch.rate * col * (row + col)
    return float(energies[-1] - energies[0] + bound)


def _chebyshev_action(lio: sparse.csr_matrix, mu: float, radius: float,
                      span: float, v: np.ndarray) -> np.ndarray:
    """exp(span * lio) @ v by the Chebyshev-Bessel expansion.

    Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967: with Y = (lio - mu) /
    (i radius) and tau = span * radius,
    exp(span lio) = e^{span mu} [J_0(tau) + 2 sum_{k>=1} i^k J_k(tau) T_k(Y)].
    The vectors carry the i^k: U_k = i^k T_k(Y) v obeys U_{k+1} =
    (2 / radius)(lio - mu) U_k + U_{k-1}, so mu and 1/(i radius) become two
    real scalars of the recurrence and no scaled copy of `lio` is formed.
    The series stops once k > tau and a term falls below 2^-53 of the
    partial sum.
    """
    if radius == 0.0:  # H a multiple of the identity and no channel: lio = 0
        return v.copy()
    tau = span * radius
    # J_k(tau) decays faster than any exponential once k > tau; 2 tau + 64
    # terms take it far below 2^-53
    coef = 2.0 * special.jv(np.arange(2 * math.ceil(tau) + 64), tau)
    s = 2.0 / radius
    prev, cur = v, lio @ v
    cur -= mu * v
    cur *= 0.5 * s
    out = (0.5 * coef[0]) * v + coef[1] * cur
    tmp = np.empty_like(out)  # one scratch vector: fresh temporaries cost page faults
    for k in range(2, coef.size):
        nxt = lio @ cur
        nxt -= np.multiply(cur, mu, out=tmp)
        nxt *= s
        nxt += prev
        prev, cur = cur, nxt
        out += np.multiply(cur, coef[k], out=tmp)
        if k > tau and coef[k] * np.abs(cur).max() <= 2.0 ** -53 * np.abs(out).max():
            return math.exp(span * mu) * out
    raise IntegrationError(f"Chebyshev series did not converge within {coef.size} terms "
                           f"(tau = {tau:.3g})")


# every propagated sample must keep its trace within _TRACE_TOL of 1 and no
# eigenvalue below _POSITIVITY_TOL
_TRACE_TOL = 1e-6
_POSITIVITY_TOL = -1e-6


@dataclass(frozen=True)
class OpenSystemConfig:
    """Settings for `integrate`.

    `dt` is accepted and validated (it must be positive and finite) but no
    longer affects the result: the propagator reaches every sample time
    directly through the action of the Liouvillian exponential.
    """

    dt: float = 1e-3

    def __post_init__(self):
        if self.dt <= 0 or not np.isfinite(self.dt):
            raise ValueError("dt must be positive and finite")


def integrate(rho0: DensityMatrix, params: ModelParams, times: Iterable[float],
              config: OpenSystemConfig | None = None,
              dissipators: Sequence[DissipatorSpec] | None = None) -> Trajectory:
    """Propagate the master equation from t = 0 and sample at `times`.

    The generator does not depend on time, so each sample is exp((t_k -
    t_{k-1}) L) applied to the previous one, computed by the Chebyshev-Bessel
    expansion of that action (`config.dt` plays no part).  Its cost is set by
    the Bohr spread of the truncated H (plus a bound on the dissipative part
    of L), not by the norm of L: about tau + O(tau^(1/3)) sparse products
    for tau = (t_k - t_{k-1}) * radius.  Each propagated sample is
    symmetrized once and checked for trace drift and positivity.  Sample
    times must be nonnegative and strictly increasing.
    """
    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one sample time")
    if times[0] < 0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be nonnegative and strictly increasing")
    cspace = CompositeSpace.of(rho0.space)
    if dissipators is None:
        dissipators = build_dissipators(params, cspace)
    h = hamiltonian(params, cspace, as_sparse=True)
    lio = _liouvillian(h, dissipators)
    mu = float(lio.diagonal().real.mean())
    radius = _spectral_radius(h, dissipators)

    d = rho0.space.dim
    mat = rho0.matrix
    t_now = 0.0
    samples = []
    for target in times:
        if target > t_now:
            mat = _chebyshev_action(lio, mu, radius, target - t_now,
                                    mat.reshape(-1)).reshape(d, d)
            mat = 0.5 * (mat + mat.conj().T)
            t_now = target
        tr = np.trace(mat).real
        if abs(tr - 1.0) > _TRACE_TOL:
            raise IntegrationError(
                f"trace drift {tr - 1.0:.3e} at t = {t_now:.6f} exceeds "
                f"{_TRACE_TOL:.1e}")
        w_min = float(np.linalg.eigvalsh(mat).min())
        if w_min < _POSITIVITY_TOL:
            raise IntegrationError(
                f"negative eigenvalue {w_min:.3e} at t = {t_now:.6f} beyond "
                f"{_POSITIVITY_TOL:.1e}")
        samples.append(DensityMatrix(rho0.space, mat,
                                     discarded_weight=rho0.discarded_weight))
    return Trajectory(tuple(times), tuple(samples))


def sweep_initial_state(params: ModelParams, cspace: CompositeSpace) -> DensityMatrix:
    """(|up> + |down>)/sqrt2 x |alpha> x thermal(n_th) on the truncations of `cspace`."""
    q = qubit_state(1.0, 1.0).density_matrix()
    cav = coherent_state(params.alpha, cspace.n_cav, label="cavity").density_matrix()
    mech = thermal_density(params.n_th, cspace.n_mech, label="mech")
    return tensor(q, cav, mech)


def negativity_sweep(Gamma_values: Sequence[float], gamma_phi_values: Sequence[float],
                     params: ModelParams, rho0: DensityMatrix,
                     t_cycle: float = 2.0 * math.pi,
                     config: OpenSystemConfig | None = None,
                     progress: Callable[[float, float, float], None] | None = None
                     ) -> list[tuple[float, float, float]]:
    """Qubit-cavity negativity after one period for each (Gamma, gamma_phi) cell.

    gamma_phi values are the total qubit dephasing rates (the dressed rate is
    pinned, not re-derived from a bare rate).  Cells are independent, all
    starting from rho0; rows come out with Gamma as the outer loop.
    """
    rows: list[tuple[float, float, float]] = []
    cspace = CompositeSpace.of(rho0.space)
    for big_gamma in Gamma_values:
        for gphi in gamma_phi_values:
            p = params.with_rates(Gamma=float(big_gamma))
            diss = build_dissipators(p, cspace, dephasing_rate=float(gphi))
            traj = integrate(rho0, p, [t_cycle], config=config, dissipators=diss)
            rho_qc = partial_trace(traj.states[-1], ("qubit", "cavity"))
            neg = negativity(rho_qc, ("qubit",))
            rows.append((float(big_gamma), float(gphi), neg))
            if progress is not None:
                progress(float(big_gamma), float(gphi), neg)
    return rows
