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
from scipy import sparse

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


def _thermal_log_factor(n_th: float) -> float:
    # 1/ln((1+n)/n), with the n -> 0 limit taken analytically (factor -> 0)
    if n_th <= 0:
        return 0.0
    return 1.0 / math.log((1.0 + n_th) / n_th)


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
    return Gamma_phi + 4.0 * gamma_m * lam * lam * _thermal_log_factor(n_th)


def photon_dephasing_rate(gamma_m: float, g: float, n_th: float) -> float:
    """Photon-number dephasing rate 4 gamma_m g^2 / ln((1+n_th)/n_th)."""
    if gamma_m < 0 or n_th < 0:
        raise ValueError("rates and occupancies must be >= 0")
    return 4.0 * gamma_m * g * g * _thermal_log_factor(n_th)


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
    b, a, num_c, sz, sm = _operators(cspace, "b", "a", "num_c", "sz", "sm")
    n_th = params.n_th
    n_q = params.qubit_bath_occupancy
    chans: list[DissipatorSpec] = []
    if params.gamma_m > 0:
        dressed_down = (b - params.g * num_c).tocsr()
        chans.append(DissipatorSpec("mech_decay", params.gamma_m * (n_th + 1.0),
                                    dressed_down))
        if n_th > 0:
            dressed_up = (b.conj().T.tocsr() - params.g * num_c).tocsr()
            chans.append(DissipatorSpec("mech_excite", params.gamma_m * n_th, dressed_up))
    if params.kappa > 0:
        chans.append(DissipatorSpec("cavity_decay", params.kappa, a))
    if params.Gamma > 0:
        chans.append(DissipatorSpec("qubit_decay", params.Gamma * (1.0 + n_q), sm))
        if n_q > 0:
            # sm is real, so its adjoint is its transpose
            chans.append(DissipatorSpec("qubit_excite", params.Gamma * n_q, sm.T.tocsr()))
    if dephasing_rate is not None:
        gphi = float(dephasing_rate)
        if not gphi >= 0:  # NaN fails too
            raise ValueError(f"dephasing_rate must be >= 0, got {gphi}")
    else:
        # analytic n_th -> 0 limit: the induced part vanishes with 1/ln((1+n)/n)
        gphi = params.Gamma_phi + 4.0 * params.gamma_m * params.lam ** 2 \
            * _thermal_log_factor(n_th)
    if gphi > 0:
        chans.append(DissipatorSpec("qubit_dephasing", 0.5 * gphi, sz))
    pd = photon_dephasing_rate(params.gamma_m, params.g, n_th)
    if pd > 0:
        chans.append(DissipatorSpec("photon_dephasing", pd, num_c))
    return chans


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


def _liouvillian(params: ModelParams, cspace: CompositeSpace,
                 dissipators: Sequence[DissipatorSpec] | None = None
                 ) -> sparse.csr_matrix:
    """Liouvillian (CSR) acting on row-major-flattened density matrices.

    With C-ordered flattening vec(A rho B) = (A kron B^T) vec(rho), so the
    whole right-hand side collapses to one sparse matrix-vector product:
    L = -i (H_eff kron I - I kron conj(H_eff)) + sum_k 2 r_k O_k kron conj(O_k),
    H_eff = H - i sum_k r_k O_k'O_k.  The memory cost is roughly
    dim * (total operator nnz), fine for the composite sizes used here.
    """
    h = hamiltonian(params, cspace, as_sparse=True).astype(complex)
    if dissipators is None:
        dissipators = build_dissipators(params, cspace)
    eye = sparse.identity(cspace.dim, format="csr", dtype=complex)
    gain = None
    jump = None
    for ch in dissipators:
        o = ch.operator.astype(complex).tocsr()
        oo = (o.conj().T.tocsr() @ o).tocsr()
        gain = ch.rate * oo if gain is None else gain + ch.rate * oo
        term = (2.0 * ch.rate) * sparse.kron(o, o.conj(), format="csr")
        jump = term if jump is None else jump + term
    h_eff = h if gain is None else (h - 1j * gain).tocsr()
    lio = -1j * (sparse.kron(h_eff, eye, format="csr")
                 - sparse.kron(eye, h_eff.conj(), format="csr"))
    if jump is not None:
        lio = lio + jump
    lio = lio.tocsr()
    lio.sort_indices()
    return lio


# theta_m for the backward-error tolerance 2^-53 (Higham, Functions of
# Matrices, Table A.3 for m <= 30; Al-Mohy & Higham, SIAM J. Sci. Comput. 33
# (2011) 488, Table 3.1 beyond).  When ||t A||_1 / s <= theta_m, the degree-m
# Taylor polynomial of exp(t A / s) is the exact exponential of a matrix
# within relative distance 2^-53 of t A / s.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0 ** -53


def _expm_action(lio: sparse.csr_matrix, norm1: float, span: float,
                 v: np.ndarray) -> np.ndarray:
    """exp(span * lio) @ v by Al-Mohy & Higham (2011), Algorithm 3.2.

    `norm1` is the exact 1-norm of `lio`.  The Taylor degree m and the number
    of scaling steps s minimise the product count m * s subject to
    span * norm1 / s <= theta_m; each series stops early once two successive
    terms fall below 2^-53 of the partial sum.
    """
    m, s = min(((m, max(1, math.ceil(span * norm1 / theta)))
                for m, theta in _THETA.items()), key=lambda ms: ms[0] * ms[1])
    h = span / s
    for _ in range(s):
        term = v
        c1 = np.abs(term).max()
        v = v.copy()
        for j in range(1, m + 1):
            term = lio @ term
            term *= h / j
            v += term
            c2 = np.abs(term).max()
            if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(v).max():
                break
            c1 = c2
    return v


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
    t_{k-1}) L) applied to the previous one, computed as a scaled truncated
    Taylor series with a 2^-53 backward-error bound (`config.dt` plays no
    part).  Each propagated sample is symmetrized once and checked for trace
    drift and positivity.  Sample times must be nonnegative and
    strictly increasing.
    """
    if config is None:
        config = OpenSystemConfig()
    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one sample time")
    if times[0] < 0 or any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("sample times must be nonnegative and strictly increasing")
    lio = _liouvillian(params, CompositeSpace.of(rho0.space), dissipators)
    norm1 = float(np.bincount(lio.indices, weights=np.abs(lio.data)).max(initial=0.0))

    d = rho0.space.dim
    mat = rho0.matrix
    t_now = 0.0
    samples = []
    for target in times:
        if target > t_now:
            mat = _expm_action(lio, norm1, target - t_now, mat.reshape(-1)).reshape(d, d)
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
