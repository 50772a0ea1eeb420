"""Closed-system dynamics of the dispersive qubit-cavity-mechanics model.

In mechanical-frequency units the Hamiltonian is
    H = b'b - (g a'a + lam sz) (b + b')
which conserves both the photon number and sz.  The propagator factorizes per
joint eigenvalue s = g*n + lam*sigma into a branch phase exp(i s^2 (t - sin t)),
a mechanical displacement by s * eta(t) with eta(t) = 1 - exp(-i t), and the
free rotation exp(-i t b'b).  Everything here evaluates those factors directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import (
    CompositeSpace,
    DensityMatrix,
    ModelParams,
    PureState,
    Space,
    _operators,
    coherent_amplitudes,
    coherent_dim,
    mechanics_dim,
    thermal_density,
)

__all__ = [
    "eta",
    "branch_shifts",
    "hamiltonian",
    "evolve_unitary",
    "evolve_fock_superposition",
    "coherent_amplitude_coeff",
    "evolve_coherent",
    "qubit_cavity_at_cycle",
    "evolve_thermal",
    "Trajectory",
    "default_composite_space",
]


def eta(t):
    """Mechanical loop factor 1 - exp(-i t); zero at every full period."""
    return 1.0 - np.exp(-1j * np.asarray(t, dtype=float))


def branch_shifts(params: ModelParams, n_cav: int) -> np.ndarray:
    """Joint pull s = g*n + lam*sigma for branches (q, n), flattened q-major.

    Spin-up rows (q = 0) come first with sigma = +1, then spin-down.
    """
    n = np.arange(n_cav, dtype=float)
    return np.concatenate([params.g * n + params.lam, params.g * n - params.lam])


def hamiltonian(params: ModelParams, cspace: CompositeSpace, *, as_sparse: bool = False):
    """Full composite-space Hamiltonian matrix (dense ndarray or CSR)."""
    num_c, sz, b, num_m = _operators(cspace, "num_c", "sz", "b", "num_m")
    pull = params.g * num_c + params.lam * sz
    h = (num_m - pull @ (b + b.conj().T)).tocsr()
    return h if as_sparse else h.toarray()


def _displacement_factors(t: float, n_mech: int):
    """Eigen-decomposition of the displacement generator at time t.

    Returns (w, V) with exp(s (eta b' - eta* b)) = V diag(exp(i s w)) V'.  At
    eta = 0 the generator is the zero matrix and eigh returns exactly (0, I).
    """
    e = complex(eta(t))
    sq = np.sqrt(np.arange(1, n_mech, dtype=float))
    m = np.zeros((n_mech, n_mech), dtype=complex)
    sub = -1j * e * sq
    m[np.arange(1, n_mech), np.arange(n_mech - 1)] = sub
    m[np.arange(n_mech - 1), np.arange(1, n_mech)] = sub.conj()
    return np.linalg.eigh(m)


def _branch_phases(s: np.ndarray, t: float, beta: complex) -> np.ndarray:
    """exp(i (s^2 (t - sin t) + s Im(eta beta))) for joint pulls s.

    beta = 0 gives the phase of the bare propagator; a nonzero beta adds the
    drive phase a branch picks up from displacing the coherent state |beta>.
    """
    tau = t - math.sin(t)
    drive = (complex(eta(t)) * beta).imag
    return np.exp(1j * (s * s * tau + s * drive))


def _propagate(x: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Apply the truncated propagator at time t to amplitudes (..., 2 n_cav, n_mech).

    Rows are the (spin, photon) branches in `branch_shifts` order, columns the
    mechanics Fock levels: free rotation, branch displacement, branch phase.
    """
    nc, nm = x.shape[-2] // 2, x.shape[-1]
    x = x * np.exp(-1j * t * np.arange(nm))
    s = branch_shifts(params, nc)
    w, v = _displacement_factors(t, nm)
    z = x @ v.conj()
    z *= np.exp(1j * np.outer(s, w))
    x = z @ v.T
    x *= _branch_phases(s, t, 0.0)[:, None]
    return x


def evolve_unitary(state: PureState, t: float, params: ModelParams) -> PureState:
    """Apply the exact propagator at time t to a full tripartite pure state."""
    cspace = CompositeSpace.of(state.space)
    x = _propagate(state.reshaped().reshape(2 * cspace.n_cav, cspace.n_mech), t, params)
    return PureState(state.space, x.reshape(-1), state.discarded_weight)


def _branch_state(qc_weights: np.ndarray, t: float, params: ModelParams,
                  cspace: CompositeSpace) -> PureState:
    """Assemble sum_k w_k |q_k, n_k> (x) exp(i theta_k) |beta e^{-it} + s_k eta>.

    qc_weights has shape (2, n_cav) and already carries the initial qubit and
    cavity amplitudes; this attaches branch phases and mechanics factors.
    """
    nc, nm = cspace.n_cav, cspace.n_mech
    s = branch_shifts(params, nc)
    phases = _branch_phases(s, t, params.beta)
    phis = params.beta * np.exp(-1j * t) + s * complex(eta(t))
    rows = coherent_amplitudes(phis, nm)
    amp = (qc_weights.reshape(-1) * phases)[:, None] * rows
    vec = amp.reshape(-1)
    captured = float(np.vdot(vec, vec).real)
    if captured <= 0:
        raise ValueError("state lost entirely to truncation")
    vec = vec / math.sqrt(captured)
    return PureState(cspace.space, vec, discarded_weight=max(0.0, 1.0 - captured))


def evolve_fock_superposition(t: float, params: ModelParams,
                              cspace: CompositeSpace | None = None) -> PureState:
    """Closed-form state for qubit (up+down)/sqrt2, cavity (|0>-|1>)/sqrt2, mech |beta>.

    Four branches, one per joint (spin, photon-number) label, each a displaced
    coherent state of the oscillator with its own accumulated phase.
    """
    if cspace is None:
        cspace = default_composite_space(params, family="fock")
    if cspace.n_cav < 2:
        raise ValueError("cavity truncation must be >= 2 for the |0>,|1> superposition")
    w = np.zeros((2, cspace.n_cav), dtype=complex)
    w[:, 0] = 0.5
    w[:, 1] = -0.5
    return _branch_state(w, t, params, cspace)


def coherent_amplitude_coeff(n, sign: int, t: float, params: ModelParams):
    """Branch coefficient C_n(sign) for the coherent-cavity closed form.

    C = alpha^n / sqrt(2 n!) * exp(-|alpha|^2/2)
        * exp(i s^2 (t - sin t)) * exp(i s Im(eta beta)),  s = g n + sign lam.
    Vectorized over n.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("photon numbers must be >= 0")
    s = params.g * n + sign * params.lam
    mag = coherent_amplitudes(params.alpha, int(n.max()) + 1)[n] / math.sqrt(2.0)
    return mag * _branch_phases(s, t, params.beta)


def evolve_coherent(t: float, params: ModelParams,
                    cspace: CompositeSpace | None = None) -> PureState:
    """Closed-form state for qubit (up+down)/sqrt2, cavity |alpha>, mech |beta>."""
    if cspace is None:
        cspace = default_composite_space(params, family="coherent")
    w = np.tile(coherent_amplitudes(params.alpha, cspace.n_cav) / math.sqrt(2.0), (2, 1))
    return _branch_state(w, t, params, cspace)


def qubit_cavity_at_cycle(l: int, params: ModelParams,
                          n_cav: int | None = None) -> PureState:
    """Pure qubit-cavity state after l full mechanical periods (t = 2 pi l).

    The oscillator factors out exactly (eta vanishes); each photon branch keeps
    the phase exp(i (g n +/- lam)^2 2 pi l) on its spin component.
    """
    if l < 0 or int(l) != l:
        raise ValueError("cycle count l must be a nonnegative integer")
    if n_cav is None:
        n_cav = coherent_dim(params.alpha)
    c = coherent_amplitudes(params.alpha, n_cav) / math.sqrt(2.0)
    s = branch_shifts(params, n_cav)
    vec = np.tile(c, 2) * _branch_phases(s, 2.0 * math.pi * l, params.beta)
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ValueError("state lost entirely to truncation")
    space = Space(("qubit", "cavity"), (2, n_cav))
    return PureState(space, vec / nrm, discarded_weight=max(0.0, 1.0 - float(nrm) ** 2))


def evolve_thermal(t: float, params: ModelParams,
                   cspace: CompositeSpace | None = None) -> DensityMatrix:
    """Full tripartite state at time t for thermal initial mechanics.

    Initial state: qubit (up+down)/sqrt2, cavity |alpha>, mechanics thermal at
    nbar_mech.  Computed as the thermal mixture sum_m p_m |psi_m><psi_m| of the
    exact truncated propagator applied to psi_qc (x) |m>, one column per level.
    """
    if cspace is None:
        cspace = default_composite_space(params, family="thermal")
    nc, nm = cspace.n_cav, cspace.n_mech
    cav = coherent_amplitudes(params.alpha, nc)
    cav_tail = float(special.gammainc(nc, abs(params.alpha) ** 2))
    psi_qc = np.concatenate([cav, cav]) / math.sqrt(2.0)
    psi_qc /= np.linalg.norm(psi_qc)
    th = thermal_density(params.nbar_mech, nm)
    p = np.diag(th.matrix).real
    x = psi_qc[None, :, None] * np.diag(np.sqrt(p))[:, None, :]
    y = _propagate(x, t, params).reshape(nm, -1)
    rho = y.T @ y.conj()
    w_total = 1.0 - (1.0 - cav_tail) * (1.0 - th.discarded_weight)
    return DensityMatrix(cspace.space, rho, discarded_weight=w_total)


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times and the state at each time."""

    times: tuple[float, ...]
    states: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        if len(times) != len(self.states):
            raise ValueError("times and states length mismatch")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", tuple(self.states))

    def __len__(self) -> int:
        return len(self.times)


def default_composite_space(params: ModelParams, family: str = "coherent") -> CompositeSpace:
    """Truncation defaults: Poisson tail rule for the cavity, worst-case
    displacement reach (plus any thermal floor) for the mechanics."""
    if family == "fock":
        n_cav = 2
    elif family in ("coherent", "thermal"):
        n_cav = coherent_dim(params.alpha)
    else:
        raise ValueError(f"unknown family {family!r}")
    return CompositeSpace(n_cav, mechanics_dim(params, n_cav))
