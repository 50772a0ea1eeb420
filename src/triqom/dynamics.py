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
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    CompositeSpace,
    DensityMatrix,
    ModelParams,
    PureState,
    Space,
    _joint_tail,
    _operators,
    _poisson_tail,
    _require_bytes,
    coherent_amplitudes,
    coherent_dim,
    destroy,
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
    b = destroy(n_mech)
    return np.linalg.eigh(1j * (e.conjugate() * b - e * b.T))


def _branch_phases(s: np.ndarray, t: float | np.ndarray, beta: complex) -> np.ndarray:
    """exp(i (s^2 (t - sin t) + s Im(eta beta))) for joint pulls s.

    beta = 0 gives the phase of the bare propagator; a nonzero beta adds the
    drive phase a branch picks up from displacing the coherent state |beta>.
    t broadcasts against s: times of shape (S, 1) give the (S, len(s)) stack.
    """
    t = np.asarray(t, dtype=float)
    tau = t - np.sin(t)
    drive = (eta(t) * beta).imag
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


def _branch_state(qc_weights: np.ndarray, ts, params: ModelParams,
                  cspace: CompositeSpace) -> tuple[np.ndarray, list[float]]:
    """Assemble sum_k w_k |q_k, n_k> (x) exp(i theta_k) |beta e^{-it} + s_k eta>
    at each of the S times `ts`, as one stack.

    qc_weights has shape (2, n_cav) and already carries the initial qubit and
    cavity amplitudes; this attaches branch phases and mechanics factors.
    Returns the normalized (S, 1, 2 n_cav, n_mech) amplitudes and the S
    discarded weights.  Each captured weight is one vdot per sample, so every
    slice is bit-identical to its S = 1 call.
    """
    nc, nm = cspace.n_cav, cspace.n_mech
    s = branch_shifts(params, nc)
    ts = np.asarray(ts, dtype=float)[:, None]
    phases = _branch_phases(s, ts, params.beta)
    phis = params.beta * np.exp(-1j * ts) + s * eta(ts)
    amp = (qc_weights.reshape(-1) * phases)[..., None] * coherent_amplitudes(phis, nm)
    discarded = []
    for x in amp:
        captured = float(np.vdot(x, x).real)
        if captured <= 0:
            raise ValueError("state lost entirely to truncation")
        x /= math.sqrt(captured)
        discarded.append(max(0.0, 1.0 - captured))
    return amp[:, None], discarded


def _fock_weights(params: ModelParams, n_cav: int) -> np.ndarray:
    """Initial (2, n_cav) branch weights: qubit (up+down)/sqrt2, cavity (|0>-|1>)/sqrt2."""
    if n_cav < 2:
        raise ValueError("cavity truncation must be >= 2 for the |0>,|1> superposition")
    w = np.zeros((2, n_cav), dtype=complex)
    w[:, :2] = 0.5, -0.5
    return w


def _coherent_weights(params: ModelParams, n_cav: int) -> np.ndarray:
    """Initial (2, n_cav) branch weights: qubit (up+down)/sqrt2, cavity |alpha>."""
    return np.tile(coherent_amplitudes(params.alpha, n_cav) / math.sqrt(2.0), (2, 1))


def evolve_fock_superposition(t: float, params: ModelParams,
                              cspace: CompositeSpace | None = None) -> PureState:
    """Closed-form state for qubit (up+down)/sqrt2, cavity (|0>-|1>)/sqrt2, mech |beta>.

    Four branches, one per joint (spin, photon-number) label, each a displaced
    coherent state of the oscillator with its own accumulated phase.
    """
    cspace = cspace or default_composite_space(params, family="fock")
    amp, [discarded] = _branch_state(_fock_weights(params, cspace.n_cav), [t], params, cspace)
    return PureState(cspace.space, amp[0, 0], discarded_weight=discarded)


def coherent_amplitude_coeff(n, sign: int, t: float, params: ModelParams):
    """Branch coefficient C_n(sign) for the coherent-cavity closed form.

    C = alpha^n / sqrt(2 n!) * exp(-|alpha|^2/2)
        * exp(i s^2 (t - sin t)) * exp(i s Im(eta beta)),  s = g n + sign lam.
    Vectorized over n.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    n = np.asarray(n)
    if n.size == 0:
        return np.zeros(n.shape, dtype=complex)
    if n.dtype.kind not in "iu":
        raise ValueError(f"photon numbers must be integers, got {n.dtype} values")
    if np.any(n < 0):
        raise ValueError("photon numbers must be >= 0")
    s = params.g * n + sign * params.lam
    levels = int(n.max()) + 1
    # traced, the amplitude table and its log-factorials peak at up to 108
    # bytes per level (70,000 and 300,000 levels)
    _require_bytes(128.0 * levels, f"coherent amplitudes up to n = {levels - 1}")
    mag = coherent_amplitudes(params.alpha, levels)[n] / math.sqrt(2.0)
    return mag * _branch_phases(s, t, params.beta)


def evolve_coherent(t: float, params: ModelParams,
                    cspace: CompositeSpace | None = None) -> PureState:
    """Closed-form state for qubit (up+down)/sqrt2, cavity |alpha>, mech |beta>."""
    cspace = cspace or default_composite_space(params, family="coherent")
    amp, [discarded] = _branch_state(_coherent_weights(params, cspace.n_cav), [t], params, cspace)
    return PureState(cspace.space, amp[0, 0], discarded_weight=discarded)


def qubit_cavity_at_cycle(l: int, params: ModelParams,
                          n_cav: int | None = None) -> PureState:
    """Pure qubit-cavity state after l full mechanical periods (t = 2 pi l).

    The oscillator factors out exactly (eta vanishes); each photon branch keeps
    the phase exp(i (g n +/- lam)^2 2 pi l) on its spin component.  The
    discarded weight is the cavity's exact Poisson tail beyond n_cav.
    """
    if l < 0 or int(l) != l:
        raise ValueError("cycle count l must be a nonnegative integer")
    if n_cav is None:
        n_cav = coherent_dim(params.alpha)
    w = _coherent_weights(params, n_cav).reshape(-1)
    vec = w * _branch_phases(branch_shifts(params, n_cav), 2.0 * math.pi * l, params.beta)
    nrm = np.linalg.norm(vec)
    if nrm == 0:
        raise ValueError("state lost entirely to truncation")
    return PureState(Space(("qubit", "cavity"), (2, n_cav)), vec / nrm,
                     discarded_weight=float(_poisson_tail(n_cav, params.alpha)))


def _thermal_purification(ts, params: ModelParams,
                          cspace: CompositeSpace) -> tuple[np.ndarray, float]:
    """The thermal family at the S times `ts` as a purification: the
    (S, n_mech, 2 n_cav, n_mech) stack of y_m = sqrt(p_m) U(t) (psi_qc (x) |m>),
    psi_qc = `qubit_cavity_at_cycle` at l = 0 and m a thermal level, with
    rho(t) = sum_m y_m y_m^dagger; and the discarded weight, the same at every time."""
    psi_qc = qubit_cavity_at_cycle(0, params, cspace.n_cav)
    th = thermal_density(params.nbar_mech, cspace.n_mech)
    x = psi_qc.amplitudes[None, :, None] * np.diag(np.sqrt(np.diag(th.matrix).real))[:, None, :]
    y = np.stack([_propagate(x, t, params) for t in ts])
    return y, _joint_tail(psi_qc.discarded_weight, th.discarded_weight)


def evolve_thermal(t: float, params: ModelParams,
                   cspace: CompositeSpace | None = None) -> DensityMatrix:
    """Full tripartite state at time t for thermal initial mechanics.

    Initial state: qubit (up+down)/sqrt2, cavity |alpha>, mechanics thermal at
    nbar_mech: sum_m p_m |psi_m><psi_m| of the exact truncated propagator
    applied to psi_qc (x) |m>, the contraction of `_thermal_purification`.
    """
    cspace = cspace or default_composite_space(params, family="thermal")
    y, w_total = _thermal_purification([t], params, cspace)
    y = y[0].reshape(cspace.n_mech, -1)
    return DensityMatrix(cspace.space, y.T @ y.conj(), discarded_weight=w_total)


def _family_series(family: str, params: ModelParams, cspace: CompositeSpace):
    """(build, K) of a closed family's series for `entanglement._series`:
    build(ts) returns the (S, K, 2 n_cav, n_mech) amplitudes at the S times
    `ts` and their discarded weights, K = 1 for a pure family and n_mech for
    the thermal purification.  build looks its builder up and builds the
    initial weights at each call, so a series `_chunks` refuses builds nothing."""
    if family == "thermal":
        return (lambda ts: _thermal_purification(ts, params, cspace)), cspace.n_mech
    weights = {"fock": _fock_weights, "coherent": _coherent_weights}[family]
    return (lambda ts: _branch_state(weights(params, cspace.n_cav), ts, params, cspace)), 1


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


def _family_space(params: ModelParams, family: str, n_cav: int | None = None,
                  n_mech: int | None = None) -> CompositeSpace:
    """A closed family's space, each cutoff not given set by its default: the
    Poisson tail rule for a coherent cavity (2 levels for `fock`), and the reach
    of the family's own initial mechanics, |beta> or (`thermal`) undisplaced."""
    if family not in ("fock", "coherent", "thermal"):
        raise ValueError(f"unknown family {family!r}")
    if n_cav is None:
        n_cav = 2 if family == "fock" else coherent_dim(params.alpha)
    if n_mech is None:
        start = (replace(params, beta=0.0) if family == "thermal"
                 else replace(params, nbar_mech=0.0))
        n_mech = mechanics_dim(start, n_cav)
    return CompositeSpace(n_cav, n_mech)


def default_composite_space(params: ModelParams, family: str = "coherent") -> CompositeSpace:
    """Truncation defaults of a closed family (see `_family_space`)."""
    return _family_space(params, family)
