"""Entanglement and mixedness diagnostics: negativity, linear entropy, and the
residual qubit-cavity correlation that survives after subtracting what the
oscillator carries."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import (SUBSYSTEMS, CompositeSpace, DensityMatrix, ModelParams, PureState,
                   Space, partial_trace)

__all__ = [
    "BipartitePartition",
    "partial_transpose",
    "negativity",
    "linear_entropy",
    "intrinsic_qc_numeric",
    "intrinsic_qc_analytic_fock",
    "intrinsic_qc_2pi_coherent",
    "EntanglementRecord",
    "entanglement_record",
]

# eigenvalues above this (negative) threshold count as numerical noise
NEG_EIG_TOL = -1e-10


@dataclass(frozen=True)
class BipartitePartition:
    """Two disjoint label groups covering a state's subsystems."""

    side_a: tuple[str, ...]
    side_b: tuple[str, ...]

    def __post_init__(self):
        a, b = tuple(self.side_a), tuple(self.side_b)
        if set(a) & set(b):
            raise ValueError("partition sides overlap")
        if not a or not b:
            raise ValueError("both partition sides must be nonempty")
        object.__setattr__(self, "side_a", a)
        object.__setattr__(self, "side_b", b)


def _as_density(state: PureState | DensityMatrix) -> DensityMatrix:
    return state.density_matrix() if isinstance(state, PureState) else state


def partial_transpose(rho: DensityMatrix, side: Iterable[str]) -> np.ndarray:
    """Matrix with the ket/bra indices of `side` subsystems exchanged."""
    side = tuple(side)
    space = rho.space
    k = len(space.labels)
    axes = [space.axis(l) for l in side]
    t = rho.matrix.reshape(space.dims + space.dims)
    perm = list(range(2 * k))
    for ax in axes:
        perm[ax], perm[ax + k] = perm[ax + k], perm[ax]
    d = space.dim
    return np.ascontiguousarray(np.transpose(t, perm).reshape(d, d))


def negativity(state: PureState | DensityMatrix,
               partition: BipartitePartition | Iterable[str]) -> float:
    """Sum of the magnitudes of the negative partial-transpose eigenvalues.

    `partition` may be a BipartitePartition or just the labels of one side
    (the other side is the complement).  0.5 for a maximally entangled pair.
    """
    rho = _as_density(state)
    if isinstance(partition, BipartitePartition):
        side = partition.side_a
        declared = set(partition.side_a) | set(partition.side_b)
        if declared != set(rho.space.labels):
            raise ValueError("partition does not cover the state's subsystems")
    else:
        side = tuple(partition)
        if not side or set(side) >= set(rho.space.labels):
            raise ValueError("partition side must be a proper nonempty subset")
    herm = float(np.max(np.abs(rho.matrix - rho.matrix.conj().T)))
    if herm > 1e-8:
        raise ValueError(f"input deviates from Hermitian by {herm:.2e}")
    pt = partial_transpose(rho, side)
    w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().T))
    neg = w[w < NEG_EIG_TOL]
    return float(max(0.0, -neg.sum()))


def linear_entropy(state: PureState | DensityMatrix) -> float:
    """1 - tr(rho^2); zero for pure states, 1 - 1/d at the maximally mixed point."""
    if isinstance(state, PureState):
        return 0.0
    return float(1.0 - state.purity())


def intrinsic_qc_numeric(state: PureState | DensityMatrix) -> float:
    """Residual qubit-cavity mixedness S_q + S_c - S_o from single-party reductions.

    For a pure tripartite state this isolates the qubit-cavity entanglement that
    is not mediated by the oscillator.  It is a pure-state measure: with thermal
    mechanics it is offset by the mechanics' linear entropy (-0.5 at t = 0 for
    nbar = 0.5).  Input must carry all three subsystems.
    """
    CompositeSpace.of(state.space)
    s_q = linear_entropy(partial_trace(state, ("qubit",)))
    s_c = linear_entropy(partial_trace(state, ("cavity",)))
    s_o = linear_entropy(partial_trace(state, ("mech",)))
    return float(s_q + s_c - s_o)


def intrinsic_qc_analytic_fock(t, params: ModelParams):
    """Closed form of the intrinsic qubit-cavity measure for the Fock-superposition
    family; valid at any time.  Vectorized over t."""
    t = np.asarray(t, dtype=float)
    g, lam = params.g, params.lam
    c = np.cos(t) - 1.0
    tau = t - np.sin(t)

    def e(x):
        return np.exp(2.0 * x * x * c)

    out = 0.125 * (
        e(g + 2.0 * lam) + e(g - 2.0 * lam) + 2.0
        - 2.0 * (e(g) + e(2.0 * lam)) * np.cos(4.0 * g * lam * tau)
    )
    return out if out.ndim else float(out)


def intrinsic_qc_2pi_coherent(params: ModelParams) -> float:
    """Intrinsic qubit-cavity measure after one full period with a coherent cavity."""
    s = math.sin(4.0 * math.pi * params.g * params.lam)
    return 1.0 - math.exp(-4.0 * abs(params.alpha) ** 2 * s * s)


@dataclass(frozen=True)
class EntanglementRecord:
    """One time sample of the pairwise negativities and the intrinsic measure."""

    time: float
    neg_qc: float
    neg_qo: float
    neg_oc: float
    intrinsic_qc: float


def _compress_mechanics(state: PureState | DensityMatrix) -> PureState | DensityMatrix:
    """Map the mechanics of a pure tripartite state onto the span it touches.

    M = U S V^dagger is the (2 n_cav x n_mech) amplitude matrix and r counts
    the singular values above numpy's matrix_rank cutoff; U_r S_r differs from
    M by the isometry V_r on the mechanics alone.
    """
    if not isinstance(state, PureState) or state.space.labels != SUBSYSTEMS:
        return state
    _, n_cav, n_mech = state.space.dims
    m = state.amplitudes.reshape(2 * n_cav, n_mech)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = max(1, int(np.count_nonzero(s > s[0] * max(m.shape) * np.finfo(float).eps)))
    return PureState(Space(SUBSYSTEMS, (2, n_cav, r)), u[:, :r] * s[:r],
                     discarded_weight=state.discarded_weight)


def entanglement_record(state: PureState | DensityMatrix, t: float) -> EntanglementRecord:
    """All pairwise negativities plus the intrinsic measure for a tripartite state.

    A pure state's mechanics is first compressed to its numerical rank
    (`_compress_mechanics`), which changes no reported field.
    """
    state = _compress_mechanics(state)
    rho_qc = partial_trace(state, ("qubit", "cavity"))
    rho_qo = partial_trace(state, ("qubit", "mech"))
    rho_oc = partial_trace(state, ("cavity", "mech"))
    s_q = linear_entropy(partial_trace(rho_qc, ("qubit",)))
    s_c = linear_entropy(partial_trace(rho_qc, ("cavity",)))
    s_o = linear_entropy(partial_trace(rho_qo, ("mech",)))
    return EntanglementRecord(
        time=float(t),
        neg_qc=negativity(rho_qc, ("qubit",)),
        neg_qo=negativity(rho_qo, ("qubit",)),
        neg_oc=negativity(rho_oc, ("cavity",)),
        intrinsic_qc=float(s_q + s_c - s_o),
    )
