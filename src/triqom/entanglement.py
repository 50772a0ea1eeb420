"""Entanglement and mixedness diagnostics: negativity, linear entropy, and the
residual qubit-cavity correlation that survives after subtracting what the
oscillator carries.

One stacked record kernel, `_records`, turns a stack of S tripartite states,
each K amplitude matrices (K = 1 for a pure state, one per thermal level for
thermal mechanics), into the rows of a time series.  One batched SVD
compresses each mechanics to its rank r and a second one each cavity to its
rank r_c, leaving one (K, 2, r, r_c) core per sample; samples of equal ranks
are reduced from their cores by one matrix product per pair, and each pair's
partial transposes are eigensolved in one batched `eigvalsh`.  At t = 2 pi l
the cavity marginal has rank 1 or 2, so a thermal 20 x 40 sample's `neg_oc`
eigensolve shrinks from 800^2 to 80^2 there, and its `neg_qc` one from 40^2
to 4^2.  `entanglement_record` of a pure state is its one-sample call; a
DensityMatrix takes its pair reductions from `partial_trace`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import core
from .core import (CompositeSpace, DensityMatrix, ModelParams, PureState,
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


def _partial_transposes(rhos: np.ndarray, space: Space, side: tuple[str, ...]) -> np.ndarray:
    """A (g, d, d) stack of matrices on `space` with the ket/bra indices of the
    `side` subsystems exchanged, as a (g,) + dims + dims view that copies nothing."""
    k = len(space.labels)
    perm = list(range(2 * k))
    for ax in (space.axis(l) for l in side):
        perm[ax], perm[ax + k] = perm[ax + k], perm[ax]
    t = rhos.reshape((-1,) + space.dims + space.dims)
    return np.transpose(t, [0] + [p + 1 for p in perm])


def partial_transpose(rho: DensityMatrix, side: Iterable[str]) -> np.ndarray:
    """Matrix with the ket/bra indices of `side` subsystems exchanged."""
    pt = _partial_transposes(rho.matrix[None], rho.space, tuple(side))
    return pt.reshape(rho.matrix.shape)


def _negativities(rhos: np.ndarray, space: Space, side: tuple[str, ...]) -> np.ndarray:
    """Negativity across `side` of each matrix in a (g, d, d) stack on `space`:
    one batched eigensolve of the Hermitian parts of the partial transposes.

    Besides the input, only one stack-sized array is held: the Hermitian part,
    built as conj(pt^T) + pt in place.  Hermiticity is checked one block of
    rows at a time."""
    d = rhos.shape[-1]
    step = -(-d // 8)
    herm = max(float(np.max(np.abs(rhos[:, i:i + step]
                                   - rhos[:, :, i:i + step].conj().swapaxes(-1, -2))))
               for i in range(0, d, step))
    if herm > 1e-8:
        raise ValueError(f"input deviates from Hermitian by {herm:.2e}")
    pt = _partial_transposes(rhos, space, side)
    k = len(space.labels)
    h = np.empty_like(rhos, order="C")
    ht = h.reshape(pt.shape)
    np.conjugate(pt.transpose([0, *range(k + 1, 2 * k + 1), *range(1, k + 1)]), out=ht)
    ht += pt
    h *= 0.5
    w = np.linalg.eigvalsh(h)
    neg = np.zeros(len(w))
    # eigvalsh sorts ascending, so a slice holds a negative eigenvalue iff its first does
    for i in np.flatnonzero(w[:, 0] < NEG_EIG_TOL):
        wi = w[i]
        neg[i] = max(0.0, -wi[wi < NEG_EIG_TOL].sum())
    return neg


def negativity(state: PureState | DensityMatrix,
               partition: BipartitePartition | Iterable[str]) -> float:
    """Sum of the magnitudes of the negative partial-transpose eigenvalues.

    `partition` may be a BipartitePartition or just the labels of one side
    (the other side is the complement).  0.5 for a maximally entangled pair.
    Raises MemoryError before a pure state's density matrix is built if three
    d x d complex arrays (that matrix, its Hermitian part and LAPACK's working
    copy) would not fit in physical memory.
    """
    if isinstance(state, PureState):
        d = state.space.dim
        core._require_bytes(3 * 16.0 * d * d, f"the negativity of a state of dimension {d}")
        state = state.density_matrix()
    if isinstance(partition, BipartitePartition):
        side = partition.side_a
        declared = set(partition.side_a) | set(partition.side_b)
        if declared != set(state.space.labels):
            raise ValueError("partition does not cover the state's subsystems")
    else:
        side = tuple(partition)
        if not side or set(side) >= set(state.space.labels):
            raise ValueError("partition side must be a proper nonempty subset")
    return float(_negativities(state.matrix[None], state.space, side)[0])


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


# (kept pair, transposed side) for neg_qc, neg_qo and neg_oc
_PAIRS = ((("qubit", "cavity"), ("qubit",)), (("qubit", "mech"), ("qubit",)),
          (("cavity", "mech"), ("cavity",)))

# no stack a series builds (amplitudes and their SVD, pair reductions,
# partial transposes) holds more bytes than this, except that a chunk always
# takes one sample.  Stacking pays where a sample is a few KB and per-call
# overhead dominates; at MB sizes the eigensolve does, and a larger stack only
# raises the peak memory above that of one sample at a time.
_STACK_BYTES = 2 * 2 ** 20


def _chunks(count: int, item_bytes: int) -> list[slice]:
    """Consecutive slices of `count` samples of `item_bytes` each, with at most
    _STACK_BYTES per slice and at least one sample; `_series` and
    `entanglement_record` of a pure state call it.  Raises MemoryError if
    three copies of one sample (a pair reduction, its Hermitian part and
    LAPACK's working copy) would not fit in physical memory.  The budget is
    the uncompressed worst case: a compressed cavity shrinks the reduction
    only at t = 2 pi l, and a generic time needs the full one."""
    core._require_bytes(3 * item_bytes, "one sample of the series")
    step = max(1, _STACK_BYTES // item_bytes)
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def _sample_bytes(n_cav: int, n_mech: int, k: int = 1) -> int:
    """Most bytes one sample of K amplitude matrices takes in `_records`: its
    amplitudes with their SVD factors, or its largest pair reduction at full
    rank.  The cavity compression is not counted: at a generic time the cavity
    keeps all n_cav levels and neg_oc is reduced at (n_cav r)^2."""
    r = min(2 * k * n_cav, n_mech)
    return 16 * max(2 * k * n_cav * n_mech + 2 * k * n_cav * r + r * n_mech,
                    max(2 * n_cav, 2 * r, n_cav * r) ** 2)


def _pair_records(reds: list[np.ndarray], dims: tuple[int, int, int]) -> np.ndarray:
    """(g, 4) rows of neg_qc, neg_qo, neg_oc, intrinsic_qc from the stacked
    (qc, qo, oc) pair reductions of g states on (qubit, cavity, mech) dims:
    a DensityMatrix's own, or the ranks (2, r_c, r) of a compressed core."""
    _, nc, nm = dims
    spaces = (Space(("qubit", "cavity"), (2, nc)), Space(("qubit", "mech"), (2, nm)),
              Space(("cavity", "mech"), (nc, nm)))
    g = len(reds[0])
    t_qc = reds[0].reshape(g, 2, nc, 2, nc)
    singles = (np.trace(t_qc, axis1=2, axis2=4), np.trace(t_qc, axis1=1, axis2=3),
               np.trace(reds[1].reshape(g, 2, nm, 2, nm), axis1=1, axis2=3))
    # 1 - tr(rho^2), one vdot per sample as in DensityMatrix.purity
    s_q, s_c, s_o = (1.0 - np.array([np.vdot(m, m).real for m in np.ascontiguousarray(x)])
                     for x in singles)
    out = np.empty((g, 4))
    for j, (red, space, (_, side)) in enumerate(zip(reds, spaces, _PAIRS)):
        out[:, j] = _negativities(red, space, side)
    out[:, 3] = s_q + s_c - s_o
    return out


def _compress(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix M = U S V^dagger of an (S, m, n) stack as U S, and its
    numerical rank r: the singular values above numpy's matrix_rank cutoff,
    s_0 max(m, n) eps.  Returns the (S, m, min(m, n)) stack U S and the (S,)
    ranks; the first r columns of U S differ from M by the isometry V_r on
    its columns alone, with the dropped weight at most
    min(m, n) (s_0 max(m, n) eps)^2."""
    u, s = np.linalg.svd(mats, full_matrices=False)[:2]
    cut = s[:, :1] * max(mats.shape[1:]) * np.finfo(float).eps
    u *= s[:, None, :]
    return u, np.maximum(1, np.count_nonzero(s > cut, axis=1))


def _reduce(x: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    """Z Z^dagger of a (g, K, ...) amplitude stack x: Z's rows are the axes
    perm[1:3] of x (the kept pair), its columns the axes perm[3:] (K, then the
    traced party)."""
    z = np.transpose(x, perm).reshape(len(x), -1, x.shape[perm[3]] * x.shape[perm[4]])
    return z @ z.conj().swapaxes(-1, -2)


def _reductions(states: np.ndarray, n_cav: int) -> list[tuple[np.ndarray, list, tuple]]:
    """The (qc, qo, oc) pair reductions of `_records`, one (samples, reductions,
    (2, r_c, r)) entry per group of samples of equal (r, r_c), all three from
    the group's (g, K, 2, r, r_c) core.  Returning them frees the compressed
    amplitudes before any eigensolve."""
    count, k = states.shape[:2]
    us, ranks = _compress(states.reshape(count, -1, states.shape[-1]))
    w = us.shape[-1]
    # the cavity unfolding: rows (K, qubit, mechanics), columns the cavity
    cav, cav_ranks = _compress(np.swapaxes(us.reshape(count, k, 2, n_cav, w), -1, -2)
                               .reshape(count, -1, n_cav))
    groups = []
    for r, rc in np.unique(np.column_stack([ranks, cav_ranks]), axis=0).tolist():
        sel = np.flatnonzero((ranks == r) & (cav_ranks == rc))
        x = cav[sel][..., :rc].reshape(-1, k, 2, w, rc)[:, :, :, :r]
        # rows (kept pair), columns (K, the traced party): qc, qo, oc
        reds = [_reduce(x, perm) for perm in
                ((0, 2, 4, 1, 3), (0, 2, 3, 1, 4), (0, 4, 3, 1, 2))]
        groups.append((sel, reds, (2, rc, r)))
    return groups


def _records(states: np.ndarray, n_cav: int) -> np.ndarray:
    """(S, 4) rows of neg_qc, neg_qo, neg_oc and intrinsic_qc for S tripartite
    states given as (S, K, 2 n_cav, n_mech) amplitudes y: state i is
    sum_k y_ik y_ik^dagger.

    `_compress` first compresses each mechanics to its numerical rank r, on
    the (K 2 n_cav, n_mech) unfolding, then the cavity of the result to its
    rank r_c, on the (K 2 w, n_cav) unfolding, w = min(K 2 n_cav, n_mech).
    Each step differs from the state by an isometry on one party alone, which
    changes no partial-transpose spectrum and no linear entropy, and leaves
    one (K, 2, r, r_c) core per sample.  Samples of equal (r, r_c) are reduced
    from their cores as Z Z^dagger, with Z of shape (2 r_c, K r) for qc,
    (2 r, K r_c) for qo and (r_c r, 2 K) for oc, and eigensolved as one stack
    per pair.  `_series` cuts a series into such stacks with `_chunks`.
    """
    out = np.empty((len(states), 4))
    for idx, reds, dims in _reductions(states, n_cav):
        out[idx] = _pair_records(reds, dims)
    return out


def _series(build, k: int, ts, cspace: CompositeSpace) -> tuple[np.ndarray, float]:
    """(S, 5) rows t, neg_qc, neg_qo, neg_oc, intrinsic_qc of a closed series
    at the S times `ts`, and its largest discarded weight.  build(times), from
    `dynamics._family_series`, returns the (s, K, 2 n_cav, n_mech) amplitudes
    of `_records` at s times and their discarded weights.  `_chunks` refuses
    before any slice is built, and each is reduced before the next is built."""
    ts = np.asarray(ts, dtype=float)
    rows = np.empty((ts.size, 5))
    rows[:, 0] = ts
    max_discarded = 0.0
    for c in _chunks(ts.size, _sample_bytes(cspace.n_cav, cspace.n_mech, k)):
        states, discarded = build(ts[c])
        rows[c, 1:] = _records(states, cspace.n_cav)
        max_discarded = max(max_discarded, float(np.max(discarded)))
    return rows, max_discarded


def entanglement_record(state: PureState | DensityMatrix, t: float) -> EntanglementRecord:
    """All pairwise negativities plus the intrinsic measure for a tripartite
    state: a pure state is the one-sample call of `_records` once `_chunks`
    admits its size, and a density matrix is reduced by `partial_trace`."""
    cspace = CompositeSpace.of(state.space)
    if isinstance(state, PureState):
        _chunks(1, _sample_bytes(cspace.n_cav, cspace.n_mech))
        rows = _records(state.amplitudes.reshape(1, 1, 2 * cspace.n_cav, -1), cspace.n_cav)
    else:
        rows = _pair_records([partial_trace(state, keep).matrix[None] for keep, _ in _PAIRS],
                             state.space.dims)
    neg_qc, neg_qo, neg_oc, intrinsic = rows[0].tolist()
    return EntanglementRecord(time=float(t), neg_qc=neg_qc, neg_qo=neg_qo,
                              neg_oc=neg_oc, intrinsic_qc=intrinsic)
