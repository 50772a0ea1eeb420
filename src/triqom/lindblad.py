"""Dissipative dynamics in the polaron-dressed frame.

The master equation uses the convention L[O]rho = 2 O rho O' - rho O'O - O'O rho,
so a channel rate r decays coherences at 2r; with the cavity channel kappa L[a]
the coherent amplitude <a> decays at exactly kappa.  Dressing shifts the
mechanical jump operators by -g a'a and adds two number-dephasing channels whose
rates carry the 1/ln((1+n_th)/n_th) thermal factor.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import core
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
from .dynamics import Trajectory, branch_shifts, hamiltonian
from .entanglement import negativity

if TYPE_CHECKING:  # scipy is imported by the functions that use it, at the first sweep
    from scipy import sparse

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

log = logging.getLogger(__name__)


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
    """One jump channel: label, rate multiplying L[O], and the operator,
    converted to CSR once here."""

    label: str
    rate: float
    operator: sparse.csr_matrix

    def __post_init__(self):
        from scipy import sparse

        if self.rate < 0 or not np.isfinite(self.rate):
            raise ValueError(f"channel {self.label}: rate must be finite and >= 0")
        object.__setattr__(self, "operator", sparse.csr_matrix(self.operator))


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
    return [DissipatorSpec(label, rate, op) for label, rate, op in table if rate > 0]


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


def _require_open_bytes(d: int, entries: float = 0.0) -> None:
    """Raise MemoryError if an open propagation at dimension d, whose
    Liouvillian operands hold `entries` entries, would not fit in physical
    memory.  Each entry costs 20 bytes (complex value, int32 column) and is
    counted three times, for the operands, their sum and its slices; the
    Chebyshev recurrence, the mirror fill and the checks are counted as 16
    d^2-sized complex vectors.  Traced, a whole `integrate` call at 6 x 8 and
    14 x 16, lossless or dressed, peaks 1.7-2.5 times below the estimate."""
    core._require_bytes(3.0 * 20.0 * entries + 16.0 * 16.0 * float(d) ** 2,
                        f"the open sweep at dimension {d}")


def _bohr_spread(params: ModelParams, cspace: CompositeSpace) -> float:
    """E_max - E_min of H.  H keeps the (qubit, photon) label, so its spectrum
    is that of its 2 n_cav diagonal blocks b'b - s (b + b'), with b and b'b
    from `core` and s the joint pull of `branch_shifts`, taken by one batched
    `eigvalsh`; no d x d H is built."""
    b = core.destroy(cspace.n_mech)
    s = branch_shifts(params, cspace.n_cav)[:, None, None]
    energies = np.linalg.eigvalsh(core.number_op(cspace.n_mech) - s * (b + b.T))
    return float(energies.max() - energies.min())


def _liouvillian(params: ModelParams, cspace: CompositeSpace,
                 dissipators: Sequence[DissipatorSpec]
                 ) -> tuple[sparse.csr_matrix, np.ndarray, float, float, float]:
    """The Liouvillian of `params`' H and the channels `dissipators` on the
    entries of rho it propagates, the d x d mask of those entries, the mean
    mu of the real part of its diagonal, the Bohr spread S of H and the bound
    D on the 1-norm of its dissipative part.  A and the O_k below are d x d,
    so the operands of L hold exactly 2 d nnz(A) + sum_k nnz(O_k)^2 entries;
    `_require_open_bytes` counts them, raising MemoryError before any
    Kronecker product if they would not fit.

    With C-ordered flattening vec(A rho B) = (A kron B^T) vec(rho), so
    L = A kron I + I kron conj(A) + J, with A = -iH - G, G = sum_k r_k O_k'O_k
    and J = sum_k 2 r_k O_k kron conj(O_k).  The kept entries (i, j) have
    rank(i) >= rank(j), rank(i) = i // n_mech the (qubit, photon) label
    (q, n) in lexicographic order.  H and the channels of `build_dissipators`
    shift that rank by one constant, so L has no entry between a kept and a
    dropped row (Buča & Prosen, NJP 14 (2012) 073007; Albert & Jiang, PRA 89
    (2014) 022118), and each dropped entry is the conjugate of its kept
    mirror, because rho stays Hermitian.  If a kept row of L has a dropped
    column, as for a caller's label-breaking a + a', all of L is kept.

    The commutator -i[H, .] has eigenvalues -i(E_j - E_k) in i[-S, S]; the
    dissipative rest -(G kron I + I kron conj(G)) + J has 1-norm at most
    D = 2 ||G||_1 + ||J||_1, by ||A kron I||_1 = ||A||_1.
    """
    from scipy import sparse

    d = cspace.dim
    gain = sparse.csr_matrix((d, d), dtype=complex)
    for ch in dissipators:
        gain = gain + ch.rate * (ch.operator.conj().T.tocsr() @ ch.operator)
    gen = -1j * hamiltonian(params, cspace, as_sparse=True) - gain
    _require_open_bytes(d, 2.0 * d * gen.nnz
                        + sum(float(ch.operator.nnz) ** 2 for ch in dissipators))
    eye = sparse.identity(d, format="csr", dtype=complex)
    jump = None
    for ch in dissipators:
        term = (2.0 * ch.rate) * sparse.kron(ch.operator, ch.operator.conj(), format="csr")
        jump = term if jump is None else jump + term
    lio = sparse.kron(gen, eye, format="csr") + sparse.kron(eye, gen.conj(), format="csr")
    damping = 2.0 * abs(gain).sum(axis=0).max()
    if jump is not None:
        damping += abs(jump).sum(axis=0).max()
        lio = lio + jump
        del jump  # freed before the two slices of L
    rank = np.arange(d) // cspace.n_mech
    kept = rank[:, None] >= rank
    rows = lio[kept.ravel()]
    half = rows[:, kept.ravel()]
    if half.nnz == rows.nnz:
        lio = half
    else:
        kept[:] = True
    mu = float(lio.diagonal().real.mean())
    return lio, kept, mu, _bohr_spread(params, cspace), float(damping)


def _chebyshev_action(scaled: sparse.csr_matrix, mu: float, radius: float,
                      span: float, v: np.ndarray) -> np.ndarray:
    """exp(span * L) @ v by the Chebyshev-Bessel expansion, given the scaled
    copy M = (2 / radius)(L - mu) of L.

    Tal-Ezer & Kosloff, J. Chem. Phys. 81 (1984) 3967: with Y = (L - mu) /
    (i radius) and tau = span * radius,
    exp(span L) = e^{span mu} [J_0(tau) + 2 sum_{k>=1} i^k J_k(tau) T_k(Y)].
    The vectors carry the i^k: U_k = i^k T_k(Y) v obeys U_{k+1} = M U_k +
    U_{k-1}.  The series stops once k > tau and a term falls below 2^-53 of
    the partial sum.  At tau = 0, which integrate reaches only when R = 0 and
    so L = 0, every J_k with k >= 1 vanishes and the first check returns v.
    Above physical memory the table of 2 tau + 64 Bessel values, about 16
    bytes each, raises MemoryError before it is built.
    """
    from scipy.special import jv

    tau = span * radius
    # J_k(tau) decays faster than any exponential once k > tau; 2 tau + 64
    # terms take it far below 2^-53
    terms = 2 * math.ceil(tau) + 64
    core._require_bytes(16.0 * terms, f"the Chebyshev series at tau = {tau:.3g}")
    coef = 2.0 * jv(np.arange(terms), tau)
    prev, cur = v, 0.5 * (scaled @ v)
    out = (0.5 * coef[0]) * v + coef[1] * cur
    for k in range(2, coef.size):
        nxt = scaled @ cur
        nxt += prev
        prev, cur = cur, nxt
        out += coef[k] * cur
        if k > tau and coef[k] * np.abs(cur).max() <= 2.0 ** -53 * np.abs(out).max():
            return math.exp(span * mu) * out
    raise IntegrationError(f"Chebyshev series did not converge within {coef.size} terms "
                           f"(tau = {tau:.3g})")


# every span is cut into pieces whose span x D stays within _DAMPING_PER_PIECE,
# D the dissipative bound of `_liouvillian`: beyond it the expansion's terms
# grow like e^{span D} until they overflow or swamp the sum
_DAMPING_PER_PIECE = 100.0

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
    expansion of that action (`config.dt` plays no part) on the scaled copy
    M = (2 / R)(L - mu) of L, built once per call.  R = S + D is the Bohr
    spread of the truncated H plus the bound on the 1-norm of the dissipative
    part of L (`_liouvillian`), and mu the mean of Re diag L.  Its cost is
    set by R, not by the norm of L: about tau + O(tau^(1/3)) sparse products
    for tau = (t_k - t_{k-1}) R.  A span is cut into the fewest equal pieces
    whose length times D is at most 100, since the expansion's terms grow
    about like e^{span D}.

    Only half of rho is propagated, the entries with rank(i) >= rank(j) of
    `_liouvillian`'s mask (4,992 of 9,216 at 6 x 8), unless a channel breaks
    the (qubit, photon) label and all of rho is.  `integrate` takes the
    Hermitian part of `rho0` once and fills each dropped entry (i, j) as
    conj(rho[j, i]).  Each propagated sample is then symmetrized once and
    checked for trace drift and positivity; a sample at t = 0 is that
    Hermitian part of `rho0`.  Sample times must be finite, nonnegative and
    strictly increasing, and every channel operator d x d.  Above physical
    memory it raises MemoryError before it builds anything d^2-sized.
    """
    from scipy import sparse

    times = [float(t) for t in times]
    if not times:
        raise ValueError("need at least one sample time")
    if (not all(map(math.isfinite, times)) or times[0] < 0
            or any(b <= a for a, b in zip(times, times[1:]))):
        raise ValueError("sample times must be finite, nonnegative and strictly increasing")
    cspace = CompositeSpace.of(rho0.space)
    if dissipators is None:
        dissipators = build_dissipators(params, cspace)
    for ch in dissipators:
        if ch.operator.shape != (cspace.dim, cspace.dim):
            raise ValueError(f"channel {ch.label}: operator of shape {ch.operator.shape} "
                             f"on a space of shape {(cspace.dim, cspace.dim)}")
    lio, kept, mu, spread, damping = _liouvillian(params, cspace, dissipators)
    radius = spread + damping
    if radius > 0.0:  # M replaces L; R = 0 only when L = 0, where tau = 0 needs no M
        lio = (2.0 / radius) * (lio - mu * sparse.identity(lio.shape[0], format="csr"))
    d = cspace.dim
    mat = 0.5 * (rho0.matrix + rho0.matrix.conj().T)
    v = mat[kept]
    t_now = 0.0
    samples = []
    for target in times:
        if target > t_now:
            span = target - t_now
            pieces = max(1, math.ceil(span * damping / _DAMPING_PER_PIECE))
            for _ in range(pieces):
                v = _chebyshev_action(lio, mu, radius, span / pieces, v)
            mat = np.zeros((d, d), dtype=complex)
            mat[kept] = v
            mat = np.where(kept, mat, mat.conj().T)
            mat = 0.5 * (mat + mat.conj().T)
            v = mat[kept]
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
        samples.append(DensityMatrix(rho0.space, core._readonly(mat),
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
                     config: OpenSystemConfig | None = None
                     ) -> list[tuple[float, float, float]]:
    """Qubit-cavity negativity after one period for each (Gamma, gamma_phi) cell.

    gamma_phi values are the total qubit dephasing rates (the dressed rate is
    pinned, not re-derived from a bare rate).  Cells are independent, all
    starting from rho0; rows come out with Gamma as the outer loop.  Each cell
    builds its channels when it starts, so a bad rate is rejected by the cell
    that first uses it (the CLI checks every axis entry before any cell
    runs), and is one `integrate` call over one period (MemoryError before
    anything d^2-sized), logged at INFO to `triqom.lindblad` when done.
    """
    cspace = CompositeSpace.of(rho0.space)
    rows: list[tuple[float, float, float]] = []
    for big_gamma, gphi in ((float(a), float(b)) for a in Gamma_values
                            for b in gamma_phi_values):
        diss = build_dissipators(params.with_rates(Gamma=big_gamma), cspace,
                                 dephasing_rate=gphi)
        state = integrate(rho0, params, [t_cycle], config, dissipators=diss).states[-1]
        neg = negativity(partial_trace(state, ("qubit", "cavity")), ("qubit",))
        rows.append((big_gamma, gphi, neg))
        log.info("  Gamma = %g  gamma_phi = %g  ->  neg_qc(t = %g) = %.6f",
                 big_gamma, gphi, t_cycle, neg)
    return rows
