"""Hilbert-space bookkeeping, model parameters, and state constructors.

The composite system is qubit (x) cavity (x) mechanical oscillator, flattened
in row-major (C) order, so basis state |q, n, m> sits at index
((q * n_cav) + n) * n_mech + m.  Spin-up is qubit index 0.
"""
from __future__ import annotations

import bisect
import functools
import math
import operator
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # scipy is imported where CSR is built: closed runs never load it
    from scipy import sparse

SUBSYSTEMS = ("qubit", "cavity", "mech")

__all__ = [
    "SUBSYSTEMS",
    "Space",
    "CompositeSpace",
    "ModelParams",
    "PureState",
    "DensityMatrix",
    "coherent_state",
    "fock_state",
    "qubit_state",
    "thermal_density",
    "displaced_fock",
    "tensor",
    "partial_trace",
    "destroy",
    "number_op",
    "sigma_z",
    "sigma_minus",
    "embed",
    "coherent_dim",
    "kitten_dim",
    "thermal_dim",
    "mechanics_dim",
]


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    labels = tuple(labels)
    if not labels:
        raise ValueError("space needs at least one subsystem")
    order = [SUBSYSTEMS.index(l) for l in labels if l in SUBSYSTEMS]
    unknown = [l for l in labels if l not in SUBSYSTEMS]
    if unknown:
        raise ValueError(f"unknown subsystem label(s) {unknown}; expected from {SUBSYSTEMS}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate subsystem labels in {labels}")
    if order != sorted(order):
        raise ValueError(f"labels {labels} not in canonical order {SUBSYSTEMS}")
    return labels


@dataclass(frozen=True)
class Space:
    """Ordered set of subsystem labels with their truncation dimensions."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]

    def __post_init__(self):
        labels = _check_labels(self.labels)
        dims = tuple(operator.index(d) for d in self.dims)
        if len(dims) != len(labels):
            raise ValueError("labels and dims length mismatch")
        if any(d < 1 for d in dims):
            raise ValueError(f"dimensions must be positive, got {dims}")
        if "qubit" in labels and dims[labels.index("qubit")] != 2:
            raise ValueError("qubit subsystem must have dimension 2")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def axis(self, label: str) -> int:
        if label not in self.labels:
            raise ValueError(f"subsystem {label!r} not in space {self.labels}")
        return self.labels.index(label)

    def keep(self, labels: Iterable[str]) -> "Space":
        """The subspace of `labels`, which must be held here and in canonical order."""
        labels = tuple(labels)
        return Space(labels, tuple(self.dims[self.axis(l)] for l in labels))


@dataclass(frozen=True)
class CompositeSpace:
    """Full qubit-cavity-mechanics space with the normative index layout."""

    n_cav: int
    n_mech: int

    def __post_init__(self):
        for name in ("n_cav", "n_mech"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.n_cav < 1 or self.n_mech < 1:
            raise ValueError("truncation dimensions must be >= 1")

    @classmethod
    def of(cls, space: Space) -> "CompositeSpace":
        """The composite space of `space`, which must hold (qubit, cavity, mech)."""
        if space.labels != SUBSYSTEMS:
            raise ValueError(f"needs the full {SUBSYSTEMS} space, got {space.labels}")
        return cls(space.dims[1], space.dims[2])

    @property
    def dims(self) -> tuple[int, int, int]:
        return (2, self.n_cav, self.n_mech)

    @property
    def dim(self) -> int:
        return 2 * self.n_cav * self.n_mech

    @property
    def space(self) -> Space:
        return Space(SUBSYSTEMS, self.dims)


@dataclass(frozen=True)
class ModelParams:
    """Couplings, drive amplitudes, and bath rates in mechanical-frequency units.

    g and lam are the photon-number and spin pulls on the oscillator; alpha and
    beta the initial cavity/mechanics coherent amplitudes; nbar_mech the initial
    mechanical thermal occupancy.  kappa, gamma_m, Gamma, Gamma_phi are the
    cavity, mechanical, qubit-relaxation, and bare qubit-dephasing rates;
    n_th the mechanical bath occupancy and n_q the qubit bath occupancy
    (None follows n_th, the common-reservoir assumption).
    """

    g: float
    lam: float
    alpha: complex = 2.0
    beta: complex = 2.0
    nbar_mech: float = 0.0
    kappa: float = 0.0
    gamma_m: float = 0.0
    Gamma: float = 0.0
    Gamma_phi: float = 0.0
    n_th: float = 0.0
    n_q: float | None = None

    def __post_init__(self):
        for name in ("g", "lam", "alpha", "beta"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        for name in ("nbar_mech", "kappa", "gamma_m", "Gamma", "Gamma_phi", "n_th"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.n_q is not None and (not np.isfinite(self.n_q) or self.n_q < 0):
            raise ValueError(f"n_q must be finite and >= 0, got {self.n_q}")

    @property
    def qubit_bath_occupancy(self) -> float:
        return float(self.n_th if self.n_q is None else self.n_q)

    def with_rates(self, **kw) -> "ModelParams":
        return replace(self, **kw)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a Space; immutable: it keeps its own read-only copy."""

    space: Space
    amplitudes: np.ndarray
    discarded_weight: float = 0.0

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if vec.size != self.space.dim:
            raise ValueError(f"amplitude length {vec.size} != space dim {self.space.dim}")
        object.__setattr__(self, "amplitudes", _readonly(vec))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape(self.space.dims)

    def density_matrix(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(self.space, _readonly(np.outer(v, v.conj())),
                             self.discarded_weight)


_HERM_TOL, _TRACE_TOL, _PSD_TOL = 1e-10, 1e-8, -1e-8  # DensityMatrix.validate


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace Hermitian operator on a Space; immutable after construction.

    A writeable matrix is copied, so the caller's array stays writeable and
    later writes to it do not reach this state; a read-only complex C-ordered
    one, as the package's own constructors hand over, is kept as it is."""

    space: Space
    matrix: np.ndarray
    discarded_weight: float = 0.0

    def __post_init__(self):
        m = self.matrix
        frozen = isinstance(m, np.ndarray) and not m.flags.writeable
        mat = np.array(m, dtype=complex, order="C", copy=None if frozen else True)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        object.__setattr__(self, "matrix", _readonly(mat))

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def purity(self) -> float:
        m = self.matrix
        return float(np.vdot(m, m).real)  # tr(rho^2) for Hermitian rho

    def expect(self, op: np.ndarray) -> complex:
        return complex(np.trace(op @ self.matrix))

    def validate(self) -> None:
        m = self.matrix
        if np.abs(m - m.conj().T).max() > _HERM_TOL:
            raise ValueError("density matrix not Hermitian within tolerance")
        if abs(np.trace(m) - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace {np.trace(m)} deviates from 1 beyond {_TRACE_TOL}")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w.min() < _PSD_TOL:
            raise ValueError(f"negative eigenvalue {w.min()} below {_PSD_TOL}")


# ---------------------------------------------------------------------------
# truncation sizing: each default cutoff is the smallest n with tail(n) <= _TAIL_EPS

_TAIL_EPS = 1e-14
_MECH_CEILING = 600
_STATE_TAIL_TOL = 1e-6  # the largest tail a state constructor, or a closed CLI run, accepts


def _poisson_tail(n: int, alpha: complex) -> float:
    """Weight of |alpha> beyond n levels: P(N >= n) for N ~ Poisson(|alpha|^2).

    With x = |alpha|^2 and p_k = e^-x x^k / k!, the `math.fsum` of p_k for
    k >= n when n > x, else 1 minus that of k < n: either way the terms fall
    away from p_n or p_{n-1}, the one term taken from `math.lgamma`, by the
    ratio x / k, and the sum stops once a term is below 2^-64 of the first.
    """
    x = abs(alpha) * abs(alpha)  # inf past 1.3e154, where abs(alpha) ** 2 raises
    if not math.isfinite(x):
        return math.nan
    if n <= 0 or x == 0.0:
        return 1.0 if n <= 0 else 0.0
    upper = n > x
    k = n if upper else n - 1
    term = math.exp(k * math.log(x) - x - math.lgamma(k + 1))
    stop, terms = 2.0 ** -64 * term, []
    if upper:
        while term > stop:
            terms.append(term)
            k += 1
            term *= x / k
        return math.fsum(terms)
    while term > stop:  # k reaches 0 at the latest, where term becomes 0
        terms.append(term)
        term *= k / x
        k -= 1
    return 1.0 - math.fsum(terms)


def _geometric_tail(n, nbar: float):
    """Weight of a thermal state beyond n levels: (nbar / (1 + nbar))^n."""
    return (nbar / (nbar + 1.0)) ** n


def _displaced_one_tail(n, alpha: complex):
    """Weight of D(alpha)|1> beyond n levels, a Q(n-2) + (1-2a) Q(n-1) + a Q(n):
    level m holds p_m (m - a)^2 / a, with a = |alpha|^2 and Q the Poisson tail."""
    a = abs(alpha) * abs(alpha)
    q = [_poisson_tail(k, alpha) if k >= 1 else 1.0 for k in (n - 2, n - 1, n)]
    return a * q[0] + (1.0 - 2.0 * a) * q[1] + a * q[2]


def _cutoff(tail) -> int:
    """Smallest n >= 1 with tail(n) <= _TAIL_EPS, for a nonincreasing tail(n)."""
    hi = 1
    while not (t := tail(hi)) <= _TAIL_EPS:
        if math.isnan(t) or hi > 2 ** 60:
            raise ValueError(f"no cutoff reaches a tail of {_TAIL_EPS:.0e}: "
                             f"tail({hi}) = {t}")
        hi *= 2
    # tail(hi // 2) > eps, so the cutoff lies in (hi // 2, hi]
    return bisect.bisect_left(range(hi + 1), True, lo=hi // 2 + 1,
                              key=lambda n: tail(n) <= _TAIL_EPS)


def coherent_dim(alpha: complex) -> int:
    """Smallest Fock cutoff whose coherent-state tail is <= 1e-14."""
    return _cutoff(lambda n: _poisson_tail(n, alpha))


def kitten_dim(alpha: complex) -> int:
    """Smallest Fock cutoff whose D(alpha)|1> tail (the kitten target's) is <= 1e-14."""
    return _cutoff(lambda n: _displaced_one_tail(n, alpha))


def thermal_dim(nbar: float) -> int:
    """Smallest Fock cutoff whose thermal-state tail is <= 1e-14."""
    return _cutoff(lambda n: _geometric_tail(n, nbar))


def mechanics_dim(params: ModelParams, n_cav: int) -> int:
    """Cutoff absorbing the worst-case conditional displacement of the oscillator.

    The coherent orbit conditioned on the top cavity level reaches amplitude
    |beta| + 2*(|g|*(n_cav-1) + |lam|); thermal initial occupancy adds its own
    floor.  A cutoff above 600 levels raises ValueError rather than being
    clamped; pass an explicit n_mech to go beyond it.
    """
    reach = abs(params.beta) + 2.0 * (abs(params.g) * (n_cav - 1) + abs(params.lam))
    dim = max(coherent_dim(reach), thermal_dim(params.nbar_mech))
    if dim > _MECH_CEILING:
        raise ValueError(f"mechanics cutoff {dim} exceeds the ceiling {_MECH_CEILING}; "
                         f"set n_mech explicitly to run at that size")
    return dim


def _memory_budget() -> int:
    """Bytes of physical memory, the bound on an open sweep and on a closed-series sample."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_bytes(need: float, what: str) -> None:
    """Raise MemoryError if `what`, which needs `need` bytes, exceeds `_memory_budget()`."""
    budget = _memory_budget()
    if need > budget:
        raise MemoryError(f"{what} needs about {need / 2.0 ** 30:.3g} GiB, more than the "
                          f"{budget / 2.0 ** 30:.3g} GiB of physical memory")


# ---------------------------------------------------------------------------
# constructors

def _log_factorials(n: int) -> np.ndarray:
    """Read-only log k! for k < n: a view of the cached table whose length is
    the next power of two, so the process holds a few short tables at most.

    Each entry k < 2048 is `math.log` of the exact integer k!, within 1.2
    ulp of log k! for k < 1300; `math.lgamma(k + 1)` is 3.2 ulp off at k = 2.
    Beyond that, the exact product costs time quadratic in k (7-8 s for 2^17
    entries on one core), and `math.lgamma(k + 1)` lies within 2 ulp of it.
    """
    return _log_factorial_table(1 << max(n - 1, 0).bit_length())[:n]


_EXACT_FACTORIALS = 2048


@functools.cache
def _log_factorial_table(size: int) -> np.ndarray:
    table, fact = [0.0], 1
    for k in range(1, min(size, _EXACT_FACTORIALS)):
        fact *= k
        table.append(math.log(fact))
    table += [math.lgamma(k + 1.0) for k in range(len(table), size)]
    return _readonly(np.array(table))


def _checked(kind: str, tail: float, dim: int, tail_tol: float) -> float:
    if tail > tail_tol:
        raise ValueError(f"{kind} tail {tail:.3e} beyond dim {dim} exceeds "
                         f"tolerance {tail_tol:.1e}")
    return tail


def fock_state(n: int, dim: int, label: str = "cavity") -> PureState:
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return PureState(Space((label,), (dim,)), v)


def qubit_state(up: complex, down: complex) -> PureState:
    v = np.array([up, down], dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero qubit amplitudes")
    return PureState(Space(("qubit",), (2,)), v / nrm)


def coherent_amplitudes(alpha: complex | np.ndarray, dim: int) -> np.ndarray:
    """Unnormalized Fock amplitudes exp(-|a|^2/2) a^n / sqrt(n!), log-stable.

    Vectorized over `alpha`: the result has shape alpha.shape + (dim,), and each
    zero amplitude gives the vacuum row.  A non-finite amplitude raises.
    """
    a = np.asarray(alpha, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    n = np.arange(dim)
    out = np.zeros(a.shape + (dim,), dtype=complex)
    out[..., 0] = 1.0
    nz = a != 0
    r = np.abs(a[nz])[:, None]
    logmag = np.log(r) * n - 0.5 * _log_factorials(dim) - 0.5 * r ** 2
    out[nz] = np.exp(logmag + 1j * (np.angle(a[nz])[:, None] * n))
    return out


def coherent_state(alpha: complex, dim: int, label: str = "cavity",
                   tail_tol: float = _STATE_TAIL_TOL) -> PureState:
    """Truncated coherent state, renormalized, with the discarded tail recorded.

    Raises if the exact Poisson tail beyond `dim` exceeds `tail_tol`.
    """
    space = Space((label,), (dim,))
    vec = coherent_amplitudes(alpha, dim)
    tail = _checked("coherent", float(_poisson_tail(dim, alpha)), dim, tail_tol)
    vec /= np.linalg.norm(vec)
    return PureState(space, vec, discarded_weight=tail)


def thermal_density(nbar: float, dim: int, label: str = "mech",
                    tail_tol: float = _STATE_TAIL_TOL) -> DensityMatrix:
    """Truncated thermal (geometric) state, renormalized, tail recorded."""
    if not 0 <= nbar < math.inf:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")
    space = Space((label,), (dim,))
    tail = _checked("thermal", _geometric_tail(dim, nbar), dim, tail_tol)
    # k log r with the k = 0 term exactly 0, so nbar = 0 (log r = -inf) gives the vacuum
    r = nbar / (nbar + 1.0)
    log_p = np.zeros(dim)
    log_p[1:] = np.arange(1, dim) * (math.log(r) if r > 0.0 else -math.inf)
    p = np.exp(log_p) / (nbar + 1.0)
    p /= p.sum()
    return DensityMatrix(space, _readonly(np.diag(p.astype(complex))), float(tail))


def displaced_fock(alpha: complex, n: int, dim: int, label: str = "mech",
                   tail_tol: float = _STATE_TAIL_TOL) -> PureState:
    """Displaced Fock state D(alpha)|n> = (a' - conj(alpha))^n / sqrt(n!) |alpha>.

    n steps of that ladder recurrence, started from `coherent_amplitudes` on
    `dim + coherent_dim(|alpha|)` levels.  The raising operator only moves
    weight upward, so every kept level is exact, and the discarded weight is
    the `math.fsum` of the levels above `dim` (1 - captured would be rounding
    noise near 1e-14).
    """
    space = Space((label,), (dim,))
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside [0, {dim})")
    ladder = dim + coherent_dim(abs(alpha))
    coeffs = coherent_amplitudes(alpha, ladder)
    sq = np.sqrt(np.arange(1, ladder))
    for k in range(1, n + 1):
        raised = np.concatenate(([0.0], sq * coeffs[:-1]))
        coeffs = (raised - np.conj(alpha) * coeffs) / math.sqrt(k)
    tail = _checked("displaced-Fock", math.fsum(abs(coeffs[dim:]) ** 2), dim, tail_tol)
    coeffs = coeffs[:dim]
    captured = float(np.vdot(coeffs, coeffs).real)
    coeffs /= math.sqrt(captured)
    return PureState(space, coeffs, discarded_weight=tail)


# ---------------------------------------------------------------------------
# composition and reduction

def _joint_tail(*weights: float) -> float:
    """Discarded weight 1 - prod(1 - w) of independent tails w, computed as
    -expm1(fsum(log1p(-w))) so that a product of small tails keeps its
    relative precision (+0.0 when every w is 0)."""
    if any(w >= 1.0 for w in weights):
        return 1.0
    return 0.0 - math.expm1(math.fsum(math.log1p(-w) for w in weights))


def tensor(*parts: PureState | DensityMatrix) -> PureState | DensityMatrix:
    """Kronecker product of states in canonical subsystem order.

    The parts must be all PureState or all DensityMatrix, and their labels must
    concatenate into a strictly ascending subset of (qubit, cavity, mech).  The
    product keeps `_joint_tail` of the parts' discarded weights.
    """
    kinds = {type(p) for p in parts}
    if len(kinds) != 1 or not kinds <= {PureState, DensityMatrix}:
        raise ValueError("tensor needs parts that are all PureState or all DensityMatrix")
    kind = kinds.pop()
    space = Space(sum((p.space.labels for p in parts), ()),
                  sum((p.space.dims for p in parts), ()))
    arrays = [p.amplitudes if kind is PureState else p.matrix for p in parts]
    w = _joint_tail(*(p.discarded_weight for p in parts))
    return kind(space, _readonly(functools.reduce(np.kron, arrays)), w)


def partial_trace(state: PureState | DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over the `keep` subsystems.

    `keep` must be a nonempty set of labels of `state.space`, in canonical
    order; `Space.keep` checks that.  A pure state contracts its dropped axes
    as one matrix product, a density matrix traces them out one at a time.
    """
    space = state.space
    sub = space.keep(keep)
    keep_ax = [space.axis(l) for l in sub.labels]
    drop_ax = [i for i in range(len(space.labels)) if i not in keep_ax]
    dk = sub.dim
    if isinstance(state, PureState):
        m = np.transpose(state.reshaped(), keep_ax + drop_ax).reshape(dk, space.dim // dk)
        red = m @ m.conj().T
    elif isinstance(state, DensityMatrix):
        t = state.matrix.reshape(space.dims + space.dims)
        for ax in reversed(drop_ax):
            t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
        red = t.reshape(dk, dk)
    else:
        raise TypeError(f"cannot trace object of type {type(state)}")
    return DensityMatrix(sub, _readonly(np.ascontiguousarray(red)),
                         discarded_weight=state.discarded_weight)


# ---------------------------------------------------------------------------
# elementary operators (dense) and their lifts to the composite space

def destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def number_op(dim: int) -> np.ndarray:
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def sigma_z() -> np.ndarray:
    return np.diag([1.0, -1.0]).astype(complex)


def sigma_minus() -> np.ndarray:
    # lowers spin-up (index 0) to spin-down (index 1)
    out = np.zeros((2, 2), dtype=complex)
    out[1, 0] = 1.0
    return out


def _lift(op: np.ndarray, cspace: CompositeSpace, label: str) -> sparse.csr_matrix:
    """CSR of a single-subsystem operator on the full composite space: scipy's
    Kronecker product I kron op kron I, with the identities of the subsystems
    before and after `label`."""
    if label not in SUBSYSTEMS:
        raise ValueError(f"unknown subsystem {label!r}")
    k = SUBSYSTEMS.index(label)
    d = cspace.dims[k]
    if op.shape != (d, d):
        raise ValueError(f"operator of shape {op.shape} does not act on subsystem "
                         f"{label!r} of dimension {d}")
    from scipy import sparse

    n_l, n_r = math.prod(cspace.dims[:k]), math.prod(cspace.dims[k + 1:])
    eye_l, eye_r = (sparse.identity(n, dtype=complex, format="csr") for n in (n_l, n_r))
    return sparse.kron(eye_l, sparse.kron(sparse.csr_matrix(op, dtype=complex), eye_r), "csr")


def embed(op: np.ndarray, cspace: CompositeSpace, label: str) -> np.ndarray:
    """Lift a single-subsystem operator to the full composite space."""
    return _lift(op, cspace, label).toarray()


def _operators(cspace: CompositeSpace, *names: str) -> list[sparse.csr_matrix]:
    """The model's single-mode operators lifted to CSR on `cspace`, by name:
    a and num_c (cavity), b and num_m (mechanics), sz and sm (qubit).  All six
    are lifted once per space and shared by every caller, read-only."""
    table = _operator_table(cspace)
    return [table[name] for name in names]


@functools.lru_cache(maxsize=1)
def _operator_table(cspace: CompositeSpace) -> dict[str, sparse.csr_matrix]:
    table = {"a": _lift(destroy(cspace.n_cav), cspace, "cavity"),
             "num_c": _lift(number_op(cspace.n_cav), cspace, "cavity"),
             "b": _lift(destroy(cspace.n_mech), cspace, "mech"),
             "num_m": _lift(number_op(cspace.n_mech), cspace, "mech"),
             "sz": _lift(sigma_z(), cspace, "qubit"),
             "sm": _lift(sigma_minus(), cspace, "qubit")}
    for op in table.values():
        for a in (op.data, op.indices, op.indptr):
            _readonly(a)
    return table
