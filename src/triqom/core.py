"""Hilbert-space bookkeeping, model parameters, and state constructors.

The composite system is qubit (x) cavity (x) mechanical oscillator, flattened
in row-major (C) order, so basis state |q, n, m> sits at index
((q * n_cav) + n) * n_mech + m.  Spin-up is qubit index 0.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse, special

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
        dims = tuple(int(d) for d in self.dims)
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
        for name in ("g", "lam"):
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
    """Normalized state vector on a Space; immutable after construction."""

    space: Space
    amplitudes: np.ndarray
    discarded_weight: float = 0.0

    def __post_init__(self):
        vec = np.ascontiguousarray(self.amplitudes, dtype=complex).reshape(-1)
        if vec.size != self.space.dim:
            raise ValueError(f"amplitude length {vec.size} != space dim {self.space.dim}")
        object.__setattr__(self, "amplitudes", _readonly(vec))

    @property
    def dim(self) -> int:
        return self.space.dim

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def reshaped(self) -> np.ndarray:
        return self.amplitudes.reshape(self.space.dims)

    def density_matrix(self) -> "DensityMatrix":
        v = self.amplitudes
        return DensityMatrix(self.space, np.outer(v, v.conj()), self.discarded_weight)

    def overlap(self, other: "PureState") -> complex:
        if other.space != self.space:
            raise ValueError("states live on different spaces")
        return complex(np.vdot(other.amplitudes, self.amplitudes))


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace Hermitian operator on a Space; immutable after construction."""

    space: Space
    matrix: np.ndarray
    discarded_weight: float = 0.0

    def __post_init__(self):
        mat = np.ascontiguousarray(self.matrix, dtype=complex)
        d = self.space.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} != ({d}, {d})")
        object.__setattr__(self, "matrix", _readonly(mat))

    @property
    def dim(self) -> int:
        return self.space.dim

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def purity(self) -> float:
        m = self.matrix
        return float(np.vdot(m, m).real)  # tr(rho^2) for Hermitian rho

    def expect(self, op: np.ndarray) -> complex:
        return complex(np.trace(op @ self.matrix))

    def validate(self, herm_tol: float = 1e-10, trace_tol: float = 1e-8,
                 psd_tol: float = -1e-8) -> None:
        m = self.matrix
        if np.abs(m - m.conj().T).max() > herm_tol:
            raise ValueError("density matrix not Hermitian within tolerance")
        if abs(np.trace(m) - 1.0) > trace_tol:
            raise ValueError(f"trace {np.trace(m)} deviates from 1 beyond {trace_tol}")
        w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if w.min() < psd_tol:
            raise ValueError(f"negative eigenvalue {w.min()} below {psd_tol}")


# ---------------------------------------------------------------------------
# truncation sizing

def coherent_dim(alpha: complex) -> int:
    """Fock cutoff holding a coherent state's tail below ~1e-10."""
    a = abs(alpha)
    return int(math.ceil(a * a + 7.0 * a + 10.0))


def thermal_dim(nbar: float) -> int:
    """Fock cutoff for a thermal state, 20 quanta per unit of occupancy."""
    return int(math.ceil(20.0 * (nbar + 1.0)))


_MECH_CEILING = 600


def mechanics_dim(params: ModelParams, n_cav: int) -> int:
    """Cutoff absorbing the worst-case conditional displacement of the oscillator.

    The coherent orbit conditioned on the top cavity level reaches amplitude
    |beta| + 2*(g*(n_cav-1) + |lam|); thermal initial occupancy adds its own
    floor.  A cutoff above 600 levels raises ValueError rather than being
    clamped; pass an explicit n_mech to go beyond it.
    """
    reach = abs(params.beta) + 2.0 * (abs(params.g) * (n_cav - 1) + abs(params.lam))
    dim = coherent_dim(reach)
    if params.nbar_mech > 0:
        dim = max(dim, thermal_dim(params.nbar_mech))
    if dim > _MECH_CEILING:
        raise ValueError(
            f"mechanics cutoff {dim} exceeds the ceiling {_MECH_CEILING}; "
            f"set n_mech explicitly to run at that size")
    return dim


# ---------------------------------------------------------------------------
# constructors

def _single(label: str, dim: int) -> Space:
    return Space((label,), (int(dim),))


def fock_state(n: int, dim: int, label: str = "cavity") -> PureState:
    if not 0 <= n < dim:
        raise ValueError(f"Fock index {n} outside [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return PureState(_single(label, dim), v)


def qubit_state(up: complex, down: complex) -> PureState:
    v = np.array([up, down], dtype=complex)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        raise ValueError("zero qubit amplitudes")
    return PureState(_single("qubit", 2), v / nrm)


def coherent_amplitudes(alpha: complex | np.ndarray, dim: int) -> np.ndarray:
    """Unnormalized Fock amplitudes exp(-|a|^2/2) a^n / sqrt(n!), log-stable.

    Vectorized over `alpha`: the result has shape alpha.shape + (dim,), and each
    zero amplitude gives the vacuum row.
    """
    a = np.asarray(alpha, dtype=complex)
    n = np.arange(dim)
    out = np.zeros(a.shape + (dim,), dtype=complex)
    out[..., 0] = 1.0
    nz = a != 0
    r = np.abs(a[nz])[:, None]
    logmag = np.log(r) * n - 0.5 * special.gammaln(n + 1.0) - 0.5 * r ** 2
    out[nz] = np.exp(logmag + 1j * (np.angle(a[nz])[:, None] * n))
    return out


def coherent_state(alpha: complex, dim: int, label: str = "cavity",
                   tail_tol: float = 1e-6) -> PureState:
    """Truncated coherent state, renormalized, with the discarded tail recorded.

    Raises if the exact Poisson tail beyond `dim` exceeds `tail_tol`.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    vec = coherent_amplitudes(alpha, dim)
    tail = float(special.gammainc(dim, abs(alpha) ** 2))  # P(N >= dim) for Poisson
    if tail > tail_tol:
        raise ValueError(
            f"coherent tail {tail:.3e} beyond dim {dim} exceeds tolerance {tail_tol:.1e}"
        )
    vec /= np.linalg.norm(vec)
    return PureState(_single(label, dim), vec, discarded_weight=tail)


def thermal_density(nbar: float, dim: int, label: str = "mech",
                    tail_tol: float = 1e-6) -> DensityMatrix:
    """Truncated thermal (geometric) state, renormalized, tail recorded."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if nbar == 0:
        p = np.zeros(dim)
        p[0] = 1.0
        tail = 0.0
    else:
        ratio = nbar / (nbar + 1.0)
        p = np.exp(np.arange(dim) * math.log(ratio)) / (nbar + 1.0)
        tail = ratio ** dim
        if tail > tail_tol:
            raise ValueError(
                f"thermal tail {tail:.3e} beyond dim {dim} exceeds tolerance {tail_tol:.1e}"
            )
        p /= p.sum()
    return DensityMatrix(_single(label, dim), np.diag(p.astype(complex)), float(tail))


def displaced_fock(alpha: complex, n: int, dim: int, label: str = "mech",
                   tail_tol: float = 1e-6) -> PureState:
    """Displaced Fock state D(alpha)|n> = (a' - conj(alpha))^n / sqrt(n!) |alpha>.

    n steps of that ladder recurrence, started from `coherent_amplitudes`.  The
    raising operator only moves weight upward, so every kept level is exact and
    the lost weight is the tail beyond `dim`.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n >= dim:
        raise ValueError(f"Fock index {n} outside dim {dim}")
    coeffs = coherent_amplitudes(alpha, dim)
    sq = np.sqrt(np.arange(1, dim))
    for k in range(1, n + 1):
        raised = np.concatenate(([0.0], sq * coeffs[:-1]))
        coeffs = (raised - np.conj(alpha) * coeffs) / math.sqrt(k)
    captured = float(np.vdot(coeffs, coeffs).real)
    tail = max(0.0, 1.0 - captured)
    if tail > tail_tol:
        raise ValueError(
            f"displaced-Fock tail {tail:.3e} beyond dim {dim} exceeds tolerance {tail_tol:.1e}"
        )
    coeffs /= math.sqrt(captured)
    return PureState(_single(label, dim), coeffs, discarded_weight=tail)


# ---------------------------------------------------------------------------
# composition and reduction

def tensor(*parts: PureState | DensityMatrix) -> PureState | DensityMatrix:
    """Kronecker product of states in canonical subsystem order.

    The parts must be all PureState or all DensityMatrix, and their labels must
    concatenate into a strictly ascending subset of (qubit, cavity, mech).  The
    product keeps 1 - prod(1 - w) of the parts' discarded weights w.
    """
    kinds = {type(p) for p in parts}
    if len(kinds) != 1 or not kinds <= {PureState, DensityMatrix}:
        raise ValueError("tensor needs parts that are all PureState or all DensityMatrix")
    kind = kinds.pop()
    space = Space(sum((p.space.labels for p in parts), ()),
                  sum((p.space.dims for p in parts), ()))
    arrays = [p.amplitudes if kind is PureState else p.matrix for p in parts]
    w = 1.0 - float(np.prod([1.0 - p.discarded_weight for p in parts]))
    return kind(space, functools.reduce(np.kron, arrays), w)


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
    return DensityMatrix(sub, np.ascontiguousarray(red),
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
    """CSR of a single-subsystem operator on the full composite space."""
    if label not in SUBSYSTEMS:
        raise ValueError(f"unknown subsystem {label!r}")
    factors = [sparse.identity(d, dtype=complex, format="csr") for d in cspace.dims]
    factors[SUBSYSTEMS.index(label)] = sparse.csr_matrix(op, dtype=complex)
    return sparse.kron(factors[0], sparse.kron(factors[1], factors[2]), format="csr")


def embed(op: np.ndarray, cspace: CompositeSpace, label: str) -> np.ndarray:
    """Lift a single-subsystem operator to the full composite space."""
    return _lift(op, cspace, label).toarray()


def _operators(cspace: CompositeSpace, *names: str) -> list[sparse.csr_matrix]:
    """The model's single-mode operators lifted to CSR on `cspace`, by name:
    a and num_c (cavity), b and num_m (mechanics), sz and sm (qubit)."""
    make = {
        "a": lambda: _lift(destroy(cspace.n_cav), cspace, "cavity"),
        "num_c": lambda: _lift(number_op(cspace.n_cav), cspace, "cavity"),
        "b": lambda: _lift(destroy(cspace.n_mech), cspace, "mech"),
        "num_m": lambda: _lift(number_op(cspace.n_mech), cspace, "mech"),
        "sz": lambda: _lift(sigma_z(), cspace, "qubit"),
        "sm": lambda: _lift(sigma_minus(), cspace, "qubit"),
    }
    return [make[name]() for name in names]
