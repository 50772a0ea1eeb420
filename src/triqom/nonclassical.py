"""Cavity phase-space diagnostics: Wigner function, cat-state generation at
full mechanical periods, and displaced-Fock fidelity tools.

Every full-period cavity state comes from `dynamics.qubit_cavity_at_cycle`:
the unconditional state is its cavity reduction, and the measured states are
its contractions with the qubit outcomes (up +/- down)/sqrt2.

Quadratures follow x = (a + a')/sqrt(2), y = i(a' - a)/sqrt(2), so the Wigner
function integrates to 1 over dx dy, peaks at 1/pi for the vacuum, and is
bounded by 1/pi in magnitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import (
    DensityMatrix,
    ModelParams,
    PureState,
    Space,
    coherent_dim,
    displaced_fock,
    partial_trace,
)
from .dynamics import qubit_cavity_at_cycle

__all__ = [
    "WignerGrid",
    "wigner",
    "wigner_at",
    "default_axis",
    "cavity_unconditional",
    "projected_qubit_state",
    "cavity_projected_plus",
    "projection_probability",
    "cat_condition",
    "kitten_coupling",
    "CatSpec",
    "fidelity_displaced_fock",
    "optimize_g_for_kitten",
    "radial_lobe_count",
]


@dataclass(frozen=True)
class WignerGrid:
    """Wigner values on a rectangular grid; values[i, j] = W(x_axis[i], y_axis[j])."""

    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_axis, dtype=float)
        y = np.asarray(self.y_axis, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise ValueError("axes must be one-dimensional")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(y) <= 0):
            raise ValueError("axes must be strictly increasing")
        if v.shape != (x.size, y.size):
            raise ValueError(f"values shape {v.shape} != ({x.size}, {y.size})")
        for arr in (x, y, v):
            arr.setflags(write=False)
        object.__setattr__(self, "x_axis", x)
        object.__setattr__(self, "y_axis", y)
        object.__setattr__(self, "values", v)

    def integral(self) -> float:
        return float(np.trapezoid(np.trapezoid(self.values, self.y_axis, axis=1),
                                  self.x_axis))


def _cavity_matrix(state: PureState | DensityMatrix) -> np.ndarray:
    if len(state.space.labels) != 1:
        raise ValueError("Wigner tools take a single-mode state; reduce it first")
    if isinstance(state, PureState):
        v = state.amplitudes
        return np.outer(v, v.conj())
    return state.matrix


def wigner_at(state: PureState | DensityMatrix, points: np.ndarray) -> np.ndarray:
    """Wigner function at arbitrary complex phase-space points (x + i y)/sqrt(2).

    Laguerre form of the Fock-basis Wigner functions (Cahill & Glauber 1969):
    with x = |2a|^2 and 2a = sqrt(x) e^{i theta},

        W(a) = (1/pi) Re sum_d (2 - delta_d0) e^{i d theta} c_d(x),
        c_d(x) = sum_m rho[m, m+d] (-1)^m e^{-x/2} x^{d/2} l_m^(d)(x),

    where l_m^(d) = sqrt(m!/(m+d)!) L_m^(d) are normalized Laguerre
    polynomials, so every term is bounded by one.  The radial sums c_d run a
    three-term recurrence in m once per distinct x (points grouped exactly,
    without rounding); the angular sum is Horner's rule in e^{i theta}, one
    pass over the points per diagonal d.  Output is real, shaped like `points`.
    """
    rho = _cavity_matrix(state)
    dim = rho.shape[0]
    a = np.asarray(points, dtype=complex)
    two_a = 2.0 * a.ravel()
    norm = np.abs(two_a)
    radius, inverse = np.unique(norm ** 2, return_inverse=True)
    d = np.arange(dim)[:, None]
    # m = 0 row: e^{-x/2} x^{d/2} / sqrt(d!), in logs so no factor overflows
    cur = np.exp(special.xlogy(0.5 * d, radius) - 0.5 * radius
                 - 0.5 * special.gammaln(d + 1.0))
    prev = np.zeros_like(cur)
    coeff = rho[0, :, None] * cur
    for m in range(1, dim):
        k = dim - m  # diagonals d < k still have a term rho[m, m+d]
        dk = d[:k]
        nxt = ((2 * m - 1 + dk - radius) * cur[:k]
               - np.sqrt((m - 1) * (m - 1 + dk)) * prev[:k]) / np.sqrt(m * (m + dk))
        prev, cur = cur[:k], nxt
        coeff[:k] += (-1) ** m * rho[m, m:, None] * cur
    coeff[1:] *= 2.0
    # e^{i theta}; 0 at the origin, where every c_d with d > 0 vanishes
    phase = two_a / np.where(norm == 0.0, 1.0, norm)
    total = coeff[dim - 1][inverse]
    for k in range(dim - 2, -1, -1):
        total *= phase
        total += coeff[k][inverse]
    return (total.real / math.pi).reshape(a.shape)


def wigner(state: PureState | DensityMatrix, x_axis: np.ndarray,
           y_axis: np.ndarray) -> WignerGrid:
    """Wigner function of a single-mode state on a rectangular quadrature grid."""
    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    pts = (x[:, None] + 1j * y[None, :]) / math.sqrt(2.0)
    return WignerGrid(x, y, wigner_at(state, pts))


def default_axis(alpha: complex, count: int = 201) -> np.ndarray:
    """Symmetric quadrature axis wide enough for every lobe of an alpha-sized cat."""
    half = abs(alpha) + 4.0
    return np.linspace(-half, half, count)


# ---------------------------------------------------------------------------
# cavity states at full mechanical periods

def _cycle(l: int, params: ModelParams, dim: int | None,
           sign: int = +1) -> PureState:
    """`qubit_cavity_at_cycle` for l >= 1 periods, after checking l and sign."""
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if l < 1 or int(l) != l:
        raise ValueError("cycle count l must be a positive integer")
    return qubit_cavity_at_cycle(l, params, dim)


def cavity_unconditional(l: int, params: ModelParams,
                         dim: int | None = None) -> DensityMatrix:
    """Cavity state after l periods with the qubit left unmeasured: the cavity
    reduction of `qubit_cavity_at_cycle`."""
    return partial_trace(_cycle(l, params, dim), ("cavity",))


def _projected(l: int, params: ModelParams, sign: int,
               dim: int | None) -> tuple[np.ndarray, float]:
    """Unnormalized cavity amplitudes <(up + sign*down)/sqrt2| psi_qc>, and the
    weight the full-period state lost to truncation."""
    full = _cycle(l, params, dim, sign)
    up, down = full.reshaped()
    return (up + sign * down) / math.sqrt(2.0), full.discarded_weight


def projection_probability(l: int, params: ModelParams, sign: int = +1,
                           dim: int | None = None) -> float:
    """Probability of finding the qubit along (up + sign*down)/sqrt2 after l periods."""
    vec, _ = _projected(l, params, sign, dim)
    return float(np.vdot(vec, vec).real)


def projected_qubit_state(l: int, params: ModelParams, sign: int = +1,
                          dim: int | None = None) -> PureState:
    """Normalized cavity state conditioned on the qubit outcome (up + sign*down)/sqrt2.

    Its `discarded_weight` is the truncation loss of the full-period state.
    """
    vec, lost = _projected(l, params, sign, dim)
    prob = float(np.vdot(vec, vec).real)
    if prob < 1e-12:
        raise ValueError(f"projection probability {prob:.3e} vanishes")
    return PureState(Space(("cavity",), (vec.size,)), vec / math.sqrt(prob),
                     discarded_weight=lost)


def cavity_projected_plus(l: int, params: ModelParams,
                          dim: int | None = None) -> DensityMatrix:
    """Density matrix of the plus-projected cavity state (purity 1)."""
    return projected_qubit_state(l, params, +1, dim).density_matrix()


# ---------------------------------------------------------------------------
# cat bookkeeping

def cat_condition(g: float, l: int, p: int) -> tuple[bool, float]:
    """Check the p-component cat condition g * sqrt(2 l p) = 1; returns (met, residual)."""
    if l < 1 or p < 1:
        raise ValueError("l and p must be positive integers")
    residual = abs(g * math.sqrt(2.0 * l * p) - 1.0)
    return residual < 1e-9, residual


def kitten_coupling(l: int, lam: float) -> float:
    """Coupling that parks the two branch orbits half a fringe apart: 1/(8 l lam)."""
    if l < 1 or lam <= 0:
        raise ValueError("need l >= 1 and lam > 0")
    return 1.0 / (8.0 * l * lam)


@dataclass(frozen=True)
class CatSpec:
    """Cat-state design point: p components after l periods at coupling g, pull lam."""

    p: int
    l: int
    g: float
    lam: float

    def residual(self) -> float:
        return cat_condition(self.g, self.l, self.p)[1]

    def commensurability_residual(self) -> float:
        x = 4.0 * self.g * self.lam * self.l
        return abs(x - round(x))


# ---------------------------------------------------------------------------
# fidelity targets and the kitten optimum

def fidelity_displaced_fock(state: PureState | DensityMatrix, alpha: complex,
                            n: int) -> float:
    """Overlap fidelity of a single-mode state with the displaced Fock target D(alpha)|n>."""
    if len(state.space.labels) != 1:
        raise ValueError("fidelity target needs a single-mode state")
    dim = state.space.dims[0]
    target = displaced_fock(alpha, n, dim, label=state.space.labels[0])
    if isinstance(state, PureState):
        return float(abs(np.vdot(target.amplitudes, state.amplitudes)) ** 2)
    return float(np.real(target.amplitudes.conj() @ state.matrix @ target.amplitudes))


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def optimize_g_for_kitten(alpha: complex, lam: float, l: int,
                          g_range: tuple[float, float], coarse: int = 257,
                          tol: float = 1e-6) -> tuple[float, float]:
    """Coupling in `g_range` maximizing fidelity with D(alpha)|1> after projection.

    Coarse scan then golden-section refinement inside the best bracket.
    Raises if the objective is flat over the range.
    """
    lo, hi = g_range
    if not (0 < lo < hi):
        raise ValueError("need 0 < g_lo < g_hi")
    dim = coherent_dim(alpha) + 5

    def f(g: float) -> float:
        p = ModelParams(g=g, lam=lam, alpha=alpha)
        return fidelity_displaced_fock(projected_qubit_state(l, p, +1, dim), alpha, 1)

    gs = np.linspace(lo, hi, coarse)
    vals = np.array([f(g) for g in gs])
    if vals.max() - vals.min() < 1e-12:
        raise ValueError("objective is flat over the requested range")
    k = int(vals.argmax())
    bl = gs[max(0, k - 1)]
    bh = gs[min(coarse - 1, k + 1)]
    g_star = _golden_max(f, bl, bh, tol)
    return float(g_star), float(f(g_star))


# ---------------------------------------------------------------------------
# lobe counting

def radial_lobe_count(state: PureState | DensityMatrix, r_max: float,
                      n_r: int = 160, n_theta: int = 360,
                      rel_threshold: float = 0.1) -> int:
    """Count phase-space lobes: angular peaks of the radially integrated Wigner
    weight above `rel_threshold` of the strongest peak.

    The signed integral is used on purpose: interference fringes between lobes
    alternate in sign along a ray and cancel, while each lobe keeps its full
    probability mass.
    """
    r = np.linspace(0.0, r_max, n_r)
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    pts = (r[:, None] * np.exp(1j * theta)[None, :]) / math.sqrt(2.0)
    w = wigner_at(state, pts)
    mass = np.trapezoid(w * r[:, None], r, axis=0)
    peak = float(mass.max())
    if peak <= 0:
        return 0
    if peak - mass.min() <= 1e-9 * abs(peak):
        # rotationally smeared weight; float ripple would fake many maxima
        return 1
    up = mass > np.roll(mass, 1)
    down = mass >= np.roll(mass, -1)  # plateaus count once, at their left edge
    is_max = up & down & (mass >= rel_threshold * peak)
    return int(np.count_nonzero(is_max))
