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
from typing import Callable

import numpy as np

from .core import (
    DensityMatrix,
    ModelParams,
    PureState,
    Space,
    _log_factorials,
    _require_bytes,
    coherent_dim,
    displaced_fock,
    kitten_dim,
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
        # copies, so freezing them leaves the caller's arrays writeable
        x, y, v = (np.array(a, dtype=float) for a in (self.x_axis, self.y_axis, self.values))
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
    """The density matrix of a single-mode state; a pure state's is built only
    after a MemoryError check on its n^2 complex entries."""
    if len(state.space.labels) != 1:
        raise ValueError("Wigner tools take a single-mode state; reduce it first")
    if isinstance(state, PureState):
        n = state.space.dim
        _require_bytes(16.0 * n * n, f"a cavity density of {n} levels")
        state = state.density_matrix()
    return state.matrix


# bytes per point and per (level x distinct radius) that `wigner_at` holds:
# `_radial_sums` peaks at six real (level x radius) buffers, 48 bytes a cell,
# and its complex result keeps 16 through the angular pass, whose points take
# about 100 bytes each (traced peaks of `wigner` on default_axis(3) grids of
# 201^2 to 801^2 points at 2 to 81 levels); both are rounded up here
_WIGNER_POINT_BYTES, _WIGNER_CELL_BYTES = 128, 64


def _require_wigner_bytes(dim: int, points: int, radii: int) -> None:
    _require_bytes(_WIGNER_POINT_BYTES * points + _WIGNER_CELL_BYTES * dim * radii,
                   f"a Wigner grid of {points} points on {dim} levels")


def _radial_sums(rho: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """The (dim x radii) complex array of (2 - delta_d0) c_d(x) at the radii
    x >= 0 (see `wigner_at`).  The recurrence in m accumulates Re rho and
    Im rho as real products into two real buffers; the complex array is
    formed once, at the end."""
    dim = rho.shape[0]
    d = np.arange(dim)[:, None]
    # m = 0 row: e^{-x/2} x^{d/2} / sqrt(d!), in logs so no factor overflows;
    # (d/2) log x is 0 at d = 0 and -inf at the origin for d > 0
    log_x = np.log(radius, out=np.full_like(radius, -np.inf), where=radius > 0.0)
    cur = np.zeros((dim, radius.size))
    np.multiply(0.5 * d[1:], log_x, out=cur[1:])
    cur -= 0.5 * radius
    cur -= 0.5 * _log_factorials(dim)[:, None]
    np.exp(cur, out=cur)
    rho_re, rho_im = rho.real, rho.imag
    re, im = rho_re[0, :, None] * cur, rho_im[0, :, None] * cur
    # rows d < k of three real buffers hold l_{m-1}, l_m and l_{m+1}; they
    # rotate each step, so the loop allocates no (dim x radii) temporaries
    prev, nxt, term = np.zeros_like(cur), np.empty_like(cur), np.empty_like(cur)
    for m in range(1, dim):
        k = dim - m  # diagonals d < k still have a term rho[m, m+d]
        dk = d[:k]
        np.subtract(2 * m - 1 + dk, radius, out=nxt[:k])
        nxt[:k] *= cur[:k]
        prev[:k] *= np.sqrt((m - 1) * (m - 1 + dk))
        nxt[:k] -= prev[:k]
        nxt[:k] /= np.sqrt(m * (m + dk))
        prev, cur, nxt = cur, nxt, prev
        sign = (-1) ** m
        for acc, part in ((re, rho_re), (im, rho_im)):
            np.multiply(sign * part[m, m:, None], cur[:k], out=term[:k])
            acc[:k] += term[:k]
    # free the recurrence's four buffers before the complex result: the
    # kernel then peaks at six real (dim x radii) arrays, in the loop
    del prev, cur, nxt, term
    re[1:] *= 2.0
    im[1:] *= 2.0
    coeff = np.empty(re.shape, dtype=complex)
    coeff.real, coeff.imag = re, im
    return coeff


def wigner_at(state: PureState | DensityMatrix, points: np.ndarray) -> np.ndarray:
    """Wigner function at arbitrary complex phase-space points (x + i y)/sqrt(2).

    Laguerre form of the Fock-basis Wigner functions (Cahill & Glauber 1969):
    with x = |2a|^2 and 2a = sqrt(x) e^{i theta},

        W(a) = (1/pi) Re sum_d (2 - delta_d0) e^{i d theta} c_d(x),
        c_d(x) = sum_m rho[m, m+d] (-1)^m e^{-x/2} x^{d/2} l_m^(d)(x),

    where l_m^(d) = sqrt(m!/(m+d)!) L_m^(d) are normalized Laguerre
    polynomials, so every term is bounded by one.  The radial sums c_d run a
    three-term recurrence in m once per distinct x (points grouped exactly,
    without rounding; `_radial_sums`); the angular sum is Horner's rule in
    e^{i theta}, one pass over the points per diagonal d.  Output is real,
    shaped like `points`.  A point that is not finite, or whose |2a|^2
    overflows, raises ValueError; a MemoryError is raised before the
    (level x radius) buffers when they and the points would exceed the
    physical memory.
    """
    rho = _cavity_matrix(state)
    dim = rho.shape[0]
    a = np.asarray(points, dtype=complex)
    if not np.isfinite(a).all():
        raise ValueError("Wigner points must be finite")
    with np.errstate(over="ignore"):
        two_a = 2.0 * a.ravel()
        norm = np.abs(two_a)
        radius, inverse = np.unique(norm ** 2, return_inverse=True)
    if not np.isfinite(radius).all():
        raise ValueError("Wigner points must have a finite |2a|^2")
    _require_wigner_bytes(dim, two_a.size, radius.size)
    coeff = _radial_sums(rho, radius)
    # e^{i theta}; 0 at the origin, where every c_d with d > 0 vanishes
    phase = two_a / np.where(norm == 0.0, 1.0, norm)
    total = coeff[dim - 1][inverse]
    for k in range(dim - 2, -1, -1):
        total *= phase
        total += coeff[k][inverse]
    return (total.real / math.pi).reshape(a.shape)


def wigner(state: PureState | DensityMatrix, x_axis: np.ndarray,
           y_axis: np.ndarray) -> WignerGrid:
    """Wigner function of a single-mode state on a rectangular quadrature grid.

    Refuses a grid whose points alone would not fit before it allocates
    them; `wigner_at` then counts the distinct radii exactly and refuses
    before its (level x radius) buffers.
    """
    x = np.asarray(x_axis, dtype=float)
    y = np.asarray(y_axis, dtype=float)
    _require_wigner_bytes(state.space.dim, x.size * y.size, radii=0)
    pts = (x[:, None] + 1j * y[None, :]) / math.sqrt(2.0)
    return WignerGrid(x, y, wigner_at(state, pts))


def _axis(lo: float, hi: float, count: int) -> np.ndarray:
    """np.linspace(lo, hi, count), with a symmetric span (lo == -hi, count > 1)
    mirrored exactly: its lower half is the negated upper half, so
    x_i == -x_{n-1-i} bit for bit and an odd count has 0 at its centre.  On
    such axes +-x, +-y and x <-> y give one float radius |x + i y|, which
    `wigner_at` groups exactly; linspace alone misses its mirror by an ulp."""
    ax = np.linspace(lo, hi, count)
    if lo == -hi and count > 1:
        half = count // 2
        ax[:half] = -ax[:count - half - 1:-1]
        if count % 2:
            ax[half] = 0.0
    return ax


def default_axis(alpha: complex, count: int = 201) -> np.ndarray:
    """Symmetric quadrature axis wide enough for every lobe of an alpha-sized
    cat, exactly mirrored about 0 (see `_axis`)."""
    half = abs(alpha) + 4.0
    return _axis(-half, half, count)


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
    reduction of `qubit_cavity_at_cycle`.  Raises MemoryError before any
    amplitude is built if the complex dim x dim reduction would exceed
    physical memory."""
    n = coherent_dim(params.alpha) if dim is None else dim
    _require_bytes(16.0 * n * n, f"a cavity density of {n} levels")
    return partial_trace(_cycle(l, params, n), ("cavity",))


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
    t = displaced_fock(alpha, n, dim, label=state.space.labels[0]).amplitudes
    return float(np.real(t.conj() @ _cavity_matrix(state) @ t))


def _kitten_objective(params: ModelParams, l: int,
                      dim: int) -> tuple[Callable[[float], float], PureState]:
    """The kitten objective at `params` with its coupling left free: F(g) is
    the fidelity of the plus-projected cavity state after l periods at coupling
    g, on `dim` levels, with D(alpha)|1>.  That target depends on no g, so it
    is built once, here, after the state's density check, and returned with F."""
    _require_bytes(16.0 * dim * dim, f"a cavity density of {dim} levels")
    target = displaced_fock(params.alpha, 1, dim, label="cavity")
    t = target.amplitudes

    def fidelity(g: float) -> float:
        state = projected_qubit_state(l, params.with_rates(g=g), +1, dim)
        return float(np.real(t.conj() @ _cavity_matrix(state) @ t))

    return fidelity, target


_KITTEN_G_TOL = 1e-6  # absolute tolerance in g of the bounded Brent refinement


def optimize_g_for_kitten(alpha: complex, lam: float, l: int,
                          g_range: tuple[float, float],
                          coarse: int = 257) -> tuple[float, float]:
    """Coupling in `g_range` maximizing fidelity with D(alpha)|1> after projection.

    Coarse scan of `coarse` >= 2 points, then bounded Brent (scipy's
    `minimize_scalar`) in the best bracket to 1e-6 in g, at `kitten_dim`.
    Raises if the objective is flat over the range.
    """
    from scipy.optimize import minimize_scalar  # closed runs import numpy alone

    lo, hi = g_range
    if not (0 < lo < hi):
        raise ValueError("need 0 < g_lo < g_hi")
    if not isinstance(coarse, (int, np.integer)) or coarse < 2:
        raise ValueError(f"coarse must be an integer >= 2, got {coarse!r}")
    f, _ = _kitten_objective(ModelParams(g=lo, lam=lam, alpha=alpha), l, kitten_dim(alpha))
    gs = np.linspace(lo, hi, coarse)
    vals = np.array([f(g) for g in gs])
    if vals.max() - vals.min() < 1e-12:
        raise ValueError("objective is flat over the requested range")
    k = int(vals.argmax())
    bracket = (gs[max(0, k - 1)], gs[min(coarse - 1, k + 1)])
    best = minimize_scalar(lambda g: -f(g), bounds=bracket, method="bounded",
                           options={"xatol": _KITTEN_G_TOL})
    return float(best.x), float(-best.fun)


# ---------------------------------------------------------------------------
# lobe counting

_LOBE_RADII, _LOBE_ANGLES, _LOBE_REL_THRESHOLD = 160, 360, 0.1


def _angular_mass(state: PureState | DensityMatrix, r_max: float) -> np.ndarray:
    """The radially integrated Wigner weight at `radial_lobe_count`'s 360
    angles: the trapezoid integral of W r over 160 radii from 0 to `r_max`.

    W is linear in its radial sums, so the weight at angle theta is
    (1/pi) Re sum_d e^{i d theta} C_d, with C_d the trapezoid integral of
    (2 - delta_d0) c_d(2 r^2) r: one recurrence on the 160 radii, then
    Horner's rule (np.polyval) over the angles.  Refuses, with MemoryError, before its
    (level x radius) buffers when they would exceed the physical memory.
    """
    if not (r_max > 0.0 and math.isfinite(2.0 * float(r_max) * float(r_max))):
        raise ValueError(f"r_max must be positive with a finite 2 r_max^2, got {r_max}")
    rho = _cavity_matrix(state)
    _require_wigner_bytes(rho.shape[0], _LOBE_ANGLES, _LOBE_RADII)
    r = np.linspace(0.0, r_max, _LOBE_RADII)
    sums = np.trapezoid(_radial_sums(rho, 2.0 * r * r) * r, r, axis=1)
    phase = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, _LOBE_ANGLES, endpoint=False))
    return np.polyval(sums[::-1], phase).real / math.pi


def radial_lobe_count(state: PureState | DensityMatrix, r_max: float) -> int:
    """Count phase-space lobes: angular peaks of the radially integrated Wigner
    weight above 10% of the strongest peak, at 360 angles, integrated over 160
    radii from 0 to `r_max` (see `_angular_mass`).

    The signed integral is used on purpose: interference fringes between lobes
    alternate in sign along a ray and cancel, while each lobe keeps its full
    probability mass.
    """
    mass = _angular_mass(state, r_max)
    peak = float(mass.max())
    if peak <= 0:
        return 0
    if peak - mass.min() <= 1e-9 * abs(peak):
        # rotationally smeared weight; float ripple would fake many maxima
        return 1
    up = mass > np.roll(mass, 1)
    down = mass >= np.roll(mass, -1)  # plateaus count once, at their left edge
    is_max = up & down & (mass >= _LOBE_REL_THRESHOLD * peak)
    return int(np.count_nonzero(is_max))
