"""Shared oracles for the test suite.

Everything here is built from scratch on dense numpy arrays so the library is
checked against independent constructions: a brute-force propagator for the
tripartite Hamiltonian, a position-quadrature Wigner transform, and a
Schmidt-coefficient negativity formula for pure bipartite states.

The suite runs at one BLAS thread, the count `golden_outputs.py` records its
digests at: some outputs (the thermal and large coherent series) move in the
last digit at more threads.  It is pinned here, before numpy loads.
"""
import math
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from scipy import linalg  # noqa: E402

TWO_PI = 2.0 * math.pi


def dag(m):
    return m.conj().T


def destroy_dense(dim):
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def kron3(a, b, c):
    return np.kron(a, np.kron(b, c))


def dense_hamiltonian(g, lam, n_cav, n_mech):
    # b'b - (g a'a + lam sz)(b + b') on qubit x cavity x mechanics
    a = destroy_dense(n_cav)
    b = destroy_dense(n_mech)
    eye_q = np.eye(2, dtype=complex)
    eye_c = np.eye(n_cav, dtype=complex)
    eye_m = np.eye(n_mech, dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    h = kron3(eye_q, eye_c, dag(b) @ b)
    pull = g * kron3(eye_q, dag(a) @ a, eye_m) + lam * kron3(sz, eye_c, eye_m)
    h -= pull @ kron3(eye_q, eye_c, b + dag(b))
    return h


def eigh_propagate(h, psi0, t):
    # exact exponential through the spectral decomposition
    evals, vecs = np.linalg.eigh(h)
    return vecs @ (np.exp(-1j * evals * t) * (dag(vecs) @ psi0))


def rk4_schrodinger(h, psi0, times, dt=5e-4):
    """Small-step propagation of i dpsi/dt = H psi, sampled at sorted `times`."""
    def rhs(v):
        return -1j * (h @ v)

    psi = np.array(psi0, dtype=complex)
    t = 0.0
    out = []
    for target in times:
        if target < t:
            raise ValueError("times must be sorted")
        while t < target - 1e-12:
            step = min(dt, target - t)
            k1 = rhs(psi)
            k2 = rhs(psi + 0.5 * step * k1)
            k3 = rhs(psi + 0.5 * step * k2)
            k4 = rhs(psi + step * k3)
            psi = psi + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += step
        out.append(psi.copy())
    return out


def schmidt_negativity(psi, dim_a, dim_b):
    # pure bipartite state: N = ((sum of Schmidt coefficients)^2 - 1) / 2
    c = np.linalg.svd(np.reshape(psi, (dim_a, dim_b)), compute_uv=False)
    return 0.5 * (c.sum() ** 2 - 1.0)


def hermite_functions(u, dim):
    """Orthonormal oscillator eigenfunctions psi_n(u), shape (dim, len(u))."""
    u = np.asarray(u, dtype=float)
    out = np.empty((dim, u.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * u * u)
    if dim > 1:
        out[1] = math.sqrt(2.0) * u * out[0]
    for n in range(2, dim):
        out[n] = math.sqrt(2.0 / n) * u * out[n - 1] \
            - math.sqrt((n - 1) / n) * out[n - 2]
    return out


def wigner_quadrature(rho, x_axis, y_axis, ds=0.01):
    """W(x, y) = (1/pi) Int <x+s|rho|x-s> e^{-2iys} ds, trapezoid in s.

    Independent of the Laguerre-recurrence route; accurate to ~1e-6 for the
    dimensions used in tests.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    s_max = max(abs(float(x)) for x in x_axis) + math.sqrt(2.0 * dim) + 5.0
    n_s = int(2.0 * s_max / ds) | 1
    s = np.linspace(-s_max, s_max, n_s)
    phase = np.exp(-2j * np.outer(y_axis, s))
    w = np.empty((len(x_axis), len(y_axis)))
    for i, x in enumerate(x_axis):
        psi_p = hermite_functions(x + s, dim)
        psi_m = hermite_functions(x - s, dim)
        f = np.einsum("ns,nm,ms->s", psi_p, rho, psi_m)
        w[i] = np.trapezoid(phase * f, s, axis=1).real / np.pi
    return w


def coherent_vec(phi, dim):
    # raw truncated coherent amplitudes, no renormalization
    n = np.arange(dim)
    from scipy.special import gammaln
    log_mag = n * np.log(abs(phi)) - 0.5 * gammaln(n + 1.0) if phi != 0 else \
        np.where(n == 0, 0.0, -np.inf)
    vec = np.exp(log_mag - 0.5 * abs(phi) ** 2) * np.exp(1j * n * np.angle(phi))
    return vec.astype(complex)


def coherent_overlap(a, b):
    # <a|b> for coherent labels
    return np.exp(-0.5 * abs(a) ** 2 - 0.5 * abs(b) ** 2 + np.conjugate(a) * b)


def coherent_branch_oracle(n, sign, t, g, lam, alpha, beta):
    """Branch weight and mechanics label for the two-coherent-state start.

    weight = alpha^n / sqrt(2 n!) e^{-|alpha|^2/2}
             e^{i s^2 (t - sin t)} e^{i s Im(eta beta)},  s = g n + sign lam,
    label  = beta e^{-it} + s eta,  eta = 1 - e^{-it}.
    """
    s = g * n + sign * lam
    eta = 1.0 - np.exp(-1j * t)
    w = alpha ** n / math.sqrt(2.0 * math.factorial(n)) * math.exp(-0.5 * abs(alpha) ** 2)
    w = w * np.exp(1j * s * s * (t - math.sin(t))) * np.exp(1j * s * (eta * beta).imag)
    label = beta * np.exp(-1j * t) + s * eta
    return complex(w), complex(label)


def displacement_dense(alpha, dim):
    b = destroy_dense(dim)
    return linalg.expm(alpha * dag(b) - np.conjugate(alpha) * b)


def random_pure(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim, rng, rank=None):
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ dag(g)
    return rho / np.trace(rho).real


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def spy_calls(monkeypatch, func):
    """Wrap `func` in every loaded triqom module that holds it, so a call by any
    name is seen; returns the list of the calls' positional arguments."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name == "triqom" or name.startswith("triqom.")) \
                and vars(module).get(func.__name__) is func:
            monkeypatch.setattr(module, func.__name__, spy)
    return calls
