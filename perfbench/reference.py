"""Reference kernels: fixed numpy/scipy work that gauges the machine's speed.

On a shared host the speed of the same code drifts by 20 % or more over
minutes, and it can step between two levels in the middle of a run; a median
within one run cannot remove that.  So a run times the reference kernels
before and after every CLI run (and every set-up probe), and reports its
end-to-end times in reference seconds:

    wall time * REFERENCE_S / (mean of the gauge before and after)

that is, the time the CLI run would take on a machine whose gauge reads
REFERENCE_S.  The gauge is the geometric mean of three kernel times.  The
kernels do the kinds of work the workloads' hot paths do, with numpy and
scipy alone, never with triqom, on inputs fixed by the benchmark:

- `sparse`: RK4 steps of a complex CSR matrix-vector product, at the size of
  the open cell's Liouvillian (`lindblad.integrate`);
- `dense`: eigenvalues of a complex Hermitian matrix (the negativities);
- `stream`: the elementwise complex recurrence of a Wigner grid over a
  201 x 201 set of points (`nonclassical.wigner_at`).
"""
from __future__ import annotations

import math
import time

import numpy as np
from scipy import sparse

REFERENCE_S = 0.1

_rng = np.random.default_rng(20190606)
# the open cell's Liouvillian is 9216^2 with 40-67 k nonzeros
_SPARSE = sparse.random(9216, 9216, density=5.0 / 9216, random_state=_rng, format="csr",
                        dtype=complex)
_SPARSE.data += 1j * _rng.standard_normal(_SPARSE.nnz)
_VEC = _rng.standard_normal(9216) + 1j * _rng.standard_normal(9216)
_herm = _rng.standard_normal((480, 480)) + 1j * _rng.standard_normal((480, 480))
_HERM = _herm + _herm.conj().T
_axis = np.linspace(-7.0, 7.0, 201)
_POINTS = (_axis[:, None] + 1j * _axis[None, :]) / math.sqrt(2.0)


def _sparse_kernel() -> None:
    v = _VEC.copy()
    h = 1e-3
    for _ in range(75):
        k1 = _SPARSE @ v
        k2 = _SPARSE @ (v + (0.5 * h) * k1)
        k3 = _SPARSE @ (v + (0.5 * h) * k2)
        k4 = _SPARSE @ (v + h * k3)
        v += (h / 6.0) * (k1 + k4) + (h / 3.0) * (k2 + k3)


def _dense_kernel() -> None:
    np.linalg.eigvalsh(_HERM)


def _stream_kernel() -> None:
    two_a = 2.0 * _POINTS
    for _ in range(3):
        prev = np.exp(-0.5 * np.abs(two_a) ** 2)
        total = prev.real.copy()
        for n in range(1, 60):
            prev = (two_a * prev) / math.sqrt(n)
            total += (prev * two_a.conj()).real


KERNELS = {"sparse": _sparse_kernel, "dense": _dense_kernel, "stream": _stream_kernel}


def measure() -> dict:
    """Seconds each reference kernel takes, run once each now."""
    out = {}
    for name, kernel in KERNELS.items():
        t0 = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - t0
    return out


def gauge(times: dict) -> float:
    """Geometric mean of one `measure()` result."""
    return math.exp(sum(math.log(t) for t in times.values()) / len(times))


def scaled(seconds: float, before: dict, after: dict) -> float:
    """`seconds` of wall time in reference seconds, gauged before and after it."""
    return seconds * REFERENCE_S / (0.5 * (gauge(before) + gauge(after)))
