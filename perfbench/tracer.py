"""Spans around the calls into triqom's public functions, kept in memory.

`Tracer.install` replaces each public function of the traced modules (the
names in their `__all__`) with a timing wrapper in every triqom namespace that
holds it: the defining module, the package, and every module that imported
it by name (for example `triqom.cli.wigner` and `triqom.lindblad.integrate`).
Nothing inside the package changes; `uninstall` puts the originals back.
"""
from __future__ import annotations

import functools
import inspect
import operator
import sys
import time
from collections import defaultdict

MODULES = ("core", "dynamics", "entanglement", "lindblad", "nonclassical", "cli")


def _negativity_dim(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return state.space.dim  # the partial transpose is dim x dim


def _wigner_points(args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    return int(getattr(points, "size", 1))


# per-call quantities read from the arguments, reported as "<name>.<label>"
PROBES = {
    "entanglement.negativity": ("dim_max", max, _negativity_dim),
    "nonclassical.wigner_at": ("points", operator.add, _wigner_points),
}


class Tracer:
    """Records (name, start, end, parent, value) spans while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        probe = PROBES.get(name, (None, None, None))[2]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            value = probe(args, kwargs) if probe else None
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, value)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [sys.modules["triqom"]] + [sys.modules[f"triqom.{m}"] for m in MODULES]
        for short in MODULES:
            mod = sys.modules[f"triqom.{short}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            setattr(ns, key, wrapper)
                            self._patches.append((ns, key, fn))

    def uninstall(self) -> None:
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span, to cut the span list into rounds."""
        return len(self.spans)


def aggregate(spans: list, lo: int = 0, hi: int | None = None) -> dict:
    """Per-function totals over spans[lo:hi]: inclusive time `s`, `self_s`
    (minus the time of direct child spans), `calls`, and any probe value."""
    hi = len(spans) if hi is None else hi
    child_time: dict[int, float] = defaultdict(float)
    for name, t0, t1, parent, _ in spans[lo:hi]:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats: dict = {}
    for i in range(lo, hi):
        name, t0, t1, _, value = spans[i]
        st = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        st["s"] += t1 - t0
        st["self_s"] += (t1 - t0) - child_time.get(i, 0.0)
        st["calls"] += 1
        if value is not None:
            label, combine, _ = PROBES[name]
            st[label] = value if label not in st else combine(st[label], value)
    return stats
