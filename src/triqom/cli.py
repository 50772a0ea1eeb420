"""Scenario runner: maps flat `key = value` config files onto library calls and
writes deterministic, diff-able data files plus a JSON manifest.

Exit codes: 0 success, 1 validation error (bad usage, an unreadable file, a
bad config, an output directory that cannot be created or written, or a
problem too large for memory), 2 numerical failure while running a valid
scenario.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    CompositeSpace,
    ModelParams,
    _STATE_TAIL_TOL,
    _checked,
    _poisson_tail,
    _require_bytes,
    coherent_state,
    kitten_dim,
    qubit_state,
    tensor,
)
from .dynamics import _family_series, _family_space
from .entanglement import _series
from .lindblad import IntegrationError, _require_open_bytes, negativity_sweep
from .nonclassical import (
    _axis,
    _kitten_objective,
    cavity_unconditional,
    default_axis,
    projected_qubit_state,
    projection_probability,
    radial_lobe_count,
    wigner,
)

__all__ = ["ScenarioConfig", "parse_config", "run_scenario", "main"]

# progress messages; not __name__, which is __main__ under `python -m triqom.cli`
log = logging.getLogger("triqom.cli")

@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description with defaults filled in.

    `echo` preserves every resolved key for the manifest; `p`, `dt` and `seed`
    are parsed and echoed only (all computations are deterministic).
    """

    scenario: str
    params: ModelParams
    Gammas: tuple[float, ...]
    gamma_phis: tuple[float, ...]
    t_start: float
    t_end: float
    samples: int
    l: int
    out_dir: str | None
    n_cav: int | None
    n_mech: int | None
    grid_points: int
    g_min: float
    g_max: float
    g_samples: int
    echo: dict = field(repr=False)


def _parse_str(key: str, raw: str) -> str:
    return raw


def _parse_float(key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ValueError(f"key '{key}': expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ValueError(f"key '{key}': must be finite, got {raw!r}")
    return v


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"key '{key}': expected an integer, got {raw!r}") from None


def _parse_list(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, part.strip()) for part in raw.split(","))


# every accepted key: (parser, default, least).  A None default leaves the key
# unset; `scenario` and `lambda` are required, and `g` is required except for
# kitten-fidelity, which scans it.  `least` is the smallest value accepted (for
# a list, for every entry); keys that ModelParams validates have none.
_KEYS = {
    "scenario": (_parse_str, None, None),
    "g": (_parse_float, None, None),
    "lambda": (_parse_float, None, None),
    "alpha": (_parse_float, 2.0, None),
    "beta": (_parse_float, 2.0, None),
    "nbar": (_parse_float, 0.0, None),
    "kappa": (_parse_float, 0.0, None),
    "gamma_m": (_parse_float, 0.0, None),
    "Gamma": (_parse_list, (0.0,), 0.0),  # comma lists, open-sweep only
    "Gamma_phi": (_parse_list, (0.0,), 0.0),
    "n_th": (_parse_float, 0.0, None),
    "n_q": (_parse_float, None, None),
    "t_start": (_parse_float, 0.0, 0.0),
    "t_end": (_parse_float, 4.0 * math.pi, None),
    "samples": (_parse_int, 400, 2),
    "l": (_parse_int, 1, 1),
    "p": (_parse_int, 2, 1),
    "out_dir": (_parse_str, None, None),
    "n_cav": (_parse_int, None, 2),
    "n_mech": (_parse_int, None, 2),
    "dt": (_parse_float, 1e-3, None),
    "seed": (_parse_int, 0, None),
    "grid_points": (_parse_int, 201, 8),
    "g_min": (_parse_float, 1e-3, None),
    "g_max": (_parse_float, 0.03, None),
    "g_samples": (_parse_int, 61, 3),
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat `key = value` config text; unknown or malformed keys fail closed."""
    seen: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key '{key}'")
        if not raw:
            raise ValueError(f"line {lineno}: key '{key}' has no value")
        seen[key] = raw

    if "scenario" not in seen:
        raise ValueError("missing required key 'scenario'")
    scenario = seen["scenario"]
    if scenario not in _RUNNERS:
        raise ValueError(
            f"key 'scenario': unknown scenario '{scenario}' "
            f"(choose from {', '.join(_RUNNERS)})")

    vals = {key: default for key, (_, default, _) in _KEYS.items()}
    for key, raw in seen.items():
        parse, _, least = _KEYS[key]
        if parse is _parse_list and "," in raw and scenario != "open-sweep":
            raise ValueError(f"key '{key}': comma lists are only valid for open-sweep")
        v = vals[key] = parse(key, raw)
        low = min(v) if isinstance(v, tuple) else v
        if least is not None and low < least:
            raise ValueError(f"key '{key}': must be >= {least}, got {low}")

    if "lambda" not in seen:
        raise ValueError("missing required key 'lambda'")
    if "g" not in seen and scenario != "kitten-fidelity":
        raise ValueError("missing required key 'g'")
    if vals["dt"] <= 0:
        raise ValueError(f"key 'dt': must be > 0, got {vals['dt']}")
    if vals["t_end"] <= vals["t_start"]:
        raise ValueError(f"key 't_end': must exceed t_start, got {vals['t_end']}")
    if not 0 < vals["g_min"] < vals["g_max"]:
        raise ValueError(f"key 'g_min'/'g_max': need 0 < g_min < g_max, "
                         f"got {vals['g_min']}, {vals['g_max']}")

    try:
        params = ModelParams(
            g=0.0 if vals["g"] is None else vals["g"], lam=vals["lambda"],
            alpha=vals["alpha"], beta=vals["beta"], nbar_mech=vals["nbar"],
            kappa=vals["kappa"], gamma_m=vals["gamma_m"],
            Gamma=vals["Gamma"][0], Gamma_phi=vals["Gamma_phi"][0],
            n_th=vals["n_th"], n_q=vals["n_q"])
    except ValueError as exc:
        # ModelParams' messages start with its field name; two fields are
        # named differently from their config keys
        field, _, rest = str(exc).partition(" ")
        key = {"lam": "lambda", "nbar_mech": "nbar"}.get(field, field)
        raise ValueError(f"key '{key}': {rest}") from None

    echo = {key: list(v) if isinstance(v, tuple) else v for key, v in vals.items()}
    # every other field is named after its config key
    named = {f.name: vals[f.name] for f in fields(ScenarioConfig) if f.name in vals}
    return ScenarioConfig(params=params, Gammas=vals["Gamma"],
                          gamma_phis=vals["Gamma_phi"], echo=echo, **named)


# ---------------------------------------------------------------------------
# output files: 17 significant digits so reruns diff byte-identically

def _write(path: Path, rows, header: str, delimiter: str) -> None:
    """Write one data file of rows of floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        np.savetxt(f, np.asarray(rows, dtype=float), fmt="%.17g", delimiter=delimiter,
                   header=header, comments="")


def read_wigner(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load a Wigner grid file back into (x_axis, y_axis, values)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 3 or not lines[0].startswith("# x:") or not lines[1].startswith("# y:"):
        raise ValueError(f"{path}: not a Wigner grid file")

    def axis(line):
        lo, hi, count = line.split(":", 1)[1].split()
        return _axis(float(lo), float(hi), int(count))

    x, y = axis(lines[0]), axis(lines[1])
    values = np.loadtxt(lines[2:], ndmin=2)
    if values.shape != (x.size, y.size):
        raise ValueError(f"{path}: value block shape {values.shape} does not "
                         f"match axes ({x.size}, {y.size})")
    return x, y, values


# ---------------------------------------------------------------------------
# scenario implementations

# the closed family of each scenario's initial state (the open sweep's is |beta>)
_FAMILIES = {"fock-entanglement": "fock", "coherent-entanglement": "coherent",
             "thermal-entanglement": "thermal", "open-sweep": "coherent"}


def _closed_spaces(cfg: ScenarioConfig) -> CompositeSpace:
    return _family_space(cfg.params, _FAMILIES[cfg.scenario], cfg.n_cav, cfg.n_mech)


# bytes per row of a runner's output table, the tracemalloc peak of a whole
# `run_scenario` per row: a closed series holds its times, the (S, 4) rows of
# `_series` and the (S, 5) table it returns (a fock series of 200,000
# samples), the kitten scan its couplings and a list of (g, F) tuples of
# Python floats (40,000 couplings)
_SERIES_ROW_BYTES = 84
_KITTEN_ROW_BYTES = 167


def _run_entanglement(cfg: ScenarioConfig) -> tuple[dict, dict]:
    cspace = _closed_spaces(cfg)
    _require_bytes(_SERIES_ROW_BYTES * cfg.samples, f"a table of {cfg.samples} samples")
    build, k = _family_series(_FAMILIES[cfg.scenario], cfg.params, cspace)

    def checked(ts):  # a chunk past the tail tolerance stops the series before its records
        states, discarded = build(ts)
        _checked(f"{cfg.scenario} state", float(np.max(discarded)), cspace.dim,
                 _STATE_TAIL_TOL)
        return states, discarded

    rows, max_discard = _series(checked, k, np.linspace(cfg.t_start, cfg.t_end, cfg.samples),
                                cspace)
    stride = max(1, cfg.samples // 8)
    for t, neg_qc in rows[sorted({*range(0, cfg.samples, stride), cfg.samples - 1}), :2]:
        log.info("  t = %9.5f   neg_qc = %.6f", t, neg_qc)
    results = {"neg_qc_final": float(rows[-1, 1]), "intrinsic_qc_final": float(rows[-1, 4])}
    if cfg.scenario == "thermal-entanglement":
        # S_q + S_c - S_o is a pure-state measure; with thermal mechanics it
        # is offset by the mechanics' own linear entropy (-0.5 at t = 0, nbar = 0.5)
        results["intrinsic_qc_offset_by_mech_entropy"] = True
    return ({"entanglement.csv": (rows, "t,neg_qc,neg_qo,neg_oc,intrinsic_qc", ",")},
            {"truncations": {"n_cav": cspace.n_cav, "n_mech": cspace.n_mech},
             "tail_weights": {"max_discarded_weight": max_discard},
             "results": results})


def _run_open_sweep(cfg: ScenarioConfig) -> tuple[dict, dict]:
    params = cfg.params
    cspace = _closed_spaces(cfg)
    _require_open_bytes(cspace.dim)  # before the d x d rho0
    # tails up to 1e-3 let explicit cutoffs keep the d^2 x d^2 Liouvillian small
    cav = coherent_state(params.alpha, cspace.n_cav, label="cavity", tail_tol=1e-3)
    mech = coherent_state(params.beta, cspace.n_mech, label="mech", tail_tol=1e-3)
    rho0 = tensor(qubit_state(1.0, 1.0), cav, mech).density_matrix()
    rows = negativity_sweep(cfg.Gammas, cfg.gamma_phis, params, rho0,
                            t_cycle=2.0 * math.pi * cfg.l)
    return ({"sweep.csv": (rows, "Gamma,gamma_phi,neg_qc_2pi", ",")},
            {"truncations": {"n_cav": cspace.n_cav, "n_mech": cspace.n_mech},
             "tail_weights": {"rho0_discarded_weight": rho0.discarded_weight},
             "results": {"neg_qc_2pi_max": max(r[2] for r in rows),
                         "neg_qc_2pi_min": min(r[2] for r in rows)}})


def _run_cat(cfg: ScenarioConfig) -> tuple[dict, dict]:
    params = cfg.params
    axis = default_axis(params.alpha, cfg.grid_points)
    r_max = axis[-1]  # lobes are counted out to the grid's half-width
    unc = cavity_unconditional(cfg.l, params, cfg.n_cav)
    _checked(f"{cfg.scenario} cavity", unc.discarded_weight, unc.space.dim, _STATE_TAIL_TOL)
    grid_unc = wigner(unc, axis, axis)
    span = f"{axis[0]:.17g} {axis[-1]:.17g} {axis.size}"
    header = f"# x: {span}\n# y: {span}"
    state, grid, extra, results = unc, grid_unc, {}, {}
    if cfg.scenario == "cat-conditional":
        state = projected_qubit_state(cfg.l, params, +1, cfg.n_cav)
        grid = wigner(state, axis, axis)
        extra = {"wigner_unconditional.dat": (grid_unc.values, header, " ")}
        results = {"min_wigner_unconditional": float(grid_unc.values.min()),
                   "projection_probability_plus": projection_probability(
                       cfg.l, params, +1, cfg.n_cav),
                   "projection_probability_minus": projection_probability(
                       cfg.l, params, -1, cfg.n_cav)}
    files = {"wigner.dat": (grid.values, header, " "), **extra}
    results["min_wigner"] = float(grid.values.min())
    results["lobe_count"] = radial_lobe_count(state, r_max)
    log.info("  min Wigner value = %.6g", results["min_wigner"])
    log.info("  lobes above 10%% of peak = %d", results["lobe_count"])
    return files, {"truncations": {"n_cav": unc.space.dims[0]},
                   "tail_weights": {"state_discarded_weight": unc.discarded_weight},
                   "results": results}


def _run_kitten(cfg: ScenarioConfig) -> tuple[dict, dict]:
    params = cfg.params
    _require_bytes(_KITTEN_ROW_BYTES * cfg.g_samples, f"a table of {cfg.g_samples} couplings")
    gs = np.linspace(cfg.g_min, cfg.g_max, cfg.g_samples)
    # the target's tail, not the state's, bounds the fidelity error
    dim = cfg.n_cav or kitten_dim(params.alpha)
    fidelity, target = _kitten_objective(params, cfg.l, dim)
    rows = [(float(g), fidelity(float(g))) for g in gs]
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    log.info("  best grid point: g = %.6g  fidelity = %.6f", *rows[best])
    return ({"fidelity.csv": (rows, "g,fidelity", ",")},
            {"truncations": {"n_cav": dim},
             # every g's state keeps the cavity's exact Poisson tail (`qubit_cavity_at_cycle`)
             "tail_weights": {"max_discarded_weight": _poisson_tail(dim, params.alpha),
                              "target_discarded_weight": target.discarded_weight},
             "results": {"g_best": rows[best][0], "fidelity_best": rows[best][1]}})


# each runner maps a config to its data files, name -> (rows, header,
# delimiter) in the order they are listed, and its manifest's truncations,
# tail_weights and results; it writes nothing
_RUNNERS = {
    "fock-entanglement": _run_entanglement,
    "coherent-entanglement": _run_entanglement,
    "thermal-entanglement": _run_entanglement,
    "open-sweep": _run_open_sweep,
    "cat-unconditional": _run_cat,
    "cat-conditional": _run_cat,
    "kitten-fidelity": _run_kitten,
}


def run_scenario(cfg: ScenarioConfig, out_dir: Path | str | None = None) -> dict:
    """Execute one scenario, then write its data files and manifest.json to out_dir.

    Nothing is written unless every output was computed and is finite: a
    non-finite value raises IntegrationError before the first file.  Progress
    goes to the `triqom.cli` and `triqom.lindblad` loggers at INFO level.
    """
    t0 = time.perf_counter()
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    log.info("scenario %s -> %s", cfg.scenario, out)
    files, sections = _RUNNERS[cfg.scenario](cfg)
    if not all(np.isfinite(np.asarray(rows, dtype=float)).all()
               for rows, _, _ in files.values()):
        raise IntegrationError("non-finite value in output data")
    for name, (rows, header, delimiter) in files.items():
        _write(out / name, rows, header, delimiter)
    manifest = {"scenario": cfg.scenario, "version": __version__, "config": cfg.echo,
                "outputs": list(files), **sections,
                "duration_seconds": round(time.perf_counter() - t0, 6)}
    with open(out / "manifest.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    log.info("wrote %s and manifest.json in %.2f s",
             ", ".join(manifest["outputs"]), manifest["duration_seconds"])
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="triqom",
        description="Hybrid qubit-optomechanics simulator: run scenario configs.")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario config file")
    run_p.add_argument("config_path", help="path to a flat key = value config")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--quiet", action="store_true", help="suppress progress")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits with 2 on usage errors
        return 0 if exc.code in (0, None) else 1

    try:
        text = Path(args.config_path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # all triqom progress on stdout, or nowhere with --quiet; restored after the run
    package = logging.getLogger("triqom")
    handler = logging.StreamHandler(sys.stdout)  # bare messages: the default format
    level = package.level
    package.setLevel(logging.WARNING if args.quiet else logging.INFO)
    if not args.quiet:
        package.addHandler(handler)
    try:
        run_scenario(cfg, args.out)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: problem too large for memory: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        package.removeHandler(handler)
        package.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
