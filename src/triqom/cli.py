"""Scenario runner: maps flat `key = value` config files onto library calls and
writes deterministic, diff-able data files plus a JSON manifest.

Exit codes: 0 success, 1 validation error (bad usage, bad config, or an
output directory that cannot be written), 2 numerical failure while running a
valid scenario.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    CompositeSpace,
    ModelParams,
    coherent_dim,
    coherent_state,
    mechanics_dim,
    qubit_state,
    tensor,
)
from .dynamics import (
    evolve_coherent,
    evolve_fock_superposition,
    evolve_thermal,
)
from .entanglement import entanglement_record
from .lindblad import IntegrationError, OpenSystemConfig, negativity_sweep
from .nonclassical import (
    cavity_unconditional,
    default_axis,
    fidelity_displaced_fock,
    projected_qubit_state,
    projection_probability,
    radial_lobe_count,
    wigner,
)

__all__ = ["ScenarioConfig", "parse_config", "run_scenario", "main"]

# progress messages; `main` shows them on stdout unless --quiet
log = logging.getLogger(__name__)

@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description with defaults filled in.

    `echo` preserves every resolved key for the manifest; `seed` is parsed and
    echoed but unused (all computations are deterministic).
    """

    scenario: str
    params: ModelParams
    Gammas: tuple[float, ...]
    gamma_phis: tuple[float, ...]
    t_start: float
    t_end: float
    samples: int
    l: int
    p: int
    out_dir: str | None
    n_cav: int | None
    n_mech: int | None
    dt: float
    seed: int
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


# every accepted key: (parser, default).  A None default leaves the key unset;
# `scenario` and `lambda` are required, and `g` is required except for
# kitten-fidelity, which scans it.
_KEYS = {
    "scenario": (_parse_str, None),
    "g": (_parse_float, None),
    "lambda": (_parse_float, None),
    "alpha": (_parse_float, 2.0),
    "beta": (_parse_float, 2.0),
    "nbar": (_parse_float, 0.0),
    "kappa": (_parse_float, 0.0),
    "gamma_m": (_parse_float, 0.0),
    "Gamma": (_parse_list, (0.0,)),  # comma lists, open-sweep only
    "Gamma_phi": (_parse_list, (0.0,)),
    "n_th": (_parse_float, 0.0),
    "n_q": (_parse_float, None),
    "t_start": (_parse_float, 0.0),
    "t_end": (_parse_float, 4.0 * math.pi),
    "samples": (_parse_int, 400),
    "l": (_parse_int, 1),
    "p": (_parse_int, 2),
    "out_dir": (_parse_str, None),
    "n_cav": (_parse_int, None),
    "n_mech": (_parse_int, None),
    "dt": (_parse_float, 1e-3),
    "seed": (_parse_int, 0),
    "grid_points": (_parse_int, 201),
    "g_min": (_parse_float, 1e-3),
    "g_max": (_parse_float, 0.03),
    "g_samples": (_parse_int, 61),
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

    vals = {key: default for key, (_, default) in _KEYS.items()}
    for key, raw in seen.items():
        parse = _KEYS[key][0]
        if parse is _parse_list and "," in raw and scenario != "open-sweep":
            raise ValueError(f"key '{key}': comma lists are only valid for open-sweep")
        vals[key] = parse(key, raw)

    if "lambda" not in seen:
        raise ValueError("missing required key 'lambda'")
    if "g" not in seen and scenario != "kitten-fidelity":
        raise ValueError("missing required key 'g'")

    if vals["samples"] < 2:
        raise ValueError(f"key 'samples': need at least 2, got {vals['samples']}")
    if vals["t_start"] < 0:
        raise ValueError(f"key 't_start': must be >= 0, got {vals['t_start']}")
    if vals["t_end"] <= vals["t_start"]:
        raise ValueError(f"key 't_end': must exceed t_start, got {vals['t_end']}")
    if vals["l"] < 1:
        raise ValueError(f"key 'l': must be >= 1, got {vals['l']}")
    if vals["p"] < 1:
        raise ValueError(f"key 'p': must be >= 1, got {vals['p']}")
    if vals["dt"] <= 0:
        raise ValueError(f"key 'dt': must be > 0, got {vals['dt']}")
    if vals["grid_points"] < 8:
        raise ValueError(f"key 'grid_points': need at least 8, got {vals['grid_points']}")
    if vals["g_samples"] < 3:
        raise ValueError(f"key 'g_samples': need at least 3, got {vals['g_samples']}")
    if not 0 < vals["g_min"] < vals["g_max"]:
        raise ValueError(f"key 'g_min'/'g_max': need 0 < g_min < g_max, "
                         f"got {vals['g_min']}, {vals['g_max']}")
    for key in ("n_cav", "n_mech"):
        if vals[key] is not None and vals[key] < 2:
            raise ValueError(f"key '{key}': must be >= 2, got {vals[key]}")
    for key in ("Gamma", "Gamma_phi"):
        if min(vals[key]) < 0:
            raise ValueError(f"key '{key}': every entry must be >= 0, got {min(vals[key])}")

    try:
        params = ModelParams(
            g=0.0 if vals["g"] is None else vals["g"], lam=vals["lambda"],
            alpha=vals["alpha"], beta=vals["beta"], nbar_mech=vals["nbar"],
            kappa=vals["kappa"], gamma_m=vals["gamma_m"],
            Gamma=vals["Gamma"][0], Gamma_phi=vals["Gamma_phi"][0],
            n_th=vals["n_th"], n_q=vals["n_q"])
    except ValueError as exc:
        raise ValueError(f"invalid physical parameters: {exc}") from None

    echo = {key: list(v) if isinstance(v, tuple) else v for key, v in vals.items()}
    return ScenarioConfig(
        scenario=scenario, params=params, Gammas=vals["Gamma"],
        gamma_phis=vals["Gamma_phi"], t_start=vals["t_start"], t_end=vals["t_end"],
        samples=vals["samples"], l=vals["l"], p=vals["p"], out_dir=vals["out_dir"],
        n_cav=vals["n_cav"], n_mech=vals["n_mech"], dt=vals["dt"], seed=vals["seed"],
        grid_points=vals["grid_points"], g_min=vals["g_min"], g_max=vals["g_max"],
        g_samples=vals["g_samples"], echo=echo)


# ---------------------------------------------------------------------------
# output writers; 17 significant digits so reruns diff byte-identically

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _require_finite(rows) -> None:
    arr = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise IntegrationError("non-finite value in output data")


def _write_csv(path: Path, header: str, rows) -> None:
    _require_finite(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


def _write_wigner(path: Path, grid) -> None:
    _require_finite(grid.values)
    x, y = grid.x_axis, grid.y_axis
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# x: {_fmt(x[0])} {_fmt(x[-1])} {x.size}\n")
        f.write(f"# y: {_fmt(y[0])} {_fmt(y[-1])} {y.size}\n")
        for row in grid.values:
            f.write(" ".join(_fmt(v) for v in row) + "\n")


def read_wigner(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Load a Wigner grid file back into (x_axis, y_axis, values)."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    if len(lines) < 3 or not lines[0].startswith("# x:") or not lines[1].startswith("# y:"):
        raise ValueError(f"{path}: not a Wigner grid file")

    def axis(line):
        lo, hi, count = line.split(":", 1)[1].split()
        return np.linspace(float(lo), float(hi), int(count))

    x, y = axis(lines[0]), axis(lines[1])
    values = np.array([[float(v) for v in line.split()] for line in lines[2:]])
    if values.shape != (x.size, y.size):
        raise ValueError(f"{path}: value block shape {values.shape} does not "
                         f"match axes ({x.size}, {y.size})")
    return x, y, values


# ---------------------------------------------------------------------------
# scenario implementations

def _time_grid(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(cfg.t_start, cfg.t_end, cfg.samples)


def _closed_spaces(cfg: ScenarioConfig) -> CompositeSpace:
    family_ncav = 2 if cfg.scenario == "fock-entanglement" else coherent_dim(cfg.params.alpha)
    n_cav = cfg.n_cav if cfg.n_cav is not None else family_ncav
    n_mech = cfg.n_mech if cfg.n_mech is not None else mechanics_dim(cfg.params, n_cav)
    return CompositeSpace(n_cav, n_mech)


def _run_entanglement(evolver, cfg: ScenarioConfig, out_dir: Path,
                      manifest: dict) -> None:
    cspace = _closed_spaces(cfg)
    ts = _time_grid(cfg)
    stride = max(1, cfg.samples // 8)
    rows = []
    max_discard = 0.0
    for i, t in enumerate(ts):
        state = evolver(float(t), cfg.params, cspace)
        rec = entanglement_record(state, float(t))
        rows.append((rec.time, rec.neg_qc, rec.neg_qo, rec.neg_oc, rec.intrinsic_qc))
        max_discard = max(max_discard, state.discarded_weight)
        if i % stride == 0 or i == cfg.samples - 1:
            log.info("  t = %9.5f   neg_qc = %.6f", t, rec.neg_qc)
    _write_csv(out_dir / "entanglement.csv",
               "t,neg_qc,neg_qo,neg_oc,intrinsic_qc", rows)
    manifest["outputs"].append("entanglement.csv")
    manifest["truncations"] = {"n_cav": cspace.n_cav, "n_mech": cspace.n_mech}
    manifest["tail_weights"] = {"max_discarded_weight": max_discard}
    manifest["results"] = {"neg_qc_final": rows[-1][1],
                           "intrinsic_qc_final": rows[-1][4]}
    if cfg.scenario == "thermal-entanglement":
        # S_q + S_c - S_o is a pure-state measure; with thermal mechanics it
        # is offset by the mechanics' own linear entropy (-0.5 at t = 0, nbar = 0.5)
        manifest["results"]["intrinsic_qc_offset_by_mech_entropy"] = True


def _run_open_sweep(cfg: ScenarioConfig, out_dir: Path, manifest: dict) -> None:
    params = cfg.params
    cspace = _closed_spaces(cfg)
    # initial tails loosened: modest cutoffs keep the Liouvillian (d^2 x d^2,
    # d = 2 n_cav n_mech) small, and the lost weight is reported below
    cav = coherent_state(params.alpha, cspace.n_cav, label="cavity", tail_tol=1e-3)
    mech = coherent_state(params.beta, cspace.n_mech, label="mech", tail_tol=1e-3)
    rho0 = tensor(qubit_state(1.0, 1.0), cav, mech).density_matrix()
    t_cycle = 2.0 * math.pi * cfg.l

    def report(G, gphi, neg):
        log.info("  Gamma = %g  gamma_phi = %g  ->  neg_qc(%d cycle) = %.6f",
                 G, gphi, cfg.l, neg)

    rows = negativity_sweep(cfg.Gammas, cfg.gamma_phis, params, rho0,
                            t_cycle=t_cycle,
                            config=OpenSystemConfig(dt=cfg.dt),
                            progress=report)
    _write_csv(out_dir / "sweep.csv", "Gamma,gamma_phi,neg_qc_2pi", rows)
    manifest["outputs"].append("sweep.csv")
    manifest["truncations"] = {"n_cav": cspace.n_cav, "n_mech": cspace.n_mech}
    manifest["tail_weights"] = {"rho0_discarded_weight": rho0.discarded_weight}
    manifest["results"] = {"neg_qc_2pi_max": max(r[2] for r in rows),
                           "neg_qc_2pi_min": min(r[2] for r in rows)}


def _run_cat(cfg: ScenarioConfig, out_dir: Path, manifest: dict) -> None:
    params = cfg.params
    dim = cfg.n_cav if cfg.n_cav is not None else coherent_dim(params.alpha)
    axis = default_axis(params.alpha, cfg.grid_points)
    r_max = axis[-1]  # lobes are counted out to the grid's half-width
    unc = cavity_unconditional(cfg.l, params, dim)
    grid_unc = wigner(unc, axis, axis)
    results = {}
    if cfg.scenario == "cat-unconditional":
        _write_wigner(out_dir / "wigner.dat", grid_unc)
        manifest["outputs"].append("wigner.dat")
        results["min_wigner"] = float(grid_unc.values.min())
        results["lobe_count"] = radial_lobe_count(unc, r_max)
    else:
        proj = projected_qubit_state(cfg.l, params, +1, dim)
        grid_proj = wigner(proj, axis, axis)
        _write_wigner(out_dir / "wigner.dat", grid_proj)
        _write_wigner(out_dir / "wigner_unconditional.dat", grid_unc)
        manifest["outputs"] += ["wigner.dat", "wigner_unconditional.dat"]
        results["min_wigner"] = float(grid_proj.values.min())
        results["min_wigner_unconditional"] = float(grid_unc.values.min())
        results["projection_probability_plus"] = projection_probability(
            cfg.l, params, +1, dim)
        results["projection_probability_minus"] = projection_probability(
            cfg.l, params, -1, dim)
        results["lobe_count"] = radial_lobe_count(proj, r_max)
    log.info("  min Wigner value = %.6g", results["min_wigner"])
    log.info("  lobes above 10%% of peak = %d", results["lobe_count"])
    manifest["truncations"] = {"n_cav": dim}
    manifest["tail_weights"] = {"state_discarded_weight": unc.discarded_weight}
    manifest["results"] = results


def _run_kitten(cfg: ScenarioConfig, out_dir: Path, manifest: dict) -> None:
    params = cfg.params
    dim = cfg.n_cav if cfg.n_cav is not None else coherent_dim(params.alpha) + 5
    gs = np.linspace(cfg.g_min, cfg.g_max, cfg.g_samples)
    rows = []
    max_discard = 0.0
    for g in gs:
        p = params.with_rates(g=float(g))
        state = projected_qubit_state(cfg.l, p, +1, dim)
        rows.append((float(g), fidelity_displaced_fock(state, params.alpha, 1)))
        max_discard = max(max_discard, state.discarded_weight)
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    log.info("  best grid point: g = %.6g  fidelity = %.6f", *rows[best])
    _write_csv(out_dir / "fidelity.csv", "g,fidelity", rows)
    manifest["outputs"].append("fidelity.csv")
    manifest["truncations"] = {"n_cav": dim}
    manifest["tail_weights"] = {"max_discarded_weight": max_discard}
    manifest["results"] = {"g_best": rows[best][0], "fidelity_best": rows[best][1]}


# the evolvers are looked up when a scenario runs, not when this table is
# built, so a module attribute patched later (a tracer, a mock) is the one called
_RUNNERS = {
    "fock-entanglement": lambda *a: _run_entanglement(evolve_fock_superposition, *a),
    "coherent-entanglement": lambda *a: _run_entanglement(evolve_coherent, *a),
    "thermal-entanglement": lambda *a: _run_entanglement(evolve_thermal, *a),
    "open-sweep": _run_open_sweep,
    "cat-unconditional": _run_cat,
    "cat-conditional": _run_cat,
    "kitten-fidelity": _run_kitten,
}


def run_scenario(cfg: ScenarioConfig, out_dir: Path | str | None = None) -> dict:
    """Execute one scenario, writing data files and manifest.json to out_dir.

    Progress goes to the `triqom.cli` logger at INFO level.
    """
    t0 = time.perf_counter()
    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    manifest: dict = {
        "scenario": cfg.scenario,
        "version": __version__,
        "config": cfg.echo,
        "outputs": [],
    }
    log.info("scenario %s -> %s", cfg.scenario, out)
    _RUNNERS[cfg.scenario](cfg, out, manifest)
    manifest["duration_seconds"] = round(time.perf_counter() - t0, 6)
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
    # progress on stdout, or nowhere with --quiet; restored after the run
    handler = logging.StreamHandler(sys.stdout)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.setLevel(logging.WARNING if args.quiet else logging.INFO)
    if not args.quiet:
        log.addHandler(handler)
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
        log.removeHandler(handler)
        log.setLevel(level)
    return 0


if __name__ == "__main__":
    sys.exit(main())
