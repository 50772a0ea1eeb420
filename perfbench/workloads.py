"""Workload definitions: the scenario configs each workload runs, drawn from a seed.

`setup` is the whole set-up a workload needs before its first timed CLI run:
import triqom (which imports numpy and scipy) from the checkout's `src`, and
write the workload's configs. `setup_probe.py` runs the same function in fresh
processes to time it.
"""
from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("open-cell", "closed-series", "scenario-suite")

# open-cell: one-cell open-sweep configs at a reduced truncation (the shipped
# 14 x 16 cell takes minutes).  beta = 0.5 keeps the lossless cell within 8e-5
# of the closed form over the whole seed box at n_mech = 8.  dt = 4e-3 gives
# the same gap as the default 1e-3 (the truncation sets it) in a quarter of
# the RK4 steps, so a run holds enough rounds for a steady median.
OPEN_CELL = {"alpha": 1.0, "beta": 0.5, "n_cav": 6, "n_mech": 8, "dt": 4e-3}
# the test_06 rates, except Gamma_phi, which the seed draws
DRESSED_RATES = {"kappa": 1e-2, "gamma_m": 1e-5, "n_th": 10.0, "n_q": 10.0,
                 "Gamma": 1e-3}

# closed-series: odd sample count over [0, 4 pi] puts t = 2 pi and 4 pi on the grid;
# three samples (each one a full-size eigensolve) let a run hold several rounds
SERIES_SAMPLES = 3
SERIES_T_END = 4.0 * math.pi
COHERENT_SERIES = {"alpha": 2.0, "beta": 2.0, "n_cav": 24, "n_mech": 70}
THERMAL_SERIES = {"alpha": 2.0, "nbar": 0.5, "n_cav": 20, "n_mech": 40}

# seed ranges: narrow, so the checks' tolerances hold everywhere in the box
G_RANGE = (0.18, 0.22)
LAMBDA_RANGE = (0.23, 0.27)
GAMMA_PHI_RANGE = (8e-3, 12e-3)

# the shipped configs of scenario-suite and the check each one gets
SUITE = {"fock_base": "fock-series", "fock_maximal": "fock-series",
         "cat_two_lobe": "cat-unconditional", "cat_five_lobe": "cat-unconditional",
         "kitten_conditional": "cat-conditional", "kitten_unconditional": "cat-unconditional",
         "kitten_optimal": "cat-conditional", "kitten_fidelity_scan": "kitten-fidelity"}


@dataclass(frozen=True)
class Op:
    """One CLI run of a workload round and what its checks need to know.

    `kind` selects the check in `checks.py`; `values` holds the config values
    the benchmark wrote, which the independent reference computation uses (for
    the shipped configs it is empty, and the checks read the resolved inputs
    from the config echo in the run's manifest).  The run's wall time divided
    by `per` is reported as `metric`.
    """

    name: str
    config: Path
    kind: str
    values: dict = field(default_factory=dict)
    metric: str = ""
    per: int = 1

    def __post_init__(self):
        if not self.metric:
            object.__setattr__(self, "metric", f"{self.name}_s")


def draw_couplings(seed: int) -> dict:
    """g, lambda and Gamma_phi for the seeded workloads, uniform in their ranges."""
    rng = random.Random(seed)
    return {"g": rng.uniform(*G_RANGE), "lambda": rng.uniform(*LAMBDA_RANGE),
            "Gamma_phi": rng.uniform(*GAMMA_PHI_RANGE)}


def _write(path: Path, scenario: str, values: dict) -> None:
    lines = [f"scenario = {scenario}"]
    for key, v in values.items():
        lines.append(f"{key} = {int(v) if key in ('n_cav', 'n_mech', 'samples') else repr(float(v))}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _open_cell_ops(seed: int, cfg_dir: Path) -> list[Op]:
    c = draw_couplings(seed)
    base = {"g": c["g"], "lambda": c["lambda"], **OPEN_CELL, "Gamma": 0.0, "Gamma_phi": 0.0}
    cells = [
        ("lossless_cell", "open-lossless", base),
        ("dephasing_cell", "open-dephasing", {**base, "Gamma_phi": c["Gamma_phi"]}),
        ("dressed_cell", "open-dressed",
         {**base, **DRESSED_RATES, "Gamma_phi": c["Gamma_phi"]}),
    ]
    ops = []
    for name, kind, values in cells:
        path = cfg_dir / f"{name}.cfg"
        _write(path, "open-sweep", values)
        ops.append(Op(name, path, kind, values))
    return ops


def _closed_series_ops(seed: int, cfg_dir: Path) -> list[Op]:
    c = draw_couplings(seed)
    grid = {"t_start": 0.0, "t_end": SERIES_T_END, "samples": SERIES_SAMPLES}
    series = [
        ("coherent", "coherent-entanglement", COHERENT_SERIES),
        ("thermal", "thermal-entanglement", THERMAL_SERIES),
    ]
    ops = []
    for family, scenario, sizes in series:
        values = {"g": c["g"], "lambda": c["lambda"], **sizes, **grid}
        path = cfg_dir / f"{family}_series.cfg"
        _write(path, scenario, values)
        ops.append(Op(f"{family}_series", path, f"series-{family}", values,
                      metric=f"{family}_sample_s", per=SERIES_SAMPLES))
    return ops


def _suite_ops(root: Path) -> list[Op]:
    return [Op(name, root / "scenarios" / f"{name}.cfg", kind) for name, kind in SUITE.items()]


def setup(workload: str, seed: int, root: Path, cfg_dir: Path) -> list[Op]:
    """Import triqom from `root/src` and write the workload's configs to `cfg_dir`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import triqom.cli  # noqa: F401  (imports numpy and scipy with it)

    if not Path(triqom.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"triqom imported from {triqom.cli.__file__}, not {src}")
    cfg_dir.mkdir(parents=True, exist_ok=True)
    if workload == "open-cell":
        return _open_cell_ops(seed, cfg_dir)
    if workload == "closed-series":
        return _closed_series_ops(seed, cfg_dir)
    return _suite_ops(root)
