"""Golden fingerprints of the quick shipped scenarios' outputs.

    python tests/golden_outputs.py            # regenerate the file
    python tests/golden_outputs.py --check    # compare only, write nothing

runs scenario configs through the CLI and writes `tests/golden_outputs.json`
in two sections:

- `configs`: the nine quick configs under `scenarios/`;
- `slow`: `coherent_series.cfg` and `open_sweep.cfg` (about 23 s between
  them), and the `open-cell` and `closed-series` configs that
  `perfbench.workloads.setup` writes for seeds 1 and 2.

For each data file and manifest it records a
sha256 of the bytes (a manifest is hashed without `duration_seconds`) and,
per column, the count, min, max and `math.fsum` of the values and of their
squares.  A CSV column is a header column, a Wigner grid is one column `W`,
and a manifest column is a numeric entry outside its `config` echo.  The
file also records the numpy/scipy/BLAS build, because digests hold for one
build only, and the BLAS thread count.  The script pins that count to one
before numpy loads: at two OpenBLAS threads `coherent_series.cfg`'s `neg_oc`
and every thermal series move in the last digit.  `tests/conftest.py` pins
the suite to the same count, so `same_build` compares the build without it.

`TestShippedScenarios::test_quick_config_runs` compares its outputs with the
`configs` section.  No test reads the `slow` one: rerun the script and
`git diff` the file, or run the script with `--check`: it recomputes every
section, prints the `deltas` of every entry whose digests moved (or one
line saying that no column statistic moved, when the values moved by less
than the statistics resolve), exits 1 if any did, and writes nothing.  A
change that moves these numbers on purpose regenerates the file with this
script and states which files moved, by how much and why.  Before it
overwrites the file, the script prints the same `deltas`.
"""
import hashlib
import json
import math
import os
import platform
import sys
import tempfile
from pathlib import Path

BLAS_THREADS = 1
if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden_outputs.json"
SCENARIOS = ROOT / "scenarios"
QUICK = [
    "fock_base.cfg",
    "fock_maximal.cfg",
    "cat_two_lobe.cfg",
    "cat_five_lobe.cfg",
    "kitten_conditional.cfg",
    "kitten_unconditional.cfg",
    "kitten_optimal.cfg",
    "kitten_fidelity_scan.cfg",
    "thermal_hot.cfg",
]
SLOW = ["coherent_series.cfg", "open_sweep.cfg"]
PERFBENCH = [("open-cell", 1), ("open-cell", 2), ("closed-series", 1), ("closed-series", 2)]
STATS = ("count", "min", "max", "sum", "sum_sq")


def build() -> dict:
    """The numpy/scipy/BLAS build and the CPU extensions it runs on."""
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration", f"{blas['name']} {blas['version']}"),
            "simd": cfg["SIMD Extensions"].get("found", []),
            "machine": platform.machine()}


def same_build(recorded: dict) -> bool:
    """Whether `recorded` (a golden file's `build`) is this build, whatever its
    BLAS thread count."""
    return {k: v for k, v in recorded.items() if k != "blas_threads"} == build()


def _stats(values) -> dict:
    vals = [float(v) for v in values]
    return {"count": len(vals), "min": min(vals), "max": max(vals),
            "sum": math.fsum(vals), "sum_sq": math.fsum(v * v for v in vals)}


def _manifest_columns(node, prefix=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _manifest_columns(value, f"{prefix}{key}.")
    elif isinstance(node, list) and node and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in node):
        yield prefix[:-1], node
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix[:-1], [node]


def fingerprint(out_dir: Path) -> dict:
    """{file name: {"sha256": hex digest, "columns": {column: stats}}} of a run."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            meta = json.loads(path.read_text(encoding="utf-8"))
            del meta["duration_seconds"]
            data = json.dumps(meta, indent=2, sort_keys=True).encode("utf-8")
            meta.pop("config")
            columns = dict(_manifest_columns(meta))
        else:
            data = path.read_bytes()
            lines = data.decode("utf-8").splitlines()
            if path.suffix == ".csv":
                names = lines[0].split(",")
                columns = dict(zip(names, zip(*(ln.split(",") for ln in lines[1:]))))
            else:  # Wigner grid: two axis lines, then the value block
                columns = {"W": [v for ln in lines[2:] for v in ln.split()]}
        files[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                            "columns": {k: _stats(v) for k, v in columns.items()}}
    return files


def deltas(want: dict, got: dict, rtol: float = 0.0) -> list[str]:
    """One line per column statistic of `got` that differs from `want` by more
    than rtol times the column's scale (its largest magnitude, times the count
    for sums, squared for sums of squares); counts must match exactly."""
    lines = []
    for name in sorted(set(want) | set(got)):
        if name not in want or name not in got:
            lines.append(f"{name}: only in {'golden file' if name in want else 'this run'}")
            continue
        w_cols, g_cols = want[name]["columns"], got[name]["columns"]
        for col in sorted(set(w_cols) | set(g_cols)):
            w, g = w_cols.get(col), g_cols.get(col)
            if w is None or g is None or w["count"] != g["count"]:
                lines.append(f"{name} {col}: count {w and w['count']} -> {g and g['count']}")
                continue
            mag = max(abs(w["min"]), abs(w["max"]))
            scale = {"min": mag, "max": mag, "sum": w["count"] * mag,
                     "sum_sq": w["count"] * mag * mag}
            for stat in STATS[1:]:
                d = g[stat] - w[stat]
                if abs(d) > rtol * scale[stat]:
                    lines.append(f"{name} {col} {stat}: {w[stat]!r} -> {g[stat]!r} "
                                 f"(delta {d:.3e})")
    return lines


def report_moved(old: dict, sections: dict) -> int:
    """Print `deltas(old, new)` for each entry whose file digests moved, or
    that only one side has, or one line saying that no column statistic
    moved, and return the number of such entries."""
    moved = 0
    for section, entries in sections.items():
        before = old.get(section, {})
        for name in [*entries, *(n for n in before if n not in entries)]:
            want, got = before.get(name, {}), entries.get(name, {})
            if ({f: v["sha256"] for f, v in want.items()}
                    != {f: v["sha256"] for f, v in got.items()}):
                moved += 1
                print(f"{section} / {name}: digests moved")
                lines = deltas(want, got)
                for line in lines:
                    print(f"  {line}")
                if not lines:
                    print("  every column statistic is unchanged: the values moved by less"
                          " than the statistics resolve")
    return moved


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    if argv and not check:
        print("usage: python tests/golden_outputs.py [--check]", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import setup
    from triqom.cli import main as cli

    sections = {"configs": {}, "slow": {}}
    with tempfile.TemporaryDirectory() as tmp:
        runs = [("configs", name, SCENARIOS / name) for name in QUICK]
        runs += [("slow", name, SCENARIOS / name) for name in SLOW]
        for workload, seed in PERFBENCH:
            for op in setup(workload, seed, ROOT, Path(tmp) / f"{workload}-{seed}"):
                runs.append(("slow", f"{workload} seed {seed} {op.config.name}", op.config))
        for i, (section, name, config) in enumerate(runs):
            out = Path(tmp) / f"out{i}"
            code = cli(["run", str(config), "--out", str(out), "--quiet"])
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
            sections[section][name] = fingerprint(out)
    moved = report_moved(
        json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}, sections)
    if check:
        print(f"{moved} entries moved" if moved else "no digest moved")
        return 1 if moved else 0
    golden = {"build": {**build(), "blas_threads": BLAS_THREADS}, **sections}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
