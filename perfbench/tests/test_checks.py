"""The benchmark's checks reject deliberately perturbed outputs.

Run from the checkout root:  python3 -m pytest perfbench/tests

Open-cell and closed-series outputs are written here from the closed forms
(running those configs takes seconds to minutes); scenario-suite outputs come
from real CLI runs of the shipped configs.  Each test perturbs one quantity,
for example a negativity by 1e-3 or a Wigner grid by 1 %, and expects the
check that guards it to fail.
"""
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + "\n" + "".join(",".join(_fmt(v) for v in r) + "\n" for r in rows))


def _ops(workload: str, tmp_path: Path, seed: int = 11) -> dict:
    return {op.name: op for op in workloads.setup(workload, seed, ROOT, tmp_path / "cfg")}


def _failures(op, out_dir) -> list:
    return checks.check_op(op, out_dir, {})


# ---------------------------------------------------------------------------
# open-cell

def _cell_value(op) -> float:
    v = op.values
    psi = checks.qc_state_at_cycle(v["g"], v["lambda"], v["alpha"], int(v["n_cav"]), 1)
    if op.kind == "open-dephasing":
        return checks.dephased_negativity(psi, math.exp(-4.0 * math.pi * v["Gamma_phi"]))
    lossless = checks.pure_negativity(psi)
    return lossless if op.kind == "open-lossless" else 0.5 * lossless


def _cell_out(tmp_path, op, neg, gphi=None) -> Path:
    out = tmp_path / op.name
    gphi = op.values["Gamma_phi"] if gphi is None else gphi
    _write_csv(out / "sweep.csv", "Gamma,gamma_phi,neg_qc_2pi",
               [(op.values["Gamma"], gphi, neg)])
    return out


@pytest.mark.parametrize("cell", ["lossless_cell", "dephasing_cell", "dressed_cell"])
def test_open_cell_accepts_expected_value(tmp_path, cell):
    op = _ops("open-cell", tmp_path)[cell]
    assert _failures(op, _cell_out(tmp_path, op, _cell_value(op))) == []


@pytest.mark.parametrize("cell", ["lossless_cell", "dephasing_cell"])
@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_open_cell_rejects_shifted_negativity(tmp_path, cell, shift):
    op = _ops("open-cell", tmp_path)[cell]
    assert _failures(op, _cell_out(tmp_path, op, _cell_value(op) + shift))


@pytest.mark.parametrize("neg", [0.0, "lossless"])
def test_dressed_cell_must_lie_strictly_inside(tmp_path, neg):
    ops = _ops("open-cell", tmp_path)
    if neg == "lossless":
        neg = _cell_value(ops["lossless_cell"]) + 1e-3
    assert _failures(ops["dressed_cell"], _cell_out(tmp_path, ops["dressed_cell"], neg))


def test_open_cell_rejects_wrong_rate_echo(tmp_path):
    op = _ops("open-cell", tmp_path)["dephasing_cell"]
    out = _cell_out(tmp_path, op, _cell_value(op), gphi=op.values["Gamma_phi"] * 1.001)
    assert _failures(op, out)


# ---------------------------------------------------------------------------
# closed-series

def _series_rows(op) -> np.ndarray:
    v = op.values
    ts = np.linspace(v["t_start"], v["t_end"], int(v["samples"]))
    rows = []
    for t in ts:
        l = round(t / (2 * math.pi))
        if t == 0:
            rows.append((t, 0.0, 0.0, 0.0, 0.3))
        elif abs(t - 2 * math.pi * l) < 1e-9:
            psi = checks.qc_state_at_cycle(v["g"], v["lambda"], v["alpha"], int(v["n_cav"]), l)
            intrinsic = checks.intrinsic_coherent_2pi(v["g"], v["lambda"], v["alpha"])
            rows.append((t, checks.pure_negativity(psi), 0.0, 0.0, intrinsic))
        else:
            rows.append((t, 0.2, 0.1, 0.7, 0.5))
    return np.array(rows)


def _series_out(tmp_path, op, rows) -> Path:
    out = tmp_path / op.name
    _write_csv(out / "entanglement.csv", "t,neg_qc,neg_qo,neg_oc,intrinsic_qc", rows)
    return out


@pytest.mark.parametrize("series", ["coherent_series", "thermal_series"])
def test_series_accepts_closed_forms(tmp_path, series):
    op = _ops("closed-series", tmp_path)[series]
    assert _failures(op, _series_out(tmp_path, op, _series_rows(op))) == []


# (time in periods, column, new value or shift)
PERTURBATIONS = {
    "neg_qc(0)": (0, 1, 1e-3, "set"),
    "neg_oc(0)": (0, 3, 1e-3, "set"),
    "neg_qc(2pi)": (1, 1, 1e-3, "add"),
    "neg_qo(2pi)": (1, 2, 1e-3, "set"),
    "neg_oc(4pi)": (2, 3, 1e-3, "set"),
    "neg_qc(4pi)": (2, 1, -1e-3, "add"),
    "negative neg_qo(2pi)": (1, 2, -1e-3, "set"),
    "time grid": (1, 0, 1e-6, "add"),
}


def _row_at(rows: np.ndarray, periods: int) -> int:
    return int(np.argmin(np.abs(rows[:, 0] - 2.0 * math.pi * periods)))


@pytest.mark.parametrize("series", ["coherent_series", "thermal_series"])
@pytest.mark.parametrize("what", sorted(PERTURBATIONS))
def test_series_rejects_perturbation(tmp_path, series, what):
    op = _ops("closed-series", tmp_path)[series]
    rows = _series_rows(op)
    periods, j, x, how = PERTURBATIONS[what]
    i = _row_at(rows, periods)
    rows[i, j] = rows[i, j] + x if how == "add" else x
    assert _failures(op, _series_out(tmp_path, op, rows))


def test_coherent_series_rejects_shifted_intrinsic(tmp_path):
    op = _ops("closed-series", tmp_path)["coherent_series"]
    rows = _series_rows(op)
    rows[_row_at(rows, 1), 4] += 1e-3
    assert _failures(op, _series_out(tmp_path, op, rows))


# ---------------------------------------------------------------------------
# scenario-suite, on real CLI output

SUITE_SAMPLE = ("fock_base", "fock_maximal", "cat_two_lobe", "cat_five_lobe",
                "kitten_conditional", "kitten_unconditional", "kitten_fidelity_scan")


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    from triqom.cli import main

    base = tmp_path_factory.mktemp("suite")
    ops = _ops("scenario-suite", base)
    for name in SUITE_SAMPLE:
        assert main(["run", str(ops[name].config), "--out", str(base / name), "--quiet"]) == 0
    return base, ops


def _copy(suite, tmp_path, name) -> Path:
    base, _ = suite
    out = tmp_path / name
    shutil.copytree(base / name, out)
    return out


def _edit_wigner(path: Path, fn) -> None:
    from triqom.cli import read_wigner

    x, y, w = read_wigner(path)
    head = path.read_text().splitlines()[:2]
    w = fn(w.copy())
    path.write_text("\n".join(head) + "\n"
                    + "".join(" ".join(_fmt(v) for v in row) + "\n" for row in w))


def _edit_manifest(out: Path, key: str, fn) -> None:
    m = json.loads((out / "manifest.json").read_text())
    m["results"][key] = fn(m["results"][key])
    (out / "manifest.json").write_text(json.dumps(m))


@pytest.mark.parametrize("name", SUITE_SAMPLE)
def test_suite_accepts_real_output(suite, name):
    base, ops = suite
    assert _failures(ops[name], base / name) == []


@pytest.mark.parametrize("name", ["fock_base", "fock_maximal"])
def test_fock_rejects_shifted_intrinsic(suite, tmp_path, name):
    out = _copy(suite, tmp_path, name)
    rows = checks.read_csv(out / "entanglement.csv", "t,neg_qc,neg_qo,neg_oc,intrinsic_qc")
    rows[137, 4] += 1e-3
    _write_csv(out / "entanglement.csv", "t,neg_qc,neg_qo,neg_oc,intrinsic_qc", rows)
    assert _failures(suite[1][name], out)


def test_fock_maximal_rejects_lower_peak(suite, tmp_path):
    out = _copy(suite, tmp_path, "fock_maximal")
    rows = checks.read_csv(out / "entanglement.csv", "t,neg_qc,neg_qo,neg_oc,intrinsic_qc")
    rows[200, 1] -= 1e-3  # t = 2 pi on the 401-point grid over [0, 4 pi]
    _write_csv(out / "entanglement.csv", "t,neg_qc,neg_qo,neg_oc,intrinsic_qc", rows)
    assert _failures(suite[1]["fock_maximal"], out)


@pytest.mark.parametrize("name,file", [("cat_two_lobe", "wigner.dat"),
                                       ("kitten_conditional", "wigner.dat"),
                                       ("kitten_conditional", "wigner_unconditional.dat")])
def test_wigner_rejects_scaled_grid(suite, tmp_path, name, file):
    out = _copy(suite, tmp_path, name)
    _edit_wigner(out / file, lambda w: 1.01 * w)
    fails = _failures(suite[1][name], out)
    assert any("integral" in f for f in fails)


def test_wigner_rejects_value_off_the_displaced_parity(suite, tmp_path):
    out = _copy(suite, tmp_path, "cat_five_lobe")

    def bump(w):
        w[w.shape[0] // 2, w.shape[1] // 2] += 1e-6
        return w

    _edit_wigner(out / "wigner.dat", bump)
    fails = _failures(suite[1]["cat_five_lobe"], out)
    assert fails and not any("integral" in f for f in fails)


@pytest.mark.parametrize("name", ["cat_two_lobe", "kitten_unconditional"])
def test_wigner_rejects_grid_at_smaller_cavity_cutoff(suite, tmp_path, name):
    """The same config run with the cavity cut at 30 levels instead of the
    program's 40: the grid moves by 6e-6 or more and must fail."""
    from triqom.cli import main

    ops = suite[1]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(ops[name].config.read_text() + "n_cav = 30\n")
    out = tmp_path / name
    assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert any(" W[" in f for f in _failures(ops[name], out))


def test_wigner_rejects_value_beyond_one_over_pi(suite, tmp_path):
    out = _copy(suite, tmp_path, "cat_two_lobe")

    def spike(w):
        w[0, 0] = 0.33
        return w

    _edit_wigner(out / "wigner.dat", spike)
    assert any("1/pi" in f for f in _failures(suite[1]["cat_two_lobe"], out))


@pytest.mark.parametrize("name", ["cat_two_lobe", "cat_five_lobe"])
def test_cat_rejects_wrong_lobe_count(suite, tmp_path, name):
    out = _copy(suite, tmp_path, name)
    _edit_manifest(out, "lobe_count", lambda n: n + 1)
    assert _failures(suite[1][name], out)


def test_kitten_rejects_probabilities_not_summing_to_one(suite, tmp_path):
    out = _copy(suite, tmp_path, "kitten_conditional")
    _edit_manifest(out, "projection_probability_plus", lambda p: p + 1e-6)
    assert _failures(suite[1]["kitten_conditional"], out)


def test_conditional_kitten_needs_negative_minimum(suite, tmp_path):
    out = _copy(suite, tmp_path, "kitten_conditional")
    _edit_wigner(out / "wigner.dat", np.abs)
    assert any("not negative" in f for f in _failures(suite[1]["kitten_conditional"], out))


@pytest.mark.parametrize("name,file", [("kitten_unconditional", "wigner.dat"),
                                       ("kitten_conditional", "wigner_unconditional.dat")])
def test_unconditional_kitten_must_not_go_negative(suite, tmp_path, name, file):
    out = _copy(suite, tmp_path, name)

    def dip(w):
        w[3, 3] = -1e-3
        return w

    _edit_wigner(out / file, dip)
    assert any("is negative" in f for f in _failures(suite[1][name], out))


@pytest.mark.parametrize("value", [1.01, -0.01])
def test_fidelity_must_lie_in_unit_interval(suite, tmp_path, value):
    out = _copy(suite, tmp_path, "kitten_fidelity_scan")
    rows = checks.read_csv(out / "fidelity.csv", "g,fidelity")
    rows[5, 1] = value
    _write_csv(out / "fidelity.csv", "g,fidelity", rows)
    assert _failures(suite[1]["kitten_fidelity_scan"], out)


def test_rerun_must_be_byte_identical(suite, tmp_path):
    import run

    base, ops = suite
    runner = run.Runner([ops["fock_base"]], tmp_path)
    assert runner._verify(ops["fock_base"], base / "fock_base")[0] == []
    out = _copy(suite, tmp_path, "fock_base")
    csv_path = out / "entanglement.csv"
    csv_path.write_text(csv_path.read_text().replace("\n", "\r\n"))
    assert any("differs" in f for f in runner._verify(ops["fock_base"], out)[0])


# ---------------------------------------------------------------------------
# tracer

def test_tracer_wraps_every_namespace_and_restores_it():
    import triqom
    import triqom.cli
    import triqom.entanglement
    import triqom.lindblad
    from triqom import ModelParams, evolve_fock_superposition

    originals = (triqom.cli.entanglement_record, triqom.lindblad.integrate,
                 triqom.entanglement.negativity, triqom.negativity)
    tracer = Tracer()
    tracer.install()
    try:
        assert triqom.cli.entanglement_record is not originals[0]
        assert triqom.lindblad.integrate is not originals[1]
        assert triqom.lindblad.negativity is triqom.entanglement.negativity
        state = evolve_fock_superposition(1.0, ModelParams(g=0.2, lam=0.25, beta=1.0))
        triqom.cli.entanglement_record(state, 1.0)
    finally:
        tracer.uninstall()
    assert (triqom.cli.entanglement_record, triqom.lindblad.integrate,
            triqom.entanglement.negativity, triqom.negativity) == originals

    stats = aggregate(tracer.spans)
    neg = stats["entanglement.negativity"]
    rec = stats["entanglement.entanglement_record"]
    assert neg["calls"] == 3 and neg["dim_max"] == 2 * state.space.dims[2]
    assert stats["core.partial_trace"]["calls"] == 6
    assert 0 < rec["self_s"] < rec["s"]
    assert neg["s"] + stats["core.partial_trace"]["s"] <= rec["s"] - rec["self_s"] + 1e-9


# ---------------------------------------------------------------------------
# reference seconds

def test_scaled_divides_by_the_mean_gauge_around_the_run():
    import reference

    before = {"sparse": 0.1, "dense": 0.4, "stream": 0.2}  # gauge 0.2
    after = {"sparse": 0.3, "dense": 0.3, "stream": 0.3}  # gauge 0.3
    assert math.isclose(reference.gauge(before), 0.2)
    assert math.isclose(reference.scaled(5.0, before, after),
                        5.0 * reference.REFERENCE_S / 0.25)
    assert set(reference.measure()) == set(reference.KERNELS)
