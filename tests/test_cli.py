import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import golden_outputs
import triqom.cli
import triqom.dynamics as dyn
import triqom.entanglement as ent
import triqom.lindblad
from triqom import (DensityMatrix, ModelParams, cavity_unconditional, displaced_fock,
                    entanglement_record, evolve_coherent, evolve_fock_superposition,
                    evolve_thermal)
from triqom.cli import _KEYS, _closed_spaces, _write, main, parse_config, read_wigner
from triqom.nonclassical import WignerGrid, _axis, default_axis

from conftest import spy_calls

TWO_PI = 2.0 * math.pi

FOCK_CFG = """\
# indirect entanglement, optical qubit start
scenario = fock-entanglement
g = 0.2
lambda = 0.625
beta = 1
t_start = 0
t_end = 6.283185307179586
samples = 5
"""


def _run(tmp_path, text, name="run.cfg", extra=()):
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", str(cfg), "--out", str(out), "--quiet", *extra])
    return code, out


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config("scenario = coherent-entanglement\ng = 0.2\nlambda = 0.25\n")
        assert cfg.params.alpha == 2.0
        assert cfg.params.beta == 2.0
        assert abs(cfg.t_end - 4.0 * math.pi) < 1e-15
        assert cfg.samples == 400
        assert cfg.echo["g"] == 0.2
        assert cfg.echo["lambda"] == 0.25

    def test_comments_and_blank_lines(self):
        cfg = parse_config(
            "# a comment\n\nscenario = fock-entanglement  # trailing\n"
            "g = 0.2\nlambda = 0.625\n")
        assert cfg.scenario == "fock-entanglement"

    def test_negative_kappa_names_key(self):
        with pytest.raises(ValueError, match="kappa"):
            parse_config("scenario = open-sweep\ng = 0.2\nlambda = 0.25\nkappa = -1\n")

    def test_unknown_key_fails_closed(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("scenario = open-sweep\ng = 0.2\nlambda = 0.25\nfoo = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config("scenario = open-sweep\ng = 0.2\ng = 0.3\nlambda = 0.25\n")

    def test_missing_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            parse_config("g = 0.2\nlambda = 0.25\n")

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            parse_config("scenario = frobnicate\ng = 0.2\nlambda = 0.25\n")

    def test_rate_lists_only_for_sweeps(self):
        with pytest.raises(ValueError, match="open-sweep"):
            parse_config("scenario = fock-entanglement\ng = 0.2\nlambda = 0.25\n"
                         "Gamma = 1e-3, 1e-2\n")
        cfg = parse_config("scenario = open-sweep\ng = 0.2\nlambda = 0.25\n"
                           "Gamma = 1e-3, 1e-2\nGamma_phi = 0, 1e-2\n")
        assert cfg.Gammas == (1e-3, 1e-2)
        assert cfg.gamma_phis == (0.0, 1e-2)

    def test_range_checks(self):
        base = "scenario = coherent-entanglement\ng = 0.2\nlambda = 0.25\n"
        with pytest.raises(ValueError, match="samples"):
            parse_config(base + "samples = 1\n")
        with pytest.raises(ValueError, match="t_end"):
            parse_config(base + "t_start = 2\nt_end = 1\n")
        with pytest.raises(ValueError, match="'l'"):
            parse_config(base + "l = 0\n")

    def test_resolved_keys_echoed(self):
        cfg = parse_config("scenario = coherent-entanglement\n"
                           "g = 0.2\nlambda = 0.25\nalpha = 2\nbeta = 2\n")
        echo = cfg.echo
        assert (echo["g"], echo["lambda"], echo["alpha"], echo["beta"]) \
            == (0.2, 0.25, 2.0, 2.0)


# every bounded key with its least accepted value
LEAST = {"samples": 2, "t_start": 0.0, "l": 1, "p": 1, "grid_points": 8,
         "g_samples": 3, "n_cav": 2, "n_mech": 2, "Gamma": 0.0, "Gamma_phi": 0.0}
SWEEP_BASE = "scenario = open-sweep\ng = 0.2\nlambda = 0.25\n"


class TestConfigBounds:
    @pytest.mark.parametrize("key", sorted(LEAST))
    def test_least_value_parses_and_one_step_below_fails(self, key):
        least = LEAST[key]
        cfg = parse_config(SWEEP_BASE + f"{key} = {least!r}\n")
        got = cfg.echo[key]
        assert (got[0] if isinstance(got, list) else got) == least
        below = least - 1 if isinstance(least, int) else math.nextafter(least, -math.inf)
        with pytest.raises(ValueError, match=f"key '{key}'"):
            parse_config(SWEEP_BASE + f"{key} = {below!r}\n")

    @pytest.mark.parametrize("line, match", [
        ("alpha = two", "key 'alpha': expected a number"),
        ("samples = 2.5", "key 'samples': expected an integer"),
        ("alpha = inf", "key 'alpha': must be finite"),
        ("Gamma = 0, nan", "key 'Gamma': must be finite"),
        ("alpha 2", "line 4: expected 'key = value'"),
        ("alpha =", "line 4: key 'alpha' has no value"),
        ("dt = 0", "key 'dt'"),
        ("g_max = 1e-3", "g_min"),
    ])
    def test_malformed_values_fail_closed(self, line, match):
        with pytest.raises(ValueError, match=match):
            parse_config(SWEEP_BASE + line + "\n")

    def test_missing_g_fails_closed_except_for_the_kitten_scan(self):
        with pytest.raises(ValueError, match="missing required key 'g'"):
            parse_config("scenario = open-sweep\nlambda = 0.25\n")
        assert parse_config("scenario = kitten-fidelity\nlambda = 1\n").params.g == 0.0


def test_readme_key_table_matches_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | type |", 1)[1].split("\n\n", 1)[0]
    documented = set()
    for row in table.splitlines()[2:]:  # past the header's tail and the rule
        documented |= set(re.findall(r"`([^`]+)`", row.split("|")[1]))
    assert documented == set(_KEYS)


class TestReadWigner:
    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "w.dat"
        path.write_text("# z: 0 1 2\n# y: 0 1 2\n0 0\n0 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not a Wigner grid file"):
            read_wigner(path)

    def test_rejects_mismatched_value_block(self, tmp_path):
        path = tmp_path / "w.dat"
        path.write_text("# x: 0 1 2\n# y: 0 1 3\n0 0\n0 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"shape \(2, 2\) does not match axes \(2, 3\)"):
            read_wigner(path)


class TestWrite:
    # signed zeros, two subnormals, an integral 1e16 and two inexact decimals
    EDGE = [0.0, -0.0, 5e-324, -2.5e-310, 1e16, 1 / 3, -1e-5]

    @staticmethod
    def _joined(rows, delimiter):
        return "".join(delimiter.join(format(v, ".17g") for v in row) + "\n" for row in rows)

    def test_csv_matches_the_per_value_format(self, tmp_path):
        rows = [self.EDGE, self.EDGE[::-1]]
        _write(tmp_path / "edge.csv", rows, "a,b,c,d,e,f,g", ",")
        want = "a,b,c,d,e,f,g\n" + self._joined(rows, ",")
        assert (tmp_path / "edge.csv").read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize("n_rows", [2, 1])
    def test_grid_round_trips_bit_exact(self, tmp_path, n_rows):
        values = np.array([self.EDGE, self.EDGE[::-1]][:n_rows])
        # the axis rule read_wigner applies; one point spans [-4, -4], not symmetric
        x = _axis(-4.0, 4.0, n_rows)
        y = _axis(-1 / 3, 1 / 3, len(self.EDGE))
        header = (f"# x: {x[0]:.17g} {x[-1]:.17g} {x.size}\n"
                  f"# y: {y[0]:.17g} {y[-1]:.17g} {y.size}")
        _write(tmp_path / "w.dat", values, header, " ")
        want = header + "\n" + self._joined(values, " ")
        assert (tmp_path / "w.dat").read_bytes() == want.encode("utf-8")
        gx, gy, got = read_wigner(tmp_path / "w.dat")
        assert got.shape == values.shape
        assert np.array_equal(got.view(np.int64), values.view(np.int64))
        assert np.array_equal(gx, x) and np.array_equal(gy, y)


# every key the config format accepts
ACCEPTED_KEYS = (
    "scenario", "g", "lambda", "alpha", "beta", "nbar", "kappa", "gamma_m",
    "Gamma", "Gamma_phi", "n_th", "n_q", "t_start", "t_end", "samples", "l", "p",
    "out_dir", "n_cav", "n_mech", "dt", "seed", "grid_points", "g_min", "g_max",
    "g_samples",
)

SCENARIO_CFGS = {
    "fock-entanglement": FOCK_CFG,
    "coherent-entanglement": "scenario = coherent-entanglement\ng = 0.2\n"
                             "lambda = 0.25\nn_cav = 12\nout_dir = results/coh\n",
    "thermal-entanglement": "scenario = thermal-entanglement\ng = 0.2\n"
                            "lambda = 0.25\nnbar = 0.5\nn_q = 0.3\n",
    "open-sweep": "scenario = open-sweep\ng = 0.1\nlambda = 0.25\nkappa = 1e-2\n"
                  "Gamma = 1e-3, 1e-2\nGamma_phi = 0, 1e-2\ndt = 5e-3\n",
    "cat-unconditional": "scenario = cat-unconditional\ng = 0.0125\nlambda = 1\n"
                         "alpha = 3\nl = 10\np = 5\n",
    "cat-conditional": "scenario = cat-conditional\ng = 0.0125\nlambda = 1\n"
                       "alpha = 3\nl = 10\ngrid_points = 81\nseed = 7\n",
    "kitten-fidelity": "scenario = kitten-fidelity\nlambda = 1\nalpha = 3\n"
                       "g_min = 0.002\ng_max = 0.03\ng_samples = 9\n",
}


@pytest.mark.parametrize("scenario", sorted(SCENARIO_CFGS))
def test_config_echo_round_trip(scenario):
    cfg = parse_config(SCENARIO_CFGS[scenario])
    assert cfg.scenario == scenario
    assert set(cfg.echo) == set(ACCEPTED_KEYS)
    lines = []
    for key, value in cfg.echo.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ", ".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    again = parse_config("\n".join(lines) + "\n")
    assert again.echo == cfg.echo


class TestRunScenarios:
    def test_fock_series_hits_expected_negativity(self, tmp_path):
        code, out = _run(tmp_path, FOCK_CFG)
        assert code == 0
        lines = (out / "entanglement.csv").read_text().splitlines()
        assert lines[0] == "t,neg_qc,neg_qo,neg_oc,intrinsic_qc"
        assert len(lines) == 6
        last = [float(v) for v in lines[-1].split(",")]
        assert abs(last[0] - TWO_PI) < 1e-12
        assert abs(last[1] - 0.5) < 0.005
        assert last[2] < 1e-6 and last[3] < 1e-6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "fock-entanglement"
        assert "entanglement.csv" in manifest["outputs"]
        assert manifest["truncations"]["n_cav"] == 2
        assert "max_discarded_weight" in manifest["tail_weights"]
        assert "duration_seconds" in manifest
        for key in ("scenario", "g", "lambda", "alpha", "beta", "nbar", "kappa",
                    "gamma_m", "Gamma", "Gamma_phi", "n_th", "t_end", "samples",
                    "l", "p", "out_dir", "dt", "seed"):
            assert key in manifest["config"]

    def test_reruns_are_byte_identical(self, tmp_path):
        code1, out1 = _run(tmp_path, FOCK_CFG, name="a.cfg")
        cfg = tmp_path / "b.cfg"
        cfg.write_text(FOCK_CFG, encoding="utf-8")
        out2 = tmp_path / "out2"
        code2 = main(["run", str(cfg), "--out", str(out2), "--quiet"])
        assert code1 == code2 == 0
        a = (out1 / "entanglement.csv").read_bytes()
        b = (out2 / "entanglement.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("scenario, outputs", [
        ("fock-entanglement", ["entanglement.csv"]),
        ("cat-conditional", ["wigner.dat", "wigner_unconditional.dat"]),
        ("kitten-fidelity", ["fidelity.csv"]),
    ])
    def test_manifest_lists_the_files_written_in_order(self, tmp_path, scenario, outputs):
        code, out = _run(tmp_path, SCENARIO_CFGS[scenario])
        assert code == 0
        assert json.loads((out / "manifest.json").read_text())["outputs"] == outputs
        assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["manifest.json"])

    def test_non_finite_output_writes_no_file(self, tmp_path, capsys, monkeypatch):
        # the unmeasured grid is computed first and listed last
        real = triqom.cli.wigner

        def wigner(state, x_axis, y_axis):
            grid = real(state, x_axis, y_axis)
            if isinstance(state, DensityMatrix):
                return WignerGrid(grid.x_axis, grid.y_axis, np.full_like(grid.values, np.nan))
            return grid

        monkeypatch.setattr(triqom.cli, "wigner", wigner)
        code, out = _run(tmp_path, SCENARIO_CFGS["cat-conditional"])
        assert code == 2
        assert "error: non-finite value in output data" in capsys.readouterr().err
        assert out.is_dir() and list(out.iterdir()) == []

    def test_thermal_series_runs(self, tmp_path):
        text = ("scenario = thermal-entanglement\ng = 0.2\nlambda = 0.25\n"
                "alpha = 1\nnbar = 0.5\nn_cav = 10\nn_mech = 30\n"
                "t_end = 6.283185307179586\nsamples = 3\n")
        code, out = _run(tmp_path, text)
        assert code == 0
        rows = (out / "entanglement.csv").read_text().splitlines()[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        assert np.all(np.isfinite(data))

    def test_open_sweep_lossless_row(self, tmp_path):
        text = ("scenario = open-sweep\ng = 0.1\nlambda = 0.25\nalpha = 0.8\n"
                "beta = 0\nn_cav = 8\nn_mech = 12\ndt = 5e-3\n"
                "Gamma = 0\nGamma_phi = 0\n")
        code, out = _run(tmp_path, text)
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "Gamma,gamma_phi,neg_qc_2pi"
        g, gphi, neg = (float(v) for v in lines[1].split(","))
        assert (g, gphi) == (0.0, 0.0)
        assert 0.0 <= neg <= 0.5 + 1e-9

    def test_cat_conditional_grid(self, tmp_path):
        text = ("scenario = cat-conditional\ng = 0.0125\nlambda = 1\nalpha = 3\n"
                "l = 10\ngrid_points = 81\n")
        code, out = _run(tmp_path, text)
        assert code == 0
        x, y, w = read_wigner(out / "wigner.dat")
        assert x.size == y.size == 81
        assert w.shape == (81, 81)
        assert w.min() < -1e-3
        header = (out / "wigner.dat").read_text().splitlines()[:2]
        assert header[0].startswith("# x: ") and header[0].endswith(" 81")
        assert header[1].startswith("# y: ") and header[1].endswith(" 81")
        _, _, w_un = read_wigner(out / "wigner_unconditional.dat")
        assert w_un.min() >= -1e-3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["min_wigner"] < -1e-3

    def test_shipped_cat_grid_reads_back_the_default_axis(self, tmp_path):
        cfg = Path(__file__).resolve().parent.parent / "scenarios" / "cat_two_lobe.cfg"
        code, out = _run(tmp_path, cfg.read_text(encoding="utf-8"))
        assert code == 0
        x, y, _ = read_wigner(out / "wigner.dat")
        want = default_axis(3.0)
        assert np.array_equal(x.view(np.int64), want.view(np.int64))
        assert np.array_equal(y.view(np.int64), want.view(np.int64))

    def test_kitten_fidelity_table(self, tmp_path):
        text = ("scenario = kitten-fidelity\nlambda = 1\nalpha = 3\nl = 10\n"
                "g_min = 0.002\ng_max = 0.03\ng_samples = 9\n")
        code, out = _run(tmp_path, text)
        assert code == 0
        lines = (out / "fidelity.csv").read_text().splitlines()
        assert lines[0] == "g,fidelity"
        data = np.array([[float(v) for v in r.split(",")] for r in lines[1:]])
        assert data.shape == (9, 2)
        assert np.all(np.isfinite(data))
        assert np.all((0.0 <= data[:, 1]) & (data[:, 1] <= 1.0))


    def test_kitten_scan_builds_its_target_once(self, tmp_path, monkeypatch):
        calls = spy_calls(monkeypatch, displaced_fock)
        cfg = Path(__file__).resolve().parent.parent / "scenarios" / "kitten_fidelity_scan.cfg"
        code, out = _run(tmp_path, cfg.read_text(encoding="utf-8"))
        assert code == 0
        assert len(calls) == 1
        assert len((out / "fidelity.csv").read_text().splitlines()) == 62

    def test_kitten_fidelity_reports_truncation_loss(self, tmp_path):
        # 32 levels is the smallest cutoff that holds the D(3)|1> target
        text = ("scenario = kitten-fidelity\nlambda = 1\nalpha = 3\nl = 10\n"
                "n_cav = 32\ng_min = 0.01\ng_max = 0.015\ng_samples = 3\n")
        code, out = _run(tmp_path, text)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        lost = cavity_unconditional(10, ModelParams(g=0.0125, lam=1.0, alpha=3.0),
                                    dim=32).discarded_weight
        assert lost > 1e-9
        # the same exact coherent tail at every g, and the target's own tail
        assert manifest["tail_weights"] == {
            "max_discarded_weight": lost,
            "target_discarded_weight": displaced_fock(3.0, 1, 32).discarded_weight}

    def test_kitten_fidelity_at_zero_amplitude(self, tmp_path):
        # the D(0)|1> = |1> target needs two levels where the vacuum needs one
        text = ("scenario = kitten-fidelity\nlambda = 1\nalpha = 0\nl = 10\n"
                "g_samples = 3\n")
        code, out = _run(tmp_path, text)
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["truncations"]["n_cav"] == 2
        assert manifest["results"]["fidelity_best"] == 0.0

    def test_intrinsic_offset_flag_only_for_thermal(self, tmp_path):
        flag = "intrinsic_qc_offset_by_mech_entropy"
        base = ("g = 0.2\nlambda = 0.25\nalpha = 1\nnbar = 0.5\nn_cav = 10\n"
                "n_mech = 24\nt_end = 6.283185307179586\nsamples = 2\n")
        for scenario in ("thermal-entanglement", "coherent-entanglement",
                         "fock-entanglement"):
            code, out = _run(tmp_path, f"scenario = {scenario}\n" + base,
                             name=f"{scenario}.cfg")
            assert code == 0
            results = json.loads((out / "manifest.json").read_text())["results"]
            if scenario == "thermal-entanglement":
                assert results[flag] is True
            else:
                assert flag not in results


class TestStackedSeries:
    """A pure series is evolved, reduced and eigensolved as stacks; each row
    equals the one-sample `entanglement_record(evolve_*(t), t)` bit for bit."""

    # rank 1 at t = 0 and 2 pi (the mechanics factors out), generic ranks between
    GRID = "t_start = 0\nt_end = 6.283185307179586\n"
    CASES = {
        "fock": ("scenario = fock-entanglement\ng = 0.2\nlambda = 0.625\nbeta = 1\n"
                 "samples = 9\n", evolve_fock_superposition),
        "coherent": ("scenario = coherent-entanglement\ng = 0.2\nlambda = 0.25\n"
                     "alpha = 2\nbeta = 2\nn_cav = 24\nn_mech = 70\nsamples = 4\n",
                     evolve_coherent),
    }

    @staticmethod
    def _one_at_a_time(cfg, evolve):
        cspace = _closed_spaces(cfg)
        rows = []
        for t in np.linspace(cfg.t_start, cfg.t_end, cfg.samples):
            rec = entanglement_record(evolve(float(t), cfg.params, cspace), float(t))
            rows.append((rec.time, rec.neg_qc, rec.neg_qo, rec.neg_oc, rec.intrinsic_qc))
        return np.array(rows)

    @pytest.mark.parametrize("per_chunk", [None, 2])
    @pytest.mark.parametrize("family", ["fock", "coherent"])
    def test_rows_equal_the_one_sample_record(self, tmp_path, monkeypatch, family, per_chunk):
        text, evolve = self.CASES[family]
        cfg = parse_config(text + self.GRID)
        want = self._one_at_a_time(cfg, evolve)
        # the whole series as one stack, or cut into chunks of two samples
        cspace = _closed_spaces(cfg)
        monkeypatch.setattr(ent, "_STACK_BYTES", (per_chunk or cfg.samples)
                            * ent._sample_bytes(cspace.n_cav, cspace.n_mech))
        stacks = []  # (mechanics rank, samples) of each stacked call
        real = ent._pair_records

        def spy(reds, dims):
            stacks.append((dims[2], len(reds[0])))
            return real(reds, dims)

        monkeypatch.setattr(ent, "_pair_records", spy)
        code, out = _run(tmp_path, text + self.GRID)
        assert code == 0
        got = np.loadtxt(out / "entanglement.csv", delimiter=",", skiprows=1)
        assert got.tobytes() == want.tobytes()
        assert sum(n for r, n in stacks if r == 1) == 2 and max(r for r, _ in stacks) > 1
        sizes = [n for _, n in stacks]
        if per_chunk:
            assert max(sizes) <= per_chunk and len(sizes) >= cfg.samples // per_chunk
        else:
            assert max(sizes) > 1
        assert max(want[:, 1]) > 0.1

    def test_non_hermitian_stack_is_exit_two(self, tmp_path, capsys, monkeypatch):
        real = ent._pair_records

        def skew(reds, dims):
            reds[0][-1, 0, 1] += 1e-6  # one sample of the stack loses Hermiticity
            return real(reds, dims)

        monkeypatch.setattr(ent, "_pair_records", skew)
        code, out = _run(tmp_path, FOCK_CFG)
        assert code == 2
        assert "deviates from Hermitian by 1.00e-06" in capsys.readouterr().err
        assert not (out / "entanglement.csv").exists()


class TestThermalSeries:
    """The thermal series enters the record kernel as its purification, one
    amplitude matrix per mechanics level; each row agrees with the density-matrix
    `entanglement_record(evolve_thermal(t), t)` to rounding."""

    TEXT = ("scenario = thermal-entanglement\ng = 0.2\nlambda = 0.25\nalpha = 1\n"
            "nbar = 0.5\nn_cav = 10\nn_mech = 16\nsamples = 5\n")

    def _series(self, tmp_path, monkeypatch, grid, per_chunk):
        """The CLI's rows checked against the density records; returns those
        records and the oc reduction width of each sample."""
        text = self.TEXT + grid
        cfg = parse_config(text)
        cspace = _closed_spaces(cfg)
        want = []
        for t in np.linspace(cfg.t_start, cfg.t_end, cfg.samples):
            rec = entanglement_record(evolve_thermal(float(t), cfg.params, cspace), float(t))
            want.append((rec.time, rec.neg_qc, rec.neg_qo, rec.neg_oc, rec.intrinsic_qc))
        want = np.array(want)
        # the whole series as one stack, or cut into chunks of two samples
        monkeypatch.setattr(ent, "_STACK_BYTES", (per_chunk or cfg.samples) * ent._sample_bytes(
            cspace.n_cav, cspace.n_mech, cspace.n_mech))
        calls, stacks, widths = [], [], []  # density-matrix calls; per stacked call
        real_pair_records = ent._pair_records

        def spy(name, real):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapped

        def stacked(reds, dims):
            stacks.append(len(reds[0]))
            widths.extend([reds[2].shape[-1]] * len(reds[2]))
            return real_pair_records(reds, dims)

        monkeypatch.setattr(ent, "_pair_records", stacked)
        monkeypatch.setattr(dyn, "evolve_thermal", spy("evolve_thermal", dyn.evolve_thermal))
        monkeypatch.setattr(ent, "partial_trace", spy("partial_trace", ent.partial_trace))
        code, out = _run(tmp_path, text)
        assert code == 0
        # no d x d density matrix: the CLI neither evolves nor partially traces one
        assert calls == [] and not hasattr(triqom.cli, "evolve_thermal")
        got = np.loadtxt(out / "entanglement.csv", delimiter=",", skiprows=1)
        assert np.abs(got - want).max() <= 1e-13
        if per_chunk:
            assert max(stacks) <= per_chunk and len(stacks) >= cfg.samples // per_chunk
        else:
            assert max(stacks) > 1
        return want, sorted(widths)

    @pytest.mark.parametrize("per_chunk", [None, 2])
    def test_rows_agree_with_the_density_record(self, tmp_path, monkeypatch, per_chunk):
        want, widths = self._series(tmp_path, monkeypatch, "t_start = 0.5\nt_end = 5.5\n",
                                    per_chunk)
        assert min(want[1:, 1]) > 1e-4 and min(want[:, 3]) > 1e-2  # generic times
        assert widths == [10 * 16] * 5

    @pytest.mark.parametrize("per_chunk", [None, 2])
    def test_revival_rows_reduce_neg_oc_on_the_cavity_support(self, tmp_path, monkeypatch,
                                                               per_chunk):
        # t = 0, pi, ..., 4 pi: the mechanics factors out at 0, 2 pi and 4 pi, where
        # the cavity marginal has rank 1 (t = 0) or 2, and neg_oc is eigensolved
        # at 16 and 2 x 16 instead of 10 x 16
        want, widths = self._series(tmp_path, monkeypatch,
                                    "t_start = 0\nt_end = 12.566370614359172\n", per_chunk)
        assert max(want[::2, 2:4].ravel()) < 1e-12 < min(want[1::2, 3])
        assert widths == [16, 32, 32, 160, 160]


class TestProgress:
    def _main(self, tmp_path, *extra):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FOCK_CFG, encoding="utf-8")
        return main(["run", str(cfg), "--out", str(tmp_path / "out"), *extra])

    def test_progress_is_logged_to_stdout(self, tmp_path, capsys, caplog):
        caplog.set_level(logging.INFO, logger="triqom.cli")
        assert self._main(tmp_path) == 0
        captured = capsys.readouterr()
        assert "scenario fock-entanglement ->" in captured.out
        assert "neg_qc = " in captured.out
        assert captured.err == ""
        messages = [r.getMessage() for r in caplog.records if r.name == "triqom.cli"]
        assert any(m.startswith("scenario fock-entanglement") for m in messages)
        assert all(r.levelno == logging.INFO for r in caplog.records)

    def test_quiet_silences_progress(self, tmp_path, capsys, caplog):
        caplog.set_level(logging.INFO, logger="triqom")
        assert self._main(tmp_path, "--quiet") == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert not [r for r in caplog.records if r.name == "triqom.cli"]

    # the 2 x 2 open-sweep config, at cutoffs that run in well under a second
    SWEEP_CFG = SCENARIO_CFGS["open-sweep"] + "alpha = 0.8\nbeta = 0.5\nn_cav = 6\nn_mech = 8\n"
    CELL = re.compile(r"  Gamma = (\S+)  gamma_phi = (\S+)  ->  "
                      r"neg_qc\(t = 6\.28319\) = (\S+)$")

    def _sweep_args(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(self.SWEEP_CFG, encoding="utf-8")
        return ["run", str(cfg), "--out", str(tmp_path / "out")]

    def _cells(self, tmp_path, stdout):
        # each cell's line, checked against its row of sweep.csv, in row order
        lines = [m.groups() for m in map(self.CELL.match, stdout.splitlines()) if m]
        rows = np.loadtxt(tmp_path / "out" / "sweep.csv", delimiter=",", skiprows=1)
        assert [(float(G), float(gphi)) for G, gphi, _ in lines] == \
            [(1e-3, 0.0), (1e-3, 1e-2), (1e-2, 0.0), (1e-2, 1e-2)]
        assert [tuple(map(float, line[:2])) for line in lines] == \
            [tuple(row[:2]) for row in rows]
        assert [line[2] for line in lines] == [f"{row[2]:.6f}" for row in rows]

    def test_each_sweep_cell_is_logged_as_it_finishes(self, tmp_path, capsys, caplog,
                                                       monkeypatch):
        caplog.set_level(logging.INFO, logger="triqom")
        integrate = triqom.lindblad.integrate
        logged_before = []  # cell records already logged at each integrate call

        def spy(*args, **kwargs):
            logged_before.append(sum(r.name == "triqom.lindblad" for r in caplog.records))
            return integrate(*args, **kwargs)

        monkeypatch.setattr(triqom.lindblad, "integrate", spy)
        assert main(self._sweep_args(tmp_path)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        self._cells(tmp_path, captured.out)
        cells = [r for r in caplog.records if r.name == "triqom.lindblad"]
        assert [self.CELL.match(r.getMessage()) is not None for r in cells] == [True] * 4
        assert all(r.levelno == logging.INFO for r in cells)
        assert logged_before == [0, 1, 2, 3]

    def test_quiet_silences_the_sweep_cells(self, tmp_path, capsys):
        assert main([*self._sweep_args(tmp_path), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_module_run_prints_every_progress_line(self, tmp_path):
        # under `python -m triqom.cli` the CLI module is __main__, not triqom.cli
        root = Path(__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-m", "triqom.cli", *self._sweep_args(tmp_path)],
                              env=env, capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        assert done.stderr == "" and len(lines) == 6
        assert lines[0] == f"scenario open-sweep -> {tmp_path / 'out'}"
        assert lines[-1].startswith("wrote sweep.csv and manifest.json in ")
        self._cells(tmp_path, done.stdout)


class TestExitCodes:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        for extra in (["--quiet"], []):  # errors go to stderr either way
            code = main(["run", str(tmp_path / "nope.cfg"), *extra])
            assert code == 1
            captured = capsys.readouterr()
            assert "error:" in captured.err
            assert captured.out == ""

    def test_bad_config_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = open-sweep\ng = 0.2\n", encoding="utf-8")
        code = main(["run", str(cfg), "--quiet"])
        assert code == 1
        assert "lambda" in capsys.readouterr().err

    def test_model_parameter_error_names_the_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = open-sweep\ng = 0.2\nlambda = 0.25\nnbar = -1\n",
                       encoding="utf-8")
        code = main(["run", str(cfg), "--quiet"])
        err = capsys.readouterr().err
        assert code == 1
        assert "key 'nbar'" in err and "nbar_mech" not in err

    @pytest.mark.parametrize("text", [
        "scenario = cat-unconditional\ng = 0.2\nlambda = 0.25\nalpha = 1e200\n",
        "scenario = fock-entanglement\ng = 1e300\nlambda = 0.25\n",
    ], ids=["cat_alpha", "fock_g"])
    def test_an_oversized_amplitude_reports_no_cutoff(self, tmp_path, capsys, text):
        # the tail's |alpha|^2 overflows to inf (through mechanics_dim for g)
        code, _ = _run(tmp_path, text)
        assert code == 2
        assert "error: no cutoff reaches a tail" in capsys.readouterr().err

    def test_numerical_failure_is_exit_two(self, tmp_path, capsys):
        text = ("scenario = open-sweep\ng = 0.2\nlambda = 0.25\nalpha = 2\n"
                "n_cav = 2\nn_mech = 4\n")
        code, _ = _run(tmp_path, text)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_sweep_rate_entry_is_validation_error(self, tmp_path, capsys):
        # a negative entry after the first one must fail before any cell runs
        base = ("scenario = open-sweep\ng = 0.2\nlambda = 0.25\nalpha = 0.5\n"
                "beta = 0.5\nn_cav = 4\nn_mech = 4\n")
        for key, rates in (("Gamma_phi", "0.0, -0.5"), ("Gamma", "0.0, -1.0")):
            code, out = _run(tmp_path, base + f"{key} = {rates}\n")
            assert code == 1
            assert f"'{key}'" in capsys.readouterr().err
            assert not (out / "sweep.csv").exists()

    def test_oversized_default_mechanics_is_exit_two(self, tmp_path, capsys):
        # the default cutoff for this reach is 1465 levels, past the 600 ceiling
        text = ("scenario = coherent-entanglement\ng = 0.4\nlambda = 0.25\n"
                "alpha = 3\n")
        code, out = _run(tmp_path, text)
        assert code == 2
        err = capsys.readouterr().err
        assert "1465" in err and "600" in err and "n_mech" in err
        assert not (out / "entanglement.csv").exists()
        # an explicit n_mech bypasses the default rule
        cfg = parse_config(text + "n_mech = 700\n")
        assert _closed_spaces(cfg).n_mech == 700

    def test_unwritable_output_is_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(FOCK_CFG, encoding="utf-8")
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        for out in (afile, afile / "sub"):
            code = main(["run", str(cfg), "--out", str(out), "--quiet"])
            assert code == 1
            assert "error: cannot write output" in capsys.readouterr().err

    def test_out_of_memory_is_exit_one(self, tmp_path, capsys, monkeypatch):
        # a series within the memory budget, whose builder fails to allocate
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise MemoryError("Unable to allocate 58.2 TiB")

        monkeypatch.setattr("triqom.dynamics._thermal_purification", refuse)
        text = ("scenario = thermal-entanglement\ng = 0.2\nlambda = 0.25\n"
                "n_cav = 2\nn_mech = 40\nsamples = 2\n")
        code, _ = _run(tmp_path, text)
        assert code == 1 and len(calls) == 1
        assert "error: problem too large for memory" in capsys.readouterr().err

    def test_open_sweep_beyond_the_memory_budget_is_exit_one(self, tmp_path, capsys,
                                                               monkeypatch):
        text = ("scenario = open-sweep\ng = 0.2\nlambda = 0.25\nalpha = 0.05\nbeta = 0.05\n"
                "n_cav = 2\nn_mech = 3\nkappa = 1e-2\n")
        # the estimate for this 2 x 3 sweep is about 76 kB; the propagation
        # vectors alone refuse it before the d x d rho0 is built
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 1024)
        calls = spy_calls(monkeypatch, triqom.core.tensor)
        code, out = _run(tmp_path, text)
        assert code == 1 and calls == []
        err = capsys.readouterr().err
        assert "error: problem too large for memory: the open sweep at dimension 12" in err
        assert not (out / "sweep.csv").exists()
        monkeypatch.undo()
        code, out = _run(tmp_path, text)
        assert code == 0 and (out / "sweep.csv").exists()

    def test_closed_series_beyond_the_memory_budget_is_exit_one(self, tmp_path, capsys,
                                                                  monkeypatch):
        text = ("scenario = thermal-entanglement\ng = 0.2\nlambda = 0.25\nalpha = 0.01\n"
                "n_cav = 2\nn_mech = 3\nsamples = 2\n")
        # three copies of one 2 x 3 thermal sample take 3,888 bytes
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 1024)
        code, out = _run(tmp_path, text)
        assert code == 1
        assert "error: problem too large for memory" in capsys.readouterr().err
        assert not (out / "entanglement.csv").exists()
        monkeypatch.undo()
        code, out = _run(tmp_path, text)
        assert code == 0 and (out / "entanglement.csv").exists()

    @pytest.mark.parametrize("size, budget, what, built", [
        # the 17-level density (4,624 bytes) fits; the 21^2 grid (over 56 kB) does not
        ("", 8192, "a Wigner grid of 441 points on 17 levels", 1),
        # the 400-level density takes 2.56 MB and is refused before it is built
        ("n_cav = 400\n", 16 * 400 ** 2 - 1, "a cavity density of 400 levels", 0),
    ], ids=["grid", "density"])
    def test_cat_beyond_the_memory_budget_is_exit_one(self, tmp_path, capsys, monkeypatch,
                                                       size, budget, what, built):
        text = ("scenario = cat-unconditional\ng = 0.5\nlambda = 0.5\nalpha = 1\n"
                "grid_points = 21\n" + size)
        monkeypatch.setattr("triqom.core._memory_budget", lambda: budget)
        calls = spy_calls(monkeypatch, triqom.core.partial_trace)
        code, out = _run(tmp_path, text)
        assert code == 1 and len(calls) == built
        assert f"error: problem too large for memory: {what}" in capsys.readouterr().err
        assert not (out / "wigner.dat").exists()
        monkeypatch.undo()
        code, out = _run(tmp_path, text)
        assert code == 0 and (out / "wigner.dat").exists()

    @pytest.mark.parametrize("scenario, extra, what", [
        ("coherent-entanglement", "g = 0.2\nn_mech = 5\nsamples = 2\n",
         "one sample of the series"),
        ("cat-unconditional", "g = 0.5\n", "a cavity density of 200000 levels"),
        ("cat-conditional", "g = 0.5\n", "a cavity density of 200000 levels"),
        ("kitten-fidelity", "g_samples = 3\n", "a cavity density of 200000 levels"),
    ], ids=["coherent", "cat-unconditional", "cat-conditional", "kitten"])
    def test_oversized_cavity_refuses_before_any_amplitude_table(
            self, tmp_path, capsys, monkeypatch, scenario, extra, what):
        # each run would build an amplitude table of 200,000 levels or more
        text = f"scenario = {scenario}\nlambda = 0.25\nalpha = 1\nn_cav = 200000\n{extra}"
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 2 ** 20)
        calls = spy_calls(monkeypatch, triqom.core.coherent_amplitudes)
        code, out = _run(tmp_path, text)
        assert code == 1 and calls == []
        assert f"error: problem too large for memory: {what}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("scenario, size, what", [
        ("fock-entanglement", "g = 0.2\nsamples = 1000000\n", "a table of 1000000 samples"),
        ("kitten-fidelity", "g_samples = 1000000\n", "a table of 1000000 couplings"),
    ], ids=["fock", "kitten"])
    def test_output_table_beyond_the_memory_budget_is_exit_one(self, tmp_path, capsys,
                                                               monkeypatch, scenario, size,
                                                               what):
        # tables of 84 and 167 MB against 1 MiB; a state build or an objective fails the test
        def built(*args, **kwargs):
            raise AssertionError("built before the table was counted")

        monkeypatch.setattr("triqom.cli._family_series", built)
        monkeypatch.setattr("triqom.cli._kitten_objective", built)
        monkeypatch.setattr("triqom.core._memory_budget", lambda: 2 ** 20)
        code, out = _run(tmp_path, f"scenario = {scenario}\nlambda = 0.25\n{size}")
        assert code == 1
        assert f"error: problem too large for memory: {what}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("scenario, sizes, data", [
        ("fock-entanglement", "beta = 3\nn_mech = 5\n", "entanglement.csv"),
        ("coherent-entanglement", "n_mech = 5\n", "entanglement.csv"),
        ("thermal-entanglement", "n_cav = 3\n", "entanglement.csv"),
        ("cat-conditional", "alpha = 3\nn_cav = 2\n", "wigner.dat"),
    ])
    def test_closed_state_beyond_the_tail_tolerance_is_exit_two(self, tmp_path, capsys,
                                                                 monkeypatch, scenario, sizes,
                                                                 data):
        # the library builders keep any tail; the CLI refuses one above 1e-6,
        # a series at its first such chunk, before that chunk's records
        records = spy_calls(monkeypatch, triqom.entanglement._records)
        code, out = _run(tmp_path, f"scenario = {scenario}\ng = 0.2\nlambda = 0.25\n"
                                   f"samples = 2\n{sizes}")
        assert code == 2 and records == []
        err = capsys.readouterr().err
        assert f"error: {scenario}" in err and "exceeds tolerance 1.0e-06" in err
        assert not (out / data).exists() and not (out / "manifest.json").exists()

    def test_usage_error(self):
        assert main(["frobnicate"]) == 1


class TestClosedSpaces:
    """Default cutoffs follow the family of the scenario's initial state."""

    BASE = "g = 0.2\nlambda = 0.25\nalpha = 2\nbeta = 2\n"

    @pytest.mark.parametrize("family, nbar, size", [
        ("fock", 10, (2, 40)), ("coherent", 10, (28, 289)), ("thermal", 2, (28, 224))])
    def test_default_cutoffs_are_the_family_defaults(self, family, nbar, size):
        cfg = parse_config(f"scenario = {family}-entanglement\nnbar = {nbar}\n" + self.BASE)
        want = dyn.default_composite_space(cfg.params, family=family)
        assert _closed_spaces(cfg) == want and want.dims[1:] == size

    def test_open_sweep_default_is_the_coherent_family(self):
        # the sweep starts its mechanics in |beta>: no thermal floor
        cfg = parse_config("scenario = open-sweep\nnbar = 10\n" + self.BASE)
        want = dyn.default_composite_space(cfg.params, family="coherent")
        assert _closed_spaces(cfg) == want and want.dims[1:] == (28, 289)


def test_closed_scenarios_import_no_scipy_module(tmp_path):
    # only the open sweep needs scipy, and it loads scipy.sparse at its first
    # call; scipy.linalg alone adds about 8 MB to a CLI process
    root = Path(__file__).resolve().parent.parent
    quick = [str(root / "scenarios" / name) for name in golden_outputs.QUICK]
    sweep = tmp_path / "sweep.cfg"
    sweep.write_text("scenario = open-sweep\ng = 0.2\nlambda = 0.25\nalpha = 0.05\n"
                     "beta = 0.05\nn_cav = 2\nn_mech = 3\nkappa = 1e-2\n", encoding="utf-8")
    script = (
        "import json, sys\n"
        "def loaded(prefix):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == prefix)\n"
        "seen = {}\n"
        "import triqom\n"
        "from triqom import integrate\n"
        "seen['import triqom'] = loaded('scipy')\n"
        "from triqom import (CompositeSpace, ModelParams, evolve_coherent,\n"
        "                    evolve_thermal, evolve_unitary)\n"
        "p = ModelParams(g=0.2, lam=0.25, alpha=0.5, nbar_mech=0.5)\n"
        "evolve_unitary(evolve_coherent(0.0, p, CompositeSpace(3, 8)), 1.3, p)\n"
        "evolve_thermal(1.3, p, CompositeSpace(3, 16))\n"
        "seen['evolve'] = loaded('scipy')\n"
        "seen['library'] = loaded('triqom')\n"
        "from triqom.cli import main\n"
        "seen['modules'] = loaded('triqom')\n"
        "*closed, sweep, out = sys.argv[1:]\n"
        "for i, cfg in enumerate(closed):\n"
        "    assert main(['run', cfg, '--out', f'{out}/{i}', '--quiet']) == 0, cfg\n"
        "    seen[cfg] = loaded('scipy')\n"
        "assert main(['run', sweep, '--out', f'{out}/sweep', '--quiet']) == 0\n"
        "seen['sweep'] = loaded('scipy')\n"
        "print(json.dumps(seen))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", script, *quick, str(sweep), str(tmp_path)],
                          env=env, capture_output=True, text=True, check=True)
    seen = json.loads(done.stdout)
    six = [f"triqom.{m}" for m in ("cli", "core", "dynamics", "entanglement",
                                   "lindblad", "nonclassical")]
    assert seen["library"] == ["triqom"] + [m for m in six if m != "triqom.cli"]
    assert seen["modules"] == ["triqom"] + six  # the modules perfbench's tracer wraps
    assert seen["import triqom"] == []
    assert seen["evolve"] == []  # _propagate diagonalizes with numpy's eigh
    for cfg in quick:
        assert seen[cfg] == [], cfg
    assert "scipy.sparse" in seen["sweep"]
    assert not {"scipy.linalg", "scipy.sparse.linalg"} & set(seen["sweep"])
