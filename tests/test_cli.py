import json
import logging
import math

import numpy as np
import pytest

from triqom import ModelParams, cavity_unconditional
from triqom.cli import _closed_spaces, main, parse_config, read_wigner

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
        # the same coherent tail at every g, up to rounding of 1 - |psi|^2
        assert manifest["tail_weights"] == {
            "max_discarded_weight": pytest.approx(lost, rel=1e-6)}

    def test_intrinsic_offset_flag_only_for_thermal(self, tmp_path):
        flag = "intrinsic_qc_offset_by_mech_entropy"
        base = ("g = 0.2\nlambda = 0.25\nalpha = 1\nnbar = 0.5\nn_cav = 6\n"
                "n_mech = 16\nt_end = 6.283185307179586\nsamples = 2\n")
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
        caplog.set_level(logging.INFO, logger="triqom.cli")
        assert self._main(tmp_path, "--quiet") == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
        assert not [r for r in caplog.records if r.name == "triqom.cli"]


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
        # the default cutoff for this reach is 1382 levels, past the 600 ceiling
        text = ("scenario = coherent-entanglement\ng = 0.4\nlambda = 0.25\n"
                "alpha = 3\n")
        code, out = _run(tmp_path, text)
        assert code == 2
        err = capsys.readouterr().err
        assert "1382" in err and "600" in err and "n_mech" in err
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
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 58.2 TiB")

        monkeypatch.setattr("triqom.cli.evolve_thermal", refuse)
        text = ("scenario = thermal-entanglement\ng = 0.2\nlambda = 0.25\n"
                "n_cav = 2\nn_mech = 2000000\nsamples = 2\n")
        code, _ = _run(tmp_path, text)
        assert code == 1
        assert "error: problem too large for memory" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["frobnicate"]) == 1
