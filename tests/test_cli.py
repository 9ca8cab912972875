"""End-to-end tests of the command-line interface."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rabi_esqpt.cli import main
from rabi_esqpt.output import read_csv


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


class TestDispatch:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_missing_g(self, tmp_path):
        code, _ = run(tmp_path, "dos", "--ratio", "40")
        assert code == 2

    def test_ratio_below_one(self, tmp_path):
        code, _ = run(tmp_path, "dos", "--g", "1.2", "--ratio", "0.5")
        assert code == 2

    def test_bad_eps_range(self, tmp_path):
        code, _ = run(
            tmp_path, "dos", "--g", "1.2", "--eps-min", "0.5", "--eps-max", "0.2"
        )
        assert code == 2


class TestDos:
    def test_outputs_and_determinism(self, tmp_path):
        argv = ["dos", "--g", "1.2", "--ratio", "60", "--points", "21",
                "--window", "6", "--emit-svg"]
        code1, out1 = run(tmp_path / "a", *argv)
        code2, out2 = run(tmp_path / "b", *argv)
        assert code1 == 0 and code2 == 0
        for name in ("dos_semiclassical.csv", "dos_quantum.csv",
                     "dos_summary.json", "dos.svg"):
            assert (out1 / name).exists()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

        meta, cols, rows = read_csv(out1 / "dos_semiclassical.csv")
        assert meta["g"] == "1.2" and meta["command"] == "dos"
        assert cols == ["eps", "nu", "n_cum"]
        eps = np.array([float(r[0]) for r in rows])
        assert np.all(np.diff(eps) > 0)

        meta_q, cols_q, rows_q = read_csv(out1 / "dos_quantum.csv")
        assert cols_q == ["eps", "nu_per_eps", "nu"]
        # windowed estimate in semiclassical units = per-eps estimate times 2/Omega
        nu_per_eps = np.array([float(r[1]) for r in rows_q])
        nu = np.array([float(r[2]) for r in rows_q])
        np.testing.assert_allclose(nu, nu_per_eps * 2.0 / 60.0, rtol=1e-12)

        summary = json.loads((out1 / "dos_summary.json").read_text())
        assert summary["off_critical"]["n_points"] > 0
        assert summary["off_critical"]["max_rel_dev"] < 0.25
        assert "log_fit" in summary  # g > 1

    def test_log_fit_below_stays_inside_the_well(self, tmp_path):
        # at g = 1.2 the well is 0.067 deep: the below-eps_c window must end
        # at 0.9 of that, not at the 0.1 used above eps_c
        code, out = run(tmp_path, "dos", "--g", "1.2", "--ratio", "200",
                        "--window", "2", "--points", "401")
        assert code == 0
        fits = json.loads((out / "dos_summary.json").read_text())["log_fit"]
        depth = 0.5 * (1.2**2 + 1.2**-2) - 1.0
        for name in ("semiclassical", "quantum"):
            assert fits[f"{name}_above"]["window"] == [0.03, 0.1]
            below = fits[f"{name}_below"]
            assert below["window"] == [0.03, pytest.approx(0.9 * depth, rel=1e-12)]
            assert below["n_points"] >= 5

    def test_log_fit_below_skipped_when_well_too_shallow(self, tmp_path):
        # at g = 1.05 the well (0.0048 deep) ends before the window starts
        code, out = run(tmp_path, "dos", "--g", "1.05", "--ratio", "60",
                        "--window", "6", "--points", "21")
        assert code == 0
        fits = json.loads((out / "dos_summary.json").read_text())["log_fit"]
        for name in ("semiclassical", "quantum"):
            assert fits[f"{name}_below"]["skipped"].startswith("out of regime")

    def test_window_validation(self, tmp_path):
        code, _ = run(tmp_path, "dos", "--g", "1.2", "--window", "0")
        assert code == 2


class TestSpectrum:
    def test_single_coupling_with_svg(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--g", "1.0", "--ratio", "40",
                        "--levels", "10", "--emit-svg")
        assert code == 0
        meta, cols, rows = read_csv(out / "spectrum.csv")
        assert meta["g"] == "1.0"
        assert cols == ["g", "parity", "k", "energy", "eps", "dim"]
        assert len(rows) == 2 * 10
        assert {r[1] for r in rows} == {"minus", "plus"}
        root = ET.parse(out / "spectrum.svg").getroot()
        assert root.tag.endswith("svg")
        assert root.findall(".//{http://www.w3.org/2000/svg}circle")

    def test_coupling_sweep(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--g-min", "0", "--g-max", "1",
                        "--g-steps", "3", "--levels", "5", "--ratio", "20")
        assert code == 0
        meta, _, rows = read_csv(out / "spectrum.csv")
        assert meta["g_steps"] == "3"
        assert len(rows) == 3 * 2 * 5
        assert not (out / "spectrum.svg").exists()  # no --emit-svg


class TestGapmap:
    def test_sweep(self, tmp_path):
        code, out = run(tmp_path, "gapmap", "--g-min", "0", "--g-max", "2",
                        "--g-steps", "3", "--levels", "6", "--ratio", "40",
                        "--emit-svg")
        assert code == 0
        _, cols, rows = read_csv(out / "gapmap.csv")
        assert len(rows) == 3 * 6
        summary = json.loads((out / "gapmap_summary.json").read_text())
        assert summary["n_unconverged"] == 0
        assert (out / "gapmap.svg").exists()

    def test_splittings_at_precision_floor_reported_unresolved(self, tmp_path):
        # at g = 2, R = 40 the lowest doublets split by roundoff only
        code, out = run(tmp_path / "broken", "gapmap", "--g-min", "0.5", "--g-max", "2",
                        "--g-steps", "2", "--levels", "4", "--ratio", "40")
        assert code == 0
        summary = json.loads((out / "gapmap_summary.json").read_text())
        assert summary["n_unresolved"] == 4
        assert summary["abs_delta_min"] is None
        assert summary["abs_delta_max"] > 0.04
        # in the normal phase every splitting is resolved
        code, out = run(tmp_path / "normal", "gapmap", "--g-min", "0.5", "--g-max", "0.5",
                        "--g-steps", "1", "--levels", "4", "--ratio", "40")
        assert code == 0
        summary = json.loads((out / "gapmap_summary.json").read_text())
        assert summary["n_unresolved"] == 0
        assert summary["abs_delta_min"] > 0.04


class TestObservables:
    def test_run_and_summary(self, tmp_path):
        code, out = run(tmp_path, "observables", "--g", "1.2", "--ratio", "40",
                        "--points", "15", "--eps-max", "-0.2")
        assert code == 0
        _, cols, rows = read_csv(out / "observables_quantum.csv")
        assert cols == ["parity", "k", "eps", "n_phot", "nphot_scaled", "sz"]
        # scaled column is omega0/Omega times the photon number column
        for r in rows[:5]:
            assert float(r[4]) == pytest.approx(float(r[3]) / 40.0, rel=1e-12)
        summary = json.loads((out / "observables_summary.json").read_text())
        assert summary["compared_states"] > 0
        assert summary["nphot_scaled_abs_dev_max"] is not None
        assert summary["sz_abs_dev_max"] < 0.2


class TestProbabilities:
    def test_peaks_near_critical(self, tmp_path):
        code, out = run(tmp_path, "probabilities", "--g", "1.2", "--ratio", "60",
                        "--eps-max", "-0.5")
        assert code == 0
        summary = json.loads((out / "probabilities_summary.json").read_text())
        for parity in ("minus", "plus"):
            peak = summary["peaks"][parity]
            assert 0.0 < peak["p_loc"] <= 1.0
            # localization maximum hugs the barrier-top energy
            assert abs(peak["eps"] + 1.0) < 0.1


class TestAsymptotics:
    def test_power_law_at_threshold(self, tmp_path):
        code, out = run(tmp_path, "asymptotics", "--g", "1.0", "--points", "12",
                        "--delta-min", "1e-5", "--delta-max", "1e-3")
        assert code == 0
        summary = json.loads((out / "asymptotics.json").read_text())
        assert summary["kind"] == "power_qpt"
        assert summary["exponent"] == pytest.approx(-0.25, abs=0.01)
        # exp(intercept) extrapolates to delta = 1 and soaks up the
        # subleading sqrt(delta) correction, so only a loose bound holds
        assert summary["prefactor_rel_dev"] < 0.05

    def test_log_law_both_sides(self, tmp_path):
        code, out = run(tmp_path, "asymptotics", "--g", "1.4", "--points", "10",
                        "--delta-min", "1e-5", "--delta-max", "1e-3", "--emit-svg")
        assert code == 0
        summary = json.loads((out / "asymptotics.json").read_text())
        assert summary["kind"] == "log_esqpt"
        assert summary["above"]["slope_rel_dev"] < 0.02
        assert summary["below"]["slope_rel_dev"] < 0.02
        assert summary["sides_rel_diff"] < 0.05
        _, cols, rows = read_csv(out / "asymptotics_curve.csv")
        assert {r[0] for r in rows} == {"above", "below"}
        assert (out / "asymptotics.svg").exists()

    def test_subcritical_rejected(self, tmp_path):
        code, _ = run(tmp_path, "asymptotics", "--g", "0.5")
        assert code == 2


class TestConfig:
    def test_fills_unset_options(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 4, "ratio": 50}))
        code, out = run(tmp_path, "dos", "--g", "1.2", "--points", "15",
                        "--config", str(cfg))
        assert code == 0
        meta, _, _ = read_csv(out / "dos_quantum.csv")
        assert meta["window"] == "4"
        assert meta["ratio"] == "50.0"

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"window": 4, "ratio": 50}))
        code, out = run(tmp_path, "dos", "--g", "1.2", "--points", "15",
                        "--window", "6", "--config", str(cfg))
        assert code == 0
        meta, _, _ = read_csv(out / "dos_quantum.csv")
        assert meta["window"] == "6"
        assert meta["ratio"] == "50.0"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _ = run(tmp_path, "dos", "--g", "1.2", "--config", str(cfg))
        assert code == 2

    def test_invalid_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _ = run(tmp_path, "dos", "--g", "1.2", "--config", str(cfg))
        assert code == 2

    def test_non_object_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _ = run(tmp_path, "dos", "--g", "1.2", "--config", str(cfg))
        assert code == 2
