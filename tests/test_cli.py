"""End-to-end tests of the command-line interface."""

import argparse
import json
import math
import os
import re
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rabi_esqpt import __version__, cli, quantum, semiclassical
from rabi_esqpt.cli import COMMANDS, FILES, G_SWEEP, main
from rabi_esqpt.output import format_value, write_csv
from test_bench_hooks import RUNS
from test_quantum import assert_no_child_left


def read_csv(path):
    """Inverse of output.write_csv: metadata, columns, rows, all as strings."""
    metadata, columns, rows = {}, [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            metadata[key] = val
        elif not columns:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return metadata, columns, rows


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


class TestDispatch:
    def test_no_command(self, capsys):
        assert main([]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: rabi-esqpt")
        assert all(name in err for name in COMMANDS)

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "invalid choice: 'frobnicate'" in capsys.readouterr().err

    def test_help_lists_every_command_with_its_help_line(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no help line wraps
        assert main(["--help"]) == 0
        # argparse puts the help line of a long name on the next line
        listed = re.findall(r"^    (\S+)\s+(\S.*)$", capsys.readouterr().out, re.M)
        assert len(COMMANDS) == 6
        assert listed == [(name, cmd.help) for name, cmd in COMMANDS.items()]

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"rabi-esqpt {__version__}\n"

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_command_help_lists_its_own_options(self, capsys, name):
        assert main([name, "--help"]) == 0
        flags = set(re.findall(r"^  (--[a-z0-9-]+)", capsys.readouterr().out, re.M))
        assert flags == {opt.flag for opt in COMMANDS[name].opts}

    def test_option_of_another_command_rejected(self, capsys):
        assert main(["spectrum", "--window", "3"]) == 2
        assert "unrecognized arguments: --window 3" in capsys.readouterr().err

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

    def test_samples_moved_off_eps_c_stay_below_eps_max(self, tmp_path):
        # the top sample lies within 1e-7 of eps_c; moved above it, it would
        # pass --eps-max, so it is dropped instead
        code, out = run(tmp_path, "dos", "--ratio", "400", "--g", "1.2", "--window", "2",
                        "--eps-min", "-1.06", "--eps-max", "-1.00000005", "--points", "3")
        assert code == 0
        _, _, rows = read_csv(out / "dos_semiclassical.csv")
        eps = [float(r[0]) for r in rows]
        assert eps and all(-1.06 <= e <= -1.00000005 for e in eps), eps

    @pytest.mark.parametrize("name", ["dos", "observables"])
    def test_range_inside_the_eps_c_gap_is_a_usage_error(self, tmp_path, capsys, name):
        code, out = run(tmp_path, name, "--ratio", "400", "--g", "1.2",
                        "--eps-min", "-1.00000008", "--eps-max", "-1.00000005", "--points", "3")
        assert code == 2
        assert "lies within 1e-7 of eps_c" in capsys.readouterr().err
        assert not out.exists()


class TestSpectrum:
    def test_single_coupling_with_svg(self, tmp_path):
        code, out = run(tmp_path, "spectrum", "--g", "1.0", "--ratio", "40",
                        "--levels", "10", "--emit-svg")
        assert code == 0
        meta, cols, rows = read_csv(out / "spectrum.csv")
        assert meta["g"] == "1.0"
        # a single coupling reads no sweep option, so none is recorded
        assert not {"g_min", "g_max", "g_steps"} & meta.keys()
        assert cols == ["g", "parity", "k", "energy", "eps", "dim"]
        assert len(rows) == 2 * 10
        assert {r[1] for r in rows} == {"minus", "plus"}
        root = ET.parse(out / "spectrum.svg").getroot()
        assert root.tag.endswith("svg")
        assert root.findall(".//{http://www.w3.org/2000/svg}circle")

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("sweep", [{"--g-min": "0.5", "--g-max": "0.1"},
                                       {"--g-steps": "5"}])
    def test_single_coupling_rejects_sweep_options(self, tmp_path, capsys, sweep, source):
        # spectrum --g used to run and ignore them
        argv = ["spectrum", "--ratio", "40", "--g", "1.4", "--levels", "3"]
        if source == "flag":
            argv += [x for kv in sweep.items() for x in kv]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({k[2:]: json.loads(v) for k, v in sweep.items()}))
            argv += ["--config", str(cfg)]
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert (f"spectrum --g takes no sweep option, got {', '.join(sweep)}"
                in capsys.readouterr().err)
        assert not out.exists()

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

    def test_one_coupling_with_svg(self, tmp_path):
        # one g: the plot widens the point x range, and the one-sample eps_GS
        # line is left out rather than drawn as a polyline of one point
        code, out = run(tmp_path, "gapmap", "--ratio", "40", "--g-min", "1.2", "--g-max", "1.2",
                        "--g-steps", "1", "--levels", "5", "--emit-svg")
        assert code == 0
        lines = ET.parse(out / "gapmap.svg").getroot().findall(
            ".//{http://www.w3.org/2000/svg}polyline")
        assert lines and all(len(line.get("points").split()) >= 2 for line in lines)

    def test_figure_built_only_under_emit_svg(self, tmp_path, capsys, monkeypatch):
        # the color ramp runs once per converged doublet, for the figure alone
        def ramp(t):
            raise RuntimeError("figure built")
        monkeypatch.setattr(cli, "_ramp", ramp)
        argv = ["gapmap", "--ratio", "40", "--g-min", "1.2", "--g-max", "1.4",
                "--g-steps", "2", "--levels", "3"]
        code, out = run(tmp_path / "plain", *argv)
        assert code == 0 and (out / "gapmap.csv").exists()
        code, out = run(tmp_path / "svg", *argv, "--emit-svg")
        assert code == 1 and "error: figure built" in capsys.readouterr().err
        assert not out.exists()  # built before any file is written
        # and rendered before any file is written
        def render(figure):
            raise RuntimeError("figure rendered")
        monkeypatch.undo()
        monkeypatch.setattr(cli, "render", render)
        code, out = run(tmp_path / "render", *argv, "--emit-svg")
        assert code == 1 and "error: figure rendered" in capsys.readouterr().err
        assert not out.exists()


def test_ramp_maps_an_array_as_the_per_point_rule_did():
    # the per-point rule the array ramp replaces: clip, int, then Python round
    anchors = [(8, 48, 107), (107, 174, 214), (253, 141, 60), (166, 54, 3)]

    def per_point(t):
        t = min(max(t, 0.0), 1.0) * (len(anchors) - 1)
        i = min(int(t), len(anchors) - 2)
        f = t - i
        rgb = tuple(round(a + (b - a) * f) for a, b in zip(anchors[i], anchors[i + 1]))
        return "#{:02x}{:02x}{:02x}".format(*rgb)

    t = np.append(np.linspace(-0.1, 1.1, 2001), [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    colors = cli._ramp(t)
    assert colors == [per_point(float(x)) for x in t]
    assert colors[-4:] == ["#08306b", "#6baed6", "#fd8d3c", "#a63603"]
    assert cli._ramp(np.empty(0)) == []


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([0.0, 1.0, np.inf, np.nan, -np.nan]), min_size=1, max_size=12))
def test_median_is_numpys(values):
    # the sort-based median writes np.median's bytes for the magnitudes the
    # dos summary passes it, NaN included.  np.sort writes every NaN as the
    # positive quiet one, which np.abs makes of a NaN that arithmetic gives
    x = np.abs(np.array(values))
    with np.errstate(over="ignore"):  # both sum the middle pair, to inf alike
        assert np.float64(cli._median(x)).tobytes() == np.median(x).tobytes()


def test_eps_grid_keeps_samples_moved_onto_one_value_once():
    # two samples within 1e-7 of eps_c both move to eps_c + 1e-7: the grid
    # holds it once, as np.unique would
    args = argparse.Namespace(eps_min=-1.00000005, eps_max=-1.0 + 2e-7, points=3)
    grid = cli._eps_grid(args, 1.2)
    assert np.count_nonzero(grid == semiclassical.EPS_CRITICAL + 1e-7) == 1
    assert grid.tobytes() == np.unique(grid).tobytes() and len(grid) == 12


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

    def test_edge_peak_spacing_is_one_sided(self, tmp_path):
        # the minus peak is the sector's top level, with one neighbour below
        code, out = run(tmp_path, "probabilities", "--g", "1.4", "--ratio", "40",
                        "--eps-max", "-1.1")
        assert code == 0
        peak = json.loads((out / "probabilities_summary.json").read_text())["peaks"]["minus"]
        _, _, rows = read_csv(out / "probabilities.csv")
        eps = [float(r[2]) for r in rows if r[0] == "minus"]
        assert peak["k"] == len(eps) - 1 == 6
        assert peak["local_spacing"] == pytest.approx(eps[6] - eps[5], rel=1e-12)

    def test_single_level_sector_has_no_spacing(self, tmp_path):
        # at g = 0, R = 40 the window below eps = -0.96 holds the minus
        # ground state alone and no plus level
        code, out = run(tmp_path, "probabilities", "--g", "0", "--ratio", "40",
                        "--eps-max", "-1.06")
        assert code == 0
        peaks = json.loads((out / "probabilities_summary.json").read_text())["peaks"]
        assert list(peaks) == ["minus"]
        assert peaks["minus"]["k"] == 0
        assert peaks["minus"]["local_spacing"] is None


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
        # the window is the two --delta options, which the record holds
        assert "window" not in summary

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

    def test_each_side_reports_its_window(self, tmp_path):
        # g = 1.05: the well is 0.0049 deep, so below eps_c the window ends
        # at 0.9 of that depth, short of --delta-max
        code, out = run(tmp_path, "asymptotics", "--g", "1.05", "--points", "8",
                        "--delta-min", "1e-5", "--delta-max", "1e-2")
        assert code == 0
        summary = json.loads((out / "asymptotics.json").read_text())
        depth = 0.5 * (1.05**2 + 1.05**-2) - 1.0
        assert "window" not in summary
        assert summary["above"]["window"] == [1e-5, 1e-2]
        assert summary["below"]["window"] == [1e-5, pytest.approx(0.9 * depth, rel=1e-12)]

    def test_subcritical_rejected(self, tmp_path):
        code, _ = run(tmp_path, "asymptotics", "--g", "0.5")
        assert code == 2

    def test_delta_range_must_be_ordered(self, tmp_path, capsys):
        code, out = run(tmp_path, "asymptotics", "--g", "1.4", "--delta-min", "1e-3",
                        "--delta-max", "1e-4")
        assert code == 2
        assert "need 0 < --delta-min < --delta-max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("g, delta_min", [(1.4, "1e-9"), (1.4, "1e-8"), (1.0 + 1e-13, "1e-9")])
    def test_delta_min_inside_the_guard_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                         g, delta_min):
        # -1 + 1e-8 rounds to within 1e-8 of eps_c, so 1e-8 is refused too;
        # the check comes before any orbit integral
        def no_integrals(*args):
            raise AssertionError("orbit integral evaluated")
        monkeypatch.setattr(semiclassical, "_orbit_integrals", no_integrals)
        code, out = run(tmp_path, "asymptotics", "--g", repr(g), "--delta-min", delta_min)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: --delta-min must keep every sample at least 1e-08 ")
        assert err.endswith(f"; {float(delta_min):g} does not\n")
        assert not out.exists()

    @pytest.mark.parametrize("g, kind", [(1.0, "power_qpt"), (1.0 + 1e-13, "log_esqpt")])
    def test_threshold_is_g_one_exactly(self, tmp_path, g, kind):
        # the rule dos_curve's guard at eps_c follows: every g > 1 is above
        # the threshold, so the guard and the fitted law never disagree
        code, out = run(tmp_path, "asymptotics", "--g", repr(g), "--points", "8")
        assert code == 0
        assert json.loads((out / "asymptotics.json").read_text())["kind"] == kind

    def test_delta_min_onto_eps_c_at_threshold_is_a_usage_error(self, tmp_path, capsys,
                                                                 monkeypatch):
        # -1 + 1e-17 rounds to -1, where no orbit lies above the ground state;
        # refused before any orbit integral, as the guard is for g > 1
        def no_integrals(*args):
            raise AssertionError("orbit integral evaluated")
        monkeypatch.setattr(semiclassical, "_orbit_integrals", no_integrals)
        code, out = run(tmp_path, "asymptotics", "--g", "1.0", "--delta-min", "1e-17")
        assert code == 2
        assert capsys.readouterr().err == ("usage error: --delta-min must keep every sample "
                                           "above eps_c at g = 1; 1e-17 does not\n")
        assert not out.exists()

    def test_delta_min_below_the_guard_at_threshold(self, tmp_path):
        # nu stays finite at eps_c for g = 1, so the guard does not apply
        code, out = run(tmp_path, "asymptotics", "--g", "1.0", "--delta-min", "1e-9",
                        "--points", "8")
        assert code == 0
        summary = json.loads((out / "asymptotics.json").read_text())
        assert summary["kind"] == "power_qpt"


class TestFailedRunWritesNothing:
    def test_usage_error(self, tmp_path):
        code, out = run(tmp_path, "dos", "--g", "1.2", "--window", "0")
        assert code == 2
        assert not out.exists()

    def test_runtime_error_after_the_semiclassical_curve(self, tmp_path):
        # the curve is computed before the quantum sectors fail
        code, out = run(tmp_path, "observables", "--ratio", "8", "--g", "1.2",
                        "--points", "11", "--conv-tol", "1e-300")
        assert code == 1
        assert not out.exists()

    def test_figure_that_fails_to_render(self, tmp_path, capsys):
        # a sweep span of 5e-324 underflows the tick step to zero: the figure
        # fails after the tables are built, and before any is written
        code, out = run(tmp_path, "spectrum", "--ratio", "40", "--g-min", "0",
                        "--g-max", "5e-324", "--g-steps", "2", "--levels", "2", "--emit-svg")
        assert code == 1
        assert "error: math domain error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--g", "1.2", "--levels", "3"],
        ["gapmap", "--g-steps", "3", "--levels", "3"],
        ["dos", "--g", "1.2", "--points", "11"],
        ["observables", "--g", "1.2", "--points", "11"],
        ["probabilities", "--g", "1.2"],
    ])
    def test_tol_below_the_chain_precision(self, tmp_path, capsys, monkeypatch, argv):
        # no truncation certifies below the eigenvalue precision: the first
        # chain is never solved and no second one is built
        built, solved = [], []
        build, solve = quantum.build_parity_chain, quantum.diagonalize
        monkeypatch.setattr(quantum, "build_parity_chain",
                            lambda *a: built.append(a[2]) or build(*a))
        monkeypatch.setattr(quantum, "diagonalize", lambda c: solved.append(c.dim) or solve(c))
        code, out = run(tmp_path, *argv, "--ratio", "40", "--conv-tol", "1e-300")
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(r"tol=1e-300 is at or below the eigenvalue precision \S+ omega0 "
                         rf"of the dim {built[0]} chain", err), err
        assert len(built) == 1 and not solved
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--conv-tol"])
    def test_nan_tolerance(self, tmp_path, capsys, flag):
        code, out = run(tmp_path, "dos", "--g", "1.2", "--ratio", "40", "--points", "11",
                        flag, "nan")
        assert code == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["spectrum", "gapmap"])
    def test_levels_above_the_dim_cap(self, tmp_path, capsys, monkeypatch, name):
        # at R = 1, g = 0.5 the cap is 200 sites; 1500 levels must fail
        # before any chain is built, not solve at dim 1500
        calls = []
        monkeypatch.setattr(quantum, "diagonalize", lambda *a, **k: calls.append(a))
        sweep = ["--g-min", "0.5", "--g-max", "0.5", "--g-steps", "1"]
        code, out = run(tmp_path, name, "--ratio", "1", "--levels", "1500",
                        *(["--g", "0.5"] if name == "spectrum" else sweep))
        assert code == 1
        assert "k_max=1500 levels exceed the dim cap 200" in capsys.readouterr().err
        assert not calls
        assert not out.exists()

    @pytest.mark.parametrize("name, message", [("dsterf", "sterf: 1 eigenvalues failed"),
                                               ("dstebz", "stebz: level 3 failed")])
    def test_lapack_failure(self, tmp_path, capsys, monkeypatch, name, message):
        routine = getattr(quantum, name)
        monkeypatch.setattr(quantum, name, lambda *args: (*routine(*args)[:-1], 1))
        code, out = run(tmp_path, "spectrum", "--ratio", "40", "--g", "1.2", "--levels", "3")
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def raising(exc):
    def action():
        raise exc
    return action


@pytest.mark.skipif(not hasattr(os, "fork") or sys.platform == "darwin",
                    reason="the CLI forks only where os.fork exists, and not on macOS")
class TestForkedSectors:
    """From quantum._FORK_SITES**2 of sterf work per sector on, the commands'
    quantum.converged_sectors call solves the plus sector in a forked child:
    a window of quantum._FORK_SITES sites or more, here R = 1000 at
    eps_max = -0.95, or a sweep of 16 probes of 128 sites or more, here the
    README's 61 couplings.  Each test sees two CPUs, as the rule needs, unless
    it says otherwise."""

    PARAMS = quantum.RabiParams(omega0=1.0, Omega=1000.0, g=1.2)
    ARGS = argparse.Namespace(eps_max=-0.95, conv_tol=1e-8)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @pytest.fixture
    def instead(self, monkeypatch):
        """Make quantum's converged_spectrum call actions[parity]() for those parities."""
        solve = quantum.converged_spectrum

        def patch(actions):
            def window(params, parity, *args, **kwargs):
                if parity in actions:
                    return actions[parity]()
                return solve(params, parity, *args, **kwargs)
            monkeypatch.setattr(quantum, "converged_spectrum", window)
        return patch

    def sectors(self):
        return cli._quantum_sectors(self.PARAMS, self.ARGS, with_observables=True)

    def test_the_window_forks(self, monkeypatch):
        pad = 0.05 + 2.0 / self.PARAMS.ratio
        assert quantum._orbit_dim(self.PARAMS, self.ARGS.eps_max + pad) >= quantum._FORK_SITES

        def fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", fork)
        with pytest.raises(AssertionError, match="forked"):
            self.sectors()

    @pytest.mark.parametrize("exc", [
        ValueError("plus sector refused"),
        quantum.ConvergenceError("sterf: 3 levels failed to converge"),
        cli.UsageError("plus sector usage"),
    ])
    def test_child_failure_raises_as_in_process(self, monkeypatch, instead, exc):
        instead({quantum.Parity.PLUS: raising(exc)})
        with pytest.raises(Exception) as forked:
            self.sectors()
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        with pytest.raises(Exception) as in_process:
            self.sectors()
        assert type(forked.value) is type(in_process.value) is type(exc)
        assert str(forked.value) == str(in_process.value) == str(exc)

    def test_child_truncation_limit_keeps_its_spectrum(self, instead):
        spec = quantum.converged_spectrum(quantum.RabiParams(1.0, 40.0, 1.2),
                                          quantum.Parity.PLUS, eps_max=-0.5)
        instead({quantum.Parity.PLUS: raising(quantum.TruncationLimitError("cap hit", spec))})
        with pytest.raises(quantum.TruncationLimitError, match="^cap hit$") as err:
            self.sectors()
        assert_no_child_left()
        np.testing.assert_array_equal(err.value.spectrum.energies, spec.energies)

    def test_minus_failure_comes_first_and_kills_the_child(self, instead):
        # the child would sleep for a minute; the parent must not wait for it
        def sleep_then_fail():
            time.sleep(60)
            raise ValueError("plus fails")
        instead({quantum.Parity.MINUS: raising(ValueError("minus fails")),
                 quantum.Parity.PLUS: sleep_then_fail})
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="^minus fails$"):
            self.sectors()
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()

    def test_both_fail_raises_the_minus_error(self, instead):
        instead({quantum.Parity.MINUS: raising(ValueError("minus fails")),
                 quantum.Parity.PLUS: raising(ValueError("plus fails"))})
        with pytest.raises(ValueError, match="^minus fails$"):
            self.sectors()
        assert_no_child_left()

    def test_child_without_a_result(self, instead):
        parent = os.getpid()

        def exit_in_child():
            if os.getpid() == parent:  # not forked: never end the test run itself
                raise AssertionError("not forked")
            os._exit(3)
        instead({quantum.Parity.PLUS: exit_in_child})
        with pytest.raises(ChildProcessError, match="exited with status 3 and no result"):
            self.sectors()
        assert_no_child_left()

    def test_command_failure_exits_as_in_process(self, tmp_path, capsys, monkeypatch,
                                                 instead):
        instead({quantum.Parity.PLUS: raising(ValueError("plus sector refused"))})
        argv = ["probabilities", "--ratio", "1000", "--g", "1.2", "--eps-max", "-0.95"]
        code, out = run(tmp_path / "a", *argv)
        err = capsys.readouterr().err
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        assert (code, err) == (run(tmp_path / "b", *argv)[0], capsys.readouterr().err)
        assert code == 1 and err == "error: plus sector refused\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["dos", "--ratio", "40", "--g", "1.0", "--window", "4", "--points", "11"],
        ["observables", "--ratio", "40", "--g", "1.4", "--points", "11"],
        ["probabilities", "--ratio", "40", "--g", "1.2"],
        ["gapmap", "--g-steps", "3"],
        ["spectrum", "--g", "1.2"],
        *RUNS,
    ])
    def test_small_runs_never_fork(self, tmp_path, monkeypatch, argv):
        # R = 40 windows, a short sweep, a single coupling, and the runs the
        # benchmark's tracer is tested on, which sees only this process
        def fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", fork)
        code, _ = run(tmp_path, *argv)
        assert code == 0

    SWEEP = ["--ratio", "40", "--g-min", "0", "--g-max", "3", "--g-steps", "61",
             "--levels", "20"]
    GS = np.linspace(0.0, 3.0, 61)

    @pytest.mark.parametrize("name", ["spectrum", "gapmap"])
    def test_readme_sweeps_fork(self, tmp_path, capsys, monkeypatch, name):
        assert 61 * quantum._start_dim(quantum.RabiParams(1.0, 40.0, 0.0), None, 20) ** 2 \
            >= quantum._FORK_SITES**2

        def fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", fork)
        code, out = run(tmp_path, name, *self.SWEEP)
        assert code == 1 and capsys.readouterr().err == "error: forked\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["spectrum", "gapmap"])
    def test_one_cpu_never_forks(self, tmp_path, monkeypatch, name):
        # a forked child only waits for the one CPU the process may run on
        def fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, out = run(tmp_path, name, *self.SWEEP)
        assert code == 0 and out.exists()

    @pytest.mark.parametrize("name", ["spectrum", "gapmap"])
    def test_forked_sweep_writes_the_same_files(self, tmp_path, monkeypatch, name):
        code, forked = run(tmp_path / "forked", name, *self.SWEEP, "--emit-svg")
        assert code == 0
        assert_no_child_left()
        monkeypatch.delattr(os, "fork")
        code, in_process = run(tmp_path / "in_process", name, *self.SWEEP, "--emit-svg")
        assert code == 0
        files = sorted(path.name for path in forked.iterdir())
        assert files == sorted(path.name for path in in_process.iterdir())
        assert len(files) == (2 if name == "spectrum" else 3)
        for file in files:
            assert (forked / file).read_bytes() == (in_process / file).read_bytes(), file

    @pytest.mark.parametrize("name", ["spectrum", "gapmap"])
    @pytest.mark.parametrize("failures, first", [
        ({(2, quantum.Parity.PLUS), (5, quantum.Parity.MINUS)}, "minus at g=0.25"),
        ({(2, quantum.Parity.MINUS), (5, quantum.Parity.PLUS)}, "minus at g=0.1"),
    ])
    def test_sweep_failure_exits_as_in_process(self, tmp_path, capsys, monkeypatch,
                                               name, failures, first):
        # the in-process order: the minus half's first failure, else the plus half's
        solve = quantum.converged_spectrum
        fail_at = {(float(self.GS[i]), parity) for i, parity in failures}

        def levels(params, parity, *args, **kwargs):
            if (params.g, parity) in fail_at:
                raise ValueError(f"{parity.label} at g={params.g:g}")
            return solve(params, parity, *args, **kwargs)
        monkeypatch.setattr(quantum, "converged_spectrum", levels)
        code, out = run(tmp_path / "a", name, *self.SWEEP)
        err = capsys.readouterr().err
        assert_no_child_left()
        assert (code, err) == (1, f"error: {first}\n")
        assert not out.exists()
        monkeypatch.delattr(os, "fork")
        assert (code, err) == (run(tmp_path / "b", name, *self.SWEEP)[0],
                               capsys.readouterr().err)

    @pytest.fixture
    def minus_fails_at_5(self, monkeypatch):
        """Fail the sweep's minus solve at coupling 5, g = 0.25, and record every solve."""
        solve, calls = quantum.converged_spectrum, []

        def levels(params, parity, *args, **kwargs):
            calls.append((params.g, parity))
            if (params.g, parity) == (float(self.GS[5]), quantum.Parity.MINUS):
                raise ValueError("minus at g=0.25")
            return solve(params, parity, *args, **kwargs)
        monkeypatch.setattr(quantum, "converged_spectrum", levels)
        return calls

    def test_minus_sweep_failure_kills_the_child(self, tmp_path, capsys, monkeypatch,
                                                 minus_fails_at_5):
        # the child would sleep for a minute in its first plus solve; the
        # parent must not wait for it
        levels = quantum.converged_spectrum

        def sleepy(params, parity, *args, **kwargs):
            if (params.g, parity) == (0.0, quantum.Parity.PLUS):
                time.sleep(60)
            return levels(params, parity, *args, **kwargs)
        monkeypatch.setattr(quantum, "converged_spectrum", sleepy)
        t0 = time.perf_counter()
        code, out = run(tmp_path, "spectrum", *self.SWEEP)
        assert time.perf_counter() - t0 < 30
        assert_no_child_left()
        assert (code, capsys.readouterr().err) == (1, "error: minus at g=0.25\n")
        assert not out.exists()

    def test_in_process_no_plus_solve_follows_a_minus_failure(self, tmp_path, capsys,
                                                              monkeypatch, minus_fails_at_5):
        monkeypatch.delattr(os, "fork")
        code, out = run(tmp_path, "spectrum", *self.SWEEP)
        assert (code, capsys.readouterr().err) == (1, "error: minus at g=0.25\n")
        assert minus_fails_at_5 == [(float(g), quantum.Parity.MINUS) for g in self.GS[:6]]


COMMAND_NAMES = ["spectrum", "gapmap", "dos", "observables", "probabilities", "asymptotics"]
NEEDS_G = {"dos", "observables", "probabilities", "asymptotics"}
# (command, flag) -> the smallest accepted value
BOUNDS = {
    **{(name, "--ratio"): 1 for name in COMMAND_NAMES if name != "asymptotics"},
    ("spectrum", "--g"): 0, ("dos", "--g"): 0, ("observables", "--g"): 0,
    ("probabilities", "--g"): 0,
    ("spectrum", "--g-steps"): 1, ("spectrum", "--levels"): 1,
    ("gapmap", "--g-steps"): 1, ("gapmap", "--levels"): 1,
    ("dos", "--window"): 1, ("dos", "--points"): 1,
    ("observables", "--points"): 1,
    ("asymptotics", "--g"): 1, ("asymptotics", "--points"): 5,
}
# (command, flag) -> the strict lower bound: the bound itself is rejected
STRICT_BOUNDS = {
    **{(name, flag): 0 for name in COMMAND_NAMES for flag in ("--omega0", "--conv-tol")
       if name != "asymptotics" or flag == "--omega0"},
}


def just_below(minimum, typ):
    return minimum - 1 if typ is int else math.nextafter(float(minimum), -math.inf)


class TestOptionTable:
    def test_registry_declares_the_bounds(self):
        assert list(COMMANDS) == COMMAND_NAMES
        declared = {(name, o.flag): o.minimum for name, cmd in COMMANDS.items()
                    for o in cmd.opts if o.minimum is not None}
        assert declared == BOUNDS
        strict = {(name, o.flag): o.above for name, cmd in COMMANDS.items()
                  for o in cmd.opts if o.above is not None}
        assert strict == STRICT_BOUNDS
        required = {name for name, cmd in COMMANDS.items()
                    for o in cmd.opts if o.required}
        assert required == NEEDS_G

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name, flag", list(BOUNDS))
    def test_value_just_below_bound_rejected(self, tmp_path, capsys, name, flag, source):
        opt = next(o for o in COMMANDS[name].opts if o.flag == flag)
        value = just_below(BOUNDS[(name, flag)], opt.typ)
        argv = [name, "--g", "1.4"] if name in NEEDS_G and flag != "--g" else [name]
        if source == "flag":
            argv += [f"{flag}={value!r}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            argv += ["--config", str(cfg)]
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert f"{flag} must be >= {BOUNDS[(name, flag)]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("offset", [0, -1])
    @pytest.mark.parametrize("name, flag", list(STRICT_BOUNDS))
    def test_value_at_or_below_strict_bound_rejected(self, tmp_path, capsys, name, flag,
                                                      offset, source):
        # a zero omega0 or tolerance used to reach the library, which
        # rejected it as a failure of the computation (exit 1)
        value = STRICT_BOUNDS[(name, flag)] + offset
        argv = [name, "--g", "1.4"] if name in NEEDS_G else [name]
        if source == "flag":
            argv += [f"{flag}={value!r}"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: value}))
            argv += ["--config", str(cfg)]
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert f"{flag} must be > {STRICT_BOUNDS[(name, flag)]}" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_value_in_exponent_notation(self, tmp_path):
        # argparse's negative-number pattern has no exponent: left to it, a
        # lone -5e-1 is an unknown option and --eps-max has no value
        written = []
        for sub, value in (("split", ["--eps-max", "-5e-1"]), ("joined", ["--eps-max=-5e-1"])):
            code, out = run(tmp_path / sub, "dos", "--ratio", "40", "--g", "1.2",
                            "--points", "11", *value)
            assert code == 0
            written.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert written[0] == written[1]
        assert read_csv(tmp_path / "split" / "out" / "dos_quantum.csv")[0]["eps_max"] == "-0.5"

    @pytest.mark.parametrize("argv, message", [
        (["--g", "1.2", "--conv-tol", "-1e-8"], "--conv-tol must be > 0"),
        (["--g", "-1e0"], "--g must be >= 0"),
    ])
    def test_negative_exponent_value_meets_its_bound(self, tmp_path, capsys, argv, message):
        code, out = run(tmp_path, "dos", "--ratio", "40", *argv)
        assert code == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_eps_max_joined_for_the_invoked_command_only(self, name):
        argv = [name, "--eps-max", "-5e-1"]
        has_eps_max = any(opt.flag == "--eps-max" for opt in COMMANDS[name].opts)
        joined = cli._join_negative_values(argv)
        assert joined == ([name, "--eps-max=-5e-1"] if has_eps_max else argv)
        if has_eps_max:
            assert cli.build_parser(name).parse_args(joined).eps_max == -0.5

    def test_only_numbers_after_valued_flags_are_joined(self):
        argv = ["dos", "--eps-max", "-5e-1", "--emit-svg", "-1", "--g", "-x", "--out", "-2"]
        assert cli._join_negative_values(argv) == [
            "dos", "--eps-max=-5e-1", "--emit-svg", "-1", "--g", "-x", "--out=-2"]

    @pytest.mark.parametrize("name", sorted(NEEDS_G))
    def test_missing_g_rejected(self, tmp_path, capsys, name):
        code, out = run(tmp_path, name)
        assert code == 2
        assert f"{name} requires --g" in capsys.readouterr().err
        assert not out.exists()

    def test_g_from_config_satisfies_required(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"g": 1.4}))
        code, out = run(tmp_path, "probabilities", "--ratio", "40", "--eps-max", "-1.1",
                        "--config", str(cfg))
        assert code == 0
        meta, _, rows = read_csv(out / "probabilities.csv")
        assert meta["g"] == "1.4" and rows


class TestNonFiniteRanges:
    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--g-min", "nan"], "--g-min must be finite"),
        (["gapmap", "--g-max", "inf"], "--g-max must be finite"),
        (["gapmap", "--g-min", "-1", "--g-max", "0"], "need 0 <= --g-min <= --g-max"),
        (["asymptotics", "--g", "1.4", "--delta-max", "inf"], "--delta-max must be finite"),
        (["dos", "--g", "1.2", "--eps-max", "inf"], "--eps-max must be finite"),
    ], ids=["spectrum-g-min-nan", "gapmap-g-max-inf", "gapmap-g-min-negative",
            "asymptotics-delta-max-inf", "dos-eps-max-inf"])
    def test_usage_error_before_any_numerics(self, tmp_path, capsys, argv, message):
        # these used to pass the range checks and fail later, some after a
        # numpy RuntimeWarning, with an error that named no option
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("eps_max", ["nan", "inf"])
    def test_probabilities_eps_max(self, tmp_path, capsys, eps_max):
        code, out = run(tmp_path, "probabilities", "--g", "1.2", "--eps-max", eps_max)
        assert code == 2
        assert "--eps-max must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name, flag", [(name, o.flag) for name, cmd in COMMANDS.items()
                                            for o in cmd.opts if o.typ is float])
    def test_every_float_option_must_be_finite(self, tmp_path, capsys, name, flag, source):
        argv = [name, "--g", "1.4"] if name in NEEDS_G and flag != "--g" else [name]
        if source == "flag":
            argv += [f"{flag}=inf"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(f'{{"{flag[2:]}": 1e999}}')  # JSON has no inf; this overflows to it
            argv += ["--config", str(cfg)]
        code, out = run(tmp_path, *argv)
        assert code == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()


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

    def test_missing_file_rejected(self, tmp_path, capsys):
        code, out = run(tmp_path, "dos", "--g", "1.2", "--config", str(tmp_path / "none.json"))
        assert code == 2
        assert "usage error: cannot read config file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["command", "config"])
    def test_reserved_key_rejected(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "dos"}))
        code, out = run(tmp_path, "dos", "--g", "1.2", "--config", str(cfg))
        assert code == 2
        assert f"config key {key!r} is not allowed" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        code, _ = run(tmp_path, "dos", "--g", "1.2", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize("raw", [
        '{"levels": 3.9}',
        '{"levels": 3.0}',
        '{"levels": "3"}',
        '{"g-steps": true}',
        '{"ratio": true}',
        '{"ratio": "40"}',
        '{"ratio": 1' + '0' * 400 + '}',
        '{"out": 5}',
    ], ids=["int-from-fraction", "int-from-float", "int-from-string", "int-from-bool",
            "float-from-bool", "float-from-string", "float-overflow", "path-from-number"])
    def test_mistyped_value_rejected(self, tmp_path, raw):
        # a config value must have the JSON type of its option, as a flag
        # must parse as one: --levels 3.9 is a usage error, so is 3.9 here
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw)
        flags = {"--g-min": "0.5", "--g-max": "0.5", "--g-steps": "1", "--levels": "2",
                 "--ratio": "8"}
        for key in json.loads(raw):
            flags.pop(f"--{key}", None)
        code, out = run(tmp_path, "gapmap", *[x for kv in flags.items() for x in kv],
                        "--config", str(cfg))
        assert code == 2
        assert not out.exists()


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(3), None, [1.0]])
def test_format_value_takes_bool_float_int_and_str_only(value):
    # the CLI converts numpy scalars where it makes each cell
    with pytest.raises(TypeError):
        format_value(value)


def test_write_csv_rejects_a_column_of_the_wrong_length(tmp_path):
    with pytest.raises(ValueError, match=r"zip\(\) argument 2 is shorter than argument 1"):
        write_csv(tmp_path / "table.csv", {}, {"a": np.array([1.0, 2.0]), "b": [3.0]})
    assert not (tmp_path / "table.csv").exists()


@pytest.mark.parametrize("column", [np.array([1.0, 2j]), None, [None, None]],
                         ids=["complex", "none", "none-cells"])
def test_write_csv_rejects_a_column_of_another_type(tmp_path, column):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "table.csv", {}, {"a": [1.0, 2.0], "b": column})
    assert not (tmp_path / "table.csv").exists()


FLOATS = st.floats() | st.sampled_from(
    [-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308 / 3, 1e300])
# each kind of column a command hands over, drawn n cells long
COLUMN_KINDS = {
    "float list": lambda n: st.lists(FLOATS, min_size=n, max_size=n),
    "float64 array": lambda n: st.lists(FLOATS, min_size=n, max_size=n).map(np.array),
    "int64 array": lambda n: st.lists(st.integers(-2**63, 2**63 - 1), min_size=n,
                                      max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
    "bool array": lambda n: st.lists(st.booleans(), min_size=n,
                                     max_size=n).map(lambda v: np.array(v, dtype=bool)),
    "int list": lambda n: st.lists(st.integers(), min_size=n, max_size=n),
    "str list": lambda n: st.lists(st.text(st.characters(blacklist_categories=("Cs",))),
                                   min_size=n, max_size=n),
}


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(0, 12),
       kinds=st.lists(st.sampled_from(sorted(COLUMN_KINDS)), min_size=1, max_size=5),
       meta=st.dictionaries(st.text("abc", min_size=1), FLOATS | st.integers() | st.booleans()))
def test_write_csv_writes_each_cell_as_format_value_does(tmp_path_factory, data, n, kinds, meta):
    columns = {f"c{i}": data.draw(COLUMN_KINDS[kind](n)) for i, kind in enumerate(kinds)}
    # an array's cells are its tolist(): format_value takes no numpy int or bool
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    lines = [f"# {key}={format_value(val)}" for key, val in meta.items()]
    lines += [",".join(columns)] + [",".join(map(format_value, row)) for row in zip(*cells)]
    path = write_csv(tmp_path_factory.getbasetemp() / "table.csv", meta, columns)
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


# one small run per command; dos and observables also set --eps-min
RECORD_RUNS = {
    "spectrum": ["spectrum", "--ratio", "20", "--g", "0.5", "--levels", "3"],
    "gapmap": ["gapmap", "--ratio", "20", "--g-min", "0", "--g-max", "1", "--g-steps", "2",
               "--levels", "3", "--conv-tol", "1e-9"],
    "dos": ["dos", "--ratio", "40", "--g", "1.2", "--window", "4", "--points", "11",
            "--eps-min", "-1.05", "--eps-max", "-0.5"],
    "observables": ["observables", "--ratio", "40", "--g", "1.2", "--points", "11",
                    "--eps-min", "-1.05", "--eps-max", "-0.5"],
    "probabilities": ["probabilities", "--omega0", "2", "--ratio", "40", "--g", "1.2",
                      "--eps-max", "-0.5"],
    "asymptotics": ["asymptotics", "--g", "1.4", "--points", "8", "--delta-min", "1e-5"],
}
# the (command, option) pairs whose code never reads the option
UNREAD = [("spectrum", "--quad-tol"), ("gapmap", "--quad-tol"),
          ("probabilities", "--quad-tol"), ("asymptotics", "--conv-tol"),
          ("asymptotics", "--ratio")]


def expected_record(argv):
    """tool, version, command and each declared option's resolved value, as text.

    spectrum with --g leaves the sweep options out: a single coupling reads none.
    """
    name = argv[0]
    record = {"tool": "rabi-esqpt", "version": cli.__version__, "command": name}
    for opt in COMMANDS[name].opts:
        if name == "spectrum" and "--g" in argv and opt in G_SWEEP:
            continue
        default = cli.SWEEP_DEFAULTS.get(opt.dest, opt.default)
        value = opt.typ(argv[argv.index(opt.flag) + 1]) if opt.flag in argv else default
        if opt not in FILES and value is not None:
            record[opt.dest] = value
    return record


class TestRecord:
    def test_every_run_is_covered(self):
        assert list(RECORD_RUNS) == COMMAND_NAMES

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_headers_and_summary_hold_every_option_read(self, tmp_path, monkeypatch, name):
        results = []

        def spy(args, **fields):
            results.append(set(fields))
            return record(args, **fields)

        record = cli._record
        monkeypatch.setattr(cli, "_record", spy)
        code, out = run(tmp_path, *RECORD_RUNS[name])
        assert code == 0
        expected = expected_record(RECORD_RUNS[name])
        # no result key shadows an option key
        assert results and not any(keys & expected.keys() for keys in results)
        for path in out.glob("*.csv"):
            meta = read_csv(path)[0]
            assert list(meta.items())[:len(expected)] == [
                (key, format_value(v)) for key, v in expected.items()], path.name
        for path in out.glob("*.json"):
            summary = json.loads(path.read_text())
            assert {key: summary[key] for key in expected} == expected

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name, flag", UNREAD)
    def test_options_a_command_does_not_read_are_unknown(self, tmp_path, capsys, name, flag,
                                                         source):
        assert flag not in {o.flag for o in COMMANDS[name].opts}
        if source == "flag":
            extra = [flag, "40"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({flag[2:]: 40.0}))
            extra = ["--config", str(cfg)]
        code, out = run(tmp_path, *RECORD_RUNS[name], *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert (f"unrecognized arguments: {flag}" if source == "flag"
                else f"unknown config key {flag[2:]!r}") in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["dos", "observables", "asymptotics"])
    def test_quad_tol_is_gone(self, tmp_path, capsys, name, source):
        # the orbit integrals are closed forms: no command takes a tolerance
        if source == "flag":
            extra = ["--quad-tol", "1e-9"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"quad_tol": 1e-9}))
            extra = ["--config", str(cfg)]
        code, out = run(tmp_path, *RECORD_RUNS[name], *extra)
        assert code == 2
        assert ("unrecognized arguments: --quad-tol" if source == "flag"
                else "unknown config key 'quad_tol'") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", COMMAND_NAMES)
    def test_help_lists_exactly_the_registry_options(self, capsys, name):
        assert main([name, "--help"]) == 0
        flags = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
        assert flags == {"--help", *(o.flag for o in COMMANDS[name].opts)}

    @pytest.mark.parametrize("name, change", [
        ("dos", ["--eps-max", "-0.6"]), ("dos", ["--eps-min", "-1.04"]),
        ("dos", ["--points", "12"]),
        ("observables", ["--eps-max", "-0.6"]), ("observables", ["--eps-min", "-1.04"]),
        ("observables", ["--points", "12"]),
    ])
    def test_semiclassical_header_names_the_grid(self, tmp_path, name, change):
        # runs that write different rows must not share a header
        base = RECORD_RUNS[name]
        flag, value = change
        argv = [*base[:base.index(flag) + 1], value, *base[base.index(flag) + 2:]]
        headers = []
        for sub, args in (("a", base), ("b", argv)):
            code, out = run(tmp_path / sub, *args)
            assert code == 0
            headers.append(read_csv(out / f"{name}_semiclassical.csv")[0])
        assert headers[0] != headers[1]
        assert headers[1][flag[2:].replace("-", "_")] == value
