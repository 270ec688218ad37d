"""CLI contract: outputs, determinism, exit codes, config validation."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from spinloop import config as cfgmod
from spinloop import gridsim, packets, spins
from spinloop.cli import csv_text, main
from spinloop.errors import ValidationError


def read(path):
    return path.read_bytes()


class TestConfig:
    def test_preset_loads(self):
        cfg = cfgmod.load_config()
        assert cfg["tau"] == 1e-3
        assert cfg["figure2"]["samples"] == 201

    def test_unknown_preset(self):
        with pytest.raises(ValidationError, match="unknown preset"):
            cfgmod.load_config(preset="bogus")

    def test_unknown_key_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"figure2": {"zz": 1.0}}))
        with pytest.raises(ValidationError, match="unknown keys"):
            cfgmod.load_config(bad)

    def test_bad_type_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"figure2": {"samples": "many"}}))
        with pytest.raises(ValidationError, match="expected int"):
            cfgmod.load_config(bad)

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValidationError, match="not valid JSON"):
            cfgmod.load_config(bad)

    def test_override_merges(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"samples": 11}}))
        cfg = cfgmod.load_config(over)
        assert cfg["figure2"]["samples"] == 11
        assert cfg["figure2"]["z"] == 0.4  # untouched default

    def test_zero_sweep_points_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epr": {"sweep_points": 0}}))
        with pytest.raises(ValidationError, match="sweep_points"):
            cfgmod.load_config(bad)

    @pytest.mark.parametrize("section, key", [("figure2", "samples"), ("epr", "sweep_points")])
    def test_sample_counts_capped(self, tmp_path, section, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: {key: cfgmod.MAX_SAMPLES}}))
        assert cfgmod.load_config(path)[section][key] == 100_000
        path.write_text(json.dumps({section: {key: cfgmod.MAX_SAMPLES + 1}}))
        with pytest.raises(ValidationError, match=rf"^config\.{section}\.{key}: must be <= 100000$"):
            cfgmod.load_config(path)

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"theta": 0.0}, "oracle.theta"),
            ({"theta": -0.1}, "oracle.theta"),
            ({"duration": 0.0}, "oracle.duration"),
            ({"duration": -1.0}, "oracle.duration"),
            ({"remainder": {"theta": 0.0}}, "oracle.remainder.theta"),
            ({"remainder": {"theta": -0.3}}, "oracle.remainder.theta"),
        ],
    )
    def test_nonpositive_oracle_step_inputs_rejected(self, tmp_path, override, key):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"oracle": override}))
        with pytest.raises(ValidationError, match=rf"^config\.{key}: must be positive$"):
            cfgmod.load_config(bad)

    def test_resolved_beta_sign_matches_alpha(self):
        cfg = cfgmod.load_config()
        beta = cfgmod.resolved_beta(cfg)
        assert beta < 0  # alpha < 0, sign-matched
        assert cfgmod.build_params(cfg).coupling_sign == 1


class TestFigure2Command:
    def test_outputs_and_summary(self, tmp_path):
        assert main(["figure2", "--out", str(tmp_path)]) == 0
        csv = (tmp_path / "figure2.csv").read_text()
        assert csv.splitlines()[0] == "y,a_z"
        assert len(csv.splitlines()) == 202
        summary = json.loads((tmp_path / "figure2_summary.json").read_text())
        assert summary["average_negative_region"] == pytest.approx(-2.22, rel=0.10)
        assert summary["relative_difference"] < 0.10
        assert summary["a_z_at_y0"] == pytest.approx(-4.6627, rel=1e-3)
        crossings = summary["zero_crossings"]
        assert crossings[0] == pytest.approx(-0.3266, abs=5e-3)

    def test_peak_is_the_profile_sample_at_y0(self, tmp_path, preset_cfg):
        """a_z_at_y0 is the same kernel at the single centre (x, 0, z): at the
        preset it equals the profile's y = 0 sample bit for bit."""
        assert main(["figure2", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "figure2_summary.json").read_text())
        f2 = preset_cfg["figure2"]
        prof = packets.acceleration_profile(
            spins.named_spin_input(f2["spin"]), z=f2["z"], x=f2["x"],
            y_range=(f2["y_min"], f2["y_max"]), n_samples=f2["samples"], width=f2["width"],
            coupling_sign=cfgmod.build_params(preset_cfg).coupling_sign,
        )
        assert prof.y[100] == 0.0
        assert summary["a_z_at_y0"] == prof.a_z[100]

    def test_antiparallel_mirror(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"spin": "antiparallel", "samples": 21}}))
        assert main(["figure2", "--config", str(over), "--out", str(tmp_path / "a")]) == 0
        over2 = tmp_path / "cfg2.json"
        over2.write_text(json.dumps({"figure2": {"samples": 21}}))
        assert main(["figure2", "--config", str(over2), "--out", str(tmp_path / "b")]) == 0
        anti = np.loadtxt(tmp_path / "a" / "figure2.csv", delimiter=",", skiprows=1)
        par = np.loadtxt(tmp_path / "b" / "figure2.csv", delimiter=",", skiprows=1)
        assert np.allclose(anti[:, 1], -par[:, 1], rtol=1e-10)

    def test_validation_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"figure2": {"spin": "sideways"}}))
        assert main(["figure2", "--config", str(bad), "--out", str(tmp_path)]) == 1

    def test_width_and_average_describe_one_run(self, tmp_path):
        # preset: the averaged run is the central lobe between the two crossings
        assert main(["figure2", "--out", str(tmp_path / "p")]) == 0
        summary = json.loads((tmp_path / "p" / "figure2_summary.json").read_text())
        crossings = summary["zero_crossings"]
        assert summary["negative_region_width"] == crossings[1] - crossings[0]
        # up-down: the averaged negative run is a side lobe cut off at y_min,
        # so no width; the central lobe between the crossings is positive
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"spin": "up-down"}}))
        assert main(["figure2", "--config", str(over), "--out", str(tmp_path / "a")]) == 0
        anti = json.loads((tmp_path / "a" / "figure2_summary.json").read_text())
        assert anti["average_negative_region"] == pytest.approx(-0.1903, abs=5e-4)
        assert anti["zero_crossings"] == pytest.approx([-c for c in crossings[::-1]])
        assert anti["negative_region_width"] is None


class TestDeflectCommand:
    def test_preset_estimate(self, tmp_path):
        assert main(["deflect", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "deflection.json").read_text())
        est = report["estimate"]
        assert 1e-16 <= est["deflection_m"] <= 1e-14
        assert 1e-9 <= est["interaction_time_s"] <= 1e-7
        assert 3e-6 <= est["length_unit_m"] <= 3e-5
        assert 2e5 <= report["beta_over_alpha"] <= 2e6

    def test_zero_current_loop(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"params": {"loop_current": 0.0}}))
        assert main(["deflect", "--config", str(over), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "deflection.json").read_text())
        assert report["degenerate"] is True
        assert report["deflection_m"] == 0.0

    def test_speed_sweep_monotone(self, tmp_path):
        deflections = []
        for i, speed in enumerate((5e2, 1e3, 2e3)):
            over = tmp_path / f"cfg{i}.json"
            over.write_text(
                json.dumps({"deflect": {"speed": speed},
                            "figure2": {"samples": 41}})
            )
            out = tmp_path / f"out{i}"
            assert main(["deflect", "--config", str(over), "--out", str(out)]) == 0
            report = json.loads((out / "deflection.json").read_text())
            deflections.append(report["estimate"]["deflection_m"])
        assert deflections[0] > deflections[1] > deflections[2]


    def test_antiparallel_mirrors_preset(self, tmp_path):
        # the deflecting lobe is the central one, whatever its sign
        assert main(["deflect", "--out", str(tmp_path / "p")]) == 0
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"spin": "up-down"}}))
        assert main(["deflect", "--config", str(over), "--out", str(tmp_path / "a")]) == 0
        par = json.loads((tmp_path / "p" / "deflection.json").read_text())["estimate"]
        anti = json.loads((tmp_path / "a" / "deflection.json").read_text())["estimate"]
        assert anti["deflection_m"] == pytest.approx(2.9e-16, abs=0.05e-16)
        assert anti["deflection_m"] == pytest.approx(par["deflection_m"], rel=1e-12)
        assert anti["avg_acceleration_natural"] == pytest.approx(
            -par["avg_acceleration_natural"], rel=1e-12
        )
        assert anti["region_width_natural"] == pytest.approx(
            par["region_width_natural"], rel=1e-12
        )

    def test_unbracketed_lobe_exit_code(self, tmp_path, capsys):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"y_min": -0.1, "y_max": 0.1, "samples": 21}}))
        assert main(["deflect", "--config", str(over), "--out", str(tmp_path)]) == 1
        assert "not bracketed" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, closest", [
        # a packet just outside the near-field radius read 2.272e+138 m
        ({"figure2": {"z": 2e-40, "width": 2e-41}}, "1.695e-45"),
        ({"figure2": {"z": 1e-30, "width": 1e-31}}, "8.477e-36"),
        # slow enough that the preset's 2.9e-16 m grows past 0.4 l = 3.39e-6 m
        ({"deflect": {"speed": 9e-3}}, "3.391e-06"),
    ])
    def test_deflection_reaching_the_dipole_refused(self, tmp_path, capsys, overrides, closest):
        """Past the sweep line's distance to the dipole the constant-acceleration
        model cannot hold: one line, exit 1, no output."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps(overrides))
        out = tmp_path / "out"
        assert main(["deflect", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: deflection ") and err.count("\n") == 1
        assert f"the sweep line's distance to the dipole, {closest} m" in err
        assert not out.exists()

    def test_deflection_inside_the_dipole_distance_runs(self, tmp_path):
        """At 1e-2 m/s the deflection, 2.894e-6 m, stays under 0.4 l = 3.391e-6 m."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"deflect": {"speed": 1e-2}}))
        assert main(["deflect", "--config", str(over), "--out", str(tmp_path)]) == 0
        est = json.loads((tmp_path / "deflection.json").read_text())["estimate"]
        assert 2.8e-6 < est["deflection_m"] < 0.4 * est["length_unit_m"]


class TestZeroForce:
    """The singlet force vanishes: its profile is rounding noise, not signal."""

    @staticmethod
    def singlet_config(tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"spin": "singlet", "samples": 101}}))
        return str(over)

    def test_figure2_reports_no_region(self, tmp_path):
        assert main(["figure2", "--config", self.singlet_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 0
        summary = json.loads((tmp_path / "o" / "figure2_summary.json").read_text())
        assert summary["zero_crossings"] == []
        assert summary["average_negative_region"] is None
        assert summary["negative_region_width"] is None
        # the CSV keeps the raw values
        cfg = cfgmod.load_config(tmp_path / "cfg.json")["figure2"]
        prof = packets.acceleration_profile(
            spins.singlet(), z=cfg["z"], x=cfg["x"], y_range=(cfg["y_min"], cfg["y_max"]),
            n_samples=cfg["samples"], width=cfg["width"],
        )
        assert (tmp_path / "o" / "figure2.csv").read_text() == csv_text("y,a_z", prof.y, prof.a_z)

    def test_deflect_reports_zero(self, tmp_path):
        assert main(["deflect", "--config", self.singlet_config(tmp_path),
                     "--out", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "deflection.json").read_text())
        assert report["degenerate"] is True
        assert report["deflection_m"] == 0.0


def run_just_inside(tmp_path, figure2):
    """figure2 and deflect at a packet just inside a field radius: figure2
    exits 0 with finite values and no RuntimeWarning, deflect exits 0 or 1
    with one line."""
    over = tmp_path / "cfg.json"
    over.write_text(json.dumps({"figure2": figure2}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["figure2", "--config", str(over), "--out", str(tmp_path / "f")]) == 0
        assert main(["deflect", "--config", str(over), "--out", str(tmp_path / "d")]) in (0, 1)
    profile = np.loadtxt(tmp_path / "f" / "figure2.csv", delimiter=",", skiprows=1)
    summary = json.loads((tmp_path / "f" / "figure2_summary.json").read_text())
    assert np.all(np.isfinite(profile)) and np.all(profile[:, 1] != 0.0)
    assert np.isfinite(summary["a_z_at_y0"]) and summary["a_z_at_y0"] != 0.0


class TestFarField:
    """The moment quadrature divides by r**7, which overflows beyond about
    1.1e44 l: a packet that far out is refused, not integrated to a wrong
    sign (1e60) or to a failed quadrature (1e200).  The profile rules keep
    working to ~1e61 l (r^-5 underflows there), so the radius holds for
    them with room."""

    @pytest.mark.parametrize("command", ["figure2", "deflect"])
    @pytest.mark.parametrize("z", [1e60, 1e200])
    def test_refused_with_one_line(self, tmp_path, capsys, command, z):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"z": z}}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: packet lies beyond the far-field radius")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_inside_the_bound_runs(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"z": 1e40}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["figure2", "--config", str(over), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "figure2_summary.json").read_text())
        assert summary["average_negative_region"] == pytest.approx(-1.19366e-161, rel=1e-5)

    @pytest.mark.parametrize("figure2", [
        {"z": 9.9e39},  # fixed rule: farthest point 9.9e39 l
        {"z": 9.2e39, "width": 1.2e39},  # corner sums: farthest point ~9.84e39 l
    ])
    def test_just_inside_runs_finite(self, tmp_path, figure2):
        run_just_inside(tmp_path, figure2)


class TestNearField:
    """The moment quadrature divides by r**7, which underflows inside about
    1.1e-44 l: a packet that close is refused, not integrated on subnormal
    r**7 or reported as a failed quadrature after numpy's overflow
    warnings.  The profile rules keep working to ~7e-62 l (r^-5 overflows
    there), so the radius holds for them with room."""

    @pytest.mark.parametrize("command", ["figure2", "deflect"])
    @pytest.mark.parametrize("z", [1e-50, 8e-45, 1e-200])  # z^2 underflows at 1e-200
    def test_refused_with_one_line(self, tmp_path, capsys, command, z):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"z": z, "width": z / 10}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: packet lies inside the near-field radius")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_inside_the_bound_runs(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"figure2": {"z": 2e-40, "width": 2e-41}}))
        assert main(["figure2", "--config", str(over), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "figure2_summary.json").read_text())
        assert -np.inf < summary["a_z_at_y0"] < 0.0

    @pytest.mark.parametrize("figure2", [
        {"z": 1.1e-40, "width": 1e-41},  # fixed rule: nearest point 1.05e-40 l
        {"z": 1.6e-40, "width": 1e-40},  # corner sums at y = 0: nearest point 1.1e-40 l
    ])
    def test_just_inside_runs_finite(self, tmp_path, figure2):
        run_just_inside(tmp_path, figure2)


class TestHugeTau:
    """tau**2 overflows past ~1.3e154 s: refused with one line, not a traceback."""

    @pytest.mark.parametrize("command", ["deflect", "oracle", "selftest"])
    def test_refused_with_one_line(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"tau": 1e300}))
        out = tmp_path / "out"
        assert main([command, "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: tau 1e+300 s puts the length unit beyond the float range\n"
        assert not out.exists()


class TestFloatRange:
    """float ** raises OverflowError where * returns inf: a beam too slow for
    t_int**2, a loop too wide for radius**2, or a tau too short for tau**-2
    is refused with one line."""

    @pytest.mark.parametrize("speed", [1e-160, 1e-300])
    def test_slow_beam_refused(self, tmp_path, capsys, speed):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"deflect": {"speed": speed}}))
        out = tmp_path / "out"
        assert main(["deflect", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: speed {speed:g} m/s puts the deflection beyond the float range\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["deflect", "figure2"])
    def test_wide_loop_refused(self, tmp_path, capsys, command):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"params": {"loop_radius": 1e200}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: loop current 1e-06 A and radius 1e+200 m put beta beyond the float range\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["deflect", "selftest"])
    def test_short_tau_refused(self, tmp_path, capsys, command):
        # a strong coupling keeps the length unit positive at this tau
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"tau": 1e-160, "params": {"alpha": -1e200}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: tau 1e-160 s puts the acceleration unit beyond the float range\n"
        assert not out.exists()


class TestEprCommand:
    def test_preset_numbers(self, tmp_path):
        assert main(["epr", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "epr_scenario.json").read_text())
        assert report["marginal_down_wing1"] == pytest.approx(0.5, abs=1e-12)
        assert report["conditional_wing2_given_down1"]["up"] == pytest.approx(0.82, abs=1e-9)
        assert report["representation_gap"] < 1e-12
        sweep = (tmp_path / "epr_sweep.csv").read_text().splitlines()
        assert sweep[0] == "p,cond_up_given_down"
        assert len(sweep) == 100  # header + 99 points

    def test_zero_sweep_points_exit_code(self, tmp_path, capsys):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"epr": {"sweep_points": 0}}))
        out = tmp_path / "out"
        assert main(["epr", "--config", str(over), "--out", str(out)]) == 1
        assert "sweep_points" in capsys.readouterr().err
        assert not (out / "epr_sweep.csv").exists()

    def test_sweep_symmetry(self, tmp_path):
        assert main(["epr", "--out", str(tmp_path)]) == 0
        rows = np.loadtxt(tmp_path / "epr_sweep.csv", delimiter=",", skiprows=1)
        assert np.allclose(rows[:, 1], rows[::-1, 1], atol=1e-12)


class TestOutputErrors:
    def test_out_under_regular_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(["figure2", "--out", str(blocker / "sub")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:")
        assert "Traceback" not in err


class TestSelftestCommand:
    def test_passes(self, tmp_path, capsys):
        assert main(["selftest", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        report = json.loads((tmp_path / "selftest_report.json").read_text())
        assert report["all_passed"] is True

    def test_grid_smoke_steps_at_the_config_sign(self, tmp_path, capsys):
        """A positive beta against the preset's negative alpha flips the
        coupling sign and keeps |alpha beta|, so kappa is the preset's: the
        smoke's grid run and its contraction must both take the -1."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"params": {"beta": 5.958044019281416e16}}))
        assert main(["selftest", "--config", str(over), "--out", str(tmp_path)]) == 0
        assert "PASS grid-smoke:" in capsys.readouterr().out

    @pytest.mark.parametrize("mass", [2.512e-33, 1e-33, 1e-35, 1e-40, 1e-250, 1e-300])
    def test_smoke_under_the_rounding_of_z_refused(self, tmp_path, capsys, mass):
        """Light masses shrink the smoke's step until its displacement is
        rounding: at 2.512e-33 kg it is 24.2 eps z0 and the fit gap read
        10.31%, at 1e-33 kg 8 eps z0 and 19.53%, at 1e-250 kg a 256-digit
        number, each a FAIL and exit 2.  At 1e-300 kg the 120 steps span
        ~1e-168 tau, whose square underflows.  Each is refused before the
        run: one line and exit 1."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"params": {"mass": mass}}))
        out = tmp_path / "out"
        assert main(["selftest", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid smoke: 120 steps of dt ") and err.count("\n") == 1
        assert "that its fit resolves over the rounding of <z> ~ 0.4\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("mass, gap", [(1e-32, "2.69%"), (1e-22, "3.19%")])
    def test_smoke_over_the_floor_passes(self, tmp_path, capsys, mass, gap):
        """At 1e-32 kg the displacement is 127 eps z0, over the floor of 48."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"params": {"mass": mass}}))
        assert main(["selftest", "--config", str(over), "--out", str(tmp_path)]) == 0
        assert f"fit gap {gap}\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["figure2", "deflect", "epr", "oracle", "selftest"])
def test_uniform_field_is_not_a_key(tmp_path, capsys, command):
    """No code reads a uniform external field: the detector field is the
    loop's dipole, so a config that sets one is refused, not ignored."""
    over = tmp_path / "cfg.json"
    over.write_text(json.dumps({"params": {"b0": 0.0}}))
    out = tmp_path / "out"
    assert main([command, "--config", str(over), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: config.params: unknown keys ['b0']\n"
    assert not out.exists()


class TestOracleVariants:
    def test_pure_zeeman_no_deflection(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(
            json.dumps({"oracle": {"variant": "pure-zeeman", "points": 20,
                                    "duration": 2e-5, "momentum_kick": 0.0}})
        )
        assert main(["oracle", "--config", str(over), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        # zero within the fit's own resolution, and tiny against the
        # interaction-on value of ~4.7
        assert abs(report["fit"]["a"]) <= max(5 * report["fit"]["sigma_a"], 1e-4)
        assert report["norm_drift"] < 1e-8

    def test_free_variant(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(
            json.dumps({"oracle": {"variant": "free", "points": 20, "duration": 2e-5}})
        )
        assert main(["oracle", "--config", str(over), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert abs(report["fit"]["a"]) <= max(5 * report["fit"]["sigma_a"], 1e-4)
        assert abs(report["fit"]["a"]) < 0.05  # << interaction-on scale

    def test_full_variant_report_small_grid(self, tmp_path):
        over = tmp_path / "cfg.json"
        over.write_text(
            json.dumps({"oracle": {"points": 20, "half_width": 0.05, "packet_width": 0.045,
                                    "edge_ramp_cells": 2.0, "duration": 4e-5,
                                    "remainder": {"packet_width": 0.04,
                                                  "edge_ramp_cells": 2.5}}})
        )
        assert main(["oracle", "--config", str(over), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "oracle_report.json").read_text())
        assert report["relative_error"] < 0.10  # coarse grid, loose band
        assert report["walls"]["edge_density_ratio"] > 1e-4  # the packet fills this box
        assert report["remainder"]["exponent"] == pytest.approx(3.0, abs=0.4)
        assert report["norm_drift"] < 1e-8
        series = (tmp_path / "oracle_series.csv").read_text().splitlines()
        assert series[0] == "t,z_expect,norm"

    def test_numerical_failure_exit_code(self, tmp_path):
        # On-axis zero-kick remainder run: the cubic coefficient is
        # suppressed to the noise floor, so the exponent is unresolvable.
        over = tmp_path / "cfg.json"
        over.write_text(
            json.dumps({"oracle": {"points": 20, "half_width": 0.05, "packet_width": 0.045,
                                    "edge_ramp_cells": 2.0, "duration": 4e-5,
                                    "remainder": {"packet_width": 0.04,
                                                  "edge_ramp_cells": 2.5,
                                                  "momentum_kick": 0.0}}})
        )
        assert main(["oracle", "--config", str(over), "--out", str(tmp_path)]) == 2


class StateBuilt(Exception):
    pass


def refuse_state(*args, **kwargs):
    """Stands in for gridsim.initialize where a test must build no grid state."""
    raise StateBuilt


def convergence_study():
    path = Path(__file__).resolve().parents[1] / "scripts" / "convergence_study.py"
    spec = importlib.util.spec_from_file_location("convergence_study", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ONE_SAMPLE_SET = "error: remainder scaling needs at least two windows holding different samples\n"


class TestOracleInputErrors:
    @pytest.mark.parametrize("override", [{"theta": 0.0}, {"duration": -1.0}])
    def test_exit_code_and_message(self, tmp_path, capsys, override):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": override}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config.oracle.") and err.endswith(": must be positive\n")
        assert not out.exists()

    def test_bad_remainder_fails_before_the_first_run(self, preset_cfg, monkeypatch):
        def run(*args):
            raise AssertionError("a grid run started before every packet was checked")

        monkeypatch.setattr(gridsim, "run", run)
        cfg = copy.deepcopy(preset_cfg)
        cfg["oracle"]["remainder"]["packet_width"] = 0.09
        with pytest.raises(ValidationError, match="^packet outside box"):
            gridsim.run_oracle(cfg)

    @pytest.mark.parametrize("override", [
        {"half_width": 1e-160},
        {"center": [0, 0, 1e-120], "half_width": 1e-125},
        {"center": [0, 0, 1e200]},
    ])
    def test_box_past_float_range_refused_with_one_line(self, tmp_path, capsys, override):
        """Boxes whose spectral radius bound leaves the float range, and a
        centre whose norm would overflow, exit 1 with one line, not a
        ZeroDivisionError or a numpy warning."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": override}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("oracle", [{"theta": 1e-320}, {"remainder": {"theta": 1e-320}}])
    def test_theta_whose_step_underflows_refused(self, tmp_path, capsys, monkeypatch, oracle):
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": oracle}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: theta ") and err.endswith(" underflows to 0\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_work_guard_refuses_before_any_state(self, tmp_path, capsys, monkeypatch):
        """164 points pass the memory guard but mean 4,291 steps over 164^3
        cells: refused with one line before any state is built."""
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"points": 164}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: oracle of 4291 steps over 164^3 points takes 1.89e+10 ")
        assert err.endswith("cell-steps, over the 3e+08 budget\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("spare, allowed", [(0, True), (-1, False)])
    def test_work_guard_bound_is_inclusive(self, preset_cfg, monkeypatch, spare, allowed):
        """The preset's 32^3 x 159 cell-steps pass a budget of exactly that, and not one less."""
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        monkeypatch.setattr(gridsim, "CELL_STEPS_BUDGET", 32**3 * 159 + spare)
        with pytest.raises(StateBuilt if allowed else ValidationError):
            gridsim.run_oracle(preset_cfg)

    @pytest.mark.parametrize("points", [20, 24, 32, 40, 48])
    def test_work_guard_passes_convergence_study(self, monkeypatch, points):
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        with pytest.raises(StateBuilt):
            gridsim.run_oracle(convergence_study().study_config(points))

    @pytest.mark.parametrize("points", [32, 40, 48])
    def test_convergence_study_keeps_the_preset_thetas_on_finer_grids(self, preset_cfg, points):
        """A remainder theta scaled up with the grid lifted the remainder run's
        noise floor over its residual at 40 and 48 points (exit 2)."""
        o, preset = convergence_study().study_config(points)["oracle"], preset_cfg["oracle"]
        assert (o["theta"], o["remainder"]) == (preset["theta"], preset["remainder"])

    @pytest.mark.parametrize("variant", ["full", "pure-zeeman"])
    def test_unstable_zeeman_refused_before_any_state(self, tmp_path, capsys, monkeypatch,
                                                       variant):
        """The Zeeman term counts in the RK4 stability bound: at 1e12 it would
        blow up at the first step."""
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"variant": variant, "zeeman": [1e12, 0.0]}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dt 9.385e-07 is beyond the RK4 stability bound ")
        assert err.endswith(" under Zeeman strengths [1000000000000.0, 0.0]\n")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_theta_beyond_the_stability_bound_refused_before_any_state(self, tmp_path, capsys,
                                                                       monkeypatch):
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"theta": 2.5}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dt 7.821e-06 is beyond the RK4 stability bound 6.257e-06 ")
        assert err.endswith(" under Zeeman strengths [0.0, 0.0]\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["full", "pure-zeeman"])
    @pytest.mark.parametrize("zeeman", [[1.5e6, 0.0], [3.5e6, 0.0]])
    def test_zeeman_past_norm_budget_refused_before_any_state(self, tmp_path, capsys,
                                                              monkeypatch, variant, zeeman):
        """Inside the stability bound, but every eigenvalue lies so far from
        zero that RK4's first step loses more of the norm than the budget:
        these used to exit 2 at the first Zeeman step."""
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"variant": variant, "zeeman": zeeman}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: oracle.zeeman {zeeman} puts dt 9.385e-07 past the "
                              "per-step norm budget")
        assert err.endswith("over 1e-06\n") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["full", "pure-zeeman"])
    def test_zeeman_inside_norm_budget_accepted(self, preset_cfg, monkeypatch, variant):
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        cfg = copy.deepcopy(preset_cfg)
        cfg["oracle"].update(variant=variant, zeeman=[4e5, 0.0])
        with pytest.raises(StateBuilt):
            gridsim.run_oracle(cfg)

    def test_zeeman_norm_budget_takes_only_the_pairs_the_run_reaches(self, tmp_path, capsys,
                                                                     monkeypatch):
        """A pure-zeeman run from up-up stays on (T_x, T_y), whose Zeeman
        eigenvalues are +-(zp + zl) / 2: the (T_z, S) pair's 0 at zp = zl
        must not hide them.  This used to exit 2 at the first step."""
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"variant": "pure-zeeman",
                                               "zeeman": [1.5e6, 1.5e6]}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: oracle.zeeman [1500000.0, 1500000.0] puts dt 9.385e-07 "
                              "past the per-step norm budget")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_full_variant_reaches_both_zeeman_pairs(self, preset_cfg, monkeypatch):
        """The coupling takes up-up to T_z, whose pair is 0 at zp = zl."""
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        cfg = copy.deepcopy(preset_cfg)
        cfg["oracle"].update(zeeman=[1.5e6, 1.5e6])
        with pytest.raises(StateBuilt):
            gridsim.run_oracle(cfg)

    @pytest.mark.parametrize("zeeman", [[1e6, 0.0], [4e5, 4e5]])
    def test_zeeman_inside_the_bound_can_still_fail_the_first_step(self, tmp_path, capsys,
                                                                   zeeman):
        """Refusing these needs the packet's kinetic spectrum, not a bound on
        the operator: they pass validation and exit 2 at step 1."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"variant": "pure-zeeman", "zeeman": zeeman}}))
        assert main(["oracle", "--config", str(over), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "unstable step 1 (dt 9.385e-07): norm drifted by " in err
        assert err.count("\n") == 1

    def test_failing_zeeman_run_of_the_full_variant(self, tmp_path, capsys, forking,
                                                    monkeypatch):
        """The full variant's Zeeman run fails at step 1 in the forked child
        while the main and remainder runs pass: the same one line as inline,
        exit 2, no output directory and no child left."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"zeeman": [1e6, 0]}}))
        errs = []
        for inline in (False, True):
            if inline:
                monkeypatch.delattr(os, "fork")
            out = tmp_path / f"out-{inline}"
            assert main(["oracle", "--config", str(over), "--out", str(out)]) == 2
            errs.append(capsys.readouterr().err)
            assert not out.exists()
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)
        assert errs[0] == errs[1]
        assert errs[0].startswith("numerical failure: unstable step 1 (dt 9.385e-07): ")
        assert errs[0].endswith("norm drifted by -1.392e-04\n") and errs[0].count("\n") == 1

    def test_free_variant_ignores_zeeman(self, preset_cfg, monkeypatch):
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        cfg = copy.deepcopy(preset_cfg)
        cfg["oracle"].update(variant="free", zeeman=[1e12, 0.0])
        with pytest.raises(StateBuilt):
            gridsim.run_oracle(cfg)

    @pytest.mark.parametrize(
        "remainder, message",
        [
            ({"windows": [1e-5, 1e-3]}, "error: window 1e-05 holds fewer than 8 samples\n"),
            ({"windows": [1e-3]}, ONE_SAMPLE_SET),
            # 7 samples in the 2.5e-4 window at twice the step
            ({"theta": 0.3}, "error: window 0.00025 holds fewer than 8 samples\n"),
            # max() of no windows must not raise
            ({"windows": []}, ONE_SAMPLE_SET),
            # one distinct window: polyfit would fit a slope through a single x
            ({"windows": [1e-3, 1e-3]}, ONE_SAMPLE_SET),
            ({"windows": [5e-4, 5e-4, 5e-4]}, ONE_SAMPLE_SET),
            # two ends, one set of samples: equal residuals read exponent 0
            ({"windows": [1e-3, 1.000001e-3]}, ONE_SAMPLE_SET),
            # last samples 49 and 50 steps in, against nominal ends 1% apart: the
            # slope fitted to them read an exponent of 5.90
            ({"windows": [9.9e-4, 1e-3]},
             "error: remainder windows end too close together: their last samples span a "
             "factor 1.02, under the 1.22 that resolves the exponent\n"),
        ],
    )
    def test_bad_windows_refused_before_any_state(self, tmp_path, capsys, monkeypatch,
                                                  remainder, message):
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"remainder": remainder}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()

    def test_remainder_duration_is_not_a_key(self, tmp_path, capsys):
        """The remainder run lasts until its last window; a duration of its
        own could only disagree with the windows."""
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"remainder": {"duration": 5e-4}}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: config.oracle.remainder: unknown keys ['duration']\n"
        assert not out.exists()

    @pytest.mark.parametrize("duration", [1e-300, 6.5 * 9.385e-07])  # 6.5 steps round up to 7
    def test_main_run_under_8_steps_refused_before_any_state(self, tmp_path, capsys,
                                                             monkeypatch, duration):
        """A duration under 8 main steps used to run the 8-step floor and
        report a fit for a duration nobody asked for."""
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"duration": duration}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: oracle.duration {duration:g} is under 8 steps "
                                           "of dt 9.385e-07: the fit needs at least 8\n")
        assert not out.exists()

    @pytest.mark.parametrize("oracle", [
        {"duration": 1e300},
        {"remainder": {"windows": [1e-3, 1e300]}},
        {"remainder": {"windows": [1e-3, 1e300], "kinetic_scale": 1e10}},  # 1e300 / dt is inf
    ])
    def test_run_over_the_budget_in_steps_alone_is_one_line(self, tmp_path, capsys, monkeypatch,
                                                            oracle):
        """A run whose step count alone is over the cell-steps budget is
        refused before its steps are counted: an int of 1e306 steps used to
        overflow the budget message, and 1e300 / dt can be inf."""
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": oracle}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a run of 1e+300 tau takes ")
        assert err.endswith(", over the 3e+08 cell-steps budget\n") and err.count("\n") == 1
        assert not out.exists()

    def test_main_run_of_8_steps_accepted(self, preset_cfg, preset_oracle, monkeypatch):
        monkeypatch.setattr(gridsim, "initialize", refuse_state)
        cfg = copy.deepcopy(preset_cfg)
        cfg["oracle"]["duration"] = 7.5 * preset_oracle.spec.dt
        with pytest.raises(StateBuilt):
            gridsim.run_oracle(cfg)

    def test_oversized_grid_exit_code_and_message(self, tmp_path, capsys):
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"oracle": {"points": 100000}}))
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(over), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: grid of 100000^3 points")
        assert err.endswith("GiB budget\n") and err.count("\n") == 1
        assert not out.exists()


class TestCsvText:
    """The one CSV writer: each value to 12 significant digits, as %.12g."""

    @pytest.mark.parametrize("value, text", [
        (-0.0, "-0"),
        (1e-300, "1e-300"),
        (0.99999999999951, "1"),  # rounds up at the 12th digit, through every 9
        (0.99999999999949, "0.999999999999"),
        (1.23456789012345, "1.23456789012"),
        (32, "32"),
    ])
    def test_value(self, value, text):
        assert csv_text("v", [value]) == f"v\n{text}\n"
        assert csv_text("v", np.array([value], dtype=float)) == f"v\n{text}\n"

    def test_rows_and_header(self):
        assert csv_text("a,b", np.array([0.0, 1e-6]), [0.4, -0.0]) == "a,b\n0,0.4\n1e-06,-0\n"
        assert csv_text("a,b") == "a,b\n"

    def test_time_series(self):
        """The oracle's series file: a TimeSeries' three columns."""
        series = gridsim.TimeSeries(
            t=np.array([0.0, 1e-6]), z_expect=np.array([0.4, 0.3999999]),
            norm=np.array([1.0, 1.0]),
        )
        text = csv_text("t,z_expect,norm", series.t, series.z_expect, series.norm)
        assert text == "t,z_expect,norm\n0,0.4,1\n1e-06,0.3999999,1\n"


def run_convergence_study(*args, prelude=""):
    """scripts/convergence_study.py in a subprocess, after ``prelude``."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    paths = [str(root / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    script = root / "scripts" / "convergence_study.py"
    code = (f"import runpy, sys\n{prelude}\nsys.argv = [{str(script)!r}, *{list(args)!r}]\n"
            f"runpy.run_path({str(script)!r}, run_name='__main__')\n")
    return subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)


class TestConvergenceStudyScript:
    """The script's errors go through cli.exit_code: one line, no traceback."""

    def test_oversized_grid_is_one_line_error(self):
        done = run_convergence_study("--points", "100000", "100001")
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: grid of 100000^3 points")
        assert done.stderr.count("\n") == 1

    def test_one_grid_is_one_line_error(self):
        done = run_convergence_study("--points", "100000")
        assert (done.returncode, done.stderr) == (1, "error: the study needs at least two grids\n")

    def test_numerical_failure_exits_2(self):
        prelude = ("from spinloop import gridsim\nfrom spinloop.errors import NumericalError\n"
                   "def fail(cfg):\n    raise NumericalError('unstable step 3')\n"
                   "gridsim.run_oracle = fail")
        done = run_convergence_study("--points", "20", "24", prelude=prelude)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr == "numerical failure: unstable step 3\n"


class TestDeterminism:
    @pytest.mark.parametrize("command", ["figure2", "epr", "deflect", "selftest"])
    def test_byte_identical_fast_commands(self, tmp_path, command):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main([command, "--out", str(out1)]) == 0
        assert main([command, "--out", str(out2)]) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert read(out1 / name) == read(out2 / name), name


class TestCachedParser:
    """One parser per process: repeated in-process calls must not see each
    other's arguments, errors or configs."""

    @staticmethod
    def files(out):
        return {p.name: read(p) for p in sorted(out.iterdir())}

    def test_repeated_calls_write_the_first_bytes(self, tmp_path, capsys):
        from spinloop.cli import build_parser

        assert build_parser() is build_parser()
        # the config also overrides figure2: it must not leak into later calls
        over = tmp_path / "cfg.json"
        over.write_text(json.dumps({"epr": {"bell": "triplet0", "sweep_points": 7},
                                    "figure2": {"samples": 21}}))
        assert main(["figure2", "--out", str(tmp_path / "f1")]) == 0
        assert main(["epr", "--config", str(over), "--out", str(tmp_path / "e1")]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["figure2", "--bogus", "--out", str(tmp_path / "bad")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert main(["figure2", "--out", str(tmp_path / "f2")]) == 0
        assert main(["epr", "--config", str(over), "--out", str(tmp_path / "e2")]) == 0
        assert not (tmp_path / "bad").exists()
        assert self.files(tmp_path / "f1") == self.files(tmp_path / "f2")
        assert self.files(tmp_path / "e1") == self.files(tmp_path / "e2")
        assert len(self.files(tmp_path / "f1")["figure2.csv"].splitlines()) == 202
        args = build_parser().parse_args(["figure2"])
        assert (args.config, args.out) == (None, ".")
