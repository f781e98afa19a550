import ast
import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphkol import cli, pde_solver, reduced_ode
from sphkol.cli import (
    TRAJECTORY_HEADER,
    ManifestError,
    field_from_entries,
    fit_rate,
    main,
    run_manifest,
    save_field,
)
from sphkol.harmonics import build_grid
from sphkol.oracles import identity_oracle_residuals
from sphkol.pde_solver import IntegrationError, SolverConfig
from sphkol.sht import MeanModeError, SpectralField


def write_manifest(tmp_path, doc, name="manifest.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def two_jet_manifest(tmp_path, outname="out"):
    return {
        "scenario": "two_jet",
        "cfg": {"nu": 0.5, "amplitude": 1.0, "N": 8, "t_end": 0.5, "snapshot_stride": 20},
        "init": [
            {"n": 1, "m": 0, "re": 1.0, "im": 0.0},
            {"n": 1, "m": 1, "re": 0.5, "im": 0.0},
            {"n": 3, "m": 0, "re": 0.01, "im": 0.0},
        ],
        "seed": 7,
        "output_dir": str(tmp_path / outname),
    }


LARGE_EQUILIBRIUM_ARGV = ["equilibrium", "--nu", "0.01", "--a", "1000", "--alpha-re", "2", "--b", "-1"]


def large_equilibrium_manifest(tmp_path):
    """reduced_only at nu = 0.01, a = 1000 with alpha = 2, b = -1 (LARGE_EQUILIBRIUM_ARGV)."""
    return {
        "scenario": "reduced_only",
        "cfg": {"nu": 0.01, "amplitude": 1000.0, "N": 4},
        "init": [
            {"n": 1, "m": 1, "re": 2.0 * 2.0 * math.sqrt(6.0 * math.pi)},
            {"n": 1, "m": 0, "re": -1.0 * 2.0 * math.sqrt(3.0 * math.pi)},
        ],
        "output_dir": str(tmp_path / "red"),
    }


class TestFitRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 2.0, 81)
        fit = fit_rate(t, np.exp(-10.0 * t), (0.0, 2.0), reference_rate=-10.0, tolerance=0.001)
        assert fit["fitted_rate"] == pytest.approx(-10.0, abs=1e-6)
        assert fit["r_squared"] > 0.999999
        assert fit["pass"]

    def test_zero_series_short_circuits(self):
        t = np.linspace(0.0, 1.0, 20)
        fit = fit_rate(t, np.zeros_like(t), (0.0, 1.0), reference_rate=-5.0)
        assert fit["pass"] and fit["fitted_rate"] == -5.0

    def test_negative_values_are_a_data_error(self):
        t = np.linspace(0.0, 1.0, 20)
        v = np.exp(-t)
        v[7] = -0.5
        with pytest.raises(ValueError, match="nonpositive"):
            fit_rate(t, v, (0.0, 1.0), reference_rate=-1.0)

    def test_window_needs_ten_samples(self):
        t = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError, match="10 samples"):
            fit_rate(t, np.exp(-t), (0.0, 0.2), reference_rate=-1.0)

    def test_poor_fit_fails(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 1.0, 40)
        v = np.exp(-t) * np.exp(rng.standard_normal(40))
        fit = fit_rate(t, v, (0.0, 1.0), reference_rate=-1.0, tolerance=0.5)
        assert not fit["pass"]  # r^2 gate

    @pytest.mark.parametrize(
        "reference, tolerance, name",
        [
            (-2.0, -0.5, "tolerance"),
            (None, -0.5, "tolerance"),
            (-2.0, math.nan, "tolerance"),
            (-2.0, math.inf, "tolerance"),
            (math.inf, 0.05, "reference_rate"),
            (-math.inf, 0.05, "reference_rate"),
            (math.nan, 0.05, "reference_rate"),
        ],
    )
    def test_bad_tolerance_or_reference_is_named(self, reference, tolerance, name):
        t = np.linspace(0.0, 1.0, 41)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            fit_rate(t, np.exp(-2.0 * t), (0.0, 1.0), reference_rate=reference, tolerance=tolerance)

    def test_no_reference_reports_only(self):
        t = np.linspace(0.0, 1.0, 30)
        fit = fit_rate(t, np.exp(-2.0 * t), (0.0, 1.0))
        assert fit["pass"] and fit["reference_rate"] is None
        assert fit["fitted_rate"] == pytest.approx(-2.0, abs=1e-9)

    def test_zonal_run_fits_viscous_rate(self, grid8):
        from sphkol.pde_solver import SolverConfig, run
        from sphkol.sht import SpectralField

        nu = 0.5
        omega0 = SpectralField.zeros(8)
        omega0[3, 0] = 0.01
        cfg = SolverConfig(nu=nu, amplitude=1.0, N=8, t_end=2.0, snapshot_stride=25)
        recs = run(omega0, cfg, grid8)
        t = np.array([r.t for r in recs])
        v = np.array([r.norm_ge3 for r in recs])
        fit = fit_rate(t, v, (1.0, 2.0), reference_rate=-10.0 * nu, tolerance=0.001)
        assert fit["pass"]
        assert fit["fitted_rate"] == pytest.approx(-5.0, rel=1e-6)


class TestManifests:
    def test_two_jet_scenario_outputs(self, tmp_path):
        doc = two_jet_manifest(tmp_path)
        code, report = run_manifest(doc)
        assert code == 0
        out = tmp_path / "out"
        raw = (out / "trajectory.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        eq = json.loads((out / "equilibrium.json").read_text())
        assert eq["method"] == "closed_form"
        rep = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in rep["checks"]]
        assert names == ["degree1_conservation", "degree_ge3_decay", "degree2_convergence_envelope"]
        assert rep["all_pass"] is True

    def test_determinism_byte_identical(self, tmp_path):
        doc1 = two_jet_manifest(tmp_path, "out1")
        doc2 = two_jet_manifest(tmp_path, "out2")
        run_manifest(doc1)
        run_manifest(doc2)
        for name in ("trajectory.csv", "equilibrium.json", "report.json"):
            a = (tmp_path / "out1" / name).read_bytes()
            b = (tmp_path / "out2" / name).read_bytes()
            assert a == b

    def test_one_jet_scenario(self, tmp_path, capsys):
        doc = {
            "scenario": "one_jet",
            "cfg": {"nu": 0.5, "amplitude": 1.0, "N": 8, "t_end": 0.5, "snapshot_stride": 20},
            "init": [{"n": 2, "m": 0, "re": 0.01, "im": 0.0}],
            "output_dir": str(tmp_path / "oj"),
        }
        code, report = run_manifest(doc)
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert "degree_ge2_decay" in names
        # The scenario names the flow; a cfg.jet_order, even the scenario's own, is a key no run reads.
        aliased = {**doc, "cfg": {**doc["cfg"], "jet_order": "one_jet"}, "output_dir": str(tmp_path / "alias")}
        assert main(["run", str(write_manifest(tmp_path, aliased))]) == 2
        assert "cfg has key(s) no run reads: 'jet_order'" in capsys.readouterr().err
        assert not (tmp_path / "alias").exists()

    def test_rotating_scenario(self, tmp_path):
        doc = {
            "scenario": "rotating",
            "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 8, "t_end": 0.25, "snapshot_stride": 16},
            "Omega": 2.0,
            "init": [
                {"n": 1, "m": 1, "re": 0.4, "im": 0.0},
                {"n": 2, "m": 2, "re": 0.2, "im": -0.1},
            ],
            "output_dir": str(tmp_path / "rot"),
        }
        code, report = run_manifest(doc)
        assert code == 0
        first = (tmp_path / "rot" / "trajectory.csv").read_text().splitlines()[0]
        assert first.startswith("# Omega=2")
        names = [c["name"] for c in report["checks"]]
        assert "degree1_phase_law" in names

    def test_reduced_only_scenario(self, tmp_path):
        alpha_coeff = 2.0 * math.sqrt(6.0 * math.pi)  # makes alpha = 1
        doc = {
            "scenario": "reduced_only",
            "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 4},
            "init": [{"n": 1, "m": 1, "re": alpha_coeff, "im": 0.0}],
            "output_dir": str(tmp_path / "red"),
        }
        code, report = run_manifest(doc)
        assert code == 0
        for method in ("closed_form", "solve"):
            eq = json.loads((tmp_path / "red" / f"equilibrium_{method}.json").read_text())
            w0 = eq["omega_inf"][2]
            assert w0["re"] == pytest.approx(-0.375, abs=1e-12)
        assert report["checks"][0]["measured"] < 1e-12

    def test_identity_oracles_scenario(self, tmp_path):
        doc = {
            "scenario": "identity_oracles",
            "seed": 7,
            "lmax": 8,
            "output_dir": str(tmp_path / "orc"),
        }
        code, report = run_manifest(doc)
        assert code == 0
        residuals = json.loads((tmp_path / "orc" / "oracle_residuals.json").read_text())
        assert max(residuals.values()) < 1e-10

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "redirected"
        monkeypatch.setenv("SPHKOL_OUT", str(target))
        doc = two_jet_manifest(tmp_path)
        code, _ = run_manifest(doc)
        assert code == 0
        assert (target / "report.json").exists()
        assert not (tmp_path / "out").exists()

    def test_empty_env_var_counts_as_unset(self, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("SPHKOL_OUT", "")
        doc = {
            "scenario": "reduced_only",
            "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 4},
            "init": [{"n": 1, "m": 1, "re": 1.0, "im": 0.0}],
            "output_dir": str(tmp_path / "red"),
        }
        code, _ = run_manifest(doc)
        assert code == 0
        assert (tmp_path / "red" / "report.json").exists()
        assert list(cwd.iterdir()) == []

    def test_bad_manifest_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            run_manifest(write_manifest(tmp_path, {"scenario": "nope", "output_dir": "x"}))
        with pytest.raises(ManifestError):
            run_manifest({"scenario": "two_jet", "cfg": {}, "output_dir": str(tmp_path / "bad")})
        with pytest.raises(ManifestError, match="cfg must be an object"):
            run_manifest({"scenario": "identity_oracles", "cfg": [], "output_dir": str(tmp_path / "bad")})
        rotating = {**two_jet_manifest(tmp_path, "rot"), "scenario": "rotating", "Omega": None}
        with pytest.raises(ManifestError, match="Omega"):
            run_manifest(rotating)
        negative_order = two_jet_manifest(tmp_path, "neg")
        negative_order["init"] = [{"n": 2, "m": -1, "re": 1.0, "im": 0.0}]
        with pytest.raises(ManifestError, match="m >= 0"):
            run_manifest(negative_order)

    def test_unread_keys_rejected(self, tmp_path, capsys):
        base = two_jet_manifest(tmp_path)
        red = {"scenario": "reduced_only", "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 4},
               "init": [{"n": 1, "m": 1, "re": 1.0}], "output_dir": str(tmp_path / "out")}
        oracles = {"scenario": "identity_oracles", "lmax": 8, "output_dir": str(tmp_path / "out")}
        for doc, named in [
            ({**base, "cfg": {**base["cfg"], "snapshot_strid": 5, "dt_": 0.01}}, "cfg has key(s) no run reads: "
             "'snapshot_strid', 'dt_'"),
            ({**base, "Omega": 2.0}, "'Omega'"),
            ({**base, "cfg": {**base["cfg"], "Omega": 2.0}}, "'Omega'"),
            ({**base, "lmax": 8}, "'lmax'"),
            ({**base, "cfg": {**base["cfg"], "jet_order": "one_jet"}}, "cfg has key(s) no run reads: 'jet_order'"),
            ({**base, "cfg": {**base["cfg"], "jet_order": "two_jet"}}, "cfg has key(s) no run reads: 'jet_order'"),
            ({**base, "scenario": "rotating", "Omega": 1.0, "cfg": {**base["cfg"], "jet_order": "one_jet"}},
             "cfg has key(s) no run reads: 'jet_order'"),
            ({**red, "cfg": {**red["cfg"], "t_end": 1.0}}, "'t_end'"),
            ({**red, "cfg": {**red["cfg"], "jet_order": "two_jet"}}, "'jet_order'"),
            ({**red, "Omega": 1.0}, "'Omega'"),
            ({**oracles, "init": base["init"]}, "'init'"),
            ({**oracles, "cfg": {"N": 8, "nu": 1.0}}, "'nu'"),
            ({**oracles, "lmax": None, "cfg": {"N": 6.2}}, "cfg has key(s) no run reads: 'N'"),
        ]:
            assert main(["run", str(write_manifest(tmp_path, doc))]) == 2, named
            assert named in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_top_level_rejection_writes_nothing(self, tmp_path):
        base = two_jet_manifest(tmp_path)
        oracles = {"scenario": "identity_oracles", "lmax": 8, "output_dir": str(tmp_path / "out")}
        for doc in (
            {**base, "cfg": [1]},
            {**base, "seed": 1.5},
            {**base, "scenario": "rotating"},
            {**base, "scenario": "rotating", "Omega": "fast"},
            {**base, "extra": 1},
            {**oracles, "lmax": True},
        ):
            with pytest.raises(ManifestError):
                run_manifest(doc)
            assert not (tmp_path / "out").exists(), doc

    def test_cfg_or_init_rejection_writes_nothing(self, tmp_path, capsys):
        base = two_jet_manifest(tmp_path)
        cfg = {key: value for key, value in base["cfg"].items() if key != "nu"}
        (tmp_path / "unreadable.json").write_text("{not json")
        red = {"scenario": "reduced_only", "cfg": {"nu": math.nan, "amplitude": 1.0, "N": 4},
               "init": [{"n": 1, "m": 1, "re": 1.0}], "output_dir": str(tmp_path / "out")}
        (tmp_path / "degree8.json").write_text(json.dumps({"N": 8, "coeffs": base["init"]}))
        for doc, named in [
            ({"scenario": "two_jet", "cfg": {}, "output_dir": str(tmp_path / "out")}, "'nu'"),
            ({**base, "cfg": cfg}, "'nu'"),
            ({**base, "scenario": "rotating", "Omega": math.nan}, "Omega must be finite"),
            ({**base, "init": str(tmp_path / "unreadable.json")}, "bad initial field"),
            ({**base, "init": str(tmp_path / "missing.json")}, "bad initial field"),
            ({**base, "init": {"path": str(tmp_path / "degree8.json")}}, "not {'path': "),
            ({**base, "init": str(tmp_path / "degree8.json"), "cfg": {**base["cfg"], "N": 16}},
             "initial condition degree 8 != configured N 16"),
            (red, "nu must be"),
            ({"scenario": "identity_oracles", "cfg": {"N": 6.5}, "output_dir": str(tmp_path / "out")},
             "cfg has key(s) no run reads: 'N'"),
            ({"scenario": "identity_oracles", "lmax": 3, "output_dir": str(tmp_path / "out")}, "lmax >= 4"),
            ({"scenario": "identity_oracles", "cfg": {"N": 3}, "output_dir": str(tmp_path / "out")},
             "cfg has key(s) no run reads: 'N'"),
        ]:
            assert main(["run", str(write_manifest(tmp_path, doc))]) == 2, named
            assert named in capsys.readouterr().err
            assert not (tmp_path / "out").exists(), named

    def test_envelope_not_applicable_before_one_over_nu(self, tmp_path, capsys):
        # nu = 0.5 and t_end = 0.5: no snapshot reaches t = 1/nu = 2.
        path = write_manifest(tmp_path, two_jet_manifest(tmp_path))
        assert main(["run", str(path)]) == 0
        assert "[N/A] degree2_convergence_envelope: run ends before t = 1/nu" in capsys.readouterr().out
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        envelope = rep["checks"][2]
        assert envelope["name"] == "degree2_convergence_envelope"
        assert envelope["measured"] is None and envelope["pass"] is True
        assert rep["all_pass"] is True

    def test_envelope_measured_past_one_over_nu(self, tmp_path):
        doc = two_jet_manifest(tmp_path)
        doc["cfg"].update(nu=2.0, t_end=1.0, snapshot_stride=25)
        doc["init"].append({"n": 2, "m": 1, "re": 0.3, "im": 0.1})
        code, report = run_manifest(doc)
        assert code == 0
        envelope = report["checks"][2]
        assert envelope["name"] == "degree2_convergence_envelope"
        assert isinstance(envelope["measured"], float) and envelope["measured"] <= 1e-6

    def test_report_counts_steps(self, tmp_path):
        _, report = run_manifest(two_jet_manifest(tmp_path))
        steps = report["steps"]
        assert steps["mode"] == "controlled" and steps["rtol"] == pde_solver.STEP_RTOL
        assert steps["accepted"] >= 2
        assert steps["dt_lattice"] == 0.5 / 160  # default_dt 0.1 / (nu N^2) = 1/320, rounded to t_end / nsteps
        doc = two_jet_manifest(tmp_path, "fixed")
        doc["cfg"]["dt"] = 0.01
        _, report = run_manifest(doc)
        assert report["steps"] == {"mode": "fixed", "accepted": 50, "rejected": 0, "rtol": None, "dt_lattice": 0.01}
        saved = json.loads((tmp_path / "fixed" / "report.json").read_text())
        assert saved["steps"] == report["steps"]
        assert list(saved) == ["scenario", "seed", "checks", "files", "steps", "grid", "all_pass"]
        assert saved["grid"] == {"n_theta": 14, "n_phi": 32}

    def test_long_run_checks_stop_at_round_off(self, tmp_path, monkeypatch):
        # norm_ge3 tracks 0.01 e^{-10 t} down to about 1e-18 |w| and then stays at
        # round-off while its bound keeps falling to 4e-46: below 1e-14 |w| the
        # norm is held to that floor instead of the bound.
        doc = two_jet_manifest(tmp_path, "long")
        doc["cfg"].update(nu=1.0, t_end=10.0)
        captured = []
        solve = pde_solver.run

        def keep(*args):
            captured.append(solve(*args))
            return captured[-1]

        monkeypatch.setattr(pde_solver, "run", keep)
        code, report = run_manifest(doc)
        assert code == 0, report["checks"]
        records = captured[0]
        assert records[-1].t == pytest.approx(10.0)
        assert records[-1].norm_ge3 > 1e6 * 0.01 * math.exp(-100.0)

        def violated(column, value, t):
            def fake(*args):
                out = pde_solver.Trajectory([copy.copy(rec) for rec in records], records.dt, records.params,
                                            records.attractor)
                rec = min(out, key=lambda r: abs(r.t - t))
                setattr(rec, column, value)
                return out
            return fake

        # Violations: above a bound that clears the floor (t = 2), above the floor
        # where the bound has fallen below it (t = 5), and above the envelope (t = 9).
        for column, value, t, check in (
            ("norm_ge3", 1e-9, 2.0, "degree_ge3_decay"),
            ("norm_ge3", 1e-12, 5.0, "degree_ge3_decay"),
            ("norm_eq2_dist", 1e-9, 9.0, "degree2_convergence_envelope"),
        ):
            monkeypatch.setattr(pde_solver, "run", violated(column, value, t))
            code, report = run_manifest({**doc, "output_dir": str(tmp_path / "bad")})
            assert code == 1
            assert [c["name"] for c in report["checks"] if not c["pass"]] == [check]

    @pytest.mark.parametrize("scenario", ["two_jet", "rotating"])
    def test_long_controlled_run_passes_every_check(self, tmp_path, scenario):
        # Controlled steps about the (turning) attractor keep it fixed, so the
        # degree-2 distance keeps following its envelope instead of settling at
        # about STEP_RTOL |w|, which failed the envelope from t_end = 11 on.
        doc = {**two_jet_manifest(tmp_path, "longer"), "scenario": scenario}
        doc["cfg"].update(nu=1.0, t_end=20.0)
        if scenario == "rotating":
            doc["Omega"] = 1.5
        code, report = run_manifest(doc)
        assert code == 0, report["checks"]
        assert report["steps"]["mode"] == "controlled"
        degree1 = "degree1_phase_law" if scenario == "rotating" else "degree1_conservation"
        assert [(c["name"], c["pass"]) for c in report["checks"]] == [
            (degree1, True), ("degree_ge3_decay", True), ("degree2_convergence_envelope", True)
        ]
        assert report["checks"][2]["measured"] == 0.0


class TestMain:
    def test_run_exit_codes(self, tmp_path, capsys):
        path = write_manifest(tmp_path, two_jet_manifest(tmp_path))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS] degree1_conservation" in out

    def test_run_bad_manifest_exit_2(self, tmp_path, capsys):
        path = write_manifest(tmp_path, {"scenario": "bogus"})
        assert main(["run", str(path)]) == 2
        path = write_manifest(
            tmp_path, {"scenario": "identity_oracles", "cfg": [], "output_dir": str(tmp_path / "out")}
        )
        assert main(["run", str(path)]) == 2
        assert "cfg must be an object" in capsys.readouterr().err
        # Non-finite numbers are configuration errors, not numerical failures.
        base = two_jet_manifest(tmp_path)
        for key, value in [
            ("nu", math.nan), ("t_end", math.inf), ("amplitude", math.nan), ("dt", math.nan), ("dt", math.inf)
        ]:
            path = write_manifest(tmp_path, {**base, "cfg": {**base["cfg"], key: value}})
            assert main(["run", str(path)]) == 2, key
            assert "configuration error" in capsys.readouterr().err
        for value in (math.nan, math.inf):
            init = [{"n": 2, "m": 1, "re": 0.1, "im": value}] + base["init"]
            path = write_manifest(tmp_path, {**base, "init": init})
            assert main(["run", str(path)]) == 2
            assert "not finite" in capsys.readouterr().err
        # A coefficient listed twice, inline or in a field file, is rejected, not
        # overwritten by the later entry.
        twice = base["init"] + [{"n": 2, "m": 1, "re": 5.0}, {"n": 2, "m": 1, "re": 0.0, "im": 2.0}]
        field_path = tmp_path / "twice.json"
        field_path.write_text(json.dumps({"N": 8, "coeffs": twice}))
        for init in (twice, str(field_path)):
            path = write_manifest(tmp_path, {**base, "init": init})
            assert main(["run", str(path)]) == 2
            assert "(2, 1) is listed more than once" in capsys.readouterr().err
        path = write_manifest(tmp_path, {**base, "scenario": "rotating", "Omega": math.nan})
        assert main(["run", str(path)]) == 2
        assert "Omega must be finite" in capsys.readouterr().err
        # Booleans and integers with a fractional part are rejected by name, not truncated.
        oracles = {"scenario": "identity_oracles", "lmax": 8, "output_dir": str(tmp_path / "orc")}
        reduced = {"scenario": "reduced_only", "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 4},
                   "init": [{"n": 1, "m": 1, "re": 1.0}], "output_dir": str(tmp_path / "red")}
        fractional_m = base["init"] + [{"n": 2, "m": 1.5, "re": 0.3}]
        true_n = [{"n": True, "m": 0, "re": 1.0}] + base["init"][1:]
        true_re = base["init"] + [{"n": 2, "m": 0, "re": True}]
        field_path = tmp_path / "fractional.json"
        field_path.write_text(json.dumps({"N": 8, "coeffs": fractional_m}))
        for doc, message in [
            ({**base, "cfg": {**base["cfg"], "N": 8.7}}, "N must be an integer"),
            ({**base, "cfg": {**base["cfg"], "snapshot_stride": 2.5}}, "snapshot_stride must be an integer"),
            ({**base, "cfg": {**base["cfg"], "snapshot_stride": True}}, "snapshot_stride must be an integer"),
            ({**base, "seed": 7.5}, "seed must be an integer"),
            ({**oracles, "lmax": 8.5}, "lmax must be an integer"),
            ({**reduced, "cfg": {**reduced["cfg"], "N": 4.5}}, "N must be an integer"),
            ({**base, "cfg": {**base["cfg"], "nu": True}}, "nu must be a number, got True"),
            ({**base, "cfg": {**base["cfg"], "dt": True, "t_end": 1.0}}, "dt must be a number, got True"),
            ({**base, "scenario": "rotating", "Omega": True}, "Omega must be a number, got True"),
            ({**reduced, "cfg": {**reduced["cfg"], "nu": True}}, "nu must be a number, got True"),
            ({**base, "init": fractional_m}, "m of entry 3 must be an integer, got 1.5"),
            ({**base, "init": true_n}, "n of entry 0 must be an integer, got True"),
            ({**base, "init": true_re}, "re of entry 3 must be a number, got True"),
            ({**base, "init": str(field_path)}, "m of entry 3 must be an integer, got 1.5"),
        ]:
            path = write_manifest(tmp_path, doc)
            assert main(["run", str(path)]) == 2, message
            assert message in capsys.readouterr().err, message
        # A missing, null, empty or non-string output_dir is rejected, not written to a directory "None".
        for value in (None, "", 7, ["out"]):
            path = write_manifest(tmp_path, {**base, "output_dir": value})
            assert main(["run", str(path)]) == 2, value
            assert "output_dir" in capsys.readouterr().err, value
        doc = dict(base)
        del doc["output_dir"]
        assert main(["run", str(write_manifest(tmp_path, doc))]) == 2
        assert "output_dir" in capsys.readouterr().err

    def test_run_non_real_m0_coefficient_exit_2(self, tmp_path, capsys):
        base = two_jet_manifest(tmp_path)
        init = base["init"] + [{"n": 2, "m": 0, "re": 0.1, "im": 0.5}]
        path = write_manifest(tmp_path, {**base, "init": init})
        assert main(["run", str(path)]) == 2
        assert "(2, 0) of a real field must be real" in capsys.readouterr().err

    def test_reduced_path_non_finite_exit_2(self, tmp_path, capsys):
        # NaN passes a plain nu <= 0 test; each parameter is named when rejected.
        argv = ["equilibrium", "--nu", "1", "--a", "1", "--alpha-re", "1", "--alpha-im", "0", "--b", "0"]
        for flag, value, name in [
            ("--nu", "nan", "nu"), ("--nu", "inf", "nu"), ("--a", "nan", "amplitude"),
            ("--alpha-re", "nan", "alpha"), ("--alpha-im", "inf", "alpha"), ("--b", "inf", "b"),
            ("--omega", "inf", "Omega"), ("--omega", "nan", "Omega"),
        ]:
            args = list(argv)
            if flag in args:
                args[args.index(flag) + 1] = value
            else:
                args += [flag, value]
            assert main(args) == 2, (flag, value)
            err = capsys.readouterr().err
            assert f"configuration error: {name} must be" in err, (flag, value, err)
        for key, name in [("nu", "nu"), ("amplitude", "amplitude")]:
            doc = {
                "scenario": "reduced_only",
                "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 4, key: math.nan},
                "init": [{"n": 1, "m": 1, "re": 1.0, "im": 0.0}],
                "output_dir": str(tmp_path / "red"),
            }
            path = write_manifest(tmp_path, doc)
            assert main(["run", str(path)]) == 2, key
            assert f"configuration error: {name} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "error",
        [IntegrationError("state became non-finite", 0.25), MeanModeError("mean mode"), ArithmeticError("singular")],
    )
    def test_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch, error):
        def failing_run(manifest):
            raise error

        monkeypatch.setattr(cli, "run_manifest", failing_run)
        path = write_manifest(tmp_path, two_jet_manifest(tmp_path))
        assert main(["run", str(path)]) == 3
        assert f"numerical failure ({type(error).__name__})" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_controlled_blowup_exit_3(self, tmp_path, capsys):
        doc = two_jet_manifest(tmp_path)
        doc["init"] = [{"n": 3, "m": 1, "re": 1e200, "im": 0.0}]
        assert main(["run", str(write_manifest(tmp_path, doc))]) == 3
        assert "numerical failure (IntegrationError): step size fell below" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unwritable_output_dir_exit_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("a regular file")
        for target in (tmp_path / "file" / "out", tmp_path / "file"):
            doc = {**two_jet_manifest(tmp_path), "output_dir": str(target)}
            assert main(["run", str(write_manifest(tmp_path, doc))]) == 2, target
            err = capsys.readouterr().err
            assert err.startswith(f"configuration error: cannot write output to {target}: "), err
            assert err.count("\n") == 1, err
        assert (tmp_path / "file").read_text() == "a regular file"

    def test_run_too_large_to_allocate_exit_2(self, tmp_path, capsys):
        # N = 10^7 asks for a 1.42 PiB coefficient table: more than the process can map,
        # so numpy's MemoryError comes at once, before any memory is touched.
        doc = two_jet_manifest(tmp_path)
        doc["cfg"]["N"] = 10_000_000
        assert main(["run", str(write_manifest(tmp_path, doc))]) == 2
        assert capsys.readouterr().err.startswith("configuration error: Unable to allocate 1.42 PiB")
        assert not (tmp_path / "out").exists()

    def test_fit_subcommand(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        t = np.linspace(0.0, 2.0, 60)
        rows = ["t,norm_ge3"] + [f"{ti},{math.exp(-4.0 * ti)}" for ti in t]
        csv_path.write_text("\n".join(rows) + "\n")
        code = main([
            "fit", "--input", str(csv_path), "--column", "norm_ge3",
            "--window", "0:2", "--reference", "-4.0", "--tolerance", "0.01",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fitted_rate"] == pytest.approx(-4.0, abs=1e-9)
        assert doc["pass"] is True

    def test_fit_missing_column_exit_2(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        csv_path.write_text("t,x\n0,1\n1,2\n")
        assert main(["fit", "--input", str(csv_path), "--column", "nope", "--window", "0:1"]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x,norm_ge3\n0,1\n", "column 't' not present in {path}"),
            ("t,norm_ge3\n0.1\n", "{path} line 2: expected 2 cells, found 1"),
            ("t,norm_ge3\n0,1\n0.1,2,3\n", "{path} line 3: expected 2 cells, found 3"),
            ("t,norm_ge3\n0,1\n0.1,\n", "{path} line 3, column 2 (norm_ge3): not a number: ''"),
            ("# Omega=2\nt,x,norm_ge3\n0,1,1\nzero,1,1\n", "{path} line 4, column 1 (t): not a number: 'zero'"),
        ],
    )
    def test_fit_bad_csv_exit_2_naming_line_and_column(self, tmp_path, capsys, text, message):
        csv_path = tmp_path / "series.csv"
        csv_path.write_text(text)
        assert main(["fit", "--input", str(csv_path), "--column", "norm_ge3", "--window", "0:1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"configuration error: {message.format(path=csv_path)}\n"

    @pytest.mark.parametrize("window", ["0-1", "a:1", "0:", "0:1:2"])
    def test_fit_bad_window_exit_2(self, tmp_path, capsys, window):
        csv_path = tmp_path / "series.csv"
        csv_path.write_text("t,norm_ge3\n0,1\n")
        assert main(["fit", "--input", str(csv_path), "--column", "norm_ge3", "--window", window]) == 2
        assert capsys.readouterr().err == f"configuration error: --window must be lo:hi with two numbers, got {window!r}\n"

    def test_fit_reads_the_csv_a_run_wrote(self, tmp_path, capsys):
        # The rotating trajectory starts with a '# Omega=...' comment; the t and
        # norm_ge3 columns read back equal the run's records bitwise.
        init = [{"n": 1, "m": 1, "re": 0.4}, {"n": 2, "m": 2, "re": 0.2, "im": -0.1}, {"n": 3, "m": 1, "re": 0.05}]
        cfg = {"nu": 1.0, "amplitude": 1.0, "N": 8, "t_end": 0.5, "snapshot_stride": 16}
        doc = {"scenario": "rotating", "cfg": cfg, "Omega": 1.5, "init": init, "output_dir": str(tmp_path / "rot")}
        assert run_manifest(doc)[0] == 0
        path = tmp_path / "rot" / "trajectory.csv"
        assert path.read_text().startswith("# Omega=1.5\n")
        records = pde_solver.run(field_from_entries(8, init), SolverConfig(**cfg, Omega=1.5), build_grid(8))
        t, ge3 = cli._load_csv_series(path, "norm_ge3")
        assert len(records) >= 10
        assert np.array_equal(t.view(np.uint64), np.array([r.t for r in records]).view(np.uint64))
        assert np.array_equal(ge3.view(np.uint64), np.array([r.norm_ge3 for r in records]).view(np.uint64))
        assert main(["fit", "--input", str(path), "--column", "norm_ge3", "--window", "0:0.5"]) == 0
        fit = json.loads(capsys.readouterr().out)
        assert fit["window"] == [0.0, 0.5] and fit["fitted_rate"] < -10.0

    @pytest.mark.parametrize(
        "option, value, name",
        [("--tolerance", "-0.5", "tolerance"), ("--tolerance", "nan", "tolerance"),
         ("--reference", "inf", "reference_rate"), ("--reference", "nan", "reference_rate")],
    )
    def test_fit_bad_tolerance_or_reference_exit_2(self, tmp_path, capsys, option, value, name):
        csv_path = tmp_path / "series.csv"
        t = np.linspace(0.0, 1.0, 41)
        csv_path.write_text("\n".join(["t,norm_ge3"] + [f"{ti},{math.exp(-2.0 * ti)}" for ti in t]) + "\n")
        argv = ["fit", "--input", str(csv_path), "--column", "norm_ge3", "--window", "0:1", "--reference=-2"]
        assert main(argv + [f"{option}={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: {name} must be"), captured.err

    def test_fit_missing_input_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["fit", "--input", str(missing), "--column", "norm_ge3", "--window", "0:1"]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("value, bad", [("nan", range(3, 15)), ("inf", [20])])
    def test_fit_non_finite_sample_exit_2(self, tmp_path, capsys, value, bad):
        # A run of NaNs must not be fitted on the samples left over, and one inf
        # is a data error named by its t, not a failure to print the fit.
        csv_path = tmp_path / "series.csv"
        t = np.linspace(0.0, 1.0, 41)
        v = [f"{math.exp(-2.0 * ti)}" for ti in t]
        for k in bad:
            v[k] = value
        csv_path.write_text("\n".join(["t,norm_ge3"] + [f"{ti},{vi}" for ti, vi in zip(t, v)]) + "\n")
        argv = ["fit", "--input", str(csv_path), "--column", "norm_ge3", "--window", "0:1", "--reference", "-2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"configuration error: non-finite sample {value} at t = {float(t[bad[0]])} in the fit window" in (
            captured.err
        )

    def test_init_missing_file_exit_2(self, tmp_path, capsys):
        path = write_manifest(tmp_path, {**two_jet_manifest(tmp_path), "init": str(tmp_path / "missing.json")})
        assert main(["run", str(path)]) == 2
        assert "configuration error: bad initial field" in capsys.readouterr().err
        # A field file is named by its path alone; {"path": ...} is not an init form.
        path = write_manifest(tmp_path, {**two_jet_manifest(tmp_path), "init": {"path": str(tmp_path / "missing.json")}})
        assert main(["run", str(path)]) == 2
        assert "configuration error: init must be an inline coefficient list or a file path, not {'path': " in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "out").exists()

    def test_init_file_degree_out_of_range_exit_2(self, tmp_path, capsys):
        field_path = tmp_path / "init.json"
        field_path.write_text(json.dumps({"N": 8, "coeffs": [{"n": 9, "m": 0, "re": 0.1}]}))
        path = write_manifest(tmp_path, {**two_jet_manifest(tmp_path), "init": str(field_path)})
        assert main(["run", str(path)]) == 2
        assert "degree n=9 outside 1..8" in capsys.readouterr().err

    def test_fit_rate_mismatch_exit_1(self, tmp_path, capsys):
        csv_path = tmp_path / "series.csv"
        t = np.linspace(0.0, 2.0, 40)
        rows = ["t,norm_ge3"] + [f"{ti},{math.exp(-4.0 * ti)}" for ti in t]
        csv_path.write_text("\n".join(rows) + "\n")
        code = main([
            "fit", "--input", str(csv_path), "--column", "norm_ge3",
            "--window", "0:2", "--reference", "-10.0",
        ])
        assert code == 1

    def test_init_from_field_file(self, tmp_path):
        field = SpectralField.zeros(8)
        field[1, 0] = 1.0
        field[3, 0] = 0.01
        path = tmp_path / "init.json"
        save_field(field, path)
        doc = {
            "scenario": "two_jet",
            "cfg": {"nu": 0.5, "amplitude": 1.0, "N": 8, "t_end": 0.25, "snapshot_stride": 20},
            "init": str(path),
            "output_dir": str(tmp_path / "file_init"),
        }
        code, report = run_manifest(doc)
        assert code == 0
        assert report["all_pass"]

    def test_equilibrium_subcommand(self, capsys):
        code = main([
            "equilibrium", "--nu", "1", "--a", "1", "--alpha-re", "1", "--alpha-im", "0", "--b", "0",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"]["omega_inf"][2]["re"] == pytest.approx(-0.375, abs=1e-12)
        assert doc["max_difference"] < 1e-12

    def test_equilibrium_subcommand_with_rotation(self, capsys):
        code = main([
            "equilibrium", "--nu", "1", "--a", "1", "--alpha-re", "1", "--b", "0",
            "--omega", "1.5",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["closed_form"]["b"] == pytest.approx(1.0)

    def test_equilibrium_cross_check_scales_with_the_equilibrium(self, tmp_path, capsys):
        # nu = 0.01, a = 1000, alpha = 2, b = -1: |w_inf| is about 911, and the two
        # routes differ by 3.2e-12 from round-off alone, 3.5e-15 relative.
        path = write_manifest(tmp_path, large_equilibrium_manifest(tmp_path))
        assert main(["run", str(path)]) == 0, capsys.readouterr().out
        check = json.loads((tmp_path / "red" / "report.json").read_text())["checks"][0]
        closed = json.loads((tmp_path / "red" / "equilibrium_closed_form.json").read_text())["omega_inf"]
        assert check["tolerance"] == 1e-12 * np.linalg.norm([complex(z["re"], z["im"]) for z in closed])
        assert 1e-12 < check["measured"] <= check["tolerance"]
        capsys.readouterr()
        assert main(LARGE_EQUILIBRIUM_ARGV) == 0
        assert json.loads(capsys.readouterr().out)["max_difference"] == check["measured"]

    def test_equilibrium_disagreement_exits_1(self, tmp_path, monkeypatch, capsys):
        # A solve off by 1e-9 relative fails the scenario and the subcommand alike, at any amplitude.
        solve = reduced_ode.equilibrium_solve
        monkeypatch.setattr(reduced_ode, "equilibrium_solve", lambda system: solve(system) * (1.0 + 1e-9))
        unit = {"scenario": "reduced_only", "cfg": {"nu": 1.0, "amplitude": 1.0, "N": 4},
                "init": [{"n": 1, "m": 1, "re": 2.0 * math.sqrt(6.0 * math.pi)}], "output_dir": str(tmp_path / "unit")}
        for doc in (unit, large_equilibrium_manifest(tmp_path)):
            assert main(["run", str(write_manifest(tmp_path, doc))]) == 1, doc
            assert "[FAIL] equilibrium_cross_check" in capsys.readouterr().out
        for argv in (["equilibrium", "--nu", "1", "--a", "1", "--alpha-re", "1", "--b", "0"], LARGE_EQUILIBRIUM_ARGV):
            assert main(argv) == 1, argv
            assert json.loads(capsys.readouterr().out)["max_difference"] > 1e-10

    def test_oracles_subcommand(self, capsys):
        assert main(["oracles", "--seed", "3", "--lmax", "6"]) == 0
        out = capsys.readouterr().out
        assert "killing_identity" in out


class TestOracleSuite:
    def test_residuals_are_tiny(self):
        residuals = identity_oracle_residuals(seed=11, lmax=10, n_triples=25, n_axes=6)
        assert max(residuals.values()) < 1e-11

    def test_lmax_floor(self):
        with pytest.raises(ValueError):
            identity_oracle_residuals(seed=0, lmax=3)


def test_solver_path_does_not_load_oracles():
    """A fresh interpreter importing the cli and the solver loads no sphkol.oracles, and the root re-exports nothing."""
    probe = (
        "import json, sys, types\n"
        "import sphkol, sphkol.cli, sphkol.pde_solver\n"
        "public = [k for k, v in vars(sphkol).items() if not k.startswith('_') and not isinstance(v, types.ModuleType)]\n"
        "print(json.dumps({'oracles': 'sphkol.oracles' in sys.modules, 'public': public}))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"oracles": False, "public": []}


def test_compute_modules_load_no_io_layer():
    """Importing every compute module loads no json, csv, cli or serializer, and none calls open: cli owns the formats."""
    probe = (
        "import sys\n"
        "import sphkol.harmonics, sphkol.sht, sphkol.operators, sphkol.pde_solver, sphkol.reduced_ode\n"
        "print(sorted(m for m in ('json', 'csv', 'sphkol.cli', 'sphkol.serialize') if m in sys.modules))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
    for name in ("harmonics", "sht", "operators", "pde_solver", "reduced_ode"):
        tree = ast.parse(Path(src, "sphkol", f"{name}.py").read_text())
        assert not any(isinstance(node, ast.Name) and node.id == "open" for node in ast.walk(tree)), name
