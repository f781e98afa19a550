"""Batch experiment runner and verification reporting.

Subcommands:
    run <manifest.json>      execute a scenario, write CSV/JSON outputs
    fit                      log-linear decay-rate fit on a trajectory column
    equilibrium              degree-2 equilibrium by both routes
    oracles                  randomized integral-identity suites (sphkol.oracles)

sphkol.oracles is imported only by the oracles subcommand and the
identity_oracles scenario.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error,
3 numerical failure (IntegrationError, MeanModeError, ArithmeticError).
Each input is checked once, by the code that reads it.  A scenario computes
everything before run_manifest creates its output directory, so a run that
fails writes nothing; a directory or file that cannot be written is a
configuration error.  A non-empty SPHKOL_OUT overrides the manifest's output
directory; an empty one counts as unset.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import pde_solver, reduced_ode
from .harmonics import build_grid
from .operators import KillingParams
from .pde_solver import IntegrationError, SolverConfig, trajectory_csv
from .serialize import dumps17
from .sht import MeanModeError, SpectralField

# Scenario -> (top-level keys it reads besides scenario, output_dir, cfg and seed; the cfg keys it reads).
FLOW_CFG = ("nu", "amplitude", "N", "t_end", "dt", "snapshot_stride")
MANIFEST_KEYS = {
    "two_jet": (("init",), FLOW_CFG),
    "one_jet": (("init",), FLOW_CFG),
    "rotating": (("init", "Omega"), FLOW_CFG),
    "reduced_only": (("init",), ("nu", "amplitude", "N")),
    "identity_oracles": (("lmax",), ()),
}
SCENARIOS = tuple(MANIFEST_KEYS)
JET_ORDER = {"two_jet": "two_jet", "one_jet": "one_jet", "rotating": "two_jet"}  # flow scenario -> base flow


class ManifestError(ValueError):
    """The experiment manifest is malformed or inconsistent."""


@dataclass
class RateFit:
    """Least-squares exponent of log(norm) vs t over a window."""

    window: tuple[float, float]
    fitted_rate: float
    r_squared: float
    reference_rate: float | None
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "window": [self.window[0], self.window[1]],
            "fitted_rate": self.fitted_rate,
            "r_squared": self.r_squared,
            "reference_rate": self.reference_rate,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def fit_rate(times, values, window, reference_rate=None, tolerance=0.05) -> RateFit:
    """Fit values ~ exp(rate * t) over the window; pass needs rate match and r^2 >= 0.999.

    A series identically below 1e-14 short-circuits to a pass at the reference
    rate (nothing left to measure); nonpositive values above that floor are a
    data error.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    mask = (t >= lo) & (t <= hi)
    if int(mask.sum()) < 10:
        raise ValueError(f"need at least 10 samples in window [{lo}, {hi}], have {int(mask.sum())}")
    tw, vw = t[mask], v[mask]
    if np.all(np.abs(vw) < 1e-14):
        ref = 0.0 if reference_rate is None else float(reference_rate)
        return RateFit((lo, hi), ref, 1.0, reference_rate, tolerance, True)
    if np.any((vw <= 0.0) & (np.abs(vw) > 1e-14)):
        raise ValueError("nonpositive norms inside the fit window")
    keep = vw >= 1e-14
    if int(keep.sum()) < 10:
        raise ValueError("fewer than 10 usable samples above the 1e-14 floor")
    x, y = tw[keep], np.log(vw[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    if reference_rate is None:
        passed = True
    elif reference_rate == 0.0:
        passed = abs(slope) <= tolerance and r2 >= 0.999
    else:
        passed = abs(slope - reference_rate) / abs(reference_rate) <= tolerance and r2 >= 0.999
    return RateFit((lo, hi), float(slope), float(r2), reference_rate, tolerance, bool(passed))


def _integer(value, name: str) -> int:
    """A manifest integer; a boolean or a number with a fractional part is rejected, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ManifestError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"{name} must be an integer: {exc}") from exc


def _parse_init(init, N: int) -> SpectralField:
    """The initial field from an inline coefficient list or a field file path."""
    if not isinstance(init, (str, list)):
        raise ManifestError(f"init must be an inline coefficient list or a file path, not {init!r}")
    try:
        if isinstance(init, str):
            return SpectralField.load(init)
        return SpectralField.from_json_dict({"N": N, "coeffs": init})
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise ManifestError(f"bad initial field: {exc}") from exc


def _solver_config(doc: dict, jet_order: str, Omega: float) -> SolverConfig:
    try:
        return SolverConfig(
            nu=float(doc["nu"]),
            amplitude=float(doc["amplitude"]),
            N=_integer(doc["N"], "N"),
            t_end=float(doc["t_end"]),
            dt=None if doc.get("dt") is None else float(doc["dt"]),
            snapshot_stride=_integer(doc.get("snapshot_stride", 10), "snapshot_stride"),
            jet_order=jet_order,
            Omega=Omega,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"bad solver configuration: {exc}") from exc


def _checked(doc) -> dict:
    """The manifest with its top level and keys checked; Omega (0 unless rotating) and seed parsed."""
    if not isinstance(doc, dict) or doc.get("scenario") not in SCENARIOS:
        raise ManifestError(f"scenario must be one of {SCENARIOS}")
    scenario = doc["scenario"]
    if not isinstance(doc.get("output_dir"), str) or not doc["output_dir"]:
        raise ManifestError("manifest needs an output_dir, a non-empty string")
    cfg = doc.get("cfg", {})
    if not isinstance(cfg, dict):
        raise ManifestError("cfg must be an object")
    top_keys, cfg_keys = MANIFEST_KEYS[scenario]
    top_keys += ("scenario", "output_dir", "cfg", "seed")
    for where, keys, allowed in (("", doc, top_keys), ("cfg ", cfg, cfg_keys)):
        unknown = ", ".join(repr(key) for key in keys if key not in allowed)
        if unknown:
            raise ManifestError(f"{scenario} manifest {where}has key(s) no run reads: {unknown}")
    if scenario == "rotating" and doc.get("Omega") is None:
        raise ManifestError("rotating scenario needs Omega")
    try:
        Omega = float(doc.get("Omega", 0.0))
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"Omega must be a number: {exc}") from exc
    return {**doc, "cfg": cfg, "Omega": Omega, "seed": _integer(doc.get("seed", 0), "seed")}


def load_manifest(path) -> dict:
    """Read a manifest file; run_manifest checks it."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestError(f"cannot read manifest: {exc}") from exc


def _check(name: str, measured: float | None, tolerance: float, note: str | None = None) -> dict:
    """A check entry; measured None marks it not applicable (it passes, and note says why)."""
    if measured is None:
        return {"name": name, "measured": None, "tolerance": float(tolerance), "pass": True, "note": note}
    return {
        "name": name,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "pass": bool(measured <= tolerance),
    }


ROUNDOFF_FLOOR = 1e-14  # relative to |w(t)|: a decaying norm cannot be resolved below it


def _state_norm(rec) -> float:
    """|w(t)| from a snapshot's degree-1, degree-2 and degree >= 3 parts."""
    return math.sqrt(rec.norm_eq1**2 + float(np.linalg.norm(rec.mode2)) ** 2 + rec.norm_ge3**2)


def _worst_ratio(records, bound_fn, norm_fn) -> float:
    """max over records of norm / max(bound, ROUNDOFF_FLOOR |w(t)|) - 1, floored at 0.

    Once a decay bound falls below the round-off of the state, the norm is
    held to that floor instead: it still fails if it rises above it.
    """
    worst = 0.0
    for rec in records:
        norm, bound = norm_fn(rec), bound_fn(rec)
        if norm > bound:  # only a norm above its bound can raise the worst ratio
            worst = max(worst, norm / max(bound, ROUNDOFF_FLOOR * _state_norm(rec)) - 1.0)
    return worst


def _decay_margin(records, rate: float, norm_fn) -> float:
    """max over snapshots of norm(t) / (norm(0) e^{-rate t}) - 1 above the round-off floor; 0 for an empty start."""
    n0 = norm_fn(records[0])
    if n0 < 1e-14:
        return 0.0
    return _worst_ratio(records[1:], lambda rec: n0 * math.exp(-rate * rec.t), norm_fn)


def _envelope_margin(records, nu: float) -> float | None:
    """Degree-2 distance against the e^{-2 nu t} envelope anchored past the transient.

    None when no snapshot reaches t = 1/nu: the envelope is not tested.  The
    round-off floor of _worst_ratio applies.
    """
    anchor = next((r for r in records if r.t >= 1.0 / nu), None)
    if anchor is None:
        return None
    if anchor.norm_eq2_dist < 1e-12:
        return 0.0
    return _worst_ratio(
        [rec for rec in records if rec.t > anchor.t],
        lambda rec: anchor.norm_eq2_dist * math.exp(-2.0 * nu * (rec.t - anchor.t)),
        lambda rec: rec.norm_eq2_dist,
    )


# A scenario runner maps the checked manifest to (report body, outputs): the body
# holds the checks and names each file by its role; outputs maps each file name
# to its text or to a JSON document.


def _run_flow_scenario(doc: dict) -> tuple[dict, dict]:
    """The two_jet, one_jet and rotating scenarios: one PDE run, its checks, files, step counts and grid shape."""
    scenario, Omega = doc["scenario"], doc["Omega"]
    cfg = _solver_config(doc["cfg"], JET_ORDER[scenario], Omega)
    omega0 = _parse_init(doc.get("init"), cfg.N)
    grid = build_grid(cfg.N)
    records = pde_solver.run(omega0, cfg, grid)
    params = KillingParams.from_field(omega0)
    header = None
    if scenario == "rotating":
        header = f"Omega={Omega:.17g}"
        params = reduced_ode.rotating_frame_params(params, Omega)
    outputs = {"trajectory.csv": trajectory_csv(records, header_comment=header)}
    files = {"trajectory": "trajectory.csv"}
    steps = {
        "mode": "fixed" if cfg.dt is not None else "controlled",
        "accepted": records[-1].steps,
        "rejected": records[-1].rejected,
        "rtol": None if cfg.dt is not None else pde_solver.STEP_RTOL,
    }
    shape = {"n_theta": grid.n_theta, "n_phi": grid.n_phi}

    # Degree-1 data is conserved, in a rotating frame up to the phases exp(i m Omega t).
    m1_orders = np.array([1.0, 0.0, -1.0])
    drift = max(
        float(np.max(np.abs(rec.mode1 - np.exp(1j * Omega * rec.t * m1_orders) * records[0].mode1)))
        for rec in records
    )
    checks = [_check("degree1_phase_law" if scenario == "rotating" else "degree1_conservation", drift, 1e-9)]
    if scenario == "one_jet":
        ge2 = _decay_margin(records, 4.0 * cfg.nu, lambda r: math.hypot(r.norm_eq2_dist, r.norm_ge3))
        checks.append(_check("degree_ge2_decay", ge2, 1e-6))
        return {"checks": checks, "files": files, "steps": steps, "grid": shape}, outputs

    checks.append(
        _check("degree_ge3_decay", _decay_margin(records, 10.0 * cfg.nu, lambda r: r.norm_ge3), 1e-6)
    )
    checks.append(
        _check(
            "degree2_convergence_envelope",
            _envelope_margin(records, cfg.nu),
            1e-6,
            note="run ends before t = 1/nu",
        )
    )
    system = reduced_ode.build_system(params, cfg.amplitude, cfg.nu)
    outputs["equilibrium.json"] = reduced_ode.equilibrium_report(system, params, cfg.amplitude, "closed_form")
    files["equilibrium"] = "equilibrium.json"
    return {"checks": checks, "files": files, "steps": steps, "grid": shape}, outputs


def _equilibrium_cross_check(params: KillingParams, amplitude: float, nu: float) -> tuple[dict, dict]:
    """Closed-form and solved equilibrium reports, keyed by method, and the check of their difference.

    The difference is the vector norm of the two 5-vectors' difference, held
    to 1e-12 max(1, |closed form|): round-off grows with the equilibrium.
    """
    system = reduced_ode.build_system(params, amplitude, nu)
    reports = {m: reduced_ode.equilibrium_report(system, params, amplitude, m) for m in ("closed_form", "solve")}
    cf, sv = (np.array([complex(z["re"], z["im"]) for z in rep["omega_inf"]]) for rep in reports.values())
    tolerance = 1e-12 * max(1.0, float(np.linalg.norm(cf)))
    return reports, _check("equilibrium_cross_check", float(np.linalg.norm(cf - sv)), tolerance)


def _oracle_checks(seed: int, lmax: int) -> tuple[dict, list[dict]]:
    """The identity-oracle residuals by name and a check of each against 1e-10."""
    from .oracles import identity_oracle_residuals

    residuals = identity_oracle_residuals(seed, lmax)
    return residuals, [_check(name, value, 1e-10) for name, value in residuals.items()]


def _run_reduced_scenario(doc: dict) -> tuple[dict, dict]:
    """The closed-form and solved equilibria of the init's degree-1 data, and their cross-check."""
    cfg = doc["cfg"]
    try:
        nu, amplitude = float(cfg["nu"]), float(cfg["amplitude"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ManifestError(f"reduced_only needs cfg.nu and cfg.amplitude: {exc}") from exc
    params = KillingParams.from_field(_parse_init(doc.get("init"), _integer(cfg.get("N", 4), "N")))
    reports, check = _equilibrium_cross_check(params, amplitude, nu)
    files = {method: f"equilibrium_{method}.json" for method in reports}
    return {"checks": [check], "files": files}, {files[method]: rep for method, rep in reports.items()}


def _run_oracles_scenario(doc: dict) -> tuple[dict, dict]:
    """The identity-oracle residuals at degree lmax (16 when left out)."""
    lmax = _integer(16 if doc.get("lmax") is None else doc["lmax"], "lmax")
    residuals, checks = _oracle_checks(doc["seed"], lmax)
    return {"checks": checks, "files": {"residuals": "oracle_residuals.json"}}, {"oracle_residuals.json": residuals}


def run_manifest(manifest) -> tuple[int, dict]:
    """Execute a manifest (dict or path); returns (exit_code, report).

    The output directory is created only once the scenario has computed all
    it writes, so a run that fails writes nothing.
    """
    doc = _checked(manifest if isinstance(manifest, dict) else load_manifest(manifest))
    runner = {"reduced_only": _run_reduced_scenario, "identity_oracles": _run_oracles_scenario}
    body, outputs = runner.get(doc["scenario"], _run_flow_scenario)(doc)

    report = {"scenario": doc["scenario"], "seed": doc["seed"], **body}
    report["all_pass"] = all(c["pass"] for c in body["checks"])
    outputs["report.json"] = report
    outdir = Path(os.environ.get("SPHKOL_OUT") or doc["output_dir"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for name, content in outputs.items():
            text = content if isinstance(content, str) else dumps17(content, indent=2) + "\n"
            (outdir / name).write_text(text, newline="\n")
    except OSError as exc:
        raise ManifestError(f"cannot write output to {outdir}: {exc}") from exc
    return (0 if report["all_pass"] else 1), report


def _load_csv_series(path, column: str):
    times, values = [], []
    try:
        with open(path) as fh:
            rows = [line for line in fh if not line.startswith("#")]
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    reader = csv.DictReader(rows)
    if reader.fieldnames is None or column not in reader.fieldnames:
        raise ValueError(f"column {column!r} not present in {path}")
    for row in reader:
        times.append(float(row["t"]))
        values.append(float(row[column]))
    return np.array(times), np.array(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sphkol", description="spherical two-jet flow experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment manifest")
    p_run.add_argument("manifest")

    p_fit = sub.add_parser("fit", help="fit a decay rate on a trajectory column")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--column", required=True)
    p_fit.add_argument("--window", required=True, help="lo:hi")
    p_fit.add_argument("--reference", type=float, default=None)
    p_fit.add_argument("--tolerance", type=float, default=0.05)

    p_eq = sub.add_parser("equilibrium", help="degree-2 equilibrium by both routes")
    p_eq.add_argument("--nu", type=float, required=True)
    p_eq.add_argument("--a", type=float, required=True)
    p_eq.add_argument("--alpha-re", type=float, required=True)
    p_eq.add_argument("--alpha-im", type=float, default=0.0)
    p_eq.add_argument("--b", type=float, required=True)
    p_eq.add_argument("--omega", type=float, default=None)

    p_or = sub.add_parser("oracles", help="randomized identity-oracle suites")
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--lmax", type=int, default=16)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            code, report = run_manifest(args.manifest)
            for check in report["checks"]:
                if check["measured"] is None:
                    print(f"[N/A] {check['name']}: {check['note']}")
                    continue
                state = "PASS" if check["pass"] else "FAIL"
                print(f"[{state}] {check['name']}: measured {check['measured']:.3e} "
                      f"(tolerance {check['tolerance']:.3e})")
            return code
        if args.command == "fit":
            lo, _, hi = args.window.partition(":")
            t, v = _load_csv_series(args.input, args.column)
            fit = fit_rate(t, v, (float(lo), float(hi)), args.reference, args.tolerance)
            print(dumps17(fit.to_dict(), indent=2))
            return 0 if fit.passed else 1
        if args.command == "equilibrium":
            params = KillingParams(alpha=complex(args.alpha_re, args.alpha_im), b=args.b)
            if args.omega is not None:
                params = reduced_ode.rotating_frame_params(params, args.omega)
            doc, check = _equilibrium_cross_check(params, args.a, args.nu)
            doc["max_difference"] = check["measured"]  # vector norm: bounds every entry's difference
            print(dumps17(doc, indent=2))
            return 0 if check["pass"] else 1
        residuals, checks = _oracle_checks(args.seed, args.lmax)  # the oracles subcommand
        for name, value in residuals.items():
            print(f"{name}: {value:.3e}")
        return 0 if all(c["pass"] for c in checks) else 1
    except (IntegrationError, MeanModeError, ArithmeticError) as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
