"""Batch experiment runner, verification reporting, and every sphkol file format.

Subcommands:
    run <manifest.json>      execute a scenario, write CSV/JSON outputs
    fit                      log-linear decay-rate fit on a trajectory column
    equilibrium              degree-2 equilibrium by both routes
    oracles                  randomized integral-identity suites (sphkol.oracles)

sphkol.oracles is imported only by the oracles subcommand and the
identity_oracles scenario.

This is the package's one I/O layer: it reads manifests, field files and
trajectory CSVs and writes every output, while harmonics, sht, operators,
pde_solver and reduced_ode read and write nothing.  Floats are written with
17 significant digits (_float_format, for dumps17 and the trajectory CSV), not
json's repr, whose digit count varies by value, so that the files are
byte-stable across platforms.

Exit codes: 0 all checks pass, 1 a check failed, 2 configuration error or a run
too large to allocate, 3 numerical failure (IntegrationError, MeanModeError, ArithmeticError).
Each input is checked once, by the code that reads it: every number of a
manifest or a field file by _number.  A scenario computes
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
from pathlib import Path

import numpy as np

from . import pde_solver, reduced_ode
from .harmonics import build_grid
from .operators import KillingParams
from .pde_solver import IntegrationError, SolverConfig
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
TRAJECTORY_HEADER = (
    "t,norm_eq1,norm_eq2_dist,norm_ge3,"
    "re_w22,im_w22,re_w21,im_w21,re_w20,im_w20,re_w2m1,im_w2m1,re_w2m2,im_w2m2"
)


class ManifestError(ValueError):
    """The experiment manifest is malformed or inconsistent."""


def _float_format(width: int, finite: bool):
    """The str.format of width comma-separated floats with 17 significant digits; finite False is a ValueError.

    The caller checks its values: one math.isfinite for a scalar, one array-wide check for a table.
    """
    if not finite:
        raise ValueError("non-finite float cannot be serialized")
    return ",".join(["{:.17g}"] * width).format


def dumps17(obj, indent: int = 0, _level: int = 0) -> str:
    """Serialize dicts/lists/str/bool/None/int/float; floats use 17 significant digits."""
    if obj is None or isinstance(obj, bool):
        return {None: "null", True: "true", False: "false"}[obj]
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _float_format(1, math.isfinite(obj))(float(obj))
    if isinstance(obj, complex):
        raise TypeError("serialize complex values as explicit re/im pairs")
    if isinstance(obj, (dict, list, tuple)):
        keyed = isinstance(obj, dict)
        pairs = obj.items() if keyed else ((None, v) for v in obj)
        items = [(f"{dumps17(str(k))}: " if keyed else "") + dumps17(v, indent, _level + 1) for k, v in pairs]
        first, last = "{}" if keyed else "[]"
        if not items or not indent:
            return first + ", ".join(items) + last
        pad = "\n" + " " * (indent * (_level + 1))
        return first + pad + ("," + pad).join(items) + "\n" + " " * (indent * _level) + last
    try:
        return dumps17(obj.item(), indent, _level)  # numpy scalars
    except AttributeError:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def fit_rate(times, values, window, reference_rate=None, tolerance=0.05) -> dict:
    """Fit values ~ exp(rate * t) over the window; pass needs rate match and r^2 >= 0.999.

    Returns the document `sphkol fit` prints.  A negative or non-finite
    tolerance, a non-finite reference_rate, a non-finite sample in the window
    (named by its t) and nonpositive values above 1e-14 are data errors; a
    series identically below that short-circuits to a pass at the reference.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise ValueError(f"tolerance must be finite and nonnegative, got {tolerance!r}")
    if reference_rate is not None and not math.isfinite(reference_rate):
        raise ValueError(f"reference_rate must be finite, got {reference_rate!r}")
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    lo, hi = float(window[0]), float(window[1])
    mask = (t >= lo) & (t <= hi)
    if int(mask.sum()) < 10:
        raise ValueError(f"need at least 10 samples in window [{lo}, {hi}], have {int(mask.sum())}")
    tw, vw = t[mask], v[mask]
    finite = np.isfinite(vw)
    if not finite.all():
        k = int(np.argmin(finite))
        raise ValueError(f"non-finite sample {float(vw[k])} at t = {float(tw[k])} in the fit window")
    if np.all(np.abs(vw) < 1e-14):
        rate, r2, passed = 0.0 if reference_rate is None else float(reference_rate), 1.0, True
    else:
        if np.any((vw <= 0.0) & (np.abs(vw) > 1e-14)):
            raise ValueError("nonpositive norms inside the fit window")
        keep = vw >= 1e-14
        if int(keep.sum()) < 10:
            raise ValueError("fewer than 10 usable samples above the 1e-14 floor")
        x, y = tw[keep], np.log(vw[keep])
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        rate, r2 = float(slope), 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
        if reference_rate is None:
            passed = True
        elif reference_rate == 0.0:
            passed = abs(rate) <= tolerance and r2 >= 0.999
        else:
            passed = abs(rate - reference_rate) / abs(reference_rate) <= tolerance and r2 >= 0.999
    return {
        "window": [lo, hi],
        "fitted_rate": rate,
        "r_squared": r2,
        "reference_rate": reference_rate,
        "tolerance": tolerance,
        "pass": bool(passed),
    }


def _number(value, name: str, integer: bool = False):
    """value read as int() (integer) or float() reads it, or a ManifestError that names it.

    A boolean, and a fractional part where an integer is read, are rejected,
    not truncated.  A list is a column, read into an array: plain ints (or
    floats) take one type check; else each entry k is read as "{name} of
    entry {k}" (k from 0), so the first bad one is named.
    """
    if isinstance(value, list):
        kinds = int if integer else (int, float)
        if all(kind is not bool and issubclass(kind, kinds) for kind in set(map(type, value))):
            try:
                return np.array(value, dtype=None if integer else float)
            except OverflowError:
                pass  # an int too large for a float: named below
        return np.array([_number(item, f"{name} of entry {k}", integer) for k, item in enumerate(value)])
    what = "an integer" if integer else "a number"
    if isinstance(value, bool) or (integer and isinstance(value, float) and not value.is_integer()):
        raise ManifestError(f"{name} must be {what}, got {value!r}")
    try:
        return int(value) if integer else float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ManifestError(f"{name} must be {what}: {exc}") from exc


def field_from_entries(N, entries) -> SpectralField:
    """The degree-N field of a list of m >= 0 entries {"n", "m", "re", "im"}; "im" defaults to 0.

    _number reads each column into an array; the first entry the array checks
    find bad is checked again on its own, so that the error names it.  An (n, m)
    listed twice is an error, named at its second entry.  Orders m < 0
    follow from reality.
    """
    out = SpectralField.zeros(_number(N, "N", integer=True))
    items = list(entries)
    if not items:
        return out
    n = _number([item["n"] for item in items], "n", integer=True)
    m = _number([item["m"] for item in items], "m", integer=True)
    re = _number([item["re"] for item in items], "re")
    im = _number([item.get("im", 0.0) for item in items], "im")
    finite = np.isfinite(re) & np.isfinite(im)
    bad = (m < 0) | ~finite | (n < 1) | (n > out.N) | (m > n) | ((m == 0) & (im != 0.0))
    if bad.any():
        k = int(np.argmax(bad))
        if m[k] < 0:
            raise ValueError("coefficients are listed for m >= 0; negative orders are implied")
        if not finite[k]:
            raise ValueError(f"coefficient ({n[k]}, {m[k]}) is not finite")
        out[int(n[k]), int(m[k])] = complex(re[k], im[k])  # raises: out of range, or imaginary at m = 0
    first = np.zeros(n.size, dtype=bool)
    first[np.unique(n * (out.N + 1) + m, return_index=True)[1]] = True
    if not first.all():
        k = int(np.argmin(first))
        raise ValueError(f"coefficient ({n[k]}, {m[k]}) is listed more than once")
    im[m == 0] = 0.0
    out.coeffs.real[n, m] = re
    out.coeffs.imag[n, m] = im
    return out


def save_field(field: SpectralField, path) -> None:
    """Write N and the m >= 0 entries as JSON; negative orders are implied by reality."""
    entries = [
        {"n": n, "m": m, "re": field.coeffs[n, m].real, "im": field.coeffs[n, m].imag}
        for n in range(1, field.N + 1)
        for m in range(n + 1)
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps17({"N": field.N, "coeffs": entries}) + "\n")


def load_field(path) -> SpectralField:
    """The field of a save_field file."""
    with open(path) as fh:
        doc = json.load(fh)
    return field_from_entries(doc["N"], doc["coeffs"])


def _parse_init(init, N: int) -> SpectralField:
    """The initial field from an inline coefficient list or a field file path."""
    if not isinstance(init, (str, list)):
        raise ManifestError(f"init must be an inline coefficient list or a file path, not {init!r}")
    try:
        if isinstance(init, str):
            return load_field(init)
        return field_from_entries(N, init)
    except (OSError, KeyError, TypeError, ValueError, IndexError) as exc:
        raise ManifestError(f"bad initial field: {exc}") from exc


def _solver_config(doc: dict, jet_order: str, Omega: float) -> SolverConfig:
    try:
        return SolverConfig(
            nu=_number(doc["nu"], "nu"),
            amplitude=_number(doc["amplitude"], "amplitude"),
            N=_number(doc["N"], "N", integer=True),
            t_end=_number(doc["t_end"], "t_end"),
            dt=None if doc.get("dt") is None else _number(doc["dt"], "dt"),
            snapshot_stride=_number(doc.get("snapshot_stride", 10), "snapshot_stride", integer=True),
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
    Omega, seed = _number(doc.get("Omega", 0.0), "Omega"), _number(doc.get("seed", 0), "seed", integer=True)
    return {**doc, "cfg": cfg, "Omega": Omega, "seed": seed}


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
    cfg = _solver_config(doc["cfg"], "one_jet" if scenario == "one_jet" else "two_jet", Omega)
    omega0 = _parse_init(doc.get("init"), cfg.N)
    grid = build_grid(cfg.N)
    records = pde_solver.run(omega0, cfg, grid)
    header = f"Omega={dumps17(Omega)}" if scenario == "rotating" else None
    outputs = {"trajectory.csv": trajectory_csv(records, header_comment=header)}
    files = {"trajectory": "trajectory.csv"}
    steps = {
        "mode": "fixed" if cfg.dt is not None else "controlled",
        "accepted": records[-1].steps,
        "rejected": records[-1].rejected,
        "rtol": None if cfg.dt is not None else pde_solver.STEP_RTOL,
        "dt_lattice": records.dt,
    }
    shape = {"n_theta": grid.n_theta, "n_phi": grid.n_phi}

    # Degree-1 data is conserved, in a rotating frame up to the phases exp(i m Omega t).
    mode1 = np.array([rec.mode1 for rec in records])
    phases = reduced_ode.frame_phases(Omega, np.array([rec.t for rec in records])[:, None], (1, 0, -1))
    drift = float(np.max(np.abs(mode1 - phases * mode1[0])))
    checks = [_check("degree1_phase_law" if scenario == "rotating" else "degree1_conservation", drift, 1e-9)]
    if scenario == "one_jet":
        ge2 = _decay_margin(records, 4.0 * cfg.nu, lambda r: math.hypot(r.norm_eq2_dist, r.norm_ge3))
        checks.append(_check("degree_ge2_decay", ge2, 1e-6))
    else:
        ge3 = _decay_margin(records, 10.0 * cfg.nu, lambda r: r.norm_ge3)
        checks.append(_check("degree_ge3_decay", ge3, 1e-6))
        envelope = _envelope_margin(records, cfg.nu)
        checks.append(_check("degree2_convergence_envelope", envelope, 1e-6, note="run ends before t = 1/nu"))
        amplitude = cfg.flow[0]
        system = reduced_ode.build_system(records.params, amplitude, cfg.nu)
        report = equilibrium_report(system, records.params, amplitude, "closed_form", records.attractor)
        outputs["equilibrium.json"] = report
        files["equilibrium"] = "equilibrium.json"
    return {"checks": checks, "files": files, "steps": steps, "grid": shape}, outputs


def equilibrium_report(sys: reduced_ode.ReducedSystem, params: KillingParams, amplitude: float, method: str, w) -> dict:
    """JSON-ready record of the equilibrium w of sys = build_system(params, amplitude, nu), found by method."""
    residual = float(np.linalg.norm(sys.operator @ w - sys.c))
    return {
        "nu": float(sys.nu),
        "a": float(amplitude),
        "alpha": {"re": params.alpha.real, "im": params.alpha.imag},
        "b": float(params.b),
        "omega_inf": [{"re": z.real, "im": z.imag} for z in w],
        "method": method,
        "residual": residual,
    }


def _equilibrium_cross_check(params: KillingParams, amplitude: float, nu: float) -> tuple[dict, dict]:
    """Closed-form and solved equilibrium reports, keyed by method, and the check of their difference.

    The difference is the vector norm of the two 5-vectors' difference, held
    to 1e-12 max(1, |closed form|): round-off grows with the equilibrium.
    """
    system = reduced_ode.build_system(params, amplitude, nu)
    cf = reduced_ode.equilibrium_closed_form(params, amplitude, nu)
    sv = reduced_ode.equilibrium_solve(system)
    reports = {
        method: equilibrium_report(system, params, amplitude, method, w)
        for method, w in (("closed_form", cf), ("solve", sv))
    }
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
        nu, amplitude = _number(cfg["nu"], "nu"), _number(cfg["amplitude"], "amplitude")
    except KeyError as exc:
        raise ManifestError(f"reduced_only needs cfg.nu and cfg.amplitude: {exc}") from exc
    params = KillingParams.from_field(_parse_init(doc.get("init"), _number(cfg.get("N", 4), "N", integer=True)))
    reports, check = _equilibrium_cross_check(params, amplitude, nu)
    files = {method: f"equilibrium_{method}.json" for method in reports}
    return {"checks": [check], "files": files}, {files[method]: rep for method, rep in reports.items()}


def _run_oracles_scenario(doc: dict) -> tuple[dict, dict]:
    """The identity-oracle residuals at degree lmax (16 when left out)."""
    lmax = _number(16 if doc.get("lmax") is None else doc["lmax"], "lmax", integer=True)
    residuals, checks = _oracle_checks(doc["seed"], lmax)
    return {"checks": checks, "files": {"residuals": "oracle_residuals.json"}}, {"oracle_residuals.json": residuals}


def run_manifest(manifest) -> tuple[int, dict]:
    """Execute a manifest (dict or path); returns (exit_code, report).

    The output directory is created only once the scenario has computed all
    it writes, so a run that fails writes nothing.
    """
    if not isinstance(manifest, dict):
        try:
            with open(manifest) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ManifestError(f"cannot read manifest: {exc}") from exc
    doc = _checked(manifest)
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


def trajectory_csv(records, header_comment: str | None = None) -> str:
    """Snapshot diagnostics as CSV text: 17-significant-digit floats, as dumps17 writes them, LF line ends."""
    table = np.array([(rec.t, rec.norm_eq1, rec.norm_eq2_dist, rec.norm_ge3, *rec.mode2.view(float))
                      for rec in records])  # re, im of each mode
    row = _float_format(table.shape[1], np.isfinite(table).all())
    lines = [] if header_comment is None else [f"# {header_comment}"]
    lines.append(TRAJECTORY_HEADER)
    lines.extend(row(*values) for values in table.tolist())
    return "\n".join(lines) + "\n"


def _load_csv_series(path, column: str):
    """The t column and the named one of a CSV with '#' comment lines; a bad cell is named by line and column."""
    try:
        with open(path, newline="") as fh:
            rows = [(k, cells) for k, line in enumerate(fh, 1) if not line.startswith("#")
                    for cells in csv.reader([line]) if cells]  # blank lines skipped
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    header = rows[0][1] if rows else []
    for name in ("t", column):
        if name not in header:
            raise ValueError(f"column {name!r} not present in {path}")
    cols = [header.index(name) for name in ("t", column)]
    series = np.empty((len(rows) - 1, 2))
    for (k, cells), out in zip(rows[1:], series):
        if len(cells) != len(header):
            raise ValueError(f"{path} line {k}: expected {len(header)} cells, found {len(cells)}")
        for j, col in enumerate(cols):
            try:
                out[j] = float(cells[col])
            except ValueError:
                where = f"{path} line {k}, column {col + 1} ({header[col]})"
                raise ValueError(f"{where}: not a number: {cells[col]!r}") from None
    return series[:, 0], series[:, 1]


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
            try:
                lo, hi = map(float, args.window.split(":"))  # a wrong count of parts is a ValueError too
            except ValueError:
                raise ValueError(f"--window must be lo:hi with two numbers, got {args.window!r}") from None
            t, v = _load_csv_series(args.input, args.column)
            fit = fit_rate(t, v, (lo, hi), args.reference, args.tolerance)
            print(dumps17(fit, indent=2))
            return 0 if fit["pass"] else 1
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
    except (ValueError, MemoryError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
