"""Workloads: seeded inputs, one operation each, and the gate its result must pass.

An operation runs from generated inputs to a checked result.  The manifest
workloads go through ``cli.run_manifest``; the coupling workload runs
``pde_solver.run_with_coupling`` and closes the loop with
``reduced_ode.propagate_forced``.  Every call goes through a module attribute
at call time, so the spans the tracer installs there are seen.

Import this module only after ``program.load()``.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sphkol import cli, harmonics, operators, pde_solver, reduced_ode, sht

# Failures of the program that count as one failed operation; anything else is
# a defect of the benchmark and stops it.
PROGRAM_ERRORS = (pde_solver.IntegrationError, sht.MeanModeError, ArithmeticError)

# Acceptance tolerances the gates apply (those of the acceptance suite).
CONSERVATION_TOL = 1e-9
DECAY_TOL = 1e-6
CLOSURE_TOL = 1e-5
TWO_JET_CHECKS = frozenset(
    {"degree1_conservation", "degree_ge3_decay", "degree2_convergence_envelope"}
)

BASE_FLOW = 1.0  # base-flow amplitude a of every workload
PROBE_DT = 1e-3  # step of the set-up probe; set-up does not depend on it


def random_field(N: int, seed: int, index: int, amplitude: float, decay: float):
    """The index-th input field of a run seeded with seed (PCG64)."""
    rng = np.random.Generator(np.random.PCG64([seed, index]))
    return sht.random_real_field(N, rng, amplitude=amplitude, decay=decay)


def inline_coefficients(field) -> list[dict]:
    """The m >= 0 coefficients of a real field, as a manifest's inline ``init``."""
    out = []
    for n in range(1, field.N + 1):
        for m in range(n + 1):
            z = field[n, m]
            out.append({"n": n, "m": m, "re": z.real, "im": z.imag})
    return out


def read_trajectory(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def manifest_gate(report: dict, outdir: Path, nu: float, t_end: float) -> str | None:
    """None when a two-jet run verified; otherwise why it did not.

    Beyond the program's own ``all_pass``, the trajectory it wrote must reach
    t_end, keep the degree-1 norm and stay under exp(-10 nu t) on degrees >= 3.
    """
    checks = report.get("checks", [])
    failed = sorted(c["name"] for c in checks if not c["pass"])
    if failed or not report.get("all_pass"):
        return f"checks failed: {failed}"
    missing = TWO_JET_CHECKS - {c["name"] for c in checks}
    if missing:
        return f"checks missing: {sorted(missing)}"
    rows = read_trajectory(outdir / report["files"]["trajectory"])
    if not rows:
        return "empty trajectory"
    t_last = float(rows[-1]["t"])
    if abs(t_last - t_end) > 1e-9 * t_end:
        return f"trajectory ends at t = {t_last!r}, not {t_end!r}"
    eq1_0, ge3_0 = float(rows[0]["norm_eq1"]), float(rows[0]["norm_ge3"])
    for row in rows:
        t, eq1, ge3 = float(row["t"]), float(row["norm_eq1"]), float(row["norm_ge3"])
        if not abs(eq1 - eq1_0) <= CONSERVATION_TOL:
            return f"degree-1 norm drifted by {eq1 - eq1_0:.3e} at t = {t!r}"
        if not ge3 <= ge3_0 * math.exp(-10.0 * nu * t) * (1.0 + DECAY_TOL):
            return f"degree >= 3 norm {ge3!r} above its bound at t = {t!r}"
    return None


def closure_gate(predicted: np.ndarray, final: np.ndarray) -> str | None:
    """None when the 5-mode prediction matches the PDE's final degree-2 vector."""
    rel = float(np.linalg.norm(predicted - final) / np.linalg.norm(final))
    if not rel < CLOSURE_TOL:
        return f"closure relative error {rel:.3e}"
    return None


@dataclass(frozen=True)
class Workload:
    """One configuration; its size is the simulated interval t_end, not a step count."""

    name: str
    N: int
    nu: float
    t_end: float
    dt: float | None  # None: the program chooses the step
    field_amplitude: float
    field_decay: float

    def field(self, seed: int, index: int):
        return random_field(self.N, seed, index, self.field_amplitude, self.field_decay)

    def probe_config(self):
        """One fixed step, for the set-up probe."""
        return pde_solver.SolverConfig(
            nu=self.nu, amplitude=BASE_FLOW, N=self.N, t_end=PROBE_DT, dt=PROBE_DT,
            snapshot_stride=1,
        )


@dataclass(frozen=True)
class ManifestWorkload(Workload):
    """A ``two_jet`` manifest through the CLI entry point, checked by manifest_gate."""

    snapshot_stride: int = 10

    def make_input(self, seed: int, index: int, outdir: Path) -> dict:
        cfg = {"nu": self.nu, "amplitude": BASE_FLOW, "N": self.N, "t_end": self.t_end,
               "snapshot_stride": self.snapshot_stride}
        if self.dt is not None:
            cfg["dt"] = self.dt
        return {"scenario": "two_jet", "cfg": cfg, "init": inline_coefficients(self.field(seed, index)),
                "seed": seed, "output_dir": str(outdir)}

    def operate(self, manifest: dict, outdir: Path) -> tuple[str | None, int]:
        _, report = cli.run_manifest(manifest)
        error = manifest_gate(report, outdir, self.nu, self.t_end)
        written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
        return error, written

    def probe_step(self, field, grid) -> None:
        pde_solver.run(field, self.probe_config(), grid)


@dataclass(frozen=True)
class CouplingWorkload(Workload):
    """PDE run with per-step couplings, then the forced 5-mode system; checked by closure_gate."""

    def make_input(self, seed: int, index: int, outdir: Path):
        return self.field(seed, index)

    def operate(self, field, outdir: Path) -> tuple[str | None, int]:
        grid = harmonics.build_grid(self.N)
        cfg = pde_solver.SolverConfig(
            nu=self.nu, amplitude=BASE_FLOW, N=self.N, t_end=self.t_end, dt=self.dt,
            snapshot_stride=10**9,
        )
        records, coupling = pde_solver.run_with_coupling(field, cfg, grid)
        system = reduced_ode.build_system(operators.KillingParams.from_field(field), BASE_FLOW, self.nu)
        dt_ode = 2.0 * (coupling.times[1] - coupling.times[0])
        traj = reduced_ode.propagate_forced(
            system, field.mode2_vector(), coupling.M, coupling.f, dt_ode, self.t_end
        )
        last = records[-1]
        if abs(last.t - self.t_end) > 1e-9 * self.t_end:
            return f"run ends at t = {last.t!r}, not {self.t_end!r}", 0
        return closure_gate(traj[-1], last.mode2), 0

    def probe_step(self, field, grid) -> None:
        pde_solver.run_with_coupling(field, self.probe_config(), grid)


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance-suite configuration at the program's default step:
        # many cheap steps, so per-step overhead and the step count dominate.
        ManifestWorkload("two_jet_n16", N=16, nu=0.5, t_end=0.25, dt=None,
                         field_amplitude=0.5, field_decay=0.4, snapshot_stride=10),
        # Fixed step at N=64: few expensive steps dominated by the O(N^3)
        # Legendre contraction; a step-size policy cannot move it.
        ManifestWorkload("two_jet_n64", N=64, nu=0.5, t_end=0.012, dt=1e-3,
                         field_amplitude=0.5, field_decay=0.4, snapshot_stride=4),
        # Criterion-7 path: per-step coupling extraction synthesizes arbitrary
        # fields through the Cartesian velocity path, then the 5-mode ODE.
        CouplingWorkload("coupling_n16", N=16, nu=1.0, t_end=0.125, dt=1.0 / 2048,
                         field_amplitude=0.4, field_decay=0.5),
    )
}


@dataclass
class Outcome:
    seconds: float
    error: str | None  # exception name, or "gate: <verdict>"; None when the op verified
    bytes_written: int = 0


def attempt(workload: Workload, inputs, outdir: Path) -> Outcome:
    """Run and gate one operation, timing it; a program failure is an outcome, not a crash."""
    start = time.perf_counter()
    try:
        verdict, written = workload.operate(inputs, outdir)
        error = None if verdict is None else f"gate: {verdict}"
    except PROGRAM_ERRORS as exc:
        error, written = type(exc).__name__, 0
    return Outcome(time.perf_counter() - start, error, written)
