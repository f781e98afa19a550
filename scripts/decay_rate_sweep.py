"""Fit the measurable decay exponents over a viscosity sweep.

Three series with analytically known asymptotics:
  zonal degree-3 state (two-jet):       rate -10 nu, exact;
  zonal degree-2 state (one-jet):       rate  -4 nu, exact;
  degree-2 distance to the equilibrium
  with no degree >= 3 content:          rate  -4 nu (the propagator is a
                                        unitary matrix times exp(-4 nu t)).

Usage: python scripts/decay_rate_sweep.py

Prints one row per viscosity, each fit marked ok or OFF; exits 1 when any fit
is OFF (misses its reference rate by more than 0.1% or has r^2 < 0.999),
0 otherwise.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from sphkol.cli import fit_rate  # noqa: E402
from sphkol.harmonics import build_grid  # noqa: E402
from sphkol.pde_solver import SolverConfig, run  # noqa: E402
from sphkol.sht import SpectralField  # noqa: E402


def series(records, pick):
    return np.array([r.t for r in records]), np.array([pick(r) for r in records])


def main():
    N = 12
    grid = build_grid(N)
    print(f"{'nu':>6} {'zonal deg-3':>14} {'one-jet deg-2':>14} {'deg-2 distance':>15}")
    all_passed = True
    for nu in (0.25, 0.5, 1.0):
        window = (1.0 / nu, 2.0 / nu)
        t_end = 2.0 / nu

        zonal = SpectralField.zeros(N)
        zonal[3, 0] = 0.01
        recs = run(zonal, SolverConfig(nu=nu, amplitude=1.0, N=N, t_end=t_end, snapshot_stride=25), grid)
        fit_a = fit_rate(*series(recs, lambda r: r.norm_ge3), window, reference_rate=-10.0 * nu, tolerance=0.001)

        oj = SpectralField.zeros(N)
        oj[2, 0] = 0.01
        cfg = SolverConfig(nu=nu, amplitude=1.0, N=N, t_end=t_end, snapshot_stride=25, jet_order="one_jet")
        recs = run(oj, cfg, grid)
        fit_b = fit_rate(*series(recs, lambda r: r.norm_eq2_dist), window, reference_rate=-4.0 * nu, tolerance=0.001)

        mixed = SpectralField.zeros(N)
        mixed[1, 0] = 0.8
        mixed[1, 1] = 0.2 + 0.4j
        mixed[2, 0] = 0.5
        mixed[2, 1] = -0.3 + 0.1j
        recs = run(mixed, SolverConfig(nu=nu, amplitude=1.0, N=N, t_end=t_end, snapshot_stride=25), grid)
        fit_c = fit_rate(*series(recs, lambda r: r.norm_eq2_dist), window, reference_rate=-4.0 * nu, tolerance=0.001)

        fits = (fit_a, fit_b, fit_c)
        all_passed = all_passed and all(f["pass"] for f in fits)
        marks = [("ok" if f["pass"] else "OFF") for f in fits]
        print(
            f"{nu:6.2f} {fit_a['fitted_rate']:14.6f} {fit_b['fitted_rate']:14.6f} {fit_c['fitted_rate']:15.6f}"
            f"   [{marks[0]}/{marks[1]}/{marks[2]}]"
        )
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
