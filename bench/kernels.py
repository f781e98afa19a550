"""Per-call medians of the layer kernels at several truncation degrees.

Which layer dominates changes with N (the O(N^3) Legendre contraction takes
over from N ~ 64), so each kernel is timed at every degree in DEGREES on a
seeded field, untraced.  Import only after ``program.load()``.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

from sphkol import harmonics, operators, pde_solver, sht

from workloads import BASE_FLOW, random_field

DEGREES = (16, 32, 64, 128)
STEP_DT = 1e-3
STEPS = 2  # steps per timed run; its fixed overhead is shared between them
MIN_REPS = 3
BUDGET_S = 0.3  # keep repeating a kernel until this much time is spent
ROUNDTRIP_TOL = 1e-10


def per_call_ms(fn, per_call: int = 1, warm_up: bool = True) -> float:
    """Median wall time of fn() in ms, divided by per_call, after an optional warm-up call."""
    if warm_up:
        fn()
    times = []
    spent = 0.0
    while len(times) < MIN_REPS or spent < BUDGET_S:
        start = time.perf_counter()
        fn()
        dt = time.perf_counter() - start
        times.append(dt)
        spent += dt
    return 1e3 * statistics.median(times) / per_call


def grid_with_tables(N: int):
    """A grid with every lazily built table filled, as its first users would leave it."""
    grid = harmonics.build_grid(N)
    for attr, obj in vars(type(grid)).items():
        if isinstance(obj, functools.cached_property):
            getattr(grid, attr)
    return grid


def kernel_table(seed: int) -> tuple[dict[str, float], float]:
    """Metrics named like ``sht.synthesize_ms.N64``, and the worst transform roundtrip error."""
    out: dict[str, float] = {}
    worst = 0.0
    for N in DEGREES:
        field = random_field(N, seed, N, amplitude=0.5, decay=0.4)
        grid = grid_with_tables(N)
        values = sht.synthesize(field, grid)
        back = sht.analyze(values)
        worst = max(worst, float(np.max(np.abs(back.coeffs - field.coeffs))) / field.norm())
        cfg = pde_solver.SolverConfig(
            nu=0.5, amplitude=BASE_FLOW, N=N, t_end=STEPS * STEP_DT, dt=STEP_DT,
            snapshot_stride=10**9,
        )
        out[f"harmonics.build_grid_ms.N{N}"] = per_call_ms(lambda: grid_with_tables(N))
        out[f"sht.synthesize_ms.N{N}"] = per_call_ms(lambda: sht.synthesize(field, grid))
        out[f"sht.analyze_ms.N{N}"] = per_call_ms(lambda: sht.analyze(values))
        out[f"operators.convection_ms.N{N}"] = per_call_ms(lambda: operators.convection(field, grid))
        # The kernels above have already warmed every cache a step uses.
        out[f"pde_solver.step_ms.N{N}"] = per_call_ms(
            lambda: pde_solver.run(field, cfg, grid), per_call=STEPS, warm_up=False
        )
    return out, worst
