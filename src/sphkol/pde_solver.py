"""Time integration of the nonlinear perturbation dynamics on the sphere.

Two-jet form:  d_t w = nu (Lap w + 2w) - (a/4) sqrt(5/pi) cos(theta) d_phi (I + 6 Lap^{-1}) w - u . grad w
One-jet form:  d_t w = nu (Lap w + 2w) - (a/4) sqrt(3/pi) d_phi (I + 2 Lap^{-1}) w - u . grad w

with u = n x grad Lap^{-1} w; a two-jet run in a frame rotating at Omega adds
the Coriolis term -2 Omega d_phi Lap^{-1} w.  The diagonal diffusion is
integrated exactly through an integrating factor; the rest, operators.linear_part
and the convection, rides on classical RK4 stages (Lawson scheme), so zonal
states decay exactly and degree-1 states are fixed points of the discrete map
up to round-off.

Snapshots sit on a lattice of default_dt (or the given dt) rounded to
t_end / nsteps, at every snapshot_stride-th lattice time and at the end.
run and run_with_coupling read one generator of lattice states.  A given dt,
which run_with_coupling always passes, steps on the lattice.  With dt = None
the steps between snapshot times are error-controlled: the embedded
third-order member of the RK4(3)IP pair (Balac & Mahe 2013) estimates the
local error at no extra convection, since its last stage is the next step's
first (FSAL).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import reduced_ode
from .harmonics import QuadratureGrid
from .operators import KillingParams, angular_derivatives, convection, inverse_laplacian, linear_part
from .serialize import format_float
from .sht import SpectralField

STEP_RTOL = 1e-11  # controlled steps: local error estimate / max(|u_n|, |u_n+1|)
MIN_STEP = 1e-14  # as a fraction of t_end: a controlled step below it is a failure

TRAJECTORY_HEADER = (
    "t,norm_eq1,norm_eq2_dist,norm_ge3,"
    "re_w22,im_w22,re_w21,im_w21,re_w20,im_w20,re_w2m1,im_w2m1,re_w2m2,im_w2m2"
)


class IntegrationError(RuntimeError):
    """The time stepper produced a non-finite state or could not keep its error in bounds."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t:.6g})")
        self.t = t


@dataclass
class SolverConfig:
    """Run parameters; dt = None selects error-controlled steps between snapshot times.

    Omega is the rotation rate of the frame, defined for the two-jet flow.
    """

    nu: float
    amplitude: float
    N: int
    t_end: float
    dt: float | None = None
    snapshot_stride: int = 10
    jet_order: str = "two_jet"
    Omega: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.nu) or self.nu <= 0:
            raise ValueError("viscosity must be positive and finite")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if not math.isfinite(self.t_end) or self.t_end <= 0:
            raise ValueError("t_end must be positive and finite")
        if self.dt is not None and not (0 < self.dt <= self.t_end):
            raise ValueError("dt must lie in (0, t_end]")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be a positive integer")
        if self.jet_order not in ("one_jet", "two_jet"):
            raise ValueError(f"unknown jet_order {self.jet_order!r}")
        min_degree = 3 if self.jet_order == "two_jet" else 2
        if self.N < min_degree:
            raise ValueError(f"{self.jet_order} dynamics need N >= {min_degree}")
        if not math.isfinite(self.Omega):
            raise ValueError("Omega must be finite")
        if self.Omega != 0.0 and self.jet_order != "two_jet":
            raise ValueError("rotating dynamics are defined for the two-jet base flow")


@dataclass
class TrajectoryRecord:
    """Snapshot diagnostics: conserved part, degree-2 distance, high-degree norm.

    steps and rejected count the accepted and rejected steps taken up to t.
    """

    t: float
    norm_eq1: float
    norm_eq2_dist: float
    norm_ge3: float
    mode2: np.ndarray
    mode1: np.ndarray
    steps: int = 0
    rejected: int = 0


@dataclass
class CouplingSeries:
    """Per-step couplings (M, f) of the degree-2 block to the remainder."""

    times: np.ndarray
    M: np.ndarray
    f: np.ndarray


def linear_diffusion_factors(N: int, nu: float) -> np.ndarray:
    """Per-degree coefficients nu (2 - n(n+1)) of the exactly-integrated part."""
    n = np.arange(N + 1, dtype=float)
    out = nu * (2.0 - n * (n + 1.0))
    out[0] = 0.0
    return out


def default_dt(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid) -> float:
    """min(0.1/(nu N^2), 0.5/(|v|_inf N)), from the initial condition only.

    The speed |v| = |grad psi| = sqrt(psi_theta^2 + psi_phi^2 / sin^2 theta),
    psi = Lap^{-1} w, is sampled on the grid.  Rounded to t_end / nsteps, it
    spaces the snapshot lattice and is the first trial step of a controlled
    run; it is not the step a controlled run keeps.
    """
    dt = 0.1 / (cfg.nu * cfg.N**2)
    psi_theta, psi_phi = angular_derivatives(inverse_laplacian(omega0).coeffs, grid)
    vmax = float(np.max(np.hypot(psi_theta, psi_phi / grid.sin_theta[:, None])))  # hypot: no overflow in the squares
    if vmax > 0.0:
        dt = min(dt, 0.5 / (vmax * cfg.N))
    return dt


class Stepper:
    """Lawson-RK4 stepper whose diffusion factors are frozen for the current dt.

    The rest of the linear part comes from operators.linear_part, built once
    per configuration.  set_dt changes the step; a fixed-step run never calls it.
    """

    def __init__(self, cfg: SolverConfig, grid: QuadratureGrid, dt: float):
        self.grid = grid
        self.linear = linear_part(cfg.N, cfg.jet_order, cfg.amplitude, cfg.Omega)
        self.diffusion = linear_diffusion_factors(cfg.N, cfg.nu)[:, None]
        self.set_dt(dt)

    def set_dt(self, dt: float):
        self.dt = dt
        self.exp_half = np.exp(self.diffusion * (dt / 2.0))
        self.exp_full = np.exp(self.diffusion * dt)

    def nonlinear(self, state: SpectralField) -> SpectralField:
        """Everything the integrating factor leaves out: the linear part and -u . grad w."""
        return self.linear.apply(state) - convection(state, self.grid)

    def step(self, state: SpectralField, k1: np.ndarray | None = None, estimate: bool = False):
        """One step of size dt; k1 = nonlinear(state).coeffs when the caller already has it.

        With estimate, returns (new state, k5, err): k5 = nonlinear(new state).coeffs
        is the next step's k1, and err = (dt/10)(k4 - k5) is the fourth-order
        solution minus the embedded third-order one of the RK4(3)IP pair.
        """
        dt, e_half, e_full = self.dt, self.exp_half, self.exp_full
        u = state.coeffs
        if k1 is None:
            k1 = self.nonlinear(state).coeffs
        u2 = e_half * (u + (dt / 2.0) * k1)
        k2 = self.nonlinear(SpectralField(state.N, u2)).coeffs
        u3 = e_half * u + (dt / 2.0) * k2
        k3 = self.nonlinear(SpectralField(state.N, u3)).coeffs
        u4 = e_full * u + dt * e_half * k3
        k4 = self.nonlinear(SpectralField(state.N, u4)).coeffs
        advanced = e_full * u + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        new = SpectralField(state.N, advanced)
        if not estimate:
            return new
        k5 = self.nonlinear(new).coeffs
        return new, k5, (dt / 10.0) * (k4 - k5)


def _controlled(stepper: Stepper, state: SpectralField, targets, t_end: float):
    """Error-controlled steps from t = 0 that land on each target time in turn.

    Yields (t, state, accepted, rejected, True) at every target t, each a
    snapshot.  A step is accepted when
    |err| <= STEP_RTOL max(|u_n|, |u_n+1|) (norms of the stored m >= 0 half);
    the next trial is h clip(0.9 (1/e)^(1/4), 0.2, 5) with e the ratio of the
    two.  A non-finite trial is a rejection at the smallest factor.  A step
    shortened to land on a target leaves the controller its longer proposal.
    """
    t, h = 0.0, stepper.dt
    accepted = rejected = 0
    k1 = stepper.nonlinear(state).coeffs
    for target in targets:
        while t < target:
            lands = t + 1.01 * h >= target  # never leave a sliver of a step before the target
            trial = target - t if lands else h
            stepper.set_dt(trial)
            new, k5, err = stepper.step(state, k1, estimate=True)
            err_norm = float(np.linalg.norm(err))
            tol = STEP_RTOL * float(max(np.linalg.norm(state.coeffs), np.linalg.norm(new.coeffs)))
            # e = |err| / tol: infinite for a non-finite trial, 0 for an exact step (the zero state has tol = 0).
            ratio = math.inf if not math.isfinite(err_norm + tol) else (err_norm / tol if err_norm else 0.0)
            factor = min(5.0, max(0.2, 0.9 * ratio**-0.25)) if ratio else 5.0
            if ratio <= 1.0:
                accepted += 1
                t = target if lands else t + trial
                state, k1 = new, k5
                h = max(h, trial * factor) if lands else trial * factor
            else:
                rejected += 1
                h = trial * factor
                if h < MIN_STEP * t_end:
                    raise IntegrationError(f"step size fell below {MIN_STEP:g} t_end", t)
        yield target, state, accepted, rejected, True


def _lattice_states(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid):
    """Yield (t, state, steps, rejected, is_snapshot) from t = 0 on the snapshot lattice.

    With a given dt every lattice step is yielded; with dt = None only the
    snapshot times, reached by error-controlled steps.
    """
    if omega0.N != cfg.N:
        raise ValueError(f"initial condition degree {omega0.N} != configured N {cfg.N}")
    if cfg.N > grid.N:
        raise ValueError("grid does not support the configured truncation degree")

    dt_req = cfg.dt if cfg.dt is not None else default_dt(omega0, cfg, grid)
    nsteps = max(1, math.ceil(cfg.t_end / dt_req - 1e-12))
    dt = cfg.t_end / nsteps
    stepper = Stepper(cfg, grid, dt)

    yield 0.0, omega0, 0, 0, True
    if cfg.dt is None:
        # Lazy: a blown-up field makes nsteps astronomically large.
        snapshot_steps = itertools.chain(range(cfg.snapshot_stride, nsteps, cfg.snapshot_stride), [nsteps])
        yield from _controlled(stepper, omega0, (k * dt for k in snapshot_steps), cfg.t_end)
        return

    state = omega0
    for k in range(1, nsteps + 1):
        state = stepper.step(state)
        t = k * dt
        if not np.all(np.isfinite(state.coeffs)):
            raise IntegrationError("state became non-finite", t)
        yield t, state, k, 0, k % cfg.snapshot_stride == 0 or k == nsteps


def _record(cfg: SolverConfig, params: KillingParams | None, t, state, steps, rejected) -> TrajectoryRecord:
    """Snapshot diagnostics off one +-m table; params None stands for the one-jet attractor, zero."""
    table, N = state.full_table(), cfg.N
    mode2 = table[2, N - 2 : N + 3][::-1].copy()  # m = 2, 1, 0, -1, -2
    w_inf = 0.0 if params is None else reduced_ode.rotating_equilibrium(params, cfg.amplitude, cfg.nu, cfg.Omega, t)
    return TrajectoryRecord(
        t=t,
        norm_eq1=float(np.linalg.norm(table[1])),
        norm_eq2_dist=float(np.linalg.norm(mode2 - w_inf)),
        norm_ge3=float(np.linalg.norm(table[3:])),
        mode2=mode2,
        mode1=table[1, N - 1 : N + 2][::-1].copy(),  # m = 1, 0, -1
        steps=steps,
        rejected=rejected,
    )


def run(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid) -> list[TrajectoryRecord]:
    """Integrate to t_end; trajectory records at snapshot_stride intervals plus the endpoint."""
    params = KillingParams.from_field(omega0) if cfg.jet_order == "two_jet" else None
    return [
        _record(cfg, params, t, state, steps, rejected)
        for t, state, steps, rejected, is_snapshot in _lattice_states(omega0, cfg, grid)
        if is_snapshot
    ]


def run_with_coupling(
    omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid
) -> tuple[list[TrajectoryRecord], CouplingSeries]:
    """As run(), also extracting the (M, f) couplings at every lattice time, t = 0 included.

    propagate_forced reads them on a uniform lattice, so dt = None steps at the
    lattice dt, not under control.  They close the non-rotating two-jet system.
    """
    if cfg.jet_order != "two_jet" or cfg.Omega != 0.0:
        raise ValueError(
            f"coupling extraction needs non-rotating two_jet dynamics, not {cfg.jet_order!r} at Omega = {cfg.Omega!r}"
        )
    if cfg.dt is None:
        cfg = replace(cfg, dt=min(cfg.t_end, default_dt(omega0, cfg, grid)))
    params = KillingParams.from_field(omega0)
    records, times, M, f = [], [], [], []
    for t, state, steps, rejected, is_snapshot in _lattice_states(omega0, cfg, grid):
        M_t, f_t = reduced_ode.extract_coupling(state, cfg.amplitude)
        times.append(t)
        M.append(M_t)
        f.append(f_t)
        if is_snapshot:
            records.append(_record(cfg, params, t, state, steps, rejected))
    return records, CouplingSeries(times=np.array(times), M=np.array(M), f=np.array(f))


def write_trajectory_csv(records, path, header_comment: str | None = None):
    """Write snapshot diagnostics; 17-significant-digit floats, LF endings."""
    with open(path, "w", newline="\n") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        fh.write(TRAJECTORY_HEADER + "\n")
        for rec in records:
            cells = [
                format_float(rec.t),
                format_float(rec.norm_eq1),
                format_float(rec.norm_eq2_dist),
                format_float(rec.norm_ge3),
            ]
            for z in rec.mode2:
                cells.append(format_float(z.real))
                cells.append(format_float(z.imag))
            fh.write(",".join(cells) + "\n")
