"""Time integration of the nonlinear perturbation dynamics on the sphere.

Two-jet form:  d_t w = nu (Lap w + 2w) - (a/4) sqrt(5/pi) cos(theta) d_phi (I + 6 Lap^{-1}) w - u . grad w
One-jet form:  d_t w = nu (Lap w + 2w) - (a/4) sqrt(3/pi) d_phi (I + 2 Lap^{-1}) w - u . grad w

with u = n x grad Lap^{-1} w; a two-jet run in a frame rotating at Omega adds
the Coriolis term -2 Omega d_phi Lap^{-1} w.  The diagonal diffusion is
integrated exactly through an integrating factor; the rest, operators.linear_part
and the convection, rides on classical RK4 stages (Lawson scheme), so zonal
states decay exactly and degree-1 states are fixed points of the discrete map
up to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import reduced_ode
from .harmonics import QuadratureGrid
from .operators import KillingParams, angular_derivatives, convection, inverse_laplacian, linear_part
from .serialize import format_float
from .sht import SpectralField

TRAJECTORY_HEADER = (
    "t,norm_eq1,norm_eq2_dist,norm_ge3,"
    "re_w22,im_w22,re_w21,im_w21,re_w20,im_w20,re_w2m1,im_w2m1,re_w2m2,im_w2m2"
)


class IntegrationError(RuntimeError):
    """The time stepper produced a non-finite state."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t:.6g})")
        self.t = t


@dataclass
class SolverConfig:
    """Run parameters; dt = None selects the CFL-style default at run time.

    Omega is the rotation rate of the frame, defined for the two-jet flow.
    """

    nu: float
    amplitude: float
    N: int
    t_end: float
    dt: float | None = None
    snapshot_stride: int = 10
    jet_order: str = "two_jet"
    store_snapshots: bool = False
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
    """Snapshot diagnostics: conserved part, degree-2 distance, high-degree norm."""

    t: float
    norm_eq1: float
    norm_eq2_dist: float
    norm_ge3: float
    mode2: np.ndarray
    mode1: np.ndarray
    snapshot: SpectralField | None = None


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
    psi = Lap^{-1} w, is sampled on the grid.
    """
    dt = 0.1 / (cfg.nu * cfg.N**2)
    psi_theta, psi_phi = angular_derivatives(inverse_laplacian(omega0).coeffs, grid)
    vmax = float(np.sqrt(np.max(psi_theta**2 + (psi_phi / grid.sin_theta[:, None]) ** 2)))
    if vmax > 0.0:
        dt = min(dt, 0.5 / (vmax * cfg.N))
    return dt


class Stepper:
    """Lawson-RK4 stepper with the diffusion factors frozen for a fixed dt.

    The rest of the linear part comes from operators.linear_part, built once
    per configuration.
    """

    def __init__(self, cfg: SolverConfig, grid: QuadratureGrid, dt: float):
        self.grid = grid
        self.dt = dt
        self.linear = linear_part(cfg.N, cfg.jet_order, cfg.amplitude, cfg.Omega)
        lin = linear_diffusion_factors(cfg.N, cfg.nu)[:, None]
        self.exp_half = np.exp(lin * (dt / 2.0))
        self.exp_full = np.exp(lin * dt)

    def nonlinear(self, state: SpectralField) -> SpectralField:
        """Everything the integrating factor leaves out: the linear part and -u . grad w."""
        return self.linear.apply(state) - convection(state, self.grid)

    def step(self, state: SpectralField) -> SpectralField:
        dt, e_half, e_full = self.dt, self.exp_half, self.exp_full
        u = state.coeffs
        k1 = self.nonlinear(state).coeffs
        u2 = e_half * (u + (dt / 2.0) * k1)
        k2 = self.nonlinear(SpectralField(state.N, u2)).coeffs
        u3 = e_half * u + (dt / 2.0) * k2
        k3 = self.nonlinear(SpectralField(state.N, u3)).coeffs
        u4 = e_full * u + dt * e_half * k3
        k4 = self.nonlinear(SpectralField(state.N, u4)).coeffs
        advanced = e_full * u + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        return SpectralField(state.N, advanced)


def _integrate(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid, record_coupling: bool = False):
    if omega0.N != cfg.N:
        raise ValueError(f"initial condition degree {omega0.N} != configured N {cfg.N}")
    if cfg.N > grid.N:
        raise ValueError("grid does not support the configured truncation degree")

    dt_req = cfg.dt if cfg.dt is not None else default_dt(omega0, cfg, grid)
    nsteps = max(1, math.ceil(cfg.t_end / dt_req - 1e-12))
    dt = cfg.t_end / nsteps

    # Degree-2 attractor: zero for the one-jet flow, the equilibrium turning with the frame for the two-jet one.
    params = KillingParams.from_field(omega0) if cfg.jet_order == "two_jet" else None

    stepper = Stepper(cfg, grid, dt)
    state = omega0

    records: list[TrajectoryRecord] = []
    coupling_M = [] if record_coupling else None
    coupling_f = [] if record_coupling else None

    def snap(t, state):
        mode2 = state.mode2_vector()
        w_inf = 0.0 if params is None else reduced_ode.rotating_equilibrium(params, cfg.amplitude, cfg.nu, cfg.Omega, t)
        records.append(
            TrajectoryRecord(
                t=t,
                norm_eq1=state.degree_norm(1),
                norm_eq2_dist=float(np.linalg.norm(mode2 - w_inf)),
                norm_ge3=state.highpass_norm(3),
                mode2=mode2,
                mode1=state.mode1_vector(),
                snapshot=state.copy() if cfg.store_snapshots else None,
            )
        )

    snap(0.0, state)
    if record_coupling:
        M, f = reduced_ode.extract_coupling(state, cfg.amplitude)
        coupling_M.append(M)
        coupling_f.append(f)

    for k in range(1, nsteps + 1):
        state = stepper.step(state)
        t = k * dt
        if not np.all(np.isfinite(state.coeffs)):
            raise IntegrationError("state became non-finite", t)
        if record_coupling:
            M, f = reduced_ode.extract_coupling(state, cfg.amplitude)
            coupling_M.append(M)
            coupling_f.append(f)
        if k % cfg.snapshot_stride == 0 or k == nsteps:
            snap(t, state)

    coupling = None
    if record_coupling:
        coupling = CouplingSeries(
            times=dt * np.arange(nsteps + 1),
            M=np.array(coupling_M),
            f=np.array(coupling_f),
        )
    return records, coupling


def run(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid) -> list[TrajectoryRecord]:
    """Integrate to t_end; trajectory records at snapshot_stride intervals plus the endpoint."""
    records, _ = _integrate(omega0, cfg, grid)
    return records


def run_with_coupling(
    omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid
) -> tuple[list[TrajectoryRecord], CouplingSeries]:
    """As run(), also extracting (M, f) couplings at every step for two-jet reduced-ODE cross-checks.

    The reduced system they close is the non-rotating one, so Omega must be 0.
    """
    if cfg.jet_order != "two_jet" or cfg.Omega != 0.0:
        raise ValueError(
            f"coupling extraction needs non-rotating two_jet dynamics, not {cfg.jet_order!r} at Omega = {cfg.Omega!r}"
        )
    return _integrate(omega0, cfg, grid, record_coupling=True)


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
