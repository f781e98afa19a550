"""Rotating-sphere dynamics, the frame change, and the rotating equilibrium.

Adding the Coriolis term -2 Omega d_phi Lap^{-1} zeta to the two-jet dynamics
is equivalent, through zeta(theta, phi, t) = omega(theta, phi + Omega t, t)
- 2 Omega cos(theta), to the non-rotating problem; the map is a pure phase
rotation of the coefficients plus a shift of the (1, 0) mode, so it is exact
for band-limited fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pde_solver, reduced_ode
from .harmonics import QuadratureGrid
from .operators import KillingParams
from .pde_solver import SolverConfig, TrajectoryRecord
from .sht import SpectralField

Y10_PER_COS_THETA = 2.0 * math.sqrt(math.pi / 3.0)  # cos(theta) = this * Y_1^0


@dataclass
class RotatingConfig:
    base: SolverConfig
    Omega: float

    def __post_init__(self):
        if self.base.jet_order != "two_jet":
            raise ValueError("rotating dynamics are defined for the two-jet base flow")
        if not math.isfinite(self.Omega):
            raise ValueError("Omega must be finite")


def rotating_frame_params(params: KillingParams, Omega: float) -> KillingParams:
    """Degree-1 data with the rigid rotation 2 Omega cos(theta) added: b -> b + 2 Omega / 3.

    The static equilibrium of these parameters is the rotating-frame attractor
    at t = 0.
    """
    if not math.isfinite(Omega):
        raise ValueError("Omega must be finite")
    return KillingParams(alpha=params.alpha, b=params.b + 2.0 * Omega / 3.0)


def frame_map(zeta: SpectralField, Omega: float, t: float) -> SpectralField:
    """Rotating-frame state to non-rotating state.

    Coefficient (n, m) picks up the phase exp(-i m Omega t), which realizes
    the longitude shift phi -> phi - Omega t on synthesis, and the rigid
    rotation 2 Omega cos(theta) lands on the (1, 0) coefficient.
    """
    N = zeta.N
    m = np.arange(N + 1, dtype=float)
    phases = np.exp(-1j * m * Omega * t)[None, :]
    out = SpectralField(N=N, coeffs=zeta.coeffs * phases)
    out[1, 0] = out[1, 0] + 2.0 * Omega * Y10_PER_COS_THETA
    return out


def rotating_equilibrium(
    params: KillingParams, amplitude: float, nu: float, Omega: float, t: float
) -> np.ndarray:
    """Degree-2 attractor in the rotating frame at time t.

    The static equilibrium of rotating_frame_params rotates mode-wise with
    phases exp(i m Omega t).
    """
    w_inf = reduced_ode.equilibrium_closed_form(rotating_frame_params(params, Omega), amplitude, nu)
    phases = np.exp(1j * Omega * t * np.array([2.0, 1.0, 0.0, -1.0, -2.0]))
    return w_inf * phases


def run_rotating(
    zeta0: SpectralField, cfg: RotatingConfig, grid: QuadratureGrid
) -> list[TrajectoryRecord]:
    """Integrate the rotating dynamics; distances are to the rotating equilibrium."""
    base = cfg.base
    params = KillingParams.from_field(zeta0)

    def equilibrium_fn(t):
        return rotating_equilibrium(params, base.amplitude, base.nu, cfg.Omega, t)

    records, _, _ = pde_solver._integrate(
        zeta0, base, grid, Omega=cfg.Omega, equilibrium_fn=equilibrium_fn
    )
    return records
