"""The five-mode system governing the degree-2 coefficients.

With the nondissipative degree-1 data frozen into (alpha, b), the degree-2
coefficient vector w = (w_2^2, ..., w_2^{-2}) obeys

    dw/dt = -(4 nu I + i A + M(t)) w + f(t) + c,

where A is a constant Hermitian coupling matrix, c a constant source, and
M(t), f(t) integral couplings to the degree >= 3 remainder that vanish when
that remainder does.  The equilibrium (4 nu I + i A)^{-1} c also has a closed
form; both routes are implemented and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import QuadratureGrid, recurrence_coeff
from .operators import KillingParams, gradient_values, velocity_values
from .sht import SpectralField, synthesize

MODE2_ORDER = (2, 1, 0, -1, -2)
SQRT6 = math.sqrt(6.0)


def mode2_reality_residual(w: np.ndarray) -> float:
    """Deviation of a 5-vector from the pattern of a real field's degree-2 row."""
    w = np.asarray(w, dtype=complex)
    return float(
        max(
            abs(w[3] + np.conj(w[1])),
            abs(w[4] - np.conj(w[0])),
            abs(w[2].imag),
        )
    )


@dataclass(frozen=True)
class ReducedSystem:
    """Constant part of the degree-2 dynamics: Hermitian A, source c, viscosity."""

    A: np.ndarray
    c: np.ndarray
    nu: float

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.A - self.A.conj().T)))


def build_system(params: KillingParams, amplitude: float, nu: float) -> ReducedSystem:
    """Assemble A and c from the degree-1 data; entries are placed symmetrically."""
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    alpha, b = complex(params.alpha), float(params.b)
    A = np.zeros((5, 5), dtype=complex)
    diag = np.array([2.0 * b, b, 0.0, -b, -2.0 * b])
    np.fill_diagonal(A, diag)
    upper = [-2.0 * alpha, -SQRT6 * alpha, -SQRT6 * alpha, -2.0 * alpha]
    for k, val in enumerate(upper):
        A[k, k + 1] = val
        A[k + 1, k] = np.conj(val)
    c = SQRT6 * 1j * amplitude * np.array([0.0, alpha, 0.0, np.conj(alpha), 0.0])
    return ReducedSystem(A=A, c=c, nu=nu)


def equilibrium_solve(sys: ReducedSystem) -> np.ndarray:
    """Equilibrium as the direct linear solve (4 nu I + i A) w = c."""
    mat = 4.0 * sys.nu * np.eye(5, dtype=complex) + 1j * sys.A
    w = np.linalg.solve(mat, sys.c)
    resid = np.linalg.norm(mat @ w - sys.c)
    scale = np.linalg.norm(sys.c)
    if scale > 0 and resid > 1e-12 * scale:
        raise ArithmeticError(f"equilibrium solve residual {resid:.3e} exceeds tolerance")
    return w


def equilibrium_closed_form(params: KillingParams, amplitude: float, nu: float) -> np.ndarray:
    """Equilibrium from the explicit formulas in terms of (alpha, b, a, nu)."""
    if nu <= 0:
        raise ValueError("viscosity must be positive")
    alpha, b = complex(params.alpha), float(params.b)
    a = float(amplitude)
    aa = abs(alpha) ** 2
    w0 = -12.0 * a * aa * (4.0 * nu**2 + aa + b**2) / (
        (4.0 * nu**2 + 4.0 * aa + b**2) * (16.0 * nu**2 + 4.0 * aa + b**2)
    )
    z1 = 4.0 * nu + 1j * b
    z2 = 4.0 * nu + 2j * b
    w1 = SQRT6 * 1j * alpha * z2 / (4.0 * aa + z1 * z2) * (w0 + a)
    w2 = 2j * alpha / z2 * w1
    return np.array([w2, w1, w0, -np.conj(w1), np.conj(w2)], dtype=complex)


def propagate_exact(sys: ReducedSystem, w0: np.ndarray, t: float) -> np.ndarray:
    """Unforced solution w(t) = exp(-(4 nu I + i A) t)(w0 - w_inf) + w_inf.

    A is Hermitian, so the propagator is a pure phase factor exp(-i mu_k t)
    per eigenvector times the scalar decay exp(-4 nu t).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    herm = sys.hermiticity_residual()
    if herm > 1e-13:
        raise ArithmeticError(f"coupling matrix lost Hermiticity ({herm:.3e})")
    w_inf = equilibrium_solve(sys)
    mu, vecs = np.linalg.eigh(sys.A)
    phases = np.exp(-4.0 * sys.nu * t - 1j * mu * t)
    delta = vecs @ (phases * (vecs.conj().T @ (np.asarray(w0, dtype=complex) - w_inf)))
    return delta + w_inf


def propagate_forced(
    sys: ReducedSystem,
    w0: np.ndarray,
    M_series: np.ndarray,
    f_series: np.ndarray,
    dt: float,
    t_end: float,
) -> np.ndarray:
    """RK4 integration of the nonautonomous system with sampled couplings.

    M_series and f_series must be sampled on the half-step lattice of the
    integrator: spacing dt/2, covering [0, t_end], so 2 * nsteps + 1 samples.
    Returns the trajectory at the integer steps, shape (nsteps + 1, 5).
    """
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-12 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")
    M_series = np.asarray(M_series, dtype=complex)
    f_series = np.asarray(f_series, dtype=complex)
    expected = 2 * nsteps + 1
    if M_series.shape != (expected, 5, 5) or f_series.shape != (expected, 5):
        raise ValueError(
            f"coupling series must hold {expected} half-step samples; "
            f"got M {M_series.shape}, f {f_series.shape}"
        )
    base = 4.0 * sys.nu * np.eye(5, dtype=complex) + 1j * sys.A

    def rhs(idx, w):
        return -(base + M_series[idx]) @ w + f_series[idx] + sys.c

    out = np.empty((nsteps + 1, 5), dtype=complex)
    w = np.asarray(w0, dtype=complex).copy()
    out[0] = w
    for k in range(nsteps):
        i0, i1, i2 = 2 * k, 2 * k + 1, 2 * k + 2
        k1 = rhs(i0, w)
        k2 = rhs(i1, w + 0.5 * dt * k1)
        k3 = rhs(i1, w + 0.5 * dt * k2)
        k4 = rhs(i2, w + dt * k3)
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = w
    return out


def extract_coupling(
    omega: SpectralField, amplitude: float, grid: QuadratureGrid
) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (M, f) from the degree >= 3 part of a state.

    M_{m,k} = (1/6) integral of (I + 6 Lap^{-1}) w_{>=3} times
    (n x grad Y_2^k) . grad conj(Y_2^m); f_m combines the tridiagonal
    coupling of degree 3 into degree 2 with the self-transport integral
    of the remainder.  Both vanish identically when w_{>=3} = 0.
    """
    N = omega.N
    if N < 3:
        return np.zeros((5, 5), dtype=complex), np.zeros(5, dtype=complex)
    high = omega.highpass(3)
    pieces = _degree2_coupling_tables(grid)
    weighted = high.apply_degree_multiplier(
        np.array([0.0 if n == 0 else 1.0 - 6.0 / (n * (n + 1.0)) for n in range(N + 1)])
    )
    g_vals = synthesize(weighted, grid).values
    M = np.empty((5, 5), dtype=complex)
    for i in range(5):
        for k in range(5):
            M[i, k] = grid.integrate(g_vals * pieces["rot_dot_gradc"][k][i]) / 6.0

    high_vals = synthesize(high, grid).values
    u_high = velocity_values(high, grid)
    f = np.empty(5, dtype=complex)
    a3m = {m: recurrence_coeff(3, m) for m in MODE2_ORDER}
    for i, m in enumerate(MODE2_ORDER):
        spectral = -(amplitude / 8.0) * math.sqrt(5.0 / math.pi) * 1j * m * a3m[m] * omega[3, m]
        transport = grid.integrate(high_vals * np.sum(u_high * pieces["grad_conj"][i], axis=-1))
        f[i] = spectral + transport
    return M, f


def _degree2_coupling_tables(grid: QuadratureGrid) -> dict:
    """Node tables of grad conj(Y_2^m) and (n x grad Y_2^k) . grad conj(Y_2^m), cached per grid."""
    cached = getattr(grid, "_degree2_tables", None)
    if cached is not None:
        return cached
    grads = []
    for m in MODE2_ORDER:
        u = SpectralField.zeros(grid.N)
        u[2, m] = 1.0
        grads.append(gradient_values(u, grid))
    grad_conj = [np.conj(g) for g in grads]
    rotations = [np.cross(grid.nodes_xyz, g) for g in grads]
    rot_dot_gradc = [
        [np.sum(rotations[k] * grad_conj[i], axis=-1) for i in range(5)] for k in range(5)
    ]
    tables = {"grad_conj": grad_conj, "rot_dot_gradc": rot_dot_gradc}
    grid._degree2_tables = tables
    return tables


def equilibrium_report(
    params: KillingParams, amplitude: float, nu: float, method: str = "closed_form"
) -> dict:
    """JSON-ready equilibrium record for one parameter point."""
    sys = build_system(params, amplitude, nu)
    if method == "closed_form":
        w = equilibrium_closed_form(params, amplitude, nu)
    elif method == "solve":
        w = equilibrium_solve(sys)
    else:
        raise ValueError(f"unknown method {method!r}")
    mat = 4.0 * nu * np.eye(5, dtype=complex) + 1j * sys.A
    residual = float(np.linalg.norm(mat @ w - sys.c))
    return {
        "nu": float(nu),
        "a": float(amplitude),
        "alpha": {"re": params.alpha.real, "im": params.alpha.imag},
        "b": float(params.b),
        "omega_inf": [{"re": z.real, "im": z.imag} for z in w],
        "method": method,
        "residual": residual,
    }
