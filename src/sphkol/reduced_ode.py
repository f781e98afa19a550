"""The five-mode system governing the degree-2 coefficients.

With the nondissipative degree-1 data frozen into (alpha, b), the degree-2
coefficient vector w = (w_2^2, ..., w_2^{-2}) obeys

    dw/dt = -(4 nu I + i A + M(t)) w + f(t) + c,

where A is a constant Hermitian coupling matrix, c a constant source, and
M(t), f(t) integral couplings to the degree >= 3 remainder that vanish when
that remainder does; both read one table of adjacent-degree interactions.
The equilibrium (4 nu I + i A)^{-1} c also has a closed form; both routes
are implemented and cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .harmonics import build_grid
from .operators import KillingParams, linear_part
from .sht import SpectralField

MODE2_ORDER = (2, 1, 0, -1, -2)
SQRT6 = math.sqrt(6.0)

@dataclass(frozen=True)
class ReducedSystem:
    """Constant part of the degree-2 dynamics: Hermitian A, source c, viscosity."""

    A: np.ndarray
    c: np.ndarray
    nu: float

    @cached_property
    def operator(self) -> np.ndarray:
        """The constant linear operator 4 nu I + i A, so that dw/dt = -operator w + c unforced."""
        return 4.0 * self.nu * np.eye(5, dtype=complex) + 1j * self.A

    def hermiticity_residual(self) -> float:
        return float(np.max(np.abs(self.A - self.A.conj().T)))


def _degree2_generator(diagonal, upper, lower) -> np.ndarray:
    """5x5 matrix of a rotation generator on the degree-2 span, rows/cols m = 2..-2.

    Every such generator has this shape: m * diagonal on the diagonal, and
    upper * s_k and lower * s_k on the super- and subdiagonal, with
    s = (1, sqrt(6)/2, sqrt(6)/2, 1).
    """
    s = np.array([1.0, SQRT6 / 2.0, SQRT6 / 2.0, 1.0])
    orders = np.array(MODE2_ORDER, dtype=float)
    return np.diag(orders * diagonal) + np.diag(s * upper, 1) + np.diag(s * lower, -1)


def _check_flow_parameters(amplitude: float, nu: float) -> None:
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")


def build_system(params: KillingParams, amplitude: float, nu: float) -> ReducedSystem:
    """Assemble A and c from the degree-1 data.

    A is the degree-2 rotation by the Killing field of the degree-1 data,
    A = -(2i/3) oracles.killing_degree2_matrix(params.axis), built from
    (alpha, b) directly so that no rounding of the axis enters it.
    """
    _check_flow_parameters(amplitude, nu)
    alpha, b = complex(params.alpha), float(params.b)
    A = _degree2_generator(b, -2.0 * alpha, np.conj(-2.0 * alpha))
    c = SQRT6 * 1j * amplitude * np.array([0.0, alpha, 0.0, np.conj(alpha), 0.0])
    return ReducedSystem(A=A, c=c, nu=nu)


def equilibrium_solve(sys: ReducedSystem) -> np.ndarray:
    """Equilibrium as the direct linear solve (4 nu I + i A) w = c."""
    w = np.linalg.solve(sys.operator, sys.c)
    resid = np.linalg.norm(sys.operator @ w - sys.c)
    scale = np.linalg.norm(sys.c)
    if scale > 0 and resid > 1e-12 * scale:
        raise ArithmeticError(f"equilibrium solve residual {resid:.3e} exceeds tolerance")
    return w


def equilibrium_closed_form(params: KillingParams, amplitude: float, nu: float) -> np.ndarray:
    """Equilibrium from the explicit formulas in terms of (alpha, b, a, nu)."""
    _check_flow_parameters(amplitude, nu)
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


def rotating_frame_params(params: KillingParams, Omega: float) -> KillingParams:
    """Degree-1 data with the rigid rotation 2 Omega cos(theta) added: b -> b + 2 Omega / 3.

    The static equilibrium of these parameters is the rotating-frame attractor
    at t = 0; at time t it has turned mode-wise by frame_phases(Omega, t).
    """
    if not math.isfinite(Omega):
        raise ValueError("Omega must be finite")
    return KillingParams(alpha=params.alpha, b=params.b + 2.0 * Omega / 3.0)


def frame_phases(Omega: float, t: float) -> np.ndarray:
    """exp(i m Omega t) for the degree-2 orders m in MODE2_ORDER."""
    return np.exp(1j * Omega * t * np.array(MODE2_ORDER, dtype=float))


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
    operator = sys.operator

    def rhs(idx, w):
        return -(operator + M_series[idx]) @ w + f_series[idx] + sys.c

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


@lru_cache(maxsize=None)
def adjacent_degree_table(N: int) -> np.ndarray:
    """T[n-2, i, N+m] = c_n (J(Y_n^m, Y_{n+1}^{mu-m}), Y_2^mu), mu = MODE2_ORDER[i], n = 2..N-1.

    J(A, B) = (A_theta B_phi - A_phi B_theta) / sin(theta), and u . grad w = J(Lap^{-1} w, w).
    The degree-2 row of J(Y_a, Y_b) vanishes unless |a - b| = 1 (parity and
    the triangle rule); c_n = 1/((n+1)(n+2)) - 1/(n(n+1)) folds in both
    orderings of the stream function.  The phi integral only selects the
    order sum mu, so each entry is one latitude quadrature.  Cached per N, read-only.
    """
    grid = build_grid(N + 1)  # its tables hold the zero rows of orders up to N + 1

    def rows(table, orders, n):  # Pbar_n^{-k} = (-1)^k Pbar_n^k
        return (-1.0) ** np.minimum(orders, 0)[..., None] * table[np.abs(orders), n]

    mu = np.array(MODE2_ORDER)
    # The d(cos theta) weights take J's 1/sin(theta) and the phi integral's 2 pi.
    y2 = rows(grid.plm, mu, 2)[:, None, :] * (2.0 * math.pi * grid.theta_weights / grid.sin_theta)
    table = np.zeros((N - 2, 5, 2 * N + 1), dtype=complex)
    for n in range(2, N):
        m = np.arange(-n, n + 1)
        partner = mu[:, None] - m[None, :]
        low, low_theta = rows(grid.plm, m, n), rows(grid.dplm_dtheta, m, n)
        high, high_theta = rows(grid.plm, partner, n + 1), rows(grid.dplm_dtheta, partner, n + 1)
        jacobian = partner[..., None] * low_theta * high - m[:, None] * low * high_theta
        c = 1.0 / ((n + 1.0) * (n + 2.0)) - 1.0 / (n * (n + 1.0))
        table[n - 2, :, N - n : N + n + 1] = 1j * c * np.sum(jacobian * y2, axis=-1)
    table.flags.writeable = False
    return table


def extract_coupling(omega: SpectralField, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (M, f) of the degree-2 block to w_{>=3}, read off G = T w_{n+1}^{mu-m} without a transform.

    T is the adjacent_degree_table.  M_{mu,k} = G[0, i, N+k], since w_2 meets
    only w_3; f is the degree-2 row of the two-jet linear part on
    h = w_{>=3} minus the transport sum_{n >= 3, m} G[n-2, i, N+m] w_n^m.
    That row is down[3] w_3, as only degree 3 couples down to degree 2; its
    m < 0 entries are the mirrors (-1)^m conj of the m > 0 ones.  Both
    vanish identically when w_{>=3} = 0.
    """
    N = omega.N
    if N < 3:
        return np.zeros((5, 5), dtype=complex), np.zeros(5, dtype=complex)
    w = omega.full_table()
    # The +-m table between two zero orders on each side, so w_{n+1}^{mu-m} sits at column partner.
    padded = np.zeros((N + 1, 2 * N + 5), dtype=complex)
    padded[:, 2:-2] = w
    mu = np.array(MODE2_ORDER)
    partner = N + 2 + mu[:, None] - np.arange(-N, N + 1)[None, :]
    G = adjacent_degree_table(N) * padded[3:, partner]
    transport = np.einsum("nim,nm->i", G[1:], w[3:N])
    linear = linear_part(N, "two_jet", amplitude).down[3, :3] * omega.coeffs[3, :3]  # m = 0, 1, 2
    f = np.concatenate([linear[::-1], np.conj(linear[1:]) * np.array([-1.0, 1.0])]) - transport
    return G[0][:, N + mu], f


def equilibrium_report(sys: ReducedSystem, params: KillingParams, amplitude: float, method: str) -> dict:
    """JSON-ready equilibrium record of sys = build_system(params, amplitude, nu) by one route."""
    if method == "closed_form":
        w = equilibrium_closed_form(params, amplitude, sys.nu)
    elif method == "solve":
        w = equilibrium_solve(sys)
    else:
        raise ValueError(f"unknown method {method!r}")
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
