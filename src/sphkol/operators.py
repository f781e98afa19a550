"""Spectral differential operators, convection, and Killing-field machinery.

The Laplacian family acts as degree multipliers; gradients and the quadratic
convection term go through the grid (pseudospectral, dealiased by grid
oversizing); Killing vector fields X(x) = a x x drive the degree-preserving
rotation terms and the integral identities used as test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import QuadratureGrid, recurrence_coeff
from .sht import (
    SpectralField,
    TangentGridField,
    analyze_complex,
    real_analysis,
    real_synthesis,
    synthesize,
    table_synthesis,
)


@dataclass(frozen=True)
class KillingParams:
    """Nondissipative degree-1 data as (alpha, b) with its rotation axis.

    alpha and b repackage the degree-1 coefficients, alpha = w_1^1 / (2 sqrt(6 pi))
    and b = w_1^0 / (2 sqrt(3 pi)); the same data written as a rotation axis is
    a = (-3 Re alpha, 3 Im alpha, 3b/2), and the induced velocity field is the
    Killing field X(x) = a x x.
    """

    alpha: complex
    b: float

    @classmethod
    def from_field(cls, omega: SpectralField) -> "KillingParams":
        w11 = omega[1, 1]
        w10 = omega[1, 0]
        return cls(alpha=w11 / (2.0 * math.sqrt(6.0 * math.pi)), b=w10.real / (2.0 * math.sqrt(3.0 * math.pi)))

    @classmethod
    def from_axis(cls, axis) -> "KillingParams":
        a1, a2, a3 = np.asarray(axis, dtype=float)
        return cls(alpha=complex(-a1 / 3.0, a2 / 3.0), b=2.0 * a3 / 3.0)

    @property
    def axis(self) -> np.ndarray:
        return np.array([-3.0 * self.alpha.real, 3.0 * self.alpha.imag, 1.5 * self.b])

    def degree1_coefficients(self) -> tuple[float, complex]:
        """(w_1^0, w_1^1) reconstructed from (alpha, b)."""
        return 2.0 * math.sqrt(3.0 * math.pi) * self.b, 2.0 * math.sqrt(6.0 * math.pi) * self.alpha


def degree_values(N: int, fn) -> np.ndarray:
    """Vector [fn(n) for n = 0..N] with the n = 0 slot zeroed."""
    out = np.array([0.0 if n == 0 else fn(n) for n in range(N + 1)], dtype=float)
    return out


def laplacian_power(u: SpectralField, s: float) -> SpectralField:
    """Fractional operator (-Laplacian)^s: multiply degree n by (n(n+1))^s."""
    factors = degree_values(u.N, lambda n: float(n * (n + 1)) ** s)
    return u.apply_degree_multiplier(factors)


def laplacian(u: SpectralField) -> SpectralField:
    """Laplace-Beltrami operator (degree multiplier -n(n+1))."""
    return -1.0 * laplacian_power(u, 1.0)


def inverse_laplacian(u: SpectralField) -> SpectralField:
    """Inverse of the Laplacian on mean-zero fields; laplacian(inverse_laplacian(u)) = u."""
    return -1.0 * laplacian_power(u, -1.0)


def gradient_values(u: SpectralField, grid: QuadratureGrid) -> np.ndarray:
    """Complex Cartesian gradient samples, shape (n_theta, n_phi, 3)."""
    du_dtheta = table_synthesis(u.coeffs, u.N, grid, grid.dplm_dtheta)
    m_factors = 1j * np.arange(-u.N, u.N + 1)
    du_dphi = table_synthesis(u.coeffs * m_factors[None, :], u.N, grid, grid.plm)
    inv_sin2 = 1.0 / (grid.sin_theta**2)
    return (
        du_dtheta[:, :, None] * grid.dtheta_x
        + (du_dphi * inv_sin2[:, None])[:, :, None] * grid.dphi_x
    )


def gradient(u: SpectralField, grid: QuadratureGrid) -> TangentGridField:
    """Surface gradient of a real field as a tangential vector field."""
    values = gradient_values(u, grid)
    return TangentGridField(grid=grid, values=values.real.copy())


def velocity_values(omega: SpectralField, grid: QuadratureGrid) -> np.ndarray:
    """Complex samples of n x grad(inverse_laplacian(omega))."""
    psi = inverse_laplacian(omega)
    return np.cross(grid.nodes_xyz, gradient_values(psi, grid))


def velocity_from_vorticity(omega: SpectralField, grid: QuadratureGrid) -> TangentGridField:
    """Divergence-free velocity recovered from the vorticity via the stream function."""
    return TangentGridField(grid=grid, values=velocity_values(omega, grid).real.copy())


@lru_cache(maxsize=None)
def _acoeff_table(N: int) -> np.ndarray:
    """a_n^m for n = 0..N+1, |m| <= min(n, N); zero where |m| > n."""
    table = np.zeros((N + 2, 2 * N + 1))
    for n in range(1, N + 2):
        for m in range(-min(n, N), min(n, N) + 1):
            table[n, N + m] = recurrence_coeff(n, m)
    return table


@lru_cache(maxsize=None)
def _skew_weight_table(N: int) -> np.ndarray:
    """i m (1 - 6/(n(n+1))) for n = 0..N, |m| <= N; row 0 zero."""
    n = np.arange(N + 1, dtype=float)
    weights = np.zeros(N + 1)
    weights[1:] = 1.0 - 6.0 / (n[1:] * (n[1:] + 1.0))
    return (1j * np.arange(-N, N + 1))[None, :] * weights[:, None]


def perturbation_operator(omega: SpectralField) -> SpectralField:
    """Spectral action of cos(theta) d_phi (I + 6 Laplacian^{-1}).

    Tridiagonal in degree per order: Y_n^m maps to
    i m (1 - 6/(n(n+1))) (a_n^m Y_{n-1}^m + a_{n+1}^m Y_{n+1}^m);
    the degree-(N+1) spill is truncated.  a_n^m vanishes at |m| = n, so the
    down-shift never writes outside the triangle.
    """
    N = omega.N
    a_tab = _acoeff_table(N)
    tmp = _skew_weight_table(N) * omega.coeffs
    out = SpectralField.zeros(N)
    out.coeffs[0:N, :] += tmp[1 : N + 1, :] * a_tab[1 : N + 1, :]
    if N >= 2:
        out.coeffs[2 : N + 1, :] += tmp[1:N, :] * a_tab[2 : N + 1, :]
    out.coeffs[0, :] = 0.0
    return out


def convection(omega: SpectralField, grid: QuadratureGrid) -> SpectralField:
    """Pseudospectral transport term u . grad(w) = (psi_theta w_phi - psi_phi w_theta) / sin(theta).

    psi = Lap^{-1} w is the stream function of u = n x grad(psi).  The four
    derivatives are synthesized from the m >= 0 halves, the Jacobian is formed
    on the (dealiased) grid, and real_analysis projects it back; its mean-mode
    projection vanishes analytically and real_analysis checks it.
    """
    N = omega.N
    w = omega.coeffs[:, N:]
    psi = inverse_laplacian(omega).coeffs[:, N:]
    d_phi = 1j * np.arange(N + 1)
    psi_theta = real_synthesis(psi, grid, grid.dplm_dtheta)
    psi_phi = real_synthesis(psi * d_phi, grid, grid.plm)
    w_theta = real_synthesis(w, grid, grid.dplm_dtheta)
    w_phi = real_synthesis(w * d_phi, grid, grid.plm)
    jacobian = (psi_theta * w_phi - psi_phi * w_theta) / grid.sin_theta[:, None]
    return real_analysis(jacobian, grid, N)


def _resolve_axis(params) -> np.ndarray:
    if isinstance(params, KillingParams):
        return params.axis
    return np.asarray(params, dtype=float)


def killing_field_values(axis, grid: QuadratureGrid) -> np.ndarray:
    """Samples of the rotation field X(x) = a x x."""
    a = _resolve_axis(axis)
    return np.cross(np.broadcast_to(a, grid.nodes_xyz.shape), grid.nodes_xyz)


def killing_advect(params, omega: SpectralField, grid: QuadratureGrid) -> SpectralField:
    """Transport X . grad(omega) along the Killing field of ``params`` (degree-preserving)."""
    x_field = killing_field_values(params, grid)
    grad_w = gradient_values(omega, grid)
    product = np.sum(x_field * grad_w, axis=-1)
    return SpectralField(N=omega.N, coeffs=analyze_complex(product, grid, omega.N))


def killing_degree2_matrix(axis) -> np.ndarray:
    """Closed-form matrix of X . grad on the degree-2 span, rows/cols ordered m = 2..-2.

    Column k holds the expansion coefficients of X . grad Y_2^{m_k}; the
    degree-2 span is invariant, so this matrix is the whole story.
    """
    a1, a2, a3 = np.asarray(axis, dtype=float)
    p = 1j * a1 + a2
    q = 1j * a1 - a2
    r = math.sqrt(6.0) / 2.0
    K = np.zeros((5, 5), dtype=complex)
    # input m = 2: 2i a3 Y_2^2 + q Y_2^1
    K[0, 0] = 2j * a3
    K[1, 0] = q
    # input m = 1: p Y_2^2 + i a3 Y_2^1 + r q Y_2^0
    K[0, 1] = p
    K[1, 1] = 1j * a3
    K[2, 1] = r * q
    # input m = 0: r p Y_2^1 + r q Y_2^-1
    K[1, 2] = r * p
    K[3, 2] = r * q
    # input m = -1: q Y_2^-2 - i a3 Y_2^-1 + r p Y_2^0
    K[2, 3] = r * p
    K[3, 3] = -1j * a3
    K[4, 3] = q
    # input m = -2: -2i a3 Y_2^-2 + p Y_2^-1
    K[3, 4] = p
    K[4, 4] = -2j * a3
    return K


def killing_identity_residual(f: SpectralField, g: SpectralField, axis, grid: QuadratureGrid) -> float:
    """Quadrature of (Lap f) <grad g, X> + (Lap g) <grad f, X>; zero for Killing X."""
    x_field = killing_field_values(axis, grid)
    lap_f = synthesize(laplacian(f), grid).values
    lap_g = synthesize(laplacian(g), grid).values
    grad_f = gradient_values(f, grid).real
    grad_g = gradient_values(g, grid).real
    integrand = lap_f * np.sum(grad_g * x_field, axis=-1) + lap_g * np.sum(grad_f * x_field, axis=-1)
    return float(grid.integrate(integrand))


def killing_pairing_residuals(omega: SpectralField, axis, grid: QuadratureGrid) -> tuple[float, float]:
    """The two pairings (X.grad Lap^{-1} w, w) and (X.grad w, Lap^{-1} w); both vanish."""
    x_field = killing_field_values(axis, grid)
    w_vals = synthesize(omega, grid).values
    psi_vals = synthesize(inverse_laplacian(omega), grid).values
    grad_w = gradient_values(omega, grid).real
    grad_psi = gradient_values(inverse_laplacian(omega), grid).real
    first = grid.integrate(np.sum(grad_psi * x_field, axis=-1) * w_vals)
    second = grid.integrate(np.sum(grad_w * x_field, axis=-1) * psi_vals)
    return float(first), float(second)
