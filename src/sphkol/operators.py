"""Spectral differential operators and the convection term.

The Laplacian family acts as degree multipliers and the two-jet coupling as a
tridiagonal map in degree.  The quadratic convection term goes through the
grid (pseudospectral, dealiased by grid oversizing), synthesized from the
m >= 0 half of real fields.  KillingParams packages the nondissipative
degree-1 data as the rotation axis of a Killing vector field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import QuadratureGrid, recurrence_coeff
from .sht import SpectralField, real_analysis, real_synthesis


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

    def __post_init__(self):
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
        if not math.isfinite(self.b):
            raise ValueError(f"b must be finite, got {self.b!r}")

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


@lru_cache(maxsize=None)
def _power_factors(N: int, s: float) -> np.ndarray:
    """(n(n+1))^s for n = 0..N with the n = 0 slot zero, cached per (N, s)."""
    return np.array([0.0] + [float(n * (n + 1)) ** s for n in range(1, N + 1)])


def laplacian_power(u: SpectralField, s: float) -> SpectralField:
    """Fractional operator (-Laplacian)^s: multiply degree n by (n(n+1))^s."""
    return u.apply_degree_multiplier(_power_factors(u.N, s))


def laplacian(u: SpectralField) -> SpectralField:
    """Laplace-Beltrami operator (degree multiplier -n(n+1))."""
    return -1.0 * laplacian_power(u, 1.0)


def inverse_laplacian(u: SpectralField) -> SpectralField:
    """Inverse of the Laplacian on mean-zero fields; laplacian(inverse_laplacian(u)) = u."""
    return -1.0 * laplacian_power(u, -1.0)


@lru_cache(maxsize=None)
def _acoeff_table(N: int) -> np.ndarray:
    """a_n^m for n = 0..N+1, 0 <= m <= min(n, N); zero where m > n."""
    table = np.zeros((N + 2, N + 1))
    for n in range(1, N + 2):
        for m in range(min(n, N) + 1):
            table[n, m] = recurrence_coeff(n, m)
    return table


@lru_cache(maxsize=None)
def _skew_weight_table(N: int) -> np.ndarray:
    """i m (1 - 6/(n(n+1))) for n = 0..N, 0 <= m <= N; row 0 zero."""
    n = np.arange(N + 1, dtype=float)
    weights = np.zeros(N + 1)
    weights[1:] = 1.0 - 6.0 / (n[1:] * (n[1:] + 1.0))
    return (1j * np.arange(N + 1))[None, :] * weights[:, None]


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


def angular_derivatives(half: np.ndarray, grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Grid samples of d/dtheta and d/dphi of a real field given by its m >= 0 half."""
    d_phi = 1j * np.arange(half.shape[0])
    return real_synthesis(half, grid, grid.dplm_dtheta), real_synthesis(half * d_phi, grid, grid.plm)


def convection(omega: SpectralField, grid: QuadratureGrid) -> SpectralField:
    """Pseudospectral transport term u . grad(w) = (psi_theta w_phi - psi_phi w_theta) / sin(theta).

    psi = Lap^{-1} w is the stream function of u = n x grad(psi).  The four
    derivatives are synthesized from the m >= 0 halves, the Jacobian is formed
    on the (dealiased) grid, and real_analysis projects it back; its mean-mode
    projection vanishes analytically and real_analysis checks it.
    """
    psi_theta, psi_phi = angular_derivatives(inverse_laplacian(omega).coeffs, grid)
    w_theta, w_phi = angular_derivatives(omega.coeffs, grid)
    jacobian = (psi_theta * w_phi - psi_phi * w_theta) / grid.sin_theta[:, None]
    return real_analysis(jacobian, grid, omega.N)
