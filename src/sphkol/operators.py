"""Spectral differential operators and the convection term.

inverse_laplacian is a cached degree multiplier.  linear_part builds the
non-diffusive linear part of every flow, a two-jet term plus one rigid rotation
about z: the rotation acts diagonally, the two-jet coupling tridiagonally in degree.  The quadratic
convection term goes through the grid (pseudospectral, dealiased by grid
oversizing), synthesized from the m >= 0 half of real fields.  KillingParams
packages the nondissipative degree-1 data as the rotation axis of a Killing
vector field.

convection writes its four sample sets into one (4, n_theta, n_phi) buffer
that this module owns per grid shape (_convection_samples).  It returns a new
field, never the buffer; like the sht transforms it calls, it is not
reentrant.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import QuadratureGrid, _read_only, recurrence_table
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

    @property
    def axis(self) -> np.ndarray:
        return np.array([-3.0 * self.alpha.real, 3.0 * self.alpha.imag, 1.5 * self.b])


@lru_cache(maxsize=None)
def _inverse_laplacian_column(N: int) -> np.ndarray:
    """-1/(n(n+1)) for n = 0..N as an (N+1, 1) column with the n = 0 slot zero, cached per N.

    Each value is formed as -(n(n+1))^(-1.0), which differs from -1/(n(n+1))
    in the last bit at some n (140, 438, ...); the outputs depend on this form.
    linear_part reads its 1/(n(n+1)) from here too.
    """
    return _read_only(-np.array([0.0] + [float(n * (n + 1)) ** -1.0 for n in range(1, N + 1)])[:, None])


def inverse_laplacian(u: SpectralField) -> SpectralField:
    """Inverse of the Laplacian on mean-zero fields: degree n is multiplied by -1/(n(n+1))."""
    return SpectralField(u.coeffs * _inverse_laplacian_column(u.N))


@dataclass(frozen=True)
class LinearPart:
    """Per-(n, m >= 0) factors of the non-diffusive linear part, each of shape (N+1, N+1).

    ``diagonal`` keeps the degree (the stepper integrates it), ``down`` takes w_n^m
    to degree n-1 and ``up`` to degree n+1; the degree-(N+1) spill is truncated.
    """

    diagonal: np.ndarray
    down: np.ndarray
    up: np.ndarray

    def apply(self, w: np.ndarray) -> np.ndarray:
        """The degree-changing part, down and up, applied to a real field's m >= 0 half w; the diagonal is left out."""
        out = np.zeros_like(w)
        out[:-1] = self.down[1:] * w[1:]
        out[2:] += self.up[1:-1] * w[1:-1]
        return out


@lru_cache(maxsize=4)
def linear_part(N: int, amplitude: float, rate: float = 0.0) -> LinearPart:
    """The linear terms the diffusion leaves out: the two-jet term at amplitude a and a rigid rotation at rate r.

    Two-jet: -(a/4) sqrt(5/pi) cos(theta) d_phi (I + 6 Lap^{-1}), tridiagonal in
    degree through cos(theta) Y_n^m = a_n^m Y_{n-1}^m + a_{n+1}^m Y_{n+1}^m.  The
    rotation adds i r m (2/(n(n+1)) - 1), 0 at n = 1, to the diagonal: the Coriolis
    term -2 r d_phi Lap^{-1} and a frame rotating at r (co-rotating coefficients),
    or the one-jet term -(a/4) sqrt(3/pi) d_phi (I + 2 Lap^{-1}) at r = (a/4) sqrt(3/pi).
    The diagonal is skew in L^2; the two-jet term only in the (I + 6 Lap^{-1})-weighted
    product on degrees >= 3.  The tables are read-only; the last four argument tuples
    are cached (a run reads one or two), so a sweep over amplitudes keeps no more.
    """
    inv_lam = -_inverse_laplacian_column(N)[:, 0]  # 1/(n(n+1)), 0 at n = 0
    im = 1j * np.arange(N + 1)
    per_degree = 2.0 * rate * inv_lam - rate
    a_tab = recurrence_table(N)
    weight = -(amplitude / 4.0) * math.sqrt(5.0 / math.pi) * (1.0 - 6.0 * inv_lam)
    weight[0] = 0.0
    coupling = weight[:, None] * im[None, :]
    down, up = np.zeros((2, N + 1, N + 1), dtype=complex)
    down[2:] = coupling[2:] * a_tab[2 : N + 1]  # degree 1 feeds the mean mode nothing
    up[:N] = coupling[:N] * a_tab[1 : N + 1]
    return LinearPart(diagonal=_read_only(per_degree[:, None] * im[None, :]), down=_read_only(down), up=_read_only(up))


@lru_cache(maxsize=None)
def _phi_derivative_row(size: int) -> np.ndarray:
    """i m for m = 0..size-1, the d/dphi multiplier of the m >= 0 columns; cached per size, read-only."""
    return _read_only(1j * np.arange(size))


def angular_derivatives(half: np.ndarray, grid: QuadratureGrid, out=(None, None)) -> tuple[np.ndarray, np.ndarray]:
    """Grid samples of d/dtheta and d/dphi of a real field given by its m >= 0 half, in out's two arrays if given."""
    d_phi = _phi_derivative_row(half.shape[0])
    return real_synthesis(half, grid, grid.dplm_dtheta, out[0]), real_synthesis(half * d_phi, grid, grid.plm, out[1])


@lru_cache(maxsize=None)
def _convection_samples(n_theta: int, n_phi: int) -> np.ndarray:
    """convection's (4, n_theta, n_phi) sample buffer, one per grid shape; no result refers to it."""
    return np.empty((4, n_theta, n_phi))


def convection(omega: SpectralField, grid: QuadratureGrid) -> SpectralField:
    """Pseudospectral transport term u . grad(w) = (psi_theta w_phi - psi_phi w_theta) / sin(theta).

    psi = Lap^{-1} w is the stream function of u = n x grad(psi).  The four
    derivatives are synthesized from the m >= 0 halves, the Jacobian is formed
    on the (dealiased) grid, and real_analysis projects it back; its mean-mode
    projection vanishes analytically and real_analysis checks it.
    """
    samples = _convection_samples(grid.n_theta, grid.n_phi)
    # psi stays referenced to the end: released early, its block let glibc trim and regrow
    # the heap top on every call (about 1,700 against 130-320 minor faults per two_jet_n64 operation).
    psi = inverse_laplacian(omega).coeffs
    psi_theta, psi_phi = angular_derivatives(psi, grid, out=samples[:2])
    w_theta, w_phi = angular_derivatives(omega.coeffs, grid, out=samples[2:])
    jacobian = np.multiply(psi_theta, w_phi, out=psi_theta)
    jacobian -= np.multiply(psi_phi, w_theta, out=psi_phi)
    jacobian *= grid.inv_sin_theta
    return real_analysis(jacobian, grid)
