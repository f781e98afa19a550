"""Orthonormal complex spherical harmonics and Gauss-Legendre grids.

Conventions: Y_n^m(theta, phi) = Pbar_n^m(cos theta) * exp(i m phi), where
Pbar includes the Condon-Shortley phase and the full orthonormalization
sqrt((2n+1)/(4 pi) * (n-m)!/(n+m)!), so that the harmonics are orthonormal
in L^2 of the unit sphere and Y_n^{-m} = (-1)^m conj(Y_n^m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class HarmonicIndex:
    """Degree-order pair (n, m) with |m| <= n; lam is the -Laplacian eigenvalue n(n+1)."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 0 or abs(self.m) > self.n:
            raise ValueError(f"invalid harmonic index (n={self.n}, m={self.m})")

    @property
    def lam(self) -> float:
        return float(self.n * (self.n + 1))


def harmonic_indices(N: int, n_min: int = 1):
    """All indices with n_min <= n <= N in (degree, order) row order."""
    for n in range(n_min, N + 1):
        for m in range(-n, n + 1):
            yield HarmonicIndex(n, m)


def recurrence_coeff(n: int, m: int) -> float:
    """Coefficient a_n^m in  cos(theta) Y_n^m = a_n^m Y_{n-1}^m + a_{n+1}^m Y_{n+1}^m."""
    if abs(m) > n:
        raise ValueError(f"order |m|={abs(m)} exceeds degree n={n}")
    if n < 1:
        raise ValueError("recurrence coefficient requires n >= 1")
    return math.sqrt((n - m) * (n + m) / ((2.0 * n - 1.0) * (2.0 * n + 1.0)))


def gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton iteration on the Legendre polynomial from the Tricomi initial
    guess; converges to machine precision in a handful of steps.
    """
    if n_nodes < 1:
        raise ValueError("need at least one quadrature node")
    k = np.arange(n_nodes)
    x = np.cos(math.pi * (4.0 * k + 3.0) / (4.0 * n_nodes + 2.0))

    def legendre_and_derivative(x):
        p_prev = np.zeros_like(x)
        p = np.ones_like(x)
        for deg in range(1, n_nodes + 1):
            p_prev, p = p, ((2.0 * deg - 1.0) * x * p - (deg - 1.0) * p_prev) / deg
        dp = n_nodes * (x * p - p_prev) / (x * x - 1.0)
        return p, dp

    for _ in range(50):
        p, dp = legendre_and_derivative(x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = legendre_and_derivative(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


def _normalized_plm_table(N: int, s: np.ndarray) -> np.ndarray:
    """Pbar_n^m(s) for 0 <= m <= n <= N at the sample points s, shape (m, n, j)."""
    s = np.asarray(s, dtype=float)
    table = np.zeros((N + 1, N + 1, s.size))
    sin_t = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    table[0, 0] = 1.0 / math.sqrt(FOUR_PI)
    for m in range(1, N + 1):
        table[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_t * table[m - 1, m - 1]
    for m in range(N + 1):
        for n in range(m + 1, N + 1):
            num = s * table[m, n - 1]
            if n - 2 >= m:
                num = num - recurrence_coeff(n - 1, m) * table[m, n - 2]
            table[m, n] = num / recurrence_coeff(n, m)
    return table


def _plm_theta_derivative_table(N: int, s: np.ndarray, plm: np.ndarray) -> np.ndarray:
    """d Pbar_n^m / d theta at interior points (|s| < 1), from the degree-lowering relation."""
    sin_t = np.sqrt(1.0 - s * s)
    deriv = np.zeros_like(plm)
    for m in range(N + 1):
        for n in range(m, N + 1):
            lower = plm[m, n - 1] if n - 1 >= m else 0.0
            a_n = recurrence_coeff(n, m) if n >= 1 else 0.0
            deriv[m, n] = (n * s * plm[m, n] - (2.0 * n + 1.0) * a_n * lower) / sin_t
    return deriv


def eval_plm(n: int, m: int, s: float) -> float:
    """Associated Legendre function P_n^m(s), Condon-Shortley phase included.

    Negative orders follow P_n^{-m} = (-1)^m (n-m)!/(n+m)! P_n^m.  Evaluated
    through the normalized recurrence and denormalized, so large-n overflow of
    the raw factorials is avoided until the final scaling.
    """
    if abs(m) > n:
        raise ValueError(f"order |m|={abs(m)} exceeds degree n={n}")
    if not -1.0 < s < 1.0:
        raise ValueError("argument must satisfy |s| < 1")
    ma = abs(m)
    pbar = _normalized_plm_table(n, np.array([s]))[ma, n, 0]
    log_norm = 0.5 * (
        math.log((2.0 * n + 1.0) / FOUR_PI)
        + math.lgamma(n - ma + 1.0)
        - math.lgamma(n + ma + 1.0)
    )
    value = pbar * math.exp(-log_norm)
    if m < 0:
        value *= (-1.0) ** ma * math.exp(math.lgamma(n - ma + 1.0) - math.lgamma(n + ma + 1.0))
    return value


def eval_ynm(n: int, m: int, theta: float, phi: float) -> complex:
    """Spherical harmonic Y_n^m at colatitude theta and longitude phi."""
    if abs(m) > n:
        raise ValueError(f"order |m|={abs(m)} exceeds degree n={n}")
    ma = abs(m)
    pbar = _normalized_plm_table(n, np.array([math.cos(theta)]))[ma, n, 0]
    if m >= 0:
        return pbar * complex(math.cos(m * phi), math.sin(m * phi))
    return (-1.0) ** ma * pbar * complex(math.cos(m * phi), math.sin(m * phi))


@dataclass(eq=False)
class QuadratureGrid:
    """Gauss-Legendre x equispaced-longitude grid exact for triple products.

    theta_nodes ascend and stay strictly inside (0, pi); theta_weights
    integrate d(cos theta) over [-1, 1]; phi_nodes are 2 pi k / n_phi.  Node
    counts satisfy the quadratic-dealiasing bounds n_theta >= ceil(3(N+1)/2)
    and n_phi >= 3N+1, so products of three fields band-limited at N are
    integrated exactly.
    """

    N: int
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    phi_nodes: np.ndarray

    @property
    def n_theta(self) -> int:
        return self.theta_nodes.size

    @property
    def n_phi(self) -> int:
        return self.phi_nodes.size

    @cached_property
    def cos_theta(self) -> np.ndarray:
        return np.cos(self.theta_nodes)

    @cached_property
    def sin_theta(self) -> np.ndarray:
        return np.sin(self.theta_nodes)

    @cached_property
    def plm(self) -> np.ndarray:
        """Normalized Legendre table, shape (N+1, N+1, n_theta), indexed [m, n, j]."""
        return _normalized_plm_table(self.N, self.cos_theta)

    @cached_property
    def dplm_dtheta(self) -> np.ndarray:
        return _plm_theta_derivative_table(self.N, self.cos_theta, self.plm)

    def integrate(self, values: np.ndarray):
        """Surface integral of node samples over the sphere."""
        phi_mean = np.sum(values, axis=1) * (2.0 * math.pi / self.n_phi)
        return np.sum(self.theta_weights * phi_mean)


def build_grid(N: int) -> QuadratureGrid:
    """Quadrature grid for truncation degree N (node counts per the 3/2-rule)."""
    if N < 2:
        raise ValueError("truncation degree must be at least 2")
    n_theta = math.ceil(3 * (N + 1) / 2)
    n_phi = 1
    while n_phi < 3 * N + 1:
        n_phi *= 2
    s, w = gauss_legendre(n_theta)
    theta = np.arccos(s[::-1])  # ascending colatitude
    weights = w[::-1].copy()
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    return QuadratureGrid(N=N, theta_nodes=theta, theta_weights=weights, phi_nodes=phi)
