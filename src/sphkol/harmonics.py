"""Orthonormal complex spherical harmonics and Gauss-Legendre grids.

Conventions: Y_n^m(theta, phi) = Pbar_n^m(cos theta) * exp(i m phi), where
Pbar includes the Condon-Shortley phase and the full orthonormalization
sqrt((2n+1)/(4 pi) * (n-m)!/(n+m)!), so that the harmonics are orthonormal
in L^2 of the unit sphere and Y_n^{-m} = (-1)^m conj(Y_n^m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

FOUR_PI = 4.0 * math.pi


def _read_only(array: np.ndarray) -> np.ndarray:
    """array, marked read-only: cached tables are shared by every caller."""
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def recurrence_table(N: int) -> np.ndarray:
    """a_n^m in  cos(theta) Y_n^m = a_n^m Y_{n-1}^m + a_{n+1}^m Y_{n+1}^m, indexed [n, m].

    Shape (N+1, N+1) over 0 <= n, m <= N; a_n^{-m} = a_n^m.  Zero at n = 0
    and wherever m >= n.  Cached per N and read-only.
    """
    n, m = np.ogrid[: N + 1, : N + 1]
    a = np.sqrt(np.maximum(n - m, 0) * (n + m) / ((2.0 * n - 1.0) * (2.0 * n + 1.0)))
    return _read_only(np.where(m < n, a, 0.0))


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


def legendre_table(N: int, s: np.ndarray) -> np.ndarray:
    """Pbar_n^m(s) for 0 <= m <= n <= N at the sample points s, shape (m, n, j); zero where m > n.

    The sectoral entries come from Pbar_m^m = -sqrt((2m+1)/(2m)) sin(theta) Pbar_{m-1}^{m-1},
    each degree n from the two below it through the recurrence table.
    """
    s = np.asarray(s, dtype=float)
    a = recurrence_table(N)[:, :, None]
    table = np.zeros((N + 1, N + 1, s.size))
    sin_t = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    table[0, 0] = 1.0 / math.sqrt(FOUR_PI)
    for n in range(1, N + 1):
        table[n, n] = -math.sqrt((2.0 * n + 1.0) / (2.0 * n)) * sin_t * table[n - 1, n - 1]
        below = s * table[:n, n - 1]
        if n >= 2:
            below = below - a[n - 1, :n] * table[:n, n - 2]
        table[:n, n] = below / a[n, :n]
    return table


@dataclass(eq=False)
class QuadratureGrid:
    """Gauss-Legendre x equispaced-longitude grid exact for triple products.

    theta_nodes ascend and stay strictly inside (0, pi); theta_weights
    integrate d(cos theta) over [-1, 1]; phi_nodes are 2 pi k / n_phi.  Node
    counts satisfy the quadratic-dealiasing bounds n_theta >= ceil(3(N+1)/2)
    and n_phi >= 3N+1, so products of three fields band-limited at N are
    integrated exactly.  build_grid caches one grid per N, so every array
    of a grid, node arrays and cached tables alike, is read-only.
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
        return _read_only(np.cos(self.theta_nodes))

    @cached_property
    def sin_theta(self) -> np.ndarray:
        return _read_only(np.sin(self.theta_nodes))

    @cached_property
    def inv_sin_theta(self) -> np.ndarray:
        """1 / sin(theta) as an (n_theta, 1) column."""
        return _read_only((1.0 / self.sin_theta)[:, None])

    @cached_property
    def analysis_weights(self) -> np.ndarray:
        """2 pi w_j as an (n_theta, 1) column: the colatitude weights times the longitude integral's 2 pi."""
        return _read_only((2.0 * math.pi * self.theta_weights)[:, None])

    @cached_property
    def fourier_synthesis(self) -> np.ndarray:
        """Real longitude-sum matrix, shape (2(N+1), n_phi): rows c_m cos(m phi) and -c_m sin(m phi) per m.

        c_0 = 1 and c_m = 2, so the (re, im)-interleaved m >= 0 spectrum times
        it is the real series over |m| <= N.  The m = 0 imaginary row is zero:
        that part is ignored, as irfft ignores it.  The angles reduce m k mod
        n_phi before scaling.  Read-only.
        """
        K = self.n_phi
        angle = (2.0 * math.pi / K) * (np.outer(np.arange(self.N + 1), np.arange(K)) % K)
        matrix = np.stack([2.0 * np.cos(angle), -2.0 * np.sin(angle)], axis=1).reshape(2 * (self.N + 1), K)
        matrix[0], matrix[1] = 1.0, 0.0
        return _read_only(matrix)

    @cached_property
    def fourier_analysis(self) -> np.ndarray:
        """Real longitude-mean matrix, shape (n_phi, 2(N+1)): columns cos(m phi) / n_phi and -sin(m phi) / n_phi.

        Samples times it are the (re, im)-interleaved means
        (1/n_phi) sum_k f(phi_k) exp(-i m phi_k) for m = 0..N, which
        rfft(norm="forward") returns.  Read-only.
        """
        scale = np.full((2 * (self.N + 1), 1), 0.5 / self.n_phi)
        scale[:2] = 1.0 / self.n_phi
        return _read_only(np.ascontiguousarray((scale * self.fourier_synthesis).T))

    @cached_property
    def plm(self) -> np.ndarray:
        """Normalized Legendre table, shape (N+1, N+1, n_theta), indexed [m, n, j]."""
        return _read_only(legendre_table(self.N, self.cos_theta))

    @cached_property
    def dplm_dtheta(self) -> np.ndarray:
        """d Pbar_n^m / d theta, same layout, from the degree-lowering relation.

        sin(theta) d Pbar_n^m / d theta = n cos(theta) Pbar_n^m - (2n+1) a_n^m Pbar_{n-1}^m.
        """
        s, plm = self.cos_theta, self.plm
        sin_t = np.sqrt(1.0 - s * s)
        a = recurrence_table(self.N)[:, :, None]
        deriv = np.zeros_like(plm)
        for n in range(self.N + 1):
            lower = plm[: n + 1, n - 1] if n >= 1 else 0.0
            deriv[: n + 1, n] = (n * s * plm[: n + 1, n] - (2.0 * n + 1.0) * a[n, : n + 1] * lower) / sin_t
        return _read_only(deriv)


@lru_cache(maxsize=None)
def build_grid(N: int) -> QuadratureGrid:
    """Quadrature grid for truncation degree N (node counts per the 3/2-rule), cached per N and shared."""
    if N < 2:
        raise ValueError("truncation degree must be at least 2")
    n_theta = math.ceil(3 * (N + 1) / 2)
    n_phi = 1
    while n_phi < 3 * N + 1:
        n_phi *= 2
    s, w = gauss_legendre(n_theta)
    theta = _read_only(np.arccos(s[::-1]))  # ascending colatitude
    weights = _read_only(w[::-1].copy())
    phi = _read_only(2.0 * math.pi * np.arange(n_phi) / n_phi)
    return QuadratureGrid(N=N, theta_nodes=theta, theta_weights=weights, phi_nodes=phi)
