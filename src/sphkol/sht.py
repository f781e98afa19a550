"""Spherical harmonic transforms for real, mean-zero scalar fields.

Coefficient tables hold u_n^m for 1 <= n <= N and |m| <= n.  The grid-to-
spectral direction is an FFT in longitude followed by Gauss-Legendre
quadrature in colatitude per order m; both directions are exact for
band-limited data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .harmonics import QuadratureGrid
from .serialize import dumps17


class MeanModeError(ValueError):
    """A field that must be mean-zero carries a mean-mode projection."""


@dataclass
class SpectralField:
    """Coefficient table of a scalar field on the sphere.

    coeffs has shape (N+1, 2N+1); entry (n, m) lives at ``coeffs[n, N+m]``.
    Row 0 stays zero: the mean mode is structurally excluded.  A field
    representing real data satisfies coeffs(n,-m) = (-1)^m conj(coeffs(n,m)),
    but the table itself may hold arbitrary complex data (single harmonics
    are legitimate operator-test inputs).
    """

    N: int
    coeffs: np.ndarray

    @classmethod
    def zeros(cls, N: int) -> "SpectralField":
        if N < 1:
            raise ValueError("truncation degree must be at least 1")
        return cls(N=N, coeffs=np.zeros((N + 1, 2 * N + 1), dtype=complex))

    @classmethod
    def from_entries(cls, N, entries) -> "SpectralField":
        """Build from an iterable of (n, m, value) triples."""
        out = cls.zeros(N)
        for n, m, value in entries:
            out[n, m] = value
        return out

    def _check_index(self, n: int, m: int):
        if not (1 <= n <= self.N):
            raise IndexError(f"degree n={n} outside 1..{self.N}")
        if abs(m) > n:
            raise IndexError(f"order |m|={abs(m)} exceeds degree n={n}")

    def __getitem__(self, nm) -> complex:
        n, m = nm
        self._check_index(n, m)
        return complex(self.coeffs[n, self.N + m])

    def __setitem__(self, nm, value):
        n, m = nm
        self._check_index(n, m)
        self.coeffs[n, self.N + m] = value

    def copy(self) -> "SpectralField":
        return SpectralField(N=self.N, coeffs=self.coeffs.copy())

    def __add__(self, other: "SpectralField") -> "SpectralField":
        if other.N != self.N:
            raise ValueError("truncation degrees differ")
        return SpectralField(N=self.N, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        if other.N != self.N:
            raise ValueError("truncation degrees differ")
        return SpectralField(N=self.N, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "SpectralField":
        return SpectralField(N=self.N, coeffs=self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralField":
        return SpectralField(N=self.N, coeffs=-self.coeffs)

    def select_degree(self, n: int) -> "SpectralField":
        """Projection u_{=n}: keep only the degree-n row."""
        out = SpectralField.zeros(self.N)
        out.coeffs[n] = self.coeffs[n]
        return out

    def highpass(self, n_min: int) -> "SpectralField":
        """Projection u_{>=n_min}."""
        out = SpectralField.zeros(self.N)
        out.coeffs[n_min:] = self.coeffs[n_min:]
        return out

    def lowpass(self, n_max: int) -> "SpectralField":
        out = SpectralField.zeros(self.N)
        out.coeffs[: n_max + 1] = self.coeffs[: n_max + 1]
        return out

    def apply_degree_multiplier(self, factors: np.ndarray) -> "SpectralField":
        """Multiply every degree-n row by factors[n] (factors[0] is ignored)."""
        f = np.asarray(factors)
        out = self.coeffs * f[:, None]
        out[0] = 0.0
        return SpectralField(N=self.N, coeffs=out)

    def norm(self) -> float:
        """L^2 norm on the sphere (Parseval)."""
        return float(np.linalg.norm(self.coeffs))

    def degree_norm(self, n: int) -> float:
        return float(np.linalg.norm(self.coeffs[n]))

    def highpass_norm(self, n_min: int) -> float:
        return float(np.linalg.norm(self.coeffs[n_min:]))

    def mode1_vector(self) -> np.ndarray:
        """Degree-1 coefficients ordered (m=1, 0, -1)."""
        return np.array([self[1, 1], self[1, 0], self[1, -1]], dtype=complex)

    def mode2_vector(self) -> np.ndarray:
        """Degree-2 coefficients ordered (m=2, 1, 0, -1, -2)."""
        if self.N < 2:
            raise ValueError("field has no degree-2 modes")
        return np.array([self[2, m] for m in (2, 1, 0, -1, -2)], dtype=complex)

    def reality_residual(self) -> float:
        """Max deviation from coeffs(n,-m) = (-1)^m conj(coeffs(n,m))."""
        worst = 0.0
        for n in range(1, self.N + 1):
            row = self.coeffs[n, self.N - n : self.N + n + 1]
            ms = np.arange(-n, n + 1)
            mirrored = ((-1.0) ** ms) * np.conj(row[::-1])
            worst = max(worst, float(np.max(np.abs(row - mirrored))))
        return worst

    def symmetrized(self) -> "SpectralField":
        """Enforce the reality pattern from the m >= 0 half."""
        N = self.N
        out = SpectralField.zeros(N)
        pos = self.coeffs[:, N:]
        out.coeffs[:, N:] = pos
        out.coeffs[:, N] = pos[:, 0].real
        mirror = np.conj(pos[:, 1:]) * ((-1.0) ** np.arange(1, N + 1))[None, :]
        out.coeffs[:, :N] = mirror[:, ::-1]
        out.coeffs[0, :] = 0.0
        return out

    def to_json_text(self) -> str:
        """Serialize m >= 0 entries; negative orders are implied by reality."""
        entries = []
        for n in range(1, self.N + 1):
            for m in range(0, n + 1):
                c = self.coeffs[n, self.N + m]
                entries.append({"n": n, "m": m, "re": c.real, "im": c.imag})
        return dumps17({"N": self.N, "coeffs": entries})

    @classmethod
    def from_json_dict(cls, doc) -> "SpectralField":
        """Field from a parsed to_json_text document; "im" defaults to 0, m < 0 follows from reality."""
        out = cls.zeros(int(doc["N"]))
        for item in doc["coeffs"]:
            n, m = int(item["n"]), int(item["m"])
            if m < 0:
                raise ValueError("coefficients are listed for m >= 0; negative orders are implied")
            out[n, m] = complex(float(item["re"]), float(item.get("im", 0.0)))
        return out.symmetrized()

    def save(self, path):
        with open(path, "w", newline="\n") as fh:
            fh.write(self.to_json_text())
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "SpectralField":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass
class GridField:
    """Real scalar samples on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n_theta, self.grid.n_phi)
        if self.values.shape != expected:
            raise ValueError(f"sample shape {self.values.shape} != grid shape {expected}")

    def integral(self) -> float:
        return float(self.grid.integrate(self.values))


@dataclass
class TangentGridField:
    """Real tangential vector samples, Cartesian components per node."""

    grid: QuadratureGrid
    values: np.ndarray  # shape (n_theta, n_phi, 3)

    def tangency_residual(self) -> float:
        return float(np.max(np.abs(np.sum(self.values * self.grid.nodes_xyz, axis=-1))))

    def dot(self, other: np.ndarray) -> np.ndarray:
        return np.sum(self.values * other, axis=-1)

    def max_norm(self) -> float:
        return float(np.max(np.sqrt(np.sum(np.abs(self.values) ** 2, axis=-1))))


def _positive_negative_split(coeffs: np.ndarray, N: int):
    """Views (m, n) of the coefficient table: m >= 0 part and sign-adjusted m < 0 part."""
    pos = coeffs[:, N:].T.copy()  # (m, n) for m = 0..N
    neg = coeffs[:, :N][:, ::-1].T.copy()  # (m-1, n) for m = -1..-N
    signs = (-1.0) ** np.arange(1, N + 1)
    neg *= signs[:, None]
    return pos, neg


def table_synthesis(coeffs: np.ndarray, N: int, grid: QuadratureGrid, table: np.ndarray) -> np.ndarray:
    """Sum a coefficient table against a per-(m, n) latitude basis, FFT in longitude.

    ``table[m, n, j]`` must obey the same (-1)^m symmetry under m -> -m as the
    normalized Legendre functions; both grid.plm and grid.dplm_dtheta do.
    """
    K = grid.n_phi
    spec = np.zeros((grid.n_theta, K), dtype=complex)
    pos, neg = _positive_negative_split(coeffs, N)
    sub = table[: N + 1, : N + 1, :]
    g_pos = np.einsum("mn,mnj->jm", pos, sub)
    spec[:, 0 : N + 1] = g_pos
    if N >= 1:
        g_neg = np.einsum("mn,mnj->jm", neg, sub[1:])
        spec[:, K - N :] = g_neg[:, ::-1]
    return np.fft.ifft(spec, axis=1) * K


def synthesize_complex(u: SpectralField, grid: QuadratureGrid) -> np.ndarray:
    """Pointwise sum of the harmonic series; no reality assumed."""
    if u.N > grid.N:
        raise ValueError(f"field degree {u.N} exceeds grid degree {grid.N}")
    return table_synthesis(u.coeffs, u.N, grid, grid.plm)


def synthesize(u: SpectralField, grid: QuadratureGrid, imag_tol: float = 1e-12) -> GridField:
    """Grid samples of a reality-respecting coefficient table.

    The imaginary residue of the synthesis (zero in exact arithmetic when the
    coefficients obey the conjugation rule) must stay below imag_tol relative
    to the field scale; it is then dropped.
    """
    values = synthesize_complex(u, grid)
    scale = max(1.0, float(np.max(np.abs(values))))
    residue = float(np.max(np.abs(values.imag)))
    if residue > imag_tol * scale:
        raise ValueError(
            f"synthesis left an imaginary residue {residue:.3e}; coefficients break the reality rule"
        )
    return GridField(grid=grid, values=values.real.copy())


def analyze_complex(values: np.ndarray, grid: QuadratureGrid, N: int | None = None) -> np.ndarray:
    """Quadrature projections (f, Y_n^m) of complex node samples; full coefficient table."""
    if N is None:
        N = grid.N
    if N > grid.N:
        raise ValueError(f"requested degree {N} exceeds grid degree {grid.N}")
    K = grid.n_phi
    fhat = np.fft.fft(values, axis=1) * (2.0 * math.pi / K)  # (j, bins)
    weighted_pos = grid.theta_weights[:, None] * fhat[:, 0 : N + 1]  # (j, m) m = 0..N
    weighted_neg = grid.theta_weights[:, None] * fhat[:, K - N :][:, ::-1]  # (j, |m|-1)
    sub = grid.plm[: N + 1, : N + 1, :]
    proj_pos = np.einsum("mnj,jm->nm", sub, weighted_pos)
    proj_neg = np.einsum("mnj,jm->nm", sub[1:], weighted_neg)
    proj_neg *= ((-1.0) ** np.arange(1, N + 1))[None, :]
    coeffs = np.zeros((N + 1, 2 * N + 1), dtype=complex)
    coeffs[:, N:] = proj_pos
    coeffs[:, :N] = proj_neg[:, ::-1]
    coeffs[0, :] = 0.0
    return coeffs


def mean_projection(values: np.ndarray, grid: QuadratureGrid) -> complex:
    """Projection of node samples onto the constant mode Y_0^0."""
    return complex(grid.integrate(values)) / math.sqrt(4.0 * math.pi)


def analyze(f: GridField, mean_tol: float = 1e-10) -> SpectralField:
    """Forward transform of a real mean-zero field.

    Coefficients are computed for m >= 0 and mirrored, so the reality
    invariant holds by construction.  The mean-mode projection is checked
    against mean_tol and discarded; a violation signals solver drift rather
    than a recoverable condition.
    """
    grid = f.grid
    N = grid.N
    mean = mean_projection(f.values, grid)
    if abs(mean) > mean_tol:
        raise MeanModeError(f"field not mean-zero: mean-mode projection = {abs(mean):.6e}")
    K = grid.n_phi
    fhat = np.fft.fft(f.values, axis=1) * (2.0 * math.pi / K)
    weighted = grid.theta_weights[:, None] * fhat[:, 0 : N + 1]
    proj = np.einsum("mnj,jm->nm", grid.plm[: N + 1, : N + 1, :], weighted)  # (n, m>=0)
    out = SpectralField.zeros(N)
    out.coeffs[:, N:] = proj
    return out.symmetrized()


def random_real_field(
    N: int,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 0.5,
    degrees=None,
) -> SpectralField:
    """Random reality-respecting field with exponentially decaying degree spectrum."""
    out = SpectralField.zeros(N)
    span = range(1, N + 1) if degrees is None else degrees
    for n in span:
        scale = amplitude * math.exp(-decay * n)
        out[n, 0] = scale * rng.standard_normal()
        for m in range(1, n + 1):
            c = scale * (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
            out[n, m] = c
            out[n, -m] = (-1.0) ** m * np.conj(c)
    return out
