"""Spherical harmonic transforms for real, mean-zero scalar fields.

Coefficient tables hold u_n^m for 1 <= n <= N and |m| <= n.  A real field is
transformed from its m >= 0 half: synthesis is a Legendre sum per order m and
an inverse real FFT in longitude, analysis a real FFT followed by
Gauss-Legendre quadrature in colatitude per order m, mirrored to m < 0.  Both
are exact for band-limited data.  The Legendre sums over all orders are one
real batched matrix product per call.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass

import numpy as np

from .harmonics import QuadratureGrid
from .serialize import dumps17


# Largest mean-mode projection real_analysis accepts, relative to max(1, max |samples|).
MEAN_TOL = 1e-10


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
        mirrored = np.conj(self.coeffs[:, ::-1]) * (-1.0) ** np.arange(-self.N, self.N + 1)
        return float(np.max(np.abs(self.coeffs - mirrored)))

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
            value = complex(float(item["re"]), float(item.get("im", 0.0)))
            if not cmath.isfinite(value):
                raise ValueError(f"coefficient ({n}, {m}) is not finite")
            out[n, m] = value
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


def _per_order_product(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """table[m] @ rows[m] for every order m, with real table (m, p, q) and complex rows (m, q).

    The rows are multiplied as their (m, q, 2) real/imaginary view, so the
    batched matmul stays real and reaches BLAS; the (m, p, 2) product is
    viewed back as complex (m, p).
    """
    pairs = np.ascontiguousarray(rows, dtype=complex).view(float).reshape(*rows.shape, 2)
    return np.matmul(table, pairs).view(complex)[..., 0]


def real_synthesis(half: np.ndarray, grid: QuadratureGrid, table: np.ndarray) -> np.ndarray:
    """Real samples of a series over |m| <= n <= N from its m >= 0 coefficients.

    ``half[n, m]`` holds c_n^m for m = 0..N and ``table[m, n, j]`` the latitude
    basis of order m >= 0 (grid.plm or grid.dplm_dtheta).  The m < 0 terms are
    implied by c_n^{-m} = (-1)^m conj(c_n^m) and the matching (-1)^m symmetry
    of the basis, so they are the conjugates of the m > 0 terms; the imaginary
    part of the m = 0 column is ignored.
    """
    N = half.shape[0] - 1
    if N > grid.N:
        raise ValueError(f"field degree {N} exceeds grid degree {grid.N}")
    K = grid.n_phi
    spec = np.zeros((grid.n_theta, K // 2 + 1), dtype=complex)
    spec[:, : N + 1] = _per_order_product(table[: N + 1, : N + 1, :].transpose(0, 2, 1), half.T).T
    return np.fft.irfft(spec, n=K, axis=1) * K


def real_analysis(values: np.ndarray, grid: QuadratureGrid, N: int | None = None) -> SpectralField:
    """Quadrature projections (f, Y_n^m) of real mean-zero node samples, n <= N.

    Projected for m >= 0 and mirrored, so the reality rule holds by
    construction.  The projection onto the constant mode vanishes for a
    mean-zero field; it must stay below MEAN_TOL * max(1, max |values|), so
    round-off at large amplitude passes and solver drift raises MeanModeError.
    """
    if N is None:
        N = grid.N
    if N > grid.N:
        raise ValueError(f"requested degree {N} exceeds grid degree {grid.N}")
    K = grid.n_phi
    fhat = np.fft.rfft(values, axis=1)[:, : N + 1] * (2.0 * math.pi / K)
    proj = _per_order_product(grid.plm[: N + 1, : N + 1, :], (grid.theta_weights[:, None] * fhat).T).T
    mean = abs(proj[0, 0])
    scale = max(1.0, float(np.max(np.abs(values))))
    if mean > MEAN_TOL * scale:
        raise MeanModeError(f"field not mean-zero: mean mode projection {mean:.6e} (sample scale {scale:.3e})")
    out = SpectralField.zeros(N)
    out.coeffs[:, N:] = proj
    return out.symmetrized()


def synthesize(u: SpectralField, grid: QuadratureGrid) -> GridField:
    """Grid samples of a real field, synthesized from its m >= 0 coefficients.

    A table that breaks the reality rule by more than 1e-12 relative to its
    norm would leave an imaginary residue and is rejected.
    """
    residue = u.reality_residual()
    if residue > 1e-12 * max(1.0, u.norm()):
        raise ValueError(
            f"synthesis would leave an imaginary residue {residue:.3e}; coefficients break the reality rule"
        )
    return GridField(grid=grid, values=real_synthesis(u.coeffs[:, u.N :], grid, grid.plm))


def analyze(f: GridField) -> SpectralField:
    """Forward transform of a real mean-zero field (real_analysis at the grid degree)."""
    return real_analysis(f.values, f.grid)


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
