"""Spherical harmonic transforms for real, mean-zero scalar fields.

A real field is stored as its coefficients u_n^m for 1 <= n <= N and
0 <= m <= n; the m < 0 ones follow from reality.  Synthesis is a Legendre sum
per order m and an inverse real FFT in longitude, analysis a real FFT followed
by Gauss-Legendre quadrature in colatitude per order m.  Both are exact for
band-limited data.  The Legendre sums over all orders are one real batched
matrix product per call.
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
    """Real mean-zero scalar field on the sphere, stored as its m >= 0 coefficients.

    coeffs has shape (N+1, N+1); c_n^m lives at ``coeffs[n, m]`` for
    0 <= m <= n, and the entries with m > n stay zero.  Row 0 stays zero: the
    mean mode is structurally excluded.  The m < 0 coefficients follow from
    reality, c_n^{-m} = (-1)^m conj(c_n^m): ``u[n, -m]`` reads that mirror, a
    write there stores the mirror of the value at m, and a write at m = 0
    must be real.  full_table() forms the whole +-m table.
    """

    N: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.shape != (self.N + 1, self.N + 1):
            raise ValueError(f"coefficients of shape {self.coeffs.shape} do not fit N = {self.N}")

    @classmethod
    def zeros(cls, N: int) -> "SpectralField":
        if N < 1:
            raise ValueError("truncation degree must be at least 1")
        return cls(N=N, coeffs=np.zeros((N + 1, N + 1), dtype=complex))

    def _check_index(self, n: int, m: int):
        if not (1 <= n <= self.N):
            raise IndexError(f"degree n={n} outside 1..{self.N}")
        if abs(m) > n:
            raise IndexError(f"order |m|={abs(m)} exceeds degree n={n}")

    def __getitem__(self, nm) -> complex:
        n, m = nm
        self._check_index(n, m)
        if m < 0:
            return complex(np.conj(self.coeffs[n, -m]) * (-1.0) ** m)
        return complex(self.coeffs[n, m])

    def __setitem__(self, nm, value):
        n, m = nm
        self._check_index(n, m)
        value = complex(value)
        if m == 0 and value.imag != 0.0:
            raise ValueError(f"coefficient ({n}, 0) of a real field must be real, got {value}")
        if m < 0:
            value = value.conjugate() if m % 2 == 0 else -value.conjugate()
        self.coeffs[n, abs(m)] = value.real if m == 0 else value

    def full_table(self) -> np.ndarray:
        """The (N+1, 2N+1) table over |m| <= n, entry (n, m) at [n, N+m]: the half and its mirror."""
        N = self.N
        out = np.zeros((N + 1, 2 * N + 1), dtype=complex)
        out[:, N:] = self.coeffs
        mirror = np.conj(self.coeffs[:, 1:]) * ((-1.0) ** np.arange(1, N + 1))[None, :]
        out[:, :N] = mirror[:, ::-1]
        return out

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
        """L^2 norm on the sphere (Parseval over the full table)."""
        return float(np.linalg.norm(self.full_table()))

    def mode2_vector(self) -> np.ndarray:
        """Degree-2 coefficients ordered (m=2, 1, 0, -1, -2)."""
        if self.N < 2:
            raise ValueError("field has no degree-2 modes")
        return self.full_table()[2, self.N - 2 : self.N + 3][::-1].copy()

    def to_json_text(self) -> str:
        """Serialize m >= 0 entries; negative orders are implied by reality."""
        entries = []
        for n in range(1, self.N + 1):
            for m in range(0, n + 1):
                c = self.coeffs[n, m]
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
        return out

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
    """Quadrature projections (f, Y_n^m), m >= 0, of real mean-zero node samples, n <= N.

    Column 0 is kept real and the mean row zero.  The projection onto the
    constant mode vanishes for a mean-zero field; it must stay below
    MEAN_TOL * max(1, max |values|), so round-off at large amplitude passes
    and solver drift raises MeanModeError.
    """
    if N is None:
        N = grid.N
    if N > grid.N:
        raise ValueError(f"requested degree {N} exceeds grid degree {grid.N}")
    K = grid.n_phi
    fhat = np.fft.rfft(values, axis=1)[:, : N + 1] * (2.0 * math.pi / K)
    half = _per_order_product(grid.plm[: N + 1, : N + 1, :], (grid.theta_weights[:, None] * fhat).T).T.copy()
    mean = abs(half[0, 0])
    scale = max(1.0, float(np.max(np.abs(values))))
    if mean > MEAN_TOL * scale:
        raise MeanModeError(f"field not mean-zero: mean mode projection {mean:.6e} (sample scale {scale:.3e})")
    half[:, 0] = half[:, 0].real
    half[0] = 0.0
    return SpectralField(N=N, coeffs=half)


def synthesize(u: SpectralField, grid: QuadratureGrid) -> GridField:
    """Grid samples of a real field, synthesized from its m >= 0 coefficients."""
    return GridField(grid=grid, values=real_synthesis(u.coeffs, grid, grid.plm))


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
    """Random real field with exponentially decaying degree spectrum."""
    out = SpectralField.zeros(N)
    span = range(1, N + 1) if degrees is None else degrees
    for n in span:
        scale = amplitude * math.exp(-decay * n)
        out[n, 0] = scale * rng.standard_normal()
        for m in range(1, n + 1):
            c = scale * (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
            out[n, m] = c
    return out
