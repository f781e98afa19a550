"""Spherical harmonic transforms for real, mean-zero scalar fields.

A real field is stored as its coefficients u_n^m for 1 <= n <= N and
0 <= m <= n; the m < 0 ones follow from reality.  Synthesis is a Legendre sum
per order m and a real longitude sum, analysis a longitude mean followed by
Gauss-Legendre quadrature in colatitude per order m.  Both work at the grid's
degree N only and are exact for band-limited data.  The Legendre sums over all
orders are one real batched matrix product per call.  Field files are read and
written by sphkol.cli.

The longitude stage has two forms, chosen by grid size inside both kernels.
On grids with n_phi <= MATMUL_MAX_NPHI it is one real matmul of the
(re, im)-interleaved spectrum by a cached grid matrix (grid.fourier_synthesis,
grid.fourier_analysis).  At N = 16 (n_phi = 64) that took a synthesis from 23
to 15 us and an analysis from 32 to 19 us; at n_phi = 128 the synthesis
matmul already lost to irfft at N = 32 (53 against 46 us), which set the
constant.  Larger grids use the FFTs, with norm="forward": the inverse sums
the longitude series unscaled, and the forward one returns the longitude
means.  Either way the weights 2 pi w_j (grid.analysis_weights) integrate the
means.

Stacks: real_synthesis also takes a stack (k, N+1, N+1) of fields and makes
them the 2k real columns of its one product per order, so a call reads its
latitude table once for all k (SHTns, Schaeffer 2013, transforms several
fields per pass for the same reason).  Each field's block of the product is
then copied into its own contiguous spectrum for the longitude stage: an irfft
over the interleaved layout measured slower than over separate spectra.  Each
column of the product and each row of the batched irfft comes out as it would
alone, so a stack's samples are bitwise those of k single calls
(tests/test_sht.py checks this on both longitude paths).

Work arrays: grids are cached per N (harmonics.build_grid) and read-only.  A
work array is one whose contents do not outlive the call that fills it, apart
from a padded array's zero border; no result is one.  _scratch is the one
cache of them, for these transforms, operators.convection and
reduced_ode.extract_coupling: one zero-filled array per role, shape and dtype,
the shape implying the degree.  Here they are the spectra real_synthesis fills
(zero-padded for irfft on the FFT path), the longitude means real_analysis
weights, and a stack's fields side by side (N+1, N+1, k) and their products
(n_theta, N+1, k).  real_synthesis(out=) writes into the caller's array.  The
work arrays make every caller not reentrant: no two calls at one shape at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .harmonics import QuadratureGrid, _read_only


# Largest longitude count whose Fourier stage is one real matmul by a cached
# grid matrix; larger grids use the FFT.
MATMUL_MAX_NPHI = 64

# Largest mean-mode projection real_analysis accepts, relative to max(1, max |samples|).
MEAN_TOL = 1e-10


class MeanModeError(ValueError):
    """A field that must be mean-zero carries a mean-mode projection."""


@lru_cache(maxsize=None)
def _mirror_signs(N: int) -> np.ndarray:
    """(-1)^m for m = N, N-1, ..., 1, the signs of the mirrored columns; cached per N, read-only."""
    return _read_only(((-1.0) ** np.arange(1, N + 1))[::-1].copy())


def full_tables(halves: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The (..., N+1, 2N+1) tables over |m| <= n of the m >= 0 halves (..., N+1, N+1), in out if given.

    Entry (n, m) sits at [..., n, N+m]: the half, and for m > 0 the mirror (n, -m) = (-1)^m conj(u_n^m).
    """
    N = halves.shape[-1] - 1
    if out is None:
        out = np.empty(halves.shape[:-1] + (2 * N + 1,), dtype=complex)
    out[..., N:] = halves
    mirror = np.conjugate(halves[..., :0:-1], out=out[..., :N])
    mirror *= _mirror_signs(N)
    return out


def mode2_entries(tables: np.ndarray) -> np.ndarray:
    """The degree-2 entries of (..., N+1, 2N+1) +-m tables, ordered m = 2, 1, 0, -1, -2: a view, not a copy."""
    N = tables.shape[-2] - 1
    return tables[..., 2, N - 2 : N + 3][..., ::-1]


@dataclass
class SpectralField:
    """Real mean-zero scalar field on the sphere, stored as its m >= 0 coefficients.

    coeffs has shape (N+1, N+1), which sets the degree N; c_n^m lives at
    ``coeffs[n, m]`` for 0 <= m <= n, and the entries with m > n stay zero.
    Row 0 stays zero: the mean mode is structurally excluded.  The m < 0
    coefficients follow from reality, c_n^{-m} = (-1)^m conj(c_n^m):
    ``u[n, -m]`` reads that mirror, a write there stores the mirror of the
    value at m, and a write at m = 0 must be real.  full_table() forms the
    whole +-m table.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.ndim != 2 or self.coeffs.shape[0] != self.coeffs.shape[1]:
            raise ValueError(f"coefficients of shape {self.coeffs.shape} are not square")

    @property
    def N(self) -> int:
        return self.coeffs.shape[0] - 1

    @classmethod
    def zeros(cls, N: int) -> "SpectralField":
        if N < 1:
            raise ValueError("truncation degree must be at least 1")
        return cls(np.zeros((N + 1, N + 1), dtype=complex))

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
        """The (N+1, 2N+1) table over |m| <= n, entry (n, m) at [n, N+m]: the half and its mirror (full_tables)."""
        return full_tables(self.coeffs)

    def norm(self) -> float:
        """L^2 norm on the sphere (Parseval over the full table)."""
        return float(np.linalg.norm(self.full_table()))

    def mode2_vector(self) -> np.ndarray:
        """Degree-2 coefficients ordered (m=2, 1, 0, -1, -2)."""
        if self.N < 2:
            raise ValueError("field has no degree-2 modes")
        return mode2_entries(self.full_table()).copy()


@dataclass
class GridField:
    """Real scalar samples on a quadrature grid."""

    grid: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n_theta, self.grid.n_phi)
        if self.values.shape != expected:
            raise ValueError(f"sample shape {self.values.shape} != grid shape {expected}")


def _pairs(a: np.ndarray) -> np.ndarray:
    """The (m, q, 2k) real/imaginary view of a complex (q, m, k) array, never a copy; its last axis must be contiguous.

    Read through it, the Legendre sum over every order, table[m] @ a[:, m],
    is one real batched matmul that reaches BLAS and writes its output view
    in place.  A (q, m) array enters as a[..., None]; a stack's k fields are
    its 2k real columns.
    """
    return a.view(float).swapaxes(0, 1)


@lru_cache(maxsize=None)
def _scratch(role: str, shape: tuple[int, ...], dtype: type) -> np.ndarray:
    """The zero-filled work array of one role, shape and dtype (module docstring)."""
    return np.zeros(shape, dtype=dtype)


def real_synthesis(
    half: np.ndarray, grid: QuadratureGrid, table: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Real samples of a series over |m| <= n <= N = grid.N from its m >= 0 coefficients, in out if given.

    ``half[n, m]`` holds c_n^m for m = 0..N and ``table[m, n, j]`` the latitude
    basis of order m >= 0 (grid.plm or grid.dplm_dtheta).  The m < 0 terms are
    implied by c_n^{-m} = (-1)^m conj(c_n^m) and the matching (-1)^m symmetry
    of the basis, so they are the conjugates of the m > 0 terms; the imaginary
    part of the m = 0 column is ignored.  half may also be a stack (k, N+1, N+1)
    of fields, whose samples are (k, n_theta, n_phi) and bitwise those of k
    single calls; the stack reads the table once.  out, if given, is a
    C-contiguous float array of the samples' shape; without it the samples are
    a new array.
    """
    N = grid.N
    if half.shape[-2] != N + 1:
        raise ValueError(f"field degree {half.shape[-2] - 1} != grid degree {N}")
    K = grid.n_phi
    small = K <= MATMUL_MAX_NPHI
    shape = half.shape[:-2] + (grid.n_theta, N + 1 if small else K // 2 + 1)
    spectra = _scratch("spectrum", shape, complex)
    if half.ndim == 2:
        rows = np.ascontiguousarray(half, dtype=complex)
        np.matmul(table.transpose(0, 2, 1), _pairs(rows[..., None]), out=_pairs(spectra[:, : N + 1, None]))
    else:
        rows = _scratch("rows", (N + 1, N + 1, len(half)), complex)
        for k, field in enumerate(half):
            rows[..., k] = field
        columns = _scratch("columns", (grid.n_theta, N + 1, len(half)), complex)
        np.matmul(table.transpose(0, 2, 1), _pairs(rows), out=_pairs(columns))
        spectra[..., : N + 1] = columns.transpose(2, 0, 1)
    if small:
        return np.matmul(spectra.view(float), grid.fourier_synthesis, out=out)
    return np.fft.irfft(spectra, n=K, axis=-1, norm="forward", out=out)


def real_analysis(values: np.ndarray, grid: QuadratureGrid) -> SpectralField:
    """Quadrature projections (f, Y_n^m), m >= 0, of real mean-zero node samples, n <= grid.N.

    Column 0 is kept real and the mean row zero.  The projection onto the
    constant mode vanishes for a mean-zero field; it must stay below
    MEAN_TOL * max(1, max |values|), so round-off at large amplitude passes
    and solver drift raises MeanModeError.  values must lie on the grid's nodes.
    """
    N = grid.N
    if values.shape != (grid.n_theta, grid.n_phi):
        raise ValueError(f"samples of shape {values.shape} are not on the degree-{N} grid")
    if grid.n_phi <= MATMUL_MAX_NPHI:
        means = np.matmul(values, grid.fourier_analysis, out=_scratch("means", (grid.n_theta, 2 * N + 2), float))
        means *= grid.analysis_weights
        weighted = means.view(complex)
    else:
        means = _scratch("means", (grid.n_theta, grid.n_phi // 2 + 1), complex)
        np.fft.rfft(values, axis=1, norm="forward", out=means)
        weighted = np.multiply(grid.analysis_weights, means[:, : N + 1], out=means[:, : N + 1])
    half = np.empty((N + 1, N + 1), dtype=complex)
    np.matmul(grid.plm, _pairs(weighted[..., None]), out=_pairs(half[..., None]))
    mean = abs(half[0, 0])
    if mean > MEAN_TOL:  # below it the check passes at any sample scale
        scale = max(1.0, float(np.max(np.abs(values))))
        if mean > MEAN_TOL * scale:
            raise MeanModeError(f"field not mean-zero: mean mode projection {mean:.6e} (sample scale {scale:.3e})")
    half[:, 0] = half[:, 0].real
    half[0] = 0.0
    return SpectralField(half)


def synthesize(u: SpectralField, grid: QuadratureGrid) -> GridField:
    """Grid samples of a real field, synthesized from its m >= 0 coefficients."""
    return GridField(grid=grid, values=real_synthesis(u.coeffs, grid, grid.plm))


def analyze(f: GridField) -> SpectralField:
    """Forward transform of a real mean-zero field."""
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
