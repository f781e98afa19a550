"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the package's recurrence/transform code
paths: Legendre functions come from exact rational differentiation of the
Rodrigues polynomial, and sphere integrals from a dense composite-Simpson
rule in colatitude with a uniform longitude sum.  Time steps come from the
classical Lawson-RK4 formulas, written out here, applied to the integrating
factor's rate and the explicit right-hand side the caller passes.  The
Coriolis term has its closed form here.  The dense output one theta at a
time, and the forced 5-mode right-hand side with its rate formed at every
stage, are the bitwise references for the package's batched dense reads and
shared rates.  The FFT-path transforms and the convection written with a new
array for every spectrum and sample set are the bitwise references for the
package's cached work arrays.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from sphkol.operators import inverse_laplacian, linear_part
from sphkol.pde_solver import DP_C, DP_DENSE, linear_diffusion_factors
from sphkol.sht import SpectralField


def legendre_poly_coeffs(n: int) -> list[Fraction]:
    """Exact rational coefficients of the Legendre polynomial P_n (index = power)."""
    poly = [Fraction(0)] * (2 * n + 1)
    for k in range(n + 1):
        poly[2 * k] = Fraction(math.comb(n, k)) * Fraction((-1) ** (n - k))
    for _ in range(n):
        poly = [poly[i + 1] * (i + 1) for i in range(len(poly) - 1)]
    denom = Fraction(2**n) * math.factorial(n)
    return [c / denom for c in poly]


def plm_reference(n: int, m: int, s):
    """P_n^m(s) with Condon-Shortley phase; P_n^{-m} = (-1)^m (n-m)!/(n+m)! P_n^m."""
    ma = abs(m)
    coeffs = legendre_poly_coeffs(n)
    for _ in range(ma):
        coeffs = [coeffs[i + 1] * (i + 1) for i in range(len(coeffs) - 1)]
    s = np.asarray(s, dtype=float)
    value = np.zeros_like(s)
    for c in reversed([float(c) for c in coeffs]):
        value = value * s + c
    out = (-1.0) ** ma * (1.0 - s * s) ** (ma / 2.0) * value
    if np.ndim(out) == 0:
        out = float(out)
    if m < 0:
        out *= (-1.0) ** ma * math.factorial(n - ma) / math.factorial(n + ma)
    return out


def ynm_reference(n: int, m: int, theta, phi):
    """Orthonormal Y_n^m from plm_reference and the explicit normalization."""
    ma = abs(m)
    norm = math.sqrt(
        (2 * n + 1) / (4.0 * math.pi) * math.factorial(n - ma) / math.factorial(n + ma)
    )
    base = norm * plm_reference(n, ma, np.cos(theta)) * np.exp(1j * ma * np.asarray(phi))
    if m >= 0:
        return base
    return (-1.0) ** ma * np.conj(base)


def sphere_integral_simpson(fn, n_theta: int = 2001, n_phi: int = 256):
    """Integral over the sphere of fn(theta, phi); Simpson x uniform-longitude."""
    if n_theta % 2 == 0:
        n_theta += 1
    theta = np.linspace(0.0, math.pi, n_theta)
    phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
    vals = fn(theta[:, None], phi[None, :])
    integrand = vals * np.sin(theta)[:, None]
    phi_integral = integrand.sum(axis=1) * (2.0 * math.pi / n_phi)
    h = math.pi / (n_theta - 1)
    weights = np.ones(n_theta)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (phi_integral @ weights) * h / 3.0


def coriolis_rates(N: int, Omega: float) -> np.ndarray:
    """2 i Omega m / (n(n+1)) at (n, m), n, m = 0..N, and 0 at n = 0: the Coriolis term -2 Omega d_phi Lap^{-1}."""
    n = np.arange(1, N + 1, dtype=float)[:, None]
    out = np.zeros((N + 1, N + 1), dtype=complex)
    out[1:] = 2j * Omega * np.arange(N + 1) / (n * (n + 1.0))
    return out


def lawson_rate(cfg):
    """D + S of cfg's run: the diffusion column plus linear_part's skew diagonal, or the column alone when S = 0."""
    diffusion = linear_diffusion_factors(cfg.N, cfg.nu)[:, None]
    skew = linear_part(cfg.N, *cfg.flow).diagonal
    return diffusion + skew if skew.any() else diffusion


def classic_step(nonlinear, rate, state, dt):
    """One classical Lawson-RK4 step of d_t w = rate w + nonlinear(w), rate D + S per coefficient (or per degree).

    state is a SpectralField, and nonlinear maps m >= 0 halves to m >= 0 halves, as Stepper.nonlinear does.
    """
    e_half = np.exp(rate * (dt / 2.0))
    e_full = np.exp(rate * dt)
    u = state.coeffs
    k1 = nonlinear(u)
    u2 = e_half * (u + (dt / 2.0) * k1)
    k2 = nonlinear(u2)
    u3 = e_half * u + (dt / 2.0) * k2
    k3 = nonlinear(u3)
    u4 = e_full * u + dt * e_half * k3
    k4 = nonlinear(u4)
    advanced = e_full * u + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return SpectralField(advanced)


def classic_states(nonlinear, rate, state, dt, nsteps):
    """state and the states after each of nsteps classic_step steps of size dt."""
    states = [state]
    for _ in range(nsteps):
        states.append(classic_step(nonlinear, rate, states[-1], dt))
    return states


def dense_deviation(stepper, t, s):
    """The deviation at time s inside stepper's last Dormand-Prince attempt from t, one theta = (s - t) / dt at a time.

    e^{theta dt S} (e^{theta dt D} v + dt sum_j b_j(theta) e^{(theta - c_j) dt D} k~_j), where the stages hold
    k~_j = e^{-c_j dt S} k_j and S is the stepper's skew diagonal (none when it is 0).
    """
    theta = (s - t) / stepper.dt
    decay = stepper.diffusion * stepper.dt
    weights = theta * (DP_DENSE[0] + theta * (DP_DENSE[1] + theta * (DP_DENSE[2] + theta * DP_DENSE[3])))
    row = np.concatenate([np.exp(theta * decay), stepper.dt * weights * np.exp(decay * (theta - DP_C))], axis=1)
    deviation = (row[:, None, :] @ stepper.stages.view(float)).view(complex)[:, 0]
    return deviation if stepper.skew is None else deviation * np.exp(theta * stepper.dt * stepper.skew)


def propagate_forced_reference(sys, w0, M_series, f_series, dt, t_end):
    """RK4 of dw/dt = -(operator + M(t)) w + f(t) + c on the half-step samples, the operator added at every stage."""
    nsteps = int(round(t_end / dt))

    def rhs(idx, w):
        return -(sys.operator + M_series[idx]) @ w + f_series[idx] + sys.c

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


def _pairs(a):
    """The (m, q, 2) real/imaginary view of a complex (q, m) array, as the package's kernels read it."""
    return a[..., None].view(float).swapaxes(0, 1)


def allocating_synthesis(half, grid, table):
    """real_synthesis on an FFT-path grid, its zero-padded spectrum and its samples new arrays."""
    N = half.shape[0] - 1
    spec = np.zeros((grid.n_theta, grid.n_phi // 2 + 1), dtype=complex)
    rows = np.ascontiguousarray(half, dtype=complex)
    np.matmul(table[: N + 1, : N + 1, :].transpose(0, 2, 1), _pairs(rows), out=_pairs(spec[:, : N + 1]))
    return np.fft.irfft(spec, n=grid.n_phi, axis=1, norm="forward")


def allocating_analysis(values, grid, N):
    """real_analysis coefficients on an FFT-path grid, the rfft output a new array (no mean-mode check)."""
    weighted = grid.analysis_weights * np.fft.rfft(values, axis=1, norm="forward")[:, : N + 1]
    half = np.empty((N + 1, N + 1), dtype=complex)
    np.matmul(grid.plm[: N + 1, : N + 1, :], _pairs(weighted), out=_pairs(half))
    half[:, 0] = half[:, 0].real
    half[0] = 0.0
    return half


def allocating_convection(omega, grid):
    """Coefficients of operators.convection on an FFT-path grid, every sample set a new array."""
    d_phi = 1j * np.arange(omega.N + 1)

    def derivatives(half):
        return allocating_synthesis(half, grid, grid.dplm_dtheta), allocating_synthesis(half * d_phi, grid, grid.plm)

    psi_theta, psi_phi = derivatives(inverse_laplacian(omega).coeffs)
    w_theta, w_phi = derivatives(omega.coeffs)
    return allocating_analysis((psi_theta * w_phi - psi_phi * w_theta) * grid.inv_sin_theta, grid, omega.N)
