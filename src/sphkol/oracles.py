"""Independent references: Cartesian frames, complex-table synthesis, Killing fields, frame map.

The solver works on the m >= 0 half of real fields only.  The functions here
reach the same quantities another way, so the tests and the identity-oracle
suite can check it: vectors as Cartesian 3-components at the grid nodes,
complex coefficient tables split into two real fields, the Killing vector
fields X(x) = a x x through which the paper proves its conservation and
convergence results, and the map from a rotating-frame state to the
non-rotating one.  The quadrature integral, degree multipliers, Laplacian
powers, the closed-form degree-2 rotation table and the exact unforced
propagator of the 5-mode system (with the Hermiticity check it rests on) live
here too: only the checks use them.  A complex table is a full (N+1, 2N+1)
array with entry (n, m) at [n, N+m]; a real field passes
SpectralField.full_table().  No solver module imports this one, and the cli
loads it only for the oracle runs.
"""

from __future__ import annotations

import math

import numpy as np

from .harmonics import QuadratureGrid, build_grid, recurrence_table
from .operators import KillingParams, convection, inverse_laplacian
from .reduced_ode import MODE2_ORDER, ReducedSystem, _degree2_generator, equilibrium_solve
from .sht import SpectralField, analyze, random_real_field, real_analysis, real_synthesis, synthesize


Y10_PER_COS_THETA = 2.0 * math.sqrt(math.pi / 3.0)  # cos(theta) = this * Y_1^0
MIN_LMAX = 4  # smallest degree the identity-oracle suites run at


def integrate(grid: QuadratureGrid, values: np.ndarray):
    """Surface integral of node samples over the sphere."""
    phi_mean = np.sum(values, axis=1) * (2.0 * math.pi / grid.n_phi)
    return np.sum(grid.theta_weights * phi_mean)


def apply_degree_multiplier(u: SpectralField, factors: np.ndarray) -> SpectralField:
    """Multiply every degree-n row of u by factors[n] (factors[0] is ignored)."""
    out = u.coeffs * np.asarray(factors)[:, None]
    out[0] = 0.0
    return SpectralField(out)


def laplacian_power(u: SpectralField, s: float) -> SpectralField:
    """Fractional operator (-Laplacian)^s: multiply degree n by (n(n+1))^s."""
    factors = np.array([0.0] + [float(n * (n + 1)) ** s for n in range(1, u.N + 1)])
    return apply_degree_multiplier(u, factors)


def laplacian(u: SpectralField) -> SpectralField:
    """Laplace-Beltrami operator (degree multiplier -n(n+1))."""
    return SpectralField(-laplacian_power(u, 1.0).coeffs)


def killing_degree2_matrix(axis) -> np.ndarray:
    """Closed-form matrix of X . grad on the degree-2 span, rows/cols ordered m = 2..-2.

    X(x) = a x x is the Killing field of the rotation axis a.  Column k holds
    the expansion coefficients of X . grad Y_2^{m_k}; the degree-2 span is
    invariant, so this matrix is the whole story.
    """
    a1, a2, a3 = np.asarray(axis, dtype=float)
    return _degree2_generator(1j * a3, 1j * a1 + a2, 1j * a1 - a2)


def hermiticity_residual(sys: ReducedSystem) -> float:
    """max |A - A^H| of a reduced system's coupling matrix."""
    return float(np.max(np.abs(sys.A - sys.A.conj().T)))


def propagate_exact(sys: ReducedSystem, w0: np.ndarray, t: float) -> np.ndarray:
    """Unforced solution w(t) = exp(-(4 nu I + i A) t)(w0 - w_inf) + w_inf.

    A is Hermitian, so the propagator is a pure phase factor exp(-i mu_k t)
    per eigenvector times the scalar decay exp(-4 nu t).
    """
    if t < 0:
        raise ValueError("time must be nonnegative")
    herm = hermiticity_residual(sys)
    if herm > 1e-13:
        raise ArithmeticError(f"coupling matrix lost Hermiticity ({herm:.3e})")
    w_inf = equilibrium_solve(sys)
    mu, vecs = np.linalg.eigh(sys.A)
    phases = np.exp(-4.0 * sys.nu * t - 1j * mu * t)
    delta = vecs @ (phases * (vecs.conj().T @ (np.asarray(w0, dtype=complex) - w_inf)))
    return delta + w_inf


def frame_map(zeta: SpectralField, Omega: float, t: float) -> SpectralField:
    """Rotating-frame state to non-rotating state.

    zeta(theta, phi, t) = omega(theta, phi + Omega t, t) - 2 Omega cos(theta)
    carries the two-jet dynamics with the Coriolis term -2 Omega d_phi Lap^{-1}
    to the dynamics without it.  Coefficient (n, m) picks up the phase
    exp(-i m Omega t), which realizes the longitude shift phi -> phi - Omega t
    on synthesis, and the rigid rotation 2 Omega cos(theta) lands on the
    (1, 0) coefficient, so the map is exact for band-limited fields.
    """
    N = zeta.N
    m = np.arange(N + 1, dtype=float)
    phases = np.exp(-1j * m * Omega * t)[None, :]
    out = SpectralField(zeta.coeffs * phases)
    out[1, 0] = out[1, 0] + 2.0 * Omega * Y10_PER_COS_THETA
    return out


def tangent_frame(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node positions x and the tangent vectors dx/dtheta and dx/dphi (length sin theta), each (n_theta, n_phi, 3)."""
    st, ct = grid.sin_theta[:, None], grid.cos_theta[:, None]
    cp, sp = np.cos(grid.phi_nodes)[None, :], np.sin(grid.phi_nodes)[None, :]
    ones = np.ones_like(cp)
    xyz = np.stack([st * cp, st * sp, ct * ones], axis=-1)
    dtheta = np.stack([ct * cp, ct * sp, -st * ones], axis=-1)
    dphi = np.stack([-st * sp, st * cp, np.zeros_like(st * cp)], axis=-1)
    return xyz, dtheta, dphi


def inner(grid: QuadratureGrid, u: np.ndarray, v: np.ndarray):
    """L^2 inner product (u, v) = integral of u * conj(v)."""
    return integrate(grid, u * np.conj(v))


def unit_table(N: int, n: int, m: int) -> np.ndarray:
    """Complex table of the single harmonic Y_n^m."""
    out = np.zeros((N + 1, 2 * N + 1), dtype=complex)
    out[n, N + m] = 1.0
    return out


def _real_halves(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m >= 0 halves of the real fields (c + c*)/2 and (c - c*)/2i, c*_n^m = (-1)^m conj(c_n^{-m})."""
    N = table.shape[0] - 1
    mirror = np.conj(table[:, N::-1]) * (-1.0) ** np.arange(N + 1)
    pos = table[:, N:]
    return (pos + mirror) / 2.0, (pos - mirror) / 2j


def table_synthesis(table: np.ndarray, grid: QuadratureGrid, basis: np.ndarray) -> np.ndarray:
    """Complex samples of a complex table against a per-(m, n) latitude basis.

    The table splits into two real fields, each synthesized by real_synthesis;
    ``basis`` must obey the symmetry real_synthesis asks for.
    """
    re, im = _real_halves(table)
    return real_synthesis(re, grid, basis) + 1j * real_synthesis(im, grid, basis)


def synthesize_complex(table: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Pointwise sum of the harmonic series of a complex table; no reality assumed."""
    return table_synthesis(table, grid, grid.plm)


def analyze_complex(values: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Quadrature projections (f, Y_n^m) of complex mean-zero node samples, as a complex table of the grid's degree."""
    return real_analysis(values.real, grid).full_table() + 1j * real_analysis(values.imag, grid).full_table()


def gradient_values(table: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Complex Cartesian gradient samples of a complex table, shape (n_theta, n_phi, 3)."""
    N = table.shape[0] - 1
    du_dtheta = table_synthesis(table, grid, grid.dplm_dtheta)
    m_factors = 1j * np.arange(-N, N + 1)
    du_dphi = table_synthesis(table * m_factors[None, :], grid, grid.plm)
    inv_sin2 = 1.0 / (grid.sin_theta**2)
    _, dtheta, dphi = tangent_frame(grid)
    return du_dtheta[:, :, None] * dtheta + (du_dphi * inv_sin2[:, None])[:, :, None] * dphi


def velocity_values(omega: SpectralField, grid: QuadratureGrid) -> np.ndarray:
    """Complex samples of n x grad(inverse_laplacian(omega))."""
    psi = inverse_laplacian(omega).full_table()
    return np.cross(tangent_frame(grid)[0], gradient_values(psi, grid))


def _resolve_axis(params) -> np.ndarray:
    if isinstance(params, KillingParams):
        return params.axis
    return np.asarray(params, dtype=float)


def killing_field_values(axis, grid: QuadratureGrid) -> np.ndarray:
    """Samples of the rotation field X(x) = a x x."""
    a = _resolve_axis(axis)
    xyz = tangent_frame(grid)[0]
    return np.cross(np.broadcast_to(a, xyz.shape), xyz)


def killing_advect(params, table: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Complex table of X . grad along the Killing field of ``params`` (degree-preserving)."""
    x_field = killing_field_values(params, grid)
    product = np.sum(x_field * gradient_values(table, grid), axis=-1)
    return analyze_complex(product, grid)


def killing_identity_residual(f: SpectralField, g: SpectralField, axis, grid: QuadratureGrid) -> float:
    """Quadrature of (Lap f) <grad g, X> + (Lap g) <grad f, X>; zero for Killing X."""
    x_field = killing_field_values(axis, grid)
    lap_f = synthesize(laplacian(f), grid).values
    lap_g = synthesize(laplacian(g), grid).values
    grad_f = gradient_values(f.full_table(), grid).real
    grad_g = gradient_values(g.full_table(), grid).real
    integrand = lap_f * np.sum(grad_g * x_field, axis=-1) + lap_g * np.sum(grad_f * x_field, axis=-1)
    return float(integrate(grid, integrand))


def killing_pairing_residuals(omega: SpectralField, axis, grid: QuadratureGrid) -> tuple[float, float]:
    """The two pairings (X.grad Lap^{-1} w, w) and (X.grad w, Lap^{-1} w); both vanish."""
    x_field = killing_field_values(axis, grid)
    psi = inverse_laplacian(omega)
    w_vals = synthesize(omega, grid).values
    psi_vals = synthesize(psi, grid).values
    grad_w = gradient_values(omega.full_table(), grid).real
    grad_psi = gradient_values(psi.full_table(), grid).real
    first = integrate(grid, np.sum(grad_psi * x_field, axis=-1) * w_vals)
    second = integrate(grid, np.sum(grad_w * x_field, axis=-1) * psi_vals)
    return float(first), float(second)


def identity_oracle_residuals(seed: int, lmax: int, n_triples: int = 100, n_axes: int = 20) -> dict:
    """Max residuals of the integral identities on seeded random data.

    Families: quadrature normalization, harmonic orthonormality, conjugation
    symmetry, the cos(theta) recurrence projections, the Laplacian
    eigenfunction roundtrip, the Killing integral identity, the stream/
    transport pairings, the degree-1 projections of convection, the
    closed-form degree-2 rotation table, and the tangent-basis identities.
    """
    if lmax < MIN_LMAX:
        raise ValueError(f"oracle suites need lmax >= {MIN_LMAX}, got {lmax}")
    rng = np.random.default_rng(seed)
    grid = build_grid(lmax)
    res: dict[str, float] = {}

    ones = np.ones((grid.n_theta, grid.n_phi))
    res["surface_area"] = abs(float(integrate(grid, ones)) - 4.0 * math.pi) / (4.0 * math.pi)

    # orthonormality on a seeded sample of harmonic pairs
    indices = [(n, m) for n in range(1, lmax + 1) for m in range(-n, n + 1)]

    def sample_nm():
        return indices[int(rng.integers(0, len(indices)))]

    worst = 0.0
    for _ in range(60):
        n1, m1 = sample_nm()
        n2, m2 = sample_nm()
        v1 = synthesize_complex(unit_table(lmax, n1, m1), grid)
        v2 = synthesize_complex(unit_table(lmax, n2, m2), grid)
        expected = 1.0 if (n1, m1) == (n2, m2) else 0.0
        worst = max(worst, abs(complex(inner(grid, v1, v2)) - expected))
    res["orthonormality"] = worst

    worst = 0.0
    theta = grid.theta_nodes[:, None]
    phi = grid.phi_nodes[None, :]
    for _ in range(12):
        n, m = sample_nm()
        v = synthesize_complex(unit_table(lmax, n, m), grid)
        vm = synthesize_complex(unit_table(lmax, n, -m), grid)
        worst = max(worst, float(np.max(np.abs(vm - (-1.0) ** m * np.conj(v)))))
    res["conjugation"] = worst

    worst = 0.0
    cos_t = np.cos(theta) * np.ones_like(phi)
    a = recurrence_table(lmax)
    for _ in range(30):
        n, m = sample_nm()
        if n >= lmax:
            continue
        v = synthesize_complex(unit_table(lmax, n, m), grid) * cos_t
        for target, coeff in ((n - 1, a[n, abs(m)]), (n + 1, a[n + 1, abs(m)])):
            if target < max(1, abs(m)):
                continue
            proj = complex(inner(grid, v, synthesize_complex(unit_table(lmax, target, m), grid)))
            worst = max(worst, abs(proj - coeff))
    res["cos_theta_recurrence"] = worst

    worst = 0.0
    for _ in range(8):
        f = random_real_field(lmax, rng)
        vals = synthesize(f, grid)
        lap_grid = synthesize(laplacian(analyze(vals)), grid)
        n_arr = np.arange(lmax + 1)
        expected = synthesize(apply_degree_multiplier(f, -(n_arr * (n_arr + 1.0))), grid)
        scale = max(1.0, float(np.max(np.abs(expected.values))))
        worst = max(worst, float(np.max(np.abs(lap_grid.values - expected.values))) / scale)
    res["laplacian_eigenfunction"] = worst

    worst = 0.0
    for _ in range(n_triples):
        f = random_real_field(lmax, rng, amplitude=1.0, decay=0.6)
        g = random_real_field(lmax, rng, amplitude=1.0, decay=0.6)
        axis = rng.standard_normal(3)
        worst = max(worst, abs(killing_identity_residual(f, g, axis, grid)))
    res["killing_identity"] = worst

    worst = 0.0
    for _ in range(20):
        f = random_real_field(lmax, rng, amplitude=1.0, decay=0.6)
        axis = rng.standard_normal(3)
        r1, r2 = killing_pairing_residuals(f, axis, grid)
        worst = max(worst, abs(r1), abs(r2))
    res["killing_pairings"] = worst

    worst = 0.0
    for _ in range(10):
        f = random_real_field(lmax, rng, amplitude=1.0, decay=0.6)
        conv = convection(f, grid)
        for m in (-1, 0, 1):
            worst = max(worst, abs(conv[1, m]))
    res["convection_degree1_projection"] = worst

    worst_coeff, worst_leak = 0.0, 0.0
    for _ in range(n_axes):
        axis = rng.standard_normal(3)
        table = killing_degree2_matrix(axis)
        for col, m in enumerate(MODE2_ORDER):
            adv = killing_advect(axis, unit_table(lmax, 2, m), grid)
            mode2 = adv[2, lmax - 2 : lmax + 3][::-1]
            worst_coeff = max(worst_coeff, float(np.max(np.abs(mode2 - table[:, col]))))
            adv[2] = 0.0
            worst_leak = max(worst_leak, float(np.max(np.abs(adv))))
    res["degree2_rotation_coefficients"] = worst_coeff
    res["degree2_rotation_leakage"] = worst_leak

    e1, e2, e3 = np.eye(3)
    xyz, dtheta, dphi = tangent_frame(grid)
    sin_t = grid.sin_theta[:, None]
    cos_t2 = grid.cos_theta[:, None]
    cp = np.cos(phi)
    sp = np.sin(phi)
    pairs = [
        (np.cross(e1, xyz), -sp * np.ones_like(sin_t), -sin_t * cos_t2 * cp),
        (np.cross(e2, xyz), cp * np.ones_like(sin_t), -sin_t * cos_t2 * sp),
        (np.cross(e3, xyz), np.zeros_like(sin_t * cp), sin_t**2 * np.ones_like(cp)),
    ]
    worst = 0.0
    for field_vals, want_theta, want_phi in pairs:
        worst = max(worst, float(np.max(np.abs(np.sum(field_vals * dtheta, axis=-1) - want_theta))))
        worst = max(worst, float(np.max(np.abs(np.sum(field_vals * dphi, axis=-1) - want_phi))))
    res["tangent_basis_identities"] = worst
    return res
