import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import highpass_norm, rand_field, select_degree
from refimpl import allocating_convection, coriolis_rates
from sphkol import operators
from sphkol.harmonics import QuadratureGrid, build_grid, gauss_legendre
from sphkol.operators import (
    KillingParams,
    convection,
    inverse_laplacian,
    linear_part,
)
from sphkol.oracles import (
    analyze_complex,
    apply_degree_multiplier,
    gradient_values,
    integrate,
    killing_advect,
    killing_degree2_matrix,
    killing_identity_residual,
    killing_pairing_residuals,
    laplacian,
    laplacian_power,
    synthesize_complex,
    tangent_frame,
    unit_table,
    velocity_values,
)
from sphkol.sht import MeanModeError, SpectralField, analyze, synthesize


def reference_convection(omega, grid):
    """convection with backward-normalized FFTs (irfft * K), -laplacian_power(w, -1) and division by sin(theta)."""
    N, K = omega.N, grid.n_phi

    def product(table, rows):  # table[m] @ rows[m] as one real batched matmul
        pairs = np.ascontiguousarray(rows, dtype=complex).view(float).reshape(*rows.shape, 2)
        return np.matmul(table, pairs).view(complex)[..., 0]

    def synthesis(half, table):
        spec = np.zeros((grid.n_theta, K // 2 + 1), dtype=complex)
        spec[:, : N + 1] = product(table[: N + 1, : N + 1, :].transpose(0, 2, 1), half.T).T
        return np.fft.irfft(spec, n=K, axis=1) * K

    def derivatives(half):
        return synthesis(half, grid.dplm_dtheta), synthesis(half * (1j * np.arange(N + 1)), grid.plm)

    psi_theta, psi_phi = derivatives(-laplacian_power(omega, -1.0).coeffs)
    w_theta, w_phi = derivatives(omega.coeffs)
    jacobian = (psi_theta * w_phi - psi_phi * w_theta) / grid.sin_theta[:, None]
    fhat = np.fft.rfft(jacobian, axis=1)[:, : N + 1] * (2.0 * math.pi / K)
    half = product(grid.plm[: N + 1, : N + 1, :], (grid.theta_weights[:, None] * fhat).T).T.copy()
    half[:, 0] = half[:, 0].real
    half[0] = 0.0
    return SpectralField(half)


def single(N, n, m, value=1.0):
    """The real field with coefficient value at (n, m) and its mirror at (n, -m)."""
    u = SpectralField.zeros(N)
    u[n, m] = value
    return u


# Prefactor of the two-jet term in linear_part per unit amplitude, -(1/4) sqrt(5/pi).
TWO_JET_PREFACTOR = -0.25 * math.sqrt(5.0 / math.pi)


def one_jet_rate(a):
    """(a/4) sqrt(3/pi): the rotation rate of the one-jet term -(a/4) sqrt(3/pi) d_phi (I + 2 Lap^{-1})."""
    return (a / 4.0) * math.sqrt(3.0 / math.pi)


def perturbation_operator(omega):
    """cos(theta) d_phi (I + 6 Lap^{-1}) omega, read off the two-jet linear part at unit amplitude."""
    return SpectralField(linear_part(omega.N, 1.0, 0.0).apply(omega.coeffs) * (1.0 / TWO_JET_PREFACTOR))


def inv_lam(N):
    """1/(n(n+1)) for n = 0..N with the n = 0 slot zero."""
    n = np.arange(N + 1, dtype=float)
    out = np.zeros(N + 1)
    out[1:] = 1.0 / (n[1:] * (n[1:] + 1.0))
    return out


def params_from_axis(axis):
    """KillingParams of the rotation axis a = (-3 Re alpha, 3 Im alpha, 3b/2)."""
    a1, a2, a3 = np.asarray(axis, dtype=float)
    return KillingParams(alpha=complex(-a1 / 3.0, a2 / 3.0), b=2.0 * a3 / 3.0)


def degree1_coefficients(params):
    """(w_1^0, w_1^1) reconstructed from (alpha, b)."""
    return 2.0 * math.sqrt(3.0 * math.pi) * params.b, 2.0 * math.sqrt(6.0 * math.pi) * params.alpha


def table_mode2(table):
    """Degree-2 entries of a complex table, ordered m = 2..-2."""
    N = table.shape[0] - 1
    return table[2, N - 2 : N + 3][::-1]


def gradient(u, grid):
    """Real Cartesian gradient samples of a real field."""
    return gradient_values(u.full_table(), grid).real


def velocity(omega, grid):
    """Real Cartesian velocity samples of a real vorticity field."""
    return velocity_values(omega, grid).real


def tangency_residual(values, grid):
    """Largest radial component of Cartesian vector samples."""
    return float(np.max(np.abs(np.sum(values * tangent_frame(grid)[0], axis=-1))))


class TestLaplacianFamily:
    def test_eigenvalue_multiplier(self):
        for m in range(-2, 3):
            u = single(6, 2, m)
            assert laplacian_power(u, 1.0)[2, m] == pytest.approx(6.0, abs=1e-14)
            assert laplacian_power(u, 0.5)[2, m] == pytest.approx(math.sqrt(6.0), abs=1e-14)

    def test_inverse_on_degree_one(self):
        u = single(4, 1, 0)
        assert inverse_laplacian(u)[1, 0] == pytest.approx(-0.5, abs=1e-15)

    def test_laplacian_inverse_is_identity(self):
        u = rand_field(8, seed=12)
        v = inverse_laplacian(laplacian(u))
        assert np.max(np.abs(v.coeffs - u.coeffs)) < 1e-13

    def test_inverse_laplacian_keeps_the_two_multiplier_values(self):
        u = rand_field(12, seed=6)
        assert np.array_equal(inverse_laplacian(u).coeffs, -laplacian_power(u, -1.0).coeffs)

    def test_half_power_equals_gradient_norm(self, grid8):
        # |(-Lap)^(1/2) u|_L2 = |grad u|_L2, checked by quadrature
        u = rand_field(8, seed=3)
        lhs = laplacian_power(u, 0.5).norm()
        g = gradient(u, grid8)
        rhs = math.sqrt(integrate(grid8, np.sum(g**2, axis=-1)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_discrete_eigenfunction_roundtrip(self, grid16):
        for n, m in ((1, 0), (3, 2), (7, -5), (16, 11)):
            u = single(16, n, m)
            vals = synthesize(u, grid16)
            lap = synthesize(laplacian(analyze(vals)), grid16)
            want = -n * (n + 1.0) * vals.values
            scale = np.max(np.abs(want))
            assert np.max(np.abs(lap.values - want)) < 1e-11 * scale


class TestGradient:
    def test_zonal_degree_one(self, grid8):
        u = single(8, 1, 0)
        g = gradient(u, grid8)
        want = -0.5 * math.sqrt(3.0 / math.pi) * np.sin(grid8.theta_nodes)[:, None, None] * tangent_frame(grid8)[1]
        assert np.max(np.abs(g - want)) < 1e-13

    def test_zero_field(self, grid8):
        g = gradient(SpectralField.zeros(8), grid8)
        assert np.all(g == 0.0)

    def test_tangency(self, grid8):
        g = gradient(rand_field(8, seed=8), grid8)
        assert tangency_residual(g, grid8) < 1e-12

    def test_energy_identity_degree_three(self, grid8):
        u = single(8, 3, 1)
        g = gradient(u, grid8)
        energy = integrate(grid8, np.sum(g**2, axis=-1))
        assert energy == pytest.approx(12.0 * u.norm() ** 2, rel=1e-12)


class TestVelocity:
    def test_degree_one_is_rigid_rotation(self, grid8):
        v = velocity(single(8, 1, 0), grid8)
        want = 0.25 * math.sqrt(3.0 / math.pi) * np.cross([0.0, 0.0, 1.0], tangent_frame(grid8)[0])
        assert np.max(np.abs(v - want)) < 1e-13

    def test_zonal_velocity_is_azimuthal(self, grid8):
        omega = single(8, 2, 0, 0.7)
        omega[5, 0] = -0.2
        v = velocity(omega, grid8)
        theta_component = np.sum(v * tangent_frame(grid8)[1], axis=-1)
        assert np.max(np.abs(theta_component)) < 1e-13

    def test_zero(self, grid8):
        v = velocity(SpectralField.zeros(8), grid8)
        assert np.all(v == 0.0)

    def test_tangency(self, grid8):
        v = velocity(rand_field(8, seed=21), grid8)
        assert tangency_residual(v, grid8) < 1e-12


class TestPerturbationOperator:
    def test_degree_two_kernel(self):
        for m in range(-2, 3):
            out = perturbation_operator(single(8, 2, m))
            assert np.max(np.abs(out.coeffs)) < 1e-15

    def test_degree_one_source(self):
        out = perturbation_operator(single(8, 1, 1))
        assert out[2, 1] == pytest.approx(-2j / math.sqrt(5.0), abs=1e-15)
        nonzero = np.abs(out.coeffs) > 1e-15
        assert nonzero.sum() == 1

    def test_degree_three_splits_up_and_down(self):
        out = perturbation_operator(single(8, 3, 1))
        assert out[2, 1] == pytest.approx(0.5j * math.sqrt(8.0 / 35.0), abs=1e-15)
        assert out[4, 1] == pytest.approx(0.5j * math.sqrt(15.0 / 63.0), abs=1e-15)

    def test_top_degree_spill_is_dropped(self):
        out = perturbation_operator(single(8, 8, 3))
        assert abs(out[7, 3]) > 0.0
        assert highpass_norm(out, 8) == 0.0

    def test_matches_grid_route(self, grid8):
        # dual route: apply cos(theta) d_phi (I + 6 Lap^{-1}) through grid
        # products instead of the tridiagonal coefficients
        u = rand_field(8, seed=55)
        n = np.arange(9, dtype=float)
        weight = np.zeros(9)
        weight[1:] = 1.0 - 6.0 / (n[1:] * (n[1:] + 1.0))
        m_factors = 1j * np.arange(-8, 9)
        inner = u.full_table() * weight[:, None] * m_factors[None, :]
        vals = synthesize_complex(inner, grid8) * np.cos(grid8.theta_nodes)[:, None]
        via_grid = analyze_complex(vals, grid8)
        via_spectral = perturbation_operator(u)
        assert np.max(np.abs(via_grid - via_spectral.full_table())) < 1e-13


class TestLinearPart:
    """linear_part against the closed forms of its diagonal terms, and its L^2 structure.

    The diagonal is the skew rate S that the stepper integrates with the diffusion; apply leaves it out.
    """

    def test_one_jet_diagonal_matches_closed_form(self):
        # The one-jet term is the rigid rotation at its rate, with no two-jet part.
        N, a = 12, 1.7
        part = linear_part(N, 0.0, one_jet_rate(a))
        per_degree = -(a / 4.0) * math.sqrt(3.0 / math.pi) * (1.0 - 2.0 * inv_lam(N))
        want = per_degree[:, None] * (1j * np.arange(N + 1))[None, :]
        assert np.max(np.abs(part.diagonal - want)) <= 1e-15 * np.max(np.abs(want))
        assert not np.any(part.down) and not np.any(part.up)

    def test_coriolis_diagonal_matches_closed_form(self):
        # In co-rotating coefficients the diagonal is the Coriolis term minus the frame rate i m Omega.
        N, Omega = 12, 2.3
        part = linear_part(N, 0.0, Omega)
        want = coriolis_rates(N, Omega) - 1j * Omega * np.arange(N + 1)
        assert np.max(np.abs(part.diagonal - want)) <= 1e-15 * np.max(np.abs(want))
        assert not np.any(part.diagonal[1])  # degree 1 is static in co-rotating coefficients
        # The two-jet tables do not depend on Omega.
        plain = linear_part(N, 0.9, 0.0)
        rotating = linear_part(N, 0.9, Omega)
        assert not np.any(plain.diagonal)
        assert np.array_equal(plain.down, rotating.down) and np.array_equal(plain.up, rotating.up)

    def test_tables_are_cached_and_read_only(self):
        part = linear_part(8, 1.0, 0.5)
        assert linear_part(8, 1.0, 0.5) is part
        with pytest.raises(ValueError):
            part.down[3, 1] = 0.0

    def test_a_sweep_keeps_a_bounded_cache(self):
        size = linear_part.cache_info().maxsize
        for amplitude in np.linspace(0.1, 2.0, 3 * size):
            linear_part(8, float(amplitude), 0.0)
        assert linear_part.cache_info().currsize == size

    def test_diagonal_terms_are_skew(self):
        u = rand_field(12, seed=31)
        for part in (linear_part(12, 0.0, one_jet_rate(1.3)), linear_part(12, 0.0, 1.1)):
            assert np.any(part.diagonal)
            pairing = np.real(np.vdot(SpectralField(part.diagonal * u.coeffs).full_table(), u.full_table()))
            assert abs(pairing) < 1e-14 * u.norm() ** 2

    def test_apply_leaves_the_diagonal_out(self):
        u = rand_field(12, seed=33)
        for part in (linear_part(12, 0.0, one_jet_rate(1.3)), linear_part(12, 0.0, 1.1)):
            assert not np.any(part.apply(u.coeffs))
        plain, rotating = linear_part(12, 0.9, 0.0), linear_part(12, 0.9, 1.1)
        assert np.array_equal(plain.apply(u.coeffs), rotating.apply(u.coeffs))

    def test_two_jet_term_is_skew_only_in_the_weighted_product(self):
        # <Lw, w> does not vanish, but <Lw, (I + 6 Lap^{-1}) w> does on degrees >= 3,
        # where the weight 1 - 6/(n(n+1)) is positive.
        N = 12
        u = rand_field(N, seed=32, decay=0.1, degrees=range(3, N + 1))
        part = linear_part(N, 1.0, 0.0)
        out = SpectralField(part.apply(u.coeffs))
        weighted = apply_degree_multiplier(u, 1.0 - 6.0 * inv_lam(N))
        plain = np.real(np.vdot(out.full_table(), u.full_table()))
        skew = np.real(np.vdot(out.full_table(), weighted.full_table()))
        assert abs(plain) > 1e-3 * u.norm() ** 2
        assert abs(skew) < 1e-14 * u.norm() ** 2


class TestConvection:
    def test_zonal_transport_vanishes(self, grid8):
        omega = single(8, 3, 0, 0.5)
        omega[6, 0] = 1.1
        out = convection(omega, grid8)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_pure_degree_two_vanishes(self, grid8):
        u = rand_field(8, seed=17, degrees=(2,))
        out = convection(u, grid8)
        assert np.max(np.abs(out.coeffs)) < 1e-13

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_degree_one_projections_vanish(self, grid8, seed):
        omega = rand_field(8, seed=seed)
        out = convection(omega, grid8)
        for m in (-1, 0, 1):
            assert abs(out[1, m]) < 1e-12

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_transport_conserves_energy(self, grid8, seed):
        omega = rand_field(8, seed=seed)
        out = convection(omega, grid8)
        pairing = np.real(np.vdot(out.full_table(), omega.full_table()))
        assert abs(pairing) < 1e-10

    @pytest.mark.parametrize("N", [8, 16, 32])
    @pytest.mark.parametrize("amplitude", [1.0, 1e4])
    def test_matches_the_cartesian_reference(self, N, amplitude):
        # u . grad w formed from the Cartesian velocity and gradient samples
        omega = rand_field(N, seed=N, amplitude=amplitude, decay=0.3)
        grid = build_grid(N)
        product = np.sum(velocity_values(omega, grid) * gradient_values(omega.full_table(), grid), axis=-1)
        want = analyze_complex(product, grid)
        got = convection(omega, grid).full_table()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [16, 32, 64])
    @pytest.mark.parametrize("amplitude", [1.0, 1e6])
    def test_matches_the_backward_normalized_reference(self, N, amplitude):
        # Forward-normalized FFTs, the cached 2 pi w_j and 1/sin(theta) columns
        # and the one-multiply inverse Laplacian change only the rounding.
        grid = build_grid(N)
        for seed in range(3):
            omega = rand_field(N, seed=seed, amplitude=amplitude, decay=0.3)
            want = reference_convection(omega, grid).coeffs
            got = convection(omega, grid).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("N,stacks", [(16, [None] * 4), (24, [2, 2])], ids=["16", "24"])
    def test_four_syntheses_and_one_analysis(self, N, stacks, monkeypatch):
        # n_phi = 64 (N = 16): four single syntheses.  n_phi = 128 (N = 24, the FFT
        # path): psi and w go through each latitude table as one stack of two.
        seen = {"real_synthesis": [], "real_analysis": []}
        for name in seen:
            def counted(*args, _name=name, _fn=getattr(operators, name)):
                seen[_name].append(len(args[0]) if args[0].ndim == 3 else None)
                return _fn(*args)

            monkeypatch.setattr(operators, name, counted)
        convection(rand_field(N, seed=5), build_grid(N))
        assert seen == {"real_synthesis": stacks, "real_analysis": [None]}

    @pytest.mark.parametrize("N", [16, 24])
    def test_result_survives_the_next_call(self, N, scratch_arrays):
        # The four sample sets live in one work array per grid shape; the result does not.
        grid = build_grid(N)
        first = convection(rand_field(N, seed=6), grid)
        kept = first.coeffs.copy()
        convection(rand_field(N, seed=7), grid)
        assert first.coeffs.tobytes() == kept.tobytes()
        assert ("samples", (4, grid.n_theta, grid.n_phi), float) in scratch_arrays
        assert not any(np.shares_memory(first.coeffs, array) for array in scratch_arrays.values())

    @pytest.mark.parametrize("N", [24, 48, 64])
    def test_fft_path_bitwise_equals_the_allocating_reference(self, N):
        # The smallest FFT-path grid, the digest script's and the benchmark's; the
        # reference makes four single allocating syntheses, convection two stacked ones.
        grid = build_grid(N)
        for seed in range(2):
            omega = rand_field(N, seed=seed, decay=0.1)
            assert convection(omega, grid).coeffs.tobytes() == allocating_convection(omega, grid).tobytes()

    def test_small_grid_runs_without_the_fft(self, grid16, monkeypatch):
        # n_phi = 64 <= MATMUL_MAX_NPHI: both longitude stages are matmuls by the grid's Fourier matrices.
        assert grid16.n_phi == 64
        omega = rand_field(16, seed=5)
        want = reference_convection(omega, grid16).coeffs

        def refuse(*args, **kwargs):
            raise AssertionError("FFT called on a matmul-stage grid")

        monkeypatch.setattr(np.fft, "irfft", refuse)
        monkeypatch.setattr(np.fft, "rfft", refuse)
        got = convection(omega, grid16).coeffs
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [16, 32])
    def test_mean_check_scales_with_the_product(self, N):
        # The round-off leak here is ~1e-8 on a product of size ~1.5e8, which an
        # absolute 1e-10 threshold reported as a mean mode.
        omega = rand_field(N, seed=3, amplitude=1e4, decay=0.4)
        out = convection(omega, build_grid(N))
        assert np.all(np.isfinite(out.coeffs))

    def test_mean_check_catches_an_underresolved_grid(self, grid8):
        # Six colatitude nodes cannot integrate the degree-8 product exactly,
        # so its mean projection leaks (~1e-4 on a product of size ~0.5).
        s, w = gauss_legendre(6)
        coarse = QuadratureGrid(
            N=8, theta_nodes=np.arccos(s[::-1]), theta_weights=w[::-1].copy(), phi_nodes=grid8.phi_nodes
        )
        with pytest.raises(MeanModeError, match="mean mode"):
            convection(rand_field(8, seed=4), coarse)


class TestKillingAdvect:
    def test_vertical_axis_on_sectoral(self, grid8):
        out = killing_advect([0.0, 0.0, 1.0], unit_table(8, 2, 2), grid8)
        assert out[2, 8 + 2] == pytest.approx(2j, abs=1e-13)

    def test_x_axis_on_zonal(self, grid8):
        out = killing_advect([1.0, 0.0, 0.0], unit_table(8, 2, 0), grid8)
        want = 0.5j * math.sqrt(6.0)
        assert out[2, 8 + 1] == pytest.approx(want, abs=1e-13)
        assert out[2, 8 - 1] == pytest.approx(want, abs=1e-13)

    def test_zero_axis(self, grid8):
        out = killing_advect([0.0, 0.0, 0.0], rand_field(8, seed=2).full_table(), grid8)
        assert np.max(np.abs(out)) == 0.0

    def test_degree_two_span_invariant(self, grid8):
        rng = np.random.default_rng(40)
        for _ in range(6):
            axis = rng.standard_normal(3)
            table = killing_degree2_matrix(axis)
            for col, m in enumerate((2, 1, 0, -1, -2)):
                out = killing_advect(axis, unit_table(8, 2, m), grid8)
                assert np.max(np.abs(table_mode2(out) - table[:, col])) < 1e-12
                leak = out.copy()
                leak[2] = 0.0
                assert np.max(np.abs(leak)) < 1e-12

    def test_accepts_params_object(self, grid8):
        params = KillingParams(alpha=0.5 - 0.25j, b=0.8)
        direct = killing_advect(params.axis, unit_table(8, 2, 1), grid8)
        via_params = killing_advect(params, unit_table(8, 2, 1), grid8)
        assert np.array_equal(direct, via_params)

    def test_every_degree_is_invariant_and_norm_neutral(self, grid8):
        # rotation generators never mix degrees and are skew within each one
        rng = np.random.default_rng(61)
        u = rand_field(8, seed=62)
        axis = rng.standard_normal(3)
        for n in (1, 3, 5, 8):
            adv = killing_advect(axis, select_degree(u, n).full_table(), grid8)
            off_degree = adv.copy()
            off_degree[n] = 0.0
            assert np.max(np.abs(off_degree)) < 1e-12
            pairing = np.real(np.vdot(adv[n], u.full_table()[n]))
            assert abs(pairing) < 1e-12


class TestKillingIdentities:
    def test_symmetric_pair(self, grid8):
        f = single(8, 2, 1)  # 2 Re Y_2^1
        r = killing_identity_residual(f, f, [0.0, 0.0, 1.0], grid8)
        assert abs(r) < 1e-11

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_fields_and_axes(self, grid8, seed):
        rng = np.random.default_rng(seed)
        f = rand_field(8, seed=seed + 1)
        g = rand_field(8, seed=seed + 2)
        axis = rng.standard_normal(3)
        assert abs(killing_identity_residual(f, g, axis, grid8)) < 1e-10

    def test_zero_axis_exact(self, grid8):
        f = rand_field(8, seed=5)
        assert killing_identity_residual(f, f, [0.0, 0.0, 0.0], grid8) == 0.0

    def test_pairings_on_mixed_field(self, grid8):
        omega = single(8, 2, 0)
        omega[3, 2] = 1.0
        r1, r2 = killing_pairing_residuals(omega, [1.0, 2.0, -1.0], grid8)
        assert abs(r1) < 1e-10 and abs(r2) < 1e-10

    def test_pairings_zonal(self, grid8):
        omega = single(8, 4, 0, 0.9)
        r1, r2 = killing_pairing_residuals(omega, [0.0, 0.0, 1.0], grid8)
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12

    def test_pairings_zero_field(self, grid8):
        r1, r2 = killing_pairing_residuals(SpectralField.zeros(8), [1.0, 0.0, 0.0], grid8)
        assert r1 == 0.0 and r2 == 0.0


class TestKillingParams:
    def test_roundtrip_through_axis(self):
        p = KillingParams(alpha=0.3 + 0.7j, b=-1.2)
        q = params_from_axis(p.axis)
        assert abs(q.alpha - p.alpha) < 1e-14
        assert abs(q.b - p.b) < 1e-14

    def test_degree1_coefficient_consistency(self):
        u = SpectralField.zeros(3)
        u[1, 0] = 0.9
        u[1, 1] = 0.2 - 0.4j
        u[1, -1] = -np.conj(u[1, 1])
        p = KillingParams.from_field(u)
        w10, w11 = degree1_coefficients(p)
        assert abs(w10 - 0.9) < 1e-14
        assert abs(w11 - (0.2 - 0.4j)) < 1e-14
        # axis route reproduces the same coefficients
        q = params_from_axis(p.axis)
        w10b, w11b = degree1_coefficients(q)
        assert abs(w10b - 0.9) < 1e-14
        assert abs(w11b - (0.2 - 0.4j)) < 1e-14
