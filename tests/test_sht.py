import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_real_field_layout, degree_norm, highpass_norm, mode1_vector, rand_field, select_degree
from refimpl import ynm_reference
from sphkol.harmonics import build_grid
from sphkol.operators import angular_derivatives
from sphkol.oracles import synthesize_complex, unit_table
from sphkol.sht import (
    GridField,
    MeanModeError,
    SpectralField,
    analyze,
    random_real_field,
    real_analysis,
    real_synthesis,
    synthesize,
)


def harmonic_samples(n, m, grid):
    return ynm_reference(n, m, grid.theta_nodes[:, None], grid.phi_nodes[None, :])


class TestSpectralField:
    def test_index_checks(self):
        u = SpectralField.zeros(4)
        with pytest.raises(IndexError):
            u[0, 0]
        with pytest.raises(IndexError):
            u[3, 4] = 1.0
        with pytest.raises(IndexError):
            u[5, 1]

    @pytest.mark.parametrize("shape", [(9, 1), (9, 17), (8, 9), (9,), (9, 9, 1)])
    def test_malformed_coefficient_array_rejected(self, shape):
        # A (9, 1) array at N = 8 used to broadcast over every order in synthesis.
        with pytest.raises(ValueError, match="do not fit N = 8"):
            SpectralField(8, np.zeros(shape, dtype=complex))

    def test_projection_partition_is_exact(self):
        u = rand_field(6, seed=5)
        resum = select_degree(u, 1) + select_degree(u, 2) + u.highpass(3)
        assert np.array_equal(resum.coeffs, u.coeffs)

    def test_negative_order_reads_and_writes_the_mirror(self):
        u = rand_field(5, seed=9)
        for n in range(1, 6):
            for m in range(1, n + 1):
                assert u[n, -m] == (-1.0) ** m * np.conj(u[n, m])
        before = u.coeffs.copy()
        u[3, -2] = u[3, -2]  # a consistent mirror write changes nothing
        assert np.array_equal(u.coeffs, before)
        u[3, -1] = 0.5 - 0.25j
        assert u[3, 1] == -0.5 - 0.25j
        assert u[3, -1] == 0.5 - 0.25j
        assert u.coeffs.shape == (6, 6)

    def test_non_real_m0_write_rejected(self):
        u = SpectralField.zeros(4)
        with pytest.raises(ValueError, match="must be real"):
            u[2, 0] = 0.5 + 0.5j
        u[2, 0] = complex(0.5, -0.0)  # a real value, even with a signed zero imaginary part
        assert u[2, 0] == 0.5

    def test_full_table_matches_per_degree_loop(self):
        u = rand_field(6, seed=13)
        full = u.full_table()
        assert full.shape == (7, 13)
        want = np.zeros((7, 13), dtype=complex)
        for n in range(1, 7):
            for m in range(0, n + 1):
                want[n, 6 + m] = u.coeffs[n, m]
                want[n, 6 - m] = (-1.0) ** m * np.conj(u.coeffs[n, m])
        assert np.array_equal(full, want)
        assert u.norm() == pytest.approx(float(np.sqrt(np.sum(np.abs(want) ** 2))), rel=1e-14)

    def test_mode_vectors(self):
        u = SpectralField.zeros(4)
        u[2, 2] = 1 + 2j
        u[2, -1] = 3.0
        assert np.allclose(u.mode2_vector(), [1 + 2j, -3.0, 0, 3.0, 1 - 2j])
        u[1, 0] = 0.5
        assert np.allclose(mode1_vector(u), [0, 0.5, 0])


class TestAnalyze:
    def test_single_harmonic_projects_to_delta(self, grid8):
        f = GridField(grid8, harmonic_samples(2, 0, grid8).real.copy())
        u = analyze(f)
        want = SpectralField.zeros(8)
        want[2, 0] = 1.0
        assert np.max(np.abs(u.coeffs - want.coeffs)) < 1e-12

    def test_real_combination(self, grid8):
        samples = (harmonic_samples(3, 2, grid8) + harmonic_samples(3, -2, grid8)).real.copy()
        u = analyze(GridField(grid8, samples))
        assert u[3, 2] == pytest.approx(1.0, abs=1e-12)
        assert u[3, -2] == pytest.approx(1.0, abs=1e-12)
        mask = np.abs(u.full_table()) > 1e-12
        assert mask.sum() == 2

    def test_zero_field(self, grid8):
        u = analyze(GridField(grid8, np.zeros((grid8.n_theta, grid8.n_phi))))
        assert np.all(u.coeffs == 0.0)

    def test_mean_mode_rejected(self, grid8):
        values = np.ones((grid8.n_theta, grid8.n_phi)) * 0.01
        with pytest.raises(MeanModeError, match="not mean-zero"):
            analyze(GridField(grid8, values))

    @pytest.mark.parametrize("N", [16, 32, 64])
    def test_mean_check_scales_with_the_samples(self, N):
        # Round-off alone leaves a mean projection of ~1e-9 on samples of size
        # ~1e6, which an absolute 1e-10 threshold reported as a mean mode.
        u = random_real_field(N, np.random.default_rng(1), 1e6, 0.1)
        back = analyze(synthesize(u, build_grid(N)))
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12 * np.max(np.abs(u.coeffs))

    def test_output_reality_by_construction(self, grid8):
        rng = np.random.default_rng(2)
        values = rng.standard_normal((grid8.n_theta, grid8.n_phi))
        values -= grid8.integrate(values) / (4.0 * math.pi)
        u = analyze(GridField(grid8, values))
        assert_real_field_layout(u)


class TestSynthesize:
    def test_zonal_closed_form(self, grid8):
        u = SpectralField.zeros(8)
        u[1, 0] = 1.0
        f = synthesize(u, grid8)
        want = 0.5 * math.sqrt(3.0 / math.pi) * np.cos(grid8.theta_nodes)[:, None]
        assert np.max(np.abs(f.values - want)) < 1e-14

    def test_conjugate_pair_gives_real_combination(self, grid8):
        # i Y_2^1 + i Y_2^{-1} is a real field: 2 C_1 sin(theta) cos(theta) sin(phi)
        u = SpectralField.zeros(8)
        u[2, 1] = 1j
        u[2, -1] = 1j
        assert u[2, 1] == 1j
        f = synthesize(u, grid8)
        c1 = 0.5 * math.sqrt(15.0 / (2.0 * math.pi))
        theta = grid8.theta_nodes[:, None]
        phi = grid8.phi_nodes[None, :]
        want = 2.0 * c1 * np.sin(theta) * np.cos(theta) * np.sin(phi)
        oracle = (1j * harmonic_samples(2, 1, grid8) + 1j * harmonic_samples(2, -1, grid8)).real
        assert np.max(np.abs(want - oracle)) < 1e-14
        assert np.max(np.abs(f.values - want)) < 1e-13

    def test_degree_capacity(self, grid8):
        with pytest.raises(ValueError, match="exceeds grid degree"):
            synthesize(SpectralField.zeros(9), grid8)


class TestRoundtripProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_analyze_synthesize_roundtrip(self, grid8, seed):
        u = rand_field(8, seed=seed)
        back = analyze(synthesize(u, grid8))
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_parseval(self, grid8, seed):
        u = rand_field(8, seed=seed, amplitude=2.0)
        f = synthesize(u, grid8)
        quad = grid8.integrate(f.values**2)
        assert quad == pytest.approx(u.norm() ** 2, rel=1e-11)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_linearity(self, grid8, seed):
        u = rand_field(8, seed=seed)
        v = rand_field(8, seed=seed + 77)
        a, b = 1.7, -0.4
        lhs = analyze(
            GridField(grid8, a * synthesize(u, grid8).values + b * synthesize(v, grid8).values)
        )
        rhs = a * u + b * v
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-12

    def test_complex_synthesis_matches_reference(self, grid8):
        got = synthesize_complex((0.3 - 1.1j) * unit_table(8, 4, -3), grid8)
        want = (0.3 - 1.1j) * harmonic_samples(4, -3, grid8)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_roundtrip_of_lower_degree_field(self, grid8):
        # a field truncated below the grid degree comes back zero-padded
        u = rand_field(5, seed=88)
        back = analyze(synthesize(u, grid8))
        assert back.N == 8
        assert np.max(np.abs(back.coeffs[:6, :6] - u.coeffs)) < 1e-12
        assert highpass_norm(back, 6) < 1e-12


def einsum_synthesis(half, grid, table):
    """Dense einsum Legendre sum of real_synthesis before it became a batched matmul."""
    N = half.shape[0] - 1
    K = grid.n_phi
    spec = np.zeros((grid.n_theta, K // 2 + 1), dtype=complex)
    spec[:, : N + 1] = np.einsum("nm,mnj->jm", half, table[: N + 1, : N + 1, :])
    return np.fft.irfft(spec, n=K, axis=1) * K


def einsum_projection(values, grid):
    """Dense einsum m >= 0 projections of real_analysis before it became a batched matmul."""
    N, K = grid.N, grid.n_phi
    fhat = np.fft.rfft(values, axis=1)[:, : N + 1] * (2.0 * math.pi / K)
    return np.einsum("mnj,jm->nm", grid.plm[: N + 1, : N + 1, :], grid.theta_weights[:, None] * fhat)


class TestKernelsAtBenchmarkSizes:
    """The batched real kernels against the dense einsum contraction, at the benchmark's N."""

    @pytest.fixture(scope="class", params=[16, 32, 64])
    def grid(self, request):
        return build_grid(request.param)

    @pytest.mark.parametrize("table_name", ["plm", "dplm_dtheta"])
    @pytest.mark.parametrize("amplitude", [1.0, 1e6])
    def test_synthesis_matches_einsum(self, grid, table_name, amplitude):
        u = random_real_field(grid.N, np.random.default_rng(grid.N), amplitude, 0.1)
        half = u.coeffs
        table = getattr(grid, table_name)
        want = einsum_synthesis(half, grid, table)
        got = real_synthesis(half, grid, table)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("amplitude", [1.0, 1e6])
    def test_analysis_matches_einsum(self, grid, amplitude):
        # A synthesized field, and the convection Jacobian of two fields, whose
        # four factors come from both latitude tables.
        N = grid.N
        u = random_real_field(N, np.random.default_rng(N + 1), amplitude, 0.1)
        v = random_real_field(N, np.random.default_rng(N + 2), amplitude, 0.1)
        u_theta, u_phi = angular_derivatives(u.coeffs, grid)
        v_theta, v_phi = angular_derivatives(v.coeffs, grid)
        jacobian = (u_theta * v_phi - u_phi * v_theta) / grid.sin_theta[:, None]
        for values in (synthesize(u, grid).values, jacobian):
            want = einsum_projection(values, grid)
            got = real_analysis(values, grid).coeffs
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_synthesis_matches_reference_harmonics(self):
        grid = build_grid(16)
        rows = [0, 5, 12, grid.n_theta - 1]
        cols = [0, 7, 30]
        theta = grid.theta_nodes[rows][:, None]
        phi = grid.phi_nodes[cols][None, :]
        for n, m in [(1, 1), (7, 0), (11, 6), (16, 3), (16, 16)]:
            u = SpectralField.zeros(16)
            u[n, m] = 0.6 - 0.8j if m else 1.0
            got = synthesize(u, grid).values[np.ix_(rows, cols)]
            ref = u[n, m] * ynm_reference(n, m, theta, phi)
            want = ref.real if m == 0 else 2.0 * ref.real
            # ynm_reference sums a monomial expansion; at n = 16 it is itself off by ~6e-14.
            assert np.max(np.abs(got - want)) < 1e-12


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        u = rand_field(6, seed=31)
        path = tmp_path / "field.json"
        u.save(path)
        v = SpectralField.load(path)
        assert v.N == u.N
        assert np.max(np.abs(v.coeffs - u.coeffs)) == 0.0

    def test_schema_and_digits(self, tmp_path):
        u = SpectralField.zeros(3)
        u[2, 1] = 1.0 / 3.0 + (1.0 / 7.0) * 1j
        u[2, -1] = -np.conj(u[2, 1])
        path = tmp_path / "field.json"
        u.save(path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"N", "coeffs"}
        assert all(item["m"] >= 0 for item in doc["coeffs"])
        text = path.read_text()
        assert "0.33333333333333331" in text  # 17 significant digits
        loaded = SpectralField.load(path)
        assert loaded[2, -1] == -np.conj(loaded[2, 1])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            SpectralField.from_json_dict({"N": 3, "coeffs": [{"n": 2, "m": -1, "re": 1.0, "im": 0.0}]})

    def test_non_real_m0_rejected(self):
        with pytest.raises(ValueError, match="must be real"):
            SpectralField.from_json_dict({"N": 3, "coeffs": [{"n": 2, "m": 0, "re": 1.0, "im": 0.5}]})


class TestGridField:
    def test_shape_validation(self, grid8):
        with pytest.raises(ValueError):
            GridField(grid8, np.zeros((3, 3)))

    def test_random_field_reality(self):
        u = random_real_field(7, np.random.default_rng(4), degrees=(2, 5))
        assert_real_field_layout(u)
        assert degree_norm(u, 3) == 0.0
        assert degree_norm(u, 5) > 0.0
