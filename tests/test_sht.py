import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_real_field_layout,
    degree_norm,
    highpass,
    highpass_norm,
    mode1_vector,
    rand_field,
    select_degree,
)
from refimpl import allocating_analysis, allocating_synthesis, ynm_reference
from sphkol.cli import field_from_entries, load_field, save_field
from sphkol.harmonics import build_grid
from sphkol.operators import angular_derivatives
from sphkol.oracles import integrate, synthesize_complex, unit_table
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
        with pytest.raises(ValueError, match="are not square"):
            SpectralField(np.zeros(shape, dtype=complex))

    def test_projection_partition_is_exact(self):
        u = rand_field(6, seed=5)
        resum = select_degree(u, 1).coeffs + select_degree(u, 2).coeffs + highpass(u, 3).coeffs
        assert np.array_equal(resum, u.coeffs)

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

    @pytest.mark.parametrize("N", range(1, 17))
    def test_full_table_bitwise_equals_the_sign_formula(self, N):
        u = rand_field(N, seed=N)
        u.coeffs[1, 1] = complex(-0.0, 0.25)  # the sign bits of zeros must match too
        want = np.zeros((N + 1, 2 * N + 1), dtype=complex)
        want[:, N:] = u.coeffs
        want[:, :N] = (np.conj(u.coeffs[:, 1:]) * ((-1.0) ** np.arange(1, N + 1))[None, :])[:, ::-1]
        assert np.array_equal(u.full_table().view(np.uint64), want.view(np.uint64))

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
        values -= integrate(grid8, values) / (4.0 * math.pi)
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
        # Every transform works at its grid's degree: a half of degree 7 or 9, or its samples on its own grid, is refused.
        for N in (7, 9):
            u = rand_field(N, seed=N)
            with pytest.raises(ValueError, match=f"field degree {N} != grid degree 8"):
                synthesize(u, grid8)
            for table in (grid8.plm, grid8.dplm_dtheta):
                with pytest.raises(ValueError, match=f"field degree {N} != grid degree 8"):
                    real_synthesis(u.coeffs, grid8, table)
            values = synthesize(u, build_grid(N)).values
            with pytest.raises(ValueError, match=re.escape(f"samples of shape {values.shape} are not on the degree-8")):
                real_analysis(values, grid8)


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
        quad = integrate(grid8, f.values**2)
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
        rhs = a * u.coeffs + b * v.coeffs
        assert np.max(np.abs(lhs.coeffs - rhs)) < 1e-12

    def test_complex_synthesis_matches_reference(self, grid8):
        got = synthesize_complex((0.3 - 1.1j) * unit_table(8, 4, -3), grid8)
        want = (0.3 - 1.1j) * harmonic_samples(4, -3, grid8)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_roundtrip_of_lower_degree_field(self, grid8):
        # a degree-5 field is a grid-degree half whose rows past 5 are zero, and comes back so
        u = rand_field(8, seed=88, degrees=range(1, 6))
        back = analyze(synthesize(u, grid8))
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12
        assert highpass_norm(back, 6) < 1e-12


def einsum_synthesis(half, grid, table):
    """Dense einsum Legendre sum of real_synthesis before it became a batched matmul."""
    N = half.shape[0] - 1
    K = grid.n_phi
    spec = np.zeros((grid.n_theta, K // 2 + 1), dtype=complex)
    spec[:, : N + 1] = np.einsum("nm,mnj->jm", half, table[: N + 1, : N + 1, :])
    return np.fft.irfft(spec, n=K, axis=1) * K


def einsum_projection(values, grid, N=None):
    """Dense einsum m >= 0 projections of real_analysis before it became a batched matmul, up to degree N."""
    N, K = grid.N if N is None else N, grid.n_phi
    fhat = np.fft.rfft(values, axis=1)[:, : N + 1] * (2.0 * math.pi / K)
    return np.einsum("mnj,jm->nm", grid.plm[: N + 1, : N + 1, :], grid.theta_weights[:, None] * fhat)


class TestKernelsAtBenchmarkSizes:
    """The batched real kernels against the dense einsum contraction, at the benchmark's N.

    N = 21 is the largest degree whose grid (n_phi = 64) takes the matmul
    longitude stage, N = 22 the smallest that takes the FFT (n_phi = 128).
    """

    @pytest.fixture(scope="class", params=[16, 21, 22, 32, 64])
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

    @pytest.mark.parametrize("table_name", ["plm", "dplm_dtheta"])
    def test_synthesis_of_a_lower_degree_half(self, grid, table_name):
        # A degree N - 5 field, zero-padded to the grid degree, against the dense sum over its own rows.
        N = grid.N
        half = random_real_field(N, np.random.default_rng(N + 3), 1.0, 0.1, degrees=range(1, N - 4)).coeffs
        table = getattr(grid, table_name)
        want = einsum_synthesis(half[: N - 4, : N - 4], grid, table)
        got = real_synthesis(half, grid, table)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_analysis_to_a_lower_degree(self, grid):
        # The projections up to degree N - 5 are the leading block of the grid-degree analysis.
        values = synthesize(random_real_field(grid.N, np.random.default_rng(grid.N + 4), 1.0, 0.1), grid).values
        want = einsum_projection(values, grid, grid.N - 5)
        got = real_analysis(values, grid).coeffs[: grid.N - 4, : grid.N - 4]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_synthesis_ignores_an_imaginary_m0_part(self, grid):
        # The m = 0 column's imaginary part is dropped, as irfft drops it.
        half = random_real_field(grid.N, np.random.default_rng(grid.N + 5), 1.0, 0.1).coeffs.copy()
        half[1:, 0] += 1j * np.linspace(0.5, 2.0, grid.N)
        want = einsum_synthesis(half, grid, grid.plm)
        got = real_synthesis(half, grid, grid.plm)
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


class TestSharedWorkArrays:
    """On FFT-path grids the transforms reuse work arrays cached per grid shape; no result reads or aliases them."""

    def test_lower_degree_synthesis_after_a_full_one(self):
        # A zero-padded degree-10 half reads nothing the full-degree call left in the spectrum.
        grid = build_grid(24)
        full = random_real_field(24, np.random.default_rng(1), 1.0, 0.1).coeffs
        low = random_real_field(24, np.random.default_rng(2), 1.0, 0.1, degrees=range(1, 11)).coeffs
        for table in (grid.plm, grid.dplm_dtheta):
            real_synthesis(full, grid, table)
            assert real_synthesis(low, grid, table).tobytes() == allocating_synthesis(low, grid, table).tobytes()

    @pytest.mark.parametrize("N", [16, 24])
    def test_synthesis_returns_a_new_array_or_out(self, N):
        grid = build_grid(N)
        a, b = (random_real_field(N, np.random.default_rng(seed)).coeffs for seed in (3, 4))
        first = real_synthesis(a, grid, grid.plm)
        kept = first.copy()
        second = real_synthesis(b, grid, grid.plm)
        assert not np.shares_memory(first, second) and first.tobytes() == kept.tobytes()
        out = np.empty((grid.n_theta, grid.n_phi))
        assert real_synthesis(a, grid, grid.plm, out) is out and out.tobytes() == kept.tobytes()

    def test_analysis_result_survives_the_next_call(self):
        grid = build_grid(24)
        first_values, second_values = (
            synthesize(random_real_field(24, np.random.default_rng(seed)), grid).values for seed in (5, 6)
        )
        first = real_analysis(first_values, grid)
        kept = first.coeffs.copy()
        real_analysis(second_values, grid)
        assert first.coeffs.tobytes() == kept.tobytes()
        assert kept.tobytes() == allocating_analysis(first_values, grid, 24).tobytes()


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        u = rand_field(6, seed=31)
        path = tmp_path / "field.json"
        save_field(u, path)
        v = load_field(path)
        assert v.N == u.N
        assert np.max(np.abs(v.coeffs - u.coeffs)) == 0.0

    def test_schema_and_digits(self, tmp_path):
        u = SpectralField.zeros(3)
        u[2, 1] = 1.0 / 3.0 + (1.0 / 7.0) * 1j
        u[2, -1] = -np.conj(u[2, 1])
        path = tmp_path / "field.json"
        save_field(u, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"N", "coeffs"}
        assert all(item["m"] >= 0 for item in doc["coeffs"])
        text = path.read_text()
        assert "0.33333333333333331" in text  # 17 significant digits
        loaded = load_field(path)
        assert loaded[2, -1] == -np.conj(loaded[2, 1])

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            field_from_entries(3, [{"n": 2, "m": -1, "re": 1.0, "im": 0.0}])

    def test_non_real_m0_rejected(self):
        with pytest.raises(ValueError, match="must be real"):
            field_from_entries(3, [{"n": 2, "m": 0, "re": 1.0, "im": 0.5}])

    def test_inline_entries_stored_as_the_loop_stores_them(self):
        # Strings and floats parse as int()/float() do, "im" defaults to 0, and
        # signed zeros land as the one-entry-at-a-time loop puts them.
        def loop(doc):
            out = SpectralField.zeros(int(doc["N"]))
            for item in doc["coeffs"]:
                out[int(item["n"]), int(item["m"])] = complex(float(item["re"]), float(item.get("im", 0.0)))
            return out

        u = rand_field(8, seed=9)
        odd = {
            (2, 1): {"n": "2", "m": 1.0, "re": "0.25", "im": -0.5},
            (3, 0): {"n": 3, "m": 0, "re": -0.0, "im": -0.0},
            (4, 2): {"n": 4, "m": 2, "re": 1.5},
            (5, 3): {"n": 5, "m": 3, "re": 0.0, "im": -0.0},
        }
        entries = [odd.get((n, m), {"n": n, "m": m, "re": u.coeffs[n, m].real, "im": u.coeffs[n, m].imag})
                   for n in range(1, 9) for m in range(n + 1)]
        for doc in ({"N": 8, "coeffs": entries}, {"N": 8, "coeffs": entries[::-1]}, {"N": 2, "coeffs": []}):
            got, want = field_from_entries(doc["N"], doc["coeffs"]).coeffs, loop(doc).coeffs
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize(
        "entry,error,message",
        [
            ({"n": 4, "m": 0, "re": 1.0}, IndexError, "degree n=4 outside 1..3"),
            ({"n": 0, "m": 0, "re": 1.0}, IndexError, "degree n=0 outside 1..3"),
            ({"n": 10**30, "m": 0, "re": 1.0}, IndexError, "degree n=1000000000000000000000000000000 outside"),
            ({"n": 2, "m": 3, "re": 1.0}, IndexError, "order |m|=3 exceeds degree n=2"),
            ({"n": 3, "m": 0, "re": 1.0, "im": 2.0}, ValueError, "(3, 0) of a real field must be real"),
            ({"n": 2, "m": 1, "re": math.inf}, ValueError, "(2, 1) is not finite"),
            ({"n": 2, "m": -1, "re": 1.0}, ValueError, "m >= 0"),
            ({"n": 2, "m": 1.5, "re": 1.0}, ValueError, "m of entry 1 must be an integer, got 1.5"),
            ({"n": True, "m": 0, "re": 1.0}, ValueError, "n of entry 1 must be an integer, got True"),
            ({"n": 2, "m": 1, "re": 10**400}, ValueError, "re of entry 1 must be a number: int too large"),
        ],
    )
    def test_first_bad_entry_is_named(self, entry, error, message):
        good = {"n": 1, "m": 1, "re": 0.5}
        later = {"n": 2, "m": 0, "re": 1.0, "im": 9.0}  # bad too, but not the first
        with pytest.raises(error, match=re.escape(message)):
            field_from_entries(3, [good, entry, later])

    @pytest.mark.parametrize("doc_n", [2, "2", 2.0])
    def test_duplicate_entry_is_named(self, doc_n):
        entries = [{"n": 2, "m": 1, "re": 5.0}, {"n": 1, "m": 0, "re": 1.0}, {"n": doc_n, "m": 1, "im": 2.0, "re": 0}]
        with pytest.raises(ValueError, match=re.escape("coefficient (2, 1) is listed more than once")):
            field_from_entries(3, entries)


class TestGridField:
    def test_shape_validation(self, grid8):
        with pytest.raises(ValueError):
            GridField(grid8, np.zeros((3, 3)))

    def test_random_field_reality(self):
        u = random_real_field(7, np.random.default_rng(4), degrees=(2, 5))
        assert_real_field_layout(u)
        assert degree_norm(u, 3) == 0.0
        assert degree_norm(u, 5) > 0.0
