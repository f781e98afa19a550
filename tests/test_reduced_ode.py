import math

import numpy as np
import pytest

from conftest import highpass, highpass_norm, rand_field
from refimpl import propagate_forced_reference
from sphkol import operators, sht
from sphkol.cli import equilibrium_report
from sphkol.harmonics import build_grid, recurrence_table
from sphkol.operators import KillingParams, convection, linear_part
from sphkol.oracles import (
    analyze_complex,
    apply_degree_multiplier,
    gradient_values,
    hermiticity_residual,
    integrate,
    killing_degree2_matrix,
    propagate_exact,
    tangent_frame,
    unit_table,
    velocity_values,
)
from sphkol.reduced_ode import (
    COUPLING_CHUNK_BYTES,
    MODE2_ORDER,
    _coupling_gather,
    adjacent_degree_table,
    build_system,
    equilibrium_closed_form,
    equilibrium_solve,
    extract_coupling,
    propagate_forced,
)
from sphkol.sht import SpectralField, synthesize

SWEEP = [
    (nu, a, alpha, b)
    for nu in (0.05, 0.2, 1.0, 5.0)
    for a in (-2.0, 0.0, 1.0)
    for alpha in (0.0, 1.0, 0.3 + 0.7j)
    for b in (-1.0, 0.0, 2.0)
]


def mode2_reality_residual(w):
    """Deviation of a 5-vector from the pattern of a real field's degree-2 row."""
    w = np.asarray(w, dtype=complex)
    return float(
        max(
            abs(w[3] + np.conj(w[1])),
            abs(w[4] - np.conj(w[0])),
            abs(w[2].imag),
        )
    )


def f_degree3_term(omega, amplitude):
    """The tridiagonal coupling of degree 3 into degree 2, -(a/8) sqrt(5/pi) i m a_3^m w_3^m, m = 2..-2."""
    return np.array(
        [-(amplitude / 8.0) * math.sqrt(5.0 / math.pi) * 1j * m * recurrence_table(3)[3, abs(m)] * omega[3, m]
         for m in MODE2_ORDER]
    )


def cartesian_degree2_tables(grid):
    """Cartesian node tables of grad conj(Y_2^{m_i}) and R_{k,i} = (n x grad Y_2^{m_k}) . grad conj(Y_2^{m_i})."""
    grads = []
    for m in MODE2_ORDER:
        grads.append(gradient_values(unit_table(grid.N, 2, m), grid))
    grad_conj = [np.conj(g) for g in grads]
    rotations = [np.cross(tangent_frame(grid)[0], g) for g in grads]
    jacobians = [[np.sum(rotations[k] * grad_conj[i], axis=-1) for i in range(5)] for k in range(5)]
    return grad_conj, jacobians


def cartesian_coupling(omega, amplitude, grid):
    """Reference (M, f): extract_coupling's integrals by quadrature of Cartesian node samples."""
    N = omega.N
    high = highpass(omega, 3)
    grad_conj, jacobians = cartesian_degree2_tables(grid)
    weights = np.array([0.0] + [1.0 - 6.0 / (n * (n + 1.0)) for n in range(1, N + 1)])
    g_vals = synthesize(apply_degree_multiplier(high, weights), grid).values
    M = np.array([[integrate(grid, g_vals * jacobians[k][i]) / 6.0 for k in range(5)] for i in range(5)])
    high_vals = synthesize(high, grid).values
    u_high = velocity_values(high, grid)
    transport = [integrate(grid, high_vals * np.sum(u_high * grad_conj[i], axis=-1)) for i in range(5)]
    return M, f_degree3_term(omega, amplitude) + np.array(transport)


class TestBuildSystem:
    def test_pure_zonal_coupling_is_diagonal(self):
        sys = build_system(KillingParams(alpha=0.0, b=1.0), 1.0, 1.0)
        assert np.allclose(sys.A, np.diag([2.0, 1.0, 0.0, -1.0, -2.0]))

    def test_pure_alpha_coupling(self):
        sys = build_system(KillingParams(alpha=1.0, b=0.0), 1.0, 1.0)
        assert np.allclose(np.diag(sys.A), 0.0)
        want = [-2.0, -math.sqrt(6.0), -math.sqrt(6.0), -2.0]
        assert np.allclose(np.diag(sys.A, 1), want)
        assert np.allclose(np.diag(sys.A, -1), np.conj(want))

    def test_source_structure(self):
        sys = build_system(KillingParams(alpha=0.5 - 0.2j, b=0.3), 2.0, 1.0)
        c = sys.c
        assert c[0] == 0.0 and c[2] == 0.0 and c[4] == 0.0
        assert c[1] == pytest.approx(math.sqrt(6.0) * 1j * 2.0 * (0.5 - 0.2j), abs=1e-15)
        # the source respects the degree-2 reality pattern
        assert mode2_reality_residual(c) < 1e-15

    def test_zero_amplitude_kills_source(self):
        sys = build_system(KillingParams(alpha=1.0, b=1.0), 0.0, 1.0)
        assert np.all(sys.c == 0.0)

    def test_hermiticity_exact(self):
        for nu, a, alpha, b in SWEEP:
            sys = build_system(KillingParams(alpha=alpha, b=b), a, nu)
            assert hermiticity_residual(sys) == 0.0

    def test_A_is_the_degree2_killing_rotation(self):
        # A = -(2i/3) K(a): the Killing-field matrix criterion 9 checks, at the degree-1 axis.
        for nu, a, alpha, b in SWEEP:
            params = KillingParams(alpha=alpha, b=b)
            A = build_system(params, a, nu).A
            rotation = (-2j / 3.0) * killing_degree2_matrix(params.axis)
            assert np.max(np.abs(A - rotation)) <= 1e-15 * max(1.0, float(np.max(np.abs(A))))


class TestEquilibrium:
    def test_fixed_point_values(self):
        p = KillingParams(alpha=1.0 + 0j, b=0.0)
        for w in (equilibrium_solve(build_system(p, 1.0, 1.0)), equilibrium_closed_form(p, 1.0, 1.0)):
            assert w[2] == pytest.approx(-0.375, abs=1e-13)
            assert w[1] == pytest.approx(0.125 * math.sqrt(6.0) * 1j, abs=1e-13)
            assert w[0] == pytest.approx(-0.125 * math.sqrt(6.0) * 0.5, abs=1e-7)
            assert w[0].real == pytest.approx(-0.1530931, abs=1e-7)

    def test_zero_source_cases(self):
        assert np.all(equilibrium_solve(build_system(KillingParams(alpha=0.0, b=1.0), 1.0, 1.0)) == 0.0)
        p = KillingParams(alpha=0.7 + 0.1j, b=0.5)
        assert np.max(np.abs(equilibrium_closed_form(p, 0.0, 2.0))) == 0.0

    def test_dual_oracle_over_sweep(self):
        worst = 0.0
        for nu, a, alpha, b in SWEEP:
            p = KillingParams(alpha=alpha, b=b)
            diff = np.linalg.norm(
                equilibrium_solve(build_system(p, a, nu)) - equilibrium_closed_form(p, a, nu)
            )
            worst = max(worst, float(diff))
        assert worst < 1e-12

    def test_reality_pattern(self):
        w = equilibrium_closed_form(KillingParams(alpha=0.3 + 0.7j, b=-1.0), 1.5, 0.2)
        assert mode2_reality_residual(w) < 1e-14

    def test_positive_viscosity_required(self):
        with pytest.raises(ValueError):
            equilibrium_closed_form(KillingParams(alpha=1.0, b=0.0), 1.0, 0.0)

    def test_denominator_identity(self):
        # 6|al|^2 z2 (4|al|^2 + conj(z1 z2)) + 4 nu |4|al|^2 + z1 z2|^2 + conj-mirror
        #   = 16 nu (4|al|^2 + 4 nu^2 + b^2)(4|al|^2 + 16 nu^2 + b^2)
        for nu, a, alpha, b in SWEEP:
            if nu <= 0:
                continue
            aa = abs(alpha) ** 2
            z1, z2 = 4 * nu + 1j * b, 4 * nu + 2j * b
            lhs = (
                6 * aa * z2 * (4 * aa + np.conj(z1 * z2))
                + 4 * nu * abs(4 * aa + z1 * z2) ** 2
                + 6 * aa * np.conj(z2) * (4 * aa + z1 * z2)
            )
            rhs = 16 * nu * (4 * aa + 4 * nu**2 + b**2) * (4 * aa + 16 * nu**2 + b**2)
            assert lhs.imag == pytest.approx(0.0, abs=1e-9 * abs(rhs))
            assert lhs.real == pytest.approx(rhs, rel=1e-9)

    def test_report_schema(self):
        params = KillingParams(alpha=1.0, b=0.0)
        sys = build_system(params, 1.0, 1.0)
        rep = equilibrium_report(sys, params, 1.0, "solve", equilibrium_solve(sys))
        assert set(rep) == {"nu", "a", "alpha", "b", "omega_inf", "method", "residual"}
        assert len(rep["omega_inf"]) == 5
        assert rep["residual"] < 1e-12


class TestPropagateExact:
    def setup_method(self):
        self.params = KillingParams(alpha=0.3 + 0.7j, b=-1.0)
        self.sys = build_system(self.params, 1.0, 0.5)
        rng = np.random.default_rng(7)
        self.w0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)

    def test_time_zero(self):
        assert np.allclose(propagate_exact(self.sys, self.w0, 0.0), self.w0, atol=1e-14)

    def test_equilibrium_is_fixed(self):
        w_inf = equilibrium_solve(self.sys)
        for t in (0.1, 1.0, 10.0):
            assert np.max(np.abs(propagate_exact(self.sys, w_inf, t) - w_inf)) < 1e-13

    def test_contraction_is_unitary_times_decay(self):
        w_inf = equilibrium_solve(self.sys)
        base = np.linalg.norm(self.w0 - w_inf)
        for t in (0.25, 1.0, 2.0):
            dist = np.linalg.norm(propagate_exact(self.sys, self.w0, t) - w_inf)
            assert dist * math.exp(4.0 * 0.5 * t) == pytest.approx(base, rel=1e-12)

    def test_reality_pattern_propagates(self):
        w0 = np.array([0.2 - 0.1j, 0.4 + 0.3j, 0.8, -np.conj(0.4 + 0.3j), np.conj(0.2 - 0.1j)])
        assert mode2_reality_residual(w0) < 1e-15
        for t in (0.3, 1.7):
            wt = propagate_exact(self.sys, w0, t)
            assert mode2_reality_residual(wt) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            propagate_exact(self.sys, self.w0, -1.0)


class TestPropagateForced:
    def test_unforced_reduction_matches_exact_at_fourth_order(self):
        sys = build_system(KillingParams(alpha=0.4 - 0.3j, b=0.7), 1.2, 0.8)
        rng = np.random.default_rng(11)
        w0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        t_end = 1.0
        want = propagate_exact(sys, w0, t_end)
        errs = []
        for dt in (0.02, 0.01):
            n_half = 2 * int(round(t_end / dt)) + 1
            M = np.zeros((n_half, 5, 5), dtype=complex)
            f = np.zeros((n_half, 5), dtype=complex)
            traj = propagate_forced(sys, w0, M, f, dt, t_end)
            errs.append(np.max(np.abs(traj[-1] - want)))
        assert errs[1] < 1e-7
        assert 10.0 < errs[0] / errs[1] < 22.0  # fourth-order step halving

    def test_everything_zero_stays_zero(self):
        sys = build_system(KillingParams(alpha=0.5, b=0.0), 0.0, 1.0)
        n_half = 2 * 10 + 1
        M = np.zeros((n_half, 5, 5), dtype=complex)
        f = np.zeros((n_half, 5), dtype=complex)
        traj = propagate_forced(sys, np.zeros(5, dtype=complex), M, f, 0.1, 1.0)
        assert np.all(traj == 0.0)

    def test_series_misalignment_rejected(self):
        sys = build_system(KillingParams(alpha=0.5, b=0.0), 1.0, 1.0)
        M = np.zeros((5, 5, 5), dtype=complex)
        f = np.zeros((5, 5), dtype=complex)
        with pytest.raises(ValueError, match="half-step samples"):
            propagate_forced(sys, np.zeros(5, dtype=complex), M, f, 0.1, 1.0)

    @pytest.mark.parametrize(
        "dt, t_end, message",
        [
            (0.0, 1.0, "dt must be positive and finite, got 0.0"),
            (-0.1, 1.0, "dt must be positive and finite, got -0.1"),
            (math.inf, 1.0, "dt must be positive and finite, got inf"),
            (math.nan, 1.0, "dt must be positive and finite, got nan"),
            (0.1, -1.0, "t_end must be non-negative and finite, got -1.0"),
            (0.1, math.inf, "t_end must be non-negative and finite, got inf"),
            (0.1, math.nan, "t_end must be non-negative and finite, got nan"),
        ],
    )
    def test_bad_step_or_end_rejected(self, dt, t_end, message):
        sys = build_system(KillingParams(alpha=0.5, b=0.0), 1.0, 1.0)
        M = np.zeros((21, 5, 5), dtype=complex)
        f = np.zeros((21, 5), dtype=complex)
        with pytest.raises(ValueError, match=f"^{message}$"):
            propagate_forced(sys, np.zeros(5, dtype=complex), M, f, dt, t_end)

    def test_zero_end_returns_the_start(self):
        sys = build_system(KillingParams(alpha=0.5, b=0.0), 1.0, 1.0)
        w0 = np.arange(5) + 1j
        traj = propagate_forced(sys, w0, np.zeros((1, 5, 5)), np.zeros((1, 5)), 0.1, 0.0)
        assert traj.shape == (1, 5) and np.array_equal(traj[0], w0)

    def test_bitwise_equal_to_the_per_stage_operator_form(self):
        # Each sample's rate -(operator + M) is formed once and shared by the
        # stages that read it; the reference forms it again at every stage.
        rng = np.random.default_rng(17)
        sys = build_system(KillingParams(alpha=0.4 - 0.3j, b=0.7), 1.2, 0.8)
        nsteps, dt = 40, 1.0 / 64
        M = rng.standard_normal((2 * nsteps + 1, 5, 5)) + 1j * rng.standard_normal((2 * nsteps + 1, 5, 5))
        f = rng.standard_normal((2 * nsteps + 1, 5)) + 1j * rng.standard_normal((2 * nsteps + 1, 5))
        w0 = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        M_before = M.copy()
        traj = propagate_forced(sys, w0, M, f, dt, nsteps * dt)
        want = propagate_forced_reference(sys, w0, M, f, dt, nsteps * dt)
        assert np.array_equal(traj.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(M, M_before)  # the caller's series is left as it was


def gathered(scratch_arrays):
    """The G work arrays extract_coupling asked sht._scratch for, one per chunk size."""
    return [array for (role, _, _), array in scratch_arrays.items() if role == "G"]


def operator_form_coupling(omega, amplitude):
    """(M, f) through np.pad and linear_part(...).apply on w_{>=3}, the form the degree-3 read must match bitwise."""
    N = omega.N
    w = omega.full_table()
    mu = np.array(MODE2_ORDER)
    partner = N + 2 + mu[:, None] - np.arange(-N, N + 1)[None, :]
    G = adjacent_degree_table(N) * np.pad(w, ((0, 0), (2, 2)))[3:, partner]
    transport = np.einsum("nim,nm->i", G[1:], w[3:N])
    f = SpectralField(linear_part(N, amplitude, 0.0).apply(highpass(omega, 3).coeffs)).mode2_vector() - transport
    return G[0][:, N + mu], f


class TestExtractCoupling:
    @pytest.mark.parametrize("N", [8, 16, 32])
    def test_bitwise_equal_to_the_operator_form(self, N):
        for seed, amplitude in [(0, 1.0), (1, 1e3), (2, -2.5)]:
            omega = rand_field(N, seed=60 + seed, amplitude=amplitude, decay=0.3)
            M, f = extract_coupling(omega.coeffs, amplitude)
            M_ref, f_ref = operator_form_coupling(omega, amplitude)
            assert np.array_equal(M, M_ref) and np.array_equal(f, f_ref)

    @pytest.mark.parametrize("N", [2, 8, 16, 64])
    def test_stack_equals_each_state(self, N, scratch_arrays):
        # At N = 16 and 64 a stack of 50 spans several chunks.
        for size in (1, 2, 7, 50):
            stack = np.array([rand_field(N, seed=500 + k, amplitude=(1.0, -2.5, 1e3)[k % 3]).coeffs
                              for k in range(size)])
            M, f = extract_coupling(stack, 1.3)
            assert M.shape == (size, 5, 5) and f.shape == (size, 5)
            for k in range(size):
                M_k, f_k = extract_coupling(stack[k], 1.3)
                assert np.array_equal(M[k].view(np.uint64), M_k.view(np.uint64))
                assert np.array_equal(f[k].view(np.uint64), f_k.view(np.uint64))
        assert [len(G) for G in gathered(scratch_arrays)] == {2: [], 8: [96], 16: [21], 64: [1]}[N]

    @pytest.mark.parametrize("N", [3, 16, 50, 51, 70, 71, 128])
    def test_a_chunk_gathers_at_most_its_budget(self, N, scratch_arrays):
        # G holds as many samples of the gather as fit the budget, or one
        # where a single one exceeds it (N >= 71).
        extract_coupling(np.zeros((N + 1, N + 1), dtype=complex), 1.0)
        (G,) = gathered(scratch_arrays)
        per_sample = _coupling_gather(N)[0].size * np.dtype(complex).itemsize
        assert G.shape[1:] == _coupling_gather(N)[0].shape
        assert G.nbytes == len(G) * per_sample <= max(COUPLING_CHUNK_BYTES, per_sample) < G.nbytes + per_sample
        assert (per_sample > COUPLING_CHUNK_BYTES) == (N >= 71)

    def test_vanishes_without_high_degrees(self):
        omega = rand_field(8, seed=3, degrees=(1, 2))
        M, f = extract_coupling(omega.coeffs, 1.0)
        assert np.max(np.abs(M)) < 1e-11
        assert np.max(np.abs(f)) < 1e-11

    def test_quadrature_matches_fine_grid(self):
        omega = rand_field(8, seed=9)
        upcast = SpectralField.zeros(16)
        upcast.coeffs[:9, :9] = omega.coeffs
        M1, f1 = extract_coupling(omega.coeffs, 1.3)
        M2, f2 = extract_coupling(upcast.coeffs, 1.3)
        assert np.max(np.abs(M1 - M2)) < 1e-12
        assert np.max(np.abs(f1 - f2)) < 1e-12

    def test_coupling_scales_with_high_degree_norm(self):
        rng = np.random.default_rng(23)
        ratios = []
        for seed in range(6):
            omega = rand_field(8, seed=seed + 100)
            high_norm = highpass_norm(omega, 3)
            M, _ = extract_coupling(omega.coeffs, 1.0)
            ratios.append(np.linalg.norm(M) / high_norm)
        # measured bound constant: finite and stable across draws
        assert max(ratios) < 10.0 * min(ratios) + 1e-12
        assert max(ratios) < 5.0

    @pytest.mark.parametrize("amplitude", [1.3, -2.0, 1e3])
    def test_degree3_term_matches_closed_form(self, amplitude):
        # The linear part's degree-2 row on w_{>=3} is the degree 3 -> 2 coupling alone.
        N = 12
        omega = rand_field(N, seed=71)
        want = f_degree3_term(omega, amplitude)
        got = SpectralField(linear_part(N, amplitude, 0.0).apply(highpass(omega, 3).coeffs)).mode2_vector()
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        _, f = extract_coupling(omega.coeffs, amplitude)
        transport = convection(highpass(omega, 3), build_grid(N)).mode2_vector()
        assert np.max(np.abs(f - (want - transport))) <= 1e-15 * np.max(np.abs(f))

    def test_zonal_degree3_entries(self):
        # m = 0 row of f gets no tridiagonal contribution (factor m); transport
        # integral vanishes for a single zonal harmonic.
        omega = SpectralField.zeros(8)
        omega[3, 0] = 0.25
        M, f = extract_coupling(omega.coeffs, 2.0)
        assert abs(f[2]) < 1e-13
        assert np.max(np.abs(f)) < 1e-13

    @pytest.mark.parametrize("N", [8, 16, 32])
    @pytest.mark.parametrize("amplitude", [1.0, 1e3])
    def test_matches_cartesian_reference(self, N, amplitude):
        grid = build_grid(N)
        for seed in range(3):
            omega = rand_field(N, seed=40 + seed, amplitude=amplitude)
            M, f = extract_coupling(omega.coeffs, 1.3)
            M_ref, f_ref = cartesian_coupling(omega, 1.3, grid)
            assert np.linalg.norm(M - M_ref) <= 1e-13 * np.linalg.norm(M_ref)
            assert np.linalg.norm(f - f_ref) <= 1e-13 * np.linalg.norm(f_ref)

    def test_table_is_cached_and_read_only(self):
        table = adjacent_degree_table(8)
        assert table is adjacent_degree_table(8)
        assert table.shape == (6, 5, 17)
        assert not table.flags.writeable
        gather = _coupling_gather(16)
        assert gather is _coupling_gather(16)
        assert not any(array.flags.writeable for array in gather)

    def test_runs_no_transform(self, monkeypatch):
        # Table build included (N = 11 is built nowhere else in this suite).
        def transform(*args, **kwargs):
            raise AssertionError("transform on the coupling-extraction path")

        for module, name in [(sht, "real_synthesis"), (sht, "real_analysis"), (operators, "real_synthesis"),
                             (operators, "real_analysis"), (operators, "convection")]:
            monkeypatch.setattr(module, name, transform)
        M, f = extract_coupling(rand_field(11, seed=8).coeffs, 1.3)
        assert np.all(np.isfinite(M)) and np.max(np.abs(M)) > 0.0
        assert np.all(np.isfinite(f)) and np.max(np.abs(f)) > 0.0

    @pytest.mark.parametrize("degrees", [(3, 5, 7), (4, 6, 8), (3, 4)])
    def test_degree2_transport_needs_adjacent_degrees(self, grid16, degrees):
        # The selection rule behind the adjacent-degree table, read off the grid
        # convection: J(Y_a, Y_b) has a degree-2 part only when |a - b| = 1.
        for seed in range(3):
            h = rand_field(16, seed=13 + seed, degrees=degrees)
            row = np.linalg.norm(convection(h, grid16).mode2_vector()) / h.norm() ** 2
            if degrees == (3, 4):
                assert row > 1e-3
            else:
                assert row <= 1e-14

    def test_M_reads_degree3_only(self):
        # R_{k,i} is a cubic polynomial, so the degrees >= 4 of w are orthogonal to it.
        grid = build_grid(16)
        omega = rand_field(16, seed=5)
        above = SpectralField(omega.coeffs + rand_field(16, seed=6, degrees=range(4, 17)).coeffs)
        M, _ = extract_coupling(omega.coeffs, 1.0)
        M_above, _ = extract_coupling(above.coeffs, 1.0)
        assert np.max(np.abs(M_above - M)) <= 1e-15
        M_ref, _ = cartesian_coupling(omega, 1.0, grid)
        M_ref_above, _ = cartesian_coupling(above, 1.0, grid)
        assert np.max(np.abs(M_ref_above - M_ref)) < 1e-13

    def test_cartesian_jacobians_hold_degrees_one_and_three_only(self, grid16):
        _, jacobians = cartesian_degree2_tables(grid16)
        degree3 = 0.0
        for row in jacobians:
            for jac in row:
                proj = analyze_complex(jac, grid16)
                assert np.max(np.abs(np.delete(proj, [1, 3], axis=0))) < 1e-13
                degree3 = max(degree3, float(np.max(np.abs(proj[3]))))
        assert degree3 > 0.1
