import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_real_field_layout, degree_norm, highpass_norm, mode1_vector, rand_field, snapshot_states
from sphkol import pde_solver, reduced_ode
from sphkol.harmonics import build_grid
from sphkol.operators import KillingParams, convection
from sphkol.oracles import apply_degree_multiplier, velocity_values
from sphkol.pde_solver import (
    IntegrationError,
    SolverConfig,
    Stepper,
    TRAJECTORY_HEADER,
    default_dt,
    linear_diffusion_factors,
    run,
    run_with_coupling,
    trajectory_csv,
)
from sphkol.reduced_ode import build_system, propagate_exact, propagate_forced
from sphkol.sht import SpectralField


def single(N, n, m, value=1.0):
    """The real field with coefficient value at (n, m) and its mirror at (n, -m)."""
    u = SpectralField.zeros(N)
    u[n, m] = value
    return u


def two_jet_cfg(**kw):
    base = dict(nu=0.5, amplitude=1.0, N=8, t_end=1.0)
    base.update(kw)
    return SolverConfig(**base)


def rhs(omega, cfg, grid):
    """Full right-hand side: the diffusion the stepper integrates exactly plus its explicit part."""
    diffusion = apply_degree_multiplier(omega, linear_diffusion_factors(omega.N, cfg.nu))
    return diffusion + Stepper(cfg, grid, cfg.t_end).nonlinear(omega)


def one_step(omega, cfg, grid, dt):
    return Stepper(cfg, grid, dt).step(omega)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(nu=0.0, amplitude=1.0, N=8, t_end=1.0)
        with pytest.raises(ValueError):
            SolverConfig(nu=1.0, amplitude=1.0, N=8, t_end=0.0)
        with pytest.raises(ValueError):
            SolverConfig(nu=1.0, amplitude=1.0, N=8, t_end=1.0, dt=2.0)
        with pytest.raises(ValueError):
            SolverConfig(nu=1.0, amplitude=1.0, N=2, t_end=1.0)  # two-jet needs N >= 3
        with pytest.raises(ValueError):
            SolverConfig(nu=1.0, amplitude=1.0, N=8, t_end=1.0, jet_order="three_jet")
        for bad in (
            {"nu": math.nan},
            {"nu": math.inf},
            {"amplitude": math.nan},
            {"amplitude": -math.inf},
            {"t_end": math.inf},
            {"t_end": math.nan},
            {"dt": math.nan},
            {"dt": math.inf},
        ):
            with pytest.raises(ValueError):
                SolverConfig(**{"nu": 1.0, "amplitude": 1.0, "N": 8, "t_end": 1.0, **bad})
        SolverConfig(nu=1.0, amplitude=1.0, N=2, t_end=1.0, jet_order="one_jet")

    def test_default_dt_formula(self, grid8):
        cfg = two_jet_cfg()
        omega0 = SpectralField.zeros(8)
        assert default_dt(omega0, cfg, grid8) == pytest.approx(0.1 / (0.5 * 64))
        big = single(8, 2, 0, 500.0)
        assert default_dt(big, cfg, grid8) < 0.1 / (0.5 * 64)

    @pytest.mark.parametrize("N", [8, 16])
    def test_default_dt_reads_the_speed(self, N):
        # Large and non-zonal, so the advective limit 0.5/(max|u| N) binds; the
        # speed is the length of the Cartesian reference velocity at the nodes.
        grid = build_grid(N)
        omega0 = rand_field(N, seed=N, amplitude=200.0, decay=0.3)
        cfg = two_jet_cfg(N=N)
        speed = float(np.max(np.linalg.norm(velocity_values(omega0, grid).real, axis=-1)))
        assert 0.5 / (speed * N) < 0.1 / (cfg.nu * N**2)
        assert default_dt(omega0, cfg, grid) == pytest.approx(0.5 / (speed * N), rel=1e-12)

    def test_solver_path_builds_nothing_cartesian(self, monkeypatch):
        def cross(*args, **kwargs):
            raise AssertionError("Cartesian cross product on the solver path")

        monkeypatch.setattr(np, "cross", cross)
        grid = build_grid(8)
        omega0 = rand_field(8, seed=9, amplitude=0.5)
        cfg = two_jet_cfg(t_end=0.05)  # default dt
        assert run(omega0, cfg, grid)[-1].t == pytest.approx(0.05)
        assert run(omega0, two_jet_cfg(t_end=0.05, Omega=1.5), grid)[-1].t == pytest.approx(0.05)
        _, coupling = run_with_coupling(omega0, cfg, grid)
        assert np.all(np.isfinite(coupling.M)) and np.all(np.isfinite(coupling.f))

    def test_hot_path_forms_no_full_table(self, monkeypatch):
        # The state is the m >= 0 half; only diagnostics and oracles form the +-m table.
        grid = build_grid(8)
        omega0 = rand_field(8, seed=9, amplitude=0.5)

        def full_table(self):
            raise AssertionError("+-m table formed on the solver path")

        monkeypatch.setattr(SpectralField, "full_table", full_table)
        assert np.all(np.isfinite(convection(omega0, grid).coeffs))
        for jet_order, Omega in (("two_jet", 0.0), ("one_jet", 0.0), ("two_jet", 1.5)):
            cfg = two_jet_cfg(jet_order=jet_order, Omega=Omega)
            dt = default_dt(omega0, cfg, grid)
            state = Stepper(cfg, grid, dt).step(omega0)
            assert np.all(np.isfinite(state.coeffs)) and not np.array_equal(state.coeffs, omega0.coeffs)


class TestRightHandSides:
    def test_zero_state_is_stationary(self, grid8):
        out = rhs(SpectralField.zeros(8), two_jet_cfg(), grid8)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_degree_one_zonal_is_stationary(self, grid8):
        out = rhs(single(8, 1, 0, 2.5), two_jet_cfg(), grid8)
        assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_degree_one_full_killing_mode_is_stationary(self, grid8):
        u = SpectralField.zeros(8)
        u[1, 0] = 1.5
        u[1, 1] = 0.3 - 0.2j
        u[1, -1] = -np.conj(u[1, 1])
        cfg = two_jet_cfg(amplitude=0.0)  # pure convection: a Killing mode self-advects to zero
        out = rhs(u, cfg, grid8)
        assert np.max(np.abs(out.coeffs)) < 1e-13

    def test_zonal_degree_three_pure_decay(self, grid8):
        eps = 0.02
        out = rhs(single(8, 3, 0, eps), two_jet_cfg(nu=0.5), grid8)
        want = -10.0 * 0.5 * eps
        assert out[3, 0] == pytest.approx(want, rel=1e-13)
        rest = out.copy()
        rest[3, 0] = 0.0
        assert np.max(np.abs(rest.coeffs)) < 1e-15

    def test_one_jet_degree_one_kernel(self, grid8):
        cfg = two_jet_cfg(jet_order="one_jet")
        for m in (-1, 0, 1):
            out = rhs(single(8, 1, m), cfg, grid8)
            assert np.max(np.abs(out.coeffs)) < 1e-14

    def test_one_jet_degree_two_mode(self, grid8):
        nu, a = 0.7, 1.3
        cfg = two_jet_cfg(nu=nu, amplitude=a, jet_order="one_jet")
        out = rhs(single(8, 2, 1), cfg, grid8)
        want = -4.0 * nu - (a / 4.0) * math.sqrt(3.0 / math.pi) * (2j / 3.0)
        assert out[2, 1] == pytest.approx(want, rel=1e-13)
        rest = out.copy()
        rest[2, 1] = 0.0
        assert np.max(np.abs(rest.coeffs)) < 1e-13


class TestStep:
    def test_zonal_decay_is_exact_per_step(self, grid8):
        cfg = two_jet_cfg(nu=0.5)
        dt = 0.01
        out = one_step(single(8, 3, 0, 0.02), cfg, grid8, dt)
        assert out[3, 0] == pytest.approx(0.02 * math.exp(-10.0 * 0.5 * dt), rel=1e-14)

    def test_degree_one_fixed_point(self, grid8):
        out = one_step(single(8, 1, 0), two_jet_cfg(), grid8, 0.05)
        assert abs(out[1, 0] - 1.0) < 1e-14
        rest = out.copy()
        rest[1, 0] = 0.0
        assert np.max(np.abs(rest.coeffs)) < 1e-14

    def test_fourth_order_step_halving(self, grid8):
        omega0 = rand_field(8, seed=303, amplitude=0.8, decay=0.4, degrees=range(1, 6))
        cfg0 = two_jet_cfg(nu=0.5, t_end=0.4)
        t_end = 0.4

        def state_at(dt):
            stepper = Stepper(SolverConfig(nu=0.5, amplitude=1.0, N=8, t_end=t_end, dt=dt), grid8, dt)
            state = omega0
            for _ in range(int(round(t_end / dt))):
                state = stepper.step(state)
            return state

        ref = state_at(0.0025)
        errs = [np.max(np.abs(state_at(dt).coeffs - ref.coeffs)) for dt in (0.02, 0.01)]
        ratio = errs[0] / errs[1]
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reports_time(self, grid8):
        omega0 = single(8, 3, 1, 1e200)
        cfg = two_jet_cfg(t_end=0.4, dt=0.1)
        with pytest.raises(IntegrationError) as info:
            run(omega0, cfg, grid8)
        k = round(info.value.t / 0.1)
        assert 1 <= k <= 4 and info.value.t == pytest.approx(0.1 * k)
        assert f"t = {info.value.t:.6g}" in str(info.value)


def lattice(omega0, cfg, grid):
    """(nsteps, dt) of the default-dt lattice, and its snapshot times: every snapshot_stride-th point and the end."""
    nsteps = math.ceil(cfg.t_end / default_dt(omega0, cfg, grid) - 1e-12)
    dt = cfg.t_end / nsteps
    times = [0.0] + [k * dt for k in range(cfg.snapshot_stride, nsteps, cfg.snapshot_stride)] + [nsteps * dt]
    return nsteps, dt, times


def classic_step(nonlinear, diffusion, state, dt):
    """The Lawson-RK4 step as it stood before step control, kept here for a bitwise comparison."""
    lin = diffusion[:, None]
    e_half = np.exp(lin * (dt / 2.0))
    e_full = np.exp(lin * dt)
    u = state.coeffs
    k1 = nonlinear(state).coeffs
    u2 = e_half * (u + (dt / 2.0) * k1)
    k2 = nonlinear(SpectralField(state.N, u2)).coeffs
    u3 = e_half * u + (dt / 2.0) * k2
    k3 = nonlinear(SpectralField(state.N, u3)).coeffs
    u4 = e_full * u + dt * e_half * k3
    k4 = nonlinear(SpectralField(state.N, u4)).coeffs
    advanced = e_full * u + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
    return SpectralField(state.N, advanced)


def count_nonlinear(monkeypatch):
    """A list that gets one entry per Stepper.nonlinear call from now on."""
    calls = []
    nonlinear = Stepper.nonlinear

    def counted(self, state):
        calls.append(None)
        return nonlinear(self, state)

    monkeypatch.setattr(Stepper, "nonlinear", counted)
    return calls


class TestControlledSteps:
    @pytest.mark.parametrize("flow", ["two_jet", "one_jet", "rotating"])
    def test_snapshot_times_sit_on_the_lattice(self, grid8, flow):
        omega0 = rand_field(8, seed=31, amplitude=0.6, decay=0.4)
        cfg = two_jet_cfg(
            t_end=0.3, snapshot_stride=7, jet_order="one_jet" if flow == "one_jet" else "two_jet",
            Omega=1.5 if flow == "rotating" else 0.0,
        )
        recs = run(omega0, cfg, grid8)
        nsteps, _, times = lattice(omega0, cfg, grid8)
        assert [r.t for r in recs] == times  # bitwise
        assert 0 < recs[-1].steps < nsteps
        steps = [r.steps for r in recs]
        assert steps == sorted(steps) and recs[0].steps == recs[0].rejected == 0

    def test_matches_fine_fixed_step_reference(self, grid16):
        omega0 = rand_field(16, seed=41, amplitude=0.5, decay=0.4)
        cfg = SolverConfig(nu=0.5, amplitude=1.0, N=16, t_end=0.125, snapshot_stride=10)
        states = snapshot_states(omega0, cfg, grid16)
        _, lattice_dt, _ = lattice(omega0, cfg, grid16)
        fine = SolverConfig(
            nu=0.5, amplitude=1.0, N=16, t_end=cfg.t_end, dt=lattice_dt / 4,
            snapshot_stride=4 * cfg.snapshot_stride,
        )
        ref = snapshot_states(omega0, fine, grid16)
        assert len(ref) == len(states)
        for (t, got), (t_ref, want) in zip(states, ref):
            assert t == pytest.approx(t_ref, rel=1e-14)
            assert (got - want).norm() <= 1e-9 * want.norm()

    def test_embedded_estimate_is_fourth_order(self, grid8):
        omega0 = rand_field(8, seed=303, amplitude=0.8, decay=0.4, degrees=range(1, 6))
        cfg = two_jet_cfg(nu=0.5)
        errs = []
        for h in (0.005, 0.0025):
            new, k5, err = Stepper(cfg, grid8, h).step(omega0, estimate=True)
            assert np.array_equal(new.coeffs, one_step(omega0, cfg, grid8, h).coeffs)
            assert np.array_equal(k5, Stepper(cfg, grid8, h).nonlinear(new).coeffs)
            errs.append(np.linalg.norm(err))
        assert 16.0 * 0.8 <= errs[0] / errs[1] <= 16.0 * 1.2

    @pytest.mark.parametrize("flow", ["two_jet", "one_jet", "rotating"])
    def test_fixed_step_is_the_classic_step(self, grid8, flow, monkeypatch):
        omega0 = rand_field(8, seed=51, amplitude=0.6, decay=0.4)
        dt = 0.01
        cfg = two_jet_cfg(
            t_end=0.05, dt=dt, snapshot_stride=100,
            jet_order="one_jet" if flow == "one_jet" else "two_jet", Omega=1.5 if flow == "rotating" else 0.0,
        )
        stepper = Stepper(cfg, grid8, dt)
        state = omega0
        for _ in range(5):
            state = classic_step(stepper.nonlinear, linear_diffusion_factors(8, cfg.nu), state, dt)
        _, last = snapshot_states(omega0, cfg, grid8)[-1]
        calls = count_nonlinear(monkeypatch)
        recs = run(omega0, cfg, grid8)
        assert np.array_equal(last.coeffs, state.coeffs)
        assert (recs[-1].steps, recs[-1].rejected) == (5, 0)
        assert len(calls) == 4 * 5  # no stage beyond the four of each step

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reports_time(self, grid8, monkeypatch):
        attempts = []
        step = Stepper.step

        def counted(self, *args, **kwargs):
            attempts.append(self.dt)
            return step(self, *args, **kwargs)

        monkeypatch.setattr(Stepper, "step", counted)
        cfg = two_jet_cfg(t_end=0.4)
        with pytest.raises(IntegrationError) as info:
            run(single(8, 3, 1, 1e200), cfg, grid8)
        assert 0.0 <= info.value.t < 0.4
        assert f"t = {info.value.t:.6g}" in str(info.value)
        assert 1 <= len(attempts) <= 30
        assert attempts[-1] * 0.2 < pde_solver.MIN_STEP * cfg.t_end

    def test_step_counts(self, grid8, monkeypatch):
        omega0 = rand_field(8, seed=61, amplitude=0.6, decay=0.4)
        fixed = run(omega0, two_jet_cfg(t_end=0.1, dt=0.01, snapshot_stride=3), grid8)
        assert [(r.steps, r.rejected) for r in fixed] == [(0, 0), (3, 0), (6, 0), (9, 0), (10, 0)]
        calls = count_nonlinear(monkeypatch)
        controlled = run(omega0, two_jet_cfg(t_end=0.1, snapshot_stride=3), grid8)
        assert controlled[-1].steps >= len(controlled) - 1
        # Four stages per attempt, the first one reused from the attempt before (FSAL).
        assert len(calls) == 4 * (controlled[-1].steps + controlled[-1].rejected) + 1


class TestRun:
    def test_stationary_degree_one(self, grid8):
        cfg = two_jet_cfg(t_end=1.0, snapshot_stride=40)
        recs = run(single(8, 1, 0), cfg, grid8)
        assert recs[0].t == 0.0
        assert recs[-1].t == pytest.approx(1.0)
        for rec in recs:
            assert rec.norm_eq1 == pytest.approx(1.0, abs=1e-12)
            assert rec.norm_ge3 < 1e-14
            assert np.max(np.abs(rec.mode2)) < 1e-14

    def test_zonal_decay_trace(self, grid8):
        cfg = two_jet_cfg(nu=0.5, t_end=1.0, snapshot_stride=50)
        recs = run(single(8, 3, 0, 0.01), cfg, grid8)
        for rec in recs:
            assert rec.norm_ge3 == pytest.approx(0.01 * math.exp(-5.0 * rec.t), rel=1e-9)

    def test_degree_one_conservation_generic(self, grid8):
        omega0 = rand_field(8, seed=5, amplitude=0.6)
        cfg = two_jet_cfg(nu=0.5, t_end=2.0, snapshot_stride=100)
        recs = run(omega0, cfg, grid8)
        drift = max(np.max(np.abs(r.mode1 - recs[0].mode1)) for r in recs)
        assert drift < 1e-9

    def test_reality_preserved(self, grid8):
        omega0 = rand_field(8, seed=6, amplitude=0.6)
        cfg = two_jet_cfg(nu=0.5, t_end=0.5, snapshot_stride=50)
        for _, state in snapshot_states(omega0, cfg, grid8):
            assert_real_field_layout(state)

    @pytest.mark.parametrize("flow", ["two_jet", "one_jet", "rotating"])
    def test_reality_exact_by_construction(self, grid8, flow):
        # The state is the m >= 0 half, so it is real by construction; what
        # remains to hold is the layout: the analysis keeps column 0 real and
        # row 0 zero, and no linear factor writes above the triangle m <= n.
        omega0 = rand_field(8, seed=12, amplitude=0.6, decay=0.4)
        jet_order = "one_jet" if flow == "one_jet" else "two_jet"
        Omega = 2.0 if flow == "rotating" else 0.0
        cfg = two_jet_cfg(t_end=0.3, snapshot_stride=3, jet_order=jet_order, Omega=Omega)
        states = snapshot_states(omega0, cfg, grid8)
        assert len(states) > 10
        for _, state in states:
            assert_real_field_layout(state)

    def test_high_degree_bound_generic(self, grid8):
        omega0 = rand_field(8, seed=7, amplitude=0.5, decay=0.4)
        nu = 0.5
        cfg = two_jet_cfg(nu=nu, t_end=2.0, snapshot_stride=25)
        recs = run(omega0, cfg, grid8)
        n0 = recs[0].norm_ge3
        for rec in recs:
            assert rec.norm_ge3 <= math.exp(-10.0 * nu * rec.t) * n0 * (1.0 + 1e-6)

    def test_one_jet_bound_and_exact_case(self, grid8):
        nu = 0.5
        cfg = SolverConfig(nu=nu, amplitude=1.0, N=8, t_end=2.0, snapshot_stride=25, jet_order="one_jet")
        omega0 = rand_field(8, seed=8, amplitude=0.5, decay=0.4)
        recs = run(omega0, cfg, grid8)
        n0 = math.hypot(recs[0].norm_eq2_dist, recs[0].norm_ge3)
        for rec in recs:
            high = math.hypot(rec.norm_eq2_dist, rec.norm_ge3)
            assert high <= math.exp(-4.0 * nu * rec.t) * n0 * (1.0 + 1e-6)
        # zonal degree-2 state decays exactly
        recs = run(single(8, 2, 0, 0.01), cfg, grid8)
        for rec in recs:
            assert rec.norm_eq2_dist == pytest.approx(0.01 * math.exp(-4.0 * nu * rec.t), rel=1e-9)

    def test_matches_reduced_system_without_high_degrees(self, grid8):
        omega0 = SpectralField.zeros(8)
        omega0[1, 0] = 0.8
        omega0[1, 1] = 0.2 + 0.4j
        omega0[1, -1] = -np.conj(omega0[1, 1])
        omega0[2, 0] = 0.5
        omega0[2, 2] = 0.2 - 0.2j
        omega0[2, -2] = np.conj(omega0[2, 2])
        nu = 1.0
        cfg = two_jet_cfg(nu=nu, t_end=1.0, snapshot_stride=64)
        recs = run(omega0, cfg, grid8)
        sys = build_system(KillingParams.from_field(omega0), 1.0, nu)
        for rec in recs:
            want = propagate_exact(sys, omega0.mode2_vector(), rec.t)
            assert np.linalg.norm(rec.mode2 - want) < 1e-10
            assert rec.norm_ge3 < 1e-14

    def test_forced_coupling_closes_the_loop(self, grid8):
        omega0 = rand_field(8, seed=77, amplitude=0.4, decay=0.5)
        nu = 1.0
        cfg = two_jet_cfg(nu=nu, t_end=0.5, snapshot_stride=1000, dt=0.5 / 256)
        recs, coupling = run_with_coupling(omega0, cfg, grid8)
        sys = build_system(KillingParams.from_field(omega0), 1.0, nu)
        dt_ode = 2.0 * (coupling.times[1] - coupling.times[0])
        traj = propagate_forced(sys, omega0.mode2_vector(), coupling.M, coupling.f, dt_ode, 0.5)
        final = recs[-1].mode2
        assert np.linalg.norm(traj[-1] - final) / np.linalg.norm(final) < 1e-7

    @pytest.mark.parametrize("stride", [1, 5, 1000])
    @pytest.mark.parametrize(
        "flow, calls", [({}, 1), ({"Omega": 1.5}, 1), ({"jet_order": "one_jet"}, 0)], ids=["two_jet", "rotating", "one_jet"]
    )
    def test_attractor_computed_once_per_run(self, grid8, monkeypatch, flow, calls, stride):
        closed_form, counted = reduced_ode.equilibrium_closed_form, []

        def counting(*args):
            counted.append(args)
            return closed_form(*args)

        monkeypatch.setattr(reduced_ode, "equilibrium_closed_form", counting)
        omega0 = rand_field(8, seed=78, amplitude=0.4)
        recs = run(omega0, two_jet_cfg(t_end=0.05, dt=0.005, snapshot_stride=stride, **flow), grid8)
        assert len(recs) == 1 + math.ceil(10 / stride)
        assert len(counted) == calls
        if not flow:
            counted.clear()
            run_with_coupling(omega0, two_jet_cfg(t_end=0.05, dt=0.005, snapshot_stride=stride), grid8)
            assert len(counted) == 1

    def test_coupling_rejects_one_jet(self, grid8):
        cfg = two_jet_cfg(t_end=0.01, jet_order="one_jet")
        with pytest.raises(ValueError, match="two_jet"):
            run_with_coupling(rand_field(8, seed=77, amplitude=0.4), cfg, grid8)

    def test_coupling_rejects_a_rotating_frame(self, grid8):
        # Couplings of a rotating run do not close the static reduced system
        # (relative error 0.46 at Omega = 1.5 on the configuration above).
        cfg = two_jet_cfg(t_end=0.01, Omega=1.5)
        with pytest.raises(ValueError, match="non-rotating"):
            run_with_coupling(rand_field(8, seed=77, amplitude=0.4), cfg, grid8)

    def test_truncation_robustness(self):
        from sphkol.harmonics import build_grid

        omega0_small = rand_field(10, seed=90, amplitude=0.2, decay=0.8, degrees=range(1, 5))
        omega0_big = SpectralField.zeros(20)
        omega0_big.coeffs[:11, :11] = omega0_small.coeffs
        out = []
        for omega0, N in ((omega0_small, 10), (omega0_big, 20)):
            cfg = SolverConfig(nu=1.0, amplitude=1.0, N=N, t_end=1.0, snapshot_stride=10_000)
            recs = run(omega0, cfg, build_grid(N), )
            out.append(recs[-1].norm_eq2_dist)
        assert abs(out[0] - out[1]) < 1e-8

    def test_initial_condition_validation(self, grid8):
        cfg = two_jet_cfg()
        with pytest.raises(ValueError, match="must be real"):
            run(single(8, 2, 0, 0.5j), cfg, grid8)
        with pytest.raises(ValueError, match="degree"):
            run(SpectralField.zeros(6), cfg, grid8)


def assert_same_records(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.t, a.norm_eq1, a.norm_eq2_dist, a.norm_ge3) == (b.t, b.norm_eq1, b.norm_eq2_dist, b.norm_ge3)
        assert np.array_equal(a.mode2, b.mode2) and np.array_equal(a.mode1, b.mode1)
        assert (a.steps, a.rejected) == (b.steps, b.rejected)


class TestLatticeDriver:
    """run and run_with_coupling read the same lattice states and build records the same way."""

    def test_coupling_run_records_equal_run(self, grid8):
        omega0 = rand_field(8, seed=81, amplitude=0.5, decay=0.4)
        cfg = two_jet_cfg(t_end=0.1, dt=0.01, snapshot_stride=3)
        recs, coupling = run_with_coupling(omega0, cfg, grid8)
        assert_same_records(recs, run(omega0, cfg, grid8))
        assert coupling.times.tolist() == [k * 0.01 for k in range(11)]

    def test_coupling_run_without_dt_steps_on_the_lattice(self, grid8):
        omega0 = rand_field(8, seed=82, amplitude=0.5, decay=0.4)
        cfg = two_jet_cfg(t_end=0.1, snapshot_stride=3)
        nsteps, dt, _ = lattice(omega0, cfg, grid8)
        recs, coupling = run_with_coupling(omega0, cfg, grid8)
        assert coupling.times.tolist() == [k * dt for k in range(nsteps + 1)]  # bitwise
        assert coupling.M.shape == (nsteps + 1, 5, 5) and coupling.f.shape == (nsteps + 1, 5)
        assert_same_records(recs, run(omega0, replace(cfg, dt=dt), grid8))

    @pytest.mark.parametrize("flow", ["two_jet", "one_jet", "rotating"])
    def test_records_read_their_snapshot(self, grid8, flow):
        omega0 = rand_field(8, seed=83, amplitude=0.6, decay=0.4)
        cfg = two_jet_cfg(
            t_end=0.2, snapshot_stride=3,
            jet_order="one_jet" if flow == "one_jet" else "two_jet", Omega=1.5 if flow == "rotating" else 0.0,
        )
        recs = run(omega0, cfg, grid8)
        states = snapshot_states(omega0, cfg, grid8)
        assert len(recs) == len(states) > 2
        for rec, (t, state) in zip(recs, states):
            assert rec.t == t
            assert rec.norm_eq1 == degree_norm(state, 1)
            assert rec.norm_ge3 == highpass_norm(state, 3)
            assert np.array_equal(rec.mode1, mode1_vector(state))
            assert np.array_equal(rec.mode2, state.mode2_vector())


class TestTrajectoryCsv:
    def test_format(self, grid8):
        cfg = two_jet_cfg(nu=0.5, t_end=0.2, snapshot_stride=20)
        recs = run(single(8, 3, 0, 0.01), cfg, grid8)
        text = trajectory_csv(recs)
        assert "\r" not in text and text.endswith("\n")
        lines = text.splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        assert len(lines) == 1 + len(recs)
        cells = lines[1].split(",")
        assert len(cells) == 14
        assert float(cells[3]) == pytest.approx(0.01)

    def test_comment_line(self, grid8):
        cfg = two_jet_cfg(t_end=0.1, snapshot_stride=100)
        recs = run(single(8, 1, 0), cfg, grid8)
        first = trajectory_csv(recs, header_comment="Omega=2").splitlines()[0]
        assert first == "# Omega=2"
