import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_real_field_layout, degree_norm, highpass_norm, mode1_vector, rand_field, snapshot_states
from refimpl import classic_states, classic_step, dense_deviation, lawson_rate
from sphkol import pde_solver, reduced_ode
from sphkol.cli import TRAJECTORY_HEADER, trajectory_csv
from sphkol.harmonics import build_grid
from sphkol.operators import KillingParams, convection, linear_part
from sphkol.oracles import apply_degree_multiplier, propagate_exact, velocity_values
from sphkol.pde_solver import (
    IntegrationError,
    SolverConfig,
    Stepper,
    default_dt,
    linear_diffusion_factors,
    run,
    run_with_coupling,
)
from sphkol.reduced_ode import build_system, frame_phases, propagate_forced, rotating_frame_params
from sphkol.sht import SpectralField, random_real_field


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
    """Full right-hand side: the diagonal D + S the stepper integrates exactly plus its explicit part."""
    stepper = Stepper(cfg, grid, cfg.t_end)
    diffusion = apply_degree_multiplier(omega, linear_diffusion_factors(omega.N, cfg.nu))
    return SpectralField(diffusion.coeffs + stepper.linear.diagonal * omega.coeffs + stepper.nonlinear(omega.coeffs))


def one_step(omega, cfg, grid, dt):
    return SpectralField(Stepper(cfg, grid, dt).step(omega.coeffs))


class TestConfig:
    @pytest.mark.parametrize(
        "name, value",
        [
            (name, value)
            for name in ("nu", "amplitude", "t_end", "dt", "Omega")
            for value in (True, np.bool_(True), "1", 1 + 0j, None)
            if (name, value) != ("dt", None)
        ],
    )
    def test_a_boolean_or_non_real_number_is_named(self, name, value):
        # Each used to run as 1 or raise a bare TypeError.
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            SolverConfig(**{"nu": 1.0, "amplitude": 1.0, "N": 8, "t_end": 1.0, name: value})

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
        # A fractional or boolean count is named, not truncated or read as 1.
        for name, value in (("N", 8.0), ("N", True), ("snapshot_stride", 2.5), ("snapshot_stride", True)):
            for dt in (None, 0.01):
                with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
                    SolverConfig(**{"nu": 1.0, "amplitude": 1.0, "N": 8, "t_end": 1.0, "dt": dt, name: value})
        SolverConfig(nu=1.0, amplitude=1.0, N=np.int64(8), t_end=1.0, snapshot_stride=np.int64(3))
        SolverConfig(nu=1, amplitude=np.float64(1.0), N=8, t_end=1, dt=np.float32(0.5), Omega=2)
        SolverConfig(nu=1.0, amplitude=1.0, N=2, t_end=1.0, jet_order="one_jet")

    def test_flow_is_a_two_jet_amplitude_and_a_rotation_rate(self):
        assert two_jet_cfg(amplitude=1.3).flow == (1.3, 0.0)
        assert two_jet_cfg(amplitude=1.3, Omega=-0.7).flow == (1.3, -0.7)
        assert two_jet_cfg(amplitude=1.3, jet_order="one_jet").flow == (0.0, (1.3 / 4.0) * math.sqrt(3.0 / math.pi))

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
            state = Stepper(cfg, grid, dt).step(omega0.coeffs)
            assert isinstance(state, np.ndarray)  # the stepper steps m >= 0 coefficient arrays
            assert np.all(np.isfinite(state)) and not np.array_equal(state, omega0.coeffs)


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
        rest = out.coeffs.copy()
        rest[3, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-15

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
        rest = out.coeffs.copy()
        rest[2, 1] = 0.0
        assert np.max(np.abs(rest)) < 1e-13


class TestStep:
    def test_zonal_decay_is_exact_per_step(self, grid8):
        cfg = two_jet_cfg(nu=0.5)
        dt = 0.01
        out = one_step(single(8, 3, 0, 0.02), cfg, grid8, dt)
        assert out[3, 0] == pytest.approx(0.02 * math.exp(-10.0 * 0.5 * dt), rel=1e-14)

    def test_degree_one_fixed_point(self, grid8):
        out = one_step(single(8, 1, 0), two_jet_cfg(), grid8, 0.05)
        assert abs(out[1, 0] - 1.0) < 1e-14
        rest = out.coeffs.copy()
        rest[1, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_fourth_order_step_halving(self, grid8):
        omega0 = rand_field(8, seed=303, amplitude=0.8, decay=0.4, degrees=range(1, 6))
        cfg0 = two_jet_cfg(nu=0.5, t_end=0.4)
        t_end = 0.4

        def state_at(dt):
            stepper = Stepper(SolverConfig(nu=0.5, amplitude=1.0, N=8, t_end=t_end, dt=dt), grid8, dt)
            state = omega0.coeffs
            for _ in range(int(round(t_end / dt))):
                state = stepper.step(state)
            return state

        ref = state_at(0.0025)
        errs = [np.max(np.abs(state_at(dt) - ref)) for dt in (0.02, 0.01)]
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


def at_attractor(cfg):
    """w* = w_1 + w_2^inf of cfg's run from the degree-1 data w_1 = Y_1^0 + 0.5 (Y_1^1 + mirror) at N = 8."""
    omega0 = single(8, 1, 0, 1.0)
    omega0[1, 1] = 0.5
    _, attractor = pde_solver._frame(omega0, cfg)
    for m in range(3):
        omega0[2, m] = attractor[2 - m]
    return omega0


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
            assert SpectralField(got.coeffs - want.coeffs).norm() <= 1e-9 * want.norm()

    def test_embedded_estimate_is_fourth_order(self, grid8):
        # err is the fifth-order solution minus the embedded fourth-order one: O(h^5).
        omega0 = rand_field(8, seed=303, amplitude=0.8, decay=0.4, degrees=range(1, 6))
        cfg = two_jet_cfg(nu=0.5)
        errs = []
        for h in (0.01, 0.005):
            stepper = Stepper(cfg, grid8, h, about=np.zeros_like(omega0.coeffs))
            new, w_new, err, k_new = stepper.step(omega0.coeffs, stepper.nonlinear(omega0.coeffs))
            assert np.array_equal(w_new, new)  # about 0, the deviation is the state
            assert np.array_equal(k_new, stepper.nonlinear(new))  # FSAL
            assert np.array_equal(stepper.stages[:, 7], k_new)  # S = 0: stored unturned
            errs.append(np.linalg.norm(err))
        assert 32.0 * 0.8 <= errs[0] / errs[1] <= 32.0 * 1.2

    @pytest.mark.parametrize("Omega", [0.0, 1.5])
    def test_attractor_is_a_fixed_point(self, grid8, Omega):
        # From w* = w_1 + w_2^inf, static in co-rotating coefficients, the
        # deviation's rate is zero up to round-off: the degree-2 distance and
        # the degree-1 phase law stay at round-off, and the steps grow freely.
        cfg = two_jet_cfg(nu=1.0, t_end=20.0, snapshot_stride=1000, Omega=Omega)
        omega0 = at_attractor(cfg)
        recs = run(omega0, cfg, grid8)
        assert max(r.norm_eq2_dist for r in recs) < 1e-15
        assert max(r.norm_ge3 for r in recs) < 1e-15
        phases = np.exp(1j * Omega * np.array([1.0, 0.0, -1.0]))
        assert max(np.max(np.abs(r.mode1 - phases**r.t * recs[0].mode1)) for r in recs) < 1e-15
        assert recs[-1].steps < 100

    def test_sparse_snapshots_match_a_fixed_step_reference(self, grid16):
        # nu = 2 at N = 16: |D_N| = 540, so a step ends at most REACH / 540 = 0.011
        # past a snapshot, while the steps between snapshots grow past 0.04.  The
        # dense-output factors e^{(c_j - theta) h |D_N|} are bounded by e^REACH;
        # unbounded, they wreck the snapshots.
        omega0 = rand_field(16, seed=41, amplitude=0.5, decay=0.4)
        cfg = SolverConfig(nu=2.0, amplitude=1.0, N=16, t_end=2.0, snapshot_stride=1280)
        nsteps, _, times = lattice(omega0, cfg, grid16)
        assert (nsteps, len(times)) == (10240, 9)
        reach = pde_solver.REACH / (cfg.nu * (16 * 17 - 2))
        assert cfg.t_end / run(omega0, cfg, grid16)[-1].steps > 4 * reach
        states = snapshot_states(omega0, cfg, grid16)
        dt = 2.0 / 512
        nonlinear = Stepper(cfg, grid16, dt).nonlinear
        fine = classic_states(nonlinear, lawson_rate(cfg), omega0, dt, 512)
        ref = [(k * dt, fine[k]) for k in range(0, 513, 64)]
        assert len(ref) == len(states)
        for (t, got), (t_ref, want) in zip(states, ref):
            assert t == pytest.approx(t_ref, rel=1e-14)
            assert SpectralField(got.coeffs - want.coeffs).norm() <= 1e-9 * want.norm()

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
            state = classic_step(stepper.nonlinear, lawson_rate(cfg), state, dt)
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

        def counted(self, state, k1=None):
            assert k1 is not None  # every attempt is a Dormand-Prince one
            attempts.append(self.dt)
            return step(self, state, k1)

        monkeypatch.setattr(Stepper, "step", counted)
        cfg = two_jet_cfg(t_end=0.4)
        with pytest.raises(IntegrationError) as info:
            run(single(8, 3, 1, 1e200), cfg, grid8)
        assert 0.0 <= info.value.t < 0.4
        assert f"t = {info.value.t:.6g}" in str(info.value)
        assert 1 <= len(attempts) <= 30
        assert attempts[-1] * 0.2 < pde_solver.MIN_STEP * cfg.t_end

    def test_rotation_does_not_shrink_the_step(self, grid16):
        # S rides in the integrating factor: stepped explicitly, it took 371 steps here.
        omega0 = rand_field(16, seed=3, amplitude=0.5, decay=0.4)
        cfg = SolverConfig(nu=0.5, amplitude=1.0, N=16, t_end=1.0, snapshot_stride=10**6, Omega=20.0)
        assert run(omega0, cfg, grid16)[-1].steps < 120

    def test_step_counts(self, grid8, monkeypatch):
        omega0 = rand_field(8, seed=61, amplitude=0.6, decay=0.4)
        fixed = run(omega0, two_jet_cfg(t_end=0.1, dt=0.01, snapshot_stride=3), grid8)
        assert [(r.steps, r.rejected) for r in fixed] == [(0, 0), (3, 0), (6, 0), (9, 0), (10, 0)]
        calls = count_nonlinear(monkeypatch)
        controlled = run(omega0, two_jet_cfg(t_end=0.1, snapshot_stride=3), grid8)
        assert controlled[-1].steps < len(controlled) - 1  # steps do not land on snapshot times
        # Six new stages per attempt: the first is the attempt before's last (FSAL).
        assert len(calls) == 6 * (controlled[-1].steps + controlled[-1].rejected) + 1

    @pytest.mark.parametrize("Omega", [0.0, 1.5])
    def test_steps_grow_tenfold_at_round_off_error(self, grid8, Omega, monkeypatch):
        # At the attractor the error is round-off, so every factor meets the
        # upper clip: each step is exactly 10 times the one before until the end
        # cuts the last one short.  One sample, the end, so REACH cuts nothing.
        attempts = []
        step = Stepper.step

        def counted(self, state, k1=None):
            attempts.append(self.dt)
            return step(self, state, k1)

        cfg = two_jet_cfg(nu=1.0, t_end=20.0, snapshot_stride=10**9, Omega=Omega)
        omega0 = at_attractor(cfg)
        _, dt, _ = lattice(omega0, cfg, grid8)
        monkeypatch.setattr(Stepper, "step", counted)
        recs = run(omega0, cfg, grid8)
        grown = [dt]
        while len(grown) < len(attempts) - 1:
            grown.append(grown[-1] * 10.0)
        assert attempts[:-1] == grown  # bitwise
        assert attempts[-1] < 10.0 * grown[-1] and sum(attempts) == pytest.approx(cfg.t_end, rel=1e-14)
        assert (recs[-1].steps, recs[-1].rejected) == (len(attempts), 0) == (6, 0)

    def test_step_economy_at_the_bench_configurations(self, grid16):
        # The predictive controller follows the transient's falling error:
        # two_jet_n16's and coupling_n16's seed-71 input 0 took 17 and 13
        # steps with the one-step factor.
        def bench_field(amplitude, decay):
            rng = np.random.Generator(np.random.PCG64([71, 0]))
            return random_real_field(16, rng, amplitude=amplitude, decay=decay)

        cfg = SolverConfig(nu=0.5, amplitude=1.0, N=16, t_end=0.25, snapshot_stride=10)
        last = run(bench_field(0.5, 0.4), cfg, grid16)[-1]
        assert last.steps <= 15 and last.rejected == 0
        cfg = SolverConfig(nu=1.0, amplitude=1.0, N=16, t_end=0.125, dt=1.0 / 2048, snapshot_stride=10**9)
        recs, _ = run_with_coupling(bench_field(0.4, 0.5), cfg, grid16)
        assert recs[-1].steps <= 11 and recs[-1].rejected == 0


def controlled_about(omega0, cfg):
    """w* of a controlled run from omega0: its degree-1 row and the run's degree-2 attractor (m >= 0)."""
    about = np.zeros_like(omega0.coeffs)
    about[1] = omega0.coeffs[1]
    about[2, :3] = pde_solver._frame(omega0, cfg)[1][2::-1]
    return about


def checked_dense(monkeypatch):
    """Lists that get (t, dt, times) per Stepper.dense row build, and t + dt per step attempt, from now on.

    Every deviation read is checked bitwise against refimpl.dense_deviation, the per-theta form.  An
    attempt starts where the last one ended when it is given that one's FSAL rate, else where it started.
    """
    builds, ends = [], []
    dense, step = Stepper.dense, Stepper.step
    last = {"t": 0.0, "dt": 0.0, "fsal": None}

    def checked(self, t, times):
        builds.append((t, self.dt, list(times)))
        deviations = dense(self, t, times)
        assert deviations.shape == (len(times), self.N + 1, self.N + 1)
        for s, deviation in zip(times, deviations):
            assert np.array_equal(deviation.view(np.uint64), dense_deviation(self, t, s).view(np.uint64))
        return deviations

    def attempt(self, state, k1=None):
        if k1 is last["fsal"]:
            last["t"] += last["dt"]
        ends.append(last["t"] + self.dt)
        out = step(self, state, k1)
        last.update(dt=self.dt, fsal=out[3])
        return out

    monkeypatch.setattr(Stepper, "dense", checked)
    monkeypatch.setattr(Stepper, "step", attempt)
    return builds, ends


class TestDenseOutput:
    """One row build per batch of samples, one product per sample: bitwise the per-theta formula."""

    @pytest.mark.parametrize("Omega", [0.0, 1.5])
    @pytest.mark.parametrize("size", [1, 7, 18])  # 18 = 2(N+1), the largest batch at N = 8
    def test_batched_reads_equal_the_per_theta_formula(self, grid8, Omega, size):
        omega0 = rand_field(8, seed=91, amplitude=0.6, decay=0.4)
        cfg = two_jet_cfg(Omega=Omega)
        t, h = 0.3, 0.02
        stepper = Stepper(cfg, grid8, h, about=controlled_about(omega0, cfg))
        assert (stepper.skew is None) == (Omega == 0.0)
        k1 = stepper.nonlinear(omega0.coeffs) + stepper.about_rate
        _, w_new, _, _ = stepper.step(omega0.coeffs - stepper.about, k1)
        times = [t + h * (k + 1) / size for k in range(size)]
        assert times[-1] == t + h  # the landing sample, theta = 1
        deviations = list(stepper.dense(t, times))
        assert len(deviations) == size
        for s, deviation in zip(times, deviations):
            assert np.array_equal(deviation.view(np.uint64), dense_deviation(stepper, t, s).view(np.uint64))
        # At theta = 1 the continuous extension is the fifth-order solution.
        landed = stepper.about + deviations[-1]
        assert np.linalg.norm(landed - w_new) <= 1e-14 * np.linalg.norm(w_new)

    def test_row_builds_stay_bounded_on_a_fine_lattice(self, grid8, monkeypatch):
        # Steps over a thousand samples long: a row build takes at most 2(N+1) of
        # them, so its size does not grow with the lattice's density.
        omega0 = rand_field(8, seed=92, amplitude=0.5, decay=0.4)
        cfg = two_jet_cfg(t_end=0.01, dt=2e-6, snapshot_stride=10**9)
        builds, ends = checked_dense(monkeypatch)
        _, coupling = run_with_coupling(omega0, cfg, grid8)
        assert max(h for _, h, _ in builds) >= 1000 * 2e-6
        assert max(len(times) for _, _, times in builds) == 2 * (8 + 1)
        assert_every_sample_read(builds, ends, coupling, cfg)

    def test_row_builds_per_step_at_the_bench_configuration(self, grid16, monkeypatch):
        # coupling_n16: at most ceil(S / 2(N+1)) row builds for a step's S samples.
        omega0 = rand_field(16, seed=71, amplitude=0.4, decay=0.5)
        cfg = SolverConfig(nu=1.0, amplitude=1.0, N=16, t_end=0.125, dt=1.0 / 2048, snapshot_stride=10**9)
        builds, ends = checked_dense(monkeypatch)
        recs, coupling = run_with_coupling(omega0, cfg, grid16)
        starts = sorted({t for t, _, _ in builds})
        assert len(starts) <= recs[-1].steps
        for start, end in zip(starts, starts[1:] + [cfg.t_end]):  # a step's samples lie in (start, end]
            samples = int(np.count_nonzero((coupling.times > start) & (coupling.times <= end)))
            assert 1 <= sum(t == start for t, _, _ in builds) <= math.ceil(samples / (2 * (16 + 1)))
        assert_every_sample_read(builds, ends, coupling, cfg)


def assert_every_sample_read(builds, ends, coupling, cfg):
    """Each sample after t = 0 is read off the dense output once, or is the end of a step that lands on it.

    No row build is made for no sample.
    """
    assert all(times for _, _, times in builds)
    read = [s for _, _, times in builds for s in times]
    assert len(read) == len(set(read))
    assert set(coupling.times[1:].tolist()) - set(read) <= set(ends) | {cfg.t_end}


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

    @pytest.mark.parametrize("dt", [None, 0.01])
    @pytest.mark.parametrize("a", [1.0, 3.0])
    def test_one_jet_run_is_the_zero_amplitude_run_about_its_base_flow(self, grid8, a, dt):
        # The base flow a Y_1^0 is degree-1 vorticity, so on degrees >= 2 the one-jet run
        # of w is the zero-amplitude two-jet run of w + a Y_1^0.
        omega0 = rand_field(8, seed=84, amplitude=0.5, decay=0.4)
        shifted = SpectralField(omega0.coeffs.copy())
        shifted[1, 0] += a
        cfg = two_jet_cfg(amplitude=a, t_end=0.5, dt=dt, snapshot_stride=5, jet_order="one_jet")
        one_jet = run(omega0, cfg, grid8)
        two_jet = run(shifted, replace(cfg, amplitude=0.0, jet_order="two_jet"), grid8)
        assert [r.t for r in one_jet] == [r.t for r in two_jet]
        scale = max(float(np.max(np.abs(r.mode2))) for r in one_jet)
        for got, want in zip(one_jet, two_jet):
            assert np.max(np.abs(got.mode2 - want.mode2)) <= 1e-9 * scale

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

    @pytest.mark.parametrize("stride", [1, 3, 5, 1000])
    @pytest.mark.parametrize("flow", [{}, {"Omega": 1.5}, {"jet_order": "one_jet"}], ids=["two_jet", "rotating", "one_jet"])
    def test_attractor_computed_once_per_run(self, grid8, monkeypatch, flow, stride):
        # Every flow takes the one closed-form rule, the one-jet flow at amplitude 0 too; every
        # path records t = 0, every stride-th lattice time and the end, stride dividing nsteps or not.
        closed_form, counted = reduced_ode.equilibrium_closed_form, []

        def counting(*args):
            counted.append(args)
            return closed_form(*args)

        def snapshot_times(recs, nsteps):
            return [k * recs.dt for k in range(0, nsteps, stride)] + [nsteps * recs.dt]

        monkeypatch.setattr(reduced_ode, "equilibrium_closed_form", counting)
        omega0 = rand_field(8, seed=78, amplitude=0.4)
        recs = run(omega0, two_jet_cfg(t_end=0.05, dt=0.005, snapshot_stride=stride, **flow), grid8)
        assert [r.t for r in recs] == snapshot_times(recs, 10)
        assert len(counted) == 1
        # Under control the same attractor is also the one the steps are taken about.
        counted.clear()
        recs = run(omega0, two_jet_cfg(t_end=0.05, snapshot_stride=stride, **flow), grid8)
        assert [r.t for r in recs] == snapshot_times(recs, 16) and recs[-1].steps > 0
        assert len(counted) == 1
        counted.clear()
        recs, _ = run_with_coupling(omega0, two_jet_cfg(t_end=0.05, dt=0.005, snapshot_stride=stride, **flow), grid8)
        assert [r.t for r in recs] == snapshot_times(recs, 10)
        assert len(counted) == 1

    def test_grid_of_another_degree_rejected(self):
        # A run's field, cfg.N and grid share one degree; no run reads a finer grid.
        omega0 = rand_field(8, seed=77, amplitude=0.4)
        cfg = two_jet_cfg(t_end=0.01)
        for runner in (run, run_with_coupling):
            with pytest.raises(ValueError, match="grid degree 9 != configured N 8"):
                runner(omega0, cfg, build_grid(9))

    @pytest.mark.parametrize("Omega", [0.7, -1.3])
    def test_rotating_coupling_closes_the_frame_system(self, grid16, Omega):
        # Criterion 7 in a rotating frame: the couplings of the co-rotating
        # coefficients close the static system of rotating_frame_params.
        omega0 = rand_field(16, seed=303, amplitude=0.4, decay=0.5)
        nu = 1.0
        cfg = SolverConfig(nu=nu, amplitude=1.0, N=16, t_end=1.0 / nu, snapshot_stride=10_000, dt=1.0 / 2048, Omega=Omega)
        records, coupling = run_with_coupling(omega0, cfg, grid16)
        sys = build_system(rotating_frame_params(KillingParams.from_field(omega0), Omega), 1.0, nu)
        dt_ode = 2.0 * (coupling.times[1] - coupling.times[0])
        traj = propagate_forced(sys, omega0.mode2_vector(), coupling.M, coupling.f, dt_ode, cfg.t_end)
        final = records[-1].mode2 * np.conj(frame_phases(Omega, records[-1].t))  # co-rotating
        assert np.linalg.norm(traj[-1] - final) / np.linalg.norm(final) < 1e-5

    @pytest.mark.parametrize("a, seed", [(1.0, 303), (2.5, 71)])
    def test_one_jet_coupling_closes_the_shifted_system(self, grid16, a, seed):
        # Criterion 7 for the one-jet flow: its base flow is a rigid rotation at
        # r = (a/4) sqrt(3/pi), so the couplings close the system with b shifted by
        # 2r/3, no source and no two-jet row; the unshifted system misses the run.
        omega0 = rand_field(16, seed=seed, amplitude=0.4, decay=0.5)
        nu = 1.0
        cfg = SolverConfig(nu=nu, amplitude=a, N=16, t_end=1.0 / nu, snapshot_stride=10_000, dt=1.0 / 2048,
                           jet_order="one_jet")
        records, coupling = run_with_coupling(omega0, cfg, grid16)
        params = KillingParams.from_field(omega0)
        dt_ode = 2.0 * (coupling.times[1] - coupling.times[0])
        final = records[-1].mode2
        errors = []
        for rate in (cfg.flow[1], 0.0):
            sys = build_system(rotating_frame_params(params, rate), 0.0, nu)
            traj = propagate_forced(sys, omega0.mode2_vector(), coupling.M, coupling.f, dt_ode, cfg.t_end)
            errors.append(np.linalg.norm(traj[-1] - final) / np.linalg.norm(final))
        assert errors[0] < 1e-5 < 0.1 < errors[1]

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
    """run_with_coupling samples every lattice time of controlled steps and builds records the way run does."""

    def test_coupling_run_records_equal_run(self, grid8):
        # A given dt spaces the samples, not the steps: the records agree with a
        # fine fixed-step run, not bitwise with the fixed run at that dt.
        omega0 = rand_field(8, seed=81, amplitude=0.5, decay=0.4)
        cfg = two_jet_cfg(t_end=0.1, dt=0.01, snapshot_stride=3)
        recs, coupling = run_with_coupling(omega0, cfg, grid8)
        assert coupling.times.tolist() == [k * 0.01 for k in range(11)]  # bitwise
        assert [r.t for r in recs] == [k * 0.01 for k in (0, 3, 6, 9, 10)]
        plain = run(omega0, cfg, grid8)  # the same Trajectory: lattice spacing and attractor
        assert recs.dt == plain.dt == 0.01 and np.array_equal(recs.attractor, plain.attractor)
        assert recs[-1].steps < 10
        fine = run(omega0, two_jet_cfg(t_end=0.1, dt=0.01 / 16, snapshot_stride=3 * 16), grid8)
        assert len(fine) == len(recs)
        for got, want in zip(recs, fine):
            assert got.t == pytest.approx(want.t, rel=1e-14)
            for name in ("mode2", "mode1", "norm_eq1", "norm_eq2_dist", "norm_ge3"):
                a, b = getattr(got, name), getattr(want, name)
                assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), name

    @pytest.mark.parametrize("flow", ["two_jet", "one_jet", "rotating"])
    def test_coupling_run_without_dt_steps_on_the_lattice(self, grid8, flow):
        # The run samples every lattice time, so its steps are those of run with
        # snapshot_stride = 1; its records are that run's at every stride-th sample and the end,
        # bitwise, though they come from other batches: a few samples of each step against all of them.
        omega0 = rand_field(8, seed=82, amplitude=0.5, decay=0.4)
        cfg = two_jet_cfg(
            t_end=0.1, snapshot_stride=3,
            jet_order="one_jet" if flow == "one_jet" else "two_jet", Omega=1.5 if flow == "rotating" else 0.0,
        )
        nsteps, dt, _ = lattice(omega0, cfg, grid8)
        recs, coupling = run_with_coupling(omega0, cfg, grid8)
        assert coupling.times.tolist() == [k * dt for k in range(nsteps + 1)]  # bitwise
        assert coupling.M.shape == (nsteps + 1, 5, 5) and coupling.f.shape == (nsteps + 1, 5)
        every = run(omega0, replace(cfg, snapshot_stride=1), grid8)
        assert_same_records(recs, [r for k, r in enumerate(every) if k % 3 == 0 or k == nsteps])
        assert 0 < recs[-1].steps < nsteps

    def test_coupling_run_builds_the_linear_part_once(self, grid8):
        # The stepper and the coupling extraction read the same two-jet linear part.
        linear_part.cache_clear()
        run_with_coupling(rand_field(8, seed=84, amplitude=0.5, decay=0.4), two_jet_cfg(t_end=0.05), grid8)
        assert linear_part.cache_info().misses == 1

    def test_coupling_bench_configuration(self, grid16):
        # N = 16, nu = 1, t_end = 1/8 sampled at dt = 1/2048: a handful of
        # controlled steps give (M, f) at all 257 lattice times, against a
        # reference that takes one classic Lawson-RK4 step per lattice time.
        assert_couplings_match_fixed_steps(grid16, Omega=0.0)

    @pytest.mark.parametrize("Omega", [0.7, -1.3])
    def test_rotating_coupling_bench_configuration(self, grid16, Omega):
        # The same in a rotating frame: both sides read co-rotating states.
        assert_couplings_match_fixed_steps(grid16, Omega)

    def test_one_jet_coupling_bench_configuration(self, grid16):
        # The one-jet flow's couplings, its base flow stepped as a rotation.
        assert_couplings_match_fixed_steps(grid16, jet_order="one_jet")

    @pytest.mark.parametrize("flow", ["two_jet", "one_jet", "rotating"])
    def test_records_read_their_snapshot(self, grid8, flow):
        omega0 = rand_field(8, seed=83, amplitude=0.6, decay=0.4)
        for dt in (None, 0.01):  # controlled steps' batches, and the fixed steps' batches of one
            cfg = two_jet_cfg(
                t_end=0.2, dt=dt, snapshot_stride=3,
                jet_order="one_jet" if flow == "one_jet" else "two_jet", Omega=1.5 if flow == "rotating" else 0.0,
            )
            recs = run(omega0, cfg, grid8)
            states = snapshot_states(omega0, cfg, grid8)
            assert len(recs) == len(states) > 2
            for rec, (t, state) in zip(recs, states):
                # The states are co-rotating: degrees 1 and 2 are read turned back to the frame's coefficients.
                turned = SpectralField(state.coeffs * frame_phases(cfg.Omega, t, range(9))) if cfg.Omega else state
                assert rec.t == t
                assert rec.norm_eq1 == degree_norm(turned, 1)
                assert rec.norm_ge3 == highpass_norm(state, 3)
                assert np.array_equal(rec.mode1, mode1_vector(turned))
                assert np.array_equal(rec.mode2, turned.mode2_vector())


def assert_couplings_match_fixed_steps(grid16, Omega=0.0, jet_order="two_jet"):
    """coupling_n16's run of the flow: (M, f) at every lattice time within 1e-9 of classic steps of the lattice's dt."""
    omega0 = rand_field(16, seed=71, amplitude=0.4, decay=0.5)
    dt = 1.0 / 2048
    cfg = SolverConfig(nu=1.0, amplitude=1.0, N=16, t_end=0.125, dt=dt, snapshot_stride=10**9, jet_order=jet_order,
                       Omega=Omega)
    recs, coupling = run_with_coupling(omega0, cfg, grid16)
    assert recs[-1].steps <= 20
    nonlinear = Stepper(cfg, grid16, dt).nonlinear
    states = classic_states(nonlinear, lawson_rate(cfg), omega0, dt, 256)
    M_ref, f_ref = zip(*(reduced_ode.extract_coupling(state.coeffs, cfg.flow[0]) for state in states))
    assert coupling.times.tolist() == [k * dt for k in range(257)]  # bitwise
    for got, want in ((coupling.M, np.array(M_ref)), (coupling.f, np.array(f_ref))):
        axes = tuple(range(1, want.ndim))
        assert np.max(np.linalg.norm(got - want, axis=axes) / np.linalg.norm(want, axis=axes)) <= 1e-9


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
