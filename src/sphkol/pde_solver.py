"""Time integration of the nonlinear perturbation dynamics on the sphere.

Two-jet form:  d_t w = nu (Lap w + 2w) - (a/4) sqrt(5/pi) cos(theta) d_phi (I + 6 Lap^{-1}) w - u . grad w
One-jet form:  d_t w = nu (Lap w + 2w) - (a/4) sqrt(3/pi) d_phi (I + 2 Lap^{-1}) w - u . grad w

with u = n x grad Lap^{-1} w; a two-jet run in a frame rotating at Omega adds
the Coriolis term -2 Omega d_phi Lap^{-1} w and steps exp(-i m Omega t) w.  The
one-jet term has the same form at Omega = (a/4) sqrt(3/pi), so every flow is a
two-jet amplitude and a rotation rate, SolverConfig.flow.  The diffusion D and the skew diagonal S of operators.linear_part are integrated
exactly through an integrating factor (Lawson schemes); the rest N, the two-jet
term and the convection, rides on explicit Runge-Kutta stages, so zonal states
decay exactly and degree-1 states are fixed points of the discrete map up to round-off.

Snapshots sit on a lattice of default_dt (or the given dt) rounded to
t_end / nsteps, at every snapshot_stride-th lattice time and at the end.  run
with a given dt takes one classical Lawson-RK4 step per lattice time.  run with
dt = None, and run_with_coupling, which samples every lattice time, take
error-controlled Lawson steps of the Dormand-Prince 5(4) pair (Dormand & Prince
1980), FSAL, on the deviation v = w - w* from the paper's attractor
w* = w_1 + w_2^inf, static in co-rotating coefficients; its rate
G(v) = N(w* + v) + (D + S) w* vanishes at v = 0, so the scheme keeps the
attractor fixed.  These steps do not aim at lattice times: a lattice state
inside a step is read off the Lawson form of the continuous extension (Hairer,
Norsett & Wanner, Solving ODEs I, II.6), whose rows are built for a batch of a
step's samples at once, and only the last step is made to land on the end.
Both paths step m >= 0 coefficient arrays and yield batches (times, states,
steps, rejected), which _records turns into TrajectoryRecords.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import reduced_ode
from .harmonics import QuadratureGrid
from .operators import KillingParams, angular_derivatives, convection, inverse_laplacian, linear_part
from .sht import SpectralField, full_tables, mode2_entries

STEP_RTOL = 1e-11  # controlled steps: local error estimate / max(|w_n|, |w_n+1|)
MIN_STEP = 1e-14  # as a fraction of t_end: a controlled step below it is a failure
# A controlled step ends at most REACH / |D_N| past the first snapshot time it
# covers, so no dense-output factor e^{(theta - c_j) h D} exceeds e^REACH.
REACH = 6.0

# Dormand-Prince 5(4): nodes, stage rows (the last row is the fifth-order
# solution, FSAL), fifth- minus fourth-order weights, and the continuous
# extension b_j(theta) = sum_p DP_DENSE[p - 1, j] theta^p.
DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
_DP_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
    701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423,
])
_FIRST, _LAST = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
DP_DENSE = np.array([
    _FIRST,
    3.0 * DP_A[6] - 2.0 * _FIRST - _LAST + _DP_D,
    _FIRST + _LAST - 2.0 * DP_A[6] - 2.0 * _DP_D,
    _DP_D,
])
# c_i - c_j where a_ij can be nonzero, 0 above it, so that no factor overflows
_DP_LAG = np.array([[max(ci - cj, 0.0) for cj in DP_C] for ci in DP_C])


class IntegrationError(RuntimeError):
    """The time stepper produced a non-finite state or could not keep its error in bounds."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} (t = {t:.6g})")
        self.t = t


@dataclass
class SolverConfig:
    """Run parameters; dt spaces the snapshot lattice, and None selects default_dt and error control.

    run_with_coupling always steps under error control, whatever dt says.
    Omega is the rotation rate of the frame, defined for the two-jet flow.
    """

    nu: float
    amplitude: float
    N: int
    t_end: float
    dt: float | None = None
    snapshot_stride: int = 10
    jet_order: str = "two_jet"
    Omega: float = 0.0

    def __post_init__(self):
        for name in ("nu", "amplitude", "t_end", "Omega") + (() if self.dt is None else ("dt",)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        if not math.isfinite(self.nu) or self.nu <= 0:
            raise ValueError("viscosity must be positive and finite")
        if not math.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if not math.isfinite(self.t_end) or self.t_end <= 0:
            raise ValueError("t_end must be positive and finite")
        if self.dt is not None and not (0 < self.dt <= self.t_end):
            raise ValueError("dt must lie in (0, t_end]")
        for name in ("N", "snapshot_stride"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.jet_order not in ("one_jet", "two_jet"):
            raise ValueError(f"unknown jet_order {self.jet_order!r}")
        min_degree = 3 if self.jet_order == "two_jet" else 2
        if self.N < min_degree:
            raise ValueError(f"{self.jet_order} dynamics need N >= {min_degree}")
        if not math.isfinite(self.Omega):
            raise ValueError("Omega must be finite")
        if self.Omega != 0.0 and self.jet_order != "two_jet":
            raise ValueError("rotating dynamics are defined for the two-jet base flow")

    @property
    def flow(self) -> tuple[float, float]:
        """(two-jet amplitude, rotation rate about z) of the linear part: (0, (a/4) sqrt(3/pi)) for one-jet."""
        if self.jet_order == "one_jet":
            return 0.0, (self.amplitude / 4.0) * math.sqrt(3.0 / math.pi)
        return self.amplitude, self.Omega


@dataclass
class TrajectoryRecord:
    """Snapshot diagnostics: conserved part, degree-2 distance, high-degree norm.

    steps and rejected count the accepted and rejected steps taken up to t.
    Controlled steps (run with dt = None, and run_with_coupling) do not land
    on lattice times, so the count includes the step that covers t.
    """

    t: float
    norm_eq1: float
    norm_eq2_dist: float
    norm_ge3: float
    mode2: np.ndarray
    mode1: np.ndarray
    steps: int
    rejected: int


class Trajectory(list):
    """A run's TrajectoryRecords in time order, with its lattice spacing dt and its params and attractor (_frame)."""

    def __init__(self, records, dt: float, params: KillingParams, attractor: np.ndarray):
        super().__init__(records)
        self.dt = dt
        self.params = params
        self.attractor = attractor


@dataclass
class CouplingSeries:
    """Couplings (M, f) of the degree-2 block to the remainder, at every lattice time."""

    times: np.ndarray
    M: np.ndarray
    f: np.ndarray


def linear_diffusion_factors(N: int, nu: float) -> np.ndarray:
    """Per-degree coefficients nu (2 - n(n+1)) of the exactly-integrated part."""
    n = np.arange(N + 1, dtype=float)
    out = nu * (2.0 - n * (n + 1.0))
    out[0] = 0.0
    return out


def default_dt(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid) -> float:
    """min(0.1/(nu N^2), 0.5/(|v|_inf N)), from the initial condition only.

    The speed |v| = |grad psi| = sqrt(psi_theta^2 + psi_phi^2 / sin^2 theta),
    psi = Lap^{-1} w, is sampled on the grid.  Rounded to t_end / nsteps, it
    spaces the snapshot lattice and is the first trial step of a controlled
    run; it is not the step a controlled run keeps.
    """
    dt = 0.1 / (cfg.nu * cfg.N**2)
    psi_theta, psi_phi = angular_derivatives(inverse_laplacian(omega0).coeffs, grid)
    vmax = float(np.max(np.hypot(psi_theta, psi_phi / grid.sin_theta[:, None])))  # hypot: no overflow in the squares
    if vmax > 0.0:
        dt = min(dt, 0.5 / (vmax * cfg.N))
    return dt


class Stepper:
    """Lawson steps of size dt of m >= 0 coefficient arrays: classical RK4, or Dormand-Prince 5(4) attempts.

    The linear part comes from operators.linear_part, built once per configuration; its
    diagonal S rides on the diffusion's factors as a phase, none when S = 0 (skew is None).
    A controlled run gives about, the static w*, steps the deviation from it and sets dt
    before each attempt.  A stepper without about takes classical steps: only it builds
    their factors exp_half and exp_full, once, for the dt given, and no Dormand-Prince factor.
    """

    def __init__(self, cfg: SolverConfig, grid: QuadratureGrid, dt: float, about: np.ndarray | None = None):
        self.grid = grid
        self.N = cfg.N
        self.linear = linear_part(cfg.N, *cfg.flow)
        self.diffusion = linear_diffusion_factors(cfg.N, cfg.nu)[:, None]
        self.skew = self.linear.diagonal if self.linear.diagonal.any() else None
        rate = self.diffusion + self.linear.diagonal  # D + S
        self.about = about
        self.about_rate = None if about is None else rate * about  # the stages add it
        self.dt = dt
        if about is None:
            factor = self.diffusion if self.skew is None else rate
            self.exp_half = np.exp(factor * (dt / 2.0))
            self.exp_full = np.exp(factor * dt)

    @functools.cached_property
    def stages(self) -> np.ndarray:
        """v and k_1..k_7 of the last Dormand-Prince attempt, stacked along axis 1.

        Not a work array (sht module docstring) but the stepper's state: dense() reads it after step() returns.
        """
        return np.empty((self.N + 1, 8, self.N + 1), dtype=complex)

    def nonlinear(self, w: np.ndarray) -> np.ndarray:
        """The explicit rest of the rate at the m >= 0 half w: the degree-changing linear part and -u . grad w."""
        return self.linear.apply(w) - convection(SpectralField(w), self.grid).coeffs

    def step(self, u: np.ndarray, k1: np.ndarray | None = None):
        """One step of size dt of the m >= 0 coefficients u.

        Alone, the classic Lawson-RK4 step: returns the new coefficients.
        Given k1 = G(v) = nonlinear(w* + v) + (D + S) w*, one Lawson DP5(4)
        attempt on the deviation v = u: returns (v_new, w* + v_new, err,
        G(v_new)), err being the fifth-order solution minus the embedded
        fourth-order one, and G(v_new) the next attempt's k1 (FSAL).  It
        leaves v and the seven stage rates in stages for dense(), each k_j
        turned by exp(-c_j dt S).
        """
        if k1 is not None:
            return self._dormand_prince(u, k1)
        dt, e_half, e_full = self.dt, self.exp_half, self.exp_full
        k1 = self.nonlinear(u)
        u2 = e_half * (u + (dt / 2.0) * k1)
        k2 = self.nonlinear(u2)
        u3 = e_half * u + (dt / 2.0) * k2
        k3 = self.nonlinear(u3)
        u4 = e_full * u + dt * e_half * k3
        k4 = self.nonlinear(u4)
        return e_full * u + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)

    def _dormand_prince(self, v: np.ndarray, k1: np.ndarray):
        dt, stages = self.dt, self.stages
        stages[:, 0], stages[:, 1] = v, k1
        parts = stages.view(float)  # per degree, a real matmul by the rows below
        # Per degree n, row i maps [v, k_1..k_7] to stage i + 1: every factor is
        # e^{(c_i - c_j) dt D_n} with c_i >= c_j, so none exceeds 1.
        lag = np.exp(np.multiply.outer(self.diffusion[:, 0] * dt, _DP_LAG))  # (N+1, 7, 7)
        rows = np.concatenate([lag[:, :, :1], dt * DP_A * lag], axis=2)
        for i in range(1, 7):  # e^{(c_i - c_j) dt S}: k_j stored turned by -c_j dt, the sum by c_i dt
            u = self._turn((rows[:, i : i + 1, : i + 1] @ parts[:, : i + 1]).view(complex)[:, 0], DP_C[i] * dt)
            w = self.about + u
            k = self.nonlinear(w) + self.about_rate
            stages[:, i + 1] = self._turn(k, -DP_C[i] * dt)
        err_row = np.concatenate([np.zeros((self.N + 1, 1)), dt * DP_E * lag[:, 6]], axis=1)
        return u, w, self._turn((err_row[:, None, :] @ parts).view(complex)[:, 0], dt), k

    def _turn(self, x: np.ndarray, time: float) -> np.ndarray:
        """x times e^{time S}; x itself when S = 0."""
        return x if self.skew is None else x * np.exp(time * self.skew)

    def dense(self, t: float, times: list[float]) -> np.ndarray:
        """The deviations at times inside the last attempt, which starts at t, as one (len(times), N+1, N+1) array.

        At theta = (s - t) / dt it is e^{theta dt S} times
        e^{theta dt D} v + dt sum_j b_j(theta) e^{(theta - c_j) dt D} k_j.  The
        rows of that sum are built for all of times at once, and one broadcast
        (len(times), N+1, 1, 8) @ stages product forms every deviation: each
        sample's (1, 8) @ (8, 2(N+1)) products are those of its own read, so
        take them before the next attempt.  The caller bounds the number of
        times, and the factors with c_j > theta, which grow like
        e^{(1 - theta) dt |D|}.
        """
        theta = ((np.array(times) - t) / self.dt)[:, None, None]
        decay = self.diffusion * self.dt  # (N+1, 1)
        weights = theta * (DP_DENSE[0] + theta * (DP_DENSE[1] + theta * (DP_DENSE[2] + theta * DP_DENSE[3])))
        rows = np.concatenate([np.exp(theta * decay), self.dt * weights * np.exp(decay * (theta - DP_C))], axis=2)
        deviations = (rows[:, :, None, :] @ self.stages.view(float)).view(complex)[:, :, 0]
        return self._turn(deviations, theta * self.dt)


def _controlled(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid, attractor: np.ndarray,
                nsteps: int, dt: float, stride: int):
    """Yield (times, states, steps, rejected) at the _snapshots(nsteps, stride) times of the lattice (nsteps, dt).

    Each yield is a batch: times is a list of sample times and states the
    complex (len(times), N+1, N+1) array of their m >= 0 coefficients; t = 0
    is a batch of one, and every later batch is one dense read.
    Error-controlled Lawson DP5(4) steps about the static w* = w_1(0) plus the
    run's degree-2 attractor (see _frame), in co-rotating coefficients; the
    counts include the step that covers t.  A step is accepted when
    |err| <= STEP_RTOL max(|w_n|, |w_n+1|) (norms of the stored m >= 0 half).
    With e the ratio of the two, an accepted step h_n that follows another,
    h_{n-1} with e_{n-1} > 0, proposes Gustafsson's predictive trial
    h_n clip(0.9 e_n^(-1/5) (h_n / h_{n-1}) (e_{n-1} / e_n)^(1/5), 0.2, 10)
    (ACM TOMS 20, 1994); the first step, a zero error and every rejection
    propose h clip(0.9 e^(-1/5), 0.2, 10).  A non-finite trial is a rejection
    at the smallest factor.  A step ends at most REACH / |D_N| past the first
    pending sample time, and one shortened so leaves the controller its
    longer proposal.  The samples an accepted step covers are read off
    Stepper.dense up to 2(N+1) at a time, so one row build per batch; a
    sample the step ends on takes the new state, the batch's last row.
    """
    about = np.zeros_like(omega0.coeffs)
    about[1] = omega0.coeffs[1]
    about[2, :3] = attractor[2::-1]  # m = 0, 1, 2
    stepper = Stepper(cfg, grid, dt, about)
    sample_times = (k * dt for k in _snapshots(nsteps, stride))
    t_last = nsteps * dt
    yield [next(sample_times)], omega0.coeffs[None], 0, 0  # t = 0
    reach = REACH / -float(stepper.diffusion[-1, 0])
    batch = 2 * (cfg.N + 1)  # samples per dense() row build: its rows take no more room than stages
    v = omega0.coeffs - stepper.about
    k1 = stepper.nonlinear(omega0.coeffs) + stepper.about_rate
    w_norm = float(np.linalg.norm(omega0.coeffs))
    t, h = 0.0, stepper.dt
    accepted = rejected = 0
    last = None  # (h, e) of the attempt before, if it was accepted with e > 0
    pending = next(sample_times)
    while t < t_last:
        trial = min(h, pending + reach - t)
        lands = t + 1.01 * trial >= t_last and t_last <= pending + reach  # never leave a sliver before the end
        if lands:
            trial = t_last - t
        stepper.dt = trial
        v_new, w_new, err, k_new = stepper.step(v, k1)
        err_norm, new_norm = float(np.linalg.norm(err)), float(np.linalg.norm(w_new))
        tol = STEP_RTOL * max(w_norm, new_norm)
        # e = |err| / tol: infinite for a non-finite trial, 0 for an exact step (the zero state has tol = 0).
        ratio = math.inf if not math.isfinite(err_norm + tol) else (err_norm / tol if err_norm else 0.0)
        factor = 0.9 * ratio**-0.2 if ratio else math.inf
        if ratio > 1.0:
            rejected += 1
            last = None
            h = trial * max(0.2, factor)
            if h < MIN_STEP * cfg.t_end:
                raise IntegrationError(f"step size fell below {MIN_STEP:g} t_end", t)
            continue
        accepted += 1
        t_new = t_last if lands else t + trial
        while pending <= t_new:
            times = []
            while pending <= t_new and len(times) < batch:
                times.append(pending)
                pending = next(sample_times, math.inf)
            states = np.empty((len(times),) + w_new.shape, dtype=complex)
            read = len(times) - (times[-1] == t_new)
            if read:
                np.add(stepper.about, stepper.dense(t, times[:read]), out=states[:read])
            if read < len(times):  # the sample the step ends on
                states[-1] = w_new
            yield times, states, accepted, rejected
        if ratio and last:  # the error's trend over the last two steps
            factor *= (trial / last[0]) * (last[1] / ratio) ** 0.2
        factor = min(10.0, max(0.2, factor))
        h = max(h, trial * factor) if trial < h else trial * factor
        t, v, k1, w_norm = t_new, v_new, k_new, new_norm
        last = (trial, ratio) if ratio else None


def lattice(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid) -> tuple[int, float]:
    """(nsteps, dt) of the snapshot lattice: the given dt or default_dt, rounded to t_end / nsteps.

    It checks that omega0 and the grid both have degree cfg.N.
    """
    if omega0.N != cfg.N:
        raise ValueError(f"initial condition degree {omega0.N} != configured N {cfg.N}")
    if grid.N != cfg.N:
        raise ValueError(f"grid degree {grid.N} != configured N {cfg.N}")
    dt_req = cfg.dt if cfg.dt is not None else default_dt(omega0, cfg, grid)
    nsteps = max(1, math.ceil(cfg.t_end / dt_req - 1e-12))
    return nsteps, cfg.t_end / nsteps


def _snapshots(nsteps: int, stride: int):
    """The lattice indices a run records: 0, every stride-th one and nsteps, lazily (nsteps can be astronomical)."""
    return itertools.chain(range(0, nsteps, stride), [nsteps])


def _lattice_batches(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid, attractor: np.ndarray,
                     nsteps: int, dt: float):
    """Yield run's snapshot batches: _controlled's without a dt, else one classical Lawson-RK4 step per lattice
    time and a batch of one at each of _snapshots."""
    if cfg.dt is None:
        yield from _controlled(omega0, cfg, grid, attractor, nsteps, dt, cfg.snapshot_stride)
        return
    k, state, stepper = 0, omega0.coeffs, Stepper(cfg, grid, dt)
    for snapshot in _snapshots(nsteps, cfg.snapshot_stride):
        while k < snapshot:
            state, k = stepper.step(state), k + 1
            if not np.all(np.isfinite(state)):
                raise IntegrationError("state became non-finite", k * dt)
        yield [k * dt], state[None], k, 0


def _frame(omega0: SpectralField, cfg: SolverConfig) -> tuple[KillingParams, np.ndarray]:
    """A run's degree-1 data in its frame (rotating_frame_params at cfg.flow's rate) and its degree-2 attractor."""
    amplitude, rate = cfg.flow
    params = reduced_ode.rotating_frame_params(KillingParams.from_field(omega0), rate)
    return params, reduced_ode.equilibrium_closed_form(params, amplitude, cfg.nu)


def _records(cfg: SolverConfig, attractor: np.ndarray, times, states, steps, rejected) -> list:
    """Records of a batch of co-rotating snapshots off one stack of +-m tables, one frame_phases call turning degrees
    1 and 2 back; each norm is one np.linalg.norm call per table, so no record depends on its batch."""
    tables, N = full_tables(states), cfg.N
    mode2 = mode2_entries(tables)  # a view: the frame phases turn it too
    dists = [float(np.linalg.norm(row - attractor)) for row in mode2]
    if cfg.Omega:
        tables[:, 1:3] *= reduced_ode.frame_phases(cfg.Omega, np.array(times)[:, None, None], range(-N, N + 1))
    return [TrajectoryRecord(
        t=t,
        norm_eq1=float(np.linalg.norm(table[1])),
        norm_eq2_dist=dist,
        norm_ge3=float(np.linalg.norm(table[3:])),
        mode2=row.copy(),
        mode1=table[1, N - 1 : N + 2][::-1].copy(),  # m = 1, 0, -1
        steps=steps,
        rejected=rejected,
    ) for t, table, row, dist in zip(times, tables, mode2, dists)]


def run(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid) -> Trajectory:
    """Integrate to t_end; trajectory records at snapshot_stride intervals plus the endpoint."""
    params, attractor = _frame(omega0, cfg)
    nsteps, dt = lattice(omega0, cfg, grid)
    batches = _lattice_batches(omega0, cfg, grid, attractor, nsteps, dt)
    records = [record for batch in batches for record in _records(cfg, attractor, *batch)]
    return Trajectory(records, dt, params, attractor)


def run_with_coupling(omega0: SpectralField, cfg: SolverConfig, grid: QuadratureGrid) -> tuple[Trajectory, CouplingSeries]:
    """As run() under error control, also extracting the (M, f) couplings at every lattice time, t = 0 included.

    cfg.dt (or default_dt), rounded as lattice() rounds it, spaces these
    samples, not the steps; each is read off the steps' dense output, and each
    dense read's batch goes through one extract_coupling call.  Records are
    kept at every snapshot_stride-th sample and at the end.  With
    (amplitude, rate) = cfg.flow the couplings of the stepped (in a rotating
    frame co-rotating) coefficients close
    build_system(rotating_frame_params(params, rate), amplitude, nu).
    """
    params, attractor = _frame(omega0, cfg)
    amplitude = cfg.flow[0]
    records, times, Ms, fs = [], [], [], []
    nsteps, dt = lattice(omega0, cfg, grid)
    snapshots = _snapshots(nsteps, cfg.snapshot_stride)
    pending = next(snapshots)
    for batch, states, steps, rejected in _controlled(omega0, cfg, grid, attractor, nsteps, dt, 1):
        M, f = reduced_ode.extract_coupling(states, amplitude)
        Ms.append(M)
        fs.append(f)
        keep = []  # batch[i] has lattice index len(times) + i
        while pending < len(times) + len(batch):
            keep.append(pending - len(times))
            pending = next(snapshots, math.inf)
        if keep:
            records += _records(cfg, attractor, [batch[i] for i in keep], states[keep], steps, rejected)
        times += batch
    coupling = CouplingSeries(times=np.array(times), M=np.concatenate(Ms), f=np.concatenate(fs))
    return Trajectory(records, dt, params, attractor), coupling
