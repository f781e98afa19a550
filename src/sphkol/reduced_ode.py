"""The five-mode system governing the degree-2 coefficients.

With the nondissipative degree-1 data frozen into (alpha, b), the degree-2
coefficient vector w = (w_2^2, ..., w_2^{-2}) obeys

    dw/dt = -(4 nu I + i A + M(t)) w + f(t) + c,

where A is a constant Hermitian coupling matrix, c a constant source, and
M(t), f(t) integral couplings to the degree >= 3 remainder that vanish when
that remainder does; both read one table of adjacent-degree interactions.
The equilibrium (4 nu I + i A)^{-1} c also has a closed form; both routes
are implemented, and sphkol.cli cross-checks and reports them.  The exact
unforced propagator, which only the checks use, is in sphkol.oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .harmonics import _read_only, build_grid
from .operators import KillingParams, linear_part
from .sht import full_tables

MODE2_ORDER = (2, 1, 0, -1, -2)
SQRT6 = math.sqrt(6.0)


@dataclass(frozen=True)
class ReducedSystem:
    """Constant part of the degree-2 dynamics: Hermitian A, source c, viscosity."""

    A: np.ndarray
    c: np.ndarray
    nu: float

    @cached_property
    def operator(self) -> np.ndarray:
        """The constant linear operator 4 nu I + i A, so that dw/dt = -operator w + c unforced."""
        return 4.0 * self.nu * np.eye(5, dtype=complex) + 1j * self.A


def _degree2_generator(diagonal, upper, lower) -> np.ndarray:
    """5x5 matrix of a rotation generator on the degree-2 span, rows/cols m = 2..-2.

    Every such generator has this shape: m * diagonal on the diagonal, and
    upper * s_k and lower * s_k on the super- and subdiagonal, with
    s = (1, sqrt(6)/2, sqrt(6)/2, 1).
    """
    s = np.array([1.0, SQRT6 / 2.0, SQRT6 / 2.0, 1.0])
    orders = np.array(MODE2_ORDER, dtype=float)
    return np.diag(orders * diagonal) + np.diag(s * upper, 1) + np.diag(s * lower, -1)


def _check_flow_parameters(amplitude: float, nu: float) -> None:
    if not (math.isfinite(nu) and nu > 0):
        raise ValueError(f"nu must be positive and finite, got {nu!r}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude!r}")


def build_system(params: KillingParams, amplitude: float, nu: float) -> ReducedSystem:
    """Assemble A and c from the degree-1 data.

    A is the degree-2 rotation by the Killing field of the degree-1 data,
    A = -(2i/3) oracles.killing_degree2_matrix(params.axis), built from
    (alpha, b) directly so that no rounding of the axis enters it.
    """
    _check_flow_parameters(amplitude, nu)
    alpha, b = complex(params.alpha), float(params.b)
    A = _degree2_generator(b, -2.0 * alpha, np.conj(-2.0 * alpha))
    c = SQRT6 * 1j * amplitude * np.array([0.0, alpha, 0.0, np.conj(alpha), 0.0])
    return ReducedSystem(A=A, c=c, nu=nu)


def equilibrium_solve(sys: ReducedSystem) -> np.ndarray:
    """Equilibrium as the direct linear solve (4 nu I + i A) w = c."""
    w = np.linalg.solve(sys.operator, sys.c)
    resid = np.linalg.norm(sys.operator @ w - sys.c)
    scale = np.linalg.norm(sys.c)
    if scale > 0 and resid > 1e-12 * scale:
        raise ArithmeticError(f"equilibrium solve residual {resid:.3e} exceeds tolerance")
    return w


def equilibrium_closed_form(params: KillingParams, amplitude: float, nu: float) -> np.ndarray:
    """Equilibrium from the explicit formulas in terms of (alpha, b, a, nu)."""
    _check_flow_parameters(amplitude, nu)
    alpha, b = complex(params.alpha), float(params.b)
    a = float(amplitude)
    aa = abs(alpha) ** 2
    w0 = -12.0 * a * aa * (4.0 * nu**2 + aa + b**2) / (
        (4.0 * nu**2 + 4.0 * aa + b**2) * (16.0 * nu**2 + 4.0 * aa + b**2)
    )
    z1 = 4.0 * nu + 1j * b
    z2 = 4.0 * nu + 2j * b
    w1 = SQRT6 * 1j * alpha * z2 / (4.0 * aa + z1 * z2) * (w0 + a)
    w2 = 2j * alpha / z2 * w1
    return np.array([w2, w1, w0, -np.conj(w1), np.conj(w2)], dtype=complex)


def rotating_frame_params(params: KillingParams, Omega: float) -> KillingParams:
    """Degree-1 data with a rigid rotation about z at rate Omega added: b -> b + 2 Omega / 3.

    The rotation is a frame's, whose attractor pde_solver steps in co-rotating
    coefficients (frame_phases turns them back), or the one-jet flow's.
    """
    if not math.isfinite(Omega):
        raise ValueError("Omega must be finite")
    return KillingParams(alpha=params.alpha, b=params.b + 2.0 * Omega / 3.0)


def frame_phases(Omega: float, t: float | np.ndarray, orders=MODE2_ORDER) -> np.ndarray:
    """exp(i m Omega t) for the orders m, by default the degree-2 ones in MODE2_ORDER: co-rotating to frame coefficients.

    An array t of shape (k, 1) gives the (k, len(orders)) phases of k times at once.
    """
    return np.exp(1j * Omega * t * np.array(orders, dtype=float))


def propagate_forced(
    sys: ReducedSystem,
    w0: np.ndarray,
    M_series: np.ndarray,
    f_series: np.ndarray,
    dt: float,
    t_end: float,
) -> np.ndarray:
    """RK4 integration of the nonautonomous system with sampled couplings.

    M_series and f_series must be sampled on the half-step lattice of the
    integrator: spacing dt/2, covering [0, t_end], so 2 * nsteps + 1 samples;
    dt must be positive and t_end non-negative, both finite.  Each sample's
    rate -(operator + M) is formed once, one step at a time, so no array of
    them is held.  Returns the trajectory at the integer steps, shape (nsteps + 1, 5).
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be non-negative and finite, got {t_end!r}")
    nsteps = int(round(t_end / dt))
    if abs(nsteps * dt - t_end) > 1e-12 * max(1.0, abs(t_end)):
        raise ValueError("t_end must be an integer multiple of dt")
    M_series = np.asarray(M_series, dtype=complex)
    f_series = np.asarray(f_series, dtype=complex)
    expected = 2 * nsteps + 1
    if M_series.shape != (expected, 5, 5) or f_series.shape != (expected, 5):
        raise ValueError(
            f"coupling series must hold {expected} half-step samples; "
            f"got M {M_series.shape}, f {f_series.shape}"
        )
    operator, c = sys.operator, sys.c
    out = np.empty((nsteps + 1, 5), dtype=complex)
    w = np.asarray(w0, dtype=complex).copy()
    out[0] = w
    start = -(operator + M_series[0])
    for k in range(nsteps):
        i0, i1, i2 = 2 * k, 2 * k + 1, 2 * k + 2
        mid, end = -(operator + M_series[i1]), -(operator + M_series[i2])
        k1 = start @ w + f_series[i0] + c
        k2 = mid @ (w + 0.5 * dt * k1) + f_series[i1] + c
        k3 = mid @ (w + 0.5 * dt * k2) + f_series[i1] + c
        k4 = end @ (w + dt * k3) + f_series[i2] + c
        w = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = w
        start = end
    return out


@lru_cache(maxsize=None)
def adjacent_degree_table(N: int) -> np.ndarray:
    """T[n-2, i, N+m] = c_n (J(Y_n^m, Y_{n+1}^{mu-m}), Y_2^mu), mu = MODE2_ORDER[i], n = 2..N-1.

    J(A, B) = (A_theta B_phi - A_phi B_theta) / sin(theta), and u . grad w = J(Lap^{-1} w, w).
    The degree-2 row of J(Y_a, Y_b) vanishes unless |a - b| = 1 (parity and
    the triangle rule); c_n = 1/((n+1)(n+2)) - 1/(n(n+1)) folds in both
    orderings of the stream function.  The phi integral only selects the
    order sum mu, so each entry is one latitude quadrature on the degree-N grid,
    with the orders past each degree zeroed by rows().  Cached per N, read-only.
    """
    grid = build_grid(N)

    def rows(table, orders, n):  # Pbar_n^{-k} = (-1)^k Pbar_n^k, and 0 for |k| > n
        k = np.abs(orders)
        return np.where(k > n, 0.0, (-1.0) ** np.minimum(orders, 0))[..., None] * table[np.minimum(k, n), n]

    mu = np.array(MODE2_ORDER)
    # The d(cos theta) weights take J's 1/sin(theta) and the phi integral's 2 pi.
    y2 = rows(grid.plm, mu, 2)[:, None, :] * (2.0 * math.pi * grid.theta_weights / grid.sin_theta)
    table = np.zeros((N - 2, 5, 2 * N + 1), dtype=complex)
    for n in range(2, N):
        m = np.arange(-n, n + 1)
        partner = mu[:, None] - m[None, :]
        low, low_theta = rows(grid.plm, m, n), rows(grid.dplm_dtheta, m, n)
        high, high_theta = rows(grid.plm, partner, n + 1), rows(grid.dplm_dtheta, partner, n + 1)
        jacobian = partner[..., None] * low_theta * high - m[:, None] * low * high_theta
        c = 1.0 / ((n + 1.0) * (n + 2.0)) - 1.0 / (n * (n + 1.0))
        table[n - 2, :, N - n : N + n + 1] = 1j * c * np.sum(jacobian * y2, axis=-1)
    return _read_only(table)


# extract_coupling contracts a stack in chunks whose gathered G takes at most this
# many bytes (one sample when a single one takes more, from N = 71 on).
COUPLING_CHUNK_BYTES = 768 * 1024


@lru_cache(maxsize=None)
def _coupling_gather(N: int) -> tuple[np.ndarray, np.ndarray]:
    """extract_coupling's indices: the flat index of each w_{n+1}^{mu-m}, n = 2..N-1, in its padded table, and the column of each mu."""
    mu = np.array(MODE2_ORDER)
    partner = N + 2 + mu[:, None] - np.arange(-N, N + 1)[None, :]
    return _read_only(np.arange(3, N + 1)[:, None, None] * (2 * N + 5) + partner), _read_only(N + mu)


@lru_cache(maxsize=None)
def _coupling_buffers(N: int) -> tuple[np.ndarray, np.ndarray]:
    """extract_coupling's buffers for one chunk at degree N >= 3: the padded +-m tables, zero outside them, and G.

    A chunk holds as many samples as keep G within COUPLING_CHUNK_BYTES, at
    least one.  The buffers are owned here per N, so a call writes into the
    same pages each time: fresh blocks of G's size are mapped anew per call,
    and their page faults cost more than the contraction.  No result refers
    to them; extract_coupling is not reentrant.
    """
    shape = _coupling_gather(N)[0].shape
    chunk = max(1, COUPLING_CHUNK_BYTES // (math.prod(shape) * np.dtype(complex).itemsize))
    return np.zeros((chunk, N + 1, 2 * N + 5), dtype=complex), np.empty((chunk,) + shape, dtype=complex)


def extract_coupling(halves: np.ndarray, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    """Couplings (M, f) of the degree-2 block to w_{>=3}, read off G = T w_{n+1}^{mu-m} without a transform.

    halves holds m >= 0 coefficients, shape (..., N+1, N+1): one state or a
    stack; M has shape (..., 5, 5) and f (..., 5).  T is the
    adjacent_degree_table.  M_{mu,k} = G[0, i, N+k], since w_2 meets only w_3;
    f is the degree-2 row of the two-jet linear part at amplitude on
    h = w_{>=3} minus the transport sum_{n >= 3, m} G[n-2, i, N+m] w_n^m.
    That row is down[3] w_3, as only degree 3 couples down to degree 2; its
    m < 0 entries are the mirrors (-1)^m conj of the m > 0 ones.  Both
    vanish identically when w_{>=3} = 0.  A rigid rotation enters no coupling:
    it shifts b (rotating_frame_params); a one-jet run passes amplitude 0.
    A stack is contracted one chunk of samples at a time in buffers this
    module owns per N (so the call is not reentrant), the sample axis
    leading every array, so each sample's sums run as for one state and its
    (M, f) is bitwise that of its own call.
    """
    lead, N = halves.shape[:-2], halves.shape[-1] - 1
    if N < 3:
        return np.zeros(lead + (5, 5), dtype=complex), np.zeros(lead + (5,), dtype=complex)
    gather, columns = _coupling_gather(N)
    table, (padded_chunk, G_chunk) = adjacent_degree_table(N), _coupling_buffers(N)
    stack = halves.reshape(-1, N + 1, N + 1)
    M, transport = np.empty((len(stack), 5, 5), dtype=complex), np.empty((len(stack), 5), dtype=complex)
    for start in range(0, len(stack), len(G_chunk)):
        half = stack[start : start + len(G_chunk)]
        chunk = slice(start, start + len(half))
        # The +-m tables between two zero orders on each side, so w_{n+1}^{mu-m} sits at column partner.
        padded, G = padded_chunk[: len(half)], G_chunk[: len(half)]
        w = full_tables(half, out=padded[:, :, 2:-2])
        # padded[:, 3:, partner], n = 2..N-1; the indices are in range, and mode="clip" writes to G unbuffered.
        padded.reshape(len(half), -1).take(gather, axis=1, out=G, mode="clip")
        np.multiply(table, G, out=G)
        transport[chunk] = np.einsum("...nim,...nm->...i", G[:, 1:], w[:, 3:N])
        M[chunk] = G[:, 0][:, :, columns]
    linear = linear_part(N, amplitude, 0.0).down[3, :3] * stack[:, 3, :3]  # m = 0, 1, 2
    f = full_tables(linear)[:, ::-1] - transport  # m = 2..-2
    return M.reshape(lead + (5, 5)), f.reshape(lead + (5,))
