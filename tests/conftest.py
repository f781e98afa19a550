import numpy as np
import pytest

from sphkol import operators, pde_solver, reduced_ode, sht
from sphkol.harmonics import build_grid
from sphkol.sht import SpectralField, random_real_field


@pytest.fixture(scope="session")
def grid8():
    return build_grid(8)


@pytest.fixture(scope="session")
def grid12():
    return build_grid(12)


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16)


@pytest.fixture(scope="session")
def grid32():
    return build_grid(32)


@pytest.fixture
def scratch_arrays(monkeypatch):
    """Every work array handed out by sht._scratch during the test, by its (role, shape, dtype) key.

    The recording wrapper replaces _scratch in each module that calls it and
    keeps the cache's cache_info, so sht._scratch.cache_info() reads the cache.
    """
    cached, work = sht._scratch, {}

    def recording(*key):
        work[key] = cached(*key)
        return work[key]

    recording.cache_info = cached.cache_info
    for module in (sht, operators, reduced_ode):
        monkeypatch.setattr(module, "_scratch", recording)
    return work


def rand_field(N, seed, amplitude=1.0, decay=0.5, degrees=None):
    return random_real_field(N, np.random.default_rng(seed), amplitude=amplitude, decay=decay, degrees=degrees)


def snapshot_states(omega0, cfg, grid):
    """(t, SpectralField) at each snapshot time of the run of cfg, read from the batches that run reads."""
    (_, attractor), lattice = pde_solver._frame(omega0, cfg), pde_solver.lattice(omega0, cfg, grid)
    batches = pde_solver._lattice_batches(omega0, cfg, grid, attractor, *lattice)
    return [(t, SpectralField(state)) for times, states, _, _ in batches for t, state in zip(times, states)]


def select_degree(u, n):
    """Projection u_{=n}: keep only the degree-n row."""
    out = SpectralField.zeros(u.N)
    out.coeffs[n] = u.coeffs[n]
    return out


def highpass(u, n_min):
    """Projection u_{>=n_min}."""
    out = SpectralField.zeros(u.N)
    out.coeffs[n_min:] = u.coeffs[n_min:]
    return out


def degree_norm(u, n):
    return float(np.linalg.norm(u.full_table()[n]))


def highpass_norm(u, n_min):
    return float(np.linalg.norm(u.full_table()[n_min:]))


def mode1_vector(u):
    """Degree-1 coefficients ordered (m=1, 0, -1)."""
    return u.full_table()[1, u.N - 1 : u.N + 2][::-1].copy()


def assert_real_field_layout(u):
    """Row 0 (the mean mode) and the entries with m > n are exactly zero, column 0 exactly real."""
    assert np.all(u.coeffs[0] == 0.0)
    assert np.all(np.triu(u.coeffs, 1) == 0.0)
    assert np.all(u.coeffs[:, 0].imag == 0.0)
