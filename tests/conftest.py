import numpy as np
import pytest

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


def rand_field(N, seed, amplitude=1.0, decay=0.5, degrees=None):
    return random_real_field(N, np.random.default_rng(seed), amplitude=amplitude, decay=decay, degrees=degrees)


def select_degree(u, n):
    """Projection u_{=n}: keep only the degree-n row."""
    out = SpectralField.zeros(u.N)
    out.coeffs[n] = u.coeffs[n]
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
