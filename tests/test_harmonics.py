import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refimpl import plm_reference, sphere_integral_simpson, ynm_reference
from sphkol.harmonics import build_grid, gauss_legendre, legendre_table, recurrence_table
from sphkol.oracles import integrate


def pbar(n, m, s):
    """Pbar_n^m(s), m >= 0, read off legendre_table at the single point s."""
    return legendre_table(n, np.array([s]))[m, n, 0]


def normalization(n, m):
    """sqrt((2n+1)/(4 pi) (n-m)!/(n+m)!), the factor between Pbar_n^m and P_n^m."""
    return math.sqrt((2 * n + 1) / (4.0 * math.pi) * math.factorial(n - m) / math.factorial(n + m))


def scalar_a(n, m):
    """a_n^m as the scalar formula the recurrence table replaced."""
    return math.sqrt((n - m) * (n + m) / ((2.0 * n - 1.0) * (2.0 * n + 1.0)))


def scalar_plm_loop(N, s):
    """The per-(m, n) scalar loop legendre_table replaced, kept as the byte-level reference."""
    table = np.zeros((N + 1, N + 1, s.size))
    sin_t = np.sqrt(np.clip(1.0 - s * s, 0.0, None))
    table[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, N + 1):
        table[m, m] = -math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_t * table[m - 1, m - 1]
    for m in range(N + 1):
        for n in range(m + 1, N + 1):
            num = s * table[m, n - 1]
            if n - 2 >= m:
                num = num - scalar_a(n - 1, m) * table[m, n - 2]
            table[m, n] = num / scalar_a(n, m)
    return table


def scalar_dplm_loop(N, s, plm):
    """The per-(m, n) scalar loop QuadratureGrid.dplm_dtheta replaced."""
    sin_t = np.sqrt(1.0 - s * s)
    deriv = np.zeros_like(plm)
    for m in range(N + 1):
        for n in range(m, N + 1):
            lower = plm[m, n - 1] if n - 1 >= m else 0.0
            a_n = scalar_a(n, m) if n >= 1 else 0.0
            deriv[m, n] = (n * s * plm[m, n] - (2.0 * n + 1.0) * a_n * lower) / sin_t
    return deriv


@pytest.mark.parametrize("N", [2, 3, 16, 64, 128])
class TestTablesMatchScalarLoops:
    """The array-built tables reproduce the scalar per-(m, n) loops byte for byte, signed zeros included."""

    def test_recurrence_table(self, N):
        want = np.zeros((N + 1, N + 1))
        for n in range(1, N + 1):
            for m in range(n + 1):
                want[n, m] = scalar_a(n, m)
        assert recurrence_table(N).tobytes() == want.tobytes()

    def test_legendre_and_derivative_tables(self, N):
        grid = build_grid(N)
        plm = scalar_plm_loop(N, grid.cos_theta)
        assert grid.plm.tobytes() == plm.tobytes()
        assert grid.dplm_dtheta.tobytes() == scalar_dplm_loop(N, grid.cos_theta, plm).tobytes()


class TestEvalPlm:
    """Point values of legendre_table against closed forms and the Rodrigues formula."""

    def test_first_degree_is_identity(self):
        assert pbar(1, 0, 0.5) / normalization(1, 0) == pytest.approx(0.5, abs=1e-15)

    def test_degree_two_values(self):
        # P_2^0 = (3s^2-1)/2, P_2^1 = -3 s sqrt(1-s^2)
        assert pbar(2, 0, 0.0) / normalization(2, 0) == pytest.approx(-0.5, abs=1e-15)
        assert pbar(2, 1, 0.0) / normalization(2, 1) == pytest.approx(0.0, abs=1e-15)
        assert pbar(2, 1, 0.6) / normalization(2, 1) == pytest.approx(-1.44, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=12),
        frac=st.floats(min_value=-0.98, max_value=0.98),
        data=st.data(),
    )
    def test_matches_rodrigues_form(self, n, frac, data):
        m = data.draw(st.integers(min_value=0, max_value=n))
        got = pbar(n, m, frac) / normalization(n, m)
        want = plm_reference(n, m, frac)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_domain_errors(self):
        # Entries with m > n are zero, and the poles s = +-1 give finite values.
        table = legendre_table(6, np.array([-1.0, -0.3, 0.0, 1.0]))
        assert np.all(np.isfinite(table))
        for m in range(7):
            assert np.all(table[m, :m] == 0.0)


class TestEvalYnm:
    """Y_n^m = Pbar_n^m(cos theta) exp(i m phi), m >= 0, from legendre_table."""

    def test_zonal_closed_forms(self):
        theta = np.linspace(0.05, math.pi - 0.05, 9)
        table = legendre_table(2, np.cos(theta))
        want20 = 0.25 * math.sqrt(5.0 / math.pi) * (3.0 * np.cos(theta) ** 2 - 1.0)
        want10 = 0.5 * math.sqrt(3.0 / math.pi) * np.cos(theta)
        assert table[0, 2] == pytest.approx(want20, abs=1e-14)
        assert table[0, 1] == pytest.approx(want10, abs=1e-14)

    def test_sectoral_value_on_equator(self):
        want = 0.25 * math.sqrt(15.0 / (2.0 * math.pi))
        assert pbar(2, 2, math.cos(math.pi / 2)) == pytest.approx(want, abs=1e-14)

    def test_poles_are_regular(self):
        assert pbar(3, 2, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert pbar(3, 0, 1.0) == pytest.approx(math.sqrt(7.0 / (4.0 * math.pi)), abs=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=9),
        theta=st.floats(min_value=0.01, max_value=math.pi - 0.01),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
        data=st.data(),
    )
    def test_matches_reference(self, n, theta, phi, data):
        m = data.draw(st.integers(min_value=0, max_value=n))
        got = pbar(n, m, math.cos(theta)) * complex(math.cos(m * phi), math.sin(m * phi))
        want = complex(ynm_reference(n, m, theta, phi))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)


class TestRecurrenceCoeff:
    """Entries of recurrence_table."""

    def test_values(self):
        a = recurrence_table(3)
        assert a[1, 0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-15)
        assert a[3, 1] == pytest.approx(math.sqrt(8.0 / 35.0), abs=1e-15)

    def test_sectoral_vanishes(self):
        a = recurrence_table(9)
        for n in (1, 4, 9):
            assert a[n, n] == 0.0

    def test_domain_error(self):
        # Outside 0 <= m < n the table holds zeros; it is cached and read-only.
        a = recurrence_table(5)
        assert np.all(a[0] == 0.0)
        assert np.all(np.triu(a) == 0.0)
        assert recurrence_table(5) is a
        with pytest.raises(ValueError):
            a[2, 1] = 1.0


class TestGaussLegendre:
    def test_matches_numpy(self):
        for n in (5, 24, 49):
            x, w = gauss_legendre(n)
            xr, wr = np.polynomial.legendre.leggauss(n)
            assert np.max(np.abs(np.sort(x) - np.sort(xr))) < 1e-13
            assert np.max(np.abs(w - wr[np.argsort(xr)])) < 1e-13

    def test_polynomial_exactness(self):
        x, w = gauss_legendre(8)
        for p in range(0, 16):
            exact = 0.0 if p % 2 else 2.0 / (p + 1)
            assert np.dot(w, x**p) == pytest.approx(exact, abs=1e-14)


class TestGrid:
    def test_sizes_and_interior(self):
        grid = build_grid(2)
        assert grid.n_theta >= 5
        assert grid.n_phi >= 7
        assert np.all(grid.theta_nodes > 0.0) and np.all(grid.theta_nodes < math.pi)
        assert np.all(np.diff(grid.theta_nodes) > 0)

    def test_weights_integrate_dcos(self, grid16):
        assert abs(grid16.theta_weights.sum() - 2.0) < 1e-14 * 2.0

    def test_one_shared_read_only_grid_per_degree(self):
        grid = build_grid(12)
        assert build_grid(12) is grid and build_grid(13) is not grid
        for name in ("theta_nodes", "theta_weights", "phi_nodes", "cos_theta", "sin_theta", "inv_sin_theta",
                     "analysis_weights", "fourier_synthesis", "fourier_analysis", "plm", "dplm_dtheta"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(grid, name)[0] = 1.0

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            build_grid(1)

    def test_surface_area(self, grid16):
        ones = np.ones((grid16.n_theta, grid16.n_phi))
        assert integrate(grid16, ones) == pytest.approx(4.0 * math.pi, rel=1e-13)

    def test_harmonic_norm_vs_simpson(self, grid16):
        theta = grid16.theta_nodes[:, None]
        phi = grid16.phi_nodes[None, :]
        samples = np.abs(ynm_reference(3, 2, theta, phi)) ** 2
        got = integrate(grid16, samples)
        want = sphere_integral_simpson(lambda t, p: np.abs(ynm_reference(3, 2, t, p)) ** 2)
        assert got == pytest.approx(1.0, abs=1e-13)
        assert got == pytest.approx(want, abs=1e-10)
