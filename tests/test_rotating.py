import dataclasses
import math

import numpy as np
import pytest

from conftest import rand_field, snapshot_states
from refimpl import ynm_reference
from sphkol.cli import run_manifest
from sphkol.operators import KillingParams, linear_part
from sphkol.oracles import frame_map, integrate, synthesize_complex
from sphkol.pde_solver import SolverConfig, run
from sphkol.reduced_ode import equilibrium_closed_form, frame_phases, rotating_frame_params
from sphkol.sht import SpectralField, synthesize


def single(N, n, m, value=1.0):
    u = SpectralField.zeros(N)
    u[n, m] = value
    return u


def coriolis_term(zeta, Omega):
    """-2 Omega d_phi Lap^{-1} zeta: the skew diagonal of a rotating two-jet run, plus the frame rate i m Omega it takes off."""
    skew = linear_part(zeta.N, 0.0, Omega).diagonal
    return SpectralField((skew + 1j * Omega * np.arange(zeta.N + 1)) * zeta.coeffs)


def lab_state(state, Omega, t):
    """A co-rotating snapshot state turned back to the frame's coefficients."""
    return SpectralField(state.coeffs * frame_phases(Omega, t, range(state.N + 1)))


def rotating_attractor(params, amplitude, nu, Omega, t):
    """The degree-2 attractor in a frame rotating at Omega at time t, composed as pde_solver.run composes it."""
    return equilibrium_closed_form(rotating_frame_params(params, Omega), amplitude, nu) * frame_phases(Omega, t)


def run_in_frame(zeta0, cfg, grid, Omega):
    """The run of cfg in a frame rotating at Omega."""
    return run(zeta0, dataclasses.replace(cfg, Omega=Omega), grid)


class TestCoriolisTerm:
    def test_degree_one_mode(self):
        out = coriolis_term(single(6, 1, 1), 1.0)
        assert out[1, 1] == pytest.approx(1j, abs=1e-15)

    def test_zonal_kernel(self):
        zeta = single(6, 3, 0, 2.0)
        zeta[5, 0] = -1.0
        assert np.max(np.abs(coriolis_term(zeta, 3.0).coeffs)) == 0.0

    def test_zero_rotation(self):
        assert np.max(np.abs(coriolis_term(rand_field(6, seed=1), 0.0).coeffs)) == 0.0

    def test_energy_neutrality_by_quadrature(self, grid8):
        zeta = rand_field(8, seed=44)
        term = coriolis_term(zeta, 2.0)
        vals_term = synthesize_complex(term.full_table(), grid8).real
        vals_zeta = synthesize(zeta, grid8).values
        assert abs(integrate(grid8, vals_term * vals_zeta)) < 1e-10


class TestFrameMap:
    def test_time_zero_adds_rigid_rotation_mode(self):
        zeta = rand_field(6, seed=3)
        out = frame_map(zeta, 2.0, 0.0)
        shift = 4.0 * math.sqrt(math.pi / 3.0) * 2.0
        assert out[1, 0] == pytest.approx(zeta[1, 0] + shift, abs=1e-13)
        diff = out.coeffs - zeta.coeffs
        diff[1, 0] = 0.0
        assert np.max(np.abs(diff)) == 0.0

    def test_zero_rotation_is_identity(self):
        zeta = rand_field(6, seed=4)
        out = frame_map(zeta, 0.0, 1.7)
        assert np.array_equal(out.coeffs, zeta.coeffs)

    def test_pointwise_longitude_shift(self, grid12):
        # synthesize(frame_map(zeta))(theta, phi) = synthesize(zeta)(theta, phi - Omega t) + 2 Omega cos(theta)
        zeta = rand_field(12, seed=5)
        Omega, t = 1.3, 0.81
        mapped_vals = synthesize(frame_map(zeta, Omega, t), grid12).values
        rng = np.random.default_rng(6)
        for _ in range(3):
            j = int(rng.integers(0, grid12.n_theta))
            k = int(rng.integers(0, grid12.n_phi))
            theta = grid12.theta_nodes[j]
            phi = grid12.phi_nodes[k]
            direct = 0.0
            for n in range(1, 13):
                for m in range(-n, n + 1):
                    direct += zeta[n, m] * ynm_reference(n, m, theta, phi - Omega * t)
            want = direct.real + 2.0 * Omega * math.cos(theta)
            assert mapped_vals[j, k] == pytest.approx(want, abs=1e-11)

    def test_isometry_of_the_rotation_part(self):
        zeta = rand_field(10, seed=7)
        Omega, t = 2.0, 1.1
        out = frame_map(zeta, Omega, t)
        out[1, 0] = out[1, 0] - 4.0 * math.sqrt(math.pi / 3.0) * Omega
        assert out.norm() == pytest.approx(zeta.norm(), rel=1e-13)


class TestRotatingEquilibrium:
    def test_zero_rotation_reduces_to_static(self):
        p = KillingParams(alpha=0.4 + 0.2j, b=0.6)
        got = rotating_attractor(p, 1.0, 0.8, 0.0, 2.5)
        want = equilibrium_closed_form(p, 1.0, 0.8)
        assert np.max(np.abs(got - want)) == 0.0

    def test_entrywise_modulus_constant_in_time(self):
        p = KillingParams(alpha=0.4 + 0.2j, b=0.6)
        base = np.abs(rotating_attractor(p, 1.0, 0.8, 1.7, 0.0))
        for t in (0.3, 1.0, 4.0):
            assert np.allclose(np.abs(rotating_attractor(p, 1.0, 0.8, 1.7, t)), base, atol=1e-14)

    def test_rotation_shifts_zonal_parameter(self):
        # zeta_{0,1}^0 = 0 with Omega = 3/2 matches the static closed form at b = 1
        p = KillingParams(alpha=1.0 + 0j, b=0.0)
        got = rotating_attractor(p, 1.0, 1.0, 1.5, 0.0)
        want = equilibrium_closed_form(KillingParams(alpha=1.0 + 0j, b=1.0), 1.0, 1.0)
        assert np.max(np.abs(got - want)) < 1e-12


class TestRunRotating:
    def test_zero_rotation_bitwise_identical(self, tmp_path):
        # The rotating scenario at Omega = 0 writes what two_jet writes for the same manifest.
        zeta0 = rand_field(8, seed=9, amplitude=0.4)
        init = [
            {"n": n, "m": m, "re": zeta0[n, m].real, "im": zeta0[n, m].imag} for n in range(1, 9) for m in range(n + 1)
        ]
        doc = {"cfg": {"nu": 1.0, "amplitude": 1.0, "N": 8, "t_end": 0.25, "snapshot_stride": 16}, "init": init}
        for scenario, extra in (("rotating", {"Omega": 0.0}), ("two_jet", {})):
            code, _ = run_manifest({**doc, **extra, "scenario": scenario, "output_dir": str(tmp_path / scenario)})
            assert code == 0, scenario
        rotating = (tmp_path / "rotating" / "trajectory.csv").read_text().splitlines()
        assert rotating[0] == "# Omega=0"
        assert rotating[1:] == (tmp_path / "two_jet" / "trajectory.csv").read_text().splitlines()
        assert len(rotating) > 3
        equilibrium = [(tmp_path / scenario / "equilibrium.json").read_bytes() for scenario in ("rotating", "two_jet")]
        assert equilibrium[0] == equilibrium[1]

    def test_degree_one_phase_law(self, grid8):
        zeta0 = SpectralField.zeros(8)
        zeta0[1, 1] = 0.7
        zeta0[1, -1] = -0.7
        Omega = 1.5
        cfg = SolverConfig(nu=1.0, amplitude=1.0, N=8, t_end=1.0, snapshot_stride=64)
        recs = run_in_frame(zeta0, cfg, grid8, Omega)
        for rec in recs:
            assert abs(abs(rec.mode1[0]) - 0.7) < 1e-9
            want = 0.7 * np.exp(1j * Omega * rec.t)
            assert abs(rec.mode1[0] - want) < 1e-9

    def test_frame_equivalence(self, grid12):
        zeta0 = rand_field(12, seed=10, amplitude=0.4, decay=0.45)
        nu, Omega = 1.0, 2.0
        cfg = SolverConfig(nu=nu, amplitude=1.0, N=12, t_end=1.0, snapshot_stride=128)
        rot = snapshot_states(zeta0, dataclasses.replace(cfg, Omega=Omega), grid12)
        direct = snapshot_states(frame_map(zeta0, Omega, 0.0), cfg, grid12)
        for (t, rr), (_, rd) in zip(rot, direct):
            mapped = frame_map(lab_state(rr, Omega, t), Omega, t)
            assert SpectralField(mapped.coeffs - rd.coeffs).norm() < 1e-9

    def test_degree_two_distance_decays_at_4nu_without_high_degrees(self, grid8):
        zeta0 = SpectralField.zeros(8)
        zeta0[1, 0] = 0.6
        zeta0[1, 1] = 0.3 + 0.1j
        zeta0[1, -1] = -np.conj(zeta0[1, 1])
        zeta0[2, 1] = 0.4 - 0.2j
        zeta0[2, -1] = -np.conj(zeta0[2, 1])
        nu, Omega = 1.0, 1.3
        cfg = SolverConfig(nu=nu, amplitude=1.0, N=8, t_end=1.5, snapshot_stride=64)
        recs = run_in_frame(zeta0, cfg, grid8, Omega)
        base = recs[0].norm_eq2_dist
        assert base > 1e-3
        for rec in recs:
            compensated = rec.norm_eq2_dist * math.exp(4.0 * nu * rec.t)
            assert compensated == pytest.approx(base, rel=1e-6)

    def test_one_jet_base_rejected(self):
        with pytest.raises(ValueError, match="two-jet"):
            SolverConfig(nu=1.0, amplitude=1.0, N=8, t_end=1.0, jet_order="one_jet", Omega=1.0)

    @pytest.mark.parametrize("Omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_rotation_rejected(self, Omega):
        with pytest.raises(ValueError, match="Omega must be finite"):
            SolverConfig(nu=1.0, amplitude=1.0, N=8, t_end=1.0, Omega=Omega)
