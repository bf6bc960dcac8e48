import math

import numpy as np
import pytest

from cuspinv.flows import (
    BumpPushforward,
    ReducedSystem,
    SymplecticModel,
    period_lattice,
    pullback_residual,
    transport_map,
    verify_lattice,
)
from cuspinv.model import Density, cusp_compact_model, cusp_local_model
from cuspinv.quadrature import loop_period, oval_bounds

from oracles import fd_period_lattice

F_ONE = Density.constant(1)
F_TILT = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.1})


def _oval_point(model, H, lam, stratum="narrow"):
    a, b = oval_bounds(model, H, lam, stratum)
    y = 0.5 * (a + b)
    wc = model.potential_coeffs(lam)
    x = math.sqrt(max(H - np.polyval(wc, y), 0.0))
    return np.array([x, y, lam, 0.0])


def _branch_point(sm, lam, H, t=0.9):
    ys = min(np.roots([1, 0, lam, -(H - sm.model.x0**2)]).real)
    rs = ReducedSystem(sm)
    xy = rs.reduced_flow((sm.model.x0, float(ys)), lam, t)
    return np.array([xy[0], xy[1], lam, 0.0])


class TestHamiltonianField:
    def test_f_field_is_phi_direction(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        assert np.array_equal(sm.hamiltonian_field((0.7, -0.2, 0.1, 3.0), "F"), [0, 0, 0, 1])

    def test_h_field_reference_point(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        v = sm.hamiltonian_field((1.0, 1.0, 0.0, 0.0), "H")
        assert np.allclose(v, [-3.0, 2.0, 0.0, 1.0])

    def test_density_scaling_halves_plane_components(self):
        sm1 = SymplecticModel(cusp_local_model(F_ONE))
        sm2 = SymplecticModel(cusp_local_model(Density.constant(2)))
        p = (0.4, -0.3, 0.2, 0.0)
        v1 = sm1.hamiltonian_field(p, "H")
        v2 = sm2.hamiltonian_field(p, "H")
        assert np.allclose(v2[:2], v1[:2] / 2.0)

    def test_linear_identity_residual(self):
        # i_v Omega = -dG checked against the matrix of Omega
        rng = np.random.default_rng(23)
        f = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.3, (1, 0, 1): 0.2})
        sm = SymplecticModel(cusp_local_model(f))
        h = sm.model.hamiltonian()
        for _ in range(10):
            p = rng.uniform(-0.5, 0.5, 4)
            omega = sm.omega_matrix(p)
            for gen in ("H", "F"):
                v = sm.hamiltonian_field(p, gen)
                if gen == "H":
                    dg = np.array(
                        [h.diff(0).eval(*p[:3]), h.diff(1).eval(*p[:3]), h.diff(2).eval(*p[:3]), 0.0]
                    )
                else:
                    dg = np.array([0.0, 0.0, 1.0, 0.0])
                # i_v Omega = -dG <=> Omega v = dG for this antisymmetric matrix
                assert np.abs(omega @ v - dg).max() < 1e-12

    def test_degenerate_density_rejected(self):
        sm = SymplecticModel(cusp_local_model(Density({(0, 1, 0): 1})))
        with pytest.raises(ValueError):
            sm.hamiltonian_field((0.0, 0.0, 0.0, 0.0), "H")


class TestVanishingDensity:
    # f = y vanishes at (0.3, 0); numpy-float 0/0 there would give a NaN
    # field, on which RK45 never terminates
    SM = SymplecticModel(cusp_local_model(Density({(0, 1, 0): 1})))

    def test_reduced_field_rejected(self):
        with pytest.raises(ValueError, match="density vanishes"):
            ReducedSystem(self.SM).rhs(0.0)(0.0, np.array([0.3, 0.0]))

    def test_bump_field_rejected(self):
        with pytest.raises(ValueError, match="density vanishes"):
            BumpPushforward(self.SM)._z_rhs(0.0)(0.0, np.array([0.3, 0.0, 0.0]))

    def test_solver_failure_is_not_a_missed_section(self):
        # the backward flow runs into {y = 0}, where the field blows up
        with pytest.raises(RuntimeError, match="flow integration failed"):
            ReducedSystem(self.SM).section_time((0.3, 0.2), 0.0)


class TestFlow:
    def test_zero_time_identity(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        p = np.array([0.2, 0.4, -0.3, 1.0])
        assert np.array_equal(sm.flow(p, "H", 0.0), p)

    def test_f_flow_2pi_periodic(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        p = np.array([0.2, 0.4, -0.3, 1.0])
        out = sm.flow(p, "F", 2 * math.pi)
        assert np.allclose(out[:3], p[:3])
        assert abs((out[3] - p[3]) - 2 * math.pi) < 1e-15

    def test_energy_conservation_long_flow(self):
        sm = SymplecticModel(cusp_local_model(F_TILT))
        p = _oval_point(sm.model, 0.0, -0.3)
        h0 = sm.hamiltonian_value(p)
        out = sm.flow(p, "H", 50.0)
        assert abs(sm.hamiltonian_value(out) - h0) < 1e-9

    def test_commutativity(self):
        sm = SymplecticModel(cusp_local_model(F_TILT))
        p = _oval_point(sm.model, 0.0, -0.3)
        a = sm.flow(sm.flow(p, "H", 1.3), "F", 0.7)
        b = sm.flow(sm.flow(p, "F", 0.7), "H", 1.3)
        assert np.abs(a - b).max() < 1e-8


class TestPeriodLattice:
    def test_first_basis_vector_is_standard_turn(self):
        sm = SymplecticModel(cusp_compact_model(F_ONE))
        lat = period_lattice(sm, 0.0, -0.05, "narrow")
        assert np.allclose(lat.basis[0], [0.0, 2 * math.pi])

    def test_second_vector_h_time_is_loop_period(self):
        sm = SymplecticModel(cusp_compact_model(F_ONE))
        lat = period_lattice(sm, 0.0, -0.05, "narrow")
        assert abs(lat.basis[1][0] - loop_period(sm.model, 0.0, -0.05)) < 1e-10

    def test_fd_route_consistent(self):
        sm = SymplecticModel(cusp_compact_model(F_ONE))
        lat_q = period_lattice(sm, 0.05, 0.02, "wide")
        lat_fd = fd_period_lattice(sm, 0.05, 0.02, "wide")
        assert np.abs(lat_q.basis - lat_fd.basis).max() < 1e-5

    def test_fd_step_refinement_stable(self):
        sm = SymplecticModel(cusp_compact_model(F_ONE))
        lat3 = fd_period_lattice(sm, 0.05, 0.02, "wide", fd_step=1e-3)
        lat4 = fd_period_lattice(sm, 0.05, 0.02, "wide", fd_step=1e-4)
        assert np.abs(lat3.basis - lat4.basis).max() < 1e-5

    def test_lattice_vectors_return(self):
        sm = SymplecticModel(cusp_compact_model(F_TILT))
        for (h, lam, stratum) in ((0.05, 0.02, "wide"), (0.0, -0.05, "narrow")):
            lat = period_lattice(sm, h, lam, stratum)
            p = _oval_point(sm.model, h, lam, stratum)
            for row in lat.basis:
                assert verify_lattice(sm, p, row[0], row[1]) < 1e-6

    def test_half_vector_misses(self):
        sm = SymplecticModel(cusp_compact_model(F_ONE))
        lat = period_lattice(sm, 0.0, -0.05, "narrow")
        p = _oval_point(sm.model, 0.0, -0.05)
        assert verify_lattice(sm, p, lat.basis[1][0] / 2, lat.basis[1][1] / 2) > 1e-2

    def test_zero_vector(self):
        sm = SymplecticModel(cusp_compact_model(F_ONE))
        p = _oval_point(sm.model, 0.0, -0.05)
        assert verify_lattice(sm, p, 0.0, 0.0) == 0.0


class TestTrajectoryDump:
    def test_csv_columns_and_conservation(self):
        from cuspinv.flows import trajectory_csv

        sm = SymplecticModel(cusp_local_model(F_ONE))
        p = _oval_point(sm.model, 0.0, -0.3)
        csv = trajectory_csv(sm, p, "H", 2.0, n_samples=11)
        lines = csv.strip().splitlines()
        assert lines[0] == "t,x,y,lambda,phi,H,F"
        assert len(lines) == 12
        h_vals = [float(row.split(",")[5]) for row in lines[1:]]
        assert max(h_vals) - min(h_vals) < 1e-10


class TestTransport:
    def test_identity_systems(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        q = _branch_point(sm, -0.3, 0.034)
        assert np.abs(transport_map(sm, sm, q) - q).max() < 1e-12

    def test_section_fixed_pointwise(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        push = BumpPushforward(sm, amplitude=0.2)
        lam = -0.3
        ys = min(np.roots([1, 0, lam, -(0.034 - 1.0)]).real)
        p_sec = np.array([1.0, float(ys), lam, 0.0])
        assert np.abs(transport_map(sm, push, p_sec) - p_sec).max() < 1e-12

    def test_pushforward_is_symplectic(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        push = BumpPushforward(sm, amplitude=0.2)
        q = _branch_point(sm, -0.3, 0.034)
        res = pullback_residual(sm, push, q)
        assert abs(res["xy_residual"]) < 1e-4
        assert res["fiber_drift"] < 1e-9

    def test_fibers_preserved(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        push = BumpPushforward(sm, amplitude=0.2)
        h = sm.model.hamiltonian()
        for t in (0.4, 0.9, 1.5):
            q = _branch_point(sm, -0.3, 0.02, t=t)
            img = transport_map(sm, push, q)
            assert abs(h.eval(*img[:3]) - h.eval(*q[:3])) < 1e-9
            assert img[2] == q[2]

    def test_identity_bump_with_section_override(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        q = _branch_point(sm, -0.3, 0.034)
        img = transport_map(sm, BumpPushforward(sm, amplitude=0.0), q, x0=0.9)
        assert np.abs(img - q).max() < 1e-12

    def test_section_override_leaves_systems_alone(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        r1, r2 = ReducedSystem(sm), ReducedSystem(sm)
        push = BumpPushforward(sm, amplitude=0.2)
        q = _branch_point(sm, -0.3, 0.034)
        transport_map(r1, r2, q, x0=0.8)
        pullback_residual(sm, push, q, x0=0.8)
        assert sm.model.x0 == 1.0
        assert r1.section_time(q[:2], q[2]) == ReducedSystem(sm).section_time(q[:2], q[2], 1.0)
        assert r2.section_time(q[:2], q[2]) != r2.section_time(q[:2], q[2], 0.8)
        assert push.section_time(q[:2], q[2]) == push.section_time(q[:2], q[2], 1.0)

    def test_fiber_drift_is_float_for_reduced_systems(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        q = _branch_point(sm, -0.3, 0.034)
        res = pullback_residual(ReducedSystem(sm), BumpPushforward(sm, amplitude=0.2), q)
        assert isinstance(res["fiber_drift"], float)
        assert res["fiber_drift"] < 1e-9

    def test_bump_determinant_matches_jacobian(self):
        f = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.3, (1, 0, 1): 0.2})
        push = BumpPushforward(SymplecticModel(cusp_local_model(f)), amplitude=0.2)
        lam, h = -0.3, 1e-5
        for xy in ((0.2, 0.1), (-0.3, 0.4), (0.1, -0.5)):
            _, det = push.bump_map(xy, lam)

            def image(dx, dy):
                return push.bump_map((xy[0] + dx, xy[1] + dy), lam)[0]

            jx = (image(h, 0.0) - image(-h, 0.0)) / (2 * h)
            jy = (image(0.0, h) - image(0.0, -h)) / (2 * h)
            assert abs(det - (jx[0] * jy[1] - jx[1] * jy[0])) < 1e-8

    def test_section_inside_bump_rejected(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        q = _branch_point(sm, -0.3, 0.034)
        with pytest.raises(ValueError):
            transport_map(sm, BumpPushforward(sm, amplitude=0.2), q, x0=0.3)

    def test_unreachable_point_rejected(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        # narrow-oval points never cross the sections at x0 = 1
        q = _oval_point(sm.model, 0.0, -0.3)
        with pytest.raises(ValueError):
            transport_map(sm, sm, q)
