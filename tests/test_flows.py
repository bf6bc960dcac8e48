import math

import numpy as np
import pytest

from cuspinv import flows, quadrature
from cuspinv import model as model_module
from cuspinv.flows import (
    ReducedSystem,
    SymplecticModel,
    period_lattice,
    pullback_residual,
    transport_map,
    verify_lattice,
)
from cuspinv.model import Density, cusp_compact_model, cusp_local_model, one_dof_model
from cuspinv.quadrature import loop_period, oval_bounds

from oracles import (
    BumpPushforward,
    carlson_loop_period,
    fd_period_lattice,
    loop_dop853,
    mp_flow,
    ode_section_time,
    omega_matrix,
    reference_hamiltonian_field,
    reference_plane_field,
    scipy_flow,
    unfused_field,
)

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
            omega = omega_matrix(f, p)
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

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    def test_per_lambda_fields_match_eval_oracle(self, make):
        # one field per lambda, bit for bit the fields through Density.eval
        rng = np.random.default_rng(31)
        f = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.3, (1, 0, 1): 0.2, (2, 1, 2): -0.4})
        sm = SymplecticModel(make(f))
        for lam in (0.0, -0.3, float(rng.uniform(-0.5, 0.5))):
            reduced, h_field = sm._system(lam, 2)[0], sm._system(lam)[0]
            for x, y in rng.uniform(-0.6, 0.6, (20, 2)).tolist() + [[0.0, 0.4], [0.3, 0.0]]:
                ref = reference_plane_field(sm, x, y, lam)
                assert tuple(reduced(0.0, [x, y])) == tuple(unfused_field(sm, lam, 2)(0.0, [x, y])) == ref[:2]
                point = np.array([x, y, lam, 1.0])
                assert np.array_equal(h_field(0.0, [x, y]), reference_hamiltonian_field(sm, point))
                assert np.array_equal(unfused_field(sm, lam, 4)(0.0, [x, y]), h_field(0.0, [x, y]))
                assert np.array_equal(sm.hamiltonian_field(point), h_field(0.0, [x, y]))


class TestVanishingDensity:
    # f = y vanishes at (0.3, 0); numpy-float 0/0 there would give a NaN
    # field, on which the solver never terminates
    SM = SymplecticModel(cusp_local_model(Density({(0, 1, 0): 1})))

    def test_reduced_field_rejected(self):
        # the field function and the field written into the step's stages
        field, step = self.SM._system(0.0, 2)
        with pytest.raises(ValueError, match="density vanishes at the point"):
            field(0.0, [0.3, 0.0])
        with pytest.raises(ValueError, match="density vanishes at the point"):
            step(0.0, [0.3, 0.0], [1.0, 1.0], 0.0)

    def test_h_field_rejected(self):
        field, step = self.SM._system(0.0)
        with pytest.raises(ValueError, match="density vanishes at the point"):
            field(0.0, [0.3, 0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="density vanishes at the point"):
            step(0.0, [0.3, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 1.0], 0.0)

    def test_bump_field_rejected(self):
        with pytest.raises(ValueError, match="density vanishes"):
            BumpPushforward(self.SM)._z_rhs(0.0)(0.0, [0.3, 0.0, 0.0])

    def test_solver_failure_is_not_a_missed_section(self):
        # the arc from N1 to the point crosses {y = 0}, where f vanishes: a
        # named error, not "trajectory does not reach the section"
        with pytest.raises(ValueError, match="density vanishes on the trajectory"):
            ReducedSystem(self.SM).section_time((0.3, 0.2), 0.0)

    def test_flow_into_vanishing_density_fails(self):
        # the backward flow runs into {y = 0}, where the field blows up
        with pytest.raises(RuntimeError, match="flow integration failed"):
            ReducedSystem(self.SM).reduced_flow((0.3, 0.2), 0.0, -1.0)


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


class TestFlowEngine:
    # f = 1 + y/5 + x^2/10 + 3 x lambda/10: positive on the boxes below
    F_MIX = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.2, (2, 0, 0): 0.1, (1, 0, 1): 0.3})

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    @pytest.mark.parametrize("t", [1.5, -0.5])
    def test_reduced_flow_matches_mpmath(self, make, t):
        # 30-digit Taylor references: the first flow oracle that is not DOP853
        rs = ReducedSystem(SymplecticModel(make(Density({(0, 0, 0): 1.0, (0, 1, 0): 0.2}))))
        ref = mp_flow(rs.sm, (0.1, -0.4, -0.3, 0.0), t, reduced=True)
        assert np.abs(rs.reduced_flow((0.1, -0.4), -0.3, t) - ref).max() < 1e-12

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    @pytest.mark.parametrize("t", [0.8, -0.6])
    def test_h_flow_matches_mpmath(self, make, t):
        sm = SymplecticModel(make(self.F_MIX))
        p = (0.1, -0.2, -0.05, 0.3)
        assert np.abs(sm.flow(p, "H", t) - mp_flow(sm, p, t)).max() < 1e-12

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    def test_flows_match_scipy(self, make):
        sm = SymplecticModel(make(self.F_MIX))
        rs, rng = sm.reduced(), np.random.default_rng(41)
        for x, y, lam, phi, t in rng.uniform(-0.4, 0.4, (6, 5)).tolist():
            p, t = [x, y, lam, phi], 2.5 * t
            ref = scipy_flow(unfused_field(sm, lam, 4), p, t)
            assert np.abs(sm.flow(p, "H", t) - ref).max() <= 1e-10 * np.abs(ref).max()
            ref = scipy_flow(unfused_field(sm, lam, 2), p[:2], t)
            assert np.abs(rs.reduced_flow(p[:2], lam, t) - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_requested_times_are_step_ends(self):
        sm = SymplecticModel(cusp_compact_model(self.F_MIX))
        p = _oval_point(sm.model, 0.0, -0.05)
        T = loop_period(sm.model, 0.0, -0.05)
        for times in ([T / 2, T], [-T / 2, -T], [T, 0.0, T / 2]):
            rows = sm.flow(p, "H", times)
            for row, t in zip(rows, times):
                assert np.abs(row - sm.flow(p, "H", t)).max() < 1e-11

    @pytest.mark.parametrize("t", [1.0, -1.0])
    def test_nan_field_fails_after_bounded_calls(self, t):
        # a system whose field turns NaN past |x| = 0.5, and with it the error
        # of every step that ends there: no step size passes
        calls = []

        def field(_t, y):
            calls.append(1)
            return [1.0, math.nan if abs(y[0]) > 0.5 else 0.0]

        def step(t, y, f, h):  # Euler, its error NaN where the field is
            y_new = [v + h * u for v, u in zip(y, f)]
            return y_new, 0.0 * sum(field(t + h, y_new))

        with pytest.raises(RuntimeError, match="flow integration failed"):
            flows._solve((field, step), [0.0, 0.0], [t])
        assert 0 < len(calls) < 2000
        calls.clear()
        with pytest.raises(RuntimeError, match="flow integration failed"):
            flows._solve((lambda _t, y: calls.append(1) or [math.nan, 0.0], step), [0.0, 0.0], [t])
        assert len(calls) == 1

    @pytest.mark.parametrize("times", [[-1.0, 1.0], [math.nan], [1.0, math.inf], [-math.inf]])
    def test_mixed_sign_or_non_finite_times_rejected(self, times):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        with pytest.raises(ValueError, match="flow times must be finite and of one sign"):
            sm.flow((0.2, 0.4, -0.3, 1.0), "H", times)

    def test_tableau_literals_are_scipys(self):
        # the literals are scipy.integrate.DOP853's C, A below the diagonal, B,
        # E5 and E3 bit for bit, each weight listed once with its stage and no
        # zero weight listed; C[s] is the row sum of A, B sums to 1, and the
        # error weights vanish on the FSAL stage, so a rejected step needs no
        # f(t + h, y_new)
        from scipy.integrate import DOP853

        c, (*rows, b, e5, e3) = flows._TABLEAU
        assert len(c) == len(rows) == 12
        assert np.array(c).tobytes() == DOP853.C.tobytes()
        assert not np.triu(DOP853.A).any()
        theirs = [row[:s] for s, row in enumerate(DOP853.A)] + [DOP853.B, DOP853.E5, DOP853.E3]
        for pairs, weights in zip([*rows, b, e5, e3], theirs, strict=True):
            assert all(type(j) is int and type(w) is float and w != 0.0 for j, w in pairs)
            full = np.zeros(len(weights))
            full[[j for j, _ in pairs]] = [w for _, w in pairs]
            assert len({j for j, _ in pairs}) == len(pairs)
            assert full.tobytes() == weights.tobytes()
        for c_s, row in zip(c, rows):
            assert abs(c_s - math.fsum(w for _, w in row)) <= 2e-15
        assert abs(math.fsum(w for _, w in b) - 1.0) <= 1e-15
        assert DOP853.E5[12] == DOP853.E3[12] == 0.0
        assert max(j for j, _ in b + e5 + e3) < 12

    @pytest.mark.parametrize(
        "size, start, times, rejects",
        [
            (2, (0.1, -0.4), [1.5, 0.5, 3.0], False),  # ReducedSystem.rhs
            (2, (0.9, 0.9), [-2.0, -0.5], True),  # a fast start: rejected steps
            (4, (0.1, -0.2), [0.4, 0.8, 2.0], False),  # the H-field
            (4, (0.1, -0.2), [-0.3, -1.1], False),
        ],
    )
    def test_straight_line_step_matches_loop_oracle(self, size, start, times, rejects):
        # the generated step runs the loop stepper's float operations in its
        # order: the same states bit for bit, from as many right-hand sides,
        # 11 of each step attempt written into the step
        sm, lam = SymplecticModel(cusp_compact_model(self.F_MIX)), -0.3
        y0 = [*start, lam, 0.3][:size]
        rhs, ref_calls = unfused_field(sm, lam, size), []
        ref, rejected = loop_dop853(lambda t, y: ref_calls.append(1) or rhs(t, y), y0, times)
        states, calls, attempts = _counted_solve(sm, lam, size, y0, times)
        assert _hex(states) == _hex(ref)
        assert len(calls) + 11 * len(attempts) == len(ref_calls) > 12 * len(times)
        if rejects:
            assert rejected > 0

    # x^3, y^3 and lambda^2 terms: the field's power names x3, y2, y3 beside
    # the step's own names
    F_POW = Density({(0, 0, 0): 1.0, (3, 0, 0): 0.2, (0, 3, 0): -0.3, (1, 1, 2): 0.5, (0, 2, 1): 0.1})

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize(
        "lam, start, times, rejects",
        [
            (-0.0, (0.1, -0.2), [0.3, 0.9, 0.6], False),  # cut times out of order
            (-0.0, (0.1, -0.2), [-0.7, -0.2], False),  # lambda stays -0.0 backward
            (-0.3, (0.6, 0.5), [1.5], True),  # a fast start: rejected steps
            (0.02, (0.05, 0.3), [-1.2, -2.0], False),
        ],
    )
    def test_generated_field_steps_match_loop_oracle(self, make, size, lam, start, times, rejects):
        sm = SymplecticModel(make(self.F_POW))
        y0 = [*start, lam, 0.3][:size]
        rhs, ref_calls = unfused_field(sm, lam, size), []
        ref, rejected = loop_dop853(lambda t, y: ref_calls.append(1) or rhs(t, y), y0, times)
        states, calls, attempts = _counted_solve(sm, lam, size, y0, times)
        if size == 4:
            # the step keeps lambda as it is on every row; the loop stepper
            # moves it by h * 0.0, which turns -0.0 to 0.0 forward only
            assert [row[2].hex() for row in states] == [lam.hex()] * len(times)
            states = [[*row[:2], lam + t * 0.0, row[3]] for row, t in zip(states, times)]
        assert _hex(states) == _hex(ref)
        assert len(calls) + 11 * len(attempts) == len(ref_calls)
        if rejects:
            assert rejected > 0

    def test_h_flow_calls_the_field_between_steps(self, monkeypatch):
        # the field runs in Python twice at the start and once after each
        # accepted step but the last, never inside a step
        events, real = [], flows._solve

        def solve(system, y0, times):
            field, step = system
            counted = (
                lambda t, y: events.append("field") or field(t, y),
                lambda *a: events.append("step") or events.append(step(*a)) or events[-1],
            )
            return real(counted, y0, times)

        monkeypatch.setattr(flows, "_solve", solve)
        sm = SymplecticModel(cusp_compact_model(self.F_POW))
        sm.flow((0.6, 0.5, -0.3, 0.0), "H", [0.75, 1.5])
        steps = [events[k + 1] for k, e in enumerate(events) if e == "step"]
        assert all(isinstance(done, tuple) for done in steps)  # no field call inside a step
        accepted = sum(err < 1.0 for _, err in steps)
        assert events[:2] == ["field", "field"] and accepted < len(steps)
        assert events.count("field") == accepted + 1
        assert len(events) == events.count("field") + 2 * len(steps)

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    def test_one_step_per_shape(self, make):
        # the generated step is cached by the (i, j) of the terms alone, so its
        # coefficients and lambda powers must be bound per system
        rng, support = np.random.default_rng(47), list(self.F_POW.terms)
        densities = [Density(dict(zip(support, [1.0, *rng.uniform(-0.3, 0.3, 4)]))) for _ in range(3)]
        for n in (2, 4):
            SymplecticModel(make(self.F_POW))._system(0.1, n)
        misses = flows._step.cache_info().misses
        for f in densities:
            sm = SymplecticModel(make(f))
            for lam, n in ((-0.2, 2), (0.0, 4), (0.05, 4), (0.05, 2)):
                y0 = [0.1, -0.2, lam, 0.3][:n]
                ref, _ = loop_dop853(unfused_field(sm, lam, n), y0, [0.4])
                assert _hex(flows._solve(sm._system(lam, n), y0, [0.4])) == _hex(ref)
        assert flows._step.cache_info().misses == misses


def _hex(states):
    return [[v.hex() for v in row] for row in states]


def _counted_solve(sm, lam, n, y0, times):
    """(states, calls, attempts): ``_solve`` on the generated system of n
    components at lambda, with a 1 in calls per call of its Python field (the
    field written into the step is not called) and in attempts per step
    attempt."""
    calls, attempts = [], []
    bound, step = sm._system(lam, n)
    field = lambda t, y: calls.append(1) or bound(t, y)  # noqa: E731
    counted = (field, lambda *a: attempts.append(1) or step(*a))
    return flows._solve(counted, y0, times), calls, attempts


class TestPeriodLattice:
    def test_first_basis_vector_is_standard_turn(self):
        sm = SymplecticModel(cusp_compact_model(F_ONE))
        lat = period_lattice(sm, 0.0, -0.05, "narrow")
        assert np.allclose(lat.basis[0], [0.0, 2 * math.pi])

    def test_second_vector_h_time_is_loop_period(self):
        sm = SymplecticModel(cusp_compact_model(F_ONE))
        lat = period_lattice(sm, 0.0, -0.05, "narrow")
        assert abs(lat.basis[1][0] - loop_period(sm.model, 0.0, -0.05)) < 1e-10

    def test_one_level_and_one_engine_call(self, monkeypatch):
        # the three integrals of a lattice share one root solve of the level
        # and the W' of its lambda, and one engine call of a batch of one per kernel
        calls = []
        real_roots, real_engine = model_module._stacked_roots, quadrature._level_integrals

        def roots(polys):
            calls.append(("roots", len(polys)))
            return real_roots(polys)

        def engine(*batches):
            calls.append(("engine", [len(jobs.errors) for jobs in batches]))
            return real_engine(*batches)

        monkeypatch.setattr(model_module, "_stacked_roots", roots)
        monkeypatch.setattr(quadrature, "_level_integrals", engine)
        sm = SymplecticModel(cusp_compact_model(F_TILT))
        for h, lam, stratum in ((0.05, 0.02, "wide"), (0.0, -0.05, "narrow")):
            calls.clear()
            lat = period_lattice(sm, h, lam, stratum)
            assert calls == [("roots", 2), ("engine", [1, 1, 1])]
            if stratum == "narrow":
                assert lat.basis[1][0] == loop_period(sm.model, h, lam)

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

    def test_signed_zero_lambda_stays_on_every_row(self):
        # the step carries the constant lambda component as it is: -0.0 stays
        from cuspinv.flows import trajectory_csv

        sm = SymplecticModel(cusp_local_model(F_ONE))
        rows = trajectory_csv(sm, (0.1, -0.2, -0.0, 0.0), "H", 0.5, 3).splitlines()[1:]
        assert [(row.split(",")[3], row.split(",")[6]) for row in rows] == [("-0", "-0")] * 3


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

    def test_one_inverse_bump_solve_per_transported_point(self, monkeypatch):
        # five transported points (the image and four stencil points) and the
        # density at the image: each point needs psi0^-1 once and psi0 once
        sm = SymplecticModel(cusp_local_model(F_ONE))
        push = BumpPushforward(sm, amplitude=0.2)
        q = _branch_point(sm, -0.3, 0.034)
        calls = []
        real = push.bump_map

        def counted(*args, **kwargs):
            calls.append(kwargs.get("inverse", False))
            return real(*args, **kwargs)

        monkeypatch.setattr(push, "bump_map", counted)
        res = pullback_residual(sm, push, q)
        assert len(calls) == 11 and sum(calls) == 6
        assert res == pullback_residual(sm, BumpPushforward(sm, amplitude=0.2), q)

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
        # the model's section x0 = 0.9 in place of the default 1.0
        sm = SymplecticModel(cusp_local_model(F_ONE, x0=0.9))
        q = _branch_point(sm, -0.3, 0.034)
        img = transport_map(sm, BumpPushforward(sm, amplitude=0.0), q)
        assert np.abs(img - q).max() < 1e-12

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

    def test_unreachable_point_rejected(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        # narrow-oval points never cross the sections at x0 = 1
        q = _oval_point(sm.model, 0.0, -0.3)
        with pytest.raises(ValueError):
            transport_map(sm, sm, q)

    def test_array_of_points_matches_row_by_row(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        tilted = SymplecticModel(cusp_local_model(F_TILT))
        rows = np.array([_branch_point(sm, l, 0.03, t) for l in (-0.3, -0.2) for t in (0.4, 1.5)])
        rows[:, 3] = [0.0, 0.5, -1.0, 2.0]
        for sys2 in (tilted, BumpPushforward(sm, amplitude=0.2)):
            batch = transport_map(sm, sys2, rows)
            assert batch.shape == rows.shape
            for row, image in zip(rows, batch):
                assert np.array_equal(image, transport_map(sm, sys2, row))

    def test_pullback_residual_counts(self, monkeypatch):
        # five transported points: per system one solve of the levels, their
        # sections, the W' of each lambda and the f-zero polynomials, and one
        # engine call of one batch
        calls = []
        real_roots, real_engine = model_module._stacked_roots, quadrature._level_integrals

        def roots(polys):
            calls.append(("roots", len(polys)))
            return real_roots(polys)

        def engine(*batches):
            calls.append(("engine", [len(jobs.errors) for jobs in batches]))
            return real_engine(*batches)

        monkeypatch.setattr(model_module, "_stacked_roots", roots)
        monkeypatch.setattr(quadrature, "_level_integrals", engine)
        sm = SymplecticModel(cusp_local_model(F_ONE))
        q = _branch_point(sm, -0.3, 0.034)
        pullback_residual(sm, SymplecticModel(cusp_local_model(F_TILT)), q)
        assert calls == [("roots", 16), ("engine", [5])] * 2
        # three points: all 15 stencil points in the same three calls per system
        calls.clear()
        rows = np.array([_branch_point(sm, l, 0.034) for l in (-0.3, -0.25, -0.2)])
        pullback_residual(sm, SymplecticModel(cusp_local_model(F_TILT)), rows)
        assert calls == [("roots", 48), ("engine", [15])] * 2

    def test_pullback_residual_of_an_array_is_per_point(self):
        sm = SymplecticModel(cusp_local_model(F_ONE))
        rows = np.array([_branch_point(sm, l, 0.03, t) for l in (-0.3, -0.2) for t in (0.4, 1.5)])
        for sys2 in (SymplecticModel(cusp_local_model(F_TILT)), BumpPushforward(sm, amplitude=0.2)):
            batch = pullback_residual(sm, sys2, rows)
            assert batch == [pullback_residual(sm, sys2, row) for row in rows]
            assert batch == pullback_residual(sm, sys2, rows[:, :3])
        assert pullback_residual(sm, sm, rows[:0]) == []


class TestSectionTime:
    """Section times are level integrals on the engine, not event-driven flows."""

    F_MIX = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.1, (1, 0, 0): 0.05, (1, 1, 1): 0.2})

    @staticmethod
    def _arc_points(model, lam, h, fracs):
        """Points of the passage arc through N1 on the level H = h: y = turn - s^2
        and x = s sqrt(P(y) / (turn - y)) at s = frac sqrt(turn - y_sec), so N1
        sits at frac = 1 and N2 at frac = -1."""
        p = -np.array(model.potential_coeffs(lam))
        p[-1] += h
        roots = sorted(r.real for r in np.roots(p) if abs(r.imag) < 1e-9)
        turn = roots[0] if model.kind == "cusp_local" else roots[1]
        sec = p.copy()
        sec[-1] -= model.x0**2
        y_sec = max(r.real for r in np.roots(sec) if abs(r.imag) < 1e-9 and r.real < turn)
        out = []
        for frac in fracs:
            y = turn - frac * frac * (turn - y_sec)
            out.append((math.copysign(math.sqrt(max(np.polyval(p, y), 0.0)), frac), y))
        return out

    def _cases(self):
        rng = np.random.default_rng(11)
        local_levels = ((-0.35, 0.05), (-0.2, 0.3), (0.05, 0.1))
        compact_levels = ((0.0, 0.035), (0.01, 0.045), (0.025, 0.04))
        for model, levels, edges in (
            # one point per stratum of frac; past N2 (frac < -1) on the local arc only
            (cusp_local_model(self.F_MIX), local_levels, (-1.6, -1.0, -0.3, 0.2, 0.7, 1.0)),
            (cusp_compact_model(self.F_MIX), compact_levels, (-1.0, -0.3, 0.2, 0.7, 1.0)),
        ):
            for lam, h in levels:
                fracs = [rng.uniform(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
                for xy in self._arc_points(model, lam, h, fracs):
                    yield model, lam, xy

    def test_engine_matches_ode_oracle(self):
        n_past_n2 = 0
        for model, lam, xy in self._cases():
            rs = ReducedSystem(SymplecticModel(model))
            t_engine = rs.section_time(xy, lam)
            t_ode = ode_section_time(rs, xy, lam)
            assert abs(t_engine - t_ode) <= 1e-10 * t_ode
            n_past_n2 += xy[0] < -model.x0
        assert n_past_n2 == 3

    def test_one_dof_through_the_sign_bridge(self):
        rs = ReducedSystem(SymplecticModel(one_dof_model(self.F_MIX)))
        for xy, lam in (((0.5, 0.9), 0.2), ((-0.7, 0.95), -0.1), ((-1.3, 1.3), 0.0)):
            t_ode = ode_section_time(rs, xy, lam)
            assert abs(rs.section_time(xy, lam) - t_ode) <= 1e-10 * t_ode

    def test_additivity(self):
        rs = ReducedSystem(SymplecticModel(cusp_local_model(self.F_MIX)))
        xy, lam = (0.9, -0.7), -0.25
        t0 = rs.section_time(xy, lam)
        for tau in (0.3, 1.1, 2.5):
            moved = rs.reduced_flow(xy, lam, tau)
            assert abs(rs.section_time(moved, lam) - (t0 + tau)) < 1e-10 * (t0 + tau)

    def test_point_on_n1_has_time_zero(self):
        rs = ReducedSystem(SymplecticModel(cusp_local_model(self.F_MIX)))
        (xy,) = self._arc_points(rs.sm.model, -0.3, 0.05, [1.0])
        assert abs(xy[0] - 1.0) < 1e-12
        assert rs.section_time(xy, -0.3) < 1e-12

    def test_zero_checked_on_its_branch(self):
        # f = 1 + 5x vanishes at x = -0.2 only: on the branch x < 0, which the
        # arc from N1 to a point with x > 0 never reaches
        f = Density({(0, 0, 0): 1.0, (1, 0, 0): 5.0})
        rs = ReducedSystem(SymplecticModel(cusp_local_model(f)))
        before, past = self._arc_points(rs.sm.model, -0.3, 0.05, [0.5, -0.8])
        assert before[0] > 0 and past[0] < -0.2
        t_ode = ode_section_time(rs, before, -0.3)
        assert abs(rs.section_time(before, -0.3) - t_ode) <= 1e-10 * t_ode
        with pytest.raises(ValueError, match="density vanishes on the trajectory"):
            rs.section_time(past, -0.3)

    def test_off_arc_points_rejected(self):
        local = ReducedSystem(SymplecticModel(cusp_local_model(F_ONE)))
        compact = ReducedSystem(SymplecticModel(cusp_compact_model(F_ONE)))
        # before N1 (x > x0), on a closed narrow oval, on the wide oval's
        # branch x > 0 below its lower crossing of {x = x0}
        narrow = _oval_point(local.sm.model, 0.0, -0.3)[:2]
        for rs, xy, lam in (
            (local, (1.2, -1.2), -0.3),
            (local, narrow, -0.3),
            (compact, (0.1, -0.966), -0.219),
        ):
            with pytest.raises(ValueError, match="does not reach the section"):
                rs.section_time(xy, lam)

    def test_negative_density_and_t_max_rejected(self, monkeypatch):
        rs = ReducedSystem(SymplecticModel(cusp_local_model(Density.constant(-1))))
        xy = _branch_point(SymplecticModel(cusp_local_model(F_ONE)), -0.3, 0.034)[:2]
        with pytest.raises(ValueError, match="does not reach the section"):
            rs.section_time(xy, -0.3)
        rs = ReducedSystem(SymplecticModel(cusp_local_model(F_ONE)))
        t = rs.section_time(xy, -0.3)
        monkeypatch.setattr(flows, "SECTION_T_MAX", 1.01 * t)
        assert rs.section_time(xy, -0.3) == t
        monkeypatch.setattr(flows, "SECTION_T_MAX", 0.99 * t)
        with pytest.raises(ValueError, match="does not reach the section"):
            rs.section_time(xy, -0.3)

    def test_batch_matches_scalar_calls(self):
        # N1 (frac 1) and, on the local arc, past N2 (frac < -1) in every batch
        for make, lam, h, fracs in (
            (cusp_local_model, -0.3, 0.05, [1.0, 0.6, -0.4, -1.3]),
            (cusp_compact_model, 0.035, 0.0, [1.0, 0.5, -0.2, -0.9]),
        ):
            rs = ReducedSystem(SymplecticModel(make(self.F_MIX)))
            xy = np.array(self._arc_points(rs.sm.model, lam, h, fracs))
            xy[0, 0] = rs.sm.model.x0
            batch = rs.section_time(xy, lam)
            assert batch[0] == 0.0 and np.all(batch[1:] > 0.0)
            assert batch.tolist() == [rs.section_time(p, lam) for p in xy]
            assert batch.tolist() == [
                quadrature.section_time(rs.sm.model, x, y, lam) for x, y in xy
            ]

    def test_one_dof_batch_through_the_sign_bridge(self):
        # one lambda per row; (1, 1.2) lies on N1
        rs = ReducedSystem(SymplecticModel(one_dof_model(self.F_MIX)))
        xy = np.array([(0.5, 0.9), (-0.7, 0.95), (-1.3, 1.3), (1.0, 1.2)])
        lams = np.array([0.2, -0.1, 0.0, 0.3])
        batch = rs.section_time(xy, lams)
        assert batch[3] == 0.0
        assert batch.tolist() == [rs.section_time(p, l) for p, l in zip(xy, lams)]

    def test_batch_with_off_arc_point_raises(self):
        rs = ReducedSystem(SymplecticModel(cusp_local_model(F_ONE)))
        good = _branch_point(rs.sm, -0.3, 0.034)[:2]
        for bad in ((1.2, -1.2), _oval_point(rs.sm.model, 0.0, -0.3)[:2]):
            with pytest.raises(ValueError, match="does not reach the section"):
                rs.section_time(np.array([good, bad, good]), -0.3)

    def test_no_ode_solve(self, monkeypatch):
        calls = []
        real = flows._solve
        monkeypatch.setattr(flows, "_solve", lambda *a, **k: calls.append(1) or real(*a, **k))
        rs = ReducedSystem(SymplecticModel(cusp_local_model(self.F_MIX)))
        for xy in self._arc_points(rs.sm.model, -0.3, 0.05, [-1.2, 0.5]):
            rs.section_time(xy, -0.3)
        assert calls == []


class TestLoopPeriodClosedForm:
    def test_loop_period_matches_carlson(self):
        # f = 1: Pi_o = 2 R_F(0, e2 - e1, e3 - e1), across the swallow-tail and
        # up to 1e-5 of Sigma_hyp relative to H_hyp; closer, the engine's
        # double-precision roots of the level cost more (1e-11 at 1e-6)
        model = cusp_local_model(F_ONE)
        for lam in (-0.5, -0.3, -0.05, -1e-3, -1e-5):
            h_hyp = 2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
            for frac in (-0.999, -0.3, 0.4, 0.9, 0.9999, 1.0 - 1e-5):
                ref = carlson_loop_period(frac * h_hyp, lam)
                assert abs(loop_period(model, frac * h_hyp, lam) - ref) <= 1e-12 * ref
