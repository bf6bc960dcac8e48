import math
import re

import numpy as np
import pytest

from cuspinv import model as model_module
from cuspinv import quadrature
from cuspinv.model import (
    DEFAULT_DOMAIN_RADIUS,
    Density,
    FibrationModel,
    bifurcation_diagram,
    cusp_compact_model,
    cusp_local_model,
    node_model,
    one_dof_model,
    saddles,
)
from cuspinv.flows import SymplecticModel, period_lattice
from cuspinv.quadrature import (
    ActionChart,
    ActionChartRow,
    LevelJobs,
    OnSigmaError,
    StratumError,
    action_chart,
    loop_action,
    area_kernel,
    form_kernel,
    integrals,
    loop_period,
    oval_bounds,
    oval_jobs,
    passage_jobs,
    passage_time,
    section_time,
    separatrix_action,
    wide_action,
)
from cuspinv.specfun import puiseux_constants

from oracles import (
    exact_level,
    grid_area,
    local_sigma_values,
    mp_passage_ends,
    mp_passage_time,
    mp_wide_form,
    onedof_section_area,
    polymul_zero_poly,
    quad_area_kernel,
    quad_form_kernel,
    quad_level_integral,
    reference_Jj,
    reference_polish,
    reference_real_roots,
    scalar_level,
    scalar_oval_job,
    scalar_oval_ends,
    scalar_passage_job,
)

F_ONE = Density.constant(1)
F_Y = Density({(0, 1, 0): 1})
F_MIXED = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.1, (2, 0, 0): 0.05})
#: lambda terms, two of them sharing an (i, j) with a lambda-free term
F_LAMBDA = Density(
    {(0, 0, 0): 1.0, (0, 1, 1): 0.5, (0, 0, 1): -0.3, (0, 1, 0): 0.1, (2, 0, 2): 0.4, (1, 1, 0): 0.05}
)


def _at_lambda(f: Density, lam: float) -> Density:
    """The lambda-free density f(x, y, lam), each term c lam^k."""
    return Density([(c * lam**k, (i, j, 0)) for (i, j, k), c in f.terms.items()])


class TestOvalBounds:
    def test_local_exact_roots(self):
        a, b = oval_bounds(cusp_local_model(), 0.0, -3.0)
        assert abs(a) < 1e-12
        assert abs(b - math.sqrt(3.0)) < 1e-12

    def test_cusp_value_rejected(self):
        with pytest.raises(OnSigmaError):
            oval_bounds(cusp_local_model(), 0.0, 0.0)

    def test_compact_wide_through_cusp(self):
        a, b = oval_bounds(cusp_compact_model(), 0.0, 0.0, "wide")
        assert abs(a + 1.0) < 1e-10
        assert abs(b) < 1e-10

    def test_positive_inside(self):
        m = cusp_compact_model()
        a, b = oval_bounds(m, 0.0, -0.05, "narrow")
        wc = m.potential_coeffs(-0.05)
        mid = 0.5 * (a + b)
        assert 0.0 - np.polyval(wc, mid) > 0

    def test_no_wide_for_local(self):
        with pytest.raises(ValueError):
            oval_bounds(cusp_local_model(), 0.0, -1.0, "wide")

    def test_one_dof_has_no_ovals(self):
        with pytest.raises(ValueError):
            oval_bounds(one_dof_model(), 0.5, 0.0)


class TestPassageTime:
    def test_against_closed_forms(self):
        m1 = one_dof_model(F_ONE)
        my = one_dof_model(F_Y)
        for H in (0.1, 0.5, 1.0):
            assert abs(passage_time(m1, H) - reference_Jj(H, 0)) < 1e-8
            assert abs(passage_time(my, H) - reference_Jj(H, 1)) < 1e-8

    def test_fractional_remainder_bounded(self):
        c0 = puiseux_constants()["C0"]
        m1 = one_dof_model(F_ONE)
        remainders = [
            passage_time(m1, 10.0**-k) - c0 * (10.0**-k) ** (-1.0 / 6.0)
            for k in (2, 4, 6, 8)
        ]
        spread = max(remainders) - min(remainders)
        assert spread < 2e-3
        assert abs(remainders[-1] + 2.0) < 1e-5  # analytic value at 0 is -2

    def test_onedof_requires_positive_H(self):
        with pytest.raises(ValueError):
            passage_time(one_dof_model(F_ONE), -0.5)

    def test_node_routed_elsewhere(self):
        with pytest.raises(ValueError):
            passage_time(node_model(), 0.5)

    def test_linearity_in_density(self):
        rng = np.random.default_rng(9)
        f1 = Density({(0, 0, 0): 1.0, (0, 2, 0): 0.3})
        f2 = Density({(0, 1, 0): 1.0, (2, 0, 0): -0.2})
        for _ in range(3):
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            combo = one_dof_model(f1 * a + f2 * b)
            v = passage_time(combo, 0.3)
            v1 = passage_time(one_dof_model(f1), 0.3)
            v2 = passage_time(one_dof_model(f2), 0.3)
            assert abs(v - (a * v1 + b * v2)) < 1e-10 * max(1.0, abs(v))

    def test_sign_bridge_matches_one_dof(self):
        # cusp_local at lambda = 0, level -H equals one_dof at level H with
        # the mirrored density
        f5 = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.25, (1, 0, 0): 0.1})
        m5 = cusp_local_model(f5)
        m4 = one_dof_model(f5.mirror_y())
        for H in (0.05, 0.3):
            assert abs(passage_time(m5, -H, 0.0) - passage_time(m4, H)) < 1e-10

    def test_local_inside_swallowtail(self):
        val = passage_time(cusp_local_model(F_ONE), 0.0, -0.3)
        assert val > 0

    def test_compact_passage_exists(self):
        val = passage_time(cusp_compact_model(F_ONE), 0.0, -0.05)
        assert val > 0

    def test_local_regular_side(self):
        # lambda > 0: no swallow-tail, single monotone branch
        val = passage_time(cusp_local_model(F_ONE), 0.1, 0.2)
        assert val > 0

    def test_compact_section_out_of_reach(self):
        # x0 too large for desk-scale compact fibers
        m = cusp_compact_model(F_ONE, x0=1.0)
        with pytest.raises(StratumError):
            passage_time(m, 0.0, -0.05)

    def test_hyperbolic_level_rejected(self):
        lam = -1.0
        h_hyp = 2.0 / (3.0 * math.sqrt(3.0))
        with pytest.raises(OnSigmaError):
            passage_time(cusp_local_model(F_ONE), h_hyp, lam)


class TestPassageArc:
    """The one arc rule behind passages and section times, against the
    40-digit oracle that finds its own turning points and crossings."""

    # two wide compact chart cells (x0 = 0.25) whose printed Pi (12 digits)
    # depends on the crossing of N1 being polished
    CELLS = (
        (
            {(0, 0, 0): 1.0, (0, 0, 1): 0.10140524346992263, (0, 1, 0): 0.019837475069223787,
             (0, 2, 0): 0.015257325287711287, (2, 0, 0): -0.18897635470277266},
            -0.006, 0.016,
        ),
        (
            {(0, 0, 0): 1.0, (0, 0, 1): 0.02506818672697836, (0, 1, 0): 0.04870310140824899,
             (0, 2, 0): -0.1668307492465294, (2, 0, 0): -0.07169786182608773},
            -0.007, -0.024,
        ),
    )

    def _grid(self):
        """Seeded (model, H, lambda): narrow levels of both models, the local
        model's regular side and the compact model's wide stratum."""
        rng = np.random.default_rng(41)
        for model in (cusp_local_model(F_CHART), cusp_compact_model(F_CHART)):
            diagram = bifurcation_diagram(model)
            for _ in range(3):
                lam = float(rng.uniform(-0.06, -0.01))
                h_ell, h_hyp = diagram.branch_values(lam)
                yield model, h_ell + float(rng.uniform(0.1, 0.9)) * (h_hyp - h_ell), lam
                yield model, float(rng.uniform(-0.01, 0.01)), float(rng.uniform(0.005, 0.03))

    def test_passages_match_mpmath(self):
        cells = [(cusp_compact_model(Density(terms)), h, lam) for terms, h, lam in self.CELLS]
        for model, h, lam in [*self._grid(), *cells]:
            ref = mp_passage_time(model, h, lam)
            assert abs(passage_time(model, h, lam) - ref) <= 1e-14 * abs(ref), (model.kind, h, lam)

    def test_section_time_on_n2_is_the_passage(self):
        points = [(m, h, lam, mp_passage_ends(m, h, lam)[1]) for m, h, lam in self._grid()]
        one_dof = one_dof_model(F_MIXED)
        points += [(one_dof, h, 0.0, (h + 1.0) ** (1.0 / 3.0)) for h in (0.05, 0.4)]
        for model, h, lam, y_sec in points:
            x0 = model.x0
            t = section_time(model, -x0, float(y_sec), lam)
            assert abs(t - passage_time(model, h, lam)) <= 1e-12 * t, (model.kind, h, lam)

    def test_one_dof_passage_reads_f_at_lambda(self):
        f = Density({(0, 0, 0): 1.0, (0, 1, 1): 0.5, (0, 0, 1): -0.3})
        at_lam = Density({(0, 0, 0): 1.0 - 0.3 * 0.4, (0, 1, 0): 0.5 * 0.4})
        v = passage_time(one_dof_model(f), 0.3, 0.4)
        assert abs(v - passage_time(one_dof_model(at_lam), 0.3)) <= 1e-13 * v
        assert abs(v - passage_time(one_dof_model(f), 0.3, 0.0)) > 1e-3

    def test_one_kernel_for_every_lambda_through_the_bridge(self):
        # one batch, one kernel, its rows at the lambdas asked; each row's
        # value is its scalar call's, bit for bit
        model = one_dof_model(F_LAMBDA)
        points = [(0.1, 0.0), (0.2, 0.5), (0.3, 0.0), (0.4, -0.2)]
        jobs = passage_jobs(model, points)
        assert jobs.lam.tolist() == [lam for _, lam in points]
        assert integrals(jobs).tolist() == [passage_time(model, h, lam) for h, lam in points]

    @pytest.mark.parametrize("lam", [-0.2, 0.3])
    def test_bridge_reads_the_density_at_lambda(self, lam):
        # the lambda-dependent density at lambda against the lambda-free one
        # it gives there at lambda = 0: equal up to the rounding of c lambda^k
        model, fixed = one_dof_model(F_LAMBDA), one_dof_model(_at_lambda(F_LAMBDA, lam))
        for h in (0.01, 0.3, 1.5):
            want = passage_time(fixed, h)
            assert passage_time(model, h, lam) == pytest.approx(want, rel=1e-15, abs=0.0)
        y_sec = [(h + model.x0**2) ** (1.0 / 3.0) for h in (0.05, 0.4)]
        for x, y in [(0.5 * model.x0, 0.9), (-model.x0, y_sec[0]), (-0.3 * model.x0, y_sec[1])]:
            want = section_time(fixed, x, y, 0.0)
            assert section_time(model, x, y, lam) == pytest.approx(want, rel=1e-15, abs=0.0)


class TestLoopPeriod:
    def test_derivative_identity(self):
        m = cusp_local_model(F_MIXED)
        for (h, lam) in ((0.0, -3.0), (0.01, -0.3)):
            step = 1e-4 * max(1.0, abs(h))
            dI = (loop_action(m, h + step, lam) - loop_action(m, h - step, lam)) / (2 * step)
            pc = loop_period(m, h, lam)
            assert abs(2.0 * math.pi * dI - pc) <= 1e-5 * pc

    def test_density_doubling(self):
        p1 = loop_period(cusp_local_model(F_ONE), 0.0, -3.0)
        p2 = loop_period(cusp_local_model(Density.constant(2)), 0.0, -3.0)
        assert abs(p2 - 2.0 * p1) < 1e-12 * p2

    def test_log_divergence_towards_hyperbolic_branch(self):
        m = cusp_local_model(F_ONE)
        lam = -1.0
        h_hyp = 2.0 / (3.0 * math.sqrt(3.0))
        vals = [loop_period(m, h_hyp - 10.0**-k, lam) for k in (2, 3, 4, 5)]
        diffs = [v2 - v1 for v1, v2 in zip(vals, vals[1:])]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        # log growth: equal increments per decade
        assert abs(diffs[-1] - diffs[-2]) < 0.05 * diffs[-1]

    def test_rejected_on_sigma(self):
        with pytest.raises(OnSigmaError):
            loop_period(cusp_local_model(F_ONE), 2.0 / (3.0 * math.sqrt(3.0)), -1.0)


class TestLoopAction:
    def test_vanishes_at_elliptic_branch(self):
        m = cusp_local_model(F_ONE)
        lam = -3.0
        h_ell = -2.0 * 3.0**1.5 / (3.0 * math.sqrt(3.0))
        vals = [loop_action(m, h_ell + eps, lam) for eps in (1e-2, 1e-3, 1e-4)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] < 1e-3

    def test_exact_linearity(self):
        v1 = loop_action(cusp_local_model(F_ONE), 0.0, -3.0)
        v2 = loop_action(cusp_local_model(Density.constant(2)), 0.0, -3.0)
        assert abs(v2 - 2.0 * v1) < 1e-12 * v2

    def test_against_grid_oracle(self):
        m = cusp_local_model(F_ONE)
        area = grid_area(m, 0.0, -3.0, "narrow")
        assert abs(loop_action(m, 0.0, -3.0) - area / (2 * math.pi)) < 1e-4

    def test_monotone_in_H(self):
        m = cusp_local_model(F_MIXED)
        lam = -0.4
        hs = np.linspace(-0.9, 0.9, 7) * 2.0 * 0.4**1.5 / (3 * math.sqrt(3)) * 0.95
        vals = [loop_action(m, float(h), lam) for h in hs]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))

    def test_outside_stratum_rejected(self):
        with pytest.raises((OnSigmaError, StratumError)):
            loop_action(cusp_local_model(F_ONE), 1.0, -0.3)

    def test_random_two_term_linearity(self):
        rng = np.random.default_rng(8)
        f1 = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.4})
        f2 = Density({(0, 2, 0): 1.0, (2, 0, 0): 0.3})
        for op in (loop_action, loop_period):
            for _ in range(3):
                a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
                combo = op(cusp_local_model(f1 * a + f2 * b), 0.0, -3.0)
                parts = a * op(cusp_local_model(f1), 0.0, -3.0) + b * op(
                    cusp_local_model(f2), 0.0, -3.0
                )
                assert abs(combo - parts) < 1e-10 * max(1.0, abs(combo))


class TestWideAction:
    def test_mu_shift_is_exactly_lambda(self):
        m = cusp_compact_model(F_ONE)
        v0 = wide_action(m, 0.01, -0.04, k=0)
        v1 = wide_action(m, 0.01, -0.04, k=1)
        assert abs((v1 - v0) + 0.04) < 1e-15

    def test_single_oval_against_grid_oracle(self):
        m = cusp_compact_model(F_ONE)
        area = grid_area(m, 0.05, 0.0, "wide")
        assert abs(wide_action(m, 0.05, 0.0) - area / (2 * math.pi)) < 1e-4

    def test_continuity_across_separatrix(self):
        # wide area above Sigma_hyp tends to (wide + narrow) areas below
        m = cusp_compact_model(F_ONE)
        lam = -0.05
        h_hyp = bifurcation_diagram(m).hyperbolic_value(lam)
        gaps = []
        for eps in (1e-3, 1e-4, 1e-5):
            above = wide_action(m, h_hyp + eps, lam)
            below = wide_action(m, h_hyp - eps, lam) + loop_action(m, h_hyp - eps, lam)
            gaps.append(abs(above - below))
        # the neck contributes O(eps log eps), so the gap closes but slowly
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4

    def test_local_model_rejected(self):
        with pytest.raises(StratumError):
            wide_action(cusp_local_model(F_ONE), 0.0, -0.3)


class TestSeparatrixAction:
    def test_exact_value_for_unit_density(self):
        # closed form for f = 1, lambda = -1: the lobe area is (8/15) 3^(5/4)
        h = separatrix_action(cusp_local_model(F_ONE), -1.0)
        exact = (8.0 / 15.0) * 3.0 ** (5.0 / 4.0) / (2.0 * math.pi)
        assert abs(h - exact) < 1e-10

    def test_vanishes_at_cusp(self):
        m = cusp_local_model(F_ONE)
        vals = [separatrix_action(m, lam) for lam in (-0.2, -0.1, -0.05)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] < 1e-2

    def test_monotone_in_magnitude(self):
        m = cusp_local_model(F_ONE)
        lams = np.linspace(-1.0, -0.1, 7)
        vals = [separatrix_action(m, float(l)) for l in lams]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_positive_lambda_rejected(self):
        with pytest.raises(ValueError):
            separatrix_action(cusp_local_model(F_ONE), 0.1)

    def test_compact_model_supported(self):
        h = separatrix_action(cusp_compact_model(F_ONE), -0.05)
        assert h > 0

    def test_equals_limit_of_loop_action(self):
        m = cusp_local_model(F_ONE)
        lam = -0.5
        h_hyp = 2.0 * 0.5**1.5 / (3.0 * math.sqrt(3.0))
        limit = loop_action(m, h_hyp - 1e-7, lam)
        assert abs(separatrix_action(m, lam) - limit) < 1e-5

    def test_tiny_lambda_on_both_models(self):
        # the lobe is ~3|a| = sqrt(-3 lambda) wide; near the cusp the compact
        # model's lobe tends to the local one
        for lam in (-3e-7, -1e-8, -1e-12):
            h_local = separatrix_action(cusp_local_model(F_ONE), lam)
            h_compact = separatrix_action(cusp_compact_model(F_ONE), lam)
            assert h_local > 0
            assert abs(h_compact / h_local - 1.0) < 1e-3

    @pytest.mark.parametrize("model", [cusp_local_model, cusp_compact_model])
    def test_arrays_are_the_scalar_values(self, model, monkeypatch):
        m = model(F_MIXED)
        lams = -np.geomspace(1e-8, 0.2, 6).reshape(2, 3)
        want = [separatrix_action(m, lam) for lam in lams.ravel()]
        calls = _count_root_solves(monkeypatch)
        engine_calls = []
        real_engine = quadrature._level_integrals
        monkeypatch.setattr(
            quadrature,
            "_level_integrals",
            lambda *batches: engine_calls.append(_rows(batches)) or real_engine(*batches),
        )
        got = separatrix_action(m, lams)
        # one saddle solve, one solve of the levels and their W', one engine call of one batch
        assert [len(c) for c in calls] == [6, 12] and engine_calls == [(1, 6)]
        assert got.shape == (2, 3) and got.ravel().tolist() == want
        assert type(want[0]) is float

    def test_array_with_a_missing_saddle(self):
        m = cusp_compact_model(F_ONE)
        with pytest.raises(StratumError, match="lambda=-0.3$"):
            separatrix_action(m, [-0.05, -0.3])
        with pytest.raises(ValueError, match="lambda < 0"):
            separatrix_action(m, [-0.05, 0.0])


class TestQuasiHomogeneity:
    # H = x^2 + y^3 + lambda y has weights (x, y, H, lambda) = (3, 2, 6, 4)
    LAM0 = -0.05
    SCALES = (0.3, 0.1, 0.03, 0.01)

    def _points(self):
        h_hyp = 2.0 * (-self.LAM0 / 3.0) ** 1.5
        return [t * h_hyp for t in (-0.5, 0.0, 0.5)]

    def test_loop_period_and_action(self):
        m = cusp_local_model(F_ONE)
        for h in self._points():
            p0, i0 = loop_period(m, h, self.LAM0), loop_action(m, h, self.LAM0)
            for s in self.SCALES:
                hs, ls = s**6 * h, s**4 * self.LAM0
                assert abs(s * loop_period(m, hs, ls) - p0) <= 1e-10 * p0
                assert abs(loop_action(m, hs, ls) - s**5 * i0) <= 1e-10 * s**5 * i0

    def test_separatrix_action(self):
        m = cusp_local_model(F_ONE)
        h0 = separatrix_action(m, self.LAM0)
        for s in self.SCALES:
            assert abs(separatrix_action(m, s**4 * self.LAM0) - s**5 * h0) <= 1e-10 * s**5 * h0


class TestFubini:
    def test_area_derivative_is_passage_time(self):
        f = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.2})
        step = 1e-4
        for H in (0.2, 0.6):
            darea = (
                onedof_section_area(f, H + step) - onedof_section_area(f, H - step)
            ) / (2 * step)
            pi_val = passage_time(one_dof_model(f), H)
            assert abs(darea - pi_val) <= 1e-5 * abs(pi_val)


class TestActionChart:
    def test_chart_contents(self):
        m = cusp_compact_model(F_ONE)
        hs = [-0.003, 0.0, 0.003]
        ls = [-0.05, -0.02, 0.01]
        chart = action_chart(m, hs, ls)
        assert len(chart.rows) == 9
        for row in chart.rows:
            if row.stratum != "outside":
                assert row.I == row.lam
            if row.stratum == "narrow":
                assert row.I_circ is not None and row.I_circ > 0
                assert row.Pi_circ is not None and row.Pi_circ > 0

    def test_csv_header_and_determinism(self):
        m = cusp_compact_model(F_ONE)
        chart1 = action_chart(m, [0.0], [-0.05])
        chart2 = action_chart(m, [0.0], [-0.05])
        assert chart1.to_csv().splitlines()[0] == "H,lambda,stratum,Pi,Pi_circ,I,I_circ,I_mu"
        assert chart1.to_csv() == chart2.to_csv()

    def test_csv_by_column_equals_row_by_row(self):
        # each value of a column formatted once: signed zeros, which are
        # equal, keep their own signs; None is an empty entry
        rows = [
            ActionChartRow(h, lam, stratum, v, None, lam, -v, 1.0)
            for h, lam, stratum, v in [
                (-0.0, 0.0, "narrow", 0.0),
                (0.0, -0.0, "wide", -0.0),
                (-0.0, -0.0, "outside", 1 / 3),
                (1e-17, 0.0, "narrow", 2.5e300),
                (0.0, 1e-17, "wide", -1 / 3),
                (-0.0, 0.0, "narrow", 0.0),
            ]
        ]

        def fmt(v):
            return v if isinstance(v, str) else "" if v is None else f"{v:.12g}"

        fields = ("H", "lam", "stratum", "Pi", "Pi_circ", "I", "I_circ", "I_mu")
        want = [",".join(fmt(getattr(r, k)) for k in fields) for r in rows]
        csv = ActionChart(rows, 0).to_csv()
        assert csv == "\n".join([ActionChart.CSV_HEADER, *want]) + "\n"
        assert "-0,0,narrow,0,,0,-0,1" in csv.splitlines()
        assert ActionChart([], 0).to_csv() == ActionChart.CSV_HEADER + "\n"

    def test_stratum_filter(self):
        m = cusp_compact_model(F_ONE)
        chart = action_chart(m, [-0.003, 0.0, 0.003], [-0.05, 0.01], stratum_filter="narrow")
        assert chart.rows
        assert all(r.stratum == "narrow" for r in chart.rows)

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    def test_odd_x_terms_leave_the_chart_bytes(self, make):
        # both kernels of an odd power of x are exactly 0
        hs, ls = np.linspace(-0.01, 0.01, 7), np.linspace(-0.06, 0.02, 7)
        odd = F_MIXED + Density({(1, 1, 0): 0.05, (1, 0, 1): 0.1})
        text = []
        for f in (F_MIXED, odd):
            chart = action_chart(make(f), hs, ls, mu_shift=1)
            text.append(chart.to_csv() + repr([vars(row) for row in chart.rows]))
        assert text[0] == text[1]

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    def test_density_odd_in_x_gives_zero_columns(self, make):
        # 0 where f = 1 has a value, blank where it has none
        hs, ls = np.linspace(-0.01, 0.01, 7), np.linspace(-0.06, 0.02, 7)
        odd = action_chart(make(Density({(1, 0, 0): 1.0, (1, 1, 1): 0.2})), hs, ls)
        ones = action_chart(make(F_ONE), hs, ls)
        assert [r.stratum for r in odd.rows] == [r.stratum for r in ones.rows]
        cells = [(getattr(a, k), getattr(b, k)) for a, b in zip(odd.rows, ones.rows) for k in CHART_FIELDS]
        assert all(v is None if w is None else v == 0.0 for v, w in cells)
        assert sum(w is not None for _, w in cells) > 0

    def test_mu_shift_column(self):
        m = cusp_compact_model(F_ONE)
        c0 = action_chart(m, [0.0], [-0.05], mu_shift=0)
        c1 = action_chart(m, [0.0], [-0.05], mu_shift=1)
        assert abs((c1.rows[0].I_mu - c0.rows[0].I_mu) - (-0.05)) < 1e-14


def _oval_integral(model, H, lam, kernel, oval):
    """The kernel's integral around the oval at (H, lambda): one job, one engine call."""
    return float(integrals(oval_jobs(model, [(H, lam)], kernel, oval))[0])


class TestOvalLoopIntegral:
    def test_wide_loop_integral_is_dImu_dH(self):
        m = cusp_compact_model(F_ONE)
        h, lam = 0.05, 0.02
        step = 1e-4
        d_fd = (wide_action(m, h + step, lam) - wide_action(m, h - step, lam)) / (2 * step)
        d_q = _oval_integral(m, h, lam, form_kernel(m.density), "wide") / (2.0 * math.pi)
        assert abs(d_fd - d_q) <= 1e-6 * abs(d_q)


class TestRoundoffFloor:
    # just above the saddle's level W(a) the wide oval pinches at a; there the
    # integrand peaks at many times its mean, and the subintervals next to the
    # pinch reach the rule's round-off floor, 50 eps times their integral of
    # |integrand|, above the error the job's tolerance allows
    LAM = -0.05

    def _gap_level(self, gap):
        m = cusp_compact_model(F_ONE)
        (w_a,) = saddles(m, np.array([self.LAM]))[2]
        return m, float(w_a) + gap

    def test_subinterval_at_the_floor_is_accepted(self):
        # bisecting such a subinterval gains nothing, so it is accepted there
        m, h = self._gap_level(1e-7)
        value = _oval_integral(m, h, self.LAM, form_kernel(m.density), "wide")
        assert value == pytest.approx(mp_wide_form(m, h, self.LAM), rel=2e-12)

    def test_level_past_the_floor_still_raises(self):
        # nearer the saddle's level even the floor is out of reach: a named
        # error, no silently finite value
        m, h = self._gap_level(1e-8)
        jobs = oval_jobs(m, [(h, self.LAM)], form_kernel(m.density), "wide")
        assert np.isnan(quadrature._level_integrals(jobs)).all()
        with pytest.raises(OnSigmaError):
            integrals(jobs)


def _level_coeffs(model, H, lam):
    """P = H - W at lambda, highest coefficient first, as a tuple."""
    p = -np.asarray(model.potential_coeffs(lam), dtype=float)
    p[-1] += H
    return tuple(p)


def _rows(batches) -> tuple[int, int]:
    """(batches, rows without an error) of an engine call."""
    return len(batches), sum(error is None for jobs in batches for error in jobs.errors)


def _count_root_solves(monkeypatch):
    """The polynomial batches handed to the stacked root solve, wherever it is called."""
    calls = []
    real_roots = model_module._stacked_roots

    def counted(polys):
        calls.append([tuple(p) for p in polys])
        return real_roots(polys)

    monkeypatch.setattr(model_module, "_stacked_roots", counted)
    return calls


class TestEngine:
    def test_roots_isolated_once_per_call(self, monkeypatch):
        # a scalar call is a batch of one: one stacked solve, of the level
        # and the W' of its lambda or, for a passage, of these and its section
        calls = _count_root_solves(monkeypatch)
        m = cusp_compact_model(F_MIXED)
        for fn, args, polys in (
            (loop_period, (m, 0.0, -0.05), 2),
            (loop_action, (m, 0.0, -0.05), 2),
            (wide_action, (m, 0.0, -0.05), 2),
            (_oval_integral, (m, 0.0, -0.05, form_kernel(F_Y), "narrow"), 2),
            (_oval_integral, (m, 0.05, 0.02, area_kernel(F_Y), "wide"), 2),
            (passage_time, (m, 0.0, -0.05), 3),
            (oval_bounds, (m, 0.0, -0.05), 2),
        ):
            calls.clear()
            assert fn(*args) != 0.0
            assert [len(c) for c in calls] == [polys], fn.__name__

    def test_area_integral_requires_density(self):
        with pytest.raises(TypeError):
            area_kernel(lambda x, y, lam: 1.0 + 0 * x)


F_CHART = Density(
    {(0, 0, 0): 1.0, (0, 1, 0): 0.13, (2, 0, 0): -0.07, (1, 1, 0): 0.05, (0, 0, 1): 0.15}
)
CHART_FIELDS = ("Pi", "Pi_circ", "I_circ", "I_mu")


def _quad_cell(model, H, lam, name):
    """A chart cell from scipy's scalar quad on the ends of the scalar job route."""
    level = scalar_level(model, H, lam, model.x0)
    f = model.density
    if name == "Pi":
        job = scalar_passage_job(None, level)
        return quad_level_integral(level.p, quad_form_kernel(f.eval, lam), job.a[0], job.b[0], False)
    a, b = scalar_oval_ends(level, "wide" if name == "I_mu" else "narrow")
    if name == "Pi_circ":
        return quad_level_integral(level.p, quad_form_kernel(f.eval, lam), a, b, True)
    return quad_level_integral(level.p, quad_area_kernel(f, lam), a, b, True) / (2.0 * math.pi)


def _cells(chart):
    for row in chart.rows:
        for name in CHART_FIELDS:
            value = getattr(row, name)
            if value is not None:
                yield row, name, value


class TestBatchedEngine:
    GRID = (np.linspace(-0.01, 0.01, 9), np.linspace(-0.06, 0.02, 9))
    # (H, lambda) on wide-stratum passages next to Sigma_hyp, where a fixed
    # 128-node Gauss-Legendre rule is still 2e-4 off
    NEAR_SIGMA = ((0.005, -0.052), (0.01, -0.048))

    def _charts(self):
        compact, local = cusp_compact_model(F_CHART), cusp_local_model(F_CHART)
        yield compact, action_chart(compact, *self.GRID)
        yield local, action_chart(local, *self.GRID)
        for h, lam in self.NEAR_SIGMA:
            yield compact, action_chart(compact, [h], [lam])

    def test_chart_matches_scalar_quad(self):
        names = set()
        for model, chart in self._charts():
            for row, name, value in _cells(chart):
                want = _quad_cell(model, row.H, row.lam, name)
                assert abs(value - want) <= 1e-13 * abs(want), (model.kind, row, name)
                names.add(name)
        assert names == set(CHART_FIELDS)

    SCALAR = {"Pi": passage_time, "Pi_circ": loop_period, "I_circ": loop_action, "I_mu": wide_action}

    def test_chart_cells_are_sums_of_monomial_scalar_values(self):
        # the sum over f's terms of even i, in _plan order from 0.0, of
        # (c lambda^k) times the scalar value of the unit monomial x^i y^j
        for model, chart in self._charts():
            terms = [(c, i, j, k) for c, i, j, k in model.density._plan[0] if i % 2 == 0]
            assert len(terms) < len(model.density.terms)  # F_CHART's x y has no column
            for row, name, value in _cells(chart):
                want = 0.0
                for c, i, j, k in terms:
                    unit = FibrationModel(model.kind, Density({(i, j, 0): 1.0}), model.x0)
                    want = want + c * math.prod([row.lam] * k) * self.SCALAR[name](unit, row.H, row.lam)
                assert value == want, (model.kind, row, name)

    def test_chart_cells_are_the_scalar_values_to_1e_13(self):
        # the bound test_chart_matches_scalar_quad holds the chart to
        for model, chart in self._charts():
            for row, name, value in _cells(chart):
                want = self.SCALAR[name](model, row.H, row.lam)
                assert abs(value - want) <= 1e-13 * abs(want), (model.kind, row, name)

    def test_one_root_solve_per_window_and_one_engine_call_for_new_monomials(self, monkeypatch):
        # one stacked solve of the levels and sections of all cells in the
        # domain with the W' of their lambdas, which gives the strata too, and
        # one engine call for the even-x monomials new to the window
        engine_calls = []
        real_engine = quadrature._level_integrals

        def engine(*batches):
            engine_calls.append(_rows(batches)[1])
            return real_engine(*batches)

        monkeypatch.setattr(quadrature, "_level_integrals", engine)
        root_calls = _count_root_solves(monkeypatch)
        hs, ls = self.GRID[0], [*self.GRID[1], 0.09]  # a row past the radius
        for make in (cusp_compact_model, cusp_local_model):
            model = make(F_CHART)  # the monomials 1 (also as lambda), y, x^2 and x y
            engine_calls.clear()
            root_calls.clear()
            chart = action_chart(model, hs, ls)
            near = [r for r in chart.rows if math.hypot(r.H, r.lam) <= DEFAULT_DOMAIN_RADIUS]
            polys = [_level_coeffs(model, r.H, r.lam) for r in near]
            polys += [_level_coeffs(model, r.H - model.x0**2, r.lam) for r in near]
            near_lams = dict.fromkeys(r.lam for r in near)
            dws = [(0.0, *np.polyder(model.potential_coeffs(lam))) for lam in near_lams]
            inside = [r for r in chart.rows if r.stratum != "outside"]
            assert len(engine_calls) == 1 and engine_calls[0] > 3 * len(inside) > 0
            assert len(near) < len(chart.rows)
            assert len(root_calls) == 1
            assert sorted(root_calls[0]) == sorted(polys + dws)
            # every level polynomial is solved exactly once
            solved = [p for c in root_calls for p in c]
            assert all(solved.count(p) == 1 for p in polys)
            # a density of seen monomials: no call, no solve; y^2 is new
            action_chart(make(Density({(0, 1, 1): 2.0, (2, 0, 0): 0.1, (1, 0, 0): 0.3})), hs, ls)
            assert (len(engine_calls), len(root_calls)) == (1, 1)
            action_chart(make(Density({(0, 0, 0): 1.0, (0, 2, 0): 0.1})), hs, ls)
            assert (len(engine_calls), len(root_calls)) == (2, 1)

    @pytest.mark.parametrize("model", [cusp_local_model(F_CHART), cusp_compact_model(F_CHART)])
    @pytest.mark.parametrize("with_sections", [False, True])
    def test_levels_are_batches_of_single_levels(self, model, with_sections):
        # the chart grid holds H = 0, where the level has the root y = 0
        x0 = model.x0 if with_sections else None
        points = [(h, lam) for lam in self.GRID[1] for h in self.GRID[0]]
        assert any(h == 0.0 for h, _ in points)
        levels = quadrature._levels(model, points, x0)
        assert levels.points == points
        for i, (h, lam) in enumerate(points):
            single = quadrature._levels(model, [(h, lam)], x0)
            for name in ("p", "roots", "crit", "interval", "rises", "sigma", "sections"):
                got, want = getattr(levels, name), getattr(single, name)
                assert (got is None and want is None) or np.array_equal(got[i], want[0], equal_nan=True), name
            # the route of np.roots and a scalar polish, one polynomial at a time
            level = scalar_level(model, h, lam, x0)
            assert levels.p[i].tobytes() == level.p.tobytes()
            count = len(level.roots)
            assert levels.roots[i, :count].tolist() == level.roots
            assert np.isnan(levels.roots[i, count:]).all()
            dw = np.polyder(model.potential_coeffs(lam))
            crit = sorted(reference_polish(dw, r) for r in reference_real_roots(dw))
            assert levels.crit[i, : len(crit)].tolist() == crit
            assert np.isnan(levels.crit[i, len(crit) :]).all()
            # off Sigma, W rises on a root's interval where W' > 0 at the root
            # (at the cusp point the triple root y = 0 is W's inflection)
            for r, rises in zip(level.roots, levels.rises[i].tolist()):
                assert levels.sigma[i].any() or np.polyval(dw, r) == 0 or rises == (np.polyval(dw, r) > 0)
            assert not levels.rises[i, count:].any()
            if with_sections:
                row = levels.sections[i]
                assert row[~np.isnan(row)].tolist() == level.section
            else:
                assert levels.sections is None

    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    def test_levels_match_exact_root_isolation(self, make):
        # each level's real roots and their intervals between the critical
        # points, against sympy's isolation at the same (H, lambda) read as
        # rationals: across the plane, in the compact model's chamber where
        # W(d) > W(e), past lambda = -1/4, and 1e-9 and 1e-6 of the Sigma
        # rule's scale off each critical value
        model = make()
        lams = [-0.3, -0.2499, -0.1994, -0.12, -0.05, -1e-3, -1e-6, 0.0, 0.01, 0.07]
        points = [(h, lam) for lam in lams for h in (-0.11, -0.05, -0.01, 0.005, 0.01065, 0.05, 0.2)]
        for lam, crit in zip(lams, quadrature._levels(model, [(0.0, lam) for lam in lams]).crit):
            values = np.polyval(model.potential_coeffs(lam), crit[~np.isnan(crit)])
            gaps = np.abs(np.diff(values))
            for i, v in enumerate(values):
                scale = min([1.0, *gaps[max(i - 1, 0) : i + 1]])
                points += [(float(v + t * scale), lam) for t in (1e-9, -1e-9, 1e-6, -1e-6, 0.3, -0.3)]
        levels = quadrature._levels(model, points)
        for (h, lam), roots, interval, crit, sigma in zip(
            points, levels.roots, levels.interval, levels.crit, levels.sigma
        ):
            exact = exact_level(model.kind, h, lam)
            if (h, lam) == (0.0, 0.0):  # the gap 0 of W's inflection puts every t on it
                assert exact is None
                continue
            count = int((~np.isnan(roots)).sum())
            assert not sigma.any()
            assert (interval[:count].tolist(), int((~np.isnan(crit)).sum())) == exact, (h, lam)

    def test_batches_answer_in_the_callers_order(self):
        # wide ovals under the form and the area kernel, passage arcs under the
        # same form kernel and node jobs, each batch split in two, so that
        # batches share their kernel, the passage arcs whole as well, and
        # shuffled: each row's value is bit for bit what its batch alone gives,
        # at the row's place in the call, and NaN where the row has an error
        # (a level below the wells, the arcs that miss the sections); the two
        # halves of the arcs give the bits of the whole
        m = cusp_compact_model(F_CHART)
        form, area = form_kernel(m.density), area_kernel(m.density)
        points = [(h, lam) for h in (-0.008, 0.0, 0.006) for lam in (-0.05, -0.01, 0.02)]
        levels = quadrature._levels(m, [*points, (-0.2, 0.0)], m.x0)
        rng = np.random.default_rng(17)
        parts = []
        arcs = quadrature._arc_jobs(form, levels, -math.inf)
        for jobs in (
            quadrature._oval_jobs(form, levels, "wide"),
            quadrature._oval_jobs(area, levels, "wide"),
            arcs,
            quadrature.node_jobs(F_MIXED, [0.05, 0.2, 0.6]),
        ):
            cut, n = int(rng.integers(1, len(jobs.errors))), len(jobs.errors)
            parts += [jobs.take(list(range(cut))), jobs.take(list(range(cut, n)))]
        parts.append(arcs)
        assert len({(id(jobs.kernel), jobs.sub) for jobs in parts}) == 4
        alone = [quadrature._level_integrals(jobs) for jobs in parts]
        assert np.concatenate(alone[4:6]).tobytes() == alone[-1].tobytes()
        errors = [error is not None for jobs in parts for error in jobs.errors]
        assert 0 < sum(errors) < len(errors)
        assert np.isnan(np.concatenate(alone)[errors]).all()
        order = rng.permutation(len(parts)).tolist()
        got = quadrature._level_integrals(*(parts[k] for k in order))
        want = np.concatenate([alone[k] for k in order])
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]

    def test_subinterval_limit_is_an_error(self, monkeypatch):
        # near Sigma_hyp the loop period needs many subintervals; a job that
        # runs out of them raises, in a chart as in the scalar call
        m = cusp_local_model(F_ONE)
        lam = -0.05
        h_ell, h_hyp = local_sigma_values(lam)
        h = h_hyp - 1e-6 * (h_hyp - h_ell)
        assert loop_period(m, h, lam) > 0
        assert action_chart(m, [h], [lam]).rows[0].stratum == "narrow"
        monkeypatch.setattr(quadrature, "QUAD_LIMIT", 2)
        quadrature._chart_table.cache_clear()  # the chart's columns under the patched limit
        with pytest.raises(OnSigmaError):
            loop_period(m, h, lam)
        with pytest.raises(OnSigmaError):
            action_chart(m, [h], [lam])


def _same_job(jobs, i, build):
    """Row i of ``jobs``, a batched builder's, is the job ``build()`` of the
    scalar route, a batch of one, bit for bit, or an error of the type and
    message it raises."""
    got = jobs.errors[i]
    try:
        want = build()
    except ValueError as exc:
        assert type(got) is type(exc) and str(got) == str(exc)
        return type(exc)
    assert got is None
    fields = ("a", "b", "lam", "lower", "upper")
    assert [getattr(jobs, k)[i].hex() for k in fields] == [getattr(want, k)[0].hex() for k in fields]
    assert jobs.sub == want.sub and jobs.r[i].tobytes() == want.r[0].tobytes()
    return LevelJobs


class TestBatchedBuilders:
    """The batched job builders against the scalar route of ``oracles``, one
    level at a time: ends, lambda, range and R bit for bit, errors by type
    and message, on every level off Sigma."""

    @staticmethod
    def _points(model, seed):
        # a random 21 x 21 grid over the chart window and beyond it, plus
        # points on Sigma_hyp and Sigma_ell, within 1e-13 and 1e-9 of them,
        # and 5 below every well
        rng = np.random.default_rng(seed)
        hs = np.sort(rng.uniform(-0.012, 0.012, 21))
        ls = np.sort(rng.uniform(-0.07, 0.03, 21))
        points = [(h, lam) for lam in ls for h in hs]
        d = bifurcation_diagram(model)
        for lam in ls[ls < -0.005]:
            h_ell, h_hyp = d.branch_values(lam)
            for s in (0.0, 1e-13, 1e-9, -1e-9):
                points += [(h_hyp - s * (h_hyp - h_ell), lam), (h_ell + s * (h_hyp - h_ell), lam)]
        return points + [(-0.2, lam) for lam in ls[::5]]

    @pytest.mark.parametrize("seed", [3, 17])
    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    def test_chart_builders_match_scalar_route(self, make, seed):
        model = make(F_CHART)
        points = self._points(model, seed)
        levels = quadrature._levels(model, points, model.x0)
        form, area = form_kernel(model.density), area_kernel(model.density)
        n = len(points)
        scalar = [scalar_level(model, h, lam, model.x0) for h, lam in points]
        seen = {}
        builders = [
            ("Pi", quadrature._arc_jobs(form, levels, -math.inf),
             lambda lv: scalar_passage_job(form, lv)),
            ("narrow", quadrature._oval_jobs(form, levels, "narrow"),
             lambda lv: scalar_oval_job(form, lv, "narrow")),
        ]
        if model.kind == "cusp_compact":
            builders.append(
                ("wide", quadrature._oval_jobs(area, levels, "wide"),
                 lambda lv: scalar_oval_job(area, lv, "wide"))
            )
        else:
            with pytest.raises(ValueError, match="compact model only"):
                quadrature._oval_jobs(area, levels, "wide")
        # the levels the rule puts on Sigma: the injected ones at 0 and 1e-13
        # of the spread from either branch, half of those past the grid
        on_sigma = levels.sigma.any(axis=1).tolist()
        assert sum(on_sigma) == (n - 21 * 21 - 5) // 2
        for name, built, build in builders:
            assert len(built.errors) == n and built.r.shape[0] == n
            assert built.kernel is (area if name == "wide" else form)
            for i, (level, on) in enumerate(zip(scalar, on_sigma)):
                if on and (name == "narrow" or isinstance(built.errors[i], OnSigmaError)):
                    # no narrow oval on Sigma, nor an oval or arc the rule refuses
                    assert isinstance(built.errors[i], OnSigmaError)
                    kind = OnSigmaError
                else:
                    kind = _same_job(built, i, lambda: build(level))
                seen.setdefault(name, set()).add(kind)
        # every route is taken: jobs, and the errors of Sigma and of the strata
        assert seen["narrow"] == {LevelJobs, OnSigmaError}
        if model.kind == "cusp_compact":
            # the blank-Pi region: wide levels whose arc misses the sections
            assert seen["Pi"] == {LevelJobs, StratumError, OnSigmaError}
            assert {LevelJobs, StratumError, OnSigmaError} <= seen["wide"]
        else:
            assert LevelJobs in seen["Pi"] and OnSigmaError in seen["Pi"]

    def test_one_dof_bridged_passages(self):
        rng = np.random.default_rng(5)
        model = one_dof_model(F_MIXED)
        points = [(h, lam) for h, lam in zip(rng.uniform(1e-4, 2.0, 40), rng.choice([-0.2, 0.0, 0.3], 40))]
        bridge = cusp_local_model()
        jobs = passage_jobs(model, points)
        assert len(jobs.errors) == len(points)
        for i, (h, lam) in enumerate(points):
            want = scalar_passage_job(None, scalar_level(bridge, -h, 0.0, model.x0))
            assert _same_job(jobs, i, lambda: want._replace(lam=np.array([lam]))) is LevelJobs

    @pytest.mark.parametrize(
        "make, h, lam, stratum",
        [
            (cusp_local_model, 0.0, -0.05, "narrow"),
            (cusp_compact_model, 0.0, -0.05, "narrow"),
            (cusp_compact_model, 0.05, 0.02, "wide"),
            (cusp_compact_model, -0.2, 0.0, "wide"),  # below W: no wide oval
            (cusp_local_model, 0.05, 0.02, "narrow"),  # off the swallow tail
        ],
    )
    def test_lattice_level_with_three_kernels(self, monkeypatch, make, h, lam, stratum):
        from cuspinv import flows

        sm = SymplecticModel(make(F_MIXED))
        level = scalar_level(sm.model, h, lam)
        engine = []
        monkeypatch.setattr(flows, "integrals", lambda *batches: engine.append(batches) or np.ones(len(batches)))
        try:
            want = scalar_oval_job(None, level, stratum)
        except ValueError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                period_lattice(sm, h, lam, stratum)
            return
        period_lattice(sm, h, lam, stratum)
        (batches,) = engine
        assert len(batches) == 3 and len({id(jobs.kernel) for jobs in batches}) == 3
        for jobs in batches:
            assert len(jobs.errors) == 1 and _same_job(jobs, 0, lambda: want) is LevelJobs


class TestZeroPoly:
    @pytest.mark.parametrize("make", [cusp_local_model, cusp_compact_model])
    def test_matches_polymul_roots_bit_for_bit(self, make):
        # x-odd terms take the E^2 - P O^2 branch; lambda = 0 under lambda^k
        # terms leaves leading zeros, which np.polymul trims
        rng = np.random.default_rng(53)
        for _ in range(40):
            exps = {tuple(int(v) for v in rng.integers(0, (6, 4, 4))) for _ in range(rng.integers(1, 6))}
            f = Density({(0, 0, 0): 1.0, **{e: float(rng.uniform(-0.5, 0.5)) for e in exps}})
            for lam in (0.0, float(rng.uniform(-0.06, 0.02))):
                p = np.trim_zeros(-make().potential_coeffs(lam), "f")
                p[-1] += float(rng.uniform(-0.01, 0.01))
                got, ref = quadrature._zero_poly(f, p, lam), polymul_zero_poly(f, p, lam)
                assert np.trim_zeros(got, "f").tobytes() == np.trim_zeros(ref, "f").tobytes()
                roots = model_module._stacked_roots([got, ref])
                assert roots[0].tobytes() == roots[1].tobytes()
