import cmath
import math

import numpy as np
import pytest

from cuspinv import asymptotics as asy
from cuspinv import model as model_module
from cuspinv.model import Density, cusp_compact_model, cusp_local_model, one_dof_model
from cuspinv.quadrature import passage_time
from cuspinv.series import PuiseuxTriple, TruncatedSeries
from cuspinv.specfun import puiseux_constants

from oracles import contour_node_complex_period, extract_log_coeff, loop_log_coeff, mp_log_coeff
from oracles import passage_log_coeff


class TestFitPuiseux:
    def test_synthetic_roundtrip(self):
        true = PuiseuxTriple(
            TruncatedSeries([2.4]), TruncatedSeries([-1.5]), TruncatedSeries([0.3, 1.0])
        )
        grid = [0.1 * 4.0**-m for m in range(11)]
        fit, report = asy.fit_puiseux([(h, true.eval(h)) for h in grid], order=(0, 0, 1))
        assert abs(fit.a.coeffs[0] - 2.4) < 1e-8
        assert abs(fit.b.coeffs[0] + 1.5) < 1e-8
        assert abs(fit.c.coeffs[1] - 1.0) < 1e-8
        assert not report.flagged

    def test_one_dof_unit_density(self):
        c = puiseux_constants()
        m = one_dof_model(Density.constant(1))
        grid = [0.1 * 4.0**-m for m in range(11)]
        fit, _ = asy.fit_puiseux([(h, passage_time(m, h)) for h in grid], order=2)
        assert abs(fit.a.coeffs[0] - c["C0"]) <= 1e-5 * c["C0"]
        assert abs(fit.b.coeffs[0]) <= 1e-5

    def test_one_dof_y_density(self):
        c = puiseux_constants()
        m = one_dof_model(Density({(0, 1, 0): 1}))
        grid = [0.1 * 4.0**-m for m in range(11)]
        fit, _ = asy.fit_puiseux([(h, passage_time(m, h)) for h in grid], order=2)
        assert abs(fit.b.coeffs[0] - c["C1"]) <= 1e-4 * abs(c["C1"])
        assert abs(fit.a.coeffs[0]) <= 1e-4

    def test_stability_under_grid_perturbation(self):
        m = one_dof_model(Density.constant(1))
        base_grid = [0.1 * 4.0**-m for m in range(11)]
        pert_grid = [0.12 * 4.0**-m for m in range(11)]
        f1, _ = asy.fit_puiseux([(h, passage_time(m, h)) for h in base_grid], order=2)
        f2, _ = asy.fit_puiseux([(h, passage_time(m, h)) for h in pert_grid], order=2)
        assert abs(f1.a.coeffs[0] - f2.a.coeffs[0]) < 1e-4
        assert abs(f1.b.coeffs[0] - f2.b.coeffs[0]) < 1e-4

    def test_residual_stays_at_rounding_for_true_model_data(self):
        true = PuiseuxTriple(
            TruncatedSeries([2.4, -0.7, 0.2]),
            TruncatedSeries([-1.5, 0.4, 0.1]),
            TruncatedSeries([0.3, 1.0, -0.2]),
        )
        for n in (12, 24, 48):
            grid = np.geomspace(1e-6, 0.1, n)
            _, rep = asy.fit_puiseux([(h, true.eval(h)) for h in grid], order=2)
            assert rep.residual_rms < 1e-10

    def test_preconditions(self):
        with pytest.raises(ValueError):
            asy.fit_puiseux([(0.1, 1.0), (0.05, 1.0)], order=2)
        grid = [(0.1 * 0.8**-m, 1.0) for m in range(12)]
        with pytest.raises(ValueError):
            asy.fit_puiseux(grid, order=2)
        with pytest.raises(ValueError):
            asy.fit_puiseux([(-0.1, 1.0)] * 12, order=2)

    def test_section_offset_invariance(self):
        # moving the sections changes Pi by an analytic function only
        f = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.5})
        grid = [0.1 * 4.0**-m for m in range(11)]
        fits = []
        for x0 in (1.0, 0.8):
            m = one_dof_model(f, x0=x0)
            fit, _ = asy.fit_puiseux([(h, passage_time(m, h)) for h in grid], order=2)
            fits.append(fit)
        assert abs(fits[0].a.coeffs[0] - fits[1].a.coeffs[0]) < 1e-5
        assert abs(fits[0].b.coeffs[0] - fits[1].b.coeffs[0]) < 1e-5


class TestExtractLogCoeff:
    def test_pure_log(self):
        samples = [(s, 2.0 * math.log(s) + 3.0) for s in (0.5 * 2.0**-m for m in range(9))]
        alpha, diag = extract_log_coeff(samples)
        assert abs(alpha - 2.0) < 1e-12
        assert diag["converging"]

    def test_perturbed_log(self):
        samples = [(s, 2.0 * math.log(s) + 3.0 + s) for s in (0.5 * 2.0**-m for m in range(9))]
        alpha, _ = extract_log_coeff(samples)
        assert abs(alpha - 2.0) < 1e-8

    def test_node_unit_density(self):
        samples = [
            (s, asy.node_passage(Density.constant(1), s))
            for s in (0.4 * 2.0**-m for m in range(9))
        ]
        alpha, _ = extract_log_coeff(samples)
        assert abs(alpha + 1.0) < 1e-9

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            extract_log_coeff([(0.5 * 3.0**-m, 1.0) for m in range(8)])
        with pytest.raises(ValueError):
            extract_log_coeff([(0.5, 1.0), (0.25, 1.0)])


class TestNodePassage:
    def test_unit_density_is_minus_log(self):
        for H in (0.05, 0.2, 0.7):
            assert abs(asy.node_passage(Density.constant(1), H) + math.log(H)) < 1e-11

    def test_xy_density(self):
        H = 0.2
        assert abs(asy.node_passage(Density({(1, 1, 0): 1}), H) + H * math.log(H)) < 1e-12

    def test_y_density(self):
        H = 0.2
        assert abs(asy.node_passage(Density({(0, 1, 0): 1}), H) - (1.0 - H)) < 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            asy.node_passage(Density.constant(1), 1.5)
        with pytest.raises(ValueError):
            asy.node_passage(Density.constant(1), 0.0)


class TestNodeComplexPeriod:
    def test_unit_density(self):
        val = asy.node_complex_period(Density.constant(1), 0.3)
        assert abs(val + 2.0j * math.pi) < 1e-14

    def test_one_plus_xy(self):
        f = Density({(0, 0, 0): 1, (1, 1, 0): 1})
        val = asy.node_complex_period(f, 0.25)
        assert abs(val + 2.0j * math.pi * 1.25) < 1e-13

    def test_off_diagonal_vanishes(self):
        assert asy.node_complex_period(Density({(1, 0, 0): 1}), 0.3) == 0

    def test_residue_vs_contour_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            terms = {}
            for _ in range(5):
                e = (int(rng.integers(0, 5)), int(rng.integers(0, 5)), 0)
                if sum(e) <= 4:
                    terms[e] = float(rng.uniform(-2, 2))
            if not terms:
                terms[(0, 0, 0)] = 1.0
            f = Density(terms)
            r = asy.node_complex_period(f, 0.35)
            q = contour_node_complex_period(f, 0.35)
            assert abs(r - q) < 1e-10 * max(1.0, abs(r))


class TestNodeLogIdentity:
    def test_unit_density(self):
        rep = asy.verify_node_log_identity(Density.constant(1), [0.01, 0.05])
        assert rep["ok"]
        for entry in rep["points"]:
            assert abs(entry["a_fit"] + 1.0) < 1e-6

    def test_diagonal_polynomial(self):
        f = Density({(0, 0, 0): 1, (1, 1, 0): 1, (2, 2, 0): 1})
        rep = asy.verify_node_log_identity(f, [0.01, 0.05], tol=1e-4)
        assert rep["ok"]
        for entry in rep["points"]:
            h = entry["H"]
            assert abs(entry["a_residue"] + (1 + h + h * h)) < 1e-12

    def test_no_diagonal_gives_analytic_passage(self):
        rep = asy.verify_node_log_identity(Density({(0, 2, 0): 1}), [0.01, 0.05], tol=1e-6)
        assert rep["ok"]
        for entry in rep["points"]:
            assert abs(entry["a_fit"]) < 1e-6


class TestHyperbolicLogCoeff:
    def test_density_linearity(self):
        a1, _ = asy.hyperbolic_log_coeff(cusp_local_model(Density.constant(1)), -1.0)
        a2, _ = asy.hyperbolic_log_coeff(cusp_local_model(Density.constant(2)), -1.0)
        assert abs(a2 - 2.0 * a1) < 1e-10 * abs(a1)

    def test_loop_and_passage_agree(self):
        m = cusp_local_model(Density({(0, 0, 0): 1, (0, 1, 0): 0.2}))
        a_loop, _ = asy.hyperbolic_log_coeff(m, -1.0)
        a_pass = passage_log_coeff(m, -1.0)
        assert abs(a_loop - a_pass) <= 1e-3 * abs(a_loop)

    def test_outside_factor_two(self):
        m = cusp_local_model(Density.constant(1))
        a_in = passage_log_coeff(m, -1.0)
        a_out = passage_log_coeff(m, -1.0, outside=True)
        assert abs(a_out / a_in - 2.0) < 1e-2

    def test_continuity_in_lambda(self):
        m = cusp_local_model(Density.constant(1))
        lams = (-1.0, -0.75, -0.5)
        vals = [asy.hyperbolic_log_coeff(m, lam)[0] for lam in lams]
        diffs = [abs(v2 - v1) for v1, v2 in zip(vals, vals[1:])]
        assert all(d < 0.5 * abs(vals[0]) for d in diffs)
        # smooth trend, no sign flips
        assert all(v < 0 for v in vals)

    @pytest.mark.parametrize("lam", [-1.0, -0.06, -0.04])
    def test_closed_form_is_the_richardson_limit(self, lam):
        # the Richardson table of the loop periods stops about 1e-4 short of
        # the closed form, which matches the saddle at 40 digits
        f = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.2, (0, 2, 0): -0.1, (1, 1, 0): 0.3, (0, 1, 1): 0.4})
        for kind, m in (("cusp_local", cusp_local_model(f)), ("cusp_compact", cusp_compact_model(f))):
            if lam < -0.25 and kind == "cusp_compact":
                continue  # no saddle past lambda = -1/4
            alpha, diag = asy.hyperbolic_log_coeff(m, lam)
            assert type(alpha) is float and diag["lambda"] == lam
            assert abs(alpha - mp_log_coeff(f, lam, kind=kind)) <= 1e-12 * abs(alpha)
            assert abs(alpha - loop_log_coeff(m, lam)) <= 3e-4 * abs(alpha)

    def test_array_is_the_scalar_values(self):
        m = cusp_local_model(Density({(0, 0, 0): 1.0, (0, 1, 1): 0.5}))
        lams = -np.geomspace(1e-6, 1.0, 6).reshape(2, 3)
        alphas, diag = asy.hyperbolic_log_coeff(m, lams)
        assert alphas.shape == diag["saddle"].shape == (2, 3)
        assert alphas.ravel().tolist() == [asy.hyperbolic_log_coeff(m, lam)[0] for lam in lams.ravel()]

    def test_one_diagram_solve_per_call(self, monkeypatch):
        # one root solve, of the one W' of this lambda, for the saddle and W''
        calls = []
        real_roots = model_module._stacked_roots

        def counted(polys):
            calls.append(len(polys))
            return real_roots(polys)

        monkeypatch.setattr(model_module, "_stacked_roots", counted)
        asy.hyperbolic_log_coeff(cusp_local_model(Density.constant(1)), -1.0)
        assert calls == [1]

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            asy.hyperbolic_log_coeff(cusp_local_model(Density.constant(1)), 0.5)
        with pytest.raises(ValueError):
            asy.hyperbolic_log_coeff(one_dof_model(Density.constant(1)), -1.0)
