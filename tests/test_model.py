import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from cuspinv import model as model_module
from cuspinv import quadrature
from cuspinv.model import (
    CUSP_COMPACT,
    CUSP_LOCAL,
    NODE,
    ONE_DOF,
    Density,
    FibrationModel,
    IDENTITY_BASE_MAP,
    base_change_parabolic_test,
    bifurcation_diagram,
    canonicalize_base,
    cusp_compact_model,
    cusp_local_model,
    is_parabolic,
)
from cuspinv.flows import SymplecticModel
from cuspinv.quadrature import separatrix_action
from cuspinv.series import TruncatedSeries
from oracles import cusp_pair, local_sigma_values, reference_polish, reference_real_roots

H_STD = Density({(2, 0, 0): 1, (0, 3, 0): 1, (0, 1, 1): 1})
F_LAM = Density({(0, 0, 1): 1})


class TestDensity:
    def test_eval_and_terms(self):
        f = Density([(2.0, (1, 0, 0)), (1.0, (0, 2, 1))])
        assert f.eval(3.0, 2.0, 0.5) == 6.0 + 4.0 * 0.5
        assert f.max_degree == 3

    def test_eval_vectorized(self):
        f = Density({(1, 1, 0): 1.0})
        xs = np.array([1.0, 2.0])
        assert np.allclose(f.eval(xs, 3.0, 0.0), [3.0, 6.0])

    def test_zero_polynomial_keeps_shape(self):
        zero = Density({})
        assert np.array_equal(zero.eval(np.ones(3), 0, 0), np.zeros(3))
        assert zero.eval(0.5, 0.2, 0.1) == 0.0

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="non-finite"):
            Density({(0, 0, 0): 1.0, (0, 1, 0): c})

    @pytest.mark.parametrize("e", [(1.5, 0, 0), (1.0, 0, 0), ("1", 0, 0)])
    def test_non_integer_exponent_rejected(self, e):
        with pytest.raises(TypeError):
            Density({e: 1.0})

    def test_compose(self):
        # phi(H, F) = H + 2 F^2 at (H, F) = (x^2 + y^3, lambda)
        phi_h = Density({(1, 0, 0): 1, (0, 2, 0): 2})
        assert phi_h.compose(H_STD, F_LAM) == H_STD + F_LAM * F_LAM * 2
        with pytest.raises(ValueError, match="free of lambda"):
            F_LAM.compose(H_STD, F_LAM)

    def test_exactness_follows_the_point(self):
        f = Density({(0, 3, 0): 1, (1, 1, 1): 1})
        exact = f.gradient((Fraction(1, 3), Fraction(1, 2), Fraction(2)))
        assert exact == [Fraction(1), Fraction(3, 4) + Fraction(1, 3) * 2, Fraction(1, 6)]
        assert all(isinstance(v, Fraction) for v in exact)
        assert f.hessian((0.5, 0.5, 0.5))[1][1] == 3.0
        assert f.third_directional((1, 0, 0), (0, 1, 0)) == 6.0

    def test_diff(self):
        f = Density({(2, 1, 0): 1})
        assert f.diff(0).terms == {(1, 1, 0): 2}
        assert f.diff(1).terms == {(2, 0, 0): 1}
        assert f.diff(2).terms == {}

    def test_antiderivative_x(self):
        f = Density({(1, 0, 0): Fraction(2)})
        X = f.antiderivative_x()
        assert X.terms == {(2, 0, 0): Fraction(1)}
        assert X.eval(0.0, 1.0, 1.0) == 0.0

    def test_mirror_y(self):
        f = Density({(0, 1, 0): 1, (0, 2, 0): 3})
        assert f.mirror_y().terms == {(0, 1, 0): -1, (0, 2, 0): 3}

    def test_ring_ops(self):
        f = Density({(1, 0, 0): 1})
        g = Density({(0, 1, 0): 1})
        assert (f * g).terms == {(1, 1, 0): 1}
        assert ((f + g) ** 2).terms == {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}

    def test_json_roundtrip(self):
        f = Density({(1, 2, 3): 1.5, (0, 0, 0): -0.5})
        back = Density.from_json(json.dumps(f.to_json()))
        assert back == f


class TestDensityAt:
    """The reduced field of the generated DOP853 step, its polynomials f, H_x
    and H_y read by the term code of ``model._terms_source`` at a lambda,
    gives (-H_y / f, H_x / f) from Density.eval bit for bit on floats."""

    @staticmethod
    def _random_density(rng) -> Density:
        # mixed lambda terms, some sharing (i, j) with a lambda-free term
        terms = {}
        for _ in range(rng.integers(1, 9)):
            e = tuple(int(v) for v in rng.integers(0, [4, 5, 3]))
            terms[e] = float(rng.uniform(-2.0, 2.0))
        terms[(0, 1, 0)], terms[(0, 1, 1)] = 0.3, -0.7
        return Density(terms)

    @staticmethod
    def _check(sm, lam, x, y) -> None:
        field, _ = sm._system(lam, 2)
        f, h = sm.model.density, sm.model.hamiltonian()
        fv = f.eval(x, y, lam)
        if fv == 0.0:
            with pytest.raises(ValueError, match="vanishes"):
                field(0.0, [x, y])
            return
        want = [-h.diff(1).eval(x, y, lam) / fv, h.diff(0).eval(x, y, lam) / fv]
        assert [v.hex() for v in field(0.0, [x, y])] == [v.hex() for v in want]

    def test_matches_eval_on_random_densities(self):
        rng = np.random.default_rng(20261018)
        checked = 0
        for k in range(60):
            sm = SymplecticModel((cusp_local_model, cusp_compact_model)[k % 2](self._random_density(rng)))
            for lam in (0.0, 1.0, -1.0, float(rng.uniform(-1.5, 1.5))):
                xs = [0.0, -0.0, *rng.uniform(-2.0, 2.0, 4)]
                ys = [0.0, *rng.uniform(-2.0, 2.0, 4)]
                for x in map(float, xs):
                    for y in map(float, ys):
                        self._check(sm, lam, x, y)
                        checked += 1
        assert checked == 60 * 4 * 30

    def test_exact_coefficients_and_empty_density(self):
        sm = SymplecticModel(cusp_local_model(Density({(0, 0, 0): 1, (1, 2, 1): Fraction(1, 3), (0, 0, 2): 2})))
        for lam in (0.25, 0.0, -1.5):
            self._check(sm, lam, 0.5, -0.75)
        with pytest.raises(ValueError, match="vanishes"):
            SymplecticModel(cusp_local_model(Density({})))._system(0.3, 2)[0](0.0, [0.2, 0.1])


class TestFibrationModel:
    def test_json_roundtrip(self):
        m = cusp_compact_model(Density.constant(2.0), x0=0.3)
        back = FibrationModel.from_json(m.to_json())
        assert back.kind == CUSP_COMPACT
        assert back.x0 == 0.3
        assert back.density == m.density

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FibrationModel("spiral", Density.constant(1))

    @pytest.mark.parametrize("x0", [0.0, -1.0, math.nan, math.inf])
    def test_bad_section_offset_rejected(self, x0):
        with pytest.raises(ValueError, match="x0"):
            FibrationModel(CUSP_LOCAL, Density.constant(1), x0)

    def test_potential_read_off_hamiltonian(self):
        assert cusp_local_model().potential_coeffs(-0.3).tolist() == [1.0, 0.0, -0.3, 0.0]
        assert cusp_compact_model().potential_coeffs(0.2).tolist() == [1.0, 1.0, 0.0, 0.2, 0.0]
        for kind in (ONE_DOF, NODE):
            with pytest.raises(ValueError, match="potential form"):
                FibrationModel(kind).potential_coeffs(0.0)

    def test_model_germs_are_parabolic(self):
        for m in (cusp_local_model(), cusp_compact_model()):
            verdict = is_parabolic(m.hamiltonian(), F_LAM, (0, 0, 0))
            assert verdict.is_parabolic


class TestBifurcationDiagram:
    def test_local_hyperbolic_branch_value(self):
        d = bifurcation_diagram(cusp_local_model(), domain_radius=10)
        assert abs(d.hyperbolic_value(-1.0) - 2.0 / (3.0 * math.sqrt(3.0))) < 1e-14

    def test_cusp_point(self):
        # the cusp point (0, 0) lies on Sigma: cut out of the compact model's wide stratum
        compact = bifurcation_diagram(cusp_compact_model())
        assert compact.stratum(0.0, 0.0) == "outside"
        assert compact.strata([(-1e-3, 0.0), (1e-3, 0.0)]) == ["wide", "wide"]
        assert compact.stratum(0.0, 1e-3) == "wide"

    def test_compact_auxiliary_value_outside_domain(self):
        # critical points of y^4 + y^3: W' = y^2(4y + 3) -> y = -3/4 exactly,
        # auxiliary elliptic value -27/256
        d = bifurcation_diagram(cusp_compact_model())
        aux = (-0.75) ** 4 + (-0.75) ** 3
        assert abs(aux + 27.0 / 256.0) < 1e-15
        assert d.domain_radius < 0.1
        assert abs(aux) > d.domain_radius

    def test_compact_branches_near_cusp(self):
        d = bifurcation_diagram(cusp_compact_model())
        lam = -0.05
        h_e, h_h = d.elliptic_value(lam), d.hyperbolic_value(lam)
        assert h_e < 0 < h_h
        # consistency with the local model to leading order
        local = 2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
        assert abs(h_h - local) < 0.25 * local

    def test_stratum_classification(self):
        d = bifurcation_diagram(cusp_compact_model())
        assert d.stratum(0.0, -0.05) == "narrow"
        assert d.stratum(0.05, 0.02) == "wide"
        assert d.stratum(0.5, 0.5) == "outside"
        d_local = bifurcation_diagram(cusp_local_model())
        assert d_local.stratum(0.0, -0.05) == "narrow"
        assert d_local.stratum(0.05, 0.02) == "outside"

    @pytest.mark.parametrize("lam", [-0.245, -0.249])
    def test_compact_hyperbolic_branch_near_quarter(self, lam):
        # for -1/4 < lambda < -0.2433 the saddle of W lies in (-0.5, -0.45),
        # past the deep-well separator |y| < 0.45 the diagram once used
        m = cusp_compact_model()
        wc = m.potential_coeffs(lam)
        y = brentq(lambda t: np.polyval(np.polyder(wc), t), -0.5, -0.45, xtol=1e-16)
        expected = float(np.polyval(wc, y))
        assert abs(bifurcation_diagram(m).hyperbolic_value(lam) - expected) <= 1e-14 * abs(expected)
        h = separatrix_action(m, lam)
        assert math.isfinite(h) and h > 0

    @pytest.mark.parametrize("lam", list(-np.geomspace(1e-10, 1.0, 21)))
    def test_local_values_match_closed_form(self, lam):
        d = bifurcation_diagram(cusp_local_model(), domain_radius=10)
        h_ell, h_hyp = local_sigma_values(lam)
        assert abs(d.elliptic_value(lam) - h_ell) <= 1e-14 * abs(h_ell)
        assert abs(d.hyperbolic_value(lam) - h_hyp) <= 1e-14 * h_hyp

    @pytest.mark.parametrize("model", [cusp_local_model, cusp_compact_model])
    def test_branch_values_match_single_branches(self, model):
        d = bifurcation_diagram(model())
        assert d.branch_values(-0.05) == (d.elliptic_value(-0.05), d.hyperbolic_value(-0.05))

    def test_branch_values_name_the_absent_branch(self):
        # past lambda = -1/4 the compact W keeps only its minimum near y = 0
        d = bifurcation_diagram(cusp_compact_model())
        assert d.elliptic_value(-0.3) < 0
        with pytest.raises(ValueError, match="no hyperbolic branch at lambda=-0.3"):
            d.branch_values(-0.3)

    def test_root_solves_counted(self, monkeypatch):
        # one stacked solve of two polynomials (the level and W') per stratum
        # query, none at construction
        calls = []
        real_roots = model_module._stacked_roots

        def counted(polys):
            calls.append(len(polys))
            return real_roots(polys)

        monkeypatch.setattr(model_module, "_stacked_roots", counted)
        d = bifurcation_diagram(cusp_compact_model())
        assert calls == []
        for m in (cusp_local_model(), cusp_compact_model()):
            d = bifurcation_diagram(m)
            for h in (-0.01, 0.0, 0.01):
                calls.clear()
                d.stratum(h, -0.05)
                assert calls == [2], (m.kind, h)

    def test_swallowtail_membership(self):
        d = bifurcation_diagram(cusp_local_model())
        lam = -0.05
        h_hyp = d.hyperbolic_value(lam)
        points = [(0.0, lam), (0.9 * h_hyp, lam), (1.1 * h_hyp, lam)]
        assert d.strata(points) == ["narrow", "narrow", "outside"]
        assert d.stratum(0.0, 0.01) == "outside"

    #: lambdas across the unfolding, up to past lambda = -1/4, where the compact
    #: W keeps only its minimum near y = 0
    LAMS = [*-np.geomspace(1e-10, 1.0, 31), -0.245, -0.249, -0.25, -0.2501, -0.3]

    @pytest.mark.parametrize("model", [cusp_local_model, cusp_compact_model])
    def test_cusp_pairs_match_scalar_oracle(self, model):
        # the critical table of all the W' from one stacked solve, bit for bit
        # (float.hex) the per-lambda route: the cusp pair (y_ell, y_hyp), W
        # there (the branch values) and W'' there, NaN for a branch absent
        rng = np.random.default_rng(21)
        lams = self.LAMS + rng.uniform(-0.3, -1e-9, 200).tolist()
        w = np.array([model().potential_coeffs(lam) for lam in lams])
        (table,) = model_module._solved(model_module._critical_ask(w))
        got = [[v.hex() for v in row] for row in np.hstack(table.cusp_pair()).tolist()]
        want = []
        for wc in w:
            d2w = np.polyder(np.polyder(wc))
            cols = [
                (math.nan,) * 3 if y is None else (y, np.polyval(wc, y), np.polyval(d2w, y))
                for y in cusp_pair(wc)
            ]
            want.append([float(v).hex() for k in range(3) for v in (cols[0][k], cols[1][k])])
        assert got == want
        pairs = [cusp_pair(wc) for wc in w]
        assert all(y_ell is not None for y_ell, _ in pairs)
        absent = [(lam, wc, y) for lam, wc, (y, y_hyp) in zip(lams, w, pairs) if y_hyp is None]
        assert len(absent) > 20 if model is cusp_compact_model else not absent
        # past lambda = -1/4 the queries name the branch absent and give the other
        d = bifurcation_diagram(model())
        for lam, wc, y in absent:
            assert lam < -0.25
            for query in (lambda: d.branch_values([-0.05, lam]), lambda: d.hyperbolic_value(lam)):
                with pytest.raises(ValueError, match=f"^no hyperbolic branch at lambda={lam}$"):
                    query()
            assert d.elliptic_value(lam) == np.polyval(wc, y)

    def test_root_calls_are_one_route(self):
        # every W' and W'' comes from the one array form of the critical table
        # and every root from the stacked solve: no per-row derivative or
        # np.roots call is left in the package
        calls = [
            (f.name, call)
            for f in sorted(Path(model_module.__file__).parent.glob("*.py"))
            for call in re.findall(r"np\.(?:polyder|roots)\(", f.read_text())
        ]
        assert calls == []

    @pytest.mark.parametrize("model", [cusp_local_model, cusp_compact_model])
    def test_strata_match_single_points(self, model, monkeypatch):
        d = bifurcation_diagram(model())
        lams = [-0.07, -0.05, -0.02, -1e-13, 0.0, 0.01, 0.05]
        points = [(h, lam) for lam in lams for h in np.linspace(-0.03, 0.03, 13)]
        points += [(v, lam) for lam in (-0.05, -0.02) for v in d.branch_values(lam)]
        calls = []
        real_levels = quadrature._levels

        def levels(m, pts, *x0):
            calls.append(pts)
            return real_levels(m, pts, *x0)

        monkeypatch.setattr(quadrature, "_levels", levels)
        strata = d.strata(points)
        # one level solve, of all the points
        assert calls == [points]
        assert strata == [d.stratum(h, lam) for h, lam in points]
        assert {"narrow", "outside"} <= set(strata)

    def test_compact_levels_without_roots_are_outside(self):
        # past the default radius the deep well's minimum bounds the wide
        # stratum: these levels are empty
        d = bifurcation_diagram(cusp_compact_model(), domain_radius=math.inf)
        for h, lam in ((-0.2, 0.0), (-0.11, -0.3), (-0.08, -0.05)):
            p = -cusp_compact_model().potential_coeffs(lam)
            p[-1] += h
            assert not any(abs(r.imag) < 1e-9 for r in np.roots(p))
            assert d.stratum(h, lam) == "outside"

    def test_compact_wide_exactly_where_the_level_has_an_oval(self):
        # off the narrow stratum, a compact level is wide exactly where P has
        # two real roots or more (random points at radius 0.3 reach below
        # the deep well and past lambda = -1/4)
        m = cusp_compact_model()
        d = bifurcation_diagram(m, domain_radius=0.3)
        rng = np.random.default_rng(11)
        radius, angle = 0.3 * np.sqrt(rng.uniform(size=4000)), rng.uniform(0.0, 2.0 * math.pi, 4000)
        points = list(zip((radius * np.cos(angle)).tolist(), (radius * np.sin(angle)).tolist()))
        strata = d.strata(points)
        assert {"narrow", "wide", "outside"} == set(strata)
        for (h, lam), stratum in zip(points, strata):
            p = -m.potential_coeffs(lam)
            p[-1] += h
            real = sum(abs(r.imag) < 1e-9 for r in np.roots(p))
            assert stratum == "narrow" or (stratum == "wide") == (real >= 2), (h, lam)

    @pytest.mark.parametrize("model", [cusp_local_model, cusp_compact_model])
    def test_branch_values_on_arrays(self, model):
        d = bifurcation_diagram(model())
        lams = -np.geomspace(1e-6, 0.2, 12).reshape(3, 4)
        h_ell, h_hyp = d.branch_values(lams)
        assert h_ell.shape == h_hyp.shape == (3, 4)
        for lam, e, h in zip(lams.ravel(), h_ell.ravel(), h_hyp.ravel()):
            assert d.branch_values(lam) == (e, h)
            assert (d.elliptic_value(lam), d.hyperbolic_value(lam)) == (e, h)
        assert all(type(v) is float for v in d.branch_values(-0.05))
        assert [v.shape for v in d.branch_values([])] == [(0,), (0,)]

    def test_branch_values_on_arrays_name_the_first_absent_branch(self):
        d = bifurcation_diagram(cusp_compact_model())
        with pytest.raises(ValueError, match="no hyperbolic branch at lambda=-0.3$"):
            d.branch_values([-0.05, -0.3, -0.4])
        with pytest.raises(ValueError, match="lambda < 0 only"):
            d.branch_values([-0.05, 0.01])


def _reference_roots(coeffs):
    """The polished real roots of one polynomial by the np.roots route of the oracles."""
    return [reference_polish(coeffs, r) for r in reference_real_roots(coeffs)]


def _solved(polys):
    """model._stacked_roots of the batch, each row's roots up to its NaN padding."""
    out = model_module._stacked_roots(polys)
    assert out.shape == (len(polys), max(map(len, polys), default=1) - 1)
    rows = []
    for row in out:
        found = ~np.isnan(row)
        assert found.tolist() == sorted(found.tolist(), reverse=True)  # NaN only at the end
        rows.append(row[found].tolist())
    return rows


class TestStackedRoots:
    """model._stacked_roots against np.roots with a scalar Newton polish,
    compared with == on lists of floats: bit for bit."""

    @staticmethod
    def _random_polys(seed, degrees, n):
        rng = np.random.default_rng(seed)
        polys = []
        for _ in range(n):
            p = rng.normal(size=int(rng.choice(degrees)) + 1)
            p[rng.random(p.size) < 0.15] = 0.0  # zeros inside and at both ends
            polys.append(p)
        return polys

    @pytest.mark.parametrize("degree", [3, 4])
    def test_matches_reference_on_random_polynomials(self, degree):
        polys = self._random_polys(degree, [degree], 400)
        assert _solved(polys) == [_reference_roots(p) for p in polys]
        # a 2-D array is the same batch as its list of rows
        stacked = model_module._stacked_roots(np.array(polys))
        assert np.array_equal(stacked, model_module._stacked_roots(polys), equal_nan=True)

    def test_mixed_degrees_in_one_batch(self):
        polys = self._random_polys(11, [0, 1, 2, 3, 4, 5], 300)
        polys += [np.zeros(4), np.array([0.0]), np.array([2.0, 0.0, 0.0])]
        solved = _solved(polys)
        assert solved == [_reference_roots(p) for p in polys]
        # a batch of one gives the same as the same polynomial within a batch
        assert [_solved([p])[0] for p in polys] == solved

    def test_trailing_zero_at_level_zero(self):
        # the local model's level H = 0 has the root y = 0 exactly; np.roots
        # deflates it, and so must the stacked solve: at this lambda the
        # undeflated 3 x 3 companion matrix gives the outer roots an ulp off
        p = [-c for c in cusp_local_model().potential_coeffs(-0.075)]
        assert p[-1] == 0.0
        (roots,) = _solved([p])
        assert roots == _reference_roots(p)
        assert roots[1] == 0.0 and len(roots) == 3

    def test_leading_zero(self):
        # as canonicalize_base can pass: the top coefficients vanish
        p = [0.0, 0.0, 1.0, -3.0, 2.0]
        assert _solved([p]) == [_reference_roots(p)] == [[1.0, 2.0]]

    def test_root_with_zero_derivative(self):
        # (y - 1)^2: P'(1) = 0 exactly, so the polish leaves the root alone
        p = [1.0, -2.0, 1.0]
        (roots,) = _solved([p, [1.0, -3.0, 2.0]])[:1]
        assert roots == [1.0, 1.0] == reference_real_roots(p)
        assert np.polyval(np.polyder(p), roots[0]) == 0.0
        assert roots == _reference_roots(p)

    def test_no_polynomials(self):
        assert _solved([]) == []


class TestCanonicalizeBase:
    def test_identity_case(self):
        t = canonicalize_base(TruncatedSeries([0]), TruncatedSeries([0, 1]))
        assert t.f0 == 0.0
        assert t.eta == 1
        assert t.apply(0.5, -0.2) == (0.5, -0.2)

    def test_scaling_case(self):
        t = canonicalize_base(TruncatedSeries([0]), TruncatedSeries([0, -2]))
        h_t, f_t = t.apply(1.0, 0.3)
        assert abs(h_t - 1.0 / 2.0**1.5) < 1e-14
        assert abs(f_t + 0.3) < 1e-14

    def test_shift_case(self):
        t = canonicalize_base(TruncatedSeries([0, 1]), TruncatedSeries([0, 1]))
        h_t, f_t = t.apply(1.0, 0.25)
        assert (h_t, f_t) == (0.75, 0.25)

    def test_degenerate_zero_rejected(self):
        # b = lambda^2 has a double zero at 0
        with pytest.raises(ValueError):
            canonicalize_base(TruncatedSeries([0]), TruncatedSeries([0, 0, 1]))

    def test_canonical_sigma_equation(self):
        # transformed branch points satisfy H~^2 = -(4/27) F~^3 to 1e-10
        a = TruncatedSeries([0.0, 1.0, 0.5])
        b = TruncatedSeries([0.0, -2.0, 0.3])
        t = canonicalize_base(a, b)
        for lam in np.linspace(-0.4, 0.4, 9):
            bv = float(b.eval(lam))
            if bv >= 0:
                continue
            h_branch = float(a.eval(lam)) + 2.0 * (-bv / 3.0) ** 1.5
            h_t, f_t = t.apply(h_branch, lam)
            assert abs(h_t**2 + 4.0 / 27.0 * f_t**3) < 1e-10


class TestIsParabolic:
    def test_standard_model(self):
        v = is_parabolic(H_STD, F_LAM, (0, 0, 0))
        assert v.verdict == "parabolic"
        assert v.rank_d2H0 == 1
        assert v.rank_full == 3
        assert v.k == 0

    def test_y4_fails_condition_ii(self):
        h = Density({(2, 0, 0): 1, (0, 4, 0): 1, (0, 1, 1): 1})
        v = is_parabolic(h, F_LAM, (0, 0, 0))
        assert v.verdict == "fails_ii"
        assert v.v3H0 == 0

    def test_compact_model(self):
        h = Density({(2, 0, 0): 1, (0, 4, 0): 1, (0, 3, 0): 1, (0, 1, 1): 1})
        v = is_parabolic(h, F_LAM, (0, 0, 0))
        assert v.verdict == "parabolic"
        assert v.v3H0 == 6

    def test_elliptic_point_fails_i(self):
        # at an elliptic critical point the restricted Hessian has rank 2
        lam = -0.75
        y_e = math.sqrt(-lam / 3.0)
        v = is_parabolic(H_STD, F_LAM, (Fraction(0), Fraction(1, 2), Fraction(-3, 4)))
        assert y_e == 0.5
        assert v.verdict == "fails_i"

    def test_regular_point(self):
        v = is_parabolic(H_STD, F_LAM, (1, 0, 0))
        assert v.verdict == "regular"

    def test_missing_rank_iii(self):
        # kill the lambda*y coupling: d^2(H - kF) degenerates to rank 2
        h = Density({(2, 0, 0): 1, (0, 3, 0): 1, (0, 1, 2): 1})
        v = is_parabolic(h, F_LAM, (0, 0, 0))
        assert v.verdict == "fails_iii"

    def test_dF_zero_rejected(self):
        with pytest.raises(ValueError):
            is_parabolic(H_STD, Density({(0, 0, 2): 1}), (0, 0, 0))


class TestBaseChange:
    def test_identity(self):
        before, after = base_change_parabolic_test(
            H_STD, F_LAM, (0, 0, 0), IDENTITY_BASE_MAP
        )
        assert before.verdict == after.verdict == "parabolic"

    def test_h_plus_f_squared(self):
        phi = (Density({(1, 0, 0): 1, (0, 2, 0): 1}), Density({(0, 1, 0): 1}))
        before, after = base_change_parabolic_test(H_STD, F_LAM, (0, 0, 0), phi)
        assert before.verdict == after.verdict == "parabolic"

    def test_swap_rejected(self):
        phi = (Density({(0, 1, 0): 1}), Density({(1, 0, 0): 1}))
        with pytest.raises(ValueError):
            base_change_parabolic_test(H_STD, F_LAM, (0, 0, 0), phi)

    def test_degenerate_phi_rejected(self):
        phi = (Density({(1, 0, 0): 1}), Density({(1, 0, 0): 1}))
        with pytest.raises(ValueError):
            base_change_parabolic_test(H_STD, F_LAM, (0, 0, 0), phi)

    def test_random_base_changes_preserve_verdict(self):
        # Prop-A.1-style invariance over 20 random admissible degree-<=3 maps
        rng = np.random.default_rng(2024)
        count = 0
        while count < 20:
            ht = {(i, j, 0): int(c) for (i, j), c in _random_poly2_terms(rng)}
            ft = {(i, j, 0): int(c) for (i, j), c in _random_poly2_terms(rng)}
            ht[(1, 0, 0)] = ht.get((1, 0, 0), 0) or 1
            phi = (Density(ht), Density(ft))
            jac = (
                phi[0].diff(0)(0, 0) * phi[1].diff(1)(0, 0)
                - phi[0].diff(1)(0, 0) * phi[1].diff(0)(0, 0)
            )
            if abs(jac) < 0.5 or abs(phi[1].diff(1)(0, 0)) < 0.5:
                continue
            before, after = base_change_parabolic_test(H_STD, F_LAM, (0, 0, 0), phi)
            assert before.verdict == "parabolic"
            assert after.verdict == "parabolic"
            count += 1


def _random_poly2_terms(rng):
    terms = []
    for i in range(4):
        for j in range(4 - i):
            if i == j == 0:
                continue
            c = int(rng.integers(-3, 4))
            if c:
                terms.append(((i, j), c))
    return terms
