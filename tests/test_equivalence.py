import math
from fractions import Fraction

import numpy as np
import pytest

from cuspinv import brieskorn, quadrature
from cuspinv import equivalence as equivalence_module
from cuspinv import model as model_module
from cuspinv.equivalence import (
    RescaleMap,
    cusp_torus_equivalent,
    fitted_pair,
    invariant_report,
    normalize_invariant,
    one_dof_equivalent,
    parabolic_equivalent,
    verify_relations,
    verify_relations_numeric,
)
from cuspinv.model import (
    Density,
    cusp_compact_model,
    cusp_local_model,
)
from cuspinv.series import TruncatedSeries, phi_r_apply, phi_r_invert
from cuspinv.specfun import puiseux_constants
from oracles import compact_fitted_pair, triple_pair

F_ONE = Density.constant(1)
F_ONE_PLUS_Y = Density({(0, 0, 0): 1, (0, 1, 0): 1})


def _area_pair(density):
    pair = brieskorn.reduce(density)
    c = puiseux_constants()
    A = phi_r_invert(
        TruncatedSeries([float(v) for v in pair.alpha.coeffs]) * c["C0"], Fraction(5, 6)
    )
    B = phi_r_invert(
        TruncatedSeries([float(v) for v in pair.beta.coeffs]) * c["C1"], Fraction(7, 6)
    )
    return A, B


class TestRescaleMap:
    def test_identity_for_unit_g(self):
        rmap = RescaleMap(TruncatedSeries([1.0], order=3))
        assert rmap.apply(0.4, 0.7) == (0.4, 0.7)
        assert rmap.jacobian_det(0.4, 0.7) == 1.0

    def test_constant_scaling(self):
        rmap = RescaleMap(TruncatedSeries([4.0], order=3))
        for (x, y) in ((0.3, 0.5), (-0.2, 0.9), (0.1, -0.3)):
            u, v = rmap.apply(x, y)
            H = y**3 - x**2
            assert abs((v**3 - u**2) - 4.0 * H) < 1e-12

    def test_jacobian_formula_at_zero_level(self):
        rmap = RescaleMap(TruncatedSeries([1.0, 0.5], order=3))
        # points on H = 0: det = g(0)^(-1/6) g(0) = 1
        assert abs(rmap.jacobian_det(1.0, 1.0) - 1.0) < 1e-14

    def test_h_compatibility_pointwise(self):
        rmap = RescaleMap(TruncatedSeries([1.0, 0.5, -0.2], order=4))
        for (x, y) in ((0.3, 0.7), (-0.25, 0.55)):
            u, v = rmap.apply(x, y)
            H = y**3 - x**2
            assert abs((v**3 - u**2) - rmap.h(H)) < 1e-13

    def test_inverse_roundtrip(self):
        rmap = RescaleMap(TruncatedSeries([1.0, 0.5], order=4))
        u, v = rmap.apply(0.3, 0.7)
        x, y = rmap.inverse(u, v)
        assert abs(x - 0.3) < 1e-12 and abs(y - 0.7) < 1e-12

    def test_nonpositive_g_rejected(self):
        with pytest.raises(ValueError):
            RescaleMap(TruncatedSeries([-1.0, 0.2]))

    def test_h_inverse_rejects_beyond_monotone_branch(self):
        # h(H) = H(1 - 2H) folds at H = 1/4; targets above the fold value
        # cannot be reached on the branch through 0
        rmap = RescaleMap(TruncatedSeries([1.0, -2.0], order=3))
        assert abs(rmap.h_inverse(0.1) - rmap.h_inverse(0.1)) == 0.0
        with pytest.raises(ValueError):
            rmap.h_inverse(0.2)


class TestVerifyRelations:
    def test_unit_g_identical_pairs(self):
        A, B = _area_pair(F_ONE_PLUS_Y)
        res = verify_relations((A, B), (A, B), TruncatedSeries([1.0], order=4))
        assert res["max_abs"] < 1e-14

    def test_synthetic_consistency_of_forms(self):
        # (iii) follows from (i)/(ii) through phi_r: construct exact data and
        # check all residual families vanish to rounding
        g = TruncatedSeries([1.3, -0.4, 0.2], order=6)
        At = TruncatedSeries([1.1, 0.3, -0.2, 0.1, 0.0, 0.05, 0.0])
        Bt = TruncatedSeries([-0.6, 0.2, 0.3, -0.1, 0.2, 0.0, 0.0])
        h = TruncatedSeries([0] + list(g.coeffs), order=g.order)
        A = g.pow(5.0 / 6.0) * At.compose(h)
        B = g.pow(7.0 / 6.0) * Bt.compose(h)
        res = verify_relations((A, B), (At, Bt), g)
        assert res["max_abs"] < 1e-10

    def test_numeric_pullback_defect(self):
        g = TruncatedSeries([1.0, 0.5], order=4)
        rmap = RescaleMap(g)
        ftilde = rmap.pushforward_density(F_ONE_PLUS_Y)
        res = verify_relations_numeric(F_ONE_PLUS_Y, ftilde, g)
        assert res["max_abs"] < 1e-4

    def test_numeric_defect_detects_wrong_g(self):
        g = TruncatedSeries([1.0, 0.5], order=4)
        rmap = RescaleMap(g)
        ftilde = rmap.pushforward_density(F_ONE_PLUS_Y)
        wrong = TruncatedSeries([1.0, 0.8], order=4)
        res = verify_relations_numeric(F_ONE_PLUS_Y, ftilde, wrong)
        assert res["max_abs"] > 1e-2


class TestNormalizeInvariant:
    def test_unit_density(self):
        c = puiseux_constants()
        out = normalize_invariant(brieskorn.reduce(F_ONE))
        assert abs(out["g"].coeffs[0] - (1.2 * c["C0"]) ** 1.2) < 1e-12
        assert all(abs(float(v)) < 1e-12 for v in out["g"].coeffs[1:])
        assert all(abs(float(v)) < 1e-12 for v in out["canonical_f"].coeffs)
        assert all(
            abs(float(v) - (1.0 if k == 0 else 0.0)) < 1e-12
            for k, v in enumerate(out["g_unit_alpha"].coeffs)
        )

    def test_zero_beta_forces_zero_canonical_f(self):
        out = normalize_invariant(brieskorn.reduce(Density.constant(3)))
        assert all(abs(float(v)) < 1e-12 for v in out["canonical_f"].coeffs)

    def test_wrong_orientation_rejected(self):
        with pytest.raises(ValueError):
            normalize_invariant(brieskorn.reduce(Density.constant(-1)))
        with pytest.raises(ValueError):
            normalize_invariant(brieskorn.reduce(Density({(0, 1, 0): 1})))

    def test_fitted_route_matches_exact_route(self):
        f = F_ONE_PLUS_Y
        exact = normalize_invariant(brieskorn.reduce(f))
        triple, _ = fitted_pair(f)
        fitted = normalize_invariant(triple_pair(triple))
        for k in range(2):
            assert abs(
                float(exact["canonical_f"].coeffs[k]) - float(fitted["canonical_f"].coeffs[k])
            ) < 1e-4


class TestOneDofEquivalent:
    def test_self_equivalence(self):
        for mode in ("H_preserving", "fibration_preserving"):
            v = one_dof_equivalent(F_ONE_PLUS_Y, F_ONE_PLUS_Y, mode=mode)
            assert v.equivalent

    def test_scaling_breaks_H_preserving_only(self):
        f2 = Density.constant(2)
        v_h = one_dof_equivalent(F_ONE, f2, mode="H_preserving")
        assert not v_h.equivalent
        v_f = one_dof_equivalent(F_ONE, f2, mode="fibration_preserving")
        assert v_f.equivalent
        assert abs(float(v_f.witness_g.coeffs[0]) - 2.0 ** (-1.2)) < 1e-12

    def test_beta_difference_detected(self):
        v = one_dof_equivalent(F_ONE, F_ONE_PLUS_Y, mode="H_preserving")
        assert not v.equivalent

    def test_orientation_autocorrection(self):
        # -f(-x, y) is the sign-map image of f and must compare equal
        flipped = Density({(0, 0, 0): -1, (0, 1, 0): -1})
        v = one_dof_equivalent(F_ONE_PLUS_Y, flipped, mode="H_preserving")
        assert v.equivalent
        assert v.orientation_corrected

    def test_witness_satisfies_relations(self):
        f2 = Density({(0, 0, 0): 2, (0, 1, 0): 1})
        v = one_dof_equivalent(F_ONE_PLUS_Y, f2, mode="fibration_preserving")
        if v.equivalent:
            res = verify_relations(
                _area_pair(F_ONE_PLUS_Y), _area_pair(f2), v.witness_g
            )
            assert res["max_abs"] < 1e-3


class TestCanonicalFInvariance:
    def test_pullback_invariance_random_g(self):
        rng = np.random.default_rng(31)
        f = F_ONE_PLUS_Y
        reference = normalize_invariant(brieskorn.reduce(f))["canonical_f"]
        for _ in range(5):
            g = TruncatedSeries(
                [float(rng.uniform(0.6, 1.6)), float(rng.uniform(-0.4, 0.4)),
                 float(rng.uniform(-0.2, 0.2))],
                order=4,
            )
            rmap = RescaleMap(g)
            ftilde = rmap.pushforward_density(f)
            triple, _ = fitted_pair(ftilde, h_max=0.05, n_samples=36, order=(3, 3, 5))
            out = normalize_invariant(triple_pair(triple))
            for k in range(2):
                ref = float(reference.coeffs[k])
                got = float(out["canonical_f"].coeffs[k])
                assert abs(got - ref) <= 1e-3 * max(1.0, abs(ref))


class TestParabolicEquivalent:
    def test_self_identity(self):
        m = cusp_local_model(F_ONE_PLUS_Y)
        v = parabolic_equivalent(m, m)
        assert v.equivalent

    def test_density_scaling_not_equivalent(self):
        v = parabolic_equivalent(
            cusp_local_model(F_ONE), cusp_local_model(Density.constant(2))
        )
        assert not v.equivalent
        assert not v.checks["I_circ"]["ok"]

    def test_sigma_violating_phi_rejected_as_nonequivalent(self):
        m = cusp_local_model(F_ONE)
        phi = (Density({(1, 0, 0): 1, (0, 3, 0): 1}), Density({(0, 1, 0): 1}))  # (H + F^3, F)
        v = parabolic_equivalent(m, m, phi)
        assert not v.equivalent
        assert not v.checks["sigma"]["ok"]

    def test_verdict_symmetry(self):
        m1 = cusp_local_model(F_ONE)
        m2 = cusp_local_model(Density.constant(2))
        assert parabolic_equivalent(m1, m2).equivalent == parabolic_equivalent(m2, m1).equivalent

    def test_verdict_symmetry_under_inverted_phi(self):
        # (H, F) -> (c^3 H, c^2 F) preserves the standard diagram but scales
        # the actions; the verdict must agree with the phi^-1 comparison
        m = cusp_local_model(F_ONE)
        c = 1.3
        phi = (Density({(1, 0, 0): c**3}), Density({(0, 1, 0): c**2}))
        phi_inv = (Density({(1, 0, 0): c**-3}), Density({(0, 1, 0): c**-2}))
        v12 = parabolic_equivalent(m, m, phi)
        v21 = parabolic_equivalent(m, m, phi_inv)
        assert v12.checks["sigma"]["ok"] and v21.checks["sigma"]["ok"]
        assert v12.equivalent == v21.equivalent == False  # noqa: E712

    def test_degenerate_phi_rejected(self):
        m = cusp_local_model(F_ONE)
        phi = (Density({(1, 0, 0): 1}), Density({(1, 0, 0): 1}))
        with pytest.raises(ValueError):
            parabolic_equivalent(m, m, phi)

    # (H + 0.01, F) carries every swallow-tail sample of the second check past
    # Sigma_hyp, where the target level has no narrow oval
    SHIFT = (Density({(1, 0, 0): 1, (0, 0, 0): 0.01}), Density({(0, 1, 0): 1}))

    def test_image_without_narrow_oval_is_an_infinite_residual(self, monkeypatch):
        calls = _count_calls(monkeypatch)
        m = cusp_local_model(F_ONE_PLUS_Y)
        v = parabolic_equivalent(m, m, self.SHIFT)
        assert not v.equivalent
        assert v.checks["I_circ"] == {"ok": False, "residuals": [math.inf] * 9}
        # cold: sys1's two table solves and the request's
        assert (len(calls["roots"]), calls["engine"]) == (3, [9])

    def test_unconverged_image_is_an_infinite_residual(self, monkeypatch):
        # the engine's NaN (more than QUAD_LIMIT subintervals) on a sys2 job
        # reads as that job's failure; on a sys1 job it raises
        m = cusp_local_model(F_ONE_PLUS_Y)
        calls = _count_calls(monkeypatch, spoiled=-1)
        v = parabolic_equivalent(m, m)
        assert not v.equivalent
        assert v.checks["I_circ"]["residuals"][-1] == math.inf
        assert max(v.checks["I_circ"]["residuals"][:-1]) == 0.0
        assert (len(calls["roots"]), calls["engine"]) == (3, [18])
        calls = _count_calls(monkeypatch, spoiled=0)
        with pytest.raises(quadrature.OnSigmaError):
            parabolic_equivalent(m, m)
        # warm: sys1's table was built by the first verdict
        assert (len(calls["roots"]), calls["engine"]) == (1, [18])

    def test_verdict_checks_make_one_engine_call(self, monkeypatch):
        # the narrow and the wide integrals of both systems together
        calls = _count_calls(monkeypatch)
        m = cusp_compact_model(F_ONE_PLUS_Y)
        assert parabolic_equivalent(m, m).equivalent
        assert calls["engine"] == [18]
        calls["engine"].clear()
        assert cusp_torus_equivalent(m, m).equivalent
        assert calls["engine"] == [26]

    def test_image_without_wide_oval_fails_the_torus_check(self, monkeypatch):
        # (H - 1, F): the compact target level lies below W everywhere
        calls = _count_calls(monkeypatch)
        m = cusp_compact_model(F_ONE_PLUS_Y)
        phi = (Density({(1, 0, 0): 1, (0, 0, 0): -1}), Density({(0, 1, 0): 1}))
        v = cusp_torus_equivalent(m, m, phi)
        assert not v.equivalent and v.k is None
        assert v.checks["I_mu"] == {"ok": False, "k": None, "residuals": []}
        # sys1's 9 narrow and 4 wide integrals; no image has an oval
        assert (len(calls["roots"]), calls["engine"]) == (3, [13])


def _count_calls(monkeypatch, spoiled=None) -> dict:
    """The batch sizes of the stacked root solves ("roots") and the engine
    calls ("engine") from here on; ``spoiled`` names an engine value set to
    NaN, as an integral that does not converge gives."""
    calls = {"roots": [], "engine": []}
    real_roots, real_engine = model_module._stacked_roots, quadrature._level_integrals

    def roots(polys):
        calls["roots"].append(len(polys))
        return real_roots(polys)

    def engine(jobs):
        calls["engine"].append(len(jobs))
        values = real_engine(jobs)
        if spoiled is not None:
            values[spoiled] = np.nan
        return values

    monkeypatch.setattr(model_module, "_stacked_roots", roots)
    monkeypatch.setattr(equivalence_module, "_level_integrals", engine)
    monkeypatch.setattr(quadrature, "_level_integrals", engine)
    return calls


def bare_density(f):
    """The one-dof verdict takes densities, not models."""
    return f


def invariant_reports(sys1, sys2):
    """invariant_report of each system, in the two-system shape of a verdict."""
    return invariant_report(sys1), invariant_report(sys2)


class TestVanishingDensity:
    # f = y vanishes at the orbit: f dx^dy is not symplectic there, so no
    # orientation can be corrected and no verdict or invariant is given
    @pytest.mark.parametrize(
        "verdict, model",
        [
            (parabolic_equivalent, cusp_local_model),
            (cusp_torus_equivalent, cusp_compact_model),
            (one_dof_equivalent, bare_density),
            (invariant_reports, cusp_local_model),
            (invariant_reports, cusp_compact_model),
        ],
    )
    def test_no_verdict(self, verdict, model):
        m = model(Density({(0, 1, 0): 1}))
        with pytest.raises(ValueError, match="density vanishes at the orbit"):
            verdict(m, m)
        with pytest.raises(ValueError, match="density vanishes at the orbit"):
            verdict(model(F_ONE), m)


class TestDiagramQueries:
    # cold, three root solves: sys1's table, d1's at its 4 sigma lambdas and 3
    # grid lambdas, then sys1's 9 narrow levels with the W' of their 3 lambdas
    # and, on the torus, its 4 wide levels with the W' of their 4 lambdas;
    # then the request's one solve of d2's W' at the images of the 4 x 2
    # branch values and sys2's levels at the images of sys1's.  Warm, that
    # one solve only
    @pytest.mark.parametrize(
        "verdict, sys1, sys2, equivalent",
        [
            pytest.param(
                parabolic_equivalent,
                cusp_local_model(),
                cusp_local_model(),
                True,
                id="parabolic_equivalent-cusp_local_model",
            ),
            pytest.param(
                parabolic_equivalent,
                cusp_local_model(F_ONE),
                cusp_local_model(Density.constant(2)),
                False,
                id="parabolic_equivalent-cusp_local_model-f2",
            ),
            pytest.param(
                cusp_torus_equivalent,
                cusp_compact_model(),
                cusp_compact_model(),
                True,
                id="cusp_torus_equivalent-cusp_compact_model",
            ),
        ],
    )
    def test_self_comparison_solves(self, monkeypatch, verdict, sys1, sys2, equivalent):
        calls = _count_calls(monkeypatch)
        assert verdict(sys1, sys2).equivalent == equivalent
        wide = 4 + 4 if verdict is cusp_torus_equivalent else 0
        assert calls["roots"] == [7, 9 + 3 + wide, 8 + 9 + 3 + wide]
        assert len(calls["engine"]) == 1
        calls["roots"].clear()
        assert verdict(sys1, sys2).equivalent == equivalent
        assert calls["roots"] == [8 + 9 + 3 + wide]
        assert len(calls["engine"]) == 2


class TestCuspTorusEquivalent:
    def test_self_identity_k0(self):
        m = cusp_compact_model(F_ONE)
        v = cusp_torus_equivalent(m, m)
        assert v.equivalent
        assert v.k == 0

    def test_mu_shift_recovered(self):
        m = cusp_compact_model(F_ONE)
        v = cusp_torus_equivalent(m, m, mu_shift2=1)
        assert v.equivalent
        assert v.k == -1

    def test_lambda_dependent_density_not_equivalent(self):
        f2 = Density({(0, 0, 0): 1.0, (0, 0, 2): 0.1})  # 1 + lambda^2/10
        v = cusp_torus_equivalent(cusp_compact_model(F_ONE), cusp_compact_model(f2))
        assert not v.equivalent

    def test_local_models_rejected(self):
        with pytest.raises(ValueError):
            cusp_torus_equivalent(cusp_local_model(F_ONE), cusp_local_model(F_ONE))

    def test_orientation_corrected_for_every_check(self):
        # f = -1 is f = 1 after (x, y) -> (-x, y); I_mu must be compared on
        # the oriented systems, as the parabolic checks are
        m_neg = cusp_compact_model(Density.constant(-1))
        v = cusp_torus_equivalent(m_neg, cusp_compact_model(F_ONE))
        assert v.equivalent
        assert v.k == 0
        assert v.checks["orientation_corrected"] == {"sys1": True, "sys2": False}
        assert max(v.checks["I_mu"]["residuals"]) < 1e-12


class TestInvariantReport:
    def test_unit_density_report(self):
        rep = invariant_report(cusp_local_model(F_ONE))
        assert all(abs(float(v)) < 1e-10 for v in rep.canonical_f.coeffs)
        assert rep.orientation["density_positive_at_orbit"]
        assert all(h > 0 for _, h in rep.h_samples)
        assert all(a < 0 for _, a in rep.log_coeffs)

    def test_density_scaling_doubles_h(self):
        r1 = invariant_report(cusp_local_model(F_ONE), lam_values=(-0.05,), log_lam_values=())
        r2 = invariant_report(
            cusp_local_model(Density.constant(2)), lam_values=(-0.05,), log_lam_values=()
        )
        assert abs(r2.h_samples[0][1] - 2.0 * r1.h_samples[0][1]) < 1e-12

    def test_compact_report_exact_values(self, monkeypatch):
        # after the sign bridge the compact level is y^3 (1 - y) - x^2; the
        # quartic term feeds every order of alpha and beta
        alpha = [
            Fraction(1),
            Fraction(56, 81),
            Fraction(110656, 32805),
            Fraction(34303360, 1594323),
            Fraction(218306583040, 1420541793),
        ]
        beta = [
            Fraction(2, 3),
            Fraction(440, 243),
            Fraction(1376320, 137781),
            Fraction(319306240, 4782969),
            Fraction(2461212497920, 5036466357),
        ]
        m = cusp_compact_model(F_ONE)
        pair = brieskorn.model_pair(m)
        assert pair.alpha.coeffs == alpha and pair.beta.coeffs == beta
        calls = []
        real_passage = quadrature.passage_jobs

        def counted(*args, **kwargs):
            calls.append(1)
            return real_passage(*args, **kwargs)

        monkeypatch.setattr(quadrature, "passage_jobs", counted)
        monkeypatch.setattr(equivalence_module, "passage_jobs", counted)
        rep = invariant_report(m, lam_values=(-0.05,), log_lam_values=())
        assert rep.alpha.coeffs == [float(v) for v in alpha]
        assert rep.beta.coeffs == [float(v) for v in beta]
        assert calls == []

    def test_compact_fit_oracle_matches_exact_pair(self):
        m = cusp_compact_model(F_ONE)
        exact, fitted = brieskorn.model_pair(m), compact_fitted_pair(m)
        for k in range(2):
            assert float(fitted.alpha.coeffs[k]) == pytest.approx(float(exact.alpha.coeffs[k]), rel=1e-4)
            assert float(fitted.beta.coeffs[k]) == pytest.approx(float(exact.beta.coeffs[k]), rel=1e-3)

    def test_h_invariance_under_fiber_relabeling(self):
        # h(lambda) depends only on the fiber structure: relabeling
        # H~ = H + 0.1 H^2 reaches the same separatrix fiber
        m = cusp_local_model(F_ONE_PLUS_Y)
        lam = -0.3
        from cuspinv.quadrature import loop_action, separatrix_action

        h_ref = separatrix_action(m, lam)
        h_hyp = 2.0 * 0.3**1.5 / (3.0 * math.sqrt(3.0))
        # sample I_o against the relabeled coordinate and take the supremum
        hs = h_hyp - np.geomspace(1e-9, 0.5 * h_hyp, 25)
        vals = []
        for h in hs:
            h_relabel = h + 0.1 * h * h  # monotone near 0: same fiber set
            h_back = (math.sqrt(1 + 0.4 * h_relabel) - 1) / 0.2
            vals.append(loop_action(m, h_back, lam))
        assert abs(max(vals) - h_ref) < 1e-5


class TestJson:
    def test_verdict_json(self):
        m = cusp_local_model(F_ONE)
        v = parabolic_equivalent(m, m)
        data = v.to_json()
        assert data["equivalent"] is True

    def test_report_json(self):
        rep = invariant_report(cusp_local_model(F_ONE), lam_values=(-0.05,), log_lam_values=())
        data = rep.to_json()
        assert "one_dof" in data and "h_samples" in data
