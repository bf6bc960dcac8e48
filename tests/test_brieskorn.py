from fractions import Fraction

import numpy as np
import pytest

from cuspinv import brieskorn
from cuspinv.equivalence import fitted_pair
from cuspinv.model import Density, cusp_compact_model, cusp_local_model
from cuspinv.specfun import puiseux_constants

F = Fraction


def _pair_coeffs(pair):
    return list(pair.alpha.coeffs), list(pair.beta.coeffs)


class TestBasisMonomials:
    def test_constant(self):
        a, b = _pair_coeffs(brieskorn.reduce(Density.constant(1)))
        assert a[0] == 1 and all(c == 0 for c in a[1:])
        assert all(c == 0 for c in b)

    def test_y(self):
        a, b = _pair_coeffs(brieskorn.reduce(Density({(0, 1, 0): 1})))
        assert all(c == 0 for c in a)
        assert b[0] == 1 and all(c == 0 for c in b[1:])

    def test_y_cubed(self):
        a, b = _pair_coeffs(brieskorn.reduce(Density({(0, 3, 0): 1})))
        assert a == [0, F(2, 5), 0, 0, 0]
        assert all(c == 0 for c in b)

    def test_y_squared_vanishes(self):
        a, b = _pair_coeffs(brieskorn.reduce(Density({(0, 2, 0): 1})))
        assert all(c == 0 for c in a) and all(c == 0 for c in b)

    def test_x_squared(self):
        a, b = _pair_coeffs(brieskorn.reduce(Density({(2, 0, 0): 1})))
        assert a == [0, F(-3, 5), 0, 0, 0]
        assert all(c == 0 for c in b)

    def test_x_terms_vanish(self):
        for e in ((1, 0, 0), (1, 1, 0), (1, 4, 0), (3, 2, 0)):
            a, b = _pair_coeffs(brieskorn.reduce(Density({e: 1})))
            assert all(c == 0 for c in a) and all(c == 0 for c in b)

    def test_lambda_terms_dropped(self):
        pair = brieskorn.reduce(Density({(0, 0, 0): 1, (0, 1, 1): 7}))
        assert pair.alpha.coeffs[0] == 1
        assert all(c == 0 for c in pair.beta.coeffs)


class TestBatchAndAlgebra:
    def test_basis_batch(self):
        out = [brieskorn.reduce(f) for f in (Density.constant(1), Density({(0, 1, 0): 1}))]
        assert out[0].alpha.coeffs[0] == 1 and out[0].beta.coeffs[0] == 0
        assert out[1].alpha.coeffs[0] == 0 and out[1].beta.coeffs[0] == 1

    def test_linearity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = _random_density(rng)
            g = _random_density(rng)
            a, b = F(int(rng.integers(-5, 6)), 3), F(int(rng.integers(-5, 6)), 7)
            combined = brieskorn.reduce(f * a + g * b)
            pf, pg = brieskorn.reduce(f), brieskorn.reduce(g)
            assert combined.alpha.coeffs == [
                a * x + b * y for x, y in zip(pf.alpha.coeffs, pg.alpha.coeffs)
            ]
            assert combined.beta.coeffs == [
                a * x + b * y for x, y in zip(pf.beta.coeffs, pg.beta.coeffs)
            ]


class TestQuadratureOracle:
    def test_y_squared_fitted_coefficients_vanish(self):
        triple, _ = fitted_pair(Density({(0, 2, 0): 1}))
        for h in (0.1, 0.01):
            assert abs(triple.a.eval(h)) < 1e-6
            assert abs(triple.b.eval(h)) < 1e-6

    def test_relative_exactness_of_rules(self):
        # residual f - alpha(H) - beta(H) y (H = y^3 - x^2 substituted) must
        # carry no fractional content in its passage time
        H_poly = Density({(0, 3, 0): 1, (2, 0, 0): -1})
        y_poly = Density({(0, 1, 0): 1})
        for f in (
            Density({(0, 3, 0): 1}),
            Density({(2, 0, 0): 1}),
            Density({(0, 4, 0): 1}),
            Density({(2, 1, 0): 1, (0, 0, 0): 1}),
        ):
            pair = brieskorn.reduce(f)
            recon = Density({})
            for k, c in enumerate(pair.alpha.coeffs):
                recon = recon + (H_poly**k) * c
            for k, c in enumerate(pair.beta.coeffs):
                recon = recon + (H_poly**k) * y_poly * c
            residual = f - recon
            triple, _ = fitted_pair(residual)
            assert abs(triple.a.coeffs[0]) < 1e-6
            assert abs(triple.b.coeffs[0]) < 1e-6

    def test_oracle_equality_leading_coefficients(self):
        # C0 alpha_k = a_k and C1 beta_k = b_k for k = 0, 1, 2
        c = puiseux_constants()
        f = Density({(0, 0, 0): 1, (0, 1, 0): F(1, 2), (0, 3, 0): 1, (0, 4, 0): F(1, 3), (2, 2, 0): 1})
        pair = brieskorn.reduce(f)
        triple, _ = fitted_pair(f)
        for k in range(3):
            want_a = c["C0"] * float(pair.alpha.coeffs[k])
            want_b = c["C1"] * float(pair.beta.coeffs[k])
            assert abs(triple.a.coeffs[k] - want_a) <= 1e-3 * max(abs(want_a), 1e-2)
            assert abs(triple.b.coeffs[k] - want_b) <= 1e-3 * max(abs(want_b), 1e-2)


def _random_density(rng) -> Density:
    terms = {}
    for _ in range(4):
        e = (int(rng.integers(0, 3)), int(rng.integers(0, 4)), 0)
        terms[e] = F(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
    return Density(terms)


class TestModelPair:
    F_PERTURBED = Density(
        {(0, 0, 0): 1.2, (0, 1, 0): 0.13, (2, 0, 0): -0.07, (1, 2, 0): 0.4, (0, 3, 0): -0.02, (0, 0, 1): 0.15}
    )

    def test_local_model_is_mirrored_reduction(self):
        # on the local model u = y, so the pullback is the identity
        f = self.F_PERTURBED
        want = brieskorn.reduce(f.restrict_lambda0().mirror_y())
        got = brieskorn.model_pair(cusp_local_model(f))
        assert got == brieskorn.BrieskornPair(want.alpha.truncated(4), want.beta.truncated(4))

    def test_float_density_reduced_exactly(self):
        f = self.F_PERTURBED
        exact = Density({e: F(c) for e, c in f.terms.items()})
        assert brieskorn.model_pair(cusp_compact_model(f)) == brieskorn.model_pair(
            cusp_compact_model(exact)
        )

    def test_pullback_keeps_only_reachable_weights(self, monkeypatch):
        # y^5 and x^3 y^2 pull back to long series in u; only x^a u^b with
        # 3a + 2b <= 6K + 2 can reach H^K, which leaves 29 monomials
        f = Density({(0, 0, 0): 1, (0, 5, 0): 0.3, (3, 2, 0): 0.1, (1, 4, 0): 0.2})
        model = cusp_compact_model(f)
        y, dy = brieskorn._level_chart(model.kind)
        as_density = lambda s: Density({(0, j, 0): c for j, c in enumerate(s.coeffs)})  # noqa: E731
        mirrored = f.restrict_lambda0().mirror_y()
        exact = Density({e: F(c) for e, c in mirrored.terms.items()})
        pulled = exact.compose(Density({(1, 0, 0): 1}), as_density(y)) * as_density(dy)
        full = brieskorn.reduce(pulled)
        sizes = []
        real_reduce = brieskorn.reduce

        def counted(density):
            sizes.append(len(density.terms))
            return real_reduce(density)

        monkeypatch.setattr(brieskorn, "reduce", counted)
        got = brieskorn.model_pair(model)
        assert got == brieskorn.BrieskornPair(full.alpha.truncated(4), full.beta.truncated(4))
        assert sizes == [29]
