import math
from fractions import Fraction

import numpy as np
import pytest

from cuspinv.series import (
    PuiseuxTriple,
    TruncatedSeries,
    phi_r_apply,
    phi_r_invert,
)


class TestArithmetic:
    def test_cancellation(self):
        s = TruncatedSeries([1, 1]) + TruncatedSeries([1, -1])
        assert s.coeffs == [2, 0]

    def test_product_truncated_at_2(self):
        lhs = TruncatedSeries([1, 1], order=2)
        rhs = TruncatedSeries([1, -1], order=2)
        assert (lhs * rhs).coeffs == [1, 0, -1]

    def test_truncation_drops_beyond_order(self):
        h = TruncatedSeries([0, 1], order=1)
        assert (h * h).coeffs == [0, 0]

    def test_min_order_rule(self):
        a = TruncatedSeries([1, 2, 3, 4])
        b = TruncatedSeries([1, 1])
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_scalar_ops(self):
        s = TruncatedSeries([1, 2]) * 3 - 1
        assert s.coeffs == [2, 6]

    def test_exact_fraction_arithmetic(self):
        a = TruncatedSeries([Fraction(1, 3), Fraction(2, 7)])
        b = TruncatedSeries([Fraction(1, 2), Fraction(5, 3)])
        assert (a * b).coeffs == [Fraction(1, 6), Fraction(1, 7) + Fraction(5, 9)]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1.0, math.inf])


class TestCalculus:
    def test_deriv_and_eval(self):
        s = TruncatedSeries([1.0, 2.0, 3.0])
        assert s.deriv().coeffs == [2.0, 6.0]
        assert s.eval(0.5) == 1.0 + 1.0 + 0.75

    def test_compose_reversion_roundtrip(self):
        h = TruncatedSeries([0.0, 1.0, 0.5, -0.25, 0.0, 0.1], order=5)
        hinv = h.reversion()
        comp = h.compose(hinv)
        assert abs(comp.coeffs[1] - 1.0) < 1e-12
        assert max(abs(c) for c in comp.coeffs[2:]) < 1e-12

    def test_compose_reversion_exact(self):
        h = TruncatedSeries(
            [0, Fraction(3, 2)] + [Fraction((-1) ** k * k, k + 3) for k in range(2, 15)]
        )
        assert h.order == 14
        assert h.compose(h.reversion()) == TruncatedSeries.identity(14)

    def test_pow_roundtrip(self):
        s = TruncatedSeries([1, Fraction(-3, 10), Fraction(3, 25), Fraction(1, 20)])
        r = Fraction(2, 7)
        assert s.pow(r) * s.pow(-r) == TruncatedSeries([1], order=3)
        f = TruncatedSeries([2.0, -0.3, 0.12, 0.05])
        back = f.pow(0.3) * f.pow(-0.3)
        assert np.allclose(back.coeffs, [1.0, 0.0, 0.0, 0.0], rtol=1e-13, atol=1e-13)

    def test_pow(self):
        s = TruncatedSeries([4.0, 1.0, 0.2, 0.0])
        sq = s.pow(0.5)
        assert np.allclose((sq * sq).coeffs, s.coeffs, rtol=1e-12, atol=1e-12)

    def test_cube_root_exact(self):
        one_minus_y = TruncatedSeries([Fraction(1), Fraction(-1)], order=14)
        root = one_minus_y.pow(Fraction(1, 3))
        assert all(isinstance(c, Fraction) for c in root.coeffs)
        assert root * root * root == TruncatedSeries([1, -1], order=14)

    def test_pow_domain(self):
        with pytest.raises(ValueError):
            TruncatedSeries([-1.0, 0.5, 0.1]).pow(0.5)
        with pytest.raises(ValueError):
            TruncatedSeries([0.0, 1.0]).pow(2)
        # an integral exponent needs only c_0 != 0
        s = TruncatedSeries([-2.0, 1.0, 0.5])
        assert np.allclose(s.pow(2).coeffs, (s * s).coeffs, rtol=1e-15, atol=0)

    def test_reciprocal(self):
        s = TruncatedSeries([2.0, 1.0, -0.5])
        one = s * s.reciprocal()
        assert np.allclose(one.coeffs, [1.0, 0.0, 0.0], atol=1e-14)


class TestPhiR:
    def test_constant(self):
        out = phi_r_apply(TruncatedSeries([1]), Fraction(5, 6))
        assert out.coeffs == [Fraction(5, 6)]

    def test_linear(self):
        out = phi_r_apply(TruncatedSeries([0, 1]), Fraction(5, 6))
        assert out.coeffs == [0, Fraction(11, 6)]

    def test_termwise(self):
        out = phi_r_apply(TruncatedSeries([1, 1]), Fraction(7, 6))
        assert out.coeffs == [Fraction(7, 6), Fraction(13, 6)]

    def test_invert_constant(self):
        c1 = -1.4936684004443737
        out = phi_r_invert(TruncatedSeries([c1]), Fraction(7, 6))
        assert abs(out.coeffs[0] - 6.0 * c1 / 7.0) < 1e-15

    def test_roundtrip_float_machine_precision(self):
        rng = np.random.default_rng(7)
        series = TruncatedSeries(rng.standard_normal(6).tolist())
        back = phi_r_invert(phi_r_apply(series, 5.0 / 6.0), 5.0 / 6.0)
        assert np.allclose(back.coeffs, series.coeffs, rtol=1e-15, atol=0)

    def test_roundtrip_exact_rational(self):
        series = TruncatedSeries([Fraction(3, 7), Fraction(-2, 5), Fraction(11, 13)])
        for r in (Fraction(5, 6), Fraction(7, 6), Fraction(-1, 2)):
            back = phi_r_invert(phi_r_apply(series, r), r)
            assert back.coeffs == series.coeffs

    def test_integral_r_rejected(self):
        for r in (0, 1, -3, Fraction(4, 2), 2.0):
            with pytest.raises(ValueError):
                phi_r_invert(TruncatedSeries([1.0]), r)


class TestPuiseuxTriple:
    def _random_triple(self, rng, order=2):
        return PuiseuxTriple(
            TruncatedSeries(rng.standard_normal(order + 1).tolist()),
            TruncatedSeries(rng.standard_normal(order + 1).tolist()),
            TruncatedSeries(rng.standard_normal(order + 1).tolist()),
        )

    def test_eval(self):
        t = PuiseuxTriple(
            TruncatedSeries([2.0]), TruncatedSeries([-1.0]), TruncatedSeries([0.5])
        )
        h = 0.3
        expected = 2.0 * h ** (-1 / 6) - h ** (1 / 6) + 0.5
        assert abs(t.eval(h) - expected) < 1e-14

    def test_eval_requires_positive(self):
        t = PuiseuxTriple(TruncatedSeries([1]), TruncatedSeries([0]), TruncatedSeries([0]))
        with pytest.raises(ValueError):
            t.eval(-0.1)

    def test_distinct_triples_separate_on_samples(self):
        # uniqueness: triples differing in coefficients differ on >= 3(K+1)
        # geometric sample points by much more than any fitting tolerance
        rng = np.random.default_rng(11)
        grid = [0.2 * 4.0**-m for m in range(9)]
        for _ in range(20):
            t1 = self._random_triple(rng)
            t2 = self._random_triple(rng)
            dc = max(
                max(abs(np.array(a.coeffs) - np.array(b.coeffs)))
                for a, b in ((t1.a, t2.a), (t1.b, t2.b), (t1.c, t2.c))
            )
            dv = max(abs(t1.eval(h) - t2.eval(h)) for h in grid)
            assert dv > 1e-6 * dc
