import mpmath as mp
import pytest

from cuspinv.specfun import puiseux_constants

from oracles import direct_Jj, reference_Jj


class TestConstants:
    def test_formulas(self):
        c = puiseux_constants()
        with mp.workdps(30):
            third, sixth = mp.mpf(1) / 3, mp.mpf(1) / 6
            c0 = mp.sqrt(mp.pi) / 3 * mp.gamma(sixth) / mp.gamma(2 * third)
            c1 = mp.sqrt(mp.pi) / 3 * mp.gamma(-sixth) / mp.gamma(third)
            assert abs((c["C0"] - c0) / c0) <= 1e-15
            assert abs((c["C1"] - c1) / c1) <= 1e-15

    def test_values_and_signs(self):
        c = puiseux_constants()
        assert abs(c["C0"] - 2.42866) < 1e-5 * 2.42866
        assert abs(c["C1"] + 1.49366) < 2e-5 * 1.49366
        assert c["C0"] > 0
        assert c["C1"] < 0


class TestReferenceJj:
    def test_against_quadrature(self):
        for j in (0, 1):
            for H in (1e-3, 0.01, 0.1, 0.5, 1.0, 2.0):
                ref = direct_Jj(H, j)
                assert abs(reference_Jj(H, j) - ref) <= 1e-8 * max(1.0, abs(ref))

    def test_fractional_remainder_bounded(self):
        c = puiseux_constants()
        for j, cj in ((0, c["C0"]), (1, c["C1"])):
            remainders = [
                reference_Jj(10.0**-k, j) - cj * (10.0**-k) ** ((2 * j - 1) / 6.0)
                for k in range(2, 9)
            ]
            # converges to the analytic value at 0
            deltas = [abs(remainders[i + 1] - remainders[i]) for i in range(len(remainders) - 1)]
            assert all(d2 < d1 for d1, d2 in zip(deltas, deltas[1:]))
            assert abs(remainders[-1] - remainders[-2]) < 1e-6

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            reference_Jj(0.0, 0)
        with pytest.raises(ValueError):
            reference_Jj(-1.0, 1)
        with pytest.raises(ValueError):
            reference_Jj(1.0, 2)
