"""The parabolic-point checker drawn by hypothesis: float data give the exact
data's verdict, and exact ranks are those of exact linear algebra."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cuspinv.model import Density, is_parabolic  # noqa: E402

H_STD = Density({(2, 0, 0): 1, (0, 3, 0): 1, (0, 1, 1): 1})
F_LAM = Density({(0, 0, 1): 1})

#: (H, F, point) of each verdict of ``test_model.py``'s TestIsParabolic
MODEL_CASES = [
    (H_STD, F_LAM, (0, 0, 0)),  # parabolic
    (H_STD, F_LAM, (Fraction(0), Fraction(1, 2), Fraction(-3, 4))),  # fails_i: elliptic
    (Density({(2, 0, 0): 1, (0, 4, 0): 1, (0, 1, 1): 1}), F_LAM, (0, 0, 0)),  # fails_ii
    (Density({(2, 0, 0): 1, (0, 3, 0): 1, (0, 1, 2): 1}), F_LAM, (0, 0, 0)),  # fails_iii
    (H_STD, F_LAM, (1, 0, 0)),  # regular
]


#: the monomials H, F, H^2, HF, F^2, H^3, H^2F, HF^2, F^3 of a base-map component
_BASE_MONOMIALS = [(1, 0, 0), (0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 2, 0), (3, 0, 0), (2, 1, 0),
                   (1, 2, 0), (0, 3, 0)]


@st.composite
def _base_changes(draw):
    """(H~, F~, origin) = phi(H_STD, lambda) as criterion 10 draws phi: integer
    coefficients in [-3, 3], dH~/dH = 1 where drawn 0, Jacobian and dF~/dF
    at least 1/2."""
    coeffs = st.lists(st.integers(-3, 3), min_size=9, max_size=9)
    hc, fc = draw(coeffs), draw(coeffs)
    hc[0] = hc[0] or 1
    assume(abs(hc[0] * fc[1] - hc[1] * fc[0]) >= 0.5 and abs(fc[1]) >= 0.5)
    ht, ft = (Density(dict(zip(_BASE_MONOMIALS, c))) for c in (hc, fc))
    return ht.compose(H_STD, F_LAM), ft.compose(H_STD, F_LAM), (0, 0, 0)


def _floats(d: Density) -> Density:
    return Density({e: float(c) for e, c in d.terms.items()})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(MODEL_CASES), _base_changes()))
def test_float_data_give_the_exact_verdict(case):
    H, F, point = case
    exact = is_parabolic(H, F, point)
    for point_f in (point, tuple(float(v) for v in point)):
        got = is_parabolic(_floats(H), _floats(F), point_f)
        assert (got.verdict, got.rank_d2H0, got.rank_full) == (
            exact.verdict,
            exact.rank_d2H0,
            exact.rank_full,
        )
        for a, b in ((got.k, exact.k), (got.v3H0, exact.v3H0)):
            assert abs(float(a) - float(b)) <= 1e-12 * max(1.0, abs(float(b)))


def test_non_integral_float_point_fails_i():
    v = is_parabolic(H_STD, F_LAM, (0.0, 0.5, -0.75))
    exact = is_parabolic(H_STD, F_LAM, (Fraction(0), Fraction(1, 2), Fraction(-3, 4)))
    assert v.verdict == exact.verdict == "fails_i"
    assert (v.rank_d2H0, v.rank_full) == (exact.rank_d2H0, exact.rank_full)


#: monomials of degree <= 3 in (x, y, lambda) but x and y: dH(0) = k dlambda
_MONOMIALS = [
    (i, j, k)
    for i in range(4)
    for j in range(4 - i)
    for k in range(4 - i - j)
    if 1 <= i + j + k and (i, j, k) not in ((1, 0, 0), (0, 1, 0))
]
#: an exact coefficient n / 10^p: tiny ones among them, as a float SVD's
#: threshold would drop
_COEFFS = st.builds(lambda n, p: Fraction(n, 10**p), st.integers(-3, 3), st.integers(0, 12))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(_MONOMIALS), _COEFFS, max_size=8))
def test_exact_rank_full_is_the_rank_of_the_hessian(terms):
    H = Density(terms)
    v = is_parabolic(H, F_LAM, (0, 0, 0))
    assert v.verdict != "regular"
    x, y, lam = sympy.symbols("x y lam")
    expr = sympy.Add(*(sympy.Rational(c.numerator, c.denominator) * x**i * y**j * lam**k
                       for (i, j, k), c in H.terms.items()))
    # with F = lambda, d^2 (H - k F) is d^2 H
    hessian = sympy.hessian(expr, (x, y, lam)).subs({x: 0, y: 0, lam: 0})
    assert v.rank_full == hessian.rank()
    assert v.rank_full >= v.rank_d2H0
