"""The rescaling inverse drawn by hypothesis: ``RescaleMap.h_inverse`` solves
h(t) = H to the rounding of h, relative to H, at every scale of H."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cuspinv.equivalence import RescaleMap  # noqa: E402
from cuspinv.series import TruncatedSeries  # noqa: E402

EPS = 2.0**-52


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    # g drawn as test_equivalence.py's TestCanonicalFInvariance draws it
    st.tuples(st.floats(0.6, 1.6), st.floats(-0.4, 0.4), st.floats(-0.2, 0.2)),
    st.floats(-10.0, -1.0),
    st.sampled_from([-1.0, 1.0]),
)
def test_h_inverse_relative_residual_within_4_eps(g, exponent, sign):
    # the residual of the returned float in exact rational arithmetic: an
    # absolute tolerance on t would leave it large at small |H|
    rmap = RescaleMap(TruncatedSeries(list(g), order=4))
    target = sign * 10.0**exponent
    t = Fraction(rmap.h_inverse(target))
    h = t * sum(Fraction(c) * t**k for k, c in enumerate(rmap.g.coeffs))
    assert abs(h - Fraction(target)) <= 4 * EPS * abs(Fraction(target))
