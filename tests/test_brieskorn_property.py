"""Property test of the Brieskorn pairs summed from per-monomial tables,
drawn by hypothesis: Fraction for Fraction against the whole density
rewritten term by term (``oracles.rewrite_reduce``, ``oracles.pulled_pair``)."""

from fractions import Fraction

import pytest

from cuspinv import brieskorn
from cuspinv.model import Density, cusp_compact_model, cusp_local_model

from oracles import pulled_pair, rewrite_reduce

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: exact or float coefficients, floats with their full binary expansions
_COEFFS = st.one_of(
    st.fractions(min_value=-10, max_value=10, max_denominator=60),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_subnormal=False),
)
#: densities of x-degree <= 4 and y-degree <= 6, with lambda terms
_DENSITIES = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 6), st.integers(0, 2)), _COEFFS, max_size=8
).map(Density)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_DENSITIES)
def test_tables_equal_the_whole_density_rewrite(f):
    got = brieskorn.reduce(f)
    assert got == rewrite_reduce(f)  # Fraction equality, series lengths included
    assert all(isinstance(c, Fraction) for c in got.alpha.coeffs + got.beta.coeffs)
    for make in (cusp_local_model, cusp_compact_model):
        model = make(f)
        assert brieskorn.model_pair(model) == pulled_pair(model)


def test_cancelled_top_power_keeps_its_length():
    # x^10 and y^15 both reduce onto alpha_5 alone; in this ratio their sum
    # cancels there, and alpha still runs through H^5, as the rewrite gives
    ratio = [brieskorn.reduce(Density({e: 1})).alpha.coeffs[5] for e in ((10, 0, 0), (0, 15, 0))]
    f = Density({(10, 0, 0): 1, (0, 15, 0): -ratio[0] / ratio[1]})
    got = brieskorn.reduce(f)
    assert got == rewrite_reduce(f) and got.alpha.coeffs == [0] * 6
