"""The models' exact symmetries drawn by hypothesis: the one-dof sign bridge
of the passage time and the mu-shift of the chart's I_mu column."""

from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cuspinv.model import (  # noqa: E402
    Density,
    OnSigmaError,
    cusp_compact_model,
    cusp_local_model,
    one_dof_model,
)
from cuspinv.quadrature import action_chart, passage_time  # noqa: E402

EPS = 2.0**-52

#: up to three terms besides the constant 1, odd ones in x or y among them,
#: small enough that f > 0.2 where |x| <= 1, |y| <= 1.15 and |lambda| <= 0.06:
#: on every passage and oval drawn below
_DENSITIES = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)).filter(any),
    st.floats(-0.2, 0.2, allow_subnormal=False),
    max_size=3,
).map(lambda terms: Density({(0, 0, 0): 1.0, **terms}))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_DENSITIES, st.floats(0.01, 0.5))
def test_sign_bridge_matches_one_dof(f, H):
    # cusp_local at lambda = 0 and level -H is one_dof at level H with the
    # mirrored density (y -> -y): the same passage time
    bridged = passage_time(cusp_local_model(f), -H, 0.0)
    one_dof = passage_time(one_dof_model(f.mirror_y()), H)
    assert abs(bridged - one_dof) <= 1e-10 * max(1.0, abs(one_dof))


def _row(model, H, lam, mu_shift):
    """The chart's one row at (H, lambda), or the error its chart raises."""
    try:
        return action_chart(model, [H], [lam], mu_shift=mu_shift).rows[0]
    except OnSigmaError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_DENSITIES, st.floats(-0.02, 0.05), st.floats(-0.06, 0.02), st.integers(-3, 3))
def test_mu_shift_column(f, H, lam, k):
    # I_mu + k lambda is the chart of mu-shift k: the other cells, the stratum
    # and the blanks are those of mu-shift 0
    m = cusp_compact_model(f)
    base, shifted = _row(m, H, lam, 0), _row(m, H, lam, k)
    if isinstance(base, str):
        assert shifted == base
        return
    assert replace(shifted, I_mu=None) == replace(base, I_mu=None)
    if base.I_mu is None:
        assert shifted.I_mu is None
    else:
        expected = base.I_mu + k * lam
        assert abs(shifted.I_mu - expected) <= 4 * EPS * max(abs(base.I_mu), abs(k * lam))
