"""Property tests of Density.eval, its product powers and the two-sign
kernels, drawn by hypothesis: bit for bit against the naive term-by-term sum."""

import numpy as np
import pytest

from cuspinv.model import Density
from cuspinv.quadrature import area_kernel, form_kernel

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402


def _product_power(v, n: int):
    """v^n as the product ((v v) v)...; 1.0 for n = 0."""
    out = 1.0 if n == 0 else v
    for _ in range(n - 1):
        out = out * v
    return out


def _naive_eval(f: Density, x, y, lam):
    """Term by term, every factor taken, as ((c x^i) y^j) lam^k with product
    powers; the empty density's 0.0 takes the shape of x, y and lambda
    broadcast."""
    acc = 0.0
    for (i, j, k), c in f.terms.items():
        acc = acc + float(c) * _product_power(x, i) * _product_power(y, j) * _product_power(lam, k)
    return np.broadcast_to(acc, np.broadcast(x, y, lam).shape)


def _bits(v) -> tuple:
    v = np.asarray(v, dtype=float)
    return v.shape, v.tobytes()


_PROPERTY = settings(max_examples=150, deadline=None)
#: densities of degree <= 4 with float or integer coefficients
_DENSITIES = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * 3).filter(lambda e: sum(e) <= 4),
    st.one_of(
        st.floats(-100.0, 100.0, allow_nan=False).filter(lambda c: c != 0),
        st.integers(-50, 50).filter(lambda c: c != 0),
    ),
    max_size=8,
).map(Density)
_COORD = st.floats(-2.0, 2.0, allow_nan=False)
#: densities with a term of odd x-degree 3 or 5, where a pow routine may
#: break the symmetry x -> -x that products keep
_ODD_DENSITIES = st.tuples(
    _DENSITIES, st.sampled_from((3, 5)), st.integers(0, 2), st.integers(0, 2), _COORD.filter(bool)
).map(lambda t: t[0] + Density({(t[1], t[2], t[3]): t[4]}))
_BLOCK = hnp.arrays(np.float64, (5, 7), elements=_COORD)


class TestDensityEvalProperty:
    """The shared-power Density.eval against the naive term-by-term sum, bit
    for bit, and the kernels' one evaluation of both signs against two."""

    @_PROPERTY
    @given(_DENSITIES, _COORD, _COORD, _COORD)
    def test_scalars(self, f, x, y, lam):
        for xs in (x, -x):
            assert _bits(f.eval(xs, y, lam)) == _bits(_naive_eval(f, xs, y, lam))

    @_PROPERTY
    @given(
        _DENSITIES,
        hnp.arrays(np.float64, (5, 7), elements=_COORD),
        hnp.arrays(np.float64, (5, 7), elements=_COORD),
        hnp.arrays(np.float64, (5, 1), elements=_COORD),
    )
    def test_arrays(self, f, x, y, lam):
        # the engine's shapes: a column of lambdas against blocks of nodes
        for xs in (x, -x):
            assert _bits(f.eval(xs, y, lam)) == _bits(_naive_eval(f, xs, y, lam))
        assert _bits(f.eval(x[0], y[0], 0.5)) == _bits(_naive_eval(f, x[0], y[0], 0.5))
        both = 0.5 * (_naive_eval(f, x, y, lam) + _naive_eval(f, -x, y, lam))
        assert _bits(form_kernel(f)(x, y, lam)) == _bits(both)
        X = f.antiderivative_x()
        area = x * (_naive_eval(X, x, y, lam) - _naive_eval(X, -x, y, lam))
        assert _bits(area_kernel(f)(x, y, lam)) == _bits(area)

    @_PROPERTY
    @given(_ODD_DENSITIES, _BLOCK, _BLOCK, hnp.arrays(np.float64, (5, 1), elements=_COORD))
    def test_eval_pm_is_both_signs(self, f, x, y, lam):
        plus, minus = f.eval_pm(x, y, lam)
        assert _bits(plus) == _bits(f.eval(x, y, lam))
        assert _bits(minus) == _bits(f.eval(-x, y, lam))
        for xs, ys in ((x[0, 0], y[0, 0]), (-x[1, 2], y[1, 2])):
            xs, ys = float(xs), float(ys)
            assert _bits(f.eval_pm(xs, ys, 0.5)) == _bits((f.eval(xs, ys, 0.5), f.eval(-xs, ys, 0.5)))

    @_PROPERTY
    @given(_ODD_DENSITIES, _BLOCK, _BLOCK, _COORD)
    def test_scalar_calls_equal_one_array_call(self, f, x, y, lam):
        loop = [[f.eval(a, b, lam) for a, b in zip(*rows)] for rows in zip(x.tolist(), y.tolist())]
        assert _bits(loop) == _bits(f.eval(x, y, lam))

    @_PROPERTY
    @given(_BLOCK, _BLOCK, _COORD)
    def test_form_kernel_of_a_callable(self, x, y, lam):
        # a callable w (a pushed-forward density) is vectorised, each point
        # read as its own scalar call at x and at -x
        def w(u, v, l):
            return 1.0 + u * v - 0.3 * u**3 + l * v * v

        both = [[0.5 * (w(a, b, lam) + w(-a, b, lam)) for a, b in zip(*rows)] for rows in zip(x, y)]
        assert _bits(form_kernel(w)(x, y, lam)) == _bits(both)

