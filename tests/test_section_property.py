"""Section times drawn by hypothesis: the checks of ``section_jobs``, masks on
arrays, against the per-point route of ``oracles.scalar_section_checks``, and
the quasi-homogeneity of the times on the local model."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import test_flows  # noqa: E402
from cuspinv.model import (  # noqa: E402
    CUSP_COMPACT,
    CUSP_LOCAL,
    ONE_DOF,
    Density,
    FibrationModel,
    cusp_local_model,
)
from cuspinv.quadrature import section_jobs, section_time  # noqa: E402

from oracles import scalar_section_checks  # noqa: E402

#: per kind, the heights y drawn: the passage arcs, the closed ovals and the
#: levels off both, around the cusp
_Y = {CUSP_LOCAL: (-1.5, 1.0), CUSP_COMPACT: (-1.1, 0.4), ONE_DOF: (-0.5, 2.0)}

#: up to three terms besides the constant, odd ones in x among them; a
#: negative constant or a large y term gives f < 0 at a point or a zero of f
#: on the stretch
_TERMS = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 1)),
    st.floats(-3.0, 3.0, allow_subnormal=False),
    max_size=3,
)

#: a point's x in units of x0: on N1 (1), before it (> 1), past N2 (< -1),
#: near the axis, where the closed ovals lie, and anywhere between
_T = st.one_of(st.just(1.0), st.floats(-1.8, 1.4), st.floats(-0.3, 0.3))


def _outcome(build, model, points):
    """The first error raised, by type and message, or the jobs' bits."""
    try:
        jobs = build(model, points)
    except ValueError as exc:
        return type(exc), str(exc)
    return [getattr(jobs, k).tobytes() for k in ("lower", "upper", "a", "b", "lam")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from([CUSP_LOCAL, CUSP_COMPACT, ONE_DOF]),
    st.sampled_from([1.0, 0.2, -1.0]),
    _TERMS,
    st.floats(-0.4, 0.2),
    st.lists(st.tuples(_T, st.floats(0.0, 1.0)), min_size=1, max_size=4),
)
# on N1, moving, and f = 1 + 5 x vanishing at x = -0.2 past the turn
@example(CUSP_LOCAL, 1.0, {(1, 0, 0): 5.0}, -0.3, [(1.0, 0.2), (0.5, 0.3), (-0.8, 0.25)])
# moving, then before N1; on N1 to rounding, then just before it
@example(CUSP_LOCAL, 1.0, {}, -0.3, [(0.5, 0.3), (1.2, 0.1)])
@example(ONE_DOF, 1.0, {}, 0.0, [(1.0 - 1e-13, 0.5), (1.0 + 1e-10, 0.5)])
# f < 0: no check on N1, then f < 0 at a moving point
@example(CUSP_LOCAL, -1.0, {}, -0.3, [(1.0, 0.2), (0.5, 0.3)])
# f = 1 + 2 y on the one-dof model: on N1 and moving; f = 1 - 2 y vanishes
@example(ONE_DOF, 1.0, {(0, 1, 0): 2.0}, 0.1, [(1.0, 0.5), (0.2, 0.3)])
@example(ONE_DOF, 1.0, {(0, 1, 0): -2.0}, 0.1, [(0.2, 0.3)])
# the compact model on N1 and past N2, then off the arc
@example(CUSP_COMPACT, 1.0, {(0, 1, 0): 2.0}, -0.1, [(1.0, 0.7), (-1.2, 0.4), (0.2, 0.3)])
# past N2 on the local arc, then a closed narrow oval of the local model
@example(CUSP_LOCAL, 1.0, {(0, 1, 1): 0.5}, -0.3, [(-1.5, 0.2), (0.05, 0.62)])
def test_section_checks_match_the_per_point_route(kind, const, terms, lam, draws):
    model = FibrationModel(kind, Density({(0, 0, 0): const, **terms}))
    lo, hi = _Y[kind]
    points = [(model.x0 * t, lo + u * (hi - lo), lam) for t, u in draws]
    assert _outcome(section_jobs, model, points) == _outcome(scalar_section_checks, model, points)


#: the points of the section times' differential test on the local model
_LOCAL_CASES = [(xy, lam) for m, lam, xy in test_flows.TestSectionTime()._cases() if m.kind == CUSP_LOCAL]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(-4, 4).filter(bool))
def test_section_times_are_quasi_homogeneous(k):
    # H = x^2 + y^3 + lambda y has weights (x, y, H, lambda) = (3, 2, 6, 4),
    # dy/x weight -1: at (s^3 x, s^2 y, s^4 lambda) with x0 scaled by s^3 the
    # times are 1/s times those at (x, y, lambda); s = 2^k keeps every input exact
    s = 2.0**k
    (x, y), lam = np.array([xy for xy, _ in _LOCAL_CASES]).T, np.array([lam for _, lam in _LOCAL_CASES])
    t = section_time(cusp_local_model(), x, y, lam)
    scaled = section_time(cusp_local_model(x0=s**3), s**3 * x, s**2 * y, s**4 * lam)
    assert len(t) == 15 and np.all(t > 0)
    assert np.all(np.abs(s * scaled - t) <= 1e-12 * t)
