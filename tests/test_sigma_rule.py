"""The one Sigma rule: a level H is on Sigma at a critical point c of W where
|H - W(c)| < SIGMA_RTOL min(1, the gaps to the critical values next to W(c)).
The diagram, the oval builders and the passage builder read it alike."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cuspinv import quadrature  # noqa: E402
from cuspinv.model import (  # noqa: E402
    Density,
    bifurcation_diagram,
    cusp_compact_model,
    cusp_local_model,
    saddles,
    sigma_flags,
)
from cuspinv.quadrature import (  # noqa: E402
    LevelJob,
    OnSigmaError,
    StratumError,
    loop_action,
    oval_bounds,
    separatrix_action,
    wide_action,
)

from oracles import mp_separatrix_action  # noqa: E402


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([cusp_local_model, cusp_compact_model]),
    st.floats(-0.07, -1e-3),
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 0.3, -0.3]),
    st.booleans(),
)
def test_diagram_and_builders_agree_on_sigma_hyp(make, lam, t, hyperbolic):
    # H = a branch value + t (H_hyp - H_ell): on Sigma_hyp by the rule, the
    # diagram says outside and the narrow and passage builders both refuse;
    # on the narrow stratum both give jobs, or the passage misses the
    # sections (a compact level's blank Pi)
    model = make()
    diagram = bifurcation_diagram(model, domain_radius=math.inf)
    h_ell, h_hyp = diagram.branch_values(lam)
    H = (h_hyp if hyperbolic else h_ell) + t * (h_hyp - h_ell)
    levels = quadrature._levels(model, [(H, lam)], model.x0)
    (narrow,) = quadrature._oval_jobs([None], levels, "narrow")
    (passage,) = quadrature._arc_jobs([None], levels, -math.inf)
    (stratum,) = diagram.strata([(H, lam)])
    (a,) = saddles(model, np.array([lam]))[1]
    (flags,) = sigma_flags([H], [np.polyval(model.potential_coeffs(lam), levels.crit[0])])
    assert flags.tolist() == levels.sigma[0].tolist()
    on_hyp = flags[levels.crit[0] == a].any()
    assert on_hyp == (hyperbolic and abs(t) <= 1e-13)  # the saddle's flag, and no other's
    if on_hyp:
        assert stratum == "outside"
        assert isinstance(narrow, OnSigmaError) and isinstance(passage, OnSigmaError)
    if stratum == "narrow":
        assert isinstance(narrow, LevelJob)
        blank_pi = isinstance(passage, StratumError) and make is cusp_compact_model
        assert isinstance(passage, LevelJob) or blank_pi
    # the points within 1e-13 of the spread lie on Sigma, those 1e-9 away off it
    assert flags.any() == (abs(t) <= 1e-13)


class TestCompactSaddleLevel:
    LAM = -0.245  # the saddle's double root once read as two simple roots 1.8e-8 apart

    def _saddle_level(self):
        m = cusp_compact_model()
        _, (a,), _, _ = saddles(m, np.array([self.LAM]))
        return m, float(np.polyval(m.potential_coeffs(self.LAM), a))

    def test_no_oval_on_the_saddle_level(self):
        m, h_s = self._saddle_level()
        assert bifurcation_diagram(m, domain_radius=math.inf).stratum(h_s, self.LAM) == "outside"
        for call in (
            lambda: oval_bounds(m, h_s, self.LAM),
            lambda: loop_action(m, h_s, self.LAM),
            lambda: wide_action(m, h_s, self.LAM),
        ):
            with pytest.raises(OnSigmaError):
                call()

    @pytest.mark.parametrize("lam", [-0.245, -0.2, -0.05])
    def test_separatrix_action_matches_mpmath(self, lam):
        ref = mp_separatrix_action(Density.constant(1), lam, kind="cusp_compact")
        assert abs(separatrix_action(cusp_compact_model(), lam) - ref) <= 2e-15 * ref
