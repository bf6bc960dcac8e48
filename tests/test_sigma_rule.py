"""The one Sigma rule: a level H is on Sigma at a critical point c of W where
|H - W(c)| < SIGMA_RTOL min(1, the gaps to the critical values next to W(c)).
The diagram, the oval builders and the passage builder read it alike."""

import contextlib
import io
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cuspinv import cli, quadrature  # noqa: E402
from cuspinv.model import (  # noqa: E402
    SIGMA_RTOL,
    Density,
    bifurcation_diagram,
    cusp_compact_model,
    cusp_local_model,
    saddles,
    sigma_flags,
)
from cuspinv.quadrature import (  # noqa: E402
    QUAD_LIMIT,
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
    (narrow,) = quadrature._oval_jobs(None, levels, "narrow").errors
    (passage,) = quadrature._arc_jobs(None, levels, -math.inf).errors
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
        assert narrow is None
        blank_pi = isinstance(passage, StratumError) and make is cusp_compact_model
        assert passage is None or blank_pi
    # the points within 1e-13 of the spread lie on Sigma, those 1e-9 away off it
    assert flags.any() == (abs(t) <= 1e-13)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for make in (cusp_local_model, cusp_compact_model):
        paths[make] = root / f"{make().kind}.json"
        paths[make].write_text(json.dumps(make().to_json()))
    return paths


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.sampled_from([cusp_local_model, cusp_compact_model]),
    st.floats(-0.4, 0.1),
    st.integers(0, 2),
    st.sampled_from([0.0, 1e-13, -1e-13, 1e-9, -1e-9, 0.3, -0.3]),
)
def test_strata_are_what_the_builders_build(model_files, make, lam, which, t):
    # H = a critical value W(c) + t (its spread: the least of 1 and the gaps
    # from W(c) to the critical values next to it, the Sigma rule's scale),
    # at infinite radius: the stratum is narrow where the narrow builder
    # builds, else wide where the wide one does, else outside (and at the
    # cusp point); a lattice on either stratum answers or names the point
    # off it.  Its one exit 1 is the engine's, on the stratum asked: the wide
    # oval just above a saddle's level, and the level through the compact
    # model's second cusp point at lambda = -1/4, do not converge
    model = make()
    (crit,) = quadrature._levels(model, [(0.0, lam)]).crit
    values = np.polyval(model.potential_coeffs(lam), crit[~np.isnan(crit)])
    H = 0.1 * t
    if len(values):
        i = which % len(values)
        H = float(values[i] + t * min([1.0, *np.abs(np.diff(values))[max(i - 1, 0) : i + 1]]))
    (stratum,) = bifurcation_diagram(model, domain_radius=math.inf).strata([(H, lam)])
    levels = quadrature._levels(model, [(H, lam)])
    ovals = ("narrow", "wide") if make is cusp_compact_model else ("narrow",)
    built = [o for o in ovals if quadrature._oval_jobs(None, levels, o).errors == [None]]
    at_cusp = abs(H) <= SIGMA_RTOL and abs(lam) <= SIGMA_RTOL
    assert stratum == ("outside" if at_cusp or not built else built[0])
    for asked in ("narrow", "wide"):
        argv = ["lattice", "--sys", str(model_files[make]), "--at", repr(H), repr(lam)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--stratum", asked])
        if code == 1:
            assert stratum == asked and f"needs more than {QUAD_LIMIT} subintervals" in err.getvalue()
        else:
            assert code == (0 if stratum == asked else 2), err.getvalue()


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
