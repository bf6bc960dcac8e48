"""The level tables of the fixed sample grids (``equivalence._passage_table``,
``_report_table`` and ``_verdict_table``) and of the chart windows
(``quadrature._chart_table``), and the chart windows' columns per monomial
(``quadrature._chart_moments``): built once per model kind and grid or window
(and monomial) in a process, read-only, and what they hold is what a request
of any density would solve itself."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cuspinv import equivalence, quadrature
from cuspinv.asymptotics import hyperbolic_log_coeff
from cuspinv.cli import main
from cuspinv.model import CUSP_COMPACT, CUSP_LOCAL, Density, FibrationModel, cusp_local_model
from cuspinv.quadrature import action_chart, passage_time, separatrix_action

from conftest import TABLES

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

#: densities of degree <= 2 in x, y and lambda, positive at the origin
_DENSITIES = st.builds(
    lambda c0, terms: Density({(0, 0, 0): c0, **terms}),
    st.floats(0.5, 2.0),
    st.dictionaries(
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0)]),
        st.floats(-0.3, 0.3),
        max_size=4,
    ),
)


def _clear():
    for table in TABLES:
        table.cache_clear()


def _outputs(kind: str, g: Density, f: Density) -> str:
    """g's invariant report, its verdict against f and the fit of its
    decompose cross-check, as JSON text, every float by its repr."""
    sys_g, sys_f = FibrationModel(kind, g, 0.25), FibrationModel(kind, f, 0.25)
    compare = equivalence.parabolic_equivalent
    if kind == CUSP_COMPACT:
        compare = equivalence.cusp_torus_equivalent
    triple, report = equivalence.fitted_pair(g.restrict_lambda0(), h_max=0.05, n_samples=32)
    fit = [s.to_json() for s in (triple.a, triple.b, triple.c)] + [report.cond]
    return json.dumps(
        [equivalence.invariant_report(sys_g).to_json(), compare(sys_g, sys_f).to_json(), fit]
    )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([CUSP_LOCAL, CUSP_COMPACT]), _DENSITIES, _DENSITIES)
def test_tables_filled_by_another_density_give_the_cold_outputs(kind, f, g):
    _clear()
    cold = _outputs(kind, g, f)
    _clear()
    _outputs(kind, f, g)  # f's requests build the tables that g's read
    assert _outputs(kind, g, f) == cold


def _arrays(value):
    """Every numpy array in a table entry, through its tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays(v)


def test_cached_arrays_are_read_only():
    grid = tuple(np.geomspace(1e-9, 0.05, 32).tolist())
    entries = [equivalence._passage_table(1.0, grid)]
    for kind in (CUSP_LOCAL, CUSP_COMPACT):
        entries.append(equivalence._report_table(kind, (-0.064, -0.048), (-0.06,)))
        wide = equivalence._WIDE_GRID if kind == CUSP_COMPACT else ()
        entries.append(equivalence._verdict_table(kind, wide))
    arrays = [a for entry in entries for a in _arrays(entry)]
    # the passage levels with sections, a and W'' with the lobe levels per
    # kind, the narrow levels and on the compact model the wide ones
    assert len(arrays) == 7 + 2 * (2 + 6) + 6 + 2 * 6
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    levels = [entries[0], entries[1][-1], entries[3][-1], *entries[2][-1], *entries[4][-1]]
    assert all(isinstance(lv.points, tuple) for lv in levels)


def test_caller_chosen_values_leave_the_tables_alone(tmp_path, capsys):
    def model(kind, x0):
        density = {"terms": [{"c": 1.0, "e": [0, 0, 0]}, {"c": 0.1, "e": [0, 1, 0]}]}
        return {"kind": kind, "density": density, "x0": x0}

    paths = {"local": model(CUSP_LOCAL, 1.0), "compact": model(CUSP_COMPACT, 0.25)}
    paths["pts"] = [[0.028, -0.4805, -0.3], [-0.2, 0.1, -0.02, 0.5]]
    for name, data in paths.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    density = tmp_path / "f.json"
    density.write_text(json.dumps({"terms": [{"c": 1.0, "e": [0, 0, 0]}]}))
    requests = [  # the tables' own requests, which fill them
        ["invariants", "--sys", paths["local"]],
        ["compare", "--sys1", paths["compact"], "--sys2", paths["compact"]],
        ["decompose", "--density", density],
    ]
    for argv in requests:
        assert main([str(a) for a in argv]) == 0
    filled = [table.cache_info().currsize for table in TABLES]
    assert filled == [1, 1, 1, 0, 0]
    others = [
        ["actions", "--model", paths["compact"]],
        ["lattice", "--sys", paths["compact"], "--at", "0.0", "-0.05", "--verify"],
        ["lattice", "--sys", paths["local"], "--at", "0.0", "-0.064", "--verify"],
        ["transport", "--sys1", paths["local"], "--sys2", paths["local"], "--points", paths["pts"]],
    ]
    for argv in others:
        assert main([str(a) for a in argv]) == 0
    m = cusp_local_model()
    hyperbolic_log_coeff(m, np.array([-0.064, -0.048, -0.032, -0.06, -0.04]))
    separatrix_action(m, np.array([-0.064, -0.048, -0.032]))
    passage_time(FibrationModel("one_dof"), 1e-9)
    capsys.readouterr()
    # the chart's window and its columns of the monomials 1 and y
    assert [table.cache_info().currsize for table in TABLES] == [1, 1, 1, 1, 2]


# -- the chart windows' table ------------------------------------------------------

#: every filter and format of a chart request on its window
_CHART_VARIANTS = [
    [*(["--stratum", stratum] if stratum else []), "--mu-shift", shift, "--format", fmt]
    for stratum in (None, "narrow", "wide", "outside")
    for shift in ("0", "1")
    for fmt in ("csv", "json")
]


def _cli_out(argv) -> str:
    """Standard output of one request, its exit code 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0
    return out.getvalue()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.sampled_from([CUSP_LOCAL, CUSP_COMPACT]), _DENSITIES, _DENSITIES)
def test_chart_table_filled_by_another_density_gives_the_cold_charts(kind, f, g):
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, density in (("f", f), ("g", g)):
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(FibrationModel(kind, density, 0.25).to_json()))
        cold = []
        for variant in _CHART_VARIANTS:
            _clear()
            cold.append(_cli_out(["actions", "--model", paths["g"], *variant]))
        _clear()
        _cli_out(["actions", "--model", paths["f"]])  # f's chart builds the tables that g's read
        warm = [_cli_out(["actions", "--model", paths["g"], *v]) for v in _CHART_VARIANTS]
    assert warm == cold
    assert quadrature._chart_table.cache_info().currsize == 1
    assert quadrature._chart_moments.cache_info().currsize == len(_even_monomials(f, g))


def _even_monomials(*densities) -> set:
    """The (i, j) of the terms of even i of the densities, the chart columns they read."""
    return {(i, j) for f in densities for i, j, _ in f.terms if i % 2 == 0}


def _chart_text(model, H_values, lam_values) -> str:
    """The chart's CSV and its rows as JSON, every float by its repr."""
    chart = action_chart(model, H_values, lam_values, mu_shift=1)
    return chart.to_csv() + json.dumps([vars(row) for row in chart.rows])


@pytest.mark.parametrize("kind", [CUSP_LOCAL, CUSP_COMPACT])
def test_signed_zero_window_gives_its_own_cold_bytes(kind):
    # -0.0 == 0.0: the windows share a table, and the rows keep the -0.0 asked
    f = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.2, (0, 0, 1): 0.3, (1, 0, 1): 0.1})
    model = FibrationModel(kind, f, 0.25)
    H, lams = np.linspace(0.0, 0.01, 5), np.linspace(-0.06, 0.0, 7)
    signed = [(-0.0, *H[1:]), lams], [H, (*lams[:-1], -0.0)]
    for window in signed:
        _clear()
        cold = _chart_text(model, *window)
        assert "-0" in cold
        _clear()
        unsigned = _chart_text(model, H, lams)
        assert _chart_text(model, *window) == cold != unsigned
        assert quadrature._chart_table.cache_info().currsize == 1
        assert quadrature._chart_moments.cache_info().currsize == 2  # 1 and y


#: two densities whose even-x monomials 1 (in f also as lambda), y and x^2 (in
#: g as x^2 lambda) are common, y^2 in g alone; f's x y lambda has no column
_F = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.2, (0, 0, 1): 0.3, (2, 0, 0): -0.1, (1, 1, 1): 0.05})
_G = Density({(0, 0, 0): 0.9, (0, 1, 0): -0.15, (0, 2, 0): 0.4, (2, 0, 1): 0.25})


@pytest.mark.parametrize("signed", ["none", "H", "lambda"])
@pytest.mark.parametrize("kind", [CUSP_LOCAL, CUSP_COMPACT])
def test_chart_after_another_density_gives_the_cold_bytes(kind, signed):
    # g's columns of 1, y and x^2 come from f's chart, on the unsigned window,
    # and that of y^2 is g's own: its CSV and JSON are its cold ones
    H, lams = np.linspace(0.0, 0.01, 5), np.linspace(-0.06, 0.0, 7)
    window = {
        "none": (H, lams),
        "H": ((-0.0, *H[1:]), lams),
        "lambda": (H, (*lams[:-1], -0.0)),
    }[signed]
    f, g = (FibrationModel(kind, density, 0.25) for density in (_F, _G))
    _clear()
    cold = _chart_text(g, *window)
    _clear()
    _chart_text(f, H, lams)
    assert quadrature._chart_moments.cache_info().currsize == 3  # 1, y and x^2
    assert _chart_text(g, *window) == cold
    assert quadrature._chart_moments.cache_info().currsize == 4  # and y^2


def test_chart_table_arrays_are_read_only():
    near, strata, levels = quadrature._chart_table(
        CUSP_COMPACT, 0.25, tuple(np.linspace(-0.01, 0.01, 7)), tuple(np.linspace(-0.06, 0.02, 7))
    )
    assert len(near) == len(strata) == len(levels.points) > 0
    arrays = [a for a in levels[2:] if a is not None]
    assert len(arrays) == 7  # p, roots, crit, sigma, interval, rises, sections
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert isinstance(levels.points, tuple)


def test_chart_moments_are_read_only_one_entry_per_window_and_monomial():
    window = (CUSP_COMPACT, 0.25, tuple(np.linspace(-0.01, 0.01, 7)), tuple(np.linspace(-0.06, 0.02, 7)))
    near = quadrature._chart_table(*window)[0]
    f = FibrationModel(CUSP_COMPACT, _F, 0.25)
    action_chart(f, *window[2:])
    monomials = _even_monomials(_F)
    assert quadrature._chart_moments.cache_info().currsize == len(monomials) == 3
    for i, j in monomials:
        moments = quadrature._chart_moments(*window, i, j)
        assert moments.shape == (4, len(near)) and moments.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            moments[...] = 0
    assert quadrature._chart_moments.cache_info().misses == 3
    action_chart(FibrationModel(CUSP_COMPACT, _G, 0.25), *window[2:])
    assert quadrature._chart_moments.cache_info().currsize == len(monomials | _even_monomials(_G)) == 4


def test_chart_table_entry_per_kind_x0_and_window():
    table, f = quadrature._chart_table, Density({(0, 0, 0): 1.0, (0, 1, 0): 0.1})
    H, lams = np.linspace(-0.01, 0.01, 5), np.linspace(-0.06, 0.02, 5)
    sizes = []
    for kind, x0, window in [
        (CUSP_COMPACT, 0.25, (H, lams)),
        (CUSP_COMPACT, 0.25, (H, lams)),  # the same window: no entry
        (CUSP_COMPACT, 0.5, (H, lams)),
        (CUSP_LOCAL, 0.25, (H, lams)),
        (CUSP_LOCAL, 0.25, (H[:-1], lams)),
    ]:
        action_chart(FibrationModel(kind, f, x0), *window)
        sizes.append((table.cache_info().currsize, quadrature._chart_moments.cache_info().currsize))
    assert sizes == [(1, 2), (1, 2), (2, 4), (3, 6), (4, 8)]  # the columns of 1 and y per window


def test_other_requests_leave_the_chart_table_alone(tmp_path, capsys):
    paths = {
        "local": FibrationModel(CUSP_LOCAL, Density({(0, 0, 0): 1.0}), 1.0).to_json(),
        "compact": FibrationModel(CUSP_COMPACT, Density({(0, 0, 0): 1.0}), 0.25).to_json(),
        "pts": [[0.028, -0.4805, -0.3], [-0.2, 0.1, -0.02, 0.5]],
    }
    for name, data in paths.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    assert main(["actions", "--model", str(paths["compact"])]) == 0
    filled = quadrature._chart_table.cache_info()
    others = [
        ["lattice", "--sys", paths["compact"], "--at", "0.0", "-0.05", "--verify"],
        ["lattice", "--sys", paths["compact"], "--at", "0.05", "0.02", "--stratum", "wide", "--verify"],
        ["transport", "--sys1", paths["local"], "--sys2", paths["local"], "--points", paths["pts"]],
        ["invariants", "--sys", paths["local"]],
        ["invariants", "--sys", paths["compact"]],
    ]
    for argv in others:
        assert main([str(a) for a in argv]) == 0
    capsys.readouterr()
    info = quadrature._chart_table.cache_info()
    assert (info.currsize, info.misses) == (filled.currsize, filled.misses) == (1, 1)
