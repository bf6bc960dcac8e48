"""The per-process tables of the density-free sample grids: the fitted
one-dof passages (``equivalence._passage_table``), an invariant report's
saddles and lobes (``_report_table``), a verdict's branch values
and levels at a system's points (``_verdict_levels``),
and the chart windows (``quadrature._chart_table``).  They are built once per
model kind and grid or window in a process, read-only, and what they hold is
what a request of any density would solve itself.  Each grid
(``quadrature._Grid``) keeps per monomial the values of the unit density,
and a request's values are the sums of its monomials' (``quadrature._sums``):
within 1e-13 of its own jobs', and the same bits cold, warm and whatever
filled the tables before."""

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
from cuspinv.quadrature import _levels, _oval_jobs, _sums, action_chart, area_kernel
from cuspinv.quadrature import passage_time, separatrix_action

from conftest import TABLES
from oracles import direct_values

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


def _request_bytes(argv) -> str:
    """Exit code, standard output and standard error of one request."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return f"{code}\n{out.getvalue()}\n{err.getvalue()}"


def _table_requests(tmp: Path, kind: str, name: str, f: Density, scale: float) -> list:
    """f's decompose, invariants, compare with itself and with scale times itself."""
    paths = {}
    for key, density in (("f", f), ("sf", f * scale)):
        paths[key] = tmp / f"{name}_{key}.json"
        paths[key].write_text(json.dumps(FibrationModel(kind, density, 0.25).to_json()))
    paths["d"] = tmp / f"{name}_d.json"
    paths["d"].write_text(json.dumps(f.to_json()))
    return [
        ["decompose", "--density", paths["d"]],
        ["invariants", "--sys", paths["f"]],
        ["compare", "--sys1", paths["f"], "--sys2", paths["f"]],
        ["compare", "--sys1", paths["f"], "--sys2", paths["sf"]],
    ]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.sampled_from([CUSP_LOCAL, CUSP_COMPACT]),
    _DENSITIES,
    st.lists(_DENSITIES, min_size=2, max_size=2),
    st.floats(1.05, 1.3),
)
def test_requests_give_the_cold_bytes_warm_and_after_other_densities(kind, f, others, scale):
    with tempfile.TemporaryDirectory() as tmp:
        own = _table_requests(Path(tmp), kind, "f", f, scale)
        _clear()
        cold = [_request_bytes(argv) for argv in own]
        assert [_request_bytes(argv) for argv in own] == cold  # warm
        _clear()
        for k, g in reversed(list(enumerate(others))):  # the others fill the tables first
            for argv in _table_requests(Path(tmp), kind, f"g{k}", g, scale)[::-1]:
                _request_bytes(argv)
        assert [_request_bytes(argv) for argv in own] == cold


def _verdict_samples(kind: str, wide: bool) -> tuple:
    """The key of sys1's ``_verdict_levels``, as a verdict reads it: the lambda
    of each of its Sigma samples, the 9 narrow points read off its branch
    values and, on the torus, the wide grid."""
    lams = equivalence._SIGMA_LAMS + equivalence._GRID_LAMS
    values = equivalence._verdict_levels(kind, lams, (), ())[0].tolist()
    narrow = tuple(
        (0.5 * (h_e + h_h) + 0.8 * t * (0.5 * (h_h - h_e)), lam)
        for (h_e, h_h), lam in zip(values[4:], equivalence._GRID_LAMS)
        for t in (-0.5, 0.0, 0.5)
    )
    targets = tuple(lam for lam in equivalence._SIGMA_LAMS for _ in range(2))
    return kind, targets, narrow, equivalence._WIDE_GRID if wide else ()


def _grids(kind: str) -> list:
    """The grids of every table of the kind at the CLI's samples: the fitted
    passages, the report's lobes, a verdict's narrow and wide ovals and the
    default chart window, with the density each reads f as (the one-dof
    passages the bridged f(x, -y))."""
    bridged = quadrature._bridged
    passages = equivalence._passage_table(1.0, tuple(np.geomspace(1e-9, 0.05, 32).tolist()))
    lobes = equivalence._report_table(kind, (-0.064, -0.048, -0.032), ())[-1]
    _, ovals = equivalence._verdict_levels(*_verdict_samples(kind, kind == CUSP_COMPACT))
    chart = quadrature._chart_table(kind, 0.25, *_DEFAULT_WINDOW)[2]
    return [(passages, bridged), (lobes, None), *((g, None) for g in (*ovals, chart))]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from([CUSP_LOCAL, CUSP_COMPACT]), _DENSITIES)
def test_sums_are_the_values_of_the_density_jobs_to_1e_13(kind, f):
    for grid, bridge in _grids(kind):
        g = bridge(f) if bridge else f
        (got,), want = _sums((grid, g)), direct_values(grid, g)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert (np.abs(got - want)[ok] <= 1e-13 * np.abs(want[ok])).all()


#: the monomials 1, y, x^2, y^2 and x^2 y; the x y term has no values
_MIXED = Density(
    {(0, 0, 0): 1.0, (0, 1, 0): 0.2, (2, 0, 0): -0.1, (0, 2, 0): 0.3, (2, 1, 1): 0.1, (1, 1, 0): 0.05}
)


@pytest.mark.parametrize("kind", [CUSP_LOCAL, CUSP_COMPACT])
def test_one_engine_call_gives_the_bits_of_one_call_per_monomial(kind):
    _clear()
    grids = [grid for grid, _ in _grids(kind)]
    _sums(*((grid, _MIXED) for grid in grids))  # all of every grid in one engine call
    together = [dict(grid.moments) for grid in grids]
    monomials = {(i, j) for i, j, _ in _MIXED.terms if i % 2 == 0}
    assert all(set(moments) == monomials for moments in together)
    _clear()
    for i, j in sorted(monomials, reverse=True):  # a call each, in another order
        for grid, _ in _grids(kind):
            _sums((grid, Density({(i, j, 0): 1.0})))
    for (grid, _), moments in zip(_grids(kind), together):
        assert set(grid.moments) == monomials
        for key, values in moments.items():
            assert grid.moments[key].tobytes() == values.tobytes()


def test_grid_errors_are_the_builders_cold_and_warm():
    # the images of a verdict's narrow points under (H + 0.01, F) have no
    # narrow oval: their grid keeps the builder's errors, raised anew with
    # their type and message each time, and sums NaN there, cold and warm
    model, f = cusp_local_model(), Density({(0, 0, 0): 1.0, (0, 1, 0): 0.2})
    narrow = tuple((h + 0.01, lam) for h, lam in _verdict_samples(model.kind, False)[2])
    with pytest.raises(ValueError) as built:
        _oval_jobs(area_kernel(f), _levels(model, narrow), "narrow").built()
    raised = []
    for _ in range(2):  # cold, then warm
        grid = equivalence._verdict_levels(model.kind, (), narrow, ())[1][0]
        assert np.isnan(_sums((grid, f))[0]).all()
        with pytest.raises(ValueError) as exc:
            grid.columns[0].built()
        assert (type(exc.value), str(exc.value)) == (type(built.value), str(built.value))
        raised.append(exc.value)
    assert raised[0] is not raised[1]
    assert all(error not in raised for error in grid.columns[0].errors)


def test_sys1_level_without_its_job_raises_the_builders_error(monkeypatch):
    # a wide sample below every level of W has no wide oval: the verdict
    # raises the builder's error for it, not the engine's NaN, cold and warm
    model = FibrationModel(CUSP_COMPACT, Density({(0, 0, 0): 1.0}), 0.25)
    wide = (*equivalence._WIDE_GRID, (-0.5, -0.01))
    monkeypatch.setattr(equivalence, "_WIDE_GRID", wide)
    with pytest.raises(ValueError) as built:
        _oval_jobs(area_kernel(model.density), _levels(model, wide), "wide").built()
    assert "no wide oval" in str(built.value)
    for _ in range(2):
        with pytest.raises(ValueError) as exc:
            equivalence.cusp_torus_equivalent(model, model)
        assert (type(exc.value), str(exc.value)) == (type(built.value), str(built.value))


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
        entries.append(equivalence._verdict_levels(*_verdict_samples(kind, kind == CUSP_COMPACT)))
    f = Density({(0, 0, 0): 1.0, (0, 1, 0): 0.1})
    grids = [entries[0], entries[1][-1], *entries[2][-1], entries[3][-1], *entries[4][-1]]
    _sums(*((grid, f) for grid in grids))
    arrays = [a for entry in entries for a in _arrays(entry)]
    arrays += [a for grid in grids for a in grid.moments.values()]
    # per grid its jobs' lambda, a, b, lower, upper and R; a and W'' per
    # kind; the branch values per kind; per grid the values of 1 and y
    assert len(arrays) == 6 * len(grids) + 2 * 2 + 2 + 2 * len(grids)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


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
    # the verdict's: sys1's branch values, then its grids, which sys2 reads
    filled = [table.cache_info().currsize for table in TABLES]
    assert filled == [1, 1, 2, 0]
    equivalence._verdict_levels(*_verdict_samples(CUSP_COMPACT, True))  # the key a verdict reads
    assert [table.cache_info().currsize for table in TABLES] == filled
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
    # the chart's window, with the values of its monomials 1 and y
    assert [table.cache_info().currsize for table in TABLES] == [1, 1, 2, 1]
    assert _window_monomials(CUSP_COMPACT, _DEFAULT_WINDOW) == {(0, 0), (0, 1)}


# -- the chart windows' table ------------------------------------------------------

#: the H and lambda values of the CLI's default chart window
_DEFAULT_WINDOW = (tuple(np.linspace(-0.01, 0.01, 7)), tuple(np.linspace(-0.06, 0.02, 7)))


def _window_monomials(kind: str, window, x0: float = 0.25) -> set:
    """The monomials whose values a window's grid keeps (a -0.0 meets the 0.0 entry)."""
    return set(quadrature._chart_table(kind, x0, *map(tuple, window))[2].moments)


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
    assert _window_monomials(kind, _DEFAULT_WINDOW) == _even_monomials(f, g)
    assert quadrature._chart_table.cache_info().currsize == 1


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
        assert _window_monomials(kind, window) == {(0, 0), (0, 1)}
        assert quadrature._chart_table.cache_info().currsize == 1


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
    assert _window_monomials(kind, window) == {(0, 0), (0, 1), (2, 0)}
    assert _chart_text(g, *window) == cold
    assert _window_monomials(kind, window) == {(0, 0), (0, 1), (2, 0), (0, 2)}


def test_chart_table_arrays_are_read_only():
    near, strata, grid, (rows, cells) = quadrature._chart_table(CUSP_COMPACT, 0.25, *_DEFAULT_WINDOW)
    assert len(near) == len(strata) > 0
    # Pi, Pi_circ, I_circ (with Pi_circ's arrays) and I_mu, on the cells of their strata
    assert np.bincount(rows).tolist() == [len(jobs.errors) for jobs in grid.columns]
    assert sorted(cells[rows == 0]) == [c for c, s in enumerate(strata) if s != "outside"]
    assert [jobs.kernel for jobs in grid.columns] == [quadrature.form_kernel] * 2 + [area_kernel] * 2
    arrays = list(_arrays(grid))
    assert len(arrays) == 4 * 6
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_chart_moments_are_read_only_one_entry_per_window_and_monomial():
    window = (CUSP_COMPACT, 0.25, *_DEFAULT_WINDOW)
    _, _, grid, (rows, _) = quadrature._chart_table(*window)
    action_chart(FibrationModel(CUSP_COMPACT, _F, 0.25), *window[2:])
    monomials = _even_monomials(_F)
    assert set(grid.moments) == monomials and len(monomials) == 3
    first = dict(grid.moments)
    for values in first.values():
        assert values.shape == rows.shape and values.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            values[...] = 0
    action_chart(FibrationModel(CUSP_COMPACT, _G, 0.25), *window[2:])
    assert set(grid.moments) == monomials | _even_monomials(_G) and len(grid.moments) == 4
    assert all(grid.moments[key] is values for key, values in first.items())


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
        sizes.append((table.cache_info().currsize, len(_window_monomials(kind, window, x0))))
    assert sizes == [(1, 2), (1, 2), (2, 2), (3, 2), (4, 2)]  # the values of 1 and y per window


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
