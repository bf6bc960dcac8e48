"""The level tables of the fixed sample grids (``equivalence._passage_table``,
``_report_table`` and ``_verdict_table``): built once per model kind and
grid in a process, read-only, and what they hold is what a request of any
density would solve itself."""

import json

import numpy as np
import pytest

from cuspinv import equivalence
from cuspinv.asymptotics import hyperbolic_log_coeff
from cuspinv.cli import main
from cuspinv.model import CUSP_COMPACT, CUSP_LOCAL, Density, FibrationModel, cusp_local_model
from cuspinv.quadrature import passage_time, separatrix_action

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
    assert filled == [1, 1, 1]
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
    assert [table.cache_info().currsize for table in TABLES] == filled
