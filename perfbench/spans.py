"""Spans recorded from the benchmark's own files, and the per-layer metrics built from them.

For a traced request the benchmark times ``cuspinv.cli.main``, then replays
the same inputs through the public functions beneath it, in the order the
request uses them, one span per call.  A replayed call's parent is the span
of the call that makes it inside the program (``cli.main`` for the library
call a subcommand wraps), so a span's self time is its duration minus the
durations of its children.  Nothing in ``cuspinv`` is patched: the replay
calls the functions a second time, outside the timed request.
"""

from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np
from cuspinv import asymptotics, brieskorn, equivalence, flows, quadrature, specfun
from cuspinv.model import CUSP_COMPACT, CUSP_LOCAL, Density, FibrationModel, bifurcation_diagram, one_dof_model
from cuspinv.quadrature import OnSigmaError
from oracles import chart_grid

L2 = ("passage_time", "loop_period", "loop_action", "wide_action", "separatrix_action")
EVAL_SCALAR_CALLS = 400
EVAL_VEC_CALLS = 100


class Tracer:
    """In-memory spans: (name, start, end, parent index, request id, calls covered)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.rid = None
        self.counts = {"blank_on_sigma": 0, "blank_stratum": 0, "cells_expected": 0, "cells_filled": 0}
        self.fit_conds: list[float] = []

    def call(self, name: str, parent, fn, *args, n: int = 1, **kwargs):
        """Run ``fn`` inside a span; returns (span index, result).  A raised
        error is recorded as the result so the replay can classify it."""
        idx = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ValueError as exc:  # OnSigmaError and StratumError included
            result = exc
        self.spans[idx] = (name, start, time.perf_counter(), parent, self.rid, n)
        return idx, result

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "rid", "n")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


# -- replays ---------------------------------------------------------------------------


def _model(workdir_load, name) -> FibrationModel:
    return FibrationModel.from_json(workdir_load(name))


def _eval_probes(tr: Tracer, density: Density, rng) -> None:
    """L0: Density.eval on the request's density, one point and a 64-node vector."""
    x, y, lam = (float(v) for v in rng.uniform(-0.3, 0.3, 3))
    xs = rng.uniform(-0.3, 0.3, 64)

    def scalar():
        for _ in range(EVAL_SCALAR_CALLS):
            density.eval(x, y, lam)

    def vector():
        for _ in range(EVAL_VEC_CALLS):
            density.eval(xs, y, lam)

    tr.call("model.eval_scalar", None, scalar, n=EVAL_SCALAR_CALLS)
    tr.call("model.eval_vec64", None, vector, n=EVAL_VEC_CALLS)


def _blank(tr: Tracer, result) -> None:
    if isinstance(result, OnSigmaError):
        tr.counts["blank_on_sigma"] += 1
    elif isinstance(result, ValueError):
        tr.counts["blank_stratum"] += 1


def replay_chart(tr: Tracer, top, req, load, grid) -> None:
    model = _model(load, req["oracle"]["model"])
    hs, ls = grid
    chart_span, _ = tr.call("quadrature.action_chart", top, quadrature.action_chart, model, hs, ls)
    _, diagram = tr.call("model.diagram", chart_span, bifurcation_diagram, model)
    compact = model.kind == CUSP_COMPACT
    for lam in ls:
        for h in hs:
            _, st = tr.call("model.stratum", chart_span, diagram.stratum, h, lam)
            if st == "outside":
                continue
            narrow = st == "narrow"
            calls = [("passage_time", (model, h, lam))]
            if narrow:
                calls += [("loop_period", (model, h, lam)), ("loop_action", (model, h, lam))]
                tr.call("quadrature.oval_bounds", None, quadrature.oval_bounds, model, h, lam, "narrow")
            if compact:
                calls.append(("wide_action", (model, h, lam)))
                tr.call("quadrature.oval_bounds", None, quadrature.oval_bounds, model, h, lam, "wide")
            # I = lambda is always filled; Pi, and the loop pair or I_mu where they exist
            tr.counts["cells_expected"] += 2 + 2 * narrow + compact
            tr.counts["cells_filled"] += 1
            for name, args in calls:
                _, res = tr.call(f"quadrature.{name}", chart_span, getattr(quadrature, name), *args)
                _blank(tr, res)
                tr.counts["cells_filled"] += not isinstance(res, Exception)


def _fit(tr: Tracer, parent, samples, order) -> None:
    _, (_, report) = tr.call("asymptotics.fit_puiseux", parent, asymptotics.fit_puiseux, samples,
                             order=order, relative_weights=True)
    tr.fit_conds.append(report.cond)


def replay_decompose(tr: Tracer, top, req, load) -> None:
    density = Density.from_json(load(req["oracle"]["density"]))
    tr.call("brieskorn.reduce", top, brieskorn.reduce, density)
    tr.call("specfun.puiseux_constants", top, specfun.puiseux_constants)
    # fitted_pair(h_max=0.05, n_samples=32) as the decompose subcommand calls it
    slice0 = density.restrict_lambda0()
    fp, _ = tr.call("equivalence.fitted_pair", top, equivalence.fitted_pair, slice0, h_max=0.05, n_samples=32)
    mdl = one_dof_model(slice0)
    samples = []
    for h in np.geomspace(1e-9, 0.05, 32):
        _, v = tr.call("quadrature.passage_time", fp, quadrature.passage_time, mdl, h)
        samples.append((h, v))
    _fit(tr, fp, samples, (2, 2, 6))


def replay_invariants(tr: Tracer, top, req, load) -> None:
    model = _model(load, req["oracle"]["model"])
    rep, _ = tr.call("equivalence.invariant_report", top, equivalence.invariant_report, model)
    if model.kind == CUSP_LOCAL:
        tr.call("brieskorn.reduce", rep, brieskorn.reduce, model.density.restrict_lambda0().mirror_y())
    else:
        samples = []
        for hp in np.geomspace(1e-10, 0.02, 40):
            _, v = tr.call("quadrature.passage_time", rep, quadrature.passage_time, model, -hp, 0.0)
            samples.append((hp, v))
        _fit(tr, rep, samples, (4, 4, 5))
    for lam in (-0.064, -0.048, -0.032):
        tr.call("quadrature.separatrix_action", rep, quadrature.separatrix_action, model, lam)
    if model.kind == CUSP_LOCAL:
        for lam in (-0.06, -0.04):
            tr.call("asymptotics.hyperbolic_log_coeff", rep, asymptotics.hyperbolic_log_coeff, model, lam)


def replay_compare(tr: Tracer, top, req, load) -> None:
    sys1, sys2 = (_model(load, name) for name in req["argv"][2::2])
    if sys1.kind == CUSP_COMPACT:
        verdict, _ = tr.call("equivalence.cusp_torus_equivalent", top, equivalence.cusp_torus_equivalent, sys1, sys2)
    else:
        verdict, _ = tr.call("equivalence.parabolic_equivalent", top, equivalence.parabolic_equivalent, sys1, sys2)
    diagram = bifurcation_diagram(sys1)
    r = diagram.domain_radius
    # the swallow-tail grid of the parabolic checks and the wide grid of the I_mu check
    for lam in (-0.75 * r, -0.55 * r, -0.35 * r):
        h_e, h_h = diagram.elliptic_value(lam), diagram.hyperbolic_value(lam)
        for t in (-0.5, 0.0, 0.5):
            h = 0.5 * (h_e + h_h) + 0.8 * t * 0.5 * (h_h - h_e)
            for s in (sys1, sys2):
                tr.call("quadrature.loop_action", verdict, quadrature.loop_action, s, h, lam)
    if sys1.kind == CUSP_COMPACT:
        for h, lam in ((0.45 * r, 0.3 * r), (0.3 * r, 0.45 * r), (-0.3 * r, 0.35 * r), (0.5 * r, -0.25 * r)):
            for s in (sys1, sys2):
                tr.call("quadrature.wide_action", verdict, quadrature.wide_action, s, h, lam)


def replay_lattice(tr: Tracer, top, req, load) -> None:
    model = _model(load, req["oracle"]["model"])
    argv = req["argv"]
    h, lam = (float(v) for v in argv[argv.index("--at") + 1 : argv.index("--at") + 3])
    stratum = argv[argv.index("--stratum") + 1]
    sm = flows.SymplecticModel(model)
    _, lattice = tr.call("flows.period_lattice", top, flows.period_lattice, sm, h, lam, stratum=stratum)
    _, (a, b) = tr.call("quadrature.oval_bounds", top, quadrature.oval_bounds, model, h, lam, stratum)
    y_mid = 0.5 * (a + b)
    start = np.array([math.sqrt(max(h - np.polyval(model.potential_coeffs(lam), y_mid), 0.0)), y_mid, lam, 0.0])
    for t1, t2 in (*lattice.basis, lattice.basis[1] / 2.0):
        tr.call("flows.verify_lattice", top, flows.verify_lattice, sm, start, t1, t2)


def replay_transport(tr: Tracer, top, req, load) -> None:
    o = req["oracle"]
    sm1, sm2 = (flows.SymplecticModel(_model(load, o[k])) for k in ("sys1", "sys2"))
    for p in load(o["points"]):
        q = np.array([p[0], p[1], p[2], p[3] if len(p) > 3 else 0.0])
        pr, _ = tr.call("flows.pullback_residual", top, flows.pullback_residual, sm1, sm2, q)
        tm, _ = tr.call("flows.transport_map", pr, flows.transport_map, sm1, sm2, q)
        r1, r2 = flows.ReducedSystem(sm1), flows.ReducedSystem(sm2)
        _, t1 = tr.call("flows.section_time", tm, r1.section_time, q[:2], q[2])
        _, t2 = tr.call("flows.section_time", tm, r2.section_time, q[:2], q[2])
        tr.call("flows.reduced_flow", tm, r2.reduced_flow, q[:2], q[2], t1 - t2)


def replay(tr: Tracer, top, req, load, rng) -> None:
    """Replay one request under the ``cli.main`` span ``top``."""
    kind = req["kind"]
    first = req["files"][0]
    data = load(first)
    _eval_probes(tr, Density.from_json(data["density"] if "density" in data else data), rng)
    if kind.startswith("chart"):
        replay_chart(tr, top, req, load, chart_grid(req["argv"]))
    elif kind == "decompose":
        replay_decompose(tr, top, req, load)
    elif kind.startswith("invariants"):
        replay_invariants(tr, top, req, load)
    elif kind.startswith("compare"):
        replay_compare(tr, top, req, load)
    elif kind.startswith("lattice"):
        replay_lattice(tr, top, req, load)
    else:
        replay_transport(tr, top, req, load)


# -- per-layer metrics --------------------------------------------------------------


#: span name -> (metric stem, unit scale) for the per-call timings
TIMED = {
    "model.eval_scalar": ("model.eval_scalar_us", 1e6),
    "model.eval_vec64": ("model.eval_vec64_us", 1e6),
    "model.diagram": ("model.diagram_ms", 1e3),
    "model.stratum": ("model.stratum_us", 1e6),
    "quadrature.oval_bounds": ("quadrature.oval_bounds_ms", 1e3),
    **{f"quadrature.{n}": (f"quadrature.{n}_ms", 1e3) for n in L2},
    "asymptotics.fit_puiseux": ("asymptotics.fit_puiseux_ms", 1e3),
    "asymptotics.hyperbolic_log_coeff": ("asymptotics.hyperbolic_log_coeff_ms", 1e3),
    "brieskorn.reduce": ("brieskorn.reduce_ms", 1e3),
    "specfun.puiseux_constants": ("specfun.puiseux_constants_us", 1e6),
    "equivalence.fitted_pair": ("equivalence.fitted_pair_ms", 1e3),
    "equivalence.invariant_report": ("equivalence.invariant_report_ms", 1e3),
    "equivalence.parabolic_equivalent": ("equivalence.parabolic_equivalent_ms", 1e3),
    "equivalence.cusp_torus_equivalent": ("equivalence.cusp_torus_equivalent_ms", 1e3),
    "flows.period_lattice": ("flows.period_lattice_ms", 1e3),
    "flows.verify_lattice": ("flows.verify_lattice_ms", 1e3),
    "flows.transport_map": ("flows.transport_map_ms", 1e3),
    "flows.pullback_residual": ("flows.pullback_residual_ms", 1e3),
    "flows.reduced_flow": ("flows.reduced_flow_ms", 1e3),
    "flows.section_time": ("flows.section_time_ms", 1e3),
}


def _calls_name(stem: str) -> str:
    return stem.rsplit("_", 1)[0] + "_calls"


def layer_metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    units = {1e6: "us", 1e3: "ms"}
    out = []
    for stem, scale in TIMED.values():
        out += [(stem, units[scale]), (_calls_name(stem), "count")]
    out += [
        ("quadrature.share", "ratio"),
        ("quadrature.action_chart_self_ms", "ms"),
        ("quadrature.action_chart_calls", "count"),
        ("quadrature.fill_ratio", "ratio"),
        ("quadrature.blank_on_sigma", "count"),
        ("quadrature.blank_stratum", "count"),
        ("asymptotics.fit_cond_max", "1"),
        ("equivalence.self_share", "ratio"),
        ("cli.import_s", "s"),
        ("cli.self_ms", "ms"),
        ("cli.self_calls", "count"),
        ("cli.out_bytes", "B"),
        ("trace.overhead_frac", "ratio"),
    ]
    return out


def layer_metrics(tr: Tracer, out_bytes: list[int], import_s: float, overhead: float) -> dict:
    spans = tr.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def median_of(values, scale=1.0):
        return statistics.median(values) * scale if values else 0.0

    m: dict[str, float] = {}
    for name, (stem, scale) in TIMED.items():
        per_call = [dur[i] / s[5] for i, s in enumerate(spans) if s[0] == name]
        m[stem] = median_of(per_call, scale)
        m[_calls_name(stem)] = sum(s[5] for s in spans if s[0] == name)
    requests = sum(dur[i] for i, s in enumerate(spans) if s[0] == "cli.main")
    l2 = sum(dur[i] for i, s in enumerate(spans) if s[0].split(".")[-1] in L2)
    eq_self = sum(self_t[i] for i, s in enumerate(spans) if s[0].startswith("equivalence."))
    chart_self = [self_t[i] for i, s in enumerate(spans) if s[0] == "quadrature.action_chart"]
    cli_self = [self_t[i] for i, s in enumerate(spans) if s[0] == "cli.main"]
    c = tr.counts
    m.update({
        "quadrature.share": l2 / requests,
        "quadrature.action_chart_self_ms": median_of(chart_self, 1e3),
        "quadrature.action_chart_calls": len(chart_self),
        "quadrature.fill_ratio": c["cells_filled"] / c["cells_expected"] if c["cells_expected"] else 0.0,
        "quadrature.blank_on_sigma": c["blank_on_sigma"],
        "quadrature.blank_stratum": c["blank_stratum"],
        "asymptotics.fit_cond_max": max(tr.fit_conds, default=0.0),
        "equivalence.self_share": eq_self / requests,
        "cli.import_s": import_s,
        "cli.self_ms": median_of(cli_self, 1e3),
        "cli.self_calls": len(cli_self),
        "cli.out_bytes": median_of(out_bytes),
        "trace.overhead_frac": overhead,
    })
    return m
