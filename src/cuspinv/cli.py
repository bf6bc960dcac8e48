"""Command-line front end.

Subcommands
-----------
decompose    Brieskorn pair of a polynomial density (+ quadrature cross-check)
actions      action chart over a base grid, CSV or JSON
compare      equivalence verdict for two systems under a supplied base map
invariants   phi-independent invariant report of a system
lattice      period lattice at a base point, with flow verification
transport    flow-based transport of phase points between two systems

Exit codes: 0 success, 1 computation failure, 2 input error.  Data goes to
stdout (or --out); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict

import numpy as np

from . import brieskorn, equivalence, flows
from .model import CUSP_COMPACT, CUSP_LOCAL, IDENTITY_BASE_MAP, ONE_DOF, Density, FibrationModel
from .model import _is_number
from .quadrature import StratumError, _levels, _strata, action_chart
from .specfun import puiseux_constants


class InputError(Exception):
    pass


def _load(path: str, what: str, parse):
    """parse(the JSON of the file); InputError where either step fails."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what} file {path}: {exc}") from exc


#: the model kinds a subcommand handles where not the two cusp models
_KINDS = {"transport": (CUSP_LOCAL, CUSP_COMPACT, ONE_DOF)}


def _load_model(path: str, command: str) -> FibrationModel:
    model = _load(path, "model", FibrationModel.from_json)
    if model.kind not in _KINDS.get(command, (CUSP_LOCAL, CUSP_COMPACT)):
        raise InputError(f"{command} cannot handle model kind {model.kind!r} of {path}")
    return model


def _base_map(data) -> tuple[Density, Density]:
    """The base map (H~, F~) of entries "Ht" and "Ft", each
    {"terms": [{"c": c, "e": [i, j]}]} in (H, F)."""
    parts = [data[key]["terms"] for key in ("Ht", "Ft")]
    if any(len(t["e"]) != 2 for ts in parts for t in ts):
        raise ValueError("base-map exponents are pairs [i, j]")
    return tuple(Density.from_json({"terms": [{**t, "e": [*t["e"], 0]} for t in ts]}) for ts in parts)


def _points(data) -> list[np.ndarray]:
    """[x, y, lambda, phi] of each [x, y, lambda(, phi)] entry, phi 0 where left out."""
    for p in data if isinstance(data, list) else [data]:
        if not isinstance(p, list) or len(p) not in (3, 4) or not all(
            _is_number(v) and math.isfinite(v) for v in p
        ):
            raise ValueError(f"{p!r:.40} is no [x, y, lambda(, phi)] list of finite numbers")
    return [np.array([*p, 0.0][:4], dtype=float) for p in data]


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _number(text: str) -> float:
    """The type of every float option, reused for --config entries: a finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    value = _number(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"tolerance {text!r} is negative")
    return value


def _parse_grid(spec: str) -> tuple[int, int]:
    try:
        nh, nl = (int(n) for n in spec.lower().split("x"))
    except ValueError as exc:
        raise InputError(f"bad grid spec {spec!r}; expected like 9x7") from exc
    if nh < 1 or nl < 1:
        raise InputError(f"bad grid spec {spec!r}; both sizes must be at least 1")
    return nh, nl


def _trim_zeros(coeffs: list) -> list:
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def cmd_decompose(args) -> int:
    density = _load(args.density, "density", Density.from_json)
    pair = brieskorn.reduce(density)
    payload = pair.to_json()
    payload["alpha"] = _trim_zeros(payload["alpha"])
    payload["beta"] = _trim_zeros(payload["beta"])
    if not args.no_cross_check:
        c = puiseux_constants()
        triple, report = equivalence.fitted_pair(
            density.restrict_lambda0(), h_max=0.05, n_samples=32
        )
        payload["cross_check"] = {
            "a0_fit": float(triple.a.coeffs[0]),
            "a0_algebraic": c["C0"] * float(pair.alpha.coeffs[0]),
            "b0_fit": float(triple.b.coeffs[0]),
            "b0_algebraic": c["C1"] * float(pair.beta.coeffs[0]),
            "fit_cond": report.cond,
        }
    _emit(_json_dumps(payload), args.out)
    return 0


def cmd_actions(args) -> int:
    model = _load_model(args.model, args.command)
    nh, nl = _parse_grid(args.grid)
    grid = np.linspace(*args.h_range, nh), np.linspace(*args.l_range, nl)
    grid[0][0], grid[1][0] = args.h_range[0], args.l_range[0]  # linspace's start + 0 * step loses -0.0
    chart = action_chart(model, *grid, mu_shift=args.mu_shift, stratum_filter=args.stratum)
    if args.format == "csv":
        _emit(chart.to_csv(), args.out)
    else:
        # the JSON names of the row fields: lam is "lambda"
        rows = [
            {"lambda" if k == "lam" else k: v for k, v in asdict(r).items()} for r in chart.rows
        ]
        _emit(_json_dumps({"mu_shift": chart.mu_shift, "rows": rows}), args.out)
    return 0


def cmd_compare(args) -> int:
    sys1, sys2 = (_load_model(path, args.command) for path in (args.sys1, args.sys2))
    phi = IDENTITY_BASE_MAP if args.phi is None else _load(args.phi, "base-map", _base_map)
    lo, hi = args.k_range
    if lo > hi:
        raise InputError(f"empty --k-range {lo} {hi}")
    if sys1.kind == CUSP_COMPACT and sys2.kind == CUSP_COMPACT:
        verdict = equivalence.cusp_torus_equivalent(
            sys1, sys2, phi, k_range=(lo, hi), action_rtol=args.tol
        )
    else:
        verdict = equivalence.parabolic_equivalent(sys1, sys2, phi, action_rtol=args.tol)
    _emit(_json_dumps(verdict.to_json()), args.out)
    return 0


def cmd_invariants(args) -> int:
    report = equivalence.invariant_report(_load_model(args.sys, args.command))
    _emit(_json_dumps(report.to_json()), args.out)
    return 0


def cmd_lattice(args) -> int:
    sm = flows.SymplecticModel(_load_model(args.sys, args.command))
    h, lam = args.at
    level = _levels(sm.model, [(h, lam)])  # the stratum and the lattice read one level
    if _strata(level, math.inf) != [args.stratum]:
        raise InputError(f"(H, lambda) = ({h}, {lam}) is off the {args.stratum} stratum")
    lattice = flows._period_lattice(sm, level, args.stratum, args.mu_shift)
    payload = lattice.to_json()
    if args.verify:
        start = _start_point(sm, h, lam, lattice.oval)
        # both basis vectors and the half vector, whose H-times share one flow
        t1, t2 = np.vstack((lattice.basis, lattice.basis[1] / 2.0)).T
        payload["verification"] = [
            {"t1": a, "t2": b, "distance": dist, "returned": dist < args.tol}
            for a, b, dist in zip(t1, t2, flows.verify_lattice(sm, start, t1, t2))
        ]
        payload["start_point"] = list(start)
    _emit(_json_dumps(payload), args.out)
    return 0


def _start_point(sm: flows.SymplecticModel, h: float, lam: float, oval: tuple[float, float]):
    a, b = oval
    y_mid = 0.5 * (a + b)
    wc = sm.model.potential_coeffs(lam)
    x = float(np.sqrt(max(h - np.polyval(wc, y_mid), 0.0)))
    return np.array([x, y_mid, lam, 0.0])


def cmd_transport(args) -> int:
    sys1, sys2 = (_load_model(path, args.command) for path in (args.sys1, args.sys2))
    sys1, sys2 = flows.SymplecticModel(sys1), flows.SymplecticModel(sys2)
    points = _load(args.points, "points", _points)
    x0, h = min(sys1.model.x0, sys2.model.x0), flows.STENCIL_H
    if any(q[0] > x0 for q in points):
        raise InputError(f"a point of {args.points} lies before the section N1 = {{x = x0}}")
    if any(q[0] + h > x0 for q in points):
        raise InputError(f"a point of {args.points} lies within the stencil step {h} of N1")
    try:
        residuals = flows.pullback_residual(sys1, sys2, np.reshape(points, (-1, 4)))
    except StratumError as exc:  # from the section times, before any flow
        raise InputError(f"a point of {args.points} is off the map's domain: {exc}") from exc
    keys = ("image", "xy_residual", "fiber_drift")
    out = [{"point": q.tolist(), **{k: r[k] for k in keys}} for q, r in zip(points, residuals)]
    _emit(_json_dumps({"points": out}), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reads an exponent-form negative number (``-5e-05``) as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuspinv",
        description="Symplectic invariants of parabolic orbits and cuspidal tori",
    )
    parser.add_argument(
        "--config", help="JSON file whose entries override the given flags"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="Brieskorn pair of a density")
    p.add_argument("--density", required=True)
    p.add_argument("--no-cross-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("actions", help="action chart over a base grid")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", default="7x7")
    p.add_argument("--h-range", type=_number, nargs=2, default=(-0.01, 0.01))
    p.add_argument("--l-range", type=_number, nargs=2, default=(-0.06, 0.02))
    p.add_argument("--stratum", choices=["narrow", "wide", "outside"])
    p.add_argument("--mu-shift", type=int, default=0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_actions)

    p = sub.add_parser("compare", help="equivalence verdict for two systems")
    p.add_argument("--sys1", required=True)
    p.add_argument("--sys2", required=True)
    p.add_argument("--phi")
    p.add_argument("--k-range", type=int, nargs=2, default=(-3, 3))
    p.add_argument("--tol", type=_tolerance, default=1e-5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("invariants", help="phi-independent invariant report")
    p.add_argument("--sys", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("lattice", help="period lattice at a base point")
    p.add_argument("--sys", required=True)
    p.add_argument("--at", type=_number, nargs=2, required=True, metavar=("H", "LAMBDA"))
    p.add_argument("--stratum", choices=["narrow", "wide"], default="narrow")
    p.add_argument("--mu-shift", type=int, default=0)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tol", type=_tolerance, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("transport", help="transport phase points between systems")
    p.add_argument("--sys1", required=True)
    p.add_argument("--sys2", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_transport)

    return parser


def _config_value(action: argparse.Action, key: str, value):
    """A config entry checked and converted as its command-line option would be."""
    if action.nargs == 0:  # a flag
        if not isinstance(value, bool):
            raise InputError(f"config entry {key!r} must be true or false")
        return value
    items = value if action.nargs else [value]
    try:
        if not isinstance(items, list) or len(items) != (action.nargs or 1):
            raise ValueError(f"expected {action.nargs or 1} value(s)")
        if not all(_is_number(v) or isinstance(v, str) for v in items):
            raise ValueError("values must be strings or numbers")
        out = [(action.type or str)(str(v)) for v in items]
        if action.choices and any(v not in action.choices for v in out):
            raise ValueError(f"must be one of {list(action.choices)}")
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise InputError(f"config entry {key!r}: {exc}") from exc
    return out if action.nargs else out[0]


def _apply_config(parser: argparse.ArgumentParser, args) -> None:
    """Override the parsed flags with the subcommand options in the --config file."""
    overrides = _load(args.config, "config", lambda data: data)
    if not isinstance(overrides, dict):
        raise InputError(f"config {args.config} must hold a JSON object")
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    options = {
        a.dest: a for a in commands.choices[args.command]._actions if a.option_strings
    }
    for key, value in overrides.items():
        action = options.get(key.replace("-", "_"))
        if action is None or action.dest == "help":
            raise InputError(f"config entry {key!r} is no option of {args.command}")
        setattr(args, action.dest, _config_value(action, key, value))


_PARSER = None  # built by the first call of main; a parse leaves no state in it


def main(argv=None) -> int:
    global _PARSER
    parser = _PARSER = _PARSER or build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config(parser, args)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
