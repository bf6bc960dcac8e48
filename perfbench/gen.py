"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, workdir)`` writes the JSON input files a workload
needs into ``workdir`` and returns its manifest: the request list and the
fixed fractions of near-Sigma points and blank-cell regions.  Nothing from
``cuspinv`` is imported, so the program under test receives nothing but
these files.

Coefficients are drawn from narrow ranges so that the cost of a request
depends little on the seed; the request mix of each workload is fixed.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
from oracles import System, critical_values, section_time

WORKLOADS = ("chart", "invariants", "flows")

#: the default chart window of ``cuspinv actions`` at 21 x 21
CHART_GRID = "21x21"
CHART_H = (-0.01, 0.01)
CHART_L = (-0.06, 0.02)
CHART_COMPACT_REQUESTS = 3

INVARIANT_DENSITIES = 10
INVARIANT_SYSTEMS = 6  # per model kind

LATTICE_NARROW = 4  # per cusp kind, the last of them near Sigma_hyp
LATTICE_WIDE = 8
NEAR_SIGMA_FRAC = 0.93  # position across the swallow-tail of a near-Sigma point
TRANSPORT_REQUESTS = 4
TRANSPORT_POINTS = 2
TRANSPORT_REACH = 0.9  # images stay within |x| <= TRANSPORT_REACH * x0, inside N2 = {x = -x0}

X0 = {"cusp_local": 1.0, "cusp_compact": 0.25}


def _density(terms: dict) -> dict:
    return {"terms": [{"c": float(c), "e": list(e)} for e, c in sorted(terms.items())]}


def _system(kind: str, terms: dict) -> dict:
    return {"kind": kind, "density": _density(terms), "x0": X0[kind]}


def _perturbed(rng, base: float, monomials, scale: float) -> dict:
    terms = {(0, 0, 0): base}
    for e in monomials:
        terms[e] = float(rng.uniform(-scale, scale))
    return terms


class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def put(self, name: str, obj) -> str:
        with open(os.path.join(self.workdir, name), "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        return name


def _request(kind: str, argv: list, ops: int, files: list, **oracle) -> dict:
    return {"kind": kind, "argv": argv, "ops": ops, "files": files, "oracle": oracle}


# -- chart --------------------------------------------------------------------


def _chart_fractions(nh: int, nl: int) -> dict:
    """Share of the compact chart's cells near Sigma and in the blank-Pi region."""
    near = blank = 0
    x0sq = X0["cusp_compact"] ** 2
    for lam in np.linspace(*CHART_L, nl):
        for h in np.linspace(*CHART_H, nh):
            if lam < 0:
                h_e, h_h = critical_values("cusp_compact", lam)
                if min(abs(h - h_e), abs(h - h_h)) < 0.1 * (h_h - h_e):
                    near += 1
            # Pi is blank where the wide oval (lowest two roots) stays inside |x| < x0
            p = -np.array([1.0, 1.0, 0.0, lam, 0.0])
            p[-1] += h
            roots = sorted(r.real for r in np.roots(p) if abs(r.imag) < 1e-9)
            if len(roots) >= 2 and math.hypot(h, lam) <= 0.08:
                ys = np.linspace(roots[0], roots[1], 2001)
                if np.polyval(p, ys).max() < x0sq:
                    blank += 1
    cells = nh * nl
    return {"near_sigma": near / cells, "blank_pi": blank / cells}


def _chart(rng, w: _Writer) -> dict:
    reqs = []
    grid_args = ["--grid", CHART_GRID, "--h-range", *map(str, CHART_H), "--l-range", *map(str, CHART_L)]
    nh, nl = (int(v) for v in CHART_GRID.split("x"))
    for i in range(CHART_COMPACT_REQUESTS):
        terms = _perturbed(rng, 1.0, [(0, 1, 0), (2, 0, 0), (0, 0, 1), (0, 2, 0)], 0.2)
        name = w.put(f"chart_compact_{i}.json", _system("cusp_compact", terms))
        reqs.append(
            _request("chart_compact", ["actions", "--model", name, *grid_args, "--format", "csv"],
                     nh * nl, [name], model=name)
        )
    # f = 1 on the local model: every narrow loop period has a Carlson closed form
    name = w.put("chart_local.json", _system("cusp_local", {(0, 0, 0): 1.0}))
    reqs.append(
        _request("chart_local", ["actions", "--model", name, *grid_args, "--format", "csv"],
                 nh * nl, [name], model=name, unit_density=True)
    )
    return {"requests": reqs, "fractions": _chart_fractions(nh, nl)}


# -- invariants -----------------------------------------------------------------


def _invariants(rng, w: _Writer) -> dict:
    reqs = []
    for i in range(INVARIANT_DENSITIES):
        terms = _perturbed(rng, float(rng.uniform(0.8, 1.5)),
                           [(0, 1, 0), (2, 0, 0), (1, 1, 0), (0, 3, 0), (2, 1, 0)], 0.3)
        name = w.put(f"inv_density_{i}.json", _density(terms))
        reqs.append(_request("decompose", ["decompose", "--density", name], 1, [name], density=name))
    for kind in ("cusp_local", "cusp_compact"):
        for i in range(INVARIANT_SYSTEMS):
            terms = _perturbed(rng, float(rng.uniform(0.8, 1.5)), [(0, 1, 0), (2, 0, 0), (0, 0, 1)], 0.2)
            s = float(rng.uniform(1.05, 1.3))
            tag = kind.split("_")[1]
            a = w.put(f"inv_{tag}_{i}.json", _system(kind, terms))
            b = w.put(f"inv_{tag}_{i}_scaled.json", _system(kind, {e: s * c for e, c in terms.items()}))
            reqs.append(_request(f"invariants_{tag}", ["invariants", "--sys", a], 1, [a], model=a))
            reqs.append(_request(f"compare_self_{tag}", ["compare", "--sys1", a, "--sys2", a], 1, [a],
                                 model=a, scale=1.0))
            reqs.append(_request(f"compare_scaled_{tag}", ["compare", "--sys1", a, "--sys2", b], 1, [a, b],
                                 model=a, scale=s))
    return {"requests": reqs, "fractions": {}}


# -- flows ------------------------------------------------------------------------


def _strata(rng, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of n equal strata of [lo, hi], in shuffled order.

    Base points and flow times spread over the same ranges on every seed, so the
    cost of a pass depends little on the seed."""
    return [lo + (hi - lo) * (k + float(rng.uniform())) / n for k in rng.permutation(n)]


def _arg(v: float) -> str:
    """Positional notation: argparse takes '-1e-05' for an option, not a number."""
    return np.format_float_positional(v, unique=True, trim="-")


def _branch_y(lam: float, h: float, x: float) -> float:
    """y of the open (passage) branch of the local model's level H = h at x."""
    return float(min(r.real for r in np.roots([1.0, 0.0, lam, x * x - h]) if abs(r.imag) < 1e-9))


def _open_branch_point(lam: float, h_frac: float, x: float) -> list[float]:
    """A point on the open (passage) branch of the local model, |x| < x0."""
    h = h_frac * 2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
    return [x, _branch_y(lam, h, x), lam]


def _transport_in_domain(sys1: dict, sys2: dict, points: list) -> bool:
    """Whether every point's image lies between the sections N1 and N2.

    The transport map takes a point reached from N1 = {x = x0} in time t1
    under system 1 to the point of the same fiber reached in time t1 under
    system 2.  Where system 2 passes N2 = {x = -x0} sooner, the image lies
    beyond N2, outside the model, and the flow there can reach f = 0.  So the
    flow time to each point under system 1 must not exceed the time to
    x = -TRANSPORT_REACH * x0 under system 2 (own DOP853 flows).
    """
    s1, s2 = System(sys1), System(sys2)
    for x, y, lam in points:
        h = x * x + y**3 + lam * y
        x_end = -TRANSPORT_REACH * s2.x0
        if section_time(s1, (x, y), lam) > section_time(s2, (x_end, _branch_y(lam, h, x_end)), lam):
            return False
    return True


def _lattice(kind: str, name: str, h: float, lam: float, stratum: str) -> dict:
    argv = ["lattice", "--sys", name, "--at", _arg(h), _arg(lam), "--stratum", stratum, "--verify"]
    return _request(f"lattice_{stratum}_{kind.split('_')[1]}", argv, 3, [name], model=name)


def _flows(rng, w: _Writer) -> dict:
    reqs = []
    for kind in ("cusp_compact", "cusp_local"):
        terms = _perturbed(rng, 1.0, [(0, 1, 0), (2, 0, 0), (0, 0, 1)], 0.2)
        name = w.put(f"lattice_{kind.split('_')[1]}.json", _system(kind, terms))
        # the last narrow point sits near Sigma_hyp, the others across the swallow-tail
        fracs = _strata(rng, LATTICE_NARROW - 1, 0.3, 0.7) + [NEAR_SIGMA_FRAC]
        for lam, frac in zip(_strata(rng, LATTICE_NARROW, -0.06, -0.03), fracs):
            h_e, h_h = critical_values(kind, lam)
            reqs.append(_lattice(kind, name, h_e + frac * (h_h - h_e), lam, "narrow"))
        if kind == "cusp_compact":
            for h, lam in zip(_strata(rng, LATTICE_WIDE, 0.03, 0.05), _strata(rng, LATTICE_WIDE, 0.0, 0.03)):
                reqs.append(_lattice(kind, name, h, lam, "wide"))
    n = TRANSPORT_REQUESTS * TRANSPORT_POINTS
    points = list(zip(_strata(rng, n, -0.35, -0.15), _strata(rng, n, -0.5, 0.5), _strata(rng, n, -0.8, 0.8)))
    for i in range(TRANSPORT_REQUESTS):
        pts = [_open_branch_point(*pt) for pt in points[i * TRANSPORT_POINTS:(i + 1) * TRANSPORT_POINTS]]
        while True:  # redraw the pair of systems until every image stays inside the model
            pair = [_system("cusp_local", _perturbed(rng, 1.0, [(0, 1, 0), (2, 0, 0)], 0.2)) for _ in "ab"]
            if _transport_in_domain(*pair, pts):
                break
        s1 = w.put(f"transport_{i}_a.json", pair[0])
        s2 = w.put(f"transport_{i}_b.json", pair[1])
        p = w.put(f"transport_{i}_points.json", pts)
        reqs.append(_request("transport", ["transport", "--sys1", s1, "--sys2", s2, "--points", p],
                             TRANSPORT_POINTS, [s1, s2, p], sys1=s1, sys2=s2, points=p))
    return {"requests": reqs, "fractions": {"near_sigma_lattice": 2 / (2 * LATTICE_NARROW)}}


def generate(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its manifest."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = _Writer(workdir)
    manifest = {"chart": _chart, "invariants": _invariants, "flows": _flows}[workload](rng, w)
    manifest.update(workload=workload, seed=seed)
    w.put("manifest.json", manifest)
    return manifest
