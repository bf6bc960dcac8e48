"""Gelfand-Leray period integrals, passage times and action variables on the
model fibrations.

Every level set of a cusp model is x^2 = P(y) = H - W(y), W read off the
Hamiltonian.  The levels of a call, their sections H - x0^2 - W and the W'
of their lambdas are rows of one array, isolated by one stacked root solve
(``_level_ask``, which a request may join to its other polynomials in
``model._solved``); a scalar call is a batch of one.
W is monotone between consecutive critical points, so each such interval
holds at most one root of P, and ``model.sigma_flags`` says where H is on
Sigma: ovals, turning points and degenerate levels follow.  Every invariant
is a row of a ``LevelJobs`` batch of one kernel and one substitution, the
integral of kernel(x, y, lambda) dy/x between two ends of a level set, with
the vanishing factor of P deflated at turning points
(y = a + (b-a) sin^2(t) on a closed oval, y = turn - t^2 on an arc), so
dy/x = 2 dt/sqrt(R(y)) and every integrand is smooth.  The form kernel gives
w dy/(2x) over both branches (passage times, loop periods), the area kernel
x times the integral of f across the level (loop, wide and separatrix
actions); a Density's kernel reads it at +x and -x from one
``Density.eval_pm``, each term once.  One engine, ``_level_integrals``, sums
the jobs of its batches with an adaptive Gauss-Kronrod G10K21 rule, each
batch a group whose subintervals are one slice; a job's value depends on its
own subintervals only.  A builder is a rule and ``_jobs``: the rule, ``_ovals``
or ``_arcs`` (passages from y = -inf, section times, the separatrix lobe),
gives a batch of levels their ends, R and failed-check masks, and ``_jobs``
one kernel's batch of jobs, a row per level with the error of its first
failed check, which a caller raises (``LevelJobs.built``) or leaves blank,
the engine's NaN.  The strata are the oval rule, read off its failed checks
(``_strata``): a chart and a lattice classify on the levels they integrate,
a chart on its window's levels, solved once per window (``_chart_table``).
The invariants are linear in f: a density-free sample grid (``_Grid``) keeps
per monomial its values, and a request sums those of f's terms (``_sums``).

Orientation: loop periods and loop actions are positive; passage times run
from N1 = {x = +x0} to N2 = {x = -x0} (swapping the sections flips the
sign), and so do section times, from N1 to a point of the passage arc.  The
one-dof model H = y^3 - x^2 reaches the engine through one sign bridge,
``_bridged``: (x, y, H) -> (x, -y, -H) carries it to the levels of the
cusp_local model at lambda = 0, with the density f(x, -y, lambda), one
kernel for every lambda, read at the jobs' lambda, the lambda asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .model import (
    CUSP_COMPACT,
    DEFAULT_DOMAIN_RADIUS,
    NODE,
    ONE_DOF,
    SIGMA_RTOL,
    Density,
    FibrationModel,
    OnSigmaError,
    StratumError,
    _critical_ask,
    _horner,
    _potentials,
    _powers,
    _solved,
    _synthetic_division,
    cusp_local_model,
    saddles,
    sigma_flags,
)

QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-12
QUAD_LIMIT = 400

#: the G10K21 error floor per unit of the rule's integral of |integrand|, QUADPACK's 50 eps
_ROUNDOFF = 50.0 * np.finfo(float).eps

#: subintervals evaluated together; bounds the engine's scratch arrays
_BLOCK = 128

# G10K21 (QUADPACK qk21): the Kronrod abscissae on [0, 1] from the centre out
# with their weights, and the Gauss weights of the odd ones
_XK = (0.0, 0.14887433898163122, 0.2943928627014602, 0.4333953941292472, 0.5627571346686047,
       0.6794095682990244, 0.7808177265864169, 0.8650633666889845, 0.9301574913557082,
       0.9739065285171717, 0.9956571630258081)
_WK = (0.1494455540029169, 0.14773910490133849, 0.14277593857706009, 0.13470921731147334,
       0.12349197626206584, 0.10938715880229764, 0.0931254545836976, 0.07503967481091996,
       0.054755896574351995, 0.032558162307964725, 0.011694638867371874)
_WG = (0.0, 0.29552422471475287, 0.0, 0.26926671930999635, 0.0, 0.21908636251598204, 0.0,
       0.1494513491505806, 0.0, 0.06667134430868814, 0.0)
# the 21 nodes on [-1, 1] left to right and both rules' weights on them
_GK_X = np.concatenate((-np.array(_XK[:0:-1]), _XK))
_GK_W, _G_W = (np.array(w[:0:-1] + w) for w in (_WK, _WG))


# -- levels and their roots --------------------------------------------------------


class _Levels(NamedTuple):
    """Levels of a cusp model, stacked: at the (H, lambda) ``points``, P = H - W
    row by row (highest first); P's real roots and W's real critical points,
    ascending (``roots``, ``crit``); whether H is on Sigma at each critical
    point (``sigma``); per root its interval between them (``interval``, 0
    below the first) and whether W rises there (``rises``); given x0, the
    real roots of H - x0^2 - W (``sections``).  Rows are padded with NaN."""

    kind: str
    points: list
    p: np.ndarray
    roots: np.ndarray
    crit: np.ndarray
    sigma: np.ndarray
    interval: np.ndarray
    rises: np.ndarray
    sections: np.ndarray | None

    def take(self, rows: list[int]) -> _Levels:
        """The levels of the given rows."""
        fields = (v if v is None else v[rows] for v in self[2:])
        return _Levels(self.kind, [self.points[i] for i in rows], *fields)


def _level_ask(model: FibrationModel, points, x0: float | None = None):
    """The ask (``model._solved``) for the levels at the (H, lambda) points: its
    rows P = H - W at the points first, then H - x0^2 - W where x0 is given
    (the sections {x = +-x0}), then W' at each distinct lambda for its critical
    table; W rises on an interval where W' > 0, its sign flipping at each root."""
    points = list(points)
    lams = {lam: i for i, lam in enumerate(dict.fromkeys(l for _, l in points))}
    w = _potentials(model, lams)
    heights = points + [(H - x0**2, lam) for H, lam in points if x0 is not None]
    n, m, at = len(points), len(heights), [lams[lam] for _, lam in points]
    dw, critical = _critical_ask(w)
    rows = np.zeros((m + len(dw), w.shape[1]))
    rows[:m], rows[m:, 1:] = -w[[lams[lam] for _, lam in heights]], dw
    rows[:m, -1] += [H for H, _ in heights]
    polys = rows[:n]

    def finish(solved) -> _Levels:
        table = critical(solved[m:, :-1])
        crit, roots = table.crit[at], np.sort(solved[:n], axis=1, kind="stable")
        sigma = sigma_flags([H for H, _ in points], table.values[at])
        interval = (crit[:, None, :] < roots[..., None]).sum(axis=2)
        rises = (np.sum(~np.isnan(crit), axis=1)[:, None] - interval) % 2 == (w[at, :1] < 0)
        rises &= ~np.isnan(roots)
        sections = None if x0 is None else solved[n:m]
        return _Levels(model.kind, points, polys, roots, crit, sigma, interval, rises, sections)

    return rows, finish


def _levels(model: FibrationModel, points, x0: float | None = None) -> _Levels:
    """The levels of ``_level_ask`` from a root solve of their own."""
    return _solved(_level_ask(model, points, x0))[0]


def _on_sigma(levels: _Levels, lo, hi) -> np.ndarray:
    """Per level, whether H is on Sigma at an end of the intervals lo to hi."""
    c = np.arange(levels.sigma.shape[1])
    ends = (c >= lo[:, None] - 1) & (c <= hi[:, None])
    return (levels.sigma & ends).any(axis=1)


def oval_bounds(
    model: FibrationModel, H: float, lam: float, oval: str = "narrow"
) -> tuple[float, float]:
    """Endpoints (y-, y+) of the requested oval of {H - W(y) >= 0}: 'narrow',
    the vanishing-cycle oval (collapses on the elliptic branch), or 'wide',
    the deep-well/full oval of the compact model.  OnSigmaError where H is
    on Sigma at a critical point of W that ends the oval's intervals; at the
    cusp point, where W' has the double root y = 0, the wide oval ends at it."""
    jobs = _oval_jobs(None, _levels(model, [(H, lam)]), oval).built()
    return float(jobs.a[0]), float(jobs.b[0])


# -- kernels and jobs --------------------------------------------------------------


def _weight(w):
    """w(x, y, lambda) on arrays: a Density's eval, another callable vectorised."""
    return w.eval if isinstance(w, Density) else np.vectorize(w, otypes=[float])


def form_kernel(w):
    """(w(x, y, lambda) + w(-x, y, lambda))/2 for a Density (both signs from
    one ``eval_pm``) or a callable w (a pushed-forward density), vectorised."""
    if isinstance(w, Density):
        return lambda x, y, lam: 0.5 * np.add(*w.eval_pm(x, y, lam))
    w = _weight(w)
    return lambda x, y, lam: 0.5 * (w(x, y, lam) + w(-x, y, lam))


def area_kernel(f: Density):
    """x (X(x, y, lambda) - X(-x, y, lambda)) with X = f.antiderivative_x(): x
    times the integral of f over [-x, x], both signs from one ``eval_pm``."""
    if not isinstance(f, Density):
        raise TypeError("area integrals take a polynomial Density")
    X = f.antiderivative_x()
    return lambda x, y, lam: x * np.subtract(*X.eval_pm(x, y, lam))


class LevelJobs(NamedTuple):
    """kernel(x, y, lambda) dy/x over t in [lower, upper] along levels, a row each.

    ``sub`` is 'oval' (P = (y - a)(b - y) R) or 'arc' (P = (b - y) R), with
    the rows of ``r`` holding R; or 'node', the node level x y = a from y = a
    to y = b = 1, where y = a e^t and x = e^-t turn the form dy/y into dt.
    ``errors`` holds per row None, or the error of its first failed check.
    """

    kernel: object
    sub: str
    lam: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    r: np.ndarray
    errors: list

    def take(self, rows) -> LevelJobs:
        """The jobs of the given rows."""
        return LevelJobs(*self[:2], *(v[rows] for v in self[2:-1]), [self.errors[i] for i in rows])

    def built(self) -> LevelJobs:
        """These jobs; the first error among them raised anew (a table's jobs serve many requests)."""
        for error in self.errors:
            if error is not None:
                raise type(error)(*error.args)
        return self


def _jobs(kernel, levels: _Levels, sub: str, a, b, r, upper, checks) -> LevelJobs:
    """The levels' jobs over t in [0, upper], arrays read-only, each row's error
    that of its first failed check; ``checks`` are (failed mask, exception
    type, message with fields {H} and {lam})."""
    errors = [None] * len(levels.points)
    for failed, kind, message in checks:
        for i in np.flatnonzero(failed).tolist():
            if errors[i] is None:
                H, lam = levels.points[i]
                errors[i] = kind(message.format(H=H, lam=lam))
    lam = np.array([lam for _, lam in levels.points], dtype=float)
    for v in (lam, a, b, lower := np.zeros(len(a)), upper, r):
        v.setflags(write=False)
    return LevelJobs(kernel, sub, lam, a, b, lower, upper, r, errors)


def _oval_jobs(kernel, levels: _Levels, oval: str) -> LevelJobs:
    """The kernel's jobs around the levels' ovals, each row's error that of
    its first failed check (``_ovals``)."""
    return _jobs(kernel, levels, *_ovals(levels, oval))


def _ovals(levels: _Levels, oval: str) -> tuple:
    """``_jobs``' arguments past the levels for their ovals: the ends a and b,
    R from one synthetic division of all the levels, and the checks.  A
    narrow oval needs P's roots all real and H off Sigma, and ends at the top
    two; a wide one (compact model) at the lowest two, H off Sigma there."""
    if oval not in ("narrow", "wide"):
        raise ValueError(f"unknown oval {oval!r}")
    if oval == "wide" and levels.kind != CUSP_COMPACT:
        raise ValueError("wide ovals exist for the compact model only")
    roots, at = levels.roots, "at (H, lambda) = ({H}, {lam})"
    count = (~np.isnan(roots)).sum(axis=1)
    if oval == "narrow":
        (a, b), degenerate = roots[:, -2:].T, (count != roots.shape[1]) | levels.sigma.any(axis=1)
        checks = [(degenerate, OnSigmaError, "no narrow oval " + at + ": degenerate level")]
    else:
        (a, b), on_sigma = roots[:, :2].T, _on_sigma(levels, *levels.interval[:, :2].T)
        checks = [
            (count < 2, StratumError, "no wide oval " + at),
            (on_sigma, OnSigmaError, "wide oval degenerates " + at),
            (_horner(levels.p.T, 0.5 * (a + b)) <= 0, StratumError, "empty wide oval " + at),
        ]
    r = -_synthetic_division(_synthetic_division(levels.p, a), b)
    mid = _horner(r.T, 0.5 * (a + b))
    checks.append((mid <= 0, OnSigmaError, "deflated factor not positive on the oval"))
    return "oval", a, b, r, np.full(len(a), math.pi / 2.0), checks


def _strata(levels: _Levels, radius: float) -> list[str]:
    """The stratum of each level: 'narrow' where ``_oval_jobs`` builds a narrow
    job, else on the compact model 'wide' where it builds a wide one, else
    'outside'; 'outside' too past the radius and within SIGMA_RTOL of the
    cusp point.  Read off the builders' failed-check masks, no message made."""
    off = [math.hypot(*p) > radius or max(map(abs, p)) <= SIGMA_RTOL for p in levels.points]
    ovals = ("narrow", "wide") if levels.kind == CUSP_COMPACT else ("narrow",)
    built = [~np.logical_or.reduce([failed for failed, *_ in _ovals(levels, o)[-1]]) for o in ovals]
    names = ("outside", *ovals, "outside")  # the first that holds
    return [names[k] for k in np.vstack((off, *built, [True] * len(off))).argmax(axis=0).tolist()]


# -- the engine --------------------------------------------------------------------


def _level_integrals(*batches: LevelJobs) -> np.ndarray:
    """The values of the batches' jobs, one array in batch order; NaN for a
    row with an error and for a job that needs more than QUAD_LIMIT subintervals.

    Each round evaluates all active subintervals in blocks of _BLOCK with the
    G10K21 rule and QUADPACK's error estimate, accepts those whose error is
    within max(QUAD_EPSABS, QUAD_EPSREL |I|) (length / range), I the job's
    current estimate, or at the floor _ROUNDOFF times its integral of |f|
    (QUADPACK's round-off stop), and bisects the rest.  A job's subintervals
    stay in order along its range and every sum over them runs in that order.
    Each batch is a group, its kernel called once per block on its subintervals.
    """
    starts = [0, *accumulate(len(jobs.errors) for jobs in batches)]
    values = np.full(starts[-1], np.nan)
    width = max((jobs.r.shape[1] for jobs in batches), default=0)
    # each batch a group: the rows of its jobs without an error, a range of the table from firsts[k]
    kept = [np.flatnonzero([error is None for error in jobs.errors]) for jobs in batches]
    firsts = [0, *accumulate(map(len, kept))]
    if not (n := firsts[-1]):
        return values
    # lambda, a, b, lower, upper and R padded with leading zeros, which Horner's sums ignore
    pads = (np.zeros((len(jobs.errors), width - jobs.r.shape[1])) for jobs in batches)
    table = np.concatenate(
        [np.column_stack((*jobs[2:7], pad, jobs.r))[k] for jobs, pad, k in zip(batches, pads, kept)]
    )
    (lam, a, b, lower, upper), r = table[:, :5].T, table[:, 5:]

    def integrand(jk: np.ndarray, t: np.ndarray) -> np.ndarray:
        out = np.empty_like(t)
        cuts = np.searchsorted(jk, firsts).tolist()
        for (kernel, sub, *_), start, stop in zip(batches, cuts, cuts[1:]):
            if start == stop:
                continue
            rows = slice(start, stop)
            js, ts = jk[rows], t[rows]
            aj, bj, lj = a[js, None], b[js, None], lam[js, None]
            if sub == "node":
                out[rows] = kernel(np.exp(-ts), aj * np.exp(ts), lj)
                continue
            if sub == "oval":
                st, ct = np.sin(ts), np.cos(ts)
                y, u = aj + (bj - aj) * st * st, (bj - aj) * st * ct
            else:
                y, u = bj - ts * ts, ts
            rv = np.zeros_like(y)
            for c in r[js].T:
                rv = rv * y + c[:, None]
            pos = rv > 0
            sr = np.sqrt(np.where(pos, rv, 1.0))
            out[rows] = np.where(pos, 2.0 * kernel(u * sr, y, lj) / sr, 0.0)
        return out

    def gk21(jk, lo, hi):
        # the nodes of a subinterval form a contiguous row; every sum is a
        # row-wise reduction, independent of the other rows
        half = 0.5 * (hi - lo)
        fv = integrand(jk, (0.5 * (lo + hi))[:, None] + half[:, None] * _GK_X)
        resk = (fv * _GK_W).sum(axis=1)
        resabs = (np.abs(fv) * _GK_W).sum(axis=1) * half
        resasc = (np.abs(fv - 0.5 * resk[:, None]) * _GK_W).sum(axis=1) * half
        err = np.abs((resk - (fv * _G_W).sum(axis=1)) * half)
        scaled = resasc * np.minimum(1.0, (200.0 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
        err = np.where((resasc != 0) & (err != 0), scaled, err)
        floor = _ROUNDOFF * resabs
        return resk * half, np.maximum(err, floor), floor

    jk, lo, hi, span = np.arange(n), lower.copy(), upper.copy(), upper - lower
    total, count = np.zeros(n), np.ones(n, dtype=int)
    while jk.size:
        val, err, floor = np.empty((3, jk.size))
        for s in range(0, jk.size, _BLOCK):
            blk = slice(s, s + _BLOCK)
            val[blk], err[blk], floor[blk] = gk21(jk[blk], lo[blk], hi[blk])
        estimate = total + np.bincount(jk, val, n)
        tol = np.maximum(QUAD_EPSABS, QUAD_EPSREL * np.abs(estimate[jk])) * ((hi - lo) / span[jk])
        ok = (err <= tol) | (err <= floor)
        total += np.bincount(jk[ok], val[ok], n)
        count += np.bincount(jk[~ok], minlength=n)
        split = ~ok & (count[jk] <= QUAD_LIMIT)
        jk, lo, hi = np.repeat(jk[split], 2), lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.column_stack((lo, mid)).ravel(), np.column_stack((mid, hi)).ravel()
    total[count > QUAD_LIMIT] = np.nan
    values[np.concatenate([start + k for start, k in zip(starts, kept)])] = total
    return values


def _converged(values: np.ndarray) -> np.ndarray:
    """The engine's values; OnSigmaError if one does not converge."""
    if np.isnan(values).any():
        raise OnSigmaError(f"level integral needs more than {QUAD_LIMIT} subintervals")
    return values


def integrals(*batches: LevelJobs) -> np.ndarray:
    """The batches' values from one engine call, in order; OnSigmaError if one does not converge."""
    return _converged(_level_integrals(*batches))


# -- density-free grids ------------------------------------------------------------


class _Grid(NamedTuple):
    """A table's density-free jobs, a batch per column with kernel ``form_kernel`` or ``area_kernel``,
    and per monomial (i, j) the read-only values of x^i y^j in column order (filled by ``_sums``)."""

    columns: tuple
    moments: dict


def _sums(*asks: tuple[_Grid, Density]) -> list[np.ndarray]:
    """Per (grid, f), f's values to 1e-13, NaN as the engine's: from 0.0, in ``Density._plan``
    order, the sum over f's terms of even i (both kernels of an odd i are 0; f odd in x sums
    0.0 times the values of 1) of c lambda^k (``_powers``, the jobs' lambdas, a -0.0 as 0.0)
    times the grid's values of x^i y^j.  The monomials new to a grid are integrated first, in
    one engine call, each job on its own subintervals: the bits of a call per monomial."""
    terms = [[t for t in f._plan[0] if t[1] % 2 == 0] or [(0.0, 0, 0, 0)] for _, f in asks]
    new = {(id(g), i, j): (g, i, j) for (g, _), ts in zip(asks, terms) for _, i, j, _ in ts}
    new = [(g, i, j) for g, i, j in new.values() if (i, j) not in g.moments]
    units = [(g, Density({(i, j, 0): 1.0})) for g, i, j in new]
    batches = [jobs._replace(kernel=jobs.kernel(unit)) for g, unit in units for jobs in g.columns]
    ends = list(accumulate(len(b.errors) for b in batches))
    parts = iter(np.split(_level_integrals(*batches), ends)) if batches else None
    for g, i, j in new:
        scales = [2.0 * math.pi if jobs.kernel is area_kernel else 1.0 for jobs in g.columns]
        g.moments[i, j] = np.concatenate([next(parts) / scale for scale in scales])
        g.moments[i, j].setflags(write=False)
    out = []
    for (grid, f), ts in zip(asks, terms):
        powers, total = _powers(np.concatenate([jobs.lam for jobs in grid.columns]), f._plan[3]), 0.0
        for c, i, j, k in ts:
            total = total + (c * powers[k] if k else c) * grid.moments[i, j]
        out.append(total)
    return out


# -- job builders ------------------------------------------------------------------

_UNREACHED = "trajectory does not reach the section"


def _arc_jobs(kernel, levels: _Levels, y, through=True, start=None) -> LevelJobs:
    """The kernel's jobs along the levels' passage arcs (``_arcs``)."""
    return _jobs(kernel, levels, *_arcs(levels, y, through, start))


def _arcs(levels: _Levels, y, through=True, start=None) -> tuple:
    """``_jobs``' arguments past the levels for their passage arcs from height
    y up to turn, R and the checks, as ``_ovals``.  turn is the root of the
    first interval at or above y's where W rises, so P falls there (a y on a
    critical point counts as above it).  The arc starts at y_sec, its highest
    crossing of {x = +-x0} between turn and the root below it, or at ``start``
    on levels without sections.  StratumError without turn or crossing;
    OnSigmaError for an arc through a saddle where ``through`` holds: H on
    Sigma at an end of the intervals from the root below turn to turn."""
    p, rows = levels.p, np.arange(len(levels.p))
    above = (levels.crit <= np.asarray(y, dtype=float)[..., None]).sum(axis=1)  # y's interval
    falls = levels.rises & (levels.interval >= above[:, None])
    i = falls.argmax(axis=1)
    turn, first = levels.roots[rows, i], i == 0  # -inf, in interval 0, below the first root
    floor = np.where(first, -np.inf, levels.roots[rows, i - 1])
    lower = np.where(first, 0, levels.interval[rows, i - 1])
    saddle = _on_sigma(levels, lower, levels.interval[rows, i])
    checks = [
        (~falls.any(axis=1), StratumError, _UNREACHED),
        (saddle & through, OnSigmaError, "passage trajectory degenerates (on Sigma_hyp)"),
    ]
    if levels.sections is not None:
        crossing = (levels.sections > floor[:, None]) & (levels.sections < turn[:, None])
        checks.append((~crossing.any(axis=1), StratumError, _UNREACHED))
        start = np.where(crossing, levels.sections, -np.inf).max(axis=1)
    with np.errstate(invalid="ignore"):
        upper = np.sqrt(turn - start)
    return "arc", start, turn, -_synthetic_division(p, turn), upper, checks


def _bridged(f):
    """f(x, -y, lambda): the density that the sign bridge (x, y, H) -> (x, -y, -H)
    makes of the one-dof model's f, on the levels of the cusp_local model at
    lambda = 0 and read at the jobs' lambda, the lambda asked."""
    return f.mirror_y() if isinstance(f, Density) else lambda x, y, lam: f(x, -y, lam)


def _passage_levels(model: FibrationModel, points) -> _Levels:
    """The passages' levels, with sections; one-dof ones by the sign bridge, on x0 and H alone."""
    if model.kind != ONE_DOF:
        return _levels(model, points, model.x0)
    if any(H <= 0 for H, _ in points):
        raise ValueError("one-dof passage requires H > 0")
    return _levels(cusp_local_model(), [(-H, 0.0) for H, _ in points], model.x0)


def passage_jobs(model: FibrationModel, points) -> LevelJobs:
    """Passage-time jobs at the (H, lambda) points (``_passage_levels``), at the lambda asked."""
    points, f = list(points), model.density
    if model.kind == NODE:
        raise ValueError("use asymptotics.node_passage for the node model")
    kernel = form_kernel(_bridged(f) if model.kind == ONE_DOF else f)
    jobs = _arc_jobs(kernel, _passage_levels(model, points), -math.inf).built()
    return jobs._replace(lam=np.array([lam for _, lam in points], dtype=float))


def oval_jobs(model: FibrationModel, points, kernel, oval: str) -> LevelJobs:
    """Jobs integrating a form or area kernel around the oval at the (H, lambda) points."""
    return _oval_jobs(kernel, _levels(model, points), oval).built()


def node_jobs(f, H_values) -> LevelJobs:
    """Jobs for Pi(H) = int_H^1 f(H/y, y) dy/y on the node model H = x*y."""
    a, upper = np.array(H_values, dtype=float), np.array([-math.log(H) for H in H_values])
    zeros, r = np.zeros(len(a)), np.zeros((len(a), 0))
    return LevelJobs(_weight(f), "node", zeros, a, zeros + 1.0, zeros, upper, r, [None] * len(a))


# -- section times ----------------------------------------------------------------

_VANISHES = "degenerate Omega: density vanishes on the trajectory"


def _zero_poly(f: Density, p: np.ndarray, lam: float) -> np.ndarray:
    """f(x, y) f(-x, y) on the level x^2 = P(y) as a polynomial in y: with
    f = E + x O, E and O even in x, it is E^2 - P O^2; where O = 0, E.  The
    sums and products are ``np.polymul``'s, by ``np.convolve`` on E and O
    trimmed as it trims them.  ValueError where it vanishes identically."""
    terms = [(i, j, float(c) * lam**k) for (i, j, k), c in f.terms.items()]
    width = 1 + max((j + i // 2 * (len(p) - 1) for i, j, _ in terms), default=0)
    parts = np.zeros((2, width))
    for i, j, a in terms:
        if i < 2:
            parts[i, width - 1 - j] += a
            continue
        term = np.concatenate((a * p, np.zeros(j)))  # (a y^j) P, one product an entry
        for _ in range(i // 2 - 1):
            term = np.convolve(_lead(term), p)
        parts[i % 2, width - len(term) :] += term
    even, odd = parts
    if odd.any():
        even, odd = _lead(even), _lead(odd)
        square, product = np.convolve(even, even), np.convolve(p, np.convolve(odd, odd))
        even = np.zeros(max(len(square), len(product)))
        even[len(even) - len(square) :] = square
        even[len(even) - len(product) :] -= product
    if not even.any():
        raise ValueError(_VANISHES)
    return even


def _lead(v: np.ndarray) -> np.ndarray:
    """v from its first nonzero entry on, [0.0] where it has none (``np.poly1d``)."""
    nonzero = np.flatnonzero(v)
    return v[nonzero[0] :] if nonzero.size else np.zeros(1)


def section_jobs(model: FibrationModel, points) -> LevelJobs:
    """Jobs for the times from N1 = {x = x0}, x0 the model's, to the
    (x, y, lambda) points along their passage arcs: up the branch x > 0 from
    the crossing y_sec to the turning point above the point, then down the
    branch x < 0, past N2 if need be; on y = turn - s^2, x = s sqrt(R), the
    one-sided f dy/(2x) for s from sign(x) sqrt(turn - y) to
    sqrt(turn - y_sec), lower = upper on N1 (time 0).  The levels with their
    sections and the zeros of f on them are one stacked root solve; the point
    checks are masks on arrays, after ``_arcs``' in one ``_jobs`` call.  The
    first failing point raises its first failed check (``LevelJobs.built``):
    the arc's; StratumError before N1 (lower >= upper off x = x0); ValueError
    where f vanishes on the stretch; StratumError where f < 0 at the point.
    A point on N1 takes neither of the last two.  ValueError, before all of
    them, where f vanishes on a whole level (``_zero_poly``)."""
    xs, ys, lams = np.reshape(np.array(list(points), dtype=float), (-1, 3)).T
    x0, f, at = model.x0, model.density, lams
    if model.kind == ONE_DOF:  # x0 stays the one-dof model's
        f, model, ys, at = _bridged(f), cusp_local_model(), -ys, np.zeros_like(lams)
    heights = xs * xs + _horner(_potentials(model, at.tolist()).T, ys)
    ask = _level_ask(model, zip(heights.tolist(), at.tolist()), x0)  # its first rows are the levels' P
    polys = [_zero_poly(f, p, lam) for p, lam in zip(ask[0], lams.tolist())]
    levels, zeros = _solved(ask, (polys, np.asarray))
    sub, a, b, r, upper, checks = _arcs(levels, ys, xs < 0)  # past the turn
    with np.errstate(invalid="ignore"):
        lower = np.copysign(np.sqrt(np.maximum(b - ys, 0.0)), xs)
        moving = lower < upper  # else on N1 up to rounding, or before it on the branch x > 0
        s = np.sqrt(b[:, None] - zeros) * [[[1.0]], [[-1.0]]]  # on both branches, NaN above turn
        xz = s * np.sqrt(np.maximum(_horner(r.T[..., None], zeros), 0.0))
        plus, minus = f.eval_pm(xz, zeros, lams[:, None])
    # a zero on the stretch, where f vanishes on the branch through xz if it is the smaller there
    vanishes = (lower[:, None] <= s) & (s <= upper[:, None]) & (np.abs(plus) <= np.abs(minus))
    checks += [
        (~moving & (np.abs(xs - x0) > 1e-12 * x0), StratumError, _UNREACHED),
        (moving & vanishes.any(axis=(0, 2)), ValueError, _VANISHES),
        (moving & (f.eval(xs, ys, lams) < 0), StratumError, _UNREACHED),
    ]
    jobs = _jobs(lambda x, y, lam: 0.5 * f(x, y, lam), levels, sub, a, b, r, upper, checks).built()
    return jobs._replace(lam=lams, lower=np.where(moving, lower, upper))


# -- the scalar API: batches of one ------------------------------------------------


def section_time(model: FibrationModel, x, y, lam):
    """Time from N1 = {x = x0}, x0 the model's, to (x, y) along the passage
    arc of its level (``section_jobs``); for arrays x, y and lambda, broadcast
    together, one time per point from one engine call."""
    points = np.broadcast_arrays(x, y, lam)
    jobs = section_jobs(model, zip(*(v.ravel() for v in points)))
    moving = np.flatnonzero(jobs.lower < jobs.upper)
    out = np.zeros(len(jobs.errors))
    out[moving] = integrals(jobs.take(moving))
    return out.reshape(points[0].shape) if points[0].ndim else float(out[0])


def passage_time(model: FibrationModel, H: float, lam: float = 0.0) -> float:
    """Passage time Pi(H, lambda) of the Gelfand-Leray form from N1 to N2.

    For the one-dof model with f = 1 resp. f = y this equals the basic
    integral J_0(H) resp. J_1(H).
    """
    return float(integrals(passage_jobs(model, [(H, lam)]))[0])


def loop_period(model: FibrationModel, H: float, lam: float) -> float:
    """Period Pi_o(H, lambda) of the closed trajectory around the narrow oval.

    Satisfies Pi_o = 2 pi dI_o/dH and diverges logarithmically on the
    hyperbolic branch.
    """
    return float(integrals(oval_jobs(model, [(H, lam)], form_kernel(model.density), "narrow"))[0])


def loop_action(model: FibrationModel, H: float, lam: float) -> float:
    """I_o(H, lambda) = area of the narrow oval w.r.t. f dx^dy, over 2 pi."""
    jobs = oval_jobs(model, [(H, lam)], area_kernel(model.density), "narrow")
    return float(integrals(jobs)[0]) / (2.0 * math.pi)


def wide_action(model: FibrationModel, H: float, lam: float, k: int = 0) -> float:
    """I_mu on the compact model: wide-oval area / 2 pi, plus k * lambda.

    The integer k records the chosen representative of the mu-cycle, which
    is defined only up to mu -> mu + k * gamma.
    """
    if model.kind != CUSP_COMPACT:
        raise StratumError("I_mu lives on the compact model's wide tori")
    jobs = oval_jobs(model, [(H, lam)], area_kernel(model.density), "wide")
    return float(integrals(jobs)[0]) / (2.0 * math.pi) + k * lam


def separatrix_action(model: FibrationModel, lam):
    """h(lambda) = max_H I_o(H, lambda), attained on the hyperbolic branch;
    for an array of lambdas, one value per lambda from one saddle solve
    (``model.saddles``), one solve of the lobe levels H = W(a) and one engine call, a lobe
    from a up to the turn above it.  StratumError where the hyperbolic branch does not exist."""
    lams = np.asarray(lam, dtype=float)
    flat, a, h, _ = saddles(model, lams)
    jobs = _arc_jobs(area_kernel(model.density), _levels(model, zip(h.tolist(), flat)), a, False, a)
    out = integrals(jobs.built()) / (2.0 * math.pi)
    return out.reshape(lams.shape) if lams.ndim else float(out[0])


# -- action charts -----------------------------------------------------------------


@dataclass
class ActionChartRow:
    H: float
    lam: float
    stratum: str
    Pi: float | None
    Pi_circ: float | None
    I: float | None
    I_circ: float | None
    I_mu: float | None


@dataclass
class ActionChart:
    """Gridded samples of the actions over the base.

    Rows are ordered lambda-major, H-minor; the ordering and the values are
    deterministic for a fixed grid (fixed quadrature rules, no randomness).
    """

    rows: list[ActionChartRow]
    mu_shift: int

    CSV_HEADER = "H,lambda,stratum,Pi,Pi_circ,I,I_circ,I_mu"

    def to_csv(self) -> str:
        """The rows as CSV, column by column: each value of a column formatted
        once, a zero each time (0.0 == -0.0), None as an empty entry."""
        rows = ((r.H, r.lam, r.stratum, r.Pi, r.Pi_circ, r.I, r.I_circ, r.I_mu) for r in self.rows)
        columns = []
        for values in zip(*rows):
            text = {v: v if isinstance(v, str) else f"{v:.12g}" for v in set(values) if v}
            columns.append([text[v] if v else "" if v is None else f"{v:.12g}" for v in values])
        return "\n".join([self.CSV_HEADER, *map(",".join, zip(*columns))]) + "\n"


@lru_cache(maxsize=8)
def _chart_table(kind: str, x0: float, H_values: tuple, lam_values: tuple):
    """What of a chart window reads no density, once per model kind, x0 and H and lambda
    values in a process (a -0.0 meets the 0.0 entry, whose roots are the same bits): the
    indices of the window's cells in the domain (lambda-major, H-minor), their strata
    (``_strata``), the ``_Grid`` of the columns Pi, Pi_circ, I_circ and I_mu (compact),
    each on the cells of its strata, and the (column, cell) of each of its values."""
    cells = [(h, lam) for lam in lam_values for h in H_values]
    near = [i for i, cell in enumerate(cells) if math.hypot(*cell) <= DEFAULT_DOMAIN_RADIUS]
    levels = _levels(FibrationModel(kind, x0=x0), [cells[i] for i in near], x0)
    strata = _strata(levels, DEFAULT_DOMAIN_RADIUS)
    inside = [c for c, stratum in enumerate(strata) if stratum != "outside"]
    narrow = [c for c in inside if strata[c] == "narrow"]
    loops = _oval_jobs(form_kernel, levels.take(narrow), "narrow").built()
    on_inside = levels.take(inside)
    # I_circ has Pi_circ's ends and R
    columns = [_arc_jobs(form_kernel, on_inside, -math.inf), loops, loops._replace(kernel=area_kernel)]
    columns += [_oval_jobs(area_kernel, on_inside, "wide")] if kind == CUSP_COMPACT else []
    pairs = [(k, c) for k, cs in enumerate([inside, narrow, narrow, inside][: len(columns)]) for c in cs]
    where = tuple(np.array(pairs, dtype=int).reshape(-1, 2).T)  # the (column, cell) of each value
    return tuple(near), tuple(strata), _Grid(tuple(columns), {}), where


def action_chart(
    model: FibrationModel,
    H_values,
    lam_values,
    mu_shift: int = 0,
    stratum_filter: str | None = None,
) -> ActionChart:
    """Assemble the per-point actions; unavailable entries stay empty.

    I = lambda everywhere in the domain (F generates the S^1 action);
    Pi_circ and I_circ exist on the narrow stratum, I_mu on the compact
    model away from Sigma_hyp.  The levels of the cells in the domain, their
    sections and strata depend on the window alone and are read off its
    ``_chart_table``, one stacked root solve per window in a process.  The
    cells are sums of f's monomials' values there (``_sums``): within 1e-13
    of f's scalar value, bit for bit at f = 1, whatever ran before.  The rows
    keep the H and lambda asked.
    """
    H_values, lam_values = tuple(H_values), tuple(lam_values)
    rows = [ActionChartRow(h, lam, "outside", *[None] * 5) for lam in lam_values for h in H_values]
    at, strata, grid, where = _chart_table(model.kind, model.x0, H_values, lam_values)
    near, values = [rows[i] for i in at], np.full((4, len(at)), np.nan)
    values[where] = _sums((grid, model.density))[0]
    values[3] += mu_shift * np.array([row.lam for row in near], dtype=float)  # the lambdas asked
    kept = {stratum_filter} if stratum_filter else {"narrow", "wide", "outside"}
    narrow = [c for c, stratum in enumerate(strata) if stratum == "narrow" and stratum in kept]
    for name, column in zip(("Pi_circ", "I_circ"), values[1:3, narrow]):  # Pi and I_mu may be blank
        for row in [near[narrow[c]] for c in np.flatnonzero(np.isnan(column))][:1]:
            raise OnSigmaError(f"{name} does not converge at (H, lambda) = ({row.H}, {row.lam})")
    cells = np.where(np.isnan(values), None, values).tolist()  # blank, the outside cells too
    for row, stratum, *cell in zip(near, strata, *cells):
        row.stratum, row.I = stratum, None if stratum == "outside" else row.lam  # I on each oval
        row.Pi, row.Pi_circ, row.I_circ, row.I_mu = cell
    return ActionChart(rows=[row for row in rows if row.stratum in kept], mu_shift=mu_shift)
