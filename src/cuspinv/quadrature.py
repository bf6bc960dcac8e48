"""Gelfand-Leray period integrals, passage times and action variables on the
model fibrations.

All level sets of the cusp models are treated through the potential form
x^2 = P(y) = H - W(y).  Every invariant comes from one engine, ``_level_integral``:
the integral of kernel(y, x) dy/x between two ends of a level set, with the
vanishing factor of P deflated at turning points (y = a + (b-a) sin^2(theta)
on a closed oval, y = turn - s^2 on an arc), so dy/x = 2 dt/sqrt(R(y)) and
every integrand handed to the adaptive quadrature is smooth.  The form
kernel (w(x, y) + w(-x, y))/2 gives the Gelfand-Leray form w dy/(2x) over
both branches (passage times, loop periods); the area kernel
x^2 sum_i GLw_i f(x GLnode_i, y), x times the Gauss-Legendre integral of f
across the level, gives areas (loop, wide and separatrix actions).

Orientation conventions: loop periods and loop actions are positive;
passage times run from N1 = {x = +x0} to N2 = {x = -x0} (swapping the
sections flips the sign).

The one-degree-of-freedom model H = y^3 - x^2 is routed through the sign
bridge (x, y, H) -> (x, -y, -H) onto the same engine; densities transform
by f(x, y) -> f(x, -y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .model import (
    CUSP_COMPACT,
    CUSP_LOCAL,
    NODE,
    ONE_DOF,
    BifurcationDiagram,
    Density,
    FibrationModel,
    bifurcation_diagram,
)

QUAD_EPSABS = 1e-13
QUAD_EPSREL = 1e-12
QUAD_LIMIT = 400

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


class OnSigmaError(ValueError):
    """Requested integral degenerates on the bifurcation diagram."""


class StratumError(ValueError):
    """Base point is outside the stratum required by the operation."""


# -- polynomial root utilities ---------------------------------------------------


def _polish(coeffs: np.ndarray, r: float) -> float:
    d = np.polyder(coeffs)
    for _ in range(3):
        fv = np.polyval(coeffs, r)
        dv = np.polyval(d, r)
        if dv == 0:
            break
        r = r - fv / dv
    return r


def _real_roots(coeffs: np.ndarray) -> list[float]:
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "f")
    if len(coeffs) <= 1:
        return []
    roots = np.roots(coeffs)
    scale = 1.0 + max(abs(roots.real).max(initial=0.0), abs(roots.imag).max(initial=0.0))
    out = [float(r.real) for r in roots if abs(r.imag) <= 1e-8 * scale]
    return sorted(out)


def _clusters(roots: list[float], tol: float) -> list[tuple[float, int]]:
    """Group near-coincident roots into (center, multiplicity) pairs."""
    out: list[tuple[float, int]] = []
    for r in roots:
        if out and abs(r - out[-1][0]) <= tol:
            c, m = out[-1]
            out[-1] = ((c * m + r) / (m + 1), m + 1)
        else:
            out.append((r, 1))
    return out


def _level_poly(wc: np.ndarray, H: float) -> np.ndarray:
    """Coefficients of P(y) = H - W(y), highest first."""
    p = -np.array(wc, dtype=float)
    p[-1] += H
    return p


def _root_clusters(p: np.ndarray) -> list[tuple[float, int]]:
    """Clusters of the polished real roots of P."""
    roots = sorted(_polish(p, r) for r in _real_roots(p))
    span = max((abs(r) for r in roots), default=1.0)
    return _clusters(roots, tol=1e-8 * max(1.0, span))


def _synthetic_division(coeffs: np.ndarray, root: float) -> np.ndarray:
    """coeffs / (y - root), highest first; remainder discarded."""
    out = np.empty(len(coeffs) - 1)
    acc = 0.0
    for i, c in enumerate(coeffs[:-1]):
        acc = acc * root + c
        out[i] = acc
    return out


# -- oval selection ---------------------------------------------------------------


def _oval(model: FibrationModel, H: float, lam: float, oval: str):
    """(a, b, P): the ends of the requested oval and the level polynomial."""
    if model.kind not in (CUSP_LOCAL, CUSP_COMPACT):
        raise ValueError(f"no closed ovals for model kind {model.kind}")
    p = _level_poly(model.potential_coeffs(lam), H)
    clusters = _root_clusters(p)
    if oval == "narrow":
        need = 3 if model.kind == CUSP_LOCAL else 4
        if len(clusters) != need or any(m != 1 for _, m in clusters):
            raise OnSigmaError(
                f"no narrow oval at (H, lambda) = ({H}, {lam}): degenerate level"
            )
        return clusters[-2][0], clusters[-1][0], p
    if oval == "wide":
        if model.kind != CUSP_COMPACT:
            raise ValueError("wide ovals exist for the compact model only")
        if len(clusters) < 2:
            raise StratumError(f"no wide oval at (H, lambda) = ({H}, {lam})")
        (a, ma), (b, mb) = clusters[0], clusters[1]
        if ma != 1 or mb % 2 == 0:
            raise OnSigmaError(
                f"wide oval degenerates at (H, lambda) = ({H}, {lam})"
            )
        mid = 0.5 * (a + b)
        if np.polyval(p, mid) <= 0:
            raise StratumError(f"empty wide oval at (H, lambda) = ({H}, {lam})")
        return a, b, p
    raise ValueError(f"unknown oval {oval!r}")


def oval_bounds(
    model: FibrationModel, H: float, lam: float, oval: str = "narrow"
) -> tuple[float, float]:
    """Endpoints (y-, y+) of the requested oval of {H - W(y) >= 0}.

    'narrow' is the vanishing-cycle oval (collapses on the elliptic branch),
    'wide' the deep-well/full oval of the compact model.  Brackets whose own
    endpoints carry a double root (the point sits on Sigma) are rejected; an
    odd-order contact at the far end (the cusp itself) is allowed, matching
    the separatrix-like level through the cusp.
    """
    a, b, _ = _oval(model, H, lam, oval)
    return a, b


# -- the level-set integral --------------------------------------------------------


def _level_integral(p: np.ndarray, kernel, a: float, b: float, oval: bool) -> float:
    """Integral of kernel(y, x) dy/x over y in (a, b) on the level x^2 = P(y).

    With ``oval`` a and b are simple roots of P, P = (y - a)(b - y) R and
    y = a + (b - a) sin^2(t); otherwise b alone is a turning point,
    P = (b - y) R and y = b - t^2.  Either way dy/x = 2 dt/sqrt(R(y)).
    """
    if oval:
        r_coeffs = -_synthetic_division(_synthetic_division(p, a), b)
        if np.polyval(r_coeffs, 0.5 * (a + b)) <= 0:
            raise OnSigmaError("deflated factor not positive on the oval")
        upper = math.pi / 2.0
    else:
        r_coeffs = -_synthetic_division(p, b)
        upper = math.sqrt(b - a)
    width = b - a

    def integrand(t: float) -> float:
        if oval:
            st, ct = math.sin(t), math.cos(t)
            y = a + width * st * st
            u = width * st * ct
        else:
            y = b - t * t
            u = t
        rv = np.polyval(r_coeffs, y)
        if rv <= 0:
            return 0.0
        sr = math.sqrt(rv)
        return 2.0 * kernel(y, u * sr) / sr

    val, _ = quad(
        integrand, 0.0, upper, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=QUAD_LIMIT
    )
    return val


def _form_kernel(w, lam: float):
    """(w(x, y) + w(-x, y))/2 for a Density or a callable w(x, y, lambda)."""
    w = w.eval if isinstance(w, Density) else w
    return lambda y, x: 0.5 * (w(x, y, lam) + w(-x, y, lam))


def _area_kernel(f: Density, lam: float):
    """x^2 sum_i GLw_i f(x GLnode_i, y): x times the integral of f over [-x, x]."""
    if not isinstance(f, Density):
        raise TypeError("area integrals take a polynomial Density")
    return lambda y, x: x * x * float(np.dot(_GL_WEIGHTS, f.eval(x * _GL_NODES, y, lam)))


# -- passage time -----------------------------------------------------------------


def _arc_ends(p: np.ndarray, sec: np.ndarray) -> tuple[float, float]:
    """Lowest crossing of the sections (roots of sec) and the turning point above it."""
    sec_roots = [_polish(sec, r) for r in _real_roots(sec)]
    if not sec_roots:
        raise StratumError("trajectory does not reach the sections {x = +-x0}")
    y_sec = min(sec_roots)
    clusters = _root_clusters(p)
    for idx, (c, m) in enumerate(clusters):
        if c > y_sec + 1e-12:
            # a multiple turning root, or one about to collide with the next
            # one, is the level of a saddle: the passage diverges there
            gap_ok = idx + 1 >= len(clusters) or clusters[idx + 1][0] - c > 1e-6 * (
                1.0 + abs(c)
            )
            if m != 1 or not gap_ok:
                raise OnSigmaError("passage trajectory degenerates (on Sigma_hyp)")
            return y_sec, c
    raise StratumError("no turning point above the section crossing")


def passage_time(model: FibrationModel, H: float, lam: float = 0.0) -> float:
    """Passage time Pi(H, lambda) of the Gelfand-Leray form from N1 to N2.

    For the one-dof model with f = 1 resp. f = y this equals the basic
    integral J_0(H) resp. J_1(H).
    """
    f = density = model.density
    if model.kind == ONE_DOF:
        if H <= 0:
            raise ValueError("one-dof passage requires H > 0")
        f = density.mirror_y() if isinstance(density, Density) else (
            lambda x, y, l: density(x, -y, l)
        )
        wc, H, lam = np.array([1.0, 0.0, 0.0, 0.0]), -H, 0.0
    elif model.kind == NODE:
        raise ValueError("use asymptotics.node_passage for the node model")
    else:
        wc = model.potential_coeffs(lam)
    sec = _level_poly(wc, H - model.x0**2)
    if model.kind == CUSP_COMPACT:
        a, turn, p = _oval(model, H, lam, "wide")
        inside = [r for r in _real_roots(sec) if a < r < turn]
        if not inside:
            raise StratumError("wide oval does not reach the sections {x = +-x0}")
        y_sec = max(inside)
    else:
        p = _level_poly(wc, H)
        y_sec, turn = _arc_ends(p, sec)
    return _level_integral(p, _form_kernel(f, lam), y_sec, turn, oval=False)


# -- loop period and actions -------------------------------------------------------


def oval_loop_integral(model: FibrationModel, H: float, lam: float, weight, oval: str) -> float:
    """Contour integral of w dy/(2x) over both branches of the given oval."""
    a, b, p = _oval(model, H, lam, oval)
    return _level_integral(p, _form_kernel(weight, lam), a, b, oval=True)


def oval_area_integral(model: FibrationModel, H: float, lam: float, weight, oval: str) -> float:
    """Integral of a Density weight over the closed region bounded by the oval."""
    kernel = _area_kernel(weight, lam)
    a, b, p = _oval(model, H, lam, oval)
    return _level_integral(p, kernel, a, b, oval=True)


def loop_period(model: FibrationModel, H: float, lam: float) -> float:
    """Period Pi_o(H, lambda) of the closed trajectory around the narrow oval.

    Satisfies Pi_o = 2 pi dI_o/dH and diverges logarithmically on the
    hyperbolic branch.
    """
    return oval_loop_integral(model, H, lam, model.density, "narrow")


def loop_action(model: FibrationModel, H: float, lam: float) -> float:
    """I_o(H, lambda) = area of the narrow oval w.r.t. f dx^dy, over 2 pi."""
    return oval_area_integral(model, H, lam, model.density, "narrow") / (2.0 * math.pi)


def wide_action(model: FibrationModel, H: float, lam: float, k: int = 0) -> float:
    """I_mu on the compact model: wide-oval area / 2 pi, plus k * lambda.

    The integer k records the chosen representative of the mu-cycle, which
    is defined only up to mu -> mu + k * gamma.
    """
    if model.kind != CUSP_COMPACT:
        raise StratumError("I_mu lives on the compact model's wide tori")
    return oval_area_integral(model, H, lam, model.density, "wide") / (2.0 * math.pi) + k * lam


def separatrix_action(model: FibrationModel, lam: float) -> float:
    """h(lambda) = max_H I_o(H, lambda), attained on the hyperbolic branch.

    The separatrix loop area is an improper but convergent integral: the
    double root at the saddle makes sqrt(H - W) vanish linearly there.
    """
    if lam >= 0:
        raise ValueError("h(lambda) requires lambda < 0")
    kernel = _area_kernel(model.density, lam)
    # the saddle is a simple (well-conditioned) root of W', unlike the double
    # root it produces in H_hyp - W
    wc = model.potential_coeffs(lam)
    dwc = np.polyder(wc)
    if model.kind == CUSP_LOCAL:
        a = -math.sqrt(-lam / 3.0)
    else:
        saddles = [
            r
            for r in (_polish(dwc, r) for r in _real_roots(dwc))
            if abs(r) < 0.45 and np.polyval(np.polyder(dwc), r) < 0
        ]
        if not saddles:
            raise StratumError(f"no saddle near the cusp at lambda={lam}")
        a = saddles[0]
    p = _level_poly(wc, float(np.polyval(wc, a)))
    # the lobe is about 3|a| wide, so its far end is told from the split
    # double root at the saddle relative to |a|
    uppers = [r for r in _real_roots(p) if r > a + 1e-3 * abs(a)]
    if not uppers:
        raise OnSigmaError("no upper bound for the separatrix lobe")
    b = _polish(p, min(uppers))
    return _level_integral(p, kernel, a, b, oval=False) / (2.0 * math.pi)


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
        def fmt(v) -> str:
            return "" if v is None else f"{v:.12g}"

        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    [
                        f"{r.H:.12g}",
                        f"{r.lam:.12g}",
                        r.stratum,
                        fmt(r.Pi),
                        fmt(r.Pi_circ),
                        fmt(r.I),
                        fmt(r.I_circ),
                        fmt(r.I_mu),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def action_chart(
    model: FibrationModel,
    H_values,
    lam_values,
    mu_shift: int = 0,
    diagram: BifurcationDiagram | None = None,
    stratum_filter: str | None = None,
) -> ActionChart:
    """Assemble the per-point actions; unavailable entries stay empty.

    I = lambda everywhere in the domain (F generates the S^1 action);
    Pi_circ and I_circ exist on the narrow stratum, I_mu on the compact
    model away from Sigma_hyp.
    """
    if diagram is None:
        diagram = bifurcation_diagram(model)
    rows: list[ActionChartRow] = []
    for lam in lam_values:
        for h in H_values:
            stratum = diagram.stratum(h, lam)
            if stratum_filter and stratum != stratum_filter:
                continue
            row = ActionChartRow(h, lam, stratum, None, None, None, None, None)
            if stratum != "outside":
                row.I = lam
                try:
                    row.Pi = passage_time(model, h, lam)
                except (ValueError, OnSigmaError, StratumError):
                    row.Pi = None
                if stratum == "narrow":
                    row.Pi_circ = loop_period(model, h, lam)
                    row.I_circ = loop_action(model, h, lam)
                if model.kind == CUSP_COMPACT:
                    try:
                        row.I_mu = wide_action(model, h, lam, k=mu_shift)
                    except (ValueError, OnSigmaError, StratumError):
                        row.I_mu = None
            rows.append(row)
    return ActionChart(rows=rows, mu_shift=mu_shift)
