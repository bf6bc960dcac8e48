"""Independent brute-force oracles used by the tests.

These deliberately avoid the code paths they check: areas come from a
midpoint indicator grid, hypergeometric values from the Euler integral
representation, the basic period integrals from direct quadrature of
their defining formulas, period lattices from finite differences of the
action chart, the node model's complex period from the trapezoid rule on its
cycle, and the hyperbolic log coefficient from passage times instead of loop
periods.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from cuspinv.asymptotics import extract_log_coeff
from cuspinv.flows import PeriodLattice
from cuspinv.model import CUSP_COMPACT, FibrationModel, bifurcation_diagram
from cuspinv.quadrature import loop_action, oval_bounds, passage_time, wide_action


def grid_area(model: FibrationModel, H: float, lam: float, oval: str = "narrow", n: int = 2400) -> float:
    """Midpoint-grid integral of the density over the oval region."""
    a, b = oval_bounds(model, H, lam, oval)
    wc = model.potential_coeffs(lam)
    p = -np.asarray(wc, dtype=float)
    p[-1] += H
    ys = np.linspace(a, b, 4001)
    x_max = math.sqrt(max(np.polyval(p, ys).max(), 0.0))
    f = model.density.eval

    total = 0.0
    # average two half-cell-offset grids to damp the boundary error
    for offset in (0.0, 0.5):
        xs = -x_max + (np.arange(n) + 0.5 + offset) * (2 * x_max / n)
        yg = a + (np.arange(n) + 0.5 - offset) * ((b - a) / n)
        pv = np.polyval(p, yg)
        cell = (2 * x_max / n) * ((b - a) / n)
        acc = 0.0
        for yi, pvi in zip(yg, pv):
            if pvi <= 0:
                continue
            mask = xs * xs < pvi
            if mask.any():
                acc += float(np.sum(f(xs[mask], yi, lam))) * cell
        total += acc
    return total / 2.0


def euler_2f1(p: float, q: float, r: float, z: float) -> float:
    """Euler integral for 2F1; valid for r > q > 0 and z < 1."""
    if not (r > q > 0 and z < 1):
        raise ValueError("Euler representation needs r > q > 0, z < 1")
    coef = math.gamma(r) / (math.gamma(q) * math.gamma(r - q))

    def integrand(theta: float) -> float:
        s = math.sin(theta)
        c = math.cos(theta)
        return (
            2.0
            * s ** (2.0 * q - 1.0)
            * c ** (2.0 * r - 2.0 * q - 1.0)
            * (1.0 - z * s * s) ** (-p)
        )

    val, _ = quad(integrand, 0.0, math.pi / 2.0, epsabs=1e-14, epsrel=1e-13, limit=300)
    return coef * val


def direct_Jj(H: float, j: int) -> float:
    """(2/3) int_0^1 (H + x^2)^((j-2)/3) dx by direct quadrature."""
    val, _ = quad(
        lambda x: (H + x * x) ** ((j - 2) / 3.0),
        0.0,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=300,
    )
    return 2.0 / 3.0 * val


def onedof_section_area(density, H: float, x0: float = 1.0) -> float:
    """area(H) = integral of f over {0 <= y^3 - x^2 <= H, |x| <= x0}."""
    f = density.eval if hasattr(density, "eval") else density

    def inner(x: float) -> float:
        lo = np.cbrt(x * x)
        hi = np.cbrt(H + x * x)
        val, _ = quad(lambda y: f(x, y, 0.0), lo, hi, epsabs=1e-13, epsrel=1e-12)
        return val

    val, _ = quad(inner, -x0, x0, epsabs=1e-12, epsrel=1e-11, limit=200)
    return val


def _fourth_order_partials(func, h0: float, lam0: float, step: float):
    """(d/dH, d/dlambda) by 5-point central differences of 4th order."""
    stencil = (1.0, -8.0, 8.0, -1.0)
    offsets = (-2.0, -1.0, 1.0, 2.0)
    dh = sum(
        w * func(h0 + o * step, lam0) for w, o in zip(stencil, offsets)
    ) / (12.0 * step)
    dl = sum(
        w * func(h0, lam0 + o * step) for w, o in zip(stencil, offsets)
    ) / (12.0 * step)
    return dh, dl


def _auto_fd_step(model: FibrationModel, lam: float, stratum: str) -> float:
    step = 1e-3
    if lam < 0:
        diagram = bifurcation_diagram(model, domain_radius=math.inf)
        width = diagram.hyperbolic_value(lam) - diagram.elliptic_value(lam)
        if stratum == "narrow":
            step = min(step, width / 12.0)
        step = min(step, abs(lam) / 5.0)
    return step


def fd_period_lattice(
    sm, H: float, lam: float, stratum: str = "narrow", fd_step: float | None = None, k: int = 0
) -> PeriodLattice:
    """Period lattice from a 4th-order stencil on the action chart.

    The step is auto-scaled to the stratum width unless given.
    """
    model = sm.model
    if stratum == "narrow":
        action = lambda h, l: loop_action(model, h, l)  # noqa: E731
    elif stratum == "wide":
        if model.kind != CUSP_COMPACT:
            raise ValueError("wide stratum requires the compact model")
        action = lambda h, l: wide_action(model, h, l, k=k)  # noqa: E731
    else:
        raise ValueError(f"no second action on stratum {stratum!r}")
    if fd_step is None:
        fd_step = _auto_fd_step(model, lam, stratum)
    di_dh, di_dl = _fourth_order_partials(action, H, lam, fd_step)
    if abs(di_dh) < 1e-14:
        raise ValueError("degenerate action Jacobian near the bifurcation diagram")
    basis = np.array(
        [
            [0.0, 2.0 * math.pi],
            [2.0 * math.pi * di_dh, 2.0 * math.pi * di_dl],
        ]
    )
    return PeriodLattice(basis=basis)


def contour_node_complex_period(f, H: float, n_nodes: int = 512) -> complex:
    """Pi_hat(H) = int f dy/y over x = H e^(it), y = e^(-it) by the trapezoid
    rule on the circle (spectrally accurate for a polynomial f)."""
    t = 2.0 * math.pi * np.arange(n_nodes) / n_nodes
    x = H * np.exp(1j * t)
    y = np.exp(-1j * t)
    fv = sum(float(c) * x**m * y**n for (m, n, k), c in f.terms.items() if k == 0)
    return complex(np.sum(fv * -1j) * (2.0 * math.pi / n_nodes))


def passage_log_coeff(
    model: FibrationModel, lam: float, outside: bool = False, s0_frac: float = 0.35, levels: int = 10
) -> float:
    """Log coefficient of the passage time at Sigma_hyp on the halving grid of
    ``hyperbolic_log_coeff``, approached from inside (H = H_hyp - s) or, with
    ``outside``, from outside (H = H_hyp + s) the swallow tail."""
    diagram = bifurcation_diagram(model, domain_radius=math.inf)
    h_hyp = diagram.hyperbolic_value(lam)
    s0 = s0_frac * (h_hyp - diagram.elliptic_value(lam))
    sign = 1.0 if outside else -1.0
    samples = []
    for m in range(levels):
        s = s0 * 2.0**-m
        samples.append((s, passage_time(model, h_hyp + sign * s, lam)))
    alpha, _ = extract_log_coeff(samples, min_points=min(7, levels))
    return alpha
