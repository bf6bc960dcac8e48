"""Independent brute-force oracles used by the tests.

These deliberately avoid the code paths they check: areas come from a
midpoint indicator grid, the basic period integrals from their
hypergeometric closed form (scipy's 2F1) and from direct quadrature of
their defining formulas, period lattices from finite differences of the
action chart, the node model's complex period from the trapezoid rule on its
cycle, the hyperbolic log coefficient from passage times and from a
Richardson table of loop periods (``extract_log_coeff``, the package's
route before the closed form) instead of its closed form at the saddle,
the local model's bifurcation diagram from its closed form, a one-dof pair
(alpha, beta) from a Puiseux fit of passage times instead of exact
reduction, level-set integrals from scipy's scalar adaptive ``quad`` with a
48-node Gauss-Legendre inner rule for areas instead of the batched G10K21
engine, the separatrix area h(lambda) of both cusp models at 30 digits with
mpmath and the saddle's log coefficient at 40, the f = 1 loop period of the
local model as a Carlson integral, the oval and passage jobs one level at a
time from clustered roots, which the batched builders must equal bit for
bit off Sigma, section times from an event-driven backward flow instead of a
level integral, flows by scipy's ``solve_ivp`` DOP853 instead of the
package's own stepper and at 30 digits by mpmath's Taylor method, the
package's DOP853 run with every stage sum a loop over the tableau instead of
its generated straight-line step, against which it must agree bit for bit,
passage times of the cusp models at 40 digits with mpmath between their own
roots of the level and of the sections, and so the form integral around the
compact model's wide oval next to the saddle's level, the matrix of the symplectic form Omega
written out entry by entry, the real roots of one polynomial at a time
from ``np.roots`` with a scalar Newton polish, against which the stacked
root solve must agree bit for bit, the count and place of the real roots of a
level at a rational (H, lambda) by sympy's exact real-root isolation, the
cusp pair of critical points of one
W at a time on that route, with np.polyder and np.polyval per W, against
which the cusp pair, the branch values and W'' of the array-form critical
table (``model._Critical``) must agree bit for bit, the H-field through ``Density.eval`` at every
call, against which the per-lambda fields of the flows must agree bit for
bit, and the polynomial f(x, y) f(-x, y) on a level through ``np.polymul``,
against whose roots those of the section times' must agree bit for bit, and
the exact (alpha, beta) of a whole density rewritten term by term by the
rules R1-R4 instead of summed from per-monomial tables, also on the cusp
models through their pulled-back density, against which the tables must
agree Fraction for Fraction, and the values of a density on a table's
density-free grid from its own jobs, one engine call on f's kernels
(``direct_values``), the route of every request before the grids' sums of
per-monomial values, and the checks of the section times one point at a
time in a Python loop (``scalar_section_checks``), the route before they
were masks on arrays.  It also holds a test system for the transport
map: a model pushed forward along a bump field (``BumpPushforward``), whose
bump flow steps with ``loop_dop853``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.special import elliprf, hyp2f1

from cuspinv.asymptotics import fit_puiseux
from cuspinv.brieskorn import BrieskornPair, _level_chart
from cuspinv.flows import _VANISHES, PeriodLattice, ReducedSystem, SymplecticModel
from cuspinv.model import CUSP_COMPACT, ONE_DOF, Density, FibrationModel, bifurcation_diagram
from cuspinv.model import _solved, cusp_local_model
from cuspinv.quadrature import _VANISHES as _SECTION_VANISHES
from cuspinv.quadrature import LevelJobs, OnSigmaError, StratumError, _level_integrals, area_kernel
from cuspinv.quadrature import _arc_jobs, _bridged, _level_ask, _zero_poly
from cuspinv.quadrature import loop_action, loop_period, oval_bounds, passage_time, wide_action
from cuspinv.series import DEFAULT_ORDER, TruncatedSeries
from cuspinv.specfun import puiseux_constants


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


def local_sigma_values(lam: float) -> tuple[float, float]:
    """(H_ell, H_hyp) of the local model in closed form: H^2 = -(4/27) lambda^3."""
    h = 2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
    return -h, h


def reference_Jj(H: float, j: int) -> float:
    """Closed-form value of J_j(H) = (2/3) int_0^1 (H+x^2)^((j-2)/3) dx, H > 0.

    J_j(H) = (2/3) F(p, 1/2, 3/2; -1/H) H^(-p) with p = (2-j)/3; the z -> 1/z
    connection formula splits it into an analytic part and the fractional
    part C_j * H^((2j-1)/6).
    """
    if H <= 0:
        raise ValueError("reference_Jj requires H > 0")
    if j not in (0, 1):
        raise ValueError("j must be 0 or 1")
    p = (2.0 - j) / 3.0
    q = 0.5
    r = 1.5
    # coefficients of the z -> 1/z connection applied to F(p, q, r; -1/H)
    c1 = math.gamma(r) * math.gamma(q - p) / (math.gamma(r - p) * math.gamma(q))
    c2 = math.gamma(r) * math.gamma(p - q) / (math.gamma(r - q) * math.gamma(p))
    analytic = (2.0 / 3.0) * c1 * hyp2f1(p, (1.0 - 2.0 * j) / 6.0, (7.0 - 2.0 * j) / 6.0, -H)
    fractional = (2.0 / 3.0) * c2 * H ** ((2.0 * j - 1.0) / 6.0)
    return float(analytic + fractional)


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


def extract_log_coeff(samples) -> tuple[float, dict]:
    """Coefficient alpha of value = alpha*ln|s| + beta(s) from at least 7
    halving samples.

    Consecutive differences give -alpha*ln 2 up to O(s); the Richardson table
    with ratio 2 removes the analytic drift order by order.  A diagnostic
    dict reports the table and whether the last corrections still shrink.
    """
    pts = sorted(((float(s), float(v)) for s, v in samples), reverse=True)
    if len(pts) < 7:
        raise ValueError("need at least 7 halving samples")
    s, v = np.array(pts).T
    ratios = s[:-1] / s[1:]
    if np.any(np.abs(ratios - 2.0) > 1e-6):
        raise ValueError("samples must sit on a halving grid s_m = s_0 * 2^-m")
    d = (v[1:] - v[:-1]) / (-math.log(2.0))
    table = [d]
    for level in range(1, len(d)):
        fac = 2.0**level
        table.append((fac * table[-1][1:] - table[-1][:-1]) / (fac - 1.0))
    alpha = float(table[-1][-1])
    # convergence check on the final corrections
    tail = [float(t[-1]) for t in table[-3:]]
    deltas = [abs(tail[i + 1] - tail[i]) for i in range(len(tail) - 1)]
    converging = len(deltas) < 2 or deltas[-1] <= deltas[-2] * 1.5 + 1e-14
    diag = {
        "alpha": alpha,
        "levels": len(table),
        "last_corrections": deltas,
        "converging": bool(converging),
    }
    if not converging:
        diag["warning"] = "Richardson corrections not shrinking; non-log behavior?"
    return alpha, diag


def passage_log_coeff(
    model: FibrationModel, lam: float, outside: bool = False, s0_frac: float = 0.35, levels: int = 10
) -> float:
    """Log coefficient of the passage time at Sigma_hyp on the halving grid of
    ``loop_log_coeff``, approached from inside (H = H_hyp - s) or, with
    ``outside``, from outside (H = H_hyp + s) the swallow tail."""
    diagram = bifurcation_diagram(model, domain_radius=math.inf)
    h_hyp = diagram.hyperbolic_value(lam)
    s0 = s0_frac * (h_hyp - diagram.elliptic_value(lam))
    sign = 1.0 if outside else -1.0
    samples = []
    for m in range(levels):
        s = s0 * 2.0**-m
        samples.append((s, passage_time(model, h_hyp + sign * s, lam)))
    alpha, _ = extract_log_coeff(samples)
    return alpha


def loop_log_coeff(model: FibrationModel, lam: float) -> float:
    """Log coefficient of the loop period at Sigma_hyp by a Richardson table:
    ten loop periods on the halving grid H = H_hyp - s0 2^-m, s0 = 0.35
    (H_hyp - H_ell), through ``extract_log_coeff``; about 1e-4 off the limit,
    from the s^k ln s terms a ratio-2 power table does not remove."""
    h_ell, h_hyp = bifurcation_diagram(model, domain_radius=math.inf).branch_values(lam)
    steps = [0.35 * (h_hyp - h_ell) * 2.0**-m for m in range(10)]
    alpha, _ = extract_log_coeff([(s, loop_period(model, h_hyp - s, lam)) for s in steps])
    return alpha


def triple_pair(triple) -> BrieskornPair:
    """(alpha, beta) = (a / C0, b / C1) of a fitted Puiseux triple."""
    c = puiseux_constants()
    return BrieskornPair(triple.a / c["C0"], triple.b / c["C1"])


def compact_fitted_pair(model: FibrationModel) -> BrieskornPair:
    """(alpha, beta) of a compact model from a fit at order (4, 4, 5) of 40
    passages at lambda = 0 on H = -geomspace(1e-10, 0.02)."""
    grid = np.geomspace(1e-10, 0.02, 40)
    samples = [(hp, passage_time(model, -hp, 0.0)) for hp in grid]
    triple, _ = fit_puiseux(samples, order=(4, 4, 5), relative_weights=True)
    return triple_pair(triple)


def rewrite_reduce(f: Density) -> BrieskornPair:
    """(alpha, beta) of f at lambda = 0 by rewriting the whole density with
    R1-R4 on a work list of x^a y^b H^h terms, each series through the top
    power of H reached and at least DEFAULT_ORDER."""
    work = [(a, b, 0, Fraction(c)) for (a, b, k), c in f.terms.items() if k == 0]
    pair: tuple[dict, dict] = ({}, {})
    while work:
        a, b, h, c = work.pop()
        if a >= 2:  # R1: x^2 = y^3 - H
            work += [(a - 2, b + 3, h, c), (a - 2, b, h + 1, -c)]
        elif b >= 3 and a == 0:  # R4: y^b == 2(b-2)/(2b-1) H y^(b-3)
            work.append((0, b - 3, h + 1, c * Fraction(2 * (b - 2), 2 * b - 1)))
        elif a == 0 and b < 2:  # onto the basis 1, y; R2 and R3 drop x y^b and y^2
            pair[b][h] = pair[b].get(h, Fraction(0)) + c

    def series(table: dict) -> TruncatedSeries:
        top = max([DEFAULT_ORDER, *table])
        return TruncatedSeries([table.get(i, Fraction(0)) for i in range(top + 1)])

    return BrieskornPair(*map(series, pair))


def pulled_pair(model: FibrationModel) -> BrieskornPair:
    """(alpha, beta) through H^K of a cusp model at lambda = 0 from the whole
    pulled-back density x^a y(u)^j y'(u) of f(x, -y), its terms of weight
    3a + 2b <= 6K + 2 kept, rewritten by ``rewrite_reduce``."""
    y, dy = _level_chart(model.kind)
    f = model.density.restrict_lambda0().mirror_y()
    powers = [dy]
    while len(powers) <= max((j for _, j, _ in f.terms), default=0):
        powers.append(powers[-1] * y)
    pulled = Density(
        (Fraction(c) * cb, (a, b, 0))
        for (a, j, _), c in f.terms.items()
        for b, cb in enumerate(powers[j].coeffs)
        if 3 * a + 2 * b <= 6 * DEFAULT_ORDER + 2
    )
    pair = rewrite_reduce(pulled)
    return BrieskornPair(pair.alpha.truncated(DEFAULT_ORDER), pair.beta.truncated(DEFAULT_ORDER))


QUAD_EPSABS, QUAD_EPSREL, QUAD_LIMIT = 1e-13, 1e-12, 400
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(48)


def quad_level_integral(p: np.ndarray, kernel, a: float, b: float, oval: bool) -> float:
    """Integral of kernel(y, x) dy/x over y in (a, b) on the level x^2 = P(y),
    by scipy's scalar adaptive quad.

    With ``oval`` a and b are simple roots of P, P = (y - a)(b - y) R and
    y = a + (b - a) sin^2(t); otherwise b alone is a turning point,
    P = (b - y) R and y = b - t^2.  Either way dy/x = 2 dt/sqrt(R(y)).
    """
    if oval:
        r_coeffs = -scalar_division(scalar_division(p, a), b)
        if np.polyval(r_coeffs, 0.5 * (a + b)) <= 0:
            raise ValueError("deflated factor not positive on the oval")
        upper = math.pi / 2.0
    else:
        r_coeffs = -scalar_division(p, b)
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


def quad_form_kernel(w, lam: float):
    """(w(x, y) + w(-x, y))/2 at lambda, as a scalar kernel(y, x)."""
    return lambda y, x: 0.5 * (w(x, y, lam) + w(-x, y, lam))


def quad_area_kernel(f, lam: float):
    """x^2 sum_i GLw_i f(x GLnode_i, y): x times the 48-node Gauss-Legendre
    integral of f over [-x, x], as a scalar kernel(y, x)."""
    return lambda y, x: x * x * float(np.dot(_GL_WEIGHTS, f.eval(x * _GL_NODES, y, lam)))


def _mp_saddle(kind: str, lam: float):
    """(W's coefficients, highest first, and its saddle a near y = 0) at
    lambda in mpmath: a polished by ``findroot`` from the float root of W'
    with W'' < 0 nearest 0."""
    w = [mpmath.mpf(c) for c in FibrationModel(kind).potential_coeffs(lam)]  # exact in binary
    dw = np.polyder(np.array(w, dtype=float))
    maxima = [r.real for r in np.roots(dw) if abs(r.imag) < 1e-12 and np.polyval(np.polyder(dw), r.real) < 0]
    guess = min(maxima, key=abs)
    dw_m = [c * (len(w) - 1 - i) for i, c in enumerate(w[:-1])]
    return w, mpmath.findroot(lambda y: mpmath.polyval(dw_m, y), mpmath.mpf(guess))


def mp_separatrix_action(density, lam: float, dps: int = 30, kind: str = "cusp_local") -> float:
    """h(lambda) of a cusp model (H = x^2 + y^3 + lambda y by default) at
    ``dps`` digits.

    The saddle a comes from ``_mp_saddle``, the level H_s = W(a), and the far
    end b of the lobe {x^2 <= H_s - W} is the least real root above a of
    (H_s - W)/(y - a)^2 (-2a on the local model); the area of f over the lobe
    is the y-integral of the exact x-integral of the polynomial f, by
    mpmath's tanh-sinh rule.
    """
    with mpmath.workdps(dps):
        lam_m = mpmath.mpf(lam)
        w, ys = _mp_saddle(kind, lam)
        hs = mpmath.polyval(w, ys)
        q = [-c for c in w]
        q[-1] += hs
        for _ in range(2):  # deflate the double root at the saddle
            q = [sum(q[j] * ys ** (i - j) for j in range(i + 1)) for i in range(len(q) - 1)]
        real = [r.real for r in mpmath.polyroots(q) if abs(mpmath.im(r)) < mpmath.mpf(10) ** (5 - dps)]
        b = min(r for r in real if r > ys)

        def strip(y):
            x = mpmath.sqrt(max(hs - mpmath.polyval(w, y), 0))
            return sum(
                mpmath.mpf(c) * y**j * lam_m**k * (x ** (i + 1) - (-x) ** (i + 1)) / (i + 1)
                for (i, j, k), c in density.terms.items()
            )

        return float(mpmath.quad(strip, [ys, b]) / (2 * mpmath.pi))


def mp_log_coeff(density, lam: float, dps: int = 40, kind: str = "cusp_local") -> float:
    """alpha(lambda) = -f(0, a, lambda) / sqrt(2 |W''(a)|) at the saddle a, at ``dps`` digits."""
    with mpmath.workdps(dps):
        w, a = _mp_saddle(kind, lam)
        d2w = mpmath.diff(lambda y: mpmath.polyval(w, y), a, 2)
        terms = [(j, k, c) for (i, j, k), c in density.terms.items() if i == 0]
        f0 = sum(mpmath.mpf(c) * a**j * mpmath.mpf(lam) ** k for j, k, c in terms)
        return float(-f0 / mpmath.sqrt(2 * abs(d2w)))


def ode_section_time(rs, xy, lam: float, x0: float | None = None, t_max: float = 200.0) -> float:
    """Smallest t > 0 with the backward reduced flow of xy on {x = x0}, as the
    first zero of x - x0 on a DOP853 flow from xy to -t_max at 1e-13."""
    x0 = rs.sm.model.x0 if x0 is None else x0
    rhs = unfused_field(rs.sm, lam, 2)

    def hit(_t, state):
        return state[0] - x0

    hit.terminal = True
    sol = solve_ivp(
        lambda t, state: rhs(t, state.tolist()), (0.0, -t_max), np.asarray(xy, dtype=float),
        method="DOP853", rtol=1e-13, atol=1e-13, events=hit,
    )
    if not sol.success or not sol.t_events[0].size:
        raise ValueError("trajectory does not reach the section")
    return -float(sol.t_events[0][0])


def scipy_flow(rhs, y0, t: float) -> np.ndarray:
    """The state at time t of y' = rhs(t, y), y(0) = y0, for a right-hand side
    on lists, by scipy's ``solve_ivp`` DOP853 at 1e-13."""
    sol = solve_ivp(
        lambda s, state: rhs(s, state.tolist()), (0.0, t), np.asarray(y0, dtype=float),
        method="DOP853", rtol=1e-13, atol=1e-13,
    )
    assert sol.success, sol.message
    return sol.y[:, -1]


def _loop_dot(pairs, k) -> float:
    """The sum of w k[j] over the (j, w) pairs, left to right from 0.0."""
    acc = 0.0
    for j, w in pairs:
        acc = acc + w * k[j]
    return acc


def _loop_rms(v, scale) -> float:
    """The root mean square of v / scale, its squares summed left to right."""
    r = [a / s for a, s in zip(v, scale)]
    return math.sqrt(_loop_dot(enumerate(r), r) / len(r))


def loop_dop853(rhs, y0, times) -> tuple[list, int]:
    """(states, rejected): ``flows._solve``'s DOP853 run with every stage sum a
    Python loop over the tableau's (stage, weight) pairs, one list of stages
    per component, and the number of rejected steps.  The same arithmetic in
    the same order, so the generated straight-line step must agree bit for
    bit, with as many right-hand-side calls."""
    from cuspinv.flows import ERROR_EXPONENT, FLOW_ATOL, FLOW_RTOL, MAX_FACTOR, MIN_FACTOR
    from cuspinv.flows import SAFETY, _TABLEAU

    times = [float(v) for v in times]
    c, (*a, b, e5, e3) = _TABLEAU
    t_end, t, y, h_abs, out, rejections = max(times, key=abs), 0.0, [float(v) for v in y0], None, {}, 0
    for t_stop in sorted(set(times), key=abs):
        while t != t_stop:
            f = rhs(t, y)
            if h_abs is None:
                scale = [FLOW_ATOL + abs(v) * FLOW_RTOL for v in y]
                d0, d1 = _loop_rms(y, scale), _loop_rms(f, scale)
                if not math.isfinite(d1):
                    raise RuntimeError("flow integration failed: the field is not finite at t = 0")
                h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_end))
                h = math.copysign(h0, t_end)
                f1 = rhs(h, [v + h * u for v, u in zip(y, f)])
                d = max(d1, _loop_rms([u - v for u, v in zip(f1, f)], scale) / h0)
                h1 = max(1e-6, h0 * 1e-3) if d <= 1e-15 else (0.01 / d) ** -ERROR_EXPONENT
                h_abs = min(100.0 * h0, h1, abs(t_end))
            min_step, rejected = 10.0 * math.ulp(t), False
            h_abs = max(h_abs, min_step)
            while True:
                if not h_abs >= min_step:
                    raise RuntimeError(f"flow integration failed: step under 10 ulp(t), t = {t!r}")
                t_new = t + math.copysign(h_abs, t_end)
                cut = abs(t_new) > abs(t_stop)
                t_new = t_stop if cut else t_new
                h, k = t_new - t, [[v] for v in f]
                for c_s, row in zip(c[1:], a[1:]):
                    stage = rhs(t + c_s * h, [yc + _loop_dot(row, kc) * h for yc, kc in zip(y, k)])
                    for kc, v in zip(k, stage):
                        kc.append(v)
                y_new = [yc + h * _loop_dot(b, kc) for yc, kc in zip(y, k)]
                scale = [FLOW_ATOL + max(abs(u), abs(v)) * FLOW_RTOL for u, v in zip(y, y_new)]
                r5, r3 = (_loop_rms([_loop_dot(e, kc) for kc in k], scale) for e in (e5, e3))
                err = abs(h) * r5 * r5 / math.sqrt(r5 * r5 + 0.01 * r3 * r3) if r5 or r3 else 0.0
                if err < 1.0:
                    break
                h_abs, rejected = abs(h) * max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT), True
                rejections += 1
            factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
            if not cut:
                h_abs = abs(h) * (min(1.0, factor) if rejected else factor)
            t, y = t_new, y_new
        out[t_stop] = y
    return [out[v] for v in times], rejections


class BumpPushforward:
    """System obtained by pushing a SymplecticModel forward along a bump field.

    The diffeomorphism is the time-1 map psi0 of Z = rho(x) X_H (reduced),
    which preserves every fiber and fixes a neighborhood of the sections
    {x = +-x0}: the bump vanishes for |x| >= x0/2.  Its flow is the conjugated one,
    sigma~^t = psi0 o sigma^t o psi0^-1, and its density is the pushforward
    f~ = (f / det Dpsi0) o psi0^-1 with the determinant integrated along the
    bump flow (d/dt log det = div Z), stepped by ``loop_dop853``.  A test
    system for ``transport_map`` and ``pullback_residual``: it follows their
    reduced-system protocol.
    """

    def __init__(self, sm: SymplecticModel, amplitude: float = 0.15):
        self.sm = sm
        self.base = ReducedSystem(sm)
        self.amplitude = amplitude
        self.support = 0.5 * sm.model.x0
        self._f_x = sm.model.density.diff(0)
        self._f_y = sm.model.density.diff(1)
        self._preimages: dict = {}

    def _bump(self, x: float) -> tuple[float, float]:
        """rho(x) and rho'(x)."""
        u = x / self.support
        if abs(u) >= 1.0:
            return 0.0, 0.0
        w = 1.0 - u * u
        rho = self.amplitude * math.exp(-1.0 / w)
        return rho, rho * (-2.0 * u / (w * w)) / self.support

    def _z_rhs(self, lam: float):
        """Z = rho v, with d/dt log det Dpsi0 = div Z as a third component."""
        polys = (self.sm._f, self.sm._H_x, self.sm._H_y, self._f_x, self._f_y)

        def rhs(_t, state):
            x, y, _ = state
            fv, hx, hy, fx, fy = (p.eval(x, y, lam) for p in polys)
            if fv == 0.0:
                raise ValueError(_VANISHES)
            vx, vy = -hy / fv, hx / fv
            rho, rho_prime = self._bump(x)
            # div(rho v) = rho' vx + rho div v, div v = -(v . grad f) / f
            div_v = -(vx * fx + vy * fy) / fv
            return [rho * vx, rho * vy, rho_prime * vx + rho * div_v]

        return rhs

    def bump_map(self, xy, lam: float, inverse: bool = False):
        """psi0 (or its inverse) with log det Dpsi0 integrated alongside."""
        t = -1.0 if inverse else 1.0
        ((x, y, log_det),), _ = loop_dop853(self._z_rhs(lam), (xy[0], xy[1], 0.0), [t])
        return np.array([x, y]), math.exp(log_det)

    def _preimage(self, xy, lam: float):
        """bump_map(xy, lam, inverse=True), kept for the last section_time batch:
        a transported point asks for it there and again in reduced_flow."""
        hit = self._preimages.get((float(xy[0]), float(xy[1]), float(lam)))
        return self.bump_map(xy, lam, inverse=True) if hit is None else hit

    def density_eval(self, x, y, lam):
        pre, det_along = self._preimage((x, y), lam)
        # det Dpsi0 at the preimage equals 1/det of the inverse map here
        return self.sm._f.eval(pre[0], pre[1], lam) / (1.0 / det_along)

    def reduced_flow(self, xy, lam: float, t: float) -> np.ndarray:
        pre, _ = self._preimage(xy, lam)
        moved = self.base.reduced_flow(pre, lam, t)
        img, _ = self.bump_map(moved, lam, inverse=False)
        return img

    def reduced(self) -> "BumpPushforward":
        return self

    def hamiltonian_value(self, point) -> float:
        # psi0 preserves every fiber, so the pushed system has the same H
        return self.sm.hamiltonian_value(point)

    def section_time(self, xy, lam):
        # psi0 is the identity near the section, so the conjugated backward
        # trajectory hits {x = x0} exactly when the base one from psi0^-1 does
        xy = np.asarray(xy, dtype=float)
        columns = np.broadcast_arrays(xy[..., 0], xy[..., 1], lam)
        points = list(zip(*(c.ravel().tolist() for c in columns)))
        self._preimages = {p: self._preimage(p[:2], p[2]) for p in points}
        pre = np.array([self._preimages[p][0] for p in points])
        return self.base.section_time(pre.reshape(xy.shape), lam)


def _mp_density(density, x, y, lam):
    """The density at mpmath arguments, term by term from its exact coefficients."""
    total = mpmath.mpf(0)
    for (i, j, k), c in density.terms.items():
        c = mpmath.mpf(c.numerator) / c.denominator if isinstance(c, Fraction) else mpmath.mpf(c)
        total += c * x**i * y**j * lam**k
    return total


def mp_flow(sm, point, t: float, reduced: bool = False, dps: int = 30) -> list[float]:
    """The H-flow of the point (x, y, lambda, phi) by time t, or with ``reduced``
    the reduced flow of its (x, y) at its lambda, at ``dps`` digits: mpmath's
    Taylor ``odefun`` on the field written term by term in mpmath, backward in
    time as the forward flow of the negated field.  Returns floats."""
    model = sm.model
    h, f = model.hamiltonian(), model.density
    h_x, h_y, h_l, x_l = h.diff(0), h.diff(1), h.diff(2), f.antiderivative_x().diff(2)
    sign = 1 if t >= 0 else -1
    with mpmath.workdps(dps):
        lam = mpmath.mpf(point[2])

        def field(_s, state):
            x, y = state[0], state[1]
            fv = _mp_density(f, x, y, lam)
            vx, vy = -_mp_density(h_y, x, y, lam) / fv, _mp_density(h_x, x, y, lam) / fv
            if reduced:
                return [sign * vx, sign * vy]
            v_phi = _mp_density(h_l, x, y, lam) - _mp_density(x_l, x, y, lam) * vy
            return [sign * vx, sign * vy, sign * v_phi]

        start = [mpmath.mpf(v) for v in (point[:2] if reduced else (*point[:2], point[3]))]
        end = [float(v) for v in mpmath.odefun(field, 0, start)(abs(mpmath.mpf(t)))]
    return end if reduced else [end[0], end[1], float(point[2]), end[2]]


def carlson_loop_period(H: float, lam: float) -> float:
    """Loop period of the local model with f = 1: 2 R_F(0, e2 - e1, e3 - e1)
    for the roots e1 < e2 < e3 of H - y^3 - lambda y, found at 40 digits by
    mpmath (Carlson, Numer. Algorithms 10 (1995), arXiv:math/9409227)."""
    with mpmath.workdps(40):
        coeffs = [-1, 0, -mpmath.mpf(lam), mpmath.mpf(H)]
        e1, e2, e3 = sorted(r.real for r in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200))
        return 2.0 * float(elliprf(0.0, float(e2 - e1), float(e3 - e1)))


def mp_passage_ends(model: FibrationModel, H: float, lam: float, dps: int = 40):
    """(P, y_sec, turn) of the passage arc of a cusp model off Sigma at ``dps``
    digits: P = H - W(y) as mpmath coefficients, highest first; turn is the
    lowest root of P on the local model and the second lowest on the compact
    one, the upper end of the arc coming up from -inf resp. from the deep
    well's root; y_sec is the highest root of P = x0^2 below turn, above the
    root of P below turn.  Roots by mpmath's polyroots."""
    with mpmath.workdps(dps):
        p = [-mpmath.mpf(float(c)) for c in model.potential_coeffs(lam)]
        p[-1] += mpmath.mpf(H)
        sec = p[:-1] + [p[-1] - mpmath.mpf(model.x0) ** 2]

        def real_roots(c):
            roots = mpmath.polyroots(c, maxsteps=200, extraprec=200)
            return sorted(r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** (-dps // 2))

        roots = real_roots(p)
        k = 1 if model.kind == CUSP_COMPACT else 0
        turn, floor = roots[k], roots[k - 1] if k else -mpmath.inf
        y_sec = max(r for r in real_roots(sec) if floor < r < turn)
        return p, y_sec, turn


def mp_passage_time(model: FibrationModel, H: float, lam: float, dps: int = 40) -> float:
    """Passage time from N1 to N2 of a cusp model at ``dps`` digits: the
    integral of (f(x, y) + f(-x, y)) / (2x) dy over [y_sec, turn] on
    x^2 = P(y), with P = (turn - y) R deflated at mpmath precision and
    y = turn - t^2, so that dy / x = -2 dt / sqrt(R); tanh-sinh in t."""
    p, y_sec, turn = mp_passage_ends(model, H, lam, dps)
    with mpmath.workdps(dps):
        r, acc = [], mpmath.mpf(0)
        for c in p[:-1]:  # R = P / (turn - y)
            acc = acc * turn + c
            r.append(-acc)
        lam_m = mpmath.mpf(lam)

        def f(x, y):
            terms = model.density.terms.items()
            return sum(mpmath.mpf(c) * x**i * y**j * lam_m**k for (i, j, k), c in terms)

        def integrand(t):
            y = turn - t * t
            sr = mpmath.sqrt(mpmath.polyval(r, y))
            return (f(t * sr, y) + f(-t * sr, y)) / sr

        return float(mpmath.quad(integrand, [0, mpmath.sqrt(turn - y_sec)]))


def mp_wide_form(model: FibrationModel, H: float, lam: float, dps: int = 40) -> float:
    """The form kernel's integral around the compact model's wide oval at
    ``dps`` digits: (f(x, y) + f(-x, y)) / (2x) dy over its ends a < b, the
    lowest two roots of P = H - W by mpmath's polyroots, with P = (y - a)(b - y) R
    deflated at mpmath precision and y = a + (b - a) sin^2 t, so that
    dy / x = 2 dt / sqrt(R); tanh-sinh in t, split where y passes a critical
    point of W, at whose saddle the integrand peaks."""
    with mpmath.workdps(dps):
        p = [-mpmath.mpf(float(c)) for c in model.potential_coeffs(lam)]
        p[-1] += mpmath.mpf(H)

        def real_roots(c):
            roots = mpmath.polyroots(c, maxsteps=200, extraprec=200)
            return sorted(r.real for r in roots if abs(r.imag) < mpmath.mpf(10) ** (-dps // 2))

        a, b = real_roots(p)[:2]
        r = p
        for root in (a, b):  # P / ((y - a)(y - b)) = -R
            acc, quotient = mpmath.mpf(0), []
            for c in r[:-1]:
                acc = acc * root + c
                quotient.append(acc)
            r = quotient
        r = [-c for c in r]
        dp = [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]
        cuts = [mpmath.asin(mpmath.sqrt((c - a) / (b - a))) for c in real_roots(dp) if a < c < b]
        lam_m = mpmath.mpf(lam)

        def f(x, y):
            terms = model.density.terms.items()
            return sum(mpmath.mpf(c) * x**i * y**j * lam_m**k for (i, j, k), c in terms)

        def integrand(t):
            st, ct = mpmath.sin(t), mpmath.cos(t)
            y = a + (b - a) * st * st
            sr = mpmath.sqrt(mpmath.polyval(r, y))
            x = (b - a) * st * ct * sr
            return (f(x, y) + f(-x, y)) / sr

        return float(mpmath.quad(integrand, [0, *cuts, mpmath.pi / 2]))


def omega_matrix(density, point) -> np.ndarray:
    """Matrix of Omega = f dx^dy + X_lambda dlambda^dy + dlambda^dphi on
    (dx, dy, dlambda, dphi) at the point, X the x-antiderivative of the
    density vanishing at x = 0, written out entry by entry."""
    x, y, lam = point[0], point[1], point[2]
    fv = density.eval(x, y, lam)
    xl = density.antiderivative_x().diff(2).eval(x, y, lam)
    return np.array(
        [
            [0.0, fv, 0.0, 0.0],
            [-fv, 0.0, -xl, 0.0],
            [0.0, xl, 0.0, 1.0],
            [0.0, 0.0, -1.0, 0.0],
        ]
    )


def reference_real_roots(coeffs) -> list[float]:
    """The sorted real roots of one polynomial (highest coefficient first) by
    ``np.roots``: imaginary part within 1e-8 (1 + the largest |real| or
    |imaginary| part among its roots)."""
    roots = np.roots(np.asarray(coeffs, dtype=float))
    scale = 1.0 + max(abs(roots.real).max(initial=0.0), abs(roots.imag).max(initial=0.0))
    return sorted(roots.real[abs(roots.imag) <= 1e-8 * scale].tolist())


def reference_polish(coeffs, r: float) -> float:
    """Three Newton steps on one root with Python floats, P and P' by Horner's
    rule; stops where P' = 0."""
    c = np.asarray(coeffs, dtype=float).tolist()
    d = [v * (len(c) - 1 - i) for i, v in enumerate(c[:-1])]
    for _ in range(3):
        fv = dv = 0.0
        for v in c:
            fv = fv * r + v
        for v in d:
            dv = dv * r + v
        if dv == 0:
            break
        r = r - fv / dv
    return r


def exact_level(kind: str, H: float, lam: float) -> tuple[list[int], int] | None:
    """(per real root of P = H - W, ascending, its interval: the number of
    real critical points of W below it; the number of real critical points)
    at (H, lambda) read as exact rationals, from sympy's real-root isolation
    in rational arithmetic: ``Poly.count_roots`` of P and W', and
    ``intervals`` of both at once, whose isolating intervals separate the
    roots of the two.  None where P and W' share a root: H on Sigma exactly."""
    import sympy

    y = sympy.Symbol("y")
    H, lam = (sympy.Rational(*Fraction(v).as_integer_ratio()) for v in (H, lam))
    w = {"cusp_local": y**3 + lam * y, "cusp_compact": y**4 + y**3 + lam * y}[kind]
    p, dw = sympy.Poly(H - w, y), sympy.Poly(sympy.diff(w, y), y)
    isolated = [owners for _, owners in sympy.intervals([p, dw])]
    if any(len(owners) == 2 for owners in isolated):
        return None
    # each root as often as its multiplicity (the double root of W' at lambda = 0)
    below, intervals = 0, []
    for owners in isolated:
        intervals += [below] * owners.get(0, 0)
        below += owners.get(1, 0)
    assert [sum(i in o for o in isolated) for i in (0, 1)] == [p.count_roots(), dw.count_roots()]
    return intervals, below


def cusp_pair(wc) -> tuple[float | None, float | None]:
    """(y_ell, y_hyp) of one W (coefficients highest first, at a lambda < 0):
    the two real roots of W' nearest y = 0, ordered by |y| before the polish
    and polished, labelled by the sign of W'' there (the minimum elliptic,
    the saddle hyperbolic), None for a branch absent: the per-lambda
    reference of ``model._Critical.cusp_pair``."""
    dw = np.polyder(np.asarray(wc, dtype=float))
    d2w = np.polyder(dw)
    pair = [reference_polish(dw, r) for r in sorted(reference_real_roots(dw), key=abs)[:2]]
    y_ell = next((y for y in pair if np.polyval(d2w, y) > 0), None)
    y_hyp = next((y for y in pair if np.polyval(d2w, y) < 0), None)
    return y_ell, y_hyp


def unfused_field(sm, lam: float, n: int):
    """rhs(t, state) -> list: the reduced field (n = 2) or the H-field (n = 4)
    of a SymplecticModel at lambda, each polynomial read by ``Density.eval``,
    the field not written into a step."""
    polys = (sm._f, sm._H_x, sm._H_y, sm._H_lam, sm._X_lam)[: n + 1]

    def rhs(_t, state):
        fv, hx, hy, *lam_parts = (p.eval(state[0], state[1], lam) for p in polys)
        if fv == 0.0:
            raise ValueError("degenerate Omega: density vanishes at the point")
        vx, vy = -hy / fv, hx / fv
        return [vx, vy, 0.0, lam_parts[0] - lam_parts[1] * vy] if n == 4 else [vx, vy]

    return rhs


def reference_plane_field(sm, x, y, lam):
    """(-H_y / f, H_x / f, f) at one point, each polynomial through
    ``Density.eval``; ValueError where f = 0."""
    h = sm.model.hamiltonian()
    fv = sm.model.density.eval(x, y, lam)
    if fv == 0.0:
        raise ValueError("degenerate Omega: density vanishes at the point")
    return -h.diff(1).eval(x, y, lam) / fv, h.diff(0).eval(x, y, lam) / fv, fv


def reference_hamiltonian_field(sm, point) -> np.ndarray:
    """The H-field (v_x, v_y, 0, H_lambda - X_lambda v_y) at one point through
    ``Density.eval``, X the x-antiderivative of the density."""
    x, y, lam = point[0], point[1], point[2]
    vx, vy, _ = reference_plane_field(sm, x, y, lam)
    gl = sm.model.hamiltonian().diff(2).eval(x, y, lam)
    xl = sm.model.density.antiderivative_x().diff(2).eval(x, y, lam)
    return np.array([vx, vy, 0.0, gl - xl * vy])


# -- level jobs one level at a time ---------------------------------------------


class ScalarLevel(NamedTuple):
    """One level H of a cusp model at lambda: P = H - W, its real roots
    (ascending), their clusters and, given x0, the real roots of
    H - x0^2 - W."""

    kind: str
    H: float
    lam: float
    p: np.ndarray
    roots: list[float]
    clusters: list[tuple[float, int]]
    section: list[float] | None


def _polished_roots(p) -> list[float]:
    return [reference_polish(p, r) for r in reference_real_roots(p)]


def scalar_clusters(roots: list[float]) -> list[tuple[float, int]]:
    """(center, multiplicity) of the sorted roots, within 1e-8 max(1, max |root|) of a center."""
    tol = 1e-8 * max([1.0, *map(abs, roots)])
    out: list[tuple[float, int]] = []
    for r in sorted(roots):
        if out and abs(r - out[-1][0]) <= tol:
            c, m = out[-1]
            out[-1] = ((c * m + r) / (m + 1), m + 1)
        else:
            out.append((r, 1))
    return out


def scalar_level(model: FibrationModel, H: float, lam: float, x0: float | None = None) -> ScalarLevel:
    """The level at (H, lambda), its roots on the ``np.roots`` route with a
    scalar polish, and its sections {x = +-x0} where x0 is given."""
    minus_w = -model.potential_coeffs(lam)
    p = np.append(minus_w[:-1], minus_w[-1] + H)
    section = None
    if x0 is not None:
        section = _polished_roots(np.append(minus_w[:-1], minus_w[-1] + (H - x0**2)))
    roots = sorted(_polished_roots(p))
    return ScalarLevel(model.kind, H, lam, p, roots, scalar_clusters(roots), section)


def scalar_division(coeffs, root: float) -> np.ndarray:
    """coeffs / (y - root), highest first, remainder discarded, by a Python loop."""
    out = np.empty(len(coeffs) - 1)
    acc = 0.0
    for i, c in enumerate(coeffs[:-1]):
        acc = acc * root + c
        out[i] = acc
    return out


def scalar_oval_ends(level: ScalarLevel, oval: str) -> tuple[float, float]:
    """(a, b): the ends of the requested oval of the level."""
    p, clusters, H, lam = level.p, level.clusters, level.H, level.lam
    if oval == "narrow":
        if len(clusters) != len(p) - 1 or any(m != 1 for _, m in clusters):
            raise OnSigmaError(f"no narrow oval at (H, lambda) = ({H}, {lam}): degenerate level")
        return clusters[-2][0], clusters[-1][0]
    if oval == "wide":
        if level.kind != CUSP_COMPACT:
            raise ValueError("wide ovals exist for the compact model only")
        if len(clusters) < 2:
            raise StratumError(f"no wide oval at (H, lambda) = ({H}, {lam})")
        (a, ma), (b, mb) = clusters[0], clusters[1]
        if ma != 1 or mb % 2 == 0:
            raise OnSigmaError(f"wide oval degenerates at (H, lambda) = ({H}, {lam})")
        if np.polyval(p, 0.5 * (a + b)) <= 0:
            raise StratumError(f"empty wide oval at (H, lambda) = ({H}, {lam})")
        return a, b
    raise ValueError(f"unknown oval {oval!r}")


def _one_job(kernel, level: ScalarLevel, sub: str, a, b, r, upper) -> LevelJobs:
    """A batch of one job over t in [0, upper]."""
    ends = (np.array([v], dtype=float) for v in (level.lam, a, b))
    return LevelJobs(kernel, sub, *ends, np.zeros(1), np.array([upper]), np.array([r]), [None])


def scalar_oval_job(kernel, level: ScalarLevel, oval: str) -> LevelJobs:
    a, b = scalar_oval_ends(level, oval)
    r = -scalar_division(scalar_division(level.p, a), b)
    if np.polyval(r, 0.5 * (a + b)) <= 0:
        raise OnSigmaError("deflated factor not positive on the oval")
    return _one_job(kernel, level, "oval", a, b, r, math.pi / 2.0)


_UNREACHED = "trajectory does not reach the section"


def scalar_arc(level: ScalarLevel, y: float, through: bool = True):
    """(y_sec, turn): the passage arc of the level from height y up, P's sign
    between roots read off the parity of their multiplicities from -inf up."""
    clusters, p = level.clusters, level.p
    near = y - 1e-12 * (1.0 + abs(y))
    positive = (p[0] > 0) == (len(p) % 2 == 1)
    for i, (turn, m) in enumerate(clusters):
        if m % 2 and positive and turn > near:
            break
        positive ^= m % 2 == 1
    else:
        raise StratumError(_UNREACHED)
    floor, floor_m = clusters[i - 1] if i else (-math.inf, 1)
    gap = clusters[i + 1][0] - turn if i + 1 < len(clusters) else math.inf
    if through and (m != 1 or floor_m != 1 or gap <= 1e-6 * (1.0 + abs(turn))):
        raise OnSigmaError("passage trajectory degenerates (on Sigma_hyp)")
    if level.section is None:
        return None, turn
    crossings = [r for r in level.section if floor < r < turn]
    if not crossings:
        raise StratumError(_UNREACHED)
    return max(crossings), turn


def scalar_passage_job(kernel, level: ScalarLevel) -> LevelJobs:
    """The passage from N1 to N2 along a level with its sections."""
    y_sec, turn = scalar_arc(level, -math.inf)
    r = -scalar_division(level.p, turn)
    return _one_job(kernel, level, "arc", y_sec, turn, r, math.sqrt(turn - y_sec))


def polymul_zero_poly(f, p: np.ndarray, lam: float) -> np.ndarray:
    """f(x, y) f(-x, y) on the level x^2 = P(y) as E^2 - P O^2 (E where O = 0),
    f = E + x O, built with ``np.polymul``, ``polyadd`` and ``polysub``, which
    trim leading zeros through ``poly1d``."""
    parts = [np.zeros(1), np.zeros(1)]
    for (i, j, k), c in f.terms.items():
        term = np.concatenate(([float(c) * lam**k], np.zeros(j)))
        for _ in range(i // 2):
            term = np.polymul(term, p)
        parts[i % 2] = np.polyadd(parts[i % 2], term)
    even, odd = parts
    if odd.any():
        even = np.polysub(np.polymul(even, even), np.polymul(p, np.polymul(odd, odd)))
    return even


def scalar_section_checks(model: FibrationModel, points) -> LevelJobs:
    """``quadrature.section_jobs`` one point at a time: the heights by
    ``np.polyval`` per point, the zeros of f on each level as lists, and the
    checks of each point in a Python loop, raised as it meets them: the arc's
    error, then before N1 (on N1 the time is 0 and no further check runs),
    f vanishing on the stretch at a zero on the smaller branch, f < 0."""
    points = [(float(x), float(y), float(lam)) for x, y, lam in points]
    x0, f, lams = model.x0, model.density, [lam for *_, lam in points]
    if model.kind == ONE_DOF:
        f, model, points = _bridged(f), cusp_local_model(), [(x, -y, 0.0) for x, y, _ in points]
    heights = [(x * x + np.polyval(model.potential_coeffs(lam), y), lam) for x, y, lam in points]
    ask = _level_ask(model, heights, x0)
    polys = [_zero_poly(f, p, lam) for p, lam in zip(ask[0], lams)]
    levels, zeros = _solved(ask, (polys, np.ndarray.tolist))
    xs, ys, _ = np.reshape(points, (-1, 3)).T
    jobs = _arc_jobs(lambda x, y, lam: 0.5 * f(x, y, lam), levels, ys, xs < 0)
    lower = []
    ends = zip(jobs.errors, jobs.b.tolist(), jobs.upper.tolist(), jobs.r, zeros)
    for (x, y, _), lam, (error, b, upper, r, roots) in zip(points, lams, ends):
        if error is not None:
            raise error
        lower.append(math.copysign(math.sqrt(max(b - y, 0.0)), x))
        if lower[-1] >= upper:
            if abs(x - x0) > 1e-12 * x0:
                raise StratumError(_UNREACHED)
            lower[-1] = upper
            continue
        for yz in (z for z in roots if z <= b):
            for sz in (s * math.sqrt(b - yz) for s in (1.0, -1.0)):
                xz = sz * math.sqrt(max(np.polyval(r, yz), 0.0))
                if lower[-1] <= sz <= upper and abs(f(xz, yz, lam)) <= abs(f(-xz, yz, lam)):
                    raise ValueError(_SECTION_VANISHES)
        if f(x, y, lam) < 0:
            raise StratumError(_UNREACHED)
    return jobs._replace(lam=np.array(lams), lower=np.array(lower))


def direct_values(grid, f) -> np.ndarray:
    """The values of f on a table's grid (``quadrature._Grid``) from f's own
    jobs: each column's jobs with the kernel of f, all in one engine call, in
    column order, the areas over 2 pi, NaN where a row has an error or its
    job does not converge."""
    batches = [jobs._replace(kernel=jobs.kernel(f)) for jobs in grid.columns]
    ends = np.cumsum([len(jobs.errors) for jobs in batches])[:-1]
    values = np.split(_level_integrals(*batches), ends)
    scales = [2.0 * math.pi if jobs.kernel is area_kernel else 1.0 for jobs in grid.columns]
    return np.concatenate([v / scale for v, scale in zip(values, scales)])
