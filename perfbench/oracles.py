"""Reference checks for the benchmark's outputs, computed outside the code they check.

Integrals are recomputed with ``mpmath`` tanh-sinh quadrature at 30 digits
straight from their defining formulas, closed forms use ``mpmath.hyp2f1``,
``mpmath.gamma`` and ``scipy.special.elliprf``, and flows are re-integrated
with the benchmark's own vector field under ``scipy``'s DOP853.  Each
``check_*`` function takes a request of the manifest and the bytes the CLI
printed for it and returns the number of its operations that missed.

Tolerances: chart values to 1e-8 relative (the CSV keeps 12 digits; the
program integrates to 1e-12); one-dof passages to 1e-8; the decompose
cross-check to 1e-3; lattice returns < 1e-6 and half-vectors > 1e-2,
pullback residual < 1e-4 and fiber drift < 1e-9 as in the acceptance suite.
"""

from __future__ import annotations

import json
import math
import os

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp
from scipy.special import elliprf

mp.mp.dps = 30

CHART_RTOL = 1e-8
CARLSON_RTOL = 1e-9
PASSAGE_RTOL = 1e-8
CROSS_CHECK_RTOL = 1e-3
SEPARATRIX_RTOL = 1e-8
LOG_COEFF_RTOL = 1e-3  # Richardson extraction on ten halving levels is good to ~1e-4
RESIDUAL_RTOL = 1e-8
LATTICE_RETURN = 1e-6
LATTICE_HALF_MISS = 1e-2
PULLBACK_TOL = 1e-4
FIBER_DRIFT_TOL = 1e-9
SECTION_TIME_TOL = 1e-8
CHART_SAMPLE = 6  # cells per chart re-evaluated with mpmath
ONE_DOF_LEVELS = (1e-10, 1e-7, 1e-4, 0.05)
SEPARATRIX_LAMBDAS = (-0.064, -0.048, -0.032)  # invariant_report defaults
LOG_LAMBDAS = (-0.06, -0.04)
DOMAIN_RADIUS = 0.08


# -- inputs -------------------------------------------------------------------


def w_coeffs(kind: str, lam):
    """W(y) highest first; both cusp models carry the lambda*y term."""
    if kind == "cusp_local":
        return [1, 0, lam, 0]
    return [1, 1, 0, lam, 0]


class System:
    """A model file read back: density terms, potential W(y; lambda) and x0."""

    def __init__(self, data: dict):
        self.kind = data["kind"]
        self.x0 = float(data.get("x0", 1.0))
        self.terms = {tuple(t["e"]): float(t["c"]) for t in data["density"]["terms"]}

    def w_coeffs(self, lam):
        return w_coeffs(self.kind, lam)

    def f(self, x, y, lam):
        return sum(c * x**i * y**j * lam**k for (i, j, k), c in self.terms.items())

    def x_lam(self, x, y, lam):
        """d/dlambda of X = int_0^x f dx."""
        return sum(
            c * k * x ** (i + 1) / (i + 1) * y**j * lam ** (k - 1)
            for (i, j, k), c in self.terms.items()
            if k
        )

    def w(self, y, lam):
        return float(np.polyval(self.w_coeffs(lam), y))

    def dw(self, y, lam):
        return float(np.polyval(np.polyder(self.w_coeffs(lam)), y))


def load(workdir: str, name: str):
    with open(os.path.join(workdir, name)) as fh:
        return json.load(fh)


# -- level-set geometry at 30 digits ----------------------------------------------


def _real_roots(coeffs) -> list:
    roots = mp.polyroots([mp.mpf(c) for c in coeffs], maxsteps=200, extraprec=60)
    return sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -20)


def _level(sys: System, H, lam):
    """Coefficients of P(y) = H - W(y) and its real roots."""
    p = [-mp.mpf(c) for c in sys.w_coeffs(mp.mpf(lam))]
    p[-1] += mp.mpf(H)
    return p, _real_roots(p)


def _even_x(sys: System, lam, power_shift: int, scale=lambda i: 1):
    """y -> sum over even i of c * scale(i) * X^(i + shift) y^j lam^k, X = sqrt(P)."""
    lam = mp.mpf(lam)
    terms = [(i, j, k, c) for (i, j, k), c in sys.terms.items() if i % 2 == 0]

    def g(p, y):
        xx = mp.sqrt(max(mp.polyval(p, y), 0))
        if not xx and power_shift < 0:
            return mp.mpf(0)  # a node within root precision of the endpoint
        return sum(c * scale(i) * xx ** (i + power_shift) * y**j * lam**k for i, j, k, c in terms)

    return g


def loop_integral(sys: System, p, a, b, lam):
    """int_a^b (f(X, y) + f(-X, y)) / (2X) dy: the loop period's formula."""
    g = _even_x(sys, lam, -1)
    return mp.quad(lambda y: g(p, y), [a, b])


def area_action(sys: System, p, a, b, lam):
    """(1 / 2 pi) times the integral of f over {x^2 <= P(y), a < y < b}."""
    g = _even_x(sys, lam, 1, scale=lambda i: mp.mpf(2) / (i + 1))
    return mp.quad(lambda y: g(p, y), [a, b]) / (2 * mp.pi)


def passage(sys: System, H, lam):
    """Passage integral along the arc from {x = x0} to its turning point, or None."""
    p, roots = _level(sys, H, lam)
    x0sq = mp.mpf(sys.x0) ** 2
    sec = list(p)
    sec[-1] -= x0sq
    sec_roots = _real_roots(sec)
    if sys.kind == "cusp_compact":
        a, b = roots[0], roots[1]
        inside = [r for r in sec_roots if a < r < b]
        if not inside:
            return None
        y_sec, turn = max(inside), b
    else:
        if not sec_roots:
            return None
        y_sec = sec_roots[0]
        turn = min(r for r in roots if r > y_sec)
    return loop_integral(sys, p, y_sec, turn, lam)


def critical_values(kind: str, lam: float) -> tuple[float, float]:
    """(H_ell, H_hyp) of the cusp pair at lambda < 0, from the critical points of
    W that unfold from y = 0."""
    w = w_coeffs(kind, lam)
    ys = [r.real for r in np.roots(np.polyder(w)) if abs(r.imag) < 1e-12 and abs(r.real) < 0.45]
    vals = {np.polyval(np.polyder(w, 2), y) > 0: float(np.polyval(w, y)) for y in ys}
    return vals[True], vals[False]


def stratum(sys: System, H: float, lam: float) -> str:
    if math.hypot(H, lam) > DOMAIN_RADIUS or (abs(lam) <= 1e-12 and abs(H) <= 1e-12):
        return "outside"
    if lam < 0:
        h_e, h_h = critical_values(sys.kind, lam)
        if h_e < H < h_h:
            return "narrow"
    return "wide" if sys.kind == "cusp_compact" else "outside"


# -- chart ----------------------------------------------------------------------------


def _close(value: float, ref, rtol: float) -> bool:
    ref = float(ref)
    return abs(value - ref) <= rtol * max(abs(ref), 1e-12)


def chart_grid(argv: list) -> tuple:
    spec = argv[argv.index("--grid") + 1]
    nh, nl = (int(v) for v in spec.split("x"))
    h_lo, h_hi = (float(v) for v in argv[argv.index("--h-range") + 1 : argv.index("--h-range") + 3])
    l_lo, l_hi = (float(v) for v in argv[argv.index("--l-range") + 1 : argv.index("--l-range") + 3])
    return np.linspace(h_lo, h_hi, nh), np.linspace(l_lo, l_hi, nl)


def _cell_ok(sys: System, cell: dict, H: float, lam: float, deep: bool) -> bool:
    """Structural checks on every cell; mpmath re-evaluation at the grid point when ``deep``."""
    st = cell["stratum"]
    if st == "outside":
        return all(cell[k] is None for k in ("Pi", "Pi_circ", "I", "I_circ", "I_mu"))
    if cell["I"] != cell["lambda"]:
        return False
    if (cell["Pi_circ"] is not None, cell["I_circ"] is not None) != (st == "narrow",) * 2:
        return False
    if cell["Pi"] is None and passage(sys, H, lam) is not None:
        return False  # blank Pi only where the oval never reaches the sections
    if not deep:
        return True
    p, roots = _level(sys, H, lam)
    checks = []
    if cell["Pi"] is not None:
        checks.append((cell["Pi"], lambda: passage(sys, H, lam)))
    if st == "narrow":
        a, b = roots[-2], roots[-1]
        checks.append((cell["Pi_circ"], lambda: loop_integral(sys, p, a, b, lam)))
        checks.append((cell["I_circ"], lambda: area_action(sys, p, a, b, lam)))
    if cell["I_mu"] is not None:
        checks.append((cell["I_mu"], lambda: area_action(sys, p, roots[0], roots[1], lam)))
    return all(_close(v, ref(), CHART_RTOL) for v, ref in checks)


def parse_chart(out: str) -> list[dict]:
    lines = out.splitlines()
    if not lines or lines[0] != "H,lambda,stratum,Pi,Pi_circ,I,I_circ,I_mu":
        raise ValueError("bad chart header")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        vals = [None if v == "" else float(v) for v in parts[3:]]
        rows.append(dict(H=float(parts[0]), **{"lambda": float(parts[1])}, stratum=parts[2],
                         **dict(zip(("Pi", "Pi_circ", "I", "I_circ", "I_mu"), vals))))
    return rows


def chart_sample(rng, n_rows: int) -> set:
    """Indices of the cells re-evaluated with mpmath."""
    return set(rng.choice(n_rows, size=min(CHART_SAMPLE, n_rows), replace=False).tolist())


def check_chart(req: dict, out: str, workdir: str, rng) -> int:
    sys = System(load(workdir, req["oracle"]["model"]))
    hs, ls = chart_grid(req["argv"])
    try:
        rows = parse_chart(out)
    except ValueError:
        return req["ops"]
    expected = [(h, lam) for lam in ls for h in hs]
    if len(rows) != len(expected):
        return req["ops"]
    sample = chart_sample(rng, len(rows))
    failed = 0
    for idx, (cell, (h, lam)) in enumerate(zip(rows, expected)):
        ok = _close(cell["H"], h, 1e-11) and _close(cell["lambda"], lam, 1e-11)
        ok = ok and cell["stratum"] == stratum(sys, h, lam) and _cell_ok(sys, cell, h, lam, idx in sample)
        if ok and req["oracle"].get("unit_density") and cell["stratum"] == "narrow":
            e = sorted(np.roots([-1.0, 0.0, -lam, h]).real)
            ok = _close(cell["Pi_circ"], 2.0 * elliprf(0.0, e[1] - e[0], e[2] - e[0]), CARLSON_RTOL)
        failed += not ok
    return failed


# -- invariants ------------------------------------------------------------------


def one_dof_passage(terms: dict, H: float):
    """Closed form of the one-dof passage of sum c x^i y^j (lambda = 0, x0 = 1):
    (2/3) sum_{i even} c/(i+1) H^((j-2)/3) 2F1((2-j)/3, (i+1)/2; (i+3)/2; -1/H)."""
    H = mp.mpf(H)
    acc = mp.mpf(0)
    for (i, j, k), c in terms.items():
        if k or i % 2:
            continue
        acc += c * mp.mpf(2) / 3 / (i + 1) * H ** (mp.mpf(j - 2) / 3) * mp.hyp2f1(
            mp.mpf(2 - j) / 3, mp.mpf(i + 1) / 2, mp.mpf(i + 3) / 2, -1 / H
        )
    return acc


def puiseux_c0_c1():
    c0 = mp.sqrt(mp.pi) / 3 * mp.gamma(mp.mpf(1) / 6) / mp.gamma(mp.mpf(2) / 3)
    c1 = mp.sqrt(mp.pi) / 3 * mp.gamma(-mp.mpf(1) / 6) / mp.gamma(mp.mpf(1) / 3)
    return float(c0), float(c1)


def separatrix(sys: System, lam: float):
    """h(lambda): (1 / 2 pi) times the f-area of the lobe bounded by the saddle level."""
    crit = [r.real for r in np.roots(np.polyder(sys.w_coeffs(lam))) if abs(r.imag) < 1e-12]
    saddle = [y for y in crit if abs(y) < 0.45 and np.polyval(np.polyder(sys.w_coeffs(lam), 2), y) < 0][0]
    dw = [mp.mpf(c) for c in np.polyder(sys.w_coeffs(lam))]
    a = mp.findroot(lambda y: mp.polyval(dw, y), mp.mpf(saddle))
    p = [-mp.mpf(c) for c in sys.w_coeffs(mp.mpf(lam))]
    p[-1] += mp.polyval([mp.mpf(c) for c in sys.w_coeffs(mp.mpf(lam))], a)
    b = min(r for r in _real_roots(p) if r > a + mp.mpf(10) ** -6)
    return area_action(sys, p, a, b, lam)


def log_coeff(sys: System, lam: float) -> float:
    """Coefficient of ln|H - H_hyp| in the loop period: -f(saddle) / sqrt|det Hess H|."""
    ys = -math.sqrt(-lam / 3.0)
    return -sys.f(0.0, ys, lam) / math.sqrt(2.0 * abs(6.0 * ys))


def check_decompose(req: dict, out: str, workdir: str, passage_fn) -> int:
    """``passage_fn(terms, H)`` is the program's one-dof passage, called here so the
    samples its fit rests on are checked against the closed form."""
    terms = {tuple(t["e"]): float(t["c"]) for t in load(workdir, req["oracle"]["density"])["terms"]}
    data = json.loads(out)
    c00, c01 = terms.get((0, 0, 0), 0.0), terms.get((0, 1, 0), 0.0)
    c0, c1 = puiseux_c0_c1()
    cc = data["cross_check"]
    ok = data["alpha"][0] == c00 and data["beta"][0] == c01
    ok = ok and _close(cc["a0_fit"], c0 * c00, CROSS_CHECK_RTOL)
    ok = ok and abs(cc["b0_fit"] - c1 * c01) <= CROSS_CHECK_RTOL * abs(c0 * c00)
    for H in ONE_DOF_LEVELS:
        ok = ok and _close(passage_fn(terms, H), one_dof_passage(terms, H), PASSAGE_RTOL)
    return int(not ok)


def check_invariants(req: dict, out: str, workdir: str) -> int:
    sys = System(load(workdir, req["oracle"]["model"]))
    data = json.loads(out)
    c00, c01 = sys.terms.get((0, 0, 0), 0.0), sys.terms.get((0, 1, 0), 0.0)
    ok = data["orientation"]["density_positive_at_orbit"] == (c00 > 0)
    # the lambda = 0 slice seen through the sign bridge y -> -y; on the compact
    # model the quartic term feeds beta, so only alpha0 has a closed form there
    ok = ok and _close(data["one_dof"]["alpha"][0], c00, 1e-6)
    if sys.kind == "cusp_local":
        ok = ok and abs(data["one_dof"]["beta"][0] + c01) <= 1e-6
    lams = [lam for lam, _ in data["h_samples"]]
    ok = ok and lams == list(SEPARATRIX_LAMBDAS)
    ok = ok and all(_close(v, separatrix(sys, lam), SEPARATRIX_RTOL) for lam, v in data["h_samples"])
    want_logs = list(LOG_LAMBDAS) if sys.kind == "cusp_local" else []
    ok = ok and [lam for lam, _ in data["log_coeffs"]] == want_logs
    ok = ok and all(_close(v, log_coeff(sys, lam), LOG_COEFF_RTOL) for lam, v in data["log_coeffs"])
    return int(not ok)


def check_compare(req: dict, out: str, workdir: str) -> int:
    """Comparing a system with itself must give equivalence; with its s-multiple,
    every sampled loop action differs by exactly the factor s."""
    data = json.loads(out)
    s = req["oracle"]["scale"]
    checks = data["checks"]
    io = checks["I_circ"]["residuals"]
    ok = checks["sigma"]["ok"] and checks["I"]["ok"] and all(r == 0 for r in checks["I"]["residuals"])
    ok = ok and len(io) == 9 and all(_close(r, abs(s - 1.0), RESIDUAL_RTOL) if s != 1.0 else r == 0 for r in io)
    if s == 1.0:
        ok = ok and data["equivalent"] is True
        if "I_mu" in checks:
            ok = ok and data["k"] == 0 and checks["I_mu"]["ok"]
    else:
        ok = ok and data["equivalent"] is False and not checks["I_circ"]["ok"]
    return int(not ok)


# -- flows ------------------------------------------------------------------------------


def _h_field(sys: System, lam: float):
    """Own 4-D H-field: v = (-H_y / f, H_x / f, 0, H_lambda - X_lambda H_x / f)."""

    def rhs(_t, s):
        x, y = s[0], s[1]
        fv = sys.f(x, y, lam)
        hx, hy = 2.0 * x, sys.dw(y, lam)
        return [-hy / fv, hx / fv, 0.0, y - sys.x_lam(x, y, lam) * hx / fv]

    return rhs


def _solve(rhs, t: float, state, **kw):
    return solve_ivp(rhs, (0.0, t), state, method="DOP853", rtol=1e-12, atol=1e-12, **kw)


def lattice_return(sys: System, start, t1: float, t2: float) -> float:
    start = np.asarray(start, dtype=float)
    end = _solve(_h_field(sys, start[2]), t1, start).y[:, -1] if t1 else start.copy()
    dphi = (end[3] + t2 - start[3] + math.pi) % (2.0 * math.pi) - math.pi
    return float(math.sqrt(sum((end[i] - start[i]) ** 2 for i in range(3)) + dphi**2))


def check_lattice(req: dict, out: str, workdir: str) -> int:
    sys = System(load(workdir, req["oracle"]["model"]))
    data = json.loads(out)
    argv = req["argv"]
    h, lam = (float(v) for v in argv[argv.index("--at") + 1 : argv.index("--at") + 3])
    basis, start, ver = data["basis"], data["start_point"], data["verification"]
    on_level = abs(start[0] ** 2 + sys.w(start[1], lam) - h) <= 1e-12 and start[2] == lam
    if not on_level or len(ver) != 3 or basis[0] != [0.0, 2.0 * math.pi]:
        return 3
    vectors = [basis[0], basis[1], [basis[1][0] / 2.0, basis[1][1] / 2.0]]
    failed = 0
    for i, ((t1, t2), entry) in enumerate(zip(vectors, ver)):
        own = lattice_return(sys, start, t1, t2)
        if i < 2:
            ok = entry["distance"] < LATTICE_RETURN and entry["returned"] and own < LATTICE_RETURN
        else:
            ok = entry["distance"] > LATTICE_HALF_MISS and not entry["returned"] and own > LATTICE_HALF_MISS
        failed += not (ok and [entry["t1"], entry["t2"]] == [t1, t2])
    return failed


def section_time(sys: System, xy, lam: float) -> float:
    """Backward time from xy to {x = x0} under the own reduced flow."""

    def rhs(_t, s):
        fv = sys.f(s[0], s[1], lam)
        return [-sys.dw(s[1], lam) / fv, 2.0 * s[0] / fv]

    def hit(_t, s):
        return s[0] - sys.x0

    hit.terminal = True
    sol = _solve(rhs, -200.0, list(xy), events=hit)
    return -float(sol.t_events[0][0])


def check_transport(req: dict, out: str, workdir: str) -> int:
    o = req["oracle"]
    s1, s2 = System(load(workdir, o["sys1"])), System(load(workdir, o["sys2"]))
    pts = load(workdir, o["points"])
    entries = json.loads(out)["points"]
    if len(entries) != len(pts):
        return req["ops"]
    failed = 0
    for p, e in zip(pts, entries):
        lam = p[2]
        img = e["image"]
        drift = abs(img[0] ** 2 + s2.w(img[1], lam) - (p[0] ** 2 + s1.w(p[1], lam)))
        ok = e["point"][:3] == p[:3] and abs(e["xy_residual"]) < PULLBACK_TOL
        ok = ok and e["fiber_drift"] < FIBER_DRIFT_TOL and drift < FIBER_DRIFT_TOL
        ok = ok and abs(section_time(s1, p[:2], lam) - section_time(s2, img, lam)) < SECTION_TIME_TOL
        failed += not ok
    return failed
