"""Symplectic-invariant normalization and equivalence verdicts.

One-degree-of-freedom germs are compared through their reduced coefficient
series: an H-preserving symplectomorphism exists iff (alpha, beta) agree,
and a fibration-preserving one iff the normal-form series canonical_f
agree, where the normalization rescales the density so that alpha~ == 1
(the convention omega = dx^dy + canonical_f(H) y dx^dy).

The rescaling maps r_h(x, y) = (g(H)^(1/2) x, g(H)^(1/3) y) realize the
base reparametrizations H -> H g(H); their Jacobian is
g(H)^(-1/6) (g'(H) H + g(H)), which links the area-series relations (i) to
the coefficient relations (ii)/(iii).

Parabolic orbits and cuspidal tori are compared per the action criteria: a
supplied base map must respect the bifurcation diagrams with their branch
labels and transport the actions (I, I_o, and on compact models I_mu up to
an integer multiple of I).  No search for the base map is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .brieskorn import BrieskornPair, model_pair, reduce as brieskorn_reduce
from .model import (
    CUSP_COMPACT,
    CUSP_LOCAL,
    DEFAULT_DOMAIN_RADIUS,
    IDENTITY_BASE_MAP,
    Density,
    FibrationModel,
    _solved,
    base_map_jacobian,
    bifurcation_diagram,
    one_dof_model,
    saddles,
)
from .quadrature import LevelJob, _built, _converged, _level_ask, _level_integrals, _lobe_areas
from .quadrature import _levels, _oval_jobs, _passage_levels, area_kernel, integrals, passage_jobs
from .series import TruncatedSeries, phi_r_apply, phi_r_invert
from .specfun import puiseux_constants
from . import asymptotics

SERIES_RTOL = 1e-3
ACTION_RTOL = 1e-5
BRANCH_RTOL = 1e-6

# the verdicts' samples at the default domain radius: Sigma, I and I_circ, I_mu
_R = DEFAULT_DOMAIN_RADIUS
_SIGMA_LAMS = (-0.8 * _R, -0.6 * _R, -0.4 * _R, -0.2 * _R)
_GRID_LAMS = (-0.75 * _R, -0.55 * _R, -0.35 * _R)
_WIDE_GRID = tuple((h * _R, l * _R) for h, l in ((0.45, 0.3), (0.3, 0.45), (-0.3, 0.35), (0.5, -0.25)))


def _floats(series: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries([float(c) for c in series.coeffs])


def _series_h(g: TruncatedSeries) -> TruncatedSeries:
    """h(H) = H * g(H) at the truncation order of g."""
    return TruncatedSeries([0] + list(g.coeffs), order=g.order)


# -- rescaling maps ---------------------------------------------------------------

_ONE_DOF_H = one_dof_model().hamiltonian()


@dataclass
class RescaleMap:
    """r_h(x, y) = (g(H)^(1/2) x, g(H)^(1/3) y) on the one-dof model.

    Satisfies H(r_h(x, y)) = h(H(x, y)) with h(H) = H g(H) exactly.
    """

    g: TruncatedSeries

    def __post_init__(self):
        if not float(self.g.coeffs[0]) > 0:
            raise ValueError("rescale map requires g(0) > 0")
        self.g = _floats(self.g)

    def h(self, H: float) -> float:
        return H * float(self.g.eval(H))

    def apply(self, x: float, y: float) -> tuple[float, float]:
        H = _ONE_DOF_H(x, y)
        gv = float(self.g.eval(H))
        return gv**0.5 * x, gv ** (1.0 / 3.0) * y

    def jacobian_det(self, x: float, y: float) -> float:
        """det Dr_h = g(H)^(-1/6) (g'(H) H + g(H))."""
        H = _ONE_DOF_H(x, y)
        gv = float(self.g.eval(H))
        gdv = float(self.g.deriv().eval(H))
        return gv ** (-1.0 / 6.0) * (gdv * H + gv)

    def h_inverse(self, H_target: float) -> float:
        """Solve h(H) = target on the monotone branch through 0."""
        if H_target == 0.0:
            return 0.0
        g0 = float(self.g.coeffs[0])
        dh = lambda t: float(self.g.eval(t)) + float(self.g.deriv().eval(t)) * t
        end = math.copysign(max(abs(H_target) / g0, 1e-8), H_target)
        for _ in range(200):
            if (self.h(end) - H_target) * math.copysign(1.0, H_target) >= 0:
                break
            if dh(end) <= 0:
                raise ValueError("h inverse target outside the monotone branch")
            end *= 1.5
        else:
            raise ValueError("h inverse bracket not found")
        # scipy is imported here, so that importing the package does not load it
        from scipy.optimize import brentq

        lo, hi = (0.0, end) if H_target > 0 else (end, 0.0)
        return brentq(lambda t: self.h(t) - H_target, lo, hi, xtol=1e-15, rtol=1e-15)

    def inverse(self, u: float, v: float) -> tuple[float, float]:
        H = self.h_inverse(_ONE_DOF_H(u, v))
        gv = float(self.g.eval(H))
        return u / gv**0.5, v / gv ** (1.0 / 3.0)

    def pushforward_density(self, f: Density):
        """Density of (r_h)_* (f dx^dy); the omega~ with r_h^* omega~ = omega."""

        def ftilde(u, v, lam=0.0):
            x, y = self.inverse(float(u), float(v))
            return f.eval(x, y, lam) / self.jacobian_det(x, y)

        return ftilde


# -- series relations --------------------------------------------------------------


def verify_relations(
    pair_a: tuple[TruncatedSeries, TruncatedSeries],
    pair_b: tuple[TruncatedSeries, TruncatedSeries],
    g: TruncatedSeries,
) -> dict:
    """Termwise residuals of the rescaling relations between area pairs.

    ``pair_a`` = (A, B) for omega, ``pair_b`` = (A~, B~) for omega~ with
    psi^* omega~ = omega and psi^* H = H g(H).  Checks
      (i)   A = g^(5/6) A~(h),  B = g^(7/6) B~(h),
      (iii) (a, b) = (phi_{5/6} A, phi_{7/6} B) with the Jacobian factor
            g^(-1/6)(g'H + g),
    both generated from the same data through the phi_r operators.  The
    (alpha, beta) form (ii) is (iii) divided by C0 and |C1|, both above 1,
    so its residuals never set ``max_abs`` and are not reported.
    """
    A, B = (_floats(pair_a[0]), _floats(pair_a[1]))
    At, Bt = (_floats(pair_b[0]), _floats(pair_b[1]))
    g = _floats(g)
    h = _series_h(g)
    jac = g.pow(-1.0 / 6.0) * (g.deriv() * TruncatedSeries.identity(g.order) + g)

    def residuals(lhs: TruncatedSeries, rhs: TruncatedSeries) -> list[float]:
        k = min(lhs.order, rhs.order)
        return [float(lhs.coeffs[i] - rhs.coeffs[i]) for i in range(k + 1)]

    out = {
        "i_A": residuals(A, g.pow(5.0 / 6.0) * At.compose(h)),
        "i_B": residuals(B, g.pow(7.0 / 6.0) * Bt.compose(h)),
    }
    a, b = phi_r_apply(A, Fraction(5, 6)), phi_r_apply(B, Fraction(7, 6))
    at, bt = phi_r_apply(At, Fraction(5, 6)), phi_r_apply(Bt, Fraction(7, 6))
    out["iii_a"] = residuals(a, jac * at.compose(h))
    out["iii_b"] = residuals(b, (g.pow(1.0 / 3.0) * jac) * bt.compose(h))
    out["max_abs"] = max(abs(r) for rs in out.values() for r in rs)
    return out


def verify_relations_numeric(f, f_tilde, g: TruncatedSeries) -> dict:
    """Relation residuals measured through the analytic-defect of passages.

    Relations (iii) hold iff Delta(H) = Pi(H) - h'(H) Pi~(h(H)) is analytic
    at 0, so the residuals are the fractional coefficients of a fit of
    Delta, sampled at 40 H from 1e-8 to 0.05, in the basis {H^(k-1/6),
    H^(k+1/6)} (k <= 2) plus an analytic polynomial of degree 6.  Sampling
    the defect instead of the full fractional coefficients keeps the design
    matrix conditioned at ~1e8 rather than 1e13, which is what makes the
    1e-4 tolerance reachable from double-precision quadrature data.
    """
    g = _floats(g)
    dg = g.deriv()
    mdl = one_dof_model(f)
    mdl_t = one_dof_model(f_tilde)
    grid = np.geomspace(1e-8, 0.05, 40)
    gv = np.array([float(g.eval(h)) for h in grid])
    hp = gv + np.array([float(dg.eval(h)) for h in grid]) * grid
    jobs = passage_jobs(mdl, [(h, 0.0) for h in grid])
    pi = integrals(jobs + passage_jobs(mdl_t, [(h, 0.0) for h in grid * gv]))
    deltas = pi[: len(grid)] - hp * pi[len(grid) :]
    fit, report = asymptotics.fit_puiseux(zip(grid, deltas), order=(2, 2, 6))
    return {
        "a_defect": fit.a.coeffs,
        "b_defect": fit.b.coeffs,
        "max_abs": float(np.abs(fit.a.coeffs + fit.b.coeffs).max()),
        "cond": report.cond,
    }


def normalize_invariant(pair: BrieskornPair) -> dict:
    """Normal-form data of a positively-oriented one-dof density.

    Returns
      g            the area-normalizing rescale g = A^(6/5) (makes A~ == 1),
      g_unit_alpha the rescale achieving alpha~ == 1,
      canonical_f  the beta~ series of the alpha~ == 1 normal form
                   omega = dx^dy + canonical_f(H) y dx^dy.
    """
    alpha, beta = _floats(pair.alpha), _floats(pair.beta)
    if not float(alpha.coeffs[0]) > 0:
        raise ValueError("normalization requires a(0) > 0 (positively oriented)")
    c0 = puiseux_constants()["C0"]
    a = alpha * c0
    A = phi_r_invert(a, Fraction(5, 6))
    g_area = A.pow(6.0 / 5.0)
    g1 = (phi_r_invert(alpha, Fraction(5, 6)) * (5.0 / 6.0)).pow(6.0 / 5.0)
    h1 = _series_h(g1)
    denom = alpha * g1.pow(1.0 / 3.0)
    beta_tilde = (beta * denom.reciprocal()).compose(h1.reversion())
    return {"g": g_area, "g_unit_alpha": g1, "canonical_f": beta_tilde}


# -- one-degree-of-freedom verdicts -------------------------------------------------


def _series_close(s1: TruncatedSeries, s2: TruncatedSeries):
    resid = []
    for i in range(min(s1.order, s2.order) + 1):
        x1, x2 = float(s1.coeffs[i]), float(s2.coeffs[i])
        resid.append(abs(x1 - x2) / max(abs(x1), abs(x2), 1e-3))
    return all(r <= SERIES_RTOL for r in resid), resid


@dataclass
class OneDofVerdict:
    equivalent: bool
    mode: str
    residuals: dict
    witness_g: TruncatedSeries | None = None
    orientation_corrected: bool = False


def _flip_orientation(f: Density) -> Density:
    """The density after the sign map (x, y) -> (-x, y): f -> -f(-x, y).

    The map fixes the one-dof and cusp Hamiltonians, which are even in x,
    and reverses the orientation of f dx^dy.
    """
    return Density({e: (c if e[0] % 2 else -c) for e, c in f.terms.items()})


def _oriented(f: Density) -> tuple[Density, bool]:
    """(f, False) for f(0, 0, 0) > 0, (_flip_orientation(f), True) for
    f(0, 0, 0) < 0; ValueError for a density vanishing at the orbit, which
    is not symplectic there.
    """
    f0 = float(f.eval(0.0, 0.0, 0.0))
    if f0 == 0:
        raise ValueError("density vanishes at the orbit")
    return (f, False) if f0 > 0 else (_flip_orientation(f), True)


def one_dof_equivalent(f1: Density, f2: Density, mode: str = "H_preserving") -> OneDofVerdict:
    """Equivalence of one-dof densities on H = y^3 - x^2.

    'H_preserving' compares (alpha, beta) coefficientwise; a map psi with
    psi^* omega~ = omega and psi^* H = H exists iff they agree.
    'fibration_preserving' compares the canonical_f normal forms and
    returns the witness g of the base reparametrization relating the two.
    Negatively-oriented inputs are corrected by the sign map and reported.
    """
    (f1, c1), (f2, c2) = _oriented(f1), _oriented(f2)
    p1, p2 = brieskorn_reduce(f1), brieskorn_reduce(f2)
    corrected = c1 or c2
    if mode == "H_preserving":
        ok_a, res_a = _series_close(p1.alpha, p2.alpha)
        ok_b, res_b = _series_close(p1.beta, p2.beta)
        return OneDofVerdict(
            equivalent=ok_a and ok_b,
            mode=mode,
            residuals={"alpha": res_a, "beta": res_b},
            orientation_corrected=corrected,
        )
    if mode == "fibration_preserving":
        n1, n2 = normalize_invariant(p1), normalize_invariant(p2)
        ok, res = _series_close(n1["canonical_f"], n2["canonical_f"])
        h1, h2 = (_series_h(n["g_unit_alpha"]) for n in (n1, n2))
        h_w = h2.reversion().compose(h1)
        witness = TruncatedSeries(h_w.coeffs[1:]) if ok else None
        return OneDofVerdict(
            equivalent=ok,
            mode=mode,
            residuals={"canonical_f": res},
            witness_g=witness,
            orientation_corrected=corrected,
        )
    raise ValueError(f"unknown mode {mode!r}")


# -- semi-local verdicts --------------------------------------------------------------


def _phi_eval(phi, H: float, lam: float) -> tuple[float, float]:
    ht, ft = phi
    return ht.eval(H, lam), ft.eval(H, lam)


@dataclass
class EquivalenceVerdict:
    equivalent: bool
    checks: dict = field(default_factory=dict)
    k: int | None = None

    def to_json(self) -> dict:
        return {"equivalent": self.equivalent, "k": self.k, "checks": self.checks}


def _oriented_pair(sys1: FibrationModel, sys2: FibrationModel):
    """Both systems positively oriented by :func:`_oriented`, and the checks
    dict reporting a correction; the correction is not an error."""
    (f1, flip1), (f2, flip2) = _oriented(sys1.density), _oriented(sys2.density)
    checks: dict = {}
    if flip1 or flip2:
        checks["orientation_corrected"] = {"sys1": flip1, "sys2": flip2}
    return replace(sys1, density=f1), replace(sys2, density=f2), checks


def parabolic_equivalent(
    sys1: FibrationModel,
    sys2: FibrationModel,
    phi=IDENTITY_BASE_MAP,
    action_rtol: float = ACTION_RTOL,
) -> EquivalenceVerdict:
    """Verdict of the action criteria for parabolic orbits under a given phi.

    Checks that phi maps the bifurcation diagram onto the target's (branch
    by branch), preserves I = lambda, and preserves I_o on a swallow-tail
    grid.  Only verification of the supplied map is performed; invariants
    that do not depend on phi live in :func:`invariant_report`.
    """
    sys1, sys2, checks = _oriented_pair(sys1, sys2)
    ok, _ = _parabolic_checks(sys1, sys2, phi, checks, action_rtol)
    return EquivalenceVerdict(equivalent=ok, checks=checks)


def _oval_actions(values, jobs1: list, jobs2: list):
    """Oval area / 2 pi of sys1 and sys2 from their area jobs (``_oval_jobs``),
    the values of the jobs among them read off an iterator in order.  A sys1
    level without its job or whose integral does not converge raises; such a
    sys2 level gives None."""
    first = _converged(np.array([next(values) for _ in _built(jobs1)])).tolist()
    unread = [not isinstance(j, LevelJob) for j in jobs2]
    return first, [None if skip or math.isnan(v := next(values)) else v for skip in unread]


@lru_cache(maxsize=8)
def _verdict_table(kind: str, wide_grid: tuple):
    """sys1's half of a verdict, which depends on its kind alone: (H_ell, H_hyp)
    at the sigma and grid lambdas, the 9 narrow points read off them and the
    levels there and on the wide grid; two root solves, once per process, read-only."""
    model = FibrationModel(kind)
    values = bifurcation_diagram(model).branch_values(_SIGMA_LAMS + _GRID_LAMS)
    h_ell, h_hyp = (tuple(v.tolist()) for v in values)
    narrow = []  # three points across the swallow tail per lambda
    for lam, h_e, h_h in zip(_GRID_LAMS, h_ell[4:], h_hyp[4:]):
        mid, half = 0.5 * (h_e + h_h), 0.5 * (h_h - h_e)
        narrow += [(mid + 0.8 * t * half, lam) for t in (-0.5, 0.0, 0.5)]
    levels = _solved(*(_level_ask(model, p) for p in (narrow, wide_grid) if p))
    return h_ell, h_hyp, tuple(narrow), tuple(lv.frozen() for lv in levels)


def _parabolic_checks(
    sys1: FibrationModel, sys2: FibrationModel, phi, checks: dict, action_rtol: float, wide=()
):
    """The sigma, I and I_circ checks of two oriented systems, added to
    ``checks``, and given the images of the wide grid, the wide-oval actions
    (``_oval_actions``) there.  sys1's branch values and levels come from
    its ``_verdict_table``; the request's one root solve is all that depends
    on phi: d2's branch values at the images of d1's Sigma samples and sys2's
    narrow and wide levels at the images.  All integrals are one engine call.
    """
    if abs(base_map_jacobian(phi, 0.0, 0.0)) < 1e-12:
        raise ValueError("base map phi is degenerate at the cusp point")
    h_ell, h_hyp, narrow, levels1 = _verdict_table(sys1.kind, _WIDE_GRID if wide else ())

    # cusp point (0, 0) must map to the cusp point, each branch onto the same branch
    images = [
        (index, value, *_phi_eval(phi, value, lam))
        for lam, pair in zip(_SIGMA_LAMS, zip(h_ell, h_hyp))
        for index, value in enumerate(pair)
    ]
    # I at the narrow points; sys2's levels at their images, then at the wide grid's
    narrow_images = [_phi_eval(phi, h, lam) for h, lam in narrow]
    i_resid = [abs(l_t - l) / max(abs(l), 1e-9) for (_, l), (_, l_t) in zip(narrow, narrow_images)]
    i_ok = all(r_i <= action_rtol for r_i in i_resid)
    targets, *levels2 = _solved(
        bifurcation_diagram(sys2)._branch_ask([l for *_, l in images if l < 0], (0, 1)),
        *(_level_ask(sys2, p) for p in (narrow_images, wide) if p),
    )

    targets = iter(targets.tolist())  # an image off lambda < 0 has no target
    sigma_resid = [math.hypot(*_phi_eval(phi, 0.0, 0.0))] + [
        abs(h_t - next(targets)[index]) / max(abs(value), 1e-6) if lam_t < 0 else math.inf
        for index, value, h_t, lam_t in images
    ]
    sigma_ok = sigma_resid[0] <= 1e-9 and all(res <= BRANCH_RTOL for res in sigma_resid[1:])
    checks["sigma"] = {"ok": sigma_ok, "residuals": sigma_resid}

    # I_circ, and I_mu on a wide grid, from one engine call; an image without
    # a narrow oval gives an infinite I_circ residual
    kernels = (area_kernel(sys1.density), area_kernel(sys2.density))  # one group each
    jobs = [
        _oval_jobs([k] * len(lv.points), lv, oval)
        for oval, pair in zip(("narrow", "wide"), zip(levels1, levels2))
        for k, lv in zip(kernels, pair)
    ]
    values = _level_integrals([j for part in jobs for j in part if isinstance(j, LevelJob)])
    values = iter((values / (2.0 * math.pi)).tolist())
    io_resid = [
        math.inf if io_2 is None else abs(io_1 - io_2) / max(abs(io_1), 1e-12)
        for io_1, io_2 in zip(*_oval_actions(values, *jobs[:2]))
    ]
    io_ok = all(r_o <= action_rtol for r_o in io_resid)
    checks["I"] = {"ok": i_ok, "residuals": i_resid}
    checks["I_circ"] = {"ok": io_ok, "residuals": io_resid}
    return sigma_ok and i_ok and io_ok, _oval_actions(values, *jobs[2:]) if wide else None


def cusp_torus_equivalent(
    sys1: FibrationModel,
    sys2: FibrationModel,
    phi=IDENTITY_BASE_MAP,
    k_range: tuple[int, int] = (-3, 3),
    mu_shift1: int = 0,
    mu_shift2: int = 0,
    action_rtol: float = ACTION_RTOL,
) -> EquivalenceVerdict:
    """Cuspidal-torus verdict: parabolic checks plus the I_mu criterion.

    I_mu is defined modulo k * I, so equality is demanded for some integer
    k in ``k_range``: I_mu = I_mu~(phi) + k * I on the wide-stratum grid.
    The mu_shift arguments record the cross-section choices the two charts
    were computed with.
    """
    if sys1.kind != CUSP_COMPACT or sys2.kind != CUSP_COMPACT:
        raise ValueError("cusp-torus comparison needs compact models")
    sys1, sys2, checks = _oriented_pair(sys1, sys2)
    images = [_phi_eval(phi, h, lam) for h, lam in _WIDE_GRID]
    base_ok, (actions1, actions2) = _parabolic_checks(sys1, sys2, phi, checks, action_rtol, images)
    checks["I_mu"] = {"ok": False, "k": None, "residuals": []}
    if None not in actions2:
        deltas = [
            ((v1 + mu_shift1 * lam) - (v2 + mu_shift2 * lam_t), lam)
            for (_, lam), (_, lam_t), v1, v2 in zip(_WIDE_GRID, images, actions1, actions2)
        ]
        k_round = int(round(float(np.median([d / lam for d, lam in deltas]))))
        resid = [abs(d - k_round * lam) for d, lam in deltas]
        scale = max(max(abs(d) for d, _ in deltas), 1e-9)
        mu_ok = k_range[0] <= k_round <= k_range[1] and all(
            x <= action_rtol * max(1.0, scale) for x in resid
        )
        checks["I_mu"] = {"ok": mu_ok, "k": k_round, "residuals": resid}
    mu_ok = checks["I_mu"]["ok"]
    k_found = checks["I_mu"]["k"] if mu_ok else None
    return EquivalenceVerdict(equivalent=base_ok and mu_ok, checks=checks, k=k_found)


# -- phi-independent invariant report -------------------------------------------------


@dataclass
class InvariantReport:
    alpha: TruncatedSeries
    beta: TruncatedSeries
    canonical_f: TruncatedSeries
    h_samples: list[tuple[float, float]]
    log_coeffs: list[tuple[float, float]]
    orientation: dict

    def to_json(self) -> dict:
        return {
            "one_dof": {
                "alpha": self.alpha.to_json(),
                "beta": self.beta.to_json(),
                "canonical_f": self.canonical_f.to_json(),
            },
            "h_samples": [[l, v] for l, v in self.h_samples],
            "log_coeffs": [[l, v] for l, v in self.log_coeffs],
            "orientation": self.orientation,
        }


@lru_cache(maxsize=8)
def _passage_table(x0: float, grid: tuple):
    """The density-free one-dof ``_passage_levels`` of a grid: once per process, read-only."""
    return _passage_levels(one_dof_model(x0=x0), [(h, 0.0) for h in grid]).frozen()


def fitted_pair(density, h_max: float = 0.1, n_samples: int = 48, order=(2, 2, 6)):
    """(a, b) series fitted from one-dof passage samples of ``density`` at
    ``n_samples`` H from 1e-9 to ``h_max``, on their ``_passage_table``.

    The default orders suit polynomial densities of degree <= 5, whose
    fractional families terminate at H^2 exactly; the long analytic tail is
    soaked up by the extra c-columns, which cost little conditioning.
    """
    mdl = one_dof_model(density)
    grid = np.geomspace(1e-9, h_max, n_samples)
    levels = _passage_table(mdl.x0, tuple(grid.tolist()))
    samples = list(zip(grid, integrals(passage_jobs(mdl, [(h, 0.0) for h in grid], levels))))
    return asymptotics.fit_puiseux(samples, order=order, relative_weights=True)


@lru_cache(maxsize=8)
def _report_table(kind: str, lam_values: tuple, log_lam_values: tuple):
    """The lambdas, saddles a and W''(a) of an invariant report's two grids
    and the lobe levels H = W(a) on the first, which depend on the model
    kind alone; two root solves, once per process, arrays read-only."""
    model, n = FibrationModel(kind), len(lam_values)
    lams, a, h, d2w = saddles(model, np.array(lam_values + log_lam_values, dtype=float))
    for v in (a, d2w):
        v.setflags(write=False)
    return tuple(lams), a, d2w, _levels(model, zip(h[:n].tolist(), lams[:n])).frozen()


def invariant_report(
    sys: FibrationModel,
    lam_values=(-0.064, -0.048, -0.032),
    log_lam_values=(-0.06, -0.04),
) -> InvariantReport:
    """phi-independent symplectic invariants of a cusp system.

    The one-dof block carries the exact (alpha, beta) of the lambda = 0
    slice through H^K (:func:`brieskorn.model_pair`, the same route for both
    kinds) and the canonical_f normal form.  h(lambda) and, on the local
    model, the hyperbolic log coefficients are given on the lambda grids,
    read off the grids' ``_report_table``; one engine call.
    The density must be positive at the orbit: a vanishing one raises
    through :func:`_oriented`, a negative one in the normalization.
    """
    _, flipped = _oriented(sys.density)
    pair = model_pair(sys)
    alpha, beta = _floats(pair.alpha), _floats(pair.beta)
    norm = normalize_invariant(pair)
    n, log_lams = len(lam_values), tuple(log_lam_values) * (sys.kind == CUSP_LOCAL)
    lams, a, d2w, lobes = _report_table(sys.kind, tuple(lam_values), log_lams)
    h_samples = list(zip(lam_values, _lobe_areas(sys, lobes, a[:n]).tolist()))
    alphas = asymptotics._saddle_log_coeff(sys, lams[n:], a[n:], d2w[n:])
    log_coeffs = list(zip(log_lams, alphas.tolist()))
    orientation = {
        "density_positive_at_orbit": not flipped,
        "alpha0_positive": float(alpha.coeffs[0]) > 0,
    }
    return InvariantReport(
        alpha=alpha,
        beta=beta,
        canonical_f=norm["canonical_f"],
        h_samples=h_samples,
        log_coeffs=log_coeffs,
        orientation=orientation,
    )
