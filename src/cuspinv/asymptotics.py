"""Extraction of Puiseux and logarithmic asymptotics from sampled period
data, and the node-model complex-period computation.

Puiseux fits use the basis {H^(k-1/6), H^(k+1/6), H^k} on a column-scaled
design matrix; fractional-power bases are badly conditioned, so samples are
expected on a geometric grid spanning several decades and the condition
number is reported alongside the coefficients.

The node model H = x*y carries the exact relations

    Pi(H)     = int_H^1 f(H/y, y) dy/y  =  a(H) ln H + b(H),
    Pi_hat(H) = -2 pi i * sum_m c_mm H^m      (residue over the cycle
                 x = H e^(it), y = e^(-it)),
    a(H)      = (1/(2 pi i)) Pi_hat(H)        (for these orientations),

so the logarithmic coefficient of the real passage equals the complex
period of the invisible cycle up to the full turn factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad

from .model import CUSP_LOCAL, Density, FibrationModel, bifurcation_diagram
from .quadrature import QUAD_EPSABS, QUAD_EPSREL, QUAD_LIMIT, loop_period
from .series import PuiseuxTriple, TruncatedSeries

COND_FLAG = 1e12


@dataclass
class FitReport:
    """Diagnostics of a least-squares asymptotics fit."""

    residual_rms: float
    cond: float
    flagged: bool
    n_samples: int
    grid: list[float] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "residual_rms": self.residual_rms,
            "cond": self.cond,
            "flagged": self.flagged,
            "n_samples": self.n_samples,
            "grid": list(self.grid),
        }


def _orders(order) -> tuple[int, int, int]:
    if isinstance(order, int):
        return order, order, order
    ka, kb, kc = order
    return int(ka), int(kb), int(kc)


def fit_puiseux(samples, order=2, relative_weights: bool = False) -> tuple[PuiseuxTriple, FitReport]:
    """Least-squares fit of Pi samples to a(H)H^(-1/6) + b(H)H^(1/6) + c(H).

    ``order`` is either a common truncation order K or a per-family triple
    (Ka, Kb, Kc).  Requires at least as many samples as coefficients, all at
    H > 0, spanning at least four decades.  ``relative_weights`` divides each
    row by max(1, |value|), appropriate when the quadrature error is
    relative (deep samples grow like H^(-1/6)).
    """
    ka, kb, kc = _orders(order)
    n_par = (ka + 1) + (kb + 1) + (kc + 1)
    pts = sorted((float(h), float(v)) for h, v in samples)
    hs = np.array([p[0] for p in pts])
    vals = np.array([p[1] for p in pts])
    if np.any(hs <= 0):
        raise ValueError("Puiseux fit requires H > 0 samples")
    if len(hs) < n_par:
        raise ValueError(f"need at least {n_par} samples, got {len(hs)}")
    if hs[-1] / hs[0] < 1e4:
        raise ValueError("samples must span at least four decades in H")

    cols = []
    for k in range(ka + 1):
        cols.append(hs ** (k - 1.0 / 6.0))
    for k in range(kb + 1):
        cols.append(hs ** (k + 1.0 / 6.0))
    for k in range(kc + 1):
        cols.append(hs ** float(k))
    design = np.column_stack(cols)
    w = 1.0 / np.maximum(1.0, np.abs(vals)) if relative_weights else np.ones_like(vals)
    design_w = design * w[:, None]
    scale = np.abs(design_w).max(axis=0)
    design_s = design_w / scale
    coef_s, _, _, _ = np.linalg.lstsq(design_s, vals * w, rcond=None)
    coef = coef_s / scale
    cond = float(np.linalg.cond(design_s))
    resid = design @ coef - vals
    report = FitReport(
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        cond=cond,
        flagged=cond > COND_FLAG,
        n_samples=len(hs),
        grid=[float(h) for h in hs],
    )
    triple = PuiseuxTriple(
        a=TruncatedSeries(coef[: ka + 1].tolist()),
        b=TruncatedSeries(coef[ka + 1 : ka + kb + 2].tolist()),
        c=TruncatedSeries(coef[ka + kb + 2 :].tolist()),
    )
    return triple, report


def extract_log_coeff(samples, min_points: int = 7) -> tuple[float, dict]:
    """Coefficient alpha of value = alpha*ln|s| + beta(s) from halving samples.

    Consecutive differences give -alpha*ln 2 up to O(s); the Richardson table
    with ratio 2 removes the analytic drift order by order.  A diagnostic
    dict reports the table and whether the last corrections still shrink.
    """
    pts = sorted(((float(s), float(v)) for s, v in samples), reverse=True)
    if len(pts) < min_points:
        raise ValueError(f"need at least {min_points} halving samples")
    s = np.array([p[0] for p in pts])
    ratios = s[:-1] / s[1:]
    if np.any(np.abs(ratios - 2.0) > 1e-6):
        raise ValueError("samples must sit on a halving grid s_m = s_0 * 2^-m")
    v = np.array([p[1] for p in pts])
    d = (v[1:] - v[:-1]) / (-math.log(2.0))
    table = [d]
    col = d
    level = 1
    while len(col) > 1:
        fac = 2.0**level
        col = (fac * col[1:] - col[:-1]) / (fac - 1.0)
        table.append(col)
        level += 1
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


# -- node model -----------------------------------------------------------------


def node_passage(f, H: float) -> float:
    """Pi(H) = int_H^1 f(H/y, y) dy/y on the node model H = x*y, 0 < H < 1."""
    if not 0.0 < H < 1.0:
        raise ValueError("node passage requires 0 < H < 1")
    fe = f.eval if isinstance(f, Density) else f

    def integrand(y: float) -> float:
        return fe(H / y, y, 0.0) / y

    val, _ = quad(
        integrand, H, 1.0, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL, limit=QUAD_LIMIT
    )
    return val


def node_complex_period(f: Density, H: float) -> complex:
    """Pi_hat(H) over the cycle x = H e^(it), y = e^(-it).

    The Gelfand-Leray form is f dy/y, so for f = sum c_mn x^m y^n only the
    diagonal terms survive: Pi_hat = -2 pi i sum_m c_mm H^m.
    """
    acc = 0.0
    for (m, n, k), c in f.terms.items():
        if k == 0 and m == n:
            acc += float(c) * H**m
    return -2.0j * math.pi * acc


def fit_node_log(f, h_grid=None, order: int | None = None):
    """Fit node-passage samples to sum a_k H^k ln H + sum b_k H^k.

    Exact model for polynomial densities, so the fit recovers the
    logarithmic polynomial a(H) to quadrature accuracy.  Returns (a, b)
    series.
    """
    if order is None:
        deg = f.max_degree if isinstance(f, Density) else 4
        order = max(2, deg)
    if h_grid is None:
        h_grid = [0.4 * 2.0**-m for m in range(14)]
    hs = np.array(sorted(float(h) for h in h_grid))
    vals = np.array([node_passage(f, h) for h in hs])
    cols = [hs**k * np.log(hs) for k in range(order + 1)]
    cols += [hs**k for k in range(order + 1)]
    design = np.column_stack(cols)
    scale = np.abs(design).max(axis=0)
    coef, _, _, _ = np.linalg.lstsq(design / scale, vals, rcond=None)
    coef = coef / scale
    return (
        TruncatedSeries(coef[: order + 1].tolist()),
        TruncatedSeries(coef[order + 1 :].tolist()),
    )


def verify_node_log_identity(f: Density, h_grid, tol: float = 1e-4) -> dict:
    """Check a(H) = (1/(2 pi i)) Pi_hat(H) pointwise on the grid.

    The log coefficient a is fitted from node-passage samples; the
    prediction comes from the residue rule.  The report records the
    orientation convention (positive branch of the +- sign).
    """
    a_series, _ = fit_node_log(f)
    entries = []
    ok = True
    for h in h_grid:
        fitted = float(a_series.eval(h))
        predicted = (node_complex_period(f, h) / (2.0j * math.pi)).real
        err = abs(fitted - predicted)
        good = err <= tol
        ok = ok and good
        entries.append(
            {"H": float(h), "a_fit": fitted, "a_residue": predicted, "abs_err": err, "ok": good}
        )
    return {"ok": ok, "sign": "+", "tol": tol, "points": entries}


# -- hyperbolic-branch log coefficients ------------------------------------------


def hyperbolic_log_coeff(
    model: FibrationModel,
    lam: float,
    s0_frac: float = 0.35,
    levels: int = 10,
) -> tuple[float, dict]:
    """Log coefficient alpha(lambda) of the period blow-up at Sigma_hyp.

    Approaches the hyperbolic branch from the swallow-tail interior on the
    halving grid H = H_hyp - s0*2^-m and extracts the coefficient of
    ln|3 sqrt(3) H - 2(-lambda)^(3/2)| (constants inside the log are
    absorbed into the analytic part).
    """
    if model.kind != CUSP_LOCAL:
        raise ValueError("hyperbolic log extraction implemented on the local model")
    if lam >= 0:
        raise ValueError("requires lambda < 0")
    h_ell, h_hyp = bifurcation_diagram(model, domain_radius=math.inf).branch_values(lam)
    s0 = s0_frac * (h_hyp - h_ell)
    samples = []
    for m in range(levels):
        s = s0 * 2.0**-m
        samples.append((s, loop_period(model, h_hyp - s, lam)))
    alpha, diag = extract_log_coeff(samples, min_points=min(7, levels))
    diag["lambda"] = lam
    diag["H_hyp"] = h_hyp
    return alpha, diag
