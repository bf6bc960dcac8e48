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
period of the invisible cycle up to the full turn factor; its Morse form at
the saddle of a cusp model gives the hyperbolic log coefficient directly."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Density, FibrationModel, _horner, saddles
from .quadrature import integrals, node_jobs
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


def fit_puiseux(samples, order=2, relative_weights: bool = False) -> tuple[PuiseuxTriple, FitReport]:
    """Least-squares fit of Pi samples to a(H)H^(-1/6) + b(H)H^(1/6) + c(H).

    ``order`` is either a common truncation order K or a per-family triple
    (Ka, Kb, Kc).  Requires at least as many samples as coefficients, all at
    H > 0, spanning at least four decades.  ``relative_weights`` divides each
    row by max(1, |value|), appropriate when the quadrature error is
    relative (deep samples grow like H^(-1/6)).
    """
    ka, kb, kc = (order,) * 3 if isinstance(order, int) else (int(k) for k in order)
    n_par = (ka + 1) + (kb + 1) + (kc + 1)
    hs, vals = np.array(sorted((float(h), float(v)) for h, v in samples)).reshape(-1, 2).T
    if np.any(hs <= 0):
        raise ValueError("Puiseux fit requires H > 0 samples")
    if len(hs) < n_par:
        raise ValueError(f"need at least {n_par} samples, got {len(hs)}")
    if hs[-1] / hs[0] < 1e4:
        raise ValueError("samples must span at least four decades in H")

    cols = [hs ** (k - 1.0 / 6.0) for k in range(ka + 1)]
    cols += [hs ** (k + 1.0 / 6.0) for k in range(kb + 1)]
    cols += [hs ** float(k) for k in range(kc + 1)]
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


# -- node model -----------------------------------------------------------------


def node_passage(f, H: float) -> float:
    """Pi(H) = int_H^1 f(H/y, y) dy/y on the node model H = x*y, 0 < H < 1."""
    if not 0.0 < H < 1.0:
        raise ValueError("node passage requires 0 < H < 1")
    return float(integrals(node_jobs(f, [H]))[0])


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


def fit_node_log(f: Density):
    """Fit node-passage samples at H = 0.4 * 2^-m, m < 14, to
    sum a_k H^k ln H + sum b_k H^k, k up to max(2, degree of f).

    Exact model for polynomial densities, so the fit recovers the
    logarithmic polynomial a(H) to quadrature accuracy.  Returns (a, b)
    series.
    """
    order = max(2, f.max_degree)
    hs = np.array(sorted(0.4 * 2.0**-m for m in range(14)))
    vals = integrals(node_jobs(f, hs))
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


def hyperbolic_log_coeff(model: FibrationModel, lam) -> tuple:
    """(alpha, {"lambda", "saddle"}): alpha(lambda), the coefficient of
    ln|H - H_hyp| in the loop period, at the saddle a of the cusp pair
    (``_saddle_log_coeff``); for an array of lambdas, one per lambda from one
    solve."""
    lams = np.asarray(lam, dtype=float)
    flat, a, _, d2w = saddles(model, lams)
    alpha = _saddle_log_coeff(model, flat, a, d2w)
    alpha, a = (v.reshape(lams.shape) if lams.ndim else float(v[0]) for v in (alpha, a))
    return alpha, {"lambda": lam, "saddle": a}


def _saddle_log_coeff(model: FibrationModel, lams: list, a, d2w) -> np.ndarray:
    """-f(0, a, lambda) / sqrt(2 |W''(a)|) at the saddles a of the lambdas
    (``model.saddles``), the Morse form of the node model's residue rule."""
    return -model.density.eval(0.0, a, np.array(lams)) / np.sqrt(2.0 * np.abs(d2w))
