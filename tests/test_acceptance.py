"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run pytest with -s to see the lines for passing criteria).

Tolerances are pinned here and match the stated contracts; nothing is
deferred to later calibration.
"""

import math
import time
from fractions import Fraction

import numpy as np

from cuspinv import asymptotics as asy
from cuspinv import brieskorn
from cuspinv.equivalence import (
    RescaleMap,
    cusp_torus_equivalent,
    fitted_pair,
    parabolic_equivalent,
    verify_relations_numeric,
)
from cuspinv.flows import (
    ReducedSystem,
    SymplecticModel,
    period_lattice,
    pullback_residual,
    verify_lattice,
)
from cuspinv.model import (
    Density,
    base_change_parabolic_test,
    bifurcation_diagram,
    cusp_compact_model,
    cusp_local_model,
    is_parabolic,
    one_dof_model,
)
from cuspinv.quadrature import loop_action, loop_period, oval_bounds, passage_time
from cuspinv.series import PuiseuxTriple, TruncatedSeries, phi_r_apply, phi_r_invert
from cuspinv.specfun import puiseux_constants

from oracles import BumpPushforward, reference_Jj

F_ONE = Density.constant(1)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_puiseux_constants():
    t0 = time.monotonic()
    c = puiseux_constants()
    grid = [0.1 * 4.0**-m for m in range(11)]

    m1 = one_dof_model(F_ONE)
    fit1, _ = asy.fit_puiseux([(h, passage_time(m1, h)) for h in grid], order=2)
    rel_a = abs(fit1.a.coeffs[0] - c["C0"]) / c["C0"]
    abs_b = abs(fit1.b.coeffs[0])

    my = one_dof_model(Density({(0, 1, 0): 1}))
    fity, _ = asy.fit_puiseux([(h, passage_time(my, h)) for h in grid], order=2)
    rel_b1 = abs(fity.b.coeffs[0] - c["C1"]) / abs(c["C1"])

    elapsed = time.monotonic() - t0
    ok = rel_a <= 1e-5 and abs_b <= 1e-5 and rel_b1 <= 1e-4 and elapsed < 10.0
    _report(
        1,
        ok,
        f"a0 rel {rel_a:.2e} (<=1e-5), |b0| {abs_b:.2e} (<=1e-5), "
        f"f=y b0 rel {rel_b1:.2e} (<=1e-4), {elapsed:.1f}s (<10s)",
    )


def _random_density_deg5(rng) -> Density:
    terms = {}
    for _ in range(8):
        e = (int(rng.integers(0, 6)), int(rng.integers(0, 6)), 0)
        if sum(e) <= 5:
            terms[e] = terms.get(e, 0) + round(float(rng.uniform(-1, 1)), 3)
    terms[(0, 0, 0)] = max(0.5, abs(terms.get((0, 0, 0), 0.0)) + 0.5)
    return Density(terms)


def test_criterion_02_brieskorn_quadrature_oracle():
    t0 = time.monotonic()
    c = puiseux_constants()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        f = _random_density_deg5(rng)
        pair = brieskorn.reduce(f)
        triple, _ = fitted_pair(f)
        for k in range(3):
            want_a = c["C0"] * float(pair.alpha.coeffs[k])
            want_b = c["C1"] * float(pair.beta.coeffs[k])
            # relative tolerance with a small floor for vanishing coefficients
            worst = max(worst, abs(triple.a.coeffs[k] - want_a) / max(abs(want_a), 1e-2))
            worst = max(worst, abs(triple.b.coeffs[k] - want_b) / max(abs(want_b), 1e-2))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-3 and elapsed < 120.0
    _report(2, ok, f"worst rel err {worst:.2e} (<=1e-3) over 10 seeded densities, {elapsed:.1f}s (<120s)")


def test_criterion_03_hypergeometric_closed_form():
    worst = 0.0
    for density, j in ((F_ONE, 0), (Density({(0, 1, 0): 1}), 1)):
        m = one_dof_model(density)
        for H in (0.1, 0.5, 1.0):
            worst = max(worst, abs(passage_time(m, H) - reference_Jj(H, j)))
    _report(3, worst <= 1e-8, f"max |Pi - J_j| {worst:.2e} (<=1e-8)")


def test_criterion_04_derivative_identity():
    step = 1e-4
    worst = 0.0
    for density in (F_ONE, Density({(0, 0, 0): 1, (0, 1, 0): 0.1, (2, 0, 0): 0.05})):
        m = cusp_local_model(density)
        for lam in np.linspace(-0.5, -0.1, 5):
            h_hyp = 2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
            for t in np.linspace(-0.45, 0.45, 5):
                h = float(t * h_hyp)
                d_i = (loop_action(m, h + step, lam) - loop_action(m, h - step, lam)) / (
                    2.0 * step
                )
                pc = loop_period(m, float(h), float(lam))
                worst = max(worst, abs(2.0 * math.pi * d_i - pc) / pc)
    _report(4, worst <= 1e-5, f"worst rel err of Pi_o = 2pi dI_o/dH: {worst:.2e} (<=1e-5)")


def test_criterion_05_action_boundary_and_monotonicity():
    m = cusp_local_model(F_ONE)
    monotone = True
    boundary_ok = True
    worst_boundary = 0.0
    for lam in np.linspace(-0.5, -0.1, 5):
        h_hyp = 2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
        hs = np.linspace(-0.9, 0.9, 9) * h_hyp
        vals = [loop_action(m, float(h), float(lam)) for h in hs]
        monotone = monotone and all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
        v_edge = loop_action(m, -h_hyp + 1e-3, float(lam))
        worst_boundary = max(worst_boundary, v_edge)
        boundary_ok = boundary_ok and v_edge < 1e-3
    ok = monotone and boundary_ok
    _report(
        5,
        ok,
        f"I_o monotone on 5 slices: {monotone}; I_o at 1e-3 from elliptic branch "
        f"max {worst_boundary:.2e} (<1e-3)",
    )


def test_criterion_06_rescaling_relations():
    g = TruncatedSeries([1.0, 0.5], order=4)
    worst = 0.0
    for f in (Density({(0, 0, 0): 1, (0, 1, 0): 1}), F_ONE):
        rmap = RescaleMap(g)
        ftilde = rmap.pushforward_density(f)
        res = verify_relations_numeric(f, ftilde, g)
        worst = max(worst, res["max_abs"])
    _report(
        6,
        worst <= 1e-4,
        f"relation residuals (first 3 coefficients, both families) max {worst:.2e} (<1e-4)",
    )


def test_criterion_07_node_log_identity():
    densities = [
        F_ONE,
        Density({(0, 0, 0): 1, (1, 1, 0): 1}),
        Density({(0, 0, 0): 1, (1, 1, 0): 1, (2, 2, 0): 1}),
        Density({(0, 2, 0): 1}),
    ]
    ok = True
    worst = 0.0
    for f in densities:
        rep = asy.verify_node_log_identity(f, [0.01, 0.05], tol=1e-4)
        ok = ok and rep["ok"]
        worst = max(worst, max(e["abs_err"] for e in rep["points"]))
    # exact unit-density passage
    log_err = max(
        abs(asy.node_passage(F_ONE, h) + math.log(h)) for h in (0.01, 0.05, 0.3)
    )
    ok = ok and log_err < 1e-10
    _report(
        7,
        ok,
        f"log-coefficient vs residue rule worst {worst:.2e} (<=1e-4); "
        f"|Pi + ln H| {log_err:.2e} (quad tol)",
    )


def test_criterion_08_period_lattice():
    t0 = time.monotonic()
    worst_return = 0.0
    worst_half = math.inf
    for density in (F_ONE, Density({(0, 0, 0): 1, (0, 1, 0): 0.1})):
        m = cusp_compact_model(density)
        sm = SymplecticModel(m)
        for (h, lam, stratum) in ((0.05, 0.02, "wide"), (0.0, -0.05, "narrow")):
            lat = period_lattice(sm, h, lam, stratum)
            a, b = oval_bounds(m, h, lam, stratum)
            y_mid = 0.5 * (a + b)
            wc = m.potential_coeffs(lam)
            x = math.sqrt(max(h - np.polyval(wc, y_mid), 0.0))
            p0 = np.array([x, y_mid, lam, 0.0])
            for row in lat.basis:
                worst_return = max(worst_return, verify_lattice(sm, p0, row[0], row[1]))
            worst_half = min(
                worst_half,
                verify_lattice(sm, p0, lat.basis[1][0] / 2.0, lat.basis[1][1] / 2.0),
            )
    elapsed = time.monotonic() - t0
    ok = worst_return < 1e-6 and worst_half > 1e-2 and elapsed < 180.0
    _report(
        8,
        ok,
        f"lattice returns within {worst_return:.2e} (<1e-6), half-vectors miss by "
        f">= {worst_half:.2e} (>1e-2), {elapsed:.1f}s (<180s)",
    )


def test_criterion_09_transport_map():
    sm = SymplecticModel(cusp_local_model(F_ONE))
    push = BumpPushforward(sm, amplitude=0.2)
    rs = ReducedSystem(sm)
    h_poly = sm.model.hamiltonian()
    points = []
    for lam in (-0.35, -0.25, -0.15, -0.2):
        for t in (0.3, 0.7, 1.1, 1.5, 1.9):
            h_level = 0.2 * 2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
            ys = min(np.roots([1, 0, lam, -(h_level - 1.0)]).real)
            xy = rs.reduced_flow((1.0, float(ys)), lam, t)
            points.append(np.array([xy[0], xy[1], lam, 0.0]))
    assert len(points) == 20
    worst_resid = 0.0
    worst_drift = 0.0
    for q in points:
        res = pullback_residual(sm, push, q)
        worst_resid = max(worst_resid, abs(res["xy_residual"]))
        worst_drift = max(worst_drift, res["fiber_drift"])
        img = res["image"]
        worst_drift = max(
            worst_drift, abs(h_poly.eval(img[0], img[1], q[2]) - h_poly.eval(*q[:3]))
        )
    ok = worst_resid < 1e-4 and worst_drift < 1e-9
    _report(
        9,
        ok,
        f"pullback residual max {worst_resid:.2e} (<1e-4) at 20 points, "
        f"fiber drift max {worst_drift:.2e} (<1e-9)",
    )


def test_criterion_10_parabolic_checker_invariance():
    h_std = Density({(2, 0, 0): 1, (0, 3, 0): 1, (0, 1, 1): 1})
    h_y4 = Density({(2, 0, 0): 1, (0, 4, 0): 1, (0, 1, 1): 1})
    f_lam = Density({(0, 0, 1): 1})
    ok = is_parabolic(h_std, f_lam, (0, 0, 0)).verdict == "parabolic"
    ok = ok and is_parabolic(h_y4, f_lam, (0, 0, 0)).verdict == "fails_ii"

    rng = np.random.default_rng(7)
    invariant = True
    count = 0
    while count < 20:
        ht = {}
        ft = {}
        for i in range(4):
            for j in range(4 - i):
                if i == j == 0:
                    continue
                c1, c2 = int(rng.integers(-3, 4)), int(rng.integers(-3, 4))
                if c1:
                    ht[(i, j, 0)] = c1
                if c2:
                    ft[(i, j, 0)] = c2
        ht[(1, 0, 0)] = ht.get((1, 0, 0), 0) or 1
        phi = (Density(ht), Density(ft))
        jac = (
            phi[0].diff(0)(0, 0) * phi[1].diff(1)(0, 0)
            - phi[0].diff(1)(0, 0) * phi[1].diff(0)(0, 0)
        )
        if abs(jac) < 0.5 or abs(phi[1].diff(1)(0, 0)) < 0.5:
            continue
        before, after = base_change_parabolic_test(h_std, f_lam, (0, 0, 0), phi)
        invariant = invariant and before.verdict == after.verdict == "parabolic"
        count += 1
    ok = ok and invariant
    _report(
        10,
        ok,
        f"standard parabolic, y^4 fails(ii), verdict invariant over 20 base changes: {invariant}",
    )


def test_criterion_11_equivalence_verdicts():
    m = cusp_compact_model(F_ONE)
    v_self = cusp_torus_equivalent(m, m)
    ok = v_self.equivalent and v_self.k == 0

    v_scaled = parabolic_equivalent(
        cusp_local_model(F_ONE), cusp_local_model(Density.constant(2))
    )
    ok = ok and not v_scaled.equivalent

    v_shift = cusp_torus_equivalent(m, m, mu_shift2=1)
    ok = ok and v_shift.equivalent and v_shift.k == -1
    _report(
        11,
        ok,
        f"self k={v_self.k}; f vs 2f equivalent={v_scaled.equivalent}; "
        f"mu-shifted k={v_shift.k}",
    )


def test_criterion_12_phi_r_and_uniqueness():
    series = TruncatedSeries([Fraction(3, 7), Fraction(-2, 5), Fraction(11, 13), Fraction(1, 9)])
    exact = all(
        phi_r_invert(phi_r_apply(series, r), r).coeffs == series.coeffs
        for r in (Fraction(5, 6), Fraction(7, 6), Fraction(-1, 2), Fraction(13, 6))
    )

    rng = np.random.default_rng(12)
    grid = [0.2 * 4.0**-m for m in range(9)]
    separated = True
    for _ in range(25):
        t1 = PuiseuxTriple(
            TruncatedSeries(rng.standard_normal(3).tolist()),
            TruncatedSeries(rng.standard_normal(3).tolist()),
            TruncatedSeries(rng.standard_normal(3).tolist()),
        )
        t2 = PuiseuxTriple(
            TruncatedSeries(rng.standard_normal(3).tolist()),
            TruncatedSeries(rng.standard_normal(3).tolist()),
            TruncatedSeries(rng.standard_normal(3).tolist()),
        )
        dc = max(
            float(np.abs(np.array(a.coeffs) - np.array(b.coeffs)).max())
            for a, b in ((t1.a, t2.a), (t1.b, t2.b), (t1.c, t2.c))
        )
        dv = max(abs(t1.eval(h) - t2.eval(h)) for h in grid)
        separated = separated and dv > 1e-6 * dc
    ok = exact and separated
    _report(12, ok, f"phi_r roundtrips exact: {exact}; distinct triples separate: {separated}")
