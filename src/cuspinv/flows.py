"""Hamiltonian vector fields and flows for the four-dimensional structure,
period-lattice verification, and the flow-based fiberwise transport map.

The symplectic form is realized through a gauge primitive X(x, y, lambda)
with dX/dx = f and X(0, y, lambda) = 0:

    Omega = dX ^ dy + dlambda ^ dphi
          = f dx^dy + X_lambda dlambda^dy + dlambda^dphi,

which is closed by construction, restricts to omega_lambda = f dx^dy on
lambda-slices, and makes the flow of F = lambda exactly d/dphi (2pi
periodic).  The general closed form differs from this one only by a
phi-shift, which is removable and carries no invariant content, so it is
not parametrized here.

Fields are defined by i_v Omega = -dG.  In components, for G(x, y, lambda):

    v = (-G_y / f,  G_x / f,  0,  G_lambda - X_lambda G_x / f).

The plane part (-H_y / f, H_x / f) of every field reads f, H_x, H_y and any
extra polynomials from one power table per point, in code generated once per
shape (``model._terms_source``), bit for bit ``Density.eval``.  Every flow is
one run of _solve, a DOP853 stepper on Python floats (Hairer, Norsett and
Wanner, Solving ODEs I, II.5) with scipy's tableau (``_TABLEAU``) and step
control, each requested time a step end, its step straight-line code generated
once per shape (``_step``), the H-field or the reduced field in its stages.
Section times are no flows but level integrals (``quadrature.section_time``).

Period lattices follow Gamma(T_p) = Gamma_0 . J^-1(p) with Gamma_0 =
2 pi Z^2 and J the Jacobian of the generators (H, F) with respect to the
actions (I_1, I_2) = (lambda, I_o or I_mu); the second basis vector's
H-time is the loop period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import Density, FibrationModel, StratumError, _bound_at, _terms_source
from .quadrature import _levels, _oval_jobs, area_kernel, form_kernel, integrals
from .quadrature import section_time

FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-12
#: scipy's DOP853 step control: safety factor, step factor bounds, error order 7
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
#: the longest section time accepted: a later backward crossing of N1 is unreached
SECTION_T_MAX = 200.0
#: the step of ``pullback_residual``'s centred stencil; it transports x + STENCIL_H too
STENCIL_H = 1e-5
_VANISHES = "degenerate Omega: density vanishes at the point"


@dataclass
class SymplecticModel:
    """A fibration model equipped with the gauge-primitive symplectic form."""

    model: FibrationModel

    def __post_init__(self):
        if not isinstance(self.model.density, Density):
            raise TypeError("SymplecticModel requires a polynomial Density")
        self._f = f = self.model.density
        self._X_lam = f.antiderivative_x().diff(2)
        self._H = h = self.model.hamiltonian()
        self._H_x, self._H_y, self._H_lam = (h.diff(axis) for axis in range(3))

    def hamiltonian_value(self, point) -> float:
        return self._H.eval(point[0], point[1], point[2])

    def reduced(self) -> "ReducedSystem":
        """The reduced (x, y) dynamics, as taken by :func:`transport_map`."""
        return ReducedSystem(self)

    def _system(self, lam: float, n: int = 4):
        """(field, step) of the H-flow (n = 4) or reduced flow (n = 2): ``_step``, bound."""
        shape, args = _bound_at((self._f, self._H_x, self._H_y, self._H_lam, self._X_lam)[: n + 1], lam)
        return _step(n, shape)(*args)

    def hamiltonian_field(self, point, generator: str = "H") -> np.ndarray:
        """The unique v with i_v Omega = -dG, G in {H, F}."""
        if generator == "F":
            return np.array([0.0, 0.0, 0.0, 1.0])
        if generator != "H":
            raise ValueError("generator must be 'H' or 'F'")
        return np.array(self._system(float(point[2]))[0](0.0, [float(point[0]), float(point[1])]))

    # -- flows ------------------------------------------------------------

    def flow(self, point, generator: str, t) -> np.ndarray:
        """Flow the point by time t along the H- or F-field; for an array of
        times, all of one sign, one row per time from one solve, each time a
        step end of the stepper."""
        point, times = np.asarray(point, dtype=float), np.atleast_1d(np.asarray(t, dtype=float))
        out = np.tile(point, (times.size, 1))
        if generator == "F":
            out[:, 3] += times
        elif times.any():
            # lambda is constant along the flow: one field, read at the start
            out[:] = _solve(self._system(float(point[2])), point.tolist(), times.tolist())
        return out if np.ndim(t) else out[0]


#: DOP853's nodes C, then the nonzero (stage, weight) pairs of the rows of A, of
#: B, E5 and E3: scipy.integrate.DOP853's constants, repr-exact.  E5 and E3
#: vanish on the FSAL stage 13, so no error estimate needs f(t + h, y_new).
_TABLEAU = (
    (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
        0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
        1.0),
    (
        (),
        ((0, 0.05260015195876773),),
        ((0, 0.0197250569845379), (1, 0.0591751709536137)),
        ((0, 0.02958758547680685), (2, 0.08876275643042054)),
        ((0, 0.2413651341592667), (2, -0.8845494793282861), (3, 0.924834003261792)),
        ((0, 0.037037037037037035), (3, 0.17082860872947386), (4, 0.12546768756682242)),
        ((0, 0.037109375), (3, 0.17025221101954405), (4, 0.06021653898045596), (5, -0.017578125)),
        ((0, 0.03709200011850479), (3, 0.17038392571223998), (4, 0.10726203044637328),
            (5, -0.015319437748624402), (6, 0.008273789163814023)),
        ((0, 0.6241109587160757), (3, -3.3608926294469414), (4, -0.868219346841726),
            (5, 27.59209969944671), (6, 20.154067550477894), (7, -43.48988418106996)),
        ((0, 0.47766253643826434), (3, -2.4881146199716677), (4, -0.590290826836843),
            (5, 21.230051448181193), (6, 15.279233632882423), (7, -33.28821096898486),
            (8, -0.020331201708508627)),
        ((0, -0.9371424300859873), (3, 5.186372428844064), (4, 1.0914373489967295),
            (5, -8.149787010746927), (6, -18.52006565999696), (7, 22.739487099350505),
            (8, 2.4936055526796523), (9, -3.0467644718982196)),
        ((0, 2.273310147516538), (3, -10.53449546673725), (4, -2.0008720582248625),
            (5, -17.9589318631188), (6, 27.94888452941996), (7, -2.8589982771350235),
            (8, -8.87285693353063), (9, 12.360567175794303), (10, 0.6433927460157636)),
        ((0, 0.054293734116568765), (5, 4.450312892752409), (6, 1.8915178993145003),  # B
            (7, -5.801203960010585), (8, 0.3111643669578199), (9, -0.1521609496625161),
            (10, 0.20136540080403034), (11, 0.04471061572777259)),
        ((0, 0.01312004499419488), (5, -1.2251564463762044), (6, -0.4957589496572502),  # E5
            (7, 1.6643771824549864), (8, -0.35032884874997366), (9, 0.3341791187130175),
            (10, 0.08192320648511571), (11, -0.022355307863886294)),
        ((0, -0.18980075407240762), (5, 4.450312892752409), (6, 1.8915178993145003),  # E3
            (7, -5.801203960010585), (8, -0.4226823213237919), (9, -0.1521609496625161),
            (10, 0.20136540080403034), (11, 0.02265179219836082)),
    ),
)


@lru_cache(maxsize=64)
def _step(n: int, shape):
    """bind(...) -> (field, step) for n components: field(t, y) -> list, and
    step(t, y, f, h) -> (y_new, err) one DOP853 step from (t, y), f = field(t, y),
    as straight-line code, each stage sum (0.0 + w0 k0 + w1 k1 ...) left to right
    over the tableau's nonzero weights, err scipy's DOP853._estimate_error_norm.
    bind(c0, l0, ...) takes the coefficients of polynomials of the shape
    (``model._bound_at``), written into each stage: for n = 2 (f, H_x, H_y)
    and the plane field (-H_y / f, H_x / f), for n = 4 also H_lambda and X_lambda
    and the H-field.  These read x and y only, so only theirs are stage
    arguments; lambda's sums, of exact zeros, are left out, its state kept as
    it is (a -0.0 stays) and its error terms, 0.0, kept in the mean."""
    c, (*a, b, e5, e3) = _TABLEAU
    params, terms = _terms_source(shape)
    comps = [0, 1, 3] if n == 4 else list(range(n))  # not lambda's zeros

    def dot(pairs, i):
        return "(0.0" + "".join(f" + {w!r} * k{j}_{i}" for j, w in pairs) + ")"

    def field(x, y, out):  # the names of _terms_source are none of u, k, n, s, q
        lines = [f"x1 = {x}", f"y1 = {y}", *terms, "if v0 == 0.0: raise ValueError(VANISHES)"]
        lines += [f"{out[0]} = -v2 / v0", f"{out[1]} = v1 / v0"]
        return lines + ([f"{out[2]} = v3 - v4 * {out[1]}"] if n == 4 else [])

    body = ["".join(f"u{i}, " for i in range(n)) + "= y"]
    body.append("".join(f"k0_{i}, " if i in comps else "_, " for i in range(n)) + "= f")
    for s in range(1, len(c)):
        args = [f"u{i} + {dot(a[s], i)} * h" for i in range(n)]
        body += field(*args[:2], [f"k{s}_{i}" for i in comps])
    body += [f"n{i} = u{i}" + (f" + h * {dot(b, i)}" if i in comps else "") for i in range(n)]
    body += [f"s{i} = ATOL + max(abs(u{i}), abs(n{i})) * RTOL" for i in comps]
    for r, e in (("r5", e5), ("r3", e3)):
        body += [f"q{i} = {dot(e, i)} / s{i}" for i in comps]
        body.append(f"{r} = sqrt((0.0{''.join(f' + q{i} * q{i}' for i in comps)}) / {n})")
    body.append("err = abs(h) * r5 * r5 / sqrt(r5 * r5 + 0.01 * r3 * r3) if r5 or r3 else 0.0")
    body.append(f"return [{', '.join(f'n{i}' for i in range(n))}], err")
    lines = [f"def bind({params}):", "    def field(t, y):"]
    lines += [f"        {v}" for v in field("y[0]", "y[1]", ["vx", "vy", "vphi"])]
    lines.append(f"        return [{', '.join(['vx', 'vy', '0.0', 'vphi'][:n])}]")
    lines += ["    def step(t, y, f, h):", *(f"        {v}" for v in body), "    return field, step"]
    namespace = {"ATOL": FLOW_ATOL, "RTOL": FLOW_RTOL, "sqrt": math.sqrt, "VANISHES": _VANISHES}
    exec(compile("\n".join(lines), f"<DOP853 step of {n}>", "exec"), namespace)
    return namespace["bind"]


def _rms(v, scale) -> float:
    """The root mean square of v / scale, its squares summed left to right."""
    acc = 0.0
    for a, s in zip(v, scale):
        acc = acc + (a / s) * (a / s)
    return math.sqrt(acc / len(v))


def _solve(system, y0, times) -> list:
    """The states of y' = field(t, y), y(0) = y0, at the times (finite, of one
    sign), one list per time, from one DOP853 run in order of |t| on floats.

    system is a bound (field, step) of ``_step``; the field runs here once per
    accepted step (FSAL) and once for the first step's size.  scipy's DOP853
    step control at FLOW_RTOL and FLOW_ATOL, no step cap.  A step that would
    cross a requested time is cut to end on it, the next starting from the size
    proposed before the cut.  RuntimeError where a step falls below 10 ulp(t).
    """
    times = [float(v) for v in times]
    if not all(map(math.isfinite, times)) or min(times) < 0.0 < max(times):
        raise ValueError(f"flow times must be finite and of one sign, got {times}")
    field, step = system
    t_end, t, y, h_abs, out = max(times, key=abs), 0.0, [float(v) for v in y0], None, {}
    for t_stop in sorted(set(times), key=abs):
        while t != t_stop:
            f = field(t, y)  # once per accepted step (FSAL), none on a rejected one
            if h_abs is None:  # select_initial_step, for an error estimator of order 7
                scale = [FLOW_ATOL + abs(v) * FLOW_RTOL for v in y]
                d0, d1 = _rms(y, scale), _rms(f, scale)
                if not math.isfinite(d1):
                    raise RuntimeError("flow integration failed: the field is not finite at t = 0")
                h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_end))
                h = math.copysign(h0, t_end)
                f1 = field(h, [v + h * u for v, u in zip(y, f)])
                d = max(d1, _rms([u - v for u, v in zip(f1, f)], scale) / h0)
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
                h = t_new - t
                y_new, err = step(t, y, f, h)
                if err < 1.0:
                    break
                h_abs, rejected = abs(h) * max(MIN_FACTOR, SAFETY * err**ERROR_EXPONENT), True
            factor = MAX_FACTOR if err == 0.0 else min(MAX_FACTOR, SAFETY * err**ERROR_EXPONENT)
            if not cut:  # a cut step leaves the proposed size to the next
                h_abs = abs(h) * (min(1.0, factor) if rejected else factor)
            t, y = t_new, y_new
        out[t_stop] = y
    return [out[v] for v in times]


def trajectory_csv(
    sm: SymplecticModel, point, generator: str, t_final: float, n_samples: int = 101
) -> str:
    """Sampled trajectory as CSV with columns t, x, y, lambda, phi, H, F."""
    times = np.linspace(0.0, t_final, n_samples)
    lines = ["t,x,y,lambda,phi,H,F"]
    for t, state in zip(times, sm.flow(point, generator, times)):
        h = sm.hamiltonian_value(state)
        lines.append(",".join(f"{v:.12g}" for v in (t, *state, h, state[2])))
    return "\n".join(lines) + "\n"


# -- period lattices ---------------------------------------------------------


@dataclass
class PeriodLattice:
    """2x2 basis of the stationary lattice; rows are (t1, t2) time vectors."""

    basis: np.ndarray
    oval: tuple[float, float] | None = None  # the torus's oval ends (y-, y+), not in the JSON

    def to_json(self) -> dict:
        return {"basis": self.basis.tolist()}


def period_lattice(
    sm: SymplecticModel,
    H: float,
    lam: float,
    stratum: str = "narrow",
    k: int = 0,
) -> PeriodLattice:
    """Stationary lattice of the torus over (H, lambda).

    Gamma = Gamma_0 . J^-1 with Gamma_0 = 2 pi Z^2 and J^-1 the Jacobian of
    the actions (lambda, I_2) in (H, F); the first basis vector is the pure
    2 pi turn of the F-flow, the second has H-time 2 pi dI_2/dH (the loop
    period on narrow tori).

    The derivatives come from the boundary-integral identities
    2 pi dI_2/dH = contour(f dy/2x) and
    2 pi dI_2/dlambda = area(f_lambda) - contour(f W_lambda dy/2x),
    which are exact up to quadrature tolerance (W_lambda = y here).  The
    three integrals share one level and one engine call.
    """
    return _period_lattice(sm, _levels(sm.model, [(H, lam)]), stratum, k)


def _period_lattice(sm: SymplecticModel, level, stratum: str, k: int) -> PeriodLattice:
    """``period_lattice`` on the one level of a level batch."""
    f = sm.model.density
    y_density = Density({(0, 1, 0): 1})
    kernels = (form_kernel(f), form_kernel(f * y_density), area_kernel(f.diff(2)))
    jobs = _oval_jobs(kernels[0], level, stratum).built()
    di_dh, loop_y, area_l = integrals(*(jobs._replace(kernel=k) for k in kernels))
    di_dl = area_l - loop_y
    basis = np.array(
        [[0.0, 2.0 * math.pi], [di_dh, di_dl + 2.0 * math.pi * (k if stratum == "wide" else 0)]]
    )
    return PeriodLattice(basis=basis, oval=(float(jobs.a[0]), float(jobs.b[0])))


def verify_lattice(sm: SymplecticModel, point, t1, t2):
    """Distance between the point and its image under sigma^(t1, t2), the
    H-flow by t1 and the F-flow by t2 (they commute); for arrays of times one
    distance per time vector, all H-times from one solve.

    Lattice vectors must return to the start; the phi-component is compared
    modulo 2 pi.
    """
    t1, t2 = np.asarray(t1, dtype=float), np.atleast_1d(np.asarray(t2, dtype=float))
    delta = np.atleast_2d(sm.flow(point, "H", t1)) - np.asarray(point, dtype=float)
    delta[:, 3] = (delta[:, 3] + t2 + math.pi) % (2.0 * math.pi) - math.pi
    dist = np.sqrt((delta**2).sum(axis=1))
    return dist.tolist() if t1.ndim else float(dist[0])


# -- reduced flows and the transport map ----------------------------------------


class ReducedSystem:
    """Reduced (x, y) Hamiltonian dynamics of a SymplecticModel at fixed lambda."""

    def __init__(self, sm: SymplecticModel):
        self.sm = sm

    def reduced(self) -> "ReducedSystem":
        return self

    def hamiltonian_value(self, point) -> float:
        return self.sm.hamiltonian_value(point)

    def reduced_flow(self, xy, lam: float, t: float) -> np.ndarray:
        (out,) = _solve(self.sm._system(lam, 2), xy, [t])
        return np.array(out)

    def section_time(self, xy, lam):
        """Smallest t > 0, at most SECTION_T_MAX, with the backward flow of xy
        on N1 = {x = x0}: ``quadrature.section_time``; for an (n, 2) array,
        with one lambda or one per row, one time per row."""
        xy = np.asarray(xy, dtype=float)
        t = section_time(self.sm.model, xy[..., 0], xy[..., 1], lam)
        if np.any(t > SECTION_T_MAX):
            raise StratumError("trajectory does not reach the section")
        return t

    def density_eval(self, x, y, lam):
        return self.sm._f.eval(x, y, lam)


def transport_map(sys1, sys2, point) -> np.ndarray:
    """psi(Q) = sigma~^(t(Q) - t~(Q))(Q) on the reduced dynamics.

    t resp. t~ are the H-flow times from the section N1 = {x = x0} to Q for
    the two systems, x0 each model's own; N1 is fixed pointwise and fibers
    are preserved.  The lambda and phi components pass through unchanged (the
    phi-shift freedom is the removable gauge).  Both systems must expose the
    reduced-flow protocol through ``reduced()``.  An (n, >= 3) array gives an
    image per row, each system's times from one root solve and one engine call.
    """
    s1, s2 = sys1.reduced(), sys2.reduced()
    point = np.asarray(point, dtype=float)
    out = np.atleast_2d(point).copy()
    lam = out[:, 2] if out.shape[1] > 2 else np.zeros(len(out))
    dt = s1.section_time(out[:, :2], lam) - s2.section_time(out[:, :2], lam)
    for row, row_lam, t in zip(out, lam.tolist(), dt.tolist()):
        row[:2] = s2.reduced_flow(row[:2], row_lam, t)
    return out if point.ndim == 2 else out[0]


def pullback_residual(sys1, sys2, point):
    """(Phi^* omega~ - omega) on the (x, y) bivector at the point, plus the
    fiber drift, for Phi the transport map between the systems; for an
    (n, >= 3) array of points one such dict per point, the 5n stencil points
    of all of them transported by one ``transport_map``.

    The remaining coordinate bivectors either vanish identically in the
    gauge-primitive representation ((x, phi), (y, phi)) or match exactly
    ((lambda, phi)); the (x, lambda), (y, lambda) components carry the
    removable phi-shift terms and are not invariants.
    """
    s1, s2 = sys1.reduced(), sys2.reduced()
    point = np.asarray(point, dtype=float)
    rows = np.atleast_2d(point)
    lams = rows[:, 2] if rows.shape[1] > 2 else np.zeros(len(rows))
    # each point and its four stencil points at distance h
    xy, h = rows[:, :2], STENCIL_H
    stencil = np.stack((xy, xy + (h, 0.0), xy - (h, 0.0), xy + (0.0, h), xy - (0.0, h)), axis=1)
    q = np.column_stack((stencil.reshape(-1, 2), np.repeat(lams, 5), np.zeros(5 * len(rows))))
    moved = transport_map(s1, s2, q)[:, :2].reshape(-1, 5, 2)
    out = []
    for (x, y), lam, (base, x_plus, x_minus, y_plus, y_minus) in zip(xy, lams.tolist(), moved):
        jx, jy = (x_plus - x_minus) / (2.0 * h), (y_plus - y_minus) / (2.0 * h)
        det = float(jx[0] * jy[1] - jx[1] * jy[0])
        res = float(s2.density_eval(base[0], base[1], lam) * det - s1.density_eval(x, y, lam))
        drift = float(abs(s2.hamiltonian_value((*base, lam)) - s1.hamiltonian_value((x, y, lam))))
        out.append({"xy_residual": res, "det": det, "fiber_drift": drift, "image": base.tolist()})
    return out if point.ndim == 2 else out[0]
