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

The plane part (-H_y / f, H_x / f) of every field comes from the one field
SymplecticModel._plane_field builds per lambda and solve, which reads f, H_x,
H_y and a caller's extra polynomials from one power table per call
(``model.densities_at``, bit for bit ``Density.eval``).  The right-hand sides
take and return lists of floats, and every flow is one run of _solve, a
DOP853 stepper on Python floats (Hairer, Norsett and Wanner, Solving ODEs I,
II.5) with scipy's tableau and step control, each requested time a step end.
Section times are no flows but level integrals (``quadrature.section_time``).

Period lattices follow Gamma(T_p) = Gamma_0 . J^-1(p) with Gamma_0 =
2 pi Z^2 and J the Jacobian of the generators (H, F) with respect to the
actions (I_1, I_2) = (lambda, I_o or I_mu); the second basis vector's
H-time is the loop period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .model import Density, FibrationModel, densities_at
from .quadrature import _built, _levels, _oval_jobs, area_kernel, form_kernel, integrals
from .quadrature import section_time

FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-12
#: scipy's DOP853 step control: safety factor, step factor bounds, error order 7
SAFETY, MIN_FACTOR, MAX_FACTOR, ERROR_EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0
#: the longest section time accepted: a later backward crossing of N1 is unreached
SECTION_T_MAX = 200.0


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

    def _plane_field(self, lam: float, extra=()):
        """field(x, y) = [-H_y / f, H_x / f, f, *(g(x, y) for g in extra)] at
        this lambda, all from one power table per call; ValueError where f = 0."""
        values = densities_at((self._f, self._H_x, self._H_y, *extra), lam)

        def field(x, y):
            v = values(x, y)  # [f, H_x, H_y, *extra], rewritten in place
            fv = v[0]
            if fv == 0.0:
                raise ValueError("degenerate Omega: density vanishes at the point")
            v[:3] = -v[2] / fv, v[1] / fv, fv
            return v

        return field

    def _h_field(self, lam: float):
        """field(x, y): the H-field at this lambda as a list, its lambda component 0."""
        plane = self._plane_field(lam, (self._H_lam, self._X_lam))

        def field(x, y):
            vx, vy, _, h_lam, x_lam = plane(x, y)
            return [vx, vy, 0.0, h_lam - x_lam * vy]

        return field

    def hamiltonian_field(self, point, generator: str = "H") -> np.ndarray:
        """The unique v with i_v Omega = -dG, G in {H, F}."""
        if generator == "F":
            return np.array([0.0, 0.0, 0.0, 1.0])
        if generator != "H":
            raise ValueError("generator must be 'H' or 'F'")
        return np.array(self._h_field(float(point[2]))(float(point[0]), float(point[1])))

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
            field = self._h_field(float(point[2]))
            out[:] = _solve(lambda _t, s: field(s[0], s[1]), point.tolist(), times.tolist())
        return out if np.ndim(t) else out[0]


@lru_cache(maxsize=None)
def _tableau():
    """DOP853's C and the rows of A, then B, E5 and E3, as nonzero (stage,
    weight) pairs, read once from scipy.integrate.DOP853.  E5 and E3 vanish on
    the FSAL stage 13, so no error estimate needs f(t + h, y_new)."""
    from scipy.integrate import DOP853  # here, so that importing cuspinv does not load scipy

    weights = [row[:s] for s, row in enumerate(DOP853.A)] + [DOP853.B, DOP853.E5, DOP853.E3]
    pairs = tuple(tuple((j, w) for j, w in enumerate(v.tolist()) if w) for v in weights)
    return tuple(DOP853.C.tolist()), pairs


def _dot(pairs, k) -> float:
    """The sum of w k[j] over the (j, w) pairs, left to right."""
    acc = 0.0
    for j, w in pairs:
        acc = acc + w * k[j]
    return acc


def _rms(v, scale) -> float:
    """The root mean square of v / scale, its squares summed left to right."""
    r = [a / s for a, s in zip(v, scale)]
    return math.sqrt(_dot(enumerate(r), r) / len(r))


def _solve(rhs, y0, times) -> list:
    """The states of y' = rhs(t, y), y(0) = y0, at the times (finite, of one
    sign), one list per time, from one DOP853 run in order of |t| on floats.

    rhs takes and returns lists.  The step control is scipy's DOP853 at
    FLOW_RTOL and FLOW_ATOL with no step cap.  A step that would cross a
    requested time is cut to end on it, and the next starts from the size
    proposed before the cut.  RuntimeError where a step falls below 10 ulp(t).
    """
    times = [float(v) for v in times]
    if not all(map(math.isfinite, times)) or min(times) < 0.0 < max(times):
        raise ValueError(f"flow times must be finite and of one sign, got {times}")
    c, (*a, b, e5, e3) = _tableau()
    t_end, t, y, h_abs, out = max(times, key=abs), 0.0, [float(v) for v in y0], None, {}
    for t_stop in sorted(set(times), key=abs):
        while t != t_stop:
            f = rhs(t, y)  # once per accepted step (FSAL), none on a rejected one
            if h_abs is None:  # select_initial_step, for an error estimator of order 7
                scale = [FLOW_ATOL + abs(v) * FLOW_RTOL for v in y]
                d0, d1 = _rms(y, scale), _rms(f, scale)
                if not math.isfinite(d1):
                    raise RuntimeError("flow integration failed: the field is not finite at t = 0")
                h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, abs(t_end))
                h = math.copysign(h0, t_end)
                f1 = rhs(h, [v + h * u for v, u in zip(y, f)])
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
                h, k = t_new - t, [[v] for v in f]  # the stages, per component
                for c_s, row in zip(c[1:], a[1:]):
                    stage = rhs(t + c_s * h, [yc + _dot(row, kc) * h for yc, kc in zip(y, k)])
                    for kc, v in zip(k, stage):
                        kc.append(v)
                y_new = [yc + h * _dot(b, kc) for yc, kc in zip(y, k)]
                scale = [FLOW_ATOL + max(abs(u), abs(v)) * FLOW_RTOL for u, v in zip(y, y_new)]
                r5, r3 = (_rms([_dot(e, kc) for kc in k], scale) for e in (e5, e3))
                # scipy's DOP853._estimate_error_norm, written with root mean squares
                err = abs(h) * r5 * r5 / math.sqrt(r5 * r5 + 0.01 * r3 * r3) if r5 or r3 else 0.0
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
    f, level = sm.model.density, _levels(sm.model, [(H, lam)])
    y_density = Density({(0, 1, 0): 1})
    kernels = (form_kernel(f), form_kernel(f * y_density), area_kernel(f.diff(2)))
    (job,) = _built(_oval_jobs(kernels[:1], level, stratum))
    jobs = [replace(job, kernel=k) for k in kernels]
    di_dh, loop_y, area_l = integrals(jobs)
    di_dl = area_l - loop_y
    basis = np.array(
        [[0.0, 2.0 * math.pi], [di_dh, di_dl + 2.0 * math.pi * (k if stratum == "wide" else 0)]]
    )
    return PeriodLattice(basis=basis, oval=(jobs[0].a, jobs[0].b))


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

    def rhs(self, lam: float):
        field = self.sm._plane_field(lam)
        return lambda _t, state: field(state[0], state[1])[:2]

    def reduced_flow(self, xy, lam: float, t: float) -> np.ndarray:
        (out,) = _solve(self.rhs(lam), xy, [t])
        return np.array(out)

    def section_time(self, xy, lam):
        """Smallest t > 0, at most SECTION_T_MAX, with the backward flow of xy
        on N1 = {x = x0}: ``quadrature.section_time``; for an (n, 2) array,
        with one lambda or one per row, one time per row."""
        xy = np.asarray(xy, dtype=float)
        t = section_time(self.sm.model, xy[..., 0], xy[..., 1], lam)
        if np.any(t > SECTION_T_MAX):
            raise ValueError("trajectory does not reach the section")
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
    image per row, each system's times from one engine call.
    """
    s1, s2 = sys1.reduced(), sys2.reduced()
    point = np.asarray(point, dtype=float)
    out = np.atleast_2d(point).copy()
    lam = out[:, 2] if out.shape[1] > 2 else np.zeros(len(out))
    dt = s1.section_time(out[:, :2], lam) - s2.section_time(out[:, :2], lam)
    for row, row_lam, t in zip(out, lam.tolist(), dt.tolist()):
        row[:2] = s2.reduced_flow(row[:2], row_lam, t)
    return out if point.ndim == 2 else out[0]


class BumpPushforward:
    """System obtained by pushing a SymplecticModel forward along a bump field.

    The diffeomorphism is the time-1 map psi0 of Z = rho(x) X_H (reduced),
    which preserves every fiber and fixes a neighborhood of the sections
    {x = +-x0}: the bump vanishes for |x| >= x0/2.  Its flow is the conjugated one,
    sigma~^t = psi0 o sigma^t o psi0^-1, and its density is the pushforward
    f~ = (f / det Dpsi0) o psi0^-1 with the determinant integrated along the
    bump flow (d/dt log det = div Z).
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
        field = self.sm._plane_field(lam, (self._f_x, self._f_y))

        def rhs(_t, state):
            x, y, _ = state
            vx, vy, fv, fx, fy = field(x, y)
            rho, rho_prime = self._bump(x)
            # div(rho v) = rho' vx + rho div v, div v = -(v . grad f) / f
            div_v = -(vx * fx + vy * fy) / fv
            return [rho * vx, rho * vy, rho_prime * vx + rho * div_v]

        return rhs

    def bump_map(self, xy, lam: float, inverse: bool = False):
        """psi0 (or its inverse) with log det Dpsi0 integrated alongside."""
        (out,) = _solve(self._z_rhs(lam), (xy[0], xy[1], 0.0), [-1.0 if inverse else 1.0])
        return np.array([out[0], out[1]]), math.exp(out[2])

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
    xy, h = rows[:, :2], 1e-5
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
