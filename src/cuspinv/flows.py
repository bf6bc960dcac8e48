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

The plane part (-H_y / f, H_x / f) of the H-field is computed only by the
field SymplecticModel._plane_field builds at one lambda: f, H_x, H_y and the
polynomials a caller adds (H_lambda and X_lambda for the 4-D field, f_x and
f_y for the bump's log det, through div v = -(v . grad f) / f) are read
from one table of product powers per call (``model.densities_at``, each
value bit for bit ``Density.eval``), built once per solve.  Every flow is one
DOP853 solve by _solve (Hairer, Norsett and Wanner, Solving ODEs I, II.5),
at any number of times.  Section times are no flows but level integrals
(``quadrature.section_time``, as y' = 2x/f), batched over a transport's points.

Period lattices follow Gamma(T_p) = Gamma_0 . J^-1(p) with Gamma_0 =
2 pi Z^2 and J the Jacobian of the generators (H, F) with respect to the
actions (I_1, I_2) = (lambda, I_o or I_mu); the second basis vector's
H-time is the loop period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Density, FibrationModel, densities_at
from .quadrature import _built, _levels, _oval_jobs, area_kernel, form_kernel, integrals
from .quadrature import section_time

FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-12
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
        """field(x, y): the H-field at this lambda as an array, its lambda component 0."""
        plane = self._plane_field(lam, (self._H_lam, self._X_lam))

        def field(x, y):
            vx, vy, _, h_lam, x_lam = plane(x, y)
            return np.array([vx, vy, 0.0, h_lam - x_lam * vy])

        return field

    def hamiltonian_field(self, point, generator: str = "H") -> np.ndarray:
        """The unique v with i_v Omega = -dG, G in {H, F}."""
        if generator == "F":
            return np.array([0.0, 0.0, 0.0, 1.0])
        if generator != "H":
            raise ValueError("generator must be 'H' or 'F'")
        return self._h_field(float(point[2]))(float(point[0]), float(point[1]))

    # -- flows ------------------------------------------------------------

    def flow(self, point, generator: str, t) -> np.ndarray:
        """Flow the point by time t along the H- or F-field; for an array of
        times, all of one sign, one row per time from one solve."""
        point, times = np.asarray(point, dtype=float), np.atleast_1d(np.asarray(t, dtype=float))
        out = np.tile(point, (times.size, 1))
        if generator == "F":
            out[:, 3] += times
        elif times.any():
            order = np.argsort(np.abs(times))
            moving = order[times[order] != 0.0]
            # lambda is constant along the flow: one field, read at the start
            field = self._h_field(float(point[2]))
            rhs = lambda _t, state: field(*state.tolist()[:2])  # noqa: E731
            out[moving] = _solve(rhs, times[moving[-1]], point, times[moving]).T
        return out if np.ndim(t) else out[0]


def _solve(rhs, t_end: float, y0, t_eval=None) -> np.ndarray:
    """The state of y' = rhs(t, y), y(0) = y0 at t_end, or at each t_eval (columns)."""
    from scipy.integrate import solve_ivp  # here, so that importing cuspinv does not load scipy

    opts = {"method": "DOP853", "t_eval": t_eval, "rtol": FLOW_RTOL, "atol": FLOW_ATOL}
    sol = solve_ivp(rhs, (0.0, t_end), np.asarray(y0, dtype=float), **opts)
    if not sol.success:
        raise RuntimeError(f"flow integration failed: {sol.message}")
    return sol.y[:, -1] if t_eval is None else sol.y


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
        return lambda _t, state: field(*state.tolist())[:2]

    def reduced_flow(self, xy, lam: float, t: float) -> np.ndarray:
        if t == 0.0:
            return np.asarray(xy, dtype=float)
        return _solve(self.rhs(lam), t, xy)

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
            x, y, _ = state.tolist()
            vx, vy, fv, fx, fy = field(x, y)
            rho, rho_prime = self._bump(x)
            # div(rho v) = rho' vx + rho div v, div v = -(v . grad f) / f
            div_v = -(vx * fx + vy * fy) / fv
            return (rho * vx, rho * vy, rho_prime * vx + rho * div_v)

        return rhs

    def bump_map(self, xy, lam: float, inverse: bool = False):
        """psi0 (or its inverse) with log det Dpsi0 integrated alongside."""
        out = _solve(self._z_rhs(lam), -1.0 if inverse else 1.0, (xy[0], xy[1], 0.0))
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
