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

The plane part (-H_y / f, H_x / f) of the H-field is computed only by
SymplecticModel._plane_field (ValueError where f = 0); the 4-D field, the
reduced dynamics and the bump field use it, the bump's log det through
div v = -(v . grad f) / f (the flow preserves f dx^dy, so div(f v) = 0).
Every flow is solved by _solve: RK45 at FLOW_RTOL / FLOW_ATOL, RuntimeError
on solver failure, section crossings as terminal events.

Period lattices follow Gamma(T_p) = Gamma_0 . J^-1(p) with Gamma_0 =
2 pi Z^2 and J the Jacobian of the generators (H, F) with respect to the
actions (I_1, I_2) = (lambda, I_o or I_mu); the second basis vector's
H-time is the loop period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import Density, FibrationModel
from .quadrature import oval_area_integral, oval_loop_integral

FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-12


@dataclass
class SymplecticModel:
    """A fibration model equipped with the gauge-primitive symplectic form."""

    model: FibrationModel

    def __post_init__(self):
        if not isinstance(self.model.density, Density):
            raise TypeError("SymplecticModel requires a polynomial Density")
        f = self.model.density
        self._f = f
        self._X_lam = f.antiderivative_x().diff(2)
        h = self.model.hamiltonian()
        self._H = h
        self._H_x = h.diff(0)
        self._H_y = h.diff(1)
        self._H_lam = h.diff(2)

    @property
    def density(self) -> Density:
        return self._f

    def hamiltonian_value(self, point) -> float:
        x, y, lam = point[0], point[1], point[2]
        return self._H.eval(x, y, lam)

    def reduced(self) -> "ReducedSystem":
        """The reduced (x, y) dynamics, as taken by :func:`transport_map`."""
        return ReducedSystem(self)

    def omega_matrix(self, point) -> np.ndarray:
        """Matrix of Omega on (dx, dy, dlambda, dphi) at the point."""
        x, y, lam = point[0], point[1], point[2]
        fv = self._f.eval(x, y, lam)
        xl = self._X_lam.eval(x, y, lam)
        return np.array(
            [
                [0.0, fv, 0.0, 0.0],
                [-fv, 0.0, -xl, 0.0],
                [0.0, xl, 0.0, 1.0],
                [0.0, 0.0, -1.0, 0.0],
            ]
        )

    def _plane_field(self, x, y, lam):
        """(v_x, v_y, f) = (-H_y / f, H_x / f, f): the (x, y) part of the H-field."""
        fv = self._f.eval(x, y, lam)
        if fv == 0.0:
            raise ValueError("degenerate Omega: density vanishes at the point")
        return -self._H_y.eval(x, y, lam) / fv, self._H_x.eval(x, y, lam) / fv, fv

    def hamiltonian_field(self, point, generator: str = "H") -> np.ndarray:
        """The unique v with i_v Omega = -dG, G in {H, F}."""
        x, y, lam = point[0], point[1], point[2]
        if generator == "F":
            return np.array([0.0, 0.0, 0.0, 1.0])
        if generator != "H":
            raise ValueError("generator must be 'H' or 'F'")
        vx, vy, _ = self._plane_field(x, y, lam)
        gl = self._H_lam.eval(x, y, lam)
        xl = self._X_lam.eval(x, y, lam)
        return np.array([vx, vy, 0.0, gl - xl * vy])

    # -- flows ------------------------------------------------------------

    def flow(self, point, generator: str, t: float) -> np.ndarray:
        """Flow the point by time t along the H- or F-field."""
        point = np.asarray(point, dtype=float)
        if t == 0.0:
            return point.copy()
        if generator == "F":
            out = point.copy()
            out[3] += t
            return out
        return _solve(lambda _t, state: self.hamiltonian_field(state, generator), t, point)

    def flow_pair(self, point, t1: float, t2: float) -> np.ndarray:
        """sigma^(t1, t2): H-flow by t1 then F-flow by t2 (they commute)."""
        return self.flow(self.flow(point, "H", t1), "F", t2)


def _solve(rhs, t_end: float, y0, event=None):
    """The state at t_end of y' = rhs(t, y), y(0) = y0, or with ``event`` the
    first time it crosses zero (ValueError if it never does before t_end)."""
    if event is not None:
        event.terminal = True
    sol = solve_ivp(
        rhs,
        (0.0, t_end),
        np.asarray(y0, dtype=float),
        method="RK45",
        rtol=FLOW_RTOL,
        atol=FLOW_ATOL,
        events=event,
    )
    if not sol.success:
        raise RuntimeError(f"flow integration failed: {sol.message}")
    if event is None:
        return sol.y[:, -1]
    if not sol.t_events[0].size:
        raise ValueError("trajectory does not reach the section")
    return float(sol.t_events[0][0])


def trajectory_csv(
    sm: SymplecticModel, point, generator: str, t_final: float, n_samples: int = 101
) -> str:
    """Sampled trajectory as CSV with columns t, x, y, lambda, phi, H, F."""
    times = np.linspace(0.0, t_final, n_samples)
    lines = ["t,x,y,lambda,phi,H,F"]
    state = np.asarray(point, dtype=float)
    prev_t = 0.0
    for t in times:
        state = sm.flow(state, generator, float(t) - prev_t)
        prev_t = float(t)
        h = sm.hamiltonian_value(state)
        lines.append(
            ",".join(
                f"{v:.12g}"
                for v in (t, state[0], state[1], state[2], state[3], h, state[2])
            )
        )
    return "\n".join(lines) + "\n"


# -- period lattices ---------------------------------------------------------


@dataclass
class PeriodLattice:
    """2x2 basis of the stationary lattice; rows are (t1, t2) time vectors."""

    basis: np.ndarray

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
    which are exact up to quadrature tolerance (W_lambda = y here).
    """
    f = sm.model.density
    di_dh = oval_loop_integral(sm.model, H, lam, f, stratum)
    y_density = Density({(0, 1, 0): 1})
    di_dl = oval_area_integral(
        sm.model, H, lam, f.diff(2), stratum
    ) - oval_loop_integral(sm.model, H, lam, f * y_density, stratum)
    basis = np.array(
        [[0.0, 2.0 * math.pi], [di_dh, di_dl + 2.0 * math.pi * (k if stratum == "wide" else 0)]]
    )
    return PeriodLattice(basis=basis)


def verify_lattice(sm: SymplecticModel, point, t1: float, t2: float) -> float:
    """Distance between the point and its image under sigma^(t1, t2).

    Lattice vectors must return to the start; the phi-component is compared
    modulo 2 pi.
    """
    point = np.asarray(point, dtype=float)
    image = sm.flow_pair(point, t1, t2)
    dphi = (image[3] - point[3] + math.pi) % (2.0 * math.pi) - math.pi
    delta = image - point
    return float(math.sqrt(delta[0] ** 2 + delta[1] ** 2 + delta[2] ** 2 + dphi**2))


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
        field = self.sm._plane_field

        def rhs(_t, state):
            return field(state[0], state[1], lam)[:2]

        return rhs

    def reduced_flow(self, xy, lam: float, t: float) -> np.ndarray:
        if t == 0.0:
            return np.asarray(xy, dtype=float)
        return _solve(self.rhs(lam), t, xy)

    def section_time(
        self, xy, lam: float, x0: float | None = None, t_max: float = 200.0
    ) -> float:
        """Smallest t > 0 with the backward flow of xy on {x = x0} (default: the model's)."""
        if x0 is None:
            x0 = self.sm.model.x0
        return -_solve(self.rhs(lam), -t_max, xy, event=lambda _t, state: state[0] - x0)

    def density_eval(self, x, y, lam):
        return self.sm._f.eval(x, y, lam)


def transport_map(sys1, sys2, point, x0: float | None = None) -> np.ndarray:
    """psi(Q) = sigma~^(t(Q) - t~(Q))(Q) on the reduced dynamics.

    t resp. t~ are the H-flow times from the section N1 = {x = x0} to Q for
    the two systems; N1 is fixed pointwise and fibers are preserved.  The
    lambda and phi components pass through unchanged (the phi-shift freedom
    is the removable gauge).  Both systems must expose the reduced-flow
    protocol through ``reduced()``; ``x0`` overrides the section of both.
    """
    s1, s2 = sys1.reduced(), sys2.reduced()
    point = np.asarray(point, dtype=float)
    xy = point[:2]
    lam = float(point[2]) if point.size > 2 else 0.0
    t1 = s1.section_time(xy, lam, x0)
    t2 = s2.section_time(xy, lam, x0)
    image_xy = s2.reduced_flow(xy, lam, t1 - t2)
    out = point.copy()
    out[:2] = image_xy
    return out


class BumpPushforward:
    """System obtained by pushing a SymplecticModel forward along a bump field.

    The diffeomorphism is the time-1 map psi0 of Z = rho(x) X_H (reduced),
    which preserves every fiber and fixes a neighborhood of the sections
    {x = +-x0} where the bump vanishes.  Its flow is the conjugated one,
    sigma~^t = psi0 o sigma^t o psi0^-1, and its density is the pushforward
    f~ = (f / det Dpsi0) o psi0^-1 with the determinant integrated along the
    bump flow (d/dt log det = div Z).
    """

    def __init__(self, sm: SymplecticModel, amplitude: float = 0.15, support: float = 0.5):
        self.sm = sm
        self.base = ReducedSystem(sm)
        self.amplitude = amplitude
        self.support = support * sm.model.x0
        self._f_x = sm.density.diff(0)
        self._f_y = sm.density.diff(1)

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
        field = self.sm._plane_field
        fx, fy = self._f_x, self._f_y

        def rhs(_t, state):
            x, y = state[0], state[1]
            vx, vy, fv = field(x, y, lam)
            rho, rho_prime = self._bump(x)
            # div(rho v) = rho' vx + rho div v, div v = -(v . grad f) / f
            div_v = -(vx * fx.eval(x, y, lam) + vy * fy.eval(x, y, lam)) / fv
            return (rho * vx, rho * vy, rho_prime * vx + rho * div_v)

        return rhs

    def bump_map(self, xy, lam: float, inverse: bool = False):
        """psi0 (or its inverse) with log det Dpsi0 integrated alongside."""
        out = _solve(self._z_rhs(lam), -1.0 if inverse else 1.0, (xy[0], xy[1], 0.0))
        return np.array([out[0], out[1]]), math.exp(out[2])

    def density_eval(self, x, y, lam):
        pre, det_along = self.bump_map((x, y), lam, inverse=True)
        # det Dpsi0 at the preimage equals 1/det of the inverse map here
        det_fwd = 1.0 / det_along
        return self.sm._f.eval(pre[0], pre[1], lam) / det_fwd

    def reduced_flow(self, xy, lam: float, t: float) -> np.ndarray:
        pre, _ = self.bump_map(xy, lam, inverse=True)
        moved = self.base.reduced_flow(pre, lam, t)
        img, _ = self.bump_map(moved, lam, inverse=False)
        return img

    def reduced(self) -> "BumpPushforward":
        return self

    def hamiltonian_value(self, point) -> float:
        # psi0 preserves every fiber, so the pushed system has the same H
        return self.sm.hamiltonian_value(point)

    def section_time(
        self, xy, lam: float, x0: float | None = None, t_max: float = 200.0
    ) -> float:
        if x0 is not None and abs(x0) < self.support:
            raise ValueError("section inside the bump's support")
        # psi0 is the identity near the section, so the conjugated backward
        # trajectory hits {x = x0} exactly when the base one from psi0^-1 does
        pre, _ = self.bump_map(xy, lam, inverse=True)
        return self.base.section_time(pre, lam, x0, t_max)


def pullback_residual(sys1, sys2, point, x0: float | None = None, h: float = 1e-5) -> dict:
    """(Phi^* omega~ - omega) on the (x, y) bivector at the point, plus the
    fiber drift, for Phi the transport map between the systems.

    The remaining coordinate bivectors either vanish identically in the
    gauge-primitive representation ((x, phi), (y, phi)) or match exactly
    ((lambda, phi)); the (x, lambda), (y, lambda) components carry the
    removable phi-shift terms and are not invariants.
    """
    s1, s2 = sys1.reduced(), sys2.reduced()
    point = np.asarray(point, dtype=float)
    lam = float(point[2]) if point.size > 2 else 0.0

    def tmap(xy):
        q = np.array([xy[0], xy[1], lam, 0.0])
        return transport_map(s1, s2, q, x0)[:2]

    base = tmap(point[:2])
    jx = (tmap(point[:2] + (h, 0.0)) - tmap(point[:2] - (h, 0.0))) / (2.0 * h)
    jy = (tmap(point[:2] + (0.0, h)) - tmap(point[:2] - (0.0, h))) / (2.0 * h)
    det = jx[0] * jy[1] - jx[1] * jy[0]
    f1 = s1.density_eval(point[0], point[1], lam)
    f2 = s2.density_eval(base[0], base[1], lam)
    residual = f2 * det - f1
    h1 = s1.hamiltonian_value((point[0], point[1], lam))
    h2 = s2.hamiltonian_value((base[0], base[1], lam))
    return {
        "xy_residual": float(residual),
        "det": float(det),
        "fiber_drift": float(abs(h2 - h1)),
        "image": base.tolist(),
    }
