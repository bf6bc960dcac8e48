"""Fibration models, polynomial densities, bifurcation diagrams and the
parabolic-point checker.

Model kinds
-----------
``cusp_local``    H = x^2 + y^3 + lambda*y        (germ near a parabolic orbit)
``cusp_compact``  H = x^2 + y^4 + y^3 + lambda*y  (compact fibers; same germ at 0,
                  the quartic term closes the fibers so a genuine cuspidal torus
                  exists; the auxiliary elliptic value -27/256 from the deep well
                  at y = -3/4 sits outside the default base domain)
``one_dof``       H = y^3 - x^2                   (one-degree-of-freedom cusp)
``node``          H = x*y                         (non-degenerate saddle model)

Each Hamiltonian is written once, in ``_hamiltonian_for``; the potential W of
the cusp models (H = x^2 + W(y; lambda)) is read off it, and the bifurcation
diagram Sigma is the pair of critical values of W at the two critical points
nearest y = 0 (``cusp_pair``), solved for at each lambda asked about.

The map (x, y, H) -> (x, -y, -H) carries the cusp_local model at lambda = 0
to the one_dof model; densities transform by f(x, y) -> f(x, -y).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .series import TruncatedSeries, _is_finite

_EXACT_TYPES = (int, Fraction)

CUSP_LOCAL = "cusp_local"
CUSP_COMPACT = "cusp_compact"
ONE_DOF = "one_dof"
NODE = "node"

MODEL_KINDS = (CUSP_LOCAL, CUSP_COMPACT, ONE_DOF, NODE)

#: default base-domain radius; keeps the auxiliary elliptic value -27/256 of
#: the compact model outside the working neighborhood of the cusp
DEFAULT_DOMAIN_RADIUS = 0.08


class Density:
    """Trivariate polynomial sum c * x^i y^j lambda^k.

    Doubles as the container for model Hamiltonians, for the reduced
    symplectic densities omega_lambda = f dx^dy and, lambda-free with (x, y)
    read as (H, F), for the components of base maps phi(H, F).  For
    symplectic use the value at the origin must be positive; that is checked
    where the mathematics requires it, not at construction (formal densities
    such as f = y are legitimate inputs to the period integrals).
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        data: dict[tuple[int, int, int], object] = {}
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = ((tuple(e), c) for c, e in terms)
        for expo, c in items:
            i, j, k = (operator.index(v) for v in expo)
            if i < 0 or j < 0 or k < 0:
                raise ValueError(f"negative exponent in {expo}")
            if not _is_finite(c):
                raise ValueError(f"non-finite coefficient {c!r} at {expo}")
            if c == 0:
                continue
            key = (i, j, k)
            data[key] = data.get(key, 0) + c
        self.terms = {k: v for k, v in sorted(data.items()) if v != 0}

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Density":
        return cls({(0, 0, 0): c})

    @classmethod
    def from_json(cls, data) -> "Density":
        if isinstance(data, str):
            data = json.loads(data)
        return cls([(t["c"], tuple(t["e"])) for t in data["terms"]])

    def to_json(self) -> dict:
        return {"terms": [{"c": float(c), "e": list(e)} for e, c in self.terms.items()]}

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Density):
            out = dict(self.terms)
            for e, c in other.terms.items():
                out[e] = out.get(e, 0) + c
            return Density(out)
        out = dict(self.terms)
        out[(0, 0, 0)] = out.get((0, 0, 0), 0) + other
        return Density(out)

    __radd__ = __add__

    def __neg__(self):
        return Density({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Density) else -other)

    def __mul__(self, other):
        if isinstance(other, Density):
            out: dict[tuple[int, int, int], object] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[e] = out.get(e, 0) + c1 * c2
            return Density(out)
        return Density({e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = Density.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        return isinstance(other, Density) and self.terms == other.terms

    def __repr__(self):
        return f"Density({self.terms})"

    # -- evaluation and calculus ----------------------------------------------

    @property
    def max_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def eval(self, x, y, lam=0.0):
        """Float evaluation; numpy-array friendly."""
        if not self.terms:
            shape = np.broadcast(x, y, lam).shape
            return np.zeros(shape) if shape else 0.0
        acc = 0.0
        for (i, j, k), c in self.terms.items():
            acc = acc + float(c) * x**i * y**j * lam**k
        return acc

    __call__ = eval

    def eval_exact(self, x, y, lam=0):
        """Exact evaluation for Fraction/int arguments."""
        acc = 0
        for (i, j, k), c in self.terms.items():
            acc += c * x**i * y**j * lam**k
        return acc

    def diff(self, axis: int) -> "Density":
        out = {}
        for e, c in self.terms.items():
            n = e[axis]
            if n == 0:
                continue
            ne = list(e)
            ne[axis] = n - 1
            key = tuple(ne)
            out[key] = out.get(key, 0) + n * c
        return Density(out)

    def antiderivative_x(self) -> "Density":
        """X(x, y, lambda) with dX/dx = f and X(0, y, lambda) = 0."""
        out = {}
        for (i, j, k), c in self.terms.items():
            cc = Fraction(c, i + 1) if isinstance(c, _EXACT_TYPES) else c / (i + 1)
            out[(i + 1, j, k)] = cc
        return Density(out)

    def restrict_lambda0(self) -> "Density":
        return Density({e: c for e, c in self.terms.items() if e[2] == 0})

    def mirror_y(self) -> "Density":
        """f(x, y, lambda) -> f(x, -y, lambda); the one-dof sign bridge."""
        return Density({e: (-c if e[1] % 2 else c) for e, c in self.terms.items()})

    def is_exact(self) -> bool:
        return all(isinstance(v, _EXACT_TYPES) for v in self.terms.values())

    def gradient(self, point):
        return [_eval_at(self.diff(a), point) for a in range(3)]

    def hessian(self, point):
        out = [[0] * 3 for _ in range(3)]
        for a in range(3):
            da = self.diff(a)
            for b in range(a, 3):
                v = _eval_at(da.diff(b), point)
                out[a][b] = v
                out[b][a] = v
        return out

    def third_directional(self, point, v):
        """d^3 f (v, v, v) at the point."""
        acc = 0
        for a in range(3):
            da = self.diff(a)
            for b in range(3):
                dab = da.diff(b)
                for c in range(3):
                    val = _eval_at(dab.diff(c), point)
                    if val != 0:
                        acc += val * v[a] * v[b] * v[c]
        return acc

    def compose(self, h: "Density", f: "Density") -> "Density":
        """Exact composition self(h, f) of a lambda-free base-map component."""
        if any(e[2] for e in self.terms):
            raise ValueError("a base-map component must be free of lambda")
        acc = Density({})
        for (i, j, _), c in self.terms.items():
            acc = acc + (h**i) * (f**j) * c
        return acc


def _eval_at(poly: Density, point):
    """Exact evaluation at an all-Fraction point, float evaluation otherwise."""
    if all(isinstance(v, Fraction) for v in point):
        return poly.eval_exact(*point)
    return poly.eval(*point)


#: the base map phi(H, F) = (H, F)
IDENTITY_BASE_MAP = (Density({(1, 0, 0): 1}), Density({(0, 1, 0): 1}))


def base_map_jacobian(phi, h: float, f: float) -> float:
    """det D phi at (H, F) = (h, f) for a base map phi = (H~, F~)."""
    h_map, f_map = phi
    return h_map.diff(0)(h, f) * f_map.diff(1)(h, f) - h_map.diff(1)(h, f) * f_map.diff(0)(h, f)


# -- model definitions ---------------------------------------------------------


def _hamiltonian_for(kind: str) -> Density:
    if kind == CUSP_LOCAL:
        return Density({(2, 0, 0): 1, (0, 3, 0): 1, (0, 1, 1): 1})
    if kind == CUSP_COMPACT:
        return Density({(2, 0, 0): 1, (0, 4, 0): 1, (0, 3, 0): 1, (0, 1, 1): 1})
    if kind == ONE_DOF:
        return Density({(0, 3, 0): 1, (2, 0, 0): -1})
    if kind == NODE:
        return Density({(1, 1, 0): 1})
    raise ValueError(f"unknown model kind {kind!r}")


@lru_cache(maxsize=None)
def _potential_terms(kind: str) -> tuple[int, tuple[tuple[int, int, object], ...]]:
    """(degree in y, terms (j, k, c) of c y^j lambda^k) of W = H - x^2."""
    H = _hamiltonian_for(kind)
    W = Density({e: c for e, c in H.terms.items() if e[0] == 0})
    if H - W != Density({(2, 0, 0): 1}):
        raise ValueError(f"{kind} has no x^2 + W(y) potential form")
    return max(j for _, j, _ in W.terms), tuple((j, k, c) for (_, j, k), c in W.terms.items())


@dataclass
class FibrationModel:
    """A model Hamiltonian with its reduced symplectic density.

    ``x0`` places the cross-sections N1 = {x = +x0}, N2 = {x = -x0}.
    """

    kind: str
    density: Density = field(default_factory=lambda: Density.constant(1))
    x0: float = 1.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not (math.isfinite(self.x0) and self.x0 > 0):
            raise ValueError("section offset x0 must be positive and finite")

    def hamiltonian(self) -> Density:
        return _hamiltonian_for(self.kind)

    def potential_coeffs(self, lam: float) -> np.ndarray:
        """Coefficients (highest first) of W(y; lambda), the x-free part of
        H = x^2 + W; ValueError for kinds whose H is not of that form."""
        degree, terms = _potential_terms(self.kind)
        out = np.zeros(degree + 1)
        for j, k, c in terms:
            out[degree - j] += c * lam**k
        return out

    def to_json(self) -> dict:
        return {"kind": self.kind, "density": self.density.to_json(), "x0": self.x0}

    @classmethod
    def from_json(cls, data) -> "FibrationModel":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(
            kind=data["kind"],
            density=Density.from_json(data["density"]),
            x0=float(data.get("x0", 1.0)),
        )


def cusp_local_model(density=None, x0: float = 1.0) -> FibrationModel:
    return FibrationModel(CUSP_LOCAL, density or Density.constant(1), x0)


def cusp_compact_model(density=None, x0: float = 0.25) -> FibrationModel:
    return FibrationModel(CUSP_COMPACT, density or Density.constant(1), x0)


def one_dof_model(density=None, x0: float = 1.0) -> FibrationModel:
    return FibrationModel(ONE_DOF, density or Density.constant(1), x0)


def node_model(density=None) -> FibrationModel:
    return FibrationModel(NODE, density or Density.constant(1))


# -- polynomial roots ----------------------------------------------------------


def _horner(coeffs, x: float) -> float:
    """np.polyval(coeffs, x) for a list of floats and a scalar x, without
    numpy's per-call cost (the same operations in the same order)."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _polish(coeffs: np.ndarray, r: float) -> float:
    c, d = np.asarray(coeffs).tolist(), np.polyder(coeffs).tolist()
    for _ in range(3):
        fv = _horner(c, r)
        dv = _horner(d, r)
        if dv == 0:
            break
        r = r - fv / dv
    return r


def _real_roots(coeffs: np.ndarray) -> list[float]:
    roots = np.roots(np.asarray(coeffs, dtype=float))
    scale = 1.0 + max(abs(roots.real).max(initial=0.0), abs(roots.imag).max(initial=0.0))
    return sorted(roots.real[abs(roots.imag) <= 1e-8 * scale].tolist())


def _synthetic_division(coeffs: np.ndarray, root: float) -> np.ndarray:
    """coeffs / (y - root), highest first; remainder discarded."""
    out = np.empty(len(coeffs) - 1)
    acc = 0.0
    for i, c in enumerate(coeffs[:-1]):
        acc = acc * root + c
        out[i] = acc
    return out


# -- bifurcation diagram -------------------------------------------------------


def cusp_pair(wc: np.ndarray) -> tuple[float | None, float | None]:
    """(y_ell, y_hyp): the two critical points of W nearest y = 0.

    ``wc`` holds W's coefficients (highest first) at a lambda < 0, where the
    pair has unfolded from the cusp at y = 0.  The sign of W'' labels them:
    the minimum (W'' > 0) carries the elliptic branch, the saddle (W'' < 0)
    the hyperbolic one; a branch absent at this lambda is None.  The compact
    model's deep well near y = -3/4 lies farther from 0 than both.
    """
    dw = np.polyder(wc)
    d2w = np.polyder(dw).tolist()
    pair = [_polish(dw, y) for y in sorted(_real_roots(dw), key=abs)[:2]]
    y_ell = next((y for y in pair if _horner(d2w, y) > 0), None)
    y_hyp = next((y for y in pair if _horner(d2w, y) < 0), None)
    return y_ell, y_hyp


@dataclass
class BifurcationDiagram:
    """Bifurcation diagram Sigma near the cusp point.

    At each lambda < 0 asked about, the elliptic and hyperbolic values are
    W at the cusp pair of critical points (one root solve per query;
    ``branch_values`` answers for both branches at once).  For
    the canonical local model Sigma = {H^2 = -(4/27) lambda^3} with the
    elliptic branch at H < 0 and the hyperbolic branch at H > 0; the
    swallow-tail interior is {H^2 < -(4/27) lambda^3}.
    """

    model: FibrationModel
    domain_radius: float
    cusp_point: tuple[float, float] = (0.0, 0.0)

    def _branches(self, lam: float) -> tuple[float | None, float | None]:
        """(H_ell, H_hyp) at this lambda; None for a branch absent there."""
        if lam >= 0:
            raise ValueError("branches exist for lambda < 0 only")
        wc = self.model.potential_coeffs(lam)
        w = wc.tolist()
        return tuple(None if y is None else _horner(w, y) for y in cusp_pair(wc))

    def _present(self, lam: float, indices: tuple[int, ...]) -> list[float]:
        values = self._branches(lam)
        for i in indices:
            if values[i] is None:
                raise ValueError(f"no {('elliptic', 'hyperbolic')[i]} branch at lambda={lam}")
        return [values[i] for i in indices]

    def branch_values(self, lam: float) -> tuple[float, float]:
        """(H_ell, H_hyp) at this lambda from one root solve; ValueError
        naming the branch when either is absent there."""
        return tuple(self._present(lam, (0, 1)))

    def elliptic_value(self, lam: float) -> float:
        return self._present(lam, (0,))[0]

    def hyperbolic_value(self, lam: float) -> float:
        return self._present(lam, (1,))[0]

    def _position(self, H: float, lam: float, tol: float) -> str:
        """'sigma' within tol of Sigma, 'inside' the swallow tail, else 'off'."""
        if lam > tol:
            return "off"
        if abs(lam) <= tol:
            return "sigma" if abs(H) <= tol else "off"
        h_ell, h_hyp = self._branches(lam)
        if any(v is not None and abs(H - v) <= tol for v in (h_ell, h_hyp)):
            return "sigma"
        if h_ell is not None and h_hyp is not None and h_ell < H < h_hyp:
            return "inside"
        return "off"

    def in_swallowtail(self, H: float, lam: float) -> bool:
        return self._position(H, lam, 0.0) == "inside"

    def on_sigma(self, H: float, lam: float, tol: float = 1e-10) -> bool:
        return self._position(H, lam, tol) == "sigma"

    def stratum(self, H: float, lam: float) -> str:
        """'narrow' on the swallow-tail interior, 'wide' elsewhere in the
        domain (compact model only), 'outside' otherwise."""
        if math.hypot(H, lam) > self.domain_radius:
            return "outside"
        position = self._position(H, lam, 1e-12)
        if position == "inside":
            return "narrow"
        if position == "off" and self.model.kind == CUSP_COMPACT:
            return "wide"
        return "outside"


def bifurcation_diagram(
    model: FibrationModel, domain_radius: float = DEFAULT_DOMAIN_RADIUS
) -> BifurcationDiagram:
    if model.kind not in (CUSP_LOCAL, CUSP_COMPACT):
        raise ValueError("bifurcation diagram defined for the cusp models")
    return BifurcationDiagram(model, domain_radius)


# -- base canonicalization -----------------------------------------------------


@dataclass
class CanonicalBaseTransform:
    """H~ = (H - a(F)) / |c(F)|^(3/2), F~ = eta * (F - f0), c = b/(F - f0)."""

    f0: float
    c: TruncatedSeries
    eta: int
    a: TruncatedSeries

    def apply(self, H: float, lam: float) -> tuple[float, float]:
        cval = float(self.c.eval(lam))
        if cval == 0:
            raise ValueError(f"c(lambda) vanishes at lambda={lam}")
        h_t = (H - float(self.a.eval(lam))) / abs(cval) ** 1.5
        f_t = self.eta * (lam - self.f0)
        return h_t, f_t


def canonicalize_base(
    a: TruncatedSeries,
    b: TruncatedSeries,
    search_range: tuple[float, float] = (-1.0, 1.0),
) -> CanonicalBaseTransform:
    """Reduce the diagram (H - a(F))^2 = -(4/27) b(F)^3 to the standard form.

    Requires a simple zero f0 of b inside ``search_range``; rejects degenerate
    zeros (b'(f0) = 0), which are not parabolic.
    """
    coeffs = [float(c) for c in b.coeffs][::-1]
    if all(c == 0 for c in coeffs):
        raise ValueError("b is identically zero; no simple zero exists")
    lo, hi = search_range
    candidates = sorted((r for r in _real_roots(coeffs) if lo <= r <= hi), key=abs)
    if not candidates:
        raise ValueError(f"b has no real zero in {search_range}")
    f0 = candidates[0]
    db = b.deriv()
    if abs(float(db.eval(f0))) < 1e-10:
        raise ValueError(f"degenerate zero of b at {f0}: b'(f0) = 0, not parabolic")
    # b = (lambda - f0) c + remainder; the remainder must vanish
    remainder = float(np.polyval(coeffs, f0))
    if abs(remainder) > 1e-9 * max(1.0, max(abs(c) for c in coeffs)):
        raise ValueError(f"inexact division: remainder {remainder}")
    c_series = TruncatedSeries([float(c) for c in _synthetic_division(coeffs, f0)[::-1]])
    c0 = float(c_series.eval(f0))
    eta = 1 if c0 > 0 else -1
    return CanonicalBaseTransform(f0=f0, c=c_series, eta=eta, a=a.copy())


# -- parabolic-point checker ----------------------------------------------------

PARABOLIC = "parabolic"
FAILS_I = "fails_i"
FAILS_II = "fails_ii"
FAILS_III = "fails_iii"
RANK0 = "rank0"
REGULAR = "regular"


@dataclass
class ParabolicVerdict:
    verdict: str
    k: object
    rank_d2H0: int
    v3H0: object
    rank_full: int

    @property
    def is_parabolic(self) -> bool:
        return self.verdict == PARABOLIC

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "k": float(self.k),
            "rank_d2H0": self.rank_d2H0,
            "v3H0": float(self.v3H0),
            "rank_full": self.rank_full,
        }


def _to_exact_point(point):
    out = []
    for v in point:
        if isinstance(v, _EXACT_TYPES):
            out.append(Fraction(v))
        elif isinstance(v, float) and v.is_integer():
            out.append(Fraction(int(v)))
        else:
            return None
    return tuple(out)


def _float_rank(matrix, rel_threshold: float) -> int:
    m = np.array(matrix, dtype=float)
    if not m.any():
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > rel_threshold * s[0]))


def _exact_rank2(m) -> int:
    if all(m[i][j] == 0 for i in range(2) for j in range(2)):
        return 0
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return 2 if det != 0 else 1


def _exact_det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def is_parabolic(
    H: Density,
    F: Density,
    point,
    rank_threshold: float = 1e-9,
) -> ParabolicVerdict:
    """Classify the rank-1 singular point of the momentum map (H, F).

    Checks, on the 3-space (x, y, lambda) transverse to the flow direction:
      (i)   d^2 H0 restricted to ker dF has rank 1,
      (ii)  the cubic form d^3 H0 does not vanish on ker d^2 H0,
      (iii) d^2 (H - k F) has full rank,
    for the unique k with dH(P) = k dF(P).  Polynomial derivatives are exact;
    with rational data the rank decisions are exact as well, otherwise a
    relative singular-value threshold is used.
    """
    exact_pt = _to_exact_point(point)
    exact = exact_pt is not None and H.is_exact() and F.is_exact()
    pt = exact_pt if exact else tuple(float(v) for v in point)

    dF = F.gradient(pt)
    dH = H.gradient(pt)
    nF = max(abs(float(v)) for v in dF)
    if nF == 0:
        raise ValueError("dF(P) = 0: the standing assumption dF != 0 fails")

    # k from dH = k dF, checked for consistency; inconsistent => rank 2, regular
    m = max(range(3), key=lambda i: abs(float(dF[i])))
    k = dH[m] / dF[m]
    if exact:
        consistent = all(dH[i] - k * dF[i] == 0 for i in range(3))
    else:
        resid = max(abs(float(dH[i] - k * dF[i])) for i in range(3))
        scale = max(max(abs(float(v)) for v in dH), nF)
        consistent = resid <= rank_threshold * max(1.0, scale)
    if not consistent:
        return ParabolicVerdict(REGULAR, k, -1, 0, -1)

    W = H - F * k
    hess = W.hessian(pt)

    # basis of ker dF
    p, q, r = dF
    if m == 2:
        basis = [(r, 0, -p), (0, r, -q)]
    elif m == 1:
        basis = [(q, -p, 0), (0, -r, q)]
    else:
        basis = [(-q, p, 0), (-r, 0, p)]

    def quad(mat, u, v):
        return sum(mat[i][j] * u[i] * v[j] for i in range(3) for j in range(3))

    m2 = [[quad(hess, basis[i], basis[j]) for j in range(2)] for i in range(2)]

    if exact:
        rank_restricted = _exact_rank2(m2)
        rank_full = 3 if _exact_det3(hess) != 0 else _float_rank(
            [[float(v) for v in row] for row in hess], rank_threshold
        )
    else:
        rank_restricted = _float_rank(m2, rank_threshold)
        rank_full = _float_rank(hess, rank_threshold)

    if rank_restricted != 1:
        return ParabolicVerdict(FAILS_I, k, rank_restricted, 0, rank_full)

    # kernel direction of the restricted quadratic form
    a11, a12 = m2[0][0], m2[0][1]
    a22 = m2[1][1]
    if exact:
        c = (-a12, a11) if (a11 != 0 or a12 != 0) else (-a22, a12)
    else:
        c = (-a12, a11) if max(abs(float(a11)), abs(float(a12))) >= max(
            abs(float(a12)), abs(float(a22))
        ) else (-a22, a12)
    v = tuple(c[0] * basis[0][i] + c[1] * basis[1][i] for i in range(3))
    vmax = max(v, key=lambda t: abs(float(t)))
    v = tuple(t / vmax for t in v)

    # third derivative along v within {F = F(P)}: the curve's acceleration is
    # constrained by F, contributing -3 d2F(v,v) d2W(v,n)/dF(n)
    d3 = W.third_directional(pt, v)
    hF = F.hessian(pt)
    d2F_vv = quad(hF, v, v)
    n_vec = tuple(1 if i == m else 0 for i in range(3))
    d2W_vn = quad(hess, v, n_vec)
    v3 = d3 - 3 * d2F_vv * d2W_vn / dF[m]

    if exact:
        fails_ii = v3 == 0
    else:
        vnorm = max(abs(float(t)) for t in v)
        fails_ii = abs(float(v3)) <= rank_threshold * max(1.0, vnorm**3)
    if fails_ii:
        return ParabolicVerdict(FAILS_II, k, rank_restricted, v3, rank_full)

    if rank_full != 3:
        return ParabolicVerdict(FAILS_III, k, rank_restricted, v3, rank_full)

    return ParabolicVerdict(PARABOLIC, k, rank_restricted, v3, rank_full)


def base_change_parabolic_test(
    H: Density,
    F: Density,
    point,
    phi: tuple[Density, Density],
) -> tuple[ParabolicVerdict, ParabolicVerdict]:
    """Rerun the checker on (H~, F~) = phi(H, F); verdicts must agree.

    ``phi`` must be non-degenerate at (H(P), F(P)) and satisfy dF~(P) != 0.
    """
    h_map, f_map = phi
    pt = tuple(float(v) for v in point)
    if abs(base_map_jacobian(phi, H.eval(*pt), F.eval(*pt))) < 1e-12:
        raise ValueError("degenerate base map: Jacobian vanishes at phi(H(P), F(P))")
    before = is_parabolic(H, F, point)
    H_t = h_map.compose(H, F)
    F_t = f_map.compose(H, F)
    dFt = F_t.gradient(pt)
    if max(abs(float(v)) for v in dFt) < 1e-12:
        raise ValueError("dF~(P) = 0 after the base change; precondition fails")
    after = is_parabolic(H_t, F_t, point)
    return before, after
