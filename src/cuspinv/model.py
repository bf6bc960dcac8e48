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

The map (x, y, H) -> (x, -y, -H) carries the cusp_local model at lambda = 0
to the one_dof model; densities transform by f(x, y) -> f(x, -y).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .series import TruncatedSeries

_EXACT_TYPES = (int, Fraction)

CUSP_LOCAL = "cusp_local"
CUSP_COMPACT = "cusp_compact"
ONE_DOF = "one_dof"
NODE = "node"

MODEL_KINDS = (CUSP_LOCAL, CUSP_COMPACT, ONE_DOF, NODE)

#: default base-domain radius; keeps the auxiliary elliptic value -27/256 of
#: the compact model outside the working neighborhood of the cusp
DEFAULT_DOMAIN_RADIUS = 0.08


def _all_exact(values) -> bool:
    return all(isinstance(v, _EXACT_TYPES) for v in values)


class Density:
    """Trivariate polynomial sum c * x^i y^j lambda^k.

    Doubles as the container for model Hamiltonians and for the reduced
    symplectic densities omega_lambda = f dx^dy.  For symplectic use the
    value at the origin must be positive; that is checked where the
    mathematics requires it, not at construction (formal densities such as
    f = y are legitimate inputs to the period integrals).
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        data: dict[tuple[int, int, int], object] = {}
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = ((tuple(e), c) for c, e in terms)
        for expo, c in items:
            i, j, k = (int(v) for v in expo)
            if i < 0 or j < 0 or k < 0:
                raise ValueError(f"negative exponent in {expo}")
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
        return _all_exact(self.terms.values())

    def gradient(self, point, exact: bool = False):
        if exact:
            return [self.diff(a).eval_exact(*point) for a in range(3)]
        return [self.diff(a).eval(*point) for a in range(3)]

    def hessian(self, point, exact: bool = False):
        out = [[0] * 3 for _ in range(3)]
        for a in range(3):
            da = self.diff(a)
            for b in range(a, 3):
                dab = da.diff(b)
                v = dab.eval_exact(*point) if exact else dab.eval(*point)
                out[a][b] = v
                out[b][a] = v
        return out

    def third_directional(self, point, v, exact: bool = False):
        """d^3 f (v, v, v) at the point."""
        acc = 0
        for a in range(3):
            da = self.diff(a)
            for b in range(3):
                dab = da.diff(b)
                for c in range(3):
                    dabc = dab.diff(c)
                    val = dabc.eval_exact(*point) if exact else dabc.eval(*point)
                    if val != 0:
                        acc += val * v[a] * v[b] * v[c]
        return acc


class Poly2:
    """Bivariate polynomial in (H, F); used for base maps phi(H, F)."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        data: dict[tuple[int, int], object] = {}
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = ((tuple(e), c) for c, e in terms)
        for expo, c in items:
            i, j = (int(v) for v in expo)
            if c == 0:
                continue
            data[(i, j)] = data.get((i, j), 0) + c
        self.terms = {k: v for k, v in sorted(data.items()) if v != 0}

    def eval(self, h, f):
        acc = 0.0
        for (i, j), c in self.terms.items():
            acc = acc + float(c) * h**i * f**j
        return acc

    __call__ = eval

    def diff(self, axis: int) -> "Poly2":
        out = {}
        for e, c in self.terms.items():
            n = e[axis]
            if n == 0:
                continue
            ne = list(e)
            ne[axis] = n - 1
            out[tuple(ne)] = out.get(tuple(ne), 0) + n * c
        return Poly2(out)

    def substitute(self, h_poly: Density, f_poly: Density) -> "Density":
        """Exact composition self(h_poly(x,y,l), f_poly(x,y,l))."""
        acc = Density({})
        for (i, j), c in self.terms.items():
            acc = acc + (h_poly**i) * (f_poly**j) * c
        return acc

    def to_json(self) -> dict:
        return {"terms": [{"c": float(c), "e": list(e)} for e, c in self.terms.items()]}

    @classmethod
    def from_json(cls, data) -> "Poly2":
        return cls([(t["c"], tuple(t["e"])) for t in data["terms"]])

    @classmethod
    def identity_pair(cls) -> tuple["Poly2", "Poly2"]:
        return cls({(1, 0): 1}), cls({(0, 1): 1})


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
        if self.x0 <= 0:
            raise ValueError("section offset x0 must be positive")

    def hamiltonian(self) -> Density:
        return _hamiltonian_for(self.kind)

    def potential_coeffs(self, lam: float) -> np.ndarray:
        """Coefficients (highest first) of W(y) for kinds with H = x^2 + W(y)."""
        if self.kind == CUSP_LOCAL:
            return np.array([1.0, 0.0, lam, 0.0])
        if self.kind == CUSP_COMPACT:
            return np.array([1.0, 1.0, 0.0, lam, 0.0])
        raise ValueError(f"{self.kind} has no x^2 + W(y) potential form")

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


# -- bifurcation diagram -------------------------------------------------------


def _near_cusp_critical_values(lam: float) -> tuple[float | None, float | None]:
    """(H_ell, H_hyp) of the compact model's unfolded cusp pair at this lambda.

    Critical points solve W'(y) = 4y^3 + 3y^2 + lambda = 0; only the pair that
    unfolds from the cusp at y = 0 is kept (|y| < 0.45 separates it from the
    deep well near y = -3/4).
    """
    roots = np.roots([4.0, 3.0, 0.0, lam])
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-9 * (1.0 + abs(r))]
    h_ell = None
    h_hyp = None
    for y in real:
        if abs(y) >= 0.45:
            continue
        w2 = 12.0 * y * y + 6.0 * y
        h = y**4 + y**3 + lam * y
        if w2 > 0:
            h_ell = h
        elif w2 < 0:
            h_hyp = h
    return h_ell, h_hyp


@dataclass
class BifurcationDiagram:
    """Sampled bifurcation diagram Sigma near the cusp point.

    For the canonical local model Sigma = {H^2 = -(4/27) lambda^3} with the
    elliptic branch at H < 0 and the hyperbolic branch at H > 0; the
    swallow-tail interior is {H^2 < -(4/27) lambda^3}.
    """

    model_kind: str
    domain_radius: float
    cusp_point: tuple[float, float]
    ell: list[tuple[float, float]]
    hyp: list[tuple[float, float]]

    def elliptic_value(self, lam: float) -> float:
        if lam >= 0:
            raise ValueError("branches exist for lambda < 0 only")
        if self.model_kind == CUSP_LOCAL:
            return -2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
        h_ell, _ = _near_cusp_critical_values(lam)
        if h_ell is None:
            raise ValueError(f"no elliptic branch at lambda={lam}")
        return h_ell

    def hyperbolic_value(self, lam: float) -> float:
        if lam >= 0:
            raise ValueError("branches exist for lambda < 0 only")
        if self.model_kind == CUSP_LOCAL:
            return 2.0 * (-lam) ** 1.5 / (3.0 * math.sqrt(3.0))
        _, h_hyp = _near_cusp_critical_values(lam)
        if h_hyp is None:
            raise ValueError(f"no hyperbolic branch at lambda={lam}")
        return h_hyp

    def in_swallowtail(self, H: float, lam: float) -> bool:
        if lam >= 0:
            return False
        try:
            return self.elliptic_value(lam) < H < self.hyperbolic_value(lam)
        except ValueError:
            return False

    def on_sigma(self, H: float, lam: float, tol: float = 1e-10) -> bool:
        if lam > tol:
            return False
        if abs(lam) <= tol:
            return abs(H) <= tol
        return (
            abs(H - self.hyperbolic_value(lam)) <= tol
            or abs(H - self.elliptic_value(lam)) <= tol
        )

    def stratum(self, H: float, lam: float) -> str:
        """'narrow' on the swallow-tail interior, 'wide' elsewhere in the
        domain (compact model only), 'outside' otherwise."""
        if math.hypot(H, lam) > self.domain_radius or self.on_sigma(H, lam, tol=1e-12):
            return "outside"
        if self.in_swallowtail(H, lam):
            return "narrow"
        if self.model_kind == CUSP_COMPACT:
            return "wide"
        return "outside"


def bifurcation_diagram(
    model: FibrationModel,
    lam_range: tuple[float, float] = (-DEFAULT_DOMAIN_RADIUS, 0.0),
    n: int = 33,
    domain_radius: float = DEFAULT_DOMAIN_RADIUS,
) -> BifurcationDiagram:
    if model.kind not in (CUSP_LOCAL, CUSP_COMPACT):
        raise ValueError("bifurcation diagram defined for the cusp models")
    diagram = BifurcationDiagram(
        model_kind=model.kind,
        domain_radius=domain_radius,
        cusp_point=(0.0, 0.0),
        ell=[],
        hyp=[],
    )
    lo, hi = lam_range
    for lam in np.linspace(lo, min(hi, 0.0), n):
        if lam >= 0:
            continue
        try:
            h_e = diagram.elliptic_value(float(lam))
            h_h = diagram.hyperbolic_value(float(lam))
        except ValueError:
            continue
        if math.hypot(h_e, lam) <= domain_radius:
            diagram.ell.append((h_e, float(lam)))
        if math.hypot(h_h, lam) <= domain_radius:
            diagram.hyp.append((h_h, float(lam)))
    return diagram


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
    coeffs = [float(c) for c in b.coeffs]
    if all(c == 0 for c in coeffs):
        raise ValueError("b is identically zero; no simple zero exists")
    roots = np.roots(list(reversed(coeffs))) if len(coeffs) > 1 else np.array([])
    lo, hi = search_range
    candidates = sorted(
        (
            float(r.real)
            for r in roots
            if abs(r.imag) < 1e-9 * (1.0 + abs(r)) and lo <= r.real <= hi
        ),
        key=abs,
    )
    if not candidates:
        raise ValueError(f"b has no real zero in {search_range}")
    f0 = candidates[0]
    db = b.deriv()
    if abs(float(db.eval(f0))) < 1e-10:
        raise ValueError(f"degenerate zero of b at {f0}: b'(f0) = 0, not parabolic")
    # synthetic division of b by (lambda - f0); remainder must vanish
    rev = list(reversed(coeffs))
    out = []
    acc = 0.0
    for c in rev:
        acc = acc * f0 + c
        out.append(acc)
    remainder = out.pop()
    if abs(remainder) > 1e-9 * max(1.0, max(abs(c) for c in coeffs)):
        raise ValueError(f"inexact division: remainder {remainder}")
    c_series = TruncatedSeries(list(reversed(out)))
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

    dF = F.gradient(pt, exact=exact)
    dH = H.gradient(pt, exact=exact)
    nF = max(abs(float(v)) for v in dF)
    if nF == 0:
        raise ValueError("dF(P) = 0: the standing assumption dF != 0 fails")

    # k from dH = k dF, checked for consistency; inconsistent => rank 2, regular
    m = max(range(3), key=lambda i: abs(float(dF[i])))
    k = dH[m] / dF[m] if not exact else Fraction(dH[m], dF[m])
    if exact:
        consistent = all(dH[i] - k * dF[i] == 0 for i in range(3))
    else:
        resid = max(abs(float(dH[i] - k * dF[i])) for i in range(3))
        scale = max(max(abs(float(v)) for v in dH), nF)
        consistent = resid <= rank_threshold * max(1.0, scale)
    if not consistent:
        return ParabolicVerdict(REGULAR, k, -1, 0, -1)

    W = H - F * k
    hess = W.hessian(pt, exact=exact)

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
    d3 = W.third_directional(pt, v, exact=exact)
    hF = F.hessian(pt, exact=exact)
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
    phi: tuple[Poly2, Poly2],
) -> tuple[ParabolicVerdict, ParabolicVerdict]:
    """Rerun the checker on (H~, F~) = phi(H, F); verdicts must agree.

    ``phi`` must be non-degenerate at (H(P), F(P)) and satisfy dF~(P) != 0.
    """
    h_map, f_map = phi
    pt = tuple(float(v) for v in point)
    h0, f0 = H.eval(*pt), F.eval(*pt)
    jac = (
        h_map.diff(0)(h0, f0) * f_map.diff(1)(h0, f0)
        - h_map.diff(1)(h0, f0) * f_map.diff(0)(h0, f0)
    )
    if abs(jac) < 1e-12:
        raise ValueError("degenerate base map: Jacobian vanishes at phi(H(P), F(P))")
    before = is_parabolic(H, F, point)
    H_t = h_map.substitute(H, F)
    F_t = f_map.substitute(H, F)
    dFt = F_t.gradient(pt)
    if max(abs(float(v)) for v in dFt) < 1e-12:
        raise ValueError("dF~(P) = 0 after the base change; precondition fails")
    after = is_parabolic(H_t, F_t, point)
    return before, after
