"""Fibration models, polynomial densities, bifurcation diagrams and the
parabolic-point checker.

Model kinds
-----------
``cusp_local``    H = x^2 + y^3 + lambda*y        (germ near a parabolic orbit)
``cusp_compact``  H = x^2 + y^4 + y^3 + lambda*y  (compact fibers; same germ at 0,
                  the quartic term closes the fibers so a genuine cuspidal torus
                  exists; the deep well's value -27/256 at y = -3/4 and lambda = 0
                  lies outside the default base domain)
``one_dof``       H = y^3 - x^2                   (one-degree-of-freedom cusp)
``node``          H = x*y                         (non-degenerate saddle model)

Each Hamiltonian is written once, in ``_hamiltonian_for``; the potential W of
the cusp models (H = x^2 + W(y; lambda)) is read off it.  Sigma is the set of
critical values of W, its two branches W at the cusp pair, the top two
critical points.  All of these come from one array-form critical table
(``_Critical``): W' of every lambda of a query solved at once, the cusp
pair, W and W'' read off the roots.  The strata of the diagram are read off
the levels of its points by the oval builders' rule (``quadrature._strata``).
A request asks for its polynomials in one stacked root solve per dependency
step (``_solved``), the table's W' rows beside the levels of ``quadrature``.
One rule, ``sigma_flags``, puts a level on Sigma: within SIGMA_RTOL of a
critical value, relative to the gaps to the critical values next to it.

The map (x, y, H) -> (x, -y, -H) carries the cusp_local model at lambda = 0
to the one_dof model; densities transform by f(x, y) -> f(x, -y).
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .series import TruncatedSeries, _is_finite

_EXACT_TYPES = (int, Fraction)

CUSP_LOCAL = "cusp_local"
CUSP_COMPACT = "cusp_compact"
ONE_DOF = "one_dof"
NODE = "node"

MODEL_KINDS = (CUSP_LOCAL, CUSP_COMPACT, ONE_DOF, NODE)

#: the one tolerance of Sigma, relative to the gaps between critical values (``sigma_flags``)
SIGMA_RTOL = 1e-12

#: default base-domain radius; keeps the auxiliary elliptic value -27/256 of
#: the compact model outside the working neighborhood of the cusp
DEFAULT_DOMAIN_RADIUS = 0.08


class OnSigmaError(ValueError):
    """Requested integral degenerates on the bifurcation diagram."""


class StratumError(ValueError):
    """Base point is outside the stratum required by the operation."""


def _is_number(v) -> bool:
    """Whether v is a number as JSON reads one that a float can hold: an int
    or a float, not true or false, nor an int beyond float range."""
    return type(v) is float or type(v) is int and abs(v) <= sys.float_info.max


class Density:
    """Trivariate polynomial sum c * x^i y^j lambda^k.

    Doubles as the container for model Hamiltonians, for the reduced
    symplectic densities omega_lambda = f dx^dy and, lambda-free with (x, y)
    read as (H, F), for the components of base maps phi(H, F).  For
    symplectic use the value at the origin must be positive; that is checked
    where the mathematics requires it, not at construction (formal densities
    such as f = y are legitimate inputs to the period integrals).
    """

    def __init__(self, terms):
        data: dict[tuple[int, int, int], object] = {}
        items = terms.items() if isinstance(terms, dict) else ((tuple(e), c) for c, e in terms)
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
        terms = [(t["c"], tuple(t["e"])) for t in data["terms"]]
        if kinds := {type(v) for c, e in terms for v in (c, *e)} - {int, float}:  # as _is_number
            raise ValueError(f"a term entry is a {min(k.__name__ for k in kinds)}, not a number")
        density = cls(terms)
        if max(map(abs, density.terms.values()), default=0) > sys.float_info.max:  # an int no float holds
            e = next(e for e, c in density.terms.items() if not _is_number(c))
            raise ValueError(f"the coefficient at {e} is an integer beyond float range")
        return density

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
        """The product ((self self) self)..., n factors."""
        if n < 0:
            raise ValueError("negative power")
        out = Density.constant(1)
        for _ in range(n):
            out = out * self
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
        """Float evaluation; numpy-array friendly, the value shaped as x, y and
        lambda broadcast together.  Each term is ((c x^i) y^j) lambda^k in
        ``terms`` order, every factor of exponent 0 left out and every power a
        product v^n = ((v v) v)... taken once per call, so scalars and arrays
        agree bit for bit and (-x)^i is exactly -(x^i) for odd i."""
        terms, ni, nj, nk = self._plan
        px, py, pl = _powers(x, ni), _powers(y, nj), _powers(lam, nk)
        acc = 0.0
        for c, i, j, k in terms:
            c = c * px[i] if i else c
            c = c * py[j] if j else c
            c = c * pl[k] if k else c
            acc = acc + c
        return acc if ni and nj and nk else _broadcast(acc, x, y, lam)

    __call__ = eval

    def eval_pm(self, x, y, lam=0.0):
        """(eval(x, y, lam), eval(-x, y, lam)) bit for bit, each term taken
        once and negated in the second sum where i is odd."""
        terms, ni, nj, nk = self._plan
        px, py, pl = _powers(x, ni), _powers(y, nj), _powers(lam, nk)
        plus = minus = 0.0
        for c, i, j, k in terms:
            c = c * px[i] if i else c
            c = c * py[j] if j else c
            c = c * pl[k] if k else c
            plus, minus = plus + c, (minus - c if i % 2 else minus + c)
        if ni and nj and nk:
            return plus, minus
        return _broadcast(plus, x, y, lam), _broadcast(minus, x, y, lam)

    @cached_property
    def _plan(self):
        """The float terms (c, i, j, k) and the highest power of x, y and lambda."""
        terms = tuple((float(c), *e) for e, c in self.terms.items())
        return (terms, *(max((t[v] for t in terms), default=0) for v in (1, 2, 3)))

    def eval_exact(self, x, y, lam=0):
        """Exact evaluation for Fraction/int arguments."""
        acc = 0
        for (i, j, k), c in self.terms.items():
            acc += c * x**i * y**j * lam**k
        return acc

    def diff(self, axis: int) -> "Density":
        out = {}
        for e, c in self.terms.items():
            if e[axis]:  # distinct terms stay distinct
                out[e[:axis] + (e[axis] - 1,) + e[axis + 1 :]] = e[axis] * c
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
                out[a][b] = out[b][a] = _eval_at(da.diff(b), point)
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


def _powers(v, n: int) -> list:
    """[1.0, v, v^2, ..., v^n], each power the product of the one before and v."""
    p = [1.0, v]
    while n > 1:
        p.append(p[-1] * v)
        n -= 1
    return p


def _broadcast(value, x, y, lam):
    """value in the shape of x, y and lambda broadcast together."""
    if isinstance(x, float) and isinstance(y, float) and isinstance(lam, float):
        return value
    shape = np.broadcast(x, y, lam).shape
    return value if np.shape(value) == shape else np.broadcast_to(value, shape).copy()


def _bound_at(densities, lam):
    """(shape, args): the (i, j) of each density's terms, the key of the code
    generated for them, and the float c and lambda^k of each term to bind."""
    plans = [f._plan for f in densities]
    pl = _powers(float(lam), max((p[3] for p in plans), default=0))
    shape = tuple(tuple((i, j) for _, i, j, _ in p[0]) for p in plans)
    return shape, [v for p in plans for c, _, _, k in p[0] for v in (c, pl[k])]


def _terms_source(shape) -> tuple[str, list[str]]:
    """(params, lines): the lines set v0, v1, ... to the shape's polynomials at
    (x1, y1), each 0.0 + c x^i y^j lambda^k + ... in ``terms`` order, term m
    reading the params c{m} and l{m}, the powers x2 = x1 x1, ... as ``_powers``
    takes them.  Only identifiers and integer exponents reach the source."""
    terms = [(p, i, j) for p, poly in enumerate(shape) for i, j in poly]
    ni, nj = (max((e[v] for e in terms), default=0) for v in (1, 2))
    body = [f"x{n} = x{n - 1} * x1" for n in range(2, ni + 1)]
    body += [f"y{n} = y{n - 1} * y1" for n in range(2, nj + 1)]
    body += [f"v{p} = 0.0" for p in range(len(shape))]
    for m, (p, i, j) in enumerate(terms):  # a statement per term: no parser nesting limit
        x, y = f" * x{i}" if i else "", f" * y{j}" if j else ""
        body.append(f"v{p} = v{p} + c{m}{x}{y} * l{m}")
    return ", ".join(f"c{m}, l{m}" for m in range(len(terms))), body


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
        if not isinstance(data, dict):
            raise ValueError(f"a model is a JSON object, not {data!r:.40}")
        if not _is_number(x0 := data.get("x0", 1.0)):
            raise ValueError(f"section offset x0 {x0!r:.40} is not a number, or beyond float range")
        return cls(data["kind"], Density.from_json(data["density"]), float(x0))


def cusp_local_model(density=None, x0: float = 1.0) -> FibrationModel:
    return FibrationModel(CUSP_LOCAL, density or Density.constant(1), x0)


def cusp_compact_model(density=None, x0: float = 0.25) -> FibrationModel:
    return FibrationModel(CUSP_COMPACT, density or Density.constant(1), x0)


def one_dof_model(density=None, x0: float = 1.0) -> FibrationModel:
    return FibrationModel(ONE_DOF, density or Density.constant(1), x0)


def node_model(density=None) -> FibrationModel:
    return FibrationModel(NODE, density or Density.constant(1))


# -- polynomial roots ----------------------------------------------------------


def _horner(coeffs, x):
    """np.polyval(coeffs, x) for a list of floats and a scalar x, without
    numpy's per-call cost (the same operations in the same order); for the
    columns of a 2-D array (its .T) and an array x, each row at its own x."""
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _stacked_roots(polys) -> np.ndarray:
    """The real roots of each polynomial of a batch (a 2-D array, or a list of
    coefficient sequences of any lengths), highest coefficient first: row i
    holds those of ``numpy.roots`` of polynomial i, ascending, bit for bit,
    padded with NaN (one ``np.linalg.eigvals`` call on the companion matrices
    of each size; real where |imag| <= 1e-8 (1 + the largest |real| or |imag|
    part)), each then polished by three Newton steps, all roots of the batch
    together, by Horner's rule on the zero-padded coefficients, a root
    staying put where P' = 0."""
    polys = _rows(polys)
    n, width = polys.shape
    nonzero = polys != 0
    lead, trailing = nonzero.argmax(axis=1), nonzero[:, ::-1].argmax(axis=1)
    sizes = np.where(nonzero.any(axis=1), width - 1 - trailing - lead, -1)  # -1: no roots
    raw = np.full((n, width - 1), np.nan)
    for size in set(sizes.tolist()) - {-1}:
        members = np.flatnonzero(sizes == size)
        q = polys[members[:, None], lead[members, None] + np.arange(size + 1)]
        comp = np.zeros((len(members), size, size))
        comp.reshape(len(members), size * size)[:, size :: size + 1] = 1.0  # below the diagonal
        comp[:, :1] = -q[:, None, 1:] / q[:, None, :1]
        w = np.linalg.eigvals(comp)
        # 1 + the largest |real| or |imag| part, both read from one view of w
        scale = 1.0 + np.abs(w.view(float)).max(axis=1, initial=0.0, keepdims=True)
        found = np.where(np.abs(w.imag) <= 1e-8 * scale, w.real, np.nan)
        # with the roots y = 0 that numpy.roots deflates from the trailing zeros
        zeros = trailing[members, None]
        if zeros.any():
            zeros = np.where(np.arange(zeros.max()) < zeros, 0.0, np.nan)
            found = np.concatenate((found, zeros), axis=1)
        raw[members, : found.shape[1]] = np.sort(found, axis=1, kind="stable")
    # (P, P') coefficients at each root, P' padded with a leading zero
    at = ~np.isnan(raw)
    cd = np.zeros((width, 2, at.sum()))
    cd[:, 0] = polys[np.nonzero(at)[0]].T
    cd[1:, 1] = cd[:-1, 0] * np.arange(width - 1, 0, -1)[:, None]
    r = raw[at]
    for _ in range(3):
        acc = cd[0].copy()
        for c in cd[1:]:
            acc *= r
            acc += c
        r = r - np.divide(acc[0], acc[1], out=np.zeros(r.size), where=acc[1] != 0)
    raw[at] = r
    return raw


def _rows(polys) -> np.ndarray:
    """A batch of polynomials as a 2-D array, shorter rows padded with leading zeros."""
    if isinstance(polys, np.ndarray) and polys.ndim == 2:
        return polys
    rows = [np.asarray(p, dtype=float) for p in polys]
    out = np.zeros((len(rows), max(map(len, rows), default=1)))
    for row, c in zip(out, rows):
        row[len(row) - len(c) :] = c
    return out


def _solved(*asks) -> list:
    """Each ask's result from one stacked root solve, a request's one solve per
    dependency step.  An ask is (rows, finish): finish(roots) is its result from
    ``_stacked_roots`` of its rows (``_rows``) with their width; the leading
    zeros that pad the narrower batches leave every root unchanged."""
    blocks = [_rows(rows) for rows, _ in asks]
    ends = list(accumulate(len(b) for b in blocks))
    stacked = np.zeros((ends[-1], max(b.shape[1] for b in blocks)))
    for b, e in zip(blocks, ends):
        stacked[e - len(b) : e, stacked.shape[1] - b.shape[1] :] = b
    solved = _stacked_roots(stacked)
    return [f(solved[e - len(b) : e, : b.shape[1] - 1]) for (_, f), b, e in zip(asks, blocks, ends)]


def _synthetic_division(coeffs, root):
    """coeffs / (y - root) along the last axis, highest first, remainder
    discarded; the rows of a 2-D array each by their own root."""
    coeffs = np.asarray(coeffs, dtype=float)
    out = np.empty(coeffs.shape[:-1] + (coeffs.shape[-1] - 1,))
    acc = np.zeros(coeffs.shape[:-1])
    for i in range(out.shape[-1]):
        acc = acc * root + coeffs[..., i]
        out[..., i] = acc
    return out


# -- bifurcation diagram -------------------------------------------------------


def sigma_flags(h, values) -> np.ndarray:
    """Whether each level H lies on Sigma at each critical value W(c) of its
    row (ascending in c, padded with NaN): |H - W(c)| < SIGMA_RTOL times the
    least of 1 and the gaps from W(c) to the critical values next to it.  A
    gap of 0, the inflection of W at lambda = 0, puts no level on Sigma."""
    one = np.ones((len(values), 1))  # past either end
    gaps = np.hstack((one, np.fmin(np.abs(np.diff(values)), 1.0), one))
    near = np.fmin(gaps[:, :-1], gaps[:, 1:])
    return np.abs(np.asarray(h, dtype=float)[:, None] - values) < SIGMA_RTOL * near


def _potentials(model: FibrationModel, lams) -> np.ndarray:
    """W's coefficients (highest first) at each of the lambdas, one row each;
    for no lambdas no rows, of W's width."""
    w = [model.potential_coeffs(lam) for lam in lams]
    return np.array(w or [model.potential_coeffs(0.0)])[: len(w)]


class _Critical(NamedTuple):
    """The critical table of W at each lambda of a batch: its coefficients w,
    its real critical points crit, ascending and padded with NaN, and W there."""

    w: np.ndarray
    crit: np.ndarray
    values: np.ndarray

    def cusp_pair(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y, W(y), W''(y)) at the cusp pair, (n, 2) arrays of the elliptic and
        the hyperbolic column, NaN for a branch absent: the top critical
        point carries the elliptic branch where it is a minimum (W'' > 0), the
        one below it the hyperbolic branch where it is a saddle (W'' < 0).  At
        lambda < 0 the pair has unfolded from the cusp at y = 0; the compact
        model's deep well near y = -3/4 lies below both, and past lambda =
        -1/4, where it has met the saddle, only the minimum is left."""
        top = np.maximum(np.count_nonzero(~np.isnan(self.crit), axis=1)[:, None] - [1, 2], 0)
        y, values = (np.take_along_axis(v, top, axis=1) for v in (self.crit, self.values))
        curvature = _horner(_derivative(_derivative(self.w)).T[..., None], y)
        absent = ~(curvature * [1.0, -1.0] > 0)
        return tuple(np.where(absent, np.nan, v) for v in (y, values, curvature))


def _derivative(rows: np.ndarray) -> np.ndarray:
    """The derivative of each row of coefficients (highest first), as np.polyder takes it."""
    return rows[:, :-1] * np.arange(rows.shape[1] - 1, 0, -1)


def _critical_ask(w: np.ndarray):
    """The ask (``_solved``) for the critical table of the W rows w: W' of each."""
    return _derivative(w), lambda crit: _Critical(w, crit, _horner(w.T[..., None], crit))


def saddles(model: FibrationModel, lams: np.ndarray):
    """(lambdas, saddles a, W(a), W''(a)) at the lambdas < 0 of an array, the
    hyperbolic column of the cusp pair (``_Critical.cusp_pair``) from one root
    solve; StratumError where W has no saddle."""
    if (lams >= 0).any():
        raise ValueError("the saddle requires lambda < 0")
    flat = lams.ravel().tolist()
    (table,) = _solved(_critical_ask(_potentials(model, flat)))
    a, h, d2w = (v[:, 1] for v in table.cusp_pair())
    if np.isnan(a).any():
        raise StratumError(f"no saddle near the cusp at lambda={flat[np.isnan(a).argmax()]}")
    return flat, a, h, d2w


@dataclass
class BifurcationDiagram:
    """Bifurcation diagram Sigma near the cusp point.

    At each lambda < 0 asked about, the elliptic and hyperbolic values are
    W at the cusp pair of critical points; every branch query takes all its
    lambdas at once and reads the critical table of their W' (``_Critical``),
    one root solve or a share of a request's solve (``_branch_ask``); the
    strata of (H, lambda) points are read off one level solve of them.
    For the canonical local model Sigma = {H^2 = -(4/27) lambda^3} with the
    elliptic branch at H < 0 and the hyperbolic branch at H > 0; the
    swallow-tail interior is {H^2 < -(4/27) lambda^3}.
    """

    model: FibrationModel
    domain_radius: float

    def _branch_ask(self, lams: list[float], required: tuple[int, ...]):
        """The ask (``_solved``) for (H_ell, H_hyp) at each lambda, an (n, 2)
        array; ValueError naming the first ``required`` branch absent."""
        if any(lam >= 0 for lam in lams):
            raise ValueError("branches exist for lambda < 0 only")
        rows, table = _critical_ask(_potentials(self.model, lams))

        def finish(crit):
            values = table(crit).cusp_pair()[1]
            for row, lam in zip(np.isnan(values[:, list(required)]).tolist(), lams):
                if any(row):
                    branch = ("elliptic", "hyperbolic")[required[row.index(True)]]
                    raise ValueError(f"no {branch} branch at lambda={lam}")
            return values

        return rows, finish

    def branch_values(self, lam):
        """(H_ell, H_hyp) at lambda, two arrays for an array of lambdas, from
        one root solve; ValueError naming the first absent branch."""
        lams = np.asarray(lam, dtype=float)
        (values,) = _solved(self._branch_ask(lams.ravel().tolist(), (0, 1)))
        return tuple(v.reshape(lams.shape) if lams.ndim else float(v[0]) for v in values.T)

    def elliptic_value(self, lam: float) -> float:
        return float(_solved(self._branch_ask([lam], (0,)))[0][0, 0])

    def hyperbolic_value(self, lam: float) -> float:
        return float(_solved(self._branch_ask([lam], (1,)))[0][0, 1])

    def stratum(self, H: float, lam: float) -> str:
        """'narrow' where the level has its narrow oval, the vanishing cycle
        inside the swallow-tail; 'wide' where a compact level has its wide
        oval; 'outside' otherwise, on Sigma at the oval's ends too."""
        return self.strata([(H, lam)])[0]

    def strata(self, points) -> list[str]:
        """stratum(H, lambda) of each of a list of (H, lambda) points, read
        off one level solve of them by the rule of the oval builders
        (``quadrature._strata``); outside past the radius."""
        from .quadrature import _levels, _strata  # quadrature builds on this module

        return _strata(_levels(self.model, points), self.domain_radius)


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
        return (H - float(self.a.eval(lam))) / abs(cval) ** 1.5, self.eta * (lam - self.f0)


def canonicalize_base(a: TruncatedSeries, b: TruncatedSeries) -> CanonicalBaseTransform:
    """Reduce the diagram (H - a(F))^2 = -(4/27) b(F)^3 to the standard form.

    Requires a simple zero f0 of b in [-1, 1]; rejects degenerate zeros
    (b'(f0) = 0), which are not parabolic.
    """
    coeffs = [float(c) for c in b.coeffs][::-1]
    if all(c == 0 for c in coeffs):
        raise ValueError("b is identically zero; no simple zero exists")
    candidates = sorted((r for r in _stacked_roots([coeffs])[0].tolist() if abs(r) <= 1.0), key=abs)
    if not candidates:
        raise ValueError("b has no real zero in [-1, 1]")
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

#: relative singular-value and residual threshold of the float rank decisions
RANK_THRESHOLD = 1e-9


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


def _to_exact_point(point):
    """The point in Fractions where each coordinate is an int, a Fraction or an
    integral float; None otherwise."""
    exact = (isinstance(v, _EXACT_TYPES) or isinstance(v, float) and v.is_integer() for v in point)
    return tuple(map(Fraction, point)) if all(exact) else None


def _float_rank(matrix) -> int:
    m = np.array(matrix, dtype=float)
    if not m.any():
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > RANK_THRESHOLD * s[0]))


def _exact_rank(matrix) -> int:
    """Rank by Gaussian elimination over the Fractions."""
    rows = [list(map(Fraction, row)) for row in matrix if any(row)]
    if not rows:
        return 0
    pivot = rows.pop()
    j = next(j for j, a in enumerate(pivot) if a != 0)
    return 1 + _exact_rank([[a - r[j] / pivot[j] * b for a, b in zip(r, pivot)] for r in rows])


def is_parabolic(H: Density, F: Density, point) -> ParabolicVerdict:
    """Classify the rank-1 singular point of the momentum map (H, F).

    Checks, on the 3-space (x, y, lambda) transverse to the flow direction:
      (i)   d^2 H0 restricted to ker dF has rank 1,
      (ii)  the cubic form d^3 H0 does not vanish on ker d^2 H0,
      (iii) d^2 (H - k F) has full rank,
    for the unique k with dH(P) = k dF(P).  Polynomial derivatives are exact.
    The zero test and the rank are chosen once, from the data: exact (v == 0,
    elimination over the Fractions) where the coefficients and the point are
    rational, else within RANK_THRESHOLD (relative singular values for ranks).
    """
    exact_pt = _to_exact_point(point)
    exact = exact_pt is not None and H.is_exact() and F.is_exact()
    pt = exact_pt if exact else tuple(float(v) for v in point)
    zero, rank = ((lambda v, scale=0.0: v == 0), _exact_rank) if exact else (
        (lambda v, scale=0.0: abs(float(v)) <= RANK_THRESHOLD * max(1.0, scale)),
        _float_rank,
    )

    dF = F.gradient(pt)
    dH = H.gradient(pt)
    nF = max(abs(float(v)) for v in dF)
    if nF == 0:
        raise ValueError("dF(P) = 0: the standing assumption dF != 0 fails")

    # k from dH = k dF, checked for consistency; inconsistent => rank 2, regular
    m = max(range(3), key=lambda i: abs(float(dF[i])))
    k = dH[m] / dF[m]
    scale = max(max(abs(float(v)) for v in dH), nF)
    if not all(zero(dH[i] - k * dF[i], scale) for i in range(3)):
        return ParabolicVerdict(REGULAR, k, -1, 0, -1)

    W = H - F * k
    hess = W.hessian(pt)

    # basis of ker dF: dF[m] e_i - dF[i] e_m for the two axes i other than m
    basis = [
        tuple(dF[m] if j == i else -dF[i] if j == m else 0 for j in range(3)) for i in range(3) if i != m
    ]

    def quad(mat, u, v):
        return sum(mat[i][j] * u[i] * v[j] for i in range(3) for j in range(3))

    m2 = [[quad(hess, basis[i], basis[j]) for j in range(2)] for i in range(2)]
    rank_restricted, rank_full = rank(m2), rank(hess)
    if rank_restricted != 1:
        return ParabolicVerdict(FAILS_I, k, rank_restricted, 0, rank_full)

    # kernel direction of the restricted quadratic form, from its larger row:
    # the two rows of a rank-1 form are parallel
    a11, a12 = m2[0][0], m2[0][1]
    a22 = m2[1][1]
    c = (-a12, a11) if max(abs(float(a11)), abs(float(a12))) >= max(
        abs(float(a12)), abs(float(a22))
    ) else (-a22, a12)
    v = tuple(c[0] * basis[0][i] + c[1] * basis[1][i] for i in range(3))
    vmax = max(v, key=lambda t: abs(float(t)))
    v = tuple(t / vmax for t in v)  # its largest entry is 1

    # third derivative along v within {F = F(P)}: the curve's acceleration is
    # constrained by F, contributing -3 d2F(v,v) d2W(v,n)/dF(n)
    d3 = W.third_directional(pt, v)
    hF = F.hessian(pt)
    d2F_vv = quad(hF, v, v)
    n_vec = tuple(1 if i == m else 0 for i in range(3))
    d2W_vn = quad(hess, v, n_vec)
    v3 = d3 - 3 * d2F_vv * d2W_vn / dF[m]

    if zero(v3):
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
