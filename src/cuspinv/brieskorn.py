"""Exact reduction of polynomial 2-forms f(x,y) dx^dy modulo relatively
exact forms on the one-degree-of-freedom model H = y^3 - x^2.

Every polynomial density reduces uniquely to

    f dx^dy  ==  alpha(H) dx^dy + beta(H) y dx^dy   (mod dH ^ d eta),

and the reduction rules below are derived once from the relations
dH ^ d(x^a y^b) == 0 with dH = 3y^2 dy - 2x dx, which give

    3a x^(a-1) y^(b+2)  ==  -2b x^(a+1) y^(b-1)        (a, b >= 0).

Specializing:
  (R1) x^2        -> y^3 - H                (polynomial identity on fibers)
  (R2) x * y^j    == 0                      (a = 0 relation)
  (R3) x^j * y^2  == 0                      (b = 0 relation; j = 0 used here)
  (R4) y^j        == 2(j-2)/(2j-1) * H * y^(j-3)   for j >= 3
       (combine a=1, b=j-2 with R1 and solve for y^j).

R1 strictly lowers the x-degree, R4 strictly lowers the y-degree, so the
rewriting terminates on the basis {1, y} with coefficients in Q[H].  All
arithmetic is exact over Fractions; floats convert via their exact binary
value.  Each rule is validated against the quadrature oracle in the tests
(a = C0*alpha and b = C1*beta coefficientwise).

The reduction is linear over Q: a density's pair is the sum of c times the
table of x^a y^b over its terms c x^a y^b, a table reduced once per monomial
(``_monomial``) and, pulled back to a cusp model, once per kind (``_pulled``).
Exact sums give each Fraction and series length the whole-density rewrite gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .model import Density, FibrationModel, _potential_terms
from .series import DEFAULT_ORDER, TruncatedSeries


@dataclass
class BrieskornPair:
    """The coefficient series (alpha, beta) of the reduced form.

    For a symplectic density alpha(0) != 0; the representation is unique.
    """

    alpha: TruncatedSeries
    beta: TruncatedSeries

    def to_json(self) -> dict:
        return {"alpha": self.alpha.to_json(), "beta": self.beta.to_json()}


def _sum(terms) -> dict:
    """The sum of c table over the (c, table) terms, every key of every table kept."""
    out: dict = {}
    for c, table in terms:
        for key, v in table.items():
            out[key] = out[key] + c * v if key in out else c * v
    return out


@lru_cache(maxsize=None)
def _monomial(a: int, b: int, h: int = 0) -> dict[tuple[int, int], Fraction]:
    """The reduction of x^a y^b H^h: {(0, k): alpha_k, (1, k): beta_k} over
    every power k of H that the rules reach, also where its terms cancel."""
    if a >= 2:  # R1: x^2 = y^3 - H
        return _sum([(1, _monomial(a - 2, b + 3, h)), (-1, _monomial(a - 2, b, h + 1))])
    if a == 1 or b == 2:  # R2: x y^b == 0, R3: y^2 == 0
        return {}
    if b >= 3:  # R4 as one product, no recursion deep as y^b: y^b == 2(b-2)/(2b-1) H y^(b-3)
        c = math.prod(Fraction(2 * (m - 2), 2 * m - 1) for m in range(b, 2, -3))
        return _sum([(c, _monomial(0, b % 3, h + b // 3))])
    return {(b, h): Fraction(1)}


def _series(table: dict, i: int, top: int) -> TruncatedSeries:
    return TruncatedSeries([table.get((i, h), Fraction(0)) for h in range(top + 1)])


def reduce(f: Density) -> BrieskornPair:
    """Reduce a polynomial density (restricted to lambda = 0) exactly: the sum
    of c times the table of x^a y^b over its terms c x^a y^b.

    Returns Fraction-coefficient series padded to at least DEFAULT_ORDER so
    downstream series arithmetic keeps enough headroom.
    """
    table = _sum((Fraction(c), _monomial(a, b)) for (a, b, k), c in f.terms.items() if not k)
    tops = (max([DEFAULT_ORDER, *(h for j, h in table if j == i)]) for i in (0, 1))
    return BrieskornPair(*(_series(table, i, top) for i, top in enumerate(tops)))


@lru_cache(maxsize=None)
def _level_chart(kind: str) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(y(u), y'(u)) through u^(3K+2) and u^(3K+1), K = DEFAULT_ORDER, on a cusp model.

    After the sign bridge the lambda = 0 level of H = x^2 + W(y; 0) is
    y^3 U(y) - x^2 with the unit U = -W(-y)/y^3; u = y U(y)^(1/3) makes it
    u^3 - x^2.  A term x^a u^b reduces onto alpha_h if 3a + 2b = 6h and onto
    beta_h if 3a + 2b = 6h + 2, so beta_K needs y^j y'(u) through u^(3K+1).
    """
    n = 3 * DEFAULT_ORDER + 2
    unit = [Fraction(0)] * (n + 1)
    for j, k, c in _potential_terms(kind)[1]:
        if k == 0:
            unit[j - 3] -= (-1) ** j * c
    root = TruncatedSeries(unit).pow(Fraction(1, 3))
    y = TruncatedSeries([0] + root.coeffs[:n]).reversion()
    return y, y.deriv()


@lru_cache(maxsize=None)
def _pulled(kind: str, a: int, j: int) -> dict[tuple[int, int], Fraction]:
    """The reduction of x^a y^j dx^dy pulled back to (x, u) (``_level_chart``),
    where it is x^a y(u)^j y'(u) dx^du; only its terms x^a u^b of weight
    3a + 2b <= 6K + 2 are kept, the others cannot reach H^K."""
    y, power = _level_chart(kind)  # y^j y'(u) through u^(3K+1)
    for _ in range(j):
        power = power * y
    top = 6 * DEFAULT_ORDER + 2 - 3 * a  # the weight of beta_K less that of x^a
    return _sum((c, _monomial(a, b)) for b, c in enumerate(power.coeffs) if c and 2 * b <= top)


def model_pair(model: FibrationModel) -> BrieskornPair:
    """(alpha, beta) through H^K of a cusp model's density at lambda = 0.

    The mirrored density f(x, -y) is pulled back to (x, u), where the level
    is u^3 - x^2, and reduced there; exact over Fractions for both kinds.
    By linearity that is the sum of c (-1)^j times the pulled table of
    x^a y^j (``_pulled``) over the density's terms c x^a y^j.
    """
    kind, terms = model.kind, model.density.terms.items()
    table = _sum(((-1) ** j * Fraction(c), _pulled(kind, a, j)) for (a, j, k), c in terms if not k)
    return BrieskornPair(_series(table, 0, DEFAULT_ORDER), _series(table, 1, DEFAULT_ORDER))
