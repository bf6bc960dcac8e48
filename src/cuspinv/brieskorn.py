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
"""

from __future__ import annotations

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


def _as_fraction(c) -> Fraction:
    return c if isinstance(c, Fraction) else Fraction(c)


def reduce(f: Density) -> BrieskornPair:
    """Reduce a polynomial density (restricted to lambda = 0) exactly.

    Returns Fraction-coefficient series padded to at least DEFAULT_ORDER so
    downstream series arithmetic keeps enough headroom.
    """
    poly = f.restrict_lambda0()
    terms = {(e[0], e[1]): _as_fraction(c) for e, c in poly.terms.items()}

    # alpha/beta coefficients over H, indexed by power of H
    alpha: dict[int, Fraction] = {}
    beta: dict[int, Fraction] = {}

    # monomials tracked as x^a y^b H^h with an exact coefficient
    work = [(a, b, 0, c) for (a, b), c in terms.items() if c != 0]
    while work:
        a, b, h, c = work.pop()
        if c == 0:
            continue
        if a >= 2:
            # R1: x^2 = y^3 - H
            work.append((a - 2, b + 3, h, c))
            work.append((a - 2, b, h + 1, -c))
            continue
        if a == 1:
            # R2: x y^b == 0
            continue
        if b == 2:
            # R3: y^2 == 0
            continue
        if b >= 3:
            # R4: y^b == 2(b-2)/(2b-1) H y^(b-3)
            work.append((0, b - 3, h + 1, c * Fraction(2 * (b - 2), 2 * b - 1)))
            continue
        target = alpha if b == 0 else beta
        target[h] = target.get(h, Fraction(0)) + c

    def to_series(table: dict[int, Fraction]) -> TruncatedSeries:
        top = max(table.keys(), default=0)
        k = max(DEFAULT_ORDER, top)
        coeffs = [table.get(i, Fraction(0)) for i in range(k + 1)]
        return TruncatedSeries(coeffs)

    return BrieskornPair(alpha=to_series(alpha), beta=to_series(beta))


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


def model_pair(model: FibrationModel) -> BrieskornPair:
    """(alpha, beta) through H^K of a cusp model's density at lambda = 0.

    The mirrored density f(x, -y) is pulled back to (x, u), where the level
    is u^3 - x^2, and reduced there; exact over Fractions for both kinds.
    Reduction keeps the weight 3a + 2b of x^a u^b, so the pull-back drops
    the terms of weight above 6K + 2, which cannot reach H^K.
    """
    y, dy = _level_chart(model.kind)
    f = model.density.restrict_lambda0().mirror_y()
    powers = [dy]  # y^j y'(u) through u^(3K+1)
    while len(powers) <= max((j for _, j, _ in f.terms), default=0):
        powers.append(powers[-1] * y)
    pulled = Density(
        (_as_fraction(c) * cb, (a, b, 0))
        for (a, j, _), c in f.terms.items()
        for b, cb in enumerate(powers[j].coeffs)
        if 3 * a + 2 * b <= 6 * DEFAULT_ORDER + 2
    )
    pair = reduce(pulled)
    return BrieskornPair(pair.alpha.truncated(DEFAULT_ORDER), pair.beta.truncated(DEFAULT_ORDER))
