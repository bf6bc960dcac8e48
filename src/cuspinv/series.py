"""Truncated power-series arithmetic and the fractional shift operators.

A :class:`TruncatedSeries` is a jet a_0 + a_1*H + ... + a_K*H^K.  Binary
operations truncate to the smaller order of the two operands and are exact
on the retained coefficients.  Coefficients may be floats or Fractions;
all-rational inputs propagate exactly, which is what the algebraic
cross-checks rely on.

The operators ``phi_r_apply`` / ``phi_r_invert`` implement the map
A(H) -> A'(H)*H + r*A(H) and its inverse, which translate between the
fractional coefficients of the passage-time expansion and those of the
area expansion (a = phi_{5/6}(A), b = phi_{7/6}(B)).
"""

from __future__ import annotations

import math
from fractions import Fraction

DEFAULT_ORDER = 4

_EXACT_TYPES = (int, Fraction)


def _is_finite(c) -> bool:
    if isinstance(c, _EXACT_TYPES):
        return True
    return math.isfinite(c)


class TruncatedSeries:
    """Truncated power series in one variable, lowest order first."""

    __slots__ = ("coeffs",)

    def __init__(self, coefficients, order: int | None = None):
        coeffs = list(coefficients)
        if order is not None:
            if order < 0:
                raise ValueError("truncation order must be non-negative")
            coeffs = coeffs[: order + 1]
            coeffs += [0] * (order + 1 - len(coeffs))
        if not coeffs:
            coeffs = [0]
        for c in coeffs:
            if not _is_finite(c):
                raise ValueError(f"non-finite coefficient: {c!r}")
        self.coeffs = coeffs

    # -- basic protocol ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.coeffs})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(list(self.coeffs))

    def truncated(self, order: int) -> "TruncatedSeries":
        return TruncatedSeries(self.coeffs, order=order)

    # -- arithmetic (min-order truncation rule) ----------------------------

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            k = min(self.order, other.order)
            return TruncatedSeries([self.coeffs[i] + other.coeffs[i] for i in range(k + 1)])
        c = list(self.coeffs)
        c[0] = c[0] + other
        return TruncatedSeries(c)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            k = min(self.order, other.order)
            out = [0] * (k + 1)
            for i, a in enumerate(self.coeffs[: k + 1]):
                if a == 0:
                    continue
                for j in range(k + 1 - i):
                    b = other.coeffs[j]
                    if b != 0:
                        out[i + j] += a * b
            return TruncatedSeries(out)
        return TruncatedSeries([c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if isinstance(scalar, TruncatedSeries):
            return self * scalar.reciprocal()
        return TruncatedSeries([c / scalar for c in self.coeffs])

    # -- calculus ----------------------------------------------------------

    def deriv(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries([0])
        return TruncatedSeries([k * self.coeffs[k] for k in range(1, self.order + 1)])

    def eval(self, h):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * h + c
        return acc

    __call__ = eval

    # -- composition and inversion ------------------------------------------

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(H)); requires inner(0) == 0 so truncation is exact."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition requires a series with zero constant term")
        k = min(self.order, inner.order)
        inner_k = inner.truncated(k)
        acc = TruncatedSeries([self.coeffs[k]], order=k)
        for c in reversed(self.coeffs[:k]):
            acc = acc * inner_k + c
        return acc

    def reciprocal(self) -> "TruncatedSeries":
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("series with zero constant term is not invertible")
        k = self.order
        inv0 = Fraction(1) / c0 if isinstance(c0, _EXACT_TYPES) else 1 / c0
        out = [inv0]
        for n in range(1, k + 1):
            s = 0
            for i in range(1, n + 1):
                s += self.coeffs[i] * out[n - i]
            out.append(-s * inv0)
        return TruncatedSeries(out)

    def reversion(self) -> "TruncatedSeries":
        """Compositional inverse of a series with f(0)=0, f'(0) != 0.

        With f(y) = y V(y), Lagrange inversion gives the coefficients of the
        inverse as [u^n] y(u) = (1/n) [y^(n-1)] V(y)^(-n); exact for
        Fraction coefficients.
        """
        if self.coeffs[0] != 0:
            raise ValueError("reversion requires zero constant term")
        if self.order < 1 or self.coeffs[1] == 0:
            raise ValueError("reversion requires a non-zero linear coefficient")
        v_inv = TruncatedSeries(self.coeffs[1:]).reciprocal()
        power = v_inv
        out = [0]
        for n in range(1, self.order + 1):
            out.append(power.coeffs[n - 1] / n)
            power = power * v_inv
        return TruncatedSeries(out)

    def pow(self, exponent) -> "TruncatedSeries":
        """self**exponent by J.C.P. Miller's recurrence
        n c_0 b_n = sum_{k=1..n} ((exponent + 1) k - n) c_k b_{n-k};
        exact for Fraction coefficients with c_0 = 1 and a Fraction exponent.
        A non-integral exponent needs c_0 > 0.
        """
        c0 = self.coeffs[0]
        if c0 == 0 or (c0 < 0 and not _is_integral(exponent)):
            raise ValueError("pow requires c_0 != 0, and c_0 > 0 for a non-integral exponent")
        out = [c0 if c0 == 1 else c0**exponent]
        for n in range(1, self.order + 1):
            s = 0
            for k in range(1, n + 1):
                s += ((exponent + 1) * k - n) * self.coeffs[k] * out[n - k]
            out.append(s / (n * c0))
        return TruncatedSeries(out)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> list[float]:
        return [float(c) for c in self.coeffs]

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        return cls([0, 1], order=order)


def _is_integral(r) -> bool:
    if isinstance(r, Fraction):
        return r.denominator == 1
    if isinstance(r, int):
        return True
    return float(r).is_integer()


def phi_r_apply(series: TruncatedSeries, r) -> TruncatedSeries:
    """A(H) -> A'(H)*H + r*A(H); on coefficients, A_k -> (k + r)*A_k."""
    return TruncatedSeries([(k + r) * c for k, c in enumerate(series.coeffs)])


def phi_r_invert(series: TruncatedSeries, r) -> TruncatedSeries:
    """Inverse of phi_r; requires non-integral r (phi_r is bijective iff r not in Z)."""
    if _is_integral(r):
        raise ValueError("phi_r is not bijective for integral r")
    out = []
    for k, c in enumerate(series.coeffs):
        d = k + r
        if isinstance(c, _EXACT_TYPES) and isinstance(d, (Fraction, int)):
            out.append(Fraction(c) / Fraction(d))
        else:
            out.append(c / d)
    return TruncatedSeries(out)


class PuiseuxTriple:
    """The expansion a(H)*H^(-1/6) + b(H)*H^(1/6) + c(H) for H > 0.

    The representation is unique: two triples agreeing on enough positive
    sample points have identical coefficient vectors.
    """

    __slots__ = ("a", "b", "c")

    def __init__(self, a: TruncatedSeries, b: TruncatedSeries, c: TruncatedSeries):
        self.a = a
        self.b = b
        self.c = c

    def eval(self, h: float) -> float:
        if h <= 0:
            raise ValueError("Puiseux evaluation requires H > 0")
        return (
            float(self.a.eval(h)) * h ** (-1.0 / 6.0)
            + float(self.b.eval(h)) * h ** (1.0 / 6.0)
            + float(self.c.eval(h))
        )

    __call__ = eval

    def __repr__(self) -> str:
        return f"PuiseuxTriple(a={self.a.coeffs}, b={self.b.coeffs}, c={self.c.coeffs})"
