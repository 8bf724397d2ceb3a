"""Exact truncated power series in one local parameter t.

A series stores all coefficients for exponents 0..precision-1; everything
from t^precision on is unknown.  Coefficients are exact and held as
numerators over one positive integer denominator per series: rationals in
concrete mode are lifted to int numerators over the lcm of their
denominators, and over a family a `poly.Poly` coefficient in the
parameters is lifted the same way, to a Poly numerator with int
coefficients over the lcm of its coefficients' denominators.  A product
multiplies the two denominators, a sum brings both to their lcm and
divides out the common factor of the new denominator and every integer
coefficient of the numerators, and scaling by c multiplies the numerators
by the integral m*c and the denominator by the least m that makes m*c
integral.  So a run does integer arithmetic per coefficient, concrete or
parametric, and touches a Fraction only for the one scalar of each cancel
step; `coeff(i)` and `leading()` give the true values.

Zero tests here are syntactic and read the numerators; a parametric run
decides the vanishing of a coefficient through its constraint oracle
instead, which sees a numerator: a positive integer multiple of the true
coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PrecisionError


def _den(c):
    """Least positive int m with m*c integral, for c an int, a Fraction or
    a Poly."""
    if isinstance(c, (int, Fraction)):
        return c.denominator
    return lcm(*(v.denominator for v in c.terms.values()))


def _integral(c, m):
    """m*c with int coefficients, for m a multiple of _den(c)."""
    if isinstance(c, (int, Fraction)):
        return c.numerator * (m // c.denominator)
    return type(c)(c.ring, {e: v.numerator * (m // v.denominator)
                            for e, v in c.terms.items()})


def _content(g, nums):
    """gcd of g and every integer coefficient of the numerators nums, each
    an int or a Poly with int coefficients."""
    for c in nums:
        for v in (c,) if isinstance(c, int) else c.terms.values():
            g = gcd(g, v)
            if g == 1:
                return 1
    return g


class AbovePrecision:
    """Outcome of order() when every stored coefficient vanishes.

    Distinct from any integer: the true order is >= precision but unknown.
    """

    __slots__ = ("precision",)

    def __init__(self, precision):
        self.precision = precision

    def __eq__(self, other):
        return isinstance(other, AbovePrecision) and self.precision == other.precision

    def __hash__(self):
        return hash(("AbovePrecision", self.precision))

    def __repr__(self):
        return f"AbovePrecision({self.precision})"


class TruncatedSeries:
    """Numerators coeffs[0..precision-1] over one positive integer den.

    The coefficient of t^i is coeffs[i] / den (`coeff(i)`); a numerator is
    zero exactly when its coefficient is, so zero tests read coeffs.
    """

    __slots__ = ("coeffs", "den", "precision")

    def __init__(self, coeffs, precision, den=1):
        coeffs = tuple(coeffs)
        if len(coeffs) != precision:
            raise ValueError("coefficient list does not match precision")
        if precision < 1:
            raise ValueError("precision must be positive")
        self.coeffs = coeffs
        self.den = den
        self.precision = precision

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(precision):
        return TruncatedSeries((0,) * precision, precision)

    @staticmethod
    def from_terms(terms, precision):
        """terms: iterable of (exponent, coefficient); exponents >= precision
        drop.  Coefficients are lifted to integer numerators, or Poly
        numerators with int coefficients, over the lcm of their
        denominators."""
        coeffs = [0] * precision
        for e, c in terms:
            if e < 0:
                raise ValueError("negative exponent")
            if e < precision:
                coeffs[e] = coeffs[e] + c
        if not all(isinstance(c, (int, Fraction)) for c in coeffs):
            den = lcm(*map(_den, coeffs))
            return TruncatedSeries([_integral(c, den) for c in coeffs], precision, den)
        den = 1
        for c in coeffs:
            den = lcm(den, c.denominator)
        return TruncatedSeries(
            [c.numerator * (den // c.denominator) for c in coeffs], precision, den)

    @staticmethod
    def monomial(exponent, coefficient, precision):
        return TruncatedSeries.from_terms([(exponent, coefficient)], precision)

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators, with
        the common factor of the new denominator and numerators (their
        integer coefficients, for Poly numerators) divided out."""
        p = min(self.precision, other.precision)
        a, b = self.coeffs[:p], other.coeffs[:p]
        da, db = self.den, other.den
        den = da
        if da != db:
            den = lcm(da, db)
            ma, mb = den // da, den // db
            if ma != 1:
                a = [c * ma for c in a]
            if mb != 1:
                b = [c * mb for c in b]
        if sign > 0:
            out = [x + y for x, y in zip(a, b)]
        else:
            out = [x - y for x, y in zip(a, b)]
        if den != 1:
            g = den
            try:
                for c in out:
                    if c:
                        g = gcd(g, c)
                        if g == 1:
                            break
            except TypeError:
                g = _content(g, out)    # Poly numerators
            if g != 1:
                den //= g
                out = [c // g for c in out]
        return TruncatedSeries(out, p, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        # Both operands have order >= 0, so min precision is safe.
        p = min(self.precision, other.precision)
        out = [0] * p
        for i, a in enumerate(self.coeffs[:p]):
            if not a:
                continue
            for j, b in enumerate(other.coeffs[: p - i]):
                if b:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(out, p, self.den * other.den)

    def scale(self, c):
        if not c:
            return TruncatedSeries.zero(self.precision)
        den = self.den
        if isinstance(c, Fraction):
            den *= c.denominator
            c = c.numerator
        elif not isinstance(c, int):
            m = _den(c)     # a Poly: scale by the integral m*c over m
            if m != 1:
                den *= m
                c = _integral(c, m)
        return TruncatedSeries([c * a if a else 0 for a in self.coeffs],
                               self.precision, den)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = TruncatedSeries.monomial(0, 1, self.precision)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def derivative(self):
        if self.precision < 2:
            raise PrecisionError("cannot differentiate a precision-1 series")
        return TruncatedSeries(
            [(i + 1) * self.coeffs[i + 1] if self.coeffs[i + 1] else 0
             for i in range(self.precision - 1)],
            self.precision - 1, self.den)

    def coeff(self, i):
        """The true coefficient of t^i."""
        c, den = self.coeffs[i], self.den
        if den == 1:
            return c
        return Fraction(c, den) if isinstance(c, int) else c / den

    # -- order ----------------------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the lowest nonzero term, or AbovePrecision."""
        o = self.order()
        if isinstance(o, AbovePrecision):
            return o
        return o, self.coeff(o)

    def order(self):
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return AbovePrecision(self.precision)

    # -- misc -------------------------------------------------------------------

    def truncate(self, precision):
        if precision >= self.precision:
            return self
        return TruncatedSeries(self.coeffs[:precision], precision, self.den)

    def map_coeffs(self, fn):
        """Apply a ring homomorphism fn (one that fixes the integers, such
        as evaluation at a point) to every coefficient.  The images of the
        numerators are lifted again, so evaluating Poly numerators gives
        int ones."""
        return TruncatedSeries.from_terms(
            ((i, fn(c)) for i, c in enumerate(self.coeffs) if c),
            self.precision).scale(Fraction(1, self.den))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.precision != other.precision:
            return False
        da, db = self.den, other.den
        return all((a * db - b * da) == 0 if (a or b) else True
                   for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        parts = [f"{self.coeff(i)}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(t^{self.precision})>"
