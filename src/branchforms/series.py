"""Exact truncated power series in one local parameter t.

A series stores all coefficients for exponents 0..precision-1; everything
from t^precision on is unknown.  Coefficients are exact: rationals in
concrete mode or `poly.Poly`s in the family parameters when computing over
a family.  Zero tests here are syntactic; a parametric run decides the
vanishing of a coefficient through its constraint oracle instead.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError


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
    __slots__ = ("coeffs", "precision")

    def __init__(self, coeffs, precision):
        coeffs = tuple(coeffs)
        if len(coeffs) != precision:
            raise ValueError("coefficient list does not match precision")
        if precision < 1:
            raise ValueError("precision must be positive")
        self.coeffs = coeffs
        self.precision = precision

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(precision):
        return TruncatedSeries((0,) * precision, precision)

    @staticmethod
    def from_terms(terms, precision):
        """terms: iterable of (exponent, coefficient); exponents >= precision drop."""
        coeffs = [0] * precision
        for e, c in terms:
            if e < 0:
                raise ValueError("negative exponent")
            if e < precision:
                coeffs[e] = coeffs[e] + c
        return TruncatedSeries(coeffs, precision)

    @staticmethod
    def monomial(exponent, coefficient, precision):
        return TruncatedSeries.from_terms([(exponent, coefficient)], precision)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        p = min(self.precision, other.precision)
        return TruncatedSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(p)], p)

    def __sub__(self, other):
        p = min(self.precision, other.precision)
        return TruncatedSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(p)], p)

    def __neg__(self):
        return TruncatedSeries([-c if c else 0 for c in self.coeffs], self.precision)

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
        return TruncatedSeries(out, p)

    def scale(self, c):
        if not c:
            return TruncatedSeries.zero(self.precision)
        return TruncatedSeries([c * a if a else 0 for a in self.coeffs], self.precision)

    def shift(self, k):
        """Multiply by t^k."""
        if k == 0:
            return self
        return TruncatedSeries((0,) * k + self.coeffs[: self.precision - k],
                               self.precision)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = TruncatedSeries.monomial(0, Fraction(1), self.precision)
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
            self.precision - 1)

    # -- order ----------------------------------------------------------------

    def leading(self):
        """(exponent, coefficient) of the lowest nonzero term, or AbovePrecision."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i, c
        return AbovePrecision(self.precision)

    def order(self):
        lead = self.leading()
        if isinstance(lead, AbovePrecision):
            return lead
        return lead[0]

    # -- misc -------------------------------------------------------------------

    def truncate(self, precision):
        if precision >= self.precision:
            return self
        return TruncatedSeries(self.coeffs[:precision], precision)

    def map_coeffs(self, fn):
        return TruncatedSeries([fn(c) if c else 0 for c in self.coeffs],
                               self.precision)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.precision != other.precision:
            return False
        return all((a - b) == 0 if (a or b) else True
                   for a, b in zip(self.coeffs, other.coeffs))

    def __repr__(self):
        parts = [f"{c}*t^{i}" for i, c in enumerate(self.coeffs) if c]
        body = " + ".join(parts) if parts else "0"
        return f"<{body} + O(t^{self.precision})>"
