"""Exact truncated power series in one local parameter t.

A series stores all coefficients for exponents 0..precision-1; everything
from t^precision on is unknown.  Coefficients are exact and held as
numerators over one positive integer denominator per series: rationals in
concrete mode are lifted to int numerators over the lcm of their
denominators, and over a family a `poly.Poly` coefficient in the
parameters is lifted the same way, to a Poly numerator with int
coefficients over the lcm of its coefficients' denominators.  Every
numerator is built as an int or as a Poly with a non-constant term.

A series over a family carries the parameter `Ring` of its Poly
numerators (`ring`, None for int numerators), set where it is built and
passed on by every operation, so no product scans its coefficients to
choose a path.  Int numerators take plain list arithmetic; Poly numerators
go through the ring's fused kernels, which accumulate term products of
packed monomials straight into one dict per output coefficient and build
no intermediate Poly.

A product multiplies the two denominators.  A linear combination
a*S + b*T of numerators (`lincomb`, behind + and -, the leading-term
cancel step and the S-process) takes a denominator from its caller and
divides out the common factor of it and every integer coefficient of the
new numerators, which leaves the least denominator: so its result is
canonical, whatever scalar multiples its inputs carried.  Scaling is by
a rational p/q only: it multiplies the numerators by p and the
denominator by q.  So series arithmetic is integer arithmetic throughout,
concrete or parametric; `coeff(i)` and `leading()` give the true values.

Zero tests are syntactic and read the numerators.  Over a family a
nonzero numerator counts as nonzero, and `strata` reads the splits this
makes off the finished run from the numerators too: each is a positive
integer multiple of the true coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import PrecisionError


def _integral(c, m):
    """m*c as a numerator (an int, or a Poly with a non-constant term), for
    c an int, a Fraction or a Poly and m a multiple of c.denominator."""
    if isinstance(c, (int, Fraction)):
        return c.numerator * (m // c.denominator)
    return c.integral(m)


def _common_ring(s, t):
    """The parameter ring of two series' numerators, None when both hold ints."""
    if s.ring is None or s.ring is t.ring:
        return t.ring
    if t.ring is not None:
        raise ValueError("mixed polynomial rings")
    return s.ring


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
    zero exactly when its coefficient is, so zero tests read coeffs.  ring
    is the Ring of the Poly numerators, or None when every numerator is an
    int.
    """

    __slots__ = ("coeffs", "den", "precision", "ring")

    def __init__(self, coeffs, precision, den=1, ring=None):
        coeffs = tuple(coeffs)
        if len(coeffs) != precision:
            raise ValueError("coefficient list does not match precision")
        if precision < 1:
            raise ValueError("precision must be positive")
        self.coeffs = coeffs
        self.den = den
        self.precision = precision
        self.ring = ring

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(precision):
        return TruncatedSeries((0,) * precision, precision)

    @staticmethod
    def from_terms(terms, precision):
        """terms: iterable of (exponent, coefficient); exponents >= precision
        drop.  Coefficients are lifted to integer numerators, or Poly
        numerators with int coefficients, over the lcm of their
        denominators; only positions that a term lands on are lifted."""
        hit = {}
        for e, c in terms:
            if e < 0:
                raise ValueError("negative exponent")
            if e < precision:
                hit[e] = hit.get(e, 0) + c
        ring = next((c.ring for c in hit.values() if not isinstance(c, (int, Fraction))),
                    None)
        den = lcm(*(c.denominator for c in hit.values()))
        coeffs = [0] * precision
        for e, c in hit.items():
            coeffs[e] = _integral(c, den)
        return TruncatedSeries(coeffs, precision, den, ring)

    # -- arithmetic ---------------------------------------------------------

    def lincomb(self, a, other, b, den):
        """The series with numerators a*x + b*y over den, for x, y the
        numerators of self and other and a, b ints (Polys too over a
        family), with the common factor of den and every integer
        coefficient of the new numerators divided out.  The caller picks
        den, so the true value is (a*x + b*y)/den."""
        p = min(self.precision, other.precision)
        xs, ys = self.coeffs[:p], other.coeffs[:p]
        ring = _common_ring(self, other)
        if ring is not None:
            out, den = ring.series_lincomb(xs, a, ys, b, den)
            return TruncatedSeries(out, p, den, ring)
        if a != 1:
            xs = [a * x for x in xs]
        if b == 1:
            out = [x + y for x, y in zip(xs, ys)]
        elif b == -1:
            out = [x - y for x, y in zip(xs, ys)]
        else:
            out = [x + b * y for x, y in zip(xs, ys)]
        if den != 1:
            g = gcd(den, *out)
            if g != 1:
                den //= g
                out = [c // g for c in out]
        return TruncatedSeries(out, p, den)

    def _combine(self, other, sign):
        """self + sign * other over the lcm of the two denominators."""
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        return self.lincomb(den // da, other, sign * (den // db), den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        # Both operands have order >= 0, so min precision is safe.
        p = min(self.precision, other.precision)
        ring = _common_ring(self, other)
        if ring is not None:
            return TruncatedSeries(ring.series_mul(self.coeffs, other.coeffs, p),
                                   p, self.den * other.den, ring)
        out = [0] * p
        right = [(j, b) for j, b in enumerate(other.coeffs[:p]) if b]
        for i, a in enumerate(self.coeffs[:p]):
            for j, b in right if a else ():
                if i + j >= p:
                    break
                out[i + j] += a * b
        return TruncatedSeries(out, p, self.den * other.den)

    def scale(self, c):
        """c * self for c an int or a Fraction."""
        if not c:
            return TruncatedSeries.zero(self.precision)
        den = self.den
        if isinstance(c, Fraction):
            den *= c.denominator
            c = c.numerator
        return TruncatedSeries([c * a if a else 0 for a in self.coeffs],
                               self.precision, den, self.ring)

    def derivative(self):
        if self.precision < 2:
            raise PrecisionError("cannot differentiate a precision-1 series")
        return TruncatedSeries(
            [(i + 1) * self.coeffs[i + 1] if self.coeffs[i + 1] else 0
             for i in range(self.precision - 1)],
            self.precision - 1, self.den, self.ring)

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


def _cut(s, n):
    """s cut to its first n positions (s itself when no longer, or n None)."""
    if n is None or s.precision <= n:
        return s
    return TruncatedSeries(s.coeffs[:n], n, s.den, s.ring)


class _ProductCache:
    """Products of powers of a basis of series or of polynomials.  The basis
    list may grow while the cache is in use; a product only reads the
    elements it names.

    Over series, a caller may pass a length n that only falls between
    calls (`forms._Completion` says why that is exact): powers are built
    from basis elements cut to n and returned cut to n, and a product
    cached at a larger n comes back as stored."""

    def __init__(self, basis):
        self.basis = basis
        self._pow = {}
        self._prod = {}

    def power(self, i, d, n=None):
        """basis[i] ** d (d >= 1), squared from the element itself."""
        p = self.basis[i] if d == 1 else self._pow.get((i, d))
        if p is None:
            half = self.power(i, d >> 1, n)
            p = half * half
            if d & 1:
                p = p * self.power(i, 1, n)
            self._pow[i, d] = p
        return _cut(p, n)

    def product(self, delta, n=None):
        """The product of basis[i] ** delta[i]; None when it is empty."""
        delta = tuple(delta)
        if delta not in self._prod:
            out = None
            for i, d in enumerate(delta):
                if d:
                    p = self.power(i, d, n)
                    out = p if out is None else out * p
            self._prod[delta] = out
        return self._prod[delta]
