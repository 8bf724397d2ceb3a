"""Exact sparse polynomials over the rationals in named variables.

One type serves both settings of the computation.  In a concrete run the
standard basis representatives and the 1-form coefficients are polynomials
in the coordinates x, y[, z, w]; `eval_series` substitutes a
parametrization into them.  In a parametric run over a normal-form family
every series coefficient is a polynomial in the family parameters a_i.
Zero testing is syntactic; deciding whether a non-constant coefficient
vanishes is the job of the case splitting in `strata`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add

from .series import TruncatedSeries

COORD_NAMES = ("x", "y", "z", "w")


def _exact(q):
    """q as an int when its denominator is 1, else unchanged.

    Integral coefficients stay ints so that products avoid Fraction
    arithmetic; `Fraction(2) == 2` with equal hashes and equal `str`, so
    either form gives the same polynomial."""
    return q.numerator if q.denominator == 1 else q


class Ring:
    """A polynomial ring Q[v_1, ..., v_k] with a fixed ordered variable list.

    Arithmetic requires both operands to live in the same Ring object."""

    def __init__(self, names):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")
        self._zero_exp = (0,) * len(self.names)

    def __repr__(self):
        return f"Ring({list(self.names)!r})"

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = _exact(Fraction(c))
        if c == 0:
            return self.zero()
        return Poly(self, {self._zero_exp: c})

    def gen(self, name):
        exp = [0] * len(self.names)
        exp[self.index[name]] = 1
        return Poly(self, {tuple(exp): 1})

    def gens(self):
        return [self.gen(n) for n in self.names]


@lru_cache(maxsize=None)
def coordinate_ring(nvars):
    """The one ring of coordinate polynomials in nvars variables, named
    x, y, z, w (x0, x1, ... beyond four)."""
    if nvars <= len(COORD_NAMES):
        return Ring(COORD_NAMES[:nvars])
    return Ring(f"x{i}" for i in range(nvars))


class Poly:
    """Sparse polynomial: dict from exponent tuple to nonzero rational, an
    int when integral and a Fraction otherwise.  The constructor takes the
    dict as given; callers drop zero terms themselves."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- basic predicates -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and self.ring._zero_exp in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[self.ring._zero_exp]

    def variables(self):
        used = set()
        for e in self.terms:
            for i, d in enumerate(e):
                if d:
                    used.add(self.ring.names[i])
        return used

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError("mixed polynomial rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return None

    def _combine(self, other, sign):
        """self + sign * other, for other a Poly in the same ring or a
        rational, which goes straight into the constant term."""
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError("mixed polynomial rings")
            items = other.terms.items()
        elif isinstance(other, (int, Fraction)):
            items = ((self.ring._zero_exp, _exact(other)),)
        else:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in items:
            s = terms.get(e, 0) + c if sign > 0 else terms.get(e, 0) - c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return Poly(self.ring, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self.terms:
                return self.ring.zero()
            if isinstance(other, Fraction):
                if other.denominator != 1:
                    return Poly(self.ring, {e: _exact(c * other)
                                            for e, c in self.terms.items()})
                other = other.numerator
            return Poly(self.ring, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.ring.zero()
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return Poly(self.ring, terms)

    # scale(c) is the scalar product, as for series and 1-forms.
    __rmul__ = scale = __mul__

    def __truediv__(self, other):
        if isinstance(other, Poly):
            if not other.is_constant():
                raise ValueError("can only divide by a constant")
            other = other.constant_value()
        other = Fraction(other)
        return Poly(self.ring,
                    {e: _exact(c / other) for e, c in self.terms.items()})

    def __floordiv__(self, k):
        """self / k for an int k that divides every coefficient, as a
        series divides its numerators by their common factor."""
        return Poly(self.ring, {e: c // k for e, c in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def partial(self, i):
        """Partial derivative with respect to variable i."""
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                d = list(e)
                d[i] -= 1
                terms[tuple(d)] = c * e[i]
        return Poly(self.ring, terms)

    # -- substitution and evaluation -----------------------------------------

    def subs(self, mapping):
        """Substitute variables; mapping maps names to Poly or rationals."""
        if not any(n in mapping for n in self.variables()):
            return self
        result = self.ring.zero()
        for e, c in self.terms.items():
            term = self.ring.constant(c)
            for i, d in enumerate(e):
                if not d:
                    continue
                name = self.ring.names[i]
                if name in mapping:
                    val = mapping[name]
                    if not isinstance(val, Poly):
                        val = self.ring.constant(val)
                    term = term * val ** d
                else:
                    term = term * self.ring.gen(name) ** d
            result = result + term
        return result

    def eval(self, point):
        """Evaluate at a rational point given as {name: Fraction}."""
        total = Fraction(0)
        for e, c in self.terms.items():
            val = c
            for i, d in enumerate(e):
                if d:
                    val *= Fraction(point[self.ring.names[i]]) ** d
            total += val
        return total

    def eval_series(self, args, power_cache=None):
        """Substitute TruncatedSeries for the variables.

        args must have one series per variable; the result precision is the
        minimum of the argument precisions.
        """
        if len(args) != len(self.ring.names):
            raise ValueError("argument count does not match variable count")
        prec = min(a.precision for a in args)
        if power_cache is None:
            power_cache = {}
        total = TruncatedSeries.zero(prec)
        for e, c in self.terms.items():
            term = None
            for i, d in enumerate(e):
                if not d:
                    continue
                key = (i, d)
                if key not in power_cache:
                    power_cache[key] = args[i] ** d
                factor = power_cache[key]
                term = factor if term is None else term * factor
            if term is None:
                total = total + TruncatedSeries.monomial(0, c, prec)
            else:
                total = total + term.scale(c)
        return total

    # -- normal form -----------------------------------------------------------

    def content(self):
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return Fraction(1)
        num = 0
        den = 1
        for c in self.terms.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def normalized(self):
        """Divide by content and fix the sign of the lexicographically leading term."""
        if not self.terms:
            return self
        p = self / self.content()
        lead = max(p.terms)
        if p.terms[lead] < 0:
            p = -p
        return p

    def linear_solve(self, name):
        """If self == A*name + B with A a nonzero rational and B free of name,
        return B/(-A) as a Poly; otherwise None."""
        i = self.ring.index[name]
        a = None
        b_terms = {}
        for e, c in self.terms.items():
            d = e[i]
            if d == 0:
                b_terms[e] = c
            elif d == 1:
                if any(e[j] for j in range(len(e)) if j != i):
                    return None  # coefficient of `name` is not constant
                if a is not None:
                    return None
                a = c
            else:
                return None
        if a is None:
            return None
        return Poly(self.ring, b_terms) / (-a)

    # -- rendering ---------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            factors = []
            for i, d in enumerate(e):
                if d == 1:
                    factors.append(self.ring.names[i])
                elif d > 1:
                    factors.append(f"{self.ring.names[i]}^{d}")
            if not factors:
                parts.append(str(c))
                continue
            mono = "*".join(factors)
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__
