"""Exact sparse polynomials over the rationals in named variables.

One type serves both settings of the computation.  In a concrete run the
standard basis representatives and the 1-form coefficients are polynomials
in the coordinates x, y[, z, w]; `eval_series` substitutes a
parametrization into them.  In a parametric run over a normal-form family
every series coefficient is a polynomial in the family parameters a_i.
Zero testing is syntactic; deciding whether a non-constant coefficient
vanishes is the job of the case splitting in `strata`.

A polynomial keeps its terms in a dict keyed by one int per monomial
(packed exponent vectors, Monagan & Pearce 2007): the exponents sit
most-significant-first in one 32-bit field per variable of the ring, whose
top bit is a guard.  So a monomial product is one integer addition, and
as long as no field reaches its guard bit, int order on the keys is
lexicographic order on the exponent tuples, which `__str__`,
`normalized` and the factor order read.  Every exponent stays below 2^31:
a product checks its result keys against the ring's guard mask and
raises OverflowError rather than carry into the next field.  The
constructor and the `terms` view speak exponent tuples; only the hot
paths, and the fused series kernels of `Ring`, touch packed keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm
from operator import or_

from .series import TruncatedSeries, _ProductCache

COORD_NAMES = ("x", "y", "z", "w")

_BITS = 32
_FIELD = (1 << _BITS) - 1
MAX_EXPONENT = (1 << (_BITS - 1)) - 1


def _exact(q):
    """q as an int when its denominator is 1, else unchanged.

    Integral coefficients stay ints so that products avoid Fraction
    arithmetic; `Fraction(2) == 2` with equal hashes and equal `str`, so
    either form gives the same polynomial."""
    return q.numerator if q.denominator == 1 else q


def _ints(terms):
    """terms, changed in place: every Fraction coefficient with denominator
    1 becomes an int (see `_exact`)."""
    for e, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _overflow():
    return OverflowError(f"polynomial exponent above {MAX_EXPONENT}")


class Ring:
    """A polynomial ring Q[v_1, ..., v_k] with a fixed ordered variable list.

    Arithmetic requires both operands to live in the same Ring object.
    Variable i owns the 32-bit field at bit `_shifts[i]` of a packed key;
    `_mask` holds the guard bit of every field."""

    def __init__(self, names):
        self.names = tuple(names)
        self.index = {n: i for i, n in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate variable names")
        k = len(self.names)
        self._shifts = tuple(_BITS * (k - 1 - i) for i in range(k))
        self._mask = sum((MAX_EXPONENT + 1) << s for s in self._shifts)

    def __repr__(self):
        return f"Ring({list(self.names)!r})"

    # -- packed monomials --------------------------------------------------

    def _pack(self, exps):
        if len(exps) != len(self.names):
            raise ValueError("exponent tuple does not match the variable count")
        key = 0
        for d in exps:
            if d < 0:
                raise ValueError("negative exponent")
            if d > MAX_EXPONENT:
                raise _overflow()
            key = key << _BITS | d
        return key

    def _unpack(self, key):
        return tuple(key >> s & _FIELD for s in self._shifts)

    def _check(self, dicts):
        """Raise OverflowError when a key of the packed dicts has a guard
        bit set."""
        if self._mask and reduce(or_, chain.from_iterable(dicts), 0) & self._mask:
            raise _overflow()

    # -- elements ------------------------------------------------------------

    def zero(self):
        return Poly._new(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = _exact(Fraction(c))
        return Poly._new(self, {0: c} if c else {})

    def gen(self, name):
        return Poly._new(self, {1 << self._shifts[self.index[name]]: 1})

    def gens(self):
        return [self.gen(n) for n in self.names]

    # -- fused kernels for series with numerators in this ring ----------------

    def _element(self, terms):
        """A numerator from packed terms (or None): 0, an int when
        constant, else a Poly."""
        if not terms:
            return 0
        if len(terms) == 1 and 0 in terms:
            return terms[0]
        return Poly._new(self, terms)

    def series_mul(self, xs, ys, p):
        """The first p numerators of the product of two numerator lists,
        each an int or a Poly of this ring.  Term products accumulate
        straight into one packed dict per output degree."""
        acc = [None] * p
        right = [(j, y._t.items() if y.__class__ is Poly else ((0, y),))
                 for j, y in enumerate(ys[:p]) if y]
        for i, x in enumerate(xs[:p]):
            if not x:
                continue
            lim = p - i
            left = tuple(x._t.items()) if x.__class__ is Poly else ((0, x),)
            kx0, cx0 = left[0]
            for j, yt in right:
                if j >= lim:
                    break
                d = acc[i + j]
                rest = left
                if d is None:
                    # a monomial times a polynomial has distinct terms
                    d = acc[i + j] = {kx0 + ky: cx0 * cy for ky, cy in yt}
                    rest = left[1:]
                get = d.get
                for kx, cx in rest:
                    for ky, cy in yt:
                        k = kx + ky
                        d[k] = get(k, 0) + cx * cy
        for i, d in enumerate(acc):
            if d and 0 in d.values():
                acc[i] = {k: c for k, c in d.items() if c}
        self._check(filter(None, acc))
        return [self._element(d) for d in acc]

    def series_lincomb(self, xs, a, ys, b, den):
        """(numerators, den') of a*x + b*y over den for the numerator lists
        xs, ys, each entry and a, b an int or a Poly of this ring, with the
        common factor of den and every integer coefficient divided out."""
        at, bt = tuple(_items(a)), tuple(_items(b))
        a_poly = isinstance(a, Poly)
        if a_poly:
            ka0, ca0 = at[0]
        acc = []
        for x, y in zip(xs, ys):
            if not x:
                d = {}
            elif a_poly:
                xt = tuple(_items(x))
                d = {kx + ka0: cx * ca0 for kx, cx in xt}
                get = d.get
                for ka, ca in at[1:]:
                    for kx, cx in xt:
                        k = kx + ka
                        d[k] = get(k, 0) + cx * ca
            elif x.__class__ is int:
                d = {0: x * a}
            elif a == 1:
                d = dict(x._t)
            else:
                d = {k: c * a for k, c in x._t.items()}
            if y:
                get = d.get
                for ky, cy in _items(y):
                    for kb, cb in bt:
                        k = ky + kb
                        d[k] = get(k, 0) + cy * cb
            if 0 in d.values():
                d = {k: c for k, c in d.items() if c}
            acc.append(d)
        self._check(acc)
        if den != 1:
            g = den
            for d in acc:
                g = gcd(g, *d.values())
                if g == 1:
                    break
            if g != 1:
                den //= g
                acc = [{k: c // g for k, c in d.items()} for d in acc]
        return [self._element(d) for d in acc], den


@lru_cache(maxsize=None)
def coordinate_ring(nvars):
    """The one ring of coordinate polynomials in nvars variables, named
    x, y, z, w (x0, x1, ... beyond four)."""
    if nvars <= len(COORD_NAMES):
        return Ring(COORD_NAMES[:nvars])
    return Ring(f"x{i}" for i in range(nvars))


def _items(c):
    """The packed terms of an int or a Poly."""
    if isinstance(c, Poly):
        return c._t.items()
    return ((0, c),) if c else ()


class Poly:
    """Sparse polynomial: nonzero rational coefficients, an int when
    integral and a Fraction otherwise, keyed by packed monomials (see the
    module docstring).  The constructor takes a dict from exponent tuple
    to coefficient; callers drop zero terms themselves."""

    __slots__ = ("ring", "_t", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self._t = {ring._pack(e): c for e, c in terms.items()}
        self._hash = None

    @classmethod
    def _new(cls, ring, packed):
        p = object.__new__(cls)
        p.ring = ring
        p._t = packed
        p._hash = None
        return p

    @property
    def terms(self):
        """The terms as a fresh dict from exponent tuple to coefficient."""
        unpack = self.ring._unpack
        return {unpack(k): c for k, c in self._t.items()}

    # -- basic predicates -------------------------------------------------

    def __bool__(self):
        return bool(self._t)

    def is_constant(self):
        return not self._t or (len(self._t) == 1 and 0 in self._t)

    def constant_value(self):
        if not self._t:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self._t[0]

    @property
    def denominator(self):
        """Least positive int m with m*self integral, as for a Fraction."""
        return lcm(*(c.denominator for c in self._t.values()))

    def integral(self, m):
        """m*self with int coefficients, for m a multiple of `denominator`,
        as a series numerator (`Ring._element`): an int when constant."""
        return self.ring._element({k: c.numerator * (m // c.denominator)
                                   for k, c in self._t.items()})

    def variables(self):
        used = reduce(or_, self._t, 0)
        return {n for n, s in zip(self.ring.names, self.ring._shifts)
                if used >> s & _FIELD}

    # -- equality / hashing ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self._t == other._t

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._t.items()))
        return self._hash

    # -- arithmetic ---------------------------------------------------------

    def _combine(self, other, sign):
        """self + sign * other, for other a Poly in the same ring or a
        rational, which goes straight into the constant term."""
        if isinstance(other, Poly):
            if other.ring is not self.ring:
                raise ValueError("mixed polynomial rings")
            items = other._t.items()
        elif isinstance(other, (int, Fraction)):
            items = ((0, _exact(other)),)
        else:
            return NotImplemented
        terms = dict(self._t)
        for e, c in items:
            s = terms.get(e, 0) + c if sign > 0 else terms.get(e, 0) - c
            if s:
                terms[e] = _exact(s) if type(s) is Fraction else s
            else:
                terms.pop(e, None)
        return Poly._new(self.ring, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Poly._new(self.ring, {e: -c for e, c in self._t.items()})

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other or not self._t:
                return self.ring.zero()
            other = _exact(other)
            return Poly._new(self.ring, _ints({e: c * other
                                               for e, c in self._t.items()}))
        if not isinstance(other, Poly):
            return NotImplemented
        if other.ring is not self.ring:
            raise ValueError("mixed polynomial rings")
        if not self._t or not other._t:
            return self.ring.zero()
        terms = {}
        right = other._t.items()
        for e1, c1 in self._t.items():
            for e2, c2 in right:
                e = e1 + e2
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        self.ring._check((terms,))
        return Poly._new(self.ring, _ints(terms))

    # scale(c) is the scalar product, as for series and 1-forms.
    __rmul__ = scale = __mul__

    def __truediv__(self, other):
        """self / other for a nonzero rational other."""
        other = Fraction(other)
        return Poly._new(self.ring,
                         {e: _exact(c / other) for e, c in self._t.items()})

    def __pow__(self, k):
        """self**k by squaring from self, so p**1 is p itself and makes no
        product; p**0 is one."""
        if k < 0:
            raise ValueError("negative power")
        if not k:
            return self.ring.one()
        result = None
        base = self
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def partial(self, i):
        """Partial derivative with respect to variable i."""
        s = self.ring._shifts[i]
        unit = 1 << s
        terms = {}
        for e, c in self._t.items():
            d = e >> s & _FIELD
            if d:
                terms[e - unit] = c * d
        return Poly._new(self.ring, _ints(terms))

    # -- substitution and evaluation -----------------------------------------

    def subs(self, mapping):
        """Substitute variables; mapping maps names to Poly or rationals.

        Names the polynomial does not use, in its ring or not, are
        ignored.  The terms are grouped by their degrees in the substituted
        variables, each power of a value is built once, and every group's
        product goes straight into one packed dict."""
        ring = self.ring
        used = reduce(or_, self._t, 0)
        fields = []
        for name, val in mapping.items():
            i = ring.index.get(name)
            if i is not None and used >> ring._shifts[i] & _FIELD:
                if not isinstance(val, Poly):
                    val = ring.constant(val)
                elif val.ring is not ring:
                    raise ValueError("mixed polynomial rings")
                fields.append((ring._shifts[i], val))
        if not fields:
            return self
        clear = ~sum(_FIELD << s for s, _ in fields)
        groups = {}
        for k, c in self._t.items():
            degrees = tuple(k >> s & _FIELD for s, _ in fields)
            groups.setdefault(degrees, []).append((k & clear, c))
        powers = [{} for _ in fields]
        terms = {}
        get = terms.get
        for degrees, rest in groups.items():
            factor = None
            for (_s, val), d, cache in zip(fields, degrees, powers):
                if d:
                    power = cache.get(d)
                    if power is None:
                        power = cache[d] = val ** d
                    factor = power if factor is None else factor * power
            for kf, cf in (factor._t.items() if factor is not None
                           else ((0, 1),)):
                for kr, cr in rest:
                    k = kr + kf
                    terms[k] = get(k, 0) + cr * cf
        terms = _ints({k: c for k, c in terms.items() if c})
        ring._check((terms,))
        return Poly._new(ring, terms)

    def eval(self, point):
        """Evaluate at a rational point given as {name: Fraction}.  Only the
        variables the polynomial uses are read, each once, and each power
        of a value is built once per call."""
        used = reduce(or_, self._t, 0)
        fields = [(s, Fraction(point[name]), {})
                  for name, s in zip(self.ring.names, self.ring._shifts)
                  if used >> s & _FIELD]
        total = Fraction(0)
        for key, c in self._t.items():
            for s, x, powers in fields:
                d = key >> s & _FIELD
                if d:
                    power = powers.get(d)
                    if power is None:
                        power = powers[d] = x ** d
                    c *= power
            total += c
        return total

    def eval_series(self, args, power_cache=None):
        """Substitute TruncatedSeries for the variables.

        args must have one series per variable; the result precision is the
        minimum of the argument precisions.  power_cache, a
        `series._ProductCache` over args, lets several polynomials share
        their power products; the constant term starts the sum.
        """
        if len(args) != len(self.ring.names):
            raise ValueError("argument count does not match variable count")
        if power_cache is None:
            power_cache = _ProductCache(args)
        total = TruncatedSeries.from_terms([(0, self._t.get(0, 0))],
                                           min(a.precision for a in args))
        for e, c in self._t.items():
            if e:
                total = total + power_cache.product(self.ring._unpack(e)).scale(c)
        return total

    # -- normal form -----------------------------------------------------------

    def content(self):
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self._t:
            return Fraction(1)
        num = 0
        den = 1
        for c in self._t.values():
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def normalized(self):
        """Divide by content and fix the sign of the lexicographically leading term."""
        if not self._t:
            return self
        p = self / self.content()
        if p._t[max(p._t)] < 0:
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
        if not self._t:
            return "0"
        parts = []
        for key in sorted(self._t, reverse=True):
            c = self._t[key]
            e = self.ring._unpack(key)
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
