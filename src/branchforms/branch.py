"""Plane-branch model: parametrizations, characteristic exponents, the
value semigroup, pullback valuations and a minimal standard basis of the
local ring.

A parametrization is stored exactly as sparse coordinate polynomials in t,
so truncated series can be materialized at any precision the computation
needs: the ring standard basis at the length `default_precision` reads off
the value semigroup, and a completion run cuts it further (see
`forms._Completion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import DomainError, ValidationError
from .poly import coordinate_ring
from .semigroup import (CharacteristicSequence, NumericalSemigroup,
                        semigroup_from_characteristic)
from .series import TruncatedSeries, _ProductCache


class BranchParametrization:
    """Coordinates x(t), y(t)[, z(t), ...] as exact sparse polynomials in t
    with no constant term: a branch passes through the origin."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        cleaned = []
        for coord in coords:
            pairs = coord.items() if isinstance(coord, dict) else coord
            terms = {}
            for e, c in pairs:
                e = int(e)
                if e < 0:
                    raise ValidationError("negative exponent in parametrization")
                if c:
                    terms[e] = terms[e] + c if e in terms else c
            if terms.get(0):
                raise ValidationError(f"coordinate {len(cleaned)} has a constant "
                                      "term: a branch passes through the origin")
            cleaned.append(tuple(sorted((e, c) for e, c in terms.items() if c)))
        if not cleaned:
            raise ValidationError("parametrization needs at least one coordinate")
        self.coords = tuple(cleaned)

    @staticmethod
    def plane(n, y_terms, extra=()):
        """Puiseux form (t^n, y(t)) with optional extra coordinates, each
        a dict or (exponent, coefficient) pairs; repeated exponents add up."""
        return BranchParametrization([{int(n): Fraction(1)}, y_terms, *extra])

    # -- structure ----------------------------------------------------------

    @property
    def ncoords(self):
        return len(self.coords)

    def coord_order(self, i):
        if not self.coords[i]:
            return None
        return self.coords[i][0][0]

    @property
    def multiplicity(self):
        n = self.coord_order(0)
        if n is None:
            raise ValidationError("x(t) must vanish at the origin to positive order")
        return n

    def is_plane_puiseux(self):
        if self.ncoords != 2:
            return False
        x = self.coords[0]
        return len(x) == 1 and x[0][1] == 1

    def series(self, precision):
        return tuple(TruncatedSeries.from_terms(c, precision) for c in self.coords)

    def map_coeffs(self, fn):
        return BranchParametrization(
            [[(e, fn(c)) for e, c in coord] for coord in self.coords])

    def __repr__(self):
        def render(coord):
            return " + ".join(f"{c}*t^{e}" for e, c in coord) or "0"
        return "(" + ", ".join(render(c) for c in self.coords) + ")"


def characteristic_sequence(phi):
    """Characteristic exponents read directly off the parametrization."""
    if phi.ncoords != 2:
        raise DomainError("characteristic exponents are defined for plane branches only")
    if not phi.is_plane_puiseux():
        raise DomainError("parametrization must have x(t) = t^n")
    n = phi.multiplicity
    if n == 1:
        return CharacteristicSequence((1,))
    y = phi.coords[1]
    if not y:
        raise DomainError("parametrization is not primitive (y = 0 with n > 1)")
    if y[0][0] < n:
        raise ValidationError("Puiseux form requires ord(y) >= n")
    beta = [n]
    e = n
    for exp, _c in y:
        if exp % e != 0:
            beta.append(exp)
            e = gcd(e, exp)
            if e == 1:
                break
    if e != 1:
        raise DomainError("parametrization is not primitive (gcd of exponents > 1)")
    return CharacteristicSequence(tuple(beta))


def semigroup_of(phi):
    return semigroup_from_characteristic(characteristic_sequence(phi))


def default_precision(gamma):
    """Length of the ring standard basis pullbacks: max(mu - 1, v_g) + 1.

    The semiroot tower reads positions up to v_g, and the completion reads
    the pullbacks of differentials below mu - 1 in its reductions and at
    v_i - 1 in its lead checks; coefficient k of a truncated product
    depends only on operand coefficients up to k, so no position that is
    read depends on one that is cut.  A completion run builds its
    multiples shorter still, at its own length (see `forms._Completion`)."""
    return max(gamma.conductor - 1, gamma.generators[-1]) + 1


def _pullback_degree(phi, p):
    """Bound on the t-degree of the polynomial p(phi(t)): the largest
    sum k_i deg x_i over the terms of p (0 for a constant)."""
    degs = [coord[-1][0] if coord else 0 for coord in phi.coords]
    return max((sum(k * d for k, d in zip(exps, degs)) for exps in p.terms),
               default=0)


def nu(phi, h, precision=None):
    """Order of the pullback of a polynomial, or AbovePrecision.

    Without a precision the pullback is expanded in full, so the order is
    exact and AbovePrecision means h vanishes identically on the branch."""
    if not h:
        raise ValidationError("nu is undefined for the zero polynomial")
    if precision is None:
        precision = _pullback_degree(phi, h) + 1
    args = phi.series(precision)
    return h.eval_series(args).order()


@dataclass(frozen=True)
class StandardBasisOf:
    """Representatives h_0 = x, h_1, ..., h_g with nu(h_i) = v_i, together
    with their pullback series; polys is None in a parametric run."""

    polys: tuple
    pullbacks: tuple
    values: tuple
    gamma: NumericalSemigroup


def _cancel(t, r, o, cross=False):
    """Combine the series t with r so that their terms at t^o cancel.  With
    T, R their numerators and t_c, r_c those at t^o, the result has the
    numerators T*r_c - R*t_c, integer arithmetic throughout, over

    - t_den*r_c when r_c is an int (a constant) and cross is False: the
      value is t - (t_c r_den / t_den r_c) * r, an ordinary subtraction;
    - t_den*r_den otherwise: the value is lp*t - lc*r for the true
      coefficients lc, lp at t^o, a cross-multiplication by lp (nonzero
      under the run's assumptions), which preserves all orders.  The
      S-process of two entries is this step with cross=True.

    `TruncatedSeries.lincomb` divides out the common factor, so the result
    is the one canonical representation of its value.
    """
    tc, rc = t.coeffs[o], r.coeffs[o]
    if cross or not isinstance(rc, int):
        return t.lincomb(rc, r, -tc, t.den * r.den)
    if rc < 0:
        tc, rc = -tc, -rc
    return t.lincomb(rc, r, -tc, t.den * rc)


def _reduce(pull, steps, reducer, stop):
    """The one reduction loop of both standard bases: cancel each nonzero
    position o < stop of pull against reducer(o), (r, *key) with r of order
    o, or None when nothing reduces o.  A nonzero numerator gets no further
    zero test: subtracting a value-matched multiple is a no-op when the
    coefficient vanishes.  steps (unless None) gets (a, b, *key) per step,
    a/b its true coefficient ratio, for `_replay`.  Returns (pull, o), o
    the first position with no reducer, or stop.
    """
    for o in range(stop):
        if not pull.coeffs[o]:
            continue
        red = reducer(o)
        if red is None:
            return pull, o
        r, *key = red
        assert r.order() == o
        if steps is not None:
            steps.append((pull.coeffs[o] * r.den, pull.den * r.coeffs[o], *key))
        pull = _cancel(pull, r, o)
    return pull, stop


def _replay(start, steps, multiple):
    """start - sum (a/b) * multiple(*key) over the steps (a, b, *key): the
    cancel steps a pullback took, each with its true coefficient ratio
    a/b, replayed on a polynomial or a 1-form."""
    for a, b, *key in steps:
        start = start - multiple(*key).scale(Fraction(a, b))
    return start


def standard_basis_of_ring(phi, gamma=None):
    """Minimal standard basis of the local ring via a semiroot tower.

    Starting from x, each next pullback h_{k+1} comes from y (k = 0) or
    from the power h_k^{n_k} by `_reduce`, the loop that a 1-form
    completion run (`forms._Completion`) reduces with too: the leading
    term at each order o < v_{k+1} is cancelled against the product of
    basis pullbacks that Gamma's unique representation of o names.  An
    order below v_{k+1} that lies in Gamma is a sum of v_0, ..., v_k only,
    so that product uses the pullbacks already built; an order outside
    Gamma is a DomainError.

    The tower reduces pullbacks only.  When y's series holds rationals
    (no parameter ring) the run is concrete: it records each cancel step
    and builds each representative by `_replay`, as `forms` builds the
    1-form of a kept entry.  Over a family it builds no representatives
    (polys is None): its callers read pullbacks.
    """
    if gamma is None:
        gamma = semigroup_of(phi)
    v = gamma.generators
    xs, ys = phi.series(default_precision(gamma))[:2]
    if xs.order() != v[0]:
        raise DomainError("x(t) must have order v_0")

    pulls, polys = [xs], None
    cache = _ProductCache(pulls)
    if ys.ring is None:
        x_poly, y_poly = coordinate_ring(2).gens()
        polys = [x_poly]
        poly_cache = _ProductCache(polys)
    for k in range(gamma.g):

        def reducer(o):
            member, s = gamma.membership(o)
            if not member:
                raise DomainError(f"intermediate order {o} outside <v_0..v_{k}>")
            return cache.product(s), s

        steps = None if polys is None else []
        h, target = _reduce(ys if k == 0 else cache.power(k, gamma.n[k]),
                            steps, reducer, v[k + 1])
        if not h.coeffs[target]:
            raise DomainError(f"semiroot pullback vanished at target value {target}")
        pulls.append(h)
        if steps is not None:
            start = y_poly if k == 0 else poly_cache.power(k, gamma.n[k])
            polys.append(_replay(start, steps, poly_cache.product))

    return StandardBasisOf(polys and tuple(polys), tuple(pulls), v, gamma)
