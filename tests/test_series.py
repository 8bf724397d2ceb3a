from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchforms import (AbovePrecision, Poly, PrecisionError, Ring, TruncatedSeries,
                         coordinate_ring)
from branchforms.branch import _cancel
from branchforms.series import _cut, _ProductCache


def series(terms, precision=20):
    return TruncatedSeries.from_terms(terms, precision)


def test_constructors_and_order():
    s = series([(3, Fraction(2)), (5, Fraction(-1))])
    assert s.order() == 3
    assert s.leading() == (3, Fraction(2))
    z = TruncatedSeries.zero(10)
    assert z.order() == AbovePrecision(10)


def test_exponents_beyond_precision_drop():
    s = series([(25, Fraction(1))], precision=20)
    assert s.order() == AbovePrecision(20)


def test_mul_and_precision_contagion():
    a = series([(2, Fraction(1))], precision=10)
    b = series([(3, Fraction(4))], precision=7)
    c = a * b
    assert c.precision == 7
    assert c.order() == 5
    assert c.coeffs[5] == 4


def test_derivative():
    s = series([(0, Fraction(5)), (3, Fraction(2))], precision=6)
    d = s.derivative()
    assert d.precision == 5
    assert d.coeffs[2] == 6
    with pytest.raises(PrecisionError):
        TruncatedSeries.zero(1).derivative()


def test_shift_and_scale():
    s = series([(1, Fraction(3))], precision=5)
    assert s.scale(Fraction(0)).order() == AbovePrecision(5)
    assert s.scale(Fraction(2)).coeffs[1] == 6


def test_pow_matches_repeated_mul():
    # the product cache squares from the element itself, for series with
    # int or Poly numerators and for polynomials alike; the empty product
    # is None, and a first power is the element
    a, b = Ring(("a", "b")).gens()
    x, y = coordinate_ring(2).gens()
    for f, g in (
            (series([(1, Fraction(1)), (2, Fraction(3))], 12),
             series([(2, Fraction(-1, 2)), (5, Fraction(2, 3))], 12)),
            (TruncatedSeries.from_terms([(1, a), (2, b * Fraction(1, 2)), (3, 1)], 10),
             TruncatedSeries.from_terms([(1, Fraction(2, 3)), (2, a - b)], 10)),
            (x + y.scale(Fraction(1, 2)), x * y - 2)):
        cache = _ProductCache([f, g])
        assert cache.product((0, 0)) is None and cache.product([]) is None
        assert cache.power(0, 1) is f and cache.product((0, 1)) is g
        want = f
        for d in range(2, 7):
            want = want * f
            assert cache.power(0, d) == want
            assert cache.power(0, d) is cache.power(0, d)
        assert cache.product((3, 2)) == f * f * f * g * g


def test_products_at_a_falling_length():
    # built at a length n, a power has n positions and a product at least
    # n, and both equal the full-length ones cut to n, also when n falls
    # between calls that reuse the powers and products cached before
    a, b = Ring(("a", "b")).gens()
    for f, g in (
            (series([(1, Fraction(1)), (2, Fraction(3)), (7, Fraction(-1, 2))], 30),
             series([(2, Fraction(-1, 2)), (5, Fraction(2, 3)), (9, Fraction(1))], 30)),
            (TruncatedSeries.from_terms([(1, a), (2, b * Fraction(1, 2)), (3, 1)], 30),
             TruncatedSeries.from_terms([(1, Fraction(2, 3)), (2, a - b), (6, b)], 30))):
        full, cache = _ProductCache([f, g]), _ProductCache([f, g])
        for n, delta in ((25, (2, 1)), (25, (4, 1)), (18, (4, 2)), (18, (4, 1)),
                         (11, (9, 3)), (11, (2, 1)), (4, (0, 1)), (4, (1, 0))):
            got, want = cache.product(delta, n), full.product(delta)
            assert got.precision >= n
            assert _cut(got, n) == _cut(want, n)
            for i, d in enumerate(delta):
                if d:
                    assert cache.power(i, d, n) == _cut(full.power(i, d), n)


def test_pluggable_zero_test():
    s = series([(2, Fraction(0)), (4, Fraction(7))])
    # the syntactic test ignores the stored zero
    assert s.order() == 4


coeffs = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6),
                  min_size=4, max_size=4)


@settings(max_examples=60, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a, b, c):
    p = 9
    sa = TruncatedSeries(tuple(a) + (0,) * (p - 4), p)
    sb = TruncatedSeries(tuple(b) + (0,) * (p - 4), p)
    sc = TruncatedSeries(tuple(c) + (0,) * (p - 4), p)
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc


@settings(max_examples=40, deadline=None)
@given(coeffs, coeffs)
def test_leibniz_rule(a, b):
    p = 9
    sa = TruncatedSeries(tuple(a) + (0,) * (p - 4), p)
    sb = TruncatedSeries(tuple(b) + (0,) * (p - 4), p)
    lhs = (sa * sb).derivative()
    # a product takes the shorter precision, p - 1, from the derivative
    rhs = sa.derivative() * sb + sa * sb.derivative()
    assert rhs.precision == p - 1
    assert lhs == rhs


# -- numerators over one denominator, against a list-of-Fraction reference ---

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
value_lists = st.lists(fracs, min_size=1, max_size=8)


def values(s):
    assert type(s.den) is int and s.den > 0
    return [s.coeff(i) for i in range(s.precision)]


def lifted(vals):
    s = TruncatedSeries.from_terms(enumerate(vals), len(vals))
    assert all(type(c) is int for c in s.coeffs)
    return s


def ref_mul(a, b):
    p = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(p)]


@settings(max_examples=80, deadline=None)
@given(value_lists, value_lists, fracs, st.integers(-7, 7))
def test_series_arithmetic_matches_fraction_reference(a, b, q, k):
    sa, sb = lifted(a), lifted(b)
    p = min(len(a), len(b))
    assert values(sa) == a and values(sb) == b
    assert values(sa + sb) == [x + y for x, y in zip(a, b)]
    assert values(sa - sb) == [x - y for x, y in zip(a, b)]
    assert values(sa * sb) == ref_mul(a, b)
    assert values(sa.scale(q)) == [q * x for x in a]
    assert values(sa.scale(k)) == [k * x for x in a]
    if len(a) > 1:
        assert values(sa.derivative()) == [(i + 1) * a[i + 1] for i in range(len(a) - 1)]
    powers, ref = _ProductCache([sa]), a
    for e in range(1, 5):
        assert values(powers.power(0, e)) == ref
        ref = ref_mul(ref, a)
    nonzero = [(i, x) for i, x in enumerate(a) if x]
    if nonzero:
        assert sa.leading() == nonzero[0]
        assert sa.order() == nonzero[0][0]
    else:
        assert sa.leading() == AbovePrecision(len(a))
    assert (sa == sb) == (a == b)
    assert (_cut(sa, p) == _cut(sb, p)) == (a[:p] == b[:p])


@settings(max_examples=60, deadline=None)
@given(value_lists, st.integers(2, 30))
def test_equal_series_with_different_denominators_compare_equal(a, m):
    s = lifted(a)
    wide = TruncatedSeries([c * m for c in s.coeffs], s.precision, s.den * m)
    assert wide.den != s.den
    assert wide == s and s == wide
    assert values(wide) == values(s)
    assert repr(wide) == repr(s)
    # sums reduce the common factor of numerators and denominator again
    assert (wide + TruncatedSeries.zero(s.precision)).den == s.den


def test_polynomial_numerators_over_a_denominator():
    # a series of Polys takes a rational scalar into its denominator; a
    # sum divides out the integer content its numerators share with it,
    # and coeff divides the Poly
    a = Ring(("a",)).gen("a")
    s = TruncatedSeries.from_terms([(1, a), (2, 3 * a)], 4)
    assert s.den == 1
    half = s.scale(Fraction(1, 2))
    assert half.den == 2 and half.coeff(1) == a / 2
    assert (half + half).den == 1 and (half + half).coeffs[2] == 3 * a
    total = half + s.scale(Fraction(1, 3))
    assert total.den == 6
    assert total.coeff(1) == a * Fraction(5, 6) and total.coeff(2) == a * Fraction(5, 2)
    assert total == s.scale(Fraction(5, 6))


# -- Poly numerators over one denominator, against a list-of-Poly reference --

PARAMS = Ring(("a", "b"))
nonzero_fracs = fracs.filter(bool)
polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                        nonzero_fracs, max_size=3).map(
    lambda terms: Poly(PARAMS, {e: c.numerator if c.denominator == 1 else c
                                for e, c in terms.items()}))
poly_lists = st.lists(polys, min_size=1, max_size=6)


def poly_values(s):
    """The true coefficients, after checking that the numerators are ints
    or Polys with int coefficients over a positive int denominator."""
    assert type(s.den) is int and s.den > 0
    for c in s.coeffs:
        assert type(c) is int or all(type(v) is int for v in c.terms.values())
    return [s.coeff(i) for i in range(s.precision)]


def poly_mul(a, b):
    p = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), PARAMS.zero())
            for k in range(p)]


@settings(max_examples=60, deadline=None)
@given(poly_lists, poly_lists, fracs, st.integers(-7, 7))
def test_poly_numerators_match_poly_reference(a, b, q, k):
    sa = TruncatedSeries.from_terms(enumerate(a), len(a))
    sb = TruncatedSeries.from_terms(enumerate(b), len(b))
    p = min(len(a), len(b))
    assert poly_values(sa) == a and poly_values(sb) == b
    assert poly_values(sa + sb) == [x + y for x, y in zip(a, b)]
    assert poly_values(sa - sb) == [x - y for x, y in zip(a, b)]
    assert poly_values(sa * sb) == poly_mul(a, b)
    assert poly_values(sa.scale(k)) == [x * k for x in a]
    assert poly_values(sa.scale(q)) == [x * q for x in a]
    # a sum of scaled series meets every denominator at once
    mixed = sa.scale(q) - sb
    assert poly_values(mixed) == [x * q - y for x, y in zip(a, b)]
    if len(a) > 1:
        assert poly_values(sa.derivative()) == [a[i + 1] * (i + 1)
                                                for i in range(len(a) - 1)]
    nonzero = [(i, x) for i, x in enumerate(a) if x]
    if nonzero:
        assert sa.leading() == nonzero[0]
    else:
        assert sa.leading() == AbovePrecision(len(a))
    assert (sa == sb) == (a == b)
    assert (_cut(sa, p) == _cut(sb, p)) == (a[:p] == b[:p])
    point = {"a": Fraction(1, 2), "b": Fraction(-2, 3)}
    scaled = sa.scale(q)
    at = [Fraction(x.eval(point) if isinstance(x, Poly) else x) / scaled.den
          for x in scaled.coeffs]
    assert at == [q * x.eval(point) for x in a]


# -- fused products and the fraction-free cancel on mixed numerators ---------

mixed_values = st.lists(polys | fracs, min_size=2, max_size=6)


def canonical(values):
    """(numerators, den) of true coefficient values over their least
    common denominator: the one representation a reduced series has."""
    den = lcm(*(v.denominator for v in values))
    return [v * den for v in values], den


def numerators_match(s, values):
    nums, den = canonical(values)
    assert s.den == den
    assert list(s.coeffs) == nums
    for c in s.coeffs:
        assert type(c) is int or (not c.is_constant() and all(
            type(v) is int and v for v in c.terms.values()))


@settings(max_examples=80, deadline=None)
@given(mixed_values, mixed_values)
def test_fused_product_matches_generic_numerators(a, b):
    sa = TruncatedSeries.from_terms(enumerate(a), len(a))
    sb = TruncatedSeries.from_terms(enumerate(b), len(b))
    assert sa.ring is (PARAMS if any(isinstance(x, Poly) for x in a) else None)
    prod = sa * sb
    p = min(len(a), len(b))
    # the generic reference: one Poly product and one sum per term pair
    generic = [sum((x * y for x, y in zip(sa.coeffs[:k + 1], sb.coeffs[k::-1])
                    if x and y), 0) for k in range(p)]
    assert prod.den == sa.den * sb.den
    assert list(prod.coeffs) == generic
    for c in prod.coeffs:
        assert type(c) is int or (not c.is_constant() and all(
            type(v) is int and v for v in c.terms.values()))
    assert poly_values(prod) == poly_mul(a, b)


@settings(max_examples=120, deadline=None)
@given(mixed_values, mixed_values, st.data())
def test_fraction_free_cancel_matches_rational_reference(a, b, data):
    p = min(len(a), len(b))
    hits = [i for i in range(p) if b[i]]
    if not hits:
        return
    o = data.draw(st.sampled_from(hits))
    t = TruncatedSeries.from_terms(enumerate(a), len(a))
    r = TruncatedSeries.from_terms(enumerate(b), len(b))
    lc, lp = a[o], b[o]
    constant = not isinstance(lp, Poly) or lp.is_constant()
    if constant:
        lam = lc * (1 / Fraction(lp if not isinstance(lp, Poly)
                                 else lp.constant_value()))
        want = [x - lam * y for x, y in zip(a, b)]
    else:
        want = [x * lp - y * lc for x, y in zip(a, b)]
    got = _cancel(t, r, o)
    assert not got.coeffs[o]
    numerators_match(got, want)
    sp = _cancel(t, r, o, cross=True)
    numerators_match(sp, [x * lp - y * lc for x, y in zip(a, b)])


def test_fused_kernels_check_the_guard_bit():
    a = PARAMS.gen("a")
    s = TruncatedSeries.from_terms([(0, a ** 2 ** 30), (1, 1)], 3)
    below = TruncatedSeries.from_terms([(0, a ** (2 ** 30 - 1)), (2, a)], 3)
    assert (s * below).coeffs == (a ** (2 ** 31 - 1), a ** (2 ** 30 - 1),
                                  a ** (2 ** 30 + 1))
    with pytest.raises(OverflowError):
        s * s
    with pytest.raises(OverflowError):
        s.lincomb(1, below, a ** (2 ** 30 + 1), 1)


def test_cancelled_terms_leave_no_zero_entry():
    # (a + b)(a - b): the a*b terms cancel inside one product, also where
    # the reducer's numerator is zero
    a, b = PARAMS.gens()
    t = TruncatedSeries.from_terms([(0, a + b), (1, a + b)], 2)
    r = TruncatedSeries.from_terms([(0, a - b)], 2)
    sp = _cancel(t, r, 0, cross=True)
    assert sp.coeffs == (0, a * a - b * b)
    assert sp.coeffs[1].terms == {(2, 0): 1, (0, 2): -1}
