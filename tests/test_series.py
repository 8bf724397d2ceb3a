from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchforms import AbovePrecision, PrecisionError, Ring, TruncatedSeries


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
    s = series([(1, Fraction(1)), (2, Fraction(3))], precision=12)
    assert s ** 3 == s * s * s
    assert (s ** 0).order() == 0


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
    rhs = sa.derivative() * sb.truncate(p - 1) + sa.truncate(p - 1) * sb.derivative()
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
    ref = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for e in range(4):
        assert values(sa ** e) == ref
        ref = ref_mul(ref, a)
    nonzero = [(i, x) for i, x in enumerate(a) if x]
    if nonzero:
        assert sa.leading() == nonzero[0]
        assert sa.order() == nonzero[0][0]
    else:
        assert sa.leading() == AbovePrecision(len(a))
    assert (sa.truncate(p) == sb.truncate(p)) == (a[:p] == b[:p])


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
    # the public API lets a series of Polys take a rational scalar: no
    # integer content to divide out, and coeff divides the Poly instead
    a = Ring(("a",)).gen("a")
    s = TruncatedSeries.from_terms([(1, a), (2, 3 * a)], 4)
    assert s.den == 1
    half = s.scale(Fraction(1, 2))
    assert half.den == 2 and half.coeff(1) == a / 2
    total = half + s.scale(Fraction(1, 3))
    assert total.den == 6
    assert total.coeff(1) == a * Fraction(5, 6) and total.coeff(2) == a * Fraction(5, 2)
    assert total == s.scale(Fraction(5, 6))
