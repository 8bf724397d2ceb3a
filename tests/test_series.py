from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchforms import AbovePrecision, PrecisionError, TruncatedSeries


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
    assert s.shift(2).order() == 3
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
