from fractions import Fraction

import pytest

from branchforms import ParamPoly, ParamRing
from branchforms.params import irreducible_factors


def ring():
    return ParamRing(("a", "b", "c"))


def test_constants_and_gens():
    R = ring()
    assert not R.zero()
    assert R.one().is_constant()
    assert R.constant(Fraction(3, 2)).constant_value() == Fraction(3, 2)
    a = R.gen("a")
    assert not a.is_constant()
    assert a.variables() == {"a"}


def test_arithmetic_and_mixed_scalars():
    R = ring()
    a, b, _ = R.gens()
    p = 2 * a + 3
    q = p * b - a
    assert q.eval({"a": Fraction(1), "b": Fraction(2)}) == 2 * 5 - 1
    assert (p - p) == 0
    assert (a * b) == (b * a)
    assert (a + b) ** 2 == a * a + 2 * a * b + b * b


def test_division_only_by_constants():
    R = ring()
    a = R.gen("a")
    assert (2 * a) / 2 == a
    with pytest.raises(ValueError):
        (a * a) / a


def test_subs_and_eval():
    R = ring()
    a, b, c = R.gens()
    p = a * a * b - c + 2
    q = p.subs({"a": Fraction(1, 2)})
    assert q == b / 4 - c + 2
    r = p.subs({"c": a})  # substitute a polynomial
    assert r.eval({"a": Fraction(2), "b": Fraction(1), "c": Fraction(99)}) == 4 - 2 + 2


def test_normalized_and_content():
    R = ring()
    a, b, _ = R.gens()
    p = 4 * a - 6 * b
    assert p.content() == 2
    n = p.normalized()
    assert n == 2 * a - 3 * b
    assert (-p).normalized() == n


def test_linear_solve():
    R = ring()
    a, b, _ = R.gens()
    p = 18 * a - 29
    assert p.linear_solve("a") == R.constant(Fraction(29, 18))
    q = 2 * a + 4 * b - 1
    sol = q.linear_solve("a")
    assert sol == (R.constant(Fraction(1, 2)) - 2 * b)
    assert (a * a + 1).linear_solve("a") is None
    assert (a * b + 1).linear_solve("a") is None  # coefficient of a not constant


def test_irreducible_factors():
    R = ring()
    a, b, _ = R.gens()
    p = (2 * a + 1) * (18 * a - 29) * (18 * a - 29)
    facs = irreducible_factors(p)
    assert set(facs) == {(2 * a + 1).normalized(), (18 * a - 29).normalized()}
    assert irreducible_factors(R.constant(5)) == ()
    # irreducible quadratic stays whole
    q = 1152 * a * a - 769 * a + 1064 * b - 28
    assert irreducible_factors(q) == (q.normalized(),)


def test_integral_coefficients_are_ints():
    R = ring()
    a = R.gen("a")
    assert all(type(c) is int for c in a.terms.values())
    assert type(R.constant(Fraction(6, 3)).constant_value()) is int
    assert type(R.constant(3).constant_value()) is int
    assert type(R.constant(Fraction(3, 2)).constant_value()) is Fraction
    assert all(type(c) is int for c in (2 * a * Fraction(3, 2)).terms.values())


def test_fraction_and_int_coefficients_agree():
    R = ring()
    a, b, _ = R.gens()
    e = next(iter(a.terms))
    as_fraction = ParamPoly(R, {e: Fraction(2)})
    as_int = ParamPoly(R, {e: 2})
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)
    assert str(as_fraction) == str(as_int) == "2*a"
    mixed = ParamPoly(R, {e: Fraction(3), next(iter(b.terms)): Fraction(-1, 2)})
    assert str(mixed) == "3*a - 1/2*b"
    assert str(R.constant(Fraction(-7))) == "-7"


def test_exact_division_gives_ints():
    R = ring()
    a, b, _ = R.gens()
    q = (4 * a - 6 * b) / 2
    assert q == 2 * a - 3 * b
    assert all(type(c) is int for c in q.terms.values())
    h = (3 * a + 1) / 2
    assert h.terms[next(iter(a.terms))] == Fraction(3, 2)
    assert type(h.terms[R._zero_exp]) is Fraction
    assert type((18 * a - 36).linear_solve("a").constant_value()) is int


def test_content_and_normalized_on_mixed_coefficients():
    R = ring()
    a, b, _ = R.gens()
    p = ParamPoly(R, {next(iter(a.terms)): 4,
                      next(iter(b.terms)): Fraction(-2, 3)})
    assert p.content() == Fraction(2, 3)
    n = p.normalized()
    assert n == 6 * a - b
    assert all(type(c) is int for c in n.terms.values())
    assert (-p).normalized() == n
    facs = irreducible_factors((2 * a + 1) * (a - b))
    assert all(type(c) is int for f in facs for c in f.terms.values())
