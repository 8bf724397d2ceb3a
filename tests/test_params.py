from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from branchforms import NumericalSemigroup, normal_form_family
from branchforms.params import _factors_in_house, irreducible_factors
from branchforms.poly import Poly, Ring


def ring():
    return Ring(("a", "b", "c"))


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
    with pytest.raises(TypeError):
        (a * a) / a
    with pytest.raises(TypeError):
        a / R.constant(2)


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
    as_fraction = Poly(R, {e: Fraction(2)})
    as_int = Poly(R, {e: 2})
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)
    assert str(as_fraction) == str(as_int) == "2*a"
    mixed = Poly(R, {e: Fraction(3), next(iter(b.terms)): Fraction(-1, 2)})
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
    assert type(h.terms[(0, 0, 0)]) is Fraction
    assert type((18 * a - 36).linear_solve("a").constant_value()) is int


def test_content_and_normalized_on_mixed_coefficients():
    R = ring()
    a, b, _ = R.gens()
    p = Poly(R, {next(iter(a.terms)): 4,
                      next(iter(b.terms)): Fraction(-2, 3)})
    assert p.content() == Fraction(2, 3)
    n = p.normalized()
    assert n == 6 * a - b
    assert all(type(c) is int for c in n.terms.values())
    assert (-p).normalized() == n
    facs = irreducible_factors((2 * a + 1) * (a - b))
    assert all(type(c) is int for f in facs for c in f.terms.values())


# -- agreement with sympy ------------------------------------------------------


def sympy_factors(p):
    """Reference: the non-constant factors of sympy.factor_list, normalized,
    in sympy's order."""
    symbols = [sympy.Symbol(n) for n in p.ring.names]
    expr = sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s ** d for s, d in zip(symbols, e)])
                       for e, c in p.terms.items()])
    out = []
    for fac, _mult in sympy.factor_list(expr)[1]:
        terms = {tuple(int(m) for m in monom): Fraction(int(c.p), int(c.q))
                 for monom, c in sympy.Poly(fac, *symbols).terms()}
        q = Poly(p.ring, terms).normalized()
        if not q.is_constant():
            out.append(q)
    return tuple(out)


XYZ = Ring(("x", "y", "z"))
coeffs = st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 4))
# exponents of the two variables other than the chosen one
others = st.tuples(st.integers(0, 3), st.integers(0, 3))


def monomial(i, d, rest):
    """Exponent tuple with degree d in variable i and rest in the others."""
    e = list(rest)
    e.insert(i, d)
    return tuple(e)


@st.composite
def shape_a(draw):
    """c*x^k."""
    e = [0, 0, 0]
    e[draw(st.integers(0, 2))] = draw(st.integers(1, 5))
    return Poly(XYZ, {tuple(e): draw(coeffs)})


@st.composite
def shape_b(draw):
    """A*x + B: x in one term to degree 1, no variable in every term."""
    i = draw(st.integers(0, 2))
    terms = {monomial(i, 0, r): draw(coeffs)
             for r in draw(st.lists(others, min_size=1, max_size=4))}
    terms[monomial(i, 1, draw(others))] = draw(coeffs)
    p = Poly(XYZ, terms)
    if any(all(col) for col in zip(*terms)):
        p = p + 1  # a constant term: no variable divides every term
    return p


@st.composite
def two_variable_monomial(draw):
    e = [draw(st.integers(1, 3)) for _ in range(3)]
    e[draw(st.integers(0, 2))] = 0
    return Poly(XYZ, {tuple(e): draw(coeffs)})


@st.composite
def monomial_times_cofactor(draw):
    """A variable times a non-constant cofactor."""
    return XYZ.gen(XYZ.names[draw(st.integers(0, 2))]) * draw(shape_b())


@st.composite
def non_monomial_x_coefficient(draw):
    """A*x + B with A of at least two terms and a constant term in B, so
    no variable divides every term; the other variables never occur to
    degree 1, so no variable is linear in a single term."""
    i = draw(st.integers(0, 2))
    rests = st.tuples(st.sampled_from((0, 2, 3)), st.sampled_from((0, 2, 3)))
    a = draw(st.lists(rests, min_size=2, max_size=3, unique=True))
    b = draw(st.lists(rests, max_size=3, unique=True))
    terms = {monomial(i, 1, r): draw(coeffs) for r in a}
    terms.update({monomial(i, 0, r): draw(coeffs) for r in b})
    terms[(0, 0, 0)] = draw(coeffs)
    return Poly(XYZ, terms)


# Names whose string order (a10 < a2 < a9) is not their ring order.
A9 = Ring(("a2", "a9", "a10", "a21"))


@st.composite
def content_times_cofactor(draw):
    """m * q: a monomial content m in up to three variables with
    exponents up to 3, times a cofactor q that no variable divides: a
    constant, linear in one variable (c1*x + c0), or in one term linear
    in a variable with further terms in others."""
    m = {n: draw(st.integers(0, 3)) for n in A9.names}
    p = A9.constant(draw(coeffs))
    for n, k in m.items():
        p = p * A9.gen(n) ** k
    x = A9.gen(draw(st.sampled_from(A9.names)))
    kind = draw(st.sampled_from(("constant", "univariate", "linear")))
    if kind == "constant":
        return p
    q = draw(coeffs) * x + draw(coeffs)
    if kind == "linear":
        others = [A9.gen(n) for n in A9.names if A9.gen(n) != x]
        y, z = draw(st.permutations(others))[:2]
        q = (q * draw(st.sampled_from((1, y, y * z)))
             + draw(coeffs) * y ** draw(st.integers(1, 3))
             + draw(coeffs) * z ** draw(st.integers(0, 2)))
    return p * q


@settings(max_examples=80, deadline=None)
@given(shape_a() | shape_b())
def test_single_factor_shapes_agree_with_sympy(p):
    found = _factors_in_house(p)
    assert found is not None and len(found) == 1
    assert irreducible_factors(p) == found == sympy_factors(p)


@settings(max_examples=150, deadline=None)
@given(two_variable_monomial() | monomial_times_cofactor()
       | content_times_cofactor())
def test_content_shapes_are_factored_in_house_in_sympy_order(p):
    found = _factors_in_house(p)
    assert found is not None
    assert irreducible_factors(p) == found == sympy_factors(p)


def test_in_house_order_follows_sympy_on_names_and_multiplicities():
    a2, a9, a10, a21 = (A9.gen(n) for n in ("a2", "a9", "a10", "a21"))
    cases = [
        (a10 * a9, ["a10", "a9"]),          # name order, not ring order
        (3 * a9**2 * a10**2, ["a10", "a9"]),
        (a9 * a10**2 * (a21 + 2), ["a9", "a21 + 2", "a10"]),
        (a9 * (a9 - 1), ["a9 - 1", "a9"]),  # rep [1, -1] before [1, 0]
        (a9 * (2 * a9 - 1), ["a9", "2*a9 - 1"]),
        (a9**2 * (a9 - 1), ["a9 - 1", "a9"]),
        (a2**2 * a21 * (a2**3 + a21 * a9 + 1), ["a21", "a2", "a2^3 + a9*a21 + 1"]),
    ]
    for p, expected in cases:
        assert [str(f) for f in _factors_in_house(p)] == expected
        assert irreducible_factors(p) == sympy_factors(p)


@settings(max_examples=60, deadline=None)
@given(non_monomial_x_coefficient())
def test_other_shapes_reach_sympy_and_keep_its_order(p):
    assert _factors_in_house(p) is None
    assert irreducible_factors(p) == sympy_factors(p)


def ring_6_13():
    R = normal_form_family(NumericalSemigroup((6, 13))).ring
    return {n: R.gen(n) for n in R.names}


def test_polynomials_of_the_6_13_class_that_need_sympy():
    """The one distinct coefficient of stratify(<6,13>) that the content
    and linear rules leave to sympy: a14 has degree 6 and a17 a
    coefficient that is not a monomial."""
    g = ring_6_13()
    a14, a15, a16, a17 = g["a14"], g["a15"], g["a16"], g["a17"]
    p = (-249444 * a14**6 + 644904 * a14**4 * a15 + 146016 * a14**3 * a16
         - 620568 * a14**2 * a15**2 + 657072 * a14**2 * a17
         - 1654848 * a14 * a15 * a16 + 997776 * a15**3 - 632736 * a15 * a17
         + 711828 * a16**2)
    assert _factors_in_house(p) is None
    factors = irreducible_factors(p)
    assert [str(f) for f in factors] == [
        "41*a14^6 - 106*a14^4*a15 - 24*a14^3*a16 + 102*a14^2*a15^2"
        " - 108*a14^2*a17 + 272*a14*a15*a16 - 164*a15^3 + 104*a15*a17"
        " - 117*a16^2"]
    assert factors == sympy_factors(p)


def test_polynomials_of_the_6_13_class_with_monomial_content():
    """The four distinct coefficients of stratify(<6,13>) that reached
    sympy only to split off a monomial content, with the factors sympy
    gives, in its order."""
    g = ring_6_13()
    a14, a21, a22, a23, a27, a28, a29, a35 = (g[n] for n in (
        "a14", "a21", "a22", "a23", "a27", "a28", "a29", "a35"))
    F = Fraction
    cases = [
        (F(2507984833, 77228944) * a14**10 + 12744 * a14**2 * a21
         - 4212 * a14 * a22,
         ["a14", "2507984833*a14^9 + 984205662336*a14*a21 - 325288312128*a22"]),
        (F(578163053107, 4517893224) * a14**11 + F(378852, 13) * a14**3 * a21
         - 4680 * a14 * a23,
         ["a14", "578163053107*a14^10 + 131662529515296*a14^2*a21"
                 " - 21143740288320*a23"]),
        (F(-513276683287051739, 48460017054760480) * a14**18
         - F(333057673944, 313742585) * a14**10 * a21
         + F(20808576, 169) * a14**4 * a27 - F(1083456, 13) * a14**3 * a28
         - F(487296, 13) * a14**2 * a21**2 + 20736 * a14**2 * a29,
         ["a14", "513276683287051739*a14^16 + 51443384899582870272*a14^8*a21"
                 " - 5966768922161417809920*a14^2*a27"
                 " + 4038792018314043893760*a14*a28"
                 " + 1816490190055120220160*a21^2"
                 " - 1004866913647513313280*a29"]),
        (-144144 * a27 * a35, ["a27", "a35"]),
    ]
    for p, expected in cases:
        factors = _factors_in_house(p)
        assert [str(f) for f in factors] == expected
        assert irreducible_factors(p) == factors == sympy_factors(p)
