from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchforms import (BranchParametrization, Poly, Ring, TruncatedSeries,
                         coordinate_ring, differential, eval_form_order)
from branchforms.jsonio import form_from_json, form_to_json
from branchforms.params import ParamPoly
from branchforms.poly import MAX_EXPONENT


def test_one_polynomial_class():
    assert ParamPoly is Poly
    assert "__mul__" in ParamPoly.__dict__


def test_coordinate_rings_are_shared():
    assert coordinate_ring(2) is coordinate_ring(2)
    assert coordinate_ring(2).names == ("x", "y")
    assert coordinate_ring(4).names == ("x", "y", "z", "w")
    x, y = coordinate_ring(2).gens()
    assert str(3 * x * y - y ** 2) == "3*x*y - y^2"


def test_fraction_and_int_coordinate_coefficients_agree():
    R = coordinate_ring(2)
    as_fraction = Poly(R, {(1, 2): Fraction(2)})
    as_int = Poly(R, {(1, 2): 2})
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)


def test_mixed_rings_are_rejected():
    x = coordinate_ring(2).gen("x")
    a = Ring(("a",)).gen("a")
    with pytest.raises(ValueError):
        x * a
    with pytest.raises(ValueError):
        x.scale(a)
    with pytest.raises(ValueError):
        x - a
    sx, sa = (TruncatedSeries.from_terms([(0, p)], 2) for p in (x, a))
    with pytest.raises(ValueError):
        sx * sa
    with pytest.raises(ValueError):
        sa - sx


@pytest.mark.parametrize("r", [0, 3, Fraction(6, 2), Fraction(-1, 2)])
def test_sums_and_differences_with_rationals(r):
    x, y = coordinate_ring(2).gens()
    p = 2 * x * y - x + 3
    point = {"x": Fraction(2, 3), "y": Fraction(-5)}
    for got, want in ((p + r, p.eval(point) + r), (r + p, p.eval(point) + r),
                      (p - r, p.eval(point) - r), (r - p, r - p.eval(point)),
                      (p - p, 0), (p + (-p), 0)):
        assert got.eval(point) == want
        # integral coefficients stay ints, and no zero term is kept
        assert all(c and (type(c) is int or c.denominator != 1)
                   for c in got.terms.values())
    assert (p - 3).terms == {(1, 1): 2, (1, 0): -1}


def test_scalar_product_partial_and_series():
    x, y = coordinate_ring(2).gens()
    h = y * y - x ** 3
    assert h.scale(Fraction(3, 2)) == Fraction(3, 2) * h
    assert all(type(c) is int for c in h.scale(Fraction(4, 2)).terms.values())
    assert h.partial(0) == -3 * x * x and h.partial(1) == 2 * y
    phi = BranchParametrization.plane(2, {3: 1, 4: 1})
    pull = h.eval_series(phi.series(12))
    assert pull.order() == 7
    assert eval_form_order(phi, differential(h), precision=12) == 7


def test_form_json_drops_zero_terms():
    form = form_from_json({"d": [["x", [[1, 0, "0"], [0, 0, "1"], [0, 0, "-1"]]],
                                 ["y", [[0, 1, "4/2"]]]]})
    a, b = form.coeffs
    assert not a and a.terms == {}
    assert b.terms == {(0, 1): 2} and type(b.terms[(0, 1)]) is int
    assert form_to_json(form) == {"d": [["x", []], ["y", [[0, 1, "2"]]]]}


# -- packed monomials against a tuple-keyed reference --------------------------

ABC = Ring(("a", "b", "c"))
ref_coeffs = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 3))
ref_polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), ref_coeffs,
                            max_size=4)


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_pow(p, k):
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, p)
    return out


def ref_subs(p, mapping):
    """Substitute ref polynomials for some variables, by the definition."""
    out = {}
    for e, c in p.items():
        term = {(0, 0, 0): c}
        for i, d in enumerate(e):
            name = ABC.names[i]
            unit = tuple(int(j == i) for j in range(3))
            term = ref_mul(term, ref_pow(mapping.get(name, {unit: 1}), d))
        out = ref_add(out, term)
    return out


def ref_partial(p, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in p.items() if e[i]}


def ref_str(p):
    """The rendering rule of `Poly.__str__`, over sorted exponent tuples."""
    if not p:
        return "0"
    parts = []
    for e in sorted(p, reverse=True):
        c = p[e]
        mono = "*".join(n if d == 1 else f"{n}^{d}"
                        for n, d in zip(ABC.names, e) if d)
        if not mono:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(("-" if c < 0 else "") + mono)
        else:
            parts.append(f"{c}*{mono}")
    out = parts[0]
    for s in parts[1:]:
        out += f" - {s[1:]}" if s.startswith("-") else f" + {s}"
    return out


def ref_normalized(p):
    if not p:
        return p
    num = den = 0
    for c in p.values():
        num = gcd(num, c.numerator)
        den = lcm(den or 1, c.denominator)
    q = {e: c * den / num for e, c in p.items()}
    return {e: -c for e, c in q.items()} if q[max(q)] < 0 else q


def as_ref(p):
    """A Poly's terms as the reference sees them, after checking that no
    zero term is kept and that every integral coefficient is an int."""
    assert all(p.terms.values())
    assert all(type(c) is int for c in p.terms.values() if c.denominator == 1)
    return {e: Fraction(c) for e, c in p.terms.items()}


def make(ref):
    return Poly(ABC, {e: c.numerator if c.denominator == 1 else c
                      for e, c in ref.items()})


@settings(max_examples=120, deadline=None)
@given(ref_polys, ref_polys, st.integers(0, 3), st.integers(0, 2), ref_polys,
       ref_coeffs)
def test_packed_poly_matches_tuple_reference(p, q, k, i, r, c):
    P, Q = make(p), make(q)
    assert as_ref(P) == p and as_ref(Q) == q
    assert as_ref(P + Q) == ref_add(p, q)
    assert as_ref(P - Q) == ref_add(p, q, -1)
    assert as_ref(P * Q) == ref_mul(p, q)
    assert as_ref(P ** k) == ref_pow(p, k)
    assert as_ref(P.partial(i)) == ref_partial(p, i)
    assert as_ref(P.scale(c) * (2 * Q)) == ref_mul(p, {e: 2 * c * v for e, v in q.items()})
    mapping = {"b": r, "c": {(0, 0, 0): c}}
    assert as_ref(P.subs({"b": make(r), "c": c})) == ref_subs(p, mapping)
    assert str(P) == ref_str(p) and str(Q) == ref_str(q)
    assert as_ref(P.normalized()) == ref_normalized(p)
    assert (P == Q) == (p == q)
    assert P == make(dict(reversed(list(p.items()))))
    assert hash(P) == hash(make(dict(reversed(list(p.items())))))
    assert P.variables() == {n for e in p for n, d in zip(ABC.names, e) if d}


def test_integral_results_have_int_coefficients():
    a, b, _c = ABC.gens()
    for p in ((a * Fraction(1, 2)) * (b * 2), (a + 2 * b).subs({"b": Fraction(1, 2)}),
              (a ** 2 * Fraction(1, 2)).partial(0), Fraction(1, 2) * a * 2,
              a * Fraction(1, 2) + a * Fraction(1, 2)):
        assert all(type(c) is int for c in p.terms.values()), p.terms


def test_exponents_stop_below_the_guard_bit():
    top = MAX_EXPONENT
    assert top == 2 ** 31 - 1
    a, b, c = ABC.gens()
    # just below the bound every field is exact, its neighbours untouched
    high = (a ** 2 ** 30 + b) * (a ** (2 ** 30 - 1) * c ** 7 + 1)
    assert high.terms == {(top, 0, 7): 1, (2 ** 30, 0, 0): 1,
                          (2 ** 30 - 1, 1, 7): 1, (0, 1, 0): 1}
    assert str(a ** top * b) == f"a^{top}*b"
    assert Poly(ABC, {(0, top, 0): 1}) == b ** top
    # a product reaching 2^31 raises, whatever the other fields hold
    for p, q in ((a ** 2 ** 30, a ** 2 ** 30), (high, a), (b ** top, b * c),
                 (c ** top, c)):
        with pytest.raises(OverflowError):
            p * q
    with pytest.raises(OverflowError):
        a ** 2 ** 31
    with pytest.raises(OverflowError):
        Poly(ABC, {(2 ** 31, 0, 0): 1})
    with pytest.raises(ValueError):
        Poly(ABC, {(1, -1, 0): 1})


# -- packed substitution against a term-by-term reference -----------------------


def termwise_subs(p, mapping):
    """Substitution as the definition reads: one Poly per term, each
    variable of the ring replaced by its value, or kept, to its degree."""
    ring = p.ring
    result = ring.zero()
    for e, c in p.terms.items():
        term = ring.constant(c)
        for name, d in zip(ring.names, e):
            val = mapping.get(name, ring.gen(name))
            for _ in range(d):
                term = term * val
        result = result + term
    return result


sub_values = ref_polys.map(make) | st.integers(-3, 3) | ref_coeffs


@settings(max_examples=150, deadline=None)
@given(ref_polys,
       st.dictionaries(st.sampled_from(("a", "b", "c", "d")), sub_values,
                       max_size=4),
       st.lists(ref_coeffs, min_size=3, max_size=3))
def test_packed_subs_matches_termwise_reference(p, mapping, values):
    # "d" is not a name of the ring; names the polynomial does not use are
    # ignored, and then the polynomial itself comes back
    P = make(p)
    S = P.subs(mapping)
    assert as_ref(S) == as_ref(termwise_subs(P, mapping))
    if not P.variables() & set(mapping):
        assert S is P
    point = dict(zip(ABC.names, values))
    moved = {n: v.eval(point) if isinstance(v, Poly) else Fraction(v)
             for n, v in mapping.items() if n in ABC.index}
    assert S.eval(point) == P.eval({**point, **moved})


@settings(max_examples=150, deadline=None)
@given(ref_polys, st.lists(ref_coeffs | st.integers(-3, 3), min_size=3, max_size=3))
def test_eval_matches_subs_to_constants(p, values):
    # a point that names only the variables used is enough
    P = make(p)
    point = {n: v for n, v in zip(ABC.names, values) if n in P.variables()}
    assert P.eval(point) == P.subs(point).constant_value()


def test_subs_drops_cancelled_terms_and_checks_exponents_and_rings():
    a, b, c = ABC.gens()
    assert (a * c - b * c + 1).subs({"a": b}).terms == {(0, 0, 0): 1}
    assert (a - 2 * b).subs({"a": 1, "b": Fraction(1, 2)}).terms == {}
    with pytest.raises(OverflowError):
        (a ** 2 * c).subs({"a": b ** 2 ** 30})
    with pytest.raises(ValueError):
        a.subs({"a": coordinate_ring(2).gen("x")})


def test_powers_start_from_the_base(monkeypatch):
    a, b, _c = ABC.gens()
    p = a + 2 * b
    square = p * p
    real = Poly.__mul__
    calls = []

    def counted(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert p ** 0 == 1 and not calls
    assert p ** 1 == p and not calls
    assert p ** 2 == square and len(calls) == 1
