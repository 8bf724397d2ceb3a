from fractions import Fraction

import pytest

from branchforms import (BranchParametrization, Poly, Ring, coordinate_ring,
                         differential, eval_form_order)
from branchforms.jsonio import form_from_json, form_to_json
from branchforms.params import ParamPoly, ParamRing


def test_one_polynomial_class():
    assert ParamPoly is Poly and ParamRing is Ring
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
