from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchforms import (BranchParametrization, DomainError, NumericalSemigroup,
                         ValidationError, characteristic_sequence, coordinate_ring,
                         default_precision, nu, semigroup_of, standard_basis_of_ring)
from branchforms import branch
from branchforms.poly import Ring
from branchforms.strata import normal_form_family
from branchforms.series import AbovePrecision


def test_characteristic_exponents_direct():
    phi = BranchParametrization.plane(6, {9: 1, 10: 1})
    assert characteristic_sequence(phi).exponents == (6, 9, 10)
    assert semigroup_of(phi).generators == (6, 9, 19)

    phi = BranchParametrization.plane(4, {6: 1, 7: 1})
    assert characteristic_sequence(phi).exponents == (4, 6, 7)
    assert semigroup_of(phi).generators == (4, 6, 13)


def test_characteristic_skips_non_contributing_exponents():
    # ord(y) is a multiple of n: 8 contributes nothing, 10 and 13 do
    phi = BranchParametrization.plane(4, {8: 1, 10: 1, 13: 1})
    assert characteristic_sequence(phi).exponents == (4, 10, 13)


def test_smooth_branch():
    phi = BranchParametrization.plane(1, {})
    assert characteristic_sequence(phi).exponents == (1,)
    assert semigroup_of(phi).generators == (1,)


@pytest.mark.parametrize("coords", [
    [{1: 1}, {0: 5}],
    [{2: 1}, {0: 1, 3: 1}],
    [{0: 1}, {3: 1}],
    [{6: 1}, {14: 1, 17: 1}, {0: -1, 39: 1}],
])
def test_a_branch_off_the_origin_is_rejected(coords):
    with pytest.raises(ValidationError, match="constant term"):
        BranchParametrization(coords)


def test_constant_terms_that_cancel_are_accepted():
    phi = BranchParametrization([{2: 1}, [(0, 1), (0, -1), (3, 1)]])
    assert phi.coords[1] == ((3, 1),)
    assert semigroup_of(phi).generators == (2, 3)


def test_non_primitive_rejected():
    with pytest.raises(DomainError):
        characteristic_sequence(BranchParametrization.plane(4, {6: 1}))
    with pytest.raises(DomainError):
        characteristic_sequence(BranchParametrization.plane(2, {}))


def test_nu_pullback_orders():
    phi = BranchParametrization.plane(2, {3: 1})
    x, y = coordinate_ring(2).gens()
    assert nu(phi, x) == 2
    assert nu(phi, y) == 3
    # y^2 - x^3 vanishes identically: the full pullback has degree 6
    assert nu(phi, y * y - x * x * x) == AbovePrecision(7)
    assert nu(phi, x * y + y) == 3
    # values above the Lambda-run length max(mu - 1, v_g) + 1 = 4 are exact
    assert nu(phi, y * y) == 6
    assert nu(phi, x * y) == 5
    assert nu(phi, x ** 5 + y * y) == 6


@st.composite
def plane_branches(draw):
    """(t^n, y(t)) with ord(y) >= n and gcd of all exponents 1."""
    n = draw(st.integers(1, 6))
    exps = draw(st.sets(st.integers(n, 4 * n + 8), min_size=1, max_size=4))
    if gcd(n, *exps) != 1:
        exps.add(min(exps) + 1)
    coeffs = st.fractions(-5, 5, max_denominator=4).filter(bool)
    return BranchParametrization.plane(n, {e: draw(coeffs) for e in exps})


@settings(max_examples=60, deadline=None)
@given(plane_branches(), st.integers(0, 8), st.integers(0, 8))
def test_nu_of_a_monomial_is_exact(phi, a, b):
    x, y = coordinate_ring(2).gens()
    assert nu(phi, x ** a * y ** b) == a * phi.multiplicity + b * phi.coord_order(1)


def test_standard_basis_values():
    phi = BranchParametrization.plane(6, {9: 1, 10: 1})
    sb = standard_basis_of_ring(phi)
    assert sb.values == (6, 9, 19)
    for p, s, v in zip(sb.polys, sb.pullbacks, sb.values):
        assert s.order() == v
        # pullback really is the substitution of the polynomial
        args = phi.series(s.precision)
        assert p.eval_series(args) == s


def test_standard_basis_degenerate_y_order():
    # ord(y) = 8 = 2*4 lies in <4>, so y must be raised before the tower
    phi = BranchParametrization.plane(4, {8: 1, 10: 1, 13: 1})
    gamma = semigroup_of(phi)
    assert gamma.generators == (4, 10, 23)
    sb = standard_basis_of_ring(phi)
    assert sb.values == (4, 10, 23)
    assert [s.order() for s in sb.pullbacks] == [4, 10, 23]


def test_standard_basis_four_generator_tower():
    phi = BranchParametrization.plane(8, {12: 1, 14: 1, 15: 1})
    gamma = semigroup_of(phi)
    assert characteristic_sequence(phi).exponents == (8, 12, 14, 15)
    sb = standard_basis_of_ring(phi)
    assert sb.values == gamma.generators
    assert [s.order() for s in sb.pullbacks] == list(gamma.generators)


@pytest.mark.parametrize("gens, where", [
    # y = t^6 + t^7 has order 6, which is not in <4,7>: level 0
    ((4, 7), "order 6 outside <v_0..v_0>"),
    # y^2 - x^3 = 2t^13 + t^14, and 13 is not in <4,6,15>: level 1
    ((4, 6, 15), "order 13 outside <v_0..v_1>"),
])
def test_tower_rejects_a_semigroup_the_branch_does_not_have(gens, where):
    phi = BranchParametrization.plane(4, {6: 1, 7: 1})
    assert semigroup_of(phi).generators == (4, 6, 13)
    with pytest.raises(DomainError, match=where):
        standard_basis_of_ring(phi, gamma=NumericalSemigroup(gens))


def test_parametrization_repr_and_cleanup():
    phi = BranchParametrization([{2: Fraction(1)}, {3: Fraction(1), 5: Fraction(0)}])
    assert phi.coords[1] == ((3, Fraction(1)),)
    assert phi.multiplicity == 2


@pytest.mark.parametrize("n, y", [(6, {9: 1, 10: 1}), (4, {8: 1, 10: 1, 13: 1}),
                                  (8, {12: 1, 14: 1, 15: 1})])
def test_representatives_pull_back_to_the_basis_series(n, y):
    phi = BranchParametrization.plane(n, y)
    sb = standard_basis_of_ring(phi)
    assert len(sb.polys) == len(sb.pullbacks)
    for p, s in zip(sb.polys, sb.pullbacks):
        assert p.eval_series(phi.series(s.precision)) == s


@pytest.mark.parametrize("n, y", [(6, {9: 1, 10: 1}), (4, {8: 1, 10: 1, 13: 1}),
                                  (8, {12: 1, 14: 1, 15: 1})])
def test_basis_over_a_parameter_ring_builds_no_representatives(n, y):
    # The tower builds representatives when y's series holds rationals;
    # the same branch with its coefficients read as constants of a
    # parameter ring is a family run: the same pullbacks, no polynomials.
    phi = BranchParametrization.plane(n, y)
    concrete = standard_basis_of_ring(phi)
    assert concrete.polys is not None
    over_ring = standard_basis_of_ring(phi.map_coeffs(Ring(("a",)).constant))
    assert over_ring.polys is None
    assert over_ring.pullbacks == concrete.pullbacks
    assert over_ring.values == concrete.values


@pytest.mark.parametrize("gens", [(6, 9, 19), (4, 6, 13), (8, 12, 26, 53), (7, 9)])
def test_the_tower_reduces_once_per_level(monkeypatch, gens):
    # one `_reduce` call builds each semiroot pullback, concrete or over
    # the family
    calls = []
    real = branch._reduce

    def counted(*args):
        calls.append(args[-1])
        return real(*args)

    monkeypatch.setattr(branch, "_reduce", counted)
    gamma = NumericalSemigroup(gens)
    family = normal_form_family(gamma)
    point = {n: Fraction(i + 2, 3) for i, n in enumerate(family.ring.names)}
    for phi in (family.phi, family.member(point)):
        calls.clear()
        standard_basis_of_ring(phi, gamma=gamma)
        assert calls == list(gamma.generators[1:])


@pytest.mark.parametrize("n, y", [(6, {9: 1, 10: 1}), (4, {8: 1, 10: 1, 13: 1}),
                                  (8, {12: 1, 14: 1, 15: 1}), (1, {})])
def test_basis_series_have_the_default_precision(n, y):
    # one length, max(mu - 1, v_g) + 1, for every series of a Lambda run
    phi = BranchParametrization.plane(n, y)
    gamma = semigroup_of(phi)
    sb = standard_basis_of_ring(phi)
    assert default_precision(gamma) == max(gamma.conductor - 1, gamma.generators[-1]) + 1
    assert all(s.precision == default_precision(gamma) for s in sb.pullbacks)
