import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchforms import (CharacteristicSequence, DomainError,
                         NumericalSemigroup, ValidationError,
                         characteristic_from_semigroup, gamma_star_apery,
                         is_plane_branch_semigroup,
                         semigroup_from_characteristic)


def test_basic_invariants_6919():
    g = NumericalSemigroup((6, 9, 19))
    assert g.generators == (6, 9, 19)
    assert g.e == (6, 3, 1)
    assert g.n == (1, 2, 3)
    assert g.conductor == 42


def test_redundant_generators_are_dropped():
    g = NumericalSemigroup((4, 6, 10, 13))
    assert g.generators == (4, 6, 13)
    assert NumericalSemigroup((3, 4, 5, 6, 7)).generators == (3, 4, 5)


def test_trivial_semigroup():
    g = NumericalSemigroup((1,))
    assert g.conductor == 0
    assert 0 in g and 1 in g


def test_membership_representation_unique():
    g = NumericalSemigroup((6, 9, 19))
    member, s = g.membership(22)
    assert not member
    member, s = g.membership(28)
    assert member
    assert s[0] * 6 + s[1] * 9 + s[2] * 19 == 28
    assert 0 <= s[1] < 2 and 0 <= s[2] < 3
    for z in range(0, 60):
        member, s = g.membership(z)
        assert member == (s[0] >= 0)
        assert sum(si * vi for si, vi in zip(s, g.generators)) == z


@pytest.mark.parametrize("gens, conductor, members", [
    ((6, 9, 19), 42, [0, 6, 9, 12, 15, 18, 19, 21, 24, 25, 27, 28, 30, 31, 33,
                      34, 36, 37, 38, 39, 40]),
    ((3, 4, 5), 3, [0]),
])
def test_membership_questions_read_the_table(monkeypatch, gens, conductor, members):
    def no_representation(self, z):
        raise AssertionError("membership asked for a representation")

    monkeypatch.setattr(NumericalSemigroup, "membership", no_representation)
    g = NumericalSemigroup(gens)
    assert g.conductor == conductor
    assert g.members_up_to(conductor + 3) == members + [conductor, conductor + 1,
                                                         conductor + 2]
    assert [z for z in range(-2, conductor + 3) if z in g] == \
        g.members_up_to(conductor + 3)


def test_gaps_and_conductor_consistency():
    g = NumericalSemigroup((4, 6, 13))
    assert g.conductor == 16
    assert [z for z in range(1, 16) if z not in g] == [1, 2, 3, 5, 7, 9, 11, 15]
    assert all(z in g for z in range(16, 40))


def test_symmetry_of_plane_semigroups():
    # z in Gamma iff mu - 1 - z not in Gamma
    for gens in [(2, 3), (3, 4), (4, 6, 13), (6, 9, 19), (4, 6, 17)]:
        g = NumericalSemigroup(gens)
        mu = g.conductor
        for z in range(0, mu):
            assert (z in g) == ((mu - 1 - z) not in g)


def test_bresinsky_test():
    assert is_plane_branch_semigroup((6, 9, 19))[0]
    assert is_plane_branch_semigroup((2, 3))[0]
    assert is_plane_branch_semigroup((1,))[0]
    ok, reason = is_plane_branch_semigroup((6, 9, 17))
    assert not ok and "18" in reason  # n_1*v_1 = 18 >= 17
    ok, reason = is_plane_branch_semigroup((4, 5, 6))
    assert not ok
    ok, reason = is_plane_branch_semigroup((4, 6))
    assert not ok and "gcd" in reason


def test_characteristic_roundtrip():
    beta = CharacteristicSequence((6, 9, 10))
    g = semigroup_from_characteristic(beta)
    assert g.generators == (6, 9, 19)
    back = characteristic_from_semigroup(g)
    assert back.exponents == (6, 9, 10)

    beta = CharacteristicSequence((4, 6, 7))
    assert semigroup_from_characteristic(beta).generators == (4, 6, 13)


def test_characteristic_validation():
    with pytest.raises(ValidationError):
        CharacteristicSequence((6, 9, 12))  # 12 divisible by gcd(6,9)=3
    with pytest.raises(ValidationError):
        CharacteristicSequence((4, 6))  # gcd 2, never reaches 1
    with pytest.raises(DomainError):
        characteristic_from_semigroup(NumericalSemigroup((6, 9, 17)))


def test_gamma_star_apery():
    assert gamma_star_apery(NumericalSemigroup((4, 6, 13))) == [4, 6, 13, 19]
    assert gamma_star_apery(NumericalSemigroup((6, 9, 19))) == \
        [6, 9, 19, 28, 38, 47]
    assert gamma_star_apery(NumericalSemigroup((2, 3))) == [2, 3]


def test_conductor_from_apery_identity():
    for gens in [(2, 3), (3, 4), (4, 6, 13), (6, 9, 19), (4, 6, 21)]:
        g = NumericalSemigroup(gens)
        ap = gamma_star_apery(g)
        assert g.conductor == max(ap) - g.multiplicity + 1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=2, max_value=40), min_size=2, max_size=4))
def test_membership_agrees_with_bruteforce(gens):
    from math import gcd
    from functools import reduce
    if reduce(gcd, gens) != 1:
        return
    g = NumericalSemigroup(tuple(gens))
    bound = g.conductor + max(gens) + 1
    reachable = {0}
    for _ in range(bound):
        reachable |= {z + v for z in reachable for v in g.generators
                      if z + v <= bound}
    for z in range(bound + 1):
        assert (z in g) == (z in reachable)
    assert g.members_up_to(bound + 1) == sorted(reachable)
    assert -1 not in g and -max(gens) not in g
    # v_0 members in a row end the gaps, so the conductor is read off the table
    v = g.generators
    assert all(z in reachable for z in range(bound - v[0] + 1, bound + 1))
    assert g.conductor == max((z + 1 for z in range(bound) if z not in reachable),
                              default=0)
    # free: n_i v_i lies in <v_0, ..., v_{i-1}> for every i >= 1
    es = [reduce(gcd, v[:i + 1]) for i in range(len(v))]

    def in_span(z, span):
        hit = [True] + [False] * z
        for k in range(1, z + 1):
            hit[k] = any(k >= u and hit[k - u] for u in span)
        return hit[z]

    assert g.is_free == all(in_span(es[i - 1] // es[i] * v[i], v[:i])
                            for i in range(1, len(v)))
