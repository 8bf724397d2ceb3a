import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from branchforms import (DomainError, NumericalSemigroup, ValidationError,
                         ValueSet, apery_profile, apery_set, b_sets,
                         epsilon_eta, from_semigroup, gamma_star_apery,
                         is_covered, recover_gamma,
                         semigroup_from_characteristic)
from branchforms.jsonio import valueset_from_json

# The running example: four candidate sets differing in a few elements.
L1 = ValueSet((6, 9, 12, 15, 16, 17, 18, 21, 22, 24, 25), 27)
L2 = ValueSet((6, 9, 12, 15, 16, 17, 18, 21, 22, 23, 24, 25), 27)
L3 = ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22, 23, 24, 25), 27)
L4 = ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22, 24, 25), 27)


def test_canonical_form():
    # trailing elements merge into the cofinal threshold
    s = ValueSet((3, 5, 6, 7), 8)
    assert s.cofinal == 5
    assert s.elements == (3,)
    assert ValueSet((3, 5, 6, 7), 8) == ValueSet((3,), 5)
    assert ValueSet((1, 2), 3) == ValueSet((), 1)


def test_membership_and_min():
    s = ValueSet((2, 4), 6)
    assert 2 in s and 4 in s and 100 in s
    assert 3 not in s and 5 not in s and 1 not in s
    assert s.min() == 2
    assert s.up_to(9) == [2, 4, 6, 7, 8]


def test_rejects_zero_and_negatives():
    with pytest.raises(ValidationError):
        ValueSet((0, 2), 4)
    with pytest.raises(ValidationError):
        ValueSet((2,), 0)


def test_json_roundtrip():
    s = ValueSet((6, 9, 12), 14)
    assert valueset_from_json(s.to_json()) == s


def test_apery_sets_of_running_example():
    assert apery_set(L1) == [6, 9, 16, 17, 25, 32]
    assert apery_set(L2) == [6, 9, 16, 17, 25, 32]
    assert apery_set(L3) == [6, 9, 16, 19, 23, 32]
    assert apery_set(L4) == [6, 9, 16, 19, 29, 32]


def test_covering():
    cov, witness = is_covered(L1, with_witness=True)
    assert not cov and witness == 23  # 23 = 17 + 6 is missing
    for L in (L2, L3, L4):
        assert is_covered(L)


def test_epsilon_eta_sequences():
    eps, eta, rho = epsilon_eta(L2)
    assert eps == (6, 3, 1)
    assert eta == (1, 2, 3)
    assert rho == 2
    with pytest.raises(DomainError):
        epsilon_eta(L1)


def test_b_sets():
    assert b_sets(L2) == ((6,), (9,), (16, 17))
    assert b_sets(L3) == ((6,), (9,), (16, 19))
    assert b_sets(L4) == ((6,), (9,), (16, 19))


def test_recover_gamma_from_lambda():
    # Lambda of the generic branch in the <6,9,19> class
    lam = ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22), 24)
    assert apery_set(lam) == [6, 9, 16, 19, 26, 29]
    assert b_sets(lam) == ((6,), (9,), (16, 19))
    assert recover_gamma(lam).generators == (6, 9, 19)
    assert recover_gamma(L3).generators == (6, 9, 19)
    assert recover_gamma(L4).generators == (6, 9, 19)


def test_from_semigroup():
    s = from_semigroup(NumericalSemigroup((2, 3)))
    assert s == ValueSet((), 2)
    s = from_semigroup(NumericalSemigroup((6, 9, 19)))
    assert 0 not in s and 6 in s and 7 not in s and 42 in s and 41 not in s


def test_apery_profile_uncovered():
    p = apery_profile(L1)
    assert not p.covered
    assert p.epsilon == () and p.b_sets == ()


def test_semigroup_rendered_as_valueset_recovers_itself():
    # only classes where Gamma* is itself an attainable Lambda
    # (conductor below v0 + v1, so no extra 1-form values fit)
    for gens in [(2, 3), (2, 5), (2, 9), (3, 4)]:
        g = NumericalSemigroup(gens)
        s = from_semigroup(g)
        assert is_covered(s)
        assert recover_gamma(s).generators == g.generators


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=30), min_size=0, max_size=8),
       st.integers(min_value=1, max_value=31))
def test_valueset_membership_matches_definition(elements, cofinal):
    s = ValueSet(tuple(elements), cofinal)
    reference = {e for e in elements if e < cofinal} | set(range(cofinal, 40))
    for z in range(1, 40):
        assert (z in s) == (z in reference)


def test_epsilon_uses_smallest_apery_element_off_the_previous_gcd():
    # Lambda of (t^4, t^9 + t^11): Apery set (4, 9, 13, 15); the first
    # element not divisible by 4 is 9, so eps_1 = gcd(4, 9) = 1.
    lam = ValueSet((4, 8, 9, 12, 13), 15)
    assert epsilon_eta(lam) == ((4, 1), (1, 4), 1)
    assert recover_gamma(lam).generators == (4, 9)


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=1, max_value=39), max_size=12),
       st.integers(min_value=1, max_value=40))
def test_apery_set_meets_every_residue_class(elements, cofinal):
    s = ValueSet(tuple(elements), cofinal)
    ap = apery_set(s)
    assert len(ap) == s.min() == ap[0]
    assert sorted(a % ap[0] for a in ap) == list(range(ap[0]))


@st.composite
def covered_sets(draw):
    """Union of the progressions a_r + k*a_0 (k >= 0) over a chosen Apery
    set {a_0} + {a_r = r + m_r*a_0 : 0 < r < a_0}, m_r >= 1: covered by
    construction."""
    a0 = draw(st.integers(1, 9))
    starts = [a0] + [r + a0 * draw(st.integers(1, 5)) for r in range(1, a0)]
    cofinal = max(starts) + 1
    members = {z for a in starts for z in range(a, cofinal, a0)}
    return ValueSet(tuple(members), cofinal)


@settings(max_examples=100, deadline=None)
@given(covered_sets())
def test_epsilon_eta_reaches_one_with_every_eta_at_least_two(s):
    assert is_covered(s)
    eps, eta, rho = epsilon_eta(s)
    assert eps[0] == s.min() and eps[-1] == 1 and len(eps) == rho + 1
    assert all(e >= 2 for e in eta[1:])
    assert all(eps[i - 1] == eta[i] * eps[i] for i in range(1, rho + 1))
    # every Delta_i is long enough for its B_i
    bs = b_sets(s)
    ap = apery_set(s)
    for i in range(1, rho + 1):
        assert len(bs[i]) == eps[0] // eps[i - 1]
        assert all(b in ap and b % eps[i] == 0 and b % eps[i - 1] != 0
                   for b in bs[i])


@st.composite
def plane_semigroups(draw):
    """<v_0, ..., v_g> of random characteristic exponents: n_i in {2, 3},
    beta_0 = n_1...n_g, beta_i = beta_{i-1} + k*e_i with n_i not| k."""
    n = draw(st.lists(st.sampled_from([2, 3]), max_size=3))
    e = [1]
    for ni in reversed(n):
        e.insert(0, ni * e[0])
    beta = [e[0]]
    for i, ni in enumerate(n, start=1):
        k = ni * draw(st.integers(0, 2)) + draw(st.integers(1, ni - 1))
        beta.append(beta[-1] + k * e[i])
    return semigroup_from_characteristic(beta)


@settings(max_examples=60, deadline=None)
@given(plane_semigroups())
def test_gamma_star_apery_of_a_plane_semigroup(gamma):
    v, n = gamma.generators, gamma.n
    sums = {0}
    for vi, ni in zip(v[1:], n[1:]):
        sums = {z + s * vi for z in sums for s in range(ni)}
    assert gamma_star_apery(gamma) == sorted((sums - {0}) | {v[0]})
