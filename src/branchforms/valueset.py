"""Cofinite subsets of the positive integers and their Apery arithmetic.

This is where the recovery of the value semigroup from a value set of
1-forms happens: Apery set, the covering test, the epsilon/eta gcd
sequences, the B_i sets and max(B_i) extraction.  One pass computes all of
it as the `AperyProfile` a `ValueSet` keeps, and every reader reads that.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from math import gcd

from .errors import DomainError, ValidationError
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class ValueSet:
    """elements: sorted members below cofinal; every n >= cofinal is a member.

    Canonical form: cofinal is minimal, so equal sets compare equal.
    """

    elements: tuple
    cofinal: int

    def __post_init__(self):
        cof = int(self.cofinal)
        if cof < 1:
            raise ValidationError("cofinal threshold must be positive")
        elems = sorted({int(e) for e in self.elements if int(e) < cof})
        if elems and elems[0] <= 0:
            raise ValidationError("value sets contain positive integers only")
        while elems and elems[-1] == cof - 1:
            elems.pop()
            cof -= 1
        object.__setattr__(self, "elements", tuple(elems))
        object.__setattr__(self, "cofinal", cof)

    def __contains__(self, z):
        z = int(z)
        if z >= self.cofinal:
            return True
        i = bisect_left(self.elements, z)
        return i < len(self.elements) and self.elements[i] == z

    def min(self):
        return self.elements[0] if self.elements else self.cofinal

    def up_to(self, bound):
        """Sorted members in [1, bound)."""
        out = list(self.elements)
        out.extend(range(self.cofinal, max(bound, self.cofinal)))
        return [z for z in out if z < bound]

    def to_json(self):
        return {"elements": list(self.elements), "cofinal": self.cofinal}

    @cached_property
    def _profile(self):
        return _build_profile(self)


@dataclass(frozen=True)
class AperyProfile:
    """Apery data of a value set: the a_i, the first element missing from an
    Apery progression (None when the set is covered), and for a covered set
    the epsilon/eta sequences and the B_i sets."""

    apery: tuple
    missing: object
    epsilon: tuple
    eta: tuple
    b_sets: tuple  # tuple of tuples

    @property
    def covered(self):
        return self.missing is None


def _build_profile(s):
    """The Apery profile of s in one pass.  The Apery set holds the smallest
    member of each class mod a_0 = min(s); the scan of [1, cofinal + a_0)
    meets every class, as its top a_0 integers are members.  s is covered if
    every a_j + k*a_0 is a member; the first one missing is the witness.

    eps_0 = a_0 and eps_i = gcd(eps_{i-1}, a) for the smallest Apery element
    a that eps_{i-1} does not divide, down to eps_rho = 1; eta_i =
    eps_{i-1}/eps_i.  No step stalls (eps_{i-1} > 1 divides a_0, so not the
    Apery element = 1 mod a_0) and each eps_i properly divides eps_{i-1},
    so every eta_i >= 2.  B_0 = {a_0} and B_i is the eps_0/eps_{i-1}
    smallest elements of Delta_i = {a in Ap(s) : eps_i | a, eps_{i-1} not| a},
    which has that many: Ap(s) has one element in each class mod eps_0, and
    eps_i | eps_0, so |Delta_i| = eps_0/eps_i - eps_0/eps_{i-1} =
    (eps_0/eps_{i-1})(eta_i - 1) >= eps_0/eps_{i-1}."""
    a0 = s.min()
    reps = {}
    for z in s.up_to(s.cofinal + a0):
        reps.setdefault(z % a0, z)
    ap = tuple(sorted(reps.values()))
    missing = next((z for a in ap for z in range(a, s.cofinal, a0)
                    if z not in s), None)
    if missing is not None:
        return AperyProfile(ap, missing, (), (), ())
    eps, eta = [a0], [1]
    while eps[-1] != 1:
        a = next(a for a in ap if a % eps[-1] != 0)
        eps.append(gcd(eps[-1], a))
        eta.append(eps[-2] // eps[-1])
    bs = [(a0,)]
    for i in range(1, len(eps)):
        delta = [a for a in ap if a % eps[i] == 0 and a % eps[i - 1] != 0]
        bs.append(tuple(delta[:a0 // eps[i - 1]]))
    return AperyProfile(ap, None, tuple(eps), tuple(eta), tuple(bs))


def apery_profile(s):
    return s._profile


def _covered_profile(s):
    profile = s._profile
    if not profile.covered:
        raise DomainError("set is not covered by its Apery set")
    return profile


def apery_set(s):
    """Smallest member of each residue class mod min(s), sorted."""
    return list(s._profile.apery)


def is_covered(s, with_witness=False):
    """s is covered by its Apery set if every a_j + k*a_0 belongs to s.
    Returns bool, or (bool, witness) where the witness is a missing element
    of some progression (None when s is covered)."""
    p = s._profile
    return (p.covered, p.missing) if with_witness else p.covered


def epsilon_eta(s):
    """(epsilon, eta, rho) of a set covered by its Apery set."""
    p = _covered_profile(s)
    return p.epsilon, p.eta, len(p.epsilon) - 1


def b_sets(s):
    """(B_0, ..., B_rho) of a set covered by its Apery set."""
    return _covered_profile(s).b_sets


def recover_gamma(lam):
    """Candidate value semigroup <max(B_0), ..., max(B_rho)> read off a value
    set of 1-forms.  For a genuine plane-branch Lambda this is the value
    semigroup of the branch."""
    return NumericalSemigroup(tuple(max(b) for b in b_sets(lam)))


def gamma_star_apery(gamma):
    """Apery set of the punctured semigroup Gamma \\ {0}: the smallest
    positive member in each residue class mod v_0.  For free semigroups
    this equals {v_0} plus the nonzero sums sum s_i v_i with 0 <= s_i < n_i."""
    return apery_set(from_semigroup(gamma))


def from_semigroup(gamma):
    """Render a numerical semigroup minus 0 as a ValueSet."""
    cof = max(gamma.conductor, 1)
    return ValueSet(tuple(gamma.members_up_to(cof)[1:]), cof)
