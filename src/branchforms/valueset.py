"""Cofinite subsets of the positive integers and their Apery arithmetic.

This is where the recovery of the value semigroup from a value set of
1-forms happens: Apery set, the covering test, the epsilon/eta gcd
sequences, the B_i sets and max(B_i) extraction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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


@dataclass(frozen=True)
class AperyProfile:
    """Apery data of a covered set: the a_i, the epsilon/eta sequences and
    the B_i sets."""

    apery: tuple
    covered: bool
    epsilon: tuple
    eta: tuple
    b_sets: tuple  # tuple of tuples


def apery_set(s):
    """Smallest member of each residue class mod a_0 = min(s).  The scan
    runs over [1, cofinal + a_0), whose top a_0 integers are members, so
    every class is met: the result has a_0 elements, a_0 first."""
    a0 = s.min()
    reps = {}
    for z in s.up_to(s.cofinal + a0):
        r = z % a0
        if r not in reps:
            reps[r] = z
    return sorted(reps.values())


def is_covered(s, with_witness=False):
    """s is covered by its Apery set if every a_j + k*a_0 belongs to s.
    Returns bool, or (bool, witness) where the witness is a missing element
    of some progression (None when s is covered)."""
    ap = apery_set(s)
    a0 = ap[0]
    for a in ap:
        z = a
        while z < s.cofinal:
            if z not in s:
                return (False, z) if with_witness else False
            z += a0
    return (True, None) if with_witness else True


def epsilon_eta(s):
    """The gcd sequence eps_0 = a_0 > eps_1 > ... > eps_rho = 1 over the
    Apery set, and the ratios eta_i = eps_{i-1}/eps_i.  eps_i is
    gcd(eps_{i-1}, a) for the smallest Apery element a that eps_{i-1} does
    not divide.  Returns (epsilon, eta, rho).  Requires s covered by its
    Apery set.

    The sequence cannot stall: eps_{i-1} > 1 divides a_0, so it does not
    divide the Apery element congruent to 1 mod a_0; and eps_i is a proper
    divisor of eps_{i-1}, so every eta_i >= 2."""
    cov, _ = is_covered(s, with_witness=True)
    if not cov:
        raise DomainError("set is not covered by its Apery set")
    ap = apery_set(s)
    eps = [ap[0]]
    eta = [1]
    while eps[-1] != 1:
        a = next(a for a in ap if a % eps[-1] != 0)
        nxt = gcd(eps[-1], a)
        eta.append(eps[-1] // nxt)
        eps.append(nxt)
    return tuple(eps), tuple(eta), len(eps) - 1


def b_sets(s):
    """B_0 = {a_0}; B_i = the eps_0/eps_{i-1} smallest elements of
    Delta_i = {a in Ap(s) : eps_i | a, eps_{i-1} not| a}."""
    eps, _eta, rho = epsilon_eta(s)
    ap = apery_set(s)
    out = [(ap[0],)]
    for i in range(1, rho + 1):
        delta = sorted(a for a in ap if a % eps[i] == 0 and a % eps[i - 1] != 0)
        need = eps[0] // eps[i - 1]
        if len(delta) < need:
            raise DomainError(
                f"not Lambda-shaped: Delta_{i} has {len(delta)} elements, "
                f"need {need}")
        out.append(tuple(delta[:need]))
    return tuple(out)


def apery_profile(s):
    ap = tuple(apery_set(s))
    cov = is_covered(s)
    if not cov:
        return AperyProfile(ap, False, (), (), ())
    eps, eta, _rho = epsilon_eta(s)
    return AperyProfile(ap, True, eps, eta, b_sets(s))


def recover_gamma(lam):
    """Candidate value semigroup <max(B_0), ..., max(B_rho)> read off a value
    set of 1-forms.  For a genuine plane-branch Lambda this is the value
    semigroup of the branch."""
    bs = b_sets(lam)
    gens = tuple(max(b) for b in bs)
    return NumericalSemigroup(gens)


def from_semigroup(gamma):
    """Render a numerical semigroup minus 0 as a ValueSet."""
    mu = gamma.conductor
    cof = max(mu, 1)
    members = [z for z in gamma.members_up_to(cof) if z > 0]
    return ValueSet(tuple(members), cof)
