"""Numerical semigroup arithmetic for plane branches.

A plane branch's value semigroup is generated by v_0 < ... < v_g with
gcd 1; the gcd chain e_i, ratios n_i and the conductor are the basic
derived data.  Everything here is exact integer arithmetic on immutable
objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import gcd

from .errors import DomainError, ValidationError


def _gcd_chain(values):
    es = []
    e = 0
    for v in values:
        e = gcd(e, v)
        es.append(e)
    return es


@dataclass(frozen=True)
class CharacteristicSequence:
    """Characteristic exponents beta_0 < beta_1 < ... < beta_g."""

    exponents: tuple

    def __post_init__(self):
        beta = tuple(int(b) for b in self.exponents)
        object.__setattr__(self, "exponents", beta)
        if not beta:
            raise ValidationError("empty characteristic sequence")
        if any(b <= 0 for b in beta):
            raise ValidationError("characteristic exponents must be positive")
        if any(b1 >= b2 for b1, b2 in zip(beta, beta[1:])):
            raise ValidationError("characteristic exponents must be strictly increasing")
        es = _gcd_chain(beta)
        if es[-1] != 1:
            raise ValidationError("gcd of characteristic exponents must be 1")
        for i in range(1, len(beta)):
            if beta[i] % es[i - 1] == 0:
                raise ValidationError(
                    f"exponent {beta[i]} is divisible by gcd {es[i - 1]} of the previous ones")

    @property
    def e(self):
        return tuple(_gcd_chain(self.exponents))


@dataclass(frozen=True)
class NumericalSemigroup:
    """A numerical semigroup held by its minimal generator system."""

    generators: tuple

    def __post_init__(self):
        gens = sorted({int(v) for v in self.generators})
        if not gens:
            raise ValidationError("no generators given")
        if gens[0] <= 0:
            raise ValidationError("generators must be positive")
        es = _gcd_chain(gens)
        if es[-1] != 1:
            raise DomainError("gcd of generators must be 1")
        gens = _minimalize(gens)
        object.__setattr__(self, "generators", tuple(gens))

    # -- derived data --------------------------------------------------------

    @property
    def g(self):
        return len(self.generators) - 1

    @property
    def multiplicity(self):
        return self.generators[0]

    @cached_property
    def e(self):
        return tuple(_gcd_chain(self.generators))

    @cached_property
    def n(self):
        es = self.e
        return (1,) + tuple(es[i - 1] // es[i] for i in range(1, len(es)))

    @cached_property
    def is_free(self):
        """True when n_i * v_i always lies in <v_0, ..., v_{i-1}>; the
        unique-representation arithmetic below is valid exactly then.
        Plane branch semigroups are always free."""
        v = self.generators
        n = self.n
        return all(_reachable(v[:i], n[i] * v[i] + 1)[-1] for i in range(1, len(v)))

    @cached_property
    def _table(self):
        """Membership of each z below the conductor, from one reachability
        table; every question about Gamma's members reads this list.

        By Schur's bound (Brauer 1942) the Frobenius number of <v_0, ...,
        v_g> is at most (v_0 - 1)(v_g - 1) - 1, so a table up to
        v_0 v_g + v_0 + 1 holds every gap and ends in v_0 members in a
        row."""
        v = self.generators
        table = _reachable(v, v[0] * v[-1] + v[0] + 1)
        assert all(table[-v[0]:])
        conductor = len(table)
        while conductor and table[conductor - 1]:
            conductor -= 1
        del table[conductor:]
        return table

    @cached_property
    def _bits(self):
        """The table as one int: bit z is set for each member z < conductor."""
        return int("".join("01"[m] for m in reversed(self._table)) or "0", 2)

    @property
    def conductor(self):
        return len(self._table)

    # -- membership ------------------------------------------------------------

    def membership(self, z):
        """Unique representation z = sum s_i v_i with 0 <= s_i < n_i for i >= 1.

        Returns (member, s) where member is True iff s[0] >= 0.  Only free
        generator systems admit this representation.
        """
        if not self.is_free:
            raise DomainError(
                "membership representation requires a free generator system")
        v = self.generators
        n = self.n
        es = self.e
        s = [0] * len(v)
        rem = int(z)
        for i in range(len(v) - 1, 0, -1):
            # rem is divisible by e_i here; solve rem = s_i v_i mod e_{i-1}.
            m = n[i]
            vi = v[i] // es[i]
            r = rem // es[i]
            si = (r * pow(vi, -1, m)) % m
            s[i] = si
            rem -= si * v[i]
        assert rem % v[0] == 0
        s[0] = rem // v[0]
        return s[0] >= 0, tuple(s)

    def __contains__(self, z):
        tbl = self._table
        return z >= 0 and (z >= len(tbl) or tbl[z])

    def members_up_to(self, bound):
        """Sorted list of members in [0, bound)."""
        c = self.conductor
        return [*compress(range(min(bound, c)), self._table), *range(c, bound)]


def _minimalize(gens):
    """Drop generators expressible from the others (keeps a minimal system)."""
    gens = sorted(set(gens))
    if gens == [1]:
        return [1]
    changed = True
    while changed:
        changed = False
        for i in range(len(gens) - 1, 0, -1):
            others = gens[:i] + gens[i + 1 :]
            if _reachable(others, gens[i] + 1)[-1]:
                del gens[i]
                changed = True
                break
    return gens


def _reachable(gens, bound):
    """Table of z in [0, bound) (bound >= 1): is z a sum of elements of gens?"""
    table = [False] * bound
    table[0] = True
    for v in gens:
        for k in range(v, bound):
            if table[k - v]:
                table[k] = True
    return table


def is_plane_branch_semigroup(values):
    """Bresinsky's test: gcd 1, every n_i >= 2 and n_{i-1} v_{i-1} < v_i.

    Returns (ok, reason); reason names the first violated condition.
    """
    vals = [int(v) for v in values]
    if not vals:
        raise ValidationError("empty generator list")
    if any(v <= 0 for v in vals):
        raise ValidationError("generators must be positive")
    if any(a >= b for a, b in zip(vals, vals[1:])):
        raise ValidationError("generators must be strictly increasing")
    es = _gcd_chain(vals)
    if es[-1] != 1:
        return False, f"gcd of generators is {es[-1]}, not 1"
    n = [1] + [es[i - 1] // es[i] for i in range(1, len(es))]
    for i in range(1, len(vals)):
        if n[i] < 2:
            return False, f"n_{i} = {n[i]} < 2 (generator {vals[i]} is redundant)"
    for i in range(1, len(vals)):
        if n[i - 1] * vals[i - 1] >= vals[i]:
            return False, (f"n_{i - 1}*v_{i - 1} = {n[i - 1] * vals[i - 1]} "
                           f">= v_{i} = {vals[i]}")
    return True, "plane branch semigroup"


def semigroup_from_characteristic(beta):
    """Minimal generators from characteristic exponents: v_0 = beta_0 and
    v_i = n_{i-1} v_{i-1} + beta_i - beta_{i-1}."""
    if not isinstance(beta, CharacteristicSequence):
        beta = CharacteristicSequence(tuple(beta))
    b = beta.exponents
    es = beta.e
    n = (1,) + tuple(es[i - 1] // es[i] for i in range(1, len(es)))
    v = [b[0]]
    for i in range(1, len(b)):
        v.append(n[i - 1] * v[i - 1] + b[i] - b[i - 1])
    return NumericalSemigroup(tuple(v))


def characteristic_from_semigroup(gamma):
    """Inverse of semigroup_from_characteristic; requires a plane semigroup."""
    ok, reason = is_plane_branch_semigroup(gamma.generators)
    if not ok:
        raise DomainError(f"not a plane branch semigroup: {reason}")
    v = gamma.generators
    n = gamma.n
    b = [v[0]]
    for i in range(1, len(v)):
        b.append(v[i] - n[i - 1] * v[i - 1] + b[i - 1])
    return CharacteristicSequence(tuple(b))

