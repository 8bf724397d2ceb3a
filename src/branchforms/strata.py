"""Parametric runs of the 1-form standard basis over a whole topological
class, with case splitting.

A normal-form family (t^{v0}, t^{v1} + sum a_i t^i) carries every analytic
type with a fixed value semigroup.  Running the standard-basis completion
with polynomial coefficients hits leading coefficients whose vanishing
depends on the parameters; each such coefficient splits the parameter
space into a vanishing locus and its complement.  The leaves of the split
tree are the strata, each with one value set Lambda and a rational witness.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .branch import BranchParametrization, standard_basis_of_ring
from .errors import DomainError
from .forms import algorithm1_core, algorithm1_lambda, assemble_lambda
from .params import irreducible_factors
from .poly import Poly, Ring
from .semigroup import (NumericalSemigroup, characteristic_from_semigroup,
                        is_plane_branch_semigroup)
from .valueset import ValueSet


class SplitNeeded(Exception):
    """A leading coefficient is a non-constant polynomial whose vanishing is
    not decided by the current disequality assumptions."""

    def __init__(self, coeff, unknown):
        super().__init__(f"undecidable coefficient {coeff}")
        self.coeff = coeff
        self.unknown = unknown  # normalized irreducible factors, tuple


class ConstraintOracle:
    """Zero test for series coefficients under nonzero-assumptions.

    Constants decide themselves; a non-constant polynomial is zero-free
    exactly when all its irreducible factors are assumed nonzero, and
    otherwise triggers a case split.  `factors` memoizes
    `irreducible_factors` by polynomial; `stratify` hands one dict to every
    run of a single call.
    """

    def __init__(self, nonzero=(), factors=None):
        self.nonzero = frozenset(nonzero)
        self.factors = {} if factors is None else factors

    def is_zero(self, c):
        if not isinstance(c, Poly):
            return not c
        if not c:
            return True
        if c.is_constant():
            return False
        factors = self.factors.get(c)
        if factors is None:
            factors = self.factors[c] = irreducible_factors(c)
        unknown = tuple(f for f in factors if f not in self.nonzero)
        if not unknown:
            return False
        raise SplitNeeded(c, unknown)


@dataclass(frozen=True)
class NormalFormFamily:
    """(t^{v0}, t^{v1} + sum_{i in E} a_i t^i) with some coefficients pinned."""

    gamma: NumericalSemigroup
    ring: Ring
    phi: BranchParametrization
    exponents: tuple          # E, sorted
    fixed: tuple              # ((exponent, Fraction), ...) pinned coefficients
    base_nonzero: tuple       # Poly generators that must not vanish
    free_names: tuple

    def member(self, point):
        """Concrete branch at a full rational parameter assignment."""
        def ev(c):
            return c.eval(point) if isinstance(c, Poly) else Fraction(c)
        return self.phi.map_coeffs(ev)


def normal_form_family(gamma):
    """Exponent support E = {i : v1 < i < mu - v0, v0 + i not in Gamma},
    restricted to exponents compatible with the characteristic sequence;
    the coefficient at beta_2 is scaled to 1 and coefficients at higher
    characteristic exponents are constrained nonzero."""
    if not isinstance(gamma, NumericalSemigroup):
        gamma = NumericalSemigroup(tuple(gamma))
    ok, reason = is_plane_branch_semigroup(gamma.generators)
    if not ok:
        raise DomainError(f"not a plane branch semigroup: {reason}")
    v = gamma.generators
    mu = gamma.conductor
    g = gamma.g
    if g == 0:
        ring = Ring(())
        phi = BranchParametrization([{1: Fraction(1)}, {}])
        return NormalFormFamily(gamma, ring, phi, (), (), (), ())

    beta = characteristic_from_semigroup(gamma)
    b = beta.exponents
    eb = beta.e

    def char_compatible(i):
        # An exponent below beta_k with gcd e_{k-1} not dividing it would
        # itself become a characteristic exponent.
        return all(i % eb[k - 1] == 0 for k in range(1, len(b)) if i < b[k])

    E = tuple(i for i in range(v[1] + 1, mu - v[0])
              if (v[0] + i) not in gamma and char_compatible(i))

    fixed = {}
    if g >= 2:
        if b[2] not in E:
            raise DomainError(
                f"characteristic exponent {b[2]} missing from the family support")
        fixed[b[2]] = Fraction(1)
    for k in range(3, g + 1):
        if b[k] not in E:
            raise DomainError(
                f"characteristic exponent {b[k]} missing from the family support")

    free = tuple(f"a{i}" for i in E if i not in fixed)
    ring = Ring(free)
    y_terms = {v[1]: Fraction(1)}
    for i in E:
        y_terms[i] = ring.constant(fixed[i]) if i in fixed else ring.gen(f"a{i}")
    phi = BranchParametrization.plane(v[0], y_terms)
    base_nonzero = tuple(ring.gen(f"a{b[k]}").normalized() for k in range(3, g + 1))
    return NormalFormFamily(gamma, ring, phi, E,
                            tuple(sorted(fixed.items())), base_nonzero, free)


@dataclass
class Stratum:
    """One leaf of the split tree.

    equalities/nonzero are polynomial constraints on the family parameters;
    a full rational point lies in the stratum iff every equality vanishes
    and no nonzero-constraint does.  substitutions is the triangular solved
    form of the equalities, in the order they were introduced.
    """

    equalities: tuple
    nonzero: tuple
    substitutions: tuple
    lambda_set: object        # ValueSet or None
    witness: dict             # full {name: Fraction} or None
    status: str               # "resolved" | "unresolved"
    minimal_values: tuple = ()

    def contains(self, point):
        return (all(f.eval(point) == 0 for f in self.equalities)
                and all(f.eval(point) != 0 for f in self.nonzero))


@dataclass(frozen=True)
class StratificationReport:
    gamma: NumericalSemigroup
    family: NormalFormFamily
    strata: tuple

    @property
    def lambdas(self):
        """Distinct attainable value sets across resolved strata."""
        seen = []
        for s in self.strata:
            if s.status == "resolved" and s.lambda_set not in seen:
                seen.append(s.lambda_set)
        return tuple(seen)


@dataclass
class _Task:
    substitutions: list
    equalities: list
    nonzero: list            # Poly assumptions, current coordinates
    status: str = "pending"  # pending | unresolved


def _subs_coeff(c, name, expr):
    if isinstance(c, Poly):
        return c.subs({name: expr})
    return c


def _apply_substitution(phi, nonzero, name, expr):
    """Push one solved equality into the family and the assumption set.

    Returns (phi', nonzero') or None when an assumption collapses to zero
    (the branch is empty)."""
    phi2 = phi.map_coeffs(lambda c: _subs_coeff(c, name, expr))
    out = []
    for f in nonzero:
        f2 = f.subs({name: expr})
        if f2.is_constant():
            if f2.constant_value() == 0:
                return None
            continue
        f2 = f2.normalized()
        if f2 not in out:
            out.append(f2)
    return phi2, out


def _solve_linear(f):
    """Try to solve the irreducible equality f = 0 for one parameter that
    appears linearly with a constant coefficient; prefer later parameters."""
    names = sorted(f.variables(), key=lambda n: f.ring.index[n], reverse=True)
    for name in names:
        expr = f.linear_solve(name)
        if expr is not None:
            return name, expr
    return None


def _run_once(family, task, factors):
    """One complete parametric run under the task's assumptions; factors is
    the factorization memo of the whole stratification."""
    phi = family.phi
    nonzero = list(family.base_nonzero)
    for name, expr in task.substitutions:
        applied = _apply_substitution(phi, nonzero, name, expr)
        if applied is None:
            return None
        phi, nonzero = applied
    for f in task.nonzero:
        if f not in nonzero:
            nonzero.append(f)
    oracle = ConstraintOracle(nonzero, factors)
    sb = standard_basis_of_ring(phi, gamma=family.gamma, oracle=oracle)
    entries = algorithm1_core(sb, oracle=oracle)
    lam = assemble_lambda(entries, family.gamma)
    minimal = tuple(sorted(e.value for e in entries if e.minimal))
    return lam, minimal, tuple(nonzero)


def _sample_witness(family, stratum, rng, tries=60):
    """Full rational point in the stratum: sample the free parameters,
    back-substitute the solved equalities newest-first, check the
    constraints."""
    solved = {name for name, _ in stratum.substitutions}
    pool = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
    for _ in range(tries):
        point = {n: rng.choice(pool) for n in family.ring.names if n not in solved}
        try:
            for name, expr in reversed(stratum.substitutions):
                point[name] = expr.eval(point)
        except KeyError:
            continue
        if stratum.contains(point):
            return point
    return None


def stratify(gamma, max_splits=60, seed=0):
    """Partition the normal-form family of gamma into strata, one Lambda each.

    Splits happen on irreducible factors of undecidable leading
    coefficients: one child per factor set to zero (earlier factors kept
    nonzero), plus a generic child with every factor nonzero.  Equalities
    that are not linear in any single parameter leave the child unresolved
    rather than guessed, and so does a stratum in which no rational
    witness is found.  Parametric runs return values only; each resolved
    stratum's witness is re-checked by a concrete run.
    """
    family = normal_form_family(gamma)
    gamma = family.gamma
    rng = random.Random(seed)
    factors = {}  # Poly -> irreducible factors, for this call only

    queue = [_Task([], [], [])]
    strata = []
    splits = 0
    while queue:
        task = queue.pop(0)
        if task.status == "unresolved" or splits > max_splits:
            strata.append(Stratum(tuple(task.equalities),
                                  tuple(task.nonzero),
                                  tuple(task.substitutions),
                                  None, None, "unresolved"))
            continue
        try:
            result = _run_once(family, task, factors)
        except SplitNeeded as split:
            splits += 1
            for j, f in enumerate(split.unknown):
                child = _Task(list(task.substitutions),
                              task.equalities + [f],
                              task.nonzero + list(split.unknown[:j]))
                solved = _solve_linear(f)
                if solved is None:
                    child.status = "unresolved"
                else:
                    child.substitutions.append(solved)
                queue.append(child)
            queue.append(_Task(list(task.substitutions),
                               list(task.equalities),
                               task.nonzero + list(split.unknown)))
            continue
        if result is None:
            continue  # contradictory branch: an assumption became zero
        lam, minimal, nonzero_final = result
        stratum = Stratum(tuple(task.equalities), nonzero_final,
                          tuple(task.substitutions), lam, None, "resolved",
                          minimal_values=minimal)
        stratum.witness = _sample_witness(family, stratum, rng)
        if stratum.witness is None:
            # A Lambda is reported only with a point that confirms it.
            stratum.lambda_set, stratum.minimal_values = None, ()
            stratum.status = "unresolved"
        else:
            concrete = family.member(stratum.witness)
            check = algorithm1_lambda(concrete, gamma=gamma).lambda_set
            if check != lam:
                raise DomainError(
                    f"stratum witness disagrees with the parametric run: "
                    f"{check} vs {lam}")
        strata.append(stratum)

    return StratificationReport(gamma, family, tuple(strata))
