"""Parametric runs of the 1-form standard basis over a whole topological
class, with case splitting.

A normal-form family (t^{v0}, t^{v1} + sum a_i t^i) carries every analytic
type with a fixed value semigroup.  Running the standard-basis completion
with polynomial coefficients hits leading coefficients whose vanishing
depends on the parameters; each such coefficient splits the parameter
space into a vanishing locus and its complement.  A run goes on as the
complement (the generic child) and records the split; each vanishing
child runs again from the ring basis, on its parent's substituted family
with its own equality substituted.  The leaves of the split tree are the
strata, each with one value set Lambda and a rational witness.  The runs
make no zero test: their splits are read off them when they end.
`stratify` walks the whole tree; `find_witness` walks it towards one
target Lambda, stopping each run where its Lambda leaves the target.
"""

from __future__ import annotations

import heapq
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


class ConstraintOracle:
    """The nonzero assumptions of one run and the splits that made them.

    `is_zero(c)` reads a series numerator and returns nothing: an int
    decides itself, and a Poly (with a non-constant term) whose
    irreducible factors are not all assumed nonzero is a case split, whose
    unknown factors it appends to the ordered `nonzero` list and, as a
    tuple, to `splits`.  A run tests numerators syntactically and goes on
    as the generic child of every split, as a rerun of that child would,
    so `_run_once` hands the oracle its coefficients after the run.
    `factors` memoizes `irreducible_factors` by `c.normalized()` (a
    numerator is a positive integer multiple of its coefficient), one dict
    for every run of a single `stratify` call.
    """

    def __init__(self, nonzero=(), factors=None):
        self.nonzero = list(nonzero)
        self.splits = []
        self.factors = {} if factors is None else factors

    def is_zero(self, c):
        if not isinstance(c, Poly):
            return
        c = c.normalized()
        factors = self.factors.get(c)
        if factors is None:
            factors = self.factors[c] = irreducible_factors(c)
        unknown = tuple(f for f in factors if f not in self.nonzero)
        if unknown:
            self.nonzero.extend(unknown)
            self.splits.append(unknown)


@dataclass(frozen=True)
class NormalFormFamily:
    """(t^{v0}, t^{v1} + sum_{i in E} a_i t^i) with some coefficients pinned."""

    gamma: NumericalSemigroup
    ring: Ring
    phi: BranchParametrization
    exponents: tuple          # E, sorted
    fixed: tuple              # ((exponent, Fraction), ...) pinned coefficients
    base_nonzero: tuple       # Poly generators that must not vanish

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
        return NormalFormFamily(gamma, ring, phi, (), (), ())

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

    ring = Ring(f"a{i}" for i in E if i not in fixed)
    y_terms = {v[1]: Fraction(1)}
    for i in E:
        y_terms[i] = ring.constant(fixed[i]) if i in fixed else ring.gen(f"a{i}")
    phi = BranchParametrization.plane(v[0], y_terms)
    base_nonzero = tuple(ring.gen(f"a{b[k]}").normalized() for k in range(3, g + 1))
    return NormalFormFamily(gamma, ring, phi, E,
                            tuple(sorted(fixed.items())), base_nonzero)


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
    """A node of the split tree.  phi and base are the family and its base
    assumptions with every substitution but the newest applied: those of
    the parent's run.  `_run_once` applies the newest when it takes the
    task up."""

    substitutions: list
    equalities: list
    nonzero: list            # Poly assumptions, current coordinates
    phi: BranchParametrization
    base: list


def _apply_substitution(phi, nonzero, name, expr):
    """Push one solved equality into the family and the assumption set.

    Returns (phi', nonzero') or None when an assumption collapses to zero
    (the branch is empty)."""
    phi2 = phi.map_coeffs(
        lambda c: c.subs({name: expr}) if isinstance(c, Poly) else c)
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


def _run_once(family, task, factors, target=None):
    """One complete parametric run under the task's assumptions, going on
    as the generic child of every split it meets; factors is the
    factorization memo of the whole walk.

    Taking the task up applies its newest substitution to task.phi and
    task.base, in place, so that its equality children start from them.

    The run cancels every other position whether or not it vanishes, so
    its splits are read off it when it ends, in the order it met them:
    the lead of each semiroot pullback (position v_k), then of each kept
    entry (position value - 1).

    Returns (splits, result): the unknown factors of each split in the
    order met, and (Lambda, minimal values, final nonzero assumptions).
    The result is None when an assumption becomes zero (the branch is
    empty; no split is met then) or when Lambda is not the target.  That
    is exact for a run stopped early (see `forms._Completion`): its part in
    [1, m] is final and differs from the target's, and so does the Lambda
    of the entries kept so far, whose splits are still returned."""
    if task.substitutions:
        applied = _apply_substitution(task.phi, task.base,
                                      *task.substitutions[-1])
        if applied is None:
            return (), None
        task.phi, task.base = applied
    nonzero = list(task.base)
    for f in task.nonzero:
        if f not in nonzero:
            nonzero.append(f)
    sb = standard_basis_of_ring(task.phi, gamma=family.gamma)
    entries = algorithm1_core(sb, target=target)
    oracle = ConstraintOracle(nonzero, factors)
    for h, v in zip(sb.pullbacks[1:], sb.values[1:]):
        oracle.is_zero(h.coeffs[v])
    for e in entries[len(sb.pullbacks):]:
        oracle.is_zero(e.pull.coeffs[e.value - 1])
    lam = assemble_lambda(entries, family.gamma)
    if target is not None and lam != target:
        return tuple(oracle.splits), None
    minimal = tuple(sorted(e.value for e in entries if e.minimal))
    return tuple(oracle.splits), (lam, minimal, tuple(oracle.nonzero))


_WITNESS_TRIES = 60   # random points drawn per stratum before giving up


def _sample_witness(family, stratum, rng):
    """Full rational point in the stratum: sample the free parameters,
    back-substitute the solved equalities newest-first, check the
    constraints.  Each solved expression is free of the names solved
    before it, whose substitutions were applied to the run that met its
    equality, so newest-first reads only names already in the point."""
    solved = {name for name, _ in stratum.substitutions}
    pool = [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
    for _ in range(_WITNESS_TRIES):
        point = {n: rng.choice(pool) for n in family.ring.names if n not in solved}
        for name, expr in reversed(stratum.substitutions):
            point[name] = expr.eval(point)
        if stratum.contains(point):
            return point
    return None


def _unresolved(task):
    return Stratum(tuple(task.equalities), tuple(task.nonzero),
                   tuple(task.substitutions), None, None, "unresolved")


def _walk(family, max_splits, target=None):
    """The leaves of the split tree of family, as (depth, path, Stratum)
    with no witness, in the order their runs end.

    Splits happen on irreducible factors of undecidable leading
    coefficients: one child per factor set to zero (earlier factors kept
    nonzero), plus a generic child with every factor nonzero.  A run goes
    on as the generic child of each split it meets, so only the equality
    children run again, from the ring basis.  A child starts from its
    parent's substituted family and base assumptions and applies only its
    own substitution, when it is taken up; an assumption that becomes zero
    there empties the branch.
    Equalities that are not linear in any single parameter leave the child
    unresolved rather than guessed.

    The split budget counts splits and is checked when a task is taken up:
    once more than max_splits splits have been met, every task still
    waiting becomes an unresolved stratum, but a run already under way
    finishes its generic chain.  Tasks are taken up in breadth-first order
    of the split tree: by depth, then by the path of child indices, the
    generic child last among its siblings.

    With a target value set, each run stops at the first popped
    S-process value m at which its Lambda leaves the target (see
    `forms._Completion`), and the walk yields, besides unresolved leaves,
    only the leaves whose Lambda is the target (see `_run_once`).  No
    leaf whose Lambda is the target is lost:

    - Prefix finality.  The completion pops S-processes in increasing m,
      and once m is popped the part of Lambda in [1, m] is final.  Had
      the run not stopped, it would go on only as the generic child of
      the splits still to come, so it cannot end at the target.
    - Later splits share the prefix.  An equality child of a split the
      run would meet after that pop repeats, under its substitution, the
      run's cancellations up to that split with the same nonzero leading
      coefficients: its assumptions contain every factor assumed before
      the split, and substitution is a ring homomorphism.  So its Lambda
      has the same part in [1, m], and neither it nor any leaf below it
      ends at the target; the stopped run never meets those splits.

    The equality children of the splits met before the stop still queue.
    """
    factors = {}  # normalized Poly -> irreducible factors, for this walk only
    root = _Task([], [], [], family.phi, list(family.base_nonzero))
    tasks = [(0, (), root)]   # heap of (depth, path, task)
    splits = 0
    while tasks:
        _depth, path, task = heapq.heappop(tasks)
        if splits > max_splits:
            yield len(path), path, _unresolved(task)
            continue
        met, result = _run_once(family, task, factors, target)
        splits += len(met)
        nonzero = list(task.nonzero)
        for unknown in met:
            for j, f in enumerate(unknown):
                child = _Task(list(task.substitutions),
                              task.equalities + [f],
                              nonzero + list(unknown[:j]),
                              task.phi, task.base)
                key = (len(path) + 1, path + (j,))
                solved = _solve_linear(f)
                if solved is None:
                    yield (*key, _unresolved(child))
                else:
                    child.substitutions.append(solved)
                    heapq.heappush(tasks, (*key, child))
            nonzero += unknown
            path += (len(unknown),)
        if result is None:
            continue  # an empty branch, or one whose Lambda left the target
        lam, minimal, nonzero_final = result
        yield (len(path), path,
               Stratum(tuple(task.equalities), nonzero_final,
                       tuple(task.substitutions), lam, None,
                       "resolved", minimal_values=minimal))


def stratify(gamma, max_splits=60, seed=0):
    """Partition the normal-form family of gamma into strata, one Lambda each.

    The strata are the leaves of the whole split tree (see `_walk`),
    listed in its breadth-first order: by depth, then by the path of
    child indices.  Parametric runs return values only; each resolved
    stratum's witness is then drawn in that order from one
    `random.Random(seed)` and re-checked by a concrete run.  A stratum in
    which no rational witness is found is unresolved.
    """
    family = normal_form_family(gamma)
    gamma = family.gamma
    rng = random.Random(seed)
    leaves = sorted(_walk(family, max_splits), key=lambda leaf: leaf[:2])
    strata = tuple(stratum for _depth, _path, stratum in leaves)
    for stratum in strata:
        if stratum.status != "resolved":
            continue
        stratum.witness = _sample_witness(family, stratum, rng)
        if stratum.witness is None:
            # A Lambda is reported only with a point that confirms it.
            stratum.lambda_set, stratum.minimal_values = None, ()
            stratum.status = "unresolved"
            continue
        # The concrete run reads Gamma off the witness, so it checks both.
        check = algorithm1_lambda(family.member(stratum.witness))
        if (check.gamma, check.lambda_set) != (gamma, stratum.lambda_set):
            raise DomainError(
                f"stratum witness disagrees with the parametric run: "
                f"{check.lambda_set} vs {stratum.lambda_set}")

    return StratificationReport(gamma, family, strata)


def find_witness(gamma, target, max_splits=60, seed=0):
    """A branch of gamma's normal-form family whose Lambda is the value set
    target, found by the pruned walk of the split tree (see `_walk`).

    Returns (witness, unresolved).  The witness is drawn from a fresh
    `random.Random(seed)` in the first stratum, in walk order, whose
    Lambda is target and in which a rational point is found, so it is a
    function of (gamma, target, max_splits, seed) alone; it is not yet
    checked by a concrete run, which is the caller's.  witness is None
    when no such stratum exists; unresolved then says whether some leaf
    met (a nonlinear equality, the spent split budget, a matching stratum
    with no rational point) left the answer open.
    """
    family = normal_form_family(gamma)
    unresolved = False
    for _depth, _path, stratum in _walk(family, max_splits, target):
        if stratum.status == "resolved":
            point = _sample_witness(family, stratum, random.Random(seed))
            if point is not None:
                return family.member(point), unresolved
        unresolved = True
    return None, unresolved
