"""Decide whether a cofinite set L of positive integers is the value set
of 1-forms of some plane branch.

Three gates, cheapest first: (1) L must be covered by its Apery set;
(2) the candidate generators u_i = max(B_i(L)) must satisfy the numerical
constraints of a plane-branch semigroup (eta_{i-1} u_{i-1} < u_i; every
eta_i >= 2 already, and every B_i has its full size, see
`valueset._build_profile`); (3) the split tree of <u_0, ..., u_rho> is
walked with L as its target (`strata.find_witness`): each parametric run
stops at the first value where its Lambda leaves L, and the answer is
"yes" at the first run that ends at L, with a witness drawn from the seed
and checked once by a concrete run.  Gates 1 and 2 read L's Apery
profile, computed once by the first of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branch import BranchParametrization
from .errors import DomainError, ValidationError
from .forms import algorithm1_lambda
from .semigroup import NumericalSemigroup, is_plane_branch_semigroup
# stratify stays importable as decider.stratify, the name under which
# tracing binds the stratification a decision used to run.
from .strata import find_witness, stratify  # noqa: F401
from .valueset import ValueSet, b_sets, epsilon_eta, is_covered


@dataclass(frozen=True)
class Decision:
    verdict: str              # "yes" | "no" | "unresolved"
    stage: str                # not-covered | eta-or-bresinsky-failed |
                              # no-matching-stratum | matched
    evidence: str
    witness: object = None    # BranchParametrization for "yes"
    gamma: object = None      # candidate semigroup, when gate 1 passed


def _yes(evidence, witness, expected, gamma):
    """Final soundness check: the witness must reproduce L concretely."""
    lam = algorithm1_lambda(witness).lambda_set
    if lam != expected:
        raise DomainError(
            f"witness validation failed: computed {lam}, expected {expected}")
    return Decision("yes", "matched", evidence, witness, gamma)


def decide(L, max_splits=60, seed=0):
    """L is a ValueSet, or a finite iterable of positive integers read as
    its elements together with every integer above their maximum."""
    if not isinstance(L, ValueSet):
        elements = tuple(L)
        if not elements:
            raise ValidationError("an empty set of integers is not cofinite")
        L = ValueSet(elements, max(elements) + 1)

    covered, missing = is_covered(L, with_witness=True)
    if not covered:
        return Decision("no", "not-covered",
                        f"{missing} lies on an Apery progression mod "
                        f"{L.min()} but not in L")

    _eps, eta, rho = epsilon_eta(L)
    if rho == 0:
        # min(L) = 1, so L is all positive integers: the smooth branch.
        witness = BranchParametrization.plane(1, {})
        return _yes("L is the full set of positive integers",
                    witness, L, NumericalSemigroup((1,)))

    u = tuple(max(b) for b in b_sets(L))

    for i in range(1, rho + 1):
        if eta[i - 1] * u[i - 1] >= u[i]:
            return Decision(
                "no", "eta-or-bresinsky-failed",
                f"{u[i]} = max(B_{i}(L)) < eta_{i - 1}*max(B_{i - 1}(L)) "
                f"= {eta[i - 1] * u[i - 1]}")

    ok, reason = is_plane_branch_semigroup(u)
    if not ok:
        return Decision("no", "eta-or-bresinsky-failed", reason)
    gamma = NumericalSemigroup(u)

    witness, unresolved = find_witness(gamma, L, max_splits=max_splits,
                                       seed=seed)
    if witness is not None:
        ev = ("matched a stratum of <" +
              ", ".join(map(str, gamma.generators)) + ">")
        return _yes(ev, witness, L, gamma)
    if unresolved:
        return Decision(
            "unresolved", "no-matching-stratum",
            "no resolved stratum matches and some strata are unresolved",
            gamma=gamma)
    return Decision(
        "no", "no-matching-stratum",
        "L is none of the attainable value sets for <" +
        ", ".join(map(str, gamma.generators)) + ">",
        gamma=gamma)
