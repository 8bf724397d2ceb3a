"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py      (from the root of a checkout)

Each check must pass the program's real answer and reject a deliberately
wrong one: a Lambda with one value added or one removed, a flipped
verdict, a witness moved off its stratum, and wrong CLI replies.  Exits 0
when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from branchforms import (BranchParametrization, NumericalSemigroup,  # noqa: E402
                         ValueSet, forms, strata)
from branchforms.decider import Decision  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def case(name, problems, should_pass):
    ok = (not problems) == should_pass
    print(f"{'ok  ' if ok else 'FAIL'} {name}: "
          f"{'passed' if not problems else problems[0]}")
    if not ok:
        FAILURES.append(name)


def lambda_cases():
    terms, row = checks.RUNNING_EXAMPLE[2]
    phi = BranchParametrization.plane(6, terms)
    basis = forms.algorithm1_lambda(phi)
    branch = workloads.plain_branch(phi)
    gamma = basis.gamma.generators
    entries = workloads.plain_entries(basis)
    lam = workloads.plain_set(basis.lambda_set)
    rng = checks.new_rng("selftest")
    case("Lambda of the running example", checks.check_lambda(
        branch, gamma, lam, entries, rng, 20), True)

    members = checks.members_below(lam, 42)
    added = checks.value_set(members | {min(set(range(row[0], 42)) - members)},
                             42)
    removed = checks.value_set(members - {row[0]}, 42)
    case("Lambda with one value added", checks.check_lambda(
        branch, gamma, added, entries), False)
    case("Lambda with one value removed", checks.check_lambda(
        branch, gamma, removed, entries), False)
    wrong_entry = [(v + 1, f) if v == row[0] else (v, f) for v, f in entries]
    case("certificate with a wrong value", checks.check_lambda(
        branch, gamma, lam, wrong_entry), False)


def decision_cases():
    ops = {op.label: op for op in workloads.decide_mix(0)}
    for label in ("decide L1", "decide L4"):
        op = ops[label]
        d = op.call()
        case(f"{label} as answered", op.check(d), True)
        flipped = "yes" if d.verdict == "no" else "no"
        case(f"{label} with its verdict flipped",
             op.check(dataclasses.replace(d, verdict=flipped)), False)
    genuine = next(op for label, op in ops.items()
                   if label.startswith("decide genuine <5,7>"))
    d = genuine.call()
    case("genuine <5,7> as answered", genuine.check(d), True)
    other = BranchParametrization.plane(5, {7: Fraction(1)})
    case("genuine <5,7> with another witness",
         genuine.check(dataclasses.replace(d, witness=other)), False)
    perturbed = next(op for label, op in ops.items()
                     if label.startswith("decide perturbed"))
    d = perturbed.call()
    case("perturbation as answered", perturbed.check(d), True)
    case("perturbation answered yes", perturbed.check(
        Decision("yes", "matched", "", None, None)), False)


def stratum_cases():
    gens = (6, 9, 19)
    rep = strata.stratify(NumericalSemigroup(gens))
    case("stratify <6,9,19> as answered",
         workloads.check_report(rep, gens, 0), True)

    k, stratum = next((i, s) for i, s in enumerate(rep.strata)
                      if s.substitutions)
    name = stratum.substitutions[-1][0]
    moved = dict(stratum.witness)
    moved[name] += 1
    off = dataclasses.replace(stratum, witness=moved)
    case("witness moved off its stratum", workloads.check_report(
        dataclasses.replace(rep, strata=rep.strata[:k] + (off,)
                            + rep.strata[k + 1:]), gens, 0), False)

    lam = stratum.lambda_set
    gamma = NumericalSemigroup(gens)
    extra = next(z for z in range(1, lam.cofinal) if z not in lam and z > 6)
    for label, wrong in (
            ("added", ValueSet(lam.elements + (extra,), lam.cofinal)),
            ("removed", ValueSet(tuple(z for z in lam.elements
                                       if z != max(z for z in lam.elements
                                                   if z not in gamma)),
                                 lam.cofinal))):
        bad = dataclasses.replace(stratum, lambda_set=wrong)
        case(f"stratum Lambda with one value {label}", workloads.check_report(
            dataclasses.replace(rep, strata=rep.strata[:k] + (bad,)
                                + rep.strata[k + 1:]), gens, 0), False)


def cli_cases():
    replies = {
        "semigroup": {"generators": [6, 9, 19], "conductor": 42},
        "eval-form": {"value": 13},
        "recover-gamma": {"covered": True, "generators": [6, 9, 19]},
    }
    wrong = {
        "semigroup": {"generators": [6, 9, 19], "conductor": 41},
        "eval-form": {"value": 12},
        "recover-gamma": {"covered": True, "generators": [6, 9, 23]},
    }
    checkers = {args[0]: check for _, args, check in run.CLI_CALLS}
    for name, doc in replies.items():
        case(f"cli {name} reply", run._reply_problems(
            0, json.dumps(doc), checkers[name]), True)
        case(f"cli {name} wrong reply", run._reply_problems(
            0, json.dumps(wrong[name]), checkers[name]), False)
    case("cli reply with two documents", run._reply_problems(
        0, json.dumps(replies["eval-form"]) * 2, checkers["eval-form"]), False)
    case("cli reply with exit code 1", run._reply_problems(
        1, json.dumps(replies["eval-form"]), checkers["eval-form"]), False)


def main():
    lambda_cases()
    decision_cases()
    stratum_cases()
    cli_cases()
    print(f"{len(FAILURES)} self-test case(s) failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
