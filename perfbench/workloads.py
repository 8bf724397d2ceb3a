"""The three library workloads: seeded inputs, the operations one round
runs, and how each answer is checked.

A round calls every operation once, in a fixed order.  Inputs come from
the seed (and, for the fixed parts named below, from fixed seeds), so the
same seed gives the same rounds.  Answers are turned into plain data and
checked by `checks`, which does not import branchforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable

from branchforms import (BranchParametrization, NumericalSemigroup, ValueSet,
                         decider, forms, jsonio, strata)

import checks

# lambda-corpus: classes drawn afresh from the seed, DRAWS branches each.
LAMBDA_CLASSES = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (3, 7), (4, 6, 13),
                  (4, 6, 15), (4, 6, 17), (4, 6, 19), (4, 6, 21), (4, 7),
                  (4, 9), (4, 10, 21), (5, 7), (5, 8), (6, 9, 19), (6, 9, 23),
                  (6, 14, 45), (7, 9), (6, 13)]
DRAWS = 3
# One branch of each frontier class, drawn from a fixed seed: the cost of a
# single such branch varies 1.1-2.0 s with its tail, which would swamp the
# seed-to-seed spread of the rest of the round.
FRONTIER_CLASSES = [(10, 15, 33), (8, 12, 26, 53), (8, 12, 30, 61)]
RANDOM_FORMS = 20

STRATIFY_CLASSES = [(6, 9, 19), (6, 9, 23), (6, 14, 45), (7, 9), (6, 13)]
POINTS = 6

# decide-mix: genuine Lambda of seeded branches, (class, count).
DECIDE_GENUINE = [((6, 9, 19), 1), ((6, 9, 23), 2), ((5, 7), 3),
                  ((4, 6, 13), 2), ((3, 4), 2)]
# Genuine Lambda of fixed branches that decide rejects on every run: for
# v0 even and v1 odd, valueset.epsilon_eta takes eps_1 = 2 instead of 1.
EPSILON_ETA_FAULT = [((4, 7), 2), ((4, 9), 2)]
FAULT_SIGNATURE = ("no", "eta-or-bresinsky-failed")


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    key: Callable[[Any], Any]
    known_fault: tuple = None   # (verdict, stage) a named fault produces


# -- plain data for the checks ---------------------------------------------------


def plain_branch(phi):
    return phi.coords[0][0][0], dict(phi.coords[1])


def plain_set(vs):
    return tuple(vs.elements), vs.cofinal


def plain_entries(basis):
    return [(e.value, [dict(p.terms) for p in e.form.coeffs])
            for e in basis.entries]


def plain_poly(p):
    return dict(p.terms), p.ring.names


def plain_report(report):
    fam = report.family
    gens = report.gamma.generators
    family = {"v0": gens[0], "v1": gens[1], "exponents": fam.exponents,
              "fixed": dict(fam.fixed), "names": fam.ring.names}
    out = []
    for s in report.strata:
        out.append({"eq": [plain_poly(f) for f in s.equalities],
                    "neq": [plain_poly(f) for f in s.nonzero],
                    "status": s.status,
                    "lam": plain_set(s.lambda_set) if s.lambda_set else None,
                    "witness": s.witness})
    return family, out


# -- inputs ------------------------------------------------------------------------


def characteristic_of(gens):
    """Characteristic exponents of a plane-branch semigroup (Zariski's
    formula solved for beta_i)."""
    es = [gens[0]]
    for v in gens[1:]:
        es.append(gcd(es[-1], v))
    beta = [gens[0]]
    for i in range(1, len(gens)):
        n_prev = es[i - 2] // es[i - 1] if i >= 2 else 1
        beta.append(gens[i] - n_prev * gens[i - 1] + beta[i - 1])
    return beta


def random_branch(gens, rng, density=0.4):
    """Coefficients 1..5 at the characteristic exponents, then a random
    rational tail up to the conductor + 1 (above the last characteristic
    exponent, so the semigroup stays gens)."""
    beta = characteristic_of(gens)
    terms = {b: Fraction(rng.randint(1, 5)) for b in beta[1:]}
    for i in range(beta[-1] + 1, checks.conductor(gens) + 2):
        if rng.random() < density:
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if c:
                terms[i] = c
    return BranchParametrization.plane(beta[0], terms)


def _lambda_key(basis):
    return (basis.gamma.generators, basis.lambda_set,
            tuple(sorted(basis.minimal_values)))


def certified_lambda(phi):
    """Concrete Lambda of phi from the program, certified by the checks."""
    basis = forms.algorithm1_lambda(phi)
    problems = checks.check_lambda(plain_branch(phi), basis.gamma.generators,
                                   plain_set(basis.lambda_set),
                                   plain_entries(basis))
    return plain_set(basis.lambda_set), problems


# -- lambda-corpus ---------------------------------------------------------------------


def lambda_corpus(seed):
    branches = []
    for terms, row in checks.RUNNING_EXAMPLE:
        branches.append(("running", BranchParametrization.plane(6, terms), row))
    for gens in FRONTIER_CLASSES:
        rng = checks.new_rng("frontier", gens)
        branches.append(("frontier", random_branch(gens, rng), None))
    rng = checks.new_rng(seed, "lambda-corpus")
    for gens in LAMBDA_CLASSES:
        for _ in range(DRAWS):
            branches.append(("seeded", random_branch(gens, rng), None))

    ops = []
    for k, (kind, phi, row) in enumerate(branches):
        n, y = plain_branch(phi)
        gens = checks.semigroup_generators(n, list(y))
        label = f"lambda {kind} <{','.join(map(str, gens))}> #{k}"
        check_rng = checks.new_rng(seed, "forms", k)

        def check(basis, phi=phi, row=row, check_rng=check_rng):
            branch = plain_branch(phi)
            lam = plain_set(basis.lambda_set)
            problems = checks.check_lambda(
                branch, basis.gamma.generators, lam, plain_entries(basis),
                check_rng, RANDOM_FORMS)
            if row is not None:
                got = checks.lambda_minus_gamma(*branch, lam)
                if got != row:
                    problems.append(f"row {got}, expected {row}")
            return problems

        ops.append(Op(label, lambda phi=phi: forms.algorithm1_lambda(phi),
                      check, _lambda_key))
    return ops


# -- stratify-classes ---------------------------------------------------------------------


def check_report(report, gens, seed):
    family, strata_plain = plain_report(report)
    problems = []
    resolved = [s for s in strata_plain if s["status"] == "resolved"]
    if not resolved:
        problems.append("no resolved stratum")
    for i, s in enumerate(strata_plain):
        if s["status"] != "resolved":
            continue
        bad = checks.check_witness(family, s)
        if bad:
            problems.extend(f"stratum {i}: {b}" for b in bad)
            continue
        n, y = checks.family_member(family, s["witness"])
        lam, bad = certified_lambda(BranchParametrization.plane(n, y))
        problems.extend(f"stratum {i} witness: {b}" for b in bad)
        if lam != s["lam"]:
            problems.append(f"stratum {i}: witness Lambda {lam} != {s['lam']}")
    rng = checks.new_rng(seed, "points", gens)
    for _ in range(POINTS):
        point = checks.random_point(rng, family["names"])
        homes = checks.home_strata(strata_plain, point)
        if len(homes) != 1:
            problems.append(f"point {point} lies in strata {homes}")
            continue
        s = strata_plain[homes[0]]
        if s["status"] != "resolved":
            continue
        n, y = checks.family_member(family, point)
        lam, bad = certified_lambda(BranchParametrization.plane(n, y))
        problems.extend(f"point Lambda: {b}" for b in bad)
        if lam != s["lam"]:
            problems.append(f"point Lambda {lam} != stratum {homes[0]} {s['lam']}")
    if tuple(gens) == (6, 9, 19):
        rows = set()
        for s in resolved:
            rows.add(checks.lambda_minus_gamma(
                *checks.family_member(family, s["witness"]), s["lam"]))
        expected = {row for _, row in checks.RUNNING_EXAMPLE}
        if rows != expected:
            problems.append(f"<6,9,19> rows {sorted(rows)} != {sorted(expected)}")
    return problems


def _report_key(report):
    return json.dumps(jsonio.report_to_json(report), sort_keys=True)


def stratify_classes(seed):
    ops = []
    for gens in STRATIFY_CLASSES:
        label = f"stratify <{','.join(map(str, gens))}>"
        ops.append(Op(label,
                      lambda gens=gens: strata.stratify(NumericalSemigroup(gens)),
                      lambda rep, gens=gens: check_report(rep, gens, seed),
                      _report_key))
    return ops


# -- decide-mix -----------------------------------------------------------------------


def _decision_key(d):
    return json.dumps(jsonio.decision_to_json(d), sort_keys=True)


def _plain_decision(d):
    return d.verdict, d.stage, d.evidence


def _check_yes(d, lam, gens):
    """verdict yes at matched, candidate Gamma = gens, and the witness's
    certified concrete Lambda equal to lam."""
    problems = checks.check_decision(_plain_decision(d), "yes", "matched")
    if problems:
        return problems
    if d.gamma is None or d.gamma.generators != tuple(gens):
        problems.append(f"gamma {d.gamma} != {gens}")
    got, bad = certified_lambda(d.witness)
    problems.extend(f"witness: {b}" for b in bad)
    if got != lam:
        problems.append(f"witness Lambda {got} != {lam}")
    return problems


def decide_mix(seed):
    ops = []

    def add(label, lam, check, known_fault=None):
        vs = ValueSet(lam[0], lam[1])
        ops.append(Op(label, lambda vs=vs: decider.decide(vs), check,
                      _decision_key, known_fault))

    for name, lam, verdict, stage, frags in checks.RUNNING_DECISIONS:
        def check(d, lam=lam, verdict=verdict, stage=stage, frags=frags):
            if verdict == "yes":
                return _check_yes(d, lam, (6, 9, 19))
            return checks.check_decision(_plain_decision(d), verdict, stage, frags)
        add(f"decide {name}", lam, check)

    rng = checks.new_rng(seed, "decide-mix")
    genuine = []
    for gens, count in DECIDE_GENUINE:
        for _ in range(count):
            genuine.append((gens, random_branch(gens, rng), None))
    for gens, count in EPSILON_ETA_FAULT:
        fixed_rng = checks.new_rng("epsilon_eta", gens)
        for _ in range(count):
            genuine.append((gens, random_branch(gens, fixed_rng),
                            FAULT_SIGNATURE))

    perturbations = []
    for k, (gens, phi, fault) in enumerate(genuine):
        lam, source_problems = certified_lambda(phi)

        def check(d, lam=lam, gens=gens, source_problems=source_problems):
            problems = [f"source branch: {p}" for p in source_problems]
            return problems + _check_yes(d, lam, gens)
        add(f"decide genuine <{','.join(map(str, gens))}> #{k}", lam, check,
            fault)
        if fault is None:
            perturbations.append((gens, k, checks.perturb(lam, rng)))

    for gens, k, lam in perturbations:
        add(f"decide perturbed <{','.join(map(str, gens))}> #{k}", lam,
            lambda d: checks.check_decision(_plain_decision(d), "no"))
    return ops


WORKLOADS = {
    "lambda-corpus": lambda_corpus,
    "stratify-classes": stratify_classes,
    "decide-mix": decide_mix,
}


def fault_matches(op, result):
    """True when a known-fault op failed exactly as its fault predicts."""
    return (op.known_fault is not None and result is not None
            and (result.verdict, result.stage) == op.known_fault)
