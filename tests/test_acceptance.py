"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion; the assertions keep
pytest honest about the same condition.
"""

import random
import time
from fractions import Fraction

import pytest

from branchforms import (BranchParametrization, NumericalSemigroup, OneForm,
                         Poly, ValueSet, algorithm1_lambda, apery_set,
                         coordinate_ring, decide, differential,
                         eval_form_order, eval_form_orders_multi,
                         gamma_star_apery, recover_gamma, semigroup_of,
                         stratify)
from branchforms.series import AbovePrecision

from conftest import CORPUS_GENS, random_branch

X, Y = coordinate_ring(2).gens()

ROWS_6919 = [
    (16, 22, 26, 29, 32, 35, 41),
    (16, 22, 26, 32, 35, 41),
    (16, 22, 29, 32, 35, 41),
    (16, 22, 29, 35, 41),
]

L1 = ValueSet((6, 9, 12, 15, 16, 17, 18, 21, 22, 24, 25), 27)
L2 = ValueSet((6, 9, 12, 15, 16, 17, 18, 21, 22, 23, 24, 25), 27)
L3 = ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22, 23, 24, 25), 27)
L4 = ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22, 24, 25), 27)


def report(num, desc, ok):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def big_corpus():
    """100 deterministic random branches spanning the corpus semigroups,
    with their computed form-value bases."""
    rng = random.Random(777)
    out = []
    for k in range(100):
        gens = CORPUS_GENS[k % len(CORPUS_GENS)]
        phi = random_branch(gens, rng)
        out.append((gens, phi, algorithm1_lambda(phi)))
    return out


def test_criterion_1_table_reproduction():
    rows = [
        {9: 1, 10: 1},
        {9: 1, 10: 1, 11: Fraction(29, 18)},
        {9: 1, 10: 1, 11: Fraction(-1, 2)},
        {9: 1, 10: 1, 11: Fraction(-1, 2), 17: Fraction(1, 38)},
    ]
    start = time.monotonic()
    got = []
    for terms in rows:
        basis = algorithm1_lambda(BranchParametrization.plane(6, terms))
        got.append(tuple(z for z in basis.lambda_set.up_to(42)
                         if z not in basis.gamma))
    elapsed = time.monotonic() - start
    ok = got == ROWS_6919 and elapsed < 5.0
    report(1, f"four <6,9,19> parametrizations give the four Lambda rows "
              f"bit-exactly in {elapsed:.2f}s (< 5s)", ok)


def test_criterion_2_stratification():
    gamma = NumericalSemigroup((6, 9, 19))
    start = time.monotonic()
    rep = stratify(gamma)
    elapsed = time.monotonic() - start
    rows = {tuple(z for z in lam.up_to(42) if z not in gamma)
            for lam in rep.lambdas}
    witnesses_ok = True
    for s in rep.strata:
        phi = rep.family.member(s.witness)
        if algorithm1_lambda(phi).lambda_set != s.lambda_set:
            witnesses_ok = False
    ok = (rows == set(ROWS_6919) and len(rep.lambdas) == 4
          and witnesses_ok and elapsed < 60.0)
    report(2, f"stratify(<6,9,19>) yields exactly 4 distinct Lambda matching "
              f"the table, all witnesses cross-validated, in {elapsed:.2f}s "
              f"(< 60s)", ok)


def test_criterion_3_decision_quadruple():
    d1, d2, d3, d4 = decide(L1), decide(L2), decide(L3), decide(L4)
    ok = ((d1.verdict, d1.stage) == ("no", "not-covered") and "23" in d1.evidence
          and (d2.verdict, d2.stage) == ("no", "eta-or-bresinsky-failed")
          and "17" in d2.evidence and "18" in d2.evidence
          and (d3.verdict, d3.stage) == ("no", "no-matching-stratum")
          and (d4.verdict, d4.stage) == ("yes", "matched")
          and algorithm1_lambda(d4.witness).lambda_set == L4)
    report(3, "decide(L1..L4) = (no@not-covered w/ 23, no@gate-2 w/ 17<18, "
              "no@no-matching-stratum, yes w/ validated witness)", ok)


def test_criterion_4_gamma_recovery_roundtrip():
    rng = random.Random(20260823)
    start = time.monotonic()
    failures = []
    for k in range(100):
        gens = CORPUS_GENS[k % len(CORPUS_GENS)]
        phi = random_branch(gens, rng)
        lam = algorithm1_lambda(phi).lambda_set
        if recover_gamma(lam).generators != semigroup_of(phi).generators:
            failures.append(gens)
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    report(4, f"recover_gamma(algorithm1_lambda(phi)) == semigroup_of(phi) "
              f"for 100 random branches ({len(failures)} failures, "
              f"{elapsed:.1f}s < 120s)", ok)


def test_criterion_5_space_curve_values():
    R3 = coordinate_ring(3)
    w = OneForm((Poly(R3, {(0, 1, 0): Fraction(-7)}),
                 Poly(R3, {(1, 0, 0): Fraction(3)}),
                 R3.zero()))
    c1 = BranchParametrization([{6: Fraction(1)},
                                {14: Fraction(1), 17: Fraction(1)},
                                {39: Fraction(1)}])
    c2 = BranchParametrization([{6: Fraction(1)},
                                {14: Fraction(1), 33: Fraction(1)},
                                {23: Fraction(1)}])
    v1 = eval_form_order(c1, w, precision=60)
    v2 = eval_form_order(c2, w, precision=60)
    ok = (v1, v2) == (23, 39)
    report(5, f"space-curve values of 3x dy - 7y dx are ({v1}, {v2}) "
              f"== (23, 39)", ok)


def test_criterion_6_two_branch_tuples():
    f1 = Y * Y - (X * X * Y).scale(Fraction(2)) - X ** 3 + X ** 4
    f2 = Y * Y - X ** 3
    w1 = OneForm((Y.scale(Fraction(3)), X.scale(Fraction(-2))))
    w2 = OneForm((Y.scale(Fraction(3)) + X * X, X.scale(Fraction(-2))))
    p1 = BranchParametrization.plane(2, {3: 1, 4: 1})
    p2 = BranchParametrization.plane(2, {3: 1})
    t1 = eval_form_orders_multi([p1, p2], w1 + differential(f1))
    t2 = eval_form_orders_multi([p1, p2], w2 + differential(f2))
    t3 = eval_form_orders_multi([p1, p2], (w1 + differential(f1)).scale(X))
    ok = (t1, t2, t3) == ((6, 7), (7, 6), (8, 9))
    report(6, f"two-branch value tuples {t1}, {t2}, {t3} == (6,7), (7,6), "
              f"(8,9)", ok)


def test_criterion_7_property_suites(big_corpus):
    violations = []
    for gens, phi, basis in big_corpus:
        gamma = basis.gamma
        lam = basis.lambda_set
        v = gamma.generators
        mu = gamma.conductor
        bound = mu + 2 * v[0] + 1
        members = set(lam.up_to(bound))
        # semigroup symmetry: z in Gamma iff mu - 1 - z is a gap
        for z in range(mu):
            if (z in gamma) == ((mu - 1 - z) in gamma):
                violations.append((gens, "symmetry", z))
        # |Ap(Lambda)| = v0
        if len(apery_set(lam)) != v[0]:
            violations.append((gens, "apery-size"))
        # Gamma + Lambda subset of Lambda
        for z in list(members):
            for gen in v:
                if z + gen < bound and z + gen not in members:
                    violations.append((gens, "monomodule", z, gen))
        # min(Lambda minus Gamma) > v0 + v1
        extra = [z for z in members if z not in gamma]
        if extra and len(v) > 1 and min(extra) <= v[0] + v[1]:
            violations.append((gens, "min-extra", min(extra)))
        # v_i - k v0 never in Lambda
        for vi in v[1:]:
            k = 1
            while vi - k * v[0] > 0:
                if vi - k * v[0] in members:
                    violations.append((gens, "vi-kv0", vi, k))
                k += 1
        # conductor from the Apery set of Gamma*
        if mu != max(gamma_star_apery(gamma)) - v[0] + 1:
            violations.append((gens, "conductor-apery"))
    ok = not violations
    report(7, f"symmetry, |Ap(Lambda)|=v0, Gamma+Lambda, min(Lambda\\Gamma), "
              f"v_i-kv0 absence, conductor-from-Apery over 100 branches: "
              f"{len(violations)} violations", ok)


def test_criterion_8_random_form_oracle(corpus):
    rng = random.Random(31415)
    checked = 0
    bad = []
    for gens, phi in corpus:
        basis = algorithm1_lambda(phi)
        mu = basis.gamma.conductor
        lam = basis.lambda_set
        for _ in range(500):
            coeffs = []
            for _c in range(2):
                p = X.ring.zero()
                for _k in range(rng.randint(1, 3)):
                    ex = rng.randint(0, 6)
                    ey = rng.randint(0, max(0, (mu - ex) // 2))
                    if ex + ey > mu:
                        continue
                    p = p + X ** ex * Y ** ey * Fraction(rng.randint(-5, 5))
                coeffs.append(p)
            w = OneForm(tuple(coeffs))
            if not any(w.coeffs):
                continue
            value = eval_form_order(phi, w, precision=mu + 2 * gens[0] + 2)
            checked += 1
            if not isinstance(value, AbovePrecision) and value < mu \
                    and value not in lam:
                bad.append((gens, value))
    ok = not bad
    report(8, f"{checked} random 1-form evaluations across the corpus: "
              f"no value below the conductor falls outside Lambda "
              f"({len(bad)} offenders)", ok)
