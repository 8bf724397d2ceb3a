import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from branchforms import (DomainError, NumericalSemigroup, Poly, ValidationError,
                         ValueSet, algorithm1_lambda, decide, is_covered,
                         normal_form_family, recover_gamma, standard_basis_of_ring,
                         stratify)
from branchforms import strata

ROWS_6919 = [
    (16, 22, 26, 29, 32, 35, 41),
    (16, 22, 26, 32, 35, 41),
    (16, 22, 29, 32, 35, 41),
    (16, 22, 29, 35, 41),
]


def lam_minus_gamma(lam, gamma):
    return tuple(z for z in lam.up_to(max(gamma.conductor, 1))
                 if z not in gamma)


@pytest.fixture(scope="module")
def report_6919():
    return stratify(NumericalSemigroup((6, 9, 19)), seed=5)


def test_family_support_6919():
    fam = normal_form_family(NumericalSemigroup((6, 9, 19)))
    assert fam.exponents == (10, 11, 14, 16, 17, 20, 23, 26, 29, 35)
    assert fam.fixed == ((10, Fraction(1)),)
    assert fam.ring.names == ("a11", "a14", "a16", "a17", "a20",
                              "a23", "a26", "a29", "a35")


def test_family_support_trivial():
    fam = normal_form_family(NumericalSemigroup((2, 3)))
    assert fam.exponents == ()
    fam = normal_form_family(NumericalSemigroup((2, 5)))
    assert fam.exponents == ()


def test_family_rejects_non_plane():
    with pytest.raises(DomainError):
        normal_form_family(NumericalSemigroup((4, 5, 6)))


def test_stratification_6919_table(report_6919):
    rep = report_6919
    assert all(s.status == "resolved" for s in rep.strata)
    got = {lam_minus_gamma(l, rep.gamma) for l in rep.lambdas}
    assert got == set(ROWS_6919)
    # the generic stratum (no equalities) carries the full row
    generic = [s for s in rep.strata if not s.equalities]
    assert len(generic) == 1
    assert lam_minus_gamma(generic[0].lambda_set, rep.gamma) == ROWS_6919[0]


def test_stratum_witnesses_cross_validate(report_6919):
    rep = report_6919
    for s in rep.strata:
        assert s.witness is not None
        phi = rep.family.member(s.witness)
        assert algorithm1_lambda(phi).lambda_set == s.lambda_set


def test_stratum_lambdas_recover_gamma(report_6919):
    rep = report_6919
    for l in rep.lambdas:
        assert is_covered(l)
        assert recover_gamma(l).generators == rep.gamma.generators


def test_coverage_partition(report_6919):
    rep = report_6919
    rng = random.Random(99)
    pool = [Fraction(n, d) for n in range(-5, 6) for d in (1, 2, 3)]
    for _ in range(60):
        point = {n: rng.choice(pool) for n in rep.family.ring.names}
        homes = [s for s in rep.strata if s.contains(point)]
        assert len(homes) == 1
        lam = algorithm1_lambda(rep.family.member(point)).lambda_set
        assert lam == homes[0].lambda_set


def test_single_stratum_classes():
    rep = stratify(NumericalSemigroup((2, 3)))
    assert len(rep.strata) == 1
    assert rep.strata[0].lambda_set == ValueSet((), 2)

    rep = stratify(NumericalSemigroup((2, 5)))
    assert rep.strata[0].lambda_set == ValueSet((2,), 4)


def test_4_6_13_matches_random_members():
    gamma = NumericalSemigroup((4, 6, 13))
    rep = stratify(gamma)
    observed = set()
    rng = random.Random(42)
    fam = rep.family
    pool = [Fraction(n, d) for n in range(-5, 6) for d in (1, 2)]
    for _ in range(50):
        point = {n: rng.choice(pool) for n in fam.ring.names}
        observed.add(algorithm1_lambda(fam.member(point)).lambda_set)
    assert observed == set(rep.lambdas)


def test_split_budget_reports_unresolved(report_6919):
    # A run under way finishes its generic chain; tasks taken up after the
    # budget is spent become unresolved. What is resolved is still exact.
    def key(s):  # each call has its own parameter ring: compare by text
        return (tuple(map(str, s.equalities)), tuple(map(str, s.nonzero)),
                s.lambda_set)

    full = {key(s) for s in report_6919.strata}
    for max_splits in (0, 1, 2):
        rep = stratify(NumericalSemigroup((6, 9, 19)), max_splits=max_splits)
        assert any(s.status == "unresolved" for s in rep.strata)
        resolved = [s for s in rep.strata if s.status == "resolved"]
        assert resolved
        for s in resolved:
            assert key(s) in full
            assert s.contains(s.witness)
            member = rep.family.member(s.witness)
            assert algorithm1_lambda(member).lambda_set == s.lambda_set


def test_a_negative_split_budget_is_a_validation_error():
    # -1 used to leave one unresolved stratum and run nothing; a budget of
    # 0 still runs the root task
    gamma = NumericalSemigroup((3, 5))
    lam = stratify(gamma, max_splits=0).lambdas[0]
    for call in (lambda: stratify(gamma, max_splits=-1),
                 lambda: strata.find_witness(gamma, lam, max_splits=-1),
                 lambda: decide(lam, max_splits=-1)):
        with pytest.raises(ValidationError, match="max_splits"):
            call()
    assert decide(lam, max_splits=0).verdict == "yes"


@pytest.mark.parametrize("gens, runs", [((6, 9, 19), 6), ((7, 9), 16)])
def test_one_parametric_run_per_leaf(monkeypatch, gens, runs):
    # A split does not restart the run: the generic child goes on from the
    # split, so only the resolved leaves are ever run.
    real = strata._run_once
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(strata, "_run_once", counted)
    rep = stratify(NumericalSemigroup(gens))
    assert len(calls) == runs
    assert sum(s.status == "resolved" for s in rep.strata) == runs


@pytest.mark.parametrize("gens", [(6, 9, 19), (4, 6, 13), (5, 7)])
def test_parametric_basis_specialises_to_the_member_basis(gens):
    family = normal_form_family(NumericalSemigroup(gens))
    sb = standard_basis_of_ring(family.phi, gamma=family.gamma)
    assert sb.polys is None
    point = {n: Fraction(i + 2, 3) for i, n in enumerate(family.ring.names)}
    member = standard_basis_of_ring(family.member(point))

    def values_at_point(s):
        return [Fraction(c.eval(point) if isinstance(c, Poly) else c) / s.den
                for c in s.coeffs]

    assert ([values_at_point(s) for s in sb.pullbacks]
            == [values_at_point(s) for s in member.pullbacks])


def test_one_wrong_witness_is_an_error(monkeypatch):
    # The concrete run of the first witness disagrees once: that alone
    # proves a fault, so stratify must not draw another witness.
    real = strata.algorithm1_lambda
    calls = []

    def wrong_once(phi):
        basis = real(phi)
        if not calls:
            calls.append(phi)
            return dataclasses.replace(basis, lambda_set=ValueSet((), 1))
        return basis

    monkeypatch.setattr(strata, "algorithm1_lambda", wrong_once)
    with pytest.raises(DomainError, match="witness disagrees"):
        stratify(NumericalSemigroup((2, 5)))


def test_a_stratum_without_a_witness_is_unresolved(monkeypatch):
    # A Lambda is reported only with a rational point that confirms it.
    monkeypatch.setattr(strata, "_sample_witness", lambda *args: None)
    report = stratify(NumericalSemigroup((6, 9, 19)))
    assert report.strata
    for s in report.strata:
        assert s.status == "unresolved"
        assert s.lambda_set is None and s.witness is None
    assert report.lambdas == ()


# Runs in a fresh interpreter in which `import sympy` fails.
WITHOUT_SYMPY = """
import json, sys
sys.modules["sympy"] = None
from branchforms import NumericalSemigroup, stratify
from branchforms.decider import decide
from branchforms.jsonio import decision_to_json, report_to_json
L4 = [6, 9, 12, 15, 16, 18, 19, 21, 22, 24, 25]
out = {"5-7": report_to_json(stratify(NumericalSemigroup((5, 7)))),
       "7-9": report_to_json(stratify(NumericalSemigroup((7, 9)))),
       "L4": decision_to_json(decide(L4 + [27]))}
try:
    stratify(NumericalSemigroup((6, 13)))
    out["6-13"] = "finished"
except ImportError:
    out["6-13"] = "needs sympy"
print(json.dumps(out))
"""


def test_linear_classes_stratify_and_decide_without_sympy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(strata.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", WITHOUT_SYMPY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    data = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
    for name in ("5-7", "7-9"):
        with open(os.path.join(data, f"stratify-{name}.json"), encoding="utf-8") as fh:
            assert out[name] == json.load(fh)
    assert (out["L4"]["verdict"], out["L4"]["stage"]) == ("yes", "matched")
    assert out["L4"]["gamma"] == [6, 9, 19]
    assert out["6-13"] == "needs sympy"


def test_each_polynomial_is_factored_once_per_stratify_call(monkeypatch):
    real = strata.irreducible_factors
    seen = []

    def counted(p):
        seen.append(p)
        return real(p)

    monkeypatch.setattr(strata, "irreducible_factors", counted)
    # The memo is keyed by the normalized polynomial: the oracle reads
    # series numerators, integer multiples of the true coefficients, and a
    # polynomial and its constant multiples have the same factors.  Four
    # of the 36 polynomials a memo keyed by the polynomial itself would
    # factor are constant multiples of others.
    stratify(NumericalSemigroup((6, 13)))
    assert len(seen) == len(set(seen)) == 32
    assert all(p == p.normalized() for p in seen)
    stratify(NumericalSemigroup((6, 13)))  # the memo does not outlive a call
    assert len(seen) == 64
    assert {str(p) for p in seen[32:]} == {str(p) for p in seen[:32]}


def test_sympy_factors_only_what_the_content_rule_cannot(monkeypatch):
    # Of the 32 polynomials stratify(<6,13>) factors, four only split off
    # a monomial content and one (see tests/test_params.py) needs sympy.
    import sympy
    real = sympy.factor_list
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sympy, "factor_list", counted)
    stratify(NumericalSemigroup((6, 13)))
    assert len(calls) == 1


def test_each_equality_child_applies_one_substitution(monkeypatch):
    # A child starts from its parent's substituted family and applies only
    # its own substitution: one per child run, none for a root run.
    real_apply, real_run = strata._apply_substitution, strata._run_once
    applied, children = [], []

    def apply(*args):
        applied.append(args)
        return real_apply(*args)

    def run(family, task, *args):
        children.append(bool(task.substitutions))
        return real_run(family, task, *args)

    monkeypatch.setattr(strata, "_apply_substitution", apply)
    monkeypatch.setattr(strata, "_run_once", run)
    for gens in ((6, 9, 19), (6, 9, 23), (6, 14, 45), (7, 9), (6, 13)):
        stratify(NumericalSemigroup(gens))
    assert len(applied) == sum(children) == 55


def test_map_coeffs_adds_no_polynomials(monkeypatch):
    family = normal_form_family(NumericalSemigroup((6, 13)))
    calls = []
    real = Poly._combine

    def counted(self, other, sign):
        calls.append(other)
        return real(self, other, sign)

    monkeypatch.setattr(Poly, "_combine", counted)
    phi = family.phi.map_coeffs(lambda c: c)
    assert not calls
    assert phi.coords == family.phi.coords


def _leaf_key(leaf):
    depth, path, s = leaf
    return (depth, path, s.equalities, s.nonzero, s.substitutions, s.lambda_set,
            s.minimal_values)


@pytest.mark.parametrize("gens", [(6, 9, 19), (6, 13)])
def test_a_target_walk_yields_exactly_the_leaves_with_that_lambda(gens):
    # A run stopped where its Lambda leaves the target yields no leaf, and a
    # run that ends yields one only when its Lambda is the target: the same
    # leaves, in the same order, as the whole walk has for that Lambda.
    family = normal_form_family(NumericalSemigroup(gens))
    full = [leaf for leaf in strata._walk(family, 60) if leaf[2].status == "resolved"]
    lambdas = {leaf[2].lambda_set for leaf in full}
    assert len(lambdas) > 1
    for lam in lambdas:
        pruned = [_leaf_key(leaf) for leaf in strata._walk(family, 60, lam)
                  if leaf[2].status == "resolved"]
        assert pruned == [_leaf_key(leaf) for leaf in full if leaf[2].lambda_set == lam]


# Per class: the zero tests the oracle records and the splits of each run,
# over one stratify and over find_witness for its first two Lambdas (count
# and a sha256 prefix of their str, one per line), recorded with full-length
# runs.  A numerator is the true coefficient times a positive integer that
# depends on the length a run cuts its series to, so a zero test is digested
# as what that leaves fixed: the normalized polynomial the oracle reads, or
# the sign of an int.
SPLIT_RECORD = {
    (6, 9, 19): [(27, "993a83d927aa", 6, "557437e87ef9"),
                 (17, "2f7770bd5805", 4, "246742f6d588"),
                 (5, "586bb8c1cf0f", 1, "6a952e15f39b")],
    (7, 9): [(37, "769d6914e837", 16, "f2927037b070"),
             (2, "c3fb960e9ea7", 1, "3c5f9fe717b8"),
             (5, "98a5ff5a60fc", 2, "0c25b81ce15e")],
    (6, 13): [(78, "1efa4d1a51fd", 29, "22ef03e19f29"),
              (6, "661e64dc252c", 3, "f5f03489bb63"),
              (5, "9507ae544f03", 2, "e9c6826ac306")],
}


@pytest.mark.parametrize("gens", sorted(SPLIT_RECORD))
def test_zero_tests_and_splits_match_the_record(monkeypatch, gens):
    calls, runs = [], []
    real_is_zero, real_run = strata.ConstraintOracle.is_zero, strata._run_once

    def is_zero(self, c):
        calls.append(str(c.normalized()) if isinstance(c, Poly)
                     else repr((c > 0) - (c < 0)))
        return real_is_zero(self, c)

    def run(*args):
        out = real_run(*args)
        runs.append(repr(out[0]))
        return out

    def digest(lines):
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]

    def record():
        out = (len(calls), digest(calls), len(runs), digest(runs))
        calls.clear()
        runs.clear()
        return out

    monkeypatch.setattr(strata.ConstraintOracle, "is_zero", is_zero)
    monkeypatch.setattr(strata, "_run_once", run)
    gamma = NumericalSemigroup(gens)
    rep = stratify(gamma)
    got = [record()]
    for lam in rep.lambdas[:2]:
        strata.find_witness(gamma, lam)
        got.append(record())
    assert got == SPLIT_RECORD[gens]
