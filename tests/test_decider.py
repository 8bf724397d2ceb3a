import json
import os
import random

import pytest

from branchforms import (BranchParametrization, NumericalSemigroup,
                         ValidationError, ValueSet, algorithm1_lambda, decide,
                         from_semigroup, semigroup_of)
from branchforms import strata
from branchforms.jsonio import decision_to_json

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

L1 = ValueSet((6, 9, 12, 15, 16, 17, 18, 21, 22, 24, 25), 27)
L2 = ValueSet((6, 9, 12, 15, 16, 17, 18, 21, 22, 23, 24, 25), 27)
L3 = ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22, 23, 24, 25), 27)
L4 = ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22, 24, 25), 27)


def test_decision_quadruple():
    d1 = decide(L1)
    assert (d1.verdict, d1.stage) == ("no", "not-covered")
    assert "23" in d1.evidence

    d2 = decide(L2)
    assert (d2.verdict, d2.stage) == ("no", "eta-or-bresinsky-failed")
    assert "17" in d2.evidence and "18" in d2.evidence

    d3 = decide(L3)
    assert (d3.verdict, d3.stage) == ("no", "no-matching-stratum")
    assert d3.gamma.generators == (6, 9, 19)

    d4 = decide(L4)
    assert (d4.verdict, d4.stage) == ("yes", "matched")
    assert d4.witness is not None
    assert algorithm1_lambda(d4.witness).lambda_set == L4


def test_empty_iterable_is_a_validation_error():
    with pytest.raises(ValidationError):
        decide([])


def test_one_shot_iterator_reads_like_a_list():
    # {2} together with [3, inf): the Lambda of the cusp <2,3>
    assert decide(iter([2])).verdict == decide([2]).verdict == "yes"


def test_gate_order_is_strict():
    # a set failing gate 1 never reaches gate 2
    assert decide(L1).stage == "not-covered"


def test_naturals_short_circuit():
    d = decide(ValueSet((), 1))
    assert d.verdict == "yes"
    assert d.witness.multiplicity == 1


def test_every_concrete_lambda_decides_yes(corpus):
    for gens, phi in corpus:
        lam = algorithm1_lambda(phi).lambda_set
        d = decide(lam)
        assert d.verdict == "yes", (gens, d.stage, d.evidence)
        assert semigroup_of(d.witness).generators == gens
        assert algorithm1_lambda(d.witness).lambda_set == lam


def test_non_plane_semigroup_star_is_rejected():
    # <4,5,6> and <5,6,7> fail the plane-branch inequalities
    for gens in [(4, 5, 6), (5, 6, 7, 8)]:
        s = from_semigroup(NumericalSemigroup(gens))
        d = decide(s)
        assert d.verdict == "no"
        assert d.stage in ("eta-or-bresinsky-failed", "no-matching-stratum")


def test_decide_rejects_uncoverable_simple_set():
    # {2} union [5, inf): 4 is on the progression of 2 but missing
    d = decide(ValueSet((2,), 5))
    assert (d.verdict, d.stage) == ("no", "not-covered")


def test_genuine_lambda_with_even_v0_decides_yes():
    # <4,9>: v0 even, the class where a largest-gcd epsilon read <4,15,18>
    phi = BranchParametrization.plane(4, {9: 1, 11: 1})
    lam = algorithm1_lambda(phi).lambda_set
    assert lam == ValueSet((4, 8, 9, 12, 13), 15)
    d = decide(lam)
    assert (d.verdict, d.stage) == ("yes", "matched")
    assert d.gamma.generators == (4, 9)
    assert semigroup_of(d.witness).generators == (4, 9)
    assert algorithm1_lambda(d.witness).lambda_set == lam


def test_no_witness_gives_unresolved(monkeypatch):
    monkeypatch.setattr(strata, "_sample_witness", lambda *args: None)
    lam = algorithm1_lambda(BranchParametrization.plane(6, {9: 1, 10: 1})).lambda_set
    d = decide(lam)
    assert (d.verdict, d.stage) == ("unresolved", "no-matching-stratum")
    assert d.witness is None


def test_the_witness_is_a_function_of_the_set_and_the_seed():
    runs = [decision_to_json(decide(L4, seed=seed)) for seed in (0, 0, 3)]
    assert runs[0] == runs[1]
    assert runs[0]["witness"] != runs[2]["witness"]


# Golden classes whose full stratification takes at most about a second.
FAST_GOLDEN = [(4, 9), (5, 7), (5, 8), (6, 9, 19), (6, 9, 23), (6, 14, 45),
               (7, 9), (6, 13)]


def recorded_strata(gens):
    """Distinct resolved Lambda of the recorded full `stratify` of gens,
    and whether it has unresolved strata."""
    name = f"stratify-{'-'.join(map(str, gens))}.json"
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        doc = json.load(fh)
    lams = [ValueSet(tuple(s["lambda"]["elements"]), s["lambda"]["cofinal"])
            for s in doc if s["status"] == "resolved"]
    return list(dict.fromkeys(lams)), any(s["status"] != "resolved" for s in doc)


@pytest.mark.parametrize("gens", FAST_GOLDEN, ids=str)
def test_pruned_decide_agrees_with_the_full_stratification(gens):
    lams, unresolved = recorded_strata(gens)
    for lam in lams:
        d = decide(lam)
        assert (d.verdict, d.stage) == ("yes", "matched"), lam
        assert semigroup_of(d.witness).generators == gens
        assert algorithm1_lambda(d.witness).lambda_set == lam
    # One element added or removed; the sets whose candidate Gamma is gens
    # reach the walk.  The full stratification answers yes for a recorded
    # Lambda, else unresolved if a stratum is, else no.  The pruned walk
    # may settle an unresolved answer, but never flips yes and no.
    rng = random.Random(0)
    for lam in lams:
        members = set(lam.up_to(lam.cofinal + 2))
        for z in rng.sample(range(1, lam.cofinal + 2), 8):
            L = ValueSet(tuple(members ^ {z}), lam.cofinal + 2)
            d = decide(L)
            if d.stage not in ("matched", "no-matching-stratum") \
                    or d.gamma.generators != gens:
                continue
            full = "yes" if L in lams else "unresolved" if unresolved else "no"
            assert d.verdict == full or full == "unresolved", (L, d.verdict)
