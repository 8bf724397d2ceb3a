"""Golden regression data: stratification reports, concrete bases, the
recovery of Gamma from Lambda and a census of small classes.

The files under tests/data/ hold the JSON of `stratify` on a fixed list of
classes, the concrete form-value basis of the four running-example
branches, a digest of the concrete basis of further fixed branches, the
exit code and stdout of `semigroup` on edge cases and of `recover-gamma`
and `decide` on seeded value sets, and a digest of `stratify` on every
plane-branch semigroup with conductor <= 60.  The test
recomputes each document and compares the text byte for byte, so any
change to strata, constraints, witnesses, values, 1-form certificates,
Apery profiles or verdicts shows up here.

Regenerate (only when a change of output is intended and explained):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from branchforms import (BranchParametrization, NumericalSemigroup, ValueSet,
                         algorithm1_lambda, cli, stratify)
from branchforms.jsonio import branch_from_json, form_to_json, report_to_json

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

STRATIFY_CLASSES = [(6, 9, 19), (6, 9, 23), (6, 14, 45), (7, 9), (5, 7),
                    (4, 9), (5, 8), (6, 13), (8, 12, 26, 53), (6, 15, 31)]

RUNNING_EXAMPLE = [
    {9: 1, 10: 1},
    {9: 1, 10: 1, 11: Fraction(29, 18)},
    {9: 1, 10: 1, 11: Fraction(-1, 2)},
    {9: 1, 10: 1, 11: Fraction(-1, 2), 17: Fraction(1, 38)},
]


def _dump(doc):
    return json.dumps(doc, indent=1) + "\n"


def stratify_doc(gens):
    return _dump(report_to_json(stratify(NumericalSemigroup(gens))))


def basis_doc(y_terms):
    basis = algorithm1_lambda(BranchParametrization.plane(6, y_terms))
    return _dump({
        "lambda": basis.lambda_set.to_json(),
        "entries": [{"value": e.value, "minimal": e.minimal,
                     "form": form_to_json(e.form)} for e in basis.entries],
    })


def _short_hash(doc):
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:12]


def basis_digest_doc(name):
    """Per branch listed in the file: the short hash of each entry's value,
    minimal flag and 1-form, in discovery order.  The branches are the
    three fixed frontier branches of the benchmark's lambda-corpus and
    three seeded branches each of <4,6,13>, <6,13> and <6,14,45>; they
    are read from the file itself, which writes each one out."""
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        records = json.load(fh)
    for rec in records:
        basis = algorithm1_lambda(branch_from_json(rec["branch"]))
        assert list(basis.gamma.generators) == rec["gens"]
        rec["entries"] = [_short_hash([e.value, e.minimal, form_to_json(e.form)])
                          for e in basis.entries]
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


# The running example's candidate sets L1..L4.
RUNNING_SETS = [
    ValueSet((6, 9, 12, 15, 16, 17, 18, 21, 22, 24, 25), 27),
    ValueSet((6, 9, 12, 15, 16, 17, 18, 21, 22, 23, 24, 25), 27),
    ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22, 23, 24, 25), 27),
    ValueSet((6, 9, 12, 15, 16, 18, 19, 21, 22, 24, 25), 27),
]


def recovery_sets():
    """Seeded value sets: random subsets below a cofinal threshold <= 16,
    then sets covered by construction (a_0 <= 9, each Apery element
    r + m*a_0 with 1 <= m <= 5), duplicates dropped.  A larger minimum or
    threshold reaches classes such as <10,11> whose stratification has no
    bound."""
    rng = random.Random(12)
    sets = []
    for _ in range(300):
        cofinal = rng.randint(1, 16)
        p = rng.random()
        sets.append(ValueSet(
            tuple(z for z in range(1, cofinal) if rng.random() < p), cofinal))
    for _ in range(300):
        a0 = rng.randint(1, 9)
        starts = [a0] + [r + a0 * rng.randint(1, 5) for r in range(1, a0)]
        cofinal = max(starts) + 1
        sets.append(ValueSet(
            tuple(z for a in starts for z in range(a, cofinal, a0)), cofinal))
    return list(dict.fromkeys(sets))


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


# `semigroup --gens` edge cases for the Apery set of Gamma \\ {0}: plane,
# free but not plane, not free, not minimal, gcd above 1, a single generator.
SEMIGROUP_GENS = ["1", "2,3", "6,9,19", "8,12,26,53", "7,9", "6,10,15",
                  "3,5,7", "5,7,9,11", "4,5,6", "6,9,12,19", "6,9"]


def recovery_doc(_arg):
    """`semigroup` on the edge cases, `recover-gamma` on every seeded set,
    `decide --max-splits 4` on those with min <= 5, and both commands with
    default options on L1..L4; one record per line."""
    records = [_cli(["semigroup", "--gens", g]) for g in SEMIGROUP_GENS]
    for s in recovery_sets():
        arg = json.dumps(s.to_json())
        records.append(_cli(["recover-gamma", "--set", arg]))
        if s.min() <= 5:
            records.append(_cli(["decide", "--set", arg, "--max-splits", "4"]))
    for s in RUNNING_SETS:
        arg = json.dumps(s.to_json())
        records.append(_cli(["recover-gamma", "--set", arg]))
        records.append(_cli(["decide", "--set", arg]))
    return "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n"


def plane_semigroups(max_conductor):
    """Every plane-branch semigroup with conductor <= max_conductor, <1>
    included, as sorted generator tuples.

    Generators are grown by Bresinsky's conditions (each gcd drops, so
    n_i >= 2, and v_i > n_{i-1} v_{i-1}); the conductor is
    sum_{i>=1} (n_i - 1) v_i - v_0 + 1, every term of the sum is positive
    and the next term is at least the next generator, so a prefix stops
    growing once its partial sum plus that generator passes the bound."""
    out = [(1,)]

    def grow(v, es, partial):
        if es[-1] == 1:
            out.append(tuple(v))
            return
        w = (es[-2] // es[-1]) * v[-1] + 1 if len(v) > 1 else v[0] + 1
        while partial + w <= max_conductor:
            e = gcd(es[-1], w)
            term = (es[-1] // e - 1) * w
            if e < es[-1] and partial + term <= max_conductor:
                grow(v + [w], es + [e], partial + term)
            w += 1

    # the conductor is at least v_0, as 1, ..., v_0 - 1 are gaps
    for v0 in range(2, max_conductor + 1):
        grow([v0], [v0], 1 - v0)
    return sorted(out)


def census_doc(max_conductor):
    """Per class: the number of strata, of unresolved strata, and the
    sorted short hashes of the Lambda of each resolved stratum."""
    doc = []
    for gens in plane_semigroups(max_conductor):
        strata = stratify(NumericalSemigroup(gens)).strata
        doc.append({
            "gens": list(gens),
            "strata": len(strata),
            "unresolved": sum(s.status == "unresolved" for s in strata),
            "lambdas": sorted(
                _short_hash(s.lambda_set.to_json())
                for s in strata if s.status == "resolved"),
        })
    return _dump(doc)


CASES = ([(f"stratify-{'-'.join(map(str, g))}.json", stratify_doc, g)
          for g in STRATIFY_CLASSES] +
         [(f"basis-running-{k}.json", basis_doc, y)
          for k, y in enumerate(RUNNING_EXAMPLE)] +
         [("basis-digest.json", basis_digest_doc, "basis-digest.json"),
          ("recovery.json", recovery_doc, None),
          ("census-60.json", census_doc, 60)])


@pytest.mark.parametrize("name,make,arg", CASES, ids=[c[0] for c in CASES])
def test_golden(name, make, arg):
    with open(os.path.join(DATA, name), "rb") as fh:
        expected = fh.read()
    assert make(arg).encode("utf-8") == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    os.makedirs(DATA, exist_ok=True)
    for name, make, arg in CASES:
        with open(os.path.join(DATA, name), "wb") as fh:
            fh.write(make(arg).encode("utf-8"))
        print(name)
