"""Golden regression data: stratification reports, concrete bases and the
recovery of Gamma from Lambda.

The files under tests/data/ hold the JSON of `stratify` on a fixed list of
classes, the concrete form-value basis of the four running-example
branches, and the exit code and stdout of `semigroup` on edge cases and of
`recover-gamma` and `decide` on seeded value sets.  The test recomputes each document and compares the text
byte for byte, so any change to strata, constraints, witnesses, values,
1-form certificates, Apery profiles or verdicts shows up here.

Regenerate (only when a change of output is intended and explained):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction

import pytest

from branchforms import (BranchParametrization, NumericalSemigroup, ValueSet,
                         algorithm1_lambda, cli, stratify)
from branchforms.jsonio import form_to_json, report_to_json

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


CASES = ([(f"stratify-{'-'.join(map(str, g))}.json", stratify_doc, g)
          for g in STRATIFY_CLASSES] +
         [(f"basis-running-{k}.json", basis_doc, y)
          for k, y in enumerate(RUNNING_EXAMPLE)] +
         [("recovery.json", recovery_doc, None)])


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
