"""Golden regression data: stratification reports and concrete bases.

The files under tests/data/ hold the JSON of `stratify` on a fixed list of
classes and the concrete form-value basis of the four running-example
branches.  The test recomputes each document and compares the text byte for
byte, so any change to strata, constraints, witnesses, values or 1-form
certificates shows up here.

Regenerate (only when a change of output is intended and explained):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import json
import os
import sys
from fractions import Fraction

import pytest

from branchforms import (BranchParametrization, NumericalSemigroup,
                         algorithm1_lambda, stratify)
from branchforms.jsonio import form_to_json, report_to_json

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

STRATIFY_CLASSES = [(6, 9, 19), (6, 9, 23), (6, 14, 45), (7, 9), (5, 7),
                    (4, 9), (5, 8)]

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


CASES = ([(f"stratify-{'-'.join(map(str, g))}.json", stratify_doc, g)
          for g in STRATIFY_CLASSES] +
         [(f"basis-running-{k}.json", basis_doc, y)
          for k, y in enumerate(RUNNING_EXAMPLE)])


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
