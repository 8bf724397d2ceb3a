"""JSON encoding/decoding for the public object types.

All rationals travel as strings ("29/18") so nothing is ever rounded.
"""

from __future__ import annotations

from fractions import Fraction

from .branch import BranchParametrization
from .errors import ValidationError
from .forms import OneForm
from .poly import COORD_NAMES, Poly, _exact, coordinate_ring
from .valueset import ValueSet


def frac_to_str(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def frac_from_str(s):
    """A rational from a JSON string ("29/18") or integer; a float or a
    boolean is rejected rather than rounded.  A string with a decimal
    exponent ("1e300000") is rejected too: Fraction would expand it into
    an integer of that many digits."""
    if isinstance(s, str) and ("e" in s or "E" in s):
        raise ValidationError(f"bad rational {s!r}: exponent notation")
    if isinstance(s, (int, str)) and not isinstance(s, bool):
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"bad rational {s!r}")


def int_from_json(v):
    """A JSON integer or integer string; a float or a boolean is rejected
    rather than truncated."""
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        try:
            return int(v)
        except ValueError:
            pass
    raise ValidationError(f"expected an integer, got {v!r}")


def array_from_json(v):
    """A JSON array; a string or an object is rejected rather than
    iterated."""
    if isinstance(v, (list, tuple)):
        return v
    raise ValidationError(f"expected an array, got {v!r}")


# -- branches --------------------------------------------------------------


def branch_to_json(phi):
    def coord(terms):
        return [[e, frac_to_str(c)] for e, c in terms]

    x = phi.coords[0]
    if len(x) != 1 or x[0][1] != 1:
        raise ValidationError("branch JSON requires x(t) = t^n")
    out = {"n": x[0][0], "y": coord(phi.coords[1] if phi.ncoords > 1 else ())}
    if phi.ncoords > 2:
        out["extra"] = [coord(c) for c in phi.coords[2:]]
    return out


def _coord_from_json(terms):
    return [(int_from_json(e), frac_from_str(c))
            for e, c in map(array_from_json, array_from_json(terms))]


def branch_from_json(obj):
    try:
        n = int_from_json(obj["n"])
        y = _coord_from_json(obj.get("y", []))
        extra = [_coord_from_json(coord)
                 for coord in array_from_json(obj.get("extra", []))]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad branch JSON: {exc}") from exc
    return BranchParametrization.plane(n, y, extra)


# -- 1-forms -----------------------------------------------------------------


def _poly_to_json(p):
    return [list(e) + [frac_to_str(c)] for e, c in sorted(p.terms.items())]


def _poly_from_json(items, nvars):
    terms = {}
    try:
        for item in map(array_from_json, array_from_json(items)):
            if len(item) != nvars + 1:
                raise ValidationError(
                    f"polynomial term {item!r} needs {nvars} exponents and a coefficient")
            exps = tuple(int_from_json(v) for v in item[:-1])
            if min(exps, default=0) < 0:
                raise ValidationError(f"negative exponent in polynomial term {item!r}")
            terms[exps] = terms.get(exps, 0) + frac_from_str(item[-1])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad polynomial JSON: {exc}") from exc
    return Poly(coordinate_ring(nvars),
                {e: _exact(c) for e, c in terms.items() if c})


def form_to_json(form):
    return {"d": [[COORD_NAMES[i], _poly_to_json(a)]
                  for i, a in enumerate(form.coeffs)]}


def form_from_json(obj):
    try:
        entries = [array_from_json(entry) for entry in array_from_json(obj["d"])]
        names = [name for name, _ in entries]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad 1-form JSON: {exc}") from exc
    if names != list(COORD_NAMES[: len(names)]):
        raise ValidationError(
            f"1-form coordinates must be {COORD_NAMES[:len(names)]} in order, got {names}")
    nvars = len(names)
    coeffs = tuple(_poly_from_json(items, nvars) for _, items in entries)
    return OneForm(coeffs)


# -- value sets ----------------------------------------------------------------


def valueset_from_json(obj):
    try:
        elements = array_from_json(obj["elements"])
        return ValueSet(tuple(int_from_json(e) for e in elements),
                        int_from_json(obj["cofinal"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad value-set JSON: {exc}") from exc


# -- stratification reports ------------------------------------------------------


def stratum_to_json(stratum):
    out = {
        "constraints": {
            "eq": [str(f) for f in stratum.equalities],
            "neq": [str(f) for f in stratum.nonzero],
        },
        "status": stratum.status,
        "lambda": stratum.lambda_set.to_json() if stratum.lambda_set else None,
        "witness": ({k: frac_to_str(v) for k, v in sorted(stratum.witness.items())}
                    if stratum.witness is not None else None),
    }
    if stratum.minimal_values:
        out["minimal_values"] = list(stratum.minimal_values)
    return out


def report_to_json(report):
    return [stratum_to_json(s) for s in report.strata]


# -- decisions ----------------------------------------------------------------------


def decision_to_json(decision):
    out = {
        "verdict": decision.verdict,
        "stage": decision.stage,
        "evidence": decision.evidence,
    }
    if decision.witness is not None:
        out["witness"] = branch_to_json(decision.witness)
    if decision.gamma is not None:
        out["gamma"] = list(decision.gamma.generators)
    return out
