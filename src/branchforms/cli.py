"""Command line interface.

Every subcommand prints exactly one JSON document to stdout, newline
terminated.  Exit codes: 0 success, 1 domain error, exhausted memory or a
number too large (a generator or exponent beyond a machine index, a
polynomial exponent of 2^31 or more), with an error JSON on stdout, 2 usage or malformed input, argparse's own
usage errors (an unknown flag or subcommand, a missing argument) included,
all with {"error": "usage", "detail": ...} on stdout.  Only --help prints
plain text.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .branch import characteristic_sequence, semigroup_of
from .decider import decide
from .errors import DomainError, PrecisionError, ValidationError
from .forms import algorithm1_lambda, eval_form_order, eval_form_orders_multi
from .semigroup import (NumericalSemigroup, characteristic_from_semigroup,
                        is_plane_branch_semigroup)
from .series import AbovePrecision
from .strata import stratify
from .valueset import apery_profile, gamma_star_apery, recover_gamma


def _load_json(arg, what):
    """arg is inline JSON or a file path."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError as exc:
            raise ValidationError(f"{what}: no such file {arg!r}") from exc
        except OSError as exc:
            raise ValidationError(f"{what}: cannot read {arg!r}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{what}: {arg!r} is not UTF-8 text") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what}: malformed JSON: {exc}") from exc


def _parse_gens(text):
    try:
        gens = tuple(int(p) for p in text.replace(" ", "").split(",") if p)
    except ValueError as exc:
        raise ValidationError(f"bad generator list {text!r}") from exc
    if not gens:
        raise ValidationError("empty generator list")
    return gens


def _cmd_semigroup(args):
    if args.gens:
        gens = _parse_gens(args.gens)
    elif args.branch:
        phi = jsonio.branch_from_json(_load_json(args.branch, "--branch"))
        gens = semigroup_of(phi).generators
    else:
        raise ValidationError("semigroup needs --gens or --branch")
    gamma = NumericalSemigroup(gens)
    ok, reason = is_plane_branch_semigroup(tuple(sorted(set(gens))))
    out = {
        "generators": list(gamma.generators),
        "e": list(gamma.e),
        "n": list(gamma.n),
        "conductor": gamma.conductor,
        "apery": gamma_star_apery(gamma),
        "plane_branch": {"ok": ok, "reason": reason},
    }
    if ok:
        out["characteristic"] = list(characteristic_from_semigroup(gamma).exponents)
    return out


def _cmd_recover_gamma(args):
    lam = jsonio.valueset_from_json(_load_json(args.set, "--set"))
    profile = apery_profile(lam)
    out = {
        "apery": list(profile.apery),
        "covered": profile.covered,
        "epsilon": list(profile.epsilon),
        "eta": list(profile.eta),
        "b_sets": [list(b) for b in profile.b_sets],
    }
    if profile.covered:
        try:
            out["generators"] = list(recover_gamma(lam).generators)
        except DomainError as exc:  # the maxima of the B_i share a factor
            maxima = [max(b) for b in profile.b_sets]
            out["generators"] = None
            out["reason"] = f"max(B_i) = {maxima}: {exc}"
    return out


def _cmd_lambda(args):
    phi = jsonio.branch_from_json(_load_json(args.branch, "--branch"))
    basis = algorithm1_lambda(phi)
    return {
        "gamma": list(basis.gamma.generators),
        "lambda": basis.lambda_set.to_json(),
        "minimal_values": sorted(basis.minimal_values),
    }


def _cmd_eval_form(args):
    branches = [jsonio.branch_from_json(_load_json(b, "--branch"))
                for b in args.branch]
    form = jsonio.form_from_json(_load_json(args.form, "--form"))
    if args.precision is not None and args.precision < 2:
        raise ValidationError(f"--precision must be at least 2, got {args.precision}")
    if len(branches) == 1:
        value = eval_form_order(branches[0], form, precision=args.precision)
        if isinstance(value, AbovePrecision):
            return {"value": None, "above_precision": value.precision}
        return {"value": value}
    values = eval_form_orders_multi(branches, form, precision=args.precision)
    return {"values": list(values)}


def _cmd_stratify(args):
    gens = _parse_gens(args.gens)
    report = stratify(NumericalSemigroup(gens), max_splits=args.max_splits,
                      seed=args.seed)
    return jsonio.report_to_json(report)


def _cmd_decide(args):
    lam = jsonio.valueset_from_json(_load_json(args.set, "--set"))
    decision = decide(lam, max_splits=args.max_splits, seed=args.seed)
    return jsonio.decision_to_json(decision)


class _Parser(argparse.ArgumentParser):
    """An argparse usage error raises ValidationError, so that it ends in
    the usage JSON like every other malformed input; the usage line still
    goes to stderr.  Subcommand parsers share this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _build_parser():
    parser = _Parser(
        prog="branchforms",
        description="Value semigroups and 1-form value sets of plane branches")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="semigroup invariants from generators or a branch")
    p.add_argument("--gens", help="comma-separated generators, e.g. 6,9,19")
    p.add_argument("--branch", help="branch JSON (inline or path)")
    p.set_defaults(fn=_cmd_semigroup)

    p = sub.add_parser("recover-gamma", help="Apery profile and recovered semigroup of a value set")
    p.add_argument("--set", required=True, help="value set JSON (inline or path)")
    p.set_defaults(fn=_cmd_recover_gamma)

    p = sub.add_parser("lambda", help="value set of 1-forms of a plane branch")
    p.add_argument("--branch", required=True, help="branch JSON (inline or path)")
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("eval-form", help="value of one 1-form on one or more branches")
    p.add_argument("--branch", action="append", required=True,
                   help="branch JSON; repeat for a multi-branch value tuple")
    p.add_argument("--form", required=True, help="1-form JSON (inline or path)")
    p.add_argument("--precision", type=int, default=None,
                   help="truncation order of the coordinate series (at least 2: "
                        "the pullback's derivative drops one position)")
    p.set_defaults(fn=_cmd_eval_form)

    p = sub.add_parser("stratify", help="all attainable value sets for a semigroup")
    p.add_argument("--gens", required=True)
    p.add_argument("--max-splits", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_stratify)

    p = sub.add_parser("decide", help="is L the value set of 1-forms of a plane branch?")
    p.add_argument("--set", required=True, help="value set JSON (inline or path)")
    p.add_argument("--max-splits", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_decide)

    return parser


def run(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        result = args.fn(args)
    except SystemExit as exc:  # --help, after printing its text
        return exc.code
    # Each handler only builds the error document: printing waits until the
    # handled exception, whose traceback can hold a partial result that
    # filled the memory, has been released.
    except ValidationError as exc:
        result, code = {"error": "usage", "detail": str(exc)}, 2
    except (DomainError, PrecisionError) as exc:
        result, code = {"error": args.command, "detail": str(exc)}, 1
    except MemoryError:
        result, code = {"error": args.command, "detail": "out of memory"}, 1
    except OverflowError:
        result, code = {"error": args.command, "detail": "number too large"}, 1
    else:
        code = 0
    print(json.dumps(result))
    return code


def main(argv=None):
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
