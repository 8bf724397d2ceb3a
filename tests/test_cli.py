import json
import os
import subprocess
import sys

import pytest

from branchforms import ValueSet, cli, jsonio
from branchforms.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_semigroup_from_gens(capsys):
    code, out = invoke(capsys, "semigroup", "--gens", "6,9,19")
    assert code == 0
    assert out["generators"] == [6, 9, 19]
    assert out["conductor"] == 42
    assert out["e"] == [6, 3, 1]
    assert out["apery"] == [6, 9, 19, 28, 38, 47]
    assert out["plane_branch"]["ok"]
    assert out["characteristic"] == [6, 9, 10]


def test_semigroup_trivial(capsys):
    code, out = invoke(capsys, "semigroup", "--gens", "1")
    assert code == 0
    assert out["generators"] == [1]
    assert out["conductor"] == 0


def test_semigroup_from_branch(capsys):
    code, out = invoke(capsys, "semigroup", "--branch",
                       '{"n":6,"y":[[9,"1"],[10,"1"]]}')
    assert code == 0
    assert out["generators"] == [6, 9, 19]


def test_semigroup_domain_error(capsys):
    code, out = invoke(capsys, "semigroup", "--gens", "4,6")
    assert code == 1
    assert out["error"] == "semigroup"


def test_recover_gamma(capsys):
    code, out = invoke(capsys, "recover-gamma", "--set",
                       '{"elements":[6,9,12,15,16,18,19,21,22],"cofinal":24}')
    assert code == 0
    assert out["apery"] == [6, 9, 16, 19, 26, 29]
    assert out["covered"]
    assert out["b_sets"] == [[6], [9], [16, 19]]
    assert out["generators"] == [6, 9, 19]


def test_recover_gamma_prints_the_profile_when_the_maxima_share_a_factor(capsys):
    # covered, but the B_i maxima 8, 12, 22 have gcd 2: no semigroup to name
    code, out = invoke(capsys, "recover-gamma", "--set",
                       '{"elements":[8,12,13,16,20,21,22,23,24,26],"cofinal":28}')
    assert code == 0
    assert out["covered"] and out["b_sets"] == [[8], [12], [13, 22]]
    assert out["generators"] is None
    assert out["reason"] == "max(B_i) = [8, 12, 22]: gcd of generators must be 1"


def test_lambda_command(capsys):
    code, out = invoke(capsys, "lambda", "--branch",
                       '{"n":6,"y":[[9,"1"],[10,"1"],[11,"-1/2"],[17,"1/38"]]}')
    assert code == 0
    assert out["gamma"] == [6, 9, 19]
    lam = set(out["lambda"]["elements"]) | set(
        range(out["lambda"]["cofinal"], 42))
    extra = sorted(z for z in lam if z not in {6, 9, 12, 15, 18, 19, 21, 24,
                                               25, 27, 28, 30, 31, 33, 34,
                                               36, 37, 38, 39, 40})
    assert extra == [16, 22, 29, 35, 41]


def test_repeated_exponents_in_branch_json_add_up(capsys):
    # y = t^3 - t^3 + t^5 = t^5: the terms of y(t) = sum c t^e are summed
    code, out = invoke(capsys, "lambda", "--branch",
                       '{"n":2,"y":[[3,"1"],[3,"-1"],[5,"1"]]}')
    assert code == 0
    assert out == {"gamma": [2, 5], "lambda": {"elements": [2], "cofinal": 4},
                   "minimal_values": [2, 5]}
    phi = jsonio.branch_from_json(
        {"n": 2, "y": [[3, "1"]], "extra": [[[5, "1"], [5, "1"], [7, "1"]]]})
    assert phi.coords[2] == ((5, 2), (7, 1))


@pytest.mark.parametrize("argv", [
    ("lambda", "--branch", '{"n":1,"y":[[0,"5"]]}'),
    ("semigroup", "--branch", '{"n":1,"y":[[0,"5"]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[0,"1"],[3,"1"]]}',
     "--form", '{"d":[["x",[]],["y",[[0,0,"1"]]]]}'),
    ("eval-form", "--branch", '{"n":0,"y":[[3,"1"]]}',
     "--form", '{"d":[["x",[]],["y",[[0,0,"1"]]]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
     "--branch", '{"n":2,"y":[[3,"1"]],"extra":[[[0,"2"],[5,"1"]]]}',
     "--form", '{"d":[["x",[[1,0,"1"]]],["y",[]]]}'),
])
def test_a_branch_off_the_origin_is_a_usage_error(capsys, argv):
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out["error"] == "usage"
    assert "constant term" in out["detail"]


def test_eval_form_single_and_multi(capsys):
    form = ('{"d":[["x",[[0,1,"-7"]]],["y",[[1,0,"3"]]]]}')
    code, out = invoke(capsys, "eval-form",
                       "--branch", '{"n":6,"y":[[14,"1"],[17,"1"]],"extra":[[[39,"1"]]]}',
                       "--form",
                       '{"d":[["x",[[0,1,0,"-7"]]],["y",[[1,0,0,"3"]]],["z",[]]]}',
                       "--precision", "60")
    assert code == 0
    assert out["value"] == 23

    code, out = invoke(capsys, "eval-form",
                       "--branch", '{"n":2,"y":[[3,"1"],[4,"1"]]}',
                       "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", '{"d":[["x",[[0,1,"3"],[1,1,"-4"],[2,0,"-3"],'
                                 '[3,0,"4"]]],["y",[[1,0,"-2"],[0,1,"2"],'
                                 '[2,0,"-2"]]]]}')
    assert code == 0
    assert out["values"] == [6, 7]


def test_eval_form_multi_is_exact_above_the_old_precision(capsys):
    # x^40 dx has value 82 on both branches, above any fixed precision of 60
    code, out = invoke(capsys, "eval-form",
                       "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--branch", '{"n":2,"y":[[3,"1"],[4,"1"]]}',
                       "--form", '{"d":[["x",[[40,0,"1"]]],["y",[]]]}')
    assert code == 0
    assert out == {"values": [82, 82]}


def test_eval_form_multi_identically_zero(capsys):
    # 3y dx - 2x dy vanishes identically on (t^2, t^3)
    code, out = invoke(capsys, "eval-form",
                       "--branch", '{"n":2,"y":[[3,"1"],[4,"1"]]}',
                       "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", '{"d":[["x",[[0,1,"3"]]],["y",[[1,0,"-2"]]]]}')
    assert code == 1
    assert out["detail"] == "form pulls back to zero on branch 1"


def test_readme_eval_form_example(capsys):
    code, out = invoke(capsys, "eval-form",
                       "--branch", '{"n":2,"y":[[3,"1"],[4,"1"]]}',
                       "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", '{"d":[["x",[[0,1,"3"],[3,0,"1"]]],'
                                 '["y",[[1,0,"-2"]]]]}')
    assert code == 0
    assert out == {"values": [6, 8]}


def test_eval_form_vanishing_pullback(capsys):
    code, out = invoke(capsys, "eval-form",
                       "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", '{"d":[["x",[[2,0,"-3"]]],["y",[[0,1,"2"]]]]}')
    assert code == 0
    assert out["value"] is None
    assert out["above_precision"] > 0


@pytest.mark.parametrize("precision", ["-3", "0", "1"])
def test_eval_form_rejects_nonpositive_precision(capsys, precision):
    form = '{"d":[["x",[[1,0,"1"]]],["y",[]]]}'
    code, out = invoke(capsys, "eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", form, "--precision", precision)
    assert code == 2
    assert out["error"] == "usage"
    code, out = invoke(capsys, "eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--branch", '{"n":2,"y":[[3,"1"],[4,"1"]]}',
                       "--form", form, "--precision", precision)
    assert code == 2
    assert out["error"] == "usage"


@pytest.mark.parametrize("dx", ['[[-1,0,"1"]]', '[["a",0,"1"]]', '5'])
def test_eval_form_rejects_malformed_polynomials(capsys, dx):
    code, out = invoke(capsys, "eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", '{"d":[["x",%s],["y",[]]]}' % dx)
    assert code == 2
    assert out["error"] == "usage"


def test_stratify_command(capsys):
    code, out = invoke(capsys, "stratify", "--gens", "6,9,19")
    assert code == 0
    assert isinstance(out, list)
    resolved = [s for s in out if s["status"] == "resolved"]
    assert len(resolved) == len(out)
    lams = {json.dumps(s["lambda"], sort_keys=True) for s in out}
    assert len(lams) == 4
    for s in out:
        assert set(s["constraints"]) == {"eq", "neq"}
        assert s["witness"] is not None


def test_decide_command(capsys):
    code, out = invoke(capsys, "decide", "--set",
                       '{"elements":[6,9,12,15,16,17,18,21,22,24,25],"cofinal":27}')
    assert code == 0
    assert out["verdict"] == "no"
    assert out["stage"] == "not-covered"

    code, out = invoke(capsys, "decide", "--set",
                       '{"elements":[6,9,12,15,16,18,19,21,22,24,25],"cofinal":27}')
    assert code == 0
    assert out["verdict"] == "yes"
    assert out["witness"]["n"] == 6


def test_decide_on_the_10_11_set_stops_at_the_first_s_process(capsys):
    # Gamma = <10,11>: 12 is in L but in no Lambda of the class, and the
    # first S-process has value 21, so every run stops at its first pop.
    code, out = invoke(capsys, "decide", "--set", '{"elements":[],"cofinal":10}')
    assert code == 0
    assert (out["verdict"], out["stage"]) == ("no", "no-matching-stratum")
    assert out["gamma"] == [10, 11]


def test_recover_gamma_and_decide_compute_the_apery_profile_once(
        monkeypatch, capsys):
    # the Apery scan is the only caller of ValueSet.up_to
    calls = []
    up_to = ValueSet.up_to

    def counting_up_to(self, bound):
        calls.append(bound)
        return up_to(self, bound)

    monkeypatch.setattr(ValueSet, "up_to", counting_up_to)
    L4 = '{"elements":[6,9,12,15,16,18,19,21,22,24,25],"cofinal":27}'
    for command in ("recover-gamma", "decide"):
        calls.clear()
        code, out = invoke(capsys, command, "--set", L4)
        assert code == 0 and "error" not in out
        assert len(calls) == 1, command


def test_malformed_json_is_usage_error(capsys):
    code, out = invoke(capsys, "lambda", "--branch", "{broken")
    assert code == 2
    assert out["error"] == "usage"


def test_set_from_file(tmp_path, capsys):
    p = tmp_path / "L.json"
    p.write_text('{"elements":[2],"cofinal":4}')
    code, out = invoke(capsys, "recover-gamma", "--set", str(p))
    assert code == 0
    assert out["generators"] == [2, 5]


@pytest.mark.parametrize("name, content, detail", [
    ("missing.json", None, "no such file"),
    ("folder", "dir", "cannot read"),
    ("latin1.json", b'{"n":2,"y":[[3,"\xe9"]]}', "not UTF-8 text"),
])
def test_an_unreadable_input_file_is_a_usage_error(tmp_path, capsys, name, content,
                                                   detail):
    # a path that is missing, a directory or not UTF-8 text gets the usage
    # JSON, not a traceback
    path = tmp_path / name
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    for argv in (("lambda", "--branch", str(path)),
                 ("recover-gamma", "--set", str(path))):
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert out["error"] == "usage" and detail in out["detail"]


def test_unknown_subcommand_is_usage_error(capsys):
    code, out = invoke(capsys, "frobnicate")
    assert code == 2
    assert out["error"] == "usage" and "frobnicate" in out["detail"]


@pytest.mark.parametrize("argv", [
    ("stratify", "--gens", "5,7", "--jobs", "2"),
    ("decide", "--set", '{"elements":[],"cofinal":1}', "--jobs", "2"),
    ("lambda", "--branch", '{"n":2,"y":[[3,"1"]]}', "--precision", "5"),
    ("lambda",),
    ("stratify", "--gens", "5,7", "--max-splits", "many"),
])
def test_argparse_errors_print_the_usage_json(capsys, argv):
    # unknown flags (the removed --jobs and lambda --precision among them),
    # a missing and a malformed argument
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out["error"] == "usage" and out["detail"]


def test_help_is_plain_text_and_exits_zero(capsys):
    assert run(["stratify", "--help"]) == 0
    assert "--max-splits" in capsys.readouterr().out


def run_program(argv, **kwargs):
    """The CLI in a child interpreter that imports this checkout's sources."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "branchforms.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120,
                          **kwargs)


@pytest.mark.parametrize("argv, code", [
    (("semigroup", "--gens", "6,9,19"), 0),
    (("semigroup", "--gens", "4,6"), 1),
    (("stratify", "--gens", "5,7", "--jobs", "2"), 2),
])
def test_the_program_prints_one_json_line(argv, code):
    proc = run_program(argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.endswith("\n") and proc.stdout.count("\n") == 1
    assert isinstance(json.loads(proc.stdout), dict)


@pytest.mark.parametrize("branch, form, value", [
    # a single space branch: no plane semigroup is needed for the length
    ('{"n":6,"y":[[14,"1"],[17,"1"]],"extra":[[[39,"1"]]]}',
     '{"d":[["x",[[0,1,0,"-7"]]],["y",[[1,0,0,"3"]]],["z",[]]]}', 23),
    # x^40 dx on (t^2, t^3): value 82, far above any semigroup-derived length
    ('{"n":2,"y":[[3,"1"]]}', '{"d":[["x",[[40,0,"1"]]],["y",[]]]}', 82),
])
def test_eval_form_single_branch_is_exact(capsys, branch, form, value):
    code, out = invoke(capsys, "eval-form", "--branch", branch, "--form", form)
    assert code == 0
    assert out == {"value": value}


@pytest.mark.parametrize("argv", [
    ("lambda", "--branch", '{"n":2,"y":[[3.7,"1"]]}'),
    ("lambda", "--branch", '{"n":2.9,"y":[[3,"1"]]}'),
    ("lambda", "--branch", '{"n":2,"y":[[true,"1"]]}'),
    ("lambda", "--branch", '{"n":true,"y":[[3,"1"]]}'),
    ("semigroup", "--branch", '{"n":2,"y":[[3,"1"]],"extra":[[[5.5,"1"]]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
     "--form", '{"d":[["x",[[1.5,0,"1"]]],["y",[]]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
     "--form", '{"d":[["x",[[1,false,"1"]]],["y",[]]]}'),
    ("recover-gamma", "--set", '{"elements":[6,9,12,15,16,18,19,21,22],"cofinal":24.9}'),
    ("recover-gamma", "--set", '{"elements":[6.5,9,12,15,16,18,19,21,22],"cofinal":24}'),
    ("decide", "--set", '{"elements":[6,9,12,15,16,18,19,21,22,24,25],"cofinal":true}'),
])
def test_non_integer_json_numbers_are_usage_errors(capsys, argv):
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out["error"] == "usage"


def test_integer_strings_are_still_integers(capsys):
    code, out = invoke(capsys, "lambda", "--branch", '{"n":"2","y":[["3","1"]]}')
    assert code == 0 and out["gamma"] == [2, 3]
    code, out = invoke(capsys, "eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", '{"d":[["x",[["1",0,"1"]]],["y",[]]]}')
    assert code == 0 and out == {"value": 4}
    code, out = invoke(capsys, "recover-gamma", "--set",
                       '{"elements":[6,9,12,15,16,18,19,21,"22"],"cofinal":"24"}')
    assert code == 0 and out["generators"] == [6, 9, 19]


@pytest.mark.parametrize("argv", [
    ("recover-gamma", "--set", '{"elements":"69","cofinal":11}'),
    ("recover-gamma", "--set", '{"elements":{"6":1,"9":1},"cofinal":11}'),
    ("lambda", "--branch", '{"n":2,"y":["31"]}'),
    ("lambda", "--branch", '{"n":2,"y":"31"}'),
    ("lambda", "--branch", '{"n":2,"y":{"3":"1"}}'),
    ("semigroup", "--branch", '{"n":2,"y":[[3,"1"]],"extra":["51"]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
     "--form", '{"d":[["x",["101"]],["y",[]]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
     "--form", '{"d":[["x","101"],["y",[]]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}', "--form", '{"d":["xy"]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}', "--form", '{"d":"xy"}'),
])
def test_json_strings_and_objects_are_not_arrays(capsys, argv):
    # iterating a string would read "69" as [6, 9] and "31" as the term [3, 1]
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out["error"] == "usage"
    assert "expected an array" in out["detail"]


@pytest.mark.parametrize("argv", [
    # 1.0000000000000001 is the double 1.0: a float coefficient would be rounded
    ("lambda", "--branch", '{"n":2,"y":[[3,1.0000000000000001]]}'),
    ("lambda", "--branch", '{"n":2,"y":[[3,0.5]]}'),
    ("lambda", "--branch", '{"n":2,"y":[[3,true]]}'),
    ("semigroup", "--branch", '{"n":2,"y":[[3,"1"]],"extra":[[[5,2.5]]]}'),
    ("semigroup", "--branch", '{"n":2,"y":[[3,"1"]],"extra":[[[5,false]]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
     "--form", '{"d":[["x",[[1,0,0.5]]],["y",[]]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
     "--form", '{"d":[["x",[[1,0,true]]],["y",[]]]}'),
])
def test_float_and_boolean_coefficients_are_usage_errors(capsys, argv):
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out["error"] == "usage"
    assert "bad rational" in out["detail"]


@pytest.mark.parametrize("argv", [
    ("lambda", "--branch", '{"n":2,"y":[[3,"1e300000"]]}'),
    ("lambda", "--branch", '{"n":2,"y":[[3,"1"],[4,"2E-5"]]}'),
    ("eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
     "--form", '{"d":[["x",[[1,0,"3e300000"]]],["y",[]]]}'),
])
def test_exponent_notation_coefficients_are_usage_errors(capsys, argv):
    # Fraction("1e999999999") would spend hours building a 10^9-digit integer
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert out["error"] == "usage"
    assert "exponent notation" in out["detail"]


def test_integer_and_string_coefficients_are_read_exactly(capsys):
    code, out = invoke(capsys, "lambda", "--branch", '{"n":2,"y":[[3,1]]}')
    assert code == 0 and out["gamma"] == [2, 3]
    code, out = invoke(capsys, "eval-form",
                       "--branch", '{"n":6,"y":[[14,"1"],[17,"1"]],"extra":[[[39,-1]]]}',
                       "--form", '{"d":[["x",[[0,1,0,"-7"]]],["y",[[1,0,0,"3"]]],["z",[]]]}')
    assert code == 0 and out == {"value": 23}
    code, out = invoke(capsys, "eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", '{"d":[["x",[[1,0,2]]],["y",[[0,0,"-1/3"]]]]}')
    assert code == 0 and out == {"value": 3}  # (4t^3 - t^2) dt


@pytest.mark.parametrize("gens", ["1", "2,3", "3,4", "3,5"])
def test_parameter_free_classes_report_the_empty_witness(capsys, gens):
    # the family has no parameters, so the empty point is the witness
    code, out = invoke(capsys, "stratify", "--gens", gens)
    assert code == 0
    assert [(s["status"], s["witness"]) for s in out] == [("resolved", {})]


def test_exhausted_memory_is_an_error_json(capsys, monkeypatch):
    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "decide", exhausted)
    code, out = invoke(capsys, "decide", "--set",
                       '{"elements":[],"cofinal":10}')
    assert code == 1
    assert out == {"error": "decide", "detail": "out of memory"}


def test_memory_running_out_in_the_program_prints_the_error_json():
    # Listing the members below a cofinal of 10^8 fills the memory; the
    # JSON must still print once the partial list is released.
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = run_program(["recover-gamma", "--set",
                        '{"elements":[],"cofinal":100000000}'],
                       preexec_fn=limit_memory)
    assert proc.returncode == 1
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": "recover-gamma",
                                       "detail": "out of memory"}
    assert "Traceback" not in proc.stderr


HUGE = 10000000000000000000
HUGE_BRANCH = json.dumps({"n": 2, "y": [[HUGE + 1, "1"]]})
HUGE_SET = json.dumps({"elements": [HUGE], "cofinal": HUGE + 1})
X_DX = '{"d":[["x",[[%d,0,"1"]]],["y",[]]]}'


@pytest.mark.parametrize("argv", [
    ["semigroup", "--gens", f"{HUGE},{HUGE + 1}"],
    ["semigroup", "--branch", HUGE_BRANCH],
    ["lambda", "--branch", HUGE_BRANCH],
    ["eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}', "--precision", str(HUGE),
     "--form", X_DX % 1],
    ["eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}', "--form", X_DX % 2 ** 31],
    ["recover-gamma", "--set", HUGE_SET],
    ["decide", "--set", HUGE_SET],
], ids=["semigroup-gens", "semigroup-branch", "lambda", "eval-form-precision",
        "eval-form-exponent", "recover-gamma", "decide"])
def test_numbers_too_large_are_an_error_json(capsys, argv):
    code, out = invoke(capsys, *argv)
    assert code == 1
    assert out == {"error": argv[0], "detail": "number too large"}


def test_large_form_exponent_below_the_bound_is_evaluated(capsys):
    code, out = invoke(capsys, "eval-form", "--branch", '{"n":2,"y":[[3,"1"]]}',
                       "--form", X_DX % 1000000)
    assert code == 0
    assert out == {"value": 2000002}
