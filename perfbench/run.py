"""Benchmark of branchforms: four workloads, answers checked apart from the
program, layers timed from outside.

Run from the root of a checkout (no install needed; `src` goes on
PYTHONPATH of every child interpreter):

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Workloads: lambda-corpus, stratify-classes, decide-mix (each in one fresh
worker interpreter, see worker.py) and cli (one `python -m branchforms.cli`
call at a time).  Every run also measures set-up in SETUP_SAMPLES fresh
interpreters, and a library run ends with PROBE_CYCLES cycles of CLI
calls for the cli_* metrics.  Only one child interpreter is alive at any time.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1).  Details of each run go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import spans  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("lambda-corpus", "stratify-classes", "decide-mix", "cli")
SETUP_SAMPLES = 5
PROBE_CYCLES = 2
CHILD_TIMEOUT = 170
LAYER_SAMPLES = 3

RUNNING_BRANCH = {"n": 6, "y": [[9, "1"], [10, "1"], [11, "-1/2"]]}
RUNNING_ROW = checks.RUNNING_EXAMPLE[2][1]
# 7y dx - 4x dy on (t^4, t^7 + t^9): 7(t^7 + t^9) 4t^3 - 4t^4 (7t^6 + 9t^8)
# = -8 t^12, so its value is 13.
EVAL_BRANCH = '{"n":4,"y":[[7,"1"],[9,"1"]]}'
EVAL_FORM = '{"d":[["x",[[0,1,"7"]]],["y",[[1,0,"-4"]]]]}'
EVAL_VALUE = 13


def _set_json(vs):
    return json.dumps({"elements": list(vs[0]), "cofinal": vs[1]})


# -- children ---------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv):
    """Run one child interpreter to its end: (exit code, stdout, seconds,
    peak RSS in MB).  stderr passes through."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable] + argv, stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), seconds, usage.ru_maxrss / 1024


def last_json(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def setup_seconds():
    """Median set-up time over SETUP_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        code, out, _, _ = run_child([os.path.join(BENCH, "worker.py"),
                                     "--setup-only"])
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}")
        samples.append(last_json(out)["setup_s"])
    return statistics.median(samples), samples


# -- the cli workload -----------------------------------------------------------------


def _reply_problems(code, out, check):
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        return [f"stdout is not one JSON document: {exc}"]
    try:
        return check(doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed reply: {exc!r}"]


def _expect(cond, message):
    return [] if cond else [message]


def _check_semigroup(doc):
    return _expect(doc["generators"] == [6, 9, 19]
                   and doc["conductor"] == checks.free_conductor((6, 9, 19)),
                   f"semigroup reply {doc}")


def _check_lambda(doc):
    branch = (6, {e: Fraction(c) for e, c in RUNNING_BRANCH["y"]})
    lam = (tuple(doc["lambda"]["elements"]), doc["lambda"]["cofinal"])
    row = checks.lambda_minus_gamma(*branch, lam)
    return (_expect(doc["gamma"] == [6, 9, 19], f"gamma {doc['gamma']}")
            + _expect(row == RUNNING_ROW, f"row {row}, expected {RUNNING_ROW}"))


def _check_recover(doc):
    return _expect(doc["covered"] is True and doc["generators"] == [6, 9, 19],
                   f"recover-gamma reply {doc}")


def _check_eval(doc):
    return _expect(doc == {"value": EVAL_VALUE},
                   f"eval-form reply {doc}, want {EVAL_VALUE}")


def _check_decide_l1(doc):
    return checks.check_decision((doc["verdict"], doc["stage"], doc["evidence"]),
                                 "no", "not-covered", ("23",))


def _check_stratify(doc):
    problems = _expect(len(doc) >= 1, "no strata")
    for s in doc:
        if s["status"] != "resolved" or s["witness"] is None:
            problems.append(f"stratum {s['constraints']} is {s['status']}")
            continue
        lam = (tuple(s["lambda"]["elements"]), s["lambda"]["cofinal"])
        problems.extend(checks.structural_problems((5, 7), lam))
    return problems


def _check_decide_l4(doc):
    problems = checks.check_decision(
        (doc["verdict"], doc["stage"], doc["evidence"]), "yes", "matched")
    w = doc["witness"]
    gens = checks.semigroup_generators(w["n"], [e for e, _ in w["y"]])
    return (problems + _expect(doc.get("gamma") == [6, 9, 19], "gamma")
            + _expect(gens == (6, 9, 19), f"witness semigroup {gens}"))


# (metric the latency feeds, CLI arguments, check of the reply)
CLI_CALLS = [
    ("cli_light_ms", ["semigroup", "--gens", "6,9,19"], _check_semigroup),
    ("cli_light_ms", ["lambda", "--branch", json.dumps(RUNNING_BRANCH)],
     _check_lambda),
    ("cli_light_ms", ["recover-gamma", "--set", _set_json(checks.L4)],
     _check_recover),
    ("cli_light_ms", ["eval-form", "--branch", EVAL_BRANCH, "--form", EVAL_FORM],
     _check_eval),
    ("cli_light_ms", ["decide", "--set", _set_json(checks.L1)],
     _check_decide_l1),
    ("cli_stratify_ms", ["stratify", "--gens", "5,7"], _check_stratify),
    ("cli_decide_ms", ["decide", "--set", _set_json(checks.L4)],
     _check_decide_l4),
]


def cli_cycle(trace_prefix=None):
    """Every CLI call once, traced into trace_prefix-<call>.json when given.
    Returns (seconds, [(metric, ms, rss_mb, problems, label)], trace
    summaries)."""
    records, summaries = [], []
    start = time.perf_counter()
    for i, (metric, args, check) in enumerate(CLI_CALLS):
        if trace_prefix is None:
            argv = ["-m", "branchforms.cli"] + args
        else:
            path = f"{trace_prefix}-{i}.json"
            argv = [os.path.join(BENCH, "tracecli.py"), path] + args
        code, out, seconds, rss = run_child(argv)
        records.append((metric, 1000 * seconds, rss,
                        _reply_problems(code, out, check), args[0]))
        if trace_prefix is not None:
            with open(path, encoding="utf-8") as fh:
                summaries.append(json.load(fh))
    return time.perf_counter() - start, records, summaries


def cli_metrics(records):
    out = {}
    for metric in ("cli_light_ms", "cli_stratify_ms", "cli_decide_ms"):
        out[metric] = statistics.median(ms for m, ms, *_ in records if m == metric)
    return out


def layer_cli_metrics():
    """cli.interp_ms, cli.import_ms, cli.sympy_ms: median wall time of a bare
    interpreter, `import branchforms.cli` and `import sympy`, each started
    fresh LAYER_SAMPLES times."""
    out = {}
    for metric, code in (("cli.interp_ms", "pass"),
                         ("cli.import_ms", "import branchforms.cli"),
                         ("cli.sympy_ms", "import sympy")):
        samples = []
        for _ in range(LAYER_SAMPLES):
            status, _, seconds, _ = run_child(["-c", code])
            if status != 0:
                raise RuntimeError(f"{code!r} exited {status}")
            samples.append(1000 * seconds)
        out[metric] = (statistics.median(samples), "ms")
    return out


# -- one workload run -------------------------------------------------------------------


def run_library(workload, seed, seconds, trace):
    code, out, _, _ = run_child([os.path.join(BENCH, "worker.py"),
                                 "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace),
                                 "--out", OUT])
    result = last_json(out) if code == 0 else None
    if result is None:
        raise RuntimeError(f"{workload} worker exited {code}")
    return result


def run_workload(workload, seed, seconds, trace):
    """One run: returns (result JSON object, details for the out file)."""
    setup_s, setup_samples = setup_seconds()
    details = {"workload": workload, "seed": seed, "seconds": seconds,
               "trace": trace, "setup_samples": setup_samples}
    problems = []
    if workload == "cli":
        cycles, records = [], []
        began = time.perf_counter()
        while True:
            elapsed, recs, _ = cli_cycle()
            cycles.append(elapsed)
            records.extend(recs)
            if time.perf_counter() - began >= seconds:
                break
        attempted = len(records)
        failed = sum(bool(r[3]) for r in records)
        problems = [{"op": r[4], "problems": r[3]} for r in records if r[3]]
        wall_s = statistics.median(cycles)
        end_to_end = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                      "peak_rss_mb": (max(r[2] for r in records), "MB")}
        probe = records
        unexpected = failed
        details["cycle_s"] = cycles
    else:
        result = run_library(workload, seed, seconds, trace)
        attempted, failed = result["attempted"], result["failed"]
        unexpected = result["unexpected"]
        problems = result["problems"]
        wall_s = result["wall_s"]
        end_to_end = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                      "peak_rss_mb": (result["peak_rss_mb"], "MB")}
        details["round_s"] = result["round_s"]
        details["op_s"] = result["op_s"]
        details["worker_setup_s"] = result["setup_s"]
        probe = []
        if not trace:
            for _ in range(PROBE_CYCLES):
                probe.extend(cli_cycle()[1])
            for r in probe:
                if r[3]:
                    unexpected += 1
                    problems.append({"op": "cli " + r[4], "problems": r[3]})

    if trace:
        metrics = layer_cli_metrics()
        if workload == "cli":
            runs = [cli_cycle(os.path.join(OUT, f"trace-cli-seed{seed}-c{k}"))
                    for k in range(2)]
            traced_s = [r[0] for r in runs]
            summaries = [spans.merge(r[2]) for r in runs]
            for r in runs:
                bad = sum(bool(rec[3]) for rec in r[1])
                attempted += len(r[1])
                failed += bad
                unexpected += bad
        else:
            traced_s = result["trace"]["round_s"]
            summaries = result["trace"]["summaries"]
        layers = [spans.layer_metrics(s) for s in summaries]
        metrics.update(layers[0])
        metrics["trace.wall_s"] = (traced_s[0], "s")
        metrics["trace.overhead_s"] = (traced_s[0] - wall_s, "s")
        metrics["trace.spans"] = (summaries[0]["span_count"], "count")
        metrics["trace.count_diffs"] = (
            sum(v != layers[1][k] for k, v in layers[0].items()
                if v[1] == "count"), "count")
        details["traced_s"] = traced_s
    else:
        metrics = dict(end_to_end)
        for name, value in cli_metrics(probe).items():
            metrics[name] = (value, "ms")
        details["cli_calls"] = [(r[0], r[4], r[1], r[2]) for r in probe]

    details["problems"] = problems
    doc = {"correct": unexpected == 0, "attempted": attempted,
           "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return doc, details


# -- main ----------------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "branchforms", "__init__.py")):
        print(f"no branchforms sources under {SRC}; run from the root of a "
              f"checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    docs = {}
    for name in names:
        doc, details = run_workload(name, args.seed, args.seconds, args.trace)
        docs[name] = doc
        details["result"] = doc
        path = os.path.join(
            OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(details, fh, indent=1)
        for p in details["problems"]:
            print(f"{name}: {p}", file=sys.stderr)
        print(f"[{name}] attempted {doc['attempted']} failed {doc['failed']} "
              f"correct {doc['correct']}")
        for metric, m in doc["metrics"].items():
            print(f"[{name}] {metric} = {m['value']:.6g} {m['unit']}")
    if len(docs) == 1:
        print(json.dumps(next(iter(docs.values()))))
    else:
        print(json.dumps({"correct": all(d["correct"] for d in docs.values()),
                          "attempted": sum(d["attempted"] for d in docs.values()),
                          "failed": sum(d["failed"] for d in docs.values()),
                          "workloads": docs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
