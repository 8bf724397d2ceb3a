"""One library workload in a fresh interpreter.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

Run from the root of a checkout with its `src` on PYTHONPATH.  Set-up is
`import branchforms` plus the `import sympy` that the first parametric call
would trigger.  Then whole rounds run until S seconds have passed; each
round's time is one sample of wall_s.  With --trace 1 two more rounds run
under the span tracer.  Answers are checked after all timing is done.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _run_round(ops, tracer=None):
    """Every op once: (round seconds, [seconds per op], outcomes)."""
    outcomes, op_s = [], []
    clock = time.perf_counter
    start = clock()
    for op in ops:
        t0 = clock()
        try:
            if tracer is None:
                outcomes.append((True, op.call()))
            else:
                outcomes.append((True, tracer.span("op", op.call)))
        except Exception as exc:  # an answer of its own, checked below
            outcomes.append((False, exc))
        op_s.append(clock() - t0)
    return clock() - start, op_s, outcomes


def _key(op, outcome):
    ok, value = outcome
    return op.key(value) if ok else ("raised", type(value).__name__, str(value))


def _check(op, outcome):
    """Problems with one answer; empty when it passed."""
    ok, value = outcome
    if not ok:
        return [f"raised {type(value).__name__}: {value}"]
    try:
        return op.check(value)
    except Exception as exc:  # a malformed answer can break a check
        return [f"check raised {type(exc).__name__}: {exc}"]


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import branchforms
    import sympy  # noqa: F401  (the lazy import of the first parametric call)
    setup_s = time.perf_counter() - start

    src = os.path.join(os.getcwd(), "src") + os.sep
    if not os.path.abspath(branchforms.__file__).startswith(src):
        print(f"branchforms imported from {branchforms.__file__}, not {src}",
              file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import workloads
    ops = workloads.WORKLOADS[args.workload](args.seed)

    round_times, op_times = [], []
    first = None
    mismatched = 0
    began = time.perf_counter()
    while True:
        elapsed, op_s, outcomes = _run_round(ops)
        round_times.append(elapsed)
        op_times.append(op_s)
        if first is None:
            first = outcomes
            first_keys = [_key(op, o) for op, o in zip(ops, outcomes)]
        else:
            mismatched += sum(_key(op, o) != k
                              for op, o, k in zip(ops, outcomes, first_keys))
        if time.perf_counter() - began >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rounds = len(round_times)

    trace = None
    if args.trace:
        import spans
        summaries, traced_times = [], []
        for rep in range(2):
            tracer = spans.Tracer()
            tracer.install()
            try:
                elapsed, _, outcomes = _run_round(ops, tracer)
            finally:
                tracer.uninstall()
            traced_times.append(elapsed)
            mismatched += sum(_key(op, o) != k
                              for op, o, k in zip(ops, outcomes, first_keys))
            if rep == 0:
                tracer.write(os.path.join(
                    args.out, f"trace-{args.workload}-seed{args.seed}.json"))
            summaries.append(tracer.summary())
            rounds += 1
        trace = {"round_s": traced_times, "summaries": summaries}

    failed_ops, known, problems = 0, 0, []
    for op, outcome in zip(ops, first):
        bad = _check(op, outcome)
        if bad:
            is_known = outcome[0] and workloads.fault_matches(op, outcome[1])
            failed_ops += 1
            known += is_known
            problems.append({"op": op.label, "known_fault": is_known,
                             "problems": bad[:5]})
    result = {
        "setup_s": setup_s,
        "round_s": round_times,
        "op_s": op_times,
        "wall_s": statistics.median(round_times),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_round": len(ops),
        "attempted": rounds * len(ops),
        "failed": rounds * failed_ops + mismatched,
        "unexpected": failed_ops - known + mismatched,
        "problems": problems,
        "trace": trace,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
