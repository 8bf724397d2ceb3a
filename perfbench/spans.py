"""Span tracing of branchforms from outside the program.

`Tracer.install()` replaces each traced name, in the module or class where
its callers look it up, by a wrapper that records one span per call: name,
start, end and the enclosing span.  Spans are kept in memory (one array per
column) and written out by `Tracer.write()`.  Per name the tracer also sums
calls, whole duration and self time (the duration minus the time its child
spans cover).  `uninstall()` puts the original objects back.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array

# (span name, places where callers look the traced object up).  A place is
# "module:attribute" or "module:Class.attribute".
SPANS = (
    ("op", ()),  # one operation of a workload, opened by the benchmark
    ("semigroup.membership",
     ("branchforms.semigroup:NumericalSemigroup.membership",)),
    ("series.mul", ("branchforms.series:TruncatedSeries.__mul__",)),
    ("series.scale", ("branchforms.series:TruncatedSeries.scale",)),
    ("poly.mul", ("branchforms.poly:Poly.__mul__",)),
    ("params.mul", ("branchforms.params:ParamPoly.__mul__",)),
    ("params.factor", ("branchforms.strata:irreducible_factors",)),
    ("branch.sb", ("branchforms.forms:standard_basis_of_ring",
                   "branchforms.strata:standard_basis_of_ring")),
    ("forms.core", ("branchforms.forms:algorithm1_core",
                    "branchforms.strata:algorithm1_core")),
    ("forms.reduce", ("branchforms.forms:reduce_form",)),
    ("forms.sproc", ("branchforms.forms:minimal_s_processes",)),
    ("strata.oracle", ("branchforms.strata:ConstraintOracle.is_zero",)),
    ("strata.run", ("branchforms.strata:_run_once",)),
    ("strata.witness", ("branchforms.strata:algorithm1_lambda",)),
    ("stratify", ("branchforms.strata:stratify", "branchforms.cli:stratify")),
    ("valueset.gates", ("branchforms.decider:is_covered",
                        "branchforms.decider:epsilon_eta",
                        "branchforms.decider:b_sets")),
    ("decider.stratify", ("branchforms.decider:stratify",)),
    ("decider.validate", ("branchforms.decider:algorithm1_lambda",)),
)

# Spans whose metric is their whole duration: their children are the kernel
# spans above, so their self time would hide the cost of the phase.
PHASES = ("strata.witness", "decider.stratify", "decider.validate")


def _resolve(place):
    module_name, path = place.split(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names = [name for name, _ in SPANS]
        self.ids = {name: i for i, name in enumerate(self.names)}
        n = len(self.names)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self.counters = {"forms.reduce.kept": 0, "strata.runs_aborted": 0,
                         "strata.aborted.s": 0.0, "strata.strata": 0,
                         "strata.unresolved": 0}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []          # [span index, time covered by children]
        self._patched = []        # (owner, attribute, original)

    # -- recording --------------------------------------------------------------

    def _hook(self, name):
        if name == "forms.reduce":
            def kept(result, failed, _dur):
                if not failed and result is not None:
                    self.counters["forms.reduce.kept"] += 1
            return kept
        if name == "strata.run":
            def aborted(_result, failed, dur):
                if failed:
                    self.counters["strata.runs_aborted"] += 1
                    self.counters["strata.aborted.s"] += dur
            return aborted
        if name in ("stratify", "decider.stratify"):
            def report(result, failed, _dur):
                if not failed:
                    self.counters["strata.strata"] += len(result.strata)
                    self.counters["strata.unresolved"] += sum(
                        s.status != "resolved" for s in result.strata)
            return report
        return None

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span; used for the benchmark's own operations."""
        return self._wrap(self.ids[name], fn, None)(*args, **kwargs)

    def _wrap(self, nid, fn, hook):
        clock = time.perf_counter
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, total, self_time = self.calls, self.total, self.self_time

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0]
            stack.append(frame)
            failed = True
            result = None
            t0 = clock()
            starts.append(t0)
            ends.append(t0)
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                ends[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if hook is not None:
                    hook(result, failed, dur)

        return traced

    # -- patching ---------------------------------------------------------------

    def install(self):
        for name, places in SPANS:
            nid = self.ids[name]
            for place in places:
                owner, attr = _resolve(place)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(nid, original, self._hook(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def summary(self):
        """calls, whole duration and self time per span name, plus counters."""
        spans = {name: {"calls": self.calls[i], "total_s": self.total[i],
                        "self_s": self.self_time[i]}
                 for i, name in enumerate(self.names)}
        return {"spans": spans, "counters": dict(self.counters),
                "span_count": len(self.span_start)}

    def write(self, path):
        """Summary as JSON in path; spans as four little-endian columns in
        path + '.spans' (name id u16, parent i64, start f64, end f64, each
        column whole before the next), names listed in the JSON."""
        with open(path + ".spans", "wb") as fh:
            for column in (self.span_name, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(fh)
        doc = self.summary()
        doc["names"] = self.names
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)


def merge(summaries):
    """Sum several tracer summaries (one per traced process)."""
    out = {"spans": {}, "counters": {}, "span_count": 0}
    for s in summaries:
        out["span_count"] += s["span_count"]
        for name, rec in s["spans"].items():
            acc = out["spans"].setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += rec[key]
        for key, value in s["counters"].items():
            out["counters"][key] = out["counters"].get(key, 0) + value
    return out


def layer_metrics(summary):
    """The per-layer metrics named in BENCHMARK.json, from a summary.

    A `.s` metric is the span's self time, except for the phases in PHASES
    and for strata.aborted.s, which are whole durations."""
    spans = summary["spans"]
    c = summary["counters"]

    def calls(name):
        return spans[name]["calls"]

    def secs(name):
        key = "total_s" if name in PHASES else "self_s"
        return spans[name][key]

    reduce_calls = calls("forms.reduce")
    out = {
        "semigroup.membership.calls": (calls("semigroup.membership"), "count"),
        "series.mul.calls": (calls("series.mul"), "count"),
        "series.mul.s": (secs("series.mul"), "s"),
        "series.scale.calls": (calls("series.scale"), "count"),
        "series.scale.s": (secs("series.scale"), "s"),
        "poly.mul.calls": (calls("poly.mul"), "count"),
        "poly.mul.s": (secs("poly.mul"), "s"),
        "params.mul.calls": (calls("params.mul"), "count"),
        "params.mul.s": (secs("params.mul"), "s"),
        "params.factor.calls": (calls("params.factor"), "count"),
        "params.factor.s": (secs("params.factor"), "s"),
        "branch.sb.calls": (calls("branch.sb"), "count"),
        "branch.sb.s": (secs("branch.sb"), "s"),
        "forms.core.calls": (calls("forms.core"), "count"),
        "forms.core.s": (secs("forms.core"), "s"),
        "forms.reduce.calls": (reduce_calls, "count"),
        "forms.reduce.kept": (c["forms.reduce.kept"], "count"),
        "forms.reduce.kept_ratio": (
            c["forms.reduce.kept"] / reduce_calls if reduce_calls else 0.0,
            "ratio"),
        "forms.reduce.s": (secs("forms.reduce"), "s"),
        "forms.sproc.s": (secs("forms.sproc"), "s"),
        "strata.oracle.calls": (calls("strata.oracle"), "count"),
        "strata.runs": (calls("strata.run"), "count"),
        "strata.runs_aborted": (c["strata.runs_aborted"], "count"),
        "strata.aborted.s": (c["strata.aborted.s"], "s"),
        "strata.witness.calls": (calls("strata.witness"), "count"),
        "strata.witness.s": (secs("strata.witness"), "s"),
        "strata.strata": (c["strata.strata"], "count"),
        "strata.unresolved": (c["strata.unresolved"], "count"),
        "valueset.gates.s": (secs("valueset.gates"), "s"),
        "decider.stratify.s": (secs("decider.stratify"), "s"),
        "decider.validate.s": (secs("decider.validate"), "s"),
    }
    return out

