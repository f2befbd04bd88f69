"""Spans around the program's public functions, recorded from outside.

:meth:`Tracer.install` rebinds each function listed in ``TARGETS`` to a
wrapper, in its own module and in every ``adtsched`` namespace that
imported it, so calls made inside the package are seen too.  Nothing in the
program is edited.  A span is ``[name, start, end, parent, analysis,
wrap]``; ``wrap`` is the wrapper's own time around the call (including the
counters it reads), which is charged to tracing rather than to the caller.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, ANALYSIS, WRAP = range(6)


def _seq_steps(dag) -> int:
    return sum(1 for x in dag.nodes if x.kind.value == "seq")


def _count_lines(t, args, result):
    t.add("parser.lines", args[0].count("\n") + 1)


def _count_calls(key):
    def count(t, args, result):
        t.add(key, 1)
    return count


def _count_dag_nodes(t, args, result):
    t.add("preprocess.dag_nodes", len(result.nodes))


def _count_copied(t, args, result):
    t.add("preprocess.copied_nodes", len(result.nodes))


def _count_configs(t, args, result):
    t.add("preprocess.defence_configs", len(result))


def _count_cases(t, args, result):
    t.add("preprocess.cases", len(result))


def _count_or_variants(t, args, result):
    t.add("preprocess.or_variants", len(result))
    t.add("preprocess.variant_unit_steps",
          sum(_seq_steps(v.dag) for v in result if v.feasible))


def _count_bounds(t, args, result):
    t.add("scheduler.bounded_variants", 1)
    t.add("scheduler.bound_gap_sum", result.upper - result.lower)


def _after_min_schedule(t, args, result):
    """Counts proof status, then checks every assignment with the
    program's own ``verify_schedule`` (a span of its own)."""
    for r in result:
        if r.bounds is None:
            continue
        t.add("scheduler.certified", int(r.agents == r.bounds.lower + 1))
        problems = t.verify(r.variant.dag, r.slots, r.agents)
        if problems:
            t.violations.append("%s: %s" % (problems[0].kind,
                                            problems[0].message))


# (module, function, span name, counter run after the call)
TARGETS = [
    ("adtsched.cli", "main", "cli.main", None),
    ("adtsched.parser", "parse_adt", "parser.parse_adt", _count_lines),
    ("adtsched.model", "validate_adt", "model.validate_adt",
     _count_calls("model.validate_adt_calls")),
    ("adtsched.preprocess", "preprocess_cases", "preprocess.preprocess_cases",
     _count_cases),
    ("adtsched.preprocess", "normalize_time", "preprocess.normalize_time",
     None),
    ("adtsched.preprocess", "expand_sand", "preprocess.expand_sand",
     _count_dag_nodes),
    ("adtsched.preprocess", "copy_dag", "preprocess.copy_dag", _count_copied),
    ("adtsched.preprocess", "enumerate_defence_variants",
     "preprocess.enumerate_defence_variants", _count_configs),
    ("adtsched.preprocess", "defence_signature",
     "preprocess.defence_signature", None),
    ("adtsched.preprocess", "apply_defence_config",
     "preprocess.apply_defence_config", None),
    ("adtsched.preprocess", "enumerate_or_variants",
     "preprocess.enumerate_or_variants", _count_or_variants),
    ("adtsched.preprocess", "canonical_form", "preprocess.canonical_form",
     _count_calls("preprocess.canonical_form_calls")),
    ("adtsched.scheduler", "min_schedule", "scheduler.min_schedule",
     _after_min_schedule),
    ("adtsched.scheduler", "compute_bounds", "scheduler.compute_bounds",
     _count_bounds),
    ("adtsched.scheduler", "schedule_candidate",
     "scheduler.schedule_candidate", _count_calls("scheduler.probes")),
    ("adtsched.scheduler", "zero_assign", "scheduler.zero_assign", None),
    ("adtsched.scheduler", "verify_schedule", "scheduler.verify_schedule",
     None),
    ("adtsched.report", "render_table", "report.render_table", None),
    ("adtsched.report", "to_json", "report.to_json", None),
    ("adtsched.report", "variant_cost", "report.variant_cost", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.analysis = -1
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.violations: list = []
        self.verify = None
        self._restore: list = []

    def add(self, key, value):
        self.counts[self.analysis][key] += value

    def _wrap(self, fn, name, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    self.analysis, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            nested = len(spans)
            if count is not None:
                count(self, args, result)
            # spans opened by the counter are siblings with their own times
            inner = sum(s[END] - s[START] + s[WRAP]
                        for s in spans[nested:] if s[PARENT] == span[PARENT])
            span[WRAP] = (span[START] - t0) + (clock() - span[END]) - inner
            return result

        return wrapper

    def install(self):
        """Rebind every target in all loaded ``adtsched`` namespaces."""
        spaces = [m for n, m in sorted(sys.modules.items())
                  if n == "adtsched" or n.startswith("adtsched.")]
        for module, attr, name, count in TARGETS:
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(original, name, count)
            if attr == "verify_schedule":
                self.verify = wrapper
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        setattr(space, key, wrapper)
                        self._restore.append((space, key, original))

    def uninstall(self):
        for space, key, original in reversed(self._restore):
            setattr(space, key, original)
        self._restore.clear()

    def self_times(self):
        """analysis -> span name -> self seconds, and analysis -> wrapper
        seconds.  Self time is a span's duration minus the time its child
        spans (and their wrappers) cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START] + s[WRAP]
        selfs = defaultdict(lambda: defaultdict(float))
        wraps = defaultdict(float)
        for i, s in enumerate(self.spans):
            selfs[s[ANALYSIS]][s[NAME]] += s[END] - s[START] - child[i]
            wraps[s[ANALYSIS]] += s[WRAP]
        return selfs, wraps

    def root_time(self):
        """analysis -> duration plus wrapper time of its top-level spans."""
        out = defaultdict(float)
        for s in self.spans:
            if s[PARENT] < 0:
                out[s[ANALYSIS]] += s[END] - s[START] + s[WRAP]
        return out

    def write(self, path):
        """Spans as tab-separated text, one per line, times in ns from the
        first span's start."""
        base = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write("index\tname\tstart_ns\tend_ns\tparent\tanalysis\t"
                      "wrap_ns\n")
            for i, s in enumerate(self.spans):
                out.write("%d\t%s\t%d\t%d\t%d\t%d\t%d\n" % (
                    i, s[NAME], (s[START] - base) * 1e9,
                    (s[END] - base) * 1e9, s[PARENT], s[ANALYSIS],
                    s[WRAP] * 1e9))
