"""Run one workload in this interpreter and print its figures as one JSON
line.  Started by ``run.py`` in a fresh interpreter per workload; see
README.md for what is measured.

    python3 perfbench/worker.py ROOT WORKLOAD SEED SECONDS TRACE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import reference
import workloads
from tracer import Tracer

SCHEDULER_KEYS = (
    "compute_bounds_ms", "bound_gap", "schedule_candidate_ms", "probes",
    "probes_per_variant", "zero_assign_ms", "min_schedule_self_ms",
    "certified_frac",
)
GROUPS = ("tight", "relaxed")


def load_program(root: Path):
    """Import adtsched from the checkout's src/ and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import adtsched
    import adtsched.cli
    where = Path(adtsched.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit("adtsched imported from %s, not %s" % (where, src))
    return adtsched


class Loop:
    """Closed loop over the workload's inputs: one client, and the next
    analysis starts when the previous one has returned."""

    def __init__(self, program, inputs, workdir: Path):
        # main is looked up on every call, because tracing rebinds it
        self.cli = program.cli
        self.inputs = inputs
        self.argv = []
        for i, item in enumerate(inputs):
            path = workdir / ("%04d.adt" % i)
            path.write_text(item.text)
            self.argv.append(["schedule", str(path)] + item.flags)
        self.outputs = {}  # (input, output digest) -> output text

    def run_one(self, i):
        out, err = io.StringIO(), io.StringIO()
        clock = time.perf_counter
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = self.cli.main(self.argv[i])
            except Exception as exc:  # a crash is a failed analysis
                code = exc
            elapsed = clock() - t0
        text = out.getvalue()
        if code == 0:
            status = "ok"
        elif isinstance(code, Exception):
            status = "%s: %s" % (" ".join(raised_at(code)), code)
        else:
            status = "exit code %s: %s" % (code, err.getvalue().strip()[:200])
        digest = hashlib.sha1(text.encode()).hexdigest()
        if status == "ok":
            self.outputs.setdefault((i, digest), text)
        return elapsed, status, digest, len(text.encode())

    def cycle(self, records, tracer=None):
        """Analyse every input once, appending (input, seconds, status,
        digest, out bytes) to ``records``; returns the cycle's wall time."""
        t0 = time.perf_counter()
        for i in range(len(self.inputs)):
            if tracer is not None:
                tracer.analysis = len(records)
            records.append((i,) + self.run_one(i))
        return time.perf_counter() - t0


def raised_at(exc):
    """Exception type, file (with its package directory) and function of
    the frame that raised ``exc``."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    path = Path(frame.filename)
    return (type(exc).__name__, "%s/%s" % (path.parent.name, path.name),
            frame.name)


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def check_outputs(loop, program, records, known):
    """Reference-check every distinct output; returns failing analyses as
    (input, problem) and the number of those that are not among the
    workload's ``known`` failures (status prefixes; empty when none)."""
    verdict = {}
    for (i, digest), text in loop.outputs.items():
        # known problems sort last, so a status starts with the known
        # prefix only when every problem of the output is known
        verdict[(i, digest)] = sorted(
            reference.check(loop.inputs[i], text, program),
            key=lambda p: p.startswith(reference.NODEF_DEFECT))
    failures, unexpected = [], 0
    for i, _, status, digest, _ in records:
        if status == "ok":
            problems = verdict[(i, digest)]
            if not problems:
                continue
            status = "output check: " + "; ".join(problems[:3])
        failures.append((i, status))
        if not status.startswith(known):
            unexpected += 1
    return failures, unexpected


def end_to_end(records, walls):
    """Throughput and median latency are medians over cycles of each
    cycle's figure: every cycle holds the same inputs, so one disturbed
    cycle does not move them.  The tail percentile pools all analyses that
    returned 0."""
    per_cycle = len(records) // len(walls)
    rates, medians, ok = [], [], []
    for c, wall in enumerate(walls):
        times = [r[1] for r in records[c * per_cycle:(c + 1) * per_cycle]
                 if r[2] == "ok"]
        rates.append(len(times) / wall)
        if times:
            medians.append(statistics.median(times))
        ok += times
    if not ok:
        return {}
    metrics = {
        "trees_per_s": (statistics.median(rates), "1/s", len(ok)),
        "latency_p50_ms": (statistics.median(medians) * 1e3, "ms", len(ok)),
    }
    if len(ok) >= 100:  # at least ten samples lie beyond the 90th
        metrics["latency_p90_ms"] = (percentile(ok, 0.9) * 1e3, "ms", len(ok))
    return metrics


def per_layer(tracer, inputs, records_t, records_u):
    """Per-analysis means of self times and counts, over all analyses and
    per group (tight / relaxed deadline)."""
    selfs, wraps = tracer.self_times()
    roots = tracer.root_time()
    counts = tracer.counts
    members = defaultdict(list)
    for a, rec in enumerate(records_t):
        members["all"].append(a)
        members[inputs[rec[0]].group].append(a)

    def total(group, key, table):
        return sum(table[a].get(key, 0) for a in members[group])

    def ms(group, span):
        n = len(members[group])
        return total(group, span, selfs) * 1e3 / n if n else 0.0

    def mean(group, key):
        n = len(members[group])
        return total(group, key, counts) / n if n else 0.0

    def ratio(group, num, den):
        d = total(group, den, counts)
        return total(group, num, counts) / d if d else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit, len(members["all"]))

    put("cli.main_self_ms", ms("all", "cli.main"), "ms")
    put("parser.parse_adt_ms", ms("all", "parser.parse_adt"), "ms")
    put("parser.lines", mean("all", "parser.lines"), "count")
    put("model.validate_adt_ms", ms("all", "model.validate_adt"), "ms")
    put("model.validate_adt_calls", mean("all", "model.validate_adt_calls"),
        "count")
    for span in ("preprocess_cases", "normalize_time", "expand_sand",
                 "copy_dag", "enumerate_defence_variants",
                 "defence_signature", "apply_defence_config",
                 "enumerate_or_variants", "canonical_form"):
        name = "preprocess.%s_%s" % (
            span, "self_ms" if span == "preprocess_cases" else "ms")
        put(name, ms("all", "preprocess." + span), "ms")
    for key in ("dag_nodes", "copied_nodes", "variant_unit_steps",
                "defence_configs", "cases", "or_variants",
                "canonical_form_calls"):
        put("preprocess." + key, mean("all", "preprocess." + key), "count")
    put("preprocess.case_yield",
        ratio("all", "preprocess.cases", "preprocess.defence_configs"),
        "ratio")
    for group in ("all",) + GROUPS:
        suffix = "" if group == "all" else "." + group
        n = len(members[group])
        values = {
            "compute_bounds_ms": (ms(group, "scheduler.compute_bounds"),
                                  "ms"),
            "bound_gap": (ratio(group, "scheduler.bound_gap_sum",
                                "scheduler.bounded_variants"), "count"),
            "schedule_candidate_ms": (ms(group,
                                         "scheduler.schedule_candidate"),
                                      "ms"),
            "probes": (mean(group, "scheduler.probes"), "count"),
            "probes_per_variant": (ratio(group, "scheduler.probes",
                                         "scheduler.bounded_variants"),
                                   "count"),
            "zero_assign_ms": (ms(group, "scheduler.zero_assign"), "ms"),
            "min_schedule_self_ms": (ms(group, "scheduler.min_schedule"),
                                     "ms"),
            "certified_frac": (ratio(group, "scheduler.certified",
                                     "scheduler.bounded_variants"), "ratio"),
        }
        for key in SCHEDULER_KEYS:
            value, unit = values[key]
            out["scheduler.%s%s" % (key, suffix)] = (value, unit, n)
    put("scheduler.verify_schedule_ms", ms("all", "scheduler.verify_schedule"),
        "ms")
    for span in ("render_table", "to_json", "variant_cost"):
        put("report.%s_ms" % span, ms("all", "report." + span), "ms")
    put("report.out_bytes",
        sum(r[4] for r in records_t) / max(1, len(records_t)), "count")

    # accounting: traced wall = self times + wrappers + untraced remainder
    traced_wall = sum(r[1] for r in records_t)
    self_total = sum(sum(v.values()) for v in selfs.values())
    wrap_total = sum(wraps.values())
    remainder = traced_wall - sum(roots.values())
    verify = total("all", "scheduler.verify_schedule", selfs)
    untraced = sum(r[1] for r in records_u)
    put("trace.overhead_frac",
        (traced_wall - verify) / untraced - 1 if untraced else 0.0, "ratio")
    accounting = {
        "traced_wall_s": traced_wall, "self_s": self_total,
        "wrapper_s": wrap_total, "remainder_s": remainder,
        "verify_s": verify, "untraced_wall_s": untraced,
    }
    return out, accounting


def count_repeats(tracer, records):
    """Every count must be the same each time an input is analysed."""
    seen, problems = {}, []
    for a, rec in enumerate(records):
        vector = dict(tracer.counts[a])
        vector["report.out_bytes"] = rec[4]
        if rec[0] in seen and seen[rec[0]] != vector:
            problems.append("counts of input %d changed between repeats"
                            % rec[0])
        seen.setdefault(rec[0], vector)
    return problems


def main(argv):
    root, workload, seed, seconds, trace = (
        Path(argv[0]), argv[1], int(argv[2]), float(argv[3]), argv[4] == "1")
    program = load_program(root)
    inputs = workloads.build(workload, seed)
    digest = workloads.inputs_digest(inputs)
    problems = []
    if workloads.inputs_digest(workloads.build(workload, seed)) != digest:
        problems.append("the same seed gave different inputs")

    workdir = root / ".perfbench_tmp" / ("%s-%d-%d" % (workload, seed,
                                                       os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        loop = Loop(program, inputs, workdir)
        # warm up code paths on the smallest input; not recorded
        smallest = min(range(len(inputs)), key=lambda i: len(inputs[i].text))
        loop.run_one(smallest)
        records, walls = [], []
        start = time.perf_counter()
        if not trace:
            while time.perf_counter() - start < seconds:
                walls.append(loop.cycle(records))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = end_to_end(records, walls)
            metrics["peak_rss_mb"] = (rss_mb, "MB", 1)
            accounting = {}
            all_records = records
        else:
            # a first whole cycle grows the heap; then untraced and traced
            # cycles alternate, so a drift in machine speed affects both
            # sides of trace.overhead_frac alike
            loop.cycle([])
            start = time.perf_counter()
            records_u, tracer = [], Tracer()
            while len(walls) < 2 or time.perf_counter() - start < seconds:
                walls.append(loop.cycle(records_u))
                tracer.install()
                try:
                    loop.cycle(records, tracer)
                finally:
                    tracer.uninstall()
            for u, t in zip(records_u, records):
                if (u[0], u[2], u[3]) != (t[0], t[2], t[3]):
                    problems.append("traced output of %s differs from "
                                    "untraced" % inputs[t[0]].key)
                    break
            problems += count_repeats(tracer, records)
            problems += ["verify_schedule: %s" % v
                         for v in tracer.violations[:3]]
            metrics, accounting = per_layer(tracer, inputs, records,
                                            records_u)
            out_dir = root / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / ("spans-%s-seed%d.tsv.gz"
                                    % (workload, seed)))
            all_records = records_u + records
        known = workloads.KNOWN_FAILURES.get(workload, ())
        failures, unexpected = check_outputs(loop, program, all_records,
                                             known)
        if len(failures) == len(all_records):
            problems.append("no analysis succeeded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # An operation is the analysis of one input.  The loop repeats it once
    # per cycle, and the number of cycles follows the machine's speed; a
    # count of failed repeats would too.  So an input counts once, as
    # failed when any of its analyses failed, and a failure must then
    # repeat in every cycle.
    failing, repeats = {}, defaultdict(int)
    for i, why in failures:
        failing.setdefault(inputs[i].key, why)
        repeats[i] += 1
    runs = len(all_records) // len(inputs)
    for i, n in sorted(repeats.items()):
        if n != runs:
            problems.append("%s failed in %d of its %d analyses"
                            % (inputs[i].key, n, runs))
    result = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "inputs_sha256": digest, "inputs_per_cycle": len(inputs),
        "cycles": len(walls), "wall_s": sum(walls),
        "attempted": len(inputs), "failed": len(repeats),
        "analyses": len(all_records), "failed_analyses": len(failures),
        "unexpected": unexpected, "problems": problems,
        "failing_inputs": failing,
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "accounting": accounting,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
