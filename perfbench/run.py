"""adtsched benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload long_durations --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(``worker.py``) with ``ADT_SCHED_THREADS`` removed from its environment.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  The last line of stdout is the JSON
result; a copy with the run's metadata goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 15
DEADLINE_S = 170  # the whole run, set-up included, ends within this

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import adtsched.cli; "
                "print(time.perf_counter() - t)")


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("ADT_SCHED_THREADS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(env):
    """Seconds for a fresh interpreter to import adtsched.cli; the median
    of several interpreters, one after another."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(ROOT / "src")],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times), times


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "adtsched").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_hash():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def show(name, value, unit, note=""):
    print("  %-40s %14.6g %-6s %s" % (name, value, unit, note))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args()

    if not (ROOT / "src" / "adtsched" / "cli.py").is_file():
        print("error: no adtsched sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    started = time.monotonic()
    env = child_env()
    setup = None
    if not ns.trace:
        setup = measure_setup(env)
    remaining = DEADLINE_S - (time.monotonic() - started)
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), ns.workload,
             str(ns.seed), str(ns.seconds), str(ns.trace)],
            env=env, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        print("error: workload did not finish within %d s" % DEADLINE_S,
              file=sys.stderr)
        return 1
    if done.returncode != 0 or not done.stdout.strip():
        sys.stderr.write(done.stderr)
        print("error: worker exited with code %d" % done.returncode,
              file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    if setup is not None:
        metrics["setup_s"] = {"value": setup[0], "unit": "s",
                              "samples": SETUP_RUNS}

    meta = {
        "git": git_hash(), "src_sha256": source_digest(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "seed": ns.seed, "inputs_sha256": result["inputs_sha256"],
        "seconds": ns.seconds,
    }
    print("adtsched benchmark  workload=%s seed=%d trace=%d"
          % (ns.workload, ns.seed, ns.trace))
    print("  git=%s src_sha256=%s python=%s nproc=%s"
          % (meta["git"] or "n/a", meta["src_sha256"][:16], meta["python"],
             meta["nproc"]))
    print("  inputs_sha256=%s  closed loop, 1 client: %d cycles of %d "
          "inputs in %.2f s"
          % (result["inputs_sha256"][:16], result["cycles"],
             result["inputs_per_cycle"], result["wall_s"]))
    for name, m in sorted(metrics.items()):
        show(name, m["value"], m["unit"], "(n=%d)" % m["samples"])
    if not ns.trace and "latency_p90_ms" not in metrics:
        print("  %-40s not reported: needs >= 100 analyses"
              % "latency_p90_ms")
    attempted, failed = result["attempted"], result["failed"]
    show("failed_frac", failed / attempted, "", "(%d of %d inputs; %d of "
         "%d analyses)" % (failed, attempted, result["failed_analyses"],
                           result["analyses"]))
    if ns.trace:
        acc = result["accounting"]
        wall = acc["traced_wall_s"]
        print("  accounting of traced wall %.3f s: self %.1f%% + wrappers "
              "%.1f%% + untraced remainder %.1f%% = %.1f%%"
              % (wall, 100 * acc["self_s"] / wall,
                 100 * acc["wrapper_s"] / wall,
                 100 * acc["remainder_s"] / wall,
                 100 * (acc["self_s"] + acc["wrapper_s"]
                        + acc["remainder_s"]) / wall))
    for key, why in sorted(result["failing_inputs"].items()):
        print("  FAILED %s: %s" % (key, why))
    for problem in result["problems"]:
        print("  CHECK FAILED %s" % problem)
    # a run passes only when every failure is the workload's known crash
    correct = result["unexpected"] == 0 and not result["problems"]
    print("  output check: %s (%d of %d inputs failed, %d of the failed "
          "analyses not the workload's known failure)"
          % ("pass" if correct else "FAIL", failed, attempted,
             result["unexpected"]))

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, meta=meta, correct=correct)
    if setup is not None:
        record["setup_samples_s"] = setup[1]
    (out_dir / ("%s-seed%d-trace%d.json" % (ns.workload, ns.seed, ns.trace))
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()
                    if k != "latency_p90_ms"},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
