"""End-to-end acceptance gate.

One test per headline result the package must reproduce, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them all).  Golden
numbers come from the bundled case studies; structural counts were frozen
from an independent hand-check of the pipeline stages.
"""

import math
import random
import time

from adtsched import (
    DagKind,
    brute_force_min_agents,
    compute_time_unit,
    expand_sand,
    min_schedule,
    normalize_time,
    parse_adt,
    preprocess_cases,
    schedule_candidate,
    serialize_adt,
    unit_dag,
    validate_adt,
    verify_schedule,
)
from adtsched.generator import generate_scaling_adt, run_scalability
from adtsched.preprocess import copy_dag
from adtsched.report import render_table

from conftest import load_tree, preprocess
from rand_trees import random_small_adt

ALL_TREES = ("treasure", "forestall", "iot-dev", "gain-admin",
             "interrupted", "last", "scaling", "scaling-example")


def report(label, failures):
    print("ACCEPT %-26s %s" % (label + ":", "FAIL  " + failures[0] if failures else "PASS"))
    assert not failures, "%s: %s" % (label, "; ".join(failures))


def cells_of(result):
    table = {}
    for node in unit_dag(result.variant.dag).nodes:
        table.setdefault((node.slot, node.agent), set()).add(node.name)
    return table


def schedule_cases(name):
    """(case, best result) pairs: fewest agents among feasible, first wins."""
    out = []
    for case in preprocess_cases(load_tree(name), all_variants=True):
        results = min_schedule(case.variants)
        live = [r for r in results if r.feasible]
        out.append((case, min(live, key=lambda r: r.agents) if live else results[0]))
    return out


def expect(failures, actual, wanted, what):
    if actual != wanted:
        failures.append("%s: wanted %r, got %r" % (what, wanted, actual))


def test_treasure_hunters():
    failures = []
    pairs = schedule_cases("treasure")
    expect(failures, len(pairs), 2, "defence cases")
    by_sig = {tuple(case.signature.values()): r for case, r in pairs}
    expect(failures, by_sig[("operating",)].feasible, False, "p operating feasibility")
    r = by_sig[("failed",)]
    expect(failures, (r.slots, r.agents), (125, 2), "p failed (slots, agents)")
    cells = cells_of(r)
    expect(failures, cells.get((125, 1)), {"h_3", "GA'", "TF'_2", "TS'"}, "slot 125 agent 1")
    expect(failures, cells.get((120, 1)), {"f_120"}, "slot 120 agent 1")
    expect(failures, cells.get((120, 2)), {"b_60"}, "slot 120 agent 2")
    expect(failures, cells.get((61, 2)), {"b_1", "b'"}, "slot 61 agent 2")
    expect(failures, cells.get((1, 1)), {"f_1", "f'"}, "slot 1 agent 1")
    report("treasure-hunters", failures)


def test_forestall_three_cases():
    failures = []
    pairs = schedule_cases("forestall")
    got = sorted((r.slots, r.agents) for _, r in pairs)
    expect(failures, got, [(43, 1), (54, 1), (55, 1)], "(slots, agents) per case")
    first_cells = {43: {"FS_10"}, 54: {"FS_10"}, 55: {"FS_10"}}
    last_cells = {43: {"hr'", "hr_1"}, 54: {"hh'", "hh_1"}, 55: {"bp'", "bp_1"}}
    for _, r in pairs:
        cells = cells_of(r)
        expect(failures, cells.get((r.slots, 1)), first_cells[r.slots],
               "first table row (slots=%d)" % r.slots)
        expect(failures, cells.get((1, 1)), last_cells[r.slots],
               "last table row (slots=%d)" % r.slots)
    report("forestall-three-cases", failures)


def test_iot_device_takeover():
    failures = []
    pairs = schedule_cases("iot-dev")
    live = [(case, r) for case, r in pairs if r.feasible]
    expect(failures, len(live), 1, "feasible cases")
    case, r = live[0]
    expect(failures, set(case.signature.values()), {"failed"}, "feasible defence outcome")
    expect(failures, (r.slots, r.agents), (694, 2), "(slots, agents)")
    for other, dead in pairs:
        if other is not case:
            expect(failures, dead.feasible, False,
                   "feasibility under %s" % other.signature)
    cells = cells_of(r)
    expect(failures, cells.get((600, 1)), {"GVC'", "gc_600"}, "slot 600 agent 1")
    expect(failures, cells.get((600, 2)), {"AL'_2", "CPN'", "sma_30"}, "slot 600 agent 2")
    report("iot-device-takeover", failures)


def test_admin_privileges():
    failures = []
    adt = load_tree("gain-admin")
    leaves = [l for l, n in adt.nodes.items() if n.kind.value == "leaf"
              and n.role.value == "defence"]
    expect(failures, 2 ** len(leaves), 16, "raw defence combinations")
    pairs = schedule_cases("gain-admin")
    expect(failures, len(pairs), 3, "defence cases")
    got = sorted((r.slots, r.agents) for _, r in pairs)
    expect(failures, got, [(2942, 1), (4320, 1), (5762, 1)], "(slots, agents) per case")
    report("admin-privileges", failures)


def test_interrupting_assignment():
    failures = []
    r = min_schedule(preprocess(load_tree("interrupted")))[0]
    expect(failures, (r.slots, r.agents), (5, 2), "(slots, agents)")
    cells = cells_of(r)
    golden = {
        (1, 1): {"d'", "d_1"}, (1, 2): {"e'", "e_1"},
        (2, 1): {"d_2"}, (2, 2): {"b'", "b_1"},
        (3, 1): {"d_3"}, (3, 2): {"e_2"},
        (4, 1): {"d_4"}, (4, 2): {"e_3"},
        (5, 1): {"c'", "c_1"}, (5, 2): {"a'", "b_2"},
    }
    expect(failures, cells, golden, "full table")
    report("interrupting-assignment", failures)


def test_zero_duration_pileup():
    failures = []
    r = min_schedule(preprocess(load_tree("last")))[0]
    expect(failures, (r.slots, r.agents), (4, 2), "(slots, agents)")
    expect(failures, cells_of(r).get((4, 2)), {"e'", "f'", "h'", "j'", "j_1"},
           "slot 4 agent 2")
    report("zero-duration-pileup", failures)


def test_scaling_examples():
    failures = []
    r = min_schedule(preprocess(load_tree("scaling")))[0]
    expect(failures, (r.slots, r.agents), (5, 2), "scaling (slots, agents)")
    r = min_schedule(preprocess(load_tree("scaling-example")))[0]
    expect(failures, (r.slots, r.agents), (5, 6), "scaling-example (slots, agents)")
    report("scaling-examples", failures)


GOLDEN_SWEEP = {
    (2, 2, 2): (5, 2, 3), (2, 4, 2): (7, 3, 4), (2, 4, 4): (9, 4, 3),
    (2, 6, 6): (13, 6, 3), (2, 8, 4): (13, 3, 6), (2, 8, 8): (17, 8, 3),
    (2, 10, 10): (21, 10, 3), (2, 12, 4): (17, 3, 10), (2, 12, 6): (19, 4, 8),
    (2, 16, 8): (25, 4, 10),
    (3, 2, 2): (7, 2, 4), (3, 4, 2): (9, 3, 5), (3, 4, 4): (13, 4, 4),
    (3, 6, 2): (13, 3, 7), (3, 6, 6): (19, 6, 4), (3, 8, 2): (15, 3, 9),
    (3, 8, 4): (17, 4, 7), (3, 8, 8): (25, 8, 4), (3, 10, 10): (31, 10, 4),
    (3, 12, 4): (21, 3, 11), (3, 12, 6): (25, 4, 9), (3, 16, 8): (33, 4, 11),
    (4, 2, 2): (9, 2, 5), (4, 4, 2): (11, 3, 6), (4, 4, 4): (17, 4, 5),
    (4, 6, 2): (15, 3, 8), (4, 6, 6): (25, 6, 5), (4, 8, 2): (17, 3, 10),
    (4, 8, 4): (21, 4, 8), (4, 8, 8): (33, 8, 5), (4, 10, 2): (23, 3, 12),
    (4, 10, 10): (41, 10, 5), (4, 12, 4): (25, 3, 12), (4, 12, 6): (31, 4, 10),
    (4, 16, 8): (41, 5, 12),
    (5, 2, 2): (11, 2, 6), (5, 4, 2): (13, 3, 7), (5, 4, 4): (21, 4, 6),
    (5, 6, 2): (17, 3, 9), (5, 6, 6): (31, 6, 6), (5, 8, 2): (19, 3, 11),
    (5, 8, 4): (25, 4, 9), (5, 8, 8): (41, 8, 6), (5, 10, 2): (25, 3, 13),
    (5, 10, 10): (51, 10, 6), (5, 12, 4): (29, 3, 13), (5, 12, 6): (37, 5, 11),
    (5, 16, 8): (49, 5, 13),
}


def test_scalability_sweep():
    failures = []
    lines = run_scalability().strip().split("\r\n")
    expect(failures, len(lines), 49, "row count incl. header")
    for line in lines[1:]:
        d, w, c, size, agents, slots = line.split(",")[:6]
        key = (int(d), int(w), int(c))
        got = (int(size), int(agents), int(slots))
        if got != GOLDEN_SWEEP[key]:
            failures.append("row %s: wanted %s, got %s"
                            % (key, GOLDEN_SWEEP[key], got))
    report("scalability-sweep", failures)


def test_exhaustive_oracle_on_200_trees():
    failures = []
    rng = random.Random(74)
    trees = variants = 0
    while trees < 200 and not failures:
        adt = random_small_adt(rng, defence_prob=0.25)
        if validate_adt(adt):
            failures.append("random tree %d invalid" % trees)
            break
        trees += 1
        for case in preprocess_cases(adt, all_variants=True):
            for r in min_schedule(case.variants):
                if not r.feasible or r.n == 0:
                    continue
                variants += 1
                dag = r.variant.dag
                exhaustive = brute_force_min_agents(copy_dag(dag))
                if exhaustive != r.agents:
                    failures.append("tree %d: %d agents vs exhaustive %d"
                                    % (trees, r.agents, exhaustive))
                remain = schedule_candidate(copy_dag(dag), r.slots, r.agents - 1)
                if remain <= 0:
                    failures.append("tree %d: %d-1 agents also schedule"
                                    % (trees, r.agents))
    if variants < 100:
        failures.append("only %d feasible variants exercised" % variants)
    report("exhaustive-oracle", failures)


def test_invariant_sweep():
    failures = []
    for name in ALL_TREES:
        adt = load_tree(name)
        again = parse_adt(serialize_adt(adt))
        if {l: (n.kind, tuple(n.children), n.duration) for l, n in adt.nodes.items()} \
                != {l: (n.kind, tuple(n.children), n.duration) for l, n in again.nodes.items()}:
            failures.append("%s: round-trip changed the tree" % name)
        tunit = compute_time_unit(adt)
        base = unit_dag(expand_sand(normalize_time(adt)))
        per_origin = {}
        for node in base.nodes:
            if node.kind is DagKind.SEQ:
                if len(node.children) != 1 or len(node.parents) > 1:
                    failures.append("%s: %s is not chain-shaped" % (name, node.name))
                per_origin[node.origin] = per_origin.get(node.origin, 0) + 1
        for label, node in adt.nodes.items():
            if per_origin.get(label, 0) != node.duration // tunit:
                failures.append("%s: %s has wrong chain length" % (name, label))
        for case in preprocess_cases(adt, all_variants=True):
            for r in min_schedule(case.variants):
                if not r.feasible or r.n == 0:
                    continue
                dag = r.variant.dag
                if r.slots != dag.root.depth:
                    failures.append("%s: makespan %d != root depth %d"
                                    % (name, r.slots, dag.root.depth))
                for node in dag.nodes:
                    if node.level + node.depth > r.slots:
                        failures.append("%s: %s level+depth exceeds makespan"
                                        % (name, node.name))
                for v in verify_schedule(dag):
                    failures.append("%s: %s %s" % (name, v.kind, v.node))
    report("invariant-sweep", failures[:3])


def test_runtime_growth():
    failures = []
    points = []
    for depth in (50, 500, 5000):
        adt = generate_scaling_adt(depth, 2, 2)
        best = None
        for _ in range(3):
            start = time.perf_counter()
            r = min_schedule(preprocess(adt))[0]
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        points.append((math.log(r.n), math.log(best)))
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    slope = (sum((x - mean_x) * (y - mean_y) for x, y in points)
             / sum((x - mean_x) ** 2 for x, _ in points))
    if slope > 2.3:
        failures.append("runtime fit exponent %.2f exceeds 2.3" % slope)
    report("runtime-growth", failures)
