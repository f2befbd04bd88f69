"""Randomised invariants over generated trees.

Everything here uses a fixed seed so failures reproduce; the parser
round-trip at the bottom uses hypothesis to explore text-level variation.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from adtsched import (
    DagKind,
    FAILED,
    OPERATING,
    NodeKind,
    brute_force_min_agents,
    compute_time_unit,
    enumerate_defence_variants,
    expand_sand,
    min_schedule,
    normalize_time,
    parse_adt,
    preprocess_cases,
    apply_defence_config,
    serialize_adt,
    unit_dag,
    validate_adt,
    verify_schedule,
)
from adtsched.preprocess import canonical_form, copy_dag
from adtsched.scheduler import _nearest_seq_ancestors

from reference_heap_packer import _reshuffle

from conftest import TREES
from rand_trees import random_adt, random_small_adt
from reference_or_walk import reachable

SEED = 20260815


def forest(count, **kwargs):
    rng = random.Random(SEED)
    for _ in range(count):
        adt = random_adt(rng, **kwargs)
        assert validate_adt(adt) == []
        yield adt


def small_forest(count, **kwargs):
    rng = random.Random(SEED)
    for _ in range(count):
        adt = random_small_adt(rng, **kwargs)
        assert validate_adt(adt) == []
        yield adt


# ------------------------------------------------------------- preprocessing


def test_only_five_kinds_survive_preprocessing():
    allowed = {DagKind.SEQ, DagKind.NULL, DagKind.AND, DagKind.OR, DagKind.LEAF}
    for adt in forest(40, defence_prob=0.3):
        for case in preprocess_cases(adt, all_variants=True):
            for variant in case.variants:
                assert {x.kind for x in variant.dag.nodes} <= allowed


def test_unit_steps_form_chains():
    for adt in forest(40, defence_prob=0.2):
        dag = unit_dag(expand_sand(normalize_time(adt)))
        for node in dag.nodes:
            if node.kind is DagKind.SEQ:
                assert len(node.children) == 1
                assert len(node.parents) <= 1


def test_unit_steps_per_origin_match_the_durations():
    for adt in forest(40):
        tunit = compute_time_unit(adt)
        dag = unit_dag(expand_sand(normalize_time(adt)))
        per_origin = {}
        for node in dag.nodes:
            if node.kind is DagKind.SEQ:
                per_origin[node.origin] = per_origin.get(node.origin, 0) + 1
        for label, node in adt.nodes.items():
            assert per_origin.get(label, 0) == node.duration // tunit


def test_feasible_variants_have_single_child_choices():
    for adt in forest(30, defence_prob=0.2):
        for case in preprocess_cases(adt, all_variants=True):
            for variant in case.variants:
                if not variant.feasible:
                    continue
                for node in variant.dag.nodes:
                    if node.kind is DagKind.OR:
                        assert len(node.children) == 1


def test_every_variant_node_is_reachable():
    for adt in forest(30, defence_prob=0.3):
        for case in preprocess_cases(adt, all_variants=True):
            for variant in case.variants:
                if variant.dag.root is not None:
                    assert reachable(variant.dag) == set(variant.dag.nodes)


def test_resolved_defences_leave_only_reachable_nodes():
    adts = [parse_adt(path.read_text()) for path in sorted(TREES.glob("*.adt"))]
    adts += forest(200, defence_prob=0.3)
    for adt in adts:
        for config in enumerate_defence_variants(adt):
            dag = apply_defence_config(adt, config)
            assert set(dag.nodes) == reachable(dag)


def test_failed_defences_never_remove_attack_work():
    for adt in forest(40, defence_prob=0.5, allow_nodef=False):
        configs = enumerate_defence_variants(adt)
        if not configs:
            continue
        all_failed = {k: FAILED for k in configs[0]}
        dag = apply_defence_config(adt, all_failed)
        attack = {l for l, n in adt.nodes.items() if n.role.value == "attack"}
        assert attack <= {x.origin for x in dag.nodes}


def test_no_duplicate_variants_within_a_case():
    for adt in forest(40, defence_prob=0.4):
        fingerprints = set()
        for case in preprocess_cases(adt, all_variants=True):
            digests = [canonical_form(v.dag) for v in case.variants]
            assert len(digests) == len(set(digests))
            frozen = frozenset(digests)
            assert frozen not in fingerprints
            fingerprints.add(frozen)


# ----------------------------------------------------------------- labelling


def depth_by_rule(node):
    if not node.children:
        return 0
    child_depths = [c.depth for c in node.children]
    if node.kind is DagKind.SEQ:
        return 1 + child_depths[0]
    if node.kind is DagKind.OR:
        return min(child_depths)
    return max(child_depths)


def test_depth_and_level_recurrences():
    for adt in forest(30, defence_prob=0.2):
        for case in preprocess_cases(adt, all_variants=True):
            results = min_schedule(case.variants)
            for r in results:
                if not r.feasible or r.n == 0:
                    continue
                dag = unit_dag(r.variant.dag)
                for node in dag.nodes:
                    assert node.depth == depth_by_rule(node)
                    if node is dag.root:
                        assert node.level == 0
                    else:
                        assert node.level == max(
                            p.level + (1 if p.kind is DagKind.SEQ else 0)
                            for p in node.parents)


def test_level_plus_depth_bounded_by_makespan():
    for adt in forest(30):
        for case in preprocess_cases(adt, all_variants=True):
            for r in min_schedule(case.variants):
                if not r.feasible or r.n == 0:
                    continue
                root_depth = r.variant.dag.root.depth
                assert r.slots == root_depth  # minimal makespan, always
                tight = 0
                for node in r.variant.dag.nodes:
                    assert node.level + node.depth <= root_depth
                    if not node.children and node.level == root_depth:
                        tight += 1
                assert tight >= 1  # the critical path is realised


# ---------------------------------------------------------------- schedules


def test_every_schedule_verifies_clean():
    for adt in forest(40, defence_prob=0.3):
        for case in preprocess_cases(adt, all_variants=True):
            for r in min_schedule(case.variants):
                if r.feasible and r.n:
                    assert verify_schedule(r.variant.dag) == []


def test_precedence_pass_finds_every_breach():
    """Swapped, shared and cleared slots: ``verify_schedule`` reports
    exactly the (step, nearest unit-step ancestor) pairs out of order."""
    rng = random.Random(SEED)
    for adt in forest(40, defence_prob=0.3):
        for case in preprocess_cases(adt, all_variants=True):
            for r in min_schedule(case.variants):
                if not (r.feasible and r.n):
                    continue
                dag = unit_dag(r.variant.dag)
                steps = [x for x in dag.nodes if x.kind is DagKind.SEQ]
                nearest = _nearest_seq_ancestors(dag)
                for _ in range(6):
                    a, b = rng.choice(steps), rng.choice(steps)
                    a.slot, b.slot = rng.choice(
                        ((b.slot, a.slot), (b.slot, b.slot), (0, b.slot)))
                    expected = sorted(
                        x.name for x in steps if x.slot
                        for y in nearest[id(x)] if 0 < y.slot <= x.slot)
                    found = sorted(v.node for v in verify_schedule(dag)
                                   if v.kind == "precedence")
                    assert found == expected


def dag_shape(dag):
    """The DAG up to labels: each node's index, kind and children's
    indices, in creation order, in the unit-step view."""
    dag = unit_dag(dag)
    nodes = tuple((x.index, x.kind, tuple(c.index for c in x.children))
                  for x in dag.nodes)
    return dag.root.index, nodes


def schedules(results):
    """The distinct schedules in ``results``, up to labels."""
    return {(r.slots, r.agents, tuple(sorted(
        (x.index, x.agent, x.slot) for x in unit_dag(r.variant.dag).nodes)))
            for r in results}


def test_equal_shaped_variants_get_equal_schedules():
    # what lets the default ``schedule`` keep one variant per class
    groups = 0
    for seed in range(3000):
        adt = random_adt(random.Random(seed), max_leaves=12, max_time=3,
                         defence_prob=0.2)
        for case in preprocess_cases(adt, all_variants=True):
            by_shape = {}
            for v in case.variants:
                if v.feasible and v.dag.n:
                    by_shape.setdefault(dag_shape(v.dag), []).append(v)
            for members in by_shape.values():
                if len(members) < 2:
                    continue
                groups += 1
                tight = min_schedule(members)
                relaxed = min_schedule(members,
                                       slots_override=tight[0].slots + 2)
                assert len(schedules(tight)) == 1, seed
                assert len(schedules(relaxed)) == 1, seed
    assert groups > 100


def test_one_variant_per_class_keeps_the_exhaustive_minimum():
    # the benchmark's exhaustive check (perfbench/reference.py) reads
    # preprocess_cases with its default: each case must give the minimum
    # that the full list of variants gives
    checked = 0
    for seed in range(1000):
        adt = random_adt(random.Random(seed), max_leaves=12, max_time=3,
                         defence_prob=0.2)
        cases = zip(preprocess_cases(adt),
                    preprocess_cases(adt, all_variants=True), strict=True)
        for by_class, full in cases:
            assert by_class.signature == full.signature
            live = [v for v in full.variants if v.feasible]
            if not live or max(v.dag.n for v in live) > 12:
                continue
            kept = [v for v in by_class.variants if v.feasible]
            assert max(v.dag.n for v in kept) == max(v.dag.n for v in live)
            assert min(brute_force_min_agents(v.dag) for v in kept) \
                == min(brute_force_min_agents(v.dag) for v in live), seed
            checked += 1
    assert checked > 1000


def test_agents_are_contiguous_from_one():
    for adt in forest(30):
        case = preprocess_cases(adt, all_variants=True)[0]
        for r in min_schedule(case.variants):
            if not r.feasible or r.n == 0:
                continue
            agents = {x.agent for x in unit_dag(r.variant.dag).nodes
                      if x.kind is DagKind.SEQ}
            assert agents == set(range(1, r.agents + 1))


def test_reshuffle_preserves_slots_and_load():
    rng = random.Random(SEED)
    for adt in small_forest(25):
        case = preprocess_cases(adt, all_variants=True)[0]
        r = min_schedule(case.variants)[0]
        if not r.feasible or r.n == 0:
            continue
        dag = unit_dag(r.variant.dag)
        slot = rng.randint(1, r.slots)
        before_slots = {x.name: x.slot for x in dag.nodes}
        before_load = {}
        for x in dag.nodes:
            if x.kind is DagKind.SEQ:
                before_load[x.slot] = before_load.get(x.slot, 0) + 1
        _reshuffle(r.agents, {x.agent: x for x in dag.nodes if x.slot == slot})
        assert {x.name: x.slot for x in dag.nodes} == before_slots
        after_load = {}
        for x in dag.nodes:
            if x.kind is DagKind.SEQ:
                after_load[x.slot] = after_load.get(x.slot, 0) + 1
        assert after_load == before_load
        assert verify_schedule(dag) == []


def test_zero_duration_nodes_share_a_neighbouring_cell():
    for adt in forest(30, defence_prob=0.2):
        for case in preprocess_cases(adt, all_variants=True):
            for r in min_schedule(case.variants):
                if not r.feasible or r.n == 0:
                    continue
                for node in unit_dag(r.variant.dag).nodes:
                    if node.kind is DagKind.SEQ:
                        continue
                    cell = (node.agent, node.slot)
                    near = {(x.agent, x.slot) for x in node.children}
                    near |= {(x.agent, x.slot) for x in node.parents}
                    assert cell in near


@pytest.mark.parametrize("seed", [101, 490, 4813])
def test_or_choice_cut_off_by_a_later_choice(seed):
    # a later OR choice makes an OR chosen earlier unreachable
    adt = random_adt(random.Random(seed), max_leaves=12, max_time=3,
                     defence_prob=0.2)
    for case in preprocess_cases(adt, all_variants=True):
        for r in min_schedule(case.variants):
            if not r.feasible:
                continue
            dag = r.variant.dag
            assert verify_schedule(dag) == []
            assert r.agents == brute_force_min_agents(copy_dag(dag), r.slots,
                                                      limit=18)


def test_exhaustive_oracle_agrees():
    for adt in small_forest(60, defence_prob=0.25):
        for case in preprocess_cases(adt, all_variants=True):
            for r in min_schedule(case.variants):
                if not r.feasible or r.n == 0:
                    continue
                assert brute_force_min_agents(copy_dag(r.variant.dag)) == r.agents


# ------------------------------------------------------- tree-level oracle


def defence_operates(adt, label, config):
    node = adt.nodes[label]
    if node.kind is NodeKind.LEAF:
        return config[label] == OPERATING
    states = [defence_operates(adt, c, config) for c in node.children]
    return any(states) if node.kind is NodeKind.OR else all(states)


def tree_critical_path(adt, label, config):
    """Earliest completion of ``label`` read off the tree itself, or None
    when the attack cannot succeed there.  AND waits for all children, SAND
    runs them in turn, OR takes the fastest possible one; CAND and SCAND
    need a failed countermeasure, and a NODEF whose countermeasure failed
    needs nothing below it.  Every node then adds its own duration."""
    node = adt.nodes[label]
    if node.kind in (NodeKind.CAND, NodeKind.SCAND, NodeKind.NODEF):
        action, counter = node.children
        operating = defence_operates(adt, counter, config)
        if node.kind is NodeKind.NODEF and not operating:
            below = 0
        elif node.kind is not NodeKind.NODEF and operating:
            return None
        else:
            below = tree_critical_path(adt, action, config)
    else:
        kids = [tree_critical_path(adt, c, config) for c in node.children]
        possible = [k for k in kids if k is not None]
        if node.kind is NodeKind.OR:
            below = min(possible, default=None)
        elif len(possible) < len(kids):
            below = None
        elif node.kind is NodeKind.SAND:
            below = sum(kids)
        else:
            below = max(kids, default=0)
    return None if below is None else below + node.duration


def test_outcomes_match_the_tree_critical_path():
    for adt in forest(300, max_leaves=12, max_time=3, defence_prob=0.4):
        tunit = math.gcd(*(x.duration for x in adt.nodes.values()))
        slots_of = {}
        for case in preprocess_cases(adt, all_variants=True):
            slots = [r.slots for r in min_schedule(case.variants)
                     if r.feasible]
            for sig in case.merged_signatures:
                slots_of[frozenset(sig.items())] = min(slots, default=None)
        leaves = [label for label, x in adt.nodes.items()
                  if x.kind is NodeKind.LEAF and x.role.value == "defence"]
        counters = [x.children[1] for x in adt.nodes.values()
                    if x.kind in (NodeKind.CAND, NodeKind.SCAND,
                                  NodeKind.NODEF)]
        for combo in itertools.product((FAILED, OPERATING),
                                       repeat=len(leaves)):
            config = dict(zip(leaves, combo))
            sig = frozenset(
                (c, OPERATING if defence_operates(adt, c, config) else FAILED)
                for c in counters)
            path = tree_critical_path(adt, adt.root, config)
            expected = None if path is None else path // tunit
            assert slots_of[sig] == expected, (serialize_adt(adt), config)


# -------------------------------------------------------------- round-trip


@st.composite
def tree_texts(draw):
    count = draw(st.integers(min_value=1, max_value=9))
    kinds = ("AND", "OR", "SAND")
    lines = []
    children_of = {}
    for i in range(1, count):
        children_of.setdefault(draw(st.integers(0, i - 1)), []).append(i)
    total = 0
    for i in range(count):
        time = draw(st.integers(0, 4))
        total += time
        attrs = " time=%d" % time if time else ""
        if draw(st.booleans()):
            attrs += " cost=%d" % draw(st.integers(1, 99))
        kids = children_of.get(i)
        if kids:
            kind = draw(st.sampled_from(kinds))
            sep = ", " if draw(st.booleans()) else ","
            lines.append("n%d: %s(%s)%s" % (i, kind,
                                            sep.join("n%d" % k for k in kids),
                                            attrs))
        else:
            lines.append("n%d: ATTACK%s" % (i, attrs))
    if total == 0:
        lines[-1] += " time=1"
    if draw(st.booleans()):
        lines.insert(0, "# generated")
    if draw(st.booleans()):
        lines.insert(0, "root: n0")
    return "\n".join(lines) + "\n"


@given(tree_texts())
def test_round_trip_is_structurally_identical(text):
    adt = parse_adt(text)
    assert validate_adt(adt) == []
    again = parse_adt(serialize_adt(adt))
    assert again.root == adt.root
    assert set(again.nodes) == set(adt.nodes)
    for label, node in adt.nodes.items():
        twin = again.node(label)
        assert (twin.kind, twin.children, twin.duration, twin.cost) \
            == (node.kind, node.children, node.duration, node.cost)
