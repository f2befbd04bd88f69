import math
import random

import pytest

from adtsched import (
    Dag,
    DagKind,
    FAILED,
    ZeroSlots,
    TooLarge,
    analyse,
    brute_force_min_agents,
    compute_bounds,
    expand_sand,
    min_schedule,
    normalize_time,
    parse_adt,
    preprocess,
    schedule_candidate,
    unit_dag,
    verify_schedule,
    zero_assign,
)
from adtsched import scheduler
from adtsched.preprocess import copy_dag

from reference_heap_packer import _reshuffle

from conftest import load_tree
from rand_trees import chains_adt
import reference_bisection


def variant_of(name):
    return [v for v in preprocess(load_tree(name)) if v.feasible][0]


def build(text):
    return expand_sand(normalize_time(parse_adt(text)))


def unit_view(text):
    """The unit-step view of ``build(text)``, with depth and level."""
    dag = build(text)
    compute_bounds(dag)
    return unit_dag(dag)


def seqs(dag):
    return [x for x in dag.nodes if x.kind is DagKind.SEQ]


# ------------------------------------------------------------- depth / level


def test_depth_recurrences():
    dag = unit_view("a: AND(b, c)\nb: ATTACK time=3\nc: OR(d, e)\n"
                    "d: ATTACK time=1\ne: ATTACK time=2\n")
    by = {x.name: x for x in dag.nodes}
    assert by["b'"].depth == 0
    assert by["b_1"].depth == 1
    assert by["b_3"].depth == 3
    # the cheaper branch wins at a choice point
    assert by["c'"].depth == 1
    assert by["a'"].depth == 3


def test_level_counts_unit_steps_from_the_root():
    dag = unit_view("a: AND(b, c)\nb: ATTACK time=3\nc: ATTACK time=1\n")
    by = {x.name: x for x in dag.nodes}
    assert by["a'"].level == 0
    assert by["b_3"].level == 0  # zero-duration root adds no step
    assert by["b_2"].level == 1
    assert by["b'"].level == 3


def test_level_takes_the_longest_route():
    v = variant_of("last")
    compute_bounds(v.dag)
    for node in v.dag.nodes:
        assert node.level + node.depth <= v.dag.root.depth
    assert any(node.level + node.depth == v.dag.root.depth
               for node in v.dag.nodes if not node.children)


# ------------------------------------------------------------------- bounds


def test_bounds_on_the_two_agent_tree(treasure):
    v = [x for x in preprocess(treasure) if x.feasible][0]
    bounds = compute_bounds(v.dag)
    assert (bounds.lower, bounds.upper, bounds.slots) == (1, 2, 125)


def test_bounds_reject_zero_depth():
    dag = Dag()
    dag.root = dag.new_node("x'", "x", DagKind.NULL)
    with pytest.raises(ZeroSlots):
        compute_bounds(dag)


def test_bounds_reject_override_below_critical_path():
    v = variant_of("interrupted")
    with pytest.raises(ValueError):
        compute_bounds(copy_dag(v.dag), slots_override=4)


def test_relaxed_deadline_needs_fewer_agents(treasure):
    results = min_schedule([v for v in preprocess(treasure) if v.feasible],
                           slots_override=185)
    assert results[0].slots == 185
    assert results[0].agents == 1
    assert not verify_schedule(results[0].variant.dag, slots=185)


def test_relaxed_chains_need_mcnaughton_agents():
    """Independent chains of total length n fit into S >= longest chain
    slots on exactly ceil(n/S) agents (McNaughton 1959)."""
    rng = random.Random(11)
    for width in (6, 17, 30, 45):
        durations = [1] + [rng.randint(1, 40) for _ in range(width - 1)]
        slots = math.ceil(max(durations) * rng.uniform(1.25, 2.5))
        variant, = preprocess(chains_adt(durations))
        r, = min_schedule([variant], slots_override=slots)
        assert (r.slots, r.agents) == (slots,
                                       math.ceil(sum(durations) / slots))
        assert verify_schedule(r.variant.dag, slots=slots,
                               agents=r.agents) == []


def test_one_probe_where_the_pigeonhole_bound_fits(monkeypatch):
    """Where ceil(n/slots) agents fit, the search runs the packer once per
    variant; where they do not, it still finds the bisection's count."""
    probes = []

    def counting(dag, slots, agents):
        probes.append(agents)
        return schedule_candidate(dag, slots, agents)

    monkeypatch.setattr(scheduler, "schedule_candidate", counting)
    rng = random.Random(11)
    for width in (6, 17, 30, 45):
        durations = [1] + [rng.randint(1, 40) for _ in range(width - 1)]
        variant, = preprocess(chains_adt(durations))
        tight = max(durations)
        for slots in (tight, math.ceil(tight * rng.uniform(1.25, 2.5))):
            probes.clear()
            r, = min_schedule([variant], slots_override=slots)
            assert probes == [r.agents] == [math.ceil(sum(durations) / slots)]
    # the root step alone fills the last slot: 8 steps in 4 slots need 3
    variant, = preprocess(parse_adt(
        "a: AND(b, c, d) time=1\nb: ATTACK time=2\nc: ATTACK time=2\n"
        "d: ATTACK time=3\n"))
    twin = copy_dag(variant.dag)
    probes.clear()
    r, = min_schedule([variant])
    assert (r.slots, r.agents, probes) == (4, 3, [2, 3])
    assert reference_bisection._min_agents(twin, compute_bounds(twin)) == 3
    assert brute_force_min_agents(twin) == 3


# -------------------------------------------------------------- assignment


def test_candidate_run_fails_below_minimum():
    v = variant_of("interrupted")
    dag = copy_dag(v.dag)
    compute_bounds(dag)
    remain = schedule_candidate(dag, 5, 1)
    assert remain > 0


def test_candidate_run_succeeds_at_minimum():
    v = variant_of("interrupted")
    dag = copy_dag(v.dag)
    compute_bounds(dag)
    remain = schedule_candidate(dag, 5, 2)
    assert remain == 0
    dag = unit_dag(dag)
    cells = {(x.agent, x.slot) for x in seqs(dag)}
    assert len(cells) == len(seqs(dag))  # no sharing
    # the node fields hold the assignment: every unit step and nothing else
    assert [x for x in dag.nodes if x.slot] == seqs(dag)


def test_long_chains_are_placed_as_runs():
    variant, = preprocess(chains_adt([1000, 999, 1]))
    r, = min_schedule([variant])
    assert (r.slots, r.agents) == (1000, 2)
    assert {x.name: runs for x, runs in r.assignment.items() if x.weight} \
        == {"c0_1": ((1, 1, 1000),), "c1_1": ((2, 2, 999),),
            "c2_1": ((2, 1, 1),)}


def test_analyse_keeps_the_fewest_agents_per_case(treasure):
    # three time-optimal selections of distinct shapes: x needs 2 agents,
    # y and z one each
    adt = parse_adt("r: OR(x, y, z)\nx: AND(a, b)\nz: SAND(c, d)\n"
                    "a: ATTACK time=2\nb: ATTACK time=2\ny: ATTACK time=2\n"
                    "c: ATTACK time=1\nd: ATTACK time=1\n")

    def picked(**kwargs):
        return [(r.variant.or_choices["r"], r.slots, r.agents)
                for r in analyse(adt, **kwargs)]

    assert picked(all_variants=True) == [("x", 2, 2), ("y", 2, 1),
                                         ("z", 2, 1)]
    assert picked() == [("y", 2, 1)]  # the first of the fewest
    # with 4 slots every selection fits one agent, so the first one wins
    assert picked(slots_override=4) == [("x", 4, 1)]
    # an impossible case keeps its one, infeasible result
    assert [r.feasible for r in analyse(treasure)] == [True, False]


def test_min_schedule_interrupted():
    r = min_schedule([variant_of("interrupted")])[0]
    assert (r.feasible, r.slots, r.agents) == (True, 5, 2)
    assert verify_schedule(r.variant.dag) == []


def test_min_schedule_assigns_every_node():
    r = min_schedule([variant_of("last")])[0]
    assert all(node.slot > 0 and node.agent > 0
               for node in r.variant.dag.nodes)
    assert set(r.assignment) == set(r.variant.dag.nodes)


def test_infeasible_variant_reported_not_scheduled(treasure):
    from adtsched import preprocess as pp
    dead = [v for v in pp(treasure) if not v.feasible]
    r = min_schedule(dead)[0]
    assert (r.feasible, r.slots, r.agents) == (False, 0, 0)
    assert r.assignment == {}


def test_blocked_attack_with_zero_work_is_trivially_feasible():
    # the countermeasure failed, but the only attack work takes zero time
    adt = parse_adt("x: CAND(a, d)\na: ATTACK\nd: DEFENCE time=2\n")
    results = min_schedule(preprocess(adt))
    r = [x for x in results if x.feasible][0]
    assert (r.slots, r.agents) == (0, 0)
    assert r.variant.defences == {"d": FAILED}


def test_agents_never_exceed_upper_bound():
    for name in ("treasure", "forestall", "iot-dev", "gain-admin",
                 "interrupted", "last", "scaling", "scaling-example"):
        for v in preprocess(load_tree(name)):
            if not v.feasible:
                continue
            r = min_schedule([v])[0]
            assert r.bounds.lower < r.agents <= r.bounds.upper


# -------------------------------------------------------------- reshuffling


def test_reshuffle_only_permutes_within_a_slot():
    v = variant_of("scaling-example")
    r = min_schedule([v])[0]
    dag = unit_dag(r.variant.dag)
    before = {x.name: (x.slot, x.agent) for x in dag.nodes}
    per_slot = {}
    for x in seqs(dag):
        per_slot.setdefault(x.slot, set()).add(x.agent)
    _reshuffle(r.agents, {x.agent: x for x in dag.nodes if x.slot == 2})
    after = {x.name: (x.slot, x.agent) for x in dag.nodes}
    assert {n: s for n, (s, _) in before.items()} == {n: s for n, (s, _) in after.items()}
    got = {x.agent for x in seqs(dag) if x.slot == 2}
    assert len(got) == len(per_slot[2])


# -------------------------------------------------------------- zero nodes


def test_zero_nodes_ride_along_with_a_neighbour():
    for name in ("treasure", "forestall", "gain-admin", "last"):
        r = min_schedule([variant_of(name)])[0]
        for node in unit_dag(r.variant.dag).nodes:
            if node.kind is DagKind.SEQ:
                continue
            spot = (node.agent, node.slot)
            neighbours = {(x.agent, x.slot) for x in node.children}
            neighbours |= {(x.agent, x.slot) for x in node.parents}
            assert spot in neighbours, node.name


def test_zero_assign_adds_no_agents_or_slots():
    v = variant_of("forestall")
    r = min_schedule([v])[0]
    dag = unit_dag(r.variant.dag)
    max_slot = max(x.slot for x in dag.nodes)
    max_agent = max(x.agent for x in dag.nodes)
    assert max_slot == r.slots
    assert max_agent == r.agents


def test_sequence_joint_rides_with_its_parent_chain():
    # the joint after a sequence completes must share the cell of the unit
    # step that follows it, not the one it gates
    r = min_schedule([variant_of("forestall")])[0]
    by = {x.name: x for x in r.variant.dag.nodes}
    assert (by["FS'_3"].agent, by["FS'_3"].slot) == (by["FS_1"].agent, by["FS_1"].slot)


# ------------------------------------------------------------ verification


def tampered(result):
    """A copy of the schedule to break, one node per unit step."""
    return unit_dag(result.variant.dag)


def test_verify_reports_collision():
    r = min_schedule([variant_of("scaling")])[0]
    dag = tampered(r)
    a, b = [x for x in seqs(dag) if x.slot == 1][:2]
    b.agent = a.agent
    kinds = {v.kind for v in verify_schedule(dag)}
    assert "collision" in kinds


def test_verify_reports_unassigned():
    r = min_schedule([variant_of("scaling")])[0]
    dag = tampered(r)
    seqs(dag)[0].slot = 0
    kinds = {v.kind for v in verify_schedule(dag)}
    assert "unassigned" in kinds


def test_verify_reports_precedence_breach():
    r = min_schedule([variant_of("interrupted")])[0]
    dag = tampered(r)
    by = {x.name: x for x in dag.nodes}
    by["d_2"].slot, by["d_3"].slot = by["d_3"].slot, by["d_2"].slot
    kinds = {v.kind for v in verify_schedule(dag)}
    assert "precedence" in kinds


def test_verify_reports_range_and_gap():
    r = min_schedule([variant_of("scaling")])[0]
    dag = tampered(r)
    node = seqs(dag)[0]
    node.agent = 9
    kinds = {v.kind for v in verify_schedule(dag, slots=r.slots, agents=r.agents)}
    assert "agent-range" in kinds
    assert "agent-gap" in kinds


def test_verify_accepts_all_bundled_schedules():
    for name in ("treasure", "forestall", "iot-dev", "gain-admin",
                 "interrupted", "last", "scaling", "scaling-example"):
        for v in preprocess(load_tree(name)):
            if v.feasible:
                r = min_schedule([v])[0]
                assert verify_schedule(r.variant.dag) == []


# ------------------------------------------------------------ exhaustive


def test_exhaustive_agrees_on_the_small_trees():
    for name in ("interrupted", "last", "scaling"):
        v = variant_of(name)
        r = min_schedule([v])[0]
        assert brute_force_min_agents(copy_dag(v.dag)) == r.agents


def test_exhaustive_rejects_large_inputs(treasure):
    v = [x for x in preprocess(treasure) if x.feasible][0]
    with pytest.raises(TooLarge):
        brute_force_min_agents(copy_dag(v.dag))
