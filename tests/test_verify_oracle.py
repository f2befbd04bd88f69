"""``verify_schedule`` against the tuple-sorting check it replaced.

Schedules of bundled, random and chain-set trees are broken on purpose:
cells shared between chains, overlapping runs, slots and agents out of
range, agent gaps and steps left unplaced.  Both checks must return the
same ``Violation`` list, in the same order, with the deadline and agent
count given and with both read from the schedule.
"""

import random
import time

from adtsched import Dag, DagKind, min_schedule, verify_schedule
from adtsched.preprocess import node_runs

from conftest import load_tree, preprocess
from rand_trees import chains_adt, nested_chains_adt, random_adt
from reference_verify import verify_schedule as tuple_verify


def scheduled(adt, slack=None):
    """(dag, slots, agents) of every schedulable variant of ``adt``."""
    variants = [v for v in preprocess(adt) if v.feasible and v.dag.n]
    if not variants:
        return []
    override = None
    if slack is not None:
        override = max(int(slack * r.slots) for r in min_schedule(variants))
    return [(r.variant.dag, r.slots, r.agents)
            for r in min_schedule(variants, override)]


def set_runs(node, runs):
    """Place the chain ``node`` as ``runs``; no runs unplace it."""
    node.runs = tuple(runs)
    if not runs:
        node.agent = node.slot = 0


def share(rng, chains, slots, agents):
    # a run moved onto cells another chain holds
    a, b = rng.sample(chains, 2)
    runs = list(node_runs(a))
    if not runs or not node_runs(b):
        return
    agent, first, length = rng.choice(node_runs(b))
    k = rng.randrange(len(runs))
    runs[k] = (agent, first + rng.randrange(length), runs[k][2])
    set_runs(a, runs)


def overlap(rng, chains, slots, agents):
    # a run shifted by a slot or two on its own agent
    node = rng.choice(chains)
    runs = list(node_runs(node))
    if not runs:
        return
    k = rng.randrange(len(runs))
    agent, first, length = runs[k]
    runs[k] = (agent, first + rng.choice((-2, -1, 1, 2)), length)
    set_runs(node, runs)


def slot_range(rng, chains, slots, agents):
    node = rng.choice(chains)
    runs = list(node_runs(node))
    if not runs:
        return
    k = rng.randrange(len(runs))
    agent, first, length = runs[k]
    first = rng.choice((0, -1, slots, slots + 1, slots - length + 2))
    runs[k] = (agent, first, length)
    set_runs(node, runs)


def agent_range(rng, chains, slots, agents):
    node = rng.choice(chains)
    runs = list(node_runs(node))
    if not runs:
        return
    k = rng.randrange(len(runs))
    _, first, length = runs[k]
    runs[k] = (rng.choice((0, -1, agents + 1, agents + 3)), first, length)
    set_runs(node, runs)


def agent_gap(rng, chains, slots, agents):
    # every run of one agent moved to a fresh one past the rest
    agent = rng.randint(1, agents)
    for node in chains:
        set_runs(node, [(agents + 1 if a == agent else a, first, length)
                        for a, first, length in node_runs(node)])


def unassigned(rng, chains, slots, agents):
    # the lowest run dropped, or the whole chain unplaced
    node = rng.choice(chains)
    set_runs(node, node_runs(node)[1:] if rng.random() < 0.5 else ())


MUTATIONS = (share, overlap, slot_range, agent_range, agent_gap, unassigned)


def disagreements(rng, cases, rounds):
    """Mutated schedules, 1-3 mutations each, on which the two checks
    differ; every schedule is restored after each round."""
    found = []
    for dag, slots, agents in cases:
        chains = [x for x in dag.nodes if x.weight]
        saved = [(x.agent, x.slot, x.runs) for x in dag.nodes]
        for _ in range(rounds):
            names = []
            for _ in range(rng.randint(1, 3)):
                mutation = rng.choice(MUTATIONS)
                if mutation is share and len(chains) < 2:
                    continue
                mutation(rng, chains, slots, agents)
                names.append(mutation.__name__)
            for args in ((slots, agents), (None, None)):
                if verify_schedule(dag, *args) != tuple_verify(dag, *args):
                    found.append((names, args))
            for node, (agent, slot, runs) in zip(dag.nodes, saved):
                node.agent, node.slot, node.runs = agent, slot, runs
        assert verify_schedule(dag, slots, agents) == []
    return found


def test_sound_schedules_pass_both():
    for name in ("treasure", "forestall", "iot-dev", "interrupted"):
        for dag, slots, agents in scheduled(load_tree(name)):
            assert verify_schedule(dag, slots, agents) == []
            assert tuple_verify(dag, slots, agents) == []


def test_broken_bundled_schedules_report_as_before():
    rng = random.Random(31)
    for name in ("treasure", "forestall", "iot-dev", "gain-admin",
                 "interrupted", "last", "scaling"):
        assert disagreements(rng, scheduled(load_tree(name)), 20) == [], name


def test_broken_random_schedules_report_as_before():
    rng = random.Random(32)
    for _ in range(150):
        adt = random_adt(rng, max_time=6, defence_prob=0.25)
        slack = rng.choice((None, 1.5))
        assert disagreements(rng, scheduled(adt, slack), 4) == [], adt


def test_broken_chain_sets_report_as_before():
    rng = random.Random(33)
    for _ in range(20):
        adt = chains_adt([rng.randint(1, 60)
                          for _ in range(rng.randint(2, 40))])
        slack = rng.choice((None, 1.25, 2.5))
        assert disagreements(rng, scheduled(adt, slack), 10) == [], adt
    for _ in range(20):
        adt = nested_chains_adt(rng, rng.randint(2, 20), rng.randint(1, 30))
        slack = rng.choice((None, 1.5))
        assert disagreements(rng, scheduled(adt, slack), 10) == [], adt


def test_a_billion_step_chain_verifies_at_once():
    # memory and time follow the runs, not the slots
    steps = 10 ** 9
    dag = Dag()
    dag.root = node = dag.new_node("a", "a", DagKind.SEQ, weight=steps)
    node.agent, node.slot = 1, 1
    start = time.perf_counter()
    assert verify_schedule(dag, steps, 1) == []
    # X_1 unplaced, and the two runs share slot steps / 2 + 1
    node.runs = ((1, 1, steps // 2 + 1), (1, steps // 2 + 1, steps // 2 - 2))
    kinds = [v.kind for v in verify_schedule(dag, steps, 1)]
    assert kinds == ["unassigned", "precedence", "collision"]
    assert time.perf_counter() - start < 1
