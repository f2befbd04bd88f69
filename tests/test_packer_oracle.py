"""The chain packer against the packers it replaced.

For every agent count the search may probe, the packer must leave the same
number of unit steps over as the unit-step heap packer and give every unit
step the same (agent, slot), read through ``unit_dag``; and it must leave
the same count and the same ``agent``, ``slot`` and ``runs`` on every node
as the tuple-keyed chain packer.
"""

import math
import random
import subprocess
import sys

from adtsched import (compute_bounds, compute_time_unit,
                      schedule_candidate, unit_dag)

from conftest import TREES, load_tree, preprocess
from rand_trees import (chains_adt, nested_chains_adt, random_adt,
                        random_small_adt)
from reference_chain_packer import schedule_candidate as tuple_candidate
from reference_heap_packer import schedule_candidate as heap_candidate

BUNDLED = ("treasure", "forestall", "iot-dev", "gain-admin",
           "interrupted", "last", "scaling", "scaling-example")


def cells(dag):
    return {x.name: (x.agent, x.slot) for x in dag.nodes}


def disagreements(adt, slots_factor=None):
    """Agent counts in ``bounds.lower+1 .. bounds.upper`` where the two
    packers differ, over every schedulable variant of ``adt``."""
    found = []
    for variant in preprocess(adt):
        if not variant.feasible or variant.dag.n == 0:
            continue
        dag = variant.dag
        override = None
        if slots_factor is not None:
            override = math.ceil(slots_factor * compute_bounds(dag).slots)
        bounds = compute_bounds(dag, override)
        twin = unit_dag(dag)  # carries depth and level
        for agents in range(bounds.lower + 1, bounds.upper + 1):
            new = (schedule_candidate(dag, bounds.slots, agents),
                   cells(unit_dag(dag)))
            old = (heap_candidate(twin, bounds.slots, agents), cells(twin))
            if new != old:
                found.append((variant.or_choices, agents))
    return found


def placement(dag):
    return [(x.agent, x.slot, x.runs) for x in dag.nodes]


def key_disagreements(adt, slack=None):
    """Agent counts in ``bounds.lower+1 .. bounds.upper`` where the
    int-keyed packer and the tuple-keyed one differ, over every schedulable
    variant of ``adt``, at the minimal deadline or ``slack`` times it."""
    found = []
    for variant in preprocess(adt):
        if not variant.feasible or variant.dag.n == 0:
            continue
        dag = variant.dag
        override = None
        if slack is not None:
            override = math.ceil(slack * compute_bounds(dag).slots)
        bounds = compute_bounds(dag, override)
        for agents in range(bounds.lower + 1, bounds.upper + 1):
            new = (schedule_candidate(dag, bounds.slots, agents),
                   placement(dag))
            old = (tuple_candidate(dag, bounds.slots, agents),
                   placement(dag))
            if new != old:
                found.append((variant.or_choices, agents))
    return found


def scaled(name, factor):
    """A bundled tree with every attack leaf ``factor`` times as long, one
    of them a unit longer so that the time unit stays 1."""
    adt = load_tree(name)
    leaves = [x for x in adt.nodes.values() if not x.children
              and x.role.value == "attack" and x.duration]
    for node in leaves:
        node.duration *= factor
    leaves[0].duration += 1
    assert compute_time_unit(adt) == 1
    return adt


def test_bundled_trees_pack_as_before():
    for name in BUNDLED:
        assert disagreements(load_tree(name)) == [], name


def test_scaled_bundled_trees_pack_as_before():
    for factor in (7, 31):
        for name in BUNDLED:
            assert disagreements(scaled(name, factor)) == [], (name, factor)


def test_random_trees_pack_as_before():
    rng = random.Random(74)
    for _ in range(200):
        adt = random_small_adt(rng, defence_prob=0.25)
        assert disagreements(adt) == [], adt


def test_long_random_trees_pack_as_before():
    rng = random.Random(18)
    for _ in range(300):
        adt = random_adt(rng, max_time=20, defence_prob=0.25)
        assert disagreements(adt) == [], adt


def test_wide_chains_pack_as_before():
    rng = random.Random(5)
    adt = chains_adt([rng.randint(1, 20) for _ in range(30)])
    for factor in (None, 1.25, 2, 2.5):
        assert disagreements(adt, slots_factor=factor) == [], factor


def test_equal_chains_rotate_as_before():
    # k+1 equal chains on k agents under a relaxed deadline: the waiting
    # chain overtakes a running one in every slot
    for k, length in ((2, 9), (3, 40), (5, 17)):
        adt = chains_adt([length] * (k + 1))
        factor = (k + 1) / k
        assert disagreements(adt, slots_factor=factor) == [], k


def test_wide_chain_sets_key_as_before():
    # the benchmark's shape: 30-80 chains of 1..200 steps
    rng = random.Random(40)
    for _ in range(4):
        adt = chains_adt([rng.randint(1, 200)
                          for _ in range(rng.randint(30, 80))])
        for slack in (None, rng.uniform(1.25, 2.5)):
            assert key_disagreements(adt, slack) == [], (adt, slack)


def test_nested_chains_key_as_before():
    # chains under ANDs and SANDs wait at different child depths, so the
    # chains tied at one depth differ in weight and depth
    rng = random.Random(41)
    for _ in range(60):
        adt = nested_chains_adt(rng, rng.randint(2, 30), rng.randint(1, 50))
        for slack in (None, rng.uniform(1.1, 2.5)):
            assert key_disagreements(adt, slack) == [], (adt, slack)


def test_random_trees_key_as_before():
    rng = random.Random(42)
    for _ in range(200):
        adt = random_adt(rng, max_time=20, defence_prob=0.25)
        for slack in (None, 1.5):
            assert key_disagreements(adt, slack) == [], (adt, slack)


def test_a_million_step_action_schedules_quickly(tmp_path):
    tree = tmp_path / "long.adt"
    tree.write_text("r: AND(a, b)\na: ATTACK time=1000000\nb: ATTACK time=1\n")
    done = subprocess.run(
        [sys.executable, "-m", "adtsched.cli", "schedule", str(tree),
         "--csv"],
        cwd=TREES.parent, capture_output=True, text=True, timeout=5,
        env={"PYTHONPATH": str(TREES.parent / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1] == "1,,true,1000000,2,1000001,0"
