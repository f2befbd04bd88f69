"""The ready-heap packer against the level-sweep packer it replaced.

For every agent count the bisection may probe, both packers must leave the
same number of unit steps over and give every node the same (agent, slot).
"""

import random

from adtsched import compute_bounds, preprocess, schedule_candidate
from adtsched.preprocess import copy_dag

from conftest import load_tree
from rand_trees import chains_adt, random_small_adt
from reference_packer import level_sweep_candidate

BUNDLED = ("treasure", "forestall", "iot-dev", "gain-admin",
           "interrupted", "last", "scaling", "scaling-example")


def packings(dag, slots, agents, packer):
    """``packer`` returns the leftover count and leaves its assignment in
    the node fields."""
    left = packer(dag, slots, agents)
    return left, {x.name: (x.agent, x.slot) for x in dag.nodes}


def level_sweep_leftovers(dag, slots, agents):
    return level_sweep_candidate(dag, slots, agents)[1]


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
            compute_bounds(dag)
            override = slots_factor * dag.root.depth
        bounds = compute_bounds(dag, override)
        twin = copy_dag(dag)  # carries depth and level
        for agents in range(bounds.lower + 1, bounds.upper + 1):
            new = packings(dag, bounds.slots, agents, schedule_candidate)
            old = packings(twin, bounds.slots, agents, level_sweep_leftovers)
            if new != old:
                found.append((variant.or_choices, agents))
    return found


def test_bundled_trees_pack_as_before():
    for name in BUNDLED:
        assert disagreements(load_tree(name)) == [], name


def test_random_trees_pack_as_before():
    rng = random.Random(74)
    for _ in range(200):
        adt = random_small_adt(rng, defence_prob=0.25)
        assert disagreements(adt) == [], adt


def test_wide_chains_pack_as_before():
    rng = random.Random(5)
    adt = chains_adt([rng.randint(1, 20) for _ in range(30)])
    assert disagreements(adt) == []
    assert disagreements(adt, slots_factor=2) == []

