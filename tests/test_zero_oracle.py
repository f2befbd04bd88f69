"""The two-pass zero-duration placement against the sweep it replaced.

After packing, at the minimal deadline and at twice that many slots, both
must give every node the same (agent, slot), read in the unit-step view.
"""

import random

from adtsched import (DagKind, compute_bounds, min_schedule, preprocess,
                      unit_dag)

from conftest import TREES, load_tree
from rand_trees import random_small_adt
from reference_zero_assign import sweep_zero_assign


def cells(dag):
    return {x.name: (x.agent, x.slot) for x in dag.nodes}


def disagreements(adt):
    """``(or_choices, slots)`` of every schedulable variant of ``adt`` where
    the two placements differ."""
    found = []
    for variant in preprocess(adt):
        if not variant.feasible or variant.dag.n == 0:
            continue
        dag = variant.dag
        least = compute_bounds(dag).slots
        for slots in (least, 2 * least):
            min_schedule([variant], slots_override=slots)
            units = unit_dag(dag)
            new = cells(units)
            for node in units.nodes:
                if node.kind is not DagKind.SEQ:
                    node.agent = node.slot = 0
            sweep_zero_assign(units)
            if cells(units) != new:
                found.append((variant.or_choices, slots))
    return found


def test_bundled_trees_place_as_before():
    for path in sorted(TREES.glob("*.adt")):
        assert disagreements(load_tree(path.stem)) == [], path.stem


def test_random_trees_place_as_before():
    # the 200 trees the packer oracle draws
    rng = random.Random(74)
    for _ in range(200):
        adt = random_small_adt(rng, defence_prob=0.25)
        assert disagreements(adt) == [], adt
