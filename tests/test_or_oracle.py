"""The tree-level OR walk against the DAG-level walk it replaced.

For every defence outcome, both must find the same time-optimal OR
selections in the same order, and each selection's DAG must have the same
nodes in the same order with the same names, kinds and edge order.
"""

import random

from adtsched import (
    enumerate_defence_variants,
    enumerate_or_variants,
    parse_adt,
    unit_dag,
)

from conftest import TREES, load_tree
from rand_trees import random_adt
from reference_or_walk import reference_or_variants


def shape(dag):
    return [(x.name, x.origin, x.kind, [c.name for c in x.children],
             [p.name for p in x.parents]) for x in dag.nodes]


def disagreements(adt):
    found = []
    for config in enumerate_defence_variants(adt):
        new = [(list(v.or_choices.items()), shape(unit_dag(v.dag)),
                unit_dag(v.dag).root.name if v.dag.root else None)
               for v in enumerate_or_variants(adt, config)]
        old = [(list(choices.items()), shape(dag),
                dag.root.name if dag.root else None)
               for choices, dag in reference_or_variants(adt, config)]
        if new != old:
            found.append(config)
    return found


def test_bundled_trees_walk_as_before():
    for path in sorted(TREES.glob("*.adt")):
        assert disagreements(load_tree(path.stem)) == [], path.stem


def test_random_trees_walk_as_before():
    for seed in range(300):
        # unit durations on every other tree, so OR branches often tie
        adt = random_adt(random.Random(seed), max_leaves=12,
                         max_time=(1, 3)[seed % 2],
                         defence_prob=(0.2, 0.4, 0.6)[seed % 3])
        assert disagreements(adt) == [], seed


def sand_of_ors(rng):
    """AND over a long leaf and a SAND of ORs.  The leaf leaves the SAND
    room for some slower alternatives but not for every combination of
    them, so the walk must drop the combinations that overrun it."""
    ors = ["o%d" % i for i in range(rng.randint(2, 4))]
    lines = ["r: AND(big, s)", "s: SAND(%s)" % ", ".join(ors)]
    fastest = slowest = 0
    for gate in ors:
        times = [rng.randint(1, 6) for _ in range(rng.randint(2, 3))]
        fastest, slowest = fastest + min(times), slowest + max(times)
        kids = [gate + "abc"[j] for j in range(len(times))]
        lines.append("%s: OR(%s)" % (gate, ", ".join(kids)))
        lines += ["%s: ATTACK time=%d" % kv for kv in zip(kids, times)]
    lines.append("big: ATTACK time=%d" % rng.randint(fastest, slowest))
    return parse_adt("\n".join(lines) + "\n")


def test_sand_of_ors_under_a_long_leaf_walks_as_before():
    for seed in range(200):
        assert disagreements(sand_of_ors(random.Random(seed))) == [], seed
