"""The one-pass case search against the per-configuration search it
replaced (``reference_cases.py``).

On every tree, in both modes, both must find the same cases in the same
order, each with the same signature, merged signatures (in order) and
representative configuration, and the same variants with the same OR
choices and DAG node names.  The trees include ones where
a counter gate sits inside another's action, so that the gate order of the
defence roots differs from the order of their leaf blocks.
"""

import random

from adtsched import (
    FAILED,
    OPERATING,
    enumerate_defence_variants,
    parse_adt,
    preprocess_cases,
)
from adtsched.preprocess import _block_order, _sides, defence_roots

from conftest import TREES
from rand_trees import random_adt
from reference_cases import reference_cases, reference_defence_variants


def program_cases(adt, all_variants):
    return [{"signature": case.signature,
             "merged_signatures": case.merged_signatures,
             "config": case.config,
             "variants": [(v.or_choices, [x.name for x in v.dag.nodes])
                          for v in case.variants]}
            for case in preprocess_cases(adt, all_variants)]


def agree(adt):
    for all_variants in (True, False):
        got = program_cases(adt, all_variants)
        want = reference_cases(adt, all_variants)
        assert [list(c["signature"].items()) for c in got] \
            == [list(c["signature"].items()) for c in want]
        assert [list(c["config"].items()) for c in got] \
            == [list(c["config"].items()) for c in want]
        assert got == want


def gate_order_differs(adt):
    _, defence, roots = _sides(adt)
    return _block_order(defence, roots) != roots


NESTED = """\
r: CAND(x, d1)
x: NODEF(y, d2)
y: SCAND(a, d3)
a: ATTACK time=2
d1: OR(e1, f1)
e1: DEFENCE time=1
f1: DEFENCE time=1
d2: AND(e2, f2)
e2: DEFENCE time=1
f2: DEFENCE time=1
d3: DEFENCE time=1
"""


def test_bundled_trees_give_the_same_cases():
    for path in sorted(TREES.glob("*.adt")):
        agree(parse_adt(path.read_text()))


def test_nested_counter_gates_give_the_same_cases():
    adt = parse_adt(NESTED)
    assert defence_roots(adt) == ["d1", "d2", "d3"]
    _, defence, roots = _sides(adt)
    assert _block_order(defence, roots) == ["d3", "d2", "d1"]
    agree(adt)
    # the outcomes are listed FAILED first in block order, d3 slowest
    assert [c.signature for c in preprocess_cases(adt)][:2] == [
        {"d1": FAILED, "d2": FAILED, "d3": FAILED},
        {"d1": OPERATING, "d2": FAILED, "d3": FAILED},
    ]


def test_random_trees_give_the_same_cases():
    differing = 0
    for seed in range(3000):
        adt = random_adt(random.Random(seed), max_leaves=12, max_time=3,
                         defence_prob=(0.2, 0.4, 0.6)[seed % 3])
        differing += gate_order_differs(adt)
        agree(adt)
    assert differing > 100  # the two root orders are exercised
    for seed in range(1000):  # larger trees, more counter gates
        agree(random_adt(random.Random(seed), max_leaves=24, max_time=4,
                         defence_prob=0.5))


def test_defence_variants_match_the_leaf_product():
    adts = [parse_adt(path.read_text()) for path in sorted(TREES.glob("*.adt"))]
    adts.append(parse_adt(NESTED))
    composite, seed = 0, 0
    while composite < 300:
        adt = random_adt(random.Random(seed), max_leaves=12, max_time=3,
                         defence_prob=0.5)
        seed += 1
        _, defence, _ = _sides(adt)
        if any(children for _, _, _, children in defence):
            composite += 1
            adts.append(adt)
    for adt in adts:
        got = enumerate_defence_variants(adt)
        want = reference_defence_variants(adt)
        assert [list(c.items()) for c in got] == [list(c.items()) for c in want]
