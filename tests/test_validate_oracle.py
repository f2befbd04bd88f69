"""``validate_adt`` against the three-pass validation it replaced
(``reference_validate.py``): the same errors, in the same order, and the
same derived roles, on the bundled trees and on random label graphs that
break the tree shape in every way the validation knows."""

import random

import pytest

from adtsched import Adt, AdtNode, NodeKind, Role, parse_adt, validate_adt

from conftest import TREES
from reference_validate import reference_validate_adt

GRAPHS = 20000
PLAIN = (NodeKind.AND, NodeKind.OR, NodeKind.SAND)
COUNTER = (NodeKind.CAND, NodeKind.SCAND, NodeKind.NODEF)


def label_graph(seed):
    """A random tree of labels, roles declared as they derive, then broken
    at random: back edges to the root, detached cycles and subtrees, shared
    and repeated children, counter gates inside defences (which the tree
    grows on its own), flipped leaf roles and the local shape errors.  The
    same seed builds an equal, independent graph."""
    rng = random.Random(seed)
    nodes = {}

    def add(kind, children=(), role=Role.ATTACK):
        label = "n%d" % len(nodes)
        duration = rng.randint(0, 3) if kind is NodeKind.LEAF else 0
        nodes[label] = AdtNode(label, kind, list(children), duration,
                               role=role)
        return label

    def grow(role, depth):
        pick = rng.random()
        if depth == 0 or pick < 0.4:
            flip = rng.random() < 0.05
            return add(NodeKind.LEAF, role=role.flipped() if flip else role)
        if pick < 0.75:
            kids = [grow(role, depth - 1) for _ in range(rng.randint(1, 3))]
            return add(rng.choice(PLAIN), kids)
        kids = [grow(role, depth - 1), grow(role.flipped(), depth - 1)]
        return add(rng.choice(COUNTER), kids)

    root = grow(Role.ATTACK, rng.randint(1, 4))
    gates = [x for x in nodes.values() if x.children]
    plain = [x for x in gates if x.kind in PLAIN]
    others = [label for label in nodes if label != root]
    if plain and rng.random() < 0.2:  # a cycle through the root
        gate = rng.choice(plain)
        gate.children.insert(rng.randint(0, len(gate.children)), root)
    if rng.random() < 0.1:  # a detached cycle
        first = add(NodeKind.AND)
        nodes[first].children.append(add(rng.choice(PLAIN), [first]))
    if rng.random() < 0.1:  # a detached subtree
        grow(Role.ATTACK, 2)
    if gates and others and rng.random() < 0.1:
        rng.choice(gates).children.append(rng.choice(others))
    if gates and rng.random() < 0.03:
        gate = rng.choice(gates)
        gate.children.append(gate.children[0])
    if gates and rng.random() < 0.03:
        rng.choice(gates).children.append("ghost")
    if gates and rng.random() < 0.03:
        rng.choice(gates).children.clear()
    if rng.random() < 0.03:
        leaf = rng.choice([x for x in nodes.values() if not x.children])
        leaf.children.append(add(NodeKind.LEAF))
    if rng.random() < 0.03:
        rng.choice(list(nodes.values())).duration = -1
    if rng.random() < 0.02:
        rng.choice(list(nodes.values())).label = "alias"
    if rng.random() < 0.02:
        root = "nope"
    items = list(nodes.items())
    if rng.random() < 0.5:
        rng.shuffle(items)
    return Adt(root, dict(items))


def outcome(validate, adt):
    errors = [(e.kind, e.label, e.message) for e in validate(adt)]
    return errors, [(label, x.role) for label, x in adt.nodes.items()]


def test_bundled_trees_validate_as_before():
    for path in sorted(TREES.glob("*.adt")):
        text = path.read_text()
        got = outcome(validate_adt, parse_adt(text))
        assert got == outcome(reference_validate_adt, parse_adt(text)), path
        assert got[0] == []


def test_random_label_graphs_validate_as_before():
    kinds = {}
    for seed in range(GRAPHS):
        got = outcome(validate_adt, label_graph(seed))
        want = outcome(reference_validate_adt, label_graph(seed))
        assert got == want, seed
        for kind, *_ in got[0] or [("valid",)]:
            kinds[kind] = kinds.get(kind, 0) + 1
    # every error kind, and valid trees, among the graphs
    assert len(kinds) == 14, kinds


@pytest.mark.parametrize("kind", COUNTER)
def test_cycle_met_after_a_counter_gate_in_a_defence(kind):
    # the walk meets d, a counter gate inside a defence, before y leads
    # back to the root: only the cycle is reported, at the root
    adt = Adt("r", {
        "r": AdtNode("r", NodeKind.CAND, ["a", "d"]),
        "a": AdtNode("a", NodeKind.LEAF, duration=1),
        "d": AdtNode("d", kind, ["x", "y"]),
        "x": AdtNode("x", NodeKind.LEAF, role=Role.DEFENCE),
        "y": AdtNode("y", NodeKind.AND, ["r"]),
    })
    errors = [(e.kind, e.label, e.message) for e in validate_adt(adt)]
    assert errors == [("cycle", "r", "'r' is its own descendant")]
    assert errors == [(e.kind, e.label, e.message)
                      for e in reference_validate_adt(adt)]
