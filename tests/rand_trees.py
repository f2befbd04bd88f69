"""Tree builders shared by property, scheduler and end-to-end tests."""

import random

from adtsched import Adt, AdtNode, NodeKind, Role

ATTACK_GATES = (NodeKind.AND, NodeKind.OR, NodeKind.SAND)
COUNTER_GATES = (NodeKind.CAND, NodeKind.SCAND, NodeKind.NODEF)


def random_adt(rng, max_leaves=6, max_time=3, defence_prob=0.0,
               allow_nodef=True):
    """Build one valid random tree.

    ``defence_prob`` is the chance that an attack gate position becomes a
    counter gate with a small defence subtree on its second slot.  At least
    one node always carries a positive duration.
    """
    nodes = {}
    counter = [0]

    def fresh(prefix="n"):
        counter[0] += 1
        return "%s%d" % (prefix, counter[0])

    def leaf(role, max_t):
        label = fresh("d" if role is Role.DEFENCE else "n")
        nodes[label] = AdtNode(label, NodeKind.LEAF,
                               duration=rng.randint(0, max_t),
                               cost=rng.choice((0, 0, 10, 25)),
                               role=role)
        return label

    def defence_subtree(depth):
        if depth <= 0 or rng.random() < 0.6:
            return leaf(Role.DEFENCE, max_time)
        kind = rng.choice(ATTACK_GATES)
        kids = [defence_subtree(depth - 1) for _ in range(rng.randint(1, 2))]
        label = fresh("d")
        nodes[label] = AdtNode(label, kind, children=kids,
                               duration=rng.randint(0, max_time),
                               role=Role.DEFENCE)
        return label

    def attack_subtree(depth, budget):
        if depth <= 0 or budget <= 1 or rng.random() < 0.3:
            return leaf(Role.ATTACK, max_time)
        if rng.random() < defence_prob:
            kinds = COUNTER_GATES if allow_nodef else COUNTER_GATES[:2]
            kind = rng.choice(kinds)
            kids = [attack_subtree(depth - 1, budget - 1),
                    defence_subtree(1)]
        else:
            kind = rng.choice(ATTACK_GATES)
            width = rng.randint(1, min(3, budget))
            share = max(1, budget // max(width, 1))
            kids = [attack_subtree(depth - 1, share) for _ in range(width)]
        label = fresh()
        nodes[label] = AdtNode(label, kind, children=kids,
                               duration=rng.randint(0, max_time),
                               role=Role.ATTACK)
        return label

    root = attack_subtree(rng.randint(1, 3), max_leaves)
    if all(x.duration == 0 for x in nodes.values()):
        nodes[root].duration = max(1, max_time)
    return Adt(root=root, nodes=nodes)


def random_small_adt(rng, seq_cap=12, **kwargs):
    """Random tree whose total duration over every node stays under
    ``seq_cap`` — after preprocessing no variant can exceed that many
    unit-duration nodes, which keeps exhaustive scheduling tractable."""
    while True:
        adt = random_adt(rng, max_time=2, **kwargs)
        if 0 < sum(x.duration for x in adt.nodes.values()) <= seq_cap:
            return adt


def chains_adt(durations):
    """AND over independent attack chains with the given durations."""
    labels = ["c%d" % i for i in range(len(durations))]
    nodes = {"r": AdtNode("r", NodeKind.AND, children=labels,
                          role=Role.ATTACK)}
    for label, d in zip(labels, durations):
        nodes[label] = AdtNode(label, NodeKind.LEAF, duration=d,
                               role=Role.ATTACK)
    return Adt(root="r", nodes=nodes)
