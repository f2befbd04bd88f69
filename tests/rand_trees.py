"""Tree builders shared by property, scheduler and end-to-end tests."""

import math
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


def wide_adt(rng, max_counters=10):
    """Build one AND, OR or SAND over 2..30 children.

    Each child is a timed attack leaf; a CAND, NODEF or SCAND over an
    attack leaf and a defence leaf; or an OR or AND over a leaf and either
    a slower leaf or such a counter gate.  An OR's slower leaf outlasts
    the tree's fastest time, so only counter gates leave an OR a choice,
    and at most ``max_counters`` of them keep the tree at no more than
    2^max_counters defence outcomes and as many time-optimal OR
    selections.
    """
    nodes = {}
    counters = [0]

    def add(prefix, kind, role=Role.ATTACK, children=(), duration=0):
        label = "%s%d" % (prefix, len(nodes))
        nodes[label] = AdtNode(label, kind, children=list(children),
                               duration=duration,
                               cost=rng.choice((0, 0, 10, 25)), role=role)
        return label

    def leaf(duration=None):
        return add("n", NodeKind.LEAF,
                   duration=rng.randint(1, 3) if duration is None
                   else duration)

    def counter_gate():
        counters[0] += 1
        return add("c", rng.choice(COUNTER_GATES),
                   children=[leaf(), add("d", NodeKind.LEAF, Role.DEFENCE)])

    def child():
        pick = rng.randrange(3)
        room = counters[0] < max_counters
        if pick == 0 or (pick == 1 and not room):
            return leaf()
        if pick == 1:
            return counter_gate()
        kind = rng.choice((NodeKind.OR, NodeKind.AND))
        first = leaf()
        if room and rng.random() < 0.5:
            second = counter_gate()
        elif kind is NodeKind.OR:  # never fits the fastest time
            second = leaf(rng.randint(6, 7))
        else:
            second = leaf(nodes[first].duration + rng.randint(1, 2))
        return add("g", kind, children=[first, second])

    kids = [child() for _ in range(rng.randint(2, 30))]
    root = add("r", rng.choice(ATTACK_GATES), children=kids)
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


def nested_chains_adt(rng, width, max_time, gate_prob=0.5):
    """AND over ``width`` parts.  Each part is an attack leaf with a
    duration in 1..max_time or, with ``gate_prob``, an AND or SAND over two
    or three parts one level down, two levels at most.  A SAND makes its
    later chains wait for the earlier ones, so the chains sit at different
    child depths and equal depths pair chains of different shapes."""
    nodes = {}

    def add(kind, children=(), duration=0):
        label = "%s%d" % ("g" if children else "c", len(nodes))
        nodes[label] = AdtNode(label, kind, children=list(children),
                               duration=duration, role=Role.ATTACK)
        return label

    def part(levels):
        if levels and rng.random() < gate_prob:
            kind = rng.choice((NodeKind.AND, NodeKind.SAND))
            return add(kind, [part(levels - 1)
                              for _ in range(rng.randint(2, 3))])
        return add(NodeKind.LEAF, duration=rng.randint(1, max_time))

    root = add(NodeKind.AND, [part(2) for _ in range(width)])
    return Adt(root=root, nodes=nodes)


def critical_slots(adt):
    """The fastest completion time of a tree of attack leaves, ANDs and
    SANDs, in units of the greatest common divisor of its durations."""
    def time(label):
        node = adt.nodes[label]
        below = [time(child) for child in node.children]
        if node.kind is NodeKind.SAND:
            return node.duration + sum(below)
        return node.duration + max(below, default=0)

    return time(adt.root) // math.gcd(*(x.duration
                                        for x in adt.nodes.values()))
