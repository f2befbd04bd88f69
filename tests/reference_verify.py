"""The tuple-sorting schedule check that the int-keyed one replaced.

Kept verbatim as a differential oracle.  It turns every run into an
``(agent, first slot, last slot, first step's index, chain)`` span, sorts
them all and sweeps them for collisions.  ``adtsched.verify_schedule``
must return the same ``Violation`` list, in the same order.
"""

import math

from adtsched.preprocess import Dag, node_runs, step_name
from adtsched.scheduler import (Violation, _nearest_seq_ancestors,
                                _precedence_broken)


def verify_schedule(dag: Dag, slots: int | None = None,
                    agents: int | None = None) -> list:
    """Independent checks of the assignment held in the node fields.
    Returns violations as data; an empty list means the schedule is sound.
    Reads each chain's runs, so it takes time linear in the nodes and runs,
    and one sort of the runs: two steps collide where runs of one agent
    overlap.
    """
    violations: list[Violation] = []
    chains = [(x, node_runs(x)) for x in dag.nodes if x.weight]
    if slots is None:
        slots = max((first + length - 1 for _, runs in chains
                     for _, first, length in runs), default=0)
    if agents is None:
        agents = max((run[0] for _, runs in chains for run in runs),
                     default=0)
    spans = []  # (agent, first slot, last slot, first step's index, chain)
    ends = {}   # chain index -> (slot of its latest step, slot of X_1)
    for node, runs in chains:
        placed = runs[0][2] if len(runs) == 1 else sum(r[2] for r in runs)
        j = node.weight + 1 - placed  # the step at the start of a run
        for missing in range(1, j):
            violations.append(Violation(
                "unassigned", step_name(node, missing),
                "unit step never scheduled"))
        last = 0
        for agent, first, length in runs:
            end = first + length - 1
            if not (agent and first):
                for k in range(j, j + length):
                    violations.append(Violation(
                        "unassigned", step_name(node, k),
                        "unit step never scheduled"))
            else:
                if first < 1 or end > slots:
                    violations.append(Violation(
                        "slot-range", step_name(node, j),
                        "slots %d..%d outside 1..%d" % (first, end, slots)))
                if not 1 <= agent <= agents:
                    violations.append(Violation(
                        "agent-range", step_name(node, j),
                        "agent %d outside 1..%d" % (agent, agents)))
                if last and first <= last:
                    violations.append(Violation(
                        "precedence", step_name(node, j - 1),
                        "%s (slot %d) must come after %s (slot %d)"
                        % (step_name(node, j), first, step_name(node, j - 1),
                           last)))
                spans.append((agent, first, end, node.index + j - 1, node))
            if first:
                last = end
            j += length
        whole = placed == node.weight and runs[0][1]
        ends[node.index] = (last, runs[0][1] if whole else math.inf)
    spans.sort()
    reach = None  # the span of this agent that reaches the highest slot
    for span in spans:
        if reach is not None and reach[0] == span[0] \
                and span[1] <= reach[2]:
            slot, node, other = span[1], span[4], reach[4]
            violations.append(Violation(
                "collision", step_name(node, span[3] - node.index + 1),
                "shares %s with %s" % (
                    (span[0], slot),
                    step_name(other, reach[3] - other.index + 1
                              + slot - reach[1]))))
        if reach is None or reach[0] != span[0] or span[2] > reach[2]:
            reach = span
    if _precedence_broken(dag, ends):
        # name every misordered (step, ancestor) pair
        nearest = _nearest_seq_ancestors(dag)
        for node, _ in chains:
            top = ends[node.index][0]
            if not top:
                continue
            for ancestor in nearest[id(node)]:
                low = ends[ancestor.index][1]
                if low <= top:
                    violations.append(Violation(
                        "precedence", step_name(node, node.weight),
                        "%s (slot %d) must come after %s (slot %d)"
                        % (ancestor.name, low, step_name(node, node.weight),
                           top)))
    agents_used = {span[0] for span in spans}
    if agents_used and agents_used != set(range(1, max(agents_used) + 1)):
        violations.append(Violation(
            "agent-gap", dag.root.name if dag.root else "",
            "agent numbers %s are not contiguous" % sorted(agents_used)))
    return violations
