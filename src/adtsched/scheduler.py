"""Minimal-agent schedules for preprocessed DAG variants.

Slots number the time steps 1..L backwards from the root: the root's depth
is the total completion time L, a node assigned slot s runs during step s,
and every node must sit in a strictly higher slot than each of the unit
steps below it.  The scheduler fills slots greedily from the root down,
highest level first (Hu 1961): a heap holds the unit steps whose ancestors
are all placed, deepest first.  The search for the number of agents probes
the pigeonhole bound first, which ends it wherever that count fits, and
otherwise bisects up to the width of the level structure.  Every probe
builds its own start state from the root.  Once the agent count is found,
zero-duration nodes take the cell of a neighbouring unit step, in one
bottom-up and one top-down pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .preprocess import (
    Dag,
    DagKind,
    DagNode,
    InternalError,
    Variant,
    children_first,
)


class ZeroSlots(ValueError):
    """The root has depth 0: nothing to schedule."""


class TooLarge(ValueError):
    """Instance above the brute-force limit."""


@dataclass
class Bounds:
    lower: int  # exclusive: this many agents provably cannot finish in time
    upper: int  # inclusive: this many agents always suffice
    slots: int


def compute_bounds(dag: Dag, slots_override: int | None = None) -> Bounds:
    """Agent-count bracket for the search.  ``lower`` is the pigeonhole
    bound (this many agents cannot fit n unit steps into the slots), so
    ``lower + 1`` is the first count probed; ``upper`` is the maximum number
    of unit steps sharing a level, which always succeeds.

    Fills in every node's ``depth`` bottom-up, its earliest completion time
    (unit steps add 1, joins wait for all children, an OR needs only its
    fastest child), then its ``level`` top-down, the most unit steps crossed
    on a path from the root, both over one topological order.
    """
    order = children_first(dag)
    for node in order:
        if node.kind is DagKind.SEQ:
            node.depth = node.children[0].depth + 1
        elif not node.children:
            node.depth = 0
        elif node.kind is DagKind.OR:
            node.depth = min(c.depth for c in node.children)
        else:
            node.depth = max(c.depth for c in node.children)
    per_level: dict[int, int] = {}
    n = 0
    for node in reversed(order):
        level = 0
        for p in node.parents:
            up = p.level + 1 if p.kind is DagKind.SEQ else p.level
            if up > level:
                level = up
        node.level = level
        if node.kind is DagKind.SEQ:
            n += 1
            per_level[level] = per_level.get(level, 0) + 1
    if dag.root is None or dag.root.depth == 0:
        raise ZeroSlots("root depth is zero")
    slots = dag.root.depth
    if slots_override is not None:
        if slots_override < slots:
            raise ValueError(
                "slots override %d below minimum %d" % (slots_override, slots))
        slots = slots_override
    lower = (n + slots - 1) // slots - 1
    upper = max(per_level.values())
    return Bounds(lower, upper, slots)


def _release(done, pending: list, ready: list) -> None:
    """Count the ``done`` nodes as finished for their children.  A child
    whose last pending parent this was is ready if it is a unit step, and
    done in turn if it takes no time.  ``pending`` is indexed by node
    ``index``; ``ready`` is a heap of ``(-depth, index, node)``."""
    stack = list(done)
    while stack:
        for child in stack.pop().children:
            pending[child.index] -= 1
            if not pending[child.index]:
                if child.kind is DagKind.SEQ:
                    heappush(ready, (-child.depth, child.index, child))
                else:
                    stack.append(child)


def schedule_candidate(dag: Dag, slots: int, agents: int):
    """Greedy assignment with a fixed agent count.

    Fills slots from ``slots`` down.  A unit step is ready once every parent
    is done: a unit step placed in a strictly higher slot, or a
    zero-duration node whose own parents are all done.  Each slot takes up
    to ``agents`` ready steps, deepest first (ties by creation order), and
    releases their children when it closes.  Returns the partial assignment
    and the number of unit steps left over; 0 leftovers means the candidate
    count suffices.

    Every call builds its own start state: one pass over the nodes clears
    their cells and counts each node's parents not yet done and the unit
    steps left, and the ready heap starts from ``dag.root``, the one node
    without parents, or from the unit steps its zero-duration descendants
    release.

    Expects ``depth`` to be populated (:func:`compute_bounds` does it) and
    every OR to have one child, as in the variant DAGs that
    :func:`enumerate_or_variants` builds (each chosen OR keeps only its
    chosen branch).  Then depth strictly decreases along
    every path between unit steps, so the deepest ready step is the deepest
    unplaced one, and the packer places the same steps as a sweep over
    levels that skips steps with an ancestor in the current slot.
    """
    # nodes are in creation order, so the last one has the highest index
    pending = [0] * (dag.nodes[-1].index + 1)
    n_remain = 0
    for node in dag.nodes:
        node.agent = 0
        node.slot = 0
        pending[node.index] = len(node.parents)
        if node.kind is DagKind.SEQ:
            n_remain += 1
    root = dag.root
    ready: list = []
    if root.kind is DagKind.SEQ:
        ready.append((-root.depth, root.index, root))
    else:
        _release([root], pending, ready)
    slot = slots
    while n_remain > 0 and slot > 0:
        if -ready[0][0] > slot:
            break  # some pending chain no longer fits below this slot
        occupants: dict[int, DagNode] = {}
        agent = 1
        while ready and agent <= agents:
            node = heappop(ready)[2]
            node.agent, node.slot = agent, slot
            occupants[agent] = node
            agent += 1
        n_remain -= agent - 1
        _reshuffle(agent - 1, occupants)
        _release(occupants.values(), pending, ready)
        slot -= 1
    assignment = {x: (x.agent, x.slot) for x in dag.nodes if x.slot}
    return assignment, n_remain


def _reshuffle(num_agents: int, occupants: dict) -> None:
    """Swap same-slot assignments so each unit step stays with the agent
    that carries its chain, keeping hand-offs to a minimum: a unit step
    moves to the agent of its only parent once that parent is placed.
    ``occupants`` maps agent -> the unit step it runs in one slot and is
    updated too."""
    for agent in range(1, num_agents + 1):
        current = occupants.get(agent)
        if current is None or len(current.parents) != 1:
            continue
        target = current.parents[0].agent
        if target == 0 or target == current.agent:
            continue
        other = occupants.get(target)
        if other is not None:
            other.agent = current.agent
            occupants[current.agent] = other
        else:
            del occupants[current.agent]
        current.agent = target
        occupants[target] = current


def zero_assign(dag: Dag) -> None:
    """Give every zero-duration node the cell (agent, slot) of a unit step
    next to it, in two passes over one topological order.  Expects every
    unit step placed and ``depth`` populated.

    Bottom-up, a node directly under a unit step takes the cell of that
    step (the first such parent), and otherwise a node that waits for timed
    children (depth > 0) takes the cell of the latest of them (highest
    slot, then lowest index).  Top-down, each node left over takes the cell
    of its earliest parent (lowest slot, then lowest index).  A node still
    without a cell raises :class:`InternalError`.
    """
    order = [x for x in children_first(dag) if x.kind is not DagKind.SEQ]
    for node in order:
        pick = next((p for p in node.parents if p.kind is DagKind.SEQ), None)
        if pick is None:
            waits = [c for c in node.children if c.depth > 0]
            pick = max(waits, key=lambda c: (c.slot, -c.index), default=None)
        if pick is None:
            node.agent = node.slot = 0  # placed top-down
        else:
            node.agent, node.slot = pick.agent, pick.slot
    for node in reversed(order):
        if not node.slot and node.parents:
            pick = min(node.parents, key=lambda p: (p.slot, p.index))
            node.agent, node.slot = pick.agent, pick.slot
        if not node.slot:
            raise InternalError("%s left without a slot" % node.name)


@dataclass
class ScheduleResult:
    variant: Variant
    feasible: bool
    slots: int
    agents: int
    bounds: Bounds | None
    assignment: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.variant.dag.n

    @property
    def certified(self) -> bool:
        """``agents`` is proven minimal: there is nothing to schedule, or
        the pigeonhole bound rules out one agent fewer.  Reported for the
        reader; no step of the pipeline depends on it."""
        return self.bounds is None or self.agents == self.bounds.lower + 1


def _min_agents(dag: Dag, bounds: Bounds) -> int:
    """The fewest agents the packer fits into ``bounds.slots``; the node
    fields are left holding that assignment.  The first probe runs at the
    pigeonhole bound ``lower + 1``: when it fits, no smaller count can, and
    the search ends there.  Otherwise it bisects over ``(lower + 1,
    upper]``."""
    lower, upper = bounds.lower, bounds.upper
    agents = lower + 1
    last = None
    while upper - lower > 1:
        _, remaining = schedule_candidate(dag, bounds.slots, agents)
        ok = remaining == 0
        last = (agents, ok)
        if ok:
            upper = agents
        else:
            lower = agents
        agents = lower + (upper - lower) // 2
    if last != (upper, True):
        # rerun so the node fields hold the winning assignment, not the
        # last probe's
        _, remaining = schedule_candidate(dag, bounds.slots, upper)
        if remaining != 0:
            raise InternalError("%d agents rejected despite width %d"
                                % (upper, bounds.upper))
    return upper


def _schedule_variant(variant: Variant,
                      slots_override: int | None) -> ScheduleResult:
    if not variant.feasible:
        return ScheduleResult(variant, False, 0, 0, None)
    dag = variant.dag
    if dag.n == 0:
        return ScheduleResult(variant, True, 0, 0, None)
    bounds = compute_bounds(dag, slots_override)
    agents = _min_agents(dag, bounds)
    zero_assign(dag)
    assignment = {x: (x.agent, x.slot) for x in dag.nodes}
    return ScheduleResult(variant, True, bounds.slots, agents, bounds,
                          assignment)


def min_schedule(variants: list,
                 slots_override: int | None = None) -> list:
    """Schedule every variant, in order, with the fewest agents that still
    meet its fastest completion time (or ``slots_override`` slots)."""
    return [_schedule_variant(v, slots_override) for v in variants]


@dataclass
class Violation:
    kind: str
    node: str
    message: str


def _nearest_seq_ancestors(dag: Dag) -> dict:
    """node -> the closest unit steps above it (looking through zero
    nodes)."""
    out: dict[int, frozenset] = {}
    for node in reversed(children_first(dag)):
        acc: set = set()
        for parent in node.parents:
            if parent.kind is DagKind.SEQ:
                acc.add(parent)
            else:
                acc |= out[id(parent)]
        out[id(node)] = frozenset(acc)
    return out


def _precedence_broken(dag: Dag) -> bool:
    """True when some assigned unit step sits in a slot no lower than one
    of its nearest assigned unit-step ancestors.  One parents-first pass
    carries, per node, the lowest slot a child sees through it: a unit
    step's own slot, or for a zero-duration node the lowest its parents
    show (an unassigned step shows no constraint)."""
    seq, inf = DagKind.SEQ, math.inf
    shows: dict[int, float] = {}  # node index -> the slot a child sees
    for node in reversed(children_first(dag)):
        low = inf
        for parent in node.parents:
            up = shows[parent.index]
            if up < low:
                low = up
        if node.kind is seq:
            if node.slot and low <= node.slot:
                return True
            shows[node.index] = node.slot or inf
        else:
            shows[node.index] = low
    return False


def verify_schedule(dag: Dag, slots: int | None = None,
                    agents: int | None = None) -> list:
    """Independent checks of the assignment held in the node fields.
    Returns violations as data; an empty list means the schedule is sound.
    """
    violations: list[Violation] = []
    seqs = [x for x in dag.nodes if x.kind is DagKind.SEQ]
    if slots is None:
        slots = max((x.slot for x in seqs), default=0)
    if agents is None:
        agents = max((x.agent for x in seqs), default=0)
    used: dict[tuple, DagNode] = {}
    for node in seqs:
        if node.slot == 0 or node.agent == 0:
            violations.append(Violation(
                "unassigned", node.name, "unit step never scheduled"))
            continue
        if not 1 <= node.slot <= slots:
            violations.append(Violation(
                "slot-range", node.name,
                "slot %d outside 1..%d" % (node.slot, slots)))
        if not 1 <= node.agent <= agents:
            violations.append(Violation(
                "agent-range", node.name,
                "agent %d outside 1..%d" % (node.agent, agents)))
        key = (node.agent, node.slot)
        if key in used:
            violations.append(Violation(
                "collision", node.name,
                "shares %s with %s" % (key, used[key].name)))
        used[key] = node
    if _precedence_broken(dag):
        # name every misordered (step, ancestor) pair
        nearest = _nearest_seq_ancestors(dag)
        for node in seqs:
            if node.slot == 0:
                continue
            for ancestor in nearest[id(node)]:
                if ancestor.slot != 0 and ancestor.slot <= node.slot:
                    violations.append(Violation(
                        "precedence", node.name,
                        "%s (slot %d) must come after %s (slot %d)"
                        % (ancestor.name, ancestor.slot, node.name,
                           node.slot)))
    agents_used = {x.agent for x in seqs if x.agent}
    if agents_used and agents_used != set(range(1, max(agents_used) + 1)):
        violations.append(Violation(
            "agent-gap", dag.root.name if dag.root else "",
            "agent numbers %s are not contiguous" % sorted(agents_used)))
    return violations


def brute_force_min_agents(dag: Dag, slots: int | None = None,
                           limit: int = 12) -> int:
    """Exhaustive minimal agent count, as a check on the fast path.  Builds
    its own precedence relation and chain lengths rather than trusting the
    scheduler's fields.  Raises :class:`TooLarge` past ``limit`` steps."""
    seqs = [x for x in dag.nodes if x.kind is DagKind.SEQ]
    n = len(seqs)
    if n == 0:
        return 0
    if n > limit:
        raise TooLarge("%d unit steps exceed the limit of %d" % (n, limit))

    nearest = _nearest_seq_ancestors(dag)
    above = {id(x): set(nearest[id(x)]) for x in seqs}
    below: dict[int, set] = {id(x): set() for x in seqs}
    for node in seqs:
        for anc in above[id(node)]:
            below[id(anc)].add(node)

    height: dict[int, int] = {}

    def chain(table, step_map, node):
        # longest chain through the condensed precedence graph
        key = id(node)
        if key in table:
            return table[key]
        stack = [(node, False)]
        while stack:
            cur, done = stack.pop()
            if done:
                table[id(cur)] = 1 + max(
                    (table[id(x)] for x in step_map[id(cur)]), default=0)
            elif id(cur) not in table:
                stack.append((cur, True))
                stack.extend((x, False) for x in step_map[id(cur)]
                             if id(x) not in table)
        return table[key]

    depth_of = {}
    for node in seqs:
        chain(depth_of, below, node)
    for node in seqs:
        chain(height, above, node)
    if slots is None:
        slots = max(depth_of.values())

    # ancestors must be placed before their descendants: height counts the
    # condensed chain from the top, so ascending height is a topological order
    order = sorted(seqs, key=lambda x: (height[id(x)], x.index))
    lowest = (n + slots - 1) // slots
    for candidate in range(lowest, n + 1):
        load = [0] * (slots + 1)
        placed: dict[int, int] = {}

        def fit(i):
            if i == len(order):
                return True
            node = order[i]
            top = slots - (height[id(node)] - 1)
            for anc in above[id(node)]:
                top = min(top, placed[id(anc)] - 1)
            for s in range(top, depth_of[id(node)] - 1, -1):
                if load[s] < candidate:
                    load[s] += 1
                    placed[id(node)] = s
                    if fit(i + 1):
                        return True
                    load[s] -= 1
                    del placed[id(node)]
            return False

        if fit(0):
            return candidate
    raise InternalError("no agent count up to %d works" % n)
