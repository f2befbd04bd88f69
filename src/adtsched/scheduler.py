"""Minimal-agent schedules for preprocessed DAG variants and whole trees.

Slots number the time steps 1..L backwards from the root: the root's depth
is the total completion time L, a node assigned slot s runs during step s,
and every node must sit in a strictly higher slot than each of the unit
steps below it.  The scheduler fills slots greedily from the root down,
highest level first (Hu 1961): a heap holds the chains whose next unit
step has all its ancestors placed, as one int per chain that orders them
by the depth of that step and then by chain index, and where the
placement settles it jumps over the slots that repeat it.  A chain's
placement is a list of runs (agent, first slot, length).  The search for
the number of agents probes the pigeonhole bound first, which ends it
wherever that count fits, and otherwise bisects up to the width of the
level structure.  Every probe builds its own start state from the root.
Once the agent count is found, zero-duration nodes take the cell of a
neighbouring unit step, in one bottom-up and one top-down pass, and the
schedule is verified before it is returned.
"""

from __future__ import annotations

import math
from collections import namedtuple
from heapq import heappop, heappush

from .model import Adt
from .preprocess import (
    Dag,
    DagKind,
    DagNode,
    InternalError,
    Variant,
    children_first,
    node_runs,
    preprocess_cases,
    step_name,
    unit_dag,
)


class ZeroSlots(ValueError):
    """The root has depth 0: nothing to schedule."""


class TooLarge(ValueError):
    """Instance above the brute-force limit."""


#: ``lower`` is exclusive: this many agents provably cannot finish in time;
#: ``upper`` is inclusive: this many agents always suffice.
Bounds = namedtuple("Bounds", "lower upper slots")


def compute_bounds(dag: Dag, slots_override: int | None = None) -> Bounds:
    """Agent-count bracket for the search.  ``lower`` is the pigeonhole
    bound (this many agents cannot fit n unit steps into the slots), so
    ``lower + 1`` is the first count probed; ``upper`` is the maximum number
    of unit steps sharing a level, which always succeeds.

    Fills in every node's ``depth`` bottom-up, its earliest completion time
    (a chain adds its weight, joins wait for all children, an OR needs only
    its fastest child), then its ``level`` top-down, the most unit steps
    crossed on a path from the root, both over one topological order.  The
    steps of a chain of weight w at level l hold the levels l .. l+w-1, so
    the widest level comes from one sweep over those intervals.
    """
    order = children_first(dag)
    for node in order:
        if node.kind is DagKind.SEQ:
            node.depth = node.children[0].depth + node.weight
        elif not node.children:
            node.depth = 0
        elif node.kind is DagKind.OR:
            node.depth = min(c.depth for c in node.children)
        else:
            node.depth = max(c.depth for c in node.children)
    change: dict[int, int] = {}  # level -> chains starting minus ending
    n = 0
    for node in reversed(order):
        level = 0
        for p in node.parents:
            up = p.level + p.weight
            if up > level:
                level = up
        node.level = level
        weight = node.weight
        if weight:
            n += weight
            change[level] = change.get(level, 0) + 1
            change[level + weight] = change.get(level + weight, 0) - 1
    if dag.root is None or dag.root.depth == 0:
        raise ZeroSlots("root depth is zero")
    slots = dag.root.depth
    if slots_override is not None:
        if slots_override < slots:
            raise ValueError(
                "slots override %d below minimum %d" % (slots_override, slots))
        slots = slots_override
    lower = (n + slots - 1) // slots - 1
    upper = width = 0
    for level in sorted(change):
        width += change[level]
        if width > upper:
            upper = width
    return Bounds(lower, upper, slots)


def _release(done, pending: dict, ready: list, keys: dict) -> None:
    """Count the ``done`` nodes as finished for their children.  A child
    whose last pending parent this was is ready if it is a chain, and done
    in turn if it takes no time.  ``pending`` is keyed by node ``index``;
    ``ready`` is a heap of chain keys, and ``keys`` maps a chain's index to
    the key of its last step ``X_w`` (see :func:`schedule_candidate`)."""
    stack = list(done)
    while stack:
        for child in stack.pop().children:
            pending[child.index] -= 1
            if not pending[child.index]:
                if child.weight:
                    heappush(ready, keys[child.index])
                else:
                    stack.append(child)


def schedule_candidate(dag: Dag, slots: int, agents: int):
    """Greedy assignment with a fixed agent count.

    Fills slots from ``slots`` down, as if every chain were its unit steps.
    A step is ready once every parent is done: the chain's step above it,
    placed in a strictly higher slot, or for a chain's last step ``X_w``
    the chain's parents, where a zero-duration node is done once its own
    parents are.  Each slot takes up to ``agents`` ready steps, deepest
    first (ties by step index), hands out agents in that order, moves each
    step onto the agent of the step it follows (:func:`_reshuffle`), and
    releases the children of every chain that placed its ``X_1``.  Returns
    the number of unit steps left over, 0 when the candidate count
    suffices; the node fields ``agent``, ``slot`` and ``runs`` hold the
    assignment (see :class:`DagNode`), 0 and no runs on a node not placed.

    *Keys.*  The heap holds each ready chain once, as one int for its next
    step.  Step ``X_j`` of a chain of weight w and index i has index ``i +
    j - 1``, inside the indices ``i .. i + w - 1`` that the chain reserves
    and no other chain uses, so two steps of one depth compare by step
    index as their chains compare by index.  A chain's ``rank`` is its
    place in ``dag.nodes``, which is in index order, and with C nodes the
    key of a step of depth D is ``rank - D * C``.  Keys then compare as
    ``(-depth, step index)`` pairs do, and ``key % C`` is the rank.  A
    chain that places a step and goes on moves to ``key + C``, so the keys
    of the running chains shift alike and keep their order, while the keys
    of the waiting ones stay put.

    *Jumps.*  When a slot puts the same chains on the same agents as the
    slot before, every following slot repeats it until the next event: a
    running chain places its ``X_1``, or the best waiting key beats the
    worst running one.  The packer places those slots at once.  The jump
    is exact because every skipped slot has the same inputs as the slot
    just placed: no chain finished, so nothing was released; the running
    keys kept their order and all still beat the waiting ones, so the same
    chains come out in the same order and take the same agents; and each
    of them follows its own step on the agent that ran it, which the slot
    before gave the same agent too, so the reshuffle moves them alike.  The
    deadline check cannot fire inside a jump.  It asks whether the best
    ready step is deeper than the slot, and a running step's depth minus
    the slot stays what it was when that step passed the check, at most 0.
    A waiting step's depth stays fixed, so it exceeds the slot only after
    it has become deeper than every running step, which is an event that
    ends the jump first.  Nor can a jump pass slot 1: a running step's
    depth is at most its slot, and its chain's ``X_1`` has depth at least
    1.

    Every call builds its own start state: one pass over the nodes clears
    their cells and counts each node's parents not yet done and the unit
    steps left, and the ready heap starts from ``dag.root``, the one node
    without parents, or from the chains its zero-duration descendants
    release.

    Expects ``depth`` to be populated (:func:`compute_bounds` does it) and
    every OR to have one child, as in the variant DAGs that
    :func:`preprocess_cases` builds (each chosen OR keeps only its chosen
    branch).  Then depth strictly decreases along every path between unit
    steps, so the deepest ready step is the deepest unplaced one, and the
    packer places the same steps as a sweep over levels that skips steps
    with an ancestor in the current slot.
    """
    # keyed by index: a chain's indices run to its weight, so a list by
    # index would grow with the durations
    pending = {}
    nodes = dag.nodes
    c = len(nodes)
    keys = {}    # chain index -> the key of its X_w
    firsts = {}  # rank -> the key of its X_1
    n_remain = 0
    for rank, node in enumerate(nodes):
        node.agent = 0
        node.slot = 0
        node.runs = ()
        pending[node.index] = len(node.parents)
        if node.weight:
            n_remain += node.weight
            keys[node.index] = rank - node.depth * c
            firsts[rank] = rank - (node.depth - node.weight + 1) * c
    root = dag.root
    ready: list = []
    if root.weight:
        ready.append(keys[root.index])
    else:
        _release([root], pending, ready, keys)
    opened: dict = {}  # chain of weight > 1 -> first slot of its open run
    before = None      # the previous slot's occupants
    slot = slots
    while n_remain > 0 and slot > 0:
        if ready[0] < -slot * c:
            break  # some pending chain no longer fits below this slot
        placed = []
        occupants: dict[int, DagNode] = {}
        agent = 0
        while ready and agent < agents:
            key = heappop(ready)
            placed.append(key)
            agent += 1
            occupants[agent] = nodes[key % c]
        _reshuffle(agent, occupants)
        for agent, node in occupants.items():
            if node.slot != slot + 1 or node.agent != agent:
                if node.slot:  # a run breaks
                    top = opened[node]
                    run = (node.agent, node.slot, top - node.slot + 1)
                    if node.runs:
                        node.runs.append(run)
                    else:
                        node.runs = [run]
                    opened[node] = slot
                elif node.weight > 1:
                    opened[node] = slot
                node.agent = agent
            node.slot = slot
        skip = 0
        if occupants == before:
            # steps each chain has left below this slot
            skip = min(firsts[key % c] - key for key in placed) // c
            if skip and ready:  # every agent is busy and some chain waits
                # t more slots move the worst running key to placed[-1] +
                # t * C, and the best waiting key beats it once t * C >
                # ready[0] - placed[-1]
                skip = min(skip, (ready[0] - placed[-1]) // c)
            if skip:
                for node in occupants.values():
                    node.slot -= skip
        before = occupants
        n_remain -= len(placed) * (skip + 1)
        done = []
        shift = skip * c
        for key in placed:
            key += shift
            rank = key % c
            if key == firsts[rank]:  # placed X_1
                node = nodes[rank]
                done.append(node)
                if node.weight > 1:
                    top = opened.pop(node)
                    if node.runs:
                        node.runs = _ascending(node, top)
            else:
                heappush(ready, key + c)
        if done:
            _release(done, pending, ready, keys)
        slot -= skip + 1
    for node, top in opened.items():  # chains left unfinished
        node.runs = _ascending(node, top)
    return n_remain


def _ascending(node: DagNode, top: int) -> tuple:
    """The runs of a chain whose open run began at slot ``top``, ascending;
    ``node.runs`` holds its closed runs, latest first."""
    return ((node.agent, node.slot, top - node.slot + 1),) \
        + tuple(reversed(node.runs))


def _reshuffle(num_agents: int, occupants: dict) -> None:
    """Swap same-slot assignments so each unit step stays with the agent
    that carries its chain, keeping hand-offs to a minimum: a step moves to
    the agent of the step it follows, which is its chain's previous step,
    or for a chain's first step its only parent, once placed.
    ``occupants`` maps agent -> the chain it runs in one slot and is
    updated; the node fields still hold each chain's previous cell."""
    for agent in range(1, num_agents + 1):
        current = occupants.get(agent)
        if current is None:
            continue
        if current.slot:
            target = current.agent
        elif len(current.parents) == 1:
            target = current.parents[0].agent
        else:
            continue
        if target == 0 or target == agent:
            continue
        other = occupants.get(target)
        if other is not None:
            occupants[agent] = other
        else:
            del occupants[agent]
        occupants[target] = current


def _last_cell(node: DagNode) -> tuple:
    """(slot, agent) of the latest step of a placed chain, or the cell of a
    zero-duration node."""
    if node.runs:
        agent, first, length = node.runs[-1]
        return first + length - 1, agent
    return node.slot + max(node.weight - 1, 0), node.agent


def zero_assign(dag: Dag) -> None:
    """Give every zero-duration node the cell (agent, slot) of a unit step
    next to it, in two passes over one topological order.  Expects every
    unit step placed and ``depth`` populated.

    Bottom-up, a node directly under a chain takes the cell of its first
    step ``X_1`` (the first such parent), and otherwise a node that waits
    for timed children (depth > 0) takes the latest cell among them: a
    chain's ``X_w`` or a zero node's cell (highest slot, then lowest step
    index).  Top-down, each node left over takes the cell of its earliest
    parent (lowest slot, then lowest step index).  A node still without a
    cell raises :class:`InternalError`.
    """
    order = [x for x in children_first(dag) if not x.weight]
    for node in order:
        pick = next((p for p in node.parents if p.weight), None)
        if pick is not None:
            node.agent, node.slot = pick.agent, pick.slot
            continue
        best = None
        for c in node.children:
            if c.depth > 0:
                slot, agent = _last_cell(c)
                key = (slot, -c.index - max(c.weight - 1, 0))
                if best is None or key > best[0]:
                    best = (key, agent)
        if best is None:
            node.agent = node.slot = 0  # placed top-down
        else:
            node.agent, node.slot = best[1], best[0][0]
    for node in reversed(order):
        if not node.slot and node.parents:
            pick = min(node.parents, key=lambda p: (p.slot, p.index))
            node.agent, node.slot = pick.agent, pick.slot
        if not node.slot:
            raise InternalError("%s left without a slot" % node.name)


class ScheduleResult:
    def __init__(self, variant: Variant, slots: int, agents: int,
                 bounds: Bounds | None, assignment: dict | None = None):
        self.variant = variant
        self.slots = slots
        self.agents = agents
        self.bounds = bounds
        #: node -> its ``(agent, first slot, length)`` runs (see
        #: :func:`~adtsched.preprocess.node_runs`)
        self.assignment = {} if assignment is None else assignment

    @property
    def feasible(self) -> bool:
        return self.variant.feasible

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
        ok = schedule_candidate(dag, bounds.slots, agents) == 0
        last = (agents, ok)
        if ok:
            upper = agents
        else:
            lower = agents
        agents = lower + (upper - lower) // 2
    if last != (upper, True):
        # rerun so the node fields hold the winning assignment, not the
        # last probe's
        if schedule_candidate(dag, bounds.slots, upper) != 0:
            raise InternalError("%d agents rejected despite width %d"
                                % (upper, bounds.upper))
    return upper


def _schedule_variant(variant: Variant,
                      slots_override: int | None) -> ScheduleResult:
    dag = variant.dag
    if dag.n == 0:  # an impossible attack, or nothing to schedule
        return ScheduleResult(variant, 0, 0, None)
    bounds = compute_bounds(dag, slots_override)
    agents = _min_agents(dag, bounds)
    zero_assign(dag)
    problems = verify_schedule(dag, bounds.slots, agents)
    if problems:
        raise InternalError("schedule fails its check: %s: %s"
                            % (problems[0].node, problems[0].message))
    assignment = {x: node_runs(x) for x in dag.nodes}
    return ScheduleResult(variant, bounds.slots, agents, bounds, assignment)


def min_schedule(variants: list,
                 slots_override: int | None = None) -> list:
    """Schedule every variant, in order, with the fewest agents that still
    meet its fastest completion time (or ``slots_override`` slots)."""
    return [_schedule_variant(v, slots_override) for v in variants]


def analyse(adt: Adt, slots_override: int | None = None,
            all_variants: bool = False) -> list[ScheduleResult]:
    """Preprocess and schedule a tree.  Per defence case, in order, the
    result of the variant that needs the fewest agents (the first on a
    tie; the case's first result when none is feasible), or with
    ``all_variants`` the results of every time-optimal OR selection.
    ``slots_override`` replaces the fastest completion time as deadline."""
    selected = []
    for case in preprocess_cases(adt, all_variants=all_variants):
        results = min_schedule(case.variants, slots_override=slots_override)
        if all_variants:
            selected.extend(results)
        else:  # min keeps the first of equal keys
            selected.append(min(results,
                                key=lambda r: (not r.feasible, r.agents)))
    return selected


Violation = namedtuple("Violation", "kind node message")


def _nearest_seq_ancestors(dag: Dag) -> dict:
    """node id -> the closest chains above it (looking through zero
    nodes)."""
    out: dict[int, frozenset] = {}
    for node in reversed(children_first(dag)):
        acc: set = set()
        for parent in node.parents:
            if parent.weight:
                acc.add(parent)
            else:
                acc |= out[id(parent)]
        out[id(node)] = frozenset(acc)
    return out


def _precedence_broken(dag: Dag, ends: dict) -> bool:
    """True when some chain's latest placed step sits in a slot no lower
    than the ``X_1`` of one of its nearest chain ancestors.  One
    parents-first pass carries, per node, the lowest slot a child sees
    through it: a chain's ``X_1`` slot, or for a zero-duration node the
    lowest its parents show.  ``ends`` maps each chain's index to the slot
    of its latest step (0 when none is placed) and of its ``X_1`` (inf
    when not placed)."""
    inf = math.inf
    shows: dict[int, float] = {}  # node index -> the slot a child sees
    for node in reversed(children_first(dag)):
        low = inf
        for parent in node.parents:
            up = shows[parent.index]
            if up < low:
                low = up
        if node.weight:
            top, shows[node.index] = ends[node.index]
            if top and low <= top:
                return True
        else:
            shows[node.index] = low
    return False


def _apart(cells: dict, base: int) -> bool:
    """True when no two runs share a cell and the agents used are 1..k.
    ``cells`` maps the key ``agent * base + first slot`` of every run to
    the key of its last slot.  Agent a owns the band of keys ``a * base
    .. a * base + base - 1``, and with ``base`` above the deadline its
    slots 1..slots stay inside it, so one sort of the keys lists the runs
    by agent and then by slot."""
    reach = 0       # the highest key a run has covered so far
    top = base - 1  # the top of the last agent's band, at first agent 0's
    for key in sorted(cells):
        if key <= reach:
            return False
        reach = cells[key]
        if key > top:  # the first run of the next agent used
            if key > top + base:
                return False
            top += base
    return True


def _collisions(chains: list, violations: list) -> set:
    """Append a violation for every step that shares its cell with a step
    of an earlier span, from one sort of every placed run as a span
    ``(agent, first slot, last slot, first step's index, chain)``; returns
    the agents the spans use."""
    spans = []
    for node, runs in chains:
        j = node.weight + 1 - sum(r[2] for r in runs)  # the run's first step
        for agent, first, length in runs:
            if agent and first:
                spans.append((agent, first, first + length - 1,
                              node.index + j - 1, node))
            j += length
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
    return {span[0] for span in spans}


def verify_schedule(dag: Dag, slots: int | None = None,
                    agents: int | None = None) -> list:
    """Independent checks of the assignment held in the node fields.
    Returns violations as data; an empty list means the schedule is sound.
    Reads each chain's runs, so it takes time linear in the nodes and runs,
    and one sort of one int key per run: two steps collide where runs of
    one agent overlap.  Only when some check fails are the runs sorted
    again as spans that name each collision.
    """
    violations: list[Violation] = []
    chains = [(x, node_runs(x)) for x in dag.nodes if x.weight]
    if slots is None:
        slots = max((first + length - 1 for _, runs in chains
                     for _, first, length in runs), default=0)
    if agents is None:
        agents = max((run[0] for _, runs in chains for run in runs),
                     default=0)
    base = slots + 2
    cells = {}  # agent * base + first slot -> the same key of its last slot
    count = 0   # runs with a cell
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
                key = agent * base + first
                cells[key] = key + length - 1
                count += 1
            if first:
                last = end
            j += length
        whole = placed == node.weight and runs[0][1]
        ends[node.index] = (last, runs[0][1] if whole else math.inf)
    agents_used = set()  # read only where some check failed
    if violations or len(cells) < count or not _apart(cells, base):
        agents_used = _collisions(chains, violations)
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
    if agents_used and agents_used != set(range(1, max(agents_used) + 1)):
        violations.append(Violation(
            "agent-gap", dag.root.name if dag.root else "",
            "agent numbers %s are not contiguous" % sorted(agents_used)))
    return violations


def brute_force_min_agents(dag: Dag, slots: int | None = None,
                           limit: int = 12) -> int:
    """Exhaustive minimal agent count, as a check on the fast path.  Works
    on the unit steps of :func:`~adtsched.preprocess.unit_dag` and builds
    its own precedence relation and chain lengths rather than trusting the
    scheduler's fields.  Raises :class:`TooLarge` past ``limit`` steps."""
    n = dag.n
    if n == 0:
        return 0
    if n > limit:
        raise TooLarge("%d unit steps exceed the limit of %d" % (n, limit))
    dag = unit_dag(dag)
    seqs = [x for x in dag.nodes if x.kind is DagKind.SEQ]

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
