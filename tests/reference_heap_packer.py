"""The unit-step heap packer that the chain packer replaced.

Kept verbatim, with its two helpers, as a differential oracle.  It runs on
the unit-step view of a DAG (``adtsched.unit_dag``), where every unit step
is a node of its own, and pops, places and releases one step at a time.
The chain packer must reproduce its leftover counts and the (agent, slot)
of every step.
"""

from heapq import heappop, heappush

from adtsched.preprocess import Dag, DagKind, DagNode


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
    releases their children when it closes.  Returns the number of unit
    steps left over, 0 when the candidate count suffices; the node fields
    ``agent`` and ``slot`` hold the assignment, 0 on a node not placed.

    Every call builds its own start state: one pass over the nodes clears
    their cells and counts each node's parents not yet done and the unit
    steps left, and the ready heap starts from ``dag.root``, the one node
    without parents, or from the unit steps its zero-duration descendants
    release.

    Expects ``depth`` to be populated (:func:`compute_bounds` does it) and
    every OR to have one child, as in the variant DAGs that
    :func:`preprocess_cases` builds (each chosen OR keeps only its chosen
    branch).  Then depth strictly decreases along every path between unit
    steps, so the deepest ready step is the deepest unplaced one, and the
    packer places the same steps as a sweep over levels that skips steps
    with an ancestor in the current slot.
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
    return n_remain


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

