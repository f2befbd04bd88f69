"""The tuple-keyed chain packer that the int-keyed one replaced.

Kept verbatim, with its ``_release``, as a differential oracle.  Its ready
heap holds ``(-depth, index, chain)`` tuples, keyed by each chain's next
unit step.  The packer in ``adtsched.scheduler`` keys the same heap with
one int per chain and must leave the same number of unit steps over and
give every node the same ``agent``, ``slot`` and ``runs``.
"""

from heapq import heappop, heappush

from adtsched.preprocess import Dag, DagNode
from adtsched.scheduler import _ascending, _reshuffle


def _release(done, pending: list, ready: list) -> None:
    """Count the ``done`` nodes as finished for their children.  A child
    whose last pending parent this was is ready if it is a chain, and done
    in turn if it takes no time.  ``pending`` is keyed by node ``index``;
    ``ready`` is a heap of chains keyed by their next step, ``(-depth,
    index, chain)``."""
    stack = list(done)
    while stack:
        for child in stack.pop().children:
            pending[child.index] -= 1
            if not pending[child.index]:
                if child.weight:
                    heappush(ready, (-child.depth,
                                     child.index + child.weight - 1, child))
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

    The heap holds each ready chain once, keyed by its next step: step
    ``X_j`` has depth ``child.depth + j`` and index ``index + j - 1``.  A
    chain that places a step and goes on moves to key (depth - 1, index -
    1), so the keys of the running chains shift alike and keep their order,
    while the keys of the waiting ones stay put.

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
    n_remain = 0
    for node in dag.nodes:
        node.agent = 0
        node.slot = 0
        node.runs = ()
        pending[node.index] = len(node.parents)
        n_remain += node.weight
    root = dag.root
    ready: list = []
    if root.weight:
        ready.append((-root.depth, root.index + root.weight - 1, root))
    else:
        _release([root], pending, ready)
    opened: dict = {}  # chain of weight > 1 -> first slot of its open run
    before = None      # the previous slot's occupants
    slot = slots
    while n_remain > 0 and slot > 0:
        if -ready[0][0] > slot:
            break  # some pending chain no longer fits below this slot
        keys = []
        occupants: dict[int, DagNode] = {}
        agent = 0
        while ready and agent < agents:
            key = heappop(ready)
            keys.append(key)
            agent += 1
            occupants[agent] = key[2]
        _reshuffle(agent, occupants)
        for agent, node in occupants.items():
            if node.weight > 1:
                top = opened.get(node)
                if top is None:
                    opened[node] = slot
                elif node.agent != agent or node.slot != slot + 1:
                    run = (node.agent, node.slot, top - node.slot + 1)
                    if node.runs:
                        node.runs.append(run)
                    else:
                        node.runs = [run]
                    opened[node] = slot
            node.agent = agent
            node.slot = slot
        skip = 0
        if occupants == before:
            # steps each chain has left below this slot
            skip = min(index - node.index for _, index, node in keys)
            if skip and ready:  # every agent is busy and some chain waits
                best, worst = ready[0], keys[-1]
                gap = best[0] - worst[0]  # how much deeper the worst runs
                # after t more slots the waiting chain beats the worst
                # running one when t > gap, or t == gap and its index is
                # lower
                overtake = gap if gap and best[1] < worst[1] - gap \
                    else gap + 1
                skip = min(skip, overtake - 1)
            if skip:
                for node in occupants.values():
                    node.slot -= skip
        before = occupants
        n_remain -= len(keys) * (skip + 1)
        done = []
        for depth, index, node in keys:
            index -= skip
            if index == node.index:  # placed X_1
                done.append(node)
                if node.weight > 1:
                    top = opened.pop(node)
                    if node.runs:
                        node.runs = _ascending(node, top)
            else:
                heappush(ready, (depth + skip + 1, index - 1, node))
        if done:
            _release(done, pending, ready)
        slot -= skip + 1
    for node, top in opened.items():  # chains left unfinished
        node.runs = _ascending(node, top)
    return n_remain
