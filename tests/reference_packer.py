"""The level-sweep greedy packer that ``schedule_candidate`` replaced.

Kept verbatim as a differential oracle: it releases unit steps by level,
re-sorts the whole pool every slot and skips steps with an ancestor in the
current slot.  The ready-heap packer must reproduce its leftover counts and
its (agent, slot) for every node.
"""

from adtsched.preprocess import DagKind
from adtsched.scheduler import _reshuffle


def _blocked(node, slot, cache):
    """True when an ancestor is already assigned in this very slot (the
    node would have to run strictly earlier).  Ancestors assigned in higher
    slots end the walk: everything above them is settled even higher."""
    if id(node) in cache:
        return True
    stack = list(node.parents)
    seen = set()
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        if id(cur) in cache or cur.slot == slot:
            cache[id(node)] = True
            return True
        if cur.slot == 0:
            stack.extend(cur.parents)
    return False


def level_sweep_candidate(dag, slots, agents):
    """Greedy assignment with a fixed agent count.  Expects ``depth`` and
    ``level`` to be populated (``compute_bounds`` does both)."""
    for node in dag.nodes:
        node.agent = 0
        node.slot = 0
    by_level = {}
    n_remain = 0
    for node in dag.nodes:
        if node.kind is DagKind.SEQ:
            by_level.setdefault(node.level, []).append(node)
            n_remain += 1
    pool = []
    level, slot = 0, slots
    while n_remain > 0 and slot > 0:
        pool.extend(by_level.get(level, []))
        if any(x.depth > slot for x in pool):
            break  # some pending chain no longer fits below this slot
        pool.sort(key=lambda x: (-x.depth, x.index))
        cache = {}
        occupants = {}
        agent = 1
        leftover = []
        for i, node in enumerate(pool):
            if agent > agents:
                leftover.extend(pool[i:])
                break
            if _blocked(node, slot, cache):
                leftover.append(node)
                continue
            node.agent, node.slot = agent, slot
            occupants[agent] = node
            agent += 1
            n_remain -= 1
        pool = leftover
        _reshuffle(agent - 1, occupants)
        level += 1
        slot -= 1
    assignment = {x: (x.agent, x.slot) for x in dag.nodes if x.slot}
    return assignment, n_remain
