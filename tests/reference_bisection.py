"""The agent-count bisection that the probe-first search replaced.

Kept verbatim as a differential oracle: it bisects between the pigeonhole
bound and the level width.  ``_min_agents`` must return the same count and
leave the same (agent, slot) on every node.
"""

from adtsched.preprocess import Dag, InternalError
from adtsched.scheduler import Bounds, schedule_candidate


def _min_agents(dag: Dag, bounds: Bounds) -> int:
    """Bisect for the fewest agents the packer fits into ``bounds.slots``;
    the node fields are left holding that assignment."""
    lower, upper = bounds.lower, bounds.upper
    last = None
    while upper - lower > 1:
        agents = lower + (upper - lower) // 2
        _, remaining = schedule_candidate(dag, bounds.slots, agents)
        ok = remaining == 0
        last = (agents, ok)
        if ok:
            upper = agents
        else:
            lower = agents
    if last != (upper, True):
        # rerun so the node fields hold the winning assignment, not the
        # last probe's
        _, remaining = schedule_candidate(dag, bounds.slots, upper)
        if remaining != 0:
            raise InternalError("%d agents rejected despite width %d"
                                % (upper, bounds.upper))
    return upper
