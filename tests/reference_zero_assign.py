"""The sweep-until-converged placement that ``zero_assign`` replaced.

Kept verbatim as a differential oracle: it places whatever hangs directly
under a unit step first, then re-sorts the pending zero-duration nodes and
sweeps over them until every one is placed.  The two-pass ``zero_assign``
must give every node the same (agent, slot).
"""

from adtsched.preprocess import DagKind, InternalError


def sweep_zero_assign(dag):
    """Attach every zero-duration node to an already scheduled unit step:
    first whatever hangs directly under a unit step joins it, then join
    points adopt their latest child and gates their latest prerequisite,
    sweeping until everything is placed."""
    pending = []
    for node in dag.nodes:
        if node.kind is DagKind.SEQ:
            continue
        carrier = next((p for p in node.parents if p.kind is DagKind.SEQ),
                       None)
        if carrier is not None and carrier.slot != 0:
            node.agent, node.slot = carrier.agent, carrier.slot
        else:
            pending.append(node)
    sweeps = 0
    while pending:
        sweeps += 1
        if sweeps > 2 * len(dag.nodes) + 5:
            raise InternalError("zero-duration placement did not converge")
        rest = []
        for node in sorted(pending, key=lambda x: x.index):
            placed = False
            waits = [c for c in node.children if c.depth > 0]
            if node.kind is DagKind.AND and node.depth == 0:
                waits = []
            if waits:
                if all(c.slot != 0 for c in waits):
                    pick = max(waits, key=lambda c: (c.slot, -c.index))
                    node.agent, node.slot = pick.agent, pick.slot
                    placed = True
            elif node.parents and all(p.slot != 0 for p in node.parents):
                pick = min(node.parents, key=lambda p: (p.slot, p.index))
                node.agent, node.slot = pick.agent, pick.slot
                placed = True
            if not placed:
                rest.append(node)
        pending = rest
