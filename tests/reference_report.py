"""The table and JSON writers that the display-order grid and the template
JSON writer replaced.

Kept verbatim, with the per-run ``step_names`` they called, as a
differential oracle: ``render_table`` (plain and ``elide``) and ``to_json``
must print the same bytes.
"""

import json
from itertools import repeat

from adtsched.preprocess import step_name
from adtsched.report import ELLIPSIS, variant_cost


def step_names(node, j: int, count: int) -> list[str]:
    """Names of the ``count`` unit steps of the chain ``node`` from the
    ``j``-th on."""
    prefix = node.origin + "_"
    names = [prefix + str(k) for k in range(j, j + count)]
    if j == 1:
        names[0] = node.name
    return names


def _elided(slots: int, origins: list, shared: dict) -> list:
    """The slots to print, latest first, with None for an ellipsis row
    that stands for the uneventful rows between two kept ones: a stretch
    of at least four rows that hold one unit step per busy agent and
    nothing else, with the same origins on the same agents.  ``origins``
    holds, per agent, the origin of the unit step in each slot, and
    ``shared`` the cells that hold a zero-duration node."""
    broken = {slot for slot, _ in shared}

    def signature(slot):
        if slot in broken:
            return None
        sig = tuple(column[slot] for column in origins)
        return sig if any(sig) else None

    order = list(range(slots, 0, -1))
    signatures = [signature(slot) for slot in order]
    kept = []
    i = 0
    while i < len(order):
        sig = signatures[i]
        j = i
        while (sig is not None and j + 1 < len(order)
               and signatures[j + 1] == sig):
            j += 1
        if j - i + 1 >= 4:
            kept += [order[i], None, order[j]]
        else:
            kept.extend(order[i:j + 1])
        i = j + 1
    return kept


def render_table(result, elide: bool = False) -> str:
    """Slot-by-agent grid, latest slot first.  With ``elide``, long
    stretches of uneventful chain progress collapse into one ellipsis row.
    An infeasible variant renders as its banner instead."""
    if not result.feasible:
        return "attack impossible\n"
    slots, agents = result.slots, result.agents
    # columns[agent - 1][slot]: the text of that cell; origins alike, the
    # origin of the one unit step in it, for ``elide``
    columns = [[""] * (slots + 1) for _ in range(agents)]
    origins = [[None] * (slots + 1) for _ in range(agents)] if elide else ()
    shared: dict[tuple, list] = {}  # cells with a zero-duration node
    for node, runs in result.assignment.items():
        if not node.weight:
            agent, slot, _ = runs[0]
            shared.setdefault((slot, agent), []).append(node.name)
            continue
        j = 1  # the chain is placed in full, so its runs start at X_1
        for agent, first, length in runs:
            end = first + length
            columns[agent - 1][first:end] = step_names(node, j, length)
            if elide:
                origins[agent - 1][first:end] = [node.origin] * length
            j += length
    for (slot, agent), names in shared.items():
        column = columns[agent - 1]
        if column[slot]:
            names.append(column[slot])
        column[slot] = ", ".join(sorted(names))
    if elide:
        order = _elided(slots, origins, shared)
        labels = [ELLIPSIS if slot is None else str(slot) for slot in order]
        rows = [[column[slot] if slot else "" for slot in order]
                for column in columns]
    else:
        labels = list(map(str, range(slots, 0, -1)))
        rows = [column[slots:0:-1] for column in columns]
    header = [str(a) for a in range(1, agents + 1)]
    # the first row is the latest slot, which has the longest label
    width = max(len("slot/agent"), len(str(slots)))
    cells = [list(map(str.rjust, ["slot/agent"] + labels, repeat(width)))]
    for name, column in zip(header, rows):
        width = max(len(name), max(map(len, column), default=0))
        cells.append(list(map(str.ljust, [name] + column, repeat(width))))
    lines = map(str.rstrip, map(" | ".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _assignment_records(result) -> list:
    """One record per unit step and zero-duration node, latest slot
    first; step names are made here only."""
    records = []
    for node, runs in result.assignment.items():
        origin = node.origin
        j = 0  # the chain is placed in full, so its runs start at X_1
        for agent, first, length in runs:
            if not length:  # a zero-duration node
                records.append({"node": node.name, "origin": origin,
                                "agent": agent, "slot": first})
            for slot in range(first, first + length):
                j += 1
                records.append({"node": step_name(node, j),
                                "origin": origin, "agent": agent,
                                "slot": slot})
    records.sort(key=lambda r: (-r["slot"], r["agent"], r["node"]))
    return records


def to_json(results: list, adt) -> str:
    payload = {"variants": [
        {
            "defences": result.variant.signature,
            "or_choices": result.variant.or_choices,
            "feasible": result.feasible,
            "slots": result.slots,
            "agents": result.agents,
            "cost": variant_cost(result, adt),
            "assignment": _assignment_records(result),
        }
        for result in results
    ]}
    return json.dumps(payload, indent=2) + "\n"
