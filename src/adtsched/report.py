"""Human- and machine-readable views of schedules."""

from __future__ import annotations

import csv
import io
import json

from .model import Adt
from .preprocess import DagKind
from .scheduler import ScheduleResult

ELLIPSIS = "⋯"


def signature_heading(signature: dict) -> str:
    """``{"p": "failed"}`` -> ``"p FAILED"``; joined with commas."""
    if not signature:
        return "no defences"
    return ", ".join("%s %s" % (name, status.upper())
                     for name, status in signature.items())


def variant_cost(result: ScheduleResult, adt: Adt) -> int:
    """Summed cost of the distinct actions appearing in the variant."""
    origins = {x.origin for x in result.variant.dag.nodes}
    return sum(adt.nodes[o].cost for o in origins if o in adt.nodes)


def _cell_text(nodes) -> str:
    if nodes is None:
        return ""
    if len(nodes) == 1:
        return nodes[0].name
    return ", ".join(sorted(x.name for x in nodes))


def _chain_signature(cells):
    """Per-agent origins of a row that holds nothing but one unit step per
    busy agent; None for an empty row or where any cell breaks the
    pattern."""
    sig = []
    busy = False
    for nodes in cells:
        if nodes is None:
            sig.append(None)
        elif len(nodes) == 1 and nodes[0].kind is DagKind.SEQ:
            sig.append(nodes[0].origin)
            busy = True
        else:
            return None
    return tuple(sig) if busy else None


def render_table(result: ScheduleResult, elide: bool = False) -> str:
    """Slot-by-agent grid, latest slot first.  With ``elide``, long
    stretches of uneventful chain progress collapse into one ellipsis row.
    An infeasible variant renders as its banner instead."""
    if not result.feasible:
        return "attack impossible\n"
    # grid[slot][agent - 1]: the nodes in that cell, None when it is empty
    grid = [[None] * result.agents for _ in range(result.slots + 1)]
    for node, (agent, slot) in result.assignment.items():
        cell = grid[slot][agent - 1]
        if cell is None:
            grid[slot][agent - 1] = [node]
        else:
            cell.append(node)
    slots = range(result.slots, 0, -1)
    rows = [(slot, [_cell_text(nodes) for nodes in grid[slot]])
            for slot in slots]
    if elide:
        signatures = [_chain_signature(grid[slot]) for slot in slots]
        kept = []
        i = 0
        while i < len(rows):
            sig = signatures[i]
            j = i
            while (sig is not None and j + 1 < len(rows)
                   and signatures[j + 1] == sig):
                j += 1
            if j - i + 1 >= 4:
                kept.append(rows[i])
                kept.append((None, [""] * result.agents))
                kept.append(rows[j])
            else:
                kept.extend(rows[i:j + 1])
            i = j + 1
        rows = kept
    header = ["slot/agent"] + [str(a) for a in range(1, result.agents + 1)]
    widths = [len(h) for h in header]
    # the first row is the latest slot, which has the longest label
    widths[0] = max(widths[0], len(str(result.slots)))
    for k, column in enumerate(zip(*(row for _, row in rows)), start=1):
        widths[k] = max(widths[k], max(map(len, column)))
    line = " | ".join(["{:>%d}" % widths[0]]
                      + ["{:<%d}" % w for w in widths[1:]]).format
    lines = [line(*header).rstrip()]
    for slot, row in rows:
        lines.append(line(ELLIPSIS if slot is None else str(slot),
                          *row).rstrip())
    return "\n".join(lines) + "\n"


def _assignment_records(result: ScheduleResult) -> list:
    records = [
        {"node": node.name, "origin": node.origin,
         "agent": agent, "slot": slot}
        for node, (agent, slot) in result.assignment.items()
    ]
    records.sort(key=lambda r: (-r["slot"], r["agent"], r["node"]))
    return records


def to_json(results: list, adt: Adt) -> str:
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


def to_csv(results: list, adt: Adt) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["variant_id", "defences", "feasible", "slots",
                     "agents", "n", "cost"])
    for i, result in enumerate(results, start=1):
        defences = ";".join("%s=%s" % (k, v)
                            for k, v in result.variant.signature.items())
        writer.writerow([
            i, defences, "true" if result.feasible else "false",
            result.slots, result.agents, result.n,
            variant_cost(result, adt),
        ])
    return buffer.getvalue()
