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


def _rows(result: ScheduleResult, cells: dict):
    rows = []
    for slot in range(result.slots, 0, -1):
        row = []
        for agent in range(1, result.agents + 1):
            names = sorted(x.name for x in cells.get((slot, agent), []))
            row.append(", ".join(names))
        rows.append((slot, row))
    return rows


def _chain_signatures(result: ScheduleResult, cells: dict):
    """Per-slot tuple of per-agent origins for rows that hold nothing but
    one unit step per busy agent; None where any cell breaks the pattern."""
    signatures = {}
    for slot in range(result.slots, 0, -1):
        sig = []
        nonempty = 0
        for agent in range(1, result.agents + 1):
            nodes = cells.get((slot, agent), [])
            if not nodes:
                sig.append(None)
                continue
            if len(nodes) != 1 or nodes[0].kind is not DagKind.SEQ:
                sig = None
                break
            sig.append(nodes[0].origin)
            nonempty += 1
        signatures[slot] = tuple(sig) if sig and nonempty else None
    return signatures


def render_table(result: ScheduleResult, elide: bool = False) -> str:
    """Slot-by-agent grid, latest slot first.  With ``elide``, long
    stretches of uneventful chain progress collapse into one ellipsis row.
    An infeasible variant renders as its banner instead."""
    if not result.feasible:
        return "attack impossible\n"
    cells: dict[tuple, list] = {}  # (slot, agent) -> nodes
    for node, (agent, slot) in result.assignment.items():
        cells.setdefault((slot, agent), []).append(node)
    rows = _rows(result, cells)
    if elide:
        by_slot = _chain_signatures(result, cells)
        signatures = [by_slot[slot] for slot, _ in rows]
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
    for slot, row in rows:
        widths[0] = max(widths[0], len(str(slot) if slot else ELLIPSIS))
        for k, cell in enumerate(row):
            widths[k + 1] = max(widths[k + 1], len(cell))
    lines = [" | ".join(h.ljust(widths[k]) for k, h in enumerate(header))
             .rstrip()]
    for slot, row in rows:
        label = str(slot) if slot is not None else ELLIPSIS
        parts = [label.rjust(widths[0])]
        parts += [cell.ljust(widths[k + 1]) for k, cell in enumerate(row)]
        lines.append(" | ".join(parts).rstrip())
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
