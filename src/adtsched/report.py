"""Human- and machine-readable views of schedules."""

from __future__ import annotations

import csv
import io
from itertools import chain, repeat
from json import dumps

from .model import Adt
from .preprocess import step_names
from .scheduler import ScheduleResult

ELLIPSIS = "⋯"
#: the most cells a table (slots x agents) or a JSON assignment (unit steps
#: and zero-duration nodes) may print
MAX_CELLS = 1_000_000


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


def _check_size(cells: int, what: str) -> None:
    """Refuse an output of more than ``MAX_CELLS`` printed cells before any
    of it is built: one duration typed a few digits too long would
    otherwise fill the memory."""
    if cells > MAX_CELLS:
        raise ValueError("%s prints %d cells, more than the limit of %d; "
                         "--csv prints the summary only"
                         % (what, cells, MAX_CELLS))


def _elided(slots: int, origins: list, shared: dict) -> list:
    """The rows to print, as display indices ``slots - slot`` (latest slot
    first), with None for an ellipsis row that stands for the uneventful
    rows between two kept ones: a stretch of at least four rows that hold
    one unit step per busy agent and nothing else, with the same origins on
    the same agents.  ``origins`` holds, per agent, the origin of the unit
    step in each row, and ``shared`` the cells that hold a zero-duration
    node."""
    signatures = list(zip(*origins)) if origins else [None] * slots
    for i, _ in shared:
        signatures[i] = None
    kept = []
    i = 0
    while i < slots:
        sig = signatures[i] if any(signatures[i] or ()) else None
        j = i
        while sig is not None and j + 1 < slots and signatures[j + 1] == sig:
            j += 1
        if j - i + 1 >= 4:
            kept += [i, None, j]
        else:
            kept.extend(range(i, j + 1))
        i = j + 1
    return kept


def render_table(result: ScheduleResult, elide: bool = False) -> str:
    """Slot-by-agent grid, latest slot first.  With ``elide``, long
    stretches of uneventful chain progress collapse into one ellipsis row.
    An infeasible variant renders as its banner instead.  Raises
    ``ValueError`` above ``MAX_CELLS`` slots x agents."""
    if not result.feasible:
        return "attack impossible\n"
    slots, agents = result.slots, result.agents
    _check_size(slots * agents,
                "a table of %d slots x %d agents" % (slots, agents))
    # columns[agent - 1][slots - slot]: the text of that cell, in display
    # order; origins alike, the origin of the one unit step in it, for
    # ``elide``
    columns = [[""] * slots for _ in range(agents)]
    origins = [[None] * slots for _ in range(agents)] if elide else ()
    shared: dict[tuple, list] = {}  # cells with a zero-duration node
    for node, runs in result.assignment.items():
        if not node.weight:
            agent, slot, _ = runs[0]
            shared.setdefault((slots - slot, agent), []).append(node.name)
            continue
        names = step_names(node)
        names.reverse()  # X_w first, as the rows run
        # the chain is placed in full, so its runs end with X_w: a run's
        # steps are the last ``length`` names not yet placed
        stop = len(names)
        for agent, first, length in runs:
            top = slots + 1 - first
            columns[agent - 1][top - length:top] = names[stop - length:stop]
            if elide:
                origins[agent - 1][top - length:top] = [node.origin] * length
            stop -= length
    for (i, agent), names in shared.items():
        column = columns[agent - 1]
        if column[i]:
            names.append(column[i])
        column[i] = ", ".join(sorted(names))
    if elide:
        kept = _elided(slots, origins, shared)
        labels = [ELLIPSIS if i is None else str(slots - i) for i in kept]
        columns = [["" if i is None else column[i] for i in kept]
                   for column in columns]
    else:
        labels = [str(slot) for slot in range(slots, 0, -1)]
    # the first row is the latest slot, which has the longest label
    width = max(len("slot/agent"), len(str(slots)))
    header = ["slot/agent".rjust(width)]
    cells = [[label.rjust(width) for label in labels]]
    for agent, column in enumerate(columns, start=1):
        name = str(agent)
        if agent == agents:  # the last column is not padded
            header.append(name)
            cells.append(column)
            break
        width = max(len(name), max(map(len, column), default=0))
        header.append(name.ljust(width))
        cells.append(list(map(str.ljust, column, repeat(width))))
    lines = map(str.rstrip, map(" | ".join, zip(*cells)))
    return "\n".join(chain((" | ".join(header),), lines)) + "\n"


#: one assignment record as ``json.dumps(..., indent=2)`` prints it
_RECORD = ('        {\n          "node": %s,\n          "origin": %s,\n'
           '          "agent": %d,\n          "slot": %d\n        }')
_VARIANT = ('    {\n      "defences": %s,\n      "or_choices": %s,\n'
            '      "feasible": %s,\n      "slots": %d,\n      "agents": %d,\n'
            '      "cost": %d,\n      "assignment": %s\n    }')


def _json_object(mapping: dict) -> str:
    """A flat ``str -> str`` dict as a variant's field, indented alike."""
    if not mapping:
        return "{}"
    return "{\n%s\n      }" % ",\n".join(
        "        %s: %s" % (dumps(key), dumps(value))
        for key, value in mapping.items())


def _assignment(result: ScheduleResult) -> str:
    """The ``assignment`` list: one record per unit step and zero-duration
    node, latest slot first; step names are made here only."""
    # (-slot, agent, name, quoted origin); names are unique, so the
    # origin never decides the order
    records = []
    for node, runs in result.assignment.items():
        origin = dumps(node.origin)
        if not node.weight:
            for agent, slot, _ in runs:
                records.append((-slot, agent, node.name, origin))
            continue
        names = step_names(node)
        j = 0  # the chain is placed in full, so its runs start at X_1
        for agent, first, length in runs:
            records += zip(range(-first, -first - length, -1),
                           repeat(agent, length), names[j:j + length],
                           repeat(origin, length))
            j += length
    if not records:
        return "[]"
    records.sort()
    return "[\n%s\n      ]" % ",\n".join([
        _RECORD % (dumps(name), origin, agent, -slot)
        for slot, agent, name, origin in records])


def to_json(results: list, adt: Adt) -> str:
    """Every result as one JSON document, byte for byte what
    ``json.dumps(payload, indent=2)`` prints.  Raises ``ValueError`` above
    ``MAX_CELLS`` assignment records in all."""
    _check_size(sum(node.weight or 1 for result in results
                    for node in result.assignment), "the JSON assignment")
    if not results:
        return '{\n  "variants": []\n}\n'
    return '{\n  "variants": [\n%s\n  ]\n}\n' % ",\n".join([
        _VARIANT % (
            _json_object(result.variant.signature),
            _json_object(result.variant.or_choices),
            "true" if result.feasible else "false",
            result.slots, result.agents, variant_cost(result, adt),
            _assignment(result))
        for result in results])


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
