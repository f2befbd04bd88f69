"""Human- and machine-readable views of schedules."""

from __future__ import annotations

import io
from bisect import bisect_right
from collections import defaultdict
from itertools import chain, repeat
from operator import itemgetter

from .model import Adt
from .preprocess import step_names
from .scheduler import ScheduleResult

ELLIPSIS = "⋯"
#: the most cells a table (slots x agents) or a JSON assignment (unit steps
#: and zero-duration nodes) may print
MAX_CELLS = 1_000_000
#: the fewest table rows per run and zero-duration node at which
#: ``render_table`` formats stretches of rows instead of cells
STRETCH_ROWS = 32
#: the most rows of a stretch formatted in one go, which bounds the
#: transient strings of a long table
_CHUNK = 1024


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


def _header(width: int, widths: list, agents: int) -> str:
    """The header line: ``slot/agent`` right-aligned to ``width``, then the
    agent numbers, each but the last padded to its column's width."""
    header = ["slot/agent".rjust(width)]
    header += [str(a).ljust(w) for a, w in enumerate(widths, start=1)]
    header += [str(agents)] if agents else []
    return " | ".join(header)


def render_table(result: ScheduleResult, elide: bool = False) -> str:
    """Slot-by-agent grid, latest slot first.  With ``elide``, long
    stretches of uneventful chain progress collapse into one ellipsis row.
    An infeasible variant renders as its banner instead.  Raises
    ``ValueError`` above ``MAX_CELLS`` slots x agents.

    Two paths print the same bytes.  The per-cell path builds the text of
    every cell and joins every row, so its Python work grows with slots x
    agents.  The stretch path (:func:`_stretch_table`) formats each stretch
    of rows between two events with one row template, so its Python work
    grows with the runs and zero-duration nodes and only C-level
    formatting grows with the rows.  A template costs more than it saves
    on short stretches, so the stretch path is taken, without ``elide``,
    when the table has at least ``STRETCH_ROWS`` rows per run and
    zero-duration node, a count read off the assignment in O(nodes).  Over
    315 tables (Python 3.11, 2 cores) the stretch path took 2-4x the
    per-cell time below 8 rows per run, 1.1-1.5x at 8 to 16, about 1x at
    16 to 32, 0.75x at 32 to 64 and 0.57x at 128 and more."""
    if not result.feasible:
        return "attack impossible\n"
    slots, agents = result.slots, result.agents
    _check_size(slots * agents,
                "a table of %d slots x %d agents" % (slots, agents))
    if not elide and slots >= STRETCH_ROWS * sum(
            map(len, result.assignment.values())):
        return _stretch_table(result)
    return _cell_table(result, elide)


def _cell_table(result: ScheduleResult, elide: bool) -> str:
    """:func:`render_table`, one cell and one row join at a time."""
    slots, agents = result.slots, result.agents
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
    # the last column is not padded
    widths = [max(len(str(agent)), max(map(len, column), default=0))
              for agent, column in enumerate(columns[:-1], start=1)]
    cells = [[label.rjust(width) for label in labels]]
    cells += [list(map(str.ljust, column, repeat(w)))
              for column, w in zip(columns, widths)]
    cells += columns[-1:]
    lines = map(str.rstrip, map(" | ".join, zip(*cells)))
    return "\n".join(chain((_header(width, widths, agents),), lines)) + "\n"


def _digit_rows(lo: int, stop: int, base: int):
    """``(row, digits)`` for row ``lo`` and for each later row before
    ``stop`` at which the number ``base - row`` loses a digit."""
    digits = len(str(base - lo))
    yield lo, digits
    for d in range(digits - 1, 0, -1):
        row = base + 1 - 10 ** d  # the first row showing 10^d - 1
        if row >= stop:
            return
        yield row, d


def _stretch_table(result: ScheduleResult) -> str:
    """:func:`render_table` without ``elide``, one format per stretch.

    Display row ``r`` shows slot ``slots - r``.  A run whose first step is
    ``X_j`` at row ``hi`` shows ``X_(base - r)`` at row ``r``, with ``base
    = j + hi``.  So a stretch of rows in which every column is blank or
    continues one run, and no number loses a digit, prints as one row
    template of ``%d`` and literal padding, formatted with the slot labels
    and one step number per run.  A chain's ``X_1``, printed as the
    chain's own name, and a cell holding a zero-duration node are literal
    cells, and each of their rows is a stretch of its own."""
    slots, agents = result.slots, result.agents
    # column 0 holds the slot labels, column ``agent`` that agent's cells
    widths = [max(len("slot/agent"), len(str(slots)))]
    widths += [len(str(agent)) for agent in range(1, agents + 1)]
    spans = [[] for _ in widths]  # per column: (lo, stop, prefix, base)
    literals: dict[tuple, str] = {}  # (row, agent) -> cell text
    shared: dict[tuple, list] = {}  # cells with a zero-duration node
    for node, runs in result.assignment.items():
        if not node.weight:
            agent, slot, _ = runs[0]
            shared.setdefault((slots - slot, agent), []).append(node.name)
            continue
        prefix = node.origin + "_"
        j = 1  # the chain is placed in full, so its runs start at X_1
        for agent, first, length in runs:
            hi = slots - first
            base = j + hi
            if j == 1:
                literals[hi, agent] = node.name
                widths[agent] = max(widths[agent], len(node.name))
                hi -= 1
            j += length
            lo = slots + 1 - first - length
            if lo <= hi:
                spans[agent].append((lo, hi + 1, prefix, base))
                widths[agent] = max(widths[agent],
                                    len(prefix) + len(str(j - 1)))
    for column in spans:
        column.sort()
    for (r, agent), names in shared.items():
        name = literals.get((r, agent))
        if name is None:  # the step of the span holding row r, if any
            column = spans[agent]
            k = bisect_right(column, r, key=itemgetter(0)) - 1
            if k >= 0 and r < column[k][1]:
                _, _, prefix, base = column[k]
                name = prefix + str(base - r)
        if name is not None:
            names.append(name)
        literals[r, agent] = text = ", ".join(sorted(names))
        widths[agent] = max(widths[agent], len(text))
    # the template piece of each column changes at these rows: to
    # (piece, base) where a span starts or its number loses a digit, and
    # back to blank where a span stops; the last column is not padded
    blank = [" " * w for w in widths]
    if agents:
        blank[agents] = ""
    starts, stops = defaultdict(list), defaultdict(list)
    spans[0].append((0, slots, "", slots))
    for c, column in enumerate(spans):
        for lo, stop, prefix, base in column:
            head = prefix.replace("%", "%%") + "%d"
            stops[stop].append(c)
            if c and c == agents:
                starts[lo].append((c, head, base))
                continue
            for row, digits in _digit_rows(lo, stop, base):
                pad = " " * (widths[c] - len(prefix) - digits)
                piece = pad + head if c == 0 else head + pad
                starts[row].append((c, piece, base))
    rows = defaultdict(list)  # row -> its literal cells
    for (r, agent), text in literals.items():
        if agent != agents:
            text = text.ljust(widths[agent])
        rows[r].append((agent, text.replace("%", "%%")))
    cuts = sorted({slots}.union(starts, rows, [r + 1 for r in rows]))
    pieces, bases = blank.copy(), [None] * len(widths)
    out = [_header(widths[0], widths[1:agents], agents)]
    for top, end in zip(cuts, cuts[1:]):
        for c in stops.get(top, ()):
            pieces[c], bases[c] = blank[c], None
        for c, piece, base in starts.get(top, ()):
            pieces[c], bases[c] = piece, base
        line, counts = pieces, bases
        if top in rows:  # one row, some of its cells literal
            line, counts = pieces.copy(), bases.copy()
            for agent, text in rows[top]:
                line[agent], counts[agent] = text, None
        template = " | ".join(line).rstrip()
        counts = [b for b in counts if b is not None]
        for first in range(top, end, _CHUNK):
            stop = min(first + _CHUNK, end)
            numbers = [0] * (len(counts) * (stop - first))
            for c, base in enumerate(counts):
                numbers[c::len(counts)] = range(base - first, base - stop, -1)
            out.append("\n".join(repeat(template, stop - first))
                       % tuple(numbers))
    return "\n".join(out) + "\n"


#: one assignment record as ``json.dumps(..., indent=2)`` prints it
_RECORD = ('        {\n          "node": %s,\n          "origin": %s,\n'
           '          "agent": %d,\n          "slot": %d\n        }')
_VARIANT = ('    {\n      "defences": %s,\n      "or_choices": %s,\n'
            '      "feasible": %s,\n      "slots": %d,\n      "agents": %d,\n'
            '      "cost": %d,\n      "assignment": %s\n    }')


def _json_object(mapping: dict) -> str:
    """A flat ``str -> str`` dict as a variant's field, indented alike."""
    from json import dumps  # only JSON output needs it: kept out of start-up
    if not mapping:
        return "{}"
    return "{\n%s\n      }" % ",\n".join(
        "        %s: %s" % (dumps(key), dumps(value))
        for key, value in mapping.items())


def _assignment(result: ScheduleResult) -> str:
    """The ``assignment`` list: one record per unit step and zero-duration
    node, latest slot first; step names are made here only."""
    from json import dumps  # only JSON output needs it: kept out of start-up
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
    import csv  # only CSV output needs it: kept out of start-up
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
