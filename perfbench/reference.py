"""Output checks that do not trust the program's own answers.

* A small reader for the ``.adt`` subset the benchmark generates, and a
  tree-level critical-path evaluator: per defence outcome, the fastest
  completion time of the attack, or None when the attack is impossible.
* A reader for the default table output that checks its shape: one row per
  slot, one unit step per agent and slot, every chain complete and in order.
* Per-workload checks against closed forms, pinned figures, the critical
  path, or the exhaustive ``brute_force_min_agents`` referee.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import json
import re
from math import ceil

from workloads import PINNED, gcd_all

_LINE = re.compile(r"^([A-Za-z_][A-Za-z0-9_']*)\s*:\s*(.*)$")
_GATE = re.compile(r"^([A-Za-z]+)\s*\(([^()]*)\)\s*(.*)$")
_TIME = re.compile(r"\btime=(\d+)\b")
_HEADING = re.compile(r"^(.*?)(?: \[(.*)\])?: (?:(attack impossible)|"
                      r"slots=(\d+) agents=(\d+) cost=(\d+))$")
_STEP = re.compile(r"^([A-Za-z][A-Za-z0-9]*)_(\d+)$")

OPERATING = "operating"
FAILED = "failed"
COUNTER = ("CAND", "SCAND", "NODEF")


def read_tree(text: str):
    """label -> (kind, children, duration) and the root label."""
    nodes, root = {}, None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        label, rest = _LINE.match(line).groups()
        if label == "root" and ":" not in rest and " " not in rest:
            root = rest
            continue
        gate = _GATE.match(rest)
        if gate:
            kind = gate.group(1).upper()
            kids = [c.strip() for c in gate.group(2).split(",") if c.strip()]
            attrs = gate.group(3)
        else:
            kind, _, attrs = rest.partition(" ")
            kind, kids = kind.upper(), []
        m = _TIME.search(attrs)
        nodes[label] = (kind, kids, int(m.group(1)) if m else 0)
    if root is None:
        used = {c for _, kids, _ in nodes.values() for c in kids}
        (root,) = [x for x in nodes if x not in used]
    return nodes, root


def critical_path(nodes, root, roots: dict):
    """Fastest completion time of ``root`` when each defence-subtree root
    has the status in ``roots``; None when the attack is impossible.

    AND waits for all children, SAND runs them in turn, OR takes the
    fastest possible child.  CAND/SCAND need a failed countermeasure; NODEF
    with a failed countermeasure makes its action unnecessary.  A node's
    own duration runs after its children.
    """
    memo = {}

    def visit(label):
        if label in memo:
            return memo[label]
        kind, kids, duration = nodes[label]
        if kind in ("ATTACK", "DEFENCE"):
            value = 0
        elif kind == "AND":
            parts = [visit(c) for c in kids]
            value = None if None in parts else max(parts)
        elif kind == "SAND":
            parts = [visit(c) for c in kids]
            value = None if None in parts else sum(parts)
        elif kind == "OR":
            parts = [p for p in (visit(c) for c in kids) if p is not None]
            value = min(parts) if parts else None
        elif kind in ("CAND", "SCAND"):
            value = None if roots[kids[1]] == OPERATING else visit(kids[0])
        elif kind == "NODEF":
            value = visit(kids[0]) if roots[kids[1]] == OPERATING else 0
        else:
            raise ValueError("unknown kind %r" % kind)
        memo[label] = None if value is None else value + duration
        return memo[label]

    return visit(root)


def read_table_output(out: str):
    """Split default table output into blocks of (heading dict, rows)."""
    blocks, current = [], None
    for line in out.splitlines():
        if not line:
            continue
        m = _HEADING.match(line)
        if m and not line.startswith("slot/agent"):
            sig_text = m.group(1)
            signature = {}
            if sig_text != "no defences":
                for part in sig_text.split(", "):
                    name, status = part.rsplit(" ", 1)
                    signature[name] = status.lower()
            current = {"signature": signature,
                       "feasible": m.group(3) is None,
                       "slots": int(m.group(4) or 0),
                       "agents": int(m.group(5) or 0),
                       "header": None, "rows": []}
            blocks.append(current)
        elif current is None:
            raise ValueError("table line before any heading: %r" % line)
        elif line.startswith("slot/agent"):
            current["header"] = [c.strip() for c in line.split("|")]
        else:
            cells = [c.strip() for c in line.split("|")]
            current["rows"].append((int(cells[0]), cells[1:]))
    return blocks


def check_table(block, durations=None) -> list:
    """Shape of one rendered schedule.  ``durations`` maps an origin to its
    chain length in time units; when given, every listed chain must appear
    in full."""
    problems = []
    if not block["feasible"]:
        return problems if not block["rows"] else ["rows under impossible"]
    slots, agents = block["slots"], block["agents"]
    header = block["header"] or []
    if header[1:] != [str(a) for a in range(1, agents + 1)]:
        problems.append("header %r does not list agents 1..%d"
                        % (header, agents))
    labels = [slot for slot, _ in block["rows"]]
    if labels != list(range(slots, 0, -1)):
        problems.append("rows are not slots %d..1" % slots)
    where = {}
    for slot, cells in block["rows"]:
        if len([c for c in cells if c]) > agents:
            problems.append("slot %d uses more than %d agents"
                            % (slot, agents))
        for cell in cells:
            steps = [n for n in cell.split(", ") if _STEP.match(n)]
            if len(steps) > 1:
                problems.append("slot %d: one agent runs %s" % (slot, steps))
            for name in steps:
                if name in where:
                    problems.append("%s scheduled twice" % name)
                where[name] = slot
    chains = {}
    for name, slot in where.items():
        origin, index = _STEP.match(name).groups()
        chains.setdefault(origin, {})[int(index)] = slot
    for origin, steps in chains.items():
        k = len(steps)
        if sorted(steps) != list(range(1, k + 1)):
            problems.append("chain %s has gaps" % origin)
            continue
        if any(steps[i] >= steps[i + 1] for i in range(1, k)):
            problems.append("chain %s runs out of order" % origin)
        if durations is not None and origin in durations \
                and k != durations[origin]:
            problems.append("chain %s has %d of %d steps"
                            % (origin, k, durations[origin]))
    if durations is not None:
        missing = set(durations) - set(chains)
        if missing:
            problems.append("chains never scheduled: %s" % sorted(missing)[:3])
    if not where:
        problems.append("feasible schedule without unit steps")
    return problems


def check_pinned(item, out) -> list:
    blocks = read_table_output(out)
    problems = [p for b in blocks for p in check_table(b)]
    pinned = PINNED[item.expect["tree"]]
    got = sorted((b["slots"], b["agents"]) for b in blocks if b["feasible"])
    if got != pinned["feasible"]:
        problems.append("(slots, agents) %s, pinned %s"
                        % (got, pinned["feasible"]))
    impossible = sum(1 for b in blocks if not b["feasible"])
    if pinned["impossible"] is not None and impossible != pinned["impossible"]:
        problems.append("%d impossible cases, pinned %d"
                        % (impossible, pinned["impossible"]))
    return problems


def check_critical_path(item, out) -> list:
    nodes, root = read_tree(item.text)
    unit = gcd_all(d for _, _, d in nodes.values())
    chain_len = {label: d // unit for label, (_, _, d) in nodes.items()}
    blocks = read_table_output(out)
    problems = []
    if not blocks:
        problems.append("no cases printed")
    for block in blocks:
        # an origin that shows up must appear with its whole chain
        origins = {_STEP.match(n).group(1)
                   for _, cells in block["rows"] for c in cells
                   for n in c.split(", ") if _STEP.match(n)}
        problems += check_table(
            block, {o: chain_len[o] for o in origins if o in chain_len})
        wanted = critical_path(nodes, root, block["signature"])
        if wanted is None:
            if block["feasible"]:
                problems.append("%s: feasible, critical path says impossible"
                                % block["signature"])
        elif not block["feasible"]:
            problems.append("%s: impossible, critical path %d"
                            % (block["signature"], wanted // unit))
        elif block["slots"] != wanted // unit:
            problems.append("%s: slots %d, critical path %d"
                            % (block["signature"], block["slots"],
                               wanted // unit))
    return problems


def check_chains(item, out) -> list:
    """McNaughton (1959): independent chains fit a deadline S >= the
    longest chain with exactly ceil(sum / S) agents."""
    durations = item.expect["durations"]
    unit = gcd_all(durations.values())
    lengths = {k: d // unit for k, d in durations.items()}
    slots = item.expect.get("slots", max(lengths.values()))
    agents = ceil(sum(lengths.values()) / slots)
    blocks = read_table_output(out)
    if len(blocks) != 1:
        return ["%d cases printed, wanted 1" % len(blocks)]
    block = blocks[0]
    problems = check_table(block, lengths)
    if (block["slots"], block["agents"]) != (slots, agents):
        problems.append("(slots, agents) (%d, %d), McNaughton (%d, %d)"
                        % (block["slots"], block["agents"], slots, agents))
    return problems


def _json_shape(variants) -> list:
    problems = []
    for v in variants:
        if not v["feasible"]:
            continue
        used = set()
        for rec in v["assignment"]:
            if not _STEP.match(rec["node"]):
                continue
            key = (rec["agent"], rec["slot"])
            if key in used:
                problems.append("two unit steps at %s" % (key,))
            used.add(key)
            if not (1 <= rec["agent"] <= v["agents"]
                    and 1 <= rec["slot"] <= v["slots"]):
                problems.append("%s outside the table" % rec["node"])
    return problems


def check_or_fan(item, out) -> list:
    """The OR fan is one case: all k ORs finish in slot 1 side by side."""
    k = item.expect["k"]
    variants = json.loads(out)["variants"]
    got = [(v["feasible"], v["slots"], v["agents"]) for v in variants]
    problems = _json_shape(variants)
    if got != [(True, 1, k)]:
        problems.append("got %s, closed form [(True, 1, %d)]" % (got, k))
    return problems


def check_cand_fan(item, out) -> list:
    """The CAND fan is two cases: every countermeasure failed (k unit steps
    in one slot) and any one operating (attack impossible)."""
    k = item.expect["k"]
    variants = json.loads(out)["variants"]
    got = sorted((v["feasible"], v["slots"], v["agents"]) for v in variants)
    problems = _json_shape(variants)
    if got != [(False, 0, 0), (True, 1, k)]:
        problems.append("got %s, closed form one impossible case and "
                        "(True, 1, %d)" % (got, k))
    return problems


BRUTE_FORCE_LIMIT = 12


def defence_outcomes(nodes) -> list:
    """Every signature the defence leaves can produce: the status of each
    defence-subtree root (second child of a counter gate), where AND/SAND
    need every child operating and OR needs one."""
    roots = [kids[1] for kind, kids, _ in nodes.values() if kind in COUNTER]
    leaves = [x for x, (kind, _, _) in nodes.items() if kind == "DEFENCE"]
    outcomes = []
    for combo in itertools.product((FAILED, OPERATING), repeat=len(leaves)):
        status = dict(zip(leaves, combo))

        def visit(label):
            if label not in status:
                kind, kids, _ = nodes[label]
                states = [visit(c) for c in kids]
                if kind == "OR":
                    status[label] = OPERATING if OPERATING in states \
                        else FAILED
                else:
                    status[label] = FAILED if FAILED in states \
                        else OPERATING
            return status[label]

        signature = {r: visit(r) for r in roots}
        if signature not in outcomes:
            outcomes.append(signature)
    return outcomes


# Prefix of a mismatch on an outcome in which the countermeasure of a NODEF
# gate failed.  The program mishandles such outcomes: it lets an impossible
# action make the NODEF gate impossible although its failed countermeasure
# makes the action unnecessary, and it re-attaches remnants of other,
# already resolved counter gates (defence steps among them) under the
# NODEF gate.  These mismatches count as failed analyses like any other.
NODEF_DEFECT = "known NODEF defect: "


def check_brute_force(item, out, program) -> list:
    """Cases, feasibility and slots come from the tree itself: every
    printed case is a distinct defence outcome the tree can produce, its
    slots are the critical path under that outcome, and every outcome the
    tree can produce has the (feasible, slots) of some printed case (the
    program may merge outcomes only when their variants are identical).
    Agents must equal the exhaustive search over the program's variants of
    the case wherever every variant has at most 12 unit steps."""
    nodes, root = read_tree(item.text)
    unit = gcd_all(d for _, _, d in nodes.values())
    outcomes = defence_outcomes(nodes)
    nodef = [kids[1] for kind, kids, _ in nodes.values() if kind == "NODEF"]

    def expected(signature):
        wanted = critical_path(nodes, root, signature)
        return (False, 0) if wanted is None else (True, wanted // unit)

    def mismatch(signature, text):
        if any(signature[c] == FAILED for c in nodef):
            text = NODEF_DEFECT + text
        problems.append(text)

    variants = json.loads(out)["variants"]
    problems = _json_shape(variants)
    printed, shown = [], set()
    for got in variants:
        signature = got["defences"]
        if signature not in outcomes:
            problems.append("%s is no outcome of the tree" % signature)
            continue
        if signature in printed:
            problems.append("%s printed twice" % signature)
        printed.append(signature)
        shown.add((got["feasible"], got["slots"] if got["feasible"] else 0))
        feasible, slots = expected(signature)
        if got["feasible"] != feasible:
            mismatch(signature, "%s: feasible %s, critical path says %s"
                     % (signature, got["feasible"], feasible))
        elif feasible and got["slots"] != slots:
            mismatch(signature, "%s: slots %d, critical path %d"
                     % (signature, got["slots"], slots))
    for signature in outcomes:
        if expected(signature) not in shown:
            mismatch(signature, "outcome %s (feasible, slots) %s is in no "
                     "printed case" % (signature, expected(signature)))

    cases = program.preprocess_cases(program.parse_adt(item.text))
    for got in variants:
        case = next((c for c in cases
                     if got["defences"] in c.merged_signatures), None)
        if case is None:
            problems.append("%s is in no case of the program"
                            % got["defences"])
            continue
        live = [v for v in case.variants if v.feasible]
        if live and max(v.dag.n for v in live) <= BRUTE_FORCE_LIMIT:
            best = min(program.brute_force_min_agents(v.dag) for v in live)
            if got["agents"] != best:
                problems.append("%s: agents %d, exhaustive %d"
                                % (got["defences"], got["agents"], best))
    return problems


def check(item, out, program) -> list:
    kind = item.expect["kind"]
    try:
        if kind == "pinned":
            return check_pinned(item, out)
        if kind == "critical_path":
            return check_critical_path(item, out)
        if kind == "chains":
            return check_chains(item, out)
        if kind == "or_fan":
            return check_or_fan(item, out)
        if kind == "cand_fan":
            return check_cand_fan(item, out)
        if kind == "brute_force":
            return check_brute_force(item, out, program)
    except (ValueError, KeyError, TypeError) as exc:
        return ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
    raise ValueError("no check for %r" % kind)
