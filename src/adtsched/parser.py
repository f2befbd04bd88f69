"""Text format for attack-defence trees, plus DOT export.

One node per line::

    TS: CAND(TF, p)
    ST: AND(b, f) time=2
    b:  ATTACK time=60 cost=500
    p:  DEFENCE time=10 cost=100

* ``label: KIND(child, ...)`` defines a gate, ``label: ATTACK`` or
  ``label: DEFENCE`` defines a leaf on the stated side.
* Labels match ``[A-Za-z_][A-Za-z0-9_']*`` and are case-sensitive; kind
  keywords are case-insensitive.
* Attributes: ``time=N`` (optionally ``Nh`` = 60 units, ``Nmin`` = 1 unit),
  ``cost=N``, ``condition=text`` (quote the text if it contains spaces;
  conditions are carried verbatim, never interpreted), each at most once
  per line.  ``N`` is written in ASCII digits.
* A gate lists each child once.
* ``#`` starts a comment.  An optional ``root: label`` line names the root;
  without it the root is the unique label never used as a child.
"""

from __future__ import annotations

import re

from .model import Adt, AdtNode, NodeKind, Role

LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_GATE_RE = re.compile(r"^([A-Za-z]+)\s*\(([^()]*)\)\s*(.*)$")
_LEAF_RE = re.compile(r"^([A-Za-z]+)\b\s*(.*)$")
_ATTR_RE = re.compile(r'([A-Za-z_]+)\s*=\s*("[^"]*"|\S+)\s*')
_TIME_RE = re.compile(r"^([0-9]+)(h|min)?$")

_GATE_KINDS = {
    "and": NodeKind.AND,
    "or": NodeKind.OR,
    "sand": NodeKind.SAND,
    "cand": NodeKind.CAND,
    "nodef": NodeKind.NODEF,
    "scand": NodeKind.SCAND,
}
_LEAF_ROLES = {"attack": Role.ATTACK, "defence": Role.DEFENCE}


class ParseError(Exception):
    """Raised on malformed input; carries a 1-based line number.

    ``kind`` is one of ``syntax``, ``unknown-kind``, ``undefined-child``,
    ``duplicate-definition`` (a label, attribute, child or root directive
    given twice), ``missing-root``.
    """

    def __init__(self, kind: str, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.kind = kind
        self.line = line


def _strip_comment(line: str) -> str:
    # '#' inside a quoted attribute value does not start a comment.
    if "#" not in line:
        return line
    quoted = False
    for i, ch in enumerate(line):
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            return line[:i]
    return line


def _parse_attrs(text: str, lineno: int) -> tuple[int, int, str | None]:
    duration = cost = condition = None  # None: not given yet
    pos = 0
    while pos < len(text):
        m = _ATTR_RE.match(text, pos)
        if m is None:
            raise ParseError("syntax", lineno,
                             "cannot parse attributes at %r" % text[pos:])
        key, value = m.group(1), m.group(2)
        if value.startswith('"'):
            value = value[1:-1]
        if (key == "time" and duration is not None
                or key == "cost" and cost is not None
                or key == "condition" and condition is not None):
            raise ParseError("duplicate-definition", lineno,
                             "attribute %r given twice" % key)
        if key == "time":
            tm = _TIME_RE.match(value)
            if tm is None:
                raise ParseError("syntax", lineno,
                                 "bad time value %r" % value)
            duration = int(tm.group(1)) * (60 if tm.group(2) == "h" else 1)
        elif key == "cost":
            if not (value.isascii() and value.isdigit()):
                raise ParseError("syntax", lineno,
                                 "bad cost value %r" % value)
            cost = int(value)
        elif key == "condition":
            condition = value
        else:
            raise ParseError("syntax", lineno, "unknown attribute %r" % key)
        pos = m.end()
    return duration or 0, cost or 0, condition


def parse_adt(text: str) -> Adt:
    """Parse the text format into an :class:`Adt`.

    Raises :class:`ParseError` on the first problem.  The result is not yet
    validated; run :func:`adtsched.model.validate_adt` before preprocessing.
    """
    nodes: dict[str, AdtNode] = {}
    def_lines: dict[str, int] = {}
    root_directive: tuple[str, int] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        colon = line.find(":")
        if colon <= 0:
            raise ParseError("syntax", lineno, "expected 'label: ...' in %r" % line)
        label, rest = line[:colon].strip(), line[colon + 1:].strip()
        if LABEL_RE.fullmatch(label) is None:
            raise ParseError("syntax", lineno, "bad label %r" % label)
        if not rest:
            raise ParseError("syntax", lineno, "missing definition after %r:" % label)

        gate = _GATE_RE.match(rest)
        if gate is not None:
            kind_word = gate.group(1).lower()
            kind = _GATE_KINDS.get(kind_word)
            if kind is None:
                raise ParseError("unknown-kind", lineno,
                                 "unknown gate kind %r" % gate.group(1))
            children = []
            body = gate.group(2).strip()
            if body:
                for part in body.split(","):
                    child = part.strip()
                    if LABEL_RE.fullmatch(child) is None:
                        raise ParseError("syntax", lineno,
                                         "bad child label %r" % part.strip())
                    children.append(child)
                if len(set(children)) < len(children):
                    twice = next(c for i, c in enumerate(children)
                                 if c in children[:i])
                    raise ParseError("duplicate-definition", lineno,
                                     "%r lists child %r twice"
                                     % (label, twice))
            duration, cost, condition = _parse_attrs(gate.group(3), lineno)
            node = AdtNode(label, kind, children, duration, cost, condition)
        else:
            leaf = _LEAF_RE.match(rest)
            word = leaf.group(1).lower() if leaf else ""
            if leaf is not None and word in _LEAF_ROLES:
                duration, cost, condition = _parse_attrs(leaf.group(2), lineno)
                node = AdtNode(label, NodeKind.LEAF, [], duration, cost,
                               condition, role=_LEAF_ROLES[word])
            elif label == "root" and LABEL_RE.fullmatch(rest) is not None:
                if root_directive is not None:
                    raise ParseError("duplicate-definition", lineno,
                                     "root named twice")
                root_directive = (rest, lineno)
                continue
            elif leaf is not None and word in _GATE_KINDS:
                raise ParseError("syntax", lineno,
                                 "gate %r needs a child list" % leaf.group(1))
            elif leaf is not None and rest == leaf.group(1):
                raise ParseError("unknown-kind", lineno,
                                 "unknown kind %r" % leaf.group(1))
            else:
                raise ParseError("syntax", lineno,
                                 "cannot parse definition %r" % rest)

        if label in nodes:
            raise ParseError("duplicate-definition", lineno,
                             "%r already defined on line %d"
                             % (label, def_lines[label]))
        nodes[label] = node
        def_lines[label] = lineno

    for label, node in nodes.items():
        for child in node.children:
            if child not in nodes:
                raise ParseError("undefined-child", def_lines[label],
                                 "%r references undefined child %r"
                                 % (label, child))

    if root_directive is not None:
        root, lineno = root_directive
        if root not in nodes:
            raise ParseError("undefined-child", lineno,
                             "root directive names undefined label %r" % root)
        return Adt(root, nodes)

    referenced = {c for node in nodes.values() for c in node.children}
    candidates = [label for label in nodes if label not in referenced]
    if not nodes:
        raise ParseError("missing-root", 1, "no definitions")
    if not candidates:
        raise ParseError("missing-root", 1,
                         "cannot infer root: every label is a child of "
                         "another, so the definitions form a cycle")
    if len(candidates) > 1:
        raise ParseError("missing-root", 1,
                         "cannot infer root: candidates %s" % (candidates,))
    return Adt(candidates[0], nodes)


def _format_attrs(node: AdtNode) -> str:
    parts = []
    if node.duration:
        parts.append("time=%d" % node.duration)
    if node.cost:
        parts.append("cost=%d" % node.cost)
    if node.condition is not None:
        value = node.condition
        if value == "" or any(ch.isspace() for ch in value):
            value = '"%s"' % value
        parts.append("condition=%s" % value)
    return (" " + " ".join(parts)) if parts else ""


def serialize_adt(adt: Adt) -> str:
    """Emit the text form of ``adt``; ``parse_adt`` reads it back identically
    (same labels, kinds, child order, attributes)."""
    lines = ["root: %s" % adt.root]
    for label, node in adt.nodes.items():
        if node.kind is NodeKind.LEAF:
            body = node.role.value.upper()
        else:
            body = "%s(%s)" % (node.kind.name, ", ".join(node.children))
        lines.append("%s: %s%s" % (label, body, _format_attrs(node)))
    return "\n".join(lines) + "\n"


_ROLE_COLOUR = {Role.ATTACK: "red", Role.DEFENCE: "darkgreen"}


def export_dot(obj) -> str:
    """Render an :class:`Adt` or a preprocessed DAG as GraphViz DOT text.

    ADT leaves are triangles and gates boxes (the gate kind is printed in
    the node label), coloured by side -- validate first so gate roles are
    derived.  A DAG is drawn in its unit-step view (``unit_dag``):
    diamonds for unit-duration steps, trapeziums for zero-duration join
    points, triangles for leaves, boxes for gates.  Edges point from a node
    to what it directly waits for.
    """
    from .preprocess import Dag, DagKind, unit_dag

    lines = []
    if isinstance(obj, Adt):
        lines.append("digraph adt {")
        for label, node in obj.nodes.items():
            colour = _ROLE_COLOUR[node.role]
            if node.kind is NodeKind.LEAF:
                shape, text = "triangle", label
            else:
                shape, text = "box", "%s\\n%s" % (label, node.kind.name)
            if node.duration:
                text += "\\nt=%d" % node.duration
            lines.append('  "%s" [shape=%s, label="%s", color=%s];'
                         % (label, shape, text, colour))
        for label, node in obj.nodes.items():
            for child in node.children:
                lines.append('  "%s" -> "%s";' % (label, child))
    elif isinstance(obj, Dag):
        obj = unit_dag(obj)
        lines.append("digraph dag {")
        for n in obj.nodes:
            if n.kind is DagKind.SEQ:
                shape, text = "diamond", n.name
            elif n.kind is DagKind.NULL:
                shape, text = "trapezium", n.name
            elif n.kind is DagKind.LEAF:
                shape, text = "triangle", n.name
            else:
                shape, text = "box", "%s\\n%s" % (n.name, n.kind.name)
            lines.append('  "%s" [shape=%s, label="%s"];' % (n.name, shape, text))
        for n in obj.nodes:
            for child in n.children:
                lines.append('  "%s" -> "%s";' % (n.name, child.name))
    else:
        raise TypeError("expected Adt or Dag, got %r" % type(obj).__name__)
    lines.append("}")
    return "\n".join(lines) + "\n"
