"""Attack-defence tree model and structural validation.

An attack-defence tree (ADT) describes how an attacker can reach a goal and
how a defender can get in the way.  Every node has a label and one of seven
kinds:

* ``LEAF``  -- an atomic action with a duration and a cost,
* ``AND``   -- all children must complete, in any order,
* ``OR``    -- exactly one child must complete,
* ``SAND``  -- all children must complete, left to right,
* ``CAND``  -- first child is an action, second is a countermeasure; the
  action succeeds only if the countermeasure fails,
* ``SCAND`` -- like ``CAND`` but the countermeasure is attempted strictly
  after the action,
* ``NODEF`` -- first child is an action, second a countermeasure; the action
  is only *useful* while the countermeasure is absent (if the countermeasure
  fails the action becomes unnecessary).

The three counter kinds take exactly two children and flip sides: the second
child belongs to the opponent of the node itself.  The root is always an
attack node, so the tree alternates between attack and defence subtrees at
counter gates.  Within a defence subtree the same gates describe composite
defences (counter gates nested inside a defence subtree are rejected --
their semantics is not defined here).

Durations are non-negative integers in an arbitrary base unit.  Costs are
plain integers that are summed per schedule, never optimised.  Conditions
are free text carried around for the user's benefit; nothing here evaluates
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class NodeKind(Enum):
    LEAF = "leaf"
    AND = "and"
    OR = "or"
    SAND = "sand"
    CAND = "cand"
    NODEF = "nodef"
    SCAND = "scand"


#: Gates whose second child switches sides.
COUNTER_KINDS = frozenset({NodeKind.CAND, NodeKind.NODEF, NodeKind.SCAND})

#: Gates that only combine children on the same side.
PLAIN_GATE_KINDS = frozenset({NodeKind.AND, NodeKind.OR, NodeKind.SAND})


class Role(Enum):
    ATTACK = "attack"
    DEFENCE = "defence"

    def flipped(self) -> "Role":
        return Role.DEFENCE if self is Role.ATTACK else Role.ATTACK


@dataclass
class AdtNode:
    """One labelled node.  ``children`` holds labels, in declaration order.

    ``role`` is meaningful for leaves at construction time (it states which
    side the author believes the leaf is on); :func:`validate_adt` derives
    the actual role of every node from the root and the counter gates, checks
    declared leaf roles against it, and stores the result.
    """

    label: str
    kind: NodeKind
    children: list[str] = field(default_factory=list)
    duration: int = 0
    cost: int = 0
    condition: str | None = None
    role: Role = Role.ATTACK


@dataclass
class Adt:
    """A whole tree: a root label plus a label -> node mapping.

    ``nodes`` preserves definition order, which downstream code uses as a
    stable iteration order; structural order (who is whose child) is the
    only order that carries meaning.
    """

    root: str
    nodes: dict[str, AdtNode]

    def node(self, label: str) -> AdtNode:
        return self.nodes[label]


@dataclass
class ValidationError:
    """One structural problem, as data.

    ``kind`` is a stable machine-readable tag:

    * ``duplicate-label``    -- node's ``label`` field disagrees with its key
    * ``undefined-child``    -- a child label with no definition
    * ``missing-root``       -- root label not among the nodes
    * ``counter-gate-arity`` -- CAND/SCAND/NODEF without exactly 2 children
    * ``empty-gate``         -- AND/OR/SAND with no children
    * ``leaf-with-children`` -- a LEAF that lists children
    * ``duplicate-child``    -- a gate that lists one child twice
    * ``multi-parent``       -- a label referenced by two parents
    * ``cycle``              -- a child path returning to an ancestor
    * ``unreachable-node``   -- a definition not reachable from the root
    * ``role-mismatch``      -- declared leaf side differs from the derived one
    * ``counter-in-defence`` -- a counter gate nested inside a defence subtree
    * ``negative-duration``  -- duration below zero
    """

    kind: str
    label: str
    message: str


def preorder(adt: Adt) -> list[str]:
    """Labels in depth-first preorder from the root, following children in
    declaration order.  Assumes a validated tree (no cycles); iterative, so
    label chains of any length are fine."""
    out: list[str] = []
    stack = [adt.root]
    while stack:
        label = stack.pop()
        out.append(label)
        node = adt.nodes.get(label)
        if node is not None:
            stack.extend(reversed(node.children))
    return out


def validate_adt(adt: Adt) -> list[ValidationError]:
    """Check the structural invariants and derive node roles.

    Returns the list of problems found (empty means valid).  On success the
    ``role`` field of every node is set from the root down; declared leaf
    roles are checked, not trusted.  The input is otherwise unchanged.
    """
    errors: list[ValidationError] = []

    for label, node in adt.nodes.items():
        if node.label != label:
            errors.append(ValidationError(
                "duplicate-label", label,
                "node keyed %r carries label %r" % (label, node.label)))
        if node.duration < 0:
            errors.append(ValidationError(
                "negative-duration", label,
                "duration %d is negative" % node.duration))
        if node.kind is NodeKind.LEAF and node.children:
            errors.append(ValidationError(
                "leaf-with-children", label,
                "leaf %r lists children %s" % (label, node.children)))
        if node.kind in COUNTER_KINDS and len(node.children) != 2:
            errors.append(ValidationError(
                "counter-gate-arity", label,
                "%s gate %r has %d children, needs exactly 2"
                % (node.kind.name, label, len(node.children))))
        if node.kind in PLAIN_GATE_KINDS and not node.children:
            errors.append(ValidationError(
                "empty-gate", label,
                "%s gate %r has no children" % (node.kind.name, label)))
        for child in node.children:
            if child not in adt.nodes:
                errors.append(ValidationError(
                    "undefined-child", label,
                    "%r references undefined child %r" % (label, child)))

    if adt.root not in adt.nodes:
        errors.append(ValidationError(
            "missing-root", adt.root, "root %r is not defined" % adt.root))
        return errors

    parent_seen: dict[str, str] = {}
    for label, node in adt.nodes.items():
        for child in node.children:
            if child in parent_seen and child in adt.nodes:
                if parent_seen[child] == label:
                    errors.append(ValidationError(
                        "duplicate-child", label,
                        "%r lists child %r twice" % (label, child)))
                else:
                    errors.append(ValidationError(
                        "multi-parent", child,
                        "%r is a child of both %r and %r"
                        % (child, parent_seen[child], label)))
            else:
                parent_seen[child] = label

    if errors:
        # Role derivation and cycle detection assume the shape errors above
        # are absent; report what we have rather than crash on bad input.
        return errors

    # Every label now has at most one parent, so a cycle that the root
    # reaches runs through the root, and a walk from the root meets every
    # other label once.  One walk therefore derives the roles (the root
    # attacks; the second child of a counter gate is on the other side;
    # everything else inherits) and finds the cycle, if any, when it meets
    # the root again; the labels it never meets are unreachable.
    derived: dict[str, Role] = {}
    stack = [(adt.root, Role.ATTACK)]
    while stack:
        label, role = stack.pop()
        if label in derived:
            return [ValidationError(
                "cycle", label, "%r is its own descendant" % label)]
        derived[label] = role
        node = adt.nodes[label]
        if node.kind in COUNTER_KINDS:
            if role is Role.DEFENCE:
                errors.append(ValidationError(
                    "counter-in-defence", label,
                    "counter gate %r sits inside a defence subtree "
                    "(unsupported)" % label))
            stack.append((node.children[1], role.flipped()))
            stack.append((node.children[0], role))
        else:
            stack.extend((child, role) for child in reversed(node.children))

    unreachable = [ValidationError(
        "unreachable-node", label,
        "%r is not reachable from root %r" % (label, adt.root))
        for label in adt.nodes if label not in derived]
    if unreachable:
        return unreachable

    for label, node in adt.nodes.items():
        if node.kind is NodeKind.LEAF and node.role is not derived[label]:
            errors.append(ValidationError(
                "role-mismatch", label,
                "leaf %r declared %s but sits on the %s side"
                % (label, node.role.value, derived[label].value)))

    if errors:
        return errors

    for label, node in adt.nodes.items():
        node.role = derived[label]
    return []
