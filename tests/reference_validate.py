"""The structural validation that the single-walk ``validate_adt``
replaced: a colouring depth-first search for cycles, a sweep for
unreachable labels and a preorder pass that derives roles.

Kept verbatim as a differential oracle: ``validate_adt`` must return the
same ``(kind, label, message)`` errors, in the same order, and leave the
same roles on every node.
"""

from adtsched.model import (
    COUNTER_KINDS,
    PLAIN_GATE_KINDS,
    Adt,
    NodeKind,
    Role,
    ValidationError,
    preorder,
)


def reference_validate_adt(adt: Adt) -> list[ValidationError]:
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

    # Cycle check: iterative DFS with colouring.  A tree defined via labels
    # can also express cycles, so this cannot be skipped.
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {label: WHITE for label in adt.nodes}
    stack: list[tuple[str, bool]] = [(adt.root, False)]
    while stack:
        label, done = stack.pop()
        if done:
            colour[label] = BLACK
            continue
        if colour[label] == GREY:
            errors.append(ValidationError(
                "cycle", label, "%r is its own descendant" % label))
            return errors
        if colour[label] == BLACK:
            continue
        colour[label] = GREY
        stack.append((label, True))
        for child in reversed(adt.nodes[label].children):
            if colour[child] == GREY:
                errors.append(ValidationError(
                    "cycle", child, "%r is its own descendant" % child))
                return errors
            if colour[child] == WHITE:
                stack.append((child, False))

    for label in adt.nodes:
        if colour[label] == WHITE:
            errors.append(ValidationError(
                "unreachable-node", label,
                "%r is not reachable from root %r" % (label, adt.root)))

    if errors:
        return errors

    # Derive roles: the root attacks; the second child of a counter gate is
    # on the other side; everything else inherits.
    derived: dict[str, Role] = {adt.root: Role.ATTACK}
    for label in preorder(adt):
        node = adt.nodes[label]
        role = derived[label]
        if node.kind in COUNTER_KINDS and role is Role.DEFENCE:
            errors.append(ValidationError(
                "counter-in-defence", label,
                "counter gate %r sits inside a defence subtree (unsupported)"
                % label))
        for i, child in enumerate(node.children):
            child_role = role
            if node.kind in COUNTER_KINDS and i == 1:
                child_role = role.flipped()
            derived[child] = child_role

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
