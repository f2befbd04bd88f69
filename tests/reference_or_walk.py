"""The DAG-level OR walk that the tree-level ``enumerate_or_variants``
replaced.

Kept as a differential oracle: it walks the time-expanded DAG of one
defence outcome (``apply_defence_config``, in its unit-step view), recomputing the root's depth
and the reachable set after every choice, copies each time-optimal
selection out of that DAG, cuts the unchosen OR branches and drops
structural duplicates by ``canonical_form``.  The tree-level walk must
yield the same selections, in the same order, with the same DAGs.
:func:`reachable` serves the tests that check DAGs for stranded nodes.
"""

from adtsched.preprocess import (
    DagKind,
    apply_defence_config,
    canonical_form,
    children_first,
    copy_dag,
    unit_dag,
)


def _depth_with_choices(dag, order, choices):
    """Root completion time when each chosen OR takes its chosen child and
    every other OR takes its fastest one.  ``order`` is
    ``children_first`` of ``dag``."""
    depth = {}
    for node in order:
        if not node.children:
            depth[id(node)] = 0
        elif node.kind is DagKind.SEQ:
            depth[id(node)] = depth[id(node.children[0])] + 1
        elif node.kind is DagKind.OR:
            chosen = choices.get(id(node))
            if chosen is not None:
                depth[id(node)] = depth[id(chosen)]
            else:
                depth[id(node)] = min(depth[id(c)] for c in node.children)
        else:
            depth[id(node)] = max(depth[id(c)] for c in node.children)
    return depth[id(dag.root)]


def _reachable_with_choices(dag, choices):
    seen = set()
    stack = [dag.root]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node.kind is DagKind.OR and id(node) in choices:
            stack.append(choices[id(node)])
        else:
            stack.extend(node.children)
    return seen


def reachable(dag):
    """All nodes reachable from the root along child edges."""
    if dag.root is None:
        return set()
    return _reachable_with_choices(dag, {})


def _unlink(parent, child):
    parent.children.remove(child)
    child.parents.remove(parent)


def reference_or_variants(adt, config):
    """``(or_choices, dag)`` for every time-optimal OR selection of the
    outcome ``config``; ``[({}, empty dag)]`` when the attack is
    impossible.  Walks the unit-step view of the outcome's DAG."""
    dag = unit_dag(apply_defence_config(adt, config))
    if dag.root is None:
        return [({}, dag)]
    order = children_first(dag)
    cp_min = _depth_with_choices(dag, order, {})
    kept = []

    choices = {}
    choice_nodes = {}

    def walk():
        depth = _depth_with_choices(dag, order, choices)
        if depth > cp_min:
            return
        seen = _reachable_with_choices(dag, choices)
        open_ors = [x for x in seen
                    if x.kind is DagKind.OR and id(x) not in choices]
        if not open_ors:
            if depth == cp_min:
                kept.append(dict(choices))
            return
        gate = min(open_ors, key=lambda x: x.index)
        choice_nodes[id(gate)] = gate
        for child in gate.children:
            choices[id(gate)] = child
            walk()
        del choices[id(gate)]

    walk()

    out = []
    digests = set()
    for chosen in kept:
        seen = _reachable_with_choices(dag, chosen)
        # a later choice can cut off an OR chosen earlier
        chosen = {key: child for key, child in chosen.items()
                  if choice_nodes[key] in seen}
        vdag = copy_dag(dag, restrict=seen)
        by_name = {x.name: x for x in vdag.nodes}
        for key, child in chosen.items():
            gate = by_name[choice_nodes[key].name]
            for other in list(gate.children):
                if other.name != child.name:
                    _unlink(gate, other)
        if len(kept) > 1:
            digest = canonical_form(vdag)
            if digest in digests:
                continue
            digests.add(digest)
        or_map = {choice_nodes[key].origin: child.origin
                  for key, child in chosen.items()}
        out.append((or_map, vdag))
    return out
