"""The SAND expansion that the one-walk ``expand_sand`` replaced: each
remnant, innermost first, re-walks its later segments for their childless
nodes, then splices its links in with list surgery.

Kept verbatim as a differential oracle: ``expand_sand`` must leave the same
nodes, fields, edge order, root and next index, and raise the same
``NameCollision``.
"""

from adtsched.preprocess import Dag, DagKind, DagNode, NameCollision, link


def _subtree_leaves(top: DagNode) -> list[DagNode]:
    """Childless nodes reachable from ``top``, in first-visit order."""
    out, seen, stack = [], set(), [top]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if not node.children:
            out.append(node)
        else:
            stack.extend(reversed(node.children))
    return out


def expand_sand(dag: Dag) -> Dag:
    """Replace every ordered-conjunction remnant with zero-duration links
    that force its child subtrees to run one after another.

    For segments T_1 .. T_k a link node ``X'_i`` is placed below T_i and
    above nothing -- instead every leaf of T_{i+1} gains ``X'_i`` as an extra
    child, so no step of T_{i+1} can start before all of T_i is done.
    ``X'_k`` takes over the remnant's parents.  A single-segment remnant
    simply turns into a join point.  Inner remnants are expanded before the
    ones enclosing them, so leaf sets are final when read.

    Raises :class:`NameCollision` when a link name is taken.  Only the unit
    steps of a label named ``X'`` can take it, so the check runs against the
    names the DAG had before its first expansion.  Those include the name
    of each chain's first step, and the links are numbered from 1 too, so
    a timed ``X'`` clashes at ``X'_1`` already.
    """
    sands = [x for x in dag.nodes if x.kind is DagKind.SAND]
    taken: set | None = None
    for remnant in sorted(sands, key=lambda x: -x.index):
        tops = list(remnant.children)
        if len(tops) == 1:
            remnant.kind = DagKind.NULL
            continue
        k = len(tops)
        if taken is None:
            taken = {x.name for x in dag.nodes}
        names = ["%s_%d" % (remnant.name, i + 1) for i in range(k)]
        for name in names:
            if name in taken:
                raise NameCollision("generated name %r already exists" % name)
        leaf_sets = [_subtree_leaves(tops[i]) for i in range(1, k)]
        nulls = [dag.new_node(name, remnant.origin, DagKind.NULL)
                 for name in names]
        for i in range(k):
            link(nulls[i], tops[i])
        for i in range(k - 1):
            for leaf in leaf_sets[i]:
                link(leaf, nulls[i])
        for parent in list(remnant.parents):
            # keep the child position: counter gates rely on child order
            pos = parent.children.index(remnant)
            parent.children[pos] = nulls[-1]
            nulls[-1].parents.append(parent)
        remnant.parents = []
        for top in tops:
            top.parents.remove(remnant)
        remnant.children = []
        dag.nodes.remove(remnant)
        if dag.root is remnant:
            dag.root = nulls[-1]
    dag._order = None
    return dag
