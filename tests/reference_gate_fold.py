"""The defence resolution that folded each gate's children one at a time
into growing partial key tuples, keeping the smallest status tuple per
partial key at every step.

Kept verbatim as a differential oracle, with ``self`` turned into the
``tree`` argument: :meth:`adtsched.preprocess._Tree.resolve` must map the
same resolved trees (compared by :meth:`_Tree.shape`, since key numbers
may be handed out in another order) to the same smallest tuples.
"""

from adtsched.preprocess import FAILED, DagKind, NodeKind, _Tree


def _keep(entries: dict, key, statuses: tuple) -> None:
    """Record that ``statuses`` produce ``key`` unless smaller ones do."""
    known = entries.get(key)
    if known is None or statuses < known:
        entries[key] = statuses


def resolve(tree: _Tree, statuses: dict) -> dict:
    """Every distinct resolved tree that the defence outcomes allowed by
    ``statuses`` (defence root -> the statuses it may take) leave, as
    its root's key, mapped to the smallest tuple of root statuses in
    block order that leaves it; key None: the attack is impossible.

    One pass over the attack side, children first, gives each node such
    a map of its own.  A leaf has one entry.  A counter gate pairs each
    entry of its action with each status of its countermeasure, and
    appends that status: a CAND or SCAND needs a failed countermeasure
    and a possible action, and a NODEF needs its action only while the
    countermeasure operates.  AND and SAND combine their children left
    to right, and an impossible child makes them impossible; an OR
    keeps its possible children and is impossible without any.  Every
    combination keeps the smaller tuple per resulting key, and tuples
    compare FAILED first, since "failed" < "operating"."""
    entries: dict = {}
    key = tree.key
    for label, kind, dag_kind, children in tree.attack:
        if not children:
            entries[label] = {key(label, dag_kind, ()): ()}
            continue
        out: dict = {}
        if (kind is NodeKind.CAND or kind is NodeKind.SCAND
                or kind is NodeKind.NODEF):  # no Enum hash, as above
            action, counter = children
            nodef = kind is NodeKind.NODEF
            for kept, done in entries.pop(action).items():
                for status in statuses[counter]:
                    if nodef and status == FAILED:
                        new = key(label, DagKind.NULL, ())
                    elif kept is not None and (nodef or status == FAILED):
                        new = key(label, DagKind.NULL, (kept,))
                    else:
                        new = None
                    _keep(out, new, done + (status,))
            entries[label] = out
            continue
        either = kind is NodeKind.OR
        combos = {(): ()}  # children's keys so far, None: impossible
        for child in children:
            folded: dict = {}
            for kept, more in entries.pop(child).items():
                for kids, done in combos.items():
                    if kept is None:
                        kids = kids if either else None
                    elif kids is not None:
                        kids += (kept,)
                    _keep(folded, kids, done + more)
            combos = folded
        for kids, done in combos.items():
            _keep(out, key(label, dag_kind, kids) if kids else None, done)
        entries[label] = out
    return entries[tree.adt.root]
