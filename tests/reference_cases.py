"""The per-configuration case search that the one-pass resolution replaced.

Kept as a differential oracle: it enumerates every configuration of the
defence leaves, FAILED before OPERATING, keeps the first configuration of
each defence outcome, resolves the attack side once per outcome
(:func:`reference_resolve`), walks its OR selections and merges the
outcomes whose selections keep the same tree nodes.  ``preprocess_cases``
must find the same cases, in the same order, with the same signatures,
merged signatures, configurations and variants.
"""

import itertools

from adtsched.preprocess import (
    FAILED,
    OPERATING,
    DagKind,
    NodeKind,
    _build,
    _or_selections,
    _sides,
    _signature,
    compute_time_unit,
    expand_sand,
)


def reference_defence_variants(adt):
    """First configuration of each outcome, over the 2^(defence leaves)
    configurations in depth-first leaf order, FAILED before OPERATING."""
    _, defence, roots = _sides(adt)
    leaves = [x[0] for x in reversed(defence) if x[1] is NodeKind.LEAF]
    out, seen = [], set()
    for combo in itertools.product((FAILED, OPERATING), repeat=len(leaves)):
        config = dict(zip(leaves, combo))
        sig = tuple(_signature(defence, roots, config).values())
        if sig not in seen:
            seen.add(sig)
            out.append(config)
    return out


def reference_resolve(status, attack):
    """label -> (DagKind, children) for every attack node that can still
    happen when each defence root has the status ``status`` gives it; the
    root is missing when the attack is impossible."""
    shape = {}
    for label, kind, dag_kind, children in attack:
        if not children:
            shape[label] = (dag_kind, children)
        elif kind is NodeKind.OR:
            kids = [c for c in children if c in shape]
            if kids:
                shape[label] = (DagKind.OR, kids)
        elif kind in (NodeKind.CAND, NodeKind.SCAND, NodeKind.NODEF):
            action, counter = children
            nodef = kind is NodeKind.NODEF
            if nodef and status[counter] == FAILED:
                shape[label] = (DagKind.NULL, [])  # action unnecessary
            elif action in shape and (nodef or status[counter] == FAILED):
                shape[label] = (DagKind.NULL, [action])
        elif all(c in shape for c in children):
            shape[label] = (dag_kind, children)
    return shape


def reference_cases(adt, all_variants=True):
    """The cases of ``adt`` as dicts with ``signature``,
    ``merged_signatures``, ``config`` and ``variants``, a
    list of ``(or_choices, DAG node names)``; an impossible attack has the
    single variant ``({}, [])``."""
    attack, defence, roots = _sides(adt)
    tunit = compute_time_unit(adt)
    weight = {label: node.duration // tunit
              for label, node in adt.nodes.items()}
    clash = any(node.kind is NodeKind.SAND and label + "'" in adt.nodes
                for label, node in adt.nodes.items())
    classes = not all_variants and not clash
    cases, by_labels = [], {}
    for config in reference_defence_variants(adt):
        signature = _signature(defence, roots, config)
        shape = reference_resolve(signature, attack)
        selections, labels = _or_selections(
            shape, adt.root, weight, classes)
        known = by_labels.get(labels)
        if known is not None:
            known["merged_signatures"].append(signature)
            continue
        variants = [(choices, [x.name for x in expand_sand(
                        _build(variant, adt.root, weight)).nodes])
                    for choices, variant in selections] or [({}, [])]
        case = {"signature": signature, "merged_signatures": [signature],
                "config": config, "variants": variants}
        cases.append(case)
        by_labels[labels] = case
    return cases
