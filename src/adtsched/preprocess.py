"""Turn a validated attack-defence tree into unit-time attack DAGs.

The scheduler downstream only understands one thing: a DAG whose
unit-duration steps (``SEQ`` nodes) must each get an agent and a time slot,
with every node waiting for all of its children.  Getting there takes four
steps, each exposed on its own because they are useful separately:

1. :func:`apply_defence_config` -- fix the outcome of every countermeasure
   and resolve the tree, bottom-up, to what the attacker still has to do
   (possibly nothing: a winning defence leaves an empty DAG),
2. :func:`enumerate_or_variants` -- on that resolved tree, pick every
   combination of OR choices that achieves the fastest possible
   completion, and build each one's DAG once with the next two steps,
3. :func:`normalize_time` -- split every timed node into a chain of unit
   steps above a zero-duration remnant of the node itself (called on its
   own, it turns the whole unresolved tree into a DAG),
4. :func:`expand_sand` -- rewrite ordered conjunctions into cross-links so
   that each segment waits for the previous one.

:func:`preprocess` runs the whole pipeline over every inequivalent defence
outcome and returns the resulting variants.  Outcomes are merged by the
label sets of their variants before any DAG is built.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from enum import Enum

from .model import (
    Adt,
    COUNTER_KINDS,
    NodeKind,
    Role,
    preorder,
    validate_adt,
)

OPERATING = "operating"
FAILED = "failed"

#: One outcome per defence leaf, label -> OPERATING | FAILED.
DefenceConfig = dict


class AllZeroDurations(ValueError):
    """Every node has duration 0; there is no time unit to normalise by."""


class NonDivisibleDuration(ValueError):
    """A duration is not a multiple of the chosen time unit."""


class NameCollision(ValueError):
    """A generated node name collides with an existing one (e.g. the input
    defines both ``b`` and ``b'``)."""


class InternalError(RuntimeError):
    """An invariant the algorithm relies on failed to hold."""


class DagKind(Enum):
    SEQ = "seq"    # one unit of work
    NULL = "null"  # zero-duration join/ordering point
    AND = "and"
    OR = "or"
    LEAF = "leaf"
    # Transient kinds, only present between pipeline stages:
    SAND = "sand"
    CAND = "cand"
    NODEF = "nodef"
    SCAND = "scand"


_KIND_OF = {
    NodeKind.LEAF: DagKind.LEAF,
    NodeKind.AND: DagKind.AND,
    NodeKind.OR: DagKind.OR,
    NodeKind.SAND: DagKind.SAND,
    NodeKind.CAND: DagKind.CAND,
    NodeKind.NODEF: DagKind.NODEF,
    NodeKind.SCAND: DagKind.SCAND,
}


@dataclass(eq=False, slots=True)
class DagNode:
    """A DAG node.  ``children`` are what the node waits for; ``parents`` is
    kept symmetric at all times.  ``index`` is the creation number and serves
    as the deterministic tie-breaker everywhere downstream.  ``depth``,
    ``level``, ``agent`` and ``slot`` are scratch fields owned by the
    scheduler."""

    name: str
    origin: str
    kind: DagKind
    index: int
    children: list["DagNode"] = field(default_factory=list, repr=False)
    parents: list["DagNode"] = field(default_factory=list, repr=False)
    depth: int = 0
    level: int = 0
    agent: int = 0
    slot: int = 0

    def __repr__(self):
        return "DagNode(%r)" % self.name


class Dag:
    """Node container.  ``nodes`` is in creation order; ``root`` is None for
    the empty DAG (a defence that cannot be beaten).  Names are unique; a
    caller that looks nodes up by name builds its own dict once.
    ``packing_start`` is scheduler scratch, set only while a variant's agent
    count is searched."""

    def __init__(self):
        self.root: DagNode | None = None
        self.nodes: list[DagNode] = []
        self.packing_start: tuple | None = None
        self._names: set[str] = set()
        self._next_index = 0

    def new_node(self, name: str, origin: str, kind: DagKind) -> DagNode:
        if name in self._names:
            raise NameCollision("generated name %r already exists" % name)
        self._names.add(name)
        node = DagNode(name, origin, kind, self._next_index)
        self._next_index += 1
        self.nodes.append(node)
        return node

    @property
    def n(self) -> int:
        """Number of unit steps to be scheduled."""
        return sum(1 for x in self.nodes if x.kind is DagKind.SEQ)


def link(parent: DagNode, child: DagNode) -> None:
    parent.children.append(child)
    child.parents.append(parent)


def reachable(dag: Dag) -> set:
    """All nodes reachable from the root along child edges."""
    seen: set = set()
    if dag.root is None:
        return seen
    stack = [dag.root]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        stack.extend(node.children)
    return seen


def children_first(dag: Dag) -> list[DagNode]:
    """Topological order with every node after all of its children; reverse
    it for parents first."""
    pending = {id(x): len(x.children) for x in dag.nodes}
    queue = [x for x in dag.nodes if not x.children]
    order = []
    while queue:
        node = queue.pop()
        order.append(node)
        for parent in node.parents:
            pending[id(parent)] -= 1
            if pending[id(parent)] == 0:
                queue.append(parent)
    if len(order) != len(dag.nodes):
        raise InternalError("cycle in DAG")
    return order


def copy_dag(dag: Dag, restrict: set | None = None) -> Dag:
    """Independent copy, preserving names, indices and edge order.  With
    ``restrict`` only those nodes are copied (edges into the rest are
    dropped)."""
    out = Dag()
    mapping: dict[int, DagNode] = {}
    for node in dag.nodes:
        if restrict is not None and node not in restrict:
            continue
        twin = DagNode(node.name, node.origin, node.kind, node.index)
        twin.depth, twin.level = node.depth, node.level
        twin.agent, twin.slot = node.agent, node.slot
        out._names.add(twin.name)
        out.nodes.append(twin)
        mapping[id(node)] = twin
    for node in dag.nodes:
        twin = mapping.get(id(node))
        if twin is None:
            continue
        for child in node.children:
            ctwin = mapping.get(id(child))
            if ctwin is not None:
                link(twin, ctwin)
    if dag.root is not None:
        out.root = mapping.get(id(dag.root))
    out._next_index = dag._next_index
    return out


def compute_time_unit(adt: Adt) -> int:
    """Greatest common divisor of all non-zero durations (defence side
    included), i.e. the largest unit every duration is a multiple of."""
    import math

    unit = 0
    for node in adt.nodes.values():
        unit = math.gcd(unit, node.duration)
    if unit == 0:
        raise AllZeroDurations("all durations are zero")
    return unit


def _build(adt: Adt, tunit: int, shape: dict, names: dict) -> Dag:
    """DAG of the part of ``adt`` that ``shape`` (label -> (DagKind,
    children)) reaches from the root.  Every node of duration t becomes a
    chain of t/tunit unit steps ``X_1 .. X_k`` feeding into a zero-duration
    remnant ``X'`` with the shape's kind and children.  Node creation order
    is depth-first over the shape, which fixes all scheduling tie-breaks
    downstream.  ``names`` (label -> (``X'``, [``X_1`` .. ``X_k``])) is
    filled as labels are met, so the DAGs built from one table share their
    name strings."""
    dag = Dag()
    tops: dict[str, DagNode] = {}
    remnants: dict[str, DagNode] = {}
    order, stack = [], [adt.root]
    while stack:
        label = stack.pop()
        order.append(label)
        stack.extend(reversed(shape[label][1]))
    for label in order:
        entry = names.get(label)
        if entry is None:
            duration = adt.nodes[label].duration
            if duration % tunit:
                raise NonDivisibleDuration(
                    "duration %d of %r is not a multiple of %d"
                    % (duration, label, tunit))
            entry = names[label] = (
                label + "'",
                ["%s_%d" % (label, i) for i in range(1, duration // tunit + 1)])
        remnant = dag.new_node(entry[0], label, shape[label][0])
        top = remnant
        for name in entry[1]:
            step = dag.new_node(name, label, DagKind.SEQ)
            link(step, top)
            top = step
        remnants[label] = remnant
        tops[label] = top
    for label in order:
        for child in shape[label][1]:
            link(remnants[label], tops[child])
    dag.root = tops[adt.root]
    return dag


def normalize_time(adt: Adt, tunit: int | None = None) -> Dag:
    """The whole tree, defence subtrees and counter gates included, as a
    DAG: every node of duration t becomes a chain of t/tunit unit steps
    ``X_1 .. X_k`` feeding into a zero-duration remnant ``X'`` that keeps
    the node's kind and original children."""
    if tunit is None:
        tunit = compute_time_unit(adt)
    shape = {label: (_KIND_OF[node.kind], node.children)
             for label, node in adt.nodes.items()}
    return _build(adt, tunit, shape, {})


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
    """
    sands = [x for x in dag.nodes if x.kind is DagKind.SAND]
    for remnant in sorted(sands, key=lambda x: -x.index):
        tops = list(remnant.children)
        if len(tops) == 1:
            remnant.kind = DagKind.NULL
            continue
        k = len(tops)
        leaf_sets = [_subtree_leaves(tops[i]) for i in range(1, k)]
        nulls = [dag.new_node("%s_%d" % (remnant.name, i + 1),
                              remnant.origin, DagKind.NULL)
                 for i in range(k)]
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
        dag._names.discard(remnant.name)
        if dag.root is remnant:
            dag.root = nulls[-1]
    return dag


def defence_leaves(adt: Adt) -> list[str]:
    return [label for label in preorder(adt)
            if adt.nodes[label].kind is NodeKind.LEAF
            and adt.nodes[label].role is Role.DEFENCE]


def defence_roots(adt: Adt) -> list[str]:
    """Roots of the defence subtrees, i.e. second children of counter
    gates, in depth-first order."""
    return [adt.nodes[label].children[1] for label in preorder(adt)
            if adt.nodes[label].kind in COUNTER_KINDS]


def _status(adt: Adt, label: str, config: DefenceConfig) -> str:
    """Outcome of a defence subtree: leaves from ``config``, AND/SAND need
    every child operating, OR needs one."""
    result: dict[str, str] = {}
    stack = [(label, False)]
    while stack:
        cur, done = stack.pop()
        node = adt.nodes[cur]
        if node.kind is NodeKind.LEAF:
            result[cur] = config[cur]
            continue
        if not done:
            stack.append((cur, True))
            stack.extend((c, False) for c in node.children)
            continue
        states = [result[c] for c in node.children]
        if node.kind is NodeKind.OR:
            result[cur] = OPERATING if OPERATING in states else FAILED
        else:
            result[cur] = FAILED if FAILED in states else OPERATING
    return result[label]


def defence_signature(adt: Adt, config: DefenceConfig) -> dict:
    """Status of each defence-subtree root under ``config`` -- the part of a
    configuration the attacker can actually observe."""
    return {root: _status(adt, root, config) for root in defence_roots(adt)}


def enumerate_defence_variants(adt: Adt) -> list[DefenceConfig]:
    """One representative configuration per inequivalent defence outcome.

    Configurations are enumerated over the defence leaves in depth-first
    order, FAILED before OPERATING (so the undefended outcome comes first),
    and two configurations count as equivalent when every defence-subtree
    root has the same status under both.
    """
    leaves = defence_leaves(adt)
    if not leaves:
        return [{}]
    roots = defence_roots(adt)
    out: list[DefenceConfig] = []
    seen: set = set()
    for combo in itertools.product((FAILED, OPERATING), repeat=len(leaves)):
        config = dict(zip(leaves, combo))
        sig = tuple(_status(adt, root, config) for root in roots)
        if sig not in seen:
            seen.add(sig)
            out.append(config)
    return out


def _post(adt: Adt) -> list:
    """``(label, NodeKind, DagKind, children)`` for every attack-side node
    of ``adt`` (defence subtrees are skipped), descendants before
    ancestors: the order :func:`_resolve` reads."""
    out, stack = [], [adt.root]
    while stack:
        label = stack.pop()
        node = adt.nodes[label]
        out.append((label, node.kind, _KIND_OF[node.kind], node.children))
        if node.kind in COUNTER_KINDS:
            stack.append(node.children[0])
        else:
            stack.extend(node.children)
    out.reverse()
    return out


def _resolve(status: dict, post: list) -> dict:
    """label -> (DagKind, children) for every node that can still happen
    when each defence-subtree root has the status ``status`` gives it, by
    the rules of :func:`apply_defence_config`; the root is missing when the
    attack is impossible.  ``post`` is :func:`_post` of the tree."""
    shape: dict = {}
    for label, kind, dag_kind, children in post:
        if not children:
            shape[label] = (dag_kind, children)
        elif kind is NodeKind.OR:
            kids = [c for c in children if c in shape]
            if kids:
                shape[label] = (DagKind.OR, kids)
        elif (kind is NodeKind.CAND or kind is NodeKind.SCAND
              or kind is NodeKind.NODEF):
            action, counter = children
            nodef = kind is NodeKind.NODEF
            if nodef and status[counter] == FAILED:
                shape[label] = (DagKind.NULL, [])  # action unnecessary
            elif action in shape and (nodef or status[counter] == FAILED):
                shape[label] = (DagKind.NULL, [action])
        elif all(c in shape for c in children):
            shape[label] = (dag_kind, children)
    return shape


def apply_defence_config(adt: Adt, config: DefenceConfig) -> Dag:
    """The attacker's remaining work under ``config``, time-normalised and
    SAND-expanded; empty when some operating defence makes the root
    impossible.

    The tree is resolved bottom-up: an OR keeps the children that are still
    possible, AND and SAND need all of theirs.  A CAND or SCAND needs its
    countermeasure to fail; a NODEF needs its action only while the
    countermeasure operates (a failed one makes the action unnecessary).
    Defence subtrees never enter the DAG; each resolved counter gate stays
    as a zero-duration join over its action, or over nothing.
    """
    shape = _resolve(defence_signature(adt, config), _post(adt))
    if adt.root not in shape:
        return Dag()
    return expand_sand(_build(adt, compute_time_unit(adt), shape, {}))


def canonical_form(dag: Dag) -> str:
    """Structure digest: equal for DAGs that differ only in child order or
    node identity.  The pipeline compares variants by their label sets
    instead (see :func:`preprocess_cases`)."""
    if dag.root is None:
        return "empty"
    digest: dict[int, str] = {}
    opened: set = set()
    stack = [(dag.root, False)]
    while stack:
        node, done = stack.pop()
        if id(node) in digest:
            continue
        if not done:
            if id(node) in opened:
                continue
            opened.add(id(node))
            stack.append((node, True))
            stack.extend((c, False) for c in node.children)
            continue
        parts = sorted(digest[id(c)] for c in node.children)
        text = "%s|%s|%s" % (node.kind.value, node.origin, ",".join(parts))
        digest[id(node)] = hashlib.sha256(text.encode()).hexdigest()
    return digest[id(dag.root)]


@dataclass
class Variant:
    """One fully determined DAG: a defence outcome plus one choice per OR."""

    defences: DefenceConfig
    signature: dict
    or_choices: dict
    dag: Dag
    feasible: bool


@dataclass
class Case:
    """All variants sharing one defence outcome; ``merged_signatures`` lists
    the outcome signatures that turned out indistinguishable."""

    signature: dict
    merged_signatures: list
    config: DefenceConfig
    variants: list


class _Tree:
    """What every defence outcome of one tree shares: the resolution order,
    the defence-subtree roots, the time unit, each node's duration in unit
    steps, and one table of generated names for all of its DAGs."""

    def __init__(self, adt: Adt):
        self.adt = adt
        self.post = _post(adt)
        self.roots = defence_roots(adt)
        self.tunit = compute_time_unit(adt)
        self.weight = {label: node.duration // self.tunit
                       for label, node in adt.nodes.items()}
        self.names: dict = {}

    def outcome(self, config: DefenceConfig) -> _Outcome:
        """Resolve the tree under ``config`` and pick its OR selections."""
        adt = self.adt
        signature = {root: _status(adt, root, config) for root in self.roots}
        shape = _resolve(signature, self.post)
        selections = []
        if adt.root in shape:
            selections = _or_selections(shape, adt.root, self.weight)
        return _Outcome(self, signature, selections)


@dataclass
class _Outcome:
    """One defence outcome, resolved and OR-walked but not built.
    ``selections`` holds ``(or_choices, variant shape)`` per time-optimal
    OR selection and is empty when the attack is impossible."""

    tree: _Tree
    signature: dict
    selections: list

    def fingerprint(self) -> frozenset:
        """The label sets of the variants.  Within one tree a label set
        fixes the variant's resolved shape and so its DAG, and different
        label sets give DAGs with different node origins, so two outcomes
        leave the same variants exactly when their fingerprints agree."""
        return frozenset(frozenset(shape) for _, shape in self.selections)


def _or_selections(shape: dict, root: str, weight: dict) -> list:
    """``(or_choices, variant shape)`` for every combination of OR choices
    on the resolved tree ``shape`` whose completion time equals the best
    achievable one, in the order they are found.

    Completion time is the weighted critical path: a node adds its
    ``weight`` in unit steps to the time of its children, which AND and
    counter gates take the maximum of, SAND the sum, and an OR its chosen
    child's or else its fastest child's.  The next gate to choose is the
    first reachable unchosen OR in preorder (its DAG remnant has the
    smallest creation index), and its children are tried in order; a
    partial choice that already makes the root slower than the best is
    abandoned.  In a variant shape each chosen OR keeps only its chosen
    child, and only the nodes reachable from the root are listed.
    """
    post, stack = [], [root]
    while stack:
        label = stack.pop()
        post.append(label)
        stack.extend(reversed(shape[label][1]))
    post.reverse()

    def completion(choices):
        time: dict = {}
        for label in post:
            kind, kids = shape[label]
            if not kids:
                t = 0
            elif kind is DagKind.OR:
                chosen = choices.get(label)
                t = (time[chosen] if chosen is not None
                     else min(time[c] for c in kids))
            elif kind is DagKind.SAND:
                t = sum(time[c] for c in kids)
            else:
                t = max(time[c] for c in kids)
            time[label] = t + weight[label]
        return time[root]

    def first_open(choices):
        """The first reachable unchosen OR, or None and every reachable
        label in preorder."""
        seen, stack = [], [root]
        while stack:
            label = stack.pop()
            kind, kids = shape[label]
            if kind is DagKind.OR:
                chosen = choices.get(label)
                if chosen is None:
                    return label, seen
                stack.append(chosen)
            else:
                stack.extend(reversed(kids))
            seen.append(label)
        return None, seen

    best = completion({})
    out: list = []
    choices: dict = {}

    def walk():
        if completion(choices) > best:
            return  # already slower than the best, no choice can fix it
        gate, seen = first_open(choices)
        if gate is None:
            variant = {label: shape[label] for label in seen}
            for chosen_gate, child in choices.items():
                variant[chosen_gate] = (DagKind.OR, [child])
            out.append((dict(choices), variant))
            return
        for child in shape[gate][1]:
            choices[gate] = child
            walk()
        del choices[gate]

    walk()
    return out


def enumerate_or_variants(adt: Adt, config: DefenceConfig) -> list[Variant]:
    """One variant per combination of OR choices that achieves the fastest
    possible completion under ``config``, each with its own DAG built once
    from the resolved tree; distinct choices always leave distinct DAGs.
    An impossible attack gives the single infeasible variant."""
    return _variants(config, _Tree(adt).outcome(config))


def _variants(config: DefenceConfig, outcome: _Outcome) -> list[Variant]:
    """Build the variants of ``outcome``, the resolved and walked outcome
    of ``config``."""
    signature = outcome.signature
    if not outcome.selections:
        return [Variant(config, signature, {}, Dag(), False)]
    tree = outcome.tree
    return [Variant(config, signature, choices,
                    expand_sand(_build(tree.adt, tree.tunit, shape,
                                       tree.names)),
                    True)
            for choices, shape in outcome.selections]


def preprocess_cases(adt: Adt) -> list[Case]:
    """Full pipeline, grouped by defence outcome.  Outcomes that leave the
    same variants are merged into one case before any DAG is built."""
    problems = validate_adt(adt)
    if problems:
        raise ValueError("invalid tree: %s" % problems[0].message)
    tree = _Tree(adt)
    cases: list[Case] = []
    by_fingerprint: dict = {}
    for config in enumerate_defence_variants(adt):
        outcome = tree.outcome(config)
        fingerprint = outcome.fingerprint()
        known = by_fingerprint.get(fingerprint)
        if known is not None:
            known.merged_signatures.append(outcome.signature)
            continue
        variants = _variants(config, outcome)
        case = Case(outcome.signature, [outcome.signature], config, variants)
        cases.append(case)
        by_fingerprint[fingerprint] = case
    return cases


def preprocess(adt: Adt) -> list[Variant]:
    """Validated tree in, schedulable DAG variants out (flat list)."""
    return [v for case in preprocess_cases(adt) for v in case.variants]
