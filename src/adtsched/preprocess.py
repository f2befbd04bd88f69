"""Turn a validated attack-defence tree into unit-time attack DAGs.

The scheduler downstream only understands one thing: a DAG whose
unit-duration steps (``SEQ`` nodes) must each get an agent and a time slot,
with every node waiting for all of its children.  Getting there takes four
steps, each exposed on its own because they are useful separately:

1. :func:`normalize_time` -- split every timed node into a chain of unit
   steps above a zero-duration remnant of the node itself,
2. :func:`expand_sand` -- rewrite ordered conjunctions into cross-links so
   that each segment waits for the previous one,
3. :func:`apply_defence_config` -- fix the outcome of every countermeasure
   and cut the tree down to what the attacker still has to do (possibly
   nothing: a winning defence leaves an empty DAG),
4. :func:`enumerate_or_variants` -- materialise one DAG per combination of
   OR choices that achieves the fastest possible completion.

:func:`preprocess` runs the whole pipeline over every inequivalent defence
outcome and returns the resulting variants.
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


def unlink(parent: DagNode, child: DagNode) -> None:
    parent.children.remove(child)
    child.parents.remove(parent)


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


def normalize_time(adt: Adt, tunit: int | None = None) -> Dag:
    """Expand every node of duration t into a chain of t/tunit unit steps
    ``X_1 .. X_k`` feeding into a zero-duration remnant ``X'`` that keeps the
    node's kind and original children.  Zero-duration nodes just become their
    remnant.  Node creation order is depth-first over the tree, which fixes
    all scheduling tie-breaks downstream.
    """
    if tunit is None:
        tunit = compute_time_unit(adt)
    dag = Dag()
    tops: dict[str, DagNode] = {}
    remnants: dict[str, DagNode] = {}
    order = preorder(adt)
    for label in order:
        node = adt.nodes[label]
        if node.duration % tunit:
            raise NonDivisibleDuration(
                "duration %d of %r is not a multiple of %d"
                % (node.duration, label, tunit))
        remnant = dag.new_node(label + "'", label, _KIND_OF[node.kind])
        top = remnant
        for i in range(1, node.duration // tunit + 1):
            step = dag.new_node("%s_%d" % (label, i), label, DagKind.SEQ)
            link(step, top)
            top = step
        remnants[label] = remnant
        tops[label] = top
    for label in order:
        for child in adt.nodes[label].children:
            link(remnants[label], tops[child])
    dag.root = tops[adt.root]
    return dag


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


def _prune_unreachable(dag: Dag) -> set:
    """Drop every node the root no longer reaches; returns the rest."""
    keep = reachable(dag)
    if len(keep) == len(dag.nodes):
        return keep  # reachable nodes are a subset of dag.nodes: all kept
    if not keep:
        dag.root = None
        dag.nodes = []
        dag._names = set()
        return keep
    for node in dag.nodes:
        if node in keep:
            node.parents = [p for p in node.parents if p in keep]
            node.children = [c for c in node.children if c in keep]
    dag.nodes = [x for x in dag.nodes if x in keep]
    dag._names = {x.name for x in dag.nodes}
    return keep


def _fail(dag: Dag, start: DagNode, failed: set) -> None:
    """A node cannot happen: its parents cannot either, except an OR parent,
    which just loses the branch (and fails only once it has lost them all)."""
    stack = [start]
    while stack:
        node = stack.pop()
        if node in failed:
            continue
        failed.add(node)
        for parent in list(node.parents):
            if parent in failed:
                continue
            if parent.kind is DagKind.OR:
                unlink(parent, node)
                if not parent.children:
                    stack.append(parent)
            else:
                stack.append(parent)


def _reattach_orphans(dag: Dag, gate: DagNode, deleted: set) -> None:
    """Deleting a subtree can strand ordering links whose parents all lived
    inside it but whose own segment is still required (they sit *between*
    two segments of an enclosing ordered conjunction).  Re-parent those
    under the gate's replacement join point so the earlier segments stay in
    the DAG.  ``deleted`` is the set of tree labels that were cut."""
    while True:
        alive = reachable(dag)
        orphans = [x for x in dag.nodes
                   if x not in alive
                   and x.kind is DagKind.NULL
                   and x.origin not in deleted]
        if not orphans:
            return
        for orphan in sorted(orphans, key=lambda x: x.index):
            link(gate, orphan)


def apply_defence_config(dag: Dag, config: DefenceConfig, adt: Adt) -> Dag:
    """Resolve every countermeasure under ``config`` and reduce ``dag`` to
    the attacker's remaining work.  Mutates and returns ``dag``; the result
    is empty when some operating defence makes the root impossible.

    Per counter gate (innermost first): a failed countermeasure leaves the
    action needed (the defence subtree is dropped); an operating one kills
    the action for CAND/SCAND -- the failure climbs until an OR can switch
    branches -- while for NODEF it makes the action *unnecessary* (both
    subtrees are dropped and only a zero-duration trace of the gate stays).
    """
    postorder = [label for label in reversed(preorder(adt))
                 if adt.nodes[label].kind in COUNTER_KINDS]
    # reversed preorder is not postorder, but it does visit descendants
    # before ancestors, which is all the resolution order needs
    by_name = {x.name: x for x in dag.nodes}
    alive = _prune_unreachable(dag)
    failed: set = set()
    for label in postorder:
        remnant = by_name.get(label + "'")
        if remnant not in alive or remnant in failed:
            continue
        defence_root = adt.nodes[label].children[1]
        status = _status(adt, defence_root, config)
        attack_top, defence_top = remnant.children[0], remnant.children[1]

        if remnant.kind is DagKind.NODEF:
            if status == FAILED:
                unlink(remnant, defence_top)
                unlink(remnant, attack_top)
                remnant.kind = DagKind.NULL
                deleted = set(preorder(adt, adt.nodes[label].children[0]))
                deleted |= set(preorder(adt, defence_root))
                _reattach_orphans(dag, remnant, deleted)
            else:
                unlink(remnant, defence_top)
                remnant.kind = DagKind.NULL
                _reattach_orphans(dag, remnant,
                                  set(preorder(adt, defence_root)))
        else:  # CAND / SCAND
            if status == FAILED:
                unlink(remnant, defence_top)
                remnant.kind = DagKind.NULL
                _reattach_orphans(dag, remnant,
                                  set(preorder(adt, defence_root)))
            else:
                _fail(dag, remnant, failed)
                if dag.root in failed:
                    dag.root = None
                    dag.nodes = []
                    dag._names = set()
                    return dag
        alive = _prune_unreachable(dag)
    return dag


def canonical_form(dag: Dag) -> str:
    """Structure digest: equal for DAGs that differ only in child order or
    node identity.  Used to merge equivalent defence outcomes and duplicate
    OR variants."""
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


def _depth_with_choices(dag: Dag, order: list, choices: dict) -> int:
    """Root completion time when each chosen OR takes its chosen child and
    every other OR takes its fastest one.  ``order`` is
    :func:`children_first` of ``dag``."""
    depth: dict[int, int] = {}
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


def _reachable_with_choices(dag: Dag, choices: dict) -> set:
    seen: set = set()
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


def enumerate_or_variants(dag: Dag) -> list[Variant]:
    """All combinations of OR choices whose completion time equals the best
    achievable one, each materialised as an independent DAG.  Structural
    duplicates are dropped.  An empty input produces the single infeasible
    variant."""
    if dag.root is None:
        return [Variant({}, {}, {}, dag, False)]
    order = children_first(dag)
    cp_min = _depth_with_choices(dag, order, {})
    kept: list[dict] = []

    choices: dict = {}
    choice_nodes: dict = {}

    def walk():
        depth = _depth_with_choices(dag, order, choices)
        if depth > cp_min:
            return  # already slower than the best, no choice can fix it
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

    variants: list[Variant] = []
    digests: set = set()
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
                    unlink(gate, other)
        if len(kept) > 1:
            digest = canonical_form(vdag)
            if digest in digests:
                continue
            digests.add(digest)
        or_map = {choice_nodes[key].origin: child.origin
                  for key, child in chosen.items()}
        variants.append(Variant({}, {}, or_map, vdag, True))
    return variants


def preprocess_cases(adt: Adt) -> list[Case]:
    """Full pipeline, grouped by defence outcome.  Outcomes whose final
    variant sets are structurally identical are merged into one case."""
    problems = validate_adt(adt)
    if problems:
        raise ValueError("invalid tree: %s" % problems[0].message)
    tunit = compute_time_unit(adt)
    base = expand_sand(normalize_time(adt, tunit))
    configs = enumerate_defence_variants(adt)
    cases: list[Case] = []
    by_digest: dict = {}
    for config in configs:
        sig = defence_signature(adt, config)
        dag = apply_defence_config(copy_dag(base), config, adt)
        variants = enumerate_or_variants(dag)
        for variant in variants:
            variant.defences = config
            variant.signature = sig
        if len(configs) > 1:
            fingerprint = frozenset(canonical_form(v.dag) for v in variants)
            known = by_digest.get(fingerprint)
            if known is not None:
                known.merged_signatures.append(sig)
                continue
        case = Case(sig, [sig], config, variants)
        cases.append(case)
        if len(configs) > 1:
            by_digest[fingerprint] = case
    return cases


def preprocess(adt: Adt) -> list[Variant]:
    """Validated tree in, schedulable DAG variants out (flat list)."""
    return [v for case in preprocess_cases(adt) for v in case.variants]
