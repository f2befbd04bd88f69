"""Turn a validated attack-defence tree into unit-time attack DAGs.

The scheduler downstream only understands one thing: a DAG whose
unit-duration steps must each get an agent and a time slot, with every node
waiting for all of its children.  The steps of one action form a chain,
kept as one ``SEQ`` node whose ``weight`` is its number of steps; the steps
themselves exist only by arithmetic (:class:`DagNode`), and
:func:`unit_dag` spells them out where a node per step is wanted.
:func:`preprocess_cases` splits one preorder of the tree into its attack
side and its defence subtrees, then

1. resolves the attack side in one bottom-up pass to what the attacker
   still has to do (possibly nothing) under every outcome of the defence
   subtrees at once: each node keeps its distinct resolved shapes, each
   with the first outcome that leaves it (:meth:`_Tree.resolve`), so the
   work follows the distinct shapes, not the 2^(defence leaves)
   configurations,
2. picks, for each distinct resolved tree, every combination of OR
   choices that finishes the attack fastest, in three passes
   (:func:`_or_selections`), and merges trees that keep the same tree
   nodes into one case; on request it keeps one selection per class of
   selections whose DAGs match node for node, up to labels,
3. builds each case's variants once, each in one pass over its shape in
   preorder (:func:`_build`): every timed node becomes one chain node,
   weighted by its number of unit steps, above a zero-duration remnant,
   and :func:`expand_sand` rewrites ordered conjunctions into
   cross-links.

The stages also stand alone: :func:`apply_defence_config` builds one
outcome's DAG, :func:`enumerate_or_variants` one outcome's variants and
:func:`normalize_time` the whole unresolved tree.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum

from .model import (
    Adt,
    COUNTER_KINDS,
    NodeKind,
    preorder,
    validate_adt,
)

OPERATING = "operating"
FAILED = "failed"

#: One outcome per defence leaf, label -> OPERATING | FAILED.
DefenceConfig = dict


class AllZeroDurations(ValueError):
    """Every node has duration 0; there is no time unit to normalise by."""


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


class DagNode:
    """A DAG node.  ``children`` are what the node waits for; ``parents`` is
    kept symmetric at all times.  ``index`` is the creation number and serves
    as the deterministic tie-breaker everywhere downstream.

    A ``SEQ`` node is a chain of ``weight`` unit steps ``X_1 .. X_w``, first
    to last, carrying the name of ``X_1``; the step ``X_j`` has index
    ``index + j - 1`` and exists only by that arithmetic (see
    :func:`step_name` and :func:`unit_dag`).  Every other node takes no time
    and has weight 0.

    ``depth``, ``level``, ``agent``, ``slot`` and ``runs`` are scratch fields
    owned by the scheduler.  On a chain, ``depth`` and ``level`` are those of
    its last step ``X_w``, the one its parents wait for.  ``agent`` and
    ``slot`` hold a zero-duration node's cell, and on a chain the cell of
    its earliest placed step.  A chain's ``runs`` lists its placement as
    ``(agent, first slot, length)`` runs, in ascending slots; it is left
    empty when the chain ran whole on ``agent`` from ``slot`` on."""

    __slots__ = ("name", "origin", "kind", "index", "weight", "children",
                 "parents", "depth", "level", "agent", "slot", "runs")

    def __init__(self, name: str, origin: str, kind: DagKind, index: int,
                 weight: int = 0, children: list | None = None,
                 parents: list | None = None, depth: int = 0, level: int = 0,
                 agent: int = 0, slot: int = 0, runs: tuple = ()):
        self.name = name
        self.origin = origin
        self.kind = kind
        self.index = index
        self.weight = weight
        self.children = [] if children is None else children
        self.parents = [] if parents is None else parents
        self.depth = depth
        self.level = level
        self.agent = agent
        self.slot = slot
        self.runs = runs

    def __repr__(self):
        return "DagNode(%r)" % self.name


class Dag:
    """Node container.  ``nodes`` is in creation order, so ascending by
    ``index``; ``root`` is None for the empty DAG (a defence that cannot be
    beaten).  Names, step names included, are unique: :func:`expand_sand`
    checks the only names that can clash; a caller that looks nodes up by
    name builds its own dict once.  The topological order of
    :func:`children_first` is kept until a node is added."""

    def __init__(self):
        self.root: DagNode | None = None
        self.nodes: list[DagNode] = []
        self._next_index = 0
        self._order: list[DagNode] | None = None

    def new_node(self, name: str, origin: str, kind: DagKind,
                 weight: int = 0) -> DagNode:
        """A node with the next free index; a chain reserves one index per
        step."""
        node = DagNode(name, origin, kind, self._next_index, weight)
        self._next_index += max(weight, 1)
        self.nodes.append(node)
        self._order = None
        return node

    @property
    def n(self) -> int:
        """Number of unit steps to be scheduled."""
        return sum(x.weight for x in self.nodes)


def step_name(node: DagNode, j: int) -> str:
    """Name of the ``j``-th unit step of the chain ``node``."""
    return node.name if j == 1 else "%s_%d" % (node.origin, j)


def step_names(node: DagNode) -> list[str]:
    """Names of the unit steps ``X_1 … X_w`` of the chain ``node``."""
    prefix = node.origin + "_"
    names = [prefix + str(j) for j in range(1, node.weight + 1)]
    names[0] = node.name
    return names


def node_runs(node: DagNode) -> tuple:
    """The placement of ``node`` as ``(agent, first slot, length)`` runs in
    ascending slots: one run of length 0 for a zero-duration node, nothing
    for a node not placed.  A chain's runs end with its last step ``X_w``;
    steps missing below them are unplaced."""
    if node.runs:
        return node.runs
    if not node.slot:
        return ()
    return ((node.agent, node.slot, node.weight),)


def link(parent: DagNode, child: DagNode) -> None:
    parent.children.append(child)
    child.parents.append(parent)


def children_first(dag: Dag) -> list[DagNode]:
    """Topological order with every node after all of its children; reverse
    it for parents first.  Computed once per DAG and kept on it."""
    if dag._order is not None:
        return dag._order
    pending = {}  # node index -> children not yet ordered
    order = []
    for node in dag.nodes:
        if node.children:
            pending[node.index] = len(node.children)
        else:
            order.append(node)
    for node in order:  # also visits the parents appended on the way
        for parent in node.parents:
            pending[parent.index] -= 1
            if not pending[parent.index]:
                order.append(parent)
    if len(order) != len(dag.nodes):
        raise InternalError("cycle in DAG")
    dag._order = order
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
        twin = DagNode(node.name, node.origin, node.kind, node.index,
                       node.weight)
        twin.depth, twin.level = node.depth, node.level
        twin.agent, twin.slot, twin.runs = node.agent, node.slot, node.runs
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


def unit_dag(dag: Dag) -> Dag:
    """The unit-step view of ``dag``: every chain of weight w becomes the w
    nodes ``X_1 .. X_w`` of weight 1, each waiting for the one before, with
    the indices, depths, levels and cells (agent, slot; 0 when unplaced)
    its steps have by arithmetic.  Zero-duration nodes are copied, and
    edge order is kept.  For DOT export and for checks against the
    unit-step algorithms."""
    out = Dag()
    bottom: dict[int, DagNode] = {}  # node id -> its X_1, or its copy
    top: dict[int, DagNode] = {}     # node id -> its X_w, or its copy
    for node in dag.nodes:
        if not node.weight:
            twin = DagNode(node.name, node.origin, node.kind, node.index)
            twin.depth, twin.level = node.depth, node.level
            twin.agent, twin.slot = node.agent, node.slot
            out.nodes.append(twin)
            bottom[id(node)] = top[id(node)] = twin
            continue
        w = node.weight
        runs = node_runs(node)
        # the runs end with X_w; the steps below them are not placed
        cells = [(0, 0)] * (w - sum(run[2] for run in runs))
        for agent, first, length in runs:
            cells += [(agent, slot) for slot in range(first, first + length)]
        below = None
        for j in range(1, w + 1):
            step = DagNode(step_name(node, j), node.origin, DagKind.SEQ,
                           node.index + j - 1, 1)
            step.depth = node.depth - (w - j)
            step.level = node.level + (w - j)
            step.agent, step.slot = cells[j - 1]
            if below is None:
                bottom[id(node)] = step
            else:
                link(step, below)
            out.nodes.append(step)
            below = step
        top[id(node)] = below
    for node in dag.nodes:
        bottom[id(node)].children.extend(top[id(c)] for c in node.children)
        top[id(node)].parents.extend(bottom[id(p)] for p in node.parents)
    if dag.root is not None:
        out.root = top[id(dag.root)]
    out._next_index = dag._next_index
    return out


def compute_time_unit(adt: Adt) -> int:
    """Greatest common divisor of all non-zero durations (defence side
    included), i.e. the largest unit every duration is a multiple of."""
    unit = 0
    for node in adt.nodes.values():
        unit = math.gcd(unit, node.duration)
    if unit == 0:
        raise AllZeroDurations("all durations are zero")
    return unit


def _weights(adt: Adt) -> dict:
    """Each label's duration in unit steps of :func:`compute_time_unit`."""
    tunit = compute_time_unit(adt)
    return {label: node.duration // tunit
            for label, node in adt.nodes.items()}


def _build(shape: dict, root: str, weight: dict) -> Dag:
    """DAG of the tree ``shape`` (label -> (DagKind, children), in preorder
    from ``root``), in one pass over it.  Every label of ``weight`` k > 0
    becomes one chain of k unit steps ``X_1 .. X_k`` (a ``SEQ`` node of that
    weight, named ``X_1``) feeding into a zero-duration remnant ``X'`` with
    the shape's kind and children; a label of weight 0 is its remnant alone.
    Each is linked under its parent's remnant as it is met, and preorder
    meets a node's children left to right, so creation order, which fixes
    all scheduling tie-breaks downstream, and edge order both follow the
    shape."""
    dag = Dag()
    above: dict = {}  # label -> its parent's remnant
    for label, (kind, kids) in shape.items():
        remnant = top = dag.new_node(label + "'", label, kind)
        if weight[label]:
            top = dag.new_node(label + "_1", label, DagKind.SEQ,
                               weight[label])
            link(top, remnant)
        if label == root:
            dag.root = top
        else:
            link(above.pop(label), top)
        for child in kids:
            above[child] = remnant
    return dag


def normalize_time(adt: Adt) -> Dag:
    """The whole tree, defence subtrees and counter gates included, as a
    DAG: every node of duration t becomes a chain of t/u unit steps
    ``X_1 .. X_k``, u the time unit (:func:`compute_time_unit`), feeding
    into a zero-duration remnant ``X'`` that keeps the node's kind and
    original children (see :func:`_build`)."""
    shape = {label: (_KIND_OF[adt.nodes[label].kind],
                     adt.nodes[label].children) for label in preorder(adt)}
    return _build(shape, adt.root, _weights(adt))


def expand_sand(dag: Dag) -> Dag:
    """Replace every ordered-conjunction remnant with zero-duration links
    that force its child subtrees to run one after another.

    For segments T_1 .. T_k a link ``X'_i`` is placed above T_i, and every
    childless node of T_{i+1} waits for it, so no step of T_{i+1} can start
    before all of T_i is done.  ``X'_k`` takes the remnant's place.  A
    single-segment remnant simply turns into a join point.

    The input is a tree as :func:`_build` makes it.  One walk from its root
    hands each node its wait: a childless node waits for ``X'_i`` of the
    innermost remnant that holds it in a segment T_{i+1} past the first,
    and a first segment waits for what its remnant waits for.  The links
    come after every other node, innermost remnant first.

    Raises :class:`NameCollision` when a link name is taken.  Only the unit
    steps of a label named ``X'`` can take it, so the check runs against the
    names the DAG had before its first expansion.  Those include the name
    of each chain's first step, and the links are numbered from 1 too, so
    a timed ``X'`` clashes at ``X'_1`` already.
    """
    sands = [x for x in dag.nodes if x.kind is DagKind.SAND]
    if not sands:
        return dag
    links: dict = {}  # remnant of two or more segments -> its links
    taken: set | None = None
    for remnant in reversed(sands):
        k = len(remnant.children)
        if k == 1:
            remnant.kind = DagKind.NULL
            continue
        if taken is None:
            taken = {x.name for x in dag.nodes}
        names = ["%s_%d" % (remnant.name, i) for i in range(1, k + 1)]
        for name in names:
            if name in taken:
                raise NameCollision("generated name %r already exists" % name)
        links[remnant] = [dag.new_node(name, remnant.origin, DagKind.NULL)
                          for name in names]
    waits: dict = {}  # childless node -> the link it waits for
    place: dict = {}  # remnant -> its child position, kept for counter gates
    stack = [(dag.root, None, 0)]
    while stack:
        node, wait, pos = stack.pop()
        kids = node.children
        if node in links:  # T_1 waits for what the remnant waits for
            place[node] = pos
            stack.extend(zip(kids, [wait] + links[node], range(len(kids))))
        elif kids:
            stack.extend(zip(kids, itertools.repeat(wait), range(len(kids))))
        elif wait is not None:
            waits[node] = wait
    for node in dag.nodes:  # node order fixes each link's parent order
        if node in waits:
            link(node, waits[node])
    for remnant, made in links.items():  # innermost first
        for new, top in zip(made, remnant.children):
            new.children.append(top)
            top.parents[0] = new
        made[-1].parents = remnant.parents
        for parent in remnant.parents:
            parent.children[place[remnant]] = made[-1]
        if dag.root is remnant:
            dag.root = made[-1]
    dag.nodes = [x for x in dag.nodes if x not in links]
    return dag


def _sides(adt: Adt) -> tuple[list, list, list]:
    """``(label, NodeKind, DagKind, children)`` for every node of ``adt``,
    children first, split by structure into the attack side and the defence
    subtrees (everything below the second child of a counter gate), and the
    roots of those subtrees in preorder."""
    attack, defence, roots, below = [], [], [], set()
    for label in preorder(adt):
        node = adt.nodes[label]
        entry = (label, node.kind, _KIND_OF[node.kind], node.children)
        if label in below:
            below.update(node.children)
            defence.append(entry)
        else:
            if node.kind in COUNTER_KINDS:
                roots.append(node.children[1])
                below.add(node.children[1])
            attack.append(entry)
    attack.reverse()
    defence.reverse()
    return attack, defence, roots


def defence_leaves(adt: Adt) -> list[str]:
    """Leaves of the defence subtrees, in depth-first order."""
    return [x[0] for x in reversed(_sides(adt)[1]) if x[1] is NodeKind.LEAF]


def defence_roots(adt: Adt) -> list[str]:
    """Roots of the defence subtrees, i.e. second children of counter
    gates, in depth-first order."""
    return _sides(adt)[2]


def _signature(defence: list, roots: list, config: DefenceConfig) -> dict:
    """Status of each of the defence-subtree ``roots`` under ``config``,
    from one pass over ``defence`` (the defence side from :func:`_sides`)
    that evaluates every defence node once, children first: leaves read
    ``config``, an OR operates when some child does, and every other gate
    when all of its children do."""
    status: dict = {}
    for label, kind, _, children in defence:
        states = [status[c] for c in children]
        if kind is NodeKind.LEAF:
            status[label] = config[label]
        elif kind is NodeKind.OR:
            status[label] = OPERATING if OPERATING in states else FAILED
        else:
            status[label] = FAILED if FAILED in states else OPERATING
    return {root: status[root] for root in roots}


def defence_signature(adt: Adt, config: DefenceConfig) -> dict:
    """Status of each defence-subtree root under ``config`` -- the part of a
    configuration the attacker can actually observe."""
    _, defence, roots = _sides(adt)
    return _signature(defence, roots, config)


def _block_order(defence: list, roots: list) -> list:
    """The defence-subtree ``roots`` in preorder of the roots themselves,
    which is the order of their blocks of leaves.  It differs from
    :func:`defence_roots` when a counter gate sits inside another's
    action: the inner root comes first here."""
    found = set(roots)
    return [x[0] for x in reversed(defence) if x[0] in found]


def _config(adt: Adt, blocks: list, statuses: tuple) -> DefenceConfig:
    """The first configuration, over the defence leaves in depth-first
    order with FAILED before OPERATING, that gives each of the ``blocks``
    roots its status in ``statuses``.  The subtrees are disjoint, so it is
    each root's first block in turn: a failed root fails all of its leaves;
    an operating leaf operates, an operating OR fails every child but its
    last and makes that one operate, and any other operating gate makes all
    of its children operate."""
    config: DefenceConfig = {}
    for root, status in zip(blocks, statuses):
        stack = [(root, status)]
        while stack:
            label, want = stack.pop()
            node = adt.nodes[label]
            kids = node.children
            if not kids:
                config[label] = want
            elif want == FAILED or node.kind is not NodeKind.OR:
                stack.extend((c, want) for c in reversed(kids))
            else:
                stack.append((kids[-1], OPERATING))
                stack.extend((c, FAILED) for c in reversed(kids[:-1]))
    return config


def enumerate_defence_variants(adt: Adt) -> list[DefenceConfig]:
    """One representative configuration per inequivalent defence outcome.

    Two configurations count as equivalent when every defence-subtree root
    has the same status under both.  The representatives are the first of
    each outcome among the configurations over the defence leaves in
    depth-first order, FAILED before OPERATING, listed in that order (so
    the undefended outcome comes first).  Each root can fail and operate
    independently of the others, so they are built from the roots'
    statuses, 2^(roots) of them, not found among the 2^(leaves)
    configurations.
    """
    _, defence, roots = _sides(adt)
    blocks = _block_order(defence, roots)
    return [_config(adt, blocks, statuses)
            for statuses in itertools.product((FAILED, OPERATING),
                                              repeat=len(blocks))]


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
    tree = _Tree(adt)
    shape = tree.fixed(config)[1]
    if not shape:
        return Dag()
    return expand_sand(_build(dict(reversed(shape.items())), adt.root,
                              tree.weight))


def canonical_form(dag: Dag) -> str:
    """Structure digest: equal for DAGs that differ only in child order or
    node identity.  The pipeline compares variants by their label sets
    instead (see :func:`preprocess_cases`)."""
    import hashlib  # local: no CLI path calls this, so imports skip it
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


class Variant:
    """One fully determined DAG: a defence outcome plus one choice per OR."""

    def __init__(self, defences: DefenceConfig, signature: dict,
                 or_choices: dict, dag: Dag):
        self.defences = defences
        self.signature = signature
        self.or_choices = or_choices
        self.dag = dag

    @property
    def feasible(self) -> bool:
        """False for the empty DAG of an impossible attack."""
        return self.dag.root is not None


class Case:
    """All variants sharing one defence outcome.  ``merged_signatures``
    lists every outcome signature that leaves the same variants, in the
    order of :func:`enumerate_defence_variants`; it is worked out for all
    cases of one :func:`preprocess_cases` call on its first read, since it
    takes one pass per outcome."""

    def __init__(self, signature: dict, config: DefenceConfig,
                 variants: list, _merge=None, _merged: list | None = None):
        self.signature = signature
        self.config = config
        self.variants = variants
        self._merge = _merge
        self._merged = _merged

    @property
    def merged_signatures(self) -> list:
        if self._merged is None:
            self._merge()
        return self._merged


class _Tree:
    """What every defence outcome of one tree shares: the attack and
    defence sides, the defence-subtree roots in gate order and in block
    order (see :func:`_block_order`), the resolved nodes met so far and
    each node's duration in unit steps.  ``clash`` is true when a SAND
    ``s`` and a label ``s'`` both exist, so that :func:`expand_sand` may
    reject some variants by their names alone."""

    def __init__(self, adt: Adt):
        self.adt = adt
        self.attack, self.defence, self.roots = _sides(adt)
        self.blocks = _block_order(self.defence, self.roots)
        self.nodes: list = []  # key -> (label, DagKind, children's keys)
        self.keys: dict = {}
        self.clash = any(node.kind is NodeKind.SAND
                         and label + "'" in adt.nodes
                         for label, node in adt.nodes.items())

    @functools.cached_property
    def weight(self) -> dict:
        return _weights(self.adt)

    def key(self, label: str, kind: DagKind, kids: tuple) -> int:
        """Interned key of a resolved node: equal keys, equal subtrees.
        Each label resolves to one kind only, so the lookup leaves the kind
        out (hashing an Enum member runs Python code)."""
        key = self.keys.get((label, kids))
        if key is None:
            key = self.keys[label, kids] = len(self.nodes)
            self.nodes.append((label, kind, kids))
        return key

    def resolve(self, statuses: dict) -> dict:
        """Every distinct resolved tree that the defence outcomes allowed by
        ``statuses`` (defence root -> the statuses it may take) leave, as
        its root's key, mapped to the smallest tuple of root statuses in
        block order that leaves it; key None: the attack is impossible.
        Tuples compare FAILED first, since "failed" < "operating".

        One pass over the attack side, children first, gives each node such
        a map of its own.  A leaf has one entry.  A counter gate pairs each
        entry of its action with each status of its countermeasure, and
        appends that status: a CAND or SCAND needs a failed countermeasure
        and a possible action, and a NODEF needs its action only while the
        countermeasure operates.  Any other gate takes one product of its
        children's maps, joining their tuples in child order: an OR over
        all entries, keeping its possible children, AND and SAND over the
        possible ones.  Child keys carry labels, so no two combinations
        leave one key.  An impossible child makes AND and SAND impossible:
        the smallest such tuple puts every child at its smallest and, unless
        one of those already is a None tuple, the last child that has one at
        its None tuple (a later switch keeps a longer prefix of smallest)."""
        entries: dict = {}
        key = self.key
        for label, kind, dag_kind, children in self.attack:
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
                        ours = done + (status,)
                        out[new] = min(out.get(new, ours), ours)
                entries[label] = out
                continue
            either = kind is NodeKind.OR
            maps = [entries.pop(child) for child in children]
            fails = [i for i, m in enumerate(maps) if None in m]
            if fails and not either:
                least = [min(m.values()) for m in maps]
                if all(least[i] != maps[i][None] for i in fails):
                    least[fails[-1]] = maps[fails[-1]][None]
                out[None] = tuple(itertools.chain.from_iterable(least))
                for i in fails:
                    del maps[i][None]
            for combo in itertools.product(*[m.items() for m in maps]):
                kids, parts = zip(*combo)
                if either:
                    kids = tuple(k for k in kids if k is not None)
                out[key(label, dag_kind, kids) if kids else None] = tuple(
                    itertools.chain.from_iterable(parts))
            entries[label] = out
        return entries[self.adt.root]

    def shape(self, key) -> dict:
        """label -> (DagKind, children) for the resolved tree ``key``,
        children first; empty for None."""
        order, stack = [], [] if key is None else [key]
        while stack:
            key = stack.pop()
            order.append(key)
            stack.extend(reversed(self.nodes[key][2]))
        shape = {}
        for key in reversed(order):
            label, kind, kids = self.nodes[key]
            shape[label] = (kind, [self.nodes[k][0] for k in kids])
        return shape

    def signature(self, statuses: tuple) -> dict:
        """Root -> status, in gate order, for ``statuses`` in block
        order."""
        status = dict(zip(self.blocks, statuses))
        return {root: status[root] for root in self.roots}

    def fixed(self, config: DefenceConfig) -> tuple[dict, dict]:
        """The signature of ``config`` and the tree it resolves to."""
        signature = _signature(self.defence, self.roots, config)
        [key] = self.resolve({root: (status,)
                              for root, status in signature.items()})
        return signature, self.shape(key)


def _or_selections(shape: dict, root: str, weight: dict,
                   classes: bool = False) -> tuple[list, frozenset]:
    """``(or_choices, variant shape)`` for every fastest combination of OR
    choices on the resolved tree ``shape`` (children first, as
    :meth:`_Tree.shape` lists it; none if it lacks the root), in the order of
    a depth-first search over the OR gates in preorder; with them the set
    of nodes that hold a budget (below).

    A node's time is its ``weight`` plus the maximum of its children's (AND
    and counter gates), their sum (SAND) or its chosen child's (OR).  One
    pass takes each node's fastest time, bottom-up.  A second hands out
    budgets, top-down: the root gets its fastest time and, with R a node's
    budget minus its weight, an AND-like child gets R, a SAND child R minus
    its siblings' fastest times, and an OR child R unless it is slower than
    that, when it is never entered.  A third lists each budgeted node's
    selections, bottom-up: an OR prefixes each selection of each entered
    child with its own choice, and other gates combine their children left
    to right, earlier children varying slowest; a SAND drops a partial
    combination once its time plus its later children's fastest times
    exceeds R.  Every kept entry extends to a best selection, so the work
    is bounded by the tree and the output, and the nodes with a budget are
    exactly those that some selection keeps.  A selection carries its
    choices as one flat tuple of ``(gate, child)`` pairs in preorder, so
    ``or_choices`` lists the chosen gates in preorder; a variant shape
    lists the nodes reachable from the root, in preorder (the order
    :func:`_build` takes), each chosen OR keeping only its chosen child.

    With ``classes`` the third pass also keys each budgeted node by its
    kind, its weight and its children's keys in their own order, an OR
    counting its budgeted children only (the encoding of Aho, Hopcroft and
    Ullman, without its sort).  Nodes with equal keys root the same
    selections up to labels, in the same order, so an OR enters only the
    first of its children with each key.  Each selection left stands for
    the ones it skipped, which come later in the full order: their DAGs
    match its DAG node for node, creation order included, so the scheduler
    breaks every tie alike and gives them all its result.
    """
    if root not in shape:
        return [], frozenset()
    fastest: dict = {}
    for label in shape:
        kind, kids = shape[label]
        times = [fastest[c] for c in kids] or [0]
        fastest[label] = weight[label] + (
            min(times) if kind is DagKind.OR
            else sum(times) if kind is DagKind.SAND else max(times))

    budget = {root: fastest[root]}
    for label in reversed(shape):
        if label not in budget:
            continue
        kind, kids = shape[label]
        rest = budget[label] - weight[label]
        slack = budget[label] - fastest[label]
        for child in kids:
            if kind is DagKind.SAND:
                budget[child] = fastest[child] + slack
            elif kind is not DagKind.OR or fastest[child] <= rest:
                budget[child] = rest

    # a selection is (time, chosen); chosen is its (gate, child) pairs in
    # preorder
    picks: dict = {}
    keys: dict = {}
    interned: dict = {}
    for label in shape:
        if label not in budget:
            continue
        kind, kids = shape[label]
        if kind is DagKind.OR:
            kids = [c for c in kids if c in budget]
            entered = kids
            if classes:
                first = {}
                for child in kids:
                    first.setdefault(keys[child], child)
                entered = list(first.values())
            partial = [(t, ((label, child),) + chosen)
                       for child in entered
                       for t, chosen in picks[child]]
        else:
            sand = kind is DagKind.SAND
            room = budget[label] - fastest[label]
            partial = [(0, ())]
            for child in kids:
                room += fastest[child]  # R minus later children's fastest
                partial = [(t + u if sand else max(t, u), chosen + more)
                           for t, chosen in partial
                           for u, more in picks[child]
                           if not sand or t + u <= room]
        picks[label] = [(t + weight[label], chosen) for t, chosen in partial]
        if classes:
            keys[label] = interned.setdefault(
                (kind, weight[label], tuple(keys[c] for c in kids)),
                len(interned))

    out = []
    for _, chosen in picks[root]:
        choices = dict(chosen)
        variant, stack = {}, [root]
        while stack:
            label = stack.pop()
            child = choices.get(label)
            entry = (DagKind.OR, [child]) if child else shape[label]
            variant[label] = entry
            stack.extend(reversed(entry[1]))
        out.append((choices, variant))
    return out, frozenset(budget)


def enumerate_or_variants(adt: Adt, config: DefenceConfig) -> list[Variant]:
    """One variant per combination of OR choices that finishes the attack
    fastest under ``config``, each with its own DAG built once
    from the resolved tree; distinct choices always leave distinct DAGs.
    An impossible attack gives the single infeasible variant."""
    tree = _Tree(adt)
    signature, shape = tree.fixed(config)
    return _variants(tree, config, signature,
                     _or_selections(shape, adt.root, tree.weight)[0])


def _variants(tree: _Tree, config: DefenceConfig, signature: dict,
              selections: list) -> list[Variant]:
    """Build the variants of the ``selections`` that ``_or_selections``
    found for the outcome of ``config``."""
    if not selections:
        return [Variant(config, signature, {}, Dag())]
    return [Variant(config, signature, choices, expand_sand(
                _build(shape, tree.adt.root, tree.weight)))
            for choices, shape in selections]


def preprocess_cases(adt: Adt, all_variants: bool = True) -> list[Case]:
    """Full pipeline, grouped by defence outcome.  Outcomes that leave the
    same variants are merged into one case before any DAG is built.

    :meth:`_Tree.resolve` finds each distinct resolved tree once, with the
    first outcome that leaves it.  Each of them is walked by
    :func:`_or_selections`; those that keep the same tree nodes leave the
    same variants and form one case, whose outcome is the first of them.
    Cases come in the order of their outcomes, and their representative
    configurations are those :func:`enumerate_defence_variants` lists.

    With ``all_variants`` false a case keeps one variant per class of
    selections whose DAGs differ only in labels (see
    :func:`_or_selections`), the first of each in the full order.  Each
    skipped variant would be scheduled exactly as its representative, so
    the first fewest-agents variant of the full list is among those kept.
    Trees whose generated names may clash (see :class:`_Tree`) are never
    collapsed, so each variant is built as in the full list."""
    problems = validate_adt(adt)
    if problems:
        raise ValueError("invalid tree: %s" % problems[0].message)
    tree = _Tree(adt)
    classes = not all_variants and not tree.clash
    found = tree.resolve({root: (FAILED, OPERATING) for root in tree.roots})
    cases: list[Case] = []
    by_labels: dict = {}
    by_key: dict = {}  # every distinct resolved tree -> its case
    merge = functools.partial(_merge_signatures, tree, by_key)
    for key, statuses in sorted(found.items(), key=lambda item: item[1]):
        selections, labels = _or_selections(
            tree.shape(key), adt.root, tree.weight, classes)
        case = by_labels.get(labels)
        if case is None:
            config = _config(adt, tree.blocks, statuses)
            signature = tree.signature(statuses)
            case = Case(signature, config,
                        _variants(tree, config, signature, selections),
                        merge)
            cases.append(case)
            by_labels[labels] = case
        by_key[key] = case
    return cases


def _merge_signatures(tree: _Tree, by_key: dict) -> None:
    """Fill ``merged_signatures`` of the cases in ``by_key`` (the key of
    each distinct resolved tree -> its case): every outcome, in the order
    of :func:`enumerate_defence_variants`, resolved on its own and added to
    the case of the tree it leaves."""
    for case in by_key.values():
        case._merged = []
    for statuses in itertools.product((FAILED, OPERATING),
                                      repeat=len(tree.blocks)):
        [key] = tree.resolve({root: (status,) for root, status
                              in zip(tree.blocks, statuses)})
        by_key[key]._merged.append(tree.signature(statuses))

