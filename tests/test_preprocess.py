"""Pipeline stages: time normalisation, sequence expansion, defence
resolution, choice enumeration."""

import importlib
import random

import pytest

from adtsched import (
    FAILED,
    OPERATING,
    AllZeroDurations,
    Dag,
    DagKind,
    NameCollision,
    apply_defence_config,
    compute_time_unit,
    defence_signature,
    enumerate_defence_variants,
    enumerate_or_variants,
    expand_sand,
    min_schedule,
    normalize_time,
    parse_adt,
    preprocess,
    preprocess_cases,
    unit_dag,
    validate_adt,
)
from adtsched.preprocess import (
    _Tree,
    _or_selections,
    canonical_form,
    copy_dag,
    defence_roots,
)

from conftest import TREES, load_tree
from rand_trees import random_adt
from reference_or_walk import reachable


def build(text):
    return expand_sand(normalize_time(parse_adt(text)))


def names(dag):
    """Node names in the unit-step view, where every step has its own."""
    return {x.name for x in unit_dag(dag).nodes}


# ---------------------------------------------------------------- durations


def test_time_unit_is_gcd_of_durations():
    assert compute_time_unit(parse_adt("a: AND(b, c)\nb: ATTACK time=4\nc: ATTACK time=6\n")) == 2
    assert compute_time_unit(load_tree("treasure")) == 1


def test_all_zero_durations_rejected():
    with pytest.raises(AllZeroDurations):
        compute_time_unit(parse_adt("a: ATTACK\n"))


def test_explicit_coarser_unit():
    adt = parse_adt("a: AND(b, c)\nb: ATTACK time=4\nc: ATTACK time=2\n")
    dag = normalize_time(adt)  # tunit 2
    assert dag.n == 3


# ------------------------------------------------------------ normalisation


def test_duration_becomes_a_chain():
    dag = unit_dag(normalize_time(parse_adt("a: AND(b, c)\nb: ATTACK time=3\nc: ATTACK time=1\n")))
    by = {x.name: x for x in dag.nodes}
    assert [c.name for c in by["b_1"].children] == ["b'"]
    assert [c.name for c in by["b_2"].children] == ["b_1"]
    assert [c.name for c in by["b_3"].children] == ["b_2"]
    # the topmost link of the chain takes over the original parent edge
    assert [c.name for c in dag.root.children] == ["b_3", "c_1"]
    assert dag.root.name == "a'"
    assert by["b'"].kind is DagKind.LEAF
    assert by["b_3"].kind is DagKind.SEQ
    assert dag.n == 4


def test_a_timed_node_is_one_weighted_chain():
    dag = normalize_time(parse_adt("a: AND(b, c)\nb: ATTACK time=3\nc: ATTACK time=1\n"))
    # each chain carries its first step's name and reserves one index per
    # step, so the unit-step view numbers its nodes as the steps were
    assert [(x.name, x.kind, x.weight, x.index) for x in dag.nodes] == [
        ("a'", DagKind.AND, 0, 0), ("b'", DagKind.LEAF, 0, 1),
        ("b_1", DagKind.SEQ, 3, 2), ("c'", DagKind.LEAF, 0, 5),
        ("c_1", DagKind.SEQ, 1, 6)]
    assert [(x.name, x.index) for x in unit_dag(dag).nodes] == [
        ("a'", 0), ("b'", 1), ("b_1", 2), ("b_2", 3), ("b_3", 4),
        ("c'", 5), ("c_1", 6)]
    assert dag.n == unit_dag(dag).n == 4


def test_zero_duration_gate_keeps_its_kind():
    dag = normalize_time(parse_adt("a: OR(b)\nb: ATTACK time=1\n"))
    assert dag.root.name == "a'"
    assert dag.root.kind is DagKind.OR


def test_generated_names_do_not_leak_across_labels():
    """Label ``b_1`` does not clash with the chain of label ``b``: source
    labels never appear bare in the result, only primed and suffixed."""
    dag = normalize_time(parse_adt("a: AND(b, b_1)\nb: ATTACK time=2\nb_1: ATTACK time=1\n"))
    assert {"b'", "b_1", "b_2", "b_1'", "b_1_1"} <= names(dag)


# --------------------------------------------------------------- sequences


def test_sand_becomes_ordering_joints():
    dag = build("s: SAND(a, b)\na: ATTACK time=1\nb: ATTACK time=1\n")
    by = {x.name: x for x in dag.nodes}
    # one joint per operand; the joint of step i gates every leaf of step i+1
    assert by["s'_1"].kind is DagKind.NULL
    assert [c.name for c in by["s'_1"].children] == ["a_1"]
    assert [c.name for c in by["b'"].children] == ["s'_1"]
    assert [c.name for c in by["s'_2"].children] == ["b_1"]
    assert dag.root.name == "s'_2"
    assert "s'" not in names(dag)


def test_single_operand_sand_collapses():
    dag = build("s: SAND(a)\na: ATTACK time=1\n")
    by = {x.name: x for x in dag.nodes}
    assert by["s'"].kind is DagKind.NULL
    assert names(dag) == {"s'", "a'", "a_1"}


def test_nested_sands_expand_bottom_up():
    dag = build("s: SAND(t, c)\nt: SAND(a, b)\n"
                "a: ATTACK time=1\nb: ATTACK time=1\nc: ATTACK time=1\n")
    by = {x.name: x for x in dag.nodes}
    assert {"s'_1", "s'_2", "t'_1", "t'_2"} <= names(dag)
    # c waits for the whole inner sequence
    assert [c.name for c in by["c'"].children] == ["s'_1"]
    assert [c.name for c in by["s'_1"].children] == ["t'_2"]


def test_sand_joint_name_collision_detected():
    # the chain of a primed label lands exactly on a joint name
    with pytest.raises(NameCollision):
        build("s: SAND(a, s')\na: ATTACK time=1\ns': ATTACK time=1\n")


def test_gate_duration_chains_above_the_joints():
    # a timed SAND gate runs its own chain after the sequence completes
    dag = unit_dag(build("s: SAND(a, b) time=2\na: ATTACK time=1\nb: ATTACK time=1\n"))
    by = {x.name: x for x in dag.nodes}
    assert [c.name for c in by["s_1"].children] == ["s'_2"]
    assert [c.name for c in by["s_2"].children] == ["s_1"]
    assert dag.root.name == "s_2"


# ----------------------------------------------------------------- defences


def test_defence_enumeration_failed_first():
    assert enumerate_defence_variants(load_tree("treasure")) == [
        {"p": FAILED},
        {"p": OPERATING},
    ]


def test_defence_enumeration_merges_equal_outcomes():
    """gain-admin has four defence leaves (sixteen raw combinations) but only
    two distinguishable outcomes per counter gate."""
    adt = load_tree("gain-admin")
    configs = enumerate_defence_variants(adt)
    assert len(configs) == 4
    assert configs[0] == {"scr": FAILED, "wd": FAILED, "ids": FAILED, "av": FAILED}
    sigs = [tuple(defence_signature(adt, c).items()) for c in configs]
    assert len(set(sigs)) == 4


def test_composite_defence_status():
    adt = load_tree("gain-admin")
    # DTH = AND(wd, ids, av): operating only when every leaf operates
    sig = defence_signature(adt, {"scr": FAILED, "wd": OPERATING, "ids": FAILED, "av": OPERATING})
    assert sig["DTH"] == FAILED
    sig = defence_signature(adt, {"scr": FAILED, "wd": OPERATING, "ids": OPERATING, "av": OPERATING})
    assert sig["DTH"] == OPERATING


def test_defence_roots_in_gate_order():
    assert defence_roots(load_tree("iot-dev")) == ["inc", "tla"]
    assert defence_roots(load_tree("treasure")) == ["p"]


def test_operating_defence_kills_the_root():
    adt = parse_adt("a: CAND(b, d)\nb: ATTACK time=1\nd: DEFENCE time=1\n")
    dead = apply_defence_config(adt, {"d": OPERATING})
    assert dead.root is None and dead.nodes == []


def test_failed_defence_leaves_a_joint():
    text = "a: CAND(b, d)\nb: ATTACK time=1\nd: DEFENCE time=1\n"
    adt = parse_adt(text)
    live = apply_defence_config(adt, {"d": FAILED})
    by = {x.name: x for x in live.nodes}
    assert names(live) == {"a'", "b'", "b_1"}
    assert by["a'"].kind is DagKind.NULL


def test_operating_defence_under_or_drops_one_branch():
    text = ("a: OR(g, c)\ng: CAND(b, d)\nb: ATTACK time=1\n"
            "c: ATTACK time=1\nd: DEFENCE time=1\n")
    adt = parse_adt(text)
    cut = apply_defence_config(adt, {"d": OPERATING})
    assert "b'" not in names(cut)
    assert "c_1" in names(cut)
    assert [c.name for c in cut.root.children] == ["c_1"]


def test_or_with_every_branch_countered_fails():
    text = ("a: OR(g, h)\ng: CAND(b, d1)\nh: CAND(c, d2)\n"
            "b: ATTACK time=1\nc: ATTACK time=1\n"
            "d1: DEFENCE time=1\nd2: DEFENCE time=1\n")
    adt = parse_adt(text)
    cut = apply_defence_config(adt, {"d1": OPERATING, "d2": OPERATING})
    assert cut.nodes == []


def test_nodef_operating_keeps_the_attack():
    text = "g: NODEF(b, d)\nb: ATTACK time=1\nd: DEFENCE time=1\n"
    adt = parse_adt(text)
    on = apply_defence_config(adt, {"d": OPERATING})
    by = {x.name: x for x in on.nodes}
    assert names(on) == {"g'", "b'", "b_1"}
    assert by["g'"].kind is DagKind.NULL


def test_nodef_failed_cuts_both_sides():
    text = "g: NODEF(b, d)\nb: ATTACK time=1\nd: DEFENCE time=1\n"
    adt = parse_adt(text)
    off = apply_defence_config(adt, {"d": FAILED})
    assert names(off) == {"g'"}
    assert off.root.kind is DagKind.NULL
    assert off.n == 0


def test_stranded_ordering_joint_is_reattached():
    """A sequence joint whose gating leaves all sat in a deleted subtree
    must be re-hung under the survivor so ordering is preserved."""
    text = ("s: SAND(x, g)\nx: ATTACK time=1\n"
            "g: NODEF(y, d)\ny: ATTACK time=2\nd: DEFENCE time=1\n")
    adt = parse_adt(text)
    cut = apply_defence_config(adt, {"d": FAILED})
    by = {x.name: x for x in cut.nodes}
    assert [c.name for c in by["g'"].children] == ["s'_1"]
    assert [c.name for c in by["s'_1"].children] == ["x_1"]
    assert cut.root.name == "s'_2"
    assert reachable(cut) == set(cut.nodes)


def test_failed_nodef_countermeasure_makes_the_action_unnecessary():
    """The failed ``d`` makes ``c`` unnecessary, so the operating ``e``
    that blocks ``c`` cannot make the attack impossible."""
    adt = parse_adt("g: NODEF(c, d) time=2\nc: CAND(a, e)\na: ATTACK time=1\n"
                    "d: DEFENCE time=1\ne: DEFENCE time=1\n")
    outcome = {"d": FAILED, "e": OPERATING}
    assert names(apply_defence_config(adt, outcome)) == {"g'", "g_1", "g_2"}
    case, = [c for c in preprocess_cases(adt) if outcome in c.merged_signatures]
    result, = min_schedule(case.variants)
    assert result.feasible
    assert result.slots == 2


def test_all_failed_config_keeps_every_attack_node():
    for name in ("treasure", "forestall", "iot-dev", "gain-admin"):
        adt = load_tree(name)
        assert not validate_adt(adt)  # derives the roles
        config = {leaf: FAILED for leaf in enumerate_defence_variants(adt)[0]}
        cut = apply_defence_config(adt, config)
        attack_origins = {l for l, nd in adt.nodes.items() if nd.role.value == "attack"}
        assert attack_origins <= {x.origin for x in cut.nodes}


def build_tree(adt):
    return expand_sand(normalize_time(adt))


# ------------------------------------------------------------------ choices


def test_slower_or_branch_not_enumerated():
    vs = preprocess(load_tree("treasure"))
    live = [v for v in vs if v.feasible]
    assert len(live) == 1
    assert live[0].or_choices == {"GA": "h"}
    assert "e" not in {x.origin for x in live[0].dag.nodes}


def test_equal_or_branches_both_enumerated():
    adt = load_tree("iot-dev")
    cases = preprocess_cases(adt)
    live = [c for c in cases if any(v.feasible for v in c.variants)]
    assert len(live) == 1
    assert [v.or_choices for v in live[0].variants] == [{"CPN": "AL"}, {"CPN": "AW"}]


def test_or_choices_only_list_reachable_gates():
    cases = preprocess_cases(load_tree("gain-admin"))
    choice_sets = sorted(tuple(sorted(v.or_choices.items()))
                         for c in cases for v in c.variants)
    assert choice_sets == [
        (("ACLI", "ECCS"), ("ECC", "bcc"), ("OAP", "ACLI")),
        (("ACLI", "co"), ("OAP", "ACLI")),
        (("GSAP", "TSA"), ("OAP", "GSAP")),
    ]


class CountingShape(dict):
    """A resolved shape that counts how often its entries are read."""

    lookups = 0

    def __getitem__(self, label):
        self.lookups += 1
        return super().__getitem__(label)

    def get(self, label, default=None):
        self.lookups += 1
        return super().get(label, default)


def or_fan_shape(k, fast=1, slow=2):
    """Resolved shape and weights of an AND over k two-way ORs."""
    shape, weight, ors = CountingShape(), {"r": 0}, []
    for i in range(k):
        a, b, gate = "a%d" % i, "b%d" % i, "o%d" % i
        shape[a], shape[b] = (DagKind.LEAF, []), (DagKind.LEAF, [])
        shape[gate] = (DagKind.OR, [a, b])
        weight.update({a: fast, b: slow, gate: 0})
        ors.append(gate)
    shape["r"] = (DagKind.AND, ors)
    return shape, weight


def test_or_walk_work_grows_linearly():
    # one variant either way, so the walk's work should grow with the tree
    lookups = []
    for k in (300, 1200):
        shape, weight = or_fan_shape(k)
        [(choices, variant)], _ = _or_selections(shape, "r", weight)
        assert choices == {"o%d" % i: "a%d" % i for i in range(k)}
        assert len(variant) == 2 * k + 1
        lookups.append(shape.lookups)
    assert lookups[1] <= 5 * lookups[0], lookups


def test_or_walk_never_enters_a_slow_branch():
    # the slow branch hides 2^16 equally fast selections of its own
    shape, weight = or_fan_shape(16, fast=1, slow=1)
    shape["slow"] = shape.pop("r")
    shape["fast"] = (DagKind.LEAF, [])
    shape["r"] = (DagKind.OR, ["fast", "slow"])
    weight.update({"slow": 1, "fast": 1, "r": 0})
    assert _or_selections(shape, "r", weight)[0] \
        == [({"r": "fast"}, {"r": (DagKind.OR, ["fast"]),
                             "fast": (DagKind.LEAF, [])})]
    assert shape.lookups <= 4 * len(shape)


def test_cases_merge_indistinguishable_outcomes():
    cases = preprocess_cases(load_tree("iot-dev"))
    blocked = [c for c in cases if not any(v.feasible for v in c.variants)]
    assert len(blocked) == 1
    assert len(blocked[0].merged_signatures) == 3


def test_gain_admin_collapses_to_three_cases():
    cases = preprocess_cases(load_tree("gain-admin"))
    assert len(cases) == 3
    assert sorted(len(c.merged_signatures) for c in cases) == [1, 1, 2]


def first_of_each(keys):
    """The grouping ``keys`` make, as the index of each key's first
    occurrence."""
    return [keys.index(k) for k in keys]


def test_outcomes_merge_by_the_nodes_their_selections_keep():
    # the cases merge outcomes by the tree nodes with a budget; grouping
    # by the node origins of every built variant must give the same cases
    adts = [parse_adt(path.read_text()) for path in sorted(TREES.glob("*.adt"))]
    adts += [random_adt(random.Random(seed), max_leaves=12, max_time=3,
                        defence_prob=(0.4, 0.6)[seed % 2])
             for seed in range(300)]
    merged = 0
    for adt in adts:
        tree = _Tree(adt)
        by_labels, by_origins = [], []
        for config in enumerate_defence_variants(adt):
            shape = tree.fixed(config)[1]
            labels = _or_selections(shape, adt.root, tree.weight)[1]
            assert _or_selections(shape, adt.root, tree.weight,
                                  classes=True)[1] == labels
            by_labels.append(labels)
            by_origins.append(frozenset(
                frozenset(x.origin for x in v.dag.nodes)
                for v in enumerate_or_variants(adt, config)))
        assert first_of_each(by_labels) == first_of_each(by_origins)
        merged += len(by_labels) - len(set(by_labels))
    assert merged > 100  # the rule is exercised, not vacuous


# the package exports a function named preprocess over the module's name
preprocess_module = importlib.import_module("adtsched.preprocess")


def counter_fan(gate, k, top="AND"):
    """A ``top`` gate over k ``gate`` counter gates, each over an attack
    leaf and a defence leaf."""
    lines = ["r: %s(%s)" % (top, ", ".join("c%d" % i for i in range(k)))]
    for i in range(k):
        lines += ["c%d: %s(a%d, d%d)" % (i, gate, i, i),
                  "a%d: ATTACK time=1" % i, "d%d: DEFENCE time=1" % i]
    return parse_adt("\n".join(lines) + "\n")


@pytest.fixture
def walked(monkeypatch):
    """Counts ``_or_selections`` calls; forbids working out merged
    signatures."""
    calls = []

    def counting(*args, walk=preprocess_module._or_selections):
        calls.append(args)
        return walk(*args)

    def unread(*args):
        raise AssertionError("merged signatures worked out")

    monkeypatch.setattr(preprocess_module, "_or_selections", counting)
    monkeypatch.setattr(preprocess_module, "_merge_signatures", unread)
    return calls


@pytest.mark.parametrize("gate", ["CAND", "SCAND"])
@pytest.mark.parametrize("k", [10, 30])
def test_counter_fan_walks_two_outcomes(walked, gate, k):
    # 2^k defence outcomes, but every operating defence kills the root
    cases = preprocess_cases(counter_fan(gate, k), all_variants=False)
    assert len(walked) == 2
    assert [c.signature for c in cases] == [
        {"d%d" % i: FAILED for i in range(k)},
        {"d%d" % i: OPERATING if i == k - 1 else FAILED for i in range(k)}]
    assert [len(c.config) for c in cases] == [k, k]
    assert [v.feasible for c in cases for v in c.variants] == [True, False]


def test_nodef_fan_walks_each_outcome_once(walked):
    # each NODEF outcome leaves its own work: 2^k cases, one walk each
    cases = preprocess_cases(counter_fan("NODEF", 10), all_variants=False)
    assert len(cases) == len(walked) == 2 ** 10
    assert {c.variants[0].dag.n for c in cases} == set(range(11))


def test_or_of_counters_keeps_every_outcome():
    k = 6
    cases = preprocess_cases(counter_fan("CAND", k, top="OR"))
    live = [c for c in cases if c.variants[0].feasible]
    assert len(live) == 2 ** k - 1
    assert len(cases) == 2 ** k
    assert all(len(c.merged_signatures) == 1 for c in cases)


@pytest.mark.parametrize("top", ["AND", "OR"])
def test_defence_variants_come_from_root_statuses(monkeypatch, top):
    # one root over 16 defence leaves: 2 outcomes, not 2^16 evaluations
    evaluations = []

    def counting(*args, evaluate=preprocess_module._signature):
        evaluations.append(args)
        return evaluate(*args)

    monkeypatch.setattr(preprocess_module, "_signature", counting)
    leaves = ["e%d" % i for i in range(16)]
    adt = parse_adt("r: CAND(a, d)\na: ATTACK time=1\nd: %s(%s)\n"
                    % (top, ", ".join(leaves))
                    + "".join("%s: DEFENCE time=1\n" % x for x in leaves))
    configs = enumerate_defence_variants(adt)
    assert len(evaluations) <= 2
    operating = ({x: OPERATING for x in leaves} if top == "AND" else
                 {x: OPERATING if x == "e15" else FAILED for x in leaves})
    assert configs == [{x: FAILED for x in leaves}, operating]
    assert [defence_signature(adt, c) for c in configs] \
        == [{"d": FAILED}, {"d": OPERATING}]


# ------------------------------------------------------------- shape classes


def walks(text):
    """The one case of ``text`` with one variant per class, and in full."""
    adt = parse_adt(text)
    [by_class] = preprocess_cases(adt, all_variants=False)
    [full] = preprocess_cases(adt)
    assert by_class.variants[0].or_choices == full.variants[0].or_choices
    return by_class, full


def leaves(**times):
    return "".join("%s: ATTACK time=%d\n" % kv for kv in times.items())


def test_and_child_order_splits_a_class():
    # the packer breaks ties by creation order, so AND(1, 2) and AND(2, 1)
    # are different DAGs to it
    by_class, full = walks("r: OR(x, y)\nx: AND(a, b)\ny: AND(c, d)\n"
                           + leaves(a=1, b=2, c=2, d=1))
    assert [v.or_choices for v in by_class.variants] \
        == [v.or_choices for v in full.variants] == [{"r": "x"}, {"r": "y"}]
    assert len(by_class.variants) == len(full.variants)
    by_class, full = walks("r: OR(x, y)\nx: AND(a, b)\ny: AND(c, d)\n"
                           + leaves(a=1, b=2, c=1, d=2))
    assert [v.or_choices for v in by_class.variants] == [{"r": "x"}]
    assert len(by_class.variants) < len(full.variants) == 2


def test_sand_child_order_splits_a_class():
    by_class, full = walks("r: OR(x, y)\nx: SAND(a, b)\ny: SAND(c, d)\n"
                           + leaves(a=1, b=2, c=2, d=1))
    assert [v.or_choices for v in by_class.variants] \
        == [v.or_choices for v in full.variants] == [{"r": "x"}, {"r": "y"}]
    assert len(by_class.variants) == len(full.variants)


def test_different_weights_split_a_class():
    # both branches take 2, but x waits for a step of 1 where y has 2
    by_class, full = walks("r: OR(x, y)\nx: AND(a, b)\ny: AND(c, d)\n"
                           + leaves(a=1, b=2, c=2, d=2))
    assert [v.or_choices for v in by_class.variants] \
        == [v.or_choices for v in full.variants] == [{"r": "x"}, {"r": "y"}]
    assert len(by_class.variants) == len(full.variants)


def test_equal_branches_with_nested_ors_form_one_class():
    by_class, full = walks("r: OR(x, y)\nx: AND(p, a)\ny: AND(q, d)\n"
                           "p: OR(e, f)\nq: OR(g, h)\n"
                           + leaves(a=1, d=1, e=1, f=1, g=1, h=1))
    assert len(full.variants) == 4
    assert [v.or_choices for v in by_class.variants] \
        == [{"r": "x", "p": "e"}]
    assert len(by_class.variants) < len(full.variants)


# ------------------------------------------------------------ canonical form


def test_canonical_form_ignores_child_order():
    d1 = build("a: AND(b, c)\nb: ATTACK time=1\nc: ATTACK time=2\n")
    d2 = build("a: AND(c, b)\nc: ATTACK time=2\nb: ATTACK time=1\n")
    assert canonical_form(d1) == canonical_form(d2)


def test_canonical_form_sees_kinds_and_origins():
    d1 = build("a: AND(b, c)\nb: ATTACK time=1\nc: ATTACK time=2\n")
    d3 = build("a: OR(b, c)\nb: ATTACK time=1\nc: ATTACK time=2\n")
    d4 = build("a: AND(b, x)\nb: ATTACK time=1\nx: ATTACK time=2\n")
    assert canonical_form(d1) != canonical_form(d3)
    assert canonical_form(d1) != canonical_form(d4)


def test_canonical_form_of_nothing():
    assert canonical_form(Dag()) == "empty"


# ------------------------------------------------------------------ copying


def test_copy_preserves_structure_and_flags():
    dag = build_tree(load_tree("treasure"))
    twin = copy_dag(dag)
    assert names(twin) == names(dag)
    assert twin.root.name == dag.root.name
    by = {x.name: x for x in twin.nodes}
    for node in dag.nodes:
        assert [c.name for c in by[node.name].children] == [c.name for c in node.children]
        assert by[node.name].index == node.index


def test_restricted_copy_drops_the_rest():
    dag = build("a: AND(b, c)\nb: ATTACK time=1\nc: ATTACK time=1\n")
    by = {x.name: x for x in dag.nodes}
    keep = {by["a'"], by["b'"], by["b_1"]}
    twin = copy_dag(dag, restrict=keep)
    assert names(twin) == {"a'", "b'", "b_1"}
    assert [c.name for c in twin.root.children] == ["b_1"]
