"""Pipeline stages: time normalisation, sequence expansion, defence
resolution, choice enumeration."""

import pytest

from adtsched import (
    FAILED,
    OPERATING,
    AllZeroDurations,
    Dag,
    DagKind,
    NameCollision,
    NonDivisibleDuration,
    apply_defence_config,
    compute_time_unit,
    defence_signature,
    enumerate_defence_variants,
    expand_sand,
    min_schedule,
    normalize_time,
    parse_adt,
    preprocess,
    preprocess_cases,
    validate_adt,
)
from adtsched.preprocess import canonical_form, copy_dag, defence_roots

from conftest import load_tree
from reference_or_walk import reachable


def build(text):
    return expand_sand(normalize_time(parse_adt(text)))


def names(dag):
    return {x.name for x in dag.nodes}


# ---------------------------------------------------------------- durations


def test_time_unit_is_gcd_of_durations():
    assert compute_time_unit(parse_adt("a: AND(b, c)\nb: ATTACK time=4\nc: ATTACK time=6\n")) == 2
    assert compute_time_unit(load_tree("treasure")) == 1


def test_all_zero_durations_rejected():
    with pytest.raises(AllZeroDurations):
        compute_time_unit(parse_adt("a: ATTACK\n"))


def test_non_divisible_duration_rejected():
    adt = parse_adt("a: AND(b, c)\nb: ATTACK time=10\nc: ATTACK time=4\n")
    with pytest.raises(NonDivisibleDuration):
        normalize_time(adt, tunit=4)


def test_explicit_coarser_unit():
    adt = parse_adt("a: AND(b, c)\nb: ATTACK time=4\nc: ATTACK time=2\n")
    dag = normalize_time(adt)  # tunit 2
    assert dag.n == 3


# ------------------------------------------------------------ normalisation


def test_duration_becomes_a_chain():
    dag = normalize_time(parse_adt("a: AND(b, c)\nb: ATTACK time=3\nc: ATTACK time=1\n"))
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
    dag = build("s: SAND(a, b) time=2\na: ATTACK time=1\nb: ATTACK time=1\n")
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


def test_cases_merge_indistinguishable_outcomes():
    cases = preprocess_cases(load_tree("iot-dev"))
    blocked = [c for c in cases if not any(v.feasible for v in c.variants)]
    assert len(blocked) == 1
    assert len(blocked[0].merged_signatures) == 3


def test_gain_admin_collapses_to_three_cases():
    cases = preprocess_cases(load_tree("gain-admin"))
    assert len(cases) == 3
    assert sorted(len(c.merged_signatures) for c in cases) == [1, 1, 2]


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
