import pytest

from adtsched import NodeKind, ParseError, Role, parse_adt, serialize_adt, validate_adt
from adtsched.parser import export_dot

from conftest import load_tree

TREASURE = """
# the classic two-burglar scenario
root: TS
TS: CAND(TF, p)
TF: SAND(ST, GA)
ST: AND(b, f) time=2
GA: OR(h, e)
b: ATTACK time=60 cost=500
f: ATTACK time=120 cost=100
h: ATTACK time=3 cost=500
e: ATTACK time=10
p: DEFENCE time=10 cost=100
"""


def test_parse_gates_and_leaves():
    adt = parse_adt(TREASURE)
    assert adt.root == "TS"
    assert adt.node("TS").kind is NodeKind.CAND
    assert adt.node("TF").children == ["ST", "GA"]
    assert adt.node("ST").duration == 2
    assert adt.node("b").duration == 60
    assert adt.node("b").cost == 500
    assert adt.node("e").cost == 0
    assert adt.node("p").role is Role.DEFENCE
    assert not validate_adt(adt)


def test_root_inferred_when_directive_absent():
    """Without ``root:`` the single label never used as a child is the root."""
    adt = parse_adt("a: AND(b, c)\nb: ATTACK time=1\nc: ATTACK time=1\n")
    assert adt.root == "a"


def test_root_directive_wins_over_inference():
    adt = parse_adt("root: b\na: ATTACK time=1\nb: AND(a)\n")
    assert adt.root == "b"


def test_kind_keyword_is_case_insensitive():
    adt = parse_adt("a: and(b)\nb: attack time=1\n")
    assert adt.node("a").kind is NodeKind.AND


def test_labels_are_case_sensitive():
    adt = parse_adt("a: AND(B, b)\nB: ATTACK time=1\nb: ATTACK time=2\n")
    assert adt.node("B").duration == 1
    assert adt.node("b").duration == 2


def test_hour_and_minute_suffixes():
    adt = parse_adt("a: AND(b, c)\nb: ATTACK time=2h\nc: ATTACK time=30min\n")
    assert adt.node("b").duration == 120
    assert adt.node("c").duration == 30


def test_quoted_condition_survives_with_spaces():
    adt = parse_adt('a: ATTACK time=1 condition="door is open"\n')
    assert adt.node("a").condition == "door is open"


@pytest.mark.parametrize("time, duration",
                         [("7", 7), ("2h", 120), ("30min", 30)])
def test_leaf_line_with_every_documented_attribute(time, duration):
    """Every attribute form the README documents, on one leaf line."""
    line = 'b: attack time=%s cost=500 condition="gate open"  # bribe\n' % time
    node = parse_adt(line).node("b")
    assert (node.kind, node.role) == (NodeKind.LEAF, Role.ATTACK)
    assert (node.duration, node.cost) == (duration, 500)
    assert node.condition == "gate open"


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\na: ATTACK time=1  # trailing\n\n"
    adt = parse_adt(text)
    assert list(adt.nodes) == ["a"]


def test_hash_inside_quotes_is_not_a_comment():
    adt = parse_adt('a: ATTACK time=1 condition="see #42"\n')
    assert adt.node("a").condition == "see #42"


@pytest.mark.parametrize(
    "text,kind,line",
    [
        ("a: ATTACK time=1\n???\n", "syntax", 2),
        ("a: FOO(b)\nb: ATTACK time=1\n", "unknown-kind", 1),
        ("a: AND(b)\n", "undefined-child", 1),
        ("a: ATTACK time=1\na: ATTACK time=2\n", "duplicate-definition", 2),
        ("a: AND(b)\nb: AND(a)\n", "missing-root", 1),
        ("root: z\na: ATTACK time=1\n", "undefined-child", 1),
        ("a: ATTACK time=x\n", "syntax", 1),
    ],
)
def test_parse_errors_carry_kind_and_line(text, kind, line):
    with pytest.raises(ParseError) as err:
        parse_adt(text)
    assert err.value.kind == kind
    assert err.value.line == line
    assert "line %d" % line in str(err.value)


def test_round_trip_preserves_structure():
    adt = parse_adt(TREASURE)
    again = parse_adt(serialize_adt(adt))
    assert again.root == adt.root
    assert set(again.nodes) == set(adt.nodes)
    for label, node in adt.nodes.items():
        twin = again.node(label)
        assert twin.kind is node.kind
        assert twin.children == node.children
        assert twin.duration == node.duration
        assert twin.cost == node.cost
        assert twin.condition == node.condition


@pytest.mark.parametrize(
    "name",
    ["treasure", "forestall", "iot-dev", "gain-admin",
     "interrupted", "last", "scaling", "scaling-example"],
)
def test_round_trip_all_bundled_trees(name):
    adt = load_tree(name)
    again = parse_adt(serialize_adt(adt))
    assert again.root == adt.root
    assert {l: (n.kind, tuple(n.children), n.duration) for l, n in adt.nodes.items()} \
        == {l: (n.kind, tuple(n.children), n.duration) for l, n in again.nodes.items()}
    assert not validate_adt(again)


def test_serialize_emits_root_directive_first():
    adt = parse_adt("a: AND(b)\nb: ATTACK time=1\n")
    assert serialize_adt(adt).splitlines()[0] == "root: a"


def test_dot_export_of_tree():
    dot = export_dot(parse_adt(TREASURE))
    assert dot.startswith("digraph adt {")
    assert dot.rstrip().endswith("}")
    assert dot.count("shape=triangle") == 5  # one per leaf
    assert '"TS" -> "TF"' in dot
    assert "darkgreen" in dot  # the defence leaf
    assert "t=60" in dot


def test_dot_export_of_dag():
    from conftest import preprocess

    variant = preprocess(parse_adt("a: SAND(b, c)\nb: ATTACK time=1\nc: ATTACK time=1\n"))[0]
    dot = export_dot(variant.dag)
    assert dot.startswith("digraph dag {")
    assert "shape=diamond" in dot  # unit-duration nodes
    assert "shape=trapezium" in dot  # zero-duration joins


@pytest.mark.parametrize("attrs", ["time=٣", "time=²h",
                                   "cost=٣", "cost=²"])
def test_only_ascii_digits_count(attrs):
    with pytest.raises(ParseError) as err:
        parse_adt("a: ATTACK %s\n" % attrs)
    assert (err.value.kind, err.value.line) == ("syntax", 1)


@pytest.mark.parametrize("attrs", ["cost=1 cost=9", "time=1 time=2",
                                   'condition=x condition="y"'])
def test_repeated_attribute_is_rejected(attrs):
    with pytest.raises(ParseError) as err:
        parse_adt("r: AND(a)\na: ATTACK time=1 %s\n" % attrs)
    assert (err.value.kind, err.value.line) == ("duplicate-definition", 2)
    assert "given twice" in str(err.value)


def test_repeated_child_is_named_as_such():
    with pytest.raises(ParseError) as err:
        parse_adt("r: AND(a, b, a)\na: ATTACK time=1\nb: ATTACK time=1\n")
    assert (err.value.kind, err.value.line) == ("duplicate-definition", 1)
    assert "'r' lists child 'a' twice" in str(err.value)


def test_validation_names_a_repeated_child():
    adt = parse_adt("r: AND(a)\na: ATTACK time=1\n")
    adt.node("r").children.append("a")
    problems = validate_adt(adt)
    assert [(p.kind, p.message) for p in problems] == [
        ("duplicate-child", "'r' lists child 'a' twice")]


def test_cycle_without_a_root_is_named_as_such():
    with pytest.raises(ParseError) as err:
        parse_adt("a: AND(b)\nb: OR(a)\n")
    assert err.value.kind == "missing-root"
    assert "cycle" in str(err.value)
    assert "candidates" not in str(err.value)
