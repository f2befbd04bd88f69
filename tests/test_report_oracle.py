"""The table and JSON writers print what the writers they replaced printed,
byte for byte (``reference_report.py``), on seeded random trees under every
``schedule`` mode, on the bundled trees and on the edge cases of the
display-order grid.  Long tables, which take the stretch path of
``render_table``, come from long random trees, bundled trees with scaled
durations and chain sets under a relaxed deadline; the path choice itself
is pinned down at the end."""

import math
import random

import pytest

from adtsched import Adt, AdtNode, NodeKind, Role, analyse, parse_adt
from adtsched import report
from adtsched.report import STRETCH_ROWS, render_table, to_json

import reference_report
from conftest import TREES, load_tree
from rand_trees import chains_adt, critical_slots, random_adt


def assert_same_output(adt, results):
    for result in results:
        assert render_table(result) == reference_report.render_table(result)
        assert (render_table(result, elide=True)
                == reference_report.render_table(result, elide=True))
    assert to_json(results, adt) == reference_report.to_json(results, adt)


def stretch_path(result):
    """Whether ``render_table(result)`` takes the stretch path."""
    return result.feasible and result.slots >= STRETCH_ROWS * sum(
        map(len, result.assignment.values()))


def every_mode(adt):
    """The results of plain ``schedule``, ``--all-or-variants`` and
    ``--slots-override`` at L+1 and L+5, L the slowest case's minimum."""
    plain = analyse(adt)
    yield plain
    yield analyse(adt, all_variants=True)
    fastest = max((r.slots for r in plain if r.feasible), default=None)
    if fastest is not None:
        for extra in (1, 5):
            yield analyse(adt, slots_override=fastest + extra)


@pytest.mark.parametrize("max_time", [3, 12])
def test_random_trees_print_as_before(max_time):
    for seed in range(150):
        adt = random_adt(random.Random(seed), max_leaves=10,
                         max_time=max_time,
                         defence_prob=(0.0, 0.2, 0.5)[seed % 3])
        for results in every_mode(adt):
            assert_same_output(adt, results)


@pytest.mark.parametrize("path", sorted(TREES.glob("*.adt")),
                         ids=lambda p: p.stem)
def test_bundled_trees_print_as_before(path):
    adt = load_tree(path.stem)
    for results in every_mode(adt):
        assert_same_output(adt, results)


def test_a_fastest_variant_without_steps():
    adt = parse_adt("r: OR(a, b)\na: ATTACK time=0\nb: ATTACK time=1\n")
    results = analyse(adt)
    assert results[0].feasible and results[0].slots == 0
    assert render_table(results[0]) == "slot/agent\n"
    assert '"assignment": []' in to_json(results, adt)
    assert_same_output(adt, results)


def test_a_cell_shared_by_a_step_and_zero_duration_nodes():
    adt = chains_adt([3, 1, 0])
    results = analyse(adt)
    assert (render_table(results[0]).splitlines()[1]
            == "         3 | c0_3, c2', r' | c1', c1_1")
    assert_same_output(adt, results)


def test_an_idle_last_agent_ends_its_rows_in_a_bar():
    adt = chains_adt([3, 1])
    results = analyse(adt)
    assert render_table(results[0]).splitlines()[1:] == [
        "         3 | c0_3, r'  | c1', c1_1",
        "         2 | c0_2      |",
        "         1 | c0', c0_1 |",
    ]
    assert_same_output(adt, results)


def test_a_chain_split_over_several_agents():
    adt = chains_adt([5, 5, 6])
    results = analyse(adt, slots_override=8)
    result, = results
    assert any(len({agent for agent, _, _ in runs}) > 1
               for node, runs in result.assignment.items() if node.weight)
    assert_same_output(adt, results)


def test_long_uneventful_stretches_elide_as_before():
    adt = chains_adt([40, 40, 7, 3])
    for results in every_mode(adt):
        assert any("⋯" in render_table(r, elide=True) for r in results)
        assert_same_output(adt, results)


def test_long_random_trees_print_as_before():
    stretched = 0
    for seed in range(60):
        adt = random_adt(random.Random(seed), max_leaves=10, max_time=300,
                         defence_prob=0.3)
        for results in every_mode(adt):
            assert_same_output(adt, results)
            stretched += sum(map(stretch_path, results))
    assert stretched >= 100


def scaled(adt, rng):
    """``adt`` with its attack leaves' durations, in units of their
    greatest common divisor, scaled by one factor in 20..75 and a per-leaf
    factor in [0.9, 1.1]."""
    attacks = [node for node in adt.nodes.values()
               if node.kind is NodeKind.LEAF and node.role is Role.ATTACK]
    unit = math.gcd(*(node.duration for node in attacks)) or 1
    factor = rng.randint(20, 75)
    nodes = {}
    for label, node in adt.nodes.items():
        duration = node.duration
        if node in attacks:
            duration = round(duration // unit * factor
                             * rng.uniform(0.9, 1.1))
        nodes[label] = AdtNode(label, node.kind, list(node.children),
                               duration, node.cost, node.condition, node.role)
    return Adt(adt.root, nodes)


@pytest.mark.parametrize("path", sorted(TREES.glob("*.adt")),
                         ids=lambda p: p.stem)
def test_scaled_bundled_trees_print_as_before(path):
    rng = random.Random(path.stem)
    adt = scaled(load_tree(path.stem), rng)
    for results in every_mode(adt):
        assert_same_output(adt, results)


def test_chain_sets_under_a_relaxed_deadline_print_as_before():
    # fewer agents than chains leave idle cells, often in the last column
    stretched = 0
    for seed in range(40):
        rng = random.Random(seed)
        adt = chains_adt([rng.randint(0, rng.choice((300, 3000)))
                          for _ in range(rng.randint(2, 4))])
        fastest = critical_slots(adt)
        for slots in (fastest + rng.randint(1, 5),
                      round(fastest * rng.uniform(1.1, 3.0))):
            results = analyse(adt, slots_override=slots)
            assert_same_output(adt, results)
            stretched += sum(map(stretch_path, results))
    assert stretched >= 12


def test_labels_with_percent_signs_and_spaces_print_as_before():
    nodes = {
        "r%d": AdtNode("r%d", NodeKind.SAND, ["a%s", "b b", "c%", "d"]),
        "a%s": AdtNode("a%s", NodeKind.LEAF, duration=400),
        "b b": AdtNode("b b", NodeKind.AND, ["%", "e"]),
        "%": AdtNode("%", NodeKind.LEAF, duration=250),
        "e": AdtNode("e", NodeKind.LEAF, duration=0),
        "c%": AdtNode("c%", NodeKind.LEAF, duration=900),
        "d": AdtNode("d", NodeKind.LEAF, duration=3),
    }
    adt = Adt("r%d", nodes)
    for results in every_mode(adt):
        assert any(map(stretch_path, results))
        assert_same_output(adt, results)


def test_a_first_step_named_apart_from_its_chain_prints_as_before():
    # the pipeline names X_1 ``origin_1``; a library caller may not
    adt = chains_adt([701, 300, 0])
    for results in every_mode(adt):
        for result in results:
            for node in result.assignment:
                if node.weight:
                    node.name = "first %s" % node.origin
        assert any(map(stretch_path, results))
        assert_same_output(adt, results)


def refuse(*args):
    raise AssertionError("the other path rendered the table")


def test_a_long_single_chain_takes_the_stretch_path(monkeypatch):
    adt = parse_adt("r: SAND(a, b)\na: ATTACK time=99997\n"
                    "b: ATTACK time=3\n")
    result, = analyse(adt)
    assert result.slots == 100_000
    expected = report._cell_table(result, False)
    monkeypatch.setattr(report, "_cell_table", refuse)
    assert render_table(result) == expected


def test_a_wide_chain_set_takes_the_per_cell_path(monkeypatch):
    rng = random.Random(80)
    adt = chains_adt([rng.randint(1, 200) for _ in range(80)])
    result, = analyse(adt)
    assert result.agents > 30 and not stretch_path(result)
    monkeypatch.setattr(report, "_stretch_table", refuse)
    assert render_table(result) == reference_report.render_table(result)


def test_elide_always_takes_the_per_cell_path(monkeypatch):
    adt = parse_adt("r: SAND(a, b)\na: ATTACK time=99997\n"
                    "b: ATTACK time=3\n")
    result, = analyse(adt)
    assert stretch_path(result)
    monkeypatch.setattr(report, "_stretch_table", refuse)
    assert (render_table(result, elide=True)
            == reference_report.render_table(result, elide=True))
