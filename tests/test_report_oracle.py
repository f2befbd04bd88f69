"""The table and JSON writers print what the writers they replaced printed,
byte for byte (``reference_report.py``), on seeded random trees under every
``schedule`` mode, on the bundled trees and on the edge cases of the
display-order grid."""

import random

import pytest

from adtsched import analyse, parse_adt
from adtsched.report import render_table, to_json

import reference_report
from conftest import TREES, load_tree
from rand_trees import chains_adt, random_adt


def assert_same_output(adt, results):
    for result in results:
        assert render_table(result) == reference_report.render_table(result)
        assert (render_table(result, elide=True)
                == reference_report.render_table(result, elide=True))
    assert to_json(results, adt) == reference_report.to_json(results, adt)


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
