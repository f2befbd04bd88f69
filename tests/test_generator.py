import csv
import io

import pytest

from adtsched import (
    BENCH_ROWS,
    InvalidParams,
    NodeKind,
    bench_row,
    generate_scaling_adt,
    min_schedule,
    preprocess,
    run_scalability,
    validate_adt,
)


@pytest.mark.parametrize("depth,width,children,size",
                         [(2, 2, 2, 5), (2, 4, 4, 9), (5, 16, 8, 49)])
def test_tree_sizes(depth, width, children, size):
    adt = generate_scaling_adt(depth, width, children)
    assert len(adt.nodes) == size
    assert validate_adt(adt) == []


def test_every_node_unit_time_except_first_leaf():
    adt = generate_scaling_adt(5, 16, 8)
    slow = [n for n in adt.nodes.values() if n.duration != 1]
    assert [(n.label, n.duration) for n in slow] == [("x1", 8)]


def test_narrow_trees_have_no_slow_leaf():
    adt = generate_scaling_adt(3, 2, 2)
    assert all(n.duration == 1 for n in adt.nodes.values())


def test_generated_trees_have_one_variant():
    variants = preprocess(generate_scaling_adt(3, 6, 2))
    assert len(variants) == 1
    assert variants[0].or_choices == {}
    assert variants[0].defences == {}


def test_generated_tree_is_all_and_gates():
    adt = generate_scaling_adt(4, 8, 4)
    kinds = {n.kind for n in adt.nodes.values()}
    assert kinds == {NodeKind.AND, NodeKind.LEAF}


@pytest.mark.parametrize("depth,width,children",
                         [(1, 2, 2), (2, 2, 1), (2, 1, 2), (3, 4, 6)])
def test_invalid_parameters_rejected(depth, width, children):
    with pytest.raises(InvalidParams):
        generate_scaling_adt(depth, width, children)


@pytest.mark.parametrize("depth,width,children,agents,slots",
                         [(2, 2, 2, 2, 3), (4, 16, 8, 5, 12), (5, 10, 10, 10, 6)])
def test_known_schedules(depth, width, children, agents, slots):
    r = min_schedule(preprocess(generate_scaling_adt(depth, width, children)))[0]
    assert (r.agents, r.slots) == (agents, slots)


def test_bench_row_fields():
    row = bench_row(2, 2, 2)
    assert (row["adtree"], row["agents"], row["slots"]) == (5, 2, 3)
    assert isinstance(row["runtime_ms"], float)


def test_sweep_has_48_rows():
    assert len(BENCH_ROWS) == 48
    assert len(set(BENCH_ROWS)) == 48
    assert all(d >= 2 and w >= c >= 2 for d, w, c in BENCH_ROWS)


def test_scalability_csv_layout():
    text = run_scalability(rows=[(2, 2, 2), (2, 4, 2)])
    assert "\r\n" in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["depth", "width", "children", "adtree",
                       "agents", "slots", "runtime_ms"]
    assert rows[1][:6] == ["2", "2", "2", "5", "2", "3"]
    assert rows[2][:6] == ["2", "4", "2", "7", "3", "4"]


def test_scalability_keeps_going_past_a_bad_row(caplog):
    text = run_scalability(rows=[(1, 0, 0), (2, 2, 2)])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[1] == ["1", "0", "0", "-", "-", "-", "-"]
    assert rows[2][:6] == ["2", "2", "2", "5", "2", "3"]


def test_bad_row_warns_on_stderr(capsys):
    text = run_scalability(rows=[(1, 0, 0), (2, 2, 2)])
    assert capsys.readouterr().err == (
        "WARNING row (1,0,0) failed: need depth >= 2, children >= 2, "
        "width >= children (got 1, 0, 0)\n")
    assert text.splitlines()[2].startswith("2,2,2,5,2,3,")
