import csv
import io
import json

import pytest

from adtsched import analyse, min_schedule, preprocess, report, unit_dag
from adtsched.report import (
    render_table,
    signature_heading,
    to_csv,
    to_json,
    variant_cost,
)

from conftest import load_tree
from rand_trees import chains_adt


def results_for(name):
    adt = load_tree(name)
    return adt, min_schedule(preprocess(adt))


def test_heading_formats():
    assert signature_heading({"p": "failed"}) == "p FAILED"
    assert signature_heading({"scr": "failed", "DTH": "operating"}) \
        == "scr FAILED, DTH OPERATING"
    assert signature_heading({}) == "no defences"


def test_cost_sums_each_origin_once(treasure):
    live = [r for r in min_schedule(preprocess(treasure)) if r.feasible][0]
    # b(500) + f(100) + h(500); the slow branch and the defence don't count
    assert variant_cost(live, treasure) == 1100


def test_table_layout():
    _, results = results_for("scaling")
    assert render_table(results[0]) == (
        "slot/agent | 1       | 2\n"
        "         5 | a', a_1 |\n"
        "         4 | b', b_1 | c', c_1\n"
        "         3 | e_3     | d', d_1\n"
        "         2 | e_2     | f', f_1\n"
        "         1 | e', e_1 | g', g_1\n"
    )


def test_table_cells_sorted_by_full_name():
    _, results = results_for("treasure")
    live = [r for r in results if r.feasible][0]
    top = render_table(live).splitlines()[1]
    assert top == "       125 | GA', TF'_2, TS', h_3 |"


def test_table_has_one_row_per_slot():
    _, results = results_for("treasure")
    live = [r for r in results if r.feasible][0]
    lines = render_table(live).splitlines()
    assert len(lines) == live.slots + 1
    assert lines[0].startswith("slot/agent | 1")
    assert lines[-1].startswith("         1 |")


def test_infeasible_banner():
    _, results = results_for("treasure")
    dead = [r for r in results if not r.feasible][0]
    assert render_table(dead) == "attack impossible\n"


def test_elided_table_collapses_long_runs():
    _, results = results_for("treasure")
    live = [r for r in results if r.feasible][0]
    text = render_table(live, elide=True)
    lines = text.splitlines()
    assert len(lines) == 14
    slots = [l.split("|")[0].strip() for l in lines[1:]]
    assert slots == ["125", "124", "123", "122", "121", "120", "⋯",
                     "62", "61", "60", "⋯", "2", "1"]
    # untouched rows render exactly as in the full table
    assert "120 | f_120" in text and "| b_60" in text


def test_elide_leaves_short_tables_alone():
    _, results = results_for("scaling")
    assert render_table(results[0], elide=True) == render_table(results[0])


def test_json_schema_and_order():
    adt, results = results_for("treasure")
    payload = json.loads(to_json(results, adt))
    assert list(payload) == ["variants"]
    live, dead = payload["variants"]
    assert list(live) == ["defences", "or_choices", "feasible", "slots",
                          "agents", "cost", "assignment"]
    assert live["defences"] == {"p": "failed"}
    assert live["or_choices"] == {"GA": "h"}
    assert (live["slots"], live["agents"], live["cost"]) == (125, 2, 1100)
    assert len(live["assignment"]) == 193
    assert dead["feasible"] is False and dead["assignment"] == []


def test_json_assignment_rows_are_sorted():
    adt, results = results_for("treasure")
    live = json.loads(to_json(results, adt))["variants"][0]
    keys = [(-row["slot"], row["agent"], row["node"]) for row in live["assignment"]]
    assert keys == sorted(keys)
    assert live["assignment"][0] == {"node": "GA'", "origin": "GA",
                                     "agent": 1, "slot": 125}


def test_json_of_nothing():
    adt, _ = results_for("treasure")
    assert to_json([], adt) == '{\n  "variants": []\n}\n'


def test_json_is_byte_stable():
    adt, results = results_for("forestall")
    assert to_json(results, adt) == to_json(results, adt)


def test_csv_shape():
    adt, results = results_for("treasure")
    text = to_csv(results, adt)
    assert "\r\n" in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["variant_id", "defences", "feasible",
                       "slots", "agents", "n", "cost"]
    assert rows[1] == ["1", "p=failed", "true", "125", "2", "185", "1100"]
    assert rows[2] == ["2", "p=operating", "false", "0", "0", "0", "0"]


def test_csv_joins_multiple_defences():
    adt, results = results_for("gain-admin")
    rows = list(csv.reader(io.StringIO(to_csv(results, adt))))
    assert all(";" in row[1] for row in rows[1:])
    assert rows[1][1].startswith("scr=failed;")


def test_rendered_cells_agree_with_the_assignment():
    adt, results = results_for("forestall")
    for result in results:
        if not result.feasible:
            continue
        text = render_table(result)
        printed = []
        for line in text.splitlines()[1:]:
            for cell in line.split("|")[1:]:
                printed.extend(x.strip() for x in cell.split(",") if x.strip())
        assert sorted(printed) == sorted(
            n.name for n in unit_dag(result.variant.dag).nodes)


def rotating():
    """Three chains on two agents: every chain runs in pieces."""
    adt = chains_adt([5, 5, 6])
    result, = analyse(adt, slots_override=8)
    assert result.agents == 2
    assert all(len(runs) > 1 for node, runs in result.assignment.items()
               if node.weight)
    return adt, result


def test_json_names_every_step_of_a_chain_run_in_pieces():
    adt, result = rotating()
    records = json.loads(to_json([result], adt))["variants"][0]["assignment"]
    got = sorted((r["node"], r["agent"], r["slot"]) for r in records)
    assert got == sorted((x.name, x.agent, x.slot)
                         for x in unit_dag(result.variant.dag).nodes)


def test_table_places_every_step_of_a_chain_run_in_pieces():
    adt, result = rotating()
    rows = render_table(result).splitlines()[1:]
    got = sorted((name.strip(), agent, int(row.split("|")[0]))
                 for row in rows
                 for agent, cell in enumerate(row.split("|")[1:], start=1)
                 for name in cell.split(",") if name.strip())
    assert got == sorted((x.name, x.agent, x.slot)
                         for x in unit_dag(result.variant.dag).nodes)


def test_table_up_to_the_cell_limit_renders(monkeypatch):
    _, results = results_for("scaling")
    result = results[0]
    monkeypatch.setattr(report, "MAX_CELLS", result.slots * result.agents)
    assert render_table(result) and render_table(result, elide=True)
    monkeypatch.setattr(report, "MAX_CELLS", result.slots * result.agents - 1)
    for elide in (False, True):
        with pytest.raises(ValueError, match="5 slots x 2 agents prints 10"):
            render_table(result, elide=elide)


def test_json_up_to_the_cell_limit_renders(monkeypatch):
    adt, results = results_for("treasure")
    records = sum(len(v["assignment"])
                  for v in json.loads(to_json(results, adt))["variants"])
    monkeypatch.setattr(report, "MAX_CELLS", records)
    assert to_json(results, adt)
    monkeypatch.setattr(report, "MAX_CELLS", records - 1)
    with pytest.raises(ValueError, match="prints %d cells" % records):
        to_json(results, adt)
