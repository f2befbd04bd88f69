"""Command line behaviour: wiring, flags, exit codes, determinism."""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from adtsched import cli, parse_adt, scheduler, serialize_adt

from conftest import TREES
from rand_trees import random_adt

TREASURE = str(TREES / "treasure.adt")
GAIN = str(TREES / "gain-admin.adt")
IOT = str(TREES / "iot-dev.adt")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- schedule


def test_schedule_table_default(capsys):
    code, out, _ = run(capsys, "schedule", TREASURE)
    assert code == 0
    assert "p FAILED [GA=h]: slots=125 agents=2 cost=1100" in out
    assert "slot/agent | 1                    | 2" in out
    assert "       125 | GA', TF'_2, TS', h_3 |" in out
    assert "p OPERATING: attack impossible" in out


def test_schedule_elide(capsys):
    code, out, _ = run(capsys, "schedule", TREASURE, "--elide")
    assert code == 0
    assert "⋯" in out
    assert len(out.splitlines()) < 30


def test_schedule_json(capsys):
    code, out, _ = run(capsys, "schedule", IOT, "--json")
    assert code == 0
    payload = json.loads(out)
    live = [v for v in payload["variants"] if v["feasible"]]
    assert len(live) == 1
    assert (live[0]["slots"], live[0]["agents"]) == (694, 2)
    assert live[0]["or_choices"] == {"CPN": "AL"}


def test_schedule_csv(capsys):
    code, out, _ = run(capsys, "schedule", GAIN, "--csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "variant_id,defences,feasible,slots,agents,n,cost"
    assert len(lines) == 4  # one per defence case


def test_schedule_all_or_variants(capsys):
    _, default_out, _ = run(capsys, "schedule", IOT, "--json")
    code, out, _ = run(capsys, "schedule", IOT, "--json", "--all-or-variants")
    assert code == 0
    assert len(json.loads(out)["variants"]) \
        > len(json.loads(default_out)["variants"])


def test_schedule_slots_override(capsys):
    code, out, _ = run(capsys, "schedule", TREASURE, "--slots-override", "185")
    assert code == 0
    assert "slots=185 agents=1" in out


def test_one_report_per_defence_case(capsys):
    _, out, _ = run(capsys, "schedule", GAIN)
    assert out.count("slots=") == 3
    for marker in ("slots=2942 agents=1", "slots=4320 agents=1",
                   "slots=5762 agents=1"):
        assert marker in out


def long_action_tree(tmp_path, duration):
    tree = tmp_path / "long.adt"
    tree.write_text("r: AND(a, b)\na: ATTACK time=%d\nb: ATTACK time=1\n"
                    % duration)
    return str(tree)


@pytest.mark.parametrize("flags", [(), ("--elide",), ("--json",)])
def test_output_above_the_cell_limit_exits_2_at_once(capsys, tmp_path,
                                                     flags):
    tree = long_action_tree(tmp_path, 10**9)
    start = time.perf_counter()
    code, out, err = run(capsys, "schedule", tree, *flags)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "limit of 1000000;" in err


def test_summary_of_a_billion_step_action_still_prints(capsys, tmp_path):
    code, out, _ = run(capsys, "schedule", long_action_tree(tmp_path, 10**9),
                       "--csv")
    assert code == 0
    assert out.splitlines()[1] == "1,,true,1000000000,2,1000000001,0"


# ----------------------------------------------------------------- variants


def test_variants_listing(capsys):
    code, out, _ = run(capsys, "variants", TREASURE)
    assert code == 0
    assert out == (
        "case 1: p FAILED\n"
        "  variant 1: [GA=h] n=185 slots=125 bounds (1,2]\n"
        "case 2: p OPERATING\n"
        "  attack impossible\n"
    )


def test_variants_show_merged_outcomes(capsys):
    _, out, _ = run(capsys, "variants", IOT)
    assert "case 1: inc FAILED, tla FAILED" in out
    assert "variant 1: [CPN=AL] n=784 slots=694 bounds (1,2]" in out
    assert "variant 2: [CPN=AW] n=1114 slots=694 bounds (1,2]" in out
    assert "(also covers: inc FAILED, tla OPERATING; inc OPERATING, tla OPERATING)" in out


def test_variants_with_no_unit_steps(capsys, tmp_path):
    tree = tmp_path / "instant.adt"
    tree.write_text("a: OR(b, c)\nb: ATTACK time=1\nc: ATTACK\n")
    code, out, err = run(capsys, "variants", str(tree))
    assert code == 0
    assert out == "case 1: no defences\n  variant 1: [a=c] n=0 slots=0\n"
    assert err == ""


def test_internal_error_exits_3(capsys, monkeypatch):
    # a packer that always leaves one step over makes the bisection fail
    monkeypatch.setattr(scheduler, "schedule_candidate",
                        lambda dag, slots, agents: 1)
    code, out, err = run(capsys, "schedule", str(TREES / "interrupted.adt"))
    assert code == 3
    assert out == ""
    assert err == "internal error: 3 agents rejected despite width 3\n"


def test_unsound_schedule_exits_3(capsys, monkeypatch):
    # a packer that reports success but starts every chain in slot 1 on
    # agent 1: the schedule is checked before it is returned
    packer = scheduler.schedule_candidate

    def overlapping(dag, slots, agents):
        left = packer(dag, slots, agents)
        for node in dag.nodes:
            if node.weight:
                node.runs = ((1, 1, node.weight),)
        return left

    monkeypatch.setattr(scheduler, "schedule_candidate", overlapping)
    code, out, err = run(capsys, "schedule", str(TREES / "interrupted.adt"))
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: schedule fails its check: ")
    assert "shares (1, 1) with" in err


def test_or_walk_needs_no_recursion_per_gate(tmp_path):
    # an AND over 300 two-way ORs has one fastest variant; the walk over
    # them must not recurse once per chosen OR
    lines = ["r: AND(%s)" % ", ".join("o%d" % i for i in range(300))]
    for i in range(300):
        lines += ["o%d: OR(a%d, b%d)" % (i, i, i),
                  "a%d: ATTACK time=1" % i, "b%d: ATTACK time=2" % i]
    tree = tmp_path / "or-fan.adt"
    tree.write_text("\n".join(lines) + "\n")
    script = ("import sys\n"
              "from adtsched import cli\n"
              "sys.setrecursionlimit(150)\n"
              "sys.exit(cli.main(['variants', sys.argv[1]]))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, str(tree)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    out = done.stdout.splitlines()
    assert out[0] == "case 1: no defences"
    assert [x for x in out if x.startswith("  variant ")] == [out[1]]
    assert out[1].endswith(" n=300 slots=1 bounds (299,300]")


def deep_chains(tmp_path):
    """A counter gate over a 1,000-deep defence chain, and a 300-deep
    chain of counter gates."""
    lines = ["r: CAND(a, d0)", "a: ATTACK time=1"]
    for i in range(1000):
        lines.append("d%d: OR(e%d, d%d)" % (i, i, i + 1) if i % 2 else
                     "d%d: AND(d%d, e%d)" % (i, i + 1, i))
        lines.append("e%d: DEFENCE time=1" % i)
    lines.append("d1000: DEFENCE time=1")
    defences = tmp_path / "defence-chain.adt"
    defences.write_text("\n".join(lines) + "\n")
    lines = ["c%d: %s(c%d, d%d)" % (i, ("CAND", "SCAND")[i % 2], i + 1, i)
             for i in range(300)]
    lines += ["d%d: DEFENCE time=1" % i for i in range(300)]
    lines.append("c300: ATTACK time=1")
    counters = tmp_path / "counter-chain.adt"
    counters.write_text("\n".join(lines) + "\n")
    return str(defences), str(counters)


def test_defence_resolution_needs_no_recursion_per_node(tmp_path):
    script = ("import json, sys\n"
              "from adtsched import cli, enumerate_defence_variants, "
              "parse_adt\n"
              "sys.setrecursionlimit(150)\n"
              "defences, counters = sys.argv[1:]\n"
              "with open(defences) as tree:\n"
              "    configs = enumerate_defence_variants(parse_adt(tree.read()))\n"
              "print(len(configs), sum(s == 'operating'\n"
              "                        for s in configs[1].values()))\n"
              "sys.exit(cli.main(['variants', defences])\n"
              "         or cli.main(['schedule', counters, '--json']))\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script,
                           *deep_chains(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    counts, case1, _, case2, _, report = done.stdout.split("\n", 5)
    # the operating block of the chain: every AND child, an OR's last one
    assert counts == "2 501"
    assert case1 == "case 1: d0 FAILED"
    assert case2 == "case 2: d0 OPERATING"
    results = json.loads(report)["variants"]
    assert [r["feasible"] for r in results] == [True, False]
    assert results[0]["slots"] == 1


def test_name_collision_across_or_branches_is_no_error(capsys, tmp_path):
    # s's SAND joints and the steps of the label s' share the names s'_1
    # and s'_2, but the two branches of r never meet in one variant
    tree = tmp_path / "branches.adt"
    tree.write_text("r: OR(s, t)\ns: SAND(a, b)\nt: AND(s')\n"
                    "a: ATTACK time=1\nb: ATTACK time=1\n"
                    "s': ATTACK time=2\n")
    code, out, err = run(capsys, "schedule", str(tree))
    assert code == 0
    assert out.startswith("no defences [r=s]: slots=2 agents=1 cost=0\n")
    assert err == ""


# ------------------------------------------------------- equally shaped ORs


def or_fan_text(k):
    """An AND over k two-way ORs whose branches are leaves of time 2."""
    lines = ["r: AND(%s)" % ", ".join("o%d" % i for i in range(k))]
    for i in range(k):
        lines += ["o%d: OR(a%d, b%d)" % (i, i, i),
                  "a%d: ATTACK time=2" % i, "b%d: ATTACK time=2" % i]
    return "\n".join(lines) + "\n"


def primed_fan_text(k):
    """``or_fan_text(k)`` ANDed with a SAND ``s`` and a label ``s'`` of
    time 0, which has no step ``s'_1`` that could clash."""
    head, rest = or_fan_text(k).split("\n", 1)
    return (head[:-1] + ", s, s')\n" + rest + "s: SAND(c, d)\n"
            "c: ATTACK time=1\nd: ATTACK time=1\ns': ATTACK time=0\n")


# each tree ORs two equally shaped branches, and the second holds a timed
# s' or a SAND s whose names clash with those of the s outside the OR
SKIPPED_S_PRIME = ("r: AND(s, o)\ns: SAND(a, b)\no: OR(x, s')\n"
                   "a: ATTACK time=1\nb: ATTACK time=1\n"
                   "x: ATTACK time=1\ns': ATTACK time=1\n")
SKIPPED_S = ("r: AND(o, s')\no: OR(u, s)\nu: SAND(a, b)\ns: SAND(c, d)\n"
             "a: ATTACK time=1\nb: ATTACK time=1\nc: ATTACK time=1\n"
             "d: ATTACK time=1\ns': ATTACK time=1\n")


def test_default_schedule_schedules_one_variant_of_an_or_fan(
        capsys, monkeypatch, tmp_path):
    tree = tmp_path / "or-fan.adt"
    tree.write_text(or_fan_text(12))
    sent = []

    def counting(variants, min_schedule=scheduler.min_schedule, **kwargs):
        sent.extend(variants)
        return min_schedule(variants, **kwargs)

    monkeypatch.setattr(scheduler, "min_schedule", counting)
    code, out, _ = run(capsys, "schedule", str(tree), "--json")
    assert code == 0
    assert len(sent) == 1
    [variant] = json.loads(out)["variants"]
    assert variant["or_choices"] == {"o%d" % i: "a%d" % i for i in range(12)}
    assert (variant["slots"], variant["agents"]) == (1, 12)
    code, out, _ = run(capsys, "schedule", str(tree), "--json",
                       "--all-or-variants")
    assert code == 0
    assert len(json.loads(out)["variants"]) == 4096


@pytest.mark.parametrize("name", sorted(
    [path.stem for path in TREES.glob("*.adt")] + ["or-fan"]))
def test_preprocess_cases_lists_what_analyse_schedules(monkeypatch, name):
    text = or_fan_text(12) if name == "or-fan" \
        else (TREES / (name + ".adt")).read_text()
    adt = parse_adt(text)
    sent = []

    def counting(variants, min_schedule=scheduler.min_schedule, **kwargs):
        sent.append([(v.signature, v.or_choices, v.dag.n) for v in variants])
        return min_schedule(variants, **kwargs)

    monkeypatch.setattr(scheduler, "min_schedule", counting)
    scheduler.analyse(adt)
    listed = [[(v.signature, v.or_choices, v.dag.n) for v in case.variants]
              for case in scheduler.preprocess_cases(adt)]
    assert sent == listed
    if name == "or-fan":
        [[_]] = listed
        [full] = scheduler.preprocess_cases(adt, all_variants=True)
        assert len(full.variants) == 4096


def test_a_primed_label_keeps_the_collapse():
    # s and s' key by name, so the fan's ORs still collapse
    adt = parse_adt(primed_fan_text(12))
    [case] = scheduler.preprocess_cases(adt)
    assert len(case.variants) == 1
    [full] = scheduler.preprocess_cases(adt, all_variants=True)
    assert len(full.variants) == 4096


def test_one_variant_per_class_schedules_as_the_full_list(
        capsys, monkeypatch, tmp_path):
    # a class member's DAG matches its representative's node for node, so
    # scheduling every selection must print the same bytes
    paths = [str(path) for path in sorted(TREES.glob("*.adt"))]
    for name, text in (
            ("or-fan", or_fan_text(6)),
            ("primed-fan", primed_fan_text(6)),
            ("skipped-s-prime", SKIPPED_S_PRIME),
            ("skipped-s", SKIPPED_S),
            ("and-order", "r: OR(x, y)\nx: AND(a, b)\ny: AND(d, c)\n"
                          "a: ATTACK time=1\nb: ATTACK time=2\n"
                          "c: ATTACK time=1\nd: ATTACK time=2\n")):
        (tmp_path / (name + ".adt")).write_text(text)
        paths.append(str(tmp_path / (name + ".adt")))
    for seed in range(100):
        path = tmp_path / ("random-%d.adt" % seed)
        path.write_text(serialize_adt(random_adt(
            random.Random(seed), max_leaves=12, max_time=3,
            defence_prob=0.4)))
        paths.append(str(path))
    argvs = [("schedule", path) + flags for path in paths
             for flags in ((), ("--json",), ("--slots-override", "9",
                                             "--json"))]
    expected = [run(capsys, *argv) for argv in argvs]
    skipped = []

    def full(adt, all_variants=True,
             preprocess_cases=scheduler.preprocess_cases):
        skipped.append(0)  # stays 0 where the full list raises
        cases = preprocess_cases(adt, all_variants=True)
        skipped[-1] = sum(len(case.variants) for case in cases) - sum(
            len(case.variants) for case in preprocess_cases(adt, False))
        return cases

    monkeypatch.setattr(scheduler, "preprocess_cases", full)
    for argv, before in zip(argvs, expected):
        assert run(capsys, *argv) == before, argv
    assert len(skipped) == len(argvs)
    # the fan skips variants under all three flags, and so do other trees
    assert sum(1 for n in skipped if n) > 3


def test_name_clash_in_a_skipped_branch_is_still_an_error(capsys, tmp_path):
    # x and s' have one shape, and so have u and s, so a walk by classes
    # could skip s' or s; the step s'_1 clashes with the first SAND joint
    # of s all the same
    tree = tmp_path / "clash.adt"
    for text in (SKIPPED_S_PRIME, SKIPPED_S):
        tree.write_text(text)
        for flags in ((), ("--all-or-variants",)):
            assert run(capsys, "schedule", str(tree), *flags) == (
                2, "", "error: generated name \"s'_1\" already exists\n")


# ------------------------------------------------------------------- export


def test_export_tree_dot(capsys):
    code, out, _ = run(capsys, "export", TREASURE, "--dot")
    assert code == 0
    assert out.startswith("digraph adt {")
    assert out.count("shape=") == 9


def test_export_normalized_dot(capsys):
    code, out, _ = run(capsys, "export", TREASURE, "--dot", "--stage", "normalized")
    assert code == 0
    assert out.startswith("digraph dag {")


def test_export_variant_dot(capsys):
    code, out, _ = run(capsys, "export", TREASURE, "--dot", "--stage", "variant:1")
    assert code == 0
    assert out.count("shape=") == 193


def test_export_variant_out_of_range(capsys):
    code, _, err = run(capsys, "export", TREASURE, "--dot", "--stage", "variant:99")
    assert code == 2
    assert "variant" in err


@pytest.mark.parametrize("stage", ["normalized", "variant:1"])
@pytest.mark.parametrize("text, message", [
    ("s: SAND(a, s')\na: ATTACK time=1\ns': ATTACK time=1\n",
     "generated name \"s'_1\" already exists"),
    ("a: AND(b)\nb: ATTACK\n", "all durations are zero"),
], ids=["name-collision", "all-zero"])
def test_export_reports_pipeline_errors(capsys, tmp_path, stage, text,
                                        message):
    tree = tmp_path / "bad.adt"
    tree.write_text(text)
    code, out, err = run(capsys, "export", str(tree), "--dot", "--stage",
                         stage)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_export_bad_variant_index_is_a_usage_error(capsys):
    code, _, _ = run(capsys, "export", TREASURE, "--dot", "--stage", "variant:zz")
    assert code == 1


# ----------------------------------------------------------------- generate


def test_generate_emit_adt(capsys):
    code, out, _ = run(capsys, "generate", "--depth", "3", "--width", "4",
                       "--children", "2", "--emit", "adt")
    assert code == 0
    assert len(parse_adt(out).nodes) == 9


def test_generate_emit_result(capsys):
    code, out, _ = run(capsys, "generate", "--depth", "2", "--width", "2",
                       "--children", "2", "--emit", "result")
    assert code == 0
    assert out == "depth=2 width=2 children=2 adtree=5 agents=2 slots=3\n"


def test_generate_rejects_bad_params(capsys):
    code, _, err = run(capsys, "generate", "--depth", "1", "--width", "2",
                       "--children", "2")
    assert code == 1


# -------------------------------------------------------------------- bench


def test_bench_writes_csv(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("adtsched.generator.BENCH_ROWS", [(2, 2, 2), (3, 4, 2)])
    target = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, "bench", "--table-file", str(target))
    assert code == 0
    assert b"\r\n" in target.read_bytes()
    lines = target.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("2,2,2,5,2,3,")
    assert lines[2].startswith("3,4,2,9,3,5,")


def test_bench_reports_an_unwritable_table_file(capsys, tmp_path,
                                                monkeypatch):
    # exit 2 like an unreadable input, with one error line, no traceback
    monkeypatch.setattr("adtsched.generator.BENCH_ROWS", [(2, 2, 2)])
    target = tmp_path / "missing-dir" / "x.csv"
    code, out, err = run(capsys, "bench", "--table-file", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write %s: " % target)
    assert "No such file or directory" in err
    assert err.count("\n") == 1
    assert not target.parent.exists()


def test_bench_stdout_by_default(capsys, monkeypatch):
    monkeypatch.setattr("adtsched.generator.BENCH_ROWS", [(2, 2, 2)])
    code, out, _ = run(capsys, "bench")
    assert code == 0
    assert out.splitlines()[0] == "depth,width,children,adtree,agents,slots,runtime_ms"


# -------------------------------------------------------------- exit codes


def test_no_subcommand_is_a_usage_error(capsys):
    assert run(capsys, )[0] == 1


def test_conflicting_output_flags(capsys):
    assert run(capsys, "schedule", TREASURE, "--json", "--csv")[0] == 1


def test_missing_file(capsys):
    code, _, err = run(capsys, "schedule", "/no/such/file.adt")
    assert code == 2
    assert "cannot read" in err


def test_parse_error_reported_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.adt"
    bad.write_text("a: AND(???)\n")
    code, _, err = run(capsys, "schedule", str(bad))
    assert code == 2
    assert "line 1" in err


def test_validation_errors_reported(capsys, tmp_path):
    bad = tmp_path / "invalid.adt"
    bad.write_text("root: a\na: AND(b)\nb: ATTACK time=1\nc: ATTACK time=1\n")
    code, _, err = run(capsys, "schedule", str(bad))
    assert code == 2
    assert "not reachable" in err


# ------------------------------------------------------------- determinism


@pytest.mark.parametrize("argv", [
    ("schedule", TREASURE),
    ("schedule", GAIN, "--json"),
    ("schedule", IOT, "--csv"),
    ("variants", GAIN),
    ("export", TREASURE, "--dot", "--stage", "variant:1"),
])
def test_identical_invocations_are_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("module",
                         ["logging", "dataclasses", "inspect", "hashlib",
                          "json", "csv"])
def test_import_leaves_logging_out(module):
    # a fresh isolated interpreter, as the benchmark's import probe uses
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import adtsched.cli; print(sys.argv[2] in sys.modules)")
    done = subprocess.run([sys.executable, "-I", "-c", probe, src, module],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout == "False\n"
