"""The package exports what README.md documents, and nothing is dangling."""

import importlib
import pathlib
import re
import types

import pytest

import adtsched
from adtsched import (Adt, AdtNode, Bounds, DagKind, DagNode, NodeKind, Role,
                      ScheduleResult, ValidationError, Violation)

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_section():
    text = README.read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_names():
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", library_section()))


def library_example():
    """The section's code block as (code, expected stdout): the ``# ``
    lines that end the block are the output."""
    block = library_section().split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    code = len(lines)
    while code and lines[code - 1].startswith("# "):
        code -= 1
    return ("\n".join(lines[:code]) + "\n",
            "".join(line[2:] + "\n" for line in lines[code:]))


def test_documented_library_names_are_exported():
    names = library_names()
    assert "verify_schedule" in names  # the section was found and parsed
    names |= {"parse_adt", "preprocess_cases", "min_schedule"}
    assert names <= set(adtsched.__all__)


def test_every_exported_callable_is_documented():
    """Every function and class in ``__all__`` is named in the Library
    section: as a code span, as a call in one, or in the example's
    import."""
    named = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)[`(]",
                           library_section()))
    for imported in re.findall(r"^from adtsched import (.+)$",
                               library_example()[0], re.M):
        named |= {name.strip() for name in imported.split(",")}
    missing = [name for name in adtsched.__all__
               if callable(getattr(adtsched, name)) and name not in named]
    assert missing == []


def test_library_example_prints_what_readme_shows(capsys, monkeypatch):
    code, expected = library_example()
    assert "analyse(" in code and expected
    monkeypatch.chdir(README.parent)  # the example reads trees/
    exec(compile(code, "README.md", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out == expected


def test_every_export_resolves():
    for name in adtsched.__all__:
        assert hasattr(adtsched, name), name


def test_package_binds_only_its_exports():
    # a helper a submodule defines is reached through that submodule, so
    # the package's public names besides its submodules are exactly __all__
    public = {name for name, value in vars(adtsched).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == {name for name in adtsched.__all__
                      if not name.startswith("_")}


def test_preprocess_names_the_module():
    # no package attribute shadows the submodule of the same name
    import adtsched.preprocess as module
    assert module is importlib.import_module("adtsched.preprocess")


def test_slot_repair_is_internal():
    # the per-slot chain repair is only reachable through the packer
    assert [n for n in dir(adtsched.scheduler) if "reshuffle" in n] \
        == ["_reshuffle"]
    assert not [n for n in dir(adtsched) if "reshuffle" in n]


def test_traced_functions_exist():
    # the benchmark's tracer rebinds these by name; a missing one would
    # only show when a traced run installs it
    tracer = README.parent / "perfbench" / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(tracer.read_text(), str(tracer), "exec"), namespace)
    targets = namespace["TARGETS"]
    assert targets
    for module, function, *_ in targets:
        assert hasattr(importlib.import_module(module), function), \
            (module, function)


def test_benchmark_program_names_exist():
    # the benchmark's worker and output checks call adtsched through a
    # module handle; a name gone from the package would only show when a
    # benchmark run reaches it
    import adtsched.cli  # the worker imports it, so the handle has it
    bench = README.parent / "perfbench"
    used = set()
    for script in ("reference.py", "worker.py"):
        used |= set(re.findall(r"\bprogram\.([A-Za-z_][A-Za-z0-9_.]*)",
                               (bench / script).read_text()))
    assert {"parse_adt", "preprocess_cases", "cli"} <= used
    for dotted in used:
        target = adtsched
        for part in dotted.split("."):
            assert hasattr(target, part), dotted
            target = getattr(target, part)


def test_data_types_keep_their_contract():
    a, b = AdtNode("a", NodeKind.LEAF), AdtNode("a", NodeKind.LEAF)
    assert (a.children, a.duration, a.cost, a.condition, a.role) \
        == ([], 0, 0, None, Role.ATTACK)
    assert a == b and a.children is not b.children
    b.children.append("x")
    assert a != b and a.children == []
    assert Adt("a", {"a": AdtNode("a", NodeKind.LEAF)}) == Adt("a", {"a": a})
    assert Adt("a", {"a": a}) != Adt("a", {"a": b})
    first, second = (ScheduleResult(None, 0, 0, None) for _ in range(2))
    assert first.assignment == {}
    assert first.assignment is not second.assignment
    for record in (ValidationError("cycle", "r", "m"), Bounds(1, 2, 3),
                   Violation("order", "x", "m")):
        assert record == type(record)(*record)
        assert record != type(record)(*record[:2], "other")
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], "other")
    x, y = (DagNode("x", "x", DagKind.LEAF, 0) for _ in range(2))
    assert x == x and x != y and not hasattr(x, "__dict__")
    assert x.children == [] and x.children is not y.children
