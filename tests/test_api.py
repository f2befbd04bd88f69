"""The package exports what README.md documents, and nothing is dangling."""

import importlib
import pathlib
import re

import adtsched

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_names():
    text = README.read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", section))


def test_documented_library_names_are_exported():
    names = library_names()
    assert "verify_schedule" in names  # the section was found and parsed
    names |= {"parse_adt", "preprocess_cases", "min_schedule"}
    assert names <= set(adtsched.__all__)


def test_every_export_resolves():
    for name in adtsched.__all__:
        assert hasattr(adtsched, name), name


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
