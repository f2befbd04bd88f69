"""The scripts in demos/ run and print what they printed before.

``walkthrough.py`` and ``defence_outcomes.py`` print no timings, so their
whole stdout is pinned by sha256.  ``sweep.py`` prints run times, so only
its exit code and row count are checked.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from adtsched import cli
from adtsched.generator import BENCH_ROWS

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

PINNED = {
    "walkthrough.py":
        "0962c57fa75b191fbf84d32e11f5a4ba363636d5c11e50a6154f700606de7924",
    "defence_outcomes.py":
        "f3de3d9cc099635a1ad7f7d859451919a9d7dbe6fd26f5925cf4d245eb2b1267",
}


def run_demo(name):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(DEMOS / name)],
                          capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_demo_prints_as_pinned(name):
    done = run_demo(name)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == PINNED[name], \
        done.stdout


def test_sweep_prints_its_rows():
    done = run_demo("sweep.py")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["depth", "width", "children", "adtree",
                                "agents", "slots", "runtime_ms"]
    assert len(lines) == 1 + sum(1 for row in BENCH_ROWS if row[0] <= 3)
