"""``_Tree.resolve`` against the per-child gate fold it replaced
(``reference_gate_fold.py``): both must map the same resolved trees to the
same smallest status tuples.  Keys are compared through ``_Tree.shape``,
because the two may hand out key numbers in another order.

Every tree is resolved under three modes of ``statuses``: every defence
root free, every root fixed to a seeded status, and mixed, where each root
gets a seeded choice of FAILED, OPERATING or both.  Only the mixed mode
can fix a root to OPERATING under a gate whose other roots stay free, so
that a child fails in its smallest tuple.

Plus an AND and an OR over 128,000 leaves, wide enough that a per-child
fold would not finish in time."""

import random
import subprocess
import sys

import pytest

from adtsched import FAILED, OPERATING
from adtsched.preprocess import _Tree, defence_roots

from conftest import TREES, load_tree
from rand_trees import random_adt, wide_adt
import reference_gate_fold

BUNDLED = sorted(path.stem for path in TREES.glob("*.adt"))
MODES = ("free", "fixed", "mixed")


def statuses(roots, mode, rng):
    if mode == "free":
        return {root: (FAILED, OPERATING) for root in roots}
    if mode == "fixed":
        return {root: (rng.choice((FAILED, OPERATING)),) for root in roots}
    return {root: rng.choice(((FAILED,), (OPERATING,), (FAILED, OPERATING)))
            for root in roots}


def shapes(resolve, adt, given):
    """``{resolved shape: smallest tuple}`` from a fresh ``_Tree``, each
    shape as a tuple of (label, kind, children), children first."""
    tree = _Tree(adt)
    return {tuple((label, kind, tuple(kids))
                  for label, (kind, kids) in tree.shape(key).items()): done
            for key, done in resolve(tree, given).items()}


def agree(adt, mode, seed):
    given = statuses(defence_roots(adt), mode, random.Random(seed))
    want = shapes(reference_gate_fold.resolve, adt, given)
    assert shapes(_Tree.resolve, adt, given) == want
    return len(want)


@pytest.mark.parametrize("mode", MODES)
def test_bundled_trees(mode):
    for name in BUNDLED:
        agree(load_tree(name), mode, name)


@pytest.mark.parametrize("mode", MODES)
def test_random_trees(mode):
    found = 0
    for seed in range(1200):
        adt = random_adt(random.Random(seed), max_leaves=14, max_time=3,
                         defence_prob=(0.2, 0.4, 0.6)[seed % 3])
        found += agree(adt, mode, seed)
    assert found > 1200 or mode == "fixed"


@pytest.mark.parametrize("mode", MODES)
def test_wide_gates(mode):
    found = 0
    for seed in range(300):
        found += agree(wide_adt(random.Random(seed)), mode, seed)
    assert found > 300 or mode == "fixed"


@pytest.mark.parametrize("gate,agents", [("AND", 128000), ("OR", 1)])
def test_wide_gate_schedules_quickly(tmp_path, gate, agents):
    width = 128000
    lines = ["r: %s(%s)" % (gate, ", ".join("a%d" % i for i in range(width)))]
    lines += ["a%d: ATTACK time=1" % i for i in range(width)]
    tree = tmp_path / "wide.adt"
    tree.write_text("\n".join(lines) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "adtsched.cli", "schedule", str(tree),
         "--csv"],
        cwd=TREES.parent, capture_output=True, text=True, timeout=30,
        env={"PYTHONPATH": str(TREES.parent / "src")})
    assert done.returncode == 0, done.stderr
    row = "1,,true,1,%d,%d,0" % (agents, agents)  # one slot
    assert done.stdout.splitlines()[1] == row
