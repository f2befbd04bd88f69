"""``expand_sand`` against the per-segment expansion it replaced
(``reference_expand_sand.py``): the same nodes with the same fields, the
same children and parents in order, the same root and next index, and the
same ``NameCollision``, on every DAG the pipeline expands.  Plus a
right-nested SAND chain deep enough that re-walking segments would not
finish in time."""

import functools
import random
import subprocess
import sys

import pytest

from adtsched import (FAILED, OPERATING, NameCollision, normalize_time,
                      parse_adt)
from adtsched.preprocess import _Tree, _build, _or_selections, expand_sand

from conftest import TREES, load_tree
from rand_trees import random_adt
import reference_expand_sand

BUNDLED = sorted(path.stem for path in TREES.glob("*.adt"))

SHAPES = {
    # inner SANDs as segment tops: untimed, timed, first and last
    "nested": """r: SAND(s, t, u)
s: SAND(a, b)
t: SAND(c, d) time=2
u: AND(e, v)
v: SAND(f, w)
w: SAND(g, h)
a: ATTACK time=1
b: ATTACK time=2
c: ATTACK time=1
d: ATTACK
e: ATTACK time=1
f: ATTACK time=1
g: ATTACK time=1
h: ATTACK time=3
""",
    "timed root": """r: SAND(s, c) time=3
s: SAND(a, b) time=1
a: ATTACK time=1
b: ATTACK time=1
c: ATTACK time=2
""",
    "single child": """r: SAND(s, b)
s: SAND(t)
t: SAND(a, c)
a: ATTACK time=1
b: ATTACK time=1
c: ATTACK time=1
""",
    "counter gates": """r: AND(c, n, x)
c: CAND(s, d1)
n: NODEF(t, d2)
x: SCAND(u, d3)
s: SAND(a1, a2)
t: SAND(b1, b2)
u: SAND(e1, e2, e3)
a1: ATTACK time=1
a2: ATTACK time=2
b1: ATTACK time=1
b2: ATTACK time=1
e1: ATTACK time=1
e2: ATTACK
e3: ATTACK time=1
d1: DEFENCE time=1
d2: DEFENCE time=1
d3: DEFENCE time=1
""",
    "defence subtree": """r: SAND(a, c)
c: CAND(b, ds)
ds: SAND(d1, dt)
dt: SAND(d2, d3)
a: ATTACK time=1
b: ATTACK time=1
d1: DEFENCE time=1
d2: DEFENCE time=2
d3: DEFENCE time=1
""",
    "or branch": """r: SAND(x, o)
x: ATTACK time=1
o: OR(s, b)
s: SAND(a, c)
a: ATTACK time=1
b: ATTACK time=2
c: ATTACK time=1
""",
    "timed clash": """r: AND(s, s')
s: SAND(a, b)
s': ATTACK time=1
a: ATTACK time=1
b: ATTACK time=1
""",
    "untimed clash": """r: AND(s, s')
s: SAND(a, b)
s': ATTACK
a: ATTACK time=1
b: ATTACK time=1
""",
    "two clashes": """r: SAND(s, t, s', t')
s: SAND(a, b)
t: SAND(c, d)
s': ATTACK time=1
t': ATTACK time=2
a: ATTACK time=1
b: ATTACK time=1
c: ATTACK time=1
d: ATTACK time=1
""",
}


def builds(adt):
    """Builders of every DAG the pipeline hands to ``expand_sand`` for
    ``adt``: the normalised tree, and each time-optimal OR selection of
    each distinct resolved tree, as ``preprocess_cases`` builds it."""
    yield functools.partial(normalize_time, adt)
    tree = _Tree(adt)
    found = tree.resolve({root: (FAILED, OPERATING) for root in tree.roots})
    for key in found:
        selections = _or_selections(tree.shape(key), adt.root, tree.weight)[0]
        for _, shape in selections:
            yield functools.partial(_build, shape, adt.root, tree.weight)


def expanded(expand, build):
    """Every field and edge of the DAG ``build()`` after ``expand``, or the
    ``NameCollision`` it raised."""
    dag = build()
    try:
        assert expand(dag) is dag
    except NameCollision as exc:
        return "NameCollision: %s" % exc
    return ([(x.name, x.origin, x.kind, x.index, x.weight,
              [c.name for c in x.children], [p.name for p in x.parents])
             for x in dag.nodes],
            dag.root and dag.root.name, dag._next_index)


def assert_same(adt):
    count = 0
    for build in builds(adt):
        assert expanded(expand_sand, build) \
            == expanded(reference_expand_sand.expand_sand, build)
        count += 1
    return count


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_trees_expand_as_before(name):
    assert assert_same(load_tree(name)) > 1


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_hand_made_shapes_expand_as_before(name):
    assert assert_same(parse_adt(SHAPES[name])) > 1


def test_random_trees_expand_as_before():
    builds_seen = 0
    for seed in range(4000):
        adt = random_adt(random.Random(seed), max_leaves=14, max_time=3,
                         defence_prob=0.3)
        builds_seen += assert_same(adt)
    assert builds_seen > 8000


def test_nested_sand_chain_schedules_quickly(tmp_path):
    # "a0, then a1, then ...": every later segment is a SAND of its own
    depth = 32000
    lines = ["s%d: SAND(a%d, s%d)" % (i, i, i + 1) for i in range(depth - 1)]
    lines.append("s%d: SAND(a%d, a%d)" % (depth - 1, depth - 1, depth))
    lines += ["a%d: ATTACK time=1" % i for i in range(depth + 1)]
    tree = tmp_path / "chain.adt"
    tree.write_text("\n".join(lines) + "\n")
    done = subprocess.run(
        [sys.executable, "-m", "adtsched.cli", "schedule", str(tree),
         "--csv"],
        cwd=TREES.parent, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(TREES.parent / "src")})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1] == "1,,true,32001,1,32001,0"
