"""Byte-identity differential over a fixed set of CLI runs.

    python3 tests/differential.py SRC

Imports ``adtsched`` from the source directory SRC, runs every invocation
below in process and prints the number of runs and one sha256 over the
args, stdout, stderr and exit code of all of them, in order.  Run it on the
``src/`` of two checkouts and compare the two lines: a change meant to keep
the CLI output byte-identical must print the same count and digest.

The runs are

* ``random_adt(max_leaves=12, max_time=3)`` seeds 0..2999, with
  ``defence_prob`` 0.2, 0.4 and 0.6 by seed mod 3, each tree under every
  entry of ``TREE_INVOCATIONS``;
* ``wide_adt`` seeds 0..299, gates over 2..30 children, each under every
  entry of ``TREE_INVOCATIONS``;
* ``nested_chains_adt`` seeds 0..199, ANDs over 2..40 parts with chains
  of 1..50 steps, where on seeds 2 and 3 mod 4 a part may be an AND or
  SAND over parts, each under ``schedule``, the odd seeds with
  ``--slots-override`` at 1.1-2.5 times the fastest time;
* ``random_adt(max_leaves=10, max_time=400, defence_prob=0.3)`` seeds
  0..299, each under plain ``schedule`` and under ``--slots-override`` at
  1.5 times its ``critical_slots``: long tables, which ``render_table``
  prints by stretches of rows;
* every input of the four workloads in ``perfbench/workloads.py`` at seeds
  1 and 2, each under ``schedule`` with its own flags;
* the trees of the first item at seeds 0..1499 that have a SAND ``s``,
  with one other non-root label renamed to ``s'``, so the SAND's joints
  ``s'_1 ..`` may meet the steps of ``s'``; each under every entry of
  ``PRIMED_INVOCATIONS``;
* ``generate --emit result`` for every row of ``BENCH_ROWS``.

The tree file is always ``tree.adt`` in the current directory, so messages
that name it read the same in every checkout.  The file name does not
start with ``test_``, so pytest does not collect it.
"""

import contextlib
import hashlib
import io
import math
import os
import pathlib
import random
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
TREE = "tree.adt"

TREE_INVOCATIONS = [
    ["schedule", TREE, "--json"],
    ["schedule", TREE, "--json", "--all-or-variants"],
    ["schedule", TREE, "--slots-override", "9", "--json"],
    ["schedule", TREE, "--elide"],
    ["variants", TREE],
    ["export", TREE, "--dot", "--stage", "variant:1"],
    ["export", TREE, "--dot", "--stage", "normalized"],
]

PRIMED_INVOCATIONS = [
    ["schedule", TREE],
    ["schedule", TREE, "--json"],
    ["schedule", TREE, "--csv"],
    ["schedule", TREE, "--all-or-variants", "--csv"],
    ["schedule", TREE, "--slots-override", "9", "--json"],
    ["variants", TREE],
    ["export", TREE, "--dot", "--stage", "variant:1"],
]


def primed(adt, rng):
    """``adt`` with a label other than the root and a SAND ``s`` renamed to
    ``s'``, ``s`` picked by ``rng`` among its SANDs; None if it has none."""
    sands = [label for label, node in adt.nodes.items()
             if node.kind.name == "SAND"]
    if not sands:
        return None
    sand = rng.choice(sands)
    old = rng.choice([label for label in adt.nodes
                      if label not in (adt.root, sand)])
    new = sand + "'"
    for node in adt.nodes.values():
        node.children = [new if c == old else c for c in node.children]
    adt.nodes[old].label = new
    adt.nodes = {new if label == old else label: node
                 for label, node in adt.nodes.items()}
    return adt


def inputs(serialize_adt, rand_trees, workloads, bench_rows):
    """``(tree text, [args, ...])`` for every tree, in run order; the
    ``generate`` runs read no tree and come last."""
    for seed in range(3000):
        adt = rand_trees.random_adt(
            random.Random(seed), max_leaves=12, max_time=3,
            defence_prob=(0.2, 0.4, 0.6)[seed % 3])
        yield serialize_adt(adt), TREE_INVOCATIONS
    for seed in range(300):
        adt = rand_trees.wide_adt(random.Random(seed))
        yield serialize_adt(adt), TREE_INVOCATIONS
    for seed in range(200):
        rng = random.Random(seed)
        adt = rand_trees.nested_chains_adt(
            rng, rng.randint(2, 40), 50, gate_prob=0.3 if seed % 4 > 1 else 0)
        args = ["schedule", TREE]
        if seed % 2:
            slack = rng.uniform(1.1, 2.5)
            args += ["--slots-override",
                     str(math.ceil(slack * rand_trees.critical_slots(adt)))]
        yield serialize_adt(adt), [args]
    for seed in range(300):
        adt = rand_trees.random_adt(random.Random(seed), max_leaves=10,
                                    max_time=400, defence_prob=0.3)
        slots = math.ceil(1.5 * rand_trees.critical_slots(adt))
        yield serialize_adt(adt), [["schedule", TREE],
                                   ["schedule", TREE, "--slots-override",
                                    str(slots)]]
    for name in workloads.WORKLOADS:
        for seed in (1, 2):
            for item in workloads.build(name, seed):
                yield item.text, [["schedule", TREE] + item.flags]
    for seed in range(1500):
        rng = random.Random(seed)
        adt = primed(rand_trees.random_adt(
            rng, max_leaves=12, max_time=3,
            defence_prob=(0.2, 0.4, 0.6)[seed % 3]), rng)
        if adt is not None:
            yield serialize_adt(adt), PRIMED_INVOCATIONS
    yield "", [["generate", "--depth", str(d), "--width", str(w),
                "--children", str(c), "--emit", "result"]
               for d, w, c in bench_rows]


def run(cli, args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except Exception as exc:  # an escaping exception is a result too
            code = "raised %s: %s" % (type(exc).__name__, exc)
    return out.getvalue(), err.getvalue(), code


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: %s SRC" % argv[0], file=sys.stderr)
        return 1
    src = pathlib.Path(argv[1]).resolve()
    sys.path[:0] = [str(src), str(HERE), str(HERE.parent / "perfbench")]
    from adtsched import cli
    from adtsched.generator import BENCH_ROWS
    from adtsched.parser import serialize_adt
    import rand_trees
    import workloads

    if src not in pathlib.Path(cli.__file__).resolve().parents:
        print("error: adtsched was imported from %s, not from %s"
              % (cli.__file__, src), file=sys.stderr)
        return 1
    digest, count = hashlib.sha256(), 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for text, invocations in inputs(serialize_adt, rand_trees,
                                            workloads, BENCH_ROWS):
                with open(TREE, "w", encoding="utf-8") as handle:
                    handle.write(text)
                for args in invocations:
                    result = (args,) + run(cli, args)
                    digest.update(repr(result).encode())
                    count += 1
        finally:
            os.chdir(home)
    print("%d runs %s" % (count, digest.hexdigest()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
