"""Work that grows linearly with the tree, counted and timed.

Subprocess timeouts only catch a regression that is slower than the
timeout, so these tests measure the growth itself.  The first counts the
Python lines that run inside ``adtsched`` for one in-process
``schedule --csv`` at n and 2n: wide and right-nested AND, OR and SAND, an
AND over counter gates, an OR fan under the class collapse and a chain set
under a relaxed deadline.

Line counts miss work done in C, such as a tuple that is copied as it
grows.  So the second test times the stages that build and walk the
resolved tree, with the collector off, at about 2,000 and 16,000 nodes,
each against a plain loop that fills a dict of as many entries, timed
alongside it, so that load and a larger working set slow both (a linear
stage grows 9-11x there, not 8x).  A linear stage grows about as much as
the loop, and the fold of each gate's children into growing tuples in
``tests/reference_gate_fold.py`` about 3.6 times as much.  A copy that
is cheap next to the Python work around it shows less: ``_or_selections``
copies a selection's choices at every AND child, and reads 1.2-1.6 times
the loop's growth here.  Both tests leave the trace hook and the
collector as they found them.
"""

import contextlib
import gc
import io
import os
import sys
import time

import pytest

import adtsched
from adtsched import cli, parse_adt
from adtsched.preprocess import _Tree, _build, _or_selections, expand_sand

PACKAGE = os.path.dirname(adtsched.__file__) + os.sep


def leaves(names, role="ATTACK", time=1):
    return "".join("%s: %s time=%d\n" % (x, role, time) for x in names)


def wide(kind, n):
    """One gate over n leaves."""
    names = ["a%d" % i for i in range(n)]
    return "r: %s(%s)\n" % (kind, ", ".join(names)) + leaves(names)


def nested(kind, n):
    """n gates of time 1, each over a leaf and the next gate."""
    gates = "".join("g%d: %s(a%d, g%d) time=1\n" % (i, kind, i, i + 1)
                    for i in range(n))
    return gates + leaves(["a%d" % i for i in range(n)] + ["g%d" % n])


def counter_fan(n):
    """An AND over n CANDs: 2^n outcomes, two cases."""
    text = "r: AND(%s)\n" % ", ".join("c%d" % i for i in range(n))
    text += "".join("c%d: CAND(a%d, d%d)\n" % (i, i, i) for i in range(n))
    return (text + leaves(["a%d" % i for i in range(n)])
            + leaves(["d%d" % i for i in range(n)], "DEFENCE"))


def or_fan(n, slow=1):
    """An AND over n two-way ORs; with ``slow`` 1 every selection is
    fastest (2^n of them, one class)."""
    text = "r: AND(%s)\n" % ", ".join("o%d" % i for i in range(n))
    text += "".join("o%d: OR(a%d, b%d)\n" % (i, i, i) for i in range(n))
    return (text + leaves(["a%d" % i for i in range(n)])
            + leaves(["b%d" % i for i in range(n)], time=slow))


def chains(n):
    """An AND over n chains of 3 to 9 steps."""
    names = ["c%d" % i for i in range(n)]
    return "r: AND(%s)\n" % ", ".join(names) + "".join(
        "%s: ATTACK time=%d\n" % (x, 3 + i % 7) for i, x in enumerate(names))


def line_events(tmp_path, text, flags):
    """Lines run inside ``adtsched`` by one ``schedule --csv`` of
    ``text``."""
    tree = tmp_path / "tree.adt"
    tree.write_text(text)
    count = 0

    def lines(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(PACKAGE) \
            else None

    hook = sys.gettrace()
    sys.settrace(calls)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["schedule", str(tree), "--csv", *flags])
    finally:
        sys.settrace(hook)
    assert code == 0
    return count


@pytest.mark.parametrize("make, n, flags", [
    (lambda n: wide("AND", n), 500, ()),
    (lambda n: wide("OR", n), 500, ()),
    (lambda n: wide("SAND", n), 500, ()),
    (lambda n: nested("AND", n), 250, ()),
    (lambda n: nested("OR", n), 250, ()),
    (lambda n: nested("SAND", n), 250, ()),
    (counter_fan, 170, ()),
    (or_fan, 170, ()),
    (chains, 500, ("--slots-override", "18")),  # twice the longest chain
], ids=["wide-AND", "wide-OR", "wide-SAND", "nested-AND", "nested-OR",
        "nested-SAND", "AND-over-CANDs", "OR-fan", "relaxed-chains"])
def test_python_work_doubles_with_the_tree(tmp_path, make, n, flags):
    small = line_events(tmp_path, make(n), flags)
    large = line_events(tmp_path, make(2 * n), flags)
    assert large <= 2.05 * small, (small, large)


def stages(nodes):
    """Each timed stage with a maker of its arguments, on trees of about
    ``nodes`` nodes: an AND over ORs with a fast and a slow branch, and a
    right-nested SAND chain."""
    fan = parse_adt(or_fan(nodes // 3, slow=2))
    tree = _Tree(fan)
    [key] = tree.resolve({})
    shape = tree.shape(key)
    [(_, variant)], _ = _or_selections(shape, fan.root, tree.weight, True)
    chain = parse_adt(nested("SAND", nodes // 2))
    sands = _Tree(chain)
    [key] = sands.resolve({})
    preorder = dict(reversed(sands.shape(key).items()))
    return {
        "resolve": (lambda fresh: fresh.resolve({}),
                    lambda: (_Tree(fan),)),
        "_or_selections": (_or_selections,
                           lambda: (shape, fan.root, tree.weight, True)),
        "_build": (_build, lambda: (variant, fan.root, tree.weight)),
        "expand_sand": (expand_sand, lambda: (
            _build(preorder, chain.root, sands.weight),)),
    }


def loop(n):
    """Linear work of about the stages' kind: n dict entries, each
    holding a tuple, a list and a dict, summed."""
    entries = {}
    for i in range(n):
        entries["n%d" % i] = (i, [i, i + 1], {"k": i})
    return sum(v[0] for v in entries.values())


def seconds(stage, make):
    args = make()
    start = time.perf_counter()
    stage(*args)
    return time.perf_counter() - start


def test_stages_grow_like_a_linear_loop():
    """Each stage's growth over the loop's, from the best small call of
    each to the best large one.  Rounds of three small calls and one large
    call of each, interleaved, run until the bound of 2.5 holds, at most
    six times."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        small, large = stages(2000), stages(16000)
        for name in small:
            runs = [(small[name], 3), ((loop, lambda: (2000,)), 3),
                    (large[name], 1), ((loop, lambda: (16000,)), 1)]
            best = [float("inf")] * 4
            for _ in range(6):
                best = [min(b, *(seconds(*run) for _ in range(times)))
                        for b, (run, times) in zip(best, runs)]
                stage, base, big, big_base = best
                relative = big / stage / (big_base / base)
                if relative < 2.5:
                    break
            assert relative < 2.5, (name, best)
    finally:
        if collecting:
            gc.enable()
