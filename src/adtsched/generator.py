"""Synthetic trees for scalability runs.

:func:`generate_scaling_adt` builds an AND-only tree with a controlled
depth, leaf count and branching factor; :func:`run_scalability` sweeps the
standard parameter grid and reports size, agents, slots and runtime per
configuration as CSV.
"""

from __future__ import annotations

import io
import sys
import time

from .model import Adt, AdtNode, NodeKind, validate_adt
from .scheduler import analyse


class InvalidParams(ValueError):
    """Parameters outside the supported grid."""


def generate_scaling_adt(depth: int, width: int, children: int) -> Adt:
    """AND-only tree: ``depth`` levels of gates, ``width`` leaves at the
    bottom, every active gate with exactly ``children`` children.

    Level i holds children * a_{i-1} gates of which a_i = ceil(width /
    children^(depth-i)) are active; the rest are padding, emitted as
    duration-1 actions so every level is full.  All nodes take one time
    unit except the first leaf, which takes max(1, width - children) so
    that the schedule length grows with the width.
    """
    d, w, c = depth, width, children
    if d < 2 or c < 2 or w < c:
        raise InvalidParams(
            "need depth >= 2, children >= 2, width >= children "
            "(got %d, %d, %d)" % (d, w, c))

    nodes: dict[str, AdtNode] = {}
    active = [1]
    for i in range(1, d):
        active.append(-(-w // c ** (d - i)))  # ceil division

    levels: list[list[str]] = [["r"]]
    nodes["r"] = AdtNode("r", NodeKind.AND, [], 1)
    for i in range(1, d):
        total = c * active[i - 1]
        labels = ["g%d_%d" % (i, j) for j in range(1, total + 1)]
        for j, label in enumerate(labels, start=1):
            if j <= active[i]:
                nodes[label] = AdtNode(label, NodeKind.AND, [], 1)
            else:
                nodes[label] = AdtNode(label, NodeKind.LEAF, [], 1)
        levels.append(labels)

    leaves = ["x%d" % j for j in range(1, w + 1)]
    for j, label in enumerate(leaves, start=1):
        duration = max(1, w - c) if j == 1 else 1
        nodes[label] = AdtNode(label, NodeKind.LEAF, [], duration)
    levels.append(leaves)

    for i in range(d - 1):
        for j in range(active[i]):
            lo, hi = j * c, (j + 1) * c
            nodes[levels[i][j]].children = levels[i + 1][lo:hi]
    for j in range(active[d - 1]):
        lo = j * c
        # the last active gate above the leaves takes any remainder
        hi = (j + 1) * c if j < active[d - 1] - 1 else w
        nodes[levels[d - 1][j]].children = leaves[lo:hi]

    adt = Adt("r", nodes)
    problems = validate_adt(adt)
    if problems:
        raise InvalidParams("generated tree invalid: %s"
                            % problems[0].message)
    return adt


#: The standard (depth, width, children) sweep.
BENCH_ROWS = [
    (2, 2, 2), (2, 4, 2), (2, 4, 4), (2, 6, 6), (2, 8, 4),
    (2, 8, 8), (2, 10, 10), (2, 12, 4), (2, 12, 6), (2, 16, 8),
    (3, 2, 2), (3, 4, 2), (3, 4, 4), (3, 6, 2), (3, 6, 6),
    (3, 8, 2), (3, 8, 4), (3, 8, 8), (3, 10, 10), (3, 12, 4),
    (3, 12, 6), (3, 16, 8),
    (4, 2, 2), (4, 4, 2), (4, 4, 4), (4, 6, 2), (4, 6, 6),
    (4, 8, 2), (4, 8, 4), (4, 8, 8), (4, 10, 2), (4, 10, 10),
    (4, 12, 4), (4, 12, 6), (4, 16, 8),
    (5, 2, 2), (5, 4, 2), (5, 4, 4), (5, 6, 2), (5, 6, 6),
    (5, 8, 2), (5, 8, 4), (5, 8, 8), (5, 10, 2), (5, 10, 10),
    (5, 12, 4), (5, 12, 6), (5, 16, 8),
]


def bench_row(depth: int, width: int, children: int) -> dict:
    """Generate and schedule one configuration."""
    start = time.perf_counter()
    adt = generate_scaling_adt(depth, width, children)
    result = analyse(adt)[0]
    elapsed = (time.perf_counter() - start) * 1000.0
    return {
        "depth": depth, "width": width, "children": children,
        "adtree": len(adt.nodes), "agents": result.agents,
        "slots": result.slots, "runtime_ms": round(elapsed, 1),
    }


def run_scalability(rows=None) -> str:
    """CSV over ``rows`` (default: the standard sweep).  A failing row is
    reported with dashes, and with a warning line on stderr; the run
    continues."""
    import csv  # only the sweep needs it: kept out of start-up
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(["depth", "width", "children", "adtree",
                     "agents", "slots", "runtime_ms"])
    for depth, width, children in (rows if rows is not None else BENCH_ROWS):
        try:
            row = bench_row(depth, width, children)
            writer.writerow([row["depth"], row["width"], row["children"],
                             row["adtree"], row["agents"], row["slots"],
                             row["runtime_ms"]])
        except Exception as exc:  # keep sweeping, report the hole
            print("WARNING row (%d,%d,%d) failed: %s"
                  % (depth, width, children, exc), file=sys.stderr)
            writer.writerow([depth, width, children, "-", "-", "-", "-"])
    return buffer.getvalue()
