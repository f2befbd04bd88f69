"""Walk the full pipeline over the treasure-hunters tree, stage by stage.

Usage: python3 demos/walkthrough.py [path/to/tree.adt]
"""

import pathlib
import sys

from adtsched import (
    analyse,
    compute_time_unit,
    expand_sand,
    normalize_time,
    parse_adt,
    preprocess_cases,
    unit_dag,
    validate_adt,
)
from adtsched.preprocess import DagKind
from adtsched.report import render_table, signature_heading, variant_cost

DEFAULT = pathlib.Path(__file__).resolve().parent.parent / "trees" / "treasure.adt"


def main():
    path = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT
    adt = parse_adt(path.read_text())
    problems = validate_adt(adt)
    assert not problems, problems

    print("tree: %s  (%d nodes, root %s)" % (path.name, len(adt.nodes), adt.root))

    tunit = compute_time_unit(adt)
    print("\n== the whole tree, defences included, before any outcome is fixed")
    print("== time normalisation (one slot = %d time unit%s)"
          % (tunit, "" if tunit == 1 else "s"))
    dag = normalize_time(adt)
    # counted in the unit-step view, where each step of a chain is a node
    print("   %d nodes, %d of them unit steps"
          % (len(unit_dag(dag).nodes), dag.n))

    print("\n== sequential gates become ordering joints")
    dag = expand_sand(dag)
    joints = sum(1 for x in dag.nodes if x.kind is DagKind.NULL)
    print("   %d nodes, %d zero-duration joints"
          % (len(unit_dag(dag).nodes), joints))

    print("\n== defence outcomes, each resolved on the tree and built as its own"
          " DAG, then one choice per OR gate")
    for i, case in enumerate(preprocess_cases(adt, all_variants=True), 1):
        tag = signature_heading(case.signature)
        print("   case %d (%s): %d variant(s)" % (i, tag, len(case.variants)))

    print("\n== minimal schedules")
    for best in analyse(adt):
        heading = signature_heading(best.variant.signature)
        if not best.feasible:
            print("\n%s: attack impossible" % heading)
            continue
        print("\n%s: slots=%d agents=%d cost=%d"
              % (heading, best.slots, best.agents, variant_cost(best, adt)))
        print(render_table(best, elide=True))


if __name__ == "__main__":
    main()
