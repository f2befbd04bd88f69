"""How defence outcomes collapse into cases: the admin-privileges tree.

Four defence leaves give sixteen raw on/off combinations; composite gates
reduce those to four distinguishable outcomes, and two of them leave the
attacker with exactly the same graph, so three cases remain.
"""

import itertools
import pathlib

from adtsched import (
    FAILED,
    OPERATING,
    analyse,
    parse_adt,
    preprocess_cases,
    validate_adt,
)
from adtsched.preprocess import defence_leaves, defence_signature
from adtsched.report import signature_heading

TREE = pathlib.Path(__file__).resolve().parent.parent / "trees" / "gain-admin.adt"


def main():
    adt = parse_adt(TREE.read_text())
    problems = validate_adt(adt)
    assert not problems, problems

    leaves = defence_leaves(adt)
    print("defence leaves: %s" % ", ".join(leaves))
    print("\nall %d combinations and the outcome they produce:" % 2 ** len(leaves))
    seen = {}
    for states in itertools.product((FAILED, OPERATING), repeat=len(leaves)):
        config = dict(zip(leaves, states))
        sig = signature_heading(defence_signature(adt, config))
        seen.setdefault(sig, 0)
        seen[sig] += 1
    for sig, count in seen.items():
        print("  %-28s <- %2d combination(s)" % (sig, count))

    print("\ncases after merging indistinguishable graphs:")
    cases = preprocess_cases(adt)
    for i, (case, best) in enumerate(zip(cases, analyse(adt)), 1):
        also = len(case.merged_signatures) - 1
        extra = "  (+%d merged outcome%s)" % (also, "s" if also > 1 else "") if also else ""
        if not best.feasible:
            print("  case %d: %s -> attack impossible%s"
                  % (i, signature_heading(case.signature), extra))
        else:
            print("  case %d: %s -> %d slots, %d agent(s)%s"
                  % (i, signature_heading(case.signature),
                     best.slots, best.agents, extra))


if __name__ == "__main__":
    main()
