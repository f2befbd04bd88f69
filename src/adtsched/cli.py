"""Command line entry points.

    adtsched schedule tree.adt [--json|--csv|--table] [--all-or-variants]
                               [--slots-override N] [--elide]
    adtsched variants tree.adt
    adtsched export tree.adt --dot [--stage adt|normalized|variant:<i>]
    adtsched generate --depth D --width W --children C [--emit adt|result]
    adtsched bench [--table-file PATH]

Exit codes: 0 on success (an impossible attack is still a successful
analysis), 1 on usage errors, 2 on parse or validation errors, on trees
the pipeline rejects, on a table or ``--json`` output above
``report.MAX_CELLS`` cells and on a ``--table-file`` that cannot be written
(``error: <message>`` on stderr), 3 on an internal
error (an invariant of the algorithm failed; a bug, reported as
``internal error: <message>`` on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .generator import (
    InvalidParams,
    bench_row,
    generate_scaling_adt,
    run_scalability,
)
from .model import validate_adt
from .parser import ParseError, export_dot, parse_adt, serialize_adt
from .preprocess import (expand_sand, normalize_time, preprocess,
                         preprocess_cases)
from .report import (
    render_table,
    signature_heading,
    to_csv,
    to_json,
    variant_cost,
)
from .scheduler import InternalError, analyse, compute_bounds


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for bad
    # input files, so usage errors are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="adtsched",
                     description="Schedule attack-defence trees with as "
                                 "few agents as the fastest attack allows.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("schedule", help="compute and print schedules")
    p.add_argument("tree", help="input .adt file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--table", action="store_true", help="text table "
                     "(default)")
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--all-or-variants", action="store_true",
                   help="report every fastest variant, not one per case")
    p.add_argument("--slots-override", type=int, metavar="N",
                   help="schedule against N slots instead of the minimum")
    p.add_argument("--elide", action="store_true",
                   help="collapse uneventful table rows")

    p = sub.add_parser("variants", help="list defence cases and variants")
    p.add_argument("tree", help="input .adt file")

    p = sub.add_parser("export", help="emit GraphViz DOT")
    p.add_argument("tree", help="input .adt file")
    p.add_argument("--dot", action="store_true", required=True,
                   help="DOT output (the only format)")
    p.add_argument("--stage", default="adt", metavar="STAGE",
                   help="adt, normalized, or variant:<i> (1-based)")

    p = sub.add_parser("generate", help="emit a synthetic benchmark tree")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--children", type=int, required=True)
    p.add_argument("--emit", choices=["adt", "result"], default="adt")

    p = sub.add_parser("bench", help="run the scalability sweep")
    p.add_argument("--table-file", metavar="PATH",
                   help="write the CSV here instead of stdout")
    return parser


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print("error: cannot read %s: %s" % (path, exc), file=sys.stderr)
        return None
    try:
        adt = parse_adt(text)
    except ParseError as exc:
        print("error: %s: %s" % (path, exc), file=sys.stderr)
        return None
    problems = validate_adt(adt)
    if problems:
        for problem in problems:
            print("error: %s: %s" % (path, problem.message), file=sys.stderr)
        return None
    return adt


def cmd_schedule(ns) -> int:
    adt = _load(ns.tree)
    if adt is None:
        return 2
    selected = analyse(adt, slots_override=ns.slots_override,
                       all_variants=ns.all_or_variants)
    if ns.json:
        sys.stdout.write(to_json(selected, adt))
        return 0
    if ns.csv:
        sys.stdout.write(to_csv(selected, adt))
        return 0
    blocks = []
    for result in selected:
        heading = signature_heading(result.variant.signature)
        if result.variant.or_choices:
            heading += " [%s]" % ", ".join(
                "%s=%s" % kv for kv in result.variant.or_choices.items())
        if not result.feasible:
            blocks.append("%s: attack impossible\n" % heading)
            continue
        head = "%s: slots=%d agents=%d cost=%d\n" % (
            heading, result.slots, result.agents, variant_cost(result, adt))
        blocks.append(head + render_table(result, elide=ns.elide))
    sys.stdout.write("\n".join(blocks))
    return 0


def cmd_variants(ns) -> int:
    adt = _load(ns.tree)
    if adt is None:
        return 2
    cases = preprocess_cases(adt)
    lines = []
    for index, case in enumerate(cases, start=1):
        line = "case %d: %s" % (index, signature_heading(case.signature))
        if len(case.merged_signatures) > 1:
            others = "; ".join(signature_heading(s)
                               for s in case.merged_signatures[1:])
            line += " (also covers: %s)" % others
        lines.append(line)
        for vindex, variant in enumerate(case.variants, start=1):
            if not variant.feasible:
                lines.append("  attack impossible")
                continue
            choice = ""
            if variant.or_choices:
                choice = "[%s] " % ", ".join(
                    "%s=%s" % kv for kv in variant.or_choices.items())
            n = variant.dag.n
            line = "  variant %d: %sn=%d" % (vindex, choice, n)
            if n == 0:  # nothing to schedule, so no agent bounds
                lines.append(line + " slots=0")
                continue
            bounds = compute_bounds(variant.dag)
            lines.append(line + " slots=%d bounds (%d,%d]"
                         % (bounds.slots, bounds.lower, bounds.upper))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_export(ns) -> int:
    adt = _load(ns.tree)
    if adt is None:
        return 2
    stage = ns.stage
    if stage == "adt":
        sys.stdout.write(export_dot(adt))
        return 0
    if stage == "normalized":
        sys.stdout.write(export_dot(expand_sand(normalize_time(adt))))
        return 0
    if stage.startswith("variant:"):
        try:
            index = int(stage.split(":", 1)[1])
        except ValueError:
            print("error: bad variant index %r" % stage, file=sys.stderr)
            return 1
        variants = preprocess(adt)
        if not 1 <= index <= len(variants):
            print("error: variant index %d out of range 1..%d"
                  % (index, len(variants)), file=sys.stderr)
            return 2
        sys.stdout.write(export_dot(variants[index - 1].dag))
        return 0
    print("error: unknown stage %r" % stage, file=sys.stderr)
    return 1


def cmd_generate(ns) -> int:
    try:
        if ns.emit == "adt":
            sys.stdout.write(serialize_adt(
                generate_scaling_adt(ns.depth, ns.width, ns.children)))
            return 0
        row = bench_row(ns.depth, ns.width, ns.children)
    except InvalidParams as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    print("depth=%(depth)d width=%(width)d children=%(children)d "
          "adtree=%(adtree)d agents=%(agents)d slots=%(slots)d" % row)
    return 0


def cmd_bench(ns) -> int:
    if not ns.table_file:
        sys.stdout.write(run_scalability())
        return 0
    try:  # open first, so a bad path fails before the sweep runs
        with open(ns.table_file, "w", encoding="utf-8", newline="") as out:
            out.write(run_scalability())
    except OSError as exc:
        print("error: cannot write %s: %s" % (ns.table_file, exc),
              file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "schedule": cmd_schedule,
    "variants": cmd_variants,
    "export": cmd_export,
    "generate": cmd_generate,
    "bench": cmd_bench,
}


def main(args=None) -> int:
    try:
        ns = arg_parser().parse_args(args)
    except SystemExit as stop:  # argparse exits; keep the int contract
        return int(stop.code or 0)
    try:
        return _COMMANDS[ns.command](ns)
    except ValueError as exc:  # a tree the pipeline cannot take
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InternalError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
