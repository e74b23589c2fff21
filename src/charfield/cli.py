"""Command line front end.

    charfield table SPEC [--format json|csv|pretty] [--out FILE]
    charfield fov SPEC [--format json|csv|pretty] [--out FILE]
    charfield verify SUITE [--out FILE]
    charfield omega RANGE [--format ...] [--out FILE]
    charfield subfields RANGE --d D [--format ...] [--out FILE]

SPEC is a group spec (see zoo), such as "A5", "C3xC3" or, in cycle
notation, "<(1,2,3),(1,2)>".  RANGE is "lo..hi" or a single integer.
Exit codes: 0 success, 1 verification failure, 2 parse/range error or an
--out FILE that cannot be written ("output error: ..." on stderr),
3 construction error, 4 computation failure.  Output is deterministic
byte-for-byte for identical flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chartab import ComputationError, dixon_table
from .cyclo import count_subfields, omega_degree
from .fov import bounds_report, f_value
from .perm import GroupTooLargeError, conjugacy_classes
from .verify import SUITES, run_suite
from .zoo import SpecSemanticError, SpecSyntaxError, build, parse_spec

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_CONSTRUCTION = 3
EXIT_COMPUTATION = 4

RANGE_CAP = 10**4


def _class_labels(classes) -> list[str]:
    seen: dict[int, int] = {}
    labels = []
    for o in classes.element_orders:
        seen[o] = seen.get(o, 0) + 1
        labels.append(f"{o}{chr(ord('a') + seen[o] - 1)}")
    return labels


def format_table(table, name: str, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(table.to_obj(name), separators=(",", ":")) + "\n"
    labels = _class_labels(table.classes)
    if fmt == "csv":
        lines = ["class," + ",".join(labels),
                 "size," + ",".join(str(s) for s in table.classes.sizes)]
        for i, row in enumerate(table.values):
            lines.append(f"chi{i + 1}," + ",".join(str(v) for v in row))
        return "\n".join(lines) + "\n"
    # pretty
    header = [f"group {name}  order {table.group.order}  classes {table.k}  "
              f"exponent {table.exponent}  prime {table.prime}"]
    cells = [["", *labels], ["size", *map(str, table.classes.sizes)]]
    for i, row in enumerate(table.values):
        cells.append([f"chi{i + 1}", *(str(v) for v in row)])
    widths = [max(len(r[c]) for r in cells) for c in range(table.k + 1)]
    for r in cells:
        header.append("  ".join(x.rjust(w) for x, w in zip(r, widths)))
    return "\n".join(header) + "\n"


def format_fov(report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.to_obj(), separators=(",", ":")) + "\n"
    if fmt == "csv":
        lines = ["conductor,degree,rows"]
        for label, rows in report.buckets:
            lines.append(f"{label.conductor},{label.degree},{len(rows)}")
        return "\n".join(lines) + "\n"
    lines = [f"group {report.group}  order {report.order}  k {report.k}",
             f"f = {report.f}   rational rows = {report.rational}   "
             f"max field degree = {report.max_degree}"]
    for label, rows in report.buckets:
        degs = ", ".join(str(report.degrees[i]) for i in rows)
        lines.append(f"  {str(label):<16} degree {label.degree}  "
                     f"rows {len(rows)} (character degrees: {degs})")
    lines.extend(bounds_report(report))
    return "\n".join(lines) + "\n"


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
    else:
        lo_s = hi_s = text
    try:
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise ValueError(f"bad range {text!r}; use LO..HI or a single integer") from None
    if lo > hi:
        raise ValueError("empty range")
    if hi > RANGE_CAP:
        raise ValueError(f"range exceeds the cap of {RANGE_CAP}")
    return lo, hi


# the commands over a range of integers >= 3: the variable, the row's
# columns, the pretty header and the row of each integer
_RANGE_COMMANDS = {
    "omega": ("r", ("r", "degree"), "r  degree(zeta_r + 1/zeta_r)",
              lambda r, args: (r, omega_degree(r))),
    "subfields": ("n", ("n", "d", "count"), "n  d  subfield count",
                  lambda n, args: (n, args.d, count_subfields(n, args.d).count)),
}


def _emit(text: str, out: str | None, code: int = EXIT_OK) -> int:
    """Write text to the file out, or to stdout, and return code; a file
    that cannot be written is an output error, exit 2."""
    if not out:
        sys.stdout.write(text)
        return code
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="charfield",
        description="Exact character tables, fields of values and their multiplicities")
    sub = parser.add_subparsers(dest="command", required=True)

    for cmd in ("table", "fov"):
        sp = sub.add_parser(cmd)
        sp.add_argument("spec")
        sp.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        sp.add_argument("--out")

    sp = sub.add_parser("verify")
    sp.add_argument("suite", choices=(*SUITES, "all"))
    sp.add_argument("--out")

    for cmd, (var, *_) in _RANGE_COMMANDS.items():
        sp = sub.add_parser(cmd)
        sp.add_argument("range", help=f"{var} or lo..hi ({var} >= 3)")
        if cmd == "subfields":
            sp.add_argument("--d", type=int, required=True, choices=(2, 3))
        sp.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
        sp.add_argument("--out")

    args = parser.parse_args(argv)

    try:
        if args.command in ("table", "fov"):
            try:
                spec = parse_spec(args.spec)
                group = build(spec)
            except SpecSyntaxError as exc:
                print(f"parse error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            except (SpecSemanticError, GroupTooLargeError, ValueError) as exc:
                print(f"construction error: {exc}", file=sys.stderr)
                return EXIT_CONSTRUCTION
            table = dixon_table(group, conjugacy_classes(group))
            if args.command == "table":
                return _emit(format_table(table, str(spec), args.format), args.out)
            return _emit(format_fov(f_value(table, str(spec)), args.format), args.out)

        if args.command == "verify":
            suites = run_suite(args.suite)
            lines = []
            for s in suites:
                lines.extend(s.lines())
            return _emit("\n".join(lines) + "\n", args.out,
                         EXIT_OK if all(s.ok for s in suites) else EXIT_VERIFY)

        if args.command in _RANGE_COMMANDS:
            var, columns, head, row = _RANGE_COMMANDS[args.command]
            try:
                lo, hi = _parse_range(args.range)
                if lo < 3:
                    raise ValueError(f"{args.command} needs {var} >= 3")
            except ValueError as exc:
                print(f"range error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            rows = [row(x, args) for x in range(lo, hi + 1)]
            if args.format == "json":
                text = json.dumps([dict(zip(columns, r)) for r in rows],
                                  separators=(",", ":")) + "\n"
            else:
                sep = "," if args.format == "csv" else "  "
                head = sep.join(columns) if args.format == "csv" else head
                text = "\n".join([head] + [sep.join(map(str, r)) for r in rows]) + "\n"
            return _emit(text, args.out)
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION

    raise AssertionError("unreachable")  # pragma: no cover


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
