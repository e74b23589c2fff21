"""Command line front end.

    charfield table SPEC [--format json|csv|pretty] [--out FILE]
    charfield fov SPEC [--format json|csv|pretty] [--out FILE]
    charfield verify SUITE [--out FILE]
    charfield omega RANGE [--format ...] [--out FILE]
    charfield subfields RANGE --d D [--format ...] [--out FILE]

RANGE is "lo..hi" or a single integer.  Exit codes: 0 success,
1 verification failure, 2 parse/range error or an --out FILE that cannot
be written ("output error: ..." on stderr), 3 construction error,
4 computation failure.  Output is deterministic byte-for-byte for
identical flags.
"""

from __future__ import annotations

import argparse
import json
import sys

from .chartab import ComputationError, dixon_table
from .cyclo import count_subfields, omega_degree
from .fov import bounds_report, f_value
from .perm import GroupTooLargeError, conjugacy_classes
from .verify import run_suite
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
    sp.add_argument("suite",
                    choices=("theorem-a", "exclusions", "omega", "subfields", "bounds", "all"))
    sp.add_argument("--out")

    sp = sub.add_parser("omega")
    sp.add_argument("range", help="r or lo..hi (r >= 3)")
    sp.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    sp.add_argument("--out")

    sp = sub.add_parser("subfields")
    sp.add_argument("range", help="n or lo..hi (n >= 3)")
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

        if args.command == "omega":
            try:
                lo, hi = _parse_range(args.range)
                if lo < 3:
                    raise ValueError("omega needs r >= 3")
            except ValueError as exc:
                print(f"range error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            rows = [(r, omega_degree(r)) for r in range(lo, hi + 1)]
            if args.format == "json":
                text = json.dumps([{"r": r, "degree": d} for r, d in rows],
                                  separators=(",", ":")) + "\n"
            else:
                head = "r,degree" if args.format == "csv" else "r  degree(zeta_r + 1/zeta_r)"
                sep = "," if args.format == "csv" else "  "
                text = "\n".join([head] + [f"{r}{sep}{d}" for r, d in rows]) + "\n"
            return _emit(text, args.out)

        if args.command == "subfields":
            try:
                lo, hi = _parse_range(args.range)
                if lo < 3:
                    raise ValueError("subfields needs n >= 3")
            except ValueError as exc:
                print(f"range error: {exc}", file=sys.stderr)
                return EXIT_PARSE
            rows = [(n, args.d, count_subfields(n, args.d).count) for n in range(lo, hi + 1)]
            if args.format == "json":
                text = json.dumps([{"n": n, "d": d, "count": c} for n, d, c in rows],
                                  separators=(",", ":")) + "\n"
            else:
                head = "n,d,count" if args.format == "csv" else "n  d  subfield count"
                sep = "," if args.format == "csv" else "  "
                text = "\n".join([head] + [f"{n}{sep}{d}{sep}{c}" for n, d, c in rows]) + "\n"
            return _emit(text, args.out)
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION

    raise AssertionError("unreachable")  # pragma: no cover


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    console_main()
