"""Record bench/golden.json: sha256 digests of every output the benchmark checks.

    python3 bench/record_golden.py

Digests are taken of ``json.dumps(table.to_obj(spec))`` and
``json.dumps(f_value(...).to_obj())`` (compact separators, as
``charfield table/fov --format json`` print them, without the newline) per
group, and of the whole ``charfield verify all`` transcript.  Run this only
at a commit whose outputs are known to be right: the benchmark counts any
later difference as a failed operation.
"""

from __future__ import annotations

import json
import sys

from harness import GOLDEN, OP_TIMEOUT_S, ROOT, WORKLOADS, spawn
from run import git_commit

# the 22 groups run_suite("all") builds, so a single-group trace of any of
# them can be checked too
CORPUS_SPECS = ("C2", "C3", "C4", "D10", "A4", "F21", "S3", "D14", "D18", "F20", "F52",
                "A5", "PSL(2,8)", "Sz(8)", "C1", "C6", "C2xC2", "C3xC3", "C8", "C9",
                "PSL(2,19)", "S4")
# large-exponent groups, traced one at a time with trace_group.py
TRACE_SPECS = ("PSL(2,31)", "PSL(2,29)")


def main() -> int:
    specs = [*CORPUS_SPECS, *(s for w in WORKLOADS.values() for s in w.specs), *TRACE_SPECS]
    golden = {"commit": git_commit(), "verify all": None, "tables": {}, "fov": {}}
    result = spawn({"mode": "suite", "trace": False}, OP_TIMEOUT_S)
    if "error" in result or not result["ok"]:
        print(f"verify all failed: {result}", file=sys.stderr)
        return 1
    golden["verify all"] = result["digests"]["verify all"]
    for spec in specs:
        result = spawn({"mode": "pipeline", "spec": spec, "trace": False}, OP_TIMEOUT_S)
        if "error" in result or not result["ok"]:
            print(f"{spec} failed: {result}", file=sys.stderr)
            return 1
        golden["tables"][spec] = result["digests"]["table"]
        golden["fov"][spec] = result["digests"]["fov"]
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}: {len(specs)} groups")
    return 0


if __name__ == "__main__":
    sys.exit(main())
