"""Trace one group through the pipeline and print its spans and counters.

    python3 bench/trace_group.py "SL(2,25)"

Runs build -> conjugacy_classes -> dixon_table -> validate_table -> f_value
in one traced worker, under the benchmark's wall-time and address-space
limits, and prints JSON lines: the environment, one line per stage span
(start and duration in seconds), the group's counters (order, degree, k,
exponent, prime), one line per per-layer metric, and a closing line with
the run time, peak RSS and whether the outputs match bench/golden.json
("unrecorded" for a group the golden file does not list).  Exit code 0
when the pipeline succeeded and validated, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import OP_TIMEOUT_S, load_golden, pass_layers, spawn
from run import environment, unit_of


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spec")
    args = parser.parse_args(argv)

    result = spawn({"mode": "pipeline", "spec": args.spec, "trace": True}, OP_TIMEOUT_S)
    if "error" in result:
        print(json.dumps({"failed": args.spec, "why": result["error"]}))
        return 1
    trace = result["trace"]
    print(json.dumps({"env": dict(environment(), python=result["python"],
                                  numpy=result["numpy"])}))
    for stage in trace["stages"]:
        print(json.dumps(stage))
    for group in trace["groups"]:
        print(json.dumps(dict(group=args.spec, **group)))
    for name, value in pass_layers({"run_s": result["run_s"], "ops": [result]}).items():
        print(json.dumps({"metric": name, "value": value, "unit": unit_of(name)}))

    golden = load_golden()
    digests = {}
    for key, table in (("table", "tables"), ("fov", "fov")):
        want = golden[table].get(args.spec)
        digests[key] = ("unrecorded" if want is None else
                        "match" if want == result["digests"][key] else "differs")
    print(json.dumps({"spec": args.spec, "run_s": result["run_s"],
                      "setup_s": result["setup_s"], "maxrss_mib": result["maxrss_mib"],
                      "validated": result["ok"], "digests": digests}))
    return 0 if result["ok"] and "differs" not in digests.values() else 1


if __name__ == "__main__":
    sys.exit(main())
