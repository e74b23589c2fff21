"""The charfield benchmark.

    python3 bench/run.py --workload corpus --seed 1 --seconds 60 --trace 0

Workloads (bench/harness.py): ``corpus`` (``run_suite("all")``) and
``large-groups`` (A9, SL(2,25)).  The seed only permutes the order of
groups within a workload (``corpus`` is a single operation, so its seed
changes nothing).  The large-exponent groups PSL(2,31) and PSL(2,29) are
not a workload: their run time swings by half between minute-long phases
of host load, more than any run length here averages out.  Trace them with
bench/trace_group.py.

Each operation runs in a fresh single-threaded worker process, one at a
time.  Passes over the workload repeat in a closed loop while the next one
is expected to end within ``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall time
of one pass, after import), ``setup_s`` (median interpreter start plus
``import charfield``), ``peak_rss_mib`` (median over passes of the largest
worker ``ru_maxrss``) and ``ok_frac`` (operations that passed over
operations attempted; the complement of the failed fraction, so that the
metric never reads 0).  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones, with
``trace.overhead_frac``, the traced pass time against the untraced one.

Every output is checked against bench/golden.json.  The last stdout line
is the JSON result; the line before it records the environment.  The exit
code is 0 only when every operation succeeded, 2 when no worker can start.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from harness import ROOT, WORKLOADS, load_golden, measure

UNITS = (("_per_s", "1/s"), ("_s", "s"), ("_mib", "MiB"), ("_frac", "ratio"))


def unit_of(name: str) -> str:
    return next((unit for suffix, unit in UNITS if name.endswith(suffix)), "count")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "commit": git_commit()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "charfield" / "__init__.py").is_file():
        print(f"no charfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        line, env = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), load_golden())
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2
    line["metrics"] = {name: {"value": value, "unit": unit_of(name)}
                       for name, value in line["metrics"].items()}
    print(json.dumps({"env": dict(environment(), **env)}))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
