"""Orchestrator: runs a workload as a closed loop of cold worker processes.

One worker runs at a time, so workers never contend for CPUs.  Each runs
under a wall-time limit and an ``RLIMIT_AS`` set on that child only, so a
hang or a ``MemoryError`` counts as a failed operation instead of stalling
the machine.  An operation is one group's pipeline or one ``run_suite("all")``.  It fails
on an exception, a timeout, a memory limit, ``validate_table(...).all_ok``
being false, or an output digest that differs from ``golden.json``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from worker import MODP_FUNCS, RSS_STAGES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
GOLDEN = BENCH / "golden.json"

OP_TIMEOUT_S = 120.0
RUN_DEADLINE_S = 165.0          # a run must end within 180 s
AS_LIMIT_BYTES = 3 << 30        # per worker; the largest workload peaks near 0.5 GiB RSS
SETUP_SAMPLES = 5               # setup-only workers per run, besides one per operation


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[str, ...]      # groups for pipeline operations; empty means one suite op


WORKLOADS = {
    # the paper's reproduction: 22 small groups plus omega and subfield number theory
    "corpus": Workload("corpus", ()),
    # perm + chartab coefficients dominate; narrow rows/long base against wide rows/short base
    "large-groups": Workload("large-groups", ("A9", "SL(2,25)")),
}


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (AS_LIMIT_BYTES, AS_LIMIT_BYTES))


def _worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    # one thread per worker: numpy's BLAS pools would otherwise contend
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def spawn(job: dict, timeout: float) -> dict:
    """Run one worker to completion; returns its result or {"error": ...}."""
    env = _worker_env()
    job = dict(job, t0=time.monotonic())
    proc = subprocess.Popen([sys.executable, str(WORKER), json.dumps(job)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, preexec_fn=_limit_child)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timeout after {timeout:.0f} s"}
    if proc.returncode != 0:
        lines = err.strip().splitlines() or [f"exit code {proc.returncode}"]
        return {"error": lines[-1]}
    return json.loads(out.strip().splitlines()[-1])


def check(result: dict, spec: str | None, golden: dict) -> str | None:
    """Why an operation failed, or None."""
    if "error" in result:
        return result["error"]
    if not result["ok"]:
        return "validation failed" if spec else "verify all reported a failure"
    want = ({"verify all": golden["verify all"]} if spec is None else
            {"table": golden["tables"].get(spec), "fov": golden["fov"].get(spec)})
    for key, digest in result["digests"].items():
        if digest != want[key]:
            return f"{key} digest {digest[:12]} differs from golden {str(want[key])[:12]}"
    return None


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


class Run:
    """One benchmark run: its operations, setups and failures."""

    def __init__(self, workload: Workload, seed: int, golden: dict):
        self.specs = list(workload.specs) or [None]
        random.Random(seed).shuffle(self.specs)
        self.golden = golden
        self.start = time.monotonic()
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.env: dict = {}

    def _timeout(self) -> float:
        return min(OP_TIMEOUT_S, RUN_DEADLINE_S - self.elapsed())

    def setup_only(self) -> float:
        result = spawn({"mode": "setup", "trace": False}, self._timeout())
        if "error" in result:
            raise RuntimeError(f"cannot start a worker: {result['error']}")
        self.env = {"python": result["python"], "numpy": result["numpy"]}
        return result["setup_s"]

    def one_pass(self, trace: bool) -> dict | None:
        """All operations once, in the seeded order; None if any failed."""
        ops = []
        for spec in self.specs:
            job = {"mode": "suite" if spec is None else "pipeline", "spec": spec,
                   "trace": trace}
            label = spec or "verify all"
            result = spawn(job, self._timeout())
            self.attempted += 1
            why = check(result, spec, self.golden)
            if why:
                self.failures.append(f"{label}: {why}")
                print(json.dumps({"failed": label, "why": why}), file=sys.stderr)
                continue
            self.setups.append(result["setup_s"])
            ops.append(dict(result, spec=label))
        if len(ops) < len(self.specs):
            return None
        return {"run_s": sum(r["run_s"] for r in ops),
                "peak_rss_mib": max(r["maxrss_mib"] for r in ops),
                "ops": ops}

    def elapsed(self) -> float:
        return time.monotonic() - self.start


def pass_layers(p: dict) -> dict:
    """Per-layer metrics of one traced pass."""
    tot: dict[str, float] = {}
    rss = {f"rss.after_{stage}_mib": 0.0 for stage in RSS_STAGES.values()}
    for op in p["ops"]:
        for key, value in op["trace"]["layers"].items():
            if key in rss:
                rss[key] = max(rss[key], value)
            else:
                tot[key] = tot.get(key, 0) + value

    def t(name):
        return tot.get(name, 0)

    coeff_s, lookups = t("chartab.coefficients_s"), t("chartab.coefficient_lookups")
    validate_s, pairs = t("chartab.validate_s"), t("chartab.validate_pairs")
    m = {
        "zoo.build_s": t("zoo.build_s"),
        "perm.conjugacy_classes_s": t("perm.conjugacy_classes_s"),
        "chartab.coefficients_s": coeff_s,
        "chartab.coefficient_lookups": lookups,
        "chartab.coefficient_lookups_per_s": lookups / coeff_s if coeff_s else 0.0,
        "chartab.dixon_table_s": t("chartab.dixon_table_s"),
        "chartab.split_lift_s": t("chartab.dixon_table_s") - coeff_s,
    }
    for fn in MODP_FUNCS:
        m[f"modp.{fn}_calls"] = t(f"modp.{fn}_calls")
        m[f"modp.{fn}_s"] = t(f"modp.{fn}_s")
    m.update({
        "chartab.validate_s": validate_s,
        "chartab.validate_pairs": pairs,
        "chartab.validate_pairs_per_s": pairs / validate_s if validate_s else 0.0,
        "fov.field_of_values_s": t("fov.field_of_values_s"),
        "fov.f_value_s": t("fov.f_value_s"),
        "fov.bounds_s": t("fov.f_value_s") - t("fov.field_of_values_s"),
        "cyclo.omega_degree_s": t("cyclo.omega_degree_s"),
        "cyclo.count_subfields_s": t("cyclo.count_subfields_s"),
        "verify.run_suite_s": t("verify.run_suite_s"),
        "verify.self_s": t("verify.self_s"),
    })
    m.update(rss)
    m["trace.span_coverage_frac"] = t("trace.top_span_s") / p["run_s"]
    return m


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            golden: dict) -> tuple[dict, dict]:
    """One run: returns (result line, environment record)."""
    run = Run(workload, seed, golden)
    run.setup_only()            # warm-up: the first import may write bytecode caches
    for _ in range(SETUP_SAMPLES):
        run.setups.append(run.setup_only())
    plain, traced = [], []
    # closed loop: at least one cycle, then more while the next is expected
    # to end within `seconds`, so a run's length stays near `seconds`
    while True:
        cycle_start = run.elapsed()
        p = run.one_pass(trace=False)
        if p:
            plain.append(p)
        if trace:
            p = run.one_pass(trace=True)
            if p:
                traced.append(p)
        now = run.elapsed()
        if run.failures or now + (now - cycle_start) > seconds:
            break

    metrics = {}
    if trace and traced and plain:
        per_pass = [pass_layers(p) for p in traced]
        metrics = {name: statistics.median(pp[name] for pp in per_pass) for name in per_pass[0]}
        metrics["trace.overhead_frac"] = (statistics.median(p["run_s"] for p in traced)
                                          / statistics.median(p["run_s"] for p in plain) - 1)
    elif not trace and plain:
        metrics = {
            "run_s": statistics.median(p["run_s"] for p in plain),
            "setup_s": statistics.median(run.setups),
            "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in plain),
            "ok_frac": (run.attempted - len(run.failures)) / run.attempted,
        }
    line = {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}
    env = dict(run.env, workload=workload.name, seed=seed, order=run.specs,
               passes=len(plain) + len(traced), setups=len(run.setups))
    if traced:
        env["groups"] = [dict(spec=op["spec"], **g)
                         for op in traced[0]["ops"] for g in op["trace"]["groups"]]
    return line, env
