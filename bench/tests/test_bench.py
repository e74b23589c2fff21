"""Tests of the benchmark harness on tiny groups.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import trace_group  # noqa: E402

TINY = harness.Workload("tiny", ("C2", "A4"))
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_all_named():
    line, env = harness.measure(TINY, seed=1, seconds=0, trace=False,
                                golden=harness.load_golden())
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in line["metrics"].values())
    assert env["seed"] == 1 and env["python"] and env["numpy"]


def test_per_layer_metrics_all_named():
    line, env = harness.measure(TINY, seed=2, seconds=0, trace=True,
                                golden=harness.load_golden())
    assert line["correct"]
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    m = line["metrics"]
    # C2 has k = 2, A4 has k = 4
    assert m["chartab.coefficient_lookups"] == 2 * 2 + 4 * 12
    assert m["chartab.validate_pairs"] == 2 * 3 + 4 * 5
    assert m["modp.charpoly_calls"] >= 1
    assert sorted(g["order"] for g in env["groups"]) == [2, 12]


def test_units_match_benchmark_json():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_corrupted_digest_is_a_failed_op():
    golden = copy.deepcopy(harness.load_golden())
    golden["tables"]["A4"] = "0" * 64
    line, _ = harness.measure(TINY, seed=1, seconds=0, trace=False, golden=golden)
    assert not line["correct"]
    assert line["attempted"] == 2 and line["failed"] == 1
    assert line["metrics"] == {}


def test_timeout_is_a_failure():
    result = harness.spawn({"mode": "pipeline", "spec": "A5", "trace": False}, timeout=0.01)
    assert result["error"].startswith("timeout")


def test_memory_limit_applies_to_the_worker_only(monkeypatch):
    before = resource.getrlimit(resource.RLIMIT_AS)
    monkeypatch.setattr(harness, "AS_LIMIT_BYTES", 32 << 20)
    result = harness.spawn({"mode": "setup", "trace": False}, timeout=60)
    assert "error" in result
    assert resource.getrlimit(resource.RLIMIT_AS) == before


def test_trace_group_prints_spans_and_counters(capsys):
    assert trace_group.main(["A4"]) == 0
    lines = [json.loads(x) for x in capsys.readouterr().out.splitlines()]
    spans = [x["span"] for x in lines if "span" in x]
    # in start order: the coefficient span opens inside dixon_table
    assert spans == ["zoo.build", "perm.conjugacy_classes", "chartab.dixon_table",
                     "chartab.coefficients", "chartab.validate", "fov.f_value"]
    group = next(x for x in lines if "group" in x)
    assert (group["order"], group["k"], group["exponent"]) == (12, 4, 6)
    assert group["prime"] > 0
    assert lines[-1]["digests"] == {"table": "match", "fov": "match"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
