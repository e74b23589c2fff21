"""Groups at the edge of the documented limits, run under time and memory caps.

f_value compares k with log2 log2 |G|; written literally, 2**(2**k) has
2**k bits (8 GiB at k = 36), so these groups run in a child process whose
address space is capped: a regression fails the test instead of exhausting
the machine's memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from charfield import build, dixon_table, f_value
from charfield.cli import main
spec = sys.argv[1]
print(json.dumps(f_value(dixon_table(build(spec)), spec).to_obj()))
sys.exit(main(["fov", spec, "--format", "json"]))
"""


@pytest.mark.parametrize("spec,k", [("C6xC6", 36), ("C7xC7", 49), ("C8xC8", 64)])
def test_fov_at_many_classes(spec, k):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, spec], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    direct, cli = (json.loads(line) for line in done.stdout.splitlines())
    assert direct == cli
    assert direct["k"] == direct["order"] == k
    assert direct["bounds"]["k_ge_log2log2"] is True
