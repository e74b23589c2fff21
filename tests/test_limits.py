"""Groups at the edge of the documented limits, run under time and memory caps.

Each case runs in a child process whose address space is capped at 2 GiB
and whose run time is capped at 60 s, so a regression fails the test
instead of exhausting the machine's memory.  f_value compares k with
log2 log2 |G|; written literally, 2**(2**k) has 2**k bits (8 GiB at
k = 36).  Group construction must stop at the element cap (10**6), at the
element table limit (perm.TABLE_BYTES_LIMIT) and at q = 32 for PSL(2,q)
and SL(2,q) with exit code 3, and the largest groups inside them,
PSL(2,32) and SL(2,32), must build their tables.  The limit counts the
right-multiplication maps too, one |G|-long int32 array per generator, so
a group with many repeated generators stops there as well.  A C, D or
Frob spec past either limit must be refused from its order before a
generator is built, even where one point list would not fit in memory or
its length in a C ssize_t, and a cycle spec from 2 elements, or from its
identity row if no generator moves a point.  The widest transposition the
table limit admits, on 2^25 - 1 points, must build its table.  C2048
and C4096 pass both build limits, and the 64-class limit must refuse them
with exit code 4.  Frob(181,3) and C61, small groups with many classes of
large element order, must run the whole pipeline, validation included.
No element table is stored, so the widest group inside the limits,
SL(2,32), must build its table in well under the 128 MiB its element
table would take.  The derived subgroups of A8 and S9, and S9's quotient
by its derived subgroup, must come out inside the same caps.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CAPPED = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
"""

FOV_CHILD = CAPPED + """
import json, sys
from charfield import build, dixon_table, f_value
from charfield.cli import main
spec = sys.argv[1]
print(json.dumps(f_value(dixon_table(build(spec)), spec).to_obj()))
sys.exit(main(["fov", spec, "--format", "json"]))
"""

CLI_CHILD = CAPPED + """
import sys
from charfield.cli import main
sys.exit(main(sys.argv[1:]))
"""

PIPELINE_CHILD = CAPPED + """
import json, sys
from charfield import build, dixon_table, f_value
from charfield.chartab import validate_table
spec = sys.argv[1]
table = dixon_table(build(spec))
print(json.dumps({"k": table.k, "failures": validate_table(table).failures,
                  "f": f_value(table, spec).f}))
"""

# the table goes to a buffer, and the child's peak resident set, in KiB, to
# stdout.  Linux carries ru_maxrss across execve, so a child spawned by a
# large test process would report that process's peak; VmHWM, the peak of
# the child's own address space, does not
MEMORY_CHILD = CAPPED + """
import contextlib, io, sys
from charfield.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
try:
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")))
except (OSError, StopIteration):
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""

SUBGROUP_CHILD = CAPPED + """
import json
from charfield import build
from charfield.perm import derived_subgroup, quotient_group
a8, s9 = build("A8"), build("S9")
d8, d9 = derived_subgroup(a8), derived_subgroup(s9)
print(json.dumps({"A8' is A8": d8.element_ids == frozenset(range(a8.order)),
                  "|S9'|": d9.order, "|S9/S9'|": quotient_group(s9, d9).order}))
"""

# a spec's degree is its largest point, so no spec names a group with no
# orbit on many points: this child enumerates one directly, and its error
# goes uncaught to stderr
NO_ORBIT_CHILD = CAPPED + """
from charfield.perm import enumerate_group
enumerate_group(10**9, [])
"""


def run_capped(script, *args):
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def cycle_spec(*gens):
    """The cycle spec of generators given as lists of 1-based cycles."""
    return "<" + ",".join("".join("(" + ",".join(map(str, c)) + ")" for c in g) or "()"
                          for g in gens) + ">"


@pytest.mark.parametrize("spec,k", [("C6xC6", 36), ("C7xC7", 49), ("C8xC8", 64)])
def test_fov_at_many_classes(spec, k):
    done = run_capped(FOV_CHILD, spec)
    assert done.returncode == 0, done.stderr
    direct, cli = (json.loads(line) for line in done.stdout.splitlines())
    assert direct == cli
    assert direct["k"] == direct["order"] == k
    assert direct["bounds"]["k_ge_log2log2"] is True


# sha256 of `table SPEC --format json` stdout, recorded when every group
# stored its full element table
TABLE_DIGESTS = {
    "PSL(2,32)": "66a34d7c5bc6989fd031329688b425a226886535a0d431c9121e8414027c8b43",
    "SL(2,32)": "f00e54c4fa8dbee4d28f8f9249c1e5d70c4925f059e36734f58f1e88f5925313",
}


@pytest.mark.parametrize("spec,code,message", [
    ("S9xC3", 3, "closure exceeded the cap"),  # 1,088,640 elements
    ("S8xC25", 3, "closure exceeded the cap"),  # 1,008,000 elements
    ("SL(2,37)", 3, "4 <= q <= 32"),
    ("PSL(2,37)", 3, "4 <= q <= 32"),
    ("C2000000", 3, "element table limit"),  # 2,000,000 elements on 2,000,000 points
    ("C50000", 3, "element table limit"),  # within the element cap, a 10 GB table
    # 8192 elements on 8192 points: the table alone is 256 MiB, and the
    # right-multiplication map takes it past the limit
    ("C8192", 3, "element table limit"),
    # the order of a C, D or Frob spec is known before its generators are
    # built, so these stop before one point is allocated
    ("C70000000", 3, "element table limit"),
    ("C100000000", 3, "element table limit"),
    ("C99999999999999999999", 3, "element table limit"),  # past a C ssize_t
    ("D200000000", 3, "element table limit"),
    ("D20000000000", 3, "element table limit"),
    ("Frob(100003,2)", 3, "element table limit"),  # inside the element cap
    ("Frob(2147483659,2)", 3, "element table limit"),
    # a cycle spec's degree is its largest point, checked on 2 elements
    # before one image array is allocated
    ("<(1,1000000000)>", 3, "at least 2 elements on 1000000000 points exceed"),
    # inside both build limits, but past the 64-class limit, which must
    # refuse them before any power map is walked
    ("C2048", 4, "2048 classes exceeds the supported maximum of 64"),
    ("C4096", 4, "4096 classes exceeds the supported maximum of 64"),
    ("PSL(2,32)", 0, ""),
    ("SL(2,32)", 0, ""),
])
def test_table_at_the_caps(spec, code, message):
    done = run_capped(CLI_CHILD, "table", spec, "--format", "json")
    assert done.returncode == code, done.stderr
    assert message in done.stderr
    if code == 0:
        assert json.loads(done.stdout)["order"] == 32736
        assert hashlib.sha256(done.stdout.encode()).hexdigest() == TABLE_DIGESTS[spec]


def test_widest_table_peaks_under_80_mib():
    # SL(2,32) on 1,023 points: its element table alone would be 128 MiB
    done = run_capped(MEMORY_CHILD, "table", "SL(2,32)")
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) < 80 * 1024


def test_wide_cycle_spec_stops_at_the_table_limit():
    # a 20,000-cycle: 20,000 elements, but a 1.6 GB element table; its spec,
    # 108,897 bytes, fits in one command-line argument
    spec = cycle_spec([range(1, 20001)])
    assert len(spec) == 108897
    done = run_capped(CLI_CHILD, "table", spec)
    assert done.returncode == 3, done.stderr
    assert "element table limit" in done.stderr


@pytest.mark.parametrize("degree,code", [(2**25 - 1, 0), (2**25, 3)])
def test_widest_transposition_at_the_table_limit(degree, code):
    # C2 on 2^25 - 1 points takes 2 * 2^25 * 4 bytes, the limit exactly; one
    # point more is refused from the spec, before an image array exists
    done = run_capped(CLI_CHILD, "table", f"<(1,{degree})>", "--format", "json")
    assert done.returncode == code, done.stderr
    if code:
        assert f"at least 2 elements on {degree} points exceed" in done.stderr
    else:
        c2 = run_capped(CLI_CHILD, "table", "C2", "--format", "json")
        assert done.stdout.replace(f'"<(1,{degree})>"', '"C2"') == c2.stdout


def test_group_with_no_orbit_stops_at_the_table_limit():
    # the trivial group on 10**9 points has no orbit to check, but its
    # identity row alone would take 4 GB
    done = run_capped(NO_ORBIT_CHILD)
    assert done.returncode == 1
    assert ("GroupTooLargeError: group too large: at least 1 elements on 1000000000 points exceed"
            in done.stderr)


@pytest.mark.parametrize("copies,code", [(1, 0), (200, 3)])
def test_repeated_generators_count_against_the_table_limit(copies, code):
    # S9 on 9 points has a 13 MiB table, and each generator a 1.4 MiB
    # right-multiplication map: with the 9-cycle repeated 200 times the
    # maps take 290 MiB, past the limit
    spec = cycle_spec([(1, 2)], *[[range(1, 10)]] * copies)
    done = run_capped(CLI_CHILD, "table", spec, "--format", "json")
    assert done.returncode == code, done.stderr
    if code:
        assert "362880 elements on 9 points exceed the 256 MiB element table limit" in done.stderr
    else:
        assert json.loads(done.stdout)["order"] == 362880


@pytest.mark.parametrize("spec,k", [("Frob(181,3)", 63), ("C61", 61)])
def test_pipeline_at_many_classes_of_large_order(spec, k):
    done = run_capped(PIPELINE_CHILD, spec)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert out["k"] == k and out["failures"] == [] and out["f"] >= 1


def test_derived_subgroups_and_quotient_at_the_edge():
    # A8 is perfect, and S9' = A9 has index 2
    done = run_capped(SUBGROUP_CHILD)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"A8' is A8": True, "|S9'|": 181440, "|S9/S9'|": 2}
