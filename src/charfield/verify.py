"""Fixture suites: the classified group lists and their witnesses.

Each case recomputes everything from scratch (group, exact table, field
buckets) and compares against frozen expectations.  Suites: "theorem-a"
(the f=2 and f=3 classification lists and the extremal orders b(2)=21,
b(3)=29120), "exclusions" (groups proving the lists stop where they do),
"omega" (degrees of zeta_r + zeta_r^-1 against a totient oracle),
"subfields" (quadratic/cubic subfield counts against explicit subgroup
enumeration), "bounds" (class-number bound comparisons), and "all".

The number-theory oracles are brute-force element counts done as array
passes, so they stay independent of what they check: the totient counts
the t in [1, r] coprime to r with one np.gcd, not arith.euler_phi, and the
subfield oracle finds the explicit order-d subgroups of (Z/n)* by testing
every residue x^d = 1 (mod n), not count_subfields' formula over the
cyclic factors.

One documented discrepancy is downgraded to WARN: the computed set of r
with quadratic zeta_r + zeta_r^-1 is {5, 8, 10, 12}, while the reference
list omits r = 12 (phi(12)/2 = 2, so 12 belongs); everything else that
deviates from a fixture fails the run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chartab import CharacterTable, dixon_table, validate_table
from .cyclo import count_subfields, omega_degree
from .fov import FReport, f_value
from .perm import conjugacy_classes
from .zoo import build, parse_spec


@dataclass(frozen=True)
class VerificationCase:
    """One corpus fixture; note records the claim class it pins down."""

    spec: str
    expected_f: int
    expected_order: int
    f_is_minimum: bool = False
    expected_k: int | None = None
    expected_rational: int | None = None
    note: str = ""


THEOREM_A_F2 = (
    VerificationCase("C2", 2, 2, expected_k=2, note="classified f=2 list"),
    VerificationCase("C3", 2, 3, expected_k=3, note="classified f=2 list"),
    VerificationCase("C4", 2, 4, expected_k=4, note="classified f=2 list"),
    VerificationCase("D10", 2, 10, expected_k=4, note="classified f=2 list"),
    VerificationCase("A4", 2, 12, expected_k=4, note="classified f=2 list"),
    VerificationCase("F21", 2, 21, expected_k=5, note="classified f=2 list"),
)

THEOREM_A_F3 = (
    VerificationCase("S3", 3, 6, expected_k=3, note="classified f=3 list"),
    VerificationCase("D14", 3, 14, expected_k=5, note="classified f=3 list"),
    VerificationCase("D18", 3, 18, expected_k=6, note="classified f=3 list"),
    VerificationCase("F20", 3, 20, expected_k=5, note="classified f=3 list"),
    VerificationCase("F52", 3, 52, expected_k=7, note="classified f=3 list"),
    VerificationCase("A5", 3, 60, expected_k=5, expected_rational=3,
                     note="classified f=3 list"),
    VerificationCase("PSL(2,8)", 3, 504, expected_k=9, expected_rational=3,
                     note="classified f=3 list"),
    VerificationCase("Sz(8)", 3, 29120, expected_k=11, expected_rational=3,
                     note="classified f=3 list; derived k=11 by class partition"),
)

EXCLUSIONS = (
    VerificationCase("C1", 1, 1, note="exclusion witness: f=1 only for the trivial group"),
    VerificationCase("C6", 4, 6, note="exclusion witness: f(C6)=4"),
    VerificationCase("C2xC2", 4, 4, note="exclusion witness: f(C2xC2)=4"),
    VerificationCase("C3xC3", 8, 9, note="exclusion witness: f(C3xC3)=8"),
    VerificationCase("C8", 4, 8, f_is_minimum=True, note="exclusion witness: f(C8)>3"),
    VerificationCase("C9", 4, 9, f_is_minimum=True, note="exclusion witness: f(C9)>3"),
    VerificationCase("PSL(2,19)", 4, 3420, note="exclusion witness: f(PSL(2,19))=4"),
    VerificationCase("S4", 5, 24, note="exclusion witness: f(S4)=5"),
)

EXPECTED_B2 = 21
EXPECTED_B3 = 29120

OMEGA_RATIONAL = frozenset({3, 4, 6})
OMEGA_QUADRATIC_COMPUTED = frozenset({5, 8, 10, 12})
OMEGA_QUADRATIC_REFERENCE = frozenset({5, 8, 10})  # omits the valid r = 12
OMEGA_CUBIC = frozenset({7, 9, 14, 18})
OMEGA_R_MAX = 200
SUBFIELDS_N_MAX = 500


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    status: str  # PASS | FAIL | WARN
    detail: str


@dataclass
class SuiteResult:
    suite: str
    results: list[CaseResult]

    @property
    def ok(self) -> bool:
        return all(r.status != "FAIL" for r in self.results)

    def lines(self) -> list[str]:
        out = [f"{r.status} {r.case_id}: {r.detail}" for r in self.results]
        passed = sum(r.status == "PASS" for r in self.results)
        warned = sum(r.status == "WARN" for r in self.results)
        failed = sum(r.status == "FAIL" for r in self.results)
        out.append(f"{self.suite}: {passed} passed, {failed} failed, {warned} warned")
        return out


@functools.lru_cache(maxsize=None)
def table_for(spec: str) -> CharacterTable:
    group = build(spec)
    return dixon_table(group, conjugacy_classes(group))


@functools.lru_cache(maxsize=None)
def report_for(spec: str) -> FReport:
    canonical = str(parse_spec(spec))
    return f_value(table_for(canonical), canonical)


def _check_case(case: VerificationCase) -> CaseResult:
    rep = report_for(case.spec)
    problems = []
    if rep.order != case.expected_order:
        problems.append(f"order {rep.order} != {case.expected_order}")
    if case.f_is_minimum:
        if rep.f < case.expected_f:
            problems.append(f"f {rep.f} < {case.expected_f}")
        f_text = f"f={rep.f}>={case.expected_f}"
    else:
        if rep.f != case.expected_f:
            problems.append(f"f {rep.f} != {case.expected_f}")
        f_text = f"f={rep.f}"
    if case.expected_k is not None and rep.k != case.expected_k:
        problems.append(f"k {rep.k} != {case.expected_k}")
    if case.expected_rational is not None and rep.rational != case.expected_rational:
        problems.append(f"rational {rep.rational} != {case.expected_rational}")
    val = validate_table(table_for(str(parse_spec(case.spec))))
    if not val.all_ok:
        problems.append("table validation failed: " + "; ".join(val.failures))
    if problems:
        return CaseResult(case.spec, "FAIL", "; ".join(problems))
    return CaseResult(case.spec, "PASS",
                      f"{f_text} k={rep.k} rational={rep.rational} order={rep.order}")


def suite_theorem_a() -> SuiteResult:
    results = [_check_case(c) for c in THEOREM_A_F2 + THEOREM_A_F3]
    b2 = max(report_for(c.spec).order for c in THEOREM_A_F2)
    b3 = max(report_for(c.spec).order for c in THEOREM_A_F3)
    results.append(CaseResult("b(2)", "PASS" if b2 == EXPECTED_B2 else "FAIL",
                              f"max order over the f=2 list = {b2} (expect {EXPECTED_B2})"))
    results.append(CaseResult("b(3)", "PASS" if b3 == EXPECTED_B3 else "FAIL",
                              f"max order over the f=3 list = {b3} (expect {EXPECTED_B3})"))
    return SuiteResult("theorem-a", results)


def suite_exclusions() -> SuiteResult:
    return SuiteResult("exclusions", [_check_case(c) for c in EXCLUSIONS])


def suite_omega() -> SuiteResult:
    results = []
    degrees = {}
    mismatch = []
    for r in range(3, OMEGA_R_MAX + 1):
        d = omega_degree(r)
        degrees[r] = d
        # the totient as a count of the t in [1, r] coprime to r
        phi = np.count_nonzero(np.gcd(np.arange(1, r + 1), r) == 1)
        if 2 * d != phi:
            mismatch.append(r)
    results.append(CaseResult(
        "omega-totient", "FAIL" if mismatch else "PASS",
        f"degree(zeta_r + 1/zeta_r) = phi(r)/2 for 3 <= r <= {OMEGA_R_MAX}"
        + (f"; mismatches at {mismatch}" if mismatch else "")))
    rational = frozenset(r for r, d in degrees.items() if d == 1)
    quadratic = frozenset(r for r, d in degrees.items() if d == 2)
    cubic = frozenset(r for r, d in degrees.items() if d == 3)
    results.append(CaseResult(
        "omega-rational", "PASS" if rational == OMEGA_RATIONAL else "FAIL",
        f"rational set {sorted(rational)} (expect {sorted(OMEGA_RATIONAL)})"))
    if quadratic == OMEGA_QUADRATIC_COMPUTED:
        results.append(CaseResult(
            "omega-quadratic", "WARN",
            f"computed quadratic set {sorted(quadratic)}; reference list "
            f"{sorted(OMEGA_QUADRATIC_REFERENCE)} omits r=12 (documented discrepancy: "
            f"phi(12)/2 = 2)"))
    else:
        results.append(CaseResult(
            "omega-quadratic", "FAIL",
            f"computed quadratic set {sorted(quadratic)} != {sorted(OMEGA_QUADRATIC_COMPUTED)}"))
    results.append(CaseResult(
        "omega-cubic", "PASS" if cubic == OMEGA_CUBIC else "FAIL",
        f"cubic set {sorted(cubic)} (expect {sorted(OMEGA_CUBIC)})"))
    return SuiteResult("omega", results)


def _explicit_subgroup_counts(d: int) -> np.ndarray:
    """counts[n], for 3 <= n <= SUBFIELDS_N_MAX, is the number of explicit
    order-d subgroups {1, x, ..., x^(d-1)} of (Z/n)*, d prime.

    Their count equals the index-d subgroup count (annihilator duality in a
    finite abelian group).  Blocks of moduli n are scanned at once for every
    x in [2, n) with x^d = 1 (mod n), which makes x a unit of order d; its
    subgroup is labelled by its smallest nontrivial member, the least
    x^j mod n over 0 < j < d, and the distinct labels of each n are counted.
    x^d < SUBFIELDS_N_MAX^3 < 2^27, so int64 holds every power; a block of
    16 moduli keeps each temporary near 64 KiB.
    """
    block = 16
    counts = np.zeros(SUBFIELDS_N_MAX + 1, dtype=np.int64)
    for lo in range(3, SUBFIELDS_N_MAX + 1, block):
        hi = min(lo + block, SUBFIELDS_N_MAX + 1)
        ns = np.arange(lo, hi)[:, None]
        x = np.arange(hi - 1)
        row, xs = ((x ** d % ns == 1) & (x >= 2) & (x < ns)).nonzero()
        label, power = xs.copy(), xs
        for _ in range(d - 2):
            power = power * xs % ns[row, 0]
            np.minimum(label, power, out=label)
        seen = np.zeros((hi - lo, hi - 1), dtype=bool)
        seen[row, label] = True
        counts[lo:hi] = seen.sum(axis=1)
    return counts


def suite_subfields() -> SuiteResult:
    results = []
    for d in (2, 3):
        explicit = _explicit_subgroup_counts(d)
        bad = [n for n in range(3, SUBFIELDS_N_MAX + 1)
               if count_subfields(n, d).count != explicit[n]]
        results.append(CaseResult(
            f"subfields-d{d}", "FAIL" if bad else "PASS",
            f"matches explicit subgroup enumeration for 3 <= n <= {SUBFIELDS_N_MAX}"
            + (f"; mismatches at {bad[:5]}" if bad else "")))
    for n, d, want, what in ((7, 2, 1, "quadratic"), (15, 2, 3, "quadratic"),
                             (63, 3, 4, "cubic")):
        got = count_subfields(n, d).count
        results.append(CaseResult(
            f"subfields-n{n}-d{d}", "PASS" if got == want else "FAIL",
            f"Q_{n} contains {got} {what} extension(s) (expect {want})"))
    return SuiteResult("subfields", results)


def suite_bounds() -> SuiteResult:
    cases = THEOREM_A_F2 + THEOREM_A_F3
    results = []
    for case in cases:
        rep = report_for(case.spec)
        b = rep.bounds
        ok = b.k_ge_log2log2 and b.f_ge_floor_log2log2
        results.append(CaseResult(
            f"bounds-{case.spec}", "PASS" if ok else "FAIL",
            f"k={rep.k} f={rep.f} floor(log2 log2 |G|)={b.floor_log2_log2} "
            f"omega(|G|)={b.omega}"))
    sz = report_for("Sz(8)")
    checks = [
        ("bounds-sz8-floor", sz.bounds.floor_log2_log2 == 3 and sz.f == 3,
         "floor(log2 log2 29120) = 3 = f(Sz(8)): the floor bound holds with equality"),
        ("bounds-sz8-log3", not sz.bounds.f_gt_log3,
         "f(Sz(8)) = 3 fails the k > log3|G| analogue (3^3 < 29120)"),
        ("bounds-sz8-omega", not sz.bounds.f_ge_omega and sz.bounds.omega == 9,
         "omega(29120) = 9 > 3 = f(Sz(8)): the k >= omega analogue fails for f"),
    ]
    for cid, ok, text in checks:
        results.append(CaseResult(cid, "PASS" if ok else "FAIL", text))
    return SuiteResult("bounds", results)


SUITES = {
    "theorem-a": suite_theorem_a,
    "exclusions": suite_exclusions,
    "omega": suite_omega,
    "subfields": suite_subfields,
    "bounds": suite_bounds,
}


def run_suite(name: str) -> list[SuiteResult]:
    if name == "all":
        return [fn() for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    return [SUITES[name]()]
