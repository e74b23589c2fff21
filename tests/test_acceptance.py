"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single "criterion N: PASS ..." line on success (pytest -s
shows them; they also appear in captured output on failure).
"""

import dataclasses
import json
import time
from math import gcd

from charfield.chartab import admissible_prime, dixon_table, validate_table
from charfield.cyclo import count_subfields, omega_degree
from charfield.perm import derived_subgroup
from charfield.verify import (
    EXCLUSIONS,
    THEOREM_A_F2,
    THEOREM_A_F3,
    _explicit_subgroup_counts,
    report_for,
    run_suite,
    table_for,
)
from charfield.zoo import build

CORPUS = tuple(c.spec for c in THEOREM_A_F2 + THEOREM_A_F3 + EXCLUSIONS)


def test_criterion_1_theorem_a_reproduction():
    t0 = time.monotonic()
    for case in THEOREM_A_F2:
        rep = report_for(case.spec)
        assert rep.f == 2 and rep.order == case.expected_order, case.spec
    for case in THEOREM_A_F3:
        rep = report_for(case.spec)
        assert rep.f == 3 and rep.order == case.expected_order, case.spec
    elapsed = time.monotonic() - t0
    sz = report_for("Sz(8)")
    assert sz.order == 29120 and sz.k == 11
    assert elapsed < 300, f"Sz(8) run took {elapsed:.1f}s"
    print(f"criterion 1: PASS - all 14 classified groups reproduce their f "
          f"({elapsed:.1f}s including Sz(8))")


def test_criterion_2_bound_constants():
    b2 = max(report_for(c.spec).order for c in THEOREM_A_F2)
    b3 = max(report_for(c.spec).order for c in THEOREM_A_F3)
    assert b2 == 21 and b3 == 29120
    print("criterion 2: PASS - b(2) = 21 and b(3) = 29120")


def test_criterion_3_exclusion_witnesses():
    expected = {"C6": 4, "C2xC2": 4, "C3xC3": 8, "PSL(2,19)": 4, "S4": 5, "C1": 1}
    for spec, f in expected.items():
        assert report_for(spec).f == f, spec
    assert report_for("C8").f >= 4
    assert report_for("C9").f >= 4
    print("criterion 3: PASS - every exclusion witness has the expected f")


def test_criterion_4_rational_counts():
    for spec in ("A5", "PSL(2,8)", "Sz(8)"):
        assert report_for(spec).rational == 3, spec
    print("criterion 4: PASS - A5, PSL(2,8), Sz(8) have exactly 3 rational rows")


def test_criterion_5_class_counts():
    assert report_for("PSL(2,8)").k == 9
    assert report_for("Sz(8)").k == 11
    assert report_for("A5").k == 5
    print("criterion 5: PASS - class counts 9 / 11 / 5")


def test_criterion_6_table_validity_and_mutation():
    for spec in CORPUS:
        rep = validate_table(table_for(spec))
        assert rep.all_ok, (spec, rep.failures)
    t = table_for("S3")
    values = [list(row) for row in t.values]
    values[0][1] = values[0][1] + 1
    mutated = dataclasses.replace(t, values=tuple(tuple(r) for r in values))
    bad = validate_table(mutated)
    assert not bad.row_orthogonality and not bad.all_ok
    print(f"criterion 6: PASS - all {len(CORPUS)} corpus tables pass the six "
          f"checks; a perturbed entry fails row orthogonality")


def test_criterion_7_omega_suite():
    for r in range(3, 201):
        phi = sum(1 for t in range(1, r + 1) if gcd(t, r) == 1)
        assert omega_degree(r) * 2 == phi, r
    degs = {r: omega_degree(r) for r in range(3, 201)}
    assert {r for r, d in degs.items() if d == 1} == {3, 4, 6}
    assert {r for r, d in degs.items() if d == 2} == {5, 8, 10, 12}
    assert {r for r, d in degs.items() if d == 3} == {7, 9, 14, 18}
    omega = run_suite("omega")[0]
    quad = next(r for r in omega.results if r.case_id == "omega-quadratic")
    assert quad.status == "WARN" and omega.ok
    print("criterion 7: PASS - omega degrees match phi(r)/2 on 3..200; "
          "rational {3,4,6}, cubic {7,9,14,18}; quadratic {5,8,10,12} with r=12 WARNed")


def explicit_subgroup_count(n: int, d: int) -> int:
    # reference for the verify suite's array oracle: the explicit order-d
    # cyclic subgroups of (Z/n)* as element sets, one n at a time; their count
    # equals the index-d subgroup count (annihilator duality in a finite
    # abelian group)
    subs = set()
    for x in range(2, n):
        if gcd(x, n) == 1 and pow(x, d, n) == 1:
            sub, cur = [1], x
            while cur != 1:
                sub.append(cur)
                cur = cur * x % n
            subs.add(frozenset(sub))
    return len(subs)


def test_criterion_8_subfield_suite():
    for d in (2, 3):
        explicit = _explicit_subgroup_counts(d)
        assert len(explicit) == 501
        for n in range(3, 501):
            want = explicit_subgroup_count(n, d)
            assert explicit[n] == want, (n, d)
            assert count_subfields(n, d).count == want, (n, d)
    assert count_subfields(7, 2).count == 1
    assert count_subfields(15, 2).count == 3
    assert count_subfields(63, 3).count == 4
    print("criterion 8: PASS - subfield counts match explicit subgroup "
          "enumeration for n <= 500, d in {2,3}")


def test_criterion_9_degree_and_monotonicity():
    for spec in CORPUS:
        rep = report_for(spec)
        assert rep.max_degree <= rep.f, spec
    pairs = []
    d18 = build("D18")
    c9 = derived_subgroup(d18)
    pairs.append((d18, frozenset(i for i in c9.element_ids
                                 if d18.element(i).order() in (1, 3)), "D18/C3"))
    a4 = build("A4")
    pairs.append((a4, derived_subgroup(a4), "A4/A4'"))
    c6 = build("C6")
    pairs.append((c6, frozenset(i for i in range(6)
                                if c6.element(i).order() in (1, 3)), "C6/C3"))
    from charfield.fov import monotonicity_check

    for group, normal, name in pairs:
        ok, f_g, f_q = monotonicity_check(group, normal)
        assert ok, (name, f_g, f_q)
    print("criterion 9: PASS - max field degree <= f on the corpus; "
          "f(G/N) <= f(G) on the three fixture pairs")


def test_criterion_10_prime_determinism():
    t1 = table_for("Sz(8)")
    p2 = admissible_prime(t1.group.order, t1.exponent, after=t1.prime)
    t2 = dixon_table(t1.group, t1.classes, prime=p2)
    assert t1.prime != t2.prime
    a = json.dumps(t1.to_obj("Sz(8)"), separators=(",", ":"))
    b = json.dumps(t2.to_obj("Sz(8)"), separators=(",", ":"))
    assert a == b
    print(f"criterion 10: PASS - Sz(8) tables with primes {t1.prime} and {t2.prime} "
          f"are byte-identical after canonical ordering")
