from collections import Counter

import pytest

from charfield.arith import euler_phi, units
from charfield.chartab import dixon_table
from charfield.cyclo import degree_over_Q, galois
from charfield.fov import (
    RATIONAL_FIELD,
    FieldLabel,
    bounds_report,
    degree_bound_check,
    f_value,
    field_of_values,
    k_ge_log2log2,
    monotonicity_check,
    rational_count,
)
from charfield.perm import derived_subgroup
from charfield.zoo import build


def report(spec):
    return f_value(dixon_table(build(spec)), spec)


def test_trivial_character_field():
    t = dixon_table(build("S4"))
    trivial_row = t.degrees.index(1)
    assert field_of_values(t, trivial_row) == RATIONAL_FIELD


def test_c3_nontrivial_field():
    t = dixon_table(build("C3"))
    labels = {field_of_values(t, i) for i in range(3)}
    assert FieldLabel(3, (1,), 2) in labels
    assert RATIONAL_FIELD in labels


def test_d10_quadratic_fields():
    t = dixon_table(build("D10"))
    sqrt5 = FieldLabel(5, (1, 4), 2)
    twos = [i for i, d in enumerate(t.degrees) if d == 2]
    assert len(twos) == 2
    assert all(field_of_values(t, i) == sqrt5 for i in twos)


def test_f_values_small():
    assert report("C4").f == 2
    assert report("C6").f == 4
    assert report("S4").f == 5
    assert report("C1").f == 1


def test_c4_buckets():
    rep = report("C4")
    sizes = {str(lab): n for lab, n in rep.bucket_sizes().items()}
    assert sizes == {"Q": 2, "Q(4|1)": 2}  # Q twice, Q(i) twice


def test_f21_bucket_structure():
    rep = report("F21")
    assert rep.f == 2 and rep.max_degree == 2
    by_degree = Counter(lab.degree for lab, rows in rep.buckets for _ in rows)
    assert by_degree == Counter({1: 1, 2: 4})  # Q x1, two quadratic pairs
    assert degree_bound_check(rep).passed


def test_rational_counts():
    assert rational_count(dixon_table(build("C2"))) == 2
    assert rational_count(dixon_table(build("C3"))) == 1
    assert rational_count(dixon_table(build("A5"))) == 3


def test_rational_count_matches_report():
    for spec in ("C6", "S4", "F20", "D18"):
        t = dixon_table(build(spec))
        assert rational_count(t) == f_value(t, spec).rational


def test_bucket_partition():
    for spec in ("C6", "D14", "F52", "A4"):
        rep = report(spec)
        assert sum(len(rows) for _, rows in rep.buckets) == rep.k


def test_galois_orbit_within_bucket():
    # each non-rational row's orbit stays inside its bucket, has size equal
    # to the field degree, and the orbits partition the bucket
    for spec in ("C6", "D14", "F21", "A5"):
        rep = report(spec)
        for label, rows in rep.buckets:
            if label.degree > 1:
                assert len(rows) % label.degree == 0
        t = dixon_table(build(spec))
        rows_by_field = {}
        for i in range(rep.k):
            rows_by_field.setdefault(field_of_values(t, i), set()).add(i)
        from charfield.arith import units
        from charfield.cyclo import galois

        row_index = {row: i for i, row in enumerate(t.values)}
        for label, rows in rows_by_field.items():
            if label.degree == 1:
                continue
            for i in set(rows):
                orbit = {row_index[tuple(galois(v, k) for v in t.values[i])]
                         for k in units(t.exponent)}
                assert orbit <= rows
                assert len(orbit) == label.degree


def test_quadratic_pair_bound():
    for spec in ("S3", "D10", "D14", "D18", "F20", "F21", "F52", "A4", "A5"):
        rep = report(spec)
        if rep.f <= 3:
            for label, rows in rep.buckets:
                if label.degree == 2:
                    assert len(rows) <= 2, spec


def test_degree_bound_c6():
    rep = report("C6")
    assert rep.max_degree == 2 and rep.f == 4
    assert degree_bound_check(rep).passed


def test_monotonicity():
    d18 = build("D18")
    c9 = derived_subgroup(d18)
    c3_ids = frozenset(i for i in c9.element_ids if d18.element(i).order() in (1, 3))
    ok, f_g, f_q = monotonicity_check(d18, c3_ids)
    assert ok and f_g == 3 and f_q == 3

    a4 = build("A4")
    ok, f_g, f_q = monotonicity_check(a4, derived_subgroup(a4))
    assert ok and f_g == 2 and f_q == 2

    c6 = build("C6")
    c3_ids = frozenset(i for i in range(6) if c6.element(i).order() in (1, 3))
    ok, f_g, f_q = monotonicity_check(c6, c3_ids)
    assert ok and f_g == 4 and f_q == 2


def test_bounds_rows():
    rep = report("C2")
    assert rep.bounds.floor_log2_log2 == 0
    assert rep.bounds.f_ge_floor_log2log2
    lines = bounds_report(rep)
    assert any("omega" in ln for ln in lines)


def test_freport_json_shape():
    obj = report("D10").to_obj()
    assert obj["f"] == 2 and obj["k"] == 4 and obj["order"] == 10
    assert sum(len(b["rows"]) for b in obj["buckets"]) == 4
    quad = [b for b in obj["buckets"] if b["degree"] == 2]
    assert quad and quad[0]["conductor"] == 5


def test_field_label_cross_group():
    # the same quadratic field from two different groups compares equal
    t1 = dixon_table(build("D10"))
    t2 = dixon_table(build("A5"))
    lab1 = {field_of_values(t1, i) for i in range(t1.k)}
    lab2 = {field_of_values(t2, i) for i in range(t2.k)}
    assert FieldLabel(5, (1, 4), 2) in lab1 & lab2


@pytest.mark.parametrize("k", range(7))
def test_k_ge_log2log2_matches_literal_tower(k):
    near_powers = {2**j + d for j in range(1, 70) for d in (-1, 0, 1)}
    for n in sorted(set(range(1, 300)) | near_powers):
        assert k_ge_log2log2(n, k) == (2 ** (2**k) >= n), (n, k)


def test_compositum_field_is_larger_than_every_value():
    # chi = psi x lambda on D16 x C4: psi takes 0, +-2, +-sqrt2 and lambda
    # takes i, so Q(chi) = Q(zeta_8) has degree 4 though no value does
    t = dixon_table(build("D16xC4"))
    rows = [r for r in range(t.k) if field_of_values(t, r) == FieldLabel(8, (1,), 4)]
    assert rows
    for r in rows:
        assert max(degree_over_Q(v) for v in t.values[r]) == 2


@pytest.mark.parametrize("spec", ["D16xC4", "A4xC4", "D16xC3", "S3xC4"])
def test_stabilizer_against_every_unit(spec):
    # oracle: the units k mod the conductor with sigma_k fixing every value
    t = dixon_table(build(spec))
    for r, row in enumerate(t.values):
        label = field_of_values(t, r)
        if label.conductor == 1:
            continue
        want = tuple(k for k in units(label.conductor)
                     if all(galois(v, k) == v for v in row))
        assert label.stabilizer == want
        assert label.degree == euler_phi(label.conductor) // len(want)
