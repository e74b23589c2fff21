"""The modular orthogonality certificate of validate_table against exact sums.

The oracle sums |C_s| chi_i(s) conj(chi_j(s)) and conj(chi_i(s)) chi_i(t)
in exact Cyclo arithmetic, as validate_table itself once did.  Every corpus
table, every random-pipeline table and every mutated table must get the
same two orthogonality flags from both, and each mutation flips the six
flags it has always flipped.
"""

import dataclasses
from fractions import Fraction

import pytest

from charfield import chartab
from charfield.arith import element_of_order
from charfield.chartab import dixon_table, validate_table
from charfield.cyclo import Cyclo, conjugate, root_of_unity
from charfield.verify import EXCLUSIONS, THEOREM_A_F2, THEOREM_A_F3, table_for
from test_pipeline_random import random_groups


def exact_orthogonality(table):
    classes, values = table.classes, table.values
    n, r, sizes = table.group.order, classes.k, classes.sizes

    def total(terms):
        return sum(terms, Cyclo.from_rational(0))

    rows = all(total(sizes[s] * values[i][s] * conjugate(values[j][s]) for s in range(r))
               == (n if i == j else 0) for i in range(r) for j in range(i, r))
    cols = all(total(conjugate(values[i][s]) * values[i][t] for i in range(r))
               == (Fraction(n, sizes[s]) if s == t else 0) for s in range(r) for t in range(s, r))
    return rows, cols


def flags(table):
    rep = validate_table(table)
    return (rep.degree_sum, rep.row_orthogonality, rep.column_orthogonality,
            rep.first_column, rep.galois_closure, rep.integrality)


def with_entry(table, i, s, value, counts=None):
    values = [list(row) for row in table.values]
    values[i][s] = value
    out = dataclasses.replace(table, values=tuple(map(tuple, values)))
    if counts is not None:
        root_counts = [list(row) for row in table.root_counts]
        root_counts[i][s] = counts
        out = dataclasses.replace(out, root_counts=tuple(map(tuple, root_counts)))
    return out


CORPUS = sorted({c.spec for c in THEOREM_A_F2 + THEOREM_A_F3 + EXCLUSIONS})


@pytest.mark.parametrize("spec", CORPUS)
def test_certificate_matches_exact_sums_on_the_corpus(spec):
    t = table_for(spec)
    assert exact_orthogonality(t) == (True, True)
    assert flags(t) == (True,) * 6


def test_certificate_matches_exact_sums_on_random_groups():
    for degree, seed in ((6, 101), (7, 202)):
        for g, cd in random_groups(seed, 4, degree):
            t = dixon_table(g, cd)
            assert exact_orthogonality(t) == (True, True)
            assert flags(t) == (True,) * 6


def check(bad, want):
    got = flags(bad)
    assert got == want
    assert got[1:3] == exact_orthogonality(bad)


def test_perturbed_entry():
    # acceptance criterion 6: the counts no longer match the value either
    t = table_for("S3")
    check(with_entry(t, 0, 1, t.values[0][1] + 1), (True, False, False, True, True, False))


def test_perturbed_entry_with_matching_counts():
    # integral and Galois-closed, so decided at one embedding: the degree-2
    # row of S3 reads 2 = 2 * zeta_2^0 on the transpositions instead of 0
    t = table_for("S3")
    i, s = t.degrees.index(2), t.classes.element_orders.index(2)
    check(with_entry(t, i, s, Cyclo.from_rational(2), counts=(2, 0)),
          (True, False, False, True, True, True))


def test_duplicated_row():
    # the closure mutation: one degree-3 row of A5 replaced by the other
    t = table_for("A5")
    i, j = [r for r, d in enumerate(t.degrees) if d == 3]
    values, counts = list(t.values), list(t.root_counts)
    values[j], counts[j] = values[i], counts[i]
    bad = dataclasses.replace(t, values=tuple(values), root_counts=tuple(counts))
    check(bad, (True, False, False, True, False, True))


def test_non_integral_entry():
    t = table_for("A4")
    check(with_entry(t, 1, 2, t.values[1][2] + Fraction(1, 2)),
          (True, False, False, True, False, False))


def test_error_seen_only_at_other_embeddings(monkeypatch):
    # With one certificate prime p and theta of order 5 mod p, the entry
    # chi(g) + (zeta_5 - t)(zeta_5^-1 - t), t = theta, is unchanged at
    # zeta_5 -> theta and at zeta_5 -> theta^-1, the two evaluations the
    # identity embedding reads; only sigma_2 and sigma_3 see the error.
    # The table is no longer Galois-closed, so every embedding is checked.
    t = table_for("A5")
    i, s = t.degrees.index(3), t.classes.element_orders.index(5)
    (p,) = chartab._certificate_primes(5, 1)
    theta = element_of_order(5, p)
    assert (pow(theta, 2, p) - theta) * (pow(theta, -2, p) - theta) % p != 0
    monkeypatch.setattr(chartab, "_certificate_primes", lambda modulus, bound: [p])
    x = (root_of_unity(5) - theta) * (root_of_unity(5, 4) - theta)
    bad = with_entry(t, i, s, t.values[i][s] + x)
    assert {v.n for row in bad.values for v in row} == {1, 5}  # so theta has order 5
    check(bad, (True, False, False, True, False, False))


def test_counts_must_sum_to_the_degree():
    # 0 = 2 * zeta_2^0 + 2 * zeta_2^1 on the transpositions of S3 is right
    # as a value, but four roots for a degree-2 row leave |chi(g)| <= 2
    # unproven: integrality fails, and orthogonality, now decided at every
    # embedding, still holds
    t = table_for("S3")
    i, s = t.degrees.index(2), t.classes.element_orders.index(2)
    check(with_entry(t, i, s, t.values[i][s], counts=(2, 2)), (True, True, True, True, True, False))


@pytest.mark.parametrize("cut", ["row", "entry"])
def test_missing_root_counts_are_not_certified(monkeypatch, cut):
    # counts for one row, or for one entry of a row, are dropped: that entry's
    # bound |sigma(chi(g))| <= d is unproven, so integrality fails and
    # orthogonality, still true, is decided at every embedding
    t = table_for("A5")
    counts = list(t.root_counts)
    if cut == "row":
        del counts[-1]
    else:
        counts[-1] = counts[-1][:-1]
    bad = dataclasses.replace(t, root_counts=tuple(counts))
    seen = []
    orthogonality = chartab._orthogonality
    monkeypatch.setattr(chartab, "_orthogonality",
                        lambda table, one: seen.append(one) or orthogonality(table, one))
    check(bad, (True, True, True, True, True, False))
    assert seen == [False]


def test_ragged_table_raises():
    # a row with fewer than k entries fails integrality, so every embedding
    # is checked, and that path reads all k entries of each row
    t = table_for("A5")
    values = list(t.values)
    values[-1] = values[-1][:-1]
    with pytest.raises(IndexError):
        validate_table(dataclasses.replace(t, values=tuple(values)))
