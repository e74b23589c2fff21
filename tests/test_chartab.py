import dataclasses
import math
import random
from collections import Counter

import numpy as np
import pytest

from charfield import chartab, modp, perm
from charfield.arith import element_of_order, is_prime, next_prime_in_progression, units
from charfield.chartab import (
    PRIME_SEARCH_LIMIT,
    ComputationError,
    abelian_character_table,
    admissible_prime,
    class_multiplication_coefficients,
    dixon_table,
    exponent,
    validate_table,
)
from charfield.cyclo import Cyclo, galois, root_of_unity
from charfield.fov import f_value, field_of_values
from charfield.perm import conjugacy_classes
from charfield.verify import EXCLUSIONS, THEOREM_A_F2, THEOREM_A_F3
from charfield.zoo import build
from test_pipeline_random import random_groups


def table(spec, prime=None):
    g = build(spec)
    return dixon_table(g, prime=prime)


# -- modp helpers ------------------------------------------------------------


def test_charpoly_against_known_matrices():
    p = 101
    # companion matrix of x^3 + 2x + 5
    A = [[0, 0, -5 % p], [1, 0, -2 % p], [0, 1, 0]]
    assert modp.charpoly(A, p) == [5, 2, 0, 1]
    # triangular matrix: roots are the diagonal
    B = [[3, 7, 1], [0, 4, 2], [0, 0, 9]]
    assert sorted(modp.distinct_roots(modp.charpoly(B, p), p)) == [3, 4, 9]


def test_charpoly_similarity_invariant():
    rng = random.Random(11)
    p = 97
    for _ in range(20):
        n = rng.randint(2, 6)
        A = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        # conjugate by a random invertible matrix
        while True:
            S = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            try:
                Sinv = modp.mat_inv(S, p)
                break
            except ValueError:
                continue
        B = modp.mat_mul(Sinv, modp.mat_mul(A, S, p), p)
        assert modp.charpoly(A, p) == modp.charpoly(B, p)


def test_distinct_roots_random_products():
    rng = random.Random(3)
    p = 10007
    for _ in range(15):
        roots = sorted(rng.sample(range(p), rng.randint(1, 6)))
        f = [1]
        for r in roots:
            f = modp.poly_mul(f, [-r % p, 1], p)
        assert modp.distinct_roots(f, p) == roots


def test_distinct_roots_refuses_p_2():
    # x^2 + x has the roots 0 and 1 mod 2, but (x + s)^((p-1)/2) - 1 is 0
    # for p = 2, so no shift splits it
    with pytest.raises(ValueError, match="odd prime"):
        modp.distinct_roots([0, 1, 1], 2)
    assert modp.distinct_roots([0, 1, 1], 3) == [0, 2]


def test_nullspace():
    p = 7
    A = [[1, 2, 3], [2, 4, 6]]
    basis = modp.nullspace(A, p)
    assert len(basis) == 2
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in A)


def _span(rows, p, cols):
    """Every vector in the GF(p)-span of rows, by brute-force closure."""
    span = {(0,) * cols}
    for row in rows:
        span = {tuple((x + c * y) % p for x, y in zip(v, row)) for v in span for c in range(p)}
    return span


@pytest.mark.parametrize("p", [2, 3, 101, 10007])
def test_poly_divmod_identity(p):
    rng = random.Random(p)
    for _ in range(40):
        f = [rng.randrange(p) for _ in range(rng.randint(0, 12))]
        g = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [rng.randrange(1, p)]
        q, r = modp.poly_divmod(f, g, p)
        back = [(a + b) % p for a, b in modp._pad(modp.poly_mul(q, g, p), r)]
        assert modp.poly_trim(back) == modp.poly_trim([x % p for x in f])
        assert len(r) < len(g) and (not r or r[-1]) and (not q or q[-1])


def test_exact_division_rejects_a_remainder():
    p = 101
    g = [3, 1]
    f = modp.poly_mul(g, [5, 7, 1], p)
    assert modp._poly_div_exact(f, g, p) == [5, 7, 1]
    with pytest.raises(ArithmeticError):
        modp._poly_div_exact([(f[0] + 1) % p] + f[1:], g, p)


def test_mat_inv_against_product():
    rng = random.Random(5)
    p = 5
    singular_seen = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        A = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], dtype=np.int64)
        try:
            inv = modp.mat_inv(A, p)
        except ValueError as exc:
            # certificate of singularity: a nonzero kernel vector
            assert "singular" in str(exc)
            v = modp.nullspace(A, p)[0]
            assert v.any() and not (A @ v % p).any()
            singular_seen += 1
            continue
        assert np.array_equal(modp.mat_mul(inv, A, p), np.eye(n, dtype=np.int64))
    assert singular_seen


def test_pivot_rows_pick_an_independent_spanning_set():
    rng = random.Random(9)
    p = 3
    for _ in range(30):
        rows, cols = rng.randint(3, 8), rng.randint(2, 5)
        rank = rng.randint(1, min(rows, cols) - 1)
        basis = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
        mix = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
        B = modp.mat_mul(mix, basis, p)
        piv = modp.pivot_rows(B, p)
        chosen = _span([B[i] for i in piv], p, cols)
        assert len(set(piv)) == len(piv) and all(0 <= i < rows for i in piv)
        assert len(chosen) == p ** len(piv)  # independent
        assert chosen == _span(B, p, cols)  # spanning, so len(piv) = rank(B)


@pytest.mark.parametrize("p", [7681, 2**61 - 1])
def test_mat_mul_is_exact(p):
    # 2^61 - 1 takes the Python-int path: 8 * (p - 1)^2 overflows int64
    rng = random.Random(p)
    A = [[rng.randrange(p) for _ in range(8)] for _ in range(3)]
    B = [[rng.randrange(p) for _ in range(4)] for _ in range(8)]
    got = modp.mat_mul(np.array(A, dtype=np.int64), np.array(B, dtype=np.int64), p)
    assert got.tolist() == [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)]
                            for row in A]


# The list-based rref and charpoly that the int64 array versions replaced,
# kept verbatim as an independent oracle.


def _reference_rref(A, p):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    M = [row[:] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] % p), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def _reference_charpoly(A, p):
    """det(xI - A) mod p, coefficients lowest degree first, monic.

    Similarity reduction to upper Hessenberg form, then the standard
    leading-minor recurrence.
    """
    n = len(A)
    H = [[x % p for x in row] for row in A]
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if H[r][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[col + 1], H[piv] = H[piv], H[col + 1]
            for i in range(n):
                H[i][col + 1], H[i][piv] = H[i][piv], H[i][col + 1]
        inv = pow(H[col + 1][col], -1, p)
        for r in range(col + 2, n):
            if H[r][col]:
                f = H[r][col] * inv % p
                H[r] = [(x - f * y) % p for x, y in zip(H[r], H[col + 1])]
                for i in range(n):
                    H[i][col + 1] = (H[i][col + 1] + f * H[i][r]) % p
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        poly = [0] + prev  # x * p_{k-1}
        d = H[k - 1][k - 1]
        poly = [(a - d * b) % p for a, b in zip(poly, prev + [0])]
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * H[i][i - 1] % p
            coef = H[i - 1][k - 1] * prod % p
            if coef:
                pi = polys[i - 1]
                poly = [(a - coef * (pi[j] if j < len(pi) else 0)) % p
                        for j, a in enumerate(poly)]
        polys.append(poly)
    return polys[n]


def _random_matrices(rng, p, square):
    """Full-rank, rank-deficient and zero matrices, with 0 rows or columns too."""
    for _ in range(40):
        rows = int(rng.integers(0, 9))
        cols = rows if square else int(rng.integers(0, 9))
        rank = int(rng.integers(0, min(rows, cols) + 1))
        full = rng.integers(0, p, size=(rows, cols), dtype=np.int64)
        low = (rng.integers(0, p, size=(rows, rank), dtype=np.int64).astype(object)
               @ rng.integers(0, p, size=(rank, cols), dtype=np.int64).astype(object) % p)
        yield full
        yield low.astype(np.int64)
        yield np.zeros((rows, cols), dtype=np.int64)
    for shape in ((0, 0), (0, 5), (5, 0)):
        if not square or shape[0] == shape[1]:
            yield np.zeros(shape, dtype=np.int64)
    # sparse columns, so that pivots are found below the current row
    yield (np.eye(6, dtype=np.int64)[::-1] * (p - 1)) % p
    yield np.triu(rng.integers(0, p, size=(7, 7), dtype=np.int64), 1)


ORACLE_PRIMES = [2, 3, 101, 10007, 99999721, 2**31 - 1]


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_rref_against_the_list_reference(p):
    rng = np.random.default_rng(p)
    for A in _random_matrices(rng, p, square=False):
        R, pivots = modp.rref(A, p)
        assert R.dtype == np.int64 and R.shape == A.shape
        assert (R.tolist(), pivots) == _reference_rref(A.tolist(), p)


@pytest.mark.parametrize("p", ORACLE_PRIMES)
def test_charpoly_against_the_list_reference(p):
    rng = np.random.default_rng(p + 1)
    for A in _random_matrices(rng, p, square=True):
        assert modp.charpoly(A, p) == _reference_charpoly(A.tolist(), p)


def test_elimination_refuses_primes_past_int64_exactness():
    # 2^31 - 1 is the largest prime below the limit; 2^31 + 11 the next one
    A = np.array([[1, 2], [3, 4]], dtype=np.int64)
    modp.rref(A, 2**31 - 1)
    modp.charpoly(A, 2**31 - 1)
    for call in (modp.rref, modp.charpoly, modp.nullspace, modp.mat_inv, modp.pivot_rows):
        with pytest.raises(ValueError, match="2\\^31"):
            call(A, 2**31 + 11)


@pytest.mark.parametrize("o,start", [(1, 5), (5, 10), (12, 12), (61, 2**20)])
def test_evaluate_against_the_loops(o, start):
    # reference: the lift's former double loop m_d = (1/o) sum_t chi_t theta^(-dt),
    # and the plain evaluation sum_d c_d theta^(dk)
    p = next_prime_in_progression(o, start)
    theta = element_of_order(o, p)
    rng = random.Random(o)
    chi = [[rng.randrange(p) for _ in range(o)] for _ in range(3)]
    o_inv, theta_inv = pow(o, -1, p), pow(theta, -1, p)
    loop = [[sum(c[t] * pow(theta_inv, d * t, p) for t in range(o)) * o_inv % p
             for d in range(o)] for c in chi]
    lifted = modp.evaluate(np.array(chi, dtype=np.int64), theta_inv, o, range(o), p) * o_inv % p
    assert lifted.tolist() == loop
    ks = [k for k in range(o) if math.gcd(k, o) == 1]
    evaluated = modp.evaluate(np.array(loop, dtype=np.int64), theta, o, ks, p)
    assert evaluated.tolist() == [[sum(m[d] * pow(theta, d * k, p) for d in range(o)) % p
                                   for k in ks] for m in loop]
    # the round trip: evaluating the lifted counts at every power gives chi back
    assert modp.evaluate(lifted, theta, o, range(o), p).tolist() == chi


@pytest.mark.parametrize("order,length", [(1, 1), (7, 1), (7, 2), (12, 9), (12, 10),
                                          (151, 150), (200, 80)])
def test_evaluate_against_python_sums(order, length):
    # reference: the plain sum sum_d c_d theta^(d k) in Python ints,
    # for exponents k that repeat, are negative or lie past the order, and
    # row lengths below the order, square or not
    p = next_prime_in_progression(order, 2**20)
    theta = element_of_order(order, p)
    rng = random.Random(order * 1000 + length)
    coeffs = [[rng.randrange(p) for _ in range(length)] for _ in range(2)]
    ks = [rng.randrange(-3 * order, 3 * order) for _ in range(25)] + [0, 1, order - 1, order]
    got = modp.evaluate(np.array(coeffs, dtype=np.int64), theta, order, ks, p)
    assert got.tolist() == [[sum(c * pow(theta, d * k, p) for d, c in enumerate(row)) % p
                             for k in ks] for row in coeffs]


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 1000])
def test_powers_against_pow(n):
    # the doubling table, for a theta of order 1000 and for one past p
    p = next_prime_in_progression(1000, 2**20)
    for theta in (element_of_order(1000, p), p + 3, 3 * p - 1):
        got = modp.powers(theta, n, p)
        assert got.dtype == np.int64 and got.tolist() == [pow(theta, t, p) for t in range(n)]


# -- exponent and class coefficients ----------------------------------------


def test_exponent():
    assert exponent(conjugacy_classes(build("C4"))) == 4
    assert exponent(conjugacy_classes(build("Sz(8)"))) == 1820
    assert exponent(conjugacy_classes(build("PSL(2,19)"))) == 1710


def test_class_coefficients_trivial_and_c2():
    triv = build("C1")
    a = class_multiplication_coefficients(triv, conjugacy_classes(triv))
    assert a[0][0][0] == 1
    c2 = build("C2")
    a = class_multiplication_coefficients(c2, conjugacy_classes(c2))
    assert a[1][1][0] == 1


def test_class_coefficients_s3_brute():
    s3 = build("S3")
    cd = conjugacy_classes(s3)
    a = class_multiplication_coefficients(s3, cd)
    assert a[1][1][0] == 3  # three transpositions square to the identity
    # brute force: count solutions x*y = z over the element table
    n = s3.order
    maps = [s3.right_map(y) for y in range(n)]
    for k in range(cd.k):
        z = cd.reps[k]
        counts = Counter()
        for x in range(n):
            for y in range(n):
                if maps[y][x] == z:
                    counts[(cd.class_of[x], cd.class_of[y])] += 1
        for i in range(cd.k):
            for j in range(cd.k):
                assert a[i][j][k] == counts.get((i, j), 0)


def test_class_coefficients_independent_of_z():
    g = build("S4")
    cd = conjugacy_classes(g)
    a = class_multiplication_coefficients(g, cd)
    rng = random.Random(8)
    ids_by_class = [[] for _ in range(cd.k)]
    for i in range(g.order):
        ids_by_class[cd.class_of[i]].append(i)
    # a member other than the smallest wherever the class has one
    choice = tuple(rng.choice(ids[1:] or ids) for ids in ids_by_class)
    assert [z != rep for z, rep in zip(choice, cd.reps)] == [s > 1 for s in cd.sizes]
    b = class_multiplication_coefficients(g, dataclasses.replace(cd, reps=choice))
    assert (a == b).all()


# -- dixon tables ------------------------------------------------------------


def test_c2_rows():
    t = table("C2")
    assert t.degrees == (1, 1)
    assert set(t.values) == {
        (Cyclo.from_rational(1), Cyclo.from_rational(1)),
        (Cyclo.from_rational(1), Cyclo.from_rational(-1)),
    }


def test_c3_rows():
    t = table("C3")
    z = root_of_unity(3)
    z2 = root_of_unity(3, 2)
    one = Cyclo.from_rational(1)
    assert set(t.values) == {(one, one, one), (one, z, z2), (one, z2, z)}


def test_trivial_group():
    t = table("C1")
    assert t.degrees == (1,)
    assert validate_table(t).all_ok


def test_class_limit_refuses_before_the_power_walk():
    classes = conjugacy_classes(build("C128"))
    assert classes.element_orders[:3] == (1, 2, 4) and classes.element_orders[-1] == 128
    with pytest.raises(ComputationError, match="128 classes exceeds the supported maximum"):
        dixon_table(classes.group, classes)
    assert "powers" not in vars(classes)
    # the walk still runs on demand: the generator's class squares to the
    # class of its square
    gen = classes.group.generators[0]
    c, c2 = (int(classes.class_of[classes.group.id_of(x)]) for x in (gen, gen * gen))
    assert classes.power_map(c, 2) == c2 and "powers" in vars(classes)


def test_a5_table():
    t = table("A5")
    assert sorted(t.degrees) == [1, 3, 3, 4, 5]
    golden = {Cyclo.from_rational(1) + root_of_unity(5) + root_of_unity(5, 4),
              Cyclo.from_rational(1) + root_of_unity(5, 2) + root_of_unity(5, 3)}
    threes = [i for i, d in enumerate(t.degrees) if d == 3]
    order5 = [j for j in range(t.k) if t.classes.element_orders[j] == 5]
    assert len(order5) == 2
    for i in threes:
        assert {t.values[i][j] for j in order5} == golden
    assert validate_table(t).all_ok


def test_psl24_matches_a5_degrees():
    a = table("PSL(2,4)")
    b = table("A5")
    assert sorted(a.degrees) == sorted(b.degrees)
    assert sorted(a.classes.sizes) == sorted(b.classes.sizes)


def test_k_equals_class_count():
    for spec in ("C1", "C2", "C6", "D10", "S4", "A5", "F21"):
        t = table(spec)
        assert len(t.degrees) == t.classes.k == t.k


def test_degree_sum_small_corpus():
    for spec in ("C4", "D14", "F20", "F52", "A4", "S3"):
        t = table(spec)
        assert sum(d * d for d in t.degrees) == t.group.order


def test_prime_independence():
    for spec in ("S3", "C6", "D10", "A4"):
        t1 = table(spec)
        p2 = admissible_prime(t1.group.order, t1.exponent, after=t1.prime)
        t2 = table(spec, prime=p2)
        assert t1.prime != t2.prime
        assert t1.degrees == t2.degrees
        assert t1.values == t2.values


@pytest.mark.parametrize("spec,p", [("C8xC8", 99_999_721), ("A5", 99_999_931)])
def test_prime_at_the_search_limit(spec, p):
    # p is the largest admissible prime <= PRIME_SEARCH_LIMIT
    t1 = table(spec)
    e = t1.exponent
    assert p % e == 1 and is_prime(p) and p <= PRIME_SEARCH_LIMIT
    assert not any(is_prime(q) for q in range(p + e, PRIME_SEARCH_LIMIT + 1, e))
    t2 = table(spec, prime=p)
    assert t2.prime == p != t1.prime
    assert t1.to_obj(spec) == t2.to_obj(spec)
    assert validate_table(t2).all_ok


def test_admissible_prime_values():
    assert admissible_prime(60, 30) == 31
    assert admissible_prime(504, 126) == 127
    assert admissible_prime(24, 12) == 13


def test_abelian_duality_oracle():
    for spec in ("C1", "C2", "C4", "C6", "C8", "C9", "C2xC2", "C3xC3", "C2xC4", "C12",
                 "C2xC2xC3", "C60", "C61", "C8xC8", "C4xC4xC4", "C2xC6xC4"):
        g = build(spec)
        t = dixon_table(g)
        dual = abelian_character_table(g, t.classes)
        assert t.degrees == dual.degrees, spec
        assert t.values == dual.values, spec
        assert t.root_counts == dual.root_counts, spec


def test_abelian_oracle_shares_no_arithmetic_with_dixon(monkeypatch):
    # the oracle reads the right-multiplication maps and builds each root in
    # closed form: no sift and no lift from root counts
    tables = {spec: dixon_table(build(spec)) for spec in ("C61", "C8xC8")}

    def refused(*args, **kwargs):
        raise AssertionError("the oracle used the Dixon table's arithmetic")

    monkeypatch.setattr(perm.PermGroup, "ids_of_base_images", refused)
    monkeypatch.setattr(chartab, "cyclo_from_root_counts", refused)
    for spec, t in tables.items():
        dual = abelian_character_table(t.group, t.classes)
        assert (dual.degrees, dual.values, dual.root_counts) == (
            t.degrees, t.values, t.root_counts), spec


def test_abelian_oracle_refuses_past_the_class_limit():
    with pytest.raises(ComputationError, match="65 classes exceeds the supported maximum of 64"):
        abelian_character_table(build("C65"))


def test_abelian_oracle_rejects_nonabelian():
    with pytest.raises(ValueError):
        abelian_character_table(build("S3"))


def test_validation_passes_on_small_corpus():
    for spec in ("C6", "S3", "D18", "F21", "A4", "S4", "D10"):
        rep = validate_table(table(spec))
        assert rep.all_ok, (spec, rep.failures)


def test_a4_galois_pairing():
    # sigma_2 swaps the two linear rows with values in Q(zeta_3)
    t = table("A4")
    cubic_rows = [row for row, d in zip(t.values, t.degrees)
                  if d == 1 and any(v.n == 3 for v in row)]
    assert len(cubic_rows) == 2
    a, b = cubic_rows
    assert tuple(galois(v, 2) for v in a) == b
    assert tuple(galois(v, 2) for v in b) == a


def test_mutation_breaks_row_orthogonality():
    t = table("S3")
    values = [list(row) for row in t.values]
    values[0][1] = values[0][1] + 1
    bad = dataclasses.replace(t, values=tuple(tuple(r) for r in values))
    rep = validate_table(bad)
    assert not rep.row_orthogonality
    assert not rep.all_ok


def test_mutation_breaks_galois_closure():
    # A5's two degree-3 rows take the values (1 +- sqrt 5)/2 and are swapped
    # by sigma_2; with one replaced by a copy of the other, sigma_2 maps the
    # copy to a row that is no longer in the table
    t = table("A5")
    i, j = [r for r, d in enumerate(t.degrees) if d == 3]
    values, counts = list(t.values), list(t.root_counts)
    values[j], counts[j] = values[i], counts[i]
    bad = dataclasses.replace(t, values=tuple(values), root_counts=tuple(counts))
    rep = validate_table(bad)
    assert validate_table(t).galois_closure
    assert not rep.galois_closure
    assert rep.integrality and rep.degree_sum and rep.first_column


@pytest.mark.parametrize("spec", ["A5", "C12", "F52", "PSL(2,19)", "Sz(8)", "C7xC7"])
def test_galois_action_against_every_unit(spec):
    # oracle: map every row through galois for every unit of the exponent
    t = table(spec)
    index = {row: i for i, row in enumerate(t.values)}
    want = {k: tuple(index[tuple(galois(v, k) for v in row)] for row in t.values)
            for k in units(t.exponent)}
    assert t.galois_action == want


@pytest.mark.parametrize("spec", ["PSL(2,8)", "F21", "C7xC7"])
def test_galois_action_applies_galois_once_per_value(spec, monkeypatch):
    # entries repeat, so each tested unit costs one galois call per
    # distinct value, not one per entry
    t, calls = table(spec), Counter()
    real = chartab.galois

    def counted(v, k):
        calls[k] += 1
        return real(v, k)

    monkeypatch.setattr(chartab, "galois", counted)
    assert t.galois_action is not None
    distinct = len(set().union(*t.values))
    assert distinct < t.k * t.k
    assert calls and set(calls.values()) == {distinct}


def test_is_abelian_against_pairwise_products():
    # oracle: every pair of generators multiplied as Permutations
    corpus = sorted({c.spec for c in THEOREM_A_F2 + THEOREM_A_F3 + EXCLUSIONS})
    groups = [build(spec) for spec in corpus]
    for degree, seed in ((6, 101), (7, 202)):
        groups += [g for g, _ in random_groups(seed, 4, degree)]
    groups += [build("A2"), perm.enumerate_group(0, [])]  # no generators
    seen = set()
    for g in groups:
        want = all(a * b == b * a for a in g.generators for b in g.generators)
        assert chartab.is_abelian(g) == want, g
        seen.add(want)
    assert seen == {True, False}


def test_fields_of_values_need_a_closed_row_set():
    # the duplicate-row A5 table of test_mutation_breaks_galois_closure
    t = table("A5")
    i, j = [r for r, d in enumerate(t.degrees) if d == 3]
    values, counts = list(t.values), list(t.root_counts)
    values[j], counts[j] = values[i], counts[i]
    bad = dataclasses.replace(t, values=tuple(values), root_counts=tuple(counts))
    assert bad.galois_action is None
    with pytest.raises(ArithmeticError):
        field_of_values(bad, i)
    with pytest.raises(ArithmeticError):
        f_value(bad, "A5")


def test_table_json_shape():
    obj = table("C4").to_obj("C4")
    assert obj["order"] == 4 and obj["exponent"] == 4
    assert [c["order"] for c in obj["classes"]] == [1, 2, 4, 4]
    assert len(obj["irreducibles"]) == 4
