import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from charfield import chartab, modp
from charfield.cyclo import (
    Cyclo,
    SubfieldCount,
    conjugate,
    count_subfields,
    cyclo_from_root_counts,
    cyclotomic_polynomial,
    degree_over_Q,
    galois,
    omega_degree,
    root_of_unity,
)


def totient(n):
    # direct gcd count, independent of the factorization-based helper
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # first index with a coefficient outside {-1, 0, 1}
    assert min(cyclotomic_polynomial(105)) == -2


def test_root_identities():
    z3 = root_of_unity(3)
    assert z3 + galois(z3, 2) == -1
    assert root_of_unity(5) * root_of_unity(5, 4) == 1
    assert root_of_unity(4) * root_of_unity(4) == -1


def test_root_of_unity_matches_the_descent():
    # oracle: the monomial z^k reduced mod Phi_n and walked down by descent
    from charfield.cyclo import _from_dense
    for n in range(1, 401):
        for k in range(n):
            dense = [0] * n
            dense[k] = 1
            want, got = _from_dense(n, dense), root_of_unity(n, k)
            assert (got.n, got.coeffs, got.den) == (want.n, want.coeffs, want.den), (n, k)
    # exponents outside [0, n) name the same root
    for n, k in [(7, -1), (12, -5), (10, 25), (6, -1), (2, 3), (1, -4)]:
        assert root_of_unity(n, k) == root_of_unity(n, k % n)


def test_conductor_reduction():
    # zeta_3 written inside Q_6 comes back at conductor 3
    assert root_of_unity(6, 2).conductor == 3
    assert root_of_unity(6, 2) == root_of_unity(3)
    # zeta_6 itself lives in Q_3 as well
    z6 = root_of_unity(6)
    assert z6.conductor == 3
    assert z6 * z6 * z6 == -1
    # rational collapses all the way down
    assert (root_of_unity(8) * root_of_unity(8, 7)).conductor == 1


def test_galois_action():
    assert galois(Cyclo.from_rational(Fraction(7, 3)), 5) == Fraction(7, 3)
    w5 = root_of_unity(5) + root_of_unity(5, 4)
    assert galois(w5, 2) != w5
    assert galois(w5, 2) == root_of_unity(5, 2) + root_of_unity(5, 3)
    # conjugation fixes real values
    w7 = root_of_unity(7) + root_of_unity(7, 6)
    assert conjugate(w7) == w7
    with pytest.raises(ValueError):
        galois(root_of_unity(6), 3)


def test_galois_composition():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([5, 7, 8, 9, 12, 15])
        c = _random_value(rng, n)
        ks = [k for k in range(1, n) if gcd(k, n) == 1]
        a, b = rng.choice(ks), rng.choice(ks)
        assert galois(galois(c, a), b) == galois(c, a * b % n)
        assert galois(c, 1) == c


def _random_value(rng, n):
    dense = [0] * n
    for _ in range(rng.randint(1, 4)):
        dense[rng.randrange(n)] = rng.randint(-3, 3)
    from charfield.cyclo import _from_dense

    return _from_dense(n, dense)


def test_ring_axioms_random():
    rng = random.Random(20250811)
    for _ in range(120):
        n = rng.choice([3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 20, 24])
        a, b, c = (_random_value(rng, n) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a + (-a) == 0


def test_reembedding_canonical():
    # embedding into a larger cyclotomic field and back is the identity
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.choice([3, 4, 5, 7, 8, 9, 12, 15])
        v = _random_value(rng, n)
        k = rng.choice([2, 3, 4, 6])
        big = n * k
        from charfield.cyclo import _from_dense

        stride = big // v.conductor
        dense = [0] * big
        for i, co in enumerate(v.coeffs):
            dense[i * stride] = co
        assert _from_dense(big, dense) == v


def test_galois_is_ring_hom():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.choice([5, 7, 9, 12, 15])
        a, b = _random_value(rng, n), _random_value(rng, n)
        ks = [k for k in range(2, n) if gcd(k, n) == 1]
        k = rng.choice(ks)
        assert galois(a * b, k) == galois(a, k) * galois(b, k)
        assert galois(a + b, k) == galois(a, k) + galois(b, k)


def test_degrees():
    assert degree_over_Q(Cyclo.from_rational(5)) == 1
    assert degree_over_Q(root_of_unity(5) + root_of_unity(5, 4)) == 2
    assert degree_over_Q(root_of_unity(7) + root_of_unity(7, 6)) == 3
    assert degree_over_Q(root_of_unity(5)) == 4
    assert degree_over_Q(root_of_unity(9)) == 6


def _stabilizer_degree(c):
    # reference: phi(n) over the size of the stabilizer of c, taken over every
    # unit with the exact Galois action
    ks = [k for k in range(1, c.n + 1) if gcd(k, c.n) == 1]
    return len(ks) // sum(galois(c, k) == c for k in ks)


def test_degree_against_the_exact_stabilizer():
    # sums of roots of unity of every order up to 120 (orders 2 mod 4 descend
    # to half), their rational multiples, and Gaussian periods, whose
    # stabilizers hold a whole cyclic subgroup of units
    rng = random.Random(16)
    zero = Cyclo.from_rational(0)
    values = []
    for n in range(1, 121):
        for _ in range(2):
            c = sum((root_of_unity(n, rng.randrange(n)) for _ in range(rng.randint(1, 4))), zero)
            values += [c, c * Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 7))]
        a = rng.choice([k for k in range(1, n + 1) if gcd(k, n) == 1])
        powers, x = {1 % n}, a % n
        while x not in powers:
            powers.add(x)
            x = x * a % n
        values.append(sum((root_of_unity(n, x) for x in powers), zero))
    assert any(v.n % 4 == 0 for v in values) and any(v.n % 2 for v in values)
    assert any(_stabilizer_degree(v) < totient(v.n) // 2 for v in values)
    for c in values:
        assert degree_over_Q(c) == _stabilizer_degree(c), c


def test_omega_degree_fixtures():
    assert omega_degree(4) == 1
    assert omega_degree(9) == 3
    # phi(12)/2 = 2: the real part of a primitive 12th root is quadratic
    assert omega_degree(12) == 2
    with pytest.raises(ValueError):
        omega_degree(2)


def test_omega_degree_matches_the_exact_stabilizer():
    # degree_over_Q builds the Cyclo value and confirms each stabilizer
    # element exactly
    for r in range(3, 401):
        assert omega_degree(r) == degree_over_Q(root_of_unity(r, 1) + root_of_unity(r, r - 1)), r


def test_omega_degree_matches_totient():
    for r in range(3, 61):
        assert omega_degree(r) * 2 == totient(r), r


def test_count_subfields_fixtures():
    assert count_subfields(7, 2).count == 1
    assert count_subfields(15, 2).count == 3
    assert count_subfields(63, 3).count == 4
    assert count_subfields(9, 3).count == 1
    assert count_subfields(7, 3).count == 1
    with pytest.raises(ValueError):
        count_subfields(10, 5)


def test_subfield_counts_compare_and_hash_as_values():
    c = count_subfields(7, 2)
    assert c == SubfieldCount(7, 2, 1) and c != SubfieldCount(7, 3, 1)
    assert c != 1 and c != (7, 2, 1)
    assert {c, count_subfields(7, 2)} == {c}
    assert repr(c) == "SubfieldCount(n=7, degree=2, count=1)"


def brute_subgroup_count(n, d):
    # explicit subgroups: collect the distinct order-d cyclic subgroups of
    # (Z/n)*; in a finite abelian group these are equinumerous with the
    # index-d subgroups (annihilator duality).
    subs = set()
    for x in range(2, n):
        if gcd(x, n) == 1 and pow(x, d, n) == 1:
            h, cur = [], x
            while cur != 1:
                h.append(cur)
                cur = cur * x % n
            subs.add(frozenset(h + [1]))
    return len(subs)


def test_count_subfields_brute_small():
    for n in range(3, 121):
        for d in (2, 3):
            assert count_subfields(n, d).count == brute_subgroup_count(n, d), (n, d)


def test_cubic_count_zero_when_phi_not_divisible():
    for n in range(3, 200):
        if totient(n) % 3:
            assert count_subfields(n, 3).count == 0


def from_terms(obj):
    """The value of to_obj's terms, summed as num/den * E(n)^i."""
    return sum((Fraction(num, den) * root_of_unity(obj["n"], i) for i, num, den in obj["c"]),
               Cyclo.from_rational(Fraction(0)))


def test_serialization_roundtrip():
    v = root_of_unity(5) + 2 * root_of_unity(5, 3) + Fraction(1, 2)
    assert from_terms(v.to_obj()) == v
    # power-basis canonical form: exponent 4 is rewritten below phi(5)
    assert str(root_of_unity(5) + root_of_unity(5, 4)) == "-1-E(5)^2-E(5)^3"
    assert str(root_of_unity(5, 2) + root_of_unity(5, 3)) == "E(5)^2+E(5)^3"


def test_equal_conductor_sums_against_the_constructor():
    # oracle: Cyclo(n, coeffs) reduces the summed coordinates and walks the
    # conductor down from scratch; b = -a cancels, and b = r - a for r in a
    # subfield drops the conductor
    rng = random.Random(60)
    cancelled = dropped = 0
    for n in range(1, 61):
        for _ in range(8):
            a = Cyclo(n, [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                          for _ in range(rng.randint(1, n))])
            d = rng.choice([d for d in range(1, a.n + 1) if a.n % d == 0])
            r = rng.randint(-2, 2) * root_of_unity(d, rng.randrange(d))
            b = rng.choice([-a, r - a, Cyclo(n, [rng.randint(-2, 2) for _ in range(n)])])
            if b.n != a.n:
                continue
            got = a + b
            want = Cyclo(a.n, [Fraction(x, a.den) + Fraction(y, b.den)
                               for x, y in zip(a.coeffs, b.coeffs)])
            assert (got.n, got.coeffs, got.den) == (want.n, want.coeffs, want.den), (a, b)
            cancelled += got == 0 and a != 0
            dropped += got != 0 and got.n < a.n
    assert cancelled > 50 and dropped > 50


def test_sort_key_total_order():
    vals = [root_of_unity(5), root_of_unity(3), Cyclo.from_rational(2), -root_of_unity(3)]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == len(keys)
    sorted(keys)


# -- the (n, coeffs, den) representation against an independent oracle ------


def _order_n_root_mod_p(N):
    """A prime p = 1 (mod N) and theta of order exactly N in GF(p)."""
    p = 10**4 * N + 1
    while any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        p += N
    qs = [q for q in range(2, N + 1) if N % q == 0 and all(q % d for d in range(2, q))]
    for a in range(2, p):
        theta = pow(a, (p - 1) // N, p)
        if all(pow(theta, N // q, p) != 1 for q in qs):
            return p, theta


def _eval_dense(dense, theta, p):
    """sum dense[i] * theta^i in GF(p); dense holds Fractions with den prime to p."""
    acc = 0
    for i, c in enumerate(dense):
        acc += c.numerator * pow(c.denominator, -1, p) * pow(theta, i, p)
    return acc % p


def _eval(v, N, theta, p):
    # zeta_n = zeta_N^(N/n): the ring homomorphism Z[1/6][zeta_N] -> GF(p)
    assert N % v.n == 0
    t = pow(theta, N // v.n, p)
    return sum(c * pow(t, i, p) for i, c in enumerate(v.coeffs)) * pow(v.den, -1, p) % p


def _assert_canonical(v):
    assert all(type(c) is int for c in v.coeffs) and type(v.den) is int
    assert v.den >= 1 and gcd(v.den, *v.coeffs) == 1


def _random_fraction_vector(rng, N):
    den = rng.choice([1, 2, 3, 6])
    dense = [Fraction(0)] * N
    for _ in range(rng.randint(1, 5)):
        dense[rng.randrange(N)] = Fraction(rng.randint(-6, 6), den)
    return dense


@pytest.mark.parametrize("N", [4, 9, 12, 15, 20, 21])
def test_evaluation_mod_p_commutes_with_the_ring_operations(N):
    rng = random.Random(N)
    p, theta = _order_n_root_mod_p(N)
    units_N = [k for k in range(1, N) if gcd(k, N) == 1]
    for _ in range(60):
        da, db = _random_fraction_vector(rng, N), _random_fraction_vector(rng, N)
        a, b = Cyclo(N, da), Cyclo(N, db)
        for v in (a, b, a + b, a * b, -a, a - b):
            _assert_canonical(v)
        ea, eb = _eval(a, N, theta, p), _eval(b, N, theta, p)
        assert ea == _eval_dense(da, theta, p) and eb == _eval_dense(db, theta, p)
        assert _eval(a + b, N, theta, p) == (ea + eb) % p
        assert _eval(a * b, N, theta, p) == ea * eb % p
        assert _eval(-a, N, theta, p) == -ea % p
        k = rng.choice(units_N)
        image = galois(a, k)
        _assert_canonical(image)
        # sigma_k is zeta_N -> zeta_N^k, i.e. evaluation at theta^k
        assert _eval(image, N, theta, p) == _eval_dense(da, pow(theta, k, p), p)


def test_galois_is_the_full_canonicalisation_of_the_reindexed_vector():
    from charfield.cyclo import _from_dense

    rng = random.Random(11)
    for _ in range(200):
        N = rng.choice([5, 8, 9, 12, 15, 20, 24])
        c = Cyclo(N, _random_fraction_vector(rng, N))
        n = c.n
        for k in (k for k in range(1, n) if gcd(k, n) == 1):
            permuted = [0] * n
            for i, x in enumerate(c.coeffs):
                permuted[i * k % n] += x
            want = _from_dense(n, permuted, c.den)
            got = galois(c, k)
            assert (got.n, got.coeffs, got.den) == (want.n, want.coeffs, want.den)


def test_integer_results_keep_denominator_one():
    half = Fraction(1, 2)
    v = half * (2 * root_of_unity(7)) + half + half
    assert v == root_of_unity(7) + 1 and v.den == 1 and v.is_integral()
    assert (Fraction(1, 3) * root_of_unity(5)).den == 3
    assert not (Fraction(1, 3) * root_of_unity(5)).is_integral()
    zero = Fraction(1, 6) * root_of_unity(9) - Fraction(1, 6) * root_of_unity(9)
    assert (zero.n, zero.coeffs, zero.den) == (1, (0,), 1)
    _assert_canonical(Cyclo(4, [1.5, 0.25]))


@pytest.mark.parametrize("n", [1, 4, 9, 12, 15])
def test_rational_multiples_against_the_coefficientwise_product(n):
    # reference: each coordinate times q, rebuilt through the public constructor
    rng = random.Random(n)
    scalars = [0, 1, -1, 6, -7, Fraction(0), Fraction(-2, 3), Fraction(5, 4), Fraction(-9)]
    for _ in range(6):
        v = Cyclo(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)])
        assert v.n == n
        for q in scalars:
            want = Cyclo(n, [Fraction(c, v.den) * q for c in v.coeffs])
            for got in (v * q, q * v, v * Cyclo.from_rational(q), Cyclo.from_rational(q) * v):
                assert (got.n, got.coeffs, got.den) == (want.n, want.coeffs, want.den), (v, q)


def test_fractional_values_at_the_api_edge():
    v = Fraction(1, 2) * root_of_unity(5) + Fraction(2, 3) * root_of_unity(5, 3)
    assert (v.coeffs, v.den) == ((0, 3, 0, 4), 6)
    assert v.to_obj() == {"n": 5, "c": [[1, 1, 2], [3, 2, 3]]}
    assert str(v) == "1/2*E(5)+2/3*E(5)^3"
    assert v.sort_key() == (5, (0, Fraction(1, 2), 0, Fraction(2, 3)))
    assert all(type(x) is Fraction for x in v.sort_key()[1])
    w = Fraction(1, 2) * root_of_unity(5, 4)
    assert w.to_obj() == {"n": 5, "c": [[i, -1, 2] for i in range(4)]}
    assert str(w) == "-1/2-1/2*E(5)-1/2*E(5)^2-1/2*E(5)^3"
    u = Fraction(1, 6) * root_of_unity(12) - Fraction(1, 4)
    assert u.to_obj() == {"n": 12, "c": [[0, -1, 4], [1, 1, 6]]}
    assert str(u) == "-1/4+1/6*E(12)"
    assert u.sort_key() == (12, (Fraction(-1, 4), Fraction(1, 6), 0, 0))
    r = Cyclo.from_rational(Fraction(-3, 4))
    assert (r.to_obj(), str(r), r.sort_key()) == ({"n": 1, "c": [[0, -3, 4]]}, "-3/4",
                                                  (1, (Fraction(-3, 4),)))
    assert r.rational_value() == Fraction(-3, 4)
    for x in (v, w, u, r):
        assert from_terms(x.to_obj()) == x


# -- oracles for the Moebius product and the bucketed descent ---------------


def _prime_divisors(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def _polydiv_exact(num, den):
    # exact division of integer polynomials by a monic or -1-led divisor
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        if not num[i]:
            continue
        q, r = divmod(num[i], den[-1])
        assert r == 0
        out[i - dd] = q
        for j, a in enumerate(den):
            num[i - dd + j] -= q * a
    assert not any(num)
    return out


_PHI_ORACLE = {}


def _phi_by_exact_division(n):
    # z^n - 1 divided by Phi_d for every proper divisor d of n
    if n not in _PHI_ORACLE:
        quo = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                quo = _polydiv_exact(quo, _phi_by_exact_division(d))
        _PHI_ORACLE[n] = tuple(quo)
    return _PHI_ORACLE[n]


def test_cyclotomic_polynomial_matches_exact_division():
    for n in range(1, 601):
        assert cyclotomic_polynomial(n) == _phi_by_exact_division(n), n


def _reduce_by_oracle(n, dense):
    phi = _phi_by_exact_division(n)
    deg = len(phi) - 1
    dense = list(dense)
    for e in range(len(dense) - 1, deg - 1, -1):
        c, dense[e] = dense[e], 0
        for j in range(deg):
            dense[e - deg + j] -= c * phi[j]
    return dense[:deg]


def _descend_per_coefficient(n, vec):
    # the descent n -> n/p with each monomial reduced mod Phi_m on its own
    for p in _prime_divisors(n):
        m = n // p
        if m > 1 and m % p == 0:
            if any(vec[i] for i in range(len(vec)) if i % p):
                continue
            return m, [vec[p * j] for j in range(totient(m))]
        a = pow(m, -1, p)
        b = 0 if m == 1 else pow(p, -1, m)
        gammas = [[0] * totient(m) for _ in range(p)]
        for i, c in enumerate(vec):
            if c:
                monomial = [0] * m
                monomial[b * i % m] = c
                g = gammas[a * i % p]
                for j, x in enumerate(_reduce_by_oracle(m, monomial)):
                    g[j] += x
        if any(gammas[u] != gammas[p - 1] for u in range(1, p - 1)):
            continue
        return m, [x - y for x, y in zip(gammas[0], gammas[p - 1])]
    return None


def _canonical_by_oracle(n, dense):
    vec = _reduce_by_oracle(n, dense)
    while n > 1 and (step := _descend_per_coefficient(n, vec)) is not None:
        n, vec = step
    return n, tuple(vec)


def _random_dense(rng, n):
    # a value of Q_d for a random d | n, at times averaged over a cyclic
    # subgroup of Galois (a fixed field that need not be cyclotomic), plus
    # random multiples of zeta^s * (sum of the p-th roots of unity) = 0
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    d = rng.choice(divisors)
    dense = [0] * n
    for i in range(d):
        dense[i * (n // d)] = rng.randint(-4, 4)
    if rng.random() < 0.3:
        k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1])
        averaged, power = [0] * n, 1
        while True:
            for i, c in enumerate(dense):
                averaged[i * power % n] += c
            power = power * k % n
            if power == 1:
                break
        dense = averaged
    for _ in range(rng.randint(0, 4)):
        p, s, c = rng.choice(_prime_divisors(n)), rng.randrange(n), rng.randint(-3, 3)
        for j in range(p):
            dense[(s + j * (n // p)) % n] += c
    return dense


@pytest.mark.parametrize("n", [60, 105, 180, 210])
def test_descent_matches_the_per_coefficient_oracle(n):
    from charfield.cyclo import _from_dense

    rng = random.Random(1000 + n)
    conductors = set()
    for trial in range(80):
        dense = ([rng.randint(-5, 5) for _ in range(n)] if trial % 8 == 0
                 else _random_dense(rng, n))
        want = _canonical_by_oracle(n, dense)
        got = _from_dense(n, list(dense))
        assert (got.n, got.coeffs, got.den) == (*want, 1)
        conductors.add(got.n)
    # the vectors reach several intermediate conductors, not only n and 1
    assert len(conductors - {1, n}) >= 3


def test_lift_from_root_counts_matches_the_sum_of_closed_form_roots():
    # the table lift reduces one dense vector mod Phi_o and descends; the
    # oracle adds closed-form roots (root_of_unity) one at a time with
    # Cyclo.__add__, which re-embeds and canonicalises every partial sum
    rng = random.Random(24)
    for o in range(1, 25):
        for _ in range(6):
            counts = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(o))
            total = Cyclo.from_rational(0)
            for d, m in enumerate(counts):
                for _ in range(m):
                    total = total + root_of_unity(o, d)
            assert cyclo_from_root_counts(counts) == total, (o, counts)


def test_first_evaluation_prime_of_every_conductor_in_the_range_cap():
    # the CLI caps ranges at 10^4; every first prime of the walk lies in
    # (2^20, 2^21), so products of two residues stay far inside int64
    top = 10**4
    prime_divisors = [[] for _ in range(top + 1)]  # a sieve, not arith's factorize
    for q in range(2, top + 1):
        if not prime_divisors[q]:
            for m in range(q, top + 1, q):
                prime_divisors[m].append(q)
    for n in range(1, top + 1):
        p, theta = next(modp.eval_points(n))
        assert (p - 1) % n == 0 and 1 << 20 < p < 1 << 21, n
        assert pow(theta, n, p) == 1, n
        assert all(pow(theta, n // q, p) != 1 for q in prime_divisors[n]), n


@pytest.mark.parametrize("E", [1, 5, 60, 1820, 2520, 7440])
def test_certificate_primes_and_degree_evaluation_share_the_walk(E):
    primes = chartab._certificate_primes(E, 1 << 100)
    assert primes == [p for p, _ in itertools.islice(modp.eval_points(E), len(primes))]
    assert primes == sorted(set(primes)) and len(primes) >= 5
