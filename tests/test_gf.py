import itertools

import numpy as np
import pytest

from charfield.gf import MAX_ORDER, FieldSpec, field
from charfield.modp import poly_mod, poly_mul

AXIOM_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3),
                (3, 2), (2, 4), (5, 2), (2, 5), (3, 3), (2, 6), (7, 2)]

# every field the matrix-group families act over: PSL(2,q) and SL(2,q) for
# the prime powers 4 <= q <= 32, and GF(8) for Sz(8)
FAMILY_FIELDS = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1),
                 (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5)]


def _power(F, x, e):
    # x^e by e lookups in the mul table
    y = 1
    for _ in range(e):
        y = F.mul[y, x]
    return int(y)


def _order(F, x):
    # the multiplicative order of x != 0, by repeated multiplication; a
    # broken mul table may never return to 1, so the walk stops at q
    cur = x
    for k in range(1, F.order):
        if cur == 1:
            return k
        cur = F.mul[cur, x]
    raise AssertionError(f"{x} has no multiplicative order below {F.order}")


def test_prime_field_basics():
    F7 = field(7)
    assert F7.inv[3] == 5
    assert F7.mul[3, F7.inv[3]] == 1
    assert F7.add[3, 5] == 1


def test_published_moduli():
    # x^3 + x + 1 is the smallest irreducible cubic over GF(2)
    assert field(2, 3).modulus == (1, 1, 0, 1)
    # x^2 + x + 1 is the unique irreducible quadratic over GF(2)
    assert field(2, 2).modulus == (1, 1, 1)
    assert field(3, 2).modulus == (1, 0, 1)  # x^2 + 1 over GF(3)


def test_field_identity_caching():
    assert field(2, 3) is field(2, 3)
    with pytest.raises(ValueError):
        field(6)


def test_field_refuses_orders_past_max_order():
    # the add and mul tables have q^2 entries each; the check comes before
    # the search for a modulus, which for GF(2^20) took 34 s
    for p, m in [(2, 11), (1031, 1), (2, 20)]:
        with pytest.raises(ValueError, match=f"MAX_ORDER = {MAX_ORDER}"):
            field(p, m)
    F = field(2, 10)
    assert F.order == MAX_ORDER == 1024
    assert (F.mul[np.arange(1, 1024), F.inv[1:]] == 1).all()


def test_frobenius_composition():
    F8 = field(2, 3)
    for x in range(8):
        # the Suzuki twist s(x) = x^4, two squarings as zoo.sz computes it;
        # applied twice it gives x^16 = x^2 in GF(8)
        s = _power(F8, x, 4)
        assert F8.mul[F8.mul[x, x], F8.mul[x, x]] == s
        assert _power(F8, s, 4) == _power(F8, x, 16) == F8.mul[x, x]


@pytest.mark.parametrize("p,m", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, m):
    F = field(p, m)
    add, mul, inv = F.add, F.mul, F.inv
    els = np.arange(F.order)
    assert (add[0] == els).all() and (mul[1] == els).all()
    assert (add == add.T).all() and (mul == mul.T).all()
    assert (mul[els[1:], inv[1:]] == 1).all()
    neg = (add == 0).argmax(axis=1)
    assert (add[els, neg] == 0).all()
    assert (add[add[els, els], neg] == els).all()  # (x + x) - x == x
    x, y, z = np.ix_(els, els, els)
    assert (add[add[x, y], z] == add[x, add[y, z]]).all()
    assert (mul[mul[x, y], z] == mul[x, mul[y, z]]).all()
    assert (mul[x, add[y, z]] == add[mul[x, y], mul[x, z]]).all()
    # Frobenius x -> x^p is additive on the whole field
    frob = np.array([_power(F, x, p) for x in els])
    assert (frob[add] == add[frob[:, None], frob]).all()


@pytest.mark.parametrize("p,m", sorted(set(AXIOM_FIELDS) | set(FAMILY_FIELDS)))
def test_operations_match_the_polynomial_model(p, m):
    # the tables against coefficient vectors added, and multiplied and
    # reduced modulo the published modulus, on every pair of encodings
    F = field(p, m)

    def digits(i):
        return [int(i) // p**j % p for j in range(m)]

    def encode(cs):
        return sum(c * p**j for j, c in enumerate(cs))

    for i, j in itertools.product(range(F.order), repeat=2):
        a, b = digits(i), digits(j)
        assert F.add[i, j] == encode((s + t) % p for s, t in zip(a, b))
        assert F.mul[i, j] == encode(poly_mod(poly_mul(a, b, p), F.modulus, p))
    assert F.inv[0] == 0
    for i in range(1, F.order):
        assert poly_mod(poly_mul(digits(i), digits(F.inv[i]), p), F.modulus, p) == [1]


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (2, 5),
                                 (3, 3), (7, 2), (2, 6)])
def test_multiplicative_group_cyclic(p, m):
    F = field(p, m)
    orders = {_order(F, x) for x in range(1, F.order)}
    assert max(orders) == F.order - 1  # a generator exists


@pytest.mark.parametrize("p,m", AXIOM_FIELDS)
def test_order_in_field_counts_powers(p, m):
    # each nonzero x has order k dividing q - 1, and x^-1 = x^(k-1)
    F = field(p, m)
    for x in range(1, F.order):
        k = _order(F, x)
        assert (F.order - 1) % k == 0
        assert F.inv[x] == _power(F, x, k - 1)


@pytest.mark.parametrize("p,m", FAMILY_FIELDS)
def test_tables_against_field_elements(p, m):
    # the tables as the matrix families read them, and the encodings that
    # zoo writes into its generator matrices
    F = field(p, m)
    q = F.order
    assert FieldSpec.__slots__ == ("p", "m", "modulus", "order", "add", "mul", "inv")
    assert F.add.shape == F.mul.shape == (q, q) and F.inv.shape == (q,)
    for table in (F.add, F.mul, F.inv):
        assert not table.flags.writeable
    assert F.add[1, p - 1] == 0  # -1 is encoded p - 1
    # the unipotents' entries p^i are an additive basis: the sum of
    # d_i * p^i over the base-p digits d_i of x is x
    for x in range(q):
        acc = 0
        for i in range(m):
            for _ in range(x // p**i % p):
                acc = F.add[acc, p**i]
        assert acc == x
    if q == 8:
        assert _order(F, 2) == 7  # Sz(8)'s kappa, the class of x, generates GF(8)*
