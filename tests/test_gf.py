import itertools

import pytest

from charfield.gf import field
from charfield.modp import poly_mod, poly_mul

AXIOM_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3),
                (3, 2), (2, 4), (5, 2), (2, 5), (3, 3), (2, 6), (7, 2)]


def test_prime_field_basics():
    F7 = field(7)
    three = F7.from_int(3)
    assert three.inv() == F7.from_int(5)
    assert three * three.inv() == F7.one


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


def test_frobenius_composition():
    F8 = field(2, 3)
    for x in F8.elements():
        # the Suzuki twist: squaring the exponent-2 Frobenius gives exponent 4
        assert x.frobenius(2).frobenius(2) == x.frobenius(4)
        assert x.frobenius(4) == x * x  # x^16 = x^2 in GF(8)


def test_cross_field_operations_rejected():
    a = field(2, 2).one
    b = field(2, 3).one
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize("p,m", AXIOM_FIELDS)
def test_field_axioms_exhaustive(p, m):
    F = field(p, m)
    els = F.elements()
    assert len(set(map(int, els))) == F.order
    for x in els:
        if x:
            assert x * x.inv() == F.one
        assert (x + x) - x == x
    # Frobenius is additive on the whole field
    for x, y in itertools.product(els, els):
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()


@pytest.mark.parametrize("p,m", AXIOM_FIELDS)
def test_operations_match_the_polynomial_model(p, m):
    # the log tables against coefficient vectors multiplied and reduced
    # modulo the published modulus, element by element
    F = field(p, m)
    q = F.order

    def pad(cs):
        return tuple(cs) + (0,) * (m - len(cs))

    def mul(a, b):
        return pad(poly_mod(poly_mul(a, b, p), F.modulus, p))

    els = F.elements()
    assert [x.coeffs for x in els] == [tuple(i // p**j % p for j in range(m)) for i in range(q)]
    assert [int(x) for x in els] == list(range(q))
    one = F.one.coeffs
    assert one == pad([1])
    for x, y in itertools.product(els, els):
        assert (x + y).coeffs == tuple((a + b) % p for a, b in zip(x.coeffs, y.coeffs))
        assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(x.coeffs, y.coeffs))
        assert (x * y).coeffs == mul(x.coeffs, y.coeffs)
        assert F.elem(poly_mul(x.coeffs, y.coeffs, p)) is x * y
    for x in els:
        model = [one]  # x^e in the model, e < 2q
        for _ in range(2 * q - 1):
            model.append(mul(model[-1], x.coeffs))
        assert [(x**e).coeffs for e in range(2 * q)] == model
        assert [x.frobenius(j).coeffs for j in range(m + 1)] == [model[p**j] for j in range(m + 1)]
        if x:
            assert mul(x.coeffs, x.inv().coeffs) == one
            for e in range(1, q + 1):
                assert mul((x**-e).coeffs, model[e]) == one
        else:
            with pytest.raises(ZeroDivisionError):
                x ** -1


def _order(x):
    # the multiplicative order of x != 0, by repeated multiplication
    k, cur = 1, x
    while cur != x.spec.one:
        cur, k = cur * x, k + 1
    return k


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (2, 5),
                                 (3, 3), (7, 2), (2, 6)])
def test_multiplicative_group_cyclic(p, m):
    F = field(p, m)
    orders = {_order(x) for x in F.elements() if x}
    assert max(orders) == F.order - 1  # a generator exists


def test_zero_inverse_rejected():
    with pytest.raises(ZeroDivisionError):
        field(5).zero.inv()


@pytest.mark.parametrize("p,m", AXIOM_FIELDS)
def test_order_in_field_counts_powers(p, m):
    # x ** j, one log-table lookup, against x multiplied out j times
    F = field(p, m)
    for x in F.elements()[1:]:
        k = _order(x)
        assert (F.order - 1) % k == 0
        cur = F.one
        for j in range(k + 1):
            assert x ** j == cur
            cur = cur * x


# every field the matrix-group families act over: PSL(2,q) and SL(2,q) for
# the prime powers 4 <= q <= 32, and GF(8) for Sz(8)
FAMILY_FIELDS = [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4), (17, 1),
                 (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1), (2, 5)]


@pytest.mark.parametrize("p,m", FAMILY_FIELDS)
def test_tables_against_field_elements(p, m):
    # oracle: FieldElem's +, * and inv() on every pair of elements
    F = field(p, m)
    add, mul, inv = F.tables()
    elems = F.elements()
    assert add.shape == mul.shape == (F.order, F.order) and inv.shape == (F.order,)
    assert add.tolist() == [[(x + y).i for y in elems] for x in elems]
    assert mul.tolist() == [[(x * y).i for y in elems] for x in elems]
    assert inv.tolist() == [0] + [x.inv().i for x in elems[1:]]
    assert F.tables() is F.tables()
