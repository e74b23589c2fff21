from collections import Counter

import pytest

from charfield import perm
from charfield.perm import (
    GroupTooLargeError,
    conjugacy_classes,
    derived_subgroup,
    element_order_spectrum,
    quotient_group,
)
from charfield.zoo import (
    GroupSpec,
    SpecSemanticError,
    SpecSyntaxError,
    alternating,
    build,
    cyclic,
    dihedral,
    frobenius,
    parse_spec,
    product,
    psl2,
    sl2,
    symmetric,
    sz,
)


def test_cyclic():
    assert cyclic(1).order == 1
    g = cyclic(4)
    assert g.order == 4 and conjugacy_classes(g).k == 4
    assert cyclic(6).order == 6
    with pytest.raises(SpecSemanticError):
        cyclic(0)


def test_dihedral():
    assert dihedral(10).order == 10
    d18 = dihedral(18)
    assert d18.order == 18
    assert derived_subgroup(d18).order == 9
    d6 = dihedral(6)
    assert d6.order == 6 and conjugacy_classes(d6).k == 3
    with pytest.raises(SpecSemanticError):
        dihedral(9)


def test_frobenius():
    assert frobenius(7, 3).order == 21
    f20 = frobenius(5, 4)
    assert f20.order == 20
    assert derived_subgroup(f20).order == 5
    assert frobenius(13, 4).order == 52
    with pytest.raises(SpecSemanticError):
        frobenius(7, 4)


def test_frobenius_abelianization():
    for p, k in ((5, 4), (7, 3), (13, 4)):
        g = frobenius(p, k)
        d = derived_subgroup(g)
        assert d.order == p
        q = quotient_group(g, d)
        assert q.order == k
        assert max(element_order_spectrum(q)) == k  # cyclic abelianization


def test_alternating_symmetric():
    assert alternating(4).order == 12
    assert alternating(5).order == 60
    assert symmetric(4).order == 24
    assert alternating(2).order == 1
    assert symmetric(2).order == 2
    with pytest.raises(SpecSemanticError):
        alternating(10)


def test_psl2_orders():
    for q, order in ((4, 60), (5, 60), (7, 168), (8, 504), (9, 360)):
        assert psl2(q).order == order, q
    with pytest.raises(SpecSemanticError):
        psl2(6)
    with pytest.raises(SpecSemanticError):
        psl2(3)


def test_sl2_orders():
    assert sl2(4).order == 60
    assert sl2(5).order == 120


def test_psl2_4_looks_like_a5():
    a = conjugacy_classes(psl2(4))
    b = conjugacy_classes(alternating(5))
    assert sorted(a.sizes) == sorted(b.sizes)
    assert sorted(a.element_orders) == sorted(b.element_orders)


def test_suzuki_group():
    g = sz(8)
    assert g.degree == 65
    assert g.order == 29120
    assert element_order_spectrum(g) == (2, 4, 5, 7, 13)
    cd = conjugacy_classes(g)
    assert cd.k == 11
    with pytest.raises(SpecSemanticError):
        sz(4)
    with pytest.raises(SpecSemanticError):
        sz(32)


def test_product():
    g = product([cyclic(2), cyclic(2)])
    assert g.order == 4
    assert element_order_spectrum(g) == (2,)
    assert product([cyclic(3), cyclic(3)]).order == 9
    assert product([cyclic(1), cyclic(7)]).order == 7


def test_closed_form_orders_via_build():
    for text, order in (("C12", 12), ("D14", 14), ("F20", 20), ("F21", 21),
                        ("F52", 52), ("A5", 60), ("S4", 24), ("PSL(2,8)", 504),
                        ("SL(2,5)", 120), ("C2xC2", 4), ("C2xC3", 6)):
        assert build(text).order == order, text


def test_parse_canonical_roundtrip():
    for text in ("C12", "D18", "F52", "A5", "S4", "PSL(2,19)", "Sz(8)",
                 "Frob(7,3)", "C2xC2", "C2xC3xC4"):
        spec = parse_spec(text)
        assert parse_spec(str(spec)) == spec


def test_parse_results():
    assert parse_spec("D18") == GroupSpec("D", (18,))
    assert parse_spec("PSL(2,8)") == GroupSpec("PSL", (2, 8))
    assert parse_spec("C3xC3") == GroupSpec(
        "Product", factors=(GroupSpec("C", (3,)), GroupSpec("C", (3,))))
    assert parse_spec("F20") == GroupSpec("Frob", (5, 4))
    assert str(parse_spec("Frob(5,4)")) == "F20"


def test_parse_syntax_errors_carry_position():
    with pytest.raises(SpecSyntaxError) as e:
        parse_spec("C")
    assert e.value.position == 1
    with pytest.raises(SpecSyntaxError):
        parse_spec("Q3")
    with pytest.raises(SpecSyntaxError):
        parse_spec("C3x")
    with pytest.raises(SpecSyntaxError):
        parse_spec("PSL(2,)")
    with pytest.raises(SpecSyntaxError):
        parse_spec("C3 x C3")


def test_parse_semantic_errors():
    with pytest.raises(SpecSemanticError):
        parse_spec("F15")
    with pytest.raises(SpecSemanticError):
        parse_spec("D9")
    with pytest.raises(SpecSemanticError):
        parse_spec("PSL(3,4)")
    with pytest.raises(SpecSemanticError):
        parse_spec("Frob(7)")


def test_build_cache_returns_same_object():
    assert build("A5") is build("A5")


def test_degree_multiset_match_needs_table():
    # class sizes as a multiset, used again by the character-table tests
    sizes = Counter(conjugacy_classes(build("A5")).sizes)
    assert sizes == Counter({1: 1, 15: 1, 20: 1, 12: 2})


def test_product_checks_the_cap_before_enumerating(monkeypatch):
    # |S8 x C25| = 40320 * 25 = 1,008,000 exceeds the cap of 10**6
    factors = [build("S8"), build("C25")]
    orders = []

    def closure_refused(chain, gens):
        orders.append(chain.order)
        raise AssertionError(f"enumerated {chain.order} elements")

    monkeypatch.setattr(perm, "_closure_rows", closure_refused)
    with pytest.raises(GroupTooLargeError, match="closure exceeded the cap of 1000000 elements"):
        product(factors)
    assert orders == []
