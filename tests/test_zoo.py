import hashlib
import json
import re
from collections import Counter

import pytest

from charfield import perm, zoo
from charfield.arith import factorize
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
    build,
    frobenius,
    parse_spec,
    psl2,
    sl2,
    sz,
)


def test_cyclic():
    assert build("C1").order == 1
    g = build("C4")
    assert g.order == 4 and conjugacy_classes(g).k == 4
    assert build("C6").order == 6
    with pytest.raises(SpecSemanticError):
        build("C0")


def test_dihedral():
    assert build("D10").order == 10
    d18 = build("D18")
    assert d18.order == 18
    assert derived_subgroup(d18).order == 9
    d6 = build("D6")
    assert d6.order == 6 and conjugacy_classes(d6).k == 3
    with pytest.raises(SpecSemanticError):
        build("D9")


def test_frobenius():
    assert build("Frob(7,3)").order == 21
    f20 = build("Frob(5,4)")
    assert f20.order == 20
    assert derived_subgroup(f20).order == 5
    assert build("Frob(13,4)").order == 52
    with pytest.raises(SpecSemanticError):
        build("Frob(7,4)")


def test_frobenius_multiplier_is_the_least_of_order_k():
    # every odd prime p < 400 and every k >= 2 dividing p - 1, against a scan
    # of a = 2, 3, ... that multiplies out each candidate's order
    def order(a, p):
        x, n = a, 1
        while x != 1:
            x, n = x * a % p, n + 1
        return n

    pairs = [(p, k) for p in range(3, 400) if all(p % d for d in range(2, p))
             for k in range(2, p) if (p - 1) % k == 0]
    assert len(pairs) == 611
    for p, k in pairs:
        degree, (trans, mult), size = frobenius(p, k)
        assert degree == p and size == p * k
        assert trans.images.tolist() == [(x + 1) % p for x in range(p)]
        a = next(a for a in range(2, p) if order(a, p) == k)
        assert mult.images.tolist() == [a * x % p for x in range(p)], (p, k)


def test_frobenius_abelianization():
    for p, k in ((5, 4), (7, 3), (13, 4)):
        g = build(f"Frob({p},{k})")
        d = derived_subgroup(g)
        assert d.order == p
        q = quotient_group(g, d)
        assert q.order == k
        assert max(element_order_spectrum(q)) == k  # cyclic abelianization


def test_alternating_symmetric():
    assert build("A4").order == 12
    assert build("A5").order == 60
    assert build("S4").order == 24
    assert build("A2").order == 1
    assert build("S2").order == 2
    with pytest.raises(SpecSemanticError):
        build("A10")


def test_psl2_orders():
    for q, order in ((4, 60), (5, 60), (7, 168), (8, 504), (9, 360)):
        assert build(f"PSL(2,{q})").order == order, q
    with pytest.raises(SpecSemanticError):
        build("PSL(2,6)")
    with pytest.raises(SpecSemanticError):
        build("PSL(2,3)")


def test_sl2_orders():
    assert build("SL(2,4)").order == 60
    assert build("SL(2,5)").order == 120


def test_psl2_4_looks_like_a5():
    a = conjugacy_classes(build("PSL(2,4)"))
    b = conjugacy_classes(build("A5"))
    assert sorted(a.sizes) == sorted(b.sizes)
    assert sorted(a.element_orders) == sorted(b.element_orders)


def test_suzuki_group():
    g = build("Sz(8)")
    assert g.degree == 65
    assert g.order == 29120
    assert element_order_spectrum(g) == (2, 4, 5, 7, 13)
    cd = conjugacy_classes(g)
    assert cd.k == 11
    with pytest.raises(SpecSemanticError):
        build("Sz(4)")
    with pytest.raises(SpecSemanticError):
        build("Sz(32)")


def test_product():
    g = build("C2xC2")
    assert g.order == 4
    assert element_order_spectrum(g) == (2,)
    assert build("C3xC3").order == 9
    assert build("C1xC7").order == 7


def test_closed_form_orders_via_build():
    for text, order in (("C12", 12), ("D14", 14), ("F20", 20), ("F21", 21),
                        ("F52", 52), ("A5", 60), ("S4", 24), ("PSL(2,8)", 504),
                        ("SL(2,5)", 120), ("C2xC2", 4), ("C2xC3", 6)):
        assert build(text).order == order, text


def test_only_family_specs_know_their_order():
    # a cycle spec, or a product with one among its factors, runs the full
    # Schreier-Sims; a product of families knows its order
    for text in ("<(1,2,3)>", "<()>", "C2x<(1,2)>", "<(1,2)>xS3"):
        assert zoo._generators(parse_spec(text))[2] is None, text
    assert zoo._generators(parse_spec("C2xA4xSz(8)"))[2] == 2 * 12 * 29120


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


def test_cycle_spec_canonical_form():
    spec = parse_spec("<(3,1,2),(5,4)(2,1),()>xC3")
    assert str(spec) == "<(1,2,3),(1,2)(4,5),()>xC3"
    assert spec == GroupSpec("Product", factors=(
        GroupSpec("Cycles", (((1, 2, 3),), ((1, 2), (4, 5)), ())), GroupSpec("C", (3,))))
    assert parse_spec(str(spec)) == spec
    # the generators keep their order, and repeats, as they fix the element ids
    assert str(parse_spec("<(1,2),(2,3,1),(1,2)>")) == "<(1,2),(1,2,3),(1,2)>"
    # GAP's (1,2,3) sends 1 to 2, 2 to 3 and 3 to 1; points here are 0-based
    assert [g.images.tolist() for g in build("<(3,1,2),(5,4)(2,1),()>").generators] == [
        [1, 2, 0, 3, 4], [1, 0, 2, 4, 3], [0, 1, 2, 3, 4]]
    assert build("<(3,1,2),(5,4)(2,1),()>xC3").order == 18
    assert build("<(1,2,3,4,5),(1,2,3)>").order == 60
    trivial = build("<()>")
    assert (trivial.order, trivial.degree) == (1, 1)


@pytest.mark.parametrize("text,position,message", [
    ("<(0,1)>", 2, "point 0"),
    ("<(1,2,1)>", 6, "point 1 is repeated"),
    ("<(1,2)(3,2)>", 9, "point 2 is repeated"),
    ("<(1)>", 1, "at least two points"),
    ("<(1,2)", 6, "expected '>'"),
    ("<(1,2", 5, "expected ')'"),
    ("<>", 1, "expected '('"),
    ("<(1,2),>", 7, "expected '('"),
    ("<(1,2)()>", 7, "expected a number"),
    ("<(1.5,2)>", 3, "expected ')'"),
    ("<(-1,2)>", 2, "expected a number"),
    ("<(1,2)x(3,4)>", 6, "expected '>'"),
    ("<(1,2)>>", 7, "unexpected trailing input"),
    ("C\u00b2", 1, "expected a number"),  # a digit, but not an ASCII one
])
def test_cycle_spec_syntax_errors(text, position, message):
    with pytest.raises(SpecSyntaxError, match=re.escape(message)) as e:
        parse_spec(text)
    assert e.value.position == position


def test_cycle_spec_checks_its_size_before_building_a_generator(monkeypatch):
    # a generator that moves a point makes at least 2 elements: 10**9 points
    # would take a 4 GB identity row, and 2^25 points are one past the
    # widest transposition the table limit admits
    def refused(*args):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(zoo, "_cycle_perm", refused)
    for degree in (10**9, 2**25):
        with pytest.raises(GroupTooLargeError,
                           match=f"at least 2 elements on {degree} points exceed"):
            build(f"<(1,{degree})>")


@pytest.mark.parametrize("kind,args,message", [
    ("Frob", (7,), "Frob takes 2 argument"),
    ("C", (3, 4), "C takes 1 argument"),
    ("D", (9,), "n must be even"),
    ("D", (4,), "n must be even and >= 6"),
    ("PSL", (3, 8), "only PSL\\(2,q\\)"),
    ("SL", (5, 7), "only SL\\(2,q\\)"),
    ("G", (2,), "unknown group kind 'G'"),
    ("F", (20,), "unknown group kind 'F'"),  # sugar that only the parser reads
    ("Cycles", (((0, 2),),), "points must be distinct and >= 1"),
    ("Cycles", (((1, 2),), ((1, 2), (3, 2))), "points must be distinct"),
])
def test_hand_made_spec_checks_itself(monkeypatch, kind, args, message):
    # the spec refuses itself, so build never starts
    def refused(*args):
        raise AssertionError("a group was built")

    monkeypatch.setattr(zoo, "_cycle_perm", refused)
    monkeypatch.setattr(zoo, "enumerate_group", refused)
    with pytest.raises(SpecSemanticError, match=message):
        build(GroupSpec(kind, args))


def test_cycle_perm_refuses_a_negative_point():
    # numpy would wrap -1 round to the last point: (2,-1) on 3 points would
    # be the identity, and (-1,1) would map two points to 1
    for cycle in ((2, -1), (-1, 1)):
        with pytest.raises(ValueError, match="bijection"):
            zoo._cycle_perm(3, cycle)


def test_product_size_refusal_names_a_lower_bound():
    # 3,000 factors C2 have 2^3000 elements; the bound checked stops at 2^20
    with pytest.raises(GroupTooLargeError,
                       match="at least 1048576 elements on 6000 points exceed the 256 MiB"):
        build("x".join(["C2"] * 3000))


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
    orders = []

    def closure_refused(chain, f0, t1, gens):
        orders.append(chain.order)
        raise AssertionError(f"enumerated {chain.order} elements")

    monkeypatch.setattr(perm, "_closure", closure_refused)
    with pytest.raises(GroupTooLargeError, match="closure exceeded the cap of 1000000 elements"):
        build("S8xC25")
    assert orders == []



def test_product_checks_a_size_bound_before_building_its_generators(monkeypatch):
    # 3,000 factors C2 have at least 2^3000 elements: no generator of the
    # 6,000-point product may be built, only the factors' own
    degrees = []

    class Counted(perm.Permutation):
        def __init__(self, images):
            super().__init__(images)
            degrees.append(self.degree)

    monkeypatch.setattr(zoo, "Permutation", Counted)
    with pytest.raises(GroupTooLargeError, match="group too large"):
        build("x".join(["C2"] * 3000))
    assert degrees == [2] * 3000

# sha256 of json.dumps([degree, [images of each generator]]) with compact
# separators, recorded when FieldElem multiplied polynomials and reduced them
# modulo the field's modulus; the table arithmetic must reproduce every
# generator permutation
GENERATOR_DIGESTS = {
    "PSL(2,4)": "98a548ec097575d99c26a66ceea1aa7e1fadec460801e11602abdad77a2b3ab0",
    "SL(2,4)": "4126e8e55d08a937a71d20be8895752f5237550e53d4c670ee984175142c2e8c",
    "PSL(2,5)": "15d8bca122f138d283102a19bb875d4b7502270a87777539891312cd6277c7f3",
    "SL(2,5)": "0d2e2e4aaeecfb7c9f27b14f537439e07ccb195ff2f2a9be8b824da63a7d6772",
    "PSL(2,7)": "ce72e5df19801f20c9669384adc8d621c18fa54f2f5e00fa90e8dc347ea7c196",
    "SL(2,7)": "ba68cb5cf5d03d043c00bceddd5e072abb4881a21a8e9fc66135bb3288642307",
    "PSL(2,8)": "292e805f200b6f11d85ecc33746e169ab91ab47ff79741e0ca1cc90516438a6b",
    "SL(2,8)": "bb8321aa7d972fa71a6739ab7d3d9882ef2f2753d3e290dc42e522db7f7643e9",
    "PSL(2,9)": "f3f4f11f165f3a0ba1c02bf2ca618237170fe846b2032f29b7f51f9163211776",
    "SL(2,9)": "54004512f69963ced78c3c3c58788124f05def45d87aa8a41fbaf68fb1c79757",
    "PSL(2,11)": "536de2e02dbb002e5ff4f48c17d4822b1e27fc41c580990ac2b072fe5cf38829",
    "SL(2,11)": "df4d01c91105ab4c05acd5877b6f7e0afeff507b9ae91c2eed1d4a1f7292df17",
    "PSL(2,13)": "18174ee42528a70c4461ca9271052baf3f754f77f23ad362a48eaf157117a7f5",
    "SL(2,13)": "8330371fb7b9de841d49c56c6e5f268c0a53857940747395410750be0bbf9215",
    "PSL(2,16)": "5ee183a42694564bc6b4d76f91890d973ee5da9115a22f386b16ab7a19d4be25",
    "SL(2,16)": "ae58685e7d4f029a63bc8e9ddc864b8f5b0f1e04ba3f5fc9d72a7a9345936af5",
    "PSL(2,17)": "74f9a3c963c0252b19a2bf651ac662e0a5f97214f1b0e26c97a83079bb1424a3",
    "SL(2,17)": "b6dd43169b6ab921506f069c964eb2d79b0b369f753f7b1b09ccd22201c19a59",
    "PSL(2,19)": "248849da659f59627f29347b138ccdc204fe6b64bf70a6e36dc1c71033adf86a",
    "SL(2,19)": "21c05b04408029d19ed35e7e69298964969a073d37fd68ba366768dfbe40aba5",
    "PSL(2,23)": "062a3bdc2269e85a9c2e7997d0869f7a80bc1caa1bb85e765b138ad37a2006ef",
    "SL(2,23)": "75f38b4a3d28a0decd568f166c7fc10065f4065affcf9499a56fcc9fe8fdb245",
    "PSL(2,25)": "e101e38e3c9a05aa5fb54243b1de12f5844a71c93449a99bb0a11d5a169efd30",
    "SL(2,25)": "6344213b0efe6f9e6cc1989cbffd3c00a59c69b8c2a7a7b931ef9bbfc3bd8a74",
    "PSL(2,27)": "605a90e1aef15a7701577ebe7934e6bdce6ee1a57fdb584bc8386edec843cd7d",
    "SL(2,27)": "0b695af1095f4015808a22be76ce411834d04d266fa134f4095140aa24206163",
    "PSL(2,29)": "feefed9ff817cdb65b9ba2d97e85bdd23bc0d3c0dca81774743fc7b6cc3a9371",
    "SL(2,29)": "560f43f59f853cfd494432c58f0118c8d1a6c3620395c3b2c581c906c93803ab",
    "PSL(2,31)": "f820d915333414b8c810ae147b01acd82f1d4b9ff4660713c405eb4e2647afcf",
    "SL(2,31)": "8747104cfc96c2f7518856d424ed7dfd7e16a2d2622f801d7bf2893fd89cd831",
    "PSL(2,32)": "6ed1d31d91b177be8fe26142420c8a88c1073adaecc24252b4e64a446f89faf0",
    "SL(2,32)": "a7ce0f8b18c51a6ec9c10c58837dcc1f7b8fc65f4456e63a8410b328126aa903",
    "Sz(8)": "6ef43972df4a0d6ea00bedc0c85887587b99d65a87083ba5da69cb63719dd691",
}


def _generator_digest(degree, perms, _order):
    # the family's order is not part of the recorded text
    text = json.dumps([degree, [g.images.tolist() for g in perms]], separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_matrix_group_generators_match_their_recorded_digests():
    got = {}
    for q in range(4, 33):
        if len(factorize(q)) == 1:
            got[f"PSL(2,{q})"] = _generator_digest(*psl2(q))
            got[f"SL(2,{q})"] = _generator_digest(*sl2(q))
    got["Sz(8)"] = _generator_digest(*sz(8))
    assert got == GENERATOR_DIGESTS
