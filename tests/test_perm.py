import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from charfield import perm
from charfield.chartab import class_multiplication_coefficients
from charfield.perm import (
    GroupTooLargeError,
    Permutation,
    conjugacy_classes,
    derived_subgroup,
    element_order_spectrum,
    enumerate_group,
    power_map,
    quotient_group,
    schreier_sims,
)
from charfield.verify import EXCLUSIONS, THEOREM_A_F2, THEOREM_A_F3
from charfield.zoo import build, sl2
from test_base_keys import all_rows, inverse_ids, two_level_group
from test_pipeline_random import random_groups


def cycle(degree, *cycles):
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(images)


S3 = enumerate_group(3, [cycle(3, (0, 1)), cycle(3, (0, 1, 2))])
S4 = enumerate_group(4, [cycle(4, (0, 1)), cycle(4, (0, 1, 2, 3))])
A5 = enumerate_group(5, [cycle(5, (0, 1, 2, 3, 4)), cycle(5, (0, 1, 2))])
C4 = enumerate_group(4, [cycle(4, (0, 1, 2, 3))])


def test_enumerate_basic_orders():
    assert C4.order == 4
    assert S3.order == 6
    assert A5.order == 60


def test_identity_is_element_zero():
    assert S4.element(0) == Permutation.identity(4)


def test_invalid_generator_rejected():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        enumerate_group(3, [Permutation([0, 1])])


@pytest.mark.parametrize("images", [[1.5, 0], [True, 0], [1, False], [np.float64(1), 0],
                                    [np.True_, 0], ["1", 0]],
                         ids=["float", "bool", "bool zero", "numpy float", "numpy bool", "str"])
def test_non_integer_images_rejected(images):
    with pytest.raises(ValueError, match="is not an integer"):
        Permutation(images)


def test_numpy_integer_images_accepted():
    for dtype in (np.int32, np.int64, np.uint8):
        p = Permutation(np.array([1, 2, 0], dtype=dtype))
        assert p.images == (1, 2, 0) and all(type(x) is int for x in p.images)


def test_cap_enforced(monkeypatch):
    monkeypatch.setattr(perm, "DEFAULT_CAP", 10)
    with pytest.raises(GroupTooLargeError):
        enumerate_group(5, A5.generators)


def test_conjugacy_classes_c4():
    cd = conjugacy_classes(C4)
    assert cd.k == 4
    assert cd.sizes == (1, 1, 1, 1)
    assert cd.element_orders == (1, 2, 4, 4)


def test_conjugacy_classes_s3():
    cd = conjugacy_classes(S3)
    assert cd.k == 3
    # ordered by (element order, size, smallest id)
    assert cd.element_orders == (1, 2, 3)
    assert cd.sizes == (1, 3, 2)
    assert sum(cd.sizes) == S3.order


def test_class_equation_and_divisibility():
    for g in (S3, S4, A5, C4):
        cd = conjugacy_classes(g)
        assert sum(cd.sizes) == g.order
        assert all(g.order % s == 0 for s in cd.sizes)
        assert cd.class_of[cd.reps[0]] == 0 and cd.element_orders[0] == 1


def test_power_map_small():
    c3 = enumerate_group(3, [cycle(3, (0, 1, 2))])
    cd = conjugacy_classes(c3)
    assert power_map(cd, 1) == (0, 1, 2)
    # squaring swaps the two nontrivial classes (mutual inverses)
    assert cd.power_map(1, 2) == 2 and cd.power_map(2, 2) == 1
    s3 = conjugacy_classes(S3)
    transposition = s3.element_orders.index(2)
    three_cycle = s3.element_orders.index(3)
    # direct computation: t^3 = t for an involution, (abc)^3 = 1
    assert s3.power_map(transposition, 3) == transposition
    assert s3.power_map(transposition, 2) == 0
    assert s3.power_map(three_cycle, 3) == 0


def test_power_map_well_defined():
    rng = random.Random(42)
    for g in (S4, A5):
        cd = conjugacy_classes(g)
        ids_by_class = [[] for _ in range(cd.k)]
        for i in range(g.order):
            ids_by_class[cd.class_of[i]].append(i)
        for _ in range(100):
            c = rng.randrange(cd.k)
            x = rng.choice(ids_by_class[c])
            k = rng.randint(-6, 12)
            # x^k = x^(k mod o(x)), by repeated composition
            xp, y = g.element(x), Permutation.identity(g.degree)
            for _ in range(k % xp.order()):
                y = y * xp
            assert cd.class_of[g.id_of(y)] == cd.power_map(c, k)


def test_order_constant_on_classes():
    cd = conjugacy_classes(S4)
    for i in range(S4.order):
        assert S4.element(i).order() == cd.element_orders[cd.class_of[i]]


def test_element_order_spectrum():
    assert element_order_spectrum(C4) == (2, 4)
    assert element_order_spectrum(A5) == (2, 3, 5)


@pytest.mark.parametrize("spec", ["S4", "S5", "F21", "D18", "C7xC7", "C1"])
def test_classes_against_brute_force_orbits(spec):
    # oracle: the orbit of x under x -> g^-1 x g for every g in G, by
    # composing Permutation objects
    g = build(spec)
    cd = conjugacy_classes(g)
    elements = [g.element(i) for i in range(g.order)]
    ids = {x.images: i for i, x in enumerate(elements)}
    pairs = [(y.inverse(), y) for y in elements]
    for c in range(cd.k):
        x = elements[cd.reps[c]]
        orbit = {ids[(yinv * x * y).images] for yinv, y in pairs}
        assert min(orbit) == cd.reps[c]
        assert len(orbit) == cd.sizes[c]
        assert {int(i) for i in np.flatnonzero(cd.class_of == c)} == orbit


def test_derived_subgroup():
    assert derived_subgroup(C4).order == 1
    d = derived_subgroup(S3)
    assert d.order == 3
    a4 = enumerate_group(4, [cycle(4, (1, 2, 3)), cycle(4, (0, 1, 2))])
    assert derived_subgroup(a4).order == 4  # the Klein four-group


def close_subgroup(group, gen_ids):
    """Oracle: the subgroup generated by gen_ids, closed one product at a time."""
    elems = {0} | set(gen_ids)
    frontier = list(elems - {0})
    gens = sorted(gen_ids)
    maps = {g: group.right_map(g) for g in gens}
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(maps[g][x])
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def test_derived_subgroup_matches_all_commutators():
    # brute-force all-pairs commutator closure on groups of order <= 200
    for g in (S3, S4, C4, A5, build("D18"), build("F52"), build("SL(2,5)")):
        d = derived_subgroup(g)
        inv = inverse_ids(g)
        maps = [g.right_map(y) for y in range(g.order)]
        comm = set()
        for a in range(g.order):
            for b in range(g.order):
                # x*y is maps[y][x]
                comm.add(int(maps[maps[b][a]][maps[inv[b]][inv[a]]]))
        assert close_subgroup(g, comm - {0}) == set(d.element_ids)
        # a short generating list: each generator at least doubles the span
        assert list(d.generator_ids) == sorted(d.generator_ids)
        assert 2 ** len(d.generator_ids) <= d.order
        assert close_subgroup(g, d.generator_ids) == set(d.element_ids)


def test_subgroup_as_group():
    d = derived_subgroup(S4)
    g = d.as_group()
    assert g.order == d.order == 12
    assert all(g.element(i) in S4 for i in range(g.order))


def test_quotient_by_whole_group():
    q = quotient_group(S3, set(range(S3.order)))
    assert q.order == 1


def test_quotient_a4_by_derived():
    a4 = enumerate_group(4, [cycle(4, (1, 2, 3)), cycle(4, (0, 1, 2))])
    q = quotient_group(a4, derived_subgroup(a4))
    assert q.order == 3
    assert element_order_spectrum(q) == (3,)


def test_quotient_d18_by_c3():
    rot = cycle(9, tuple(range(9)))
    refl = Permutation([(9 - i) % 9 for i in range(9)])
    d18 = enumerate_group(9, [rot, refl])
    assert d18.order == 18
    c9 = derived_subgroup(d18)
    assert c9.order == 9
    # order-3 subgroup inside the rotation C9
    n = frozenset(i for i in c9.element_ids if d18.element(i).order() in (1, 3))
    q = quotient_group(d18, n)
    assert q.order == 6
    cd = conjugacy_classes(q)
    assert cd.k == 3 and sorted(cd.sizes) == [1, 2, 3]  # nonabelian: S3


def test_quotient_order_multiplicative():
    for g, sub in ((S4, derived_subgroup(S4)), (S3, derived_subgroup(S3))):
        q = quotient_group(g, sub)
        assert q.order * sub.order == g.order


def test_non_normal_subgroup_rejected():
    # <(0 1)> is not normal in S3
    ids = frozenset({0, S3.id_of(cycle(3, (0, 1)))})
    with pytest.raises(ValueError):
        quotient_group(S3, ids)


THREE_CYCLES = [0, *(S4.id_of(cycle(4, c)) for c in
                     ((0, 1, 2), (0, 2, 1), (0, 1, 3), (0, 3, 1),
                      (0, 2, 3), (0, 3, 2), (1, 2, 3), (1, 3, 2)))]


@pytest.mark.parametrize("ids,message", [
    ({0, -1}, "range"),            # -1 is not an id, though numpy would wrap it
    ({0, 10**6}, "range"),
    # the identity and the eight 3-cycles: a normal set, but they generate A4
    (set(THREE_CYCLES), "not a subgroup: they generate one of order 12"),
    ({0, 1.5}, "element id 1.5 is not an integer"),  # int() would take 1
    ({0, True}, "element id True is not an integer"),  # int() would take 1
])
def test_quotient_rejects_ids_that_are_not_a_subgroup(ids, message):
    with pytest.raises(ValueError, match=message):
        quotient_group(S4, ids)


def test_quotient_by_subgroup_given_as_a_group():
    a4 = enumerate_group(4, [cycle(4, (0, 1, 2)), cycle(4, (1, 2, 3))])
    q = quotient_group(S4, a4)
    assert q.order == 2 and q.degree == 2
    assert q.generators == quotient_group(S4, derived_subgroup(S4)).generators
    with pytest.raises(ValueError, match="different parent"):
        quotient_group(S3, derived_subgroup(S4))
    # on other points, or on the same points but not inside
    for group, normal in ((S4, build("C5")), (C4, S4)):
        with pytest.raises(ValueError, match="is not inside"):
            quotient_group(group, normal)


@pytest.mark.parametrize("z,message", [
    (-1, "element id -1 is not in range\\(6\\)"),  # numpy would wrap it round to id 5
    (6, "element id 6 is not in range\\(6\\)"),
    (2.0, "element id 2.0 is not an integer"),
    (True, "element id True is not an integer"),
    (np.bool_(True), "element id .*True.* is not an integer"),  # its repr varies
])
def test_element_ids_are_checked(z, message):
    g = build("S3")
    for call in (g.element, g.word, g.right_map, lambda z: list(g.right_map_blocks([0, z])),
                 lambda z: g.rows_of([0, z])):
        with pytest.raises(ValueError, match=message):
            call(z)
    # numpy integers are ids
    assert g.element(np.int64(5)) == g.element(5) and g.word(np.int32(5)) == g.word(5)


def test_rows_of_checks_id_arrays():
    # an array's ids are checked one by one, as element checks one
    g = build("S3")
    for ids, message in ((np.array([0, -1]), "element id -1 is not in range\\(6\\)"),
                         (np.array([6], dtype=np.uint8), "element id 6 is not in range\\(6\\)"),
                         (np.array([2.0]), "element id .*2.0.* is not an integer"),
                         (np.array([0, 1], dtype=bool), "element id .*False.* is not an integer")):
        with pytest.raises(ValueError, match=message):
            g.rows_of(ids)
    want = [g.element(z).images for z in (0, 5, 2)]
    for ids in ([0, 5, 2], [np.int64(0), 5, np.uint8(2)], np.array([0, 5, 2], dtype=np.int32),
                np.array([0, 5, 2], dtype=np.uint16)):
        assert [tuple(row) for row in g.rows_of(ids).tolist()] == want
    assert g.rows_of([]).shape == (0, 3)


def test_determinism():
    a = enumerate_group(5, A5.generators)
    b = enumerate_group(5, A5.generators)
    assert np.array_equal(all_rows(a), all_rows(b))
    ca, cb = conjugacy_classes(a), conjugacy_classes(b)
    assert ca.reps == cb.reps and ca.sizes == cb.sizes


def full_row_closure(degree, gens):
    """Oracle: the breadth-first closure deduplicated by whole rows."""
    ident = np.arange(degree, dtype=np.int32)
    rows, seen, frontier = [ident], {ident.tobytes()}, [ident]
    gmat = [np.array(g.images, dtype=np.int32) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gmat:
                row = x[g]
                if row.tobytes() not in seen:
                    seen.add(row.tobytes())
                    rows.append(row)
                    nxt.append(row)
        frontier = nxt
    return np.array(rows, dtype=np.int32)


# SL(2,9) and PSL(2,16): the matrix families over a field of prime-power
# order that is not prime, acting through gf's tables
CHAIN_GROUPS = ["S4", "A5", "F21", "D18", "Sz(8)", "PSL(2,19)", "SL(2,9)", "PSL(2,16)",
                "C7xC7", "S3xC4", "C1", "C2^6 on 4096 points"]


def chain_group(spec):
    return two_level_group() if spec.startswith("C2^6") else build(spec)


@pytest.mark.parametrize("spec", CHAIN_GROUPS)
def test_closure_matches_full_row_search(spec):
    g = chain_group(spec)
    want = full_row_closure(g.degree, g.generators)
    rows = all_rows(g)
    assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()
    chain = schreier_sims(g.degree, g.generators)
    assert chain.base == g.base
    assert math.prod(len(orbit) for orbit in chain.orbits) == len(want) == g.order


# sha256 of _id_of_key, _key_of_id, right, parent and parent_gen laid end
# to end, recorded at 8810b36, when the closure found each frontier's first
# occurrences by sorting
CLOSURE_DIGESTS = {
    "A9": "b89f40ea5238fee6ad33e0c99a0d897ba97750d5065426f553fe2f69082c8a84",
    "SL(2,25)": "fd04aea64402025e01de6de4eeea0382caef11da1aeaaed53b24b3c355abc987",
    "Sz(8)": "dd5986deb263275efe2d1093430d5808672f59cfbe75bbf62953f9b5945bdd9e",
    "PSL(2,19)": "c7d6c68e6ba52fb5b87c973c6113671291a1b16b0fcb3ebc9d176ca50deea199",
}


@pytest.mark.parametrize("spec", CLOSURE_DIGESTS)
def test_closure_arrays_match_their_recorded_digests(spec):
    g = build(spec)
    arrays = (g._id_of_key, g._key_of_id, g.right, g.parent, g.parent_gen)
    assert [a.dtype for a in arrays] == [np.int32] * 4 + [np.uint8]
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    assert digest.hexdigest() == CLOSURE_DIGESTS[spec]


@pytest.mark.parametrize("spec", CHAIN_GROUPS)
def test_chain_against_the_element_table(spec):
    # oracle: Delta_i is the set of images of b_i under the elements fixing
    # b_0..b_(i-1), u[c] is such an element sending b_i to Delta_i[c], and
    # inv[c] is its inverse, kept for every level but the last, which keys
    # never reads
    g = chain_group(spec)
    chain = schreier_sims(g.degree, g.generators)
    table = all_rows(g)
    rows = {row.tobytes() for row in table}
    stab, ident = table, np.arange(g.degree)
    assert len(chain.transversals) == len(chain.base)
    assert len(chain.inv_transversals) == max(len(chain.base) - 1, 0)
    for i, (b, orbit, u) in enumerate(zip(chain.base, chain.orbits, chain.transversals)):
        assert orbit[0] == b and sorted(orbit.tolist()) == sorted(set(stab[:, b].tolist()))
        assert np.array_equal(u[0], ident) and len(u) == len(orbit)
        for c, point in enumerate(orbit):
            assert u[c][b] == point and u[c].tobytes() in rows
            assert all(u[c][p] == p for p in chain.base[:i])
            if i < len(chain.inv_transversals):
                assert np.array_equal(chain.inv_transversals[i][c][u[c]], ident)
        stab = stab[stab[:, b] == b]
    assert len(stab) == 1  # the base's pointwise stabilizer is trivial
    keys = chain.keys(table[:, list(chain.base)])
    assert sorted(keys.tolist()) == list(range(g.order))
    # the group keeps the chain without its forward transversals, which
    # keys never reads, and gets the same keys from it
    assert g.chain.transversals == ()
    assert np.array_equal(g.chain.keys(table[:, list(chain.base)]), keys)


@pytest.mark.parametrize("spec", ["S4", "A5", "Sz(8)", "PSL(2,19)"])
def test_chain_missing_a_strong_generator_is_rejected(spec, monkeypatch):
    g = build(spec)
    add, calls = perm._Level.add, []

    def add_all_but_the_second(level, s):
        calls.append(s)
        if len(calls) != 2:
            add(level, s)

    monkeypatch.setattr(perm._Level, "add", add_all_but_the_second)
    with pytest.raises(ArithmeticError):
        enumerate_group(g.degree, g.generators)


@pytest.mark.parametrize("change,message", [
    ("drop a point", "outside its basic orbit"),
    ("add a point", "the closure has 60 elements, the chain's order is 80"),
])
def test_chain_with_a_wrong_orbit_is_rejected(change, message, monkeypatch):
    # a missing point puts some base image outside the orbit; an extra one
    # makes the order larger than the closure
    g = build("A5")
    sims = perm.schreier_sims

    def wrong_orbit(*args):
        chain = sims(*args)
        orbit, u = chain.orbits[-1], chain.transversals[-1]
        if change == "drop a point":
            orbit, u = orbit[:-1], u[:-1]
        else:
            outside = min(set(range(g.degree)) - set(orbit.tolist()))
            orbit, u = np.append(orbit, outside), np.vstack([u, u[:1]])
        return dataclasses.replace(chain, orbits=(*chain.orbits[:-1], orbit),
                                   transversals=(*chain.transversals[:-1], u))

    monkeypatch.setattr(perm, "schreier_sims", wrong_orbit)
    with pytest.raises(ArithmeticError, match=message):
        enumerate_group(g.degree, g.generators)


def test_chain_stops_at_the_cap(monkeypatch):
    # S9 x C3 has 1,088,640 elements, past the default cap of 10**6
    gens = [cycle(12, (0, 1)), cycle(12, tuple(range(9))), cycle(12, (9, 10, 11))]
    with pytest.raises(GroupTooLargeError, match="exceeded the cap of 1000000 elements"):
        schreier_sims(12, gens)
    monkeypatch.setattr(perm, "DEFAULT_CAP", 1088640)
    assert schreier_sims(12, gens).order == 1088640


def test_tree_edges_are_not_sifted(monkeypatch):
    # SL(2,32) has 6,298 Schreier generators, 1,053 of them tree edges, which
    # are the identity; skipping them leaves the element table unchanged
    generators, sifted, levels = perm._Level.schreier_generators, [], set()

    def counted(level):
        levels.add(level)
        for y in generators(level):
            sifted.append(1)
            yield y

    monkeypatch.setattr(perm._Level, "schreier_generators", counted)
    g = enumerate_group(*sl2(32))  # not build: its cache would skip the count
    assert len(sifted) == 6298 - 1053
    assert hashlib.sha256(all_rows(g).tobytes()).hexdigest() == (
        "76961ccd815a5e206c77178120666f1fb08263eac97752d5b0381b0b68b6b64c")
    # oracle: every skipped pair, written out, is the identity: s u_beta
    # is u_{s(beta)}
    skipped = 0
    for level in levels:
        for c, i in level.tree:
            s = level.gens[i]
            assert np.array_equal(s[level.fwd[c]], level.fwd[level.position[s[level.orbit[c]]]])
            skipped += 1
    assert skipped == 1053


def test_cap_stops_an_orbit_before_its_rows_are_stored(monkeypatch):
    # with a 4,096-byte table limit, a 100-cycle (400 bytes per element)
    # stops at the 11th point of its first orbit, not after the orbit closed
    monkeypatch.setattr(perm, "TABLE_BYTES_LIMIT", 4096)
    with pytest.raises(GroupTooLargeError, match="11 elements on 100 points exceed"):
        schreier_sims(100, [cycle(100, tuple(range(100)))])
    assert schreier_sims(10, [cycle(10, tuple(range(10)))]).order == 10


# and a group that repeats a generator and has the identity among its
# generators
MAP_GROUPS = [*CHAIN_GROUPS, "C3xC2, repeated and identity generators"]


def map_group(spec):
    if spec.startswith("C3xC2"):
        c3 = cycle(6, (0, 1, 2))
        gens = [c3, Permutation.identity(6), c3, cycle(6, (3, 4))]
        return enumerate_group(6, gens)
    return chain_group(spec)


def sifted_coefficients(g, classes):
    """The class coefficients counted by sifting every product w*z through
    the chain, z the class representatives, with x = w^-1 looked up as the
    inverse of w."""
    r, rows = classes.k, all_rows(g)
    a = np.zeros((r, r, r), dtype=np.int64)
    x_class = classes.class_of[inverse_ids(g)]
    for k, z in enumerate(classes.reps):
        wz = g.ids_of_base_images(rows[:, rows[z, list(g.base)]])
        counts = np.bincount(x_class * r + classes.class_of[wz], minlength=r * r)
        a[:, :, k] = counts.reshape(r, r)
    return a


@pytest.mark.parametrize("spec", MAP_GROUPS)
def test_right_maps_and_tree_against_products(spec):
    # oracle: each product x*g_i written out as a full row, found by its bytes
    g = map_group(spec)
    rows = all_rows(g)
    full = {row.tobytes(): i for i, row in enumerate(rows)}
    assert g.right.shape == (len(g.generators), g.order) and g.right.dtype == np.int32
    for i, gen in enumerate(g.generators):
        products = rows[:, list(gen.images)]  # (x*g_i)(p) = x(g_i(p))
        assert g.right[i].tolist() == [full[row.tobytes()] for row in products]
    assert g.parent[0] == 0 and g.parent_gen.dtype == np.uint8
    z = np.arange(1, g.order)
    assert np.all(g.parent[z] < z)
    gens = np.array([gen.images for gen in g.generators], dtype=np.int32)
    for i in range(len(gens)):
        zi = z[g.parent_gen[z] == i]
        assert np.array_equal(rows[g.parent[zi]][:, gens[i]], rows[zi])
    classes = conjugacy_classes(g)
    rng = random.Random(9)
    for z in [*classes.reps, *rng.sample(range(g.order), min(g.order, 20))]:
        product = Permutation.identity(g.degree)
        for i in g.word(z):
            product = product * g.generators[i]
        assert product == g.element(z)


@pytest.mark.parametrize("spec", MAP_GROUPS)
def test_tree_maps_and_mul_against_products(spec):
    # oracle: products and conjugates written out as full rows, found by
    # their bytes; (h*z)(p) = h(z(p)) and (g^-1 x g)(p) = g^-1(x(g(p)))
    g = map_group(spec)
    rows = all_rows(g)
    full = {row.tobytes(): i for i, row in enumerate(rows)}
    rng = random.Random(11)
    hs = [0, g.order - 1, *rng.sample(range(g.order), min(g.order, 6))]
    for h, lmap in zip(hs, perm._left_maps(g, hs)):
        assert lmap.tolist() == [full[row.tobytes()] for row in rows[h][rows]]
    for gen, cmap in zip(g.generators, perm._conjugation_maps(g)):
        ginv = np.array(gen.inverse().images, dtype=np.int32)
        conjugates = ginv[rows[:, list(gen.images)]]
        assert cmap.tolist() == [full[row.tobytes()] for row in conjugates]
    for _ in range(50):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        assert g.right_map(y)[x] == full[rows[x][rows[y]].tobytes()]
    for z in hs:
        assert g.right_map(z).tolist() == [full[row.tobytes()] for row in rows[:, rows[z]]]
    # rows_of at points: one row of points for every id, or one per id
    ids = np.array(hs)
    points = np.array([rng.randrange(g.degree) for _ in range(5)])
    assert np.array_equal(g.rows_of(ids, points), rows[ids][:, points])
    per_id = np.array([[rng.randrange(g.degree) for _ in range(3)] for _ in ids])
    assert np.array_equal(g.rows_of(ids, per_id), np.take_along_axis(rows[ids], per_id, axis=1))


def test_conjugation_maps_sift_no_row(monkeypatch):
    g = build("A5")
    want, classes = perm._conjugation_maps(g), conjugacy_classes(g)
    lookup, sifted = perm.PermGroup.ids_of_base_images, []

    def counted(self, images):
        sifted.append(len(images))
        return lookup(self, images)

    monkeypatch.setattr(perm.PermGroup, "ids_of_base_images", counted)
    assert np.array_equal(perm._conjugation_maps(g), want)
    assert np.array_equal(conjugacy_classes(g).class_of, classes.class_of)
    assert sifted == []


@pytest.mark.parametrize("spec", MAP_GROUPS)
def test_coefficients_against_sifted_products(spec):
    g = map_group(spec)
    classes = conjugacy_classes(g)
    want = sifted_coefficients(g, classes)
    assert np.array_equal(class_multiplication_coefficients(g, classes), want)
    rng = random.Random(10)
    members = [np.flatnonzero(classes.class_of == c).tolist() for c in range(classes.k)]
    for _ in range(2):
        # a member other than the smallest wherever the class has one
        moved = dataclasses.replace(classes, reps=tuple(rng.choice(ids[1:] or ids)
                                                        for ids in members))
        assert [z != rep for z, rep in zip(moved.reps, classes.reps)] == [
            s > 1 for s in classes.sizes]
        got = class_multiplication_coefficients(g, moved)
        assert np.array_equal(got, sifted_coefficients(g, moved))
        assert np.array_equal(got, want)


def test_coefficients_sift_no_product(monkeypatch):
    g = build("A5")
    classes = conjugacy_classes(g)
    want = class_multiplication_coefficients(g, classes)

    def refused(self, *images):
        raise AssertionError("a product was sifted")

    monkeypatch.setattr(perm.PermGroup, "ids_of_base_images", refused)
    assert np.array_equal(class_multiplication_coefficients(g, classes), want)


def composed_right_map(g, z):
    """right_map(z) composed word by word, one |G|-long gather per letter."""
    xz = np.arange(g.order, dtype=np.int32)
    for a in g.word(z):
        xz = g.right[a][xz]
    return xz


def blocks_laid_out(g, zs, block):
    """right_map_blocks(zs) laid end to end, one row per position of zs,
    checking that each (position, block) comes exactly once, int32."""
    out = np.full((len(zs), g.order), -1, dtype=np.int64)
    seen = []
    for j, lo, xz in g.right_map_blocks(zs):
        assert xz.dtype == np.int32 and len(xz) == min(block, g.order - lo)
        out[j, lo:lo + len(xz)] = xz
        seen.append((j, lo))
    assert sorted(seen) == [(j, lo) for j in range(len(zs)) for lo in range(0, g.order, block)]
    return out


@pytest.mark.parametrize("spec", MAP_GROUPS)
def test_right_map_blocks_against_words_in_ragged_blocks(spec, monkeypatch):
    g = map_group(spec)
    # the deepest id and its ancestors: each word a prefix of the next
    chain = [g.order - 1]
    while chain[-1]:
        chain.append(int(g.parent[chain[-1]]))
    rng = random.Random(12)
    zs = [0, *chain, chain[0], 0, *rng.sample(range(g.order), min(g.order, 8))]
    want = [composed_right_map(g, z) for z in zs]
    monkeypatch.setattr(perm, "SIFT_BLOCK", 7)  # the last block is ragged unless 7 | |G|
    assert np.array_equal(blocks_laid_out(g, zs, 7), want)
    for z, xz in zip(zs[:3], want):
        got = g.right_map(z)
        assert got.dtype == np.int32 and np.array_equal(got, xz)


def test_right_map_blocks_of_the_trivial_group(monkeypatch):
    g = enumerate_group(3, [])
    monkeypatch.setattr(perm, "SIFT_BLOCK", 7)
    assert blocks_laid_out(g, [0, 0], 7).tolist() == [[0], [0]]
    assert g.right_map(0).dtype == np.int32 and g.right_map(0).tolist() == [0]
    assert list(g.right_map_blocks([])) == []


def test_coefficients_in_ragged_blocks_against_sifted_products(monkeypatch):
    corpus = sorted({c.spec for c in THEOREM_A_F2 + THEOREM_A_F3 + EXCLUSIONS})
    groups = [(g, conjugacy_classes(g)) for g in map(build, corpus)]
    for degree, seed in ((6, 101), (7, 202)):
        groups += random_groups(seed, 4, degree)
    want = [sifted_coefficients(g, classes) for g, classes in groups]
    monkeypatch.setattr(perm, "SIFT_BLOCK", 7)
    for (g, classes), a in zip(groups, want):
        assert np.array_equal(class_multiplication_coefficients(g, classes), a), g


def test_many_generators_widen_the_parent_tree():
    # 300 generators, 299 of them repeats, need two bytes per tree label
    gens = [cycle(4, (0, 1, 2, 3))] * 299 + [cycle(4, (0, 1))]
    g = enumerate_group(4, gens)
    assert g.order == 24 and g.parent_gen.dtype == np.uint16
    assert g.right.shape == (300, 24) and set(g.parent_gen.tolist()) == {0, 299}
    for z in range(1, g.order):
        assert g.element(int(g.parent[z])) * gens[g.parent_gen[z]] == g.element(z)
