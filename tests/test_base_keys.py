"""Element ids from base images, checked against full-row matching."""

import itertools

import numpy as np
import pytest

from charfield import perm
from charfield.chartab import abelian_character_table, dixon_table
from charfield.perm import Permutation, conjugacy_classes, enumerate_group
from charfield.zoo import build


def all_rows(group):
    """Every element's row, in id order."""
    return group.rows_of(np.arange(group.order))


def row_index(group):
    """Brute-force oracle: element id by its whole row."""
    return {row.tobytes(): i for i, row in enumerate(all_rows(group))}


def inverse_ids(group):
    """Oracle: the id of each element's inverse, its whole row inverted by
    argsort and found by its bytes."""
    full = row_index(group)
    return [full[r.tobytes()] for r in np.argsort(all_rows(group), axis=1).astype(np.int32)]


@pytest.mark.parametrize("spec", ["S4", "A5", "F21", "Sz(8)"])
def test_base_images_match_full_rows(spec):
    g = build(spec)
    full, rows = row_index(g), all_rows(g)
    # pointwise stabilizer of the base is trivial
    assert np.all(rows[:, list(g.base)] == g.base, axis=1).sum() == 1
    inv_rows = np.argsort(rows, axis=1).astype(np.int32)
    for z in conjugacy_classes(g).reps:
        prods = inv_rows[:, rows[z]]  # x^-1 z for every x, whole rows
        want = [full[r.tobytes()] for r in prods]
        assert g.ids_of_base_images(prods[:, list(g.base)]).tolist() == want


@pytest.mark.parametrize("spec", ["S4", "A5", "F21"])
def test_mul_matches_composition(spec):
    g = build(spec)
    full, rows = row_index(g), all_rows(g)
    for y in range(g.order):
        xy = g.right_map(y)
        for x in range(g.order):
            assert xy[x] == full[rows[x][rows[y]].tobytes()]


def two_level_group():
    # six disjoint transpositions on 4096 points: a 6-point base on a wide
    # degree, where 4096**6 = 2**72 base-image tuples would overflow int64
    degree = 4096
    gens = []
    for i in range(6):
        images = list(range(degree))
        images[2 * i], images[2 * i + 1] = 2 * i + 1, 2 * i
        gens.append(Permutation(images))
    return enumerate_group(degree, gens)


def test_lookup_on_4096_points():
    g = two_level_group()
    assert g.order == 64 and g.base == (0, 2, 4, 6, 8, 10)
    assert g.ids_of_base_images(all_rows(g)[:, list(g.base)]).tolist() == list(range(64))
    assert all(g.id_of(g.element(i)) == i for i in range(64))
    assert [g.right_map(inv)[i] for i, inv in enumerate(inverse_ids(g))] == [0] * 64
    classes = conjugacy_classes(g)
    assert classes.k == 64
    t, dual = dixon_table(g, classes), abelian_character_table(g, classes)
    assert (t.values, t.root_counts) == (dual.values, dual.root_counts)


def test_membership_compares_whole_rows():
    g = enumerate_group(5, [Permutation([1, 2, 0, 3, 4])])  # <(0 1 2)>
    assert g.base == (0,)
    outsider = Permutation([1, 2, 0, 4, 3])  # (0 1 2)(3 4)
    # it has the base image of (0 1 2), which is in G
    assert Permutation([1, 2, 0, 3, 4]) in g
    assert outsider not in g
    assert Permutation([3, 1, 2, 0, 4]) not in g  # no element sends 0 to 3
    with pytest.raises(KeyError):
        g.id_of(outsider)
    assert Permutation([0, 1, 2, 3]) not in g  # wrong degree
    with pytest.raises(KeyError):
        g.ids_of_base_images([[3]])  # no element sends 0 to 3


@pytest.mark.parametrize("spec", ["S4", "F21", "D18", "PSL(2,7)"])
def test_lookup_misses_exactly(spec):
    # every tuple of points, and of -1 and degree, which are not points: a
    # miss at any base point raises KeyError, and a hit names the row with
    # those base images
    g = build(spec)
    ids = {tuple(row): i for i, row in enumerate(all_rows(g)[:, list(g.base)].tolist())}
    hits = 0
    for t in itertools.product(range(-1, g.degree + 1), repeat=len(g.base)):
        if t in ids:
            assert g.ids_of_base_images([t]).tolist() == [ids[t]]
            hits += 1
        else:
            with pytest.raises(KeyError):
                g.ids_of_base_images([t])
    assert hits == g.order


def test_lookup_across_sift_blocks():
    g = build("A5")
    images = all_rows(g)[:, list(g.base)]
    one_by_one = [int(g.ids_of_base_images([t])[0]) for t in images]
    tiles = perm.SIFT_BLOCK // g.order + 2
    assert len(images) * tiles > perm.SIFT_BLOCK
    assert g.ids_of_base_images(np.tile(images, (tiles, 1))).tolist() == one_by_one * tiles
    assert g.ids_of_base_images(np.empty((0, len(g.base)), dtype=np.int32)).tolist() == []
    trivial = enumerate_group(3, [])
    assert trivial.ids_of_base_images(np.empty((5, 0), dtype=np.int32)).tolist() == [0] * 5
    assert trivial.ids_of_base_images(np.empty((0, 0), dtype=np.int32)).tolist() == []


def test_trivial_group_has_empty_base():
    g = enumerate_group(3, [])
    assert g.base == () and g.id_of(Permutation([0, 1, 2])) == 0
    assert g.right_map(0)[0] == 0


@pytest.mark.parametrize("spec", ["S4", "A5", "F21", "Sz(8)", "C2^6 on 4096 points", "C1"])
def test_power_map_matches_repeated_products(spec):
    g = two_level_group() if spec.startswith("C2^6") else build(spec)
    classes = conjugacy_classes(g)
    for i, rep in enumerate(classes.reps):
        x, o = g.element(rep), classes.element_orders[i]
        assert x.order() == o
        power = Permutation.identity(g.degree)
        for t in range(2 * o + 1):
            want = int(classes.class_of[g.id_of(power)])
            assert classes.power_map(i, t) == classes.power_map(i, t - 2 * o) == want
            power = power * x
