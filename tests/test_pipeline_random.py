"""End-to-end property test on random small groups.

Random two-generator subgroups of S6/S7 exercise the whole pipeline far
off the fixture corpus: enumeration, classes, Dixon table, the six exact
validation checks, field buckets, and the two independent field-degree
computations (which field_of_values cross-checks internally).
"""

import random

from charfield.chartab import dixon_table, validate_table
from charfield.fov import f_value
from charfield.perm import Permutation, conjugacy_classes, enumerate_group


def random_groups(seed, count, degree, max_order=400, max_classes=20):
    rng = random.Random(seed)
    seen = set()
    out = []
    while len(out) < count:
        a = list(range(degree))
        b = list(range(degree))
        rng.shuffle(a)
        rng.shuffle(b)
        g = enumerate_group(degree, [Permutation(a), Permutation(b)])
        cd = conjugacy_classes(g)
        if g.order > max_order or cd.k > max_classes or g.order in seen:
            continue
        seen.add(g.order)
        out.append((g, cd))
    return out


def test_random_groups_full_pipeline():
    for degree, seed in ((6, 101), (7, 202)):
        for g, cd in random_groups(seed, 4, degree):
            t = dixon_table(g, cd)
            rep = validate_table(t)
            assert rep.all_ok, (g.order, rep.failures)
            fr = f_value(t, f"random-{g.order}")
            assert sum(len(rows) for _, rows in fr.buckets) == cd.k
            assert fr.f >= 1 and fr.max_degree >= 1
            # class equation and size divisibility hold as well
            assert sum(cd.sizes) == g.order
            assert all(g.order % s == 0 for s in cd.sizes)
