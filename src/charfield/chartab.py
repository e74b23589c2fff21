"""Exact character tables by the Dixon-Schneider modular method.

Pipeline: pick the smallest prime p ≡ 1 (mod exponent) with p > 2*sqrt(|G|)
(then every eigenvalue computation splits completely over GF(p) and p does
not divide |G|); split the common eigenspaces of the class-multiplication
matrices until one-dimensional; normalize each eigenvector at the identity
class and recover the degree by the unique integer square root below
sqrt(|G|) < p/2; lift each modular value back to an exact sum of roots of
unity by counting eigenvalue multiplicities with a discrete Fourier sum
over GF(p).

Rows are sorted by (degree, lexicographic value order), so the exact table
is independent of the prime and of any scheduling.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import modp
from .arith import element_of_order, is_prime, next_prime_in_progression, prime_factors, units
from .cyclo import Cyclo, conjugate, cyclo_from_root_counts, galois
from .perm import ClassData, PermGroup, conjugacy_classes

MAX_CLASSES = 64
PRIME_SEARCH_LIMIT = 10**8


class ComputationError(RuntimeError):
    """Character table pipeline failure (no prime, splitting stuck, ...)."""


def exponent(classes: ClassData) -> int:
    """lcm of the element orders; all character values live in Q_exponent."""
    return math.lcm(*classes.element_orders)


def admissible_prime(order: int, e: int, after: int | None = None) -> int:
    """Smallest usable Dixon prime, or the next one after a given prime."""
    start = max(math.isqrt(4 * order), after or 0)
    try:
        return next_prime_in_progression(e, start, PRIME_SEARCH_LIMIT)
    except ValueError as exc:
        raise ComputationError(str(exc)) from None


def class_multiplication_coefficients(group: PermGroup, classes: ClassData,
                                      z_choice: dict[int, int] | None = None) -> np.ndarray:
    """a[i][j][k] = #{x in C_i : x^-1 z in C_j} for a fixed z in C_k.

    The count is independent of the chosen z; z_choice (class -> element id)
    exists so tests can verify that.
    """
    r = classes.k
    a = np.zeros((r, r, r), dtype=np.int64)
    class_of = classes.class_of
    # count over w = x^-1, which runs through G as x does: then x^-1 z = wz,
    # and (wz)(b) = w(z(b)) needs only the columns z(b) of the table
    x_class = class_of[group.inv_ids]
    for k in range(r):
        z_id = classes.reps[k] if z_choice is None else z_choice[k]
        z_base = group.rows[z_id, list(group.base)]
        y_ids = group.ids_of_base_images(group.rows[:, z_base])
        counts = np.bincount(x_class * r + class_of[y_ids], minlength=r * r)
        a[:, :, k] = counts.reshape(r, r)
    return a


@dataclass(eq=False)
class CharacterTable:
    group: PermGroup
    classes: ClassData
    exponent: int
    degrees: tuple[int, ...]
    values: tuple[tuple[Cyclo, ...], ...]
    prime: int
    # per row, per class: multiplicities of the o(g)-th roots of unity
    root_counts: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def k(self) -> int:
        return self.classes.k

    @functools.cached_property
    def galois_action(self) -> dict[int, tuple[int, ...]] | None:
        """act[k][i] is the index of the row sigma_k(chi_i), for every unit k
        mod the exponent; None when some image is not a row.

        galois runs only for a unit k outside the subgroup H reached so far;
        as sigma_ab = sigma_a sigma_b, the cosets H k^j are filled in by
        composing index tuples.  A finite row set closed under every tested
        k is closed under the group they generate, which the loop ends at:
        so None means exactly that the rows are not Galois-closed.
        """
        e = self.exponent
        # a repeated row maps to the index of its last copy, here and below
        index = {row: i for i, row in enumerate(self.values)}
        act = {1: tuple(index[row] for row in self.values)}
        for k in units(e):
            if k in act:
                continue
            gen = tuple(index.get(tuple(galois(v, k) for v in row), -1) for row in self.values)
            if -1 in gen:
                return None
            subgroup, step, kj = list(act.items()), gen, k
            while kj not in act:
                for h, perm in subgroup:
                    act[h * kj % e] = tuple(step[x] for x in perm)
                step, kj = tuple(gen[x] for x in step), kj * k % e
        return act

    def to_obj(self, name: str = "") -> dict:
        # the working prime stays off the wire: the exact table is
        # prime-independent and the serialized form compares byte-for-byte
        return {
            "group": name,
            "order": self.group.order,
            "classes": [{"size": s, "order": o}
                        for s, o in zip(self.classes.sizes, self.classes.element_orders)],
            "exponent": self.exponent,
            "irreducibles": [
                {"degree": d, "values": [v.to_obj() for v in row]}
                for d, row in zip(self.degrees, self.values)
            ],
        }


def _split_eigenspaces(mats: list[np.ndarray], p: int, r: int) -> list[list[int]]:
    """Common one-dimensional eigenspaces of the commuting family, as vectors.

    Each space B (full column rank) is M-invariant, so MB = BA for a unique
    A; then A = B_S^-1 (MB)_S for every row set S with B_S invertible, and
    which independent rows pivot_rows picks does not change A.
    """
    spaces = [np.eye(r, dtype=np.int64)]
    for M in mats:
        if all(s.shape[1] == 1 for s in spaces):
            break
        nxt = []
        for B in spaces:
            d = B.shape[1]
            if d == 1:
                nxt.append(B)
                continue
            MB = (M @ B) % p
            piv = modp.pivot_rows(B.tolist(), p)
            Bp_inv = modp.mat_inv([B[i].tolist() for i in piv], p)
            A = modp.mat_mul(Bp_inv, [MB[i].tolist() for i in piv], p)
            roots = modp.distinct_roots(modp.charpoly(A, p), p)
            found = 0
            for lam in roots:
                shifted = [[(x - (lam if i == j else 0)) % p for j, x in enumerate(row)]
                           for i, row in enumerate(A)]
                basis = modp.nullspace(shifted, p)
                if not basis:
                    continue
                N = np.array(basis, dtype=np.int64).T
                nxt.append((B @ N) % p)
                found += N.shape[1]
            if found != d:  # pragma: no cover - commuting semisimple family
                raise ComputationError("eigenspace splitting lost dimensions")
        spaces = nxt
    if any(s.shape[1] != 1 for s in spaces):  # pragma: no cover
        raise ComputationError("eigenspace splitting did not reach dimension one")
    return [s[:, 0].tolist() for s in spaces]


def dixon_table(group: PermGroup, classes: ClassData | None = None,
                prime: int | None = None) -> CharacterTable:
    """The full exact character table."""
    if classes is None:
        classes = conjugacy_classes(group)
    r = classes.k
    if r > MAX_CLASSES:
        raise ComputationError(f"{r} classes exceeds the supported maximum of {MAX_CLASSES}")
    e = exponent(classes)
    n = group.order
    if prime is None:
        p = admissible_prime(n, e)
    else:
        p = prime
        if (p - 1) % e or p * p <= 4 * n or not is_prime(p):
            raise ComputationError(f"{p} is not an admissible prime for this group")
    coeffs = class_multiplication_coefficients(group, classes)
    mats = [coeffs[i] % p for i in range(1, r)]
    vectors = _split_eigenspaces(mats, p, r)

    sizes = classes.sizes
    inv_class = [classes.inverse_class(i) for i in range(r)]
    size_inv = [pow(s, -1, p) for s in sizes]
    try:
        theta = element_of_order(e, p)
    except ValueError as exc:
        raise ComputationError(str(exc)) from None
    isqrt_n = math.isqrt(n)

    rows = []
    for v in vectors:
        if v[0] == 0:  # pragma: no cover - identity coordinate of omega is 1
            raise ComputationError("eigenvector vanishes at the identity class")
        w = [x * pow(v[0], -1, p) % p for x in v]
        s = sum(w[i] * w[inv_class[i]] * size_inv[i] for i in range(r)) % p
        target = n * pow(s, -1, p) % p
        deg = next((d for d in range(1, isqrt_n + 1) if d * d % p == target), None)
        if deg is None:  # pragma: no cover
            raise ComputationError("no integer degree matches the eigenvalue vector")
        chi_p = [deg * w[i] * size_inv[i] % p for i in range(r)]
        values, counts = [], []
        for j in range(r):
            o = classes.element_orders[j]
            theta_o = pow(theta, e // o, p)
            theta_o_inv = pow(theta_o, -1, p)
            o_inv = pow(o, -1, p)
            pm = [classes.power_map(j, t) for t in range(o)]
            m = []
            for d in range(o):
                td = pow(theta_o_inv, d, p)
                acc, f = 0, 1
                for t in range(o):
                    acc = (acc + chi_p[pm[t]] * f) % p
                    f = f * td % p
                m.append(acc * o_inv % p)
            if sum(m) != deg:  # pragma: no cover - certifies the lift
                raise ComputationError("root-of-unity multiplicities do not sum to the degree")
            counts.append(tuple(m))
            values.append(cyclo_from_root_counts(o, m))
        rows.append((deg, tuple(values), tuple(counts)))

    rows.sort(key=lambda row: (row[0], tuple(v.sort_key() for v in row[1])))
    table = CharacterTable(
        group=group,
        classes=classes,
        exponent=e,
        degrees=tuple(row[0] for row in rows),
        values=tuple(row[1] for row in rows),
        prime=p,
        root_counts=tuple(row[2] for row in rows),
    )
    if sum(d * d for d in table.degrees) != n:  # pragma: no cover
        raise ComputationError("degree squares do not sum to the group order")
    return table



def is_abelian(group: PermGroup) -> bool:
    gens = group.generators
    return all((a * b).images == (b * a).images for a in gens for b in gens)


def abelian_character_table(group: PermGroup,
                            classes: ClassData | None = None) -> CharacterTable:
    """Independent oracle: the dual-group construction for abelian groups.

    Decomposes the group into cyclic factors by repeatedly taking an element
    of maximal order, then writes every character as a product of roots of
    unity.  Rows use the same canonical ordering as dixon_table, so for an
    abelian group the two tables must be identical.
    """
    if not is_abelian(group):
        raise ValueError("dual-group construction needs an abelian group")
    if classes is None:
        classes = conjugacy_classes(group)
    n = group.order
    # element orders are constant on classes
    orders = [classes.element_orders[c] for c in classes.class_of]

    # cyclic basis: an element of maximal order whose cyclic subgroup meets
    # the current span trivially generates a direct summand, so the greedy
    # pick below always yields G = C_{e1} x ... x C_{et}
    def cyclic_powers(i):
        powers, x = [0], i
        while x != 0:
            powers.append(x)
            x = group.mul(x, i)
        return powers

    basis: list[int] = []
    basis_orders: list[int] = []
    span = {0}
    while len(span) < n:
        cand = max((i for i in range(n)
                    if i not in span and all(x == 0 or x not in span for x in cyclic_powers(i))),
                   key=lambda i: (orders[i], -i))
        basis.append(cand)
        basis_orders.append(orders[cand])
        span = {group.mul(a, b) for a in span for b in cyclic_powers(cand)}
    # exponent vector of every element over the basis
    coords = {0: tuple([0] * len(basis))}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for bi, b in enumerate(basis):
                y = group.mul(x, b)
                if y not in coords:
                    vec = list(coords[x])
                    vec[bi] = (vec[bi] + 1) % basis_orders[bi]
                    coords[y] = tuple(vec)
                    nxt.append(y)
        frontier = nxt
    if len(coords) != n or math.prod(basis_orders) != n:  # pragma: no cover
        raise ArithmeticError("cyclic decomposition failed")

    e = exponent(classes)
    rows = []
    import itertools

    for char_vec in itertools.product(*(range(o) for o in basis_orders)):
        values, counts = [], []
        for j in range(classes.k):
            a = coords[classes.reps[j]]
            o = classes.element_orders[j]
            expo = sum(c * ai * (e // oi) for c, ai, oi in zip(char_vec, a, basis_orders)) % e
            # the value zeta_e^expo lies in Q_o; re-express it there
            expo_o = expo * o // e
            assert expo_o * (e // o) == expo, "value escapes Q_o(g)"
            m = [0] * o
            m[expo_o] = 1
            counts.append(tuple(m))
            values.append(cyclo_from_root_counts(o, m))
        rows.append((1, tuple(values), tuple(counts)))
    rows.sort(key=lambda row: (row[0], tuple(v.sort_key() for v in row[1])))
    return CharacterTable(
        group=group,
        classes=classes,
        exponent=e,
        degrees=tuple(r[0] for r in rows),
        values=tuple(r[1] for r in rows),
        prime=0,
        root_counts=tuple(r[2] for r in rows),
    )


# -- validation --------------------------------------------------------------


@dataclass
class TableValidation:
    degree_sum: bool
    row_orthogonality: bool
    column_orthogonality: bool
    first_column: bool
    galois_closure: bool
    integrality: bool
    failures: list[str]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def _component_sum_is(terms: list[Cyclo], expected: Fraction) -> bool:
    """Exact test: sum(terms) == expected, bucketing by coprime conductor parts.

    A sum of values from cyclotomic fields with pairwise coprime conductors
    is rational iff every bucket sum is rational (Q_a ∩ Q_b = Q_gcd(a,b)),
    which keeps all arithmetic at small conductors.
    """
    # union-find over the primes of each conductor
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for t in terms:
        ps = prime_factors(t.n)
        for q in ps:
            parent.setdefault(q, q)
        for a, b in zip(ps, ps[1:]):
            union(a, b)
    buckets: dict[int, Cyclo] = {}
    rational = Fraction(0)
    for t in terms:
        if t.n == 1:
            rational += t.rational_value()
            continue
        root = find(prime_factors(t.n)[0])
        buckets[root] = buckets.get(root, Cyclo.from_rational(0)) + t
    for part in buckets.values():
        if not part.is_rational():
            return False
        rational += part.rational_value()
    return rational == expected


def validate_table(table: CharacterTable) -> TableValidation:
    """All six exactness checks; every downstream claim leans on these."""
    failures: list[str] = []
    classes = table.classes
    n = table.group.order
    r = classes.k
    values = table.values

    degree_sum = sum(d * d for d in table.degrees) == n and len(values) == r
    if not degree_sum:
        failures.append("degree squares do not sum to the group order")

    row_orth = True
    for i in range(r):
        for j in range(i, r):
            terms = [classes.sizes[t] * values[i][t] * conjugate(values[j][t])
                     for t in range(r)]
            want = Fraction(n if i == j else 0)
            if not _component_sum_is(terms, want):
                row_orth = False
    if not row_orth:
        failures.append("row orthogonality fails")

    col_orth = True
    for s in range(r):
        for t in range(s, r):
            terms = [values[i][s] * conjugate(values[i][t]) for i in range(r)]
            want = Fraction(n, classes.sizes[s]) if s == t else Fraction(0)
            if not _component_sum_is(terms, want):
                col_orth = False
    if not col_orth:
        failures.append("column orthogonality fails")

    first_col = all(values[i][0] == table.degrees[i] and table.degrees[i] >= 1
                    for i in range(len(values)))
    if not first_col:
        failures.append("first column does not list positive integer degrees")

    closure = table.galois_action is not None
    if not closure:
        failures.append("row set is not closed under the Galois action")

    integral = all(v.is_integral() and table.exponent % v.n == 0
                   for row in values for v in row)
    if table.root_counts:
        for row, crow, deg in zip(values, table.root_counts, table.degrees):
            for v, m, o in zip(row, crow, classes.element_orders):
                if len(m) != o or any(x < 0 or x > deg for x in m) or \
                        cyclo_from_root_counts(o, m) != v:
                    integral = False
    if not integral:
        failures.append("values are not certified algebraic integers")

    return TableValidation(
        degree_sum=degree_sum,
        row_orthogonality=row_orth,
        column_orthogonality=col_orth,
        first_column=first_col,
        galois_closure=closure,
        integrality=integral,
        failures=failures,
    )
