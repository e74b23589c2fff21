"""Exact character tables by the Dixon-Schneider modular method.

Pipeline: pick the smallest prime p ≡ 1 (mod exponent) with p > 2*sqrt(|G|)
(then every eigenvalue computation splits completely over GF(p) and p does
not divide |G|); split the common eigenspaces of the class-multiplication
matrices until one-dimensional; normalize each eigenvector at the identity
class and recover the degree by the unique integer square root below
sqrt(|G|) < p/2; lift each modular value back to an exact sum of roots of
unity by counting eigenvalue multiplicities with a discrete Fourier sum
over GF(p), one numpy product per class (modp.evaluate).

Rows are sorted by (degree, lexicographic value order), so the exact table
is independent of the prime and of any scheduling.

validate_table goes the other way through modp.evaluate: orthogonality is
certified by the exact values' images mod a few primes (_orthogonality).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import modp
from .arith import element_of_order, is_prime, next_prime_in_progression, units
from .cyclo import Cyclo, cyclo_from_root_counts, galois, root_of_unity
from .perm import ClassData, PermGroup, conjugacy_classes, power_map

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


def class_multiplication_coefficients(group: PermGroup, classes: ClassData) -> np.ndarray:
    """a[i][j][k] = #{x in C_i : x^-1 z in C_j} for z = classes.reps[k]; the
    count is the same for every z in C_k.

    The count runs over w = x^-1, which runs through G as x does; then
    x^-1 z = w z.  x lies in C_i exactly when w lies in the inverse class
    of C_i, as (g^-1 w g)^-1 = g^-1 w^-1 g: so the class of x is the
    inverse class of class_of[w] (power_map(classes, -1)), and no inverse
    is looked up.

    The ids of w z come from PermGroup.right_map_blocks, one walk of the
    subtree of the breadth-first tree that the representatives span, over
    blocks of SIFT_BLOCK ids w, and no product is sifted.  At each
    representative the block's pairs (class of x, class of w z) are counted
    and added into a[:, :, k]: the blocks split G into disjoint sets of w,
    so the integer sums over them are the counts over G.  No map of all of
    G is held, only block-sized ones.
    """
    r = classes.k
    a = np.zeros((r, r, r), dtype=np.int64)
    class_of = classes.class_of
    x_class = (np.array(power_map(classes, -1), dtype=np.int32) * r).take(class_of)
    for k, lo, wz in group.right_map_blocks(classes.reps):
        pair = class_of.take(wz)
        pair += x_class[lo:lo + len(wz)]
        a[:, :, k] += np.bincount(pair, minlength=r * r).reshape(r, r)
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

        galois runs only for a unit k outside the subgroup H reached so far,
        and once per distinct value, as entries repeat (Frob(181,3): 3,969
        entries, 65 values); as sigma_ab = sigma_a sigma_b, the cosets H k^j
        are filled in by composing index tuples.  A finite row set closed
        under every tested k is closed under the group they generate, which
        the loop ends at: so None means exactly that the rows are not
        Galois-closed.
        """
        e = self.exponent
        # a repeated row maps to the index of its last copy, here and below
        index = {row: i for i, row in enumerate(self.values)}
        act = {1: tuple(index[row] for row in self.values)}
        distinct = set().union(*self.values)
        for k in units(e):
            if k in act:
                continue
            image = {v: galois(v, k) for v in distinct}
            gen = tuple(index.get(tuple(map(image.__getitem__, row)), -1) for row in self.values)
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

    Each space B (r x d, full column rank) is M-invariant, so MB = BA for a
    unique d x d matrix A.  [B | MB] = B [I | A] has the row space of
    [I | A], as B has a left inverse; [I | A] is in reduced row echelon
    form, which is unique, so rref([B | MB]) starts with the rows [I | A].
    Each root lam of A's characteristic polynomial splits off B N^T, N the
    nullspace of A - lam I (not empty, as A - lam I is singular).  M @ B and
    B @ N^T sum at most 64 products below p^2 <= 10^16, so int64 holds them.
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
            A = modp.rref(np.hstack([B, M @ B % p]), p)[0][:d, d:]
            eye = np.eye(d, dtype=np.int64)
            if (A == A[0, 0] * eye).all():  # one root, whose N is I: B stays whole
                nxt.append(B)
                continue
            roots = modp.distinct_roots(modp.charpoly(A, p), p)
            found = 0
            for lam in roots:
                N = modp.nullspace((A - lam * eye) % p, p)
                nxt.append(B @ N.T % p)
                found += len(N)
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
        if (p - 1) % e or p * p <= 4 * n or p > PRIME_SEARCH_LIMIT or not is_prime(p):
            raise ComputationError(f"{p} is not an admissible prime for this group")
    coeffs = class_multiplication_coefficients(group, classes)
    mats = [coeffs[i] % p for i in range(1, r)]
    vectors = _split_eigenspaces(mats, p, r)

    sizes = classes.sizes
    inv_class = power_map(classes, -1)
    size_inv = [pow(s, -1, p) for s in sizes]
    try:
        theta = element_of_order(e, p)
    except ValueError as exc:
        raise ComputationError(str(exc)) from None
    isqrt_n = math.isqrt(n)

    degrees, chi = [], []
    for v in vectors:
        if v[0] == 0:  # pragma: no cover - identity coordinate of omega is 1
            raise ComputationError("eigenvector vanishes at the identity class")
        w = [x * pow(v[0], -1, p) % p for x in v]
        s = sum(w[i] * w[inv_class[i]] * size_inv[i] for i in range(r)) % p
        target = n * pow(s, -1, p) % p
        deg = next((d for d in range(1, isqrt_n + 1) if d * d % p == target), None)
        if deg is None:  # pragma: no cover
            raise ComputationError("no integer degree matches the eigenvalue vector")
        degrees.append(deg)
        chi.append([deg * w[i] * size_inv[i] % p for i in range(r)])
    # per class j of order o, the lift of every row at once: the inverse DFT
    # m_d = (1/o) sum_t chi(g^t) theta_o^(-dt) of the values along the powers
    chi_p = np.array(chi, dtype=np.int64)
    counts = [(modp.evaluate(chi_p[:, list(classes.powers[j])], pow(theta, e - e // o, p), o,
                             range(o), p) * pow(o, -1, p) % p).tolist()
              for j, o in enumerate(classes.element_orders)]
    # entries repeat their count vectors (SL(2,25): 841 entries, 127 vectors),
    # so each distinct vector is lifted once
    lifts: dict[tuple[int, ...], Cyclo] = {}
    rows = []
    for i, deg in enumerate(degrees):
        row_counts = tuple(tuple(counts[j][i]) for j in range(r))
        if any(sum(m) != deg for m in row_counts):  # pragma: no cover - certifies the lift
            raise ComputationError("root-of-unity multiplicities do not sum to the degree")
        values = tuple(lifts[m] if m in lifts else
                       lifts.setdefault(m, cyclo_from_root_counts(m)) for m in row_counts)
        rows.append((deg, values, row_counts))

    table = _sorted_table(group, classes, e, p, rows)
    if sum(d * d for d in table.degrees) != n:  # pragma: no cover
        raise ComputationError("degree squares do not sum to the group order")
    return table


def _sorted_table(group: PermGroup, classes: ClassData, e: int, p: int, rows) -> CharacterTable:
    """The table of rows (degree, values, root counts), sorted canonically."""
    rows = sorted(rows, key=lambda row: (row[0], tuple(v.sort_key() for v in row[1])))
    degrees, values, counts = zip(*rows)
    return CharacterTable(group, classes, e, degrees, values, p, counts)


def is_abelian(group: PermGroup) -> bool:
    """Whether the generators commute, read off the maps: right[:, 0] holds
    the generators' ids g_i, so right[j][g_i] = id(g_i g_j) sits at [j, i]
    of right[:, g], which is symmetric exactly when every pair commutes."""
    pairs = group.right[:, group.right[:, 0]]
    return bool((pairs == pairs.T).all())


def abelian_character_table(group: PermGroup,
                            classes: ClassData | None = None) -> CharacterTable:
    """Independent oracle: the dual-group construction for abelian groups.

    An abelian group has |G| classes, so past MAX_CLASSES elements it is
    refused as dixon_table refuses it, and every array here is at most
    64 x 64: T[x][y] = id(x y) from one walk of right_map_blocks, and the
    powers pw[x][t] = id(x^t), one gather of T per t < e.  The greedy basis
    element, of maximal order (smallest id on ties) among those whose
    nontrivial powers avoid the span, generates a direct summand, so
    G = C_{o_1} x ... x C_{o_m}; T[span][:, pw[b, :o]] gives the new span and
    every element's exponent vector a over the basis.  The character c takes
    zeta_e^(sum_i c_i a_i e/o_i), all exponents from one integer product, and
    each distinct root is built in closed form (cyclo.root_of_unity), not
    lifted from counts as in dixon_table.  Rows are sorted as in dixon_table,
    so for an abelian group the two tables must be identical.
    """
    if not is_abelian(group):
        raise ValueError("dual-group construction needs an abelian group")
    n = group.order
    if n > MAX_CLASSES:
        raise ComputationError(f"{n} classes exceeds the supported maximum of {MAX_CLASSES}")
    if classes is None:
        classes = conjugacy_classes(group)
    e, ids = exponent(classes), np.arange(n)
    table = np.empty((n, n), dtype=np.int32)
    for y, lo, xy in group.right_map_blocks(range(n)):
        table[lo:lo + len(xy), y] = xy
    orders = np.array(classes.element_orders)[classes.class_of]
    pw = np.zeros((n, e), dtype=np.intp)
    for t in range(1, e):
        pw[:, t] = table[pw[:, t - 1], ids]
    nontrivial = np.arange(1, e) < orders[:, None]
    span, coords, basis_orders = ids == 0, np.zeros((n, 0), dtype=np.int64), []
    while not span.all():
        cand = np.flatnonzero(~span & ~(span[pw[:, 1:]] & nontrivial).any(axis=1))
        b = cand[np.argmax(orders[cand])]
        o, members = int(orders[b]), np.flatnonzero(span)
        prods = table[members][:, pw[b, :o]]  # id(s b^t) for s in the span, t < o
        if np.unique(prods).size != prods.size:  # pragma: no cover
            raise ArithmeticError("cyclic decomposition failed: products repeat")
        coords = np.hstack([coords, np.zeros((n, 1), dtype=np.int64)])
        coords[prods] = coords[members][:, None]
        coords[prods, -1] = np.arange(o)
        basis_orders.append(o)
        span[prods] = True
    if math.prod(basis_orders) != n:  # pragma: no cover
        raise ArithmeticError("cyclic decomposition failed: orders do not multiply to |G|")
    chars = np.array(list(itertools.product(*map(range, basis_orders))), dtype=np.int64)
    scale = e // np.array(basis_orders, dtype=np.int64)
    expo = chars * scale @ coords[list(classes.reps)].T % e
    class_orders = np.array(classes.element_orders, dtype=np.int64)
    if (expo * class_orders % e).any():  # pragma: no cover
        raise ArithmeticError("value escapes Q_o(g)")
    root = functools.lru_cache(maxsize=None)(root_of_unity)
    rows = []
    for row in (expo * class_orders // e).tolist():  # zeta_e^expo = zeta_o^(expo o / e)
        keys = list(zip(classes.element_orders, row))
        counts = tuple(tuple(int(i == d) for i in range(o)) for o, d in keys)
        rows.append((1, tuple(root(o, d) for o, d in keys), counts))
    return _sorted_table(group, classes, e, 0, rows)


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


_FAILURES = (
    "degree squares do not sum to the group order",
    "row orthogonality fails",
    "column orthogonality fails",
    "first column does not list positive integer degrees",
    "row set is not closed under the Galois action",
    "values are not certified algebraic integers",
)


def _certificate_primes(modulus: int, bound: int) -> list[int]:
    """The first primes of modp.eval_points(modulus), until their product
    passes bound."""
    primes, product = [], 1
    points = modp.eval_points(modulus)
    while product <= bound:
        primes.append(next(points)[0])
        product *= primes[-1]
    return primes


def _orthogonality(table: CharacterTable, one_embedding: bool) -> tuple[bool, bool]:
    """Row and column orthogonality, decided exactly by congruences.

    Each entry, sum_d c_d zeta_n^d in its power basis (E the lcm of the n),
    is evaluated at theta and theta^-1, theta of order E mod primes
    p ≡ 1 (mod E), into X and Xbar (conjugation is sigma_-1).  The checks
    X diag(|C_s|) Xbar^T ≡ n I and Xbar^T X ≡ diag(n/|C_s|) are the images
    of beta_ij = sum_s |C_s| chi_i(s) conj(chi_j(s)) - n delta_ij and
    gamma_st = sum_i conj(chi_i(s)) chi_i(t) - delta_st n/|C_s|.

    one_embedding (Galois-closed, certified integral, distinct rows):
    1. chi_i(s) = sum_d m_d zeta_o^d, m_d >= 0, sum m_d = d_i, so every
       conjugate has |sigma(chi_i(s))| <= d_i.
    2. sigma_k permutes the rows (pi_k, injective on distinct rows) and
       commutes with conjugation: sigma_k(beta_ij) = beta_{pi_k i, pi_k j}
       and sigma_k(gamma_st) = gamma_st, so gamma_st is in Z.
    3. All beta_ij ≡ 0 at theta gives beta_ij ≡ 0 at every theta^k, so
       beta_ij lies in every prime above p; p ≡ 1 (mod E) splits
       completely, unramified, so beta_ij is in pZ[zeta_E], and in
       PZ[zeta_E] for P the product of the primes.
    4. |sigma(beta_ij)| <= B = n max(d)^2 + n.  A nonzero beta in PZ[zeta_E]
       has P^phi(E) <= |N(beta)| <= B^phi(E), so P > B forces beta = 0;
       likewise for gamma_st, with |gamma_st| <= sum d_i^2 + n.

    Otherwise the table fails validation anyway; the values, cleared of
    their common denominator D, are checked at every embedding theta^k (k a
    unit mod E), so step 3 needs no Galois action, and step 4 holds for
    D^2 beta and D^2 gamma with an entry bounded by its sum of |coefficients|.
    A column target D^2 n/|C_s| outside Z cannot be met.  The bounds are
    max_i sum_s |C_s| L_is^2 and max_s sum_i L_is^2 (Cauchy-Schwarz), plus
    the target.
    """
    classes, values = table.classes, table.values
    n, r, sizes = table.group.order, classes.k, classes.sizes
    clear = math.lcm(*(v.den for i in range(r) for v in values[i]))
    entries = [[(v.n, tuple(c * (clear // v.den) for c in v.coeffs)) for v in values[i]]
               for i in range(r)]
    bounds = ([[d] * r for d in table.degrees] if one_embedding else
              [[sum(map(abs, vec)) for _, vec in row] for row in entries])
    scaled_n = clear * clear * n
    col_ok = all(scaled_n % z == 0 for z in sizes)
    row_ok = True
    bound = scaled_n + max(max(sum(z * b * b for z, b in zip(sizes, row)) for row in bounds),
                           max(sum(row[s] ** 2 for row in bounds) for s in range(r)))

    # one evaluation per distinct vector: cells[o][vec] lists its positions
    cells: dict[int, dict[tuple[int, ...], list[tuple[int, int]]]] = {}
    for i, row in enumerate(entries):
        for s, (o, vec) in enumerate(row):
            cells.setdefault(o, {}).setdefault(vec, []).append((i, s))
    E = math.lcm(*cells)
    ks = sorted({1 % E, -1 % E} if one_embedding else {k % E for k in units(E)})
    position = {k: a for a, k in enumerate(ks)}
    conj = [position[-k % E] for k in ks]
    for p in _certificate_primes(E, bound):
        theta = element_of_order(E, p)
        X = np.empty((len(ks), r, r), dtype=np.int64)
        for o, where in cells.items():
            vecs = np.array(list(where)) % p  # int64, or Python ints past int64
            at = modp.evaluate(vecs.astype(np.int64), pow(theta, E // o, p), o, ks, p)
            for u, places in enumerate(where.values()):
                X[:, [i for i, _ in places], [s for _, s in places]] = at[u][:, None]
        Xbar_t = X[conj].transpose(0, 2, 1)
        gram = modp.mat_mul(X * np.array([z % p for z in sizes]) % p, Xbar_t, p)
        row_ok = row_ok and bool(np.all(gram == np.eye(r, dtype=np.int64) * (scaled_n % p)))
        cols = np.diag([scaled_n // z % p for z in sizes])
        col_ok = col_ok and bool(np.all(modp.mat_mul(Xbar_t, X, p) == cols))
    return row_ok, col_ok


def validate_table(table: CharacterTable) -> TableValidation:
    """All six exactness checks; every downstream claim leans on these.

    Orthogonality is decided by a modular certificate (_orthogonality), at
    one embedding per prime when the Galois closure and integrality checks
    pass and the rows are distinct, else at every embedding.
    """
    classes, values = table.classes, table.values
    n, r = table.group.order, classes.k
    degree_sum = sum(d * d for d in table.degrees) == n and len(values) == r
    first_col = all(values[i][0] == table.degrees[i] and table.degrees[i] >= 1
                    for i in range(len(values)))
    closure = table.galois_action is not None
    integral = all(v.is_integral() and table.exponent % v.n == 0
                   for row in values for v in row)
    counts = table.root_counts
    if counts:
        # every entry needs its counts (step 1 of _orthogonality's proof reads
        # them all); entries repeat, so each distinct one is lifted once
        entries = {(tuple(m), v, d, o) for row, crow, d in zip(values, counts, table.degrees)
                   for v, m, o in zip(row, crow, classes.element_orders)}
        integral = (integral and len(counts) == len(values) == len(table.degrees)
                    and all(len(row) == len(crow) == r for row, crow in zip(values, counts))
                    and all(len(m) == o and min(m) >= 0 and sum(m) == d
                            and cyclo_from_root_counts(m) == v
                            for m, v, d, o in entries))
    one_embedding = closure and integral and bool(counts) and len(set(values)) == r
    flags = (degree_sum, *_orthogonality(table, one_embedding), first_col, closure, integral)
    return TableValidation(*flags, failures=[why for ok, why in zip(flags, _FAILURES) if not ok])
