"""Permutation groups by full element enumeration.

Element ids are breadth-first from the identity with generators applied in
the given order, so repeated enumeration of the same generator list
reproduces identical ids, class numbering and downstream tables.

Enumeration starts with a stabilizer chain (schreier_sims), which gives
|G| and a base (a short point list whose images fix an element uniquely)
before any element is stored; a group past the element cap stops there.
The breadth-first search then deduplicates products by their sifted base
images, a dense key in [0, |G|).  The group keeps the chain, the id of
each key and the key of each id, so every later lookup sifts base images
the same way; see PermGroup.

No element table is stored.  An element is its chain key: with
key = c_0 * |G^(1)| + r it is x = u_{c_0} * y, u_{c_0} the level-0
transversal element and y the element of the first point stabilizer G^(1)
with key r, so x(p) = F_0[c_0][T_1[r][p]] for the level-0 forward
transversal F_0 (|Delta_0| x degree int32) and the rows T_1 of G^(1) in
key order (|G^(1)| x degree int32); see PermGroup.rows_of.

The search also keeps what it walks: the right-multiplication maps
right[i][x] = id(x * g_i), |G| * #generators int32, and its tree, the
parent[z] (int32) and parent_gen[z] (uint8 up to 256 generators) with
z = parent[z] * g_parent_gen[z].  Together they cost |G| * (4 * #generators
+ 5) bytes, and they give the id of w * z for every w without a sift:
the maps of many z come from one walk of the subtree of the tree that the
z span, block by block, one gather per edge and block; see
PermGroup.right_map_blocks and chartab.class_multiplication_coefficients.

Subgroups use the same maps: the orbits of the right maps of ids T are the
left cosets of <T>, labelled by their smallest ids (_orbit_labels), and a
Subgroup's generator_ids is a generating list of at most log2 |H| ids
(_generated).

The element cap, DEFAULT_CAP = 10**6, keeps accidental monsters out; the
largest single family member, S9, has 362880 elements, and direct products
reach up to the cap (S9xC2 has 725760).  TABLE_BYTES_LIMIT does the same
for wide groups: |G| * (degree + #generators) * 4 bytes, what an element
table and the maps would take, passes the memory of a small machine well
inside the element cap.  check_size applies both rules; the zoo's families
whose order is known in closed form call it before building a generator,
a cycle spec calls it on 2 elements if a generator moves a point, and a
direct product on a lower bound of its order before building its own, so a
spec past them stops before one point is allocated.

A Permutation is a read-only int32 row, the layout of every row above, so
a generator is sifted and composed as it is, never converted.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_CAP = 10**6
# |G| * (degree + #generators) * 4 bytes, an element table and the
# right-multiplication maps, may not pass this.  No table is stored, but the
# limit stays: a regular group's level-0 transversal is as large as its
# table, and the same formula keeps every refusal (exit code 3) unchanged
TABLE_BYTES_LIMIT = 1 << 28


class GroupTooLargeError(ValueError):
    """A group past the element cap or past TABLE_BYTES_LIMIT."""


def check_size(order: int, degree: int, n_generators: int) -> None:
    """Refuse a group of at least `order` elements on `degree` points with
    n_generators generators if its element table and right-multiplication
    maps, order * (degree + n_generators) * 4 bytes, pass TABLE_BYTES_LIMIT,
    or else if order passes DEFAULT_CAP.  Callers may pass a lower bound of
    the order, so the message says "at least"."""
    if order * (degree + n_generators) * 4 > TABLE_BYTES_LIMIT:
        raise GroupTooLargeError(
            f"group too large: at least {order} elements on {degree} points exceed the "
            f"{TABLE_BYTES_LIMIT >> 20} MiB element table limit")
    if order > DEFAULT_CAP:
        raise GroupTooLargeError(
            f"group too large: closure exceeded the cap of {DEFAULT_CAP} elements")


def _point(x) -> int:
    """An image as a point: operator.index takes ints and numpy integers and
    refuses floats and numpy bools; bool, an int subclass, is refused by name."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"image {x!r} is not an integer")


class Permutation:
    """A permutation of {0..degree-1}: images, a read-only int32 row like
    every row a group stores, holds the image of each point.  An integer
    ndarray is checked as a whole, any other sequence point by point under
    _point's rule (a row of a 2-D array is not an integer)."""

    __slots__ = ("images",)

    def __init__(self, images):
        if not (isinstance(images, np.ndarray) and images.ndim == 1
                and images.dtype.kind in "iu"):
            images = np.array([_point(x) for x in images], dtype=object)
        n = len(images)
        if n and not (0 <= images.min() and images.max() < n):
            raise ValueError("images do not define a bijection")
        row = images.astype(np.int32)
        hit = np.zeros(n, dtype=bool)
        hit[row] = True
        if not hit.all():
            raise ValueError("images do not define a bijection")
        row.flags.writeable = False
        self.images = row

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(np.arange(degree, dtype=np.int32))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # function composition: (self * other)(i) = self(other(i))
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(self.images.take(other.images))

    def inverse(self) -> "Permutation":
        return Permutation(np.argsort(self.images))

    def cycles(self) -> list[list[int]]:
        images, seen, out = self.images.tolist(), set(), []
        for s in range(self.degree):
            if s not in seen:
                cyc = [s]
                while images[cyc[-1]] != s:
                    cyc.append(images[cyc[-1]])
                seen.update(cyc)
                out.append(cyc)
        return out

    def order(self) -> int:
        return math.lcm(*(len(c) for c in self.cycles()))

    def __eq__(self, other):
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self):
        return hash(self.images.tobytes())

    def __repr__(self):
        cyc = [c for c in self.cycles() if len(c) > 1]
        if not cyc:
            return f"Permutation(identity, degree={self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation({body})"


# _closure's marker for a key met in the current frontier, above every
# position there
_UNSEEN = np.iinfo(np.int32).max

# PermGroup.right_map_blocks composes maps over blocks of this many ids, so
# that the maps it holds at once, one per branch point of its walk, stay
# block-sized however large the group.
SIFT_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class StabilizerChain:
    """A base of G with its basic orbits and transversals.

    Level i holds the base point b_i and its basic orbit Delta_i, the orbit
    of b_i under G^(i), the pointwise stabilizer of b_0..b_{i-1} in G, with
    b_i first.  transversals[i][c] is the row of an element u_c of G^(i)
    sending b_i to Delta_i[c], and inv_transversals[i][c] the row of u_c^-1
    for every level but the last, which keys never reads (for a regular
    group it would be as large as an element table); row 0 is the
    identity.  |G| is the product of the orbit lengths (Lagrange, level by
    level, with G^(k) trivial), and every x in G sifts to positions
    (c_0, ..., c_{k-1}): c_i is where the image of b_i, after the sifts
    above, sits in Delta_i.  positions[i][p] is the index of p in Delta_i,
    or -1: the rows schreier_sims kept while it built the orbits, which
    dataclasses.replace hands on as they are.
    """

    degree: int
    base: tuple[int, ...]
    orbits: tuple[np.ndarray, ...]
    transversals: tuple[np.ndarray, ...]      # |Delta_i| x degree int32 each
    inv_transversals: tuple[np.ndarray, ...]  # the same, i < k - 1
    positions: tuple[np.ndarray, ...] = field(repr=False)  # degree int32 each

    @property
    def order(self) -> int:
        return math.prod(len(orbit) for orbit in self.orbits)

    def keys(self, images) -> np.ndarray:
        """Dense keys sum_i c_i * prod_{j>i} |Delta_j| in [0, |G|), one per row
        of base images.

        The positions c_i determine x in G (x = u_0 u_1 ... u_{k-1} for the
        transversal elements they name), so distinct elements of G get
        distinct keys.  A base image outside its basic orbit means the
        permutation is not in the group the chain describes, and raises
        ArithmeticError, as does an image outside range(degree).
        """
        k, degree = len(self.base), np.int32(self.degree)
        images = np.asarray(images, dtype=np.int32).reshape(len(images), k)
        # np.take would wrap a negative image round to a point; as uint32 a
        # negative image is past every point, so one max checks both ends
        if images.size and images.view(np.uint32).max() >= degree:
            raise ArithmeticError("a base image is not a point")
        flat = [inv.ravel() for inv in self.inv_transversals]
        key = np.zeros(len(images), dtype=np.int64)
        offsets = []  # c_i * degree per level above
        for j, (orbit, position) in enumerate(zip(self.orbits, self.positions)):
            point = images[:, j]
            # c * degree + point < |Delta_i| * degree <= |G| * degree <= 2**26
            # (TABLE_BYTES_LIMIT / 4), so the flat index fits int32
            for offset, inv in zip(offsets, flat):
                point = inv.take(offset + point)
            c = position.take(point)
            if c.size and c.min() < 0:
                raise ArithmeticError("a base image lies outside its basic orbit")
            key *= len(orbit)
            key += c
            offsets.append(c * degree)
        return key


class _Level:
    """One level of a stabilizer chain under construction."""

    def __init__(self, point: int, ident: np.ndarray):
        self.ident = ident             # the identity row, shared by the levels
        self.point = point
        self.gens: list[np.ndarray] = []
        self.checked: list[int] = []   # per generator: orbit positions done
        self.orbit = [point]
        self.position = np.full(len(ident), -1, dtype=np.int32)
        self.position[point] = 0
        self.fwd = [ident]             # u_c, which sends point to orbit[c]
        self.inv = {0: ident}          # u_c^-1, for the c used so far
        self.tree: set[tuple[int, int]] = set()  # (c, i): generator i found a point from orbit[c]

    def add(self, s: np.ndarray, bound: _OrderBound) -> None:
        """Add a generator and close the orbit under all of them.

        bound.grow runs before each new orbit point and its transversal row
        are stored, so a group too large stops before its rows do.
        """
        old = len(self.orbit)
        self.gens.append(s)
        self.checked.append(0)
        last = len(self.gens) - 1
        c = 0
        while c < len(self.orbit):
            beta = self.orbit[c]
            for i in range(0 if c >= old else last, last + 1):
                gamma = int(self.gens[i][beta])
                if self.position[gamma] < 0:
                    bound.grow(len(self.orbit))
                    self.position[gamma] = len(self.orbit)
                    self.orbit.append(gamma)
                    self.fwd.append(self.gens[i][self.fwd[c]])  # s * u_c
                    self.tree.add((c, i))
            c += 1

    def inverse(self, c: int) -> np.ndarray:
        """u_c^-1, inverted from u_c on first use."""
        inv = self.inv.get(c)
        if inv is None:
            inv = self.inv[c] = np.empty_like(self.ident)
            inv[self.fwd[c]] = self.ident
        return inv

    def schreier_generators(self):
        """Yield u_{s(beta)}^-1 s u_beta for every pair not yet yielded, except
        the tree edges: if s first reached s(beta) from beta, then
        u_{s(beta)} = s u_beta and the generator is the identity."""
        for i, s in enumerate(self.gens):
            while self.checked[i] < len(self.orbit):
                c = self.checked[i]
                self.checked[i] += 1
                if (c, i) in self.tree:
                    continue
                yield self.inverse(int(self.position[s[self.orbit[c]]]))[s[self.fwd[c]]]


class _OrderBound:
    """What schreier_sims knows of |G|: found, the product of the orbit
    lengths so far, a lower bound that check_size tests before each new
    orbit point is stored, and known, the order given in closed form, or
    None."""

    def __init__(self, degree: int, n_generators: int, known: int | None):
        self.degree, self.n_generators, self.known = degree, n_generators, known
        self.found = 1
        # the identity's row, which a group with no orbit has too
        check_size(1, degree, n_generators)

    def grow(self, m: int) -> None:
        """An orbit of m points is about to gain one."""
        found = self.found // m * (m + 1)
        check_size(found, self.degree, self.n_generators)
        self.found = found

    @property
    def reached(self) -> bool:
        return self.found == self.known


def schreier_sims(degree: int, generators, order: int | None = None) -> StabilizerChain:
    """Deterministic Schreier-Sims (Sims 1970; Seress 2003, ch. 4).

    Level i keeps generators S_i, all in G^(i), and the orbit Delta_i of b_i
    under G_i = <S_i> with a transversal.  Inserting h from level lo sifts
    it with full permutations: at each level j >= lo the image of b_j must
    lie in Delta_j, and h is replaced by u^-1 h.  If the sift stops at level
    j, or leaves a residue r != 1 below the last level (then a new base
    point, the first point r moves, makes level j), r joins S_lo..S_j and
    the levels j, j-1, ..., lo are closed: each Schreier generator
    u_{s(beta)}^-1 s u_beta (beta in Delta_i, s in S_i), not seen before, is
    inserted from level i+1.  Each generator of G is inserted from level 0.
    A tree edge, a pair where s first reached s(beta) from beta, is skipped:
    its transversal element is u_{s(beta)} = s u_beta, so the Schreier
    generator is the identity and would sift to nothing.

    Invariant: S_{i+1} lies in G_i.  A residue r inserted from lo is
    y, in G_{lo-1} (or G, for lo = 0), times transversal elements of G_lo,
    G_{lo+1}, ..., each inside G_{lo-1} by the invariant; r joins S_lo
    onwards, so the invariant holds.  Orbits only grow and transversal rows
    never change, so a Schreier generator checked once stays one.

    Completeness: at the end every Schreier generator of every level has
    sifted to the identity through levels i+1.., so it is a product of
    elements of G_{i+1}.  By Schreier's lemma they generate the stabilizer
    of b_i in G_i, and G_{i+1} fixes b_i and lies in G_i, so G_{i+1} is
    that stabilizer.  There is no level k, so G_k = <S_k> is trivial.  G_0
    contains the generators (each is a product of transversal elements and
    a residue in S_0), so G_0 = G = G^(0) and by induction G_i = G^(i).
    Hence |G| = prod |Delta_i| and the base images determine each element.

    Meanwhile every orbit found so far, even one still being closed, lies
    in the final Delta_i, of length [G^(i) : G^(i+1)], so the product of
    their lengths bounds |G| from below.  One running product of the orbit
    lengths (_OrderBound) serves both the size check and the stop below.
    check_size tests it before each new orbit point is stored, so
    GroupTooLargeError is raised as soon as |G| * (degree + #generators) * 4
    bytes, the size of an element table and its right-multiplication maps,
    passes TABLE_BYTES_LIMIT or the bound passes DEFAULT_CAP; each of the
    two transversals, at most prod |Delta_i| + k rows, stays within the
    same limit.  A level stores the forward transversal, and inverts a row
    on first use; at the end the inverse transversals of all levels but
    the last are completed.

    Known order (Seress 2003, ch. 4): given order = |G|, no Schreier
    generator is sifted once the product of the orbit lengths equals it.
    This is exact.  Each partial orbit Delta_i lies in its true basic
    orbit, as S_i lies in G^(i), so prod |Delta_i| <= [G : G^(m)] <= |G|
    for the current base length m.  Equality forces every Delta_i to be
    the whole basic orbit and G^(m) = 1, so every element of G already
    sifts to the identity through the transversals held.  After that no
    Schreier generator adds an orbit point or a level, and transversal rows
    never change, so the base, orbits, transversals and inverse
    transversals are byte for byte those of a full run.  ArithmeticError is
    raised if the finished chain's order is not the given one.  An
    overstated order never triggers the stop, so the full run reaches the
    true order and the mismatch shows.  An understated order cannot be
    caught here: the run may stop at an incomplete chain whose product is
    that order.  tests/test_perm.py guards the zoo's formulas against this
    by comparing every family member's chain with the full run's.
    """
    generators = list(generators)
    levels: list[_Level] = []
    bound = _OrderBound(degree, len(generators), order)
    ident = np.arange(degree, dtype=np.int32)
    for g in generators:
        _insert(levels, ident, bound, g.images, 0)
    if order is not None and bound.found != order:
        raise ArithmeticError(f"the chain's order is {bound.found}, not the given {order}")
    return StabilizerChain(
        degree=degree,
        base=tuple(level.point for level in levels),
        orbits=tuple(np.array(level.orbit, dtype=np.intp) for level in levels),
        transversals=tuple(np.array(level.fwd, dtype=np.int32) for level in levels),
        inv_transversals=tuple(
            np.array([level.inverse(c) for c in range(len(level.orbit))], dtype=np.int32)
            for level in levels[:-1]),
        positions=tuple(level.position for level in levels),
    )


def _insert(levels: list[_Level], ident: np.ndarray, bound: _OrderBound, h: np.ndarray,
            lo: int) -> None:
    """Sift h from level lo and close the levels it joins, until bound is
    reached (schreier_sims); not a closure, whose recursion would be a
    reference cycle over every level."""
    j = lo
    while j < len(levels):
        c = levels[j].position[h[levels[j].point]]
        if c < 0:
            break
        h = levels[j].inverse(int(c))[h]
        j += 1
    else:
        moved = np.flatnonzero(h != ident)
        if not len(moved):
            return
        levels.append(_Level(int(moved[0]), ident))
    for level in levels[lo:j + 1]:
        level.add(h, bound)
    for i in range(j, lo - 1, -1):
        for y in levels[i].schreier_generators():
            if bound.reached:
                return
            _insert(levels, ident, bound, y, i + 1)


class PermGroup:
    """Fully enumerated permutation group; build via enumerate_group().

    Element ids are found from base images.  G's pointwise stabilizer of the
    base is trivial, so if x, y in G agree on the base then x^-1 y fixes it
    pointwise and x = y: restriction to the base is injective on G.  Products
    and conjugates of elements of G lie in G, so internal callers look them up
    from the base columns alone, using (xy)(b) = x(y(b)).  A permutation from
    outside may agree with some element of G on the base without being in G,
    so id_of and `in` also compare the candidate's full row.

    A row of base images t is sifted through the stabilizer chain
    (StabilizerChain.keys), and id_of_key maps the dense key to the id.  The
    chain has no inverse transversal at its last level, which keys never
    reads, and the group keeps it without its forward transversals.  A miss
    is reported exactly: t passes every orbit check only if applying
    u_{c_0}^-1, ..., u_{c_{k-1}}^-1 pointwise maps t to the base b (each
    inverse sends its orbit point to b_j, and the later levels fix b_j).
    Then t = y(b) for y = u_{c_0} ... u_{c_{k-1}} in G.  Conversely, every
    element's base images pass the checks, and the base separates G.

    No row is stored: an element is its key.  The key of x is
    c_0 * |G^(1)| + r, where r is the key of y = u_{c_0}^-1 x in the chain
    of G^(1) (levels 1 and on), so x = u_{c_0} y and
    x(p) = F_0[c_0][T_1[r][p]] (rows_of).  F_0 is the level-0 forward
    transversal, and T_1 the rows of G^(1) in key order, built once from the
    forward transversals of levels 1 and on (_factor_tables); key_of_id
    inverts id_of_key.  They take (|Delta_0| + |G^(1)|) * degree * 4 bytes
    and |G| * 4 for the keys, where a table took |G| * degree * 4: A9
    0.7 MiB against 6.2, SL(2,25) 1.5 against 37 and SL(2,32) 4.1 against
    128.  A regular group saves nothing: its single orbit is G, so F_0, at
    |G| * degree * 4 bytes, is its table (C4096: 64 MiB).  An empty base
    makes F_0 and T_1 the identity row.

    The closure's right-multiplication maps and breadth-first tree are kept
    too (see _closure): right[i][x] is the id of x * g_i, and element z
    is parent[z] * g_{parent_gen[z]} with parent[z] < z.  They take
    |G| * (4 * #generators + 5) bytes.
    """

    def __init__(self, degree: int, generators: list[Permutation], chain: StabilizerChain,
                 f0: np.ndarray, t1: np.ndarray, id_of_key: np.ndarray, key_of_id: np.ndarray,
                 right: np.ndarray, parent: np.ndarray, parent_gen: np.ndarray):
        self.degree = degree
        self.generators = tuple(generators)
        self.order = len(key_of_id)
        self.chain = chain
        self.base = chain.base
        self._f0 = f0                # |Delta_0| x degree int32: u_c, level 0
        self._t1 = t1                # |G^(1)| x degree int32: G^(1) in key order
        self._id_of_key = id_of_key  # chain key -> element id
        self._key_of_id = key_of_id  # element id -> chain key
        self.right = right           # #generators x order int32: id of x * g_i
        self.parent = parent         # order int32: breadth-first tree, parent[0] = 0
        self.parent_gen = parent_gen  # order: z = parent[z] * g_{parent_gen[z]}

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, order={self.order})"

    def rows_of(self, ids, points=None) -> np.ndarray:
        """The rows of the elements with the given ids, one per id; given
        points, only their images there: x(p) for one row of points shared
        by every id, or for one row of points per id.

        Two gathers, x(p) = F_0[c_0][T_1[r][p]] (_images; see the class
        docstring).  Each id is checked as _id checks one.
        """
        return self._rows([self._id(z) for z in ids], points)

    def _rows(self, ids, points=None) -> np.ndarray:
        """rows_of for ids known to be element ids, unchecked."""
        if points is None:
            points = np.arange(self.degree, dtype=np.int32)
        keys = self._key_of_id[np.asarray(ids, dtype=np.intp)][:, None]
        return _images(self._f0, self._t1, _key_starts(keys, self._t1), points)

    def ids_of_base_images(self, images) -> np.ndarray:
        """Ids of the elements of G with the given base images, one row each.

        Only for permutations known to lie in G (see the class docstring).
        KeyError is raised exactly when some row is the base images of no
        element of G.
        """
        try:
            keys = self.chain.keys(images)
        except ArithmeticError:
            raise KeyError("base images of a permutation outside the group") from None
        return self._id_of_key[keys]

    def _id(self, z) -> int:
        """z as an element id, or ValueError naming it: an integer by
        _point's rule (a float or a bool is refused) in range(order), so
        that numpy never wraps a negative id round to another element."""
        try:
            z = _point(z)
        except ValueError:
            raise ValueError(f"element id {z!r} is not an integer") from None
        if not 0 <= z < self.order:
            raise ValueError(f"element id {z} is not in range({self.order})")
        return z

    def word(self, z: int) -> list[int]:
        """Generator indices a_1, ..., a_m with element z = g_{a_1} ... g_{a_m},
        read off the breadth-first tree; empty for the identity.

        Each step up writes z = parent[z] * g_{parent_gen[z]} with
        parent[z] < z, so the walk ends at the identity, id 0, after the
        depth of z, which is the shortest such word.
        """
        z, letters = self._id(z), []
        while z:
            letters.append(int(self.parent_gen[z]))
            z = int(self.parent[z])
        return letters[::-1]

    def element(self, i: int) -> Permutation:
        return Permutation(self._rows([self._id(i)])[0])

    def _find(self, perm: Permutation) -> int:
        if perm.degree != self.degree:
            return -1
        try:
            i = int(self.ids_of_base_images([perm.images[list(self.base)]])[0])
        except KeyError:
            return -1
        return i if np.array_equal(self._rows([i])[0], perm.images) else -1

    def id_of(self, perm: Permutation) -> int:
        i = self._find(perm)
        if i < 0:
            raise KeyError(f"{perm!r} is not in the group")
        return i

    def __contains__(self, perm: Permutation) -> bool:
        return self._find(perm) >= 0

    def right_map(self, z: int) -> np.ndarray:
        """The id of x * z for every id x, int32, composed along the word of
        z: the one-id case of right_map_blocks, its blocks laid end to end."""
        out = np.empty(self.order, dtype=np.int32)
        for _, lo, xz in self.right_map_blocks([z]):
            out[lo:lo + len(xz)] = xz
        return out

    def right_map_blocks(self, zs):
        """Yield (j, lo, xz) with xz[x - lo] = id(x * zs[j]), int32, for the
        ids x of each block [lo, lo + SIFT_BLOCK) and each position j of zs,
        block by block, in one depth-first walk of the subtree of the
        breadth-first tree that zs spans.

        z = parent[z] * g_a with a = parent_gen[z] gives
        x z = (x parent[z]) g_a, so id(x z) = right[a][id(x parent[z])] for
        each id x on its own: on a block, the map of z is one take of
        right[a] at its parent's map on the same block, and the identity's
        map is the block's ids.  The ancestors of zs form a subtree rooted
        at the identity, as parent[z] < z ends each path at id 0.  Each node
        waits on the stack with its parent's map, so a map is dropped once
        its last child has been visited: the walk holds the maps of the
        current path's branch points only, each SIFT_BLOCK ids long.  Each
        edge of the subtree costs one take per block, so a prefix that
        several words share is composed once.
        """
        zs = [self._id(z) for z in zs]
        at: dict[int, list[int]] = {0: []}   # node of the subtree -> positions j
        children: dict[int, list[int]] = {}
        for z in zs:
            while z not in at:
                at[z] = []
                children.setdefault(int(self.parent[z]), []).append(z)
                z = int(self.parent[z])
        for j, z in enumerate(zs):
            at[z].append(j)
        for lo in range(0, self.order, SIFT_BLOCK):
            stack = [(0, np.arange(lo, min(lo + SIFT_BLOCK, self.order), dtype=np.int32))]
            while stack:
                z, xz = stack.pop()
                if z:
                    xz = self.right[self.parent_gen[z]].take(xz)
                for j in at[z]:
                    yield j, lo, xz
                stack.extend((c, xz) for c in children.get(z, ()))


def enumerate_group(degree: int, generators, *, order: int | None = None) -> PermGroup:
    """The group <generators>, its elements in breadth-first order from the
    identity.

    A stabilizer chain (schreier_sims, which stops sifting at order if it
    is given) comes first: it gives |G| and a base before any element is
    stored, and a group past check_size's limits stops there.  F_0 and T_1
    are read off its forward transversals (_factor_tables).  Then the
    breadth-first closure runs, applying the generators in the given order
    to each element of the frontier in turn (x-major); see _closure.
    """
    gens = [g if isinstance(g, Permutation) else Permutation(g) for g in generators]
    for g in gens:
        if g.degree != degree:
            raise ValueError("generator degree mismatch")
    chain = schreier_sims(degree, gens, order)
    f0, t1 = _factor_tables(chain)
    # F_0 and T_1 hold all that rows_of reads of the forward transversals
    chain = replace(chain, transversals=())
    return PermGroup(degree, gens, chain=chain, f0=f0, t1=t1, **_closure(chain, f0, t1, gens))


def _factor_tables(chain: StabilizerChain) -> tuple[np.ndarray, np.ndarray]:
    """F_0, the level-0 forward transversal, and T_1, the rows of G^(1) in
    key order.

    Level i's element with positions c_i, ..., c_{k-1} is
    u_{c_i} u_{c_{i+1}} ... u_{c_{k-1}} (StabilizerChain.keys), so the rows
    T_i of G^(i) in key order are T_i[c * |G^(i+1)| + r] = u_c[T_{i+1}[r]],
    one gather per level from T_k, the identity row.  An empty base makes
    both the identity row.
    """
    ident = np.arange(chain.degree, dtype=np.int32)[None, :]
    t = ident
    for fwd in reversed(chain.transversals[1:]):
        t = fwd[:, t].reshape(-1, chain.degree)
    return (chain.transversals[0] if chain.base else ident), t


def _key_starts(keys, t1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c_0 * degree and r * degree for the keys c_0 * |G^(1)| + r: where the
    rows u_{c_0} and T_1[r] start in the flattened F_0 and T_1."""
    c0, r = np.divmod(keys, len(t1))
    return c0 * t1.shape[1], r * t1.shape[1]


def _images(f0: np.ndarray, t1: np.ndarray, starts, points, out=None) -> np.ndarray:
    """x(p) = F_0[c_0][T_1[r][p]] from x's _key_starts, broadcast against the
    points.  r * degree + p and c_0 * degree + p are below
    |G| * degree <= 2**26 (TABLE_BYTES_LIMIT / 4), so int32 holds them."""
    f0_start, t1_start = starts
    return f0.ravel().take(t1.ravel().take(points + t1_start) + f0_start, out=out)


def _closure(chain: StabilizerChain, f0: np.ndarray, t1: np.ndarray,
             gens: list[Permutation]) -> dict:
    """Ids in breadth-first order, identity first: the id of each chain key
    and the key of each id, and the right-multiplication maps and tree.

    The products x*g of a frontier are taken x-major and deduplicated by
    their chain keys, which are distinct on G: a product is new when its key
    has no id yet, and within a frontier the first occurrence of each key
    wins, as in a scan over full rows.  The first occurrences come from one
    scatter-min, with no sort and no array beyond id_of_key: each new key's
    -1 entry is raised to _UNSEEN, above every x-major position (they are
    below |G| * #generators <= 2**26), then np.minimum.at lowers it to the
    smallest position p holding the key.  A scan meets the products in
    x-major position order, so that smallest p is the key's first
    occurrence; the positions p with id_of_key[key[p]] == p are the first
    occurrences, one per new key, and in increasing p, the scan's order.
    They take the next ids in that order, which overwrites every marker.

    Only the base images x(g(b)) are read and sifted: x(p) at each distinct
    point p = g_i(b_j) (_images), one point at a time.  Once a frontier's
    new elements have ids, the ids of all its products give
    right[i][x] = id(x * g_i) for each x in the frontier; a new element
    z = x * g_i records parent[z] = x and parent_gen[z] = i, and x came
    from an earlier frontier, so parent[z] < z.  Every level writes these
    arrays by slices.  A count other than |G| raises ArithmeticError.
    """
    order, k, n_gens = chain.order, len(chain.base), len(gens)
    id_of_key = np.full(order, -1, dtype=np.int32)
    key_of_id = np.empty(order, dtype=np.int32)
    # the identity's positions are all 0: b_i comes first in Delta_i
    id_of_key[0] = key_of_id[0] = 0
    right = np.empty((n_gens, order), dtype=np.int32)
    parent = np.zeros(order, dtype=np.int32)
    parent_gen = np.zeros(order, dtype=np.min_scalar_type(max(n_gens - 1, 0)))
    count, lo = 1, 0
    if gens:
        # the distinct points g_i(b_j), and where[i][j] the index of g_i(b_j)
        # among them
        points, where = np.unique(np.stack([g.images[list(chain.base)] for g in gens]),
                                  return_inverse=True)
        points, where = points.tolist(), where.reshape(n_gens, k)
        while lo < count:
            # at[q][x] = x(points[q]) for the frontier's x, one point at a time
            starts = _key_starts(key_of_id[lo:count], t1)
            at = np.empty((len(points), count - lo), dtype=np.int32)
            for q, p in enumerate(points):
                _images(f0, t1, starts, p, out=at[q])
            # (x * g_i)(b_j) = x(g_i(b_j)); each generator's base images are
            # sifted as one column per base point, and the keys read x-major
            keys = np.empty((count - lo, n_gens), dtype=np.int64)
            for i, w in enumerate(where):
                keys[:, i] = chain.keys(at.take(w, axis=0).T)
            keys = keys.ravel()
            ids = id_of_key.take(keys)
            # x-major positions without an id, as int32, which np.minimum.at
            # scatters fast into the int32 id_of_key
            fresh = np.flatnonzero(ids < 0).astype(np.int32)
            fresh_keys = keys.take(fresh)
            id_of_key[fresh_keys] = _UNSEEN
            np.minimum.at(id_of_key, fresh_keys, fresh)
            new = fresh[id_of_key.take(fresh_keys) == fresh]
            end = count + len(new)
            new_keys = keys.take(new)
            id_of_key[new_keys] = np.arange(count, end)
            key_of_id[count:end] = new_keys
            ids[fresh] = id_of_key.take(fresh_keys)
            right[:, lo:count] = ids.reshape(count - lo, n_gens).T
            x, g = np.divmod(new, n_gens)
            parent[count:end] = x + lo
            parent_gen[count:end] = g
            lo, count = count, end
    if count != order:
        raise ArithmeticError(f"the closure has {count} elements, the chain's order is {order}")
    return dict(id_of_key=id_of_key, key_of_id=key_of_id, right=right, parent=parent,
                parent_gen=parent_gen)


@dataclass(eq=False)
class ClassData:
    """Conjugacy class bookkeeping for an enumerated group."""

    group: PermGroup
    k: int
    reps: tuple[int, ...]            # smallest element id per class
    sizes: tuple[int, ...]
    class_of: np.ndarray             # element id -> class index
    element_orders: tuple[int, ...]  # order of the representative per class

    @functools.cached_property
    def powers(self) -> tuple[tuple[int, ...], ...]:
        """[i][t]: class of rep_i^t for 0 <= t < o(rep_i), walked on first use.

        The walk keeps sum_i o(rep_i) rows of base images, so it waits until
        a caller needs it; chartab.dixon_table asks only after it has
        checked k against MAX_CLASSES.
        """
        steps = list(_base_walk(self.group, self.reps))
        ids = self.group.ids_of_base_images(np.concatenate([cur for _, cur in steps]))
        table = np.zeros((self.k, len(steps)), dtype=np.int64)
        start = 0
        for t, (live, cur) in enumerate(steps):
            table[live, t] = self.class_of[ids[start:start + len(cur)]]
            start += len(cur)
        return tuple(tuple(row[:o]) for row, o in zip(table.tolist(), self.element_orders))

    def power_map(self, i: int, k: int) -> int:
        """Class of rep_i ** k (well-defined on the class)."""
        return self.powers[i][k % self.element_orders[i]]


def _base_walk(group: PermGroup, xs):
    """Yield (live, images) for t = 0, 1, ...: the positions i in xs with
    o(x_i) > t, and the base images of x_i^t for those, one row each.

    The base separates G, so x^t is the identity exactly when it fixes the
    base, and the walk b, x(b), x^2(b), ... of x first returns at t = o(x);
    x leaves the walk there.  Each t is one _rows call for every x still
    walking, at the walked points only, so no full row is read.  An empty
    base (the trivial group) walks one step.
    """
    xs = np.asarray(xs, dtype=np.intp)
    base = np.array(group.base, dtype=np.int32)
    live = np.arange(len(xs))
    cur = np.tile(base, (len(xs), 1))
    while live.size:
        yield live, cur
        cur = group._rows(xs[live], cur)
        walking = ~(cur == base).all(axis=1)
        live, cur = live[walking], cur[walking]


def _left_maps(group: PermGroup, hs) -> np.ndarray:
    """L[j][z] = id(h_j * z) for the element ids h_j, one row each, read off
    the breadth-first tree without a sift.

    z = parent[z] * g_a gives h * z = (h * parent[z]) * g_a, so
    L[j][z] = right[a][L[j][parent[z]]], from L[j][0] = h_j.  The closure
    records each frontier's new elements in the order of their parents, so
    parent is nondecreasing; with L filled below hi, every z with
    parent[z] < hi, the run of ids up to searchsorted(parent, hi), can be
    filled next.  That run is the next breadth-first level, and it includes
    hi itself, as parent[hi] < hi, so each step is two takes per row and
    the fill ends after depth-of-the-tree steps.  right[a][y] is entry
    a * |G| + y of the flattened maps, below |G| * #generators <= 2**26.
    """
    hs = np.asarray(hs, dtype=np.int32)
    out = np.empty((len(hs), group.order), dtype=np.int32)
    out[:, 0] = hs
    flat = group.right.ravel()
    hi = 1
    while hi < group.order:
        end = int(np.searchsorted(group.parent, hi))
        z = slice(hi, end)
        # int32 before the product, which parent_gen's uint8 or uint16 would wrap
        parents, offsets = group.parent[z], group.parent_gen[z].astype(np.int32) * group.order
        for row in out:
            row[z] = flat.take(row.take(parents) + offsets)
        hi = end
    return out


def _conjugation_maps(group: PermGroup) -> np.ndarray:
    """[i][x] = id(g_i^-1 x g_i): right[i] after the left map of g_i^-1.

    right[i] is a permutation of the ids with id(g_i^-1 * g_i) = 0, so
    g_i^-1 is where it holds 0, and nothing is sifted.
    """
    maps = _left_maps(group, group.right.argmin(axis=1))
    for right, m in zip(group.right, maps):
        m[:] = right.take(m)
    return maps


def _orbit_labels(maps, lab: np.ndarray) -> np.ndarray:
    """The smallest id in each element's orbit under the id permutations
    maps, from labels lab with lab[x] <= x in x's orbit (np.arange will do).

    Each round lowers every label to the label of its image under every
    map, then to the label of its label.  A label stays in its element's
    orbit and never exceeds its id.  At the fixpoint lab[x] <= lab[m(x)] for
    every map m; m is a permutation, so following its cycle back to x makes
    these equalities.  Then lab is constant on each orbit, and as it lies in
    the orbit and below every id there, it is the orbit's smallest id.  A
    label only falls one step along a map per round, so a long cycle whose
    ids rise against the map takes about one round per element.
    """
    while True:
        new = lab.copy()
        for m in maps:
            np.minimum(new, new.take(m), out=new)
        new = new.take(new)
        if np.array_equal(new, lab):
            return lab
        lab = new


def _orbit_index(lab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The orbits' smallest ids in increasing order, and each id's orbit
    index, from the labels of _orbit_labels: a smallest id is the one
    element labelled with itself."""
    seeds = np.flatnonzero(lab == np.arange(len(lab)))
    rank = np.empty(len(lab), dtype=np.int32)
    rank[seeds] = np.arange(len(seeds))
    return seeds, rank[lab]


def conjugacy_classes(group: PermGroup) -> ClassData:
    """Partition of G into conjugation orbits.

    Classes are ordered by (element order, class size, smallest element id);
    the identity class is always first.

    The classes are the orbits of the conjugation maps (_orbit_labels),
    which come from the tree (_conjugation_maps), so no conjugate is
    sifted.  The representatives' orders come from one batched walk of
    their base images (_base_walk), which keeps nothing; ClassData.powers
    walks again on first use.
    """
    lab = _orbit_labels(_conjugation_maps(group), np.arange(group.order, dtype=np.int32))
    seeds, class_of = _orbit_index(lab)
    sizes = np.bincount(class_of).tolist()
    orders = np.zeros(len(seeds), dtype=np.int64)
    for live, _ in _base_walk(group, seeds):
        orders[live] += 1
    raw = list(zip(orders.tolist(), sizes, seeds.tolist()))
    order_key = sorted(range(len(raw)), key=raw.__getitem__)
    relabel = np.empty(len(raw), dtype=np.int32)
    relabel[order_key] = np.arange(len(raw), dtype=np.int32)
    return ClassData(
        group=group,
        k=len(raw),
        reps=tuple(raw[c][2] for c in order_key),
        sizes=tuple(raw[c][1] for c in order_key),
        class_of=relabel[class_of],
        element_orders=tuple(raw[c][0] for c in order_key),
    )


def power_map(classes: ClassData, k: int) -> tuple[int, ...]:
    """The full map class -> class of rep**k."""
    return tuple(classes.power_map(i, k) for i in range(classes.k))


def element_order_spectrum(group: PermGroup) -> tuple[int, ...]:
    """Sorted orders of the non-identity elements."""
    return tuple(sorted(set(conjugacy_classes(group).element_orders) - {1}))


@dataclass(eq=False)
class Subgroup:
    """A subgroup H given by its element ids inside an enumerated parent.

    generator_ids is a generating list of at most log2 |H| ids (_generated).
    """

    parent: PermGroup
    element_ids: frozenset[int]
    generator_ids: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.element_ids)

    def as_group(self) -> PermGroup:
        gens = [self.parent.element(i) for i in self.generator_ids]
        return enumerate_group(self.parent.degree, gens)


def _generated(group: PermGroup, seeds, conj=None) -> tuple[list[int], np.ndarray]:
    """T, sorted, with <T> = <seeds>, or the normal closure of the seeds given
    the conjugation maps conj; and the orbit labels of the maps
    {right_map(t) : t in T}.

    The orbit of x under right multiplication by T is the left coset x<T>,
    so <T> is the orbit of the identity, the ids labelled 0.  T grows by
    the first seed outside <T>; given conj, once every seed is inside, by
    the first conjugate g_i^-1 t g_i (t in T) outside.  It stops when there
    is none: then <T> holds the seeds, and each g_i conjugates T, so <T>,
    into <T>, which is then normal.  Every t added lies in the subgroup
    sought, and takes <T> to a larger subgroup, whose order is a multiple
    of the old: so |<T>| at least doubles each time, and T has at most
    log2 |<T>| elements.  The old labels stay below each id and inside its
    coset, which only grows, so the fixpoint resumes from them.
    """
    seeds = np.asarray(seeds, dtype=np.intp)
    lab = np.arange(group.order, dtype=np.int32)
    gens: list[int] = []
    maps: list[np.ndarray] = []
    while True:
        outside = seeds[lab[seeds] != 0]
        if not outside.size and conj is not None:
            conjugates = conj[:, gens].ravel()
            outside = conjugates[lab[conjugates] != 0]
        if not outside.size:
            return sorted(gens), lab
        gens.append(int(outside[0]))
        maps.append(group.right_map(gens[-1]))
        lab = _orbit_labels(maps, lab)


def derived_subgroup(group: PermGroup) -> Subgroup:
    """Normal closure of the commutators [g_i, g_j] = g_i^-1 g_j^-1 g_i g_j of
    the generator pairs.

    right[i] is a permutation of the ids with id(g_i^-1 * g_i) = 0, so g_i^-1
    is where it holds 0; likewise g_i^-1 g_j^-1 is where right[j] holds
    id(g_i^-1), and then [g_i, g_j] = right[j][right[i][g_i^-1 g_j^-1]].
    """
    right = group.right
    inv = right.argmin(axis=1).tolist()
    seeds = [right[j, right[i, int(np.argmax(right[j] == inv[i]))]]
             for i in range(len(inv)) for j in range(len(inv))]
    gens, lab = _generated(group, seeds, _conjugation_maps(group))
    return Subgroup(group, frozenset(np.flatnonzero(lab == 0).tolist()), tuple(gens))


def quotient_group(group: PermGroup, normal) -> PermGroup:
    """Action of the group on the cosets of a normal subgroup, given as a
    Subgroup of group, a PermGroup inside it, or a set of element ids.

    The cosets are the orbits of the subgroup's right maps (_generated), and
    they are indexed by their smallest contained element id.  A set of ids
    that are not element ids (PermGroup._id) or not a subgroup, a PermGroup
    not inside group, or a subgroup that some generator does not conjugate
    into itself, raises ValueError.
    """
    if isinstance(normal, Subgroup):
        if normal.parent is not group:
            raise ValueError("subgroup belongs to a different parent group")
        normal = normal.element_ids
    if isinstance(normal, PermGroup):
        try:
            seeds, order = [group.id_of(g) for g in normal.generators], normal.order
        except KeyError:
            raise ValueError(f"{normal!r} is not inside {group!r}") from None
    else:
        seeds = sorted({group._id(i) for i in normal})
        order = len(seeds)
    _, lab = _generated(group, seeds)
    members = np.flatnonzero(lab == 0)
    if len(members) != order:
        raise ValueError(f"the {order} element ids are not a subgroup: "
                         f"they generate one of order {len(members)}")
    if lab[_conjugation_maps(group)[:, members]].any():
        raise ValueError("subgroup is not normal")
    reps, coset_of = _orbit_index(lab)
    gens = [Permutation(coset_of[row[reps]]) for row in group.right]
    quo = enumerate_group(len(reps), gens)
    if quo.order * order != group.order:
        raise ArithmeticError("coset action has the wrong order")  # pragma: no cover
    return quo

