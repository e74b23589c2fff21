"""Named constructors for every group family the verifier needs, plus the
group-spec grammar.

Grammar (ASCII, case-sensitive, no whitespace):

    spec  := atom ("x" atom)*
    atom  := NAME NUM | NAME "(" NUM ("," NUM)* ")" | "<" perm ("," perm)* ">"
    NAME  := C | D | F | A | S | PSL | SL | Sz | Frob
    perm  := "()" | cycle cycle*
    cycle := "(" NUM "," NUM ("," NUM)* ")"

"F20", "F21", "F52" are sugar for the Frobenius groups Frob(5,4), Frob(7,3),
Frob(13,4) (the subscript is the group order); any other "F n" is rejected
as ambiguous.  "D n" follows the order convention: the dihedral group OF
ORDER n, n even, n >= 6.

"<...>" is the group generated by permutations in GAP's cycle notation, with
disjoint cycles of points >= 1; the degree is the largest point (1 for
"<()>").  The canonical form starts each cycle at its smallest point and
sorts the cycles, but keeps the generators in order, as that fixes the
element ids: "<(3,1,2),(5,4)(2,1)>" is "<(1,2,3),(1,2)(4,5)>".
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import element_of_order, factorize, is_prime, units
from .gf import field
from .perm import DEFAULT_CAP, PermGroup, Permutation, check_size, enumerate_group


class SpecSyntaxError(ValueError):
    """Malformed spec text; .position is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpecSemanticError(ValueError):
    """Well-formed spec naming a group this package cannot construct."""


# -- constructors -----------------------------------------------------------
#
# Each family returns (degree, generators, order), with order |G| in closed
# form, or None for a cycle spec, and build is the one way from a spec to a
# group: it enumerates the generators, so a direct product is built from its
# factors' generators alone, and its stabilizer chain stops sifting once it
# reaches the order (perm.schreier_sims).


def _cycle_perm(degree: int, *cycles) -> Permutation:
    """The permutation of range(degree) with the given disjoint cycles; a
    negative point is refused, where numpy would wrap it round to the end."""
    images = np.arange(degree, dtype=np.int32)
    for cyc in map(np.asarray, cycles):
        if cyc.min() < 0:
            raise ValueError("images do not define a bijection")
        images[cyc] = np.roll(cyc, -1)
    return Permutation(images)


def cyclic(n: int):
    if n < 1:
        raise SpecSemanticError("cyclic group needs n >= 1")
    check_size(n, n, 1)
    return n, [_cycle_perm(n, range(n))], n


def dihedral(n: int):
    """Dihedral group of order n (order convention); GroupSpec has checked
    that n is even and >= 6."""
    m = n // 2
    check_size(n, m, 2)
    rot = _cycle_perm(m, range(m))
    refl = Permutation(-np.arange(m) % m)
    return m, [rot, refl], n


def frobenius(p: int, k: int):
    """C_p : C_k acting on p points as x -> a*x + b, a the least of order k in (Z/p)*."""
    if not is_prime(p) or p == 2:
        raise SpecSemanticError(f"Frob({p},{k}): p must be an odd prime")
    if k < 2 or (p - 1) % k:
        raise SpecSemanticError(f"Frob({p},{k}): k must divide p-1 and be >= 2")
    check_size(p * k, p, 2)
    # (Z/p)* is cyclic, so its elements of order k are theta^j, gcd(j, k) = 1
    theta = element_of_order(k, p)
    a = min(pow(theta, j, p) for j in units(k))
    return p, [_cycle_perm(p, range(p)), Permutation(a * np.arange(p) % p)], p * k


def from_cycles(*generators):
    """A "<...>" spec's generators, checked first on 2 elements if one moves a
    point; its order is unknown."""
    degree = max((p for gen in generators for cyc in gen for p in cyc), default=1)
    check_size(2 if any(generators) else 1, degree, len(generators))
    return degree, [_cycle_perm(degree, *(np.subtract(cyc, 1) for cyc in gen))
                    for gen in generators], None


def symmetric(n: int):
    if not 2 <= n <= 9:
        raise SpecSemanticError("S n is supported for 2 <= n <= 9")
    gens = [_cycle_perm(n, (0, 1))]
    if n > 2:
        gens.append(_cycle_perm(n, range(n)))
    return n, gens, math.factorial(n)


def alternating(n: int):
    if not 2 <= n <= 9:
        raise SpecSemanticError("A n is supported for 2 <= n <= 9")
    order = math.factorial(n) // 2
    if n == 2:
        return 2, [], order
    if n == 3:
        return 3, [_cycle_perm(3, (0, 1, 2))], order
    # an n-cycle is even for odd n; for even n the (n-1)-cycle fixing 0 is
    long = _cycle_perm(n, range(1 - n % 2, n))
    return n, [long, _cycle_perm(n, (0, 1, 2))], order


def _field_of_order(q: int):
    f = factorize(q)
    if len(f) != 1:
        raise SpecSemanticError(f"{q} is not a prime power")
    (p, m), = f.items()
    return field(p, m)


def _sl2_generators(F):
    # upper unipotents over the additive basis p^i plus the Weyl element
    # generate SL2; -1 is the encoding p - 1
    gens = [((1, F.p**i), (0, 1)) for i in range(F.m)]
    gens.append(((0, 1), (F.p - 1, 0)))
    return gens


# Points are vectors over GF(q), one row of field encodings each, and a
# matrix acts on all of them at once through F's add, mul and inv tables.


def _mat_apply(F, mat, vecs):
    """The rows mat * v for the rows v of vecs, one table lookup per entry
    of mat and all rows at once."""
    out = np.empty_like(vecs)
    for r, row in enumerate(mat):
        acc = F.mul[row[0], vecs[:, 0]]
        for a, col in zip(row[1:], vecs.T[1:]):
            acc = F.add[acc, F.mul[a, col]]
        out[:, r] = acc
    return out


def _projective(F, vecs):
    """Each nonzero row of vecs scaled so that its first nonzero entry is 1:
    one row per point of projective space."""
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    return F.mul[F.inv[lead][:, None], vecs]


def _point_action(F, mats, points, projective=False):
    """The permutations of the rows of points, in row order, by which the
    matrices act: row v goes to mat * v, through _projective if projective.
    A row is found by its entries read as base-q digits, in an array of
    q^dim entries (at most 8^4 = 4096, for Sz(8))."""
    q, dim = F.order, points.shape[1]
    place = q ** np.arange(dim)
    where = np.full(q**dim, -1)
    where[points @ place] = np.arange(len(points))
    perms = []
    for mat in mats:
        images = _mat_apply(F, mat, points)
        if projective:
            images = _projective(F, images)
        perms.append(Permutation(where[images @ place]))
    return len(points), perms


def psl2(q: int):
    """Image of SL(2,q) acting on the projective line (q + 1 points): (x : 1)
    for each field element in encoding order, then infinity (1 : 0)."""
    if not 4 <= q <= 32:
        raise SpecSemanticError("PSL(2,q) is supported for 4 <= q <= 32")
    F = _field_of_order(q)
    line = np.array([(x, 1) for x in range(q)] + [(1, 0)])
    degree, gens = _point_action(F, _sl2_generators(F), _projective(F, line), projective=True)
    return degree, gens, q * (q * q - 1) // math.gcd(2, q - 1)


def sl2(q: int):
    """SL(2,q) acting faithfully on the q^2 - 1 nonzero vectors (i, j), in
    the order of the encodings i * q + j."""
    if not 4 <= q <= 32:
        raise SpecSemanticError("SL(2,q) is supported for 4 <= q <= 32")
    F = _field_of_order(q)
    points = np.stack(np.divmod(np.arange(1, q * q), q), axis=1)
    degree, gens = _point_action(F, _sl2_generators(F), points)
    return degree, gens, q * (q * q - 1)


# -- the Suzuki group -------------------------------------------------------
#
# Sz(q), q = 2^(2t+1), is built from its 4x4 matrix generators over GF(q)
# with the twist s(x) = x^(2^(t+1)) (so s∘s is the squaring Frobenius):
#
#   u(a,b) = [1  a  s(a)a+b  f(a,b)]      f(a,b) = s(a)a^2 + ab + s(b)
#            [0  1  s(a)     b     ]
#            [0  0  1        a     ]
#            [0  0  0        1     ]
#
#   m(k)   = diag(s(k)k^2, s(k)k, k, 1),   w = the antidiagonal involution.
#
# These stabilize the ovoid O = {(1:0:0:0)} u {(f(a,b) : b : a : 1)}; the
# permutation representation is the action on the orbit of (1:0:0:0),
# which must have exactly q^2 + 1 points.


def sz(q: int):
    if q != 8:
        # q = 2^(2t+1), t >= 1; only q = 8 is inside the element cap
        f = factorize(q) if q > 1 else {}
        if list(f) != [2] or f[2] < 3 or f[2] % 2 == 0:
            raise SpecSemanticError(f"Sz({q}): q must be 2^(2t+1) with t >= 1")
        raise SpecSemanticError(f"Sz({q}) exceeds the desk cap (only Sz(8) is built)")
    F = field(2, 3)
    add, mul = F.add, F.mul

    def s(x):  # x^(2^(t+1)) = x^4, t = 1
        return mul[mul[x, x], mul[x, x]]

    def f_form(a, b):
        return add[add[mul[mul[s(a), a], a], mul[a, b]], s(b)]

    def u(a, b):
        return ((1, a, add[mul[s(a), a], b], f_form(a, b)),
                (0, 1, s(a), b),
                (0, 0, 1, a),
                (0, 0, 0, 1))

    kappa = 2  # the class of x; 7 is prime, so it generates GF(8)*
    m_kappa = ((mul[mul[s(kappa), kappa], kappa], 0, 0, 0),
               (0, mul[s(kappa), kappa], 0, 0),
               (0, 0, kappa, 0),
               (0, 0, 0, 1))
    w = ((0, 0, 0, 1),
         (0, 0, 1, 0),
         (0, 1, 0, 0),
         (1, 0, 0, 0))
    gens = [u(1, 0), u(0, 1), m_kappa, w]

    # the orbit of (1:0:0:0), breadth first, each point's images in
    # generator order: a frontier's images point-major, first occurrences kept
    points, seen = [(1, 0, 0, 0)], {(1, 0, 0, 0)}
    frontier = np.array(points)
    while len(frontier):
        images = np.stack([_projective(F, _mat_apply(F, mat, frontier))
                           for mat in gens], axis=1)
        new = [pt for pt in dict.fromkeys(map(tuple, images.reshape(-1, 4).tolist()))
               if pt not in seen]
        seen.update(new)
        points += new
        frontier = np.array(new, dtype=frontier.dtype).reshape(-1, 4)
    if len(points) != q * q + 1:
        raise ArithmeticError(
            f"Suzuki ovoid orbit has {len(points)} points, expected {q * q + 1}")
    degree, perms = _point_action(F, gens, np.array(points), projective=True)
    return degree, perms, q * q * (q * q + 1) * (q - 1)


def _product_generators(factors):
    """The direct product's degree, generators and order, the product of its
    factors' orders, unknown if one of them is."""
    degree = sum(d for d, _, _ in factors)
    # a factor with a non-identity generator has at least 2 elements, so the
    # product has at least 2^moving: refuse it before a generator is built.
    # 2^bit_length(DEFAULT_CAP) already passes the cap, so the bound stops there
    moving = sum(any((g.images != np.arange(d)).any() for g in gens) for d, gens, _ in factors)
    check_size(2 ** min(moving, DEFAULT_CAP.bit_length()), degree,
               sum(len(gens) for _, gens, _ in factors))
    gens = []
    offset = 0
    for d, factor_gens, _ in factors:
        for gen in factor_gens:
            images = np.arange(degree, dtype=np.int32)
            images[offset:offset + d] = gen.images + offset
            gens.append(Permutation(images))
        offset += d
    orders = [order for _, _, order in factors]
    return degree, gens, None if None in orders else math.prod(orders)


# -- group specs and the parser ---------------------------------------------


_FROBENIUS_SUGAR = {20: (5, 4), 21: (7, 3), 52: (13, 4)}
# the names in the order the parser tries them, each before its prefixes
_ARITY = {"Frob": 2, "PSL": 2, "SL": 2, "Sz": 1, "C": 1, "D": 1, "F": 1, "A": 1, "S": 1}


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group expression: a family's integer arguments, or
    for kind "Cycles" the generators, each a tuple of canonical cycles."""

    kind: str
    args: tuple = ()
    factors: tuple["GroupSpec", ...] = ()

    def __post_init__(self):
        """Refuse a spec that build could not construct as named; parse_spec
        meets a generator's faults first, as syntax errors at a position."""
        kind, args = self.kind, self.args
        if kind in _ARITY and len(args) != _ARITY[kind]:
            raise SpecSemanticError(f"{kind} takes {_ARITY[kind]} argument(s), got {len(args)}")
        if kind not in _FAMILIES and kind != "Product":
            raise SpecSemanticError(f"unknown group kind {kind!r}")
        if kind == "D" and (args[0] % 2 or args[0] < 6):
            raise SpecSemanticError(
                f"D{args[0]}: the subscript is the group order, so n must be even and >= 6")
        if kind in ("PSL", "SL") and args[0] != 2:
            raise SpecSemanticError(f"only {kind}(2,q) is supported")
        for gen in args if kind == "Cycles" else ():
            points = [p for cyc in gen for p in cyc]
            if min(points, default=1) < 1 or len(set(points)) < len(points):
                raise SpecSemanticError(f"generator {gen}: points must be distinct and >= 1")

    def __str__(self) -> str:
        if self.kind == "Product":
            return "x".join(str(f) for f in self.factors)
        if self.kind == "Cycles":
            return "<" + ",".join(
                "".join("(" + ",".join(map(str, cyc)) + ")" for cyc in gen) or "()"
                for gen in self.args) + ">"
        if self.kind == "Frob" and _FROBENIUS_SUGAR.get(self.args[0] * self.args[1]) == self.args:
            return f"F{self.args[0] * self.args[1]}"
        if self.kind in ("Frob", "PSL", "SL", "Sz"):
            return f"{self.kind}({','.join(map(str, self.args))})"
        return f"{self.kind}{self.args[0]}"


def parse_spec(text: str) -> GroupSpec:
    """Parse the grammar above; syntax errors carry a position."""
    pos = 0

    def error(msg, at=None):
        raise SpecSyntaxError(msg, pos if at is None else at)

    def expect(char):
        nonlocal pos
        if not text.startswith(char, pos):
            error(f"expected '{char}'")
        pos += 1

    def parse_num():
        nonlocal pos
        start = pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        if start == pos:
            error("expected a number")
        return int(text[start:pos])

    def parse_list():
        # "(" NUM ("," NUM)* ")" as (position, number) pairs
        nonlocal pos
        expect("(")
        nums = [(pos, parse_num())]
        while text.startswith(",", pos):
            pos += 1
            nums.append((pos, parse_num()))
        expect(")")
        return nums

    def parse_perm():
        # "()" or disjoint cycles, each rotated to start at its smallest point
        nonlocal pos
        if text.startswith("()", pos):
            pos += 2
            return ()
        cycles, seen = [], {0}
        while not cycles or text.startswith("(", pos):
            start, cyc = pos, parse_list()
            for at, p in cyc:
                if p in seen:
                    error(f"point {p} is repeated in one generator" if p else
                          "point 0: points start at 1", at)
                seen.add(p)
            if len(cyc) < 2:
                error("a cycle needs at least two points", start)
            cyc = [p for _, p in cyc]
            i = cyc.index(min(cyc))
            cycles.append(tuple(cyc[i:] + cyc[:i]))
        return tuple(sorted(cycles))

    def parse_atom():
        nonlocal pos
        if text.startswith("<", pos):
            gens = []
            while not gens or text.startswith(",", pos):
                pos += 1
                gens.append(parse_perm())
            expect(">")
            return GroupSpec("Cycles", tuple(gens))
        for name in _ARITY:
            if text.startswith(name, pos):
                pos += len(name)
                break
        else:
            error("expected a group name (C, D, F, A, S, PSL, SL, Sz, Frob) or '<'")
        nums = parse_list() if text.startswith("(", pos) else [(pos, parse_num())]
        return _atom_spec(name, tuple(n for _, n in nums))

    atoms = [parse_atom()]
    while text.startswith("x", pos):
        pos += 1
        atoms.append(parse_atom())
    if pos != len(text):
        error("unexpected trailing input")
    return atoms[0] if len(atoms) == 1 else GroupSpec("Product", factors=tuple(atoms))


def _atom_spec(name: str, args: tuple[int, ...]) -> GroupSpec:
    """A family atom's spec, with "F n" read as the Frobenius group it names;
    GroupSpec checks the rest."""
    if name == "F" and len(args) == 1:
        if args[0] not in _FROBENIUS_SUGAR:
            raise SpecSemanticError(
                f"F{args[0]} is ambiguous; use the explicit form Frob(p,k)")
        return GroupSpec("Frob", _FROBENIUS_SUGAR[args[0]])
    return GroupSpec(name, args)


_FAMILIES = {"C": cyclic, "D": dihedral, "A": alternating, "S": symmetric, "Sz": sz,
             "Frob": frobenius, "PSL": psl2, "SL": sl2, "Cycles": from_cycles}


def _generators(spec: GroupSpec):
    if spec.kind == "Product":
        return _product_generators([_generators(f) for f in spec.factors])
    if spec.kind in ("PSL", "SL"):
        return _FAMILIES[spec.kind](spec.args[1])
    return _FAMILIES[spec.kind](*spec.args)


@functools.lru_cache(maxsize=None)
def _build_cached(spec: GroupSpec) -> PermGroup:
    degree, generators, order = _generators(spec)
    return enumerate_group(degree, generators, order=order)


def build(spec) -> PermGroup:
    """Construct the group named by a GroupSpec or spec string, cached by
    its GroupSpec."""
    return _build_cached(parse_spec(spec) if isinstance(spec, str) else spec)
