"""Named constructors for every group family the verifier needs, plus the
group-spec grammar.

Grammar (ASCII, case-sensitive, no whitespace):

    spec := atom ("x" atom)*
    atom := NAME NUM | NAME "(" NUM ("," NUM)* ")"
    NAME := C | D | F | A | S | PSL | SL | Sz | Frob

"F20", "F21", "F52" are sugar for the Frobenius groups Frob(5,4), Frob(7,3),
Frob(13,4) (the subscript is the group order); any other "F n" is rejected
as ambiguous.  "D n" follows the order convention: the dihedral group OF
ORDER n, n even, n >= 6.
"""

from __future__ import annotations

import functools
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
# Each family returns (degree, generators), and build is the one way from a
# spec to a group: it enumerates them, so a direct product is built from its
# factors' generators alone.


def _cycle_perm(degree: int, *cycles) -> Permutation:
    images = list(range(degree))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(images)


def cyclic(n: int):
    if n < 1:
        raise SpecSemanticError("cyclic group needs n >= 1")
    check_size(n, n, 1)
    return n, [_cycle_perm(n, tuple(range(n)))]


def dihedral(n: int):
    """Dihedral group of order n (order convention); _atom_spec has checked
    that n is even and >= 6."""
    m = n // 2
    check_size(n, m, 2)
    rot = _cycle_perm(m, tuple(range(m)))
    refl = Permutation([(m - i) % m for i in range(m)])
    return m, [rot, refl]


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
    trans = Permutation([(x + 1) % p for x in range(p)])
    mult = Permutation([a * x % p for x in range(p)])
    return p, [trans, mult]


def symmetric(n: int):
    if not 2 <= n <= 9:
        raise SpecSemanticError("S n is supported for 2 <= n <= 9")
    gens = [_cycle_perm(n, (0, 1))]
    if n > 2:
        gens.append(_cycle_perm(n, tuple(range(n))))
    return n, gens


def alternating(n: int):
    if not 2 <= n <= 9:
        raise SpecSemanticError("A n is supported for 2 <= n <= 9")
    if n == 2:
        return 2, []
    if n == 3:
        return 3, [_cycle_perm(3, (0, 1, 2))]
    if n % 2:
        long = _cycle_perm(n, tuple(range(n)))
    else:
        long = _cycle_perm(n, tuple(range(1, n)))
    return n, [long, _cycle_perm(n, (0, 1, 2))]


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
        perms.append(Permutation(where[images @ place].tolist()))
    return len(points), perms


def psl2(q: int):
    """Image of SL(2,q) acting on the projective line (q + 1 points): (x : 1)
    for each field element in encoding order, then infinity (1 : 0)."""
    if not 4 <= q <= 32:
        raise SpecSemanticError("PSL(2,q) is supported for 4 <= q <= 32")
    F = _field_of_order(q)
    line = np.array([(x, 1) for x in range(q)] + [(1, 0)])
    return _point_action(F, _sl2_generators(F), _projective(F, line), projective=True)


def sl2(q: int):
    """SL(2,q) acting faithfully on the q^2 - 1 nonzero vectors (i, j), in
    the order of the encodings i * q + j."""
    if not 4 <= q <= 32:
        raise SpecSemanticError("SL(2,q) is supported for 4 <= q <= 32")
    F = _field_of_order(q)
    points = np.stack(np.divmod(np.arange(1, q * q), q), axis=1)
    return _point_action(F, _sl2_generators(F), points)


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
    return _point_action(F, gens, np.array(points), projective=True)


def _product_generators(factors):
    degree = sum(d for d, _ in factors)
    # a factor with a non-identity generator has at least 2 elements, so the
    # product has at least 2^moving: refuse it before a generator is built.
    # 2^bit_length(DEFAULT_CAP) already passes the cap, so the bound stops there
    moving = sum(any(i != x for g in gens for i, x in enumerate(g.images))
                 for _, gens in factors)
    check_size(2 ** min(moving, DEFAULT_CAP.bit_length()), degree,
               sum(len(gens) for _, gens in factors))
    gens = []
    offset = 0
    for d, factor_gens in factors:
        for gen in factor_gens:
            images = list(range(degree))
            for i, j in enumerate(gen.images):
                images[offset + i] = offset + j
            gens.append(Permutation(images))
        offset += d
    return degree, gens


# -- group specs and the parser ---------------------------------------------


_FROBENIUS_SUGAR = {20: (5, 4), 21: (7, 3), 52: (13, 4)}
_NAMES = ("Frob", "PSL", "SL", "Sz", "C", "D", "F", "A", "S")
_ARITY = {"C": 1, "D": 1, "F": 1, "A": 1, "S": 1, "Sz": 1, "PSL": 2, "SL": 2, "Frob": 2}


@dataclass(frozen=True)
class GroupSpec:
    """Parsed form of a group expression."""

    kind: str
    args: tuple[int, ...] = ()
    factors: tuple["GroupSpec", ...] = ()

    def __str__(self) -> str:
        if self.kind == "Product":
            return "x".join(str(f) for f in self.factors)
        if self.kind == "Frob":
            order = self.args[0] * self.args[1]
            if _FROBENIUS_SUGAR.get(order) == self.args:
                return f"F{order}"
            return f"Frob({self.args[0]},{self.args[1]})"
        if self.kind in ("PSL", "SL"):
            return f"{self.kind}({self.args[0]},{self.args[1]})"
        if self.kind == "Sz":
            return f"Sz({self.args[0]})"
        return f"{self.kind}{self.args[0]}"


def parse_spec(text: str) -> GroupSpec:
    """Parse the grammar above; syntax errors carry a position."""
    pos = 0

    def error(msg):
        raise SpecSyntaxError(msg, pos)

    def parse_num():
        nonlocal pos
        start = pos
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos:
            error("expected a number")
        return int(text[start:pos])

    def parse_atom():
        nonlocal pos
        for name in _NAMES:
            if text.startswith(name, pos):
                pos += len(name)
                break
        else:
            error("expected a group name (C, D, F, A, S, PSL, SL, Sz, Frob)")
        if pos < len(text) and text[pos] == "(":
            pos += 1
            args = [parse_num()]
            while pos < len(text) and text[pos] == ",":
                pos += 1
                args.append(parse_num())
            if pos >= len(text) or text[pos] != ")":
                error("expected ')'")
            pos += 1
        else:
            args = [parse_num()]
        return _atom_spec(name, tuple(args))

    atoms = [parse_atom()]
    while pos < len(text) and text[pos] == "x":
        pos += 1
        atoms.append(parse_atom())
    if pos != len(text):
        error("unexpected trailing input")
    if len(atoms) == 1:
        return atoms[0]
    return GroupSpec("Product", factors=tuple(atoms))


def _atom_spec(name: str, args: tuple[int, ...]) -> GroupSpec:
    if len(args) != _ARITY[name]:
        raise SpecSemanticError(f"{name} takes {_ARITY[name]} argument(s), got {len(args)}")
    if name == "F":
        pk = _FROBENIUS_SUGAR.get(args[0])
        if pk is None:
            raise SpecSemanticError(
                f"F{args[0]} is ambiguous; use the explicit form Frob(p,k)")
        return GroupSpec("Frob", pk)
    if name == "D" and (args[0] % 2 or args[0] < 6):
        raise SpecSemanticError(
            f"D{args[0]}: the subscript is the group order, so n must be even and >= 6")
    if name == "PSL" or name == "SL":
        if args[0] != 2:
            raise SpecSemanticError(f"only {name}(2,q) is supported")
    return GroupSpec(name, args)


_FAMILIES = {
    "C": cyclic,
    "D": dihedral,
    "A": alternating,
    "S": symmetric,
    "Sz": sz,
    "Frob": frobenius,
    "PSL": psl2,
    "SL": sl2,
}


def _generators(spec: GroupSpec):
    if spec.kind == "Product":
        return _product_generators([_generators(f) for f in spec.factors])
    if spec.kind in ("PSL", "SL"):
        return _FAMILIES[spec.kind](spec.args[1])
    return _FAMILIES[spec.kind](*spec.args)


@functools.lru_cache(maxsize=None)
def _build_cached(canonical: str) -> PermGroup:
    return enumerate_group(*_generators(parse_spec(canonical)))


def build(spec) -> PermGroup:
    """Construct the group named by a GroupSpec or spec string (cached)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    return _build_cached(str(spec))
