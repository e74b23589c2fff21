"""Exact finite field arithmetic GF(p^m) for the matrix-group constructors.

Elements are coefficient vectors over GF(p) reduced modulo a fixed monic
irreducible modulus.  The modulus is the lexicographically smallest monic
irreducible polynomial of degree m, coefficients read from the leading
term down, so every field has one published model and the generator
matrices built on top of it are reproducible.

Element i of the model has the base-p digits of i as its coordinates, and
field(p, m) interns one FieldElem per i.  The polynomial model is used
once per field, to find the modulus and to build O(q) tables, q = p^m
(Zech logarithms; Lidl & Niederreiter, *Finite Fields*, ch. 10):

* the primitive element g is the element of smallest encoding whose
  powers g^0, ..., g^(q-2) are pairwise distinct, found by multiplying
  out those powers in the polynomial model; they are the antilog table;
* the log of a nonzero x is the k with g^k = x;
* the Zech table holds Z(k) = log(1 + g^k), or None when 1 + g^k = 0.

Then x*y = g^(log x + log y), x^-1 = g^(-log x), x^e = g^(e log x),
-x = g^(log x + log(-1)) with log(-1) = (q-1)/2 for odd p and 0 for
p = 2, and x + y = x(1 + y/x) = g^(log x + Z(log y - log x)).  Every
operation is an index lookup that returns an interned element, and the
tables take O(q) space and O(q) multiplications in the model to build.
FieldSpec.tables applies the same rules to every pair of encodings at
once, for callers that act on many vectors of encodings.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .arith import is_prime
from .modp import poly_mod, poly_mul


@functools.lru_cache(maxsize=None)
def field(p: int, m: int = 1) -> "FieldSpec":
    """The field GF(p^m) with its fixed modulus and its log tables."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    return FieldSpec(p, m, _smallest_irreducible(p, m))


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    # trial division by every monic polynomial of degree <= m // 2
    m = len(coeffs) - 1
    if coeffs[0] == 0:
        return False
    for d in range(1, m // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            if not poly_mod(coeffs, list(lower) + [1], p):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)  # the polynomial x: GF(p)[x]/(x) = GF(p)
    # candidates ordered by coefficient tuples read high-to-low
    for high_to_low in itertools.product(range(p), repeat=m):
        coeffs = tuple(reversed((1,) + high_to_low))  # stored low-to-high
        if _is_irreducible(coeffs, p):
            return coeffs
    raise ArithmeticError("no irreducible polynomial found")  # pragma: no cover


def _digits(i: int, p: int, m: int) -> tuple[int, ...]:
    return tuple(i // p**j % p for j in range(m))


def _encode(coeffs, p: int) -> int:
    return sum(c * p**j for j, c in enumerate(coeffs))


def _antilogs(p: int, m: int, modulus: tuple[int, ...]) -> list[int]:
    """Encodings of g^0, ..., g^(q-2) for the primitive g of smallest encoding."""
    q = p**m
    for i in range(1, q):
        g, x, walk = _digits(i, p, m), [1], [1]
        # the walk stops at the first power equal to 1, so g is primitive
        # exactly when it has q - 1 steps
        while (x := poly_mod(poly_mul(x, g, p), modulus, p)) != [1]:
            walk.append(_encode(x, p))
        if len(walk) == q - 1:
            return walk
    raise ArithmeticError("no primitive element found")  # pragma: no cover


class FieldSpec:
    """A model of GF(p^m), made by field(p, m); g, its log base, generates GF(q)*."""

    __slots__ = ("p", "m", "modulus", "order", "_elems", "_power", "_zech", "_neg_log",
                 "_tables")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus  # low-to-high, monic, length m + 1
        self.order = q = p**m
        exp = _antilogs(p, m, modulus)
        log = [None] * q
        for k, i in enumerate(exp):
            log[i] = k
        self._elems = [FieldElem(self, i, _digits(i, p, m), log[i]) for i in range(q)]
        # power[k] = g^k for 0 <= k < 2(q - 1): a sum of two logs needs no reduction
        self._power = [self._elems[exp[k % (q - 1)]] for k in range(2 * (q - 1))]
        # 1 + x adds 1 to the lowest base-p digit of x's encoding
        self._zech = [log[i + 1 if i % p != p - 1 else i + 1 - p] for i in exp]
        self._neg_log = (q - 1) // 2 if p % 2 else 0
        self._tables = None

    def __repr__(self):
        return f"GF({self.order})"

    def elem(self, coeffs) -> "FieldElem":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.m:
            cs = poly_mod(cs, self.modulus, self.p)
        return self._elems[_encode(cs, self.p)]

    def from_int(self, i: int) -> "FieldElem":
        """Element with base-p digits of i as coordinates (0 <= i < order)."""
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        return self._elems[i]

    @property
    def zero(self) -> "FieldElem":
        return self._elems[0]

    @property
    def one(self) -> "FieldElem":
        return self._elems[1]

    def elements(self):
        """All elements, in integer-encoding order."""
        return list(self._elems)

    def tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(add, mul, inv) on the encodings: add[i, j] and mul[i, j] encode
        x_i + x_j and x_i * x_j, and inv[i] encodes x_i^-1, x_i the element
        with encoding i; inv[0] is 0.  Built on first use and kept, q^2
        entries each, read-only.

        FieldElem's rules on every pair at once: for nonzero x_i, x_j with
        logs a and b, x_i * x_j = g^(a + b), x_i^-1 = g^(-a) and
        x_i + x_j = g^(a + Z(b - a)), exponents mod q - 1, and 0 where Z is
        None; a sum or product with 0 is read off directly.
        """
        if self._tables is None:
            q, n = self.order, self.order - 1
            exp = np.array([x.i for x in self._power[:n]])
            log = np.array([x.log or 0 for x in self._elems])[:, None]
            zech = np.array([-1 if z is None else z for z in self._zech])
            mul = exp[(log + log.T) % n]
            mul[0] = mul[:, 0] = 0
            z = zech[(log.T - log) % n]
            add = np.where(z < 0, 0, exp[(log + z) % n])
            add[0] = add[:, 0] = np.arange(q)
            inv = exp[-log[:, 0] % n]
            inv[0] = 0
            for table in (add, mul, inv):
                table.flags.writeable = False
            self._tables = add, mul, inv
        return self._tables


class FieldElem:
    """Immutable element of a FieldSpec, interned by its integer encoding."""

    __slots__ = ("spec", "i", "coeffs", "log")

    def __init__(self, spec: FieldSpec, i: int, coeffs: tuple[int, ...], log: int | None):
        self.spec = spec
        self.i = i
        self.coeffs = coeffs
        self.log = log  # None for zero

    def _check(self, other: "FieldElem"):
        if not isinstance(other, FieldElem) or other.spec is not self.spec:
            raise ValueError("operands live in different fields")

    def __add__(self, other):
        self._check(other)
        if not other.i:
            return self
        if not self.i:
            return other
        spec = self.spec
        # a negative difference indexes the Zech table from its end, mod q - 1
        z = spec._zech[other.log - self.log]
        return spec._elems[0] if z is None else spec._power[self.log + z]

    def __sub__(self, other):
        self._check(other)
        if not other.i:
            return self
        return self + self.spec._power[other.log + self.spec._neg_log]

    def __mul__(self, other):
        self._check(other)
        if not (self.i and other.i):
            return self.spec._elems[0]
        return self.spec._power[self.log + other.log]

    def inv(self) -> "FieldElem":
        if not self.i:
            raise ZeroDivisionError("inversion of zero field element")
        return self.spec._power[self.spec.order - 1 - self.log]

    def __pow__(self, e: int) -> "FieldElem":
        if not self.i:
            if e < 0:
                raise ZeroDivisionError("inversion of zero field element")
            return self.spec.one if e == 0 else self
        return self.spec._power[self.log * e % (self.spec.order - 1)]

    def frobenius(self, e: int = 1) -> "FieldElem":
        """x -> x^(p^e)."""
        return self ** (self.spec.p**e)

    def __bool__(self):
        return self.i != 0

    def __eq__(self, other):
        return isinstance(other, FieldElem) and self.spec is other.spec and self.i == other.i

    def __hash__(self):
        return self.i

    def __int__(self):
        return self.i

    def __repr__(self):
        return f"{self.spec!r}:{self.i}"
