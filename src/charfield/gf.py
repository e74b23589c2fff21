"""Exact finite field arithmetic GF(p^m) for the matrix-group constructors.

Elements are coefficient vectors over GF(p) reduced modulo a fixed monic
irreducible modulus.  The modulus is the lexicographically smallest monic
irreducible polynomial of degree m, coefficients read from the leading
term down, so every field has one published model and the generator
matrices built on top of it are reproducible.
"""

from __future__ import annotations

import functools
import itertools

from .arith import is_prime
from .modp import poly_mod, poly_mul


@functools.lru_cache(maxsize=None)
def field(p: int, m: int = 1) -> "FieldSpec":
    """The field GF(p^m) with its fixed modulus."""
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


class FieldSpec:
    """A concrete model of GF(p^m); obtain instances through field(p, m)."""

    __slots__ = ("p", "m", "modulus", "order")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus  # low-to-high, monic, length m + 1
        self.order = p**m

    def __repr__(self):
        return f"GF({self.order})"

    def elem(self, coeffs) -> "FieldElem":
        cs = [c % self.p for c in coeffs]
        if len(cs) > self.m:
            cs = poly_mod(cs, self.modulus, self.p)
        cs += [0] * (self.m - len(cs))
        return FieldElem(self, tuple(cs))

    def from_int(self, i: int) -> "FieldElem":
        """Element with base-p digits of i as coordinates (0 <= i < order)."""
        if not 0 <= i < self.order:
            raise ValueError("index out of range")
        digits = []
        for _ in range(self.m):
            i, r = divmod(i, self.p)
            digits.append(r)
        return FieldElem(self, tuple(digits))

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, (0,) * self.m)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, (1,) + (0,) * (self.m - 1))

    @property
    def gen(self) -> "FieldElem":
        """The class of x (for m >= 2); the residue of the smallest primitive
        root for prime fields."""
        if self.m >= 2:
            return FieldElem(self, (0, 1) + (0,) * (self.m - 2))
        for a in range(2, self.p):
            if _order_in_field(self.from_int(a)) == self.p - 1:
                return self.from_int(a)
        return self.one  # GF(2)

    def elements(self):
        """All elements, in integer-encoding order."""
        return [self.from_int(i) for i in range(self.order)]


def _order_in_field(x: "FieldElem") -> int:
    if not x:
        raise ValueError("zero has no multiplicative order")
    k, cur = 1, x
    one = x.spec.one
    while cur != one:
        cur = cur * x
        k += 1
    return k


class FieldElem:
    """Immutable element of a FieldSpec."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

    def _check(self, other: "FieldElem"):
        if not isinstance(other, FieldElem) or other.spec is not self.spec:
            raise ValueError("operands live in different fields")

    def __add__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.spec.p
        return FieldElem(self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        self._check(other)
        p, m = self.spec.p, self.spec.m
        rem = poly_mod(poly_mul(self.coeffs, other.coeffs, p), self.spec.modulus, p)
        rem += [0] * (m - len(rem))
        return FieldElem(self.spec, tuple(rem))

    def inv(self) -> "FieldElem":
        if not self:
            raise ZeroDivisionError("inversion of zero field element")
        return self ** (self.spec.order - 2)

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            return self.inv() ** (-e)
        out, base = self.spec.one, self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def frobenius(self, e: int = 1) -> "FieldElem":
        """x -> x^(p^e)."""
        return self ** (self.spec.p**e)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, FieldElem) and self.spec is other.spec and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.spec), self.coeffs))

    def __int__(self):
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.spec.p + c
        return out

    def __repr__(self):
        return f"{self.spec!r}:{int(self)}"
