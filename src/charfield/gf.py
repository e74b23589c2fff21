"""Exact finite field arithmetic GF(p^m) for the matrix-group constructors.

An element of GF(q), q = p^m, is its integer encoding: element i is the
polynomial over GF(p) whose coefficients, lowest first, are the base-p
digits of i, reduced modulo a fixed monic irreducible modulus.  The
modulus is the lexicographically smallest monic irreducible polynomial of
degree m, coefficients read from the leading term down, so every field
has one published model and the generator matrices built on top of it
are reproducible.

field(p, m) uses the polynomial model once per field, to find the modulus
and the primitive element g of smallest encoding: the one whose powers
g^0, ..., g^(q-2), multiplied out in the model, are pairwise distinct.
Those powers are the antilog array, and log[x] is the k with g^k = x.
FieldSpec then holds three read-only tables on the encodings:

* add[i, j], the base-p digits of i and j added mod p;
* mul[i, j] = g^(log i + log j), exponent mod q - 1, and 0 when i or j is 0;
* inv[i] = g^(-log i), and inv[0] = 0.

Callers act on whole arrays of encodings by indexing the tables.  add and
mul have q^2 entries each, so field refuses q > MAX_ORDER; the matrix
families use q <= 32.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .arith import is_prime
from .modp import poly_mod, poly_mul

MAX_ORDER = 1 << 10


@functools.lru_cache(maxsize=None)
def field(p: int, m: int = 1) -> "FieldSpec":
    """The field GF(p^m) with its fixed modulus and its tables."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    # p >= 2, so the degree alone bounds q before p^m is formed
    if m >= MAX_ORDER.bit_length() or p**m > MAX_ORDER:
        q = p if m == 1 else f"{p}^{m}"
        raise ValueError(f"GF({q}) has more than MAX_ORDER = {MAX_ORDER} elements")
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


def _antilogs(p: int, m: int, modulus: tuple[int, ...]) -> list[int]:
    """Encodings of g^0, ..., g^(q-2) for the primitive g of smallest encoding."""
    q = p**m
    for i in range(1, q):
        g, x, walk = [i // p**j % p for j in range(m)], [1], [1]
        # the walk stops at the first power equal to 1, so g is primitive
        # exactly when it has q - 1 steps
        while (x := poly_mod(poly_mul(x, g, p), modulus, p)) != [1]:
            walk.append(sum(c * p**j for j, c in enumerate(x)))
        if len(walk) == q - 1:
            return walk
    raise ArithmeticError("no primitive element found")  # pragma: no cover


class FieldSpec:
    """A model of GF(p^m), made by field(p, m), with its add, mul and inv
    tables on the encodings 0, ..., order - 1."""

    __slots__ = ("p", "m", "modulus", "order", "add", "mul", "inv")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.modulus = modulus  # low-to-high, monic, length m + 1
        self.order = q = p**m
        exp = np.array(_antilogs(p, m, modulus))
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        place = p ** np.arange(m)
        digits = np.arange(q)[:, None] // place % p
        self.add = sum((d[:, None] + d) % p * pj for d, pj in zip(digits.T, place))
        self.mul = exp[(log[:, None] + log) % (q - 1)]
        self.mul[0] = self.mul[:, 0] = 0
        self.inv = exp[-log % (q - 1)]
        self.inv[0] = 0
        for table in (self.add, self.mul, self.inv):
            table.flags.writeable = False

    def __repr__(self):
        return f"GF({self.order})"
