"""Exact arithmetic in cyclotomic fields.

A value is stored at its minimal conductor n as the coordinate vector of a
residue in Q[z]/Phi_n(z) over the power basis 1, z, ..., z^(phi(n)-1).
Construction always canonicalizes: reduce modulo Phi_n, then walk the
conductor down one prime divisor at a time until no further descent is
possible.  Two equal values therefore always have identical (n, coeffs)
and equality, hashing and sorting are plain tuple operations.

Coefficients are Fractions, stored as plain ints whenever the denominator
is one (int and Fraction hash and compare consistently in Python).

The descent n -> n/p uses the splitting of Q_n over Q_{n/p}:

* p | n/p:  Phi_n(z) = Phi_{n/p}(z^p), so membership in Q_{n/p} is simply
  "support only on exponents divisible by p".
* p ∤ n/p:  zeta_n = zeta_p^a * zeta_m^b with am + bp ≡ 1 (mod n), and
  {1, zeta_p, ..., zeta_p^(p-2)} is a Q_m-basis of Q_n; the value descends
  iff its coordinates on zeta_p^1..zeta_p^(p-2) vanish.

Both cases are the kernel test of (Z/n)* -> (Z/m)* made constructive: the
value is fixed by Gal(Q_n/Q_m) exactly when the extraction succeeds.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm

from .arith import element_of_order, euler_phi, next_prime_in_progression, prime_factors, units

Scalar = int | Fraction


def _norm_scalar(x: Scalar) -> Scalar:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    rad = 1
    for p in prime_factors(n):
        rad *= p
    if rad != n:
        # Phi_n(z) = Phi_rad(z^(n/rad))
        inner = cyclotomic_polynomial(rad)
        s = n // rad
        out = [0] * (s * (len(inner) - 1) + 1)
        out[::s] = inner
        return tuple(out)
    # squarefree n: exact division of z^n - 1 by the proper-divisor factors
    quo = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            quo = _polydiv_exact(quo, cyclotomic_polynomial(d))
    return tuple(quo)


def _polydiv_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, den monic or +-1-led
    num = num[:]
    dd = len(den) - 1
    lead = den[-1]
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        out[i - dd] = q
        for j, a in enumerate(den):
            num[i - dd + j] -= q * a
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _reduce_mod_phi(n: int, dense: list[Scalar]) -> list[Scalar]:
    """Reduce a coefficient vector of length <= n modulo Phi_n in place."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    for e in range(len(dense) - 1, deg - 1, -1):
        c = dense[e]
        if c:
            dense[e] = 0
            base = e - deg
            for j in range(deg):
                a = phi[j]
                if a:
                    dense[base + j] -= c * a
    del dense[deg:]
    while len(dense) < deg:
        dense.append(0)
    return dense


def _descend_once(n: int, vec: list[Scalar]) -> tuple[int, list[Scalar]] | None:
    """Try to rewrite vec (reduced mod Phi_n) in Q_{n/p} for some prime p|n."""
    for p in prime_factors(n):
        m = n // p
        if m > 1 and m % p == 0:
            # Phi_n(z) = Phi_m(z^p): membership is a support condition
            if any(vec[i] for i in range(len(vec)) if i % p):
                continue
            return m, [vec[p * j] for j in range(euler_phi(m))]
        # coprime split: zeta_n = zeta_p^a * zeta_m^b
        a = pow(m, -1, p)
        b = 0 if m == 1 else pow(p, -1, m)
        phim = euler_phi(m)
        gammas = [[0] * phim for _ in range(p)]
        for i, c in enumerate(vec):
            if c:
                dense = [0] * m
                dense[b * i % m] = c
                g = gammas[a * i % p]
                for j, x in enumerate(_reduce_mod_phi(m, dense)):
                    g[j] += x
        last = gammas[p - 1]
        if any(gammas[u] != last for u in range(1, p - 1)):
            continue
        return m, [x - y for x, y in zip(gammas[0], last)]
    return None


class Cyclo:
    """An exact cyclotomic number at minimal conductor (immutable)."""

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, n: int, coeffs: tuple[Scalar, ...], _canonical: bool = False):
        if not _canonical:
            dense: list[Scalar] = [Fraction(c) for c in coeffs]
            if len(dense) > n:
                raise ValueError("coefficient vector longer than conductor")
            dense += [0] * (n - len(dense))
            canon = _from_dense(n, dense)
            n, coeffs = canon.n, canon.coeffs
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", hash((n, coeffs)))

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(x: Scalar) -> "Cyclo":
        return Cyclo(1, (_norm_scalar(Fraction(x)),), _canonical=True)

    # -- predicates / accessors --------------------------------------

    @property
    def conductor(self) -> int:
        return self.n

    def is_rational(self) -> bool:
        return self.n == 1

    def is_zero(self) -> bool:
        return self.n == 1 and self.coeffs[0] == 0

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.coeffs[0])

    def is_integral(self) -> bool:
        """True when all power-basis coordinates are rational integers."""
        return all(isinstance(c, int) for c in self.coeffs)

    # -- ring operations ---------------------------------------------

    def _lift_dense(self, big: int) -> list[Scalar]:
        s = big // self.n
        dense: list[Scalar] = [0] * big
        for i, c in enumerate(self.coeffs):
            if c:
                dense[i * s] = c
        return dense

    def __add__(self, other) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if self.n == 1 and other.n == 1:
            return Cyclo.from_rational(Fraction(self.coeffs[0]) + Fraction(other.coeffs[0]))
        if self.n == other.n:
            # both reduced mod the same Phi_n; only the conductor can drop
            vec: list[Scalar] = [a + b for a, b in zip(self.coeffs, other.coeffs)]
            return _from_reduced(self.n, vec)
        big = lcm(self.n, other.n)
        dense = self._lift_dense(big)
        s = big // other.n
        for i, c in enumerate(other.coeffs):
            if c:
                dense[i * s] += c
        return _from_dense(big, dense)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.n, tuple(_norm_scalar(-Fraction(c)) for c in self.coeffs), _canonical=True)

    def __sub__(self, other) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return other
        if self.n == 1:
            return other._scale(Fraction(self.coeffs[0]))
        if other.n == 1:
            return self._scale(Fraction(other.coeffs[0]))
        big = lcm(self.n, other.n)
        sa, sb = big // self.n, big // other.n
        dense: list[Scalar] = [0] * big
        bi = [(j * sb % big, d) for j, d in enumerate(other.coeffs) if d]
        for i, c in enumerate(self.coeffs):
            if c:
                e0 = i * sa
                for e1, d in bi:
                    dense[(e0 + e1) % big] += c * d
        return _from_dense(big, dense)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _scale(self, q: Fraction) -> "Cyclo":
        if q == 0:
            return Cyclo.from_rational(0)
        # scaling by a nonzero rational never changes the minimal conductor
        return Cyclo(self.n, tuple(_norm_scalar(q * c) for c in self.coeffs), _canonical=True)

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def sort_key(self):
        """Total order used for deterministic row ordering."""
        return (self.n, tuple(Fraction(c) for c in self.coeffs))

    # -- presentation -------------------------------------------------

    def __repr__(self):
        return f"Cyclo({self})"

    def __str__(self):
        if self.n == 1:
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = f"E({self.n})" + (f"^{i}" if i > 1 else "") if i else ""
            c = Fraction(c)
            if not e:
                parts.append(str(c))
            elif c == 1:
                parts.append(e)
            elif c == -1:
                parts.append(f"-{e}")
            else:
                parts.append(f"{c}*{e}")
        out = "+".join(parts)
        return out.replace("+-", "-")

    # -- serialization -------------------------------------------------

    def to_obj(self):
        """JSON-ready form: {"n": conductor, "c": [[exponent, num, den], ...]}."""
        cs = [[i, Fraction(c).numerator, Fraction(c).denominator]
              for i, c in enumerate(self.coeffs) if c]
        return {"n": self.n, "c": cs}

    @staticmethod
    def from_obj(obj) -> "Cyclo":
        dense: list[Scalar] = [0] * obj["n"]
        for i, num, den in obj["c"]:
            dense[i] = Fraction(num, den)
        return _from_dense(obj["n"], dense)


def _coerce(x) -> "Cyclo":
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclo.from_rational(x)
    return NotImplemented


def _from_dense(n: int, dense: list[Scalar]) -> Cyclo:
    return _from_reduced(n, _reduce_mod_phi(n, dense))


def _from_reduced(n: int, vec: list[Scalar]) -> Cyclo:
    # vec already reduced mod Phi_n; only descent remains
    while n > 1:
        step = _descend_once(n, vec)
        if step is None:
            break
        n, vec = step
    return Cyclo(n, tuple(_norm_scalar(Fraction(c)) for c in vec), _canonical=True)


def root_of_unity(n: int, k: int = 1) -> Cyclo:
    """zeta_n^k as an exact value (canonicalized)."""
    if n < 1:
        raise ValueError("order of the root must be positive")
    dense: list[Scalar] = [0] * n
    dense[k % n] = 1
    return _from_dense(n, dense)


def cyclo_from_root_counts(n: int, counts) -> Cyclo:
    """Sum of counts[d] * zeta_n^d (the lifted form used by character tables)."""
    dense: list[Scalar] = [0] * n
    for d, c in enumerate(counts):
        dense[d % n] += c
    return _from_dense(n, dense)


def galois(c: Cyclo, k: int) -> Cyclo:
    """Image of c under sigma_k: zeta_n -> zeta_n^k; k must be coprime to n."""
    n = c.n
    if n == 1:
        return c
    k %= n
    if gcd(k, n) != 1:
        raise ValueError(f"{k} is not coprime to the conductor {n}")
    if k == 1:
        return c
    dense: list[Scalar] = [0] * n
    for i, x in enumerate(c.coeffs):
        if x:
            dense[i * k % n] += x
    return _from_dense(n, dense)


def conjugate(c: Cyclo) -> Cyclo:
    return galois(c, -1)


# -- degree over Q --------------------------------------------------------
#
# The degree is phi(n)/|S| with S = {k coprime to n : sigma_k(c) = c}.
# Scanning all units with exact vectors is O(phi(n)^3); instead candidates
# are filtered by evaluating at a fixed element theta of order n in a large
# prime field (a ring homomorphism, so true stabilizer elements always
# survive), then only the few candidates are confirmed exactly.


@functools.lru_cache(maxsize=None)
def _eval_point(n: int) -> tuple[int, tuple[int, ...]]:
    p = next_prime_in_progression(n, 2**31, limit=2**62)
    theta = element_of_order(n, p)
    powers = [1] * n
    for i in range(1, n):
        powers[i] = powers[i - 1] * theta % p
    return p, tuple(powers)


def degree_over_Q(c: Cyclo) -> int:
    """Exact degree [Q(c) : Q]."""
    n = c.n
    if n == 1:
        return 1
    den = 1
    for x in c.coeffs:
        if not isinstance(x, int):
            den = lcm(den, x.denominator)
    ints = [int(Fraction(x) * den) for x in c.coeffs]
    p, powers = _eval_point(n)
    support = [(i, v % p) for i, v in enumerate(ints) if v]
    imgs = {}
    for k in units(n):
        imgs[k] = sum(v * powers[i * k % n] for i, v in support) % p
    target = imgs[1]
    stab = [k for k in units(n) if imgs[k] == target and galois(c, k) == c]
    phi = euler_phi(n)
    if phi % len(stab):  # pragma: no cover - stabilizer is a subgroup
        raise ArithmeticError("stabilizer size does not divide phi(n)")
    return phi // len(stab)


def omega_degree(r: int) -> int:
    """Degree over Q of zeta_r + zeta_r^(-1)."""
    if r < 3:
        raise ValueError("needs r >= 3")
    return degree_over_Q(root_of_unity(r, 1) + root_of_unity(r, r - 1))


# -- subfield counting -----------------------------------------------------


class SubfieldCount:
    """Number of degree-d subfields of Q_n (d prime)."""

    __slots__ = ("n", "degree", "count")

    def __init__(self, n: int, degree: int, count: int):
        self.n = n
        self.degree = degree
        self.count = count

    def __eq__(self, other):
        return (self.n, self.degree, self.count) == (other.n, other.degree, other.count)

    def __repr__(self):
        return f"SubfieldCount(n={self.n}, degree={self.degree}, count={self.count})"


def _unit_group_cyclic_orders(n: int) -> list[int]:
    """Orders of the canonical cyclic factors of (Z/n)*."""
    from .arith import factorize

    out = []
    for p, k in factorize(n).items():
        if p == 2:
            if k == 2:
                out.append(2)
            elif k >= 3:
                out.extend([2, 2 ** (k - 2)])
        else:
            out.append(p ** (k - 1) * (p - 1))
    return out


def count_subfields(n: int, d: int) -> SubfieldCount:
    """Count the index-d subgroups of (Z/n)*, i.e. degree-d subfields of Q_n."""
    if n < 3:
        raise ValueError("needs n >= 3")
    if d not in (2, 3):
        raise ValueError("only d in {2, 3} is supported")
    s = sum(1 for o in _unit_group_cyclic_orders(n) if o % d == 0)
    return SubfieldCount(n, d, (d**s - 1) // (d - 1))
