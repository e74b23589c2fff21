"""Exact arithmetic in cyclotomic fields.

A value is stored at its minimal conductor n as the coordinate vector of a
residue in Q[z]/Phi_n(z) over the power basis 1, z, ..., z^(phi(n)-1).
Construction always canonicalizes: reduce modulo Phi_n, then walk the
conductor down one prime divisor at a time until no further descent is
possible.  Two equal values therefore always have identical
(n, coeffs, den), and equality and hashing are plain tuple operations.

The coordinates are coeffs[i] / den: plain ints over one positive common
denominator with gcd(den, *coeffs) == 1, a content fixed by the value since
the power basis is a Z-basis of Z[zeta_n].  Character values are algebraic
integers (den == 1).  Fractions appear only at the API edge: Cyclo(n,
coeffs), from_rational, rational_value, sort_key, str and to_obj.
galois keeps the conductor and the content, so it needs no descent and no
gcd (proof in its docstring).

The descent n -> n/p uses the splitting of Q_n over Q_{n/p}:

* p | n/p:  Phi_n(z) = Phi_{n/p}(z^p), so membership in Q_{n/p} is simply
  "support only on exponents divisible by p".
* p ∤ n/p:  zeta_n = zeta_p^a * zeta_m^b with am + bp ≡ 1 (mod n), and
  {1, zeta_p, ..., zeta_p^(p-2)} is a Q_m-basis of Q_n; the value descends
  iff its coordinates on zeta_p^1..zeta_p^(p-2) vanish.

Both cases are the kernel test of (Z/n)* -> (Z/m)* made constructive: the
value is fixed by Gal(Q_n/Q_m) exactly when the extraction succeeds.  In
the coprime case the coefficients are added into p dense buckets of length
m, one per power of zeta_p, and each bucket is reduced once modulo Phi_m;
reduction is Q-linear, so that is the sum of the reduced monomials (proof
in _descend_once).

Phi_n itself comes from Phi_n(z) = Phi_rad(n)(z^(n/rad(n))) and, for
squarefree n, the Moebius product Phi_n = prod_{d | n} (z^d - 1)^mu(n/d):
one multiplication or exact division by a sparse binomial per divisor, each
linear in the degree (proof in cyclotomic_polynomial).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

from . import modp
from .arith import euler_phi, factorize, prime_factors, units


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, lowest degree first.

    Squarefree n uses Phi_n = prod_{d | n} (z^d - 1)^mu(n/d), the Moebius
    inversion of z^n - 1 = prod_{d | n} Phi_d.  Multiplying by z^d - 1
    (mu(n/d) = 1) is g[i] = f[i - d] - f[i].  Dividing by it (mu(n/d) = -1)
    solves f = q(z^d - 1), coefficient by coefficient from the bottom:
    q[i] = q[i - d] - f[i].  Every division is exact: all the multiplications
    come first, so f = Phi_n * N with N the product of the divisors still
    pending, and z^d - 1 divides N.  Each step is linear in the degree.
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    primes = prime_factors(n)
    rad = prod(primes)
    if rad != n:
        # Phi_n(z) = Phi_rad(z^(n/rad))
        inner = cyclotomic_polynomial(rad)
        s = n // rad
        out = [0] * (s * (len(inner) - 1) + 1)
        out[::s] = inner
        return tuple(out)
    up, down = [], []  # d | n with mu(n/d) = 1 and -1
    for k in range(len(primes) + 1):
        for sub in itertools.combinations(primes, k):
            (down if (len(primes) - k) % 2 else up).append(prod(sub))
    f = [1]
    for d in up:
        g = [0] * d + f
        for i, c in enumerate(f):
            g[i] -= c
        f = g
    for d in down:
        q = [-c for c in f[:len(f) - d]]
        for i in range(d, len(q)):
            q[i] += q[i - d]
        f = q
    return tuple(f)


def _reduce_mod_phi(n: int, dense: list[int]) -> list[int]:
    """Reduce a coefficient vector of length n modulo Phi_n in place."""
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
    return dense


def _descend_once(n: int, vec: list[int]) -> tuple[int, list[int]] | None:
    """Try to rewrite vec (reduced mod Phi_n) in Q_{n/p} for some prime p|n.

    In the coprime split, zeta_n^i = zeta_p^(a*i) * zeta_m^(b*i), so the
    value is sum_u zeta_p^u * gamma_u with gamma_u = sum of c_i * zeta_m^(b*i)
    over a*i = u (mod p).  Each gamma_u is first gathered as a dense vector
    of length m (c_i added at b*i mod m) and then reduced once mod Phi_m.
    That equals the sum of the reduced monomials, because reduction mod
    Phi_m is Q-linear: it is the coordinate map of evaluation at zeta_m.
    With zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)) the value is
    (gamma_0 - gamma_(p-1)) + sum_{0<u<p-1} (gamma_u - gamma_(p-1)) zeta_p^u,
    so it lies in Q_m exactly when every gamma_u, 0 < u < p-1, equals
    gamma_(p-1), and the scan stops at the first one that differs.
    """
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
        buckets = [[0] * m for _ in range(p)]
        for i, c in enumerate(vec):
            if c:
                buckets[a * i % p][b * i % m] += c
        last = _reduce_mod_phi(m, buckets[p - 1])
        if any(_reduce_mod_phi(m, buckets[u]) != last for u in range(1, p - 1)):
            continue
        return m, [x - y for x, y in zip(_reduce_mod_phi(m, buckets[0]), last)]
    return None


class Cyclo:
    """An exact cyclotomic number at minimal conductor (immutable)."""

    __slots__ = ("n", "coeffs", "den", "_hash")

    def __init__(self, n: int, coeffs, _den: int = 0):
        # internal callers pass a canonical int tuple and its _den >= 1
        if not _den:
            fracs = [Fraction(c) for c in coeffs]
            if len(fracs) > n:
                raise ValueError("coefficient vector longer than conductor")
            _den = lcm(*(f.denominator for f in fracs))
            dense = [f.numerator * (_den // f.denominator) for f in fracs]
            canon = _from_dense(n, dense + [0] * (n - len(dense)), _den)
            n, coeffs, _den = canon.n, canon.coeffs, canon.den
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", _den)
        object.__setattr__(self, "_hash", hash((n, coeffs, _den)))

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_rational(x) -> "Cyclo":
        x = Fraction(x)
        return Cyclo(1, (x.numerator,), x.denominator)

    # -- predicates / accessors --------------------------------------

    @property
    def conductor(self) -> int:
        return self.n

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"{self} is irrational")
        return Fraction(self.coeffs[0], self.den)

    def is_integral(self) -> bool:
        """True when all power-basis coordinates are rational integers."""
        return self.den == 1

    # -- ring operations ---------------------------------------------

    def __add__(self, other) -> "Cyclo":
        other = _coerce(other)
        if other is NotImplemented:
            return other
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        big = lcm(self.n, other.n)
        dense = [0] * big
        for x, scale in ((self, sa), (other, sb)):
            s = big // x.n
            for i, c in enumerate(x.coeffs):
                dense[i * s] += c * scale
        return _from_dense(big, dense, den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "Cyclo":
        return Cyclo(self.n, tuple(-c for c in self.coeffs), self.den)

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
        big = lcm(self.n, other.n)
        sa, sb = big // self.n, big // other.n
        dense = [0] * big
        bi = [(j * sb % big, d) for j, d in enumerate(other.coeffs) if d]
        for i, c in enumerate(self.coeffs):
            if c:
                e0 = i * sa
                for e1, d in bi:
                    dense[(e0 + e1) % big] += c * d
        return _from_dense(big, dense, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return self.n == other.n and self.den == other.den and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def sort_key(self):
        """Total order used for deterministic row ordering.

        Ints and Fractions compare exactly, so the plain coefficients of an
        integral value (den == 1) order as their Fractions would.
        """
        if self.den == 1:
            return (self.n, self.coeffs)
        return (self.n, tuple(Fraction(c, self.den) for c in self.coeffs))

    # -- presentation -------------------------------------------------

    def __repr__(self):
        return f"Cyclo({self})"

    def __str__(self):
        if self.n == 1:
            return str(self.rational_value())
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            e = f"E({self.n})" + (f"^{i}" if i > 1 else "") if i else ""
            c = Fraction(c, self.den)
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
        fracs = ((i, Fraction(c, self.den)) for i, c in enumerate(self.coeffs) if c)
        return {"n": self.n, "c": [[i, f.numerator, f.denominator] for i, f in fracs]}


def _coerce(x) -> "Cyclo":
    if isinstance(x, Cyclo):
        return x
    if isinstance(x, int):
        return Cyclo(1, (int(x),), 1)
    if isinstance(x, Fraction):
        return Cyclo.from_rational(x)
    return NotImplemented


def _from_dense(n: int, dense: list[int], den: int = 1) -> Cyclo:
    # dense/den: reduce mod Phi_n, descend, then take out the content
    vec = _reduce_mod_phi(n, dense)
    while n > 1:
        step = _descend_once(n, vec)
        if step is None:
            break
        n, vec = step
    if den != 1:
        g = gcd(den, *vec)
        vec, den = [x // g for x in vec], den // g
    return Cyclo(n, tuple(vec), den)


def root_of_unity(n: int, k: int = 1) -> Cyclo:
    """zeta_n^k as an exact value, built at its minimal conductor without a
    descent.

    zeta_n^k = zeta_m^j with m = n/gcd(n, k) and j = k/gcd(n, k), which is
    coprime to m: a primitive m-th root of unity.  The roots of unity in Q_d
    are the lcm(2, d)-th ones, so zeta_m lies in Q_d iff m | lcm(2, d).  If
    m is odd, m | 2d gives m | d; if 4 | m, then 4 | lcm(2, d) forces
    2 | d, so lcm(2, d) = d.  Either way m | d, so for m != 2 (mod 4) the
    minimal conductor is m and the value is z^j reduced mod Phi_m.  If
    m = 2h with h odd, zeta_h^((h+1)/2) = exp(2 pi i (h+1)/(2h)) = -zeta_m,
    and j is odd, so zeta_m^j = -zeta_h^(j(h+1)/2), at conductor h (h = 1
    gives -1).  A value reduced mod Phi at its minimal conductor is the
    canonical form, so this is what the descent from z^k mod Phi_n gives.
    """
    if n < 1:
        raise ValueError("order of the root must be positive")
    g = gcd(n, k)
    m = n // g
    j, sign = k // g % m, 1
    if m % 4 == 2:
        m //= 2
        j, sign = j * ((m + 1) // 2) % m, -1
    dense = [0] * m
    dense[j] = sign
    return Cyclo(m, tuple(_reduce_mod_phi(m, dense)), 1)


def cyclo_from_root_counts(counts) -> Cyclo:
    """Sum of counts[d] * zeta_n^d, n = len(counts): the value of a character
    table entry from the multiplicities of the n-th roots of unity."""
    return _from_dense(len(counts), [int(c) for c in counts])


def galois(c: Cyclo, k: int) -> Cyclo:
    """Image of c under sigma_k: zeta_n -> zeta_n^k; k must be coprime to n.

    sigma_k is an automorphism of Q_n that maps Z[zeta_n] onto itself.  So
    the image keeps the minimal conductor n, because every Q_m is
    Galois-stable, and the content, because g | sigma_k(v) iff g | v.
    """
    n = c.n
    if n == 1:
        return c
    k %= n
    if gcd(k, n) != 1:
        raise ValueError(f"{k} is not coprime to the conductor {n}")
    if k == 1:
        return c
    dense = [0] * n
    for i, x in enumerate(c.coeffs):
        if x:
            # i -> i*k is injective mod n, so no two terms collide
            dense[i * k % n] = x
    return Cyclo(n, tuple(_reduce_mod_phi(n, dense)), c.den)


def conjugate(c: Cyclo) -> Cyclo:
    return galois(c, -1)


# -- degree over Q --------------------------------------------------------
#
# The degree is phi(n)/|S| with S = {k coprime to n : sigma_k(c) = c}.
# Scanning all units with exact vectors is O(phi(n)^3); instead candidates
# are filtered by evaluating at every theta^k, theta of order n in GF(p),
# in one modp.evaluate pass (sigma_k followed by zeta -> theta is
# zeta -> theta^k, a ring map, so true stabilizer elements always survive),
# then only the few candidates are confirmed exactly.


def degree_over_Q(c: Cyclo) -> int:
    """Exact degree [Q(c) : Q]."""
    n = c.n
    if n == 1:
        return 1
    # a rational scale does not change the stabilizer, so den plays no part
    p, theta = next(modp.eval_points(n))
    ks = np.array(units(n))
    coeffs = np.array([[x % p for x in c.coeffs]], dtype=np.int64)
    imgs = modp.evaluate(coeffs, theta, n, ks, p)[0]
    stab = [k for k in ks[imgs == imgs[0]].tolist() if galois(c, k) == c]
    phi = euler_phi(n)
    if phi % len(stab):  # pragma: no cover - stabilizer is a subgroup
        raise ArithmeticError("stabilizer size does not divide phi(n)")
    return phi // len(stab)


def omega_degree(r: int) -> int:
    """Degree over Q of w = zeta_r + zeta_r^(-1): phi(r)/|S| for S the units
    k mod r whose sigma_k fixes w.

    S is read off the images theta^k + theta^(-k) of sigma_k(w) under
    zeta_r -> theta, theta of order r mod p (the first of modp.eval_points),
    in one array pass: the powers theta^t, t < r (modp.powers), and the
    units by one np.gcd.  No Cyclo value is built.  The images of k and 1
    agree exactly when k = +-1 (mod r): in a field x + 1/x = y + 1/y means
    (x - y)(1 - 1/(xy)) = 0, that is y in {x, 1/x}, and theta^k in
    {theta, theta^(-1)} means k = +-1 (mod r), theta having order r.  The
    same argument over C, zeta_r having order r, shows that sigma_k fixes w
    exactly when k = +-1 (mod r), so S is exact.
    """
    if r < 3:
        raise ValueError("needs r >= 3")
    p, theta = next(modp.eval_points(r))
    powers = modp.powers(theta, r, p)
    ks = np.arange(1, r)
    ks = ks[np.gcd(ks, r) == 1]
    images = (powers[ks] + powers[r - ks]) % p
    return len(ks) // int(np.count_nonzero(images == images[0]))


# -- subfield counting -----------------------------------------------------


@dataclass(frozen=True)
class SubfieldCount:
    """Number of degree-d subfields of Q_n (d prime)."""

    n: int
    degree: int
    count: int


def _unit_group_cyclic_orders(n: int) -> list[int]:
    """Orders of the canonical cyclic factors of (Z/n)*."""
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
