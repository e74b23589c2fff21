"""Small integer number theory shared across the package.

Everything here is exact integer arithmetic: deterministic Miller-Rabin,
trial-division factoring (inputs stay far below 2**48), totients, unit
groups and the couple of exact logarithm comparisons used by the bounds
reports.
"""

from __future__ import annotations

import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact for all n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(sorted(factorize(n)))


def euler_phi(n: int) -> int:
    phi = 1
    for p, k in factorize(n).items():
        phi *= p ** (k - 1) * (p - 1)
    return phi


def units(n: int) -> tuple[int, ...]:
    """Residues coprime to n in [1, n]; (1,) for n == 1."""
    if n == 1:
        return (1,)
    return tuple(k for k in range(1, n + 1) if math.gcd(k, n) == 1)


def prime_exponent_sum(n: int) -> int:
    """Sum of the exponents in the prime factorization of n."""
    return sum(factorize(n).values())


def floor_log2_log2(n: int) -> int:
    """Largest t >= 0 with 2**(2**t) <= n, exactly (n >= 2)."""
    if n < 2:
        raise ValueError("needs n >= 2")
    t = 0
    while 2 ** (2 ** (t + 1)) <= n:
        t += 1
    return t


def next_prime_in_progression(modulus: int, start: int, limit: int = 10**9) -> int:
    """Smallest prime p ≡ 1 (mod modulus) with p > start."""
    k = (start - 1) // modulus + 1
    p = k * modulus + 1
    while p <= limit:
        if is_prime(p):
            return p
        p += modulus
    raise ValueError(f"no prime ≡ 1 mod {modulus} in ({start}, {limit}]")


def element_of_order(e: int, p: int) -> int:
    """theta = a^((p-1)/e) for the first a = 2, 3, ... that gives order e mod p.

    theta has order e exactly when theta^(e/q) != 1 for every prime q | e.
    A primitive root a < p gives one, so the scan ends for every prime
    p >= 3 with e | p - 1.
    """
    if (p - 1) % e:
        raise ValueError(f"{e} does not divide {p} - 1")
    qs = prime_factors(e)
    for a in range(2, p):
        theta = pow(a, (p - 1) // e, p)
        if all(pow(theta, e // q, p) != 1 for q in qs):
            return theta
    raise ValueError(f"no element of order {e} mod {p}")
