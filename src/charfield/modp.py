"""Deterministic linear algebra and polynomial root finding over GF(p).

Matrices are lists of lists of ints reduced mod p (the pivoting here is
pure Python so the choice of pivots is fixed).  Polynomials are coefficient
lists, lowest degree first, normalized monic where stated.  Bulk products
go through dot and evaluate, on int64 arrays.
"""

from __future__ import annotations

import numpy as np

# Evaluation primes are searched from here on: while (p - 1)^2 < 2^42, dot
# keeps a sum of up to 2^21 products in int64, and a prime this large makes
# an accidental zero of a nonzero value improbable.
PRIME_START = 1 << 20


def dot(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """(A @ B) mod p for int64 arrays with entries in [0, p), stacks too.

    Each entry of A @ B is a sum of k products below p^2, so int64 holds it
    exactly while k * (p - 1)^2 < 2^63; past that bound Python ints do.
    """
    if A.shape[-1] * (p - 1) ** 2 < 2**63:
        return A @ B % p
    return (A.astype(object) @ B.astype(object) % p).astype(np.int64)


def evaluate(coeffs: np.ndarray, theta: int, order: int, ks, p: int,
             scale: int = 1) -> np.ndarray:
    """out[i, a] = scale * sum_d coeffs[i, d] * theta^(d * ks[a]) mod p.

    coeffs is a (rows x L) int64 array reduced mod p, L <= order, and theta
    has order `order` mod p.  Column a is then the image of the row's
    sum_d coeffs[d] * zeta^d, zeta a primitive order-th root of unity, under
    the ring map Z[zeta] -> GF(p), zeta -> theta^ks[a]; for a unit ks[a]
    that is the embedding through sigma_ks[a].  With theta^-1, ks = 0..o-1
    and scale = 1/o it is the inverse discrete Fourier transform, which
    turns the values chi(g^t), t < o, into the multiplicities of the o-th
    roots of unity in chi(g).  Columns are taken in blocks so that the
    L x |ks| power matrix stays small.
    """
    powers = np.empty(order, dtype=np.int64)
    x = scale % p
    for d in range(order):
        powers[d] = x
        x = x * theta % p
    ks = np.asarray(ks, dtype=np.int64) % order
    ds = np.arange(coeffs.shape[1], dtype=np.int64)
    step = max(1, (1 << 22) // max(1, len(ds)))
    return np.hstack([dot(coeffs, powers[np.outer(ds, ks[a:a + step]) % order], p)
                      for a in range(0, len(ks), step)])


def mat_mul(A, B, p):
    n, k, m = len(A), len(B), len(B[0])
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        row = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    row[j] = (row[j] + a * Bt[j]) % p
    return out


def rref(A, p):
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    M = [row[:] for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c] % p), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def nullspace(A, p):
    """Basis of the right nullspace, one vector per free column, in order."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    R, pivots = rref(A, p)
    piv_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in piv_set:
            continue
        v = [0] * cols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R[r][free]) % p
        basis.append(v)
    return basis


def mat_inv(A, p):
    """Inverse mod p, read off the right half of rref([A | I])."""
    n = len(A)
    R, pivots = rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(A)], p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return [row[n:] for row in R]


def pivot_rows(B, p):
    """Indices of linearly independent rows spanning the row space of B.

    These are the pivot columns of rref(B^T): the first rows, in order, that
    are independent of the rows before them.
    """
    _, pivots = rref([list(col) for col in zip(*B)], p)
    return pivots


def charpoly(A, p):
    """det(xI - A) mod p, coefficients lowest degree first, monic.

    Similarity reduction to upper Hessenberg form, then the standard
    leading-minor recurrence.
    """
    n = len(A)
    H = [[x % p for x in row] for row in A]
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if H[r][col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[col + 1], H[piv] = H[piv], H[col + 1]
            for i in range(n):
                H[i][col + 1], H[i][piv] = H[i][piv], H[i][col + 1]
        inv = pow(H[col + 1][col], -1, p)
        for r in range(col + 2, n):
            if H[r][col]:
                f = H[r][col] * inv % p
                H[r] = [(x - f * y) % p for x, y in zip(H[r], H[col + 1])]
                for i in range(n):
                    H[i][col + 1] = (H[i][col + 1] + f * H[i][r]) % p
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        poly = [0] + prev  # x * p_{k-1}
        d = H[k - 1][k - 1]
        poly = [(a - d * b) % p for a, b in zip(poly, prev + [0])]
        prod = 1
        for i in range(k - 1, 0, -1):
            prod = prod * H[i][i - 1] % p
            coef = H[i - 1][k - 1] * prod % p
            if coef:
                pi = polys[i - 1]
                poly = [(a - coef * (pi[j] if j < len(pi) else 0)) % p
                        for j, a in enumerate(poly)]
        polys.append(poly)
    return polys[n]


# -- polynomials mod p -------------------------------------------------------


def poly_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_divmod(f, g, p):
    """(q, r) with f = q*g + r and deg r < deg g; g's leading coefficient is a unit."""
    f = [x % p for x in f]
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] * inv % p
        if c:
            q[i - dg] = c
            for j in range(dg + 1):
                f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
    return poly_trim(q), poly_trim(f[:dg])


def poly_mod(f, g, p):
    return poly_divmod(f, g, p)[1]


def poly_gcd(f, g, p):
    f, g = [x % p for x in f], [x % p for x in g]
    poly_trim(f)
    poly_trim(g)
    while g:
        f, g = g, poly_mod(f, g, p)
    if f:
        inv = pow(f[-1], -1, p)
        f = [x * inv % p for x in f]
    return f


def poly_powmod(base, e, mod, p):
    out = [1]
    base = poly_mod(base, mod, p)
    while e:
        if e & 1:
            out = poly_mod(poly_mul(out, base, p), mod, p)
        base = poly_mod(poly_mul(base, base, p), mod, p)
        e >>= 1
    return out


def poly_deriv(f, p):
    return poly_trim([i * c % p for i, c in enumerate(f)][1:])


def distinct_roots(f, p):
    """All roots of f in GF(p), each once, ascending (deterministic)."""
    f = poly_trim([x % p for x in f])
    if len(f) <= 1:
        return []
    inv = pow(f[-1], -1, p)
    f = [x * inv % p for x in f]
    d = poly_deriv(f, p)
    if d:
        sq = poly_gcd(f, d, p)
        if len(sq) > 1:
            f = _poly_div_exact(f, sq, p)
    # keep only the part splitting into distinct linear factors (p odd)
    xp = poly_powmod([0, 1], p, f, p)
    xp_minus_x = poly_trim([(a - b) % p for a, b in _pad(xp, [0, 1])])
    g = poly_gcd(f, xp_minus_x, p)
    roots: list[int] = []
    stack = [g]
    shift = 0
    while stack:
        h = stack.pop()
        if len(h) <= 1:
            continue
        if len(h) == 2:
            roots.append((-h[0]) * pow(h[1], -1, p) % p)
            continue
        split = None
        while split is None:
            if shift > 10000:  # pragma: no cover - expected after a few tries
                raise ArithmeticError("root splitting did not terminate")
            s = poly_powmod([shift, 1], (p - 1) // 2, h, p)
            s = poly_trim([(a - b) % p for a, b in _pad(s, [1])])
            cand = poly_gcd(h, s, p)
            shift += 1
            if 1 < len(cand) < len(h):
                split = cand
        stack.append(split)
        stack.append(_poly_div_exact(h, split, p))
    return sorted(roots)


def _pad(f, g):
    n = max(len(f), len(g))
    return zip(f + [0] * (n - len(f)), g + [0] * (n - len(g)))


def _poly_div_exact(f, g, p):
    q, r = poly_divmod(f, g, p)
    if r:
        raise ArithmeticError("division was not exact")
    return q
