"""Deterministic linear algebra and polynomial root finding over GF(p), and
the one walk of evaluation primes (eval_points).

Matrices are int64 numpy arrays with entries in [0, p), and mat_mul is
their one product.  rref's pivot rule is fixed (the first nonzero entry at
or below the current row), and a reduced row echelon form is unique, so
every result depends on the input alone.  Polynomials are coefficient
lists, lowest degree first, normalized monic where stated.
"""

from __future__ import annotations

import numpy as np

from .arith import element_of_order, next_prime_in_progression

# Evaluation primes are searched from here on: while (p - 1)^2 < 2^42,
# mat_mul keeps a sum of up to 2^21 products in int64, and a prime this
# large makes an accidental zero of a nonzero value improbable.
PRIME_START = 1 << 20


def eval_points(n: int):
    """(p, theta) for the primes p = 1 (mod n) from PRIME_START on, in
    increasing order, theta of order n mod p.

    Every p stays below 2^31, so a product of two residues fits int64; the
    walk raises ValueError when it would pass that.
    """
    p = PRIME_START
    while True:
        p = next_prime_in_progression(n, p, limit=1 << 31)
        yield p, element_of_order(n, p)


def mat_mul(A, B, p: int) -> np.ndarray:
    """(A @ B) mod p for int64 arrays with entries in [0, p), stacks too.

    Each entry of A @ B is a sum of k products below p^2, so int64 holds it
    exactly while k * (p - 1)^2 < 2^63; past that bound Python ints do.
    """
    A, B = np.asarray(A, dtype=np.int64), np.asarray(B, dtype=np.int64)
    if A.shape[-1] * (p - 1) ** 2 < 2**63:
        return A @ B % p
    return (A.astype(object) @ B.astype(object) % p).astype(np.int64)


def powers(theta: int, n: int, p: int) -> np.ndarray:
    """theta^t mod p for t < n (n >= 1), int64, by doubling: with the
    powers below m known, theta^(m + i) = theta^i * theta^m gives those
    below 2m in one product.  Exact for p < 2^31, as each product of two
    residues is below p^2 < 2^62."""
    out = np.empty(n, dtype=np.int64)
    out[0], m, t = 1, 1, theta % p
    while m < n:
        out[m:2 * m] = out[:min(m, n - m)] * t % p
        m, t = 2 * m, t * t % p
    return out


def evaluate(coeffs: np.ndarray, theta: int, order: int, ks, p: int) -> np.ndarray:
    """out[i, a] = sum_d coeffs[i, d] * theta^(d * ks[a]) mod p.

    coeffs is a (rows x L) int64 array reduced mod p, L <= order, and theta
    has order `order` mod p.  Column a is then the image of the row's
    sum_d coeffs[d] * zeta^d, zeta a primitive order-th root of unity, under
    the ring map Z[zeta] -> GF(p), zeta -> theta^ks[a]; for a unit ks[a]
    that is the embedding through sigma_ks[a].  With theta^-1 and
    ks = 0..o-1, times 1/o, it is the inverse discrete Fourier transform,
    which turns the values chi(g^t), t < o, into the multiplicities of the
    o-th roots of unity in chi(g).

    theta has order `order`, so theta^e depends on e mod order only, and
    the L x |ks| power matrix is the table powers(theta, order, p) at
    d * ks[a] mod order.  Columns are taken in blocks so that the power
    matrix stays small.
    """
    table = powers(theta, order, p)
    ks = np.asarray(ks, dtype=np.int64) % order
    d = np.arange(coeffs.shape[1], dtype=np.int64)
    step = max(1, (1 << 22) // max(1, len(d)))
    out = np.empty((coeffs.shape[0], len(ks)), dtype=np.int64)
    for a in range(0, len(ks), step):
        e = np.multiply.outer(d, ks[a:a + step]) % order
        out[:, a:a + step] = mat_mul(coeffs, table[e], p)
    return out


def _reduced(A, p: int) -> np.ndarray:
    """A copy of A as an int64 array reduced mod p, for p < 2^31."""
    if p >= 1 << 31:
        raise ValueError(f"p = {p} is not below 2^31, so int64 elimination could wrap")
    return np.array(A, dtype=np.int64) % p


def rref(A, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a 2-d array; returns (R, pivot columns).

    Column by column, the first row at or below the current one with a
    nonzero entry is swapped up and scaled to a leading 1, then subtracted
    in one broadcast product from just the other rows with a nonzero entry
    in its column, and only from that column on (the pivot row is 0 left).

    Exact in int64 for p < 2^31 (ValueError past that): entries stay in
    [0, p), so the scaling x * inv and each update x - f * y, all factors
    below p, stay within p^2 < 2^62 in absolute value.
    """
    M = _reduced(A, p)
    rows, cols = M.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = M[:, c].nonzero()[0]
        k = nz.searchsorted(r)
        if k == len(nz):
            continue
        piv = int(nz[k])
        if piv != r:
            M[[r, piv]] = M[[piv, r]]
        row = M[r, c:]
        row *= pow(int(row[0]), -1, p)
        row %= p
        if len(nz) > 1:
            hit = nz[nz != piv]  # the swap moved a zero of column c to row piv
            M[hit, c:] = (M[hit, c:] - M[hit, c, None] * row) % p
        pivots.append(c)
    return M, pivots


def nullspace(A, p: int) -> np.ndarray:
    """Basis of the right nullspace, one vector per row and free column, in order."""
    R, pivots = rref(A, p)
    piv_set = set(pivots)
    free = [c for c in range(R.shape[1]) if c not in piv_set]
    N = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    N[range(len(free)), free] = 1
    N[:, pivots] = -R[:len(pivots)][:, free].T % p
    return N


def mat_inv(A, p: int) -> np.ndarray:
    """Inverse mod p, read off the right half of rref([A | I])."""
    n = len(A)
    R, pivots = rref(np.hstack([np.asarray(A, dtype=np.int64), np.eye(n, dtype=np.int64)]), p)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular mod p")
    return R[:, n:]


def pivot_rows(B, p: int) -> list[int]:
    """The first rows of B, in order, that are independent of the rows
    before them: the pivot columns of rref(B^T)."""
    return rref(np.asarray(B).T, p)[1]


def charpoly(A, p: int) -> list[int]:
    """det(xI - A) mod p, coefficients lowest degree first, monic.

    Similarity reduction to upper Hessenberg form, then the standard
    leading-minor recurrence.  Column c is cleared below row c + 1 by
    H -> E H E^-1 with E = I - f e_(c+1)^T, f_r = H[r, c] / H[c+1, c] for
    r > c + 1: the elementary matrices of one column commute, so their
    product is E, and E^-1 = I + f e_(c+1)^T.  That is one row update,
    H[r] -= f_r H[c+1], then one column update, H[:, c+1] += H f.

    Exact in int64 for p < 2^31 (ValueError past that): the row update is
    rref's, within p^2 < 2^62, and the column sum H f goes through mat_mul,
    whose k * (p - 1)^2 check falls back to Python ints where int64 would
    not hold it.
    """
    H = _reduced(A, p)
    n = len(H)
    for col in range(n - 2):
        below = H[col + 1:, col].nonzero()[0]
        if not len(below):
            continue
        piv = col + 1 + below[0]
        if piv != col + 1:
            H[[col + 1, piv]] = H[[piv, col + 1]]
            H[:, [col + 1, piv]] = H[:, [piv, col + 1]]
        f = H[col + 2:, col] * pow(int(H[col + 1, col]), -1, p) % p
        H[col + 2:] = (H[col + 2:] - f[:, None] * H[col + 1]) % p
        H[:, col + 1] = (H[:, col + 1] + mat_mul(H[:, col + 2:], f, p)) % p
    H = H.tolist()
    polys = [[1]]
    for k in range(1, n + 1):
        prev, d = polys[k - 1], H[k - 1][k - 1]
        poly = [(a - d * b) % p for a, b in zip([0] + prev, prev + [0])]  # (x - d) p_{k-1}
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
    """All roots of f in GF(p), each once, ascending (deterministic).

    The split takes gcd(h, (x + s)^((p-1)/2) - 1), which is h itself when
    p = 2, so an even p raises ValueError.
    """
    if p % 2 == 0:
        raise ValueError(f"p = {p}: the root split needs an odd prime")
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
