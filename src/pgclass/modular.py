"""Arithmetic over the auxiliary prime field GF(q) used by the table engine.

Everything here works on numpy int64 arrays of residues in [0, q).  q is
the smallest prime = 1 (mod e) above 2 sqrt|G|, which at desk scale stays
far below 2^31, so a product of two residues fits in 64 bits.

eigenspaces splits a space under a matrix S from idempotents that are
polynomials in S, with no elimination per eigenvalue.  Large products
run in float64 BLAS, in blocks that OpenBLAS keeps on one thread, while
every partial sum stays an exact integer below 2^53, the bound
_group_products in chartable.py checks for its primes q'.
"""

from __future__ import annotations

import numpy as np

from .errors import TableVerificationError
from .presentation import is_prime


def find_aux_prime(e: int, group_order: int) -> int:
    """Smallest prime q with q = 1 (mod e) and q^2 > 4*|G| (i.e. q > 2 sqrt|G|)."""
    q = e + 1
    while True:
        if q * q > 4 * group_order and q % e == 1 and is_prime(q):
            return q
        q += 1


def primitive_root(q: int) -> int:
    m = q - 1
    fac = []
    t, f = m, 2
    while f * f <= t:
        if t % f == 0:
            fac.append(f)
            while t % f == 0:
                t //= f
        f += 1
    if t > 1:
        fac.append(t)
    g = 2
    while True:
        if all(pow(g, m // r, q) != 1 for r in fac):
            return g
        g += 1


def root_of_unity(q: int, e: int) -> int:
    """A fixed element of multiplicative order e in GF(q); requires e | q-1."""
    if (q - 1) % e:
        raise TableVerificationError(f"{e} does not divide {q} - 1")
    z = pow(primitive_root(q), (q - 1) // e, q)
    if pow(z, e, q) != 1:
        raise TableVerificationError("root of unity has the wrong order")
    return z


def _invmod_arr(a: np.ndarray, q: int) -> np.ndarray:
    """The inverses mod the prime q of the nonzero residues a."""
    return np.array([pow(int(x), q - 2, q) for x in a], dtype=np.int64)


# ---------------------------------------------------------------------------
# dense linear algebra mod q (small matrices)


def rref_mod(M: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """Row-reduced echelon form mod q; returns (R, pivot column list)."""
    R = M.astype(np.int64) % q
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(R[r:, c])[0]
        if nz.size == 0:
            continue
        sel = r + int(nz[0])
        if sel != r:
            R[[r, sel]] = R[[sel, r]]
        inv = pow(int(R[r, c]), q - 2, q)
        R[r] = R[r] * inv % q
        mask = R[:, c].copy()
        mask[r] = 0
        hit = np.nonzero(mask)[0]
        if hit.size:
            R[hit] = (R[hit] - mask[hit, None] * R[r][None, :]) % q
        pivots.append(c)
        r += 1
    return R, pivots


def kernel_basis_mod(M: np.ndarray, q: int) -> np.ndarray:
    """Basis (rows) of the right kernel of M over GF(q); tests use it as
    the reference for the splitting code."""
    R, pivots = rref_mod(M, q)
    cols = M.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, fc in enumerate(free):
        basis[idx, fc] = 1
        for r, pc in enumerate(pivots):
            basis[idx, pc] = (-R[r, fc]) % q
    return basis


# ---------------------------------------------------------------------------
# eigenspaces mod q


def _matmul_mod(A: np.ndarray, B: np.ndarray, q: int) -> np.ndarray:
    """A @ B mod q for residue matrices with inner dimension n, A of one or
    two dimensions.  A product of at least 2^18 multiply-adds runs in
    float64 BLAS when n (q-1)^2 < 2^53, so every partial sum is an exact
    integer, in blocks of A's rows and B's columns of at most 2^18
    multiply-adds each, which OpenBLAS keeps on one thread: after a
    threaded product its threads spin for a while, which cost a
    classification of an order-7^6 group more CPU time than the product.
    Smaller products stay in int64."""
    n, w = A.shape[-1], B.shape[-1]
    if A.size * w < 2**18 or n * (q - 1) ** 2 >= 2**53:
        return A @ B % q
    A2 = A.reshape(-1, n).astype(np.float64)
    Bf = B.astype(np.float64)
    out = np.empty((A2.shape[0], w), dtype=np.int64)
    rc = max(1, 2**18 // (n * w))
    cc = max(1, 2**18 // (rc * n))
    for r0 in range(0, A2.shape[0], rc):
        for c0 in range(0, w, cc):
            out[r0:r0 + rc, c0:c0 + cc] = A2[r0:r0 + rc] @ Bf[:, c0:c0 + cc] % q
    return out.reshape(A.shape[:-1] + (w,))


def minimal_polynomial(S: np.ndarray, q: int) -> tuple[list[int], np.ndarray]:
    """Minimal polynomial m of S over GF(q), ascending coefficients,
    monic, and the flattened powers I, S, ..., S^(deg m - 1) as rows.

    The flattened powers are reduced against the earlier ones, kept in
    fully reduced echelon form with the coefficients that write each kept
    row in the powers.  The first power S^r that reduces to zero gives the
    monic relation of least degree.  The arrays are allocated for d + 1
    rows and filled in place; np.zeros maps the pages of a large array
    lazily, so memory grows with deg m, about 2 deg(m) d^2 int64 here."""
    d = S.shape[0]
    R = np.zeros((d + 1, d * d), dtype=np.int64)
    powers = np.zeros((d + 1, d * d), dtype=np.int64)
    coef = np.zeros((d + 1, d + 1), dtype=np.int64)
    pivots: list[int] = []
    P = np.eye(d, dtype=np.int64)
    for j in range(d + 1):
        flat = P.reshape(-1)
        f = flat[pivots]
        red = (flat - _matmul_mod(f, R[:j], q)) % q
        c = -(f @ coef[:j]) % q
        c[j] = 1
        nz = np.flatnonzero(red)
        if nz.size == 0:
            return [int(x) for x in c[: j + 1]], powers[:j]
        pc = int(nz[0])
        inv = pow(int(red[pc]), q - 2, q)
        red = red * inv % q
        c = c * inv % q
        g = R[:j, pc].copy()
        R[:j] -= g[:, None] * red[None, :]
        R[:j] %= q
        coef[:j] -= g[:, None] * c[None, :]
        coef[:j] %= q
        R[j], coef[j], powers[j] = red, c, flat
        pivots.append(pc)
        P = _matmul_mod(P, S, q)
    raise TableVerificationError("matrix powers stay independent past the dimension")


def poly_roots(poly: list[int], q: int) -> list[int]:
    """All roots of poly in GF(q), by vectorized evaluation at every point."""
    xs = np.arange(q, dtype=np.int64)
    vals = np.zeros(q, dtype=np.int64)
    for c in reversed(poly):
        vals = (vals * xs + c) % q
    return [int(x) for x in np.nonzero(vals == 0)[0]]


def eigenspaces(S: np.ndarray, q: int) -> list[np.ndarray]:
    """Bases of the left eigenspaces {x : x S = mu x} of a d x d matrix S
    diagonalizable over GF(q), by ascending mu, each in reduced row
    echelon form (a line may come as any one nonzero row).

    With m the minimal polynomial and q_mu = m / (x - mu), S is
    diagonalizable iff m has deg m distinct roots in GF(q); then q_mu(S)
    is m'(mu) times the projection onto the mu-eigenspace, so its rows
    span it.  One product of the synthetic-division coefficients with the
    stacked powers from minimal_polynomial gives every q_mu(S).  For
    d < q, trace q_mu(S) / m'(mu), the dimension mod q, is the dimension,
    so a line needs no elimination; for d >= q each q_mu(S) is
    row-reduced and its rank is the dimension.

    In the table engine S acts by an element of Z(F_q G), which is
    semisimple as q does not divide |G| and split as q = 1 (mod e); so m
    has distinct roots in GF(q).  A split subspace holds only non-linear
    rows, so d <= |G:Z(G)|/p^2 <= p^(n-3), below 2 sqrt|G| < q for
    |G| = p^n with n <= 6; larger groups can reach d >= q.  The int64
    range of the products (at most d+1 terms below (q-1)^2) is checked
    before the first product.  Memory peaks at about 4 deg(m) d^2 words,
    the powers and the idempotents with their float64 copies; deg m is at
    most min(d, q)."""
    d = S.shape[0]
    if (d + 1) * (q - 1) ** 2 >= 2**63:
        raise TableVerificationError("eigenspace products exceed the int64 range")
    m, powers = minimal_polynomial(S, q)
    r = len(m) - 1
    mus = np.array(poly_roots(m, q), dtype=np.int64)
    if mus.size != r:
        raise TableVerificationError("splitting matrix action was not diagonalizable")
    # quo[:, i] is the x^i coefficient of m / (x - mu), one row per root
    quo = np.zeros((r, r), dtype=np.int64)
    quo[:, r - 1] = 1
    for i in range(r - 1, 0, -1):
        quo[:, i - 1] = (m[i] + mus * quo[:, i]) % q
    idem = _matmul_mod(quo, powers, q).reshape(r, d, d)
    dims = [None] * r
    if d < q:
        deriv = np.zeros(r, dtype=np.int64)  # m'(mu) = q_mu(mu), by Horner
        for i in range(r - 1, -1, -1):
            deriv = (deriv * mus + quo[:, i]) % q
        trace = idem.trace(axis1=1, axis2=2) % q
        dims = (trace * _invmod_arr(deriv, q) % q).tolist()
    pieces = []
    for E, dim in zip(idem, dims):
        if dim == 1:
            pieces.append(E[np.flatnonzero(E.any(axis=1))[:1]])
            continue
        R, piv = rref_mod(E, q)
        if dim is not None and len(piv) != dim:
            raise TableVerificationError("eigenspace lost rank")
        pieces.append(R[: len(piv)])
    if min(map(len, pieces)) == 0 or sum(map(len, pieces)) != d:
        raise TableVerificationError("eigenspace dimensions do not add up")
    return pieces
