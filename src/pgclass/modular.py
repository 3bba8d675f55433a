"""Arithmetic over the auxiliary prime field GF(q) used by the table engine.

Everything here works on numpy int64 arrays of residues in [0, q).
_matmul_mod is the one exact product mod q of pgclass.  eigenspaces
splits a space under a matrix S from idempotents that are polynomials in
S, with no elimination per eigenvalue.
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
    """A @ B mod q, exact, as int64, for an int64 A and an integer B of
    residues in [0, q); each caller says why its operands are residues.
    A has one to three dimensions and B two or three; a stack of matrices
    broadcasts against one matrix as in np.matmul.  The one range guard is
    (q-1)^2 < 2^53.

    Fewer than 2^18 multiply-adds, with n (q-1)^2 < 2^63 for the inner
    dimension n, run in int64 (2^16 saved 8 of the kernel's 41 ms in an
    order-7^6 classification but raised its peak RSS).  Larger products
    run in float64 BLAS, in blocks of at most 2^18 multiply-adds, which
    OpenBLAS keeps on one thread (a threaded product's spinning threads
    cost more CPU time than the product).  The inner axis is cut into
    chunks of c terms with c (q-1)^2 + q - 1 < 2^53, which c = 1 meets
    under the guard, and reduced mod q after each chunk, so every float64
    sum is an exact integer."""
    if (q - 1) ** 2 >= 2**53:
        raise TableVerificationError("(q-1)^2 is not below 2^53, the float64 exact range")
    n, w = A.shape[-1], B.shape[-1]
    m = A.shape[-2] if A.ndim > 1 else 1
    madds = max(A.size * w, B.size * m)
    if madds == 0 or (madds < 2**18 and n * (q - 1) ** 2 < 2**63):
        P = A @ B
        P %= q
        return P
    shape = np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + A.shape[-2:-1] + (w,)
    A3 = A.reshape((1,) * (3 - A.ndim) + A.shape).astype(np.float64)
    B3 = B.reshape((1,) * (3 - B.ndim) + B.shape)
    g = max(A3.shape[0], B3.shape[0])
    kc = min(n, (2**53 - q) // (q - 1) ** 2, 2**18)
    rc = max(1, min(m, 2**18 // (kc * w)))
    cc = max(1, min(w, 2**18 // (rc * kc)))
    sc = max(1, min(g, 2**18 // (rc * kc * cc)))
    out = np.empty((g, m, w), dtype=np.int64)
    for s0 in range(0, g, sc):
        As, Bs = (X if X.shape[0] == 1 else X[s0:s0 + sc] for X in (A3, B3))
        for c0 in range(0, w, cc):
            for k0 in range(0, n, kc):
                Bk = Bs[:, k0:k0 + kc, c0:c0 + cc].astype(np.float64)
                for r0 in range(0, m, rc):
                    part = As[:, r0:r0 + rc, k0:k0 + kc] @ Bk
                    blk = out[s0:s0 + sc, r0:r0 + rc, c0:c0 + cc]
                    if k0:
                        part += blk
                    blk[...] = part
                    blk %= q
    return out.reshape(shape)


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
        c = -_matmul_mod(f, coef[:j], q) % q
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
    |G| = p^n with n <= 6; larger groups can reach d >= q.  Every product
    runs in _matmul_mod on residues (S, and the powers, rows and
    coefficients reduced mod q); its guard runs before any other
    arithmetic, so a product of two residues fits in int64.  Memory peaks
    at about 2 deg(m) d^2 words, the powers and the reduced rows or the
    idempotents; deg m is at most min(d, q)."""
    d = S.shape[0]
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
