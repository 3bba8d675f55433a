"""Arithmetic over the auxiliary prime field GF(q) used by the table engine.

Everything here is plain integer arithmetic on numpy int64 arrays of
residues in [0, q).  q is the smallest prime = 1 (mod e) above 2 sqrt|G|,
which at desk scale stays far below 2^31, so a product of two residues
fits in 64 bits.  The float64 matrix products that chartable.py uses for
exact orthogonality work modulo other primes q' below 2^20; they are exact
because k (q'-1)^2 < 2^53, the bound that _verify_pairs_against_block
checks.
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


def discrete_log_table(q: int, z: int, e: int) -> np.ndarray:
    """Array D of length q with D[z^t mod q] = t for t in [0, e), else -1."""
    table = np.full(q, -1, dtype=np.int64)
    acc = 1
    for t in range(e):
        table[acc] = t
        acc = acc * z % q
    return table


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
    """Basis (rows) of the right kernel of M over GF(q)."""
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
# polynomials mod q (ascending coefficient lists)


def poly_trim(a: list[int]) -> list[int]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def poly_divmod(a: list[int], b: list[int], q: int) -> tuple[list[int], list[int]]:
    a = [x % q for x in a]
    b = poly_trim([x % q for x in b])
    inv = pow(b[-1], q - 2, q)
    quo = [0] * max(1, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] * inv % q
        quo[k] = c
        if c:
            for t in range(len(b)):
                a[k + t] = (a[k + t] - c * b[t]) % q
    return poly_trim(quo), poly_trim(a[: len(b) - 1] or [0])


def poly_gcd(a: list[int], b: list[int], q: int) -> list[int]:
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b != [0]:
        _, r = poly_divmod(a, b, q)
        a, b = b, r
    inv = pow(a[-1], q - 2, q)
    return [c * inv % q for c in a]


def poly_mul(a: list[int], b: list[int], q: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % q
    return poly_trim(out)


def poly_lcm(a: list[int], b: list[int], q: int) -> list[int]:
    g = poly_gcd(a, b, q)
    quo, rem = poly_divmod(poly_mul(a, b, q), g, q)
    if rem != [0]:
        raise TableVerificationError("gcd does not divide the product")
    return quo


def minimal_polynomial(S: np.ndarray, q: int, *, exhaustive: bool = False) -> list[int]:
    """Divisor of the minimal polynomial of S over GF(q) containing every
    eigenvalue found from the seed vectors.

    The lcm of per-vector annihilators over all standard basis vectors is
    the minimal polynomial exactly; by default the loop stops early once
    two extra seeds add nothing (callers cross-check via eigenspace
    dimensions and can re-run with exhaustive=True)."""
    d = S.shape[0]
    poly = [1]
    stable = 0
    for seed in range(d):
        if len(poly) - 1 == d:
            break
        if not exhaustive and stable >= 2 and len(poly) > 1:
            break
        v = np.zeros(d, dtype=np.int64)
        v[seed] = 1
        ann = _vector_annihilator(S, v, q)
        new = poly_lcm(poly, ann, q)
        stable = stable + 1 if len(new) == len(poly) else 0
        poly = new
    return poly


def _vector_annihilator(S: np.ndarray, v: np.ndarray, q: int) -> list[int]:
    """Monic generator of {f : f(S) v = 0} over GF(q).

    Each new Krylov vector S^k v is reduced against the echelon rows kept
    from the earlier ones (row i is monic at pivot[i] and zero at the
    pivots before it); the first that reduces to zero ends the sequence,
    and the kernel of the stacked Krylov vectors gives the coefficients."""
    rows = []
    echelon: list[np.ndarray] = []
    pivots: list[int] = []
    cur = v % q
    for _ in range(S.shape[0] + 1):
        red = cur
        for row, pc in zip(echelon, pivots):
            if red[pc]:
                red = (red - red[pc] * row) % q
        nz = np.flatnonzero(red)
        if nz.size == 0:
            # current power is dependent: solve for coefficients
            k = len(rows)
            M = np.stack(rows + [cur], axis=0)  # (k+1) x d
            ker = kernel_basis_mod(M.T, q)
            # pick the kernel row with nonzero last coefficient
            for kr in ker:
                if kr[k] % q:
                    inv = pow(int(kr[k]), q - 2, q)
                    return poly_trim([int(c) * inv % q for c in kr])
            raise TableVerificationError("annihilator extraction failed")
        pc = int(nz[0])
        echelon.append(red * pow(int(red[pc]), q - 2, q) % q)
        pivots.append(pc)
        rows.append(cur)
        cur = S @ cur % q
    raise TableVerificationError("Krylov vectors stay independent past the dimension")


def poly_roots(poly: list[int], q: int) -> list[int]:
    """All roots of poly in GF(q), by vectorized evaluation at every point."""
    xs = np.arange(q, dtype=np.int64)
    vals = np.zeros(q, dtype=np.int64)
    for c in reversed(poly):
        vals = (vals * xs + c) % q
    return [int(x) for x in np.nonzero(vals == 0)[0]]
