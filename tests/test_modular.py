"""Linear algebra and polynomials mod q against straightforward references."""

import numpy as np
import pytest

from pgclass.modular import _vector_annihilator, minimal_polynomial, poly_divmod, rref_mod


def first_dependency(vectors, q):
    """Monic coefficients c_0..c_k of the first vector in the list that is a
    combination of the ones before it: sum c_i v_i = 0 with c_k = 1."""
    for k in range(1, len(vectors) + 1):
        M = np.stack(vectors[:k], axis=1) % q  # d x k, columns v_0..v_{k-1}
        R, piv = rref_mod(M, q)
        if len(piv) < k:
            # the last column is the first non-pivot: v_{k-1} = sum R[r] v_piv[r]
            coeffs = [0] * k
            for r, pc in enumerate(piv):
                coeffs[pc] = int(-R[r, k - 1]) % q
            coeffs[k - 1] = 1
            return coeffs
    raise ValueError("no dependency")


def reference_annihilator(S, v, q):
    d = S.shape[0]
    krylov = [v % q]
    for _ in range(d):
        krylov.append(S @ krylov[-1] % q)
    return first_dependency(krylov, q)


def reference_minimal_polynomial(S, q):
    d = S.shape[0]
    powers = [np.eye(d, dtype=np.int64)]
    for _ in range(d):
        powers.append(powers[-1] @ S % q)
    return first_dependency([P.reshape(-1) for P in powers], q)


def seeded_matrices(q, seed):
    rng = np.random.default_rng(seed)
    out = []
    for d in (1, 2, 5, 8):
        out.append(rng.integers(0, q, size=(d, d)))
        # a similar copy of a block-diagonal matrix with repeated
        # eigenvalues, so the minimal polynomial has lower degree than d
        blocks = np.zeros((d, d), dtype=np.int64)
        for i in range(d):
            blocks[i, i] = int(rng.integers(0, 3))
            if i and rng.integers(0, 2):
                blocks[i - 1, i] = 1
        while True:
            B = rng.integers(0, q, size=(d, d))
            if len(rref_mod(B, q)[1]) == d:
                break
        Binv = _inverse_mod(B, q)
        out.append(B @ blocks % q @ Binv % q)
        out.append(np.zeros((d, d), dtype=np.int64))
    return out


def _inverse_mod(B, q):
    d = B.shape[0]
    R, _ = rref_mod(np.concatenate([B, np.eye(d, dtype=np.int64)], axis=1), q)
    return R[:, d:]


@pytest.mark.parametrize("q,seed", [(7, 1), (31, 2), (211, 3), (4733, 4)])
def test_vector_annihilator_matches_reference(q, seed):
    rng = np.random.default_rng(seed + 100)
    for S in seeded_matrices(q, seed):
        d = S.shape[0]
        seeds = [np.eye(d, dtype=np.int64)[i] for i in range(d)]
        seeds.append(rng.integers(0, q, size=d))
        for v in seeds:
            if not v.any():
                continue
            assert _vector_annihilator(S, v, q) == reference_annihilator(S, v, q)


@pytest.mark.parametrize("q,seed", [(7, 1), (31, 2), (211, 3), (4733, 4)])
def test_minimal_polynomial_matches_reference(q, seed):
    for S in seeded_matrices(q, seed):
        want = reference_minimal_polynomial(S, q)
        assert minimal_polynomial(S, q, exhaustive=True) == want
        # the early-stopping default returns a monic divisor of it
        got = minimal_polynomial(S, q)
        assert got[-1] == 1
        assert poly_divmod(want, got, q)[1] == [0]
