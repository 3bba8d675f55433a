"""Linear algebra and eigenspaces mod q against straightforward references."""

import numpy as np
import pytest

from pgclass.errors import TableVerificationError
from pgclass.modular import eigenspaces, kernel_basis_mod, minimal_polynomial, rref_mod


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
def test_minimal_polynomial_matches_reference(q, seed):
    for S in seeded_matrices(q, seed):
        m, powers = minimal_polynomial(S, q)
        assert m == reference_minimal_polynomial(S, q)
        P = np.eye(S.shape[0], dtype=np.int64)
        assert powers.shape == (len(m) - 1, S.size)
        for row in powers:
            assert (row == P.reshape(-1)).all()
            P = P @ S % q


def _similar_diagonal(eigenvalues, q, rng):
    """B diag(eigenvalues) B^-1 for a random invertible B mod q."""
    d = len(eigenvalues)
    while True:
        B = rng.integers(0, q, size=(d, d))
        if len(rref_mod(B, q)[1]) == d:
            break
    return B @ np.diag(np.asarray(eigenvalues) % q) % q @ _inverse_mod(B, q) % q


def _check_pieces(S, mus, q, pieces):
    """The pieces come in ascending eigenvalue order, each spans the kernel
    of S^T - mu I from rref_mod, a line is one vector and a larger space
    is in reduced row echelon form."""
    d = S.shape[0]
    want = sorted(set(mus))
    assert len(pieces) == len(want)
    for mu, piece in zip(want, pieces):
        ker = kernel_basis_mod((S.T - mu * np.eye(d, dtype=np.int64)) % q, q)
        R, piv = rref_mod(ker, q)
        assert piece.shape[0] == len(piv) == mus.count(mu)
        assert not (piece @ S % q - mu * piece % q).any()
        if len(piv) == 1:
            assert len(rref_mod(np.vstack([R[:1], piece]), q)[1]) == 1
        else:
            assert (piece == R[:len(piv)]).all()


@pytest.mark.parametrize("q,seed", [(7, 1), (31, 2), (211, 3), (4733, 4)])
def test_eigenspaces_match_kernels(q, seed):
    """Diagonalizable matrices with repeated eigenvalues; at q = 7 the
    dimension 9 is above q."""
    rng = np.random.default_rng(seed + 200)
    for d in (2, 3, 6, 9):
        for _ in range(3):
            mus = rng.integers(0, min(q, 4), size=d).tolist()
            S = _similar_diagonal(mus, q, rng)
            _check_pieces(S, mus, q, eigenspaces(S, q))


def test_eigenspaces_with_multiplicities_of_q_and_q_plus_one():
    """With d >= q a trace gives the dimension only mod q: here it would
    read 0 for the 7-dimensional space and 1 for the 8-dimensional one."""
    rng = np.random.default_rng(11)
    mus = [2] * 7 + [5] * 8 + [3]
    S = _similar_diagonal(mus, 7, rng)
    _check_pieces(S, mus, 7, eigenspaces(S, 7))


def test_eigenspaces_reject_a_jordan_block():
    rng = np.random.default_rng(7)
    J = np.array([[3, 1, 0], [0, 3, 0], [0, 0, 5]], dtype=np.int64)
    B = _similar_diagonal([1, 2, 4], 31, rng)  # invertible
    S = B @ J % 31 @ _inverse_mod(B, 31) % 31
    with pytest.raises(TableVerificationError, match="not diagonalizable"):
        eigenspaces(S, 31)


def test_eigenspaces_check_the_int64_range():
    q = 2**31 + 11  # 3 (q - 1)^2 >= 2^63; the range is checked before primality matters
    with pytest.raises(TableVerificationError, match="int64 range"):
        eigenspaces(np.eye(2, dtype=np.int64), q)
