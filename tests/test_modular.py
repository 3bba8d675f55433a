"""Linear algebra and eigenspaces mod q against straightforward references."""

import math

import numpy as np
import pytest

from pgclass.errors import TableVerificationError
from pgclass.modular import (_matmul_mod, eigenspaces, kernel_basis_mod, minimal_polynomial,
                             rref_mod)


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


RANGE_MESSAGE = r"^\(q-1\)\^2 is not below 2\^53, the float64 exact range$"


def test_eigenspaces_check_the_int64_range():
    q = 2**31 + 11  # refused by _matmul_mod's guard before primality matters
    with pytest.raises(TableVerificationError, match=RANGE_MESSAGE):
        eigenspaces(np.eye(2, dtype=np.int64), q)


Q20 = 1048573  # 2^20 - 3, a prime: 10^4 (Q20 - 1)^2 >= 2^53
Q_EDGE = math.isqrt(2**53 - 1) + 1  # the largest q with (q-1)^2 < 2^53


@pytest.mark.parametrize("q,a_shape,b_shape", [
    (7, (5,), (5, 3)),  # 1-D times 2-D
    (4733, (6, 9), (9, 4)),
    (4733, (70, 80), (80, 90)),  # 504,000 multiply-adds
    (14407, (3, 4, 5), (3, 5, 2)),  # two stacks
    (14407, (40, 12, 70), (40, 70, 30)),  # 1,008,000 multiply-adds
    (14407, (7, 7), (30, 7, 50)), (14407, (49, 49), (40, 49, 60)),  # broadcast
    (14407, (40, 49, 60), (60, 49)),
    (14407, (300,), (6, 300, 200)),
    (31, (0, 4), (4, 3)), (31, (3, 0), (0, 4)), (31, (3, 4), (4, 0)),  # empty axes
    (31, (0,), (0, 5)), (31, (0, 2, 3), (0, 3, 4)), (31, (2, 3, 0), (2, 0, 4)),
    (Q_EDGE, (3, 2000), (2000, 0)), (Q_EDGE, (0, 2000), (2000, 3)),  # past int64
    (Q20, (10_000,), (10_000, 40)),  # n (q-1)^2 >= 2^53 from here on
    (Q20, (8, 10_000), (10_000, 8)),
    (Q20, (2, 4, 10_000), (2, 10_000, 4)),
    (Q_EDGE, (20, 30), (30, 500)),  # one term per inner chunk
])
def test_matmul_mod_matches_python_integers(q, a_shape, b_shape):
    """_matmul_mod against the product of Python integers (object arrays)
    reduced mod q, with residues drawn from the top 1024 of [0, q), so
    that at q' = 2^20 - 3 and an inner dimension of 10^4 the sums exceed
    2^53 unless the inner axis is cut and reduced between chunks."""
    rng = np.random.default_rng(q + sum(a_shape) + sum(b_shape))
    A = q - 1 - rng.integers(0, min(q, 1024), size=a_shape)
    B = q - 1 - rng.integers(0, min(q, 1024), size=b_shape)
    want = (A.astype(object) @ B.astype(object)) % q
    got = _matmul_mod(A, B, q)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got.astype(object) == want).all()


def test_matmul_mod_refuses_q_past_the_float64_range():
    q = Q_EDGE + 1  # (q-1)^2 >= 2^53
    with pytest.raises(TableVerificationError, match=RANGE_MESSAGE):
        _matmul_mod(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64), q)
