"""Exact irreducible character tables via class-algebra eigenvectors.

Pipeline, the same for every group:

1.  Conjugacy classes in canonical order; exponent e; auxiliary prime q
    with q = 1 (mod e) and q > 2 sqrt|G|; a fixed e-th root of unity z in
    GF(q).
2.  The linear characters come straight from the pc relations: the
    exponent vectors t over the pc generators that satisfy the power and
    commutator relations in Z/e, |G:G'| of them (linear_character_exponents).
    The row of t reads zeta_e^(d . t) at a class rep with normal-form
    digits d.  The table stores the rows t as one block lin_t, n integers
    a row, beside its one n x k matrix of class-rep digits; the values are
    read from them on demand and never stored.  The linear rows never
    enter steps 5 and 6, and they head the table in the order of their
    mod-q values, which a prefix of the columns decides (_linear_order).
    When they number k (G is abelian) they are the whole table, and steps
    3 and 4 are skipped.
3.  Joint eigenvectors of the size-1 (central) class matrices are written
    down directly: Z(G) acts on the class set, and for each orbit O with
    basepoint g and each character mu of Z(G) trivial on the orbit
    stabilizer, the twisted indicator v[cl(z g)] = mu(z) is an
    eigenvector.  This splits the class space into blocks indexed by
    central characters.  Z(G) is enumerated once in the normal form of its
    chain-jump elements b_a, and its characters solve its power relations
    in Z/e, as in step 2.  The orbits and their transporters come from
    orbit-minimum gathers along b_m, ..., b_1 that carry the transporters'
    digits, and every stabilizer Z(G) ∩ g^-1 cl(g) from one pairwise
    product over the basepoint classes (_central_blocks).
4.  A block sheds the span of its linear rows by a written-down
    annihilator (_linear_annihilator).  Remaining splitting uses class
    matrices in ascending class-size order, restricted to each unsplit
    subspace; each eigenspace is the row space of an idempotent built from
    the minimal polynomial (modular.eigenspaces), recursing until every
    subspace is a line.  Only one block per Galois orbit is split.
    sigma_s (s = _galois_unit(e)) maps chi to g -> chi(g^s), which mod q
    is the column gather by the power map pi_s, pi_s[j] the class of
    rep_j^s.  As |K_j| = |K_pi_s(j)|, the eigenvectors gather the same way,
    omega_(sigma chi) = omega_chi o pi_s, and the block of mu goes to that
    of mu^s; so every other block of an orbit takes its vectors by gathers
    (_split_blocks).
5.  Degrees of the non-linear rows (stage 4) come from the norm relation
    d^2 = |G| / sum_j w_j w_j* / n_j; since the p-powers from p to sqrt|G|
    stay distinct mod q, and none is 1, the degree is recovered exactly.
6.  The non-linear values lift to Q(zeta_e).  Every row is first offered
    to geometric certification: a candidate class (|chi|^2 = d^2 mod q)
    whose power sequence is verified to be geometric mod q has
    multiplicity vector d*delta, i.e. value d*zeta^t, and a row whose
    certified support H satisfies d^2 |H| = |G| vanishes off H because
    sum over G of |chi|^2 = |G| leaves nothing for the complement.  The
    test runs once per element order m, over every candidate pair of a row
    and a class of that order at once (_certify).  A certified row is
    stored as its exponents t, -1 where the value is 0: one row of the
    table's block cexp, (rows, k) of np.min_scalar_type(-e), int8 at every
    corpus exponent, read through the linear rows' exponent path
    (_Row.texp).  Certification catches every central-type row (_lift_rows
    says why), so the rows left over are stored dense, in the table's block
    mults, (rows, e, k) of the narrowest unsigned dtype that holds their
    largest degree (_mult_dtype: one byte per multiplicity at every order
    <= p^6 with p <= 13).  The table owns the blocks, and each row is a
    view of its kind's block (CharacterTable).  One row per sigma_s-orbit
    takes Dixon's recovery at every class: for a class of element order m
    the multiplicities m_u = (1/m) sum_s chi(g^s) z^(-us e/m) are one m-point
    DFT along the class's power orbit, evaluated mod q, in chunks of about
    2^18 entries (_orbit_dft_mults).  Each multiplicity is an integer
    in [0, d] < q, so the lift is exact.  The other rows of the orbit are
    found by their mod-q rows gathered by pi_s, and take the multiplicities
    gathered along the exponents, u -> u s^-1 (_lift_rows).  Both are
    written into the block directly.  compute_table then evaluates both
    blocks mod q (_residues) and compares every row with its mod-q row.

All verification is exact.  First orthogonality of every pair of rows
rests on one argument: the linear rows are distinct homomorphisms, each
t checked against the relations (von Dyck), each checked trivial on the
subgroup whose cosets are summed over (that of G'), so each is constant on
those cosets; the non-linear rows are closed under the Galois group of
Q(zeta_e); and each has a central character mu, chi(g z) = mu(z) chi(g)
for z in Z(G), checked exactly on the stored data.  Rows of different mu
are orthogonal exactly.  Within one mu, the products run over one
basepoint per orbit of Z(G) on the classes, modulo a few primes
q' = 1 (mod e) other than q: the row norms at primes whose product
exceeds their bound, and, once they are 1, the in-group products and the
sums of |K_j| chi(g_j) over the classes of each coset of G' (which stand
for the products with every linear row) at the fewest primes whose
product exceeds |G|, the Cauchy-Schwarz bound.  A row whose mu is not 1
at a chain generator of Z(G) in G' has all those coset sums 0 exactly.
The same residues give the column diagonal, and the restriction norms
need no arithmetic; _verify_table has the proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .cyclotomic import Cyclotomic, _prime_power_split, phi, root_sum
from .errors import TableVerificationError
from .group import (ConjugacyClassSet, Group, _chain_gens, _ChainIndex, _coset_minima,
                    group_of, p_log)
from .modular import _invmod_arr, _matmul_mod, eigenspaces, find_aux_prime, root_of_unity
from .presentation import is_prime

_MAX_CLASSES = 6000


# ---------------------------------------------------------------------------
# rows


class _Row:
    """One irreducible character: a view of its table's data for its kind."""

    __slots__ = ("degree", "e", "k", "kind", "t", "digits", "cexp", "mults")

    def __init__(self, degree, e, k, kind, t=None, digits=None, cexp=None, mults=None):
        self.degree = int(degree)
        self.e = e
        self.k = k
        self.kind = kind          # 'unity' | 'central' | 'dense'
        self.t = t                # unity: its row of the table's lin_t, (n,) exponents of
        #                           zeta_e at the pc generators
        self.digits = digits      # unity: the table's (n, k) class-rep digits (_rep_digits)
        self.cexp = cexp          # central: its row of the table's cexp block, (k,)
        #                           exponents of zeta_e, -1 where the row is 0
        self.mults = mults        # dense: its row of the table's mults block, (e, k)
        #                           eigenvalue multiplicities

    # -- exact values --------------------------------------------------------
    # A unity or central row is d zeta_e^t at a class with exponent t >= 0,
    # and 0 where t = -1 (central rows only); a dense row is the sum of its
    # multiplicities' roots of unity.

    @property
    def texp(self) -> np.ndarray:
        """unity and central: the exponent of zeta_e at every class rep."""
        return self._texp_at(slice(None))

    def _texp_at(self, cols):
        if self.kind == "central":
            return self.cexp[cols]
        return self.t @ self.digits[:, cols] % self.e

    def value(self, j: int) -> Cyclotomic:
        if self.kind == "dense":
            return root_sum(self.e, self.mults[:, j])
        return _scaled_root(self.degree, self.e, int(self._texp_at(j)))


def _scaled_root(d: int, e: int, t: int) -> Cyclotomic:
    """d zeta_e^t, and 0 for t = -1: a unity or central-type entry."""
    return d * Cyclotomic.root(e, t) if t >= 0 else Cyclotomic.zero()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _mult_dtype(d_max: int) -> np.dtype:
    """The dtype of a block of multiplicities of rows of degree at most
    d_max: np.min_scalar_type(d_max), uint8 up to 255 and uint16 up to
    65535.  A multiplicity lies in [0, d], so this dtype holds every one
    exactly; a d_max that no unsigned dtype holds raises."""
    dt = np.min_scalar_type(d_max)
    if dt.kind != "u" or d_max > np.iinfo(dt).max:
        raise TableVerificationError("no unsigned dtype holds the multiplicities")
    return dt


def _zero_mask_pp(mults: np.ndarray, e: int) -> np.ndarray:
    """Exact zero test for multiplicity arrays over prime-power e > 1,
    exponent at axis 1, of shape (n, e, ...): only dense rows use it, and
    a dense row needs a non-abelian G, so e >= p.  With r the prime,
    sum_u m_u zeta_e^u is 0 iff m_u depends on u mod e/r alone."""
    r, _ = _prime_power_split(e)
    resh = mults.reshape((mults.shape[0], r, e // r) + mults.shape[2:])
    return (resh == resh[:, :1]).all(axis=(1, 2))


# ---------------------------------------------------------------------------
# table type


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """All irreducible characters of the group, exactly.

    The table owns its rows' exact data, one array per kind, each in table
    order: lin_t, the linear rows' exponents at the pc generators, which
    read the one (n, k) matrix digits of class-rep digits (_rep_digits);
    degs, the non-linear rows' degrees, and dense, the mask of those that
    are stored dense; cexp, the central-type rows' exponents, one (rows, k)
    block with -1 where a row is 0; and mults, the dense rows'
    multiplicities, one (rows, e, k) block (_lift_rows), exponent-major, so
    that a row is an (e, k) view and every check of the block reads
    contiguous class slices.  The linear rows come first, then the
    non-linear ones.  rows is built from these whenever a table is made,
    dataclasses.replace included: one _Row per character, whose arrays are
    views of them, so the rows read exactly the data that _verify_table
    checks.  A block whose row count differs
    from the mask's count of its kind raises.

    center_masks and nonzero_masks are the non-linear rows' class masks,
    (m, k) bool arrays in degs order, built from the blocks on first read
    and kept read-only for the table's life: Z(chi), the classes where
    |chi(g)| = chi(1), and the support, where chi(g) != 0.  A linear row is
    all-True in both, by its kind, and is not stored.  The blocks are
    read-only, so the masks cannot go stale, and dataclasses.replace builds
    a table that forms its own."""

    group: Group
    classes: ConjugacyClassSet
    field_prime: int
    exponent: int
    lin_t: np.ndarray
    digits: np.ndarray
    degs: np.ndarray
    dense: np.ndarray
    cexp: np.ndarray
    mults: np.ndarray
    verification: dict = field(default_factory=dict)
    rows: list = field(init=False, repr=False)

    def __post_init__(self):
        k, e = self.classes.count, self.exponent
        dense = np.asarray(self.dense, dtype=bool)
        n_d = int(np.count_nonzero(dense))
        if (np.shape(self.degs) != dense.shape or len(self.cexp) != dense.size - n_d
                or len(self.mults) != n_d):
            raise TableVerificationError("a row block does not match the kind mask")
        rows = [_Row(1, e, k, "unity", t=t, digits=self.digits) for t in self.lin_t]
        at = np.where(dense, np.cumsum(dense), np.cumsum(~dense)) - 1  # position in its block
        for d, is_dense, i in zip(np.asarray(self.degs).tolist(), dense.tolist(), at.tolist()):
            rows.append(_Row(d, e, k, "dense", mults=self.mults[i]) if is_dense
                        else _Row(d, e, k, "central", cexp=self.cexp[i]))
        object.__setattr__(self, "rows", rows)

    @property
    def count(self) -> int:
        return len(self.rows)

    @cached_property
    def center_masks(self) -> np.ndarray:
        # |value| = d  <=>  all d eigenvalues coincide  <=>  max mult = d
        return self._class_masks(lambda D: D.max(axis=1) == self.degs[self.dense, None])

    @cached_property
    def nonzero_masks(self) -> np.ndarray:
        return self._class_masks(lambda D: ~_zero_mask_pp(D, self.exponent))

    def _class_masks(self, of_dense) -> np.ndarray:
        """An (m, k) read-only mask over the non-linear rows: of_dense(mults)
        on the dense rows, and cexp >= 0 on the central-type rows, which are
        d times a root of unity there and 0 elsewhere."""
        out = np.empty((len(self.degs), self.classes.count), dtype=bool)
        out[~self.dense] = self.cexp >= 0
        if len(self.mults):
            out[self.dense] = of_dense(self.mults)
        return _read_only(out)

    def degrees(self) -> list[int]:
        return [1] * len(self.lin_t) + self.degs.tolist()

    def cd_multiset(self) -> dict[int, int]:
        ds, counts = np.unique(self.degs, return_counts=True)
        return {1: len(self.lin_t), **dict(zip(ds.tolist(), counts.tolist()))}

    def cd_set(self) -> tuple[int, ...]:
        return (1, *np.unique(self.degs).tolist())

    def value(self, row_index: int, class_index: int) -> Cyclotomic:
        return self.rows[row_index].value(class_index)

    def kernel_masks(self, cols) -> np.ndarray:
        """A (rows, |cols|) bool array: whether each row's kernel holds
        each of the classes cols (an index array or a class mask).  Each
        block is read at those classes alone: a linear row's t @ digits is
        0 mod e there, a central-type row's exponent 0, and a dense row's
        multiplicity at exponent 0 its degree."""
        n_lin = len(self.lin_t)
        lin = self.lin_t @ self.digits[:, cols] % self.exponent == 0
        out = np.empty((self.count, lin.shape[1]), dtype=bool)
        out[:n_lin] = lin
        nonlin = out[n_lin:]
        nonlin[~self.dense] = self.cexp[:, cols] == 0
        nonlin[self.dense] = self.mults[:, 0, cols] == self.degs[self.dense, None]
        return out

    def value_keys(self, cols=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """(key, strs): the values at the classes cols (an index array, all
        k by default) as a (rows, |cols|) array key of indices into strs,
        an object array of the distinct strings that occur, so that
        strs[key[i, j]] is str(self.value(i, cols[j])).  key takes the
        narrowest unsigned dtype that indexes strs.

        A p-group table takes few distinct values (G_(14,3) at p = 5 has
        76 in 555,025 entries), so each entry first gets an int64 key for
        its stored exact value, which fixes the value, and each key that
        occurs is formatted once.  A unity or central-type entry d zeta_e^t
        has key i (e + 1) + t, with i the index of d in cd_set() and t = e
        standing for a 0; a dense entry has one key past those per distinct
        multiplicity vector of the dense block at cols, read from one
        class-major copy of it.  Keys whose strings coincide (a 0 of each
        degree, say) are then merged, so no string occurs twice in strs."""
        e, n_lin = self.exponent, len(self.lin_t)
        cd = self.cd_set()
        digits = self.digits[:, cols]
        key = np.empty((self.count, digits.shape[1]), dtype=np.int64)
        key[:n_lin] = self.lin_t @ digits % e  # degree 1 is index 0
        nonlin = key[n_lin:]
        at = np.searchsorted(cd, self.degs[~self.dense])
        cexp = self.cexp[:, cols].astype(np.int64)  # t = e need not fit cexp's dtype
        nonlin[~self.dense] = at[:, None] * (e + 1) + np.where(cexp < 0, e, cexp)
        span = len(cd) * (e + 1)
        vecs = self.mults[:, :, cols].transpose(0, 2, 1).reshape(-1, e)
        _, first, inv = np.unique(_row_keys(vecs), return_index=True, return_inverse=True)
        nonlin[self.dense] = span + inv.reshape(len(self.mults), key.shape[1])

        def formatted(x: int) -> str:
            if x >= span:
                return str(root_sum(e, vecs[first[x - span]]))
            i, t = divmod(x, e + 1)
            return str(_scaled_root(cd[i], e, t if t < e else -1))

        used = np.flatnonzero(np.bincount(key.reshape(-1), minlength=span + len(first)))
        index: dict[str, int] = {}
        slot = np.empty(span + len(first), dtype=np.min_scalar_type(used.size))
        slot[used] = [index.setdefault(formatted(x), len(index)) for x in used.tolist()]
        strs = np.empty(len(index), dtype=object)
        strs[:] = list(index)
        return slot[key], strs

    def value_strings(self, cols=slice(None)) -> list[list[str]]:
        """The values at the classes cols (an index array, all k by default)
        as strings, row by row: str(self.value(i, j)) for j in cols, read
        from value_keys(cols) one row at a time, which keeps the list of
        Python ints of a whole key matrix out of memory."""
        key, strs = self.value_keys(cols)
        return [strs[row].tolist() for row in key]

    def json_header(self) -> dict:
        """to_json's fields other than "rows": the group, its order and
        prime, the table's field prime and exponent, and each class's rep
        (its normal-form exponents, the table's digits) and size."""
        G = self.group
        return {
            "group": G.pres.name,
            "order": G.order,
            "prime": G.p,
            "field_prime": self.field_prime,
            "exponent": self.exponent,
            "classes": [{"rep": rep, "size": size} for rep, size
                        in zip(self.digits.T.tolist(), self.classes.sizes.tolist())],
        }

    def to_json(self) -> dict:
        return {
            **self.json_header(),
            "rows": [
                {"degree": d, "values": vals}
                for d, vals in zip(self.degrees(), self.value_strings())
            ],
        }


# ---------------------------------------------------------------------------
# linear characters from the pc relations


def linear_character_exponents(G: Group) -> tuple[np.ndarray, int]:
    """All |G:G'| homomorphisms G -> <zeta_e>, e = G.exponent, as exponent
    rows t over the pc generators: a_i goes to zeta_e^t_i, and an element
    with normal-form digits d to zeta_e^(d . t).

    By von Dyck's theorem t extends to a homomorphism exactly when it
    satisfies the relations of G.pres in the abelian target Z/e, each word
    w read as its exponent-sum vector v(w): a_i^p = w_i gives
    p t_i = v(w_i) . t and [a_j, a_i] = w_ji (j > i) gives v(w_ji) . t = 0.
    Both words lie in <a_(i+1), ..., a_n>, so the rows are built from the
    last generator up.  At a_i the rows that break a commutator relation
    [a_j, a_i] are dropped, and each row left has p solutions of
    p t_i = u (mod e), u = v(w_i) . t, when p divides u and none otherwise.
    The count is checked against |G:G'| from the group tables."""
    P = G.pres
    p, n, e = G.p, G.n, G.exponent

    def sums(word) -> np.ndarray:
        v = np.zeros(n, dtype=np.int64)
        for g, x in word:
            v[g] += x
        return v

    powers = np.stack([sums(w) for w in P.power_rels])
    comms = [np.array([sums(P.comm_rel(j, i)) for j in range(i + 1, n)],
                      dtype=np.int64).reshape(-1, n) for i in range(n)]
    T = _relation_solutions(powers, comms, p, e)
    if T.shape[0] * G.derived.order != G.order:
        raise TableVerificationError("linear character count differs from |G:G'|")
    return T, e


def _relation_solutions(powers: np.ndarray, comms: list, p: int, e: int) -> np.ndarray:
    """Every t in (Z/e)^n with p t_i = powers[i] . t and comms[i] t = 0 for
    each i, where powers[i] and the rows of comms[i] are supported on the
    coordinates after i.

    The rows are built from the last coordinate up.  At i the rows that
    break a row of comms[i] are dropped, and each row left has the p
    solutions t_i = u/p + b e/p (b < p) of p t_i = u (mod e),
    u = powers[i] . t, when p divides u and none otherwise; b is the most
    significant digit of the row index so far.  So when no row is ever
    dropped, row s has t_i = u/p + b_i e/p with s = sum_i b_i p^(n-1-i)
    (_CenterChain.code reads s back)."""
    n = powers.shape[0]
    T = np.zeros((1, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        if comms[i].size:
            T = T[(T @ comms[i].T % e == 0).all(axis=1)]
        u = T @ powers[i] % e
        T, u = T[u % p == 0], u[u % p == 0]
        T = np.tile(T, (p, 1))
        T[:, i] = (np.tile(u // p, p) + np.repeat(np.arange(p), u.size) * (e // p)) % e
    return T


# ---------------------------------------------------------------------------
# power-class data


class _PowerData:
    """Power orbits of the classes cols (a nonempty index array, which the
    identity class always joins): mat[s, i] is the class of rep^s for
    rep = reps[cols[i]] and s < ords[i], the order of rep, and -1 past it."""

    def __init__(self, G: Group, cls: ConjugacyClassSet, cols: np.ndarray, e: int):
        reps = cls.reps[cols].astype(np.int64)
        X = np.zeros(cols.size, dtype=np.int64)
        rows = [cls.classof[X]]
        ords = np.zeros(cols.size, dtype=np.int64)
        active = np.arange(cols.size)
        while active.size:
            if len(rows) > e:
                raise TableVerificationError("element order exceeded the group exponent")
            X[active] = G.pairwise_mul(X[active], reps[active])
            done = X[active] == 0
            ords[active[done]] = len(rows)
            active = active[~done]
            row = np.full(cols.size, -1, dtype=np.int64)
            row[active] = cls.classof[X[active]]
            rows.append(row)
        self.ords = ords
        self.mat = np.stack(rows[:-1])


def _power_classes(G: Group, cls: ConjugacyClassSet, s: int) -> np.ndarray:
    """pi_s: pi_s[c] is the class of rep_c^s, by square-and-multiply over
    the class reps."""
    X = cls.reps.astype(np.int64)
    Y = None
    while s:
        if s & 1:
            Y = X if Y is None else G.pairwise_mul(Y, X)
        s >>= 1
        if s:
            X = G.pairwise_mul(X, X)
    return cls.classof[Y]


def _digits(G: Group, idxs) -> np.ndarray:
    """The normal-form digits of the elements idxs, one column each."""
    idxs = np.asarray(idxs, dtype=np.int64)
    return np.stack([d[idxs] for d in G.digit_arrays]).reshape(G.n, idxs.size)


def _rep_digits(G: Group, cls: ConjugacyClassSet) -> np.ndarray:
    """The digits of the class reps, a read-only n x k matrix: the one
    matrix a table's unity rows share."""
    return _read_only(_digits(G, cls.reps))


def _linear_rows_data(G: Group, zc: "_CenterChain"):
    """The rows t of linear_character_exponents, one per linear character,
    plus one block key per row: the code (_CenterChain.code) of its
    restriction to Z(G), t at the digits of the chain elements b_a."""
    T, _ = linear_character_exponents(G)
    return T, zc.code(T @ _digits(G, zc.gens))


# ---------------------------------------------------------------------------
# the eigenvector stages


class _CenterChain(_ChainIndex):
    """Z(G) on its chain-jump elements b_1, ..., b_m (_chain_gens), and its
    characters.

    b_a jumps at the suffix subgroup H_i (b_a in H_i, not in H_(i+1)), and
    K_a = Z(G) ∩ H_i has K_a = U_(j<p) b_a^j K_(a+1).  So every z in Z(G)
    is b_1^d_1 ... b_m^d_m for exactly one digit vector d, the digits of
    its position in the chain index; the p^m normal forms are distinct
    and central, so p^m = |Z(G)| is the check that they enumerate Z(G).
    b_a^p lies in K_(a+1), and powers[a] holds its digits.  Z(G) is
    abelian, so these power relations present it, and by von Dyck's
    theorem its characters Z(G) -> <zeta_e> are the t with
    p t_a = powers[a] . t in Z/e (_relation_solutions with no commutator
    relations), t_a being the exponent at b_a.  The exponent of Z(G)
    divides e, so they number |Z(G)|, which is checked.  No row was then
    dropped, so row s of chars has code s."""

    def __init__(self, G: Group, e: int):
        Z = G.center
        super().__init__(G, Z.gens)
        if self.elems.size != Z.order:
            raise TableVerificationError("chain normal forms do not enumerate Z(G)")
        p, m = self.p, self.m
        self.e = e
        self.powers = self.digits(self.positions([G.pow(b, p) for b in self.gens]))
        if np.tril(self.powers).any():
            raise TableVerificationError("a power b_a^p escapes its chain level")
        self.chars = _relation_solutions(
            self.powers, [np.zeros((0, m), dtype=np.int64)] * m, p, e)
        if self.chars.shape[0] != Z.order:
            raise TableVerificationError("character count of Z(G) differs from |Z(G)|")

    def code(self, t: np.ndarray) -> np.ndarray:
        """The row of chars equal to each row of t, a character of Z(G)
        given by its exponents at b_1, ..., b_m: the digits of the row
        index, b_a = ((t_a - u/p) mod e) / (e/p) with u = powers[a] . t
        (_relation_solutions)."""
        p, e = self.p, self.e
        t = t % e
        code = np.zeros(t.shape[0], dtype=np.int64)
        for a in range(self.m):
            u = t @ self.powers[a] % e
            code = code * p + (t[:, a] - u // p) % e // (e // p)
        return code


def _center_translates(G: Group, cls: ConjugacyClassSet) -> tuple[tuple[int, ...], np.ndarray]:
    """(gens, perms): the chain-jump elements b_a of Z(G) (_chain_gens,
    G.center.gens), and perms[a, j], the class of g_j b_a for the class rep
    g_j.  The central blocks and the pair check both read them."""
    gens = G.center.gens
    perms = [cls.classof[G.rmul_array(cls.reps, b)] for b in gens]
    return gens, np.array(perms, dtype=np.int64).reshape(len(gens), cls.count)


def _center_orbits(perms: list, p: int):
    """(base, digits): for each class c, base[c] is the smallest class of
    c's orbit under Z(G), and digits[c] the chain digits of an element w
    of Z(G) with cl(w rep_c) = base[c].  perms[a][c] is the class of
    b_a rep_c; the recursion is _orbit_minima's, and _central_blocks says
    why the digits concatenate."""
    k = perms[0].size
    r = np.arange(k)
    digits = np.zeros((k, len(perms)), dtype=np.int64)
    for a in range(len(perms) - 1, -1, -1):
        best, best_digits = r, digits
        img = np.arange(k)
        for j in range(1, p):
            img = perms[a][img]
            cand = r[img]
            better = cand < best
            best = np.where(better, cand, best)
            best_digits = np.where(better[:, None], digits[img], best_digits)
            best_digits[better, a] = j
        r, digits = best, best_digits
    return r, digits


@dataclass(frozen=True, eq=False)
class _CentralBlock:
    """One joint eigenspace of the central class matrices.

    The basis vectors are the twisted orbit indicators of one character of
    Z(G); they have pairwise disjoint supports, so a vector's coordinates
    are its entries at the orbit basepoints.  Stored flat, one orbit after
    another: flat_supp, flat_coef and flat_oid give each support class,
    its coefficient and its orbit's position in the block, and seg_starts
    where each orbit starts.  central_key is the code (_CenterChain.code)
    of the central character mu of the block's rows.

    The rest serves the Galois gathers of _split_blocks.  image is the
    position, in the list of _central_blocks, of the block of mu^s
    (s = _galois_unit(e)); center_values holds mu(b_a) mod q at the chain
    generators b_a of Z(G).  Every block shares the last two arrays:
    center_perms[a][c] is the class of b_a rep_c, and power_map[c] that of
    rep_c^s (_power_classes)."""

    basepoints: np.ndarray
    flat_supp: np.ndarray
    flat_coef: np.ndarray
    flat_oid: np.ndarray
    seg_starts: np.ndarray
    central_key: int
    image: int
    center_values: np.ndarray
    center_perms: np.ndarray
    power_map: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.basepoints.size)

    def expand(self, coeff_row: np.ndarray, k: int, q: int) -> np.ndarray:
        """Class-coordinate vector of sum_O coeff_row[O] * v_O."""
        out = np.zeros(k, dtype=np.int64)
        out[self.flat_supp] = coeff_row[self.flat_oid] * self.flat_coef % q
        return out

    def restrict_rows(self, A_rows: np.ndarray, q: int) -> np.ndarray:
        """M[j, O] = (A v_O) sampled at the rows' classes, sparsely."""
        weighted = A_rows[:, self.flat_supp] * self.flat_coef[None, :]
        return np.add.reduceat(weighted, self.seg_starts, axis=1) % q


def _central_blocks(G, cls, zc, zpow):
    """Stage 3: the joint eigenspaces of the central class matrices, one
    block per character mu of Z(G), from array kernels.  zc is the
    _CenterChain of Z(G), and ``zpow[t]`` is z^t mod q for the chosen
    primitive e-th root z.

    - Vectors.  A row chi with chi = chi(1) mu on Z(G) has the eigenvector
      w[c] = |K_c| chi(g_c) / chi(1), and chi(z g) = mu(z) chi(g), so
      w[cl(z g)] = mu(z) w[cl(g)].  Let O be an orbit of Z(G) on the
      classes with basepoint g, and Stab = {z : cl(z g) = cl(g)}
      = Z(G) ∩ g^-1 cl(g).  The twisted indicator v[cl(z g)] = mu(z) is
      well defined iff mu is trivial on Stab.  Those mu number
      |Z(G):Stab| = |O|, so the blocks together have dimension k.
    - Orbits.  K_a = <b_a, ..., b_m> has K_a = U_(j<p) b_a^j K_(a+1), so
      the smallest class of the K_a-orbit of c is the least over j of that
      of the K_(a+1)-orbit of b_a^j c.  _center_orbits takes these
      min-gathers from b_m up to b_1.  Each carries the digits of a
      transporter w with cl(w g_c) = base[c]: the winning j, then the
      digits held for b_a^j c, those of an element of K_(a+1).  Z(G) is
      abelian, so b_a^j times that element is in normal form: the digits
      concatenate.  Then v[c] = mu(w)^-1 = zeta_e^(-t . digits) for the
      exponents t of mu.
    - Stabilizers.  One pairwise product g^-1 x over the members x of
      every basepoint class g; the products that lie in Z(G) are the
      stabilizers.  |Stab| |O| = |Z(G)| is checked, mu is tested once per
      distinct stabilizer, and the mu trivial on it must number |O|.
    - Blocks.  The kept (mu, class) pairs, sum over O of |O|^2 <= k |Z(G)|
      of them, are sorted once by (mu, basepoint, class), and every
      block's flat arrays are slices of the result.
    - Galois images.  sigma_s maps a row with central character mu to one
      with mu^s, whose exponents at the b_a are s t; one code call finds
      the image block of every block, and each must exist."""
    k = cls.count
    e, zorder = zc.e, zc.elems.size
    perms = _center_translates(G, cls)[1]  # zc.gens are G.center.gens
    base, digits = _center_orbits(perms, G.p)
    isbase = base == np.arange(k)

    xs = np.flatnonzero(isbase[cls.classof])
    owner = cls.classof[xs]
    zs = zc.positions(G.pairwise_mul(G.inverse_table[cls.reps[owner]], xs))
    owner, zs = owner[zs >= 0], zs[zs >= 0]
    stab_size = np.bincount(owner, minlength=k)
    if (np.bincount(base, minlength=k)[isbase] * stab_size[isbase] != zorder).any():
        raise TableVerificationError("center orbit and stabilizer sizes disagree")

    # distinct stabilizers, as sorted position rows grouped by size
    order = np.lexsort((zs, owner, stab_size[owner]))
    owner, zs = owner[order], zs[order]
    stab_id = np.empty(k, dtype=np.int64)
    mus = []
    start = 0
    sizes, counts = np.unique(stab_size[isbase], return_counts=True)
    for s, n in zip(sizes.tolist(), counts.tolist()):
        stabs, inv = np.unique(zs[start:start + n * s].reshape(n, s), axis=0,
                               return_inverse=True)
        stab_id[owner[start:start + n * s:s]] = len(mus) + inv.reshape(-1)
        for S in stabs:
            trivial = np.flatnonzero(~(zc.chars @ zc.digits(S).T % e).any(axis=1))
            if trivial.size * s != zorder:
                raise TableVerificationError("characters trivial on a stabilizer miscounted")
            mus.append(trivial)
        start += n * s

    cls_stab = stab_id[base]
    pair_cls = [np.flatnonzero(cls_stab == i) for i in range(len(mus))]
    mu = np.concatenate([np.repeat(m, c.size) for m, c in zip(mus, pair_cls)])
    cl = np.concatenate([np.tile(c, m.size) for m, c in zip(mus, pair_cls)])
    order = np.lexsort((cl, base[cl], mu))
    mu, cl = mu[order], cl[order]
    coef = zpow[-np.einsum("ia,ia->i", zc.chars[mu], digits[cl]) % e]

    new_block = np.r_[True, mu[1:] != mu[:-1]]
    new_orbit = new_block | np.r_[True, base[cl][1:] != base[cl][:-1]]
    oid = np.cumsum(new_orbit) - 1
    orbit_starts = np.flatnonzero(new_orbit)
    if orbit_starts.size != k:
        raise TableVerificationError("central splitting lost dimensions")
    starts = np.flatnonzero(new_block)
    keys = mu[starts]
    s = _galois_unit(e)
    image = zc.code(zc.chars[keys] * s % e)
    pos = np.minimum(np.searchsorted(keys, image), keys.size - 1)
    if (keys[pos] != image).any():
        raise TableVerificationError("a central block has no Galois image")
    values = zpow[zc.chars[keys]]
    power_map = _power_classes(G, cls, s)
    blocks = []
    for i, (lo, hi) in enumerate(zip(starts.tolist(), starts[1:].tolist() + [mu.size])):
        o0 = oid[lo]
        seg = orbit_starts[o0:oid[hi - 1] + 1]
        blocks.append(_CentralBlock(cl[seg], cl[lo:hi], coef[lo:hi], oid[lo:hi] - o0,
                                    seg - lo, int(keys[i]), int(pos[i]), values[i], perms,
                                    power_map))
    return blocks


def _combination_rows(G, cls, rows_needed, pool, weights, q, inv_sizes):
    """Rows (at the given class indices) of sum_i w_i * A_i over the pool.

    A_i[r, c] = #{x in K_i : x^-1 rep_c in K_r} counts the pairs (x, y) in
    K_i x K_r with x y = rep_c.  Counting the triples x y = z over
    K_i x K_r x K_c once by z and once by y gives

        A_i[r, c] = |K_r| / |K_c| * #{x in K_i : x rep_r in K_c},

    so row r costs one right multiplication of the pooled members by rep_r
    and a weighted count of the classes hit.  The division is exact over
    the integers, and mod q it is a multiplication by inv_sizes (the
    inverses of the class sizes mod q): class sizes are powers of p, and
    q = 1 (mod e) with p | e, so q does not divide any of them."""
    k = cls.count
    X = np.concatenate([cls.members[i] for i in pool])
    wX = np.repeat(weights, cls.sizes[pool])
    out = np.empty((rows_needed.size, k), dtype=np.int64)
    for t, r in enumerate(rows_needed):
        counts = np.zeros(k, dtype=np.int64)
        np.add.at(counts, cls.classof[G.rmul_array(X, int(cls.reps[r]))], wX)
        out[t] = counts % q * (cls.sizes[r] % q) % q * inv_sizes % q
    return out


def _linear_annihilator(blk: _CentralBlock, tb: np.ndarray, q: int, zpow: np.ndarray):
    """(RREF basis, pivots) of the annihilator of blk's t linear rows under
    the pairing of _split_blocks; tb[i, O] is row i's exponent at g_O.

    At c = cl(z g_O), z in Z(G), v_O[c] = mu(z) = lambda(z), so
    F[lambda, O] = sum over O of v_O[c] lambda(g_c^-1) = |O| lambda(g_O)^-1.
    The rows are lambda_0 psi with psi over the characters of
    A = G/Z(G)G', so F[lambda_0 psi, O] = psi(g_O)^-1 a_O with
    a_O = |O| lambda_0(g_O)^-1.  The column of (tb - tb[0]) mod e at O
    keys the image of g_O in A; characters of A separate its elements and
    their table is invertible, so F x = 0 iff sum a_O x_O = 0 over each
    key.  With t keys the RREF basis is e_O - (a_O / a_L) e_L for every O
    but the last orbit L of its key, and L is no row's pivot."""
    e = zpow.size
    t, D = tb.shape
    grp = np.unique(((tb - tb[0]) % e).T, axis=0, return_inverse=True)[1].reshape(-1)
    if grp.max() + 1 != t:
        raise TableVerificationError("linear span does not fill its rank")
    last = np.zeros(t, dtype=np.int64)
    np.maximum.at(last, grp, np.arange(D))
    piv = np.flatnonzero(last[grp] != np.arange(D))
    L = last[grp[piv]]
    sizes = np.diff(np.r_[blk.seg_starts, blk.flat_supp.size])
    a = sizes % q * zpow[-tb[0] % e] % q
    C = np.zeros((piv.size, D), dtype=np.int64)
    C[np.arange(piv.size), piv] = 1
    C[np.arange(piv.size), L] = -(a[piv] * _invmod_arr(a[L], q) % q) % q
    return C, piv


def _orbit_leaders(img: np.ndarray) -> np.ndarray:
    """The mask of the least element of each cycle of the permutation img.
    An element that img never brings back means img is no permutation,
    which raises."""
    ar = np.arange(img.size)
    least, x, back = ar, img, img == ar
    for _ in range(img.size + 1):
        if back.all():
            return least == ar
        least = np.minimum(least, x)
        x = img[x]
        back |= x == ar
    raise TableVerificationError("a Galois image map is not a permutation")


def _split_blocks(G, cls, q, blocks, lin_t, lin_keys, digits, zpow, inv_sizes):
    """Stage 4: refine the central blocks until every subspace is a line,
    and return the eigenvectors of the non-linear rows, one per row of a
    (rows, k) int64 array.

    The block of a central character first sheds the span of its linear
    rows (exponents lin_t at the pc generators, so lin_t @ digits at the
    class reps; block keys lin_keys), whose eigenvectors
    w[c] = |K_c| lambda(g_c) are already known exactly: inside a block the
    nonlinear span is the annihilator of the known rows under the class
    algebra pairing B(u, v) = sum_j u_j v_j* / n_j, under which distinct
    rows are orthogonal; _linear_annihilator writes it down.  Splitting
    matrices for what remains are deterministic random combinations of
    class matrices drawn from a pool that grows in ascending class-size
    order (one combination separates everything the pool can separate,
    and growing the pool recruits more class matrices, so the recursion
    on unsplit subspaces terminates), and modular.eigenspaces splits.
    The unsplit subspaces form one flat list of (block position, C, J):
    the basis C stays in reduced row echelon form over the block's orbit
    coordinates, with pivots J, so restricting the action to a subspace is
    a sample of the block action at the pivot columns; a round therefore
    needs only the combination's rows at every subspace's pivot
    basepoints, and restricts them subspace by subspace.  _combination_rows
    builds each such row from the structure-constant symmetry
    A_i[r, c] = |K_r| / |K_c| * #{x in K_i : x rep_r in K_c} with one
    right multiplication of the pool, dividing by |K_c| through
    inv_sizes: q = 1 (mod e) puts q != p, so q never divides a class
    size.

    Only the least block of each orbit of <s> on the blocks (blk.image,
    the block of mu^s) is split.  sigma_s maps chi to g -> chi(g^s), which
    mod q is the gather by the power map pi_s (blk.power_map); since
    |K_j| = |K_pi_s(j)|, it maps the eigenvector w of chi to w o pi_s, that
    of sigma_s chi, and the block of mu to the block of mu^s, linear rows
    to linear rows.  So the vectors of the block s^i steps along the orbit
    are those of the split block gathered i times, one gather per step
    over every vector at once.  Each gathered w is checked to lie in its
    block: w[cl(b_a g)] = mu(b_a) w[cl(g)] mod q at every chain generator
    b_a of Z(G) (blk.center_perms, blk.center_values)."""
    k = cls.count
    e = zpow.size

    by_key = np.argsort(lin_keys, kind="stable")
    sorted_keys = lin_keys[by_key]
    keys = np.array([blk.central_key for blk in blocks], dtype=np.int64)
    lo = np.searchsorted(sorted_keys, keys, side="left")
    hi = np.searchsorted(sorted_keys, keys, side="right")
    dims = np.array([blk.dim for blk in blocks])
    if (hi - lo > dims).any():
        raise TableVerificationError("more linear rows than block dimensions")
    image = np.array([blk.image for blk in blocks], dtype=np.int64)
    leader = _orbit_leaders(image)

    finals, owners = [], []  # the eigenvectors and their blocks' positions
    subs = []  # the unsplit subspaces: (block position, C_rref, pivots)
    # one block per orbit, unless its linear rows fill it
    for i in np.flatnonzero(leader & (hi - lo < dims)).tolist():
        blk, members = blocks[i], by_key[lo[i]:hi[i]]
        if members.size == 0:
            C0 = np.eye(blk.dim, dtype=np.int64)
            J0 = np.arange(blk.dim, dtype=np.int64)
        else:
            C0, J0 = _linear_annihilator(
                blk, lin_t[members] @ digits[:, blk.basepoints] % e, q, zpow)
        if C0.shape[0] == 1:
            finals.append(blk.expand(C0[0], k, q))
            owners.append(i)
        else:
            subs.append((i, C0, J0))

    order_i = [i for i in np.lexsort((np.arange(k), cls.sizes)) if cls.sizes[i] > 1]
    rng = np.random.default_rng(0x5EED)
    pool_end = 0
    retries = 0
    while subs:
        if pool_end < len(order_i):
            pool_end = min(max(2 * pool_end, 16), len(order_i))
        elif retries >= 4:
            raise TableVerificationError("eigenspace splitting did not complete")
        pool = order_i[:pool_end]
        weights = rng.integers(1, q, size=len(pool))
        rows_needed = np.unique(np.concatenate([blocks[i].basepoints[J] for i, _, J in subs]))
        Arows = _combination_rows(G, cls, rows_needed, pool, weights, q, inv_sizes)
        slot = np.full(k, -1, dtype=np.int64)
        slot[rows_needed] = np.arange(rows_needed.size)

        progressed = False
        still = []
        for i, C, J in subs:
            blk = blocks[i]
            M = blk.restrict_rows(Arows[slot[blk.basepoints[J]]], q)
            S = _matmul_mod(C, M.T, q)  # (d, d): images; C and M are residues
            if (S == np.diag(np.full(S.shape[0], S[0, 0]))).all():
                still.append((i, C, J))  # scalar action, no refinement here
                continue
            progressed = True
            for piece in eigenspaces(S, q):
                Cnew = _matmul_mod(piece, C, q)
                if piece.shape[0] == 1:
                    finals.append(blk.expand(Cnew[0], k, q))
                    owners.append(i)
                else:  # RREF times RREF is RREF, pivots J at the piece's pivots
                    still.append((i, Cnew, J[(piece != 0).argmax(axis=1)]))
        subs = still
        if not progressed and pool_end >= len(order_i):
            retries += 1

    # the other blocks of each orbit: one gather by pi_s per orbit step,
    # each image checked against the central character of its block
    W = np.array(finals, dtype=np.int64).reshape(-1, k)
    own = np.array(owners, dtype=np.int64)
    values = np.stack([blk.center_values for blk in blocks])
    out = [W]
    while True:
        nxt = image[own]
        keep = np.flatnonzero(~leader[nxt])
        if not keep.size:
            return np.concatenate(out)
        W, own = W[np.ix_(keep, blocks[0].power_map)], nxt[keep]
        for a, perm in enumerate(blocks[0].center_perms):
            if ((W[:, perm] - values[own, a, None] * W) % q).any():
                raise TableVerificationError(
                    "a Galois image of a split vector is not in its central block")
        out.append(W)


# ---------------------------------------------------------------------------
# lifting


def _lift_rows(G, cls, e, q, zpow, dlog, degs, T):
    """(dense, cexp, mults): the exact non-linear rows of the group, one per
    row of T, the mod-q table of the non-linear characters (degrees degs);
    zpow[t] is z^t mod q.  dense marks the rows stored dense, and the two
    read-only blocks hold the rows of each kind in T's order
    (CharacterTable).

    Every non-linear row is first certified central-type where it can be
    (_certify): a row whose candidates are all certified and whose
    certified support H has d^2 |H| = |G| vanishes off H.  Those rows keep
    their rows of geo_t as the block cexp.  The rows left over are stored
    dense, in one (rows, e, k) block mults of _mult_dtype of their largest
    degree, whose dtype is fixed before the first store.  Of each orbit of
    sigma_s (s = _galois_unit(e)) on them, only the first takes
    _orbit_dft_mults at every class, which writes into the block and
    checks the range [0, d] first.  The mod-q row of sigma_s chi is that of
    chi gathered by the power map pi_s, chi(g^s), which matches each row to
    its image, and as sigma_s chi = sum_u m_u zeta^(us), the image's
    multiplicity at u is chi's at u s^-1: the gathers too write into the
    block, each a gather of whole class slices along its exponent axis.
    The block then takes the sum check over that axis, and compute_table
    compares every row with its mod-q row.

    Certification catches every central-type row chi (every value 0 or of
    absolute value d), so a dense row is never of central type:
    - off Z(chi) the value is 0, and 0 != d^2 (mod q) because q > d, so
      the candidate classes are exactly those of Z(chi);
    - on Z(chi), chi = d lambda for a linear character lambda of the
      subgroup Z(chi), so chi(g^s) = d omega^s is geometric;
    - chi vanishes off Z(chi), so d^2 |Z(chi)| = |G|.
    Being of central type is a Galois invariant, so a row's stored kind is
    one too.  The closure check of _verify_structural_pairs, which compares
    the rows kind by kind, relies on this to pass a correct table."""
    k = cls.count
    if degs.size:
        geo_t, central = _certify(G, cls, e, q, dlog, T, degs)
    else:
        geo_t, central = np.zeros((0, k), dtype=np.min_scalar_type(-e)), np.zeros(0, dtype=bool)
    left = np.flatnonzero(~central)
    d_left = degs[left]
    block = np.zeros((left.size, e, k), dtype=_mult_dtype(int(d_left.max(initial=0))))
    if left.size:
        # match each row's sigma_s image, its columns gathered by pi_s, to
        # its row on the columns of _separating_prefix (the rows are
        # distinct on all k, as compute_table checks); a wrong match fails
        # compute_table's mod-q check of the lifted rows
        s = _galois_unit(e)
        c, head = _separating_prefix(lambda c: T[left, :c], k)
        heads = [head, T[np.ix_(left, _power_classes(G, cls, s)[:c])]]
        ids = np.unique(np.concatenate([_row_keys(h) for h in heads]),
                        return_inverse=True)[1].reshape(-1)
        slot = np.full(ids.max() + 1, -1, dtype=np.int64)
        slot[ids[:left.size]] = np.arange(left.size)
        image = slot[ids[left.size:]]
        if (image < 0).any():
            raise TableVerificationError("a Galois image of a dense row is not a row")
        leader = _orbit_leaders(image)
        at = np.flatnonzero(leader)
        power = _PowerData(G, cls, np.arange(k, dtype=np.int64), e)
        _orbit_dft_mults(T[left[at]], power, e, q, zpow, block, at)
        u_from = np.arange(e) * pow(s, -1, e) % e  # an image's mult at u is at u s^-1
        while at.size:
            nxt = image[at]
            keep = np.flatnonzero(~leader[nxt])
            block[nxt[keep]] = block[at[keep]][:, u_from]
            at = nxt[keep]
    if (block.sum(axis=1, dtype=np.int64) != d_left[:, None]).any():
        raise TableVerificationError("multiplicities do not sum to the degree")
    return _read_only(~central), _read_only(geo_t[central]), _read_only(block)


def _certify(G, cls, e, q, dlog, T, degs):
    """(geo_t, central) for the mod-q rows T of degrees degs.  The
    candidate classes of a row are those with chi(g) chi(g^-1) = d^2 mod q
    (and the identity); geo_t[r, j] is the exponent t of the value d zeta^t
    at every candidate j of row r that is certified, -1 elsewhere, in
    np.min_scalar_type(-e), which holds -1 and every exponent; and
    central marks the rows whose candidates are all certified and whose
    certified support H has d^2 |H| = |G| (_lift_rows stores them as
    central-type).  A support with d^2 |H| > |G| raises.

    A candidate g of order m is certified when w = chi(g)/d is z^t with
    t m = 0 (mod e) and the power sequence is geometric mod q,
    chi(g^(s+1)) = w chi(g^s) along the power orbit; the multiplicities
    mod q are then d*delta, hence exactly d*delta: the value is d*zeta^t.
    The classes are batched by element order m, as in _orbit_dft_mults:
    for the (row, class) candidate pairs with a class of order m, one
    gather of T along the classes' power orbits and one test, over chunks
    of about 2^16 gathered entries: a few such int64 arrays stay below the
    per-class loop's transients on the small tables of a census, where
    chunks of 5 * 10^5 entries raised the peak."""
    invclass = cls.classof[G.inverse_table[cls.reps]]
    d_arr = np.asarray(degs, dtype=np.int64)
    inv_d = _invmod_arr(d_arr, q)
    cand = T * T[:, invclass] % q == (d_arr * d_arr % q)[:, None]
    cand[:, 0] = True
    needed = np.flatnonzero(cand.any(axis=0))
    power = _PowerData(G, cls, needed, e)
    geo_t = np.full(T.shape, -1, dtype=np.min_scalar_type(-e))
    for m in np.unique(power.ords).tolist():
        at = np.flatnonzero(power.ords == m)
        orbits = power.mat[:m, at].T  # (n, m): class of rep^s
        rows, pos = np.nonzero(cand[:, needed[at]])
        chunk = max(1, 2**16 // m)
        for lo in range(0, rows.size, chunk):
            r, c = rows[lo:lo + chunk], pos[lo:lo + chunk]
            j = needed[at[c]]
            w = T[r, j] * inv_d[r] % q
            tw = dlog[w]
            V = T[r[:, None], orbits[c]]  # (pairs, m)
            geom = (V[:, :-1] * w[:, None] % q == V[:, 1:]).all(axis=1)
            good = (tw >= 0) & (tw * m % e == 0) & geom
            geo_t[r[good], j[good]] = tw[good]
    geo = geo_t >= 0
    norm = d_arr * d_arr * (geo @ cls.sizes.astype(np.int64))
    if (norm > G.order).any():
        raise TableVerificationError("support exceeds the norm bound")
    return geo_t, (norm == G.order) & ~(cand & ~geo).any(axis=1)


def _orbit_dft_mults(Trows, power, e, q, zpow, out: np.ndarray, dest: np.ndarray) -> None:
    """Eigenvalue multiplicities of the mod-q rows Trows at power's columns,
    Dixon's recovery, written into the rows dest of out, an array of shape
    (., e, columns) that holds 0 at every exponent.  The last axis of out
    is indexed by the position among power's columns, which are all k
    classes in _lift_rows.

    If g has order m, then chi(g^s) = sum_u mult_u zeta_m^(us), where
    mult_u counts the eigenvalues zeta_m^u = zeta_e^(u e/m) of g.  The
    m-point DFT along the power orbit of g, (1/m) sum_s chi(g^s) z_m^(-us)
    mod q with z_m = z^(e/m) = zpow[e/m], is mult_u mod q, which is mult_u
    itself whenever 0 <= mult_u <= chi(1) < q.  A residue above the degree
    chi(1) = Trows[:, 0] raises before it is stored, so a narrow out never
    wraps one.  It is written at exponent u e/m, the strided slice
    out[:, ::e/m], through a copy of the chunk's rows of out (a three-index
    scatter took three times as long); every other exponent has
    multiplicity 0.
    The classes are batched by element order, with one m x m DFT matrix
    per order m, 1/m folded in, and the rows in chunks of about 2^18
    gathered entries (2 MiB of int64; 5 * 10^5 took more time and memory).
    Each chunk is one _matmul_mod of the DFT matrix, reduced mod q, and the
    chunk's gathered rows of the mod-q table Trows, both residues.  The
    gather and the product are the only arrays of that size alive at once,
    and the product is dropped before the next chunk's."""
    R = Trows.shape[0]
    for m in np.unique(power.ords).tolist():
        at = np.flatnonzero(power.ords == m)
        orbits = power.mat[:m, at]  # (m, n): class of rep^s
        s = np.arange(m)
        stride = e // m
        dft = zpow[np.outer(s, -s) * stride % e] * pow(m, q - 2, q) % q  # z_m^(-us) / m
        chunk = max(1, 2**18 // (m * at.size))
        for r0 in range(0, R, chunk):
            mults = _matmul_mod(dft, Trows[r0:r0 + chunk][:, orbits], q)  # (c, m, n)
            if (mults > Trows[r0:r0 + chunk, 0, None, None]).any():
                raise TableVerificationError("multiplicity outside [0, degree]")
            rows = out[dest[r0:r0 + chunk]]
            rows[:, ::stride][:, :, at] = mults
            out[dest[r0:r0 + chunk]] = rows
            del mults, rows  # before the next chunk's product


def _linear_order(lin_t: np.ndarray, digits: np.ndarray, zpow: np.ndarray) -> np.ndarray:
    """The lexicographic order of the linear rows mod q, zpow[lin_t @ digits
    mod e], taken on ranks: rank[t], the rank of zpow[t] among the e
    distinct powers, is stored big-endian in one byte when e <= 256 and two
    when e <= 65536.

    Only the columns of _separating_prefix are formed.  Two distinct rows
    compare at their first differing column; when the prefix separates
    them, that column lies in the prefix, so the order on the prefix is the
    order on all k columns.  The linear rows are distinct characters, so
    some prefix separates them all (_verify_structural_pairs checks the
    distinctness)."""
    e = zpow.size
    rank = np.argsort(np.argsort(zpow)).astype(np.min_scalar_type(e - 1).newbyteorder(">"))
    _, ranks = _separating_prefix(lambda c: rank[lin_t @ digits[:, :c] % e], digits.shape[1])
    return np.argsort(_row_keys(ranks), kind="stable")


def _separating_prefix(rows_on, k: int):
    """(c, rows_on(c)) for the first c of min(8, k), doubling up to k, at
    which the rows rows_on(c), formed on the first c of k columns, are
    distinct, or for c = k."""
    c = min(8, k)
    while True:
        rows = rows_on(c)
        if c == k or _distinct_rows(rows) == rows.shape[0]:
            return c, rows
        c = min(2 * c, k)


# ---------------------------------------------------------------------------
# main entry


_table_cache: dict[Group, CharacterTable] = {}


def table_of(P) -> CharacterTable:
    """compute_table with per-group memoization."""
    G = group_of(P)
    T = _table_cache.get(G)
    if T is None:
        T = compute_table(G)
        _table_cache[G] = T
    return T


def compute_table(P) -> CharacterTable:
    """Exact irreducible character table of the presented group."""
    G = group_of(P)
    cls = G.conjugacy_classes
    k = cls.count
    if k > _MAX_CLASSES:
        raise ValueError(f"{k} conjugacy classes exceed the desk-scale limit")
    e = G.exponent
    q = find_aux_prime(e, G.order)
    z = root_of_unity(q, e)
    zpow = _root_powers(q, z, e)
    dlog = np.full(q, -1)
    dlog[zpow] = np.arange(e)

    inv_sizes = _invmod_arr(cls.sizes, q)
    zc = _CenterChain(G, e)
    digits = _rep_digits(G, cls)
    lin_t, lin_keys = _linear_rows_data(G, zc)
    n_lin = lin_t.shape[0]
    W = np.zeros((0, k), dtype=np.int64)  # the eigenvectors of the non-linear rows
    if n_lin < k:
        blocks = _central_blocks(G, cls, zc, zpow)
        W = _split_blocks(G, cls, q, blocks, lin_t, lin_keys, digits, zpow, inv_sizes)
    if n_lin + W.shape[0] != k:
        raise TableVerificationError("wrong number of eigenvectors")

    # the non-linear rows mod q: normalise, then recover the degrees
    invclass = cls.classof[G.inverse_table[cls.reps]]
    W %= q
    if (W[:, 0] == 0).any():
        raise TableVerificationError("eigenvector vanishes at the identity class")
    W = W * _invmod_arr(W[:, 0], q)[:, None] % q
    denom = (W * W[:, invclass] % q * inv_sizes[None, :] % q).sum(axis=1) % q
    if (denom == 0).any():
        raise TableVerificationError("eigenvector has zero norm mod q")
    d2 = G.order % q * _invmod_arr(denom, q) % q
    # p <= d <= sqrt|G| < q/2, so the d^2 are distinct mod q and none is 1
    deg_of = {d * d % q: d for d in (G.p ** i for i in range(1, G.n // 2 + 1))}
    if (d2 == 1).any():
        raise TableVerificationError("a non-linear eigenvector has degree 1")
    degs = np.array([deg_of.get(int(v), 0) for v in d2], dtype=np.int64)
    if (degs == 0).any():
        raise TableVerificationError("degree recovery failed")
    T = degs[:, None] * W % q * inv_sizes[None, :] % q
    del W  # before the lift
    if (T[:, 0] != degs).any():
        raise TableVerificationError("first column differs from the degrees")
    if n_lin + int((degs.astype(object) ** 2).sum()) != G.order:
        raise TableVerificationError("sum of squared degrees is off")
    if _distinct_rows(T) != T.shape[0]:
        raise TableVerificationError("duplicate character rows")

    # canonical order: by degree, then lexicographically by the mod-q value
    # row, so the linear rows come first (_linear_order); big-endian bytes
    # compare like the nonnegative integers they encode
    perm = np.lexsort((_row_keys(T.astype(">i8")), degs))
    T = T[perm]
    degs = degs[perm]

    dense, cexp, mults = _lift_rows(G, cls, e, q, zpow, dlog, degs, T)
    table = CharacterTable(group=G, classes=cls, field_prime=q, exponent=e,
                           lin_t=_read_only(lin_t[_linear_order(lin_t, digits, zpow)]),
                           digits=digits, degs=_read_only(degs), dense=dense, cexp=cexp,
                           mults=mults)
    # every lifted row against its mod-q row, the central-type rows first
    at = np.r_[np.flatnonzero(~dense), np.flatnonzero(dense)]
    if (_residues(degs[at], cexp, mults, zpow, q) != T[at]).any():
        raise TableVerificationError("lifted row disagrees mod q")
    del T  # before _verify_table
    _verify_table(table)
    return table


# ---------------------------------------------------------------------------
# verification


def _verify_table(T: CharacterTable) -> None:
    """Exact checks of a computed table; any failure raises
    TableVerificationError.

    Shapes.  The table's blocks are read in place, in the dtype they are
    handed in (CharacterTable).  k rows; p-power degrees with sum
    d^2 = |G| and d^2 | |G:Z(G)|; the linear rows, |G:G'| of them, each a
    homomorphism (_verify_linear_rows), and no non-linear row of degree 1;
    central-type exponents a (rows, k) block C of signed integers in
    [-1, e), not -1 at the identity, and dense multiplicities a
    (rows, e, k) block D of integers in [0, d] summing to d
    (_verify_blocks).  So every value of a degree-d row is d zeta_e^t or 0
    (central-type) or a sum of d roots of unity (dense), and
    |sigma(chi(g))| <= d under every embedding sigma of Q(zeta_e).

    First orthogonality.  For a non-linear row a (the set N) and any row b,
    y_ab = sum_j |K_j| chi_a(g_j) conj chi_b(g_j) - |G| delta_ab lies in
    Z[zeta_e].
    - The linear rows are distinct (_verify_structural_pairs), so they are
      orthogonal, and as they are all |G:G'| homomorphisms G -> C^x, every
      Galois automorphism permutes them.
    - N is closed under sigma_s: zeta_e -> zeta_e^s for generators s of
      (Z/e)^x (_verify_structural_pairs; one s, as e is an odd prime
      power).  So every sigma permutes N, and since sigma commutes with
      complex conjugation, it permutes the y_ab.
    - Central characters (_pair_plan, exact).  For the chain generators b_a
      of Z(G), the translate g_j -> g_j b_a must permute the classes and
      keep |K_j|, and every row of N must satisfy
      chi(g b_a) = mu(b_a) chi(g) for a root of unity mu(b_a), read from
      the data.  Then chi(g z) = mu(z) chi(g) on all of Z(G), with mu a
      character of Z(G).  Substituting g -> g z in y_ab multiplies it by
      mu_a(z) conj mu_b(z), so y_ab = 0 exactly when mu_a != mu_b.  Within
      one mu, each term |K_j| chi_a(g_j) conj chi_b(g_j) is constant on an
      orbit O of Z(G) on the classes, so the sum is one over the orbits'
      basepoints, each term taken |O| times; so are the column sums
      below, and |C_G(g_j)|.  And if mu_a(b_a) != 1 for a b_a whose
      translate permutes the classes of every G'-coset, the coset sums
      below satisfy S_a(x) = mu_a(b_a) S_a(x), so they are 0 exactly.
    - For a prime q' = 1 (mod e) and z' of order e in GF(q'), q' splits
      completely: q' Z[zeta_e] is the product of the primes
      P_s = ker(zeta_e -> z'^s), s a unit mod e, and y is in P_s iff
      sigma_s(y) is in P_1.  A y_ab that reduces to 0 at zeta_e -> z' for
      every a, b is in P_1, and as the sigma_s(y_ab) are y_ab's too, it is
      in every P_s, hence in q' Z[zeta_e].  Over primes q' != q with
      product Q, y_ab is in Q Z[zeta_e]; if y_ab != 0, the norm of y_ab / Q
      is a nonzero rational integer, so the product of |sigma(y_ab)| over
      the phi(e) embeddings is at least Q^phi(e).  So y_ab = 0 once Q
      exceeds every |sigma(y_ab)|.
    - Norms.  y_aa is real, and sigma(y_aa) = y_(sigma a)(sigma a) is the
      sum of |K_j| |psi(g_j)|^2 - |G| for a row psi of degree d, in
      [-|G|, |G| (d^2 - 1)].  So the row norms, reduced at primes with
      product above |G| max(1, d_max^2 - 1), prove every <chi, chi> = 1.
    - Every other y_ab.  With every norm 1, Cauchy-Schwarz bounds each
      |sigma(y_ab)|, a != b, and each |sigma(y_a,lambda)| by |G|, so primes
      with product above |G| suffice: the fewest of them, a prefix of the
      norm primes.  For b in N of the same mu, _verify_pairs_against_block
      checks the in-group products reduced at zeta_e -> z'.  For a linear
      b = lambda: the class of g_j lies in one coset x of G', as
      g^h = g [g, h], and lambda is trivial on G', so it takes one value
      lambda(x) on x.  Then y_a,lambda = sum_x conj lambda(x) S_a(x) with
      the coset sums S_a(x) = sum over the classes j in x of
      |K_j| chi_a(g_j), and the check that every S_a(x) reduces to 0 puts
      y_a,lambda in P_1, as lambda(x) is in Z[zeta_e].  The cosets are
      read from the group tables (_derived_cosets), as the cosets H g of
      the subgroup H generated by the elements it names for G', and the
      check does not trust that H is G': every linear row must be 1 at
      those elements, so lambda is trivial on H and constant on each
      H g, and summing over the classes by the coset of their rep gives
      the same y_a,lambda.  (The cosets must also number |G:G'|.)

    Column diagonal.  sum over N of |chi(g_j)|^2 is Galois-fixed, a
    rational integer in [0, |G| - |G:G'|] by the sum of squares, and
    |C_G(g_j)| - |G:G'| lies in [1 - |G:G'|, |G| - |G:G'|].  They differ by
    less than |G|, agree mod every off-diagonal prime q' (from the
    residues at the basepoints, where both are taken once per orbit), so
    they are equal.  The off-diagonal relations follow from the square
    table's orthonormal rows.  With no non-linear row the sum is |G:G'|.

    Restriction norms.  On H = Z(chi) every value has absolute value d, so
    <chi|H, chi|H> = d^2 exactly.  |H| must divide |G| and d^2 |H| <= |G|,
    with equality iff the row vanishes off H, as |G| = d^2 |H| + the sum
    of |chi|^2 off H."""
    G = T.group
    cls = T.classes
    k = cls.count
    sizes = cls.sizes.astype(np.int64)
    order = G.order
    n_lin = len(T.lin_t)
    degs = T.degs

    if n_lin + degs.size != k:
        raise TableVerificationError("row count differs from class count")
    if n_lin + sum(d * d for d in degs.tolist()) != order:
        raise TableVerificationError("sum of squared degrees != |G|")

    zorder = int(G.center.indices.size)
    for d in dict.fromkeys(degs.tolist()):
        if G.p ** p_log(d, G.p) != d:
            raise TableVerificationError("degree is not a p-power")
        if (order // zorder) % (d * d):
            raise TableVerificationError("degree bound d^2 | |G/Z(G)| fails")
        if d == 1:
            raise TableVerificationError("row kind does not match its degree (unity iff degree 1)")

    _verify_blocks(T)
    if n_lin != order // G.derived.indices.size:
        raise TableVerificationError("number of linear rows != |G/G'|")
    lin_t = _verify_linear_rows(T)
    _verify_structural_pairs(T, lin_t)
    if degs.size:
        _verify_pairs_against_block(T, lin_t)
    elif (order // sizes != n_lin).any():
        raise TableVerificationError("column norm != centralizer order")

    if degs.size:
        hmask = T.center_masks
        vanishes = ~(T.nonzero_masks & ~hmask).any(axis=1)
        h = hmask @ sizes
        norm = degs * degs * h
        if (h < 1).any() or (order % np.maximum(h, 1)).any():
            raise TableVerificationError("|Z(chi)| does not divide |G|")
        if (norm > order).any():
            raise TableVerificationError("restriction norm exceeds |G:H|")
        if ((norm == order) != vanishes).any():
            raise TableVerificationError("restriction equality out of step with vanishing")

    T.verification.update(
        {
            "sum_of_squares": "exact",
            "row_orthogonality": "structural+gram" if degs.size else "structural",
            "column_diagonal": "exact",
            "column_offdiagonal": "implied by row orthogonality of a square table",
            "degree_bound": "exact",
            "restriction_norms": "exact",
        }
    )


def _verify_blocks(T: CharacterTable) -> None:
    """The shapes and ranges of the non-linear blocks, read in place: cexp a
    (rows, k) block of signed integers in [-1, e), -1 (the value 0) nowhere
    at the identity class; mults a (rows, e, k) block of integers in [0, d]
    that sum to d over the exponent axis at every class, d the row's
    degree.  Nothing is cast, so no value outside its range is wrapped
    into a narrower dtype."""
    k, e = T.classes.count, T.exponent
    C, D = T.cexp, T.mults
    if C.shape[1:] != (k,):
        raise TableVerificationError("central-type exponents are not a (k,) array per row")
    if C.dtype.kind != "i":
        raise TableVerificationError("central-type exponents are not signed integers")
    if C.size and (C.min() < -1 or C.max() >= e):
        raise TableVerificationError("central-type exponent outside [-1, e)")
    if (C[:, 0] < 0).any():
        raise TableVerificationError("a central-type row is 0 at the identity class")
    if D.shape[1:] != (e, k):
        raise TableVerificationError("dense multiplicities are not an (e, k) array per row")
    if D.dtype.kind not in "ui":
        raise TableVerificationError("dense multiplicities are not integers")
    d = T.degs[T.dense]
    if D.size and (D.min() < 0 or (D > d[:, None, None]).any()):
        raise TableVerificationError("dense multiplicity outside [0, degree]")
    if (D.sum(axis=1, dtype=np.int64) != d[:, None]).any():
        raise TableVerificationError("dense multiplicities do not sum to the degree")


def _verify_linear_rows(T: CharacterTable) -> np.ndarray:
    """Every linear row is a homomorphism G -> <zeta_e>.  Returns their
    exponents t at the pc generators (lin_t), reduced mod e, one row per
    character: a row is the homomorphism its t defines, so two rows are
    equal iff their t are.

    A linear row stores t, t_i being its exponent at the pc generator a_i,
    and reads zeta_e^(sum_i digit_i(g) t_i) at a class rep
    g = a_1^digit_1 ... a_n^digit_n in normal form; the table's digits
    must be the class reps' own (_rep_digits).  t must satisfy the
    relations of the presentation in the abelian target, read from the
    group tables: a_i^p = w_i gives p t_i = digits(w_i) . t, and
    [a_j, a_i] = w_ij (j > i) gives 0 = digits(w_ij) . t.  By von Dyck's
    theorem t then extends to a homomorphism G -> <zeta_e> with
    a_i -> zeta_e^t_i, whose value at the normal-form element g is
    zeta_e^(digits(g) . t): the value the row reads there.  So the row is
    that homomorphism at every class by construction, and no class is
    checked one by one."""
    G = T.group
    e = T.exponent
    if not np.array_equal(T.digits, _rep_digits(G, T.classes)):
        raise TableVerificationError("a linear row reads other digits than the class reps'")
    if T.lin_t.shape[1:] != (G.n,):
        raise TableVerificationError("a linear row has no exponent per pc generator")
    t = T.lin_t.astype(np.int64) % e
    gens = [G.gen_index(i) for i in range(G.n)]
    powers = _digits(G, [G.pow(a, G.p) for a in gens])
    if ((G.p * t - t @ powers) % e).any():
        raise TableVerificationError("linear row breaks a power relation")
    comms = _digits(G, [G.comm(gens[j], gens[i])
                        for i in range(G.n) for j in range(i + 1, G.n)])
    if ((t @ comms) % e).any():
        raise TableVerificationError("linear row breaks a commutator relation")
    return t


def _row_keys(M: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array as keys that sort and compare as the rows'
    bytes do.  A row of 1 to 8 bytes is one big-endian uint64, zero-padded
    on the left, which numpy sorts as an integer; a row of any other width
    is a void scalar, which numpy compares byte by byte."""
    M = np.ascontiguousarray(M)
    width = M.dtype.itemsize * M.shape[1]
    if 0 < width <= 8:
        padded = np.zeros((M.shape[0], 8), dtype=np.uint8)
        padded[:, 8 - width:] = M.view(np.uint8).reshape(-1, width)
        return padded.view(">u8").reshape(-1).astype(np.uint64)
    return M.view(np.dtype((np.void, width))).reshape(-1)


def _sorted_rows(M: np.ndarray) -> np.ndarray:
    """The rows of a 2-d array as _row_keys, sorted: equal rows end up
    adjacent, and two arrays of one dtype and shape hold the same rows,
    counted with multiplicity, iff their results are equal."""
    return np.sort(_row_keys(M))


def _distinct_rows(M: np.ndarray) -> int:
    """The number of distinct rows of a 2-d array."""
    rows = _sorted_rows(M)
    return int(np.count_nonzero(rows[1:] != rows[:-1])) + (rows.size > 0)


def _verify_structural_pairs(T: CharacterTable, lin_t: np.ndarray) -> None:
    """The checks of _verify_table's proof that need no arithmetic.  The
    linear rows must be distinct on lin_t, their exponents at the pc
    generators, which determine them (_verify_linear_rows).  The non-linear
    rows must be closed under sigma_s: zeta_e^t -> zeta_e^(st) for each s
    of _unit_gens(e), which multiplies a central-type row's exponents by s
    and moves a dense row's multiplicity at u to s u.  Each kind's exact
    keys (the rows of the block C = T.cexp, each led by its degree; the
    rows of the block D = T.mults) must be the same multiset as their
    images.  Equal keys mean equal rows, and compute_table's rows pass
    kind by kind, since a row's stored kind is a Galois invariant
    (_lift_rows says why).

    D is not copied: its rows are ordered by an argsort of their keys, and
    each image is gathered once and sorted in place, then compared in
    chunks, so one block-sized array is live at a time."""
    if _distinct_rows(lin_t) != lin_t.shape[0]:
        raise TableVerificationError("duplicate linear rows")
    e = T.exponent
    C, D = T.cexp, T.mults
    n, k = D.shape[0], D.shape[2]
    lead = T.degs[~T.dense].astype(">i8").view(np.uint8).reshape(-1, 8)

    def central_keys(M):
        return _sorted_rows(np.hstack([lead, M.view(np.uint8)]))

    keys_c = central_keys(C)
    keys_d = _row_keys(D.reshape(n, e * k))
    by = np.argsort(keys_d)
    step = max(1, 2**22 // (k * e))
    for s in _unit_gens(e):
        img_c = np.append(np.arange(e) * s % e, -1).astype(C.dtype)[C]  # -1 stays -1
        img_d = _row_keys(np.take(D, np.arange(e) * pow(s, -1, e) % e, axis=1).reshape(n, e * k))
        img_d.sort()
        if ((central_keys(img_c) != keys_c).any()
                or any((img_d[lo:lo + step] != keys_d[by[lo:lo + step]]).any()
                       for lo in range(0, n, step))):
            raise TableVerificationError(
                "the non-linear rows are not closed under the Galois group")
        del img_d  # before the next image


def _unit_gens(e: int) -> tuple:
    """Generators of (Z/e)^x, other than 1, for a prime power e: -1 and 5
    when e = 2^a, as the group is {+-1} x <5>, and otherwise the least s
    of order phi(e), as the group is cyclic."""
    if e % 2 == 0:
        return tuple(s for s in (e - 1, 5 % e) if s != 1)
    units = phi(e)
    for s in range(2, e):
        x, n = s, 1
        while x != 1 and n < units:
            x, n = x * s % e, n + 1
        if x == 1 and n == units:
            return (s,)
    return ()


def _galois_unit(e: int) -> int:
    """The s of the Galois gathers in _split_blocks and _lift_rows: the
    first of _unit_gens(e), or 1 when there is none.  For odd e it
    generates (Z/e)^x; for e = 2^a it generates a subgroup, whose orbits
    are as exact."""
    return (_unit_gens(e) or (1,))[0]


def _root_powers(q: int, z: int, e: int) -> np.ndarray:
    """zp[t] = z^t mod q for t < e."""
    zp = np.empty(e, dtype=np.int64)
    acc = 1
    for t in range(e):
        zp[t] = acc
        acc = acc * z % q
    return zp


@lru_cache(maxsize=32)
def _check_primes(e: int) -> tuple:
    """(q', _root_powers(q', z', e)) for the largest primes q' = 1 (mod e)
    below 2^20, largest first, until their product exceeds 2^64 or they
    run out; z' has order e.  The pair check takes a prefix of them: the
    row norms need a product above |G| max(1, d_max^2 - 1), and everything
    else, bounded by |G| through Cauchy-Schwarz, a product above |G|: one
    prime while |G| is below the largest, as at every order up to 7^6.
    2^64 is far above both at desk scale.  Below 2^20, every q' meets
    _matmul_mod's guard (q'-1)^2 < 2^53, and a product of two residues is
    far inside int64.  The cache is keyed by the exponent alone and keeps
    the last 32, a few length-e arrays each, for the life of the process."""
    out = []
    product = 1
    m = (2**20 - 2) // e
    while m > 0 and product <= 2**64:
        qq = m * e + 1
        if is_prime(qq):
            out.append((qq, _read_only(_root_powers(qq, root_of_unity(qq, e), e))))
            product *= qq
        m -= 1
    return tuple(out)


def _derived_cosets(T: CharacterTable) -> tuple[tuple[int, ...], np.ndarray]:
    """(gens, cosets): the chain-jump elements of G', and the coset H g of
    H = <gens> that holds each class rep, numbered from 0 in the order of
    the cosets' least elements (_coset_minima, as in group.quotient)."""
    G = T.group
    gens = _chain_gens(G, G.derived.indices)
    least = _coset_minima(G, gens)
    return gens, np.unique(least[T.classes.reps], return_inverse=True)[1].reshape(-1)


@dataclass(frozen=True, eq=False)
class _PairPlan:
    """What the pair check reads at every check prime, from _pair_plan.
    The rows are the central-type rows (the rows of the block C = T.cexp),
    then the dense rows (of D = T.mults).

    deg holds their degrees, and chars[r, a] the exponent c with
    mu_r(b_a) = zeta_e^c, mu_r the central character of row r; perms are
    the translates of _center_translates.  basepoints are the least
    classes of the orbits of <perms> on the classes, and weights[i] is
    |O| |K_j| at basepoint j of the orbit O.  C_at holds C's exponents at
    the basepoints, and D_at D's multiplicities there, in D's layout,
    exponent-major: D_at[r, u, i] = D[r, u, basepoints[i]].  _residues
    reads the two blocks.  Each batch (rows, cols)
    holds the groups of one size n: rows[g] are the n rows of one central
    character, and cols[g] the basepoint positions where one of them is
    nonzero, then positions where all of them are 0, up to the batch's
    widest group."""

    deg: np.ndarray
    chars: np.ndarray
    perms: np.ndarray
    basepoints: np.ndarray
    weights: np.ndarray
    C_at: np.ndarray
    D_at: np.ndarray
    batches: list


def _pair_plan(T: CharacterTable) -> _PairPlan:
    """The exact first half of the pair check: every non-linear row has a
    central character, read at the chain generators b_a of Z(G); then the
    orbits of the translates on the classes, and the rows grouped by their
    central character (_PairPlan).

    perms[a] must be a permutation of the classes that keeps |K_j|.  A
    central-type row must hold an exponent c_a at the class of b_a, and
    its exponents C must satisfy C[perms[a, j]] = C[j] + c_a (mod e), -1
    (the value 0) staying -1, so that chi(g_j b_a) = zeta_e^c_a chi(g_j):
    one gather per b_a of the whole block.  perms[a, 0] is the class of
    b_a, so the exponent at the identity is then 0.  A dense row
    must be d zeta_e^c_a at b_a, d at exactly one exponent c_a, and its
    multiplicities must satisfy m[perms[a, j], u + c_a] = m[j, u], so that
    chi(g_j b_a) = zeta_e^c_a chi(g_j): one gather per (a, c_a) of the
    rows with that c_a.  So chi(g z) = mu(z) chi(g) for every z of
    <b_a> = Z(G), where mu(z) = chi(z) / d is a character of Z(G), which
    the c_a fix.  The key of a row is its c_a as one integer, and one
    argsort groups the rows.  The orbits come from min-label propagation
    along the perms to a fixpoint, where every label is constant on its
    orbit (along each cycle of each perm it can only rise, so it stays
    put)."""
    cls = T.classes
    k, e = cls.count, T.exponent
    C, D = T.cexp, T.mults
    sizes = cls.sizes.astype(np.int64)
    gens, perms = _center_translates(T.group, cls)
    m = len(gens)
    ar = np.arange(k)
    if not (np.sort(perms, axis=1) == ar).all():
        raise TableVerificationError("a translate by Z(G) is not a permutation of the classes")
    if (sizes[perms] != sizes).any():
        raise TableVerificationError("a translate by Z(G) changes a class size")
    zcls = cls.classof[list(gens)]

    cc = C[:, zcls]
    if (cc < 0).any():
        raise TableVerificationError("a central-type row's support misses a class of Z(G)")
    W = C.astype(np.promote_types(C.dtype, np.min_scalar_type(-2 * e)))  # holds C + c_a
    for a in range(m):
        if not np.array_equal(W[:, perms[a]], np.where(W < 0, -1, (W + cc[:, a, None]) % e)):
            raise TableVerificationError("a central-type row has no central character")
    n_d = D.shape[0]
    deg_d = D[:, :, 0].sum(axis=1, dtype=np.int64)  # each class's multiplicities sum to d
    cd = _dense_center_exponents(D, deg_d, perms, zcls) if n_d else np.zeros((0, m), np.int64)

    chars = np.concatenate([cc, cd])
    n = chars.shape[0]
    key, span = np.zeros(n, dtype=np.int64), 1
    for a in range(m):
        if span * e >= 2**62:
            key, span = np.unique(key, return_inverse=True)[1].reshape(-1), n
        key, span = key * e + chars[:, a], span * e
    by = np.argsort(key, kind="stable")
    first = np.ones(n, dtype=bool)
    first[1:] = key[by[1:]] != key[by[:-1]]
    gid = np.cumsum(first) - 1
    gsize = np.bincount(gid)
    by = by[np.argsort(gsize[gid], kind="stable")]  # by group size, then by key

    moves = np.vstack([ar, perms])
    lab = ar
    while True:
        nxt = lab[moves].min(axis=0)
        nxt = nxt[nxt]  # still a class of the same orbit, and no larger
        if (nxt == lab).all():
            break
        lab = nxt
    bp = np.flatnonzero(lab == ar)
    C_at = C[:, bp]
    D_at = np.take(D, bp, axis=2)
    at = np.r_[np.flatnonzero(~T.dense), np.flatnonzero(T.dense)]  # the plan's row order
    nonzero = T.nonzero_masks[np.ix_(at, bp)]
    batches, lo = [], 0
    groups = np.bincount(gsize)
    for size in np.flatnonzero(groups).tolist():
        rows = by[lo:lo + size * groups[size]].reshape(-1, size)
        lo += rows.size
        hits = nonzero[rows].any(axis=1)
        cols = np.argsort(~hits, axis=1, kind="stable")[:, :hits.sum(axis=1).max()]
        batches.append((rows, cols))
    deg = np.concatenate([T.degs[~T.dense], deg_d])
    return _PairPlan(deg, chars, perms, bp, np.bincount(lab)[bp] * sizes[bp], C_at, D_at,
                     batches)


def _dense_center_exponents(D: np.ndarray, deg: np.ndarray, perms: np.ndarray,
                            zcls: np.ndarray) -> np.ndarray:
    """cd[r, a], the exponent c with chi_r(b_a) = d zeta_e^c for the dense
    rows of D (degrees deg) at the classes zcls of the b_a, once each row
    is checked to be d at exactly one exponent there and to satisfy
    m[perms[a, j], u + c] = m[j, u] at every class j (_pair_plan)."""
    n_d, e, k = D.shape
    Dz = D[:, :, zcls]
    if (Dz.max(axis=1) != deg[:, None]).any():
        raise TableVerificationError("a dense row is not d times a root of unity on Z(G)")
    cd = Dz.argmax(axis=1)
    flat = D.reshape(n_d, e * k)
    u = np.arange(e)
    step = max(1, 2**22 // (k * e))
    for code in sorted(set((cd + e * np.arange(len(zcls))).ravel().tolist())):
        a, c = divmod(code, e)
        at = (((u + c) % e * k)[:, None] + perms[a]).reshape(-1)  # (u, j) -> (u + c, j b_a)
        sel = np.flatnonzero(cd[:, a] == c)
        for lo in range(0, sel.size, step):
            rows = flat[sel[lo:lo + step]]
            if not np.array_equal(np.take(rows, at, axis=1), rows):
                raise TableVerificationError("a dense row has no central character")
    return cd


def _residues(deg: np.ndarray, C: np.ndarray, D: np.ndarray, zp: np.ndarray,
              qq: int) -> np.ndarray:
    """The rows of C, central-type exponents, then those of D, dense
    multiplicities (rows, e, columns), of degrees deg, reduced at
    zeta_e -> z' in GF(qq).  zp[t] is z'^t mod qq; a zp of shape (e, w)
    holds w such maps as columns, and the pair check passes two, z'^t for
    the values and z'^-t for their conjugates.  The result has shape
    zp.shape[1:] + (rows, columns).  A central-type row reduces to d zp[t],
    and to 0 where C holds -1; a dense row to sum_u D[r, u, j] zp[u], by
    _matmul_mod on chunks of D's rows.  D's multiplicities are residues:
    they lie in [0, d], checked by _lift_rows before compute_table's mod-q
    check and by _verify_blocks before the pair check, and
    d <= sqrt|G| < q at the table's prime as at every check prime q'.
    compute_table's mod-q check, _coset_sums and the pair check's
    basepoint residues all read the blocks here."""
    n_c = C.shape[0]
    zt = zp.T  # exponent last
    cols = C.shape[1]
    R = np.empty(zt.shape[:-1] + (deg.size, cols), dtype=np.int64)
    tab = np.concatenate([zt, np.zeros(zt.shape[:-1] + (1,), dtype=zt.dtype)], axis=-1)
    R[..., :n_c, :] = tab[..., C] * deg[:n_c, None] % qq  # C's -1 reads the appended 0
    step = max(1, 2**18 // (zp.size * cols))
    for lo in range(0, D.shape[0], step):  # (w, e) @ (c, e, cols) is (c, w, cols)
        R[..., n_c + lo:n_c + lo + step, :] = np.moveaxis(
            _matmul_mod(zt, D[lo:lo + step], qq), 0, -2)
    return R


def _group_products(plan: _PairPlan, A: np.ndarray, B: np.ndarray, qq: int) -> list:
    """(rows, P) for each batch of plan.batches: P[g, a, b] is the sum over
    the batch's columns of group g of A[ra, j] B[rb, j] mod qq, with
    ra, rb = rows[g, a], rows[g, b], for residues A, B in [0, qq): one
    _matmul_mod of two stacks per batch."""
    return [(rows, _matmul_mod(A[rows[:, :, None], cols[:, None, :]],
                               B[rows[:, None, :], cols[:, :, None]], qq))
            for rows, cols in plan.batches]


def _coset_sums(T: CharacterTable, cosets: np.ndarray, deg: np.ndarray, C: np.ndarray,
                D: np.ndarray, qq: int, zp: np.ndarray) -> np.ndarray:
    """sums[a, x] = sum over the classes j with cosets[j] = x of
    |K_j| chi_a(g_j), reduced at zeta_e -> z' in GF(qq), for the rows of C,
    central-type exponents, then those of D, dense multiplicities, of
    degrees deg (_residues), each over all k classes: k int64 terms below
    qq per sum."""
    cls = T.classes
    R = _residues(deg, C, D, zp, qq)
    R *= cls.sizes % qq
    R %= qq
    by = np.argsort(cosets, kind="stable")
    first = np.ones(by.size, dtype=bool)
    first[1:] = cosets[by[1:]] != cosets[by[:-1]]
    return np.add.reduceat(R[:, by], np.flatnonzero(first), axis=1) % qq


def _verify_pairs_against_block(T: CharacterTable, lin_t: np.ndarray) -> None:
    """First orthogonality of every pair (a, b) with a non-linear, and the
    column diagonal; _verify_table has the proof.  lin_t holds the linear
    rows' exponents at the pc generators (_verify_linear_rows), and the
    non-linear rows are read from the table's blocks, C = T.cexp and
    D = T.mults.

    _pair_plan proves that every non-linear row has a central character
    and groups the rows by it.  The check primes are those of
    _check_primes(e), less q, largest first: the fewest whose product
    exceeds |G| max(1, d_max^2 - 1) take the row norms, and the fewest
    whose product exceeds |G|, a prefix of them, take everything else.
    Their product, the number of cosets of _derived_cosets, which must
    equal the number of linear rows, and every linear row's triviality on
    their subgroup are checked before any residue.  A row whose mu is not
    1 at some b_a whose translate keeps every coset has all its coset sums
    0 exactly, so only the other rows take them."""
    G = T.group
    cls = T.classes
    e = T.exponent
    order = G.order
    n_lin = len(lin_t)
    plan = _pair_plan(T)
    d_max = int(plan.deg.max())
    bound = order * max(1, d_max * d_max - 1)
    primes, product, n_off = [], 1, 0
    for qq, zp in _check_primes(e):
        if product > bound:
            break
        if qq != T.field_prime:
            primes.append((qq, zp))
            product *= qq
            if not n_off and product > order:
                n_off = len(primes)
    if product <= bound:
        raise TableVerificationError(
            "the check primes' product does not exceed |G| max(1, d_max^2 - 1)")
    gens, cosets = _derived_cosets(T)
    if cosets.max() + 1 != n_lin:
        raise TableVerificationError("the G'-cosets do not number the linear rows")
    if (lin_t @ _digits(G, gens) % e).any():
        raise TableVerificationError("a linear row is not trivial on the G'-cosets' subgroup")
    keeps = (cosets[plan.perms] == cosets).all(axis=1)
    summed = ~plan.chars[:, keeps].any(axis=1)
    C, D = T.cexp, T.mults
    n_c = C.shape[0]
    cen = order // cls.sizes[plan.basepoints] - n_lin
    w = plan.weights
    conj = -np.arange(e) % e
    for i, (qq, zp) in enumerate(primes):
        R = _residues(plan.deg, plan.C_at, plan.D_at, np.stack([zp, zp[conj]], axis=1), qq)
        A = R[0] * (w % qq) % qq
        if i >= n_off:
            if (((A * R[1] % qq).sum(axis=1) - order) % qq).any():
                raise TableVerificationError("a non-linear row fails orthogonality")
            continue
        if summed.any() and _coset_sums(T, cosets, plan.deg[summed], C[summed[:n_c]],
                                        D[summed[n_c:]], qq, zp).any():
            raise TableVerificationError(
                "a non-linear row fails orthogonality to the linear rows: a G'-coset sum")
        for rows, P in _group_products(plan, A, R[1], qq):
            at = np.arange(rows.shape[1])
            P[:, at, at] -= order % qq  # P is reduced, so 0 iff 0 mod qq
            if P.any():
                raise TableVerificationError("a non-linear row fails orthogonality")
        if (((R[0] * R[1] % qq).sum(axis=0) - cen) % qq).any():
            raise TableVerificationError("column norm != centralizer order")
