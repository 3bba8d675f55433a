"""Structural computations on a presented p-group.

A Group wraps a consistent PcPresentation and provides table-driven
arithmetic: elements are integers in [0, p^n) encoding exponent vectors in
lexicographic order (generator 0 most significant).  Right-multiplication
permutation tables are built by downward induction over the generators,
exploiting the index-increasing relation shape: the suffix subgroups
H_t = <g_t, ..., g_n> form a central chain, so

    x * g_t = (prefix(x) * g_t) * (g_t^-1 suffix(x) g_t)

splits into a digit increment (with a power-relation carry) and a
conjugation that stays inside H_{t+1}.  Everything downstream (conjugacy
classes, centralizers, subgroup closures, quotients) is numpy permutation
work on these tables.

A group holds only its n right tables and its inverse table.  Every
table, chain and inverse is one _normal_forms listing of start
g_1^d_1 ... g_m^d_m in digit order, p - 1 gathers per generator: the
conjugated suffix and the power-word carry of each right table, the
elements of a subgroup's chain, and the inverse table, which lists
g_n^-d_n ... g_1^-d_1 through the inverse right tables and then reverses
the digit order.  Conjugation and left products are read off those two:

    g_t^-1 x g_t = (x^-1 g_t)^-1 g_t,    a x = (x^-1 a^-1)^-1,

four gathers for conj and two inverse gathers around rmul_array for
lmul_array.  _walk applies one element's digits as table gathers for mul
and rmul_array.  left_tables and conj_tables are formed the same way on
request, for the tests; no computation reads them.  The collector in
presentation.py stays the independent reference; the test suite
cross-checks every table against it.

Every table (right_tables, inverse_table, and left_tables and
conj_tables when asked for) is int32: an entry is an index below
|G| <= _MAX_ORDER < 2^31, which halves the bytes a group holds.
_normal_forms starts from an int32 index, so its gathers stay int32.
The right tables form (A + 1) * m + Bc from index products in int64,
and each is cast to int32 as soon as it is made.  Gathers on index
arrays go through np.take, which reads an int32 index array faster than
plain indexing, which first casts it to np.intp; _orbit_minima still
widens each perm once, since it gathers by that perm p - 1 times.  Class
ids (classof) and the class members stay int64.

Conjugacy classes and quotient cosets are orbits, and both come from one
kernel, _orbit_minima.  For a subgroup chain K = K_1 > ... > K_{m+1} = 1
with K_i = U_e a_i^e K_{i+1} (e in [0, p)), the orbit of x under K_i is
the union of the K_{i+1}-orbits of a_i^e . x, so

    r_i(x) = min_e r_{i+1}(a_i^e . x),   r_{m+1} = identity,

and r_1(x) is the smallest member of the K-orbit of x after m (p - 1)
array gathers.  The suffix chain H_t is normal in G, so every K ∩ H_t is
normal in K ∩ H_{t-1} with a factor of order 1 or p; the chain-jump
elements of _chain_gens are therefore a pc sequence for any subgroup K.

One _ChainIndex gives every chain digit.  It lists the normal forms
b_1^d_1 ... b_m^d_m of chain generators once, sorted by a key (the
element itself, or its coset minimum from _coset_minima for a quotient),
and reads an element's digits off the position of its key.  Z(G) and its
characters (chartable._CenterChain), the projection and relations of
quotient, and the relations of subgroup_as_group all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import getitem

import numpy as np

from .errors import InternalInconsistencyError, PgclassError
from .presentation import (
    Element,
    PcPresentation,
    Word,
    check_consistency,
    collector,
)

_MAX_ORDER = 2_000_000  # desk-scale guard


class InconsistentPresentationError(PgclassError, ValueError):
    pass


class Group:
    """A finite p-group realized from a consistent pc presentation."""

    def __init__(self, P: PcPresentation):
        if P.order > _MAX_ORDER:
            raise ValueError(f"group order {P.order} exceeds the desk-scale limit")
        rep = check_consistency(P)
        if not rep.consistent:
            raise InconsistentPresentationError(
                f"presentation {P.name!r} is inconsistent: "
                f"{rep.failures[0][0]} collects two ways"
            )
        self.pres = P
        self.p = P.p
        self.n = P.n
        self.order = P.order
        self._weights = [P.p ** (P.n - 1 - i) for i in range(P.n)]

    # -- element <-> index --------------------------------------------------

    def index_of(self, a: Element) -> int:
        return sum(e * w for e, w in zip(a.exps, self._weights))

    def element_of(self, idx: int) -> Element:
        exps = []
        for w in self._weights:
            exps.append(int(idx) // w % self.p)
        return Element(tuple(exps))

    def gen_index(self, i: int) -> int:
        return self._weights[i]

    # -- multiplication tables ----------------------------------------------

    @cached_property
    def right_tables(self) -> list[np.ndarray]:
        """right_tables[t][x] = index of x * g_t."""
        p, n, order = self.p, self.n, self.order
        P = self.pres
        tables: list[np.ndarray | None] = [None] * n

        def word_eval(start: int, word: Word) -> int:
            idx = start
            for g, e in word:
                tab = tables[g] if e > 0 else _inverse_perm(tables[g])
                for _ in range(abs(e)):
                    idx = int(tab[idx])
            return idx

        for t in range(n - 1, -1, -1):
            m = p ** (n - 1 - t)
            # g_t^-1 g_j g_t = g_j [g_j, g_t] for every suffix generator g_j
            phis = [word_eval(self._weights[j], P.comm_rel(j, t)) for j in range(t + 1, n)]
            conjsuffix = _normal_forms(
                0, [lambda x, phi=phi: _walk(tables, self._weights, p, x, phi) for phi in phis], p)
            w_idx = word_eval(0, P.power_rels[t])
            x = np.arange(order, dtype=np.int64)
            A = x // m
            Bc = conjsuffix[x - A * m]
            if w_idx:
                carried = _normal_forms(w_idx, [tab.__getitem__ for tab in tables[t + 1:]], p)[Bc]
            else:
                carried = Bc
            tables[t] = np.where((A % p) == (p - 1), (A - (p - 1)) * m + carried,
                                 (A + 1) * m + Bc).astype(np.int32)
        return tables  # type: ignore[return-value]

    @cached_property
    def inverse_table(self) -> np.ndarray:
        """inverse_table[x] = index of x^-1.  The listing of
        g_n^-d_n ... g_1^-d_1 through the inverse right tables has d_n most
        significant, so reversing its digit axes puts d_1 first."""
        listed = _normal_forms(
            0, (_inverse_perm(tab).__getitem__ for tab in reversed(self.right_tables)), self.p)
        return np.ascontiguousarray(listed.reshape((self.p,) * self.n).transpose()).reshape(-1)

    @cached_property
    def left_tables(self) -> list[np.ndarray]:
        """left_tables[t][x] = index of g_t * x.  Only the tests read them."""
        return [self.lmul_perm(w) for w in self._weights]

    @cached_property
    def conj_tables(self) -> list[np.ndarray]:
        """conj_tables[t][x] = index of g_t^-1 x g_t.  Only the tests read
        them; the group forms conjugates with conj."""
        x = np.arange(self.order, dtype=np.int64)
        return [self.conj(x, t) for t in range(self.n)]

    # -- scalar and array arithmetic on indices -------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(_walk(self.right_tables, self._weights, self.p, int(a), b))

    def inv(self, a: int) -> int:
        return int(self.inverse_table[a])

    def comm(self, a: int, b: int) -> int:
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def pow(self, a: int, m: int) -> int:
        if m < 0:
            return self.pow(self.inv(a), -m)
        result, base = 0, int(a)
        while m:
            if m & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            m >>= 1
        return result

    def element_order(self, a: int) -> int:
        o, x = 1, int(a)
        while x:
            x = self.pow(x, self.p)
            o *= self.p
        return o

    def rmul_array(self, arr: np.ndarray, b: int) -> np.ndarray:
        """Right-multiply an index array by the fixed element b."""
        return _walk(self.right_tables, self._weights, self.p, arr, b)

    def lmul_array(self, arr: np.ndarray, a: int) -> np.ndarray:
        """Left-multiply an index array by the fixed element a, as
        a x = (x^-1 a^-1)^-1."""
        inv = self.inverse_table
        return np.take(inv, self.rmul_array(np.take(inv, arr), self.inv(a)))

    def conj(self, x, t: int):
        """g_t^-1 x g_t = (x^-1 g_t)^-1 g_t, four gathers, for an index or
        an index array x."""
        R, inv = self.right_tables[t], self.inverse_table
        return np.take(R, np.take(inv, np.take(R, np.take(inv, x))))

    def pairwise_mul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Elementwise products A[i] * B[i]."""
        out = A.copy()
        p = self.p
        for j in range(self.n):
            dig = (B // self._weights[j]) % p
            cur = out
            for k in range(1, int(dig.max(initial=0)) + 1):
                cur = np.take(self.right_tables[j], cur)
                np.copyto(out, cur, where=dig == k)
        return out

    def rmul_perm(self, b: int) -> np.ndarray:
        return self.rmul_array(np.arange(self.order, dtype=np.int64), b)

    def lmul_perm(self, a: int) -> np.ndarray:
        return self.lmul_array(np.arange(self.order, dtype=np.int64), a)

    # -- structure ------------------------------------------------------------

    @cached_property
    def is_abelian(self) -> bool:
        return all(
            self.comm(self._weights[i], self._weights[j]) == 0
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    @cached_property
    def center_mask(self) -> np.ndarray:
        cls = self.conjugacy_classes
        return cls.sizes[cls.classof] == 1

    @cached_property
    def conjugacy_classes(self) -> "ConjugacyClassSet":
        """Classes as orbit minima under the pc generators' conjugation.

        The suffix chain G = H_0 > H_1 > ... > 1 has H_t = U_e g_t^e H_{t+1},
        so _orbit_minima over conjugation by g_n, ..., g_1 labels each
        element with the smallest member of its class; one stable sort
        groups the labels.  Each conjugation perm is formed as it is
        needed and dropped after its level."""
        x = np.arange(self.order, dtype=np.int64)
        labels = _orbit_minima(self, (self.conj(x, t) for t in reversed(range(self.n))))
        order = np.argsort(labels, kind="stable")
        ordered = labels[order]
        starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
        sizes = np.diff(np.r_[starts, self.order])
        classof = np.empty(self.order, dtype=np.int64)
        classof[order] = np.repeat(np.arange(starts.size, dtype=np.int64), sizes)
        return ConjugacyClassSet(
            group=self,
            reps=ordered[starts],
            sizes=sizes,
            members=np.split(order, starts[1:]),
            classof=classof,
        )

    def subgroup_closure(self, gen_idxs, *, initial: np.ndarray | None = None) -> np.ndarray:
        member = np.zeros(self.order, dtype=bool)
        member[0] = True
        if initial is not None:
            member[initial] = True
        gens = sorted({int(g) for g in gen_idxs} - {0})
        frontier = np.flatnonzero(member)
        while frontier.size and gens:
            imgs = np.unique(np.concatenate([self.rmul_array(frontier, g) for g in gens]))
            imgs = imgs[~member[imgs]]
            member[imgs] = True
            frontier = imgs
        return np.flatnonzero(member)

    def normal_closure(self, seed_idxs) -> np.ndarray:
        current = self.subgroup_closure(seed_idxs)
        while True:
            imgs = np.unique(np.concatenate([self.conj(current, t) for t in range(self.n)]))
            member = np.zeros(self.order, dtype=bool)
            member[current] = True
            new = imgs[~member[imgs]]
            if not new.size:
                return current
            current = self.subgroup_closure(new, initial=current)

    @cached_property
    def center(self) -> "Subgroup":
        idxs = np.flatnonzero(self.center_mask)
        return Subgroup(group=self, indices=idxs, gens=_chain_gens(self, idxs))

    @cached_property
    def derived(self) -> "Subgroup":
        seeds = [
            self.comm(self._weights[i], self._weights[j])
            for i in range(self.n)
            for j in range(i + 1, self.n)
        ]
        idxs = self.normal_closure(seeds)
        return Subgroup(group=self, indices=idxs, gens=_chain_gens(self, idxs))

    @property
    def lower_central_series(self) -> list[np.ndarray]:
        """Index sets of G = gamma_1 > gamma_2 > ... down to the trivial term,
        computed on each read: only nilpotency_class, which is cached, reads
        it while classifying."""
        series = [np.arange(self.order, dtype=np.int64)]
        current = self.derived.indices
        series.append(current)
        while current.size > 1:
            nxt = self.normal_closure(np.unique(_generator_commutators(self, current)))
            if nxt.size >= current.size:
                raise InternalInconsistencyError("lower central series stalled")
            series.append(nxt)
            current = nxt
        return series

    @cached_property
    def nilpotency_class(self) -> int:
        return len(self.lower_central_series) - 1

    @cached_property
    def exponent(self) -> int:
        """p^k for the least k with x^(p^k) = 1 on every class rep."""
        xs = self.conjugacy_classes.reps[1:]
        exp = 1
        while xs.size:
            ys = _pth_powers(self, xs)
            xs = ys[ys != 0]
            exp *= self.p
        return exp

    def centralizer_indices(self, g: int) -> np.ndarray:
        if g == 0:
            return np.arange(self.order, dtype=np.int64)
        return np.flatnonzero(self.rmul_perm(g) == self.lmul_perm(g))

    def elements(self) -> list[Element]:
        return [self.element_of(i) for i in range(self.order)]


def _orbit_minima(G: Group, perms) -> np.ndarray:
    """r[x] = the smallest point of x's orbit under a chain-adapted action.

    perms yields the permutations of a_m, ..., a_1, deepest level first,
    where K_i = <a_i, ..., a_m> has K_i = U_{e < p} a_i^e K_{i+1}: then
    r_i(x) = min_e r_{i+1}(a_i^e . x), taken from r_{m+1} = identity.  A
    generator of perms lets the caller form each one as it is read."""
    r = np.arange(G.order, dtype=np.int64)
    for perm in perms:
        perm = perm.astype(np.intp, copy=False)
        shifted = r
        best = r
        for _ in range(1, G.p):
            shifted = shifted[perm]
            best = np.minimum(best, shifted)
        r = best
    return r


def _normal_forms(start, muls, p: int) -> np.ndarray:
    """The images of start under muls[0]^d_1, then muls[1]^d_2, ..., at the
    position whose base-p digits (d_1 most significant) are d.  When muls[a]
    right-multiplies an index array by g_a, that is start g_1^d_1 ... g_m^d_m.
    start is an index, or a 1-d index array whose entries are listed side by
    side: then position s is row s, one column per entry."""
    elems = np.asarray(start, dtype=np.int32)[None]
    for mul in muls:
        blocks = [elems]
        for _ in range(1, p):
            blocks.append(mul(blocks[-1]))
        elems = np.stack(blocks, axis=1).reshape((-1,) + elems.shape[1:])
    return elems


def _walk(tables, weights, p: int, x, b: int):
    """x after tables[j] is applied d_j times, in list order, where d_j is
    the digit of b at weights[j]; x is an index or an index array.  An
    index array gathers through np.take; a single index through plain
    indexing, which is much cheaper for one entry."""
    b = int(b)
    gather = np.take if isinstance(x, np.ndarray) else getitem
    for tab, w in zip(tables, weights):
        for _ in range(b // w % p):
            x = gather(tab, x)
    return x


def _inverse_perm(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inv


def _powers(G: Group, xs: np.ndarray, s: int) -> np.ndarray:
    """x^s for every index x of xs (s >= 1), by square-and-multiply:
    about 2 log2(s) pairwise products, 4 at s = 7."""
    ys = None
    while s:
        if s & 1:
            ys = xs if ys is None else G.pairwise_mul(ys, xs)
        s >>= 1
        if s:
            xs = G.pairwise_mul(xs, xs)
    return ys


def _pth_powers(G: Group, xs: np.ndarray) -> np.ndarray:
    """x^p for every index x of xs."""
    return _powers(G, xs, G.p)


def _chain_elements(G: Group, gens) -> np.ndarray:
    """The elements g_1^d_1 ... g_m^d_m of gens = (g_1, ..., g_m), at the
    position whose base-p digits (d_1 most significant) are d."""
    return _normal_forms(0, [lambda x, g=g: G.rmul_array(x, g) for g in gens], G.p)


def _chain_gens(G: Group, idxs: np.ndarray) -> tuple[int, ...]:
    """A generating list of chain-jump elements for a subgroup index set."""
    p, n = G.p, G.n
    idxs = np.sort(idxs)
    gens = []
    for i in range(n):
        hi = int(np.searchsorted(idxs, p ** (n - i), side="left"))
        lo = int(np.searchsorted(idxs, p ** (n - i - 1), side="left"))
        if hi > lo:
            gens.append(int(idxs[lo]))
    return tuple(gens)


def _coset_minima(G: Group, gens) -> np.ndarray:
    """least[x] = the least element of the coset x K, for the chain-jump
    elements gens = (b_1, ..., b_m) of a subgroup K (_chain_gens).  Each
    K ∩ H_(i+1) is normal in K ∩ H_i with a factor of order 1 or p, so
    K_a = <b_a, ..., b_m> = U_e b_a^e K_(a+1), and _orbit_minima over right
    multiplication by the b_a takes m (p - 1) gathers.  Both callers pass
    a normal K, where x K = K x: quotient checks that N is normal, and
    chartable._derived_cosets passes G'."""
    return _orbit_minima(G, (G.rmul_perm(g) for g in reversed(gens)))


def _generator_commutators(G: Group, xs: np.ndarray) -> np.ndarray:
    """out[i, t] = [xs[i], g_t] = xs[i]^-1 (g_t^-1 xs[i] g_t), from one
    pairwise product over all pc generators g_t at once."""
    prods = G.pairwise_mul(np.tile(np.take(G.inverse_table, xs), G.n),
                           np.concatenate([G.conj(xs, t) for t in range(G.n)]))
    return prods.reshape(G.n, -1).T


class _ChainIndex:
    """The chain normal forms of gens = (b_1, ..., b_m), and the one map
    from elements to their chain digits.

    elems[s] = b_1^d_1 ... b_m^d_m, where d are the base-p digits of the
    position s, d_1 most significant (_chain_elements).  keys, if given,
    maps every element of G to a key, such as its coset minimum; otherwise
    an element is its own key.  The keys of the p^m normal forms must be
    distinct, so a key names at most one position."""

    def __init__(self, G: Group, gens, keys: np.ndarray | None = None):
        self.p, self.m, self.gens = G.p, len(gens), tuple(gens)
        self.elems = _chain_elements(G, gens)
        self.keys = keys
        own = self.elems if keys is None else keys[self.elems]
        self._pos = np.argsort(own)
        self._sorted = own[self._pos]
        if (self._sorted[1:] == self._sorted[:-1]).any():
            raise InternalInconsistencyError("two chain normal forms share a key")

    def positions(self, x) -> np.ndarray:
        """The position of the normal form with the key of each element x,
        -1 where there is none."""
        x = np.asarray(x) if self.keys is None else self.keys[x]
        i = np.minimum(np.searchsorted(self._sorted, x), self._sorted.size - 1)
        return np.where(self._sorted[i] == x, self._pos[i], -1)

    def digits(self, s) -> np.ndarray:
        """Chain digits of the positions s, one row each."""
        return np.asarray(s)[:, None] // self.p ** np.arange(self.m - 1, -1, -1) % self.p


# ---------------------------------------------------------------------------
# public structure types


@dataclass(frozen=True)
class Subgroup:
    """A subgroup stored as its sorted element index set."""

    group: Group
    indices: np.ndarray
    gens: tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return int(self.indices.size)

    @cached_property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.group.order, dtype=bool)
        m[self.indices] = True
        return m

    def contains(self, idx: int) -> bool:
        return bool(self.mask[idx])

    @cached_property
    def is_normal(self) -> bool:
        G = self.group
        return all(bool(self.mask[G.conj(self.indices, t)].all()) for t in range(G.n))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """gens, or the chain-jump elements of indices when none were given."""
        return self.gens or _chain_gens(self.group, self.indices)

    @cached_property
    def is_abelian(self) -> bool:
        gens = self.generators
        return all(
            self.group.comm(a, b) == 0 for ai, a in enumerate(gens) for b in gens[ai + 1:]
        )

    def elements(self) -> list[Element]:
        return [self.group.element_of(int(i)) for i in self.indices]

    def to_json(self) -> list[list[int]]:
        return [list(self.group.element_of(int(i)).exps) for i in self.indices]

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.indices.size == other.indices.size
            and bool((self.indices == other.indices).all())
        )

    def __hash__(self):
        return hash((id(self.group), self.indices.size, int(self.indices.sum())))


@dataclass(frozen=True)
class ConjugacyClassSet:
    """Canonically ordered conjugacy classes: identity first, then by the
    lexicographically smallest member, which is also the representative."""

    group: Group
    reps: np.ndarray
    sizes: np.ndarray
    members: list[np.ndarray]
    classof: np.ndarray

    @property
    def count(self) -> int:
        return int(self.reps.size)

    def class_of(self, idx: int) -> int:
        return int(self.classof[idx])


@dataclass(frozen=True)
class QuotientGroup:
    """G/N together with the projection map."""

    parent: Group
    group: Group
    presentation: PcPresentation
    proj: np.ndarray          # parent index -> quotient index
    section: np.ndarray       # quotient index -> a parent preimage


@dataclass(frozen=True)
class SubgroupGroup:
    """A subgroup re-presented as a pc group of its own."""

    parent: Group
    group: Group
    presentation: PcPresentation
    to_parent: np.ndarray     # subgroup index -> parent index


# ---------------------------------------------------------------------------
# quotients and subgroup presentations


def _chain_presentation(G: Group, index: _ChainIndex, name: str, gens) -> PcPresentation:
    """The pc presentation on the chain generators b_1, ..., b_m of index,
    named name with generator names gens: each b_a^p and [b_c, b_a] (c > a)
    read as index.digits(index.positions(y)), which must vanish up to and
    including its level."""
    p, m, b = G.p, index.m, index.gens

    def word_from(y: int, start: int) -> Word:
        s = index.positions([y])
        digs = index.digits(s)[0]
        if s[0] < 0 or digs[:start].any():
            raise InternalInconsistencyError("relation word escapes its chain level")
        return tuple((a, int(d)) for a, d in enumerate(digs) if d)

    power_rels = []
    comm_rels = []
    for a in range(m):
        power_rels.append(word_from(G.pow(b[a], p), a + 1))
        for c in range(a + 1, m):
            w = word_from(G.comm(b[c], b[a]), c + 1)
            if w:
                comm_rels.append(((c, a), w))
    return PcPresentation(
        name=name,
        p=p,
        gens=tuple(gens),
        power_rels=tuple(power_rels),
        comm_rels=tuple(sorted(comm_rels)),
    )


def quotient(P, N: Subgroup) -> QuotientGroup:
    """Quotient presentation adapted to N plus the projection map.

    The canonical coset representative is the least member of Nx
    (_coset_minima); g_i jumps modulo N when it lies outside N H_(i+1),
    that is when its coset minimum is at least the weight of g_i.  The
    jump generators' normal forms, keyed by their coset minima, index G/N:
    the index requires their p^m keys to be distinct, and p^m |N| = |G|,
    so every coset holds exactly one of them.
    """
    G = group_of(P)
    if N.group is not G:
        raise ValueError("subgroup belongs to a different group")
    if not N.is_normal:
        raise ValueError("subgroup is not normal")
    if N.order == G.order:
        raise ValueError("quotient by the whole group is not supported")
    p, n = G.p, G.n

    rep = _coset_minima(G, _chain_gens(G, N.indices))
    jumps = [i for i in range(n) if rep[G.gen_index(i)] >= p ** (n - 1 - i)]
    if p ** len(jumps) * N.order != G.order:
        raise InternalInconsistencyError("chain jumps inconsistent with |N|")
    index = _ChainIndex(G, [G.gen_index(i) for i in jumps], keys=rep)
    Q = _chain_presentation(G, index, f"{G.pres.name}/N{N.order}",
                            (G.pres.gens[i] for i in jumps))
    proj = index.positions(np.arange(G.order, dtype=np.int64))
    if (proj < 0).any():
        raise InternalInconsistencyError("coset minima do not index the quotient")
    return QuotientGroup(parent=G, group=group_of(Q), presentation=Q, proj=proj,
                         section=rep[index.elems])


def subgroup_as_group(H: Subgroup) -> SubgroupGroup:
    """Re-present a subgroup on its own chain-adapted pc generators: their
    p^m distinct normal forms lie in H, so they enumerate it when
    p^m = |H|.  The trivial subgroup has no pc generators, and a pc
    presentation needs at least one, so it raises ValueError."""
    G = H.group
    if H.order == 1:
        raise ValueError("the trivial subgroup has no pc presentation (no generators)")
    index = _ChainIndex(G, _chain_gens(G, H.indices))
    if index.elems.size != H.order:
        raise InternalInconsistencyError("subgroup chain has a non-prime step")
    SP = _chain_presentation(G, index, f"{G.pres.name}|sub{H.order}",
                             (f"s{a + 1}" for a in range(index.m)))
    return SubgroupGroup(parent=G, group=Group(SP), presentation=SP, to_parent=index.elems)


# ---------------------------------------------------------------------------
# module-level operations (presentation-facing API)


_group_cache: dict[PcPresentation, Group] = {}


def group_of(P) -> Group:
    if isinstance(P, Group):
        return P
    G = _group_cache.get(P)
    if G is None:
        G = Group(P)
        _group_cache[P] = G
    return G


def subgroup_generated(gens, P) -> Subgroup:
    """Smallest subgroup containing the given elements."""
    G = group_of(P)
    idx_gens = tuple(G.index_of(a) if isinstance(a, Element) else int(a) for a in gens)
    idxs = G.subgroup_closure(idx_gens)
    return Subgroup(group=G, indices=idxs, gens=idx_gens)


def center(P) -> Subgroup:
    return group_of(P).center


def derived_subgroup(P) -> Subgroup:
    return group_of(P).derived


def centralizer(g, P) -> Subgroup:
    G = group_of(P)
    gi = G.index_of(g) if isinstance(g, Element) else int(g)
    idxs = G.centralizer_indices(gi)
    return Subgroup(group=G, indices=idxs, gens=_chain_gens(G, idxs))


def conjugacy_classes(P) -> ConjugacyClassSet:
    return group_of(P).conjugacy_classes


def nilpotency_class(P) -> int:
    return group_of(P).nilpotency_class


def exponent(P) -> int:
    return group_of(P).exponent


def p_log(n: int, p: int) -> int:
    """The exponent a with n = p^a, for a power n of p."""
    a = 0
    while n > 1:
        n //= p
        a += 1
    return a


def abelian_invariants(H: Subgroup) -> tuple[int, ...]:
    """Invariant factors of an abelian subgroup, as a sorted multiset of
    prime powers (largest first)."""
    if not H.is_abelian:
        raise ValueError("subgroup is not abelian")
    if H.order == 1:
        return ()
    G = H.group
    p = G.p
    # N_k = #{x in H : x^(p^k) = 1} = p^(sum_i min(lambda_i, k))
    ms = [0]
    xs = H.indices.astype(np.int64)
    k = 0
    while True:
        count = int(np.count_nonzero(xs == 0))
        power = p_log(count, p)
        if p**power != count:
            raise InternalInconsistencyError("subgroup power-count is not a p-power")
        if k > 0:
            ms.append(power)
        if count == H.order:
            break
        xs = _pth_powers(G, xs)
        k += 1
    # parts with lambda_i >= k number m_k - m_(k-1)
    counts = [ms[k] - ms[k - 1] for k in range(1, len(ms))]
    invariants = []
    for k, c in enumerate(counts, start=1):
        nxt = counts[k] if k < len(counts) else 0
        invariants.extend([p**k] * (c - nxt))
    return tuple(sorted(invariants, reverse=True))
