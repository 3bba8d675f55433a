"""Predicates on character-vanishing structure and the counting formulas.

The two routes to the central decision are kept fully independent and
compared: the character route (every irreducible character vanishes off
its center) and the character-free "flat" route (each conjugacy class is
as large as the subgroup generated by the commutators of its
representative).  The report construction aborts rather than emit a
disagreement.

The character predicates read the table's class masks,
CharacterTable.center_masks (Z(chi)) and nonzero_masks (the support),
with one array operation each over the non-linear rows; a linear row has
Z(chi) = G and vanishes nowhere, so it is decided by its kind.

Neither character-free route closes a subgroup: flatness tests
C [g, a] in C for each class C = cl(g) and pc generator a, the Camina
route x z ~ x for each x outside N and generator z of N, as one class-id
gather per generator (is_flat and is_camina_pair say why that is exact).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .chartable import CharacterTable, _row_keys
from .errors import InternalInconsistencyError
from .group import Subgroup, _generator_commutators, abelian_invariants, group_of, p_log


# ---------------------------------------------------------------------------
# per-character predicates


def is_central_type(T: CharacterTable) -> np.ndarray:
    """One flag per row of T.rows: chi vanishes off Z(chi), cross-checked
    against chi(1)^2 = |G:Z(chi)|.  The linear rows are of central type by
    their kind."""
    zmask = T.center_masks
    vanishing = _vanishes_off(T, zmask)
    index_route = T.degs * T.degs * (zmask @ T.classes.sizes) == T.group.order
    bad = np.flatnonzero(vanishing != index_route)
    if bad.size:
        i = bad[0]
        raise InternalInconsistencyError(
            f"central-type criteria disagree for a degree-{T.degs[i]} row "
            f"(vanishing={bool(vanishing[i])}, index={bool(index_route[i])})"
        )
    return np.r_[np.ones(len(T.lin_t), dtype=bool), vanishing]


def fully_ramified(T: CharacterTable, N: Subgroup) -> np.ndarray:
    """One flag per row of T.rows: chi(g) = 0 for all g outside N.  A linear
    row vanishes nowhere, so it is fully ramified only over N = G."""
    if not N.is_normal:
        raise ValueError("N must be normal")
    nmask = _class_mask(N, T)
    return np.r_[np.full(len(T.lin_t), nmask.all()), _vanishes_off(T, nmask)]


def _vanishes_off(T: CharacterTable, masks: np.ndarray) -> np.ndarray:
    """For each non-linear row, whether it is 0 off its row of masks (or
    off masks, one (k,) mask for all)."""
    return ~(T.nonzero_masks & ~masks).any(axis=1)


def _class_mask(N: Subgroup, T: CharacterTable) -> np.ndarray:
    """Class mask of a normal subgroup, checked to be a class union."""
    cls = T.classes
    mask = N.mask[cls.reps]
    if int(cls.sizes[mask].sum()) != N.order:
        raise InternalInconsistencyError("subgroup is not a union of classes")
    return mask


# ---------------------------------------------------------------------------
# group-level predicates


def is_gvz(T: CharacterTable) -> bool:
    return bool(is_central_type(T).all())


def is_flat(P) -> bool:
    """Character-free route: |cl(g)| = |<[g, x] : x in G>| for every g.

    Tested as C [g, a] in C for each class C = cl(g) of a rep g and each pc
    generator a: one pairwise product and class-id gather per generator
    over the whole group (central classes pass, [g, a] = 1), no closure.
    Exact: let S = g^-1 C = {[g, x]} and T = C g^-1 = g S g^-1; g is flat
    iff S, equivalently T, is a subgroup.  T^a = C (g^a)^-1, so T^a = T iff
    C [g, a] = C, and finiteness turns C [g, a] in C into equality.  T is
    a subgroup iff T^a = T for every pc generator a.  (if) g^(xa) g^-1 =
    (g^x g^-1)^a w_a with w_a = g^a g^-1, so T = T^a w_a = T w_a and T is
    right-stable under the normal closure N of the w_a; induction on a
    positive word for x gives T in N, and 1 in T gives N in T.  (only if)
    a subgroup S is [g, G], which is normal, so T = S."""
    G = group_of(P)
    cls = G.conjugacy_classes
    cid = cls.classof
    x = np.arange(G.order, dtype=np.int64)
    comms = _generator_commutators(G, cls.reps)
    return all((cid[G.pairwise_mul(x, comms[cid, t])] == cid).all() for t in range(G.n))


def is_nested(T: CharacterTable) -> bool:
    """The distinct centers Z(chi) form a chain under inclusion.  A linear
    row's Z(chi) = G holds every other, so only the non-linear rows' are
    read."""
    masks = T.center_masks
    chain = masks[np.unique(_row_keys(masks), return_index=True)[1]]
    chain = chain[np.argsort(chain @ T.classes.sizes, kind="stable")]
    return not (chain[:-1] & ~chain[1:]).any()


def is_vz(T: CharacterTable) -> tuple[bool, str | None]:
    """Every nonlinear character vanishes off Z(G); requires non-abelian.

    Returns (verdict, note); abelian groups get (False, explanation) so
    batch pipelines stay total."""
    G = T.group
    if G.is_abelian:
        return False, "abelian group: the VZ property is defined for non-abelian groups"
    return bool(_vanishes_off(T, _class_mask(G.center, T)).all()), None


def is_camina_pair(P, N: Subgroup, T: CharacterTable) -> bool:
    """Every g outside N is conjugate to the whole coset gN; cross-checked
    against the character criterion (rows not trivial on N vanish off N).
    Whether N lies in a row's kernel is read at N's classes only
    (CharacterTable.kernel_masks).

    The conjugation route tests x z ~ x for every x outside N and every
    generator z of N, one class-id gather per generator.  That is the coset
    condition: xN in cl(x) gives x z ~ x; conversely each n in N is a
    positive word z_1 ... z_r, every prefix x z_1 ... z_i lies outside N,
    so x z_1 ... z_i ~ x z_1 ... z_(i-1) ~ ... ~ x."""
    G = group_of(P)
    if not (1 < N.order < G.order):
        raise ValueError("Camina pair requires 1 < N < G")
    if not N.is_normal:
        raise ValueError("N must be normal")
    cls = T.classes
    nmask = _class_mask(N, T)
    outside = np.flatnonzero(~N.mask)
    cid = cls.classof[outside]
    conj_route = all((cls.classof[G.rmul_array(outside, z)] == cid).all()
                     for z in N.generators)
    char_route = bool((T.kernel_masks(nmask).all(axis=1) | fully_ramified(T, N)).all())
    if conj_route != char_route:
        raise InternalInconsistencyError(
            f"Camina-pair routes disagree (conjugation={conj_route}, character={char_route})"
        )
    return conj_route


def is_gen_camina_pair(P, N: Subgroup, T: CharacterTable) -> bool:
    """All nonlinear rows vanish off N (vacuously true for abelian groups)."""
    if not N.is_normal:
        raise ValueError("N must be normal")
    return bool(_vanishes_off(T, _class_mask(N, T)).all())


# ---------------------------------------------------------------------------
# structural check suites


def check_special_degree(T: CharacterTable) -> list[int]:
    """Row indices violating: chi(1)^2 = |G:Z(G)| forces vanishing off Z(G)
    with Z(chi) = Z(G).  Must come back empty."""
    G = T.group
    zmask = _class_mask(G.center, T)
    n_lin = len(T.lin_t)
    ok = is_central_type(T)[n_lin:] & (T.center_masks == zmask).all(axis=1)
    # a linear row hits the degree only when G is abelian, where it is fine
    hit = T.degs * T.degs * G.center.order == G.order
    return (np.flatnonzero(hit & ~ok) + n_lin).tolist()


def check_lift_equivalence(P, N: Subgroup) -> list[int]:
    """Quotient rows whose lift disagrees on the central-type predicate.

    Each irreducible row of G/N lifts to the unique row of G with the same
    values through the projection; the two must be of central type
    together.  Returns quotient row indices that mismatch (must be empty).

    Rows are matched on the tuple of their value strings at the quotient
    classes (the parent row read at the class of each quotient class
    rep's section).  The strings are exact keys although e(G) and e(G/N)
    may differ: Cyclotomic rewrites every value of prime-power order in
    the smallest cyclotomic field that contains it, in that field's
    canonical basis, so equal values have the same (order, coeffs) form
    whichever exponent they were computed at; and __str__ is injective on
    that form (each non-rational term names the order and its exponent,
    the rational term stands alone, and only term boundaries carry a sign
    or a '+').  Two values are therefore equal exactly when their strings
    are.
    """
    from .chartable import table_of
    from .group import quotient

    G = group_of(P)
    Q = quotient(G, N)
    TG = table_of(G)
    TQ = table_of(Q.group)

    # parent class of each quotient class rep's section, once for all rows
    at = TG.classes.classof[Q.section[Q.group.conjugacy_classes.reps]]
    vals_G = TG.value_strings(at)
    lift_targets = {}
    for gi in np.flatnonzero(TG.kernel_masks(_class_mask(N, TG)).all(axis=1)).tolist():
        key = tuple(vals_G[gi])
        if key in lift_targets:
            raise InternalInconsistencyError("two parent rows share lift values")
        lift_targets[key] = gi
    del vals_G  # the keys hold the strings; drop the lists before the quotient's are made
    mismatches = []
    central_G, central_Q = is_central_type(TG), is_central_type(TQ)
    for qi, vals in enumerate(TQ.value_strings()):
        gi = lift_targets.pop(tuple(vals), None)
        if gi is None:
            raise InternalInconsistencyError("quotient row has no lift in the parent table")
        if central_Q[qi] != central_G[gi]:
            mismatches.append(qi)
    if lift_targets:
        raise InternalInconsistencyError("parent rows left unmatched by quotient rows")
    return mismatches


def check_nil_le_cd(P, T: CharacterTable) -> str:
    """'holds' / 'fails' for class(G) <= #cd(G); 'inapplicable' unless every
    row is of central type (the hypothesis of the bound)."""
    G = group_of(P)
    if not is_gvz(T):
        return "inapplicable"
    return "holds" if G.nilpotency_class <= len(T.cd_set()) else "fails"


@dataclass(frozen=True)
class PermDegree:
    """Minimal faithful permutation degree |G/Z|^(1/2) * |Z| as an exact
    p-exponent (a half-integer when |G/Z| is an odd power of p)."""

    p: int
    exponent: Fraction
    is_integral: bool
    value: int | None


def gvz_min_perm_degree(P, T: CharacterTable) -> PermDegree:
    G = group_of(P)
    if not is_gvz(T):
        raise ValueError("the permutation-degree formula needs every row of central type")
    Z = G.center
    if len(abelian_invariants(Z)) > 1:
        raise ValueError("the permutation-degree formula needs a cyclic center")
    expo = Fraction(p_log(G.order // Z.order, G.p), 2) + p_log(Z.order, G.p)
    integral = expo.denominator == 1
    return PermDegree(
        p=G.p,
        exponent=expo,
        is_integral=integral,
        value=G.p ** int(expo) if integral else None,
    )


# ---------------------------------------------------------------------------
# counting formulas


@dataclass(frozen=True)
class CountingResult:
    p: int
    order_exp: int
    gvz_count: int
    nested_count: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "order": f"p^{self.order_exp}",
            "gvz": self.gvz_count,
            "nested": self.nested_count,
        }


def counting_formulas(p: int, order_exp: int) -> CountingResult:
    """Isomorphism-type counts of GVZ / nested-GVZ groups of order p^5, p^6.

    Order p^6 requires p >= 5; order p^5 holds for every odd prime.
    """
    from .presentation import is_prime

    if not is_prime(p) or p == 2:
        raise ValueError("p must be an odd prime")
    if order_exp == 5:
        return CountingResult(p=p, order_exp=5, gvz_count=p + 31, nested_count=23)
    if order_exp == 6:
        if p < 5:
            raise ValueError("the order-p^6 counts require p >= 5")
        gvz2 = 3 * p * p + 28 * p + 315 + 2 * gcd(p - 1, 3) + 2 * gcd(p - 1, 4)
        nested2 = 3 * p * p + 10 * p + 187
        if gvz2 % 2 or nested2 % 2:
            raise InternalInconsistencyError("count formulas must be even")
        return CountingResult(
            p=p, order_exp=6, gvz_count=gvz2 // 2, nested_count=nested2 // 2
        )
    raise ValueError("order exponent must be 5 or 6")


# ---------------------------------------------------------------------------
# the report


@dataclass(frozen=True)
class ClassificationReport:
    label: str
    order: int
    p: int
    nilpotency_class: int
    cd: dict[int, int]
    is_gvz: bool
    is_flat: bool
    is_nested: bool
    is_vz: bool
    vz_note: str | None
    camina_pair_with_center: bool
    gen_camina_pair_with_center: bool
    center_order: int
    center_chain: tuple[int, ...]
    center_chain_is_chain: bool
    per_character: tuple[tuple[int, int, bool], ...]

    def to_json(self) -> dict:
        out = {
            "group": self.label,
            "order": self.order,
            "p": self.p,
            "nilpotency_class": self.nilpotency_class,
            "cd": {str(d): m for d, m in self.cd.items()},
            "gvz": self.is_gvz,
            "flat": self.is_flat,
            "nested": self.is_nested,
            "vz": self.is_vz,
            "camina_pair_with_center": self.camina_pair_with_center,
            "gen_camina_pair_with_center": self.gen_camina_pair_with_center,
            "center_order": self.center_order,
            "center_chain": {
                "orders": list(self.center_chain),
                "is_chain": self.center_chain_is_chain,
            },
            "per_character": [
                {"degree": d, "center_order": z, "central_type": c}
                for d, z, c in self.per_character
            ],
        }
        if self.vz_note:
            out["vz_note"] = self.vz_note
        return out


def classification_report(P, *, table: CharacterTable | None = None) -> ClassificationReport:
    """Run every predicate and enforce the cross-route invariants."""
    G = group_of(P)
    if G.p == 2:
        raise ValueError("classification is defined for odd primes only")
    from .chartable import table_of

    T = table if table is not None else table_of(G)
    central = is_central_type(T)
    # a unity row has |chi| = 1 everywhere: Z(chi) = G
    zorders = np.r_[np.full(len(T.lin_t), G.order), T.center_masks @ T.classes.sizes]
    per_char = tuple(zip(T.degrees(), zorders.tolist(), central.tolist()))
    gvz = bool(central.all())
    flat = is_flat(G)
    if gvz != flat:
        raise InternalInconsistencyError(
            f"character route (gvz={gvz}) and conjugation route (flat={flat}) disagree"
        )
    nested = is_nested(T)
    vz, vz_note = is_vz(T)
    Z = G.center
    camina = 1 < Z.order < G.order and is_camina_pair(G, Z, T)
    gcamina = is_gen_camina_pair(G, Z, T)
    if vz and not (nested and gvz):
        raise InternalInconsistencyError("VZ verdict without nested GVZ structure")
    if nested and gvz and not flat:
        raise InternalInconsistencyError("nested GVZ verdict without flat structure")

    return ClassificationReport(
        label=G.pres.name,
        order=G.order,
        p=G.p,
        nilpotency_class=G.nilpotency_class,
        cd=T.cd_multiset(),
        is_gvz=gvz,
        is_flat=flat,
        is_nested=nested and gvz,
        is_vz=vz,
        vz_note=vz_note,
        camina_pair_with_center=camina,
        gen_camina_pair_with_center=gcamina,
        center_order=Z.order,
        center_chain=tuple(sorted({z for _, z, _ in per_char})),
        center_chain_is_chain=nested,
        per_character=per_char,
    )
