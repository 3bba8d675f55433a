"""Built-in presentations, isoclinism fingerprints, and a bounded
brute-force isoclinism test.

Only presentations with an established published form are bundled (the
classical small constructions plus the order-p^6 catalog representatives
named G_(i,j)); other families are ingested through the presentation file
format.  Catalog presentations are stated in the literature for p >= 7;
the builders accept p >= 5 as well, which the verification suite relies
on, and record the caveat in the entry note.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import InternalInconsistencyError
from .group import Group, _chain_elements, group_of, quotient
from .presentation import PcPresentation, Word, is_prime


def _w(gens: tuple[str, ...], word: Iterable[tuple[str, int]]) -> Word:
    pos = {g: i for i, g in enumerate(gens)}
    return tuple((pos[g], e) for g, e in word)


def _pres(name, p, gens, powers=(), comms=()) -> PcPresentation:
    gens = tuple(gens)
    pos = {g: i for i, g in enumerate(gens)}
    power_rels = [()] * len(gens)
    for g, word in powers:
        power_rels[pos[g]] = _w(gens, word)
    comm_rels = []
    for (a, b), word in comms:
        comm_rels.append(((pos[a], pos[b]), _w(gens, word)))
    return PcPresentation(
        name=name,
        p=p,
        gens=gens,
        power_rels=tuple(power_rels),
        comm_rels=tuple(sorted(comm_rels)),
    )


# ---------------------------------------------------------------------------
# elementary builders


def cyclic(p: int, k: int, name: str | None = None) -> PcPresentation:
    gens = tuple(f"c{i+1}" for i in range(k))
    powers = [(gens[i], [(gens[i + 1], 1)]) for i in range(k - 1)]
    return _pres(name or f"C_p{k if k > 1 else ''}", p, gens, powers=powers)


def elementary_abelian(p: int, k: int, name: str | None = None) -> PcPresentation:
    gens = tuple(f"e{i+1}" for i in range(k))
    return _pres(name or f"E_p{k}", p, gens)


def heisenberg(p: int, name: str = "heisenberg_p3") -> PcPresentation:
    gens = ("a", "b", "c")
    return _pres(name, p, gens, comms=[(("b", "a"), [("c", 1)])])


def extraspecial_exp_p2(p: int) -> PcPresentation:
    gens = ("a", "b", "c")
    return _pres(
        "extraspecial_p3_exp_p2",
        p,
        gens,
        powers=[("a", [("c", 1)])],
        comms=[(("b", "a"), [("c", 1)])],
    )


def extraspecial_p5(p: int) -> PcPresentation:
    # central product of two extraspecial p^3 factors: a single center <c>
    gens = ("a1", "b1", "a2", "b2", "c")
    return _pres(
        "extraspecial_p5_exp_p",
        p,
        gens,
        comms=[(("b1", "a1"), [("c", 1)]), (("b2", "a2"), [("c", 1)])],
    )


def direct_product(P1: PcPresentation, P2: PcPresentation, name: str) -> PcPresentation:
    if P1.p != P2.p:
        raise ValueError("direct product factors need the same prime")
    g1 = tuple(f"{g}_l" for g in P1.gens)
    g2 = tuple(f"{g}_r" for g in P2.gens)
    gens = g1 + g2
    n1 = len(g1)
    power_rels = list(P1.power_rels) + [
        tuple((g + n1, e) for g, e in w) for w in P2.power_rels
    ]
    comm_rels = list(P1.comm_rels) + [
        ((j + n1, i + n1), tuple((g + n1, e) for g, e in w))
        for (j, i), w in P2.comm_rels
    ]
    return PcPresentation(
        name=name,
        p=P1.p,
        gens=gens,
        power_rels=tuple(power_rels),
        comm_rels=tuple(sorted(comm_rels)),
    )


# ---------------------------------------------------------------------------
# order-p^6 catalog presentations
#
# Generators are listed so that every relation lands strictly later in the
# list, which is what the collection shape requires; names keep the
# catalog numbering.


def g12_1(p: int) -> PcPresentation:
    gens = ("a4", "a3", "a6", "a5", "a1", "a2")
    return _pres(
        "G_(12,1)",
        p,
        gens,
        comms=[(("a3", "a4"), [("a1", 1)]), (("a5", "a6"), [("a2", 1)])],
    )


def g14_3(p: int) -> PcPresentation:
    gens = ("a6", "a5", "a4", "a3", "a2", "a1")
    return _pres(
        "G_(14,3)",
        p,
        gens,
        powers=[
            ("a2", [("a1", 1)]),
            ("a3", [("a2", 1)]),
            ("a4", [("a3", 1)]),
            ("a6", [("a5", 1)]),
        ],
        comms=[
            (("a4", "a6"), [("a2", 1)]),
            (("a3", "a6"), [("a1", 1)]),
            (("a4", "a5"), [("a1", 1)]),
        ],
    )


def g17_1(p: int) -> PcPresentation:
    gens = ("a6", "a5", "a4", "a3", "a2", "a1")
    return _pres(
        "G_(17,1)",
        p,
        gens,
        comms=[
            (("a5", "a6"), [("a3", 1)]),
            (("a4", "a5"), [("a2", 1)]),
            (("a3", "a6"), [("a1", 1)]),
        ],
    )


def g18_1(p: int) -> PcPresentation:
    gens = ("a6", "a5", "a4", "a3", "a2", "a1")
    return _pres(
        "G_(18,1)",
        p,
        gens,
        comms=[
            (("a5", "a6"), [("a3", 1)]),
            (("a4", "a6"), [("a2", 1)]),
            (("a3", "a6"), [("a1", 1)]),
            (("a4", "a5"), [("a1", 1)]),
        ],
    )


def g19_1(p: int) -> PcPresentation:
    gens = ("a", "a1", "a2", "b", "b1", "b2")
    return _pres(
        "G_(19,1)",
        p,
        gens,
        comms=[
            (("a2", "a1"), [("b", -1)]),
            (("b", "a1"), [("b1", 1)]),
            (("b", "a2"), [("b2", 1)]),
            (("a1", "a"), [("b1", -1)]),
        ],
    )


def g20_1(p: int) -> PcPresentation:
    gens = ("a6", "a5", "a4", "a3", "a2", "a1")
    return _pres(
        "G_(20,1)",
        p,
        gens,
        comms=[
            (("a5", "a6"), [("a3", 1)]),
            (("a4", "a6"), [("a1", -1)]),
            (("a3", "a6"), [("a2", 1)]),
            (("a3", "a5"), [("a1", 1)]),
        ],
    )


# ---------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class CorpusEntry:
    label: str
    build: Callable[[int], PcPresentation]
    min_p: int
    max_p: Optional[int]
    order_exp: int
    note: str
    expected: Optional[dict]  # keys gvz / nested / vz where established

    def covers(self, p: int) -> bool:
        """Whether p lies in the entry's stated prime range."""
        return p >= self.min_p and (self.max_p is None or p <= self.max_p)


def _registry() -> dict[str, CorpusEntry]:
    vz_true = {"gvz": True, "nested": True, "vz": True}
    ab = {"gvz": True, "nested": True, "vz": False}
    entries = [
        CorpusEntry("C_p", lambda p: cyclic(p, 1, "C_p"), 3, None, 1,
                    "cyclic of order p", ab),
        CorpusEntry("C_p2", lambda p: cyclic(p, 2, "C_p2"), 3, None, 2,
                    "cyclic of order p^2", ab),
        CorpusEntry("C_p3", lambda p: cyclic(p, 3, "C_p3"), 3, None, 3,
                    "cyclic of order p^3", ab),
        CorpusEntry("E_p2", lambda p: elementary_abelian(p, 2, "E_p2"), 3, None, 2,
                    "elementary abelian of rank 2", ab),
        CorpusEntry("E_p3", lambda p: elementary_abelian(p, 3, "E_p3"), 3, None, 3,
                    "elementary abelian of rank 3", ab),
        CorpusEntry("heisenberg_p3", heisenberg, 3, None, 3,
                    "extraspecial of order p^3 and exponent p", vz_true),
        CorpusEntry("extraspecial_p3_exp_p2", extraspecial_exp_p2, 3, None, 3,
                    "extraspecial of order p^3 and exponent p^2", vz_true),
        CorpusEntry("extraspecial_p5_exp_p", extraspecial_p5, 3, None, 5,
                    "extraspecial of order p^5 and exponent p", vz_true),
        CorpusEntry(
            "heisenberg_x_Cp",
            lambda p: direct_product(heisenberg(p), cyclic(p, 1), "heisenberg_x_Cp"),
            3, None, 4,
            "Heisenberg times a central line; isoclinic to Heisenberg",
            {"gvz": True, "nested": True, "vz": True},
        ),
        CorpusEntry(
            "heisenberg_x_heisenberg",
            lambda p: direct_product(heisenberg(p), heisenberg(p), "heisenberg_x_heisenberg"),
            3, None, 6,
            "product of two non-abelian VZ factors: central-type everywhere "
            "but the character centers are incomparable",
            {"gvz": True, "nested": False, "vz": False},
        ),
        CorpusEntry("G_(12,1)", g12_1, 5, None, 6,
                    "catalog form of the product of two extraspecial factors "
                    "(stated for p >= 7; accepted from p = 5)",
                    {"gvz": True, "nested": False, "vz": False}),
        CorpusEntry("G_(14,3)", g14_3, 5, None, 6,
                    "two-generator catalog representative of exponent p^4 "
                    "(stated for p >= 7; accepted from p = 5)",
                    {"gvz": True, "nested": True, "vz": False}),
        CorpusEntry("G_(17,1)", g17_1, 5, None, 6,
                    "class-3 catalog representative, exponent p "
                    "(stated for p >= 7; accepted from p = 5)",
                    {"gvz": False, "nested": False, "vz": False}),
        CorpusEntry("G_(18,1)", g18_1, 5, None, 6,
                    "class-3 catalog representative with central-type rows only "
                    "(stated for p >= 7; accepted from p = 5)",
                    {"gvz": True, "nested": False, "vz": False}),
        CorpusEntry("G_(19,1)", g19_1, 5, None, 6,
                    "class-3 catalog representative on two generator families "
                    "(stated for p >= 7; accepted from p = 5)",
                    {"gvz": False, "nested": False, "vz": False}),
        CorpusEntry("G_(20,1)", g20_1, 5, None, 6,
                    "class-3 catalog representative with an inverted relation "
                    "(stated for p >= 7; accepted from p = 5)",
                    {"gvz": False, "nested": False, "vz": False}),
    ]
    return {e.label: e for e in entries}


REGISTRY = _registry()


def labels() -> list[str]:
    return list(REGISTRY)


def build(label: str, p: int) -> PcPresentation:
    """Build a corpus presentation for the given prime."""
    entry = REGISTRY.get(label)
    if entry is None:
        raise ValueError(f"unknown corpus label {label!r}")
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if not entry.covers(p):
        raise ValueError(f"{label} is available for p >= {entry.min_p}")
    return entry.build(p)


# ---------------------------------------------------------------------------
# fingerprints


@dataclass(frozen=True)
class IsoclinismFingerprint:
    """Invariants used to group candidates; |Z| and order are reported but
    excluded from the isoclinism core (they are not isoclinism-stable)."""

    order: int
    nilpotency_class: int
    center_order: int
    derived_order: int
    central_quotient_order: int
    abelianization: tuple[int, ...]
    derived_invariants: Optional[tuple[int, ...]]
    cd: tuple[int, ...]
    class_sizes: tuple[tuple[int, int], ...]

    def core(self) -> tuple:
        return (
            self.nilpotency_class,
            self.derived_order,
            self.central_quotient_order,
            self.cd,
        )

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "nilpotency_class": self.nilpotency_class,
            "center_order": self.center_order,
            "derived_order": self.derived_order,
            "central_quotient_order": self.central_quotient_order,
            "abelianization": list(self.abelianization),
            "derived_invariants": (
                list(self.derived_invariants) if self.derived_invariants is not None else None
            ),
            "cd": list(self.cd),
            "class_sizes": {str(s): m for s, m in self.class_sizes},
        }


def fingerprint(P) -> IsoclinismFingerprint:
    from .chartable import table_of
    from .group import abelian_invariants, quotient

    G = group_of(P)
    Z = G.center
    D = G.derived
    T = table_of(G)
    ab = abelian_invariants(quotient_abelianization(G))
    der_inv = abelian_invariants(D) if D.is_abelian else None
    sizes = {}
    for s in G.conjugacy_classes.sizes:
        sizes[int(s)] = sizes.get(int(s), 0) + 1
    return IsoclinismFingerprint(
        order=G.order,
        nilpotency_class=G.nilpotency_class,
        center_order=Z.order,
        derived_order=D.order,
        central_quotient_order=G.order // Z.order,
        abelianization=ab,
        derived_invariants=der_inv,
        cd=T.cd_set(),
        class_sizes=tuple(sorted(sizes.items())),
    )


def quotient_abelianization(G: Group):
    from .group import Subgroup, quotient

    D = G.derived
    if D.order == G.order:
        raise InternalInconsistencyError("a p-group is never perfect")
    if D.order == 1:
        # already abelian; reuse the whole group as its own abelianization
        return Subgroup(group=G, indices=np.arange(G.order, dtype=np.int64),
                        gens=tuple(G.gen_index(i) for i in range(G.n)))
    Q = quotient(G, D)
    return Subgroup(
        group=Q.group,
        indices=np.arange(Q.group.order, dtype=np.int64),
        gens=tuple(Q.group.gen_index(i) for i in range(Q.group.n)),
    )


# ---------------------------------------------------------------------------
# bounded brute-force isoclinism


def isoclinic_brute(P1, P2, budget: int = 10_000_000) -> Optional[bool]:
    """Exhaustive search for an isoclinism (theta, phi).

    theta ranges over isomorphisms G1/Z1 -> G2/Z2 found by backtracking on
    pc-generator images; phi is then forced on commutator values by the
    compatibility square and extended multiplicatively over G1', checking
    every product.  Returns True / False, or None when the node budget is
    exhausted ("unknown").
    """
    G1, G2 = group_of(P1), group_of(P2)
    D1, D2 = G1.derived, G2.derived
    if D1.order != D2.order or G1.nilpotency_class != G2.nilpotency_class:
        return False
    if G1.order // G1.center.order != G2.order // G2.center.order:
        return False
    if D1.order == 1:
        return True  # both abelian: the trivial maps commute

    Q1 = quotient(G1, G1.center)
    Q2 = quotient(G2, G2.center)
    q1, q2 = Q1.group, Q2.group

    orders2: dict[int, list[int]] = {}
    for x in range(q2.order):
        orders2.setdefault(q2.element_order(x), []).append(x)

    budget_left = [budget]

    def spend(n: int) -> bool:
        budget_left[0] -= n
        return budget_left[0] >= 0

    m = q1.n
    gen_orders = [q1.element_order(q1.gen_index(a)) for a in range(m)]
    images = [0] * m

    def eval_word(word, imgs) -> int:
        acc = 0
        for g, e in word:
            t = imgs[g] if e > 0 else q2.inv(imgs[g])
            for _ in range(abs(e)):
                acc = q2.mul(acc, t)
        return acc

    def relations_ok(a: int) -> bool:
        # words only involve generators with index > a, all already assigned
        target = eval_word(q1.pres.power_rels[a], images)
        if q2.pow(images[a], q1.p) != target:
            return False
        for b in range(a + 1, m):
            w = q1.pres.comm_dict.get((b, a), ())
            if q2.comm(images[b], images[a]) != eval_word(w, images):
                return False
        return True

    def check_theta() -> Optional[bool]:
        # map all of Q1 through the images, digit by digit
        theta = _chain_elements(q2, images)
        if np.unique(theta).size != q1.order:
            return False  # not injective
        if not spend(q1.order * q1.order):
            return None
        # forced phi on commutator values
        sec1 = Q1.section
        sec2 = Q2.section
        phi: dict[int, int] = {0: 0}
        for x in range(q1.order):
            gx1 = int(sec1[x])
            gx2 = int(sec2[theta[x]])
            for y in range(q1.order):
                c1 = G1.comm(gx1, int(sec1[y]))
                c2 = G2.comm(gx2, int(sec2[theta[y]]))
                known = phi.get(c1)
                if known is None:
                    phi[c1] = c2
                elif known != c2:
                    return False
        # multiplicative closure over G1' with full consistency
        target_size = D1.order
        changed = True
        while changed:
            if not spend(len(phi) * len(phi)):
                return None
            changed = False
            items = list(phi.items())
            for a1, a2 in items:
                for b1, b2 in items:
                    c1 = G1.mul(a1, b1)
                    c2 = G2.mul(a2, b2)
                    known = phi.get(c1)
                    if known is None:
                        phi[c1] = c2
                        changed = True
                    elif known != c2:
                        return False
        if len(phi) != target_size:
            return False
        if len(set(phi.values())) != target_size:
            return False
        if not D2.mask[np.array(list(phi.values()))].all():
            return False
        return True

    def backtrack(a: int) -> Optional[bool]:
        if a < 0:
            return check_theta()
        for cand in orders2.get(gen_orders[a], []):
            if not spend(1):
                return None
            images[a] = cand
            if relations_ok(a):
                res = backtrack(a - 1)
                if res:
                    return True
                if res is None:
                    return None
        return False

    result = backtrack(m - 1)
    return result
