"""Structural operations, cross-checked against collector-based brute force."""

import itertools

import numpy as np
import pytest

import pgclass as pg
from pgclass.group import (_generator_commutators, _pth_powers, group_of, quotient,
                           subgroup_as_group)
from pgclass.presentation import collector


def heis(p=3):
    return pg.build("heisenberg_p3", p)


# -- brute-force oracles (collector only, no table machinery) -----------------


def naive_center(P):
    col = collector(P)
    els = list(P.elements())
    out = []
    for g in els:
        if all(col.multiply(g, x) == col.multiply(x, g) for x in els):
            out.append(g)
    return sorted(e.exps for e in out)


def naive_classes(P):
    col = collector(P)
    els = list(P.elements())
    seen = set()
    classes = []
    for g in els:
        if g.exps in seen:
            continue
        orbit = {g.exps}
        frontier = [g]
        while frontier:
            x = frontier.pop()
            for h in els:
                y = col.multiply(col.multiply(col.inverse(h), x), h)
                if y.exps not in orbit:
                    orbit.add(y.exps)
                    frontier.append(y)
        seen |= orbit
        classes.append(sorted(orbit))
    return sorted(classes)


def bfs_classes(G):
    """Classes by breadth-first search over the generators' conjugation,
    scanning elements in increasing order (so each rep is its class's
    smallest member)."""
    seen = np.zeros(G.order, dtype=bool)
    classof = np.empty(G.order, dtype=np.int64)
    reps, members = [], []
    for x in range(G.order):
        if seen[x]:
            continue
        collected = [np.array([x], dtype=np.int64)]
        seen[x] = True
        frontier = collected[0]
        while frontier.size:
            imgs = np.unique(np.concatenate([c[frontier] for c in G.conj_tables]))
            imgs = imgs[~seen[imgs]]
            seen[imgs] = True
            if imgs.size:
                collected.append(imgs)
            frontier = imgs
        cls = np.sort(np.concatenate(collected))
        classof[cls] = len(reps)
        reps.append(x)
        members.append(cls)
    return reps, [m.size for m in members], members, classof


def brute_coset_minima(G, N):
    """min{h x : h in N} for every x, one left multiplication per h."""
    rep = np.arange(G.order, dtype=np.int64)
    for h in N.indices:
        rep = np.minimum(rep, G.lmul_perm(int(h)))
    return rep


# every corpus entry at p = 3, plus two order-5^6 groups of class 2 and 3
ORACLE_GROUPS = [
    (label, 3) for label, entry in pg.REGISTRY.items() if entry.min_p <= 3
] + [("G_(14,3)", 5), ("G_(17,1)", 5)]


# the only corpus groups whose relations carry negative exponents
SAMPLED_GROUPS = [("G_(14,3)", 5), ("G_(17,1)", 5), ("G_(19,1)", 5), ("G_(20,1)", 5)]


def _table_points(label, p):
    """(group, collector, points): every element of an order-3^n oracle
    group, 80 fixed-seed samples of an order-5^6 one."""
    P = pg.build(label, p)
    G = group_of(P)
    if p == 3:
        xs = np.arange(G.order)
    else:
        xs = np.random.default_rng(19).choice(G.order, size=80, replace=False)
    return G, collector(P), [int(x) for x in xs]


@pytest.mark.parametrize("label,p", [g for g in ORACLE_GROUPS if g[1] == 3] + SAMPLED_GROUPS)
def test_tables_match_collector(label, p):
    """right, left, inverse and conjugation tables, conj on one index, and
    p-th powers, each entry against collection from the left."""
    G, col, xs = _table_points(label, p)
    n = G.n
    pows = _pth_powers(G, np.array(xs, dtype=np.int64))
    for x, xp in zip(xs, pows):
        syl = tuple((i, e) for i, e in enumerate(G.element_of(x).exps) if e)
        assert G.index_of(col.collect(syl * p)) == xp
        assert col.collect(syl + tuple((i, e) for i, e in enumerate(
            G.element_of(int(G.inverse_table[x])).exps) if e)).is_identity()
        for t in range(n):
            assert G.index_of(col.collect(syl + ((t, 1),))) == G.right_tables[t][x]
            assert G.index_of(col.collect(((t, 1),) + syl)) == G.left_tables[t][x]
            assert (G.index_of(col.collect(((t, -1),) + syl + ((t, 1),)))
                    == G.conj_tables[t][x] == G.conj(x, t))


def test_pth_powers_square_and_multiply(monkeypatch):
    """At p = 7, x^p takes 4 pairwise products (x^2, x^3, x^4, x^7), not
    p - 1 = 6, and agrees with Group.pow on 80 fixed-seed elements of an
    order-7^6 group."""
    from pgclass.group import Group

    G = group_of(pg.build("G_(19,1)", 7))
    xs = np.random.default_rng(23).choice(G.order, size=80, replace=False)
    calls = []
    pairwise_mul = Group.pairwise_mul

    def counted(self, A, B):
        calls.append(A.size)
        return pairwise_mul(self, A, B)

    monkeypatch.setattr(Group, "pairwise_mul", counted)
    pows = _pth_powers(G, xs)
    assert calls == [xs.size] * 4
    assert pows.tolist() == [G.pow(int(x), 7) for x in xs]


def test_products_match_collector_on_int32_tables():
    """mul, pairwise_mul, rmul_array and lmul_array on a group of order 7^6,
    whose tables are int32 because every index lies below _MAX_ORDER < 2^31,
    each against collection: 200 seeded random pairs, plus the pairs that
    use the first and last elements."""
    from pgclass.group import _MAX_ORDER

    assert _MAX_ORDER < 2**31
    P = pg.build("G_(19,1)", 7)
    G, col = group_of(P), collector(P)
    last = G.order - 1
    rng = np.random.default_rng(35)
    A = np.r_[rng.integers(0, G.order, size=200), 0, last, 0, last, 5]
    B = np.r_[rng.integers(0, G.order, size=200), last, 0, 0, last, last]

    def ref(a, b):
        return G.index_of(col.multiply(G.element_of(int(a)), G.element_of(int(b))))

    want = [ref(a, b) for a, b in zip(A, B)]
    assert [G.mul(a, b) for a, b in zip(A, B)] == want
    assert G.pairwise_mul(A, B).tolist() == want
    for b in (0, last, int(B[0])):
        assert G.rmul_array(A, b).tolist() == [ref(a, b) for a in A]
    for a in (0, last, int(A[0])):
        assert G.lmul_array(B, a).tolist() == [ref(a, b) for b in B]


def test_center_heisenberg_vs_brute_force():
    P = heis()
    G = group_of(P)
    got = sorted(tuple(e.exps) for e in G.center.elements())
    assert got == naive_center(P)
    assert G.center.order == 3


def test_center_abelian_is_whole_group():
    P = pg.build("E_p2", 3)
    assert pg.center(P).order == 9


def test_center_g17_is_a1_a2():
    P = pg.build("G_(17,1)", 7)
    G = group_of(P)
    Z = G.center
    assert Z.order == 49
    pos = {g: i for i, g in enumerate(P.gens)}
    a1, a2 = G.gen_index(pos["a1"]), G.gen_index(pos["a2"])
    expect = G.subgroup_closure([a1, a2])
    assert (Z.indices == expect).all()


def test_conjugacy_classes_heisenberg_vs_brute_force():
    P = heis()
    G = group_of(P)
    cls = G.conjugacy_classes
    got = sorted(sorted(G.element_of(int(i)).exps for i in c) for c in cls.members)
    assert got == naive_classes(P)
    sizes = sorted(cls.sizes.tolist())
    assert sizes == [1, 1, 1] + [3] * 8
    assert int(cls.sizes.sum()) == 27


@pytest.mark.parametrize("label,p", ORACLE_GROUPS)
def test_conjugacy_classes_match_bfs_reference(label, p):
    G = group_of(pg.build(label, p))
    cls = G.conjugacy_classes
    reps, sizes, members, classof = bfs_classes(G)
    assert cls.reps.tolist() == reps
    assert cls.sizes.tolist() == sizes
    assert (cls.classof == classof).all()
    assert len(cls.members) == len(members)
    for got, want in zip(cls.members, members):
        assert (got == want).all()


@pytest.mark.parametrize("label,p", ORACLE_GROUPS)
def test_quotient_coset_minima_match_brute_force(label, p):
    G = group_of(pg.build(label, p))
    last = pg.subgroup_generated([G.gen_index(G.n - 1)], G)
    for N in (G.derived, G.center, last):
        if N.order == G.order:
            continue
        want = brute_coset_minima(G, N)
        Q = quotient(G, N)
        assert (Q.section[Q.proj] == want).all(), (label, p, N.order)
        assert (np.sort(Q.section) == np.unique(want)).all(), (label, p, N.order)


@pytest.mark.parametrize("label,p", ORACLE_GROUPS)
def test_exponent_matches_element_orders(label, p):
    G = group_of(pg.build(label, p))
    assert G.exponent == max(G.element_order(int(r)) for r in G.conjugacy_classes.reps)


@pytest.mark.parametrize("label,p", ORACLE_GROUPS)
def test_batched_generator_commutators(label, p):
    G = group_of(pg.build(label, p))
    reps = G.conjugacy_classes.reps
    comms = _generator_commutators(G, reps)
    assert comms.shape == (reps.size, G.n)
    for c, g in enumerate(reps.tolist()):
        assert comms[c].tolist() == [G.comm(g, G.gen_index(t)) for t in range(G.n)]


def test_quotient_guard_survives_optimize(run_optimized):
    """Under python -O a wrong coset minimum still raises the typed error."""
    code = (
        "import numpy as np\n"
        "import pgclass as pg\n"
        "import pgclass.group as gr\n"
        "G = gr.group_of(pg.build('heisenberg_p3', 3))\n"
        "D = G.derived\n"
        "gr._orbit_minima = lambda G, perms: np.arange(G.order, dtype=np.int64)\n"
        "try:\n"
        "    gr.quotient(G, D)\n"
        "except pg.InternalInconsistencyError:\n"
        "    print('typed')\n"
    )
    assert run_optimized(code).strip() == "typed"


def test_class_sizes_divide_order():
    for label, p in [("G_(18,1)", 5), ("extraspecial_p5_exp_p", 3)]:
        G = group_of(pg.build(label, p))
        assert all(G.order % int(s) == 0 for s in G.conjugacy_classes.sizes)


def test_cyclic_group_all_singletons():
    G = group_of(pg.build("C_p2", 3))
    assert G.conjugacy_classes.count == 9


def test_centralizer_times_class_size():
    P = heis(3)
    G = group_of(P)
    cls = G.conjugacy_classes
    for x in range(G.order):
        cz = G.centralizer_indices(x).size
        assert cz * int(cls.sizes[cls.classof[x]]) == G.order


def test_centralizer_times_class_size_order_243():
    # exhaustive over class representatives of an order-3^5 group; the
    # product is constant on classes, so this covers every element
    G = group_of(pg.build("extraspecial_p5_exp_p", 3))
    cls = G.conjugacy_classes
    for c in range(cls.count):
        cz = G.centralizer_indices(int(cls.reps[c])).size
        assert cz * int(cls.sizes[c]) == G.order


def test_associativity_exhaustive_order_81_tables():
    G = group_of(pg.build("heisenberg_x_Cp", 3))
    import itertools as it

    tbl = np.empty((81, 81), dtype=np.int64)
    for a in range(81):
        for b in range(81):
            tbl[a, b] = G.mul(a, b)
    for a, b, c in it.product(range(81), repeat=3):
        assert tbl[tbl[a, b], c] == tbl[a, tbl[b, c]]


def test_associativity_thousand_random_triples_collector():
    P = pg.build("G_(18,1)", 5)
    G = group_of(P)
    col = collector(P)
    rng = np.random.default_rng(11)
    triples = rng.integers(0, G.order, size=(1000, 3))
    for x, y, z in triples:
        assert G.mul(G.mul(int(x), int(y)), int(z)) == G.mul(int(x), G.mul(int(y), int(z)))
    for x, y, z in triples[:25]:
        ex, ey, ez = (G.element_of(int(t)) for t in (x, y, z))
        lhs = col.multiply(col.multiply(ex, ey), ez)
        rhs = col.multiply(ex, col.multiply(ey, ez))
        assert lhs == rhs


def test_inverse_exhaustive_order_243_tables():
    G = group_of(pg.build("extraspecial_p5_exp_p", 3))
    inv = G.inverse_table
    for x in range(G.order):
        assert G.mul(x, int(inv[x])) == 0


def test_centralizer_of_a_in_heisenberg():
    P = heis(3)
    G = group_of(P)
    ac = pg.centralizer(P.generator(0), P)
    assert ac.order == 9
    # <a, c>
    expect = G.subgroup_closure([G.gen_index(0), G.gen_index(2)])
    assert (ac.indices == expect).all()


def test_centralizer_central_is_whole_group():
    P = heis(3)
    assert pg.centralizer(P.generator(2), P).order == 27
    assert pg.centralizer(P.identity(), P).order == 27


def test_subgroup_generated():
    P = heis(3)
    G = group_of(P)
    assert pg.subgroup_generated([], P).order == 1
    c = pg.subgroup_generated([P.generator(2)], P)
    assert c.order == 3
    P18 = pg.build("G_(18,1)", 7)
    G18 = group_of(P18)
    pos = {g: i for i, g in enumerate(P18.gens)}
    sub = pg.subgroup_generated([P18.generator(pos["a1"]), P18.generator(pos["a2"])], P18)
    assert sub.order == 49
    assert (sub.indices == G18.center.indices).all()


def test_derived_subgroups():
    assert pg.derived_subgroup(pg.build("E_p3", 3)).order == 1
    P = heis(3)
    d = pg.derived_subgroup(P)
    assert d.order == 3
    P18 = pg.build("G_(18,1)", 7)
    d18 = pg.derived_subgroup(P18)
    assert d18.order == 7**3
    G18 = group_of(P18)
    pos = {g: i for i, g in enumerate(P18.gens)}
    expect = G18.subgroup_closure(
        [G18.gen_index(pos[g]) for g in ("a1", "a2", "a3")]
    )
    assert (d18.indices == expect).all()


def test_center_equals_intersection_of_gen_centralizers():
    for label, p in [("heisenberg_p3", 5), ("G_(19,1)", 5)]:
        P = pg.build(label, p)
        G = group_of(P)
        mask = np.ones(G.order, dtype=bool)
        for i in range(G.n):
            cz = np.zeros(G.order, dtype=bool)
            cz[G.centralizer_indices(G.gen_index(i))] = True
            mask &= cz
        assert (np.flatnonzero(mask) == G.center.indices).all()


def test_nilpotency_class():
    assert pg.nilpotency_class(pg.build("E_p3", 3)) == 1
    assert pg.nilpotency_class(heis(3)) == 2
    assert pg.nilpotency_class(pg.build("G_(17,1)", 7)) == 3
    assert pg.nilpotency_class(pg.build("G_(14,3)", 5)) == 2


def test_lower_central_series_descends_normally():
    G = group_of(pg.build("G_(20,1)", 5))
    series = G.lower_central_series
    for term in series:
        sub = pg.Subgroup(group=G, indices=term)
        assert sub.is_normal
    for a, b in zip(series, series[1:]):
        assert b.size < a.size
    assert series[-1].size == 1


def test_exponent():
    assert pg.exponent(pg.build("E_p2", 3)) == 3
    assert pg.exponent(heis(5)) == 5
    assert pg.exponent(pg.build("extraspecial_p3_exp_p2", 3)) == 9
    # power chain a4 -> a3 -> a2 -> a1 gives exponent p^4
    assert pg.exponent(pg.build("G_(14,3)", 7)) == 7**4


def test_exponent_by_enumeration_small():
    P = heis(3)
    col = collector(P)
    m = max(col.element_order(x) for x in P.elements())
    assert pg.exponent(P) == m


def test_abelian_invariants():
    P = heis(3)
    G = group_of(P)
    triv = pg.subgroup_generated([], P)
    assert pg.abelian_invariants(triv) == ()
    c = pg.subgroup_generated([P.generator(2)], P)
    assert pg.abelian_invariants(c) == (3,)
    P18 = pg.build("G_(18,1)", 7)
    assert pg.abelian_invariants(pg.center(P18)) == (7, 7)
    P14 = pg.build("G_(14,3)", 5)
    assert pg.abelian_invariants(pg.center(P14)) == (25,)
    Pc = pg.build("C_p3", 3)
    G = group_of(Pc)
    whole = pg.Subgroup(group=G, indices=np.arange(27, dtype=np.int64))
    assert pg.abelian_invariants(whole) == (27,)


def test_abelian_invariants_rejects_nonabelian():
    P = heis(3)
    G = group_of(P)
    whole = pg.Subgroup(
        group=G,
        indices=np.arange(G.order, dtype=np.int64),
        gens=tuple(G.gen_index(i) for i in range(G.n)),
    )
    with pytest.raises(ValueError, match="abelian"):
        pg.abelian_invariants(whole)


# -- quotients -----------------------------------------------------------------


def test_quotient_by_trivial_is_bijective():
    P = heis(3)
    G = group_of(P)
    triv = pg.subgroup_generated([], P)
    Q = quotient(G, triv)
    assert Q.group.order == G.order
    assert np.unique(Q.proj).size == G.order


def test_quotient_heisenberg_by_center():
    P = heis(3)
    G = group_of(P)
    Q = quotient(G, G.center)
    assert Q.group.order == 9
    assert Q.group.is_abelian
    assert pg.exponent(Q.group) == 3


def test_quotient_projection_is_homomorphism():
    P = pg.build("G_(18,1)", 5)
    G = group_of(P)
    K = pg.subgroup_generated([G.element_of(1)], G)
    Q = quotient(G, K)
    rng = np.random.default_rng(7)
    xs = rng.integers(0, G.order, size=60)
    ys = rng.integers(0, G.order, size=60)
    for x, y in zip(xs, ys):
        assert Q.proj[G.mul(int(x), int(y))] == Q.group.mul(
            int(Q.proj[x]), int(Q.proj[y])
        )


def test_quotient_g18_by_central_line():
    P = pg.build("G_(18,1)", 7)
    G = group_of(P)
    # a1 is the last generator: element index 1
    K = pg.subgroup_generated([G.element_of(1)], G)
    assert K.order == 7
    Q = quotient(G, K)
    QG = Q.group
    assert QG.order == 7**5
    assert QG.center.order == 49
    assert QG.derived.order == 49
    assert (QG.center.indices == QG.derived.indices).all()


def test_quotient_kernel_is_n():
    P = pg.build("G_(19,1)", 5)
    G = group_of(P)
    D = G.derived
    Q = quotient(G, D)
    kernel = np.flatnonzero(Q.proj == Q.proj[0])
    assert (kernel == D.indices).all()


def test_quotient_rejects_non_normal():
    P = heis(3)
    G = group_of(P)
    a = pg.subgroup_generated([P.generator(0)], P)
    assert not a.is_normal
    with pytest.raises(ValueError, match="normal"):
        quotient(G, a)


def test_derived_of_quotient_is_projected_derived():
    P = pg.build("G_(17,1)", 5)
    G = group_of(P)
    pos = {g: i for i, g in enumerate(P.gens)}
    K = pg.subgroup_generated([P.generator(pos["a2"])], P)
    Q = quotient(G, K)
    lhs = set(Q.group.derived.indices.tolist())
    rhs = set(int(Q.proj[i]) for i in G.derived.indices)
    assert lhs == set(rhs)


# -- subgroup re-presentation ---------------------------------------------------


def test_subgroup_as_group_center():
    P = pg.build("G_(18,1)", 5)
    G = group_of(P)
    ZG = subgroup_as_group(G.center)
    assert ZG.group.order == G.center.order
    assert ZG.group.is_abelian
    # element map is an isomorphism onto the subgroup
    for s in range(ZG.group.order):
        for t in range(ZG.group.order):
            u = ZG.group.mul(s, t)
            assert int(ZG.to_parent[u]) == G.mul(
                int(ZG.to_parent[s]), int(ZG.to_parent[t])
            )


def test_subgroup_as_group_nonabelian():
    P = pg.build("G_(17,1)", 5)
    G = group_of(P)
    D = G.derived
    DG = subgroup_as_group(D)
    assert DG.group.order == D.order
    rng = np.random.default_rng(3)
    for _ in range(40):
        s, t = rng.integers(0, D.order, size=2)
        u = DG.group.mul(int(s), int(t))
        assert int(DG.to_parent[u]) == G.mul(int(DG.to_parent[s]), int(DG.to_parent[t]))


def test_subgroup_as_group_of_the_trivial_subgroup_is_a_value_error():
    """The last term of the lower central series is trivial; it has no pc
    generators to re-present it on, and the error names it instead of a
    parse error about a file's grammar."""
    G = group_of(pg.build("G_(17,1)", 5))
    trivial = pg.Subgroup(group=G, indices=G.lower_central_series[-1])
    assert trivial.order == 1
    with pytest.raises(ValueError, match="trivial subgroup") as info:
        subgroup_as_group(trivial)
    assert not isinstance(info.value, pg.ParseError)


# -- chain-digit index ------------------------------------------------------------

# sha256 over the corpus at p = 3 and 5, with N = Z(G), G' and every term of the
# lower central series: for each N < G the presentation text, proj and section
# (as int64 bytes) of quotient(G, N), then for each N > 1 the presentation text
# and to_parent of subgroup_as_group(N).  Pinned at the last code that peeled
# the digits one left multiplication at a time.
QUOTIENT_SUBGROUP_SHA256 = "a7188029dd8997251527d7e08389619016398be1e0eeccc82f945f51f2d10188"


def test_quotients_and_subgroup_presentations_golden_hash():
    import hashlib

    from pgclass.group import Subgroup
    from pgclass.presentation import presentation_text

    h = hashlib.sha256()
    counts = [0, 0]
    for label, entry in pg.REGISTRY.items():
        for p in (3, 5):
            if entry.min_p > p:
                continue
            G = group_of(pg.build(label, p))
            terms = [Subgroup(group=G, indices=idx) for idx in G.lower_central_series]
            for N in [G.center, G.derived] + terms:
                if N.order < G.order:
                    Q = quotient(G, N)
                    h.update(presentation_text(Q.presentation).encode())
                    h.update(Q.proj.astype(np.int64).tobytes())
                    h.update(Q.section.astype(np.int64).tobytes())
                    counts[0] += 1
                if N.order > 1:
                    S = subgroup_as_group(N)
                    h.update(presentation_text(S.presentation).encode())
                    h.update(S.to_parent.astype(np.int64).tobytes())
                    counts[1] += 1
    assert counts == [88, 88]
    assert h.hexdigest() == QUOTIENT_SUBGROUP_SHA256


def test_chain_index_rejects_repeated_normal_forms(run_optimized):
    """Under python -O, generators whose normal forms repeat (one chain
    element given twice) raise the typed error, with and without keys."""
    code = (
        "import numpy as np\n"
        "import pgclass as pg\n"
        "import pgclass.group as gr\n"
        "G = gr.group_of(pg.build('heisenberg_p3', 3))\n"
        "b = gr._chain_gens(G, G.center.indices)[0]\n"
        "for keys in (None, np.arange(G.order, dtype=np.int64)):\n"
        "    try:\n"
        "        gr._ChainIndex(G, [b, b], keys=keys)\n"
        "    except pg.InternalInconsistencyError:\n"
        "        print('typed')\n"
    )
    assert run_optimized(code).split() == ["typed", "typed"]


def test_chain_index_positions_and_digits():
    """positions inverts the normal-form listing, -1 off it, and digits
    reads the position's base-p digits back as the exponents."""
    from pgclass.group import _chain_gens, _ChainIndex

    G = group_of(pg.build("G_(17,1)", 5))
    gens = _chain_gens(G, G.derived.indices)
    index = _ChainIndex(G, gens)
    s = np.arange(index.elems.size)
    assert (index.positions(index.elems) == s).all()
    outside = np.setdiff1d(np.arange(G.order), G.derived.indices)
    assert (index.positions(outside) == -1).all()
    for pos in (0, 1, 7, int(s[-1])):
        x = 0
        for g, d in zip(gens, index.digits([pos])[0]):
            x = G.mul(x, G.pow(g, int(d)))
        assert x == int(index.elems[pos])
