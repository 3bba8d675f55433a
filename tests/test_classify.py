"""Classification predicates and the counting formulas."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import pgclass as pg
from pgclass.chartable import table_of
from pgclass.classify import PermDegree, _class_mask, is_central_type
from pgclass.group import Group, group_of


def bundle(label, p):
    P = pg.build(label, p)
    G = group_of(P)
    return G, table_of(G)


# -- per-character predicates ----------------------------------------------------


def test_linear_rows_are_central_type():
    G, T = bundle("G_(19,1)", 5)
    flags = is_central_type(T)
    assert flags.shape == (T.count,)
    for r, f in zip(T.rows, flags):
        if r.degree == 1:
            assert f


def test_heisenberg_nonlinear_central_type():
    G, T = bundle("heisenberg_p3", 3)
    assert is_central_type(T).all()


def test_g17_has_non_central_type_row():
    G, T = bundle("G_(17,1)", 5)
    flags = is_central_type(T)
    assert not all(flags)
    # the failures are nonlinear
    for r, f in zip(T.rows, flags):
        if not f:
            assert r.degree > 1


def _per_row_reference(T):
    """(degree, |Z(chi)|, central type) for every row, from exact values:
    Z(chi) is where |chi(g)|^2 = chi(1)^2, and chi is of central type when
    it vanishes off Z(chi)."""
    from test_chartable import reference_class_masks

    sizes = T.classes.sizes
    center, nonzero = reference_class_masks(T)
    return tuple((r.degree, int(sizes[c].sum()), not (n & ~c).any())
                 for r, c, n in zip(T.rows, center, nonzero))


def test_report_reads_unity_rows_by_kind():
    """classification_report enters each unity row as (1, |G|, True) by its
    kind; every entry equals a per-row reference read from exact values."""
    G, T = bundle("G_(17,1)", 5)
    want = _per_row_reference(T)
    assert not all(c for _, _, c in want)
    got = pg.classification_report(G, table=T).per_character
    assert got == want
    assert all(got[i] == (1, G.order, True) for i in range(len(T.lin_t)))


def _with_cached(T, **masks):
    """A dataclasses.replace copy of T whose cached class masks are the
    given arrays in place of the ones it would build."""
    T2 = dataclasses.replace(T)
    T2.__dict__.update(masks)
    return T2


def test_central_type_routes_disagree_on_a_tampered_center_mask():
    """A center mask that takes one more class, where the row is 0: the row
    still vanishes off it, but d^2 |Z(chi)| exceeds |G|, and both
    is_central_type and the report refuse the table."""
    G, T = bundle("heisenberg_p3", 3)
    center = T.center_masks.copy()
    center[0, np.flatnonzero(~T.nonzero_masks[0])[0]] = True
    hacked = _with_cached(T, center_masks=center)
    msg = r"^central-type criteria disagree for a degree-3 row \(vanishing=True, index=False\)$"
    with pytest.raises(pg.InternalInconsistencyError, match=msg):
        is_central_type(hacked)
    with pytest.raises(pg.InternalInconsistencyError, match=msg):
        pg.classification_report(G, table=hacked)
    assert is_central_type(T).all()


def test_camina_routes_disagree_on_a_tampered_nonzero_mask():
    """(G, Z(G)) is a Camina pair of the Heisenberg group, and its faithful
    rows vanish off Z(G).  A nonzero mask that puts one of them off Z(G)
    breaks the character route alone."""
    G, T = bundle("heisenberg_p3", 3)
    Z = G.center
    assert pg.is_camina_pair(G, Z, T)
    nonzero = T.nonzero_masks.copy()
    nonzero[0, np.flatnonzero(~Z.mask[T.classes.reps])[0]] = True
    hacked = _with_cached(T, nonzero_masks=nonzero)
    with pytest.raises(pg.InternalInconsistencyError,
                       match=r"^Camina-pair routes disagree \(conjugation=True, character=False\)$"):
        pg.is_camina_pair(G, Z, hacked)


def test_fully_ramified():
    G, T = bundle("heisenberg_p3", 3)
    Z = G.center
    triv = pg.subgroup_generated([], G)
    whole = pg.Subgroup(group=G, indices=np.arange(G.order, dtype=np.int64))
    nl = np.array([r.degree > 1 for r in T.rows])
    assert pg.fully_ramified(T, whole).shape == (T.count,)
    assert pg.fully_ramified(T, whole).all()
    assert pg.fully_ramified(T, Z)[nl].all()
    assert not pg.fully_ramified(T, triv)[nl].any()


# -- group predicates --------------------------------------------------------------


def test_gvz_abelian_true():
    G, T = bundle("E_p3", 3)
    assert pg.is_gvz(T)


def test_gvz_verdicts():
    assert pg.is_gvz(bundle("G_(18,1)", 5)[1])
    assert not pg.is_gvz(bundle("G_(17,1)", 5)[1])


def test_flat_oracle_small():
    assert pg.is_flat(pg.build("E_p2", 3))
    assert pg.is_flat(pg.build("heisenberg_p3", 3))
    assert pg.is_flat(pg.build("G_(18,1)", 5))
    assert not pg.is_flat(pg.build("G_(19,1)", 5))


def _flat_by_closure(G):
    """The definition: |<g^-1 cl(g)>| = |cl(g)| for every class rep g."""
    cls = G.conjugacy_classes
    for c, g in enumerate(cls.reps.tolist()):
        commset = G.lmul_array(cls.members[c], G.inv(g))
        if G.subgroup_closure(commset).size != int(cls.sizes[c]):
            return False
    return True


def test_flat_matches_closure_definition_on_corpus():
    nonflat = []
    for p in (3, 5):
        for label, entry in pg.REGISTRY.items():
            if entry.min_p > p or (entry.max_p is not None and entry.max_p < p):
                continue
            G = group_of(pg.build(label, p))
            want = _flat_by_closure(G)
            assert pg.is_flat(G) == want, (label, p)
            if not want:
                nonflat.append((label, p))
    assert nonflat == [("G_(17,1)", 5), ("G_(19,1)", 5), ("G_(20,1)", 5)]


def test_report_aborts_when_the_flat_route_disagrees(monkeypatch):
    """Both routes run on every report: a wrong flat verdict must abort it."""
    import pgclass.classify as classify_mod

    real = classify_mod.is_flat
    for label, p in [("heisenberg_p3", 3), ("G_(17,1)", 5)]:
        G, T = bundle(label, p)
        monkeypatch.setattr(classify_mod, "is_flat", lambda P: not real(P))
        with pytest.raises(pg.InternalInconsistencyError, match="disagree"):
            pg.classification_report(G, table=T)
        monkeypatch.setattr(classify_mod, "is_flat", real)
        assert pg.classification_report(G, table=T).is_flat == real(G)


def test_flat_matches_gvz_everywhere_sampled():
    for label, p in [
        ("heisenberg_p3", 5),
        ("extraspecial_p3_exp_p2", 3),
        ("heisenberg_x_heisenberg", 3),
        ("G_(17,1)", 5),
        ("G_(20,1)", 5),
        ("C_p3", 7),
    ]:
        G, T = bundle(label, p)
        assert pg.is_flat(G) == pg.is_gvz(T), (label, p)


def test_nested_verdicts():
    assert pg.is_nested(bundle("heisenberg_p3", 3)[1])
    assert pg.is_nested(bundle("G_(14,3)", 5)[1])
    assert not pg.is_nested(bundle("G_(12,1)", 5)[1])
    assert not pg.is_nested(bundle("heisenberg_x_heisenberg", 3)[1])


def test_center_chain_flag_matches_is_nested():
    # the report's chain flag is the is_nested walk; both must agree with
    # pairwise inclusion of the distinct centers Z(chi)
    for label, entry in pg.REGISTRY.items():
        if entry.min_p > 3 or (entry.max_p is not None and entry.max_p < 3):
            continue
        G, T = bundle(label, 3)
        rep = pg.classification_report(G, table=T)
        ones = np.ones((1, T.count), dtype=bool)  # Z(chi) = G for a linear row
        masks = {m.tobytes(): m for m in np.vstack([ones, T.center_masks])}.values()
        pairwise = all(
            not (a & ~b).any() or not (b & ~a).any() for a in masks for b in masks
        )
        assert rep.center_chain_is_chain == pg.is_nested(T) == pairwise, label


def test_vz_verdicts():
    assert pg.is_vz(bundle("heisenberg_p3", 3)[1])[0]
    assert pg.is_vz(bundle("extraspecial_p5_exp_p", 3)[1])[0]
    ok, note = pg.is_vz(bundle("G_(14,3)", 5)[1])
    assert not ok and note is None
    ok, note = pg.is_vz(bundle("E_p2", 3)[1])
    assert not ok and "abelian" in note


def test_camina_pair_heisenberg():
    G, T = bundle("heisenberg_p3", 3)
    assert pg.is_camina_pair(G, G.center, T)
    assert pg.is_camina_pair(G, G.derived, T)  # same subgroup here


def test_camina_pair_rejected_for_improper():
    G, T = bundle("heisenberg_p3", 3)
    triv = pg.subgroup_generated([], G)
    with pytest.raises(ValueError):
        pg.is_camina_pair(G, triv, T)


def test_camina_pair_false_for_product():
    G, T = bundle("heisenberg_x_heisenberg", 3)
    assert not pg.is_camina_pair(G, G.center, T)


# The Heisenberg group over F_9 (i^2 = -1): x1, x2 and y1, y2 are the
# coordinates 1, i of two F_9 lines, [y_j, x_i] = x_i y_j in F_9 lands in the
# center <z1, z2> = F_9, and every noncentral class is a whole coset gZ.
# So (G, Z(G)) is a Camina pair whose Z(G) needs two generators.
HEISENBERG_F9 = """group heisenberg_f9 prime 3
gens x1 x2 y1 y2 z1 z2
comm [y1,x1] = z1
comm [y2,x1] = z2
comm [y1,x2] = z2
comm [y2,x2] = z1^2
"""


def _camina_by_cosets(G, N):
    """The definition: gN lies in cl(g) for every class rep g outside N."""
    cls = G.conjugacy_classes
    return all((cls.classof[G.rmul_array(N.indices, g)] == c).all()
               for c, g in enumerate(cls.reps.tolist()) if not N.mask[g])


def test_camina_pair_matches_coset_definition():
    f9 = group_of(pg.parse_presentation(HEISENBERG_F9))
    cases = [
        (bundle("heisenberg_p3", 3), "center", True),
        (bundle("extraspecial_p5_exp_p", 5), "center", True),
        ((f9, table_of(f9)), "center", True),
        (bundle("heisenberg_x_heisenberg", 3), "center", False),
        (bundle("G_(19,1)", 5), "center", False),
        (bundle("heisenberg_x_Cp", 3), "center", False),    # x c_l ~ x, x c1_r is not
        (bundle("heisenberg_x_Cp", 3), "derived", False),   # G' < Z(G)
        (bundle("G_(18,1)", 5), "derived", False),          # Z(G) < G'
    ]
    for (G, T), which, want in cases:
        N = getattr(G, which)
        assert N.gens and (which == "center" or N != G.center)
        bare = pg.Subgroup(group=G, indices=N.indices)  # no gens: chain gens are used
        where = (G.pres.name, G.p, which)
        assert _camina_by_cosets(G, N) == want, where
        assert pg.is_camina_pair(G, N, T) == want, where
        assert pg.is_camina_pair(G, bare, T) == want, where


def test_gen_camina_pair():
    G, T = bundle("heisenberg_p3", 3)
    assert pg.is_gen_camina_pair(G, G.center, T)
    whole = pg.Subgroup(group=G, indices=np.arange(G.order, dtype=np.int64))
    assert pg.is_gen_camina_pair(G, whole, T)
    G18, T18 = bundle("G_(18,1)", 5)
    assert not pg.is_gen_camina_pair(G18, G18.center, T18)


# -- structural suites -----------------------------------------------------------


def test_check_special_degree():
    G, T = bundle("heisenberg_p3", 3)
    assert pg.check_special_degree(T) == []
    G, T = bundle("G_(18,1)", 5)
    assert pg.check_special_degree(T) == []
    G, T = bundle("E_p3", 3)
    assert pg.check_special_degree(T) == []  # vacuous


def test_check_lift_equivalence_trivial_and_center():
    G, _ = bundle("heisenberg_p3", 3)
    triv = pg.subgroup_generated([], G)
    assert pg.check_lift_equivalence(G, triv) == []
    assert pg.check_lift_equivalence(G, G.center) == []


def test_check_lift_equivalence_g18():
    G, _ = bundle("G_(18,1)", 5)
    K = pg.subgroup_generated([G.element_of(1)], G)
    assert pg.check_lift_equivalence(G, K) == []


def test_check_lift_equivalence_across_exponents():
    """Rows are matched on value strings, which must agree although the
    parent and the quotient tables are over different exponents."""
    from pgclass.group import quotient

    G, T = bundle("G_(14,3)", 5)
    TQ = table_of(quotient(G, G.center).group)
    assert (T.exponent, TQ.exponent) == (625, 25)
    assert pg.check_lift_equivalence(G, G.center) == []


def _change_one_entry(T, kind):
    """A copy of T whose first row of the given kind, the first row of its
    block, is changed, and the position of that row: a central-type row at
    its last nonzero class, a linear row at the exponent of the last pc
    generator, which changes its value at that generator's class."""
    i = next(i for i, r in enumerate(T.rows) if r.kind == kind)
    e = T.exponent
    if kind == "unity":
        lin_t = np.array(T.lin_t)
        lin_t[0, -1] = (lin_t[0, -1] + 1) % e
        return dataclasses.replace(T, lin_t=lin_t, verification={}), i
    cexp = np.array(T.cexp)
    j = int(np.flatnonzero(cexp[0] >= 0)[-1])
    cexp[0, j] = (cexp[0, j] + 1) % e
    return dataclasses.replace(T, cexp=cexp, verification={}), i


@pytest.mark.parametrize("kind", ["unity", "central"])
def test_check_lift_equivalence_rejects_changed_quotient_row(kind, monkeypatch):
    """A quotient table with one row changed at one class has a row that
    lifts to no parent row.  The real quotient table stays in the table
    cache, so the changed table is handed out by a wrapper around table_of."""
    import pgclass.chartable as chartable_mod
    from pgclass.errors import InternalInconsistencyError

    G, _ = bundle("G_(18,1)", 5)
    K = pg.subgroup_generated([G.element_of(1)], G)
    real_table_of = chartable_mod.table_of
    changed = []

    def table_of_changed(P):
        T = real_table_of(P)
        if group_of(P) is G:
            return T
        hacked, i = _change_one_entry(T, kind)
        assert any(T.value(i, j) != hacked.value(i, j) for j in range(T.count))
        changed.append(i)
        return hacked

    monkeypatch.setattr(chartable_mod, "table_of", table_of_changed)
    with pytest.raises(InternalInconsistencyError, match="no lift in the parent"):
        pg.check_lift_equivalence(G, K)
    assert len(changed) == 1


def test_check_lift_equivalence_computes_the_quotient_table_once(monkeypatch):
    """quotient() builds the factor group through group_of, so equal
    quotient presentations share one Group and one cached table: three
    calls add one table, the quotient's, to a cache that held G's."""
    import pgclass.chartable as chartable_mod

    G, T = bundle("G_(18,1)", 5)
    K = pg.subgroup_generated([G.element_of(1)], G)
    monkeypatch.setattr(chartable_mod, "_table_cache", {G: T})
    for _ in range(3):
        assert pg.check_lift_equivalence(G, K) == []
    assert len(chartable_mod._table_cache) == 2


def test_check_nil_le_cd():
    G, T = bundle("heisenberg_p3", 3)
    assert pg.check_nil_le_cd(G, T) == "holds"
    G, T = bundle("G_(14,3)", 5)
    assert pg.check_nil_le_cd(G, T) == "holds"
    G, T = bundle("G_(17,1)", 5)
    assert pg.check_nil_le_cd(G, T) == "inapplicable"


def test_perm_degree():
    G, T = bundle("heisenberg_p3", 3)
    pd = pg.gvz_min_perm_degree(G, T)
    assert pd.exponent == Fraction(2) and pd.value == 9
    G, T = bundle("extraspecial_p5_exp_p", 5)
    pd = pg.gvz_min_perm_degree(G, T)
    assert pd.exponent == Fraction(3) and pd.value == 125
    G, T = bundle("C_p3", 3)
    pd = pg.gvz_min_perm_degree(G, T)
    assert pd.value == 27


def test_perm_degree_half_integer_flag():
    assert PermDegree(5, Fraction(7, 2), False, None).exponent == Fraction(7, 2)
    G, T = bundle("heisenberg_x_heisenberg", 3)
    with pytest.raises(ValueError, match="cyclic"):
        pg.gvz_min_perm_degree(G, T)
    G, T = bundle("G_(17,1)", 5)
    with pytest.raises(ValueError, match="central type"):
        pg.gvz_min_perm_degree(G, T)


# -- counting formulas (expected values frozen by hand evaluation) ----------------


def test_counting_p6():
    assert pg.counting_formulas(5, 6).gvz_count == 270
    assert pg.counting_formulas(5, 6).nested_count == 156
    assert pg.counting_formulas(7, 6).gvz_count == 334
    assert pg.counting_formulas(7, 6).nested_count == 202
    # p = 11: gcd(10,3) = 1, gcd(10,4) = 2: (363 + 308 + 315 + 2 + 4)/2 = 496
    assert pg.counting_formulas(11, 6).gvz_count == 496
    assert pg.counting_formulas(11, 6).nested_count == (363 + 110 + 187) // 2


def test_counting_p5():
    for p in (3, 5, 7):
        c = pg.counting_formulas(p, 5)
        assert c.gvz_count == p + 31
        assert c.nested_count == 23


def test_counting_rejects_bad_input():
    with pytest.raises(ValueError):
        pg.counting_formulas(3, 6)
    with pytest.raises(ValueError):
        pg.counting_formulas(4, 5)
    with pytest.raises(ValueError):
        pg.counting_formulas(2, 5)
    with pytest.raises(ValueError):
        pg.counting_formulas(5, 4)


# -- reports -----------------------------------------------------------------------


def test_report_heisenberg():
    rep = pg.classification_report(pg.build("heisenberg_p3", 3))
    assert rep.is_gvz and rep.is_nested and rep.is_vz and rep.is_flat
    assert rep.cd == {1: 9, 3: 2}
    assert rep.center_chain == (3, 27)
    assert rep.camina_pair_with_center
    assert rep.gen_camina_pair_with_center
    assert rep.nilpotency_class == 2


def test_report_invariants_enforced():
    for label, p in [("G_(12,1)", 5), ("G_(20,1)", 5), ("E_p2", 7)]:
        rep = pg.classification_report(pg.build(label, p))
        assert rep.is_gvz == rep.is_flat
        if rep.is_vz:
            assert rep.is_nested
        if rep.is_nested:
            assert rep.is_gvz


def test_report_json_round_trip():
    import json

    rep = pg.classification_report(pg.build("heisenberg_p3", 3))
    js = json.loads(json.dumps(rep.to_json(), sort_keys=True))
    assert js["gvz"] is True and js["vz"] is True
    assert js["cd"] == {"1": 9, "3": 2}
    assert len(js["per_character"]) == 11


def test_report_rejects_even_prime():
    P = pg.parse_presentation("group g prime 2\ngens a\n")
    with pytest.raises(ValueError, match="odd"):
        pg.classification_report(P)


def test_class_mask_requires_class_union():
    G, T = bundle("heisenberg_p3", 3)
    a = pg.subgroup_generated([G.element_of(G.gen_index(0))], G)
    with pytest.raises(pg.InternalInconsistencyError, match="union of classes"):
        _class_mask(a, T)


def test_class_mask_check_survives_optimize(run_optimized):
    """Under python -O the class-union check still raises its typed error."""
    code = (
        "import pgclass as pg\n"
        "from pgclass.chartable import table_of\n"
        "from pgclass.classify import _class_mask\n"
        "from pgclass.group import group_of\n"
        "G = group_of(pg.build('heisenberg_p3', 3))\n"
        "a = pg.subgroup_generated([G.element_of(G.gen_index(0))], G)\n"
        "try:\n"
        "    _class_mask(a, table_of(G))\n"
        "except pg.InternalInconsistencyError:\n"
        "    print('typed')\n"
    )
    assert run_optimized(code).strip() == "typed"


def test_fully_ramified_requires_normal_subgroup():
    G, T = bundle("heisenberg_p3", 3)
    a = pg.subgroup_generated([G.element_of(G.gen_index(0))], G)
    with pytest.raises(ValueError, match="normal"):
        pg.fully_ramified(T, a)


def _held_array_bytes(G) -> int:
    """The bytes of the numpy arrays reachable from G's attributes, through
    lists, tuples, dicts and objects' attributes, each array counted once."""
    seen, total, stack = set(), 0, list(vars(G).values())
    while stack:
        x = stack.pop()
        if id(x) in seen or x is G:
            continue
        seen.add(id(x))
        if isinstance(x, np.ndarray):
            total += x.nbytes
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif hasattr(x, "__dict__"):
            stack.extend(vars(x).values())
    return total


def test_classified_group_holds_only_its_tables():
    """After a report, a fresh group holds its n right tables and its
    inverse table, of |G| int32 each, and the int64 classes (classof and
    the members), and little else: no left or conjugation table, no digit
    table and no cached lower central series.  The left and conjugation
    tables, formed on request, are int32 too."""
    G = Group(pg.build("G_(19,1)", 7))
    pg.classification_report(G)
    assert G.nilpotency_class == 3
    assert "left_tables" not in vars(G) and "conj_tables" not in vars(G)
    assert _held_array_bytes(G) <= (G.n + 7) * G.order * 4
    for tab in [*G.right_tables, *G.left_tables, *G.conj_tables, G.inverse_table]:
        assert tab.dtype == np.int32
