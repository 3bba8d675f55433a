"""Builders, fingerprints, and the brute-force isoclinism search."""

import numpy as np
import pytest

import pgclass as pg
from pgclass.corpus import direct_product, fingerprint, isoclinic_brute
from pgclass.group import group_of


def test_registry_covers_expected_labels():
    labels = set(pg.REGISTRY)
    assert {"heisenberg_p3", "extraspecial_p3_exp_p2", "extraspecial_p5_exp_p",
            "G_(12,1)", "G_(14,3)", "G_(17,1)", "G_(18,1)", "G_(19,1)",
            "G_(20,1)", "C_p", "E_p2", "heisenberg_x_Cp"} <= labels


def test_build_orders_and_consistency():
    for label, entry in pg.REGISTRY.items():
        p = max(3, entry.min_p)
        P = pg.build(label, p)
        assert P.order == p**entry.order_exp, label
        assert pg.check_consistency(P).consistent, label


def test_build_heisenberg_shortcut():
    P = pg.build("heisenberg_p3", 3)
    assert P.order == 27
    assert pg.nilpotency_class(P) == 2


def test_build_g12_is_product_of_extraspecials():
    P = pg.build("G_(12,1)", 7)
    G = group_of(P)
    assert G.order == 7**6
    assert G.center.order == 49
    assert G.derived.order == 49
    assert pg.exponent(G) == 7
    # isomorphic to the explicit product (same fingerprint core + verdicts)
    Q = pg.build("heisenberg_x_heisenberg", 7)
    assert fingerprint(P).core() == fingerprint(Q).core()


def test_build_g14_3_two_generated_exponent():
    P = pg.build("G_(14,3)", 7)
    G = group_of(P)
    assert G.order == 7**6
    assert pg.exponent(G) == 7**4
    # two-generator: abelianization has rank 2
    from pgclass.corpus import quotient_abelianization
    from pgclass.group import abelian_invariants

    inv = abelian_invariants(quotient_abelianization(G))
    assert len(inv) == 2


def test_build_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown"):
        pg.build("nope", 5)
    with pytest.raises(ValueError, match="odd prime"):
        pg.build("heisenberg_p3", 4)
    with pytest.raises(ValueError, match="odd prime"):
        pg.build("heisenberg_p3", 2)
    with pytest.raises(ValueError, match="p >="):
        pg.build("G_(17,1)", 3)


def test_entry_covers_its_prime_range():
    import dataclasses

    entry = pg.REGISTRY["G_(17,1)"]
    assert [entry.covers(p) for p in (3, 5, 7, 11)] == [False, True, True, True]
    capped = dataclasses.replace(entry, max_p=5)
    assert [capped.covers(p) for p in (3, 5, 7)] == [False, True, False]


def test_direct_product_builder():
    A = pg.build("heisenberg_p3", 3)
    B = pg.build("C_p2", 3)
    P = direct_product(A, B, "hxc2")
    G = group_of(P)
    assert G.order == 27 * 9
    assert pg.check_consistency(P).consistent
    assert G.center.order == 3 * 9


# -- fingerprints ----------------------------------------------------------------


def test_fingerprint_abelian():
    fp = fingerprint(pg.build("E_p3", 3))
    assert fp.nilpotency_class == 1
    assert fp.derived_order == 1
    assert fp.cd == (1,)
    assert fp.abelianization == (3, 3, 3)


def test_fingerprint_g18():
    fp = fingerprint(pg.build("G_(18,1)", 7))
    assert fp.nilpotency_class == 3
    assert fp.center_order == 49
    assert fp.derived_order == 343
    assert fp.cd == (1, 7, 49)
    assert fp.derived_invariants == (7, 7, 7)


def test_fingerprint_core_isoclinism_stable():
    a = fingerprint(pg.build("heisenberg_p3", 3))
    b = fingerprint(pg.build("heisenberg_x_Cp", 3))
    assert a.core() == b.core()
    assert a.order != b.order  # order itself is not part of the core


def test_fingerprint_distinguishes():
    a = fingerprint(pg.build("heisenberg_p3", 3))
    b = fingerprint(pg.build("E_p3", 3))
    assert a.core() != b.core()


# -- isoclinism -------------------------------------------------------------------


def test_isoclinic_self():
    G = group_of(pg.build("heisenberg_p3", 3))
    assert isoclinic_brute(G, G) is True


def test_isoclinic_heisenberg_vs_product_with_line():
    A = group_of(pg.build("heisenberg_p3", 3))
    B = group_of(pg.build("heisenberg_x_Cp", 3))
    assert isoclinic_brute(A, B) is True


def test_isoclinic_pruned_immediately():
    A = group_of(pg.build("heisenberg_p3", 3))
    B = group_of(pg.build("E_p3", 3))
    assert isoclinic_brute(A, B) is False


def test_isoclinic_distinguishes_extraspecial_exponents_correctly():
    # the two extraspecial groups of order p^3 are isoclinic
    A = group_of(pg.build("heisenberg_p3", 3))
    B = group_of(pg.build("extraspecial_p3_exp_p2", 3))
    assert isoclinic_brute(A, B) is True


def test_isoclinic_budget_exhaustion_returns_unknown():
    A = group_of(pg.build("heisenberg_x_heisenberg", 3))
    B = group_of(pg.build("G_(12,1)", 5))
    # different |G'| sizes prune instantly despite the tiny budget
    assert isoclinic_brute(A, B, budget=10) is False
    C = group_of(pg.build("heisenberg_p3", 3))
    D = group_of(pg.build("heisenberg_x_Cp", 3))
    assert isoclinic_brute(C, D, budget=3) is None


def test_isoclinic_invariance_of_verdicts():
    A = pg.build("heisenberg_p3", 3)
    B = pg.build("heisenberg_x_Cp", 3)
    assert isoclinic_brute(group_of(A), group_of(B)) is True
    ra, rb = pg.classification_report(A), pg.classification_report(B)
    assert ra.is_gvz == rb.is_gvz
    assert ra.is_nested == rb.is_nested


def test_corpus_guards_survive_optimize(run_optimized):
    """Under python -O the corpus builders still reject bad input with
    ValueError, a perfect group still raises InternalInconsistencyError
    in quotient_abelianization, and an exhausted isoclinism budget still
    returns None."""
    code = """
import pgclass as pg
from pgclass.corpus import direct_product, isoclinic_brute, quotient_abelianization

for args in [("nope", 5), ("heisenberg_p3", 4), ("G_(17,1)", 3)]:
    try:
        pg.build(*args)
    except ValueError:
        print("build")
try:
    direct_product(pg.build("C_p", 3), pg.build("C_p", 5), "mixed")
except ValueError:
    print("product")
G = pg.Group(pg.build("heisenberg_p3", 3))
G.derived = pg.subgroup_generated([G.gen_index(0), G.gen_index(1)], G)
try:
    quotient_abelianization(G)
except pg.InternalInconsistencyError:
    print("perfect")
C = pg.group_of(pg.build("heisenberg_p3", 3))
D = pg.group_of(pg.build("heisenberg_x_Cp", 3))
print(isoclinic_brute(C, D, budget=3))
"""
    assert run_optimized(code).split() == [
        "build", "build", "build", "product", "perfect", "None"]
