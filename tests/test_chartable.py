"""Character table machinery, cross-checked against independent oracles."""

import numpy as np
import pytest

import pgclass as pg
from pgclass import Cyclotomic, TableVerificationError
from pgclass.chartable import class_constants, table_of
from pgclass.group import group_of
from pgclass.presentation import collector


def table(label, p):
    return table_of(pg.build(label, p))


# -- structure constants (explicit oracle) -------------------------------------


def naive_class_constants(P):
    """Brute-force product counting over all pairs."""
    G = group_of(P)
    cls = G.conjugacy_classes
    k = cls.count
    a = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for x in cls.members[i]:
            for j in range(k):
                for y in cls.members[j]:
                    prod = G.mul(int(x), int(y))
                    for kk in range(k):
                        if prod == cls.reps[kk]:
                            a[i, j, kk] += 1
    return a


def test_class_constants_match_brute_force():
    P = pg.build("heisenberg_p3", 3)
    C = group_of(P).conjugacy_classes
    assert (class_constants(C) == naive_class_constants(P)).all()


def test_class_constants_identity_row():
    C = group_of(pg.build("extraspecial_p3_exp_p2", 3)).conjugacy_classes
    a = class_constants(C)
    k = C.count
    assert (a[0] == np.eye(k, dtype=np.int64)).all()


def test_class_constants_abelian():
    P = pg.build("C_p2", 3)
    G = group_of(P)
    C = G.conjugacy_classes
    a = class_constants(C)
    for i in range(9):
        for j in range(9):
            prod = G.mul(int(C.reps[i]), int(C.reps[j]))
            for kk in range(9):
                assert a[i, j, kk] == (1 if prod == C.reps[kk] else 0)


def test_class_constants_sum_rule_heisenberg():
    C = group_of(pg.build("heisenberg_p3", 3)).conjugacy_classes
    a = class_constants(C)
    sizes = C.sizes
    lhs = (a * sizes[None, None, :]).sum(axis=2)
    assert (lhs == np.outer(sizes, sizes)).all()



@pytest.mark.parametrize("label", ["heisenberg_x_heisenberg", "extraspecial_p5_exp_p"])
def test_combination_rows_match_structure_constants(label):
    """The splitting rows sum_i w_i A_i[r, :] built by right multiplication
    agree with the explicit structure constants a[i][r][:] mod q."""
    from pgclass.chartable import _combination_rows, _invmod_arr
    from pgclass.modular import find_aux_prime

    G = group_of(pg.build(label, 3))
    cls = G.conjugacy_classes
    q = find_aux_prime(G.exponent, G.order)
    rng = np.random.default_rng(20)
    central = np.flatnonzero(cls.sizes == 1)
    noncentral = np.flatnonzero(cls.sizes > 1)
    pool = [int(i) for i in np.sort(rng.choice(cls.count, size=16, replace=False))]
    weights = rng.integers(1, q, size=len(pool))
    rows = np.unique(np.concatenate([rng.choice(central, size=2, replace=False),
                                     rng.choice(noncentral, size=5, replace=False)]))
    a = class_constants(cls)
    want = np.einsum("i,irc->rc", weights, a[pool][:, rows, :]) % q
    got = _combination_rows(G, cls, rows, pool, weights, q, _invmod_arr(cls.sizes, q))
    assert (got == want).all()
    # the size ratio |K_r| / |K_c| is not 1 on entries that count
    assert (want[cls.sizes[rows][:, None] != cls.sizes[None, :]] != 0).any()


# -- small explicit tables ------------------------------------------------------


def test_cyclic_three_table():
    T = table("C_p", 3)
    assert T.degrees() == [1, 1, 1]
    vals = {tuple(str(T.value(i, j)) for j in range(3)) for i in range(3)}
    assert ("1", "1", "1") in vals
    z, z2 = Cyclotomic.root(3), Cyclotomic.root(3, 2)
    got = {tuple(T.value(i, j) for j in range(3)) for i in range(3)}
    one = Cyclotomic.rational(1)
    assert (one, z, z2) in got and (one, z2, z) in got


def test_heisenberg_degrees_from_sum_rule():
    # 9 linear rows from |G/G'|; the rest forced by sum d^2 = 27
    T = table("heisenberg_p3", 3)
    assert sorted(T.degrees()) == [1] * 9 + [3, 3]
    assert sum(d * d for d in T.degrees()) == 27


def test_heisenberg_nonlinear_values():
    T = table("heisenberg_p3", 3)
    G = T.group
    zmask = G.center.mask[T.classes.reps]
    for r in T.rows:
        if r.degree == 1:
            continue
        # vanishes off the center, value 3*zeta on the two nontrivial
        # central classes
        assert not (r.nonzero_mask & ~zmask).any()
        for j in np.flatnonzero(zmask):
            v = r.value(int(j))
            if j == 0:
                assert v.equals_rational(3)
            else:
                assert v.abs_squared().equals_rational(9)


def test_g18_p5_cd():
    T = table("G_(18,1)", 5)
    assert T.cd_set() == (1, 5, 25)


def test_row_count_equals_class_count():
    for label, p in [("heisenberg_p3", 5), ("C_p3", 3), ("G_(19,1)", 5)]:
        T = table(label, p)
        assert T.count == T.classes.count


def test_second_orthogonality_vs_centralizers():
    """Independent exact check: sum_chi |chi(g)|^2 = |C_G(g)| via Cyclotomic
    arithmetic, against the collector-backed centralizer order."""
    P = pg.build("heisenberg_p3", 3)
    T = table_of(P)
    G = T.group
    col = collector(P)
    els = list(P.elements())
    for j in range(T.count):
        acc = Cyclotomic.zero()
        for r in T.rows:
            acc = acc + r.value(j).abs_squared()
        rep = G.element_of(int(T.classes.reps[j]))
        cent = sum(
            1 for x in els if col.multiply(rep, x) == col.multiply(x, rep)
        )
        assert acc.equals_rational(cent)


def test_first_orthogonality_direct_small():
    T = table("extraspecial_p3_exp_p2", 3)
    k = T.count
    sizes = T.classes.sizes
    for a in range(k):
        for b in range(a, k):
            acc = Cyclotomic.zero()
            for j in range(k):
                acc = acc + int(sizes[j]) * (T.value(a, j) * T.value(b, j).conjugate())
            expect = T.group.order if a == b else 0
            assert acc.equals_rational(expect), (a, b)


def test_degrees_divide_central_quotient():
    for label, p in [("G_(18,1)", 5), ("G_(17,1)", 5), ("heisenberg_x_heisenberg", 3)]:
        T = table(label, p)
        bound = T.group.order // T.group.center.order
        for d in T.degrees():
            assert bound % (d * d) == 0


def test_linear_row_count():
    for label, p in [("G_(14,3)", 5), ("G_(20,1)", 5), ("E_p3", 3)]:
        T = table(label, p)
        lin = sum(1 for r in T.rows if r.degree == 1)
        assert lin == T.group.order // T.group.derived.order


def test_character_kernel_and_center():
    T = table("heisenberg_p3", 3)
    G = T.group
    for r in T.rows:
        ker = pg.character_kernel(r, T)
        cen = pg.character_center(r, T)
        assert ker.is_normal and cen.is_normal
        assert cen.mask[ker.indices].all()
        if r.degree == 1:
            assert cen.order == 27
        else:
            # nonlinear rows of an extraspecial group are faithful
            assert ker.order == 1
            assert cen.order == 3


def test_trivial_character_kernel_is_whole_group():
    T = table("G_(18,1)", 5)
    triv = [r for r in T.rows if r.degree == 1 and r.kernel_mask.all()]
    assert len(triv) == 1
    assert pg.character_kernel(triv[0], T).order == T.group.order


def test_table_json_shape():
    T = table("heisenberg_p3", 3)
    js = T.to_json()
    assert len(js["classes"]) == 11 and len(js["rows"]) == 11
    assert {"degree", "values"} <= set(js["rows"][0])
    assert js["rows"][0]["values"][0] == "1"


def test_table_determinism_across_recomputation():
    P = pg.build("G_(19,1)", 5)
    T1 = pg.compute_table(P)
    T2 = pg.compute_table(P)
    assert [r.degree for r in T1.rows] == [r.degree for r in T2.rows]
    for a, b in zip(T1.rows, T2.rows):
        assert a.kind == b.kind
        for j in range(0, T1.count, 37):
            assert a.value(j) == b.value(j)


def test_exponent_p4_table_uses_big_field():
    T = table("G_(14,3)", 5)
    assert T.exponent == 5**4
    assert (T.field_prime - 1) % T.exponent == 0
    assert T.field_prime ** 2 > 4 * T.group.order


def test_aux_prime_rule():
    from pgclass.modular import find_aux_prime

    assert find_aux_prime(3, 27) == 13       # > 2*sqrt(27) ~ 10.4, = 1 mod 3
    assert find_aux_prime(7, 7**6) == 701    # > 686, = 1 mod 7
    assert find_aux_prime(2401, 7**6) == 14407


def test_verification_failure_is_loud():
    T = table("heisenberg_p3", 3)
    from pgclass.chartable import _verify_table

    hacked = pg.CharacterTable(
        group=T.group,
        classes=T.classes,
        rows=T.rows[:-1] + [T.rows[0]],  # duplicate a row
        field_prime=T.field_prime,
        exponent=T.exponent,
    )
    with pytest.raises(TableVerificationError):
        _verify_table(hacked)


def test_splitting_rank_loss_is_typed(monkeypatch):
    """The splitting guards raise TableVerificationError, which survives
    python -O and maps to CLI exit code 2."""
    import pgclass.modular as modular
    from pgclass.chartable import _rref_with_pivots

    rref_mod = modular.rref_mod

    def drop_pivot(M, q):
        R, piv = rref_mod(M, q)
        return R, piv[:-1]

    monkeypatch.setattr(modular, "rref_mod", drop_pivot)
    with pytest.raises(TableVerificationError, match="lost rank"):
        _rref_with_pivots(np.eye(3, dtype=np.int64), 13)
