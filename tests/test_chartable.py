"""Character table machinery, cross-checked against independent oracles."""

import dataclasses
import hashlib
import json
import math
import time
from collections import Counter

import numpy as np
import pytest

import pgclass as pg
from pgclass import Cyclotomic, TableVerificationError
from pgclass.chartable import _row_keys, table_of
from pgclass.group import abelian_invariants, group_of
from pgclass.presentation import collector, is_prime, parse_presentation


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


def class_constants(C):
    """Class-algebra structure constants a[i][j][k], the number of pairs
    (x, y) in K_i x K_j with x y = rep_k, from one right multiplication
    of K_i^-1 by each rep_k: y = x^-1 rep_k.  The identity
    sum_k a[i][j][k] |K_k| = |K_i| |K_j| is checked."""
    G = C.group
    k = C.count
    assert k <= 160, "explicit structure constants are limited to small groups"
    inv = G.inverse_table
    a = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        Xi = inv[C.members[i]]
        for kk in range(k):
            ys = G.rmul_array(Xi.copy(), int(C.reps[kk]))
            a[i, :, kk] += np.bincount(C.classof[ys], minlength=k)
    sizes = C.sizes
    assert ((a * sizes[None, None, :]).sum(axis=2) == np.outer(sizes, sizes)).all()
    return a


def row_mod_q(r, q, zpow):
    """Row r reduced mod q at zeta_e -> zpow[1]: d zpow[t] at each exponent
    t of a unity or central row (0 at -1), and zpow @ mults for a dense
    row."""
    if r.kind == "dense":
        return zpow @ r.mults.astype(np.int64) % q
    return r.degree * np.append(zpow, 0)[r.texp] % q


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
    from pgclass.chartable import _combination_rows
    from pgclass.modular import _invmod_arr, find_aux_prime

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
    # the non-linear rows vanish off the center
    assert len(T.nonzero_masks) == 2
    assert not (T.nonzero_masks & ~zmask).any()
    for r in T.rows:
        if r.degree == 1:
            continue
        # value 3*zeta on the two nontrivial central classes
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
    sizes = T.classes.sizes
    kernels = T.kernel_masks(np.arange(T.count))
    assert kernels.shape == (T.count, T.count) and kernels.dtype == bool
    # Z(chi) = G for a linear row
    centers = [np.ones(T.count, dtype=bool)] * len(T.lin_t) + list(T.center_masks)
    for r, kernel, center in zip(T.rows, kernels, centers):
        ker, cen = int(sizes[kernel].sum()), int(sizes[center].sum())
        assert (center | ~kernel).all()
        if r.degree == 1:
            assert cen == 27
        else:
            # nonlinear rows of an extraspecial group are faithful
            assert ker == 1
            assert cen == 3


def test_trivial_character_kernel_is_whole_group():
    T = table("G_(18,1)", 5)
    kernels = T.kernel_masks(np.arange(T.count))
    triv = [i for i, d in enumerate(T.degrees()) if d == 1 and kernels[i].all()]
    assert len(triv) == 1
    assert int(T.classes.sizes[kernels[triv[0]]].sum()) == T.group.order


def test_kernel_masks_match_exact_values():
    """The kernel is exactly where chi(g) = chi(1), on a table with unity,
    central-type and dense rows; the classes may come as an index array
    or a class mask, in any order."""
    T = table("G_(20,1)", 5)
    assert {r.kind for r in T.rows} == {"unity", "central", "dense"}
    want = np.array(reference_entries(T, lambda v, d: v.equals_rational(d)).tolist(), dtype=bool)
    assert np.array_equal(T.kernel_masks(np.arange(T.count)), want)
    cols = np.arange(T.count)[::-7]
    assert np.array_equal(T.kernel_masks(cols), want[:, cols])
    mask = T.group.center.mask[T.classes.reps]
    assert np.array_equal(T.kernel_masks(mask), want[:, mask])


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

    assert T.rows[-1].kind == "central"
    hacked = _replace(  # the first row in place of the last: a duplicate linear row
        T, lin_t=np.vstack([T.lin_t, T.lin_t[:1]]), degs=T.degs[:-1], dense=T.dense[:-1],
        cexp=T.cexp[:-1])
    with pytest.raises(TableVerificationError):
        _verify_table(hacked)


def test_splitting_rank_loss_is_typed(monkeypatch):
    """The splitting guards raise TableVerificationError, which survives
    python -O and maps to CLI exit code 2."""
    import pgclass.modular as modular

    rref_mod = modular.rref_mod

    def drop_pivot(M, q):
        R, piv = rref_mod(M, q)
        return R, piv[:-1]

    monkeypatch.setattr(modular, "rref_mod", drop_pivot)
    with pytest.raises(TableVerificationError, match="lost rank"):
        modular.eigenspaces(np.diag([1, 1, 2]).astype(np.int64), 13)


# -- table JSON -----------------------------------------------------------------

# sha256 of json.dumps(T.to_json(), indent=2, sort_keys=True) + "\n" for every
# corpus entry at p = 3 and 5, computed with per-entry formatting
# (str(T.value(i, j)) for every entry) before value_strings existed
TABLE_JSON_SHA256 = {
    ("C_p", 3): "48544a1f6735c11ca0e24c3a2d5d2d507c47775cb16dac468d34bce684ba974b",
    ("C_p2", 3): "d72c04863d8db448332ddb618df2ec4c4df5edb9746f231894578992b6975cba",
    ("C_p3", 3): "833cc45cb5012d334281cf73a21b1e3efe4f3bfdda6f9042a8299353126f566b",
    ("E_p2", 3): "b39dcb056c01ead37784ff3ce0d68a108fea4384d4f985870d0193e63a588a84",
    ("E_p3", 3): "79a082fd5eb5b6a2dceacadad03b258cea2e85b9a72b751ab906a230d2671a16",
    ("heisenberg_p3", 3): "fca80ce6969e353781004e1f7cd82a065f68129852f275bea5e6b99d7b8c7c22",
    ("extraspecial_p3_exp_p2", 3): "453678961c00df96d524ba96f7e24fe3131bf8ac94e3e11530f808969c66c42c",
    ("extraspecial_p5_exp_p", 3): "d938c57f0bcc6975e0b89738d604b49caa5004f60aecb452d1d294cf0e76aa89",
    ("heisenberg_x_Cp", 3): "b3134b2831fc47e0bc4ded3b4e3dbb790434b25aea2728edc91fd762aa0e2fcf",
    ("heisenberg_x_heisenberg", 3): "cae96b12fcff036c70619b4c152333cb841feea9ab17289e376a6cbe6568ef90",
    ("C_p", 5): "7f87ba92ea8e8c0937919d84c8ac014e59ddf2f934cc73957ff53d657e962e8d",
    ("C_p2", 5): "7b6293fb9876803209421dceb1e64e0eb68e533b82a2f7ffedf8499835d1039a",
    ("C_p3", 5): "9afdbe24e3fcd63f9631463de4d5363e09943acdad91fdede089a21915d089b1",
    ("E_p2", 5): "a51852ef0c2346ecbad9fa6ac3a66ac5e1b25b9ef4f99c8c2a1a362eb6d19344",
    ("E_p3", 5): "c7a7274d5e5676ce1e5e81a28cfc338a1deace29783b88fcbf1b9bd72e5bcff3",
    ("heisenberg_p3", 5): "5d074586b6e4d7a43daa01c3c7a55e6af497600a61fad37d9680a2155b7610f9",
    ("extraspecial_p3_exp_p2", 5): "9128cb8e22395fdf0af0edeccc934ee3462b9772680f2a95aa7a621acac52303",
    ("extraspecial_p5_exp_p", 5): "c9801120018222dc31ac5f67d075b4c9ee75424194958bf73bc3ffbb00d82591",
    ("heisenberg_x_Cp", 5): "70f71b13ec6a6d861b6d33975efda9ddb9819830804bfc9d35e761135d941f72",
    ("heisenberg_x_heisenberg", 5): "4db8aa9749bdeb92027025449223bb7b0c72055ce4a6427d9eb1348a6c805015",
    ("G_(12,1)", 5): "4c3b64bd1283bf3999e8b3574f1be7703cd56fac72f589dfbd99d4b5c2da7cba",
    ("G_(14,3)", 5): "5a9bd0e66f9eb94321a282979c7ead7ac87229413efda3f61f232f65c0eaeace",
    ("G_(17,1)", 5): "7291ee2c6e73e5a015877a77dbedcb8d2518fa239bf9b89f59e508aa087d05b2",
    ("G_(18,1)", 5): "20c15fb5fe89f3c1e62ee46afd61b5848e6316170be1a54d59d5a047272c01cf",
    ("G_(19,1)", 5): "24c28ca5d73b9cbd5e257a435bdf7807b61a29b8e605a3b80bc87d171472ced8",
    ("G_(20,1)", 5): "d3ea9c5c70b02779a5586081db95acbe155bb6fa204ccff0e89a088ea10e912b",
}


def test_table_json_golden_hashes():
    from pgclass.corpus import REGISTRY

    entries = {(label, p) for p in (3, 5) for label, entry in REGISTRY.items()
               if entry.min_p <= p and (entry.max_p is None or p <= entry.max_p)}
    assert entries == set(TABLE_JSON_SHA256)
    wrong = []
    for (label, p), want in TABLE_JSON_SHA256.items():
        text = json.dumps(table(label, p).to_json(), indent=2, sort_keys=True) + "\n"
        if hashlib.sha256(text.encode()).hexdigest() != want:
            wrong.append((label, p))
    assert not wrong


@pytest.mark.parametrize("label", ["G_(20,1)", "G_(14,3)"])
def test_value_strings_match_values(label):
    """Every row, on a fixed column stride: the JSON string of an entry is
    str of its exact value."""
    T = table(label, 5)
    js = T.to_json()
    cols = list(range(0, T.count, 13)) + [T.count - 1]
    for i, row in enumerate(js["rows"]):
        for j in cols:
            assert row["values"][j] == str(T.value(i, j)), (i, j)
    if label == "G_(20,1)":
        assert {r.kind for r in T.rows} == {"unity", "central", "dense"}
    else:
        assert T.exponent == 625


# M(2^8) = <a, b | a^128 = b^2 = 1, a^b = a^65>: central-type rows at
# e = 128, whose zero marker t = e does not fit the int8 block cexp
MODULAR_2_8 = """group modular_2_8 prime 2
gens b a1 a2 a3 a4 a5 a6 a7
pow a1^p = a2
pow a2^p = a3
pow a3^p = a4
pow a4^p = a5
pow a5^p = a6
pow a6^p = a7
comm [a1,b] = a7
"""


@pytest.mark.parametrize("label", ["G_(20,1)", "E_p3", "modular_2_8"])
def test_value_strings_match_values_at_every_entry(label):
    """Every entry of value_strings is str of its exact value: on a table
    with all three row kinds, whose dense rows share multiplicity vectors
    away from the identity class; on an abelian table, whose central-type
    and dense blocks are empty; and on central-type rows with e = 128.
    value_strings(cols) gives the same strings at the classes cols alone,
    taken in any order."""
    if label == "modular_2_8":
        T = table_of(group_of(parse_presentation(MODULAR_2_8)))
        assert T.exponent == 128 and T.cexp.dtype == np.int8 and (T.cexp < 0).any()
    else:
        T = table(label, 5)
    if label == "G_(20,1)":
        assert {r.kind for r in T.rows} == {"unity", "central", "dense"}
        seen = Counter(v for r in T.rows if r.kind == "dense"
                       for v in set(_row_keys(r.mults[:, 1:].T).tolist()))
        assert max(seen.values()) > 1
    elif label == "E_p3":
        assert T.cexp.shape == (0, T.count) and T.mults.shape == (0, T.exponent, T.count)
    want = reference_entries(T, lambda v, d: str(v))
    assert T.value_strings() == want.tolist()
    strs = T.value_keys()[1].tolist()
    assert sorted(strs) == sorted(set(want.reshape(-1).tolist()))
    cols = np.arange(T.count)[::-7]
    assert T.value_strings(cols) == want[:, cols].tolist()


def test_to_json_formats_each_distinct_value_once(monkeypatch):
    """Cyclotomic.__str__ runs at most once per distinct stored value, far
    fewer times than there are entries."""
    T = table("G_(14,3)", 5)
    e = T.exponent
    assert {r.kind for r in T.rows} == {"unity", "central"}
    distinct = set()
    for r in T.rows:
        if r.kind == "unity":
            distinct.update(("unity", int(t)) for t in np.asarray(r.texp) % e)
        else:
            distinct.update((r.degree, int(t)) for t in r.cexp)
    calls = 0
    fmt = Cyclotomic.__str__

    def counting_str(self):
        nonlocal calls
        calls += 1
        return fmt(self)

    monkeypatch.setattr(Cyclotomic, "__str__", counting_str)
    T.to_json()
    assert 0 < calls <= len(distinct)
    assert len(distinct) * 1000 < T.count ** 2


def _gram_guard_setup():
    """(T, norm, off): the G_(20,1) table at p = 5 and, largest first, the
    check primes that verifying it uses: norm, the fewest whose product
    exceeds |G| max(1, d_max^2 - 1), for the row norms, and off, the fewest
    whose product exceeds |G|, for every other residue.  off is a proper
    prefix of norm."""
    from pgclass.chartable import _check_primes

    T = table("G_(20,1)", 5)
    order, d_max = T.group.order, max(T.degrees())
    lists = []
    for bound in (order * max(1, d_max * d_max - 1), order):
        primes, product = [], 1
        for qq, zp in _check_primes(T.exponent):
            if product > bound:
                break
            primes.append((qq, zp))
            product *= qq
        assert product > bound >= product // primes[-1][0]
        lists.append(primes)
    norm, off = lists
    assert len(norm) == 2 and len(off) == 1 and norm[0][0] == off[0][0]
    return T, norm, off


def _prime_with_root(e, start, step):
    """The first prime q' = 1 (mod e) from start on, stepping by step (e
    or -e), and the powers z'^t of an element z' of order e mod q'."""
    from pgclass.chartable import _root_powers
    from pgclass.modular import root_of_unity

    qq = start - (start - 1) % e
    if qq < start and step > 0:
        qq += e
    while not is_prime(qq):
        qq += step
    return qq, _root_powers(qq, root_of_unity(qq, e), e)


def test_prime_product_bound_is_checked(monkeypatch):
    """The pair check refuses check primes whose product does not exceed
    |G| max(1, d_max^2 - 1), and leaves out the table's own prime q.  With
    the primes that just exceed it, every one gives the row norms, and the
    prefix whose product just exceeds |G| gives everything else; without
    the last one they fail, also with q put in front."""
    import pgclass.chartable as chartable_mod

    T, norm, off = _gram_guard_setup()
    e, q = T.exponent, T.field_prime
    own = _prime_with_root(e, q, e)
    assert own[0] == q
    residues, coset_sums = chartable_mod._residues, chartable_mod._coset_sums
    used = {"norm": [], "off": []}

    def spy_residues(deg, C, D, zp, qq):
        if zp.ndim == 2:  # the basepoint residues: the value and its conjugate
            used["norm"].append(qq)
        return residues(deg, C, D, zp, qq)

    def spy_coset_sums(T, cosets, deg, C, D, qq, zp):
        used["off"].append(qq)
        return coset_sums(T, cosets, deg, C, D, qq, zp)

    monkeypatch.setattr(chartable_mod, "_residues", spy_residues)
    monkeypatch.setattr(chartable_mod, "_coset_sums", spy_coset_sums)
    monkeypatch.setattr(chartable_mod, "_check_primes", lambda e: tuple(norm))
    chartable_mod._verify_table(_replace(T))
    assert used == {"norm": [qq for qq, _ in norm], "off": [qq for qq, _ in off]}
    for short in (norm[:-1], [own] + norm[:-1]):
        monkeypatch.setattr(chartable_mod, "_check_primes", lambda e, short=short: tuple(short))
        with pytest.raises(TableVerificationError, match="product"):
            chartable_mod._verify_table(_replace(T))


def test_norms_are_checked_at_every_norm_prime(monkeypatch):
    """The row norms are checked at every norm prime, also past the
    off-diagonal prefix: with one row's residues doubled at the last norm
    prime alone, its norm reads 4 |G| there, and the pair check refuses
    it."""
    import pgclass.chartable as chartable_mod

    T, norm, off = _gram_guard_setup()
    last = norm[-1][0]
    assert last not in [qq for qq, _ in off]
    residues = chartable_mod._residues

    def doubled(deg, C, D, zp, qq):
        R = residues(deg, C, D, zp, qq)
        if qq == last and zp.ndim == 2:  # the basepoint residues
            R[:, 0] = 2 * R[:, 0] % qq
        return R

    monkeypatch.setattr(chartable_mod, "_check_primes", lambda e: tuple(norm))
    monkeypatch.setattr(chartable_mod, "_residues", doubled)
    with pytest.raises(TableVerificationError, match="^a non-linear row fails orthogonality$"):
        chartable_mod._verify_table(_replace(T))


def test_float64_bound_is_checked(monkeypatch):
    """A check prime q' is bounded by _matmul_mod's one guard alone,
    (q'-1)^2 < 2^53.  The primes on both sides of the pair check's former
    bound k (q'-1)^2 < 2^53, the largest prime q' = 1 (mod e) below it and
    the smallest one above, both verify the table exactly; the smallest
    q' = 1 (mod e) with (q'-1)^2 >= 2^53 is refused with the kernel's
    message."""
    import pgclass.chartable as chartable_mod

    T, primes, _ = _gram_guard_setup()
    k, e = T.count, T.exponent
    x = math.isqrt((2**53 - 1) // k)  # the largest x with k x^2 < 2^53
    below = _prime_with_root(e, x + 1, -e)
    above = _prime_with_root(e, x + 2, e)
    assert k * (below[0] - 1) ** 2 < 2**53 <= k * (above[0] - 1) ** 2
    past = _prime_with_root(e, math.isqrt(2**53 - 1) + 2, e)
    assert (past[0] - 1) ** 2 >= 2**53
    for first in (below, above):
        monkeypatch.setattr(chartable_mod, "_check_primes",
                            lambda e, first=first: (first,) + tuple(primes))
        chartable_mod._verify_table(_replace(T))
    monkeypatch.setattr(chartable_mod, "_check_primes", lambda e: (past,) + tuple(primes))
    with pytest.raises(TableVerificationError,
                       match=r"^\(q-1\)\^2 is not below 2\^53, the float64 exact range$"):
        chartable_mod._verify_table(_replace(T))


def test_table_guards_survive_optimize(run_optimized):
    """Under python -O the exactness guards of chartable and modular still
    raise TableVerificationError."""
    code = (
        "import dataclasses\n"
        "import numpy as np\n"
        "import pgclass as pg\n"
        "import pgclass.chartable as ct\n"
        "import pgclass.modular as md\n"
        "solve = ct._relation_solutions\n"
        "def central_blocks():\n"
        "    ct._relation_solutions = lambda *args: solve(*args)[:-1]\n"
        "    try:\n"
        "        ct.compute_table(pg.build('heisenberg_p3', 3))\n"
        "    except pg.TableVerificationError as exc:\n"
        "        if 'Z(G)' in str(exc):\n"
        "            raise\n"
        "    finally:\n"
        "        ct._relation_solutions = solve\n"
        "def jordan_block():\n"
        "    md.eigenspaces(np.array([[2, 1], [0, 2]]), 7)\n"
        "def eigen_range():\n"
        "    md.eigenspaces(np.eye(2, dtype=np.int64), 2**31 + 11)\n"
        "split = ct._split_blocks\n"
        "def degree_one():\n"
        "    def with_linear(G, cls, q, blocks, lin_t, lin_keys, digits, zpow, inv_sizes):\n"
        "        finals = split(G, cls, q, blocks, lin_t, lin_keys, digits, zpow, inv_sizes)\n"
        "        finals[0] = cls.sizes * zpow[lin_t[1] @ digits % zpow.size] % q\n"
        "        return finals\n"
        "    ct._split_blocks = with_linear\n"
        "    try:\n"
        "        ct.compute_table(pg.build('heisenberg_p3', 3))\n"
        "    finally:\n"
        "        ct._split_blocks = split\n"
        "T = ct.compute_table(pg.build('heisenberg_p3', 3))\n"
        "check_primes = ct._check_primes\n"
        "def with_primes(primes):\n"
        "    ct._check_primes = lambda e: primes\n"
        "    try:\n"
        "        ct._verify_table(T)\n"
        "    finally:\n"
        "        ct._check_primes = check_primes\n"
        "def prime_product():\n"
        "    with_primes(())\n"
        "cosets = ct._derived_cosets\n"
        "def with_cosets(wrong):\n"
        "    ct._derived_cosets = wrong\n"
        "    try:\n"
        "        ct._verify_table(T)\n"
        "    finally:\n"
        "        ct._derived_cosets = cosets\n"
        "def coset_count():\n"
        "    with_cosets(lambda T: (cosets(T)[0], np.arange(T.count)))\n"
        "def coset_sum():\n"
        "    with_cosets(lambda T: (cosets(T)[0], np.roll(cosets(T)[1], 1)))\n"
        "def coset_subgroup():\n"
        "    with_cosets(lambda T: ((T.group.gen_index(0),), cosets(T)[1]))\n"
        "def float64_range():\n"
        "    qq = 2**27 + 2  # = 1 (mod 3), and (qq - 1)^2 >= 2^53\n"
        "    while not md.is_prime(qq):\n"
        "        qq += 3\n"
        "    try:\n"
        "        with_primes(((qq, np.zeros(3, dtype=np.int64)),))\n"
        "    except pg.TableVerificationError as exc:\n"
        "        if str(exc).startswith('(q-1)^2 is not below 2^53'):\n"
        "            raise\n"
        "def power_data():\n"
        "    G = pg.group_of(pg.build('heisenberg_p3', 3))\n"
        "    cls = G.conjugacy_classes\n"
        "    ct._PowerData(G, cls, np.arange(cls.count), 1)\n"
        "def linear_count():\n"
        "    G = pg.Group(pg.build('heisenberg_p3', 3))\n"
        "    G.derived = pg.subgroup_generated([], G)\n"
        "    ct.linear_character_exponents(G)\n"
        "translates = ct._center_translates\n"
        "def with_translates(change):\n"
        "    def changed(G, cls):\n"
        "        gens, perms = translates(G, cls)\n"
        "        perms = perms.copy()\n"
        "        change(perms)\n"
        "        return gens, perms\n"
        "    ct._center_translates = changed\n"
        "    try:\n"
        "        ct._verify_table(T)\n"
        "    finally:\n"
        "        ct._center_translates = translates\n"
        "def center_perm():\n"
        "    with_translates(lambda perms: perms.__setitem__((0, 1), perms[0, 0]))\n"
        "def center_sizes():\n"
        "    with_translates(lambda perms: perms.__setitem__((0, [0, -1]), perms[0, [-1, 0]]))\n"
        "def with_central(cexp):\n"
        "    ct._verify_table(dataclasses.replace(T, cexp=np.stack([cexp, cexp])))\n"
        "def block_count():\n"
        "    dataclasses.replace(T, cexp=T.cexp[:1])\n"
        "def central_support():\n"
        "    with_central(np.r_[0, np.full(T.count - 1, -1)].astype(np.int8))\n"
        "def central_range():\n"
        "    with_central(np.full(T.count, 3, dtype=np.int8))\n"
        "TD = ct.compute_table(pg.build('G_(20,1)', 5))\n"
        "def dense_moved(j):\n"
        "    D = TD.mults.copy()\n"
        "    u = int(D[0, :, j].argmax())\n"
        "    D[0, u, j] -= 1\n"
        "    D[0, (u + 1) % 5, j] += 1\n"
        "    ct._pair_plan(dataclasses.replace(TD, mults=D))\n"
        "def dense_center():\n"
        "    dense_moved(int(TD.classes.classof[TD.group.center.gens[0]]))\n"
        "def dense_character():\n"
        "    dense_moved(TD.count - 1)\n"
        "checks = {\n"
        "    'degree_one': degree_one,\n"
        "    'central_blocks': central_blocks,\n"
        "    'prime_product': prime_product,\n"
        "    'coset_count': coset_count,\n"
        "    'coset_sum': coset_sum,\n"
        "    'coset_subgroup': coset_subgroup,\n"
        "    'float64_range': float64_range,\n"
        "    'power_data': power_data,\n"
        "    'root_of_unity': lambda: md.root_of_unity(7, 4),\n"
        "    'jordan_block': jordan_block,\n"
        "    'eigen_range': eigen_range,\n"
        "    'linear_count': linear_count,\n"
        "    'center_perm': center_perm,\n"
        "    'center_sizes': center_sizes,\n"
        "    'central_support': central_support,\n"
        "    'central_range': central_range,\n"
        "    'block_count': block_count,\n"
        "    'dense_center': dense_center,\n"
        "    'dense_character': dense_character,\n"
        "}\n"
        "for name, check in checks.items():\n"
        "    try:\n"
        "        check()\n"
        "    except pg.TableVerificationError:\n"
        "        print(name)\n"
    )
    assert run_optimized(code).split() == [
        "degree_one", "central_blocks", "prime_product", "coset_count", "coset_sum",
        "coset_subgroup", "float64_range", "power_data",
        "root_of_unity", "jordan_block", "eigen_range", "linear_count", "center_perm",
        "center_sizes", "central_support", "central_range", "block_count", "dense_center",
        "dense_character",
    ]


def _scalar_rounds(monkeypatch, scalar_pool_rounds):
    """Make _combination_rows return zero rows, a scalar action on every
    subspace, while scalar_pool_rounds(pool sizes so far, full pool size)
    holds; returns the list of pool sizes, one per round."""
    import pgclass.chartable as ct

    combination_rows = ct._combination_rows
    pools = []

    def patched(G, cls, rows_needed, pool, weights, q, inv_sizes):
        pools.append(len(pool))
        if scalar_pool_rounds(pools, int((cls.sizes > 1).sum())):
            return np.zeros((rows_needed.size, cls.count), dtype=np.int64)
        return combination_rows(G, cls, rows_needed, pool, weights, q, inv_sizes)

    monkeypatch.setattr(ct, "_combination_rows", patched)
    return pools


def test_split_retries_after_a_scalar_full_pool_round(monkeypatch):
    """A full-pool round that separates nothing is retried with new
    weights, and the table comes out byte-identical."""
    P = pg.build("heisenberg_x_heisenberg", 3)
    want = json.dumps(pg.compute_table(pg.Group(P)).to_json(), sort_keys=True)
    pools = _scalar_rounds(monkeypatch, lambda pools, full: pools.count(full) <= 1)
    got = json.dumps(pg.compute_table(pg.Group(P)).to_json(), sort_keys=True)
    assert pools[:5] == [16, 32, 64, 112, 112]
    assert got == want


def test_split_that_never_separates_fails(monkeypatch):
    """Four retries on the full pool, then a typed error."""
    pools = _scalar_rounds(monkeypatch, lambda pools, full: True)
    with pytest.raises(TableVerificationError, match="eigenspace splitting did not complete"):
        pg.compute_table(pg.Group(pg.build("heisenberg_x_heisenberg", 3)))
    assert pools == [16, 32, 64] + [112] * 4


def test_linear_vector_among_split_rows_is_rejected(monkeypatch):
    """A splitting vector that is a linear row's eigenvector recovers
    degree 1 and fails with its own error."""
    import pgclass.chartable as ct

    split = ct._split_blocks

    def with_linear(G, cls, q, blocks, lin_t, lin_keys, digits, zpow, inv_sizes):
        W = split(G, cls, q, blocks, lin_t, lin_keys, digits, zpow, inv_sizes)
        W[0] = cls.sizes * zpow[lin_t[1] @ digits % zpow.size] % q
        return W

    monkeypatch.setattr(ct, "_split_blocks", with_linear)
    with pytest.raises(TableVerificationError, match="non-linear eigenvector has degree 1"):
        ct.compute_table(pg.build("heisenberg_p3", 3))


def test_duplicate_split_rows_are_rejected(monkeypatch):
    """_split_blocks returns one (rows, k) int64 array; with the second of
    heisenberg_p3@3's two degree-3 eigenvectors overwritten by the first,
    the degree, norm and degree-sum checks pass and the table fails as
    having duplicate rows."""
    import pgclass.chartable as ct

    split = ct._split_blocks

    def duplicated(G, cls, *args):
        W = split(G, cls, *args)
        assert W.dtype == np.int64 and W.shape == (2, cls.count)
        W[1] = W[0]
        return W

    monkeypatch.setattr(ct, "_split_blocks", duplicated)
    with pytest.raises(TableVerificationError, match="^duplicate character rows$"):
        ct.compute_table(pg.build("heisenberg_p3", 3))


@pytest.mark.parametrize("label, p, e", [("heisenberg_p3", 7, 7),
                                         ("extraspecial_p3_exp_p2", 7, 49),
                                         ("G_(14,3)", 5, 625)])
def test_linear_order_matches_value_lexsort(label, p, e):
    """The rank-key order of the linear rows (uint8 keys at e = 7 and 49,
    uint16 at e = 625), taken on a prefix of the columns, is the
    lexicographic order of their mod-q rows as int64 over all k columns,
    and the table stores them in it."""
    from pgclass.chartable import _CenterChain, _linear_order, _linear_rows_data, _rep_digits

    G = group_of(pg.build(label, p))
    cls, e_G, q, zpow = _center_setup(G)
    assert e_G == e
    lin_t, _ = _linear_rows_data(G, _CenterChain(G, e))
    digits = _rep_digits(G, cls)
    lin_texp = lin_t @ digits % e
    values = zpow[lin_texp]
    want = np.lexsort(values.T[::-1])
    assert (_linear_order(lin_t, digits, zpow) == want).all()
    T = table_of(G)
    stored = np.stack([r.texp for r in T.rows[:want.size]])
    assert (stored == lin_texp[want]).all()
    assert (np.stack([r.t for r in T.rows[:want.size]]) == lin_t[want]).all()


# -- central blocks: the array kernels against the orbit walk --------------------


def _center_setup(G):
    """(cls, e, q, zpow) as compute_table chooses them."""
    from pgclass.modular import find_aux_prime, root_of_unity

    e = G.exponent
    q = find_aux_prime(e, G.order)
    z = root_of_unity(q, e)
    return G.conjugacy_classes, e, q, np.array([pow(z, t, q) for t in range(e)])


def _orbit_vector(support, coef, q):
    """An orbit's support with its coefficients scaled to 1 at the
    basepoint, the smallest support class."""
    inv = pow(int(coef[0]), q - 2, q)
    return tuple(support.tolist()), tuple((coef * inv % q).tolist())


def walked_central_blocks(G, cls, e, q, zpow):
    """The construction that _central_blocks replaced: Z(G) as a checked
    Group of its own, one lmul_array per element of Z(G) for its action on
    the classes, a BFS over every class and generator for the orbits and
    transversals, Z(G)'s characters at its own exponent scaled up to e,
    and a stabilizer test of every character on every orbit.  Returns the
    blocks as {central character at the central classes: set of orbit
    vectors}."""
    from pgclass.group import subgroup_as_group

    k = cls.count
    ZG = subgroup_as_group(G.center)
    Tz, eZ = pg.linear_character_exponents(ZG.group)
    zact = np.stack([cls.classof[G.lmul_array(cls.reps.copy(), int(h))]
                     for h in ZG.to_parent])
    orbit_id = np.full(k, -1, dtype=np.int64)
    transv = np.zeros(k, dtype=np.int64)
    orbits = []
    gen_zidx = [ZG.group.gen_index(a) for a in range(ZG.group.n)]
    for k0 in range(k):
        if orbit_id[k0] >= 0:
            continue
        orbit_id[k0] = len(orbits)
        frontier, members = [k0], [k0]
        while frontier:
            nxt = []
            for kk in frontier:
                for a in gen_zidx:
                    img = int(zact[a, kk])
                    if orbit_id[img] < 0:
                        orbit_id[img] = len(orbits)
                        transv[img] = ZG.group.mul(a, int(transv[kk]))
                        nxt.append(img)
                        members.append(img)
            frontier = nxt
        orbits.append(np.array(sorted(members), dtype=np.int64))
    lam_at = Tz @ np.stack(ZG.group.digit_arrays) % eZ
    scale = e // eZ
    zidx = {int(g): s for s, g in enumerate(ZG.to_parent)}
    cent_zidx = [zidx[int(cls.reps[c])] for c in np.flatnonzero(cls.sizes == 1)]
    blocks = {}
    for vals in lam_at:
        vectors = {_orbit_vector(O, zpow[(-vals[transv[O]] * scale) % e], q)
                   for O in orbits if not vals[np.flatnonzero(zact[:, O[0]] == O[0])].any()}
        blocks[tuple(((-vals[cent_zidx] * scale) % e).tolist())] = vectors
    return blocks


def kernel_central_blocks(G, cls, e, q, zpow):
    """_central_blocks in the form walked_central_blocks returns, with
    each block's integer key decoded to its character at the central
    classes, and the orbit sizes under Z(G)."""
    import pgclass.chartable as ct

    zc = ct._CenterChain(G, e)
    zdig = zc.digits(zc.positions(cls.reps[cls.sizes == 1]))
    blocks = {}
    for blk in ct._central_blocks(G, cls, zc, zpow):
        ends = np.r_[blk.seg_starts[1:], blk.flat_supp.size]
        key = tuple((zc.chars[blk.central_key] @ zdig.T % e).tolist())
        assert key not in blocks
        blocks[key] = {_orbit_vector(blk.flat_supp[a:b], blk.flat_coef[a:b], q)
                       for a, b in zip(blk.seg_starts, ends)}
    base, _ = ct._center_orbits([cls.classof[G.rmul_array(cls.reps, b)] for b in zc.gens],
                                G.p)
    return blocks, np.bincount(base)[np.unique(base)]


def _center_groups():
    from test_classify import HEISENBERG_F9

    out = [(f"{label}@{p}", pg.build(label, p))
           for label, entry in pg.REGISTRY.items() for p in (3, 5) if entry.min_p <= p]
    return out + [("heisenberg_f9@3", parse_presentation(HEISENBERG_F9))]


def test_central_blocks_match_the_orbit_walk():
    """On every corpus group at p = 3, 5 with fewer linear rows than
    classes, and on the Heisenberg group over F_9, the array kernels give
    the blocks of the zact + BFS construction: the same central characters,
    each spanned by the same orbit vectors (support and coefficients scaled
    at the basepoint).  The cases include centers on two generators, the
    cyclic center of order 25 of G_(14,3)@5 (b_1^5 = b_2), and orbits whose
    stabilizer is neither trivial nor all of Z(G)."""
    seen = {}
    for name, P in _center_groups():
        G = group_of(P)
        if G.order // G.derived.order == G.conjugacy_classes.count:
            continue
        setup = _center_setup(G)
        got, orbit_sizes = kernel_central_blocks(G, *setup)
        assert got == walked_central_blocks(G, *setup), name
        zorder = G.center.order
        seen[name] = (zorder, len(G.center.gens), bool(((orbit_sizes > 1)
                                                        & (orbit_sizes < zorder)).any()))
    assert seen["heisenberg_x_heisenberg@3"][:2] == (9, 2)
    assert seen["heisenberg_f9@3"][:2] == (9, 2)
    assert seen["G_(14,3)@5"][:2] == (25, 2)
    assert abelian_invariants(group_of(pg.build("G_(14,3)", 5)).center) == (25,)
    proper = {name for name, (_, _, has_proper) in seen.items() if has_proper}
    assert {"heisenberg_x_Cp@3", "heisenberg_x_heisenberg@3", "G_(14,3)@5"} <= proper
    assert "heisenberg_f9@3" not in proper  # a Camina pair: Stab = Z(G) off the center


def _eliminated_annihilator(G, cls, blk, lin, q, zpow):
    """The elimination that _linear_annihilator replaced: the pairing
    matrix F[lambda, O] = sum over c in O of v_O[c] lambda(g_c^-1) of the
    block's linear rows (exponents lin), its kernel from kernel_basis_mod,
    then the reduced row echelon form."""
    from pgclass.modular import kernel_basis_mod, rref_mod

    invclass = cls.classof[G.inverse_table[cls.reps]]
    F = zpow[lin[:, invclass[blk.flat_supp]]] * blk.flat_coef % q
    F = np.add.reduceat(F, blk.seg_starts, axis=1) % q
    R, piv = rref_mod(kernel_basis_mod(F, q), q)
    return R[:len(piv)], np.array(piv, dtype=np.int64)


def test_linear_annihilator_matches_elimination():
    """On every block of a corpus group at p = 3, 5, 7 that holds linear
    rows but is not filled by them, the written-down annihilator basis and
    its pivots equal those of the elimination."""
    import pgclass.chartable as ct

    checked = []
    for p in (3, 5, 7):
        for label, entry in pg.REGISTRY.items():
            if entry.min_p > p:
                continue
            G = group_of(pg.build(label, p))
            cls, e, q, zpow = _center_setup(G)
            zc = ct._CenterChain(G, e)
            lin_t, lin_keys = ct._linear_rows_data(G, zc)
            if lin_t.shape[0] == cls.count:
                continue
            lin_texp = lin_t @ ct._rep_digits(G, cls) % e
            for blk in ct._central_blocks(G, cls, zc, zpow):
                lin = lin_texp[lin_keys == blk.central_key]
                if 0 < lin.shape[0] < blk.dim:
                    C, J = ct._linear_annihilator(blk, lin[:, blk.basepoints], q, zpow)
                    want_C, want_J = _eliminated_annihilator(G, cls, blk, lin, q, zpow)
                    assert (C == want_C).all() and (J == want_J).all(), (label, p)
                    checked.append((label, p, blk.dim, lin.shape[0]))
    assert len(checked) == 8, checked


def _alter_center_character(monkeypatch, G):
    """The last character row of Z(G) with one exponent moved by e/p; the
    chain still returns |Z(G)| rows."""
    import pgclass.chartable as ct

    class Altered(ct._CenterChain):
        def __init__(self, G, e):
            super().__init__(G, e)
            self.chars[-1, -1] = (self.chars[-1, -1] + e // G.p) % e

    monkeypatch.setattr(ct, "_CenterChain", Altered)


def _shift_transporter_digit(monkeypatch, G):
    """One transporter digit of the last central class moved by one: its
    transporter changes by a generator b_a of Z(G), which the trivial
    stabilizer of the central orbit does not absorb."""
    import pgclass.chartable as ct

    c = int(np.flatnonzero(G.conjugacy_classes.sizes == 1)[-1])
    orbits = ct._center_orbits

    def shifted(perms, p):
        base, digits = orbits(perms, p)
        digits[c, 0] = (digits[c, 0] + 1) % p
        return base, digits

    monkeypatch.setattr(ct, "_center_orbits", shifted)


@pytest.mark.parametrize("corrupt", [_alter_center_character, _shift_transporter_digit])
@pytest.mark.parametrize("label,p", [("heisenberg_p3", 3), ("heisenberg_x_Cp", 3),
                                     ("heisenberg_x_heisenberg", 3), ("G_(14,3)", 5)])
def test_corrupted_center_data_fails_the_table(monkeypatch, corrupt, label, p):
    """Nothing checks Z(G)'s presentation for consistency any more: a wrong
    character of Z(G) or a wrong transporter gives wrong candidate vectors,
    and compute_table must end in TableVerificationError."""
    G = pg.Group(pg.build(label, p))
    corrupt(monkeypatch, G)
    with pytest.raises(TableVerificationError):
        pg.compute_table(G)


# -- Galois gathers in splitting and lifting ------------------------------------

# M16 = <x, y>, x of order 8 and [y, x] = x^4: exponent 8, where the Galois
# step s = -1 generates a subgroup of (Z/8)^x only.
M16 = """group M16 prime 2
gens x y a b
pow x^p = a
pow a^p = b
comm [y,x] = b
"""


@pytest.mark.parametrize("label,p,orbit_sizes", [
    ("G_(17,1)", 5, [1, 4, 4, 4, 4, 4, 4]),
    ("G_(19,1)", 5, [1, 4, 4, 4, 4, 4, 4]),
    ("extraspecial_p3_exp_p2", 7, [6]),
    ("M16", 2, [2]),
])
def test_split_enters_one_block_per_galois_orbit(monkeypatch, label, p, orbit_sizes):
    """Eigen-splitting enters exactly one block per orbit of <s>,
    s = _galois_unit(e), on the central characters whose blocks the linear
    rows do not fill; the other blocks take their vectors by gathers.  The
    orbits are counted by brute force on the exponent rows of
    _CenterChain.chars, t -> s t.  At e = 49 an orbit has phi(ord mu) = 6
    blocks, not phi(e) = 42."""
    import pgclass.chartable as ct

    P = parse_presentation(M16) if label == "M16" else pg.build(label, p)
    G = group_of(P)
    cls, e, q, zpow = _center_setup(G)
    zc = ct._CenterChain(G, e)
    _, lin_keys = ct._linear_rows_data(G, zc)
    need = {blk.central_key for blk in ct._central_blocks(G, cls, zc, zpow)
            if np.count_nonzero(lin_keys == blk.central_key) < blk.dim}
    s = ct._galois_unit(e)
    assert s == (ct._unit_gens(e) + (1,))[0]
    orbits = []
    for key in sorted(need):
        if any(key in o for o in orbits):
            continue
        orbit, t = set(), zc.chars[key]
        while True:
            (c,) = np.flatnonzero((zc.chars == t % e).all(axis=1))
            if c in orbit:
                break
            orbit.add(int(c))
            t = t * s
        orbits.append(orbit)
    assert sorted(len(o) for o in orbits) == orbit_sizes
    assert set().union(*orbits) == need

    entered = set()
    expand = ct._CentralBlock.expand

    def spy(blk, *args):
        entered.add(blk.central_key)
        return expand(blk, *args)

    monkeypatch.setattr(ct._CentralBlock, "expand", spy)
    ct.compute_table(G)
    assert entered <= need
    assert all(len(entered & o) == 1 for o in orbits)


def test_lift_dfts_one_row_per_galois_orbit(monkeypatch):
    """On G_(19,1)@5 _orbit_dft_mults sees one dense row per orbit of
    sigma_s, and the multiplicities that every other dense row gathers
    from its orbit's row equal _orbit_dft_mults run on all the dense rows.
    Every dense row's mults is a read-only uint8 view of one block."""
    import pgclass.chartable as ct

    seen = []
    dft = ct._orbit_dft_mults

    def spy(Trows, *args):
        seen.append(np.array(Trows))
        return dft(Trows, *args)

    monkeypatch.setattr(ct, "_orbit_dft_mults", spy)
    T = ct.compute_table(pg.build("G_(19,1)", 5))
    G, cls, e, q = T.group, T.classes, T.exponent, T.field_prime
    _, _, _, zpow = _center_setup(G)
    dense = [r for r in T.rows if r.kind == "dense"]
    Trows = np.stack([row_mod_q(r, q, zpow) for r in dense])
    (s,) = ct._unit_gens(e)
    orbit_of = {}  # each orbit labelled by its first dense row
    for i, r in enumerate(dense):
        m = r.mults
        while m.tobytes() not in orbit_of:
            orbit_of[m.tobytes()] = i
            m = m[np.arange(e) * pow(s, -1, e) % e]
    orbit = [orbit_of[r.mults.tobytes()] for r in dense]
    (reps,) = seen
    at = [next(i for i, t in enumerate(Trows) if (t == row).all()) for row in reps]
    assert (len(dense), len(set(orbit))) == (200, 50)
    assert sorted(orbit[i] for i in at) == sorted(set(orbit))
    power = ct._PowerData(G, cls, np.arange(cls.count, dtype=np.int64), e)
    out = np.zeros((len(dense), e, cls.count), dtype=np.int64)
    dft(Trows, power, e, q, zpow, out, np.arange(len(dense)))
    assert (out == np.stack([r.mults for r in dense])).all()
    block = dense[0].mults.base
    assert block.shape == (200, e, cls.count) and not block.flags.writeable
    for i, r in enumerate(dense):
        assert r.mults.dtype == np.uint8 and not r.mults.flags.writeable
        assert r.mults.base is block and np.shares_memory(r.mults, block)
        assert (r.mults == block[i]).all()


def test_mult_dtype_is_the_narrowest_that_holds_the_degree(run_optimized):
    """uint8 up to degree 255, uint16 from 256; under python -O a degree
    that no unsigned dtype holds raises the typed error."""
    from pgclass.chartable import _mult_dtype

    assert _mult_dtype(1) == np.uint8 and _mult_dtype(255) == np.uint8
    assert _mult_dtype(256) == np.uint16 and _mult_dtype(65535) == np.uint16
    code = (
        "import pgclass as pg\n"
        "from pgclass.chartable import _mult_dtype\n"
        "for d in (2**64, -1):\n"
        "    try:\n"
        "        _mult_dtype(d)\n"
        "    except pg.TableVerificationError:\n"
        "        print(d)\n"
    )
    assert run_optimized(code).split() == [str(2**64), "-1"]


# The per-class certification loop that _certify batches by element order:
# one flatnonzero and one np.ix_ gather per candidate class.
def reference_certify(G, cls, e, q, dlog, T, degs):
    """(geo_t, central) as _certify defines them, one class at a time."""
    from pgclass.chartable import _PowerData
    from pgclass.modular import _invmod_arr

    k = cls.count
    invclass = cls.classof[G.inverse_table[cls.reps]]
    d_arr = np.asarray(degs, dtype=np.int64)
    inv_d = _invmod_arr(d_arr, q)
    cand = T * T[:, invclass] % q == (d_arr * d_arr % q)[:, None]
    cand[:, 0] = True
    needed = np.flatnonzero(cand.any(axis=0))
    power = _PowerData(G, cls, needed, e)
    geo_t = np.full((len(degs), k), -1, dtype=np.int64)
    for j in needed:
        i = int(np.searchsorted(needed, j))
        orb = power.mat[:power.ords[i], i]
        m = orb.size
        rows_here = np.flatnonzero(cand[:, int(j)])
        w = T[rows_here, j] * inv_d[rows_here] % q
        tw = dlog[w]
        okroot = (tw >= 0) & (tw * m % e == 0)
        V = T[np.ix_(rows_here, orb)]
        geom = (V[:, :-1] * w[:, None] % q == V[:, 1:]).all(axis=1)
        good = okroot & geom
        geo_t[rows_here[good], int(j)] = tw[good]
    central = np.zeros(len(degs), dtype=bool)
    for r, d in enumerate(degs):
        hsize = int(cls.sizes[geo_t[r] >= 0].sum())
        central[r] = (geo_t[r][cand[r]] >= 0).all() and d * d * hsize == G.order
    return geo_t, central


def _certify_inputs(T):
    """(args of _certify, the non-linear rows) for a computed table: its
    non-linear rows mod q, in table order, as compute_table lifts them."""
    from pgclass.chartable import _root_powers
    from pgclass.modular import root_of_unity

    G, cls, e, q = T.group, T.classes, T.exponent, T.field_prime
    zpow = _root_powers(q, root_of_unity(q, e), e)
    dlog = np.full(q, -1)
    dlog[zpow] = np.arange(e)
    nonlin = [r for r in T.rows if r.degree > 1]
    Trows = np.array([row_mod_q(r, q, zpow) for r in nonlin],
                     dtype=np.int64).reshape(-1, cls.count)
    return (G, cls, e, q, dlog, Trows, [r.degree for r in nonlin]), nonlin


@pytest.mark.parametrize("p", [3, 5])
def test_certification_matches_the_per_class_loop(p):
    """On every corpus table at p, the batched certification gives the
    per-class loop's exponents and verdicts, and the table's rows have the
    kinds and exponents cexp that the loop gives."""
    from pgclass.chartable import _certify

    tables = 0
    for label, entry in pg.REGISTRY.items():
        if not entry.covers(p):
            continue
        T = table(label, p)
        args, nonlin = _certify_inputs(T)
        if not nonlin:
            continue
        geo_t, central = _certify(*args)
        want_t, want_central = reference_certify(*args)
        assert (geo_t == want_t).all() and (central == want_central).all()
        for r, t, c in zip(nonlin, want_t, want_central):
            assert r.kind == ("central" if c else "dense")
            if c:
                assert (r.cexp == t).all()
        tables += 1
    assert tables == {3: 5, 5: 11}[p]


def test_certification_sends_a_broken_power_sequence_to_dense():
    """A central-type row of G_(17,1)@5 changed at the classes of g^2 and
    g^-2 = g^3, for a class g of order 5 in its support, by zeta and
    zeta^-1: every |chi|^2 stays d^2 and every value stays d times a root
    of unity, so each candidate passes the root test, but the power
    sequence at g is no longer geometric.  Both certifications reject it
    there, and the row falls through to dense; the other rows keep their
    verdicts."""
    from pgclass.chartable import _certify, _PowerData, _root_powers
    from pgclass.modular import root_of_unity

    T = table("G_(17,1)", 5)
    (G, cls, e, q, dlog, Trows, degs), nonlin = _certify_inputs(T)
    zpow = _root_powers(q, root_of_unity(q, e), e)
    r = next(i for i, row in enumerate(nonlin) if row.kind == "central")
    support = np.flatnonzero(nonlin[r].cexp >= 0)
    power = _PowerData(G, cls, support, e)
    i = int(np.flatnonzero(power.ords == 5)[0])
    g = int(support[i])
    orb = power.mat[:power.ords[i], i]
    Trows = Trows.copy()
    Trows[r, orb[2]] = Trows[r, orb[2]] * zpow[1] % q
    Trows[r, orb[3]] = Trows[r, orb[3]] * zpow[-1] % q
    args = (G, cls, e, q, dlog, Trows, degs)
    geo_t, central = _certify(*args)
    want_t, want_central = reference_certify(*args)
    assert (geo_t == want_t).all() and (central == want_central).all()
    d = degs[r]
    square = Trows[r] * Trows[r, cls.classof[G.inverse_table[cls.reps]]] % q
    assert (square[orb] == d * d % q).all()  # every class of g's orbit is a candidate
    assert geo_t[r, g] == -1 and not central[r]
    for i, row in enumerate(nonlin):
        if i != r:
            assert central[i] == (row.kind == "central")


@pytest.mark.parametrize("stage", ["split", "lift"])
@pytest.mark.parametrize("shift", ["s+1", "roll"])
def test_off_by_one_power_map_fails_the_table(monkeypatch, stage, shift):
    """pi_s off by one, as pi_(s+1) or as pi_s rolled by one class, in the
    gathers of both stages or of the lift alone (the second call):
    compute_table raises, at the split's central-character check, at the
    lift's row matching or at the mod-q check of the lifted rows."""
    import pgclass.chartable as ct

    power_classes = ct._power_classes
    calls = []

    def off(G, cls, s):
        calls.append(s)
        if stage == "lift" and len(calls) == 1:
            return power_classes(G, cls, s)
        if shift == "roll":
            return np.roll(power_classes(G, cls, s), 1)
        return power_classes(G, cls, s + 1)

    monkeypatch.setattr(ct, "_power_classes", off)
    match = {"split": "not in its central block",
             "lift": "lifted row disagrees mod q" if shift == "s+1" else "dense row is not a row"}
    with pytest.raises(TableVerificationError, match=match[stage]):
        ct.compute_table(pg.Group(pg.build("G_(17,1)", 5)))
    assert calls == [2] * (1 if stage == "split" else 2)


# -- lifting by power-orbit DFT --------------------------------------------------

# A non-GVZ group of order 3^6, nilpotency class 3 and exponent 81 (x1 has
# order 81).  It is a regression group, not a corpus entry: it has no
# published form.  Its degree-3 rows that are not of central type are
# lifted by the power-orbit DFT at e = 81.
EXP81_CLASS3 = """group exp81_class3 prime 3
gens y x1 z x2 x3 x4
pow x1^p = x2
pow x2^p = x3
pow x3^p = x4
comm [x1,y] = z
comm [z,y] = x4
"""


def test_exp81_class3_table():
    """Same table bytes as the scalar per-class DFT gave, within the
    criterion-01 time limit for order <= 3^6."""
    from pgclass.classify import classification_report

    P = parse_presentation(EXP81_CLASS3)
    t0 = time.perf_counter()
    G = group_of(P)
    T = pg.compute_table(G)
    seconds = time.perf_counter() - t0
    text = json.dumps(T.to_json(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "93cd0cf9956df06fdf829a3b72eb4747c498d876264d340891e9196c31508e42"
    )
    assert (G.order, T.count, T.exponent) == (3**6, 153, 81)
    assert T.cd_multiset() == {1: 81, 3: 72}
    assert {r.kind for r in T.rows} == {"unity", "central", "dense"}
    assert T.verification["row_orthogonality"] == "structural+gram"
    rep = classification_report(G, table=T)
    assert rep.nilpotency_class == 3
    assert rep.is_gvz is False and rep.is_flat is False
    assert seconds <= 2.0, seconds


# The maximal-class group of order p^6 with [b_i, a] = b_(i+1).  It is a
# regression group, not a corpus entry.  At p = 5 its splitting meets a
# subspace of 125 dimensions, whose eigenspace products run in float64.
MAXCLASS_5_6 = """group maxclass_5_6 prime 5
gens a b1 b2 b3 b4 b5
comm [b1,a] = b2
comm [b2,a] = b3
comm [b3,a] = b4
comm [b4,a] = b5
"""


def test_maxclass_5_6_table(monkeypatch):
    """G' = <b2, ..., b5> has index 25, and Z(G) = <b5> has order 5.  The
    abelian normal subgroup B = <b1, ..., b5> has index 5, so every degree
    is 1 or 5, and p^6 = 25 + 25 n gives n = 624 rows of degree 5."""
    import pgclass.chartable as ct

    dims = []
    eigenspaces = ct.eigenspaces

    def recorded(S, q):
        dims.append(S.shape[0])
        return eigenspaces(S, q)

    monkeypatch.setattr(ct, "eigenspaces", recorded)
    G = group_of(parse_presentation(MAXCLASS_5_6))
    T = pg.compute_table(G)
    assert (G.order, G.center.order, T.count) == (5**6, 5, 649)
    assert T.cd_multiset() == {1: 25, 5: 624}
    assert max(dims) == 125
    assert hashlib.sha256(json.dumps(T.to_json(), sort_keys=True).encode()).hexdigest() == (
        "73dd6f0b38416e6b0e0a623767690800e5e17b293ce4059939bd15cbfe8072de")


# A = Z[zeta_3] / (1 - zeta)^7 extended by a of order 3 acting as zeta,
# with b_i = pi^(i-1) for pi = zeta - 1: [b_i, a] = b_(i+1), and
# 3 = 2 pi^2 + pi^3 gives b_i^3 = b_(i+2)^2 b_(i+3).
ZETA3_8 = """group zeta3_8 prime 3
gens a b1 b2 b3 b4 b5 b6 b7
pow b1^p = b3^2 b4
pow b2^p = b4^2 b5
pow b3^p = b5^2 b6
pow b4^p = b6^2 b7
pow b5^p = b7^2
comm [b1,a] = b2
comm [b2,a] = b3
comm [b3,a] = b4
comm [b4,a] = b5
comm [b5,a] = b6
comm [b6,a] = b7
"""


def test_zeta3_8_table_splits_subspaces_above_q(monkeypatch):
    """At order 3^8 a split subspace can have dimension d >= q, where a
    trace no longer gives the dimension.  Here q = 163 and the two
    faithful central blocks each split a 243-dimensional subspace.  A has
    index 3, so every degree is 1 or 3, and G' = <b2, ..., b7> has index
    9: 3^8 = 9 + 9 n gives n = 728.  compute_table verifies the table
    exactly before it returns."""
    import pgclass.chartable as ct

    calls = []
    eigenspaces = ct.eigenspaces

    def recorded(S, q):
        calls.append((S.shape[0], q))
        return eigenspaces(S, q)

    monkeypatch.setattr(ct, "eigenspaces", recorded)
    G = group_of(parse_presentation(ZETA3_8))
    T = pg.compute_table(G)
    assert (G.order, G.center.order, T.count, T.exponent) == (3**8, 3, 737, 81)
    assert T.cd_multiset() == {1: 9, 3: 728}
    assert max(calls) == (243, 163)
    assert hashlib.sha256(json.dumps(T.to_json(), sort_keys=True).encode()).hexdigest() == (
        "03f6bc4738e2eb0c86c4decd8ba79e0b2c617891819f06c0c64064fa8b14bf89")


@pytest.mark.parametrize("label", [
    label for label, entry in pg.REGISTRY.items() if entry.min_p <= 3
] + ["exp81_class3"])
def test_linear_character_exponents_solve_the_relations(label):
    """The solver gives |G:G'| distinct exponent rows t, abelian or not,
    and each satisfies p t_i = t . digits(a_i^p) and t . digits([a_j, a_i])
    = 0 (mod e).  The relations are read from the group tables here, not
    from the presentation the solver reads; with |G:G'| homomorphisms in
    all, the rows are every linear character."""
    P = parse_presentation(EXP81_CLASS3) if label == "exp81_class3" else pg.build(label, 3)
    G = group_of(P)
    T, e = pg.linear_character_exponents(G)
    assert e == G.exponent
    assert T.shape == (G.order // G.derived.order, G.n)
    assert len({tuple(t) for t in T.tolist()}) == T.shape[0]

    def digits(x):
        return np.array(G.element_of(x).exps, dtype=np.int64)

    gens = [G.gen_index(i) for i in range(G.n)]
    for i, a in enumerate(gens):
        assert ((G.p * T[:, i] - T @ digits(G.pow(a, G.p))) % e == 0).all()
        for b in gens[i + 1:]:
            assert (T @ digits(G.comm(b, a)) % e == 0).all()


def scalar_dft_mults(Trows, G, cls, e, q, z):
    """Reference multiplicities, one class at a time: the power orbit of
    the class by repeated multiplication, then for each u the sum
    (1/m) sum_s chi(rep^s) z_m^(-us) with z_m = z^(e/m), placed at exponent
    u e/m.  The rows are batched; the classes and the shifts u are not."""
    R, k = Trows.shape
    out = np.zeros((R, e, k), dtype=np.int64)
    for j in range(k):
        rep = int(cls.reps[j])
        orb = [0]
        x = rep
        while x != 0:
            orb.append(cls.class_of(x))
            x = G.mul(x, rep)
        m = len(orb)
        zm = pow(z, e // m, q)
        inv_m = pow(m, q - 2, q)
        f = Trows[:, orb]
        for u in range(m):
            wu = pow(zm, (-u) % m, q)
            cur = 1
            ws = []
            for _ in range(m):
                ws.append(cur)
                cur = cur * wu % q
            out[:, u * (e // m) % e, j] = f @ np.array(ws, dtype=np.int64) % q * inv_m % q
    return out


@pytest.mark.parametrize("label,p", [("G_(20,1)", 5), ("G_(17,1)", 5), ("exp81_class3", 3)])
def test_orbit_dft_matches_scalar_dft(label, p):
    """_orbit_dft_mults agrees with the scalar per-class DFT on every
    non-linear row, central-type and dense alike."""
    from pgclass.chartable import _orbit_dft_mults, _PowerData
    from pgclass.modular import root_of_unity

    P = parse_presentation(EXP81_CLASS3) if label == "exp81_class3" else pg.build(label, p)
    T = table_of(P)
    G, cls, e, q = T.group, T.classes, T.exponent, T.field_prime
    z = root_of_unity(q, e)
    zpow = np.array([pow(z, t, q) for t in range(e)], dtype=np.int64)
    nl = [r for r in T.rows if r.degree > 1]
    assert {r.kind for r in nl} == {"central", "dense"}
    Trows = np.stack([row_mod_q(r, q, zpow) for r in nl])
    power = _PowerData(G, cls, np.arange(cls.count, dtype=np.int64), e)
    got = np.zeros((len(nl), e, cls.count), dtype=np.int64)
    _orbit_dft_mults(Trows, power, e, q, zpow, got, np.arange(len(nl)))
    want = scalar_dft_mults(Trows, G, cls, e, q, z)
    assert (got == want).all()
    for r, mr in zip(nl, got):
        if r.kind == "dense":
            assert (mr == r.mults).all()


# -- table verification: mutations and the full-tensor oracle --------------------

VERIFY_LABELS = ["G_(17,1)", "G_(19,1)", "G_(20,1)"]
MUTATIONS = ["dense_nonzero", "dense_vanishing", "dense_duplicate", "unity_entry",
             "unity_digits", "central_entry", "unity_duplicate"]


def _replace(T, **arrays):
    """T with the given arrays in place of its own (dataclasses.replace,
    which builds the rows from them) and a verification record of its
    own."""
    return dataclasses.replace(T, verification={}, **arrays)


def _block_of(T, i):
    """(name, b): row i of T is row b of the array T.<name>, lin_t for a
    linear row, cexp or mults for a non-linear one."""
    n_lin = len(T.lin_t)
    if i < n_lin:
        return "lin_t", i
    dense = T.dense[:i - n_lin + 1]
    return ("mults" if dense[-1] else "cexp"), int(np.count_nonzero(dense == dense[-1])) - 1


def _stored(r):
    """The exact data row r is stored as."""
    return {"unity": r.t, "central": r.cexp, "dense": r.mults}[r.kind]


def _with_block_row(T, i, data):
    """T with row i's stored data replaced by data, in a copy of its block
    of a dtype that holds both: int64 data widens a narrow block, so none
    of its values is wrapped."""
    name, b = _block_of(T, i)
    block = getattr(T, name)
    block = block.astype(np.result_type(block, np.asarray(data)))
    block[b] = data
    return _replace(T, **{name: block})


def _move_one_eigenvalue(r, j):
    """The multiplicities of r with one eigenvalue zeta^u at class j moved
    to zeta^(u+1): the value there changes by zeta^(u+1) - zeta^u, which is
    never 0.  The copy is int64, so no narrow dtype of the table's block
    wraps."""
    m = np.array(r.mults, dtype=np.int64)
    u = int(np.flatnonzero(m[:, j])[0])
    m[u, j] -= 1
    m[(u + 1) % r.e, j] += 1
    return m


def reference_entries(T, f):
    """f(chi(g), chi(1)) for every entry of T, as a (k, k) object array.
    Each value is formed and f applied once per distinct (degree, kind,
    stored entry), the row's exact data at the class."""
    out = np.empty((T.count, T.count), dtype=object)
    memo = {}
    for i, r in enumerate(T.rows):
        data = r.mults.T if r.kind == "dense" else r.texp  # one entry per class
        for j in range(T.count):
            key = (r.degree, r.kind, data[j].tobytes())
            if key not in memo:
                memo[key] = f(r.value(j), r.degree)
            out[i, j] = memo[key]
    return out


def reference_class_masks(T):
    """(center, nonzero) for every row of T from exact values: where
    |chi(g)|^2 = chi(1)^2 and where chi(g) != 0."""
    both = np.array(reference_entries(
        T, lambda v, d: (v.abs_squared().equals_rational(d * d), not v.is_zero())).tolist(),
        dtype=bool)
    return both[..., 0], both[..., 1]


@pytest.mark.parametrize("label, p", [("exp81_class3", 3), ("G_(17,1)", 5)])
def test_class_masks_match_exact_values(label, p):
    """The table's center and nonzero masks equal a reference from exact
    values on tables with unity, central-type and dense rows, and the
    linear rows, which they leave out, are all-True in both.  The masks
    are read-only, built once per table and absent from to_json, and a
    dataclasses.replace copy with a changed block builds its own."""
    P = parse_presentation(EXP81_CLASS3) if label == "exp81_class3" else pg.build(label, p)
    T = table_of(group_of(P))
    assert {r.kind for r in T.rows} == {"unity", "central", "dense"}
    n_lin = len(T.lin_t)
    center, nonzero = reference_class_masks(T)
    assert center[:n_lin].all() and nonzero[:n_lin].all()
    for got, want in ((T.center_masks, center), (T.nonzero_masks, nonzero)):
        assert got.shape == (T.count - n_lin, T.count) and got.dtype == bool
        assert np.array_equal(got, want[n_lin:])
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = not got[0, 0]
    assert T.center_masks is T.center_masks and T.nonzero_masks is T.nonzero_masks
    doc = T.to_json()
    assert not any("mask" in key for key in doc)
    assert all(set(row) == {"degree", "values"} for row in doc["rows"])

    # one eigenvalue of a dense row moved where the row is 0, and a
    # central-type row set to 0 at a class of its support other than 1
    i = n_lin + int(np.flatnonzero(T.dense)[0])
    j = int(np.flatnonzero(~T.nonzero_masks[i - n_lin])[0])
    c = n_lin + int(np.flatnonzero(~T.dense)[0])
    cj = int(np.flatnonzero(T.rows[c].cexp >= 0)[-1])
    assert cj > 0
    for hacked in (_with_block_row(T, i, _move_one_eigenvalue(T.rows[i], j)),
                   _with_block_row(T, c, np.where(np.arange(T.count) == cj, -1, T.rows[c].cexp))):
        assert hacked.nonzero_masks is not T.nonzero_masks
        want_center, want_nonzero = reference_class_masks(hacked)
        assert np.array_equal(hacked.center_masks, want_center[n_lin:])
        assert np.array_equal(hacked.nonzero_masks, want_nonzero[n_lin:])
        assert not np.array_equal(hacked.nonzero_masks, T.nonzero_masks)


def mutate(T, kind):
    """A copy of T with one deliberate error of the given kind, in a copy
    of one of its arrays; T's own are left as they are."""
    e = T.exponent
    kinds = [r.kind for r in T.rows]
    dense = [i for i, kd in enumerate(kinds) if kd == "dense"]
    unity = [i for i, kd in enumerate(kinds) if kd == "unity"]
    if kind in ("dense_nonzero", "dense_vanishing"):
        i = dense[len(dense) // 2]
        n_lin = len(T.lin_t)
        mask = T.nonzero_masks[i - n_lin].copy()
        if kind == "dense_vanishing":
            mask = ~mask
        mask[0] = False
        j = int(np.flatnonzero(mask)[-1])
        hacked = _with_block_row(T, i, _move_one_eigenvalue(T.rows[i], j))
        assert hacked.nonzero_masks[i - n_lin, j]
        return hacked
    if kind == "dense_duplicate":
        return _with_block_row(T, dense[-1], T.rows[dense[0]].mults)  # one block row over another
    if kind == "unity_entry":
        # the last pc generator lies in G', so a homomorphism has t = 0
        # there; t = 1 breaks a relation
        i = unity[3]
        assert T.rows[i].t[-1] == 0
        t = np.array(T.rows[i].t)
        t[-1] = 1
        return _with_block_row(T, i, t)
    if kind == "unity_digits":
        # one digit of the last class rep off by one, in a copy of the
        # table's one digit matrix: the value there of every linear row
        # moves by t_a times the change, that of row unity[3] among them
        a = int(np.flatnonzero(T.rows[unity[3]].t)[0])
        digits = np.array(T.digits)
        digits[a, -1] = (digits[a, -1] + 1) % T.group.p
        return _replace(T, digits=digits)
    if kind == "central_entry":
        i = kinds.index("central")
        cexp = np.array(T.rows[i].cexp)
        j = int(np.flatnonzero(cexp >= 0)[-1])
        cexp[j] = (cexp[j] + 1) % e
        return _with_block_row(T, i, cexp)
    return _with_block_row(T, unity[-1], T.rows[unity[1]].t)  # one block row over another


@pytest.mark.parametrize("label", VERIFY_LABELS)
@pytest.mark.parametrize("kind", MUTATIONS)
def test_verify_table_rejects_mutation(label, kind):
    """Every one-entry or one-row corruption of a table with unity,
    central-type and dense rows is rejected, and the table itself is
    still accepted."""
    from pgclass.chartable import _verify_table

    T = table(label, 5)
    hacked = mutate(T, kind)
    changed = [i for i, (a, b) in enumerate(zip(T.rows, hacked.rows))
               if not np.array_equal(a.texp if a.kind == "unity" else _stored(a),
                                     b.texp if b.kind == "unity" else _stored(b))]
    if kind == "unity_digits":  # every linear row reads the one digit matrix
        assert changed and all(T.rows[i].kind == "unity" for i in changed)
    else:
        assert len(changed) == 1
    i = changed[0]
    assert any(T.value(i, j) != hacked.value(i, j) for j in range(T.count))
    with pytest.raises(TableVerificationError):
        _verify_table(hacked)
    _verify_table(_replace(T))


@pytest.mark.parametrize("shift", ["-1", "d+1", "+256"])
def test_verify_table_range_checks_dense_rows_before_narrowing(shift):
    """The dense block of G_(19,1)@5 handed in as int64 with -1, d + 1 or
    m + 256 at one entry of one row is rejected by the range check.  A
    uint8 cast would wrap -1 to 255, and m + 256 back to m, the table's own
    value."""
    from pgclass.chartable import _verify_table

    T = table("G_(19,1)", 5)
    i = next(i for i, r in enumerate(T.rows) if r.kind == "dense")
    m = np.array(T.rows[i].mults, dtype=np.int64)
    j = T.count // 2
    u = int(np.flatnonzero(m[:, j])[0])
    m[u, j] = {"-1": -1, "d+1": T.rows[i].degree + 1, "+256": m[u, j] + 256}[shift]
    hacked = _with_block_row(T, i, m)
    assert hacked.mults.dtype == np.int64
    with pytest.raises(TableVerificationError, match=r"outside \[0, degree\]"):
        _verify_table(hacked)


@pytest.mark.parametrize("label", VERIFY_LABELS)
@pytest.mark.parametrize("kind", ["central", "dense"])
def test_verify_table_rejects_galois_image(label, kind):
    """One central-type or dense row replaced by its image under
    sigma_s: zeta_e -> zeta_e^s, s the generator of (Z/e)^x that the
    verifier uses.  Every row is still a well-formed row of its kind, but
    the non-linear rows are no longer closed under sigma_s, and the
    closure check rejects the table."""
    from pgclass.chartable import _unit_gens, _verify_table

    T = table(label, 5)
    e = T.exponent
    (s,) = _unit_gens(e)

    def image(r):
        if r.kind == "central":
            c = r.cexp.astype(np.int64)
            return np.where(c >= 0, c * s % e, -1).astype(r.cexp.dtype)
        return np.asarray(r.mults)[np.arange(e) * pow(s, -1, e) % e]

    def galois(x):
        return Cyclotomic(x.order, {t * s % x.order: c for t, c in x.coeffs.items()})

    i = next(i for i, r in enumerate(T.rows)
             if r.kind == kind and not np.array_equal(image(r), _stored(r)))
    hacked = _with_block_row(T, i, image(T.rows[i]))
    row = hacked.rows[i]
    assert all(row.value(j) == galois(T.rows[i].value(j)) for j in range(T.count))
    assert any(row.value(j) != T.rows[i].value(j) for j in range(T.count))
    with pytest.raises(TableVerificationError, match="Galois"):
        _verify_table(hacked)


def _mults_of(r, e):
    """Row r's multiplicities as an int64 (e, k) array.  A central-type row
    has d at its exponent on the support and d / e at every exponent off
    it, where the value is 0 (e must divide d)."""
    if r.kind == "dense":
        return np.array(r.mults, dtype=np.int64)
    assert r.degree % e == 0
    m = np.full((e, r.k), r.degree // e, dtype=np.int64)
    support = np.flatnonzero(r.cexp >= 0)
    m[:, support] = 0
    m[r.cexp[support], support] = r.degree
    return m


def _with_galois_orbit(T, i, mults):
    """T with the non-linear row i replaced by a dense row of the
    multiplicities mults, and every row sigma_s^t(chi_i) of its orbit by
    sigma_s^t of it, moving the multiplicity at u to s u: the rows stay
    closed under sigma_s.  The blocks are rebuilt around the new dense
    rows, and the dense block is int64, so a table's narrow unsigned block
    has no say."""
    from pgclass.chartable import _unit_gens

    e = T.exponent
    (s,) = _unit_gens(e)
    image = np.arange(e) * pow(s, -1, e) % e  # an image's mult at u is at u s^-1
    stored = {b: _mults_of(r, e) for b, r in enumerate(T.rows) if r.kind != "unity"}
    new_rows = {}
    m, new, orbit = stored[i], np.array(mults, dtype=np.int64), []
    while not any(np.array_equal(m, o) for o in orbit):
        orbit.append(m)
        b = next(b for b, x in stored.items() if np.array_equal(x, m))
        assert (new >= 0).all() and (new.sum(axis=0) == T.rows[b].degree).all()
        new_rows[b] = new
        m, new = m[image], new[image]
    n_lin = len(T.lin_t)
    nonlin = T.rows[n_lin:]
    dense = T.dense | np.isin(np.arange(len(nonlin)) + n_lin, list(new_rows))
    cexp = [r.cexp for r, d in zip(nonlin, dense) if not d]
    mults = [new_rows.get(b, r.mults) for b, r, d in zip(range(n_lin, T.count), nonlin, dense)
             if d]
    return _replace(T, dense=dense,
                    cexp=np.array(cexp, dtype=T.cexp.dtype).reshape(-1, T.count),
                    mults=np.array(mults, dtype=np.int64).reshape(-1, e, T.count))


def _center_orbit(T, j):
    """{class y: digits over the chain generators b_a of Z(G) of an element
    z with y = cl(g_j z)} over the orbit of class j under Z(G)."""
    from pgclass.chartable import _center_translates

    _, perms = _center_translates(T.group, T.classes)
    seen, todo = {j: np.zeros(len(perms), dtype=np.int64)}, [j]
    while todo:
        x = todo.pop()
        for a, perm in enumerate(perms):
            y = int(perm[x])
            if y not in seen:
                seen[y] = seen[x] + np.eye(len(perms), dtype=np.int64)[a]
                todo.append(y)
    return seen


def _center_exponents(T, m):
    """The exponents c_a of the central character of a row with
    multiplicities m (e, k) at the chain generators b_a of Z(G), where the
    row is d zeta_e^c_a."""
    G = T.group
    return m[:, T.classes.classof[list(G.center.gens)]].argmax(axis=0)


def _twist(T, j, c):
    """{class y: exponent of mu(z)} over the Z(G)-orbit of class j, with
    y = cl(g_j z) and mu the character of Z(G) with exponents c at the b_a,
    or None when mu(z) is not well defined there: the exponent at the
    translate of y by b_a must be that at y plus c_a."""
    from pgclass.chartable import _center_translates

    e = T.exponent
    _, perms = _center_translates(T.group, T.classes)
    t = {y: int(digits @ c % e) for y, digits in _center_orbit(T, j).items()}
    if all(t[int(perms[a, y])] == (t[y] + c[a]) % e for y in t for a in range(len(c))):
        return t
    return None


def _change_center_orbits(T, i, deltas):
    """The multiplicities of row i, with deltas[j] rolled by the exponent
    of mu(z) added at the class of g_j z for every z in Z(G), mu the row's
    central character: the value there moves by mu(z) times the change
    deltas[j] makes at g_j, so the row keeps its central character.  mu(z)
    must be well defined on each orbit (_twist)."""
    m = _mults_of(T.rows[i], T.exponent)
    c = _center_exponents(T, m)
    for j, delta in deltas.items():
        for y, t in _twist(T, j, c).items():
            m[:, y] += np.roll(delta, t)
    return m


def _value_changes(T, hacked, i, deltas):
    """Check that row i of the table hacked differs from T's by mu(z) sum_u
    deltas[j][u] zeta_e^u at every class of g_j z, z in Z(G), and nowhere
    else."""
    e = T.exponent
    c = _center_exponents(T, _mults_of(T.rows[i], e))
    want = {}
    for j, delta in deltas.items():
        for y, t in _twist(T, j, c).items():
            want[y] = sum((int(x) * Cyclotomic.root(e, u + t) for u, x in enumerate(delta)),
                          Cyclotomic.zero())
    for y in range(T.count):
        assert hacked.value(i, y) - T.value(i, y) == want.get(y, Cyclotomic.zero())


@pytest.mark.parametrize("label", VERIFY_LABELS)
def test_verify_table_rejects_galois_closed_change(label):
    """A change that keeps every row's central character mu and keeps the
    non-linear rows closed under the Galois group is left to the residue
    checks.  Only a row with mu = 1 at every b_a whose translate keeps the
    G'-cosets takes coset sums; here those b_a generate Z(G), and such rows
    are of central type.  So one such row, stored dense, and every row of
    its orbit under sigma_s turn from 0 into p (multiplicities
    (p - 1, -1, ..., -1) more, e = p) at every class of one Z(G)-orbit off
    their support.  mu = 1, so each keeps its central character, and the
    coset sums of the orbit's classes move by |K_j| p times their count;
    the coset-sum step is the check that raises."""
    from pgclass.chartable import _verify_table

    T = table(label, 5)
    e, p = T.exponent, T.group.p
    assert e == p
    i = next(i for i, r in enumerate(T.rows) if r.kind == "central"
             and not _center_exponents(T, _mults_of(r, e)).any())
    j = int(np.flatnonzero(~T.nonzero_masks[i - len(T.lin_t)])[0])
    deltas = {j: np.r_[p - 1, np.full(e - 1, -1)]}
    hacked = _with_galois_orbit(T, i, _change_center_orbits(T, i, deltas))
    _value_changes(T, hacked, i, deltas)
    with pytest.raises(TableVerificationError, match="G'-coset sum"):
        _verify_table(hacked)


def test_gram_block_rejects_a_change_the_coset_sums_miss():
    """A change on one Z(G)-orbit off Z(G): one eigenvalue of a dense row
    moves from zeta^u mu(z) to zeta^(u+1) mu(z) at every class of g_j z,
    z in Z(G), mu the row's central character; the rows of its orbit under
    sigma_s take the images.  The rows keep their central characters and
    stay closed under the Galois group.  mu(b) != 1 for a b in Z(G) whose
    translate keeps every G'-coset, and the change is twisted by mu, so
    every coset sum of the row stays 0 (checked at a check prime).  The
    in-group products still reject the change, as the changed rows' norms
    move."""
    from pgclass.chartable import _check_primes, _coset_sums, _derived_cosets, _verify_table

    T = table("G_(19,1)", 5)
    e = T.exponent
    cosets = _derived_cosets(T)[1]
    center = set(_center_orbit(T, 0))
    i = next(i for i, r in enumerate(T.rows) if r.kind == "dense")
    m = np.asarray(T.rows[i].mults)
    c = _center_exponents(T, m)
    j = next(j for j in range(T.count) if j not in center and _twist(T, j, c) is not None)
    u = int(m[:, j].argmax())
    delta = np.zeros(e, dtype=np.int64)
    delta[u], delta[(u + 1) % e] = -1, 1
    hacked = _with_galois_orbit(T, i, _change_center_orbits(T, i, {j: delta}))
    _value_changes(T, hacked, i, {j: delta})
    qq, zp = _check_primes(e)[0]
    none = np.zeros((0, T.count), dtype=np.int8)
    for r in (T.rows[i], hacked.rows[i]):
        assert not _coset_sums(T, cosets, np.array([r.degree]), none, r.mults[None], qq,
                               zp).any()
    with pytest.raises(TableVerificationError, match="^a non-linear row fails orthogonality$"):
        _verify_table(hacked)


@pytest.mark.parametrize("label", VERIFY_LABELS)
def test_one_class_change_breaks_the_central_character(label):
    """The change the Galois-closed test made before rows were checked for
    a central character: a dense row and its orbit under sigma_s turn from
    0 into p at one class j alone.  The rows stay closed under the Galois
    group, but chi(g_j b) = mu(b) chi(g_j) fails for a chain generator b of
    Z(G): the value at g_j b stays 0 where the translate moves j, and where
    every translate fixes j, mu(b) != 1 for some b (every dense row here has
    a nontrivial mu).  The exact central-character check raises before any
    residue is formed."""
    from pgclass.chartable import _verify_table

    T = table(label, 5)
    e, p = T.exponent, T.group.p
    i = next(i for i, r in enumerate(T.rows) if r.kind == "dense")
    assert _center_exponents(T, _mults_of(T.rows[i], e)).any()
    j = int(np.flatnonzero(~T.nonzero_masks[i - len(T.lin_t)])[0])
    m = _mults_of(T.rows[i], e)
    m[:, j] += np.r_[p - 1, np.full(e - 1, -1)]
    hacked = _with_galois_orbit(T, i, m)
    assert hacked.value(i, j) == p
    with pytest.raises(TableVerificationError, match="^a dense row has no central character$"):
        _verify_table(hacked)


@pytest.mark.parametrize("label", VERIFY_LABELS)
def test_dense_row_must_be_a_root_of_unity_times_d_on_the_center(label):
    """A dense row, and its orbit under sigma_s, with one eigenvalue at the
    class of the first chain generator b_1 of Z(G) moved: the rows stay
    closed and well formed, but chi(b_1) is no longer d zeta_e^c, and the
    check of the Z(G) columns raises."""
    from pgclass.chartable import _verify_table

    T = table(label, 5)
    e = T.exponent
    i = next(i for i, r in enumerate(T.rows) if r.kind == "dense")
    b = int(T.classes.classof[T.group.center.gens[0]])
    m = _mults_of(T.rows[i], e)
    u = int(m[:, b].argmax())
    m[u, b] -= 1
    m[(u + 1) % e, b] += 1
    with pytest.raises(TableVerificationError,
                       match="^a dense row is not d times a root of unity on Z\\(G\\)$"):
        _verify_table(_with_galois_orbit(T, i, m))


def test_central_type_support_must_hold_the_center():
    """heisenberg_p3 at p = 3 with both degree-3 rows replaced by the row
    3 at the identity and 0 elsewhere: two equal rows, each its own
    Galois image, so the rows are closed under the Galois group and the
    degrees still add up.  Its support misses the classes of Z(G), and the
    central-character check raises before it compares any translate."""
    from pgclass.chartable import _verify_table

    T = table("heisenberg_p3", 3)
    assert list(T.degs) == [3, 3] and not T.dense.any()
    cexp = np.full(T.count, -1, dtype=np.int8)
    cexp[0] = 0
    with pytest.raises(TableVerificationError,
                       match="^a central-type row's support misses a class of Z\\(G\\)$"):
        _verify_table(_replace(T, cexp=np.stack([cexp, cexp])))


def test_central_type_row_must_have_a_central_character():
    """heisenberg_p3 at p = 3 with both degree-3 rows, one orbit of
    sigma_2, multiplied by zeta on their support: the first row's exponents
    move by 1 and its image's by 2, so the rows stay closed under the
    Galois group and keep their support, Z(G).  But the identity's
    translate by a chain generator b of Z(G) is b, and the exponent there
    is no longer the identity's plus the one at b: the first row is 3 zeta
    at the identity.  The central-character check raises."""
    from pgclass.chartable import _unit_gens, _verify_table

    T = table("heisenberg_p3", 3)
    e = T.exponent
    C = T.cexp.astype(np.int64)
    assert _unit_gens(e) == (2,) and np.array_equal(np.where(C[0] >= 0, 2 * C[0] % e, -1), C[1])
    hacked = np.where(C >= 0, (C + [[1], [2]]) % e, -1).astype(T.cexp.dtype)
    with pytest.raises(TableVerificationError,
                       match="^a central-type row has no central character$"):
        _verify_table(_replace(T, cexp=hacked))


def test_central_type_orbit_shift_fails_the_coset_sums():
    """G_(17,1) at p = 5: a central-type row chi whose support holds a
    Z(G)-orbit O of classes off Z(G), and each row sigma_s^t(chi) of its
    orbit under sigma_s, has its exponents on O moved by delta s^t.  The
    translates by Z(G) map O to itself, so every row keeps its central
    character and its support.  The image of the row moved by delta s^t
    is moved by delta s^(t+1), so the rows stay closed under sigma_s when
    delta (s^L - 1) = 0 (mod e) for the orbit's length L; here
    L = phi(e), and delta = 1 serves.  The rows are no longer d times a
    character of their support, and the G'-coset sums raise."""
    from pgclass.chartable import _unit_gens, _verify_table
    from pgclass.cyclotomic import phi

    T = table("G_(17,1)", 5)
    e = T.exponent
    (s,) = _unit_gens(e)
    C = T.cexp.astype(np.int64)
    central = np.zeros(T.count, dtype=bool)
    central[T.classes.classof[T.group.center.indices]] = True

    i = next(i for i in range(len(C)) if (C[i] >= 0)[~central].any())
    rows, c = [], C[i]  # the rows sigma_s^t(chi), t = 0, 1, ...
    while not rows or not np.array_equal(c, C[i]):
        rows.append(next(b for b in range(len(C)) if np.array_equal(C[b], c)))
        c = np.where(c >= 0, c * s % e, -1)
    assert len(rows) == phi(e)
    j = int(np.flatnonzero((C[i] >= 0) & ~central)[0])
    O = list(_center_orbit(T, j))
    assert (C[i, O] >= 0).all() and not central[O].any()
    for t, b in enumerate(rows):
        C[b, O] = (C[b, O] + pow(s, t, e)) % e
    with pytest.raises(TableVerificationError,
                       match="^a non-linear row fails orthogonality to the linear rows: "
                             "a G'-coset sum$"):
        _verify_table(_replace(T, cexp=C.astype(T.cexp.dtype)))


@pytest.mark.parametrize("label, dtype", [("G_(17,1)", np.int8), ("G_(14,3)", np.int16)])
def test_central_rows_are_views_of_one_exponent_block(label, dtype):
    """Every central-type row's cexp is a read-only view of one
    (rows, k) block of np.min_scalar_type(-e): int8 at e = 25, int16 at
    e = 625.  The block holds -1 exactly where the row is 0."""
    T = table(label, 5)
    e = T.exponent
    central = [r for r in T.rows if r.kind == "central"]
    block = central[0].cexp.base
    assert np.min_scalar_type(-e) == dtype
    assert block.shape == (len(central), T.count) and block.dtype == dtype
    assert not block.flags.writeable
    for i, r in enumerate(central):
        assert r.cexp.base is block and not r.cexp.flags.writeable
        assert (r.cexp == block[i]).all()
        assert ((r.cexp >= 0) == [r.value(j) != 0 for j in range(T.count)]).all()


@pytest.mark.parametrize("label", ["G_(17,1)", "G_(19,1)", "G_(14,3)"])
def test_rows_are_views_of_the_table_arrays(label):
    """Every row of a computed table is a view of its kind's array, row
    for row in table order: a linear row's t of lin_t, with the table's one
    digit matrix, a central-type row's cexp of the block cexp, and a dense
    row's mults of the block mults.  The kinds and degrees are the table's
    own: the linear rows first, then dense as the mask says."""
    T = table(label, 5)
    n_lin = len(T.lin_t)
    assert [r.kind == "unity" for r in T.rows] == [i < n_lin for i in range(T.count)]
    assert [r.kind == "dense" for r in T.rows[n_lin:]] == T.dense.tolist()
    assert [r.degree for r in T.rows[n_lin:]] == T.degs.tolist()
    seen = {"unity": 0, "central": 0, "dense": 0}
    for r in T.rows:
        block = {"unity": T.lin_t, "central": T.cexp, "dense": T.mults}[r.kind]
        view = _stored(r)
        assert view.base is block and not view.flags.writeable
        assert (view == block[seen[r.kind]]).all()
        seen[r.kind] += 1
        if r.kind == "unity":
            assert r.digits is T.digits
    assert seen == {"unity": n_lin, "central": len(T.cexp), "dense": len(T.mults)}


def test_replace_rebuilds_the_rows_from_the_blocks():
    """dataclasses.replace builds new rows from the arrays it is given: with
    the central-type block reversed, the new table's central-type rows read
    it in reverse, and the old table's rows still read the old block."""
    T = table("G_(17,1)", 5)
    C = T.cexp[::-1].copy()
    hacked = _replace(T, cexp=C)
    central = [i for i, r in enumerate(T.rows) if r.kind == "central"]
    assert len(central) == len(C) > 1
    for b, i in enumerate(central):
        assert hacked.rows[i].cexp.base is C and T.rows[i].cexp.base is T.cexp
        assert (hacked.rows[i].cexp == T.rows[central[-1 - b]].cexp).all()
        assert hacked.rows[i] is not T.rows[i] and hacked.rows[i].degree == T.rows[i].degree


@pytest.mark.parametrize("change", ["cexp", "mults", "dense", "degs"])
def test_blocks_must_match_the_kind_mask(change):
    """A table is refused when it is made if a block's row count differs
    from the kind mask's count of its kind, or the degrees do not match the
    mask: a central-type or dense block a row short, one central-type row
    marked dense, or one degree missing."""
    T = table("G_(17,1)", 5)
    dense = T.dense.copy()
    dense[np.flatnonzero(~dense)[0]] = True
    arrays = {"cexp": {"cexp": T.cexp[:-1]}, "mults": {"mults": T.mults[:-1]},
              "dense": {"dense": dense}, "degs": {"degs": T.degs[:-1]}}[change]
    with pytest.raises(TableVerificationError, match="^a row block does not match the kind mask$"):
        _replace(T, **arrays)


@pytest.mark.parametrize("wrong, message", [
    ("short", r"not a \(k,\) array"),
    ("unsigned", "not signed integers"),
    ("float", "not signed integers"),
    ("e", r"outside \[-1, e\)"),
    ("-2", r"outside \[-1, e\)"),
    ("identity", "0 at the identity class"),
])
def test_verify_table_refuses_malformed_central_exponents(wrong, message):
    """The central-type block of G_(17,1)@5 handed in with rows of the
    wrong shape, in an unsigned or float dtype, or with one row holding a
    value e or -2, or -1 at the identity class, is refused with the typed
    error.  A uint8 copy would read -1 as 255, and int8 arithmetic could
    wrap."""
    from pgclass.chartable import _verify_table

    T = table("G_(17,1)", 5)
    i = next(i for i, r in enumerate(T.rows) if r.kind == "central")
    _, b = _block_of(T, i)
    C = np.array(T.cexp, dtype=np.int64)
    j = int(np.flatnonzero(C[b] >= 0)[-1])
    if wrong == "short":
        C = C[:, :-1]
    elif wrong == "unsigned":
        C = C.astype(np.uint8)
    elif wrong == "float":
        C = C.astype(np.float64)
    elif wrong == "identity":
        C[b, 0] = -1
    else:
        C[b, j] = T.exponent if wrong == "e" else -2
    with pytest.raises(TableVerificationError, match=message):
        _verify_table(_replace(T, cexp=C))


def test_dense_block_is_exponent_major():
    """The dense block of G_(19,1)@5 is one C-contiguous (rows, e, k)
    array, and each dense row's mults is a read-only (e, k) view of it, so
    a row's slice at one exponent is contiguous over the classes.  The same
    block handed in the (rows, k, e) order, on this table where k != e, is
    refused by the shape check."""
    from pgclass.chartable import _verify_table

    T = table("G_(19,1)", 5)
    k, e = T.count, T.exponent
    assert k != e
    D = T.mults
    assert D.shape == (np.count_nonzero(T.dense), e, k) and D.flags.c_contiguous
    dense = [r for r in T.rows if r.kind == "dense"]
    for i, r in enumerate(dense):
        assert r.mults.shape == (e, k) and r.mults.flags.c_contiguous
        assert r.mults.base is D and not r.mults.flags.writeable
        assert np.shares_memory(r.mults, D[i])
    old = np.ascontiguousarray(D.transpose(0, 2, 1))
    with pytest.raises(TableVerificationError,
                       match=r"^dense multiplicities are not an \(e, k\) array per row$"):
        _verify_table(_replace(T, mults=old))


@pytest.mark.parametrize("wrong, message", [
    ("repeat", "not a permutation of the classes"),
    ("swap", "changes a class size"),
])
def test_center_translates_must_be_size_keeping_permutations(monkeypatch, wrong, message):
    """The verifier takes the translates g_j -> g_j b_a of the classes by
    the chain generators of Z(G) from _center_translates and trusts no part
    of them: a translate that hits one class twice, or one with two
    entries swapped so that it moves a class onto one of another size, is
    refused before any row is read."""
    import pgclass.chartable as ct

    T = table("G_(20,1)", 5)
    translates = ct._center_translates
    sizes = T.classes.sizes

    def changed(G, cls):
        gens, perms = translates(G, cls)
        perms = perms.copy()
        if wrong == "repeat":
            perms[0, 1] = perms[0, 0]
        else:
            j = int(np.flatnonzero(sizes[perms[0]] != sizes[perms[0, 0]])[0])
            perms[0, [0, j]] = perms[0, [j, 0]]
            assert (np.sort(perms[0]) == np.arange(T.count)).all()
        return gens, perms

    monkeypatch.setattr(ct, "_center_translates", changed)
    with pytest.raises(TableVerificationError, match=message):
        ct._verify_table(_replace(T))


@pytest.mark.parametrize("wrong", ["finer", "coarser"])
def test_coset_count_must_equal_the_linear_rows(monkeypatch, wrong):
    """Coset ids that do not number |G:G'| cosets are refused before any
    coset sum is read: one coset per class, or two cosets merged."""
    import pgclass.chartable as ct

    T = table("G_(20,1)", 5)
    gens, cosets = ct._derived_cosets(T)
    ids = np.arange(T.count) if wrong == "finer" else np.minimum(cosets, cosets.max() - 1)
    monkeypatch.setattr(ct, "_derived_cosets", lambda T: (gens, ids))
    with pytest.raises(TableVerificationError, match="G'-cosets do not number the linear rows"):
        ct._verify_table(_replace(T))


def test_coset_subgroup_must_lie_in_every_linear_kernel(monkeypatch):
    """The coset sums do not trust G.derived.  In heisenberg_p3 at p = 3,
    the subgroup H = <x z^2> has order p = |G'| but is not G', and the
    class reps lie in |G:G'| of its cosets H g, so coset ids of H pass the
    count; the linear row with x -> zeta is not trivial on H, and that
    check raises before any coset sum is read."""
    import pgclass.chartable as ct
    from pgclass.group import _chain_gens, _orbit_minima

    T = table("heisenberg_p3", 3)
    G = T.group
    x, z = G.gen_index(0), G.gen_index(2)
    h = G.mul(x, G.pow(z, 2))
    H = pg.subgroup_generated([h], G)
    assert H.order == G.derived.order and not G.derived.contains(h)
    gens = _chain_gens(G, H.indices)
    least = _orbit_minima(G, [G.lmul_perm(g) for g in gens])
    ids = np.unique(least[T.classes.reps], return_inverse=True)[1].reshape(-1)
    assert ids.max() + 1 == ct._derived_cosets(T)[1].max() + 1
    monkeypatch.setattr(ct, "_derived_cosets", lambda T: (gens, ids))
    with pytest.raises(TableVerificationError, match="not trivial on the G'-cosets' subgroup"):
        ct._verify_table(_replace(T))


def _rational_of_coeffvec(c, e):
    """(is_rational mask, value) for integer coefficient vectors over the
    powers of zeta_e, e a prime power r^a > 1; shapes (..., e).  The
    relations among the powers are the sums over cosets of the subgroup of
    order r, so sum_tau c[tau] zeta^tau is rational iff c is constant on
    each coset but the one of 0, where it may exceed the others by the
    value."""
    r = next(f for f in range(2, e + 1) if e % f == 0)
    m = e // r
    resh = c.reshape(*c.shape[:-1], r, m)
    ref = resh[..., 1, :]
    ok_tail = (resh[..., 1:, :] == ref[..., None, :]).all(axis=(-1, -2))
    ok_head = (resh[..., 0, 1:] == ref[..., 1:]).all(axis=-1)
    value = resh[..., 0, 0] - ref[..., 0]
    return ok_tail & ok_head, value


def full_tensor_pair_values(T, dense):
    """The full-tensor orthogonality oracle: c[a, b, tau] is the
    coefficient of zeta_e^tau in |G| <chi_a, chi_b>
    = sum_j |K_j| chi_a(g_j) conj chi_b(g_j) for every dense row a and
    every row b, summed over all k classes, with one np.roll of the
    (dense, e, k) tensor per shift."""
    k, e = T.count, T.exponent

    def row_tensor(rows):
        out = np.zeros((len(rows), e, k), dtype=np.float64)
        for i, r in enumerate(rows):
            if r.kind == "unity":
                out[i, np.asarray(r.texp) % e, np.arange(k)] = 1.0
            elif r.kind == "central":
                support = np.flatnonzero(r.cexp >= 0)
                out[i, r.cexp[support], support] = float(r.degree)
            else:
                out[i] = r.mults
        return out

    A = row_tensor(dense) * T.classes.sizes.astype(np.float64)
    B = row_tensor(T.rows).reshape(T.count, -1)
    c = np.empty((e, len(dense), T.count), dtype=np.int64)
    for tau in range(e):
        c[tau] = np.rint(np.roll(A, -tau, axis=1).reshape(len(dense), -1) @ B.T)
    return np.moveaxis(c, 0, -1)


def _pair_inputs(T):
    """(rows, deg, C, D, plan): the non-linear row indices of T in the
    pair check's order, central-type rows first, their degrees in that
    order, T's two blocks and its _pair_plan (or the error, when the plan
    refuses T)."""
    from pgclass.chartable import _pair_plan

    central = [i for i, r in enumerate(T.rows) if r.kind == "central"]
    dense = [i for i, r in enumerate(T.rows) if r.kind == "dense"]
    deg = np.array([T.rows[i].degree for i in central + dense], dtype=np.int64)
    try:
        plan = _pair_plan(T)
    except TableVerificationError as exc:
        plan = exc
    return central + dense, deg, T.cexp, T.mults, plan


def _basepoint_residues(plan, qq, zp):
    """R with R[0] every row's value at the basepoints and R[1] its
    conjugate, reduced at zeta_e -> z' in GF(qq): the pair check's
    _residues call."""
    from pgclass.chartable import _residues

    both = np.stack([zp, zp[-np.arange(zp.size) % zp.size]], axis=1)
    return _residues(plan.deg, plan.C_at, plan.D_at, both, qq)


def _in_group_products(plan, qq, zp):
    """The pair check's in-group products at a check prime: (rows, P) per
    batch of plan.batches, over the basepoints with the weights |O| |K_j|."""
    from pgclass.chartable import _group_products

    R = _basepoint_residues(plan, qq, zp)
    return _group_products(plan, R[0] * (plan.weights % qq) % qq, R[1], qq)


@pytest.mark.parametrize("label", VERIFY_LABELS)
@pytest.mark.parametrize("kind", [None, "dense_nonzero", "dense_vanishing"])
def test_common_support_products_match_full_tensor(label, kind):
    """The pair check's residues at each check prime q' are the full-tensor
    oracle's exact values reduced at zeta_e -> z'.  Against every linear
    row lambda, sum_x S(x) conj lambda(x) over the G'-coset sums S(x) of
    every dense row, on the table and on copies with one dense entry
    changed.  On the table, the in-group product of every dense row with
    every row of its central character, over the Z(G)-orbit basepoints;
    there the oracle's values are |G| delta_ab, so every entry between
    rows of different central characters is 0.  Each changed copy loses
    its dense row's central character, which _pair_plan refuses."""
    from pgclass.chartable import _check_primes, _coset_sums, _derived_cosets

    T = table(label, 5)
    if kind is not None:
        T = mutate(T, kind)
    e = T.exponent
    lin = [i for i, r in enumerate(T.rows) if r.kind == "unity"]
    dense = [i for i, r in enumerate(T.rows) if r.kind == "dense"]
    order, deg, C, D, plan = _pair_inputs(T)
    n_c = C.shape[0]
    assert isinstance(plan, TableVerificationError) == (kind is not None)
    if kind is not None:
        assert str(plan) == "a dense row has no central character"
    cosets = _derived_cosets(T)[1]
    assert cosets.max() + 1 == len(lin)
    # a linear row is constant on each coset: read it at the coset's first class
    first = np.unique(cosets, return_index=True)[1]
    lin_on_cosets = np.stack([T.rows[i].texp[first] for i in lin])
    c = full_tensor_pair_values(T, [T.rows[i] for i in dense])
    for qq, zp in _check_primes(e)[:2]:
        want = (c % qq) @ zp % qq
        sums = _coset_sums(T, cosets, deg[n_c:], C[:0], D, qq, zp)
        assert (sums @ zp[-lin_on_cosets % e].T % qq == want[:, lin]).all()
        if kind is None:
            checked = 0
            for rows, P in _in_group_products(plan, qq, zp):
                for g, x in zip(*np.nonzero(rows >= n_c)):
                    b = [order[r] for r in rows[g]]
                    assert (P[g, x] == want[rows[g, x] - n_c, b]).all()
                    checked += 1
            assert checked == len(dense)
    ok, val = _rational_of_coeffvec(c, e)
    if kind is None:
        assert ok.all()
        assert (val[np.arange(len(dense)), dense] == T.group.order).all()
        assert np.count_nonzero(val) == len(dense)
    else:
        assert not (ok.all() and np.count_nonzero(val) == len(dense))


def reference_gram_mod(T, cosets, nonlin, qq, zp, D):
    """(sums, gram, diag) reduced at zeta_e -> z' in GF(qq), zp[t] = z'^t
    mod qq, for a, b in nonlin, over all k classes: the coset sums
    sums[a, x] = sum over the classes j with cosets[j] = x of
    |K_j| chi_a(g_j); the full Gram matrix
    gram[a, b] = sum_j |K_j| chi_a(g_j) conj chi_b(g_j); and the column
    sums diag[j] = sum over nonlin of |chi(g_j)|^2.  zeta_e^t reduces to
    zp[t] and its conjugate to zp[-t], so a central-type row to
    d zp[cexp] on its support, and the dense rows, the rows of D in their
    order in nonlin, to zp @ D, in int64.  The float64 product adds k
    terms below (qq-1)^2: exact while k (qq-1)^2 < 2^53, which holds at
    every check prime.  This is the check the verifier made before it
    grouped the rows by central character."""
    cls = T.classes
    k = cls.count
    e = T.exponent
    m = len(nonlin)
    assert k * (qq - 1) ** 2 < 2**53
    both = np.stack([zp, zp[-np.arange(e) % e]], axis=1)
    R = np.zeros((m, k), dtype=np.int64)  # the rows' residues
    Rc = np.zeros((m, k), dtype=np.int64)  # their conjugates'
    dense = []
    for i, r in enumerate(nonlin):
        if r.kind == "central":
            support = np.flatnonzero(r.cexp >= 0)
            vals = r.degree * both[r.cexp[support]] % qq
            R[i, support], Rc[i, support] = vals[:, 0], vals[:, 1]
        else:
            dense.append(i)
    res = both.T @ np.asarray(D, dtype=np.int64) % qq  # (rows, 2, k)
    R[dense], Rc[dense] = res[:, 0], res[:, 1]
    diag = (R * Rc % qq).sum(axis=0) % qq
    R = R * (cls.sizes % qq) % qq  # now |K_j| chi_a(g_j)
    by = np.argsort(cosets, kind="stable")
    starts = np.flatnonzero(np.r_[True, cosets[by][1:] != cosets[by][:-1]])
    sums = np.add.reduceat(R[:, by], starts, axis=1) % qq
    gram = (R.astype(np.float64) @ Rc.astype(np.float64).T).astype(np.int64) % qq
    return sums, gram, diag


NONABELIAN = [(label, p) for label in pg.corpus.labels() for p in (3, 5)
              if pg.REGISTRY[label].covers(p) and not label.startswith(("C_", "E_"))]


@pytest.mark.parametrize("label,p", NONABELIAN)
def test_pair_check_matches_the_full_gram_matrix(label, p):
    """The pair check against the full Gram matrix it replaced
    (reference_gram_mod), at the first two check primes, on every
    non-abelian corpus table at p = 3 and 5: the Gram entries between rows
    of different central characters are 0; the in-group products over the
    Z(G)-orbit basepoints are its entries; the coset sums are its coset
    sums, and the rows that skip them (mu(b) != 1 for a chain generator b
    of Z(G) whose translate keeps every coset) have them all 0; and the
    column sums at the basepoints are its column sums there."""
    from pgclass.chartable import _check_primes, _coset_sums, _derived_cosets

    T = table(label, p)
    e = T.exponent
    order, deg, C, D, plan = _pair_inputs(T)
    n_c = C.shape[0]
    nonlin = [T.rows[i] for i in order]
    assert nonlin
    cosets = _derived_cosets(T)[1]
    keeps = (cosets[plan.perms] == cosets).all(axis=1)
    summed = ~plan.chars[:, keeps].any(axis=1)
    same = (plan.chars[:, None, :] == plan.chars[None, :, :]).all(axis=2)
    for qq, zp in _check_primes(e)[:2]:
        sums, gram, diag = reference_gram_mod(T, cosets, nonlin, qq, zp, D)
        assert not gram[~same].any()
        seen = np.zeros(gram.shape, dtype=bool)
        for rows, P in _in_group_products(plan, qq, zp):
            assert (P == gram[rows[:, :, None], rows[:, None, :]]).all()
            seen[rows[:, :, None], rows[:, None, :]] = True
        assert (seen == same).all()
        new = _coset_sums(T, cosets, deg[summed], C[summed[:n_c]], D[summed[n_c:]], qq, zp)
        assert (new == sums[summed]).all()
        assert not sums[~summed].any()
        R = _basepoint_residues(plan, qq, zp)
        assert ((R[0] * R[1] % qq).sum(axis=0) % qq == diag[plan.basepoints]).all()


@pytest.mark.parametrize("e", [3, 9, 27, 81, 5, 25, 625, 7, 49, 2401, 4, 8, 16])
def test_unit_gens_generate_the_units(e):
    """The generators that the closure check uses reach every unit mod e,
    one of them when e is odd."""
    from pgclass.chartable import _unit_gens

    gens = _unit_gens(e)
    reached = {1}
    while True:
        more = reached | {x * s % e for x in reached for s in gens}
        if more == reached:
            break
        reached = more
    assert reached == {x for x in range(1, e) if math.gcd(x, e) == 1}
    assert len(gens) == 1 or e % 2 == 0


def test_two_group_table_closes_under_two_generators():
    """(Z/8)^x = {+-1} x <5> is not cyclic, so the closure check of a
    2-group of exponent 8 runs over sigma_-1 and sigma_5.  M16 = <x, y>,
    x of order 8 and [y, x] = x^4, has two degree-2 rows that complex
    conjugation swaps; with the second replaced by the first, only
    sigma_-1 sees the rows are not closed."""
    from pgclass.chartable import _unit_gens, _verify_table

    P = parse_presentation("""group M16 prime 2
gens x y a b
pow x^p = a
pow a^p = b
comm [y,x] = b
""")
    T = pg.compute_table(P)
    assert (T.exponent, T.cd_multiset()) == (8, {1: 8, 2: 2})
    assert T.verification["row_orthogonality"] == "structural+gram"
    assert sorted(_unit_gens(8)) == [5, 7]
    a, b = [i for i, r in enumerate(T.rows) if r.degree == 2]
    assert T.rows[a].kind == T.rows[b].kind
    with pytest.raises(TableVerificationError, match="Galois"):
        _verify_table(_with_block_row(T, b, _stored(T.rows[a])))


@pytest.mark.parametrize("e", [3, 25, 49, 625, 2401])
def test_check_primes_are_the_largest_below_the_ceiling(e):
    """_check_primes gives the largest primes q' = 1 (mod e) below 2^20,
    none skipped, until their product exceeds 2^64, each with the powers
    of an element of order e mod q'."""
    from pgclass.chartable import _check_primes

    primes = _check_primes(e)
    qs = [qq for qq, _ in primes]
    want = []
    qq = (2**20 - 2) // e * e + 1
    while math.prod(want) <= 2**64:
        if is_prime(qq):
            want.append(qq)
        qq -= e
    assert qs == want
    for qq, zp in primes:
        z = int(zp[1])
        assert [int(x) for x in zp] == [pow(z, t, qq) for t in range(e)]
        assert all(pow(z, e // r, qq) != 1 for r in {f for f in (2, 3, 5, 7) if e % f == 0})


def test_row_coincidence_helpers():
    from pgclass.chartable import _distinct_rows, _sorted_rows

    A = np.array([[1, 2, 0], [3, 4, 0], [1, 2, 0]])
    B = np.array([[5, 6, 0], [3, 4, 0]])
    assert _distinct_rows(A) == 2
    assert _distinct_rows(B) == 2
    assert (_sorted_rows(A[[2, 1, 0]]) == _sorted_rows(A)).all()
    assert (_sorted_rows(A[[0, 1, 1]]) != _sorted_rows(A)).any()


@pytest.mark.parametrize("dtype,cols", [(np.uint8, 1), (np.uint8, 7), (np.uint8, 8), (np.uint8, 9),
                                        (np.bool_, 5), (np.uint16, 4), (np.uint16, 5),
                                        (">i8", 1), (np.int8, 3)])
def test_row_keys_sort_and_compare_as_bytes(dtype, cols):
    """A row of 1 to 8 bytes packs into one uint64 and any wider row is a
    void scalar; either way the keys sort, and are equal, exactly as the
    rows' bytes are."""
    rng = np.random.default_rng(cols)
    M = rng.integers(-2, 3, size=(400, cols)).astype(dtype)
    keys = _row_keys(M)
    assert keys.dtype == (np.uint64 if M.itemsize * cols <= 8 else np.dtype((np.void, M.itemsize * cols)))
    raw = M.view(np.uint8).reshape(len(M), -1)
    by_bytes = np.lexsort(raw.T[::-1])
    assert (np.argsort(keys, kind="stable") == by_bytes).all()
    assert ((keys[:, None] == keys[None]) == (raw[:, None] == raw[None]).all(axis=2)).all()
