"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; expected values were fixed by independent hand evaluation before
the implementing code was written (see the inline notes).
"""

import hashlib
import json
import time

import numpy as np
import pytest

import pgclass as pg
from pgclass.chartable import table_of
from pgclass.classify import is_central_type
from pgclass.corpus import isoclinic_brute
from pgclass.presentation import presentation_text
from pgclass.verify import bundle, run_ingested_census, run_paper_suite, suite_to_json_text

# the instantiated acceptance corpus: every registry entry at 3, 5, 7
# within its prime range
CORPUS = [
    (label, p)
    for label, entry in pg.REGISTRY.items()
    for p in (3, 5, 7)
    if p >= entry.min_p
]

HEAVY = [(label, p) for label, p in CORPUS if pg.REGISTRY[label].order_exp >= 6 or p == 7]


def _ok(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_table_soundness():
    """Sum of squared degrees, exact orthogonality, degree bound, runtime."""
    worst = {}
    for label, p in CORPUS:
        b = bundle(label, p)
        T, G = b["table"], b["group"]
        assert sum(d * d for d in T.degrees()) == G.order, (label, p)
        v = T.verification
        assert v["sum_of_squares"] == "exact"
        assert v["row_orthogonality"] in ("structural", "structural+gram")
        assert v["column_diagonal"] == "exact"
        zorder = G.center.order
        for d in T.degrees():
            assert (G.order // zorder) % (d * d) == 0
        limit = 60.0 if G.order == 7**6 else (2.0 if G.order <= 3**6 else 60.0)
        assert b["table_seconds"] <= limit, (label, p, b["table_seconds"])
        worst[G.order] = max(worst.get(G.order, 0.0), b["table_seconds"])
    _ok(1, f"tables exact for {len(CORPUS)} corpus groups; "
           f"slowest 7^6 table {worst.get(7**6, 0):.1f}s (limit 60s)")


# Golden outputs, as sha256 hex digests: of json.dumps(T.to_json(),
# sort_keys=True) for every corpus table at p = 7 (the p = 3, 5 tables are
# pinned in their indented form in test_chartable.py; at p = 7 the compact
# form runs in the C encoder, about a third of the time); of
# json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n" for the
# classification report of every corpus entry at p = 3, 5, 7; and of
# suite_to_json_text for the paper suite at p = 3, 5.  They were taken before
# the linear characters were read from the pc relations, and a change that
# keeps the outputs must leave every one of them as it is.  The tables and
# reports come from verify.bundle, which test_criterion_01 has filled.
TABLE_JSON_SHA256_P7 = {
    "C_p": "c90858a79b4d13d9ece7a3db5ec23ccefee8ff4bb068b32d9846b75c34ef7ca8",
    "C_p2": "46797b1592301949e933502f2b0f492d410cb64c864308bde732ca32c51079fc",
    "C_p3": "910d7fcb114b93d0f41bfe9de121ec03371cb17f4de554e73dca3c6097432e09",
    "E_p2": "fa664d631b1830ac06ac36654348fa67d98371f70a08595ea6e03fc266ecef8e",
    "E_p3": "6143d8f981e8f04a27fad4ccf3a15722638cd49f62139455f5857c9ed070f078",
    "heisenberg_p3": "d125dd0926aefed2d9429ad6b2f84d2b7dd7ee6dea2f8bdc5edb03967e359c5b",
    "extraspecial_p3_exp_p2": "f4042de537d281b47e73aa2d2ffe541cbd02534697367c74282bd7b583f26271",
    "extraspecial_p5_exp_p": "d3c497ef81787e1be1e3ad18ed62468e8a8d810966b01f6b8aa5da48499b2efd",
    "heisenberg_x_Cp": "b92648b57a04d50d79225252e6466e6a91c719306cc0d3f67fd262a79fbc0683",
    "heisenberg_x_heisenberg": "ea1bf7dd331af17a1c015b097f530a68500db672ec231016ad6412d0216c643f",
    "G_(12,1)": "657a6507eaf12aa7ebd23cc01d78f00f19c9b86ef0c2e055ffc462c9f2dabb6f",
    "G_(14,3)": "47ec4a005c98cad3f8eb66311fbbfa200c1afbeab414148794e328dbbc914d8d",
    "G_(17,1)": "c08bb93d6abf85804972c20d683676ca7cd8c145a7b15b5316cf739f44568ba6",
    "G_(18,1)": "4f22f42e767a0473f76ccae4342bfa65f06f4825f47b948a22174bf6258d683a",
    "G_(19,1)": "afe547773996cafa897abe1a4a237827d389959fce251bfe0487b27db7270065",
    "G_(20,1)": "5484490385c9bd1df4c69183a20130de932af3a9c9e37e07160543a4ba389b30",
}
REPORT_JSON_SHA256 = {
    ("C_p2", 3): "76cee5868d8a8b54f98dbc9661a5ae6fd0cf636e5a40ad5c98a83f4107424d8b",
    ("C_p2", 5): "2de14dda2f6c6318d5ad32a9dad2047f8d0eb11e7a13f14047711bb83a9c1429",
    ("C_p2", 7): "87b81973a2c8b9c26502d526732ecec77de4a8173338fc78782039c3658636de",
    ("C_p3", 3): "7a8dc59fd32bc1769e05d9e2f69d1fe293fe641d9e2300aad66d19f086d2849f",
    ("C_p3", 5): "3568f716c321852fb65cfb12afb437d9e505df794c907fca6bae11b1a5e50715",
    ("C_p3", 7): "182d00c4825858d7126a9278826c6918779ab195db8d75efef17eea1be0290fd",
    ("C_p", 3): "0b9cc6c2ae8b1f1b37385782c1026799f43b6ce62e2f42ed2cde48d48885a5c8",
    ("C_p", 5): "467f2f1ffac8d8312e40e62516a9f39f8294b32604100d61635f7083630d2d06",
    ("C_p", 7): "eb334d16f336024d5eb58b0d7134ba575cd895ff830ebbf3eb13ec1dbe7caa61",
    ("E_p2", 3): "83fb99976ebd6b3f10cf687971e5e01f9ae43d8ba034e310d56d304a3c3465de",
    ("E_p2", 5): "7610ee703a597fc08d50e9e31cfefa429f68a7ad1cb2885af2f824da029c12f4",
    ("E_p2", 7): "7053879ce930614a45786bf0373378661cc5a62b4a14ac60006c16d930351b38",
    ("E_p3", 3): "76451cac8ebfe4d5080d9ac2b23d729cd3150d24f98868668bb0f55d9172f3c1",
    ("E_p3", 5): "bc777bee46c9c5881ce62e298863008f547a9837d67a3f287dd68fb0aef1487c",
    ("E_p3", 7): "598bc2863734bd72446d5aa1f13d01bc3df3fdbd34e4a1daa0089887a472abab",
    ("G_(12,1)", 5): "5f680f2bea9d7080a555f09002817d1f0065f813e818f10eb9efb88953a8a570",
    ("G_(12,1)", 7): "f0c42b0b6d41b642811ae4f36575606b975451d8080ade9d0710a9a5b6e899a1",
    ("G_(14,3)", 5): "e7b230d929350f22b75e7f525884476d091a6eb9d1590bcefccda8a5f611a26c",
    ("G_(14,3)", 7): "cfc433b97008fd3095335e5da56b09ca90ac6b1309baa7e5310a8f51c33adb7a",
    ("G_(17,1)", 5): "599c2f3160d0b3c8f5447e8d473b48b2108616f6a2f3c3f9bc11ec1bc725ff6c",
    ("G_(17,1)", 7): "03ee8bc18a68f145148ebf5b121a1ee4da7c752294bae522780ed1b929f93704",
    ("G_(18,1)", 5): "a8638acc665e4cc5fa62ff733c68f84a583e406cfaa620227d840a96a12dfd70",
    ("G_(18,1)", 7): "f678c7e419defe56689f385dae94e518a2f0a2f40d2239fc2f59111a20a5e681",
    ("G_(19,1)", 5): "94b9da6f97c0b06742c6926bffcca830475792da1a8250f2b187617477a1a99c",
    ("G_(19,1)", 7): "0fa6ce5633a09b2c1867d99c0a23800f0c0913196d01ea505c54aaebc67832a5",
    ("G_(20,1)", 5): "6d9c368068e4a38a021ef4851cc4f4d3b325d53a78af91092ca59b51bcd3604d",
    ("G_(20,1)", 7): "192c5e754f908f3e12ee1aad5caf3997630734c87311b0adf5e8a33eddc35db3",
    ("extraspecial_p3_exp_p2", 3): "82a195ff385c3f505acab99b92f3b860bfe23680cef1972947601dc9681a02b4",
    ("extraspecial_p3_exp_p2", 5): "559a632481870854ed91e7a6c327fa9a66d5b48d88aceeb510b2ed7cd52fc24d",
    ("extraspecial_p3_exp_p2", 7): "d18c251c4a99227b17b9c87b6657012d90e149395558fd8c5655386a59762dea",
    ("extraspecial_p5_exp_p", 3): "e627e46643ffa67ab726d4aaad1c2192295c327ddeec346df098f61c4ec45b95",
    ("extraspecial_p5_exp_p", 5): "78b146b664c8e02cc71c65ff879e32110ea13d57f582a9164d3dfbe9c8d6234b",
    ("extraspecial_p5_exp_p", 7): "95eb945a3a527f2339cd8fc48b20955f0353e0ca37d89dc6bcb2ef2a2205e9e2",
    ("heisenberg_p3", 3): "748d9d57905ed3779bd7db5e84bec98614f46669636e9d823781d2ea0fdb1e0d",
    ("heisenberg_p3", 5): "ad43df0f9c4a0d16ba599b67f7547d5dc32f1ef67e6eff6ff4f3cfbd2e1d84f7",
    ("heisenberg_p3", 7): "525231cae95816d2ec3d3b739262d67fc7f1cb016c565a2fc1c0328d7627c1f1",
    ("heisenberg_x_Cp", 3): "5928d197fd983c75b1dedadeb4e1013a93795c96eee5a9aeca44218bf8649081",
    ("heisenberg_x_Cp", 5): "9fd65a873f3c0c46aa31ed8ad082af958425e0c6596adeaef0182d11d5d6dfea",
    ("heisenberg_x_Cp", 7): "e972b845f7f3c002e672f53dbe025cb0d96d2f976a6cb325291d310249f66bf2",
    ("heisenberg_x_heisenberg", 3): "aeac2db647ce7548edb481c2bd1116f314411324d983aad8170032c746f37cc0",
    ("heisenberg_x_heisenberg", 5): "2b47c0b789dad5ca5a17762251585b968a56d95d8b95f2ea5ec8ee855dd6373f",
    ("heisenberg_x_heisenberg", 7): "106c82d29001dcba80b8fec6af4fe661ba1b25ff1d25945e6b428857065e0865",
}

SUITE_35_JSON_SHA256 = "e3e86e11b054f2dfce01ee0b457783308f429a14fa0747bd5a8a701dfac2f2ce"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_table_json_golden_hashes_p7():
    assert set(TABLE_JSON_SHA256_P7) == {label for label, p in CORPUS if p == 7}
    wrong = [label for label, want in TABLE_JSON_SHA256_P7.items()
             if _sha256(json.dumps(bundle(label, 7)["table"].to_json(), sort_keys=True)) != want]
    assert not wrong


def test_report_json_golden_hashes():
    assert set(REPORT_JSON_SHA256) == set(CORPUS)
    wrong = [key for key, want in REPORT_JSON_SHA256.items()
             if _sha256(json.dumps(bundle(*key)["report"].to_json(), indent=2,
                                   sort_keys=True) + "\n") != want]
    assert not wrong


def test_suite_json_golden_hash():
    assert _sha256(suite_to_json_text(run_paper_suite(primes=(3, 5)))) == SUITE_35_JSON_SHA256


def test_criterion_02_flat_gvz_agreement():
    for label, p in CORPUS:
        b = bundle(label, p)
        assert b["report"].is_gvz == b["report"].is_flat, (label, p)
    _ok(2, f"flat and central-type verdicts agree on all {len(CORPUS)} corpus groups")


def test_criterion_03_verdict_regression():
    expected = {
        "G_(12,1)": dict(gvz=True, nested=False),
        "G_(14,3)": dict(gvz=True, nested=True),
        "G_(17,1)": dict(gvz=False, nested=False),
        "G_(18,1)": dict(gvz=True, nested=False),
        "G_(19,1)": dict(gvz=False, nested=False),
        "G_(20,1)": dict(gvz=False, nested=False),
        "heisenberg_p3": dict(gvz=True, nested=True, vz=True),
        "extraspecial_p3_exp_p2": dict(gvz=True, nested=True, vz=True),
        "heisenberg_x_heisenberg": dict(gvz=True, nested=False),
    }
    checked = 0
    for label, want in expected.items():
        primes = [p for p in (5, 7) if p >= pg.REGISTRY[label].min_p]
        for p in primes:
            rep = bundle(label, p)["report"]
            got = dict(gvz=rep.is_gvz, nested=rep.is_nested, vz=rep.is_vz)
            for key, val in want.items():
                assert got[key] == val, (label, p, key, got)
            checked += 1
    _ok(3, f"all published verdicts reproduced at p in {{5,7}} ({checked} group instances)")


def test_criterion_04_special_degree_suite():
    total = 0
    for label, p in CORPUS:
        b = bundle(label, p)
        v = pg.check_special_degree(b["table"])
        assert v == [], (label, p, v)
        total += 1
    _ok(4, f"degree-sqrt(|G/Z|) rows vanish off the center in all {total} groups")


def test_criterion_05_lift_suite():
    for p in (5, 7):
        G = bundle("G_(18,1)", p)["group"]
        K = pg.subgroup_generated([G.element_of(1)], G)
        assert K.order == p
        Q = pg.quotient(G, K)
        TQ = table_of(Q.group)
        nl = [r for r in TQ.rows if r.degree > 1]
        assert len(nl) == p**3 - p, (p, len(nl))
        mism = pg.check_lift_equivalence(G, K)
        assert mism == []
        # and each nonlinear lift is of central type in G
        TG = bundle("G_(18,1)", p)["table"]
        assert all(f for r, f in zip(TG.rows, is_central_type(TG)) if r.degree == p)
    _ok(5, "all p^3 - p nonlinear quotient characters lift to central type at p in {5,7}")


def test_criterion_06_nested_monotonicity():
    checked = 0
    for label, p in CORPUS:
        b = bundle(label, p)
        if not b["report"].is_nested:
            continue
        T = b["table"]
        sizes = T.classes.sizes
        # both assertions read only the degree and the center mask of their
        # two rows, so one row per distinct (degree, center mask) makes every
        # assertion that a pair of rows in degree order would make
        # Z(chi) = G for a linear row
        centers = [np.ones(T.count, dtype=bool)] * len(T.lin_t) + list(T.center_masks)
        entries = {}
        for d, m in sorted(zip(T.degrees(), centers), key=lambda r: r[0]):
            entries.setdefault((d, m.tobytes()), (d, m))
        rows = list(entries.values())
        for i in range(len(rows)):
            for j in range(i, len(rows)):
                (da, ma), (db, mb) = rows[i], rows[j]
                assert not (mb & ~ma).any(), (label, p)
                za = int(sizes[ma].sum())
                zb = int(sizes[mb].sum())
                assert (zb < za) == (da < db), (label, p)
        checked += 1
    _ok(6, f"center chains shrink exactly with growing degree in {checked} nested groups")


def test_criterion_07_counting_formulas():
    # frozen by hand before implementation:
    #   p=5: (75+140+315+2+8)/2 = 270 ; (75+50+187)/2 = 156
    #   p=7: (147+196+315+6+4)/2 = 334 ; (147+70+187)/2 = 202
    assert (pg.counting_formulas(5, 6).gvz_count,
            pg.counting_formulas(5, 6).nested_count) == (270, 156)
    assert (pg.counting_formulas(7, 6).gvz_count,
            pg.counting_formulas(7, 6).nested_count) == (334, 202)
    for p in (3, 5, 7):
        c = pg.counting_formulas(p, 5)
        assert (c.gvz_count, c.nested_count) == (p + 31, 23)
    _ok(7, "counting formulas give (270,156), (334,202), and (p+31, 23)")


def test_criterion_08_isoclinism_invariance():
    t0 = time.perf_counter()
    pairs = [
        ("heisenberg_p3", "heisenberg_x_Cp", True),
        ("heisenberg_p3", "extraspecial_p3_exp_p2", True),
        ("heisenberg_p3", "heisenberg_p3", True),
        ("heisenberg_p3", "E_p3", False),
    ]
    for la, lb, expect in pairs:
        A = bundle(la, 3)
        B = bundle(lb, 3)
        verdict = isoclinic_brute(A["group"], B["group"])
        assert verdict is expect, (la, lb, verdict)
        if verdict:
            assert A["report"].is_gvz == B["report"].is_gvz
            assert A["report"].is_nested == B["report"].is_nested
    elapsed = time.perf_counter() - t0
    assert elapsed <= 30 * len(pairs)
    _ok(8, f"isoclinic pairs agree on both verdicts ({len(pairs)} pairs, {elapsed:.1f}s)")


def test_criterion_09_census(tmp_path):
    # data-dependent criterion: the full order-3^6 export is not bundled,
    # so the machinery is exercised on a synthetic directory instead
    files = [
        ("heisenberg_p3", 3, "a"),
        ("extraspecial_p3_exp_p2", 3, "b"),
        ("heisenberg_x_Cp", 3, "c"),
        ("E_p3", 3, "d"),
        ("C_p2", 3, "e"),
        ("heisenberg_x_heisenberg", 3, "f"),
        ("G_(17,1)", 5, "g"),
    ]
    for label, p, stem in files:
        (tmp_path / f"{stem}.pg").write_text(
            presentation_text(pg.build(label, p)), encoding="utf-8"
        )
    # nested non-abelian: a, b, c (f is central-type but not nested; g is
    # neither; d, e are abelian hence excluded by the census convention)
    res = run_ingested_census(tmp_path, expected_nested_nonabelian=3, expected_total=7)
    assert res.ok, res.render_text()
    print("ACCEPTANCE 9: PASS - census machinery verified on a synthetic export "
          "(SKIP: the full 504-group order-3^6 export is external data and not bundled)")


def test_criterion_10_determinism():
    a = suite_to_json_text(run_paper_suite(primes=(3, 5), threads=1))
    b = suite_to_json_text(run_paper_suite(primes=(3, 5), threads=4))
    assert a.encode() == b.encode()
    _ok(10, "paper suite JSON is byte-identical across thread counts")


def test_paper_suite_all_green():
    res = run_paper_suite(primes=(3, 5, 7))
    assert res.ok, res.render_text()
    s = res.summary
    print(f"PAPER SUITE: {s['pass']} pass, {s['fail']} fail, {s['skip']} skip")
