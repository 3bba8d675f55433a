"""Parser, collector, and consistency tests for the pc layer."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgclass as pg
from pgclass import ParseError
from pgclass.presentation import collector, evaluate_word, presentation_text

HEIS3 = """
# extraspecial of order 27, exponent 3
group heis prime 3
gens a b c
comm [b,a] = c
"""


def test_parse_defaults_fill_omitted_relations():
    P = pg.parse_presentation("group g prime 3\ngens a b c\ncomm [b,a] = c\n")
    assert P.n == 3 and P.p == 3
    assert P.power_rels == ((), (), ())
    assert dict(P.comm_rels) == {(1, 0): ((2, 1),)}


def test_parse_g18_style_counts_nontrivial_relations():
    text = """group g18 prime 7
gens a6 a5 a4 a3 a2 a1
comm [a5,a6] = a3
comm [a4,a6] = a2
comm [a3,a6] = a1
comm [a4,a5] = a1
"""
    P = pg.parse_presentation(text)
    assert len(P.comm_rels) == 4
    assert all(not w for w in P.power_rels)


def test_parse_rejects_index_increasing_left_side():
    bad = "group g prime 3\ngens a b c\ncomm [a,c] = b\n"
    with pytest.raises(ParseError, match="index-decreasing"):
        pg.parse_presentation(bad)


def test_parse_rejects_nonprime():
    with pytest.raises(ParseError, match="not prime"):
        pg.parse_presentation("group g prime 6\ngens a\n")


def test_parse_rejects_word_at_or_below_left_side():
    bad = "group g prime 3\ngens a b c\ncomm [b,a] = a\n"
    with pytest.raises(ParseError, match="<= its left side"):
        pg.parse_presentation(bad)


def test_parse_rejects_duplicate_relation():
    bad = "group g prime 3\ngens a b c\ncomm [b,a] = c\ncomm [b,a] = c\n"
    with pytest.raises(ParseError, match="duplicate"):
        pg.parse_presentation(bad)


def test_parse_error_carries_line_number():
    bad = "group g prime 3\ngens a b\nfrobnicate\n"
    with pytest.raises(ParseError, match="line 3"):
        pg.parse_presentation(bad)


def test_parse_accepts_negative_exponents_and_literal_p():
    text = """group g prime 5
gens a b c
pow a^p = c
comm [b,a] = c^-1
"""
    P = pg.parse_presentation(text)
    assert P.power_rels[0] == ((2, 1),)
    assert dict(P.comm_rels)[(1, 0)] == ((2, -1),)


def test_presentation_text_round_trips():
    P = pg.build("G_(20,1)", 7)
    Q = pg.parse_presentation(presentation_text(P), name=P.name)
    assert Q.p == P.p and Q.gens == P.gens
    assert Q.power_rels == P.power_rels and Q.comm_rels == P.comm_rels


# -- collection ---------------------------------------------------------------


def test_heisenberg_hand_collection():
    P = pg.parse_presentation(HEIS3)
    a, b = P.generator(0), P.generator(1)
    # ba = ab[b,a] = abc
    assert pg.multiply(b, a, P).exps == (1, 1, 1)
    assert pg.multiply(a, b, P).exps == (1, 1, 0)
    assert pg.commutator(b, a, P).exps == (0, 0, 1)


def test_identity_laws():
    P = pg.parse_presentation(HEIS3)
    e = P.identity()
    for x in P.elements():
        assert pg.multiply(e, x, P) == x
        assert pg.multiply(x, e, P) == x


def test_inverse_exhaustive_heisenberg():
    P = pg.parse_presentation(HEIS3)
    e = P.identity()
    for x in P.elements():
        assert pg.multiply(x, pg.inverse(x, P), P) == e


def test_central_generator_inverse():
    P = pg.parse_presentation(HEIS3)
    c = P.generator(2)
    assert pg.inverse(c, P).exps == (0, 0, 2)


def test_commutator_self_trivial():
    P = pg.build("G_(18,1)", 5)
    for i in range(P.n):
        g = P.generator(i)
        assert pg.commutator(g, g, P).is_identity()


def test_g18_defining_commutator():
    # [a4, a5] = a1 from the defining relations
    P = pg.build("G_(18,1)", 7)
    pos = {g: i for i, g in enumerate(P.gens)}
    a4, a5 = P.generator(pos["a4"]), P.generator(pos["a5"])
    got = pg.commutator(a4, a5, P)
    expect = P.generator(pos["a1"])
    assert got == expect


def test_collection_deterministic():
    P = pg.build("G_(14,3)", 5)
    word = [(0, 3), (2, 1), (0, 2), (1, 4), (3, 2)]
    first = evaluate_word(word, P)
    for _ in range(5):
        assert evaluate_word(word, P) == first


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(-3, 3)), max_size=8))
def test_collection_agrees_with_table_arithmetic(word):
    P = pg.build("G_(17,1)", 5)
    G = pg.group_of(P)
    el = evaluate_word(word, P)
    idx = 0
    for g, e in word:
        step = G.gen_index(g)
        if e < 0:
            step = G.inv(step)
        for _ in range(abs(e)):
            idx = G.mul(idx, step)
    assert G.index_of(el) == idx


def test_associativity_exhaustive_small():
    P = pg.parse_presentation(HEIS3)
    els = list(P.elements())
    for x, y, z in itertools.product(els[:9], els[:9], els[:9]):
        lhs = pg.multiply(pg.multiply(x, y, P), z, P)
        rhs = pg.multiply(x, pg.multiply(y, z, P), P)
        assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5**6 - 1), st.integers(0, 5**6 - 1), st.integers(0, 5**6 - 1))
def test_associativity_sampled_table(x, y, z):
    G = pg.group_of(pg.build("G_(19,1)", 5))
    assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))


# -- consistency --------------------------------------------------------------


def test_heisenberg_consistent():
    rep = pg.check_consistency(pg.parse_presentation(HEIS3))
    assert rep.consistent and rep.failures == ()


def test_g17_consistent_at_7():
    rep = pg.check_consistency(pg.build("G_(17,1)", 7))
    assert rep.consistent


def test_consistency_report_made_once_per_cached_collector():
    """Group(P) and a later check_consistency(P) share one report, kept on
    P's collector; once the caches are cleared the overlaps are collected
    again."""
    P = pg.build("G_(17,1)", 5)
    pg.clear_caches()
    assert collector(P).consistency is None
    pg.Group(P)
    rep = collector(P).consistency
    assert rep is not None and rep.consistent
    assert pg.check_consistency(P) is rep
    pg.clear_caches()
    again = pg.check_consistency(P)
    assert again is not rep and again == rep


def test_all_corpus_presentations_consistent():
    for label, entry in pg.REGISTRY.items():
        for p in (3, 5, 7):
            if p < entry.min_p:
                continue
            assert pg.check_consistency(pg.build(label, p)).consistent, (label, p)


def test_inconsistent_presentation_detected():
    # c central of order 3, but [b,a] = c and a^3 = 1 force c^3 = 1 anyway;
    # break consistency instead with a power relation that cannot close:
    # a^3 = b while [b, a] = c forces non-unique normal forms.
    text = """group broken prime 3
gens a b c
pow a^p = b
pow b^p = c
comm [b,a] = c
"""
    rep = pg.check_consistency(pg.parse_presentation(text))
    assert not rep.consistent
    assert rep.failures


def test_inconsistent_triple_overlap_failures_pinned():
    # [d,c] = e^2 with [b,a] = c^2 e, [c,b] = d breaks the Jacobi identity
    text = """group jacobi prime 3
gens a b c d e
comm [b,a] = c^2 e
comm [c,a] = e
comm [c,b] = d
comm [d,b] = e
comm [d,c] = e^2
"""
    rep = pg.check_consistency(pg.parse_presentation(text))
    E = pg.Element
    assert rep.failures == (
        ("c(ba) vs (cb)a", E((1, 1, 0, 1, 0)), E((1, 1, 0, 1, 2))),
        ("d(ba) vs (db)a", E((1, 1, 2, 1, 0)), E((1, 1, 2, 1, 2))),
    )


def test_inconsistent_power_overlap_failures_pinned():
    text = """group powers prime 3
gens a b c d
pow b^p = c
comm [c,a] = d^-1
comm [c,b] = d
"""
    rep = pg.check_consistency(pg.parse_presentation(text))
    E = pg.Element
    assert rep.failures == (
        ("b^p a overlap", E((1, 0, 1, 2)), E((1, 0, 1, 0))),
        ("b b^p overlap", E((0, 1, 1, 0)), E((0, 1, 1, 1))),
    )


def test_power_word_on_last_generator_rejected():
    # the table builder of group.py relies on this: g_n^p is always trivial
    with pytest.raises(ParseError):
        pg.PcPresentation(name="g", p=3, gens=("a", "b"), power_rels=((), ((1, 1),)),
                          comm_rels=())


def test_self_referencing_weight_rejected_at_parse():
    bad = "group g prime 3\ngens a b c\ncomm [b,a] = c\ncomm [c,a] = c\n"
    with pytest.raises(ParseError):
        pg.parse_presentation(bad)



def test_presentation_guards_survive_optimize(run_optimized):
    """Under python -O the parser and the ConsistencyReport invariant still
    raise their typed errors, and an inconsistent presentation is still
    reported as one."""
    code = r"""
import pgclass as pg
from pgclass.presentation import Element

BROKEN = "group broken prime 3\ngens a b c\npow a^p = b\npow b^p = c\ncomm [b,a] = c\n"

def report_flag():
    e = Element((0, 0))
    pg.ConsistencyReport(consistent=True, failures=(("overlap", e, e),))

checks = {
    "nonprime": (lambda: pg.parse_presentation("group g prime 4\ngens a\n"), pg.ParseError),
    "self_weight": (lambda: pg.parse_presentation(
        "group g prime 3\ngens a b c\ncomm [b,a] = c\ncomm [c,a] = c\n"), pg.ParseError),
    "report_flag": (report_flag, pg.InternalInconsistencyError),
}
for name, (check, error) in checks.items():
    try:
        check()
    except error:
        print(name)
if not pg.check_consistency(pg.parse_presentation(BROKEN)).consistent:
    print("inconsistent")
"""
    assert run_optimized(code).split() == [
        "nonprime", "self_weight", "report_flag", "inconsistent"]
