"""Batch verification harness.

Runs the lemma-level checks over the built-in corpus (and over ingested
presentation directories) and aggregates pass/fail records.  Every record
carries a citation key into CLAIMS, a registry of one-line statements of
the mathematical facts being exercised; nothing is skipped silently.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import chartable, corpus, group, presentation
from .chartable import table_of
from .classify import (
    ClassificationReport,
    _class_mask,
    check_lift_equivalence,
    check_nil_le_cd,
    check_special_degree,
    classification_report,
    counting_formulas,
    gvz_min_perm_degree,
)
from .errors import InternalInconsistencyError
from .group import abelian_invariants, group_of, p_log, quotient, subgroup_generated
from .presentation import check_consistency, parse_presentation

CLAIMS = {
    "consistency": "the relations collect to unique normal forms, so the presented group has order p^n",
    "table-soundness": "the character table satisfies the squared-degree sum, exact orthogonality, and the d^2 | |G/Z| bound",
    "flat-gvz": "a group is flat exactly when every irreducible character is of central type",
    "verdict": "expected classification verdict for a corpus entry",
    "special-degree": "a character of degree |G:Z(G)|^(1/2) vanishes off Z(G) and has Z(chi) = Z(G)",
    "lift-count": "the degree-p characters are exactly the lifts of the p^3 - p nonlinear quotient characters",
    "lift-equivalence": "a lifted character is of central type exactly when the quotient character is",
    "quotient-structure": "the central quotient by one central line has the derived subgroup and center stated for it",
    "cd-set": "the catalog order-p^6 representatives have character degrees {1, p, p^2}",
    "kernel-meets-center": "every nonlinear character of these groups kills some line inside the center",
    "nil-le-cd": "when every character is of central type, the class is at most the number of degrees",
    "perm-degree": "with a cyclic center and all rows of central type, the minimal faithful permutation degree is |G/Z|^(1/2)|Z|",
    "counting-p6": "closed-form counts of order-p^6 GVZ and nested-GVZ isomorphism types",
    "counting-p5": "order-p^5 GVZ count p+31; nested-GVZ count 23",
    "nested-monotonicity": "in a nested group of central type, centers shrink strictly as degrees grow",
    "camina-bijection": "when (G, Z(G)) is a Camina pair, rows not trivial on Z(G) number |Z(G)|-1 and are |G/Z|^(1/2) times a character of the center",
    "direct-product": "a product of central-type groups is of central type; with two non-abelian nested factors it is never nested",
    "isoclinism-invariance": "isoclinic groups agree on the central-type and nested verdicts",
    "census-count": "an ingested census matches its expected non-abelian nested count",
    "census-total": "an ingested census matches its expected total size",
    "census-file": "an ingested presentation parses, is consistent, and classifies",
}


@dataclass(frozen=True)
class SuiteRecord:
    check: str
    group: str
    p: int
    status: str  # pass | fail | skip
    citation: str
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "group": self.group,
            "p": self.p,
            "status": self.status,
            "citation": self.citation,
            "detail": self.detail,
        }


@dataclass
class SuiteResult:
    suite: str
    records: list[SuiteRecord] = field(default_factory=list)

    def add(self, check, group, p, ok, detail=""):
        status = "pass" if ok else "fail"
        self.records.append(
            SuiteRecord(check, group, int(p), status, CLAIMS[check], detail)
        )

    def skip(self, check, group, p, reason):
        self.records.append(
            SuiteRecord(check, group, int(p), "skip", CLAIMS[check], reason)
        )

    @property
    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.summary["fail"] == 0

    def sorted_records(self) -> list[SuiteRecord]:
        return sorted(self.records, key=lambda r: (r.check, r.group, r.p, r.status))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "records": [r.to_json() for r in self.sorted_records()],
            "summary": self.summary,
        }

    def render_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for r in self.sorted_records():
            line = f"  [{r.status.upper():4s}] {r.check:22s} {r.group:26s} p={r.p}"
            if r.detail and r.status != "pass":
                line += f"  ({r.detail})"
            lines.append(line)
        s = self.summary
        lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, {s['skip']} skip")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared bundle cache (presentation -> group/table/report)


_bundles: dict[tuple[str, int], dict] = {}


def bundle(label: str, p: int) -> dict:
    """Group, table, and report for one corpus entry, computed once."""
    key = (label, p)
    got = _bundles.get(key)
    if got is not None:
        return got
    P = corpus.build(label, p)
    t0 = time.perf_counter()
    G = group_of(P)
    T = table_of(G)
    t1 = time.perf_counter()
    rep = classification_report(G, table=T)
    out = {
        "label": label,
        "p": p,
        "pres": P,
        "group": G,
        "table": T,
        "report": rep,
        "table_seconds": t1 - t0,
    }
    _bundles[key] = out
    return out


def _entries_for(primes) -> list[tuple[str, int]]:
    return [(label, p) for label, entry in corpus.REGISTRY.items()
            for p in primes if entry.covers(p)]


# ---------------------------------------------------------------------------
# the paper suite


def run_paper_suite(primes=None, threads: int | None = None) -> SuiteResult:
    """Run the paper's lemma-level checks over the corpus at the given primes,
    each distinct prime once, in increasing order.

    The work runs serially; ``threads`` is accepted for compatibility with
    older callers and ignored.
    """
    primes = sorted(set(primes or (3, 5, 7)))
    res = SuiteResult(suite="paper")

    skipped = [
        (label, p)
        for label, entry in corpus.REGISTRY.items()
        for p in primes
        if not entry.covers(p)
    ]
    per_group_checks = (
        "consistency", "table-soundness", "flat-gvz", "verdict", "special-degree",
        "nil-le-cd", "nested-monotonicity", "perm-degree", "camina-bijection",
    )
    for label, p in skipped:
        for check in per_group_checks:
            res.skip(check, label, p, "outside the entry's stated prime range")

    for label, p in _entries_for(primes):
        b = bundle(label, p)
        G, T, rep = b["group"], b["table"], b["report"]
        res.add("consistency", label, p, check_consistency(b["pres"]).consistent)
        sound = (
            sum(d * d for d in T.degrees()) == G.order
            and T.verification.get("row_orthogonality") is not None
        )
        res.add("table-soundness", label, p, sound,
                f"verification={T.verification.get('row_orthogonality')}")
        res.add("flat-gvz", label, p, rep.is_gvz == rep.is_flat)

        entry = corpus.REGISTRY[label]
        if entry.expected is not None:
            got = {
                "gvz": rep.is_gvz,
                "nested": rep.is_nested,
                "vz": rep.is_vz,
            }
            want = entry.expected
            ok = all(got[k] == v for k, v in want.items())
            res.add("verdict", label, p, ok, f"expected {want}, got {got}")

        res.add("special-degree", label, p, check_special_degree(T) == [])

        nil_status = check_nil_le_cd(G, T)
        if nil_status == "inapplicable":
            res.skip("nil-le-cd", label, p, "not a central-type-everywhere group")
        else:
            res.add("nil-le-cd", label, p, nil_status == "holds")

        _check_nested_monotonicity(res, label, p, T, rep)
        _check_perm_degree(res, label, p, G, T, rep)
        _check_camina_bijection(res, label, p, G, T, rep)

    for p in primes:
        _check_counting(res, p)
    _check_quotient_structure(res, primes)
    _check_direct_product_laws(res, primes)
    _check_isoclinism(res, primes)
    return res


def _check_nested_monotonicity(res, label, p, T, rep: ClassificationReport):
    """Centers shrink exactly as the degree grows, in a nested group.

    For rows of degrees a <= b: Z(chi_b) <= Z(chi_a), with |Z(chi_b)| <
    |Z(chi_a)| exactly when a < b.  A pair's test reads only the degrees and
    center masks of its two rows, so it runs once per pair of distinct
    (degree, center mask) entries, in the order of their first rows by
    degree (every table has a linear row, and Z(chi) = G for each); at
    order <= p^6 a nested group has at most 7 centers and 4 degrees, however
    many rows it has.  A failure names the first offending pair.
    """
    if not rep.is_nested:
        res.skip("nested-monotonicity", label, p, "group is not nested")
        return
    degs = np.r_[1, T.degs]
    masks = np.vstack([np.ones(T.classes.sizes.size, dtype=bool), T.center_masks])
    by = np.argsort(degs, kind="stable")
    keys = np.c_[degs[by, None].view(np.uint8), masks[by]]
    first = np.sort(np.unique(chartable._row_keys(keys), return_index=True)[1])
    d, m = degs[by][first], masks[by][first]
    z = m @ T.classes.sizes
    bad = (m[None] & ~m[:, None]).any(axis=2) | ((z[None] < z[:, None]) != (d[:, None] < d[None]))
    pairs = np.argwhere(np.triu(bad, 1))
    if pairs.size:
        a, b = pairs[0]
        res.add("nested-monotonicity", label, p, False,
                f"degree {d[a]} with |Z(chi)| = {z[a]}, degree {d[b]} with |Z(chi)| = {z[b]}")
        return
    res.add("nested-monotonicity", label, p, True)


def _check_perm_degree(res, label, p, G, T, rep):
    if not rep.is_gvz:
        res.skip("perm-degree", label, p, "not a central-type-everywhere group")
        return
    Z = G.center
    if len(abelian_invariants(Z)) > 1:
        res.skip("perm-degree", label, p, "center is not cyclic")
        return
    pd = gvz_min_perm_degree(G, T)
    a = p_log(G.order // Z.order, p)
    b = p_log(Z.order, p)
    ok = pd.exponent == Fraction(a, 2) + b and pd.is_integral == (a % 2 == 0)
    if pd.is_integral:
        ok = ok and pd.value == p ** int(pd.exponent)
    res.add("perm-degree", label, p, ok, f"exponent {pd.exponent}")


def _check_camina_bijection(res, label, p, G, T, rep):
    if not rep.camina_pair_with_center:
        res.skip("camina-bijection", label, p, "(G, Z(G)) is not a Camina pair")
        return
    Z = G.center
    zmask = _class_mask(Z, T)
    n_lin = len(T.lin_t)
    nontrivial = ~T.kernel_masks(zmask).all(axis=1)
    # a linear row has degree 1 < |G:Z|^(1/2), so none may be nontrivial
    nl = nontrivial[n_lin:]
    ok = (int(nontrivial.sum()) == Z.order - 1 and not nontrivial[:n_lin].any()
          and (T.degs[nl] ** 2 == G.order // Z.order).all()
          and not (T.nonzero_masks[nl] & ~zmask).any()
          and (T.center_masks[nl] == zmask).all())
    res.add("camina-bijection", label, p, bool(ok))


def _check_counting(res, p):
    try:
        c5 = counting_formulas(p, 5)
        ok5 = c5.gvz_count == p + 31 and c5.nested_count == 23
        res.add("counting-p5", "formulas", p, ok5)
    except ValueError as exc:
        res.skip("counting-p5", "formulas", p, str(exc))
    if p >= 5:
        c6 = counting_formulas(p, 6)
        expected = {5: (270, 156), 7: (334, 202)}.get(p)
        if expected:
            ok6 = (c6.gvz_count, c6.nested_count) == expected
            res.add("counting-p6", "formulas", p, ok6,
                    f"got ({c6.gvz_count}, {c6.nested_count})")
        else:
            res.add("counting-p6", "formulas", p,
                    c6.gvz_count > 0 and c6.nested_count > 0)
    else:
        res.skip("counting-p6", "formulas", p, "closed form stated for p >= 5")


def _check_quotient_structure(res, primes):
    for p in primes:
        if p < 5:
            res.skip("quotient-structure", "G_(18,1)", p, "outside the prime range")
            res.skip("lift-count", "G_(18,1)", p, "outside the prime range")
            res.skip("lift-equivalence", "G_(18,1)", p, "outside the prime range")
            res.skip("cd-set", "catalog", p, "outside the prime range")
            res.skip("kernel-meets-center", "catalog", p, "outside the prime range")
            continue
        b = bundle("G_(18,1)", p)
        G = b["group"]
        # K = <a1> is the last pc generator: central line
        K = subgroup_generated([G.element_of(1)], G)
        if K.order != p:
            raise InternalInconsistencyError(f"<a1> has order {K.order}, not {p}")
        Q = quotient(G, K)
        QG = Q.group
        ok = (
            QG.order == p**5
            and QG.derived.order == p * p
            and QG.center.order == p * p
            and bool((QG.derived.indices == QG.center.indices).all())
        )
        res.add("quotient-structure", "G_(18,1)", p, ok)
        TQ = table_of(QG)
        n_nl = len(TQ.degs)
        res.add("lift-count", "G_(18,1)", p, n_nl == p**3 - p, f"|nl(G/K)| = {n_nl}")
        mism = check_lift_equivalence(G, K)
        res.add("lift-equivalence", "G_(18,1)", p, mism == [])

        for label in ("G_(17,1)", "G_(18,1)", "G_(19,1)", "G_(20,1)"):
            bb = bundle(label, p)
            T = bb["table"]
            res.add("cd-set", label, p, T.cd_set() == (1, p, p * p))
            Gb = bb["group"]
            # central classes have one element each, so counting central
            # classes in the kernel counts central elements
            zmask = _class_mask(Gb.center, T)
            meet = T.kernel_masks(zmask)[len(T.lin_t):].sum(axis=1)
            # each non-linear kernel needs a full C_p line: identity + more
            res.add("kernel-meets-center", label, p, bool((meet >= 2).all()))


def _check_direct_product_laws(res, primes):
    for p in primes:
        h = bundle("heisenberg_p3", p)["report"]
        hh = bundle("heisenberg_x_heisenberg", p)["report"]
        hc = bundle("heisenberg_x_Cp", p)["report"]
        ok = (
            hh.is_gvz == (h.is_gvz and h.is_gvz)
            and hh.is_nested is False
            and hc.is_gvz
            and hc.is_nested
        )
        res.add("direct-product", "heisenberg products", p, ok)


def _check_isoclinism(res, primes):
    p = 3 if 3 in primes else primes[0]
    pairs = [
        ("heisenberg_p3", "heisenberg_x_Cp", True),
        ("heisenberg_p3", "heisenberg_p3", True),
        ("heisenberg_p3", "E_p3", False),
    ]
    for la, lb, expect in pairs:
        pa = bundle(la, p)
        pb = bundle(lb, p)
        verdict = corpus.isoclinic_brute(pa["group"], pb["group"])
        if verdict is None:
            res.skip("isoclinism-invariance", f"{la}~{lb}", p, "budget exhausted")
            continue
        ok = verdict is expect
        if verdict:
            ra, rb = pa["report"], pb["report"]
            ok = ok and ra.is_gvz == rb.is_gvz and ra.is_nested == rb.is_nested
            fa = corpus.fingerprint(pa["group"]).core()
            fb = corpus.fingerprint(pb["group"]).core()
            ok = ok and fa == fb
        res.add("isoclinism-invariance", f"{la}~{lb}", p, ok)


# ---------------------------------------------------------------------------
# ingested census


def run_ingested_census(
    directory,
    expected_nested_nonabelian: int | None = None,
    expected_total: int | None = None,
    threads: int | None = None,
) -> SuiteResult:
    """Classify every presentation file in a directory and compare counts.

    Non-abelian nested counting follows the census convention (abelian
    groups excluded); the p^5 isomorphism-type corollary instead counts
    every nested group including the abelian ones, which callers encode by
    supplying expected_total together with per-file expectations.

    Files run serially; ``threads`` is accepted for compatibility with
    older callers and ignored.  A file that cannot be read or parsed, or
    whose group the classifier rejects as input (``ValueError``,
    ``OSError``), is a failed ``census-file`` record; an
    ``InternalInconsistencyError`` means a bug and propagates.

    A file's presentation, group and table are cached only until its
    report is made (or refused): then _forget drops them, so the caches do
    not grow with the number of files.
    """
    res = SuiteResult(suite="census")
    directory = Path(directory)
    files = sorted(
        f for f in directory.iterdir() if f.suffix in (".pg", ".txt") and f.is_file()
    )

    nested_nonabelian = 0
    total = 0
    for f in files:
        P = None
        try:
            P = parse_presentation(f.read_text(encoding="utf-8"), name=f.stem)
            rep = classification_report(P)
        except (ValueError, OSError) as exc:  # input errors, reported per file
            res.add("census-file", f.name, 0, False, str(exc))
            continue
        finally:
            if P is not None:
                _forget(P)
        total += 1
        res.add("census-file", f.name, rep.p, True)
        if rep.is_nested and rep.is_gvz and rep.cd != {1: rep.order}:
            nested_nonabelian += 1

    if expected_total is not None:
        res.add("census-total", str(directory), 0, total == expected_total,
                f"classified {total}, expected {expected_total}")
    if expected_nested_nonabelian is not None:
        res.add(
            "census-count",
            str(directory),
            0,
            nested_nonabelian == expected_nested_nonabelian,
            f"found {nested_nonabelian}, expected {expected_nested_nonabelian}",
        )
    return res


def _forget(P) -> None:
    """Drop P's collector and group, and that group's table, from the
    module caches (the report made from them holds none of them)."""
    presentation._collectors.pop(P, None)
    G = group._group_cache.pop(P, None)
    if G is not None:
        chartable._table_cache.pop(G, None)


def suite_to_json_text(res: SuiteResult) -> str:
    return json.dumps(res.to_json(), indent=2, sort_keys=True) + "\n"
