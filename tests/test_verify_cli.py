"""Verification suite plumbing and the command-line interface."""

import dataclasses
import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import pgclass as pg
from pgclass.cli import main
from pgclass.presentation import presentation_text
from pgclass.verify import (
    CLAIMS,
    SuiteResult,
    _check_nested_monotonicity,
    _entries_for,
    bundle,
    run_ingested_census,
    run_paper_suite,
)


def run_cli(*args):
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def write_pres(tmp_path, label, p, name=None):
    P = pg.build(label, p)
    f = tmp_path / f"{name or label}_{p}.pg"
    f.write_text(presentation_text(P), encoding="utf-8")
    return f


# -- CLI ---------------------------------------------------------------------------


def test_cli_classify_text(tmp_path):
    f = write_pres(tmp_path, "heisenberg_p3", 3)
    code, out, _ = run_cli("classify", str(f))
    assert code == 0
    assert "gvz              : True" in out
    assert "vz               : True" in out


def test_cli_classify_json(tmp_path):
    f = write_pres(tmp_path, "heisenberg_p3", 3)
    code, out, _ = run_cli("classify", str(f), "--json")
    assert code == 0
    js = json.loads(out)
    assert js["gvz"] is True and js["nested"] is True
    assert js["cd"] == {"1": 9, "3": 2}


def test_cli_classify_parse_error_exit_1(tmp_path):
    f = tmp_path / "bad.pg"
    f.write_text("group g prime 3\ngens a b\ncomm [a,b] = 1\n", encoding="utf-8")
    code, out, err = run_cli("classify", str(f))
    assert code == 1
    assert "error" in err.lower()
    code, out, _ = run_cli("classify", str(f), "--json")
    assert code == 1
    assert "error" in json.loads(out)


def test_cli_classify_missing_file():
    code, _, err = run_cli("classify", "/nonexistent/path.pg")
    assert code == 1


def test_cli_internal_inconsistency_exit_2(tmp_path, monkeypatch):
    import pgclass.cli as cli_mod

    f = write_pres(tmp_path, "heisenberg_p3", 3)

    def boom(P):
        raise pg.InternalInconsistencyError("forced for the exit-code test")

    monkeypatch.setattr(cli_mod, "classification_report", boom)
    code, _, err = run_cli("classify", str(f))
    assert code == 2
    assert "inconsistency" in err.lower()


def test_cli_chartable_json(tmp_path):
    f = write_pres(tmp_path, "C_p", 3)
    code, out, _ = run_cli("chartable", str(f), "--json")
    assert code == 0
    js = json.loads(out)
    assert len(js["rows"]) == 3
    assert js["rows"][0]["values"] == ["1", "1", "1"]


def test_cli_chartable_text(tmp_path):
    f = write_pres(tmp_path, "heisenberg_p3", 3)
    code, out, _ = run_cli("chartable", str(f))
    assert code == 0
    T = pg.compute_table(pg.build("heisenberg_p3", 3))
    lines = out.splitlines()[2:]
    assert len(lines) == T.count
    for i, line in enumerate(lines):
        vals = " ".join(str(T.value(i, j)) for j in range(T.count))
        assert line == f"  X{i + 1} (deg {T.rows[i].degree}): {vals}"


@pytest.mark.parametrize("label,p,mult_dtype", [
    pytest.param("G_(14,3)", 5, None, id="G_(14,3)-5"),
    pytest.param("G_(20,1)", 5, None, id="G_(20,1)-5"),
    pytest.param("G_(20,1)", 5, np.uint16, id="G_(20,1)-5-uint16"),
    pytest.param("heisenberg_p3", 3, None, id="heisenberg_p3-3"),
    pytest.param("E_p3", 5, None, id="E_p3-5"),
])
def test_cli_chartable_json_bytes(tmp_path, monkeypatch, label, p, mult_dtype):
    """chartable --json writes exactly json.dumps(indent=2, sort_keys=True)
    of the table's to_json, though it writes the rows itself, and escapes
    each distinct value string once.  E_p3 is abelian, so its central and
    dense blocks are empty.  No corpus table at p = 3 or 5 has dense rows
    whose multiplicity vectors take more than 8 bytes (e * itemsize), so
    G_(20,1)'s block is also run widened to uint16, 10 bytes at e = 5,
    which keeps value_keys on the void keys of _row_keys."""
    import pgclass.cli as cli_mod

    f = write_pres(tmp_path, label, p)
    T = pg.table_of(pg.parse_presentation(f.read_text(encoding="utf-8"), name=f.stem))
    if mult_dtype is not None:
        widened = dataclasses.replace(T, mults=T.mults.astype(mult_dtype))
        monkeypatch.setattr(cli_mod, "table_of", lambda P: widened)
    escape, calls = cli_mod.encode_basestring_ascii, []

    def counted(s):
        calls.append(s)
        return escape(s)

    monkeypatch.setattr(cli_mod, "encode_basestring_ascii", counted)
    code, out, _ = run_cli("chartable", str(f), "--json")
    assert code == 0
    assert out == json.dumps(T.to_json(), indent=2, sort_keys=True) + "\n"
    assert 0 < len(calls) <= len({s for vals in T.value_strings() for s in vals})


def test_cli_chartable_json_error_writes_no_table_bytes(tmp_path, monkeypatch):
    """Every value is formatted before chartable --json writes anything, so
    a value that fails to format leaves one JSON object on stdout: the
    error.  G_(20,1) at p = 5 has dense rows, whose values root_sum forms."""
    import pgclass.chartable as chartable_mod

    f = write_pres(tmp_path, "G_(20,1)", 5)

    def broken(order, multiplicities):
        raise pg.InternalInconsistencyError("root_sum forced to fail")

    monkeypatch.setattr(chartable_mod, "root_sum", broken)
    code, out, _ = run_cli("chartable", str(f), "--json")
    assert code == 2
    assert json.loads(out) == {"error": "root_sum forced to fail", "internal": True}


def test_cli_chartable_guard_exits_2(tmp_path, monkeypatch):
    """A table guard that fires under `chartable --json` is an internal
    inconsistency: exit 2 with the error in the JSON.  Here one linear
    row's exponent at the central generator z = [y, x] is off, which
    breaks that commutator relation, and table verification catches it."""
    import pgclass.chartable as chartable_mod

    f = write_pres(tmp_path, "heisenberg_p3", 3)
    linear_rows_data = chartable_mod._linear_rows_data

    def corrupted(G, zc):
        t, keys = linear_rows_data(G, zc)
        t[1, -1] = (t[1, -1] + 1) % G.exponent
        return t, keys

    monkeypatch.setattr(chartable_mod, "_table_cache", {})
    monkeypatch.setattr(chartable_mod, "_linear_rows_data", corrupted)
    code, out, _ = run_cli("chartable", str(f), "--json")
    assert code == 2
    js = json.loads(out)
    assert js["internal"] is True
    assert js["error"] == "linear row breaks a commutator relation"


def test_cli_count():
    code, out, _ = run_cli("count", "--p", "5", "--order", "p6", "--json")
    assert code == 0
    js = json.loads(out)
    assert js["gvz"] == 270 and js["nested"] == 156
    code, out, _ = run_cli("count", "--p", "3", "--order", "p5")
    assert code == 0
    assert "34" in out and "23" in out


def test_cli_count_rejects_p3_order6():
    code, out, _ = run_cli("count", "--p", "3", "--order", "p6", "--json")
    assert code == 1
    assert "error" in json.loads(out)


def test_cli_corpus_list():
    code, out, _ = run_cli("corpus", "list", "--json")
    assert code == 0
    rows = json.loads(out)
    labels = {r["label"] for r in rows}
    assert "G_(18,1)" in labels
    assert all("citation" in r for r in rows)


def test_cli_corpus_emit_round_trip(tmp_path):
    out_file = tmp_path / "g18.pg"
    code, _, _ = run_cli("corpus", "emit", "G_(18,1)", "--p", "5", "-o", str(out_file))
    assert code == 0
    code, out, _ = run_cli("classify", str(out_file), "--json")
    assert code == 0
    js = json.loads(out)
    assert js["gvz"] is True and js["nested"] is False


def test_cli_classify_stdin(tmp_path, monkeypatch):
    import io

    text = presentation_text(pg.build("C_p2", 3))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, _ = run_cli("classify", "-", "--json")
    assert code == 0
    assert json.loads(out)["order"] == 9


def test_cli_entrypoint_subprocess(tmp_path):
    f = write_pres(tmp_path, "heisenberg_p3", 3)
    proc = subprocess.run(
        [sys.executable, "-m", "pgclass.cli", "classify", str(f), "--json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["gvz"] is True


# -- census -------------------------------------------------------------------------


def test_census_empty_dir(tmp_path):
    res = run_ingested_census(tmp_path)
    assert res.ok and res.summary["pass"] == 0


def test_census_counts_nested_nonabelian(tmp_path):
    write_pres(tmp_path, "heisenberg_p3", 3, "h1")
    write_pres(tmp_path, "extraspecial_p3_exp_p2", 3, "h2")
    write_pres(tmp_path, "E_p3", 3, "ab")
    write_pres(tmp_path, "C_p3", 3, "cyc")
    res = run_ingested_census(tmp_path, expected_nested_nonabelian=2, expected_total=4)
    assert res.ok, res.render_text()


def test_census_detects_count_mismatch(tmp_path):
    write_pres(tmp_path, "heisenberg_p3", 3, "h1")
    res = run_ingested_census(tmp_path, expected_nested_nonabelian=5)
    assert not res.ok
    bad = [r for r in res.records if r.status == "fail"]
    assert bad and bad[0].check == "census-count"


def test_census_reports_broken_file(tmp_path):
    write_pres(tmp_path, "heisenberg_p3", 3, "ok")
    (tmp_path / "broken.pg").write_text("group g prime 4\ngens a\n", encoding="utf-8")
    res = run_ingested_census(tmp_path, expected_total=1)
    statuses = {r.group: r.status for r in res.records if r.check == "census-file"}
    assert statuses["broken.pg"] == "fail"
    assert statuses["ok_3.pg"] == "pass"
    assert res.summary["fail"] == 1  # the total still matches the parsable one


def test_census_internal_error_propagates(tmp_path, monkeypatch):
    import pgclass.verify as verify_mod

    write_pres(tmp_path, "heisenberg_p3", 3, "h")

    def boom(P, **kw):
        raise pg.InternalInconsistencyError("forced for the census test")

    monkeypatch.setattr(verify_mod, "classification_report", boom)
    with pytest.raises(pg.InternalInconsistencyError):
        run_ingested_census(tmp_path)
    code, _, err = run_cli("census", str(tmp_path))
    assert code == 2
    assert "inconsistency" in err.lower()


def test_census_table_check_exits_2(tmp_path, monkeypatch):
    """A table self-check that fires while classifying a census file is an
    internal inconsistency: exit 2, not an uncaught exception."""
    import pgclass.chartable as chartable_mod

    write_pres(tmp_path, "heisenberg_p3", 3, "h")
    lift_rows = chartable_mod._lift_rows

    def reversed_rows(*args):
        dense, cexp, mults = lift_rows(*args)
        return dense, cexp[::-1], mults

    monkeypatch.setattr(chartable_mod, "_table_cache", {})
    monkeypatch.setattr(chartable_mod, "_lift_rows", reversed_rows)
    code, _, err = run_cli("census", str(tmp_path))
    assert code == 2
    assert "lifted row disagrees mod q" in err


def test_census_drops_each_file_from_the_caches(tmp_path, monkeypatch):
    """A census caches a file's presentation, group and table only while it
    classifies that file: each is in its cache when the report is made, and
    after a two-file census none of the files' presentations or groups is
    left in the collector, group or table cache."""
    from pgclass import chartable, group, presentation, verify
    from pgclass.presentation import parse_presentation

    files = [write_pres(tmp_path, "heisenberg_p3", 3, "h"),
             write_pres(tmp_path, "extraspecial_p3_exp_p2", 3, "x")]
    report = verify.classification_report
    groups, cached = [], []

    def spy(P):
        rep = report(P)
        groups.append(group._group_cache[P])
        cached.append((P in presentation._collectors, groups[-1] in chartable._table_cache))
        return rep

    monkeypatch.setattr(verify, "classification_report", spy)
    assert run_ingested_census(tmp_path).summary["fail"] == 0
    assert cached == [(True, True), (True, True)]
    for f, G in zip(files, groups):
        P = parse_presentation(f.read_text(encoding="utf-8"), name=f.stem)
        assert P not in presentation._collectors and P not in group._group_cache
        assert G not in chartable._table_cache


def test_clear_caches_empties_every_cache(tmp_path):
    """After a census and one corpus bundle every module-level cache holds
    something: the census drops its own files' entries, and the bundle
    fills the caches on its own.  pg.clear_caches() empties each of
    them."""
    from pgclass import chartable, cyclotomic, group, presentation, verify

    write_pres(tmp_path, "heisenberg_p3", 3, "h")
    assert run_ingested_census(tmp_path).summary["fail"] == 0
    verify.bundle("heisenberg_p3", 5)
    dicts = (group._group_cache, chartable._table_cache, verify._bundles,
             presentation._collectors)
    lrus = (chartable._check_primes, cyclotomic._prime_power_split)
    assert all(dicts) and all(f.cache_info().currsize for f in lrus)
    pg.clear_caches()
    assert not any(dicts) and not any(f.cache_info().currsize for f in lrus)


def test_census_cli(tmp_path):
    write_pres(tmp_path, "heisenberg_p3", 3, "h")
    out_json = tmp_path / "census.json"
    code, out, _ = run_cli(
        "census", str(tmp_path), "--expect-nested-nonabelian", "1",
        "--json", str(out_json),
    )
    assert code == 0
    js = json.loads(out_json.read_text())
    assert js["suite"] == "census"
    assert js["summary"]["fail"] == 0


def test_census_cli_failure_exit_code_3(tmp_path):
    write_pres(tmp_path, "heisenberg_p3", 3, "h")
    code, out, _ = run_cli("census", str(tmp_path), "--expect-nested-nonabelian", "9")
    assert code == 3
    assert "FAIL" in out


# -- paper suite ----------------------------------------------------------------------


def test_claims_registry_is_total():
    res = run_paper_suite(primes=(3,))
    for r in res.records:
        assert r.citation == CLAIMS[r.check]
    assert res.summary["fail"] == 0, res.render_text()


def test_paper_suite_small_primes_pass_and_skip():
    res = run_paper_suite(primes=(3,))
    skips = [r for r in res.records if r.status == "skip"]
    assert any("prime range" in r.detail for r in skips)
    assert res.ok


def test_paper_suite_json_schema():
    res = run_paper_suite(primes=(3,))
    js = res.to_json()
    assert set(js) == {"suite", "records", "summary"}
    for r in js["records"]:
        assert set(r) == {"check", "group", "p", "status", "citation", "detail"}


def test_suite_determinism_across_thread_counts():
    from pgclass.verify import suite_to_json_text

    a = suite_to_json_text(run_paper_suite(primes=(3,), threads=1))
    b = suite_to_json_text(run_paper_suite(primes=(3,), threads=4))
    assert a == b


def test_threads_flag_accepted_and_ignored(tmp_path, monkeypatch):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("PGCLASS_THREADS", "7")
    code_a, _, _ = run_cli("--threads", "3", "verify", "--primes", "3", "--json", str(a))
    monkeypatch.delenv("PGCLASS_THREADS")
    code_b, _, _ = run_cli("verify", "--primes", "3", "--json", str(b))
    assert code_a == 0 and code_b == 0
    assert a.read_bytes() == b.read_bytes()


def _pairwise_nested_monotonicity(T):
    """The check as the paper states it, over every degree-ordered row pair;
    a linear row's Z(chi) is G."""
    sizes = T.classes.sizes
    ones = np.ones(sizes.size, dtype=bool)
    rows = sorted([(1, ones)] * len(T.lin_t) + list(zip(T.degs.tolist(), T.center_masks)),
                  key=lambda r: r[0])
    for a in range(len(rows)):
        for b in range(a, len(rows)):
            (da, ma), (db, mb) = rows[a], rows[b]
            if (mb & ~ma).any():
                return False
            za = int(sizes[ma].sum())
            zb = int(sizes[mb].sum())
            if (zb < za) != (da < db):
                return False
    return True


def _stand_in(*rows):
    """A table with class sizes 1, 2, 4, 8 and rows given as (degree, mask),
    in the table's arrays: the degree-1 rows are its linear rows, whose
    Z(chi) is every class, and the others its non-linear rows."""
    assert all(all(m) for d, m in rows if d == 1)
    nonlin = [(d, m) for d, m in rows if d > 1]
    return SimpleNamespace(
        classes=SimpleNamespace(sizes=np.array([1, 2, 4, 8])),
        lin_t=np.zeros((len(rows) - len(nonlin), 0), dtype=np.int64),
        degs=np.array([d for d, _ in nonlin], dtype=np.int64),
        center_masks=np.array([m for _, m in nonlin], dtype=bool).reshape(-1, 4),
    )


def _nested_record(T):
    res = SuiteResult(suite="paper")
    _check_nested_monotonicity(res, "stand-in", 3, T, SimpleNamespace(is_nested=True))
    [rec] = res.records
    return rec


def test_nested_monotonicity_fails_on_bad_tables():
    everything = (1, [1, 1, 1, 1])
    good = _stand_in(everything, everything, (3, [1, 0, 1, 0]), (3, [1, 0, 1, 0]),
                     (9, [1, 0, 0, 0]))
    assert _pairwise_nested_monotonicity(good)
    assert _nested_record(good).status == "pass"
    bad = {
        # {0, 1} is not inside {0, 2}, although the orders do shrink (5 -> 3)
        "not nested": (_stand_in(everything, (3, [1, 0, 1, 0]), (9, [1, 1, 0, 0])),
                       "degree 3 with |Z(chi)| = 5, degree 9 with |Z(chi)| = 3"),
        "one degree, two centers": (
            _stand_in(everything, (3, [1, 1, 0, 0]), (3, [1, 0, 1, 0])),
            "degree 3 with |Z(chi)| = 3, degree 3 with |Z(chi)| = 5"),
        "no shrinkage": (_stand_in(everything, (3, [1, 1, 0, 0]), (9, [1, 1, 0, 0])),
                         "degree 3 with |Z(chi)| = 3, degree 9 with |Z(chi)| = 3"),
    }
    for name, (T, detail) in bad.items():
        assert not _pairwise_nested_monotonicity(T), name
        rec = _nested_record(T)
        assert rec.status == "fail", name
        assert rec.detail == detail, name
        assert rec.to_json()["detail"] == detail, name


def test_nested_monotonicity_matches_pairwise_reference():
    checked = 0
    for label, p in _entries_for((3,)):
        b = bundle(label, p)
        if not b["report"].is_nested:
            continue
        want = "pass" if _pairwise_nested_monotonicity(b["table"]) else "fail"
        assert _nested_record(b["table"]).status == want, label
        checked += 1
    assert checked > 0


def test_verify_guards_survive_optimize(run_optimized):
    """Under python -O the quotient-structure guard still raises its typed
    error, and a wrong counting formula still records a failure."""
    code = r"""
import pgclass as pg
import pgclass.verify as vf

real_counts = vf.counting_formulas
real_subgroup = vf.subgroup_generated
vf.subgroup_generated = lambda gens, G: G.center   # order p^2, not p
try:
    vf._check_quotient_structure(vf.SuiteResult("paper"), (5,))
except pg.InternalInconsistencyError:
    print("quotient_line")
vf.subgroup_generated = real_subgroup

def off_by_one(p, n):
    c = real_counts(p, n)
    return pg.CountingResult(c.p, c.order_exp, c.gvz_count + 1, c.nested_count)

vf.counting_formulas = off_by_one
res = vf.SuiteResult("paper")
vf._check_counting(res, 5)
print(*sorted(f"{r.check}:{r.status}" for r in res.records))
"""
    assert run_optimized(code).split() == [
        "quotient_line", "counting-p5:fail", "counting-p6:fail"]


def test_cli_exit_codes_survive_optimize(run_optimized, tmp_path):
    """Under python -O the CLI still maps its errors to exit codes: a
    parse error and a missing file are input errors (1), and a table guard
    that fires under `chartable --json` is an internal inconsistency (2)
    with the error in the JSON."""
    good = write_pres(tmp_path, "heisenberg_p3", 3)
    bad = tmp_path / "bad.pg"
    bad.write_text("group bad prime 4\ngens a\n", encoding="utf-8")
    code = f"""
import contextlib, io, json
import pgclass.chartable as ct
from pgclass.cli import main

def run(*args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(args))
    return code, out.getvalue()

print(run("classify", {str(bad)!r})[0], run("classify", {str(tmp_path / "missing.pg")!r})[0])
linear_rows_data = ct._linear_rows_data
def corrupted(G, zc):
    t, keys = linear_rows_data(G, zc)
    t[1, -1] = (t[1, -1] + 1) % G.exponent
    return t, keys
ct._linear_rows_data = corrupted
code, out = run("chartable", {str(good)!r}, "--json")
js = json.loads(out)
print(code, js["internal"], js["error"] == "linear row breaks a commutator relation")
"""
    assert run_optimized(code).split() == ["1", "1", "2", "True", "True"]


def test_verify_repeated_primes_run_once(tmp_path):
    """A prime listed twice runs once: the JSON of --primes 3,3 is the
    JSON of --primes 3, byte for byte."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli("verify", "--primes", "3,3", "--json", str(a))[0] == 0
    assert run_cli("verify", "--primes", "3", "--json", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_census_missing_directory_writes_error_json(tmp_path):
    out = tmp_path / "census.json"
    code, _, err = run_cli("census", str(tmp_path / "missing"), "--json", str(out))
    assert code == 1
    assert "error" in err
    js = json.loads(out.read_text(encoding="utf-8"))
    assert js["internal"] is False and "missing" in js["error"]


@pytest.mark.parametrize("command", ["classify", "chartable"])
def test_cli_directory_input_is_an_input_error(tmp_path, command):
    """A directory where a presentation file belongs is an input error:
    exit 1, with the error payload on stdout under --json."""
    code, out, _ = run_cli(command, str(tmp_path), "--json")
    assert code == 1
    js = json.loads(out)
    assert js["internal"] is False and js["error"]


def test_census_of_a_file_writes_error_json(tmp_path):
    """A census of a file, not a directory, is an input error: exit 1, and
    the error payload goes into the --json file."""
    f = write_pres(tmp_path, "heisenberg_p3", 3)
    out = tmp_path / "census.json"
    code, _, err = run_cli("census", str(f), "--json", str(out))
    assert code == 1
    assert "error" in err
    js = json.loads(out.read_text(encoding="utf-8"))
    assert js["internal"] is False and js["error"]
