"""Tests of the benchmark itself (not of pgclass).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import generate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder, Span, inclusive_times, pool_usage, self_times  # noqa: E402


# -- generator ---------------------------------------------------------------


def test_generator_is_deterministic():
    assert generate.census_texts(7) == generate.census_texts(7)
    assert generate.census_texts(7) != generate.census_texts(8)
    assert generate.p7_class2_text(7) == generate.p7_class2_text(7)
    assert generate.p7_class2_text(7) != generate.p7_class2_text(8)


def test_generated_presentations_are_consistent_class_2():
    import pgclass as pg

    texts = dict(generate.census_texts(3))
    texts["p7.pg"] = generate.p7_class2_text(3)
    assert len(texts) == sum(n for _, _, n in generate.CENSUS_STRATA) + 1
    for name, text in texts.items():
        P = pg.parse_presentation(text, name=name)
        assert pg.check_consistency(P).consistent, name
        if P.order <= 3**5:
            assert pg.nilpotency_class(P) == 2, name


def test_p7_group_has_a_fixed_class_count():
    import pgclass as pg

    for seed in (0, 1):
        P = pg.parse_presentation(generate.p7_class2_text(seed))
        assert pg.Group(P).conjugacy_classes.count == 2449


# -- spans -------------------------------------------------------------------


def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, "item", "MainThread")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 3.0, parent=0),
        _span(2, "b", 2.0, 5.0, parent=0),   # overlaps a: union is [1, 5]
        _span(3, "c", 6.0, 7.0, parent=0),
        _span(4, "d", 6.2, 6.7, parent=3),   # a grandchild does not count for root
        _span(5, "e", 9.5, 12.0, parent=0),  # clipped to the parent's end
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert st[3] == pytest.approx(0.5)
    assert st[4] == pytest.approx(0.5)


def test_inclusive_time_does_not_count_nested_same_name_twice():
    spans = [
        _span(0, "x", 0.0, 4.0),
        _span(1, "y", 0.5, 3.5, parent=0),
        _span(2, "x", 1.0, 2.0, parent=1),
        _span(3, "x", 5.0, 6.0),
    ]
    incl = inclusive_times(spans)
    assert incl == {"x": pytest.approx(5.0), "y": pytest.approx(3.0)}


def test_pool_usage_counts_worker_roots_only():
    spans = [
        Span(0, "w", 0.0, 2.0, None, "a", "worker-1"),
        Span(1, "w", 0.5, 3.0, None, "b", "worker-2"),
        Span(2, "inner", 0.6, 1.0, 1, "b", "worker-2"),
        Span(3, "main", 0.0, 9.0, None, "s", "MainThread"),
    ]
    busy, wall = pool_usage(spans, "MainThread")
    assert busy == pytest.approx(4.5)
    assert wall == pytest.approx(3.0)


def test_recorder_nests_spans_per_thread():
    mod = SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    rec = Recorder()
    rec.patch(mod, "inner", lambda fn: rec.span("inner", fn))
    rec.patch(mod, "outer", lambda fn: rec.span("outer", fn, item_of=lambda a, k: str(a[0])))
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            assert list(pool.map(mod.outer, range(20))) == [2 * (x + 1) for x in range(20)]
    finally:
        rec.uninstall()
    assert mod.inner(1) == 2 and not hasattr(mod.inner, "__wrapped__")
    spans = rec.spans()
    by_id = {s.id: s for s in spans}
    inner = [s for s in spans if s.name == "inner"]
    assert len(inner) == 20
    for s in inner:
        parent = by_id[s.parent]
        assert parent.name == "outer"
        assert parent.thread == s.thread and parent.item == s.item
        assert parent.start <= s.start <= s.end <= parent.end
    assert threading.current_thread().name not in {s.thread for s in spans}


def test_recorder_refuses_a_missing_attribute():
    rec = Recorder()
    with pytest.raises(AttributeError, match="gone"):
        rec.patch(SimpleNamespace(), "gone", lambda fn: rec.span("gone", fn))


def test_every_per_layer_metric_has_a_source():
    rec = Recorder()
    layers.install(rec)
    try:
        values = layers.metrics(rec, threading.main_thread().name)
    finally:
        rec.uninstall()
    missing = {m for m, _, _ in layers.PER_LAYER} - set(values)
    assert missing == set(layers.FROM_RUN)


def test_reset_caches_empties_every_cache():
    import importlib

    for mod, attr in workloads._CACHES:
        getattr(importlib.import_module(f"pgclass.{mod}"), attr)["probe"] = None
    workloads.reset_caches()
    for mod, attr in workloads._CACHES:
        assert "probe" not in getattr(importlib.import_module(f"pgclass.{mod}"), attr)


# -- checkers ----------------------------------------------------------------


def _fake_table(degrees, k):
    return SimpleNamespace(degrees=lambda: degrees, rows=[None] * len(degrees),
                           classes=SimpleNamespace(count=k))


def _fake_report(**verdict):
    base = {"is_gvz": True, "is_flat": True, "is_nested": True, "is_vz": False}
    base.update(verdict)
    return SimpleNamespace(**base)


def test_classify_check_rejects_a_wrong_verdict():
    P = SimpleNamespace(p=3, gens=("a", "b", "c"))
    T = _fake_table([1] * 9 + [3, 3], 11)
    wl = workloads.ClassifyP7()
    good = ("rand_class2_p7", P, T, _fake_report(), {}, None)
    bad = ("rand_class2_p7", P, T, _fake_report(is_gvz=False, is_flat=False), {}, None)
    # G_(17,1) is registered as not GVZ, so a GVZ verdict is wrong
    wrong_corpus = ("G_(17,1)", P, T, _fake_report(), {}, None)
    results = wl.check(None, [good, bad, wrong_corpus])
    assert [ok for _, ok, _ in results] == [True, False, False]


def test_classify_check_rejects_bad_degrees():
    P = SimpleNamespace(p=3, gens=("a", "b", "c"))
    wl = workloads.ClassifyP7()
    out = ("rand_class2_p7", P, _fake_table([1] * 9 + [3], 11), _fake_report(), {}, None)
    [(_, ok, detail)] = wl.check(None, [out])
    assert not ok and "squared degrees" in detail and "row count" in detail


def test_census_check_rejects_a_wrong_verdict(tmp_path):
    rec = SimpleNamespace(check="census-file", group="f.pg", status="pass", detail="")
    total = SimpleNamespace(check="census-total", group="d", status="pass", detail="")
    res = SimpleNamespace(records=[rec, total])
    inputs = (tmp_path, {"f": workloads.CLASS2})
    wl = workloads.CensusP35()
    assert all(ok for _, ok, _ in wl.check(inputs, (res, {"f": _fake_report()}, None)))
    bad = wl.check(inputs, (res, {"f": _fake_report(is_gvz=False)}, None))
    assert [ok for _, ok, _ in bad] == [False, True]
    unreported = wl.check(inputs, (res, {}, None))
    assert [ok for _, ok, _ in unreported] == [False, True]


def test_chartable_json_check_rejects_a_wrong_first_column():
    tab = {"classes": [{}, {}, {}], "rows": [
        {"degree": 1, "values": ["1", "1", "1"]},
        {"degree": 1, "values": ["1", "E(3)", "E(3)^2"]},
        {"degree": 1, "values": ["1", "E(3)^2", "E(3)"]},
    ]}
    assert workloads.ChartableJson.table_problems(json.dumps(tab).encode(), 3) == []
    tab["rows"][2]["values"][0] = "2"
    problems = workloads.ChartableJson.table_problems(json.dumps(tab).encode(), 3)
    assert problems == ["first column differs from the degrees"]


def test_chartable_json_digests_are_kept_per_source(tmp_path, monkeypatch):
    # only the determinism check is under test here
    monkeypatch.setattr(workloads.ChartableJson, "table_problems",
                        staticmethod(lambda raw, order: []))
    ok = [("G", b'{"rows": []}', 0, None)]
    changed = [("G", b'{"rows": [ ]}', 0, None)]
    wl = workloads.ChartableJson(tmp_path)
    assert workloads.sources_digest() in wl.digest_file.name
    assert [ok for _, ok, _ in wl.check(None, ok)] == [True]
    # a later run of the same sources compares against the stored digest
    assert [ok for _, ok, _ in workloads.ChartableJson(tmp_path).check(None, changed)] == [False]
    # other sources start afresh
    other = workloads.ChartableJson(tmp_path)
    other.digest_file = tmp_path / "chartable-json-other.sha256.json"
    assert [ok for _, ok, _ in other.check(None, changed)] == [True]


# -- BENCHMARK.json and the command line ---------------------------------------


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layers.PER_LAYER
    ]


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census-p35", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
