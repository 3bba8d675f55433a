"""scripts/bench_pairs.py: which workloads a run pairs, with run_once faked."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def bench_pairs():
    path = ROOT / "scripts" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def run(tmp_path, monkeypatch, picked):
    """(workloads of the output file, workload of every run) for a run with
    --workload given once per name in picked."""
    bp = bench_pairs()
    calls = []

    def fake(tree, workload, seed):
        calls.append(workload)
        rec = {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}, "correct": True,
               "failed": 0, "attempted": 1}
        return rec, {}

    monkeypatch.setattr(bp, "run_once", fake)
    out = tmp_path / "bench.json"
    argv = ["--parent", str(ROOT), "--change", str(ROOT), "--out", str(out)]
    for name in picked:
        argv += ["--workload", name]
    assert bp.main(argv) == 0
    return list(json.loads(out.read_text())["workloads"]), calls, bp.PAIRS


@pytest.mark.parametrize("picked", [[], [NAMES[1]], [NAMES[-1], NAMES[0]]])
def test_workload_option_picks_the_pairs_to_run(tmp_path, monkeypatch, picked):
    """With no --workload every workload of BENCHMARK.json is paired; with
    one or more, those alone, in BENCHMARK.json's order, each for every
    pair on both sides."""
    got, calls, pairs = run(tmp_path, monkeypatch, picked)
    want = [n for n in NAMES if not picked or n in picked]
    assert got == want
    assert calls == [n for n in want for _ in range(2 * pairs)]


def test_unknown_workload_is_refused(tmp_path, monkeypatch):
    with pytest.raises(SystemExit):
        run(tmp_path, monkeypatch, [NAMES[0], "no-such-workload"])
