"""scripts/p6_corpus.py: one entry classified in process."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def p6_corpus():
    spec = importlib.util.spec_from_file_location("p6_corpus", ROOT / "scripts" / "p6_corpus.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_classify_entry_matches_expected_at_p5():
    """G_(14,3)@5 classifies as its REGISTRY entry expects, and its held
    tables are the n + 1 int32 arrays (right tables and inverse) of
    |G| = 5^6 entries."""
    mod = p6_corpus()
    rec = mod.classify_entry("G_(14,3)", 5)
    assert rec["refused"] is None
    assert rec["verdicts"] == {"gvz": True, "nested": True, "vz": False} == rec["expected"]
    assert rec["mismatches"] == []
    assert rec["tables_mib"] * 2**20 == (6 + 1) * 5**6 * 4
    assert rec["seconds"] > 0 and rec["maxrss_mib"] > 0
    line = mod.entry_line(rec)
    assert line.startswith("G_(14,3)@5 ") and "as expected" in line
