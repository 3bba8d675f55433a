"""Classify every order-p^6 corpus entry, each in a process of its own.

    python3 scripts/p6_corpus.py [--p 11]

Run it from anywhere in a source checkout; pgclass is imported from the
checkout's src/.  For each REGISTRY entry of order p^6 that covers p, a
fresh Python process runs classification_report and prints one line: the
verdicts against the entry's expectations, the seconds of the report
(group tables and classes included), the process's ru_maxrss and the
bytes of the group tables held afterwards: the right tables and the
inverse table, and the left and conjugation tables if anything formed
them.  An entry whose class count exceeds chartable._MAX_CLASSES is
printed as refused.  The exit status is 1 if any verdict differs from
its expectation or any child fails.
"""

from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TABLES = ("right_tables", "left_tables", "conj_tables", "inverse_table")


def classify_entry(label: str, p: int) -> dict:
    """Classify REGISTRY[label] at p in this process: the report's verdicts,
    the expected ones and the verdicts that differ from them, or the
    refusal; seconds; ru_maxrss and the held table bytes, in MiB."""
    import pgclass as pg
    from pgclass.group import Group

    P = pg.build(label, p)
    G = None
    t0 = time.perf_counter()
    try:
        G = Group(P)  # not group_of's cached group, which may hold more tables
        rep = pg.classification_report(G)
        verdicts, refused = {"gvz": rep.is_gvz, "nested": rep.is_nested, "vz": rep.is_vz}, None
    except ValueError as exc:  # the desk-scale limits refuse, by ValueError
        verdicts, refused = None, str(exc)
    seconds = time.perf_counter() - t0
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    built = vars(G) if G is not None else {}
    held = [built[a] for a in TABLES if a in built]  # lists of tables, or one table
    expected = pg.REGISTRY[label].expected
    return {
        "label": label,
        "p": p,
        "verdicts": verdicts,
        "expected": expected,
        "mismatches": [k for k, v in expected.items() if verdicts and verdicts[k] != v],
        "refused": refused,
        "seconds": seconds,
        "maxrss_mib": maxrss,
        "tables_mib": sum(sum(t.nbytes for t in h) if isinstance(h, list) else h.nbytes
                          for h in held) / 2**20,
    }


def entry_line(rec: dict) -> str:
    """One printed line: label@p, the verdicts or the refusal, then the costs."""
    if rec["refused"] is not None:
        verdict = f"refused ({rec['refused']})"
    else:
        got = " ".join(f"{k}={v}" for k, v in rec["verdicts"].items())
        bad = rec["mismatches"]
        verdict = f"{got}  {'MISMATCH ' + ','.join(bad) if bad else 'as expected'}"
    return (f"{rec['label'] + '@' + str(rec['p']):<28} {verdict:<52} {rec['seconds']:7.2f} s"
            f"  ru_maxrss {rec['maxrss_mib']:7.1f} MiB  tables {rec['tables_mib']:6.1f} MiB")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--p", type=int, default=11)
    ap.add_argument("--entry", metavar="LABEL",
                    help="classify this entry in this process and print its line")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.entry:
        rec = classify_entry(args.entry, args.p)
        print(entry_line(rec), flush=True)
        return 1 if rec["mismatches"] else 0

    from pgclass import REGISTRY

    status = 0
    for label, entry in REGISTRY.items():
        if entry.order_exp != 6 or not entry.covers(args.p):
            continue
        proc = subprocess.run([sys.executable, __file__, "--p", str(args.p), "--entry", label])
        if proc.returncode:
            status = 1
        if proc.returncode < 0:  # killed by a signal, out of memory say, before its line
            print(f"{label}@{args.p}: killed by signal {-proc.returncode}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
