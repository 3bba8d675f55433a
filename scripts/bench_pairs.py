"""Alternating before/after runs of the benchmark, summarised as JSON.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json [--seed0 N]
        [--workload NAME ...]

DIR is a checkout of each tree (from `git archive`, say).  For every
workload of the change tree's BENCHMARK.json, or for those named by
--workload (repeatable) alone, pair i of 10 runs
`perfbench/run.py --workload W --seed SEED0+i --trace 0`, at run.py's own
run length, once in each tree, the side that runs first alternating from
pair to pair.  For each end-to-end metric the output gives each side's
median and quartiles over its runs, and the number of pairs in which the
change reads lower, which is better for every metric of BENCHMARK.json
(ties count for neither side), with the `machine` line each side printed
first.  Host speed drifts from session to session, so every file carries
its own parent runs; pass a --seed0 that no earlier file used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """(final JSON record, machine line) of one untraced run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    machine = next(json.loads(x[len("machine "):]) for x in lines if x.startswith("machine "))
    return json.loads(lines[-1]), machine


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seed0", type=int, default=1701)
    ap.add_argument("--workload", action="append", metavar="NAME",
                    help="run this workload's pairs only; repeatable (default: every workload)")
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [x["name"] for x in bench["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        ap.error(f"no such workload: {', '.join(unknown)} (BENCHMARK.json has {', '.join(names)})")
    out = {"pairs": PAIRS, "seeds": [args.seed0, args.seed0 + PAIRS - 1], "workloads": {}}
    for w in (n for n in names if not args.workload or n in args.workload):
        runs = {"parent": [], "change": []}
        machine = {}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                rec, mach = run_once(getattr(args, side), w, args.seed0 + i)
                machine.setdefault(side, mach)
                runs[side].append(rec)
                print(w, i, side, json.dumps(rec["metrics"]), flush=True)
        metrics = {}
        for name in runs["parent"][0]["metrics"]:
            vals = {s: [r["metrics"][name]["value"] for r in runs[s]] for s in runs}
            metrics[name] = {
                "unit": runs["parent"][0]["metrics"][name]["unit"],
                "parent": summary(vals["parent"]),
                "change": summary(vals["change"]),
                "change_wins": sum(c < p for p, c in zip(vals["parent"], vals["change"])),
            }
        out["workloads"][w] = {
            "metrics": metrics,
            "correct": {s: all(r["correct"] for r in runs[s]) for s in runs},
            "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
            "attempted": {s: sum(r["attempted"] for r in runs[s]) for s in runs},
            "machine": machine,
        }
        args.out.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
