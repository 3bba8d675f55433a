"""pgclass benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; pgclass is imported from
./src.  Workloads: classify-p7, census-p35, suite-p35, chartable-json
(see README.md in this directory for why each one exists).

With --trace 0 the run sets up the workload three times (setup_s is the
CPU time of the imports plus the median CPU time of building the
inputs), then makes timed
passes until --seconds have gone by (at least one; every pass starts
from empty pgclass caches) and reports the median pass.  With --trace 1
it makes one plain pass and one pass with the layer wrappers installed,
prints a self-time report, writes the spans under .perfbench/, and
reports the per-layer metrics.  Every output is checked; the last line
of stdout is the result as one JSON object.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUPS = 3
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))


def _info(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload, sort_keys=True)}", flush=True)


def machine_facts(threads: int) -> dict:
    import numpy as np

    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        pass
    env = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "PGCLASS_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in env},
        "threads_passed": threads,
        "loadavg": os.getloadavg(),
    }


def steal_seconds() -> float | None:
    """Machine-wide CPU time taken by the hypervisor, if the kernel shows it.
    Reported next to wall_s only to explain wall time lost to the host."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def timed_pass(wl, inputs, threads, rec=None):
    import workloads

    workloads.reset_caches()
    gc.collect()
    s0 = steal_seconds()
    c0, t0 = time.process_time(), perf_counter()
    outputs = wl.run(inputs, threads, rec)
    wall, cpu = perf_counter() - t0, time.process_time() - c0
    s1 = steal_seconds()
    steal = s1 - s0 if s0 is not None and s1 is not None else None
    return outputs, wall, cpu, steal


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pgclass" / "__init__.py").is_file():
        print(f"perfbench: no pgclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import pgclass
    import workloads

    if Path(pgclass.__file__).resolve().parent != ROOT / "src" / "pgclass":
        print(f"perfbench: imported pgclass from {pgclass.__file__}", file=sys.stderr)
        return 2
    # CPU seconds since the process started: the interpreter and the
    # imports.  Unlike wall time, CPU time does not grow when the host
    # takes the CPU away (steal time).
    import_s = time.process_time()

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    STATE.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    wl = cls(STATE) if cls is workloads.ChartableJson else cls()
    workdir = STATE / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        setups = []
        for i in range(SETUPS):
            workloads.reset_caches()
            d = workdir / f"setup{i}"
            d.mkdir()
            c0 = time.process_time()
            inputs = wl.setup(args.seed, d)
            setups.append(import_s + time.process_time() - c0)
        return measure(args, wl, inputs, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl, inputs, setups: list[float]) -> int:
    nproc = len(os.sched_getaffinity(0))
    threads = min(wl.threads, nproc)
    _info("machine", machine_facts(threads))

    results = []
    if args.trace:
        metrics = traced(args, wl, inputs, threads, results)
    else:
        walls, cpus, steals = [], [], []
        start = perf_counter()
        while not walls or perf_counter() - start < args.seconds:
            outputs, wall, cpu, steal = timed_pass(wl, inputs, threads)
            if not walls:
                # later passes add heap fragmentation noise, not pgclass memory
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            walls.append(wall)
            cpus.append(cpu)
            steals.append(steal)
            results += wl.check(inputs, outputs)
            if hasattr(wl, "stages"):
                _info("stages", wl.stages(outputs))
        _info("passes", {"wall_s": walls, "cpu_s": cpus, "steal_s": steals,
                         "setup_s": setups})
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak,
        }
        metrics = {m: {"value": values[m], "unit": u} for m, u in END_TO_END}

    failed = [(item, detail) for item, ok, detail in results if not ok]
    for item, detail in failed:
        print(f"FAILED {item}: {detail}", flush=True)
    print(json.dumps({
        "correct": not failed and bool(results),
        "attempted": max(1, len(results)),
        "failed": len(failed) if results else 1,
        "metrics": metrics,
    }), flush=True)
    return 0


def traced(args, wl, inputs, threads, results) -> dict:
    import layers
    from spans import Recorder, self_time_report

    outputs, wall_plain, _, _ = timed_pass(wl, inputs, threads)
    results += wl.check(inputs, outputs)

    rec = Recorder()
    layers.install(rec)
    try:
        outputs, wall_traced, _, _ = timed_pass(wl, inputs, threads, rec)
    finally:
        rec.uninstall()
    results += wl.check(inputs, outputs)
    if hasattr(wl, "stages"):
        _info("stages", wl.stages(outputs))

    values = layers.metrics(rec, threading.main_thread().name)
    values["cli.output_bytes"] = wl.output_bytes(outputs) if hasattr(wl, "output_bytes") else 0
    values["trace.wall_s"] = wall_traced
    values["trace.overhead_s"] = wall_traced - wall_plain
    values["trace.spans"] = len(rec.spans())
    _info("trace", {"untraced_wall_s": wall_plain, "traced_wall_s": wall_traced,
                    "overhead_s": wall_traced - wall_plain})
    self_time_report(rec.spans())
    rec.write(STATE / f"spans-{args.workload}-seed{args.seed}.jsonl")
    # every metric has a value: layers.metrics starts each wrapped name at 0,
    # and a wrapper that cannot be installed has already stopped the run
    return {m: {"value": values[m], "unit": u} for m, u, _ in layers.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
