"""The benchmark workloads: inputs from a seed, one timed pass, and checks.

Each workload has three steps:

- setup(seed, workdir) builds or writes the inputs (timed as setup_s);
- run(inputs, threads, rec) is one timed pass over them; threads is the
  workload's own thread count, at most nproc; rec is the span recorder in
  the traced run and None otherwise;
- check(inputs, outputs) returns one (item, ok, detail) per item.

Every expectation comes from the corpus registry (REGISTRY.expected), from
arithmetic on the input (|G| = p^n), or from the theorem that class-2
groups are flat and hence GVZ; none is a stored pgclass output.  The
chartable-json determinism check compares output bytes only between
passes and runs of the same pgclass sources; it checks that the output
does not change, not what it is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from pathlib import Path
from time import perf_counter

import generate

CLASS2 = {"gvz": True, "flat": True}


def sources_digest() -> str:
    """Short hash of the pgclass sources that are imported."""
    import pgclass

    src = Path(pgclass.__file__).resolve().parent
    h = hashlib.sha256()
    for f in sorted(src.rglob("*.py")):
        h.update(f.relative_to(src).as_posix().encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


_CACHES = (("group", "_group_cache"), ("chartable", "_table_cache"),
           ("verify", "_bundles"), ("presentation", "_collectors"))


def reset_caches() -> None:
    """Empty the module-level caches so that every pass does the same work.
    A cache that is gone or cannot be emptied stops the run (AttributeError),
    because passes after the first would then run warm."""
    import importlib

    for mod, attr in _CACHES:
        getattr(importlib.import_module(f"pgclass.{mod}"), attr).clear()


def _verdict_problems(rep, expected: dict) -> list[str]:
    got = {"gvz": rep.is_gvz, "flat": rep.is_flat, "nested": rep.is_nested,
           "vz": rep.is_vz}
    return [f"{k}={got[k]}, expected {v}" for k, v in expected.items() if got[k] != v]


def _checked(pg, text: str, name: str):
    """Parse generated text and insist that it is consistent."""
    P = pg.parse_presentation(text, name=name)
    if not pg.check_consistency(P).consistent:
        raise RuntimeError(f"generated presentation {name} is inconsistent")
    return P


# ---------------------------------------------------------------------------


class ClassifyP7:
    """Serial classification of three groups of order 7^6 on fresh Groups."""

    name = "classify-p7"
    threads = 1  # serial

    def setup(self, seed: int, workdir: Path):
        import pgclass as pg

        items = [(label, pg.build(label, 7)) for label in ("G_(17,1)", "G_(19,1)")]
        # a fixed order: the order moves the peak RSS (the table cache keeps
        # every table of the pass), so only the random group depends on the seed
        items.append(("rand_class2_p7",
                      _checked(pg, generate.p7_class2_text(seed), "rand_class2_p7")))
        return items

    def run(self, items, threads: int, rec):
        import pgclass as pg

        out = []
        for label, P in items:
            if rec is not None:
                rec.set_item(label)
            try:
                t0 = perf_counter()
                G = pg.Group(P)
                G.conjugacy_classes
                t1 = perf_counter()
                T = pg.table_of(G)
                t2 = perf_counter()
                rep = pg.classification_report(G, table=T)
                t3 = perf_counter()
            except Exception as exc:  # noqa: BLE001 - counted as a failed item
                out.append((label, P, None, None, None, repr(exc)))
                continue
            stages = {"group_classes_s": t1 - t0, "table_s": t2 - t1, "report_s": t3 - t2}
            out.append((label, P, T, rep, stages, None))
        return out

    def check(self, items, outputs):
        import pgclass as pg

        results = []
        for label, P, T, rep, _, err in outputs:
            if err is not None:
                results.append((label, False, err))
                continue
            entry = pg.REGISTRY.get(label)
            problems = _verdict_problems(rep, entry.expected if entry else CLASS2)
            if sum(d * d for d in T.degrees()) != P.p ** len(P.gens):
                problems.append("squared degrees do not sum to |G|")
            if len(T.rows) != T.classes.count:
                problems.append("row count differs from class count")
            results.append((label, not problems, "; ".join(problems)))
        return results

    @staticmethod
    def stages(outputs) -> dict:
        return {label: st for label, _, _, _, st, _ in outputs if st is not None}


# ---------------------------------------------------------------------------


class CensusP35:
    """run_ingested_census over seeded class-2 files plus small corpus groups."""

    name = "census-p35"
    # one pool worker: with two, the pure-Python workers spent the pass
    # handing the GIL to each other, and on a 2-vCPU VM the pass took
    # 7.2-9.5 s against 6.4-7.4 s with one, from run to run on the same files
    threads = 1

    def setup(self, seed: int, workdir: Path):
        import pgclass as pg

        d = workdir / "census"
        d.mkdir(parents=True)
        expected = {}
        for fname, text in generate.census_texts(seed).items():
            _checked(pg, text, fname[:-3])
            (d / fname).write_text(text, encoding="utf-8")
            expected[fname[:-3]] = CLASS2
        for p in generate.CENSUS_PRIMES:
            for label, entry in pg.REGISTRY.items():
                if entry.order_exp <= generate.CENSUS_MAX_ORDER_EXP and entry.min_p <= p:
                    # the census names a report after the presentation's own
                    # name, so make it unique across primes
                    stem = f"{label}_p{p}"
                    P = dataclasses.replace(pg.build(label, p), name=stem)
                    (d / f"{stem}.pg").write_text(pg.presentation_text(P), encoding="utf-8")
                    expected[stem] = entry.expected
        return d, expected

    def run(self, inputs, threads: int, rec):
        from pgclass import verify

        d, expected = inputs
        # the census reports only pass/fail per file; keep each report so
        # that its verdict can be checked (one list append per file)
        reports = []
        inner = verify.classification_report

        def keep(P, **kw):
            rep = inner(P, **kw)
            reports.append((P.name, rep))
            return rep

        verify.classification_report = keep
        try:
            res = verify.run_ingested_census(d, expected_total=len(expected),
                                             threads=threads)
            return res, dict(reports), None
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            return None, dict(reports), repr(exc)
        finally:
            verify.classification_report = inner

    def check(self, inputs, outputs):
        _, expected = inputs
        res, reports, err = outputs
        if err is not None:
            return [("census", False, err)] + [(n, False, "census raised") for n in expected]
        status = {r.group: r for r in res.records if r.check == "census-file"}
        results = []
        for stem, want in sorted(expected.items()):
            rec = status.get(stem + ".pg")
            rep = reports.get(stem)
            if rec is None or rec.status != "pass":
                detail = rec.detail if rec is not None else "no record"
                results.append((stem, False, f"file did not classify: {detail}"))
                continue
            if rep is None:
                results.append((stem, False, "the census made no report for the file"))
                continue
            problems = _verdict_problems(rep, want)
            results.append((stem, not problems, "; ".join(problems)))
        totals = [r for r in res.records if r.check == "census-total"]
        results.append(("census-total", len(totals) == 1 and totals[0].status == "pass",
                        totals[0].detail if totals else "no census-total record"))
        return results


# ---------------------------------------------------------------------------


class SuiteP35:
    """The paper suite at p = 3, 5 (fixed inputs; the seed changes nothing)."""

    name = "suite-p35"
    threads = 2  # the workload that measures the thread pool
    primes = (3, 5)

    def setup(self, seed: int, workdir: Path):
        import pgclass  # noqa: F401 - the import is the set-up

        return self.primes

    def run(self, primes, threads: int, rec):
        import pgclass as pg
        from pgclass import verify

        if rec is not None:
            rec.set_item("suite")
        try:
            res = pg.run_paper_suite(primes=primes, threads=threads)
        except Exception as exc:  # noqa: BLE001 - counted as a failed item
            return None, {}, repr(exc)
        reports = {key: b["report"] for key, b in verify._bundles.items()}
        return res, reports, None

    def check(self, primes, outputs):
        import pgclass as pg

        res, reports, err = outputs
        if err is not None:
            return [("suite", False, err)]
        results = []
        for r in res.sorted_records():
            if r.status != "skip":
                results.append((f"{r.check}:{r.group}@{r.p}", r.status == "pass", r.detail))
        for label, entry in pg.REGISTRY.items():
            for p in primes:
                in_range = p >= entry.min_p and (entry.max_p is None or p <= entry.max_p)
                if not in_range or entry.expected is None:
                    continue
                rep = reports.get((label, p))
                if rep is None:
                    results.append((f"expected:{label}@{p}", False, "the suite made no report"))
                    continue
                problems = _verdict_problems(rep, entry.expected)
                results.append((f"expected:{label}@{p}", not problems, "; ".join(problems)))
        return results


# ---------------------------------------------------------------------------


class ChartableJson:
    """`pgclass chartable FILE --json` in-process, stdout kept in memory
    (fixed inputs; the seed changes nothing)."""

    name = "chartable-json"
    threads = 1  # serial
    groups = ("G_(17,1)", "G_(14,3)")
    p = 5

    def __init__(self, state_dir: Path | None = None):
        # output digests of earlier passes, and of earlier runs of the same
        # pgclass sources, for the determinism check
        self.digests: dict[str, str] = {}
        self.digest_file = None
        if state_dir is not None:
            self.digest_file = state_dir / f"chartable-json-{sources_digest()}.sha256.json"

    def setup(self, seed: int, workdir: Path):
        import pgclass as pg

        d = workdir / "chartable"
        d.mkdir(parents=True)
        files = []
        for label in self.groups:
            f = d / f"{label}.pg"  # the stem is the group's name, as in the file
            f.write_text(pg.presentation_text(pg.build(label, self.p)), encoding="utf-8")
            files.append((label, f))
        return files

    def run(self, files, threads: int, rec):
        from pgclass import cli

        out = []
        for label, f in files:
            if rec is not None:
                rec.set_item(label)
            # stdout goes to memory: writing ~30 MB to a shared disk added
            # seconds of run-to-run noise that is not pgclass's doing
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["chartable", str(f), "--json"])
            except Exception as exc:  # noqa: BLE001 - counted as a failed item
                out.append((label, b"", None, repr(exc)))
                continue
            out.append((label, buf.getvalue().encode("utf-8"), code, None))
        return out

    @staticmethod
    def output_bytes(outputs) -> int:
        return sum(len(raw) for _, raw, _, _ in outputs)

    def check(self, files, outputs):
        results = []
        digests = self.digests
        if self.digest_file is not None and self.digest_file.is_file():
            digests.update(json.loads(self.digest_file.read_text(encoding="utf-8")))
        for label, raw, code, err in outputs:
            if err is not None or code != 0:
                results.append((label, False, err or f"exit code {code}"))
                continue
            problems = self.table_problems(raw, self.p ** 6)
            digest = hashlib.sha256(raw).hexdigest()
            if digests.setdefault(label, digest) != digest:
                problems.append("output bytes differ from an earlier run of the same sources")
            results.append((label, not problems, "; ".join(problems)))
        if self.digest_file is not None:
            self.digest_file.write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")
        return results

    @staticmethod
    def table_problems(raw: bytes, order: int) -> list[str]:
        try:
            tab = json.loads(raw)
            rows, classes = tab["rows"], tab["classes"]
            degrees = [r["degree"] for r in rows]
            first = [r["values"][0] for r in rows]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"output is not a character table: {exc!r}"]
        problems = []
        if len(rows) != len(classes):
            problems.append("row count differs from class count")
        if first != [str(d) for d in degrees]:
            problems.append("first column differs from the degrees")
        if sum(d * d for d in degrees) != order:
            problems.append("squared degrees do not sum to |G|")
        return problems


WORKLOADS = {w.name: w for w in (ClassifyP7, CensusP35, SuiteP35, ChartableJson)}
