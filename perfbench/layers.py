"""Which pgclass functions the traced run wraps, and the per-layer
metrics computed from what they record.

Span names are '<layer>.<what>'; the layers are the pgclass modules
presentation, group, chartable, modular, cyclotomic, classify, verify
and cli.  A metric '<span>_s' is the inclusive seconds of the named
spans and '<span>_calls' their number; the self-time report printed by
the traced run splits the seconds further.
"""

from __future__ import annotations

from spans import Recorder, inclusive_times, call_counts, pool_usage

# (metric, unit, better) in output order
PER_LAYER = (
    ("presentation.parse_s", "s", "lower"),
    ("presentation.consistency_s", "s", "lower"),
    ("presentation.consistency_calls", "count", "lower"),
    ("group.tables_s", "s", "lower"),
    ("group.classes_s", "s", "lower"),
    ("group.classes_k", "count", "lower"),
    ("group.quotient_s", "s", "lower"),
    ("group.quotient_calls", "count", "lower"),
    ("group.lmul_calls", "count", "lower"),
    ("group.rmul_calls", "count", "lower"),
    ("chartable.table_s", "s", "lower"),
    ("chartable.central_blocks_s", "s", "lower"),
    ("chartable.linear_rows_s", "s", "lower"),
    ("chartable.lift_s", "s", "lower"),
    ("chartable.split_s", "s", "lower"),
    ("chartable.combination_rows_s", "s", "lower"),
    ("chartable.split_rounds", "count", "lower"),
    ("chartable.rows_needed", "count", "lower"),
    ("chartable.pool_members", "count", "lower"),
    ("chartable.verify_s", "s", "lower"),
    ("chartable.verify_block_s", "s", "lower"),
    ("chartable.verify_structural_s", "s", "lower"),
    ("chartable.rows.unity", "count", "lower"),
    ("chartable.rows.central", "count", "lower"),
    ("chartable.rows.dense", "count", "lower"),
    ("chartable.rows.sparse", "count", "lower"),
    ("chartable.to_json_s", "s", "lower"),
    ("modular.rref_s", "s", "lower"),
    ("modular.rref_calls", "count", "lower"),
    ("modular.kernel_s", "s", "lower"),
    ("modular.kernel_calls", "count", "lower"),
    ("modular.minpoly_s", "s", "lower"),
    ("modular.minpoly_calls", "count", "lower"),
    ("modular.roots_s", "s", "lower"),
    ("cyclotomic.objects", "count", "lower"),
    ("cyclotomic.init_s", "s", "lower"),
    ("cyclotomic.str_s", "s", "lower"),
    ("classify.report_s", "s", "lower"),
    ("classify.flat_s", "s", "lower"),
    ("classify.camina_s", "s", "lower"),
    ("classify.nested_s", "s", "lower"),
    ("classify.central_type_calls", "count", "lower"),
    ("verify.nested_monotonicity_s", "s", "lower"),
    ("verify.quotient_structure_s", "s", "lower"),
    ("verify.isoclinism_s", "s", "lower"),
    ("verify.bundle_busy_s", "s", "lower"),
    ("verify.warm_wall_s", "s", "lower"),
    ("verify.pool_parallelism", "ratio", "higher"),
    ("cli.emit_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


# counters recorded by the after= hooks below; they read 0 when not hit
COUNTERS = ("group.classes_k", "chartable.split_rounds", "chartable.rows_needed",
            "chartable.pool_members", "chartable.rows.unity", "chartable.rows.central",
            "chartable.rows.dense", "chartable.rows.sparse")
# set by the run itself rather than from the recorder
FROM_RUN = ("cli.output_bytes", "trace.wall_s", "trace.overhead_s", "trace.spans")


def _after_classes(rec, args, kwargs, cls):
    rec.count("group.classes_k", cls.count)


def _after_combination_rows(rec, args, kwargs, result):
    # _combination_rows(G, cls, rows_needed, pool, weights, q)
    cls, rows_needed, pool = args[1], args[2], args[3]
    rec.count("chartable.split_rounds")
    rec.count("chartable.rows_needed", int(rows_needed.size))
    rec.count("chartable.pool_members", int(sum(int(cls.sizes[i]) for i in pool)))


def _after_table(rec, args, kwargs, table):
    for row in table.rows:
        rec.count("chartable.rows." + row.kind)


def _label_p(args, kwargs):
    return f"{args[0]}@{args[1]}"


def _check_item(args, kwargs):
    # verify._check_nested_monotonicity(res, label, p, T, rep)
    return f"{args[1]}@{args[2]}"


def _pres_name(args, kwargs):
    P = args[0]
    pres = getattr(P, "pres", P)
    return getattr(pres, "name", "?")


def install(rec: Recorder) -> None:
    """Wrap the pgclass functions each layer calls through."""
    import pgclass
    from pgclass import (chartable, classify, cli, corpus, cyclotomic, group,
                         modular, presentation, verify)

    mods = (pgclass, chartable, classify, cli, corpus, cyclotomic, group,
            modular, presentation, verify)

    def span(owner, attr, name, **kw):
        rec.patch(owner, attr, lambda fn: rec.span(name, fn, **kw), mods)

    def tally(owner, attr, name, timed=False):
        rec.patch(owner, attr, lambda fn: rec.tally(name, fn, timed), mods)

    span(presentation, "parse_presentation", "presentation.parse",
         item_of=lambda a, k: k.get("name") or "?")
    span(presentation, "check_consistency", "presentation.consistency",
         item_of=_pres_name)

    for attr in ("right_tables", "left_tables", "inverse_table", "conj_tables"):
        span(group.Group, attr, "group.tables")
    span(group.Group, "conjugacy_classes", "group.classes",
         after=_after_classes)
    span(group, "quotient", "group.quotient")
    tally(group.Group, "lmul_array", "group.lmul")
    tally(group.Group, "rmul_array", "group.rmul")

    span(chartable, "compute_table", "chartable.table", item_of=_pres_name,
         after=_after_table)
    span(chartable, "_central_blocks", "chartable.central_blocks")
    span(chartable, "_linear_rows_data", "chartable.linear_rows")
    span(chartable, "_lift_rows", "chartable.lift")
    span(chartable, "_split_blocks", "chartable.split")
    span(chartable, "_combination_rows", "chartable.combination_rows",
         after=_after_combination_rows)
    span(chartable, "_verify_table", "chartable.verify")
    span(chartable, "_verify_pairs_against_block", "chartable.verify_block")
    span(chartable, "_verify_structural_pairs", "chartable.verify_structural")
    span(chartable.CharacterTable, "to_json", "chartable.to_json")

    span(modular, "rref_mod", "modular.rref")
    span(modular, "kernel_basis_mod", "modular.kernel")
    span(modular, "minimal_polynomial", "modular.minpoly")
    span(modular, "poly_roots", "modular.roots")

    tally(cyclotomic.Cyclotomic, "__init__", "cyclotomic.init", timed=True)
    tally(cyclotomic.Cyclotomic, "__str__", "cyclotomic.str", timed=True)

    span(classify, "classification_report", "classify.report", item_of=_pres_name)
    span(classify, "is_flat", "classify.flat")
    span(classify, "is_camina_pair", "classify.camina")
    span(classify, "is_gen_camina_pair", "classify.camina")
    span(classify, "is_nested", "classify.nested")
    tally(classify, "is_central_type", "classify.central_type")

    span(verify, "bundle", "verify.bundle", item_of=_label_p)
    span(verify, "_check_nested_monotonicity", "verify.nested_monotonicity",
         item_of=_check_item)
    span(verify, "_check_quotient_structure", "verify.quotient_structure")
    span(verify, "_check_isoclinism", "verify.isoclinism")

    span(cli, "_emit_json", "cli.emit")


def metrics(rec: Recorder, main_thread: str) -> dict[str, float]:
    """Per-layer values from one traced pass: '<span>_s' inclusive seconds
    and '<span>_calls' for every span name, plus the counters."""
    spans = rec.spans()
    out = dict.fromkeys(rec.declared | set(COUNTERS), 0)
    out.update(rec.counters())
    out["cyclotomic.objects"] = out.pop("cyclotomic.init_calls")
    for name, secs in inclusive_times(spans).items():
        out[name + "_s"] = secs
    for name, n in call_counts(spans).items():
        out[name + "_calls"] = n
    busy, wall = pool_usage(spans, main_thread)
    out["verify.bundle_busy_s"] = busy
    out["verify.warm_wall_s"] = wall
    out["verify.pool_parallelism"] = busy / wall if wall > 0 else 0.0
    return out
