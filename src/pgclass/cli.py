"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 internal predicate inconsistency,
3 suite failure.  Every command honors --json with schema-stable output,
including on error paths, where it is {"error": message, "internal": bool}.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import corpus
from .chartable import table_of
from .classify import classification_report, counting_formulas
from .errors import InternalInconsistencyError, ParseError
from .group import p_log
from .presentation import parse_presentation, presentation_text
from .verify import run_ingested_census, run_paper_suite, suite_to_json_text


def _emit_json(payload, table=None) -> None:
    """Write json.dumps(payload, indent=2, sort_keys=True) and a newline.

    With a character table, payload is its json_header() and the output is
    json.dumps(table.to_json(), indent=2, sort_keys=True) and a newline.
    "classes", the first key in sorted order, and "rows", most of a table's
    bytes and the last, are written here in the same layout, since with
    indent set json.dumps runs its pure-Python encoder once per entry; the
    other header keys go through json.dumps.  Every value is formatted, and
    each distinct string escaped once by the C string encoder, from the
    table's value_keys() before anything is written, so an error leaves
    stdout empty; then each row is one join of its escaped strings and one
    write."""
    if table is None:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    key, strs = table.value_keys()
    quoted = np.array([encode_basestring_ascii(s) for s in strs.tolist()], dtype=object)
    item = ",\n        "  # between the items of a list nested three deep
    classes = ",".join(f'\n    {{\n      "rep": [\n        {item.join(map(str, c["rep"]))}'
                       f'\n      ],\n      "size": {c["size"]}\n    }}' for c in payload["classes"])
    rest = json.dumps({k: v for k, v in payload.items() if k != "classes"},
                      indent=2, sort_keys=True)
    sys.stdout.write(f'{{\n  "classes": [{classes}\n  ],\n{rest[2:-2]},\n  "rows": [')
    sep = "\n"
    for d, row in zip(table.degrees(), key):
        sys.stdout.write(f'{sep}    {{\n      "degree": {d},\n      "values": [\n        '
                         + item.join(quoted[row].tolist()) + "\n      ]\n    }")
        sep = ",\n"
    sys.stdout.write("\n  ]\n}\n")


def _read_presentation(path: str):
    if path == "-":
        text = sys.stdin.read()
        return parse_presentation(text, name="stdin")
    p = Path(path)
    return parse_presentation(p.read_text(encoding="utf-8"), name=p.stem)


def cmd_classify(args) -> int:
    P = _read_presentation(args.file)
    rep = classification_report(P)
    if args.json:
        _emit_json(rep.to_json())
    else:
        print(f"group {rep.label}: order {rep.order} = {rep.p}^{p_log(rep.order, rep.p)}")
        print(f"  nilpotency class : {rep.nilpotency_class}")
        print(f"  degrees          : {rep.cd}")
        print(f"  gvz              : {rep.is_gvz}")
        print(f"  flat             : {rep.is_flat}")
        print(f"  nested gvz       : {rep.is_nested}")
        vz = f"{rep.is_vz}" + (f"  ({rep.vz_note})" if rep.vz_note else "")
        print(f"  vz               : {vz}")
        print(f"  camina (G,Z)     : {rep.camina_pair_with_center}")
        print(f"  gen. camina (G,Z): {rep.gen_camina_pair_with_center}")
        print(f"  |Z(chi)| chain   : {list(rep.center_chain)}"
              f" (chain: {rep.center_chain_is_chain})")
    return 0


def cmd_chartable(args) -> int:
    P = _read_presentation(args.file)
    T = table_of(P)
    if args.json:
        _emit_json(T.json_header(), T)
    else:
        k = T.count
        print(f"group {P.name}: {k} classes, field prime {T.field_prime}")
        print("degrees:", dict(T.cd_multiset()))
        if k <= 24:
            for i, (d, vals) in enumerate(zip(T.degrees(), T.value_strings())):
                print(f"  X{i + 1} (deg {d}): {' '.join(vals)}")
        else:
            print(f"  ({k} rows; use --json for the full table)")
    return 0


def cmd_count(args) -> int:
    exp = {"p5": 5, "p6": 6}[args.order]
    result = counting_formulas(args.p, exp)
    if args.json:
        _emit_json(result.to_json())
    else:
        print(f"order {args.p}^{exp}: gvz {result.gvz_count}, nested {result.nested_count}")
    return 0


def cmd_corpus(args) -> int:
    if args.action == "list":
        rows = []
        for label, entry in corpus.REGISTRY.items():
            rows.append(
                {
                    "label": label,
                    "order": f"p^{entry.order_exp}",
                    "primes": f"p >= {entry.min_p}",
                    "expected": entry.expected,
                    "citation": entry.note,
                }
            )
        if args.json:
            _emit_json(rows)
        else:
            for r in rows:
                print(f"{r['label']:26s} {r['order']:5s} {r['primes']:8s} {r['citation']}")
        return 0
    # emit
    P = corpus.build(args.label, args.p)
    text = presentation_text(P)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    primes = tuple(int(x) for x in args.primes.split(","))
    res = run_paper_suite(primes=primes)
    if args.json:
        Path(args.json).write_text(suite_to_json_text(res), encoding="utf-8")
    print(res.render_text())
    return 0 if res.ok else 3


def cmd_census(args) -> int:
    res = run_ingested_census(
        args.directory,
        expected_nested_nonabelian=args.expect_nested_nonabelian,
        expected_total=args.expect_total,
    )
    if args.json:
        Path(args.json).write_text(suite_to_json_text(res), encoding="utf-8")
    print(res.render_text())
    return 0 if res.ok else 3


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pgclass",
        description="exact classification of finite p-groups by character-vanishing structure",
    )
    ap.add_argument("--threads", type=int, default=None,
                    help="ignored: batch commands run serially")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify one presentation file")
    c.add_argument("file", help="presentation file, or - for stdin")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_classify)

    c = sub.add_parser("chartable", help="print the character table")
    c.add_argument("file", help="presentation file, or - for stdin")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_chartable)

    c = sub.add_parser("count", help="closed-form counts for p^5 / p^6")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--order", choices=("p5", "p6"), required=True)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_count)

    c = sub.add_parser("corpus", help="list or emit built-in presentations")
    csub = c.add_subparsers(dest="action", required=True)
    cl = csub.add_parser("list")
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(func=cmd_corpus, action="list")
    ce = csub.add_parser("emit")
    ce.add_argument("label")
    ce.add_argument("--p", type=int, required=True)
    ce.add_argument("-o", "--output", default=None)
    ce.set_defaults(func=cmd_corpus, action="emit")

    c = sub.add_parser("verify", help="run the built-in verification suite")
    c.add_argument("--suite", choices=("paper",), default="paper")
    c.add_argument("--primes", default="3,5,7")
    c.add_argument("--json", default=None, help="write the JSON report here")
    c.set_defaults(func=cmd_verify)

    c = sub.add_parser("census", help="classify a directory of presentations")
    c.add_argument("directory")
    c.add_argument("--expect-nested-nonabelian", type=int, default=None)
    c.add_argument("--expect-total", type=int, default=None)
    c.add_argument("--json", default=None, help="write the JSON report here")
    c.set_defaults(func=cmd_census)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError, ValueError) as exc:
        return _fail(args, exc, internal=False)
    except InternalInconsistencyError as exc:
        return _fail(args, exc, internal=True)


def _fail(args, exc: Exception, *, internal: bool) -> int:
    """Report exc and return its exit code, 2 if internal and 1 otherwise.
    The report is {"error": ..., "internal": ...} on stdout under a --json
    flag; otherwise it goes to stderr, and under a --json path also into
    that file, when the file can be written."""
    target = getattr(args, "json", None)
    payload = {"error": str(exc), "internal": internal}
    if target is True:
        _emit_json(payload)
    else:
        print(f"{'internal inconsistency' if internal else 'error'}: {exc}", file=sys.stderr)
    if isinstance(target, str):
        with contextlib.suppress(OSError):
            Path(target).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
    return 2 if internal else 1


if __name__ == "__main__":
    raise SystemExit(main())
