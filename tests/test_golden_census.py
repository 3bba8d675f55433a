"""Golden hashes of the random census and of the groups beyond the corpus.

The census inputs come from perfbench/generate.py, which is seeded
random.Random and writes the same presentation text for the same seed.
This test imports that file (and only reads it), so it couples these
golden hashes to it: a change to the generator changes the inputs, and
the hashes below must then be taken again from a tree whose outputs are
known to be right.

Each hash is a sha256 of json.dumps(..., sort_keys=True): for the census,
one digest over the table and then the report of every file of
census_texts(seed), in sorted name order, for seeds 1 and 2; for rand_class2_p7 (p7_class2_text(1)),
the table alone.  The tables of maxclass_5_6 and of the order-3^8 group
are pinned in test_chartable.py, where they are built.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pgclass as pg
from pgclass.classify import classification_report
from pgclass.group import group_of
from pgclass.presentation import parse_presentation

CENSUS_1_SHA256 = "1e71a579a7df26aeb00a541ddd86ea099af9d9d9496736e688c9298f9e8bbaf9"
CENSUS_2_SHA256 = "cb5fe6b532410e1e039a2773d45875619e8849ff60461cea4af8e18bb8610f4b"
RAND_CLASS2_P7_TABLE_SHA256 = (
    "af99878fa8f479cd73642e923884ccc033cb2a1aa1fcc0e513d807c806a27692")


def _generate():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _dumps(x) -> bytes:
    return json.dumps(x.to_json(), sort_keys=True).encode()


def _census_digest(seed: int) -> str:
    texts = _generate().census_texts(seed)
    h = hashlib.sha256()
    for name in sorted(texts):
        G = group_of(parse_presentation(texts[name]))
        T = pg.compute_table(G)
        h.update(_dumps(T))
        h.update(_dumps(classification_report(G, table=T)))
    assert len(texts) == 118
    return h.hexdigest()


def test_census_seed_1_golden_hash():
    assert _census_digest(1) == CENSUS_1_SHA256


def test_census_seed_2_golden_hash():
    assert _census_digest(2) == CENSUS_2_SHA256


def test_rand_class2_p7_golden_hash():
    G = group_of(parse_presentation(_generate().p7_class2_text(1)))
    T = pg.compute_table(G)
    assert T.count == 2449
    assert hashlib.sha256(_dumps(T)).hexdigest() == RAND_CLASS2_P7_TABLE_SHA256
