"""The traced benchmark (perfbench/layers.py) wraps pgclass functions by
name, and a name it cannot find raises AttributeError.  The tests collect
only tests/, so this installs and removes its wrappers here: a renamed or
dropped function fails a test, not only a benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

import pgclass as pg
from pgclass import chartable, cli
from pgclass.group import Group

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports spans
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_perfbench_layers_install_and_uninstall(monkeypatch):
    layers = _layers(monkeypatch)
    emit, to_json = cli._emit_json, chartable.CharacterTable.to_json
    rec = layers.Recorder()
    try:
        layers.install(rec)
        assert cli._emit_json is not emit
    finally:
        rec.uninstall()
    assert cli._emit_json is emit and chartable.CharacterTable.to_json is to_json


def test_traced_table_names_return_the_tables(monkeypatch):
    """perfbench wraps the four table names of Group.  A wrapped
    cached_property stays a cached_property; anything else would come back
    as a bare function, and G.conj_tables would read as a bound method.
    With the layers installed, a fresh group's tables equal the ones an
    uninstalled group returns."""
    names = ("right_tables", "left_tables", "inverse_table", "conj_tables")
    layers = _layers(monkeypatch)
    P = pg.build("heisenberg_p3", 3)
    plain = Group(P)
    want = {name: getattr(plain, name) for name in names}
    rec = layers.Recorder()
    try:
        layers.install(rec)
        traced = Group(P)
        got = {name: getattr(traced, name) for name in names}
    finally:
        rec.uninstall()
    for name in names:
        assert np.array_equal(np.asarray(got[name]), np.asarray(want[name])), name
