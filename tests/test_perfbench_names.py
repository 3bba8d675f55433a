"""The traced benchmark (perfbench/layers.py) wraps pgclass functions by
name, and a name it cannot find raises AttributeError.  The tests collect
only tests/, so this installs and removes its wrappers here: a renamed or
dropped function fails a test, not only a benchmark run."""

import importlib.util
from pathlib import Path

from pgclass import chartable, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_layers_install_and_uninstall(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # layers imports spans
    spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    emit, to_json = cli._emit_json, chartable.CharacterTable.to_json
    rec = layers.Recorder()
    try:
        layers.install(rec)
        assert cli._emit_json is not emit
    finally:
        rec.uninstall()
    assert cli._emit_json is emit and chartable.CharacterTable.to_json is to_json
