import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgclass
from pgclass.verify import bundle


@pytest.fixture(scope="session")
def corpus_bundle():
    """Session-cached (label, p) -> {group, table, report, timings}."""
    return bundle


@pytest.fixture
def run_optimized():
    """Run a code string under python -O with this pgclass importable and
    return its stdout; the process must exit 0."""
    src = str(Path(pgclass.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [x for x in [os.environ.get("PYTHONPATH")] if x]))

    def run(code: str) -> str:
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
