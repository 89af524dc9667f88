"""A serial run never loads the process pool.

Each command runs in its own process, where ``multiprocessing`` and
``concurrent.futures`` are blocked in ``sys.modules`` before ``flowalign``
is imported, so importing either raises ``ImportError``.  Only
``conformance --parallel`` above 1 may import them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKED = """
import sys
sys.modules["multiprocessing"] = None
sys.modules["concurrent.futures"] = None
from flowalign.cli import main
sys.exit(main(sys.argv[1:]))
"""
COMMANDS = {
    "gen": ["gen", "--spec", "seq(a, xor(b, c), loop(d, e))", "--traces", "10", "--delete-prob", "0.1", "--insert-prob", "0.1", "--seed", "3", "--out", "."],
    "align": ["align", "model.pnml", "--trace", "a,c,x,d", "--method", "both"],
    "conformance": ["conformance", "model.pnml", "noisy.xes", "--method", "hybrid", "--out", "records.csv"],
}


def test_serial_commands_exit_0_with_the_pool_blocked(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    for name, argv in COMMANDS.items():  # in order: gen writes the others' inputs
        done = subprocess.run(
            [sys.executable, "-c", BLOCKED, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, (name, done.stderr)
