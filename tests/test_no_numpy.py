"""The package runs with NumPy blocked: only the tests need it.

Each command runs in its own process, where ``sys.modules["numpy"]`` is
None before ``flowalign`` is imported, so any import of NumPy, at module
level or inside a function, raises ``ImportError``.  The inputs are demo
05's corpus, written by ``gen`` under the same block.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKED = """
import sys
sys.modules["numpy"] = None
from flowalign.cli import main
sys.exit(main(sys.argv[1:]))
"""
SPEC = "seq(a, and(b, c), xor(d, seq(e, f)), loop(g, h), i)"
NOISE = ["--insert-prob", "0.08", "--delete-prob", "0.08", "--swap-prob", "0.10", "--seed", "5"]


def run_blocked(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(
        [sys.executable, "-c", BLOCKED, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("demo-corpus")
    done = run_blocked(["gen", "--spec", SPEC, "--traces", "30", *NOISE, "--out", str(out)], out)
    assert done.returncode == 0, done.stderr
    return out


COMMANDS = {
    **{
        f"align-{method}": ["align", "model.pnml", "--trace", "a,c,b,x,d", "--method", method]
        for method in ("astar", "lp", "hybrid", "both")
    },
    "inspect": ["inspect", "model.pnml", "--trace", "a,b,c,d"],
    "conformance": ["conformance", "model.pnml", "noisy.xes", "--out", "records.csv"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_exits_0_with_numpy_blocked(command, corpus):
    done = run_blocked(COMMANDS[command], corpus)
    assert done.returncode == 0, done.stderr
