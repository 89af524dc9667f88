"""The mutant catalogue's lines are where ``tools/mutants.py`` expects them.

``python tools/mutants.py`` takes about a minute per mutant, so it is not
part of the suite; this checks what its ``main`` checks before it runs
anything, that each mutant's line occurs once in its file, and that every
mutant changes its line.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize(
    "name, path, old, new", mutants.MUTANTS, ids=[re.sub(r"\W+", "_", m[0]) for m in mutants.MUTANTS]
)
def test_mutant_line(name, path, old, new):
    assert (ROOT / mutants.SRC / path).read_text().count(old) == 1
    assert new != old
