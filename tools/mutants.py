"""Mutant catalogue: which one-line breakages of a check does the suite miss?

Each mutant below replaces one line of a certificate, an invariant check
or a rule the engines' exactness rests on.  For each, the working tree is
copied to a fresh temporary directory, the mutant is applied there and
``pytest -q -x tests`` runs on the copy, bar ``tests/test_mutants.py``
(which checks this catalogue's lines, so it fails under every mutant);
a mutant under which the suite still passes survives.  The unmutated
copy runs first, so that a copy that fails for another reason cannot
make every mutant look killed.

Run from anywhere (about a minute per mutant on two cores)::

    python tools/mutants.py

It prints one line per mutant and then the survivors, and exits 1 when
the unmutated suite fails or a mutant's line is not found.  Each run is
bounded in time and address space.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = "src/flowalign/"
TIMEOUT_S = 600
ADDRESS_SPACE = 4 << 30  # bytes per pytest run

#: (name, file, line as it is, line as mutated); each line occurs once in its file.
MUTANTS = [
    ("certificate: sink clause", "flow.py",
     "    if last[model.final] != 0:",
     "    if False:"),
    ("certificate: model-move clause on the last layer", "flow.py",
     "    if any(map(operator.gt, map(at, tails), map(operator.add, costs, map(at, heads)))):",
     "    if False:"),
    ("certificate: log-move clause", "flow.py",
     "    if any(map(operator.gt, here, up)) or any(here[u] > nxt[s] for u, s in model.sync.get(a, ())):",
     "    if False or any(here[u] > nxt[s] for u, s in model.sync.get(a, ())):"),
    ("certificate: synchronous-move clause", "flow.py",
     "    if any(map(operator.gt, here, up)) or any(here[u] > nxt[s] for u, s in model.sync.get(a, ())):",
     "    if any(map(operator.gt, here, up)) or False:"),
    ("certificate: no changed head", "flow.py",
     "    for v in itertools.compress(range(len(here)), map(operator.ne, here, up)):",
     "    for v in ():"),
    ("layer memo: a step stored before its certificate", "flow.py",
     "        _certify_step(self, a, here, nxt)\n        return self._store(i, a, here)",
     "        stored = self._store(i, a, here)\n        _certify_step(self, a, here, nxt)\n        return stored"),
    ("layer memo: shapes not normalized", "flow.py",
     "        delta = min(here)",
     "        delta = 0"),
    ("layer memo: a step keyed without its event", "flow.py",
     "            step = steps.get((i, a))",
     "            step = next((v for (k, _), v in list(steps.items()) if k == i), None)"),
    ("layer memo: offsets not summed", "flow.py",
     "            offset += delta",
     "            offset = delta"),
    ("walk guard", "flow.py",
     "        if s is None or len(path) > graph.nodes:",
     "        if s is None:"),
    ("walk's final cost check", "flow.py",
     "    if spent != shape[0] + offset:",
     "    if False:"),
    ("unaligned_outcome: over-budget check", "flow.py",
     "    if memo.reached(limits.max_nodes) is None:",
     "    if False:"),
    ("unaligned_outcome: seed check", "flow.py",
     "    if model_relaxation(sp.process_net, sp.cost).seed is None:",
     "    if False:"),
    ("unaligned_outcome: capped check", "flow.py",
     "    return Outcome.CAPPED if memo.capped else Outcome.INFEASIBLE",
     "    return Outcome.INFEASIBLE"),
    ("SynchronousProduct.out: synchronous moves in reverse order", "sync_product.py",
     "            for j, k in self.sync_moves_at[pos]:",
     "            for j, k in reversed(self.sync_moves_at[pos]):"),
    ("SynchronousProduct.out: model moves in reverse order", "sync_product.py",
     "        for j, s in row:",
     "        for j, s in reversed(row):"),
    ("simplex: warm start's feasibility test", "simplex.py",
     "        if leaving < 0:\n            return tab, cells",
     "        if True:\n            return tab, cells"),
    ("simplex: consistent", "simplex.py",
     "        return not any(sum([w[k] * v for k, v in nonzeros]) for w in self.dependent)",
     "        return True"),
    ("simplex: dual simplex's infeasible return", "simplex.py",
     "        if entering < 0:\n            return None",
     "        if entering < 0:\n            return tab, cells"),
    ("simplex: objective-cell update of a child's cells", "simplex.py",
     "        new.append(cells[-1] - (self.obj[j] - self.obj_den * costs[j]))",
     "        new.append(cells[-1] - self.obj[j])"),
    ("simplex: reuse threshold", "simplex.py",
     "            if self.cells[i] >= self.dens[i]:",
     "            if self.cells[i] > self.dens[i]:"),
    ("simplex: cached-step lookup", "simplex.py",
     "        step = cache.find(basis[:leaving] + [entering] + basis[leaving + 1:])",
     "        step = None"),
    ("simplex: the last column never enters", "simplex.py",
     "            for j in range(width):\n                if self.obj[j] < 0:",
     "            for j in range(width - 1):\n                if self.obj[j] < 0:"),
    ("simplex: ratio tie-break inverted", "simplex.py",
     "                        and self.basis[i] < self.basis[leaving]",
     "                        and self.basis[i] > self.basis[leaving]"),
    ("A*: reuse rule", "astar.py",
     "            optimum = prior if t is None else prior.less(t)",
     "            optimum = prior"),
    ("A*: requeue", "astar.py",
     "        if g + hc > f:",
     "        if False:"),
    ("A*: dead-end skip", "astar.py",
     "            continue  # dead end even in the relaxation",
     "            pass  # dead end even in the relaxation"),
    ("bench: costs_agree", "bench.py",
     "        rec.costs_agree = rec.astar_cost == rec.lp_cost",
     "        rec.costs_agree = True"),
    ("cli: conformance's non-zero exit", "cli.py",
     "    return EXIT_INVARIANT if failed else EXIT_OK",
     "    return EXIT_OK"),
]


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def passes(tree: Path) -> bool:
    """Does ``pytest -q -x tests`` pass on ``tree``?  A timeout fails."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["--ignore=tests/test_mutants.py", "tests"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # import the copy's src only
    try:
        run = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S, preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def copy_tree(dest: Path) -> Path:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "results")
    return Path(shutil.copytree(ROOT, dest / "repo", ignore=ignore))


def main() -> int:
    for name, path, old, new in MUTANTS:
        if (ROOT / SRC / path).read_text().count(old) != 1:
            print(f"line of mutant {name!r} not found once in {path}")
            return 1
    with tempfile.TemporaryDirectory() as tmp:
        if not passes(copy_tree(Path(tmp))):
            print("the unmutated suite fails")
            return 1
    survivors = []
    for name, path, old, new in MUTANTS:
        t0 = time.monotonic()
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_tree(Path(tmp))
            target = tree / SRC / path
            target.write_text(target.read_text().replace(old, new))
            survived = passes(tree)
        print(f"{'SURVIVED' if survived else 'killed  '}  {name}  ({time.monotonic() - t0:.0f} s)", flush=True)
        if survived:
            survivors.append(name)
    print(f"{len(survivors)} of {len(MUTANTS)} mutants survived" + "".join(f"\n  {s}" for s in survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
