"""Seeded inputs for the benchmark workloads.

Inputs are made only through the package's public generator and model_io
functions; the program under test receives the generated nets, traces and
serialized bytes and nothing else.

The model population is the acceptance corpus's: the same twelve
block-structured models that ``build_corpus_models`` in
``tests/conftest.py`` derives from ``CORPUS_SEED``.  Keeping the models
fixed matters because one model's state space can dwarf another's; a seed
that redrew the models would move every timing by more than any code
change does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from flowalign.generator import (
    alphabet_of,
    apply_random_edits,
    block_to_net,
    playout,
    random_block,
)
from flowalign.model_io import EventLog, serialize_pnml, serialize_xes
from flowalign.petri import PetriNet, Trace

CORPUS_SEED = 20250811
MODEL_SIZES = (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 8)
EDIT_CYCLE = 9  # trace i of a model carries i % 9 edits, as in the corpus
CORPUS_TRACES_PER_MODEL = 42

FLOW_RG_TRACES_PER_MODEL = 2 * CORPUS_TRACES_PER_MODEL
HYBRID_MODEL = "m09"
HYBRID_CASES = 400
HYBRID_CLEAN_SHARE = 0.6
HYBRID_LOOP_CONTINUE = 0.5


@dataclass(frozen=True)
class Case:
    model_id: str
    trace: Trace


@dataclass(frozen=True)
class Workload:
    """One run's inputs.

    ``cases`` are aligned one ``run_instance`` call each.  A log workload
    instead carries ``pnml`` and ``xes`` bytes that are parsed and run as
    one ``run_conformance`` call; its ``cases`` list the same traces, for
    the reference check and the workload properties.
    """

    name: str
    seed: int
    method: str
    nets: dict[str, PetriNet]
    cases: tuple[Case, ...]
    pnml: bytes = b""
    xes: bytes = b""

    @property
    def is_log(self) -> bool:
        return bool(self.xes)


def corpus_models() -> list[tuple[str, object]]:
    rng = random.Random(CORPUS_SEED)
    return [(f"m{i:02d}", random_block(rng, n)) for i, n in enumerate(MODEL_SIZES)]


def corpus_cases(models, recipe_seed, per_model: int) -> list[tuple[int, Case]]:
    """The corpus trace recipe: per-model playouts, then i % 9 random edits.

    With ``recipe_seed == CORPUS_SEED`` the first 42 traces of each model
    are exactly the acceptance corpus's.  Returns ``(i, case)`` pairs in
    model-major order.
    """
    out = []
    for model_id, block in models:
        rng = random.Random(f"{recipe_seed}/{model_id}")
        alphabet = alphabet_of(block)
        for i in range(per_model):
            clean = playout(block, rng)
            edits = i % EDIT_CYCLE
            acts = apply_random_edits(clean, edits, alphabet, rng)
            out.append((i, Case(model_id, Trace(f"{model_id}-c{i:03d}-k{edits}", acts))))
    return out


def search_me(seed: int) -> Workload:
    """The corpus's first edit cycle (one trace per model and edit count).

    The traces are the corpus's own, whatever the seed: its heavy tail
    (one m06 trace takes about 14 s of the set's
    37 s or so) is the point of
    the workload, and freshly drawn cycles of the same recipe cost from
    17 s to 47 s, a spread no regression bound could absorb.  The seed
    sets the order the cases are run in.
    """
    models = corpus_models()
    cases = [c for _, c in corpus_cases(models, CORPUS_SEED, EDIT_CYCLE)]
    random.Random(seed).shuffle(cases)
    return Workload(
        name="search-me",
        seed=seed,
        method="astar",
        nets={m: block_to_net(b) for m, b in models},
        cases=tuple(cases),
    )


def flow_rg(seed: int) -> Workload:
    """Two corpus-sized passes of the recipe (84 traces per model), drawn
    from the seed and interleaved across models so that any prefix has the
    full model mix."""
    models = corpus_models()
    pairs = corpus_cases(models, seed, FLOW_RG_TRACES_PER_MODEL)
    order = {m: k for k, (m, _) in enumerate(models)}
    pairs.sort(key=lambda p: (p[0], order[p[1].model_id]))
    return Workload(
        name="flow-rg",
        seed=seed,
        method="lp",
        nets={m: block_to_net(b) for m, b in models},
        cases=tuple(c for _, c in pairs),
    )


def hybrid_log(seed: int) -> Workload:
    """One looping model and a 400-case XES log with repeated variants.

    Most cases are clean playouts with extra loop rounds; the rest carry
    one to three edits.  The log's traces are fixed and the seed orders
    them, because the median trace length of a freshly drawn log jumps
    between whole numbers (5 to 7 events), and the median latency with it.
    """
    models = dict(corpus_models())
    block = models[HYBRID_MODEL]
    alphabet = alphabet_of(block)
    rng = random.Random(f"{CORPUS_SEED}/hybrid-log")
    acts_list = []
    for _ in range(HYBRID_CASES):
        acts = playout(block, rng, loop_continue=HYBRID_LOOP_CONTINUE)
        if rng.random() >= HYBRID_CLEAN_SHARE:
            acts = apply_random_edits(acts, 1 + rng.randrange(3), alphabet, rng)
        acts_list.append(acts)
    traces = [Trace(f"case-{k:03d}", acts) for k, acts in enumerate(acts_list)]
    random.Random(seed).shuffle(traces)
    net = block_to_net(block)
    return Workload(
        name="hybrid-log",
        seed=seed,
        method="hybrid",
        nets={HYBRID_MODEL: net},
        cases=tuple(Case(HYBRID_MODEL, t) for t in traces),
        pnml=serialize_pnml(net),
        xes=serialize_xes(EventLog(tuple(traces), source_name="hybrid-log")),
    )


BY_NAME = {"search-me": search_me, "flow-rg": flow_rg, "hybrid-log": hybrid_log}
WORKLOADS = tuple(BY_NAME)


def build(name: str, seed: int) -> Workload:
    return BY_NAME[name](seed)
