"""Shared fixtures: the two hand-built nets, the insurance example, and the
seeded corpus every exactness/agreement suite runs over."""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from flowalign.astar import SearchConfig, astar_align
from flowalign.flow import Alignment, Outcome, RunStats, lp_align
from flowalign.generator import (
    alphabet_of,
    apply_random_edits,
    block_to_net,
    playout,
    random_block,
)
from flowalign.petri import PetriNet, Trace
from flowalign.reachability import ReachabilityGraph, build_reachability_graph
from flowalign.sync_product import SynchronousProduct, product_for_trace


def make_fig_acyclic() -> PetriNet:
    """Diamond net: a, then b and c in parallel (or the shortcut d), then e."""
    return PetriNet.build(
        places=["p1", "p2", "p3", "p4", "p5", "p6"],
        transitions=["t1", "t2", "t3", "t4", "t5"],
        arcs=[
            ("p1", "t1"), ("t1", "p2"), ("t1", "p3"),
            ("p2", "t2"), ("p2", "t4"), ("p3", "t3"), ("p3", "t4"),
            ("t2", "p4"), ("t3", "p5"), ("t4", "p4"), ("t4", "p5"),
            ("p4", "t5"), ("p5", "t5"), ("t5", "p6"),
        ],
        labels={"t1": "a", "t2": "b", "t3": "c", "t4": "d", "t5": "e"},
        initial={"p1": 1},
        final={"p6": 1},
    )


def make_fig_cyclic() -> PetriNet:
    """Same labels, but d loops back to repeat the parallel block."""
    return PetriNet.build(
        places=["p1", "p2", "p3", "p4", "p5", "p6"],
        transitions=["t1", "t2", "t3", "t4", "t5"],
        arcs=[
            ("p1", "t1"), ("t1", "p2"), ("t1", "p3"),
            ("p2", "t2"), ("t4", "p2"), ("p3", "t3"), ("t4", "p3"),
            ("t2", "p4"), ("t3", "p5"), ("p4", "t4"), ("p5", "t4"),
            ("p4", "t5"), ("p5", "t5"), ("t5", "p6"),
        ],
        labels={"t1": "a", "t2": "b", "t3": "c", "t4": "d", "t5": "e"},
        initial={"p1": 1},
        final={"p6": 1},
    )


def make_insurance_net() -> PetriNet:
    """12-place claim-handling net with two silent routing transitions."""
    arcs = [
        ("p01", "t01"), ("t01", "p02"), ("t01", "p04"),
        ("p02", "t02"), ("t02", "p03"),
        ("p04", "t03"), ("t03", "p05"),
        ("p03", "t04"), ("p05", "t04"), ("t04", "p06"),
        ("p06", "t05"), ("t05", "p07"), ("t05", "p09"),
        ("p07", "t06"), ("t06", "p08"),
        ("p09", "t07"), ("t07", "p10"),
        ("p06", "t08"), ("t08", "p11"),
        ("p08", "t09"), ("p10", "t09"), ("t09", "p11"),
        ("p11", "t10"), ("t10", "p12"),
    ]
    return PetriNet.build(
        places=[f"p{i:02d}" for i in range(1, 13)],
        transitions=[f"t{i:02d}" for i in range(1, 11)],
        arcs=arcs,
        labels={
            "t01": "a", "t02": "b", "t03": "c", "t04": "d", "t05": None,
            "t06": "e", "t07": "f", "t08": "g", "t09": None, "t10": "h",
        },
        initial={"p01": 1},
        final={"p12": 1},
    )


INSURANCE_TRACE = Trace("claim", ("a", "d", "a", "e", "f"))


@pytest.fixture(scope="session")
def fig_acyclic() -> PetriNet:
    return make_fig_acyclic()


@pytest.fixture(scope="session")
def fig_cyclic() -> PetriNet:
    return make_fig_cyclic()


@pytest.fixture(scope="session")
def insurance() -> PetriNet:
    return make_insurance_net()


@pytest.fixture(scope="session")
def toy_product(fig_acyclic) -> SynchronousProduct:
    return product_for_trace(fig_acyclic, Trace("toy", ("a", "b", "e")))


@pytest.fixture(scope="session")
def toy_rg(toy_product) -> ReachabilityGraph:
    return build_reachability_graph(toy_product)


# ---------------------------------------------------------------------------
# Seeded corpus: block-structured models with loops and parallel blocks,
# traces perturbed with 0..8 edits.
# ---------------------------------------------------------------------------

CORPUS_SEED = 20250811
N_MODELS = 12
TRACES_PER_MODEL = 42


@dataclass
class Instance:
    model_id: str
    net: PetriNet
    trace: Trace
    edits: int
    sp: SynchronousProduct
    rg: ReachabilityGraph
    lp_alignment: Alignment | None
    lp_status: Outcome
    astar_alignment: Alignment | None
    astar_stats: RunStats


def build_corpus_models() -> list[tuple[str, PetriNet, object]]:
    rng = random.Random(CORPUS_SEED)
    models = []
    sizes = [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 8]
    for i, n_act in enumerate(sizes):
        block = random_block(rng, n_act)
        net = block_to_net(block)
        models.append((f"m{i:02d}", net, block))
    return models


def build_corpus_instances() -> list[Instance]:
    instances: list[Instance] = []
    models = build_corpus_models()
    for model_id, net, block in models:
        rng = random.Random(f"{CORPUS_SEED}/{model_id}")
        alphabet = alphabet_of(block)
        for i in range(TRACES_PER_MODEL):
            clean = playout(block, rng)
            edits = i % 9
            acts = apply_random_edits(clean, edits, alphabet, rng)
            trace = Trace(f"{model_id}-c{i:03d}-k{edits}", acts)
            sp = product_for_trace(net, trace)
            rg = build_reachability_graph(sp)
            lp_alignment, lp_stats = lp_align(sp)
            astar_alignment, astar_stats = astar_align(sp, SearchConfig(timeout=60.0))
            instances.append(
                Instance(
                    model_id=model_id,
                    net=net,
                    trace=trace,
                    edits=edits,
                    sp=sp,
                    rg=rg,
                    lp_alignment=lp_alignment,
                    lp_status=lp_stats.outcome,
                    astar_alignment=astar_alignment,
                    astar_stats=astar_stats,
                )
            )
    return instances


@pytest.fixture(scope="session")
def corpus() -> list[Instance]:
    return build_corpus_instances()
