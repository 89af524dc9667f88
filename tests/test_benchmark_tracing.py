"""The benchmark's per-layer tracing still sees what the package does.

``benchmark/layers.py`` swaps timing wrappers in at module attributes and
reads counts off the engines' return values; this runs it on the toy net
so that a renamed attribute or a lost count shows up in the test suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from flowalign.bench import RunConfig, run_conformance, run_instance
from flowalign.model_io import EventLog
from flowalign.petri import Trace

LAYERS_PY = Path(__file__).resolve().parent.parent / "benchmark" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists(layers):
    for _, module_name, attr in layers.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def _observe_layered(tr, args, graph):
    # None: a limit may bind, and lp_align builds the graph, which the
    # build_reachability_graph observer counts.
    if graph is not None:
        tr.counts["reachability.nodes"] += graph.nodes
        tr.counts["reachability.edges"] += graph.edges


def test_traced_counts_match_the_rows(layers, fig_acyclic, monkeypatch):
    # The layered flow path's entry points, which layers.py does not wrap yet.
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (
        ("reachability", "flowalign.flow", "layered_graph"),
        ("flow", "flowalign.flow", "solve_layered"),
    ))
    monkeypatch.setitem(layers.OBSERVERS, "layered_graph", _observe_layered)
    long_trace = Trace("long", ("a",) * 21)  # routed to flow when fitness is 0
    log = EventLog((Trace("c1", ("a", "b", "e")), Trace("c2", ("a", "x", "e")), long_trace))
    tracer = layers.Tracer()
    with layers.installed(tracer):
        rows = [
            run_instance(fig_acyclic, Trace("c", ("a", "b", "e")), RunConfig(method="astar")),
            run_instance(fig_acyclic, Trace("c", ("a", "c", "e")), RunConfig(method="lp")),
            run_instance(fig_acyclic, long_trace, RunConfig(method="hybrid"), fitness=0.0),
            run_instance(fig_acyclic, Trace("c", ("a", "d", "e")), RunConfig(method="hybrid")),
        ]
        cases = run_conformance(fig_acyclic, log, RunConfig(method="hybrid"))
    rows += cases

    assert tracer.counts["astar.heuristic_calls"] == tracer.calls["simplex", "solve_min_eq"] > 0
    assert tracer.counts["astar.expansions"] == sum(r.astar_expansions or 0 for r in rows)
    assert tracer.counts["reachability.nodes"] == sum(r.rg_nodes or 0 for r in rows) > 0
    routed = tracer.counts["selector.routed_flow"] + tracer.counts["selector.routed_search"]
    assert routed == len(cases) + 2
    assert tracer.counts["selector.routed_flow"] >= 1
    # lp_align must reach a solver through an attribute the tracer wraps.
    flow_rows = sum(1 for r in rows if r.lp_outcome)
    solves = tracer.calls["flow", "solve_min_cost_unit_flow"] + tracer.calls["flow", "solve_layered"]
    assert solves == flow_rows > 0
    assert tracer.calls["flow", "solve_layered"] > 0
