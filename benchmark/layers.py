"""Spans and counters around calls into the package's modules.

Tracing swaps a timing wrapper in at each module attribute that a caller
looks up at call time (``flowalign.astar.solve_min_eq``,
``flowalign.bench.product_for_trace``, ...), so nothing under ``src/``
changes.  Spans and counts stay in memory; ``installed`` restores every
original attribute on exit, even when the traced code raises.

A layer's self time is its spans' duration minus the time covered by the
spans nested inside them.  Calls the package makes to functions that are
not wrapped (``lp_align``'s glue, ``select_method``) count towards the
nearest wrapped caller, which for the engines is the ``bench`` layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

from flowalign.flow import Method

# (layer, module, attribute) for every attribute a caller resolves at call time.
TARGETS = (
    ("simplex", "flowalign.astar", "solve_min_eq"),
    ("astar", "flowalign.bench", "astar_align"),
    ("astar", "flowalign.selector", "astar_align"),
    ("reachability", "flowalign.reachability", "build_reachability_graph"),
    ("flow", "flowalign.flow", "assemble_flow_problem"),
    ("flow", "flowalign.flow", "solve_min_cost_unit_flow"),
    ("flow", "flowalign.flow", "extract_alignment"),
    ("sync_product", "flowalign.bench", "product_for_trace"),
    ("sync_product", "flowalign.selector", "product_for_trace"),
    ("selector", "flowalign.bench", "token_replay_fitness"),
    ("model_io", "flowalign.model_io", "parse_pnml"),
    ("model_io", "flowalign.model_io", "parse_xes"),
    ("bench", "flowalign.bench", "hybrid_align"),
    ("bench", "flowalign.bench", "run_instance"),
    ("bench", "flowalign.bench", "run_conformance"),
)

# name -> unit, in the order the per-layer metrics are reported.
METRIC_UNITS = {
    "simplex.calls": "count",
    "simplex.solve_us": "us",
    "simplex.us_per_call": "us",
    "simplex.infeasible": "count",
    "astar.search_us": "us",
    "astar.self_us": "us",
    "astar.expansions": "count",
    "astar.heuristic_calls": "count",
    "astar.queue_peak": "count",
    "astar.h_calls_per_expansion": "ratio",
    "reachability.build_us": "us",
    "reachability.nodes": "count",
    "reachability.edges": "count",
    "reachability.self_loops": "count",
    "reachability.cap_prunes": "count",
    "reachability.truncated": "count",
    "flow.assemble_us": "us",
    "flow.solve_us": "us",
    "flow.extract_us": "us",
    "flow.path_edge_share": "ratio",
    "sync_product.calls": "count",
    "sync_product.build_us": "us",
    "sync_product.moves": "count",
    "selector.fitness_us": "us",
    "selector.routed_flow": "count",
    "selector.routed_search": "count",
    "selector.fallbacks": "count",
    "model_io.parse_us": "us",
    "model_io.bytes": "bytes",
    "bench.other_us": "us",
    "bench.cases": "count",
    "tracing.overhead_us": "us",
    "tracing.overhead_share": "ratio",
}


def _observe_astar(tr, args, result):
    stats = result[1]
    tr.counts["astar.expansions"] += stats.expansions
    tr.counts["astar.heuristic_calls"] += stats.heuristic_calls
    tr.counts["astar.queue_peak"] = max(tr.counts["astar.queue_peak"], stats.queue_peak)


def _observe_rg(tr, args, rg):
    tr.counts["reachability.nodes"] += len(rg.nodes)
    tr.counts["reachability.edges"] += len(rg.edges)
    tr.counts["reachability.self_loops"] += rg.stats.edges_pruned_self_loops
    tr.counts["reachability.cap_prunes"] += rg.stats.cap_prunes
    tr.counts["reachability.truncated"] += int(rg.stats.truncated)


def _observe_hybrid(tr, args, result):
    routed = "selector.routed_flow" if result.method_chosen is Method.LP else "selector.routed_search"
    tr.counts[routed] += 1
    tr.counts["selector.fallbacks"] += int(result.fell_back_to_astar)


OBSERVERS = {
    "solve_min_eq": lambda tr, args, result: tr.counts.update(
        {"simplex.infeasible": int(result is None)}
    ),
    "astar_align": _observe_astar,
    "build_reachability_graph": _observe_rg,
    "extract_alignment": lambda tr, args, al: tr.counts.update({"flow.path_edges": len(al.moves)}),
    "product_for_trace": lambda tr, args, sp: tr.counts.update({"sync_product.moves": len(sp.moves)}),
    "hybrid_align": _observe_hybrid,
    "parse_pnml": lambda tr, args, _: tr.counts.update({"model_io.bytes": len(args[0])}),
    "parse_xes": lambda tr, args, _: tr.counts.update({"model_io.bytes": len(args[0])}),
}


class Tracer:
    """In-memory spans ``(id, parent id, layer, function, start_ns, end_ns)``
    plus per-function call counts, total and self nanoseconds."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._open: list[list[int]] = []  # [span id, ns covered by child spans]

    def wrap(self, layer: str, fn):
        name = fn.__name__
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._open[-1][0] if self._open else None
            self.spans.append(None)
            frame = [span_id, 0]
            self._open.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                duration = end - start
                self.spans[span_id] = (span_id, parent, layer, name, start, end)
                self.calls[layer, name] += 1
                self.total_ns[layer, name] += duration
                self.self_ns[layer, name] += duration - frame[1]
                if self._open:
                    self._open[-1][1] += duration
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    @staticmethod
    def _layer_sum(table: Counter, layer: str) -> int:
        return sum(v for (lay, _), v in table.items() if lay == layer)

    def layer_self_us(self, layer: str) -> float:
        return self._layer_sum(self.self_ns, layer) / 1000

    def metrics(self, cases: int, traced_ns: int, untraced_ns: int) -> dict[str, float]:
        """Every per-layer metric, totalled over the traced calls."""
        simplex_calls = self.calls["simplex", "solve_min_eq"]
        simplex_us = self.layer_self_us("simplex")
        expansions = self.counts["astar.expansions"]
        rg_edges = self.counts["reachability.edges"]
        overhead_ns = traced_ns - untraced_ns
        return {
            "simplex.calls": simplex_calls,
            "simplex.solve_us": simplex_us,
            "simplex.us_per_call": simplex_us / simplex_calls if simplex_calls else 0.0,
            "simplex.infeasible": self.counts["simplex.infeasible"],
            "astar.search_us": self._layer_sum(self.total_ns, "astar") / 1000,
            "astar.self_us": self.layer_self_us("astar"),
            "astar.expansions": expansions,
            "astar.heuristic_calls": self.counts["astar.heuristic_calls"],
            "astar.queue_peak": self.counts["astar.queue_peak"],
            "astar.h_calls_per_expansion": (
                self.counts["astar.heuristic_calls"] / expansions if expansions else 0.0
            ),
            "reachability.build_us": self.layer_self_us("reachability"),
            "reachability.nodes": self.counts["reachability.nodes"],
            "reachability.edges": rg_edges,
            "reachability.self_loops": self.counts["reachability.self_loops"],
            "reachability.cap_prunes": self.counts["reachability.cap_prunes"],
            "reachability.truncated": self.counts["reachability.truncated"],
            "flow.assemble_us": self.self_ns["flow", "assemble_flow_problem"] / 1000,
            "flow.solve_us": self.self_ns["flow", "solve_min_cost_unit_flow"] / 1000,
            "flow.extract_us": self.self_ns["flow", "extract_alignment"] / 1000,
            "flow.path_edge_share": self.counts["flow.path_edges"] / rg_edges if rg_edges else 0.0,
            "sync_product.calls": self._layer_sum(self.calls, "sync_product"),
            "sync_product.build_us": self.layer_self_us("sync_product"),
            "sync_product.moves": self.counts["sync_product.moves"],
            "selector.fitness_us": self.layer_self_us("selector"),
            "selector.routed_flow": self.counts["selector.routed_flow"],
            "selector.routed_search": self.counts["selector.routed_search"],
            "selector.fallbacks": self.counts["selector.fallbacks"],
            "model_io.parse_us": self.layer_self_us("model_io"),
            "model_io.bytes": self.counts["model_io.bytes"],
            "bench.other_us": self.layer_self_us("bench"),
            "bench.cases": cases,
            "tracing.overhead_us": overhead_ns / 1000,
            "tracing.overhead_share": overhead_ns / untraced_ns if untraced_ns else 0.0,
        }


@contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers in for the duration of the block."""
    originals = []
    try:
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(layer, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)

