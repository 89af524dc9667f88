"""The flow LP solved layer by layer on the model's reachability graph.

``flow.layered_graph`` counts a product's reachability graph from its
model and decides from the counts whether a limit can bind;
``flow.solve_layered`` solves the flow LP over it one trace position at a
time.  The built graph and ``solve_min_cost_unit_flow`` are the oracle:
same counts, same truncation verdict, same objective and the same move
sequence.  A graph that a limit cut short is never priced, even when it
reached the final marking.
"""

import os
import pickle
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus_models
from flowalign import reachability
from flowalign.cli import main
from flowalign.errors import InvalidLimitsError, UnreachableFinalError
from flowalign.flow import (
    SolveStatus,
    assemble_flow_problem,
    extract_alignment,
    layered_graph,
    lp_align,
    solve_layered,
    solve_min_cost_unit_flow,
)
from flowalign.model_io import serialize_pnml
from flowalign.petri import TAU, Trace, successor_memo
from flowalign.reachability import ExplorationLimits, build_reachability_graph, default_limits
from flowalign.selector import SelectionThresholds, hybrid_align
from flowalign.sync_product import CostConfig, product_for_trace
from oracles import oracle_shortest_cost
from test_heuristic_lp import first_edit_cycle
from test_successor_memo import corpus_products, limits, products, small_nets

ODD_COST = CostConfig(Fraction(1, 7), Fraction(3, 2))
UNBOUNDED_DEPTH = 10**6  # deeper than any product here, so no depth limit binds


@st.composite
def priced_products(draw):
    """Random nets with random traces, or corpus products, under either the
    default costs or ``ODD_COST``."""
    if draw(st.booleans()):
        net = draw(small_nets())
        acts = tuple(draw(st.lists(st.sampled_from("abcd"), max_size=5)))
    else:
        sp = corpus_products()[draw(st.integers(0, 107))]
        net, acts = sp.process_net, sp.trace_labels
    return product_for_trace(net, Trace("h", acts), draw(st.sampled_from((CostConfig(), ODD_COST))))


def test_layered_solve_equals_the_explicit_solve():
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(priced_products(), st.integers(1, 3))
    def check(sp, cap):
        lim = ExplorationLimits(max_depth=UNBOUNDED_DEPTH, token_cap=cap)
        try:
            rg = build_reachability_graph(sp, lim)
        except InvalidLimitsError:
            with pytest.raises(InvalidLimitsError):
                layered_graph(sp, lim)
            return
        graph = layered_graph(sp, lim)
        assert graph is not None and (graph.nodes, graph.edges) == (len(rg.nodes), len(rg.edges))
        layered = solve_layered(graph)
        seen["cap_prunes"] += rg.stats.cap_prunes > 0
        seen["self_loops"] += rg.stats.edges_pruned_self_loops > 0
        seen["empty_trace"] += not sp.trace_labels
        visible = [a for a in sp.process_net.labels if a is not TAU]
        seen["duplicate_labels"] += len(set(visible)) < len(visible)
        if rg.final_index is None:
            assert layered is None
            seen["unreachable"] += 1
            return
        sol = solve_min_cost_unit_flow(assemble_flow_problem(rg))
        explicit = extract_alignment(rg, sp, sol)
        assert [m.move_id for m in layered.moves] == [m.move_id for m in explicit.moves]
        assert layered.total_cost == sol.objective
        seen["silent_moves"] += layered.num_tau > 0
        seen["odd_cost"] += sp.cost == ODD_COST

    check()
    wanted = ("cap_prunes", "self_loops", "empty_trace", "duplicate_labels", "unreachable")
    assert all(seen[k] for k in wanted + ("silent_moves", "odd_cost")), seen


def test_counts_and_truncation_verdict_equal_the_build():
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(products, limits.filter(lambda lim: lim is not None))
    def check(sp, lim):
        try:
            rg = build_reachability_graph(sp, lim)
        except InvalidLimitsError:
            return
        alignment, stats = lp_align(sp, lim)
        assert (stats.rg_nodes, stats.rg_edges) == (len(rg.nodes), len(rg.edges))
        capped_away = rg.final_index is None and rg.stats.cap_prunes > 0
        assert (stats.outcome is SolveStatus.TRUNCATED_GRAPH) == (rg.stats.truncated or capped_away)
        if stats.outcome is SolveStatus.OPTIMAL:
            assert alignment.total_cost == oracle_shortest_cost(rg)

        graph = layered_graph(sp, lim)
        full = layered_graph(sp, ExplorationLimits(max_depth=UNBOUNDED_DEPTH, token_cap=lim.token_cap))
        if graph is not None:  # no limit can bind
            assert not rg.stats.truncated
            assert (graph.nodes, graph.edges) == (full.nodes, full.edges) == (len(rg.nodes), len(rg.edges))
            seen["impossible"] += 1
        elif full.nodes > lim.max_nodes or full.edges > lim.max_edges:
            assert rg.stats.truncated
            seen["certain"] += 1
        else:  # only the depth limit may bind, and the build decides
            seen["undecided", rg.stats.truncated] += 1

    check()
    assert all(seen[k] for k in ("impossible", "certain", ("undecided", True), ("undecided", False))), seen


def test_lp_align_builds_no_graph_when_no_limit_binds(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a reachability graph")

    monkeypatch.setattr(reachability, "build_reachability_graph", refuse)
    for _, sp in first_edit_cycle({"m00", "m05", "m10"}):
        alignment, stats = lp_align(sp)
        assert stats.outcome is SolveStatus.OPTIMAL and alignment is not None
        assert stats.rg_nodes % (len(sp.trace_labels) + 1) == 0  # |R|(n + 1)


# ---------------------------------------------------------------------------
# A graph that a limit cut short is never priced, even when it reached the
# final marking: its shortest path need not be the alignment.
# ---------------------------------------------------------------------------

M10_TRACE = Trace("m10-c000-k0", ("a9", "a11", "a10"))


@pytest.fixture(scope="module")
def m10():
    return next(net for model_id, net, _ in build_corpus_models() if model_id == "m10")


def test_depth_limited_graph_that_reached_the_final_is_not_priced(m10):
    sp = product_for_trace(m10, M10_TRACE)
    cut = ExplorationLimits(max_depth=4)
    rg = build_reachability_graph(sp, cut)
    assert rg.stats.truncated and rg.final_index is not None
    assert oracle_shortest_cost(rg) == 3  # the cut graph's price
    assert lp_align(sp)[0].total_cost == Fraction(1, 500_000)  # the alignment's
    alignment, stats = lp_align(sp, cut)
    assert alignment is None and stats.outcome is SolveStatus.TRUNCATED_GRAPH
    assert (stats.rg_nodes, stats.rg_edges) == (len(rg.nodes), len(rg.edges))
    with pytest.raises(UnreachableFinalError) as err:
        assemble_flow_problem(rg)
    assert err.value.reason == "truncated"


def test_hybrid_falls_back_when_a_limit_cut_a_graph_with_the_final(m10):
    route_to_flow = SelectionThresholds(length_threshold=0, deviation_threshold=0)
    result = hybrid_align(m10, M10_TRACE, 0.0, route_to_flow, limits=ExplorationLimits(max_depth=4))
    assert result.fell_back_to_astar and result.discarded.outcome is SolveStatus.TRUNCATED_GRAPH
    assert result.alignment.total_cost == Fraction(1, 500_000)


def test_cli_align_both_exits_4_on_a_depth_limited_graph(m10, tmp_path, capsys):
    model = tmp_path / "m10.pnml"
    model.write_bytes(serialize_pnml(m10))
    trace = ",".join(M10_TRACE.activities)
    code = main(["align", str(model), "--trace", trace, "--method", "both", "--max-depth", "4"])
    out = capsys.readouterr().out
    assert code == 4
    assert "lp outcome: truncated_graph" in out and "DISAGREE" not in out


def _limited_cases(cut_at):
    """Each first-edit-cycle product of three models whose graph, under the
    budget ``cut_at(full graph)`` returns, is cut short after reaching the
    final node."""
    for _, sp in first_edit_cycle({"m02", "m06", "m10"}):
        full = build_reachability_graph(sp)
        lim = cut_at(full, default_limits(sp).max_depth)
        rg = build_reachability_graph(sp, lim)
        if rg.stats.truncated and rg.final_index is not None:
            yield sp, lim


@pytest.mark.parametrize(
    "cut_at",
    [
        lambda full, depth: ExplorationLimits(depth, max_nodes=full.final_index + 1),
        lambda full, depth: ExplorationLimits(depth, max_edges=full.heads.index(full.final_index) + 1),
    ],
    ids=["max_nodes", "max_edges"],
)
def test_budget_limited_graph_that_reached_the_final_is_not_priced(cut_at):
    cases = list(_limited_cases(cut_at))
    assert cases
    for sp, lim in cases:
        alignment, stats = lp_align(sp, lim)
        assert alignment is None and stats.outcome is SolveStatus.TRUNCATED_GRAPH


def test_concurrent_layered_solves_equal_serial_solves():
    """Threads race to expand one empty memo and price one model graph."""
    net = next(net for model_id, net, _ in build_corpus_models() if model_id == "m02")
    traces = [Trace("c", sp.trace_labels) for _, sp in first_edit_cycle({"m02"})]

    def solve(net, trace):
        alignment, stats = lp_align(product_for_trace(net, trace))
        return [m.move_id for m in alignment.moves], stats.rg_nodes, stats.rg_edges

    serial = [solve(net, t) for t in traces]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            fresh = pickle.loads(pickle.dumps(net))
            with ThreadPoolExecutor(max_workers=min(os.cpu_count() or 1, 15) + 1) as pool:
                futures = [pool.submit(solve, fresh, t) for t in traces]
                assert [f.result(timeout=60) for f in futures] == serial
            assert len(successor_memo(fresh, 8).priced) == 1
    finally:
        sys.setswitchinterval(switch)
