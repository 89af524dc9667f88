"""The flow LP solved layer by layer on the model's reachability graph.

``flow.layered_graph`` counts a product's reachability graph from its
model, and the counts decide whether a node or edge budget binds;
``flow.solve_layered`` solves the flow LP over it one trace position at a
time.  The built graph and ``solve_min_cost_unit_flow`` are the oracle:
same counts, same truncation verdict, same objective and the same move
sequence.  ``lp_align`` never builds a graph, and a graph that a budget
cuts short is never priced, even when it reached the final marking.
"""

import contextlib
import dataclasses
import gc
import math
import os
import pickle
import random
import signal
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus_models
from flowalign import flow, reachability
from flowalign.astar import astar_align
from flowalign.bench import RunConfig
from flowalign.cli import main
from flowalign.errors import InternalInvariantError, InvalidLimitsError, UnreachableFinalError
from flowalign.flow import (
    Outcome,
    assemble_flow_problem,
    extract_alignment,
    layered_graph,
    lp_align,
    solve_layered,
    solve_min_cost_unit_flow,
)
from flowalign.model_io import serialize_pnml
from flowalign.petri import TAU, PetriNet, Trace, successor_memo
from flowalign.reachability import ExplorationLimits, build_reachability_graph
from flowalign.selector import SelectionThresholds, hybrid_align
from flowalign.sync_product import CostConfig, product_for_trace
from oracles import full_scan_certificate, oracle_shortest_cost, product_marking_equation
from test_heuristic_lp import first_edit_cycle
from test_successor_memo import corpus_products, growing_net, limited_products, small_nets

ODD_COST = CostConfig(Fraction(1, 7), Fraction(3, 2))


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
        sp, lim = dataclasses.replace(sp, token_cap=cap), ExplorationLimits()
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


def unbudgeted_counts(sp, lim):
    """The node and edge counts that ``lp_align`` reports under ``lim``,
    from builds: the graph built under ``lim`` unless a budget cut it short;
    then the graph built without budgets, or (0, 0) when the model alone
    has more than ``max_nodes`` reachable markings."""
    lim = lim or ExplorationLimits()
    rg = build_reachability_graph(sp, lim)
    if not rg.stats.truncated:
        return len(rg.nodes), len(rg.edges)
    full = build_reachability_graph(sp)
    assert not full.stats.truncated
    if len(full.nodes) // (len(sp.trace_labels) + 1) > lim.max_nodes:
        return 0, 0
    return len(full.nodes), len(full.edges)


def refuse_builds(patch):
    """Make every way to build or assemble an explicit graph raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("built a reachability graph")

    patch.setattr(reachability, "build_reachability_graph", refuse)
    patch.setattr(flow, "assemble_flow_problem", refuse)


def test_counts_and_truncation_verdict_equal_the_build(monkeypatch):
    """Under any limits ``lp_align`` builds no graph, reports the counts of
    ``unbudgeted_counts``, is over budget exactly when the build is cut
    short, and is capped exactly when the token cap pruned every way to
    the final marking and the marking equation does not rule one out."""
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(limited_products())
    def check(case):
        sp, lim = case
        try:
            rg = build_reachability_graph(sp, lim)
        except InvalidLimitsError:
            return
        counts = unbudgeted_counts(sp, lim)
        with monkeypatch.context() as patch:
            refuse_builds(patch)
            alignment, stats = lp_align(sp, lim)
        assert (stats.rg_nodes, stats.rg_edges) == counts
        capped_away = (
            rg.final_index is None
            and rg.stats.cap_prunes > 0
            and product_marking_equation(sp, sp.initial_marking) < math.inf
        )
        assert (stats.outcome is Outcome.OVER_BUDGET) == rg.stats.truncated
        assert (stats.outcome is Outcome.CAPPED) == (capped_away and not rg.stats.truncated)
        if stats.outcome is Outcome.OPTIMAL:
            assert alignment.total_cost == oracle_shortest_cost(rg)
        if not rg.stats.truncated:
            seen["within budgets"] += 1
        else:
            seen["over budget" if counts != (0, 0) else "model over max_nodes"] += 1

    check()
    assert all(seen[k] for k in ("within budgets", "over budget", "model over max_nodes")), seen


def test_lp_align_builds_no_graph_when_no_limit_binds(monkeypatch):
    refuse_builds(monkeypatch)
    for _, sp in first_edit_cycle({"m00", "m05", "m10"}):
        alignment, stats = lp_align(sp)
        assert stats.outcome is Outcome.OPTIMAL and alignment is not None
        assert stats.rg_nodes % (len(sp.trace_labels) + 1) == 0  # |R|(n + 1)


def test_default_limits_price_a_deep_graph_within_the_budgets():
    """The token cap, not the model's size, sets how deep an unbounded
    model's graph goes: 459 nodes at BFS depth up to 25 here.  The default
    limits bound nodes and edges only, so the graph is priced."""
    sp = product_for_trace(growing_net(), Trace("g", ("a", "c")))
    alignment, stats = lp_align(sp)
    assert stats.outcome is Outcome.OPTIMAL and stats.rg_nodes == 459
    rg = build_reachability_graph(sp)
    assert alignment.total_cost == astar_align(sp)[0].total_cost == oracle_shortest_cost(rg)


# ---------------------------------------------------------------------------
# A graph that a budget cuts short is never priced, even when it reached
# the final marking: its shortest path need not be the alignment.
# ---------------------------------------------------------------------------

M10_TRACE = Trace("m10-c000-k0", ("a9", "a11", "a10"))
M10_CUT = 46  # nodes: one past the final node (index 45) of m10 x M10_TRACE


@pytest.fixture(scope="module")
def m10():
    return next(net for model_id, net, _ in build_corpus_models() if model_id == "m10")


def test_node_limited_graph_that_reached_the_final_is_not_priced(m10):
    sp = product_for_trace(m10, M10_TRACE)
    cut = ExplorationLimits(max_nodes=M10_CUT)
    rg = build_reachability_graph(sp, cut)
    assert rg.stats.truncated and rg.final_index == M10_CUT - 1
    assert oracle_shortest_cost(rg) == 3  # the cut graph's price
    assert lp_align(sp)[0].total_cost == Fraction(1, 500_000)  # the alignment's
    alignment, stats = lp_align(sp, cut)
    assert alignment is None and stats.outcome is Outcome.OVER_BUDGET
    with pytest.raises(UnreachableFinalError) as err:
        assemble_flow_problem(rg)
    assert err.value.reason == "truncated"


def test_hybrid_falls_back_when_a_limit_cut_a_graph_with_the_final(m10):
    route_to_flow = SelectionThresholds(length_threshold=0, deviation_threshold=0)
    cfg = RunConfig(method="hybrid", thresholds=route_to_flow, max_nodes=M10_CUT)
    result = hybrid_align(m10, M10_TRACE, 0, cfg)
    assert result.fell_back_to_astar and result.runs[0][1].outcome is Outcome.OVER_BUDGET
    assert result.alignment.total_cost == Fraction(1, 500_000)


def test_cli_align_both_exits_4_on_a_node_limited_graph(m10, tmp_path, capsys):
    model = tmp_path / "m10.pnml"
    model.write_bytes(serialize_pnml(m10))
    trace = ",".join(M10_TRACE.activities)
    code = main(["align", str(model), "--trace", trace, "--method", "both", "--max-nodes", str(M10_CUT)])
    out = capsys.readouterr().out
    assert code == 4
    assert "lp outcome: over_budget" in out and "DISAGREE" not in out


def _limited_cases(cut_at):
    """Each first-edit-cycle product of three models whose graph, under the
    budget ``cut_at(full graph)`` returns, is cut short after reaching the
    final node."""
    for _, sp in first_edit_cycle({"m02", "m06", "m10"}):
        lim = cut_at(build_reachability_graph(sp))
        rg = build_reachability_graph(sp, lim)
        if rg.stats.truncated and rg.final_index is not None:
            yield sp, lim


CUTS = {
    "max_nodes": lambda full: ExplorationLimits(max_nodes=full.final_index + 1),
    "max_edges": lambda full: ExplorationLimits(max_edges=full.heads.index(full.final_index) + 1),
}


@pytest.mark.parametrize("cut_at", CUTS.values(), ids=list(CUTS))
def test_budget_limited_graph_that_reached_the_final_is_not_priced(cut_at):
    cases = list(_limited_cases(cut_at))
    assert cases
    for sp, lim in cases:
        alignment, stats = lp_align(sp, lim)
        assert alignment is None and stats.outcome is Outcome.OVER_BUDGET


def test_lp_align_builds_no_graph_when_a_budget_binds(monkeypatch):
    """A graph that a budget cuts short after it reached the final node is
    refused from its counts, which are the unbudgeted build's."""
    cases = [case for cut_at in CUTS.values() for case in _limited_cases(cut_at)]
    expected = [unbudgeted_counts(sp, lim) for sp, lim in cases]
    assert cases and all(expected)
    refuse_builds(monkeypatch)
    for (sp, lim), counts in zip(cases, expected):
        alignment, stats = lp_align(sp, lim)
        assert alignment is None and stats.outcome is Outcome.OVER_BUDGET
        assert (stats.rg_nodes, stats.rg_edges) == counts


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


def one_step_product():
    """Model p0 -t(a)-> p1 against the trace a: markings 0 (m_0) and 1
    (m_f), whose layers are [0, d] at position 0 and [d, 0] at position 1,
    for d the scaled cost of a model or log move."""
    net = PetriNet.build(["p0", "p1"], ["t"], [("p0", "t"), ("t", "p1")], {"t": "a"}, {"p0": 1}, {"p1": 1})
    return product_for_trace(net, Trace("a", ("a",)))


def cold(sp):
    """``sp`` on a copy of its net that a pickle round trip left without
    caches, with the model's graph priced (by the real settle) and no
    layer step memoized yet."""
    sp = pickle.loads(pickle.dumps(sp))
    model = layered_graph(sp, ExplorationLimits()).model
    assert not model.steps and len(model.shapes) == (model.final is not None)
    return sp, model


def certify_layers(model, trace, layers):
    """Every check that the labels ``layers`` of a solve pass: the last
    layer's, and each position's step from the layer above, made upward."""
    flow._certify_last(model, layers[-1])
    for pos in reversed(range(len(trace))):
        flow._certify_step(model, trace[pos], layers[pos], layers[pos + 1])


@pytest.mark.parametrize(
    "pos, marking, label, message",
    [
        # t from m_0 at position 0, whose head m_f is unchanged from position
        # 1: the check derives that move from m_0's log move, which fails.
        (0, 0, lambda d: 2 * d + 1, "violated by event 'a'"),
        (0, 1, lambda d: d + 1, "violated by event 'a'"),  # the log move from m_f at position 0
        (0, 0, lambda d: 1, "violated by event 'a'"),  # the synchronous move (t, a) from m_0
        (1, 1, lambda d: 1, "sink distance is nonzero"),
        (0, 1, lambda d: -2 * d, "violated by a model move under event 'a'"),  # t into m_f, now a changed head
        (1, 0, lambda d: 2 * d + 1, "violated by a model move at the last position"),  # t from m_0
    ],
    ids=["model move", "log move", "synchronous move", "sink", "model move into a changed head", "last layer"],
)
def test_certificate_rejects_one_corrupted_label(pos, marking, label, message):
    """Each case breaks one inequality that no other clause of the check
    catches: the step's check from position 1 to 0 at position 0, and the
    last layer's check at position 1."""
    sp = one_step_product()
    model = layered_graph(sp, ExplorationLimits()).model
    d = model.log_cost
    layers = [[0, d], [d, 0]]
    checks = (lambda: flow._certify_step(model, "a", *layers), lambda: flow._certify_last(model, layers[1]))
    for check in checks:
        check()
    layers[pos][marking] = label(d)
    with pytest.raises(InternalInvariantError, match=message):
        checks[pos]()


def certifies(check, model, trace, layers) -> bool:
    try:
        check(model, trace, layers)
    except InternalInvariantError:
        return False
    return True


def test_certificate_agrees_with_the_full_scan():
    """On the labels of real solves with one label raised or lowered, at
    any position, the checks raise exactly when the scan of every model
    move on every layer does."""
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(priced_products(), st.data())
    def check(sp, data):
        model, trace = layered_graph(sp, ExplorationLimits()).model, sp.trace_labels
        if model.final is None:
            return
        layers = [[d + offset for d in shape] for shape, offset in model.layers(trace)]
        assert certifies(certify_layers, model, trace, layers)
        pos = data.draw(st.integers(0, len(layers) - 1))
        v = data.draw(st.integers(0, len(layers[pos]) - 1))
        d, old = model.log_cost, layers[pos][v]
        if old == math.inf:
            layers[pos][v] = data.draw(st.integers(0, 3 * d))
        else:
            delta = data.draw(st.sampled_from((1, d - 1, d, d + 1, 2 * d, math.inf)))
            layers[pos][v] = old + delta if data.draw(st.booleans()) else old - delta
        verdict = certifies(certify_layers, model, trace, layers)
        assert verdict == certifies(full_scan_certificate, model, trace, layers)
        seen["rejected" if not verdict else "accepted"] += 1
        if not verdict and pos < len(trace):
            with pytest.raises(InternalInvariantError) as err:
                certify_layers(model, trace, layers)
            seen["changed head"] += "model move under" in str(err.value)

    check()
    assert all(seen[k] for k in ("rejected", "accepted", "changed head")), seen


def settle_too_low(model):
    """A settle that drops m_f's label at position 0 of ``one_step_product``
    below the model move into it, off the walk's path, so that only the
    certificate can see it."""
    settle = flow._settle

    def too_low(dist, into, sources):
        dist = settle(dist, into, sources)
        dist[model.final] -= 3 * model.log_cost
        return dist

    return too_low


def test_lp_align_raises_on_a_label_settled_too_low(monkeypatch):
    sp, model = cold(one_step_product())
    monkeypatch.setattr(flow, "_settle", settle_too_low(model))
    with pytest.raises(InternalInvariantError, match="model move under event 'a'"):
        lp_align(sp)


def test_a_failed_certificate_stores_nothing(monkeypatch):
    """The step that failed is not memoized, so the same trace is made and
    checked again and fails again, and so does a longer one through it."""
    sp, model = cold(one_step_product())
    monkeypatch.setattr(flow, "_settle", settle_too_low(model))
    for trace in (("a",), ("a",), ("a", "a")):
        with pytest.raises(InternalInvariantError, match="model move under event 'a'"):
            lp_align(product_for_trace(sp.process_net, Trace("t", trace)))
        assert model.steps == {} and len(model.shapes) == 1 and model.cells == len(model.shapes[0])
    monkeypatch.undo()
    assert lp_align(sp)[0].total_cost == 0


def counting_settle(patch):
    """Count the calls of ``flow._settle`` made under ``patch``."""
    settle, calls = flow._settle, []

    def counted(dist, into, sources):
        calls.append(sources)
        return settle(dist, into, sources)

    patch.setattr(flow, "_settle", counted)
    return calls


def test_a_second_solve_of_a_trace_settles_nothing(monkeypatch):
    for _, sp in first_edit_cycle({"m02", "m09"}):
        sp, _ = cold(sp)
        first = lp_align(sp)[0]
        with monkeypatch.context() as patch:
            calls = counting_settle(patch)
            again = lp_align(sp)[0]
        assert calls == [] and again.path == first.path and again.total_cost == first.total_cost


def test_a_repeated_event_shares_its_layer_shape(monkeypatch):
    """Under a run of a's, ``one_step_product``'s layers are [d, 0], then
    [0, d], then [0, d] + k d: two steps, whatever the run's length."""
    sp, model = cold(one_step_product())
    calls = counting_settle(monkeypatch)
    alignment, _ = lp_align(product_for_trace(sp.process_net, Trace("t", ("a",) * 40)))
    assert alignment.total_cost == 39 * CostConfig().deviation_cost
    assert len(calls) == 2 and len(model.steps) == 2 and len(model.shapes) == 2


def random_traces(net, rng, count, length):
    labels = sorted({a for a in net.labels if a is not TAU}) + ["z"]
    return [tuple(rng.choices(labels, k=rng.randint(0, length))) for _ in range(count)]


def test_a_warm_layer_memo_solves_as_a_cold_one_and_the_explicit_kernel():
    """Steps that other traces memoized give the same path and cost as a
    cold memo, and as the built graph's explicit solve."""
    seen = Counter()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(priced_products(), st.randoms(use_true_random=False))
    def check(sp, rng):
        warm, model = cold(sp)
        if model.final is None:
            return
        for trace in random_traces(sp.process_net, rng, 6, len(sp.trace_labels) + 3):
            lp_align(product_for_trace(warm.process_net, Trace("w", trace), sp.cost))
        steps = len(model.steps)
        alignment = lp_align(warm)[0]
        seen["reused"] += len(model.steps) < steps + len(sp.trace_labels)
        cold_alignment = lp_align(cold(sp)[0])[0]
        rg = build_reachability_graph(sp)
        explicit = extract_alignment(rg, sp, solve_min_cost_unit_flow(assemble_flow_problem(rg)))
        assert alignment.path == cold_alignment.path == explicit.path
        assert alignment.total_cost == cold_alignment.total_cost == explicit.total_cost

    check()
    assert seen["reused"], seen


def test_layer_memo_stops_growing_at_its_bound(monkeypatch):
    """Past ``LAYER_MEMO_CELLS`` a step is used but not kept: once the
    bound leaves no room for a shape, a log twice as long leaves the
    memo's allocations within a few steps of where they were, and the
    alignments are those of an unbounded memo."""
    m06 = next(net for model_id, net, _ in build_corpus_models() if model_id == "m06")
    traces = random_traces(m06, random.Random(5), 120, 20)
    unbounded = [list(lp_align(product_for_trace(m06, Trace("t", trace)))[0].path) for trace in traces]
    monkeypatch.setattr(flow, "LAYER_MEMO_CELLS", 1_000)
    net, paths = pickle.loads(pickle.dumps(m06)), []

    def solve_and_measure(log):
        # Copied, so that what the test keeps is not counted as the memo's.
        paths.extend(list(lp_align(product_for_trace(net, Trace("t", trace)))[0].path) for trace in log)
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, flow.__file__)])
        return sum(stat.size for stat in snapshot.statistics("filename"))

    tracemalloc.start()
    try:
        half = solve_and_measure(traces[:60])
        model = successor_memo(net, 8).priced[CostConfig()]
        shapes, cells = len(model.shapes), model.cells
        full = solve_and_measure(traces[60:])
    finally:
        tracemalloc.stop()
    assert cells + flow.STEP_CELLS + len(model.shapes[0]) > flow.LAYER_MEMO_CELLS  # no shape fits
    assert len(model.shapes) == shapes and cells <= model.cells <= flow.LAYER_MEMO_CELLS
    assert full <= 1.05 * half, (half, full)
    assert paths == unbounded


@contextlib.contextmanager
def fail_after(seconds: int):
    """Raise ``TimeoutError`` after ``seconds``, so that a walk that never
    ends fails its test instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_lp_align_raises_when_a_label_cycle_traps_the_walk(fig_cyclic, monkeypatch):
    """Layer 0 settled infinite but at m_f, and no step checked: every
    model move into another marking at position 0 looks tight, and the
    first one listed at each marking runs round the model's d-loop, so
    only the walk's length guard stops it.  (The step's certificate,
    made before any walk, would refuse that layer.)"""
    sp, model = cold(product_for_trace(fig_cyclic, Trace("t", ("a", "b", "c", "e"))))
    settle, calls = flow._settle, []

    def infinite_layer_0(dist, into, sources):
        calls.append(sources)
        dist = settle(dist, into, sources)
        if len(calls) < len(sp.trace_labels):
            return dist
        return [0 if v == model.final else math.inf for v in range(len(dist))]

    monkeypatch.setattr(flow, "_settle", infinite_layer_0)
    monkeypatch.setattr(flow, "_certify_step", lambda *args: None)
    with fail_after(20), pytest.raises(InternalInvariantError, match="label walk stuck"):
        lp_align(sp)
