"""The product state space composed from a per-model successor memo.

``SynchronousProduct.out`` composes each product state's moves
from the model's memo, and every walk of the product reads it: the
reachability graph build, A* and the layered flow walk.
``petri.successors`` on the product net and
``oracles.reference_reachability_graph`` fire every product transition at
every full product marking.  They must agree on every successor, node,
edge, count and optimal cost, under any limits.  A memo that saw a limit
exceeded answers a smaller one without walking.  The marking equation's
rows are composed the same way and must equal the product net's
incidence matrix.
"""

import copy
import dataclasses
import functools
import math
import os
import pickle
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import build_corpus_models
from explicit_lp import product_net
from flowalign import reachability, sync_product
from flowalign.astar import Heuristic, SearchConfig, astar_align
from flowalign.flow import Outcome, lp_align
from flowalign.errors import InvalidLimitsError
from flowalign.petri import PetriNet, Trace, incidence_matrices, successor_memo, successors
from flowalign.reachability import ExplorationLimits, build_reachability_graph
from flowalign.sync_product import product_for_trace
from oracles import (
    eager_moves,
    incidence_rows,
    oracle_shortest_cost,
    product_marking_equation,
    reference_reachability_graph,
)
from test_heuristic_lp import first_edit_cycle

LABELS = ("a", "b", "c", None)


@st.composite
def small_nets(draw) -> PetriNet:
    """Weighted arcs, self-loop transitions, empty presets, silent and
    repeated labels."""
    places = [f"p{i}" for i in range(draw(st.integers(1, 4)))]
    arcs, labels = [], {}
    for k in range(draw(st.integers(1, 5))):
        t = f"t{k}"
        labels[t] = draw(st.sampled_from(LABELS))
        shape = draw(st.sampled_from(("plain", "self_loop", "empty_preset")))
        if shape == "self_loop":
            p, w = draw(st.sampled_from(places)), draw(st.integers(1, 2))
            arcs += [(p, t, w), (t, p, w)]
            continue
        if shape == "plain":
            for p in draw(st.lists(st.sampled_from(places), min_size=1, max_size=2, unique=True)):
                arcs.append((p, t, draw(st.integers(1, 2))))
        for p in draw(st.lists(st.sampled_from(places), max_size=2, unique=True)):
            arcs.append((t, p, draw(st.integers(1, 3))))
    marking = st.lists(st.integers(0, 2), min_size=len(places), max_size=len(places))
    initial, final = draw(marking), draw(marking)
    return PetriNet.build(
        places, labels, arcs, labels, dict(zip(places, initial)), dict(zip(places, final))
    )


@functools.cache
def corpus_products():
    return [sp for _, sp in first_edit_cycle({f"m{i:02d}" for i in range(12)})]


products = st.one_of(
    st.builds(
        product_for_trace,
        small_nets(),
        st.builds(Trace, st.just("h"), st.lists(st.sampled_from("abcd"), max_size=5).map(tuple)),
    ),
    st.integers(0, 107).map(lambda i: corpus_products()[i]),
)


@st.composite
def limited_products(draw):
    """A product and its limits: the default limits and cap, or budgets
    under a token cap of 1 to 3."""
    sp = draw(products)
    if draw(st.booleans()):
        return sp, None
    lim = ExplorationLimits(max_nodes=draw(st.integers(1, 40)), max_edges=draw(st.integers(1, 80)))
    return dataclasses.replace(sp, token_cap=draw(st.integers(1, 3))), lim


def test_build_matches_reference_bfs():
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(limited_products())
    def check(case):
        sp, lim = case
        try:
            ref = reference_reachability_graph(sp, lim)
        except InvalidLimitsError:
            with pytest.raises(InvalidLimitsError):
                build_reachability_graph(sp, lim)
            return
        rg = build_reachability_graph(sp, lim)
        assert rg.nodes == ref.nodes
        assert rg.edges == ref.edges
        assert rg.final_index == ref.final_index
        assert rg.stats == ref.stats
        seen["cap_prunes"] += ref.stats.cap_prunes > 0
        seen["self_loops"] += ref.stats.edges_pruned_self_loops > 0
        seen["halts"] += lim is not None and (
            len(ref.nodes) == lim.max_nodes or len(ref.edges) == lim.max_edges
        )
        seen["halts_after_self_loops"] += (
            lim is not None
            and ref.stats.edges_pruned_self_loops > 0
            and (len(ref.nodes) == lim.max_nodes or len(ref.edges) == lim.max_edges)
        )

    check()
    assert all(seen[k] for k in ("cap_prunes", "self_loops", "halts", "halts_after_self_loops")), seen


def test_space_successors_equal_product_firing():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(products, st.integers(1, 3))
    def check(sp, cap):
        sp = dataclasses.replace(sp, token_cap=cap)
        net = product_net(sp)
        assert incidence_rows(sp) == [list(row) for row in incidence_matrices(net).incidence]
        seen["empty_traces"] += not sp.trace_labels
        if any(v > cap for v in sp.initial_marking):
            # The product and its moves are made; its state space is not.
            assert tuple(sp.moves) == eager_moves(sp)
            for read in (lambda: sp.memo, lambda: sp.final, lambda: sp.prices, lambda: next(sp.out(0))):
                with pytest.raises(InvalidLimitsError):
                    read()
            seen["over_cap"] += 1
            return
        keys, found = [0], {0}
        for key in keys:
            marking = sp.marking(key)
            out = list(sp.out(key))
            fired = list(successors(net, marking, cap))
            # Every move fired at the full marking is listed, in the same
            # order: a capped one with None, a self-loop with its own key.
            assert [k for k, _ in out] == [j for j, _ in fired]
            assert [None if s is None else sp.marking(s) for _, s in out] == [m for _, m in fired]
            assert all((s == key) == (m == marking) for (_, s), (_, m) in zip(out, fired))
            seen["cap_prunes"] += any(m is None for _, m in fired)
            seen["self_loops"] += any(m == marking for _, m in fired)
            for _, s in out:
                if s is not None and s not in found:
                    found.add(s)
                    keys.append(s)
        markings = [sp.marking(key) for key in keys]
        assert markings[0] == sp.initial_marking
        assert len(set(markings)) == len(markings)
        assert sp.marking(sp.final) == sp.final_marking
        assert (sp.final in found) == (sp.final_marking in markings)
        seen["final_reached"] += sp.final in found
        seen["final_unreached"] += sp.final not in found

    check()
    wanted = ("cap_prunes", "self_loops", "empty_traces", "over_cap", "final_reached", "final_unreached")
    assert all(seen[k] for k in wanted), seen


def test_astar_cost_equals_the_reference_graph_oracle():
    seen = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(products, st.integers(1, 3), st.sampled_from(Heuristic))
    @example(product_for_trace(capped_net(), Trace("c", ("a", "a", "c"))), 1, Heuristic.MARKING_EQUATION)
    def check(sp, cap, heuristic):
        sp = dataclasses.replace(sp, token_cap=cap)
        try:
            ref = reference_reachability_graph(sp)
        except InvalidLimitsError:
            return
        if ref.stats.truncated:
            return
        alignment, stats = astar_align(sp, SearchConfig(heuristic=heuristic))
        if ref.final_index is None:
            # Capped only if the cap pruned and some firing count could still reach m_f.
            capped = ref.stats.cap_prunes and product_marking_equation(sp, sp.initial_marking) < math.inf
            outcome = Outcome.CAPPED if capped else Outcome.INFEASIBLE
            assert alignment is None and stats.outcome is outcome
            assert lp_align(sp)[1].outcome is outcome
            seen["unreachable", outcome] += 1
        else:
            assert stats.outcome is Outcome.OPTIMAL
            assert alignment.total_cost == oracle_shortest_cost(ref)
            seen["optimal", heuristic] += 1
            seen["cap_prunes"] += ref.stats.cap_prunes > 0

    check()
    assert seen["unreachable", Outcome.CAPPED] and seen["unreachable", Outcome.INFEASIBLE], seen
    assert seen["cap_prunes"], seen
    assert all(seen["optimal", h] for h in Heuristic), seen


def growing_net() -> PetriNet:
    """Unbounded: ``t`` puts a token back on ``p0`` and one more on ``p1``,
    so the token cap decides the size of the state space."""
    return PetriNet.build(
        ["p0", "p1", "p2"],
        ["t", "u", "v"],
        [("p0", "t"), ("t", "p0"), ("t", "p1"), ("p1", "u"), ("u", "p2"), ("p0", "v"), ("v", "p2")],
        {"t": "a", "u": "b", "v": "c"},
        {"p0": 1},
        {"p2": 1},
    )


def capped_net() -> PetriNet:
    """``growing_net`` without ``u``, and a final marking {p1: 2, p2: 1}
    that the trace a, a, c reaches at cost 0 under cap 2 and that cap 1
    cuts off."""
    return PetriNet.build(
        ["p0", "p1", "p2"],
        ["t", "v"],
        [("p0", "t"), ("t", "p0"), ("t", "p1"), ("p0", "v"), ("v", "p2")],
        {"t": "a", "v": "c"},
        {"p0": 1},
        {"p1": 2, "p2": 1},
    )


def test_an_exceeded_limit_is_answered_without_walking():
    net = growing_net()
    memo = successor_memo(net, 8)
    expand, calls = memo.expand, []
    memo.expand = lambda i: calls.append(i) or expand(i)
    assert memo.reached(152) is None and len(calls) == 151
    calls.clear()
    assert memo.reached(152) is None and memo.reached(1) is None
    assert calls == []
    assert memo.reached(153) is not None and memo.reachable == 153


@pytest.mark.parametrize("initial", [{"p0": 1}, {}], ids=["one token", "empty"])
def test_a_cap_below_1_is_refused_by_every_engine(initial):
    net = PetriNet.build(["p0", "p1"], ["t"], [("p0", "t"), ("t", "p1")], {"t": "a"}, initial, {"p1": 1})
    sp = product_for_trace(net, Trace("z", ("a",)), token_cap=0)
    for engine in (lp_align, astar_align, build_reachability_graph):
        with pytest.raises(InvalidLimitsError, match="token_cap must be >= 1"):
            engine(sp)


def graph_of(net, acts, cap):
    sp = product_for_trace(net, Trace("g", acts), token_cap=cap)
    rg = build_reachability_graph(sp)
    return rg.nodes, tuple(rg.edges), rg.final_index, rg.stats


class TestMemoSharing:
    def test_memo_is_not_pickled(self):
        net = growing_net()
        graph_of(net, ("a", "a", "c"), 3)
        assert successor_memo(net, 3).table[0] is not None
        trace = Trace("g", ("a", "c"))
        aligned = [lp_align(product_for_trace(net, trace))[0], astar_align(product_for_trace(net, trace))[0]]
        assert None not in aligned
        caches = {"_successor_memos", "_model_moves", "_relaxations", "_firing_data"}
        assert caches | {"place_index", "transition_index"} <= net.__dict__.keys()
        fields = {f.name for f in dataclasses.fields(PetriNet)}
        clone = pickle.loads(pickle.dumps(net))
        assert clone.__dict__.keys() == copy.copy(net).__dict__.keys() == fields
        assert "_successor_memos" in net.__dict__
        assert clone == net
        assert graph_of(clone, ("a", "a", "c"), 3) == graph_of(growing_net(), ("a", "a", "c"), 3)
        sp = product_for_trace(clone, trace)
        assert [lp_align(sp)[0], astar_align(sp)[0]] == aligned

    def test_memo_is_keyed_by_cap(self):
        net = growing_net()
        acts = ("a", "b", "a", "c")
        for cap in (1, 8, 1):
            assert graph_of(net, acts, cap) == graph_of(growing_net(), acts, cap)
        assert graph_of(net, acts, 1)[3].cap_prunes > 0

    def test_concurrent_builds_equal_serial_builds(self):
        net = next(net for model_id, net, _ in build_corpus_models() if model_id == "m02")
        products = [sp for _, sp in first_edit_cycle({"m02"})]
        serial = [graph_of_product(sp) for sp in products]
        workers = min(os.cpu_count() or 1, 15) + 1
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                # A fresh copy of the net, so that the threads race to fill
                # one empty memo.
                fresh = pickle.loads(pickle.dumps(net))
                rebuilt = [product_for_trace(fresh, Trace("c", sp.trace_labels)) for sp in products]
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [pool.submit(graph_of_product, sp) for sp in rebuilt]
                    concurrent = [f.result(timeout=60) for f in futures]
                assert concurrent == serial
                memo = successor_memo(fresh, 8)
                assert len(memo.ids) == len(memo.markings) == len(memo.table)
                assert all(memo.ids[m] == i for i, m in enumerate(memo.markings))
        finally:
            sys.setswitchinterval(switch)


def graph_of_product(sp):
    rg = build_reachability_graph(sp)
    return rg.nodes, tuple(rg.edges), rg.final_index, rg.stats


class TestEdgeView:
    def test_sequence_behaviour(self, toy_rg):
        edges = toy_rg.edges
        as_tuple = tuple(edges)
        assert len(edges) == len(as_tuple) == len(toy_rg.tails) == 50
        assert edges == as_tuple and as_tuple == edges
        assert edges[:7] == as_tuple[:7] and isinstance(edges[:7], tuple)
        assert edges[-1] == as_tuple[-1]
        assert [edges[i] for i in range(len(edges))] == list(as_tuple)
        assert edges != as_tuple[:-1]
        with pytest.raises(IndexError):
            edges[50]

    def test_len_builds_no_edges(self, toy_rg, monkeypatch):
        made = []
        monkeypatch.setattr(reachability, "RGEdge", lambda *a: made.append(a))
        assert len(toy_rg.edges) == 50
        assert made == []


class TestNodeView:
    def test_sequence_behaviour(self, toy_product, toy_rg):
        nodes = toy_rg.nodes
        as_tuple = tuple(nodes)
        assert len(nodes) == len(as_tuple) == 24
        assert nodes == as_tuple and as_tuple == nodes
        assert nodes[:7] == as_tuple[:7] and isinstance(nodes[:7], tuple)
        assert nodes[-1] == as_tuple[-1]
        assert [nodes[i] for i in range(len(nodes))] == list(as_tuple)
        assert nodes != as_tuple[:-1]
        assert nodes[toy_rg.initial_index] == toy_product.initial_marking
        assert nodes[toy_rg.final_index] == toy_product.final_marking
        with pytest.raises(IndexError):
            nodes[24]

    def test_len_builds_no_markings(self, toy_product, monkeypatch):
        made = []
        monkeypatch.setattr(sync_product, "_one_hot", lambda *a: made.append(a))
        assert len(build_reachability_graph(toy_product).nodes) == 24
        assert made == []


def test_lp_align_builds_no_node_marking(monkeypatch):
    products = [sp for _, sp in first_edit_cycle({"m00", "m05"})]
    made = []
    one_hot = sync_product._one_hot
    monkeypatch.setattr(sync_product, "_one_hot", lambda *a: made.append(a) or one_hot(*a))
    for sp in products:
        alignment, stats = lp_align(sp)
        assert alignment is not None and stats.rg_nodes > 1
    assert made == []
