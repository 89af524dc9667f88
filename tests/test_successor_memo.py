"""The product state space composed from a per-model successor memo.

``sync_product.ProductGraph`` composes each product state's successors
from the model's memo, and both engines grow one: the reachability graph
build and A*.  ``petri.successors`` on the product net and
``oracles.reference_reachability_graph`` fire every product transition at
every full product marking.  They must agree on every successor, node,
edge, count and optimal cost, under any limits.  The marking equation's
rows are composed the same way and must equal the product net's
incidence matrix.
"""

import functools
import os
import pickle
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus_models
from flowalign import reachability, sync_product
from flowalign.astar import Heuristic, SearchConfig, SearchOutcome, astar_align
from flowalign.flow import lp_align
from flowalign.errors import InvalidLimitsError
from flowalign.petri import PetriNet, Trace, incidence_matrices, successor_memo, successors
from flowalign.reachability import ExplorationLimits, build_reachability_graph, default_limits
from flowalign.sync_product import ProductGraph, incidence_rows, product_for_trace
from oracles import oracle_shortest_cost, reference_reachability_graph
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


limits = st.one_of(
    st.none(),
    st.builds(
        ExplorationLimits,
        max_depth=st.integers(0, 12),
        max_nodes=st.integers(1, 40),
        max_edges=st.integers(1, 80),
        token_cap=st.integers(1, 3),
    ),
)
products = st.one_of(
    st.builds(
        product_for_trace,
        small_nets(),
        st.builds(Trace, st.just("h"), st.lists(st.sampled_from("abcd"), max_size=5).map(tuple)),
    ),
    st.integers(0, 107).map(lambda i: corpus_products()[i]),
)


def test_build_matches_reference_bfs():
    seen = Counter()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(products, limits)
    def check(sp, lim):
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
        assert incidence_rows(sp) == incidence_matrices(sp.net).incidence.tolist()
        seen["empty_traces"] += not sp.trace_labels
        if any(v > cap for v in sp.initial_marking):
            with pytest.raises(InvalidLimitsError):
                ProductGraph(sp, cap)
            seen["over_cap"] += 1
            return
        graph = ProductGraph(sp, cap)
        node = 0
        while node < len(graph.keys):
            marking = graph.marking(node)
            first, caps, loops = len(graph.tails), graph.cap_prunes, graph.self_loops
            assert graph.expand(node, node + 1) == 1
            edges = range(first, len(graph.tails))
            fired = list(successors(sp.net, marking, cap))
            # Every move fired at the full marking is an edge, in the same
            # order, unless it is capped or a self-loop, which are counted.
            assert all(graph.tails[e] == node for e in edges)
            assert [(graph.moves[e], graph.marking(graph.heads[e])) for e in edges] == [
                (j, m) for j, m in fired if m is not None and m != marking
            ]
            assert graph.cap_prunes - caps == sum(m is None for _, m in fired)
            assert graph.self_loops - loops == sum(m == marking for _, m in fired)
            seen["cap_prunes"] += graph.cap_prunes > caps
            seen["self_loops"] += graph.self_loops > loops
            node += 1
        markings = [graph.marking(i) for i in range(len(graph.keys))]
        assert markings[0] == sp.initial_marking
        assert len(set(markings)) == len(markings)
        if sp.final_marking in markings:
            assert graph.final_index == markings.index(sp.final_marking)
        else:
            assert graph.final_index is None

    check()
    assert all(seen[k] for k in ("cap_prunes", "self_loops", "empty_traces", "over_cap")), seen


def test_astar_cost_equals_the_reference_graph_oracle():
    seen = Counter()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(products, st.integers(1, 3), st.sampled_from(Heuristic))
    def check(sp, cap, heuristic):
        limits = ExplorationLimits(max_depth=default_limits(sp).max_depth, token_cap=cap)
        try:
            ref = reference_reachability_graph(sp, limits)
        except InvalidLimitsError:
            return
        if ref.stats.truncated:
            return
        alignment, stats = astar_align(sp, SearchConfig(heuristic=heuristic, token_cap=cap))
        if ref.final_index is None:
            assert alignment is None and stats.outcome is SearchOutcome.EXHAUSTED
            seen["unreachable"] += 1
        else:
            assert stats.outcome is SearchOutcome.OPTIMAL
            assert alignment.total_cost == oracle_shortest_cost(ref)
            seen["optimal", heuristic] += 1
            seen["cap_prunes"] += ref.stats.cap_prunes > 0

    check()
    assert seen["unreachable"] and seen["cap_prunes"], seen
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


def graph_of(net, acts, cap):
    sp = product_for_trace(net, Trace("g", acts))
    rg = build_reachability_graph(sp, ExplorationLimits(max_depth=40, token_cap=cap))
    return rg.nodes, tuple(rg.edges), rg.final_index, rg.stats


class TestMemoSharing:
    def test_memo_is_not_pickled(self):
        net = growing_net()
        graph_of(net, ("a", "a", "c"), 3)
        assert successor_memo(net, 3).table[0] is not None
        clone = pickle.loads(pickle.dumps(net))
        assert "_successor_memos" not in clone.__dict__
        assert "_successor_memos" in net.__dict__
        assert clone == net
        assert graph_of(clone, ("a", "a", "c"), 3) == graph_of(growing_net(), ("a", "a", "c"), 3)

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
