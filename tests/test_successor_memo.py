"""The product state space composed from a per-model successor memo.

``sync_product.product_space`` composes each product state's successors
from the model's memo, and both engines explore it: the reachability graph
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
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus_models
from flowalign import reachability
from flowalign.astar import Heuristic, SearchConfig, SearchOutcome, astar_align
from flowalign.errors import InvalidLimitsError
from flowalign.petri import PetriNet, Trace, incidence_matrices, successor_memo, successors
from flowalign.reachability import ExplorationLimits, build_reachability_graph, default_limits
from flowalign.sync_product import incidence_rows, product_for_trace, product_space
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


def reachable_keys(step) -> list[int]:
    keys, queue = {0: None}, deque([0])
    while queue:
        for _, succ in step(queue.popleft()):
            if succ >= 0 and succ not in keys:
                keys[succ] = None
                queue.append(succ)
    return list(keys)


def test_space_successors_equal_product_firing():
    seen = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(products, st.integers(1, 3))
    def check(sp, cap):
        assert incidence_rows(sp) == incidence_matrices(sp.net).incidence.tolist()
        seen["empty_traces"] += not sp.trace_labels
        if any(v > cap for v in sp.initial_marking):
            with pytest.raises(InvalidLimitsError):
                product_space(sp, cap)
            seen["over_cap"] += 1
            return
        step, marking, final = product_space(sp, cap)
        keys = reachable_keys(step)
        assert marking(0) == sp.initial_marking
        assert marking(final) == sp.final_marking
        assert len({marking(k) for k in keys}) == len(keys)
        for key in keys:
            composed = step(key)
            fired = list(successors(sp.net, marking(key), cap))
            assert [(j, None if k < 0 else marking(k)) for j, k in composed] == fired
            seen["cap_prunes"] += any(k < 0 for _, k in composed)
            seen["self_loops"] += any(k == key for _, k in composed)

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
