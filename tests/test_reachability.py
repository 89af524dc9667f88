import dataclasses

import numpy as np
import pytest

import oracles
from conftest import make_fig_acyclic
from explicit_lp import NodeArcIncidence, check_tu_column_structure, node_arc_incidence, product_net
from flowalign.astar import astar_align
from flowalign.errors import InvalidLimitsError
from flowalign.flow import lp_align
from flowalign.petri import Trace, incidence_matrices
from flowalign.reachability import ExplorationLimits, build_reachability_graph
from flowalign.sync_product import product_for_trace
from oracles import edge_list_text, incidence_triplet_text


class TestBuildReachabilityGraph:
    def test_toy_graph_size(self, toy_rg):
        assert len(toy_rg.nodes) == 24
        assert len(toy_rg.edges) == 50
        assert toy_rg.final_index is not None
        assert not toy_rg.stats.truncated

    def test_cyclic_product_is_finite_and_reaches_final(self, fig_cyclic):
        sp = product_for_trace(fig_cyclic, Trace("t", ("a", "b", "e")))
        rg = build_reachability_graph(sp)
        assert not rg.stats.truncated
        assert rg.final_index is not None
        markings = set(rg.nodes)
        assert len(markings) == len(rg.nodes)  # dedup happened

    def test_edge_validity(self, toy_product, toy_rg):
        net = product_net(toy_product)
        tri = incidence_matrices(net)
        incidence, w_minus = np.array(tri.incidence), np.array(tri.w_minus)
        tidx = net.transition_index
        for e in toy_rg.edges:
            tail = np.array(toy_rg.nodes[e.tail])
            head = np.array(toy_rg.nodes[e.head])
            j = tidx[e.transition]
            assert np.array_equal(head, tail + incidence[:, j])
            assert (tail >= w_minus[:, j]).all()
            assert e.tail != e.head

    def test_determinism(self, toy_product):
        a = build_reachability_graph(toy_product)
        b = build_reachability_graph(toy_product)
        assert a.nodes == b.nodes
        assert a.edges == b.edges

    def test_node_budget_truncates_to_prefix(self, toy_product):
        full = build_reachability_graph(toy_product)
        cut = build_reachability_graph(
            toy_product, ExplorationLimits(max_nodes=10)
        )
        assert cut.stats.truncated
        assert len(cut.nodes) <= 10
        assert full.nodes[: len(cut.nodes)] == cut.nodes
        assert full.edges[: len(cut.edges)] == cut.edges

    def test_edge_budget_truncates_to_prefix(self, toy_product):
        full = build_reachability_graph(toy_product)
        cut = build_reachability_graph(
            toy_product, ExplorationLimits(max_edges=7)
        )
        assert cut.stats.truncated
        assert len(cut.edges) <= 7
        assert full.edges[: len(cut.edges)] == cut.edges

    def test_token_cap_raise_gives_supergraph(self):
        # Arc weights > 1 push a place to 2 tokens; cap 1 prunes that branch.
        from flowalign.petri import PetriNet

        net = PetriNet.build(
            places=["p0", "p1"],
            transitions=["u1", "u2"],
            arcs=[("p0", "u1"), ("u1", "p1", 2), ("p1", "u2", 2), ("u2", "p1")],
            labels={"u1": "a", "u2": "b"},
            initial={"p0": 1},
            final={"p1": 1},
        )
        low = build_reachability_graph(product_for_trace(net, Trace("t", ("a",)), token_cap=1))
        high = build_reachability_graph(product_for_trace(net, Trace("t", ("a",)), token_cap=4))
        assert low.stats.cap_prunes > 0
        low_edges = {(low.nodes[e.tail], e.transition, low.nodes[e.head]) for e in low.edges}
        high_edges = {(high.nodes[e.tail], e.transition, high.nodes[e.head]) for e in high.edges}
        assert set(low.nodes) <= set(high.nodes)
        assert low_edges <= high_edges

    @pytest.mark.parametrize("walk", [build_reachability_graph, lp_align, astar_align], ids=["rg", "lp", "astar"])
    def test_initial_marking_over_cap_rejected(self, walk, toy_product):
        # The product is built; the first walk of its state space raises.
        sp = dataclasses.replace(toy_product, token_cap=0)
        with pytest.raises(InvalidLimitsError):
            walk(sp)


class TestNodeArcIncidence:
    def test_one_plus_one_minus_per_column(self, toy_rg):
        b = node_arc_incidence(toy_rg)
        dense = np.array(oracles.dense(b))
        assert dense.shape == (24, 50)
        assert (dense.sum(axis=0) == 0).all()
        assert ((dense == 1).sum(axis=0) == 1).all()
        assert ((dense == -1).sum(axis=0) == 1).all()

    def test_plus_at_tail_minus_at_head(self, toy_rg):
        b = np.array(oracles.dense(node_arc_incidence(toy_rg)))
        for c, e in enumerate(toy_rg.edges):
            assert b[e.tail, c] == 1
            assert b[e.head, c] == -1

    def test_single_edge_graph(self):
        net = make_fig_acyclic()
        sp = product_for_trace(net, Trace("t", ()))
        rg = build_reachability_graph(sp, ExplorationLimits(max_nodes=2, max_edges=1))
        b = node_arc_incidence(rg)
        dense = np.array(oracles.dense(b))
        assert dense.shape == (2, 1)
        assert sorted(dense[:, 0].tolist()) == [-1, 1]

    def test_check_tu_column_structure(self, toy_rg):
        assert check_tu_column_structure(node_arc_incidence(toy_rg))

    def test_check_tu_rejects_bad_columns(self):
        assert not check_tu_column_structure(
            NodeArcIncidence(rows=2, cols=1, entries=((0, 0, 1), (1, 0, 1)))
        )
        assert not check_tu_column_structure(
            NodeArcIncidence(rows=2, cols=1, entries=((0, 0, 1),))
        )
        assert not check_tu_column_structure(
            NodeArcIncidence(rows=2, cols=1, entries=((0, 0, 2), (1, 0, -1)))
        )


def test_export_formats(toy_rg):
    text = edge_list_text(toy_rg)
    assert len(text.strip().splitlines()) == 50
    trip = incidence_triplet_text(node_arc_incidence(toy_rg))
    assert len(trip.strip().splitlines()) == 100
