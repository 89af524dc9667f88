import math
import pickle
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import INSURANCE_TRACE
from flowalign.astar import SearchOutcome, astar_align, marking_equation_heuristic
from flowalign.errors import InvalidInputError
from flowalign.flow import SolveStatus, lp_align
from flowalign.model_io import parse_pnml
from flowalign.petri import PetriNet, Trace, build_trace_model
from flowalign.reachability import build_reachability_graph
from flowalign.sync_product import (
    GAP,
    CostConfig,
    MoveKind,
    cost_vector,
    product_for_trace,
    product_to_pnml,
)

EPS = Fraction(1, 10**6)


class TestBuildSyncProduct:
    def test_toy_move_counts(self, toy_product):
        counts = toy_product.counts()
        assert counts[MoveKind.SYNC] == 3
        assert counts[MoveKind.MODEL] == 5
        assert counts[MoveKind.MODEL_TAU] == 0
        assert counts[MoveKind.LOG] == 3
        assert len(toy_product.moves) == 11

    def test_insurance_move_counts(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        counts = sp.counts()
        assert counts[MoveKind.SYNC] == 5
        assert counts[MoveKind.MODEL] + counts[MoveKind.MODEL_TAU] == 10
        assert counts[MoveKind.MODEL_TAU] == 2
        assert counts[MoveKind.LOG] == 5
        assert len(sp.moves) == 20

    def test_empty_trace_product(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("empty", ()))
        counts = sp.counts()
        assert counts[MoveKind.SYNC] == 0
        assert counts[MoveKind.LOG] == 0
        assert counts[MoveKind.MODEL] == 5

    def test_markings_are_component_concatenation(self, fig_acyclic, toy_product):
        n = len(toy_product.process_net.places)
        assert toy_product.initial_marking[:n] == fig_acyclic.initial_marking
        assert toy_product.initial_marking[n:] == (1, 0, 0, 0)
        assert toy_product.final_marking[:n] == fig_acyclic.final_marking
        assert toy_product.final_marking[n:] == (0, 0, 0, 1)

    def test_id_collision_resolved_by_priming(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("t", ("a", "b", "e")))
        # Trace transitions t1..t3 collide with model ids and get primes.
        assert "(t1,t1')" in {m.move_id for m in sp.moves}
        assert set(sp.net.places[6:]) == {"p0'", "p1'", "p2'", "p3'"}

    def test_sync_move_arcs_are_union_of_constituents(self, fig_acyclic, toy_product):
        tm = build_trace_model(Trace("toy", ("a", "b", "e")))
        arcs = set((s, t) for s, t, _ in toy_product.net.arcs)
        for move in toy_product.moves:
            expect = set()
            if move.process_transition:
                for s, t, _ in fig_acyclic.arcs:
                    if s == move.process_transition:
                        expect.add((move.move_id, t))
                    if t == move.process_transition:
                        expect.add((s, move.move_id))
            if move.trace_transition:
                raw = move.trace_transition.rstrip("'")
                for s, t, _ in tm.arcs:
                    if s == raw:
                        expect.add((move.move_id, t + "'"))
                    if t == raw:
                        expect.add((s + "'", move.move_id))
            got = {(s, t) for s, t in arcs if s == move.move_id or t == move.move_id}
            assert got == expect, move.move_id

    def test_duplicate_labels_give_full_cross_product(self):
        # k model transitions labeled 'a' and j occurrences in the trace
        # must yield k*j synchronous moves.
        net = PetriNet.build(
            places=["p0", "p1"],
            transitions=["u1", "u2", "u3"],
            arcs=[("p0", "u1"), ("u1", "p1"), ("p0", "u2"), ("u2", "p1"), ("p0", "u3"), ("u3", "p1")],
            labels={"u1": "a", "u2": "a", "u3": "b"},
            initial={"p0": 1},
            final={"p1": 1},
        )
        sp = product_for_trace(net, Trace("t", ("a", "b", "a")))
        assert sp.counts()[MoveKind.SYNC] == 2 * 2 + 1 * 1

    def test_net_is_built_only_when_read(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        assert "net" not in vars(sp)
        build_reachability_graph(sp)
        assert "net" not in vars(sp)
        assert lp_align(sp)[1].outcome is SolveStatus.OPTIMAL
        assert astar_align(sp)[1].outcome is SearchOutcome.OPTIMAL
        assert 0 < marking_equation_heuristic(sp, sp.initial_marking) < math.inf
        assert "net" not in vars(sp)
        net = sp.net
        assert vars(sp)["net"] is net and sp.net is net
        assert net.transitions == tuple(m.move_id for m in sp.moves)
        assert (net.initial_marking, net.final_marking) == (sp.initial_marking, sp.final_marking)
        clone = pickle.loads(pickle.dumps(sp))
        assert clone == sp and clone.net == net

    def test_move_invariants(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        for m in sp.moves:
            if m.kind is MoveKind.SYNC:
                assert m.process_transition and m.trace_transition
                assert m.label_pair[0] == m.label_pair[1] != GAP
                assert m.cost == 0
            elif m.kind in (MoveKind.MODEL, MoveKind.MODEL_TAU):
                assert m.trace_transition is None
                assert m.label_pair[1] == GAP
                assert m.cost == (EPS if m.kind is MoveKind.MODEL_TAU else 1)
            else:
                assert m.process_transition is None
                assert m.label_pair[0] == GAP
                assert m.cost == 1

    def test_model_moves_are_built_once_per_cost_config(self, insurance):
        def model_moves(sp):
            return [m for m in sp.moves if m.kind in (MoveKind.MODEL, MoveKind.MODEL_TAU)]

        one = product_for_trace(insurance, INSURANCE_TRACE)
        two = product_for_trace(insurance, Trace("other", ("a",)))
        assert all(a is b for a, b in zip(model_moves(one), model_moves(two), strict=True))
        priced = product_for_trace(insurance, INSURANCE_TRACE, CostConfig(deviation_cost=Fraction(2)))
        expected = [replace(m, cost=2) if m.kind is MoveKind.MODEL else m for m in model_moves(one)]
        assert model_moves(priced) == expected
        syncs = [m for m in one.moves + two.moves if m.kind is MoveKind.SYNC]
        assert len(syncs) > 1 and len({id(m.cost) for m in syncs}) == 1
        assert "_model_moves" in vars(insurance)
        clone = pickle.loads(pickle.dumps(insurance))
        assert "_model_moves" not in vars(clone) and clone == insurance
        assert product_for_trace(clone, INSURANCE_TRACE) == one


class TestCostVector:
    def test_insurance_matches_published_vector(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        expected = tuple(
            Fraction(v) if v != "e" else EPS
            for v in (0, 0, 0, 0, 0, 1, 1, 1, 1, "e", 1, 1, 1, "e", 1, 1, 1, 1, 1, 1)
        )
        assert cost_vector(sp) == expected

    def test_toy_vector_has_no_epsilon(self, toy_product):
        vec = cost_vector(toy_product)
        assert sorted(vec) == [Fraction(0)] * 3 + [Fraction(1)] * 8

    def test_product_without_silent_transitions_has_no_epsilon(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("t", ("a",)))
        assert all(c in (0, 1) for c in cost_vector(sp))


class TestCostConfig:
    def test_defaults(self):
        cfg = CostConfig()
        assert cfg.tau_cost == EPS
        assert cfg.deviation_cost == 1

    def test_order_enforced(self):
        with pytest.raises(InvalidInputError):
            CostConfig(tau_cost=Fraction(2), deviation_cost=Fraction(1))
        with pytest.raises(InvalidInputError):
            CostConfig(tau_cost=Fraction(0))

    def test_custom_costs_flow_through(self, fig_acyclic):
        cfg = CostConfig(tau_cost=Fraction(1, 100), deviation_cost=Fraction(5))
        sp = product_for_trace(fig_acyclic, Trace("t", ("a",)), cfg)
        assert max(cost_vector(sp)) == 5


def test_product_debug_pnml_round_trips_structure(toy_product):
    data = product_to_pnml(toy_product)
    assert b"cost" in data and b'kind="sync"' in data
    net = parse_pnml(data)
    assert len(net.transitions) == len(toy_product.moves)
