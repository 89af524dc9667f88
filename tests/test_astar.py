import math
import random

import pytest

from explicit_lp import marking_equation_heuristic
from flowalign.astar import Heuristic, SearchConfig, astar_align
from flowalign.errors import InvalidInputError
from flowalign.flow import Method, Outcome
from flowalign.generator import block_to_net, playout, random_block
from flowalign.petri import Trace
from flowalign.reachability import build_reachability_graph
from flowalign.sync_product import MoveKind, product_for_trace
from oracles import bellman_ford_to, oracle_shortest_cost


class TestAstarAlign:
    def test_toy_zero_heuristic_matches_lp(self, toy_product):
        alignment, stats = astar_align(toy_product, SearchConfig(heuristic=Heuristic.ZERO))
        assert stats.outcome is Outcome.OPTIMAL
        assert alignment.total_cost == 1
        assert alignment.method is Method.ASTAR

    def test_toy_marking_equation_matches_lp(self, toy_product):
        alignment, stats = astar_align(toy_product)
        assert alignment.total_cost == 1
        assert stats.heuristic_calls > 0

    def test_perfect_fit_costs_zero(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("fit", ("a", "d", "e")))
        alignment, stats = astar_align(sp)
        assert alignment.total_cost == 0
        assert all(m.kind is MoveKind.SYNC for m in alignment.moves)
        # with an exact heuristic the search walks essentially straight
        assert stats.expansions <= 2 * len(build_reachability_graph(sp).nodes)

    def test_microsecond_timeout(self, toy_product):
        alignment, stats = astar_align(toy_product, SearchConfig(timeout=1e-6))
        assert alignment is None
        assert stats.outcome is Outcome.OVER_BUDGET

    def test_unreachable_final_exhausts(self):
        from flowalign.petri import PetriNet

        net = PetriNet.build(
            ["p0", "p1", "px"], ["t"], [("p0", "t"), ("t", "p1")],
            {"t": "a"}, {"p0": 1}, {"px": 1},
        )
        sp = product_for_trace(net, Trace("x", ("a",)))
        alignment, stats = astar_align(sp)
        assert alignment is None
        assert stats.outcome is Outcome.INFEASIBLE

    def test_dead_end_is_dropped_not_expanded(self):
        """t needs a token on q that never comes, so the relaxation's
        solution at the start (fire t once) is spurious and no alignment
        exists; v leads to pd, where the relaxation is infeasible.  The
        search expands the start state only: the dead end leaves the
        queue unexpanded."""
        from flowalign.petri import PetriNet

        net = PetriNet.build(
            ["p0", "q", "pf", "pd"], ["t", "v"],
            [("p0", "t"), ("q", "t"), ("t", "q"), ("t", "pf"), ("p0", "v"), ("v", "pd")],
            {"t": "a", "v": "b"}, {"p0": 1}, {"pf": 1},
        )
        alignment, stats = astar_align(product_for_trace(net, Trace("x", ())))
        assert alignment is None and stats.outcome is Outcome.INFEASIBLE
        assert stats.heuristic_calls == 2 and stats.expansions == 1

    def test_projection_reproduces_trace(self, fig_cyclic):
        trace = Trace("t", ("a", "c", "b", "d", "b", "e"))
        sp = product_for_trace(fig_cyclic, trace)
        alignment, _ = astar_align(sp)
        assert alignment.total_cost == 1
        assert alignment.log_projection() == trace.activities

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidInputError):
            SearchConfig(timeout=0)


class TestMarkingEquationHeuristic:
    def test_zero_at_final_marking(self, toy_product):
        assert marking_equation_heuristic(toy_product, toy_product.final_marking) == 0

    def test_initial_value_bounded_by_true_cost(self, toy_product):
        h0 = marking_equation_heuristic(toy_product, toy_product.initial_marking)
        assert 0 <= h0 <= 1  # true optimum is 1

    def test_infeasible_relaxation_is_inf(self, toy_product):
        # No process token, the trace token at any position.
        width, n = len(toy_product.process_net.places), len(toy_product.trace_labels)
        for pos in range(n + 1):
            dead = (0,) * width + tuple(int(i == pos) for i in range(n + 1))
            assert marking_equation_heuristic(toy_product, dead) == math.inf

    def test_dimension_checked(self, toy_product):
        with pytest.raises(InvalidInputError):
            marking_equation_heuristic(toy_product, (1, 0))

    def test_trace_part_must_hold_exactly_one_token(self, toy_product):
        width = len(toy_product.process_net.places)
        model = toy_product.initial_marking[:width]
        assert marking_equation_heuristic(toy_product, model + (0, 1, 0, 0)) < math.inf
        for trace in ((0, 0, 0, 0), (1, 1, 0, 0), (0, 2, 0, 0), (2, -1, 0, 0), (1, 0, 0, 1)):
            with pytest.raises(InvalidInputError):
                marking_equation_heuristic(toy_product, model + trace)

    def test_admissible_along_optimal_path(self, fig_cyclic):
        sp = product_for_trace(fig_cyclic, Trace("t", ("a", "c", "b", "d", "b", "e")))
        rg = build_reachability_graph(sp)
        to_final = bellman_ford_to(rg, rg.final_index)
        for idx, marking in enumerate(rg.nodes):
            true_cost = to_final[idx]
            if true_cost is None:
                continue
            h = marking_equation_heuristic(sp, marking)
            assert h <= true_cost


class TestDijkstraEquivalence:
    def test_zero_heuristic_equals_oracle_on_small_models(self):
        rng = random.Random(99)
        for _ in range(8):
            block = random_block(rng, rng.randint(3, 7))
            net = block_to_net(block)
            clean = playout(block, rng)
            # shuffle the trace a little so costs are nonzero sometimes
            acts = list(clean)
            rng.shuffle(acts)
            sp = product_for_trace(net, Trace("t", tuple(acts)))
            rg = build_reachability_graph(sp)
            if rg.final_index is None or len(rg.nodes) > 500:
                continue
            alignment, stats = astar_align(sp, SearchConfig(heuristic=Heuristic.ZERO))
            assert stats.outcome is Outcome.OPTIMAL
            assert alignment.total_cost == oracle_shortest_cost(rg)
