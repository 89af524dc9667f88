import logging
from fractions import Fraction

import pytest

from flowalign.bench import RunConfig
from flowalign.errors import InvalidInputError
from flowalign.flow import Method, Outcome
from flowalign.model_io import EventLog
from flowalign.petri import Trace
from flowalign.selector import (
    SelectionThresholds,
    hybrid_align,
    select_method,
    token_replay_fitness,
)
from test_successor_memo import capped_net, growing_net

HYBRID = RunConfig(method="hybrid")


class TestTokenReplayFitness:
    def test_model_executions_are_perfectly_fit(self, fig_acyclic):
        log = EventLog((
            Trace("c1", ("a", "d", "e")),
            Trace("c2", ("a", "b", "c", "e")),
            Trace("c3", ("a", "c", "b", "e")),
        ))
        assert token_replay_fitness(fig_acyclic, log) == 1.0

    def test_single_deviating_trace(self, fig_acyclic):
        # Replaying <a, b, e>: e needs a token on the c-branch (1 missing),
        # and the c-branch input stays behind (1 remaining); 5 consumed,
        # 5 produced => 1/2(1 - 1/5) + 1/2(1 - 1/5) = 0.8.
        log = EventLog((Trace("c", ("a", "b", "e")),))
        assert token_replay_fitness(fig_acyclic, log) == pytest.approx(0.8, abs=1e-12)

    def test_empty_log_is_vacuously_fit(self, fig_acyclic, caplog):
        with caplog.at_level(logging.WARNING):
            assert token_replay_fitness(fig_acyclic, EventLog(())) == 1.0
        assert any("empty log" in r.message for r in caplog.records)

    def test_unknown_label_counts_missing_and_remaining(self, fig_acyclic):
        fit_known = token_replay_fitness(fig_acyclic, EventLog((Trace("c", ("a", "d", "e")),)))
        fit_unknown = token_replay_fitness(
            fig_acyclic, EventLog((Trace("c", ("a", "zz", "d", "e")),))
        )
        assert fit_unknown < fit_known

    def test_duplicating_the_log_leaves_fitness_unchanged(self, fig_acyclic):
        traces = (Trace("c", ("a", "b", "e")), Trace("d", ("a", "d", "e")))
        once = token_replay_fitness(fig_acyclic, EventLog(traces))
        twice = token_replay_fitness(fig_acyclic, EventLog(traces + traces))
        assert once == twice

    def test_clamped_to_unit_interval(self, fig_acyclic):
        log = EventLog((Trace("c", ("zz",) * 20),))
        assert 0.0 <= token_replay_fitness(fig_acyclic, log) <= 1.0


class TestSelectMethod:
    def test_long_high_fitness_trace_stays_with_astar(self):
        # L=100, F=0.99: expected deviations 1.0 < 1.5.
        assert select_method(100, 0.99) is Method.ASTAR

    def test_short_trace_fails_length_gate(self):
        assert select_method(10, 0.5) is Method.ASTAR

    def test_long_deviating_trace_selects_lp(self):
        assert select_method(30, 0.9) is Method.LP

    def test_boundaries_are_strict(self):
        th = SelectionThresholds()
        assert select_method(20, 0.0, th) is Method.ASTAR  # L == threshold
        assert select_method(21, Fraction(19, 20), th) is Method.ASTAR  # dev = 1.05
        assert select_method(21, Fraction(9, 10), th) is Method.LP  # dev = 2.1

    def test_custom_thresholds(self):
        th = SelectionThresholds(length_threshold=5, deviation_threshold=Fraction(1, 2))
        assert select_method(6, 0.8, th) is Method.LP

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            select_method(-1, 0.5)
        with pytest.raises(InvalidInputError):
            select_method(10, 1.5)
        with pytest.raises(InvalidInputError):
            SelectionThresholds(length_threshold=-1)


class TestHybridAlign:
    def test_short_trace_uses_astar(self, fig_acyclic):
        result = hybrid_align(fig_acyclic, Trace("t", ("a", "b", "e")), 0.5, HYBRID)
        assert result.method_chosen is Method.ASTAR
        assert result.alignment.total_cost == 1
        assert result.alignment.method is Method.ASTAR
        assert not result.fell_back_to_astar
        assert result.stats.method is Method.ASTAR and result.stats.expansions > 0

    def test_long_deviating_trace_uses_lp(self, fig_acyclic):
        acts = ("a",) + ("x",) * 58 + ("e",)
        result = hybrid_align(fig_acyclic, Trace("t", acts), 0.9, HYBRID)
        assert result.method_chosen is Method.LP
        assert result.alignment is not None
        assert result.alignment.method is Method.LP
        assert result.stats.method is Method.LP and result.stats.rg_nodes > 0
        assert result.selection_inputs[0] == 60

    def test_truncated_lp_falls_back_to_astar(self, fig_acyclic):
        acts = ("a",) + ("x",) * 58 + ("e",)
        result = hybrid_align(fig_acyclic, Trace("t", acts), 0.9, RunConfig(method="hybrid", max_nodes=2))
        assert result.method_chosen is Method.LP
        assert result.fell_back_to_astar
        assert result.alignment is not None
        assert result.alignment.method is Method.ASTAR

    def test_fallback_searches_under_the_same_token_cap(self):
        # Routed to flow, whose graph max_nodes refuses: A* then searches
        # the space the flow engine refused, under cap 2.
        trace = Trace("g", ("a", "c") * 11)
        result = hybrid_align(growing_net(), trace, 0, RunConfig(method="hybrid", max_nodes=3, token_cap=2))
        assert result.fell_back_to_astar and result.alignment.total_cost == 21

    def test_a_capped_flow_verdict_is_final(self):
        # A* would search the same capped product, so it is not run.
        route_to_flow = SelectionThresholds(length_threshold=0, deviation_threshold=0)
        cfg = RunConfig(method="hybrid", thresholds=route_to_flow, token_cap=1)
        result = hybrid_align(capped_net(), Trace("c", ("a", "a", "c")), 0, cfg)
        assert result.method_chosen is Method.LP and not result.fell_back_to_astar
        assert result.alignment is None and result.stats.outcome is Outcome.CAPPED
        assert [stats.method for _, stats in result.runs] == [Method.LP]

    def test_cost_matches_direct_methods(self, fig_cyclic):
        trace = Trace("t", ("a", "c", "b", "d", "b", "e"))
        result = hybrid_align(fig_cyclic, trace, 0.2, HYBRID)
        assert result.alignment.total_cost == 1
