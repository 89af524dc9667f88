import itertools
import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import INSURANCE_TRACE
from flowalign.errors import (
    InvalidInputError,
    UnreachableFinalError,
)
from flowalign.flow import (
    FlowProblem,
    FlowSolution,
    SolveStatus,
    assemble_flow_problem,
    build_milp_matrices,
    extract_alignment,
    find_non_tu_witness,
    lp_align,
    move_table,
    _col_triple_blocks,
    alignment_to_dict,
    solve_min_cost_unit_flow,
    verify_integrality,
)
from flowalign.petri import PetriNet, Trace, fire
from flowalign.reachability import (
    ExplorationLimits,
    NodeArcIncidence,
    build_reachability_graph,
    check_tu_column_structure,
    node_arc_incidence,
)
from flowalign.sync_product import MoveKind, product_for_trace
from oracles import oracle_shortest_cost
from test_heuristic_lp import first_edit_cycle

EPS = Fraction(1, 10**6)
GOLDEN = Path(__file__).parent / "data" / "flow_first_edit_cycle.json"


class TestAssembleFlowProblem:
    def test_balance_endpoints(self, toy_rg):
        fp = assemble_flow_problem(toy_rg)
        assert fp.balance[toy_rg.initial_index] == 1
        assert fp.balance[toy_rg.final_index] == -1
        assert sum(abs(v) for v in fp.balance) == 2
        # initial node is [p1, p0']; final node is [p6, p3']
        assert toy_rg.nodes[toy_rg.initial_index] == (1, 0, 0, 0, 0, 0, 1, 0, 0, 0)
        assert toy_rg.nodes[toy_rg.final_index] == (0, 0, 0, 0, 0, 1, 0, 0, 0, 1)

    def test_degenerate_initial_equals_final(self):
        # Empty trace against a single marked place: nothing to move.
        net = PetriNet.build(["p"], [], [], {}, {"p": 1}, {"p": 1})
        sp = product_for_trace(net, Trace("e", ()))
        rg = build_reachability_graph(sp)
        fp = assemble_flow_problem(rg)
        assert all(v == 0 for v in fp.balance)
        sol = solve_min_cost_unit_flow(fp)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0
        alignment = extract_alignment(rg, sp, sol)
        assert alignment.moves == ()

    def test_truncated_graph_is_distinguished(self, toy_product):
        rg = build_reachability_graph(toy_product, ExplorationLimits(max_depth=1))
        with pytest.raises(UnreachableFinalError) as err:
            assemble_flow_problem(rg)
        assert err.value.reason == "truncated"

    def test_genuinely_unreachable(self):
        # Final place is never produced by any transition.
        net = PetriNet.build(
            ["p0", "p1", "px"], ["t"], [("p0", "t"), ("t", "p1")],
            {"t": "a"}, {"p0": 1}, {"px": 1},
        )
        sp = product_for_trace(net, Trace("x", ()))
        rg = build_reachability_graph(sp)
        with pytest.raises(UnreachableFinalError) as err:
            assemble_flow_problem(rg)
        assert err.value.reason == "unreachable"


class TestSolveMinCostUnitFlow:
    def test_toy_objective_is_one(self, toy_rg):
        sol = solve_min_cost_unit_flow(assemble_flow_problem(toy_rg))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 1

    def test_perfectly_fitting_trace_costs_zero(self, fig_acyclic):
        for acts in (("a", "d", "e"), ("a", "b", "c", "e"), ("a", "c", "b", "e")):
            sp = product_for_trace(fig_acyclic, Trace("fit", acts))
            alignment, stats = lp_align(sp)
            assert alignment.total_cost == 0
            assert alignment.num_sync == len(acts)

    def test_cyclic_model_single_deviation(self, fig_cyclic):
        sp = product_for_trace(fig_cyclic, Trace("t", ("a", "c", "b", "d", "b", "e")))
        alignment, stats = lp_align(sp)
        assert alignment.total_cost == 1
        rg = build_reachability_graph(sp)
        assert oracle_shortest_cost(rg) == 1

    def test_infeasible_when_no_path(self):
        net = PetriNet.build(
            ["p0", "p1", "px"], ["t"], [("p0", "t"), ("t", "p1")],
            {"t": "a"}, {"p0": 1}, {"px": 1},
        )
        sp = product_for_trace(net, Trace("x", ()))
        alignment, stats = lp_align(sp)
        assert alignment is None
        assert stats.outcome is SolveStatus.INFEASIBLE

    def test_solution_is_deterministic(self, toy_rg):
        fp = assemble_flow_problem(toy_rg)
        assert solve_min_cost_unit_flow(fp).x == solve_min_cost_unit_flow(fp).x

    def test_negative_cost_rejected(self, toy_rg):
        fp = assemble_flow_problem(toy_rg)
        costs = tuple(e.cost for e in toy_rg.edges)
        bad = FlowProblem.from_incidence(
            incidence=node_arc_incidence(toy_rg),
            costs=(Fraction(-1),) + costs[1:],
            source=fp.source,
            sink=fp.sink,
        )
        with pytest.raises(InvalidInputError):
            solve_min_cost_unit_flow(bad)

    def test_malformed_incidence_rejected_by_solver_and_check(self):
        # Column 0 has two +1 entries; column 1 has a stray 5.
        bad = NodeArcIncidence(
            3, 2, ((0, 0, 1), (1, 0, -1), (2, 0, 1), (1, 1, 1), (2, 1, -1), (0, 1, 5))
        )
        assert not check_tu_column_structure(bad)
        with pytest.raises(InvalidInputError):
            fp = FlowProblem.from_incidence(
                incidence=bad, costs=(Fraction(1), Fraction(1)), source=0, sink=2
            )
            solve_min_cost_unit_flow(fp)

    def test_solution_is_zero_one_ints(self, toy_rg):
        sol = solve_min_cost_unit_flow(assemble_flow_problem(toy_rg))
        assert set(map(type, sol.x)) == {int}
        assert set(sol.x) == {0, 1}
        assert type(sol.objective) is Fraction


def test_first_edit_cycle_matches_golden():
    """Costs and moves recorded for all 12 corpus models: the engine returns
    the lexicographically smallest optimal path under edge-index order."""
    golden = json.loads(GOLDEN.read_text())
    seen = {}
    for case, sp in first_edit_cycle({case.split("-")[0] for case in golden}):
        alignment, _ = lp_align(sp)
        seen[case] = [str(alignment.total_cost), [m.move_id for m in alignment.moves]]
    assert seen == golden


class TestVerifyIntegrality:
    def test_exact_toy_solution_at_tolerance_zero(self, toy_rg):
        sol = solve_min_cost_unit_flow(assemble_flow_problem(toy_rg))
        assert verify_integrality(sol, Fraction(0))

    def test_fractional_vector_fails(self):
        sol = FlowSolution(
            x=(Fraction(1, 2), Fraction(1, 2)), objective=Fraction(1), status=SolveStatus.OPTIMAL
        )
        assert not verify_integrality(sol, Fraction(0))
        assert verify_integrality(sol, Fraction(1, 2))


class TestExtractAlignment:
    def test_toy_alignment_is_one_of_the_two_optima(self, toy_product, toy_rg):
        sol = solve_min_cost_unit_flow(assemble_flow_problem(toy_rg))
        alignment = extract_alignment(toy_rg, toy_product, sol)
        seq = tuple((m.kind, m.label_pair[0]) for m in alignment.moves)
        optima = {
            (
                (MoveKind.SYNC, "a"),
                (MoveKind.SYNC, "b"),
                (MoveKind.MODEL, "c"),
                (MoveKind.SYNC, "e"),
            ),
            (
                (MoveKind.SYNC, "a"),
                (MoveKind.MODEL, "c"),
                (MoveKind.SYNC, "b"),
                (MoveKind.SYNC, "e"),
            ),
        }
        assert seq in optima
        assert alignment.total_cost == sol.objective == 1

    def test_zero_cost_alignment_projects_to_trace(self, fig_acyclic):
        trace = Trace("fit", ("a", "c", "b", "e"))
        sp = product_for_trace(fig_acyclic, trace)
        alignment, _ = lp_align(sp)
        assert all(m.kind is MoveKind.SYNC for m in alignment.moves)
        assert alignment.log_projection() == trace.activities

    def test_empty_trace_alignment_is_shortest_model_run(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("e", ()))
        alignment, _ = lp_align(sp)
        assert alignment.total_cost == 3
        assert [m.kind for m in alignment.moves] == [MoveKind.MODEL] * 3
        assert alignment.model_projection() == ("t1", "t4", "t5")

    def test_model_projection_is_a_firing_sequence(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("t", ("a", "b", "e")))
        alignment, _ = lp_align(sp)
        m = fig_acyclic.initial_marking
        for t in alignment.model_projection():
            m = fire(fig_acyclic, m, t)
        assert m == fig_acyclic.final_marking

    def test_serializations(self, toy_product, toy_rg):
        sol = solve_min_cost_unit_flow(assemble_flow_problem(toy_rg))
        alignment = extract_alignment(toy_rg, toy_product, sol)
        table = move_table(alignment)
        assert table.startswith("kind\tmodel\ttrace\tcost")
        assert "total\t\t\t1" in table
        d = alignment_to_dict(alignment)
        assert d["total_cost"] == "1"
        assert len(d["moves"]) == 4


class TestMilpMatrices:
    def test_toy_dimensions(self, toy_product):
        mm = build_milp_matrices(toy_product, 6)
        assert mm.a_eq.shape == (10 + 6, 72)
        assert mm.a_ub.shape == (60 + 5, 72)
        assert mm.num_vars == 6 * 11 + 6 == 72

    def test_horizon_one_has_no_monotonicity_rows(self, toy_product):
        mm = build_milp_matrices(toy_product, 1)
        assert mm.a_ub.shape[0] == 10  # prefix rows only

    def test_insurance_dimensions(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        mm = build_milp_matrices(sp, 7)
        assert mm.a_eq.shape[0] == 18 + 7
        assert mm.a_ub.shape[0] == 126 + 6
        assert mm.num_vars == 7 * 20 + 7 == 147

    def test_prefix_block_stacks_incidence_copies(self, toy_product):
        from flowalign.petri import incidence_matrices

        mm = build_milp_matrices(toy_product, 3)
        inc = incidence_matrices(toy_product.net).incidence
        n_p, n_t = inc.shape
        for k in range(3):
            block = mm.a_ub[k * n_p : (k + 1) * n_p]
            for step in range(3):
                sub = block[:, step * n_t : (step + 1) * n_t]
                if step <= k:
                    assert np.array_equal(sub, -inc)
                else:
                    assert not sub.any()

    def test_invalid_horizon(self, toy_product):
        with pytest.raises(InvalidInputError):
            build_milp_matrices(toy_product, 0)


class TestFindNonTuWitness:
    def test_milp_combined_matrix_has_witness(self, toy_product):
        mm = build_milp_matrices(toy_product, 6)
        w = find_non_tu_witness(mm.combined_matrix(), order_limit=3, budget_s=10.0)
        assert w is not None
        assert abs(w.determinant) >= 2
        sub = mm.combined_matrix()[np.ix_(w.rows, w.cols)]
        assert abs(round(float(np.linalg.det(sub)))) == abs(w.determinant)

    def test_identity_has_no_witness(self):
        assert find_non_tu_witness(np.eye(2, dtype=np.int64), 2, 5.0) is None

    def test_rg_incidence_has_no_witness(self, toy_rg):
        dense = node_arc_incidence(toy_rg).to_dense()
        assert find_non_tu_witness(dense, order_limit=3, budget_s=30.0) is None

    def test_scan_honours_its_budget(self, fig_acyclic):
        sp = product_for_trace(fig_acyclic, Trace("t", ("a", "b", "c", "d", "e", "a")))
        dense = node_arc_incidence(build_reachability_graph(sp)).to_dense()
        assert dense.shape == (42, 93)  # a full scan takes over a minute
        t0 = time.monotonic()
        assert find_non_tu_witness(dense, order_limit=3, budget_s=0.05) is None
        assert time.monotonic() - t0 < 0.05 + 0.1

    def test_column_triples_in_lexicographic_order(self):
        for cols in (3, 4, 17, 93):
            got = np.concatenate(list(_col_triple_blocks(cols, block=500)))
            assert got.tolist() == [list(t) for t in itertools.combinations(range(cols), 3)]

    def test_known_bad_matrix(self):
        m = np.array([[1, 1], [-1, 1]], dtype=np.int64)
        w = find_non_tu_witness(m, 2, 5.0)
        assert w is not None and abs(w.determinant) == 2

    def test_order4_witness_found_by_sampling(self):
        # Sign-flipped 4-cycle: every proper submatrix is fine, but the
        # full 4x4 determinant is 2, so only order-4 sampling can find it.
        m = np.array(
            [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [-1, 0, 0, 1]], dtype=np.int64
        )
        assert find_non_tu_witness(m, 3, 5.0) is None
        w = find_non_tu_witness(m, 4, 5.0)
        assert w is not None
        assert abs(w.determinant) == 2


class TestAlignmentInvariants:
    def test_cost_decomposition_with_taus(self, insurance):
        trace = Trace("t", ("a", "d", "a", "e", "f"))
        sp = product_for_trace(insurance, trace)
        alignment, _ = lp_align(sp)
        assert alignment.total_cost == (
            (alignment.num_model + alignment.num_log) * 1 + alignment.num_tau * EPS
        )
        assert alignment.log_projection() == trace.activities
