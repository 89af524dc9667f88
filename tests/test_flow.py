import json
import pickle
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import INSURANCE_TRACE
from explicit_lp import (
    NodeArcIncidence,
    TuWitness,
    build_milp_matrices,
    check_tu_column_structure,
    det_int,
    fire,
    flow_problem,
    flow_x,
    node_arc_incidence,
    product_net,
    tu_certificate,
    verify_integrality,
)
from flowalign import sync_product
from flowalign.bench import RunConfig, run_instance
from flowalign.errors import (
    InternalInvariantError,
    InvalidInputError,
    UnreachableFinalError,
)
from flowalign.flow import (
    Outcome,
    assemble_flow_problem,
    extract_alignment,
    lp_align,
    move_table,
    alignment_to_dict,
    solve_min_cost_unit_flow,
)
from flowalign.petri import PetriNet, Trace
from flowalign.reachability import ExplorationLimits, build_reachability_graph
from flowalign.selector import SelectionThresholds
from flowalign.sync_product import MoveKind, product_for_trace
from oracles import balance, brute_force_tu, dense, fraction_det, oracle_shortest_cost, row_classes_hold
from test_heuristic_lp import first_edit_cycle

EPS = Fraction(1, 10**6)
GOLDEN = Path(__file__).parent / "data" / "flow_first_edit_cycle.json"


class TestAssembleFlowProblem:
    def test_balance_endpoints(self, toy_rg):
        fp = assemble_flow_problem(toy_rg)
        assert balance(fp)[toy_rg.initial_index] == 1
        assert balance(fp)[toy_rg.final_index] == -1
        assert sum(abs(v) for v in balance(fp)) == 2
        # initial node is [p1, p0']; final node is [p6, p3']
        assert toy_rg.nodes[toy_rg.initial_index] == (1, 0, 0, 0, 0, 0, 1, 0, 0, 0)
        assert toy_rg.nodes[toy_rg.final_index] == (0, 0, 0, 0, 0, 1, 0, 0, 0, 1)

    def test_degenerate_initial_equals_final(self):
        # Empty trace against a single marked place: nothing to move.
        net = PetriNet.build(["p"], [], [], {}, {"p": 1}, {"p": 1})
        sp = product_for_trace(net, Trace("e", ()))
        rg = build_reachability_graph(sp)
        fp = assemble_flow_problem(rg)
        assert all(v == 0 for v in balance(fp))
        sol = solve_min_cost_unit_flow(fp)
        assert sol.status is Outcome.OPTIMAL
        assert sol.objective == 0
        alignment = extract_alignment(rg, sp, sol)
        assert alignment.moves == ()

    def test_truncated_graph_is_distinguished(self, toy_product):
        rg = build_reachability_graph(toy_product, ExplorationLimits(max_nodes=2))
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
        assert sol.status is Outcome.OPTIMAL
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
        assert stats.outcome is Outcome.INFEASIBLE

    def test_solution_is_deterministic(self, toy_rg):
        fp = assemble_flow_problem(toy_rg)
        assert flow_x(solve_min_cost_unit_flow(fp)) == flow_x(solve_min_cost_unit_flow(fp))

    def test_negative_cost_rejected(self, toy_rg):
        fp = assemble_flow_problem(toy_rg)
        costs = tuple(e.cost for e in toy_rg.edges)
        bad = flow_problem(
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
            fp = flow_problem(
                incidence=bad, costs=(Fraction(1), Fraction(1)), source=0, sink=2
            )
            solve_min_cost_unit_flow(fp)

    def test_solution_is_zero_one_ints(self, toy_rg):
        sol = solve_min_cost_unit_flow(assemble_flow_problem(toy_rg))
        assert set(map(type, flow_x(sol))) == {int}
        assert set(flow_x(sol)) == {0, 1}
        assert type(sol.objective) is Fraction


def test_corpus_alignments_total_and_count_their_moves(corpus):
    """Alignments total their costs and count their kinds from move indices;
    the moves, made on read, agree under both engines."""
    checked = 0
    for inst in corpus:
        for alignment in (inst.lp_alignment, inst.astar_alignment):
            if alignment is None:
                continue
            assert alignment.total_cost == sum((m.cost for m in alignment.moves), Fraction(0))
            kinds = Counter(m.kind for m in alignment.moves)
            counts = (alignment.num_sync, alignment.num_model, alignment.num_tau, alignment.num_log)
            assert counts == tuple(kinds[kind] for kind in MoveKind)
            checked += 1
    assert checked == 2 * len(corpus)


@pytest.mark.parametrize(
    "cfg, fitness",
    [
        (RunConfig(method="lp"), Fraction(1)),
        (RunConfig(method="astar"), Fraction(1)),
        (RunConfig(method="hybrid"), Fraction(1)),  # routed to A*
        (RunConfig(method="hybrid", thresholds=SelectionThresholds(0, 0)), Fraction(0)),  # routed to the flow engine
    ],
    ids=["lp", "astar", "hybrid A*", "hybrid flow"],
)
def test_run_instance_makes_no_move(cfg, fitness, monkeypatch):
    """A run reads costs, never moves: no :class:`SyncMove` is made, not
    even a model move, on a net whose caches start empty."""
    made = []

    class CountingMove(sync_product.SyncMove):
        def __init__(self, *args):
            made.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(sync_product, "SyncMove", CountingMove)
    cases = list(first_edit_cycle({"m03"}))
    net = pickle.loads(pickle.dumps(cases[0][1].process_net))
    for _, sp in cases:
        rec = run_instance(net, Trace("c", sp.trace_labels), cfg, fitness=fitness)
        assert Outcome.OPTIMAL.value in (rec.lp_outcome, rec.astar_outcome)
    assert made == []
    alignment, _ = lp_align(product_for_trace(net, Trace("c", cases[1][1].trace_labels)))
    moves = alignment.moves
    assert moves and set(made) >= {m.move_id for m in moves}  # the patch does count what is made


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
        assert verify_integrality(flow_x(sol), Fraction(0))

    def test_fractional_vector_fails(self):
        # The solver returns paths, whose flow is 0/1 by construction, so
        # the fractional point is written out by hand.
        x = (Fraction(1, 2), Fraction(1, 2))
        assert not verify_integrality(x, Fraction(0))
        assert verify_integrality(x, Fraction(1, 2))


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

    def test_path_carries_the_flow(self, toy_rg):
        sol = solve_min_cost_unit_flow(assemble_flow_problem(toy_rg))
        assert sol.num_edges == len(toy_rg.edges)
        assert [e for e, v in enumerate(flow_x(sol)) if v] == sorted(sol.path)
        assert [toy_rg.tails[e] for e in sol.path[1:]] == [toy_rg.heads[e] for e in sol.path[:-1]]

    def test_broken_paths_are_rejected(self, toy_product, toy_rg):
        sol = solve_min_cost_unit_flow(assemble_flow_problem(toy_rg))
        broken = {
            "single path": replace(sol, path=sol.path[1:]),
            "initial-to-final": replace(sol, path=sol.path[:-1]),
            "disagrees": replace(sol, objective=sol.objective + 1),
        }
        for message, bad in broken.items():
            with pytest.raises(InternalInvariantError, match=message):
                extract_alignment(toy_rg, toy_product, bad)

    def test_path_through_a_node_twice_is_rejected(self, fig_cyclic):
        sp = product_for_trace(fig_cyclic, Trace("t", ("a", "c", "b", "d", "b", "e")))
        rg = build_reachability_graph(sp)
        sol = solve_min_cost_unit_flow(assemble_flow_problem(rg))
        out = {}
        for e, t in enumerate(rg.tails):
            out.setdefault(t, []).append(e)
        for k, e in enumerate(sol.path):
            cycle = _cycle_through(rg, out, rg.tails[e])
            if cycle:
                looped = replace(sol, path=sol.path[:k] + cycle + sol.path[k:])
                with pytest.raises(InternalInvariantError, match="two chosen edges leave"):
                    extract_alignment(rg, sp, looped)
                return
        pytest.fail("no cycle on the optimal path")

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


def _cycle_through(rg, out, node) -> tuple[int, ...]:
    """The edges of a shortest cycle through ``node``, or ``()``."""
    into = {node: None}
    queue = [node]
    for v in queue:
        for e in out.get(v, ()):
            h = rg.heads[e]
            if h == node:
                cycle = [e]
                while into[rg.tails[cycle[-1]]] is not None:
                    cycle.append(into[rg.tails[cycle[-1]]])
                return tuple(reversed(cycle))
            if h not in into:
                into[h] = e
                queue.append(h)
    return ()


class TestMilpMatrices:
    def test_toy_dimensions(self, toy_product):
        mm = build_milp_matrices(toy_product, 6)
        assert np.array(mm.a_eq).shape == (10 + 6, 72)
        assert np.array(mm.a_ub).shape == (60 + 5, 72)
        assert mm.num_vars == 6 * 11 + 6 == 72

    def test_horizon_one_has_no_monotonicity_rows(self, toy_product):
        mm = build_milp_matrices(toy_product, 1)
        assert np.array(mm.a_ub).shape[0] == 10  # prefix rows only

    def test_insurance_dimensions(self, insurance):
        sp = product_for_trace(insurance, INSURANCE_TRACE)
        mm = build_milp_matrices(sp, 7)
        assert np.array(mm.a_eq).shape[0] == 18 + 7
        assert np.array(mm.a_ub).shape[0] == 126 + 6
        assert mm.num_vars == 7 * 20 + 7 == 147

    def test_prefix_block_stacks_incidence_copies(self, toy_product):
        from flowalign.petri import incidence_matrices

        mm = build_milp_matrices(toy_product, 3)
        inc = np.array(incidence_matrices(product_net(toy_product)).incidence)
        n_p, n_t = inc.shape
        for k in range(3):
            block = np.array(mm.a_ub)[k * n_p : (k + 1) * n_p]
            for step in range(3):
                sub = block[:, step * n_t : (step + 1) * n_t]
                if step <= k:
                    assert np.array_equal(sub, -inc)
                else:
                    assert not sub.any()

    def test_invalid_horizon(self, toy_product):
        with pytest.raises(InvalidInputError):
            build_milp_matrices(toy_product, 0)


def _triplets(matrix: list[list[int]]) -> NodeArcIncidence:
    entries = tuple(
        (i, j, v) for i, row in enumerate(matrix) for j, v in enumerate(row) if v
    )
    return NodeArcIncidence(len(matrix), len(matrix[0]), entries)


def _assert_cycle_witness(b: NodeArcIncidence, w: TuWitness) -> None:
    """``w`` picks a square cycle submatrix whose determinant is ±2."""
    assert isinstance(w, TuWitness)
    assert list(w.rows) == sorted(set(w.rows)) and list(w.cols) == sorted(set(w.cols))
    assert len(w.rows) == len(w.cols) >= 2
    sub = np.array(dense(b))[np.ix_(w.rows, w.cols)]
    # Two nonzeros in every row and column, all on one connected cycle.
    assert (np.count_nonzero(sub, axis=0) == 2).all()
    assert (np.count_nonzero(sub, axis=1) == 2).all()
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for j in np.flatnonzero(sub[i]):
            for k in np.flatnonzero(sub[:, j]):
                if int(k) not in reached:
                    reached.add(int(k))
                    frontier.append(int(k))
    assert len(reached) == len(w.rows)
    assert abs(w.determinant) == 2
    assert det_int(sub.tolist()) == w.determinant
    assert round(float(np.linalg.det(sub))) == w.determinant


class TestFindNonTuWitness:
    """The certificate's verdicts, and the MILP's constructed witness."""

    def test_milp_combined_matrix_has_witness(self, toy_product):
        mm = build_milp_matrices(toy_product, 6)
        w = mm.witness()
        assert w == ((1, 10), (0, 1), 2)
        sub = np.array(mm.combined_matrix())[np.ix_(w.rows, w.cols)]
        assert round(float(np.linalg.det(sub))) == w.determinant
        assert det_int(sub.tolist()) == w.determinant

    def test_milp_without_a_place_of_both_signs_has_no_witness(self):
        net = PetriNet.build(
            ["p1", "p2"], ["t1"], [("p1", "t1"), ("t1", "p2")], {"t1": "a"}, {"p1": 1}, {"p2": 1}
        )
        mm = build_milp_matrices(product_for_trace(net, Trace("e", ())), 2)
        assert mm.witness() is None

    def test_identity_has_no_witness(self):
        b = _triplets([[1, 0], [0, 1]])
        classes = tu_certificate(b)
        assert not isinstance(classes, TuWitness)
        assert row_classes_hold(b, classes)

    def test_rg_incidence_has_no_witness(self, toy_rg):
        b = node_arc_incidence(toy_rg)
        classes = tu_certificate(b)
        assert classes == (0,) * len(toy_rg.nodes)
        assert row_classes_hold(b, classes)

    def test_known_bad_matrix(self):
        b = _triplets([[1, 1], [-1, 1]])
        w = tu_certificate(b)
        _assert_cycle_witness(b, w)
        assert w == ((0, 1), (0, 1), 2)

    def test_order4_witness_is_the_full_matrix(self):
        # Sign-flipped 4-cycle: every proper submatrix is fine, but the
        # full 4x4 determinant is 2.
        b = _triplets([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [-1, 0, 0, 1]])
        w = tu_certificate(b)
        _assert_cycle_witness(b, w)
        assert w.rows == w.cols == (0, 1, 2, 3)

    def test_witness_is_the_odd_cycle_only(self):
        # A triangle of same-sign columns, plus a pendant row and a column
        # with one nonzero that the cycle does not use.
        b = _triplets([[1, 0, 1, 0, 0], [1, 1, 0, 1, 0], [0, 1, 1, 0, 0], [0, 0, 0, -1, 1]])
        w = tu_certificate(b)
        _assert_cycle_witness(b, w)
        assert (w.rows, w.cols) == ((0, 1, 2), (0, 1, 2))

    @pytest.mark.parametrize(
        "entries",
        [
            ((0, 0, 2),),  # a value other than ±1
            ((0, 0, 0),),
            ((0, 0, 1), (1, 0, 1), (2, 0, -1)),  # three nonzeros in a column
            ((0, 0, 1), (0, 0, -1)),  # a repeated (row, col)
            ((3, 0, 1),),  # indices out of bounds
            ((0, 2, 1),),
            ((-1, 0, 1),),
        ],
    )
    def test_malformed_input_is_rejected(self, entries):
        with pytest.raises(InvalidInputError):
            tu_certificate(NodeArcIncidence(3, 2, entries))


@st.composite
def _two_per_column(draw) -> NodeArcIncidence:
    """Any {0, ±1} matrix up to 5x6 with at most two nonzeros per column."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    entries = []
    for c in range(cols):
        for r in draw(st.lists(st.integers(0, rows - 1), max_size=2, unique=True)):
            entries.append((r, c, draw(st.sampled_from((1, -1)))))
    return NodeArcIncidence(rows, cols, tuple(entries))


@st.composite
def _odd_cycle_inside(draw) -> NodeArcIncidence:
    """A cycle over k rows with an odd number of same-sign columns (so not
    TU), relabelled and padded with random columns."""
    k = draw(st.integers(2, 5))
    rows = draw(st.integers(k, 5))
    perm = draw(st.permutations(range(rows)))
    columns = []
    for i in range(k - 1):
        columns.append(((i, draw(st.sampled_from((1, -1)))), (i + 1, draw(st.sampled_from((1, -1))))))
    same = sum(v0 == v1 for (_, v0), (_, v1) in columns)
    first = draw(st.sampled_from((1, -1)))
    # The closing column fixes the parity: odd count of same-sign columns.
    columns.append(((k - 1, first), (0, first if same % 2 == 0 else -first)))
    for _ in range(draw(st.integers(0, 6 - k))):
        pair = draw(st.lists(st.integers(0, rows - 1), max_size=2, unique=True))
        columns.append(tuple((r, draw(st.sampled_from((1, -1)))) for r in pair))
    order = draw(st.permutations(range(len(columns))))
    entries = tuple(
        (perm[r], c, v) for c, j in enumerate(order) for r, v in columns[j]
    )
    return NodeArcIncidence(rows, len(columns), entries)


def test_certificate_agrees_with_brute_force():
    verdicts = set()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.one_of(_two_per_column(), _odd_cycle_inside()))
    def check(b):
        tu = brute_force_tu(dense(b))
        got = tu_certificate(b)
        if isinstance(got, TuWitness):
            _assert_cycle_witness(b, got)
        else:
            assert row_classes_hold(b, got)
        assert tu is not isinstance(got, TuWitness)
        verdicts.add(tu)

    check()
    assert verdicts == {True, False}


def test_det_int_matches_fraction_elimination():
    rng = random.Random(20250811)
    cases = [[[0, 1], [1, 0]], [[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 2], [0, 3]], [[5]]]
    for n in range(1, 7):
        for _ in range(300):
            # Mostly zeros, so pivots often vanish and need a row swap.
            cases.append([[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)])
    swaps = 0
    for m in cases:
        assert det_int(m) == fraction_det(m), m
        swaps += m[0][0] == 0 and any(row[0] for row in m)
    assert swaps > 100


def test_det_int_of_the_empty_matrix_is_one():
    assert det_int([]) == 1 == fraction_det([])


class TestAlignmentInvariants:
    def test_cost_decomposition_with_taus(self, insurance):
        trace = Trace("t", ("a", "d", "a", "e", "f"))
        sp = product_for_trace(insurance, trace)
        alignment, _ = lp_align(sp)
        assert alignment.total_cost == (
            (alignment.num_model + alignment.num_log) * 1 + alignment.num_tau * EPS
        )
        assert alignment.log_projection() == trace.activities
