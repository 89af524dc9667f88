"""Min-cost unit-flow alignment on the reachability graph.

The alignment problem is a one-unit minimum-cost flow over the graph's
node-arc incidence matrix: minimize total edge cost subject to flow
conservation (one unit entering at the initial marking, leaving at the
final marking) and 0 <= x_e <= 1.  Because every incidence column holds
exactly one +1 and one -1 the constraint matrix is totally unimodular,
so with an integral balance vector every basic optimum is integral and
selects a single initial-to-final path.

The kernel here is a label-setting shortest path (valid since all move
costs are nonnegative and exactly one unit flows), run on integers scaled
by the lcm of the cost denominators; the scale is divided out only when
the objective leaves the solver.  It reads the graph's per-edge int
arrays (tail, head, move) and one scaled cost per move; a problem given
as an explicit incidence matrix (``FlowProblem.from_incidence``) is
parsed into the same arrays.  One Dijkstra over the reversed edges
labels every node with its distance to the final node.  A walk from the
initial node then takes, at each step, the lowest-index edge whose cost
equals the drop in label, so among equal-cost optima the
lexicographically smallest path under edge index order is returned and
goldens are deterministic.  Optimality is re-certified from the labels.

This module also builds (never solves) the step-indexed MILP matrices of
the direct synchronous-product formulation, whose combined constraint
matrix is in general *not* totally unimodular; ``find_non_tu_witness``
searches it for a square submatrix with |det| >= 2.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    InternalInvariantError,
    InvalidInputError,
    UnreachableFinalError,
)
from .petri import incidence_matrices
from .reachability import NodeArcIncidence, ReachabilityGraph, edge_endpoints
from .simplex import integers
from .sync_product import GAP, MoveKind, SyncMove, SynchronousProduct


class Method(Enum):
    LP = "lp"
    ASTAR = "astar"


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    TRUNCATED_GRAPH = "truncated_graph"


@dataclass
class RunStats:
    """What one engine run did and how long it took, in integer µs.

    ``outcome`` is a :class:`SolveStatus` for the flow engine and an
    ``astar.SearchOutcome`` for A*.  ``solve_us`` is the search for A*, and
    assemble + solve + extract for the flow engine, whose graph build is
    ``rg_build_us``.  Counts the engine does not produce stay 0.
    """

    method: Method
    outcome: Enum
    rg_build_us: int = 0
    solve_us: int = 0
    rg_nodes: int = 0
    rg_edges: int = 0
    expansions: int = 0
    heuristic_calls: int = 0  # simplex solves, cold or warm-started
    heuristic_reuses: int = 0  # h values taken from the parent's solution
    heuristic_pivots: int = 0  # primal and dual simplex pivots of those solves
    queue_peak: int = 0


@dataclass(frozen=True, eq=False)
class FlowProblem:
    """One-unit min-cost flow instance over a graph of ``num_nodes`` nodes.

    Edge ``e`` runs from ``tails[e]`` to ``heads[e]`` and costs
    ``move_costs[moves[e]] / scale``: costs are kept once per move, as
    integers over one common denominator.
    """

    num_nodes: int
    tails: Sequence[int]
    heads: Sequence[int]
    moves: Sequence[int]
    move_costs: Sequence[int]
    scale: int
    source: int
    sink: int

    @classmethod
    def from_incidence(
        cls, incidence: NodeArcIncidence, costs: Sequence[Fraction], source: int, sink: int
    ) -> "FlowProblem":
        """A problem on an explicit incidence matrix, one cost per column.

        Raises :class:`InvalidInputError` unless every column holds exactly
        one +1 and one -1 and there is one cost per column.
        """
        tails, heads = edge_endpoints(incidence)
        if len(costs) != incidence.cols:
            raise InvalidInputError(f"{len(costs)} costs for {incidence.cols} columns")
        move_costs, scale = integers(costs)
        return cls(incidence.rows, tails, heads, range(incidence.cols), move_costs, scale, source, sink)

    @property
    def balance(self) -> tuple[int, ...]:
        """+1 at the source, -1 at the sink, 0 elsewhere (all 0 if they coincide)."""
        balance = [0] * self.num_nodes
        if self.source != self.sink:
            balance[self.source], balance[self.sink] = 1, -1
        return tuple(balance)


@dataclass(frozen=True)
class FlowSolution:
    """A solve's outcome over a problem of ``num_edges`` edges.

    ``path`` lists the edges of the chosen source-to-sink path in order:
    empty when the source is the sink or when no path exists.
    """

    path: tuple[int, ...]
    objective: Fraction | None
    status: SolveStatus
    num_edges: int

    @property
    def x(self) -> tuple[int, ...]:
        """The flow on every edge: 1 on the path, 0 elsewhere."""
        x = [0] * self.num_edges
        for e in self.path:
            x[e] = 1
        return tuple(x)


@dataclass(frozen=True)
class Alignment:
    """An ordered move sequence relating a trace to a model execution."""

    moves: tuple[SyncMove, ...]
    total_cost: Fraction
    method: Method
    num_sync: int
    num_model: int
    num_tau: int
    num_log: int

    @classmethod
    def from_moves(cls, moves: tuple[SyncMove, ...], method: Method) -> "Alignment":
        counts = {kind: 0 for kind in MoveKind}
        total = Fraction(0)
        for m in moves:
            counts[m.kind] += 1
            total += m.cost
        return cls(
            moves=moves,
            total_cost=total,
            method=method,
            num_sync=counts[MoveKind.SYNC],
            num_model=counts[MoveKind.MODEL],
            num_tau=counts[MoveKind.MODEL_TAU],
            num_log=counts[MoveKind.LOG],
        )

    def log_projection(self) -> tuple[str, ...]:
        """Trace-side labels of all moves with a trace component."""
        return tuple(m.label_pair[1] for m in self.moves if m.label_pair[1] != GAP)

    def model_projection(self) -> tuple[str, ...]:
        """Process transitions of all moves with a model component."""
        return tuple(
            m.process_transition for m in self.moves if m.process_transition is not None
        )


def assemble_flow_problem(rg: ReachabilityGraph) -> FlowProblem:
    """Balance +1 at the initial node, -1 at the final node, 0 elsewhere.

    Raises :class:`UnreachableFinalError` when the graph has no final
    node, distinguishing truncation and token-cap pruning from genuine
    unreachability.
    """
    if rg.final_index is None:
        if rg.stats.truncated:
            raise UnreachableFinalError(
                "truncated",
                "final marking not reached: graph construction hit a resource limit",
            )
        if rg.stats.cap_prunes:
            raise UnreachableFinalError(
                "token_cap",
                "final marking not reached: branches were pruned by the token cap",
            )
        raise UnreachableFinalError(
            "unreachable", "final marking is unreachable in the full graph"
        )
    move_costs, scale = integers(rg.move_costs)
    return FlowProblem(
        num_nodes=len(rg.nodes),
        tails=rg.tails,
        heads=rg.heads,
        moves=rg.moves,
        move_costs=move_costs,
        scale=scale,
        source=rg.initial_index,
        sink=rg.final_index,
    )


def solve_min_cost_unit_flow(fp: FlowProblem) -> FlowSolution:
    """Exact label-setting solve; the optimum is an integral extreme point.

    The returned ``path`` is one simple source-to-sink path (so ``x`` is
    0/1 per edge), and the objective is certified against the distance
    labels before returning.
    """
    n_nodes, tails, heads, scale = fp.num_nodes, fp.tails, fp.heads, fp.scale
    n_edges = len(tails)
    move_costs = fp.move_costs
    if any(c < 0 for c in move_costs):
        raise InvalidInputError("edge costs must be nonnegative")
    costs = [move_costs[m] for m in fp.moves]
    if fp.source == fp.sink:
        return FlowSolution((), Fraction(0), SolveStatus.OPTIMAL, n_edges)

    into: list[list[int]] = [[] for _ in range(n_nodes)]
    for e, h in enumerate(heads):
        into[h].append(e)

    # dist[v]: cost of a cheapest v-to-sink path, in units of 1/scale;
    # step[v]: the lowest-index edge out of v whose cost closes the gap
    # between its endpoints' labels, so that it starts such a path.  Every
    # edge into a labelled node is relaxed once, with that node's final
    # label, so step[v] is exact once the heap is empty.
    dist: list[int | None] = [None] * n_nodes
    step: list[int] = [-1] * n_nodes
    dist[fp.sink] = 0
    heap = [(0, fp.sink)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for e in into[v]:
            nd = d + costs[e]
            t = tails[e]
            if dist[t] is None or nd < dist[t]:
                dist[t] = nd
                step[t] = e
                heapq.heappush(heap, (nd, t))
            elif nd == dist[t] and e < step[t]:
                step[t] = e

    if dist[fp.source] is None:
        return FlowSolution((), None, SolveStatus.INFEASIBLE, n_edges)

    # Following step[] from the source gives the lexicographically smallest
    # optimal path under edge index order.
    chosen: list[int] = []
    cur = fp.source
    while cur != fp.sink:
        if len(chosen) > n_edges:
            raise InternalInvariantError("label walk did not terminate (cycle?)")
        chosen.append(step[cur])
        cur = heads[step[cur]]

    _certify(fp, dist, chosen, tails, heads, costs)
    return FlowSolution(tuple(chosen), Fraction(dist[fp.source], scale), SolveStatus.OPTIMAL, n_edges)


def _certify(fp, dist, chosen, tails, heads, costs) -> None:
    # Label correctness proves optimality: dist(tail) <= cost + dist(head)
    # on every edge that reaches the sink, with equality along the path.
    if dist[fp.sink] != 0:
        raise InternalInvariantError("sink distance is nonzero")
    for e, (t, h, c) in enumerate(zip(tails, heads, costs)):
        if dist[h] is not None and (dist[t] is None or dist[t] > c + dist[h]):
            raise InternalInvariantError(f"distance label violated at edge {e}")
    for e in chosen:
        if dist[tails[e]] != costs[e] + dist[heads[e]]:
            raise InternalInvariantError(f"chosen edge {e} is not tight")
    if sum(costs[e] for e in chosen) != dist[fp.source]:
        raise InternalInvariantError("path cost disagrees with distance label")


def verify_integrality(sol: FlowSolution, tol: Fraction = Fraction(0)) -> bool:
    """True iff every flow value is within ``tol`` of 0 or 1."""
    if sol.status is not SolveStatus.OPTIMAL:
        raise InvalidInputError("verify_integrality expects an OPTIMAL solution")
    return all(abs(v) <= tol or abs(v - 1) <= tol for v in sol.x)


def extract_alignment(
    rg: ReachabilityGraph, sp: SynchronousProduct, sol: FlowSolution
) -> Alignment:
    """Walk the solution's path and map its edges to moves.

    Raises :class:`InternalInvariantError` unless the path leaves each node
    at most once and runs edge to edge from the initial to the final node,
    and its moves cost the objective.
    """
    if sol.status is not SolveStatus.OPTIMAL:
        raise InvalidInputError("extract_alignment expects an OPTIMAL solution")
    moves: list[SyncMove] = []
    left: set[int] = set()
    cur = rg.initial_index
    for e in sol.path:
        if cur in left:
            raise InternalInvariantError(f"two chosen edges leave node {cur}")
        if rg.tails[e] != cur:
            raise InternalInvariantError("chosen edges do not form a single path")
        left.add(cur)
        moves.append(sp.moves[rg.moves[e]])
        cur = rg.heads[e]
    if cur != rg.final_index:
        raise InternalInvariantError("chosen edges do not form an initial-to-final path")

    alignment = Alignment.from_moves(tuple(moves), Method.LP)
    if alignment.total_cost != sol.objective:
        raise InternalInvariantError("alignment cost disagrees with LP objective")
    return alignment


def lp_align(
    sp: SynchronousProduct, limits=None
) -> tuple[Alignment | None, RunStats]:
    """Product -> bounded reachability graph -> flow solve -> alignment.

    Returns ``(None, stats)`` with outcome ``TRUNCATED_GRAPH`` when the
    graph was cut short before reaching the final marking (a timeout-like
    outcome, not a cost), and ``INFEASIBLE`` when the final marking is
    genuinely unreachable.
    """
    from .reachability import build_reachability_graph

    stats = RunStats(Method.LP, SolveStatus.INFEASIBLE)
    t0 = time.perf_counter_ns()
    rg = build_reachability_graph(sp, limits)
    t1 = time.perf_counter_ns()
    stats.rg_build_us = (t1 - t0) // 1000
    stats.rg_nodes = len(rg.nodes)
    stats.rg_edges = len(rg.edges)

    alignment = None
    try:
        fp = assemble_flow_problem(rg)
    except UnreachableFinalError as exc:
        if exc.reason in ("truncated", "token_cap"):
            stats.outcome = SolveStatus.TRUNCATED_GRAPH
    else:
        sol = solve_min_cost_unit_flow(fp)
        stats.outcome = sol.status
        if sol.status is SolveStatus.OPTIMAL:
            alignment = extract_alignment(rg, sp, sol)
    stats.solve_us = (time.perf_counter_ns() - t1) // 1000
    return alignment, stats


def move_table(alignment: Alignment) -> str:
    """Line-based move table: kind, model-side label, trace-side label, cost."""
    rows = ["kind\tmodel\ttrace\tcost"]
    for m in alignment.moves:
        l1 = "tau" if (m.label_pair[0] is None) else m.label_pair[0]
        l2 = m.label_pair[1]
        rows.append(f"{m.kind.value}\t{l1}\t{l2}\t{m.cost}")
    rows.append(f"total\t\t\t{alignment.total_cost}")
    return "\n".join(rows) + "\n"


def alignment_to_dict(alignment: Alignment) -> dict:
    """Structured-object form of an alignment (JSON-ready)."""
    return {
        "method": alignment.method.value,
        "total_cost": str(alignment.total_cost),
        "num_sync": alignment.num_sync,
        "num_model": alignment.num_model,
        "num_tau": alignment.num_tau,
        "num_log": alignment.num_log,
        "moves": [
            {
                "kind": m.kind.value,
                "model_label": "tau" if m.label_pair[0] is None else m.label_pair[0],
                "trace_label": m.label_pair[1],
                "process_transition": m.process_transition,
                "trace_transition": m.trace_transition,
                "cost": str(m.cost),
            }
            for m in alignment.moves
        ],
    }


# ---------------------------------------------------------------------------
# Step-indexed MILP on the synchronous product (built for structural
# contrast; deliberately never solved).
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MilpMatrices:
    """Constraint blocks of the direct formulation with horizon ``n``.

    Variables are ``x[j,k]`` (transition j fires at step k), laid out
    step-major (``(k-1)*|T| + j``), followed by the ``n`` termination
    indicators ``z_k``.  Equalities: final-marking balance (|P| rows)
    then one-move-or-terminated (n rows).  Inequalities: prefix
    nonnegativity (n*|P| rows, as ``A x <= b``) then termination
    monotonicity (n-1 rows).
    """

    horizon: int
    num_places: int
    num_transitions: int
    a_eq: np.ndarray
    b_eq: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    objective: tuple[Fraction, ...]

    @property
    def num_vars(self) -> int:
        return self.horizon * self.num_transitions + self.horizon

    def combined_matrix(self) -> np.ndarray:
        return np.vstack([self.a_eq, self.a_ub])


def build_milp_matrices(sp: SynchronousProduct, n: int) -> MilpMatrices:
    if n < 1:
        raise InvalidInputError("horizon must be >= 1")
    inc = incidence_matrices(sp.net).incidence
    n_p, n_t = inc.shape
    n_vars = n * n_t + n
    z0 = n * n_t  # first z column

    a_eq = np.zeros((n_p + n, n_vars), dtype=np.int64)
    b_eq = np.zeros(n_p + n, dtype=np.int64)
    for k in range(n):
        a_eq[:n_p, k * n_t : (k + 1) * n_t] = inc
    m_i = np.array(sp.net.initial_marking, dtype=np.int64)
    m_f = np.array(sp.net.final_marking, dtype=np.int64)
    b_eq[:n_p] = m_f - m_i
    for k in range(n):
        a_eq[n_p + k, k * n_t : (k + 1) * n_t] = 1
        a_eq[n_p + k, z0 + k] = 1
        b_eq[n_p + k] = 1

    a_ub = np.zeros((n * n_p + (n - 1), n_vars), dtype=np.int64)
    b_ub = np.zeros(n * n_p + (n - 1), dtype=np.int64)
    for k in range(n):
        # prefix row block k: m_i + I * sum_{step<=k} x >= 0, normalized
        # to -I-copies <= m_i, so each block stacks k+1 copies of -I.
        for step in range(k + 1):
            a_ub[k * n_p : (k + 1) * n_p, step * n_t : (step + 1) * n_t] = -inc
        b_ub[k * n_p : (k + 1) * n_p] = m_i
    for k in range(n - 1):
        a_ub[n * n_p + k, z0 + k] = 1
        a_ub[n * n_p + k, z0 + k + 1] = -1

    objective = tuple(m.cost for m in sp.moves) * n + (Fraction(0),) * n
    return MilpMatrices(
        horizon=n,
        num_places=n_p,
        num_transitions=n_t,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ub=a_ub,
        b_ub=b_ub,
        objective=objective,
    )


class TuWitness(NamedTuple):
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    determinant: int


def _det_int(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# Cap on temporary array size during scans; it also bounds the time one
# block takes, and so how far a scan can run past its deadline.
_BLOCK_CELLS = 1_000_000


def _scan_order2(a: np.ndarray, deadline: float) -> TuWitness | None:
    rows, cols = a.shape
    cb = min(cols, 512)
    rb = max(1, _BLOCK_CELLS // (cb * cb))
    for i in range(rows - 1):
        ai = a[i]
        for j0 in range(i + 1, rows, rb):
            rest = a[j0 : min(j0 + rb, rows)]
            for c1 in range(0, cols, cb):
                b1 = ai[c1 : c1 + cb]
                r1 = rest[:, c1 : c1 + cb]
                for c2 in range(c1, cols, cb):
                    if time.monotonic() > deadline:
                        return None
                    b2 = ai[c2 : c2 + cb]
                    r2 = rest[:, c2 : c2 + cb]
                    # det[(j, k, l)] = a[i,k]*a[j,l] - a[i,l]*a[j,k]
                    d = b1[None, :, None] * r2[:, None, :] - b2[None, None, :] * r1[:, :, None]
                    hit = np.argwhere(np.abs(d) >= 2)
                    if hit.size:
                        j_off, k_off, l_off = (int(v) for v in hit[0])
                        j = j0 + j_off
                        k, l = c1 + k_off, c2 + l_off
                        if k > l:
                            k, l = l, k
                        det = int(a[i, k]) * int(a[j, l]) - int(a[i, l]) * int(a[j, k])
                        return TuWitness((i, j), (k, l), det)
    return None


def _col_triple_blocks(cols: int, block: int = 200_000):
    """Column triples ``j < k < l`` in lexicographic order, as arrays of
    about ``block`` rows: every leading pair (j, k) contributes its run of
    l values, which a few vectorized operations expand."""
    pairs: list[tuple[int, int]] = []
    size = 0
    for j, k in itertools.combinations(range(cols - 1), 2):
        pairs.append((j, k))
        size += cols - 1 - k
        if size >= block:
            yield _expand_pairs(pairs, cols)
            pairs, size = [], 0
    if pairs:
        yield _expand_pairs(pairs, cols)


def _expand_pairs(pairs: list[tuple[int, int]], cols: int) -> np.ndarray:
    jk = np.array(pairs, dtype=np.int64)
    runs = cols - 1 - jk[:, 1]
    lead = np.repeat(jk, runs, axis=0)
    run_start = np.repeat(np.cumsum(runs) - runs, runs)
    last = lead[:, 1] + 1 + np.arange(len(lead)) - run_start
    return np.column_stack([lead, last])


def _scan_order3(a: np.ndarray, deadline: float) -> TuWitness | None:
    rows, cols = a.shape
    for block in _col_triple_blocks(cols):
        for rt in itertools.combinations(range(rows), 3):
            if time.monotonic() > deadline:
                return None
            s0, s1, s2 = a[rt[0]][block], a[rt[1]][block], a[rt[2]][block]
            det = (
                s0[:, 0] * (s1[:, 1] * s2[:, 2] - s1[:, 2] * s2[:, 1])
                - s0[:, 1] * (s1[:, 0] * s2[:, 2] - s1[:, 2] * s2[:, 0])
                + s0[:, 2] * (s1[:, 0] * s2[:, 1] - s1[:, 1] * s2[:, 0])
            )
            hit = np.nonzero(np.abs(det) >= 2)[0]
            if hit.size:
                t = block[int(hit[0])]
                return TuWitness(rt, tuple(int(v) for v in t), int(det[int(hit[0])]))
    return None


def find_non_tu_witness(
    matrix: np.ndarray,
    order_limit: int = 3,
    budget_s: float = 10.0,
    seed: int = 0,
) -> TuWitness | None:
    """Search square submatrices for a determinant of magnitude >= 2.

    Orders 2 and 3 are enumerated exhaustively in deterministic index
    order (vectorized in memory-bounded blocks, stopping at the budget);
    higher orders up to ``order_limit`` are sampled randomly for the
    remaining budget.  A witness proves the matrix is not totally
    unimodular; an empty result proves nothing.
    """
    if order_limit < 2:
        raise InvalidInputError("order_limit must be >= 2")
    a = np.asarray(matrix, dtype=np.int64)
    rows, cols = a.shape
    deadline = time.monotonic() + budget_s

    if rows >= 2 and cols >= 2:
        w = _scan_order2(a, deadline)
        if w is not None:
            return w
    if order_limit >= 3 and rows >= 3 and cols >= 3:
        w = _scan_order3(a, deadline)
        if w is not None:
            return w

    rng = np.random.RandomState(seed)
    for order in range(4, order_limit + 1):
        if rows < order or cols < order:
            break
        while time.monotonic() <= deadline:
            r = sorted(rng.choice(rows, size=order, replace=False).tolist())
            c = sorted(rng.choice(cols, size=order, replace=False).tolist())
            det = _det_int([[int(a[i, j]) for j in c] for i in r])
            if abs(det) >= 2:
                return TuWitness(tuple(r), tuple(c), det)
    return None
