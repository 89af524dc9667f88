"""Best-first optimal alignment over the synchronous product's state space.

The search grows its own ``sync_product.ProductGraph`` as it goes: it
expands each node it pops (no pre-built reachability graph, no budgets),
so its successors come from the same code and in the same canonical order
as the reachability graph's edges.  Nodes are ordered by f = g + h with
ties broken by larger g, then FIFO.  The marking-equation heuristic is
the exact optimum of the continuous state-equation relaxation
``min c.x s.t. I x = m_f - m, x >= 0``; it is admissible but not assumed
consistent, so entries are reopened whenever a strictly better g
arrives, which preserves optimality.  g, h, and all
costs are exact: the move costs are multiplied by ``scale``, the lcm of
their denominators, so g is an integer and h an integer or a rational in
the same units, and scaling by a positive constant keeps every comparison
and tie.  Epsilon-cost silent moves enter g and h exactly as they do in the
flow formulation, so both methods optimize the identical objective.

How h is computed.  The relaxation's data are built once per search: the
integer incidence rows (``sync_product.incidence_rows``, composed from the
model's firing data and the trace path, so no product net is built) and
the scaled integer move costs, so the simplex sees integers only.  A
marking's h is solved lazily, when it is about to be expanded, and every
marking with a finite h keeps its sparse optimal ``x`` and the column
indices of its optimal basis, nothing more.  When marking m was reached
from its parent p by move t:

- **Reuse.**  If ``x_p[t] >= 1`` then ``h(m) = h(p) - c(t)`` with vector
  ``x_p - e_t``, and nothing is solved.  ``x_p - e_t`` is feasible for m,
  so h(m) <= h(p) - c(t); any y feasible for m gives y + e_t feasible for
  p, so h(p) <= h(m) + c(t).
- **Warm start.**  Otherwise the simplex starts from p's optimal basis:
  only the right-hand side changed, so that basis is still dual feasible
  and a dual simplex from that basis finishes the solve.  The search keeps
  the tableaux of recent bases (a ``simplex.BasisCache`` of at most
  ``simplex.BASIS_CACHE_SIZE``, dropped with the search); when p's basis
  is among them, only ``B^-1 b`` and the objective are computed from the
  cached tableau, otherwise the tableau is re-factored on that basis.  If
  p's basis is still primal feasible for m it is optimal, and h(m) is
  read off without a pivot or a copy; else the dual simplex runs on a
  copy.  Few bases seed many solves: on the corpus's first edit cycle,
  1,869 warm starts come from 165 distinct bases; 5 of those warm starts
  re-factor, and 950 are read off a cached tableau.

Only the start marking is solved cold.  Either way h is the exact optimum,
so heap keys, expansion order and the returned alignment do not depend on
how it was obtained.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InvalidInputError
from .flow import Alignment, Method, RunStats
from .petri import Marking
from .simplex import BasisCache, integers, solve_min_eq
from .sync_product import ProductGraph, SynchronousProduct, cost_vector, incidence_rows


class Heuristic(Enum):
    ZERO = "zero"
    MARKING_EQUATION = "marking_equation"


class SearchOutcome(Enum):
    OPTIMAL = "optimal"
    TIMEOUT = "timeout"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchConfig:
    heuristic: Heuristic = Heuristic.MARKING_EQUATION
    timeout: float = 30.0  # seconds
    max_expansions: int = 10_000_000
    token_cap: int = 8

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise InvalidInputError("timeout must be positive")
        if self.max_expansions < 1 or self.token_cap < 1:
            raise InvalidInputError("max_expansions and token_cap must be >= 1")


def scaled_costs(sp: SynchronousProduct) -> tuple[list[int], int]:
    """Move costs times ``scale``, the lcm of their denominators, and ``scale``."""
    return integers(cost_vector(sp))


class MarkingEquation:
    """Exact marking-equation values for markings of one product.

    Built once per search: the integer incidence rows, the scaled integer
    move costs and a cache of simplex tableaux, which also counts the
    simplex pivots.
    ``self(m, via)`` returns h(m) in those units (an ``int`` when
    integral, else a ``Fraction``; ``math.inf`` for a dead end) and
    remembers it in ``values``.  For every marking with a finite value it
    also keeps the sparse optimal x and the optimal basis, which the reuse
    rule and the warm start of m's successors draw on.  ``m`` is any key
    that ``marking`` maps to the product marking (by default ``tuple``:
    the key is the marking).
    """

    def __init__(self, sp: SynchronousProduct, marking: Callable[[Hashable], Marking] = tuple):
        self.final = sp.final_marking
        self.marking = marking
        self.rows = incidence_rows(sp)
        self.costs, self.scale = scaled_costs(sp)
        self.tableaux = BasisCache(self.rows, self.costs)
        self.values: dict[Hashable, int | Fraction | float] = {}
        self._optima: dict[Hashable, tuple[dict[int, Fraction], tuple[int, ...]]] = {}
        self.solves = 0  # simplex calls, cold or warm-started
        self.reuses = 0  # values taken from the parent's solution

    def __call__(
        self, m: Hashable, via: tuple[Hashable, int] | None = None
    ) -> int | Fraction | float:
        """h(m); ``via = (parent, move)`` says how m was reached."""
        val = self.values.get(m)
        if val is not None:
            return val
        basis = None
        optimum = self._optima.get(via[0]) if via is not None else None
        if optimum is not None:
            x, basis = optimum
            t = via[1]
            if x.get(t, 0) >= 1:
                self.reuses += 1
                x = dict(x)
                x[t] -= 1
                if not x[t]:
                    del x[t]
                self._optima[m] = (x, basis)
                val = self.values[via[0]] - self.costs[t]
                self.values[m] = val
                return val
        self.solves += 1
        rhs = [f - v for f, v in zip(self.final, self.marking(m))]
        result = solve_min_eq(self.rows, rhs, self.costs, basis, cache=self.tableaux)
        if result is None:
            val = math.inf
        else:
            value, x = result
            val = value.numerator if value.denominator == 1 else value
            self._optima[m] = ({j: x[j] for j in result.basis if x[j]}, result.basis)
        self.values[m] = val
        return val


def marking_equation_heuristic(sp: SynchronousProduct, m: Marking) -> Fraction | float:
    """Optimal value of the state-equation relaxation from ``m`` to m_f.

    Returns ``math.inf`` when even the continuous relaxation cannot reach
    the final marking (the state is a dead end).  Always a lower bound on
    the true remaining alignment cost.  Each call is a cold solve.
    """
    final = sp.final_marking
    if len(m) != len(final):
        raise InvalidInputError("marking does not index the product's places")
    if m == final:
        return Fraction(0)
    relaxation = MarkingEquation(sp)
    h = relaxation(m)
    return h if h == math.inf else Fraction(h, relaxation.scale)


def astar_align(
    sp: SynchronousProduct, cfg: SearchConfig = SearchConfig()
) -> tuple[Alignment | None, RunStats]:
    """A* over product states; optimal when it completes.

    Outcomes TIMEOUT and EXHAUSTED are reported in the stats, never
    raised.  States and successors come from a
    :class:`~flowalign.sync_product.ProductGraph` without budgets, as in
    the reachability-graph build: self-loops are skipped and successors
    exceeding the per-place token cap are pruned, so both methods search
    the same capped space.
    """
    stats = RunStats(Method.ASTAR, SearchOutcome.EXHAUSTED)
    t0 = time.perf_counter_ns()
    deadline = t0 + cfg.timeout * 1e9
    graph = ProductGraph(sp, cfg.token_cap)
    heads, edge_moves = graph.heads, graph.moves
    start = 0  # the initial state's node
    moves = sp.moves

    # g, h and f are in units of 1/scale (see the module docstring).
    # Exact heuristic values are computed lazily: a successor is queued
    # under the derived admissible bound max(0, h(parent) - move cost) and
    # only gets its own value when it is about to be expanded.
    parent: dict[int, tuple[int, int]] = {}
    if cfg.heuristic is Heuristic.MARKING_EQUATION:
        heuristic = MarkingEquation(sp, graph.marking)
        costs, h_exact = heuristic.costs, heuristic.values
    else:
        heuristic = None
        costs, h_exact = scaled_costs(sp)[0], {}

    def h(node: int) -> int | Fraction | float:
        return heuristic(node, parent.get(node)) if heuristic is not None else 0

    def finish(outcome: SearchOutcome, alignment: Alignment | None = None):
        if heuristic is not None:
            stats.heuristic_calls = heuristic.solves
            stats.heuristic_reuses = heuristic.reuses
            stats.heuristic_pivots = heuristic.tableaux.pivots
        stats.outcome = outcome
        stats.solve_us = (time.perf_counter_ns() - t0) // 1000
        return alignment, stats

    h0 = h(start)
    if h0 == math.inf:
        return finish(SearchOutcome.EXHAUSTED)

    counter = itertools.count()
    best_g: dict[int, int] = {start: 0}
    out_edges: dict[int, range] = {}  # a reopened node is expanded once
    heap: list = [(h0, 0, next(counter), start)]
    while heap:
        stats.queue_peak = max(stats.queue_peak, len(heap))
        if time.perf_counter_ns() > deadline:
            return finish(SearchOutcome.TIMEOUT)
        f, neg_g, _, cur = heapq.heappop(heap)
        g = -neg_g
        if g > best_g.get(cur, math.inf):
            continue
        if cur == graph.final_index:
            moves_seq = []
            node = cur
            while node != start:
                node, j = parent[node]
                moves_seq.append(moves[j])
            moves_seq.reverse()
            return finish(SearchOutcome.OPTIMAL, Alignment.from_moves(tuple(moves_seq), Method.ASTAR))
        hc = h(cur)
        if hc == math.inf:
            continue  # dead end even in the relaxation
        if g + hc > f:
            # Queued under a weaker bound; requeue at the exact f.
            heapq.heappush(heap, (g + hc, neg_g, next(counter), cur))
            continue
        if stats.expansions >= cfg.max_expansions:
            return finish(SearchOutcome.EXHAUSTED)
        stats.expansions += 1
        edges = out_edges.get(cur)
        if edges is None:
            first = len(heads)
            graph.expand(cur, cur + 1)
            edges = out_edges[cur] = range(first, len(heads))
        for e in edges:
            j, succ = edge_moves[e], heads[e]
            ng = g + costs[j]
            old = best_g.get(succ)
            if old is not None and ng >= old:
                continue
            hs = h_exact.get(succ)
            if hs is None:
                hs = hc - costs[j]
                if hs < 0:
                    hs = 0
            elif hs == math.inf:
                continue
            best_g[succ] = ng
            parent[succ] = (cur, j)
            heapq.heappush(heap, (ng + hs, -ng, next(counter), succ))
    return finish(SearchOutcome.EXHAUSTED)
