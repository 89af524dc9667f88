"""Best-first optimal alignment over the synchronous product's state space.

The search runs on the int state keys of a ``SynchronousProduct`` and
reads each expanded state's moves from its ``out``, in the reachability
graph's order.  States are ordered by f = g + h, ties broken by larger g,
then FIFO.  The heuristic is the exact optimum of the product's
continuous state equation ``min c.x s.t. I x = m_f - m, x >= 0``.  It is
consistent (the reuse argument below gives h(p) <= c(t) + h(m) for every
move t from p to m), so no state is expanded twice; reopening an entry
when a strictly better g arrives is kept only as a safeguard.
Costs, epsilon-cost silent moves included, are exact and multiplied by
``scale``, the one cost scale of the model and cost config: g is an int,
h an int or a rational, and every comparison and tie is kept.

The relaxation is posed on the model (``sync_product.Relaxation``).  At
product state (m, pos) the trace rows force each event before ``pos`` to
carry no move and each later one exactly one unit, split between its log
and synchronous moves.  Events with one label are interchangeable:
summing each label's moves solves the model LP with rhs ``m_f - m`` over
the places and each model label's count in ``sigma[pos:]``, at the same
cost, and spreading each label's sums evenly over its events (a
transportation argument) turns a model solution back into a product one.
An event whose label the model lacks can only be a log move: it adds the
deviation cost to h.  So the optima are equal at every product state.

How h is computed.  A search maps each move t to its column ``col(t)``
(sync ``(j, pos)`` to ``y_j``, model ``j`` to ``x_j``, log at ``pos`` to
``s`` of its label).  A marking's h is solved lazily, when it is about to
be expanded; a finite one keeps its ``simplex.Optimum``: the rhs cells
of its optimal tableau (``B^-1 b`` and the objective, over the rows'
denominators), that tableau's basis, and a weak reference to the
tableau.  When marking m was reached from its parent p by move t, then
b(m) = b(p) - A_col(t):

- **Reuse.**  If ``x_p[col(t)] >= 1`` then ``h(m) = h(p) - c(t)``:
  ``x_p - e_col(t)`` is feasible for m, and any y feasible for m gives
  ``y + e_col(t)`` feasible for p.  That is when col(t) is basic in row
  i with ``cells[i] >= dens[i]``; m's cells are p's, in p's basis, with
  ``dens[i]`` taken off cell i and c(t) put on the objective.  A log move
  whose label the model lacks changes no rhs and always reuses.
- **Warm start.**  Otherwise the dual simplex starts from p's optimal
  tableau, still dual feasible since only the rhs changed.  While the
  search's ``simplex.BasisCache`` still holds that very tableau, m's
  cells are p's less the tableau's column col(t), in O(rows).  The cache
  starts holding the model's seed, the optimal tableau at rhs
  ``(m_f - m_0, 0)``, solved once per model and cost config.  The start
  marking (cold if the seed LP is infeasible) and a marking whose
  parent's tableau was evicted start from the cached tableau of the
  parent's basis if any, else from the cache's most recently used one,
  and compute the cells from b.  With every basic value nonnegative h is
  read off with no pivot or copy; a dual step onto a basis the cache
  holds reads that tableau, and any other step pivots a copy.  h leaves
  as an ``int`` unless the optimum is not integral.

Either way h is the exact optimum, so the expansion order and alignment
do not depend on how it was obtained, nor on which searches ran before.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from collections.abc import Hashable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import InvalidInputError
from .flow import Alignment, Method, Outcome, RunStats, unaligned_outcome
from .reachability import ExplorationLimits
from .simplex import BasisCache, Optimum, solve_min_eq
from .sync_product import SynchronousProduct, model_relaxation


class Heuristic(Enum):
    ZERO = "zero"
    MARKING_EQUATION = "marking_equation"


@dataclass(frozen=True)
class SearchConfig:
    heuristic: Heuristic = Heuristic.MARKING_EQUATION
    timeout: float = 30.0  # seconds

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise InvalidInputError("timeout must be positive")


class MarkingEquation:
    """Exact marking-equation values for markings of one product.

    Built per search on the model's shared relaxation: each move's column,
    each trace suffix's label counts and constant, and a tableau cache
    seeded with the model's, which counts the pivots.  ``self(m, via)``
    puts h(m) in units of 1/``scale`` (an ``int`` when integral, else a
    ``Fraction``; ``math.inf`` for a dead end) into ``values`` and keeps a
    finite one's ``simplex.Optimum`` for the reuse rule and warm starts.
    Keys, move costs and each key's process marking and trace position
    come from ``sp`` (its ``state`` and ``prices``).
    """

    def __init__(self, sp: SynchronousProduct):
        self.relaxation = relax = model_relaxation(sp.process_net, sp.cost)
        _, deviation, self.scale = sp.cost.scaled
        self.final = sp.process_net.final_marking
        self.state = sp.state
        self.columns = relax.columns(sp)
        self.costs = sp.prices
        self.suffixes = [([0] * len(relax.labels), 0)]  # (label counts, constant) of sigma[pos:], pos = n down
        for a in reversed(sp.trace_labels):
            counts, outside = self.suffixes[-1]
            k = relax.labels.get(a)
            if k is None:
                outside += deviation
            else:
                counts = counts[:k] + [counts[k] + 1] + counts[k + 1 :]
            self.suffixes.append((counts, outside))
        self.suffixes.reverse()
        self.tableaux = BasisCache(relax.rows, relax.costs, relax.seed)
        self.values: dict[Hashable, int | Fraction | float] = {}
        self._optima: dict[Hashable, Optimum] = {}
        self.solves = 0  # simplex calls, all warm-started unless the model has no seed
        self.reuses = 0  # values taken from the parent's solution

    def rhs(self, m: Hashable) -> tuple[list[int], int]:
        """The relaxation's right-hand side at ``m``, and h's constant part."""
        marking, pos = self.state(m)
        counts, outside = self.suffixes[pos]
        return [f - v for f, v in zip(self.final, marking)] + counts, outside

    def __call__(self, m: Hashable, via: tuple[Hashable, int] | None = None) -> int | Fraction | float:
        """h(m); ``via = (parent, move)`` says how m was reached."""
        val = self.values.get(m)
        if val is not None:
            return val
        parent = None
        prior = self._optima.get(via[0]) if via is not None else None
        if prior is not None:
            t = self.columns[via[1]]
            optimum = prior if t is None else prior.less(t)
            if optimum is not None:
                self.reuses += 1
                self._optima[m] = optimum
                val = self.values[via[0]] - self.costs[via[1]]
                self.values[m] = val
                return val
            parent = (prior, t)
        self.solves += 1
        rhs, outside = self.rhs(m)
        result = solve_min_eq(self.relaxation.rows, rhs, self.relaxation.costs, cache=self.tableaux, parent=parent)
        if result is None:
            val = math.inf
        else:
            val = result.value + outside
            self._optima[m] = result
        self.values[m] = val
        return val


def astar_align(
    sp: SynchronousProduct, cfg: SearchConfig = SearchConfig(), limits: ExplorationLimits | None = None
) -> tuple[Alignment | None, RunStats]:
    """A* over product states; optimal when it completes.

    A timeout is ``OVER_BUDGET``.  When the queue empties, the outcome is
    :func:`~flowalign.flow.unaligned_outcome`'s under ``limits`` (``None``
    means the default limits), whose walk of the model ``max_nodes``
    bounds.  Outcomes are reported in the stats, never raised.  It skips
    the self-loops and the moves over the token cap that ``sp.out``
    lists, so both methods search the same capped space.
    """
    stats = RunStats(Method.ASTAR, Outcome.OPTIMAL)
    t0 = time.perf_counter_ns()
    deadline = t0 + cfg.timeout * 1e9
    costs, final = sp.prices, sp.final
    start = 0  # the initial state's key

    # g, h and f are in units of 1/scale (see the module docstring).
    # Exact heuristic values are computed lazily: a successor is queued
    # under the derived admissible bound max(0, h(parent) - move cost) and
    # only gets its own value when it is about to be expanded.
    parent: dict[int, tuple[int, int]] = {}
    if cfg.heuristic is Heuristic.MARKING_EQUATION:
        heuristic = MarkingEquation(sp)
        h_exact = heuristic.values
    else:
        heuristic, h_exact = None, {}

    def h(key: int) -> int | Fraction | float:
        return heuristic(key, parent.get(key)) if heuristic is not None else 0

    def finish(outcome: Outcome | None, alignment: Alignment | None = None):
        # outcome None: the search ran out of states without a timeout.
        if heuristic is not None:
            stats.heuristic_calls = heuristic.solves
            stats.heuristic_reuses = heuristic.reuses
            stats.heuristic_pivots = heuristic.tableaux.pivots
        stats.outcome = outcome or unaligned_outcome(sp, limits or ExplorationLimits())
        stats.solve_us = (time.perf_counter_ns() - t0) // 1000
        return alignment, stats

    h0 = h(start)
    if h0 == math.inf:
        return finish(None)

    counter = itertools.count()
    best_g: dict[int, int] = {start: 0}
    heap: list = [(h0, 0, next(counter), start)]
    while heap:
        stats.queue_peak = max(stats.queue_peak, len(heap))
        if time.perf_counter_ns() > deadline:
            return finish(Outcome.OVER_BUDGET)
        f, neg_g, _, cur = heapq.heappop(heap)
        g = -neg_g
        if g > best_g.get(cur, math.inf):
            continue
        if cur == final:
            path = []
            key = cur
            while key != start:
                key, j = parent[key]
                path.append(j)
            path.reverse()
            return finish(Outcome.OPTIMAL, Alignment.from_path(sp, path, g, Method.ASTAR))
        hc = h(cur)
        if hc == math.inf:
            continue  # dead end even in the relaxation
        if g + hc > f:
            # Queued under a weaker bound; requeue at the exact f.
            heapq.heappush(heap, (g + hc, neg_g, next(counter), cur))
            continue
        stats.expansions += 1
        for j, succ in sp.out(cur):
            if succ is None or succ == cur:
                continue  # over the token cap, or a self-loop
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
    return finish(None)
