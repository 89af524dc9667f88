"""Min-cost unit-flow alignment on the reachability graph.

The alignment problem is a one-unit minimum-cost flow over the graph's
node-arc incidence matrix: minimize total edge cost subject to flow
conservation (one unit entering at the initial marking, leaving at the
final marking) and 0 <= x_e <= 1.  Because every incidence column holds
exactly one +1 and one -1 the constraint matrix is totally unimodular,
so with an integral balance vector every basic optimum is integral and
selects a single initial-to-final path.

The explicit kernel is a label-setting shortest path (valid since all
move costs are nonnegative and one unit flows) on integers scaled by the
lcm of the cost denominators, divided out only when the objective leaves.
It reads the graph's per-edge int arrays (tail, head, move).  One
Dijkstra over the reversed edges labels every node with its distance to
the final node; a walk from the initial node takes, at each step, the
lowest-index edge whose cost equals the drop in label, so among equal-cost
optima the lexicographically smallest path under edge index order is
returned and goldens are deterministic.  The labels are certified:
dist(tail) <= cost + dist(head) on every edge, with equality on the path.

``lp_align`` solves the same LP without building the graph.  A product's
graph is the model's reachability graph copied once per trace position
and joined by synchronous and log moves, so its size follows from
per-model counts (``layered_graph``), and ``solve_layered`` computes the
same labels one trace position at a time and walks the same path,
certifying only what the layer above does not imply.  A layer is the
layer above it put through one event's moves and then settled, which
takes only min and +, so it commutes with adding a constant: layer below
(x + k) = (layer below x) + k, and so does every certificate inequality,
which compares two labels of the same pair of layers.  Each layer is
therefore a shape (the layer less its minimum) plus an integer offset,
and ``ModelGraph`` keeps, per model, each step from a shape through an
event to the next shape and offset, certified once when it is made, so
that a trace builds only the steps no earlier trace took.  The counts decide
the node and edge budgets exactly, so a graph that a budget would cut
short is refused unbuilt, after the counts price its model's graph.
Everything here is exact integer or ``Fraction`` arithmetic.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .errors import InternalInvariantError, InvalidInputError, UnreachableFinalError
from .petri import TAU, PetriNet, SuccessorMemo
from .reachability import ExplorationLimits, ReachabilityGraph
from .simplex import integers
from .sync_product import GAP, CostConfig, SyncMove, SynchronousProduct, model_relaxation


class Method(Enum):
    LP = "lp"
    ASTAR = "astar"


class Outcome(Enum):
    """How an engine run ended, under either engine; the values are CSV cells."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"  # no way to the final marking exists
    CAPPED = "capped"  # no alignment under this cap, and the cap pruned a reachable move
    OVER_BUDGET = "over_budget"  # a node, edge or time budget bound


@dataclass
class RunStats:
    """What one engine run did and how long it took, in integer µs.

    ``solve_us`` is the search for A*, and the flow engine's solve and
    walk, after ``rg_build_us`` of counting its graph.  ``rg_nodes`` and
    ``rg_edges`` are the full graph's, also when a budget refused it.
    Counts the engine does not produce stay 0.
    """

    method: Method
    outcome: Outcome
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


@dataclass(frozen=True)
class FlowSolution:
    """A solve's outcome over a problem of ``num_edges`` edges.

    ``path`` lists the edges of the chosen source-to-sink path in order:
    empty when the source is the sink or when no path exists.
    """

    path: tuple[int, ...]
    objective: Fraction | None
    status: Outcome
    num_edges: int


@dataclass(frozen=True)
class Alignment:
    """An ordered move sequence relating a trace to a model execution: the
    moves of ``product`` at the indices ``path``, made on first read."""

    product: SynchronousProduct = field(repr=False)
    path: tuple[int, ...]
    total_cost: Fraction
    method: Method
    num_sync: int
    num_model: int
    num_tau: int
    num_log: int

    @classmethod
    def from_path(cls, sp: SynchronousProduct, path: Sequence[int], spent: int, method: Method) -> "Alignment":
        """The alignment of moves ``path``, whose prices (``CostConfig.scaled``) sum to ``spent``."""
        return cls(sp, tuple(path), Fraction(spent, sp.cost.scaled[2]), method, *sp.kind_counts(path))

    @cached_property
    def moves(self) -> tuple[SyncMove, ...]:
        moves = self.product.moves
        return tuple(moves[k] for k in self.path)

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

    Raises :class:`UnreachableFinalError` when a limit cut the graph short,
    whether or not it reached the final marking (a cut graph may lack
    every optimal path), and when the graph has no final node,
    distinguishing token-cap pruning from genuine unreachability.
    """
    if rg.stats.truncated:
        raise UnreachableFinalError("truncated", "a limit cut the graph short, so it proves no optimum")
    if rg.final_index is None:
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

    The returned ``path`` is one simple source-to-sink path (a flow of 0
    or 1 per edge), and the objective is certified against the distance
    labels before returning.
    """
    n_nodes, tails, heads, scale = fp.num_nodes, fp.tails, fp.heads, fp.scale
    n_edges = len(tails)
    move_costs = fp.move_costs
    if any(c < 0 for c in move_costs):
        raise InvalidInputError("edge costs must be nonnegative")
    costs = [move_costs[m] for m in fp.moves]
    if fp.source == fp.sink:
        return FlowSolution((), Fraction(0), Outcome.OPTIMAL, n_edges)

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
        return FlowSolution((), None, Outcome.INFEASIBLE, n_edges)

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
    return FlowSolution(tuple(chosen), Fraction(dist[fp.source], scale), Outcome.OPTIMAL, n_edges)


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


def extract_alignment(
    rg: ReachabilityGraph, sp: SynchronousProduct, sol: FlowSolution
) -> Alignment:
    """Walk the solution's path and map its edges to moves.

    Raises :class:`InternalInvariantError` unless the path leaves each node
    at most once and runs edge to edge from the initial to the final node,
    and its moves cost the objective.
    """
    if sol.status is not Outcome.OPTIMAL:
        raise InvalidInputError("extract_alignment expects an OPTIMAL solution")
    path: list[int] = []
    left: set[int] = set()
    cur = rg.initial_index
    for e in sol.path:
        if cur in left:
            raise InternalInvariantError(f"two chosen edges leave node {cur}")
        if rg.tails[e] != cur:
            raise InternalInvariantError("chosen edges do not form a single path")
        left.add(cur)
        path.append(rg.moves[e])
        cur = rg.heads[e]
    if cur != rg.final_index:
        raise InternalInvariantError("chosen edges do not form an initial-to-final path")

    alignment = Alignment.from_path(sp, path, sum(map(sp.prices.__getitem__, path)), Method.LP)
    if alignment.total_cost != sol.objective:
        raise InternalInvariantError("alignment cost disagrees with LP objective")
    return alignment


_INF = math.inf  # the label of a node that cannot reach the final node

#: Most cells one :class:`ModelGraph`'s layer memo keeps (see there for why).
LAYER_MEMO_CELLS = 1 << 17
#: The cells a stored step counts: its key, value and dict slot take about
#: 240 bytes, as many as 30 of a shape's 8-byte label slots.
STEP_CELLS = 32


class ModelGraph:
    """The model's reachability graph under one token cap and cost config,
    kept on the memo.  Ids are the memo's.  ``into[v]`` lists
    ``(u, c)`` per model move from ``u`` to ``v`` at scaled cost ``c``, bar
    self-loops and capped moves, and ``edges`` holds them as flat tail,
    head and cost arrays; ``sync[a]`` lists ``(u, s)`` per uncapped move of
    a transition labelled ``a``.  ``shapes[0]``, the last layer of every
    trace, is each marking's model-only distance to ``final``, certified
    once here.

    The layer memo.  Layer ``pos`` of a trace is ``F_a(layer pos + 1)`` for
    the event ``a`` at ``pos``, where ``F_a`` takes one min per log and
    synchronous move and then settles through model moves, so
    ``F_a(x + k) = F_a(x) + k`` for any integer ``k``.  A layer is thus a
    shape, ``shapes[i]``, the layer less its minimum, plus an offset, and
    ``steps[i, a]`` is ``(i', delta)``: ``F_a(shapes[i]) = shapes[i'] +
    delta``.  Shape 0's minimum is ``final``'s label, 0.  A step is
    certified (:func:`_certify_step`) when it is made and stored only after
    it passed; the check compares labels of the same two layers, so a
    shift of both keeps its verdict and the step needs no check on reuse.
    Shapes are tuples whose ints are interned per graph.  The memo stores
    at most :data:`LAYER_MEMO_CELLS` cells, a shape counting its length and
    a step :data:`STEP_CELLS`; past that, a step is made, certified and used
    but not kept.

    Why 2**17 cells, about 1 MB of shape slots and steps (plus one interned
    int per distinct label value, at most 65 in any model below): on the
    ``flow-rg`` benchmark's two corpus passes the largest memo of one model
    (m06) holds 29,390 cells (243 shapes of 58 labels, 478 steps), and
    ``hybrid-log``'s model 6,776, so the bound binds on no benchmark model.
    """

    def __init__(self, net: PetriNet, memo: SuccessorMemo, reached: list[bool], cost: CostConfig) -> None:
        tau, self.log_cost, _ = cost.scaled
        self.costs = [tau if lbl is TAU else self.log_cost for lbl in net.labels]
        self.reachable = memo.reachable
        final = memo.ids[net.final_marking]
        self.final = final if reached[final] else None
        self.into: list[list[tuple[int, int]]] = [[] for _ in reached]
        self.edges: tuple[list[int], list[int], list[int]] = ([], [], [])
        self.sync: dict[str, list[tuple[int, int]]] = {}
        for u, r in enumerate(reached):
            for j, s in memo.table[u] if r else ():
                if s >= 0 and net.labels[j] is not TAU:
                    self.sync.setdefault(net.labels[j], []).append((u, s))
                if s >= 0 and s != u:
                    self.into[s].append((u, self.costs[j]))
                    for ends, v in zip(self.edges, (u, s, self.costs[j])):
                        ends.append(v)
        self.shapes: list[tuple] = []
        self.steps: dict[tuple[int, str], tuple[int, int]] = {}
        self.cells = 0
        self._shape_ids: dict[tuple, int] = {}
        self._ints: dict = {}
        self._lock = threading.Lock()
        if self.final is not None:
            to_final = [_INF] * len(reached)
            to_final[self.final] = 0
            _certify_last(self, _settle(to_final, self.into, (self.final,)))
            self._keep(tuple(to_final))

    def _keep(self, shape: tuple) -> int:
        # Callers hold the lock (or own the graph); the id is published last.
        shape = tuple(map(self._ints.setdefault, shape, shape))
        self.shapes.append(shape)
        self.cells += len(shape)
        self._shape_ids[shape] = j = len(self.shapes) - 1
        return j

    def layers(self, trace: Sequence[str]) -> list[tuple[tuple, int]]:
        """Each position's layer as ``(shape, offset)``, position 0 first:
        node ``(u, pos)``'s label is ``shape[u] + offset``.  Needs ``final``."""
        shapes, steps = self.shapes, self.steps
        i, shape, offset = 0, shapes[0], 0
        layers = [(shape, offset)]
        for a in reversed(trace):
            step = steps.get((i, a))
            if step is None:
                i, shape, delta = self._step(i, shape, a)
            else:
                i, delta = step
                shape = shapes[i]
            offset += delta
            layers.append((shape, offset))
        layers.reverse()
        return layers

    def _step(self, i: int | None, nxt: tuple, a: str) -> tuple[int | None, tuple, int]:
        """``F_a(nxt)``, certified, then stored as :meth:`_store` does."""
        # Log moves keep the next layer's labels consistent, so only the
        # nodes that a synchronous move lowers are sources.
        here, lowered = [d + self.log_cost for d in nxt], []
        for u, s in self.sync.get(a, ()):
            if nxt[s] < here[u]:
                here[u] = nxt[s]
                lowered.append(u)
        here = _settle(here, self.into, lowered)
        _certify_step(self, a, here, nxt)
        return self._store(i, a, here)

    def _store(self, i: int | None, a: str, here: list) -> tuple[int | None, tuple, int]:
        """Layer ``here`` as ``(shape id, shape, delta)``, keeping the step
        from shape ``i`` under ``a`` when ``i`` is not None and there is
        room; the id is None when the shape is not kept."""
        delta = min(here)
        shape = tuple(d - delta for d in here)
        with self._lock:
            j = self._shape_ids.get(shape)
            need = STEP_CELLS + (len(shape) if j is None else 0)
            if i is not None and self.cells + need <= LAYER_MEMO_CELLS:
                if j is None:
                    j = self._keep(shape)
                self.steps[i, a] = (j, delta)
                self.cells += STEP_CELLS
        return j, shape if j is None else self.shapes[j], delta


class LayeredGraph(NamedTuple):
    """The reachability graph of ``product`` as its model's graph and trace:
    node ``(u, pos)`` per reachable model marking ``u`` and trace position ``pos``."""

    product: SynchronousProduct
    model: ModelGraph
    nodes: int
    edges: int


def layered_graph(sp: SynchronousProduct, limits: ExplorationLimits) -> LayeredGraph | None:
    """The graph that ``build_reachability_graph`` builds without budgets,
    counted but not built; None when the model alone has more than
    ``max_nodes`` reachable markings (the memo stops expanding there).

    Each reachable model marking is reachable at each trace position, so
    the graph has |R|(n + 1) nodes; its edges are the model moves at each
    position, each event's synchronous moves and a log move per node and
    event.  A build under ``limits`` is cut short exactly when the counts
    exceed ``max_nodes`` or ``max_edges``.
    """
    net, n = sp.process_net, len(sp.trace_labels)
    memo = sp.memo
    reached = memo.reached(limits.max_nodes)
    if reached is None:
        return None
    model = memo.priced.get(sp.cost) or memo.priced.setdefault(
        sp.cost, ModelGraph(net, memo, reached, sp.cost)
    )
    nodes = model.reachable * (n + 1)
    edges = (n + 1) * len(model.edges[0]) + n * model.reachable
    edges += sum(len(model.sync.get(a, ())) for a in sp.trace_labels)
    return LayeredGraph(sp, model, nodes, edges)


def _settle(dist: list, into: list[list[tuple[int, int]]], sources) -> list:
    """Lower ``dist`` in place to the cheapest way on through model moves:
    one Dijkstra over the reversed moves from all ``sources`` at once, which
    must be the only heads ``v`` with some ``dist[u] > c + dist[v]``."""
    heap = [(dist[v], v) for v in set(sources)]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, c in into[v]:
            if d + c < dist[u]:
                dist[u] = d + c
                heapq.heappush(heap, (d + c, u))
    return dist


def solve_layered(graph: LayeredGraph) -> Alignment | None:
    """Solve the flow LP on ``graph`` one trace position at a time; None
    when the final node is unreachable.

    Layer ``pos`` holds the integer distance of each node ``(u, pos)`` to
    the final node, read off the model's layer memo
    (:meth:`ModelGraph.layers`): layer n is the model's ``shapes[0]``, and
    layer pos is layer pos + 1 seeded through event pos's log and
    synchronous moves, then settled.  The walk from ``(m_0, 0)`` takes the
    first tight move that :meth:`~flowalign.sync_product.SynchronousProduct.out`
    lists: the built graph's lowest-index tight edge, as a node's out-edges
    are contiguous and in that order.  Every layer was certified on every
    edge, as :func:`_certify` does, when the memo made it; the walk's
    integer total is the cost.
    """
    sp, model = graph.product, graph.model
    if model.final is None:
        return None
    layers = model.layers(sp.trace_labels)
    prices, split, final = sp.prices, sp.split, sp.final
    path, spent, key = [], 0, 0
    while key != final:
        u, pos = split(key)
        shape, offset = layers[pos]
        label = shape[u] + offset
        for k, s in sp.out(key):
            if s is None or s == key:
                continue
            c = prices[k]
            v, at = split(s)
            shape, offset = layers[at]
            if c + shape[v] + offset == label:
                break
        else:
            s = None
        if s is None or len(path) > graph.nodes:
            raise InternalInvariantError(f"label walk stuck at model marking {u}, position {pos}")
        key = s
        path.append(k)
        spent += c
    shape, offset = layers[0]
    if spent != shape[0] + offset:
        raise InternalInvariantError("path cost disagrees with distance label")
    return Alignment.from_path(sp, path, spent, Method.LP)


def _certify_last(model: ModelGraph, last: Sequence) -> None:
    """Prove ``dist(tail) <= cost + dist(head)`` on every model move of the
    last layer ``last``, and ``dist(final) = 0``."""
    if last[model.final] != 0:
        raise InternalInvariantError("sink distance is nonzero")
    tails, heads, costs = model.edges
    at = last.__getitem__
    if any(map(operator.gt, map(at, tails), map(operator.add, costs, map(at, heads)))):
        raise InternalInvariantError("distance label violated by a model move at the last position")


def _certify_step(model: ModelGraph, a: str, here: Sequence, nxt: Sequence) -> None:
    """Prove ``dist(tail) <= cost + dist(head)`` on every edge of layer
    ``here``, event ``a``'s layer below ``nxt``, given that every model move
    holds on ``nxt``: on its log and synchronous moves into ``nxt``, and on
    the model moves into its changed heads, the ``v`` with ``here[v] !=
    nxt[v] + L`` (``L`` the log cost), read from the labels.  A model move
    ``t -> h`` of cost ``c`` into any other head holds: ``here[t] <= nxt[t]
    + L <= c + nxt[h] + L = c + here[h]``, by ``t``'s log move and by
    ``nxt``.  So from :func:`_certify_last` on the last layer, by induction
    upward, this passes exactly when the scan of every edge does.
    """
    up = list(map(operator.add, nxt, itertools.repeat(model.log_cost)))
    if any(map(operator.gt, here, up)) or any(here[u] > nxt[s] for u, s in model.sync.get(a, ())):
        raise InternalInvariantError(f"distance label violated by event {a!r}")
    for v in itertools.compress(range(len(here)), map(operator.ne, here, up)):
        dv = here[v]
        for u, c in model.into[v]:
            if here[u] > c + dv:
                raise InternalInvariantError(f"distance label violated by a model move under event {a!r}")


def unaligned_outcome(sp: SynchronousProduct, limits: ExplorationLimits) -> Outcome:
    """Why product ``sp`` has no alignment: its model alone has more
    than ``limits.max_nodes`` reachable markings, or else the model's
    marking equation has no solution from its initial to its final marking
    (a necessary condition for reaching it, under any cap), or else the
    cap pruned a move from a reachable model marking (and so from the
    product, which pairs each with every trace position), or else none."""
    memo = sp.memo
    if memo.reached(limits.max_nodes) is None:
        return Outcome.OVER_BUDGET
    if model_relaxation(sp.process_net, sp.cost).seed is None:
        return Outcome.INFEASIBLE
    return Outcome.CAPPED if memo.capped else Outcome.INFEASIBLE


def lp_align(
    sp: SynchronousProduct, limits: ExplorationLimits | None = None
) -> tuple[Alignment | None, RunStats]:
    """Product -> counted reachability graph -> layered flow solve ->
    alignment.

    Returns ``(None, stats)`` with ``OVER_BUDGET`` when the graph's counts
    exceed a budget (then ``rg_nodes`` and ``rg_edges`` are those counts,
    or 0 when the model alone exceeds ``max_nodes``), and otherwise with
    the outcome :func:`unaligned_outcome` gives when the final marking is
    unreached.  ``None`` means the default limits.
    """
    limits = limits or ExplorationLimits()
    stats = RunStats(Method.LP, Outcome.OVER_BUDGET)
    alignment = None
    t0 = time.perf_counter_ns()
    graph = layered_graph(sp, limits)
    t1 = time.perf_counter_ns()
    if graph is not None:
        stats.rg_nodes, stats.rg_edges = graph.nodes, graph.edges
        if graph.nodes <= limits.max_nodes and graph.edges <= limits.max_edges:
            alignment = solve_layered(graph)
            if alignment is not None:
                stats.outcome = Outcome.OPTIMAL
            else:
                stats.outcome = unaligned_outcome(sp, limits)
    stats.rg_build_us = (t1 - t0) // 1000
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

