"""Bounded breadth-first reachability graphs and their node-arc incidence.

The graph of a synchronous product is a breadth-first search over a
:class:`~flowalign.sync_product.ProductGraph`: this module only orders
the expansions and applies the depth limit, while the product graph
composes each node's successors, numbers new nodes, applies the node and
edge budgets and counts what it prunes.  Nodes are numbered in discovery
order, so the queue is node order and needs no container of its own, and
each process marking's successors are read once per model and token cap,
however many traces are aligned.

Exploration is deterministic: layers are processed in discovery order, so
two builds of the same product under the same limits yield identical node
and edge orderings.  Self-loop edges (marking unchanged) are dropped and
counted; they cannot lie on a minimum-cost path under nonnegative costs.
Per-place token counts are capped to guarantee termination on unbounded
nets; capped branches are counted, not errors.

The graph stores its nodes as int keys and its edges as three int
sequences (tail, head, product move index).
:attr:`ReachabilityGraph.nodes` presents the nodes as product markings
and :attr:`ReachabilityGraph.edges` the edges as :class:`RGEdge` values,
each made only when read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, InvalidLimitsError
from .petri import Marking
from .sync_product import ProductGraph, SynchronousProduct, cost_vector


@dataclass(frozen=True)
class ExplorationLimits:
    """Resource bounds for graph construction.

    ``max_depth`` may be 0 (keep only the initial marking, unexpanded);
    the other limits must be >= 1.
    """

    max_depth: int
    max_nodes: int = 2_000_000
    max_edges: int = 8_000_000
    token_cap: int = 8

    def __post_init__(self) -> None:
        if self.max_depth < 0:
            raise InvalidLimitsError(f"max_depth must be >= 0, got {self.max_depth}")
        for name in ("max_nodes", "max_edges", "token_cap"):
            if getattr(self, name) < 1:
                raise InvalidLimitsError(f"{name} must be >= 1, got {getattr(self, name)}")


def default_limits(sp: SynchronousProduct) -> ExplorationLimits:
    """Depth covers the all-deviation alignment (full model run plus one
    log move per event) with slack; other limits are generous caps."""
    n_model, n_log = len(sp.process_net.transitions), len(sp.trace_labels)
    return ExplorationLimits(max_depth=2 * (n_model + n_log) + 10)


class RGEdge(NamedTuple):
    tail: int
    transition: str
    head: int
    cost: Fraction


@dataclass
class RGStats:
    nodes_expanded: int = 0
    edges_pruned_self_loops: int = 0
    cap_prunes: int = 0
    depth_reached: int = 0
    truncated: bool = False


@dataclass(frozen=True, eq=False)
class ReachabilityGraph:
    """Markings as nodes (node 0 = initial); edge ``e`` fires product move
    ``moves[e]`` (named ``move_ids[moves[e]]``, costing
    ``move_costs[moves[e]]``) from node ``tails[e]`` to node ``heads[e]``."""

    nodes: "NodeView"
    tails: Sequence[int]
    heads: Sequence[int]
    moves: Sequence[int]
    move_ids: tuple[str, ...]
    move_costs: tuple[Fraction, ...]
    final_index: int | None
    stats: RGStats
    initial_index: int = 0

    @property
    def edges(self) -> "EdgeView":
        return EdgeView(self)


class _View(Sequence):
    """A sequence whose items are made on access: a slice is a tuple, and
    it equals any sequence of equal items."""

    __slots__ = ("_of",)
    __hash__ = None

    def __init__(self, of) -> None:
        self._of = of

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        return self._item(i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self)!r})"


class NodeView(_View):
    """The nodes of a grown :class:`~flowalign.sync_product.ProductGraph` as
    product markings; its length is the graph's node count."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._of.keys)

    def _item(self, i: int) -> Marking:
        return self._of.marking(i)


class EdgeView(_View):
    """The edges of a graph as :class:`RGEdge` values; its length is that of
    the edge arrays."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._of.tails)

    def _item(self, i: int) -> RGEdge:
        rg = self._of
        m = rg.moves[i]
        return RGEdge(rg.tails[i], rg.move_ids[m], rg.heads[i], rg.move_costs[m])


def build_reachability_graph(
    sp: SynchronousProduct, limits: ExplorationLimits | None = None
) -> ReachabilityGraph:
    """BFS from the product's initial marking under ``limits``.

    Stops when the frontier empties or a limit trips (``stats.truncated``
    is set; tripping a limit is not an error).  ``final_index`` is set iff
    the final marking was reached.
    """
    if limits is None:
        limits = default_limits(sp)
    graph = ProductGraph(sp, limits.token_cap, limits.max_nodes, limits.max_edges)
    keys = graph.keys
    # Nodes are numbered in discovery order, so the queue is node order and
    # each BFS layer is a run of nodes: at the loop head, nodes [layer,
    # len(keys)) are at depth ``depth``, and ``reached`` is the last one's.
    layer = depth = reached = expanded = 0
    while depth < limits.max_depth and layer < len(keys):
        end = len(keys)
        expanded += graph.expand(layer, end)
        if len(keys) > end:
            reached = depth + 1
        if graph.truncated:
            break
        layer, depth = end, depth + 1
    else:
        # Depth limit: the last layer stays unexpanded; it only counts as
        # truncation if something was actually enabled there.
        graph.truncated = any(graph.has_moves(v) for v in range(layer, len(keys)))

    stats = RGStats(
        nodes_expanded=expanded,
        edges_pruned_self_loops=graph.self_loops,
        cap_prunes=graph.cap_prunes,
        depth_reached=reached,
        truncated=graph.truncated,
    )
    return ReachabilityGraph(
        nodes=NodeView(graph),
        tails=graph.tails,
        heads=graph.heads,
        moves=graph.moves,
        move_ids=tuple(m.move_id for m in sp.moves),
        move_costs=cost_vector(sp),
        final_index=graph.final_index,
        stats=stats,
    )


@dataclass(frozen=True, eq=False)
class NodeArcIncidence:
    """Sparse node-arc incidence: +1 at an edge's tail row, -1 at its head.

    Every column holds exactly one +1 and one -1, which makes the matrix
    totally unimodular (it is the incidence matrix of a directed graph).
    """

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.int64)
        for r, c, v in self.entries:
            out[r, c] += v
        return out


def node_arc_incidence(rg: ReachabilityGraph) -> NodeArcIncidence:
    """One column per edge, +1 at the tail row and -1 at the head row."""
    entries: list[tuple[int, int, int]] = []
    for c, (t, h) in enumerate(zip(rg.tails, rg.heads)):
        entries.append((t, c, 1))
        entries.append((h, c, -1))
    return NodeArcIncidence(rows=len(rg.nodes), cols=len(rg.tails), entries=tuple(entries))


def edge_endpoints(b: NodeArcIncidence) -> tuple[list[int], list[int]]:
    """The tail row (+1) and head row (-1) of every column.

    Raises :class:`InvalidInputError` unless every column holds exactly one
    +1 and one -1 and nothing else, inside the matrix's bounds.
    """
    tails = [-1] * b.cols
    heads = [-1] * b.cols
    for r, c, v in b.entries:
        ends = tails if v == 1 else heads if v == -1 else None
        if ends is None or not (0 <= c < b.cols and 0 <= r < b.rows) or ends[c] != -1:
            raise InvalidInputError(f"incidence entry ({r}, {c}, {v}) breaks the edge-column structure")
        ends[c] = r
    if -1 in tails or -1 in heads:
        raise InvalidInputError("incidence matrix has a column without both endpoints")
    return tails, heads


def check_tu_column_structure(b: NodeArcIncidence) -> bool:
    """True iff every column is exactly one +1 and one -1 (and nothing else)."""
    try:
        edge_endpoints(b)
    except InvalidInputError:
        return False
    return True


def edge_list_text(rg: ReachabilityGraph) -> str:
    """Edge list as ``tail head transition cost`` lines, for fixture diffing."""
    lines = [f"{e.tail}\t{e.head}\t{e.transition}\t{e.cost}" for e in rg.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def incidence_triplet_text(b: NodeArcIncidence) -> str:
    """Sparse triplets as ``row col value`` lines."""
    lines = [f"{r}\t{c}\t{v}" for r, c, v in b.entries]
    return "\n".join(lines) + ("\n" if lines else "")
