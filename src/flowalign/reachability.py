"""Bounded breadth-first reachability graphs of synchronous products.

The graph of a synchronous product is a breadth-first search over the
states of a :class:`~flowalign.sync_product.SynchronousProduct`, whose
``out`` lists each state's moves in canonical order.  The build numbers
new nodes, applies the node and edge budgets and counts what it prunes,
which no other walk of the product needs.  Nodes are numbered in discovery order,
so the queue is node order and needs no container of its own, and each
process marking's successors are read once per model and token cap,
however many traces are aligned.

Exploration is deterministic: nodes are expanded in discovery order, so
two builds of the same product under the same limits yield identical node
and edge orderings.  Self-loop edges (marking unchanged) are dropped and
counted; they cannot lie on a minimum-cost path under nonnegative costs.
Per-place token counts are capped to guarantee termination on unbounded
nets; capped branches are counted, not errors.

The graph stores its nodes as state keys and its edges as three int
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

from .errors import InvalidLimitsError
from .petri import Marking
from .sync_product import SynchronousProduct, View, cost_vector


@dataclass(frozen=True)
class ExplorationLimits:
    """The flow engine's node and edge budgets; each must be >= 1."""

    max_nodes: int = 2_000_000
    max_edges: int = 8_000_000

    def __post_init__(self) -> None:
        for name in ("max_nodes", "max_edges"):
            if getattr(self, name) < 1:
                raise InvalidLimitsError(f"{name} must be >= 1, got {getattr(self, name)}")


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


class NodeView(View):
    """The nodes of a graph as product markings, from the pair of its
    :class:`~flowalign.sync_product.SynchronousProduct` and its node keys."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._of[1])

    def _item(self, i: int) -> Marking:
        sp, keys = self._of
        return sp.marking(keys[i])


class EdgeView(View):
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

    An edge past ``max_edges``, or a new node past ``max_nodes``, halts
    the build before it and sets ``stats.truncated`` (not an error): the
    graph and its counts are then those an unbudgeted build has at that
    point.  ``final_index`` is set iff the final marking was reached.
    ``None`` means the default limits.
    """
    limits = limits or ExplorationLimits()
    keys, index = [0], {0: 0}
    tails, heads, moves = [], [], []
    stats = RGStats()
    final_index = 0 if sp.final == 0 else None
    for node, key in enumerate(keys):
        stats.nodes_expanded += 1
        for move, succ in sp.out(key):
            if succ is None or succ == key:
                stats.cap_prunes += succ is None
                stats.edges_pruned_self_loops += succ == key
                continue
            head = index.get(succ)
            if len(tails) >= limits.max_edges or (head is None and len(keys) >= limits.max_nodes):
                stats.truncated = True
                break
            if head is None:
                head = index[succ] = len(keys)
                keys.append(succ)
                if succ == sp.final:
                    final_index = head
            tails.append(node)
            heads.append(head)
            moves.append(move)
        if stats.truncated:
            break
    return ReachabilityGraph(
        nodes=NodeView((sp, keys)),
        tails=tails,
        heads=heads,
        moves=moves,
        move_ids=tuple(m.move_id for m in sp.moves),
        move_costs=cost_vector(sp),
        final_index=final_index,
        stats=stats,
    )

