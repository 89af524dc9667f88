"""Bounded breadth-first reachability graphs and their node-arc incidence.

Exploration is deterministic: layers are processed in discovery order and
successors are generated in the product's canonical transition order, so
two builds of the same product under the same limits yield identical node
and edge orderings.  Self-loop edges (marking unchanged) are dropped and
counted; they cannot lie on a minimum-cost path under nonnegative costs.
Per-place token counts are capped to guarantee termination on unbounded
nets; capped branches are counted, not errors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, InvalidLimitsError
from .petri import Marking, successors
from .sync_product import MoveKind, SynchronousProduct


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
    n_model = sum(1 for m in sp.moves if m.kind in (MoveKind.MODEL, MoveKind.MODEL_TAU))
    n_log = sum(1 for m in sp.moves if m.kind is MoveKind.LOG)
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
    """Markings as nodes (node 0 = initial), firings as weighted edges."""

    nodes: tuple[Marking, ...]
    edges: tuple[RGEdge, ...]
    final_index: int | None
    stats: RGStats
    initial_index: int = 0


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
    net = sp.net
    init = net.initial_marking
    if any(v > limits.token_cap for v in init):
        raise InvalidLimitsError(
            f"initial marking exceeds token_cap={limits.token_cap}"
        )
    final = net.final_marking
    costs = [m.cost for m in sp.moves]
    trans_ids = net.transitions
    cap = limits.token_cap

    nodes: list[Marking] = [init]
    depth: list[int] = [0]
    index: dict[Marking, int] = {init: 0}
    edges: list[RGEdge] = []
    stats = RGStats()
    final_index = 0 if init == final else None

    queue: deque[int] = deque([0])
    halted = False
    while queue and not halted:
        cur_idx = queue.popleft()
        cur = nodes[cur_idx]
        d = depth[cur_idx]
        stats.depth_reached = max(stats.depth_reached, d)
        if d >= limits.max_depth:
            # Depth limit: this node stays unexpanded; only counts as
            # truncation if something was actually enabled here.
            if next(successors(net, cur, cap), None) is not None:
                stats.truncated = True
            continue
        stats.nodes_expanded += 1
        for j, succ in successors(net, cur, cap):
            if succ is None:
                stats.cap_prunes += 1
                continue
            if succ == cur:
                stats.edges_pruned_self_loops += 1
                continue
            head = index.get(succ)
            if head is None:
                # A new node and its discovering edge are added atomically;
                # hitting either budget halts before adding, so results
                # under smaller limits are prefixes of larger-limit runs.
                if len(nodes) >= limits.max_nodes or len(edges) >= limits.max_edges:
                    stats.truncated = True
                    halted = True
                    break
                head = len(nodes)
                nodes.append(succ)
                depth.append(d + 1)
                index[succ] = head
                stats.depth_reached = max(stats.depth_reached, d + 1)
                if succ == final:
                    final_index = head
                queue.append(head)
            else:
                if len(edges) >= limits.max_edges:
                    stats.truncated = True
                    halted = True
                    break
            edges.append(RGEdge(cur_idx, trans_ids[j], head, costs[j]))

    return ReachabilityGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        final_index=final_index,
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
    for c, e in enumerate(rg.edges):
        entries.append((e.tail, c, 1))
        entries.append((e.head, c, -1))
    return NodeArcIncidence(rows=len(rg.nodes), cols=len(rg.edges), entries=tuple(entries))


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
