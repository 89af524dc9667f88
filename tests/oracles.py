"""Independent oracles for cross-checking the solvers.

Deliberately primitive: shortest paths by Bellman-Ford relaxation to a
fixpoint (no heaps, no tie-breaking, no shared code with the kernels
under test), brute-force replay enumeration, a breadth-first search
that fires every product transition at every full product marking, the
marking equation posed on the whole product (one row per product place,
one column per move), a product's moves built eagerly by comparing
every transition with every event, the flow certificate checked on
every model move of every layer, total
unimodularity by enumerating every square minor, a column-by-column check
of a row-class certificate, determinants by exact ``Fraction``
elimination, and sparse triplets written out as dense rows.  Also the
text and PNML dumps that fixtures diff against, and an XES writer that
builds the whole ElementTree.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from collections import deque
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from explicit_lp import NodeArcIncidence, det_int, product_net
from flowalign.bench import write_csv
from flowalign.errors import InternalInvariantError, InvalidLimitsError
from flowalign.flow import FlowProblem, ModelGraph
from flowalign.model_io import EventLog, serialize_pnml
from flowalign.petri import TAU, Marking, firing_data, successors
from flowalign.reachability import ExplorationLimits, ReachabilityGraph, RGEdge, RGStats
from flowalign.simplex import solve_min_eq
from flowalign.sync_product import (
    GAP,
    MoveKind,
    SyncMove,
    SynchronousProduct,
    _trace_renaming,
    cost_vector,
)


def bellman_ford_from(rg: ReachabilityGraph, source: int) -> list[Fraction | None]:
    """Distance from ``source`` to every node; None = unreachable."""
    dist: list[Fraction | None] = [None] * len(rg.nodes)
    dist[source] = Fraction(0)
    for _ in range(len(rg.nodes)):
        changed = False
        for e in rg.edges:
            d = dist[e.tail]
            if d is None:
                continue
            nd = d + e.cost
            if dist[e.head] is None or nd < dist[e.head]:
                dist[e.head] = nd
                changed = True
        if not changed:
            break
    return dist


def bellman_ford_to(rg: ReachabilityGraph, target: int) -> list[Fraction | None]:
    """Distance from every node to ``target`` (relaxation on reversed edges)."""
    dist: list[Fraction | None] = [None] * len(rg.nodes)
    dist[target] = Fraction(0)
    for _ in range(len(rg.nodes)):
        changed = False
        for e in rg.edges:
            d = dist[e.head]
            if d is None:
                continue
            nd = d + e.cost
            if dist[e.tail] is None or nd < dist[e.tail]:
                dist[e.tail] = nd
                changed = True
        if not changed:
            break
    return dist


def oracle_shortest_cost(rg: ReachabilityGraph) -> Fraction | None:
    """Exhaustive-relaxation shortest-path cost initial -> final."""
    if rg.final_index is None:
        return None
    return bellman_ford_from(rg, rg.initial_index)[rg.final_index]


class ReferenceGraph(NamedTuple):
    nodes: tuple[Marking, ...]
    edges: tuple[RGEdge, ...]
    final_index: int | None
    stats: RGStats
    initial_index = 0  # not a field: the search starts at node 0


def reference_reachability_graph(
    sp: SynchronousProduct, limits: ExplorationLimits | None = None
) -> ReferenceGraph:
    """The graph as a BFS over full product markings builds it: every
    product transition is fired at every node, with no per-model memo."""
    if limits is None:
        limits = ExplorationLimits()
    net = product_net(sp)
    init = net.initial_marking
    cap = sp.token_cap
    if cap < 1 or any(v > cap for v in init):
        raise InvalidLimitsError(f"token_cap={cap} is below 1 or the initial marking")
    final = net.final_marking
    costs = [m.cost for m in sp.moves]
    trans_ids = net.transitions

    nodes: list[Marking] = [init]
    index: dict[Marking, int] = {init: 0}
    edges: list[RGEdge] = []
    stats = RGStats()
    final_index = 0 if init == final else None

    queue: deque[int] = deque([0])
    halted = False
    while queue and not halted:
        cur_idx = queue.popleft()
        cur = nodes[cur_idx]
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
                index[succ] = head
                if succ == final:
                    final_index = head
                queue.append(head)
            else:
                if len(edges) >= limits.max_edges:
                    stats.truncated = True
                    halted = True
                    break
            edges.append(RGEdge(cur_idx, trans_ids[j], head, costs[j]))

    return ReferenceGraph(
        nodes=tuple(nodes),
        edges=tuple(edges),
        final_index=final_index,
        stats=stats,
    )


def incidence_rows(sp: SynchronousProduct) -> list[list[int]]:
    """The incidence matrix of ``explicit_lp.product_net(sp)`` (post minus
    pre) as integer rows, one per product place: the product marking
    equation's rows.  Composed from the model's firing data and the trace
    path: a move's column is its process transition's column plus, for a
    move that consumes event ``pos``, -1 at trace position ``pos`` and +1
    at ``pos + 1``."""
    pre, post = firing_data(sp.process_net)
    width, n = len(sp.process_net.places), len(sp.trace_labels)
    model0, log0 = sp.offsets
    # (move index, process transition or None, event position or None)
    columns = [(k, j, pos) for pos, pairs in enumerate(sp.sync_moves_at) for j, k in pairs]
    columns += [(model0 + j, j, None) for j in range(len(pre))]
    columns += [(log0 + pos, None, pos) for pos in range(n)]
    rows = [[0] * len(sp.moves) for _ in range(width + n + 1)]
    for k, j, pos in columns:
        if j is not None:
            for i, w in pre[j]:
                rows[i][k] -= w
            for i, w in post[j]:
                rows[i][k] += w
        if pos is not None:
            rows[width + pos][k] -= 1
            rows[width + pos + 1][k] += 1
    return rows


def product_marking_equation(sp: SynchronousProduct, m: Marking) -> Fraction | float:
    """The optimum of ``min c.x s.t. I x = m_f - m, x >= 0`` over the
    product's moves, cold, in the product's own costs; ``inf`` when
    infeasible."""
    rhs = [f - v for f, v in zip(sp.final_marking, m)]
    result = solve_min_eq(incidence_rows(sp), rhs, cost_vector(sp))
    return float("inf") if result is None else result[0]


def dense(b: NodeArcIncidence) -> list[list[int]]:
    """The ``b.rows x b.cols`` matrix of ``b``'s triplets, as int rows;
    repeated ``(row, col)`` entries add up."""
    out = [[0] * b.cols for _ in range(b.rows)]
    for r, c, v in b.entries:
        out[r][c] += v
    return out


def brute_force_tu(matrix: list[list[int]]) -> bool:
    """True iff every square submatrix has determinant 0, 1 or -1."""
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    for k in range(1, min(m, n) + 1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                if abs(det_int([[matrix[i][j] for j in cols] for i in rows])) > 1:
                    return False
    return True


def row_classes_hold(b: NodeArcIncidence, classes: tuple[int, ...]) -> bool:
    """True iff ``classes`` gives each row 0 or 1, and every column with
    two nonzeros has them in different classes when their signs agree and
    in the same class when they differ."""
    if len(classes) != b.rows or any(k not in (0, 1) for k in classes):
        return False
    columns: dict[int, list[tuple[int, int]]] = {}
    for r, c, v in b.entries:
        columns.setdefault(c, []).append((r, v))
    for entries in columns.values():
        if len(entries) == 2:
            (r0, v0), (r1, v1) = entries
            if (classes[r0] != classes[r1]) != (v0 == v1):
                return False
    return True


def fraction_det(matrix: list[list[int]]) -> Fraction:
    """Determinant by Gaussian elimination over ``Fraction``, swapping in
    the first row with a nonzero pivot."""
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return det


def edge_list_text(rg: ReachabilityGraph) -> str:
    """Edge list as ``tail head transition cost`` lines, for fixture diffing."""
    lines = [f"{e.tail}\t{e.head}\t{e.transition}\t{e.cost}" for e in rg.edges]
    return "\n".join(lines) + ("\n" if lines else "")


def incidence_triplet_text(b: NodeArcIncidence) -> str:
    """Sparse triplets as ``row col value`` lines."""
    lines = [f"{r}\t{c}\t{v}" for r, c, v in b.entries]
    return "\n".join(lines) + ("\n" if lines else "")


def records_to_csv_text(records: list) -> str:
    """The benchmark CSV of ``records`` as one string."""
    buf = io.StringIO()
    write_csv(records, buf)
    return buf.getvalue()


def etree_xes(event_log: EventLog) -> bytes:
    """The log as XES, written by building the whole tree with ElementTree."""
    root = ET.Element("log", attrib={"xes.version": "1.0"})
    for trace in event_log.traces:
        tr = ET.SubElement(root, "trace")
        ET.SubElement(tr, "string", key="concept:name", value=trace.case_id)
        for act in trace.activities:
            ev = ET.SubElement(tr, "event")
            ET.SubElement(ev, "string", key="concept:name", value=act)
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def product_to_pnml(sp: SynchronousProduct) -> bytes:
    """Debug serialization: the product net as PNML with per-move cost annotations."""
    root = ET.fromstring(serialize_pnml(product_net(sp), net_id="sync-product"))
    by_id = {elem.get("id"): elem for elem in root.iter() if elem.tag == "transition"}
    for move in sp.moves:
        ET.SubElement(
            by_id[move.move_id],
            "toolspecific",
            tool="flowalign",
            version="1",
            cost=str(move.cost),
            kind=move.kind.value,
        )
    return ET.tostring(root, encoding="utf-8", xml_declaration=True)


def balance(fp: FlowProblem) -> tuple[int, ...]:
    """The flow LP's right-hand side: +1 at the source, -1 at the sink, 0
    elsewhere (all 0 if they coincide)."""
    b = [0] * fp.num_nodes
    if fp.source != fp.sink:
        b[fp.source], b[fp.sink] = 1, -1
    return tuple(b)


def eager_moves(sp: SynchronousProduct) -> tuple[SyncMove, ...]:
    """Every move of ``sp``, built in the canonical order by comparing
    every process transition with every event (|T| x n)."""
    sn, labels, cost = sp.process_net, sp.trace_labels, sp.cost
    trace_moves = _trace_renaming(sn, len(labels))[1]
    moves = []
    for t, lbl in zip(sn.transitions, sn.labels):
        if lbl is TAU:
            continue
        for tt, a in zip(trace_moves, labels):
            if a == lbl:
                moves.append(SyncMove(f"({t},{tt})", MoveKind.SYNC, t, tt, (lbl, lbl), Fraction(0)))
    for t, lbl in zip(sn.transitions, sn.labels):
        kind, c = (MoveKind.MODEL_TAU, cost.tau_cost) if lbl is TAU else (MoveKind.MODEL, cost.deviation_cost)
        moves.append(SyncMove(f"({t},{GAP})", kind, t, None, (lbl, GAP), c))
    for tt, a in zip(trace_moves, labels):
        moves.append(SyncMove(f"({GAP},{tt})", MoveKind.LOG, None, tt, (GAP, a), cost.deviation_cost))
    return tuple(moves)


def full_scan_certificate(model: ModelGraph, trace: tuple[str, ...], layers: list[list]) -> None:
    """``dist(tail) <= cost + dist(head)`` on every edge of the layered
    graph, every model move checked on every layer; raises
    :class:`InternalInvariantError` at the first violation."""
    if layers[-1][model.final] != 0:
        raise InternalInvariantError("sink distance is nonzero")
    for pos, here in enumerate(layers):
        for t, h, c in zip(*model.edges):
            if here[t] > c + here[h]:
                raise InternalInvariantError(f"distance label violated by a model move at position {pos}")
        if pos < len(trace):
            nxt = layers[pos + 1]
            if any(d > model.log_cost + dn for d, dn in zip(here, nxt)) or any(
                here[u] > nxt[s] for u, s in model.sync.get(trace[pos], ())
            ):
                raise InternalInvariantError(f"distance label violated by event {pos}")
