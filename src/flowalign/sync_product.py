"""Synchronous product of a process model and one trace, with move costs.

The trace side of a product is always the trace model of its activities:
the path net of :func:`~flowalign.petri.build_trace_model`, whose place
``pos`` holds the token after ``pos`` events.  A product is therefore
fully given by the process net, the activity sequence and the costs, and
:func:`product_for_trace` builds it from those, without a trace net.

The product's transitions are *moves*: synchronous moves pair a process
transition with a trace position carrying the same activity label, model
moves replay a process transition against a gap, and log moves consume a
trace position against a gap.  Costs follow the standard scheme:
synchronous moves are free, silent model moves cost a tiny epsilon, and
every visible deviation costs ``deviation_cost``.

The engines read a product through two compositions of the process net's
data with the trace path: :class:`ProductGraph` (states and successors,
from the model's successor memo, grown lazily into an int-keyed graph
that the reachability build and A* both expand) and
:func:`incidence_rows` (the marking equation's rows, from the model's
firing data).  The model moves depend only on the process net and the
costs, so each net keeps them per :class:`CostConfig` and every product
of that net shares them.  The product as a Petri net,
:attr:`SynchronousProduct.net`, is an export view built on first read
(MILP matrices, PNML export).

Costs are exact rationals so that total alignment costs compare exactly
and the number of silent moves is recoverable from the fractional part.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import xml.etree.ElementTree as ET

from .errors import InvalidInputError
from .petri import TAU, Marking, PetriNet, Trace, firing_data, successor_memo, trace_ids

#: Placeholder for "no move on this side" in a move's label pair.
GAP = ">>"

DEFAULT_EPSILON = Fraction(1, 10**6)

_ZERO = Fraction(0)  # the cost of every synchronous move


class MoveKind(Enum):
    SYNC = "sync"
    MODEL = "model"
    MODEL_TAU = "model_tau"
    LOG = "log"


@dataclass(frozen=True)
class SyncMove:
    """One transition of the synchronous product.

    ``label_pair`` is (process-side label, trace-side label) where the
    process side may be :data:`~flowalign.petri.TAU` for silent moves and
    either side may be :data:`GAP`.
    """

    move_id: str
    kind: MoveKind
    process_transition: str | None
    trace_transition: str | None
    label_pair: tuple[str | None, str | None]
    cost: Fraction


@dataclass(frozen=True)
class CostConfig:
    """Move-cost parameters; synchronous moves always cost 0."""

    tau_cost: Fraction = DEFAULT_EPSILON
    deviation_cost: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau_cost", Fraction(self.tau_cost))
        object.__setattr__(self, "deviation_cost", Fraction(self.deviation_cost))
        if not 0 < self.tau_cost < self.deviation_cost:
            raise InvalidInputError(
                f"need 0 < tau_cost < deviation_cost, got {self.tau_cost} and {self.deviation_cost}"
            )


@dataclass(frozen=True)
class SynchronousProduct:
    """The product of a process net and the trace model of one trace.

    ``moves`` is in one canonical order: all synchronous moves (by process
    transition, then trace position), then model moves (process order),
    then log moves (trace order).  A product marking is a process-net
    marking followed by one entry per trace position ``0..n``, with the
    one trace token at the number of events consumed so far.

    ``sync_moves_at[pos]`` lists ``(process transition index, move index)``
    for the synchronous moves at trace position ``pos`` (0-based), in
    process order.
    """

    moves: tuple[SyncMove, ...]
    process_net: PetriNet
    trace_labels: tuple[str, ...]
    sync_moves_at: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def initial_marking(self) -> Marking:
        return self.process_net.initial_marking + _one_hot(0, len(self.trace_labels))

    @property
    def final_marking(self) -> Marking:
        n = len(self.trace_labels)
        return self.process_net.final_marking + _one_hot(n, n)

    @functools.cached_property
    def net(self) -> PetriNet:
        """The product as a Petri net, built on first access: the process
        places, then the renamed places of the trace model
        (:func:`~flowalign.petri.build_trace_model`); one transition per
        move, named by ``move_id``, with the arcs of its process transition,
        then of its trace transition.  The engines do not read it."""
        sn = self.process_net
        places, trans = _trace_renaming(sn, len(self.trace_labels))
        # The trace transition of event pos + 1 moves the token from place pos to pos + 1.
        into = {t: [(places[pos], 1)] for pos, t in enumerate(trans)}
        out = {t: [(places[pos + 1], 1)] for pos, t in enumerate(trans)}
        for src, tgt, w in sn.arcs:
            if src in sn.transition_index:
                out.setdefault(src, []).append((tgt, w))
            else:
                into.setdefault(tgt, []).append((src, w))
        arcs: list[tuple[str, str, int]] = []
        for move in self.moves:
            for t in (move.process_transition, move.trace_transition):
                if t is not None:
                    arcs += [(p, move.move_id, w) for p, w in into.get(t, ())]
                    arcs += [(move.move_id, p, w) for p, w in out.get(t, ())]
        return PetriNet(
            places=sn.places + tuple(places),
            transitions=tuple(m.move_id for m in self.moves),
            arcs=tuple(arcs),
            labels=tuple(
                m.label_pair[1] if m.kind is MoveKind.LOG else m.label_pair[0] for m in self.moves
            ),
            initial_marking=self.initial_marking,
            final_marking=self.final_marking,
        )

    def counts(self) -> dict[MoveKind, int]:
        out = {kind: 0 for kind in MoveKind}
        for m in self.moves:
            out[m.kind] += 1
        return out


def _one_hot(pos: int, n: int) -> Marking:
    """The trace part of a product marking with ``pos`` of ``n`` events consumed."""
    return (0,) * pos + (1,) + (0,) * (n - pos)


def _trace_renaming(sn: PetriNet, n: int) -> tuple[list[str], list[str]]:
    """The product's names for the place ids, then the transition ids, of
    an ``n``-event trace model, in positional order: each group gets the
    fewest primes that keep it clear of the ids taken."""
    taken = set(sn.places) | set(sn.transitions)
    renamed = []
    for ids in trace_ids(n):
        suffix = "'"
        while any((i + suffix) in taken for i in ids):
            suffix += "'"
        renamed.append([i + suffix for i in ids])
        taken.update(renamed[-1])
    return renamed[0], renamed[1]


def _model_moves(sn: PetriNet, cost: CostConfig) -> tuple[SyncMove, ...]:
    """The model moves of every product of ``sn`` under ``cost``, in process
    order: built once and kept on the net beside its successor memos, and
    likewise left out of its pickles."""
    cache = sn.__dict__.setdefault("_model_moves", {})
    moves = cache.get(cost)
    if moves is None:
        made = []
        for t, lbl in zip(sn.transitions, sn.labels):
            kind = MoveKind.MODEL_TAU if lbl is TAU else MoveKind.MODEL
            c = cost.tau_cost if lbl is TAU else cost.deviation_cost
            made.append(SyncMove(f"({t},{GAP})", kind, t, None, (lbl, GAP), c))
        moves = cache.setdefault(cost, tuple(made))
    return moves


def product_for_trace(
    sn: PetriNet, trace: Trace, cost: CostConfig = CostConfig()
) -> SynchronousProduct:
    """The synchronous product of process model ``sn`` and the trace model
    of ``trace``, built from its activities.

    The trace model's ids are renamed with a prime suffix so the id spaces
    stay disjoint.  The product's Petri net is built only when
    :attr:`SynchronousProduct.net` is read.
    """
    trace_labels = tuple(trace.activities)
    trace_moves = _trace_renaming(sn, len(trace_labels))[1]  # events 1..n
    moves: list[SyncMove] = []

    # Synchronous moves: full label-match cross product, ordered by
    # process transition then trace position.
    sync_moves_at: list[list[tuple[int, int]]] = [[] for _ in trace_labels]
    for j, (t, lbl) in enumerate(zip(sn.transitions, sn.labels)):
        if lbl is TAU:
            continue
        for pos, tt in enumerate(trace_moves):
            if trace_labels[pos] != lbl:
                continue
            sync_moves_at[pos].append((j, len(moves)))
            moves.append(SyncMove(f"({t},{tt})", MoveKind.SYNC, t, tt, (lbl, lbl), _ZERO))

    moves += _model_moves(sn, cost)

    for tt, lbl in zip(trace_moves, trace_labels):
        moves.append(SyncMove(f"({GAP},{tt})", MoveKind.LOG, None, tt, (GAP, lbl), cost.deviation_cost))

    return SynchronousProduct(
        moves=tuple(moves),
        process_net=sn,
        trace_labels=trace_labels,
        sync_moves_at=tuple(map(tuple, sync_moves_at)),
    )


class ProductGraph:
    """The product's state space under token cap ``cap``, grown on demand
    as an int-keyed graph.

    A product state is a process marking plus the position ``pos`` of the
    one token on the trace path.  Its key is ``pid * (n + 1) + pos``, where
    ``pid`` numbers the process marking in the model's
    :class:`~flowalign.petri.SuccessorMemo` and ``n`` is the trace length,
    so the initial state's key is 0.  Node ``i`` is state ``keys[i]``,
    numbered in the order expansions discover it; node 0 is the initial
    state and ``final_index`` the final state's node once it is found.
    :meth:`marking` makes a node's product marking when it is read.

    :meth:`expand` expands a run of nodes in order.  It appends each one's
    out-edges to ``tails``, ``heads`` and ``moves`` in the product's
    canonical move order, which is the order in which firing every move of
    :attr:`SynchronousProduct.net` meets them:

    1. the synchronous move of each process transition ``j`` enabled at
       ``pid`` whose label is the event at ``pos``, to ``(pid_j, pos + 1)``,
       in ascending ``j``;
    2. the model move of every ``j`` enabled at ``pid``, to ``(pid_j, pos)``,
       in ascending ``j``;
    3. the log move at ``pos``, to ``(pid, pos + 1)``, unless the trace is
       done.

    A move that would put more than ``cap`` tokens on a place (exactly when
    its process successor does, because a trace place holds at most one
    token) counts in ``cap_prunes``, and a move back to the node itself in
    ``self_loops``; neither becomes an edge.  A new node is added only
    with its discovering edge.  An edge past ``max_edges``, or a node past
    ``max_nodes``, stops the expansion before it and sets ``truncated``;
    the graph and its counts are then those a full search has at that
    point, so a graph grown under smaller budgets is a prefix of one grown
    under larger budgets.

    Both engines grow one: the reachability graph build expands it one
    breadth-first layer at a time, A* one popped node at a time.  Both
    therefore reject, with :class:`InvalidLimitsError` from the model's
    memo, an initial marking that already exceeds ``cap``.
    """

    def __init__(
        self,
        sp: SynchronousProduct,
        cap: int,
        max_nodes: int = sys.maxsize,
        max_edges: int = sys.maxsize,
    ) -> None:
        proc = sp.process_net
        self._memo = memo = successor_memo(proc, cap)
        n = len(sp.trace_labels)
        self._n, self._stride = n, n + 1
        self._max_nodes, self._max_edges = max_nodes, max_edges
        self.keys: list[int] = [0]
        self._index: dict[int, int] = {0: 0}
        self.tails: list[int] = []
        self.heads: list[int] = []
        self.moves: list[int] = []
        self.cap_prunes = self.self_loops = 0
        self.truncated = False
        self._final_key = memo.ids[proc.final_marking] * self._stride + n
        self.final_index = 0 if self._final_key == 0 else None

        # Move tables indexed by process transition j, None where j makes no
        # such move: the synchronous moves at each position, the model
        # moves, and the log move at each position (read at j = 0).
        width = len(proc.transitions)
        model0, log0 = _move_offsets(sp)
        self._sync_of: list[list[int | None]] = []
        for pairs in sp.sync_moves_at:
            sync = [None] * width
            for j, k in pairs:
                sync[j] = k
            self._sync_of.append(sync)
        self._model_of = range(model0, model0 + width)
        self._log_of = [(k,) for k in range(log0, log0 + n)]
        self._trace_part: list[Marking | None] = [None] * self._stride

    def expand(self, first: int, stop: int) -> int:
        """Expand nodes ``first`` to ``stop - 1`` in order, appending their
        out-edges; returns how many were expanded, the one a budget halted
        included."""
        keys, index, tails, heads, moves = self.keys, self._index, self.tails, self.heads, self.moves
        memo = self._memo
        table = memo.table
        stride, n, final_key = self._stride, self._n, self._final_key
        sync_of, model_of, log_of = self._sync_of, self._model_of, self._log_of
        max_nodes, max_edges = self._max_nodes, self._max_edges
        cap_prunes = self_loops = 0
        halted = False
        for node in range(first, stop):
            key = keys[node]
            pid, pos = divmod(key, stride)
            row = table[pid]
            if row is None:
                row = memo.expand(pid)
            # One phase per move kind, in canonical order: its move table, the
            # (j, process successor id) pairs it reads, and the trace position
            # its moves lead to.
            if pos < n:
                phases = (
                    (sync_of[pos], row, pos + 1),
                    (model_of, row, pos),
                    (log_of[pos], ((0, pid),), pos + 1),
                )
            else:
                phases = ((model_of, row, pos),)
            for move_of, pairs, at in phases:
                for j, s in pairs:
                    move = move_of[j]
                    if move is None:
                        continue
                    if s < 0:
                        cap_prunes += 1
                        continue
                    succ = s * stride + at
                    if succ == key:
                        self_loops += 1
                        continue
                    head = index.get(succ)
                    if head is None:
                        if len(keys) >= max_nodes or len(tails) >= max_edges:
                            halted = True
                            break
                        head = len(keys)
                        keys.append(succ)
                        index[succ] = head
                        if succ == final_key:
                            self.final_index = head
                    elif len(tails) >= max_edges:
                        halted = True
                        break
                    tails.append(node)
                    heads.append(head)
                    moves.append(move)
                if halted:
                    break
            if halted:
                self.truncated = True
                stop = node + 1
                break
        self.cap_prunes += cap_prunes
        self.self_loops += self_loops
        return stop - first

    def has_moves(self, node: int) -> bool:
        """Whether any move is enabled at ``node``, capped ones and
        self-loops included; reads no edges."""
        pid, pos = divmod(self.keys[node], self._stride)
        return pos < self._n or bool(self._memo.expand(pid))

    def marking(self, node: int) -> Marking:
        """The full product marking of ``node``."""
        pid, pos = divmod(self.keys[node], self._stride)
        part = self._trace_part[pos]
        if part is None:
            part = self._trace_part[pos] = _one_hot(pos, self._n)
        return self._memo.markings[pid] + part


def _move_offsets(sp: SynchronousProduct) -> tuple[int, int]:
    """The indices of the first model move and of the first log move."""
    log0 = len(sp.moves) - len(sp.trace_labels)
    return log0 - len(sp.process_net.transitions), log0


def incidence_rows(sp: SynchronousProduct) -> list[list[int]]:
    """The incidence matrix of :attr:`SynchronousProduct.net` (post minus
    pre) as integer rows, one per product place: the marking equation's
    rows.  Composed like :class:`ProductGraph`'s edges: a move's column is its
    process transition's column of the model's firing data plus, for a
    move that consumes event ``pos``, -1 at trace position ``pos`` and +1
    at ``pos + 1``."""
    pre, post = firing_data(sp.process_net)
    width, n = len(sp.process_net.places), len(sp.trace_labels)
    model0, log0 = _move_offsets(sp)
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


def cost_vector(sp: SynchronousProduct) -> tuple[Fraction, ...]:
    """Move costs in the product's canonical transition order."""
    return tuple(m.cost for m in sp.moves)


def product_to_pnml(sp: SynchronousProduct) -> bytes:
    """Debug serialization: the product net as PNML with per-move cost annotations."""
    from .model_io import serialize_pnml

    root = ET.fromstring(serialize_pnml(sp.net, net_id="sync-product"))
    by_id = {}
    for elem in root.iter():
        if elem.tag == "transition":
            by_id[elem.get("id")] = elem
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
