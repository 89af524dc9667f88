"""Synchronous product of a process model and a trace model, with move costs.

The product's transitions are *moves*: synchronous moves pair a process
transition with a trace position carrying the same activity label, model
moves replay a process transition against a gap, and log moves consume a
trace position against a gap.  Costs follow the standard scheme:
synchronous moves are free, silent model moves cost a tiny epsilon, and
every visible deviation costs ``deviation_cost``.

Costs are exact rationals so that total alignment costs compare exactly
and the number of silent moves is recoverable from the fractional part.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import xml.etree.ElementTree as ET

from .errors import InvalidInputError
from .petri import TAU, Marking, PetriNet, successor_memo, trace_chain

#: Placeholder for "no move on this side" in a move's label pair.
GAP = ">>"

DEFAULT_EPSILON = Fraction(1, 10**6)


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
    """The product of a process net and a (renamed) trace net.

    ``moves`` is in one canonical order: all synchronous moves (by process
    transition, then trace position), then model moves (process order),
    then log moves (trace order).  A product marking is the concatenation
    of a process-net marking and a trace-net marking.

    ``sync_moves_at[pos]`` lists ``(process transition index, move index)``
    for the synchronous moves at trace position ``pos`` (0-based), in
    process order; ``trace_places[pos]`` is the trace-net place that holds
    the token after ``pos`` events (``pos`` in ``0..n``).
    """

    moves: tuple[SyncMove, ...]
    process_net: PetriNet
    trace_net: PetriNet
    trace_labels: tuple[str, ...]
    sync_moves_at: tuple[tuple[tuple[int, int], ...], ...]
    trace_places: tuple[int, ...]

    @property
    def initial_marking(self) -> Marking:
        return self.process_net.initial_marking + self.trace_net.initial_marking

    @property
    def final_marking(self) -> Marking:
        return self.process_net.final_marking + self.trace_net.final_marking

    @functools.cached_property
    def net(self) -> PetriNet:
        """The product as a Petri net, built on first access: the process
        places, then the renamed trace places; one transition per move, named
        by ``move_id``, with the arcs of its process transition, then of its
        trace transition.  The engines' state space does not read it."""
        sn, tn = self.process_net, self.trace_net
        place_map, trans_map = _trace_renaming(sn, tn)
        into: dict[str, list[tuple[str, int]]] = {}
        out: dict[str, list[tuple[str, int]]] = {}
        # Process ids keep their names (empty maps); trace ids are renamed.
        for net, places, trans in ((sn, {}, {}), (tn, place_map, trans_map)):
            for src, tgt, w in net.arcs:
                if src in net.transition_index:
                    out.setdefault(trans.get(src, src), []).append((places.get(tgt, tgt), w))
                else:
                    into.setdefault(trans.get(tgt, tgt), []).append((places.get(src, src), w))
        arcs: list[tuple[str, str, int]] = []
        for move in self.moves:
            for t in (move.process_transition, move.trace_transition):
                if t is not None:
                    arcs += [(p, move.move_id, w) for p, w in into.get(t, ())]
                    arcs += [(move.move_id, p, w) for p, w in out.get(t, ())]
        return PetriNet(
            places=sn.places + tuple(place_map[p] for p in tn.places),
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


def _trace_renaming(sn: PetriNet, tn: PetriNet) -> tuple[dict[str, str], dict[str, str]]:
    """The product's names for the trace net's places, then transitions:
    each group gets the fewest primes that keep it clear of the ids taken."""
    taken = set(sn.places) | set(sn.transitions)
    renamed = []
    for ids in (tn.places, tn.transitions):
        suffix = "'"
        while any((i + suffix) in taken for i in ids):
            suffix += "'"
        renamed.append({i: i + suffix for i in ids})
        taken |= set(renamed[-1].values())
    return renamed[0], renamed[1]


def build_sync_product(
    sn: PetriNet, tn: PetriNet, cost: CostConfig = CostConfig()
) -> SynchronousProduct:
    """Construct the synchronous product of process model ``sn`` and trace model ``tn``.

    ``tn`` must be a path net (as produced by
    :func:`~flowalign.petri.build_trace_model`); its node ids are renamed
    with a prime suffix so the id spaces stay disjoint.  The product's
    Petri net is built only when :attr:`SynchronousProduct.net` is read.
    """
    chain = trace_chain(tn)
    if chain is None:
        raise InvalidInputError("trace-side net is not a path net (not a trace model)")

    trans_map = _trace_renaming(sn, tn)[1]
    trace_order = [tn.transitions[j] for j in chain[0]]  # positions 1..n
    trace_labels = tuple(tn.label(t) for t in trace_order)
    moves: list[SyncMove] = []

    # Synchronous moves: full label-match cross product, ordered by
    # process transition then trace position.
    sync_moves_at: list[list[tuple[int, int]]] = [[] for _ in trace_order]
    for j, t in enumerate(sn.transitions):
        lbl = sn.label(t)
        if lbl is TAU:
            continue
        for pos, t_trace in enumerate(trace_order):
            if trace_labels[pos] != lbl:
                continue
            tt = trans_map[t_trace]
            sync_moves_at[pos].append((j, len(moves)))
            moves.append(
                SyncMove(
                    move_id=f"({t},{tt})",
                    kind=MoveKind.SYNC,
                    process_transition=t,
                    trace_transition=tt,
                    label_pair=(lbl, lbl),
                    cost=Fraction(0),
                )
            )

    for t in sn.transitions:
        lbl = sn.label(t)
        silent = lbl is TAU
        moves.append(
            SyncMove(
                move_id=f"({t},{GAP})",
                kind=MoveKind.MODEL_TAU if silent else MoveKind.MODEL,
                process_transition=t,
                trace_transition=None,
                label_pair=(lbl, GAP),
                cost=cost.tau_cost if silent else cost.deviation_cost,
            )
        )

    for pos, t_trace in enumerate(trace_order):
        tt = trans_map[t_trace]
        moves.append(
            SyncMove(
                move_id=f"({GAP},{tt})",
                kind=MoveKind.LOG,
                process_transition=None,
                trace_transition=tt,
                label_pair=(GAP, trace_labels[pos]),
                cost=cost.deviation_cost,
            )
        )

    return SynchronousProduct(
        moves=tuple(moves),
        process_net=sn,
        trace_net=tn,
        trace_labels=trace_labels,
        sync_moves_at=tuple(map(tuple, sync_moves_at)),
        trace_places=tuple(chain[1]),
    )


def product_for_trace(
    sn: PetriNet, trace, cost: CostConfig = CostConfig()
) -> SynchronousProduct:
    """Convenience: build the trace model for ``trace`` and take the product."""
    from .petri import build_trace_model

    return build_sync_product(sn, build_trace_model(trace), cost)


def product_space(
    sp: SynchronousProduct, cap: int
) -> tuple[Callable[[int], list[tuple[int, int]]], Callable[[int], Marking], int]:
    """The product's state space under token cap ``cap``, over int keys:
    ``(successors, marking, final key)``.

    A product marking is a process marking plus the position ``pos`` of
    the one token on the trace path.  Its key is ``pid * (n + 1) + pos``,
    where ``pid`` numbers the process marking in the model's
    :class:`~flowalign.petri.SuccessorMemo` and ``n`` is the trace length,
    so the initial marking's key is 0; ``marking(key)`` is the full
    product marking.  ``successors(key)`` lists ``(move index, successor
    key)`` in the product's canonical move order, which is the order in
    which firing every move of :attr:`SynchronousProduct.net` meets them:

    1. the synchronous move of each process transition ``j`` enabled at
       ``pid`` whose label is the event at ``pos``, to ``(pid_j, pos + 1)``,
       in ascending ``j``;
    2. the model move of every ``j`` enabled at ``pid``, to ``(pid_j, pos)``,
       in ascending ``j``;
    3. the log move at ``pos``, to ``(pid, pos + 1)``, unless the trace is
       done.

    A negative successor key means that the move would put more than
    ``cap`` tokens on a place, which happens exactly when the process
    successor does, because a trace place holds at most one token.  A
    successor key equal to ``key`` is a self-loop.
    """
    proc = sp.process_net
    memo = successor_memo(proc, cap)
    table, expand, markings = memo.table, memo.expand, memo.markings
    n = len(sp.trace_labels)
    stride = n + 1
    model0 = len(sp.moves) - len(proc.transitions) - n
    log0 = len(sp.moves) - n
    sync_at = [dict(pairs) for pairs in sp.sync_moves_at]
    trace_places, width = sp.trace_places, len(sp.trace_net.places)
    trace_part: list[Marking | None] = [None] * stride

    # Closures over locals: both engines call these once per state.
    def successors(key: int) -> list[tuple[int, int]]:
        pid, pos = divmod(key, stride)
        row = table[pid]
        if row is None:
            row = expand(pid)
        if pos == n:
            return [(model0 + j, s * stride + pos) for j, s in row]
        sync, nxt = sync_at[pos], pos + 1
        succs = [(sync[j], s * stride + nxt) for j, s in row if j in sync]
        succs += [(model0 + j, s * stride + pos) for j, s in row]
        succs.append((log0 + pos, key + 1))
        return succs

    def marking(key: int) -> Marking:
        pid, pos = divmod(key, stride)
        part = trace_part[pos]
        if part is None:
            part = trace_part[pos] = tuple(int(i == trace_places[pos]) for i in range(width))
        return markings[pid] + part

    return successors, marking, memo.ids[proc.final_marking] * stride + n


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
