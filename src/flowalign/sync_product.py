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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import xml.etree.ElementTree as ET

from .errors import InvalidInputError
from .petri import TAU, Marking, PetriNet, firing_data, is_path_net, trace_model_order

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
    """Merged net over the union of process and (renamed) trace places.

    ``net.transitions`` and ``moves`` share one canonical order: all
    synchronous moves (by process transition, then trace position), then
    model moves (process order), then log moves (trace order).  Markings
    of ``net`` are the concatenation of a process-net marking and a
    trace-net marking (``num_process_places`` is the split point).

    ``sync_moves_at[pos]`` lists ``(process transition index, move index)``
    for the synchronous moves at trace position ``pos`` (0-based), in
    process order; ``trace_places[pos]`` is the trace-net place that holds
    the token after ``pos`` events (``pos`` in ``0..n``).
    """

    net: PetriNet
    moves: tuple[SyncMove, ...]
    num_process_places: int
    process_net: PetriNet
    trace_labels: tuple[str, ...]
    sync_moves_at: tuple[tuple[tuple[int, int], ...], ...]
    trace_places: tuple[int, ...]

    @property
    def initial_marking(self) -> Marking:
        return self.net.initial_marking

    @property
    def final_marking(self) -> Marking:
        return self.net.final_marking

    @functools.cached_property
    def move_by_id(self) -> dict[str, SyncMove]:
        return {m.move_id: m for m in self.moves}

    def move(self, move_id: str) -> SyncMove:
        return self.move_by_id[move_id]

    def counts(self) -> dict[MoveKind, int]:
        out = {kind: 0 for kind in MoveKind}
        for m in self.moves:
            out[m.kind] += 1
        return out


def _prime(ids: tuple[str, ...], taken: set[str]) -> dict[str, str]:
    """Rename trace-side ids by appending primes until disjoint from ``taken``."""
    suffix = "'"
    while any((i + suffix) in taken for i in ids):
        suffix += "'"
    return {i: i + suffix for i in ids}


def build_sync_product(
    sn: PetriNet, tn: PetriNet, cost: CostConfig = CostConfig()
) -> SynchronousProduct:
    """Construct the synchronous product of process model ``sn`` and trace model ``tn``.

    ``tn`` must be a path net (as produced by
    :func:`~flowalign.petri.build_trace_model`); its node ids are renamed
    with a prime suffix so the id spaces stay disjoint.
    """
    if not is_path_net(tn):
        raise InvalidInputError("trace-side net is not a path net (not a trace model)")

    taken = set(sn.places) | set(sn.transitions)
    place_map = _prime(tn.places, taken)
    trans_map = _prime(tn.transitions, taken | {place_map[p] for p in tn.places})

    trace_order = trace_model_order(tn)  # chain order, positions 1..n
    trace_labels = tuple(tn.label(t) for t in trace_order)

    sn_arcs_in: dict[str, list[tuple[str, int]]] = {t: [] for t in sn.transitions}
    sn_arcs_out: dict[str, list[tuple[str, int]]] = {t: [] for t in sn.transitions}
    for src, tgt, w in sn.arcs:
        if tgt in sn_arcs_in:
            sn_arcs_in[tgt].append((src, w))
        else:
            sn_arcs_out[src].append((tgt, w))
    tn_arcs_in: dict[str, list[tuple[str, int]]] = {t: [] for t in tn.transitions}
    tn_arcs_out: dict[str, list[tuple[str, int]]] = {t: [] for t in tn.transitions}
    for src, tgt, w in tn.arcs:
        if tgt in tn_arcs_in:
            tn_arcs_in[tgt].append((place_map[src], w))
        else:
            tn_arcs_out[src].append((place_map[tgt], w))

    unprime = {v: k for k, v in trans_map.items()}
    moves: list[SyncMove] = []
    arcs: list[tuple[str, str, int]] = []
    labels: list[str | None] = []

    def add_move(move: SyncMove) -> None:
        moves.append(move)
        if move.process_transition is not None:
            for p, w in sn_arcs_in[move.process_transition]:
                arcs.append((p, move.move_id, w))
            for p, w in sn_arcs_out[move.process_transition]:
                arcs.append((move.move_id, p, w))
        if move.trace_transition is not None:
            orig = unprime[move.trace_transition]
            for p, w in tn_arcs_in[orig]:
                arcs.append((p, move.move_id, w))
            for p, w in tn_arcs_out[orig]:
                arcs.append((move.move_id, p, w))

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
            add_move(
                SyncMove(
                    move_id=f"({t},{tt})",
                    kind=MoveKind.SYNC,
                    process_transition=t,
                    trace_transition=tt,
                    label_pair=(lbl, lbl),
                    cost=Fraction(0),
                )
            )
            labels.append(lbl)

    for t in sn.transitions:
        lbl = sn.label(t)
        silent = lbl is TAU
        add_move(
            SyncMove(
                move_id=f"({t},{GAP})",
                kind=MoveKind.MODEL_TAU if silent else MoveKind.MODEL,
                process_transition=t,
                trace_transition=None,
                label_pair=(lbl, GAP),
                cost=cost.tau_cost if silent else cost.deviation_cost,
            )
        )
        labels.append(lbl)

    for pos, t_trace in enumerate(trace_order):
        tt = trans_map[t_trace]
        add_move(
            SyncMove(
                move_id=f"({GAP},{tt})",
                kind=MoveKind.LOG,
                process_transition=None,
                trace_transition=tt,
                label_pair=(GAP, trace_labels[pos]),
                cost=cost.deviation_cost,
            )
        )
        labels.append(trace_labels[pos])

    places = sn.places + tuple(place_map[p] for p in tn.places)
    net = PetriNet(
        places=places,
        transitions=tuple(m.move_id for m in moves),
        arcs=tuple(arcs),
        labels=tuple(labels),
        initial_marking=sn.initial_marking + tn.initial_marking,
        final_marking=sn.final_marking + tn.final_marking,
    )
    return SynchronousProduct(
        net=net,
        moves=tuple(moves),
        num_process_places=len(sn.places),
        process_net=sn,
        trace_labels=trace_labels,
        sync_moves_at=tuple(map(tuple, sync_moves_at)),
        trace_places=(tn.initial_marking.index(1),)
        + tuple(firing_data(tn)[1][tn.transition_index[t]][0][0] for t in trace_order),
    )


def product_for_trace(
    sn: PetriNet, trace, cost: CostConfig = CostConfig()
) -> SynchronousProduct:
    """Convenience: build the trace model for ``trace`` and take the product."""
    from .petri import build_trace_model

    return build_sync_product(sn, build_trace_model(trace), cost)


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
