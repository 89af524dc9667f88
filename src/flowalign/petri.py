"""Petri-net core: markings, successors, incidence matrices, trace model ids.

A marking is a plain tuple of token counts, one entry per place in the
net's canonical place order.  Nets are immutable after construction and
safe to share between threads; every operation here is a pure function.

A net also keeps caches of derived data: its firing data and one
:class:`SuccessorMemo` per token cap.  The memo numbers the markings
reached from the initial marking in discovery order and keeps each one's
successors once they have been read through :func:`successors`.
Every walk of a product reads its moves from ``SynchronousProduct.out``,
composed from it, so aligning a model against many traces fires each model
transition once per marking, not once per product state, and every walk
rejects the caps the memo refuses: one below 1 or below the initial marking.
Its size is bounded by the model's state space under the cap, not by the
length or number of the traces aligned against it.  A memo fills under
its own lock: a thread that misses re-checks under the lock before it
numbers a marking or reads its successors, so concurrent builds see one
numbering, and a filled entry never changes, so reads take no lock.  A
pickle or copy of a net carries its six fields only, so a net sent to a
worker process starts without any cache: neither these nor the model
moves and marking-equation relaxations that ``sync_product`` keeps on it.

The trace model of an ``n``-event trace is a path net whose ids
(:func:`trace_ids`) sort in positional order.  No net of it is built:
``sync_product`` composes the trace side from the path itself.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections import deque
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Mapping

from .errors import InvalidInputError, InvalidLimitsError

#: Label of a silent transition.  Parsers map absent/invisible activity
#: names to this value; it is never a user-supplied string.
TAU = None

Marking = tuple[int, ...]

Arc = tuple[str, str, int]  # (source id, target id, weight)

#: Per transition, its sparse ``(place index, weight)`` arcs.
ArcSets = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class PetriNet:
    """A labeled marked Petri net.

    ``places`` and ``transitions`` fix the canonical orders used by every
    marking vector and incidence matrix derived from this net.  ``labels``
    is aligned with ``transitions``; an entry of :data:`TAU` marks a silent
    transition.  Arcs carry positive integer weights (weight 0 is tolerated
    so :func:`validate_workflow_net` can diagnose it).
    """

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    arcs: tuple[Arc, ...]
    labels: tuple[str | None, ...]
    initial_marking: Marking
    final_marking: Marking

    def __post_init__(self) -> None:
        pset, tset = set(self.places), set(self.transitions)
        if len(pset) != len(self.places) or len(tset) != len(self.transitions):
            raise InvalidInputError("duplicate place or transition ids")
        if pset & tset:
            raise InvalidInputError(
                f"places and transitions share ids: {sorted(pset & tset)}"
            )
        if len(self.labels) != len(self.transitions):
            raise InvalidInputError("labels must align with transitions")
        for src, tgt, w in self.arcs:
            p2t = src in pset and tgt in tset
            t2p = src in tset and tgt in pset
            if not (p2t or t2p):
                raise InvalidInputError(f"arc ({src!r}, {tgt!r}) does not join a place and a transition")
            if not isinstance(w, int) or w < 0:
                raise InvalidInputError(f"arc ({src!r}, {tgt!r}) has non-integer or negative weight {w!r}")
        for name, m in (("initial", self.initial_marking), ("final", self.final_marking)):
            if len(m) != len(self.places):
                raise InvalidInputError(f"{name} marking has {len(m)} entries for {len(self.places)} places")
            if any(v < 0 for v in m):
                raise InvalidInputError(f"{name} marking has negative entries")

    @classmethod
    def build(
        cls,
        places: Iterable[str],
        transitions: Iterable[str],
        arcs: Iterable[tuple[str, str] | Arc],
        labels: Mapping[str, str | None],
        initial: Mapping[str, int],
        final: Mapping[str, int],
    ) -> "PetriNet":
        """Construct a net with the canonical (lexicographic) node order.

        Arc entries may be ``(source, target)`` pairs (weight 1) or
        ``(source, target, weight)`` triples.  ``initial`` and ``final``
        map place ids to token counts; unmentioned places get 0.
        """
        ps = tuple(sorted(places))
        ts = tuple(sorted(transitions))
        norm: list[Arc] = []
        for a in arcs:
            if len(a) == 2:
                norm.append((a[0], a[1], 1))
            else:
                norm.append((a[0], a[1], int(a[2])))
        unknown = set(labels) - set(ts)
        if unknown:
            raise InvalidInputError(f"labels reference unknown transitions: {sorted(unknown)}")
        return cls(
            places=ps,
            transitions=ts,
            arcs=tuple(sorted(norm)),
            labels=tuple(labels.get(t, TAU) for t in ts),
            initial_marking=tuple(int(initial.get(p, 0)) for p in ps),
            final_marking=tuple(int(final.get(p, 0)) for p in ps),
        )

    @functools.cached_property
    def place_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.places)}

    @functools.cached_property
    def transition_index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.transitions)}

    @functools.cached_property
    def _firing_data(self) -> tuple[ArcSets, ArcSets]:
        # Duplicate arcs add up, weight 0 drops out, places sort by index.
        pidx, tidx = self.place_index, self.transition_index
        pre: list[dict[int, int]] = [{} for _ in self.transitions]
        post: list[dict[int, int]] = [{} for _ in self.transitions]
        for src, tgt, w in self.arcs:
            if src in pidx:  # place -> transition consumes
                sets, i = pre[tidx[tgt]], pidx[src]
            else:  # transition -> place produces
                sets, i = post[tidx[src]], pidx[tgt]
            sets[i] = sets.get(i, 0) + w
        return tuple(
            tuple(tuple(sorted((i, w) for i, w in d.items() if w)) for d in side)
            for side in (pre, post)
        )

    def __getstate__(self) -> dict:
        # The fields only: every cache in ``__dict__`` is rebuilt on use.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def label(self, transition: str) -> str | None:
        return self.labels[self.transition_index[transition]]


#: An integer matrix as a tuple of its rows.
IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True, eq=False)
class IncidenceTriple:
    """Backward, forward, and net incidence matrices of a net.

    All three are ``|P| x |T|`` integer matrices in the net's canonical
    orders, each a tuple of ``|P|`` int row tuples (row ``i`` is place
    ``i``, entry ``j`` transition ``j``); ``incidence == w_plus - w_minus``
    entrywise.
    """

    w_minus: IntMatrix
    w_plus: IntMatrix
    incidence: IntMatrix


@dataclass(frozen=True)
class Trace:
    """One observed activity sequence.  Empty traces are legal."""

    case_id: str
    activities: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.activities)


def incidence_matrices(net: PetriNet) -> IncidenceTriple:
    """Backward/forward/net incidence matrices, deterministic per net.

    Built from :func:`firing_data` on each call; the engines read the
    sparse sets, and ``sync_product.model_relaxation`` reads these once
    per net and cost config.
    """
    w_minus, w_plus = ([[0] * len(net.transitions) for _ in net.places] for _ in range(2))
    for matrix, sets in zip((w_minus, w_plus), firing_data(net)):
        for j, arcs in enumerate(sets):
            for i, w in arcs:
                matrix[i][j] = w
    return IncidenceTriple(
        w_minus=tuple(map(tuple, w_minus)),
        w_plus=tuple(map(tuple, w_plus)),
        incidence=tuple(tuple(p - m for m, p in zip(rm, rp)) for rm, rp in zip(w_minus, w_plus)),
    )


def firing_data(net: PetriNet) -> tuple[ArcSets, ArcSets]:
    """Per-transition sparse (place index, weight) pre/post sets.

    This is the hot-path representation used by reachability exploration
    and search; it is derived once per net and kept on the net, so it lives
    exactly as long as the net does.
    """
    return net._firing_data


def successors(
    net: PetriNet, m: Marking, cap: int
) -> Iterator[tuple[int, Marking | None]]:
    """``(j, m')`` for every transition j enabled at ``m``, in canonical order.

    ``m'`` is the marking firing j produces, or ``None`` when it would put
    more than ``cap`` tokens on a place.  :meth:`SuccessorMemo.expand`
    reads the engines' successors through it; it does not check ``m``.
    """
    pre, post = firing_data(net)
    for j, consume in enumerate(pre):
        for i, w in consume:
            if m[i] < w:
                break
        else:
            succ = list(m)
            for i, w in consume:
                succ[i] -= w
            capped = False
            for i, w in post[j]:
                succ[i] += w
                if succ[i] > cap:
                    capped = True
            yield j, None if capped else tuple(succ)


#: Successor id of a transition whose firing would exceed the token cap.
CAPPED = -1


class SuccessorMemo:
    """The markings of one net reachable under one token cap, numbered in
    discovery order, with their successors.

    ``markings[i]`` is the marking with id ``i``.  ``table[i]`` is ``None``
    until :meth:`expand` fills it with ``((j, i'), ...)``, one pair per
    transition ``j`` enabled at marking ``i`` in canonical order, where
    ``i'`` is the successor's id or :data:`CAPPED`.  The net's initial and
    final markings get ids 0 and 1 (one id if they are equal).  A cap
    below 1 or below the initial marking raises :class:`InvalidLimitsError`.
    """

    def __init__(self, net: PetriNet, cap: int) -> None:
        if cap < 1:
            raise InvalidLimitsError(f"token_cap must be >= 1, got {cap}")
        if any(v > cap for v in net.initial_marking):
            raise InvalidLimitsError(f"initial marking exceeds token_cap={cap}")
        self._net = weakref.ref(net)  # the net holds the memo
        self.cap = cap
        self.markings: list[Marking] = []
        self.ids: dict[Marking, int] = {}
        self.table: list[tuple[tuple[int, int], ...] | None] = []
        self._lock = threading.Lock()
        self._reached: list[bool] | None = None
        self._exceeded = 0  # the largest limit that more markings were seen to exceed
        self.reachable = 0  # the count of reachable markings, once known
        self.capped = False  # whether a reachable marking has a CAPPED successor, once known
        self.priced: dict = {}  # ``flow.ModelGraph`` per cost config
        for m in (net.initial_marking, net.final_marking):
            self._number(m)

    def _number(self, m: Marking) -> int:
        # Callers hold the lock (or own the memo); the id is published last.
        i = self.ids.get(m)
        if i is None:
            i = len(self.markings)
            self.markings.append(m)
            self.table.append(None)
            self.ids[m] = i
        return i

    def expand(self, i: int) -> tuple[tuple[int, int], ...]:
        """``table[i]``, filled through :func:`successors` on first use."""
        row = self.table[i]
        if row is None:
            with self._lock:
                row = self.table[i]
                if row is None:
                    row = tuple(
                        (j, CAPPED if m is None else self._number(m))
                        for j, m in successors(self._net(), self.markings[i], self.cap)
                    )
                    self.table[i] = row
        return row

    def reached(self, limit: int) -> list[bool] | None:
        """Whether each id is reachable from the initial marking, with each
        reachable marking expanded and ``capped`` set; None, with the
        expansion stopped, once more than ``limit`` are reachable, which a
        later call under a limit no larger answers without walking."""
        if limit <= self._exceeded:
            return None
        if self._reached is None:
            order, seen = [0], {0}
            for i in order:
                if len(order) > limit:
                    self._exceeded = max(self._exceeded, limit)
                    return None
                for _, s in self.expand(i):
                    if s >= 0 and s not in seen:
                        seen.add(s)
                        order.append(s)
            self.reachable = len(order)
            self.capped = any(s < 0 for i in order for _, s in self.table[i])
            self._reached = [i in seen for i in range(len(self.markings))]
        return self._reached if self.reachable <= limit else None


def successor_memo(net: PetriNet, cap: int) -> SuccessorMemo:
    """The net's memo for token cap ``cap``, created on first use."""
    memos = net.__dict__.setdefault("_successor_memos", {})
    memo = memos.get(cap)
    if memo is None:
        memo = memos.setdefault(cap, SuccessorMemo(net, cap))
    return memo


def trace_ids(n: int) -> tuple[list[str], list[str]]:
    """The place ids ``p0..pn`` and transition ids ``t1..tn`` of the trace
    model of an ``n``-event trace, zero-padded so that their sorted order
    is their positional order."""
    width = len(str(n))
    return [f"p{i:0{width}d}" for i in range(n + 1)], [f"t{i:0{width}d}" for i in range(1, n + 1)]


def validate_workflow_net(net: PetriNet) -> list[str]:
    """Non-fatal structural diagnostics.

    Reports unconnected nodes, nodes unreachable from the initial marking
    by static connectivity, multiple source/sink places, and zero-weight
    or duplicate arcs.  An empty list means no findings.
    """
    diags: list[str] = []
    touched: set[str] = set()
    seen_arcs: set[tuple[str, str]] = set()
    succ: dict[str, set[str]] = {}
    for src, tgt, w in net.arcs:
        touched.add(src)
        touched.add(tgt)
        succ.setdefault(src, set()).add(tgt)
        if w == 0:
            diags.append(f"zero-weight arc ({src}, {tgt})")
        if (src, tgt) in seen_arcs:
            diags.append(f"duplicate arc ({src}, {tgt})")
        seen_arcs.add((src, tgt))

    for p in net.places:
        if p not in touched:
            diags.append(f"unconnected place {p}")
    for t in net.transitions:
        if t not in touched:
            diags.append(f"unconnected transition {t}")

    incoming = {tgt for _, tgt, _ in net.arcs}
    outgoing = {src for src, _, _ in net.arcs}
    sources = [p for p in net.places if p not in incoming]
    sinks = [p for p in net.places if p not in outgoing]
    if len(sources) > 1:
        diags.append(f"multiple source places: {', '.join(sources)}")
    if len(sinks) > 1:
        diags.append(f"multiple sink places: {', '.join(sinks)}")

    # Static forward reachability from the initially marked places.
    frontier = deque(p for p, v in zip(net.places, net.initial_marking) if v > 0)
    reached = set(frontier)
    while frontier:
        node = frontier.popleft()
        for nxt in succ.get(node, ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    for p in net.places:
        if p not in reached and p in touched:
            diags.append(f"place {p} unreachable from initial marking")
    for t in net.transitions:
        if t not in reached and t in touched:
            diags.append(f"transition {t} unreachable from initial marking")
    return diags
