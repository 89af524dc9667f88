"""Petri-net core: markings, firing semantics, incidence matrices, trace models.

A marking is a plain tuple of token counts, one entry per place in the
net's canonical place order.  Nets are immutable after construction and
safe to share between threads; every operation here is a pure function.

A net also keeps caches of derived data: its firing data and incidence
matrices, and one :class:`SuccessorMemo` per token cap.  The memo numbers
the markings reached from the initial marking in discovery order and keeps
each one's successors once they have been read through :func:`successors`.
Both engines grow a product graph composed from it
(``sync_product.ProductGraph``), so aligning a model against many traces
fires each model transition once per marking, not once per product state,
and both reject a cap below the initial marking, which the memo refuses.
Its size is bounded by the model's state space under the cap, not by the
length or number of the traces aligned against it.  A memo fills under
its own lock: a thread that misses re-checks under the lock before it
numbers a marking or reads its successors, so concurrent builds see one
numbering, and a filled entry never changes, so reads take no lock.  The
memos, and the model moves that ``sync_product`` keeps on the net, are
left out of pickles and copies, so a net sent to a worker process starts
without them.

The trace model of an ``n``-event trace is a path net whose ids
(:func:`trace_ids`) sort in positional order.  Synchronous products do not
build it: ``sync_product`` composes the trace side from the path itself.
"""

from __future__ import annotations

import functools
import threading
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidInputError, InvalidLimitsError, NotEnabledError

#: Label of a silent transition.  Parsers map absent/invisible activity
#: names to this value; it is never a user-supplied string.
TAU = None

Marking = tuple[int, ...]

Arc = tuple[str, str, int]  # (source id, target id, weight)

#: Caches kept in a net's ``__dict__`` that its pickles and copies leave
#: out: the successor memos, and the model moves ``sync_product`` builds.
_UNPICKLED_CACHES = ("_successor_memos", "_model_moves")

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

    @functools.cached_property
    def _incidence(self) -> "IncidenceTriple":
        w_minus = np.zeros((len(self.places), len(self.transitions)), dtype=np.int64)
        w_plus = np.zeros_like(w_minus)
        for m, sets in zip((w_minus, w_plus), self._firing_data):
            for j, arcs in enumerate(sets):
                for i, w in arcs:
                    m[i, j] = w
        inc = w_plus - w_minus
        for m in (w_minus, w_plus, inc):
            m.setflags(write=False)
        return IncidenceTriple(w_minus=w_minus, w_plus=w_plus, incidence=inc)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for cache in _UNPICKLED_CACHES:
            state.pop(cache, None)
        return state

    @property
    def labeling(self) -> dict[str, str | None]:
        return dict(zip(self.transitions, self.labels))

    def label(self, transition: str) -> str | None:
        return self.labels[self.transition_index[transition]]


@dataclass(frozen=True, eq=False)
class IncidenceTriple:
    """Backward, forward, and net incidence matrices of a net.

    All three are ``|P| x |T|`` integer matrices in the net's canonical
    orders; ``incidence == w_plus - w_minus`` entrywise.
    """

    w_minus: np.ndarray
    w_plus: np.ndarray
    incidence: np.ndarray


@dataclass(frozen=True)
class Trace:
    """One observed activity sequence.  Empty traces are legal."""

    case_id: str
    activities: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.activities)


def incidence_matrices(net: PetriNet) -> IncidenceTriple:
    """Backward/forward/net incidence matrices, deterministic per net."""
    return net._incidence


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
    below the initial marking raises :class:`InvalidLimitsError`.
    """

    def __init__(self, net: PetriNet, cap: int) -> None:
        if any(v > cap for v in net.initial_marking):
            raise InvalidLimitsError(f"initial marking exceeds token_cap={cap}")
        self._net = weakref.ref(net)  # the net holds the memo
        self.cap = cap
        self.markings: list[Marking] = []
        self.ids: dict[Marking, int] = {}
        self.table: list[tuple[tuple[int, int], ...] | None] = []
        self._lock = threading.Lock()
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


def successor_memo(net: PetriNet, cap: int) -> SuccessorMemo:
    """The net's memo for token cap ``cap``, created on first use."""
    memos = net.__dict__.setdefault("_successor_memos", {})
    memo = memos.get(cap)
    if memo is None:
        memo = memos.setdefault(cap, SuccessorMemo(net, cap))
    return memo


def _check_marking(net: PetriNet, m: Marking) -> None:
    if len(m) != len(net.places):
        raise InvalidInputError(
            f"marking has {len(m)} entries but the net has {len(net.places)} places"
        )


def enabled_transitions(net: PetriNet, m: Marking) -> set[str]:
    """All transitions enabled at ``m``: those with ``m >= w_minus(., t)``."""
    _check_marking(net, m)
    pre, _ = firing_data(net)
    out = set()
    for j, t in enumerate(net.transitions):
        if all(m[i] >= w for i, w in pre[j]):
            out.add(t)
    return out


def fire(net: PetriNet, m: Marking, t: str) -> Marking:
    """Fire ``t`` at ``m`` and return the successor marking.

    Raises :class:`NotEnabledError` (naming the deficient places) if ``t``
    is not enabled.
    """
    _check_marking(net, m)
    if t not in net.transition_index:
        raise InvalidInputError(f"unknown transition {t!r}")
    j = net.transition_index[t]
    pre, post = firing_data(net)
    deficient = [net.places[i] for i, w in pre[j] if m[i] < w]
    if deficient:
        raise NotEnabledError(t, deficient)
    out = list(m)
    for i, w in pre[j]:
        out[i] -= w
    for i, w in post[j]:
        out[i] += w
    return tuple(out)


def trace_ids(n: int) -> tuple[list[str], list[str]]:
    """The place ids ``p0..pn`` and transition ids ``t1..tn`` of the trace
    model of an ``n``-event trace, zero-padded so that their sorted order
    is their positional order."""
    width = len(str(n))
    return [f"p{i:0{width}d}" for i in range(n + 1)], [f"t{i:0{width}d}" for i in range(1, n + 1)]


def build_trace_model(trace: Trace) -> PetriNet:
    """Linear Petri net encoding one trace.

    For an ``n``-event trace: places ``p0..pn`` and transitions ``t1..tn``
    (see :func:`trace_ids`); transition ``ti`` consumes ``p(i-1)`` and
    produces ``pi`` and is labeled with the i-th activity.  Initial
    marking ``[p0]``, final marking ``[pn]``.
    """
    n = len(trace.activities)
    places, transitions = trace_ids(n)
    arcs = [(places[i], t) for i, t in enumerate(transitions)]
    arcs += [(t, places[i + 1]) for i, t in enumerate(transitions)]
    labels = dict(zip(transitions, trace.activities))
    return PetriNet.build(places, transitions, arcs, labels, {places[0]: 1}, {places[n]: 1})


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
