"""Synchronous product of a process model and one trace, with move costs.

The trace side of a product is always the trace model of its activities:
a path net, whose place ``pos`` holds the token after ``pos`` events and
whose ids are :func:`~flowalign.petri.trace_ids`.  A product is therefore
its process net, its activity sequence, its costs and its token cap, and
:func:`product_for_trace` builds it from those, without a trace net: per
trace, only each event's synchronous moves, from the net's label index.
Its moves are made on demand, each when read (:class:`MoveView`).

The product's transitions are *moves*: synchronous moves pair a process
transition with a trace position carrying the same activity label, model
moves replay a process transition against a gap, and log moves consume a
trace position against a gap.  Costs follow the standard scheme:
synchronous moves are free, silent model moves cost a tiny epsilon, and
every visible deviation costs ``deviation_cost``.

Every walk of a product reads its moves from :meth:`SynchronousProduct.out`,
composed from the model's successor memo and the trace path: the one
place the canonical move order is written.  The model moves and A*'s
:class:`Relaxation` depend only on the net and the costs, so each net
keeps them per :class:`CostConfig` for all its products.  No engine
builds the product as a Petri net.

Costs are exact rationals so that total alignment costs compare exactly
and the number of silent moves is recoverable from the fractional part.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import InvalidInputError
from .petri import TAU, Marking, PetriNet, Trace, incidence_matrices, successor_memo, trace_ids
from .simplex import BasisCache, integers, solve_min_eq

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
        # Kept: every per-net cache looks its config up on every trace.
        object.__setattr__(self, "_hash", hash((self.tau_cost, self.deviation_cost)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def scaled(self) -> tuple[int, int, int]:
        """``(tau, dev, scale)``: both costs times ``scale``, the lcm of their
        denominators.  Every engine prices moves in these integer units."""
        (tau, dev), scale = integers([self.tau_cost, self.deviation_cost])
        return tau, dev, scale


class _StateSpace:
    """Sets a product's ``memo``, ``final`` and ``prices`` on the first read of any, as plain
    attributes: a ``__getattr__`` hook or a ``cached_property`` would slow every later read."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, sp, owner=None):
        if sp is None:
            return self
        net, n = sp.process_net, len(sp.trace_labels)
        memo = successor_memo(net, sp.token_cap)
        tau, dev, _ = sp.cost.scaled
        prices = [0] * sp.offsets[0] + [tau if a is TAU else dev for a in net.labels] + [dev] * n
        object.__setattr__(sp, "memo", memo)
        object.__setattr__(sp, "final", memo.ids[net.final_marking] * (n + 1) + n)
        object.__setattr__(sp, "prices", prices)
        return getattr(sp, self.name)


@dataclass(frozen=True)
class SynchronousProduct:
    """The product of a process net and the trace model of one trace.

    ``moves`` is in one canonical order: all synchronous moves (by process
    transition, then trace position), then model moves (process order),
    then log moves (trace order); ``offsets`` are the indices of the first
    model move and of the first log move.  ``sync_moves_at[pos]`` lists
    ``(process transition index, move index)`` for the synchronous moves at
    trace position ``pos`` (0-based), in process order.  ``cost`` prices
    the moves, and ``token_cap`` bounds each place's tokens in every state
    that either engine searches.

    A product marking is a process-net marking followed by one entry per
    trace position ``0..n``, with the one trace token at the number of
    events consumed so far.  A state's key is ``pid * (n + 1) + pos``, for
    its trace position ``pos`` and the id ``pid`` of its process marking in
    ``memo``, the model's :class:`~flowalign.petri.SuccessorMemo` under
    ``token_cap``.  The initial state's key is 0, ``final`` is the final
    state's, and ``prices`` is each move's cost in the units of
    ``CostConfig.scaled``.  These three are made on the first read of any,
    which is when a cap below 1 or below the initial marking raises the
    memo's :class:`InvalidLimitsError`, and are left out of pickles.
    """

    process_net: PetriNet
    trace_labels: tuple[str, ...]
    cost: CostConfig = CostConfig()
    token_cap: int = 8
    sync_moves_at: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)
    offsets: tuple[int, int] = field(init=False, repr=False, compare=False)

    memo, final, prices = _StateSpace(), _StateSpace(), _StateSpace()

    def __post_init__(self) -> None:
        at, syncs = _sync_moves_at(self.process_net, self.trace_labels)
        object.__setattr__(self, "sync_moves_at", at)
        object.__setattr__(self, "offsets", (syncs, syncs + len(self.process_net.transitions)))
        object.__setattr__(self, "_stride", len(self.trace_labels) + 1)

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in ("memo", "final", "prices")}

    def out(self, key: int) -> Iterator[tuple[int, int | None]]:
        """The product's one successor function: each move enabled at state
        ``key``, with its successor's key, in the canonical move order, the
        order in which firing each move of the product net, in move order,
        meets them:

        1. the synchronous move of each process transition ``j`` enabled at
           ``pid`` whose label is the event at ``pos``, to ``(pid_j, pos + 1)``,
           in ascending ``j``;
        2. the model move of every ``j`` enabled at ``pid``, to ``(pid_j, pos)``,
           in ascending ``j``;
        3. the log move at ``pos``, to ``(pid, pos + 1)``, unless the trace is done.

        A successor is None when the move would put more than ``token_cap``
        tokens on a place (exactly when its process successor does, as a
        trace place holds at most one token), and ``key`` for a self-loop.
        """
        stride, (model0, log0), memo = self._stride, self.offsets, self.memo
        pid, pos = divmod(key, stride)
        row = memo.table[pid] or memo.expand(pid)
        if pos < stride - 1:
            for j, k in self.sync_moves_at[pos]:
                yield from ((k, None if s < 0 else s * stride + pos + 1) for i, s in row if i == j)
        for j, s in row:
            yield model0 + j, None if s < 0 else s * stride + pos
        if pos < stride - 1:
            yield log0 + pos, key + 1

    def split(self, key: int) -> tuple[int, int]:
        """The process marking's id and the trace position of state ``key``."""
        return divmod(key, self._stride)

    def state(self, key: int) -> tuple[Marking, int]:
        """The process marking and the trace position of state ``key``."""
        pid, pos = divmod(key, self._stride)
        return self.memo.markings[pid], pos

    def marking(self, key: int) -> Marking:
        """The full product marking of state ``key``."""
        marking, pos = self.state(key)
        return marking + _one_hot(pos, len(self.trace_labels))

    @property
    def moves(self) -> "MoveView":
        return MoveView(self)

    @cached_property
    def _trace_side(self) -> tuple[list[str], dict[int, tuple[str, int]]]:
        """The renamed trace transition ids, and each synchronous move's process transition and event."""
        return _trace_renaming(self.process_net, len(self.trace_labels))[1], {
            k: (self.process_net.transitions[j], p) for p, at in enumerate(self.sync_moves_at) for j, k in at
        }

    @property
    def initial_marking(self) -> Marking:
        return self.process_net.initial_marking + _one_hot(0, len(self.trace_labels))

    @property
    def final_marking(self) -> Marking:
        n = len(self.trace_labels)
        return self.process_net.final_marking + _one_hot(n, n)

    def counts(self) -> dict[MoveKind, int]:
        return dict(zip(MoveKind, self.kind_counts()))

    def kind_counts(self, path: Sequence[int] | None = None) -> tuple[int, int, int, int]:
        """How many moves of each kind, in :class:`MoveKind` order, the product
        has, or the move indices ``path`` hold, from the index ranges alone."""
        model0, log0 = self.offsets
        labels = self.process_net.labels
        if path is None:
            tau = labels.count(TAU)
            return model0, log0 - model0 - tau, tau, len(self.trace_labels)
        sync = log = tau = 0
        for k in path:
            if k < model0:
                sync += 1
            elif k >= log0:
                log += 1
            elif labels[k - model0] is TAU:
                tau += 1
        return sync, len(path) - sync - log - tau, tau, log


class View(Sequence):
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


class MoveView(View):
    """The moves of a product, each made when read from its index ranges.
    Model moves are the net's (:func:`_model_moves`); the rest read the
    trace's renamed ids, made on the first read of such a move."""

    __slots__ = ()

    def __len__(self) -> int:
        return self._of.offsets[1] + len(self._of.trace_labels)

    def _item(self, k: int) -> SyncMove:
        sp, (model0, log0) = self._of, self._of.offsets
        k = range(len(self))[k]
        if model0 <= k < log0:
            return _model_moves(sp.process_net, sp.cost)[k - model0]
        ids, sync = sp._trace_side
        if k >= log0:
            tt, a = ids[k - log0], sp.trace_labels[k - log0]
            return SyncMove(f"({GAP},{tt})", MoveKind.LOG, None, tt, (GAP, a), sp.cost.deviation_cost)
        t, pos = sync[k]
        return SyncMove(f"({t},{ids[pos]})", MoveKind.SYNC, t, ids[pos], (sp.trace_labels[pos],) * 2, _ZERO)


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


def _sync_moves_at(sn: PetriNet, trace_labels: tuple[str, ...]) -> tuple[tuple, int]:
    """Each event's ``(process transition, move index)`` pairs, and their
    number, in O(n + sync moves) from the net's label index (kept beside its
    model moves): ``j``'s moves follow every earlier one's, one per event."""
    index = sn.__dict__.get("_label_index")
    if index is None:
        visible = [(j, a) for j, a in enumerate(sn.labels) if a is not TAU]
        made = {a: tuple(j for j, b in visible if b == a) for _, a in visible}
        index = sn.__dict__.setdefault("_label_index", made)
    ranks, occurs = [], {}
    for a in trace_labels:
        ranks.append(occurs.get(a, 0))
        occurs[a] = ranks[-1] + 1
    first, k = {}, 0
    for j in sorted(j for a in occurs for j in index.get(a, ())):
        first[j] = k
        k += occurs[sn.labels[j]]
    return tuple(tuple((j, first[j] + r) for j in index.get(a, ())) for a, r in zip(trace_labels, ranks)), k


def product_for_trace(
    sn: PetriNet, trace: Trace, cost: CostConfig = CostConfig(), token_cap: int = 8
) -> SynchronousProduct:
    """The synchronous product of process model ``sn`` and the trace model
    of ``trace``, built from its activities.

    The trace model's ids, made when a move is read, are renamed with a
    prime suffix so the id spaces stay disjoint.  ``token_cap`` is checked
    by the first engine that searches the product.
    """
    return SynchronousProduct(sn, tuple(trace.activities), cost, token_cap)


@dataclass(frozen=True, eq=False)
class Relaxation:
    """A*'s marking equation for all products of one net under one
    :class:`CostConfig`, posed on the model (``astar`` says why it is exact).

    Rows: one per place, then one per visible label (numbered by ``labels``).
    Columns: ``x_j`` per transition (its incidence column, cost ``c_j``),
    ``y_j`` per visible transition (``sync_columns[j]``: that column plus 1
    in its label's row, cost 0), ``s_a`` per label (1 in row ``a``, cost
    ``dev``), all in the units of ``CostConfig.scaled``.  ``seed`` holds
    the optimal tableau at rhs ``(m_f - m_0, 0)``, or is None when that LP
    is infeasible.  Nothing here changes once built.
    """

    rows: list[list[int]]
    costs: list[int]
    labels: dict[str, int]
    sync_columns: dict[int, int]
    seed: BasisCache | None

    def columns(self, sp: SynchronousProduct) -> list[int | None]:
        """Each move's column: sync ``(j, pos)`` is ``y_j``, model ``j`` is
        ``x_j``, a log move ``s`` of its label, or None if the model has none."""
        model0, log0 = sp.offsets
        cols: list[int | None] = [None] * model0 + list(range(log0 - model0))
        for pairs in sp.sync_moves_at:
            for j, k in pairs:
                cols[k] = self.sync_columns[j]
        s0 = len(self.costs) - len(self.labels)
        return cols + [s0 + self.labels[a] if a in self.labels else None for a in sp.trace_labels]


def model_relaxation(sn: PetriNet, cost: CostConfig) -> Relaxation:
    """The :class:`Relaxation` of ``sn`` under ``cost``, built and seeded
    once and kept on the net beside its model moves."""
    cache = sn.__dict__.setdefault("_relaxations", {})
    if cost in cache:
        return cache[cost]
    visible = [j for j, lbl in enumerate(sn.labels) if lbl is not TAU]
    labels = {a: k for k, a in enumerate(dict.fromkeys(sn.labels[j] for j in visible))}
    t, zeros = len(sn.transitions), [0] * len(labels)
    rows = [[*row, *(row[j] for j in visible), *zeros] for row in incidence_matrices(sn).incidence]
    for a, k in labels.items():
        rows.append([0] * t + [int(sn.labels[j] == a) for j in visible] + zeros[:k] + [1] + zeros[k + 1:])
    tau, dev, _ = cost.scaled
    costs = [tau if a is TAU else dev for a in sn.labels] + [0] * len(visible) + [dev] * len(labels)
    seed = BasisCache(rows, costs)
    rhs = [f - v for f, v in zip(sn.final_marking, sn.initial_marking)] + zeros
    optimum = solve_min_eq(rows, rhs, costs, cache=seed)
    sync_columns = {j: t + c for c, j in enumerate(visible)}
    made = Relaxation(rows, costs, labels, sync_columns, optimum and seed)
    return cache.setdefault(cost, made)


def cost_vector(sp: SynchronousProduct) -> tuple[Fraction, ...]:
    """Move costs in the product's canonical transition order."""
    return tuple(m.cost for m in sp.moves)
